//! Worker supervision: typed stage failures, the interrupt that turns a
//! failure into a drain, and the watchdog that escalates stuck stages.
//!
//! The protocol: every failure (a `VmError`, a caught panic, or a
//! watchdog escalation) is recorded, raises the shared interrupt flag and
//! flags itself unread to every worker. Every blocking wait in the
//! runtime (ring pushes/pops, the start gate) polls one of those flags,
//! so no worker stays blocked past the park timeout. On observing its
//! flag, a worker reads the failures, lowers the flag, and fires each of
//! its nodes to the bound [`crate::committed_outcome`] gives — blocking
//! only for tokens that bound guarantees will arrive, starting over when
//! another failure lowers the bounds. The coordinator then assembles a
//! [`crate::RuntimeReport`] whose `failures` list tells the caller
//! exactly which stage failed, at which firing, under which engine.

use macross_telemetry::clock;
use macross_vm::{ExecMode, VmError};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::fault::FaultPlan;

/// Why a stage failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The stage's firing returned a typed VM error (includes guest
    /// panics caught at the firing boundary and poisoned tapes).
    Vm(VmError),
    /// The firing panicked outside the VM's own boundary (splitter /
    /// joiner / sink primitives, or an injected panic).
    Panic(String),
    /// The watchdog escalated the stage: one firing exceeded its timeout.
    Watchdog {
        /// How long the firing had been running when escalated.
        waited_nanos: u64,
    },
}

impl FailureCause {
    /// Stable label (`vm` / `panic` / `watchdog`) for reports and replay
    /// bundles.
    pub fn label(&self) -> &'static str {
        match self {
            FailureCause::Vm(_) => "vm",
            FailureCause::Panic(_) => "panic",
            FailureCause::Watchdog { .. } => "watchdog",
        }
    }
}

/// One stage's failure, as reported to the supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct StageFailure {
    /// Node id of the failed stage.
    pub stage: usize,
    /// Stage display name (filter name or node kind).
    pub name: String,
    /// Core the stage was assigned to.
    pub core: u32,
    /// 0-based firing index at which it failed (init + steady).
    pub firing: u64,
    /// True when the stage's `init` function failed, before any firing:
    /// the failure then belongs to the init phase whatever `firing` says.
    pub init_fn: bool,
    /// Engine the worker was firing with.
    pub mode: ExecMode,
    /// Why.
    pub cause: FailureCause,
}

impl fmt::Display for StageFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let init = if self.init_fn { " (init function)" } else { "" };
        write!(
            f,
            "stage {} ({}) on core {} failed at firing {}{init} [{:?}]: ",
            self.stage, self.name, self.core, self.firing, self.mode
        )?;
        match &self.cause {
            FailureCause::Vm(e) => write!(f, "{e}"),
            FailureCause::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureCause::Watchdog { waited_nanos } => {
                write!(f, "watchdog fired after {waited_nanos} ns")
            }
        }
    }
}

/// Options for a supervised run ([`crate::run_supervised_placed`]).
#[derive(Debug, Clone, Default)]
pub struct SupervisorOptions {
    /// Work-function engine on every worker.
    pub mode: ExecMode,
    /// Per-firing watchdog timeout applied to every stage (`None`
    /// disables the watchdog thread entirely).
    pub watchdog: Option<Duration>,
    /// Faults to inject.
    pub plan: FaultPlan,
}

impl SupervisorOptions {
    /// Options injecting `plan` with everything else at defaults.
    pub fn with_plan(plan: FaultPlan) -> SupervisorOptions {
        SupervisorOptions {
            plan,
            ..SupervisorOptions::default()
        }
    }

    /// Set the global watchdog timeout (builder style).
    #[must_use]
    pub fn watchdog_after(mut self, timeout: Duration) -> SupervisorOptions {
        self.watchdog = Some(timeout);
        self
    }
}

/// Per-worker firing heartbeat, written by the worker and read by the
/// watchdog. `seq` is even when idle and odd while inside a firing (a
/// seqlock flavor: the watchdog samples `seq` before and after reading
/// the rest and retries on mismatch).
#[derive(Debug, Default)]
pub(crate) struct Heartbeat {
    seq: AtomicU64,
    stage: AtomicU32,
    firing: AtomicU64,
    started_ns: AtomicU64,
}

impl Heartbeat {
    pub(crate) fn begin(&self, stage: usize, firing: u64) {
        self.stage.store(stage as u32, Ordering::Relaxed);
        self.firing.store(firing, Ordering::Relaxed);
        self.started_ns.store(clock::now_ns(), Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release); // even -> odd
    }

    pub(crate) fn end(&self) {
        self.seq.fetch_add(1, Ordering::Release); // odd -> even
    }

    /// `(seq, stage, firing, started_ns)` if a firing is in progress and
    /// the sample is consistent.
    fn sample(&self) -> Option<(u64, usize, u64, u64)> {
        let seq = self.seq.load(Ordering::Acquire);
        if seq & 1 == 0 {
            return None;
        }
        let stage = self.stage.load(Ordering::Relaxed) as usize;
        let firing = self.firing.load(Ordering::Relaxed);
        let started = self.started_ns.load(Ordering::Relaxed);
        (self.seq.load(Ordering::Acquire) == seq).then_some((seq, stage, firing, started))
    }
}

/// Shared supervision state for one run: the failure list, the interrupt
/// flag that triggers draining, each worker's unread-failure flag, and
/// the per-worker heartbeats.
pub(crate) struct Supervisor {
    interrupt: AtomicBool,
    done: AtomicBool,
    failures: Mutex<Vec<StageFailure>>,
    unread: Vec<AtomicBool>,
    heartbeats: Vec<Heartbeat>,
}

impl Supervisor {
    pub(crate) fn new(workers: usize) -> Supervisor {
        Supervisor {
            interrupt: AtomicBool::new(false),
            done: AtomicBool::new(false),
            failures: Mutex::new(Vec::new()),
            unread: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            heartbeats: (0..workers).map(|_| Heartbeat::default()).collect(),
        }
    }

    /// The flag every blocking wait polls. Raised on the first failure.
    pub(crate) fn interrupt_flag(&self) -> &AtomicBool {
        &self.interrupt
    }

    /// True once any failure was recorded: workers switch to draining.
    pub(crate) fn draining(&self) -> bool {
        self.interrupt.load(Ordering::Relaxed)
    }

    /// Record a failure, flag it unread to every worker and raise the
    /// interrupt.
    pub(crate) fn raise(&self, failure: StageFailure) {
        self.failures.lock().unwrap().push(failure);
        self.unread
            .iter()
            .for_each(|f| f.store(true, Ordering::Release));
        self.interrupt.store(true, Ordering::Release);
    }

    /// The flag worker `slot`'s waits poll: raised by every failure,
    /// lowered by [`Supervisor::read_failures`].
    pub(crate) fn unread_flag(&self, slot: usize) -> &AtomicBool {
        &self.unread[slot]
    }

    /// Every failure so far, read by worker `slot`. Its flag is lowered
    /// before the list is read, so a failure the read misses raises it
    /// again.
    pub(crate) fn read_failures(&self, slot: usize) -> Vec<StageFailure> {
        self.unread[slot].store(false, Ordering::Release);
        self.failures.lock().unwrap().clone()
    }

    /// True when the watchdog condemned firing `firing` of `stage`.
    pub(crate) fn condemned(&self, stage: usize, firing: u64) -> bool {
        let failures = self.failures.lock().unwrap();
        let watchdog = |f: &&StageFailure| matches!(f.cause, FailureCause::Watchdog { .. });
        failures
            .iter()
            .filter(watchdog)
            .any(|f| (f.stage, f.firing) == (stage, firing))
    }

    pub(crate) fn heartbeat(&self, worker: usize) -> &Heartbeat {
        &self.heartbeats[worker]
    }

    /// Workers all joined; stops the watchdog loop.
    pub(crate) fn finish(&self) {
        self.done.store(true, Ordering::Release);
    }

    pub(crate) fn take_failures(&self) -> Vec<StageFailure> {
        std::mem::take(&mut self.failures.lock().unwrap())
    }

    /// The watchdog loop: poll heartbeats until [`Supervisor::finish`],
    /// escalating any firing that outlives the watchdog timeout. Each
    /// stuck firing is escalated once (keyed by heartbeat seq). Runs on
    /// its own thread inside the run's scope; returns the escalations it
    /// raised (already recorded).
    pub(crate) fn run_watchdog(
        &self,
        opts: &SupervisorOptions,
        worker_cores: &[u32],
        stage_names: &[String],
    ) {
        let Some(timeout) = opts.watchdog else {
            return;
        };
        let poll = (timeout / 8).clamp(Duration::from_micros(100), Duration::from_millis(5));
        let mut escalated: Vec<u64> = vec![0; self.heartbeats.len()];
        while !self.done.load(Ordering::Acquire) {
            std::thread::sleep(poll);
            for (w, hb) in self.heartbeats.iter().enumerate() {
                let Some((seq, stage, firing, started_ns)) = hb.sample() else {
                    continue;
                };
                if escalated[w] == seq {
                    continue;
                }
                let waited_nanos = clock::now_ns().saturating_sub(started_ns);
                if waited_nanos < timeout.as_nanos() as u64 {
                    continue;
                }
                escalated[w] = seq;
                self.raise(StageFailure {
                    stage,
                    name: stage_names.get(stage).cloned().unwrap_or_default(),
                    core: worker_cores[w],
                    firing,
                    init_fn: false,
                    mode: opts.mode,
                    cause: FailureCause::Watchdog { waited_nanos },
                });
            }
        }
    }
}
