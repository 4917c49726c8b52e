//! Worker supervision: typed stage failures, the interrupt that turns a
//! failure into a coordinated drain, and the watchdog that escalates
//! stuck stages.
//!
//! The protocol: the first failure (a `VmError`, a caught panic, or a
//! watchdog escalation) is recorded and raises the shared interrupt
//! flag. Every blocking wait in the runtime (ring pushes/pops, the start
//! gate) polls that flag, so no worker can stay blocked past the park
//! timeout. On observing the interrupt, each worker switches from the
//! steady schedule to a *drain*: stages that can still make progress
//! without the failed stages finish whatever is buffered (bounding their
//! firings by what the full run would have executed), everything
//! upstream of a failure parks, and the worker returns its partial
//! output. The coordinator then assembles a [`crate::RuntimeReport`]
//! whose `failures` list tells the caller exactly which stage failed, at
//! which firing, under which engine.

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
    /// Engine the worker was firing with.
    pub mode: ExecMode,
    /// Why.
    pub cause: FailureCause,
}

impl fmt::Display for StageFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {} ({}) on core {} failed at firing {} [{:?}]: ",
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
    /// Per-stage overrides of the watchdog timeout (node id, timeout).
    pub stage_timeouts: Vec<(usize, Duration)>,
    /// Faults to inject (inert unless built with `fault-inject`).
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

    /// The effective per-firing timeout for `stage`, if any.
    pub(crate) fn timeout_for(&self, stage: usize) -> Option<Duration> {
        self.stage_timeouts
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, t)| *t)
            .or(self.watchdog)
    }

    /// True when a watchdog thread is needed at all.
    pub(crate) fn wants_watchdog(&self) -> bool {
        self.watchdog.is_some() || !self.stage_timeouts.is_empty()
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
/// flag that triggers draining, and the per-worker heartbeats.
pub(crate) struct Supervisor {
    interrupt: AtomicBool,
    done: AtomicBool,
    failures: Mutex<Vec<StageFailure>>,
    heartbeats: Vec<Heartbeat>,
}

impl Supervisor {
    pub(crate) fn new(workers: usize) -> Supervisor {
        Supervisor {
            interrupt: AtomicBool::new(false),
            done: AtomicBool::new(false),
            failures: Mutex::new(Vec::new()),
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

    /// Record a failure and raise the interrupt.
    pub(crate) fn raise(&self, failure: StageFailure) {
        self.failures.lock().unwrap().push(failure);
        self.interrupt.store(true, Ordering::Release);
    }

    /// Node ids of every failed stage so far.
    pub(crate) fn failed_stages(&self) -> Vec<usize> {
        self.failures
            .lock()
            .unwrap()
            .iter()
            .map(|f| f.stage)
            .collect()
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
    /// escalating any firing that outlives its stage's timeout. Each
    /// stuck firing is escalated once (keyed by heartbeat seq). Runs on
    /// its own thread inside the run's scope; returns the escalations it
    /// raised (already recorded).
    pub(crate) fn run_watchdog(
        &self,
        opts: &SupervisorOptions,
        worker_cores: &[u32],
        stage_names: &[String],
    ) {
        let min_timeout = opts
            .watchdog
            .iter()
            .chain(opts.stage_timeouts.iter().map(|(_, t)| t))
            .min()
            .copied()
            .unwrap_or(Duration::from_millis(100));
        let poll = (min_timeout / 8).clamp(Duration::from_micros(100), Duration::from_millis(5));
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
                let Some(timeout) = opts.timeout_for(stage) else {
                    continue;
                };
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
                    mode: opts.mode,
                    cause: FailureCause::Watchdog { waited_nanos },
                });
            }
        }
    }
}
