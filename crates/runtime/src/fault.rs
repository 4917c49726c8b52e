//! Deterministic fault injection: a seeded, schedule-addressable plan of
//! failures to provoke, plus the [`ReplayBundle`] that makes any failure
//! reproducible with one command.
//!
//! A fault is addressed by *(stage, firing index)* where the firing index
//! counts that stage's firings from zero across the init **and** steady
//! phases on whichever worker hosts it. Because each stage fires on
//! exactly one worker and every worker preserves its local schedule
//! order, the address is deterministic across runs regardless of thread
//! interleaving — the property that lets a `ReplayBundle` reproduce the
//! identical `StageFailure`.
//!
//! The lookup hooks ([`FaultPlan::fault_for`], and
//! [`FaultPlan::first_fault`] for a block of firings) are compiled to a
//! constant `None` unless the `fault-inject` cargo feature is on, so
//! production builds carry no branch in the firing loop.

use macross_telemetry::json::{self, Json};

/// What to do to the addressed firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic mid-firing (exercises the `catch_unwind` supervision path).
    Panic,
    /// Stall the firing for this many nanoseconds before running it
    /// (cooperative: the stall polls the supervisor so an escalated
    /// worker can still be collected). Stalls shorter than the watchdog
    /// timeout are pure latency; longer ones become watchdog failures.
    StallFiring {
        /// Stall length in nanoseconds.
        nanos: u64,
    },
    /// Delay the post-firing ring flush by this many nanoseconds —
    /// backpressure robustness, not a failure: the run must still
    /// complete bit-identically.
    DelayPush {
        /// Delay length in nanoseconds.
        nanos: u64,
    },
    /// Swallow the next `count` unparks on the stage's cut out-edges.
    /// The park timeout bounds the lost-wakeup latency, so the run must
    /// still complete bit-identically.
    DropUnpark {
        /// How many wakeups to swallow per out-edge ring.
        count: u32,
    },
    /// Poison the stage's input tape before the firing; the firing is
    /// then refused with `VmError::Poisoned`.
    PoisonTape,
}

impl FaultKind {
    /// Stable label used in replay bundles and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::StallFiring { .. } => "stall_firing",
            FaultKind::DelayPush { .. } => "delay_push",
            FaultKind::DropUnpark { .. } => "drop_unpark",
            FaultKind::PoisonTape => "poison_tape",
        }
    }

    /// True when the fault must end in a clean [`crate::StageFailure`]
    /// (as opposed to the robustness faults the run must absorb).
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            FaultKind::Panic | FaultKind::PoisonTape | FaultKind::StallFiring { .. }
        )
    }

    fn to_json(self) -> Json {
        let mut fields = vec![("kind", Json::Str(self.label().into()))];
        match self {
            FaultKind::StallFiring { nanos } | FaultKind::DelayPush { nanos } => {
                fields.push(("nanos", Json::Num(nanos as f64)));
            }
            FaultKind::DropUnpark { count } => {
                fields.push(("count", Json::Num(count as f64)));
            }
            FaultKind::Panic | FaultKind::PoisonTape => {}
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Result<FaultKind, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("fault needs a \"kind\" string")?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_num)
                .filter(|n| *n >= 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("fault kind {kind} needs a non-negative \"{key}\""))
        };
        match kind {
            "panic" => Ok(FaultKind::Panic),
            "stall_firing" => Ok(FaultKind::StallFiring {
                nanos: num("nanos")?,
            }),
            "delay_push" => Ok(FaultKind::DelayPush {
                nanos: num("nanos")?,
            }),
            "drop_unpark" => Ok(FaultKind::DropUnpark {
                count: num("count")? as u32,
            }),
            "poison_tape" => Ok(FaultKind::PoisonTape),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// One planned fault: do `kind` at firing `firing` (0-based, init +
/// steady) of stage `stage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Node id of the stage to hit.
    pub stage: usize,
    /// 0-based firing index (counting init-phase firings first).
    pub firing: u64,
    /// What to do there.
    pub kind: FaultKind,
}

/// A deterministic set of faults for one run. Empty by default; built by
/// hand ([`FaultPlan::with`]) or pseudo-randomly from a seed
/// ([`FaultPlan::random`]). The seed is carried along (and serialized in
/// replay bundles) purely as provenance — the specs themselves are what
/// replays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The planned faults.
    pub faults: Vec<FaultSpec>,
}

/// True when the crate was compiled with the `fault-inject` feature, i.e.
/// when [`FaultPlan::fault_for`] can actually trigger anything.
pub const FAULTS_COMPILED: bool = cfg!(feature = "fault-inject");

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(stage: usize, firing: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan::none().with(FaultSpec {
            stage,
            firing,
            kind,
        })
    }

    /// Append a fault (builder style).
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.faults.push(spec);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A pseudo-random plan: `count` faults drawn from `kinds` (xorshift*
    /// over `seed`), aimed at stages `< stages` and firing indices
    /// `< max_firing`. Deterministic in all arguments.
    pub fn random(
        seed: u64,
        stages: usize,
        max_firing: u64,
        kinds: &[FaultKind],
        count: usize,
    ) -> FaultPlan {
        let mut state = seed.max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mut plan = FaultPlan {
            seed,
            faults: Vec::with_capacity(count),
        };
        if stages == 0 || kinds.is_empty() {
            return plan;
        }
        for _ in 0..count {
            plan.faults.push(FaultSpec {
                stage: (next() % stages as u64) as usize,
                firing: if max_firing == 0 {
                    0
                } else {
                    next() % max_firing
                },
                kind: kinds[(next() % kinds.len() as u64) as usize],
            });
        }
        plan
    }

    /// The fault planned for `(stage, firing)`, if any. With the
    /// `fault-inject` feature off this is a constant `None` the optimizer
    /// removes from the firing loop.
    #[inline]
    pub fn fault_for(&self, stage: usize, firing: u64) -> Option<FaultKind> {
        if !FAULTS_COMPILED {
            return None;
        }
        self.faults
            .iter()
            .find(|f| f.stage == stage && f.firing == firing)
            .map(|f| f.kind)
    }

    /// How many of the `k` firings `from, from + stride, …` of `stage`
    /// come before the first one the plan addresses (`None`: none of them
    /// is). What a block of firings is split at, by every engine alike;
    /// like [`FaultPlan::fault_for`] a constant `None` without the
    /// feature.
    #[inline]
    pub fn first_fault(&self, stage: usize, from: u64, stride: u64, k: u64) -> Option<u64> {
        if !FAULTS_COMPILED || self.faults.is_empty() {
            return None;
        }
        self.faults
            .iter()
            .filter(|f| f.stage == stage && f.firing >= from)
            .map(|f| f.firing - from)
            .filter(|ahead| ahead.is_multiple_of(stride))
            .map(|ahead| ahead / stride)
            .filter(|&j| j < k)
            .min()
    }

    /// The plan as a JSON value (for [`ReplayBundle`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            (
                "faults",
                Json::Arr(
                    self.faults
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("stage", Json::Num(f.stage as f64)),
                                ("firing", Json::Num(f.firing as f64)),
                                ("fault", f.kind.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild a plan from its JSON form.
    ///
    /// # Errors
    /// Describes the first malformed field.
    pub fn from_json(v: &Json) -> Result<FaultPlan, String> {
        let seed = v
            .get("seed")
            .and_then(Json::as_num)
            .ok_or("plan needs a numeric \"seed\"")? as u64;
        let mut faults = Vec::new();
        for (i, f) in v
            .get("faults")
            .and_then(Json::as_arr)
            .ok_or("plan needs a \"faults\" array")?
            .iter()
            .enumerate()
        {
            let num = |key: &str| {
                f.get(key)
                    .and_then(Json::as_num)
                    .filter(|n| *n >= 0.0)
                    .ok_or_else(|| format!("faults[{i}] needs a non-negative \"{key}\""))
            };
            faults.push(FaultSpec {
                stage: num("stage")? as usize,
                firing: num("firing")? as u64,
                kind: FaultKind::from_json(
                    f.get("fault")
                        .ok_or(format!("faults[{i}] needs a \"fault\""))?,
                )?,
            });
        }
        Ok(FaultPlan { seed, faults })
    }
}

/// Everything needed to reproduce a failing run locally with one command
/// (`cargo run -p macross-bench --features fault-inject --bin replay_fault
/// -- <bundle.json>`): the benchmark + machine + mode that rebuild the
/// graph and schedule, the exact worker assignment, and the fault plan.
/// `expect` pins the failures the original run observed so the replay can
/// verify it reproduced them identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayBundle {
    /// Benchmark name (resolved via `macross_benchsuite::by_name`).
    pub benchmark: String,
    /// Whether the graph was macro-SIMDized before scheduling.
    pub simdized: bool,
    /// Machine description name (e.g. `core_i7_sse4`).
    pub machine: String,
    /// Work-function engine: `bytecode` or `treewalk`.
    pub exec_mode: String,
    /// Node id -> core, exactly as the failing run was placed.
    pub assignment: Vec<u32>,
    /// Steady iterations requested.
    pub iters: u64,
    /// Watchdog timeout in milliseconds (0 = no watchdog).
    pub watchdog_ms: u64,
    /// The faults that were injected.
    pub plan: FaultPlan,
    /// `(stage, firing, cause label)` of every failure the original run
    /// reported, in report order.
    pub expect: Vec<(usize, u64, String)>,
}

impl ReplayBundle {
    /// Canonical file name: `REPLAY_<benchmark>_<seed>.json`.
    pub fn file_name(&self) -> String {
        format!("REPLAY_{}_{}.json", self.benchmark, self.plan.seed)
    }

    /// The bundle as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("macross-replay-v1".into())),
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("simdized", Json::Bool(self.simdized)),
            ("machine", Json::Str(self.machine.clone())),
            ("exec_mode", Json::Str(self.exec_mode.clone())),
            (
                "assignment",
                Json::Arr(
                    self.assignment
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
            ("iters", Json::Num(self.iters as f64)),
            ("watchdog_ms", Json::Num(self.watchdog_ms as f64)),
            ("plan", self.plan.to_json()),
            (
                "expect",
                Json::Arr(
                    self.expect
                        .iter()
                        .map(|(stage, firing, cause)| {
                            Json::obj([
                                ("stage", Json::Num(*stage as f64)),
                                ("firing", Json::Num(*firing as f64)),
                                ("cause", Json::Str(cause.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON document.
    pub fn json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Write `REPLAY_<benchmark>_<seed>.json` into `dir`, returning the
    /// path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.json_string())?;
        Ok(path)
    }
}

impl std::str::FromStr for ReplayBundle {
    type Err = String;

    /// Parse a bundle from its JSON text, naming the first malformed
    /// field on error.
    fn from_str(input: &str) -> Result<ReplayBundle, String> {
        let v = json::parse(input)?;
        let s = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("bundle needs a string \"{key}\""))
        };
        let n = |key: &str| {
            v.get(key)
                .and_then(Json::as_num)
                .filter(|x| *x >= 0.0)
                .ok_or_else(|| format!("bundle needs a non-negative \"{key}\""))
        };
        if v.get("schema").and_then(Json::as_str) != Some("macross-replay-v1") {
            return Err("bundle schema must be \"macross-replay-v1\"".into());
        }
        let assignment = v
            .get("assignment")
            .and_then(Json::as_arr)
            .ok_or("bundle needs an \"assignment\" array")?
            .iter()
            .map(|c| {
                c.as_num()
                    .filter(|x| *x >= 0.0)
                    .map(|x| x as u32)
                    .ok_or("assignment entries must be non-negative numbers".to_string())
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let mut expect = Vec::new();
        for (i, e) in v
            .get("expect")
            .and_then(Json::as_arr)
            .ok_or("bundle needs an \"expect\" array")?
            .iter()
            .enumerate()
        {
            let num = |key: &str| {
                e.get(key)
                    .and_then(Json::as_num)
                    .filter(|x| *x >= 0.0)
                    .ok_or_else(|| format!("expect[{i}] needs a non-negative \"{key}\""))
            };
            expect.push((
                num("stage")? as usize,
                num("firing")? as u64,
                e.get("cause")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("expect[{i}] needs a \"cause\" string"))?
                    .to_string(),
            ));
        }
        Ok(ReplayBundle {
            benchmark: s("benchmark")?,
            simdized: matches!(v.get("simdized"), Some(Json::Bool(true))),
            machine: s("machine")?,
            exec_mode: s("exec_mode")?,
            assignment,
            iters: n("iters")? as u64,
            watchdog_ms: n("watchdog_ms")? as u64,
            plan: FaultPlan::from_json(v.get("plan").ok_or("bundle needs a \"plan\"")?)?,
            expect,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn random_plans_are_deterministic() {
        let kinds = [FaultKind::Panic, FaultKind::PoisonTape];
        let a = FaultPlan::random(42, 7, 100, &kinds, 5);
        let b = FaultPlan::random(42, 7, 100, &kinds, 5);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 5);
        assert!(a.faults.iter().all(|f| f.stage < 7 && f.firing < 100));
        let c = FaultPlan::random(43, 7, 100, &kinds, 5);
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn fault_lookup_respects_feature_gate() {
        let plan = FaultPlan::single(2, 5, FaultKind::Panic);
        let hit = plan.fault_for(2, 5);
        if FAULTS_COMPILED {
            assert_eq!(hit, Some(FaultKind::Panic));
            assert_eq!(plan.fault_for(2, 6), None);
            assert_eq!(plan.fault_for(1, 5), None);
            // Firing 5 is the sixth of a block from 0, outside one of
            // five, the third of a replica's 1, 3, 5, … and not among
            // 0, 2, 4, … at all; a block that starts past it is clean.
            assert_eq!(plan.first_fault(2, 0, 1, 6), Some(5));
            assert_eq!(plan.first_fault(2, 0, 1, 5), None);
            assert_eq!(plan.first_fault(2, 1, 2, 8), Some(2));
            assert_eq!(plan.first_fault(2, 0, 2, 8), None);
            assert_eq!(plan.first_fault(2, 6, 1, 8), None);
            assert_eq!(plan.first_fault(1, 0, 1, 8), None);
        } else {
            assert_eq!(hit, None, "faults must be inert without the feature");
            assert_eq!(plan.first_fault(2, 0, 1, 6), None);
        }
    }

    #[test]
    fn plan_json_roundtrip() {
        let plan = FaultPlan {
            seed: 99,
            faults: vec![
                FaultSpec {
                    stage: 1,
                    firing: 3,
                    kind: FaultKind::StallFiring { nanos: 5_000_000 },
                },
                FaultSpec {
                    stage: 4,
                    firing: 0,
                    kind: FaultKind::DropUnpark { count: 3 },
                },
            ],
        };
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn bundle_roundtrip_and_file_name() {
        let bundle = ReplayBundle {
            benchmark: "FMRadio".into(),
            simdized: true,
            machine: "core_i7_sse4".into(),
            exec_mode: "bytecode".into(),
            assignment: vec![0, 0, 1, 1],
            iters: 50,
            watchdog_ms: 200,
            plan: FaultPlan::single(2, 7, FaultKind::Panic),
            expect: vec![(2, 7, "panic".into())],
        };
        assert_eq!(bundle.file_name(), "REPLAY_FMRadio_0.json");
        let back = ReplayBundle::from_str(&bundle.json_string()).unwrap();
        assert_eq!(back, bundle);
    }

    #[test]
    fn malformed_bundles_are_rejected_with_context() {
        let err = ReplayBundle::from_str("{}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let err =
            FaultKind::from_json(&Json::obj([("kind", Json::Str("meteor".into()))])).unwrap_err();
        assert!(err.contains("meteor"), "{err}");
    }
}
