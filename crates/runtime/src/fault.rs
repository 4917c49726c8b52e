//! Deterministic fault injection: a schedule-addressable plan of
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
//! [`FaultPlan::first_fault`] for a block of firings) answer an empty
//! plan — what every production caller passes — with one length test,
//! taken once per block of firings, not per firing.
//!
//! What a failure leaves behind is a function of the program, not of the
//! engine: [`committed_outcome`] gives every node the number of firings a
//! failed run commits, and every engine fires each node exactly that far.

use crate::supervisor::StageFailure;
use macross_sdf::Schedule;
use macross_streamir::graph::{Edge, Graph, ReorderSide};
use macross_telemetry::json::{self, Json};

/// How many firings of each node, indexed by node id, a run with
/// `failures` commits — every engine fires each node exactly that far, and
/// a sink's output is the clean run's cut to its bound (a sink captures
/// one value a firing). One topological pass of rate arithmetic per
/// failure, the bounds of several failures being their elementwise
/// minimum:
///
/// - a node's *horizon* is the end of the failure's steady iteration `i`
///   (the init phase and a failed `init` function count as iteration
///   −1): `init_reps + (i + 1)·reps` firings;
/// - the failed stage's bound is its failed firing's index;
/// - every other node's bound is the smaller of its horizon and the
///   firings its in-edges feed from what their producers' bounds commit
///   (push, pop and peek rates — splitter and joiner weights included —
///   whole blocks of a reorder at either end; a fissioned node's firings
///   are its global ones, whichever replica fires them).
///
/// A failure that names no node (a worker's harness panic) commits
/// nothing. Without failures every bound is `u64::MAX`.
pub fn committed_outcome(
    graph: &Graph,
    schedule: &Schedule,
    failures: &[StageFailure],
) -> Vec<u64> {
    let mut bounds = vec![u64::MAX; graph.node_count()];
    for f in failures {
        let mut own = vec![0; graph.node_count()];
        if f.stage < own.len() {
            let iters = iterations_to(schedule, f);
            for &id in &schedule.order {
                let n = id.0 as usize;
                let mut b = schedule.init_reps[n] + iters * schedule.reps[n];
                for e in graph.in_edges(id).into_iter().map(|e| graph.edge(e)) {
                    let (pop, need, block) = read_rates(graph, e);
                    let tokens = edge_writes(graph, e, own[e.src.0 as usize]) / block * block;
                    let fed = |spare: u64| spare.checked_div(pop).map_or(u64::MAX, |n| n + 1);
                    b = b.min(tokens.checked_sub(need).map_or(0, fed));
                }
                own[n] = if n == f.stage { b.min(f.firing) } else { b };
            }
        }
        bounds
            .iter_mut()
            .zip(own)
            .for_each(|(b, o)| *b = (*b).min(o));
    }
    bounds
}

/// Steady iterations up to failure `f`'s horizon: its iteration plus one.
fn iterations_to(schedule: &Schedule, f: &StageFailure) -> u64 {
    match f.firing.checked_sub(schedule.init_reps[f.stage]) {
        Some(steady) if !f.init_fn => steady / schedule.reps[f.stage] + 1,
        _ => 0,
    }
}

/// `(pop, reach, block)` of `e`'s consumer: tokens a firing consumes, how
/// far past its first token it reads (`max(pop, peek)`), and the
/// consumer-side reorder block it addresses anywhere inside (1 if plain).
fn read_rates(graph: &Graph, e: &Edge) -> (u64, u64, u64) {
    let node = graph.node(e.dst);
    let pop = node.pop_rate(e.dst_port) as u64;
    let block = e.reorder.filter(|r| r.side == ReorderSide::Consumer);
    let need = pop.max(node.peek_rate(e.dst_port) as u64);
    (pop, need, block.map_or(1, |r| r.block() as u64))
}

/// Tokens of `e` its producer's first `firings` firings commit: whole
/// blocks of a producer-side reorder.
fn edge_writes(graph: &Graph, e: &Edge, firings: u64) -> u64 {
    let block = e.reorder.filter(|r| r.side == ReorderSide::Producer);
    let block = block.map_or(1, |r| r.block() as u64);
    firings.saturating_mul(graph.node(e.src).push_rate(e.src_port) as u64) / block * block
}

/// Tokens of `e` its consumer's first `firings` firings read.
pub(crate) fn edge_reads(graph: &Graph, e: &Edge, firings: u64) -> u64 {
    let (pop, need, block) = read_rates(graph, e);
    firings
        .checked_sub(1)
        .map_or(0, |n| (n * pop + need).next_multiple_of(block))
}

/// `failures` in committed order — by iteration, then schedule position
/// and firing, a harness failure last — less each one past the outcome
/// of those before it: a firing a worker ran ahead to before it saw the
/// interrupt, which the committed run never reaches (nor do its bounds).
pub(crate) fn committed_failures(
    graph: &Graph,
    schedule: &Schedule,
    mut failures: Vec<StageFailure>,
) -> Vec<StageFailure> {
    let mut at = vec![usize::MAX; graph.node_count()];
    schedule
        .order
        .iter()
        .enumerate()
        .for_each(|(i, id)| at[id.0 as usize] = i);
    failures.sort_by_key(|f| match at.get(f.stage) {
        Some(&pos) => (iterations_to(schedule, f), pos, f.firing),
        None => (u64::MAX, usize::MAX, 0),
    });
    let mut kept = Vec::with_capacity(failures.len());
    for f in failures {
        let bounds = committed_outcome(graph, schedule, &kept);
        if f.stage >= bounds.len() || f.firing < bounds[f.stage] {
            kept.push(f);
        }
    }
    kept
}

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
    /// Poison the stage's first tape before the firing — its first input,
    /// or a source's output — for a stage of any node kind; the firing is
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

/// A deterministic set of faults for one run. Empty by default; built
/// with [`FaultPlan::single`] and [`FaultPlan::with`]. The seed is carried
/// along (and serialized in replay bundles) purely as provenance — the
/// specs themselves are what replays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Provenance only (0 for a plain hand-built plan): it names the
    /// plan's replay bundle file.
    pub seed: u64,
    /// The planned faults.
    pub faults: Vec<FaultSpec>,
}

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

    /// The fault planned for `(stage, firing)`, if any.
    #[inline]
    pub fn fault_for(&self, stage: usize, firing: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.stage == stage && f.firing == firing)
            .map(|f| f.kind)
    }

    /// How many of the `k` firings `from, from + stride, …` of `stage`
    /// come before the first one the plan addresses (`None`: none of them
    /// is). What a block of firings is split at, by every engine alike.
    #[inline]
    pub fn first_fault(&self, stage: usize, from: u64, stride: u64, k: u64) -> Option<u64> {
        if self.faults.is_empty() {
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
/// (`cargo run -p macross-bench --bin replay_fault -- <bundle.json>`):
/// the benchmark + machine + mode that rebuild the graph and schedule,
/// the exact worker assignment, and the fault plan.
/// `expect` pins the failures the original run observed and what each
/// sink committed, so the replay can verify it reproduced both.
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
    /// What the original run left behind.
    pub expect: FailureSignature,
}

/// What a failed run left behind, as a [`ReplayBundle`] pins it: every
/// failure's `(stage, firing, cause label)` in report order, and each
/// sink's committed length — which answers "why did sink k stop at 380?"
/// from the bundle. Both lists are empty for a clean run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSignature {
    /// `(stage, firing, cause label)` per failure.
    pub failures: Vec<(usize, u64, String)>,
    /// `(sink node id, values committed)` per sink of a failed run.
    pub sinks: Vec<(usize, u64)>,
}

impl ReplayBundle {
    /// Canonical file name: `REPLAY_<benchmark>_<seed>.json`.
    pub fn file_name(&self) -> String {
        format!("REPLAY_{}_{}.json", self.benchmark, self.plan.seed)
    }

    /// The bundle as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("macross-replay-v2".into())),
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
            ("expect", self.expect_json()),
        ])
    }

    fn expect_json(&self) -> Json {
        let num = |x: u64| Json::Num(x as f64);
        let failures = self.expect.failures.iter().map(|(stage, firing, cause)| {
            Json::obj([
                ("stage", num(*stage as u64)),
                ("firing", num(*firing)),
                ("cause", Json::Str(cause.clone())),
            ])
        });
        let sinks = (self.expect.sinks.iter())
            .map(|&(node, len)| Json::obj([("node", num(node as u64)), ("len", num(len))]));
        Json::obj([
            ("failures", Json::Arr(failures.collect())),
            ("sinks", Json::Arr(sinks.collect())),
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
        if v.get("schema").and_then(Json::as_str) != Some("macross-replay-v2") {
            return Err("bundle schema must be \"macross-replay-v2\"".into());
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
        let expect = v.get("expect").ok_or("bundle needs an \"expect\"")?;
        let list = |key: &str| {
            let found = expect.get(key).and_then(Json::as_arr);
            found.ok_or_else(|| format!("expect needs a \"{key}\" array"))
        };
        let num = |e: &Json, at: &str, key: &str| {
            let found = e.get(key).and_then(Json::as_num).filter(|x| *x >= 0.0);
            found.ok_or_else(|| format!("{at} needs a non-negative \"{key}\""))
        };
        let mut signature = FailureSignature::default();
        for (i, e) in list("failures")?.iter().enumerate() {
            let at = format!("expect.failures[{i}]");
            let cause = e.get("cause").and_then(Json::as_str);
            let cause = cause.ok_or_else(|| format!("{at} needs a \"cause\" string"))?;
            let (stage, firing) = (num(e, &at, "stage")?, num(e, &at, "firing")?);
            (signature.failures).push((stage as usize, firing as u64, cause.to_string()));
        }
        for (i, e) in list("sinks")?.iter().enumerate() {
            let at = format!("expect.sinks[{i}]");
            let (node, len) = (num(e, &at, "node")?, num(e, &at, "len")?);
            signature.sinks.push((node as usize, len as u64));
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
            expect: signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn fault_lookup_finds_only_planned_firings() {
        let plan = FaultPlan::single(2, 5, FaultKind::Panic);
        assert_eq!(plan.fault_for(2, 5), Some(FaultKind::Panic));
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
        assert_eq!(FaultPlan::none().first_fault(2, 0, 1, 6), None);
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
            expect: FailureSignature {
                failures: vec![(2, 7, "panic".into())],
                sinks: vec![(3, 380)],
            },
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
