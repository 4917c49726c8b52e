//! One (workload, seed) run: oracle, set-up, timed passes, verification
//! and the result line.

use crate::host::{self, MachineProbe};
use crate::names;
use crate::stats::{self, Rng};
use crate::suite::{oracle_stream, Refs};
use crate::trace::Tracer;
use crate::workloads::{service_opts, Load, PassOut, RefSpec, Workload};
use macross_telemetry::json::Json;
use macross_vm::Machine;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed-phase length when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick`: a smoke of every code path, not a measurement.
pub const QUICK_SECONDS: f64 = 0.5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// A run whose scaled p90 pass time exceeds its p50 by more than this
/// factor is noisy whatever the probe says: the threaded workloads are
/// at the mercy of vCPU wake-up latency, which no single-thread probe
/// sees. Clean seed runs stay at or below 1.31 on every workload.
pub const DISPERSION_LIMIT: f64 = 1.35;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Selftest only: flip one bit of one reference stream.
    pub corrupt_reference: bool,
}

impl RunConfig {
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// What a run reports.
pub struct Outcome {
    pub header: Json,
    /// Name -> value, for the names `names.rs` lists.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// See [`host::noisy`].
    pub noisy: bool,
    pub passes: usize,
    /// For the reader and the trajectory, not for the contract: the
    /// unscaled clock, the scaled p90, the probe itself.
    pub info: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn exit_code(&self) -> i32 {
        (self.failed > 0) as i32
    }

    pub fn failed_share(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The driver's result line.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// One line of the trajectory (`--record`).
    pub fn record_json(&self) -> Json {
        Json::obj([
            ("header", self.header.clone()),
            ("noisy", Json::Bool(self.noisy)),
            ("passes", Json::Num(self.passes as f64)),
            (
                "info",
                Json::obj(self.info.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
            ("result", self.result_json()),
        ])
    }

    pub fn print(&self) {
        println!("header {}", self.header.to_string_compact());
        println!(
            "passes {}  attempted {}  failed {}  failed_share {}  noisy {}",
            self.passes,
            self.attempted,
            self.failed,
            self.failed_share(),
            self.noisy
        );
        for (name, value) in &self.info {
            println!("info {name} {value}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        println!("{}", self.result_json().to_string_compact());
    }
}

/// Pair measured values with the names and units of `table`, in table
/// order; a name without a value is a bug in the benchmark.
pub fn tabulate(
    table: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    if let Some(extra) = values.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not in names.rs"));
    }
    table
        .iter()
        .map(|(name, unit)| {
            values
                .get(name)
                .map(|v| (name.clone(), *v, *unit))
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}

/// Compute the reference streams `specs` ask for (the longest request
/// per stream wins).
pub fn build_refs(specs: &[RefSpec], machine: &Machine) -> Result<Refs, String> {
    let suite = macross_benchsuite::all();
    let mut need: BTreeMap<usize, usize> = BTreeMap::new();
    let mut refs = Refs::default();
    let put = |refs: &mut Refs, index: usize, stream| {
        if refs.streams.len() <= index {
            refs.streams.resize_with(index + 1, Vec::new);
        }
        refs.streams[index] = stream;
    };
    let (opts, mode) = service_opts();
    for spec in specs {
        match spec {
            RefSpec::Suite { index, min_elems } => {
                let n = need.entry(*index).or_default();
                *n = (*n).max(*min_elems);
            }
            RefSpec::Dynamic {
                index,
                bench,
                trace,
            } => {
                if refs.streams.get(*index).is_some_and(|s| !s.is_empty()) {
                    continue;
                }
                let rows = macross_pdf::oracle_replay(
                    &(bench.template)(),
                    &(bench.init)(),
                    trace,
                    machine,
                    &opts,
                    mode,
                )
                .map_err(|e| format!("{}: oracle replay: {e}", bench.name))?;
                put(&mut refs, *index, rows.into_iter().flatten().collect());
            }
        }
    }
    for (index, min_elems) in need {
        let b = &suite[index];
        let stream = oracle_stream(b.build, machine, min_elems)
            .map_err(|e| format!("{}: oracle: {e}", b.name))?;
        put(&mut refs, index, stream);
    }
    Ok(refs)
}

/// Flip the lowest bit of the first element of the first stream.
pub fn corrupt(refs: &mut Refs) {
    use macross_streamir::types::Value;
    if let Some(v) = refs.streams.iter_mut().find_map(|s| s.first_mut()) {
        *v = match *v {
            Value::I32(x) => Value::I32(x ^ 1),
            Value::I64(x) => Value::I64(x ^ 1),
            Value::F32(x) => Value::F32(f32::from_bits(x.to_bits() ^ 1)),
            Value::F64(x) => Value::F64(f64::from_bits(x.to_bits() ^ 1)),
        };
    }
}

/// Running totals of checked operations.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Sink elements of operations that verified.
    pub elems: u64,
    shown: usize,
}

impl Tally {
    /// Check one pass's outputs against the references.
    pub fn check(&mut self, out: &PassOut, refs: &Refs) {
        self.attempted += (out.outputs.len() + out.errors.len()) as u64;
        for e in &out.errors {
            self.fail(e);
        }
        for o in &out.outputs {
            if refs.verify(o) {
                self.elems += o.values.len() as u64;
            } else {
                self.fail(&format!(
                    "output of {} elements differs from reference stream {}",
                    o.values.len(),
                    o.reference
                ));
            }
        }
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.shown < 8 {
            self.shown += 1;
            eprintln!("FAILED operation: {what}");
        }
    }
}

/// Seed of the warm-up passes: apart from the timed sequence, so the
/// number of set-ups never shifts which orders the timed passes see.
fn warmup_rng(seed: u64) -> Rng {
    Rng::new(seed ^ 0x5e7_0b5e7)
}

/// A span timed between two machine probes.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock milliseconds.
    pub raw_ms: f64,
    /// `raw_ms` over the machine factor of the probes around the span.
    pub ms: f64,
}

/// Times spans and the machine probe between them: every span is scaled
/// by the probes adjacent to it (see [`MachineProbe`]).
pub struct Stopwatch {
    probe: MachineProbe,
    last_probe_ms: f64,
    pub probes_ms: Vec<f64>,
}

impl Stopwatch {
    pub fn new() -> Stopwatch {
        let mut probe = MachineProbe::new();
        probe.run_ms(); // first touch of its code and memory
        let first = probe.run_ms();
        Stopwatch {
            probe,
            last_probe_ms: first,
            probes_ms: vec![first],
        }
    }

    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (Timed, R) {
        let t = Instant::now();
        let r = f();
        let raw_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = self.probe.run_ms();
        let factor = MachineProbe::factor(self.last_probe_ms, after);
        self.last_probe_ms = after;
        self.probes_ms.push(after);
        (
            Timed {
                raw_ms,
                ms: raw_ms / factor,
            },
            r,
        )
    }
}

/// What [`setups`] hands back.
pub struct SetUps {
    /// The last set-up's load, ready for timed passes.
    pub load: Box<dyn Load>,
    pub times: Vec<Timed>,
    /// The last warm-up pass's output, still to be checked. (Only the
    /// last: holding one per set-up would be the run's `peak_rss_mb`.)
    pub warm: PassOut,
}

/// Set a workload up `reps` times (set-up = construction plus one
/// warm-up pass).
pub fn setups(
    workload: Workload,
    machine: &Machine,
    seed: u64,
    reps: usize,
    watch: &mut Stopwatch,
) -> Result<SetUps, String> {
    let mut rng = warmup_rng(seed);
    let mut tr = Tracer::off();
    let mut times = Vec::new();
    let mut last: Option<(Box<dyn Load>, PassOut)> = None;
    for _ in 0..reps.max(1) {
        if let Some((prev, _)) = last.take() {
            prev.finish();
        }
        let (t, r) = watch.time(|| {
            let mut load = workload.setup(machine, &mut tr)?;
            let out = load.pass(&mut rng, &mut tr);
            Ok::<_, String>((load, out))
        });
        last = Some(r?);
        times.push(t);
    }
    let (load, warm) = last.expect("at least one set-up");
    Ok(SetUps { load, times, warm })
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(cfg: &RunConfig) -> Result<Outcome, String> {
    let machine = Machine::core_i7();
    let header = host::header(cfg.workload.name(), cfg.seed, cfg.seconds, false);
    let mut watch = Stopwatch::new();

    let SetUps {
        mut load,
        times: setup_times,
        warm,
    } = setups(
        cfg.workload,
        &machine,
        cfg.seed,
        cfg.setup_reps(),
        &mut watch,
    )?;
    let t = Instant::now();
    let mut refs = build_refs(&load.refs(), &machine)?;
    let oracle_s = t.elapsed().as_secs_f64();
    if cfg.corrupt_reference {
        corrupt(&mut refs);
    }
    // The warm-up pass is checked but not counted: it is set-up.
    let mut warm_tally = Tally::default();
    warm_tally.check(&warm, &refs);
    drop(warm);
    if warm_tally.failed > 0 && !cfg.corrupt_reference {
        load.finish();
        return Err(format!(
            "{} of {} warm-up operations failed",
            warm_tally.failed, warm_tally.attempted
        ));
    }

    let mut rng = Rng::new(cfg.seed);
    let mut tr = Tracer::off();
    let mut tally = Tally::default();
    let mut passes: Vec<Timed> = Vec::new();
    let phase = Instant::now();
    loop {
        let (t, out) = watch.time(|| load.pass(&mut rng, &mut tr));
        passes.push(t);
        tally.check(&out, &refs);
        if phase.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    load.finish();

    let of =
        |f: fn(&Timed) -> f64, v: &[Timed]| stats::sorted(&v.iter().map(f).collect::<Vec<_>>());
    let (scaled, raw) = (of(|t| t.ms, &passes), of(|t| t.raw_ms, &passes));
    let values = BTreeMap::from([
        (
            "setup_s".to_string(),
            stats::percentile(&of(|t| t.ms, &setup_times), 50.0) / 1e3,
        ),
        (
            "elems_per_s".to_string(),
            stats::ratio(tally.elems as f64, scaled.iter().sum::<f64>() / 1e3),
        ),
        ("pass_ms_p50".to_string(), stats::percentile(&scaled, 50.0)),
        ("pass_ms_p75".to_string(), stats::percentile(&scaled, 75.0)),
        ("peak_rss_mb".to_string(), host::peak_rss_mb()),
    ]);
    let probes = stats::sorted(&watch.probes_ms);
    let info = vec![
        ("pass_ms_p90", stats::percentile(&scaled, 90.0)),
        ("raw_pass_ms_p50", stats::percentile(&raw, 50.0)),
        ("raw_pass_ms_p90", stats::percentile(&raw, 90.0)),
        (
            "raw_elems_per_s",
            stats::ratio(tally.elems as f64, raw.iter().sum::<f64>() / 1e3),
        ),
        (
            "raw_setup_s",
            stats::percentile(&of(|t| t.raw_ms, &setup_times), 50.0) / 1e3,
        ),
        ("oracle_s", oracle_s),
        ("probe_ms_min", probes[0]),
        ("probe_ms_p50", stats::percentile(&probes, 50.0)),
        ("probe_ms_p90", stats::percentile(&probes, 90.0)),
        ("probe_ref_ms", host::PROBE_REF_MS),
    ];
    Ok(Outcome {
        header,
        metrics: tabulate(&names::end_to_end(), &values)?,
        attempted: tally.attempted,
        failed: tally.failed,
        noisy: host::noisy(&watch.probes_ms)
            || stats::percentile(&scaled, 90.0)
                > DISPERSION_LIMIT * stats::percentile(&scaled, 50.0),
        passes: passes.len(),
        info,
    })
}
