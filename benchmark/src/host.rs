//! What the benchmark needs from the host: a clean environment, a run
//! header, peak memory, the machine probe every timing is scaled by, and
//! the copy/triad bandwidth probe.

use crate::suite::BLOCK_MULT;
use crate::workloads::{
    workers, COLD_SWEEPS, DYN_BASE_ITERS, FEED_CHUNK, SESSION_MULTS, THREADED_MULT,
};
use macross_telemetry::json::Json;
use std::process::Command;
use std::time::Instant;

/// Refuse to measure under any `MACROSS_*` variable: eleven knobs in
/// seven files silently change tier, fuse threshold, ring slack, comm
/// model and margin, and a ledger taken under one is not the ledger.
pub fn refuse_macross_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MACROSS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: unset it, the ledger measures the defaults",
            set.join(", ")
        ))
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The header every result carries: which code, which machine, which
/// configuration was actually in force, which constants sized the work.
pub fn header(workload: &str, seed: u64, seconds: f64, trace: bool) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", num(seed)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("cpu", Json::Str(cpu_model())),
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("workers", num(workers() as u64)),
        (
            "kernel_tier",
            Json::Str(macross_vm::select_tier().label().to_string()),
        ),
        ("ring_slack", num(macross_runtime::ring_slack())),
        ("setup_reps", num(crate::run::SETUP_REPS as u64)),
        ("block_mult", num(BLOCK_MULT)),
        ("cold_sweeps", num(COLD_SWEEPS as u64)),
        ("threaded_mult", num(THREADED_MULT)),
        (
            "session_mults",
            Json::Arr(SESSION_MULTS.iter().map(|&m| num(m)).collect()),
        ),
        ("dyn_base_iters", num(DYN_BASE_ITERS)),
        ("feed_chunk", num(FEED_CHUNK)),
    ])
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed piece of interpreter-shaped work (a dispatch loop over 256
/// random register ops, 4 KiB of memory) timed between passes.
///
/// The seed sandbox flips, for seconds at a time, between a quiet state
/// and one where a neighbour holds part of the core: the suite's
/// interpreter loops then run 1.5-1.6x slower, a dependent multiply-add
/// chain not at all, and this probe 1.45x. Dividing each pass time by
/// the probes around it takes the run-to-run spread of `pass_ms_p50`
/// from 25-40 % to 4-7 %; nothing else tried (longer runs, low
/// quantiles, copy/triad or ALU probes) came close on all five
/// workloads.
pub struct MachineProbe {
    code: Vec<u32>,
    mem: Vec<u64>,
}

/// Probe time on the quiet seed machine (2.1 GHz Xeon). Pass times are
/// scaled by `PROBE_REF_MS / probe`, i.e. reported as milliseconds of a
/// quiet seed-machine core; on other hardware that is a constant factor
/// common to parent and change.
pub const PROBE_REF_MS: f64 = 0.73;
const PROBE_STEPS: u64 = 400_000;

impl MachineProbe {
    pub fn new() -> MachineProbe {
        let mut rng = crate::stats::Rng::new(7);
        MachineProbe {
            code: (0..256).map(|_| rng.next_u64() as u32).collect(),
            mem: vec![3; 512],
        }
    }

    /// Run the probe once; milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let code = std::hint::black_box(&self.code[..]);
        let mem = &mut self.mem[..];
        let t = Instant::now();
        let mut regs = [1u64; 16];
        let mut pc = 0usize;
        for step in 0..PROBE_STEPS {
            let op = code[pc];
            let (a, b, c) = (
                (op >> 3) as usize & 15,
                (op >> 7) as usize & 15,
                (op >> 11) as usize & 15,
            );
            match op & 7 {
                0 => regs[a] = regs[b].wrapping_add(regs[c]),
                1 => regs[a] = regs[b].wrapping_mul(regs[c] | 1),
                2 => regs[a] = mem[regs[b] as usize & 511],
                3 => mem[regs[b] as usize & 511] = regs[c],
                4 => regs[a] = regs[b] ^ (regs[c] >> 3),
                5 => regs[a] = regs[b].wrapping_sub(step),
                6 => regs[a] = regs[a].wrapping_add((regs[b] & 1 == 0) as u64),
                _ => regs[a] = regs[b].rotate_left(7).wrapping_add(regs[c]),
            }
            pc = (pc + 1) & 255;
        }
        std::hint::black_box(&mut regs);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Machine factor of a span between two probes: how much slower than
    /// the quiet seed machine the core was around it.
    pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
        (before_ms + after_ms) / 2.0 / PROBE_REF_MS
    }
}

/// A run is noisy when its median probe took more than 1.6x the quiet
/// reference: the machine sat in its slow state for most of the run, and
/// the probe only removes about four fifths of that. (1.6 and not 1.1:
/// the median probe of an undisturbed run on the seed sandbox is already
/// 1.2-1.4x the reference.)
pub fn noisy(probes_ms: &[f64]) -> bool {
    crate::stats::median(probes_ms) > 1.6 * PROBE_REF_MS
}

/// Copy and triad bandwidth of one thread, GB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    pub copy_gbs: f64,
    pub triad_gbs: f64,
}

/// Elements per array: 32 MiB of `f64`, eight times the seed machine's
/// L2. (Its L3 is 260 MiB; no array a sandbox can afford exceeds that,
/// so there the figure is a cache-to-cache ceiling.)
const STREAM_ELEMS: usize = 4 << 20;
const STREAM_TRIES: usize = 10;

/// STREAM-shaped copy (`c = a`) and triad (`a = b + s*c`), best of
/// `STREAM_TRIES`, on arrays touched once beforehand. 96 MiB: traced
/// runs only, which do not report `peak_rss_mb`.
pub fn stream_probe() -> Bandwidth {
    let mut a = vec![1.0f64; STREAM_ELEMS];
    let b = vec![2.0f64; STREAM_ELEMS];
    let mut c = vec![0.5f64; STREAM_ELEMS];
    let bytes = (STREAM_ELEMS * std::mem::size_of::<f64>()) as f64;
    let (mut copy_ns, mut triad_ns) = (f64::MAX, f64::MAX);
    for _ in 0..STREAM_TRIES {
        let t = Instant::now();
        c.copy_from_slice(std::hint::black_box(&a));
        std::hint::black_box(&mut c);
        copy_ns = copy_ns.min(t.elapsed().as_nanos() as f64);

        let s = std::hint::black_box(3.0f64);
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        std::hint::black_box(&mut a);
        triad_ns = triad_ns.min(t.elapsed().as_nanos() as f64);
    }
    Bandwidth {
        copy_gbs: 2.0 * bytes / copy_ns,
        triad_gbs: 3.0 * bytes / triad_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_guard_trips_when_most_probes_are_slow() {
        let r = PROBE_REF_MS;
        assert!(!noisy(&[r, r, 1.1 * r, 1.2 * r, 3.0 * r]));
        assert!(!noisy(&[r, 1.4 * r, 1.5 * r, 1.7 * r, 1.9 * r]));
        assert!(noisy(&[r, 1.5 * r, 1.7 * r, 1.8 * r, 1.9 * r]));
    }

    #[test]
    fn probe_repeats_its_work() {
        let mut p = MachineProbe::new();
        let (a, b) = (p.run_ms(), p.run_ms());
        assert!(a > 0.0 && b > 0.0);
        assert_eq!(MachineProbe::factor(PROBE_REF_MS, PROBE_REF_MS), 1.0);
    }
}
