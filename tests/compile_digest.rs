//! Pinned compiler output: what `macro_simdize` builds and decides for
//! every suite program, and the structural hashes the service keys its
//! compile cache by, must not drift when the compiler is only made
//! faster.
//!
//! Each row is an FNV-1a digest of a `Debug` rendering: the SIMDized
//! graph, its schedule and its `SimdizeReport` (every pass event with its
//! costs and note, and the search counters), and the bytecode the firing
//! compiler emits for each graph (ops, charges, register windows and
//! constant pools in pool order). `search.oracle_checked` is
//! zeroed first — the debug-build oracle counts the actors it compared,
//! a release build counts none — so one table holds for both profiles.
//! A change that means to alter a decision re-pins the rows it moved, on
//! purpose; the failure message prints the whole table as it now is.
//!
//! The placements table pins what `macross-multicore` decides from those
//! graphs: the planner's plans, Figure 13's partitions and speedups, and
//! the SIMD-aware partitioner's assignments.

use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::multicore::{figure13_point, partition_simd_aware, plan_placement, CommModel};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::graph::Graph;
use macross_repro::streamir::shash::structural_hash;
use macross_repro::vm::{run_scheduled, run_scheduled_mode, CompiledPrograms, ExecMode, Machine};

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn options() -> [(&'static str, SimdizeOptions); 3] {
    [
        ("all", SimdizeOptions::all()),
        ("no_reorder", SimdizeOptions::no_reorder()),
        ("single_only", SimdizeOptions::single_only()),
    ]
}

/// Compare `rows` with the pinned table, printing the whole current
/// table on a mismatch.
fn check(what: &str, rows: &[String], pinned: &str) {
    let pinned: Vec<&str> = pinned
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if rows.iter().map(String::as_str).ne(pinned.iter().copied()) {
        panic!(
            "{what} drifted from the pinned table; it now reads:\n{}",
            rows.join("\n")
        );
    }
}

#[test]
fn simdized_graphs_schedules_and_reports_match_the_pins() {
    let machine = Machine::core_i7();
    let mut rows = Vec::new();
    for b in benchsuite::all() {
        let g = (b.build)();
        for (label, opts) in options() {
            let mut simd = macro_simdize(&g, &machine, &opts)
                .unwrap_or_else(|e| panic!("{} / {label}: {e}", b.name));
            simd.report.search.oracle_checked = 0;
            let dump = format!("{:?}\n{:?}\n{:?}", simd.graph, simd.schedule, simd.report);
            rows.push(format!("{} {label} {:016x}", b.name, fnv(&dump)));
        }
    }
    check("SIMDized output", &rows, PINNED_DIGESTS);
}

#[test]
fn structural_hashes_match_the_pins() {
    let machine = Machine::core_i7();
    let rows: Vec<String> = benchsuite::all()
        .iter()
        .map(|b| {
            let g = (b.build)();
            let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
            format!(
                "{} {} {}",
                b.name,
                structural_hash(&g),
                structural_hash(&simd.graph)
            )
        })
        .collect();
    check("structural hashes", &rows, PINNED_HASHES);
}

/// Every filter's compiled plan, in node order.
fn bytecode_digest(g: &Graph, machine: &Machine) -> u64 {
    let programs = CompiledPrograms::compile(g, machine, ExecMode::Bytecode);
    let plans: Vec<_> = g.node_ids().map(|id| programs.plan(id)).collect();
    fnv(&format!("{plans:?}"))
}

#[test]
fn compiled_bytecode_matches_the_pins() {
    let machine = Machine::core_i7();
    let rows: Vec<String> = benchsuite::all()
        .iter()
        .map(|b| {
            let g = (b.build)();
            let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
            format!(
                "{} {:016x} {:016x}",
                b.name,
                bytecode_digest(&g, &machine),
                bytecode_digest(&simd.graph, &machine)
            )
        })
        .collect();
    check("compiled bytecode", &rows, PINNED_BYTECODE);
}

/// The planner's three comm regimes (as in `tests/differential.rs`).
fn comm_models() -> [CommModel; 3] {
    [
        CommModel {
            cycles_per_element: 1,
            sync_per_edge: 8,
        },
        CommModel::default(),
        CommModel {
            cycles_per_element: 32,
            sync_per_edge: 4096,
        },
    ]
}

#[test]
fn placements_match_the_pins() {
    let machine = Machine::core_i7();
    let mut rows = Vec::new();
    for b in benchsuite::all() {
        let g = (b.build)();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
        let seq = run_scheduled_mode(&simd.graph, &simd.schedule, &machine, 2, ExecMode::TreeWalk)
            .unwrap();
        let mut plans = Vec::new();
        for comm in comm_models() {
            for workers in [2usize, 4] {
                plans.push(plan_placement(
                    &simd.graph,
                    &simd.schedule,
                    &seq.node_cycles,
                    workers,
                    &comm,
                ));
            }
        }
        let iters = b.iters.min(8);
        let sched = Schedule::compute(&g).unwrap();
        let per_iter: Vec<u64> = run_scheduled(&g, &sched, &machine, iters)
            .unwrap()
            .node_cycles
            .iter()
            .map(|c| c / iters)
            .collect();
        let mut fig13 = Vec::new();
        let mut aware = Vec::new();
        for cores in [2usize, 4] {
            let p = figure13_point(&g, &machine, cores, &CommModel::default(), iters).unwrap();
            fig13.push(format!(
                "{:?} {:?} {} {}",
                p.assignment,
                p.simd_colors,
                p.multicore.to_bits(),
                p.multicore_simd.to_bits()
            ));
            aware.push(partition_simd_aware(&g, &per_iter, cores, &machine));
        }
        rows.push(format!(
            "{} {:016x} {:016x} {:016x}",
            b.name,
            fnv(&format!("{plans:?}")),
            fnv(&format!("{fig13:?}")),
            fnv(&format!("{aware:?}"))
        ));
    }
    check("placements", &rows, PINNED_PLACEMENTS);
}

/// Program, plans, Figure 13 points, SIMD-aware partitions.
const PINNED_PLACEMENTS: &str = "
AudioBeam fef43329ed6ca5f7 e3636935074f31bc 040c6b1776e4c87a
BeamFormer cbaf3d2f1536049a 3f39d3a0ff1c2c9b 3274148be72e4c22
BitonicSort f045a51a52377edf a366f76f9fd02b9b fb8406cd8bbdb388
ChannelVocoder 4f85f7ad39e698eb e82da4b211330a36 03a53d049757666c
DCT afdb6dec4fbbd501 587394971d7e5ce0 6e978bb7e02db814
DES 06ebc0fd0290cb2d 4e90b639500eb3c4 6cbcb934fbb1ae21
FFT 3d3b526c39fd256f eca891f03c3319b9 9f0dbd11c0bb5fdc
FilterBank a58ee99f807fe8fe 8adc1375a9b1289e cadb68af40e1016c
FMRadio 370f51dc3025ad64 fbe344a50331a0e2 6c7a1ca35fdd886d
MatrixMult 02c495cccf9dfa3e 1d6e692dc9398fc8 6e978bb7e02db814
MatrixMultBlock 835c0c658d379724 96941909554e3b38 fb8406cd8bbdb388
MP3Decoder 92e5a01e3ff5d8f4 afc90d1ec2ffab79 cb54f0af25354572
Serpent 616b0ce340cc8f2c 52f96951d0671581 fc2f5d03d05e236c
TDE 0c20085c83ec908e 42dcefc99f6b1526 4b9a015a8260ab58
RegionIIRBank 322e3924e0086af3 4d102dd1a00f7a1b 376a76eff070b75c
RegionAccNorm 889fcbeebc622d11 0b98d78b4a00f26d c7d6cb1952900b0c
";

/// Program, option set, digest.
const PINNED_DIGESTS: &str = "
AudioBeam all ecc659c3b9bc6968
AudioBeam no_reorder 6c8a2dd3da6617ec
AudioBeam single_only 27ed5076ce6078c3
BeamFormer all 9e34350001e61434
BeamFormer no_reorder 43a57ce616b70fff
BeamFormer single_only 93919c776e2925da
BitonicSort all b82c16c9d7859f61
BitonicSort no_reorder a55ddfb83e1f1342
BitonicSort single_only ce3ca514209619a7
ChannelVocoder all a4a79584a7e2b1ff
ChannelVocoder no_reorder 3125b21cb0b01f17
ChannelVocoder single_only 662e7ba53a01e303
DCT all a15aa968244734c8
DCT no_reorder de37a85d48aec0ff
DCT single_only e81f822bb3b05202
DES all 33ddcb1a714ec6e1
DES no_reorder 857b03ab1014aaed
DES single_only 8840fd80dc88ef6c
FFT all b6e5c3208697bc58
FFT no_reorder b5bc59c5c4bf0e58
FFT single_only ff3dc2a5cec5da18
FilterBank all 3df5166a7a9cf699
FilterBank no_reorder 8010395a9d250a45
FilterBank single_only 3a08f4ea4ac40a76
FMRadio all 633b1975cbbcdfd6
FMRadio no_reorder 88c83da0ff71a671
FMRadio single_only 81306079d6cab54e
MatrixMult all eda09592811a4f9b
MatrixMult no_reorder 0a6a7ed3f15f8a88
MatrixMult single_only 3c7ab66152efdd6f
MatrixMultBlock all e86ded85b26e950d
MatrixMultBlock no_reorder 5c621ed6b27c4401
MatrixMultBlock single_only 37d58f13729fa4e1
MP3Decoder all a41916465bd4829f
MP3Decoder no_reorder 1aacac7e29af80e2
MP3Decoder single_only a76f7fa0cdfaa5ef
Serpent all 30ea2cd7eb52a7a4
Serpent no_reorder 1386c0f424de11c8
Serpent single_only 450f1341b037c06f
TDE all 02c8c49c8776578a
TDE no_reorder 85d176bec7a1b930
TDE single_only 523f195fc0b9a470
RegionIIRBank all 45fc39fd624acdf8
RegionIIRBank no_reorder e279c45a9b94371f
RegionIIRBank single_only 51572060ca84192a
RegionAccNorm all e03f6ed4be9cd3b5
RegionAccNorm no_reorder d931d2037f5c52ee
RegionAccNorm single_only 3b02ea9efbeb3e1f
";

/// Program, hash of the scalar graph, hash of the SIMDized graph.
const PINNED_HASHES: &str = "
AudioBeam 94458465437efb56ef9eabbb0c44a61b 1feba66cb5c8fd956f9029914408a7c3
BeamFormer cb5a6388808f3181c8b8749bf9e70130 409275bc222cc80ae60a9fc36e32ca39
BitonicSort f87b0d859df17b90e376fd7dde29c12a 0556789800d77697d89ba69d12bf5456
ChannelVocoder 3d8f050f2bee17084cf0e8d3b4fba8c7 0a5c497ba0c8a2cdf8c16bbcf008533f
DCT 81c79465a41e486c323511673d1ee2f9 f905bf2f3e2e95d025c09e63bed5e859
DES b6bc219991f41b98ff21387d8791bf56 13e1f77ab9e460378266862fc3250c86
FFT 99b558e0b358c6515eae066e52248ea8 3d08801fc4cc371f0b04ec2334fa59b2
FilterBank ff51a367144a5367d7600964a3018537 3957ae78774e7c9a1c87917e566166e3
FMRadio 8fee0903fc05195b3ba27fc03a9c7e56 7694b494733c2e0b6bd8261fed0e75b2
MatrixMult e00a6d7f46d912857d2dd56bb2097f01 4d6cc65f1120f31391d2d9b7f345e44a
MatrixMultBlock 1fb8df7982d16f09935cbe9d31742902 ade9b31b2324db441b792eaabe557280
MP3Decoder 47a3f38501af8d78d030cce1e7aa1820 718f347f706fdd4a1706bdf968095247
Serpent 464e322c39711805d6b5f859200e5485 b05b2249650d1495e821892462b8b8a8
TDE 3246521a72ac4d24255e861166b5f87a 2aa228cad9be03621d9c21c020682074
RegionIIRBank bb84dd0fccce7b692edde66167de88ef 2265ac9d4f034f61c246cbdeda293342
RegionAccNorm 78a19f387325506b6b112fee3011452b d4e7b6a797209c5de908d9a06bc32589
";

/// Program, bytecode of the scalar graph, bytecode of the SIMDized graph.
const PINNED_BYTECODE: &str = "
AudioBeam c3daad776655eab2 8210f48703f91eb5
BeamFormer f9b528391e2f0211 fc37d31eb153c95f
BitonicSort 0e7e33dd5a790fa0 9e577904795d1c79
ChannelVocoder dceb3e390d65ece0 172a4d3a610d7d59
DCT 10f4fdd5ea7a86e4 ae0cc2f4bcd36916
DES d664da279392174b 705bcb1ee4bbbec1
FFT e4fbdf2508f53d5d b225fe78a9f2114e
FilterBank b0f591fb58475c97 1a2f23124b524f25
FMRadio 4a05057529ede0ee 8b706b6c69c3f4e4
MatrixMult d6a674ae0820238c 776cd54aad252216
MatrixMultBlock c0772988931969bb 2252fd96ca7c123a
MP3Decoder 00430ae6d054ca1d 4fb79ff1d45ed393
Serpent f972e6add05c4b58 505723e707267424
TDE d660958cd103159b e3cdbbf30f6a4802
RegionIIRBank bd28d8e62de1f549 acf216690f2b6f8a
RegionAccNorm fc655b47b1a0e976 749679219348c534
";
