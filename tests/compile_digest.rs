//! Pinned compiler output: what `macro_simdize` builds and decides for
//! every suite program, and the structural hashes the service keys its
//! compile cache by, must not drift when the compiler is only made
//! faster.
//!
//! Each row is an FNV-1a digest of a `Debug` rendering. What the compiler
//! builds — the SIMDized graph and its schedule — and what it reports about
//! it — the `SimdizeReport`: the prepass counts, one typed record per actor
//! decision with every costed tape pair, and the search counters — are
//! pinned in two tables, so a change to how decisions are recorded re-pins
//! the second and must leave the first alone. A third table pins the
//! bytecode the firing compiler emits for each graph (ops, charges,
//! register windows and constant pools in pool order).
//! `search.oracle_checked` is zeroed first — the debug-build oracle counts
//! the actors it compared, a release build counts none — so one table
//! holds for both profiles. A change that means to alter a decision
//! re-pins the rows it moved, on purpose; the failure message prints the
//! whole table as it now is.
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
    let (mut rows, mut reports) = (Vec::new(), Vec::new());
    for b in benchsuite::all() {
        let g = (b.build)();
        for (label, opts) in options() {
            let mut simd = macro_simdize(&g, &machine, &opts)
                .unwrap_or_else(|e| panic!("{} / {label}: {e}", b.name));
            simd.report.search.oracle_checked = 0;
            let built = format!("{:?}\n{:?}", simd.graph, simd.schedule);
            rows.push(format!("{} {label} {:016x}", b.name, fnv(&built)));
            reports.push(format!(
                "{} {label} {:016x}",
                b.name,
                fnv(&format!("{:?}", simd.report))
            ));
        }
    }
    check("SIMDized graphs and schedules", &rows, PINNED_DIGESTS);
    check("SIMDize reports", &reports, PINNED_REPORTS);
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

/// Program, option set, digest of the SIMDized graph and its schedule.
const PINNED_DIGESTS: &str = "
AudioBeam all c58c3a5f62f32708
AudioBeam no_reorder c58c3a5f62f32708
AudioBeam single_only 590f6cfa966f24d8
BeamFormer all 88d684047224c55d
BeamFormer no_reorder 88d684047224c55d
BeamFormer single_only 6f0a7d6074ac74eb
BitonicSort all f9c20c5d25b872b4
BitonicSort no_reorder f9c20c5d25b872b4
BitonicSort single_only 943605797b900189
ChannelVocoder all f7001fa37c3d0e81
ChannelVocoder no_reorder f7001fa37c3d0e81
ChannelVocoder single_only 65fccb8ce6c4f981
DCT all e9752d0ee2c4b837
DCT no_reorder e9752d0ee2c4b837
DCT single_only 55bd885cf1d9f165
DES all 0fd61c2671ff9987
DES no_reorder 0fd61c2671ff9987
DES single_only 3d60fc4e5c6ecb72
FFT all 951114c727ccd726
FFT no_reorder 951114c727ccd726
FFT single_only 231f6570e6162eaf
FilterBank all e07b261f07fd1124
FilterBank no_reorder e07b261f07fd1124
FilterBank single_only 84a086ac50cb84c1
FMRadio all 1c6e31b706e28b82
FMRadio no_reorder 1c6e31b706e28b82
FMRadio single_only 1006226b5e3000f0
MatrixMult all e3398ae0eca899fb
MatrixMult no_reorder e3398ae0eca899fb
MatrixMult single_only 6deddb5adb1476c0
MatrixMultBlock all 044c83c77472b9d2
MatrixMultBlock no_reorder 044c83c77472b9d2
MatrixMultBlock single_only d7eb01eb0f17e886
MP3Decoder all 1bb7cc0a3d3135a3
MP3Decoder no_reorder 1bb7cc0a3d3135a3
MP3Decoder single_only ae393150de434349
Serpent all fe3fc475674f8e9c
Serpent no_reorder fe3fc475674f8e9c
Serpent single_only 3827e2d59738745b
TDE all 8b0fab77731a28da
TDE no_reorder 8b0fab77731a28da
TDE single_only c93f5706d8df8d0d
RegionIIRBank all 78e0c12215f562ef
RegionIIRBank no_reorder 78e0c12215f562ef
RegionIIRBank single_only 92f6ad151bfe6c24
RegionAccNorm all 257e620317fab398
RegionAccNorm no_reorder 257e620317fab398
RegionAccNorm single_only df9e1618d8ca59fa
";

/// Program, option set, digest of the `SimdizeReport`.
const PINNED_REPORTS: &str = "
AudioBeam all 3be15984070317e0
AudioBeam no_reorder 09ed9ac40b3580b6
AudioBeam single_only 9635c671cdb76e4f
BeamFormer all 235d90ce05dfac4d
BeamFormer no_reorder f6724bd25dce76d3
BeamFormer single_only 20943dfa4bf75a74
BitonicSort all a094fe3c8d05cd84
BitonicSort no_reorder e42d3f2746d1f70e
BitonicSort single_only 81b9cd63e21fb0b9
ChannelVocoder all db08e44b169fa824
ChannelVocoder no_reorder aed08d33f5af61bd
ChannelVocoder single_only e7d43775e5595011
DCT all 67c79b5e3f3a1442
DCT no_reorder da1d74be37c2db4a
DCT single_only 06cf0bd37a2597d7
DES all 8d7b9b6a5e1ea1eb
DES no_reorder 8ac6861dfc0345ac
DES single_only 2ffd6db6791aff78
FFT all c52f4b0348a4e4d3
FFT no_reorder 051943b6ea26b6ae
FFT single_only de8021ef5c0f259f
FilterBank all af3d77a4ecb96932
FilterBank no_reorder 23e450f195ff6541
FilterBank single_only fc63d42643370f5e
FMRadio all d3db155b485c41d7
FMRadio no_reorder 2e3ba21766ed65be
FMRadio single_only df466b410dfd9aa7
MatrixMult all eaea0a0680af17f2
MatrixMult no_reorder 3e74b9a7d0769cec
MatrixMult single_only ffd37281c8411a64
MatrixMultBlock all a169f1386906eea5
MatrixMultBlock no_reorder aecc4613ca54192e
MatrixMultBlock single_only c020612ecd90273d
MP3Decoder all 4918c003d7dfeb8e
MP3Decoder no_reorder b7b57a67ff1d19cc
MP3Decoder single_only c7bc551329ebb7a5
Serpent all 2c3d37a5bb52ecb7
Serpent no_reorder d1c654b65e9a8df4
Serpent single_only ef774d6dadeae67c
TDE all 2cc83648e3c12066
TDE no_reorder ac98074051aab713
TDE single_only d243c886a4adcc85
RegionIIRBank all 216df2a82dcf6707
RegionIIRBank no_reorder 9dcdb87f9aa5355b
RegionIIRBank single_only cd3bfee2a09157cf
RegionAccNorm all 7b55a572d001ec4a
RegionAccNorm no_reorder 765cecd594f132a2
RegionAccNorm single_only c0a72676302a44ad
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
AudioBeam 1bb98bab9782c87f 65db6aa5fe4d9d77
BeamFormer 8fb353706797ed95 93d68cede76ab80d
BitonicSort 553317be845163e2 c8b59442d3403125
ChannelVocoder 51cfef030d2fa1d1 9c812db6947a524f
DCT a929561543d76cbd 75f97d0017a120b8
DES d664da279392174b 628f05fe158ff04f
FFT d528204f11159d26 e22a47cf9b95ac37
FilterBank 6bb90989b9913c3f fe04eced62959bac
FMRadio 1ef8ae7a65e797d5 66b915ab58775287
MatrixMult 08ae9766a2eb4626 ee18b996fd5b39ab
MatrixMultBlock 7493c0fbfe81ef13 d4723b48fea2d21e
MP3Decoder 4d2dba45ad4ee753 e29b816d5049ef75
Serpent 34fbbb0533fb3a98 9369890073cedb67
TDE 3ffa57f32fe5cff0 6e1298b390fea435
RegionIIRBank 16b6db210c577e5f 46584d01b57d3ea8
RegionAccNorm fc655b47b1a0e976 6c7f8b3c92d3d1a1
";
