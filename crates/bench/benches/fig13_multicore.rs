//! Wall-clock bench for Figure 13: the multicore scheduling study
//! (partition, co-located SIMDization, makespan estimation) end to end,
//! plus the threaded runtime actually executing the partitioned graph.

use macross_bench::time_case;
use macross_benchsuite::by_name;
use macross_multicore::{figure13_point, CommModel, Partition};
use macross_sdf::Schedule;
use macross_vm::{run_scheduled, Machine};

fn main() {
    let machine = Machine::core_i7();
    let comm = CommModel::default();
    for name in ["FilterBank", "MatrixMult"] {
        let b = by_name(name).expect("benchmark exists");
        let g = (b.build)();
        for cores in [2usize, 4] {
            time_case(&format!("fig13/{name}/{cores}_cores_modeled"), 10, || {
                figure13_point(&g, &machine, cores, &comm, 2)
                    .unwrap()
                    .multicore_simd
            });
        }
        let sched = Schedule::compute(&g).expect("schedule");
        let seq = run_scheduled(&g, &sched, &machine, 2).expect("profile");
        for cores in [2usize, 4] {
            let part = Partition::lpt(&g, &sched, &seq.node_cycles, cores);
            let placement = macross_runtime::Placement::whole_stage(part.assignment);
            time_case(&format!("fig13/{name}/{cores}_cores_threaded"), 10, || {
                macross_runtime::run_threaded_placed(&g, &sched, &machine, &placement, 2)
                    .unwrap()
                    .report
                    .wall_nanos
            });
        }
    }
}
