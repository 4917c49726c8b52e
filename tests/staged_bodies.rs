//! Staging reads an actor by reference: it copies the work body into the
//! normal form the tape lowering expects (every `pop`, `peek` and `lpop`
//! as `v = …`, every `push` and `lpush` operand a variable; DESIGN.md §18)
//! and leaves the source actor alone.
//!
//! A debug build checks every staging `macro_simdize` makes as it makes
//! it: the body is staged twice, the two results must be equal, and the
//! result must be in normal form. The first test drives every
//! single-actor, fused, region and horizontal staging of the 16 programs ×
//! {all, no_reorder, single_only} through that check and holds the input
//! graphs to a fresh build of each program afterwards; the second applies
//! the normalizer to every filter of the suite directly, in any build.

use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::macross::normalize::{normal_form_violation, normalize_into};
use macross_repro::streamir::analysis::analyze_vectorizability;
use macross_repro::streamir::graph::Graph;
use macross_repro::streamir::types::{ScalarTy, Ty};
use macross_repro::streamir::Filter;
use macross_repro::vm::Machine;

fn options() -> [(&'static str, SimdizeOptions); 3] {
    [
        ("all", SimdizeOptions::all()),
        ("no_reorder", SimdizeOptions::no_reorder()),
        ("single_only", SimdizeOptions::single_only()),
    ]
}

fn filters(g: &Graph) -> impl Iterator<Item = &Filter> {
    g.nodes().filter_map(|(_, n)| n.as_filter())
}

#[test]
fn every_staging_leaves_its_source_unchanged() {
    let machine = Machine::core_i7();
    let (mut searched, mut region, mut horizontal) = (0, 0, 0);
    for b in benchsuite::all() {
        let g = (b.build)();
        let pristine = (b.build)();
        for (label, opts) in options() {
            let simd = macro_simdize(&g, &machine, &opts).unwrap();
            searched += simd.report.searched().count();
            region += simd.report.region_actors.len();
            horizontal += (simd.report.horizontal_groups.iter())
                .map(Vec::len)
                .sum::<usize>();
            for (f, p) in filters(&g).zip(filters(&pristine)) {
                assert_eq!(f, p, "{} / {label}: {} changed", b.name, p.name);
            }
        }
    }
    // Every kind of staging ran.
    assert!(searched > 0 && region > 0 && horizontal > 0);
}

#[test]
fn every_filter_of_the_suite_normalizes_by_copy() {
    let f32_ty = Ty::Scalar(ScalarTy::F32);
    let mut normalized = 0;
    for b in benchsuite::all() {
        let g = (b.build)();
        for f in filters(&g) {
            let va = analyze_vectorizability(f);
            if va.tape_dependent_control || va.tape_dependent_subscript || va.vectorized {
                continue;
            }
            let before = f.clone();
            let copy = || {
                let mut n = f.with_bodies(f.init.clone(), Vec::new());
                let peeks = normalize_into(&f.work, &mut n, f32_ty, f32_ty);
                (n, peeks)
            };
            let (n, peeks) = copy();
            assert_eq!(
                normal_form_violation(&n.work),
                None,
                "{}: {}",
                b.name,
                f.name
            );
            assert_eq!(copy(), (n.clone(), peeks), "{}: {}", b.name, f.name);
            assert_eq!(*f, before, "{}: {} changed", b.name, f.name);
            assert_eq!(n.vars[..f.vars.len()], f.vars[..], "{}: {}", b.name, f.name);
            normalized += 1;
        }
    }
    assert!(normalized > 100, "{normalized} filters normalized");
}
