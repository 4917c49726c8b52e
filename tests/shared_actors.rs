//! Actors are shared, not copied: `macro_simdize` carries every actor it
//! does not rewrite into the SIMDized graph by reference, and the prepass
//! copies an actor only when it changes it (DESIGN.md, "IR ownership").
//! Checked by pointer identity, so the property holds or fails the same
//! way on every run, with no clock involved.

use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::macross::opt::prepass_optimize;
use macross_repro::streamir::graph::{Graph, Node};
use macross_repro::streamir::Filter;
use macross_repro::vm::Machine;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn options() -> [(&'static str, SimdizeOptions); 3] {
    [
        ("all", SimdizeOptions::all()),
        ("no_reorder", SimdizeOptions::no_reorder()),
        ("single_only", SimdizeOptions::single_only()),
    ]
}

/// Every filter of `g`, as the shared actor its node holds.
fn actors(g: &Graph) -> impl Iterator<Item = &Arc<Filter>> {
    g.nodes().filter_map(|(_, n)| match n {
        Node::Filter(f) => Some(f),
        _ => None,
    })
}

/// The prepass on a clone of `g`: the names of the actors it rewrote.
/// The clone's other actors must still be `g`'s, pointer for pointer.
fn prepass_rewrites(g: &Graph) -> HashSet<String> {
    let mut opt = g.clone();
    prepass_optimize(&mut opt);
    actors(g)
        .zip(actors(&opt))
        .filter(|(before, after)| !Arc::ptr_eq(before, after))
        .map(|(before, after)| {
            assert_ne!(before, after, "{}: copied but left unchanged", before.name);
            before.name.clone()
        })
        .collect()
}

#[test]
fn simdized_graphs_share_every_actor_no_pass_rewrote() {
    let machine = Machine::core_i7();
    let mut shared = 0;
    for b in benchsuite::all() {
        let g = (b.build)();
        let prepassed = prepass_rewrites(&g);
        let mut by_name: HashMap<&str, Vec<&Arc<Filter>>> = HashMap::new();
        for f in actors(&g) {
            by_name.entry(f.name.as_str()).or_default().push(f);
        }
        for (label, opts) in options() {
            let simd = macro_simdize(&g, &machine, &opts).unwrap();
            let r = &simd.report;
            let rewritten: HashSet<&str> = (r.single_actors.iter())
                .chain(&r.region_actors)
                .map(|d| d.actor.as_str())
                .chain(r.vertical_chains.iter().flatten().map(String::as_str))
                .chain(r.horizontal_groups.iter().flatten().map(String::as_str))
                .collect();
            for f in actors(&simd.graph) {
                let name = f.name.as_str();
                let Some(inputs) = by_name.get(name) else {
                    continue; // built by a pass: a fused actor left scalar
                };
                if rewritten.contains(name) || prepassed.contains(name) {
                    continue;
                }
                assert!(
                    inputs.iter().any(|i| Arc::ptr_eq(i, f)),
                    "{} / {label}: {name} was not rewritten but is a copy of its input actor",
                    b.name
                );
                shared += 1;
            }
        }
    }
    // 133 (program, configuration, actor) triples are checked today; a
    // floor keeps the loop above from passing vacuously.
    assert!(shared >= 100, "only {shared} actors checked as shared");
}

#[test]
fn the_prepass_copies_only_what_it_changes() {
    for b in benchsuite::all() {
        let g = (b.build)();
        let pristine = (b.build)();
        let mut once = g.clone();
        prepass_optimize(&mut once);
        // Rewriting the clone left the input's actors as they were built.
        for (a, p) in actors(&g).zip(actors(&pristine)) {
            assert_eq!(a, p, "{}: the prepass changed an actor it shares", b.name);
        }
        // A graph the prepass cannot improve keeps every actor.
        let mut twice = once.clone();
        let second = prepass_optimize(&mut twice);
        assert_eq!(
            second.total(),
            0,
            "{}: the prepass is not idempotent",
            b.name
        );
        for (a, t) in actors(&once).zip(actors(&twice)) {
            assert!(
                Arc::ptr_eq(a, t),
                "{}: {} copied by a prepass that rewrote nothing",
                b.name,
                a.name
            );
        }
    }
}
