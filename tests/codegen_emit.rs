//! Code-generation integration tests: the C++ emitter must produce
//! structurally sound output for every benchmark, scalar and SIMDized,
//! deterministically.

use macross_repro::benchsuite::all;
use macross_repro::codegen::{emit_program, CodegenOptions, CxxTarget};
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::vm::Machine;

#[test]
fn every_benchmark_emits_scalar_cxx() {
    for b in all() {
        let g = (b.build)();
        let sched = Schedule::compute(&g).unwrap();
        let code = emit_program(&g, &sched, &CodegenOptions::default());
        assert!(code.contains("int main()"), "{}", b.name);
        assert!(code.contains("steady state"), "{}", b.name);
        assert!(code.len() > 1000, "{}: suspiciously short output", b.name);
        // Braces balance.
        let open = code.matches('{').count();
        let close = code.matches('}').count();
        assert_eq!(open, close, "{}: unbalanced braces", b.name);
    }
}

#[test]
fn every_benchmark_emits_simdized_cxx_with_intrinsics() {
    let machine = Machine::core_i7();
    for b in all() {
        let g = (b.build)();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
        let code = emit_program(&simd.graph, &simd.schedule, &CodegenOptions::default());
        let vectorized_something =
            !simd.report.single_actors.is_empty() || !simd.report.horizontal_groups.is_empty();
        if vectorized_something {
            assert!(
                code.contains("__m128"),
                "{}: SIMDized code should use SSE vector types",
                b.name
            );
        }
        let open = code.matches('{').count();
        let close = code.matches('}').count();
        assert_eq!(open, close, "{}: unbalanced braces", b.name);
    }
}

#[test]
fn emission_is_deterministic() {
    let b = &all()[0];
    let g = (b.build)();
    let sched = Schedule::compute(&g).unwrap();
    let a = emit_program(&g, &sched, &CodegenOptions::default());
    let c = emit_program(&g, &sched, &CodegenOptions::default());
    assert_eq!(a, c);
}

#[test]
fn generic_target_supports_any_width() {
    let machine = Machine::wide(8);
    let b = macross_repro::benchsuite::by_name("Serpent").unwrap();
    let g = (b.build)();
    let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
    let code = emit_program(
        &simd.graph,
        &simd.schedule,
        &CodegenOptions {
            target: CxxTarget::Generic,
            sw: 8,
        },
    );
    assert!(
        code.contains("vec<int32_t, 8>"),
        "expected 8-wide generic vectors"
    );
    assert!(!code.contains("__m128"));
}

/// Is `name` a C++ identifier?
fn legal_identifier(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The identifiers a unit declares: every actor struct's name, then
/// per struct its members (the declarations above `void init()`), and
/// the struct types `main` instantiates.
fn declared_identifiers(code: &str) -> (Vec<&str>, Vec<Vec<&str>>, Vec<&str>) {
    let (mut structs, mut members, mut instantiated) = (Vec::new(), Vec::new(), Vec::new());
    let mut in_members = false;
    for line in code.lines() {
        if let Some(name) = line
            .strip_prefix("struct ")
            .and_then(|l| l.strip_suffix(" {"))
        {
            if name != "Tape" {
                structs.push(name);
                members.push(Vec::new());
                in_members = true;
            }
        } else if line.trim() == "void init() {" {
            in_members = false;
        } else if in_members && line.contains(';') {
            let decl = line
                .split("//")
                .next()
                .unwrap()
                .trim()
                .trim_end_matches(';');
            let decl = decl.split('[').next().unwrap();
            members
                .last_mut()
                .unwrap()
                .push(decl.rsplit(' ').next().unwrap());
        } else if line.contains(".init();") {
            instantiated.push(line.split_whitespace().next().unwrap());
        }
    }
    (structs, members, instantiated)
}

/// Every name the emitter declares is a legal C++ identifier, unique in
/// its scope — fused actors' names start with a digit, and one program
/// may hold several actors of one name.
#[test]
fn every_declared_identifier_is_legal_and_unique() {
    let machine = Machine::core_i7();
    for b in all() {
        let g = (b.build)();
        let sched = Schedule::compute(&g).unwrap();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
        for (label, graph, schedule) in [
            ("scalar", &g, &sched),
            ("SIMDized", &simd.graph, &simd.schedule),
        ] {
            let code = emit_program(graph, schedule, &CodegenOptions::default());
            let (structs, members, instantiated) = declared_identifiers(&code);
            let filters = graph
                .nodes()
                .filter(|(_, n)| n.as_filter().is_some())
                .count();
            assert_eq!(structs.len(), filters, "{} {label}", b.name);
            assert_eq!(instantiated.len(), filters, "{} {label}", b.name);
            let unique = |names: &[&str]| {
                let mut sorted = names.to_vec();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            };
            assert!(unique(&structs), "{} {label}: {structs:?}", b.name);
            for names in &members {
                assert!(unique(names), "{} {label}: {names:?}", b.name);
            }
            let declared = structs.iter().chain(members.iter().flatten());
            for name in declared.chain(&instantiated) {
                assert!(legal_identifier(name), "{} {label}: `{name}`", b.name);
            }
            assert!(
                code.contains("template <typename In, typename Out> void work(In& in, Out& out)"),
                "{} {label}",
                b.name
            );
        }
    }
}
