//! Property suite for the width-parameterized kernel backend matrix:
//! random vector programs — permutations, casts, float and integer
//! comparisons (dword and qword), `i64` multiplies, intrinsics, and
//! multiply-add ladders that the chain pass collapses —
//! must run bit-identically on every *available* tier
//! (`MACROSS_KERNEL_TIER=portable|sse2|avx2`) versus the scalar dispatch
//! loop (`ExecMode::BytecodeNoFuse`) and the tree-walk oracle. A second
//! generator aims at the firing compiler's constant pool and destination
//! forwarding: assignments whose producing op writes the variable window
//! directly, including the ones where it must not, so with everything
//! fused the kernel passes see destinations that are not fresh.
//!
//! The whole suite is ONE `#[test]` because it owns two process-global
//! environment variables (`MACROSS_KERNEL_TIER` to force tiers and
//! `MACROSS_KERNEL_FUSE_THRESHOLD` to make the profitability gate accept
//! small random kernels); parallel test threads in this binary would
//! race on them.

use macross_repro::benchsuite::util::source_f32;
use macross_repro::sdf::Schedule;
use macross_repro::streamir::builder::StreamSpec;
use macross_repro::streamir::edsl::FilterBuilder;
use macross_repro::streamir::expr::{BinOp, Expr, Intrinsic, LValue, VarId};
use macross_repro::streamir::graph::{Graph, Node};
use macross_repro::streamir::stmt::Stmt;
use macross_repro::streamir::types::{ScalarTy, Ty, Value};
use macross_repro::vm::bytecode::Op;
use macross_repro::vm::{
    compile_filter_opts, run_scheduled_mode, ExecMode, KernelTier, Machine, RunResult,
};

/// Deterministic 64-bit LCG (no external rand dependency).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Build a random vector filter: pops two `w`-lane f32 vectors, applies
/// a random sequence of vector ops across f32/f64/i32 locals, pushes one
/// vector back. Every construct it can emit is one the backend matrix
/// handles natively on at least one tier (perms, compares, `CastFF`,
/// `sqrt`/`abs`/`floor`, specialized binary arithmetic, chainable
/// multiply-add ladders), so the differential actually exercises the
/// intrinsic paths rather than the shared portable fallback.
fn random_graph(rng: &mut Lcg, w: usize) -> Graph {
    let mut fb = FilterBuilder::new("rnd", 2 * w, 2 * w, w, ScalarTy::F32);
    let f: Vec<VarId> = (0..4)
        .map(|i| fb.local(format!("f{i}"), Ty::Vector(ScalarTy::F32, w)))
        .collect();
    let d = fb.local("d0", Ty::Vector(ScalarTy::F64, w));
    let n: Vec<VarId> = (0..2)
        .map(|i| fb.local(format!("n{i}"), Ty::Vector(ScalarTy::I32, w)))
        .collect();
    let q: Vec<VarId> = (0..2)
        .map(|i| fb.local(format!("q{i}"), Ty::Vector(ScalarTy::I64, w)))
        .collect();
    let steps = 10 + rng.pick(16);
    let plan: Vec<(usize, usize, usize, usize)> = (0..steps)
        .map(|_| (rng.pick(8), rng.pick(4), rng.pick(4), rng.pick(4)))
        .collect();
    let out = f[rng.pick(4)];
    fb.work(move |b| {
        let var = |id: VarId| Box::new(Expr::Var(id));
        b.stmt(Stmt::Assign(LValue::Var(f[0]), Expr::VPop { width: w }));
        b.stmt(Stmt::Assign(LValue::Var(f[1]), Expr::VPop { width: w }));
        // Center the inputs so negatives reach abs/floor/compares.
        b.stmt(Stmt::Assign(
            LValue::Var(f[1]),
            Expr::bin(
                BinOp::Sub,
                Expr::Var(f[1]),
                Expr::Splat(Box::new(Expr::Const(Value::F32(7.25))), w),
            ),
        ));
        b.stmt(Stmt::Assign(LValue::Var(f[2]), Expr::Var(f[0])));
        b.stmt(Stmt::Assign(LValue::Var(f[3]), Expr::Var(f[1])));
        for &(kind, t, x, y) in &plan {
            let (ft, fx, fy) = (f[t], f[x], f[y]);
            match kind {
                // Specialized binary arithmetic (chain fodder when runs
                // form; Div exercises the IEEE-exact narrow path).
                0 => {
                    b.stmt(Stmt::Assign(
                        LValue::Var(ft),
                        Expr::Binary(
                            [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][x % 4],
                            var(fx),
                            var(fy),
                        ),
                    ));
                }
                // Permutation kernels (the paper's extract_even/odd).
                1 => {
                    b.stmt(Stmt::Assign(
                        LValue::Var(ft),
                        if y % 2 == 0 {
                            Expr::PermuteEven(var(fx), var(fy))
                        } else {
                            Expr::PermuteOdd(var(fx), var(fy))
                        },
                    ));
                }
                // sqrt over abs (non-negative domain keeps NaNs out while
                // still hitting the intrinsic path).
                2 => {
                    b.stmt(Stmt::Assign(
                        LValue::Var(ft),
                        Expr::Call(
                            Intrinsic::Sqrt,
                            vec![Expr::Call(Intrinsic::Abs, vec![Expr::Var(fx)])],
                        ),
                    ));
                }
                3 => {
                    b.stmt(Stmt::Assign(
                        LValue::Var(ft),
                        Expr::Call(
                            if y % 2 == 0 {
                                Intrinsic::Floor
                            } else {
                                Intrinsic::Abs
                            },
                            vec![Expr::Var(fx)],
                        ),
                    ));
                }
                // Ordered compares lower to mask kernels; the result is
                // an i32 0/1 vector in this IR, folded back via a cast.
                4 => {
                    b.stmt(Stmt::Assign(
                        LValue::Var(n[0]),
                        Expr::Binary(
                            [
                                BinOp::Lt,
                                BinOp::Le,
                                BinOp::Gt,
                                BinOp::Ge,
                                BinOp::Eq,
                                BinOp::Ne,
                            ][x % 6],
                            var(fx),
                            var(fy),
                        ),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(ft),
                        Expr::Cast(ScalarTy::F32, var(n[0])),
                    ));
                }
                // f32 -> f64 -> f32 round trip (CastFF both ways).
                5 => {
                    b.stmt(Stmt::Assign(
                        LValue::Var(d),
                        Expr::Cast(ScalarTy::F64, var(fx)),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(ft),
                        Expr::Cast(ScalarTy::F32, var(d)),
                    ));
                }
                // Integer detour: f32 -> i32, bitwise/arithmetic or a
                // dword compare mask (`CmpI` i32 on every tier), back.
                6 => {
                    b.stmt(Stmt::Assign(
                        LValue::Var(n[0]),
                        Expr::Cast(ScalarTy::I32, var(fx)),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(n[1]),
                        Expr::Cast(ScalarTy::I32, var(fy)),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(n[0]),
                        Expr::Binary(
                            [
                                BinOp::And,
                                BinOp::Or,
                                BinOp::Xor,
                                BinOp::Add,
                                BinOp::Mul,
                                BinOp::Lt,
                                BinOp::Ge,
                                BinOp::Eq,
                            ][y % 8],
                            var(n[0]),
                            var(n[1]),
                        ),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(ft),
                        Expr::Cast(ScalarTy::F32, var(n[0])),
                    ));
                }
                // 64-bit detour: qword multiply (the `pmuludq`
                // decomposition on the x86 tiers) and qword compare
                // masks (`vpcmpgtq` on AVX2, portable on SSE2), folded
                // back through the saturating cast.
                _ => {
                    b.stmt(Stmt::Assign(
                        LValue::Var(q[0]),
                        Expr::Cast(ScalarTy::I64, var(fx)),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(q[1]),
                        Expr::Cast(ScalarTy::I64, var(fy)),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(q[0]),
                        Expr::Binary(
                            [BinOp::Mul, BinOp::Mul, BinOp::Add, BinOp::Xor][x % 4],
                            var(q[0]),
                            var(q[1]),
                        ),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(n[0]),
                        Expr::Binary(
                            [
                                BinOp::Lt,
                                BinOp::Le,
                                BinOp::Gt,
                                BinOp::Ge,
                                BinOp::Eq,
                                BinOp::Ne,
                            ][y % 6],
                            var(q[0]),
                            var(q[1]),
                        ),
                    ));
                    b.stmt(Stmt::Assign(
                        LValue::Var(ft),
                        Expr::Cast(ScalarTy::F32, var(n[0])),
                    ));
                }
            }
        }
        b.stmt(Stmt::VPush {
            value: Expr::Var(out),
            width: w,
        });
    });
    StreamSpec::pipeline(vec![
        source_f32("src", 2 * w, 4096, 0.375),
        fb.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("random graph")
}

/// Quiet NaNs with different payloads: distinct pool entries, never fed to
/// arithmetic (which operand's payload an op keeps is unspecified).
const NAN_BITS: [u32; 2] = [0x7fc0_0001, 0x7fc0_0002];

/// Build a random filter of assignments the firing compiler forwards, or
/// has to refuse to forward, over literals the constant pool shares, or
/// has to keep apart. One of every shape first, then a random mix.
fn forwarding_graph(rng: &mut Lcg, w: usize) -> Graph {
    let mut fb = FilterBuilder::new("fwd", 2 * w, 2 * w, 5 * w + 10, ScalarTy::F32);
    let mut vars = |name: &str, n: usize, ty: Ty| -> Vec<VarId> {
        (0..n).map(|i| fb.local(format!("{name}{i}"), ty)).collect()
    };
    let vf = vars("vf", 3, Ty::Vector(ScalarTy::F32, w));
    let vi = vars("vi", 2, Ty::Vector(ScalarTy::I32, w));
    let vd = vars("vd", 1, Ty::Vector(ScalarTy::F64, w))[0];
    let sf = vars("sf", 2, Ty::Scalar(ScalarTy::F32));
    let si = vars("si", 2, Ty::Scalar(ScalarTy::I32));
    let sd = vars("sd", 1, Ty::Scalar(ScalarTy::F64))[0];
    let sq = vars("sq", 1, Ty::Scalar(ScalarTy::I64))[0];
    let panels = vars("panels", 1, Ty::VectorArray(ScalarTy::F32, w, 2))[0];
    let arr = vars("arr", 1, Ty::Array(ScalarTy::F32, 4))[0];
    let odd = vars("odd", 4, Ty::Scalar(ScalarTy::F32)); // NaNs and zeros
    let steps = 12 + rng.pick(12);
    let plan: Vec<(usize, usize, usize, usize)> = (0..10 + steps)
        .map(|k| {
            let kind = if k < 10 { k } else { rng.pick(10) };
            (kind, rng.pick(3), rng.pick(3), rng.pick(3))
        })
        .collect();
    fb.work(move |b| {
        let var = |id: VarId| Box::new(Expr::Var(id));
        let lit = |x: f32| Expr::Const(Value::F32(x));
        let int = |x: i32| Expr::Const(Value::I32(x));
        let splat = |e: Expr| Expr::Splat(Box::new(e), w);
        let lane = |e: Expr, k: usize| Expr::Lane(Box::new(e), k % w);
        let cast = |t: ScalarTy, e: Expr| Expr::Cast(t, Box::new(e));
        let mut set = |lv: LValue, e: Expr| {
            b.stmt(Stmt::Assign(lv, e));
        };
        let small = [0.5f32, -1.25, 1.5];
        set(LValue::Var(vf[0]), Expr::VPop { width: w });
        set(LValue::Var(vf[1]), Expr::VPop { width: w });
        set(
            LValue::Var(vf[1]),
            Expr::bin(BinOp::Sub, Expr::Var(vf[1]), splat(lit(7.25))),
        );
        set(LValue::Var(vf[2]), Expr::Var(vf[0]));
        set(LValue::Var(sf[0]), lane(Expr::Var(vf[0]), 1));
        set(LValue::Var(sf[1]), lane(Expr::Var(vf[1]), 2));
        for &(kind, t, x, y) in &plan {
            let (vt, vx, vy) = (vf[t], vf[x], vf[y]);
            let (s2, i2) = (t % 2, x % 2);
            match kind {
                // `v = v op u`, `v = u op v`, `v = u op splat(literal)`.
                0 => set(
                    LValue::Var(vt),
                    match y {
                        0 => Expr::bin(BinOp::Add, Expr::Var(vt), Expr::Var(vx)),
                        1 => Expr::bin(BinOp::Sub, Expr::Var(vx), Expr::Var(vt)),
                        _ => Expr::bin(BinOp::Mul, Expr::Var(vx), splat(lit(small[x]))),
                    },
                ),
                // A permute reading its own destination must not alias.
                1 => set(
                    LValue::Var(vt),
                    if y % 2 == 0 {
                        Expr::PermuteEven(var(vt), var(vx))
                    } else {
                        Expr::PermuteOdd(var(vx), var(vt))
                    },
                ),
                // A broadcast whose source sits inside its destination.
                2 => set(LValue::Var(vt), splat(lane(Expr::Var(vt), x + y))),
                // Lane 0 of a vector temporary shares its base register
                // with the vector: the vector op must not land in a scalar.
                3 => set(
                    LValue::Var(sf[s2]),
                    lane(
                        Expr::bin(BinOp::Add, Expr::Var(vx), Expr::Var(vy)),
                        y * (x + 1),
                    ),
                ),
                // Vector results that live in the other register file.
                4 => {
                    set(
                        LValue::Var(vi[i2]),
                        Expr::bin(
                            [BinOp::Lt, BinOp::Ge, BinOp::Ne][y],
                            Expr::Var(vx),
                            Expr::Var(vy),
                        ),
                    );
                    set(LValue::Var(vt), cast(ScalarTy::F32, Expr::Var(vi[i2])));
                    set(LValue::Var(vi[1 - i2]), cast(ScalarTy::I32, Expr::Var(vx)));
                    set(LValue::Var(vd), cast(ScalarTy::F64, Expr::Var(vy)));
                    set(LValue::Var(vy), cast(ScalarTy::F32, Expr::Var(vd)));
                }
                // Scalar ones.
                5 => {
                    set(
                        LValue::Var(si[i2]),
                        Expr::bin(BinOp::Lt, Expr::Var(sf[0]), Expr::Var(sf[1])),
                    );
                    set(LValue::Var(sf[s2]), cast(ScalarTy::F32, Expr::Var(si[i2])));
                    set(
                        LValue::Var(si[1 - i2]),
                        cast(ScalarTy::I32, Expr::Var(sf[1 - s2])),
                    );
                }
                // `a.lane = expr`, both files.
                6 => {
                    set(
                        LValue::LaneVar(vt, (x + y) % w),
                        Expr::bin(BinOp::Mul, Expr::Var(sf[s2]), lit(small[y])),
                    );
                    set(
                        LValue::LaneVar(vi[i2], (t + y) % w),
                        Expr::bin(BinOp::Add, Expr::Var(si[i2]), int(7)),
                    );
                }
                // Pool sources keep their move: `x = 5`.
                7 => {
                    set(LValue::Var(si[i2]), int(5));
                    set(LValue::Var(sf[s2]), lit(2.5));
                    set(LValue::Var(vt), splat(lit(small[y])));
                    set(
                        LValue::Var(vi[1 - i2]),
                        Expr::ConstVec((0..w).map(|k| Value::I32(k as i32 - 2)).collect()),
                    );
                }
                // One literal, two widths: `7` and `0.625` are each one
                // pool register whatever the type they are used at.
                8 => {
                    set(
                        LValue::Var(si[i2]),
                        Expr::bin(BinOp::Add, Expr::Var(si[i2]), int(7)),
                    );
                    set(
                        LValue::Var(sq),
                        Expr::bin(
                            BinOp::Add,
                            Expr::bin(BinOp::Xor, Expr::Var(sq), Expr::Const(Value::I64(7))),
                            cast(ScalarTy::I64, Expr::Var(si[i2])),
                        ),
                    );
                    set(
                        LValue::Var(sf[s2]),
                        Expr::bin(BinOp::Mul, Expr::Var(sf[s2]), lit(0.625)),
                    );
                    set(
                        LValue::Var(sd),
                        Expr::bin(
                            BinOp::Add,
                            Expr::bin(BinOp::Mul, Expr::Var(sd), Expr::Const(Value::F64(0.625))),
                            cast(ScalarTy::F64, Expr::Var(sf[s2])),
                        ),
                    );
                }
                // Windows found through a run-time index.
                _ => {
                    let row = Expr::bin(BinOp::And, Expr::Var(si[i2]), int(1));
                    let cell = Expr::bin(BinOp::And, Expr::Var(si[1 - i2]), int(3));
                    set(LValue::Index(panels, row.clone()), Expr::Var(vx));
                    set(LValue::Var(vt), Expr::Index(panels, Box::new(row)));
                    set(LValue::Index(arr, cell.clone()), Expr::Var(sf[s2]));
                    set(LValue::Var(sf[1 - s2]), Expr::Index(arr, Box::new(cell)));
                }
            }
        }
        // Literals only bit patterns tell apart.
        set(LValue::Var(odd[0]), lit(f32::from_bits(NAN_BITS[0])));
        set(LValue::Var(odd[1]), lit(f32::from_bits(NAN_BITS[1])));
        set(LValue::Var(odd[2]), lit(0.0));
        set(LValue::Var(odd[3]), lit(-0.0));
        for value in [
            Expr::Var(vf[0]),
            Expr::Var(vf[1]),
            Expr::Var(vf[2]),
            cast(ScalarTy::F32, Expr::Var(vi[0])),
            cast(ScalarTy::F32, Expr::Var(vd)),
        ] {
            b.stmt(Stmt::VPush { value, width: w });
        }
        for value in [
            Expr::Var(sf[0]),
            Expr::Var(sf[1]),
            cast(ScalarTy::F32, Expr::Var(sd)),
            cast(ScalarTy::F32, Expr::Var(si[0])),
            cast(ScalarTy::F32, Expr::Var(si[1])),
            cast(ScalarTy::F32, Expr::Var(sq)),
            Expr::Var(odd[0]),
            Expr::Var(odd[1]),
            Expr::bin(BinOp::Div, lit(1.0), Expr::Var(odd[2])),
            Expr::bin(BinOp::Div, lit(1.0), Expr::Var(odd[3])),
        ] {
            b.stmt(Stmt::Push(value));
        }
    });
    StreamSpec::pipeline(vec![
        source_f32("src", 2 * w, 4096, 0.375),
        fb.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("forwarding graph")
}

/// What the pool and forwarding did to `fwd`, so the differential below is
/// known to have met them: shared and separated literals, ops that write a
/// variable window directly, and permutes that were kept off theirs.
fn assert_pool_and_forwarding_engaged(g: &Graph, machine: &Machine, at: &str) {
    let (id, fl) = g
        .nodes()
        .find_map(|(id, n)| match n {
            Node::Filter(fl) if fl.name == "fwd" => Some((id, fl)),
            _ => None,
        })
        .expect("fwd filter");
    let in_e = g.single_in_edge(id).map(|e| g.edge(e).elem);
    let out_e = g.single_out_edge(id).map(|e| g.edge(e).elem);
    let plan = compile_filter_opts(fl, in_e, out_e, machine, false)
        .unwrap_or_else(|| panic!("{at}: fwd fell back to the tree-walker"));
    let ints = |x: i64| plan.pool_i.1.iter().filter(|&&v| v == x).count();
    let floats = |x: f64| {
        let bits = x.to_bits();
        plan.pool_f.1.iter().filter(|v| v.to_bits() == bits).count()
    };
    assert_eq!(ints(7), 1, "{at}: I32 and I64 `7` share a register");
    assert_eq!(
        floats(0.625),
        1,
        "{at}: F32 and F64 `0.625` share a register"
    );
    assert_eq!((floats(0.0), floats(-0.0)), (1, 1), "{at}: signed zeros");
    for bits in NAN_BITS {
        assert_eq!(
            floats(f32::from_bits(bits) as f64),
            1,
            "{at}: NaN {bits:#x}"
        );
    }
    let var_zone = plan.pool_f.0;
    let mut forwarded = 0;
    for op in &plan.work {
        match *op {
            Op::VBinF { dst, .. } | Op::VCastIF { dst, .. } | Op::LoadVElemF { dst, .. } => {
                forwarded += (dst < var_zone) as usize;
            }
            Op::PermF { dst, a, b, w, .. } => {
                let apart = |s: u32| s + w <= dst || dst + w <= s;
                assert!(apart(a) && apart(b), "{at}: {op:?} reads its destination");
            }
            Op::SplatF { dst, a, w } => {
                assert!(
                    a < dst || dst + w <= a,
                    "{at}: {op:?} reads its destination"
                );
            }
            _ => {}
        }
    }
    assert!(
        forwarded >= 3,
        "{at}: only {forwarded} forwarded vector ops"
    );
}

fn bits_eq(a: &RunResult, b: &RunResult) -> bool {
    a.output.len() == b.output.len() && a.output.iter().zip(&b.output).all(|(x, y)| x.bits_eq(*y))
}

/// Count fused kernels in the random filter so the suite can prove it is
/// not vacuously comparing unfused dispatch against itself.
fn fused_kernels(g: &Graph, machine: &Machine, filter: &str) -> usize {
    for (id, node) in g.nodes() {
        let Node::Filter(fl) = node else { continue };
        if fl.name != filter {
            continue;
        }
        let in_e = g.single_in_edge(id).map(|e| g.edge(e).elem);
        let out_e = g.single_out_edge(id).map(|e| g.edge(e).elem);
        return compile_filter_opts(fl, in_e, out_e, machine, true)
            .map(|p| p.kernels.len())
            .unwrap_or(0);
    }
    0
}

#[test]
fn random_vector_programs_are_bit_identical_across_all_tiers() {
    let machine = Machine::core_i7();
    let inherited_tier = std::env::var("MACROSS_KERNEL_TIER").ok();
    let inherited_threshold = std::env::var("MACROSS_KERNEL_FUSE_THRESHOLD").ok();
    // Let small random kernels through the profitability gate; the point
    // here is coverage, not speed.
    std::env::set_var("MACROSS_KERNEL_FUSE_THRESHOLD", "1");

    let tiers: Vec<KernelTier> = KernelTier::ALL
        .iter()
        .copied()
        .filter(|t| t.available())
        .collect();
    assert!(
        tiers.contains(&KernelTier::Portable),
        "portable tier must always be available"
    );

    let mut total_kernels = 0usize;
    for seed in 0..48u64 {
        let mut rng = Lcg(0x9e3779b97f4a7c15 ^ (seed.wrapping_mul(0x2545f4914f6cdd1d) + 1));
        let w = [4, 8][rng.pick(2)];
        // Seeds 24.. go to the pool-and-forwarding generator.
        let (g, kind, filter) = if seed < 24 {
            (random_graph(&mut rng, w), "vector", "rnd")
        } else {
            let g = forwarding_graph(&mut rng, w);
            assert_pool_and_forwarding_engaged(&g, &machine, &format!("seed {seed} w={w}"));
            (g, "forwarding", "fwd")
        };
        let at = format!("{kind} seed {seed} w={w}");
        let sched = Schedule::compute(&g).expect("schedule");
        total_kernels += fused_kernels(&g, &machine, filter);

        std::env::remove_var("MACROSS_KERNEL_TIER");
        let tw = run_scheduled_mode(&g, &sched, &machine, 12, ExecMode::TreeWalk).expect("tw");
        let nf =
            run_scheduled_mode(&g, &sched, &machine, 12, ExecMode::BytecodeNoFuse).expect("nf");
        assert!(bits_eq(&tw, &nf), "{at}: dispatch != treewalk");
        assert_eq!(tw.counters, nf.counters, "{at}: counters");

        for &tier in &tiers {
            std::env::set_var("MACROSS_KERNEL_TIER", tier.label());
            let fused =
                run_scheduled_mode(&g, &sched, &machine, 12, ExecMode::Bytecode).expect("fused");
            assert!(
                bits_eq(&tw, &fused),
                "{at}: tier {} diverges from the oracle",
                tier.label()
            );
            assert_eq!(
                tw.counters,
                fused.counters,
                "{at}: tier {} counters diverge",
                tier.label()
            );
        }
    }
    assert!(
        total_kernels >= 24,
        "suite is near-vacuous: only {total_kernels} fused kernels across all seeds"
    );

    match inherited_tier {
        Some(v) => std::env::set_var("MACROSS_KERNEL_TIER", v),
        None => std::env::remove_var("MACROSS_KERNEL_TIER"),
    }
    match inherited_threshold {
        Some(v) => std::env::set_var("MACROSS_KERNEL_FUSE_THRESHOLD", v),
        None => std::env::remove_var("MACROSS_KERNEL_FUSE_THRESHOLD"),
    }
}
