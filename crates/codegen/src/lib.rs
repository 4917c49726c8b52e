//! # macross-codegen
//!
//! Intermediate C++ code generation — the final phase of Algorithm 1
//! ("MacroSS maps the internal stream representation to the target
//! specific code (C++ in this case) and uses available
//! architecture-dependent intrinsics").
//!
//! The emitter produces one self-contained translation unit per program:
//! a vector-operations prelude (SSE4 intrinsics or a portable fallback), a
//! ring-buffer tape class, one struct per actor, and a `main` that runs
//! the initialization phase followed by the Figure-1b steady-state loop.
//!
//! The output is golden-tested for structure; it is a deliverable of the
//! reproduction, not a compilation path (the `macross-vm` crate is the
//! execution substrate — see DESIGN.md).
//!
//! ## Report-driven headers
//!
//! Because the emitted C++ is a *document* of the SIMDization rather than
//! the thing that runs, the translation unit should say what the compiler
//! did to the program. [`emit_program_with_report`] prefixes
//! [`emit_program`]'s output with a comment block rendering the
//! [`macross::SimdizeReport`] that produced the graph — the Equation-1
//! schedule scale factor, single-actor SIMDizations, vertically fused
//! chains, horizontally merged groups, actors skipped as unprofitable,
//! and the tape-access mode chosen per vectorized actor — so a reader can
//! audit the macro-SIMDization of a program from the header alone,
//! without executing anything.
//!
//! [`emit_program`] itself is unchanged by all of this (golden tests pin
//! its structure); the report header is strictly additive.

use macross::{ActorDecision, SimdizeReport};
use macross_sdf::Schedule;
use macross_streamir::expr::{Expr, Intrinsic, LValue, UnOp};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::graph::{Graph, Node, SplitKind};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{ScalarTy, Ty};
use std::collections::HashSet;
use std::fmt::Write;

/// C++ keywords and the names the prelude and `main` declare: no emitted
/// name may take one.
const RESERVED: &[&str] = &[
    "auto",
    "bool",
    "break",
    "case",
    "char",
    "class",
    "const",
    "continue",
    "default",
    "delete",
    "do",
    "double",
    "else",
    "enum",
    "extern",
    "false",
    "float",
    "for",
    "if",
    "inline",
    "int",
    "long",
    "namespace",
    "new",
    "operator",
    "private",
    "public",
    "return",
    "short",
    "signed",
    "sizeof",
    "static",
    "struct",
    "switch",
    "template",
    "this",
    "true",
    "typedef",
    "typename",
    "union",
    "unsigned",
    "using",
    "virtual",
    "void",
    "volatile",
    "while",
    "main",
    "std",
    "Tape",
    "vec",
    "In",
    "Out",
    "in",
    "out",
    "init",
    "work",
    "r",
    "nil_tape",
    "split_dup",
    "split_rr",
    "join_rr",
    "hsplit",
    "hjoin",
    "sink_consume",
];

/// Hands out the identifiers of one scope — a translation unit's
/// structs, or one struct's members: every name the emitter writes goes
/// through [`Mangler::fresh`], which makes it a legal C++ identifier
/// (`[A-Za-z_][A-Za-z0-9_]*`) that no earlier call returned and nothing
/// reserved uses.
struct Mangler {
    taken: HashSet<String>,
}

impl Mangler {
    fn new() -> Mangler {
        Mangler {
            taken: RESERVED.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// `name` as a fresh identifier of this scope: a character outside
    /// `[A-Za-z0-9_]` is escaped as `_<hex code>_`, a leading digit gets
    /// an `n_` prefix, and a name already taken a `_<k>` suffix.
    fn fresh(&mut self, name: &str) -> String {
        let mut id = String::with_capacity(name.len());
        for ch in name.chars() {
            if ch.is_ascii_alphanumeric() || ch == '_' {
                id.push(ch);
            } else {
                let _ = write!(id, "_{:x}_", ch as u32);
            }
        }
        if id.is_empty() || id.starts_with(|c: char| c.is_ascii_digit()) {
            id.insert_str(0, "n_");
        }
        let mut unique = id.clone();
        let mut k = 2;
        while self.taken.contains(&unique) {
            unique = format!("{id}_{k}");
            k += 1;
        }
        self.taken.insert(unique.clone());
        unique
    }
}

/// Which vector flavour the emitted C++ uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CxxTarget {
    /// SSE4.2 `__m128`/`__m128i` intrinsics (width 4 only).
    Sse4,
    /// A portable struct-of-lanes fallback for any width.
    Generic,
}

/// Code generation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Target flavour.
    pub target: CxxTarget,
    /// SIMD width of the vectorized program (lane count of vector types).
    pub sw: usize,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            target: CxxTarget::Sse4,
            sw: 4,
        }
    }
}

fn scalar_cxx(t: ScalarTy) -> &'static str {
    match t {
        ScalarTy::I32 => "int32_t",
        ScalarTy::I64 => "int64_t",
        ScalarTy::F32 => "float",
        ScalarTy::F64 => "double",
    }
}

fn vector_cxx(t: ScalarTy, opts: &CodegenOptions) -> String {
    match opts.target {
        CxxTarget::Sse4 if opts.sw == 4 => match t {
            ScalarTy::F32 => "__m128".into(),
            ScalarTy::I32 => "__m128i".into(),
            ScalarTy::F64 => "__m128d_pair".into(),
            ScalarTy::I64 => "__m128i_pair".into(),
        },
        _ => format!("vec<{}, {}>", scalar_cxx(t), opts.sw),
    }
}

fn vop(prefix: &str, t: ScalarTy, opts: &CodegenOptions) -> String {
    // The prelude defines e.g. v_add_ps / v_add_epi32 wrappers over the
    // raw intrinsics so emitted expressions stay readable.
    let suffix = match (opts.target, t) {
        (CxxTarget::Sse4, ScalarTy::F32) => "_ps",
        (CxxTarget::Sse4, ScalarTy::I32) => "_epi32",
        (CxxTarget::Sse4, ScalarTy::F64) => "_pd2",
        (CxxTarget::Sse4, ScalarTy::I64) => "_epi64x",
        (CxxTarget::Generic, _) => "",
    };
    format!("v_{prefix}{suffix}")
}

/// The fixed prelude: includes, vector wrappers, and the tape class.
pub fn emit_prelude(opts: &CodegenOptions) -> String {
    let mut s = String::new();
    s.push_str("// Generated by the MacroSS reproduction code generator.\n");
    s.push_str("#include <cstdint>\n#include <cmath>\n#include <cstring>\n#include <vector>\n");
    if opts.target == CxxTarget::Sse4 {
        s.push_str("#include <smmintrin.h> // SSE4\n\n");
        s.push_str(
            "// Thin wrappers so the generated code reads uniformly.\n\
             static inline __m128 v_add_ps(__m128 a, __m128 b) { return _mm_add_ps(a, b); }\n\
             static inline __m128 v_sub_ps(__m128 a, __m128 b) { return _mm_sub_ps(a, b); }\n\
             static inline __m128 v_mul_ps(__m128 a, __m128 b) { return _mm_mul_ps(a, b); }\n\
             static inline __m128 v_div_ps(__m128 a, __m128 b) { return _mm_div_ps(a, b); }\n\
             static inline __m128 v_splat_ps(float x) { return _mm_set1_ps(x); }\n\
             static inline __m128 v_extract_even_ps(__m128 a, __m128 b) { return _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)); }\n\
             static inline __m128 v_extract_odd_ps(__m128 a, __m128 b) { return _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)); }\n\
             static inline __m128i v_add_epi32(__m128i a, __m128i b) { return _mm_add_epi32(a, b); }\n\
             static inline __m128i v_sub_epi32(__m128i a, __m128i b) { return _mm_sub_epi32(a, b); }\n\
             static inline __m128i v_mul_epi32(__m128i a, __m128i b) { return _mm_mullo_epi32(a, b); }\n\
             static inline __m128i v_splat_epi32(int32_t x) { return _mm_set1_epi32(x); }\n\
             // SVML-style vector math fallbacks (lane-wise).\n",
        );
    } else {
        s.push_str("\n// Portable vector fallback.\ntemplate <typename T, int W> struct vec { T lane[W]; };\n");
    }
    s.push_str(
        "\n// FIFO tape with random-access pushes and pointer adjustment,\n\
         // as required by macro-SIMDized actors (rpush/advance of Fig. 3b).\n\
         template <typename T> struct Tape {\n\
         \x20 std::vector<T> buf; size_t rd = 0, wr = 0;\n\
         \x20 explicit Tape(size_t cap) : buf(cap * 2) {}\n\
         \x20 T pop() { return buf[(rd++) % buf.size()]; }\n\
         \x20 T peek(size_t k) const { return buf[(rd + k) % buf.size()]; }\n\
         \x20 void push(T v) { buf[(wr++) % buf.size()] = v; }\n\
         \x20 void rpush(T v, size_t off) { buf[(wr + off) % buf.size()] = v; }\n\
         \x20 void advance_read(size_t n) { rd += n; }\n\
         \x20 void advance_write(size_t n) { wr += n; }\n\
         };\n\n",
    );
    s
}

struct Emitter<'a> {
    opts: &'a CodegenOptions,
    filter: &'a Filter,
    out: String,
    indent: usize,
    /// Member identifiers, indexed by `VarId`.
    var_names: Vec<String>,
    /// Member identifiers, indexed by `ChanId`.
    chan_names: Vec<String>,
}

impl<'a> Emitter<'a> {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn var_name(&self, v: macross_streamir::expr::VarId) -> String {
        self.var_names[v.0 as usize].clone()
    }

    fn chan_name(&self, c: macross_streamir::expr::ChanId) -> String {
        self.chan_names[c.0 as usize].clone()
    }

    fn ty_cxx(&self, ty: Ty) -> String {
        match ty {
            Ty::Scalar(t) => scalar_cxx(t).into(),
            Ty::Vector(t, _) => vector_cxx(t, self.opts),
            Ty::Array(t, n) => format!("{}[{n}]", scalar_cxx(t)),
            Ty::VectorArray(t, _, n) => format!("{}[{n}]", vector_cxx(t, self.opts)),
        }
    }

    fn expr(&self, e: &Expr) -> String {
        match e {
            Expr::Const(v) => v.to_string(),
            Expr::ConstVec(vs) => {
                let elems: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                format!(
                    "{}({})",
                    vop("set", vs[0].ty(), self.opts),
                    elems.join(", ")
                )
            }
            Expr::Var(v) => self.var_name(*v),
            Expr::Index(v, i) => format!("{}[{}]", self.var_name(*v), self.expr(i)),
            Expr::VIndex(v, i, _) => {
                format!(
                    "{}(&{}[{}])",
                    vop("load", elem_of(self.filter, *v), self.opts),
                    self.var_name(*v),
                    self.expr(i)
                )
            }
            Expr::Unary(UnOp::Neg, a) => format!("(-{})", self.expr(a)),
            Expr::Unary(UnOp::Not, a) => format!("(~{})", self.expr(a)),
            Expr::Unary(UnOp::LogNot, a) => format!("(!{})", self.expr(a)),
            Expr::Binary(op, a, b) => {
                // Vector operands go through the wrapper functions; the
                // emitter decides syntactically: if either side names a
                // vector-typed variable the wrapper form is used.
                if self.is_vec(a) || self.is_vec(b) {
                    let t = self
                        .vec_elem(a)
                        .or_else(|| self.vec_elem(b))
                        .unwrap_or(ScalarTy::F32);
                    format!(
                        "{}({}, {})",
                        vop(binop_name(*op), t, self.opts),
                        self.expr(a),
                        self.expr(b)
                    )
                } else {
                    format!("({} {} {})", self.expr(a), op.symbol(), self.expr(b))
                }
            }
            Expr::Call(i, args) => {
                let args_s: Vec<String> = args.iter().map(|a| self.expr(a)).collect();
                if args.iter().any(|a| self.is_vec(a)) {
                    format!("v_{}(#{})", i.name(), args_s.join(", ")).replace('#', "")
                } else {
                    format!("std::{}({})", intrinsic_cxx(*i), args_s.join(", "))
                }
            }
            Expr::Cast(t, a) => format!("({}){}", scalar_cxx(*t), self.expr(a)),
            Expr::Pop => "in.pop()".into(),
            Expr::Peek(off) => format!("in.peek({})", self.expr(off)),
            Expr::VPop { width } => format!("vpop{width}(in)"),
            Expr::VPeek { offset, width } => format!("vpeek{width}(in, {})", self.expr(offset)),
            Expr::LPop(c) => format!("{}.pop()", self.chan_name(*c)),
            Expr::LVPop(c, w) => format!("vpop{w}({})", self.chan_name(*c)),
            Expr::Lane(a, l) => format!("lane<{l}>({})", self.expr(a)),
            Expr::Splat(a, _) => {
                let t = self.scalar_elem(a).unwrap_or(ScalarTy::F32);
                format!("{}({})", vop("splat", t, self.opts), self.expr(a))
            }
            Expr::PermuteEven(a, b) => {
                let t = self.vec_elem(a).unwrap_or(ScalarTy::F32);
                format!(
                    "{}({}, {})",
                    vop("extract_even", t, self.opts),
                    self.expr(a),
                    self.expr(b)
                )
            }
            Expr::PermuteOdd(a, b) => {
                let t = self.vec_elem(a).unwrap_or(ScalarTy::F32);
                format!(
                    "{}({}, {})",
                    vop("extract_odd", t, self.opts),
                    self.expr(a),
                    self.expr(b)
                )
            }
        }
    }

    /// Syntactic vector-ness: the expression's root produces a vector.
    fn is_vec(&self, e: &Expr) -> bool {
        match e {
            Expr::Var(v) => {
                self.filter.vars[v.0 as usize].ty.is_vector()
                    && self.filter.vars[v.0 as usize].ty.array_len().is_none()
            }
            Expr::Index(v, _) => {
                matches!(self.filter.vars[v.0 as usize].ty, Ty::VectorArray(_, _, _))
            }
            Expr::ConstVec(_)
            | Expr::VPop { .. }
            | Expr::VPeek { .. }
            | Expr::VIndex(_, _, _)
            | Expr::LVPop(_, _)
            | Expr::Splat(_, _)
            | Expr::PermuteEven(_, _)
            | Expr::PermuteOdd(_, _) => true,
            Expr::Binary(_, a, b) => self.is_vec(a) || self.is_vec(b),
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.is_vec(a),
            Expr::Call(_, args) => args.iter().any(|a| self.is_vec(a)),
            _ => false,
        }
    }

    fn vec_elem(&self, e: &Expr) -> Option<ScalarTy> {
        match e {
            Expr::Var(v) | Expr::Index(v, _) | Expr::VIndex(v, _, _) => {
                Some(self.filter.vars[v.0 as usize].ty.elem())
            }
            Expr::ConstVec(vs) => Some(vs[0].ty()),
            Expr::Binary(_, a, b) => self.vec_elem(a).or_else(|| self.vec_elem(b)),
            Expr::Unary(_, a) | Expr::Splat(a, _) => self.vec_elem(a),
            Expr::Cast(t, _) => Some(*t),
            _ => None,
        }
    }

    fn scalar_elem(&self, e: &Expr) -> Option<ScalarTy> {
        self.vec_elem(e)
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(lv, e) => {
                let rhs = self.expr(e);
                let text = match lv {
                    LValue::Var(v) => format!("{} = {rhs};", self.var_name(*v)),
                    LValue::Index(v, i) => {
                        format!("{}[{}] = {rhs};", self.var_name(*v), self.expr(i))
                    }
                    LValue::LaneVar(v, l) => {
                        format!("set_lane<{l}>({}, {rhs});", self.var_name(*v))
                    }
                    LValue::LaneIndex(v, i, l) => {
                        format!(
                            "set_lane<{l}>({}[{}], {rhs});",
                            self.var_name(*v),
                            self.expr(i)
                        )
                    }
                    LValue::VIndex(v, i, _) => {
                        let t = elem_of(self.filter, *v);
                        format!(
                            "{}(&{}[{}], {rhs});",
                            vop("store", t, self.opts),
                            self.var_name(*v),
                            self.expr(i)
                        )
                    }
                };
                self.line(&text);
            }
            Stmt::Push(e) => {
                let text = format!("out.push({});", self.expr(e));
                self.line(&text);
            }
            Stmt::RPush { value, offset } => {
                let text = format!("out.rpush({}, {});", self.expr(value), self.expr(offset));
                self.line(&text);
            }
            Stmt::VPush { value, width } => {
                let text = format!("vpush{width}(out, {});", self.expr(value));
                self.line(&text);
            }
            Stmt::LPush(c, e) => {
                let text = format!("{}.push({});", self.chan_name(*c), self.expr(e));
                self.line(&text);
            }
            Stmt::LVPush(c, e, w) => {
                let text = format!("vpush{w}({}, {});", self.chan_name(*c), self.expr(e));
                self.line(&text);
            }
            Stmt::For { var, count, body } => {
                let v = self.var_name(*var);
                let text = format!("for ({v} = 0; {v} < {}; ++{v}) {{", self.expr(count));
                self.line(&text);
                self.indent += 1;
                for s in body {
                    self.stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let text = format!("if ({}) {{", self.expr(cond));
                self.line(&text);
                self.indent += 1;
                for s in then_branch {
                    self.stmt(s);
                }
                self.indent -= 1;
                if else_branch.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    for s in else_branch {
                        self.stmt(s);
                    }
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::AdvanceRead(n) => self.line(&format!("in.advance_read({n});")),
            Stmt::AdvanceWrite(n) => self.line(&format!("out.advance_write({n});")),
        }
    }
}

fn elem_of(f: &Filter, v: macross_streamir::expr::VarId) -> ScalarTy {
    f.vars[v.0 as usize].ty.elem()
}

fn binop_name(op: macross_streamir::expr::BinOp) -> &'static str {
    use macross_streamir::expr::BinOp::*;
    match op {
        Add => "add",
        Sub => "sub",
        Mul => "mul",
        Div => "div",
        Rem => "rem",
        And => "and",
        Or => "or",
        Xor => "xor",
        Shl => "shl",
        Shr => "shr",
        Eq => "cmpeq",
        Ne => "cmpne",
        Lt => "cmplt",
        Le => "cmple",
        Gt => "cmpgt",
        Ge => "cmpge",
    }
}

fn intrinsic_cxx(i: Intrinsic) -> &'static str {
    match i {
        Intrinsic::Sin => "sin",
        Intrinsic::Cos => "cos",
        Intrinsic::Atan => "atan",
        Intrinsic::Sqrt => "sqrt",
        Intrinsic::Exp => "exp",
        Intrinsic::Log => "log",
        Intrinsic::Floor => "floor",
        Intrinsic::Abs => "abs",
        Intrinsic::Min => "min",
        Intrinsic::Max => "max",
        Intrinsic::Pow => "pow",
    }
}

/// Emit one filter as a C++ struct with `init`/`work` methods.
pub fn emit_filter(filter: &Filter, opts: &CodegenOptions) -> String {
    emit_struct(filter, &Mangler::new().fresh(&filter.name), opts)
}

/// [`emit_filter`] under the struct name `cname`. Members are named
/// after their declarations, suffixed with their id to keep the
/// duplicates fusion renaming leaves apart.
fn emit_struct(filter: &Filter, cname: &str, opts: &CodegenOptions) -> String {
    let mut members = Mangler::new();
    let var_names = (filter.vars.iter().enumerate())
        .map(|(idx, v)| members.fresh(&format!("{}_{idx}", v.name)))
        .collect();
    let chan_names = (filter.chans.iter().enumerate())
        .map(|(idx, c)| members.fresh(&format!("{}_{idx}", c.name)))
        .collect();
    let mut e = Emitter {
        opts,
        filter,
        out: String::new(),
        indent: 0,
        var_names,
        chan_names,
    };
    e.line(&format!(
        "// actor {} (peek={}, pop={}, push={})",
        filter.name, filter.peek, filter.pop, filter.push
    ));
    if let Some(spec) = &filter.region {
        let names: Vec<String> = spec
            .vars
            .iter()
            .map(|v| filter.var(*v).name.clone())
            .collect();
        // Post-SIMDization the arrays are region-major lane panels; print
        // the layout so readers can map lanes back to regions.
        let lanes = spec.vars.first().and_then(|v| match filter.var(*v).ty {
            Ty::VectorArray(_, w, _) => Some(w),
            _ => None,
        });
        match lanes {
            Some(w) => e.line(&format!(
                "// region state: {} panel(s) x {w} lane(s) (lane l of panel j = region j*{w}+l), cursor {}, arrays [{}]",
                spec.regions,
                filter.var(spec.cursor).name,
                names.join(", ")
            )),
            None => e.line(&format!(
                "// region state: {} independent regions, cursor {}, arrays [{}]",
                spec.regions,
                filter.var(spec.cursor).name,
                names.join(", ")
            )),
        }
    }
    e.line(&format!("struct {cname} {{"));
    e.indent += 1;
    for (idx, v) in filter.vars.iter().enumerate() {
        let comment = match v.kind {
            VarKind::State => " // state",
            VarKind::Local => "",
        };
        let name = &e.var_names[idx];
        match v.ty {
            Ty::Array(t, n) => e.line(&format!("{} {name}[{n}];{comment}", scalar_cxx(t))),
            Ty::VectorArray(t, _, n) => {
                let vt = vector_cxx(t, opts);
                e.line(&format!("{vt} {name}[{n}];{comment}"))
            }
            other => {
                let ty = e.ty_cxx(other);
                e.line(&format!("{ty} {name};{comment}"))
            }
        }
    }
    for (idx, c) in filter.chans.iter().enumerate() {
        let ty = match c.ty {
            Ty::Scalar(t) => format!("Tape<{}>", scalar_cxx(t)),
            Ty::Vector(t, _) => format!("Tape<{}>", vector_cxx(t, opts)),
            _ => unreachable!("channels are scalar or vector"),
        };
        e.line(&format!("{ty} {}; // internal buffer", e.chan_names[idx]));
    }
    e.line("");
    e.line("void init() {");
    e.indent += 1;
    let init = filter.init.clone();
    for s in &init {
        e.stmt(s);
    }
    e.indent -= 1;
    e.line("}");
    e.line("");
    e.line("template <typename In, typename Out> void work(In& in, Out& out) {");
    e.indent += 1;
    let work = filter.work.clone();
    for s in &work {
        e.stmt(s);
    }
    e.indent -= 1;
    e.line("}");
    e.indent -= 1;
    e.line("};");
    e.out
}

/// Emit a complete program: prelude, all actors, tapes, and the Figure-1b
/// main loop (initialization firings followed by the steady state).
pub fn emit_program(graph: &Graph, schedule: &Schedule, opts: &CodegenOptions) -> String {
    let mut s = emit_prelude(opts);
    // One scope for the unit: `main`'s locals are taken first, then each
    // actor's struct gets its name.
    let mut unit = Mangler::new();
    for (id, _) in graph.edges() {
        unit.taken.insert(format!("tape{}", id.0));
    }
    for id in graph.node_ids() {
        unit.taken.insert(format!("actor{}", id.0));
    }
    let mut struct_names = vec![String::new(); graph.node_count()];
    for (id, node) in graph.nodes() {
        if let Node::Filter(f) = node {
            let cname = unit.fresh(&f.name);
            s.push_str(&emit_struct(f, &cname, opts));
            s.push('\n');
            struct_names[id.0 as usize] = cname;
        }
    }
    s.push_str("int main() {\n");
    // Tapes.
    for (id, e) in graph.edges() {
        let _ = writeln!(s, "  Tape<{}> tape{}(4096);", scalar_cxx(e.elem), id.0);
    }
    // Actor instances + init.
    for (id, node) in graph.nodes() {
        if let Node::Filter(_) = node {
            let cname = &struct_names[id.0 as usize];
            let _ = writeln!(s, "  {cname} actor{}; actor{}.init();", id.0, id.0);
        }
    }
    let emit_phase = |s: &mut String, reps: &[u64], label: &str| {
        let _ = writeln!(s, "  // ---- {label} ----");
        for &id in &schedule.order {
            let rep = reps[id.0 as usize];
            if rep == 0 {
                continue;
            }
            let node = graph.node(id);
            let in_e = graph.in_edges(id);
            let out_e = graph.out_edges(id);
            match node {
                Node::Filter(_) => {
                    let input = in_e
                        .first()
                        .map(|e| format!("tape{}", e.0))
                        .unwrap_or_else(|| "nil_tape".into());
                    let output = out_e
                        .first()
                        .map(|e| format!("tape{}", e.0))
                        .unwrap_or_else(|| "nil_tape".into());
                    let _ = writeln!(
                        s,
                        "  for (int r = 0; r < {rep}; ++r) actor{}.work({input}, {output});",
                        id.0
                    );
                }
                Node::Splitter(SplitKind::Duplicate) => {
                    let _ = writeln!(
                        s,
                        "  for (int r = 0; r < {rep}; ++r) split_dup(tape{}, /*outs*/ {});",
                        in_e[0].0,
                        out_e.len()
                    );
                }
                Node::Splitter(SplitKind::RoundRobin(w)) => {
                    let _ = writeln!(
                        s,
                        "  for (int r = 0; r < {rep}; ++r) split_rr(tape{}, /*weights*/ {:?});",
                        in_e[0].0, w
                    );
                }
                Node::Joiner(w) => {
                    let _ = writeln!(
                        s,
                        "  for (int r = 0; r < {rep}; ++r) join_rr(tape{}, /*weights*/ {:?});",
                        out_e[0].0, w
                    );
                }
                Node::HSplitter { width, .. } => {
                    let _ = writeln!(
                        s,
                        "  for (int r = 0; r < {rep}; ++r) hsplit<{width}>(tape{});",
                        in_e[0].0
                    );
                }
                Node::HJoiner { width, .. } => {
                    let _ = writeln!(
                        s,
                        "  for (int r = 0; r < {rep}; ++r) hjoin<{width}>(tape{});",
                        out_e[0].0
                    );
                }
                Node::Sink => {
                    let _ = writeln!(
                        s,
                        "  for (int r = 0; r < {rep}; ++r) sink_consume(tape{});",
                        in_e[0].0
                    );
                }
            }
        }
    };
    emit_phase(&mut s, &schedule.init_reps, "initialization schedule");
    s.push_str("  for (;;) { // steady state (Figure 1b)\n");
    emit_phase(&mut s, &schedule.reps, "steady state");
    s.push_str("  }\n  return 0;\n}\n");
    s
}

fn tape_mode_label(m: macross::TapeMode) -> &'static str {
    match m {
        macross::TapeMode::Strided => "strided",
        macross::TapeMode::Permute => "permute",
        macross::TapeMode::VectorReorder => "vector-reorder",
        macross::TapeMode::Vector => "vector",
    }
}

/// Render the macro-SIMDization header comment: the [`SimdizeReport`]
/// summary.
pub fn emit_report_header(report: &SimdizeReport) -> String {
    let bar = "// ".to_string() + &"=".repeat(74) + "\n";
    let mut s = String::new();
    s.push_str(&bar);
    s.push_str("// Macro-SIMDization report (MacroSS Algorithm 1)\n");
    s.push_str(&bar);
    let _ = writeln!(
        s,
        "// Equation-1 schedule scale factor: {}",
        report.scale_factor
    );
    // Each actor's name, and its lane width beside it when `width`.
    let list = |s: &mut String, label: &str, records: &[ActorDecision], width: bool| {
        let items: Vec<String> = (records.iter())
            .map(|d| {
                if width {
                    format!("{} (width {})", d.actor, d.width)
                } else {
                    d.actor.clone()
                }
            })
            .collect();
        if items.is_empty() {
            let _ = writeln!(s, "// {label}: (none)");
        } else {
            let _ = writeln!(s, "// {label}: {}", items.join(", "));
        }
    };
    let (single, region) = (&report.single_actors, &report.region_actors);
    list(&mut s, "Single-actor SIMDized", single, false);
    list(&mut s, "Region-SIMDized", region, true);
    if report.vertical_chains.is_empty() {
        s.push_str("// Vertically fused chains: (none)\n");
    } else {
        s.push_str("// Vertically fused chains:\n");
        for chain in &report.vertical_chains {
            let _ = writeln!(s, "//   - {}", chain.join(" -> "));
        }
    }
    if report.horizontal_groups.is_empty() {
        s.push_str("// Horizontally merged groups: (none)\n");
    } else {
        s.push_str("// Horizontally merged groups:\n");
        for group in &report.horizontal_groups {
            let _ = writeln!(s, "//   - {}", group.join(" | "));
        }
    }
    let skipped = &report.skipped_unprofitable;
    list(&mut s, "Skipped as unprofitable", skipped, false);
    let installed = single.iter().chain(region);
    if installed.clone().next().is_some() {
        s.push_str("// Tape access modes:\n");
    }
    for d in installed {
        let _ = writeln!(
            s,
            "//   - {}: input {}, output {}",
            d.actor,
            tape_mode_label(d.winner().input),
            tape_mode_label(d.winner().output)
        );
    }
    s.push_str(&bar);
    s.push('\n');
    s
}

/// [`emit_program`], prefixed with the [`emit_report_header`] comment
/// block so the C++ deliverable documents every decision the SIMDizer
/// made. The program text after the header is byte-identical to
/// [`emit_program`]'s output.
pub fn emit_program_with_report(
    graph: &Graph,
    schedule: &Schedule,
    opts: &CodegenOptions,
    report: &SimdizeReport,
) -> String {
    let mut s = emit_report_header(report);
    s.push_str(&emit_program(graph, schedule, opts));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;

    fn sample_graph() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1.0f32);
        });
        let mut f = FilterBuilder::new("scale", 2, 2, 2, ScalarTy::F32);
        let a = f.local("a", Ty::Scalar(ScalarTy::F32));
        f.work(|b| {
            b.set(a, pop());
            b.push(v(a) * 2.0f32);
            b.push(v(a) + pop());
        });
        StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap()
    }

    #[test]
    fn mangled_names_are_escaped_prefixed_and_unique() {
        let mut m = Mangler::new();
        assert_eq!(m.fresh("a-b c"), "a_2d_b_20_c");
        assert_eq!(m.fresh("1fdct_1quant_v4"), "n_1fdct_1quant_v4");
        assert_eq!(m.fresh("int"), "int_2", "keywords are reserved");
        assert_eq!(m.fresh("band"), "band");
        assert_eq!(m.fresh("band"), "band_2");
        assert_eq!(m.fresh("band"), "band_3");
        assert_eq!(m.fresh(""), "n_");
    }

    #[test]
    fn emits_complete_program() {
        let g = sample_graph();
        let sched = Schedule::compute(&g).unwrap();
        let code = emit_program(&g, &sched, &CodegenOptions::default());
        assert!(code.contains("#include <smmintrin.h>"));
        assert!(code.contains("struct src"));
        assert!(code.contains("struct scale"));
        assert!(code.contains("int main()"));
        assert!(code.contains("steady state (Figure 1b)"));
        assert!(code.contains("in.pop()"));
        assert!(code.contains("out.push("));
    }

    #[test]
    fn vectorized_actor_uses_intrinsics() {
        use macross::driver::{macro_simdize, SimdizeOptions};
        use macross_vm::Machine;
        let g = sample_graph();
        let simd = macro_simdize(&g, &Machine::core_i7(), &SimdizeOptions::all()).unwrap();
        let code = emit_program(&simd.graph, &simd.schedule, &CodegenOptions::default());
        assert!(code.contains("__m128"), "vector type expected:\n{code}");
        assert!(
            code.contains("v_mul_ps") || code.contains("v_add_ps"),
            "vector arithmetic expected"
        );
        assert!(
            code.contains("in.peek(")
                || code.contains("vpop4(")
                || code.contains("v_extract_even_ps"),
            "vector tape access expected"
        );
    }

    #[test]
    fn generic_target_avoids_sse() {
        let g = sample_graph();
        let sched = Schedule::compute(&g).unwrap();
        let code = emit_program(
            &g,
            &sched,
            &CodegenOptions {
                target: CxxTarget::Generic,
                sw: 8,
            },
        );
        assert!(!code.contains("smmintrin"));
        assert!(code.contains("template <typename T, int W> struct vec"));
    }

    #[test]
    fn strided_reads_appear_in_simdized_code() {
        use macross::single::{simdize_single_actor, SingleActorConfig};
        let mut f = FilterBuilder::new("D", 2, 2, 2, ScalarTy::F32);
        let a = f.local("a", Ty::Scalar(ScalarTy::F32));
        f.work(|b| {
            b.set(a, pop());
            b.push(v(a) * 0.5f32);
            b.push(v(a) + pop());
        });
        let dv = simdize_single_actor(
            &f.build(),
            &SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32),
        )
        .unwrap();
        let code = emit_filter(&dv, &CodegenOptions::default());
        assert!(code.contains("in.peek(6)"), "stride-2 lane reads:\n{code}");
        assert!(code.contains("out.rpush("));
        assert!(code.contains("in.advance_read(6);"));
        assert!(code.contains("set_lane<3>"));
    }

    /// Two stateless actors in a row behind a stateful source: the
    /// driver fuses them vertically before SIMDizing.
    fn chain_graph() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1.0f32);
        });
        let stage = |name: &str, k: f32| {
            let mut f = FilterBuilder::new(name, 1, 1, 1, ScalarTy::F32);
            f.work(move |b| {
                b.push(pop() * k + 0.25f32);
            });
            f.build_spec()
        };
        StreamSpec::pipeline(vec![
            src.build_spec(),
            stage("scale", 1.5),
            stage("poly", 0.5),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap()
    }

    #[test]
    fn report_header_documents_fusion_and_prefixes_the_program() {
        use macross::driver::{macro_simdize, SimdizeOptions};
        use macross_vm::Machine;
        let g = chain_graph();
        let simd = macro_simdize(&g, &Machine::core_i7(), &SimdizeOptions::all()).unwrap();
        let opts = CodegenOptions::default();
        let code = emit_program_with_report(&simd.graph, &simd.schedule, &opts, &simd.report);
        assert!(code.starts_with("// ="), "header must lead the unit");
        assert!(code.contains("Macro-SIMDization report"));
        assert!(code.contains(&format!(
            "Equation-1 schedule scale factor: {}",
            simd.report.scale_factor
        )));
        assert!(
            code.contains("// Vertically fused chains:\n//   - scale -> poly\n"),
            "the vertical chain is documented:\n{code}"
        );
        // The header is strictly additive: everything after it is the
        // plain emit_program output, byte for byte.
        let plain = emit_program(&simd.graph, &simd.schedule, &opts);
        assert!(code.ends_with(&plain));
    }

    #[test]
    fn report_header_on_scalar_graph_lists_no_transforms() {
        let header = emit_report_header(&SimdizeReport::default());
        for section in [
            "Single-actor SIMDized: (none)",
            "Region-SIMDized: (none)",
            "Vertically fused chains: (none)",
            "Horizontally merged groups: (none)",
            "Skipped as unprofitable: (none)",
        ] {
            assert!(header.contains(section), "{section}:\n{header}");
        }
    }

    #[test]
    fn init_schedule_emitted_before_steady() {
        let g = sample_graph();
        let sched = Schedule::compute(&g).unwrap();
        let code = emit_program(&g, &sched, &CodegenOptions::default());
        let init_pos = code.find("initialization schedule").unwrap();
        let steady_pos = code.find("steady state").unwrap();
        assert!(init_pos < steady_pos);
    }

    #[test]
    fn region_layout_comment_emitted() {
        use macross::simdize_region_actor;
        use macross::single::SingleActorConfig;
        let mut fb = FilterBuilder::new("bank", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", 8);
        let y = fb.region_var("y", ScalarTy::F32);
        let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
        fb.init(|b| {
            b.for_(j, 8, |b| {
                b.set_idx(y, v(j), cast(ScalarTy::F32, v(j)) * 0.125f32);
            });
        });
        fb.work(|b| {
            b.set_idx(y, v(cur), idx(y, v(cur)) * 0.5f32 + pop() * 0.5f32);
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(8i32));
        });
        let scalar = fb.build();
        let opts = CodegenOptions::default();
        let scalar_code = emit_filter(&scalar, &opts);
        assert!(
            scalar_code.contains("region state: 8 independent regions, cursor cur, arrays [y]"),
            "scalar layout comment missing:\n{scalar_code}"
        );
        let cfg = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        let vf = simdize_region_actor(&scalar, &cfg).unwrap();
        let code = emit_filter(&vf, &opts);
        assert!(
            code.contains("region state: 2 panel(s) x 4 lane(s) (lane l of panel j = region j*4+l), cursor cur, arrays [y]"),
            "panel layout comment missing:\n{code}"
        );
    }
}
