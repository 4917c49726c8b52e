//! # macross-codegen
//!
//! Intermediate C++ code generation — the final phase of Algorithm 1
//! ("MacroSS maps the internal stream representation to the target
//! specific code (C++ in this case) and uses available
//! architecture-dependent intrinsics").
//!
//! The emitter produces one self-contained translation unit per program:
//! the fixed prelude `prelude.hpp` pasted verbatim (SSE4.2 wrappers,
//! scalar intrinsics in the VM's rounding domains, integer division and
//! shifts with the VM's meaning where C++ has none, the tape class,
//! splitters, joiners and the sink), one struct per actor, and a `main`
//! that runs the initialization phase and then `argv[1]` iterations of
//! the Figure-1b steady state. Each sink writes every token's 8-byte
//! register image (`macross_vm::tape::raw_of`) to stdout.
//!
//! A scalar unit is a compilation path: `tests/codegen_emit.rs` builds
//! every program's unit with the command the prelude's first line gives
//! (plus `-Wall -Werror` and UBSan) and requires its stdout to equal the
//! tree-walk oracle's output bit for bit. A SIMDized unit is still a
//! document, pinned by digest: its vector tape operations are not in
//! the prelude yet.
//!
//! ## Report-driven headers
//!
//! [`emit_program_with_report`] prefixes [`emit_program`]'s output with
//! a comment block rendering the [`macross::SimdizeReport`] that produced
//! the graph — the Equation-1 schedule scale factor, single-actor
//! SIMDizations, vertically fused chains, horizontally merged groups,
//! actors skipped as unprofitable, and the tape-access mode chosen per
//! vectorized actor — so a reader can audit the macro-SIMDization of a
//! program from the header alone. The header is strictly additive: the
//! program text after it is [`emit_program`]'s, byte for byte.

use macross::{ActorDecision, SimdizeReport};
use macross_sdf::{buffer_requirements, Schedule};
use macross_streamir::expr::{BinOp, Expr, LValue, UnOp, VarId};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::graph::{EdgeId, Graph, Node, SplitKind};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{ScalarTy, Ty, Value};
use std::collections::HashSet;
use std::fmt::Write;

/// C++ keywords and the names the prelude and `main` declare: no emitted
/// name may take one.
const RESERVED: &str = "\
    auto bool break case char class const continue default delete do double \
    else enum extern false float for if inline int long namespace new \
    operator private public return short signed sizeof static struct switch \
    template this true typedef typename union unsigned using virtual void \
    volatile while main argc argv iters it r std size_t int32_t int64_t Tape \
    m128d_pair m128i_pair In Out in out init work NilTape nil_tape split_dup \
    split_rr join_rr move_tokens hsplit hjoin sink_consume write_image s_sin \
    s_cos s_atan s_sqrt s_exp s_log s_floor s_pow s_abs s_min s_max s_div s_rem \
    s_shl s_shr";

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
            taken: RESERVED.split_whitespace().map(str::to_string).collect(),
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

fn scalar_cxx(t: ScalarTy) -> &'static str {
    match t {
        ScalarTy::I32 => "int32_t",
        ScalarTy::I64 => "int64_t",
        ScalarTy::F32 => "float",
        ScalarTy::F64 => "double",
    }
}

/// The prelude's type for a vector of `w` lanes of `t`.
///
/// # Panics
/// Panics unless `w` is 4, the one width the prelude defines types for
/// (SSE4.2's): no unit names a type nothing defines.
fn vector_cxx(t: ScalarTy, w: usize) -> &'static str {
    assert!(w == 4, "the C++ prelude has no vector type of {w} lanes");
    match t {
        ScalarTy::F32 => "__m128",
        ScalarTy::I32 => "__m128i",
        ScalarTy::F64 => "m128d_pair",
        ScalarTy::I64 => "m128i_pair",
    }
}

/// The prelude's wrapper `v_<prefix>` for vectors of `t`, e.g.
/// `v_add_ps` / `v_add_epi32` over the raw intrinsics, so emitted
/// expressions stay readable.
fn vop(prefix: &str, t: ScalarTy) -> String {
    let suffix = match t {
        ScalarTy::F32 => "_ps",
        ScalarTy::I32 => "_epi32",
        ScalarTy::F64 => "_pd2",
        ScalarTy::I64 => "_epi64x",
    };
    format!("v_{prefix}{suffix}")
}

/// A literal of `v`'s C++ type that reads back bit for bit (a NaN keeps
/// no payload). A negative one is parenthesized, so `-` before it never
/// makes `--`.
fn const_cxx(v: Value) -> String {
    let sign = if v.as_f64() < 0.0 { "-" } else { "" };
    let text = match v {
        Value::I32(i32::MIN) => "-2147483647 - 1".into(),
        Value::I64(i64::MIN) => "-9223372036854775807L - 1".into(),
        Value::F32(x) if x.is_nan() => "NAN".into(),
        Value::F64(x) if x.is_nan() => "NAN".into(),
        Value::F32(x) if x.is_infinite() => format!("{sign}HUGE_VALF"),
        Value::F64(x) if x.is_infinite() => format!("{sign}HUGE_VAL"),
        v => v.to_string(),
    };
    if text.starts_with('-') {
        format!("({text})")
    } else {
        text
    }
}

/// The fixed prelude: includes, vector wrappers, the scalar intrinsics,
/// the tape class, splitters, joiners and the sink.
const PRELUDE: &str = include_str!("prelude.hpp");

struct Emitter<'a> {
    filter: &'a Filter,
    out: String,
    indent: usize,
    /// Counted loops open around the statement being emitted.
    loops: usize,
    /// Variable identifiers, indexed by `VarId`.
    var_names: Vec<String>,
    /// Member identifiers, indexed by `ChanId`.
    chan_names: Vec<String>,
    /// The tape and channel reads of the statement being emitted that
    /// were read into locals first, each with its local's name.
    hoisted: Vec<(*const Expr, String)>,
    /// Locals of hoisted reads named so far (`rd0`, `rd1`, ...).
    reads: usize,
}

impl<'a> Emitter<'a> {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// A method body: the locals it names, zeroed as the VM zeroes them
    /// before every firing, then its statements. A local the body writes
    /// and never reads is declared `[[maybe_unused]]`.
    fn body(&mut self, stmts: &[Stmt]) {
        self.indent += 1;
        let mut read = vec![false; self.filter.vars.len()];
        let mut written = read.clone();
        for s in stmts {
            s.walk(&mut |s| match s {
                Stmt::Assign(lv, _) => written[lv.var().0 as usize] = true,
                Stmt::For { var, .. } => written[var.0 as usize] = true,
                _ => {}
            });
            s.walk_exprs(&mut |e| {
                if let Expr::Var(v) | Expr::Index(v, _) | Expr::VIndex(v, _, _) = e {
                    read[v.0 as usize] = true;
                }
            });
        }
        for (idx, v) in self.filter.vars.iter().enumerate() {
            let decl = declaration(v.ty, &self.var_names[idx]);
            match v.kind {
                VarKind::Local if read[idx] => self.line(&format!("{decl}{{}};")),
                VarKind::Local if written[idx] => {
                    self.line(&format!("[[maybe_unused]] {decl}{{}};"))
                }
                _ => {}
            }
        }
        for s in stmts {
            self.stmt(s);
        }
        self.indent -= 1;
    }

    fn var_name(&self, v: VarId) -> String {
        self.var_names[v.0 as usize].clone()
    }

    fn chan_name(&self, c: macross_streamir::expr::ChanId) -> String {
        self.chan_names[c.0 as usize].clone()
    }

    fn expr(&self, e: &Expr) -> String {
        if let Some((_, name)) = self.hoisted.iter().find(|(at, _)| std::ptr::eq(*at, e)) {
            return name.clone();
        }
        match e {
            Expr::Const(v) => const_cxx(*v),
            Expr::ConstVec(vs) => {
                let elems: Vec<String> = vs.iter().map(|&v| const_cxx(v)).collect();
                format!("{}({})", vop("set", vs[0].ty()), elems.join(", "))
            }
            Expr::Var(v) => self.var_name(*v),
            Expr::Index(v, i) => format!("{}[{}]", self.var_name(*v), self.expr(i)),
            Expr::VIndex(v, i, _) => {
                format!(
                    "{}(&{}[{}])",
                    vop("load", elem_of(self.filter, *v)),
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
                        vop(binop_name(*op), t),
                        self.expr(a),
                        self.expr(b)
                    )
                } else if let BinOp::Div | BinOp::Rem | BinOp::Shl | BinOp::Shr = op {
                    // C++ leaves these undefined where the VM defines
                    // them; the prelude's `s_` forms follow the VM.
                    format!("s_{}({}, {})", binop_name(*op), self.expr(a), self.expr(b))
                } else {
                    format!("({} {} {})", self.expr(a), op.symbol(), self.expr(b))
                }
            }
            Expr::Call(i, args) => {
                let args_s: Vec<String> = args.iter().map(|a| self.expr(a)).collect();
                let prefix = if args.iter().any(|a| self.is_vec(a)) {
                    "v"
                } else {
                    "s"
                };
                format!("{prefix}_{}({})", i.name(), args_s.join(", "))
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
                let t = self.vec_elem(a).unwrap_or(ScalarTy::F32);
                format!("{}({})", vop("splat", t), self.expr(a))
            }
            Expr::PermuteEven(a, b) => {
                let t = self.vec_elem(a).unwrap_or(ScalarTy::F32);
                format!(
                    "{}({}, {})",
                    vop("extract_even", t),
                    self.expr(a),
                    self.expr(b)
                )
            }
            Expr::PermuteOdd(a, b) => {
                let t = self.vec_elem(a).unwrap_or(ScalarTy::F32);
                format!(
                    "{}({}, {})",
                    vop("extract_odd", t),
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

    /// C++ leaves the order of a binary operator's operands and of a
    /// call's arguments unspecified, so a statement that reads a tape or
    /// channel twice or more, popping at least once, reads each into a
    /// local first, in the order the VM evaluates them: the value before
    /// an assignment's subscript, left to right, operands before the read
    /// that takes them.
    fn hoist_reads(&mut self, s: &Stmt) {
        let own: Vec<&Expr> = match s {
            Stmt::Assign(lv, e) => match lv {
                LValue::Index(_, i) | LValue::LaneIndex(_, i, _) | LValue::VIndex(_, i, _) => {
                    vec![e, i]
                }
                LValue::Var(_) | LValue::LaneVar(..) => vec![e],
            },
            Stmt::RPush { value, offset } => vec![value, offset],
            Stmt::Push(e)
            | Stmt::LPush(_, e)
            | Stmt::LVPush(_, e, _)
            | Stmt::VPush { value: e, .. }
            | Stmt::For { count: e, .. }
            | Stmt::If { cond: e, .. } => vec![e],
            Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => vec![],
        };
        let mut reads = Vec::new();
        for e in own {
            collect_reads(e, &mut reads);
        }
        let pops = reads.iter().any(|e| {
            matches!(
                e,
                Expr::Pop | Expr::VPop { .. } | Expr::LPop(_) | Expr::LVPop(..)
            )
        });
        if reads.len() < 2 || !pops {
            return;
        }
        for e in reads {
            let (name, text) = (format!("rd{}", self.reads), self.expr(e));
            self.reads += 1;
            self.line(&format!("auto {name} = {text};"));
            self.hoisted.push((e, name));
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        self.hoisted.clear();
        self.hoist_reads(s);
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
                            vop("store", t),
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
                // As the VM runs it: the trip count is read once, and the
                // variable is set from a counter of its own each trip.
                let (k, n) = (format!("k{}", self.loops), format!("n{}", self.loops));
                let text = format!(
                    "for (int32_t {k} = 0, {n} = {}; {k} < {n}; ++{k}) {{",
                    self.expr(count)
                );
                self.line(&text);
                self.indent += 1;
                self.loops += 1;
                let text = format!("{} = {k};", self.var_name(*var));
                self.line(&text);
                for s in body {
                    self.stmt(s);
                }
                self.loops -= 1;
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

/// The tape and channel reads of `e`, in the order the VM evaluates
/// them: depth first, left to right, a read after its offset.
fn collect_reads<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Const(_) | Expr::ConstVec(_) | Expr::Var(_) => {}
        Expr::Pop | Expr::VPop { .. } | Expr::LPop(_) | Expr::LVPop(..) => out.push(e),
        Expr::Peek(off) | Expr::VPeek { offset: off, .. } => {
            collect_reads(off, out);
            out.push(e);
        }
        Expr::Index(_, a)
        | Expr::VIndex(_, a, _)
        | Expr::Unary(_, a)
        | Expr::Cast(_, a)
        | Expr::Lane(a, _)
        | Expr::Splat(a, _) => collect_reads(a, out),
        Expr::Binary(_, a, b) | Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
            collect_reads(a, out);
            collect_reads(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                collect_reads(a, out);
            }
        }
    }
}

/// The C++ declaration of a variable `name` of type `ty`.
fn declaration(ty: Ty, name: &str) -> String {
    match ty {
        Ty::Scalar(t) => format!("{} {name}", scalar_cxx(t)),
        Ty::Vector(t, w) => format!("{} {name}", vector_cxx(t, w)),
        Ty::Array(t, n) => format!("{} {name}[{n}]", scalar_cxx(t)),
        Ty::VectorArray(t, w, n) => format!("{} {name}[{n}]", vector_cxx(t, w)),
    }
}

fn elem_of(f: &Filter, v: VarId) -> ScalarTy {
    f.vars[v.0 as usize].ty.elem()
}

fn binop_name(op: BinOp) -> &'static str {
    use BinOp::*;
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

/// Emit one filter as a C++ struct with `init`/`work` methods.
///
/// # Panics
/// Panics as [`emit_program`] does, on a vector of other than 4 lanes.
pub fn emit_filter(filter: &Filter) -> String {
    emit_struct(filter, &Mangler::new().fresh(&filter.name))
}

/// [`emit_filter`] under the struct name `cname`. State variables and
/// channels are members, locals are declared in the bodies that name
/// them; each is named after its declaration, suffixed with its id to
/// keep the duplicates fusion renaming leaves apart.
fn emit_struct(filter: &Filter, cname: &str) -> String {
    let mut members = Mangler::new();
    let var_names = (filter.vars.iter().enumerate())
        .map(|(idx, v)| members.fresh(&format!("{}_{idx}", v.name)))
        .collect();
    let chan_names = (filter.chans.iter().enumerate())
        .map(|(idx, c)| members.fresh(&format!("{}_{idx}", c.name)))
        .collect();
    let mut e = Emitter {
        filter,
        out: String::new(),
        indent: 0,
        loops: 0,
        var_names,
        chan_names,
        hoisted: Vec::new(),
        reads: 0,
    };
    e.line(&format!(
        "// actor {} (peek={}, pop={}, push={})",
        filter.name, filter.peek, filter.pop, filter.push
    ));
    if let Some(spec) = &filter.region {
        let names: Vec<String> = spec
            .vars
            .iter()
            .map(|v| filter.var(*v).name.to_string())
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
        if v.kind == VarKind::State {
            let decl = declaration(v.ty, &e.var_names[idx]);
            e.line(&format!("{decl}; // state"));
        }
    }
    for (idx, c) in filter.chans.iter().enumerate() {
        let ty = match c.ty {
            Ty::Scalar(t) => format!("Tape<{}>", scalar_cxx(t)),
            Ty::Vector(t, w) => format!("Tape<{}>", vector_cxx(t, w)),
            _ => unreachable!("channels are scalar or vector"),
        };
        e.line(&format!("{ty} {}; // internal buffer", e.chan_names[idx]));
    }
    e.line("");
    e.line("void init() {");
    e.body(&filter.init);
    e.line("}");
    e.line("");
    e.line("template <typename In, typename Out> void work(In& in, Out& out) {");
    e.body(&filter.work);
    e.line("}");
    e.indent -= 1;
    e.line("};");
    e.out
}

/// The tapes `ids` name, comma-separated.
fn tapes(ids: &[EdgeId]) -> String {
    let names: Vec<String> = ids.iter().map(|e| format!("tape{}", e.0)).collect();
    names.join(", ")
}

/// Emit a complete program: prelude, all actors, tapes, and the Figure-1b
/// main loop (initialization firings, then `argv[1]` steady iterations).
/// With one sink, as every suite program has, stdout holds exactly the
/// images of the VM's `output`; several sinks interleave their tokens in
/// firing order, where the VM lists each sink's apart.
///
/// # Panics
/// Panics if an actor holds a vector of other than 4 lanes: the prelude
/// has types for SSE4.2's width alone.
pub fn emit_program(graph: &Graph, schedule: &Schedule) -> String {
    let mut s = PRELUDE.to_string();
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
            s.push_str(&emit_struct(f, &cname));
            s.push('\n');
            struct_names[id.0 as usize] = cname;
        }
    }
    s.push_str(
        "int main(int argc, char** argv) {\n  \
         if (argc != 2) {\n    \
         std::fprintf(stderr, \"usage: %s <steady iterations>\\n\", argv[0]);\n    \
         return 2;\n  \
         }\n  \
         const long iters = std::atol(argv[1]);\n",
    );
    // Each tape holds its steady-state peak, or the initialization
    // phase's where that is higher (every initialization firing of the
    // producer runs before the consumer's); a push past it fails the
    // tape's assertion.
    let bufs = buffer_requirements(graph, schedule);
    for (id, e) in graph.edges() {
        let init_peak =
            schedule.init_reps[e.src.0 as usize] * graph.node(e.src).push_rate(e.src_port) as u64;
        let cap = bufs[id.0 as usize].capacity.max(init_peak);
        let _ = writeln!(s, "  Tape<{}> tape{}({cap});", scalar_cxx(e.elem), id.0);
    }
    // Actor instances, value-initialized as the VM zeroes every variable
    // (the elaborated `struct` keeps a name `<cmath>` declares, such as
    // `exp2`, a type), then their `init`.
    for (id, node) in graph.nodes() {
        if let Node::Filter(_) = node {
            let cname = &struct_names[id.0 as usize];
            let _ = writeln!(
                s,
                "  struct {cname} actor{}{{}}; actor{}.init();",
                id.0, id.0
            );
        }
    }
    let emit_phase = |s: &mut String, reps: &[u64], label: &str| {
        let _ = writeln!(s, "  // ---- {label} ----");
        for &id in &schedule.order {
            let rep = reps[id.0 as usize];
            if rep == 0 {
                continue;
            }
            let (ins, outs) = (graph.in_edges(id), graph.out_edges(id));
            let port = |edges: &[EdgeId]| match edges.first() {
                Some(e) => format!("tape{}", e.0),
                None => "nil_tape".into(),
            };
            let weights = |w: &[usize]| {
                let w: Vec<String> = w.iter().map(usize::to_string).collect();
                w.join(", ")
            };
            let firing = match graph.node(id) {
                Node::Filter(_) => format!("actor{}.work({}, {})", id.0, port(&ins), port(&outs)),
                Node::Splitter(SplitKind::Duplicate) => {
                    format!("split_dup({}, {})", port(&ins), tapes(&outs))
                }
                Node::Splitter(SplitKind::RoundRobin(w)) => {
                    format!("split_rr<{}>({}, {})", weights(w), port(&ins), tapes(&outs))
                }
                Node::Joiner(w) => {
                    format!("join_rr<{}>({}, {})", weights(w), port(&outs), tapes(&ins))
                }
                Node::HSplitter { width, .. } => {
                    format!("hsplit<{width}>({}, {})", port(&ins), tapes(&outs))
                }
                Node::HJoiner { width, .. } => {
                    format!("hjoin<{width}>({}, {})", port(&outs), tapes(&ins))
                }
                Node::Sink => format!("sink_consume({})", port(&ins)),
            };
            let _ = writeln!(s, "  for (int r = 0; r < {rep}; ++r) {firing};");
        }
    };
    emit_phase(&mut s, &schedule.init_reps, "initialization schedule");
    s.push_str("  for (long it = 0; it < iters; ++it) { // steady state (Figure 1b)\n");
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
    report: &SimdizeReport,
) -> String {
    let mut s = emit_report_header(report);
    s.push_str(&emit_program(graph, schedule));
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
        // `<cmath>` declares `::exp2`; `main` declares each actor with an
        // elaborated `struct exp2`, so the name needs no escape.
        assert_eq!(m.fresh("exp2"), "exp2");
        assert_eq!(m.fresh("s_sin"), "s_sin_2", "prelude names are reserved");
    }

    #[test]
    fn literals_read_back_in_their_own_type() {
        let cases = [
            (Value::I32(7), "7"),
            (Value::I32(-7), "(-7)"),
            (Value::I32(i32::MIN), "(-2147483647 - 1)"),
            (Value::I64(i64::MIN), "(-9223372036854775807L - 1)"),
            (Value::F32(0.1), "0.1f"),
            (Value::F32(-0.0), "(-0.0f)"),
            (Value::F64(1e300), "1e300"),
            (Value::F32(f32::NEG_INFINITY), "(-HUGE_VALF)"),
        ];
        for (v, text) in cases {
            assert_eq!(const_cxx(v), text, "{v:?}");
        }
    }

    #[test]
    fn vectorized_actor_uses_intrinsics() {
        use macross::driver::{macro_simdize, SimdizeOptions};
        use macross_vm::Machine;
        let g = sample_graph();
        let simd = macro_simdize(&g, &Machine::core_i7(), &SimdizeOptions::all()).unwrap();
        let code = emit_program(&simd.graph, &simd.schedule);
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
        let code = emit_filter(&dv);
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
        let code = emit_program_with_report(&simd.graph, &simd.schedule, &simd.report);
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
        let plain = emit_program(&simd.graph, &simd.schedule);
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
        let scalar_code = emit_filter(&scalar);
        assert!(
            scalar_code.contains("region state: 8 independent regions, cursor cur, arrays [y]"),
            "scalar layout comment missing:\n{scalar_code}"
        );
        let cfg = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        let vf = simdize_region_actor(&scalar, &cfg).unwrap();
        let code = emit_filter(&vf);
        assert!(
            code.contains("region state: 2 panel(s) x 4 lane(s) (lane l of panel j = region j*4+l), cursor cur, arrays [y]"),
            "panel layout comment missing:\n{code}"
        );
    }
}
