//! Expression AST of actor `work`/`init` functions, plus constant evaluation.

use crate::types::{ScalarTy, Value};
use std::fmt;

/// Identifies a variable declared in a [`crate::filter::Filter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Identifies an internal FIFO channel of a (fused) filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChanId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for ChanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Binary operators. Comparisons yield `i32` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// True for the comparison operators (result type is `i32`).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for the integer-only bitwise/shift operators.
    pub fn is_integer_only(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        )
    }

    /// C-style spelling (used by the code generator and `Display`).
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement (integers only).
    Not,
    /// Logical not: yields `i32` 1 if the operand is zero, else 0.
    LogNot,
}

/// Math intrinsics available inside work functions.
///
/// Whether a given intrinsic is supported by the target SIMD engine is part
/// of the machine description; actors calling unsupported intrinsics are not
/// SIMDizable (Section 3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Intrinsic {
    Sin,
    Cos,
    Atan,
    Sqrt,
    Exp,
    Log,
    Floor,
    Abs,
    Min,
    Max,
    Pow,
}

impl Intrinsic {
    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Min | Intrinsic::Max | Intrinsic::Pow => 2,
            _ => 1,
        }
    }

    /// Lower-case C-style name.
    pub fn name(self) -> &'static str {
        match self {
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
}

/// Expression nodes.
///
/// The same AST expresses scalar and vectorized code: the macro-SIMDizer
/// rewrites scalar trees into trees that use the vector constructs
/// ([`Expr::ConstVec`], [`Expr::Splat`], [`Expr::Lane`], the `V*` tape reads
/// and the permutation primitives).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Scalar literal.
    Const(Value),
    /// Vector literal, one value per lane (e.g. horizontal-SIMDized
    /// constants `{5, 6, 7, 8}` of Figure 6b).
    ConstVec(Vec<Value>),
    /// Read a scalar or vector variable.
    Var(VarId),
    /// Read an element of an array (or vector-array) variable.
    Index(VarId, Box<Expr>),
    /// Vector load of `width` consecutive elements of a *scalar* array
    /// starting at the given index (produced by the baseline loop
    /// auto-vectorizer for unit-stride array reads).
    VIndex(VarId, Box<Expr>, usize),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation (element-wise on vectors).
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Intrinsic call (element-wise on vectors).
    Call(Intrinsic, Vec<Expr>),
    /// Type cast (element-wise on vectors).
    Cast(ScalarTy, Box<Expr>),
    /// Destructive scalar read from the input tape.
    Pop,
    /// Non-destructive scalar read at `offset` elements past the read pointer.
    Peek(Box<Expr>),
    /// Destructive vector read: `width` consecutive scalars from the input
    /// tape as one vector (advances the read pointer by `width`).
    VPop { width: usize },
    /// Non-destructive vector read at scalar `offset` past the read pointer.
    VPeek { offset: Box<Expr>, width: usize },
    /// Destructive scalar read from an internal channel of a fused actor.
    LPop(ChanId),
    /// Destructive vector read from an internal channel of a fused actor.
    LVPop(ChanId, usize),
    /// Extract one lane of a vector as a scalar.
    Lane(Box<Expr>, usize),
    /// Broadcast a scalar to all `width` lanes.
    Splat(Box<Expr>, usize),
    /// `extract_even(v1, v2)`: even-position elements of the concatenation.
    PermuteEven(Box<Expr>, Box<Expr>),
    /// `extract_odd(v1, v2)`: odd-position elements of the concatenation.
    PermuteOdd(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// True if the expression or any sub-expression reads the input tape.
    pub fn reads_tape(&self) -> bool {
        self.any(&mut |e| {
            matches!(
                e,
                Expr::Pop | Expr::Peek(_) | Expr::VPop { .. } | Expr::VPeek { .. }
            )
        })
    }

    /// Does `hit` hold for this expression or a sub-expression? Visits in
    /// pre-order, as [`Expr::walk`] does, and stops at the first hit.
    pub fn any(&self, hit: &mut impl FnMut(&Expr) -> bool) -> bool {
        if hit(self) {
            return true;
        }
        match self {
            Expr::Const(_)
            | Expr::ConstVec(_)
            | Expr::Var(_)
            | Expr::Pop
            | Expr::LPop(_)
            | Expr::LVPop(_, _)
            | Expr::VPop { .. } => false,
            Expr::Index(_, e)
            | Expr::VIndex(_, e, _)
            | Expr::Unary(_, e)
            | Expr::Cast(_, e)
            | Expr::Peek(e)
            | Expr::Lane(e, _)
            | Expr::Splat(e, _) => e.any(hit),
            Expr::VPeek { offset, .. } => offset.any(hit),
            Expr::Binary(_, a, b) | Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
                a.any(hit) || b.any(hit)
            }
            Expr::Call(_, args) => args.iter().any(|a| a.any(hit)),
        }
    }

    /// Pre-order walk over this expression tree.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_)
            | Expr::ConstVec(_)
            | Expr::Var(_)
            | Expr::Pop
            | Expr::LPop(_)
            | Expr::LVPop(_, _)
            | Expr::VPop { .. } => {}
            Expr::Index(_, e)
            | Expr::VIndex(_, e, _)
            | Expr::Unary(_, e)
            | Expr::Cast(_, e)
            | Expr::Peek(e)
            | Expr::Lane(e, _)
            | Expr::Splat(e, _) => e.walk(f),
            Expr::VPeek { offset, .. } => offset.walk(f),
            Expr::Binary(_, a, b) | Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// If this expression is a compile-time integer constant, return it.
    pub fn as_const_usize(&self) -> Option<usize> {
        match self {
            Expr::Const(Value::I32(v)) if *v >= 0 => Some(*v as usize),
            Expr::Const(Value::I64(v)) if *v >= 0 => Some(*v as usize),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::ConstVec(vs) => {
                write!(f, "{{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Index(v, i) => write!(f, "{v}[{i}]"),
            Expr::VIndex(v, i, w) => write!(f, "{v}.vload{w}({i})"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(~{e})"),
            Expr::Unary(UnOp::LogNot, e) => write!(f, "(!{e})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Call(i, args) => {
                write!(f, "{}(", i.name())?;
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Cast(t, e) => write!(f, "({t}){e}"),
            Expr::Pop => write!(f, "pop()"),
            Expr::Peek(e) => write!(f, "peek({e})"),
            Expr::VPop { width } => write!(f, "vpop{width}()"),
            Expr::VPeek { offset, width } => write!(f, "vpeek{width}({offset})"),
            Expr::LPop(c) => write!(f, "{c}.pop()"),
            Expr::LVPop(c, w) => write!(f, "{c}.vpop{w}()"),
            Expr::Lane(e, l) => write!(f, "{e}.{{{l}}}"),
            Expr::Splat(e, w) => write!(f, "splat{w}({e})"),
            Expr::PermuteEven(a, b) => write!(f, "extract_even({a}, {b})"),
            Expr::PermuteOdd(a, b) => write!(f, "extract_odd({a}, {b})"),
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Whole variable.
    Var(VarId),
    /// Element of an array variable.
    Index(VarId, Expr),
    /// One lane of a vector variable (`t_v.{3} = ...`).
    LaneVar(VarId, usize),
    /// One lane of a vector-array element.
    LaneIndex(VarId, Expr, usize),
    /// Vector store of `width` consecutive elements into a scalar array
    /// starting at the given index (auto-vectorizer unit-stride writes).
    VIndex(VarId, Expr, usize),
}

impl LValue {
    /// The variable being written.
    pub fn var(&self) -> VarId {
        match self {
            LValue::Var(v)
            | LValue::Index(v, _)
            | LValue::LaneVar(v, _)
            | LValue::LaneIndex(v, _, _)
            | LValue::VIndex(v, _, _) => *v,
        }
    }
}

impl fmt::Display for LValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LValue::Var(v) => write!(f, "{v}"),
            LValue::Index(v, e) => write!(f, "{v}[{e}]"),
            LValue::LaneVar(v, l) => write!(f, "{v}.{{{l}}}"),
            LValue::LaneIndex(v, e, l) => write!(f, "{v}[{e}].{{{l}}}"),
            LValue::VIndex(v, e, w) => write!(f, "{v}.vstore{w}({e})"),
        }
    }
}

/// Evaluate a binary operation on two scalar values.
///
/// Both operands must have the same type (the validator enforces this);
/// comparisons return `i32` 0/1. Integer arithmetic wraps; integer division
/// and remainder by zero yield 0; shift counts are masked to the bit width.
pub fn eval_binop(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    use Value::*;
    if op.is_comparison() {
        let r = match (a, b) {
            (I32(x), I32(y)) => cmp(op, x.cmp(&y)),
            (I64(x), I64(y)) => cmp(op, x.cmp(&y)),
            (F32(x), F32(y)) => fcmp(op, x as f64, y as f64),
            (F64(x), F64(y)) => fcmp(op, x, y),
            _ => panic!("type mismatch in comparison: {a:?} vs {b:?}"),
        };
        return I32(r as i32);
    }
    match (a, b) {
        (I32(x), I32(y)) => I32(match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            Rem => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_rem(y)
                }
            }
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            Shl => x.wrapping_shl(y as u32),
            Shr => x.wrapping_shr(y as u32),
            _ => unreachable!(),
        }),
        (I64(x), I64(y)) => I64(match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            Rem => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_rem(y)
                }
            }
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            Shl => x.wrapping_shl(y as u32),
            Shr => x.wrapping_shr(y as u32),
            _ => unreachable!(),
        }),
        (F32(x), F32(y)) => F32(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Rem => x % y,
            _ => panic!("integer-only operator {op:?} on f32"),
        }),
        (F64(x), F64(y)) => F64(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Rem => x % y,
            _ => panic!("integer-only operator {op:?} on f64"),
        }),
        _ => panic!("type mismatch in {op:?}: {a:?} vs {b:?}"),
    }
}

fn cmp(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!(),
    }
}

fn fcmp(op: BinOp, x: f64, y: f64) -> bool {
    match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => unreachable!(),
    }
}

/// Evaluate a unary operation.
pub fn eval_unop(op: UnOp, a: Value) -> Value {
    use Value::*;
    match op {
        UnOp::Neg => match a {
            I32(x) => I32(x.wrapping_neg()),
            I64(x) => I64(x.wrapping_neg()),
            F32(x) => F32(-x),
            F64(x) => F64(-x),
        },
        UnOp::Not => match a {
            I32(x) => I32(!x),
            I64(x) => I64(!x),
            _ => panic!("bitwise not on float"),
        },
        UnOp::LogNot => I32(if a.is_truthy() { 0 } else { 1 }),
    }
}

/// Evaluate an intrinsic on scalar arguments.
pub fn eval_intrinsic(i: Intrinsic, args: &[Value]) -> Value {
    use Value::*;
    assert_eq!(
        args.len(),
        i.arity(),
        "{} expects {} args",
        i.name(),
        i.arity()
    );
    match i {
        Intrinsic::Min => match (args[0], args[1]) {
            (I32(a), I32(b)) => I32(a.min(b)),
            (I64(a), I64(b)) => I64(a.min(b)),
            (F32(a), F32(b)) => F32(a.min(b)),
            (F64(a), F64(b)) => F64(a.min(b)),
            _ => panic!("type mismatch in min"),
        },
        Intrinsic::Max => match (args[0], args[1]) {
            (I32(a), I32(b)) => I32(a.max(b)),
            (I64(a), I64(b)) => I64(a.max(b)),
            (F32(a), F32(b)) => F32(a.max(b)),
            (F64(a), F64(b)) => F64(a.max(b)),
            _ => panic!("type mismatch in max"),
        },
        Intrinsic::Abs => match args[0] {
            I32(a) => I32(a.wrapping_abs()),
            I64(a) => I64(a.wrapping_abs()),
            F32(a) => F32(a.abs()),
            F64(a) => F64(a.abs()),
        },
        Intrinsic::Pow => match (args[0], args[1]) {
            (F32(a), F32(b)) => F32(a.powf(b)),
            (F64(a), F64(b)) => F64(a.powf(b)),
            _ => panic!("pow expects float args"),
        },
        _ => {
            // Unary float intrinsics.
            let f = |x: f64| -> f64 {
                match i {
                    Intrinsic::Sin => x.sin(),
                    Intrinsic::Cos => x.cos(),
                    Intrinsic::Atan => x.atan(),
                    Intrinsic::Sqrt => x.sqrt(),
                    Intrinsic::Exp => x.exp(),
                    Intrinsic::Log => x.ln(),
                    Intrinsic::Floor => x.floor(),
                    _ => unreachable!(),
                }
            };
            match args[0] {
                F32(x) => F32(f(x as f64) as f32),
                F64(x) => F64(f(x)),
                v => panic!("float intrinsic {} on {v:?}", i.name()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_arithmetic() {
        assert_eq!(
            eval_binop(BinOp::Add, Value::I32(2), Value::I32(3)),
            Value::I32(5)
        );
        assert_eq!(
            eval_binop(BinOp::Mul, Value::F32(2.0), Value::F32(1.5)),
            Value::F32(3.0)
        );
        assert_eq!(
            eval_binop(BinOp::Div, Value::I32(7), Value::I32(0)),
            Value::I32(0)
        );
        assert_eq!(
            eval_binop(BinOp::Rem, Value::I64(9), Value::I64(4)),
            Value::I64(1)
        );
        assert_eq!(
            eval_binop(BinOp::Add, Value::I32(i32::MAX), Value::I32(1)),
            Value::I32(i32::MIN)
        );
    }

    #[test]
    fn binop_comparisons_yield_i32() {
        assert_eq!(
            eval_binop(BinOp::Lt, Value::F32(1.0), Value::F32(2.0)),
            Value::I32(1)
        );
        assert_eq!(
            eval_binop(BinOp::Ge, Value::I32(1), Value::I32(2)),
            Value::I32(0)
        );
        assert_eq!(
            eval_binop(BinOp::Eq, Value::I64(4), Value::I64(4)),
            Value::I32(1)
        );
        assert_eq!(
            eval_binop(BinOp::Ne, Value::F64(0.5), Value::F64(0.5)),
            Value::I32(0)
        );
    }

    #[test]
    fn binop_bitwise() {
        assert_eq!(
            eval_binop(BinOp::Xor, Value::I32(0b1100), Value::I32(0b1010)),
            Value::I32(0b0110)
        );
        assert_eq!(
            eval_binop(BinOp::Shl, Value::I32(1), Value::I32(4)),
            Value::I32(16)
        );
        assert_eq!(
            eval_binop(BinOp::Shr, Value::I32(-8), Value::I32(1)),
            Value::I32(-4)
        );
    }

    #[test]
    fn unop_eval() {
        assert_eq!(eval_unop(UnOp::Neg, Value::F32(2.0)), Value::F32(-2.0));
        assert_eq!(eval_unop(UnOp::Not, Value::I32(0)), Value::I32(-1));
        assert_eq!(eval_unop(UnOp::LogNot, Value::I32(0)), Value::I32(1));
        assert_eq!(eval_unop(UnOp::LogNot, Value::F64(2.5)), Value::I32(0));
    }

    #[test]
    fn intrinsic_eval() {
        assert_eq!(
            eval_intrinsic(Intrinsic::Sqrt, &[Value::F32(4.0)]),
            Value::F32(2.0)
        );
        assert_eq!(
            eval_intrinsic(Intrinsic::Min, &[Value::I32(3), Value::I32(-1)]),
            Value::I32(-1)
        );
        assert_eq!(
            eval_intrinsic(Intrinsic::Max, &[Value::F64(3.0), Value::F64(9.0)]),
            Value::F64(9.0)
        );
        assert_eq!(
            eval_intrinsic(Intrinsic::Abs, &[Value::I32(-5)]),
            Value::I32(5)
        );
        assert_eq!(
            eval_intrinsic(Intrinsic::Floor, &[Value::F32(2.7)]),
            Value::F32(2.0)
        );
    }

    #[test]
    fn expr_reads_tape_detection() {
        let e = Expr::bin(BinOp::Add, Expr::Pop, Expr::Const(Value::I32(1)));
        assert!(e.reads_tape());
        let e2 = Expr::bin(BinOp::Add, Expr::Var(VarId(0)), Expr::Const(Value::I32(1)));
        assert!(!e2.reads_tape());
        let e3 = Expr::Call(
            Intrinsic::Sin,
            vec![Expr::Peek(Box::new(Expr::Const(Value::I32(0))))],
        );
        assert!(e3.reads_tape());
    }

    #[test]
    fn expr_display_is_c_like() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::Lane(Box::new(Expr::Var(VarId(3))), 2),
            Expr::Const(Value::F32(0.5)),
        );
        assert_eq!(e.to_string(), "(v3.{2} * 0.5f)");
        assert_eq!(Expr::VPop { width: 4 }.to_string(), "vpop4()");
    }

    #[test]
    fn const_usize_extraction() {
        assert_eq!(Expr::Const(Value::I32(7)).as_const_usize(), Some(7));
        assert_eq!(Expr::Const(Value::I32(-1)).as_const_usize(), None);
        assert_eq!(Expr::Pop.as_const_usize(), None);
    }
}
