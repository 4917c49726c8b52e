//! An embedded DSL for building actor work functions ergonomically.
//!
//! The benchmark suite constructs thousands of IR statements; this module
//! provides operator overloading on [`E`] (expression wrapper), a block
//! builder [`B`], and a [`FilterBuilder`].
//!
//! ```
//! use macross_streamir::edsl::*;
//! use macross_streamir::types::{ScalarTy, Ty};
//!
//! let mut fb = FilterBuilder::new("scale", 1, 1, 1, ScalarTy::F32);
//! let t = fb.local("t", Ty::Scalar(ScalarTy::F32));
//! fb.work(|b| {
//!     b.set(t, pop());
//!     b.push(v(t) * 2.0f32);
//! });
//! let filter = fb.build();
//! assert_eq!(filter.work.len(), 2);
//! ```

use crate::expr::{BinOp, ChanId, Expr, Intrinsic, LValue, UnOp, VarId};
use crate::filter::{Filter, RegionSpec, VarKind};
use crate::name::Name;
use crate::stmt::Stmt;
use crate::types::{ScalarTy, Ty, Value};

/// Expression wrapper enabling operator overloading.
#[derive(Debug, Clone, PartialEq)]
pub struct E(pub Expr);

/// Anything convertible to an expression: `E`, `VarId`, or literals.
pub trait IntoE {
    /// Convert into an expression wrapper.
    fn into_e(self) -> E;
}

impl IntoE for E {
    fn into_e(self) -> E {
        self
    }
}
impl IntoE for &E {
    fn into_e(self) -> E {
        self.clone()
    }
}
impl IntoE for Expr {
    fn into_e(self) -> E {
        E(self)
    }
}
impl IntoE for VarId {
    fn into_e(self) -> E {
        E(Expr::Var(self))
    }
}
impl IntoE for i32 {
    fn into_e(self) -> E {
        E(Expr::Const(Value::I32(self)))
    }
}
impl IntoE for i64 {
    fn into_e(self) -> E {
        E(Expr::Const(Value::I64(self)))
    }
}
impl IntoE for f32 {
    fn into_e(self) -> E {
        E(Expr::Const(Value::F32(self)))
    }
}
impl IntoE for f64 {
    fn into_e(self) -> E {
        E(Expr::Const(Value::F64(self)))
    }
}
impl IntoE for usize {
    fn into_e(self) -> E {
        E(Expr::Const(Value::I32(self as i32)))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: IntoE> std::ops::$trait<R> for E {
            type Output = E;
            fn $method(self, rhs: R) -> E {
                E(Expr::bin($op, self.0, rhs.into_e().0))
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Rem);
impl_binop!(BitAnd, bitand, BinOp::And);
impl_binop!(BitOr, bitor, BinOp::Or);
impl_binop!(BitXor, bitxor, BinOp::Xor);
impl_binop!(Shl, shl, BinOp::Shl);
impl_binop!(Shr, shr, BinOp::Shr);

macro_rules! impl_binop_scalar_lhs {
    ($lhs:ty) => {
        impl std::ops::Add<E> for $lhs {
            type Output = E;
            fn add(self, rhs: E) -> E {
                self.into_e() + rhs
            }
        }
        impl std::ops::Sub<E> for $lhs {
            type Output = E;
            fn sub(self, rhs: E) -> E {
                E(Expr::bin(BinOp::Sub, self.into_e().0, rhs.0))
            }
        }
        impl std::ops::Mul<E> for $lhs {
            type Output = E;
            fn mul(self, rhs: E) -> E {
                self.into_e() * rhs
            }
        }
        impl std::ops::Div<E> for $lhs {
            type Output = E;
            fn div(self, rhs: E) -> E {
                E(Expr::bin(BinOp::Div, self.into_e().0, rhs.0))
            }
        }
    };
}

impl_binop_scalar_lhs!(i32);
impl_binop_scalar_lhs!(f32);

impl std::ops::Neg for E {
    type Output = E;
    fn neg(self) -> E {
        E(Expr::Unary(UnOp::Neg, Box::new(self.0)))
    }
}

/// Scalar literal expression.
pub fn c(v: impl Into<Value>) -> E {
    E(Expr::Const(v.into()))
}

/// Read a variable.
pub fn v(id: VarId) -> E {
    E(Expr::Var(id))
}

/// Read an array element.
pub fn idx(arr: VarId, i: impl IntoE) -> E {
    E(Expr::Index(arr, Box::new(i.into_e().0)))
}

/// Scalar `pop()` from the input tape.
pub fn pop() -> E {
    E(Expr::Pop)
}

/// Scalar `peek(offset)` from the input tape.
pub fn peek(offset: impl IntoE) -> E {
    E(Expr::Peek(Box::new(offset.into_e().0)))
}

/// Pop from an internal channel.
pub fn lpop(c: ChanId) -> E {
    E(Expr::LPop(c))
}

/// Cast to another scalar type.
pub fn cast(ty: ScalarTy, e: impl IntoE) -> E {
    E(Expr::Cast(ty, Box::new(e.into_e().0)))
}

macro_rules! unary_intrinsic {
    ($name:ident, $which:expr) => {
        /// Intrinsic call.
        pub fn $name(e: impl IntoE) -> E {
            E(Expr::Call($which, vec![e.into_e().0]))
        }
    };
}

unary_intrinsic!(sin, Intrinsic::Sin);
unary_intrinsic!(cos, Intrinsic::Cos);
unary_intrinsic!(atan, Intrinsic::Atan);
unary_intrinsic!(sqrt, Intrinsic::Sqrt);
unary_intrinsic!(exp, Intrinsic::Exp);
unary_intrinsic!(log, Intrinsic::Log);
unary_intrinsic!(floor, Intrinsic::Floor);
unary_intrinsic!(abs, Intrinsic::Abs);

/// `min(a, b)` intrinsic.
pub fn min(a: impl IntoE, b: impl IntoE) -> E {
    E(Expr::Call(Intrinsic::Min, vec![a.into_e().0, b.into_e().0]))
}

/// `max(a, b)` intrinsic.
pub fn max(a: impl IntoE, b: impl IntoE) -> E {
    E(Expr::Call(Intrinsic::Max, vec![a.into_e().0, b.into_e().0]))
}

/// `pow(a, b)` intrinsic.
pub fn pow(a: impl IntoE, b: impl IntoE) -> E {
    E(Expr::Call(Intrinsic::Pow, vec![a.into_e().0, b.into_e().0]))
}

macro_rules! cmp_fn {
    ($name:ident, $op:expr) => {
        /// Comparison yielding `i32` 0/1.
        pub fn $name(a: impl IntoE, b: impl IntoE) -> E {
            E(Expr::bin($op, a.into_e().0, b.into_e().0))
        }
    };
}

cmp_fn!(eq, BinOp::Eq);
cmp_fn!(ne, BinOp::Ne);
cmp_fn!(lt, BinOp::Lt);
cmp_fn!(le, BinOp::Le);
cmp_fn!(gt, BinOp::Gt);
cmp_fn!(ge, BinOp::Ge);

/// Assignment targets accepted by [`B::assign`].
pub trait IntoLValue {
    /// Convert into an [`LValue`].
    fn into_lvalue(self) -> LValue;
}

impl IntoLValue for LValue {
    fn into_lvalue(self) -> LValue {
        self
    }
}
impl IntoLValue for VarId {
    fn into_lvalue(self) -> LValue {
        LValue::Var(self)
    }
}

/// Statement block builder.
#[derive(Debug, Default)]
pub struct B {
    stmts: Vec<Stmt>,
}

impl B {
    /// Create an empty block.
    pub fn new() -> B {
        B::default()
    }

    /// Append a raw statement.
    pub fn stmt(&mut self, s: Stmt) -> &mut B {
        self.stmts.push(s);
        self
    }

    /// `lhs = rhs`.
    pub fn assign(&mut self, lhs: impl IntoLValue, rhs: impl IntoE) -> &mut B {
        self.stmts
            .push(Stmt::Assign(lhs.into_lvalue(), rhs.into_e().0));
        self
    }

    /// `var = rhs`.
    pub fn set(&mut self, var: VarId, rhs: impl IntoE) -> &mut B {
        self.assign(LValue::Var(var), rhs)
    }

    /// `arr[i] = rhs`.
    pub fn set_idx(&mut self, arr: VarId, i: impl IntoE, rhs: impl IntoE) -> &mut B {
        self.assign(LValue::Index(arr, i.into_e().0), rhs)
    }

    /// `push(value)`.
    pub fn push(&mut self, value: impl IntoE) -> &mut B {
        self.stmts.push(Stmt::Push(value.into_e().0));
        self
    }

    /// `chan.push(value)`.
    pub fn lpush(&mut self, chan: ChanId, value: impl IntoE) -> &mut B {
        self.stmts.push(Stmt::LPush(chan, value.into_e().0));
        self
    }

    /// `for (var : 0 to count-1) { ... }`.
    pub fn for_(&mut self, var: VarId, count: impl IntoE, body: impl FnOnce(&mut B)) -> &mut B {
        let mut inner = B::new();
        body(&mut inner);
        self.stmts.push(Stmt::For {
            var,
            count: count.into_e().0,
            body: inner.stmts,
        });
        self
    }

    /// `if (cond) { ... }`.
    pub fn if_(&mut self, cond: impl IntoE, then_branch: impl FnOnce(&mut B)) -> &mut B {
        let mut t = B::new();
        then_branch(&mut t);
        self.stmts.push(Stmt::If {
            cond: cond.into_e().0,
            then_branch: t.stmts,
            else_branch: vec![],
        });
        self
    }

    /// `if (cond) { ... } else { ... }`.
    pub fn if_else(
        &mut self,
        cond: impl IntoE,
        then_branch: impl FnOnce(&mut B),
        else_branch: impl FnOnce(&mut B),
    ) -> &mut B {
        let mut t = B::new();
        then_branch(&mut t);
        let mut e = B::new();
        else_branch(&mut e);
        self.stmts.push(Stmt::If {
            cond: cond.into_e().0,
            then_branch: t.stmts,
            else_branch: e.stmts,
        });
        self
    }

    /// Finish the block.
    pub fn build(self) -> Vec<Stmt> {
        self.stmts
    }
}

/// Builder for [`Filter`]s, tracking the output element type used when the
/// filter is wired into a graph.
#[derive(Debug)]
pub struct FilterBuilder {
    filter: Filter,
    out_elem: ScalarTy,
}

impl FilterBuilder {
    /// Start a filter with the given name, rates, and output element type.
    pub fn new(
        name: impl Into<String>,
        peek: usize,
        pop: usize,
        push: usize,
        out_elem: ScalarTy,
    ) -> FilterBuilder {
        FilterBuilder {
            filter: Filter::new(name, peek, pop, push),
            out_elem,
        }
    }

    /// Declare a per-firing local variable.
    pub fn local(&mut self, name: impl Into<Name>, ty: Ty) -> VarId {
        self.filter.add_var(name, ty, VarKind::Local)
    }

    /// Declare a persistent state variable.
    pub fn state(&mut self, name: impl Into<Name>, ty: Ty) -> VarId {
        self.filter.add_var(name, ty, VarKind::State)
    }

    /// Declare the region cursor: a scalar `i32` state variable cycling
    /// through `0..regions`, and open the filter's [`RegionSpec`]. The
    /// cursor-advance statement (`cursor = (cursor + 1) % regions`) must
    /// still be written as the last top-level `work` statement — the
    /// legality check verifies it is there.
    pub fn region_cursor(&mut self, name: impl Into<Name>, regions: usize) -> VarId {
        assert!(regions >= 2, "a region spec needs at least 2 regions");
        let cursor = self
            .filter
            .add_var(name, Ty::Scalar(ScalarTy::I32), VarKind::State);
        let spec = self.filter.region.get_or_insert(RegionSpec {
            regions,
            vars: Vec::new(),
            cursor,
        });
        assert_eq!(
            spec.regions, regions,
            "conflicting region counts on one filter"
        );
        spec.cursor = cursor;
        cursor
    }

    /// Declare a per-region state array (`Ty::Array(elem, regions)`),
    /// registered in the filter's [`RegionSpec`]. Requires
    /// [`FilterBuilder::region_cursor`] to have been called first.
    pub fn region_var(&mut self, name: impl Into<Name>, elem: ScalarTy) -> VarId {
        let regions = self
            .filter
            .region
            .as_ref()
            .expect("declare the region cursor before region vars")
            .regions;
        let id = self
            .filter
            .add_var(name, Ty::Array(elem, regions), VarKind::State);
        self.filter.region.as_mut().unwrap().vars.push(id);
        id
    }

    /// Define the `init` function.
    pub fn init(&mut self, f: impl FnOnce(&mut B)) -> &mut FilterBuilder {
        let mut b = B::new();
        f(&mut b);
        self.filter.init = b.build();
        self
    }

    /// Define the `work` function.
    pub fn work(&mut self, f: impl FnOnce(&mut B)) -> &mut FilterBuilder {
        let mut b = B::new();
        f(&mut b);
        self.filter.work = b.build();
        self
    }

    /// The declared output element type.
    pub fn out_elem(&self) -> ScalarTy {
        self.out_elem
    }

    /// Finish, yielding the filter.
    pub fn build(self) -> Filter {
        self.filter
    }

    /// Finish, yielding the filter together with its output element type
    /// (for [`crate::builder::StreamSpec::filter`]).
    pub fn build_spec(self) -> crate::builder::StreamSpec {
        crate::builder::StreamSpec::Filter {
            filter: self.filter,
            out_elem: self.out_elem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_overloading_builds_tree() {
        let e = (c(1.0f32) + 2.0f32) * c(3.0f32);
        assert_eq!(e.0.to_string(), "((1.0f + 2.0f) * 3.0f)");
    }

    #[test]
    fn mixed_literal_types() {
        let e = pop() + 1i32;
        assert_eq!(e.0.to_string(), "(pop() + 1)");
        let e2 = v(VarId(0)) ^ 0x5ai32;
        assert_eq!(e2.0.to_string(), "(v0 ^ 90)");
    }

    #[test]
    fn block_builder_control_flow() {
        let mut fb = FilterBuilder::new("t", 2, 2, 1, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(acc, 0i32);
            b.for_(i, 2i32, |b| {
                b.set(acc, v(acc) + pop());
            });
            b.if_else(
                gt(v(acc), 10i32),
                |b| {
                    b.push(v(acc));
                },
                |b| {
                    b.push(0i32);
                },
            );
        });
        let f = fb.build();
        assert_eq!(f.work.len(), 3);
        assert!(matches!(f.work[1], Stmt::For { .. }));
        assert!(matches!(f.work[2], Stmt::If { .. }));
    }

    #[test]
    fn intrinsic_helpers() {
        let e = sqrt(v(VarId(1)) * v(VarId(1)));
        assert_eq!(e.0.to_string(), "sqrt((v1 * v1))");
        let m = min(1i32, 2i32);
        assert_eq!(m.0.to_string(), "min(1, 2)");
    }

    #[test]
    fn comparison_helpers() {
        assert_eq!(lt(c(1i32), 2i32).0.to_string(), "(1 < 2)");
        assert_eq!(ge(v(VarId(0)), 0i32).0.to_string(), "(v0 >= 0)");
    }

    #[test]
    fn negation() {
        let e = -v(VarId(2));
        assert_eq!(e.0.to_string(), "(-v2)");
    }
}
