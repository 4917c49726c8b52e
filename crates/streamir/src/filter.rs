//! Filters (actors): declared rates, variables, internal channels, and the
//! `init`/`work` function bodies.

use crate::expr::{ChanId, VarId};
use crate::name::Name;
use crate::stmt::Stmt;
use crate::types::Ty;

/// Whether a variable persists across firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Re-initialized (to zero) on every firing of `work`.
    Local,
    /// Persists across firings; written by `init` and possibly by `work`.
    ///
    /// A filter with state written inside `work` is *stateful* and excluded
    /// from single-actor and vertical SIMDization (Section 2 of the paper).
    State,
}

/// A declared variable of a filter.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Source-level or generated name (for diagnostics and code
    /// generation); copying it does not allocate.
    pub name: Name,
    /// Type.
    pub ty: Ty,
    /// Local or persistent state.
    pub kind: VarKind,
}

/// An internal FIFO channel created by vertical fusion.
///
/// Fused inner actors communicate through these instead of global tapes
/// ("internal buffers" in Section 3.2). Channels are drained completely
/// within one firing of the fused actor.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalChan {
    /// Diagnostic name.
    pub name: Name,
    /// Element type: scalar before SIMDization, vector after.
    pub ty: Ty,
}

/// Region-based state annotation (Timcheck & Buhler): the filter's state
/// partitions into `regions` identical, independent regions, and firing
/// `i` touches only region `i mod regions`. The filter makes the
/// invariant explicit with a *cursor*: a scalar `i32` state variable that
/// starts at 0, indexes every region array subscript in `work`, and is
/// advanced exactly once per firing by `cursor = (cursor + 1) % regions`
/// as the last top-level `work` statement.
///
/// The annotation is a *claim*, checked by
/// `analysis::check_region_spec`; a filter whose body violates the shape
/// is rejected (or simply left scalar by the SIMDizer, which re-checks).
/// Region state variables stay ordinary [`VarKind::State`] — swap
/// carryover, fault drains and zero-initialization treat them like any
/// named state — the annotation only *adds* the independence fact the
/// region SIMDization transform needs.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Number of independent regions `R` (>= 2).
    pub regions: usize,
    /// The per-region state arrays; each must be `Ty::Array(elem, R)`,
    /// subscripted only by the cursor inside `work`.
    pub vars: Vec<VarId>,
    /// The cursor: a scalar `i32` state variable, `0 <= cursor < R`.
    pub cursor: VarId,
}

/// An actor with a single (optional) input and output tape.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    /// Actor name (unique within a graph for diagnostics).
    pub name: String,
    /// Maximum read extent per firing, in scalar tape elements. `peek >= pop`.
    pub peek: usize,
    /// Elements consumed per firing (0 for sources).
    pub pop: usize,
    /// Elements produced per firing (0 for pure sinks implemented as filters).
    pub push: usize,
    /// All declared variables; [`VarId`] indexes this vector.
    pub vars: Vec<VarDecl>,
    /// Internal channels; [`ChanId`] indexes this vector.
    pub chans: Vec<LocalChan>,
    /// Runs once before the steady state (fills state).
    pub init: Vec<Stmt>,
    /// Runs once per firing.
    pub work: Vec<Stmt>,
    /// Optional region-based state declaration (see [`RegionSpec`]).
    pub region: Option<RegionSpec>,
}

impl Filter {
    /// Create an empty filter with the given name and rates.
    ///
    /// # Panics
    /// Panics if `peek < pop` (peeking below the pop rate is meaningless).
    pub fn new(name: impl Into<String>, peek: usize, pop: usize, push: usize) -> Filter {
        assert!(peek >= pop, "peek rate must be >= pop rate");
        Filter {
            name: name.into(),
            peek,
            pop,
            push,
            vars: Vec::new(),
            chans: Vec::new(),
            init: Vec::new(),
            work: Vec::new(),
            region: None,
        }
    }

    /// This filter with its `init` and `work` bodies replaced: the new
    /// bodies are moved in and the old ones are not copied.
    pub fn with_bodies(&self, init: Vec<Stmt>, work: Vec<Stmt>) -> Filter {
        Filter {
            name: self.name.clone(),
            peek: self.peek,
            pop: self.pop,
            push: self.push,
            vars: self.vars.clone(),
            chans: self.chans.clone(),
            init,
            work,
            region: self.region.clone(),
        }
    }

    /// Declare a variable, returning its id.
    pub fn add_var(&mut self, name: impl Into<Name>, ty: Ty, kind: VarKind) -> VarId {
        self.vars.push(VarDecl {
            name: name.into(),
            ty,
            kind,
        });
        VarId((self.vars.len() - 1) as u32)
    }

    /// Declare an internal channel, returning its id.
    pub fn add_chan(&mut self, name: impl Into<Name>, ty: Ty) -> ChanId {
        self.chans.push(LocalChan {
            name: name.into(),
            ty,
        });
        ChanId((self.chans.len() - 1) as u32)
    }

    /// Look up a variable declaration.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn var(&self, id: VarId) -> &VarDecl {
        &self.vars[id.0 as usize]
    }

    /// True if this filter consumes no input (a stream source).
    pub fn is_source(&self) -> bool {
        self.pop == 0 && self.peek == 0
    }

    /// True if the filter reads further than it pops (`peek > pop`), like a
    /// sliding-window FIR filter.
    pub fn is_peeking(&self) -> bool {
        self.peek > self.pop
    }

    /// Ids of all state variables.
    pub fn state_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::State)
            .map(|(i, _)| VarId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ScalarTy;

    #[test]
    fn filter_construction() {
        let mut f = Filter::new("fir", 8, 1, 1);
        let coef = f.add_var("coef", Ty::Array(ScalarTy::F32, 8), VarKind::State);
        let acc = f.add_var("acc", Ty::Scalar(ScalarTy::F32), VarKind::Local);
        assert_eq!(f.var(coef).name, "coef");
        assert_eq!(f.var(acc).kind, VarKind::Local);
        assert!(f.is_peeking());
        assert!(!f.is_source());
        assert_eq!(f.state_vars().count(), 1);
    }

    #[test]
    fn source_detection() {
        let f = Filter::new("src", 0, 0, 4);
        assert!(f.is_source());
        assert!(!f.is_peeking());
    }

    #[test]
    #[should_panic(expected = "peek rate must be >= pop rate")]
    fn peek_below_pop_rejected() {
        let _ = Filter::new("bad", 1, 2, 1);
    }

    #[test]
    fn channels_get_sequential_ids() {
        let mut f = Filter::new("fused", 2, 2, 2);
        let c0 = f.add_chan("buf0", Ty::Scalar(ScalarTy::F32));
        let c1 = f.add_chan("buf1", Ty::Vector(ScalarTy::F32, 4));
        assert_eq!(c0.0, 0);
        assert_eq!(c1.0, 1);
        assert_eq!(f.chans.len(), 2);
    }
}
