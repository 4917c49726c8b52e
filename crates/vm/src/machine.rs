//! Target machine descriptions: SIMD width, feature flags, the
//! per-operation cycle cost table, and the price list that reads it.
//!
//! Absolute cycle numbers are calibrated to be Core-i7/SSE4-plausible; the
//! experiments only rely on their *relative* magnitudes (scalar vs. vector
//! ops, pack/unpack vs. permute vs. plain loads), which is also all the
//! paper's speedup shapes depend on.
//!
//! # One price list
//!
//! What an IR shape or a VM action costs is written once, as the
//! [`Machine`] methods that return a [`ChargeEntry`] (`expr_charge`,
//! `stmt_charge`, `store_charge` and the primitives they are made of), and
//! nothing outside this module reads a [`CostTable`] field. Every walker
//! charges through them and differs only in *when* a price applies: the
//! tree-walker per executed node, the firing compiler per region, the
//! static model (`macross::cost`) per shape, the native nodes once per
//! firing (DESIGN.md §10, "One price list").

use macross_streamir::expr::{BinOp, Expr, Intrinsic, LValue};
use macross_streamir::graph::AddrGen;
use macross_streamir::stmt::Stmt;
use std::collections::BTreeSet;
use std::ops::Add;

/// Per-operation cycle costs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostTable {
    /// Scalar add/sub/bitwise/compare/cast.
    pub alu: u64,
    /// Scalar multiply.
    pub mul: u64,
    /// Scalar divide/remainder.
    pub div: u64,
    /// Vector add/sub/bitwise/compare/cast (whole vector).
    pub valu: u64,
    /// Vector multiply.
    pub vmul: u64,
    /// Vector divide.
    pub vdiv: u64,
    /// Scalar load (L1 hit).
    pub load: u64,
    /// Scalar store.
    pub store: u64,
    /// Vector load.
    pub vload: u64,
    /// Vector store.
    pub vstore: u64,
    /// Extract one lane to a scalar register (unpacking).
    pub lane_extract: u64,
    /// Insert a scalar into one lane (packing).
    pub lane_insert: u64,
    /// Broadcast a scalar to all lanes.
    pub splat: u64,
    /// One `extract_even`/`extract_odd` permutation.
    pub permute: u64,
    /// Per-iteration loop overhead (compare + branch).
    pub loop_iter: u64,
    /// Per-firing actor overhead (dispatch, pointer bookkeeping).
    pub firing: u64,
    /// Extra address-generation cycles per reordered scalar access without
    /// a SAGU (the Figure-8 sequence).
    pub addr_software_reorder: u64,
    /// Extra cycles per reordered scalar access with the SAGU.
    pub sagu_access: u64,
}

impl CostTable {
    /// Core-i7-like defaults.
    pub fn core_i7() -> CostTable {
        CostTable {
            alu: 1,
            mul: 3,
            div: 18,
            valu: 1,
            vmul: 3,
            vdiv: 24,
            load: 2,
            store: 2,
            vload: 2,
            vstore: 2,
            lane_extract: 1,
            lane_insert: 1,
            splat: 1,
            permute: 1,
            loop_iter: 1,
            firing: 3,
            addr_software_reorder: macross_sagu::SoftwareAddrGen::CYCLES_PER_ACCESS,
            sagu_access: macross_sagu::Sagu::CYCLES_PER_ACCESS,
        }
    }
}

/// A target machine: SIMD configuration plus the cost table.
///
/// `Eq`/`Hash` cover the *full* description (width, features, costs),
/// so two machines sharing a `name` but differing in any parameter
/// compare unequal — the compile cache relies on this to never hand one
/// target an artifact compiled for another.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Machine {
    /// Human-readable name for reports.
    pub name: String,
    /// SIMD lane count for 32-bit elements.
    pub simd_width: usize,
    /// Whether the streaming address generation unit is present.
    pub has_sagu: bool,
    /// Whether `extract_even`/`extract_odd` permutations are available
    /// ("supported by almost all SIMD standards").
    pub has_permute: bool,
    /// Intrinsics executable on the SIMD engine. Actors calling intrinsics
    /// outside this set cannot be SIMDized on this machine.
    pub vector_intrinsics: BTreeSet<Intrinsic>,
    /// Cycle costs.
    pub cost: CostTable,
}

impl Machine {
    /// A Core-i7 / SSE4.2-like target with a vector math library (SVML-like)
    /// covering every intrinsic, 4 lanes, no SAGU.
    pub fn core_i7() -> Machine {
        use Intrinsic::*;
        Machine {
            name: "core_i7_sse4".into(),
            simd_width: 4,
            has_sagu: false,
            has_permute: true,
            vector_intrinsics: [Sin, Cos, Atan, Sqrt, Exp, Log, Floor, Abs, Min, Max, Pow]
                .into_iter()
                .collect(),
            cost: CostTable::core_i7(),
        }
    }

    /// The Core-i7-like target extended with the paper's SAGU.
    pub fn core_i7_with_sagu() -> Machine {
        Machine {
            name: "core_i7_sse4_sagu".into(),
            has_sagu: true,
            ..Machine::core_i7()
        }
    }

    /// A hypothetical wider-SIMD target (e.g. Larrabee-like 16-wide),
    /// keeping the Core-i7 cost table.
    ///
    /// # Panics
    /// Panics if `width` is not a power of two greater than 1.
    pub fn wide(width: usize) -> Machine {
        assert!(
            width.is_power_of_two() && width > 1,
            "SIMD width must be a power of two > 1"
        );
        Machine {
            name: format!("wide_simd_{width}"),
            simd_width: width,
            ..Machine::core_i7()
        }
    }

    /// A Neon-like embedded target: 4 lanes, no vector transcendentals and
    /// no hardware divide, cheaper packing.
    pub fn neon_like() -> Machine {
        use Intrinsic::*;
        let mut m = Machine::core_i7();
        m.name = "neon_like".into();
        m.vector_intrinsics = [Sqrt, Abs, Min, Max, Floor].into_iter().collect();
        m.cost.lane_extract = 2;
        m.cost.lane_insert = 2;
        m.cost.vdiv = 40;
        m
    }

    /// Cycles for one *scalar* call of an intrinsic.
    fn scalar_intrinsic_cost(&self, i: Intrinsic) -> u64 {
        match i {
            Intrinsic::Sin | Intrinsic::Cos | Intrinsic::Atan => 56,
            Intrinsic::Sqrt => 18,
            Intrinsic::Exp | Intrinsic::Log => 48,
            Intrinsic::Floor => 3,
            Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => 1,
            Intrinsic::Pow => 80,
        }
    }

    /// Cycles for one *vector* call of an intrinsic (whole vector).
    ///
    /// Transcendentals go through an SVML-like vector math library: cheaper
    /// than `width` scalar calls but far from `width`-times cheaper.
    fn vector_intrinsic_cost(&self, i: Intrinsic) -> u64 {
        match i {
            Intrinsic::Sin | Intrinsic::Cos | Intrinsic::Atan => 80,
            Intrinsic::Sqrt => 22,
            Intrinsic::Exp | Intrinsic::Log => 64,
            Intrinsic::Floor => 3,
            Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => 1,
            Intrinsic::Pow => 120,
        }
    }

    /// The generator of this machine's reordered tape accesses: the SAGU
    /// when it has one, else the Figure-8 software sequence.
    pub fn addr_gen(&self) -> AddrGen {
        if self.has_sagu {
            AddrGen::Sagu
        } else {
            AddrGen::Software
        }
    }

    /// Whether every intrinsic in `set` is SIMD-executable here.
    pub fn supports_all(&self, set: &BTreeSet<Intrinsic>) -> bool {
        set.iter().all(|i| self.vector_intrinsics.contains(i))
    }
}

/// The price list. Each method is one node's or one action's own charge;
/// a walker adds the charges of a node's operands itself.
impl Machine {
    /// An expression node's charge; `vector` says whether its value is a
    /// vector.
    #[inline]
    pub fn expr_charge(&self, e: &Expr, vector: bool) -> ChargeEntry {
        match e {
            Expr::Const(_) | Expr::Var(_) => ChargeEntry::default(),
            // A constant vector is a constant-pool load.
            Expr::ConstVec(_)
            | Expr::VIndex(..)
            | Expr::VPop { .. }
            | Expr::VPeek { .. }
            | Expr::LVPop(..) => self.load(true),
            Expr::Index(..) => self.load(vector),
            Expr::LPop(_) => self.load(false),
            Expr::Pop | Expr::Peek(_) => self.tape_pop(),
            Expr::Unary(..) | Expr::Cast(..) => self.arith(None, vector),
            Expr::Binary(op, ..) => self.arith(Some(*op), vector),
            Expr::Call(i, _) if vector => {
                ChargeEntry::of(|k| k.compute_vector = self.vector_intrinsic_cost(*i))
            }
            Expr::Call(i, _) => {
                ChargeEntry::of(|k| k.compute_scalar = self.scalar_intrinsic_cost(*i))
            }
            Expr::Lane(..) => self.lane_extract(),
            Expr::Splat(..) => self.splat(),
            Expr::PermuteEven(..) | Expr::PermuteOdd(..) => self.permute(),
        }
    }

    /// A statement's charge, its expressions and an `Assign`'s store not
    /// included: a tape or channel write, a loop's setup, a branch, a tape
    /// pointer adjustment.
    #[inline]
    pub fn stmt_charge(&self, s: &Stmt) -> ChargeEntry {
        let addr_alu = || ChargeEntry::of(|k| k.addr_overhead = self.cost.alu);
        match s {
            Stmt::Assign(..) => ChargeEntry::default(),
            Stmt::Push(_) => self.tape_push(),
            // An rpush pays a flat ALU op for its offset arithmetic, not
            // the edge's reorder cost (the producer *is* the reorderer).
            Stmt::RPush { .. } => self.store(false) + addr_alu(),
            Stmt::VPush { .. } | Stmt::LVPush(..) => self.store(true),
            Stmt::LPush(..) => self.store(false),
            Stmt::For { .. } | Stmt::If { .. } => self.arith(None, false),
            Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => addr_alu(),
        }
    }

    /// The charge of storing a value to `lv`; `vector` says whether it is
    /// a vector. A variable is a register move, free.
    #[inline]
    pub fn store_charge(&self, lv: &LValue, vector: bool) -> ChargeEntry {
        match lv {
            LValue::Var(_) => ChargeEntry::default(),
            LValue::Index(..) => self.store(vector),
            LValue::VIndex(..) => self.store(true),
            LValue::LaneVar(..) | LValue::LaneIndex(..) => self.lane_insert(),
        }
    }

    /// An arithmetic op: a multiply or a divide/remainder at its own
    /// price; any other binary op, a unary op (`None`) or a cast at an ALU
    /// op's.
    #[inline]
    pub fn arith(&self, op: Option<BinOp>, vector: bool) -> ChargeEntry {
        let c = &self.cost;
        ChargeEntry::of(|k| match (op, vector) {
            (Some(BinOp::Mul), false) => k.compute_scalar = c.mul,
            (Some(BinOp::Div | BinOp::Rem), false) => k.compute_scalar = c.div,
            (_, false) => k.compute_scalar = c.alu,
            (Some(BinOp::Mul), true) => k.compute_vector = c.vmul,
            (Some(BinOp::Div | BinOp::Rem), true) => k.compute_vector = c.vdiv,
            (_, true) => k.compute_vector = c.valu,
        })
    }

    /// A load from an array, a channel or the constant pool, or a vector
    /// tape read.
    #[inline]
    pub fn load(&self, vector: bool) -> ChargeEntry {
        match vector {
            false => ChargeEntry::of(|k| k.mem_scalar = self.cost.load),
            true => ChargeEntry::of(|k| k.mem_vector = self.cost.vload),
        }
    }

    /// A store to an array or a channel, or a vector tape write.
    #[inline]
    pub fn store(&self, vector: bool) -> ChargeEntry {
        match vector {
            false => ChargeEntry::of(|k| k.mem_scalar = self.cost.store),
            true => ChargeEntry::of(|k| k.mem_vector = self.cost.vstore),
        }
    }

    /// A scalar input-tape read: a load plus the edge's reorder cost.
    #[inline]
    pub fn tape_pop(&self) -> ChargeEntry {
        ChargeEntry {
            in_addr: 1,
            ..self.load(false)
        }
    }

    /// A scalar output-tape write: a store plus the edge's reorder cost.
    #[inline]
    pub fn tape_push(&self) -> ChargeEntry {
        ChargeEntry {
            out_addr: 1,
            ..self.store(false)
        }
    }

    /// Extracting one lane to a scalar (unpacking).
    #[inline]
    pub fn lane_extract(&self) -> ChargeEntry {
        ChargeEntry::of(|k| k.pack_unpack = self.cost.lane_extract)
    }

    /// Inserting a scalar into one lane (packing).
    #[inline]
    pub fn lane_insert(&self) -> ChargeEntry {
        ChargeEntry::of(|k| k.pack_unpack = self.cost.lane_insert)
    }

    /// Broadcasting a scalar to every lane.
    #[inline]
    pub fn splat(&self) -> ChargeEntry {
        ChargeEntry::of(|k| k.pack_unpack = self.cost.splat)
    }

    /// One `extract_even`/`extract_odd` permutation.
    #[inline]
    pub fn permute(&self) -> ChargeEntry {
        ChargeEntry::of(|k| k.permute = self.cost.permute)
    }

    /// One loop iteration's compare and branch.
    #[inline]
    pub fn loop_iter(&self) -> ChargeEntry {
        ChargeEntry::of(|k| k.loop_overhead = self.cost.loop_iter)
    }

    /// One firing's dispatch and bookkeeping, whatever the node.
    #[inline]
    pub fn firing(&self) -> ChargeEntry {
        ChargeEntry::of(|k| k.firing_overhead = self.cost.firing)
    }

    /// Extra cycles one scalar access to a tape reordered by `addr_gen`
    /// pays (an [`AddrCosts`] side).
    #[inline]
    pub fn reorder_access(&self, addr_gen: AddrGen) -> u64 {
        match addr_gen {
            AddrGen::Sagu => self.cost.sagu_access,
            AddrGen::Software => self.cost.addr_software_reorder,
        }
    }
}

/// Extra address-generation cycles per scalar access on each tape of a
/// filter: its edge's [`Machine::reorder_access`] when the edge is
/// reordered on that side, else 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddrCosts {
    /// Added to every scalar input-tape access.
    pub input: u64,
    /// Added to every scalar output-tape access.
    pub output: u64,
}

/// A charge: what the price list returns and what every walker adds up.
///
/// `in_addr` / `out_addr` count scalar accesses to the input/output tape
/// that pay the per-edge reorder address cost, which belongs to the edge,
/// not to the code: [`ChargeEntry::apply`] multiplies them by the edge's
/// [`AddrCosts`] (a compiled region's entry is built before any edge is
/// known).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChargeEntry {
    /// Fixed charges.
    pub counters: CycleCounters,
    /// Scalar input-tape accesses paying the input reorder address cost.
    pub in_addr: u64,
    /// Scalar output-tape accesses paying the output reorder address cost.
    pub out_addr: u64,
}

impl ChargeEntry {
    /// An entry of fixed charges, set by `set`.
    #[inline]
    fn of(set: impl FnOnce(&mut CycleCounters)) -> ChargeEntry {
        let mut e = ChargeEntry::default();
        set(&mut e.counters);
        e
    }

    /// True if applying this entry would change nothing.
    pub fn is_zero(&self) -> bool {
        *self == ChargeEntry::default()
    }

    /// Add another entry into this one.
    #[inline]
    pub fn absorb(&mut self, other: &ChargeEntry) {
        self.counters.absorb(&other.counters);
        self.in_addr += other.in_addr;
        self.out_addr += other.out_addr;
    }

    /// This entry applied `n` times (a loop body's charges times its trip
    /// count); `None` if a sum leaves `u64`.
    pub fn times(&self, n: u64) -> Option<ChargeEntry> {
        Some(ChargeEntry {
            counters: self.counters.times(n)?,
            in_addr: self.in_addr.checked_mul(n)?,
            out_addr: self.out_addr.checked_mul(n)?,
        })
    }

    /// Add this entry to `counters`, each counted access at its side's
    /// cost in `addr`.
    #[inline]
    pub fn apply(&self, counters: &mut CycleCounters, addr: AddrCosts) {
        counters.absorb(&self.counters);
        counters.addr_overhead += self.in_addr * addr.input + self.out_addr * addr.output;
    }

    /// The cycles [`ChargeEntry::apply`] adds, summed over categories.
    #[inline]
    pub fn cycles(&self, addr: AddrCosts) -> u64 {
        self.counters.total() + self.in_addr * addr.input + self.out_addr * addr.output
    }
}

impl Add for ChargeEntry {
    type Output = ChargeEntry;

    #[inline]
    fn add(mut self, other: ChargeEntry) -> ChargeEntry {
        self.absorb(&other);
        self
    }
}

/// Cycle counters, broken down by category for the experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCounters {
    /// Scalar arithmetic.
    pub compute_scalar: u64,
    /// Vector arithmetic.
    pub compute_vector: u64,
    /// Scalar loads/stores.
    pub mem_scalar: u64,
    /// Vector loads/stores.
    pub mem_vector: u64,
    /// Lane inserts/extracts/splats (packing and unpacking).
    pub pack_unpack: u64,
    /// `extract_even`/`extract_odd` permutations.
    pub permute: u64,
    /// Address-generation overhead on reordered tapes.
    pub addr_overhead: u64,
    /// Loop compare/branch overhead.
    pub loop_overhead: u64,
    /// Per-firing actor overhead.
    pub firing_overhead: u64,
}

impl CycleCounters {
    /// Total cycles across all categories.
    pub fn total(&self) -> u64 {
        self.compute_scalar
            + self.compute_vector
            + self.mem_scalar
            + self.mem_vector
            + self.pack_unpack
            + self.permute
            + self.addr_overhead
            + self.loop_overhead
            + self.firing_overhead
    }

    /// Add another counter set into this one.
    #[inline]
    pub fn absorb(&mut self, other: &CycleCounters) {
        self.compute_scalar += other.compute_scalar;
        self.compute_vector += other.compute_vector;
        self.mem_scalar += other.mem_scalar;
        self.mem_vector += other.mem_vector;
        self.pack_unpack += other.pack_unpack;
        self.permute += other.permute;
        self.addr_overhead += other.addr_overhead;
        self.loop_overhead += other.loop_overhead;
        self.firing_overhead += other.firing_overhead;
    }

    /// Every category multiplied by `n`; `None` if one leaves `u64`.
    pub fn times(&self, n: u64) -> Option<CycleCounters> {
        Some(CycleCounters {
            compute_scalar: self.compute_scalar.checked_mul(n)?,
            compute_vector: self.compute_vector.checked_mul(n)?,
            mem_scalar: self.mem_scalar.checked_mul(n)?,
            mem_vector: self.mem_vector.checked_mul(n)?,
            pack_unpack: self.pack_unpack.checked_mul(n)?,
            permute: self.permute.checked_mul(n)?,
            addr_overhead: self.addr_overhead.checked_mul(n)?,
            loop_overhead: self.loop_overhead.checked_mul(n)?,
            firing_overhead: self.firing_overhead.checked_mul(n)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_sensibly() {
        let base = Machine::core_i7();
        let sagu = Machine::core_i7_with_sagu();
        assert!(!base.has_sagu);
        assert!(sagu.has_sagu);
        assert_eq!(base.simd_width, 4);
        assert_eq!(Machine::wide(16).simd_width, 16);
        assert!(Machine::neon_like().vector_intrinsics.len() < base.vector_intrinsics.len());
    }

    #[test]
    fn vector_trig_beats_width_scalar_calls() {
        let m = Machine::core_i7();
        let scalar4 = 4 * m.scalar_intrinsic_cost(Intrinsic::Sin);
        let vec = m.vector_intrinsic_cost(Intrinsic::Sin);
        assert!(vec < scalar4);
        assert!(vec > m.scalar_intrinsic_cost(Intrinsic::Sin));
    }

    #[test]
    fn supports_all_checks_subset() {
        let m = Machine::neon_like();
        let ok: BTreeSet<_> = [Intrinsic::Sqrt, Intrinsic::Min].into_iter().collect();
        let bad: BTreeSet<_> = [Intrinsic::Sin].into_iter().collect();
        assert!(m.supports_all(&ok));
        assert!(!m.supports_all(&bad));
    }

    #[test]
    fn counters_total_and_absorb() {
        let mut a = CycleCounters {
            compute_scalar: 5,
            mem_scalar: 3,
            ..Default::default()
        };
        let b = CycleCounters {
            compute_vector: 2,
            permute: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.total(), 11);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn wide_rejects_non_power_of_two() {
        let _ = Machine::wide(6);
    }
}
