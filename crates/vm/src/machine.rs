//! Target machine descriptions: SIMD width, feature flags, and the
//! per-operation cycle cost table that drives all performance modelling.
//!
//! Absolute cycle numbers are calibrated to be Core-i7/SSE4-plausible; the
//! experiments only rely on their *relative* magnitudes (scalar vs. vector
//! ops, pack/unpack vs. permute vs. plain loads), which is also all the
//! paper's speedup shapes depend on.

use macross_streamir::expr::Intrinsic;
use std::collections::BTreeSet;

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
    pub fn scalar_intrinsic_cost(&self, i: Intrinsic) -> u64 {
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
    pub fn vector_intrinsic_cost(&self, i: Intrinsic) -> u64 {
        match i {
            Intrinsic::Sin | Intrinsic::Cos | Intrinsic::Atan => 80,
            Intrinsic::Sqrt => 22,
            Intrinsic::Exp | Intrinsic::Log => 64,
            Intrinsic::Floor => 3,
            Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => 1,
            Intrinsic::Pow => 120,
        }
    }

    /// Whether every intrinsic in `set` is SIMD-executable here.
    pub fn supports_all(&self, set: &BTreeSet<Intrinsic>) -> bool {
        set.iter().all(|i| self.vector_intrinsics.contains(i))
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
