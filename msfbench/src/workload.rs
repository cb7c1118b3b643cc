//! Workload names, sizes and seed handling.
//!
//! The workload seed is an argument of the benchmark only. Every instance
//! gets its own seed derived from it, and the program under test sees only
//! the generated inputs.

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Low-degree meshes: the filter is bypassed.
    SparseMesh,
    /// Skewed, dense graphs: the two-phase filter runs.
    SkewedDense,
    /// Insert/delete batches against a resident dynamic forest.
    DynamicChurn,
    /// The spilling sharded pipeline at Large size.
    OutOfCore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SparseMesh,
        Workload::SkewedDense,
        Workload::DynamicChurn,
        Workload::OutOfCore,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseMesh => "sparse-mesh",
            Workload::SkewedDense => "skewed-dense",
            Workload::DynamicChurn => "dynamic-churn",
            Workload::OutOfCore => "out-of-core",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The percentile `op_s_tail` reports: the highest one that keeps at
    /// least ten samples beyond it at the benchmark's 15-second runs on a
    /// 2-vCPU host (at least 30 `sparse-mesh` pipelines, 25 `skewed-dense`
    /// pipelines or 800 churn batches per run). An out-of-core run holds
    /// only three or four operations, fewer than ten beyond any
    /// percentile, so its tail is the slowest one.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::SparseMesh => 65.0,
            Workload::SkewedDense => 60.0,
            Workload::DynamicChurn => 98.0,
            Workload::OutOfCore => 100.0,
        }
    }
}

/// Instance size: `Full` is what the benchmark measures; `Tiny` exists so
/// the self-tests can run every workload in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Medium suite size for static inputs, 2^15-vertex churn graph, Large
    /// out-of-core input.
    Full,
    /// Tiny suite size everywhere.
    Tiny,
}

impl Size {
    /// Parses a `--size` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    /// The `--size` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// SplitMix64: a tiny seeded generator for instance seeds, shuffles and
/// the churn script.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Seed of instance `index` of workload `w` under workload seed `seed`.
pub fn instance_seed(seed: u64, w: Workload, index: usize) -> u64 {
    let mut tag = 0xcbf2_9ce4_8422_2325u64;
    for b in w.name().bytes() {
        tag = (tag ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut rng = SplitMix::new(seed ^ tag ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_per_instance_and_repeat_per_seed() {
        let a = instance_seed(1, Workload::SparseMesh, 0);
        assert_eq!(a, instance_seed(1, Workload::SparseMesh, 0));
        assert_ne!(a, instance_seed(1, Workload::SparseMesh, 1));
        assert_ne!(a, instance_seed(2, Workload::SparseMesh, 0));
        assert_ne!(a, instance_seed(1, Workload::SkewedDense, 0));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
