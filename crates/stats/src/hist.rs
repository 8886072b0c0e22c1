//! Log2-bucketed histograms for the deterministic telemetry layer.
//!
//! The paper's distributional claims (Figure 9's runtime breakdown, Figure
//! 10's percent-of-cycles-speculating, Section 4's commit-on-violate convoy
//! argument) are about the *shape* of episodes, not just their totals — so
//! alongside the additive [`crate::SimCounters`] the simulator now gathers
//! power-of-two histograms of speculation episode lengths, deferral windows,
//! store-buffer occupancy, L2 miss latency and fabric event-queue depth.
//!
//! A [`Log2Hist`] is 65 fixed buckets: bucket 0 holds the value `0` and
//! bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)` — `bucket_index` is one
//! `leading_zeros` instruction, so recording is cheap enough to stay *always
//! on* (unlike trace events, which are opt-in): histograms are part of every
//! `MachineResult`, and the kernel-equivalence suite holds them to
//! byte-identity between the dense oracle and the default kernel like every
//! other counter.
//! Exact `sum`/`count` accumulators ride along so means stay exact under
//! [`Log2Hist::merge`], which is elementwise addition and therefore
//! associative and commutative (the property the histogram tests drive).

/// Number of buckets: the zero bucket plus one per bit of a `u64`.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-shape power-of-two histogram (see the module documentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist { buckets: [0; LOG2_BUCKETS], count: 0, sum: 0 }
    }
}

impl Log2Hist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a value lands in: 0 for the value `0`, otherwise the
    /// value's bit length (so bucket `i ≥ 1` spans `[2^(i-1), 2^i)`).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` bucket `index` covers (`hi` is
    /// `None` for the last bucket, whose range is unbounded above in spirit
    /// — it ends at `u64::MAX`).
    ///
    /// # Panics
    /// Panics if `index >= LOG2_BUCKETS`.
    pub fn bucket_range(index: usize) -> (u64, Option<u64>) {
        assert!(index < LOG2_BUCKETS, "bucket index out of range");
        match index {
            0 => (0, Some(1)),
            64 => (1 << 63, None),
            i => (1 << (i - 1), Some(1 << i)),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Records `n` identical observations in one call — exactly equivalent to
    /// calling [`Log2Hist::record`] `n` times (bucket, count and sum,
    /// including the sum's saturation behaviour: repeated saturating adds of
    /// a non-negative value and one saturating add of the saturating product
    /// both pin the sum to `u64::MAX` at the same threshold). The bulk
    /// sibling of `record`.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Adds every bucket (and the exact accumulators) of `other` into
    /// `self`. Elementwise, so merging is associative and commutative.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw count in one bucket.
    ///
    /// # Panics
    /// Panics if `index >= LOG2_BUCKETS`.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// The non-empty buckets, as `(index, count)` pairs in index order —
    /// the sparse form the store serializes and the CLI summarizer renders.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c != 0).map(|(i, &c)| (i, c))
    }

    /// Rebuilds a histogram from its sparse form plus the exact
    /// accumulators. Returns `None` when an index is out of range.
    pub fn from_sparse(pairs: &[(usize, u64)], count: u64, sum: u64) -> Option<Self> {
        let mut hist = Log2Hist { buckets: [0; LOG2_BUCKETS], count, sum };
        for &(index, bucket_count) in pairs {
            if index >= LOG2_BUCKETS {
                return None;
            }
            hist.buckets[index] += bucket_count;
        }
        Some(hist)
    }

    /// The lowest bucket whose cumulative count reaches fraction `p` of the
    /// total (`None` when empty). `p` is clamped to `[0, 1]`; the returned
    /// bucket's [`Log2Hist::bucket_range`] brackets the approximate
    /// percentile.
    pub fn percentile_bucket(&self, p: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(i);
            }
        }
        Some(LOG2_BUCKETS - 1)
    }
}

/// The per-core histograms gathered during one run, carried inside
/// [`crate::CoreStats`] and merged across cores like every other per-core
/// statistic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreHists {
    /// Lengths (instructions retired) of speculation episodes at
    /// commit/abort.
    pub episode_len: Log2Hist,
    /// Commit-on-violate deferral windows granted (deadline − now), in
    /// cycles.
    pub deferral: Log2Hist,
    /// Store-buffer occupancy observed after each insert.
    pub sb_occupancy: Log2Hist,
}

impl CoreHists {
    /// Creates empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another core's histograms into this one.
    pub fn merge(&mut self, other: &CoreHists) {
        self.episode_len.merge(&other.episode_len);
        self.deferral.merge(&other.deferral);
        self.sb_occupancy.merge(&other.sb_occupancy);
    }
}

/// The machine-wide histogram set of one run: the per-core histograms
/// summed over cores, plus the fabric's own (there is one fabric). Part of
/// `MachineResult` and `RunSummary`, serialized by the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunHistograms {
    /// Speculation episode lengths (instructions), summed over cores.
    pub episode_len: Log2Hist,
    /// Commit-on-violate deferral windows (cycles), summed over cores.
    pub deferral: Log2Hist,
    /// Store-buffer occupancy after inserts, summed over cores.
    pub sb_occupancy: Log2Hist,
    /// L2 miss service latency (cycles from demand miss to scheduled fill),
    /// gathered by the coherence fabric.
    pub l2_miss_latency: Log2Hist,
    /// Fabric event-queue depth observed at each schedule call.
    pub fabric_queue_depth: Log2Hist,
}

impl RunHistograms {
    /// Creates empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles the machine-wide set from per-core histograms and the
    /// fabric's two.
    pub fn from_parts(
        cores: &[CoreHists],
        l2_miss_latency: Log2Hist,
        fabric_queue_depth: Log2Hist,
    ) -> Self {
        let mut agg = CoreHists::new();
        for c in cores {
            agg.merge(c);
        }
        RunHistograms {
            episode_len: agg.episode_len,
            deferral: agg.deferral,
            sb_occupancy: agg.sb_occupancy,
            l2_miss_latency,
            fabric_queue_depth,
        }
    }

    /// Merges another run's histograms into this one (elementwise, like
    /// every merge in this crate).
    pub fn merge(&mut self, other: &RunHistograms) {
        self.episode_len.merge(&other.episode_len);
        self.deferral.merge(&other.deferral);
        self.sb_occupancy.merge(&other.sb_occupancy);
        self.l2_miss_latency.merge(&other.l2_miss_latency);
        self.fabric_queue_depth.merge(&other.fabric_queue_depth);
    }

    /// The five histograms with their stable labels, in reporting order
    /// (the CLI summarizer and the store codec share this order).
    pub fn named(&self) -> [(&'static str, &Log2Hist); 5] {
        [
            ("episode_len", &self.episode_len),
            ("deferral", &self.deferral),
            ("sb_occupancy", &self.sb_occupancy),
            ("l2_miss_latency", &self.l2_miss_latency),
            ("fabric_queue_depth", &self.fabric_queue_depth),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bit_length() {
        assert_eq!(Log2Hist::bucket_index(0), 0);
        assert_eq!(Log2Hist::bucket_index(1), 1);
        assert_eq!(Log2Hist::bucket_index(2), 2);
        assert_eq!(Log2Hist::bucket_index(3), 2);
        assert_eq!(Log2Hist::bucket_index(4), 3);
        assert_eq!(Log2Hist::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_ranges_tile_the_domain() {
        let (lo, hi) = Log2Hist::bucket_range(0);
        assert_eq!((lo, hi), (0, Some(1)));
        for i in 1..LOG2_BUCKETS - 1 {
            let (lo, hi) = Log2Hist::bucket_range(i);
            let hi = hi.expect("bounded bucket");
            // Every value in [lo, hi) maps back to bucket i; hi maps to i+1.
            assert_eq!(Log2Hist::bucket_index(lo), i);
            assert_eq!(Log2Hist::bucket_index(hi - 1), i);
            assert_eq!(Log2Hist::bucket_index(hi), i + 1);
            // The next bucket starts where this one ends.
            assert_eq!(Log2Hist::bucket_range(i + 1).0, hi);
        }
        assert_eq!(Log2Hist::bucket_range(64), (1 << 63, None));
    }

    #[test]
    fn bucket_boundaries_hold_for_seeded_random_values() {
        // Property test over the full u64 range: every recorded value must
        // land in a bucket whose range contains it, and counts must be
        // conserved. Seeded TraceRng keeps it deterministic.
        let mut rng = ifence_workloads::TraceRng::seed_from_u64(0x1f3a_9c2e);
        let mut h = Log2Hist::new();
        for _ in 0..10_000 {
            // Mix uniform values with values hugging power-of-two edges.
            let v = match rng.range_u64(0..4) {
                0 => rng.next_u64(),
                1 => 1u64 << rng.range_u64(0..64),
                2 => (1u64 << rng.range_u64(0..64)).wrapping_sub(1),
                _ => rng.range_u64(0..1024),
            };
            let idx = Log2Hist::bucket_index(v);
            let (lo, hi) = Log2Hist::bucket_range(idx);
            assert!(v >= lo, "value {v} below bucket {idx} lower bound {lo}");
            if let Some(hi) = hi {
                assert!(v < hi, "value {v} at/above bucket {idx} upper bound {hi}");
            }
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.nonzero().map(|(_, c)| c).sum::<u64>(), 10_000, "counts conserved");
    }

    #[test]
    fn record_accumulates_count_and_exact_sum() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert!((h.mean() - 201.2).abs() < 1e-12);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(10), 1, "1000 lands in [512, 1024)");
        let sparse: Vec<_> = h.nonzero().collect();
        assert_eq!(sparse, vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn record_n_is_exactly_n_records() {
        // Property test: for seeded random (value, n) pairs, one record_n
        // call must leave the histogram byte-identical — every bucket, the
        // count and the exact sum — to n individual record calls.
        let mut rng = ifence_workloads::TraceRng::seed_from_u64(0x5eed_0b1d);
        for _ in 0..500 {
            let value = match rng.range_u64(0..4) {
                0 => rng.next_u64(),
                1 => 1u64 << rng.range_u64(0..64),
                2 => (1u64 << rng.range_u64(0..64)).wrapping_sub(1),
                _ => rng.range_u64(0..1024),
            };
            let n = rng.range_u64(0..200);
            let mut bulk = Log2Hist::new();
            bulk.record_n(value, n);
            let mut looped = Log2Hist::new();
            for _ in 0..n {
                looped.record(value);
            }
            assert_eq!(bulk, looped, "record_n({value}, {n}) diverged from {n}x record");
            assert_eq!(bulk.count(), n);
        }
    }

    #[test]
    fn record_n_saturates_the_sum_like_repeated_records() {
        // The saturation edge: repeated saturating adds pin the sum at
        // u64::MAX, and so must the bulk form (via its saturating product).
        let mut bulk = Log2Hist::new();
        bulk.record_n(u64::MAX / 2, 5);
        let mut looped = Log2Hist::new();
        for _ in 0..5 {
            looped.record(u64::MAX / 2);
        }
        assert_eq!(bulk, looped);
        assert_eq!(bulk.sum(), u64::MAX);
        // Mixing bulk and single records afterwards keeps them in lockstep.
        bulk.record(7);
        looped.record_n(7, 1);
        assert_eq!(bulk, looped);
    }

    #[test]
    fn merge_is_associative_and_commutative_exactly() {
        // Three histograms over disjoint-ish values: (a ⊕ b) ⊕ c must equal
        // a ⊕ (b ⊕ c) and b ⊕ (a ⊕ c) bucket-for-bucket and in the exact
        // accumulators.
        let mut a = Log2Hist::new();
        let mut b = Log2Hist::new();
        let mut c = Log2Hist::new();
        for v in 0..50 {
            a.record(v * 3);
            b.record(v * v);
            c.record(u64::MAX - v);
        }
        let left = {
            let mut x = a.clone();
            x.merge(&b);
            x.merge(&c);
            x
        };
        let right = {
            let mut yz = b.clone();
            yz.merge(&c);
            let mut x = a.clone();
            x.merge(&yz);
            x
        };
        let swapped = {
            let mut xz = a.clone();
            xz.merge(&c);
            let mut y = b.clone();
            y.merge(&xz);
            y
        };
        assert_eq!(left, right);
        assert_eq!(left, swapped);
        assert_eq!(left.count(), 150);
    }

    #[test]
    fn sparse_roundtrip_rebuilds_identically() {
        let mut h = Log2Hist::new();
        for v in [0, 7, 7, 900, 1 << 40] {
            h.record(v);
        }
        let pairs: Vec<_> = h.nonzero().collect();
        let back = Log2Hist::from_sparse(&pairs, h.count(), h.sum()).unwrap();
        assert_eq!(back, h);
        assert_eq!(Log2Hist::from_sparse(&[(65, 1)], 1, 1), None, "out-of-range index rejected");
    }

    #[test]
    fn percentile_bucket_walks_the_cumulative_counts() {
        let mut h = Log2Hist::new();
        assert_eq!(h.percentile_bucket(0.5), None);
        for _ in 0..90 {
            h.record(1); // bucket 1
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10
        }
        assert_eq!(h.percentile_bucket(0.5), Some(1));
        assert_eq!(h.percentile_bucket(0.9), Some(1));
        assert_eq!(h.percentile_bucket(0.95), Some(10));
        assert_eq!(h.percentile_bucket(1.0), Some(10));
    }

    #[test]
    fn run_histograms_assemble_from_parts() {
        let mut core0 = CoreHists::new();
        core0.episode_len.record(10);
        core0.sb_occupancy.record(2);
        let mut core1 = CoreHists::new();
        core1.episode_len.record(20);
        core1.deferral.record(64);
        let mut l2 = Log2Hist::new();
        l2.record(40);
        let run = RunHistograms::from_parts(&[core0, core1], l2, Log2Hist::new());
        assert_eq!(run.episode_len.count(), 2);
        assert_eq!(run.episode_len.sum(), 30);
        assert_eq!(run.deferral.count(), 1);
        assert_eq!(run.sb_occupancy.count(), 1);
        assert_eq!(run.l2_miss_latency.count(), 1);
        assert!(run.fabric_queue_depth.is_empty());
        assert_eq!(run.named().len(), 5);
    }
}
