//! The common interface of k-replica placement strategies.

use crate::bins::BinId;

/// Replication degrees up to this bound can be placed through
/// [`PlacementStrategy::place_into_inline`] into a caller-provided stack
/// array, so a read-path query performs no heap allocation at all. Covers
/// every redundancy scheme in practical use (mirrors, RAID, RS up to 8
/// total shards); wider groups fall back to the `Vec`-based path.
pub const MAX_INLINE_K: usize = 8;

/// A strategy that maps every ball to `k` pairwise-distinct bins.
///
/// Implementations must be **deterministic** (the same ball always maps to
/// the same bins — placements are recomputed, never stored) and must
/// **identify the i-th copy**: `place` returns copies in a stable order, so
/// position `i` of the result is "copy `i`" of the redundancy group. The
/// paper stresses this property because erasure codes assign different
/// meanings to different sub-blocks.
///
/// # Object safety
///
/// The trait is object safe; heterogeneous collections of strategies (as
/// used by the experiment harness) can store `Box<dyn PlacementStrategy>`.
pub trait PlacementStrategy {
    /// The replication degree `k` (number of copies per ball).
    fn replication(&self) -> usize;

    /// The bins known to the strategy, in its canonical (descending
    /// capacity) order.
    fn bin_ids(&self) -> &[BinId];

    /// Places `ball`, appending exactly `k` distinct bin ids to `out` in
    /// copy order. `out` is cleared first.
    fn place_into(&self, ball: u64, out: &mut Vec<BinId>);

    /// Places `ball`, returning the `k` distinct bins in copy order.
    fn place(&self, ball: u64) -> Vec<BinId> {
        let mut out = Vec::with_capacity(self.replication());
        self.place_into(ball, &mut out);
        out
    }

    /// Places `ball` into a caller-provided stack array, returning the
    /// number of copies written (always `k`). Only callable when
    /// `k ≤ MAX_INLINE_K`; the result occupies `out[..k]` in copy order and
    /// must be bit-identical to [`PlacementStrategy::place_into`].
    ///
    /// The default implementation routes through a temporary `Vec`;
    /// strategies whose scan is already allocation-free override it to
    /// write straight into the array, making a placement query perform no
    /// heap allocation at all — the hot path of a cache-missing block read.
    ///
    /// # Panics
    ///
    /// Panics if `self.replication() > MAX_INLINE_K`.
    fn place_into_inline(&self, ball: u64, out: &mut [BinId; MAX_INLINE_K]) -> usize {
        let k = self.replication();
        assert!(k <= MAX_INLINE_K, "replication {k} exceeds inline capacity");
        let mut buf = Vec::with_capacity(k);
        self.place_into(ball, &mut buf);
        out[..k].copy_from_slice(&buf);
        k
    }

    /// Places every ball of `balls`, writing the groups back to back into
    /// `out` with stride `k`: the copies of `balls[j]` occupy
    /// `out[j * k..(j + 1) * k]` in copy order. `out` is cleared first; a
    /// caller that recycles a vector of capacity `balls.len() * k` incurs
    /// no allocation beyond the strategy's own per-call scratch.
    ///
    /// The default runs the scalar [`PlacementStrategy::place_into`] in a
    /// loop; strategies with cheaper amortised batch paths may override it,
    /// but must produce identical output.
    fn place_batch_into(&self, balls: &[u64], out: &mut Vec<BinId>) {
        let k = self.replication();
        out.clear();
        out.reserve(balls.len() * k);
        let mut group = Vec::with_capacity(k);
        for &ball in balls {
            self.place_into(ball, &mut group);
            debug_assert_eq!(group.len(), k);
            out.extend_from_slice(&group);
        }
    }

    /// The expected number of copies of a single ball each bin receives
    /// (aligned with [`PlacementStrategy::bin_ids`]). For a fair strategy
    /// this is `k · b'_i / Σ b'_j` with the Lemma 2.2 adjusted capacities;
    /// the experiment harness compares empirical loads against it.
    fn fair_shares(&self) -> Vec<f64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;

    impl PlacementStrategy for Fixed {
        fn replication(&self) -> usize {
            2
        }
        fn bin_ids(&self) -> &[BinId] {
            const IDS: [BinId; 2] = [BinId(0), BinId(1)];
            &IDS
        }
        fn place_into(&self, _ball: u64, out: &mut Vec<BinId>) {
            out.clear();
            out.extend([BinId(0), BinId(1)]);
        }
        fn fair_shares(&self) -> Vec<f64> {
            vec![1.0, 1.0]
        }
    }

    #[test]
    fn default_place_delegates() {
        let s = Fixed;
        assert_eq!(s.place(7), vec![BinId(0), BinId(1)]);
    }

    #[test]
    fn object_safe() {
        let b: Box<dyn PlacementStrategy> = Box::new(Fixed);
        assert_eq!(b.replication(), 2);
    }

    #[test]
    fn batch_matches_scalar() {
        let set = crate::BinSet::from_capacities([500, 400, 300, 200, 100]).unwrap();
        let strat = crate::RedundantShare::new(&set, 3).unwrap();
        let balls: Vec<u64> = (0..1_000).map(|b| b * 7 + 3).collect();
        let mut flat = Vec::new();
        strat.place_batch_into(&balls, &mut flat);
        assert_eq!(flat.len(), balls.len() * 3);
        for (j, &ball) in balls.iter().enumerate() {
            assert_eq!(&flat[j * 3..(j + 1) * 3], strat.place(ball).as_slice());
        }
    }

    #[test]
    fn default_inline_matches_vec_path() {
        let s = Fixed;
        let mut arr = [BinId(u64::MAX); MAX_INLINE_K];
        let n = s.place_into_inline(9, &mut arr);
        assert_eq!(n, 2);
        assert_eq!(&arr[..n], s.place(9).as_slice());
    }
}
