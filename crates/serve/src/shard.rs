//! Consistent hashing of jobs onto named executor shards.
//!
//! The tier runs N executor shards and routes every job by its affinity
//! key (see [`crate::key::affinity_of_doc`]). A [`ShardRing`] places a fixed
//! number of virtual points per shard on a 64-bit hash ring; a key maps
//! to the shard owning the first point at or after it. Consistent
//! hashing (rather than `key % N`) means growing the pool from N to N+1
//! shards remaps only ~1/(N+1) of the key space — a restarted daemon
//! resized for a bigger machine keeps most request streams on their old
//! shards, preserving per-shard cache affinity.

// `spread` (splitmix64's avalanche) fixes FNV-1a's clustering on short,
// similar inputs like `"s0#17"`, which would starve shards on the ring.
// It is a fixed bijection, so ring determinism and the consistent-growth
// property are unaffected.
use noctest_core::hashing::spread;

use crate::key::fnv1a;

/// Virtual points per shard. Enough to spread load within a few percent
/// of even at small shard counts; small enough that ring construction
/// and lookup stay trivially cheap.
const VIRTUAL_POINTS: u32 = 64;

/// A consistent-hash ring over `n` shards named `s0 … s{n-1}`.
#[derive(Debug, Clone)]
pub struct ShardRing {
    /// `(point, shard)` sorted by point; ties broken toward the lower
    /// shard index at construction so the ring is deterministic.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRing {
    /// A ring over `shards` shards (`shards` is clamped to at least 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VIRTUAL_POINTS as usize);
        for shard in 0..shards {
            let name = shard_name(shard);
            for v in 0..VIRTUAL_POINTS {
                points.push((spread(fnv1a(format!("{name}#{v}").as_bytes())), shard));
            }
        }
        points.sort_unstable();
        ShardRing { points, shards }
    }

    /// How many shards the ring covers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first ring point at or after it,
    /// wrapping past the top of the key space.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        let key = spread(key);
        let idx = self.points.partition_point(|&(point, _)| point < key);
        let (_, shard) = self.points[if idx == self.points.len() { 0 } else { idx }];
        shard
    }
}

/// The stable name of shard `index` — used on the wire (rejection lines)
/// and in worker-thread names.
#[must_use]
pub fn shard_name(index: usize) -> String {
    format!("s{index}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_deterministic_and_in_range() {
        let ring = ShardRing::new(4);
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let shard = ring.shard_of(key);
            assert!(shard < 4);
            assert_eq!(shard, ring.shard_of(key), "lookup must be stable");
        }
    }

    #[test]
    fn load_spreads_across_all_shards() {
        let ring = ShardRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..40_000u64 {
            counts[ring.shard_of(fnv1a(&i.to_le_bytes()))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            // Within a loose band of the 10k-even split: the point of the
            // test is that no shard is starved or doubled, not a perfect
            // balance proof.
            assert!(
                (5_000..=20_000).contains(&count),
                "shard {shard} got {count} of 40000"
            );
        }
    }

    #[test]
    fn growing_the_ring_remaps_only_a_fraction_of_keys() {
        let four = ShardRing::new(4);
        let five = ShardRing::new(5);
        let total = 40_000u64;
        let moved = (0..total)
            .map(|i| fnv1a(&i.to_le_bytes()))
            .filter(|&k| four.shard_of(k) != five.shard_of(k))
            .count() as u64;
        // Ideal is total/5 = 20%; modulo hashing would remap ~80%. Assert
        // we are on the consistent side of halfway.
        assert!(
            moved < total / 2,
            "consistent ring moved {moved} of {total} keys"
        );
    }

    #[test]
    fn single_shard_ring_routes_everything_to_shard_zero() {
        let ring = ShardRing::new(1);
        for key in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(ring.shard_of(key), 0);
        }
        // And a zero request is clamped rather than panicking.
        assert_eq!(ShardRing::new(0).shards(), 1);
    }

    #[test]
    fn ring_placement_is_pinned_byte_identically() {
        // Journals and rejection lines carry shard names, so placement is
        // wire format: any drift in `fnv1a`, `spread`, the virtual-point
        // count or the tie-break re-routes recovered request streams.
        // These values are frozen; a change here is a compatibility break.
        let ring = ShardRing::new(3);
        let placed: Vec<usize> = (0..8u64)
            .map(|i| ring.shard_of(fnv1a(&i.to_le_bytes())))
            .collect();
        assert_eq!(placed, vec![2, 0, 1, 1, 2, 1, 2, 0]);
        // The lowest ring point and its owner, pinned directly.
        let &(first_point, first_shard) = ring.points.first().expect("ring has points");
        assert_eq!((first_point, first_shard), (1_627_416_194_419_655, 1));
    }

    #[test]
    fn shard_names_are_stable() {
        assert_eq!(shard_name(0), "s0");
        assert_eq!(shard_name(11), "s11");
    }
}
