//! Multi-table LSH index.
//!
//! Section 4.1 of the paper hashes every group tag signature vector into `l` hash tables
//! indexed by independently drawn `d′`-bit hyperplane families. Traditional LSH then
//! answers nearest-neighbour queries; the paper's SM-LSH instead *enumerates the
//! buckets* of every table ([`LshIndex::buckets`]) and ranks them with the mining
//! scoring function. When no bucket qualifies it relaxes `d′`:
//! [`LshIndex::truncated`] re-buckets on signature prefixes, which is exactly the index
//! a fresh build with fewer bits would produce, because a family's first `b` planes are
//! the `b`-plane family drawn from the same seed.

use crate::hyperplane::HyperplaneFamily;
use crate::signature::BitSignature;
use crate::SparseVector;

/// Configuration of an [`LshIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshConfig {
    /// Dimensionality of the hashed vectors.
    pub dims: usize,
    /// Number of hash bits `d′` per table.
    pub num_bits: usize,
    /// Number of hash tables `l`.
    pub num_tables: usize,
    /// RNG seed for hyperplane generation.
    pub seed: u64,
}

impl LshConfig {
    /// A single-table configuration (the paper's experiments use `l = 1`, `d′ = 10`).
    pub fn single_table(dims: usize, num_bits: usize, seed: u64) -> Self {
        LshConfig {
            dims,
            num_bits,
            num_tables: 1,
            seed,
        }
    }

    fn validate(&self) {
        assert!(self.dims > 0, "LSH needs a positive dimensionality");
        assert!(self.num_bits > 0, "LSH needs at least one hash bit");
        assert!(self.num_tables > 0, "LSH needs at least one table");
    }
}

/// The buckets of one hash table: `(signature, member item indices)` pairs in ascending
/// signature order, members ascending.
type Buckets = Vec<(BitSignature, Vec<usize>)>;

/// Group `(signature, item)` pairs into buckets by sorting them.
fn into_buckets(mut hashed: Vec<(BitSignature, usize)>) -> Buckets {
    hashed.sort_unstable();
    let mut buckets: Buckets = Vec::new();
    for (sig, item) in hashed {
        match buckets.last_mut() {
            Some((last, members)) if *last == sig => members.push(item),
            _ => buckets.push((sig, vec![item])),
        }
    }
    buckets
}

/// A multi-table random-hyperplane LSH index over a fixed set of items.
#[derive(Debug, Clone)]
pub struct LshIndex {
    config: LshConfig,
    num_items: usize,
    tables: Vec<Buckets>,
}

impl LshIndex {
    /// Build an index over `items` (each item is a sparse vector), hashing every item
    /// once per table. Item indices in the returned buckets refer to positions in
    /// `items`.
    pub fn build<'a, I>(config: LshConfig, items: I) -> Self
    where
        I: IntoIterator<Item = SparseVector<'a>>,
    {
        config.validate();
        let families: Vec<HyperplaneFamily> = (0..config.num_tables)
            .map(|t| {
                HyperplaneFamily::new(
                    config.dims,
                    config.num_bits,
                    config
                        .seed
                        .wrapping_add(t as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(1),
                )
            })
            .collect();

        let mut hashed: Vec<Vec<(BitSignature, usize)>> = vec![Vec::new(); families.len()];
        let mut num_items = 0;
        for (idx, item) in items.into_iter().enumerate() {
            num_items = idx + 1;
            for (family, table) in families.iter().zip(&mut hashed) {
                table.push((family.hash(item), idx));
            }
        }

        LshIndex {
            config,
            num_items,
            tables: hashed.into_iter().map(into_buckets).collect(),
        }
    }

    /// The index over the first `bits` bits of every signature (the index
    /// [`build`](Self::build) would give with `num_bits = bits`), without re-hashing.
    /// `bits` above the current `d′` leave the index unchanged.
    pub fn truncated(&self, bits: usize) -> LshIndex {
        let config = LshConfig {
            num_bits: bits.min(self.config.num_bits),
            ..self.config
        };
        config.validate();
        let tables = self
            .tables
            .iter()
            .map(|buckets| {
                let mut hashed = Vec::with_capacity(self.num_items);
                for (sig, members) in buckets {
                    let prefix = sig.truncated(config.num_bits);
                    hashed.extend(members.iter().map(|&item| (prefix.clone(), item)));
                }
                into_buckets(hashed)
            })
            .collect();
        LshIndex {
            config,
            num_items: self.num_items,
            tables,
        }
    }

    /// The index configuration.
    pub fn config(&self) -> &LshConfig {
        &self.config
    }

    /// Number of indexed items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of hash tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of non-empty buckets in one table.
    pub fn num_buckets(&self, table: usize) -> usize {
        self.tables[table].len()
    }

    /// The buckets of one table, as `(signature, member item indices)` pairs, sorted by
    /// signature for determinism.
    pub fn buckets(&self, table: usize) -> &[(BitSignature, Vec<usize>)] {
        &self.tables[table]
    }

    /// Every bucket of every table (table-major order).
    pub fn all_buckets(&self) -> impl Iterator<Item = &[usize]> {
        self.tables
            .iter()
            .flatten()
            .map(|(_, members)| members.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Three clusters of vectors in 6 dimensions.
    fn clustered_items() -> Vec<Vec<(u32, f64)>> {
        let mut items = Vec::new();
        for i in 0..10 {
            items.push(vec![(0u32, 1.0), (1, 0.9 + 0.01 * i as f64)]);
        }
        for i in 0..10 {
            items.push(vec![(2u32, 1.0), (3, 0.9 + 0.01 * i as f64)]);
        }
        for i in 0..10 {
            items.push(vec![(4u32, 1.0), (5, 0.9 + 0.01 * i as f64)]);
        }
        items
    }

    fn config(num_bits: usize, num_tables: usize, seed: u64) -> LshConfig {
        LshConfig {
            dims: 6,
            num_bits,
            num_tables,
            seed,
        }
    }

    fn build(num_bits: usize, num_tables: usize) -> LshIndex {
        let items = clustered_items();
        LshIndex::build(
            config(num_bits, num_tables, 99),
            items.iter().map(|v| v.as_slice()),
        )
    }

    #[test]
    fn every_item_lands_in_exactly_one_bucket_per_table() {
        let index = build(8, 3);
        assert_eq!(index.num_items(), 30);
        assert_eq!(index.num_tables(), 3);
        for t in 0..3 {
            let total: usize = index.buckets(t).iter().map(|(_, m)| m.len()).sum();
            assert_eq!(total, 30);
        }
    }

    #[test]
    fn same_cluster_items_share_buckets() {
        let items = clustered_items();
        // Items 0 and 5 are nearly parallel: same signature under any family.
        let family = HyperplaneFamily::new(6, 6, 99);
        assert_eq!(
            family.hash(items[0].as_slice()),
            family.hash(items[5].as_slice())
        );
        // Three tight clusters cannot fill more than a handful of 6-bit buckets.
        let index = build(6, 1);
        assert!(index.num_buckets(0) < 10, "{}", index.num_buckets(0));
    }

    #[test]
    fn more_bits_means_more_smaller_buckets() {
        let coarse = build(2, 1);
        let fine = build(16, 1);
        assert!(fine.num_buckets(0) >= coarse.num_buckets(0));
    }

    #[test]
    fn build_is_deterministic() {
        let a = build(8, 2);
        let b = build(8, 2);
        for t in 0..2 {
            assert_eq!(a.buckets(t), b.buckets(t));
        }
    }

    #[test]
    fn all_buckets_spans_every_table() {
        let index = build(4, 2);
        let total: usize = index.all_buckets().map(|b| b.len()).sum();
        assert_eq!(total, 2 * 30);
    }

    #[test]
    fn truncating_beyond_the_signature_length_changes_nothing() {
        let index = build(8, 2);
        let same = index.truncated(20);
        assert_eq!(same.config().num_bits, 8);
        for t in 0..2 {
            assert_eq!(same.buckets(t), index.buckets(t));
        }
    }

    #[test]
    #[should_panic(expected = "positive dimensionality")]
    fn zero_dims_config_panics() {
        LshIndex::build(
            LshConfig {
                dims: 0,
                num_bits: 4,
                num_tables: 1,
                seed: 0,
            },
            std::iter::empty::<&[(u32, f64)]>(),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Relaxing `d′` by prefix truncation is bit-identical to rebuilding with fewer
        // bits, signatures longer than one 64-bit word included.
        #[test]
        fn prop_truncation_matches_a_fresh_build(
            items in proptest::collection::vec(
                proptest::collection::vec((0u32..12, -1.0f64..1.0), 1..5),
                1..40,
            ),
            num_tables in 1usize..4,
            num_bits in 1usize..81,
            seed in any::<u64>(),
        ) {
            let full = LshIndex::build(
                LshConfig { dims: 12, num_bits, num_tables, seed },
                items.iter().map(|v| v.as_slice()),
            );
            for bits in 1..=num_bits {
                let fresh = LshIndex::build(
                    LshConfig { dims: 12, num_bits: bits, num_tables, seed },
                    items.iter().map(|v| v.as_slice()),
                );
                let relaxed = full.truncated(bits);
                prop_assert_eq!(relaxed.config(), fresh.config());
                for t in 0..num_tables {
                    prop_assert_eq!(relaxed.buckets(t), fresh.buckets(t));
                }
            }
        }
    }
}
