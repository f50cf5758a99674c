//! Multi-table LSH index over packed signatures.
//!
//! Section 4.1 of the paper hashes every group tag signature vector into `l` hash tables,
//! each with its own independently drawn family of `d′` random hyperplanes. Traditional
//! LSH then answers nearest-neighbour queries; the paper's SM-LSH instead *enumerates the
//! buckets* of every table ([`LshIndex::all_buckets`]) and ranks them with the mining
//! scoring function. When no bucket qualifies it relaxes `d′`:
//! [`LshIndex::truncated`] re-buckets on signature prefixes, which is exactly the index
//! a fresh build with fewer bits would produce, because a table's first `b` planes are
//! the `b` planes a fresh build draws from the same seed.
//!
//! A table is plain data. Each item's `d′`-bit signature is packed into
//! `⌈d′/64⌉` words (bit `b` is bit `b % 64` of word `b / 64`), item-major in one
//! `Vec<u64>`. Next to it sit the items sorted by `(signature words, item)` and the
//! offsets where each bucket of equal signatures starts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, StandardNormal};

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
    fn validate(&self) {
        assert!(self.dims > 0, "LSH needs a positive dimensionality");
        assert!(self.num_bits > 0, "LSH needs at least one hash bit");
        assert!(self.num_tables > 0, "LSH needs at least one table");
    }

    /// Words per packed signature.
    fn words(&self) -> usize {
        self.num_bits.div_ceil(64)
    }

    /// Table `t`'s hyperplanes, plane-major: `num_bits` planes of `dims` i.i.d. N(0, 1)
    /// coefficients, drawn one after another, so the first `b` planes are the planes a
    /// `b`-bit configuration draws.
    fn planes(&self, table: usize) -> Vec<f64> {
        let len = self
            .num_bits
            .checked_mul(self.dims)
            .expect("LSH hyperplane coefficients overflow usize");
        let seed = self
            .seed
            .wrapping_add(table as u64)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(1);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| StandardNormal.sample(&mut rng)).collect()
    }
}

/// One hash table: every item's packed signature and the items in bucket order.
#[derive(Debug, Clone, PartialEq)]
struct Table {
    /// Words per signature.
    words: usize,
    /// Item-major packed signatures: item `i` owns `signatures[i * words..][..words]`.
    signatures: Vec<u64>,
    /// Item indices sorted by `(signature words, item)`.
    order: Vec<usize>,
    /// Where each bucket starts in `order`, then `order.len()`.
    starts: Vec<usize>,
}

impl Table {
    /// Sort the items of `signatures` into buckets.
    fn new(words: usize, signatures: Vec<u64>) -> Self {
        let signature = |item: usize| &signatures[item * words..(item + 1) * words];
        let mut order: Vec<usize> = (0..signatures.len() / words).collect();
        order.sort_unstable_by(|&a, &b| signature(a).cmp(signature(b)).then(a.cmp(&b)));
        let starts = (0..order.len())
            .filter(|&i| i == 0 || signature(order[i - 1]) != signature(order[i]))
            .chain([order.len()])
            .collect();
        Table {
            words,
            signatures,
            order,
            starts,
        }
    }

    fn buckets(&self) -> impl Iterator<Item = &[usize]> {
        self.starts.windows(2).map(|w| &self.order[w[0]..w[1]])
    }
}

/// A multi-table random-hyperplane LSH index over a fixed set of items.
#[derive(Debug, Clone)]
pub struct LshIndex {
    config: LshConfig,
    tables: Vec<Table>,
}

impl LshIndex {
    /// Build an index over `items` (each item is a sparse vector), hashing every item
    /// once per table. Item indices in the returned buckets refer to positions in
    /// `items`.
    ///
    /// Bit `b` of an item's signature is set when the projection onto plane `b`, the sum
    /// of `plane[i] * w` over the item's entries in order with `i < dims`, is `≥ 0`.
    pub fn build<'a, I>(config: LshConfig, items: I) -> Self
    where
        I: IntoIterator<Item = SparseVector<'a>>,
    {
        config.validate();
        let words = config.words();
        let planes: Vec<Vec<f64>> = (0..config.num_tables).map(|t| config.planes(t)).collect();
        let mut signatures: Vec<Vec<u64>> = vec![Vec::new(); config.num_tables];
        for item in items {
            for (table_planes, packed) in planes.iter().zip(&mut signatures) {
                let start = packed.len();
                packed.resize(start + words, 0);
                for (bit, plane) in table_planes.chunks_exact(config.dims).enumerate() {
                    let projection: f64 = item
                        .iter()
                        .filter(|(i, _)| (*i as usize) < config.dims)
                        .map(|&(i, w)| plane[i as usize] * w)
                        .sum();
                    if projection >= 0.0 {
                        packed[start + bit / 64] |= 1 << (bit % 64);
                    }
                }
            }
        }
        LshIndex {
            config,
            tables: signatures
                .into_iter()
                .map(|packed| Table::new(words, packed))
                .collect(),
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
        let words = config.words();
        let tail = match config.num_bits % 64 {
            0 => u64::MAX,
            rest => (1 << rest) - 1,
        };
        let tables = self
            .tables
            .iter()
            .map(|table| {
                let mut packed = Vec::with_capacity(table.order.len() * words);
                for signature in table.signatures.chunks_exact(table.words) {
                    packed.extend_from_slice(&signature[..words]);
                    *packed.last_mut().expect("signatures have a word") &= tail;
                }
                Table::new(words, packed)
            })
            .collect();
        LshIndex { config, tables }
    }

    /// The index configuration.
    pub fn config(&self) -> &LshConfig {
        &self.config
    }

    /// Number of non-empty buckets in one table.
    pub fn num_buckets(&self, table: usize) -> usize {
        self.tables[table].starts.len() - 1
    }

    /// Every bucket of every table (table-major order), each as its member item indices.
    /// A table's buckets come in ascending signature order, members ascending.
    pub fn all_buckets(&self) -> impl Iterator<Item = &[usize]> {
        self.tables.iter().flat_map(Table::buckets)
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

    fn index_over(config: LshConfig, items: &[Vec<(u32, f64)>]) -> LshIndex {
        LshIndex::build(config, items.iter().map(Vec::as_slice))
    }

    fn build(num_bits: usize, num_tables: usize) -> LshIndex {
        index_over(config(num_bits, num_tables, 99), &clustered_items())
    }

    fn signature(table: &Table, item: usize) -> &[u64] {
        &table.signatures[item * table.words..(item + 1) * table.words]
    }

    /// The number of bits on which items `a` and `b` agree in table 0.
    fn agreement(index: &LshIndex, a: usize, b: usize) -> usize {
        let table = &index.tables[0];
        let differing: u32 = signature(table, a)
            .iter()
            .zip(signature(table, b))
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        index.config.num_bits - differing as usize
    }

    #[test]
    fn every_item_lands_in_exactly_one_bucket_per_table() {
        let index = build(8, 3);
        assert_eq!(index.tables.len(), 3);
        for table in &index.tables {
            let mut members: Vec<usize> = table.buckets().flatten().copied().collect();
            members.sort_unstable();
            assert_eq!(members, (0..30).collect::<Vec<_>>());
        }
    }

    #[test]
    fn same_cluster_items_share_buckets() {
        // Items 0 and 5 are nearly parallel: same signature in every table.
        let index = build(6, 4);
        for table in &index.tables {
            assert_eq!(signature(table, 0), signature(table, 5));
        }
        // Three tight clusters cannot fill more than a handful of 6-bit buckets.
        let index = build(6, 1);
        assert!(index.num_buckets(0) < 10, "{}", index.num_buckets(0));
    }

    #[test]
    fn scaled_copies_collide() {
        let items = vec![vec![(1u32, 1.0), (4, 3.0)], vec![(1u32, 2.0), (4, 6.0)]];
        let index = index_over(
            LshConfig {
                dims: 8,
                ..config(32, 3, 7)
            },
            &items,
        );
        for table in &index.tables {
            assert_eq!(signature(table, 0), signature(table, 1));
        }
    }

    #[test]
    fn components_beyond_dims_are_ignored() {
        let items = vec![
            vec![(0u32, 1.0), (1, -0.5)],
            vec![(0u32, 1.0), (5, 100.0), (1, -0.5), (2, -7.0)],
        ];
        let index = index_over(
            LshConfig {
                dims: 2,
                ..config(70, 2, 5)
            },
            &items,
        );
        for table in &index.tables {
            assert_eq!(signature(table, 0), signature(table, 1));
        }
    }

    #[test]
    fn a_different_seed_draws_different_tables() {
        let items = clustered_items();
        let a = index_over(config(16, 2, 42), &items);
        let b = index_over(config(16, 2, 42), &items);
        let c = index_over(config(16, 2, 43), &items);
        assert_eq!(a.tables, b.tables);
        assert_ne!(a.tables, c.tables);
    }

    #[test]
    fn bit_agreement_follows_theorem_2() {
        // Orthogonal vectors agree on one bit with probability 1 − (π/2)/π = 0.5; a pair
        // at a small angle agrees more often.
        let items = vec![
            vec![(0u32, 1.0), (1, 1.0)],
            vec![(0u32, 1.0), (1, 0.9)],
            vec![(2u32, 1.0), (3, 1.0)],
        ];
        let index = index_over(
            LshConfig {
                dims: 4,
                ..config(2000, 1, 3)
            },
            &items,
        );
        let far = agreement(&index, 0, 2);
        let rate = far as f64 / 2000.0;
        assert!((rate - 0.5).abs() < 0.05, "empirical agreement {rate}");
        let close = agreement(&index, 0, 1);
        assert!(
            close > far,
            "close pair agreed on {close} bits, far pair on {far}"
        );
    }

    #[test]
    fn more_bits_means_more_smaller_buckets() {
        let coarse = build(2, 1);
        let fine = build(16, 1);
        assert!(fine.num_buckets(0) >= coarse.num_buckets(0));
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
        assert_eq!(same.tables, index.tables);
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
            let config = |num_bits| LshConfig { dims: 12, num_bits, num_tables, seed };
            let full = index_over(config(num_bits), &items);
            for bits in 1..=num_bits {
                let fresh = index_over(config(bits), &items);
                let relaxed = full.truncated(bits);
                prop_assert_eq!(relaxed.config(), fresh.config());
                prop_assert_eq!(relaxed.tables, fresh.tables);
            }
        }
    }
}
