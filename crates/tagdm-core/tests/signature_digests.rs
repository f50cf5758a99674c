//! Golden digests of the group tag signatures a [`MiningContext`] builds.
//!
//! Each digest is FNV-1a 64 over every signature in group order, hashing each entry's
//! `(component as u64).to_le_bytes()` then `weight.to_bits().to_le_bytes()`. The
//! values pin every LDA draw and every θ float: a change to the sampler that alters
//! one assignment or reorders one floating-point sum changes the digest.
//!
//! The medium context also pins SM-LSH's buckets: FNV-1a 64 over every bucket of
//! every relaxation round, hashing each bucket's length and then each member, both as
//! `u64` LE. That fixes every hyperplane draw, every projection's sign and the bucket
//! order, and so the buckets SM-LSH ranks.

use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_data::dataset::Dataset;
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_data::group::GroupingScheme;
use tagdm_lsh::index::{LshConfig, LshIndex};
use tagdm_topics::lda::LdaConfig;

/// The four-attribute grouping of the benchmark's mine-heuristic workload.
const FOUR_ATTRIBUTES: [(&str, &str); 4] = [
    ("user", "gender"),
    ("user", "age"),
    ("user", "occupation"),
    ("item", "genre"),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold each word's eight little-endian bytes into an FNV-1a 64 state.
fn fnv(hash: &mut u64, words: impl IntoIterator<Item = u64>) {
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(ctx: &MiningContext) -> u64 {
    let mut hash = FNV_OFFSET;
    for signature in ctx.tag_signatures() {
        for &(component, weight) in signature.entries() {
            fnv(&mut hash, [u64::from(component), weight.to_bits()]);
        }
    }
    hash
}

fn context(dataset: &Dataset, summarizer: SummarizerChoice) -> MiningContext {
    let groups = GroupingScheme::over(dataset, &FOUR_ATTRIBUTES)
        .unwrap()
        .min_group_size(5)
        .enumerate(dataset);
    MiningContext::build(dataset, groups, summarizer)
}

fn context_digest(dataset: &Dataset, summarizer: SummarizerChoice) -> u64 {
    digest(&context(dataset, summarizer))
}

/// The bucket digest over every fold variant at `(d′, l)` ∈ {(10, 1), (10, 4), (80, 1)},
/// each relaxed `d′, d′/2, …, 1` as SM-LSH does, with the number of buckets hashed.
fn bucket_digest(ctx: &MiningContext) -> (u64, usize) {
    let mut hash = FNV_OFFSET;
    let mut buckets = 0;
    for (fold_users, fold_items) in [(false, false), (true, false), (false, true), (true, true)] {
        let vectors: Vec<Vec<(u32, f64)>> = (0..ctx.num_groups())
            .map(|i| ctx.folded_vector(i, fold_users, fold_items))
            .collect();
        for (num_bits, num_tables) in [(10, 1), (10, 4), (80, 1)] {
            let config = LshConfig {
                dims: ctx.folded_dims(fold_users, fold_items),
                num_bits,
                num_tables,
                seed: 0x5A17,
            };
            let full = LshIndex::build(config, vectors.iter().map(Vec::as_slice));
            let mut bits = num_bits;
            while bits > 0 {
                for bucket in full.truncated(bits).all_buckets() {
                    fnv(&mut hash, [bucket.len() as u64]);
                    fnv(&mut hash, bucket.iter().map(|&member| member as u64));
                    buckets += 1;
                }
                bits /= 2;
            }
        }
    }
    (hash, buckets)
}

fn small() -> Dataset {
    MovieLensStyleGenerator::new(GeneratorConfig::small()).generate()
}

#[test]
fn medium_four_attribute_lda_signatures_are_pinned() {
    let medium = MovieLensStyleGenerator::new(GeneratorConfig::medium()).generate();
    let ctx = context(&medium, SummarizerChoice::Lda(LdaConfig::with_topics(25)));
    assert_eq!(digest(&ctx), 0x5011_87b5_9de1_f4d3);
    assert_eq!(ctx.num_groups(), 456);
    assert_eq!(bucket_digest(&ctx), (0x2a0a_a786_899f_dc86, 6587));
}

#[test]
fn small_fast_lda_signatures_are_pinned() {
    let small = small();
    let fast = |topics| SummarizerChoice::Lda(LdaConfig::fast(topics));
    assert_eq!(context_digest(&small, fast(8)), 0xedaf_0ec3_7c35_f300);
    assert_eq!(context_digest(&small, fast(10)), 0x7f11_df15_6d26_6ea1);
}

#[test]
fn small_frequency_and_tfidf_signatures_are_pinned() {
    let small = small();
    assert_eq!(
        context_digest(&small, SummarizerChoice::FrequencyNormalized),
        0x87d7_4219_5a72_305b
    );
    assert_eq!(
        context_digest(&small, SummarizerChoice::TfIdf),
        0xd930_33d7_fbfa_46de
    );
}
