//! Golden digests of the group tag signatures a [`MiningContext`] builds.
//!
//! Each digest is FNV-1a 64 over every signature in group order, hashing each entry's
//! `(component as u64).to_le_bytes()` then `weight.to_bits().to_le_bytes()`. The
//! values pin every LDA draw and every θ float: a change to the sampler that alters
//! one assignment or reorders one floating-point sum changes the digest.

use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_data::dataset::Dataset;
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_data::group::GroupingScheme;
use tagdm_topics::lda::LdaConfig;

/// The four-attribute grouping of the benchmark's mine-heuristic workload.
const FOUR_ATTRIBUTES: [(&str, &str); 4] = [
    ("user", "gender"),
    ("user", "age"),
    ("user", "occupation"),
    ("item", "genre"),
];

fn digest(ctx: &MiningContext) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for signature in ctx.tag_signatures() {
        for &(component, weight) in signature.entries() {
            let bytes = u64::from(component)
                .to_le_bytes()
                .into_iter()
                .chain(weight.to_bits().to_le_bytes());
            for byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

fn context_digest(dataset: &Dataset, summarizer: SummarizerChoice) -> u64 {
    let groups = GroupingScheme::over(dataset, &FOUR_ATTRIBUTES)
        .unwrap()
        .min_group_size(5)
        .enumerate(dataset);
    digest(&MiningContext::build(dataset, groups, summarizer))
}

fn small() -> Dataset {
    MovieLensStyleGenerator::new(GeneratorConfig::small()).generate()
}

#[test]
fn medium_four_attribute_lda_signatures_are_pinned() {
    let medium = MovieLensStyleGenerator::new(GeneratorConfig::medium()).generate();
    let lda = SummarizerChoice::Lda(LdaConfig::with_topics(25));
    assert_eq!(context_digest(&medium, lda), 0x5011_87b5_9de1_f4d3);
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
