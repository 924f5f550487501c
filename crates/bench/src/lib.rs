//! # psc-bench
//!
//! Criterion benchmarks for the parts of the system that the repository's
//! benchmark (`psc_benchmark/`, see its `README.md`) does not time, plus
//! the workload fixtures they share with the integration tests. The bench
//! targets are under `benches/`:
//!
//! | Bench target | Measures | Paper artifact |
//! |---|---|---|
//! | `comparison_stream` | pairwise vs group stream filtering | Figures 13, 14 |
//! | `broker_network` | per-policy subscription propagation | Figures 1, 5 |
//! | `service_throughput` | sharded publish throughput, shard fan-out | serving layer |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use psc_model::{Publication, Range, Schema, Subscription};
use psc_workload::{seeded_rng, ComparisonWorkload};
use rand::Rng;

/// A realistic subscription stream plus matching publications.
pub fn stream_fixture(
    m: usize,
    subs: usize,
    pubs: usize,
) -> (Schema, Vec<Subscription>, Vec<Publication>) {
    let wl = ComparisonWorkload::new(m);
    let schema = wl.schema();
    let mut rng = seeded_rng(0xD00D);
    let stream = wl.stream(subs, &mut rng);
    let publications = (0..pubs)
        .map(|_| wl.publication(&schema, &mut rng))
        .collect();
    (schema, stream, publications)
}

/// The paper's uniform workload: attribute domains `[0, 999]`, uniformly
/// placed range starts, uniform widths up to `max_width`. Used by the
/// service-layer benchmarks and tests.
pub fn uniform_fixture(
    m: usize,
    subs: usize,
    pubs: usize,
    max_width: i64,
    seed: u64,
) -> (Schema, Vec<Subscription>, Vec<Publication>) {
    let schema = Schema::uniform(m, 0, 999);
    let mut rng = seeded_rng(seed);
    let subscriptions = (0..subs)
        .map(|_| {
            let ranges = (0..m)
                .map(|_| {
                    let lo = rng.gen_range(0i64..=999);
                    let width = rng.gen_range(0i64..=max_width);
                    Range::new(lo, (lo + width).min(999)).expect("ordered bounds")
                })
                .collect();
            Subscription::from_ranges(&schema, ranges).expect("within domain")
        })
        .collect();
    let publications = (0..pubs)
        .map(|_| {
            let values = (0..m).map(|_| rng.gen_range(0i64..=999)).collect();
            Publication::from_values(&schema, values).expect("within domain")
        })
        .collect();
    (schema, subscriptions, publications)
}

/// Number of hot "topics" the skewed workload's subscribers concentrate
/// on (point constraints on attribute `x0`).
pub const SKEWED_HOT_TOPICS: usize = 24;

/// A topic-skewed workload for content-aware routing benchmarks.
///
/// Subscribers concentrate on [`SKEWED_HOT_TOPICS`] discrete "topics":
/// each subscription pins `x0` to one hot topic value (spread across the
/// `[0, 999]` domain) and constrains the remaining attributes with
/// uniform ranges like [`uniform_fixture`]. Publications split 50/50:
/// half land on a hot topic (these have subscribers and fan out widely),
/// half draw `x0` uniformly from the whole domain (mostly topics nobody
/// subscribed to — the classic pub/sub long tail). A shard's per-
/// attribute value set over `x0` then prunes most long-tail publications
/// outright, which is the effect the `service_throughput` fan-out report
/// measures.
pub fn skewed_fixture(
    m: usize,
    subs: usize,
    pubs: usize,
    max_width: i64,
    seed: u64,
) -> (Schema, Vec<Subscription>, Vec<Publication>) {
    assert!(m >= 2, "skewed fixture needs a topic attribute plus one");
    let schema = Schema::uniform(m, 0, 999);
    let mut rng = seeded_rng(seed);
    let topic = |i: usize| 20 + 41 * i as i64; // 24 topics over [20, 963]
    let subscriptions = (0..subs)
        .map(|_| {
            let hot = topic(rng.gen_range(0usize..SKEWED_HOT_TOPICS));
            let mut ranges = vec![Range::point(hot)];
            ranges.extend((1..m).map(|_| {
                let lo = rng.gen_range(0i64..=999);
                let width = rng.gen_range(0i64..=max_width);
                Range::new(lo, (lo + width).min(999)).expect("ordered bounds")
            }));
            Subscription::from_ranges(&schema, ranges).expect("within domain")
        })
        .collect();
    let publications = (0..pubs)
        .map(|i| {
            let x0 = if i % 2 == 0 {
                topic(rng.gen_range(0usize..SKEWED_HOT_TOPICS))
            } else {
                rng.gen_range(0i64..=999)
            };
            let mut values = vec![x0];
            values.extend((1..m).map(|_| rng.gen_range(0i64..=999)));
            Publication::from_values(&schema, values).expect("within domain")
        })
        .collect();
    (schema, subscriptions, publications)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic_and_well_formed() {
        let (schema, subs, pubs) = stream_fixture(10, 50, 10);
        assert_eq!(schema.len(), 10);
        assert_eq!(subs.len(), 50);
        assert_eq!(pubs.len(), 10);

        let (schema, subs, pubs) = uniform_fixture(4, 30, 5, 300, 7);
        assert_eq!(schema.len(), 4);
        assert_eq!(subs.len(), 30);
        assert_eq!(pubs.len(), 5);
        let (_, subs2, _) = uniform_fixture(4, 30, 5, 300, 7);
        assert_eq!(subs, subs2, "fixture is deterministic per seed");

        let (schema, subs, pubs) = skewed_fixture(4, 40, 10, 250, 9);
        assert_eq!(schema.len(), 4);
        assert_eq!(subs.len(), 40);
        assert_eq!(pubs.len(), 10);
        for s in &subs {
            let r = s.ranges()[0];
            assert_eq!(r.lo(), r.hi(), "topic attribute is a point");
            assert_eq!((r.lo() - 20) % 41, 0, "topic drawn from the hot set");
        }
        let (_, subs2, _) = skewed_fixture(4, 40, 10, 250, 9);
        assert_eq!(subs, subs2, "skewed fixture is deterministic per seed");
    }
}
