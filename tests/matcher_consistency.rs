//! Differential tests: the two-phase covering store agrees with the naive
//! reference matcher on realistic workload streams, including after
//! unsubscriptions.

use psc::core::SubsumptionChecker;
use psc::matcher::{CoveringStore, NaiveMatcher};
use psc::model::SubscriptionId;
use psc::workload::{seeded_rng, ComparisonWorkload};

fn sorted(mut v: Vec<SubscriptionId>) -> Vec<SubscriptionId> {
    v.sort_unstable_by_key(|s| s.0);
    v
}

#[test]
fn engines_agree_on_comparison_workload() {
    let wl = ComparisonWorkload::new(8);
    let schema = wl.schema();
    let mut rng = seeded_rng(42);
    let subs = wl.stream(150, &mut rng);

    let mut naive = NaiveMatcher::new();
    let mut store = CoveringStore::new(
        SubsumptionChecker::builder()
            .error_probability(1e-9)
            .build(),
    );
    for (i, s) in subs.iter().enumerate() {
        let id = SubscriptionId(i as u64);
        naive.insert(id, s.clone());
        store.insert(id, s.clone(), &mut rng);
    }

    for _ in 0..200 {
        let p = wl.publication(&schema, &mut rng);
        let a = sorted(naive.matches(&p));
        let b = sorted(store.match_publication(&p));
        assert_eq!(a, b, "covering store diverged on {p}");
    }
}

#[test]
fn engines_agree_after_random_unsubscriptions() {
    let wl = ComparisonWorkload::new(6);
    let schema = wl.schema();
    let mut rng = seeded_rng(77);
    let subs = wl.stream(80, &mut rng);

    let mut naive = NaiveMatcher::new();
    let mut store = CoveringStore::new(
        SubsumptionChecker::builder()
            .error_probability(1e-9)
            .build(),
    );
    for (i, s) in subs.iter().enumerate() {
        let id = SubscriptionId(i as u64);
        naive.insert(id, s.clone());
        store.insert(id, s.clone(), &mut rng);
    }
    // Remove a third of the subscriptions, exercising covered-entry
    // promotion in the store.
    for i in 0..80u64 {
        if i % 3 == 0 {
            let id = SubscriptionId(i);
            assert_eq!(naive.remove(id), 1);
            assert!(store.remove(id, &mut rng));
        }
    }
    assert_eq!(naive.len(), store.len());

    for _ in 0..150 {
        let p = wl.publication(&schema, &mut rng);
        let a = sorted(naive.matches(&p));
        let b = sorted(store.match_publication(&p));
        assert_eq!(a, b, "covering store diverged after removals on {p}");
    }
}

#[test]
fn covering_store_phase_skip_is_effective_on_real_streams() {
    // The point of Algorithm 5: publications matching nothing active skip
    // the covered pool entirely.
    let wl = ComparisonWorkload::new(10);
    let schema = wl.schema();
    let mut rng = seeded_rng(123);
    let subs = wl.stream(200, &mut rng);
    let mut store = CoveringStore::new(
        SubsumptionChecker::builder()
            .error_probability(1e-6)
            .build(),
    );
    for (i, s) in subs.iter().enumerate() {
        store.insert(SubscriptionId(i as u64), s.clone(), &mut rng);
    }
    assert!(
        store.covered_len() > 0,
        "stream should produce covered entries"
    );
    store.reset_stats();
    for _ in 0..300 {
        let p = wl.publication(&schema, &mut rng);
        let _ = store.match_publication(&p);
    }
    let stats = store.stats();
    assert!(
        stats.covered_skipped + stats.phase2_skipped > 0,
        "two-phase gating never fired: {stats:?}"
    );
}
