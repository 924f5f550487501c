//! End-to-end tests of the sharded TCP service: concurrent subscribers and
//! publishers drive a real `ServiceServer` over loopback TCP, and the
//! shard-merged match results are compared against `matcher::naive` ground
//! truth on the same workload, including after subscribe/unsubscribe churn
//! that overlaps publishing. The front end's `stats` must count every
//! publish exactly once. Every scenario runs twice — once over the
//! JSON line protocol and once over the length-prefixed binary protocol —
//! so both wire formats are held to the same ground truth.

use psc::matcher::NaiveMatcher;
use psc::model::{Publication, Schema, Subscription, SubscriptionId};
use psc::service::{ClientProtocol, ServiceClient, ServiceConfig, ServiceServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// The paper's uniform workload, shared with the `service_throughput`
/// bench so test and bench drive the same distribution.
fn uniform_workload(
    m: usize,
    subs: usize,
    pubs: usize,
    seed: u64,
) -> (Schema, Vec<Subscription>, Vec<Publication>) {
    psc_bench::uniform_fixture(m, subs, pubs, 300, seed)
}

/// Connects speaking `proto` with the default I/O timeout — the one
/// knob these scenarios vary.
fn connect(
    addr: std::net::SocketAddr,
    proto: ClientProtocol,
) -> Result<ServiceClient, psc::service::ClientError> {
    ServiceClient::connect_with_protocol(addr, ServiceConfig::default().io_timeout, proto)
}

/// Naive match sets for `publications` over the live `(id, subscription)`
/// pairs.
fn ground_truth<'a>(
    live: impl IntoIterator<Item = (usize, &'a Subscription)>,
    publications: &[Publication],
) -> Vec<Vec<SubscriptionId>> {
    let mut naive = NaiveMatcher::new();
    for (i, s) in live {
        naive.insert(SubscriptionId(i as u64), s.clone());
    }
    publications
        .iter()
        .map(|p| {
            let mut ids = naive.matches(p);
            ids.sort_unstable();
            ids
        })
        .collect()
}

fn concurrent_tcp_clients_match_naive_ground_truth(proto: ClientProtocol) {
    let (schema, subs, pubs) = uniform_workload(4, 300, 80, 0xE2E);
    let truth = ground_truth(subs.iter().enumerate(), &pubs);

    let server = ServiceServer::bind(
        "127.0.0.1:0",
        schema.clone(),
        ServiceConfig {
            shards: 4,
            batch_size: 16,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Phase 1: four concurrent subscriber connections, interleaved ids.
    let subs = Arc::new(subs);
    let mut joins = Vec::new();
    for t in 0..4usize {
        let subs = Arc::clone(&subs);
        joins.push(std::thread::spawn(move || {
            let mut client = connect(addr, proto).expect("connect subscriber");
            for i in (t..subs.len()).step_by(4) {
                client
                    .subscribe(SubscriptionId(i as u64), &subs[i])
                    .expect("subscribe over TCP");
            }
            client.flush().expect("flush tail batch");
        }));
    }
    for join in joins {
        join.join().expect("subscriber thread");
    }

    // Phase 2: two concurrent publisher connections, disjoint publication
    // slices; each must observe exactly the naive match set.
    let pubs = Arc::new(pubs);
    let truth = Arc::new(truth);
    let mut joins = Vec::new();
    for t in 0..2usize {
        let pubs = Arc::clone(&pubs);
        let truth = Arc::clone(&truth);
        joins.push(std::thread::spawn(move || {
            let mut client = connect(addr, proto).expect("connect publisher");
            for i in (t..pubs.len()).step_by(2) {
                let matched = client.publish(&pubs[i]).expect("publish over TCP");
                assert_eq!(
                    matched, truth[i],
                    "shard-merged match set diverged from naive ground truth on publication {i}"
                );
            }
        }));
    }
    for join in joins {
        join.join().expect("publisher thread");
    }

    // The service really sharded the store and saw the whole workload,
    // and its front end counted every publish exactly once: one e2e
    // sample and one router ingress each, decoded by the protocol the
    // clients spoke and by no other.
    let mut client = connect(addr, proto).expect("connect inspector");
    let (metrics, _, latency) = client.stats_full().expect("stats over TCP");
    let latency = latency.expect("TCP server reports latency stats");
    assert_eq!(latency.end_to_end.count, pubs.len() as u64);
    assert_eq!(metrics.publications_total, pubs.len() as u64);
    let (spoken, unspoken) = match proto {
        ClientProtocol::Json => (latency.decode.count, latency.decode_binary.count),
        ClientProtocol::Binary => (latency.decode_binary.count, latency.decode.count),
    };
    assert!(spoken > 0, "no {proto:?} request reached the decode stage");
    assert_eq!(
        unspoken, 0,
        "a {proto:?}-only server decoded the other protocol"
    );
    assert_eq!(metrics.shards.len(), 4);
    let totals = metrics.totals();
    assert_eq!(totals.subscriptions_ingested, 300);
    // Every publication either visited a shard or was pruned away from it
    // by the shard's routing summary — the two counters partition the
    // 80-publication fan-out exactly, on every shard.
    for (i, shard) in metrics.shards.iter().enumerate() {
        assert_eq!(
            shard.publications_processed + shard.shards_pruned,
            80,
            "shard {i}: processed + pruned must cover every publication"
        );
    }
    assert!(totals.publications_processed as usize <= 80);
    // Content-aware placement is the default: shard population follows
    // attribute-space clusters and may be uneven (a shard can even stay
    // empty on a workload its clusters never touch), but the router's
    // directory must have tracked every subscription and more than one
    // shard must carry load.
    assert!(metrics.placement.enabled);
    assert_eq!(metrics.placement.directory_entries, 300);
    assert!(
        metrics
            .shards
            .iter()
            .filter(|s| s.subscriptions_ingested > 0)
            .count()
            > 1,
        "placement routed everything to a single shard: {metrics}"
    );

    server.stop();
}

fn interleaved_subscribe_publish_and_unsubscribe_stay_consistent(proto: ClientProtocol) {
    // Ids below FLEET are subscribed once and stay; the rest are churned
    // in waves: subscribed, flushed, and every other one unsubscribed.
    const FLEET: usize = 120;
    const WAVES: usize = 4;
    const WAVE: usize = 10;
    let churned_out = |i: usize| i >= FLEET && (i - FLEET).is_multiple_of(2);
    let (schema, subs, pubs) = uniform_workload(3, FLEET + WAVES * WAVE, 200, 0xFACE);
    assert!(
        (0..subs.len())
            .filter(|&i| churned_out(i))
            .any(|i| pubs.iter().any(|p| subs[i].matches(p))),
        "no unsubscribed churn subscription matches a publication: the check is vacuous"
    );

    let server = ServiceServer::bind(
        "127.0.0.1:0",
        schema.clone(),
        ServiceConfig {
            shards: 3,
            batch_size: 8,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Subscribers, a churner and publishers run at the same time: match
    // contents are racy by design, but every returned id must be a
    // subscribed id and the protocol must never wedge.
    let subs = Arc::new(subs);
    let pubs = Arc::new(pubs);
    let mut joins = Vec::new();
    for t in 0..3usize {
        let subs = Arc::clone(&subs);
        joins.push(std::thread::spawn(move || {
            let mut client = connect(addr, proto).expect("connect subscriber");
            for i in (t..FLEET).step_by(3) {
                client
                    .subscribe(SubscriptionId(i as u64), &subs[i])
                    .expect("subscribe over TCP");
            }
        }));
    }
    // The churner starts with the publishers, and they keep publishing
    // until its last wave is done, so every wave overlaps publishing.
    let start = Arc::new(Barrier::new(3));
    let churning = Arc::new(AtomicBool::new(true));
    {
        let (subs, start, churning) =
            (Arc::clone(&subs), Arc::clone(&start), Arc::clone(&churning));
        joins.push(std::thread::spawn(move || {
            let mut client = connect(addr, proto).expect("connect churner");
            start.wait();
            for wave in 0..WAVES {
                let ids = FLEET + wave * WAVE..FLEET + (wave + 1) * WAVE;
                for i in ids.clone() {
                    client
                        .subscribe(SubscriptionId(i as u64), &subs[i])
                        .expect("churn subscribe");
                }
                client.flush().expect("churn flush");
                for i in ids.filter(|&i| churned_out(i)) {
                    let removed = client
                        .unsubscribe(SubscriptionId(i as u64))
                        .expect("churn unsubscribe");
                    assert!(removed, "flushed churn subscription {i} was not found");
                }
            }
            churning.store(false, Ordering::Release);
        }));
    }
    let max_id = subs.len() as u64;
    for _ in 0..2 {
        let (pubs, start, churning) =
            (Arc::clone(&pubs), Arc::clone(&start), Arc::clone(&churning));
        joins.push(std::thread::spawn(move || {
            let mut client = connect(addr, proto).expect("connect publisher");
            start.wait();
            loop {
                let last_pass = !churning.load(Ordering::Acquire);
                for p in pubs.iter() {
                    let matched = client.publish(p).expect("publish over TCP");
                    for id in matched {
                        assert!(id.0 < max_id, "match returned an id never subscribed");
                    }
                }
                if last_pass {
                    break;
                }
            }
        }));
    }
    for join in joins {
        join.join().expect("worker thread");
    }

    // Quiesced: now the service must agree with naive ground truth over
    // the fleet plus the churn survivors, and unsubscription must remove
    // matches.
    let live = subs.iter().enumerate().filter(|&(i, _)| !churned_out(i));
    let truth = ground_truth(live, &pubs);
    let mut client = connect(addr, proto).expect("connect checker");
    for (i, p) in pubs.iter().enumerate() {
        assert_eq!(client.publish(p).expect("publish"), truth[i]);
    }

    let victim = truth
        .iter()
        .enumerate()
        .find_map(|(i, ids)| ids.first().map(|id| (i, *id)))
        .expect("some publication matched something");
    assert!(client.unsubscribe(victim.1).expect("unsubscribe"));
    let after = client
        .publish(&pubs[victim.0])
        .expect("publish after unsubscribe");
    assert!(!after.contains(&victim.1), "unsubscribed id still matching");

    server.stop();
}

#[test]
fn concurrent_tcp_clients_match_naive_ground_truth_json() {
    concurrent_tcp_clients_match_naive_ground_truth(ClientProtocol::Json);
}

#[test]
fn concurrent_tcp_clients_match_naive_ground_truth_binary() {
    concurrent_tcp_clients_match_naive_ground_truth(ClientProtocol::Binary);
}

#[test]
fn interleaved_subscribe_publish_and_unsubscribe_stay_consistent_json() {
    interleaved_subscribe_publish_and_unsubscribe_stay_consistent(ClientProtocol::Json);
}

#[test]
fn interleaved_subscribe_publish_and_unsubscribe_stay_consistent_binary() {
    interleaved_subscribe_publish_and_unsubscribe_stay_consistent(ClientProtocol::Binary);
}
