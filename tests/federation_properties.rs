//! Property tests of the federated mesh's subscription aggregation:
//! over random subscription streams, (a) mesh delivery equals a flat
//! single-node reference, and (b) the covered-forwarding invariant holds
//! on every link — a subscription withheld from an uplink is always
//! exactly subsumed by one that was forwarded. A deterministic test
//! additionally pins the control-traffic win: on a covering-heavy
//! workload, every accepted subscription is forwarded or suppressed
//! exactly once, and the transit node receives strictly fewer forwarded
//! subscriptions than the edge node accepted.

use proptest::prelude::*;
use psc::broker::{BrokerId, CoveringPolicy};
use psc::core::PairwiseChecker;
use psc::model::{Publication, Range, Schema, Subscription, SubscriptionId};
use psc::service::federation::{FederatedNode, FederationConfig};
use psc::service::{PubSubService, ServiceClient, ServiceConfig};
use std::net::SocketAddr;
use std::time::Duration;

fn schema2() -> Schema {
    Schema::uniform(2, 0, 49)
}

fn dummy_addr() -> SocketAddr {
    "127.0.0.1:9".parse().expect("addr")
}

fn fed_config(node_id: usize, peers: &[usize]) -> FederationConfig {
    FederationConfig {
        node_id: BrokerId(node_id),
        listen: "127.0.0.1:0".to_string(),
        peers: peers.iter().map(|&p| (BrokerId(p), dummy_addr())).collect(),
        policy: CoveringPolicy::Pairwise,
        seed: 11,
        // Lazy reconnects only: property cases are short-lived and the
        // background thread would just burn the single test CPU.
        heartbeat_interval: None,
        fail_after_ops: None,
    }
}

fn service_config() -> ServiceConfig {
    let mut config = ServiceConfig::with_shards(1);
    config.io_timeout = Some(Duration::from_secs(5));
    config
}

fn start_chain() -> (FederatedNode, FederatedNode, FederatedNode) {
    let a = FederatedNode::start(schema2(), service_config(), fed_config(0, &[1])).expect("A");
    let b = FederatedNode::start(schema2(), service_config(), fed_config(1, &[0, 2])).expect("B");
    let c = FederatedNode::start(schema2(), service_config(), fed_config(2, &[1])).expect("C");
    a.set_peer_addr(BrokerId(1), b.local_addr());
    b.set_peer_addr(BrokerId(0), a.local_addr());
    b.set_peer_addr(BrokerId(2), c.local_addr());
    c.set_peer_addr(BrokerId(1), b.local_addr());
    (a, b, c)
}

/// Asserts the covered-forwarding invariant on one uplink: every
/// suppressed subscription must be exactly covered by the forwarded set.
fn assert_covered_forwarding(node: &FederatedNode, uplink: BrokerId) {
    let (forwarded, suppressed) = node.link_tables(uplink);
    let forwarded_subs: Vec<Subscription> = forwarded.iter().map(|(_, s)| s.clone()).collect();
    for (id, sub) in &suppressed {
        assert!(
            PairwiseChecker.is_covered(sub, &forwarded_subs),
            "suppressed subscription {id:?} is not covered by any forwarded one \
             on the {} -> {uplink} link",
            node.node_id()
        );
    }
}

prop_compose! {
    fn arb_sub()(lo0 in 0i64..50, w0 in 0i64..25, lo1 in 0i64..50, w1 in 0i64..25)
        -> Subscription {
        let schema = schema2();
        Subscription::from_ranges(&schema, vec![
            Range::new(lo0, (lo0 + w0).min(49)).unwrap(),
            Range::new(lo1, (lo1 + w1).min(49)).unwrap(),
        ]).unwrap()
    }
}

proptest! {
    // Every case spins three real TCP nodes on one CPU; keep the count
    // small and the streams short.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mesh_delivery_equals_flat_reference(
        subs in proptest::collection::vec((arb_sub(), 0usize..3), 1..10),
        pubs in proptest::collection::vec((0i64..50, 0i64..50, 0usize..3), 1..5),
        kill_mask in proptest::collection::vec(proptest::bool::ANY, 1..10),
    ) {
        let schema = schema2();
        let (a, b, c) = start_chain();
        let nodes = [&a, &b, &c];
        let mut clients: Vec<ServiceClient> = nodes
            .iter()
            .map(|n| ServiceClient::connect_binary(n.local_addr()).expect("connect"))
            .collect();

        // The flat reference: every subscription in one plain service.
        let reference = PubSubService::open(schema.clone(), service_config()).expect("reference");

        for (i, (sub, at)) in subs.iter().enumerate() {
            let id = SubscriptionId(i as u64);
            clients[at % 3].subscribe(id, sub).expect("subscribe");
            reference.subscribe(id, sub.clone()).expect("reference subscribe");
        }
        // Unsubscribe a random subset — promotions must keep coverage.
        for (i, kill) in kill_mask.iter().enumerate() {
            if *kill && i < subs.len() {
                let id = SubscriptionId(i as u64);
                let at = subs[i].1 % 3;
                prop_assert!(clients[at].unsubscribe(id).expect("unsubscribe"));
                prop_assert!(reference.unsubscribe(id));
            }
        }
        reference.flush();

        // (a) Delivery equivalence from every publish point.
        for (x, y, at) in pubs {
            let p = Publication::from_values(&schema, vec![x, y]).unwrap();
            let mut got = clients[at % 3].publish(&p).expect("publish");
            got.sort_unstable();
            let mut want = reference.publish(&p).expect("reference publish");
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        // (b) Covered-forwarding invariant on every directed link.
        assert_covered_forwarding(&a, BrokerId(1));
        assert_covered_forwarding(&c, BrokerId(1));
        assert_covered_forwarding(&b, BrokerId(0));
        assert_covered_forwarding(&b, BrokerId(2));

        drop(clients);
        a.stop();
        b.stop();
        c.stop();
    }
}

/// On a covering-heavy workload (disjoint nested families at the edge),
/// every accepted subscription is one uplink decision, forwarded or
/// suppressed, and at least a quarter are suppressed. The
/// forwarded/received control-message ratio at the transit node stays
/// strictly below 1. Publishes from the far end still reach every nested
/// member, and that node's front end counts each publish once.
#[test]
fn covering_heavy_workload_suppresses_control_traffic() {
    const CENTERS: [i64; 3] = [8, 24, 40];
    const DEPTH: i64 = 6;
    let families = CENTERS.len() as u64;
    let schema = schema2();
    let (a, b, c) = start_chain();
    let mut edge = ServiceClient::connect_binary(c.local_addr()).expect("connect C");

    // Within a family each subscription covers the next; no family
    // overlaps another.
    let mut accepted = 0u64;
    for center in CENTERS {
        for j in 0..DEPTH {
            let half = 7 - j;
            let range = Range::new(center - half, center + half).unwrap();
            let sub = Subscription::from_ranges(&schema, vec![range, range]).unwrap();
            edge.subscribe(SubscriptionId(accepted), &sub)
                .expect("subscribe");
            accepted += 1;
        }
    }

    let edge_stats = c.federation_stats();
    assert_eq!(
        edge_stats.subs_forwarded + edge_stats.subs_suppressed,
        accepted,
        "one uplink decision per accepted subscription"
    );
    assert!(
        edge_stats.subs_suppressed * 4 >= accepted,
        "aggregation suppressed only {} of {accepted}",
        edge_stats.subs_suppressed
    );
    assert_eq!(
        edge_stats.subs_forwarded, families,
        "only each family's outermost subscription crosses the uplink"
    );

    let transit_stats = b.federation_stats();
    assert!(
        transit_stats.subs_received < accepted,
        "forwarded/received ratio must be < 1.0: transit saw {} of {accepted}",
        transit_stats.subs_received
    );
    assert_eq!(transit_stats.subs_received, families);

    // Deliveries still reach the innermost subscriptions from node A.
    let mut publisher = ServiceClient::connect_binary(a.local_addr()).expect("connect A");
    for center in CENTERS {
        let p = Publication::from_values(&schema, vec![center, center]).unwrap();
        let got = publisher.publish(&p).expect("publish");
        assert_eq!(
            got.len(),
            DEPTH as usize,
            "all nested subscriptions match the center"
        );
    }
    let (metrics, _, latency) = publisher.stats_full().expect("stats");
    let latency = latency.expect("federated node reports latency stats");
    assert_eq!(
        latency.end_to_end.count, families,
        "one e2e sample per publish"
    );
    assert_eq!(metrics.publications_total, families);

    drop(edge);
    drop(publisher);
    a.stop();
    b.stop();
    c.stop();
}
