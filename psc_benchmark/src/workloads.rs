//! The four workloads: seed → population + fixed op list + reference
//! replies, pre-encoded as wire bytes.
//!
//! Everything the servers receive is generated here from `--seed`; the
//! servers see only the encoded requests. The reference reply of every
//! publish is computed with `Subscription::matches` over the subscriptions
//! live at that point of the op list, so a reply is checked against the
//! model's definition of a match, not against another matcher.

use psc_model::wire::{PublicationDto, SubscriptionDto};
use psc_model::{Publication, Range, Schema, Subscription, SubscriptionId};
use psc_service::wire::{Request, Response};
use psc_workload::ComparisonWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The seed used when `--seed` is absent; [`default_seed_digest`] records
/// the inputs it must generate.
pub const DEFAULT_SEED: u64 = 2006;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["match_bound", "wire_bound", "churn_durable", "mesh_2hop"];

/// `inputs_digest` of each workload at [`DEFAULT_SEED`] and full scale. A
/// run at the default seed fails if it generates anything else, so an edit
/// to `psc-workload`, `vendor/rand` or the codecs cannot silently change
/// the traffic.
pub fn default_seed_digest(workload: &str) -> Option<u64> {
    match workload {
        "match_bound" => Some(0xF0DF_BA14_4F91_5EB9),
        "wire_bound" => Some(0x04A4_B014_F9AD_9016),
        "churn_durable" => Some(0xC07D_D6D6_62EB_D6D9),
        "mesh_2hop" => Some(0xCFD5_A364_DE2F_4CB8),
        _ => None,
    }
}

/// Full size, or the `--smoke` size (1/20th populations and op lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn of(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => full / 20,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Binary,
    Json,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Subscribe,
    Publish,
    Unsubscribe,
}

/// What serves the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `ServiceServer`. `placement` off hashes subscriptions to shards
    /// instead of clustering them by content.
    Single {
        shards: usize,
        durable: bool,
        placement: bool,
    },
    /// Three `FederatedNode`s in a chain A–B–C, one shard each:
    /// subscribers at C, publisher at A.
    Chain3,
}

#[derive(Debug, Clone)]
pub enum Op {
    Subscribe(SubscriptionId, Subscription),
    Publish(Publication),
    Unsubscribe(SubscriptionId),
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Subscribe(..) => OpKind::Subscribe,
            Op::Publish(_) => OpKind::Publish,
            Op::Unsubscribe(_) => OpKind::Unsubscribe,
        }
    }
}

/// One workload's generated inputs.
pub struct Workload {
    pub name: &'static str,
    pub schema: Schema,
    pub topology: Topology,
    pub proto: Proto,
    /// Requests the load generator keeps in flight in the throughput phase.
    pub window: usize,
    /// The op kind whose unpipelined round trip is `rtt_p50_us`.
    pub latency_op: OpKind,
    /// Ops of one latency-phase slice: a prefix of `ops` that leaves the
    /// servers' state as it found it.
    pub latency_ops: usize,
    /// Whether the routing summaries must prune every shard visit of every
    /// publication (checked against the servers' counters after the run).
    pub fully_pruned: bool,
    /// Loaded during set-up, in this order.
    pub population: Vec<(SubscriptionId, Subscription)>,
    /// One slice: the same ops, in the same order, every time; it leaves
    /// the population as it found it.
    pub ops: Vec<Op>,
}

/// SplitMix64: the benchmark's own generator, so the uniform workloads
/// depend on no other crate's random stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

fn range(lo: i64, hi: i64) -> Range {
    Range::new(lo, hi).expect("generator builds lo <= hi")
}

/// A range of width 1..=100 placed uniformly in `0..=999`.
fn narrow_range(rng: &mut SplitMix64) -> Range {
    let width = rng.between(1, 100);
    let lo = rng.between(0, 1000 - width);
    range(lo, lo + width - 1)
}

fn subscription(schema: &Schema, ranges: Vec<Range>) -> Subscription {
    Subscription::from_ranges(schema, ranges).expect("generated ranges lie in the domain")
}

fn publication(schema: &Schema, values: Vec<i64>) -> Publication {
    Publication::from_values(schema, values).expect("generated values lie in the domain")
}

/// `count` distinct publications, each drawn by `draw`.
fn distinct_publications(
    schema: &Schema,
    count: usize,
    mut draw: impl FnMut() -> Vec<i64>,
) -> Vec<Op> {
    let mut seen = BTreeSet::new();
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let values = draw();
        if seen.insert(values.clone()) {
            ops.push(Op::Publish(publication(schema, values)));
        }
    }
    ops
}

/// Matching does nearly all the work: 20 000 uniform subscriptions of
/// width <= 100 on each of 4 attributes, 2 000 uniform publications.
///
/// Content-aware placement is off here, and only here. With it on, how
/// many of the two shards a publication visits (1.6 to 2.0 on average) is
/// decided by the greedy clustering of the first few hundred subscriptions,
/// so throughput follows the seed by +-9 %; hashed, every shard's summary
/// spans the whole domain and every publication visits both shards.
fn match_bound(seed: u64, scale: Scale) -> Workload {
    let schema = Schema::uniform(4, 0, 999);
    let mut rng = SplitMix64::new(seed);
    let population = (1..=scale.of(20_000) as u64)
        .map(|id| {
            let ranges = (0..4).map(|_| narrow_range(&mut rng)).collect();
            (SubscriptionId(id), subscription(&schema, ranges))
        })
        .collect();
    let ops = distinct_publications(&schema, scale.of(2_000), || {
        (0..4).map(|_| rng.between(0, 999)).collect()
    });
    Workload {
        name: "match_bound",
        topology: Topology::Single {
            shards: 2,
            durable: false,
            placement: false,
        },
        proto: Proto::Binary,
        window: 32,
        latency_op: OpKind::Publish,
        latency_ops: ops.len().min(1_000),
        fully_pruned: false,
        population,
        ops,
        schema,
    }
}

/// The matcher does nothing: every subscription pins `x0` to one of 24 hot
/// topics and no publication is on a hot topic, so both shard summaries
/// prune every publication and every reply is an empty match set.
fn wire_bound(seed: u64, scale: Scale) -> Workload {
    const ARITY: usize = 12;
    const TOPICS: usize = 24;
    let schema = Schema::uniform(ARITY, 0, 999);
    let mut rng = SplitMix64::new(seed);
    let mut hot = BTreeSet::new();
    while hot.len() < TOPICS {
        hot.insert(rng.between(0, 999));
    }
    let topics: Vec<i64> = hot.iter().copied().collect();
    let cold: Vec<i64> = (0..=999).filter(|v| !hot.contains(v)).collect();
    let population = (1..=scale.of(20_000) as u64)
        .map(|id| {
            let topic = topics[rng.below(TOPICS as u64) as usize];
            let mut ranges = vec![Range::point(topic)];
            ranges.extend((1..ARITY).map(|_| narrow_range(&mut rng)));
            (SubscriptionId(id), subscription(&schema, ranges))
        })
        .collect();
    let ops = distinct_publications(&schema, scale.of(50_000), || {
        let mut values = vec![cold[rng.below(cold.len() as u64) as usize]];
        values.extend((1..ARITY).map(|_| rng.between(0, 999)));
        values
    });
    Workload {
        name: "wire_bound",
        topology: Topology::Single {
            shards: 2,
            durable: false,
            placement: true,
        },
        proto: Proto::Binary,
        window: 256,
        latency_op: OpKind::Publish,
        latency_ops: ops.len().min(1_000),
        fully_pruned: true,
        population,
        ops,
        schema,
    }
}

/// Why a churned subscription is sure to be admitted as covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoverCertificate {
    /// One member of the population contains it.
    Pairwise,
    /// No single member contains it, but the members that contain it on
    /// every attribute but one jointly span it on that attribute.
    Group,
}

/// An exact, cheap sufficient condition for `sub` to be covered by the
/// union of `population`. The checker never answers "not covered" without
/// a witness point, so a certified subscription is always parked as
/// covered, never made active.
fn cover_certificate(
    sub: &Subscription,
    population: &[(SubscriptionId, Subscription)],
) -> Option<CoverCertificate> {
    let arity = sub.arity();
    let mut spans: Vec<Vec<(i64, i64)>> = vec![Vec::new(); arity];
    for (_, member) in population {
        let mut missed =
            (0..arity).filter(|&d| !member.ranges()[d].contains_range(&sub.ranges()[d]));
        match (missed.next(), missed.next()) {
            (None, _) => return Some(CoverCertificate::Pairwise),
            (Some(d), None) => {
                let r = &member.ranges()[d];
                spans[d].push((r.lo(), r.hi()));
            }
            _ => {}
        }
    }
    let spanned = |d: usize| {
        let target = &sub.ranges()[d];
        let mut intervals = spans[d].clone();
        intervals.sort_unstable();
        let mut reach = target.lo() - 1;
        for (lo, hi) in intervals {
            if lo > reach + 1 {
                break;
            }
            reach = reach.max(hi);
        }
        reach >= target.hi()
    };
    (0..arity).any(spanned).then_some(CoverCertificate::Group)
}

/// The write path beside the read path, on the paper's section 6.4 stream:
/// a slice subscribes 100 fresh subscriptions, publishes 100 times and
/// unsubscribes the 100 again, over JSON, against a write-ahead log.
///
/// The population is the stream at a fixed seed — the data set the broker
/// holds — and `--seed` draws the traffic against it: which subscriptions
/// churn and what is published. Drawn afresh per seed, the 10 000 settle
/// into stores whose active set and group-covered pool differ by +-5 %,
/// and match cost, set-up time and heap follow them (spread 7 %, 27 %,
/// 15 %); what would be measured is the draw, not the program.
///
/// The 100 are the next subscriptions of the stream that carry a
/// [`CoverCertificate`], 50 of each kind. Uncertified, about one seed in
/// four draws a subscription that is admitted as *active*; unsubscribing
/// it re-checks every group-covered entry of the store (~100 ms, against
/// ~50 ms for the whole rest of the slice), and the workload measures
/// whether the seed was lucky. Certified, every slice runs the pairwise
/// fast path 50 times and the sampling path 50 times, whatever the seed.
///
/// The 100 publications are a stratified sample: of 2 000 drawn from the
/// stream's publication distribution, every 20th by match count. A match
/// set is 0 to ~3 000 ids here and its size decides what a publish costs,
/// so a plain sample of 100 moves throughput by several percent per seed.
fn churn_durable(seed: u64, scale: Scale) -> Workload {
    const CHURNED_PER_KIND: usize = 50;
    const PUBLISHES: usize = 100;
    const PUBLISH_STRATUM: usize = 20;
    const POPULATION_SEED: u64 = 64;
    let generator = ComparisonWorkload::new(10);
    let schema = generator.schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let base = scale.of(10_000);
    let population: Vec<_> = generator
        .stream(base, &mut StdRng::seed_from_u64(POPULATION_SEED))
        .into_iter()
        .zip(1..)
        .map(|(sub, id)| (SubscriptionId(id), sub))
        .collect();
    let (mut pairwise, mut grouped) = (Vec::new(), Vec::new());
    let mut drawn = 0;
    while pairwise.len() < CHURNED_PER_KIND || grouped.len() < CHURNED_PER_KIND {
        drawn += 1;
        assert!(
            drawn <= 100_000,
            "the stream yields too few certified subscriptions"
        );
        let sub = generator.subscription(&schema, &mut rng);
        let quota = match cover_certificate(&sub, &population) {
            Some(CoverCertificate::Pairwise) => &mut pairwise,
            Some(CoverCertificate::Group) => &mut grouped,
            None => continue,
        };
        if quota.len() < CHURNED_PER_KIND {
            quota.push(sub);
        }
    }
    // Alternate the two kinds, so any prefix of the slice has the mix.
    let fresh: Vec<_> = pairwise
        .into_iter()
        .zip(grouped)
        .flat_map(|(p, g)| [p, g])
        .zip(base as u64 + 1..)
        .map(|(sub, id)| (SubscriptionId(id), sub))
        .collect();
    let mut ops = Vec::with_capacity(2 * fresh.len() + PUBLISHES);
    ops.extend(
        fresh
            .iter()
            .map(|(id, sub)| Op::Subscribe(*id, sub.clone())),
    );
    let mut pool: Vec<(usize, Publication)> = (0..PUBLISHES * PUBLISH_STRATUM)
        .map(|_| {
            let p = generator.publication(&schema, &mut rng);
            let matches = population.iter().filter(|(_, sub)| sub.matches(&p)).count();
            (matches, p)
        })
        .collect();
    pool.sort_by(|a, b| (a.0, a.1.values()).cmp(&(b.0, b.1.values())));
    let mut sample: Vec<Publication> = pool
        .into_iter()
        .skip(PUBLISH_STRATUM / 2)
        .step_by(PUBLISH_STRATUM)
        .map(|(_, p)| p)
        .collect();
    // Back into an order that does not sort replies by size.
    for i in (1..sample.len()).rev() {
        sample.swap(i, rng.gen_range(0..=i));
    }
    ops.extend(sample.into_iter().map(Op::Publish));
    ops.extend(fresh.iter().map(|(id, _)| Op::Unsubscribe(*id)));
    Workload {
        name: "churn_durable",
        topology: Topology::Single {
            shards: 2,
            durable: true,
            placement: true,
        },
        proto: Proto::Json,
        window: 1,
        latency_op: OpKind::Unsubscribe,
        latency_ops: ops.len(),
        fully_pruned: false,
        population,
        ops,
        schema,
    }
}

/// Every publication crosses two broker hops: 400 families of 10 nested
/// subscriptions at C (the widest member of each is forwarded, the other
/// nine are suppressed by covering), publications at A drawn inside a
/// random family's level-j box.
fn mesh_2hop(seed: u64, scale: Scale) -> Workload {
    const MEMBERS: i64 = 10;
    const SLOT: i64 = 250;
    let schema = Schema::uniform(4, 0, 99_999);
    let mut rng = SplitMix64::new(seed);
    let families = scale.of(400) as i64;
    // Family f owns the x0 slot [250 f, 250 f + 249], so families never
    // overlap; level j shrinks every attribute's range around its centre.
    let level_box = |f: i64, centres: &[i64; 3], j: i64| -> Vec<(i64, i64)> {
        let mut bounds = vec![(f * SLOT + 10 * j, f * SLOT + SLOT - 1 - 10 * j)];
        let half = 10_000 - 800 * j;
        bounds.extend(centres.iter().map(|c| (c - half, c + half)));
        bounds
    };
    let centres: Vec<[i64; 3]> = (0..families)
        .map(|_| {
            [
                rng.between(20_000, 80_000),
                rng.between(20_000, 80_000),
                rng.between(20_000, 80_000),
            ]
        })
        .collect();
    let mut population = Vec::with_capacity((families * MEMBERS) as usize);
    for f in 0..families {
        for j in 0..MEMBERS {
            let ranges = level_box(f, &centres[f as usize], j)
                .into_iter()
                .map(|(lo, hi)| range(lo, hi))
                .collect();
            let id = SubscriptionId((f * MEMBERS + j + 1) as u64);
            population.push((id, subscription(&schema, ranges)));
        }
    }
    let ops = distinct_publications(&schema, scale.of(2_000), || {
        let f = rng.below(families as u64) as i64;
        let j = rng.below(MEMBERS as u64) as i64;
        level_box(f, &centres[f as usize], j)
            .into_iter()
            .map(|(lo, hi)| rng.between(lo, hi))
            .collect()
    });
    Workload {
        name: "mesh_2hop",
        topology: Topology::Chain3,
        proto: Proto::Binary,
        window: 32,
        latency_op: OpKind::Publish,
        latency_ops: ops.len().min(1_000),
        fully_pruned: false,
        population,
        ops,
        schema,
    }
}

/// Generates the named workload, or `None` for an unknown name.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    match name {
        "match_bound" => Some(match_bound(seed, scale)),
        "wire_bound" => Some(wire_bound(seed, scale)),
        "churn_durable" => Some(churn_durable(seed, scale)),
        "mesh_2hop" => Some(mesh_2hop(seed, scale)),
        _ => None,
    }
}

/// Consecutive wire frames in one buffer.
#[derive(Default)]
pub struct Frames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// Frame `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i]]
    }

    /// Frames `from..to` as one contiguous byte run.
    pub fn run(&self, from: usize, to: usize) -> &[u8] {
        if from >= to {
            return &[];
        }
        &self.bytes[self.start(from)..self.ends[to - 1]]
    }

    fn push_request(&mut self, proto: Proto, request: &Request) {
        match proto {
            Proto::Binary => request.encode_binary(&mut self.bytes),
            Proto::Json => {
                self.bytes.extend_from_slice(request.encode().as_bytes());
                self.bytes.push(b'\n');
            }
        }
        self.ends.push(self.bytes.len());
    }

    fn push_response(&mut self, proto: Proto, response: &Response) {
        match proto {
            Proto::Binary => response.encode_binary(&mut self.bytes),
            Proto::Json => response.encode_json_into(&mut self.bytes),
        }
        self.ends.push(self.bytes.len());
    }
}

/// Encodes one request as a stand-alone frame.
pub fn encode_request(proto: Proto, request: &Request) -> Vec<u8> {
    let mut frames = Frames::default();
    frames.push_request(proto, request);
    frames.bytes
}

/// Encodes one response as a stand-alone frame.
pub fn encode_response(proto: Proto, response: &Response) -> Vec<u8> {
    let mut frames = Frames::default();
    frames.push_response(proto, response);
    frames.bytes
}

/// A workload's traffic as wire bytes, with the reply every request must
/// draw.
pub struct Compiled {
    /// One subscribe per population member.
    pub setup: Frames,
    /// The reply to each set-up request.
    pub setup_expected: Frames,
    /// One request per op of the slice.
    pub ops: Frames,
    /// The reference reply to each op.
    pub expected: Frames,
    pub kinds: Vec<OpKind>,
    /// Matched ids the reference expects over one slice.
    pub expected_notifications: u64,
    /// FNV-1a over every byte above: population, op list, reference set.
    pub digest: u64,
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn subscribe_request(id: SubscriptionId, sub: &Subscription) -> Request {
    Request::Subscribe(SubscriptionDto::from_subscription(id, sub))
}

/// Encodes the workload and computes its reference replies.
///
/// # Panics
/// Panics if the op list does not return the population to its baseline —
/// a generator bug, since every slice must do identical work.
pub fn compile(workload: &Workload) -> Compiled {
    let proto = workload.proto;
    let mut setup = Frames::default();
    let mut setup_expected = Frames::default();
    for (id, sub) in &workload.population {
        setup.push_request(proto, &subscribe_request(*id, sub));
        setup_expected.push_response(proto, &Response::Queued);
    }

    let mut live: Vec<(SubscriptionId, &Subscription)> = workload
        .population
        .iter()
        .map(|(id, sub)| (*id, sub))
        .collect();
    let mut ops = Frames::default();
    let mut expected = Frames::default();
    let mut expected_notifications = 0;
    for op in &workload.ops {
        match op {
            Op::Subscribe(id, sub) => {
                ops.push_request(proto, &subscribe_request(*id, sub));
                expected.push_response(proto, &Response::Queued);
                live.push((*id, sub));
            }
            Op::Publish(p) => {
                ops.push_request(
                    proto,
                    &Request::Publish(PublicationDto::from_publication(p)),
                );
                let mut ids: Vec<u64> = live
                    .iter()
                    .filter(|(_, sub)| sub.matches(p))
                    .map(|(id, _)| id.0)
                    .collect();
                ids.sort_unstable();
                expected_notifications += ids.len() as u64;
                expected.push_response(proto, &Response::Matched(ids));
            }
            Op::Unsubscribe(id) => {
                ops.push_request(proto, &Request::Unsubscribe(id.0));
                let before = live.len();
                live.retain(|(other, _)| other != id);
                expected.push_response(proto, &Response::Removed(live.len() < before));
            }
        }
    }
    assert_eq!(
        live.len(),
        workload.population.len(),
        "a slice must leave the population as it found it"
    );

    let mut digest = 0xCBF2_9CE4_8422_2325;
    for frames in [&setup, &setup_expected, &ops, &expected] {
        digest = fnv1a(digest, &frames.bytes);
    }
    Compiled {
        setup,
        setup_expected,
        ops,
        expected,
        kinds: workload.ops.iter().map(Op::kind).collect(),
        expected_notifications,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_digests_are_stable() {
        for name in WORKLOADS {
            let workload = generate(name, DEFAULT_SEED, Scale::Full).expect("known workload");
            let digest = compile(&workload).digest;
            assert_eq!(
                Some(digest),
                default_seed_digest(name),
                "{name}: inputs_digest is {digest:#018x}"
            );
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in WORKLOADS {
            let digest =
                |seed| compile(&generate(name, seed, Scale::Smoke).expect("known workload")).digest;
            assert_eq!(digest(7), digest(7), "{name}");
            assert_ne!(digest(7), digest(8), "{name}");
        }
    }

    #[test]
    fn every_mesh_publication_matches_at_the_far_edge() {
        let workload = generate("mesh_2hop", 3, Scale::Smoke).expect("known workload");
        for op in &workload.ops {
            let Op::Publish(p) = op else {
                panic!("mesh_2hop only publishes")
            };
            assert!(workload.population.iter().any(|(_, sub)| sub.matches(p)));
        }
    }

    #[test]
    fn no_wire_bound_publication_matches_anything() {
        let workload = generate("wire_bound", 3, Scale::Smoke).expect("known workload");
        assert_eq!(compile(&workload).expected_notifications, 0);
    }

    #[test]
    fn frames_slice_back_into_the_requests_pushed() {
        let mut frames = Frames::default();
        frames.push_request(Proto::Json, &Request::Flush);
        frames.push_request(Proto::Json, &Request::Unsubscribe(9));
        assert_eq!(frames.len(), 2);
        assert_eq!(frames.get(0), b"{\"op\":\"flush\"}\n");
        assert_eq!(frames.run(0, 2).len(), frames.bytes.len());
        assert!(frames.run(2, 2).is_empty());
    }
}
