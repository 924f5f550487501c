//! The traced run: where the per-layer numbers come from.
//!
//! Every span is recorded from here, around a call into a layer's public
//! function — the program itself carries no tracing. The run boots the
//! real stack once, reads the counters the program already keeps (`stats`,
//! `/proc`, `getrusage`) across a short untraced throughput phase, then
//! replays sampled ops one at a time: each op first over TCP against the
//! real stack (`client.call`), then against every layer it touches, on
//! fixtures holding the same population. Spans stay in memory and are
//! written out when the run ends.

use crate::estimate::{median, quantile, robust_rate};
use crate::report::{Report, PER_LAYER};
use crate::run::{
    check_invariants, data_dir, latency_phase, run_slice, throughput_phase, with_run_dir, Plan,
    SliceSample,
};
use crate::stack::{service_config, set_up, Stats, SETUP_WINDOW};
use crate::sys;
use crate::workloads::{Compiled, Op, OpKind, Proto, Topology, Workload};
use psc_broker::{Broker, BrokerId, CoveringPolicy};
use psc_core::SubsumptionChecker;
use psc_matcher::CoveringStore;
use psc_model::codec::BinaryFramer;
use psc_model::wire::LineFramer;
use psc_model::{Publication, Subscription};
use psc_service::routing::{PlacementDirectory, ShardSummary};
use psc_service::storage::{LogRecord, ShardStorage, StorageConfig};
use psc_service::wire::{Request, Response};
use psc_service::{FsyncPolicy, PubSubService};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Ops replayed under spans (whole slices, so state returns to baseline).
const TRACED_OPS: usize = 2_000;
/// Calls per span of a nanosecond-scale function: one clock pair around a
/// single call would measure the clock.
const REPS: u32 = 16;
/// Population members sampled for the per-subscription layer timings.
const SAMPLE: usize = 200;

/// One timed interval. `parent` indexes the span that caused this one;
/// `reps` is how many identical calls the interval covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub reps: u32,
}

/// The spans of one traced run, in start order.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Trace::close).
    pub fn open(&mut self, op: u32, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            reps: 1,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records `reps` back-to-back calls of `call` as one child span.
    pub fn time<T>(
        &mut self,
        (op, parent): (u32, usize),
        name: &'static str,
        reps: u32,
        mut call: impl FnMut() -> T,
    ) {
        let span = self.open(op, name, Some(parent));
        self.spans[span].reps = reps;
        for _ in 0..reps {
            black_box(call());
        }
        self.close(span);
    }

    /// Every span's self time: its duration minus the part of it its child
    /// spans cover (children may overlap each other or stick out of the
    /// parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let clipped = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if clipped.0 < clipped.1 {
                    children[p].push(clipped);
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in intervals {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Nanoseconds per call of every span called `name`.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / f64::from(s.reps))
            .collect()
    }

    /// Median nanoseconds per call of the spans called `name`; 0 when the
    /// workload never calls that layer.
    pub fn median_ns(&self, name: &str) -> f64 {
        median_or_zero(&self.per_call_ns(name))
    }

    /// Writes `{"workload", "spans": [{op, name, start_ns, end_ns, parent,
    /// reps, self_ns}]}`, one span per line.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"reps\": {}, \"self_ns\": {self_ns}}}",
                if i == 0 { "" } else { "," },
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                s.reps,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

fn elapsed_us(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// In-process fixtures holding the workload's population, one per layer,
/// plus what building them cost.
struct Layers {
    /// The service layer alone: same configuration as the server, no TCP.
    twin: PubSubService,
    /// The matcher alone: the whole population in one store.
    store: CoveringStore,
    store_rng: StdRng,
    checker: SubsumptionChecker,
    /// The router's per-shard summaries, rebuilt through the same
    /// placement the service uses.
    summaries: Vec<ShardSummary>,
    /// The storage layer alone (durable workloads only).
    wal: Option<ShardStorage>,
    /// The mesh's covering and routing tables at 1 entry per family.
    broker: Option<(Broker, Vec<Subscription>)>,
    subscribe_us: Vec<f64>,
    insert_us: Vec<f64>,
    place_ns: Vec<f64>,
}

const TRANSIT: BrokerId = BrokerId(1);
const EDGE: BrokerId = BrokerId(2);

impl Layers {
    fn build(workload: &Workload, run_dir: &Path) -> Result<Layers, String> {
        let (shards, durable, placement) = match workload.topology {
            Topology::Single {
                shards,
                durable,
                placement,
            } => (shards, durable, placement),
            Topology::Chain3 => (1, false, true),
        };
        let twin_dir = run_dir.join("twin");
        let config = service_config(shards, placement, durable.then_some(&twin_dir));
        let arity = workload.schema.len();

        let mut directory = PlacementDirectory::new(shards, arity, config.summary_intervals);
        let mut summaries =
            vec![ShardSummary::with_intervals(arity, config.summary_intervals); shards];
        let mut place_ns = Vec::new();
        for chunk in workload.population.chunks(REPS as usize) {
            let started = Instant::now();
            let placed: Vec<usize> = chunk
                .iter()
                .map(|(id, sub)| {
                    directory.place(
                        *id,
                        &workload.schema,
                        sub.ranges(),
                        id.0 as usize % shards,
                        config.placement_enabled,
                    )
                })
                .collect();
            place_ns.push(started.elapsed().as_nanos() as f64 / chunk.len() as f64);
            for ((_, sub), shard) in chunk.iter().zip(placed) {
                summaries[shard].widen(sub);
            }
        }

        let twin = PubSubService::open(workload.schema.clone(), config.clone())
            .map_err(|e| format!("twin service: {e}"))?;
        let mut subscribe_us = Vec::with_capacity(workload.population.len());
        for (id, sub) in &workload.population {
            let sub = sub.clone();
            let started = Instant::now();
            twin.subscribe(*id, sub)
                .map_err(|e| format!("twin subscribe: {e}"))?;
            subscribe_us.push(elapsed_us(started));
        }
        twin.barrier();

        let checker = SubsumptionChecker::builder()
            .error_probability(config.error_probability)
            .max_iterations(config.max_iterations)
            .build();
        let mut store = CoveringStore::new(checker);
        let mut store_rng = StdRng::seed_from_u64(config.seed);
        let mut insert_us = Vec::with_capacity(workload.population.len());
        for (id, sub) in &workload.population {
            let sub = sub.clone();
            let started = Instant::now();
            store.insert(*id, sub, &mut store_rng);
            insert_us.push(elapsed_us(started));
        }

        let wal = if durable {
            let (storage, _) = ShardStorage::open(
                StorageConfig {
                    dir: run_dir.join("layer-wal"),
                    fsync: FsyncPolicy::Never,
                    snapshot_every: 0,
                    segment_bytes: config.wal_segment_bytes,
                },
                &workload.schema,
            )
            .map_err(|e| format!("layer WAL: {e}"))?;
            Some(storage)
        } else {
            None
        };

        let broker = (workload.topology == Topology::Chain3).then(|| {
            // What node B holds after set-up: the subscriptions C forwarded
            // — those no other member of the population covers.
            let mut broker = Broker::new(TRANSIT);
            let mut sent = Vec::new();
            for (id, sub) in &workload.population {
                if !sent.iter().any(|s: &Subscription| s.covers(sub)) {
                    broker.add_received(EDGE, *id, sub.clone());
                    sent.push(sub.clone());
                }
            }
            (broker, sent)
        });

        Ok(Layers {
            twin,
            store,
            store_rng,
            checker,
            summaries,
            wal,
            broker,
            subscribe_us,
            insert_us,
            place_ns,
        })
    }
}

/// Decision statistics of `core.check` spans.
#[derive(Default)]
struct CheckStats {
    checks: u64,
    rspc_iterations: u64,
    fast_path: u64,
    covered: u64,
}

impl CheckStats {
    fn note(&mut self, decision: &psc_core::CoverDecision) {
        self.checks += 1;
        self.rspc_iterations += decision.stats.rspc_iterations;
        self.fast_path += u64::from(decision.stage.is_fast_path());
        self.covered += u64::from(decision.is_covered());
    }
}

/// Replays op `i` under a root span: over TCP, then layer by layer.
#[allow(clippy::too_many_arguments)]
fn replay_op(
    trace: &mut Trace,
    op_id: u32,
    i: usize,
    workload: &Workload,
    compiled: &Compiled,
    conns: (&mut crate::client::Conn, Option<&mut crate::client::Conn>),
    layers: &mut Layers,
    checks: &mut CheckStats,
    failed: &mut u64,
) -> Result<(), String> {
    let root = trace.open(op_id, "op", None);
    let at = (op_id, root);
    let (publisher, edge) = conns;

    let call = trace.open(op_id, "client.call", Some(root));
    *failed += run_slice(publisher, compiled, (i, i + 1), 1, |_, _| {})?.failed;
    trace.close(call);
    if let (Some(edge), OpKind::Publish) = (edge, compiled.kinds[i]) {
        let direct = trace.open(op_id, "client.call_direct", Some(root));
        *failed += run_slice(edge, compiled, (i, i + 1), 1, |_, _| {})?.failed;
        trace.close(direct);
    }

    let request = compiled.ops.get(i);
    let reply = compiled.expected.get(i);
    let mut out = Vec::with_capacity(reply.len());
    match workload.proto {
        Proto::Binary => {
            let response = Response::decode_binary(&reply[4..])
                .map_err(|e| format!("reference reply: {e}"))?;
            if compiled.kinds[i] == OpKind::Publish {
                trace.time(at, "codec.bin_publish_decode", REPS, || {
                    Request::decode_binary(&request[4..])
                });
                trace.time(at, "codec.bin_matched_encode", REPS, || {
                    out.clear();
                    response.encode_binary(&mut out);
                });
            }
            let mut framer = BinaryFramer::new(psc_service::wire::MAX_REQUEST_LINE_BYTES);
            trace.time(at, "codec.bin_frame", REPS, || {
                framer.feed(request);
                framer.next_frame().is_some()
            });
        }
        Proto::Json => {
            let line = std::str::from_utf8(&request[..request.len() - 1])
                .map_err(|e| format!("request line: {e}"))?;
            let reply_line = std::str::from_utf8(&reply[..reply.len() - 1])
                .map_err(|e| format!("reply line: {e}"))?;
            let response =
                Response::decode(reply_line).map_err(|e| format!("reference reply: {e}"))?;
            match compiled.kinds[i] {
                OpKind::Subscribe => {
                    trace.time(at, "codec.json_subscribe_decode", REPS, || {
                        Request::decode(line)
                    });
                }
                OpKind::Publish => {
                    trace.time(at, "codec.json_publish_decode", REPS, || {
                        Request::decode(line)
                    });
                    trace.time(at, "codec.json_matched_encode", REPS, || {
                        out.clear();
                        response.encode_json_into(&mut out);
                    });
                }
                OpKind::Unsubscribe => {}
            }
            let mut framer = LineFramer::new(psc_service::wire::MAX_REQUEST_LINE_BYTES);
            trace.time(at, "codec.json_frame", REPS, || {
                framer.feed(request);
                framer.next_frame().is_some()
            });
        }
    }

    match &workload.ops[i] {
        Op::Publish(p) => {
            let summaries = &layers.summaries;
            trace.time(at, "routing.may_match", REPS, || {
                summaries.iter().filter(|s| s.may_match(p)).count()
            });
            let twin = &layers.twin;
            trace.time(at, "service.publish", 1, || twin.publish(p));
            let store = &mut layers.store;
            trace.time(at, "matcher.match", 1, || store.match_publication(p));
            if let Some((broker, _)) = &layers.broker {
                trace.time(at, "broker.link_wants", 1, || broker.link_wants(EDGE, p));
            }
        }
        Op::Subscribe(id, sub) => {
            let twin = &layers.twin;
            trace.time(at, "service.subscribe", 1, || {
                twin.subscribe(*id, sub.clone())
            });
            let active: Vec<Subscription> = layers
                .store
                .active_subscriptions()
                .map(|(_, s)| s.clone())
                .collect();
            let (checker, rng) = (layers.checker, &mut layers.store_rng);
            trace.time(at, "core.check", 1, || {
                checks.note(&checker.check(sub, &active, rng))
            });
            let (store, rng) = (&mut layers.store, &mut layers.store_rng);
            trace.time(at, "matcher.insert", 1, || {
                store.insert(*id, sub.clone(), rng).is_active()
            });
            if let Some(wal) = &mut layers.wal {
                let record = LogRecord::Admit(vec![(*id, sub.clone())]);
                trace.time(at, "storage.append", 1, || wal.append(&record).is_ok());
                trace.time(at, "storage.commit", 1, || wal.commit().is_ok());
            }
        }
        Op::Unsubscribe(id) => {
            let twin = &layers.twin;
            trace.time(at, "service.unsubscribe", 1, || twin.unsubscribe(*id));
            let (store, rng) = (&mut layers.store, &mut layers.store_rng);
            trace.time(at, "matcher.remove", 1, || store.remove(*id, rng));
            if let Some(wal) = &mut layers.wal {
                let record = LogRecord::Unsubscribe(*id);
                trace.time(at, "storage.append", 1, || wal.append(&record).is_ok());
                trace.time(at, "storage.commit", 1, || wal.commit().is_ok());
            }
        }
    }
    trace.close(root);
    Ok(())
}

/// The layer timings that need a population member rather than an op of
/// the slice: sampled from the tail of the population, after the replay.
struct MemberTimings {
    unsubscribe_us: Vec<f64>,
    remove_us: Vec<f64>,
    check_us: Vec<f64>,
    is_covered_us: Vec<f64>,
}

fn time_members(
    workload: &Workload,
    layers: &mut Layers,
    checks: &mut CheckStats,
) -> MemberTimings {
    let sample = &workload.population[workload.population.len().saturating_sub(SAMPLE)..];
    let mut timings = MemberTimings {
        unsubscribe_us: Vec::new(),
        remove_us: Vec::new(),
        check_us: Vec::new(),
        is_covered_us: Vec::new(),
    };
    // The slice's own subscribe ops are the checks of record where the
    // workload has them; elsewhere each sampled member is checked against
    // the store right after leaving it, as if it were arriving.
    let check_members = checks.checks == 0;
    for (id, sub) in sample {
        let started = Instant::now();
        black_box(layers.twin.unsubscribe(*id));
        timings.unsubscribe_us.push(elapsed_us(started));
        let started = Instant::now();
        black_box(layers.store.remove(*id, &mut layers.store_rng));
        timings.remove_us.push(elapsed_us(started));
        if check_members {
            let active: Vec<Subscription> = layers
                .store
                .active_subscriptions()
                .map(|(_, s)| s.clone())
                .collect();
            let started = Instant::now();
            let decision = layers.checker.check(sub, &active, &mut layers.store_rng);
            timings.check_us.push(elapsed_us(started));
            checks.note(&decision);
        }
        if let Some((_, sent)) = &layers.broker {
            let started = Instant::now();
            black_box(CoveringPolicy::Pairwise.is_covered(sub, sent, &mut layers.store_rng));
            timings.is_covered_us.push(elapsed_us(started));
        }
    }
    timings
}

/// Threads of this process right now.
fn thread_count() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The counters the program keeps, as deltas over the throughput phase.
fn counter_metrics(
    report: &mut Report,
    workload: &Workload,
    before: &[Stats],
    after: &[Stats],
    ops: f64,
) {
    // The node the publisher talks to has the front-end view; the node
    // that holds the population (the last) has the matcher's.
    let front = &after[0];
    if let Some(latency) = &front.latency {
        let decode = if workload.proto == Proto::Binary {
            latency.decode_binary.p50_ns
        } else {
            latency.decode.p50_ns
        } as f64;
        let (route, matched, deliver, e2e) = (
            latency.route.p50_ns as f64,
            latency.shard_match.p50_ns as f64,
            latency.deliver.p50_ns as f64,
            latency.end_to_end.p50_ns as f64,
        );
        report.set("stage.decode_p50_ns", decode);
        report.set("stage.route_p50_ns", route);
        report.set("stage.match_p50_ns", matched);
        report.set("stage.deliver_p50_ns", deliver);
        report.set("stage.e2e_p50_ns", e2e);
        report.set(
            "stage.unattributed_fraction",
            1.0 - ratio(decode + route + matched + deliver, e2e),
        );
    }
    let home = after.len() - 1;
    let (now, then) = (after[home].metrics.totals(), before[home].metrics.totals());
    let shards = after[home].metrics.shards.len() as f64;
    let publications =
        (after[home].metrics.publications_total - before[home].metrics.publications_total) as f64;
    let delta = |pick: fn(&psc_service::ShardMetrics) -> u64| (pick(&now) - pick(&then)) as f64;
    report.set(
        "routing.pruned_fraction",
        ratio(delta(|m| m.shards_pruned), publications * shards),
    );
    let populations: Vec<f64> = after[home]
        .metrics
        .shards
        .iter()
        .map(|m| (m.active_subscriptions + m.covered_subscriptions) as f64)
        .collect();
    let mean = populations.iter().sum::<f64>() / shards;
    let largest = populations.iter().copied().fold(0.0, f64::max);
    report.set("routing.shard_imbalance", ratio(largest, mean));
    // `totals()` merges this one by max (the busiest shard); the visits of
    // a publication are the sum over shards.
    let visits = |stats: &Stats| -> u64 {
        let shards = &stats.metrics.shards;
        shards.iter().map(|m| m.publications_processed).sum()
    };
    report.set(
        "matcher.visits_per_pub",
        ratio(
            (visits(&after[home]) - visits(&before[home])) as f64,
            publications,
        ),
    );
    report.set(
        "matcher.probes_per_pub",
        ratio(delta(|m| m.phase1_probes + m.phase2_probes), publications),
    );
    report.set(
        "matcher.notifications_per_pub",
        ratio(delta(|m| m.notifications), publications),
    );
    report.set(
        "matcher.covered_fraction",
        ratio(
            now.covered_subscriptions as f64,
            (now.active_subscriptions + now.covered_subscriptions) as f64,
        ),
    );
    report.set(
        "storage.wal_records_per_op",
        ratio(delta(|m| m.wal_records_appended), ops),
    );
    report.set(
        "storage.group_commits_per_op",
        ratio(delta(|m| m.wal_group_commits), ops),
    );
    report.set("storage.snapshots_written", now.snapshots_written as f64);
}

/// The traced run of one workload: every per-layer metric.
pub fn run(workload: &Workload, compiled: &Compiled, plan: Plan) -> Result<Report, String> {
    with_run_dir(|run_dir| run_in(run_dir, workload, compiled, plan))
}

fn run_in(
    run_dir: &Path,
    workload: &Workload,
    compiled: &Compiled,
    plan: Plan,
) -> Result<Report, String> {
    let mut report = Report::new(PER_LAYER);

    // Set-up, once. On the mesh it runs unpipelined so that each subscribe
    // round trip is one install: decision, forwards and all.
    let mesh = workload.topology == Topology::Chain3;
    let mut install_us = Vec::new();
    let data = data_dir(run_dir, 0)?;
    let mut loaded = set_up(
        workload,
        compiled,
        &data,
        if mesh { 1 } else { SETUP_WINDOW },
        |_, sent_at| {
            if mesh {
                install_us.push(elapsed_us(sent_at));
            }
        },
    )?;
    let mut failed = loaded.failed;
    let mut attempted = compiled.setup.len() as u64 + 1;

    // Untraced throughput phase, bracketed by every counter the program
    // and the kernel keep.
    let before = loaded.stack.scrape()?;
    let switches0 = sys::context_switches().0;
    let io0 = loaded.publisher.io;
    let (process0, thread0) = (sys::process_cpu_ns(), sys::thread_cpu_ns());
    let (warm_up, slices) = throughput_phase(&mut loaded, workload, compiled, plan.throughput / 2)?;
    let loadgen_cpu = (sys::thread_cpu_ns() - thread0) as f64;
    let process_cpu = (sys::process_cpu_ns() - process0) as f64;
    let switches1 = sys::context_switches().0;
    let io1 = loaded.publisher.io;
    let after = loaded.stack.scrape()?;
    let phase_ops = (warm_up.ops + slices.iter().map(|s| s.ops).sum::<u64>()) as f64;
    attempted += phase_ops as u64;
    failed += warm_up.failed + slices.iter().map(|s| s.failed).sum::<u64>();
    report.violations = check_invariants(workload, &loaded.stack, &before, &after);

    let rates: Vec<f64> = slices.iter().map(SliceSample::ops_per_s).collect();
    report.set("ops_per_s.median", median(&rates));
    report.set(
        "noise.slice_p50_over_p90",
        median(&rates) / robust_rate(&rates),
    );
    report.set("loadgen.cpu_share", ratio(loadgen_cpu, process_cpu));
    report.set(
        "codec.wire_bytes_per_op",
        (io1.bytes_sent + io1.bytes_received - io0.bytes_sent - io0.bytes_received) as f64
            / phase_ops,
    );
    report.set(
        "client.reads_per_op",
        (io1.reads - io0.reads) as f64 / phase_ops,
    );
    report.set(
        "client.writes_per_op",
        (io1.writes - io0.writes) as f64 / phase_ops,
    );
    report.set(
        "proc.vol_ctx_switches_per_op",
        (switches1 - switches0) as f64 / phase_ops,
    );
    report.set("proc.threads", thread_count());
    counter_metrics(&mut report, workload, &before, &after, phase_ops);
    let fed = loaded.stack.federation_stats();
    if let [a, b, c] = &fed[..] {
        // The mesh was booted by this run, so its counters start at zero;
        // only A's clients publish, so every forward is one hop of an op.
        report.set(
            "mesh.remote_publishes_per_op",
            (a.remote_publishes + b.remote_publishes) as f64 / 2.0 / phase_ops,
        );
        report.set(
            "mesh.suppressed_fraction",
            ratio(
                c.subs_suppressed as f64,
                (c.subs_forwarded + c.subs_suppressed) as f64,
            ),
        );
    } else {
        report.set("mesh.remote_publishes_per_op", 0.0);
        report.set("mesh.suppressed_fraction", 0.0);
    }
    report.set("mesh.install_us", median_or_zero(&install_us));

    // Allocations of one slice, whole process: the load generator makes
    // none, so these are the servers'.
    sys::count_allocations(true);
    let (calls0, alloc_bytes0) = sys::allocation_counters();
    let counted = run_slice(
        &mut loaded.publisher,
        compiled,
        (0, compiled.ops.len()),
        workload.window,
        |_, _| {},
    )?;
    let (calls1, alloc_bytes1) = sys::allocation_counters();
    sys::count_allocations(false);
    attempted += counted.ops;
    failed += counted.failed;
    report.set(
        "alloc.count_per_op",
        (calls1 - calls0) as f64 / counted.ops as f64,
    );
    report.set(
        "alloc.bytes_per_op",
        (alloc_bytes1 - alloc_bytes0) as f64 / counted.ops as f64,
    );

    // The untraced window-1 reference the traced round trips compare to.
    let untraced = latency_phase(&mut loaded.publisher, workload, compiled, plan.latency / 4)?;
    attempted += untraced.ops;
    failed += untraced.failed;
    report.set("client.rtt_p99_us", quantile(&untraced.all_us, 0.99));
    report.set("client.rtt_samples", untraced.all_us.len() as f64);

    // Layer fixtures, then the replay under spans.
    let mut layers = Layers::build(workload, run_dir)?;
    let mut trace = Trace::new();
    let mut checks = CheckStats::default();
    let passes = TRACED_OPS.div_ceil(compiled.ops.len()).max(1);
    let per_pass = compiled.ops.len().min(TRACED_OPS);
    let mut op_id = 0;
    for _ in 0..passes {
        for i in 0..per_pass {
            replay_op(
                &mut trace,
                op_id,
                i,
                workload,
                compiled,
                (&mut loaded.publisher, loaded.edge.as_mut()),
                &mut layers,
                &mut checks,
                &mut failed,
            )?;
            op_id += 1;
        }
    }
    attempted += u64::from(op_id);
    let wal_ops = trace.per_call_ns("storage.commit").len() as f64;
    let wal_bytes = dir_bytes(&run_dir.join("layer-wal")) as f64;

    // Layer calls that take a batch or a population member, not an op.
    let publications: Vec<Publication> = workload
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Publish(p) => Some(p.clone()),
            _ => None,
        })
        .take(TRACED_OPS)
        .collect();
    let batch_us: Vec<f64> = publications
        .chunks(32)
        .map(|batch| {
            let started = Instant::now();
            black_box(layers.twin.publish_batch(batch)).ok();
            elapsed_us(started) / batch.len() as f64
        })
        .collect();
    // The matcher back to back, as a busy shard runs it: the per-op
    // `matcher.match` spans above run cold, between other layers' calls.
    sys::count_allocations(true);
    let (calls0, _) = sys::allocation_counters();
    let match_us: Vec<f64> = publications
        .iter()
        .map(|p| {
            let started = Instant::now();
            black_box(layers.store.match_publication(p));
            elapsed_us(started)
        })
        .collect();
    let (calls1, _) = sys::allocation_counters();
    sys::count_allocations(false);
    let members = time_members(workload, &mut layers, &mut checks);
    let Layers {
        subscribe_us,
        insert_us,
        place_ns,
        ..
    } = layers;

    // Recovery: reopen what the real server left on disk.
    loaded.stop();
    let recovery_s = match workload.topology {
        Topology::Single {
            shards,
            durable: true,
            placement,
        } => {
            let started = Instant::now();
            let recovered = PubSubService::open(
                workload.schema.clone(),
                service_config(shards, placement, Some(&data)),
            )
            .map_err(|e| format!("recovery: {e}"))?;
            // The scrape queues behind the shards' replay, so its reply
            // marks the end of recovery.
            let totals = recovered.metrics().totals();
            let elapsed = started.elapsed().as_secs_f64();
            let stored = totals.active_subscriptions + totals.covered_subscriptions;
            if stored != workload.population.len() as u64 {
                report.violations.push(format!(
                    "recovered {stored} subscriptions, not {}",
                    workload.population.len()
                ));
            }
            elapsed
        }
        _ => 0.0,
    };

    let trace_path = run_dir
        .parent()
        .expect("run_dir has a parent")
        .join(format!("trace.{}.json", workload.name));
    trace
        .write_json(&trace_path, workload.name)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    report.notes.push(format!(
        "{} spans of {op_id} ops written to {}",
        trace.spans.len(),
        trace_path.display()
    ));

    // Span-derived metrics: medians over the replayed ops.
    for (metric, span) in [
        ("codec.bin_publish_decode_ns", "codec.bin_publish_decode"),
        ("codec.bin_matched_encode_ns", "codec.bin_matched_encode"),
        ("codec.bin_frame_ns", "codec.bin_frame"),
        (
            "codec.json_subscribe_decode_ns",
            "codec.json_subscribe_decode",
        ),
        ("codec.json_publish_decode_ns", "codec.json_publish_decode"),
        ("codec.json_matched_encode_ns", "codec.json_matched_encode"),
        ("codec.json_frame_ns", "codec.json_frame"),
    ] {
        report.set(metric, trace.median_ns(span));
    }
    let us = |span: &str| trace.median_ns(span) / 1e3;
    let shards = after.last().map_or(1, |s| s.metrics.shards.len()) as f64;
    // One `routing.may_match` span consults every shard's summary.
    report.set(
        "routing.may_match_ns",
        trace.median_ns("routing.may_match") / shards,
    );
    report.set("routing.place_ns", median_or_zero(&place_ns));
    report.set("service.publish_us", us("service.publish"));
    report.set(
        "service.publish_batch_us_per_pub",
        median_or_zero(&batch_us),
    );
    report.set("service.subscribe_us", median_or_zero(&subscribe_us));
    report.set(
        "service.unsubscribe_us",
        median_or_zero(&members.unsubscribe_us),
    );
    report.set("matcher.match_us", median_or_zero(&match_us));
    report.set(
        "matcher.match_allocs_per_pub",
        ratio((calls1 - calls0) as f64, publications.len() as f64),
    );
    report.set("matcher.insert_us", median_or_zero(&insert_us));
    report.set("matcher.remove_us", median_or_zero(&members.remove_us));
    // The matcher's share of one op: a full scan, times the share of the
    // population a publication's shard visits actually scan.
    let visits = report.get("matcher.visits_per_pub");
    report.set(
        "matcher.est_us_per_op",
        median_or_zero(&match_us) * visits / shards,
    );
    let check_us = if members.check_us.is_empty() {
        us("core.check")
    } else {
        median(&members.check_us)
    };
    report.set("core.check_us", check_us);
    let per_check = |count: u64| ratio(count as f64, checks.checks as f64);
    report.set(
        "core.rspc_iterations_per_check",
        per_check(checks.rspc_iterations),
    );
    report.set("core.fast_path_fraction", per_check(checks.fast_path));
    report.set("core.covered_decision_fraction", per_check(checks.covered));
    report.set("storage.append_us", us("storage.append"));
    report.set("storage.commit_us", us("storage.commit"));
    report.set("storage.recovery_s", recovery_s);
    report.set("storage.wal_bytes_per_op", ratio(wal_bytes, wal_ops));
    report.set(
        "broker.is_covered_us",
        median_or_zero(&members.is_covered_us),
    );
    report.set("broker.link_wants_us", us("broker.link_wants"));

    // What the round trip costs beyond the service layer, and what the two
    // hops cost beyond one node.
    let calls_of = |span: &str, kind: OpKind| -> Vec<f64> {
        trace
            .spans
            .iter()
            .filter(|s| s.name == span && compiled.kinds[s.op as usize % per_pass] == kind)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let publish_calls = median_or_zero(&calls_of("client.call", OpKind::Publish));
    report.set("reactor.frontend_us", publish_calls - us("service.publish"));
    report.set(
        "mesh.two_hop_overhead_us",
        if mesh {
            publish_calls - us("client.call_direct")
        } else {
            0.0
        },
    );
    let traced_rtt = median_or_zero(&calls_of("client.call", workload.latency_op));
    let untraced_rtt = median(&untraced.all_us);
    report.set("trace.overhead_fraction", traced_rtt / untraced_rtt - 1.0);
    report.set("proc.peak_rss_mb", sys::peak_rss_mb());

    let harness_ns: Vec<f64> = trace
        .spans
        .iter()
        .zip(trace.self_times_ns())
        .filter(|(span, _)| span.parent.is_none())
        .map(|(_, self_ns)| self_ns as f64)
        .collect();
    report.notes.push(format!(
        "root-span self time (harness between layer calls) median {:.0} ns; \
         untraced rtt p50 {untraced_rtt:.1} us, traced {traced_rtt:.1} us",
        median_or_zero(&harness_ns)
    ));
    report.attempted = attempted;
    report.failed = failed;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            op: 0,
            name,
            start_ns,
            end_ns,
            parent,
            reps: 1,
        }
    }

    fn trace_of(spans: Vec<Span>) -> Trace {
        Trace {
            epoch: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let trace = trace_of(vec![
            span("op", 100, 200, None),
            span("a", 110, 130, Some(0)),
            // Overlaps `a`: the union [110, 150) counts once.
            span("b", 120, 150, Some(0)),
            // Sticks out of the parent: only [190, 200) is covered.
            span("c", 190, 260, Some(0)),
            // A grandchild covers nothing of the root directly.
            span("a.inner", 112, 118, Some(1)),
            // Another root's child.
            span("other", 100, 200, Some(6)),
            span("op", 100, 200, None),
        ]);
        let self_ns = trace.self_times_ns();
        assert_eq!(self_ns[0], 100 - 40 - 10);
        assert_eq!(self_ns[1], 20 - 6);
        assert_eq!(self_ns[2], 30);
        assert_eq!(self_ns[6], 0);
    }

    #[test]
    fn per_call_time_divides_by_the_repetitions() {
        let mut repeated = span("codec", 0, 640, Some(0));
        repeated.reps = 16;
        let trace = trace_of(vec![
            span("op", 0, 1000, None),
            repeated,
            span("codec", 700, 760, Some(0)),
        ]);
        assert_eq!(trace.per_call_ns("codec"), vec![40.0, 60.0]);
        assert_eq!(trace.median_ns("codec"), 50.0);
        assert_eq!(trace.median_ns("absent"), 0.0);
    }

    #[test]
    fn recorded_spans_nest_under_their_root_and_serialize() {
        let mut trace = Trace::new();
        let root = trace.open(7, "op", None);
        trace.time((7, root), "layer", 4, || 1 + 1);
        trace.close(root);
        assert_eq!(trace.spans[1].parent, Some(root));
        assert_eq!(trace.spans[1].reps, 4);
        assert!(trace.spans[0].end_ns >= trace.spans[1].end_ns);

        let path = std::env::temp_dir().join(format!("psc_trace_{}.json", std::process::id()));
        trace.write_json(&path, "unit").expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        let parsed = psc_model::wire::Json::parse(&text).expect("trace file is JSON");
        assert_eq!(
            parsed
                .get("spans")
                .and_then(|s| s.as_array())
                .map(<[_]>::len),
            Some(2)
        );
    }
}
