//! The untraced run: cold set-ups, a throughput phase of identical slices
//! at the workload's window, a latency phase of window-1 slices, and the
//! invariants every run must hold. All five end-to-end metrics come from
//! here, and only from here.

use crate::client::Conn;
use crate::estimate::{median, robust_cost, robust_rate};
use crate::stack::{set_up, Loaded, Stack, Stats, SETUP_WINDOW};
use crate::sys;
use crate::workloads::{Compiled, Topology, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cold set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// The best-decile estimators need a distribution to take a decile of: a
/// throughput phase runs on past its time until it has this many slices,
/// and fails if that takes more than [`MAX_OVERRUN`] times as long.
const MIN_SLICES: usize = 20;
const MAX_OVERRUN: u32 = 3;

/// How long each phase measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub throughput: Duration,
    pub latency: Duration,
}

impl Plan {
    /// Splits `--seconds` 5 : 2 between the throughput and latency phases.
    pub fn new(seconds: f64) -> Plan {
        Plan {
            throughput: Duration::from_secs_f64(seconds * 5.0 / 7.0),
            latency: Duration::from_secs_f64(seconds * 2.0 / 7.0),
        }
    }
}

/// Runs `body` with a scratch directory of this process, removed again
/// whatever `body` returns. It lies beside the executable, in the build's
/// target directory: inside the checkout, and never committed.
pub fn with_run_dir<T>(body: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("psc_benchmark_run")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = body(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// One pass over a fixed run of ops.
#[derive(Debug, Clone, Copy)]
pub struct SliceSample {
    pub ops: u64,
    pub failed: u64,
    pub wall_ns: u64,
    /// Process CPU time minus the load generator thread's.
    pub server_cpu_ns: u64,
}

impl SliceSample {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns as f64
    }

    pub fn server_cpu_us_per_op(&self) -> f64 {
        self.server_cpu_ns as f64 / 1e3 / self.ops as f64
    }
}

/// Runs ops `span` of the slice on `conn` and times the pass.
pub fn run_slice(
    conn: &mut Conn,
    compiled: &Compiled,
    span: (usize, usize),
    window: usize,
    on_reply: impl FnMut(usize, Instant),
) -> Result<SliceSample, String> {
    let (process0, thread0) = (sys::process_cpu_ns(), sys::thread_cpu_ns());
    let started = Instant::now();
    let outcome = conn
        .pass(&compiled.ops, &compiled.expected, span, window, on_reply)
        .map_err(|e| format!("slice: {e}"))?;
    let wall_ns = started.elapsed().as_nanos() as u64;
    let loadgen_cpu_ns = sys::thread_cpu_ns() - thread0;
    let process_cpu_ns = sys::process_cpu_ns() - process0;
    Ok(SliceSample {
        ops: outcome.ops,
        failed: outcome.failed,
        wall_ns,
        server_cpu_ns: process_cpu_ns.saturating_sub(loadgen_cpu_ns),
    })
}

/// The live-heap high-water above a baseline taken before the first
/// server booted: what the servers, their connections and the load
/// generator's buffers hold at their fullest, without the generated inputs.
pub struct HeapWatch {
    baseline: usize,
}

impl HeapWatch {
    pub fn start() -> HeapWatch {
        sys::reset_peak_heap();
        HeapWatch {
            baseline: sys::live_heap_bytes(),
        }
    }

    pub fn peak_mb(&self) -> f64 {
        sys::peak_heap_bytes().saturating_sub(self.baseline) as f64 / 1e6
    }
}

/// Whole slices at the workload's window for `duration` (longer on a
/// machine too slow to fit [`MIN_SLICES`] into it), after one warm-up
/// slice, which is returned apart: its replies are checked but its timing
/// is discarded.
pub fn throughput_phase(
    loaded: &mut Loaded,
    workload: &Workload,
    compiled: &Compiled,
    duration: Duration,
) -> Result<(SliceSample, Vec<SliceSample>), String> {
    let mut slice = || {
        run_slice(
            &mut loaded.publisher,
            compiled,
            (0, compiled.ops.len()),
            workload.window,
            |_, _| {},
        )
    };
    let warm_up = slice()?;
    let mut slices = Vec::new();
    let started = Instant::now();
    while started.elapsed() < duration || slices.len() < MIN_SLICES {
        if started.elapsed() > duration * MAX_OVERRUN {
            return Err(format!(
                "only {} throughput slices in {:?}; the estimators need {MIN_SLICES}",
                slices.len(),
                started.elapsed()
            ));
        }
        slices.push(slice()?);
    }
    Ok((warm_up, slices))
}

/// What the window-1 phase saw.
pub struct LatencySamples {
    /// Median round trip of the latency op, one per slice, in µs.
    pub per_slice_p50_us: Vec<f64>,
    /// Every round trip of the latency op, in µs.
    pub all_us: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
}

/// Window-1 passes over the workload's latency slice for `duration`,
/// timing each round trip of the workload's latency op.
pub fn latency_phase(
    conn: &mut Conn,
    workload: &Workload,
    compiled: &Compiled,
    duration: Duration,
) -> Result<LatencySamples, String> {
    let span = (0, workload.latency_ops);
    let mut samples = LatencySamples {
        per_slice_p50_us: Vec::new(),
        all_us: Vec::new(),
        ops: 0,
        failed: 0,
    };
    let mut slice_us = Vec::with_capacity(workload.latency_ops);
    let started = Instant::now();
    while started.elapsed() < duration || samples.per_slice_p50_us.is_empty() {
        slice_us.clear();
        let slice = run_slice(conn, compiled, span, 1, |i, sent_at| {
            if compiled.kinds[i] == workload.latency_op {
                slice_us.push(sent_at.elapsed().as_nanos() as f64 / 1e3);
            }
        })?;
        samples.ops += slice.ops;
        samples.failed += slice.failed;
        samples.per_slice_p50_us.push(median(&slice_us));
        samples.all_us.extend_from_slice(&slice_us);
    }
    Ok(samples)
}

/// The invariants a run must hold whatever its speed; each violation is a
/// line of the returned list, and any violation fails the run.
pub fn check_invariants(
    workload: &Workload,
    stack: &Stack,
    before: &[Stats],
    after: &[Stats],
) -> Vec<String> {
    let mut violations = Vec::new();
    let population = workload.population.len() as u64;
    for (node, stats) in after.iter().enumerate() {
        let totals = stats.metrics.totals();
        if totals.storage_errors != 0 {
            violations.push(format!(
                "node {node}: storage_errors = {}",
                totals.storage_errors
            ));
        }
        if totals.subscriptions_rejected != 0 {
            violations.push(format!(
                "node {node}: {} subscriptions rejected",
                totals.subscriptions_rejected
            ));
        }
    }
    // Where the population lives: the single server, or node C.
    let home = after.last().expect("at least one node");
    let totals = home.metrics.totals();
    let stored = totals.active_subscriptions + totals.covered_subscriptions;
    if stored != population {
        violations.push(format!(
            "population is {stored} after the run, not {population}"
        ));
    }
    let publications = |stats: &[Stats], node: usize| stats[node].metrics.publications_total;
    match workload.topology {
        Topology::Single { shards, .. } => {
            if workload.fully_pruned {
                let pruned = after[0].metrics.totals().shards_pruned
                    - before[0].metrics.totals().shards_pruned;
                let visits = (publications(after, 0) - publications(before, 0)) * shards as u64;
                if pruned != visits {
                    violations.push(format!(
                        "the summaries pruned {pruned} of {visits} shard visits, not all"
                    ));
                }
            }
        }
        Topology::Chain3 => {
            let fed = stack.federation_stats();
            let edge = &fed[2];
            if edge.subs_forwarded + edge.subs_suppressed != population {
                violations.push(format!(
                    "node C forwarded {} + suppressed {} != {population}",
                    edge.subs_forwarded, edge.subs_suppressed
                ));
            }
            // Every publication sent to A since `before` must have been
            // forwarded A→B and B→C exactly once.
            let sent = publications(after, 0) - publications(before, 0);
            for node in 1..3 {
                let arrived = publications(after, node) - publications(before, node);
                if arrived != sent {
                    violations.push(format!(
                        "{arrived} of {sent} publications reached node {node}"
                    ));
                }
            }
        }
    }
    violations
}

/// Everything the untraced run measured.
pub struct Measured {
    pub setups_s: Vec<f64>,
    pub slices: Vec<SliceSample>,
    pub latency: LatencySamples,
    pub heap_peak_mb: f64,
    pub ops: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Measured {
    pub fn setup_s(&self) -> f64 {
        self.setups_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices.iter().map(SliceSample::ops_per_s).collect()
    }

    pub fn ops_per_s(&self) -> f64 {
        robust_rate(&self.slice_rates())
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        let costs: Vec<f64> = self
            .slices
            .iter()
            .map(SliceSample::server_cpu_us_per_op)
            .collect();
        robust_cost(&costs)
    }

    pub fn rtt_p50_us(&self) -> f64 {
        robust_cost(&self.latency.per_slice_p50_us)
    }
}

/// A fresh data directory for set-up number `k` of this process.
pub fn data_dir(run_dir: &Path, k: usize) -> Result<PathBuf, String> {
    let dir = run_dir.join(format!("data-{k}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Boots and loads the stack [`SETUPS`] times, cold each time, keeping the
/// last; returns it with every set-up's duration.
pub fn cold_set_ups(
    workload: &Workload,
    compiled: &Compiled,
    run_dir: &Path,
) -> Result<(Loaded, Vec<f64>, u64), String> {
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut failed = 0;
    let mut kept: Option<Loaded> = None;
    for k in 0..SETUPS {
        if let Some(previous) = kept.take() {
            previous.stop();
        }
        let dir = data_dir(run_dir, k)?;
        let started = Instant::now();
        let loaded = set_up(workload, compiled, &dir, SETUP_WINDOW, |_, _| {})?;
        setups_s.push(started.elapsed().as_secs_f64());
        failed += loaded.failed;
        kept = Some(loaded);
    }
    Ok((kept.expect("SETUPS > 0"), setups_s, failed))
}

/// The whole untraced run of one workload.
pub fn measure(workload: &Workload, compiled: &Compiled, plan: Plan) -> Result<Measured, String> {
    with_run_dir(|run_dir| measure_in(run_dir, workload, compiled, plan))
}

fn measure_in(
    run_dir: &Path,
    workload: &Workload,
    compiled: &Compiled,
    plan: Plan,
) -> Result<Measured, String> {
    let heap = HeapWatch::start();
    let (mut loaded, setups_s, setup_failed) = cold_set_ups(workload, compiled, run_dir)?;
    let before = loaded.stack.scrape()?;
    let (warm_up, slices) = throughput_phase(&mut loaded, workload, compiled, plan.throughput)?;
    let latency = latency_phase(&mut loaded.publisher, workload, compiled, plan.latency)?;
    let after = loaded.stack.scrape()?;
    let violations = check_invariants(workload, &loaded.stack, &before, &after);
    let heap_peak_mb = heap.peak_mb();
    loaded.stop();

    let slice_ops: u64 = slices.iter().map(|s| s.ops).sum();
    let ops = (SETUPS * (compiled.setup.len() + 1)) as u64 + warm_up.ops + slice_ops + latency.ops;
    let slice_failed: u64 = slices.iter().map(|s| s.failed).sum();
    let failed = setup_failed + warm_up.failed + slice_failed + latency.failed;
    Ok(Measured {
        setups_s,
        slices,
        heap_peak_mb,
        latency,
        ops,
        failed,
        violations,
    })
}
