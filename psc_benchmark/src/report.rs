//! What a run prints: every metric of its mode by name and unit, then one
//! JSON result line. The two tables here are the metric names of
//! `BENCHMARK.json`; a unit test holds the two in step.

use crate::estimate::{median, quantile};
use crate::run::Measured;

/// `(name, unit)` of every end-to-end metric, as the untraced run
/// (`--trace 0`) prints them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("rtt_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("heap_peak_mb", "MB"),
];

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// `(name, direction, bound)` of every end-to-end metric: the share of the
/// parent's median by which it may worsen before a change is a regression.
/// Each bound is about three times the widest quartile spread any workload
/// showed over ten seeds on the 2-vCPU VM this was written on (see the
/// README's baseline table).
pub const END_TO_END_BOUNDS: &[(&str, Better, f64)] = &[
    ("setup_s", Better::Lower, 0.12),
    ("ops_per_s", Better::Higher, 0.10),
    ("rtt_p50_us", Better::Lower, 0.06),
    ("cpu_us_per_op", Better::Lower, 0.10),
    ("heap_peak_mb", Better::Lower, 0.03),
];

/// `(name, unit)` of every per-layer metric, as the traced run
/// (`--trace 1`) prints them. A metric whose layer the workload does not
/// exercise (JSON codec on a binary workload, the WAL on an in-memory one,
/// the mesh on a single server) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // psc-model::{codec,wire} + psc-service::wire
    ("codec.bin_publish_decode_ns", "ns"),
    ("codec.bin_matched_encode_ns", "ns"),
    ("codec.bin_frame_ns", "ns"),
    ("codec.json_subscribe_decode_ns", "ns"),
    ("codec.json_publish_decode_ns", "ns"),
    ("codec.json_matched_encode_ns", "ns"),
    ("codec.json_frame_ns", "ns"),
    ("codec.wire_bytes_per_op", "B"),
    // psc-service::{reactor,server}
    ("reactor.frontend_us", "us"),
    ("stage.decode_p50_ns", "ns"),
    ("stage.route_p50_ns", "ns"),
    ("stage.match_p50_ns", "ns"),
    ("stage.deliver_p50_ns", "ns"),
    ("stage.e2e_p50_ns", "ns"),
    ("stage.unattributed_fraction", "ratio"),
    ("client.reads_per_op", "count"),
    ("client.writes_per_op", "count"),
    ("proc.vol_ctx_switches_per_op", "count"),
    // psc-service::service
    ("service.publish_us", "us"),
    ("service.publish_batch_us_per_pub", "us"),
    ("service.subscribe_us", "us"),
    ("service.unsubscribe_us", "us"),
    // psc-service::routing
    ("routing.may_match_ns", "ns"),
    ("routing.place_ns", "ns"),
    ("routing.pruned_fraction", "ratio"),
    ("routing.shard_imbalance", "ratio"),
    // psc-matcher
    ("matcher.match_us", "us"),
    ("matcher.match_allocs_per_pub", "count"),
    ("matcher.visits_per_pub", "count"),
    ("matcher.est_us_per_op", "us"),
    ("matcher.insert_us", "us"),
    ("matcher.remove_us", "us"),
    ("matcher.probes_per_pub", "count"),
    ("matcher.notifications_per_pub", "count"),
    ("matcher.covered_fraction", "ratio"),
    // psc-core
    ("core.check_us", "us"),
    ("core.rspc_iterations_per_check", "count"),
    ("core.fast_path_fraction", "ratio"),
    ("core.covered_decision_fraction", "ratio"),
    // psc-service::storage
    ("storage.append_us", "us"),
    ("storage.commit_us", "us"),
    ("storage.recovery_s", "s"),
    ("storage.wal_records_per_op", "count"),
    ("storage.group_commits_per_op", "count"),
    ("storage.wal_bytes_per_op", "B"),
    ("storage.snapshots_written", "count"),
    // psc-service::federation + psc-broker
    ("mesh.two_hop_overhead_us", "us"),
    ("mesh.install_us", "us"),
    ("mesh.remote_publishes_per_op", "count"),
    ("mesh.suppressed_fraction", "ratio"),
    ("broker.is_covered_us", "us"),
    ("broker.link_wants_us", "us"),
    ("proc.threads", "count"),
    // the benchmark itself
    ("noise.slice_p50_over_p90", "ratio"),
    ("loadgen.cpu_share", "ratio"),
    ("proc.peak_rss_mb", "MB"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("client.rtt_p99_us", "us"),
    ("client.rtt_samples", "count"),
    ("ops_per_s.median", "op/s"),
    ("trace.overhead_fraction", "ratio"),
];

/// One mode's output.
pub struct Report {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants; any one makes the run incorrect.
    pub violations: Vec<String>,
    /// Context for the reader, printed on standard error.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Report {
        Report {
            table,
            values: vec![None; table.len()],
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric of this report's table.
    ///
    /// # Panics
    /// Panics on a name outside the table or a value that is not finite:
    /// both are bugs of the benchmark, not of the program it measures.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this mode's table"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values[at] = Some(value);
    }

    /// A metric already recorded.
    ///
    /// # Panics
    /// Panics if `name` was not [`set`](Report::set) yet.
    pub fn get(&self, name: &str) -> f64 {
        self.table
            .iter()
            .zip(&self.values)
            .find(|((n, _), _)| *n == name)
            .and_then(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} was not measured yet"))
    }

    /// `(name, value, unit)` of every metric of the table, in its order.
    ///
    /// # Panics
    /// Panics if a metric of the table was never [`set`](Report::set).
    fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                let value = v.unwrap_or_else(|| panic!("metric {name} was never measured"));
                (*name, value, *unit)
            })
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The human-readable table: one `workload/metric value unit` per line.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, value, unit) in self.rows() {
            out.push_str(&format!("{workload}/{name:<34} {value:>16.4} {unit}\n"));
        }
        out.push_str(&format!(
            "{workload}/ops {}  failed_ops {}",
            self.attempted, self.failed
        ));
        out
    }

    /// The machine-readable last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The untraced run's report: the five end-to-end metrics.
pub fn end_to_end(measured: &Measured) -> Report {
    let mut report = Report::new(END_TO_END);
    report.set("setup_s", measured.setup_s());
    report.set("ops_per_s", measured.ops_per_s());
    report.set("rtt_p50_us", measured.rtt_p50_us());
    report.set("cpu_us_per_op", measured.cpu_us_per_op());
    report.set("heap_peak_mb", measured.heap_peak_mb);
    report.attempted = measured.ops;
    report.failed = measured.failed;
    report.violations = measured.violations.clone();

    let rates = measured.slice_rates();
    let steadiness = median(&rates) / measured.ops_per_s();
    report.notes.push(format!(
        "set-ups {:?} s; {} throughput slices, median {:.0} op/s, p50/p90 {:.3}; \
         {} latency slices, {} round trips, p99 {:.1} us",
        measured.setups_s,
        rates.len(),
        median(&rates),
        steadiness,
        measured.latency.per_slice_p50_us.len(),
        measured.latency.all_us.len(),
        quantile(&measured.latency.all_us, 0.99),
    ));
    if steadiness < 0.8 {
        report.notes.push(
            "DISTURBED: the median slice ran below 0.8 of the best decile; \
             a neighbour was busy for most of this run"
                .into(),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_model::wire::Json;

    fn declared(benchmark: &Json, key: &str) -> Vec<(String, String)> {
        benchmark
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry lacks {f}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// The output carries every metric `BENCHMARK.json` names, with its
    /// unit, and nothing else.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let benchmark = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&benchmark, "end_to_end"), printed(END_TO_END));
        let bounds: Vec<(String, String, f64)> = benchmark
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("better")
                        .and_then(Json::as_str)
                        .expect("better")
                        .to_string(),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let coded: Vec<(String, String, f64)> = END_TO_END_BOUNDS
            .iter()
            .map(|(name, better, bound)| {
                let better = match better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (name.to_string(), better.to_string(), *bound)
            })
            .collect();
        assert_eq!(bounds, coded);
        assert_eq!(declared(&benchmark, "per_layer"), printed(PER_LAYER));
        let workloads: Vec<String> = benchmark
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_line_is_json_with_exactly_the_tables_metrics() {
        let mut report = Report::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.set(name, 1.5 + i as f64);
        }
        report.attempted = 10;
        let line = Json::parse(&report.result_line()).expect("result line parses");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);

        report.violations.push("broken".into());
        assert!(report.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_metric_left_unmeasured_is_a_bug() {
        let _ = Report::new(END_TO_END).result_line();
    }
}
