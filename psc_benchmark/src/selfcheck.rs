//! `--selfcheck N`: the acceptance test the pipeline applies, run locally.
//!
//! Two sets of N fresh-process untraced runs per workload, interleaved
//! (A B A B …) so that slow drift of the machine lands on both sets alike;
//! run `i` of either set uses seed `base + i`. For every end-to-end metric
//! it prints each set's min / median / max and quartile spread, and fails
//! if the two medians differ by more than the metric's bound. With the
//! pipeline's ten runs per set it also fails on a spread above the bound
//! (`setup_s` excepted, as in the pipeline); with fewer, the quartiles sit
//! next to the extremes, one slow run is a third of the spread, and the
//! spread is printed but not judged.

use crate::estimate::{median, quantile};
use crate::report::{Better, END_TO_END, END_TO_END_BOUNDS};
use crate::workloads::WORKLOADS;
use psc_model::wire::Json;
use std::process::Command;

/// Runs per set in the pipeline's own acceptance test.
const PIPELINE_RUNS: usize = 10;

/// One fresh-process run: the value of every end-to-end metric, in table
/// order.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: incorrect run: {last}"));
    }
    END_TO_END
        .iter()
        .map(|(name, _)| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: result lacks {name}"))
        })
        .collect()
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), which
/// is what the pipeline computes.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    // The exclusive method places quartile k at rank k (n + 1) / 4 of the
    // 1-based order statistics; `quantile` takes a 0-based share of n - 1.
    let at = |k: f64| ((k * (n + 1.0) / 4.0 - 1.0) / (n - 1.0)).clamp(0.0, 1.0);
    (quantile(values, at(3.0)) - quantile(values, at(1.0))) / median(values)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn run(n: usize, seconds: f64, base_seed: u64) -> Result<bool, String> {
    let mut passed = true;
    for workload in WORKLOADS {
        // sets[set][metric] = one value per run
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..n {
            for set in &mut sets {
                let values = run_once(workload, base_seed + i as u64, seconds)?;
                for (column, value) in set.iter_mut().zip(values) {
                    column.push(value);
                }
            }
            eprintln!("[selfcheck] {workload}: pair {} of {n} done", i + 1);
        }
        for (m, ((name, unit), (_, better, bound))) in
            END_TO_END.iter().zip(END_TO_END_BOUNDS).enumerate()
        {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let mut verdict = "ok";
            for (label, values) in [("A", a), ("B", b)] {
                let spread = if n > 1 { quartile_spread(values) } else { 0.0 };
                if n >= PIPELINE_RUNS && *name != "setup_s" && spread > *bound {
                    verdict = "SPREAD ABOVE BOUND";
                }
                println!(
                    "{workload}/{name:<14} set {label}: min {:>12.4} median {:>12.4} max {:>12.4} {unit:<5} iqr/median {:>5.2} %",
                    quantile(values, 0.0),
                    median(values),
                    quantile(values, 1.0),
                    100.0 * spread,
                );
            }
            // Symmetric: neither set may look like a regression of the other.
            let apart = worsening(*better, median(a), median(b)).max(worsening(
                *better,
                median(b),
                median(a),
            ));
            if apart > *bound {
                verdict = "MEDIANS APART BY MORE THAN THE BOUND";
            }
            println!(
                "{workload}/{name:<14} medians apart {:>5.2} % (bound {:.0} %): {verdict}",
                100.0 * apart,
                100.0 * bound
            );
            passed &= verdict == "ok";
        }
    }
    println!("selfcheck: {}", if passed { "PASS" } else { "FAIL" });
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `statistics.quantiles([1..=10], n=4)` is `[2.75, 5.5, 8.25]`.
    #[test]
    fn quartile_spread_follows_pythons_exclusive_quartiles() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // `statistics.quantiles([10, 20, 30, 40, 50], n=4)` is `[15, 30, 45]`.
        let values = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert!((quartile_spread(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
    }
}
