//! `psc_benchmark` — the repository's benchmark. See `README.md` beside
//! this package for what it measures and why; `BENCHMARK.json` at the
//! repository root names every metric it prints.
//!
//! ```text
//! psc_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! psc_benchmark --smoke                 every workload, untraced and traced, tiny
//! psc_benchmark --selfcheck [N]         two interleaved sets of N runs per workload
//! ```

mod client;
mod estimate;
mod report;
mod run;
mod selfcheck;
mod stack;
mod sys;
mod trace;
mod workloads;

use report::Report;
use run::Plan;
use std::process::ExitCode;
use workloads::{Scale, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOCATOR: sys::CountingAllocator = sys::CountingAllocator;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const DEFAULT_SECONDS: f64 = 14.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    selfcheck: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: psc_benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      psc_benchmark --smoke\n\
         \x20      psc_benchmark --selfcheck [N] [--seconds S]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        selfcheck: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        // `--selfcheck` alone takes its default; every other flag with a
        // value takes the next argument whatever it looks like.
        let value = match flag {
            "--workload" | "--seed" | "--seconds" | "--trace" => Some(
                args.get(i)
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .as_str(),
            ),
            "--selfcheck" => args
                .get(i)
                .map(String::as_str)
                .filter(|v| !v.starts_with("--")),
            _ => None,
        };
        i += usize::from(value.is_some());
        let number = |what: &str| format!("{flag} takes {what}, not {}", value.unwrap_or(""));
        match flag {
            "--workload" => parsed.workload = value.map(str::to_string),
            "--seed" => {
                parsed.seed = value
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| number("a whole number"))?
            }
            "--seconds" => {
                let seconds: f64 = value
                    .and_then(|v| v.parse().ok())
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| number("seconds in (0, 600]"))?;
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--selfcheck" => {
                let n = match value {
                    Some(v) => v.parse().ok().filter(|n| *n > 0),
                    None => Some(5),
                };
                parsed.selfcheck = Some(n.ok_or_else(|| number("runs per set, at least 1"))?);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(parsed)
}

/// One workload, one mode, in this process: prints every metric of the
/// mode by name and unit, then the result line. `Ok(false)` is a run that
/// completed but must not be trusted (a failed op or a broken invariant).
fn run_one(name: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Result<bool, String> {
    let workload = workloads::generate(name, seed, scale)
        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let compiled = workloads::compile(&workload);
    eprintln!(
        "[{name}] seed {seed}  inputs_digest {:#018x}  population {}  ops/slice {}  \
         reference notifications/slice {}",
        compiled.digest,
        workload.population.len(),
        workload.ops.len(),
        compiled.expected_notifications
    );
    if seed == DEFAULT_SEED && scale == Scale::Full {
        let recorded = workloads::default_seed_digest(name).expect("known workload");
        if compiled.digest != recorded {
            return Err(format!(
                "{name}: the default seed generates inputs_digest {:#018x}, not the recorded \
                 {recorded:#018x} — the traffic changed",
                compiled.digest
            ));
        }
    }
    let plan = Plan::new(seconds);
    let report: Report = if trace {
        trace::run(&workload, &compiled, plan)?
    } else {
        report::end_to_end(&run::measure(&workload, &compiled, plan)?)
    };
    for note in &report.notes {
        eprintln!("[{name}] {note}");
    }
    for violation in &report.violations {
        eprintln!("[{name}] VIOLATED: {violation}");
    }
    println!("{}", report.table(name));
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    if let Some(n) = args.selfcheck {
        return selfcheck::run(n, args.seconds.unwrap_or(DEFAULT_SECONDS), args.seed);
    }
    // Before any server thread exists, so every thread inherits the mask.
    let cpu = sys::pin_to_last_allowed_cpu()
        .map_err(|e| format!("cannot pin to one CPU ({e}); unpinned numbers do not repeat"))?;
    eprintln!("[psc_benchmark] pinned to CPU {cpu}");
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS });
    match &args.workload {
        Some(name) => run_one(name, args.seed, seconds, args.trace, scale),
        None if args.smoke => {
            let mut all_correct = true;
            for name in WORKLOADS {
                for trace in [false, true] {
                    all_correct &= run_one(name, args.seed, seconds, trace, scale)?;
                }
            }
            Ok(all_correct)
        }
        None => Err(usage()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("psc_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
