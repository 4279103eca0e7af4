//! End-to-end and per-layer benchmark of K-Iter and the `csdf-service`
//! daemon. See `README.md` in this directory for the workloads, metrics and
//! how to run it.
//!
//! ```text
//! kiter-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--check] [--perturb]
//! kiter-perfbench --steady <runs> [--workload <name>] [--seconds <s>]
//!                 [--trace <0|1>] [--seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. The exit code
//! is non-zero on any wrong answer or any failed op other than the one known
//! fault the benchmark keeps.

mod check;
mod library;
mod measure;
mod service;
mod steady;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use crate::check::Level;
use crate::measure::Tracer;
use crate::workloads::WORKLOADS;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every per-layer metric, with its unit. A layer a workload does not reach
/// reads 0 there (for example the daemon's cache on the library workloads).
const PER_LAYER: [(&str, &str); 24] = [
    ("csdf.parse_ms", "ms"),
    ("csdf.parse_mb_per_s", "MB/s"),
    ("csdf.repetition_ms", "ms"),
    ("kperiodic.build_ms", "ms"),
    ("kperiodic.patch_ms", "ms"),
    ("kperiodic.arc_reuse_ratio", "ratio"),
    ("kperiodic.iterations", "count"),
    ("kperiodic.event_graph_nodes", "count"),
    ("kperiodic.event_graph_arcs", "count"),
    ("mcr.solve_ms", "ms"),
    ("mcr.solve_ms_per_iteration", "ms"),
    ("lint.analyze_ms", "ms"),
    ("explore.points_per_s", "1/s"),
    ("service.request_parse_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.pool_warm_ratio", "ratio"),
    ("service.evaluate_hit_p50_ms", "ms"),
    ("service.evaluate_miss_p50_ms", "ms"),
    ("service.sweep_p50_ms", "ms"),
    ("service.min_storage_p50_ms", "ms"),
    ("service.scenario_set_p50_ms", "ms"),
    ("service.lint_p50_ms", "ms"),
    ("op.traced_ms", "ms"),
    ("op.layer_coverage", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: BTreeMap<String, u64>,
    pub metrics: Vec<Metric>,
    /// Wrong answers and unexpected failures; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn fail(&mut self, kind: &str) {
        self.failed += 1;
        *self.failures.entry(kind.to_string()).or_default() += 1;
    }

    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }
}

/// The median, averaging the middle two of an even count.
pub fn median(samples: &[f64]) -> f64 {
    measure::quartiles(samples).1
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: bool,
    perturb: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        check: false,
        perturb: false,
        steady: None,
    };
    let mut iterator = std::env::args().skip(1);
    while let Some(flag) = iterator.next() {
        let mut value = || iterator.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?);
            }
            "--check" => args.check = true,
            "--perturb" => args.perturb = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(workload) = &args.workload {
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
    } else if args.steady.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("kiter-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        let only = args.workload.as_deref();
        return steady::run(only, runs, args.seed, args.seconds, args.trace);
    }
    let workload = args.workload.as_deref().expect("checked in parse_args");
    let level = if args.check { Level::Full } else { Level::Run };
    let policy = check::Policy::new(workload, level);
    let mut tracer = args.trace.then(Tracer::new);
    let mut result = RunResult::default();

    if workload == "service_mix" {
        let (mix, setup_s) = set_up(|| service::setup(args.seed));
        let responses = service::run(&mix, args.seconds, setup_s, tracer.as_mut(), &mut result);
        check::service(&mix, &responses, policy, args.perturb, &mut result);
    } else {
        let (inputs, setup_s) = set_up(|| library::setup(workload, args.seed));
        let answers = library::run(&inputs, args.seconds, setup_s, tracer.as_mut(), &mut result);
        check::library(
            workload,
            &inputs,
            &answers,
            policy,
            args.perturb,
            &mut result,
        );
    }

    if let Some(tracer) = &tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{workload}-seed{}.jsonl", args.seed));
        if let Err(error) = tracer.write(&path) {
            result.problem(format!("writing {}: {error}", path.display()));
        }
        for (name, unit) in PER_LAYER {
            if !result.metrics.iter().any(|metric| metric.name == name) {
                result.metrics.push(Metric::new(name, 0.0, unit));
            }
        }
    }
    report(workload, &result)
}

/// Prints the failure table and the check's findings on standard error,
/// then the result line, and picks the exit code.
fn report(workload: &str, result: &RunResult) -> ExitCode {
    for problem in result.problems.iter().take(20) {
        eprintln!("WRONG: {problem}");
    }
    if result.problems.len() > 20 {
        eprintln!("WRONG: ... {} more", result.problems.len() - 20);
    }
    let failures: Vec<String> = result
        .failures
        .iter()
        .map(|(kind, count)| format!("\"{kind}\":{count}"))
        .collect();
    println!(
        "{{\"workload\":\"{workload}\",\"failures_by_kind\":{{{}}}}}",
        failures.join(",")
    );
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|metric| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                metric.name, metric.value, metric.unit
            )
        })
        .collect();
    let correct = result.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `setup` [`SETUPS`] times; returns the last result and the median
/// time in seconds.
fn set_up<T>(setup: impl Fn() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Only one setup's inputs are alive at a time, so `peak_rss_mb` is
        // not doubled by the benchmark's own copies.
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS is positive"), median(&seconds))
}
