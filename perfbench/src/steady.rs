//! The steadiness mode: runs every workload `runs` times as fresh
//! processes, alternating the workload order (forward, then reversed) and
//! the seed, and prints each metric's median, quartiles and spread
//! (`(q3 - q1) / median`, the figure the end-to-end bounds are set from).
//! With `--workload`, only that workload runs.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use csdf_service::Json;

use crate::workloads::WORKLOADS;

pub fn run(
    only: Option<&str>,
    runs: usize,
    first_seed: u64,
    seconds: u64,
    trace: bool,
) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    // workload -> metric -> values
    let mut table: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut failed_shares: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for run in 0..runs {
        let mut order: Vec<&str> = WORKLOADS
            .into_iter()
            .filter(|workload| only.map_or(true, |only| only == *workload))
            .collect();
        if run % 2 == 1 {
            order.reverse();
        }
        let seed = first_seed + run as u64;
        for workload in order {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .expect("the benchmark re-runs itself");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let Ok(result) = Json::parse(last) else {
                eprintln!("{workload} seed {seed}: no result line");
                return ExitCode::FAILURE;
            };
            if !output.status.success() {
                eprintln!("{workload} seed {seed}: {last}");
                eprintln!("{}", String::from_utf8_lossy(&output.stderr));
                return ExitCode::FAILURE;
            }
            let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
            failed_shares.entry(workload).or_default().push(format!(
                "{}/{}",
                count("failed"),
                count("attempted")
            ));
            if let Some(Json::Object(metrics)) = result.get("metrics") {
                for (name, metric) in metrics {
                    let value = match metric.get("value") {
                        Some(Json::Float(value)) => *value,
                        Some(Json::Int(value)) => *value as f64,
                        _ => continue,
                    };
                    table
                        .entry(workload)
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
            eprintln!("run {run} {workload} seed {seed}: {last}");
        }
    }
    println!(
        "{:<15} {:<30} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for workload in WORKLOADS {
        for (name, values) in table.get(workload).into_iter().flatten() {
            let (q1, median, q3) = crate::measure::quartiles(values);
            let spread = if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median
            };
            println!(
                "{workload:<15} {name:<30} {median:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4}"
            );
        }
        if let Some(shares) = failed_shares.get(workload) {
            println!("{workload:<15} failed/attempted: {}", shares.join(" "));
        }
    }
    ExitCode::SUCCESS
}
