//! The `service_mix` workload: one closed-loop client calling
//! `Daemon::handle_line` on one thread, one fresh daemon per round.

use std::hint::black_box;
use std::time::{Duration, Instant};

use csdf_service::{parse_request, Daemon, GraphSpec, Json, RequestBody, ServiceConfig};

use crate::measure::{ms, percentile, ratio, usage, Tracer};
use crate::workloads::{service_mix, ServiceMix};
use crate::{median, Metric, RunResult};

/// Requests of the stream the warm-up daemon answers during setup.
const WARM_UP_REQUESTS: usize = 200;

/// The daemon every round starts: library-default K-Iter options (one
/// solver thread) and the default pool, cache and admission limits.
fn daemon() -> Daemon {
    Daemon::new(ServiceConfig::default())
}

/// Setup before the first timed request: generate the request stream from
/// the seed and answer its first requests on a throwaway daemon.
pub fn setup(seed: u64) -> ServiceMix {
    let mix = service_mix(seed).expect("the built-in generators produce valid graphs");
    let warm = daemon();
    for request in mix.requests.iter().take(WARM_UP_REQUESTS) {
        black_box(warm.handle_line(&request.line));
    }
    mix
}

fn graph_spec(body: &RequestBody) -> &GraphSpec {
    match body {
        RequestBody::Evaluate { graph }
        | RequestBody::Sweep { graph, .. }
        | RequestBody::MinStorage { graph, .. }
        | RequestBody::ScenarioSet { graph, .. }
        | RequestBody::Lint { graph }
        | RequestBody::Verify { graph, .. } => graph,
    }
}

/// One traced request: the daemon call, preceded by the benchmark's own
/// calls into the layers the daemon runs first (request decoding, graph
/// parsing, the repetition vector and, for lint requests, the analyzer), each
/// in its own span.
fn handle_traced(daemon: &Daemon, line: &str, op: u32, tracer: &mut Tracer) -> String {
    let started = Instant::now();
    let request = parse_request(line).expect("generated requests are well-formed");
    let decoded_at = Instant::now();
    tracer.record(op, "service.request_parse", Some("op"), started, decoded_at);
    let spec = graph_spec(&request.body);
    let graph = spec.load().expect("generated graphs load");
    let loaded_at = Instant::now();
    tracer.record(op, "csdf.parse", Some("op"), decoded_at, loaded_at);
    tracer.count(op, "parse_bytes", spec.source.len() as f64);
    black_box(graph.repetition_vector().ok());
    let mut layer_at = Instant::now();
    tracer.record(op, "csdf.repetition", Some("op"), loaded_at, layer_at);
    if matches!(request.body, RequestBody::Lint { .. }) {
        black_box(csdf_lint::analyze(&graph));
        let linted_at = Instant::now();
        tracer.record(op, "lint.analyze", Some("op"), layer_at, linted_at);
        layer_at = linted_at;
    }
    let response = daemon.handle_line(line);
    let answered_at = Instant::now();
    tracer.record(op, "service.handle", Some("op"), layer_at, answered_at);
    tracer.record(op, "op", None, started, answered_at);
    response
}

/// The label a response's latency is reported under.
fn label(response: &Json) -> &'static str {
    match response.get("type").and_then(Json::as_str) {
        Some("evaluate") => match response.get("cache").and_then(Json::as_str) {
            Some("hit") => "evaluate_hit",
            _ => "evaluate_miss",
        },
        Some("sweep") => "sweep",
        Some("min_storage") => "min_storage",
        Some("scenario_set") => "scenario_set",
        Some("lint") => "lint",
        _ => "other",
    }
}

/// Design points a composite response evaluated.
fn points(response: &Json) -> f64 {
    let count = |key: &str| {
        response
            .get(key)
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len)
    };
    match response.get("type").and_then(Json::as_str) {
        Some("sweep") => count("points") as f64,
        Some("scenario_set") => count("scenarios") as f64,
        Some("min_storage") => response
            .get("evaluations")
            .and_then(Json::as_u64)
            .unwrap_or(1) as f64,
        _ => 0.0,
    }
}

/// The timed phase: whole rounds (a fresh daemon answering the whole
/// stream) until `seconds` have passed. Throughput, CPU cost and the
/// latency percentiles come from the median round. Returns the first round's parsed responses, after
/// checking that every later round answered identically.
pub fn run(
    mix: &ServiceMix,
    seconds: u64,
    setup_s: f64,
    mut tracer: Option<&mut Tracer>,
    result: &mut RunResult,
) -> Vec<Json> {
    let budget = Duration::from_secs(seconds);
    let count = mix.requests.len();
    let mut first: Vec<String> = Vec::with_capacity(count);
    let mut latency_ms: Vec<f64> = Vec::with_capacity(count);
    let (mut round_p50_ms, mut round_p99_ms) = (Vec::new(), Vec::new());
    let (mut hits, mut lookups, mut warm, mut checkouts) = (0usize, 0usize, 0usize, 0usize);
    let mut rounds = 0usize;
    let mut op: u32 = 0;
    let (mut round_s, mut round_cpu_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let (round_started, before) = (Instant::now(), usage());
        let daemon = daemon();
        latency_ms.clear();
        for (index, request) in mix.requests.iter().enumerate() {
            let sent = Instant::now();
            let response = match tracer.as_deref_mut() {
                Some(tracer) => handle_traced(&daemon, &request.line, op, tracer),
                None => daemon.handle_line(&request.line),
            };
            latency_ms.push(ms(sent.elapsed()));
            op += 1;
            if rounds == 0 {
                first.push(response);
            } else if response != first[index] {
                result.problem(format!(
                    "request {index}: round {} answered {response}, round 1 answered {}",
                    rounds + 1,
                    first[index]
                ));
            }
        }
        let (cache, pool) = (daemon.cache_stats(), daemon.pool_stats());
        hits += cache.hits;
        lookups += cache.hits + cache.misses;
        warm += pool.warm;
        checkouts += pool.checkouts;
        rounds += 1;
        round_s.push(round_started.elapsed().as_secs_f64());
        round_cpu_ms.push(ms(usage().cpu - before.cpu));
        round_p50_ms.push(median(&latency_ms));
        round_p99_ms.push(percentile(&latency_ms, 99.0));
        if started.elapsed() >= budget {
            break;
        }
    }

    let mut kinds = std::collections::BTreeMap::new();
    for request in &mix.requests {
        *kinds.entry(format!("{:?}", request.kind)).or_insert(0usize) += 1;
    }
    eprintln!("stream: {count} requests per round, {rounds} rounds, by kind {kinds:?}");
    eprintln!(
        "daemon: {hits} cache hits of {lookups} lookups, {warm} warm of {checkouts} checkouts"
    );
    let responses: Vec<Json> = first
        .iter()
        .map(|line| Json::parse(line).expect("the daemon renders valid JSON"))
        .collect();
    for response in &responses {
        result.attempted += rounds as u64;
        if response.get("status").and_then(Json::as_str) != Some("ok") {
            let kind = response
                .get("error")
                .and_then(|error| error.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            for _ in 0..rounds {
                result.fail(kind);
            }
        }
    }
    let ops = result.attempted as f64;
    result.metrics = match tracer {
        None => vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", count as f64 / median(&round_s), "1/s"),
            Metric::new("cpu_ms_per_op", median(&round_cpu_ms) / count as f64, "ms"),
            Metric::new("peak_rss_mb", usage().peak_rss_kib as f64 / 1024.0, "MiB"),
            Metric::new("latency_p50_ms", median(&round_p50_ms), "ms"),
            Metric::new("latency_p99_ms", median(&round_p99_ms), "ms"),
        ],
        Some(tracer) => {
            let labels: Vec<&str> = responses.iter().map(label).collect();
            let handle_ms: Vec<f64> = tracer
                .spans
                .iter()
                .filter(|span| span.name == "service.handle")
                .map(|span| (span.end_ns - span.start_ns) as f64 / 1e6)
                .collect();
            let p50_of = |wanted: &str| {
                let samples: Vec<f64> = handle_ms
                    .iter()
                    .enumerate()
                    .filter(|(index, _)| labels[index % count] == wanted)
                    .map(|(_, latency)| *latency)
                    .collect();
                median(&samples)
            };
            let explore_ms: f64 = handle_ms
                .iter()
                .enumerate()
                .filter(|(index, _)| {
                    matches!(
                        labels[index % count],
                        "sweep" | "min_storage" | "scenario_set"
                    )
                })
                .map(|(_, latency)| latency)
                .sum();
            let explore_points = rounds as f64 * responses.iter().map(points).sum::<f64>();
            let lint_requests = labels.iter().filter(|label| **label == "lint").count();
            let parse_ms = tracer.total_ms("csdf.parse");
            vec![
                Metric::new("csdf.parse_ms", parse_ms / ops, "ms"),
                Metric::new(
                    "csdf.parse_mb_per_s",
                    ratio(tracer.counter_sum("parse_bytes") / 1e6, parse_ms / 1e3),
                    "MB/s",
                ),
                Metric::new(
                    "csdf.repetition_ms",
                    tracer.total_ms("csdf.repetition") / ops,
                    "ms",
                ),
                Metric::new(
                    "lint.analyze_ms",
                    ratio(
                        tracer.total_ms("lint.analyze"),
                        (lint_requests * rounds) as f64,
                    ),
                    "ms",
                ),
                Metric::new(
                    "explore.points_per_s",
                    ratio(explore_points, explore_ms / 1e3),
                    "1/s",
                ),
                Metric::new(
                    "service.request_parse_ms",
                    tracer.total_ms("service.request_parse") / ops,
                    "ms",
                ),
                Metric::new(
                    "service.cache_hit_ratio",
                    ratio(hits as f64, lookups as f64),
                    "ratio",
                ),
                Metric::new(
                    "service.pool_warm_ratio",
                    ratio(warm as f64, checkouts as f64),
                    "ratio",
                ),
                Metric::new("service.evaluate_hit_p50_ms", p50_of("evaluate_hit"), "ms"),
                Metric::new(
                    "service.evaluate_miss_p50_ms",
                    p50_of("evaluate_miss"),
                    "ms",
                ),
                Metric::new("service.sweep_p50_ms", p50_of("sweep"), "ms"),
                Metric::new("service.min_storage_p50_ms", p50_of("min_storage"), "ms"),
                Metric::new("service.scenario_set_p50_ms", p50_of("scenario_set"), "ms"),
                Metric::new("service.lint_p50_ms", p50_of("lint"), "ms"),
                Metric::new("op.traced_ms", tracer.total_ms("op") / ops, "ms"),
            ]
        }
    };
    responses
}
