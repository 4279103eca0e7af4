//! The three library workloads: each op parses one graph's text and solves
//! it with K-Iter under library-default options (one thread), exactly the
//! path of `kperiodic::optimal_throughput`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use kperiodic::{
    kiter_with_pipeline, AnalysisError, AnalysisOptions, EvaluationPipeline, KIterOptions,
    KIterResult,
};

use crate::measure::{ms, percentile, ratio, usage, Tracer};
use crate::workloads::{self, GraphInput};
use crate::{median, Metric, RunResult};

/// The answer of one op: the K-Iter result or the error kind it failed with.
pub type Answer = Result<KIterResult, &'static str>;

pub fn error_kind(error: &AnalysisError) -> &'static str {
    match error {
        AnalysisError::Model(_) => "model",
        AnalysisError::Solver(_) => "solver",
        AnalysisError::IterationLimitReached { .. } => "iteration_limit",
        AnalysisError::EventGraphTooLarge { .. } => "event_graph_too_large",
        AnalysisError::ArenaGraphMismatch => "arena_graph_mismatch",
        AnalysisError::RejectedByLint { .. } => "rejected_by_lint",
        AnalysisError::DeadlineExceeded => "deadline_exceeded",
    }
}

/// One untraced op.
pub fn solve(input: &GraphInput) -> Answer {
    let graph = input.parse().map_err(|_| "parse")?;
    let mut pipeline = EvaluationPipeline::new(AnalysisOptions::default());
    kiter_with_pipeline(&graph, &KIterOptions::default(), &mut pipeline).map_err(|e| error_kind(&e))
}

/// One traced op: the same calls, with a span around each layer and the
/// pipeline's build/patch/solve split read afterwards. The repetition
/// vector is computed once more on its own, since K-Iter computes it
/// internally where the benchmark cannot time it.
fn solve_traced(input: &GraphInput, op: u32, tracer: &mut Tracer) -> Answer {
    let started = Instant::now();
    let parsed = input.parse();
    let parsed_at = Instant::now();
    tracer.record(op, "csdf.parse", Some("op"), started, parsed_at);
    tracer.count(op, "parse_bytes", input.source.len() as f64);
    let Ok(graph) = parsed else {
        tracer.record(op, "op", None, started, parsed_at);
        return Err("parse");
    };
    black_box(graph.repetition_vector().ok());
    let repetition_at = Instant::now();
    tracer.record(op, "csdf.repetition", Some("op"), parsed_at, repetition_at);
    let mut pipeline = EvaluationPipeline::new(AnalysisOptions::default());
    let result = kiter_with_pipeline(&graph, &KIterOptions::default(), &mut pipeline);
    let solved_at = Instant::now();
    tracer.record(op, "kperiodic.kiter", Some("op"), repetition_at, solved_at);
    tracer.record(op, "op", None, started, solved_at);
    let stats = pipeline.stats();
    tracer.count(op, "build_ms", ms(stats.build_time));
    tracer.count(op, "patch_ms", ms(stats.patch_time));
    tracer.count(op, "solve_ms", ms(stats.solve_time));
    tracer.count(op, "evaluations", stats.evaluations as f64);
    tracer.count(op, "reused_buffers", stats.reused_buffers as f64);
    tracer.count(op, "rebuilt_buffers", stats.rebuilt_buffers as f64);
    if let Some(arena) = pipeline.arena() {
        tracer.count(op, "event_graph_nodes", arena.node_count() as f64);
        tracer.count(op, "event_graph_arcs", arena.arc_count() as f64);
    }
    if let Ok(result) = &result {
        tracer.count(op, "iterations", result.iterations as f64);
    }
    result.map_err(|e| error_kind(&e))
}

/// Setup before the first timed op: generate the inputs from the seed, then
/// one warm-up pass (every input once; on `large_scc`, whose ops take half a
/// second each, every input is parsed and only the first one solved).
pub fn setup(workload: &str, seed: u64) -> Vec<GraphInput> {
    let inputs = match workload {
        "paper_apps" => workloads::paper_apps(seed),
        "large_scc" => workloads::large_scc(seed),
        _ => workloads::sized_deadlock(seed),
    }
    .expect("the built-in generators produce valid graphs");
    for (index, input) in inputs.iter().enumerate() {
        if workload != "large_scc" || index == 0 {
            black_box(solve(input).ok());
        } else {
            black_box(input.parse().ok());
        }
    }
    inputs
}

/// The timed phase: whole rounds over `inputs` until `seconds` have passed.
/// Throughput, CPU cost and latency come from the median round, so a stall
/// of the host moves them less. Returns the first round's answers, after
/// checking that every later round answered identically.
pub fn run(
    inputs: &[GraphInput],
    seconds: u64,
    setup_s: f64,
    mut tracer: Option<&mut Tracer>,
    result: &mut RunResult,
) -> Vec<Answer> {
    let budget = Duration::from_secs(seconds);
    let mut first: Vec<Answer> = Vec::with_capacity(inputs.len());
    let mut rounds = 0usize;
    let mut op: u32 = 0;
    let (mut round_s, mut round_cpu_ms, mut round_p99_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut op_ms = Vec::with_capacity(inputs.len());
    let started = Instant::now();
    loop {
        let (round_started, before) = (Instant::now(), usage());
        op_ms.clear();
        for (index, input) in inputs.iter().enumerate() {
            let sent = Instant::now();
            let answer = match tracer.as_deref_mut() {
                Some(tracer) => solve_traced(input, op, tracer),
                None => solve(input),
            };
            op_ms.push(ms(sent.elapsed()));
            op += 1;
            result.attempted += 1;
            if let Err(kind) = answer {
                result.fail(kind);
            }
            if rounds == 0 {
                first.push(answer);
            } else if summary(&answer) != summary(&first[index]) {
                result.problem(format!(
                    "{}: round {} answered {:?}, round 1 answered {:?}",
                    input.name,
                    rounds + 1,
                    summary(&answer),
                    summary(&first[index])
                ));
            }
        }
        rounds += 1;
        round_s.push(round_started.elapsed().as_secs_f64());
        round_cpu_ms.push(ms(usage().cpu - before.cpu));
        round_p99_ms.push(percentile(&op_ms, 99.0));
        if started.elapsed() >= budget {
            break;
        }
    }
    let ops = result.attempted as f64;
    let per_round = inputs.len() as f64;
    // A median of single-op times over a fixed corpus of distinct graphs
    // lands on the seam between two graphs and flips from run to run, so the
    // p50 is the round's mean op latency. Both latencies are taken per round
    // and the median round is reported, so a host stall that hits a few
    // rounds does not become the run's tail.
    let round_op_ms: Vec<f64> = round_s.iter().map(|s| s * 1e3 / per_round).collect();
    match tracer {
        None => {
            result.metrics = vec![
                Metric::new("setup_s", setup_s, "s"),
                Metric::new("ops_per_s", per_round / median(&round_s), "1/s"),
                Metric::new("cpu_ms_per_op", median(&round_cpu_ms) / per_round, "ms"),
                Metric::new("peak_rss_mb", usage().peak_rss_kib as f64 / 1024.0, "MiB"),
                Metric::new("latency_p50_ms", median(&round_op_ms), "ms"),
                Metric::new("latency_p99_ms", median(&round_p99_ms), "ms"),
            ];
        }
        Some(tracer) => result.metrics = layer_metrics(tracer, ops),
    }
    first
}

/// What must repeat exactly from round to round.
fn summary(answer: &Answer) -> Result<(String, usize), &'static str> {
    answer
        .as_ref()
        .map(|result| (result.throughput.to_string(), result.iterations))
        .map_err(|kind| *kind)
}

fn layer_metrics(tracer: &Tracer, ops: f64) -> Vec<Metric> {
    let parse_ms = tracer.total_ms("csdf.parse");
    let op_ms = tracer.total_ms("op");
    let build = tracer.counter_sum("build_ms");
    let patch = tracer.counter_sum("patch_ms");
    let solve = tracer.counter_sum("solve_ms");
    let reused = tracer.counter_sum("reused_buffers");
    let rebuilt = tracer.counter_sum("rebuilt_buffers");
    let solved_ops = tracer
        .counters
        .iter()
        .filter(|c| c.1 == "iterations")
        .count() as f64;
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
        Metric::new("kperiodic.build_ms", build / ops, "ms"),
        Metric::new("kperiodic.patch_ms", patch / ops, "ms"),
        Metric::new(
            "kperiodic.arc_reuse_ratio",
            ratio(reused, reused + rebuilt),
            "ratio",
        ),
        Metric::new(
            "kperiodic.iterations",
            ratio(tracer.counter_sum("iterations"), solved_ops),
            "count",
        ),
        Metric::new(
            "kperiodic.event_graph_nodes",
            tracer.counter_max("event_graph_nodes"),
            "count",
        ),
        Metric::new(
            "kperiodic.event_graph_arcs",
            tracer.counter_max("event_graph_arcs"),
            "count",
        ),
        Metric::new("mcr.solve_ms", solve / ops, "ms"),
        Metric::new(
            "mcr.solve_ms_per_iteration",
            ratio(solve, tracer.counter_sum("evaluations")),
            "ms",
        ),
        Metric::new("op.traced_ms", op_ms / ops, "ms"),
        Metric::new(
            "op.layer_coverage",
            ratio(parse_ms + build + patch + solve, op_ms),
            "ratio",
        ),
    ]
}
