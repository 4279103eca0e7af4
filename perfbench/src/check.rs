//! The reference check: every answer the timed phase produced is checked
//! against computations that do not go through K-Iter's event graph, or
//! against properties any correct answer has. Nothing is compared with a
//! stored copy of earlier output; every reference is recomputed.
//!
//! * Exact agreement with symbolic execution (self-timed state-space
//!   exploration) wherever it finishes within its event budget, and — in
//!   the full check — with HSDF expansion on small expansions.
//! * The `csdf-lint` bounds must bracket every throughput, and the
//!   1-periodic throughput must not exceed it.
//! * Every library answer must be reproduced by a from-scratch fixed-K
//!   evaluation at the answered periodicity (a fresh event graph instead of
//!   the K-Iter loop's patched arena).
//! * On `large_scc` (full check only), the K-periodic schedule at the
//!   answered period is replayed with `KPeriodicSchedule::validate`, which
//!   must keep every buffer non-negative.
//! * On `service_mix`: sweep throughput is non-decreasing in slack, and
//!   every `min_storage` answer meets its target while the next smaller
//!   slack misses it.

use std::collections::HashMap;
use std::time::Duration;

use csdf::transform::bound_all_buffers_tracked;
use csdf::{CsdfGraph, Rational, Throughput};
use csdf_baselines::{
    expansion_throughput, periodic_throughput, symbolic_execution_throughput, Budget,
    EvaluationStatus,
};
use csdf_explore::uniform_slack_capacity;
use csdf_service::{parse_throughput, Json};
use kperiodic::{evaluate_k_periodic, optimal_throughput, AnalysisOptions, KPeriodicSchedule};

use crate::library::Answer;
use crate::workloads::{Expect, GraphInput, ServiceMix};
use crate::RunResult;

/// How thorough the check is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// After every benchmark run: cheap references only.
    Run,
    /// The standalone check: larger budgets, HSDF expansion and schedule
    /// replay.
    Full,
}

/// Which graphs of a workload get an exact reference, and how much work
/// symbolic execution may spend on each.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    level: Level,
    /// Largest `Σ q_t·φ_t` symbolic execution is tried on.
    symbolic_copies: u128,
    /// Simulated events before symbolic execution gives up. Events, not
    /// wall time, decide, so the outcome does not depend on host load.
    symbolic_events: u64,
    /// Largest expansion the HSDF baseline builds (`0`: not run).
    expansion_copies: u64,
}

impl Policy {
    pub fn new(workload: &str, level: Level) -> Policy {
        let full = level == Level::Full;
        let symbolic_copies = match workload {
            // Symbolic execution proves every sized app's verdict quickly.
            "sized_deadlock" => u128::MAX,
            // 10k tasks: the simulation is far too slow; the schedule
            // replay and the lint bounds stand in for it.
            "large_scc" => 0,
            _ if full => 65_536,
            _ => 4_096,
        };
        Policy {
            level,
            symbolic_copies,
            symbolic_events: if full { 1_000_000 } else { 200_000 },
            expansion_copies: if full { 2_000 } else { 0 },
        }
    }
}

/// `Σ q_t·φ_t`: the size of the HSDF expansion, and the firings symbolic
/// execution simulates per graph iteration.
fn copies(graph: &CsdfGraph) -> u128 {
    let Ok(repetition) = graph.repetition_vector() else {
        return u128::MAX;
    };
    graph
        .tasks()
        .map(|(id, task)| u128::from(repetition.get(id)) * task.phase_count() as u128)
        .sum()
}

/// Independent exact throughputs, from each baseline that finishes within
/// its budget: symbolic execution, and HSDF expansion in the full check.
fn exact_references(graph: &CsdfGraph, policy: Policy) -> Vec<(&'static str, Throughput)> {
    let mut references = Vec::new();
    let size = copies(graph);
    let budget = |events| Budget {
        max_wall_time: Duration::from_secs(86_400),
        max_events: events,
    };
    if size <= policy.symbolic_copies {
        if let Ok(result) = symbolic_execution_throughput(graph, &budget(policy.symbolic_events)) {
            if let (EvaluationStatus::Exact, Some(throughput)) = (result.status, result.throughput)
            {
                references.push(("symbolic execution", throughput));
            }
        }
    }
    let limit = policy.expansion_copies;
    if limit > 0 && size <= u128::from(limit) {
        if let Ok(result) = expansion_throughput(graph, &budget(limit)) {
            if let (EvaluationStatus::Exact, Some(throughput)) = (result.status, result.throughput)
            {
                references.push(("HSDF expansion", throughput));
            }
        }
    }
    references
}

/// Checks one throughput of `graph`; returns whether an exact reference
/// was available.
fn check_throughput(
    graph: &CsdfGraph,
    answer: Throughput,
    policy: Policy,
    name: &str,
    result: &mut RunResult,
) -> bool {
    let references = exact_references(graph, policy);
    for (method, reference) in &references {
        if *reference != answer {
            result.problem(format!(
                "{name}: answered {answer}, {method} gives {reference}"
            ));
        }
    }
    if let Some(bounds) = csdf_lint::analyze(graph).bounds {
        if !bounds.brackets(&answer) {
            result.problem(format!(
                "{name}: answered {answer}, outside lint bounds {bounds}"
            ));
        }
    }
    if let Ok(periodic) = periodic_throughput(graph) {
        if let Some(periodic) = periodic.throughput {
            if periodic > answer {
                result.problem(format!(
                    "{name}: answered {answer}, below the 1-periodic throughput {periodic}"
                ));
            }
        }
    }
    !references.is_empty()
}

/// The deliberate perturbation of `--perturb`: halves a finite throughput
/// and turns a deadlock into a positive one.
pub fn perturb(answer: Throughput) -> Throughput {
    match answer {
        Throughput::Finite(value) => Throughput::Finite(
            value
                .checked_mul(&Rational::new(1, 2).expect("1/2 is a valid rational"))
                .expect("halving cannot overflow"),
        ),
        Throughput::Deadlocked => Throughput::Finite(Rational::from_integer(1)),
        Throughput::Unbounded => Throughput::Deadlocked,
    }
}

/// Checks the library answers (first round) of one workload.
pub fn library(
    workload: &str,
    inputs: &[GraphInput],
    answers: &[Answer],
    policy: Policy,
    mut perturb_first: bool,
    result: &mut RunResult,
) {
    let mut exact = 0usize;
    for (input, answer) in inputs.iter().zip(answers) {
        let graph = match input.parse() {
            Ok(graph) => graph,
            Err(error) => {
                result.problem(format!("{}: does not parse: {error}", input.name));
                continue;
            }
        };
        match answer {
            Err(kind) => {
                if input.expected_failure != Some(*kind) {
                    result.problem(format!("{}: unexpected failure {kind}", input.name));
                } else if policy.level == Level::Full {
                    for (method, verdict) in exact_references(&graph, policy) {
                        eprintln!(
                            "known fault: {} fails with {kind}; {method} answers {verdict}",
                            input.name
                        );
                    }
                }
            }
            Ok(found) => {
                let mut throughput = found.throughput;
                if perturb_first {
                    throughput = perturb(throughput);
                    perturb_first = false;
                }
                if check_throughput(&graph, throughput, policy, &input.name, result) {
                    exact += 1;
                }
                reevaluate(&graph, found, throughput, &input.name, result);
                if workload == "large_scc" && policy.level == Level::Full {
                    replay_schedule(&graph, found, throughput, &input.name, result);
                }
            }
        }
    }
    eprintln!(
        "check: {} graphs, {exact} with an exact symbolic/expansion reference",
        inputs.len()
    );
}

/// A fresh fixed-K evaluation at the answered periodicity must give the
/// answered throughput.
fn reevaluate(
    graph: &CsdfGraph,
    found: &kperiodic::KIterResult,
    answer: Throughput,
    name: &str,
    result: &mut RunResult,
) {
    match evaluate_k_periodic(graph, &found.periodicity, &AnalysisOptions::default()) {
        Ok(evaluation) if evaluation.throughput() == answer => {}
        Ok(evaluation) => result.problem(format!(
            "{name}: answered {answer}, a fresh evaluation at its K gives {}",
            evaluation.throughput()
        )),
        Err(error) => result.problem(format!("{name}: fresh evaluation failed: {error}")),
    }
}

/// Replays the K-periodic schedule at the answered periodicity and checks
/// that it runs at the answered throughput without underflowing a buffer.
fn replay_schedule(
    graph: &CsdfGraph,
    found: &kperiodic::KIterResult,
    answer: Throughput,
    name: &str,
    result: &mut RunResult,
) {
    match KPeriodicSchedule::compute(graph, &found.periodicity, &AnalysisOptions::default()) {
        Ok(Some(schedule)) => {
            if Throughput::from_period(schedule.period()).ok() != Some(answer) {
                result.problem(format!(
                    "{name}: answered {answer}, its schedule runs at period {}",
                    schedule.period()
                ));
            } else if !schedule.validate(graph, 1) {
                result.problem(format!(
                    "{name}: the K-periodic schedule underflows a buffer"
                ));
            }
        }
        Ok(None) => result.problem(format!("{name}: no K-periodic schedule at the answered K")),
        Err(error) => result.problem(format!("{name}: schedule extraction failed: {error}")),
    }
}

/// Reference throughputs of the graphs behind the service stream, each
/// computed once: symbolic execution where it finishes, else a cold
/// library K-Iter call checked against the lint bounds and the 1-periodic
/// throughput (an independent path from the daemon's pooled sessions).
struct References {
    policy: Policy,
    known: HashMap<String, Throughput>,
    exact: usize,
}

impl References {
    fn get(&mut self, graph: &CsdfGraph, result: &mut RunResult) -> Option<Throughput> {
        let key = csdf::text::to_text(graph);
        if let Some(&known) = self.known.get(&key) {
            return Some(known);
        }
        let exact = exact_references(graph, self.policy);
        let reference = match exact.first() {
            Some(&(_, first)) => {
                if exact.iter().any(|&(_, other)| other != first) {
                    result.problem(format!("reference baselines disagree: {exact:?}"));
                }
                self.exact += 1;
                first
            }
            None => match optimal_throughput(graph) {
                Ok(cold) => {
                    check_throughput(graph, cold.throughput, self.policy, "reference", result);
                    cold.throughput
                }
                Err(error) => {
                    result.problem(format!("reference K-Iter failed: {error}"));
                    return None;
                }
            },
        };
        self.known.insert(key, reference);
        Some(reference)
    }
}

fn bounded(graph: &CsdfGraph, slack: u64) -> CsdfGraph {
    bound_all_buffers_tracked(graph, |_, buffer| uniform_slack_capacity(buffer, slack))
        .expect("uniform slack never undercuts a marking")
        .graph()
        .clone()
}

fn throughput_field(value: &Json, key: &str) -> Option<Throughput> {
    value
        .get(key)
        .and_then(Json::as_str)
        .and_then(|text| parse_throughput(text).ok())
}

/// Checks the first round's responses of the service stream.
pub fn service(
    mix: &ServiceMix,
    responses: &[Json],
    policy: Policy,
    mut perturb_first: bool,
    result: &mut RunResult,
) {
    let mut references = References {
        policy,
        known: HashMap::new(),
        exact: 0,
    };
    for (index, (request, response)) in mix.requests.iter().zip(responses).enumerate() {
        if response.get("status").and_then(Json::as_str) != Some("ok") {
            result.problem(format!("request {index}: {response}"));
            continue;
        }
        let name = format!("request {index}");
        match &request.expect {
            Expect::Evaluate { graph } => {
                let Some(mut answer) = throughput_field(response, "throughput") else {
                    result.problem(format!("{name}: no throughput in {response}"));
                    continue;
                };
                if perturb_first {
                    answer = perturb(answer);
                    perturb_first = false;
                }
                if let Some(reference) = references.get(&mix.graphs[*graph], result) {
                    if reference != answer {
                        result.problem(format!("{name}: answered {answer}, reference {reference}"));
                    }
                }
            }
            Expect::Lint { graph } => {
                let bounds = response.get("bounds");
                let lower = bounds.and_then(|b| throughput_field(b, "lower"));
                let upper = bounds.and_then(|b| throughput_field(b, "upper"));
                if let (Some(lower), Some(upper)) = (lower, upper) {
                    if let Some(reference) = references.get(&mix.graphs[*graph], result) {
                        if !(lower <= reference && reference <= upper) {
                            result.problem(format!(
                                "{name}: bounds [{lower}, {upper}] miss the reference {reference}"
                            ));
                        }
                    }
                }
            }
            Expect::Sweep { structure, slacks } => {
                let base = &mix.structures[*structure];
                let points = response
                    .get("points")
                    .and_then(Json::as_array)
                    .unwrap_or(&[]);
                if points.len() != slacks.len() {
                    result.problem(format!(
                        "{name}: {} points for {} slacks",
                        points.len(),
                        slacks.len()
                    ));
                    continue;
                }
                let unbounded = references.get(base, result);
                let mut previous = Throughput::Deadlocked;
                for (point, &slack) in points.iter().zip(slacks) {
                    let Some(answer) = throughput_field(point, "throughput") else {
                        result.problem(format!("{name}: point without throughput"));
                        continue;
                    };
                    if answer < previous {
                        result.problem(format!(
                            "{name}: throughput falls from {previous} to {answer} at slack {slack}"
                        ));
                    }
                    if unbounded.is_some_and(|unbounded| answer > unbounded) {
                        result.problem(format!("{name}: slack {slack} beats the unbounded graph"));
                    }
                    if policy.level == Level::Full {
                        if let Some(reference) = references.get(&bounded(base, slack), result) {
                            if reference != answer {
                                result.problem(format!("{name}: slack {slack} answered {answer}, reference {reference}"));
                            }
                        }
                    }
                    previous = answer;
                }
            }
            Expect::MinStorage {
                structure,
                target,
                max_slack,
            } => {
                let base = &mix.structures[*structure];
                let feasible = response.get("feasible").and_then(Json::as_bool) == Some(true);
                if !feasible {
                    let at_max = references.get(&bounded(base, *max_slack), result);
                    if at_max.is_some_and(|at_max| at_max >= *target) {
                        result.problem(format!(
                            "{name}: infeasible, but slack {max_slack} reaches {target}"
                        ));
                    }
                    continue;
                }
                let slack = response.get("slack").and_then(Json::as_u64).unwrap_or(0);
                let answer = throughput_field(response, "throughput");
                if answer.map_or(true, |answer| answer < *target) {
                    result.problem(format!("{name}: answer {answer:?} misses target {target}"));
                }
                let reference = references.get(&bounded(base, slack), result);
                if reference != answer {
                    result.problem(format!(
                        "{name}: slack {slack} answered {answer:?}, reference {reference:?}"
                    ));
                }
                if slack > 1 {
                    let below = references.get(&bounded(base, slack - 1), result);
                    if below.map_or(true, |below| below >= *target) {
                        result.problem(format!(
                            "{name}: slack {} already reaches {target}",
                            slack - 1
                        ));
                    }
                }
            }
            Expect::ScenarioSet {
                structure,
                scenarios,
            } => {
                let outcomes = response
                    .get("scenarios")
                    .and_then(Json::as_array)
                    .unwrap_or(&[]);
                if outcomes.len() != scenarios.len() {
                    result.problem(format!(
                        "{name}: {} outcomes for {} scenarios",
                        outcomes.len(),
                        scenarios.len()
                    ));
                    continue;
                }
                for (outcome, markings) in outcomes.iter().zip(scenarios) {
                    let mut graph = mix.structures[*structure].clone();
                    for &(buffer, tokens) in markings {
                        graph
                            .set_initial_tokens(buffer, tokens)
                            .expect("scenario buffers come from the graph");
                    }
                    let answer = throughput_field(outcome, "throughput");
                    let reference = references.get(&graph, result);
                    if answer != reference {
                        result.problem(format!(
                            "{name}: scenario answered {answer:?}, reference {reference:?}"
                        ));
                    }
                }
            }
        }
    }
    eprintln!(
        "check: {} requests, {} distinct graphs, {} with an exact baseline reference",
        responses.len(),
        references.known.len(),
        references.exact
    );
}
