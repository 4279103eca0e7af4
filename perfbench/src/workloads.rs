//! Seeded inputs of the four workloads.
//!
//! Every input is generated here from the run's `--seed` and handed to the
//! program as text (the workspace line format or SDF3 XML) or as a request
//! line; the program never sees the seed. The same seed always yields the
//! same inputs.

use csdf::text::{parse, parse_sdf3_xml, to_text, write_sdf3_xml};
use csdf::{BufferId, CsdfError, CsdfGraph, Rational, Throughput};
use csdf_generators::apps::{
    black_scholes, echo, industrial_app, industrial_specs, jpeg2000, pdetect, synthetic_specs,
};
use csdf_generators::sdf3::{generate_category, generate_category_sized, Sdf3Category};
use csdf_generators::{buffer_sized, random_graph, RandomGraphConfig};
use csdf_service::Json;

/// The workload names, in the order the steadiness mode runs them.
pub const WORKLOADS: [&str; 4] = ["paper_apps", "large_scc", "sized_deadlock", "service_mix"];

/// Graphs per generated Table 1 category (plain and sized alike).
const TABLE1_PER_CATEGORY: usize = 10;
/// Distinct 10k-task graphs in one `large_scc` round.
pub const LARGE_SCC_GRAPHS: usize = 24;
/// Task count of the `large_scc` graphs.
const LARGE_SCC_TASKS: usize = 10_000;
/// Requests in one `service_mix` round (one daemon lifetime).
pub const SERVICE_REQUESTS: usize = 4800;

/// A small deterministic generator (`SplitMix64`): the benchmark's own
/// randomness, so inputs depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for index in (1..items.len()).rev() {
            let other = self.below(index as u64 + 1) as usize;
            items.swap(index, other);
        }
    }
}

/// How an input graph is serialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The workspace line format ([`csdf::text::parse`]).
    Text,
    /// SDF3 XML ([`csdf::text::parse_sdf3_xml`]).
    Sdf3,
}

/// One graph of a library workload, as the text the program parses.
#[derive(Debug, Clone)]
pub struct GraphInput {
    pub name: String,
    pub format: Format,
    pub source: String,
    /// The error kind this op fails with on every run, for the one known
    /// fault the benchmark keeps (sized Echo).
    pub expected_failure: Option<&'static str>,
}

impl GraphInput {
    fn new(name: String, graph: &CsdfGraph, format: Format) -> GraphInput {
        let source = match format {
            Format::Text => to_text(graph),
            Format::Sdf3 => write_sdf3_xml(graph),
        };
        GraphInput {
            name,
            format,
            source,
            expected_failure: None,
        }
    }

    /// The program's parse layer for this input's format.
    pub fn parse(&self) -> Result<CsdfGraph, CsdfError> {
        match self.format {
            Format::Text => parse(&self.source),
            Format::Sdf3 => parse_sdf3_xml(&self.source),
        }
    }
}

/// `paper_apps`: the Table 1 categories (plain and sized, SDF3 XML) plus the
/// live Table 2 applications and the five synthetic Table 2 graphs (text),
/// in a seeded order.
pub fn paper_apps(seed: u64) -> Result<Vec<GraphInput>, CsdfError> {
    let mut rng = Rng::new(seed, 1);
    let mut inputs = Vec::new();
    for category in Sdf3Category::all() {
        let category_seed = rng.next_u64();
        let plain = generate_category(category, TABLE1_PER_CATEGORY, category_seed)?;
        let sized = generate_category_sized(category, TABLE1_PER_CATEGORY, category_seed)?;
        for (index, graph) in plain.iter().enumerate() {
            let name = format!("{}#{index}", category.name());
            inputs.push(GraphInput::new(name, graph, Format::Sdf3));
        }
        for (index, graph) in sized.iter().enumerate() {
            let name = format!("{}+sized#{index}", category.name());
            inputs.push(GraphInput::new(name, graph, Format::Sdf3));
        }
    }
    for spec in industrial_specs().into_iter().chain(synthetic_specs()) {
        let graph = industrial_app(&spec)?;
        inputs.push(GraphInput::new(spec.name.to_string(), &graph, Format::Text));
    }
    rng.shuffle(&mut inputs);
    Ok(inputs)
}

/// `large_scc`: [`LARGE_SCC_GRAPHS`] seeded 10k-task graphs, each one giant
/// strongly connected component.
pub fn large_scc(seed: u64) -> Result<Vec<GraphInput>, CsdfError> {
    let mut rng = Rng::new(seed, 2);
    let config = RandomGraphConfig::large(LARGE_SCC_TASKS);
    (0..LARGE_SCC_GRAPHS)
        .map(|index| {
            let graph = random_graph(&config, rng.next_u64())?;
            Ok(GraphInput::new(
                format!("large#{index}"),
                &graph,
                Format::Text,
            ))
        })
        .collect()
}

/// `sized_deadlock`: the buffer-sized Table 2 apps `BlackScholes`, Echo,
/// JPEG2000 and Pdetect (fixed graphs; the seed only orders them).
pub fn sized_deadlock(seed: u64) -> Result<Vec<GraphInput>, CsdfError> {
    let mut rng = Rng::new(seed, 3);
    let mut inputs = Vec::new();
    for spec in [black_scholes(), echo(), jpeg2000(), pdetect()] {
        let graph = buffer_sized(&industrial_app(&spec)?, 2)?;
        let mut input = GraphInput::new(format!("{}+sized", spec.name), &graph, Format::Text);
        if spec.name == "Echo" {
            input.expected_failure = Some("event_graph_too_large");
        }
        inputs.push(input);
    }
    rng.shuffle(&mut inputs);
    Ok(inputs)
}

/// The request types of the service stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Repeat of an earlier evaluate (expected cache hit).
    EvaluateHit,
    /// New marking of a known structure (expected warm pool session).
    EvaluateWarm,
    /// New structure (expected cold session).
    EvaluateCold,
    Sweep,
    MinStorage,
    ScenarioSet,
    Lint,
}

/// What the check needs to know about one request.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `graph` indexes [`ServiceMix::graphs`].
    Evaluate {
        graph: usize,
    },
    Sweep {
        structure: usize,
        slacks: Vec<u64>,
    },
    MinStorage {
        structure: usize,
        target: Throughput,
        max_slack: u64,
    },
    ScenarioSet {
        structure: usize,
        scenarios: Vec<Vec<(BufferId, u64)>>,
    },
    Lint {
        graph: usize,
    },
}

#[derive(Debug, Clone)]
pub struct ServiceRequest {
    pub kind: RequestKind,
    pub line: String,
    pub expect: Expect,
}

/// `service_mix`: one round of request lines plus the graphs behind them.
#[derive(Debug, Clone)]
pub struct ServiceMix {
    pub requests: Vec<ServiceRequest>,
    /// Base structures (marking variant 0).
    pub structures: Vec<CsdfGraph>,
    /// Every distinct graph an evaluate or lint request carries.
    pub graphs: Vec<CsdfGraph>,
}

/// Earlier evaluated graphs a repeat may pick from.
const HIT_WINDOW: usize = 160;
/// Recently used structures a warm evaluate or a composite request may pick
/// from.
const STRUCTURE_WINDOW: usize = 8;

/// Cumulative shares of the request types (out of 1000).
const SERVICE_SHARES: [(RequestKind, u64); 7] = [
    (RequestKind::EvaluateHit, 620),
    (RequestKind::EvaluateWarm, 740),
    (RequestKind::EvaluateCold, 810),
    (RequestKind::Sweep, 860),
    (RequestKind::MinStorage, 905),
    (RequestKind::ScenarioSet, 950),
    (RequestKind::Lint, 1000),
];

/// A random serialised CSDF structure whose task count is log-uniform in
/// 3..=96, so request costs spread over a wide continuous range.
fn service_structure(rng: &mut Rng) -> Result<CsdfGraph, CsdfError> {
    let tasks = (3.0 * 32f64.powf(rng.unit())).round() as usize;
    let config = RandomGraphConfig {
        tasks,
        extra_edges: tasks / 3,
        feedback_edges: 1 + tasks / 24,
        repetition_choices: vec![1, 1, 2, 3, 4],
        max_phases: 3,
        duration_range: (1, 12),
        marking_factor: 2,
        serialize: true,
        locality: Some(8),
    };
    random_graph(&config, rng.next_u64())
}

/// The buffers whose markings the stream varies: every buffer but the
/// serializing self-loops. (A self-loop with two or more tokens makes its
/// task auto-concurrent, where K-Iter and symbolic execution disagree on
/// some graphs; see `CHANGES.md`.)
fn channels(graph: &CsdfGraph) -> Vec<BufferId> {
    graph
        .buffers()
        .filter(|(_, buffer)| !buffer.is_self_loop())
        .map(|(id, _)| id)
        .collect()
}

/// Marking variant `variant` of `base`: the first channel that carries
/// tokens (else the first channel) gets `variant` extra tokens. Adding
/// tokens never deadlocks a live graph.
fn marking_variant(base: &CsdfGraph, variant: u64) -> CsdfGraph {
    let mut graph = base.clone();
    let channels = channels(base);
    let target = channels
        .iter()
        .find(|&&id| base.buffer(id).initial_tokens() > 0)
        .or(channels.first());
    if let (Some(&id), true) = (target, variant > 0) {
        let tokens = base.buffer(id).initial_tokens();
        graph
            .set_initial_tokens(id, tokens + variant)
            .expect("buffer id comes from the graph");
    }
    graph
}

/// A throughput target below the per-task workload bound
/// `1 / max_t(q_t · Σ_p d_t,p)`, scaled down by `divisor`.
fn storage_target(graph: &CsdfGraph, divisor: u64) -> Result<Throughput, CsdfError> {
    let repetition = graph.repetition_vector()?;
    let period = graph
        .tasks()
        .map(|(id, task)| {
            let work: u64 = (0..task.phase_count()).map(|p| task.duration(p)).sum();
            repetition.get(id) * work
        })
        .max()
        .unwrap_or(1)
        .max(1);
    let value = Rational::new(1, i128::from(period) * i128::from(divisor))
        .map_err(|_| CsdfError::Overflow)?;
    Ok(Throughput::Finite(value))
}

fn graph_json(graph: &CsdfGraph, format: Format) -> Json {
    let (format, source) = match format {
        Format::Text => ("text", to_text(graph)),
        Format::Sdf3 => ("sdf3", write_sdf3_xml(graph)),
    };
    Json::Object(vec![
        ("format".to_string(), Json::Str(format.to_string())),
        ("source".to_string(), Json::Str(source)),
    ])
}

fn request_line(id: usize, kind: &str, graph: Json, extra: Vec<(String, Json)>) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::Int(id as i128)),
        ("type".to_string(), Json::Str(kind.to_string())),
        ("graph".to_string(), graph),
    ];
    fields.extend(extra);
    Json::Object(fields).to_string()
}

/// `service_mix`: [`SERVICE_REQUESTS`] request lines for one closed-loop
/// client of one fresh daemon.
pub fn service_mix(seed: u64) -> Result<ServiceMix, CsdfError> {
    let mut rng = Rng::new(seed, 4);
    let mut mix = ServiceMix {
        requests: Vec::with_capacity(SERVICE_REQUESTS),
        structures: Vec::new(),
        graphs: Vec::new(),
    };
    // Graph index of every graph an evaluate request already carried.
    let mut evaluated: Vec<usize> = Vec::new();
    let mut next_variant: Vec<u64> = Vec::new();
    // Structures in order of last use by an evaluate or lint request.
    let mut used: Vec<usize> = Vec::new();
    for id in 0..SERVICE_REQUESTS {
        let draw = rng.below(1000);
        let mut kind = SERVICE_SHARES
            .iter()
            .find(|(_, cumulative)| draw < *cumulative)
            .map_or(RequestKind::Lint, |(kind, _)| *kind);
        if mix.structures.is_empty() || (kind == RequestKind::EvaluateHit && evaluated.is_empty()) {
            kind = RequestKind::EvaluateCold;
        }
        let format = if rng.below(2) == 0 {
            Format::Text
        } else {
            Format::Sdf3
        };
        // Clients repeat recent work: repeats come from the last
        // `HIT_WINDOW` evaluated graphs and re-marked structures from the
        // last `STRUCTURE_WINDOW` structures, so the stream's working set
        // fits the daemon's default cache (256) and pool (16).
        let recent = |rng: &mut Rng, items: &[usize], window: usize| {
            let tail = &items[items.len().saturating_sub(window)..];
            tail[rng.below(tail.len() as u64) as usize]
        };
        let request = match kind {
            RequestKind::EvaluateHit => {
                let graph = recent(&mut rng, &evaluated, HIT_WINDOW);
                let line = request_line(
                    id,
                    "evaluate",
                    graph_json(&mix.graphs[graph], format),
                    vec![],
                );
                ServiceRequest {
                    kind,
                    line,
                    expect: Expect::Evaluate { graph },
                }
            }
            RequestKind::EvaluateWarm | RequestKind::EvaluateCold | RequestKind::Lint => {
                let structure = if kind == RequestKind::EvaluateWarm {
                    recent(&mut rng, &used, STRUCTURE_WINDOW)
                } else {
                    mix.structures.push(service_structure(&mut rng)?);
                    next_variant.push(0);
                    mix.structures.len() - 1
                };
                used.retain(|&other| other != structure);
                used.push(structure);
                let variant = next_variant[structure];
                next_variant[structure] += 1;
                let graph = marking_variant(&mix.structures[structure], variant);
                let json = graph_json(&graph, format);
                mix.graphs.push(graph);
                let index = mix.graphs.len() - 1;
                if kind == RequestKind::Lint {
                    let line = request_line(id, "lint", json, vec![]);
                    ServiceRequest {
                        kind,
                        line,
                        expect: Expect::Lint { graph: index },
                    }
                } else {
                    evaluated.push(index);
                    let line = request_line(id, "evaluate", json, vec![]);
                    ServiceRequest {
                        kind,
                        line,
                        expect: Expect::Evaluate { graph: index },
                    }
                }
            }
            RequestKind::Sweep => {
                let structure = recent(&mut rng, &used, STRUCTURE_WINDOW);
                let mut slacks: Vec<u64> = [1u64, 2, 3, 4, 6, 8]
                    .into_iter()
                    .filter(|_| rng.below(3) != 0)
                    .collect();
                if slacks.is_empty() {
                    slacks.push(2);
                }
                let extra = vec![(
                    "slacks".to_string(),
                    Json::Array(slacks.iter().map(|&s| Json::Int(s.into())).collect()),
                )];
                let graph = graph_json(&mix.structures[structure], format);
                let line = request_line(id, "sweep", graph, extra);
                ServiceRequest {
                    kind,
                    line,
                    expect: Expect::Sweep { structure, slacks },
                }
            }
            RequestKind::MinStorage => {
                let structure = recent(&mut rng, &used, STRUCTURE_WINDOW);
                let target = storage_target(&mix.structures[structure], 2 + rng.below(3))?;
                let max_slack = 16;
                let extra = vec![
                    (
                        "target".to_string(),
                        Json::Str(csdf_service::throughput_to_string(target)),
                    ),
                    ("max_slack".to_string(), Json::Int(max_slack.into())),
                ];
                let graph = graph_json(&mix.structures[structure], format);
                let line = request_line(id, "min_storage", graph, extra);
                ServiceRequest {
                    kind,
                    line,
                    expect: Expect::MinStorage {
                        structure,
                        target,
                        max_slack,
                    },
                }
            }
            RequestKind::ScenarioSet => {
                let structure = recent(&mut rng, &used, STRUCTURE_WINDOW);
                let base = &mix.structures[structure];
                let channels = channels(base);
                let scenarios: Vec<Vec<(BufferId, u64)>> = (0..2 + rng.below(2))
                    .map(|_| {
                        (0..1 + rng.below(2))
                            .map(|_| {
                                let id = channels[rng.below(channels.len() as u64) as usize];
                                (id, base.buffer(id).initial_tokens() + rng.below(4))
                            })
                            .collect()
                    })
                    .collect();
                let json_scenarios = scenarios
                    .iter()
                    .enumerate()
                    .map(|(index, markings)| {
                        let pairs = markings
                            .iter()
                            .map(|&(id, tokens)| {
                                Json::Array(vec![
                                    Json::Int(id.index() as i128),
                                    Json::Int(tokens.into()),
                                ])
                            })
                            .collect();
                        Json::Object(vec![
                            ("name".to_string(), Json::Str(format!("s{index}"))),
                            ("markings".to_string(), Json::Array(pairs)),
                        ])
                    })
                    .collect();
                let extra = vec![("scenarios".to_string(), Json::Array(json_scenarios))];
                let line = request_line(id, "scenario_set", graph_json(base, format), extra);
                ServiceRequest {
                    kind,
                    line,
                    expect: Expect::ScenarioSet {
                        structure,
                        scenarios,
                    },
                }
            }
        };
        mix.requests.push(request);
    }
    Ok(mix)
}
