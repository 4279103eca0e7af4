//! Process counters, order statistics and the in-memory span recorder.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// This process's CPU time (user plus system) and peak resident set size.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu: Duration,
    pub peak_rss_kib: u64,
}

pub fn usage() -> Usage {
    let mut raw = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a writable `struct rusage` with the C layout of
    // 64-bit Linux, and `RUSAGE_SELF` (0) only reads this process's counters
    // into it.
    let status = unsafe { getrusage(0, &mut raw) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let micros = |tv: [i64; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
    Usage {
        cpu: Duration::from_micros(micros(raw.utime) + micros(raw.stime)),
        peak_rss_kib: raw.maxrss as u64,
    }
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let m = (n + 1) as f64;
        let position = i as f64 * m / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let delta = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// `0` when the denominator is zero: a layer the workload never reached.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// One timed span: a layer call made by the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The op (graph analysed or request answered) the span belongs to.
    pub op: u32,
    pub name: &'static str,
    /// `None` for the op's root span; otherwise the root.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans and per-op counters held in memory for the whole run and written
/// out at its end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(op, counter, value)`: counts read at a layer boundary, such as the
    /// pipeline's build/patch/solve split of one K-Iter run.
    pub counters: Vec<(u32, &'static str, f64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn count(&mut self, op: u32, name: &'static str, value: f64) {
        self.counters.push((op, name, value));
    }

    /// Sum of the counter `name` over all ops.
    pub fn counter_sum(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(_, counter, _)| *counter == name)
            .map(|(_, _, value)| value)
            .sum()
    }

    /// Largest value of the counter `name` over all ops.
    pub fn counter_max(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(_, counter, _)| *counter == name)
            .map(|(_, _, value)| *value)
            .fold(0.0, f64::max)
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        op: u32,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            op,
            name,
            parent,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans.push(span);
    }

    /// Total duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        let nanos: u64 = self
            .spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.end_ns - span.start_ns)
            .sum();
        nanos as f64 / 1e6
    }

    /// Writes one JSON object per span, then one per counter.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(directory) = path.parent() {
            std::fs::create_dir_all(directory)?;
        }
        let mut out = String::with_capacity((self.spans.len() + self.counters.len()) * 96);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.name, parent, span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        for (op, name, value) in &self.counters {
            writeln!(
                out,
                "{{\"op\":{op},\"counter\":\"{name}\",\"value\":{value}}}"
            )
            .expect("writing to a String cannot fail");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}
