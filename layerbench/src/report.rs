//! What a run reports, and the small statistics it needs: medians,
//! exact percentiles with their sample counts, the span ledger the
//! traced run fills, and the one-line JSON result.

use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest samples a percentile may have beyond it before it is refused.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The layers a span can be charged to: the workspace crates the
/// benchmark calls into. Anything not covered by a span is `other`.
pub const LAYERS: [&str; 5] = ["workloads", "sim", "protocols", "model", "net"];

/// The benchmark's one wall clock. Every span and rate it reports is
/// read from here; nothing it reads feeds back into the program.
pub fn now() -> Instant {
    // snowlint: allow(wall-clock): the benchmark times the program from outside; the clock never reaches a seeded or virtual-time path
    Instant::now()
}

/// Whether a run measured from `t0` should start repetition `next`:
/// until `seconds` have passed, `min_reps` repetitions succeeded and the
/// last cycle through the inputs (see [`sub_seed`]) is complete, so each
/// input weighs the same in the median; but never past three times
/// `seconds`, so a workload that keeps failing still ends with a result.
pub fn more_reps(t0: Instant, seconds: f64, next: usize, reps: usize, min_reps: usize) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    let cycle_open = !(next as u64).is_multiple_of(SUB_SEEDS);
    (elapsed < seconds || reps < min_reps || cycle_open) && elapsed < 3.0 * seconds
}

/// Run `f` with a thread budget of 1, so every fan-out runs as its
/// serial loop: the memory high-water mark read after it then does not
/// depend on which jobs two threads happened to run side by side.
pub fn serially<T>(f: impl FnOnce() -> T) -> T {
    let budget = std::env::var("SNOWBOUND_THREADS").ok();
    std::env::set_var("SNOWBOUND_THREADS", "1");
    let r = f();
    match budget {
        Some(b) => std::env::set_var("SNOWBOUND_THREADS", b),
        None => std::env::remove_var("SNOWBOUND_THREADS"),
    }
    r
}

/// Distinct inputs a run cycles through.
const SUB_SEEDS: u64 = 4;

/// The input seed of repetition `rep` of a run seeded `seed`. A run
/// cycles through [`SUB_SEEDS`] inputs, so its median does not rest on
/// one input's luck, and each input recurs, so its outputs can be
/// checked for repeating exactly. A pure function of `seed`.
pub fn sub_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS)
        .wrapping_add(rep as u64 % SUB_SEEDS)
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index of the `p`-th percentile (nearest rank) among `n` sorted
/// samples, or `None` when fewer than [`MIN_TAIL_SAMPLES`] lie beyond it.
pub fn percentile_index(n: usize, p: f64) -> Option<usize> {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n.max(1)) - 1;
    (n > idx && n - 1 - idx >= MIN_TAIL_SAMPLES).then_some(idx)
}

/// The `p`-th percentile of `sorted`, refused (`None`) with a thin tail.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    percentile_index(sorted.len(), p).map(|i| sorted[i])
}

/// Busy time per span key (`<layer>.<call>`), summed over every call
/// the benchmark wrapped. Kept per thread and merged afterwards.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    ns: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Time `f`, charging it to `key`.
    pub fn time<R>(&mut self, key: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = now();
        let r = f();
        self.add(key, t0.elapsed().as_nanos() as u64);
        r
    }

    /// Charge `ns` nanoseconds to `key`.
    pub fn add(&mut self, key: &'static str, ns: u64) {
        *self.ns.entry(key).or_default() += ns;
    }

    /// Move `ns` nanoseconds from `from` to `to`: a span whose inner
    /// part was measured separately (handler time inside `run_open`).
    pub fn split(&mut self, from: &'static str, to: &'static str, ns: u64) {
        let f = self.ns.entry(from).or_default();
        assert!(
            *f >= ns,
            "{to} ({ns} ns) exceeds its enclosing {from} ({f} ns)"
        );
        *f -= ns;
        self.add(to, ns);
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &Spans) {
        for (k, v) in &other.ns {
            self.add(k, *v);
        }
    }

    /// Busy nanoseconds charged to `key`.
    pub fn ns(&self, key: &str) -> u64 {
        self.ns.get(key).copied().unwrap_or(0)
    }

    /// Busy nanoseconds of every span of `layer`.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.ns
            .iter()
            .filter(|(k, _)| k.split('.').next() == Some(layer))
            .map(|(_, v)| v)
            .sum()
    }
}

/// One traced repetition's ledger: its spans and its wall time.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Busy time per span, summed over every thread.
    pub spans: Spans,
    /// Wall time of the repetition.
    pub wall_ns: u64,
}

/// Per-layer accounting over a set of traced repetitions: each layer's
/// busy time, plus `other` (wall × threads minus every layer), adds up
/// to the traced wall time × threads. Fails if the layers claim more
/// time than there was, which would mean two spans overlap.
pub fn account(traced: &[Traced], threads: usize, metrics: &mut Metrics) -> Result<(), String> {
    let mut spans = Spans::default();
    let mut wall = 0u64;
    for t in traced {
        spans.merge(&t.spans);
        wall += t.wall_ns;
    }
    let capacity = wall as f64 * threads as f64;
    let mut busy = 0.0;
    for layer in LAYERS {
        let ns = spans.layer_ns(layer) as f64;
        busy += ns;
        metrics.push(&format!("{layer}.busy_share"), ns / capacity, "fraction");
    }
    let other = capacity - busy;
    // A span boundary costs two clock reads; allow a hair of slack
    // before calling the layers overlapping.
    if other < -0.001 * capacity {
        return Err(format!(
            "layers claim {busy:.0} ns of {capacity:.0} ns wall × threads: spans overlap"
        ));
    }
    metrics.push("other.busy_share", other.max(0.0) / capacity, "fraction");
    metrics.push("par.threads", threads as f64, "count");
    metrics.push("par.busy_over_wall", busy / wall as f64, "ratio");
    Ok(())
}

/// Named metrics in print order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append a metric. A name may be given once.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// Value of a metric already pushed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops issued, over every repetition (warm-up included).
    pub attempted: u64,
    /// Ops of repetitions that failed a check.
    pub failed: u64,
    /// Why each failed repetition failed.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run).
    pub per_layer: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Peak RSS (MB), read once, before the timed repetitions: later
    /// repetitions only add allocator slack, so the figure does not
    /// depend on how many of them fit in the run.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Count a repetition of `ops` ops; `Err` marks them failed.
    pub fn tally(&mut self, ops: u64, check: Result<(), String>) {
        self.attempted += ops;
        if let Err(e) = check {
            self.failed += ops;
            self.failures.push(e);
        }
    }

    /// Run one repetition of `ops` ops. A panic inside the program
    /// fails those ops, not the run: it is counted and reported.
    pub fn guard<T>(&mut self, ops: u64, f: impl FnOnce() -> T) -> Option<T> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                self.tally(ops, Err(format!("panicked: {msg}")));
                None
            }
        }
    }

    /// Sample the peak RSS, once.
    pub fn sample_rss(&mut self) {
        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = Some(cbf_bench::memstats::peak_rss_kb() as f64 / 1024.0);
        }
    }

    /// Note a line for the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Render a float so the JSON stays valid (no NaN or infinities).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v, 99.9), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
