//! `layerbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload swarm --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Three workloads (`swarm`, `contention`, `net`; see each module) run
//! for `--seconds` and check every output: pinned digests, causal
//! verdicts and replay diffs. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it times each call into the
//! workspace crates from outside and reports the per-layer metrics.
//! Human-readable lines come first; the last line of standard output
//! is one JSON object. A failed check marks its repetition's ops
//! failed, is reported, and makes the exit code 1.

#![deny(unsafe_code)]

mod contention;
mod net;
mod report;
mod swarm;

use report::{account, median, result_json, Metrics, Outcome, Traced};

/// One benchmark run's arguments.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A workload that does
/// not enter a layer reports its metrics as 0: that is its bypass.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("workloads.gen_ns_per_op", "ns"),
        ("workloads.busy_share", "fraction"),
        ("sim.inject_ns_per_op", "ns"),
        ("sim.run_ns_per_event", "ns"),
        ("sim.drain_ns_per_segment", "ns"),
        ("sim.events_per_op", "count"),
        ("sim.trace_events_per_op", "count"),
        ("sim.queued_frac", "fraction"),
        ("sim.peak_segments_resident", "count"),
        ("sim.vread_p50_us", "us"),
        ("sim.vread_p99_us", "us"),
        ("sim.vread_samples", "count"),
        ("sim.busy_share", "fraction"),
        ("protocols.begin_ns_per_tx", "ns"),
        ("protocols.run_open_us_per_tx", "us"),
        ("protocols.step_us_per_tx", "us"),
        ("protocols.finish_ns_per_tx", "ns"),
        ("protocols.msgs_per_op", "count"),
        ("protocols.busy_share", "fraction"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (_, p) in contention::PROTOCOLS {
        for (m, u) in [
            ("run_open_us_per_tx", "us"),
            ("step_us_per_tx", "us"),
            ("vread_p50_us", "us"),
            ("vread_p99_us", "us"),
        ] {
            v.push((format!("protocols.{p}.{m}"), u));
        }
    }
    v.extend(
        [
            ("model.ingest_us_per_tx", "us"),
            ("model.verdict_ms", "ms"),
            ("model.gc_ms_per_pass", "ms"),
            ("model.gc_retired_frac", "fraction"),
            ("model.resident_txs", "count"),
            ("model.busy_share", "fraction"),
            ("net.spawn_s", "s"),
            ("net.run_s", "s"),
            ("net.steps_per_tx", "count"),
            ("net.replay_us_per_step", "us"),
            ("net.live_txs_per_s", "1/s"),
            ("net.rot_p50_us", "us"),
            ("net.rot_p99_us", "us"),
            ("net.rot_samples", "count"),
            ("net.wtx_p50_us", "us"),
            ("net.wtx_p99_us", "us"),
            ("net.wtx_samples", "count"),
            ("net.busy_share", "fraction"),
            ("par.threads", "count"),
            ("par.busy_over_wall", "ratio"),
            ("other.busy_share", "fraction"),
            ("trace.ops_per_s", "1/s"),
            ("trace.overhead_frac", "fraction"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

/// Order `got` as `names`, filling what a workload did not measure
/// with 0. A measured name outside `names`, or in the wrong unit, is a
/// bug in the benchmark.
fn canonical(names: &[(String, &'static str)], got: &Metrics) -> Metrics {
    for (n, _, u) in &got.0 {
        let known = names.iter().find(|(k, _)| k == n);
        assert!(
            known.is_some_and(|(_, ku)| ku == u),
            "metric {n} ({u}) is not declared with that unit"
        );
    }
    let mut out = Metrics::default();
    for (n, u) in names {
        out.push(n, got.get(n).unwrap_or(0.0), u);
    }
    out
}

/// Close a traced run: layer accounting over `threads` threads, and
/// the traced throughput against the untraced one measured in the same
/// run.
pub fn finish_traced(
    out: &mut Outcome,
    threads: usize,
    traced: &[Traced],
    untraced: &[f64],
    traced_rates: &[f64],
) {
    if traced.is_empty() {
        return;
    }
    if let Err(e) = account(traced, threads, &mut out.per_layer) {
        out.failures.push(e);
    }
    let (u, t) = (median(untraced), median(traced_rates));
    out.per_layer.push("trace.ops_per_s", t, "1/s");
    out.per_layer
        .push("trace.overhead_frac", u / t - 1.0, "fraction");
    let m = &out.per_layer;
    let share = |l: &str| m.get(&format!("{l}.busy_share")).unwrap_or(0.0) * 100.0;
    let line = format!(
        "layers (share of traced wall × {threads} threads): workloads {:.1}%, sim {:.1}%, \
         protocols {:.1}%, model {:.1}%, net {:.1}%, other {:.1}%; traced {t:.0} ops/s vs \
         untraced {u:.0} ops/s over {} traced reps",
        share("workloads"),
        share("sim"),
        share("protocols"),
        share("model"),
        share("net"),
        share("other"),
        traced.len()
    );
    out.note(line);
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} is outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["swarm", "contention", "net"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}: swarm, contention or net"
        ));
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cbf_net::run_cluster` re-executes this binary as
    // `<exe> net-node …` once per server process.
    if args.first().map(String::as_str) == Some("net-node") {
        if let Err(e) = cbf_net::node_main(&args[1..]) {
            eprintln!("net-node: {e}");
            std::process::exit(1);
        }
        return;
    }
    let run = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("layerbench: {e}");
            eprintln!(
                "usage: layerbench --workload <swarm|contention|net> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cbf_par::thread_budget().min(nproc);
    // The fan-out reads its budget from the environment; cap it at the
    // machine so a larger request cannot oversubscribe the cores.
    std::env::set_var("SNOWBOUND_THREADS", threads.to_string());
    println!(
        "layerbench: workload={} seed={} trace={} seconds={} nproc={nproc} threads={threads} {}",
        run.workload,
        run.seed,
        u8::from(run.trace),
        run.seconds,
        env!("LAYERBENCH_RUSTC")
    );

    let mut out = Outcome::default();
    match run.workload.as_str() {
        "swarm" => swarm::run(&run, &mut out),
        "contention" => contention::run(&run, &mut out),
        _ => net::run(&run, &mut out),
    }
    out.sample_rss();
    let rss_mb = out.peak_rss_mb.expect("sampled");
    out.end_to_end.push("peak_rss_mb", rss_mb, "MB");

    for line in &out.notes {
        println!("{line}");
    }
    let metrics = if run.trace {
        canonical(&per_layer_names(), &out.per_layer)
    } else {
        let names: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        canonical(&names, &out.end_to_end)
    };
    for (n, v, u) in &metrics.0 {
        println!("  {n:<40} {v:>16.4} {u}");
    }
    let missing = !run.trace && out.end_to_end.get("ops_per_s").is_none();
    if missing {
        out.failures.push("no repetition completed".to_string());
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let correct = out.failures.is_empty() && out.failed == 0;
    if out.attempted > 0 {
        println!(
            "ops attempted {}, failed {} ({:.2}%)",
            out.attempted,
            out.failed,
            100.0 * out.failed as f64 / out.attempted as f64
        );
    }
    println!(
        "{}",
        result_json(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics the benchmark
    /// prints, in the same order and with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |name: &str| {
            let start = text.find(&format!("\"{name}\"")).expect("section");
            let len = text[start..].find(']').expect("section end");
            &text[start..start + len]
        };
        let declared = |name: &str| -> Vec<String> {
            section(name)
                .lines()
                .filter(|l| l.contains("\"unit\""))
                .map(|l| {
                    l.split(", \"better\"")
                        .next()
                        .expect("entry")
                        .trim()
                        .to_string()
                })
                .collect()
        };
        let entry = |(n, u): &(String, &str)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"");
        let e2e: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(
            declared("end_to_end"),
            e2e.iter().map(entry).collect::<Vec<_>>()
        );
        assert_eq!(
            declared("per_layer"),
            per_layer_names().iter().map(entry).collect::<Vec<_>>()
        );
    }
}
