//! The `net` workload: Eiger on a real loopback cluster. Two server
//! processes and six clients in the launcher run YCSB-A over 12 keys
//! (Zipf 0.99) through `cbf_net::run_cluster`; every cluster run is
//! then checked with `check_causal` and replayed bit-identically
//! through the simulator with `replay_and_diff`.
//!
//! Many short cluster runs, each verified on its own, give the latency
//! tails their samples: the checker's cost grows faster than linearly
//! in history length on this few-client history.

use crate::report::{
    median, more_reps, now, percentile, percentile_index, sub_seed, Outcome, Spans, Traced,
};
use crate::Run;
use cbf_model::check_causal;
use cbf_net::{replay_and_diff, run_cluster, NetConfig, NetRun};
use cbf_protocols::eiger::EigerNode;
use cbf_protocols::Topology;
use cbf_workloads::{Mix, WorkloadSpec};
use std::path::PathBuf;
use std::time::Duration;

/// Server processes: the paper's minimal two-server deployment.
const SERVERS: u32 = 2;
/// Transactions per cluster run.
const TXS: usize = 1_000;
/// Zero-transaction cluster runs timed per run for `setup_s`.
const SETUPS: usize = 15;
/// Fewest cluster runs per benchmark run.
const MIN_REPS: usize = 3;
/// Give up on the percentile sample floor after this long.
const SAMPLE_DEADLINE_S: f64 = 120.0;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 12,
        num_clients: 6,
        rot_size: 2,
        wtx_size: 2,
        theta: 0.99,
        mix: Mix::ycsb_a(),
    }
}

/// Where the servers write their recordings: inside the working
/// directory, under the build directory the benchmark already uses.
fn record_dir() -> PathBuf {
    PathBuf::from(".bench_build").join(format!("layerbench-net-{}", std::process::id()))
}

fn config(txs: usize, seed: u64) -> NetConfig {
    NetConfig {
        protocol: "eiger".to_string(),
        num_servers: SERVERS,
        spec: spec(),
        txs,
        seed,
        record_dir: record_dir(),
        stall_timeout: Duration::from_secs(20),
    }
}

/// One cluster run, verified: what it measured and spent.
struct Rep {
    run: NetRun,
    live_s: f64,
    check_s: f64,
    replay_s: f64,
}

/// Run, check and replay one cluster. Any failure fails the rep.
fn rep(seed: u64) -> Result<Rep, String> {
    let cfg = config(TXS, seed);
    let t0 = now();
    let run = run_cluster::<EigerNode>(&cfg).map_err(|e| format!("net run: {e}"))?;
    let live_s = t0.elapsed().as_secs_f64();
    let t1 = now();
    let verdict = check_causal(&run.history);
    let check_s = t1.elapsed().as_secs_f64();
    if !verdict.is_ok() {
        return Err(format!("net: causal verdict failed:\n{}", verdict.render()));
    }
    let topo = Topology::sharded(SERVERS, spec().num_clients, spec().num_keys);
    let t2 = now();
    let report = replay_and_diff::<EigerNode>(&topo, &run.recording, &run.history)
        .map_err(|e| format!("net replay: {e}"))?;
    let replay_s = t2.elapsed().as_secs_f64();
    if report.steps != run.recording.total_steps() {
        return Err(format!(
            "net replay: {} steps replayed of {} recorded",
            report.steps,
            run.recording.total_steps()
        ));
    }
    Ok(Rep {
        run,
        live_s,
        check_s,
        replay_s,
    })
}

/// Spawn, handshake, mesh and shut down a cluster that runs nothing.
fn setup_once(seed: u64) -> Result<f64, String> {
    let t0 = now();
    run_cluster::<EigerNode>(&config(0, seed)).map_err(|e| format!("net setup: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Latency samples of every successful rep, in µs.
#[derive(Default)]
struct Samples {
    rot_ns: Vec<u64>,
    wtx_ns: Vec<u64>,
}

impl Samples {
    fn add(&mut self, run: &NetRun) {
        self.rot_ns.extend(&run.rot_ns);
        self.wtx_ns.extend(&run.wtx_ns);
    }

    /// Enough samples that every reported percentile has ten beyond it.
    fn enough(&self) -> bool {
        percentile_index(self.rot_ns.len(), 99.0).is_some()
            && percentile_index(self.wtx_ns.len(), 99.0).is_some()
    }
}

/// Run the workload.
pub fn run(r: &Run, out: &mut Outcome) {
    let result = if r.trace {
        run_traced(r, out)
    } else {
        run_plain(r, out)
    };
    let _ = std::fs::remove_dir_all(record_dir());
    if let Err(e) = result {
        out.failures.push(e);
    }
}

fn run_plain(r: &Run, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        setups.push(setup_once(r.seed)?);
    }
    let t0 = now();
    let (mut rates, mut live) = (Vec::new(), Vec::new());
    let mut samples = Samples::default();
    for i in 0.. {
        let sampling = !samples.enough() && t0.elapsed().as_secs_f64() < SAMPLE_DEADLINE_S;
        if !sampling && !more_reps(t0, r.seconds, i, rates.len(), MIN_REPS) {
            break;
        }
        match rep(sub_seed(r.seed, i)) {
            Ok(rep) => {
                out.tally(TXS as u64, Ok(()));
                let total = rep.live_s + rep.check_s + rep.replay_s;
                rates.push(TXS as f64 / total);
                live.push(TXS as f64 / rep.live_s);
                samples.add(&rep.run);
                out.sample_rss();
            }
            Err(e) => out.tally(TXS as u64, Err(e)),
        }
    }
    if rates.is_empty() {
        return Ok(());
    }
    out.note(format!(
        "net: {} verified cluster runs of {TXS} txs on {SERVERS} server processes; \
         setup median of {SETUPS}; peak RSS is the launcher's only",
        rates.len()
    ));
    let m = &mut out.end_to_end;
    m.push("setup_s", median(&setups), "s");
    m.push("ops_per_s", median(&rates), "1/s");
    push_latency(out, &samples, &live);
    Ok(())
}

/// The net layer's user-facing figures: live throughput and the wall
/// latency percentiles, each with its sample count.
fn push_latency(out: &mut Outcome, samples: &Samples, live: &[f64]) {
    let mut rot = samples.rot_ns.clone();
    let mut wtx = samples.wtx_ns.clone();
    rot.sort_unstable();
    wtx.sort_unstable();
    let us = |v: &[u64], p: f64| percentile(v, p).map_or(0.0, |ns| ns as f64 / 1e3);
    let lines = [("rot", &rot), ("wtx", &wtx)];
    for (what, v) in lines {
        out.notes.push(format!(
            "net {what}: p50 {:.1} us, p99 {:.1} us over {} samples",
            us(v, 50.0),
            us(v, 99.0),
            v.len()
        ));
        if percentile(v, 99.0).is_none() {
            out.failures.push(format!(
                "net {what}: {} samples leave fewer than 10 beyond p99",
                v.len()
            ));
        }
    }
    let m = &mut out.per_layer;
    m.push("net.live_txs_per_s", median(live), "1/s");
    m.push("net.rot_p50_us", us(&rot, 50.0), "us");
    m.push("net.rot_p99_us", us(&rot, 99.0), "us");
    m.push("net.rot_samples", rot.len() as f64, "count");
    m.push("net.wtx_p50_us", us(&wtx, 50.0), "us");
    m.push("net.wtx_p99_us", us(&wtx, 99.0), "us");
    m.push("net.wtx_samples", wtx.len() as f64, "count");
}

fn run_traced(r: &Run, out: &mut Outcome) -> Result<(), String> {
    let t_all = now();
    let mut spawn = Spans::default();
    let setup = spawn.time("net.spawn", || setup_once(r.seed))?;
    let mut traced = vec![Traced {
        spans: spawn,
        wall_ns: t_all.elapsed().as_nanos() as u64,
    }];
    let (mut live, mut steps) = (Vec::new(), 0usize);
    let mut samples = Samples::default();
    let mut rates = Vec::new();
    for i in 0.. {
        let sampling = !samples.enough() && t_all.elapsed().as_secs_f64() < SAMPLE_DEADLINE_S;
        if !sampling && !more_reps(t_all, r.seconds, i, rates.len(), MIN_REPS) {
            break;
        }
        let t0 = now();
        match rep(sub_seed(r.seed, i)) {
            Ok(rep) => {
                out.tally(TXS as u64, Ok(()));
                let mut spans = Spans::default();
                spans.add("net.run", (rep.live_s * 1e9) as u64);
                spans.add("model.check_causal", (rep.check_s * 1e9) as u64);
                spans.add("net.replay", (rep.replay_s * 1e9) as u64);
                traced.push(Traced {
                    spans,
                    wall_ns: t0.elapsed().as_nanos() as u64,
                });
                rates.push(TXS as f64 / (rep.live_s + rep.check_s + rep.replay_s));
                live.push(TXS as f64 / rep.live_s);
                steps += rep.run.recording.total_steps();
                samples.add(&rep.run);
            }
            Err(e) => out.tally(TXS as u64, Err(e)),
        }
    }
    if rates.is_empty() {
        return Ok(());
    }
    let mut spans = Spans::default();
    for t in &traced {
        spans.merge(&t.spans);
    }
    let reps = rates.len() as f64;
    let txs = reps * TXS as f64;
    let m = &mut out.per_layer;
    m.push(
        "model.ingest_us_per_tx",
        spans.ns("model.check_causal") as f64 / 1e3 / txs,
        "us",
    );
    m.push("net.spawn_s", setup, "s");
    m.push("net.run_s", spans.ns("net.run") as f64 / 1e9 / reps, "s");
    m.push("net.steps_per_tx", steps as f64 / txs, "count");
    m.push(
        "net.replay_us_per_step",
        spans.ns("net.replay") as f64 / 1e3 / steps as f64,
        "us",
    );
    push_latency(out, &samples, &live);
    // The spans are the untraced calls themselves, timed from outside,
    // so traced and untraced throughput are one measurement; the
    // launcher calls them one at a time, on one thread.
    crate::finish_traced(out, 1, &traced, &rates, &rates);
    Ok(())
}
