//! The `swarm` workload: the pinned million-client tier of the load
//! engine. 1,000,000 closed-loop clients issue 2,000,000 single-key
//! YCSB-A ops against 8 key-sharded 3-actor worlds, each streamed
//! through its own causal checker with frontier GC.
//!
//! The untraced run calls [`cbf_bench::load::run_swarm_tier`] as it
//! is. The traced run is a mirror of that function's per-shard loop,
//! written here against the same public calls, with a span around each
//! call into `cbf-workloads`, `cbf-sim` and `cbf-model`; it must fold
//! to the same tier digest, which proves it drives the same work.

use crate::report::{median, more_reps, now, serially, sub_seed, Outcome, Spans, Traced};
use crate::Run;
use cbf_bench::hist::LogHist;
use cbf_bench::load::{expected_load_digest, run_swarm_tier, LoadMsg, LoadNode, SWARM_SERVERS};
use cbf_model::ShardedChecker;
use cbf_sim::{CountingSink, LatencyModel, ProcessId, ServiceModel, SimConfig, World, MICROS};
use cbf_workloads::{ClientSwarm, Mix, SwarmOp, SwarmSpec};
use std::collections::BTreeMap;

/// Clients in the pinned tier.
const CLIENTS: u64 = 1_000_000;
/// Client ops in the pinned tier (after the init prefix).
const OPS: u64 = 2_000_000;
/// Keys per shard.
const KEYS_PER_SHARD: u32 = 256;
/// Seed whose tier digest is pinned as `swarm:1000000`.
pub const PINNED_SEED: u64 = 2026;

// The load engine's private constants, mirrored. The pinned digest is
// what proves they still match.
const SERVICE_US: u64 = 2;
const GC_EVERY_BATCHES: u64 = 16;
const LANES_PER_SHARD: u32 = 32;
const SLOTS: u32 = 16;
const SHARD_SERVER: u32 = 0;
const SHARD_PORT: u32 = 1;

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 15;
/// Fewest timed repetitions per run.
const MIN_REPS: usize = 3;

/// Everything a tier run produced that must repeat exactly for a seed.
#[derive(Clone, Debug, PartialEq)]
struct Exact {
    digest: u64,
    events: u64,
    trace_events: u64,
    queued_frac: f64,
    peak_segments: u64,
    vread_p50_us: u64,
    vread_p99_us: u64,
    vread_samples: u64,
    resident_txs: u64,
}

/// One shard's state between set-up and the client stream.
struct Shard {
    shard: u32,
    ops: u64,
    batch_ops: usize,
    w: World<LoadNode>,
    swarm: ClientSwarm,
    checker: ShardedChecker,
    sink: CountingSink,
    next_id: u64,
    next_val: u64,
    read_hist: LogHist,
    peak_segments: usize,
    spans: Spans,
}

/// What one shard proved and spent.
struct ShardDone {
    digest: u64,
    events: u64,
    trace_events: u64,
    served: u64,
    delayed: u64,
    peak_segments: u64,
    drained_segments: u64,
    read_hist: LogHist,
    resident_txs: u64,
    gc_passes: u64,
    gc_retired: u64,
    gc_before: u64,
    verdict_ok: bool,
    spans: Spans,
}

impl Shard {
    /// Build the shard's world and swarm and run the init prefix: the
    /// work done before the first client op is issued.
    fn setup(shard: u32, clients: u32, ops: u64, seed: u64) -> Shard {
        let batch_ops = cbf_bench::load::swarm_batch_ops(clients as u64);
        let mut spans = Spans::default();
        let w = spans.time("sim.new", || {
            World::new(
                vec![
                    LoadNode::server(shard, KEYS_PER_SHARD),
                    LoadNode::Port,
                    LoadNode::server(shard, KEYS_PER_SHARD),
                ],
                LatencyModel::constant_default(),
                SimConfig {
                    record_trace: true,
                    trace_injects: false,
                    service: Some(ServiceModel {
                        servers: 1,
                        service_time: SERVICE_US * MICROS,
                    }),
                    max_events: u64::MAX,
                    trace_capacity_hint: 6 * batch_ops,
                    ..SimConfig::default()
                },
            )
        });
        let swarm = spans.time("workloads.new", || {
            ClientSwarm::new(
                SwarmSpec {
                    num_clients: clients,
                    num_keys: KEYS_PER_SHARD,
                    theta: 0.99,
                    mix: Mix::ycsb_a(),
                    read_keys: 1,
                    write_keys: 1,
                    wheel_slots: SLOTS,
                },
                seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(shard as u64 + 1)),
            )
        });
        let mut s = Shard {
            shard,
            ops,
            batch_ops,
            w,
            swarm,
            checker: ShardedChecker::new(1),
            sink: CountingSink::default(),
            next_id: shard as u64,
            next_val: 1 + shard as u64,
            read_hist: LogHist::new(),
            peak_segments: 0,
            spans,
        };
        // Init prefix: every key written once by the shard's writer
        // session, in one quiesced wave.
        let t0 = now();
        for rank in 0..KEYS_PER_SHARD {
            let msg = LoadMsg::Op {
                id: s.next_id,
                client: shard,
                key: rank * SWARM_SERVERS + shard,
                val: s.next_val,
                write: true,
                at: s.w.now(),
            };
            s.w.inject_no_step(ProcessId(SHARD_PORT), msg);
            s.next_id += SWARM_SERVERS as u64;
            s.next_val += SWARM_SERVERS as u64;
        }
        s.spans.add("sim.inject", t0.elapsed().as_nanos() as u64);
        s.drive();
        s.drain();
        s
    }

    /// Run the shard world to quiescence and check what it committed.
    fn drive(&mut self) {
        let w = &mut self.w;
        self.spans.time("sim.run", || {
            w.kick(ProcessId(SHARD_PORT));
            w.run_until_quiescent();
        });
        let log = self.w.actor_mut(ProcessId(SHARD_SERVER)).take_log();
        for t in log.iter().filter(|t| t.writes.is_empty()) {
            let lat = t.completed_at.saturating_sub(t.invoked_at) / 1_000;
            self.read_hist.record(lat);
        }
        let checker = &mut self.checker;
        self.spans.time("model.ingest", || {
            for t in log {
                checker.ingest(t);
            }
        });
    }

    /// Hand the sealed trace segments to the sink (recycling them).
    fn drain(&mut self) {
        self.peak_segments = self.peak_segments.max(self.w.trace.resident_segments());
        let (trace, sink) = (&mut self.w.trace, &mut self.sink);
        self.spans.time("sim.drain", || trace.drain_sealed(sink));
    }

    /// The client stream: generate, inject, simulate, check, recycle.
    fn run(mut self) -> ShardDone {
        let shard = self.shard;
        let mut batch: Vec<SwarmOp> = Vec::with_capacity(self.batch_ops);
        let (mut driven, mut batches) = (0u64, 0u64);
        let (mut gc_passes, mut gc_retired, mut gc_before) = (0u64, 0u64, 0u64);
        while driven < self.ops {
            let want = self.batch_ops.min((self.ops - driven) as usize);
            let swarm = &mut self.swarm;
            self.spans
                .time("workloads.gen", || swarm.fill_batch(want, &mut batch));
            let t0 = now();
            let at = self.w.now();
            for op in &batch {
                let lane = if op.write {
                    shard
                } else {
                    SWARM_SERVERS * (1 + op.client % LANES_PER_SHARD) + shard
                };
                let val = if op.write {
                    let v = self.next_val;
                    self.next_val += SWARM_SERVERS as u64;
                    v
                } else {
                    0
                };
                let msg = LoadMsg::Op {
                    id: self.next_id,
                    client: lane,
                    key: op.keys[0] * SWARM_SERVERS + shard,
                    val,
                    write: op.write,
                    at,
                };
                self.w.inject_no_step(ProcessId(SHARD_PORT), msg);
                self.next_id += SWARM_SERVERS as u64;
            }
            self.spans.add("sim.inject", t0.elapsed().as_nanos() as u64);
            driven += batch.len() as u64;
            self.drive();
            self.drain();
            batches += 1;
            if batches.is_multiple_of(GC_EVERY_BATCHES) {
                let checker = &mut self.checker;
                let g = self.spans.time("model.gc", || checker.gc());
                gc_passes += 1;
                gc_retired += g.retired as u64;
                gc_before += (g.retired + g.resident) as u64;
            }
        }
        self.peak_segments = self.peak_segments.max(self.w.trace.resident_segments());
        let (trace, sink) = (&mut self.w.trace, &mut self.sink);
        self.spans.time("sim.drain", || trace.drain_rest(sink));
        let checker = &self.checker;
        let verdict = self.spans.time("model.verdict", || checker.verdict());
        let stats = self.w.stats_snapshot();
        let ss = self.w.service_stats();
        ShardDone {
            digest: self.w.trace.digest(),
            events: stats.events,
            trace_events: stats.trace_events,
            served: ss.served,
            delayed: ss.delayed,
            peak_segments: self.peak_segments as u64,
            drained_segments: self.sink.segments as u64,
            read_hist: self.read_hist,
            resident_txs: self.checker.resident_stats().txs as u64,
            gc_passes,
            gc_retired,
            gc_before,
            verdict_ok: verdict.is_ok(),
            spans: self.spans,
        }
    }
}

/// The shard split of the tier, as `run_swarm_tier` makes it.
fn shard_jobs() -> Vec<(u32, u32, u64)> {
    let n = SWARM_SERVERS as u64;
    (0..SWARM_SERVERS)
        .map(|s| {
            let c = CLIENTS / n + u64::from((s as u64) < CLIENTS % n);
            let o = OPS / n + u64::from((s as u64) < OPS % n);
            (s, c as u32, o)
        })
        .collect()
}

/// Time to set the tier up: every shard's world, swarm and init
/// prefix, one after another, so the figure is the set-up work itself
/// and not how the fan-out happened to overlap it.
fn setup_tier(seed: u64) -> f64 {
    let t0 = now();
    let shards: Vec<Shard> = shard_jobs()
        .into_iter()
        .map(|(s, c, o)| Shard::setup(s, c, o, seed))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(shards));
    secs
}

/// One traced tier: the mirror, fanned out, folded in shard order.
fn traced_tier(seed: u64) -> (Exact, bool, Traced, ShardTotals) {
    let t0 = now();
    let done = cbf_par::parallel_map(shard_jobs(), |(s, c, o)| Shard::setup(s, c, o, seed).run());
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut read_hist = LogHist::new();
    let mut spans = Spans::default();
    let mut tot = ShardTotals::default();
    let (mut trace_events, mut served, mut delayed) = (0, 0, 0);
    let (mut peak, mut resident, mut ok) = (0, 0, true);
    for d in done {
        for b in d.digest.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        read_hist.merge(&d.read_hist);
        trace_events += d.trace_events;
        served += d.served;
        delayed += d.delayed;
        peak = peak.max(d.peak_segments);
        resident += d.resident_txs;
        ok &= d.verdict_ok;
        tot.events += d.events;
        tot.segments += d.drained_segments;
        tot.gc_passes += d.gc_passes;
        tot.gc_retired += d.gc_retired;
        tot.gc_before += d.gc_before;
        spans.merge(&d.spans);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let exact = Exact {
        digest,
        events: tot.events,
        trace_events,
        queued_frac: delayed as f64 / served.max(1) as f64,
        peak_segments: peak,
        vread_p50_us: read_hist.percentile(50.0),
        vread_p99_us: read_hist.percentile(99.0),
        vread_samples: read_hist.count(),
        resident_txs: resident,
    };
    (exact, ok, Traced { spans, wall_ns }, tot)
}

/// Counts summed over shards and repetitions, for the per-unit costs.
#[derive(Clone, Debug, Default)]
struct ShardTotals {
    events: u64,
    segments: u64,
    gc_passes: u64,
    gc_retired: u64,
    gc_before: u64,
}

impl ShardTotals {
    fn add(&mut self, o: &ShardTotals) {
        self.events += o.events;
        self.segments += o.segments;
        self.gc_passes += o.gc_passes;
        self.gc_retired += o.gc_retired;
        self.gc_before += o.gc_before;
    }
}

/// Check a tier's digest and verdict.
fn check(what: &str, ok: bool, digest: u64, want: Option<u64>) -> Result<(), String> {
    if !ok {
        return Err(format!("{what}: sharded causal verdict failed"));
    }
    match want {
        Some(w) if w != digest => Err(format!("{what}: digest {digest:016x} != expected {w:016x}")),
        _ => Ok(()),
    }
}

/// The untraced tier, as the load engine runs it.
fn untraced_tier(seed: u64) -> (u64, bool, f64) {
    let t = run_swarm_tier(CLIENTS, OPS, KEYS_PER_SHARD, seed);
    (t.digest, t.verdict.is_ok(), t.wall_ms / 1e3)
}

/// Run the workload.
pub fn run(r: &Run, out: &mut Outcome) {
    let Some(pinned) = expected_load_digest("swarm:1000000") else {
        out.failures
            .push("no pinned swarm:1000000 digest in the load fixture".into());
        return;
    };
    if r.trace {
        run_traced(r, out, pinned);
        return;
    }
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_tier(r.seed)).collect();

    // Warm-up, serial, against the pinned digest; the peak RSS is that of
    // set-up and this repetition.
    if let Some((d, ok, _)) = serially(|| out.guard(OPS, || untraced_tier(PINNED_SEED))) {
        out.tally(
            OPS,
            check("swarm warm-up (pinned seed)", ok, d, Some(pinned)),
        );
    }
    out.sample_rss();

    let t0 = now();
    let mut rates = Vec::new();
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0.. {
        if !more_reps(t0, r.seconds, i, rates.len(), MIN_REPS) {
            break;
        }
        let seed = sub_seed(r.seed, i);
        let Some((d, ok, wall)) = out.guard(OPS, || untraced_tier(seed)) else {
            continue;
        };
        let want = *digests.entry(seed).or_insert(d);
        let res = check("swarm", ok, d, Some(want));
        if res.is_ok() {
            rates.push(OPS as f64 / wall);
        }
        out.tally(OPS, res);
    }
    out.note(format!(
        "swarm: {} timed reps of {OPS} ops, {CLIENTS} clients; setup median of {SETUPS}; \
         ops/s per rep {rates:.0?}",
        rates.len()
    ));
    let m = &mut out.end_to_end;
    m.push("setup_s", median(&setups), "s");
    if !rates.is_empty() {
        m.push("ops_per_s", median(&rates), "1/s");
    }
}

fn run_traced(r: &Run, out: &mut Outcome, pinned: u64) {
    // Fidelity: the mirror must reproduce the pinned tier digest.
    if let Some((e, ok, _, _)) = out.guard(OPS, || traced_tier(PINNED_SEED)) {
        out.tally(
            OPS,
            check(
                "swarm traced warm-up (pinned seed)",
                ok,
                e.digest,
                Some(pinned),
            ),
        );
    }

    let t0 = now();
    let (mut traced, mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut totals = ShardTotals::default();
    let mut exact: BTreeMap<u64, Exact> = BTreeMap::new();
    for i in 0.. {
        if !more_reps(t0, r.seconds, i, traced.len(), MIN_REPS) {
            break;
        }
        let seed = sub_seed(r.seed, i);
        let Some((d, ok, wall)) = out.guard(OPS, || untraced_tier(seed)) else {
            continue;
        };
        out.tally(OPS, check("swarm", ok, d, None));
        untraced_rates.push(OPS as f64 / wall);

        let Some((e, ok, t, tot)) = out.guard(OPS, || traced_tier(seed)) else {
            continue;
        };
        // The mirror's digest must equal the engine's on this seed, and
        // every exact count must repeat across repetitions of a seed.
        let mut res = check("swarm traced", ok, e.digest, Some(d));
        let prev = exact.entry(seed).or_insert_with(|| e.clone());
        if *prev != e {
            res = Err(format!(
                "swarm traced: exact counts changed: {prev:?} vs {e:?}"
            ));
        }
        out.tally(OPS, res.clone());
        if res.is_ok() {
            traced_rates.push(OPS as f64 / (t.wall_ns as f64 / 1e9));
            totals.add(&tot);
            traced.push(t);
        }
    }
    // Exact counts are those of the first input of the seed, so they
    // repeat bit for bit however many repetitions fit in the run.
    let Some(e) = exact.get(&sub_seed(r.seed, 0)).cloned() else {
        return;
    };
    if traced.is_empty() {
        return;
    }
    let reps = traced.len() as f64;
    let mut spans = Spans::default();
    for t in &traced {
        spans.merge(&t.spans);
    }
    let ops = OPS as f64 * reps;
    let m = &mut out.per_layer;
    m.push(
        "workloads.gen_ns_per_op",
        spans.ns("workloads.gen") as f64 / ops,
        "ns",
    );
    m.push(
        "sim.inject_ns_per_op",
        spans.ns("sim.inject") as f64 / ops,
        "ns",
    );
    m.push(
        "sim.run_ns_per_event",
        spans.ns("sim.run") as f64 / totals.events as f64,
        "ns",
    );
    m.push(
        "sim.drain_ns_per_segment",
        spans.ns("sim.drain") as f64 / totals.segments.max(1) as f64,
        "ns",
    );
    m.push("sim.events_per_op", e.events as f64 / OPS as f64, "count");
    m.push(
        "sim.trace_events_per_op",
        e.trace_events as f64 / OPS as f64,
        "count",
    );
    m.push("sim.queued_frac", e.queued_frac, "fraction");
    m.push(
        "sim.peak_segments_resident",
        e.peak_segments as f64,
        "count",
    );
    m.push("sim.vread_p50_us", e.vread_p50_us as f64, "us");
    m.push("sim.vread_p99_us", e.vread_p99_us as f64, "us");
    m.push("sim.vread_samples", e.vread_samples as f64, "count");
    m.push(
        "model.ingest_us_per_tx",
        spans.ns("model.ingest") as f64 / 1e3 / ops,
        "us",
    );
    m.push(
        "model.verdict_ms",
        spans.ns("model.verdict") as f64 / 1e6 / reps,
        "ms",
    );
    m.push(
        "model.gc_ms_per_pass",
        spans.ns("model.gc") as f64 / 1e6 / totals.gc_passes.max(1) as f64,
        "ms",
    );
    m.push(
        "model.gc_retired_frac",
        totals.gc_retired as f64 / totals.gc_before.max(1) as f64,
        "fraction",
    );
    m.push("model.resident_txs", e.resident_txs as f64, "count");
    crate::finish_traced(
        out,
        cbf_par::thread_budget(),
        &traced,
        &untraced_rates,
        &traced_rates,
    );
    out.note(format!(
        "swarm traced: {} rep pairs; first input: digest {:016x}, vread p50 {} us / p99 {} us \
         over {} samples",
        traced.len(),
        e.digest,
        e.vread_p50_us,
        e.vread_p99_us,
        e.vread_samples
    ));
}
