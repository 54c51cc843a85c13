//! The `contention` workload: the load engine's protocol cells. Five
//! protocols (COPS-SNOW, COPS, Eiger, RAMP, Spanner-like) × YCSB-A and
//! YCSB-B, each on 3 sharded servers with 48 Zipf(0.99) clients, 64
//! keys, 24 transactions in flight and a 20 µs service time, 1,536
//! transactions per cell, every cell checked by the full-history
//! causal checker.
//!
//! The untraced run calls [`cbf_bench::load::load_cells`] as it is. The
//! traced run mirrors that function's per-cell loop against the same
//! public `Cluster` calls, with a span around each call, and wraps each
//! protocol actor in [`Timed`] so handler time can be split out of
//! `Cluster::run_open`; every cell must keep its digest.

use crate::report::{median, more_reps, now, serially, sub_seed, Metrics, Outcome, Spans, Traced};
use crate::Run;
use cbf_bench::hist::LogHist;
use cbf_bench::load::{cell_key, expected_load_digest, load_cells};
use cbf_model::session::check_read_atomicity;
use cbf_model::{ClientId, ConsistencyLevel, Key, ShardedChecker, TxId, Value};
use cbf_protocols::cops::CopsNode;
use cbf_protocols::cops_snow::CopsSnowNode;
use cbf_protocols::eiger::EigerNode;
use cbf_protocols::ramp::RampNode;
use cbf_protocols::spanner::SpannerNode;
use cbf_protocols::{Cluster, Completed, ProtocolNode, Topology, TxError};
use cbf_sim::{Actor, Ctx, LatencyModel, ServiceModel, SimConfig, MICROS};
use cbf_workloads::{ClientSwarm, Mix, SwarmOp, SwarmSpec};
use std::any::Any;
use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Seed whose cell digests are pinned as `cell:<protocol>:<mix>`.
pub const PINNED_SEED: u64 = 21;

// The load engine's private cell constants, mirrored. The ten pinned
// digests are what prove they still match.
const SERVERS: u32 = 3;
const CLIENTS: u32 = 48;
const KEYS: u32 = 64;
const CELL_OPS: usize = 1_536;
const SERVICE_US: u64 = 20;
const EPOCH: usize = 24;

/// Protocols in cell order, with the metric-name form of each.
pub const PROTOCOLS: [(&str, &str); 5] = [
    ("COPS-SNOW", "cops-snow"),
    ("COPS", "cops"),
    ("Eiger", "eiger"),
    ("RAMP", "ramp"),
    ("Spanner-like", "spanner-like"),
];

/// Transactions in one repetition: every cell.
const OPS: u64 = (CELL_OPS * 10) as u64;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 31;
/// Fewest timed repetitions per run.
const MIN_REPS: usize = 2;

thread_local! {
    /// Handler time of [`Timed`] actors stepped on this thread.
    static HANDLER_NS: Cell<u64> = const { Cell::new(0) };
}

/// A protocol actor whose steps are timed. It delegates every call to
/// the actor it wraps, so the simulated system is unchanged: the cell
/// digests, pinned for the unwrapped actors, prove it.
#[derive(Clone)]
pub struct Timed<N>(N);

impl<N: Actor> Actor for Timed<N> {
    type Msg = N::Msg;

    fn step(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let t0 = now();
        self.0.step(ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        HANDLER_NS.with(|c| c.set(c.get() + ns));
    }

    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
        self.0.on_start(ctx);
    }

    fn on_crash(&mut self) {
        self.0.on_crash();
    }
}

impl<N: ProtocolNode> ProtocolNode for Timed<N> {
    const NAME: &'static str = N::NAME;
    const CONSISTENCY: ConsistencyLevel = N::CONSISTENCY;
    const SUPPORTS_MULTI_WRITE: bool = N::SUPPORTS_MULTI_WRITE;

    fn server(topo: &Topology, id: cbf_sim::ProcessId) -> Self {
        Timed(N::server(topo, id))
    }
    fn client(topo: &Topology, id: cbf_sim::ProcessId) -> Self {
        Timed(N::client(topo, id))
    }
    fn rot_invoke(id: TxId, keys: Vec<Key>) -> Self::Msg {
        N::rot_invoke(id, keys)
    }
    fn wtx_invoke(id: TxId, writes: Vec<(Key, Value)>) -> Self::Msg {
        N::wtx_invoke(id, writes)
    }
    fn completed(&self, id: TxId) -> Option<&Completed> {
        self.0.completed(id)
    }
    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        self.0.take_completed(id)
    }
    fn msg_values(msg: &Self::Msg) -> u32 {
        N::msg_values(msg)
    }
    fn msg_is_request(msg: &Self::Msg) -> bool {
        N::msg_is_request(msg)
    }
}

/// A cell's deployment, as the load engine builds it.
fn deploy_cluster<N: ProtocolNode>() -> Cluster<N> {
    let topo = Topology::sharded(SERVERS, CLIENTS, KEYS);
    let config = SimConfig {
        service: Some(ServiceModel {
            servers: SERVERS,
            service_time: SERVICE_US * MICROS,
        }),
        max_events: 200_000_000,
        ..SimConfig::default()
    };
    Cluster::with_network(topo, LatencyModel::constant_default(), config)
}

/// A cell's client swarm, as the load engine builds it.
fn deploy_swarm(mix: Mix, seed: u64) -> ClientSwarm {
    ClientSwarm::new(
        SwarmSpec {
            num_clients: CLIENTS,
            num_keys: KEYS,
            theta: 0.99,
            mix,
            read_keys: 2,
            write_keys: 2,
            wheel_slots: 16,
        },
        seed,
    )
}

/// What one traced cell proved and spent.
#[derive(Clone, Debug)]
struct CellDone {
    protocol: &'static str,
    verdicts: Verdicts,
    exact: CellExact,
    read_hist: LogHist,
    spans: Spans,
}

/// Everything a cell produced that must repeat exactly for a seed.
#[derive(Clone, Debug, PartialEq)]
struct CellExact {
    digest: u64,
    txs: u64,
    events: u64,
    trace_events: u64,
    sent: u64,
    served: u64,
    delayed: u64,
    resident_segments: u64,
    resident_txs: u64,
    vread_p50_us: u64,
    vread_p99_us: u64,
}

/// A cell's checks. Every cell's history gets the causal verdict, as
/// the load engine computes it; `promised` is the verdict on the level
/// the protocol declares. RAMP declares read atomicity, not causality,
/// so off the pinned seed a causal violation in a RAMP cell is its
/// design, not a fault, and the cell is held to read atomicity.
#[derive(Clone, Debug)]
struct Verdicts {
    key: String,
    digest: u64,
    causal: bool,
    /// `None` where the history was not available to check.
    promised: Option<bool>,
}

/// The checks of the pinned seed: the pinned digest, and the causal
/// verdict for every cell, as the load engine's fixture demands.
fn check_pinned(what: &str, cells: &[Verdicts]) -> Result<(), String> {
    let mut bad = Vec::new();
    for c in cells {
        if !c.causal {
            bad.push(format!("{}: causal verdict failed", c.key));
        }
        match expected_load_digest(&c.key) {
            Some(w) if w == c.digest => {}
            Some(w) => bad.push(format!(
                "{}: digest {:016x} != pinned {w:016x}",
                c.key, c.digest
            )),
            None => bad.push(format!("{}: no pinned digest", c.key)),
        }
    }
    verdict(what, bad)
}

/// The checks of any seed: each cell keeps its declared consistency
/// level, and its digest matches `want` (a run of the same seed whose
/// history was checked) wherever the history itself was not.
fn check_seed(
    what: &str,
    cells: &[Verdicts],
    want: impl Fn(&str) -> Option<u64>,
) -> Result<(), String> {
    let mut bad = Vec::new();
    for c in cells {
        if c.promised == Some(false) {
            bad.push(format!(
                "{}: violates its declared consistency level",
                c.key
            ));
        }
        match want(&c.key) {
            Some(w) if w != c.digest => {
                bad.push(format!("{}: digest {:016x} != {w:016x}", c.key, c.digest))
            }
            None if c.promised.is_none() => {
                bad.push(format!("{}: no checked run to compare with", c.key))
            }
            _ => {}
        }
    }
    verdict(what, bad)
}

fn verdict(what: &str, bad: Vec<String>) -> Result<(), String> {
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("{what}: {}", bad.join("; ")))
    }
}

/// One cell, mirrored from the load engine with a span per call.
fn traced_cell<N: ProtocolNode>(mix: Mix, mix_name: &str, seed: u64) -> CellDone {
    let mut spans = Spans::default();
    let mut cluster = spans.time("protocols.deploy", deploy_cluster::<Timed<N>>);
    let mut swarm = spans.time("workloads.new", || deploy_swarm(mix, seed));
    let mut read_hist = LogHist::new();
    let mut done = 0usize;
    let before_msgs = cluster.world.stats().total_sent();
    let mut carry: Vec<SwarmOp> = Vec::new();
    let mut fresh: Vec<SwarmOp> = Vec::new();
    while done < CELL_OPS {
        let mut busy = [false; CLIENTS as usize];
        let mut epoch: Vec<SwarmOp> = Vec::new();
        carry.retain(|op| {
            let c = op.client as usize;
            if epoch.len() < EPOCH && !busy[c] {
                busy[c] = true;
                epoch.push(*op);
                false
            } else {
                true
            }
        });
        while epoch.len() < EPOCH {
            let want = EPOCH - epoch.len();
            spans.time("workloads.gen", || swarm.fill_batch(want, &mut fresh));
            for &op in &fresh {
                let c = op.client as usize;
                if busy[c] {
                    carry.push(op);
                } else {
                    busy[c] = true;
                    epoch.push(op);
                }
            }
        }

        let open = spans.time("protocols.begin", || {
            let mut open = Vec::with_capacity(epoch.len());
            for op in &epoch {
                let client = ClientId(op.client);
                let keys: Vec<Key> = op.keys[..op.nkeys as usize]
                    .iter()
                    .map(|&k| Key(k))
                    .collect();
                let t = if !op.write {
                    cluster.begin_read_tx(client, &keys)
                } else {
                    match cluster.begin_write_tx(client, &keys) {
                        Ok(t) => t,
                        Err(TxError::MultiWriteUnsupported) => cluster
                            .begin_write_tx(client, &keys[..1])
                            .expect("every protocol supports single-object writes"),
                        Err(e) => panic!("{}: begin_write_tx: {e}", N::NAME),
                    }
                };
                open.push(t);
            }
            open
        });
        // `run_open` is the simulator and the handlers fused: the
        // handler part is timed inside the actors and moved out of it.
        HANDLER_NS.with(|c| c.set(0));
        let settled = spans.time("sim.run", || cluster.run_open(&open));
        assert!(settled, "{}: epoch did not complete", N::NAME);
        spans.split("sim.run", "protocols.step", HANDLER_NS.with(Cell::get));
        let reads: Vec<bool> = open.iter().map(|t| t.writes.is_empty()).collect();
        let lats = spans.time("protocols.finish", || {
            open.into_iter()
                .map(|t| {
                    cluster
                        .finish_tx(t)
                        .unwrap_or_else(|e| panic!("{}: finish_tx: {e}", N::NAME))
                })
                .collect::<Vec<_>>()
        });
        for (is_read, lat) in reads.into_iter().zip(lats) {
            if is_read {
                read_hist.record(lat / 1_000);
            }
            done += 1;
        }
    }

    let sent = cluster.world.stats().total_sent() - before_msgs;
    let ss = cluster.world.service_stats();
    let mut checker = ShardedChecker::new(1);
    let history = cluster.history();
    spans.time("model.ingest", || {
        for t in history.transactions() {
            checker.ingest(t.clone());
        }
    });
    let verdict = spans.time("model.verdict", || checker.verdict());
    let digest = spans.time("sim.digest", || cluster.world.trace.digest());
    let promised = match N::CONSISTENCY {
        ConsistencyLevel::ReadAtomicity => check_read_atomicity(history).is_empty(),
        _ => verdict.is_ok(),
    };
    let stats = cluster.world.stats_snapshot();
    let protocol = PROTOCOLS
        .iter()
        .find(|p| p.0 == N::NAME)
        .map(|p| p.1)
        .expect("a contention protocol");
    CellDone {
        protocol,
        verdicts: Verdicts {
            key: format!("cell:{}:{mix_name}", N::NAME),
            digest,
            causal: verdict.is_ok(),
            promised: Some(promised),
        },
        exact: CellExact {
            digest,
            txs: done as u64,
            events: stats.events,
            trace_events: stats.trace_events,
            sent,
            served: ss.served,
            delayed: ss.delayed,
            resident_segments: cluster.world.trace.resident_segments() as u64,
            resident_txs: checker.resident_stats().txs as u64,
            vread_p50_us: read_hist.percentile(50.0),
            vread_p99_us: read_hist.percentile(99.0),
        },
        read_hist,
        spans,
    }
}

type Job<T> = Box<dyn Fn() -> T + Send + Sync>;

/// The ten cells in the load engine's order, as jobs.
fn jobs<T: 'static>(seed: u64, cell: fn(Mix, &'static str, u64, usize) -> T) -> Vec<Job<T>> {
    let mixes: [(Mix, &'static str); 2] = [(Mix::ycsb_a(), "ycsb_a"), (Mix::ycsb_b(), "ycsb_b")];
    let mut out: Vec<Job<T>> = Vec::new();
    for (mix, name) in mixes {
        for p in 0..PROTOCOLS.len() {
            out.push(Box::new(move || cell(mix, name, seed, p)));
        }
    }
    out
}

fn traced_by_index(mix: Mix, name: &'static str, seed: u64, p: usize) -> CellDone {
    match p {
        0 => traced_cell::<CopsSnowNode>(mix, name, seed),
        1 => traced_cell::<CopsNode>(mix, name, seed),
        2 => traced_cell::<EigerNode>(mix, name, seed),
        3 => traced_cell::<RampNode>(mix, name, seed),
        _ => traced_cell::<SpannerNode>(mix, name, seed),
    }
}

fn deploy_by_index(mix: Mix, _name: &'static str, seed: u64, p: usize) -> Box<dyn Any + Send> {
    match p {
        0 => Box::new((deploy_cluster::<CopsSnowNode>(), deploy_swarm(mix, seed))),
        1 => Box::new((deploy_cluster::<CopsNode>(), deploy_swarm(mix, seed))),
        2 => Box::new((deploy_cluster::<EigerNode>(), deploy_swarm(mix, seed))),
        3 => Box::new((deploy_cluster::<RampNode>(), deploy_swarm(mix, seed))),
        _ => Box::new((deploy_cluster::<SpannerNode>(), deploy_swarm(mix, seed))),
    }
}

/// Time to deploy every cell, one after another, so the figure is the
/// set-up work itself and not how the fan-out happened to overlap it.
fn setup_cells(seed: u64) -> f64 {
    let t0 = now();
    let built: Vec<Box<dyn Any + Send>> = jobs(seed, deploy_by_index)
        .iter()
        .map(|job| job())
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(built));
    secs
}

/// The untraced cells and their wall time in seconds. The load engine
/// returns no history, so a cell whose protocol does not promise
/// causality has no verdict of its own here.
fn untraced_cells(seed: u64) -> (Vec<Verdicts>, f64) {
    let t0 = now();
    let cells = load_cells(seed);
    let wall = t0.elapsed().as_secs_f64();
    let out = cells
        .iter()
        .map(|c| {
            let key = cell_key(c);
            let promises_causality = !key.starts_with(&format!("cell:{}:", RampNode::NAME));
            Verdicts {
                key,
                digest: c.digest,
                causal: c.causal_ok,
                promised: promises_causality.then_some(c.causal_ok),
            }
        })
        .collect();
    (out, wall)
}

fn traced_cells(seed: u64) -> (Vec<CellDone>, Traced) {
    let t0 = now();
    let cells = cbf_par::parallel_map(jobs(seed, traced_by_index), |job| job());
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut spans = Spans::default();
    for c in &cells {
        spans.merge(&c.spans);
    }
    (cells, Traced { spans, wall_ns })
}

fn verdicts(cells: &[CellDone]) -> Vec<Verdicts> {
    cells.iter().map(|c| c.verdicts.clone()).collect()
}

fn digest_of(cells: &[Verdicts], key: &str) -> Option<u64> {
    cells.iter().find(|c| c.key == key).map(|c| c.digest)
}

/// The RAMP cells of `seed`, through the mirror: the load engine does
/// not check RAMP's histories for read atomicity, the level RAMP
/// declares, so they are checked here and every repetition of the seed
/// must reproduce their digests.
fn mirrored_ramp(seed: u64, out: &mut Outcome) -> Vec<Verdicts> {
    let ops = 2 * CELL_OPS as u64;
    let mirror = || {
        [(Mix::ycsb_a(), "ycsb_a"), (Mix::ycsb_b(), "ycsb_b")]
            .into_iter()
            .map(|(mix, name)| traced_cell::<RampNode>(mix, name, seed).verdicts)
            .collect::<Vec<_>>()
    };
    let checked = out.guard(ops, mirror).unwrap_or_default();
    out.tally(
        ops,
        check_seed("contention RAMP (mirror)", &checked, |_| None),
    );
    checked
}

/// Run the workload.
pub fn run(r: &Run, out: &mut Outcome) {
    if r.trace {
        run_traced(r, out);
        return;
    }
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_cells(r.seed)).collect();

    // Warm-up, serial, against the pinned digests; the peak RSS is that of
    // set-up and this repetition.
    if let Some((cells, _)) = serially(|| out.guard(OPS, || untraced_cells(PINNED_SEED))) {
        let res = check_pinned("contention warm-up (pinned seed)", &cells);
        out.tally(OPS, res);
    }
    out.sample_rss();

    let t0 = now();
    let mut rates = Vec::new();
    // Per input: its mirrored RAMP cells, and its first repetition.
    let mut ramp: BTreeMap<u64, Vec<Verdicts>> = BTreeMap::new();
    let mut firsts: BTreeMap<u64, Vec<Verdicts>> = BTreeMap::new();
    for i in 0.. {
        if !more_reps(t0, r.seconds, i, rates.len(), MIN_REPS) {
            break;
        }
        let seed = sub_seed(r.seed, i);
        if let Entry::Vacant(slot) = ramp.entry(seed) {
            slot.insert(mirrored_ramp(seed, out));
        }
        let Some((cells, wall)) = out.guard(OPS, || untraced_cells(seed)) else {
            continue;
        };
        let first = firsts.entry(seed).or_insert_with(|| cells.clone());
        let res = check_seed("contention", &cells, |k| {
            digest_of(&ramp[&seed], k).or(digest_of(first, k))
        });
        if res.is_ok() {
            rates.push(OPS as f64 / wall);
        }
        out.tally(OPS, res);
    }
    out.note(format!(
        "contention: {} timed reps of {OPS} txs (10 cells); setup median of {SETUPS}; \
         txs/s per rep {rates:.0?}",
        rates.len()
    ));
    let m = &mut out.end_to_end;
    m.push("setup_s", median(&setups), "s");
    if !rates.is_empty() {
        m.push("ops_per_s", median(&rates), "1/s");
    }
}

fn run_traced(r: &Run, out: &mut Outcome) {
    // Fidelity: the mirror, wrapped actors and all, must reproduce the
    // ten pinned cell digests.
    if let Some((cells, _)) = out.guard(OPS, || traced_cells(PINNED_SEED)) {
        let res = check_pinned("contention traced warm-up (pinned seed)", &verdicts(&cells));
        out.tally(OPS, res);
    }

    let t0 = now();
    let (mut traced, mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Vec<CellDone> = Vec::new();
    let mut exact: BTreeMap<u64, Vec<CellExact>> = BTreeMap::new();
    let mut first: Vec<CellDone> = Vec::new();
    for i in 0.. {
        if !more_reps(t0, r.seconds, i, traced.len(), MIN_REPS) {
            break;
        }
        let seed = sub_seed(r.seed, i);
        let Some((cells, t)) = out.guard(OPS, || traced_cells(seed)) else {
            continue;
        };
        let checked = verdicts(&cells);
        let Some((plain, wall)) = out.guard(OPS, || untraced_cells(seed)) else {
            continue;
        };
        out.tally(
            OPS,
            check_seed("contention", &plain, |k| digest_of(&checked, k)),
        );
        untraced_rates.push(OPS as f64 / wall);

        let mut res = check_seed("contention traced", &checked, |_| None);
        let ex: Vec<CellExact> = cells.iter().map(|c| c.exact.clone()).collect();
        if *exact.entry(seed).or_insert_with(|| ex.clone()) != ex {
            res = Err("contention traced: exact counts changed between repetitions".into());
        }
        out.tally(OPS, res.clone());
        if res.is_ok() {
            traced_rates.push(OPS as f64 / (t.wall_ns as f64 / 1e9));
            traced.push(t);
            if i == 0 {
                first = cells.clone();
            }
            kept.extend(cells);
        }
    }
    if traced.is_empty() || first.is_empty() {
        return;
    }
    let reps = traced.len() as f64;
    let mut notes = Vec::new();
    let m = &mut out.per_layer;
    push_layers(m, &kept, &first, reps);
    for (name, metric) in PROTOCOLS {
        let mine: Vec<&CellDone> = kept.iter().filter(|c| c.protocol == metric).collect();
        let txs: u64 = mine.iter().map(|c| c.exact.txs).sum();
        let busy = |key: &str| mine.iter().map(|c| c.spans.ns(key)).sum::<u64>() as f64;
        let fused = busy("sim.run") + busy("protocols.step");
        m.push(
            &format!("protocols.{metric}.run_open_us_per_tx"),
            fused / 1e3 / txs as f64,
            "us",
        );
        m.push(
            &format!("protocols.{metric}.step_us_per_tx"),
            busy("protocols.step") / 1e3 / txs as f64,
            "us",
        );
        // Both mixes' reads, so the p99 has enough reads beyond it.
        let mut h = LogHist::new();
        for c in first.iter().filter(|c| c.protocol == metric) {
            h.merge(&c.read_hist);
        }
        m.push(
            &format!("protocols.{metric}.vread_p50_us"),
            h.percentile(50.0) as f64,
            "us",
        );
        m.push(
            &format!("protocols.{metric}.vread_p99_us"),
            h.percentile(99.0) as f64,
            "us",
        );
        notes.push(format!(
            "contention {name}: vread p50 {} us, p99 {} us over {} reads (both mixes)",
            h.percentile(50.0),
            h.percentile(99.0),
            h.count()
        ));
    }
    out.notes.extend(notes);
    crate::finish_traced(
        out,
        cbf_par::thread_budget(),
        &traced,
        &untraced_rates,
        &traced_rates,
    );
}

/// The layer metrics: busy times summed over every traced cell of
/// every repetition; exact counts from the first input's cells, so
/// they repeat bit for bit however many repetitions fit in the run.
fn push_layers(m: &mut Metrics, kept: &[CellDone], first: &[CellDone], reps: f64) {
    let mut spans = Spans::default();
    let (mut txs, mut events) = (0u64, 0u64);
    for c in kept {
        spans.merge(&c.spans);
        txs += c.exact.txs;
        events += c.exact.events;
    }
    let sum = |f: fn(&CellExact) -> u64| first.iter().map(|c| f(&c.exact)).sum::<u64>() as f64;
    let first_txs = sum(|e| e.txs);
    let mut reads = LogHist::new();
    for c in first {
        reads.merge(&c.read_hist);
    }
    let txs_f = txs as f64;
    m.push(
        "workloads.gen_ns_per_op",
        spans.ns("workloads.gen") as f64 / txs_f,
        "ns",
    );
    m.push(
        "sim.run_ns_per_event",
        spans.ns("sim.run") as f64 / events as f64,
        "ns",
    );
    m.push("sim.events_per_op", sum(|e| e.events) / first_txs, "count");
    m.push(
        "sim.trace_events_per_op",
        sum(|e| e.trace_events) / first_txs,
        "count",
    );
    m.push(
        "sim.queued_frac",
        sum(|e| e.delayed) / sum(|e| e.served).max(1.0),
        "fraction",
    );
    m.push(
        "sim.peak_segments_resident",
        sum(|e| e.resident_segments),
        "count",
    );
    m.push("sim.vread_p50_us", reads.percentile(50.0) as f64, "us");
    m.push("sim.vread_p99_us", reads.percentile(99.0) as f64, "us");
    m.push("sim.vread_samples", reads.count() as f64, "count");
    m.push(
        "protocols.begin_ns_per_tx",
        spans.ns("protocols.begin") as f64 / txs_f,
        "ns",
    );
    m.push(
        "protocols.run_open_us_per_tx",
        (spans.ns("sim.run") + spans.ns("protocols.step")) as f64 / 1e3 / txs_f,
        "us",
    );
    m.push(
        "protocols.step_us_per_tx",
        spans.ns("protocols.step") as f64 / 1e3 / txs_f,
        "us",
    );
    m.push(
        "protocols.finish_ns_per_tx",
        spans.ns("protocols.finish") as f64 / txs_f,
        "ns",
    );
    m.push(
        "protocols.msgs_per_op",
        sum(|e| e.sent) / first_txs,
        "count",
    );
    m.push(
        "model.ingest_us_per_tx",
        spans.ns("model.ingest") as f64 / 1e3 / txs_f,
        "us",
    );
    m.push(
        "model.verdict_ms",
        spans.ns("model.verdict") as f64 / 1e6 / reps,
        "ms",
    );
    m.push("model.resident_txs", sum(|e| e.resident_txs), "count");
}
