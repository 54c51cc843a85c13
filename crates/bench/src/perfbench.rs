//! Harness self-measurement: the `repro perfbench` exhibit.
//!
//! Times each heavy exhibit twice — serial (`SNOWBOUND_THREADS=1`) and
//! parallel (current thread budget) — and emits the machine-readable
//! `results/BENCH_harness.json` so future changes have a performance
//! trajectory to defend. Alongside wall-clock it records the number of
//! [`World::fork`]s each run took (the theorem machinery's inner-loop
//! currency) and a peak-RSS proxy from `/proc/self/status`.
//!
//! [`World::fork`]: ../cbf_sim/struct.World.html#method.fork

use crate::json::{Obj, ToJson};
use std::time::Instant;

/// One exhibit, measured serial vs parallel.
#[derive(Clone, Debug)]
pub struct ExhibitPerf {
    /// Exhibit name (`table1`, `latency`, …).
    pub exhibit: String,
    /// Serial wall-clock, milliseconds.
    pub serial_ms: f64,
    /// Parallel wall-clock, milliseconds.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
    /// `World::fork` calls during the serial run.
    pub forks_serial: u64,
    /// `World::fork` calls during the parallel run.
    pub forks_parallel: u64,
    /// The two runs produced identical output (the determinism
    /// guarantee, checked on every perfbench run).
    pub outputs_identical: bool,
}

impl ToJson for ExhibitPerf {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("exhibit", &self.exhibit)
            .f64("serial_ms", self.serial_ms)
            .f64("parallel_ms", self.parallel_ms)
            .f64("speedup", self.speedup)
            .u64("forks_serial", self.forks_serial)
            .u64("forks_parallel", self.forks_parallel)
            .bool("outputs_identical", self.outputs_identical)
            .render(indent)
    }
}

/// Generator hot-path measurement: [`ClientSwarm::fill_batch`] driven
/// flat out, no simulator attached. The swarm tiers budget ~1 µs/op
/// end to end, so the generator itself must stay an order of magnitude
/// faster — `repro perfbench` holds it to a 10M ops/sec floor.
///
/// [`ClientSwarm::fill_batch`]: cbf_workloads::ClientSwarm::fill_batch
#[derive(Clone, Debug)]
pub struct GenPerf {
    /// Virtual clients in the measured swarm.
    pub clients: u64,
    /// Operations generated.
    pub ops: u64,
    /// Wall-clock for the whole stream, milliseconds.
    pub wall_ms: f64,
    /// `ops / wall` — the gated metric.
    pub ops_per_sec: f64,
    /// FNV-1a fold of every generated op. Defeats dead-code
    /// elimination, and doubles as a determinism witness: same seed ⇒
    /// same checksum, asserted by the unit tests.
    pub checksum: u64,
}

impl ToJson for GenPerf {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .u64("clients", self.clients)
            .u64("ops", self.ops)
            .f64("wall_ms", self.wall_ms)
            .f64("ops_per_sec", self.ops_per_sec)
            .str("checksum", &format!("{:016x}", self.checksum))
            .render(indent)
    }
}

/// Run the generator flat out: `ops` operations from a `clients`-client
/// swarm (the load exhibits' standard shape), batch by batch, folding
/// every op into an FNV-1a checksum.
pub fn measure_generator(clients: u32, ops: u64, seed: u64) -> GenPerf {
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut swarm = cbf_workloads::ClientSwarm::new(
        cbf_workloads::SwarmSpec::standard(clients, 4096, cbf_workloads::Mix::ycsb_a()),
        seed,
    );
    let mut buf = Vec::with_capacity(4096);
    let mut checksum = 0xcbf29ce484222325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            checksum ^= b as u64;
            checksum = checksum.wrapping_mul(FNV_PRIME);
        }
    };
    let mut generated = 0u64;
    let start = Instant::now();
    while generated < ops {
        let want = 4096.min((ops - generated) as usize);
        swarm.fill_batch(want, &mut buf);
        for op in &buf {
            fold(u64::from(op.client) << 1 | u64::from(op.write));
            fold(u64::from(op.keys[0]));
        }
        generated += buf.len() as u64;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    GenPerf {
        clients: clients as u64,
        ops: generated,
        wall_ms,
        ops_per_sec: if wall_ms > 0.0 {
            generated as f64 / (wall_ms / 1e3)
        } else {
            f64::INFINITY
        },
        checksum,
    }
}

/// The whole perfbench report.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Thread budget the parallel runs used.
    pub threads: usize,
    /// Peak resident set size (kB) after all runs — a proxy, since it is
    /// a high-water mark over the process lifetime.
    pub peak_rss_kb: u64,
    /// Current resident set size (kB) after all runs.
    pub current_rss_kb: u64,
    /// Per-exhibit measurements.
    pub exhibits: Vec<ExhibitPerf>,
    /// Generator hot-path measurement (the swarm tiers' op source).
    pub generator: GenPerf,
}

impl ToJson for PerfReport {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("schema", "snowbound-perfbench-v1")
            .u64("threads", self.threads as u64)
            .u64("peak_rss_kb", self.peak_rss_kb)
            .u64("current_rss_kb", self.current_rss_kb)
            .raw("exhibits", self.exhibits.to_json(indent + 1))
            .raw("generator", self.generator.to_json(indent + 1))
            .render(indent)
    }
}

/// Time one run of `f`, returning its output, elapsed milliseconds, and
/// the `World::fork` calls it performed.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, u64) {
    let forks_before = cbf_sim::forks_taken();
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (out, ms, cbf_sim::forks_taken() - forks_before)
}

/// Measure one exhibit serial-then-parallel. `f` must be a pure function
/// of the thread budget: it returns the exhibit's rendered output, which
/// the two runs must reproduce byte-for-byte.
pub fn measure_exhibit(name: &str, f: impl Fn() -> String) -> ExhibitPerf {
    let saved = std::env::var(cbf_par::THREADS_ENV).ok();

    std::env::set_var(cbf_par::THREADS_ENV, "1");
    let (serial_out, serial_ms, forks_serial) = timed(&f);

    match &saved {
        Some(v) => std::env::set_var(cbf_par::THREADS_ENV, v),
        None => std::env::remove_var(cbf_par::THREADS_ENV),
    }
    let (parallel_out, parallel_ms, forks_parallel) = timed(&f);

    ExhibitPerf {
        exhibit: name.to_string(),
        serial_ms,
        parallel_ms,
        speedup: if parallel_ms > 0.0 {
            serial_ms / parallel_ms
        } else {
            f64::INFINITY
        },
        forks_serial,
        forks_parallel,
        outputs_identical: serial_out == parallel_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_measurement_is_deterministic() {
        let a = measure_generator(1_000, 50_000, 11);
        let b = measure_generator(1_000, 50_000, 11);
        assert_eq!(a.ops, 50_000);
        assert_eq!(a.checksum, b.checksum, "same seed must fold identically");
        let c = measure_generator(1_000, 50_000, 12);
        assert_ne!(a.checksum, c.checksum, "different seed, different stream");
        assert!(a.ops_per_sec > 0.0);
    }

    #[derive(Clone)]
    struct Idle;
    impl cbf_sim::Actor for Idle {
        type Msg = ();
        fn step(&mut self, _ctx: &mut cbf_sim::Ctx<()>) {}
    }

    #[test]
    fn timed_reports_forks() {
        let (out, ms, forks) = timed(|| {
            let w = cbf_sim::World::new(
                vec![Idle, Idle],
                cbf_sim::LatencyModel::constant_default(),
                cbf_sim::SimConfig::default(),
            );
            let _f = w.fork();
            7u32
        });
        assert_eq!(out, 7);
        assert!(ms >= 0.0);
        assert!(forks >= 1);
    }

    #[test]
    fn report_renders_schema() {
        let report = PerfReport {
            threads: 4,
            peak_rss_kb: 1234,
            current_rss_kb: 1000,
            exhibits: vec![ExhibitPerf {
                exhibit: "table1".into(),
                serial_ms: 10.0,
                parallel_ms: 5.0,
                speedup: 2.0,
                forks_serial: 3,
                forks_parallel: 3,
                outputs_identical: true,
            }],
            generator: GenPerf {
                clients: 1000,
                ops: 50_000,
                wall_ms: 2.5,
                ops_per_sec: 2e7,
                checksum: 0xdeadbeef,
            },
        };
        let s = report.to_json(0);
        assert!(s.contains("snowbound-perfbench-v1"));
        assert!(s.contains("\"speedup\": 2.0"));
        assert!(s.contains("outputs_identical"));
        assert!(s.contains("\"checksum\": \"00000000deadbeef\""));
    }
}
