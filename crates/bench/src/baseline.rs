//! The performance regression gate: current exhibit numbers vs the
//! committed baseline snapshots in `results/baseline/`.
//!
//! The baseline files are ordinary `repro` outputs (`BENCH_harness.json`,
//! `BENCH_scale.json`) copied into `results/baseline/` when a PR
//! deliberately moves the performance floor. When refreshing a snapshot,
//! run the exhibit several times and keep the *slowest* value of each
//! gated metric: the floor should reflect the slow tail of machine noise,
//! not one lucky run, or the gate flaps on loaded hosts. On every `repro perfbench` /
//! `repro scale` run the fresh numbers are compared against them:
//! a metric that lands below `1 − TOLERANCE` of its baseline fails the
//! run with a non-zero exit, so a PR that quietly reintroduces a
//! serial-vs-parallel slowdown (or tanks checker/pipeline throughput)
//! breaks in CI instead of landing.
//!
//! Two escape hatches, both deliberate:
//!
//! * **Report-only mode** — `--report-only` on the CLI or
//!   `SNOWBOUND_GATE=report` in the environment demotes failures to a
//!   printed warning. Shared CI runners have noisy wall-clocks; the gate
//!   is enforced where the machine is quiet and advisory where it is not.
//! * **Missing baseline** — no file, no gate. A fresh checkout (or a
//!   metric added since the snapshot) reports `no baseline` and passes;
//!   the next snapshot refresh picks it up.
//!
//! The reader below is *not* a JSON parser. It is a field scanner for
//! the workspace's own `json.rs` output (which is stable, pretty-printed
//! and flat) — it finds the entry whose key field matches and then the
//! first occurrence of the wanted field inside that entry. Good enough
//! for the files we write ourselves; nothing else is ever fed to it.

use std::fmt;

/// Relative throughput loss tolerated before the gate fails: metrics
/// may drop to `1 − TOLERANCE` of the committed baseline (measurement
/// noise), anything lower is a regression.
pub const TOLERANCE: f64 = 0.20;

/// Environment override: `SNOWBOUND_GATE=report` demotes gate failures
/// to warnings (same effect as the `--report-only` CLI flag).
pub const GATE_ENV: &str = "SNOWBOUND_GATE";

/// Where the committed snapshots live, relative to the repo root.
pub const BASELINE_DIR: &str = "results/baseline";

/// One gate comparison.
#[derive(Clone, Debug)]
pub struct GateCheck {
    /// Human-readable metric name, e.g. `perfbench/table1 speedup`.
    pub metric: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The value this run produced.
    pub current: f64,
    /// `current ≥ baseline × (1 − TOLERANCE)`.
    pub ok: bool,
}

impl fmt::Display for GateCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {:.2} vs baseline {:.2} (floor {:.2})",
            if self.ok { "ok  " } else { "FAIL" },
            self.metric,
            self.current,
            self.baseline,
            self.baseline * (1.0 - TOLERANCE)
        )
    }
}

/// True when gate failures should only be reported, not enforced:
/// either `--report-only` was passed or [`GATE_ENV`] says `report`.
pub fn report_only(args: &[String]) -> bool {
    args.iter().any(|a| a == "--report-only")
        || std::env::var(GATE_ENV)
            .map(|v| v == "report")
            .unwrap_or(false)
}

/// Compare `current` against `baseline`, tagging the check with
/// `metric`. Higher is better for every gated metric.
fn check(metric: String, baseline: f64, current: f64) -> GateCheck {
    GateCheck {
        ok: current >= baseline * (1.0 - TOLERANCE),
        metric,
        baseline,
        current,
    }
}

/// Scan the baseline JSON for the entry whose `key_field` equals
/// `key` (as the workspace's own writer renders it) and return the
/// numeric `field` inside that entry, bounded by the entry's closing
/// brace.
fn entry_field(json: &str, key_field: &str, key: &str, field: &str) -> Option<f64> {
    // The key field is never the last field of its entry, so anchoring on
    // the trailing comma keeps numeric keys that prefix each other apart
    // (tier 10000 vs 100000).
    let anchor = format!("\"{key_field}\": {key},");
    let tag = format!("\"{field}\": ");
    // The same key can occur in several arrays of one report (checker,
    // world and pipeline rows all key on `tier`), so take the first
    // matching entry that actually carries the wanted field.
    for (start, _) in json.match_indices(&anchor) {
        let entry = &json[start..];
        let end = entry.find('}').unwrap_or(entry.len());
        let entry = &entry[..end];
        let Some(at) = entry.find(&tag) else { continue };
        let rest = &entry[at + tag.len()..];
        let stop = rest.find([',', '\n', '}']).unwrap_or(rest.len());
        return rest[..stop].trim().parse::<f64>().ok();
    }
    None
}

/// Read a baseline snapshot, if committed.
pub fn load(name: &str) -> Option<String> {
    std::fs::read_to_string(format!("{BASELINE_DIR}/{name}")).ok()
}

/// Gate a perfbench report: per-exhibit `speedup` vs the committed
/// `BENCH_harness.json`.
pub fn gate_perfbench(
    baseline_json: &str,
    report: &crate::perfbench::PerfReport,
) -> Vec<GateCheck> {
    let mut checks: Vec<GateCheck> = report
        .exhibits
        .iter()
        .filter_map(|e| {
            let base = entry_field(
                baseline_json,
                "exhibit",
                &format!("{:?}", e.exhibit),
                "speedup",
            )?;
            Some(check(
                format!("perfbench/{} speedup", e.exhibit),
                base,
                e.speedup,
            ))
        })
        .collect();
    // The generator section keys on its client count (the only place
    // `clients` appears in BENCH_harness.json).
    if let Some(base) = entry_field(
        baseline_json,
        "clients",
        &report.generator.clients.to_string(),
        "ops_per_sec",
    ) {
        checks.push(check(
            "perfbench/generator ops/sec".to_string(),
            base,
            report.generator.ops_per_sec,
        ));
    }
    checks
}

/// Gate a scale report: checker `incr_tps`, world `events_per_sec` and
/// pipeline `tx_per_sec`, per tier, vs the committed `BENCH_scale.json`.
pub fn gate_scale(baseline_json: &str, report: &crate::scale::ScaleReport) -> Vec<GateCheck> {
    let mut checks = Vec::new();
    for r in &report.checker {
        if let Some(base) = entry_field(baseline_json, "tier", &r.tier.to_string(), "incr_tps") {
            checks.push(check(
                format!("scale/checker@{} tx/s", r.tier),
                base,
                r.incr_tps,
            ));
        }
    }
    for r in &report.world {
        if let Some(base) =
            entry_field(baseline_json, "tier", &r.tier.to_string(), "events_per_sec")
        {
            checks.push(check(
                format!("scale/world@{} events/s", r.tier),
                base,
                r.events_per_sec,
            ));
        }
    }
    for r in &report.pipeline {
        if let Some(base) = entry_field(baseline_json, "tier", &r.txs.to_string(), "tx_per_sec") {
            checks.push(check(
                format!("scale/pipeline@{} tx/s", r.txs),
                base,
                r.tx_per_sec(),
            ));
        }
    }
    checks
}

/// Render, and decide: `Ok` if everything passed (or `report_only`),
/// `Err` with the failing lines otherwise. Prints every check either way
/// so the gate's view of the run is always on the record.
pub fn enforce(checks: &[GateCheck], report_only: bool) -> Result<(), String> {
    if checks.is_empty() {
        println!("regression gate: no baseline committed — skipped");
        return Ok(());
    }
    println!(
        "regression gate vs {BASELINE_DIR} (floor = baseline × {:.2}):",
        1.0 - TOLERANCE
    );
    for c in checks {
        println!("  {c}");
    }
    let failed: Vec<&GateCheck> = checks.iter().filter(|c| !c.ok).collect();
    if failed.is_empty() {
        return Ok(());
    }
    if report_only {
        println!(
            "regression gate: {} metric(s) below the floor — report-only mode, not enforcing",
            failed.len()
        );
        return Ok(());
    }
    Err(format!(
        "regression gate: {} metric(s) regressed > {:.0}% vs {BASELINE_DIR}:\n  {}",
        failed.len(),
        TOLERANCE * 100.0,
        failed
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n  ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "snowbound-perfbench-v1",
  "threads": 8,
  "exhibits": [
    {
      "exhibit": "table1",
      "serial_ms": 14.3,
      "speedup": 1.25,
      "outputs_identical": true
    },
    {
      "exhibit": "latency",
      "speedup": 0.85
    }
  ]
}"#;

    #[test]
    fn entry_field_reads_the_right_entry() {
        assert_eq!(
            entry_field(SAMPLE, "exhibit", "\"table1\"", "speedup"),
            Some(1.25)
        );
        assert_eq!(
            entry_field(SAMPLE, "exhibit", "\"latency\"", "speedup"),
            Some(0.85)
        );
        assert_eq!(
            entry_field(SAMPLE, "exhibit", "\"missing\"", "speedup"),
            None
        );
        // Bounded by the entry: table1's entry has no "threads".
        assert_eq!(
            entry_field(SAMPLE, "exhibit", "\"table1\"", "threads"),
            None
        );
    }

    /// Several arrays in one report key their rows on `tier`, and
    /// numeric tiers prefix each other (10000 is a prefix of 100000).
    /// The scanner must skip entries that lack the wanted field and
    /// never match a longer tier by prefix.
    const TIERED: &str = r#"{
  "checker": [
    { "tier": 10000, "incr_tps": 1.0 },
    { "tier": 100000, "incr_tps": 2.0 }
  ],
  "world": [
    { "tier": 10000, "events_per_sec": 3.0 },
    { "tier": 100000, "events_per_sec": 4.0 }
  ]
}"#;

    #[test]
    fn entry_field_skips_foreign_arrays_and_prefix_tiers() {
        assert_eq!(entry_field(TIERED, "tier", "10000", "incr_tps"), Some(1.0));
        assert_eq!(entry_field(TIERED, "tier", "100000", "incr_tps"), Some(2.0));
        // The checker array comes first but has no events_per_sec: the
        // scanner must fall through to the world array.
        assert_eq!(
            entry_field(TIERED, "tier", "10000", "events_per_sec"),
            Some(3.0)
        );
        assert_eq!(
            entry_field(TIERED, "tier", "100000", "events_per_sec"),
            Some(4.0)
        );
        assert_eq!(entry_field(TIERED, "tier", "10000", "tx_per_sec"), None);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let ok = check("m".into(), 100.0, 81.0);
        assert!(ok.ok, "within 20% must pass");
        let bad = check("m".into(), 100.0, 79.0);
        assert!(!bad.ok, "beyond 20% must fail");
        assert!(enforce(std::slice::from_ref(&ok), false).is_ok());
        assert!(enforce(std::slice::from_ref(&bad), false).is_err());
        // Report-only demotes the failure.
        assert!(enforce(&[bad], true).is_ok());
        // No baseline, no gate.
        assert!(enforce(&[], false).is_ok());
    }
}
