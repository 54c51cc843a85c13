//! The lint must *fail* on the known-bad fixtures — each rule at the
//! right file and line. Fixtures live in `crates/snowlint/fixtures/`
//! (excluded from the workspace scan) and are lexed here under the
//! path a real offender would have.

use snowlint::lexer::lex;
use snowlint::report::Finding;
use snowlint::{determinism, flow, properties};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// 1-based line of the first line containing `marker`.
fn line_of(src: &str, marker: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("marker {marker:?} not in fixture")) as u32
        + 1
}

fn expect(findings: &[Finding], rule: &str, path: &str, line: u32) {
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rule && f.path == path && f.line == line),
        "expected {rule} at {path}:{line}; got:\n{}",
        findings.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn bad_checker_breaks_every_determinism_rule() {
    let src = fixture("bad_checker.rs");
    let path = "crates/model/src/bad_checker.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash-use"),
    );
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash-field"),
    );
    expect(
        &out,
        determinism::RULE_CLOCK,
        path,
        line_of(&src, "// line: clock"),
    );
    expect(
        &out,
        determinism::RULE_THREAD,
        path,
        line_of(&src, "// line: thread"),
    );
    expect(
        &out,
        determinism::RULE_UNSAFE,
        path,
        line_of(&src, "// line: unsafe"),
    );
    assert_eq!(out.len(), 5, "exactly the five marked violations");
}

#[test]
fn bad_checker_is_clean_outside_deterministic_crates_except_global_rules() {
    // The same source under crates/bench is allowed its HashMaps — but
    // clock, thread and unsafe are global rules and still fire.
    let src = fixture("bad_checker.rs");
    let path = "crates/bench/src/bad_checker.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_HASH));
    assert_eq!(out.len(), 3);
}

#[test]
fn bad_slab_fails_the_guard_and_determinism_rules() {
    // The slab module is scheduler core: a clone that drops its
    // `#![deny(unsafe_code)]` guard and reaches for HashMap/Instant/unsafe
    // must light up every applicable rule.
    let src = fixture("bad_slab.rs");
    let path = "crates/sim/src/slab.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(&out, determinism::RULE_GUARD, path, 1);
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash"),
    );
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash-field"),
    );
    expect(
        &out,
        determinism::RULE_CLOCK,
        path,
        line_of(&src, "// line: clock"),
    );
    expect(
        &out,
        determinism::RULE_UNSAFE,
        path,
        line_of(&src, "// line: unsafe"),
    );
    assert_eq!(
        out.len(),
        5,
        "exactly the five violations:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check(path, &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    assert_eq!(out.len(), 4);
}

#[test]
fn bad_pipeline_fails_the_guard_and_determinism_rules() {
    // The streaming-pipeline modules get the slab treatment: a
    // clone that drops its `#![deny(unsafe_code)]` guard and reaches for
    // threads/Instant/unsafe must light up every applicable rule at the
    // exact file and line.
    let src = fixture("bad_pipeline.rs");
    let path = "crates/bench/src/pipeline.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(&out, determinism::RULE_GUARD, path, 1);
    expect(
        &out,
        determinism::RULE_CLOCK,
        path,
        line_of(&src, "// line: clock"),
    );
    expect(
        &out,
        determinism::RULE_THREAD,
        path,
        line_of(&src, "// line: thread"),
    );
    expect(
        &out,
        determinism::RULE_UNSAFE,
        path,
        line_of(&src, "// line: unsafe"),
    );
    // bench may use HashMap, so exactly the four violations above.
    assert_eq!(
        out.len(),
        4,
        "exactly the four violations:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );

    // The same source under the sharded checker's path is inside a
    // deterministic crate: the hash rule joins in at its marked lines.
    let path = "crates/model/src/streaming.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    expect(&out, determinism::RULE_GUARD, path, 1);
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash"),
    );
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash-field"),
    );
    assert_eq!(
        out.len(),
        6,
        "guard + 2 hash + clock + thread + unsafe:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check("crates/bench/src/pipeline.rs", &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    assert_eq!(out.len(), 3);
}

#[test]
fn bad_gc_fails_the_guard_and_determinism_rules() {
    // The checker's frontier GC and the soak harness (PR 7) join
    // GUARDED_FILES: a clone that drops its `#![deny(unsafe_code)]`
    // guard, triggers collection off the wall clock and compacts its
    // arena with raw pointer copies must light up every applicable
    // rule at the exact file and line. Under the model path the hash
    // rule joins in at its marked lines.
    let src = fixture("bad_gc.rs");
    let path = "crates/model/src/incremental.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(&out, determinism::RULE_GUARD, path, 1);
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash"),
    );
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash-field"),
    );
    expect(
        &out,
        determinism::RULE_CLOCK,
        path,
        line_of(&src, "// line: clock"),
    );
    expect(
        &out,
        determinism::RULE_UNSAFE,
        path,
        line_of(&src, "// line: unsafe"),
    );
    assert_eq!(
        out.len(),
        5,
        "guard + 2 hash + clock + unsafe:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );

    // The soak harness path is guarded too, but lives in bench where
    // hash maps are legal and the wall clock is allowlisted at the
    // workspace level (snowlint.toml) — the raw pass still reports it.
    let path = "crates/bench/src/soak.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    expect(&out, determinism::RULE_GUARD, path, 1);
    expect(
        &out,
        determinism::RULE_UNSAFE,
        path,
        line_of(&src, "// line: unsafe"),
    );
    assert!(out.iter().all(|f| f.rule != determinism::RULE_HASH));

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check("crates/model/src/incremental.rs", &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    assert_eq!(out.len(), 4);
}

#[test]
fn bad_workload_fails_the_guard_and_determinism_rules() {
    // The workload generators (PR 8) join both lists: `workloads` is a
    // deterministic crate (its op stream is folded into pinned trace
    // digests) and the swarm/alias hot paths are guarded files. A swarm
    // clone that drops its `#![deny(unsafe_code)]` guard, seeds from
    // the wall clock, drains clients in HashMap order and indexes its
    // table unchecked must light up every rule at the exact line.
    let src = fixture("bad_workload.rs");
    let path = "crates/workloads/src/swarm.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(&out, determinism::RULE_GUARD, path, 1);
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash-use"),
    );
    expect(
        &out,
        determinism::RULE_HASH,
        path,
        line_of(&src, "// line: hash-field"),
    );
    expect(
        &out,
        determinism::RULE_CLOCK,
        path,
        line_of(&src, "// line: clock"),
    );
    expect(
        &out,
        determinism::RULE_THREAD,
        path,
        line_of(&src, "// line: thread"),
    );
    expect(
        &out,
        determinism::RULE_UNSAFE,
        path,
        line_of(&src, "// line: unsafe"),
    );
    // The fixture constructs two more HashMaps inside `new`.
    let hash_count = out
        .iter()
        .filter(|f| f.rule == determinism::RULE_HASH)
        .count();
    assert!(
        hash_count >= 2,
        "at least the two marked hash sites:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check(path, &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));

    // The same source under a path outside the deterministic crates
    // and the guarded list keeps only the global rules.
    let path = "crates/bench/src/bad_workload.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_HASH));
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    // Clock fires on every `SystemTime` mention (the use, the ::now
    // and UNIX_EPOCH), plus the thread and unsafe sites.
    assert_eq!(
        out.len(),
        5,
        "3 clock + thread + unsafe:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn bad_net_crosses_the_runtime_boundary_both_ways() {
    // The real-socket runtime (PR 10) draws a two-way boundary: sockets
    // stay inside crates/net, and the simulator's oracle types stay out
    // of crates/net's hot path. One fixture violates both, and which
    // rules fire depends on which side of the boundary it is lexed on.
    let src = fixture("bad_net.rs");

    // Under a deterministic crate the sockets are the offence, and the
    // net carve-outs do not apply: clock and thread fire too.
    let path = "crates/sim/src/transport.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    for marker in [
        "// line: socket-use",
        "// line: socket-dial",
        "// line: socket-connect",
    ] {
        expect(&out, determinism::RULE_NET, path, line_of(&src, marker));
    }
    expect(
        &out,
        determinism::RULE_CLOCK,
        path,
        line_of(&src, "// line: clock"),
    );
    expect(
        &out,
        determinism::RULE_THREAD,
        path,
        line_of(&src, "// line: thread"),
    );
    assert_eq!(
        out.len(),
        5,
        "3 sockets + clock + thread:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );

    // Under the event loop's own path the sockets, clock and thread are
    // the runtime's business — but the oracle types in the hot path and
    // the dropped `#![deny(unsafe_code)]` guard fire.
    let path = "crates/net/src/node.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    expect(&out, determinism::RULE_GUARD, path, 1);
    expect(
        &out,
        determinism::RULE_SIM_IN_NET,
        path,
        line_of(&src, "// line: sim-world"),
    );
    expect(
        &out,
        determinism::RULE_SIM_IN_NET,
        path,
        line_of(&src, "// line: sim-config"),
    );
    assert_eq!(
        out.len(),
        3,
        "guard + 2 oracle types:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check(path, &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    assert_eq!(out.len(), 2);

    // The replay oracle is the sanctioned home for every one of these
    // names: same source, zero findings.
    let mut out = Vec::new();
    determinism::check("crates/net/src/replay.rs", &lex(&src), &mut out);
    assert!(
        out.is_empty(),
        "{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn bad_cops_snow_clone_fails_the_property_rules() {
    let src = fixture("bad_cops_snow.rs");
    let path = "crates/protocols/src/bad_cops_snow.rs";

    // Check against the *real* Table 1 data, exactly as the workspace
    // pass would.
    let root = snowlint::find_workspace_root().expect("workspace root");
    let audit = std::fs::read_to_string(root.join("crates/core/src/audit.rs")).unwrap();
    let paper = properties::parse_paper_table(&lex(&audit));
    assert!(!paper.is_empty(), "paper_table1() rows parsed");

    let mut out = Vec::new();
    properties::check_protocol(path, &lex(&src), &paper, &mut out);

    let decl_line = line_of(&src, "// line: decl");
    expect(&out, properties::RULE_PAPER, path, decl_line);
    expect(&out, properties::RULE_VALUES, path, decl_line);
    expect(&out, properties::RULE_REQUESTS, path, decl_line);
    assert_eq!(
        out.iter()
            .filter(|f| f.rule == properties::RULE_PAPER)
            .count(),
        2,
        "both rounds and values violate the 1/1 row:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
    assert_eq!(
        out.len(),
        4,
        "{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn bad_flow_rounds_fires_on_the_extra_round_send() {
    let src = fixture("bad_flow_rounds.rs");
    let path = "crates/protocols/src/bad_flow_rounds.rs";
    let mut out = Vec::new();
    let g = flow::check_protocol(path, &lex(&src), &[], &mut out).expect("graph");

    // The finding points at the second server-bound hop — the first
    // send beyond the declared one-round budget — not the declaration.
    expect(
        &out,
        flow::RULE_FLOW_ROUNDS,
        path,
        line_of(&src, "// line: extra-round"),
    );
    assert_eq!(g.derived.rounds, Some(2));
    assert_eq!(
        out.len(),
        1,
        "exactly the marked violation:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );

    // Declaring what the handlers actually do silences the rule: the
    // finding is about the declaration/derivation gap, not the hops.
    let honest = src.replace("rounds: 1", "rounds: 2");
    let mut out = Vec::new();
    flow::check_protocol(path, &lex(&honest), &[], &mut out).expect("graph");
    assert!(
        out.is_empty(),
        "{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn bad_flow_values_fires_on_the_second_version_reply() {
    let src = fixture("bad_flow_values.rs");
    let path = "crates/protocols/src/bad_flow_values.rs";
    let mut out = Vec::new();
    let g = flow::check_protocol(path, &lex(&src), &[], &mut out).expect("graph");

    expect(
        &out,
        flow::RULE_FLOW_VALUES,
        path,
        line_of(&src, "// line: second-version"),
    );
    assert_eq!(g.derived.values, Some(2));
    assert_eq!(
        out.len(),
        1,
        "exactly the marked violation:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn bad_flow_blocking_fires_on_the_deferred_reply() {
    let src = fixture("bad_flow_blocking.rs");
    let path = "crates/protocols/src/bad_flow_blocking.rs";
    let mut out = Vec::new();
    let g = flow::check_protocol(path, &lex(&src), &[], &mut out).expect("graph");

    // The reply reached through the drain helper goes to a *stored*
    // client pid; the finding lands on that send, not the stash site.
    expect(
        &out,
        flow::RULE_FLOW_BLOCKING,
        path,
        line_of(&src, "// line: deferred-reply"),
    );
    assert!(!g.derived.nonblocking);
    assert_eq!(g.derived.rounds, Some(1), "the stash itself is one round");
    assert_eq!(
        out.len(),
        1,
        "exactly the marked violation:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn bad_flow_taint_fires_on_the_source_with_its_call_chain() {
    let src = fixture("bad_flow_taint.rs");
    let path = "crates/protocols/src/bad_flow_taint.rs";
    let mut out = Vec::new();
    flow::check_protocol(path, &lex(&src), &[], &mut out).expect("graph");

    let line = line_of(&src, "// line: taint-source");
    expect(&out, flow::RULE_FLOW_TAINT, path, line);
    let f = out
        .iter()
        .find(|f| f.rule == flow::RULE_FLOW_TAINT)
        .unwrap();
    assert!(
        f.message.contains("backoff_jitter") && f.message.contains("seed_from_os"),
        "the finding names the call chain: {}",
        f.message
    );
    assert_eq!(
        out.len(),
        1,
        "exactly the marked violation:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn bad_flow_dead_arm_fires_on_the_unreachable_arm() {
    let src = fixture("bad_flow_dead_arm.rs");
    let path = "crates/protocols/src/bad_flow_dead_arm.rs";
    let mut out = Vec::new();
    flow::check_protocol(path, &lex(&src), &[], &mut out).expect("graph");

    expect(
        &out,
        flow::RULE_FLOW_DEAD_ARM,
        path,
        line_of(&src, "// line: dead-arm"),
    );
    assert_eq!(
        out.len(),
        1,
        "exactly the marked violation:\n{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}

#[test]
fn fixing_the_fixture_tuple_silences_the_property_rules() {
    // The same clone with the true COPS-SNOW tuple is clean: the rules
    // flag the declaration, not the clone itself.
    let src = fixture("bad_cops_snow.rs")
        .replace("rounds: 2", "rounds: 1")
        .replace("values: 2", "values: 1")
        .replace(
            "value_replies: [RotResp, PutAck]",
            "value_replies: [RotResp]",
        )
        .replace(
            "requests: [RotReq, PutReq]",
            "requests: [RotReq, PutReq, OldReaderQuery]",
        )
        .replace("paper_row: \"COPS-SNOW\"", "paper_row: none");
    let mut out = Vec::new();
    properties::check_protocol(
        "crates/protocols/src/bad_cops_snow.rs",
        &lex(&src),
        &[],
        &mut out,
    );
    assert!(
        out.is_empty(),
        "{}",
        out.iter().map(|f| f.render()).collect::<String>()
    );
}
