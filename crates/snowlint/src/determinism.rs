//! The determinism rule family.
//!
//! The theorem harness asserts parallel == serial *dynamically*; these
//! rules keep nondeterminism out *statically*:
//!
//! - `hash-collections` — no `HashMap`/`HashSet` in the deterministic
//!   crates (`model`, `core`, `sim`, `workloads`): their iteration order is seeded
//!   per-process, so any iteration (and therefore any construction —
//!   the iteration is one refactor away) can leak schedule-dependent
//!   order into checker verdicts and traces. Use `BTreeMap`/`BTreeSet`.
//! - `wall-clock` — no `SystemTime`, `Instant::now` or `thread_rng`
//!   anywhere in first-party code: virtual time and seeded RNGs only.
//!   Exception: `crates/net`, the real-socket runtime, whose whole job
//!   is to drive the same actors against ambient time — its recordings
//!   are re-verified in virtual time by the replay oracle.
//! - `ad-hoc-threads` — no `thread::spawn` or `rayon` outside
//!   `crates/par`, whose `parallel_map` is the one audited fan-out
//!   primitive (bit-identical to the serial loop by construction).
//!   Same `crates/net` exception: its per-connection reader threads
//!   feed a recorded, replayable delivery order.
//! - `net-boundary` — no socket types (`TcpStream`, `TcpListener`,
//!   `UdpSocket`) outside `crates/net`: the simulator and everything
//!   above it must stay runnable with no network at all, and a socket
//!   in a deterministic crate is wall-clock nondeterminism by another
//!   name.
//! - `sim-in-net-hot-path` — inside `crates/net`, the simulator's
//!   oracle types (`World`, `SimConfig`, `LatencyModel`, `Trace`) may
//!   appear only in `replay.rs`. The event loop must drive actors
//!   through the public `Ctx::standalone` step API alone; if the hot
//!   path could consult the sim, a replay match would prove nothing.
//! - `unsafe-block` — no `unsafe` anywhere in first-party code: every
//!   crate carries `#![deny(unsafe_code)]`, and this rule keeps a
//!   crate-level `allow` from quietly reopening the door.

use crate::lexer::{Lexed, TokKind};
use crate::report::Finding;

/// Rule name: hash collections in deterministic crates.
pub const RULE_HASH: &str = "hash-collections";
/// Rule name: wall-clock time and ambient RNG.
pub const RULE_CLOCK: &str = "wall-clock";
/// Rule name: thread spawning outside `cbf-par`.
pub const RULE_THREAD: &str = "ad-hoc-threads";
/// Rule name: `unsafe` anywhere in first-party code.
pub const RULE_UNSAFE: &str = "unsafe-block";
/// Rule name: scheduler-core files missing their `#![deny(unsafe_code)]`.
pub const RULE_GUARD: &str = "missing-unsafe-guard";
/// Rule name: socket types outside the net runtime crate.
pub const RULE_NET: &str = "net-boundary";
/// Rule name: simulator oracle types in cbf-net's hot path.
pub const RULE_SIM_IN_NET: &str = "sim-in-net-hot-path";

/// The crates whose behaviour must be a pure function of the seed.
/// `workloads` joined the list with the million-client swarm: the op
/// stream it generates is folded into pinned trace digests, so a
/// schedule-dependent key order there corrupts every load exhibit.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/model/",
    "crates/core/",
    "crates/sim/",
    "crates/workloads/",
];

/// The one crate allowed to create threads.
const THREAD_ALLOWED_CRATE: &str = "crates/par/";

/// The real-socket runtime: the one crate allowed to open sockets,
/// read the wall clock and spawn reader threads. Its nondeterminism is
/// the experiment — every run records its delivery order and is
/// re-verified bit-for-bit by the deterministic replay oracle, so the
/// carve-out is earned dynamically rather than assumed.
const NET_RUNTIME_CRATE: &str = "crates/net/";

/// The one cbf-net module allowed to name the simulator's oracle
/// types: it rebuilds a `World` from a recording to diff against the
/// real run. Everywhere else in the crate the actors are driven
/// through `Ctx::standalone` only.
const NET_REPLAY_FILE: &str = "crates/net/src/replay.rs";

/// Socket types that must not appear outside [`NET_RUNTIME_CRATE`].
const SOCKET_TYPES: &[&str] = &["TcpStream", "TcpListener", "UdpSocket"];

/// Simulator oracle types confined, within cbf-net, to
/// [`NET_REPLAY_FILE`].
const SIM_ORACLE_TYPES: &[&str] = &["World", "SimConfig", "LatencyModel", "Trace"];

/// Modules that promise safety in their docs and must carry their own
/// `#![deny(unsafe_code)]` even though the crate root is already the
/// lexer's concern. Two families: the scheduler core (the slab flight
/// table traded a std collection for index arithmetic, exactly the
/// terrain where `unsafe` creeps in) and the streaming pipeline (the
/// sink, the sharded checker and the pipeline harness move trace
/// segments and transactions across a thread boundary, where `unsafe`
/// shortcuts would be just as tempting), plus
/// the bounded-memory tier (the checker's frontier GC compacts arenas
/// and rebases value ledgers with raw index arithmetic, and the soak
/// harness is the exhibit that certifies the whole stack's plateau),
/// plus the workload generators (the alias table, the swarm's time
/// wheel and the batch emitter are index-arithmetic hot paths feeding
/// the million-client tiers — the same temptation profile as the slab),
/// plus the net runtime's codec and event loop (length-prefixed frame
/// parsing and inbox/timer bookkeeping are exactly where a "fast"
/// unchecked byte-slice read would creep in).
const GUARDED_FILES: &[&str] = &[
    "crates/sim/src/slab.rs",
    "crates/sim/src/sink.rs",
    "crates/model/src/streaming.rs",
    "crates/model/src/incremental.rs",
    "crates/bench/src/pipeline.rs",
    "crates/bench/src/soak.rs",
    "crates/workloads/src/alias.rs",
    "crates/workloads/src/zipf.rs",
    "crates/workloads/src/gen.rs",
    "crates/workloads/src/swarm.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/node.rs",
];

/// Run every determinism rule over one lexed file. `path` is
/// workspace-relative with `/` separators.
pub fn check(path: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    let in_deterministic_crate = DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p));
    let in_net_runtime = path.starts_with(NET_RUNTIME_CRATE);
    let toks = &lx.tokens;

    if GUARDED_FILES.contains(&path) {
        let has_guard = toks.iter().enumerate().any(|(i, t)| {
            t.is_ident("deny")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("unsafe_code"))
        });
        if !has_guard {
            out.push(
                Finding::error(
                    RULE_GUARD,
                    path,
                    1,
                    1,
                    "guarded module without `#![deny(unsafe_code)]`: the \
                     scheduler core and the streaming pipeline must stay \
                     provably safe — see GUARDED_FILES in snowlint"
                        .to_string(),
                )
                .with_help("restore the inner attribute at the top of the module".to_string()),
            );
        }
    }

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |j: usize, s: &str| toks.get(j).is_some_and(|t| t.is_punct(s));
        let ident_at = |j: usize, s: &str| toks.get(j).is_some_and(|t| t.is_ident(s));

        if in_deterministic_crate && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(
                Finding::error(
                    RULE_HASH,
                    path,
                    t.line,
                    t.col,
                    format!(
                        "`{}` in a deterministic crate: iteration order is \
                         seeded per-process and can leak into results",
                        t.text
                    ),
                )
                .with_help(format!(
                    "use `BTree{}`, or annotate the line with \
                     `// snowlint: allow({RULE_HASH}): <why this cannot leak>`",
                    &t.text[4..]
                )),
            );
        }

        if !in_net_runtime
            && (t.text == "SystemTime"
                || t.text == "thread_rng"
                || (t.text == "Instant" && next_is(i + 1, "::") && ident_at(i + 2, "now")))
        {
            out.push(
                Finding::error(
                    RULE_CLOCK,
                    path,
                    t.line,
                    t.col,
                    format!(
                        "`{}` reads ambient state: deterministic paths must use \
                         virtual time (`cbf_sim::Time`) and seeded RNGs",
                        if t.text == "Instant" {
                            "Instant::now"
                        } else {
                            &t.text
                        }
                    ),
                )
                .with_help(
                    "thread the simulator clock or a seeded generator through \
                     instead; real-time measurement belongs in allowlisted \
                     bench code only"
                        .to_string(),
                ),
            );
        }

        if !path.starts_with(THREAD_ALLOWED_CRATE)
            && !in_net_runtime
            && ((t.text == "thread" && next_is(i + 1, "::") && ident_at(i + 2, "spawn"))
                || t.text == "rayon")
        {
            out.push(
                Finding::error(
                    RULE_THREAD,
                    path,
                    t.line,
                    t.col,
                    "ad-hoc parallelism outside `crates/par`: unaudited fan-out \
                     cannot guarantee bit-identical serial/parallel results"
                        .to_string(),
                )
                .with_help(
                    "use `cbf_par::parallel_map`, which joins results in input \
                     order and honours SNOWBOUND_THREADS=1"
                        .to_string(),
                ),
            );
        }

        if !in_net_runtime && SOCKET_TYPES.iter().any(|s| t.text == *s) {
            out.push(
                Finding::error(
                    RULE_NET,
                    path,
                    t.line,
                    t.col,
                    format!(
                        "`{}` outside crates/net: sockets are wall-clock \
                         nondeterminism by another name, and everything above \
                         the runtime must run with no network at all",
                        t.text
                    ),
                )
                .with_help(
                    "real I/O belongs in the cbf-net runtime; drive the actors \
                     through `Ctx::standalone` there and keep this crate on \
                     virtual time"
                        .to_string(),
                ),
            );
        }

        if in_net_runtime
            && path != NET_REPLAY_FILE
            && SIM_ORACLE_TYPES.iter().any(|s| t.text == *s)
        {
            out.push(
                Finding::error(
                    RULE_SIM_IN_NET,
                    path,
                    t.line,
                    t.col,
                    format!(
                        "`{}` in cbf-net's hot path: the runtime may touch the \
                         simulator only through the replay oracle \
                         (crates/net/src/replay.rs)",
                        t.text
                    ),
                )
                .with_help(
                    "if the event loop could consult the sim, a replay match \
                     would prove nothing — move oracle work into replay.rs or \
                     use the public `Ctx::standalone` step API"
                        .to_string(),
                ),
            );
        }

        if t.text == "unsafe" {
            out.push(
                Finding::error(
                    RULE_UNSAFE,
                    path,
                    t.line,
                    t.col,
                    "new `unsafe` in first-party code".to_string(),
                )
                .with_help(
                    "every crate carries #![deny(unsafe_code)]; express the \
                     operation in safe Rust (checked indexing, `Option` \
                     slots, std collections)"
                        .to_string(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check(path, &lex(src), &mut out);
        out
    }

    #[test]
    fn hashmap_flagged_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(run("crates/model/src/x.rs", src).len(), 1);
        assert_eq!(run("crates/sim/src/world.rs", src).len(), 1);
        assert!(run("crates/protocols/src/cops.rs", src).is_empty());
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "// HashMap HashSet unsafe thread_rng\nlet s = \"HashMap unsafe\";";
        assert!(run("crates/model/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_variants() {
        assert_eq!(
            run("crates/core/src/x.rs", "let t = Instant::now();").len(),
            1
        );
        assert_eq!(run("src/driver.rs", "SystemTime::now()").len(), 1);
        // lib.rs rather than gen.rs: the generator hot paths are
        // guarded files now, which would add a guard finding here.
        assert_eq!(
            run("crates/workloads/src/lib.rs", "rand::thread_rng()").len(),
            1
        );
        // A stored Instant value (no ::now) is not flagged.
        assert!(run("crates/core/src/x.rs", "fn f(t: Instant) {}").is_empty());
        // The net runtime runs on the wall clock by design.
        assert!(run("crates/net/src/launch.rs", "let t = Instant::now();").is_empty());
        assert!(run("crates/net/src/lib.rs", "SystemTime::now()").is_empty());
    }

    #[test]
    fn threads_allowed_only_in_par() {
        let src = "std::thread::spawn(|| {});";
        assert_eq!(run("crates/sim/src/world.rs", src).len(), 1);
        assert!(run("crates/par/src/lib.rs", src).is_empty());
        // ... and in the net runtime, whose reader threads feed a
        // recorded, replay-verified delivery order.
        assert!(run("crates/net/src/launch.rs", src).is_empty());
        assert_eq!(
            run("crates/bench/src/lib.rs", "use rayon::prelude::*;").len(),
            1
        );
        // scoped spawns inside par's primitive shape are fine elsewhere
        // only when not thread::spawn.
        assert!(run("crates/bench/src/lib.rs", "scope.spawn(|| {});").is_empty());
    }

    #[test]
    fn sockets_allowed_only_in_net() {
        let src = "let s = TcpStream::connect(addr);";
        assert_eq!(run("crates/sim/src/world.rs", src)[0].rule, RULE_NET);
        assert_eq!(run("crates/bench/src/lib.rs", src).len(), 1);
        assert!(run("crates/net/src/launch.rs", src).is_empty());
        for ty in ["TcpListener", "UdpSocket"] {
            let src = format!("use std::net::{ty};");
            assert_eq!(run("crates/model/src/x.rs", &src).len(), 1, "{ty}");
        }
        // Mentions in comments and strings stay silent.
        assert!(run("crates/sim/src/world.rs", "// a TcpStream here").is_empty());
    }

    #[test]
    fn sim_oracle_types_confined_to_the_replay_module() {
        for ty in SIM_ORACLE_TYPES {
            let src = format!("let w: {ty} = todo!();");
            let out = run("crates/net/src/launch.rs", &src);
            assert_eq!(out.len(), 1, "{ty} in the hot path");
            assert_eq!(out[0].rule, RULE_SIM_IN_NET);
            // The replay oracle is the sanctioned user...
            assert!(run(NET_REPLAY_FILE, &src).is_empty(), "{ty} in replay");
            // ...and outside cbf-net the names are ordinary.
            assert!(run("crates/bench/src/lib.rs", &src).is_empty());
        }
    }

    #[test]
    fn guarded_modules_must_keep_their_guard() {
        let guarded = "#![deny(unsafe_code)]\nstruct FlightSlab;";
        let bare = "struct FlightSlab;";
        for path in GUARDED_FILES {
            assert!(run(path, guarded).is_empty(), "{path} with guard");
            let out = run(path, bare);
            assert_eq!(out.len(), 1, "{path} without guard");
            assert_eq!(out[0].rule, RULE_GUARD);
            assert_eq!((out[0].line, out[0].col), (1, 1));
        }
        // Other files carry the guard at crate level; no per-file demand.
        assert!(run("crates/sim/src/world.rs", bare).is_empty());
    }

    #[test]
    fn unsafe_is_an_error_everywhere() {
        let src = "unsafe { core::hint::unreachable_unchecked() }";
        assert_eq!(run("crates/model/src/x.rs", src).len(), 1);
        // No file is exempt, the formerly exempt one included.
        let out = run("crates/sim/src/smallvec.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE_UNSAFE);
    }
}
