//! The observability zero-overhead gate: recognize throughput on the
//! lexeme-diverse PL/0 corpus with instrumentation **compiled in but
//! disabled** must stay within 2% of a build with the hooks **compiled
//! out entirely** (`--no-default-features`).
//!
//! Two-phase protocol, driven by the `obs` cargo feature:
//!
//! 1. `cargo bench -p pwd-bench --no-default-features --bench obs_overhead`
//!    — the hook-free build. Measures the corpus and writes the baseline
//!    sample `tokens=N/no_hooks_ns` to `BENCH_obs_overhead.json`.
//! 2. `cargo bench -p pwd-bench --bench obs_overhead` — the default
//!    (hooks compiled, sink not installed) build. Re-measures, reads the
//!    baseline line back from the JSON file, and gates
//!    `overhead_percent ≤ 2` (relaxed under `--smoke` for noisy shared
//!    runners). The baseline line is carried forward so the rewritten
//!    file holds both arms of the comparison.
//!
//! If no baseline file exists (a bare `cargo bench` without the prior
//! `--no-default-features` run), the gated phase records its measurement
//! and skips the comparison rather than failing on missing evidence.
//!
//! Run (both phases, as CI does):
//! `cargo bench -p pwd-bench --no-default-features --bench obs_overhead &&
//!  cargo bench -p pwd-bench --bench obs_overhead`

use pwd_bench::{best_of, pl0_corpus, smoke_flag, Trajectory, WarmEngine, ID_REUSE};
use pwd_core::{MemoKeying, ParseMode, ParserConfig};
use pwd_grammar::grammars;

/// Instrumentation-disabled overhead ceiling, percent.
const GATE_PERCENT: f64 = 2.0;

fn main() {
    // One corpus size is enough: the gate is a ratio on one workload, not a
    // scaling curve. The lexeme-diverse corpus is chosen because its
    // per-token hot loop is where a stray clock read or branch in the hook
    // sites would show up.
    let file = pl0_corpus(&[1000], 0xD1CE, ID_REUSE).remove(0);
    let tokens = file.tokens;
    let smoke = smoke_flag();
    let config = ParserConfig {
        mode: ParseMode::Recognize,
        keying: MemoKeying::ByClass,
        ..ParserConfig::improved()
    };
    let mut engine = WarmEngine::new(&grammars::pl0::cfg(), config, &file.lexemes);
    let [best] = best_of(if smoke { 30 } else { 60 }, [&mut || engine.run()]);

    // The corpus is deterministic, so both phases see the same token count.
    let baseline_name = format!("tokens={tokens}/no_hooks_ns");
    let mut traj = Trajectory::new("obs_overhead");
    if !cfg!(feature = "obs") {
        // Baseline phase: the hook-free build. Write the sample the gated
        // phase compares against.
        traj.record(&baseline_name, best, "ns");
        traj.record(
            &format!("tokens={tokens}/no_hooks_tokens_per_sec"),
            (tokens as f64 / (best / 1e9)).round(),
            "tokens/s",
        );
        traj.write(env!("CARGO_MANIFEST_DIR"));
        return;
    }

    // Gated phase: hooks are compiled in but no sink is enabled — the
    // per-feed check is one branch on a `None` option, never a clock read.
    // Compare against the hook-free baseline from phase 1.
    traj.record(&format!("tokens={tokens}/hooks_disabled_ns"), best, "ns");
    traj.record(
        &format!("tokens={tokens}/hooks_disabled_tokens_per_sec"),
        (tokens as f64 / (best / 1e9)).round(),
        "tokens/s",
    );
    let baseline = Trajectory::read(env!("CARGO_MANIFEST_DIR"), "obs_overhead", &baseline_name);
    let Some((baseline_line, baseline_ns)) = baseline.filter(|&(_, ns)| ns > 0.0) else {
        println!(
            "note: no `{baseline_name}` baseline in BENCH_obs_overhead.json — run \
             `cargo bench -p pwd-bench --no-default-features --bench obs_overhead` \
             first to arm the gate"
        );
        traj.write(env!("CARGO_MANIFEST_DIR"));
        return;
    };
    let overhead = (best / baseline_ns - 1.0) * 100.0;
    // Min-of-rounds still jitters a few percent on shared CI runners;
    // `--smoke` widens the ceiling so the gate tests "no accidental clock
    // read in the hot loop" (which would cost tens of percent), not timer
    // luck.
    let gate = if smoke { GATE_PERCENT + 6.0 } else { GATE_PERCENT };
    traj.gate(&format!("tokens={tokens}/overhead_percent"), overhead, "percent", overhead <= gate);
    traj.carry_line(baseline_line);
    traj.write(env!("CARGO_MANIFEST_DIR"));
    assert!(
        overhead <= gate,
        "disabled instrumentation must cost ≤{gate}% vs the hook-free build \
         ({tokens} tokens: {baseline_ns} ns without hooks, {best} ns disabled \
         = {overhead:.2}% overhead)"
    );
}
