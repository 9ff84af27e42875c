//! The recovery zero-interference gate: on **clean** input, a
//! recovery-enabled [`Session`] must stay within 5% of a recovery-off one.
//!
//! The whole recovery design banks on this being cheap: enabling recovery
//! adds one checkpoint (a pointer save) before each feed and a rollback
//! only on failure, so a healthy parse pays for bookkeeping, never for
//! repair search. This bench measures both arms in one process on the
//! lexeme-diverse PL/0 corpus, gates `overhead_percent ≤ 5`, and writes
//! the evidence to `BENCH_recovery.json`.
//!
//! A second (ungated) pair of samples measures the damaged-input side —
//! mutated programs parsed to a recovered forest — so the trajectory also
//! tracks what repair itself costs over time.
//!
//! Run: `cargo bench -p pwd-bench --bench recovery_bench` (add `-- --smoke`
//! for the quick CI arm, which widens the gate for noisy shared runners).

use derp::api::{Parser, PwdBackend, Session};
use derp::RecoveryBudget;
use pwd_bench::{best_of, pl0_corpus, smoke_flag, Trajectory, ID_REUSE};
use pwd_grammar::grammars;
use pwd_lex::Lexeme;

/// Clean-input overhead ceiling, percent.
const GATE_PERCENT: f64 = 5.0;

/// One full session over `lexemes` — open, optional recovery, feed,
/// finish — on a reused backend.
fn session_run(backend: &mut PwdBackend, lexemes: &[Lexeme], recovery: bool) {
    let mut session = Session::open(backend as &mut dyn Parser).expect("fresh session");
    if recovery {
        session.enable_recovery(RecoveryBudget::default());
    }
    session.feed_lexemes(lexemes).expect("known kinds");
    let (accepted, diags) = session.finish_with_diagnostics().expect("finish");
    assert!(accepted, "corpus must parse (possibly after repair)");
    std::hint::black_box(diags);
}

fn main() {
    // The per-token path — where recovery's checkpoint would hurt —
    // dominates on the lexeme-diverse corpus.
    let clean = pl0_corpus(&[1000], 0xEC0_7E5, ID_REUSE).remove(0).lexemes;
    // A lightly damaged copy: every ~120th token is dropped, so the damaged
    // arm repairs a handful of real errors per run (the editor workload,
    // not a torture test).
    let broken: Vec<Lexeme> =
        clean.iter().enumerate().filter(|(i, _)| i % 120 != 60).map(|(_, l)| l.clone()).collect();
    let tokens = clean.len();
    let cfg = grammars::pl0::cfg();
    let (mut off_backend, mut on_backend) =
        (PwdBackend::improved(&cfg), PwdBackend::improved(&cfg));

    let smoke = smoke_flag();
    let rounds = if smoke { 20 } else { 50 };
    let [off, on] = best_of(
        rounds,
        [&mut || session_run(&mut off_backend, &clean, false), &mut || {
            session_run(&mut on_backend, &clean, true)
        }],
    );
    let overhead = (on / off - 1.0) * 100.0;
    // Min-of-rounds still jitters a few percent on shared CI runners;
    // `--smoke` widens the ceiling so the gate catches a structural
    // regression (repair search running on healthy feeds, which costs
    // multiples), not timer luck.
    let gate = if smoke { GATE_PERCENT + 5.0 } else { GATE_PERCENT };

    let mut traj = Trajectory::new("recovery");
    traj.record(&format!("tokens={tokens}/clean_recovery_off_ns"), off, "ns");
    traj.record(&format!("tokens={tokens}/clean_recovery_on_ns"), on, "ns");
    traj.gate(
        &format!("tokens={tokens}/clean_overhead_percent"),
        overhead,
        "percent",
        overhead <= gate,
    );

    // Damaged-input trajectory (ungated): what repair itself costs.
    let [repaired] =
        best_of(rounds.div_ceil(2), [&mut || session_run(&mut on_backend, &broken, true)]);
    traj.record(&format!("tokens={}/damaged_recovery_on_ns", broken.len()), repaired, "ns");
    traj.record(
        &format!("tokens={}/damaged_repair_slowdown", broken.len()),
        repaired / on,
        "ratio",
    );
    traj.write(env!("CARGO_MANIFEST_DIR"));

    assert!(
        overhead <= gate,
        "recovery must be free on clean input: ≤{gate}% overhead required \
         ({tokens} tokens: {off} ns off, {on} ns on = {overhead:.2}% overhead)"
    );
}
