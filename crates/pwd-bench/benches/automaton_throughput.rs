//! Bench for the lazy-automaton tentpole: steady-state recognize throughput
//! on the lexeme-diverse PL/0 corpus, interpreted class-keyed path
//! (`AutomatonMode::Off`) vs the dense transition-table walk
//! (`AutomatonMode::Lazy`).
//!
//! Both arms run warm — the engine is compiled once and reset between
//! rounds, so the interpreted arm has a fully populated class-keyed memo
//! and the table arm has a fully built automaton. What remains is exactly
//! the per-token cost the tentpole targets: memo probe + hash + epoch
//! check per token (interpreted) vs one dense row index (table walk).
//!
//! Writes `BENCH_automaton.json` in the shared [`pwd_bench::Trajectory`]
//! schema.
//!
//! Run: `cargo bench -p pwd-bench --bench automaton_throughput`
//! (CI: `-- --smoke` relaxes the gate for noisy shared runners.)

use pwd_bench::{best_of, pl0_corpus, smoke_flag, Trajectory, WarmEngine, ID_REUSE};
use pwd_core::{AutomatonMode, MemoKeying, ParseMode, ParserConfig};
use pwd_grammar::grammars;

fn config(automaton: AutomatonMode) -> ParserConfig {
    ParserConfig {
        mode: ParseMode::Recognize,
        keying: MemoKeying::ByClass,
        automaton,
        ..ParserConfig::improved()
    }
}

fn main() {
    let smoke = smoke_flag();
    let rounds = if smoke { 20 } else { 40 };
    let grammar = grammars::pl0::cfg();
    let inputs = pl0_corpus(&[300, 1000], 0xD1CE, ID_REUSE);
    let mut traj = Trajectory::new("automaton");
    for (i, file) in inputs.iter().enumerate() {
        let tokens = file.tokens;
        let mut interp = WarmEngine::new(&grammar, config(AutomatonMode::Off), &file.lexemes);
        let mut table = WarmEngine::new(&grammar, config(AutomatonMode::Lazy), &file.lexemes);
        let mut rows_built = 0;
        let [interp_ns, table_ns] = best_of(
            rounds,
            [&mut || interp.run(), &mut || {
                table.run();
                rows_built += table.pwd.lang.metrics().auto_rows_built;
            }],
        );
        let m = table.pwd.lang.metrics();
        let (table_hits, fallbacks) = (m.auto_table_hits, m.auto_fallbacks);
        let speedup = interp_ns / table_ns;
        let fallback_rate = fallbacks as f64 / (table_hits + fallbacks).max(1) as f64;
        traj.record(&format!("tokens={tokens}/interp_ns"), interp_ns, "ns");
        traj.record(&format!("tokens={tokens}/table_ns"), table_ns, "ns");
        traj.record(
            &format!("tokens={tokens}/table_tokens_per_sec"),
            (tokens as f64 / (table_ns / 1e9)).round(),
            "tokens/s",
        );
        traj.record(&format!("tokens={tokens}/rows_built"), rows_built as f64, "count");
        traj.record(&format!("tokens={tokens}/fallback_rate"), fallback_rate, "ratio");

        // Warm steady state must be pure table walk: every token of the
        // last run is a dense-row hit, no interpreted fallbacks.
        assert_eq!(fallbacks, 0, "warm runs must not leave the table ({tokens} tokens)");
        assert!(rows_built > 0, "the lazy automaton must actually build rows");

        if i + 1 < inputs.len() {
            traj.record(&format!("tokens={tokens}/speedup"), speedup, "ratio");
            continue;
        }
        // The tentpole gate, on the largest corpus (short inputs dilute
        // the win with fixed per-parse costs): the table walk must be ≥5×
        // the interpreted class-keyed path in recognize tokens/sec. Under
        // `--smoke` the threshold relaxes to a sanity check.
        let gate = if smoke { 1.5 } else { 5.0 };
        traj.gate(&format!("tokens={tokens}/speedup"), speedup, "ratio", speedup >= gate);
        traj.write(env!("CARGO_MANIFEST_DIR"));
        assert!(
            speedup >= gate,
            "table walk must be ≥{gate}× the interpreted recognize path on the \
             lexeme-diverse corpus ({tokens} tokens: {interp_ns} vs {table_ns} ns)"
        );
    }
}
