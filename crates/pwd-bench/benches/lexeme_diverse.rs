//! Bench for the memo-keying tentpole: throughput on lexeme-diverse input
//! (a PL/0 corpus whose identifiers are mostly unique) under value-keyed
//! vs class-keyed derive memoization, in both recognize and parse mode.
//!
//! Value keying is the paper's scheme: on this workload nearly every token
//! is a fresh `(kind, lexeme)` memo key, so the memo all-misses and the
//! engine re-derives the grammar graph per token. Class keying shares
//! derivatives across lexemes of one terminal (fully in recognize mode,
//! via per-`(node, TermId)` templates in parse mode).
//!
//! Writes `BENCH_lexeme_diverse.json` in the shared
//! [`pwd_bench::Trajectory`] schema.
//!
//! Run: `cargo bench -p pwd-bench --bench lexeme_diverse`

use pwd_bench::{best_of, pl0_corpus, smoke_flag, Trajectory, WarmEngine, ID_REUSE};
use pwd_core::{MemoKeying, ParseMode, ParserConfig};
use pwd_grammar::grammars;

fn main() {
    let smoke = smoke_flag();
    let grammar = grammars::pl0::cfg();
    let inputs = pl0_corpus(&[300, 1000], 0xD1CE, ID_REUSE);
    let mut traj = Trajectory::new("lexeme_diverse");
    for (i, file) in inputs.iter().enumerate() {
        let tokens = file.tokens;
        // Value- vs class-keyed best ns, per mode.
        let [[value_rec, class_rec], [value_par, class_par]] =
            [ParseMode::Recognize, ParseMode::Parse].map(|mode| {
                let engine = |keying| {
                    let config = ParserConfig { mode, keying, ..ParserConfig::improved() };
                    WarmEngine::new(&grammar, config, &file.lexemes)
                };
                let mut value = engine(MemoKeying::ByValue);
                let mut class = engine(MemoKeying::ByClass);
                best_of(20, [&mut || value.run(), &mut || class.run()])
            });
        let rec_speedup = value_rec / class_rec;
        let par_speedup = value_par / class_par;
        traj.record(&format!("tokens={tokens}/value_recognize_ns"), value_rec, "ns");
        traj.record(&format!("tokens={tokens}/class_recognize_ns"), class_rec, "ns");
        traj.record(
            &format!("tokens={tokens}/recognize_tokens_per_sec"),
            (tokens as f64 / (class_rec / 1e9)).round(),
            "tokens/s",
        );
        traj.record(&format!("tokens={tokens}/value_parse_ns"), value_par, "ns");
        traj.record(&format!("tokens={tokens}/class_parse_ns"), class_par, "ns");

        if i + 1 < inputs.len() {
            traj.record(&format!("tokens={tokens}/recognize_speedup"), rec_speedup, "ratio");
            traj.record(&format!("tokens={tokens}/parse_speedup"), par_speedup, "ratio");
            continue;
        }
        // The tentpole gates, on the largest corpus (short inputs dilute
        // the win with fixed per-parse costs): class keying must at least
        // double recognize throughput on the mostly-unique-identifier
        // corpus and measurably improve parse mode (slack absorbs timer
        // noise). Under `--smoke` the thresholds relax to sanity checks.
        let (rec_gate, par_gate) = if smoke { (1.2, 0.9) } else { (2.0, 1.05) };
        traj.gate(
            &format!("tokens={tokens}/recognize_speedup"),
            rec_speedup,
            "ratio",
            rec_speedup >= rec_gate,
        );
        traj.gate(
            &format!("tokens={tokens}/parse_speedup"),
            par_speedup,
            "ratio",
            par_speedup > par_gate,
        );
        traj.write(env!("CARGO_MANIFEST_DIR"));
        assert!(
            rec_speedup >= rec_gate,
            "class keying must be ≥{rec_gate}× in recognize mode on lexeme-diverse input \
             ({tokens} tokens: {value_rec} vs {class_rec} ns)"
        );
        assert!(
            par_speedup > par_gate,
            "class templates must win in parse mode (>{par_gate}×) \
             ({tokens} tokens: {value_par} vs {class_par} ns)"
        );
    }
}
