//! Bench for the incremental-reparse tentpole: per-keystroke edit latency
//! via [`Session::splice_tokens`] vs truncate-and-refeed, on a PL/0
//! (superset) buffer of ~10k tokens, with single-token edits at the head,
//! middle, and tail of the buffer.
//!
//! The splice arm holds one long-lived incremental session: each edit rolls
//! back to the nearest checkpoint-ladder rung below the damage, refeeds the
//! bounded catch-up window, and (recognize mode) convergence-jumps over the
//! suffix the moment the post-edit derivative state matches the memoized
//! pre-edit state. The baseline arm is the best a non-incremental session
//! can do — and a *favorable* version of it: a user checkpoint sits exactly
//! at the edit position (zero rollback distance), so the baseline pays only
//! the suffix refeed that truncate-and-refeed fundamentally cannot avoid.
//! Both arms alternate between a replacement and the original text, so
//! every round is a real change; the warm-up rounds densify the ladder
//! around the edit point, exactly as a real editing session would.
//!
//! The gate: a mid-buffer single-token edit must be **≥10× faster** spliced
//! than truncated-and-refed, on both PWD recognize engines — the lazy
//! automaton (interned state ids) and the interpreted engine (graph
//! digests). Under `--smoke` the corpus shrinks and the threshold relaxes
//! to a sanity check.
//!
//! Writes `BENCH_incremental.json` in the shared [`pwd_bench::Trajectory`]
//! schema.
//!
//! Run: `cargo bench -p pwd-bench --bench incremental_bench`

use derp::api::{Parser, PwdBackend, Session};
use pwd_bench::{best_of, pl0_corpus, smoke_flag, Trajectory};
use pwd_core::{AutomatonMode, MemoKeying, ParseMode, ParserConfig};
use pwd_grammar::grammars;
use pwd_lex::Lexeme;

/// Moderate identifier reuse: realistic source, and the class-keyed memo
/// still sees fresh lexemes at every edit.
const ID_REUSE: f64 = 0.3;

fn backend(grammar: &pwd_grammar::Cfg, automaton: AutomatonMode) -> PwdBackend {
    let config = ParserConfig {
        mode: ParseMode::Recognize,
        keying: MemoKeying::ByClass,
        automaton,
        ..ParserConfig::improved()
    };
    PwdBackend::with_config(grammar, config, "pwd-incremental")
}

/// A replacement text for the token at `at`: another text of the same kind
/// from elsewhere in the buffer when one exists (a realistic "retype the
/// identifier" keystroke), else the original text.
fn replacement_for(lexemes: &[Lexeme], at: usize) -> String {
    let target = &lexemes[at];
    lexemes
        .iter()
        .find(|l| l.kind == target.kind && l.text != target.text)
        .map_or_else(|| target.text.clone(), |l| l.text.clone())
}

fn main() {
    let smoke = smoke_flag();
    let target = if smoke { 2_000 } else { 10_000 };
    let rounds = if smoke { 6 } else { 16 };
    let grammar = grammars::pl0::cfg();
    let lexemes = pl0_corpus(&[target], 0x1C4E, ID_REUSE).remove(0).lexemes;
    let n = lexemes.len();
    let positions = [("head", 50usize.min(n / 4)), ("middle", n / 2), ("tail", n - 50)];
    let gate = if smoke { 2.0 } else { 10.0 };

    let mut traj = Trajectory::new("incremental");
    traj.record("tokens", n as f64, "tokens");
    for (arm, automaton) in
        [("automaton", AutomatonMode::Lazy), ("interpreted", AutomatonMode::Off)]
    {
        for (label, at) in positions {
            let kind = lexemes[at].kind.clone();
            let texts = [replacement_for(&lexemes, at), lexemes[at].text.clone()];

            // Splice: one long-lived incremental session over the buffer.
            let mut splice_backend = backend(&grammar, automaton);
            let mut splicer =
                Session::open(&mut splice_backend as &mut dyn Parser).expect("session opens");
            splicer.enable_incremental().expect("fresh session");
            splicer.feed_lexemes(&lexemes).expect("corpus feeds");

            // Baseline: rollback to a checkpoint exactly at the edit
            // position, then refeed the edited token and the whole suffix.
            let mut refeed_backend = backend(&grammar, automaton);
            let mut refeeder =
                Session::open(&mut refeed_backend as &mut dyn Parser).expect("session opens");
            refeeder.feed_lexemes(&lexemes[..at]).expect("prefix feeds");
            let cp = refeeder.checkpoint().expect("checkpoint");
            refeeder.feed_lexemes(&lexemes[at..]).expect("suffix feeds");
            let mut edited = lexemes[at..].to_vec();
            edited[0].text = texts[0].clone();
            let suffixes = [edited, lexemes[at..].to_vec()];

            let (mut splices, mut refeeds) = (0, 0);
            let mut last = None;
            let [splice_ns, baseline_ns] = best_of(
                rounds,
                [
                    &mut || {
                        let text = texts[splices % 2].as_str();
                        splices += 1;
                        let out = splicer.splice_tokens(at, 1, &[(kind.as_str(), text)]);
                        last = Some(out.expect("splice applies"));
                    },
                    &mut || {
                        refeeder.rollback(&cp).expect("checkpoint restores");
                        refeeder.feed_lexemes(&suffixes[refeeds % 2]).expect("suffix refeeds");
                        refeeds += 1;
                    },
                ],
            );
            let out = last.expect("at least one splice");
            let speedup = baseline_ns / splice_ns;
            traj.record(&format!("{arm}/at={label}/splice_ns"), splice_ns, "ns");
            traj.record(&format!("{arm}/at={label}/truncate_refeed_ns"), baseline_ns, "ns");
            traj.record(&format!("{arm}/at={label}/tokens_refed"), out.refed as f64, "tokens");
            traj.record(&format!("{arm}/at={label}/tokens_reused"), out.reused as f64, "tokens");
            if label != "middle" {
                traj.record(&format!("{arm}/at={label}/speedup"), speedup, "ratio");
                continue;
            }
            // The tentpole gate: a mid-buffer keystroke must beat
            // truncate-and-refeed by an order of magnitude, on both
            // recognize engines.
            traj.gate(&format!("{arm}/at={label}/speedup"), speedup, "ratio", speedup >= gate);
            traj.write(env!("CARGO_MANIFEST_DIR"));
            assert!(
                speedup >= gate,
                "{arm}: mid-buffer splice must be ≥{gate}× vs truncate-and-refeed \
                 ({splice_ns} vs {baseline_ns} ns over {n} tokens)"
            );
        }
    }
    traj.write(env!("CARGO_MANIFEST_DIR"));
}
