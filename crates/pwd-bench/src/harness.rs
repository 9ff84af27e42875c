//! The one measurement harness the gated benches under `benches/` share:
//! the lexeme-diverse PL/0 corpus, the warm-engine arm, and a warm,
//! interleaved best-of-N runner.
//!
//! Every gate compares two or more *arms* (value- vs class-keyed memo,
//! interpreted vs table walk, splice vs refeed, …) as a ratio of their
//! best times. [`best_of`] runs the arms round-robin and rotates which arm
//! goes first each round, so scheduler noise and frequency-scaling drift
//! hit every arm alike instead of biasing whichever ran last; the minimum
//! of each arm's own samples is the least-disturbed run.

use crate::CorpusFile;
use pwd_core::{ParseMode, ParserConfig, Token};
use pwd_grammar::{gen, grammars, Cfg, Compiled};
use pwd_lex::Lexeme;
use std::time::Instant;

/// Identifier reuse of the lexeme-diverse corpus: ~90% of identifier
/// occurrences are first occurrences, so nearly every token is a fresh
/// `(kind, lexeme)` pair and per-token costs dominate the run.
pub const ID_REUSE: f64 = 0.1;

/// Generates one PL/0 (superset) file per target size — file `i` from seed
/// `seed + i` with identifier reuse `reuse` — and tokenizes it.
pub fn pl0_corpus(targets: &[usize], seed: u64, reuse: f64) -> Vec<CorpusFile> {
    let lexer = grammars::pl0::lexer();
    targets
        .iter()
        .enumerate()
        .map(|(i, &target)| {
            let src = gen::pl0_source(target, seed + i as u64, reuse);
            let lexemes = lexer.tokenize(&src).expect("generated PL/0 tokenizes");
            CorpusFile { target, tokens: lexemes.len(), src, lexemes }
        })
        .collect()
}

/// A warm engine arm: the grammar compiled once, the input converted to
/// tokens once, and an epoch reset before every run — so a run times the
/// per-token engine work alone, never compilation or interning.
#[derive(Debug)]
pub struct WarmEngine {
    /// The compiled engine (read its `lang.metrics()` after a run).
    pub pwd: Compiled,
    toks: Vec<Token>,
}

impl WarmEngine {
    /// Compiles `grammar` under `config` and converts `lexemes` once.
    pub fn new(grammar: &Cfg, config: ParserConfig, lexemes: &[Lexeme]) -> WarmEngine {
        let mut pwd = Compiled::compile(grammar, config);
        let toks = pwd.tokens_from_lexemes(lexemes).expect("corpus lexemes are grammar terminals");
        WarmEngine { pwd, toks }
    }

    /// One run over the input, recognizing or building the forest as the
    /// config's `mode` says; panics unless the input is accepted.
    pub fn run(&mut self) {
        let (lang, start) = (&mut self.pwd.lang, self.pwd.start);
        lang.reset();
        match lang.config().mode {
            ParseMode::Recognize => assert!(lang.recognize(start, &self.toks).expect("recognize")),
            ParseMode::Parse => {
                lang.parse_forest(start, &self.toks).expect("corpus parses");
            }
        }
    }
}

/// Runs every arm `rounds` times after `rounds / 4` (at least 2) warm-up
/// rounds, interleaved and rotating the starting arm each round, and
/// returns each arm's best (minimum) wall time in nanoseconds. Arms are
/// expected to assert their own results; warm-up rounds build the lazy
/// state (memos, automaton rows, pooled sessions) the timed rounds reuse.
pub fn best_of<const K: usize>(rounds: u32, mut arms: [&mut dyn FnMut(); K]) -> [f64; K] {
    interleave(rounds, |arm| {
        let t0 = Instant::now();
        arms[arm]();
        t0.elapsed().as_nanos() as f64
    })
}

/// The schedule behind [`best_of`], over a `sample(arm) -> ns` function.
fn interleave<const K: usize>(rounds: u32, mut sample: impl FnMut(usize) -> f64) -> [f64; K] {
    let warmup = rounds.div_ceil(4).max(2) as usize;
    let mut best = [f64::INFINITY; K];
    for round in 0..warmup + rounds as usize {
        for offset in 0..K {
            let arm = (round + offset) % K;
            let ns = sample(arm);
            if round >= warmup {
                best[arm] = best[arm].min(ns);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arm_warms_up_then_runs_exactly_n_timed_rounds_in_rotation() {
        let rounds = 8u32;
        let warmup = 2; // rounds / 4
        let mut order = Vec::new();
        // Warm-up samples are the fastest of all, so a result equal to the
        // minimum of the timed samples proves they were discarded. Timed
        // samples vary per arm and round; each arm's minimum is known.
        let best: [f64; 3] = interleave(rounds, |arm| {
            let round = order.iter().filter(|&&a| a == arm).count();
            order.push(arm);
            if round < warmup {
                0.0
            } else {
                (100 * (arm + 1) + (round * 7 + arm * 3) % 11) as f64
            }
        });

        assert_eq!(order.len(), 3 * (warmup + rounds as usize));
        for arm in 0..3 {
            assert_eq!(order.iter().filter(|&&a| a == arm).count(), warmup + rounds as usize);
        }
        for (round, chunk) in order.chunks(3).enumerate() {
            let first = round % 3;
            assert_eq!(chunk, [first, (first + 1) % 3, (first + 2) % 3], "round {round}");
        }
        for (arm, &ns) in best.iter().enumerate() {
            let expected = (warmup..warmup + rounds as usize)
                .map(|round| (100 * (arm + 1) + (round * 7 + arm * 3) % 11) as f64)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(ns, expected, "arm {arm}");
        }
    }

    #[test]
    fn best_of_times_each_arm_with_its_own_closure() {
        let (mut fast, mut slow) = (0u32, 0u32);
        let [fast_ns, slow_ns] = best_of(
            3,
            [&mut || fast += 1, &mut || {
                slow += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }],
        );
        assert_eq!((fast, slow), (5, 5), "2 warm-up + 3 timed rounds each");
        assert!(fast_ns < slow_ns && slow_ns >= 1e6, "{fast_ns} vs {slow_ns}");
    }

    #[test]
    fn pl0_corpus_seeds_each_file_in_turn() {
        let corpus = pl0_corpus(&[60, 60], 7, ID_REUSE);
        assert_eq!(corpus[0].src, gen::pl0_source(60, 7, ID_REUSE));
        assert_eq!(corpus[1].src, gen::pl0_source(60, 8, ID_REUSE));
        assert!(corpus.iter().all(|f| f.tokens == f.lexemes.len() && f.tokens > 0));
    }
}
