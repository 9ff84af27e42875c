//! Ablations over the three improvement axes of §4 plus the §4.3.1
//! right-child prepass. Each group varies one `ParserConfig` knob of the
//! improved preset and times warm recognize runs on the Python corpus, its
//! arms interleaved.
//!
//! Ungated; writes `BENCH_ablations.json` in the shared
//! [`pwd_bench::Trajectory`] schema.
//!
//! Run: `cargo bench -p pwd-bench --bench ablations`

use pwd_bench::{best_of, python_cfg, python_corpus, smoke_flag, Trajectory, WarmEngine};
use pwd_core::{CompactionMode, MemoKeying, MemoStrategy, NullStrategy, ParserConfig};

/// Times one group's arms (label, config, corpus target size) against each
/// other and records each arm's best ns.
fn group<const K: usize>(
    traj: &mut Trajectory,
    group: &str,
    arms: [(&str, ParserConfig, usize); K],
    rounds: u32,
) {
    let cfg = python_cfg();
    let mut engines = arms.map(|(label, config, target)| {
        let file = python_corpus(&[target]).remove(0);
        (label, file.tokens, WarmEngine::new(&cfg, config, &file.lexemes))
    });
    let mut runs = engines.each_mut().map(|(_, _, engine)| move || engine.run());
    let best = best_of(rounds, runs.each_mut().map(|run| run as &mut dyn FnMut()));
    for ((label, tokens, _), ns) in engines.iter().zip(best) {
        traj.record(&format!("{group}/{label}/tokens={tokens}/ns"), ns, "ns");
    }
}

fn main() {
    let rounds = if smoke_flag() { 3 } else { 10 };
    let improved = ParserConfig::improved();
    let mut traj = Trajectory::new("ablations");
    let nullability = [
        ("labeled", NullStrategy::Labeled),
        ("worklist", NullStrategy::Worklist),
        ("naive", NullStrategy::Naive),
    ];
    let arms = nullability
        .map(|(label, nullability)| (label, ParserConfig { nullability, ..improved }, 200));
    group(&mut traj, "nullability", arms, rounds);

    let compaction = [
        ("on_construction", CompactionMode::OnConstruction),
        ("separate_pass", CompactionMode::SeparatePass),
        ("none", CompactionMode::None),
    ];
    // Compaction off is the paper's "three minutes for 31 lines" arm: keep
    // its input tiny.
    let arms = compaction.map(|(label, compaction)| {
        let target = if compaction == CompactionMode::None { 60 } else { 200 };
        (label, ParserConfig { compaction, ..improved }, target)
    });
    group(&mut traj, "compaction", arms, rounds);

    let memo = [
        ("single_entry", MemoStrategy::SingleEntry),
        ("dual_entry", MemoStrategy::DualEntry),
        ("full_hash", MemoStrategy::FullHash),
    ];
    let arms = memo.map(|(label, memo)| {
        (label, ParserConfig { memo, keying: MemoKeying::ByValue, ..improved }, 200)
    });
    group(&mut traj, "memo", arms, rounds);

    let arms = [("with_prepass", true), ("without_prepass", false)].map(|(label, prepass)| {
        (label, ParserConfig { prepass_right_children: prepass, ..improved }, 200)
    });
    group(&mut traj, "prepass", arms, rounds);
    traj.write(env!("CARGO_MANIFEST_DIR"));
}
