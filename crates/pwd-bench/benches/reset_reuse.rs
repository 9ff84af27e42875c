//! Bench for the epoch-reset tentpole: repeated parsing throughput when the
//! `Language` is reused via `reset()` versus recompiled from scratch for
//! every input (what a service without epoch reset would have to do per
//! request), on the Python corpus.
//!
//! Gate: reuse must not lose to recompiling (10% slack for timer noise).
//! Writes `BENCH_reset_reuse.json` in the shared [`pwd_bench::Trajectory`]
//! schema.
//!
//! Run: `cargo bench -p pwd-bench --bench reset_reuse`

use pwd_bench::{best_of, python_cfg, python_corpus, Trajectory, WarmEngine};
use pwd_core::ParserConfig;

fn main() {
    let cfg = python_cfg();
    let mut traj = Trajectory::new("reset_reuse");
    for file in python_corpus(&[200, 600]) {
        let tokens = file.tokens;
        let mut reused = WarmEngine::new(&cfg, ParserConfig::improved(), &file.lexemes);
        let [fresh_ns, reset_ns] = best_of(
            20,
            [
                // Fresh: compile, convert and recognize for every input.
                &mut || WarmEngine::new(&cfg, ParserConfig::improved(), &file.lexemes).run(),
                &mut || reused.run(),
            ],
        );
        let speedup = fresh_ns / reset_ns;
        traj.record(&format!("tokens={tokens}/fresh_ns"), fresh_ns, "ns");
        traj.record(&format!("tokens={tokens}/reset_ns"), reset_ns, "ns");
        traj.gate(
            &format!("tokens={tokens}/speedup"),
            speedup,
            "ratio",
            reset_ns <= fresh_ns * 1.10,
        );
        traj.write(env!("CARGO_MANIFEST_DIR"));
        assert!(
            reset_ns <= fresh_ns * 1.10,
            "epoch reset must not be slower than recompiling ({reset_ns} vs {fresh_ns} ns)"
        );
    }
}
