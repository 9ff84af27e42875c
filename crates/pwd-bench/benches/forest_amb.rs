//! Bench for the shared-forest tentpole: on a highly ambiguous grammar
//! (`S → S S | a`, Catalan-many readings), exact ambiguity counting over
//! the packed forest must beat bounded enumeration — the operation the old
//! differential harness (and any client asking "how ambiguous is this?")
//! had to pay — by an order of magnitude, while being *complete* where
//! enumeration at 64 trees is silently truncated.
//!
//! Three timings per input size, all over the unified `Parser` API:
//!
//! * `construct_ns` — building the canonical shared forest;
//! * `count_ns`    — exact tree counting on the built forest (memoized DAG
//!   traversal, no enumeration);
//! * `enum64_ns`   — bounded enumeration of 64 trees on the same forest.
//!
//! Writes `BENCH_forest_amb.json` in the shared [`pwd_bench::Trajectory`]
//! schema.
//!
//! Run: `cargo bench -p pwd-bench --bench forest_amb`

use derp::api::{EnumLimits, ParseCount, Parser, PwdBackend};
use pwd_bench::{best_of, smoke_flag, Trajectory};
use pwd_grammar::grammars;

fn main() {
    let smoke = smoke_flag();
    let rounds = if smoke { 5 } else { 20 };
    let cfg = grammars::ambiguous::catalan();
    let sizes = [12usize, 18];
    let mut traj = Trajectory::new("forest_amb");
    for n in sizes {
        let input = vec!["a"; n];
        let mut backend = PwdBackend::improved(&cfg);
        let mut parse = || backend.parse_forest(&input).expect("catalan accepts a^n");
        // Construction allocates a fresh forest per run, so it is timed on
        // its own: interleaved, it would evict the shared forest between
        // the two gated arms below.
        let [construct_ns] = best_of(
            rounds,
            [&mut || {
                parse();
            }],
        );
        let forest = parse();
        let count = forest.count();
        let [count_ns, enum64_ns] = best_of(
            rounds,
            [&mut || assert!(!forest.count().is_zero()), &mut || {
                assert_eq!(forest.trees(EnumLimits::default()).len(), 64)
            }],
        );
        let speedup = enum64_ns / count_ns;
        // The exact ambiguity count rides along as a sample (Catalan
        // numbers stay comfortably inside f64's exact-integer range at
        // these sizes).
        if let ParseCount::Finite(total) = count {
            traj.record(&format!("tokens={n}/ambiguity_count"), total as f64, "trees");
        }
        traj.record(&format!("tokens={n}/construct_ns"), construct_ns, "ns");
        traj.record(&format!("tokens={n}/count_ns"), count_ns, "ns");
        traj.record(&format!("tokens={n}/enum64_ns"), enum64_ns, "ns");

        if n != sizes[sizes.len() - 1] {
            traj.record(&format!("tokens={n}/count_speedup"), speedup, "ratio");
            continue;
        }
        // The tentpole's point: the count is exact and *complete* on an
        // input whose tree set enumeration silently truncates…
        match count {
            ParseCount::Finite(total) => assert!(
                total > EnumLimits::default().max_trees as u128,
                "gate input must exceed the enumeration cap (got {total})"
            ),
            other => panic!("catalan count must be finite, got {other:?}"),
        }
        // …and an order of magnitude faster than even the truncated
        // enumeration (relaxed under --smoke for noisy CI runners).
        let gate = if smoke { 4.0 } else { 10.0 };
        traj.gate(&format!("tokens={n}/count_speedup"), speedup, "ratio", speedup >= gate);
        traj.write(env!("CARGO_MANIFEST_DIR"));
        assert!(
            speedup >= gate,
            "exact counting must be ≥{gate}× bounded enumeration at 64 trees \
             ({n} tokens: {count_ns} vs {enum64_ns} ns)"
        );
    }
}
