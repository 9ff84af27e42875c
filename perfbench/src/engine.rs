//! Pieces every workload shares: the request paths, the closed-loop
//! request log, the output checker, the complexity ladders and the edit
//! lane.

use crate::clock;
use crate::inputs::{edit_script, generate, Doc, Edit, Grammar, Lang};
use crate::reference::{catalan_trees, Outcome, Reference};
use crate::stats::{loglog_slope, median, quantile, sub_seed, tail};
use crate::traced::Trace;
use derp::api::{Parser, PwdBackend, Session};
use derp::lex::Lexeme;

/// A request's result before the check: the verdict, or the forest's
/// count and fingerprint (computed after the timer stops).
pub type Answer = Result<Outcome, String>;

/// Opens a session and feeds `text` on the fused path: the lexer's token
/// source drains straight into the session (Python lexes to a vector
/// first, as its tokenizer is not a stream).
fn fed<'b>(g: &Grammar, backend: &'b mut dyn Parser, text: &str) -> Result<Session<'b>, String> {
    let mut s = Session::open(backend).map_err(|e| e.to_string())?;
    match g.source(text) {
        Some(mut src) => s.feed_source(&mut src).map_err(|e| e.to_string())?,
        None => s.feed_lexemes(&g.lex(text)?).map_err(|e| e.to_string())?,
    };
    Ok(s)
}

/// Text in, verdict out.
pub fn verdict(g: &Grammar, backend: &mut dyn Parser, text: &str) -> Answer {
    fed(g, backend, text)?.finish().map(Outcome::Verdict).map_err(|e| e.to_string())
}

/// Text in, forest out. Returns the forest itself, so the caller decides
/// what else the timed request includes: the ambiguity ladder counts the
/// trees inside it, every other request reduces the forest after the
/// timer stops.
pub fn forest(
    g: &Grammar,
    backend: &mut dyn Parser,
    text: &str,
) -> Result<derp::api::ParseForest, String> {
    fed(g, backend, text)?.finish_forest().map_err(|e| e.to_string())
}

/// Reduces a forest to the compared outcome (outside any timer).
pub fn forest_outcome(f: &derp::api::ParseForest) -> Outcome {
    Outcome::Forest { count: f.count(), fingerprint: f.fingerprint() }
}

/// Counts requests and wrong or failed outputs. With `corrupt` set, the
/// first expected answer it is given is deliberately falsified — the
/// checker self-test.
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    corrupt: bool,
    pub first_failures: Vec<String>,
}

impl Checker {
    pub fn new(corrupt: bool) -> Checker {
        Checker { attempted: 0, failed: 0, corrupt, first_failures: Vec::new() }
    }

    pub fn check(&mut self, what: &str, got: &Answer, want: Outcome) {
        let want = if std::mem::take(&mut self.corrupt) {
            match want {
                Outcome::Verdict(v) => Outcome::Verdict(!v),
                Outcome::Forest { count, fingerprint } => {
                    Outcome::Forest { count, fingerprint: fingerprint ^ 1 }
                }
            }
        } else {
            want
        };
        self.attempted += 1;
        if got.as_ref().ok() != Some(&want) {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(format!("{what}: got {got:?}, want {want:?}"));
            }
        }
    }
}

/// One closed-loop client's request log.
#[derive(Default)]
pub struct RequestLog {
    /// `(tokens, scaled seconds)` per request (see [`clock`]).
    pub entries: Vec<(usize, f64)>,
}

impl RequestLog {
    /// Times one request on the scaled clock.
    pub fn time<R>(&mut self, tokens: usize, f: impl FnOnce() -> R) -> R {
        let (r, s) = clock::time(f);
        self.entries.push((tokens, s));
        r
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.entries.iter().map(|&(_, s)| s * 1e3).collect()
    }

    /// Scaled seconds spent inside requests.
    pub fn total_s(&self) -> f64 {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// Median tokens per second over `windows` equal request-count
    /// windows; a window's time is the client's time inside requests, so
    /// output checks between requests do not count.
    pub fn tokens_per_s(&self, windows: usize) -> f64 {
        let per = (self.entries.len() / windows).max(1);
        let rates: Vec<f64> = self
            .entries
            .chunks(per)
            .filter(|c| c.len() == per)
            .map(|c| {
                let tokens: usize = c.iter().map(|e| e.0).sum();
                let s: f64 = c.iter().map(|e| e.1).sum();
                tokens as f64 / s
            })
            .collect();
        median(&rates)
    }
}

/// Named metrics plus human-readable notes, in print order.
#[derive(Default)]
pub struct Metrics {
    pub values: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `latency_p50_ms`, `latency_tail_ms` (or the `edit_` pair) from a
    /// latency sample, with the tail's percentile and sample count noted.
    pub fn latency(&mut self, prefix: &str, ms: &[f64]) {
        let (p, beyond, v) = tail(ms);
        self.put(&format!("{prefix}_p50_ms"), median(ms), "ms");
        self.put(&format!("{prefix}_tail_ms"), v, "ms");
        let q = |p: f64| quantile(ms, p);
        self.note(format!(
            "{prefix}_tail_ms is p{p} of {} samples ({beyond} beyond it); \
             p25 {:.4} p75 {:.4} p90 {:.4} p99 {:.4} p99.9 {:.4} max {:.4}",
            ms.len(),
            q(0.25),
            q(0.75),
            q(0.9),
            q(0.99),
            q(0.999),
            q(1.0)
        ));
    }
}

/// Set-ups run first and not counted: the first few builds in a process
/// take up to 1.6× longer while the allocator is still growing its heap.
pub const SETUPS_UNCOUNTED: usize = 3;

/// Runs `SETUPS_UNCOUNTED + counted` fresh set-ups one after the other,
/// appending the scaled time of each counted one to `times` (`setup_s` is
/// their median), and keeps the last (each earlier one is dropped before
/// the next starts).
pub fn set_up<S>(times: &mut Vec<f64>, counted: usize, mut setup: impl FnMut() -> S) -> S {
    let mut kept = None;
    for i in 0..SETUPS_UNCOUNTED + counted {
        drop(kept.take());
        let (s, t) = clock::time(&mut setup);
        if i >= SETUPS_UNCOUNTED {
            times.push(t);
        }
        kept = Some(s);
    }
    kept.expect("at least one set-up")
}

/// Feeds warm-up documents on the fused verdict path until one of them
/// builds no new automaton rows (at least `min` documents, at most all).
pub fn warm_verdict(g: &Grammar, backend: &mut dyn Parser, docs: &[Doc], min: usize) {
    for (i, d) in docs.iter().enumerate() {
        verdict(g, backend, &d.text).expect("warm-up documents parse");
        if i + 1 >= min && backend.metrics().auto_rows_built == 0 {
            break;
        }
    }
}

/// Seed-independent warm-up documents, so set-up does the same work on
/// every seed.
pub fn warm_docs(g: &Grammar, count: usize, size: usize) -> Vec<Doc> {
    (0..count).map(|i| generate(g, size, sub_seed(0x5E7, 0x3A, i as u64))).collect()
}

// ---------------------------------------------------------------------
// Complexity ladders
// ---------------------------------------------------------------------

/// Doubling ladders over input length, nesting depth and ambiguity, all on
/// `pwd-improved`.
pub struct Ladders {
    pl0: Grammar,
    arith: Grammar,
    catalan: Grammar,
    pub pl0_backend: PwdBackend,
    pub arith_backend: PwdBackend,
    pub catalan_backend: PwdBackend,
}

/// The three ladders' rungs: PL/0 documents (length), arithmetic depths,
/// catalan lengths.
#[derive(Clone)]
pub struct Rungs {
    pub length: Vec<Doc>,
    pub depth: Vec<usize>,
    pub ambiguity: Vec<usize>,
    pub length_refs: Vec<Outcome>,
}

impl Rungs {
    /// The full ladders (`scaling`), or the canary the other workloads
    /// run: the length ladder at a quarter, the others at half size. The
    /// full length ladder has a fifth, bottom rung, so that a `scaling`
    /// pass is thirteen requests and the median request of several passes
    /// lies inside one rung's cluster of times rather than between two.
    pub fn new(seed: u64, full: bool) -> Rungs {
        let (kl, k) = if full { (1, 1) } else { (4, 2) };
        let pl0 = Grammar::new(Lang::Pl0);
        let lengths: &[usize] =
            if full { &[250, 500, 1000, 2000, 4000] } else { &[500, 1000, 2000, 4000] };
        let length = lengths
            .iter()
            .enumerate()
            .map(|(i, &n)| generate(&pl0, n / kl, sub_seed(seed, 0x1AD, i as u64)))
            .collect();
        Rungs {
            length,
            depth: [25, 50, 100, 200].map(|n| n / k).to_vec(),
            ambiguity: [16, 32, 64, 128].map(|n| n / k).to_vec(),
            length_refs: Vec::new(),
        }
    }

    /// GLR references for the length ladder (outside timing).
    pub fn compute_references(&mut self) {
        let pl0 = Grammar::new(Lang::Pl0);
        let mut r = Reference::new(&pl0);
        self.length_refs =
            self.length.iter().map(|d| r.forest(&pl0.lex(&d.text).expect("lexes"))).collect();
    }
}

/// The scaled time of the request `log` timed last.
fn last_s(log: &RequestLog) -> f64 {
    log.entries.last().map_or(0.0, |e| e.1)
}

/// Per-rung times of one pass, in seconds, ladder by ladder.
pub struct PassTimes {
    pub length: Vec<f64>,
    pub depth: Vec<f64>,
    pub ambiguity: Vec<f64>,
}

impl Ladders {
    pub fn new() -> Ladders {
        let pl0 = Grammar::new(Lang::Pl0);
        let arith = Grammar::new(Lang::Arith);
        let catalan = Grammar::new(Lang::Catalan);
        let pl0_backend = PwdBackend::improved(&pl0.cfg);
        let arith_backend = PwdBackend::improved(&arith.cfg);
        let catalan_backend = PwdBackend::improved(&catalan.cfg);
        Ladders { pl0, arith, catalan, pl0_backend, arith_backend, catalan_backend }
    }

    /// Warm-up: the bottom rung of each ladder.
    pub fn warm(&mut self, rungs: &Rungs) {
        forest(&self.pl0, &mut self.pl0_backend, &rungs.length[0].text).expect("warm-up");
        verdict(&self.arith, &mut self.arith_backend, &crate::inputs::depth_input(rungs.depth[0]))
            .expect("warm-up");
        forest(&self.catalan, &mut self.catalan_backend, &"a".repeat(rungs.ambiguity[0]))
            .expect("warm-up");
    }

    /// One pass over all rungs, each request timed and checked; every
    /// request is also logged in `log`.
    pub fn pass(&mut self, rungs: &Rungs, log: &mut RequestLog, check: &mut Checker) -> PassTimes {
        let mut times = PassTimes { length: vec![], depth: vec![], ambiguity: vec![] };
        for (d, want) in rungs.length.iter().zip(&rungs.length_refs) {
            let got = log.time(d.tokens, || forest(&self.pl0, &mut self.pl0_backend, &d.text));
            times.length.push(last_s(log));
            check.check("length rung", &got.map(|f| forest_outcome(&f)), *want);
        }
        for &n in &rungs.depth {
            let text = crate::inputs::depth_input(n);
            let got = log.time(2 * n + 1, || verdict(&self.arith, &mut self.arith_backend, &text));
            times.depth.push(last_s(log));
            check.check("depth rung", &got, Outcome::Verdict(true));
        }
        for &n in &rungs.ambiguity {
            let text = "a".repeat(n);
            let got = log.time(n, || {
                forest(&self.catalan, &mut self.catalan_backend, &text).map(|f| f.count())
            });
            times.ambiguity.push(last_s(log));
            let got = got.map(|count| Outcome::Forest { count, fingerprint: 0 });
            let want = Outcome::Forest { count: catalan_trees(n), fingerprint: 0 };
            check.check("ambiguity rung", &got, want);
        }
        times
    }
}

/// The ladder metrics from several passes: per-rung medians, their
/// log-log slopes, and the length ladder's top rung.
///
/// The depth and ambiguity top rungs are left to the traced run: their
/// arenas are large, the machine's slow stretches stretch them by up to
/// 1.6×, and their medians spread by a third from run to run, more than
/// any bound allows. The slopes are ratios within a pass and stay steady.
pub fn ladder_metrics(m: &mut Metrics, rungs: &Rungs, passes: &[PassTimes]) {
    type Pick = fn(&PassTimes) -> &Vec<f64>;
    let med =
        |pick: Pick, i: usize| median(&passes.iter().map(|p| pick(p)[i]).collect::<Vec<f64>>());
    let ladders: [(&str, Vec<f64>, Pick); 3] = [
        ("length", rungs.length.iter().map(|d| d.tokens as f64).collect(), |p| &p.length),
        ("depth", rungs.depth.iter().map(|&n| n as f64).collect(), |p| &p.depth),
        ("ambiguity", rungs.ambiguity.iter().map(|&n| n as f64).collect(), |p| &p.ambiguity),
    ];
    for (name, xs, pick) in ladders {
        let pts: Vec<(f64, f64)> = xs.iter().enumerate().map(|(i, &x)| (x, med(pick, i))).collect();
        m.put(&format!("{name}_exponent"), loglog_slope(&pts), "slope");
        if name == "length" {
            m.put("length_top_s", pts[pts.len() - 1].1, "s");
        }
        m.note(format!(
            "{name} ladder (x, median s over {} passes): {}",
            passes.len(),
            pts.iter().map(|(x, y)| format!("({x}, {y:.5})")).collect::<Vec<_>>().join(" ")
        ));
    }
}

// ---------------------------------------------------------------------
// Edit lane
// ---------------------------------------------------------------------

/// A long buffer of one language and a seeded edit script over it.
pub struct EditLane {
    pub buffer: Vec<Lexeme>,
    pub edits: Vec<Edit>,
    pub final_ref: Outcome,
}

impl EditLane {
    /// Generates the buffer (about `tokens` long) and script, and parses
    /// the script's final buffer with the reference.
    pub fn new(g: &Grammar, tokens: usize, edits: usize, seed: u64) -> EditLane {
        let text = generate(g, tokens, sub_seed(seed, 0xED17, 0)).text;
        let buffer = g.lex(&text).expect("generated buffers lex");
        let (edits, last) = edit_script(&buffer, edits, sub_seed(seed, 0xED17, 1));
        let final_ref = Reference::new(g).verdict(&last);
        EditLane { buffer, edits, final_ref }
    }
}

/// What an edit lane measured: per-edit and open+feed times (unscaled
/// until [`Edits::scale`]), each session's first edit time, and per-edit
/// `(refed, converged)` splice reports.
#[derive(Default)]
pub struct Edits {
    pub edit_ms: Vec<f64>,
    pub first_ms: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub splices: Vec<(usize, bool)>,
}

impl Edits {
    /// Scales the times recorded since `mark` by `f` (see [`clock`]).
    pub fn scale(&mut self, mark: [usize; 3], f: f64) {
        for (v, from) in
            [&mut self.edit_ms, &mut self.first_ms, &mut self.open_ms].into_iter().zip(mark)
        {
            v[from..].iter_mut().for_each(|x| *x *= f);
        }
    }

    /// The entry counts, for a later [`Edits::scale`].
    pub fn mark(&self) -> [usize; 3] {
        [self.edit_ms.len(), self.first_ms.len(), self.open_ms.len()]
    }

    /// Records one edit's time (and its session's first, if it is).
    pub fn push(&mut self, ms: f64, first: bool) {
        self.edit_ms.push(ms);
        if first {
            self.first_ms.push(ms);
        }
    }
}

/// Buffers per local edit lane: several short buffers sample more of a
/// language's shapes than one long one.
pub const EDIT_BUFFERS: usize = 4;

/// The edit lanes of a run: `EDIT_BUFFERS` buffers sharing `tokens` and
/// `edits` between them.
pub fn edit_lanes(g: &Grammar, tokens: usize, edits: usize, seed: u64) -> Vec<EditLane> {
    (0..EDIT_BUFFERS)
        .map(|i| {
            let s = sub_seed(seed, 0xED17, i as u64 + 2);
            EditLane::new(g, tokens / EDIT_BUFFERS, edits / EDIT_BUFFERS, s)
        })
        .collect()
}

/// One live incremental session per edit lane, each on a fork of one
/// warmed backend, edited a chunk at a time so that the edits spread over
/// the run.
pub struct EditSessions<'l> {
    lanes: &'l [EditLane],
    sessions: Vec<Session<'static>>,
}

impl<'l> EditSessions<'l> {
    /// Opens every session and feeds its buffer.
    pub fn open(backend: &dyn Parser, lanes: &'l [EditLane], out: &mut Edits) -> EditSessions<'l> {
        let sessions = lanes
            .iter()
            .map(|lane| {
                let (session, s) = clock::time_raw(|| {
                    let mut session = Session::owned(backend.fork()).expect("session opens");
                    session.enable_incremental().expect("fresh session");
                    session.feed_lexemes(&lane.buffer).expect("buffer feeds");
                    session
                });
                out.open_ms.push(s * 1e3);
                session
            })
            .collect();
        EditSessions { lanes, sessions }
    }

    /// Applies chunk `k` of `of` of every lane's edits: each a splice plus
    /// the edited buffer's verdict, timed together and checked.
    pub fn edit(
        &mut self,
        (k, of): (usize, usize),
        check: &mut Checker,
        tr: &mut Trace,
        out: &mut Edits,
    ) {
        for (session, lane) in self.sessions.iter_mut().zip(self.lanes) {
            let n = lane.edits.len();
            for i in k * n / of..(k + 1) * n / of {
                let e = &lane.edits[i];
                let ((res, verdict), s) = clock::time_raw(|| {
                    tr.span("splice", i as u64, || {
                        let res =
                            session.splice_tokens(e.at, 1, &[(&e.lexeme.kind, &e.lexeme.text)]);
                        let verdict = res.as_ref().map_err(|e| e.to_string()).and_then(|_| {
                            session
                                .prefix_is_sentence()
                                .map(Outcome::Verdict)
                                .map_err(|e| e.to_string())
                        });
                        (res, verdict)
                    })
                });
                out.push(s * 1e3, i == 0);
                if let Ok(o) = res {
                    out.splices.push((o.refed, o.converged_at.is_some()));
                }
                check.check("edit verdict", &verdict, Outcome::Verdict(true));
            }
        }
    }

    /// Finishes every session and checks its final buffer against the
    /// reference.
    pub fn finish(self, check: &mut Checker) {
        for (session, lane) in self.sessions.into_iter().zip(self.lanes) {
            let fin = session.finish().map(Outcome::Verdict).map_err(|e| e.to_string());
            check.check("final edited buffer", &fin, lane.final_ref);
        }
    }
}
