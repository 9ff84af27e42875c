//! The four workloads: each a fixed number of operations whose
//! count depends only on `--seconds`, never on elapsed time.
//!
//! A run first builds its engines several times from scratch (the
//! `setup_s` samples) and keeps the last build. It then runs its lanes one
//! after the other on that one build: the main request stream, whose peak
//! RSS is `peak_rss_mb` (with chunks of the local edit lane between its
//! slices, each chunk's sessions gone before the next slice), then the
//! service lane and the canary ladders, each with its own peak noted.
//! Times are on the scaled clock (see [`clock`]). The same code serves
//! the traced run, which hands it a recording `Trace`.

use crate::clock;
use crate::engine::{
    edit_lanes, forest, forest_outcome, ladder_metrics, set_up, verdict, warm_docs, warm_verdict,
    Answer, Checker, EditLane, EditSessions, Edits, Ladders, Metrics, PassTimes, RequestLog, Rungs,
};
use crate::inputs::{doc_stream, Doc, Grammar, Lang};
use crate::reference::{Outcome, Reference};
use crate::stats::{median, proc_status_kb, reset_peak_rss, sub_seed};
use crate::traced::Trace;
use derp::api::{Parser, PwdBackend};
use pwd_serve::{Input, ParseService, ServiceConfig, ServiceMetrics, SessionId};

/// Request-count windows `tokens_per_s` is the median over.
pub const WINDOWS: usize = 8;
/// Slices of the main lane, with a chunk of the edit lane after each.
pub const SLICES: usize = 8;
/// Canary ladder passes per run in the workloads other than `scaling`.
pub const CANARY_PASSES: usize = 12;
/// One main document in this many also goes through the service lane.
pub const SERVE_SHARE: usize = 6;

/// PL/0 document sizes (tokens), cycled: the median sits well inside the
/// 1000-token class (with a 500-token class, mutants that stop early put
/// it on the class's lower edge, where it jumps from seed to seed) and the
/// tail inside the 2000-token class.
pub const PL0_SIZES: [usize; 5] = [250, 1000, 1000, 1000, 2000];
/// Python module sizes, cycled the same way.
pub const PY_SIZES: [usize; 4] = [500, 1000, 1000, 2000];
/// JSON document sizes for `serve_mixed` batches.
pub const JSON_SIZES: [usize; 5] = [250, 500, 1000, 1000, 2000];

/// Local edits per run. Just under 2000, the tail rule's percentile is
/// p99 with 19 edits beyond it, the most below p99.5.
pub const LOCAL_EDITS: usize = 1990;

/// The fixed operation counts, as a function of `--seconds` only.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Documents (pl0_verdict, python_forest), batch rounds (serve_mixed)
    /// or ladder passes (scaling).
    pub main: usize,
    pub edit_tokens: usize,
    pub edits: usize,
    /// Counted fresh set-ups: more where one set-up is short.
    pub setups: usize,
}

pub fn plan(workload: &str, seconds: u64) -> Plan {
    let s = seconds as usize;
    match workload {
        "pl0_verdict" => {
            Plan { main: 400 * s, edit_tokens: 10_000, edits: LOCAL_EDITS, setups: 15 }
        }
        "python_forest" => Plan { main: 8 * s, edit_tokens: 5_000, edits: LOCAL_EDITS, setups: 7 },
        "scaling" => {
            Plan { main: (13 * s / 15).max(2), edit_tokens: 10_000, edits: LOCAL_EDITS, setups: 15 }
        }
        "serve_mixed" => Plan { main: 16 * s, edit_tokens: 10_000, edits: 332, setups: 11 },
        _ => unreachable!("workload names are checked on entry"),
    }
}

/// What a workload run measured; the end-to-end report and the traced run's
/// per-layer report both read it.
pub struct Run {
    /// The main lane's requests.
    pub log: RequestLog,
    pub setups: Vec<f64>,
    pub edits: Edits,
    pub passes: Vec<PassTimes>,
    pub rungs: Rungs,
    /// VmHWM over the main lane, in kB.
    pub peak_kb: u64,
    /// `(main requests served, VmRSS kB)` samples over the main lane.
    pub rss: Vec<(f64, f64)>,
    /// The service's counters at the end of the run, and its workers.
    pub service: Option<(ServiceMetrics, usize)>,
    pub notes: Vec<String>,
}

impl Run {
    fn new(rungs: Rungs) -> Run {
        Run {
            log: RequestLog::default(),
            setups: Vec::new(),
            edits: Edits::default(),
            passes: Vec::new(),
            rungs,
            peak_kb: 0,
            rss: Vec::new(),
            service: None,
            notes: Vec::new(),
        }
    }

    /// Runs the main lane in `slices` slices, with chunk `k` of the local
    /// edit lane (if any) after slice `k`, and reads its peak RSS (VmHWM,
    /// reset at the lane's start). The edit sessions live through the
    /// lane, as in an editor beside a stream of fresh documents; the RSS
    /// they add when opened is noted. Edit times are scaled by the
    /// calibration factor over the whole lane.
    fn main_lane(
        &mut self,
        slices: usize,
        edits: Option<(&dyn Parser, &[EditLane])>,
        check: &mut Checker,
        tr: &mut Trace,
        mut slice: impl FnMut(&mut Run, usize, &mut Checker, &mut Trace),
    ) {
        let marks = (clock::mark(), self.edits.mark());
        reset_peak_rss();
        let rss0 = proc_status_kb("VmRSS");
        let mut sessions = edits.map(|(b, lanes)| EditSessions::open(b, lanes, &mut self.edits));
        let held = proc_status_kb("VmRSS").saturating_sub(rss0) as f64 / 1024.0;
        for k in 0..slices {
            slice(self, k, check, tr);
            if let Some(s) = sessions.as_mut() {
                s.edit((k, slices), check, tr, &mut self.edits);
            }
        }
        self.peak_kb = proc_status_kb("VmHWM");
        if let Some(s) = sessions {
            s.finish(check);
            self.notes
                .push(format!("the edit sessions held {held:.1} MB of RSS through the main lane"));
        }
        self.scale_edits_since("main", marks);
    }

    /// Runs a lane after the main lane, from a reset peak-RSS mark, and
    /// notes its peak.
    fn lane<R>(&mut self, name: &str, f: impl FnOnce(&mut Run) -> R) -> R {
        reset_peak_rss();
        let r = f(self);
        let peak = proc_status_kb("VmHWM") as f64 / 1024.0;
        self.notes.push(format!("{name} lane peak RSS {peak:.1} MB"));
        r
    }

    /// Scales the edit times recorded since `marks` by the calibration
    /// factor over the lane they ran in, and notes it.
    fn scale_edits_since(&mut self, name: &str, marks: (usize, [usize; 3])) {
        let (f, runs) = clock::factor_since(marks.0);
        self.edits.scale(marks.1, f);
        self.notes.push(format!("{name} lane edit times scaled by {f:.4} ({runs} kernel runs)"));
    }

    /// Records a VmRSS sample after `served` main requests.
    fn sample_rss(&mut self, served: usize) {
        self.rss.push((served as f64, proc_status_kb("VmRSS") as f64));
    }

    /// The end-to-end metrics.
    pub fn report(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("tokens_per_s", self.log.tokens_per_s(WINDOWS), "1/s");
        m.latency("latency", &self.log.latencies_ms());
        m.latency("edit", &self.edits.edit_ms);
        ladder_metrics(&mut m, &self.rungs, &self.passes);
        m.put("peak_rss_mb", self.peak_kb as f64 / 1024.0, "MB");
        m.put("setup_s", median(&self.setups), "s");
        let setups: Vec<String> = self.setups.iter().map(|s| format!("{s:.4}")).collect();
        m.note(format!(
            "setup_s is the median of {} fresh set-ups: {}",
            setups.len(),
            setups.join(" ")
        ));
        m.notes.extend(self.notes.iter().cloned());
        m
    }
}

/// Runs `workload`.
pub fn run(workload: &str, seed: u64, p: &Plan, check: &mut Checker, tr: &mut Trace) -> Run {
    match workload {
        "pl0_verdict" => pl0_verdict(seed, p, check, tr),
        "python_forest" => python_forest(seed, p, check, tr),
        "scaling" => scaling(seed, p, check, tr),
        _ => serve_mixed(seed, p, check, tr),
    }
}

/// Expected answers: generated documents are accepted by construction;
/// mutants and forests are parsed by the reference.
pub fn references(g: &Grammar, docs: &[Doc], forests: bool) -> Vec<Outcome> {
    let mut r = Reference::new(g);
    docs.iter()
        .map(|d| {
            if forests || d.mutant {
                r.outcome(&g.lex(&d.text).expect("documents lex"), forests)
            } else {
                Outcome::Verdict(true)
            }
        })
        .collect()
}

/// Documents per `submit_batch`: one of each size class, so every batch
/// has the same mix.
pub const BATCH_DOCS: usize = PL0_SIZES.len();

/// A parse service and whether it returns forests.
pub struct Service {
    pub svc: ParseService,
    pub forests: bool,
}

impl Service {
    /// A two-worker service on `backend`, warmed by submitting every
    /// warm-up document of each grammar (a fixed amount of work).
    pub fn new(backend: &str, forests: bool, warm: &[(&Grammar, &[Doc])]) -> Service {
        let svc = ParseService::new(ServiceConfig {
            workers: 2,
            backend: backend.to_string(),
            forests,
            ..ServiceConfig::default()
        });
        let s = Service { svc, forests };
        for (g, docs) in warm {
            for batch in docs.chunks(BATCH_DOCS) {
                for a in s.submit(g, batch, 0, &mut Trace::off()).0 {
                    a.expect("warm-up documents parse");
                }
            }
        }
        s
    }

    /// Lexes a batch on the client and submits it; returns one answer per
    /// document, and the inputs sent.
    pub fn submit(
        &self,
        g: &Grammar,
        docs: &[Doc],
        id: u64,
        tr: &mut Trace,
    ) -> (Vec<Answer>, Vec<Input>) {
        let inputs: Vec<Input> = tr.span("client_lex", id, || {
            docs.iter().map(|d| Input::Lexemes(g.lex(&d.text).expect("documents lex"))).collect()
        });
        let report = tr.span("submit", id, || self.svc.submit_batch(&g.cfg, &inputs));
        let answers = match report {
            Ok(report) => report
                .outcomes
                .into_iter()
                .map(|o| {
                    o.map(|o| match (&o.forest, self.forests) {
                        (Some(f), true) => {
                            Outcome::Forest { count: f.count, fingerprint: f.fingerprint }
                        }
                        _ => Outcome::Verdict(o.accepted),
                    })
                    .map_err(|e| e.to_string())
                })
                .collect(),
            Err(e) => vec![Err(e.to_string()); docs.len()],
        };
        (answers, inputs)
    }

    /// Submits `docs` in batches and checks every answer (the service lane
    /// of the workloads other than `serve_mixed`).
    fn lane(
        &self,
        g: &Grammar,
        docs: &[Doc],
        refs: &[Outcome],
        check: &mut Checker,
        tr: &mut Trace,
    ) {
        for (b, (batch, want)) in docs.chunks(BATCH_DOCS).zip(refs.chunks(BATCH_DOCS)).enumerate() {
            let (answers, inputs) = self.submit(g, batch, b as u64, tr);
            for (a, w) in answers.iter().zip(want) {
                check.check("service lane", a, *w);
            }
            tr.direct(g, &inputs, self.forests);
        }
    }

    fn metrics(&self) -> Option<(ServiceMetrics, usize)> {
        Some((self.svc.metrics(), self.svc.config().workers))
    }
}

/// A single-client document workload: `docs` through the fused path on
/// the backend its set-up builds, with the edit lane between the slices,
/// then the service and canary lanes.
struct DocWorkload<'a> {
    docs: &'a [Doc],
    refs: &'a [Outcome],
    lanes: &'a [EditLane],
    forests: bool,
    /// The service lane's backend, and the documents that warm it.
    service: (&'static str, &'a [Doc]),
}

/// What a document workload's set-up builds.
struct Built {
    g: Grammar,
    backend: PwdBackend,
    lane_backend: PwdBackend,
    ladders: Ladders,
}

impl DocWorkload<'_> {
    fn run(
        &self,
        p: &Plan,
        rungs: Rungs,
        setup: impl FnMut() -> Built,
        check: &mut Checker,
        tr: &mut Trace,
    ) -> Run {
        let mut run = Run::new(rungs);
        let Built { g, mut backend, lane_backend, mut ladders } =
            set_up(&mut run.setups, p.setups, setup);

        let every = (self.docs.len() / 50).max(1);
        let edits = Some((&lane_backend as &dyn Parser, self.lanes));
        run.main_lane(SLICES, edits, check, tr, |run, k, check, tr| {
            let range = k * self.docs.len() / SLICES..(k + 1) * self.docs.len() / SLICES;
            for i in range {
                let (d, want) = (&self.docs[i], self.refs[i]);
                let got = tr.span("fused", i as u64, || {
                    if self.forests {
                        run.log
                            .time(d.tokens, || forest(&g, &mut backend, &d.text))
                            .map(|f| forest_outcome(&f))
                    } else {
                        run.log.time(d.tokens, || verdict(&g, &mut backend, &d.text))
                    }
                });
                check.check("document", &got, want);
                tr.replay(&g, i as u64, &d.text, self.forests, want, check);
                if i % every == 0 {
                    run.sample_rss(i);
                }
            }
        });

        // The service lane is not this workload's own, so its set-up is
        // not counted in `setup_s`.
        let n = (self.docs.len() / SERVE_SHARE).max(BATCH_DOCS);
        let (name, warm) = self.service;
        run.service = run.lane("service", |_| {
            let service = Service::new(name, self.forests, &[(&g, warm)]);
            service.lane(&g, &self.docs[..n], &self.refs[..n], check, tr);
            service.metrics()
        });
        run.lane("canary", |run| {
            for _ in 0..CANARY_PASSES {
                let pass = ladders.pass(&run.rungs, &mut RequestLog::default(), check);
                run.passes.push(pass);
            }
        });
        run
    }
}

/// Canary rungs with their references (computed before any timing).
fn canary_rungs(seed: u64) -> Rungs {
    let mut rungs = Rungs::new(seed, false);
    rungs.compute_references();
    rungs
}

/// `pl0_verdict`: distinct PL/0 programs, text → verdict on the fused path
/// on `pwd-dfa`.
fn pl0_verdict(seed: u64, p: &Plan, check: &mut Checker, tr: &mut Trace) -> Run {
    let g0 = Grammar::new(Lang::Pl0);
    let docs = doc_stream(&g0, seed, 1, p.main, &PL0_SIZES, 0.1);
    let refs = references(&g0, &docs, false);
    let warm = warm_docs(&g0, 24, 1000);
    let rungs = canary_rungs(seed);
    let lanes = edit_lanes(&g0, p.edit_tokens, p.edits, seed);
    let service = ("pwd-dfa", &warm[..2 * BATCH_DOCS]);
    let w = DocWorkload { docs: &docs, refs: &refs, lanes: &lanes, forests: false, service };
    let setup = || {
        let g = Grammar::new(Lang::Pl0);
        let mut backend = PwdBackend::dfa(&g.cfg);
        warm_verdict(&g, &mut backend, &warm, 8);
        let mut lane_backend = PwdBackend::dfa(&g.cfg);
        warm_verdict(&g, &mut lane_backend, &warm, 8);
        let mut ladders = Ladders::new();
        ladders.warm(&rungs);
        Built { g, backend, lane_backend, ladders }
    };
    w.run(p, rungs.clone(), setup, check, tr)
}

/// `python_forest`: Python-like modules, text → forest on `pwd-improved`.
fn python_forest(seed: u64, p: &Plan, check: &mut Checker, tr: &mut Trace) -> Run {
    let g0 = Grammar::new(Lang::Python);
    let docs = doc_stream(&g0, seed, 2, p.main, &PY_SIZES, 0.0);
    let refs = references(&g0, &docs, true);
    let warm = warm_docs(&g0, 2, 1000);
    let rungs = canary_rungs(seed);
    let lanes = edit_lanes(&g0, p.edit_tokens, p.edits, seed);
    let service = ("pwd-improved", &warm[..]);
    let w = DocWorkload { docs: &docs, refs: &refs, lanes: &lanes, forests: true, service };
    let setup = || {
        let g = Grammar::new(Lang::Python);
        let mut backend = PwdBackend::improved(&g.cfg);
        for d in &warm {
            forest(&g, &mut backend, &d.text).expect("warm-up modules parse");
        }
        let mut lane_backend = PwdBackend::dfa(&g.cfg);
        warm_verdict(&g, &mut lane_backend, &warm[..1], 1);
        let mut ladders = Ladders::new();
        ladders.warm(&rungs);
        Built { g, backend, lane_backend, ladders }
    };
    w.run(p, rungs.clone(), setup, check, tr)
}

/// `scaling`: the three full doubling ladders, `main` passes with a chunk
/// of the edit lane after each, then the service lane (the length
/// ladder's documents).
fn scaling(seed: u64, p: &Plan, check: &mut Checker, tr: &mut Trace) -> Run {
    let g0 = Grammar::new(Lang::Pl0);
    let mut rungs = Rungs::new(seed, true);
    rungs.compute_references();
    let lanes = edit_lanes(&g0, p.edit_tokens, p.edits, seed);
    let warm = warm_docs(&g0, 24, 1000);
    let setup = || {
        let mut ladders = Ladders::new();
        ladders.warm(&rungs);
        let g = Grammar::new(Lang::Pl0);
        let mut lane_backend = PwdBackend::dfa(&g.cfg);
        warm_verdict(&g, &mut lane_backend, &warm, 8);
        (ladders, lane_backend, g)
    };

    let mut run = Run::new(rungs.clone());
    let (mut ladders, lane_backend, g) = set_up(&mut run.setups, p.setups, setup);
    let edits = Some((&lane_backend as &dyn Parser, &lanes[..]));
    run.main_lane(p.main, edits, check, tr, |run, k, check, _| {
        let pass = ladders.pass(&rungs, &mut run.log, check);
        run.passes.push(pass);
        run.sample_rss(k * rungs.length.len());
    });
    // The service lane's set-up is not counted in `setup_s`.
    run.service = run.lane("service", |_| {
        let service = Service::new("pwd-improved", true, &[(&g, &rungs.length[..1])]);
        service.lane(&g, &rungs.length, &rungs.length_refs, check, tr);
        service.metrics()
    });
    run
}

/// One live edit session through the service: open, feed the buffer as
/// one chunk, splice every edit (each followed by a status read for the
/// verdict), finish.
pub fn serve_edit_session(
    svc: &ParseService,
    g: &Grammar,
    lane: &EditLane,
    check: &mut Checker,
    tr: &mut Trace,
    out: &mut Edits,
) {
    let (id, ms) = clock::time_raw(|| {
        let id: SessionId = svc.open_session(&g.cfg).expect("session opens");
        svc.feed_chunk(id, &Input::Lexemes(lane.buffer.clone())).expect("buffer feeds");
        id
    });
    out.open_ms.push(ms * 1e3);
    for (i, e) in lane.edits.iter().enumerate() {
        let ((res, verdict), s) = clock::time_raw(|| {
            tr.span("splice", i as u64, || {
                let res = svc.splice_session(id, e.at, 1, &Input::Lexemes(vec![e.lexeme.clone()]));
                let verdict = res.as_ref().map_err(|e| e.to_string()).and_then(|_| {
                    svc.session_status(id)
                        .map(|st| Outcome::Verdict(st.prefix_is_sentence))
                        .map_err(|e| e.to_string())
                });
                (res, verdict)
            })
        });
        out.push(s * 1e3, i == 0);
        if let Ok(r) = res {
            out.splices.push((r.refed, r.converged_at.is_some()));
        }
        check.check("serve edit verdict", &verdict, Outcome::Verdict(true));
    }
    let fin =
        svc.finish_session(id).map(|r| Outcome::Verdict(r.accepted)).map_err(|e| e.to_string());
    check.check("serve final edited buffer", &fin, lane.final_ref);
}

/// Batches per round in `serve_mixed`: three PL/0 batches and one JSON
/// batch. A JSON batch takes about half as long as a PL/0 one, so an even
/// mix would put the median latency in the gap between the two.
pub const BATCHES_PER_ROUND: usize = 4;
const JSON_BATCH: usize = 2;
/// Rounds per live edit session (at least one a run). A service
/// session's first splice takes 10–400× the median edit, so sessions are
/// few: three a run at 15 seconds, of 332 edits each, so that the tail
/// rule's p98 has 19 edits beyond it and only three of them first
/// splices.
pub const EDIT_EVERY: usize = 80;
/// Distinct edit buffers, cycled over the edit sessions.
pub const EDIT_LANES: usize = 3;

/// `serve_mixed`: one client alternating document batches (PL/0 and JSON)
/// with live edit sessions on a two-worker `pwd-dfa` service, then the
/// canary ladders.
fn serve_mixed(seed: u64, p: &Plan, check: &mut Checker, tr: &mut Trace) -> Run {
    let pl0 = Grammar::new(Lang::Pl0);
    let json = Grammar::new(Lang::Json);
    let json_count = p.main * BATCH_DOCS;
    let pl0_docs = doc_stream(&pl0, seed, 3, 3 * json_count, &PL0_SIZES, 0.1);
    let json_docs = doc_stream(&json, seed, 4, json_count, &JSON_SIZES, 0.1);
    let pl0_refs = references(&pl0, &pl0_docs, false);
    let json_refs = references(&json, &json_docs, false);
    let lanes: Vec<EditLane> = (0..EDIT_LANES)
        .map(|i| EditLane::new(&pl0, p.edit_tokens, p.edits, sub_seed(seed, 5, i as u64)))
        .collect();
    let warm_pl0 = warm_docs(&pl0, 6 * BATCH_DOCS, 1000);
    let warm_json = warm_docs(&json, 6 * BATCH_DOCS, 1000);
    let warm_lane = EditLane::new(&pl0, 2_000, 10, 0x5E7);
    let rungs = canary_rungs(seed);
    let setup = || {
        let pl0 = Grammar::new(Lang::Pl0);
        let json = Grammar::new(Lang::Json);
        let service = Service::new("pwd-dfa", false, &[(&pl0, &warm_pl0), (&json, &warm_json)]);
        serve_edit_session(
            &service.svc,
            &pl0,
            &warm_lane,
            &mut Checker::new(false),
            &mut Trace::off(),
            &mut Edits::default(),
        );
        let mut ladders = Ladders::new();
        ladders.warm(&rungs);
        (service, pl0, json, ladders)
    };

    let mut run = Run::new(rungs.clone());
    let (service, pl0, json, mut ladders) = set_up(&mut run.setups, p.setups, setup);
    // The live edit sessions are part of this workload's main lane, spread
    // evenly over it.
    let sessions = (p.main / EDIT_EVERY).max(1);
    let edit_rounds: Vec<usize> = (1..=sessions).map(|j| j * p.main / sessions - 1).collect();
    run.main_lane(1, None, check, tr, |run, _, check, tr| {
        let (mut pi, mut ji) = (0, 0);
        for round in 0..p.main {
            for b in 0..BATCHES_PER_ROUND {
                let (g, docs, refs, at) = if b == JSON_BATCH {
                    (&json, &json_docs, &json_refs, &mut ji)
                } else {
                    (&pl0, &pl0_docs, &pl0_refs, &mut pi)
                };
                let batch = &docs[*at..*at + BATCH_DOCS];
                let tokens = batch.iter().map(|d| d.tokens).sum();
                let id = (round * BATCHES_PER_ROUND + b) as u64;
                let (answers, inputs) = run.log.time(tokens, || service.submit(g, batch, id, tr));
                for (k, (a, want)) in answers.iter().zip(&refs[*at..]).enumerate() {
                    check.check("serve batch verdict", a, *want);
                    let doc = id * BATCH_DOCS as u64 + k as u64;
                    tr.replay(g, doc, &batch[k].text, false, *want, check);
                }
                tr.direct(g, &inputs, false);
                *at += BATCH_DOCS;
            }
            if let Some(j) = edit_rounds.iter().position(|&r| r == round) {
                let lane = &lanes[j % EDIT_LANES];
                serve_edit_session(&service.svc, &pl0, lane, check, tr, &mut run.edits);
            }
            run.sample_rss((round + 1) * BATCHES_PER_ROUND * BATCH_DOCS);
        }
    });
    run.service = service.metrics();
    run.lane("canary", |run| {
        for _ in 0..CANARY_PASSES {
            let pass = ladders.pass(&run.rungs, &mut RequestLog::default(), check);
            run.passes.push(pass);
        }
    });
    run
}
