//! The traced run: the workload's own code, run once untraced and once
//! with spans recorded around the public calls it makes, plus a layer by
//! layer replay of a share of its requests.
//!
//! The fused path interleaves lexing and feeding per token, so every
//! `REPLAY_EVERY`-th request is replayed, after it was served and outside
//! its timing, as nested spans `request` → `lex` (the lexer alone) →
//! `resolve` (`Compiled::tokens_from_lexemes`: kind lookup and interning)
//! → `core` (`ParseSession::feed_all` on the resolved tokens) → `forest`
//! (forest extraction and canonicalization, when the request builds one).
//! The API layer (`Session::feed_lexemes` + `finish` on pre-lexed input)
//! is timed on the same request with observability off and on. Spans stay
//! in memory and are written as a Chrome trace when the run ends. No span
//! is recorded inside the program.

use crate::engine::{forest as fused_forest, verdict as fused_verdict, Checker};
use crate::engine::{warm_docs, Answer, Metrics, Rungs};
use crate::inputs::{depth_input, Grammar, Lang};
use crate::reference::{catalan_trees, Outcome};
use crate::stats::{linear_slope, loglog_slope, median, quantile};
use crate::workloads::{self, Plan, Run};
use derp::api::{PwdBackend, Recognizer, Session};
use derp::core::{ParseMode, ParseSession, ParserConfig};
use derp::grammar::Compiled;
use pwd_serve::Input;
use std::collections::BTreeMap;
use std::time::Instant;

/// Nanoseconds since `t0`.
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// One request in this many is replayed layer by layer.
pub const REPLAY_EVERY: u64 = 6;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Counters summed over replayed requests.
#[derive(Default)]
pub struct Counts {
    tokens: u64,
    work: u64,
    memo_hits: u64,
    auto_hits: u64,
    auto_fallbacks: u64,
    live: u64,
    forest_nodes: u64,
    forest_tokens: u64,
    fused_ns: u64,
    api_ns: u64,
    api_obs_ns: u64,
    direct_ns: u64,
}

/// The tracer a workload run is handed. Switched off, it records nothing and
/// reads no clock: `span` just calls its closure and `replay` returns.
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    replays: Vec<Replay>,
    counts: Counts,
}

impl Trace {
    pub fn off() -> Trace {
        Trace {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            replays: Vec::new(),
            counts: Counts::default(),
        }
    }

    fn on() -> Trace {
        Trace { on: true, ..Trace::off() }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = ns_since(self.origin);
        self.spans.push(Span { name, start, end: start, parent, request });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) -> u64 {
        let s = &mut self.spans[id];
        s.end = ns_since(self.origin);
        s.end - s.start
    }

    /// Runs `f` under a top-level span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let s = self.begin(name, None, request);
        let r = f();
        self.end(s);
        r
    }

    /// Index of the replay engines for `g`'s requests (built and warmed on
    /// first use, as the workload's set-up warms its own).
    fn replay_index(&mut self, g: &Grammar, forests: bool) -> usize {
        let found = self.replays.iter().position(|r| r.g.lang == g.lang && r.forests == forests);
        found.unwrap_or_else(|| {
            let warm = warm_docs(g, if forests { 2 } else { 8 }, 1000);
            let texts: Vec<String> = warm.into_iter().map(|d| d.text).collect();
            self.replays.push(Replay::new(Grammar::new(g.lang), forests, false, &texts));
            self.replays.len() - 1
        })
    }

    /// Replays request `id` (text in, `want` out) layer by layer, if it is
    /// one of every `REPLAY_EVERY`, and checks the replayed answer.
    pub fn replay(
        &mut self,
        g: &Grammar,
        id: u64,
        text: &str,
        forests: bool,
        want: Outcome,
        check: &mut Checker,
    ) {
        if !self.on || !id.is_multiple_of(REPLAY_EVERY) {
            return;
        }
        let at = self.replay_index(g, forests);
        let mut r = self.replays.swap_remove(at);
        let got = r.run(self, id, text, false);
        self.replays.push(r);
        check.check("traced replay", &got, want);
    }

    /// Parses a batch's inputs directly on one thread, as the service's
    /// workers do, for `serve.parallel_efficiency`.
    pub fn direct(&mut self, g: &Grammar, inputs: &[Input], forests: bool) {
        if !self.on {
            return;
        }
        let at = self.replay_index(g, forests);
        let api = &mut self.replays[at].api;
        let t0 = Instant::now();
        for input in inputs {
            let Input::Lexemes(l) = input else { continue };
            let mut s = Session::open(api).expect("opens");
            s.feed_lexemes(l).expect("feeds");
            if forests {
                s.finish_forest().expect("forest");
            } else {
                s.finish().expect("verdict");
            }
        }
        self.counts.direct_ns += ns_since(t0);
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover.
    fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }

    /// Durations of the spans named `name`.
    fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Writes the spans as a Chrome `trace_event` file.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events: Vec<derp::obs::TraceEvent> = self
            .spans
            .iter()
            .map(|s| derp::obs::TraceEvent {
                name: format!("{} #{}", s.name, s.request),
                cat: "perfbench",
                ts_ns: s.start,
                dur_ns: s.end - s.start,
                tid: 0,
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, derp::obs::chrome_trace_json(&events))
    }
}

// ---------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------

/// The configuration of the `pwd-dfa` backend (recognize mode, automaton
/// on) or of `pwd-improved` (parse mode).
fn engine_config(parse: bool) -> ParserConfig {
    if parse {
        ParserConfig::improved()
    } else {
        ParserConfig { mode: ParseMode::Recognize, ..ParserConfig::improved() }
    }
}

fn backend(g: &Grammar, parse: bool) -> PwdBackend {
    if parse {
        PwdBackend::improved(&g.cfg)
    } else {
        PwdBackend::dfa(&g.cfg)
    }
}

/// Engines that replay requests of one grammar layer by layer.
struct Replay {
    g: Grammar,
    forests: bool,
    compiled: Compiled,
    /// Serves the fused request the layers are set beside.
    fused: PwdBackend,
    api: PwdBackend,
}

impl Replay {
    /// Requests that build forests run in parse mode; verdict requests run
    /// on the `pwd-dfa` configuration unless `parse_mode` asks for
    /// `pwd-improved` (the depth ladder's recognize on `pwd-improved`).
    /// Every engine is warmed on `warm` first.
    fn new(g: Grammar, forests: bool, parse_mode: bool, warm: &[String]) -> Replay {
        let parse = forests || parse_mode;
        let mut r = Replay {
            compiled: Compiled::compile(&g.cfg, engine_config(parse)),
            fused: backend(&g, parse),
            api: backend(&g, parse),
            g,
            forests,
        };
        let mut scratch = Trace::on();
        for text in warm {
            r.run(&mut scratch, 0, text, false).expect("warm-up parses");
        }
        r
    }

    /// One request: the fused path on its own engine (the time the layers
    /// are set beside), the layer-by-layer replay under a `request` span,
    /// and the API pass with observability off and on. `count` puts the
    /// exact tree count inside forest requests (the ambiguity ladder).
    /// Returns the replayed answer.
    fn run(&mut self, tr: &mut Trace, id: u64, text: &str, count: bool) -> Answer {
        let t0 = Instant::now();
        if self.forests {
            fused_forest(&self.g, &mut self.fused, text).map(|f| count.then(|| f.count()))?;
        } else {
            fused_verdict(&self.g, &mut self.fused, text)?;
        }
        let fused_ns = ns_since(t0);

        let c = &mut tr.counts;
        c.fused_ns += fused_ns;
        let req = tr.begin("request", None, id);
        let s = tr.begin("lex", Some(req), id);
        let lexemes = self.g.lex(text)?;
        tr.end(s);
        self.compiled.lang.reset();
        let s = tr.begin("resolve", Some(req), id);
        let toks = self.compiled.tokens_from_lexemes(&lexemes).map_err(|e| e.to_string())?;
        tr.end(s);
        let start = self.compiled.start;
        let s = tr.begin("core", Some(req), id);
        let mut session =
            ParseSession::start(&mut self.compiled.lang, start).map_err(|e| e.to_string())?;
        session.feed_all(&toks).map_err(|e| e.to_string())?;
        let accepted = session.prefix_is_sentence();
        tr.end(s);
        let answer = if self.forests {
            let s = tr.begin("forest", Some(req), id);
            let forest = if accepted {
                let root = session.forest().map_err(|e| e.to_string())?;
                session.finish();
                self.compiled.lang.canonical_forest(root).map_err(|e| e.to_string())?
            } else {
                session.finish();
                derp::api::ParseForest::rejected()
            };
            let n = count.then(|| forest.count());
            tr.end(s);
            let n = n.unwrap_or_else(|| forest.count());
            tr.counts.forest_nodes += forest.forest().len() as u64;
            tr.counts.forest_tokens += toks.len() as u64;
            Outcome::Forest { count: n, fingerprint: forest.fingerprint() }
        } else {
            session.finish();
            Outcome::Verdict(accepted)
        };
        tr.end(req);
        let m = *self.compiled.lang.metrics();
        let c = &mut tr.counts;
        c.tokens += toks.len() as u64;
        c.work += m.derive_calls;
        c.memo_hits += m.derive_hits();
        c.auto_hits += m.auto_table_hits;
        c.auto_fallbacks += m.auto_fallbacks;
        c.live += self.compiled.lang.node_count() as u64;

        for obs in [id.is_multiple_of(2), !id.is_multiple_of(2)] {
            self.api.set_obs(obs);
            let s = tr.begin(if obs { "api_obs" } else { "api" }, None, id);
            let mut session = Session::open(&mut self.api).map_err(|e| e.to_string())?;
            session.feed_lexemes(&lexemes).map_err(|e| e.to_string())?;
            session.finish().map_err(|e| e.to_string())?;
            let ns = tr.end(s);
            if obs {
                tr.counts.api_obs_ns += ns;
            } else {
                tr.counts.api_ns += ns;
            }
        }
        self.api.set_obs(false);
        Ok(answer)
    }
}

/// One layer-replayed pass over the ladders, on engines of its own.
/// Records the ladder-only metrics (`forest.length_exponent`,
/// `forest.count_ms`, `forest.ambiguity_top_s`, `core.depth_work_exponent`,
/// `core.depth_top_s`) and returns the pass's trace.
fn ladder_layers(m: &mut Metrics, rungs: &Rungs, check: &mut Checker) -> Trace {
    let mut tr = Trace::on();
    let warm = |t: &str| vec![t.to_string()];
    let mut length = Replay::new(Grammar::new(Lang::Pl0), true, true, &warm(&rungs.length[0].text));
    let mut points = Vec::new();
    for (i, d) in rungs.length.iter().enumerate() {
        let before = tr.total("forest");
        let got = length.run(&mut tr, 1000 + i as u64, &d.text, false);
        check.check("traced length rung", &got, rungs.length_refs[i]);
        points.push((d.tokens as f64, (tr.total("forest") - before) as f64));
    }
    m.put("forest.length_exponent", loglog_slope(&points), "slope");
    let length_tr = std::mem::replace(&mut tr, Trace::on());

    let arith = Grammar::new(Lang::Arith);
    let mut depth = Replay::new(arith, false, true, &[depth_input(rungs.depth[0])]);
    let mut work = Vec::new();
    let mut top_ns = 0;
    for (i, &n) in rungs.depth.iter().enumerate() {
        let before = (tr.counts.work, tr.counts.fused_ns);
        let got = depth.run(&mut tr, 2000 + i as u64, &depth_input(n), false);
        check.check("traced depth rung", &got, Outcome::Verdict(true));
        work.push((n as f64, (tr.counts.work - before.0) as f64));
        top_ns = tr.counts.fused_ns - before.1;
    }
    m.put("core.depth_top_s", top_ns as f64 / 1e9, "s");
    m.put("core.depth_work_exponent", loglog_slope(&work), "slope");
    m.note(format!("depth ladder work: {work:?}"));

    let catalan = Grammar::new(Lang::Catalan);
    let top = *rungs.ambiguity.last().expect("rungs");
    let mut amb = Replay::new(catalan, true, true, &["a".repeat(rungs.ambiguity[0])]);
    for (i, &n) in rungs.ambiguity.iter().enumerate() {
        let before = tr.counts.fused_ns;
        let got = amb.run(&mut tr, 3000 + i as u64, &"a".repeat(n), true).map(|o| match o {
            Outcome::Forest { count, .. } => Outcome::Forest { count, fingerprint: 0 },
            v => v,
        });
        let want = Outcome::Forest { count: catalan_trees(n), fingerprint: 0 };
        check.check("traced ambiguity rung", &got, want);
        if n == top {
            m.put("forest.ambiguity_top_s", (tr.counts.fused_ns - before) as f64 / 1e9, "s");
        }
    }
    let f = fused_forest(&amb.g, &mut amb.fused, &"a".repeat(top)).expect("catalan parses");
    let s = tr.begin("count", None, 3999);
    let count = f.count();
    let ns = tr.end(s);
    let got = Ok(Outcome::Verdict(count == catalan_trees(top)));
    check.check("traced top count", &got, Outcome::Verdict(true));
    m.put("forest.count_ms", ns as f64 / 1e6, "ms");
    length_tr
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

/// The layer table and the per-layer metrics of the request replay.
fn layer_metrics(m: &mut Metrics, tr: &Trace, forests: bool) {
    let c = &tr.counts;
    let selfs = tr.self_times();
    let request_total = tr.total("request").max(1) as f64;
    let tokens = c.tokens.max(1) as f64;
    let layer = |name: &str| *selfs.get(name).unwrap_or(&0) as f64;
    m.note("layer      self ms     share   ns/token".into());
    for name in ["request", "lex", "resolve", "core", "forest"] {
        let ns = layer(name);
        m.note(format!(
            "{name:<9} {:>8.2} {:>9.4} {:>10.1}",
            ns / 1e6,
            ns / request_total,
            ns / tokens
        ));
    }
    for name in ["lex", "resolve", "core"] {
        m.put(&format!("{name}.ns_per_token"), layer(name) / tokens, "ns");
        m.put(&format!("{name}.share"), layer(name) / request_total, "frac");
    }
    let layer_sum = layer("lex") + layer("resolve") + layer("core") + layer("forest");
    m.note(format!(
        "layer-by-layer sum {:.2} ms beside the same requests fused {:.2} ms",
        layer_sum / 1e6,
        c.fused_ns as f64 / 1e6,
    ));
    m.put("trace.layer_sum_ratio", layer_sum / c.fused_ns.max(1) as f64, "ratio");
    m.put("api.ns_per_token", c.api_ns as f64 / tokens, "ns");
    m.put("api.core_ratio", c.api_ns as f64 / layer("core").max(1.0), "ratio");
    m.put("api.obs_on_ratio", c.api_obs_ns as f64 / c.api_ns.max(1) as f64, "ratio");
    m.put("core.work_per_token", c.work as f64 / tokens, "count");
    m.put("core.memo_hit_ratio", c.memo_hits as f64 / c.work.max(1) as f64, "frac");
    let auto = c.auto_hits + c.auto_fallbacks;
    m.put("core.auto_hit_ratio", c.auto_hits as f64 / auto.max(1) as f64, "frac");
    m.put("core.live_per_token", c.live as f64 / tokens, "count");
    m.put("forest.share", layer("forest") / request_total, "frac");
    if forests {
        let forest_tokens = c.forest_tokens.max(1) as f64;
        m.put("forest.ns_per_token", layer("forest") / forest_tokens, "ns");
        m.put("forest.nodes_per_token", c.forest_nodes as f64 / forest_tokens, "count");
    }
    m.put("count.core_work", c.work as f64, "count");
    m.put("count.auto_table_hits", c.auto_hits as f64, "count");
    m.put("count.forest_nodes", c.forest_nodes as f64, "count");
}

/// Serve metrics: span times around the client's lexing and
/// `submit_batch`, and the service's own counters.
fn serve_metrics(m: &mut Metrics, tr: &Trace, run: &Run) {
    let (sm, workers) = run.service.as_ref().expect("every workload drives a service");
    let submit_total = tr.total("submit");
    let lex_total = tr.total("client_lex");
    let ms: Vec<f64> = tr.durations("submit").iter().map(|&n| n as f64 / 1e6).collect();
    m.put("serve.submit_ms", median(&ms), "ms");
    m.put("serve.client_lex_share", lex_total as f64 / (lex_total + submit_total) as f64, "frac");
    m.put(
        "serve.parallel_efficiency",
        tr.counts.direct_ns as f64 / (*workers as f64 * submit_total as f64),
        "frac",
    );
    let lookups = sm.cache.hits + sm.cache.misses;
    m.put("serve.cache_hit_ratio", sm.cache.hits as f64 / lookups.max(1) as f64, "frac");
    let sessions = sm.sessions.reused + sm.sessions.forked;
    m.put("serve.session_reuse_ratio", sm.sessions.reused as f64 / sessions.max(1) as f64, "frac");
    m.put("count.serve_cache_hits", sm.cache.hits as f64, "count");
    m.put("count.serve_sessions_forked", sm.sessions.forked as f64, "count");
    m.put("count.serve_sessions_reused", sm.sessions.reused as f64, "count");
    m.put("count.serve_auto_rows_built", sm.memo.auto_rows_built as f64, "count");
}

/// Splice metrics over every edit of the run.
fn splice_metrics(m: &mut Metrics, run: &Run) {
    let e = &run.edits;
    let us: Vec<f64> = e.edit_ms.iter().map(|ms| ms * 1e3).collect();
    let p50 = median(&us);
    m.put("splice.us_per_edit", p50, "us");
    m.put("splice.p99_us", quantile(&us, 0.99), "us");
    m.put("splice.max_us", quantile(&us, 1.0), "us");
    m.put("splice.open_feed_ms", median(&e.open_ms), "ms");
    let refed: usize = e.splices.iter().map(|r| r.0).sum();
    let converged = e.splices.iter().filter(|r| r.1).count();
    let n = e.splices.len().max(1) as f64;
    m.put("splice.refed_per_edit", refed as f64 / n, "count");
    m.put("splice.converged_frac", converged as f64 / n, "frac");
    // A service session's first splice takes 10-400x the median edit (a
    // local session's about 2x); the share of such slow edits is tracked
    // here, and the first splices on their own.
    let first: Vec<f64> = e.first_ms.iter().map(|ms| ms * 1e3).collect();
    m.put("splice.first_edit_us", median(&first), "us");
    let slow = us.iter().filter(|&&u| u > 10.0 * p50).count();
    m.put("splice.slow_edit_frac", slow as f64 / us.len().max(1) as f64, "frac");
    m.note(format!("{slow} of {} edits took over 10x the median edit", us.len()));
    m.put("count.splice_refed", refed as f64, "count");
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// The traced run: the workload untraced, then traced, each on half the
/// untraced run's main operations (the two passes and the replays must
/// fit the time one run may take).
pub fn run(workload: &str, seed: u64, p: &Plan, check: &mut Checker) -> Metrics {
    let p = &Plan { main: (p.main / 2).max(2), ..*p };
    let untraced = workloads::run(workload, seed, p, check, &mut Trace::off());
    let mut tr = Trace::on();
    let run = workloads::run(workload, seed, p, check, &mut tr);
    let forests = matches!(workload, "python_forest");

    let mut m = Metrics::default();
    m.note(format!("each pass ran {} main operations", p.main));
    let ladder = ladder_layers(&mut m, &run.rungs, check);
    if workload == "scaling" {
        // Its requests are the ladders': the layer table is the replayed
        // length ladder's.
        layer_metrics(&mut m, &ladder, true);
    } else {
        layer_metrics(&mut m, &tr, forests);
    }
    if !forests && workload != "scaling" {
        let per_token = |n: f64| n / ladder.counts.forest_tokens.max(1) as f64;
        m.note("forest.ns_per_token and forest.nodes_per_token come from the length ladder: this workload's requests build no forests".into());
        m.put("forest.ns_per_token", per_token(ladder.total("forest") as f64), "ns");
        m.put("forest.nodes_per_token", per_token(ladder.counts.forest_nodes as f64), "count");
    }
    serve_metrics(&mut m, &tr, &run);
    splice_metrics(&mut m, &run);
    m.put("mem.rss_kb_per_doc", linear_slope(&run.rss), "kB");
    m.put("trace.overhead_ratio", run.log.total_s() / untraced.log.total_s(), "ratio");
    m.note(format!(
        "main-lane request time traced {:.3} s, untraced {:.3} s (scaled)",
        run.log.total_s(),
        untraced.log.total_s()
    ));
    m.notes.extend(run.notes);

    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let path =
        std::path::Path::new(&dir).join("perfbench").join(format!("trace_{workload}_{seed}.json"));
    match tr.write(&path) {
        Ok(()) => m.note(format!("{} spans written to {}", tr.spans.len(), path.display())),
        Err(e) => m.note(format!("trace not written: {e}")),
    }
    m
}
