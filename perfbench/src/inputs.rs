//! Seeded inputs: the grammars and lexers under test, generated documents,
//! one-token mutants, and single-token edit scripts.
//!
//! Everything here runs before any timer starts; the parser under test
//! only ever sees the generated texts.

use crate::stats::{sub_seed, Rng};
use derp::grammar::{gen, grammars, Cfg};
use derp::lex::{Lexeme, Lexer, LexerBuilder, SourceTokens};

/// The languages the workloads feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    Pl0,
    Python,
    Json,
    Arith,
    Catalan,
}

/// A grammar with its lexer. Python has no table lexer: its tokenizer
/// tracks indentation, so it is a function instead.
pub struct Grammar {
    pub lang: Lang,
    pub cfg: Cfg,
    lexer: Option<Lexer>,
}

impl Grammar {
    /// Builds the grammar and lexer (set-up work: callers time it).
    pub fn new(lang: Lang) -> Grammar {
        let (cfg, lexer) = match lang {
            Lang::Pl0 => (grammars::pl0::cfg(), Some(grammars::pl0::lexer())),
            Lang::Python => (grammars::python::cfg(), None),
            Lang::Json => (grammars::json::cfg(), Some(grammars::json::lexer())),
            Lang::Arith => (grammars::arith::cfg(), Some(grammars::arith::lexer())),
            Lang::Catalan => (grammars::ambiguous::catalan(), Some(catalan_lexer())),
        };
        Grammar { lang, cfg, lexer }
    }

    /// The streaming scan of `text`, for languages with a table lexer.
    pub fn source<'l, 's>(&'l self, text: &'s str) -> Option<SourceTokens<'l, 's>> {
        self.lexer.as_ref().map(|lx| lx.source(text))
    }

    /// Lexes `text` into owned lexemes.
    pub fn lex(&self, text: &str) -> Result<Vec<Lexeme>, String> {
        match &self.lexer {
            Some(lx) => lx.tokenize(text).map_err(|e| e.to_string()),
            None => derp::lex::tokenize_python(text).map_err(|e| e.to_string()),
        }
    }
}

fn catalan_lexer() -> Lexer {
    LexerBuilder::new()
        .rule("a", "a")
        .expect("static pattern")
        .skip("WS", "[ \t\n]+")
        .expect("static pattern")
        .build()
}

/// One generated input document.
#[derive(Debug, Clone)]
pub struct Doc {
    pub text: String,
    /// Exact token count (lexed once at generation time).
    pub tokens: usize,
    /// Carries a one-token mutation, so its verdict comes from the
    /// reference parser rather than from construction.
    pub mutant: bool,
}

/// Generates a document of about `target` tokens.
pub fn generate(g: &Grammar, target: usize, seed: u64) -> Doc {
    let text = match g.lang {
        Lang::Pl0 => gen::pl0_source(target, seed, 0.1),
        Lang::Python => gen::python_source(target, seed),
        Lang::Json => json_document(g, target, seed),
        Lang::Arith => depth_input(target),
        Lang::Catalan => gen::ambiguous_input(target),
    };
    let tokens = g.lex(&text).expect("generated documents lex").len();
    Doc { text, tokens, mutant: false }
}

/// A JSON array of generated values, about `target` tokens long. The
/// generator alone stops near 150–360 tokens whatever the target (its
/// nesting is capped), which would make JSON batches a fraction of the
/// size of PL/0 ones.
fn json_document(g: &Grammar, target: usize, seed: u64) -> String {
    let mut parts = Vec::new();
    let mut tokens = 1;
    while tokens < target {
        let v = gen::json_source(300, sub_seed(seed, 0x15, parts.len() as u64));
        tokens += g.lex(&v).expect("generated JSON lexes").len() + 1;
        parts.push(v);
    }
    format!("[{}]", parts.join(", "))
}

/// `(`ⁿ `1` `)`ⁿ: nesting depth `n` for the arithmetic grammar.
pub fn depth_input(n: usize) -> String {
    format!("{}1{}", "(".repeat(n), ")".repeat(n))
}

/// Terminal spellings a mutation may substitute, per language.
fn spellings(lang: Lang) -> &'static [&'static str] {
    match lang {
        Lang::Pl0 => &[
            "begin", "end", "if", "then", "while", "do", ":=", ";", ",", ".", "=", "<", "+", "*",
            "(", ")", "[", "]", "v1", "42", "call", "odd",
        ],
        Lang::Json => &["{", "}", "[", "]", ",", ":", "\"k\"", "7", "true", "null"],
        _ => &[],
    }
}

/// Replaces one token of `doc` with another terminal spelling. The text
/// is rebuilt with single spaces between tokens (valid for the table
/// lexers, which skip whitespace).
pub fn mutate(g: &Grammar, doc: &Doc, rng: &mut Rng) -> Doc {
    let lexemes = g.lex(&doc.text).expect("generated documents lex");
    let options = spellings(g.lang);
    let at = rng.below(lexemes.len());
    let mut replacement = options[rng.below(options.len())];
    if replacement == lexemes[at].text {
        replacement = options[(rng.below(options.len() - 1) + 1) % options.len()];
    }
    let words: Vec<&str> = lexemes
        .iter()
        .enumerate()
        .map(|(i, l)| if i == at { replacement } else { l.text.as_str() })
        .collect();
    let text = words.join(" ");
    let tokens = g.lex(&text).expect("mutants use valid spellings").len();
    Doc { text, tokens, mutant: true }
}

/// A stream of `count` distinct documents cycling through `sizes`, with
/// about `mutant_rate` of them mutated.
pub fn doc_stream(
    g: &Grammar,
    seed: u64,
    stream: u64,
    count: usize,
    sizes: &[usize],
    mutant_rate: f64,
) -> Vec<Doc> {
    let mut rng = Rng::new(sub_seed(seed, stream, u64::MAX));
    (0..count)
        .map(|i| {
            let doc = generate(g, sizes[i % sizes.len()], sub_seed(seed, stream, i as u64));
            if rng.chance(mutant_rate) {
                mutate(g, &doc, &mut rng)
            } else {
                doc
            }
        })
        .collect()
}

/// One single-token edit: replace the token at `at` with `lexeme`.
#[derive(Debug, Clone)]
pub struct Edit {
    pub at: usize,
    pub lexeme: Lexeme,
}

/// A seeded script of single-token edits over `buffer`: each retypes an
/// identifier or a number as another of the same kind, so every
/// intermediate buffer stays a sentence. Applies the script to a copy and
/// returns it alongside, as the final buffer the reference parses.
pub fn edit_script(buffer: &[Lexeme], count: usize, seed: u64) -> (Vec<Edit>, Vec<Lexeme>) {
    let mut rng = Rng::new(seed);
    let editable: Vec<usize> = buffer
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l.kind.as_str(), "ID" | "NUM" | "NAME" | "NUMBER"))
        .map(|(i, _)| i)
        .collect();
    let mut current = buffer.to_vec();
    let edits = (0..count)
        .map(|k| {
            let at = editable[rng.below(editable.len())];
            let old = &current[at];
            let text = if old.kind == "ID" || old.kind == "NAME" {
                format!("e{k}x{}", rng.below(1000))
            } else {
                rng.below(1_000_000).to_string()
            };
            let lexeme = Lexeme { kind: old.kind.clone(), text, offset: old.offset };
            current[at] = lexeme.clone();
            Edit { at, lexeme }
        })
        .collect();
    (edits, current)
}
