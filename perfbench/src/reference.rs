//! Independent answers the measured outputs are checked against: a
//! from-scratch GLR parse (a different algorithm than the derivative
//! engine under test) and, for the ambiguous ladder, the Catalan-number
//! recurrence.

use crate::inputs::Grammar;
use derp::api::{GlrBackend, Recognizer, Session, TreeCount};
use derp::lex::Lexeme;

/// What a request returns, reduced to what is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Verdict(bool),
    Forest { count: TreeCount, fingerprint: u64 },
}

/// The GLR reference for one grammar.
pub struct Reference {
    glr: GlrBackend,
}

impl Reference {
    pub fn new(g: &Grammar) -> Reference {
        Reference { glr: GlrBackend::prepare(&g.cfg) }
    }

    pub fn verdict(&mut self, lexemes: &[Lexeme]) -> Outcome {
        let mut s = Session::open(&mut self.glr).expect("glr opens");
        s.feed_lexemes(lexemes).expect("glr feeds");
        Outcome::Verdict(s.finish().expect("glr finishes"))
    }

    pub fn forest(&mut self, lexemes: &[Lexeme]) -> Outcome {
        let mut s = Session::open(&mut self.glr).expect("glr opens");
        s.feed_lexemes(lexemes).expect("glr feeds");
        let f = s.finish_forest().expect("glr builds forests");
        Outcome::Forest { count: f.count(), fingerprint: f.fingerprint() }
    }

    /// Reference for `lexemes`, in the shape `forest` selects.
    pub fn outcome(&mut self, lexemes: &[Lexeme], forest: bool) -> Outcome {
        if forest {
            self.forest(lexemes)
        } else {
            self.verdict(lexemes)
        }
    }
}

/// Trees of `aⁿ` under `S → S S | a`: Catalan(n − 1), by the recurrence
/// `C₀ = 1, Cₖ₊₁ = Σ Cᵢ·Cₖ₋ᵢ`, or `Overflow` once it passes `u128`.
pub fn catalan_trees(n: usize) -> TreeCount {
    if n == 0 {
        return TreeCount::Finite(0);
    }
    let mut c: Vec<Option<u128>> = vec![Some(1)];
    for k in 0..n - 1 {
        let mut sum = Some(0u128);
        for i in 0..=k {
            let term = match (c[i], c[k - i]) {
                (Some(a), Some(b)) => a.checked_mul(b),
                _ => None,
            };
            sum = match (sum, term) {
                (Some(s), Some(t)) => s.checked_add(t),
                _ => None,
            };
        }
        c.push(sum);
    }
    c[n - 1].map_or(TreeCount::Overflow, TreeCount::Finite)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalan_numbers() {
        let first: Vec<TreeCount> = (1..=6).map(catalan_trees).collect();
        let want = [1, 1, 2, 5, 14, 42].map(TreeCount::Finite);
        assert_eq!(first, want);
        assert_eq!(catalan_trees(11), TreeCount::Finite(16796));
        assert_eq!(catalan_trees(128), TreeCount::Overflow);
    }
}
