//! The benchmark's clock: wall time, scaled by the machine's speed over the
//! run.
//!
//! On a shared machine the memory system's speed swings by up to 1.8× over
//! seconds to minutes, with neighbours' load, while a register-only loop
//! keeps within 1%. The parser is bound by the same memory system, and a
//! fixed cache-bound kernel — random inserts into a ~1 MB hash table —
//! slows down with it: over two minutes of interleaved samples, the PL/0
//! verdict time's spread across 2-second blocks fell from 0.13 to 0.03 of
//! its median once divided by the kernel's, and the Python forest's from
//! 0.17 to 0.03. So the kernel runs between timed regions, every `EVERY_S`
//! of wall time (never inside one), and a timed region is reported as
//! `wall time × NOMINAL_S / median of the last WINDOW kernel times`. The
//! kernel is part of the benchmark, so no change to the program changes
//! it.
//!
//! Sub-millisecond edits, whose working set stays in the caches, do not
//! follow the kernel from moment to moment; they are timed raw with
//! [`time_raw`] and scaled by the median kernel time over their whole lane
//! ([`factor_since`]).

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's median time on the machine the figures were first taken
/// on (a 2-vCPU x86-64 VM), so that scaled times read as seconds there.
const NOMINAL_S: f64 = 0.0035;
/// Wall time between kernel runs.
const EVERY_S: f64 = 0.1;
/// Kernel runs the current speed is the median of.
const WINDOW: usize = 5;
/// Inserts per kernel run, and the table's key range.
const INSERTS: u64 = 100_000;
const KEYS: u64 = 50_000;

struct Calibration {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    fn kernel(&mut self) -> f64 {
        self.table.clear();
        let t0 = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..INSERTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *self.table.entry(x % KEYS).or_insert(0) += i;
        }
        std::hint::black_box(self.table.len());
        t0.elapsed().as_secs_f64()
    }

    /// Runs the kernel if it is due (`WINDOW` times on first use).
    fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed().as_secs_f64() >= EVERY_S) {
            let runs = if self.samples.is_empty() { WINDOW } else { 1 };
            for _ in 0..runs {
                let k = self.kernel();
                self.samples.push(k);
            }
            self.last = Some(Instant::now());
        }
    }

    /// `NOMINAL_S` over the median of the kernel times from `from` on.
    fn factor(&self, from: usize) -> f64 {
        let mut v = self.samples[from.min(self.samples.len() - 1)..].to_vec();
        v.sort_by(f64::total_cmp);
        NOMINAL_S / v[v.len() / 2]
    }
}

thread_local! {
    static CAL: RefCell<Calibration> = RefCell::new(Calibration {
        table: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
        samples: Vec::new(),
        last: None,
    });
}

/// Times `f`: returns its result and its time in scaled seconds. The
/// kernel, when due, runs before `f` starts.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let factor = CAL.with(|c| {
        let mut c = c.borrow_mut();
        c.tick();
        c.factor(c.samples.len().saturating_sub(WINDOW))
    });
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * factor)
}

/// Times `f` in unscaled wall seconds, for [`factor_since`] to scale. The
/// kernel, when due, runs before `f` starts.
pub fn time_raw<R>(f: impl FnOnce() -> R) -> (R, f64) {
    CAL.with(|c| c.borrow_mut().tick());
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A point in the kernel's sample sequence.
pub fn mark() -> usize {
    CAL.with(|c| {
        let mut c = c.borrow_mut();
        c.tick();
        c.samples.len()
    })
}

/// The scale factor for what ran since `mark`: `NOMINAL_S` over the median
/// kernel time since then, with the number of kernel runs it rests on.
pub fn factor_since(mark: usize) -> (f64, usize) {
    CAL.with(|c| {
        let mut c = c.borrow_mut();
        c.tick();
        (c.factor(mark), c.samples.len().saturating_sub(mark).max(1))
    })
}
