//! Small numeric helpers: a seeded generator, order statistics, log-log
//! fits, and process memory readings.

/// SplitMix64: a tiny, fully deterministic generator for input shapes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Derives an independent seed for item `index` of stream `stream`.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ index.rotate_left(17));
    r.next_u64()
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile rule: the highest percentile of this ladder that
/// leaves at least ten samples beyond it.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// `(percentile, samples beyond it, value)` for a latency sample.
pub fn tail(xs: &[f64]) -> (f64, usize, f64) {
    let n = xs.len();
    for p in TAIL_LADDER {
        let tenths = (p * 10.0).round() as usize;
        let beyond = n * (1000 - tenths) / 1000;
        if beyond >= 10 || p == 50.0 {
            return (p, beyond, quantile(xs, p / 100.0));
        }
    }
    unreachable!("the ladder ends at the median")
}

/// Least-squares slope of `ln y` against `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-12).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Least-squares slope of `y` against `x`.
pub fn linear_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let den = n * sxx - sx * sx;
    if den == 0.0 {
        0.0
    } else {
        (n * sxy - sx * sy) / den
    }
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`); 0 when absent.
pub fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resets the process's peak RSS (VmHWM) to its current RSS, so the next
/// reading covers only what runs after this call.
pub fn reset_peak_rss() {
    // Best effort: without it, the peak also covers earlier work.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, beyond, _) = tail(&xs);
        assert_eq!((p, beyond), (99.0, 10));
        let (p, beyond, _) = tail(&xs[..60]);
        assert_eq!((p, beyond), (80.0, 12));
    }

    #[test]
    fn slopes() {
        let cubic: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, (i * i * i) as f64)).collect();
        assert!((loglog_slope(&cubic) - 3.0).abs() < 1e-9);
        assert!((linear_slope(&[(0.0, 1.0), (2.0, 5.0)]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(5), Rng::new(5));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(sub_seed(1, 2, 3), sub_seed(1, 2, 4));
    }
}
