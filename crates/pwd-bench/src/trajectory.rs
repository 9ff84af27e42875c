//! The shared `BENCH_*.json` trajectory writer and reader.
//!
//! Every gated bench records its machine-readable trajectory at the
//! workspace root in this one schema. Each line is one sample:
//!
//! ```text
//! {"bench":"lexeme_diverse","name":"tokens=1019/recognize_speedup",
//!  "value":2.31,"unit":"ratio","timestamp":"1754524800","gate":"pass"}
//! ```
//!
//! * `bench` — the bench binary's name (also names the output file,
//!   `BENCH_<bench>.json`).
//! * `name` — the metric, with any corpus-size qualifier folded in.
//! * `value`/`unit` — the measurement (`ns`, `tokens/s`, `ratio`, …).
//! * `timestamp` — from the CI environment (`BENCH_TIMESTAMP`,
//!   `SOURCE_DATE_EPOCH`, or `GITHUB_RUN_ID`, first set wins) so trajectory
//!   lines from one CI run share one stamp; local runs fall back to wall
//!   clock seconds.
//! * `gate` — `"pass"`/`"fail"` when the sample is a gated threshold
//!   check, `null` for plain measurements.

use std::time::{SystemTime, UNIX_EPOCH};

/// Accumulates samples for one bench and writes `BENCH_<bench>.json` at the
/// workspace root.
#[derive(Debug)]
pub struct Trajectory {
    bench: String,
    timestamp: String,
    records: Vec<String>,
}

/// One CI-run-stable timestamp: the first set variable of `BENCH_TIMESTAMP`,
/// `SOURCE_DATE_EPOCH`, `GITHUB_RUN_ID`; otherwise wall-clock seconds.
fn ci_timestamp() -> String {
    for var in ["BENCH_TIMESTAMP", "SOURCE_DATE_EPOCH", "GITHUB_RUN_ID"] {
        if let Ok(v) = std::env::var(var) {
            if !v.is_empty() {
                return v;
            }
        }
    }
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_default()
}

impl Trajectory {
    /// Starts a trajectory for `bench` (callers pass a plain identifier;
    /// names are not JSON-escaped).
    pub fn new(bench: &str) -> Trajectory {
        Trajectory { bench: bench.to_string(), timestamp: ci_timestamp(), records: Vec::new() }
    }

    /// Records one plain measurement and echoes it to stdout.
    pub fn record(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, None);
    }

    /// Records a gated threshold check (`passed` becomes `"pass"`/`"fail"`)
    /// and echoes it to stdout. Recording happens *before* the caller
    /// asserts, so a failed gate still leaves its evidence in the file.
    pub fn gate(&mut self, name: &str, value: f64, unit: &str, passed: bool) {
        self.push(name, value, unit, Some(passed));
    }

    fn push(&mut self, name: &str, value: f64, unit: &str, gate: Option<bool>) {
        let gate = match gate {
            None => "null".to_string(),
            Some(true) => "\"pass\"".to_string(),
            Some(false) => "\"fail\"".to_string(),
        };
        let line = format!(
            "{{\"bench\":\"{}\",\"name\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\",\
             \"timestamp\":\"{}\",\"gate\":{gate}}}",
            self.bench, self.timestamp,
        );
        println!("{line}");
        self.records.push(line);
    }

    /// Lines recorded so far (primarily for tests and for benches that
    /// merge a carried-over baseline).
    pub fn lines(&self) -> &[String] {
        &self.records
    }

    /// Prepends an already-formatted line (used to carry a baseline sample
    /// from a previous run forward into the rewritten file).
    pub fn carry_line(&mut self, line: String) {
        self.records.insert(0, line);
    }

    /// Writes `BENCH_<bench>.json` at the workspace root; pass
    /// `env!("CARGO_MANIFEST_DIR")`. A write failure is reported, not fatal
    /// — the measurements were already printed.
    pub fn write(&self, manifest_dir: &str) {
        let path = path(manifest_dir, &self.bench);
        if let Err(e) = std::fs::write(&path, self.records.join("\n") + "\n") {
            eprintln!("note: could not write {path}: {e}");
        }
    }

    /// Reads the sample `name` back out of a previously written
    /// `BENCH_<bench>.json`, returning its whole line (for
    /// [`carry_line`](Self::carry_line)) and its value. `None` when the
    /// file or the sample is missing. A targeted string scan: the schema
    /// is this module's own fixed format, and the workspace deliberately
    /// carries no JSON parser.
    pub fn read(manifest_dir: &str, bench: &str, name: &str) -> Option<(String, f64)> {
        let text = std::fs::read_to_string(path(manifest_dir, bench)).ok()?;
        let needle = format!("\"name\":\"{name}\",");
        let line = text.lines().find(|l| l.contains(&needle))?;
        let rest = line.split("\"value\":").nth(1)?;
        let value = rest.split(',').next()?.parse().ok()?;
        Some((line.to_string(), value))
    }
}

fn path(manifest_dir: &str, bench: &str) -> String {
    format!("{manifest_dir}/../../BENCH_{bench}.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_follow_the_stable_schema() {
        let mut t = Trajectory::new("demo");
        t.record("tokens=100/speed", 42.5, "tokens/s");
        t.gate("tokens=100/speedup", 2.0, "ratio", true);
        t.gate("tokens=100/overhead", 9.0, "percent", false);
        let lines = t.lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"bench\":\"demo\",\"name\":\"tokens=100/speed\""));
        assert!(lines[0].contains("\"value\":42.5,\"unit\":\"tokens/s\""));
        assert!(lines[0].ends_with("\"gate\":null}"));
        assert!(lines[1].ends_with("\"gate\":\"pass\"}"));
        assert!(lines[2].ends_with("\"gate\":\"fail\"}"));
        for line in lines {
            assert!(line.contains("\"timestamp\":\""));
        }
    }

    #[test]
    fn write_lands_two_levels_above_the_manifest_dir() {
        let root = std::env::temp_dir().join(format!("pwd-trajectory-{}", std::process::id()));
        let manifest = root.join("crates").join("pwd-bench");
        std::fs::create_dir_all(&manifest).unwrap();
        let mut t = Trajectory::new("write_test");
        t.record("n", 1.0, "count");
        t.carry_line("{\"bench\":\"write_test\",\"name\":\"carried\"}".to_string());
        t.write(manifest.to_str().unwrap());
        let written = std::fs::read_to_string(root.join("BENCH_write_test.json")).unwrap();
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"carried\""), "carried line comes first");
        assert!(lines[1].contains("\"name\":\"n\""));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn read_returns_what_write_recorded_including_carried_lines() {
        let root = std::env::temp_dir().join(format!("pwd-trajectory-read-{}", std::process::id()));
        let manifest = root.join("crates").join("pwd-bench");
        std::fs::create_dir_all(&manifest).unwrap();
        let dir = manifest.to_str().unwrap();
        let mut baseline = Trajectory::new("read_test");
        baseline.record("tokens=9/base_ns", 1234.5, "ns");
        baseline.write(dir);

        let (carried, value) = Trajectory::read(dir, "read_test", "tokens=9/base_ns").unwrap();
        assert_eq!(value, 1234.5);
        let mut rerun = Trajectory::new("read_test");
        rerun.gate("tokens=9/ratio", -0.25, "ratio", true);
        rerun.record("tokens=9/base_ns_total", 1e-3, "ns");
        rerun.carry_line(carried);
        rerun.write(dir);

        let read = |name| Trajectory::read(dir, "read_test", name).map(|(_, v)| v);
        assert_eq!(read("tokens=9/base_ns"), Some(1234.5), "carried line survives the rewrite");
        assert_eq!(read("tokens=9/ratio"), Some(-0.25));
        assert_eq!(read("tokens=9/base_ns_total"), Some(1e-3), "names match exactly");
        assert_eq!(read("tokens=9"), None);
        assert_eq!(Trajectory::read(dir, "no_such_bench", "tokens=9/ratio"), None);
        std::fs::remove_dir_all(&root).ok();
    }
}
