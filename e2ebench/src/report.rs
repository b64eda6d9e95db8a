//! The run's result: metrics, notes and the pass/fail ledger, printed as a
//! readable report followed by the one-line JSON result.

use std::fmt::Write as _;

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
    /// Operations attempted (requests, frames or packets).
    pub attempted: u64,
    /// Operations that failed: error, shed or deadline responses and
    /// output mismatches.
    pub failed: u64,
}

impl Report {
    /// Sets metric `name` (replacing an earlier value).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Adds a line to the readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check that is not tied to one operation (the run
    /// is then incorrect).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Records `n` failed operations with a reason.
    pub fn fail_ops(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.failures.push(why.into());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Prints the readable report, then the JSON result restricted to the
    /// metric names in `keep` (in that order) as the last stdout line.
    pub fn print(&self, keep: &[&str]) {
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# failed_ratio = {ratio} ({} of {})",
            self.failed, self.attempted
        );
        for (n, v, u) in &self.metrics {
            println!("# {n:<40} {v:>16.4} {u}");
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for name in keep {
            let (v, u) = match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, v, u)) => (*v, *u),
                None => continue,
            };
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}");
        }
        s.push_str("}}");
        println!("{s}");
    }
}
