//! Hypervisor steal time: the share of a stretch of wall time in which the
//! host ran something else while this machine's virtual CPUs wanted to run.
//!
//! On a shared virtual host, steal comes in episodes of seconds to minutes.
//! The calibration kernel does not track it for the open loop: a request
//! crosses several thread hand-offs, each of which waits out a stolen vCPU,
//! so on a 2-vCPU Xeon guest 10–25 % steal turned the `fleet_daemon` median
//! of 1.2 ms into 2–19 ms. A measured window (an open-loop window, a search
//! step or a closed-loop segment) whose steal share is above [`MAX_STEAL`]
//! is therefore run again with fresh requests, within a per-run wall-time
//! budget. Every attempt's responses are still checked and counted; only a
//! re-run window's latencies are dropped. Steal is read from the aggregate
//! `cpu` line of `/proc/stat`; where that is unreadable the share is 0 and
//! nothing is re-run.

use std::time::{Duration, Instant};

/// The highest steal share a kept window may have.
pub const MAX_STEAL: f64 = 0.02;

/// Cumulative (steal, total) clock ticks over all CPUs.
#[derive(Debug, Clone, Copy)]
pub struct Ticks(Option<(u64, u64)>);

impl Ticks {
    pub fn now() -> Ticks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Ticks(None);
        };
        // user nice system idle iowait irq softirq steal; the guest columns
        // that follow are already counted in user and nice.
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map_while(|f| f.parse().ok())
            .collect();
        Ticks((v.len() == 8).then(|| (v[7], v.iter().sum())))
    }

    /// Steal share of the wall time between `self` and `later`.
    pub fn share_until(self, later: Ticks) -> f64 {
        match (self.0, later.0) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Decides which windows are run again, within a wall-time budget.
#[derive(Debug)]
pub struct Reruns {
    budget: Duration,
    spent: Duration,
    /// Windows measured, kept or not.
    pub attempts: usize,
    /// Windows dropped for steal and run again.
    pub reruns: usize,
    /// Steal share of each kept window.
    pub kept: Vec<f64>,
}

impl Reruns {
    pub fn new(budget: Duration) -> Reruns {
        Reruns {
            budget,
            spent: Duration::ZERO,
            attempts: 0,
            reruns: 0,
            kept: Vec::new(),
        }
    }

    /// Records a window that started at `started` with steal share
    /// `share`; true when it is to be dropped and run again.
    pub fn rerun(&mut self, share: f64, started: Instant) -> bool {
        self.attempts += 1;
        if share > MAX_STEAL && self.spent < self.budget {
            self.spent += started.elapsed();
            self.reruns += 1;
            return true;
        }
        self.kept.push(share);
        false
    }

    /// One report line.
    pub fn summary(&self, what: &str) -> String {
        format!(
            "{what}: {} of {} windows re-run for steal above {:.0}% ({:.1} s of re-runs); kept windows' steal median {:.2}%, max {:.2}%",
            self.reruns,
            self.attempts,
            100.0 * MAX_STEAL,
            self.spent.as_secs_f64(),
            100.0 * crate::stats::median(&self.kept),
            100.0 * self.kept.iter().copied().fold(0.0, f64::max)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_is_steal_over_total() {
        let a = Ticks(Some((10, 1000)));
        let b = Ticks(Some((40, 2000)));
        assert_eq!(a.share_until(b), 0.03);
        assert_eq!(Ticks(None).share_until(b), 0.0);
    }

    #[test]
    fn reruns_stop_when_the_budget_is_spent() {
        let mut r = Reruns::new(Duration::ZERO);
        assert!(!r.rerun(0.5, Instant::now()));
        let mut r = Reruns::new(Duration::from_secs(60));
        assert!(r.rerun(0.5, Instant::now()));
        assert!(!r.rerun(0.01, Instant::now()));
        assert_eq!((r.attempts, r.reruns, r.kept.len()), (2, 1, 1));
    }
}
