//! Per-phase round accounting for composite algorithms.

use std::fmt;

/// A breakdown of the rounds an algorithm spent, by named phase.
///
/// Every [`World`](crate::World) keeps one, filled by
/// [`World::phase`](crate::World::phase); algorithms return it alongside
/// their output so the benchmark harness can attribute rounds to the
/// phases named in the paper's lemmas (e.g. "portal root-and-prune
/// (x-axis)", "merge level 3").
#[derive(Debug, Clone, Default)]
pub struct RoundReport {
    phases: Vec<(String, u64)>,
}

impl RoundReport {
    /// An empty report.
    pub fn new() -> RoundReport {
        RoundReport::default()
    }

    /// Records that `phase` took `rounds` rounds.
    pub(crate) fn record(&mut self, phase: impl Into<String>, rounds: u64) {
        self.phases.push((phase.into(), rounds));
    }

    /// Total rounds across all phases.
    pub fn total(&self) -> u64 {
        self.phases.iter().map(|&(_, r)| r).sum()
    }

    /// The recorded phases in order.
    pub fn phases(&self) -> &[(String, u64)] {
        &self.phases
    }
}

impl fmt::Display for RoundReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total rounds: {}", self.total())?;
        for (phase, rounds) in &self.phases {
            writeln!(f, "  {phase}: {rounds}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_display() {
        let mut r = RoundReport::new();
        r.record("a", 3);
        r.record("b", 4);
        assert_eq!(r.total(), 7);
        let s = r.to_string();
        assert!(s.contains("  a: 3"));
        assert!(s.contains("total rounds: 7"));
    }
}
