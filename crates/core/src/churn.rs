//! Restart hooks for dynamic structures.
//!
//! The paper's algorithms are defined on a *fixed* structure; when the
//! structure churns at runtime (amoebots joining, leaving, crashing — see
//! `amoebot-dynamics`), the sound recovery is to restart the affected
//! algorithm on the post-churn structure. These hooks make that restart a
//! one-call operation:
//!
//! * [`remap_terminals`] pushes a terminal set (sources, destinations)
//!   through the churn id map, dropping casualties;
//! * [`restart_spt`] re-runs the shortest path tree after a churn event,
//!   re-anchoring a dead source and degrading an emptied destination set
//!   to SSSP, and folds the cost into a [`RestartCounter`] so a churn
//!   scenario reports one aggregate round/beep account across all its
//!   restarts.
//!
//! Restart-from-scratch is the honest baseline the paper supports; an
//! incremental repair of the SPT under churn is open follow-up work
//! (ROADMAP), and when it lands it can be differential-tested against
//! exactly these hooks.

use amoebot_grid::{AmoebotStructure, NodeId};
use amoebot_telemetry::{CounterId, Metrics};

use crate::forest::ForestOutcome;
use crate::spt::shortest_path_tree;

/// Aggregate cost of algorithm restarts across the churn events of one
/// scenario run, backed by the telemetry registry so a scenario's
/// restart account folds into its metrics report for free.
#[derive(Debug, Clone)]
pub struct RestartCounter {
    metrics: Metrics,
    restarts: CounterId,
    rounds: CounterId,
    beeps: CounterId,
}

impl Default for RestartCounter {
    fn default() -> RestartCounter {
        let mut metrics = Metrics::new();
        let restarts = metrics.counter("spt_restarts");
        let rounds = metrics.counter("spt_restart_rounds");
        let beeps = metrics.counter("spt_restart_beeps");
        RestartCounter {
            metrics,
            restarts,
            rounds,
            beeps,
        }
    }
}

impl RestartCounter {
    /// Folds one restart's cost into the aggregate.
    pub fn absorb(&mut self, rounds: u64, beeps: u64) {
        self.metrics.inc(self.restarts);
        self.metrics.add(self.rounds, rounds);
        self.metrics.add(self.beeps, beeps);
    }

    /// Number of restarts absorbed.
    pub fn restarts(&self) -> u64 {
        self.metrics.get(self.restarts)
    }

    /// Total simulator rounds across all restarts.
    pub fn rounds(&self) -> u64 {
        self.metrics.get(self.rounds)
    }

    /// Total beeps across all restarts.
    pub fn beeps(&self) -> u64 {
        self.metrics.get(self.beeps)
    }

    /// The backing registry, for merging into a scenario report.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// Pushes `terminals` through a churn id map (`map[old] = Some(new)` for
/// survivors, `None` for casualties), dropping the casualties. The order
/// of survivors is preserved; duplicates are not introduced.
pub fn remap_terminals(map: &[Option<NodeId>], terminals: &[NodeId]) -> Vec<NodeId> {
    terminals.iter().filter_map(|t| map[t.index()]).collect()
}

/// One restart's result together with the terminals it effectively ran
/// with (after casualty re-anchoring) — exactly what a validator needs
/// to check the tree against centralized BFS.
#[derive(Debug, Clone)]
pub struct SptRestart {
    /// The restarted algorithm's outcome.
    pub outcome: ForestOutcome,
    /// The source actually used (re-anchored if the original died).
    pub source: NodeId,
    /// The destination set actually used (all nodes if the original set
    /// died).
    pub dests: Vec<NodeId>,
}

/// Restarts the shortest path tree on a post-churn structure snapshot.
///
/// `source` and `dests` are given in the snapshot's (dense) id space —
/// run them through [`remap_terminals`] first. Two churn casualties are
/// absorbed here so every event has a well-defined restart:
///
/// * a dead source (`None`) is re-anchored at the lowest surviving
///   destination (or node 0 if the destination set died too);
/// * an emptied destination set degrades to SSSP (every node becomes a
///   destination), which is the paper's `ℓ = n` special case.
///
/// The outcome's rounds/beeps are folded into `counter`.
pub fn restart_spt(
    structure: &AmoebotStructure,
    source: Option<NodeId>,
    dests: &[NodeId],
    counter: &mut RestartCounter,
) -> SptRestart {
    let dests: Vec<NodeId> = if dests.is_empty() {
        structure.nodes().collect()
    } else {
        dests.to_vec()
    };
    let source = source.unwrap_or_else(|| dests.first().copied().unwrap_or(NodeId(0)));
    let outcome = shortest_path_tree(structure, source, &dests);
    counter.absorb(outcome.rounds, outcome.beeps);
    SptRestart {
        outcome,
        source,
        dests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, validate_forest};

    #[test]
    fn remap_drops_casualties_and_renumbers_survivors() {
        // Old ids 0..5; ids 1 and 3 died, the rest compacted densely.
        let map = vec![
            Some(NodeId(0)),
            None,
            Some(NodeId(1)),
            None,
            Some(NodeId(2)),
        ];
        let t = remap_terminals(&map, &[NodeId(4), NodeId(1), NodeId(0), NodeId(3)]);
        assert_eq!(t, vec![NodeId(2), NodeId(0)]);
        assert!(remap_terminals(&map, &[NodeId(1)]).is_empty());
    }

    #[test]
    fn restart_produces_a_valid_tree_and_accumulates() {
        let s = AmoebotStructure::new(shapes::parallelogram(6, 3)).unwrap();
        let mut counter = RestartCounter::default();
        let dests = vec![NodeId(10), NodeId(17)];
        let r = restart_spt(&s, Some(NodeId(0)), &dests, &mut counter);
        assert_eq!(r.source, NodeId(0));
        assert_eq!(r.dests, dests);
        assert!(validate_forest(&s, &[NodeId(0)], &dests, &r.outcome.parents).is_empty());
        assert_eq!(counter.restarts(), 1);
        assert_eq!(counter.rounds(), r.outcome.rounds);
        assert_eq!(
            counter.metrics().counter_value("spt_restart_rounds"),
            counter.rounds()
        );
        let r1 = counter.rounds();
        // Second restart on the same snapshot accumulates.
        restart_spt(&s, Some(NodeId(0)), &dests, &mut counter);
        assert_eq!(counter.restarts(), 2);
        assert_eq!(counter.rounds(), 2 * r1);
    }

    #[test]
    fn dead_source_reanchors_on_a_destination() {
        let s = AmoebotStructure::new(shapes::line(8)).unwrap();
        let mut counter = RestartCounter::default();
        let dests = vec![NodeId(5), NodeId(7)];
        let r = restart_spt(&s, None, &dests, &mut counter);
        // Re-anchored at dests[0] = 5: a valid ({5}, dests) forest.
        assert_eq!(r.source, NodeId(5));
        assert!(validate_forest(&s, &[NodeId(5)], &dests, &r.outcome.parents).is_empty());
    }

    #[test]
    fn dead_destination_set_degrades_to_sssp() {
        let s = AmoebotStructure::new(shapes::hexagon(2)).unwrap();
        let mut counter = RestartCounter::default();
        let r = restart_spt(&s, Some(NodeId(3)), &[], &mut counter);
        let all: Vec<NodeId> = s.nodes().collect();
        assert_eq!(r.dests, all);
        assert!(validate_forest(&s, &[NodeId(3)], &all, &r.outcome.parents).is_empty());
    }
}
