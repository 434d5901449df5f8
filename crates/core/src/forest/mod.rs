//! The shortest path forest algorithm for multiple sources (§5).
//!
//! * [`line`] — the line algorithm (§5.1, Lemma 40),
//! * [`merge`] — the merging algorithm (§5.2, Lemma 42),
//! * [`propagate`] — the propagation algorithm (§5.3, Lemma 50),
//! * [`dnc`] — the divide-and-conquer shortest path forest algorithm
//!   (§5.4, Theorem 56 / Corollary 57).

pub mod dnc;
pub mod line;
pub mod merge;
pub mod propagate;

use amoebot_circuits::{RoundReport, World};
use amoebot_grid::NodeId;

pub use dnc::shortest_path_forest;
pub use line::line_forest;
pub use merge::merge_forests;
pub use propagate::propagate_forest;

/// Result of the shortest path tree and forest algorithms.
#[derive(Debug, Clone)]
pub struct ForestOutcome {
    /// `parents[v]` in the `(S, D)`-shortest path forest (`None` for
    /// sources, pruned amoebots and non-members).
    pub parents: Vec<Option<NodeId>>,
    /// Total simulator rounds.
    pub rounds: u64,
    /// Total distinct beeps sent (diagnostic instrumentation of
    /// [`World::beeps_sent`]; the model itself never counts beeps).
    pub beeps: u64,
    /// Per-phase breakdown ([`World::report`]).
    pub report: RoundReport,
}

impl ForestOutcome {
    /// The outcome of a run that computed `parents` in `world`.
    ///
    /// # Panics
    ///
    /// Panics if the world's phase ledger misses some of its rounds.
    pub(crate) fn new(world: &World, parents: Vec<Option<NodeId>>) -> ForestOutcome {
        let report = world.report().clone();
        assert_eq!(
            report.total(),
            world.rounds(),
            "every round belongs to a phase:\n{report}"
        );
        ForestOutcome {
            parents,
            rounds: world.rounds(),
            beeps: world.beeps_sent(),
            report,
        }
    }
}

/// An S-shortest-path forest over a region: every member either is a source
/// (root) or knows its parent; `dist(S, v)` equals the member's tree depth.
/// The members are therefore the sources and every amoebot with a parent.
#[derive(Debug, Clone)]
pub struct Forest {
    /// Parent pointers (`None` for sources and non-members).
    pub parents: Vec<Option<usize>>,
    /// The sources (roots).
    pub sources: Vec<usize>,
}

impl Forest {
    /// The membership flags: the sources and every amoebot with a parent.
    pub fn members(&self) -> Vec<bool> {
        let mut member: Vec<bool> = self.parents.iter().map(Option::is_some).collect();
        for &s in &self.sources {
            member[s] = true;
        }
        member
    }
}
