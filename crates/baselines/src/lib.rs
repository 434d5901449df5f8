//! Baseline shortest-path algorithms for the amoebot model (system S14/S15).
//!
//! These reproduce the comparison points of the paper's related-work and §5
//! discussion:
//!
//! * [`bfs_wavefront`] — the circuit-less amoebot baseline: information
//!   travels amoebot-by-amoebot, so a multi-source BFS wave needs
//!   `ecc(S) ≤ diam(G_X)` rounds (the Ω(diam) regime the reconfigurable
//!   circuit extension escapes; cf. Kostitsyna et al.'s O(diam) feather
//!   trees).
//! * [`sequential_forest`] — the naive multi-source solution sketched at the
//!   start of §5: build an {s}-forest per source with the shortest path tree
//!   algorithm and fold them in with the merging algorithm, `O(k log n)`
//!   rounds, against which the divide & conquer algorithm's
//!   `O(log n log² k)` wins for large `k`.

use amoebot_circuits::{Topology, World};
use amoebot_grid::{AmoebotStructure, NodeId};
use amoebot_spf::forest::merge::merge_forests;
use amoebot_spf::forest::Forest;
use amoebot_spf::links::LINKS;
use amoebot_spf::spt::spt_in_world;

/// Outcome of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Parents of the computed S-shortest-path forest (`None` for sources).
    pub parents: Vec<Option<NodeId>>,
    /// Rounds consumed under the baseline's model.
    pub rounds: u64,
    /// Distinct beeps sent, where the baseline runs on the circuit model
    /// (0 for the circuit-less wavefront baseline).
    pub beeps: u64,
}

/// Multi-source BFS wavefront in the plain (circuit-less) amoebot model.
///
/// Round `t` activates every amoebot at distance `t` from `S`: it observes
/// which neighbors joined at `t - 1` and adopts one as its parent. The round
/// count is the eccentricity of `S` — linear in the diameter, the bound the
/// paper's polylogarithmic algorithms beat (experiment E18).
pub fn bfs_wavefront(structure: &AmoebotStructure, sources: &[NodeId]) -> BaselineOutcome {
    let n = structure.len();
    assert!(!sources.is_empty(), "S must be non-empty");
    let mut level: Vec<Option<u32>> = vec![None; n];
    let mut parents: Vec<Option<NodeId>> = vec![None; n];
    for &s in sources {
        level[s.index()] = Some(0);
    }
    let mut frontier: Vec<NodeId> = sources.to_vec();
    let mut rounds = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for (_, w) in structure.neighbors_of(v) {
                if level[w.index()].is_none() {
                    level[w.index()] = Some(rounds + 1);
                    parents[w.index()] = Some(v);
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        rounds += 1;
        frontier = next;
    }
    BaselineOutcome {
        parents,
        rounds: rounds as u64,
        beeps: 0,
    }
}

/// The naive sequential multi-source algorithm of §5: one shortest path
/// tree per source, folded together with the merging algorithm —
/// `O(k log n)` rounds on the reconfigurable-circuit model.
pub fn sequential_forest(structure: &AmoebotStructure, sources: &[NodeId]) -> BaselineOutcome {
    let n = structure.len();
    assert!(!sources.is_empty(), "S must be non-empty");
    let mut world = World::new(Topology::from_structure(structure), LINKS);
    let mask = vec![true; n];
    let all_mask = vec![true; n];
    let mut acc: Option<Forest> = None;
    for &s in sources {
        let parents = spt_in_world(&mut world, structure, &mask, s.index(), &all_mask);
        let mut f = Forest::from_parents(parents, vec![s.index()]);
        f.member = vec![true; n];
        acc = Some(match acc {
            None => f,
            Some(prev) => merge_forests(&mut world, &prev, &f),
        });
    }
    let forest = acc.expect("at least one source");
    BaselineOutcome {
        parents: forest
            .parents
            .iter()
            .map(|p| p.map(|v| NodeId(v as u32)))
            .collect(),
        rounds: world.rounds(),
        beeps: world.beeps_sent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, validate_forest};

    #[test]
    fn wavefront_matches_ground_truth() {
        let s = AmoebotStructure::new(shapes::hexagon(3)).unwrap();
        let sources = [NodeId(0), NodeId(20)];
        let out = bfs_wavefront(&s, &sources);
        let all: Vec<NodeId> = s.nodes().collect();
        let violations = validate_forest(&s, &sources, &all, &out.parents);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn wavefront_rounds_equal_eccentricity() {
        let s = AmoebotStructure::new(shapes::line(33)).unwrap();
        let out = bfs_wavefront(&s, &[NodeId(0)]);
        assert_eq!(out.rounds, 32);
        let out = bfs_wavefront(&s, &[NodeId(16)]);
        assert_eq!(out.rounds, 16);
    }

    #[test]
    fn sequential_forest_is_correct_but_slow() {
        let s = AmoebotStructure::new(shapes::parallelogram(8, 4)).unwrap();
        let sources = [NodeId(0), NodeId(15), NodeId(31)];
        let out = sequential_forest(&s, &sources);
        let all: Vec<NodeId> = s.nodes().collect();
        let violations = validate_forest(&s, &sources, &all, &out.parents);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn sequential_rounds_grow_linearly_in_k() {
        let s = AmoebotStructure::new(shapes::parallelogram(10, 5)).unwrap();
        let pick = |k: usize| -> Vec<NodeId> {
            (0..k)
                .map(|i| NodeId((i * (s.len() - 1) / k) as u32))
                .collect()
        };
        let r2 = sequential_forest(&s, &pick(2)).rounds;
        let r8 = sequential_forest(&s, &pick(8)).rounds;
        assert!(
            r8 as f64 >= 2.5 * r2 as f64,
            "sequential merging must scale with k: {r2} -> {r8}"
        );
    }
}
