//! The shortest path tree algorithm for a single source (§4, Theorem 39).
//!
//! The algorithm roots all three portal graphs at the source's portals and
//! prunes subtrees without destination portals (three portal root-and-prune
//! executions). By Lemma 11, a neighbor `v` of `u` is a feasible parent iff
//! for the two axes not shared with `v`, `portal_d(v)` is the parent of
//! `portal_d(u)` (Equation 1). A fourth root-and-prune execution over the
//! chosen-parent graph extracts the tree containing `s` and prunes subtrees
//! and stray components without destinations.
//!
//! Round complexity: `O(log ℓ)` — each of the four root-and-prune
//! executions is `O(log ℓ)` because at most `ℓ` portals per axis hold
//! destinations. SPSP (`ℓ = 1`) is `O(1)` and SSSP (`ℓ = n`) is `O(log n)`
//! as special cases.

use amoebot_circuits::{Topology, World};
use amoebot_grid::{AmoebotStructure, NodeId, ALL_AXES, ALL_DIRECTIONS};

use crate::forest::ForestOutcome;
use crate::links::LINKS;
use crate::portals::{axis_portals, mark_portals, portal_root_and_prune};
use crate::primitives::root_prune::root_and_prune;
use crate::tree::Tree;

/// Computes a `({source}, dests)`-shortest path forest on a fresh world
/// (Theorem 39, `O(log ℓ)` rounds). The outcome's parents are `None` for
/// `s`, for non-members, and for amoebots pruned in the final cleanup.
///
/// # Panics
///
/// Panics if the structure is not hole-free or `dests` is empty.
pub fn shortest_path_tree(
    structure: &AmoebotStructure,
    source: NodeId,
    dests: &[NodeId],
) -> ForestOutcome {
    assert!(!dests.is_empty(), "D must be non-empty");
    let mut world = World::new(Topology::from_structure(structure), LINKS);
    let mask = vec![true; structure.len()];
    let mut dest_mask = vec![false; structure.len()];
    for &d in dests {
        dest_mask[d.index()] = true;
    }
    let parents = spt_in_world(&mut world, structure, &mask, source.index(), &dest_mask);
    let parents = parents
        .into_iter()
        .map(|p| p.map(|v| NodeId(v as u32)))
        .collect();
    ForestOutcome::new(&world, parents)
}

/// Solves the single pair shortest path problem (SPSP, `k = ℓ = 1`).
pub fn spsp(structure: &AmoebotStructure, source: NodeId, target: NodeId) -> ForestOutcome {
    shortest_path_tree(structure, source, &[target])
}

/// Solves the single source shortest path problem (SSSP, `ℓ = n`).
pub fn sssp(structure: &AmoebotStructure, source: NodeId) -> ForestOutcome {
    let all: Vec<NodeId> = structure.nodes().collect();
    shortest_path_tree(structure, source, &all)
}

/// The region-scoped SPT used both stand-alone and as a subroutine of the
/// propagation and merging algorithms (§5.3, §5.4.3). Operates on the
/// sub-structure selected by `mask`; `dest_mask` is intersected with it.
/// Returns chosen parents (plain `usize` indices).
pub fn spt_in_world(
    world: &mut World,
    structure: &AmoebotStructure,
    mask: &[bool],
    source: usize,
    dest_mask: &[bool],
) -> Vec<Option<usize>> {
    let n = structure.len();
    assert!(mask[source], "source must lie in the region");
    let dests: Vec<usize> = (0..n).filter(|&v| mask[v] && dest_mask[v]).collect();
    if dests.is_empty() || dests == [source] {
        return vec![None; n];
    }

    // Phase 1-3: portal root-and-prune per axis (rooted at the source's
    // portal, Q = destination portals).
    let mut feasible = vec![[true; 6]; n]; // and-accumulated across axes
    let flags: Vec<bool> = (0..n).map(|v| mask[v] && dest_mask[v]).collect();
    for axis in ALL_AXES {
        let ap = axis_portals(structure, mask, axis);
        let prp = world.phase(format!("portal root-and-prune ({axis}-axis)"), |w| {
            let q_portals = mark_portals(w, structure, mask, &ap, &flags);
            portal_root_and_prune(w, structure, mask, &ap, ap.portal_of[source], &q_portals)
        });
        // A neighbor via direction d contributes to Equation (1) through
        // this axis iff d is parallel to the axis (same portal, difference
        // 0) or points into the parent portal (difference +1).
        for v in 0..n {
            if !mask[v] {
                continue;
            }
            for d in ALL_DIRECTIONS {
                let ok = d.axis() == axis || prp.parent_side[v][d.index()];
                feasible[v][d.index()] &= ok;
            }
        }
    }

    // Parent choice (Equation 1 / Lemma 38): local, no communication.
    let mut chosen: Vec<Option<usize>> = vec![None; n];
    for v in 0..n {
        if !mask[v] || v == source {
            continue;
        }
        for d in ALL_DIRECTIONS {
            if !feasible[v][d.index()] {
                continue;
            }
            if let Some(w) = structure.neighbor(NodeId(v as u32), d) {
                if mask[w.index()] {
                    chosen[v] = Some(w.index());
                    break;
                }
            }
        }
    }

    // Phase 4: cleanup. Components not containing s never receive a signal
    // and prune themselves; the tree of s is rooted at s and pruned with
    // Q = D (Theorem 39's fourth root-and-prune execution).
    let mut comp = vec![false; n];
    comp[source] = true;
    // Children adjacency of the chosen-parent graph, in CSR form: two
    // counting passes over two flat arrays instead of `n` heap-allocated
    // vectors — this routine runs once per pairwise merge of the DnC
    // forest, so its constant factor is on the reconfiguration hot path.
    let mut child_off = vec![0u32; n + 1];
    for v in 0..n {
        if let Some(p) = chosen[v] {
            child_off[p + 1] += 1;
        }
    }
    for i in 0..n {
        child_off[i + 1] += child_off[i];
    }
    let mut children = vec![0u32; child_off[n] as usize];
    let mut cursor = child_off.clone();
    for v in 0..n {
        if let Some(p) = chosen[v] {
            children[cursor[p] as usize] = v as u32;
            cursor[p] += 1;
        }
    }
    let mut stack = vec![source];
    let mut edges = Vec::new();
    while let Some(v) = stack.pop() {
        for &w in &children[child_off[v] as usize..child_off[v + 1] as usize] {
            let w = w as usize;
            if !comp[w] {
                comp[w] = true;
                edges.push((v, w));
                stack.push(w);
            }
        }
    }
    let tree = Tree::from_edges(n, source, &edges);
    let q: Vec<bool> = (0..n).map(|v| comp[v] && dest_mask[v]).collect();
    let rp = world.phase("final root-and-prune (cleanup)", |w| {
        root_and_prune(w, std::slice::from_ref(&tree), &q)
    });

    (0..n)
        .map(|v| {
            if v != source && rp.in_vq[v] {
                let p = rp.parent[v];
                debug_assert_eq!(p, chosen[v], "cleanup must confirm the chosen parent");
                p
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, validate_forest, Coord};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_spt(structure: &AmoebotStructure, source: NodeId, dests: &[NodeId]) -> ForestOutcome {
        let out = shortest_path_tree(structure, source, dests);
        let violations = validate_forest(structure, &[source], dests, &out.parents);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(out.report.total(), out.rounds);
        out
    }

    #[test]
    fn sssp_on_parallelogram() {
        let s = AmoebotStructure::new(shapes::parallelogram(7, 4)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        check_spt(&s, NodeId(0), &all);
    }

    #[test]
    fn spsp_various_pairs() {
        let s = AmoebotStructure::new(shapes::hexagon(3)).unwrap();
        let n = s.len();
        for (a, b) in [(0usize, n - 1), (3, 7), (n / 2, 0)] {
            check_spt(&s, NodeId(a as u32), &[NodeId(b as u32)]);
        }
    }

    #[test]
    fn spsp_is_constant_rounds() {
        // Theorem 39 with ℓ = 1: rounds must not grow with n.
        let mut rounds = Vec::new();
        for w in [4usize, 8, 16] {
            let s = AmoebotStructure::new(shapes::parallelogram(w, 3)).unwrap();
            let src = s.node_at(Coord::new(0, 0)).unwrap();
            let dst = s.node_at(Coord::new(w as i32 - 1, 2)).unwrap();
            let out = check_spt(&s, src, &[dst]);
            rounds.push(out.rounds);
        }
        assert_eq!(rounds[0], rounds[1], "SPSP rounds must not depend on n");
        assert_eq!(rounds[1], rounds[2], "SPSP rounds must not depend on n");
    }

    #[test]
    fn concave_structures() {
        for coords in [
            shapes::comb(9, 4),
            shapes::l_shape(8, 2),
            shapes::staircase(6, 3),
        ] {
            let s = AmoebotStructure::new(coords).unwrap();
            let all: Vec<NodeId> = s.nodes().collect();
            check_spt(&s, NodeId((s.len() / 2) as u32), &all);
        }
    }

    #[test]
    fn random_blobs_random_destinations() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [10usize, 40, 120] {
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            let src = NodeId(rng.gen_range(0..n as u32));
            let l = rng.gen_range(1..=n);
            let dests: Vec<NodeId> = shapes::random_subset(n, l, &mut rng)
                .into_iter()
                .map(|i| NodeId(i as u32))
                .collect();
            check_spt(&s, src, &dests);
        }
    }

    #[test]
    fn line_structure() {
        let s = AmoebotStructure::new(shapes::line(12)).unwrap();
        check_spt(&s, NodeId(3), &[NodeId(0), NodeId(11)]);
    }

    #[test]
    fn destination_equals_source() {
        let s = AmoebotStructure::new(shapes::triangle(4)).unwrap();
        let out = shortest_path_tree(&s, NodeId(0), &[NodeId(0)]);
        // The forest is just the source; no parents anywhere.
        assert!(out.parents.iter().all(|p| p.is_none()));
    }

    #[test]
    fn rounds_scale_with_log_l_not_n() {
        // Fixed ℓ = 2, growing n: round count stays bounded by the ℓ-term.
        let mut rounds = Vec::new();
        for w in [6usize, 12, 24] {
            let s = AmoebotStructure::new(shapes::parallelogram(w, 4)).unwrap();
            let src = s.node_at(Coord::new(0, 0)).unwrap();
            let d1 = s.node_at(Coord::new(w as i32 - 1, 3)).unwrap();
            let d2 = s.node_at(Coord::new(w as i32 / 2, 1)).unwrap();
            let out = check_spt(&s, src, &[d1, d2]);
            rounds.push(out.rounds);
        }
        let spread = rounds.iter().max().unwrap() - rounds.iter().min().unwrap();
        assert!(
            spread <= 4,
            "rounds {rounds:?} must be (nearly) independent of n for fixed ℓ"
        );
    }
}
