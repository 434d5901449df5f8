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
    let mut dest_mask = vec![false; structure.len()];
    for &d in dests {
        dest_mask[d.index()] = true;
    }
    let parents = spt_in_world(&mut world, structure, source.index(), &dest_mask);
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

/// Runs `body` as a sub-run on `structure` (the whole structure or an
/// [`induced`] region) in a fresh child world that `world` absorbs
/// ([`World::absorb`]): the sub-run's rounds, beeps and charges count in
/// `world`, and the child world is dropped when `body` returns.
pub(crate) fn sub_run<T>(
    world: &mut World,
    structure: &AmoebotStructure,
    body: impl FnOnce(&mut World) -> T,
) -> T {
    let mut child = World::new(Topology::from_structure(structure), LINKS);
    let out = body(&mut child);
    world.absorb(child);
    out
}

/// The sub-structure of `structure` induced by the region `members`, whose
/// ids ascend: local id `i` is `members[i]`, so local ids keep every
/// id-ordered tie-break of the algorithms.
///
/// # Panics
///
/// Panics if the region is not connected.
pub(crate) fn induced(structure: &AmoebotStructure, members: &[usize]) -> AmoebotStructure {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascend");
    AmoebotStructure::new(members.iter().map(|&v| structure.coord(NodeId(v as u32))))
        .expect("a region is a connected sub-structure")
}

/// The region SPT of §5.3 phase 2 and the §5.4.3 pair merges: the shortest
/// path tree from `source` to every member of the region `members`
/// (ascending), run on the [`induced`] sub-structure as a [`sub_run`].
/// Returns the members' parents in local ids (indices into `members`),
/// aligned with them.
///
/// # Panics
///
/// Panics if `source` is not a member or the region is not connected.
pub(crate) fn region_sssp(
    world: &mut World,
    structure: &AmoebotStructure,
    members: &[usize],
    source: usize,
) -> Vec<Option<usize>> {
    let local_source = members.partition_point(|&v| v < source);
    assert_eq!(
        members.get(local_source),
        Some(&source),
        "source must lie in the region"
    );
    let sub = induced(structure, members);
    sub_run(world, &sub, |w| {
        spt_in_world(w, &sub, local_source, &vec![true; members.len()])
    })
}

/// The SPT of Theorem 39 over the whole `structure` in `world`, with the
/// destinations flagged in `dest_mask`. Returns chosen parents (plain
/// `usize` indices).
pub fn spt_in_world(
    world: &mut World,
    structure: &AmoebotStructure,
    source: usize,
    dest_mask: &[bool],
) -> Vec<Option<usize>> {
    let n = structure.len();
    if !(0..n).any(|v| dest_mask[v] && v != source) {
        return vec![None; n];
    }

    // Phase 1-3: portal root-and-prune per axis (rooted at the source's
    // portal, Q = destination portals).
    let mut feasible = vec![[true; 6]; n]; // and-accumulated across axes
    let whole = vec![true; n];
    for axis in ALL_AXES {
        let ap = axis_portals(structure, &whole, axis);
        let prp = world.phase(format!("portal root-and-prune ({axis}-axis)"), |w| {
            let q_portals = mark_portals(w, &ap, dest_mask);
            portal_root_and_prune(w, structure, &ap, ap.portal_of[source], &q_portals)
        });
        // A neighbor via direction d contributes to Equation (1) through
        // this axis iff d is parallel to the axis (same portal, difference
        // 0) or points into the parent portal (difference +1).
        for v in 0..n {
            for d in ALL_DIRECTIONS {
                let ok = d.axis() == axis || prp.parent_side[v][d.index()];
                feasible[v][d.index()] &= ok;
            }
        }
    }

    // Parent choice (Equation 1 / Lemma 38): local, no communication.
    let mut chosen: Vec<Option<usize>> = vec![None; n];
    for v in (0..n).filter(|&v| v != source) {
        chosen[v] = ALL_DIRECTIONS
            .into_iter()
            .filter(|d| feasible[v][d.index()])
            .find_map(|d| structure.neighbor(NodeId(v as u32), d))
            .map(NodeId::index);
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

    /// Runs `region_sssp` in a world that already spent rounds: the tree
    /// must be a shortest path tree of the induced region, and the world
    /// must gain exactly a stand-alone run's rounds and beeps.
    fn check_region_sssp(s: &AmoebotStructure, members: &[usize], source: usize) {
        let mut world = World::new(Topology::from_structure(s), LINKS);
        world.tick();
        world.charge_rounds(2, "earlier glue");
        let (rounds, beeps) = (world.rounds(), world.beeps_sent());
        let parents = region_sssp(&mut world, s, members, source);
        let local_source = NodeId(members.binary_search(&source).unwrap() as u32);
        let sub = induced(s, members);
        let local_parents: Vec<Option<NodeId>> = parents
            .iter()
            .map(|p| p.map(|l| NodeId(l as u32)))
            .collect();
        let all: Vec<NodeId> = sub.nodes().collect();
        let violations = validate_forest(&sub, &[local_source], &all, &local_parents);
        assert!(violations.is_empty(), "{violations:?}");
        let alone = sssp(&sub, local_source);
        assert_eq!(world.rounds() - rounds, alone.rounds);
        assert_eq!(world.beeps_sent() - beeps, alone.beeps);
    }

    #[test]
    fn region_sssp_on_half_plane_regions() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [20usize, 60, 150] {
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            let seed = rng.gen_range(0..n);
            // The component of the half plane `q <= cut` around `seed`.
            let cut = s.coord(NodeId(seed as u32)).q;
            let (mut in_half, mut stack) = (vec![false; n], vec![seed]);
            in_half[seed] = true;
            while let Some(v) = stack.pop() {
                for (_, w) in s.neighbors_of(NodeId(v as u32)) {
                    if s.coord(w).q <= cut && !std::mem::replace(&mut in_half[w.index()], true) {
                        stack.push(w.index());
                    }
                }
            }
            let half: Vec<usize> = (0..n).filter(|&v| in_half[v]).collect();
            check_region_sssp(&s, &half, half[rng.gen_range(0..half.len())]);
            check_region_sssp(&s, &[seed], seed);
            let (_, w) = s.neighbors_of(NodeId(seed as u32)).next().unwrap();
            let pair = [seed.min(w.index()), seed.max(w.index())];
            check_region_sssp(&s, &pair, seed);
            check_region_sssp(&s, &pair, w.index());
        }
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
