//! The Q'-centroid decomposition primitive (§3.4, Lemma 31).
//!
//! Recursively decomposes a tree at elected Q'-centroids. All recursions of
//! the same level run in parallel (their regions are node-disjoint, so their
//! circuits cannot interfere); after each level a global circuit checks
//! whether unelected Q' nodes remain.

use amoebot_circuits::World;

use crate::links::{BROADCAST, SYNC};
use crate::primitives::centroid::q_centroids;
use crate::primitives::election::elect;
use crate::tree::Tree;

/// A Q'-centroid decomposition tree `DT(T)` (§3.4).
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// `level[v]` = depth of `v` in `DT(T)` if `v ∈ Q'` was elected.
    pub level: Vec<Option<u32>>,
    /// `dt_parent[v]` = the centroid of the calling recursion.
    pub dt_parent: Vec<Option<usize>>,
    /// Number of recursion levels executed (Lemma 30: `O(log |Q|)`).
    pub levels: u32,
    /// Rounds the decomposition took in its world.
    pub rounds: u64,
}

impl Decomposition {
    /// The elected centroids at the given level, in node order.
    pub fn centroids_at_level(&self, level: u32) -> Vec<usize> {
        (0..self.level.len())
            .filter(|&v| self.level[v] == Some(level))
            .collect()
    }

    /// Height of the decomposition tree.
    pub fn height(&self) -> u32 {
        self.level.iter().flatten().copied().max().map_or(0, |h| h)
    }
}

/// Computes a Q'-centroid decomposition tree of `tree` (Lemma 31,
/// `O(log² |Q'|)` rounds). `q_prime` should be the augmented set
/// `Q ∪ A_Q` (Lemma 27 guarantees centroids exist at every recursion).
///
/// # Panics
///
/// Panics if `q_prime ∩ tree` is empty.
pub fn centroid_decomposition(world: &mut World, tree: &Tree, q_prime: &[bool]) -> Decomposition {
    let n = world.topology().len();
    let start = world.rounds();
    assert!(
        tree.members.iter().any(|&v| q_prime[v]),
        "Q' must be non-empty"
    );
    let mut remaining: Vec<bool> = (0..n).map(|v| tree.contains(v) && q_prime[v]).collect();
    let mut level: Vec<Option<u32>> = vec![None; n];
    let mut dt_parent: Vec<Option<usize>> = vec![None; n];

    // Region = (subtree, centroid of the calling recursion).
    let mut regions: Vec<(Tree, Option<usize>)> = vec![(tree.clone(), None)];
    let mut depth = 0u32;
    loop {
        // Run the centroid primitive + election on all regions in parallel.
        let trees: Vec<Tree> = regions.iter().map(|(t, _)| t.clone()).collect();
        let cents = q_centroids(world, &trees, &remaining);
        let elected = elect(world, &trees, &cents.is_centroid);

        let mut next_regions = Vec::new();
        for ((region, caller), chosen) in regions.iter().zip(&elected) {
            let c = chosen.expect("Corollary 28: every region has a Q'-centroid");
            level[c] = Some(depth);
            dt_parent[c] = *caller;
            remaining[c] = false;
            // Decompose at c: one candidate region per neighbor subtree.
            for sub in region.split_at(c) {
                next_regions.push((sub, Some(c), c));
            }
        }

        // One round: every candidate subtree forms a circuit on the
        // BROADCAST link along its tree edges; remaining Q' members beep;
        // silent subtrees are dropped (they contain no unelected Q').
        world.reset_all_pins_keeping_links(&[SYNC]);
        let mut pset_of: Vec<u16> = vec![u16::MAX; n];
        for (sub, _, _) in &next_regions {
            for &v in &sub.members {
                let pins: Vec<(usize, usize)> = sub.adj[v]
                    .iter()
                    .map(|&w| {
                        let port = world.topology().port_to(v, w).expect("edge");
                        (port, BROADCAST)
                    })
                    .collect();
                if !pins.is_empty() {
                    pset_of[v] = world.group_pins(v, &pins);
                }
                if remaining[v] && pset_of[v] != u16::MAX {
                    world.beep(v, pset_of[v]);
                }
            }
        }
        world.tick();
        regions = next_regions
            .into_iter()
            .filter(|(sub, _, _)| {
                // The new root hears the beep iff its subtree still holds
                // unelected Q' nodes; a singleton region checks locally.
                let r = sub.root;
                if sub.len() == 1 {
                    remaining[r]
                } else {
                    world.received(r, pset_of[r])
                }
            })
            .map(|(sub, caller, _)| (sub, caller))
            .collect();

        // Termination check (one round on the global circuit): unelected Q'
        // nodes beep; silence ends the decomposition.
        let sync_pset = World::global_link_pset(SYNC);
        let mut any = false;
        for v in 0..n {
            if remaining[v] {
                world.beep(v, sync_pset);
                any = true;
            }
        }
        world.tick();
        depth += 1;
        if !any {
            debug_assert!(regions.is_empty());
            break;
        }
        debug_assert!(!regions.is_empty(), "remaining Q' must lie in some region");
    }

    Decomposition {
        level,
        dt_parent,
        levels: depth,
        rounds: world.rounds() - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::Topology;

    use crate::links::LINKS;
    use crate::primitives::root_prune::root_and_prune;

    fn setup(edges: &[(usize, usize)], n: usize, root: usize) -> (World, Tree) {
        let topo = Topology::from_edges(n, edges);
        (World::new(topo, LINKS), Tree::from_edges(n, root, edges))
    }

    /// Builds Q' = Q ∪ A_Q via the root-and-prune primitive (Lemma 26).
    fn augmented(world: &mut World, tree: &Tree, q: &[bool]) -> Vec<bool> {
        let rp = root_and_prune(world, std::slice::from_ref(tree), q);
        let mut qp = q.to_vec();
        for v in rp.augmentation_set() {
            qp[v] = true;
        }
        qp
    }

    /// Validates a decomposition: every Q' node elected exactly once, DT
    /// edges connect to the calling recursion, and each DT subtree's Q'
    /// nodes shrink geometrically (height O(log |Q'|), Lemma 30).
    fn validate(tree: &Tree, q_prime: &[bool], d: &Decomposition) {
        let total: usize = tree.members.iter().filter(|&&v| q_prime[v]).count();
        let elected: usize = tree
            .members
            .iter()
            .filter(|&&v| d.level[v].is_some())
            .count();
        assert_eq!(elected, total, "every Q' node is elected exactly once");
        for &v in &tree.members {
            if let Some(l) = d.level[v] {
                assert!(q_prime[v]);
                match d.dt_parent[v] {
                    None => assert_eq!(l, 0),
                    Some(p) => {
                        let pl = d.level[p].expect("DT parent must be elected");
                        assert_eq!(pl + 1, l, "DT edges go to the calling recursion");
                    }
                }
            }
        }
        // Height bound: levels <= ceil(log2(total)) + 1.
        let bound = (usize::BITS - total.leading_zeros()) + 1;
        assert!(
            d.levels <= bound,
            "levels {} exceed log bound {bound} for |Q'| = {total}",
            d.levels
        );
    }

    #[test]
    fn decomposes_a_path() {
        let n = 16;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let (mut world, tree) = setup(&edges, n, 0);
        let q = vec![true; n];
        let qp = augmented(&mut world, &tree, &q);
        let d = centroid_decomposition(&mut world, &tree, &qp);
        validate(&tree, &qp, &d);
        // The level-0 centroid of an all-Q path is (one of) its middle nodes.
        let top = d.centroids_at_level(0);
        assert_eq!(top.len(), 1);
        assert!((6..=8).contains(&top[0]), "top centroid near the middle");
    }

    #[test]
    fn decomposes_sparse_q_with_augmentation() {
        // Spider with 3 legs; Q = the three tips. A_Q = {center}.
        let edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)];
        let (mut world, tree) = setup(&edges, 7, 2);
        let mut q = vec![false; 7];
        for tip in [2, 4, 6] {
            q[tip] = true;
        }
        let qp = augmented(&mut world, &tree, &q);
        assert!(qp[0], "center joins the augmentation set");
        let d = centroid_decomposition(&mut world, &tree, &qp);
        validate(&tree, &qp, &d);
        // The center must be the top centroid: each leg has 1 of 4 Q' nodes.
        assert_eq!(d.centroids_at_level(0), vec![0]);
    }

    #[test]
    fn single_q_node() {
        let edges = [(0, 1), (1, 2)];
        let (mut world, tree) = setup(&edges, 3, 0);
        let mut q = vec![false; 3];
        q[2] = true;
        let qp = augmented(&mut world, &tree, &q);
        let d = centroid_decomposition(&mut world, &tree, &qp);
        validate(&tree, &qp, &d);
        assert_eq!(d.levels, 1);
    }

    #[test]
    fn rounds_are_polylog() {
        // Lemma 31: O(log^2 |Q|) rounds. Check the round count does not blow
        // past a generous c · (log|Q'|+2)^2 bound on a path.
        for n in [8usize, 16, 32, 64] {
            let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let (mut world, tree) = setup(&edges, n, 0);
            let q = vec![true; n];
            let before = world.rounds();
            let d = centroid_decomposition(&mut world, &tree, &q);
            let rounds = world.rounds() - before;
            validate(&tree, &q, &d);
            let lg = (usize::BITS - n.leading_zeros()) as u64 + 2;
            assert!(
                rounds <= 14 * lg * lg,
                "decomposition of path {n} took {rounds} rounds (> {})",
                14 * lg * lg
            );
        }
    }
}
