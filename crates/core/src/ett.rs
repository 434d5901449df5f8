//! The Euler tour technique (ETT) on reconfigurable circuits (§3.1).
//!
//! For a tree `T` rooted at `r`, every undirected edge is replaced by two
//! directed traversals; the Euler tour visits all `2(n-1)` directed edges
//! starting and ending at `r` ("the next edge after `(u,v)` is `(v,w)` where
//! `w` is the next counterclockwise neighbor of `v` with respect to `u`").
//! Every node operates one PASC *instance* per occurrence on the tour
//! (Remark 16: `Θ(deg(v))` instances, O(1) memory each).
//!
//! Given marks `w_Q` (each node of `Q` marks exactly one outgoing edge —
//! here: its first occurrence as a tail on the tour), the PASC run over the
//! instance chain delivers, bit by bit:
//!
//! * at each instance, `prefixsum_e` of its outgoing edge `e` (the emitted
//!   bit) and of its incoming edge (the incoming-track bit), so each node
//!   can stream `prefixsum_(u,v) - prefixsum_(v,u)` for all neighbors
//!   (Lemma 14), and
//! * at the root's final instance, `W = |Q ∩ T|` (Corollary 15).

use amoebot_circuits::Topology;
use amoebot_pasc::{EdgeRef, InstanceSpec};

use crate::links::traversal_links;
use crate::tree::Tree;

/// The Euler tours of a forest of (node-disjoint) trees, compiled into PASC
/// instance specs plus the index maps the primitives need.
///
/// The per-edge maps are flat CSR arrays: member `v`'s tree edge to
/// `trees[t].adj[v][j]` has the *edge index* `edge_off[v] + j` (see
/// [`TourSet::edge`]), rows in node order, non-members with empty rows.
#[derive(Debug, Clone)]
pub struct TourSet {
    /// PASC instance specs for all trees (run them as one [`amoebot_pasc::PascRun`]).
    pub specs: Vec<InstanceSpec>,
    /// CSR row offsets over nodes `0..=n` into `out_inst`/`in_inst`.
    pub edge_off: Vec<u32>,
    /// Per edge index `(v, j)`: `v`'s instance whose *outgoing* edge goes
    /// to `trees[t].adj[v][j]`.
    pub out_inst: Vec<u32>,
    /// Per edge index `(v, j)`: `v`'s instance whose *incoming* edge comes
    /// from `trees[t].adj[v][j]`.
    pub in_inst: Vec<u32>,
    /// Per tree: the start instance (root, before the first edge).
    pub start_inst: Vec<usize>,
    /// Per tree: the root's final instance (computes `W`, Corollary 15).
    pub last_inst: Vec<usize>,
    /// Per node: the adjacency index of its designated marked outgoing edge
    /// (`None` if the node is not in `Q` or is a singleton root).
    pub marked_adj: Vec<Option<usize>>,
    /// Per node: which tree (index into the input slice) it belongs to.
    pub tree_of: Vec<Option<usize>>,
}

impl TourSet {
    /// The edge indices of `v`'s tree edges, in `adj[v]` order (empty for
    /// non-members and single-node trees).
    #[inline]
    pub fn edges_of(&self, v: usize) -> std::ops::Range<usize> {
        self.edge_off[v] as usize..self.edge_off[v + 1] as usize
    }

    /// The edge index of member `v`'s tree edge to its `j`-th tree
    /// neighbor.
    #[inline]
    pub fn edge(&self, v: usize, j: usize) -> usize {
        debug_assert!(j < self.edges_of(v).len());
        self.edge_off[v] as usize + j
    }
}

/// Builds the Euler tours for `trees` with node marks `q` (the weight
/// function `w_Q` of §3.1). Trees must be node-disjoint.
///
/// # Panics
///
/// Panics if trees share nodes or tree edges are missing from `topo`.
pub fn build_tours(topo: &Topology, trees: &[Tree], q: &[bool]) -> TourSet {
    let n = topo.len();
    assert_eq!(q.len(), n);
    let mut specs: Vec<InstanceSpec> = Vec::new();
    let mut start_inst = Vec::with_capacity(trees.len());
    let mut last_inst = Vec::with_capacity(trees.len());
    let mut marked_adj: Vec<Option<usize>> = vec![None; n];
    let mut tree_of: Vec<Option<usize>> = vec![None; n];
    for (t, tree) in trees.iter().enumerate() {
        for &v in &tree.members {
            assert!(
                tree_of[v].is_none(),
                "trees must be node-disjoint (node {v})"
            );
            tree_of[v] = Some(t);
        }
    }
    let mut edge_off = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    for v in 0..n {
        edge_off.push(acc);
        if let Some(t) = tree_of[v] {
            acc += trees[t].adj[v].len() as u32;
        }
    }
    edge_off.push(acc);
    let mut out_inst = vec![u32::MAX; acc as usize];
    let mut in_inst = vec![u32::MAX; acc as usize];

    for tree in trees {
        if tree.len() == 1 {
            // Degenerate single-node tree: one instance, no edges.
            let idx = specs.len();
            specs.push(InstanceSpec {
                node: tree.root,
                pred: None,
                succs: Vec::new(),
                weight: q[tree.root],
            });
            start_inst.push(idx);
            last_inst.push(idx);
            continue;
        }

        let m = 2 * (tree.len() - 1); // number of directed tour edges
                                      // Enumerate the tour edges.
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(m);
        let mut cur = (tree.root, tree.adj[tree.root][0]);
        for _ in 0..m {
            edges.push(cur);
            let (u, v) = cur;
            let j = tree.adj[v]
                .iter()
                .position(|&w| w == u)
                .expect("tree adjacency must be symmetric");
            let next = tree.adj[v][(j + 1) % tree.adj[v].len()];
            cur = (v, next);
        }
        assert_eq!(cur.0, tree.root, "Euler tour must return to the root");

        // Designate marks: first outgoing occurrence of each node in Q.
        let mut edge_marked = vec![false; m];
        for (i, &(u, v)) in edges.iter().enumerate() {
            if q[u] && marked_adj[u].is_none() {
                let j = tree.adj[u]
                    .iter()
                    .position(|&w| w == v)
                    .expect("edge endpoint in adjacency");
                marked_adj[u] = Some(j);
                edge_marked[i] = true;
            }
        }

        // Instances: local index i in 0..=m; instance i has pred edge
        // `edges[i-1]` (i >= 1) and succ edge `edges[i]` (i < m).
        let base = specs.len();
        for i in 0..=m {
            let pred = (i > 0).then(|| {
                let (u, v) = edges[i - 1];
                let port = topo
                    .port_to(v, u)
                    .expect("tree edge must exist in topology");
                let (p, s) = traversal_links(u, v);
                EdgeRef::new(port, p, s)
            });
            let succs = if i < m {
                let (u, v) = edges[i];
                let port = topo
                    .port_to(u, v)
                    .expect("tree edge must exist in topology");
                let (p, s) = traversal_links(u, v);
                vec![EdgeRef::new(port, p, s)]
            } else {
                Vec::new()
            };
            let node = if i < m { edges[i].0 } else { tree.root };
            let weight = i < m && edge_marked[i];
            specs.push(InstanceSpec {
                node,
                pred,
                succs,
                weight,
            });
        }
        // Index maps.
        for (i, &(u, v)) in edges.iter().enumerate() {
            let ju = tree.adj[u].iter().position(|&w| w == v).unwrap();
            let jv = tree.adj[v].iter().position(|&w| w == u).unwrap();
            out_inst[edge_off[u] as usize + ju] = (base + i) as u32;
            in_inst[edge_off[v] as usize + jv] = (base + i + 1) as u32;
        }
        start_inst.push(base);
        last_inst.push(base + m);
    }

    TourSet {
        specs,
        edge_off,
        out_inst,
        in_inst,
        start_inst,
        last_inst,
        marked_adj,
        tree_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::{Topology, World};
    use amoebot_pasc::PascRun;

    use crate::links::{LINKS, SYNC};

    fn star_plus_path() -> (Topology, Tree) {
        //   1   2
        //    \ /
        //     0 - 3 - 4
        let edges = [(0, 1), (0, 2), (0, 3), (3, 4)];
        let topo = Topology::from_edges(5, &edges);
        let tree = Tree::from_edges(5, 0, &edges);
        (topo, tree)
    }

    #[test]
    fn tour_shape() {
        let (topo, tree) = star_plus_path();
        let q = vec![true; 5];
        let ts = build_tours(&topo, std::slice::from_ref(&tree), &q);
        // 2(n-1)+1 instances.
        assert_eq!(ts.specs.len(), 2 * 4 + 1);
        // Exactly one start (no pred) and one end (no succ).
        assert_eq!(ts.specs.iter().filter(|s| s.pred.is_none()).count(), 1);
        assert_eq!(ts.specs.iter().filter(|s| s.succs.is_empty()).count(), 1);
        // Every node in Q designates exactly one outgoing edge; total marks = |Q|.
        let marks = ts.specs.iter().filter(|s| s.weight).count();
        assert_eq!(marks, 5);
        // Each node has deg instances as tails.
        for v in 0..5 {
            for j in 0..tree.adj[v].len() {
                let e = ts.edge(v, j);
                assert_ne!(ts.out_inst[e], u32::MAX);
                assert_ne!(ts.in_inst[e], u32::MAX);
                assert_eq!(ts.specs[ts.out_inst[e] as usize].node, v);
                assert_eq!(ts.specs[ts.in_inst[e] as usize].node, v);
            }
        }
    }

    #[test]
    fn ett_prefix_sums_match_subtree_counts() {
        // Lemma 17: for the parent edge, prefixsum(u,p) - prefixsum(p,u) =
        // |Q ∩ subtree(u)|; verify by running the actual circuits.
        let (topo, tree) = star_plus_path();
        let q = vec![false, true, false, true, true]; // Q = {1, 3, 4}
        let ts = build_tours(&topo, std::slice::from_ref(&tree), &q);
        let mut world = World::new(topo, LINKS);
        let mut run = PascRun::new(&mut world, ts.specs.clone(), SYNC);
        let values = run.run_to_completion(&mut world);
        // W at the root's last instance (Corollary 15).
        assert_eq!(values[ts.last_inst[0]], 3);
        // Subtree counts via the difference of prefix sums.
        let parents = tree.parents_from_root();
        let subtree_q = |v: usize| -> u64 {
            // centralized: count Q in subtree of v
            let mut cnt = 0;
            let mut stack = vec![v];
            let mut seen = [false; 5];
            seen[v] = true;
            while let Some(x) = stack.pop() {
                if q[x] {
                    cnt += 1;
                }
                for &w in &tree.adj[x] {
                    if !seen[w] && parents[w] == Some(x) {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            cnt
        };
        for v in 0..5 {
            if let Some(p) = parents[v] {
                let j = tree.adj[v].iter().position(|&w| w == p).unwrap();
                let out = values[ts.out_inst[ts.edge(v, j)] as usize];
                // The incoming prefix sum is the value of the *preceding*
                // instance, i.e. the peer's outgoing instance for (p, v).
                let jp = tree.adj[p].iter().position(|&w| w == v).unwrap();
                let inc = values[ts.out_inst[ts.edge(p, jp)] as usize];
                assert_eq!(out - inc, subtree_q(v), "subtree count at {v}");
            }
        }
        // Lemma 4 runtime: O(log W) iterations.
        assert!(run.iterations() <= 3);
    }

    #[test]
    fn singleton_tree_counts_its_own_mark() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let lone = Tree::from_edges(3, 2, &[]);
        let q = vec![false, false, true];
        let ts = build_tours(&topo, &[lone], &q);
        assert_eq!(ts.specs.len(), 1);
        let mut world = World::new(topo, LINKS);
        let mut run = PascRun::new(&mut world, ts.specs.clone(), SYNC);
        let values = run.run_to_completion(&mut world);
        assert_eq!(values[ts.last_inst[0]], 1);
    }

    #[test]
    fn parallel_trees_share_one_run() {
        // Two disjoint paths: 0-1 and 2-3-4, Q = {1, 4}.
        let topo = Topology::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        let t1 = Tree::from_edges(5, 0, &[(0, 1)]);
        let t2 = Tree::from_edges(5, 2, &[(2, 3), (3, 4)]);
        let q = vec![false, true, false, false, true];
        let ts = build_tours(&topo, &[t1, t2], &q);
        let mut world = World::new(topo, LINKS);
        let mut run = PascRun::new(&mut world, ts.specs.clone(), SYNC);
        let values = run.run_to_completion(&mut world);
        assert_eq!(values[ts.last_inst[0]], 1);
        assert_eq!(values[ts.last_inst[1]], 1);
    }
}
