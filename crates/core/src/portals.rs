//! Portal graphs on the triangular grid and their primitives (§2.3, §3.5).
//!
//! For each axis `d ∈ {x, y, z}`, the *d-portals* of a (hole-free) region
//! are the maximal runs of amoebots along `d`; the portal graph `P_d`
//! (portals as vertices) is a tree (Lemma 9). The amoebots only access the
//! *implicit portal graph* `T_d` (Definition 12): a spanning tree of the
//! region that contains all axis-parallel edges plus one canonical
//! ("westernmost") edge per adjacent portal pair, decided by a local rule.
//!
//! The portal-level primitives (§3.5) run the node-level ETT machinery on
//! `T_d` with the portal *representatives* as the weighted set `Q̂` — by
//! Lemma 32 the prefix-sum differences across inter-portal edges equal the
//! portal-graph values — and then disseminate the results inside each portal
//! with portal circuits (Figure 4a) and per-directed-edge circuits
//! (Figure 4b).

use amoebot_circuits::World;
use amoebot_grid::{AmoebotStructure, Axis, Direction, NodeId, ALL_DIRECTIONS};

use crate::links::{BROADCAST, FWD_PRIMARY, FWD_SECONDARY, SYNC};
use crate::primitives::root_prune::root_and_prune;
use crate::tree::Tree;

/// The portal decomposition of a region for one axis, plus the implicit
/// portal tree.
#[derive(Debug, Clone)]
pub struct AxisPortals {
    /// The axis.
    pub axis: Axis,
    /// `portal_of[v]` = portal index of node `v` (`u32::MAX` outside the
    /// region).
    pub portal_of: Vec<u32>,
    /// Member nodes of each portal, ordered along [`Axis::positive`].
    pub portals: Vec<Vec<usize>>,
    /// The representative of each portal: its "westernmost" member (the
    /// first in portal order), §3.5.
    pub reps: Vec<usize>,
    /// Adjacency of the implicit portal tree `T_d`, in port (= direction
    /// index) order — the cyclic order used for Euler tours.
    pub tree_adj: Vec<Vec<usize>>,
}

/// Computes the portals and the implicit portal tree of the masked region
/// for `axis`. The region must be connected; for the tree property it must
/// also be hole-free (Lemma 9).
pub fn axis_portals(structure: &AmoebotStructure, mask: &[bool], axis: Axis) -> AxisPortals {
    let n = structure.len();
    assert_eq!(mask.len(), n);
    let nbr = |v: usize, d: Direction| -> Option<usize> {
        structure
            .neighbor(NodeId(v as u32), d)
            .and_then(|w| mask[w.index()].then_some(w.index()))
    };

    // Portal runs along the axis.
    let (pos, neg) = axis.directions();
    let mut portal_of = vec![u32::MAX; n];
    let mut portals: Vec<Vec<usize>> = Vec::new();
    let mut reps = Vec::new();
    for v in 0..n {
        if !mask[v] || nbr(v, neg).is_some() {
            continue;
        }
        let p = portals.len() as u32;
        let mut members = Vec::new();
        let mut cur = Some(v);
        while let Some(u) = cur {
            portal_of[u] = p;
            members.push(u);
            cur = nbr(u, pos);
        }
        reps.push(members[0]);
        portals.push(members);
    }

    // Implicit portal tree adjacency via the local rule of Definition 12.
    let mut tree_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for v in 0..n {
        if !mask[v] {
            continue;
        }
        for d in ALL_DIRECTIONS {
            if let Some(w) = nbr(v, d) {
                if implicit_edge_local_rule(&nbr, axis, v, d) {
                    tree_adj[v].push(w);
                }
            }
        }
    }
    AxisPortals {
        axis,
        portal_of,
        portals,
        reps,
        tree_adj,
    }
}

/// The local rule of Definition 12, relative to a region: whether the edge
/// from `v` towards `d` belongs to the implicit portal tree of `axis`.
fn implicit_edge_local_rule(
    nbr: &impl Fn(usize, Direction) -> Option<usize>,
    axis: Axis,
    v: usize,
    d: Direction,
) -> bool {
    if d.axis() == axis {
        return true;
    }
    for (cb, cf) in axis.cross_sides() {
        if d == cb {
            return nbr(v, axis.negative()).is_none();
        }
        if d == cf {
            return nbr(v, cb).is_none();
        }
    }
    unreachable!("non-axis direction must be on a cross side")
}

impl AxisPortals {
    /// Number of portals.
    pub fn len(&self) -> usize {
        self.portals.len()
    }

    /// Whether the region had no portals (empty region).
    pub fn is_empty(&self) -> bool {
        self.portals.is_empty()
    }

    /// The implicit portal tree rooted at the representative of `portal`.
    pub fn tree_rooted_at(&self, portal: u32) -> Tree {
        let root = self.reps[portal as usize];
        let members: Vec<usize> = (0..self.portal_of.len())
            .filter(|&v| self.portal_of[v] != u32::MAX)
            .collect();
        let tree = Tree {
            root,
            adj: self.tree_adj.clone(),
            members,
        };
        debug_assert!(tree.contains(root));
        tree
    }

    /// The portal-level adjacency (quotient graph): for each portal, its
    /// adjacent portals via inter-portal tree edges, together with the
    /// connector amoebots `c_{P1}(P2)` (§3.5). Sorted by neighbor portal id.
    pub fn portal_tree_edges(&self) -> Vec<Vec<(u32, usize)>> {
        let mut out: Vec<Vec<(u32, usize)>> = vec![Vec::new(); self.portals.len()];
        for v in 0..self.tree_adj.len() {
            for &w in &self.tree_adj[v] {
                let pv = self.portal_of[v];
                let pw = self.portal_of[w];
                if pv != pw {
                    out[pv as usize].push((pw, v));
                }
            }
        }
        for lst in &mut out {
            lst.sort_unstable();
            lst.dedup();
        }
        out
    }
}

/// One-round portal marking (used for `Q = {P : P ∩ S ≠ ∅}`, §5.4.1, and
/// for destination portals in §4): each portal forms a circuit along its
/// axis pins on the BROADCAST link, flagged members beep, and every member
/// learns whether its portal contains a flagged amoebot.
pub fn mark_portals(
    world: &mut World,
    structure: &AmoebotStructure,
    mask: &[bool],
    ap: &AxisPortals,
    flags: &[bool],
) -> Vec<bool> {
    let n = structure.len();
    world.reset_all_pins_keeping_links(&[SYNC]);
    let (pos, neg) = ap.axis.directions();
    let mut pset = vec![u16::MAX; n];
    for members in &ap.portals {
        for &v in members {
            let mut pins = Vec::new();
            for d in [pos, neg] {
                if let Some(w) = structure.neighbor(NodeId(v as u32), d) {
                    if mask[w.index()] {
                        pins.push((d.index(), BROADCAST));
                    }
                }
            }
            if !pins.is_empty() {
                pset[v] = world.group_pins(v, &pins);
            }
            if flags[v] && pset[v] != u16::MAX {
                world.beep(v, pset[v]);
            }
        }
    }
    world.tick();
    ap.portals
        .iter()
        .map(|members| {
            let expected = members.iter().any(|&v| flags[v]);
            let rep = members[0];
            // Singleton portals know locally; others hear the circuit (the
            // sender's own partition set also receives its beep).
            let heard = if members.len() == 1 || pset[rep] == u16::MAX {
                expected
            } else {
                world.received(rep, pset[rep])
            };
            debug_assert_eq!(heard, expected, "portal circuit must span the portal");
            heard
        })
        .collect()
}

/// Outcome of the portal-level root-and-prune primitive (§3.5, Lemma 33).
#[derive(Debug, Clone)]
pub struct PortalRootPrune {
    /// Per portal: whether the portal is in `V_Q` (its subtree in the portal
    /// tree contains a `Q`-portal). Every member amoebot learns this via the
    /// portal circuit (Figure 4a).
    pub portal_in_vq: Vec<bool>,
    /// Per node and direction: whether the neighbor in that direction
    /// belongs to the *parent portal* of the node's portal (learned via the
    /// per-directed-edge circuits of Figure 4b). Only cross-axis directions
    /// can be set.
    pub parent_side: Vec<[bool; 6]>,
    /// `|Q|` (number of Q-portals), as computed by the root representative.
    pub q_count: u64,
    /// Per portal: its degree in the pruned portal tree (for the
    /// augmentation set of Lemma 34).
    pub portal_deg_q: Vec<u32>,
    /// ETT iterations of the underlying PASC run.
    pub iterations: u32,
}

/// Runs root-and-prune on the portal graph of `ap` (§3.5): roots the portal
/// tree at `root_portal`, prunes subtrees without portals in `q_portals`,
/// and disseminates both the `V_Q` membership (portal circuits) and the
/// parent-portal relation (per-directed-edge circuits) to every member
/// amoebot. `O(log |Q|)` rounds (Lemma 33).
pub fn portal_root_and_prune(
    world: &mut World,
    structure: &AmoebotStructure,
    mask: &[bool],
    ap: &AxisPortals,
    root_portal: u32,
    q_portals: &[bool],
) -> PortalRootPrune {
    let n = structure.len();
    assert_eq!(q_portals.len(), ap.portals.len());

    // Node-level ETT on the implicit portal tree with Q̂ = representatives
    // of Q-portals (Lemma 32 transfers the prefix-sum differences).
    let q_hat: Vec<bool> = (0..n)
        .map(|v| {
            mask[v]
                && ap.portal_of[v] != u32::MAX
                && q_portals[ap.portal_of[v] as usize]
                && ap.reps[ap.portal_of[v] as usize] == v
        })
        .collect();
    let tree = ap.tree_rooted_at(root_portal);
    let rp = root_and_prune(world, std::slice::from_ref(&tree), &q_hat);
    let q_count = rp.q_count[0];

    // Collect, per portal, the signed differences at its connector amoebots.
    // diff > 0 towards a neighbor portal means that neighbor is the parent.
    let mut portal_nonzero = vec![0u32; ap.portals.len()];
    let mut portal_parent_edge: Vec<Option<(usize, usize)>> = vec![None; ap.portals.len()];
    for v in 0..n {
        if !mask[v] {
            continue;
        }
        for (j, &w) in tree.adj[v].iter().enumerate() {
            if ap.portal_of[w] == ap.portal_of[v] {
                continue; // intra-portal edge
            }
            match rp.diff_sign[v][j] {
                0 => {}
                s => {
                    portal_nonzero[ap.portal_of[v] as usize] += 1;
                    if s > 0 {
                        debug_assert!(
                            portal_parent_edge[ap.portal_of[v] as usize].is_none(),
                            "a portal has at most one parent"
                        );
                        portal_parent_edge[ap.portal_of[v] as usize] = Some((v, w));
                    }
                }
            }
        }
    }

    // Dissemination round 1 (Figure 4a): each portal forms a circuit along
    // its axis pins on the BROADCAST link; connectors with non-zero diff
    // beep; the root portal's representative beeps iff |Q| > 0. Every member
    // then knows whether its portal is in V_Q.
    world.reset_all_pins_keeping_links(&[SYNC]);
    let (pos, neg) = ap.axis.directions();
    let mut portal_pset = vec![u16::MAX; n];
    for members in &ap.portals {
        for &v in members {
            let mut pins = Vec::new();
            for d in [pos, neg] {
                if let Some(w) = structure.neighbor(NodeId(v as u32), d) {
                    if mask[w.index()] {
                        pins.push((d.index(), BROADCAST));
                    }
                }
            }
            if !pins.is_empty() {
                portal_pset[v] = world.group_pins(v, &pins);
            }
        }
    }
    for v in 0..n {
        if !mask[v] {
            continue;
        }
        let p = ap.portal_of[v] as usize;
        let is_connector_nonzero = tree.adj[v]
            .iter()
            .enumerate()
            .any(|(j, &w)| ap.portal_of[w] != ap.portal_of[v] && rp.diff_sign[v][j] != 0);
        let root_beep = p as u32 == root_portal && ap.reps[p] == v && q_count > 0;
        if (is_connector_nonzero || root_beep) && portal_pset[v] != u16::MAX {
            world.beep(v, portal_pset[v]);
        }
    }
    world.tick();
    let mut portal_in_vq = vec![false; ap.portals.len()];
    for (p, members) in ap.portals.iter().enumerate() {
        // Every member hears the same circuit; read it at the representative
        // (singleton portals check locally).
        let rep = ap.reps[p];
        portal_in_vq[p] = if members.len() == 1 || portal_pset[rep] == u16::MAX {
            portal_nonzero[p] > 0 || (p as u32 == root_portal && q_count > 0)
        } else {
            world.received(rep, portal_pset[rep])
        };
    }

    // Dissemination round 2 (Figure 4b): per-directed-edge circuits. For
    // each side of each portal, members adjacent to the neighboring portal
    // form a circuit along the axis (cut at run boundaries); the connector
    // of the parent edge beeps; every receiving member knows its cross
    // neighbors on that side are in the parent portal.
    world.reset_all_pins_keeping_links(&[SYNC, BROADCAST]);
    let sides = ap.axis.cross_sides();
    let side_links = [FWD_PRIMARY, FWD_SECONDARY];
    let mut side_pset = vec![[u16::MAX; 2]; n];
    for v in 0..n {
        if !mask[v] {
            continue;
        }
        for (s, &(cb, cf)) in sides.iter().enumerate() {
            let has = |d: Direction| matches!(structure.neighbor(NodeId(v as u32), d), Some(w) if mask[w.index()]);
            if !has(cb) && !has(cf) {
                continue; // not adjacent to a portal on this side
            }
            let mut pins = Vec::new();
            // Connect along +axis iff the forward cross neighbor exists
            // (then the +axis neighbor shares this side's adjacent portal);
            // along -axis iff the backward cross neighbor exists.
            if has(cf) && has(pos) {
                pins.push((pos.index(), side_links[s]));
            }
            if has(cb) && has(neg) {
                pins.push((neg.index(), side_links[s]));
            }
            if !pins.is_empty() {
                side_pset[v][s] = world.group_pins(v, &pins);
            }
        }
    }
    // Connectors of parent edges beep on the circuit of their side.
    let mut parent_beeped: Vec<[bool; 2]> = vec![[false; 2]; n];
    for p in 0..ap.portals.len() {
        if let Some((v, w)) = portal_parent_edge[p] {
            let d = Direction::between(
                structure.coord(NodeId(v as u32)),
                structure.coord(NodeId(w as u32)),
            )
            .expect("tree edge endpoints adjacent");
            let s = sides
                .iter()
                .position(|&(cb, cf)| d == cb || d == cf)
                .expect("inter-portal edge uses a cross direction");
            parent_beeped[v][s] = true;
            if side_pset[v][s] != u16::MAX {
                world.beep(v, side_pset[v][s]);
            }
        }
    }
    world.tick();
    let mut parent_side = vec![[false; 6]; n];
    for v in 0..n {
        if !mask[v] {
            continue;
        }
        for (s, &(cb, cf)) in sides.iter().enumerate() {
            let heard = (side_pset[v][s] != u16::MAX && world.received(v, side_pset[v][s]))
                || parent_beeped[v][s];
            if heard {
                for d in [cb, cf] {
                    if let Some(w) = structure.neighbor(NodeId(v as u32), d) {
                        if mask[w.index()] {
                            debug_assert_ne!(ap.portal_of[w.index()], ap.portal_of[v]);
                            parent_side[v][d.index()] = true;
                        }
                    }
                }
            }
        }
    }

    // Pruned-tree degree of each portal (for A_Q, Lemma 34). The counting
    // PASC along each portal is charged explicitly.
    let max_deg = portal_nonzero.iter().copied().max().unwrap_or(0);
    let deg_rounds = 2 * (32 - (max_deg + 1).leading_zeros()) as u64;
    world.charge_rounds(
        deg_rounds,
        "portal-degree count along portals (Lemma 34 PASC)",
    );

    PortalRootPrune {
        portal_in_vq,
        parent_side,
        q_count,
        portal_deg_q: portal_nonzero,
        iterations: rp.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::Topology;
    use amoebot_grid::{shapes, ALL_AXES};

    use crate::links::LINKS;

    fn full_mask(s: &AmoebotStructure) -> Vec<bool> {
        vec![true; s.len()]
    }

    #[test]
    fn implicit_tree_is_spanning_tree_on_blobs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        for n in [5usize, 20, 60] {
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            let mask = full_mask(&s);
            for axis in ALL_AXES {
                let ap = axis_portals(&s, &mask, axis);
                let edge_count: usize =
                    (0..s.len()).map(|v| ap.tree_adj[v].len()).sum::<usize>() / 2;
                assert_eq!(edge_count, s.len() - 1, "axis {axis}, n {n}");
                let tree = ap.tree_rooted_at(0);
                assert_eq!(tree.members.len(), s.len());
            }
        }
    }

    #[test]
    fn portal_graph_matches_grid_reference() {
        let s = AmoebotStructure::new(shapes::hexagon(3)).unwrap();
        let mask = full_mask(&s);
        for axis in ALL_AXES {
            let ap = axis_portals(&s, &mask, axis);
            let (ref_of, ref_portals) = s.portals(axis);
            assert_eq!(ap.portals.len(), ref_portals.len());
            for v in s.nodes() {
                assert_eq!(
                    ap.portal_of[v.index()],
                    ref_of[v.index()],
                    "portal ids must match grid reference"
                );
            }
        }
    }

    #[test]
    fn lemma_11_distance_identity() {
        // 2·dist(u,v) = dist_x + dist_y + dist_z over the portal graphs.
        let s = AmoebotStructure::new(shapes::comb(7, 3)).unwrap();
        let mask = full_mask(&s);
        let aps: Vec<AxisPortals> = ALL_AXES
            .iter()
            .map(|&ax| axis_portals(&s, &mask, ax))
            .collect();
        // Portal-graph BFS distances per axis.
        let portal_dist = |ap: &AxisPortals, from: u32| -> Vec<u32> {
            let adj = ap.portal_tree_edges();
            let mut dist = vec![u32::MAX; ap.portals.len()];
            let mut queue = std::collections::VecDeque::new();
            dist[from as usize] = 0;
            queue.push_back(from);
            while let Some(p) = queue.pop_front() {
                for &(q, _) in &adj[p as usize] {
                    if dist[q as usize] == u32::MAX {
                        dist[q as usize] = dist[p as usize] + 1;
                        queue.push_back(q);
                    }
                }
            }
            dist
        };
        let u = NodeId(0);
        let bfs = s.bfs_distances(&[u]);
        let per_axis: Vec<Vec<u32>> = aps
            .iter()
            .map(|ap| portal_dist(ap, ap.portal_of[u.index()]))
            .collect();
        for v in s.nodes() {
            let lhs = 2 * bfs[v.index()].unwrap();
            let rhs: u32 = aps
                .iter()
                .zip(&per_axis)
                .map(|(ap, dist)| dist[ap.portal_of[v.index()] as usize])
                .sum();
            assert_eq!(lhs, rhs, "Lemma 11 at node {v}");
        }
    }

    #[test]
    fn portal_root_prune_matches_reference() {
        let s = AmoebotStructure::new(shapes::parallelogram(6, 5)).unwrap();
        let mask = full_mask(&s);
        let ap = axis_portals(&s, &mask, Axis::X);
        // Q = portals of the two extreme rows; root = the middle row portal.
        let mut q_portals = vec![false; ap.portals.len()];
        q_portals[0] = true;
        *q_portals.last_mut().unwrap() = true;
        let root_portal = ap.portal_of[s.len() / 2];
        let topo = Topology::from_structure(&s);
        let mut world = World::new(topo, LINKS);
        let out = portal_root_and_prune(&mut world, &s, &mask, &ap, root_portal, &q_portals);
        assert_eq!(out.q_count, 2);
        // Reference: portal-level BFS tree rooted at root_portal.
        let adj = ap.portal_tree_edges();
        let mut parent = vec![u32::MAX; ap.portals.len()];
        let mut order = vec![root_portal];
        let mut seen = vec![false; ap.portals.len()];
        seen[root_portal as usize] = true;
        let mut i = 0;
        while i < order.len() {
            let p = order[i];
            i += 1;
            for &(w, _) in &adj[p as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    parent[w as usize] = p;
                    order.push(w);
                }
            }
        }
        let mut in_vq_ref = vec![false; ap.portals.len()];
        for p in 0..ap.portals.len() {
            // p in V_Q iff some q-portal's path to root passes through p.
            for qp in 0..ap.portals.len() {
                if q_portals[qp] {
                    let mut cur = qp as u32;
                    loop {
                        if cur == p as u32 {
                            in_vq_ref[p] = true;
                        }
                        if cur == root_portal {
                            break;
                        }
                        cur = parent[cur as usize];
                    }
                }
            }
        }
        assert_eq!(out.portal_in_vq, in_vq_ref);
        // parent_side sanity: a node's flagged neighbor must lie in the
        // parent portal of the node's portal.
        for v in 0..s.len() {
            for d in ALL_DIRECTIONS {
                if out.parent_side[v][d.index()] {
                    let w = s.neighbor(NodeId(v as u32), d).unwrap();
                    let pv = ap.portal_of[v];
                    let pw = ap.portal_of[w.index()];
                    assert_eq!(
                        parent[pv as usize], pw,
                        "flagged neighbor must be in parent portal"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_region_portals() {
        // Restrict a parallelogram to its western half; portals must respect
        // the mask.
        let s = AmoebotStructure::new(shapes::parallelogram(6, 3)).unwrap();
        let mask: Vec<bool> = s.nodes().map(|v| s.coord(v).q < 3).collect();
        let ap = axis_portals(&s, &mask, Axis::X);
        assert_eq!(ap.portals.len(), 3);
        for members in &ap.portals {
            assert_eq!(members.len(), 3);
        }
        let off_region: usize = (0..s.len()).filter(|&v| !mask[v]).count();
        assert_eq!(off_region, 9);
        for v in 0..s.len() {
            assert_eq!(mask[v], ap.portal_of[v] != u32::MAX);
        }
    }
}

/// Portal-level election (§3.5, Lemma 35): elects a single portal
/// `R' ∈ Q` in O(1) rounds. Runs the simplified-ETT election over the
/// implicit portal tree with the portal representatives as `Q̂`, then
/// announces the winner on its portal circuit so every member amoebot of
/// `R'` learns the outcome.
///
/// Returns the elected portal, or `None` if no portal is in `Q`.
pub fn portal_elect(
    world: &mut World,
    structure: &AmoebotStructure,
    mask: &[bool],
    ap: &AxisPortals,
    root_portal: u32,
    q_portals: &[bool],
) -> Option<u32> {
    let n = structure.len();
    let q_hat: Vec<bool> = (0..n)
        .map(|v| {
            mask[v]
                && ap.portal_of[v] != u32::MAX
                && q_portals[ap.portal_of[v] as usize]
                && ap.reps[ap.portal_of[v] as usize] == v
        })
        .collect();
    let tree = ap.tree_rooted_at(root_portal);
    let elected = crate::primitives::election::elect(world, std::slice::from_ref(&tree), &q_hat);
    let r = elected[0]?;
    // Announcement round (Figure 4a): the elected representative beeps on
    // its portal circuit; each member of R' identifies itself.
    let flags: Vec<bool> = (0..n).map(|v| v == r).collect();
    let marked = mark_portals(world, structure, mask, ap, &flags);
    let portal = ap.portal_of[r];
    debug_assert!(marked[portal as usize]);
    Some(portal)
}

/// Portal-level Q-centroid primitive (§3.5, Lemma 36): computes the
/// Q-centroid portal(s) of the portal tree in `O(log |Q|)` rounds.
///
/// Mechanism: the rooting pass and a second ETT stream the component sizes
/// `size_{P1}(P2)` at the connector amoebots against `|Q|/2` (the root's
/// representative broadcasts the current bit of `|Q|` each iteration on the
/// structure-spanning broadcast circuit); a final portal-circuit round lets
/// connectors with an oversized component veto their portal.
pub fn portal_centroids(
    world: &mut World,
    structure: &AmoebotStructure,
    mask: &[bool],
    ap: &AxisPortals,
    root_portal: u32,
    q_portals: &[bool],
) -> Vec<bool> {
    use amoebot_pasc::{HalfCompare, PascRun, StreamingSub};

    let n = structure.len();
    let q_hat: Vec<bool> = (0..n)
        .map(|v| {
            mask[v]
                && ap.portal_of[v] != u32::MAX
                && q_portals[ap.portal_of[v] as usize]
                && ap.reps[ap.portal_of[v] as usize] == v
        })
        .collect();
    let tree = ap.tree_rooted_at(root_portal);
    // Pass 1: root the portal tree (parent relation at the connectors).
    let rp = root_and_prune(world, std::slice::from_ref(&tree), &q_hat);
    // The portal-level parent edge: the inter-portal edge with diff > 0.
    let mut parent_edge_of: Vec<Option<(usize, usize)>> = vec![None; ap.portals.len()];
    for v in 0..n {
        if !mask[v] {
            continue;
        }
        for (j, &w) in tree.adj[v].iter().enumerate() {
            if ap.portal_of[w] != ap.portal_of[v] && rp.diff_sign[v][j] > 0 {
                parent_edge_of[ap.portal_of[v] as usize] = Some((v, w));
            }
        }
    }

    // Pass 2: stream sizes against |Q|/2 (3 rounds per iteration).
    world.reset_all_pins_keeping_links(&[SYNC]);
    let ts = crate::ett::build_tours(world.topology(), std::slice::from_ref(&tree), &q_hat);
    let mut run = PascRun::new(world, ts.specs.clone(), SYNC);
    // Structure-spanning broadcast circuit for the |Q| bits.
    for v in 0..n {
        if mask[v] {
            world.global_link_config(v, BROADCAST);
        }
    }
    let bpset = World::global_link_pset(BROADCAST);
    let r_hat = tree.root;

    enum Stream {
        Parent {
            inner: StreamingSub,
            outer: StreamingSub,
            cmp: HalfCompare,
        },
        Child {
            sub: StreamingSub,
            cmp: HalfCompare,
        },
    }
    // One stream per inter-portal connector (v, adjacency index).
    let mut streams: Vec<(usize, usize, Stream)> = Vec::new();
    for v in 0..n {
        if !mask[v] {
            continue;
        }
        for (j, &w) in tree.adj[v].iter().enumerate() {
            if ap.portal_of[w] == ap.portal_of[v] {
                continue;
            }
            let p = ap.portal_of[v] as usize;
            let s = if parent_edge_of[p] == Some((v, w)) {
                Stream::Parent {
                    inner: StreamingSub::new(),
                    outer: StreamingSub::new(),
                    cmp: HalfCompare::new(),
                }
            } else {
                Stream::Child {
                    sub: StreamingSub::new(),
                    cmp: HalfCompare::new(),
                }
            };
            streams.push((v, j, s));
        }
    }
    while !run.is_done() {
        let bits = match run.data_step(world, |_| {}) {
            Some(b) => b.to_vec(),
            None => break,
        };
        let incoming = run.incoming().to_vec();
        let w_bit = bits[ts.last_inst[0]];
        if w_bit == 1 {
            world.beep(r_hat, bpset);
        }
        world.tick();
        for (v, j, stream) in &mut streams {
            let q_bit = if *v == r_hat {
                w_bit
            } else {
                u8::from(world.received(*v, bpset))
            };
            let out_bit = bits[ts.out_inst[*v][*j]];
            let in_bit = incoming[ts.in_inst[*v][*j]];
            match stream {
                Stream::Parent { inner, outer, cmp } => {
                    let d = inner.feed(out_bit, in_bit);
                    let s = outer.feed(q_bit, d);
                    cmp.feed(s, q_bit);
                }
                Stream::Child { sub, cmp } => {
                    let s = sub.feed(in_bit, out_bit);
                    cmp.feed(s, q_bit);
                }
            }
        }
        run.sync_step(world);
    }

    // Veto round (Figure 4a): connectors whose component exceeds |Q|/2 beep
    // on their portal circuit; silent Q-portals are centroids.
    let mut veto = vec![false; ap.portals.len()];
    for (v, j, stream) in &streams {
        let oversized = match stream {
            Stream::Parent { cmp, .. } => !cmp.le_half(),
            Stream::Child { cmp, .. } => !cmp.le_half(),
        };
        let _ = j;
        if oversized {
            veto[ap.portal_of[*v] as usize] = true;
        }
    }
    let veto_flags: Vec<bool> = (0..n)
        .map(|v| {
            mask[v] && {
                let p = ap.portal_of[v];
                p != u32::MAX && veto[p as usize] && {
                    // only the connectors beep, but the portal outcome is
                    // identical; use the connector's own flag
                    streams.iter().any(|&(cv, _, ref st)| {
                        cv == v
                            && match st {
                                Stream::Parent { cmp, .. } => !cmp.le_half(),
                                Stream::Child { cmp, .. } => !cmp.le_half(),
                            }
                    })
                }
            }
        })
        .collect();
    let vetoed = mark_portals(world, structure, mask, ap, &veto_flags);
    (0..ap.portals.len())
        .map(|p| q_portals[p] && !vetoed[p])
        .collect()
}

/// Portal-level `Q'`-centroid decomposition (§3.5, Lemma 37,
/// `O(log² |Q|)` rounds).
///
/// Executed on the portal quotient graph with the node-level decomposition
/// primitive — Lemma 32 establishes that every ETT pass on the implicit
/// portal tree computes exactly the quotient values. The quotient rounds
/// are charged to `world` once and returned as the decomposition's
/// `rounds`: a caller that replays the decomposition level by level
/// (§5.4.4) charges them again per level.
pub fn portal_centroid_decomposition(
    world: &mut World,
    ap: &AxisPortals,
    root_portal: u32,
    q_prime: &[bool],
) -> crate::primitives::decomposition::Decomposition {
    use amoebot_circuits::Topology;
    let adj = ap.portal_tree_edges();
    let mut edges = Vec::new();
    for (p, lst) in adj.iter().enumerate() {
        for &(q, _) in lst {
            if (p as u32) < q {
                edges.push((p, q as usize));
            }
        }
    }
    let mut qworld = World::new(
        Topology::from_edges(ap.portals.len(), &edges),
        crate::links::LINKS,
    );
    let qtree = crate::tree::Tree::from_edges(ap.portals.len(), root_portal as usize, &edges);
    let d = crate::primitives::decomposition::centroid_decomposition(&mut qworld, &qtree, q_prime);
    world.charge_rounds(
        d.rounds,
        "portal centroid decomposition on the quotient (Lemma 37)",
    );
    d
}

#[cfg(test)]
mod portal_primitive_tests {
    use super::*;
    use amoebot_circuits::Topology;
    use amoebot_grid::shapes;

    use crate::links::LINKS;

    fn setup(coords: Vec<amoebot_grid::Coord>) -> (AmoebotStructure, World, Vec<bool>) {
        let s = AmoebotStructure::new(coords).unwrap();
        let world = World::new(Topology::from_structure(&s), LINKS);
        let mask = vec![true; s.len()];
        (s, world, mask)
    }

    #[test]
    fn portal_election_is_one_round_plus_announcement() {
        let (s, mut world, mask) = setup(shapes::parallelogram(7, 5));
        let ap = axis_portals(&s, &mask, Axis::X);
        let mut q = vec![false; ap.portals.len()];
        q[1] = true;
        q[3] = true;
        let before = world.rounds();
        let elected = portal_elect(&mut world, &s, &mask, &ap, 0, &q);
        assert_eq!(world.rounds() - before, 2, "election + announcement");
        let e = elected.unwrap();
        assert!(q[e as usize], "elected portal must be in Q");
    }

    #[test]
    fn portal_election_empty_q() {
        let (s, mut world, mask) = setup(shapes::parallelogram(4, 3));
        let ap = axis_portals(&s, &mask, Axis::X);
        let q = vec![false; ap.portals.len()];
        assert_eq!(portal_elect(&mut world, &s, &mask, &ap, 0, &q), None);
    }

    /// Centralized reference for portal Q-centroids.
    fn reference_portal_centroids(ap: &AxisPortals, q: &[bool]) -> Vec<bool> {
        let adj = ap.portal_tree_edges();
        let m = ap.portals.len();
        let total: usize = (0..m).filter(|&p| q[p]).count();
        (0..m)
            .map(|u| {
                if !q[u] {
                    return false;
                }
                for &(start, _) in &adj[u] {
                    let mut seen = vec![false; m];
                    seen[u] = true;
                    seen[start as usize] = true;
                    let mut stack = vec![start as usize];
                    let mut cnt = usize::from(q[start as usize]);
                    while let Some(v) = stack.pop() {
                        for &(w, _) in &adj[v] {
                            if !seen[w as usize] {
                                seen[w as usize] = true;
                                cnt += usize::from(q[w as usize]);
                                stack.push(w as usize);
                            }
                        }
                    }
                    if 2 * cnt > total {
                        return false;
                    }
                }
                true
            })
            .collect()
    }

    #[test]
    fn portal_centroids_match_reference() {
        let (s, _, mask) = setup(shapes::parallelogram(6, 7));
        let ap = axis_portals(&s, &mask, Axis::X);
        let m = ap.portals.len();
        for q_pattern in [
            vec![true; m],
            {
                let mut q = vec![false; m];
                q[0] = true;
                q[m - 1] = true;
                q
            },
            {
                let mut q = vec![false; m];
                for p in 0..m {
                    if p % 2 == 0 {
                        q[p] = true;
                    }
                }
                q
            },
        ] {
            let mut world = World::new(Topology::from_structure(&s), LINKS);
            let got = portal_centroids(&mut world, &s, &mask, &ap, 0, &q_pattern);
            let expect = reference_portal_centroids(&ap, &q_pattern);
            assert_eq!(got, expect, "pattern {q_pattern:?}");
        }
    }

    #[test]
    fn portal_centroids_on_concave_structure() {
        let (s, mut world, mask) = setup(shapes::comb(9, 4));
        let ap = axis_portals(&s, &mask, Axis::X);
        let q = vec![true; ap.portals.len()];
        let got = portal_centroids(&mut world, &s, &mask, &ap, 0, &q);
        let expect = reference_portal_centroids(&ap, &q);
        assert_eq!(got, expect);
    }

    #[test]
    fn portal_decomposition_elects_every_q_portal_once() {
        let (s, mut world, mask) = setup(shapes::parallelogram(5, 9));
        let ap = axis_portals(&s, &mask, Axis::X);
        let q = vec![true; ap.portals.len()];
        let before = world.rounds();
        let d = portal_centroid_decomposition(&mut world, &ap, 0, &q);
        assert!(world.rounds() > before, "quotient rounds are charged");
        let elected: usize = (0..ap.portals.len())
            .filter(|&p| d.level[p].is_some())
            .count();
        assert_eq!(elected, ap.portals.len());
        // Height O(log |Q'|).
        assert!(d.levels as usize <= (usize::BITS - ap.portals.len().leading_zeros()) as usize + 1);
    }
}
