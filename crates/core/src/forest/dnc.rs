//! The divide & conquer shortest path forest algorithm (§5.4, Theorem 56 /
//! Corollary 57): an `(S, D)`-shortest path forest in `O(log n log² k)`
//! rounds.
//!
//! Pipeline:
//!
//! 1. **Dividing** (§5.4.1): mark the x-portals holding sources (`Q`, one
//!    beep round), compute the augmentation set `A_Q` via the portal
//!    root-and-prune (Lemmas 34, 51), and split the structure at the
//!    portals of `Q' = Q ∪ A_Q` — each `Q'` portal joins both sides, and is
//!    further split at the marked connector amoebots (all but the
//!    westernmost per side) so that every region meets one or two `Q'`
//!    portals (Lemma 52).
//! 2. **Base case** (§5.4.2): elect `R'` ∈ `Q'`, root the portal tree at it;
//!    each region identifies its LCA (and descendant) portal, runs the line
//!    algorithm on it and propagates inward; two-portal regions merge the
//!    two propagated forests (Lemma 54).
//! 3. **Merging** (§5.4.3/5.4.4): process the `Q'`-centroid decomposition
//!    tree of the portal graph from the deepest level upward; at each
//!    scheduled portal, pair up the regions of each side via the parity of
//!    a single PASC iteration over the marked amoebots, merge each pair
//!    through its separating marked amoebot (two region-scoped SPTs + one
//!    merge), then join the two sides with two propagations and a merge
//!    (Lemma 55).
//! 4. **Destinations** (Corollary 57): a final root-and-prune with `Q = D`
//!    prunes every subtree without destinations.

use amoebot_circuits::{Topology, World};
use amoebot_grid::{AmoebotStructure, Axis, NodeId};

use crate::forest::line::line_forest;
use crate::forest::merge::merge_forests;
use crate::forest::propagate::propagate_forest;
use crate::forest::{Forest, ForestOutcome};
use crate::links::LINKS;
use crate::portals::{
    axis_portals, mark_portals, portal_centroid_decomposition, portal_root_and_prune, AxisPortals,
};
use crate::primitives::root_prune::root_and_prune;
use crate::spt::region_sssp;
use crate::tree::Tree;

/// Computes an `(S, D)`-shortest path forest (Theorem 56 / Corollary 57,
/// `O(log n log² k)` rounds).
///
/// # Panics
///
/// Panics if `sources` or `dests` is empty.
pub fn shortest_path_forest(
    structure: &AmoebotStructure,
    sources: &[NodeId],
    dests: &[NodeId],
) -> ForestOutcome {
    assert!(!sources.is_empty(), "S must be non-empty");
    assert!(!dests.is_empty(), "D must be non-empty");
    let n = structure.len();
    let mut src: Vec<usize> = sources.iter().map(|s| s.index()).collect();
    src.sort_unstable();
    src.dedup();

    // k = 1 degenerates to the shortest path tree algorithm (§1.3).
    if src.len() == 1 {
        return crate::spt::shortest_path_tree(structure, NodeId(src[0] as u32), dests);
    }

    let mut world = World::new(Topology::from_structure(structure), LINKS);
    let mut dest_mask = vec![false; n];
    for d in dests {
        dest_mask[d.index()] = true;
    }
    let src_mask: Vec<bool> = {
        let mut m = vec![false; n];
        for &s in &src {
            m[s] = true;
        }
        m
    };

    let forest = sources_forest(&mut world, structure, &src, &src_mask);

    // Corollary 57: prune every tree with Q = D.
    let rp = world.phase("destination pruning (Corollary 57)", |w| {
        let roots = forest_roots(&forest);
        let trees: Vec<Tree> = forest
            .sources
            .iter()
            .map(|&s| {
                let mut parents = vec![None; n];
                for v in 0..n {
                    if forest.member[v] && roots[v] == s as u32 {
                        parents[v] = forest.parents[v];
                    }
                }
                Tree::from_parents(n, s, &parents)
            })
            .collect();
        root_and_prune(w, &trees, &dest_mask)
    });

    let parents: Vec<Option<NodeId>> = (0..n)
        .map(|v| {
            if rp.in_vq[v] {
                rp.parent[v].map(|p| NodeId(p as u32))
            } else {
                None
            }
        })
        .collect();
    ForestOutcome::new(&world, parents)
}

/// The root of every node under `f`'s parent pointers, memoized with path
/// compression: one O(n) pass over two flat arrays. The previous
/// per-(source, node) upward walks cost O(n · k · depth) and dominated
/// destination pruning once the structure outgrew ~10^4 nodes.
fn forest_roots(f: &Forest) -> Vec<u32> {
    const UNKNOWN: u32 = u32::MAX;
    let n = f.parents.len();
    let mut root = vec![UNKNOWN; n];
    let mut path: Vec<u32> = Vec::new();
    for v in 0..n {
        if root[v] != UNKNOWN {
            continue;
        }
        let mut x = v;
        path.clear();
        while root[x] == UNKNOWN {
            match f.parents[x] {
                // The length guard mirrors the old defensive cycle check:
                // a (never expected) parent cycle terminates instead of
                // spinning, labelling the cycle by its entry node.
                Some(p) if path.len() < n => {
                    path.push(x as u32);
                    x = p;
                }
                _ => break,
            }
        }
        let r = if root[x] != UNKNOWN {
            root[x]
        } else {
            x as u32
        };
        root[x] = r;
        for &y in &path {
            root[y as usize] = r;
        }
    }
    root
}

/// A region of the divide step: its forest, whose `member` mask is the
/// region, plus, per `Q'` portal it meets, which side of that portal the
/// region lies on.
#[derive(Debug, Clone)]
struct Region {
    forest: Forest,
    /// `(portal id, side)` of each boundary `Q'` portal.
    boundaries: Vec<(u32, usize)>,
}

/// Computes the `S`-shortest path forest covering the whole structure
/// (Theorem 56) — destinations are handled by the caller.
fn sources_forest(
    world: &mut World,
    structure: &AmoebotStructure,
    src: &[usize],
    src_mask: &[bool],
) -> Forest {
    let ap = axis_portals(structure, &vec![true; structure.len()], Axis::X);

    // Degenerate case: the whole structure is a single x-portal (a line).
    // Q is still marked (one beep round, Lemma 51).
    if ap.portals.len() == 1 {
        return world.phase("line structure (Lemma 40)", |w| {
            mark_portals(w, &ap, src_mask);
            let chain = &ap.portals[0];
            let is_source: Vec<bool> = chain.iter().map(|&v| src_mask[v]).collect();
            line_forest(w, chain, &is_source)
        });
    }

    // §5.4.1: Q = portals with sources (one beep round, Lemma 51), and A_Q
    // via the portal root-and-prune rooted at the leader's portal (the
    // leader is a precondition, §2.1; we use the first source).
    let leader_portal = ap.portal_of[src[0]];
    let (prp, q_prime) = world.phase("compute Q' = Q ∪ A_Q (Lemma 51)", |w| {
        let q_portals = mark_portals(w, &ap, src_mask);
        let prp = portal_root_and_prune(w, structure, &ap, leader_portal, &q_portals);
        let q_prime: Vec<bool> = (0..ap.portals.len())
            .map(|p| q_portals[p] || (prp.portal_in_vq[p] && prp.portal_deg_q[p] >= 3))
            .collect();
        (prp, q_prime)
    });

    // §5.4.1: split into regions (Lemma 52). The unmarking beep is a round.
    let (regions, splits) = world.phase("divide into regions (Lemma 52)", |w| {
        w.charge_rounds(1, "unmark westernmost connectors (Lemma 52)");
        build_regions(structure, &ap, leader_portal, &prp.portal_in_vq, &q_prime)
    });
    for r in &regions {
        let b: std::collections::BTreeSet<u32> = r.boundaries.iter().map(|&(p, _)| p).collect();
        assert!(
            (1..=2).contains(&b.len()),
            "Lemma 52: regions meet one or two Q' portals"
        );
    }

    // §5.4.2 preprocessing: elect R' ∈ Q' and root the portal tree at it.
    let (r_prime, pdepth) = world.phase("elect and root at R' (Lemmas 35, 53)", |w| {
        let q_hat = ap.rep_flags(&q_prime);
        let tree = ap.tree_rooted_at(leader_portal);
        let elected = crate::primitives::election::elect(w, std::slice::from_ref(&tree), &q_hat);
        let r_prime = ap.portal_of[elected[0].expect("Q' is non-empty")];
        w.charge_rounds(1, "announce R' on portal circuit (Lemma 35)");
        // Portal tree rooted at R' (depths for LCA identification, Lemma 53).
        let pdepth = portal_depths(&ap, r_prime);
        w.charge_rounds(1, "identify P_DSC via region circuit (Lemma 53)");
        (r_prime, pdepth)
    });

    // §5.4.2 base case: per-region forests, in parallel.
    let regions = world.phase("base case per region (Lemma 54)", |w| {
        w.parallel(
            "base-case regions run in parallel (Lemma 54)",
            regions,
            |w, region| base_case_forest(w, structure, &ap, region, src_mask, &pdepth),
        )
    });

    // §5.4.4: schedule merges by a Q'-centroid decomposition tree of the
    // portal graph, computed with the real decomposition primitive on the
    // portal quotient (§3.5 / Lemma 37 establish the equivalence).
    let decomposition = world.phase("portal centroid decomposition (Lemma 37)", |w| {
        portal_centroid_decomposition(w, &ap, r_prime, &q_prime)
    });

    // Merge from the deepest decomposition level upward (§5.4.4); the
    // decomposition is recomputed (binary-counter replay) per level.
    let mut live: Vec<Option<Region>> = regions.into_iter().map(Some).collect();
    for level in (0..decomposition.levels).rev() {
        let portals_at_level = decomposition.centroids_at_level(level);
        if portals_at_level.is_empty() {
            continue;
        }
        if level + 1 != decomposition.levels {
            world.phase(
                format!("portal centroid decomposition: recompute level {level} (Lemma 37)"),
                |w| {
                    w.charge_rounds(
                        decomposition.rounds + 2,
                        "recompute decomposition level (Lemma 37 + binary counter)",
                    )
                },
            );
        }
        world.phase(format!("merge level {level} (Lemma 55)"), |w| {
            w.parallel(
                "same-level portal merges run in parallel",
                portals_at_level,
                |w, p| {
                    let p = p as u32;
                    merge_around_portal(w, structure, &ap, p, splits.get(&p), &mut live);
                },
            )
        });
    }

    let mut remaining: Vec<Region> = live.into_iter().flatten().collect();
    assert_eq!(remaining.len(), 1, "all regions must merge into one");
    let forest = remaining.pop().unwrap().forest;
    debug_assert!(forest.member.iter().all(|&m| m), "forest covers all");
    forest
}

/// BFS depths of the portal tree rooted at `root`.
fn portal_depths(ap: &AxisPortals, root: u32) -> Vec<u32> {
    let adj = ap.portal_tree_edges();
    let mut depth = vec![u32::MAX; ap.portals.len()];
    let mut queue = std::collections::VecDeque::new();
    depth[root as usize] = 0;
    queue.push_back(root);
    while let Some(p) = queue.pop_front() {
        for &(q, _) in &adj[p as usize] {
            if depth[q as usize] == u32::MAX {
                depth[q as usize] = depth[p as usize] + 1;
                queue.push_back(q);
            }
        }
    }
    depth
}

type Splits = std::collections::BTreeMap<u32, [Vec<usize>; 2]>;

/// Builds the regions of Lemma 52 and returns them together with the split
/// positions (member indices of the marked amoebots) per `(portal, side)`.
fn build_regions(
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    root_portal: u32,
    portal_in_vq: &[bool],
    q_prime: &[bool],
) -> (Vec<Region>, Splits) {
    let n = structure.len();
    let adj = ap.portal_tree_edges();
    // Rooted portal tree, mirroring the distributed rooting (the agreement
    // is verified by the portal-layer tests).
    let mut parent = vec![u32::MAX; ap.portals.len()];
    {
        let mut seen = vec![false; ap.portals.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[root_portal as usize] = true;
        queue.push_back(root_portal);
        while let Some(p) = queue.pop_front() {
            for &(q, _) in &adj[p as usize] {
                if !seen[q as usize] {
                    seen[q as usize] = true;
                    parent[q as usize] = p;
                    queue.push_back(q);
                }
            }
        }
    }
    let is_tq_edge = |a: u32, b: u32| -> bool {
        portal_in_vq[a as usize]
            && portal_in_vq[b as usize]
            && (parent[a as usize] == b || parent[b as usize] == a)
    };
    let side_of = |p: u32, q: u32| -> usize {
        // Side 0: the neighbor portal has a smaller line key (north for x).
        let kp = Axis::X.line_key(structure.coord(NodeId(ap.portals[p as usize][0] as u32)));
        let kq = Axis::X.line_key(structure.coord(NodeId(ap.portals[q as usize][0] as u32)));
        usize::from(kq > kp)
    };
    let member_index = |p: u32, v: usize| -> usize {
        ap.portals[p as usize]
            .iter()
            .position(|&x| x == v)
            .expect("connector on its portal")
    };

    // Split positions per (Q' portal, side): the T_Q connectors minus the
    // westernmost (Lemma 52).
    let mut splits: Splits = Splits::new();
    for p in 0..ap.portals.len() as u32 {
        if !q_prime[p as usize] {
            continue;
        }
        let mut per_side: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for &(q, c) in &adj[p as usize] {
            if is_tq_edge(p, q) {
                per_side[side_of(p, q)].push(member_index(p, c));
            }
        }
        for side in &mut per_side {
            side.sort_unstable();
            if !side.is_empty() {
                side.remove(0); // unmark the westernmost
            }
        }
        splits.insert(p, per_side);
    }

    // Quotient nodes: whole non-Q' portals, and one node per
    // (Q' portal, side, interval); interval j spans member indices
    // [split_{j-1} ..= split_j] (endpoints shared: marked amoebots belong
    // to both neighboring regions).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    enum QNode {
        Portal(u32),
        Sub(u32, usize, usize),
    }
    fn find(dsu: &mut std::collections::BTreeMap<QNode, QNode>, x: QNode) -> QNode {
        let p = *dsu.entry(x).or_insert(x);
        if p == x {
            x
        } else {
            let r = find(dsu, p);
            dsu.insert(x, r);
            r
        }
    }
    let interval_of = |p: u32, side: usize, member_idx: usize| -> usize {
        splits[&p][side]
            .iter()
            .filter(|&&x| x <= member_idx)
            .count()
    };
    let node_for = |p: u32, toward: u32, connector: usize| -> QNode {
        if q_prime[p as usize] {
            let side = side_of(p, toward);
            QNode::Sub(p, side, interval_of(p, side, member_index(p, connector)))
        } else {
            QNode::Portal(p)
        }
    };
    let mut dsu: std::collections::BTreeMap<QNode, QNode> = std::collections::BTreeMap::new();
    for p in 0..ap.portals.len() as u32 {
        for &(q, c) in &adj[p as usize] {
            if p < q {
                let cq = adj[q as usize]
                    .iter()
                    .find(|&&(x, _)| x == p)
                    .map(|&(_, cc)| cc)
                    .expect("symmetric portal adjacency");
                let a = node_for(p, q, c);
                let b = node_for(q, p, cq);
                let ra = find(&mut dsu, a);
                let rb = find(&mut dsu, b);
                if ra != rb {
                    dsu.insert(ra, rb);
                }
            }
        }
    }
    // Materialize components into regions, deterministically ordered.
    let mut all_nodes: Vec<QNode> = Vec::new();
    for p in 0..ap.portals.len() as u32 {
        if q_prime[p as usize] {
            for side in 0..2 {
                for j in 0..=splits[&p][side].len() {
                    all_nodes.push(QNode::Sub(p, side, j));
                }
            }
        } else {
            all_nodes.push(QNode::Portal(p));
        }
    }
    let mut groups: std::collections::BTreeMap<QNode, Vec<QNode>> =
        std::collections::BTreeMap::new();
    for &x in &all_nodes {
        let r = find(&mut dsu, x);
        groups.entry(r).or_default().push(x);
    }
    let mut regions = Vec::new();
    for (_, nodes) in groups {
        let mut mask = vec![false; n];
        let mut boundaries = Vec::new();
        for node in nodes {
            match node {
                QNode::Portal(p) => {
                    for &v in &ap.portals[p as usize] {
                        mask[v] = true;
                    }
                }
                QNode::Sub(p, side, j) => {
                    let members = &ap.portals[p as usize];
                    let s = &splits[&p][side];
                    let lo = if j == 0 { 0 } else { s[j - 1] };
                    let hi = if j == s.len() {
                        members.len() - 1
                    } else {
                        s[j]
                    };
                    for &v in &members[lo..=hi] {
                        mask[v] = true;
                    }
                    boundaries.push((p, side));
                }
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        regions.push(Region {
            forest: Forest::sourceless(mask),
            boundaries,
        });
    }
    (regions, splits)
}

/// §5.4.2: the base-case forest of one region. A corridor region without
/// sources keeps its sourceless forest; its forest arrives via the merges.
fn base_case_forest(
    world: &mut World,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    mut region: Region,
    src_mask: &[bool],
    pdepth: &[u32],
) -> Region {
    // The region's Q' portals; the LCA is the one closest to R' (Lemma 53).
    let mut portals: Vec<u32> = region.boundaries.iter().map(|&(p, _)| p).collect();
    portals.sort_unstable();
    portals.dedup();
    portals.sort_by_key(|&p| pdepth[p as usize]);
    let mask = &region.forest.member;
    let mut forest: Option<Forest> = None;
    for &p in &portals {
        let chain: Vec<usize> = ap.portals[p as usize]
            .iter()
            .copied()
            .filter(|&v| mask[v])
            .collect();
        let is_source: Vec<bool> = chain.iter().map(|&v| src_mask[v]).collect();
        if !is_source.iter().any(|&b| b) {
            continue; // no sources on this portal within the region
        }
        let line = line_forest(world, &chain, &is_source);
        let propagated = propagate_forest(world, structure, mask, &chain, Axis::X, &line);
        forest = Some(match forest {
            None => propagated,
            Some(prev) => merge_forests(world, &prev, &propagated),
        });
    }
    if let Some(forest) = forest {
        region.forest = forest;
    }
    region
}

/// §5.4.3: merges all regions intersecting portal `p` into one.
fn merge_around_portal(
    world: &mut World,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    p: u32,
    splits: Option<&[Vec<usize>; 2]>,
    live: &mut [Option<Region>],
) {
    let portal_members = &ap.portals[p as usize];
    let west_pos = |r: &Region| -> usize {
        portal_members
            .iter()
            .position(|&v| r.forest.member[v])
            .unwrap_or(0)
    };

    // Collect regions per side.
    let mut side_regions: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (i, slot) in live.iter().enumerate() {
        if let Some(region) = slot {
            for &(bp, side) in &region.boundaries {
                if bp == p && !side_regions[side].contains(&i) {
                    side_regions[side].push(i);
                }
            }
        }
    }

    let mut side_final: [Option<usize>; 2] = [None, None];
    for side in 0..2 {
        let mut order: Vec<usize> = side_regions[side].clone();
        order.sort_by_key(|&i| west_pos(live[i].as_ref().unwrap()));
        if order.is_empty() {
            continue;
        }
        let mut marks: Vec<usize> = splits.map(|s| s[side].clone()).unwrap_or_default();
        debug_assert_eq!(
            marks.len() + 1,
            order.len(),
            "marks must separate the side's regions"
        );
        // Phase 1: iterative pairing by PASC parity (O(log k) iterations).
        while !marks.is_empty() {
            // Termination check (1 round) + one weighted PASC iteration on
            // the portal over M (2 rounds), §5.4.3 steps 1-2.
            world.charge_rounds(3, "merge pairing: termination check + PASC parity");
            // Odd prefix parity selects every second mark (1-based odd):
            // mark j joins regions j and j + 1 into region j.
            let pairs: Vec<(usize, usize, usize)> = (0..marks.len())
                .step_by(2)
                .map(|j| (order[j], order[j + 1], marks[j]))
                .collect();
            world.parallel(
                "pair merges run in parallel (Lemma 55)",
                pairs,
                |w, (west, east, m)| {
                    let merged = merge_pair(
                        w,
                        structure,
                        portal_members[m],
                        live[west].take().unwrap(),
                        live[east].take().unwrap(),
                    );
                    live[west] = Some(merged);
                },
            );
            order = order.into_iter().step_by(2).collect();
            marks = marks.into_iter().skip(1).step_by(2).collect();
        }
        side_final[side] = Some(order[0]);
    }

    // Phase 2: join the two sides across the (now whole) portal.
    let outcome_idx = match (side_final[0], side_final[1]) {
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (Some(a), Some(b)) if a == b => a,
        (Some(a), Some(b)) => {
            let north = live[a].take().unwrap();
            let south = live[b].take().unwrap();
            let chain: Vec<usize> = portal_members
                .iter()
                .copied()
                .filter(|&v| north.forest.member[v] || south.forest.member[v])
                .collect();
            // Two propagations across the portal and a merge.
            live[a] = Some(join(world, north, south, |w, f, other| {
                propagate_forest(w, structure, &other.member, &chain, Axis::X, f)
            }));
            a
        }
        (None, None) => unreachable!("a scheduled portal bounds at least one region"),
    };
    // Remove p from the final region's boundary.
    if let Some(region) = live[outcome_idx].as_mut() {
        region.boundaries.retain(|&(bp, _)| bp != p);
    }
}

/// §5.4.3 step 3: merges two regions separated by the marked amoebot `m`
/// (part of both regions): every path between them traverses `m`, so each
/// forest is extended into the other region by a region-scoped SPT from `m`
/// glued below `m`'s existing tree position, and the two extensions merge.
fn merge_pair(
    world: &mut World,
    structure: &AmoebotStructure,
    m: usize,
    west: Region,
    east: Region,
) -> Region {
    debug_assert!(
        west.forest.member[m] && east.forest.member[m],
        "mark belongs to both regions"
    );
    join(world, west, east, |w, f, other| {
        let region: Vec<usize> = (0..other.member.len())
            .filter(|&v| other.member[v])
            .collect();
        let sub = region_sssp(w, structure, &region, m);
        let mut out = f.clone();
        for (&v, p) in region.iter().zip(sub) {
            if !f.member[v] {
                debug_assert!(p.is_some(), "SPT must cover the paired region");
                out.member[v] = true;
                out.parents[v] = p;
            }
        }
        out
    })
}

/// Joins regions `a` and `b` (§5.4.3): each forest with sources is
/// extended over the other region by `extend(world, forest, other)`, and
/// two extensions merge (Lemma 42). A sourceless forest only widens.
fn join(
    world: &mut World,
    a: Region,
    b: Region,
    mut extend: impl FnMut(&mut World, &Forest, &Forest) -> Forest,
) -> Region {
    let (fa, fb) = (&a.forest, &b.forest);
    let forest = match (fa.sources.is_empty(), fb.sources.is_empty()) {
        (false, false) => {
            let x = extend(world, fa, fb);
            let y = extend(world, fb, fa);
            merge_forests(world, &x, &y)
        }
        (false, true) => extend(world, fa, fb),
        (true, false) => extend(world, fb, fa),
        (true, true) => {
            let mut f = fa.clone();
            for (m, &o) in f.member.iter_mut().zip(&fb.member) {
                *m |= o;
            }
            f
        }
    };
    let mut boundaries = a.boundaries;
    boundaries.extend(b.boundaries);
    boundaries.sort_unstable();
    boundaries.dedup();
    Region { forest, boundaries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, validate_forest};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_forest(
        structure: &AmoebotStructure,
        sources: &[NodeId],
        dests: &[NodeId],
    ) -> ForestOutcome {
        let out = shortest_path_forest(structure, sources, dests);
        let violations = validate_forest(structure, sources, dests, &out.parents);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(out.report.total(), out.rounds);
        out
    }

    #[test]
    fn two_sources_on_parallelogram() {
        let s = AmoebotStructure::new(shapes::parallelogram(8, 5)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        check_forest(&s, &[NodeId(0), NodeId((s.len() - 1) as u32)], &all);
    }

    #[test]
    fn sources_on_same_portal() {
        let s = AmoebotStructure::new(shapes::parallelogram(9, 4)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        check_forest(&s, &[NodeId(0), NodeId(3), NodeId(7)], &all);
    }

    #[test]
    fn many_sources_hexagon() {
        let s = AmoebotStructure::new(shapes::hexagon(3)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        let sources: Vec<NodeId> = vec![NodeId(0), NodeId(9), NodeId(18), NodeId(27), NodeId(36)];
        check_forest(&s, &sources, &all);
    }

    #[test]
    fn random_blobs_random_sources() {
        let mut rng = StdRng::seed_from_u64(4242);
        for n in [12usize, 30, 80] {
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            for k in [2usize, 3, 5] {
                let src: Vec<NodeId> = shapes::random_subset(n, k.min(n), &mut rng)
                    .into_iter()
                    .map(|i| NodeId(i as u32))
                    .collect();
                let l = rng.gen_range(1..=n);
                let dst: Vec<NodeId> = shapes::random_subset(n, l, &mut rng)
                    .into_iter()
                    .map(|i| NodeId(i as u32))
                    .collect();
                check_forest(&s, &src, &dst);
            }
        }
    }

    #[test]
    fn line_structure_many_sources() {
        let s = AmoebotStructure::new(shapes::line(20)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        check_forest(&s, &[NodeId(2), NodeId(10), NodeId(17)], &all);
    }

    #[test]
    fn concave_shapes() {
        for coords in [
            shapes::comb(9, 3),
            shapes::l_shape(8, 3),
            shapes::staircase(5, 3),
        ] {
            let s = AmoebotStructure::new(coords).unwrap();
            let all: Vec<NodeId> = s.nodes().collect();
            let k = 3.min(s.len());
            let sources: Vec<NodeId> = (0..k)
                .map(|i| NodeId((i * (s.len() - 1) / (k - 1).max(1)) as u32))
                .collect();
            check_forest(&s, &sources, &all);
        }
    }

    #[test]
    fn destination_pruning_keeps_only_needed_paths() {
        let s = AmoebotStructure::new(shapes::parallelogram(10, 4)).unwrap();
        let src = [NodeId(0), NodeId(39)];
        let dst = [NodeId(19)];
        let out = check_forest(&s, &src, &dst);
        // Members = union of tree paths: far fewer than n.
        let members = out.parents.iter().flatten().count();
        assert!(members < s.len() / 2, "pruning must remove unused subtrees");
    }
}
