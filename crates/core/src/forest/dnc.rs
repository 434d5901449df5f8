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
//!
//! Each region is a sub-problem of its own: its steps run on the region's
//! induced sub-structure in a child world (`spt::sub_run`).

use amoebot_circuits::{Topology, World};
use amoebot_grid::{AmoebotStructure, Axis, NodeId};

use crate::forest::line::line_forest;
use crate::forest::merge::merge_forests;
use crate::forest::propagate::propagate_forest;
use crate::forest::{Forest, ForestOutcome};
use crate::links::LINKS;
use crate::portals::{
    axis_portals, mark_portals, portal_centroid_decomposition, portal_elect, portal_root_and_prune,
    AxisPortals,
};
use crate::primitives::root_prune::root_and_prune;
use crate::spt::{induced, region_sssp, sub_run};
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

    // The forest's own world keeps only the round ledger: every step runs
    // as a sub-run on the whole structure or on a region of it.
    let mut world = World::new(Topology::from_edges(0, &[]), LINKS);
    let forest = sources_forest(&mut world, structure, &src);

    // Corollary 57: prune every tree with Q = D. Each source's tree is
    // found by a walk down the children lists; its edges go in child order.
    let rp = world.phase("destination pruning (Corollary 57)", |w| {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (v, p) in forest.parents.iter().enumerate() {
            if let &Some(p) = p {
                children[p].push(v);
            }
        }
        let trees: Vec<Tree> = forest
            .sources
            .iter()
            .map(|&s| {
                let (mut edges, mut stack) = (Vec::new(), vec![s]);
                while let Some(p) = stack.pop() {
                    edges.extend(children[p].iter().map(|&v| (p, v)));
                    stack.extend_from_slice(&children[p]);
                }
                edges.sort_unstable_by_key(|&(_, v)| v);
                Tree::from_edges(n, s, &edges)
            })
            .collect();
        let mut dest_mask = vec![false; n];
        for d in dests {
            dest_mask[d.index()] = true;
        }
        sub_run(w, structure, |w| root_and_prune(w, &trees, &dest_mask))
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

/// A region of the divide step, a sub-problem of its own: its amoebots,
/// its forest in local ids (local id `i` is the amoebot `nodes[i]`) and,
/// per `Q'` portal it meets, which side of that portal it lies on. A
/// region without sources has no forest until the merges bring one.
#[derive(Debug, Clone)]
struct Region {
    /// The region's amoebots, ascending.
    nodes: Vec<usize>,
    /// The forest over all of the region, in local ids.
    forest: Option<Forest>,
    /// `(portal id, side)` of each boundary `Q'` portal.
    boundaries: Vec<(u32, usize)>,
}

impl Region {
    /// The local id of amoebot `v`, if it lies in the region.
    fn local(&self, v: usize) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }
}

/// Computes the `S`-shortest path forest covering the whole structure
/// (Theorem 56) — destinations are handled by the caller. The steps that
/// need the whole structure (Q', the R' election) each run in a sub-run
/// of their own that ends before the next phase starts.
fn sources_forest(world: &mut World, structure: &AmoebotStructure, src: &[usize]) -> Forest {
    let n = structure.len();
    let ap = axis_portals(structure, &vec![true; n], Axis::X);
    let mut src_mask = vec![false; n];
    for &s in src {
        src_mask[s] = true;
    }

    // Degenerate case: the whole structure is a single x-portal (a line).
    // Q is still marked (one beep round, Lemma 51).
    if ap.portals.len() == 1 {
        return world.phase("line structure (Lemma 40)", |w| {
            sub_run(w, structure, |w| {
                mark_portals(w, &ap, &src_mask);
                let chain = &ap.portals[0];
                let is_source: Vec<bool> = chain.iter().map(|&v| src_mask[v]).collect();
                line_forest(w, chain, &is_source)
            })
        });
    }

    // §5.4.1: Q = portals with sources (one beep round, Lemma 51), and A_Q
    // via the portal root-and-prune rooted at the leader's portal (the
    // leader is a precondition, §2.1; we use the first source).
    let leader_portal = ap.portal_of[src[0]];
    let (prp, q_prime) = world.phase("compute Q' = Q ∪ A_Q (Lemma 51)", |w| {
        sub_run(w, structure, |w| {
            let q_portals = mark_portals(w, &ap, &src_mask);
            let prp = portal_root_and_prune(w, structure, &ap, leader_portal, &q_portals);
            let q_prime: Vec<bool> = (0..ap.portals.len())
                .map(|p| q_portals[p] || (prp.portal_in_vq[p] && prp.portal_deg_q[p] >= 3))
                .collect();
            (prp, q_prime)
        })
    });

    // §5.4.1: split into regions (Lemma 52). The unmarking beep is a round.
    let (regions, splits) = world.phase("divide into regions (Lemma 52)", |w| {
        w.charge_rounds(1, "unmark westernmost connectors (Lemma 52)");
        build_regions(structure, &ap, &prp.portal_in_vq, &q_prime)
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
        let elected = sub_run(w, structure, |w| {
            portal_elect(w, &ap, leader_portal, &q_prime)
        });
        let r_prime = elected.expect("Q' is non-empty");
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
            |w, region| base_case_forest(w, structure, &ap, region, src, &pdepth),
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

    // The last region is the whole structure, so its local ids are global.
    let mut last = live.into_iter().flatten();
    match (last.next().and_then(|r| r.forest), last.next()) {
        (Some(forest), None) => forest,
        _ => panic!("all regions must merge into one forest"),
    }
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
    portal_in_vq: &[bool],
    q_prime: &[bool],
) -> (Vec<Region>, Splits) {
    let n = structure.len();
    let adj = ap.portal_tree_edges();
    // The portal graph is a tree (Lemma 9), so two adjacent portals of the
    // pruned tree `V_Q` span one of its edges.
    let is_tq_edge = |a: u32, b: u32| portal_in_vq[a as usize] && portal_in_vq[b as usize];
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

    // Quotient nodes: each non-Q' portal whole (id: its portal id), and one
    // node per (Q' portal, side, interval), numbered after the portals in
    // that order; interval j spans member indices [split_{j-1} ..= split_j]
    // (endpoints shared: marked amoebots belong to both neighboring regions).
    let m = ap.portals.len();
    let mut subs: Vec<(u32, usize, usize)> = Vec::new();
    let mut first_sub = vec![[0; 2]; m];
    for (&p, per_side) in &splits {
        for (side, marks) in per_side.iter().enumerate() {
            first_sub[p as usize][side] = m + subs.len();
            subs.extend((0..=marks.len()).map(|j| (p, side, j)));
        }
    }
    let node_for = |p: u32, toward: u32, connector: usize| -> usize {
        if !q_prime[p as usize] {
            return p as usize;
        }
        let (side, at) = (side_of(p, toward), member_index(p, connector));
        first_sub[p as usize][side] + splits[&p][side].iter().filter(|&&x| x <= at).count()
    };
    fn find(dsu: &mut [usize], mut x: usize) -> usize {
        while dsu[x] != x {
            dsu[x] = dsu[dsu[x]];
            x = dsu[x];
        }
        x
    }
    let mut dsu: Vec<usize> = (0..m + subs.len()).collect();
    for p in 0..m as u32 {
        for &(q, c) in &adj[p as usize] {
            if p < q {
                let cq = adj[q as usize]
                    .iter()
                    .find(|&&(x, _)| x == p)
                    .map(|&(_, cc)| cc)
                    .expect("symmetric portal adjacency");
                let a = find(&mut dsu, node_for(p, q, c));
                dsu[a] = find(&mut dsu, node_for(q, p, cq));
            }
        }
    }
    // Materialize components into regions, ordered by their root.
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for x in (0..m + subs.len()).filter(|&x| x >= m || !q_prime[x]) {
        groups.entry(find(&mut dsu, x)).or_default().push(x);
    }
    // Regions overlap only on Q' portals: a Q' portal joins both of its
    // sides, and a marked connector both of its intervals. `owner` holds
    // the first region of every amoebot, so the check costs O(Σ|region|).
    let mut regions = Vec::new();
    let mut owner = vec![usize::MAX; n];
    for (_, qnodes) in groups {
        let mut nodes = Vec::new();
        let mut boundaries = Vec::new();
        for x in qnodes {
            if x < m {
                nodes.extend_from_slice(&ap.portals[x]);
                continue;
            }
            let (p, side, j) = subs[x - m];
            let members = &ap.portals[p as usize];
            let s = &splits[&p][side];
            let lo = if j == 0 { 0 } else { s[j - 1] };
            let hi = if j == s.len() {
                members.len() - 1
            } else {
                s[j]
            };
            nodes.extend_from_slice(&members[lo..=hi]);
            boundaries.push((p, side));
        }
        nodes.sort_unstable();
        nodes.dedup();
        for &v in &nodes {
            let first = std::mem::replace(&mut owner[v], regions.len());
            assert!(
                first == usize::MAX || q_prime[ap.portal_of[v] as usize],
                "Lemma 52: only Q' portal amoebots lie in two regions"
            );
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        regions.push(Region {
            forest: None,
            nodes,
            boundaries,
        });
    }
    (regions, splits)
}

/// §5.4.2: the base-case forest of one region, run on the region's own
/// sub-structure. A corridor region without sources stays without a
/// forest; its forest arrives via the merges.
fn base_case_forest(
    world: &mut World,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    mut region: Region,
    src: &[usize],
    pdepth: &[u32],
) -> Region {
    // The region's Q' portals; the LCA is the one closest to R' (Lemma 53).
    let mut portals: Vec<u32> = region.boundaries.iter().map(|&(p, _)| p).collect();
    portals.sort_unstable();
    portals.dedup();
    portals.sort_by_key(|&p| pdepth[p as usize]);
    // The region's part of each portal holding sources, in local ids.
    let chains: Vec<(Vec<usize>, Vec<bool>)> = portals
        .iter()
        .filter_map(|&p| {
            let chain: Vec<usize> = ap.portals[p as usize]
                .iter()
                .filter_map(|&v| region.local(v))
                .collect();
            let is_source: Vec<bool> = chain
                .iter()
                .map(|&l| src.binary_search(&region.nodes[l]).is_ok())
                .collect();
            is_source.contains(&true).then_some((chain, is_source))
        })
        .collect();
    let Some((first, rest)) = chains.split_first() else {
        return region;
    };
    let sub = induced(structure, &region.nodes);
    region.forest = Some(sub_run(world, &sub, |w| {
        let line_and_propagate = |w: &mut World, (chain, is_source): &(Vec<usize>, Vec<bool>)| {
            let line = line_forest(w, chain, is_source);
            propagate_forest(w, &sub, chain, Axis::X, &line)
        };
        let forest = line_and_propagate(w, first);
        rest.iter().fold(forest, |prev, chain| {
            let next = line_and_propagate(w, chain);
            merge_forests(w, &prev, &next)
        })
    }));
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
            .position(|&v| r.local(v).is_some())
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
            live[a] = Some(join_across(world, structure, portal_members, north, south));
            a
        }
        (None, None) => unreachable!("a scheduled portal bounds at least one region"),
    };
    // Remove p from the final region's boundary.
    if let Some(region) = live[outcome_idx].as_mut() {
        region.boundaries.retain(|&(bp, _)| bp != p);
    }
}

/// The region over the amoebots of `a` and `b`, without a forest so far,
/// and the local ids of each one's amoebots in it.
fn union(a: &Region, b: &Region) -> (Region, [Vec<usize>; 2]) {
    let mut nodes: Vec<usize> = a.nodes.iter().chain(&b.nodes).copied().collect();
    nodes.sort(); // two ascending runs: a linear merge
    nodes.dedup();
    let maps = [a, b].map(|r| {
        r.nodes
            .iter()
            .map(|&v| nodes.partition_point(|&x| x < v))
            .collect()
    });
    let mut boundaries = [&a.boundaries[..], &b.boundaries].concat();
    boundaries.sort_unstable();
    boundaries.dedup();
    let joined = Region {
        nodes,
        forest: None,
        boundaries,
    };
    (joined, maps)
}

/// `f` in the local ids of a union of `len` amoebots, into which `map`
/// sends `f`'s ids.
fn lift(f: &Forest, map: &[usize], len: usize) -> Forest {
    let mut parents = vec![None; len];
    for (&u, p) in map.iter().zip(&f.parents) {
        parents[u] = p.map(|p| map[p]);
    }
    let sources = f.sources.iter().map(|&s| map[s]).collect();
    Forest { parents, sources }
}

/// §5.4.3 step 3: merges two regions separated by the marked amoebot `m`
/// (part of both regions): every path between them traverses `m`, so each
/// forest with sources is extended into the other region by a region SPT
/// from `m` glued below `m`'s existing tree position. Two extensions merge
/// (Lemma 42) in a sub-run on both regions; the SPTs run before it, each
/// in a sub-run on its own region.
fn merge_pair(
    world: &mut World,
    structure: &AmoebotStructure,
    m: usize,
    west: Region,
    east: Region,
) -> Region {
    debug_assert!(
        west.local(m).is_some() && east.local(m).is_some(),
        "mark belongs to both regions"
    );
    let (mut joined, maps) = union(&west, &east);
    let pair = [&west, &east];
    let mut extended: Vec<Forest> = Vec::new();
    for (i, side) in pair.into_iter().enumerate() {
        let Some(forest) = &side.forest else {
            continue;
        };
        let (other, other_map) = (pair[1 - i], &maps[1 - i]);
        let mut f = lift(forest, &maps[i], joined.nodes.len());
        let spt = region_sssp(world, structure, &other.nodes, m);
        for ((&v, &u), p) in other.nodes.iter().zip(other_map).zip(spt) {
            if side.local(v).is_none() {
                debug_assert!(p.is_some(), "SPT must cover the paired region");
                f.parents[u] = p.map(|l| other_map[l]);
            }
        }
        extended.push(f);
    }
    joined.forest = match extended.as_slice() {
        [x, y] => {
            let sub = induced(structure, &joined.nodes);
            Some(sub_run(world, &sub, |w| merge_forests(w, x, y)))
        }
        _ => extended.pop(),
    };
    joined
}

/// §5.4.3 phase 2: joins the regions north and south of the portal
/// `portal`, each of which holds all of it, in a sub-run on both regions:
/// each forest with sources propagates across the portal (Lemma 50), and
/// two propagations merge (Lemma 42). Two sourceless regions only widen.
fn join_across(
    world: &mut World,
    structure: &AmoebotStructure,
    portal: &[usize],
    north: Region,
    south: Region,
) -> Region {
    let (mut joined, maps) = union(&north, &south);
    let sourced: Vec<Forest> = [&north, &south]
        .into_iter()
        .zip(&maps)
        .filter_map(|(r, map)| Some(lift(r.forest.as_ref()?, map, joined.nodes.len())))
        .collect();
    if let Some((first, rest)) = sourced.split_first() {
        let sub = induced(structure, &joined.nodes);
        let chain: Vec<usize> = portal.iter().filter_map(|&v| joined.local(v)).collect();
        joined.forest = Some(sub_run(world, &sub, |w| {
            let x = propagate_forest(w, &sub, &chain, Axis::X, first);
            rest.iter().fold(x, |x, f| {
                let y = propagate_forest(w, &sub, &chain, Axis::X, f);
                merge_forests(w, &x, &y)
            })
        }));
    }
    joined
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
