//! The propagation algorithm (§5.3, Lemma 50): extend an S-forest from
//! `A ∪ P` across the portal `P` into the other side `B`, in `O(log n)`
//! rounds.
//!
//! Phase 1 covers the visibility region `B' = B ∩ vis(P)`: one round of
//! portal-circuit beeps determines which amoebots see `P` along each cross
//! axis (Figure 11); single-visibility amoebots adopt the neighbor towards
//! their projection (Lemma 47); double-visibility amoebots compare the
//! relayed distances `dist(S, proj_y(u))` and `dist(S, proj_z(u))`
//! (Lemma 46), streamed concurrently with the PASC run on the existing
//! forest (Figure 12).
//!
//! Phase 2 covers each connected component `Z` of `B'' = B \ vis(P)`
//! independently: all shortest paths into `Z` enter through `s_Z` (Lemma
//! 48), which adopts a northernmost neighbor in `B'_Z` (Lemma 49); a
//! region-scoped shortest path tree from `s_Z` finishes the component.

use amoebot_circuits::World;
use amoebot_grid::{AmoebotStructure, Axis, Direction, NodeId, ALL_AXES, ALL_DIRECTIONS};
use amoebot_pasc::{tree_specs, PascRun, StreamingCompare};

use crate::forest::Forest;
use crate::links::{BROADCAST, BWD_PRIMARY, FWD_PRIMARY, FWD_SECONDARY, SYNC};
use crate::portals::axis_portals;
use crate::spt::spt_in_world;

/// Propagates `forest` (covering `A ∪ P`) across the portal given by
/// `portal_nodes` (an axis-`axis` portal) into the amoebots of `region` it
/// does not cover yet (the side `B`). Returns an S-forest covering the
/// forest's members and all of `region`.
///
/// # Panics
///
/// Panics if the portal nodes are not forest members.
pub fn propagate_forest(
    world: &mut World,
    structure: &AmoebotStructure,
    region: &[bool],
    portal_nodes: &[usize],
    axis: Axis,
    forest: &Forest,
) -> Forest {
    let n = structure.len();
    debug_assert!(portal_nodes.iter().all(|&p| forest.member[p]));
    let mut in_portal = vec![false; n];
    for &p in portal_nodes {
        in_portal[p] = true;
    }
    let b_mask: Vec<bool> = (0..n).map(|v| region[v] && !forest.member[v]).collect();
    if !b_mask.iter().any(|&b| b) {
        return forest.clone(); // nothing to propagate into
    }
    let mask_pb: Vec<bool> = (0..n).map(|v| b_mask[v] || in_portal[v]).collect();
    let cross: Vec<Axis> = ALL_AXES.into_iter().filter(|&a| a != axis).collect();
    debug_assert_eq!(cross.len(), 2);

    // --- Phase 1a: visibility via each cross axis (one beep round each,
    // Figure 11) + the direction towards P along that axis.
    let key_p = axis.line_key(structure.coord(NodeId(portal_nodes[0] as u32)));
    let mut visible = vec![[false; 2]; n];
    let mut towards = vec![[None::<Direction>; 2]; n];
    let mut portal_pset = vec![[u16::MAX; 2]; n];
    let mut cross_portals = Vec::new();
    for (ei, &e) in cross.iter().enumerate() {
        let ap = axis_portals(structure, &mask_pb, e);
        let flags: Vec<bool> = (0..n).map(|v| in_portal[v]).collect();
        let vis_flags = crate::portals::mark_portals(world, structure, &mask_pb, &ap, &flags);
        for v in 0..n {
            if !b_mask[v] {
                continue;
            }
            let p = ap.portal_of[v];
            if p != u32::MAX && vis_flags[p as usize] {
                visible[v][ei] = true;
                // The e-direction that moves the axis line key towards P.
                let kv = axis.line_key(structure.coord(NodeId(v as u32)));
                let (pos, neg) = e.directions();
                let step = axis.line_key(structure.coord(NodeId(v as u32)).neighbor(pos)) - kv;
                let dir = if (key_p - kv).signum() == step.signum() {
                    pos
                } else {
                    neg
                };
                towards[v][ei] = Some(dir);
            }
        }
        cross_portals.push(ap);
    }

    let mut parents = forest.parents.clone();

    // --- Phase 1b: PASC on the existing forest with concurrent relays of
    // each portal amoebot's distance bits along its cross-axis portals
    // (Figure 12), 3 rounds per iteration.
    // Relay circuits: cross axis 0 on the BROADCAST link, cross axis 1 on
    // the BWD_PRIMARY link (the forest PASC only uses FWD links).
    for v in 0..n {
        if forest.member[v] || b_mask[v] {
            world.reset_pins_keeping_links(v, &[SYNC]);
        }
    }
    let relay_links = [BROADCAST, BWD_PRIMARY];
    for (ei, ap) in cross_portals.iter().enumerate() {
        let (pos, neg) = cross[ei].directions();
        for members in &ap.portals {
            for &v in members {
                let mut pins = Vec::new();
                for d in [pos, neg] {
                    if let Some(w) = structure.neighbor(NodeId(v as u32), d) {
                        if mask_pb[w.index()] {
                            pins.push((d.index(), relay_links[ei]));
                        }
                    }
                }
                if !pins.is_empty() {
                    portal_pset[v][ei] = world.group_pins(v, &pins);
                }
            }
        }
    }
    let topo = world.topology().clone();
    let (specs, idx) = tree_specs(
        &topo,
        &forest.parents,
        &forest.member,
        FWD_PRIMARY,
        FWD_SECONDARY,
    );
    let mut run = PascRun::new(world, specs, SYNC);
    let mut cmps: Vec<StreamingCompare> = vec![StreamingCompare::new(); n];
    while !run.is_done() {
        let bits = match run.data_step(world, |_| {}) {
            Some(b) => b.to_vec(),
            None => break,
        };
        // Relay round: every portal amoebot forwards its current distance
        // bit on both of its cross-portal circuits.
        for &p in portal_nodes {
            if bits[idx[p]] == 1 {
                for ei in 0..2 {
                    if portal_pset[p][ei] != u16::MAX {
                        world.beep(p, portal_pset[p][ei]);
                    }
                }
            }
        }
        world.tick();
        for v in 0..n {
            if b_mask[v] && visible[v][0] && visible[v][1] {
                let b0 =
                    u8::from(portal_pset[v][0] != u16::MAX && world.received(v, portal_pset[v][0]));
                let b1 =
                    u8::from(portal_pset[v][1] != u16::MAX && world.received(v, portal_pset[v][1]));
                cmps[v].feed(b0, b1);
            }
        }
        run.sync_step(world);
    }
    // Parent choice in B' (Lemmas 46/47).
    for v in 0..n {
        if !b_mask[v] {
            continue;
        }
        let pick = match (visible[v][0], visible[v][1]) {
            (true, false) => Some(0),
            (false, true) => Some(1),
            (true, true) => {
                // dist(S, proj_0(v)) <= dist(S, proj_1(v)) -> towards axis 0.
                if cmps[v].result() != std::cmp::Ordering::Greater {
                    Some(0)
                } else {
                    Some(1)
                }
            }
            (false, false) => None, // B'' — phase 2
        };
        if let Some(ei) = pick {
            let dir = towards[v][ei].expect("visible node has a direction");
            let w = structure
                .neighbor(NodeId(v as u32), dir)
                .expect("projection neighbor exists")
                .index();
            debug_assert!(mask_pb[w] || forest.member[w]);
            parents[v] = Some(w);
        }
    }

    // --- Phase 2: components of B'' (Lemmas 48/49), one SPT each, run in
    // parallel (disjoint regions).
    let b2: Vec<bool> = (0..n)
        .map(|v| b_mask[v] && !visible[v][0] && !visible[v][1])
        .collect();
    let mut comp = vec![usize::MAX; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        if !b2[v] || comp[v] != usize::MAX {
            continue;
        }
        let id = comps.len();
        let mut stack = vec![v];
        comp[v] = id;
        let mut members = vec![v];
        while let Some(x) = stack.pop() {
            for d in ALL_DIRECTIONS {
                if let Some(w) = structure.neighbor(NodeId(x as u32), d) {
                    let w = w.index();
                    if b2[w] && comp[w] == usize::MAX {
                        comp[w] = id;
                        members.push(w);
                        stack.push(w);
                    }
                }
            }
        }
        comps.push(members);
    }
    let toward_metric = |v: usize| -> (i32, i32) {
        let c = structure.coord(NodeId(v as u32));
        ((key_p - axis.line_key(c)).abs(), axis.along(c))
    };
    world.parallel(
        "phase-2 SPTs on disjoint B'' components run in parallel",
        &comps,
        |world, members| {
            // s_Z: the member adjacent to B' closest to P ("northernmost"),
            // ties broken westward; its parent: its closest-to-P neighbor in B'.
            let s_z = members
                .iter()
                .copied()
                .filter(|&z| {
                    ALL_DIRECTIONS.iter().any(|&d| {
                        structure
                            .neighbor(NodeId(z as u32), d)
                            .is_some_and(|w| b_mask[w.index()] && !b2[w.index()])
                    })
                })
                .min_by_key(|&z| toward_metric(z))
                .expect("every B'' component borders B'");
            let parent_of_sz = ALL_DIRECTIONS
                .iter()
                .filter_map(|&d| structure.neighbor(NodeId(s_z as u32), d))
                .map(|w| w.index())
                .filter(|&w| b_mask[w] && !b2[w])
                .min_by_key(|&w| toward_metric(w))
                .expect("s_Z borders B'");
            parents[s_z] = Some(parent_of_sz);
            if members.len() > 1 {
                let mut z_mask = vec![false; n];
                for &m in members {
                    z_mask[m] = true;
                }
                let sub_parents = spt_in_world(world, structure, &z_mask, s_z, &z_mask);
                for &m in members {
                    if m != s_z {
                        parents[m] = sub_parents[m];
                        debug_assert!(parents[m].is_some(), "SPT must cover the component");
                    }
                }
            }
        },
    );

    let mut out = Forest::from_parents(parents, forest.sources.clone());
    for v in 0..n {
        out.member[v] = forest.member[v] || b_mask[v];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::Topology;
    use amoebot_grid::{shapes, validate_forest, Coord};

    use crate::forest::line::line_forest;
    use crate::links::LINKS;

    /// Builds a forest on one x-portal row via the line algorithm, then
    /// propagates it into the rest of the structure and validates.
    fn check_propagation(s: &AmoebotStructure, portal_row: i32, source_cols: &[i32]) -> u64 {
        let mut world = World::new(Topology::from_structure(s), LINKS);
        // The portal: all nodes with r = portal_row.
        let mut portal: Vec<usize> = s
            .nodes()
            .filter(|&v| s.coord(v).r == portal_row)
            .map(|v| v.index())
            .collect();
        portal.sort_by_key(|&v| s.coord(NodeId(v as u32)).q);
        let is_source: Vec<bool> = portal
            .iter()
            .map(|&v| source_cols.contains(&s.coord(NodeId(v as u32)).q))
            .collect();
        let line = line_forest(&mut world, &portal, &is_source);
        // Region: portal side with r >= portal_row (P ∪ south side).
        let region: Vec<bool> = s.nodes().map(|v| s.coord(v).r >= portal_row).collect();
        let before = world.rounds();
        let forest = propagate_forest(&mut world, s, &region, &portal, Axis::X, &line);
        let rounds = world.rounds() - before;
        // Validate on the substructure induced by the region.
        let coords: Vec<Coord> = s
            .nodes()
            .filter(|&v| region[v.index()])
            .map(|v| s.coord(v))
            .collect();
        let sub = AmoebotStructure::new(coords).unwrap();
        let map = |v: usize| sub.node_at(s.coord(NodeId(v as u32))).unwrap();
        let sources: Vec<NodeId> = forest.sources.iter().map(|&v| map(v)).collect();
        let mut parents: Vec<Option<NodeId>> = vec![None; sub.len()];
        for v in 0..s.len() {
            if region[v] {
                if let Some(p) = forest.parents[v] {
                    parents[map(v).index()] = Some(map(p));
                }
            }
        }
        let all: Vec<NodeId> = sub.nodes().collect();
        let violations = validate_forest(&sub, &sources, &all, &parents);
        assert!(violations.is_empty(), "{violations:?}");
        rounds
    }

    #[test]
    fn propagates_into_parallelogram() {
        let s = AmoebotStructure::new(shapes::parallelogram(8, 5)).unwrap();
        check_propagation(&s, 0, &[0]);
        check_propagation(&s, 0, &[3, 7]);
    }

    #[test]
    fn propagates_into_triangle() {
        let s = AmoebotStructure::new(shapes::triangle(7)).unwrap();
        check_propagation(&s, 0, &[0, 6]);
    }

    #[test]
    fn propagates_with_shadowed_components() {
        // A short portal row atop a much wider block: amoebots far east of
        // the portal are outside vis(P) (no y- or z-portal reaches P), so
        // phase 2 must cover them through s_Z.
        let mut coords = Vec::new();
        for q in 0..4 {
            coords.push(Coord::new(q, 0)); // the portal row (short)
        }
        for r in 1..6 {
            for q in 0..10 {
                coords.push(Coord::new(q, r)); // wide block below
            }
        }
        let s = AmoebotStructure::new(coords).unwrap();
        assert!(s.is_hole_free());
        check_propagation(&s, 0, &[1]);
        check_propagation(&s, 0, &[0, 3]);
    }

    #[test]
    fn propagates_with_western_shadow() {
        // Mirror image: the shadowed pocket lies west of the portal, where
        // both the z-projection (towards NE) and y-projection miss P.
        let mut coords = Vec::new();
        for q in 6..10 {
            coords.push(Coord::new(q, 0));
        }
        for r in 1..6 {
            for q in 0..10 {
                coords.push(Coord::new(q, r));
            }
        }
        let s = AmoebotStructure::new(coords).unwrap();
        assert!(s.is_hole_free());
        check_propagation(&s, 0, &[7]);
    }

    #[test]
    fn no_b_side_is_identity() {
        let s = AmoebotStructure::new(shapes::line(6)).unwrap();
        let mut world = World::new(Topology::from_structure(&s), LINKS);
        let chain: Vec<usize> = (0..6).collect();
        let mut is_source = vec![false; 6];
        is_source[2] = true;
        let line = line_forest(&mut world, &chain, &is_source);
        let region = vec![true; 6];
        let out = propagate_forest(&mut world, &s, &region, &chain, Axis::X, &line);
        assert_eq!(out.parents, line.parents);
    }
}
