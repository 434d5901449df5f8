//! PASC-style tour toggles against the full-recompute engine.
//!
//! A PASC data round (Lemma 4) flips the track crossings along a whole
//! chain or Euler tour, so every relabel after it dissolves and re-unions
//! the chain's two track circuits. These tests replay that pattern — long
//! chains whose crossings flip round by round, each data round followed
//! by a clean round — and check every delivery and every circuit label
//! against [`World::tick_reference`]. The chain lengths put the relabeled
//! region well below, just below and just past the global fallback
//! threshold (`total pins / REGION_FALLBACK_FRACTION`), and the
//! relabel-path counters pin which path each case takes.
//!
//! Three world shapes cover both branches of the region relabel's owner
//! lookup: amoebot worlds (six ports per node, where the O(1) stride
//! guess hits), and `Topology::from_edges` and `add_node` worlds whose
//! nodes have other port counts (where it misses and binary-searches).

use amoebot_circuits::{Topology, World, REGION_FALLBACK_FRACTION};
use amoebot_grid::{shapes, AmoebotStructure};

/// Links per edge: the primary and the secondary track.
const C: usize = 2;
const PRIMARY: usize = 0;
const SECONDARY: usize = 1;

/// An amoebot line of `n` nodes: six ports per node, node `i` next to
/// node `i + 1`.
fn amoebot_line(n: usize) -> World {
    let s = AmoebotStructure::new(shapes::line(n)).expect("a line is connected");
    World::new(Topology::from_structure(&s), C)
}

/// A path `0 - 1 - … - (n-1)` from an edge list (one or two ports per
/// node) plus one isolated node with no pins at all.
fn edge_list_path(n: usize) -> World {
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    World::new(Topology::from_edges(n + 1, &edges), C)
}

/// A path grown node by node from an empty world: three ports per node,
/// port 0 towards the successor, port 1 towards the predecessor.
fn grown_path(n: usize) -> World {
    let mut w = World::new(Topology::from_edges(0, &[]), C);
    for _ in 0..n {
        w.add_node(3);
    }
    for v in 0..n - 1 {
        w.connect(v, 0, v + 1, 1);
    }
    w
}

/// Configures chain node `i` like a PASC instance: track `a` joins the
/// pred-side primary pin with the succ-side primary pin (secondary when
/// crossed), track `b` the other two. The start never crosses. Returns
/// the `(a, b)` partition sets.
fn configure(world: &mut World, chain: &[usize], i: usize, crossed: bool) -> (u16, u16) {
    let v = chain[i];
    let port_to = |w: usize| {
        world
            .topology()
            .port_to(v, w)
            .expect("chain nodes are adjacent")
    };
    let pred = (i > 0).then(|| port_to(chain[i - 1]));
    let succ = (i + 1 < chain.len()).then(|| port_to(chain[i + 1]));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    if let Some(p) = pred {
        a.push((p, PRIMARY));
        b.push((p, SECONDARY));
    }
    if let Some(s) = succ {
        let (la, lb) = if crossed && pred.is_some() {
            (SECONDARY, PRIMARY)
        } else {
            (PRIMARY, SECONDARY)
        };
        a.push((s, la));
        b.push((s, lb));
    }
    (world.group_pins(v, &a), world.group_pins(v, &b))
}

/// Every partition set of every node: same deliveries and same circuit
/// label (the minimum member gid) in both worlds.
fn assert_same(inc: &mut World, reference: &mut World, round: usize) {
    for v in 0..inc.topology().len() {
        for pset in 0..inc.pset_capacity(v) as u16 {
            assert_eq!(
                inc.received(v, pset),
                reference.received(v, pset),
                "delivery diverged at node {v} pset {pset} in round {round}"
            );
            assert_eq!(
                inc.pset_circuit(v, pset),
                reference.pset_circuit(v, pset),
                "circuit label diverged at node {v} pset {pset} in round {round}"
            );
        }
    }
}

/// Runs `rounds` PASC-style iterations over the chain `0..len` of `world`
/// against a [`World::tick_reference`] twin. Each data round flips the
/// crossing of roughly half the instances (a fixed xorshift stream) and
/// the start beeps on one track; each following round reconfigures
/// nothing and beeps from the chain's far end. Returns the incremental
/// world's `(region, global)` relabel counts and the number of data
/// rounds that changed some pin.
fn run_toggles(world: World, len: usize, rounds: usize) -> (u64, u64, u64) {
    let chain: Vec<usize> = (0..len).collect();
    let mut inc = world;
    let mut reference = inc.clone();
    let mut crossed = vec![false; len];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut dirty_rounds = 0;
    for round in 0..rounds {
        for flag in crossed.iter_mut().skip(1) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *flag ^= x & 1 == 1;
        }
        let mut psets = Vec::with_capacity(len);
        for (i, &flag) in crossed.iter().enumerate() {
            psets.push(configure(&mut inc, &chain, i, flag));
            assert_eq!(configure(&mut reference, &chain, i, flag), psets[i]);
        }
        dirty_rounds += u64::from(inc.relabel_pending());
        let track = if round % 2 == 0 {
            psets[0].0
        } else {
            psets[0].1
        };
        inc.beep(chain[0], track);
        reference.beep(chain[0], track);
        inc.tick();
        reference.tick_reference();
        assert_same(&mut inc, &mut reference, round);

        // The clean round: no pin moves, so no relabel of either kind.
        let relabels = inc.region_relabels() + inc.global_relabels();
        inc.beep(chain[len - 1], psets[len - 1].0);
        reference.beep(chain[len - 1], psets[len - 1].0);
        inc.tick();
        reference.tick_reference();
        assert_eq!(
            inc.region_relabels() + inc.global_relabels(),
            relabels,
            "a round without reconfiguration must not relabel"
        );
        assert_same(&mut inc, &mut reference, round);
    }
    (inc.region_relabels(), inc.global_relabels(), dirty_rounds)
}

/// The longest chain whose two track circuits (`2 · len` partition sets)
/// still fit under the fallback threshold of `world`.
fn longest_region_chain(world: &World) -> usize {
    let pins: usize = (0..world.topology().len())
        .map(|v| world.pset_capacity(v))
        .sum();
    pins / REGION_FALLBACK_FRACTION / 2
}

/// Checks one world shape: a short chain and the longest chain under the
/// threshold relabel region-scoped after the initial global relabel, and
/// one more instance tips every relabel into the global fallback.
fn check_shape(make: impl Fn() -> World) {
    const ROUNDS: usize = 10;
    let near = longest_region_chain(&make());
    assert!(near >= 16, "the world must fit a long chain (got {near})");
    for len in [near / 4, near] {
        let (region, global, dirty) = run_toggles(make(), len, ROUNDS);
        assert!(dirty >= ROUNDS as u64 - 1, "the toggles must reconfigure");
        assert_eq!(
            global, 1,
            "only the initial relabel may be global (len {len})"
        );
        assert_eq!(
            region,
            dirty - 1,
            "tour toggles must relabel region-scoped (len {len})"
        );
    }
    let (region, global, dirty) = run_toggles(make(), near + 1, ROUNDS);
    assert_eq!(
        (region, global),
        (0, dirty),
        "a region past the threshold must fall back to the global relabel"
    );
}

#[test]
fn tour_toggles_on_amoebot_worlds() {
    check_shape(|| amoebot_line(240));
}

#[test]
fn tour_toggles_on_edge_list_worlds() {
    check_shape(|| edge_list_path(400));
}

#[test]
fn tour_toggles_on_grown_worlds() {
    check_shape(|| grown_path(300));
}
