//! Differential tests: the incremental circuit engine ([`World::tick`])
//! against the pre-refactor full-recompute engine
//! ([`World::tick_reference`]) and against a naive circuit-count oracle.
//!
//! Both worlds receive byte-identical operation streams — random
//! topologies, random pin regroupings *between* ticks (so the
//! dirty-tracking path is exercised), random beeps — and must agree on
//! every delivered beep and every circuit count, every round.

use amoebot_circuits::{Topology, World};
use amoebot_grid::{AmoebotStructure, Coord, ALL_DIRECTIONS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random connected topology: a random tree over `n` nodes plus up to
/// `extra` additional random edges (duplicates skipped).
fn random_topology(rng: &mut StdRng, n: usize, extra: usize) -> Topology {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for v in 1..n {
        edges.push((rng.gen_range(0..v), v));
    }
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        let e = (u.min(v), u.max(v));
        if u != v && !edges.contains(&e) {
            edges.push(e);
        }
    }
    Topology::from_edges(n, &edges)
}

/// Test-local shadow of the pin configuration, used to compute the
/// expected circuit count independently of either engine.
struct Shadow {
    c: usize,
    /// `pset[v][port * c + link]` = local partition set of that pin.
    pset: Vec<Vec<u16>>,
}

impl Shadow {
    fn new(world: &World) -> Shadow {
        let c = world.links_per_edge();
        let pset = (0..world.topology().len())
            .map(|v| {
                (0..world.topology().ports_len(v) * c)
                    .map(|i| i as u16)
                    .collect()
            })
            .collect();
        Shadow { c, pset }
    }

    /// Naive circuit count: union-find over `(node, pset)` pairs along
    /// every external link, then count the distinct roots of referenced
    /// partition sets. Independent of both engines under test.
    #[allow(clippy::needless_range_loop)] // `v` also indexes `base[w]`
    fn circuit_count(&self, topo: &Topology) -> usize {
        let mut base = vec![0usize];
        let mut acc = 0usize;
        for v in 0..topo.len() {
            acc += topo.ports_len(v) * self.c;
            base.push(acc);
        }
        let total = acc;
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for v in 0..topo.len() {
            for (p, w, q) in topo.neighbors(v) {
                if v < w {
                    for link in 0..self.c {
                        let a = base[v] + self.pset[v][p * self.c + link] as usize;
                        let b = base[w] + self.pset[w][q * self.c + link] as usize;
                        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                        if ra != rb {
                            parent[ra.max(rb)] = ra.min(rb);
                        }
                    }
                }
            }
        }
        let mut roots = std::collections::HashSet::new();
        for v in 0..topo.len() {
            for pin in 0..topo.ports_len(v) * self.c {
                roots.insert(find(&mut parent, base[v] + self.pset[v][pin] as usize));
            }
        }
        roots.len()
    }
}

/// Applies one identical operation stream to both worlds and the shadow,
/// then checks that the incremental and reference engines agree on every
/// receive bit and on the circuit count, for `rounds` rounds.
fn run_differential(seed: u64, n: usize, c: usize, extra: usize, rounds: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_topology(&mut rng, n, extra);
    run_differential_on(&mut rng, topo, c, rounds)
}

fn run_differential_on(rng: &mut StdRng, topo: Topology, c: usize, rounds: usize) {
    let n = topo.len();
    let mut inc = World::new(topo, c);
    let mut reference = inc.clone();
    let mut shadow = Shadow::new(&inc);

    for round in 0..rounds {
        // Random regroupings between ticks (sometimes none, so consecutive
        // clean rounds exercise the cached-labeling path).
        if rng.gen_bool(0.6) {
            let nodes = rng.gen_range(1..=n);
            for _ in 0..nodes {
                let v = rng.gen_range(0..n);
                let cap = inc.pset_capacity(v);
                if cap == 0 {
                    continue;
                }
                match rng.gen_range(0..4u32) {
                    0 => {
                        inc.global_pin_config(v);
                        reference.global_pin_config(v);
                        shadow.pset[v].iter_mut().for_each(|p| *p = 0);
                    }
                    1 => {
                        inc.singleton_pin_config(v);
                        reference.singleton_pin_config(v);
                        for (i, p) in shadow.pset[v].iter_mut().enumerate() {
                            *p = i as u16;
                        }
                    }
                    _ => {
                        // Arbitrary per-pin assignment.
                        for port in 0..inc.topology().ports_len(v) {
                            for link in 0..c {
                                let pset = rng.gen_range(0..cap) as u16;
                                inc.set_pin(v, port, link, pset);
                                reference.set_pin(v, port, link, pset);
                                shadow.pset[v][port * c + link] = pset;
                            }
                        }
                    }
                }
            }
        }

        // Random beeps (possibly none: silent rounds must also agree).
        let beeps = rng.gen_range(0..=3usize);
        for _ in 0..beeps {
            let v = rng.gen_range(0..n);
            let cap = inc.pset_capacity(v);
            if cap == 0 {
                continue;
            }
            let pset = rng.gen_range(0..cap) as u16;
            inc.beep(v, pset);
            reference.beep(v, pset);
        }

        let expected_circuits = shadow.circuit_count(inc.topology());
        prop_assert_eq!(
            inc.circuit_count(),
            expected_circuits,
            "circuit count diverged from the naive oracle in round {}",
            round
        );

        inc.tick();
        reference.tick_reference();

        for v in 0..n {
            prop_assert_eq!(
                inc.received_any(v),
                reference.received_any(v),
                "received_any diverged at node {} in round {}",
                v,
                round
            );
            for pset in 0..inc.pset_capacity(v) as u16 {
                prop_assert_eq!(
                    inc.received(v, pset),
                    reference.received(v, pset),
                    "delivery diverged at node {} pset {} in round {}",
                    v,
                    pset,
                    round
                );
            }
        }
    }
}

/// A random connected coordinate set grown by a self-intersecting walk —
/// unlike the blob generator it freely encloses **holes** — with a short
/// eastward tail glued to the lexicographically largest cell so the
/// structure always carries **pendant** (degree-1) nodes. This exercises
/// the SoA storage path on exactly the irregular shapes the dense-grid
/// benchmarks never produce: vacant port slots, degree-1 chains, cells
/// around enclosed pockets.
fn random_holey_structure(rng: &mut StdRng, steps: usize) -> AmoebotStructure {
    let mut cells = vec![Coord::origin()];
    let mut cur = Coord::origin();
    for _ in 0..steps {
        cur = cur.neighbor(ALL_DIRECTIONS[rng.gen_range(0..ALL_DIRECTIONS.len())]);
        cells.push(cur);
    }
    cells.sort_unstable();
    cells.dedup();
    // Pendant tail east of the lexicographic maximum (every tail cell is
    // lexicographically larger still, so the cells are fresh and the tail
    // stays a chain).
    let mut tip = *cells.last().expect("walk is non-empty");
    for _ in 0..3 {
        tip = Coord::new(tip.q + 1, tip.r);
        cells.push(tip);
    }
    AmoebotStructure::new(cells).expect("walks and their tails are connected")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random topologies, regroupings and beeps: the incremental engine
    /// must be indistinguishable from the full-recompute reference.
    /// `n` starts at 1: a single-node world (no edges, no circuits
    /// beyond its own pins) must survive the whole op stream too.
    #[test]
    fn incremental_engine_matches_reference(
        seed in 0u64..=u64::MAX,
        n in 1usize..24,
        c in 1usize..4,
        extra in 0usize..8,
    ) {
        run_differential(seed, n, c, extra, 8);
    }

    /// Structure-derived topologies at irregular shapes: holes, pendant
    /// chains, vacant port slots. The grid worlds the sweeps run are
    /// built exactly this way (`Topology::from_structure`), so the
    /// engines must agree on them as well — including on the single-node
    /// structure (steps = 0), which is all vacant ports.
    #[test]
    fn engines_agree_on_holey_and_pendant_structures(
        seed in 0u64..=u64::MAX,
        steps in 0usize..40,
        c in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random_holey_structure(&mut rng, steps);
        run_differential_on(&mut rng, Topology::from_structure(&s), c, 6);
    }
}

/// A deterministic hole: the 6-cell ring around an empty center. Lemma 9
/// fails on structures with holes (the algorithms reject them), but the
/// *simulator* must still be exact on them.
#[test]
fn engines_agree_on_a_ring_with_a_hole() {
    let ring: Vec<Coord> = Coord::origin().neighbors().to_vec();
    let s = AmoebotStructure::new(ring).unwrap();
    assert!(!s.is_hole_free());
    let mut rng = StdRng::seed_from_u64(99);
    run_differential_on(&mut rng, Topology::from_structure(&s), 2, 8);
}

/// The smallest world: one node, no edges. Beeps on its own partition
/// sets must deliver to nothing, the circuit count must equal the number
/// of referenced partition sets, and both engines must agree on all of it.
#[test]
fn single_node_world_ticks_on_both_engines() {
    let s = AmoebotStructure::new([Coord::origin()]).unwrap();
    let mut w = World::new(Topology::from_structure(&s), 2);
    assert_eq!(w.pset_capacity(0), 12); // 6 vacant ports x 2 links
    assert_eq!(w.circuit_count(), 12); // every pin its own singleton circuit
    w.beep(0, 0);
    w.tick();
    // A beep on an isolated partition set is delivered to that set alone.
    assert!(w.received(0, 0));
    assert!(!w.received(0, 1));
    w.tick_reference();
    assert!(!w.received_any(0), "silent round after the beep");
    w.global_pin_config(0);
    assert_eq!(w.circuit_count(), 1);
    w.beep(0, 0);
    w.tick();
    assert!(w.received(0, 0));
    assert_eq!(w.rounds(), 3);
}

/// A reconfiguration made *after* a tick (while the cached labeling is
/// clean) must be visible to the very next tick — on both engines.
#[test]
fn reconfiguration_after_clean_ticks_is_not_missed() {
    let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let mut inc = World::new(topo, 2);
    let mut reference = inc.clone();
    for v in 0..5 {
        inc.global_pin_config(v);
        reference.global_pin_config(v);
    }
    // Several clean rounds so the incremental engine settles on its cache.
    for _ in 0..3 {
        inc.beep(0, 0);
        reference.beep(0, 0);
        inc.tick();
        reference.tick_reference();
        assert!(inc.received(4, 0) && reference.received(4, 0));
    }
    // Now node 2 splits the circuit *after* those ticks.
    inc.singleton_pin_config(2);
    reference.singleton_pin_config(2);
    inc.beep(0, 0);
    reference.beep(0, 0);
    inc.tick();
    reference.tick_reference();
    assert!(
        !inc.received_any(4) && !reference.received_any(4),
        "stale cached circuits leaked a beep across the split"
    );
    assert_eq!(inc.received_any(1), reference.received_any(1));
}

/// The two tick flavors can be interleaved on the same world: the
/// reference path keeps the incremental bookkeeping coherent.
#[test]
fn interleaved_tick_flavors_stay_coherent() {
    let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let mut w = World::new(topo, 1);
    for v in 0..4 {
        w.global_pin_config(v);
    }
    w.beep(0, 0);
    w.tick_reference();
    assert!(w.received(3, 0));
    // Incremental tick right after a reference tick: the stale deliveries
    // must be cleared and new ones computed on the fresh labeling.
    w.beep(3, 0);
    w.tick();
    assert!(w.received(0, 0));
    w.tick();
    assert!(!w.received_any(0) && !w.received_any(3), "silent round");
}

/// Asserts that both worlds hold the same pins and, through their SPFS
/// bytes, the same dirty set, labeling, stuck pins and counters.
fn assert_same_state(fast: &World, twin: &World, step: usize) {
    let c = fast.links_per_edge();
    for v in 0..fast.topology().len() {
        for port in 0..fast.topology().ports_len(v) {
            for link in 0..c {
                assert_eq!(
                    fast.pin_config(v, port, link),
                    twin.pin_config(v, port, link),
                    "pin ({v}, {port}, {link}) diverged at step {step} (c = {c})"
                );
            }
        }
    }
    assert!(
        fast.snapshot_bytes() == twin.snapshot_bytes(),
        "engine state diverged at step {step} (c = {c})"
    );
}

/// One seeded operation stream on two worlds. `fast` runs the structure-
/// wide calls (`reset_all_pins_keeping_links`, `global_link_config_all`)
/// on its touched-set bookkeeping; `twin` spells each out as the per-node
/// loop it stands for. Every step must leave both in the same state.
fn run_touched_set_differential(seed: u64, c: usize, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..12usize);
    let mut fast = World::new(random_topology(&mut rng, n, 4), c);
    let mut twin = fast.clone();
    // Pins stuck by this stream (duplicates allowed), for targeted unsticks.
    let mut stuck = Vec::new();
    for step in 0..steps {
        let n = fast.topology().len();
        let v = rng.gen_range(0..n);
        let ports = fast.topology().ports_len(v);
        let link = rng.gen_range(0..c);
        let port = rng.gen_range(0..ports.max(1));
        let pset = rng.gen_range(0..(ports * c).max(1)) as u16;
        match rng.gen_range(0..15u32) {
            0 | 1 if ports > 0 => {
                fast.set_pin(v, port, link, pset);
                twin.set_pin(v, port, link, pset);
            }
            2 if ports > 0 => {
                let pins: Vec<(usize, usize)> = (0..rng.gen_range(1..4usize))
                    .map(|_| (rng.gen_range(0..ports), rng.gen_range(0..c)))
                    .collect();
                assert_eq!(fast.group_pins(v, &pins), twin.group_pins(v, &pins));
            }
            3 => {
                fast.global_link_config(v, link);
                twin.global_link_config(v, link);
            }
            4 => {
                fast.global_link_config_all(link);
                for w in 0..n {
                    twin.global_link_config(w, link);
                }
            }
            5 => {
                fast.global_pin_config(v);
                twin.global_pin_config(v);
            }
            6 => {
                fast.singleton_pin_config(v);
                twin.singleton_pin_config(v);
            }
            7 if ports > 0 => {
                fast.stick_pin(v, port, link, pset);
                twin.stick_pin(v, port, link, pset);
                stuck.push((v, port, link));
            }
            8 if !stuck.is_empty() => {
                let (v, port, link) = stuck.swap_remove(rng.gen_range(0..stuck.len()));
                assert_eq!(
                    fast.unstick_pin(v, port, link),
                    twin.unstick_pin(v, port, link)
                );
            }
            9 if rng.gen_bool(0.2) => {
                assert_eq!(fast.release_stuck_pins(), twin.release_stuck_pins());
                stuck.clear();
            }
            10 => {
                let new_ports = rng.gen_range(1..4);
                let u = fast.add_node(new_ports);
                assert_eq!(u, twin.add_node(new_ports));
                // Wire the new node to the first vacant port elsewhere.
                let vacant = (0..u).find_map(|w| {
                    (0..fast.topology().ports_len(w))
                        .find(|&q| fast.topology().peer(w, q).is_none())
                        .map(|q| (w, q))
                });
                if let Some((w, q)) = vacant {
                    fast.connect(u, 0, w, q);
                    twin.connect(u, 0, w, q);
                }
            }
            11 => {
                fast = World::from_snapshot_bytes(&fast.snapshot_bytes()).expect("round trip");
            }
            _ => {
                let keep: Vec<usize> = (0..c).filter(|_| rng.gen_bool(0.3)).collect();
                fast.reset_all_pins_keeping_links(&keep);
                for w in 0..n {
                    twin.reset_pins_keeping_links(w, &keep);
                }
            }
        }
        assert_same_state(&fast, &twin, step);
        if rng.gen_bool(0.25) {
            let n = fast.topology().len();
            for _ in 0..rng.gen_range(1..4usize) {
                let v = rng.gen_range(0..n);
                let cap = fast.pset_capacity(v);
                if cap > 0 {
                    let pset = rng.gen_range(0..cap) as u16;
                    fast.beep(v, pset);
                    twin.beep(v, pset);
                }
            }
            fast.tick();
            twin.tick();
            for v in 0..n {
                for pset in 0..fast.pset_capacity(v) as u16 {
                    assert_eq!(
                        fast.received(v, pset),
                        twin.received(v, pset),
                        "delivery diverged at node {v} pset {pset}, step {step} (c = {c})"
                    );
                }
            }
            assert_same_state(&fast, &twin, step);
        }
    }
}

/// Structure-wide pin resets and sync-link set-ups cost the pins that
/// moved, yet must leave exactly the state of the per-node loops they
/// replace — with stuck pins, grown nodes and snapshot restores mixed in,
/// and for any number of links per edge (70 exceeds one machine word).
#[test]
fn touched_set_resets_match_per_node_resets() {
    for c in [1, 6, 70] {
        for seed in 0..24 {
            run_touched_set_differential(seed, c, 160);
        }
    }
}

/// Releasing a stuck pin that a structure-wide sync-link set-up skipped
/// must make the next set-up move it: the link is no longer known global.
#[test]
fn released_stuck_pin_rejoins_the_global_link() {
    let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
    for release_all in [false, true] {
        let mut w = World::new(topo.clone(), 2);
        // Pin (port 1, link 1) of node 1: its global set differs from 0.
        w.stick_pin(1, 1, 1, 0);
        w.global_link_config_all(1);
        assert_eq!(w.pin_config(1, 1, 1), 0, "a stuck pin ignores the set-up");
        if release_all {
            assert_eq!(w.release_stuck_pins(), 1);
        } else {
            assert!(w.unstick_pin(1, 1, 1));
        }
        w.global_link_config_all(1);
        assert_eq!(w.pin_config(1, 1, 1), World::global_link_pset(1));
    }
}
