//! Round-complexity scaling assertions: empirical checks that the measured
//! round counts follow the paper's bounds (the benchmark harness prints the
//! full series; these tests pin the shape).

use spf::core::spt::{spsp, sssp};
use spf::grid::{shapes, AmoebotStructure, NodeId};

fn structure(w: usize, h: usize) -> AmoebotStructure {
    AmoebotStructure::new(shapes::parallelogram(w, h)).unwrap()
}

#[test]
fn spsp_rounds_independent_of_n() {
    let mut rounds = Vec::new();
    for w in [6usize, 12, 24, 48] {
        let s = structure(w, 4);
        let out = spsp(&s, NodeId(0), NodeId((s.len() - 1) as u32));
        rounds.push(out.rounds);
    }
    assert!(
        rounds.windows(2).all(|w| w[0] == w[1]),
        "SPSP must be O(1): {rounds:?}"
    );
}

#[test]
fn sssp_rounds_grow_logarithmically() {
    let mut prev = None;
    for w in [8usize, 16, 32, 64] {
        let s = structure(w, w / 2);
        let out = sssp(&s, NodeId(0));
        if let Some(p) = prev {
            // Quadrupling n must add only a constant number of rounds
            // (a few PASC iterations), not multiply them.
            assert!(
                out.rounds <= p + 14,
                "SSSP rounds grew too fast: {p} -> {} at w = {w}",
                out.rounds
            );
            assert!(out.rounds >= p, "rounds should be monotone-ish");
        }
        prev = Some(out.rounds);
    }
}

#[test]
fn forest_rounds_polylog_in_k() {
    // Doubling k from 4 to 8 must grow rounds by far less than 2x
    // (O(log² k) against the sequential baseline's O(k)).
    let s = structure(20, 10);
    let n = s.len();
    let pick = |k: usize| -> Vec<NodeId> {
        (0..k)
            .map(|i| NodeId((i * (n - 1) / (k - 1)) as u32))
            .collect()
    };
    let dests: Vec<NodeId> = s.nodes().collect();
    let r4 = spf::core::forest::shortest_path_forest(&s, &pick(4), &dests).rounds;
    let r8 = spf::core::forest::shortest_path_forest(&s, &pick(8), &dests).rounds;
    assert!(
        (r8 as f64) < 1.9 * r4 as f64,
        "forest rounds must grow sublinearly in k: {r4} -> {r8}"
    );
}

/// FNV-1a 64 over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the divide & conquer forest's exact behaviour on fixed blobs:
/// rounds, beeps, the per-phase ledger and the parents. A refactor of the
/// forest glue must leave all of them unchanged; a deliberate change
/// updates the table and says per lemma why the numbers moved.
#[test]
fn forest_fingerprints_are_pinned() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    // (n, k, |D| or 0 for all, seed) -> (rounds, beeps, phases digest,
    // parents digest).
    #[rustfmt::skip]
    let pinned = [
        ((80, 2, 0, 1), (186, 833, 555616563476352678, 1319288560579527708)),
        ((80, 4, 20, 2), (387, 1159, 10531114803740629103, 2175586032485703916)),
        ((80, 8, 0, 3), (530, 2129, 1163275356634862018, 12751729531150313757)),
        ((300, 2, 30, 4), (491, 5243, 12148514964463682347, 13408376737705582979)),
        ((300, 4, 0, 5), (465, 3692, 6034681818242534057, 17500995325128908530)),
        ((300, 8, 60, 6), (726, 5494, 8844335287348505286, 12111470626353871658)),
    ];
    for ((n, k, l, seed), want) in pinned {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
        let ids =
            |v: Vec<usize>| -> Vec<NodeId> { v.into_iter().map(|i| NodeId(i as u32)).collect() };
        let sources = ids(shapes::random_subset(n, k, &mut rng));
        let dests = if l == 0 {
            s.nodes().collect()
        } else {
            ids(shapes::random_subset(n, l, &mut rng))
        };
        let out = spf::core::forest::shortest_path_forest(&s, &sources, &dests);
        let phases = fnv(out
            .report
            .phases()
            .iter()
            .flat_map(|(name, r)| name.bytes().chain(r.to_le_bytes())));
        let parents = fnv(out
            .parents
            .iter()
            .flat_map(|p| p.map_or(u32::MAX, |v| v.0).to_le_bytes()));
        assert_eq!(
            (out.rounds, out.beeps, phases, parents),
            want,
            "n = {n}, k = {k}, |D| = {l}, seed = {seed}:\n{}",
            out.report
        );
    }
}
