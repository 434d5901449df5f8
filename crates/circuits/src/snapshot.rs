//! The `SPFS` snapshot codec for [`Topology`] and [`World`].
//!
//! A snapshot serializes the **semantic** SoA state verbatim — CSR
//! topology, pin configurations, the tombstoned link table with its
//! free-list, pending beeps, the cached circuit labeling (labels,
//! membership arena, counted-root marks) and the dirty-pin set — so
//! restore is O(bytes): no relabel runs, no id renumbers, and the first
//! tick after a restore takes exactly the path the next tick of the
//! snapshotted world would have taken. That is what makes restored runs
//! *byte-identical* to uninterrupted ones, including the relabel
//! counters that canonical reports embed.
//!
//! Pure scratch is deliberately **not** serialized and is rebuilt
//! cleared on restore: the union-find parents (only read after a
//! relabel re-seeds them), the root/region/affected marks (always clear
//! between uses), and the per-port edge index and node base offsets
//! (both derivable from the link table and the CSR respectively). Phase
//! timers are also dropped: they are wall-clock diagnostics, excluded
//! from canonical reports by design. So is the phase ledger
//! ([`World::report`]): it is a diagnostic of one algorithm run, not
//! world state, and a restored world starts with an empty one.
//!
//! ## Payload grammar (inside the [`wire`] envelope, kind `WORLD`)
//!
//! All integers are unsigned LEB128 varints unless noted.
//!
//! ```text
//! world    := c | topology
//!           | pset[total] | links | free_links
//!           | sent | recv_set | labels[total]
//!           | members | member_off[total] | member_end[total]
//!           | dirty_pins | pset_at_relabel[total]
//!           | force_global (1 byte) | circuit_roots | cached_circuits
//!           | counters | rounds | simulated | charged | charge_log
//!           | beeps_sent | stuck
//! topology := n | ports[n] | (peer_node peer_port)[slots] | edge_count
//! links    := count | (a0 base_a b0 base_b)[count]     tombstone = DEAD_LINK
//! sent     := count | gid[count]                        (beeping psets)
//! recv_set := count | gid[count]                        (delivered psets)
//! members  := count | gid[count]                        (arena, garbage kept)
//! dirty    := count | (gid base)[count]
//! roots    := count | gid[count]                        (strictly ascending)
//! counters := count | (name value)[count]               (metrics counters)
//! charges  := count | (label signed_amount)[count]
//! stuck    := count | (gid pset)[count]                  (ascending gids)
//! ```

use amoebot_telemetry::wire::{self, SnapshotReader, SnapshotWriter, WireError};

use crate::bitset::BitSet;
use crate::report::RoundReport;
use crate::topology::{Topology, NONE};
use crate::world::{EngineStats, World, DEAD_LINK, NO_EDGE};

/// Counter names the world codec recognizes on restore. The metrics
/// registry keys counters by `&'static str`, so decoded names are
/// matched against this fixed menu rather than leaked into statics.
const KNOWN_COUNTERS: [&str; 4] = [
    "relabel_global",
    "relabel_region",
    "fault_drops",
    "fault_injects",
];

/// Encodes `topo` into `w` (the `topology` production above).
pub fn encode_topology(topo: &Topology, w: &mut SnapshotWriter) {
    let n = topo.len();
    w.varint(n as u64);
    for v in 0..n {
        w.varint(topo.ports_len(v) as u64);
    }
    for s in 0..topo.peer_node.len() {
        w.varint(topo.peer_node[s] as u64);
        w.varint(topo.peer_port[s] as u64);
    }
    w.varint(topo.edge_count as u64);
}

/// Decodes a topology, validating CSR shape and port mutuality (every
/// live slot's peer must point back).
pub fn decode_topology(r: &mut SnapshotReader<'_>) -> Result<Topology, WireError> {
    let n = r.len("topology node count")?;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for _ in 0..n {
        let ports = r.u32("topology port count")?;
        acc = acc.checked_add(ports).ok_or(WireError::BadValue {
            what: "topology port count",
            offset: r.offset(),
        })?;
        offsets.push(acc);
    }
    let slots = acc as usize;
    let mut peer_node = Vec::with_capacity(slots);
    let mut peer_port = Vec::with_capacity(slots);
    for _ in 0..slots {
        peer_node.push(r.u32("topology peer node")?);
        peer_port.push(r.u32("topology peer port")?);
    }
    let edge_count = r.len("topology edge count")?;
    let topo = Topology {
        offsets,
        peer_node,
        peer_port,
        edge_count,
    };
    // Mutuality: each live slot's peer slot must point straight back.
    let mut halves = 0usize;
    for v in 0..n {
        let (lo, hi) = (topo.offsets[v] as usize, topo.offsets[v + 1] as usize);
        for s in lo..hi {
            let w = topo.peer_node[s];
            if w == NONE {
                continue;
            }
            let p = s - lo;
            let q = topo.peer_port[s] as usize;
            let err = WireError::BadValue {
                what: "topology peer slot",
                offset: r.offset(),
            };
            if w as usize >= n || v == w as usize {
                return Err(err);
            }
            let (wlo, whi) = (
                topo.offsets[w as usize] as usize,
                topo.offsets[w as usize + 1] as usize,
            );
            if q >= whi - wlo
                || topo.peer_node[wlo + q] as usize != v
                || topo.peer_port[wlo + q] as usize != p
            {
                return Err(err);
            }
            halves += 1;
        }
    }
    if halves != edge_count * 2 {
        return Err(WireError::BadValue {
            what: "topology edge count",
            offset: r.offset(),
        });
    }
    Ok(topo)
}

/// Reads `count` gids, each `< total`, rebuilding the paired bitset.
/// Duplicates are rejected (the dense lists mirror bitsets, so an index
/// never appears twice).
fn decode_gid_list(
    r: &mut SnapshotReader<'_>,
    total: usize,
    what: &'static str,
) -> Result<(Vec<u32>, BitSet), WireError> {
    let count = r.len(what)?;
    let mut list = Vec::with_capacity(total.max(count));
    let mut bits = BitSet::new(total);
    for _ in 0..count {
        let offset = r.offset();
        let gid = r.u32(what)?;
        if gid as usize >= total || bits.get(gid as usize) {
            return Err(WireError::BadValue { what, offset });
        }
        bits.set(gid as usize);
        list.push(gid);
    }
    Ok((list, bits))
}

impl World {
    /// Writes the world payload (no envelope) into `w` — the composable
    /// form [`amoebot_dynamics`]'s codec embeds.
    pub fn encode_payload(&self, w: &mut SnapshotWriter) {
        w.varint(self.c as u64);
        encode_topology(&self.topo, w);
        for &pset in &self.pin_pset {
            w.varint(pset as u64);
        }
        w.varint(self.links.len() as u64);
        for &(a0, base_a, b0, base_b) in &self.links {
            w.varint(a0 as u64);
            w.varint(base_a as u64);
            w.varint(b0 as u64);
            w.varint(base_b as u64);
        }
        w.varint(self.free_links.len() as u64);
        for &ei in &self.free_links {
            w.varint(ei as u64);
        }
        w.varint(self.sent.len() as u64);
        for &gid in &self.sent {
            w.varint(gid as u64);
        }
        w.varint(self.recv_set.len() as u64);
        for &gid in &self.recv_set {
            w.varint(gid as u64);
        }
        for &l in &self.labels {
            w.varint(l as u64);
        }
        w.varint(self.members.len() as u64);
        for &m in &self.members {
            w.varint(m as u64);
        }
        for &off in &self.member_off {
            w.varint(off as u64);
        }
        for &end in &self.member_end {
            w.varint(end as u64);
        }
        w.varint(self.dirty_pins.len() as u64);
        for &(gid, base) in &self.dirty_pins {
            w.varint(gid as u64);
            w.varint(base as u64);
        }
        for &pset in &self.pset_at_relabel {
            w.varint(pset as u64);
        }
        w.byte(self.force_global as u8);
        let roots: Vec<usize> = self.circuit_roots.ones().collect();
        w.varint(roots.len() as u64);
        for gid in roots {
            w.varint(gid as u64);
        }
        w.varint(self.cached_circuits as u64);
        let counters = self.stats.metrics.counters_sorted();
        w.varint(counters.len() as u64);
        for (name, value) in counters {
            w.str(name);
            w.varint(value);
        }
        w.varint(self.rounds);
        w.varint(self.simulated);
        w.varint(self.charged);
        w.varint(self.charge_log.len() as u64);
        for (label, amount) in &self.charge_log {
            w.str(label);
            w.signed(*amount);
        }
        w.varint(self.beeps_sent);
        w.varint(self.stuck.len() as u64);
        for &(gid, pset) in &self.stuck {
            w.varint(gid as u64);
            w.varint(pset as u64);
        }
    }

    /// Decodes a world payload written by [`World::encode_payload`].
    /// O(bytes): validation walks each array once and nothing relabels —
    /// the cached labeling comes back exactly as snapshotted.
    pub fn decode_payload(r: &mut SnapshotReader<'_>) -> Result<World, WireError> {
        let c = r.len("links per edge")?;
        if c == 0 {
            return Err(WireError::BadValue {
                what: "links per edge",
                offset: r.offset(),
            });
        }
        let topo = decode_topology(r)?;
        let n = topo.len();
        let mut base = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for v in 0..n {
            base.push(acc);
            acc += (topo.ports_len(v) * c) as u32;
        }
        base.push(acc);
        let total = acc as usize;

        let mut pin_pset = Vec::with_capacity(total);
        for v in 0..n {
            let caps = (topo.ports_len(v) * c) as u64;
            for _ in 0..caps {
                let offset = r.offset();
                let pset = r.u16("pin partition set")?;
                if (pset as u64) >= caps {
                    return Err(WireError::BadValue {
                        what: "pin partition set",
                        offset,
                    });
                }
                pin_pset.push(pset);
            }
        }

        let link_count = r.len("link table")?;
        let mut links = Vec::with_capacity(link_count);
        let mut port_edge = vec![NO_EDGE; total / c];
        for ei in 0..link_count {
            let offset = r.offset();
            let entry = (
                r.u32("link pin")?,
                r.u32("link base")?,
                r.u32("link pin")?,
                r.u32("link base")?,
            );
            let err = WireError::BadValue {
                what: "link entry",
                offset,
            };
            if entry.0 == u32::MAX {
                if entry != DEAD_LINK {
                    return Err(err);
                }
            } else {
                let (a0, base_a, b0, base_b) = entry;
                if a0 as usize >= total || b0 as usize >= total || base_a > a0 || base_b > b0 {
                    return Err(err);
                }
                for slot in [a0 as usize / c, b0 as usize / c] {
                    if port_edge[slot] != NO_EDGE {
                        return Err(err);
                    }
                    port_edge[slot] = ei as u32;
                }
            }
            links.push(entry);
        }
        let free_count = r.len("free-link list")?;
        let mut free_links = Vec::with_capacity(free_count);
        for _ in 0..free_count {
            let offset = r.offset();
            let ei = r.u32("free-link slot")?;
            if ei as usize >= links.len() || links[ei as usize] != DEAD_LINK {
                return Err(WireError::BadValue {
                    what: "free-link slot",
                    offset,
                });
            }
            free_links.push(ei);
        }

        let (sent, send) = decode_gid_list(r, total, "beeping partition set")?;
        let (recv_set, recv) = decode_gid_list(r, total, "delivered partition set")?;

        let mut labels = Vec::with_capacity(total);
        for _ in 0..total {
            let offset = r.offset();
            let l = r.u32("circuit label")?;
            if l as usize >= total {
                return Err(WireError::BadValue {
                    what: "circuit label",
                    offset,
                });
            }
            labels.push(l);
        }
        let member_count = r.len("membership arena")?;
        let mut members = Vec::with_capacity(total.max(member_count));
        for _ in 0..member_count {
            let offset = r.offset();
            let m = r.u32("membership entry")?;
            if m as usize >= total {
                return Err(WireError::BadValue {
                    what: "membership entry",
                    offset,
                });
            }
            members.push(m);
        }
        let mut member_off = Vec::with_capacity(total);
        for _ in 0..total {
            member_off.push(r.u32("membership bucket start")?);
        }
        let mut member_end = Vec::with_capacity(total);
        for _ in 0..total {
            member_end.push(r.u32("membership bucket end")?);
        }

        let dirty_count = r.len("dirty-pin list")?;
        let mut dirty_pins = Vec::with_capacity(total.max(dirty_count));
        let mut dirty_pin = BitSet::new(total);
        for _ in 0..dirty_count {
            let offset = r.offset();
            let gid = r.u32("dirty pin")?;
            let b = r.u32("dirty-pin base")?;
            if gid as usize >= total || b > gid || dirty_pin.get(gid as usize) {
                return Err(WireError::BadValue {
                    what: "dirty pin",
                    offset,
                });
            }
            dirty_pin.set(gid as usize);
            dirty_pins.push((gid, b));
        }

        let mut pset_at_relabel = Vec::with_capacity(total);
        for _ in 0..total {
            pset_at_relabel.push(r.u16("relabel-time partition set")?);
        }
        let force_global = match r.byte()? {
            0 => false,
            1 => true,
            _ => {
                return Err(WireError::BadValue {
                    what: "force-global flag",
                    offset: r.offset() - 1,
                })
            }
        };

        let root_count = r.len("circuit-root list")?;
        let mut circuit_roots = BitSet::new(total);
        let mut prev: Option<u32> = None;
        for _ in 0..root_count {
            let offset = r.offset();
            let gid = r.u32("circuit root")?;
            if gid as usize >= total || prev.is_some_and(|p| gid <= p) {
                return Err(WireError::BadValue {
                    what: "circuit root",
                    offset,
                });
            }
            // A counted root's membership bucket must lie inside the
            // arena (stale offsets of *former* roots may dangle; they
            // are never read).
            let (off, end) = (member_off[gid as usize], member_end[gid as usize]);
            if off > end || end as usize > members.len() {
                return Err(WireError::BadValue {
                    what: "circuit root",
                    offset,
                });
            }
            circuit_roots.set(gid as usize);
            prev = Some(gid);
        }
        let cached_offset = r.offset();
        // A count, not an array length — it may legitimately exceed the
        // remaining byte budget, so it skips the `len` bounding.
        let cached_circuits = r.varint()? as usize;
        if cached_circuits != root_count {
            return Err(WireError::BadValue {
                what: "cached circuit count",
                offset: cached_offset,
            });
        }

        let mut stats = EngineStats::new();
        let counter_count = r.len("counter table")?;
        for _ in 0..counter_count {
            let offset = r.offset();
            let name = r.str("counter name")?;
            let value = r.varint()?;
            let known =
                *KNOWN_COUNTERS
                    .iter()
                    .find(|&&k| k == name)
                    .ok_or(WireError::BadValue {
                        what: "counter name",
                        offset,
                    })?;
            stats.metrics.add_named(known, value);
        }

        let rounds = r.varint()?;
        let simulated = r.varint()?;
        let charged = r.varint()?;
        let charge_count = r.len("charge log")?;
        let mut charge_log = Vec::with_capacity(charge_count);
        for _ in 0..charge_count {
            let label = r.str("charge label")?;
            let amount = r.signed()?;
            charge_log.push((label, amount));
        }
        let beeps_sent = r.varint()?;
        let stuck_count = r.len("stuck-pin list")?;
        let mut stuck = Vec::with_capacity(stuck_count);
        let mut prev_stuck: Option<u32> = None;
        for _ in 0..stuck_count {
            let offset = r.offset();
            let gid = r.u32("stuck pin")?;
            let pset = r.u16("stuck-pin partition set")?;
            let err = WireError::BadValue {
                what: "stuck pin",
                offset,
            };
            if gid as usize >= total || prev_stuck.is_some_and(|p| gid <= p) {
                return Err(err);
            }
            // The frozen value must be a valid pset of the owning node.
            let v = base.partition_point(|&b| b <= gid) - 1;
            if pset as u32 >= base[v + 1] - base[v] || pin_pset[gid as usize] != pset {
                return Err(err);
            }
            prev_stuck = Some(gid);
            stuck.push((gid, pset));
        }

        Ok(World {
            topo,
            c,
            base,
            pin_pset,
            links,
            free_links,
            send,
            sent,
            recv,
            recv_set,
            // Union-find parents are relabel scratch: every relabel
            // re-seeds the entries it reads, so restore matches
            // `World::new`'s zero fill.
            uf: vec![0; total],
            labels,
            members,
            member_off,
            member_end,
            // Delivery-digest caches are rebuilt lazily: the epoch
            // starts at 1 with every stamp at 0, so the first tracing
            // delivery to each circuit recomputes its digest.
            member_digest: vec![0; total],
            member_digest_epoch: vec![0; total],
            digest_epoch: 1,
            root_mark: BitSet::new(total),
            marked_roots: Vec::with_capacity(total),
            dirty_pins,
            dirty_pin,
            pset_at_relabel,
            force_global,
            circuit_roots,
            port_edge,
            affected_mark: BitSet::new(total),
            affected_roots: Vec::new(),
            in_region: BitSet::new(total),
            region: Vec::new(),
            node_mark: BitSet::new(n),
            region_nodes: Vec::new(),
            cached_circuits,
            stats,
            rounds,
            simulated,
            charged,
            charge_log,
            // The phase ledger is a diagnostic of one algorithm run and
            // is not persisted: a restored world starts with none.
            report: RoundReport::new(),
            phase_depth: 0,
            beeps_sent,
            stuck,
        })
    }

    /// The world as a sealed `SPFS` blob (kind `WORLD`).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(wire::kind::WORLD);
        self.encode_payload(&mut w);
        w.finish()
    }

    /// Restores a world from [`World::snapshot_bytes`] output. Rejects
    /// corruption (any flipped bit) and malformed payloads with an
    /// offset-carrying [`WireError`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<World, WireError> {
        let mut r = SnapshotReader::open(bytes, wire::kind::WORLD)?;
        let world = World::decode_payload(&mut r)?;
        r.finish()?;
        Ok(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_telemetry::{NullRecorder, Recorder, RoundSummary};

    /// A recorder that keeps every round summary (for differential
    /// comparison of restored vs. uninterrupted runs).
    #[derive(Default)]
    struct Summaries(Vec<RoundSummary>);

    impl Recorder for Summaries {
        const TRACE: bool = true;
        const TIMED: bool = false;
        fn round_end(&mut self, s: &RoundSummary) {
            self.0.push(*s);
        }
    }

    fn grid_world(cols: usize, rows: usize, c: usize) -> World {
        let mut edges = Vec::new();
        let at = |x: usize, y: usize| y * cols + x;
        for y in 0..rows {
            for x in 0..cols {
                if x + 1 < cols {
                    edges.push((at(x, y), at(x + 1, y)));
                }
                if y + 1 < rows {
                    edges.push((at(x, y), at(x, y + 1)));
                }
            }
        }
        World::new(Topology::from_edges(cols * rows, &edges), c)
    }

    /// A world with real history: global circuits, beeps, ticks, a
    /// structure edit (leaving a tombstoned link + free-list entry), a
    /// charge, and a pending beep that has not ticked yet.
    fn seasoned_world() -> World {
        let mut w = grid_world(4, 3, 2);
        for v in 0..12 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.tick();
        w.tick();
        let (peer, _) = w.disconnect(5, 0);
        assert_ne!(peer, 5);
        w.tick();
        w.charge_rounds(3, "snapshot-test charge");
        w.beep(7, 1);
        w
    }

    #[test]
    fn round_trip_is_byte_identical_and_behaviorally_equal() {
        let mut original = seasoned_world();
        let blob = original.snapshot_bytes();
        let mut restored = World::from_snapshot_bytes(&blob).unwrap();
        // Re-encoding the restored world reproduces the same bytes: the
        // codec covers every field it reads.
        assert_eq!(restored.snapshot_bytes(), blob);
        // And the two worlds stay in lockstep for several rounds,
        // including the relabel the pending dirty pins will trigger.
        let (mut a, mut b) = (Summaries::default(), Summaries::default());
        for round in 0..5 {
            original.beep(round % 12, 0);
            restored.beep(round % 12, 0);
            original.tick_with(&mut a);
            restored.tick_with(&mut b);
        }
        assert_eq!(a.0, b.0);
        assert_eq!(original.circuit_count(), restored.circuit_count());
        assert_eq!(original.rounds(), restored.rounds());
        assert_eq!(
            original.metrics().counter_value("relabel_global"),
            restored.metrics().counter_value("relabel_global")
        );
        assert_eq!(
            original.metrics().counter_value("relabel_region"),
            restored.metrics().counter_value("relabel_region")
        );
    }

    #[test]
    fn restore_preserves_the_charge_audit() {
        let w = seasoned_world();
        let restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        assert_eq!(restored.rounds(), w.rounds());
        assert_eq!(restored.simulated_rounds(), w.simulated_rounds());
        assert_eq!(restored.charge_log(), w.charge_log());
        let logged: i64 = restored.charge_log().iter().map(|(_, a)| a).sum();
        assert_eq!(
            restored.rounds() as i64,
            restored.simulated_rounds() as i64 + logged
        );
    }

    #[test]
    fn restore_skips_the_relabel_entirely() {
        // A steady-state world (no dirty pins) must restore with its
        // cached labeling intact: querying the circuit count afterwards
        // runs no relabel, keeping the counters — and therefore the
        // canonical report — identical.
        let mut w = grid_world(3, 3, 1);
        for v in 0..9 {
            w.global_pin_config(v);
        }
        w.tick(); // global relabel happens here
        let globals_before = w.metrics().counter_value("relabel_global");
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        let count = restored.circuit_count();
        assert_eq!(count, w.circuit_count());
        assert_eq!(
            restored.metrics().counter_value("relabel_global"),
            globals_before,
            "restore must not trigger a relabel"
        );
    }

    #[test]
    fn every_single_bit_corruption_is_rejected() {
        let w = seasoned_world();
        let blob = w.snapshot_bytes();
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    World::from_snapshot_bytes(&bad).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let blob = seasoned_world().snapshot_bytes();
        for cut in 0..blob.len() {
            assert!(World::from_snapshot_bytes(&blob[..cut]).is_err());
        }
    }

    #[test]
    fn tombstoned_links_and_free_list_survive() {
        let mut w = grid_world(4, 2, 1);
        for v in 0..8 {
            w.global_pin_config(v);
        }
        w.tick();
        let (peer, q) = w.disconnect(0, 0);
        w.tick();
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        // Reconnect through the restored free-list: the recycled slot
        // must behave exactly like the original's.
        restored.connect(0, 0, peer, q);
        w.connect(0, 0, peer, q);
        let _ = (w.tick(), restored.tick());
        assert_eq!(w.circuit_count(), restored.circuit_count());
        assert_eq!(restored.snapshot_bytes(), w.snapshot_bytes());
    }

    #[test]
    fn pending_beeps_survive_the_round_trip() {
        let mut w = grid_world(2, 2, 1);
        for v in 0..4 {
            w.global_pin_config(v);
        }
        w.tick();
        w.beep(0, 0); // pending, not yet delivered
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        w.tick();
        restored.tick();
        for v in 0..4 {
            assert_eq!(w.received(v, 0), restored.received(v, 0));
        }
    }

    #[test]
    fn null_recorder_tick_matches_after_restore() {
        // Cheap sanity that the restored world is usable through the
        // plain (NullRecorder-wrapped) API surface too.
        let mut w = seasoned_world();
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        w.tick_with(&mut NullRecorder);
        restored.tick();
        assert_eq!(w.rounds(), restored.rounds());
    }
}
