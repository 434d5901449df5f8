//! The synchronous round simulator.
//!
//! # Engine design
//!
//! The pin *topology* of a world changes only through the explicit
//! structure-mutation calls ([`World::add_node`], [`World::connect`],
//! [`World::disconnect`], [`World::isolate`]); between those, which pin
//! faces which peer pin across an external link is fixed. What changes
//! between rounds is normally only the *pin configuration* (which local
//! partition set each pin belongs to). [`World::new`] therefore
//! precomputes a flat link table of global-pin-index pairs once, and
//! [`World::tick`] maintains a cached circuit labeling guarded by a
//! **dirty-pin set** (dense list + [`BitSet`], mirroring the beep-flag
//! pattern):
//!
//! * any mutation ([`World::set_pin`] and everything built on it) that
//!   actually changes a pin's partition set marks that pin dirty; no-op
//!   writes (the stored value is unchanged) keep the labeling clean;
//! * a dirty tick relabels **region-scoped**: the old circuits touching
//!   any dirty pin's old or new partition set are dissolved back to
//!   singleton union-find entries, only the links incident to members of
//!   that region are re-unioned, and the updated buckets are spliced back
//!   into the membership index — clean circuits keep their labels and
//!   members untouched, so a sparse reconfiguration costs O(affected
//!   circuits · c), not O(total pins). See DESIGN.md §1c for the
//!   stability invariant that makes this sound;
//! * when the dirty region exceeds [`REGION_FALLBACK_FRACTION`] of all
//!   pins (or after [`World::tick_reference`] clobbered the scratch), the
//!   engine falls back to the global relabel — union-find over the whole
//!   link table plus a counting-sort membership rebuild in
//!   O(total pins · α);
//! * a clean tick (no amoebot reconfigured since the last relabel) reuses
//!   the cached labeling and costs O(beeps sent + members of beeping
//!   circuits + deliveries cleared), independent of the structure size.
//!
//! No clean-tick code path allocates: beeps, deliveries and root dedup
//! all go through reusable buffers sized at construction. Both relabel
//! flavors produce the *same* labeling (each circuit is labelled by its
//! minimum member id), so reports never depend on which path ran.
//!
//! Structure mutations ride the same machinery: [`World::connect`] and
//! [`World::disconnect`] splice the link table (tombstoned entries plus a
//! freelist keep `links` compact under grow–shrink cycles) and mark the
//! `c` pin pairs of the edge dirty, so the next relabel dissolves exactly
//! the circuits that ran through the edge — a k-node churn event costs
//! O(k · deg) amortized, not O(n). [`World::add_node`] appends a node
//! with vacant ports and pre-labels its fresh singleton sets, keeping the
//! cached labeling valid without any relabel at all.
//!
//! [`World::tick_reference`] keeps the original full-recompute engine
//! alive verbatim; differential tests and the `circuit_engine` benches pin
//! the incremental engine against it.

use crate::bitset::BitSet;
use crate::report::RoundReport;
use crate::topology::{PortId, Topology};
use amoebot_telemetry::{
    mix64, CounterId, Metrics, NullRecorder, Recorder, RelabelKind, RoundSummary, Stopwatch,
    TimerId, BEEP_DIGEST_SALT,
};

/// A pin reference local to a node: `(port, link)` with `link < c`.
pub type Pin = (PortId, usize);

/// A region-scoped relabel falls back to the global recompute when the
/// affected region exceeds `total pins / REGION_FALLBACK_FRACTION`: past
/// a modest fraction of the structure, dissolving and re-unioning the
/// region (bitset checks per link, scattered bucket writes, arena
/// repacks) costs more than the global relabel's straight linear sweeps.
/// Tuned empirically on the PASC-chain workload, whose dirty regions
/// hover around 1/6 of all pins: 1/4 left it ~35% slower than the global
/// path, 1/8 restores parity while every genuinely sparse workload (the
/// DnC forest's portal-scoped phases, percent-level reconfigurations)
/// stays far below the threshold.
pub const REGION_FALLBACK_FRACTION: usize = 8;

/// Vacant-slot sentinel of the per-port edge table.
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// Tombstone of a removed `links` entry (`a0 == u32::MAX` never occurs on
/// a live entry: it would exceed the pin id space).
pub(crate) const DEAD_LINK: (u32, u32, u32, u32) = (u32::MAX, 0, 0, 0);

/// The engine's telemetry registry plus pre-registered handles for the
/// hot-path counters and phase timers, so instrumented code never pays a
/// name lookup. Relabel counters live here (the old `u64` fields are now
/// thin wrappers over the registry); phase timers are populated only
/// when a run drives the engine through a [`Recorder`] with
/// `TIMED = true` — under [`NullRecorder`] the timing code compiles away.
#[derive(Debug, Clone)]
pub(crate) struct EngineStats {
    pub(crate) metrics: Metrics,
    pub(crate) relabel_global: CounterId,
    pub(crate) relabel_region: CounterId,
    pub(crate) fault_drops: CounterId,
    pub(crate) fault_injects: CounterId,
    pub(crate) t_propagate: TimerId,
    pub(crate) t_dissolve: TimerId,
    pub(crate) t_reunion: TimerId,
    pub(crate) t_repack: TimerId,
    pub(crate) t_global: TimerId,
}

impl EngineStats {
    pub(crate) fn new() -> EngineStats {
        let mut m = Metrics::new();
        EngineStats {
            relabel_global: m.counter("relabel_global"),
            relabel_region: m.counter("relabel_region"),
            fault_drops: m.counter("fault_drops"),
            fault_injects: m.counter("fault_injects"),
            t_propagate: m.timer("phase_propagate_micros"),
            t_dissolve: m.timer("phase_region_dissolve_micros"),
            t_reunion: m.timer("phase_region_reunion_micros"),
            t_repack: m.timer("phase_membership_repack_micros"),
            t_global: m.timer("phase_global_relabel_micros"),
            metrics: m,
        }
    }
}

/// One tick's worth of adversarial beep faults, staged by a fault plan
/// and consumed by [`World::tick_faulted`]. Both lists hold partition-set
/// gids and **must be sorted ascending** — the faulted tick binary-searches
/// them per beep.
///
/// The fault-free instance is [`TickFaults::EMPTY`]; `tick`/`tick_with`
/// run through the same monomorphized engine with the fault arm compiled
/// out, so an unarmed adversary costs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickFaults {
    /// Gids whose beep — if the algorithm sent one this round — is
    /// suppressed before delivery. The send still counts as a beep (it
    /// left the amoebot; the adversary ate it on the wire), so traces
    /// record it as a `Beep` plus a `FaultDrop` attribution.
    pub drop: Vec<u32>,
    /// Gids forced to beep this round whether or not the algorithm sent
    /// (spurious beeps). Injected before delivery, so they trace as
    /// ordinary `Beep`s plus a `FaultInject` attribution.
    pub inject: Vec<u32>,
}

impl TickFaults {
    /// No faults: what the plain tick paths run under.
    pub const EMPTY: TickFaults = TickFaults {
        drop: Vec::new(),
        inject: Vec::new(),
    };

    /// Whether this stage carries no beep-level faults at all.
    pub fn is_empty(&self) -> bool {
        self.drop.is_empty() && self.inject.is_empty()
    }
}

/// The simulated world: a topology, `c` external links per edge, the current
/// pin configuration of every amoebot, and the beep state.
///
/// One call to [`World::tick`] is one round of the fully synchronous
/// activation model: beeps sent during the current round are delivered (on
/// the *current* pin configurations) at the beginning of the next round,
/// exactly as specified in §1.2 of the paper.
#[derive(Debug, Clone)]
pub struct World {
    pub(crate) topo: Topology,
    pub(crate) c: usize,
    /// Base index of node `v`'s pins/partition-set ids in the global arrays.
    pub(crate) base: Vec<u32>,
    /// Global pin index -> local partition set id of the owning node.
    pub(crate) pin_pset: Vec<u16>,
    /// Link table, one entry per *edge*: `(a0, base_a, b0, base_b)` where
    /// `a0`/`b0` are the global pin indices of the edge's link-0 pins
    /// (links `0..c` are the `c` consecutive pins from there) and
    /// `base_a`/`base_b` the owning nodes' base offsets, so relabeling
    /// needs no per-pin node lookup. [`World::disconnect`] tombstones an
    /// entry ([`DEAD_LINK`]) and recycles its slot through `free_links`,
    /// so the table never grows past the historical edge maximum.
    pub(crate) links: Vec<(u32, u32, u32, u32)>,
    /// Recycled slots of tombstoned `links` entries.
    pub(crate) free_links: Vec<u32>,
    /// Partition sets (by global id) that beep this round (bit-packed;
    /// the set bits are always a subset of the dense `sent` list).
    pub(crate) send: BitSet,
    /// Dense list of the gids set in `send` (clears in O(beeps)).
    pub(crate) sent: Vec<u32>,
    /// Partition sets (by global id) that received a beep last round
    /// (bit-packed; set bits ⊆ `recv_set`).
    pub(crate) recv: BitSet,
    /// Dense list of the gids set in `recv` (clears in O(deliveries)).
    pub(crate) recv_set: Vec<u32>,
    /// Union-find scratch (parents over global partition-set ids).
    pub(crate) uf: Vec<u32>,
    /// Cached circuit labeling: partition-set gid -> root gid (= minimum
    /// gid) of its circuit. Valid iff no relabel is pending.
    pub(crate) labels: Vec<u32>,
    /// Membership arena: each current circuit root `r` owns the bucket
    /// `members[member_off[r]..member_end[r]]` (its member gids in
    /// ascending order). The global rebuild packs buckets contiguously;
    /// region relabels append fresh buckets at the end (the displaced old
    /// buckets become garbage) and a full repack reclaims the arena when
    /// it would outgrow twice the pin count.
    pub(crate) members: Vec<u32>,
    /// Bucket start per root gid (valid only for current roots).
    pub(crate) member_off: Vec<u32>,
    /// Bucket end per root gid (valid only for current roots).
    pub(crate) member_end: Vec<u32>,
    /// Cached per-bucket delivery digest (XOR of [`mix64`] over the
    /// root's member gids), valid iff the root's stamp in
    /// `member_digest_epoch` equals `digest_epoch`. Filled lazily the
    /// first time a tracing tick delivers to the circuit, then reused
    /// every steady tick — the armed flight recorder's per-delivery
    /// digest cost drops from O(members) to O(1) per circuit between
    /// relabels. Never read on the `NullRecorder` path.
    pub(crate) member_digest: Vec<u64>,
    /// Per-root validity stamp for `member_digest` (0 = never valid;
    /// `digest_epoch` starts at 1).
    pub(crate) member_digest_epoch: Vec<u32>,
    /// Bumped whenever the whole membership arena is rebuilt; region
    /// relabels instead zero the stamps of just the buckets they splice.
    pub(crate) digest_epoch: u32,
    /// Root dedup scratch; always all-clear between uses (bit-packed).
    pub(crate) root_mark: BitSet,
    /// Dense list of roots currently marked in `root_mark`.
    pub(crate) marked_roots: Vec<u32>,
    /// Pins whose partition set changed since the last relabel, as
    /// `(pin gid, owning node's base offset)`; deduped via `dirty_pin`.
    pub(crate) dirty_pins: Vec<(u32, u32)>,
    /// Bit per pin: whether it is in `dirty_pins`.
    pub(crate) dirty_pin: BitSet,
    /// The pin configuration as of the last relabel — the "old" partition
    /// sets that seed the affected region of the next region relabel.
    pub(crate) pset_at_relabel: Vec<u16>,
    /// Whether the next relabel must be global (set at construction and
    /// by `tick_reference`, which clobbers the union-find scratch).
    pub(crate) force_global: bool,
    /// Persistent marks of the counted circuit roots (a root is counted
    /// iff some pin references a partition set in its bucket); maintained
    /// incrementally by the region relabel.
    pub(crate) circuit_roots: BitSet,
    /// Edge index (into `links`) behind each *port slot* (slot of
    /// `(v, p)` = `base[v] / c + p`; [`NO_EDGE`] = vacant). Replaces the
    /// old per-node edge CSR: same O(incident edges) walk during region
    /// relabels, but splice-editable in O(1) per edge — prefix-offset
    /// CSRs cannot absorb an insertion without rebuilding every row
    /// behind it.
    pub(crate) port_edge: Vec<u32>,
    /// Region-relabel scratch: old roots touching a dirty pin.
    pub(crate) affected_mark: BitSet,
    pub(crate) affected_roots: Vec<u32>,
    /// Region-relabel scratch: all gids of the affected circuits.
    pub(crate) in_region: BitSet,
    pub(crate) region: Vec<u32>,
    /// Region-relabel scratch: nodes owning a region gid.
    pub(crate) node_mark: BitSet,
    pub(crate) region_nodes: Vec<u32>,
    /// Number of distinct circuits under the cached labeling.
    pub(crate) cached_circuits: usize,
    /// Telemetry registry + cached handles. Holds the relabel-path
    /// counters (diagnostics; pinned by tests so the region path cannot
    /// silently degrade into always-global) and the phase timers.
    pub(crate) stats: EngineStats,
    pub(crate) rounds: u64,
    /// Rounds executed by `tick`/`tick_reference` (excludes charges).
    pub(crate) simulated: u64,
    /// Audited rounds charged without simulation (see [`World::charge_rounds`]).
    pub(crate) charged: u64,
    pub(crate) charge_log: Vec<(String, i64)>,
    /// The per-phase round ledger filled by [`World::phase`] (a
    /// diagnostic: snapshots do not persist it).
    pub(crate) report: RoundReport,
    /// Open [`World::phase`] scopes; only the outermost one records.
    pub(crate) phase_depth: u32,
    /// Total beeps sent (diagnostic; the model itself never counts beeps).
    pub(crate) beeps_sent: u64,
    /// Stuck-at pin faults as `(pin gid, frozen pset)`, sorted by gid.
    /// A stuck pin's partition set is pinned to the frozen value: single
    /// writes are filtered at [`World::set_pin`], bulk writers re-assert
    /// the frozen value after their sweep. Empty in a healthy world, and
    /// every write path gates its stuck handling on that emptiness, so
    /// the overlay costs one branch when unarmed.
    pub(crate) stuck: Vec<(u32, u16)>,
}

impl World {
    /// Creates a world over `topo` with `c >= 1` external links per edge.
    /// Every pin starts in its own (singleton) partition set and no beeps are
    /// pending.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    pub fn new(topo: Topology, c: usize) -> World {
        assert!(c >= 1, "the model requires at least one external link");
        let n = topo.len();
        let mut base = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for v in 0..n {
            base.push(acc);
            acc += (topo.ports_len(v) * c) as u32;
        }
        base.push(acc);
        let total = acc as usize;
        let mut links = Vec::with_capacity(topo.edge_count());
        // Per-port edge index (each edge appears on both endpoint slots)
        // so a region relabel can walk exactly the links it needs.
        let mut port_edge = vec![NO_EDGE; total / c];
        for v in 0..n {
            for (p, w, q) in topo.neighbors(v) {
                if v < w {
                    let a0 = base[v] + (p * c) as u32;
                    let b0 = base[w] + (q * c) as u32;
                    let ei = links.len() as u32;
                    links.push((a0, base[v], b0, base[w]));
                    port_edge[a0 as usize / c] = ei;
                    port_edge[b0 as usize / c] = ei;
                }
            }
        }
        let mut w = World {
            topo,
            c,
            base,
            pin_pset: vec![0; total],
            links,
            free_links: Vec::new(),
            send: BitSet::new(total),
            // Worst-case capacity up front (cheap: pages fault on first
            // write, not at malloc), so ticks never reallocate.
            sent: Vec::with_capacity(total),
            recv: BitSet::new(total),
            recv_set: Vec::with_capacity(total),
            uf: vec![0; total],
            labels: vec![0; total],
            members: Vec::with_capacity(total),
            member_off: vec![0; total],
            member_end: vec![0; total],
            member_digest: vec![0; total],
            member_digest_epoch: vec![0; total],
            digest_epoch: 1,
            root_mark: BitSet::new(total),
            marked_roots: Vec::with_capacity(total),
            dirty_pins: Vec::with_capacity(total),
            dirty_pin: BitSet::new(total),
            pset_at_relabel: vec![0; total],
            force_global: true,
            circuit_roots: BitSet::new(total),
            port_edge,
            affected_mark: BitSet::new(total),
            affected_roots: Vec::new(),
            in_region: BitSet::new(total),
            region: Vec::new(),
            node_mark: BitSet::new(n),
            region_nodes: Vec::new(),
            cached_circuits: 0,
            stats: EngineStats::new(),
            rounds: 0,
            simulated: 0,
            charged: 0,
            charge_log: Vec::new(),
            report: RoundReport::new(),
            phase_depth: 0,
            beeps_sent: 0,
            stuck: Vec::new(),
        };
        for v in 0..w.topo.len() {
            w.singleton_pin_config(v);
        }
        // The construction writes above marked everything dirty, but the
        // first relabel is global regardless (`force_global`); drop the
        // bookkeeping so the first *real* dirty set starts empty.
        w.dirty_pins.clear();
        w.dirty_pin.clear_all();
        w.pset_at_relabel.copy_from_slice(&w.pin_pset);
        w
    }

    /// The underlying topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The number of external links per edge.
    #[inline]
    pub fn links_per_edge(&self) -> usize {
        self.c
    }

    /// Number of simulated + charged rounds so far.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Rounds actually executed by [`World::tick`] (and
    /// [`World::tick_reference`]). The audit invariant is
    /// `rounds() == simulated_rounds() + Σ charge_log()` — every
    /// non-simulated adjustment of the round counter appears in the log,
    /// charges positive and rebates ([`World::parallel`]) negative.
    #[inline]
    pub fn simulated_rounds(&self) -> u64 {
        self.simulated
    }

    /// Rounds accounted via [`World::charge_rounds`] (gross, before any
    /// rebates); kept separate so the audit trail distinguishes simulated
    /// from charged rounds.
    #[inline]
    pub fn charged_rounds(&self) -> u64 {
        self.charged
    }

    /// The audit log of non-simulated round adjustments as
    /// `(reason, rounds)` entries: positive for charges
    /// ([`World::charge_rounds`]), negative for rebates
    /// ([`World::parallel`]). Summing the entries reconciles the
    /// counter: `simulated_rounds() + Σ == rounds()`.
    pub fn charge_log(&self) -> &[(String, i64)] {
        &self.charge_log
    }

    /// Total distinct beeps sent so far (diagnostic instrumentation; one
    /// partition-set activation per round counts once).
    pub fn beeps_sent(&self) -> u64 {
        self.beeps_sent
    }

    #[inline]
    fn pin_gid(&self, v: usize, pin: Pin) -> usize {
        let (port, link) = pin;
        debug_assert!(link < self.c, "link {link} out of range (c = {})", self.c);
        debug_assert!(port < self.topo.ports_len(v), "port {port} out of range");
        self.base[v] as usize + port * self.c + link
    }

    /// Outlined panic for [`World::pset_gid`]: keeps the formatting
    /// machinery out of the hot callers (`beep`/`received`/`set_pin` run
    /// per node per round) while the range check itself stays on.
    #[cold]
    #[inline(never)]
    fn pset_out_of_range(v: usize, pset: u16, cap: usize) -> ! {
        panic!("partition set {pset} out of range for node {v} (capacity {cap})");
    }

    /// Resolves `v`'s local partition set `pset` to its global id.
    ///
    /// This is a real (release-mode) bounds check: an out-of-range `pset`
    /// would index into a *neighbor node's* slot of the global send/recv
    /// arrays and silently corrupt its state, so it must never pass.
    #[inline]
    fn pset_gid(&self, v: usize, pset: u16) -> usize {
        let cap = self.pset_capacity(v);
        if (pset as usize) >= cap {
            Self::pset_out_of_range(v, pset, cap);
        }
        self.base[v] as usize + pset as usize
    }

    /// Maximum number of partition sets node `v` may use (= its pin count).
    pub fn pset_capacity(&self, v: usize) -> usize {
        (self.base[v + 1] - self.base[v]) as usize
    }

    /// Marks pin `gid` (of the node whose base offset is `node_base`)
    /// dirty, deduped through the dirty-pin bitset.
    #[inline]
    fn mark_pin_dirty(&mut self, gid: usize, node_base: u32) {
        if !self.dirty_pin.get(gid) {
            self.dirty_pin.set(gid);
            self.dirty_pins.push((gid as u32, node_base));
        }
    }

    /// Marks every pin of the node at `node_base` whose current partition
    /// set differs from the last-relabel snapshot. Invariant: a clear
    /// dirty bit implies the pin still matches the snapshot, so comparing
    /// against the snapshot (rather than the pre-write value) never
    /// misses a change — and a no-op rewrite of already-dirty pins just
    /// re-marks them, which the bitset dedups.
    fn mark_changed_pins(&mut self, node_base: usize, count: usize) {
        for i in node_base..node_base + count {
            if self.pin_pset[i] != self.pset_at_relabel[i] {
                self.mark_pin_dirty(i, node_base as u32);
            }
        }
    }

    /// Assigns a single pin of `v` to local partition set `pset`. If the
    /// pin is frozen by a stuck-at fault ([`World::stick_pin`]) the write
    /// is silently dropped — that is the fault model: the algorithm
    /// *believes* it reconfigured, the hardware did not.
    ///
    /// # Panics
    ///
    /// Panics if the partition set is out of range (real check: a stray
    /// `pset` would corrupt the cached circuit labeling), or — in debug
    /// builds — if the pin itself is out of range.
    #[inline]
    pub fn set_pin(&mut self, v: usize, port: PortId, link: usize, pset: u16) {
        let gid = self.pin_gid(v, (port, link));
        let cap = self.pset_capacity(v);
        if (pset as usize) >= cap {
            Self::pset_out_of_range(v, pset, cap);
        }
        if !self.stuck.is_empty() && self.stuck_index(gid as u32).is_ok() {
            return;
        }
        if self.pin_pset[gid] != pset {
            self.pin_pset[gid] = pset;
            self.mark_pin_dirty(gid, self.base[v]);
        }
    }

    /// Bulk-assigns all pins of `v`: the pin with local index `i` (that
    /// is, `port * c + link`) goes to partition set `pset_of(i)`. The
    /// psets produced by the bulk config methods are local pin indices,
    /// in range by construction, so this skips `set_pin`'s per-pin
    /// capacity check — these methods run over every node between phases
    /// and are the simulator's hottest mutation path.
    #[inline]
    fn fill_pin_config(&mut self, v: usize, pset_of: impl Fn(usize) -> u16) {
        let base = self.base[v] as usize;
        let count = self.pset_capacity(v);
        // Branchless change detection (XOR-accumulate, unconditional
        // store): vectorizes, so the common no-op reconfiguration stays a
        // single fast pass and keeps the cached labeling untouched. Only
        // on a real change does the second pass mark the changed pins.
        let mut diff = 0u16;
        for i in 0..count {
            let pset = pset_of(i);
            debug_assert!((pset as usize) < count);
            diff |= self.pin_pset[base + i] ^ pset;
            self.pin_pset[base + i] = pset;
        }
        // Stuck pins win over the sweep; the gate keeps the healthy path
        // a single branch and the loop above vectorizable.
        if !self.stuck.is_empty() {
            self.reassert_stuck(base, count);
        }
        if diff != 0 {
            // Snapshot-compare marking: pins the re-assertion restored to
            // their pre-sweep (frozen) value are correctly left clean.
            self.mark_changed_pins(base, count);
        }
    }

    /// The local partition set currently holding pin `(port, link)` of
    /// `v` — the read side of [`World::set_pin`]. Lets a dynamic-world
    /// oracle copy a configuration into a freshly rebuilt world.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pin is out of range.
    #[inline]
    pub fn pin_config(&self, v: usize, port: PortId, link: usize) -> u16 {
        self.pin_pset[self.pin_gid(v, (port, link))]
    }

    /// Resets `v` to the singleton configuration: pin `(port, link)` goes to
    /// partition set `port * c + link`, so no two pins share a set and every
    /// circuit through `v` connects exactly two neighbors.
    pub fn singleton_pin_config(&mut self, v: usize) {
        self.fill_pin_config(v, |i| i as u16);
    }

    /// Puts all pins of `v` into partition set `0` (the *global circuit*
    /// configuration: if every amoebot does this, the whole structure forms
    /// one circuit).
    pub fn global_pin_config(&mut self, v: usize) {
        self.fill_pin_config(v, |_| 0);
    }

    /// Groups the given pins of `v` into one partition set and returns its
    /// id. The id is the minimum singleton id (`port * c + link`) of the
    /// members, so disjoint groups never collide — concurrent primitives can
    /// partition a node's pins without central coordination.
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty.
    pub fn group_pins(&mut self, v: usize, pins: &[Pin]) -> u16 {
        let id = pins
            .iter()
            .map(|&(port, link)| (port * self.c + link) as u16)
            .min()
            .expect("group must contain at least one pin");
        for &(port, link) in pins {
            self.set_pin(v, port, link, id);
        }
        id
    }

    /// Dedicates `link` as a *global broadcast link* on `v`: all of `v`'s
    /// pins on this link join one partition set with the node-independent id
    /// [`World::global_link_pset`]`(link)`. If every node does this (and no
    /// primitive ever touches the reserved link), the link permanently
    /// carries one structure-spanning circuit — used for synchronization
    /// ("anyone still active?") and leader broadcasts without disturbing the
    /// pin configurations of concurrently running primitives.
    pub fn global_link_config(&mut self, v: usize, link: usize) {
        assert!(link < self.c, "link {link} out of range (c = {})", self.c);
        let id = Self::global_link_pset(link);
        let base = self.base[v] as usize;
        let count = self.pset_capacity(v);
        let has_stuck = !self.stuck.is_empty();
        // Only the pins on `link` move; other links keep their sets.
        let mut i = link;
        while i < count {
            if self.pin_pset[base + i] != id
                && !(has_stuck && self.stuck_index((base + i) as u32).is_ok())
            {
                self.pin_pset[base + i] = id;
                self.mark_pin_dirty(base + i, base as u32);
            }
            i += self.c;
        }
    }

    /// The partition-set id used by [`World::global_link_config`].
    #[inline]
    pub fn global_link_pset(link: usize) -> u16 {
        link as u16
    }

    /// Resets all pins of `v` to singletons except those on the listed
    /// (reserved) links, which are left untouched. Primitives call this when
    /// taking over a node so stale partition sets from earlier phases cannot
    /// leak circuits into the new configuration.
    pub fn reset_pins_keeping_links(&mut self, v: usize, keep: &[usize]) {
        let base = self.base[v] as usize;
        let count = self.pset_capacity(v);
        let c = self.c;
        let mut diff = 0u16;
        // Pin with local index `port * c + link` sits on link `link`; walk
        // port-major so the link test stays out of the modulo operator.
        let mut i = 0;
        while i < count {
            for link in 0..c {
                if !keep.contains(&link) {
                    let pset = (i + link) as u16;
                    diff |= self.pin_pset[base + i + link] ^ pset;
                    self.pin_pset[base + i + link] = pset;
                }
            }
            i += c;
        }
        if !self.stuck.is_empty() {
            self.reassert_stuck(base, count);
        }
        if diff != 0 {
            self.mark_changed_pins(base, count);
        }
    }

    /// [`World::reset_pins_keeping_links`] over *every* node: the
    /// per-phase "drop all stale groups" sweep the algorithm layer runs
    /// between phases, as one call. Only the pins that actually move are
    /// marked dirty, so after a phase that reconfigured a small region the
    /// next relabel still only touches that region — the sweep itself
    /// contributes nothing to the dirty set on already-reset nodes.
    pub fn reset_all_pins_keeping_links(&mut self, keep: &[usize]) {
        for v in 0..self.topo.len() {
            self.reset_pins_keeping_links(v, keep);
        }
    }

    // ---- Stuck-at pin faults (the adversary's hardware-fault overlay).

    /// Position of `gid` in the sorted stuck-pin list.
    #[inline]
    fn stuck_index(&self, gid: u32) -> Result<usize, usize> {
        self.stuck.binary_search_by_key(&gid, |&(g, _)| g)
    }

    /// Restores the frozen value of every stuck pin inside
    /// `[base, base + count)` after a bulk sweep overwrote the range.
    /// Restoration needs no dirty marking of its own: it returns pins to
    /// their pre-sweep value, and the callers' snapshot-compare marking
    /// decides what actually changed.
    #[cold]
    #[inline(never)]
    fn reassert_stuck(&mut self, base: usize, count: usize) {
        let start = self.stuck.partition_point(|&(g, _)| (g as usize) < base);
        for i in start..self.stuck.len() {
            let (gid, pset) = self.stuck[i];
            if gid as usize >= base + count {
                break;
            }
            self.pin_pset[gid as usize] = pset;
        }
    }

    /// Freezes pin `(port, link)` of `v` at partition set `pset`: the pin
    /// moves there now (through the normal dirty-pin path) and every
    /// later write — single or bulk — is dropped at the pin until
    /// [`World::unstick_pin`] / [`World::release_stuck_pins`]. Sticking
    /// an already-stuck pin re-freezes it at the new value.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v` (real check, as in
    /// [`World::set_pin`]), or — in debug builds — if the pin is.
    pub fn stick_pin(&mut self, v: usize, port: PortId, link: usize, pset: u16) {
        let gid = self.pin_gid(v, (port, link));
        let cap = self.pset_capacity(v);
        if (pset as usize) >= cap {
            Self::pset_out_of_range(v, pset, cap);
        }
        if self.pin_pset[gid] != pset {
            self.pin_pset[gid] = pset;
            self.mark_pin_dirty(gid, self.base[v]);
        }
        match self.stuck_index(gid as u32) {
            Ok(i) => self.stuck[i].1 = pset,
            Err(i) => self.stuck.insert(i, (gid as u32, pset)),
        }
    }

    /// Releases the stuck-at fault on pin `(port, link)` of `v` (the pin
    /// keeps its frozen value until something rewrites it). Returns
    /// whether the pin was stuck.
    pub fn unstick_pin(&mut self, v: usize, port: PortId, link: usize) -> bool {
        let gid = self.pin_gid(v, (port, link)) as u32;
        match self.stuck_index(gid) {
            Ok(i) => {
                self.stuck.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Releases every stuck-at fault at once (the "burst ends" operation
    /// of a fault plan) and returns how many were armed. Pins keep their
    /// frozen values until rewritten.
    pub fn release_stuck_pins(&mut self) -> usize {
        let n = self.stuck.len();
        self.stuck.clear();
        n
    }

    /// Number of currently stuck pins.
    #[inline]
    pub fn stuck_pin_count(&self) -> usize {
        self.stuck.len()
    }

    /// Whether pin `(port, link)` of `v` is frozen by a stuck-at fault.
    pub fn pin_is_stuck(&self, v: usize, port: PortId, link: usize) -> bool {
        self.stuck_index(self.pin_gid(v, (port, link)) as u32)
            .is_ok()
    }

    /// Resolves `v`'s local partition set `pset` to the global id space
    /// that [`TickFaults`] targets — the public spelling of the engine's
    /// internal gid resolution, for fault plans choosing where to drop or
    /// inject beeps.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v` (also in release builds).
    #[inline]
    pub fn pset_global_id(&self, v: usize, pset: u16) -> u32 {
        self.pset_gid(v, pset) as u32
    }

    /// Total beeps the adversary suppressed so far (thin wrapper over the
    /// registry's `fault_drops` counter).
    #[inline]
    pub fn fault_drops(&self) -> u64 {
        self.stats.metrics.get(self.stats.fault_drops)
    }

    /// Total beeps the adversary spuriously injected so far (wrapper over
    /// the registry's `fault_injects` counter).
    #[inline]
    pub fn fault_injects(&self) -> u64 {
        self.stats.metrics.get(self.stats.fault_injects)
    }

    /// Makes `v` beep on its local partition set `pset` this round.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v` (also in release builds).
    #[inline]
    pub fn beep(&mut self, v: usize, pset: u16) {
        let gid = self.pset_gid(v, pset);
        if !self.send.get(gid) {
            self.send.set(gid);
            self.sent.push(gid as u32);
            self.beeps_sent += 1;
        }
    }

    /// Whether `v`'s partition set `pset` received a beep delivered at the
    /// beginning of the current round.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v` (also in release builds).
    #[inline]
    pub fn received(&self, v: usize, pset: u16) -> bool {
        self.recv.get(self.pset_gid(v, pset))
    }

    /// Whether any partition set of `v` received a beep this round
    /// (word-at-a-time over the packed receive flags).
    pub fn received_any(&self, v: usize) -> bool {
        self.recv
            .any_in_range(self.base[v] as usize, self.base[v + 1] as usize)
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.uf[x as usize] != x {
            let gp = self.uf[self.uf[x as usize] as usize];
            self.uf[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Union by id keeps it deterministic; depth is tamed by halving.
            if ra < rb {
                self.uf[rb as usize] = ra;
            } else {
                self.uf[ra as usize] = rb;
            }
        }
    }

    /// Whether the next [`World::tick`] has to relabel before delivering
    /// (i.e. some pin's partition set changed since the last relabel, or
    /// the labeling was never computed / was invalidated by
    /// [`World::tick_reference`]). No-op reconfigurations — writes that
    /// store the value a pin already has — never make this true.
    #[inline]
    pub fn relabel_pending(&self) -> bool {
        self.force_global || !self.dirty_pins.is_empty()
    }

    /// How many global (full union-find + membership rebuild) relabels
    /// have run. Diagnostic, pinned by tests together with
    /// [`World::region_relabels`] so the region path cannot silently
    /// degrade into always-global. Thin wrapper over the telemetry
    /// registry's `relabel_global` counter (see [`World::metrics`]).
    #[inline]
    pub fn global_relabels(&self) -> u64 {
        self.stats.metrics.get(self.stats.relabel_global)
    }

    /// How many region-scoped relabels have run (see
    /// [`World::relabel_pending`] and the module docs). Thin wrapper over
    /// the registry's `relabel_region` counter.
    #[inline]
    pub fn region_relabels(&self) -> u64 {
        self.stats.metrics.get(self.stats.relabel_region)
    }

    /// The engine's telemetry registry: relabel counters plus — when the
    /// driving [`Recorder`] has `TIMED = true` — per-phase wall-time
    /// histograms (`phase_*_micros`).
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.stats.metrics
    }

    /// Refreshes the cached labeling: region-scoped when the dirty region
    /// is small, global otherwise. Phase timers fire only for `R::TIMED`
    /// recorders; under [`NullRecorder`] they compile away.
    fn refresh_labels<R: Recorder>(&mut self) -> RelabelKind {
        // Fractional fallback (1/REGION_FALLBACK_FRACTION of all pins):
        // beyond it, dissolving and re-unioning the region approaches
        // the cost of the global relabel anyway — without its
        // cache-friendly linear sweeps.
        let threshold = self.labels.len() / REGION_FALLBACK_FRACTION;
        if self.force_global || self.dirty_pins.len() > threshold {
            self.relabel_global::<R>();
            return RelabelKind::Global;
        }
        self.relabel_region::<R>(threshold)
    }

    /// The owner node of pin/partition-set `gid` (binary search over the
    /// base offsets; zero-pin nodes collapse onto the same offset, and the
    /// search lands past all of them).
    #[inline]
    fn node_of_gid(&self, gid: u32) -> usize {
        self.base.partition_point(|&b| b <= gid) - 1
    }

    /// Region-scoped relabel: dissolves only the circuits whose old *or*
    /// new configuration touches a dirty pin, re-unions only the links
    /// incident to their member nodes, and splices the rebuilt buckets
    /// into the membership arena. Clean circuits keep labels, buckets and
    /// counted-ness untouched — sound because a circuit can only change
    /// if one of its members' partition sets changed (see DESIGN.md §1c).
    ///
    /// Falls back to [`World::relabel_global`] when the collected region
    /// exceeds `threshold` gids.
    fn relabel_region<R: Recorder>(&mut self, threshold: usize) -> RelabelKind {
        debug_assert!(!self.affected_mark.any() && !self.in_region.any());
        let t_dissolve = if R::TIMED {
            Some(Stopwatch::start())
        } else {
            None
        };
        // 1. Seed: the old circuits of every dirty pin's old and new
        // partition set. (A pin's peer circuits are covered transitively:
        // the old union along the edge put the peer's set in the same old
        // circuit as this pin's old set.)
        for i in 0..self.dirty_pins.len() {
            let (pin, node_base) = self.dirty_pins[i];
            let old_gid = node_base + self.pset_at_relabel[pin as usize] as u32;
            let new_gid = node_base + self.pin_pset[pin as usize] as u32;
            for gid in [old_gid, new_gid] {
                let root = self.labels[gid as usize];
                if !self.affected_mark.get(root as usize) {
                    self.affected_mark.set(root as usize);
                    self.affected_roots.push(root);
                }
            }
        }
        // 2. Region size = sum of the affected buckets; bail out to the
        // global relabel while the scratch is still cheap to unwind.
        let region_size: usize = self
            .affected_roots
            .iter()
            .map(|&r| (self.member_end[r as usize] - self.member_off[r as usize]) as usize)
            .sum();
        if region_size > threshold {
            for i in 0..self.affected_roots.len() {
                self.affected_mark.clear(self.affected_roots[i] as usize);
            }
            self.affected_roots.clear();
            self.relabel_global::<R>();
            return RelabelKind::Global;
        }
        // 3. Collect the region: every member gid of every affected
        // circuit, its owner nodes, and — dissolving — singleton
        // union-find entries. Affected roots drop out of the circuit
        // count here; step 6 re-adds whatever the new region references.
        for i in 0..self.affected_roots.len() {
            let r = self.affected_roots[i] as usize;
            if self.circuit_roots.get(r) {
                self.circuit_roots.clear(r);
                self.cached_circuits -= 1;
            }
            for j in self.member_off[r] as usize..self.member_end[r] as usize {
                let gid = self.members[j];
                self.in_region.set(gid as usize);
                self.region.push(gid);
                self.uf[gid as usize] = gid;
            }
        }
        // (Bucket contents end up in affected-circuit concatenation order
        // rather than the global counting sort's ascending order; nothing
        // observes member order, and the collection order is itself
        // deterministic.) Owner lookups exploit that each old bucket is
        // ascending, so consecutive gids usually share a node.
        let mut cached_node = usize::MAX;
        for i in 0..self.region.len() {
            let gid = self.region[i];
            if cached_node == usize::MAX
                || gid < self.base[cached_node]
                || gid >= self.base[cached_node + 1]
            {
                cached_node = self.node_of_gid(gid);
            }
            if !self.node_mark.get(cached_node) {
                self.node_mark.set(cached_node);
                self.region_nodes.push(cached_node as u32);
            }
        }
        if let Some(t) = t_dissolve {
            self.stats
                .metrics
                .observe(self.stats.t_dissolve, t.micros());
        }
        let t_reunion = if R::TIMED {
            Some(Stopwatch::start())
        } else {
            None
        };
        // 4. Re-union: only links incident to region nodes, and of those
        // only the ones whose endpoints lie in the region. The stability
        // invariant guarantees a union never crosses the region boundary.
        for i in 0..self.region_nodes.len() {
            let v = self.region_nodes[i] as usize;
            let lo = self.base[v] as usize / self.c;
            let hi = self.base[v + 1] as usize / self.c;
            for slot in lo..hi {
                let ei = self.port_edge[slot];
                if ei == NO_EDGE {
                    continue;
                }
                let (a0, base_a, b0, base_b) = self.links[ei as usize];
                for link in 0..self.c as u32 {
                    let pa = base_a + self.pin_pset[(a0 + link) as usize] as u32;
                    let pb = base_b + self.pin_pset[(b0 + link) as usize] as u32;
                    if self.in_region.get(pa as usize) || self.in_region.get(pb as usize) {
                        debug_assert!(
                            self.in_region.get(pa as usize) && self.in_region.get(pb as usize),
                            "a link union crossed the region boundary"
                        );
                        self.union(pa, pb);
                    }
                }
            }
        }
        for i in 0..self.region.len() {
            let gid = self.region[i];
            let root = self.find(gid);
            self.labels[gid as usize] = root;
        }
        if let Some(t) = t_reunion {
            self.stats.metrics.observe(self.stats.t_reunion, t.micros());
        }
        let t_repack = if R::TIMED {
            Some(Stopwatch::start())
        } else {
            None
        };
        // 5. Splice the rebuilt buckets into the arena: append-at-end
        // (the displaced old buckets become garbage), with a full repack
        // once the arena would outgrow twice the pin count — amortized
        // O(region) per relabel.
        if self.members.len() + self.region.len() > 2 * self.labels.len() {
            self.rebuild_members();
        } else {
            debug_assert!(self.marked_roots.is_empty());
            for i in 0..self.region.len() {
                let r = self.labels[self.region[i] as usize] as usize;
                if !self.root_mark.get(r) {
                    self.root_mark.set(r);
                    self.marked_roots.push(r as u32);
                    self.member_end[r] = 0;
                }
                self.member_end[r] += 1;
            }
            let mut cursor = self.members.len() as u32;
            for i in 0..self.marked_roots.len() {
                let r = self.marked_roots[i] as usize;
                let size = self.member_end[r];
                self.member_off[r] = cursor;
                self.member_end[r] = cursor;
                // The spliced bucket's cached delivery digest is stale;
                // untouched buckets keep theirs (0 is never the epoch).
                self.member_digest_epoch[r] = 0;
                cursor += size;
            }
            self.members.resize(cursor as usize, 0);
            for i in 0..self.region.len() {
                let gid = self.region[i];
                let r = self.labels[gid as usize] as usize;
                self.members[self.member_end[r] as usize] = gid;
                self.member_end[r] += 1;
            }
            for &r in &self.marked_roots {
                self.root_mark.clear(r as usize);
            }
            self.marked_roots.clear();
        }
        // 6. Re-count: a region circuit is counted iff some pin of a
        // region node references one of its member sets (pins of clean
        // nodes cannot reference region gids, which all belong to region
        // nodes; references to clean circuits are untouched).
        for i in 0..self.region_nodes.len() {
            let v = self.region_nodes[i] as usize;
            for p in self.base[v] as usize..self.base[v + 1] as usize {
                let gid = self.base[v] as usize + self.pin_pset[p] as usize;
                if self.in_region.get(gid) {
                    let root = self.labels[gid] as usize;
                    if !self.circuit_roots.get(root) {
                        self.circuit_roots.set(root);
                        self.cached_circuits += 1;
                    }
                }
            }
        }
        // 7. Snapshot the new configuration and unwind the scratch.
        for i in 0..self.dirty_pins.len() {
            let pin = self.dirty_pins[i].0 as usize;
            self.pset_at_relabel[pin] = self.pin_pset[pin];
            self.dirty_pin.clear(pin);
        }
        self.dirty_pins.clear();
        for i in 0..self.affected_roots.len() {
            self.affected_mark.clear(self.affected_roots[i] as usize);
        }
        self.affected_roots.clear();
        for i in 0..self.region.len() {
            self.in_region.clear(self.region[i] as usize);
        }
        self.region.clear();
        for i in 0..self.region_nodes.len() {
            self.node_mark.clear(self.region_nodes[i] as usize);
        }
        self.region_nodes.clear();
        if let Some(t) = t_repack {
            self.stats.metrics.observe(self.stats.t_repack, t.micros());
        }
        self.stats.metrics.inc(self.stats.relabel_region);
        RelabelKind::Region
    }

    /// Fully repacks the membership arena from `labels`: counting sort
    /// into contiguous ascending buckets, one slot per gid.
    fn rebuild_members(&mut self) {
        // Every bucket moves: invalidate all cached delivery digests in
        // O(1) by bumping the epoch. On the (theoretical) u32 wrap,
        // clear the stamps so a stale cache can never alias the new
        // epoch.
        self.digest_epoch = self.digest_epoch.wrapping_add(1);
        if self.digest_epoch == 0 {
            self.member_digest_epoch.fill(0);
            self.digest_epoch = 1;
        }
        let total = self.labels.len();
        self.members.clear();
        self.members.resize(total, 0);
        self.member_end.fill(0);
        for gid in 0..total {
            self.member_end[self.labels[gid] as usize] += 1;
        }
        let mut acc = 0u32;
        for r in 0..total {
            let size = self.member_end[r];
            self.member_off[r] = acc;
            self.member_end[r] = acc;
            acc += size;
        }
        for gid in 0..total as u32 {
            let r = self.labels[gid as usize] as usize;
            self.members[self.member_end[r] as usize] = gid;
            self.member_end[r] += 1;
        }
    }

    /// Recomputes the circuit labeling, the membership index and the
    /// circuit count from scratch. O(total pins · α) with zero
    /// allocations; the escape hatch when the dirty region is large (or
    /// unknown, after [`World::tick_reference`]).
    fn relabel_global<R: Recorder>(&mut self) {
        let t_global = if R::TIMED {
            Some(Stopwatch::start())
        } else {
            None
        };
        let total = self.labels.len();
        for i in 0..total {
            self.uf[i] = i as u32;
        }
        // Union partition sets along every external link (precomputed
        // per-edge table: no per-node neighbor iteration, no
        // edge-direction test). Tombstoned entries are removed edges.
        for i in 0..self.links.len() {
            let (a0, base_a, b0, base_b) = self.links[i];
            if a0 == u32::MAX {
                continue;
            }
            for link in 0..self.c as u32 {
                let pa = base_a + self.pin_pset[(a0 + link) as usize] as u32;
                let pb = base_b + self.pin_pset[(b0 + link) as usize] as u32;
                self.union(pa, pb);
            }
        }
        for gid in 0..total as u32 {
            let root = self.find(gid);
            self.labels[gid as usize] = root;
        }
        self.rebuild_members();
        // Circuit count: distinct roots among partition sets that some pin
        // actually references (empty sets are not circuits). The marks
        // persist so region relabels can maintain the count incrementally.
        self.circuit_roots.clear_all();
        let mut count = 0usize;
        for v in 0..self.topo.len() {
            let node_base = self.base[v];
            for p in node_base..self.base[v + 1] {
                let pset_gid = node_base + self.pin_pset[p as usize] as u32;
                let root = self.labels[pset_gid as usize] as usize;
                if !self.circuit_roots.get(root) {
                    self.circuit_roots.set(root);
                    count += 1;
                }
            }
        }
        self.cached_circuits = count;
        self.pset_at_relabel.copy_from_slice(&self.pin_pset);
        for i in 0..self.dirty_pins.len() {
            self.dirty_pin.clear(self.dirty_pins[i].0 as usize);
        }
        self.dirty_pins.clear();
        self.force_global = false;
        if let Some(t) = t_global {
            self.stats.metrics.observe(self.stats.t_global, t.micros());
        }
        self.stats.metrics.inc(self.stats.relabel_global);
    }

    /// Executes one synchronous round: circuits are computed from the current
    /// pin configurations (reusing the cached labeling if no pin changed),
    /// beeps sent via [`World::beep`] are delivered to every partition set of
    /// their circuit, and the round counter advances.
    pub fn tick(&mut self) {
        self.tick_with(&mut NullRecorder);
    }

    /// [`World::tick`] with a telemetry [`Recorder`] attached. Every
    /// emission and timing site is gated on the recorder's associated
    /// consts, so `tick()` (= `tick_with(&mut NullRecorder)`) pays for
    /// none of it after monomorphization.
    ///
    /// With `R::TRACE` the recorder sees, in order: the net pin-config
    /// deltas since the last relabel (read off the dirty-pin list before
    /// the refresh consumes it — intermediate writes between ticks are
    /// not observable, by design), the beeping gids, and a
    /// [`RoundSummary`] carrying an order-independent delivery digest
    /// (XOR of [`mix64`] over every delivered gid). Replay recomputes
    /// the digest from its own labeling, so any divergence in circuit
    /// structure or delivery surfaces at the exact round. The delta
    /// stream and the digest are the expensive, replay-grade half and
    /// are further gated on `R::REPLAY`: windowed sinks (the flight
    /// recorder) opt out and their summaries carry `digest = 0`.
    ///
    /// Recording soundness: the trace captures relabel inputs only at
    /// tick time, so between recorded ticks the caller must not force
    /// relabels through diagnostic paths ([`World::circuit_count`],
    /// [`World::pset_circuit`]) or [`World::tick_reference`] — those
    /// consume dirty pins without emitting deltas.
    pub fn tick_with<R: Recorder>(&mut self, rec: &mut R) {
        self.tick_impl::<R, false>(&TickFaults::EMPTY, rec);
    }

    /// [`World::tick_with`] under an adversary: `faults.inject` gids are
    /// forced to beep before delivery and `faults.drop` gids' beeps are
    /// suppressed on the wire. Both lists must be sorted ascending (see
    /// [`TickFaults`]). With [`TickFaults::EMPTY`] this is byte-identical
    /// to [`World::tick_with`] — same monomorphized engine, fault arm
    /// compiled out — which the fault differential suite pins.
    ///
    /// Trace semantics: injections are recorded as ordinary beeps plus a
    /// `FaultInject` attribution; drops keep their `Beep` record (the
    /// send happened — the adversary ate it) plus a `FaultDrop` record
    /// that replay uses to exclude the gid from delivery.
    ///
    /// # Panics
    ///
    /// Panics if an injected gid is outside the world's gid space.
    pub fn tick_faulted<R: Recorder>(&mut self, faults: &TickFaults, rec: &mut R) {
        self.tick_impl::<R, true>(faults, rec);
    }

    /// The single tick engine behind [`World::tick`], [`World::tick_with`]
    /// and [`World::tick_faulted`]. `FAULTED` gates the adversary arms at
    /// monomorphization, exactly like `R::TRACE` gates emission — the
    /// healthy paths carry no fault checks at all.
    fn tick_impl<R: Recorder, const FAULTED: bool>(&mut self, faults: &TickFaults, rec: &mut R) {
        if FAULTED {
            for &gid in &faults.inject {
                assert!(
                    (gid as usize) < self.pin_pset.len(),
                    "injected beep gid {gid} outside the pin space"
                );
                if !self.send.get(gid as usize) {
                    self.send.set(gid as usize);
                    self.sent.push(gid);
                    self.beeps_sent += 1;
                    self.stats.metrics.inc(self.stats.fault_injects);
                    if R::TRACE {
                        rec.beep_injected(gid);
                    }
                }
            }
        }
        let mut digest = 0u64;
        if R::TRACE {
            if R::REPLAY {
                // Net config deltas since the last relabel, captured
                // before the refresh consumes the dirty-pin list. This
                // stream is O(dirty pins) per tick — replay-grade
                // detail, skipped for windowed sinks like the flight
                // recorder so "armed" stays cheap under heavy
                // reconfiguration.
                for i in 0..self.dirty_pins.len() {
                    let gid = self.dirty_pins[i].0;
                    rec.config_delta(gid, self.pin_pset[gid as usize]);
                }
            }
            for &gid in &self.sent {
                rec.beep(gid);
                if R::REPLAY {
                    digest ^= mix64(gid as u64 ^ BEEP_DIGEST_SALT);
                }
            }
        }
        let beeps = self.sent.len() as u32;
        let relabel = if self.relabel_pending() {
            self.refresh_labels::<R>()
        } else {
            RelabelKind::None
        };
        let t_propagate = if R::TIMED {
            Some(Stopwatch::start())
        } else {
            None
        };
        // Clear last round's deliveries (O(previous deliveries)).
        for &gid in &self.recv_set {
            self.recv.clear(gid as usize);
        }
        self.recv_set.clear();
        // Dedup the beeping circuits (O(beeps sent)).
        for &gid in &self.sent {
            self.send.clear(gid as usize);
            if FAULTED && faults.drop.binary_search(&gid).is_ok() {
                // Suppressed on the wire: the beep counted as sent (and
                // went into the salted digest term above) but marks no
                // circuit for delivery.
                self.stats.metrics.inc(self.stats.fault_drops);
                if R::TRACE {
                    rec.beep_dropped(gid);
                }
                continue;
            }
            let root = self.labels[gid as usize] as usize;
            if !self.root_mark.get(root) {
                self.root_mark.set(root);
                self.marked_roots.push(root as u32);
            }
        }
        self.sent.clear();
        // Deliver to every member of each beeping circuit (bucket bounds
        // straight out of the membership arena).
        for i in 0..self.marked_roots.len() {
            let root = self.marked_roots[i] as usize;
            let start = self.member_off[root] as usize;
            let end = self.member_end[root] as usize;
            // Two loop bodies so the warm-cache (and non-digesting)
            // path keeps the tight two-write member loop: the digest
            // work runs only on the first replay-grade delivery after
            // a bucket changed. Recorders without replay detail
            // monomorphize to the bare else branch.
            if R::TRACE && R::REPLAY && self.member_digest_epoch[root] != self.digest_epoch {
                let mut bucket = 0u64;
                for j in start..end {
                    let gid = self.members[j];
                    self.recv.set(gid as usize);
                    self.recv_set.push(gid);
                    bucket ^= mix64(gid as u64);
                }
                self.member_digest[root] = bucket;
                self.member_digest_epoch[root] = self.digest_epoch;
            } else {
                for j in start..end {
                    let gid = self.members[j];
                    self.recv.set(gid as usize);
                    self.recv_set.push(gid);
                }
            }
            if R::TRACE && R::REPLAY {
                digest ^= self.member_digest[root];
            }
        }
        for &root in &self.marked_roots {
            self.root_mark.clear(root as usize);
        }
        self.marked_roots.clear();
        if let Some(t) = t_propagate {
            self.stats
                .metrics
                .observe(self.stats.t_propagate, t.micros());
        }
        self.rounds += 1;
        self.simulated += 1;
        if R::TRACE {
            rec.round_end(&RoundSummary {
                round: self.rounds,
                beeps,
                delivered: self.recv_set.len() as u64,
                digest,
                relabel,
                circuits: self.cached_circuits as u64,
            });
        }
    }

    /// The pre-refactor engine: one synchronous round via a full union-find
    /// rebuild over every pin in the structure, exactly as `tick` worked
    /// before the incremental engine. Kept as the reference semantics for
    /// differential tests and as the baseline of the `circuit_engine`
    /// benches. Interchangeable with [`World::tick`] round for round.
    pub fn tick_reference(&mut self) {
        let total = self.pin_pset.len();
        for i in 0..total {
            self.uf[i] = i as u32;
        }
        // Union partition sets along every external link.
        for v in 0..self.topo.len() {
            // Visit each undirected edge once.
            let ports: Vec<(PortId, usize, PortId)> = self.topo.neighbors(v).collect();
            for (p, w, q) in ports {
                if v < w {
                    for link in 0..self.c {
                        let a = self.base[v] as usize + p * self.c + link;
                        let b = self.base[w] as usize + q * self.c + link;
                        let pa = self.base[v] + self.pin_pset[a] as u32;
                        let pb = self.base[w] + self.pin_pset[b] as u32;
                        self.union(pa, pb);
                    }
                }
            }
        }
        // Deliver beeps: a circuit beeps iff any of its partition sets sent.
        let mut fresh = vec![false; total];
        for gid in 0..total as u32 {
            if self.send.get(gid as usize) {
                let root = self.find(gid);
                fresh[root as usize] = true;
            }
        }
        self.recv_set.clear();
        for gid in 0..total as u32 {
            let root = self.find(gid);
            let delivered = fresh[root as usize];
            if delivered {
                self.recv.set(gid as usize);
                // Keep the incremental engine's delivery bookkeeping in
                // sync so the two tick flavors can be interleaved.
                self.recv_set.push(gid);
            } else {
                self.recv.clear(gid as usize);
            }
        }
        // Set send bits are always a subset of the dense `sent` list, so
        // clearing through the list clears them all.
        for &gid in &self.sent {
            self.send.clear(gid as usize);
        }
        self.sent.clear();
        // This path clobbers `uf` without refreshing `labels` (and tracks
        // no per-pin dirty state), so the next relabel must be global.
        self.force_global = true;
        self.rounds += 1;
        self.simulated += 1;
    }

    /// Accounts `k` rounds for a step performed abstractly by the harness
    /// (e.g. a figure-level glue step whose circuit mechanics are not worth
    /// simulating). The charge is recorded in an audit log; the paper's
    /// algorithms in this workspace only charge O(1) glue per composite step.
    pub fn charge_rounds(&mut self, k: u64, reason: &str) {
        self.rounds += k;
        self.charged += k;
        self.charge_log.push((reason.to_string(), k as i64));
    }

    /// Rebates `k` rounds from the counter with a negative audit-log
    /// entry, so the log always reconciles:
    /// `simulated_rounds() + Σ charge_log() == rounds()`. Only
    /// [`World::parallel`] rebates.
    fn rebate_rounds(&mut self, k: u64, reason: &str) {
        assert!(
            k <= self.rounds,
            "cannot rebate {k} of {} rounds",
            self.rounds
        );
        self.rounds -= k;
        self.charge_log
            .push((format!("rebate: {reason}"), -(k as i64)));
    }

    /// Runs `body` as phase `name` of the world's round ledger
    /// ([`World::report`]): the rounds it spends, simulated, charged and
    /// rebated, are recorded under `name`. Only the outermost open phase
    /// records, so the phases of a sub-algorithm count towards its
    /// caller's phase.
    pub fn phase<T>(&mut self, name: impl Into<String>, body: impl FnOnce(&mut World) -> T) -> T {
        let start = self.rounds;
        self.phase_depth += 1;
        let out = body(self);
        self.phase_depth -= 1;
        if self.phase_depth == 0 {
            self.report.record(name, self.rounds - start);
        }
        out
    }

    /// Runs a *parallel group*: `job` on every item, where the items are
    /// sub-runs on vertex-disjoint regions (disjoint circuits) that the
    /// model executes in the same rounds. The simulator runs them one
    /// after another, then rebates the counter down to the slowest
    /// sub-run: `Σ spans − max span`, one negative charge-log entry
    /// `rebate: {reason}` when the group has two or more items. This is
    /// the only place the counter is rebated.
    pub fn parallel<I: IntoIterator, T>(
        &mut self,
        reason: &str,
        items: I,
        mut job: impl FnMut(&mut World, I::Item) -> T,
    ) -> Vec<T> {
        let (mut total, mut slowest) = (0, 0);
        let out: Vec<T> = items
            .into_iter()
            .map(|item| {
                let start = self.rounds;
                let r = job(self, item);
                let span = self.rounds - start;
                total += span;
                slowest = slowest.max(span);
                r
            })
            .collect();
        if out.len() > 1 {
            self.rebate_rounds(total - slowest, reason);
        }
        out
    }

    /// The round ledger: the rounds of every closed outermost
    /// [`World::phase`], in order.
    pub fn report(&self) -> &RoundReport {
        &self.report
    }

    /// Number of distinct circuits under the current pin configuration
    /// (diagnostic; does not advance the round counter). Served from the
    /// cached labeling; relabels only if the configuration changed.
    pub fn circuit_count(&mut self) -> usize {
        if self.relabel_pending() {
            self.refresh_labels::<NullRecorder>();
        }
        self.cached_circuits
    }

    /// The circuit label (minimum member gid) of `v`'s partition set
    /// `pset` under the current configuration. Two partition sets lie on
    /// the same circuit iff their labels are equal — the diagnostic the
    /// dynamic-structure oracle uses to compare an incrementally edited
    /// world against a from-scratch rebuild. Relabels first if pending;
    /// does not advance the round counter.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v`.
    pub fn pset_circuit(&mut self, v: usize, pset: u16) -> u32 {
        if self.relabel_pending() {
            self.refresh_labels::<NullRecorder>();
        }
        let gid = self.pset_gid(v, pset);
        self.labels[gid]
    }

    // ---- Structure mutation (dynamic worlds).
    //
    // All four operations keep the cached labeling machinery sound by
    // construction: `add_node` pre-labels its fresh singletons (nothing
    // to relabel), while `connect`/`disconnect` mark the `c` pin pairs of
    // the edge dirty *as if* their partition sets had changed — the
    // region relabel then dissolves exactly the circuits that run(ran)
    // through the edge and re-unions them against the spliced link table.
    // The stability argument of DESIGN.md §1c extends verbatim: every
    // added or removed link-union has both endpoint sets' circuits
    // seeded, so circuits disjoint from the seeds cannot change.

    /// Appends an isolated node with `ports` vacant port slots and
    /// returns its id. Its pins start in the singleton configuration,
    /// already labelled (one counted singleton circuit per pin), so the
    /// cached labeling stays valid and no relabel is triggered.
    pub fn add_node(&mut self, ports: usize) -> usize {
        self.add_node_with(ports, &mut NullRecorder)
    }

    /// [`World::add_node`] with the append recorded. This is the single
    /// implementation; the plain form is a [`NullRecorder`] wrapper, so
    /// the emission gate below compiles away there.
    pub fn add_node_with<R: Recorder>(&mut self, ports: usize, rec: &mut R) -> usize {
        if R::TRACE {
            rec.add_node(ports as u32);
        }
        let v = self.topo.push_node(ports);
        let old_total = *self.base.last().expect("base always non-empty") as usize;
        let added = ports * self.c;
        let new_total = old_total + added;
        self.base.push(new_total as u32);
        for i in 0..added {
            self.pin_pset.push(i as u16);
            self.pset_at_relabel.push(i as u16);
        }
        for gid in old_total..new_total {
            self.uf.push(gid as u32);
            self.labels.push(gid as u32);
            // A fresh singleton bucket at the end of the arena; the next
            // repack folds it in with everything else.
            let pos = self.members.len() as u32;
            self.members.push(gid as u32);
            self.member_off.push(pos);
            self.member_end.push(pos + 1);
            self.member_digest.push(0);
            self.member_digest_epoch.push(0);
        }
        self.send.grow(new_total);
        self.recv.grow(new_total);
        self.root_mark.grow(new_total);
        self.dirty_pin.grow(new_total);
        self.affected_mark.grow(new_total);
        self.in_region.grow(new_total);
        self.circuit_roots.grow(new_total);
        self.node_mark.ensure_len(self.topo.len());
        self.port_edge.resize(self.port_edge.len() + ports, NO_EDGE);
        // Keep the construction-time worst-case reservations of the dense
        // scratch lists in step with the grown pin space, so the "ticks
        // never reallocate" invariant survives growth (the realloc lands
        // here, outside the hot tick path).
        for dense in [&mut self.sent, &mut self.recv_set, &mut self.marked_roots] {
            if dense.capacity() < new_total {
                let len = dense.len();
                dense.reserve(new_total - len);
            }
        }
        if self.dirty_pins.capacity() < new_total {
            let len = self.dirty_pins.len();
            self.dirty_pins.reserve(new_total - len);
        }
        // Each fresh singleton set is referenced by its own pin: it is a
        // circuit, counted immediately so the cached count stays exact.
        for gid in old_total..new_total {
            self.circuit_roots.set(gid);
        }
        self.cached_circuits += added;
        v
    }

    /// Wires an edge (with its `c` external links) into the vacant ports
    /// `(v, p)` and `(w, q)`, marking the edge's pins dirty so the next
    /// relabel merges the circuits it now bridges. O(deg + c).
    ///
    /// # Panics
    ///
    /// Panics on self-loops, duplicate edges, or occupied ports (see
    /// [`Topology::connect`]).
    pub fn connect(&mut self, v: usize, p: PortId, w: usize, q: PortId) {
        self.connect_with(v, p, w, q, &mut NullRecorder)
    }

    /// [`World::connect`] with the edge recorded (the single
    /// implementation; see [`World::add_node_with`]).
    pub fn connect_with<R: Recorder>(
        &mut self,
        v: usize,
        p: PortId,
        w: usize,
        q: PortId,
        rec: &mut R,
    ) {
        if R::TRACE {
            rec.connect(v as u32, p as u32, w as u32, q as u32);
        }
        self.topo.connect(v, p, w, q);
        let a0 = self.base[v] + (p * self.c) as u32;
        let b0 = self.base[w] + (q * self.c) as u32;
        let entry = (a0, self.base[v], b0, self.base[w]);
        let ei = match self.free_links.pop() {
            Some(ei) => {
                debug_assert_eq!(self.links[ei as usize], DEAD_LINK);
                self.links[ei as usize] = entry;
                ei
            }
            None => {
                self.links.push(entry);
                (self.links.len() - 1) as u32
            }
        };
        // `a0 / c` is `base[v] / c + p`: node bases are multiples of `c`.
        self.port_edge[a0 as usize / self.c] = ei;
        self.port_edge[b0 as usize / self.c] = ei;
        let (base_a, base_b) = (self.base[v], self.base[w]);
        for link in 0..self.c {
            self.mark_pin_dirty(a0 as usize + link, base_a);
            self.mark_pin_dirty(b0 as usize + link, base_b);
        }
    }

    /// Unwires the edge behind port `p` of `v` (tombstoning its link
    /// table entry) and returns the peer `(w, q)`. The edge's pins are
    /// marked dirty *before* the splice so the next relabel's seeds still
    /// capture the circuits that ran through the edge. O(deg + c).
    ///
    /// # Panics
    ///
    /// Panics if the port carries no edge.
    pub fn disconnect(&mut self, v: usize, p: PortId) -> (usize, PortId) {
        self.disconnect_with(v, p, &mut NullRecorder)
    }

    /// [`World::disconnect`] with the severed port recorded (the single
    /// implementation; see [`World::add_node_with`]).
    pub fn disconnect_with<R: Recorder>(
        &mut self,
        v: usize,
        p: PortId,
        rec: &mut R,
    ) -> (usize, PortId) {
        if R::TRACE {
            rec.disconnect(v as u32, p as u32);
        }
        let (w, q) = self
            .topo
            .peer(v, p)
            .unwrap_or_else(|| panic!("port {p} of node {v} carries no edge"));
        let a0 = self.base[v] + (p * self.c) as u32;
        let b0 = self.base[w] + (q * self.c) as u32;
        let (base_a, base_b) = (self.base[v], self.base[w]);
        for link in 0..self.c {
            self.mark_pin_dirty(a0 as usize + link, base_a);
            self.mark_pin_dirty(b0 as usize + link, base_b);
        }
        let slot_a = a0 as usize / self.c;
        let slot_b = b0 as usize / self.c;
        let ei = self.port_edge[slot_a];
        debug_assert_eq!(ei, self.port_edge[slot_b], "port tables out of sync");
        self.links[ei as usize] = DEAD_LINK;
        self.free_links.push(ei);
        self.port_edge[slot_a] = NO_EDGE;
        self.port_edge[slot_b] = NO_EDGE;
        self.topo.disconnect(v, p);
        (w, q)
    }

    /// Disconnects every edge of `v` and resets its pins to singletons —
    /// the "this amoebot left the structure" operation. The node id
    /// remains valid (a tombstone the caller may re-wire later via
    /// [`World::connect`]); its singleton sets keep counting as
    /// single-pin circuits, exactly like any other isolated node's.
    /// O(deg · c).
    pub fn isolate(&mut self, v: usize) {
        self.isolate_with(v, &mut NullRecorder)
    }

    /// [`World::isolate`] with the departure recorded as one event (the
    /// implied disconnects and the singleton reset are replayed from it,
    /// so the inner disconnects deliberately go unrecorded). The single
    /// implementation; see [`World::add_node_with`].
    pub fn isolate_with<R: Recorder>(&mut self, v: usize, rec: &mut R) {
        if R::TRACE {
            rec.isolate(v as u32);
        }
        for p in 0..self.topo.ports_len(v) {
            if self.topo.peer(v, p).is_some() {
                self.disconnect(v, p);
            }
        }
        self.singleton_pin_config(v);
    }

    // ---- Recorded structure mutation.
    //
    // Pin-configuration changes need no recorder threading (the net
    // deltas are read off the dirty-pin list at tick time), but structure
    // edits change the *shape* replay must mirror, so each mutation's
    // recorder-generic `_with` form emits the edit before applying it and
    // *is* the implementation — the plain spellings above are one-line
    // `NullRecorder` wrappers, under which the emission gates compile
    // away.

    // ---- Replay-side accessors (crate-internal; see `crate::replay`).
    //
    // Replay rebuilds a world from a trace header and drives it with the
    // recorded deltas, so it needs a validated write path by *gid* (the
    // trace speaks gids, not (node, port, link) triples) and read access
    // to the cached labeling to recompute delivery digests.

    /// Refreshes the labeling if pending and reports which flavor ran.
    /// Replay's stand-in for the refresh a recorded tick performed.
    pub(crate) fn replay_refresh(&mut self) -> RelabelKind {
        if self.relabel_pending() {
            self.refresh_labels::<NullRecorder>()
        } else {
            RelabelKind::None
        }
    }

    /// Total number of pin/partition-set gids.
    pub(crate) fn gid_count(&self) -> usize {
        self.pin_pset.len()
    }

    /// The circuit root of `gid` under the cached labeling (callers must
    /// refresh first).
    pub(crate) fn label_of(&self, gid: usize) -> u32 {
        self.labels[gid]
    }

    /// The membership bucket of circuit `root` (callers must refresh
    /// first and pass a current root).
    pub(crate) fn member_bucket(&self, root: usize) -> &[u32] {
        &self.members[self.member_off[root] as usize..self.member_end[root] as usize]
    }

    /// The cached circuit count without triggering a relabel.
    pub(crate) fn cached_circuit_count(&self) -> usize {
        self.cached_circuits
    }

    /// Monotone epoch that advances on every relabel of either flavor —
    /// replay keys its per-root digest memo on it.
    pub(crate) fn relabel_epoch(&self) -> u64 {
        self.global_relabels() + self.region_relabels()
    }

    /// Validated gid-addressed pin write: the replay-side mirror of
    /// [`World::set_pin`]. Returns `false` (leaving the world untouched)
    /// when `gid` is out of range or `pset` exceeds the owner's capacity,
    /// instead of panicking — a corrupt trace must surface as an error.
    ///
    /// The caller holds a node cursor: recorded config deltas arrive in
    /// near-sorted gid order (the recorder walks nodes in id order), so
    /// the owner of the next gid is almost always the cursor node or its
    /// successor — an O(1) check that replaces a binary search per delta
    /// on the replay hot path. Any cursor value is sound; a stale one
    /// only costs the fallback search.
    pub(crate) fn set_pin_gid_hinted(&mut self, gid: u32, pset: u16, hint: &mut usize) -> bool {
        let g = gid as usize;
        if g >= self.pin_pset.len() {
            return false;
        }
        let h = (*hint).min(self.base.len() - 2);
        let v = if self.base[h] <= gid && gid < self.base[h + 1] {
            h
        } else if h + 2 < self.base.len() && self.base[h + 1] <= gid && gid < self.base[h + 2] {
            h + 1
        } else {
            self.node_of_gid(gid)
        };
        *hint = v;
        if (pset as usize) >= self.pset_capacity(v) {
            return false;
        }
        if self.pin_pset[g] != pset {
            self.pin_pset[g] = pset;
            self.mark_pin_dirty(g, self.base[v]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_world(n: usize, c: usize) -> World {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        World::new(Topology::from_edges(n, &edges), c)
    }

    #[test]
    fn global_circuit_broadcasts() {
        let mut w = path_world(5, 1);
        for v in 0..5 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.tick();
        for v in 0..5 {
            assert!(w.received(v, 0), "node {v} missed the broadcast");
        }
        assert_eq!(w.rounds(), 1);
        // Without new beeps, the next round is silent.
        w.tick();
        for v in 0..5 {
            assert!(!w.received(v, 0));
        }
    }

    #[test]
    fn singleton_config_reaches_only_neighbors() {
        let mut w = path_world(4, 1);
        // Default singleton config. Node 1 beeps towards node 2 (its port 1).
        let pset = 1; // port 1, link 0 under singleton numbering
        w.beep(1, pset as u16);
        w.tick();
        // Node 2 hears it on its port-0 pin (towards node 1)...
        assert!(w.received(2, 0));
        // ...but node 3 does not, and node 0 does not.
        assert!(!w.received_any(3));
        assert!(!w.received_any(0));
    }

    #[test]
    fn links_are_independent() {
        let mut w = path_world(2, 2);
        // Beep only on link 1 of the single edge.
        let pset_link1 = 1;
        w.beep(0, pset_link1 as u16);
        w.tick();
        assert!(w.received(1, 1)); // link 1 pin
        assert!(!w.received(1, 0)); // link 0 pin silent
    }

    #[test]
    fn split_circuit_blocks_signal() {
        // 0 - 1 - 2: node 1 keeps its two pins in separate sets, so beeps
        // from 0 stop at 1.
        let mut w = path_world(3, 1);
        w.beep(0, 0);
        w.tick();
        assert!(w.received(1, 0));
        assert!(!w.received_any(2));
        // Now node 1 merges its pins into one set; the beep passes through.
        w.set_pin(1, 0, 0, 0);
        w.set_pin(1, 1, 0, 0);
        w.beep(0, 0);
        w.tick();
        assert!(w.received(2, 0));
    }

    #[test]
    fn receiver_cannot_count_origins() {
        let mut w = path_world(3, 1);
        for v in 0..3 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.beep(2, 0);
        w.tick();
        // One bit only: node 1 sees "a beep", indistinguishable from a single
        // origin — the API exposes just a boolean.
        assert!(w.received(1, 0));
    }

    #[test]
    fn circuit_count_diagnostic() {
        let mut w = path_world(3, 1);
        // Singleton config: circuits are per-edge: 2 circuits.
        assert_eq!(w.circuit_count(), 2);
        for v in 0..3 {
            w.global_pin_config(v);
        }
        assert_eq!(w.circuit_count(), 1);
    }

    #[test]
    fn charge_rounds_is_audited() {
        let mut w = path_world(2, 1);
        w.tick();
        w.charge_rounds(3, "glue");
        assert_eq!(w.rounds(), 4);
        assert_eq!(w.charged_rounds(), 3);
        assert_eq!(w.charge_log().len(), 1);
    }

    /// The audit invariant: the round counter is exactly the simulated
    /// rounds plus the signed sum of the charge log, so charges and rebates
    /// always reconcile.
    #[test]
    fn charge_log_reconciles_with_round_counter() {
        let mut w = path_world(4, 1);
        w.tick();
        w.tick();
        w.charge_rounds(5, "glue");
        w.tick();
        w.rebate_rounds(3, "parallel composition");
        w.charge_rounds(2, "more glue");
        w.rebate_rounds(1, "overlap");
        assert_eq!(w.simulated_rounds(), 3);
        assert_eq!(w.charged_rounds(), 7); // gross charges, rebates excluded
        let log_sum: i64 = w.charge_log().iter().map(|&(_, k)| k).sum();
        assert_eq!(
            w.simulated_rounds() as i64 + log_sum,
            w.rounds() as i64,
            "simulated + Σlog must equal rounds()"
        );
        // Rebate entries are negative and labelled.
        assert!(w
            .charge_log()
            .iter()
            .any(|(reason, k)| reason.starts_with("rebate:") && *k < 0));
    }

    /// Nested phases record once, under the outermost name; a parallel
    /// group rebates `Σ spans − max span` with one negative log entry.
    #[test]
    fn phase_ledger_and_parallel_group() {
        let mut w = path_world(2, 1);
        w.phase("outer", |w| {
            w.tick();
            w.phase("inner", |w| w.charge_rounds(2, "glue"));
        });
        let spans = w.phase("group", |w| {
            w.parallel("disjoint runs", [3u64, 1, 2], |w, k| {
                w.charge_rounds(k, "run");
                k
            })
        });
        assert_eq!(spans, [3, 1, 2]);
        let phases: Vec<(&str, u64)> = w
            .report()
            .phases()
            .iter()
            .map(|(p, r)| (p.as_str(), *r))
            .collect();
        assert_eq!(phases, [("outer", 3), ("group", 3)]);
        assert_eq!(w.report().total(), w.rounds());
        let rebates: Vec<&(String, i64)> = w.charge_log().iter().filter(|&&(_, k)| k < 0).collect();
        assert_eq!(rebates, [&("rebate: disjoint runs".to_string(), -3)]);
    }

    /// Reconfiguring *after* a tick must invalidate the cached labeling:
    /// the next tick has to see the new circuits, not the cached ones.
    #[test]
    fn dirty_tracking_catches_reconfiguration_after_tick() {
        let mut w = path_world(3, 1);
        // Round 1 on the split (singleton) configuration.
        w.beep(0, 0);
        w.tick();
        assert!(!w.received_any(2), "split config blocks the beep");
        // Reconfigure after the tick: node 1 bridges its pins.
        w.set_pin(1, 0, 0, 0);
        w.set_pin(1, 1, 0, 0);
        w.beep(0, 0);
        w.tick();
        assert!(
            w.received(2, 0),
            "reconfiguration after a tick must not reuse stale circuits"
        );
        // And back: splitting again must also be picked up.
        w.singleton_pin_config(1);
        w.beep(0, 0);
        w.tick();
        assert!(!w.received_any(2), "re-split must invalidate the cache too");
    }

    /// Many consecutive ticks without reconfiguration reuse the cached
    /// labeling; results must stay identical to the reference engine.
    #[test]
    fn steady_state_ticks_match_reference() {
        let mut inc = path_world(6, 2);
        for v in 0..6 {
            inc.global_pin_config(v);
        }
        let mut reference = inc.clone();
        for round in 0..5 {
            let beeper = round % 6;
            inc.beep(beeper, 0);
            reference.beep(beeper, 0);
            inc.tick();
            reference.tick_reference();
            for v in 0..6 {
                for pset in 0..inc.pset_capacity(v) as u16 {
                    assert_eq!(
                        inc.received(v, pset),
                        reference.received(v, pset),
                        "round {round}, node {v}, pset {pset}"
                    );
                }
            }
        }
    }

    /// No-op reconfigurations — every mutation path re-storing the values
    /// the pins already hold — must keep the next tick on the clean path:
    /// nothing becomes dirty, no relabel of either flavor runs.
    #[test]
    fn noop_writes_keep_the_next_tick_clean() {
        let mut w = path_world(5, 2);
        for v in 0..5 {
            w.global_link_config(v, 1);
        }
        w.tick();
        assert!(!w.relabel_pending());
        let before = (w.global_relabels(), w.region_relabels());
        // Re-apply the identical configuration through every sibling.
        for v in 0..5 {
            w.global_link_config(v, 1);
            for i in 0..w.pset_capacity(v) {
                let pset = if i % 2 == 1 { 1 } else { i as u16 };
                w.set_pin(v, i / 2, i % 2, pset);
            }
        }
        w.reset_all_pins_keeping_links(&[1]);
        assert!(
            !w.relabel_pending(),
            "no-op writes must not dirty the labeling"
        );
        w.tick();
        assert_eq!(
            (w.global_relabels(), w.region_relabels()),
            before,
            "the clean tick must not relabel"
        );
    }

    /// Out-of-range partition sets on `beep` must panic — in release builds
    /// too (a `debug_assert` would silently index into a neighbor's state).
    /// Run under `cargo test --release` to exercise the release profile.
    #[test]
    #[should_panic(expected = "partition set 7 out of range for node 0")]
    fn beep_bounds_check_holds_in_release() {
        let mut w = path_world(2, 1);
        // Node 0 has 1 pin => capacity 1; pset 7 would land in node 1's
        // send slots if unchecked.
        w.beep(0, 7);
    }

    /// Same release-mode bounds check on the receive side.
    #[test]
    #[should_panic(expected = "partition set 9 out of range for node 1")]
    fn received_bounds_check_holds_in_release() {
        let w = path_world(3, 1);
        let _ = w.received(1, 9);
    }

    /// `set_pin` rejects out-of-range partition sets in release builds: a
    /// stray pset would poison the cached circuit labeling.
    #[test]
    #[should_panic(expected = "partition set 12 out of range for node 0")]
    fn set_pin_bounds_check_holds_in_release() {
        let mut w = path_world(2, 1);
        w.set_pin(0, 0, 0, 12);
    }
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;
    use crate::topology::Topology;

    fn empty_world(c: usize) -> World {
        World::new(Topology::from_edges(0, &[]), c)
    }

    /// A world grown node by node and edge by edge behaves exactly like
    /// one built in a single shot: broadcasts span it, counts match.
    #[test]
    fn grown_world_behaves_like_a_built_one() {
        let mut w = empty_world(2);
        for _ in 0..4 {
            w.add_node(6);
        }
        // A path 0-1-2-3 on E/W ports (0 and 3).
        for v in 0..3 {
            w.connect(v, 0, v + 1, 3);
        }
        for v in 0..4 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.tick();
        for v in 0..4 {
            assert!(w.received(v, 0), "node {v} missed the broadcast");
        }
        // All pins of all nodes reference set 0 and the links bridge
        // them: one structure-spanning circuit.
        assert_eq!(w.circuit_count(), 1);
    }

    /// `add_node` must not invalidate the cached labeling; wiring the new
    /// node in dirties exactly the edge region. Circuit counts stay exact
    /// through the whole grow sequence (c = 2, 6 ports => 12 singleton
    /// circuits per isolated node, each edge merging two pin pairs).
    #[test]
    fn add_node_keeps_the_labeling_clean() {
        let mut w = empty_world(2);
        w.add_node(6);
        w.add_node(6);
        w.connect(0, 0, 1, 3);
        w.tick();
        assert!(!w.relabel_pending());
        let before = (w.global_relabels(), w.region_relabels());
        let v = w.add_node(6);
        assert!(!w.relabel_pending(), "isolated growth needs no relabel");
        assert_eq!(w.circuit_count(), 2 * 12 - 2 + 12);
        assert_eq!(
            (w.global_relabels(), w.region_relabels()),
            before,
            "counting fresh singletons must not relabel"
        );
        w.connect(0, 1, v, 4);
        assert!(w.relabel_pending());
        assert_eq!(w.circuit_count(), 34 - 2);
        assert_eq!(w.global_relabels(), before.0, "edge splice stays regional");
        assert!(w.region_relabels() > before.1);
        // The spliced edge's link-0 pin pair shares a circuit.
        assert_eq!(w.pset_circuit(0, 2), w.pset_circuit(v, 8));
        assert_ne!(w.pset_circuit(0, 2), w.pset_circuit(v, 9));
    }

    /// Detach/re-attach churn at the boundary of a singleton-configured
    /// path must take the region path every time — structural edits ride
    /// the dirty-pin machinery, they do not force global relabels.
    #[test]
    fn boundary_churn_takes_the_region_path() {
        let n = 64;
        let mut w = empty_world(1);
        for _ in 0..n {
            w.add_node(6);
        }
        for v in 0..n - 1 {
            w.connect(v, 0, v + 1, 3);
        }
        w.tick();
        let g0 = w.global_relabels();
        for _ in 0..5 {
            w.isolate(n - 1);
            w.beep(n - 2, 0);
            w.tick();
            assert!(!w.received_any(n - 1), "detached node must hear nothing");
            w.connect(n - 2, 0, n - 1, 3);
            w.beep(n - 2, 0);
            w.tick();
            assert!(w.received(n - 1, 3), "re-attached node hears its neighbor");
        }
        assert_eq!(w.global_relabels(), g0, "churn must relabel regionally");
        assert!(w.region_relabels() >= 10);
    }

    /// The interleaving guard: churn followed by `tick_reference` (which
    /// clobbers the scratch) followed by more churn must still deliver
    /// correctly — the forced global relabel covers the spliced links.
    #[test]
    fn churn_interleaves_with_the_reference_engine() {
        let mut w = empty_world(1);
        for _ in 0..3 {
            w.add_node(6);
        }
        w.connect(0, 0, 1, 3);
        w.connect(1, 0, 2, 3);
        for v in 0..3 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.tick_reference();
        assert!(w.received(2, 0));
        w.disconnect(1, 0);
        w.beep(0, 0);
        w.tick();
        assert!(w.received(1, 0));
        assert!(
            !w.received_any(2),
            "split must hold after the reference tick"
        );
        w.connect(1, 0, 2, 3);
        w.beep(0, 0);
        w.tick_reference();
        assert!(w.received(2, 0), "rewired edge must carry beeps again");
    }

    /// Tombstoned link-table entries are recycled: a long grow–shrink
    /// cycle must not grow the link table past its historical maximum.
    #[test]
    fn link_slots_are_recycled_across_churn_cycles() {
        let mut w = empty_world(2);
        for _ in 0..3 {
            w.add_node(6);
        }
        w.connect(0, 0, 1, 3);
        w.connect(1, 0, 2, 3);
        let links_high_water = w.links.len();
        for _ in 0..50 {
            w.isolate(2);
            w.connect(1, 0, 2, 3);
            w.tick();
        }
        assert_eq!(
            w.links.len(),
            links_high_water,
            "freelist must recycle tombstones"
        );
        w.beep(0, 0);
        w.tick();
        // c = 2: node 1's port-3 link-0 pin sits in singleton set 6.
        assert!(w.received(1, 6));
    }

    /// An isolated (tombstoned) node keeps its singleton circuits and its
    /// id; rewiring it at a different port works like a fresh node.
    #[test]
    fn isolate_then_rewire_reuses_the_node() {
        let mut w = empty_world(1);
        for _ in 0..3 {
            w.add_node(6);
        }
        w.connect(0, 0, 1, 3);
        w.connect(1, 0, 2, 3);
        let count_before = w.circuit_count();
        w.isolate(2);
        // The severed edge's two 2-pin circuits split into singletons.
        assert_eq!(w.circuit_count(), count_before + 1);
        // Rewire node 2 on the other side of node 0 (port 3/W of 0).
        w.connect(0, 3, 2, 0);
        assert_eq!(w.circuit_count(), count_before);
        w.beep(2, 0);
        w.tick();
        assert!(w.received(0, 3));
    }
}

#[cfg(test)]
mod safety_tests {
    use super::*;
    use crate::topology::Topology;

    /// Stale pin groups from an earlier phase must not leak circuits into a
    /// later phase once the node resets its non-reserved pins.
    #[test]
    fn reset_pins_prevents_stale_group_leaks() {
        // 0 - 1 - 2 with c = 3 (link 2 reserved as a global link).
        let edges = [(0usize, 1usize), (1, 2)];
        let mut w = World::new(Topology::from_edges(3, &edges), 3);
        for v in 0..3 {
            w.global_link_config(v, 2);
        }
        // Phase 1: node 1 bridges its two link-0 pins.
        let bridge = w.group_pins(1, &[(0, 0), (1, 0)]);
        w.beep(0, 0);
        w.tick();
        assert!(w.received(2, 0), "bridge active in phase 1");
        let _ = bridge;
        // Phase 2: node 1 resets (keeping the reserved link); the bridge
        // must be gone while the global link still spans the structure.
        w.reset_pins_keeping_links(1, &[2]);
        w.beep(0, 0);
        w.tick();
        assert!(
            !w.received_any(2) || !w.received(2, World::global_link_pset(2)),
            "stale bridge must not leak"
        );
        // The reserved global link still works.
        w.beep(0, World::global_link_pset(2));
        w.tick();
        assert!(w.received(2, World::global_link_pset(2)));
    }

    #[test]
    fn beep_instrumentation_counts_once_per_pset_round() {
        let mut w = World::new(Topology::from_edges(2, &[(0, 1)]), 1);
        assert_eq!(w.beeps_sent(), 0);
        w.beep(0, 0);
        w.beep(0, 0); // duplicate in the same round: counted once
        w.tick();
        assert_eq!(w.beeps_sent(), 1);
        w.beep(1, 0);
        w.tick();
        assert_eq!(w.beeps_sent(), 2);
    }
}
