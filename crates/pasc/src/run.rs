//! The generic PASC executor.

use amoebot_circuits::topology::PortId;
use amoebot_circuits::World;

/// One side-edge of a PASC instance: a port of the owning node plus the two
/// link indices used as the primary and secondary track on that edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Port of the owning node.
    pub port: PortId,
    /// Link index carrying the *primary* track.
    pub primary: usize,
    /// Link index carrying the *secondary* track.
    pub secondary: usize,
}

impl EdgeRef {
    /// Convenience constructor.
    pub fn new(port: PortId, primary: usize, secondary: usize) -> EdgeRef {
        EdgeRef {
            port,
            primary,
            secondary,
        }
    }
}

/// One PASC instance. A node of the simulated structure may operate several
/// instances (e.g. one per occurrence on an Euler tour, Remark 16).
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// The node operating this instance.
    pub node: usize,
    /// The predecessor-side edge; `None` makes this a *start* instance (the
    /// chain head / tree root / tour origin), which injects the beep.
    pub pred: Option<EdgeRef>,
    /// The successor-side edges (several for tree broadcasts, Corollary 5;
    /// empty at chain ends).
    pub succs: Vec<EdgeRef>,
    /// The instance's weight: weight-1 instances participate in the count
    /// (start active), weight-0 instances merely forward and read
    /// (Corollary 6).
    pub weight: bool,
}

/// A synchronized execution of one or more parallel PASC chains/trees.
///
/// Every iteration consists of one *data* round ([`PascRun::data_step`]) on
/// the primary/secondary tracks and one *sync* round ([`PascRun::sync_step`])
/// on the reserved global link — 2 simulator rounds per emitted bit, matching
/// Lemma 4. Callers may interleave extra rounds between the two (the centroid
/// primitive inserts its |Q|-broadcast round there, §3.4). The run is done
/// when no instance is active, i.e. after `⌈log2(W + 1)⌉` iterations where
/// `W` is the largest weighted prefix count of any chain.
#[derive(Debug, Clone)]
pub struct PascRun {
    specs: Vec<InstanceSpec>,
    active: Vec<bool>,
    values: Vec<u64>,
    /// Incoming track (0 = primary, 1 = secondary) observed by each instance
    /// in the latest data round. For an instance with incoming tour edge
    /// `(v, u)` this equals the current bit of `prefixsum_(v,u)` (§3.1).
    incoming: Vec<u8>,
    /// Bit emitted by each instance in the latest data round (the current
    /// bit of the instance's own prefix sum).
    bits: Vec<u8>,
    /// Track groups `(a, b)` of each instance in the current iteration
    /// (see [`PascRun::track_psets`]), computed once per data round.
    psets: Vec<(u16, u16)>,
    iterations: u32,
    sync_link: usize,
    done: bool,
}

impl PascRun {
    /// Prepares a run and marks weight-1 instances active. The reserved
    /// `sync_link` must not be used by any concurrent primitive: it is
    /// set up as a global circuit on *every* node through
    /// [`World::global_link_config_all`], which costs O(1) when an earlier
    /// run left the link global and no pin on it has moved since.
    ///
    /// # Panics
    ///
    /// Panics if `sync_link` collides with a track link of any instance, or
    /// if an instance uses the same link for both tracks.
    pub fn new(world: &mut World, specs: Vec<InstanceSpec>, sync_link: usize) -> PascRun {
        for spec in &specs {
            for e in spec.pred.iter().chain(spec.succs.iter()) {
                assert!(
                    e.primary != sync_link && e.secondary != sync_link,
                    "sync link {sync_link} must be reserved"
                );
                assert_ne!(e.primary, e.secondary, "tracks must use distinct links");
            }
        }
        world.global_link_config_all(sync_link);
        let active: Vec<bool> = specs.iter().map(|s| s.weight).collect();
        let n = specs.len();
        PascRun {
            specs,
            active,
            values: vec![0; n],
            incoming: vec![0; n],
            bits: vec![0; n],
            psets: vec![(u16::MAX, u16::MAX); n],
            iterations: 0,
            sync_link,
            done: false,
        }
    }

    /// Whether the run has terminated (no active instances remain).
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Completed iterations (= bits emitted per instance).
    #[inline]
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// The value accumulated from the bits emitted by instance `idx` so far.
    /// After [`PascRun::is_done`], this is the instance's weighted prefix
    /// count (its distance to the start, for unit weights).
    #[inline]
    pub fn value(&self, idx: usize) -> u64 {
        self.values[idx]
    }

    /// All accumulated values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The bit each instance emitted in the latest data round.
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// The incoming track each instance observed in the latest data round
    /// (for instance `i` with incoming tour edge `e`, the current bit of
    /// `prefixsum_e`; undefined `0` for start instances).
    pub fn incoming(&self) -> &[u8] {
        &self.incoming
    }

    /// The instance specs of this run.
    pub fn specs(&self) -> &[InstanceSpec] {
        &self.specs
    }

    /// The track groups of instance `i` under the current activity, as
    /// partition-set ids `(a, b)` where `a` contains the pred-side primary
    /// pin and `b` the pred-side secondary pin. Each id is the minimum
    /// singleton id of its group, the id [`World::group_pins`] assigns.
    fn track_psets(&self, c: usize, i: usize) -> (u16, u16) {
        let spec = &self.specs[i];
        let mut id_a = u16::MAX;
        let mut id_b = u16::MAX;
        if let Some(pred) = spec.pred {
            id_a = (pred.port * c + pred.primary) as u16;
            id_b = (pred.port * c + pred.secondary) as u16;
        }
        for s in &spec.succs {
            let (la, lb) = self.succ_links(i, s);
            id_a = id_a.min((s.port * c + la) as u16);
            id_b = id_b.min((s.port * c + lb) as u16);
        }
        (id_a, id_b)
    }

    /// The `(a, b)` track links of successor edge `s` of instance `i`:
    /// active non-start instances cross the tracks, everyone else
    /// (including the start, which never crosses) connects them straight.
    #[inline]
    fn succ_links(&self, i: usize, s: &EdgeRef) -> (usize, usize) {
        if self.specs[i].pred.is_some() && self.active[i] {
            (s.secondary, s.primary)
        } else {
            (s.primary, s.secondary)
        }
    }

    /// Writes this iteration's pin configuration for every instance and
    /// records its track groups in `psets`. The pins are written in
    /// [`World::group_pins`] order (group `a`, then group `b`; pred side
    /// first), without building the groups as lists.
    fn configure_data(&mut self, world: &mut World) {
        let c = world.links_per_edge();
        for i in 0..self.specs.len() {
            let (a, b) = self.track_psets(c, i);
            self.psets[i] = (a, b);
            let spec = &self.specs[i];
            if let Some(pred) = spec.pred {
                world.set_pin(spec.node, pred.port, pred.primary, a);
            }
            for s in &spec.succs {
                world.set_pin(spec.node, s.port, self.succ_links(i, s).0, a);
            }
            if let Some(pred) = spec.pred {
                world.set_pin(spec.node, pred.port, pred.secondary, b);
            }
            for s in &spec.succs {
                world.set_pin(spec.node, s.port, self.succ_links(i, s).1, b);
            }
        }
    }

    /// Executes the data round of one iteration: configures the tracks,
    /// lets `pre_tick` piggyback extra pins/beeps, ticks, reads every
    /// instance's bit and updates activity. Returns the emitted bits, or
    /// `None` if the run already terminated.
    pub fn data_step(
        &mut self,
        world: &mut World,
        pre_tick: impl FnOnce(&mut World),
    ) -> Option<&[u8]> {
        if self.done {
            return None;
        }
        self.configure_data(world);
        // Start instances beep on the track expressing their activity.
        for (i, spec) in self.specs.iter().enumerate() {
            if spec.pred.is_none() && !spec.succs.is_empty() {
                let (a, b) = self.psets[i];
                world.beep(spec.node, if self.active[i] { b } else { a });
            }
        }
        pre_tick(world);
        world.tick();
        for i in 0..self.specs.len() {
            let spec = &self.specs[i];
            let bit = match spec.pred {
                None => {
                    self.incoming[i] = 0;
                    self.active[i] as u8
                }
                Some(_) => {
                    let (a, b) = self.psets[i];
                    let on_a = world.received(spec.node, a);
                    let on_b = world.received(spec.node, b);
                    debug_assert!(
                        on_a || on_b,
                        "instance {i} heard no beep: tour disconnected?"
                    );
                    debug_assert!(!(on_a && on_b), "instance {i} heard both tracks");
                    let incoming = u8::from(on_b);
                    self.incoming[i] = incoming;
                    incoming ^ u8::from(self.active[i])
                }
            };
            self.bits[i] = bit;
            self.values[i] |= (bit as u64) << self.iterations;
        }
        for i in 0..self.specs.len() {
            if self.active[i] && self.bits[i] == 1 {
                self.active[i] = false;
            }
        }
        Some(&self.bits)
    }

    /// Executes the sync round of one iteration: still-active instances beep
    /// on the reserved global link; the run terminates on silence. Returns
    /// whether the run is now done.
    pub fn sync_step(&mut self, world: &mut World) -> bool {
        let pset = World::global_link_pset(self.sync_link);
        let mut any_sent = false;
        for (i, spec) in self.specs.iter().enumerate() {
            if self.active[i] {
                world.beep(spec.node, pset);
                any_sent = true;
            }
        }
        world.tick();
        let heard = self
            .specs
            .first()
            .map(|s| world.received(s.node, pset))
            .unwrap_or(false);
        debug_assert_eq!(heard, any_sent, "sync circuit must span all instances");
        self.iterations += 1;
        if !heard {
            self.done = true;
        }
        self.done
    }

    /// Runs full iterations (data + sync = 2 rounds each) until
    /// termination and returns the final values.
    pub fn run_to_completion(&mut self, world: &mut World) -> Vec<u64> {
        while self.data_step(world, |_| {}).is_some() {
            self.sync_step(world);
        }
        self.values.clone()
    }
}
