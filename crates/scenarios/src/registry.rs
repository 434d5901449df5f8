//! The workload registry: named scenario families.
//!
//! A [`Family`] maps a seed to a concrete [`Scenario`] — fixed-parameter
//! families (the E1–E20 experiment index) ignore most of the seed's
//! entropy, randomized families use it to draw structures, placements and
//! algorithm parameters. [`Registry::random_suite`] derives a reproducible
//! batch of scenarios from a single master seed by cycling through the
//! randomized families; this is what `scenario-runner run --seed N --count M`
//! executes.

use amoebot_grid::random::ALL_PLACEMENTS;
use rand::{Rng, RngCore};

use crate::experiments;
use crate::spec::{derive_rng, PlacementSpec, Scenario, StructureAlgorithm, StructureSpec};

/// A named scenario generator.
pub struct Family {
    /// Unique family name (stable; appears in reports).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Whether the family draws its parameters from the seed. Only
    /// randomized families participate in [`Registry::random_suite`].
    pub randomized: bool,
    /// Largest structure size at which this family participates in
    /// `sweep` size ladders (`0` = not sweepable). Ceilings are set per
    /// family because algorithm costs diverge by orders of magnitude: the
    /// global-circuit broadcast sweeps to 10^6 nodes in seconds while the
    /// DnC forest is capped where a single run stays within the CI budget.
    pub sweep_max_n: usize,
    build: Box<dyn Fn(u64) -> Scenario + Send + Sync>,
    /// Size-parameterized builder used by sweeps.
    sized: Option<Box<dyn Fn(u64, usize) -> Scenario + Send + Sync>>,
}

impl Family {
    /// Builds the family's scenario for `seed`.
    pub fn build(&self, seed: u64) -> Scenario {
        let mut sc = (self.build)(seed);
        // The registry owns family identity: a builder cannot mislabel its
        // scenarios.
        sc.family = self.name.to_string();
        sc
    }

    /// Builds the family's scenario at a target structure size, for size
    /// sweeps. `None` if the family is not sweepable.
    pub fn build_sized(&self, seed: u64, n: usize) -> Option<Scenario> {
        let sized = self.sized.as_ref()?;
        let mut sc = sized(seed, n);
        sc.family = self.name.to_string();
        Some(sc)
    }

    /// Whether the family participates in size sweeps.
    pub fn sweepable(&self) -> bool {
        self.sized.is_some()
    }
}

impl std::fmt::Debug for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Family")
            .field("name", &self.name)
            .field("randomized", &self.randomized)
            .finish()
    }
}

/// An ordered collection of [`Family`]s with name lookup.
#[derive(Debug, Default)]
pub struct Registry {
    families: Vec<Family>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a family.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken (names are report identifiers).
    pub fn register<F>(
        &mut self,
        name: &'static str,
        description: &'static str,
        randomized: bool,
        build: F,
    ) where
        F: Fn(u64) -> Scenario + Send + Sync + 'static,
    {
        assert!(
            self.get(name).is_none(),
            "scenario family {name:?} registered twice"
        );
        self.families.push(Family {
            name,
            description,
            randomized,
            sweep_max_n: 0,
            build: Box::new(build),
            sized: None,
        });
    }

    /// Registers a family that additionally supports size-parameterized
    /// builds for `sweep`, up to `sweep_max_n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or `sweep_max_n == 0`.
    pub fn register_sweepable<F, S>(
        &mut self,
        name: &'static str,
        description: &'static str,
        randomized: bool,
        sweep_max_n: usize,
        build: F,
        sized: S,
    ) where
        F: Fn(u64) -> Scenario + Send + Sync + 'static,
        S: Fn(u64, usize) -> Scenario + Send + Sync + 'static,
    {
        assert!(sweep_max_n > 0, "sweepable family needs a size ceiling");
        assert!(
            self.get(name).is_none(),
            "scenario family {name:?} registered twice"
        );
        self.families.push(Family {
            name,
            description,
            randomized,
            sweep_max_n,
            build: Box::new(build),
            sized: Some(Box::new(sized)),
        });
    }

    /// All families, in registration order.
    pub fn families(&self) -> &[Family] {
        &self.families
    }

    /// Looks a family up by name.
    pub fn get(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Builds `count` scenarios from `master_seed`, cycling through the
    /// randomized families (or through `only` if non-empty). Deterministic:
    /// scenario `i` gets a seed derived from `(master_seed, i)` only.
    ///
    /// # Panics
    ///
    /// Panics if a name in `only` is unknown.
    pub fn random_suite(&self, master_seed: u64, count: usize, only: &[String]) -> Vec<Scenario> {
        let pool: Vec<&Family> = if only.is_empty() {
            self.families.iter().filter(|f| f.randomized).collect()
        } else {
            only.iter()
                .map(|name| {
                    self.get(name)
                        .unwrap_or_else(|| panic!("unknown scenario family {name:?}"))
                })
                .collect()
        };
        assert!(!pool.is_empty(), "no families to draw from");
        (0..count)
            .map(|i| {
                let mut rng = derive_rng(master_seed, i as u64);
                // Full-range draw: `gen_range(0..u64::MAX)` can never yield
                // `u64::MAX` (half-open range), silently excluding one seed.
                let scenario_seed: u64 = rng.next_u64();
                pool[i % pool.len()].build(scenario_seed)
            })
            .collect()
    }
}

/// Menu pick driven by a scenario seed and a purpose tag (keeps parameter
/// draws independent of the structure/placement randomness).
fn menu_pick<T: Copy>(seed: u64, purpose: u64, menu: &[T]) -> T {
    let mut rng = derive_rng(seed, purpose);
    menu[rng.gen_range(0..menu.len())]
}

/// The default registry: the E1–E20 experiment index (fixed parameters,
/// menu-selected by seed) plus the randomized structure families used by
/// `scenario-runner`.
pub fn default_registry() -> Registry {
    let mut r = Registry::new();

    // ---- Experiment index (fixed-parameter families). The seed selects
    // from the parameter menus that the `experiments` binary prints.
    r.register_sweepable(
        "e1-pasc-chain",
        "E1 (Lemma 4): PASC distances along a chain",
        false,
        1_000_000,
        |seed| experiments::e1_pasc_chain(menu_pick(seed, 100, &[16, 64, 256, 1024])),
        |_seed, n| experiments::e1_pasc_chain(n),
    );
    r.register(
        "e2-pasc-tree",
        "E2 (Corollary 5): PASC depths on a balanced binary tree",
        false,
        |seed| experiments::e2_pasc_tree(menu_pick(seed, 100, &[3, 5, 7, 9])),
    );
    r.register(
        "e3-pasc-prefix",
        "E3 (Corollary 6): weighted prefix sums on a chain",
        false,
        |seed| experiments::e3_pasc_prefix(1024, menu_pick(seed, 100, &[1, 4, 32, 256])),
    );
    r.register(
        "e4-root-prune",
        "E4/E5 (Lemmas 14, 20): root-and-prune on a random tree",
        false,
        |seed| {
            let (n, q) = menu_pick(seed, 100, &[(512, 8), (512, 64), (512, 512)]);
            experiments::e4_root_prune(n, q)
        },
    );
    r.register(
        "e6-election",
        "E6 (Lemma 21): the election primitive",
        false,
        |seed| {
            let (n, q) = menu_pick(seed, 100, &[(64, 4), (512, 32)]);
            experiments::e6_election(n, q)
        },
    );
    r.register(
        "e7-centroids",
        "E7 (Lemma 23): the Q-centroid primitive",
        false,
        |seed| {
            let (n, q) = menu_pick(seed, 100, &[(256, 4), (256, 64), (1024, 64)]);
            experiments::e7_centroids(n, q)
        },
    );
    r.register(
        "e8-augmentation",
        "E8 (Corollary 29): |A_Q| <= |Q| - 1",
        false,
        |seed| {
            let (n, q) = menu_pick(seed, 100, &[(256, 4), (256, 16), (1024, 32)]);
            experiments::e8_augmentation(n, q)
        },
    );
    r.register(
        "e9-decomposition",
        "E9 (Lemmas 30, 31): centroid decomposition",
        false,
        |seed| {
            let (n, q) = menu_pick(seed, 100, &[(128, 8), (256, 32), (512, 128)]);
            experiments::e9_decomposition(n, q)
        },
    );
    r.register(
        "e11-spt",
        "E11 (Theorem 39): SPT round counts vs number of destinations",
        false,
        |seed| experiments::e11_spt(512, menu_pick(seed, 100, &[1, 2, 8, 32, 128])),
    );
    r.register(
        "e12-spsp",
        "E12 (Theorem 39): SPSP is O(1) rounds",
        false,
        |seed| experiments::e12_spsp(menu_pick(seed, 100, &[128, 512, 2048])),
    );
    r.register(
        "e13-sssp",
        "E13 (Theorem 39): SSSP is O(log n) rounds",
        false,
        |seed| experiments::e13_sssp(menu_pick(seed, 100, &[128, 512, 2048])),
    );
    r.register(
        "e14-line",
        "E14 (Lemma 40): the line algorithm",
        false,
        |seed| {
            let (n, k) = menu_pick(seed, 100, &[(64, 1), (64, 8), (512, 8)]);
            experiments::e14_line(n, k)
        },
    );
    r.register(
        "e17-forest",
        "E17 (Theorem 56): divide & conquer forest",
        false,
        |seed| {
            let (n, k) = menu_pick(seed, 100, &[(256, 2), (256, 8), (1024, 8)]);
            experiments::e17_forest(n, k)
        },
    );
    r.register(
        "e18a-wavefront",
        "E18a: circuit-less BFS wavefront baseline",
        false,
        |seed| {
            let (n, k) = menu_pick(seed, 100, &[(256, 2), (1024, 8)]);
            experiments::e18a_wavefront(n, k)
        },
    );
    r.register(
        "e18b-sequential",
        "E18b: sequential merging baseline",
        false,
        |seed| {
            let (n, k) = menu_pick(seed, 100, &[(256, 2), (256, 8)]);
            experiments::e18b_sequential(n, k)
        },
    );
    r.register(
        "e20-leader",
        "E20 (Theorem 2 substitute): randomized leader election",
        false,
        |seed| experiments::e20_leader(menu_pick(seed, 100, &[16, 64, 256]), seed),
    );

    // ---- Randomized families (the batch-runner workhorses). Every one
    // cross-validates a distributed forest against centralized BFS on a
    // randomly generated structure.
    r.register_sweepable(
        "random-blob-forest",
        "DnC forest on a random hole-free blob, random multi-source placement",
        true,
        // Region-scoped relabeling makes reconfig-heavy rounds
        // O(affected circuits): the 10k rung dropped from ~15 s to ~3 s
        // and 100k fits the weekly sweep budget. The per-PR perf gate
        // still clips at `--max-nodes 10000`, so this ceiling only
        // extends the weekly ladder.
        100_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(24..=160usize);
            let k = p.gen_range(2..=6usize).min(n);
            let strategy = *crate::spec::pick(&mut p, &ALL_PLACEMENTS);
            Scenario::structure(
                "random-blob-forest",
                seed,
                StructureSpec::RandomBlob { n },
                PlacementSpec::Random { k, strategy },
                PlacementSpec::All,
                StructureAlgorithm::Forest,
            )
        },
        |seed, n| {
            Scenario::structure(
                "random-blob-forest",
                seed,
                StructureSpec::RandomBlob { n },
                PlacementSpec::Random {
                    k: 4.min(n),
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::All,
                StructureAlgorithm::Forest,
            )
        },
    );
    r.register(
        "random-mix-forest",
        "DnC forest on a random parallelogram/hexagon/triangle/line mix",
        true,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let pieces = p.gen_range(2..=5usize);
            let scale = p.gen_range(3..=6usize);
            let k = p.gen_range(2..=5usize);
            let strategy = *crate::spec::pick(&mut p, &ALL_PLACEMENTS);
            Scenario::structure(
                "random-mix-forest",
                seed,
                StructureSpec::RandomMix { pieces, scale },
                PlacementSpec::Random { k, strategy },
                PlacementSpec::All,
                StructureAlgorithm::Forest,
            )
        },
    );
    r.register(
        "random-snake-forest",
        "DnC forest on a random thin corridor (worst case for O(diam) baselines)",
        true,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let segments = p.gen_range(3..=10usize);
            let seg_len = p.gen_range(2..=6usize);
            let k = p.gen_range(2..=4usize);
            Scenario::structure(
                "random-snake-forest",
                seed,
                StructureSpec::RandomSnake { segments, seg_len },
                PlacementSpec::Random {
                    k,
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::All,
                StructureAlgorithm::Forest,
            )
        },
    );
    r.register_sweepable(
        "random-blob-spt",
        "SPT on a random blob with random destination subset",
        true,
        1_000_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(24..=200usize);
            let l = p.gen_range(1..=12usize);
            let strategy = *crate::spec::pick(&mut p, &ALL_PLACEMENTS);
            Scenario::structure(
                "random-blob-spt",
                seed,
                StructureSpec::RandomBlob { n },
                PlacementSpec::Random {
                    k: 1,
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::Random { k: l, strategy },
                StructureAlgorithm::Spt,
            )
        },
        |seed, n| {
            Scenario::structure(
                "random-blob-spt",
                seed,
                StructureSpec::RandomBlob { n },
                PlacementSpec::Random {
                    k: 1,
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::Random {
                    k: 8.min(n),
                    strategy: amoebot_grid::Placement::Uniform,
                },
                StructureAlgorithm::Spt,
            )
        },
    );
    r.register(
        "random-mix-sssp",
        "SSSP on a random shape mix",
        true,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let pieces = p.gen_range(2..=4usize);
            let scale = p.gen_range(3..=6usize);
            Scenario::structure(
                "random-mix-sssp",
                seed,
                StructureSpec::RandomMix { pieces, scale },
                PlacementSpec::Random {
                    k: 1,
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::All,
                StructureAlgorithm::Spt,
            )
        },
    );
    r.register_sweepable(
        "random-line-forest",
        "line algorithm with random multi-source placement",
        true,
        // ~2 s at 10^5 but ~160 s at 10^6 (superlinear merge glue): the
        // 1M rung belongs to the blob-broadcast/SPT families, which stay
        // well inside the per-rung minute.
        100_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(16..=256usize);
            let k = p.gen_range(1..=8usize).min(n);
            Scenario::structure(
                "random-line-forest",
                seed,
                StructureSpec::Line { n },
                PlacementSpec::Random {
                    k,
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::All,
                StructureAlgorithm::LineForest,
            )
        },
        |seed, n| {
            Scenario::structure(
                "random-line-forest",
                seed,
                StructureSpec::Line { n },
                PlacementSpec::Random {
                    k: 8.min(n),
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::All,
                StructureAlgorithm::LineForest,
            )
        },
    );
    r.register(
        "random-blob-baselines",
        "wavefront + sequential baselines on random blobs (round-count foils)",
        true,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(24..=120usize);
            let k = p.gen_range(2..=5usize).min(n);
            let algorithm = if p.gen_bool(0.5) {
                StructureAlgorithm::Wavefront
            } else {
                StructureAlgorithm::SequentialForest
            };
            Scenario::structure(
                "random-blob-baselines",
                seed,
                StructureSpec::RandomBlob { n },
                PlacementSpec::Random {
                    k,
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::All,
                algorithm,
            )
        },
    );
    r.register_sweepable(
        "blob-broadcast",
        "global-circuit broadcast throughput on a random blob (pure engine sweep)",
        true,
        1_000_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(64..=256usize);
            Scenario::micro(
                "blob-broadcast",
                seed,
                crate::spec::MicroWorkload::BlobBroadcast { n, rounds: 8 },
            )
        },
        |seed, n| {
            Scenario::micro(
                "blob-broadcast",
                seed,
                crate::spec::MicroWorkload::BlobBroadcast { n, rounds: 8 },
            )
        },
    );
    r.register_sweepable(
        "blob-churn-broadcast",
        "runtime churn on a blob under global-circuit broadcast, rebuild-oracle-checked per event",
        true,
        // Each event pays one rebuild-oracle pass (O(n)), so the rung
        // cost is ~events × the blob-broadcast rung; 10^5 keeps the
        // weekly sweep comfortably inside its budget.
        100_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(24..=128usize);
            let events = p.gen_range(4..=10usize);
            let per_event = p.gen_range(1..=(n / 8).max(1));
            Scenario::micro(
                "blob-churn-broadcast",
                seed,
                crate::spec::MicroWorkload::BlobChurnBroadcast {
                    n,
                    events,
                    per_event,
                },
            )
        },
        |seed, n| {
            Scenario::micro(
                "blob-churn-broadcast",
                seed,
                crate::spec::MicroWorkload::BlobChurnBroadcast {
                    n,
                    events: 8,
                    // 1% churn per event at sweep sizes — the cost model
                    // rung the churn_ticks bench mirrors.
                    per_event: (n / 100).max(1),
                },
            )
        },
    );
    r.register_sweepable(
        "line-churn-spt",
        "grow/shrink churn on a line with SPT restarts + BFS cross-validation per event",
        true,
        // Each event restarts the SPT (~the random-blob-spt rung cost)
        // and validates against BFS; 6 restarts at 10^5 stay well under
        // the weekly per-rung minute.
        100_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(16..=96usize);
            let events = p.gen_range(3..=8usize);
            let per_event = p.gen_range(1..=4usize);
            Scenario::micro(
                "line-churn-spt",
                seed,
                crate::spec::MicroWorkload::LineChurnSpt {
                    n,
                    events,
                    per_event,
                },
            )
        },
        |seed, n| {
            Scenario::micro(
                "line-churn-spt",
                seed,
                crate::spec::MicroWorkload::LineChurnSpt {
                    n,
                    events: 6,
                    per_event: (n / 100).max(1),
                },
            )
        },
    );
    // ---- Adversary families (DESIGN.md §1h): seeded fault schedules
    // against a live broadcast, rebuild-oracle-checked per event, with a
    // self-stabilization re-convergence bound after the burst.
    r.register_sweepable(
        "fault-lossy-broadcast",
        "beep drop / spurious-inject adversary on the blob flood relay, oracle-checked per event",
        true,
        // The flood relay beeps every informed amoebot's pin set each
        // round, and recovery runs up to the eccentricity of the blob:
        // ~O(n^1.5) work per rung keeps the ceiling at 10^4.
        10_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(16..=80usize);
            let events = p.gen_range(3..=8usize);
            let per_event = p.gen_range(1..=(n / 10).max(1));
            Scenario::micro(
                "fault-lossy-broadcast",
                seed,
                crate::spec::MicroWorkload::FaultyBlobFlood {
                    n,
                    events,
                    per_event,
                },
            )
        },
        |seed, n| {
            Scenario::micro(
                "fault-lossy-broadcast",
                seed,
                crate::spec::MicroWorkload::FaultyBlobFlood {
                    n,
                    events: 6,
                    per_event: (n / 100).max(1),
                },
            )
        },
    );
    r.register_sweepable(
        "fault-stuckpin-broadcast",
        "stuck-at pin adversary on a line's global circuit, released + repaired after the burst",
        true,
        // Global-circuit ticks are cheap; each event pays one rebuild
        // oracle (O(n)) like the churn family, so 10^5 fits the budget.
        100_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(12..=96usize);
            let events = p.gen_range(3..=8usize);
            let per_event = p.gen_range(1..=4usize);
            Scenario::micro(
                "fault-stuckpin-broadcast",
                seed,
                crate::spec::MicroWorkload::StuckLineBroadcast {
                    n,
                    events,
                    per_event,
                },
            )
        },
        |seed, n| {
            Scenario::micro(
                "fault-stuckpin-broadcast",
                seed,
                crate::spec::MicroWorkload::StuckLineBroadcast {
                    n,
                    events: 6,
                    per_event: (n / 100).max(1),
                },
            )
        },
    );
    r.register_sweepable(
        "fault-unfair-broadcast",
        "non-fair scheduling adversary (starve / alternate / silence) on the blob flood relay",
        true,
        10_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(16..=80usize);
            let events = p.gen_range(3..=8usize);
            let per_event = p.gen_range(1..=(n / 10).max(1));
            Scenario::micro(
                "fault-unfair-broadcast",
                seed,
                crate::spec::MicroWorkload::UnfairBlobFlood {
                    n,
                    events,
                    per_event,
                },
            )
        },
        |seed, n| {
            Scenario::micro(
                "fault-unfair-broadcast",
                seed,
                crate::spec::MicroWorkload::UnfairBlobFlood {
                    n,
                    events: 6,
                    per_event: (n / 100).max(1),
                },
            )
        },
    );
    r.register_sweepable(
        "fault-crashrecover-broadcast",
        "crash-recovery adversary on the blob global circuit (wiped state, rejoin, re-inform)",
        true,
        100_000,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let n = p.gen_range(16..=96usize);
            let events = p.gen_range(3..=8usize);
            let per_event = p.gen_range(1..=(n / 8).max(1));
            Scenario::micro(
                "fault-crashrecover-broadcast",
                seed,
                crate::spec::MicroWorkload::CrashRecoverBroadcast {
                    n,
                    events,
                    per_event,
                },
            )
        },
        |seed, n| {
            Scenario::micro(
                "fault-crashrecover-broadcast",
                seed,
                crate::spec::MicroWorkload::CrashRecoverBroadcast {
                    n,
                    events: 6,
                    per_event: (n / 100).max(1),
                },
            )
        },
    );
    r.register(
        "adversary-selftest-fail",
        "deliberately-broken repair sweep proving the self-stabilization checker trips (never sampled)",
        false,
        |seed| {
            Scenario::micro(
                "adversary-selftest-fail",
                seed,
                crate::spec::MicroWorkload::AdversarySelfTestFail,
            )
        },
    );
    r.register(
        "selftest-fail",
        "always-failing scenario proving the runner's non-zero exit path (never sampled)",
        false,
        |seed| {
            Scenario::micro(
                "selftest-fail",
                seed,
                crate::spec::MicroWorkload::SelfTestFail,
            )
        },
    );
    r.register(
        "random-zigzag-sssp",
        "SSSP on zigzag corridors (deterministic shape, random source)",
        true,
        |seed| {
            let mut p = derive_rng(seed, 90);
            let segments = p.gen_range(3..=8usize);
            let len = p.gen_range(2..=6usize);
            Scenario::structure(
                "random-zigzag-sssp",
                seed,
                StructureSpec::Zigzag { segments, len },
                PlacementSpec::Random {
                    k: 1,
                    strategy: amoebot_grid::Placement::Uniform,
                },
                PlacementSpec::All,
                StructureAlgorithm::Spt,
            )
        },
    );

    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_scenario;

    #[test]
    fn registry_has_experiments_and_random_families() {
        let r = default_registry();
        assert!(r.families().len() >= 20);
        assert!(r.get("e17-forest").is_some());
        assert!(r.get("random-blob-forest").is_some());
        let randomized = r.families().iter().filter(|f| f.randomized).count();
        assert!(randomized >= 6);
    }

    #[test]
    fn family_identity_is_enforced() {
        let r = default_registry();
        for f in r.families() {
            let sc = f.build(5);
            assert_eq!(sc.family, f.name);
        }
    }

    #[test]
    fn random_suite_is_deterministic_and_covers_families() {
        let r = default_registry();
        let a = r.random_suite(42, 16, &[]);
        let b = r.random_suite(42, 16, &[]);
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<&str> =
            a.iter().map(|s| s.family.as_str()).collect();
        assert!(distinct.len() >= 6, "suite covers many families");
        // A different master seed gives a different suite.
        let c = r.random_suite(43, 16, &[]);
        assert_ne!(a, c);
    }

    #[test]
    fn random_suite_scenarios_all_pass() {
        let r = default_registry();
        for sc in r.random_suite(7, 8, &[]) {
            let out = run_scenario(&sc);
            assert!(out.pass, "{} failed: {:?}", sc.name, out.checks);
        }
    }

    #[test]
    fn only_filter_restricts_families() {
        let r = default_registry();
        let suite = r.random_suite(1, 6, &["random-blob-spt".to_string()]);
        assert!(suite.iter().all(|s| s.family == "random-blob-spt"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut r = Registry::new();
        r.register("x", "", false, |_| crate::experiments::e1_pasc_chain(4));
        r.register("x", "", false, |_| crate::experiments::e1_pasc_chain(4));
    }
}
