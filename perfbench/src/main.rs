//! Benchmark harness for the shortest path forest reproduction.
//!
//! One process runs one workload as a closed loop with a single client:
//! the harness calls the library's public functions directly, one query
//! after another, on one thread. A *query* takes generated inputs already
//! in memory and produces a forest that has been checked against
//! centralized BFS; everything that builds those inputs is set-up.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--passes <n>] [--spans-out <file>] [--fingerprint]
//! ```
//!
//! Each workload is a fixed *pool* of distinct queries generated from the
//! seed. The run makes one full pass over the pool, then keeps cycling
//! through it while the next query is expected to end within `--seconds`
//! (`--passes` fixes the number of passes instead). Every repeated query
//! must reproduce its first run's rounds, beeps, per-phase rounds and
//! parents digest exactly, so round counts are per pass and deterministic
//! in the seed.
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics, whose host times are given relative to a reference
//! kernel timed between queries (see [`reference_kernel`]); with
//! `--trace 1` it carries the per-layer metrics,
//! derived from spans recorded around every public call (kept in memory,
//! written to `--spans-out` when the run ends). The exit code is 0 only
//! if every query validated.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use amoebot_circuits::{RoundReport, Topology, World};
use amoebot_dynamics::{derive_rng, ChurnFamily, ChurnPlan, DynamicWorld};
use amoebot_grid::{
    multi_source_bfs, random_placement, random_structure, validate_forest, AmoebotStructure,
    NodeId, Placement,
};
use amoebot_spf::churn::{remap_terminals, restart_spt, RestartCounter};
use amoebot_spf::forest::dnc::shortest_path_forest;
use amoebot_spf::links::LINKS;
use amoebot_spf::spt::shortest_path_tree;
use rand::RngCore;

/// Amoebots per structure of `forest-blob3k`. Forest query times vary by
/// about 20% between random instances of one size and `k`, so the
/// workload needs many instances per run to be steady: at 10,000
/// amoebots only nine fit in a run.
const FOREST_N: usize = 3_000;
/// Source counts `k` the forest queries cycle through.
const FOREST_KS: [usize; 3] = [2, 4, 8];
/// Structures per `k` in one pass.
const FOREST_POOL: usize = 8;
/// Amoebots per structure of `spt-blob30k`. At 100,000 amoebots only
/// nine queries fit in a run, and their memory-bound slowdowns on a shared
/// host do not track the reference kernel.
const SPT_N: usize = 30_000;
/// Destination counts `ℓ` the SPT queries cycle through (SPSP, SPT,
/// SSSP); `None` means all amoebots.
const SPT_ELLS: [Option<usize>; 3] = [Some(1), Some(8), None];
/// Structures per `ℓ` in one pass.
const SPT_POOL: usize = 6;
/// Churn schedules, each on its own structure, in one pass.
const CHURN_SCHEDULES: usize = 4;
/// Amoebots of each initial `churn-spt-blob10k` structure.
const CHURN_N: usize = 10_000;
/// Churn events per schedule; each is followed by one SPT restart.
const CHURN_EVENTS: usize = 12;
/// Edits requested per event: 1% of the structure.
const CHURN_PER_EVENT: usize = CHURN_N / 100;
/// Destinations of every churn restart.
const CHURN_ELL: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Forest,
    Spt,
    Churn,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Forest, Workload::Spt, Workload::Churn];

    fn name(self) -> &'static str {
        match self {
            Workload::Forest => "forest-blob3k",
            Workload::Spt => "spt-blob30k",
            Workload::Churn => "churn-spt-blob10k",
        }
    }

    /// Set-up repetitions per run; `setup_s` is their median.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Spt => 3,
            Workload::Forest | Workload::Churn => 11,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    passes: Option<usize>,
    spans_out: Option<PathBuf>,
    fingerprint: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut passes = None;
    let mut spans_out = None;
    let mut fingerprint = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--fingerprint" {
            fingerprint = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--passes" => {
                let c = value.parse::<usize>().map_err(|_| bad("not a count"))?;
                if c == 0 {
                    return Err(bad("must be at least 1"));
                }
                passes = Some(c);
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        passes,
        spans_out,
        fingerprint,
    })
}

// ---------------------------------------------------------------------------
// Spans

/// One timed call. Times are seconds since the tracer started.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    query: Option<u32>,
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs its body.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: Option<u32>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: None,
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return body(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            query: self.query,
        });
        self.open.push(id);
        let out = body(self);
        self.close_to(self.open.len() - 1);
        out
    }

    /// Closes every open span above `depth` (a panic skips the normal
    /// close, so the query loop calls this after catching one).
    fn close_to(&mut self, depth: usize) {
        let now = self.now();
        while self.open.len() > depth {
            let id = self.open.pop().expect("open span below depth");
            self.spans[id].end = now;
        }
    }

    fn write(&self, path: &PathBuf) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{},\"query\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.query.map(u64::from)),
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Per-query totals of each span name, over the traced queries.
    fn per_query(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut sums: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(q) = s.query {
                *sums.entry((s.name, q)).or_default() += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), t) in sums {
            out.entry(name).or_default().push(t);
        }
        out
    }

    /// Durations of the set-up spans named `name`, summed per enclosing
    /// top-level span (one set-up repetition each).
    fn per_setup(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.query.is_none())
        {
            let mut top = s.parent;
            while let Some(p) = top.and_then(|p| self.spans[p].parent) {
                top = Some(p);
            }
            *sums.entry(top.unwrap_or(usize::MAX)).or_default() += s.end - s.start;
        }
        sums.into_values().collect()
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Inputs

/// A fixed structure with its terminal sets.
struct Instance {
    structure: AmoebotStructure,
    sources: Vec<NodeId>,
    dests: Vec<NodeId>,
}

/// The churn workload's starting point: the initial structure inside its
/// dynamic world, the schedule, and terminals in the editor's id space.
#[derive(Clone)]
struct ChurnStart {
    world: DynamicWorld,
    plan: ChurnPlan,
    source: NodeId,
    dests: Vec<NodeId>,
}

enum Inputs {
    Fixed(Vec<Instance>),
    Churn(Vec<ChurnStart>),
}

impl Inputs {
    /// A digest of the generated instances (structures and terminals), so
    /// two seeds can be shown to produce different inputs.
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Inputs::Fixed(list) => {
                for i in list {
                    digest_structure(&mut h, &i.structure);
                    i.sources
                        .iter()
                        .chain(&i.dests)
                        .for_each(|v| h.u64(v.0.into()));
                }
            }
            Inputs::Churn(starts) => {
                for c in starts {
                    let (s, _) = c.world.editor().snapshot();
                    digest_structure(&mut h, &s);
                    h.u64(c.plan.seed);
                    std::iter::once(&c.source)
                        .chain(&c.dests)
                        .for_each(|v| h.u64(v.0.into()));
                }
            }
        }
        h.0
    }
}

fn digest_structure(h: &mut Fnv, s: &AmoebotStructure) {
    for v in s.nodes() {
        let c = s.coord(v);
        h.u64(c.q as u64);
        h.u64(c.r as u64);
    }
}

/// Builds one structure from `rng`, with spans around each layer call.
fn blob(t: &mut Tracer, n: usize, rng: &mut rand::rngs::StdRng) -> AmoebotStructure {
    let coords = t.span("grid.random", |_| random_structure(n, rng));
    t.span("grid.structure", |_| AmoebotStructure::new(coords))
        .expect("random blobs are connected")
}

fn place(
    t: &mut Tracer,
    s: &AmoebotStructure,
    k: usize,
    rng: &mut rand::rngs::StdRng,
) -> Vec<NodeId> {
    t.span("grid.placement", |_| {
        random_placement(s, k, Placement::Uniform, rng)
    })
}

/// Generates the workload's inputs from the seed, every structure from
/// its own seed-derived random stream.
fn setup(t: &mut Tracer, w: Workload, seed: u64) -> Inputs {
    let fixed = |t: &mut Tracer, i: usize, n: usize, k: usize, ell: Option<usize>| {
        let mut rng = derive_rng(seed, i as u64);
        let structure = blob(t, n, &mut rng);
        let sources = place(t, &structure, k, &mut rng);
        let dests = match ell {
            Some(l) => place(t, &structure, l, &mut rng),
            None => structure.nodes().collect(),
        };
        Instance {
            structure,
            sources,
            dests,
        }
    };
    t.span("setup", |t| match w {
        Workload::Forest => Inputs::Fixed(
            (0..FOREST_POOL * FOREST_KS.len())
                .map(|i| fixed(t, i, FOREST_N, FOREST_KS[i % FOREST_KS.len()], None))
                .collect(),
        ),
        Workload::Spt => Inputs::Fixed(
            (0..SPT_POOL * SPT_ELLS.len())
                .map(|i| fixed(t, i, SPT_N, 1, SPT_ELLS[i % SPT_ELLS.len()]))
                .collect(),
        ),
        Workload::Churn => Inputs::Churn(
            (0..CHURN_SCHEDULES)
                .map(|i| {
                    let mut rng = derive_rng(seed, i as u64);
                    let structure = blob(t, CHURN_N, &mut rng);
                    let source = place(t, &structure, 1, &mut rng)[0];
                    let dests = place(t, &structure, CHURN_ELL, &mut rng);
                    let plan = ChurnPlan::new(
                        rng.next_u64(),
                        ChurnFamily::GrowShrink,
                        CHURN_EVENTS,
                        CHURN_PER_EVENT,
                    );
                    let world = t.span("dynamics.world_new", |_| DynamicWorld::new(&structure, 1));
                    ChurnStart {
                        world,
                        plan,
                        source,
                        dests,
                    }
                })
                .collect(),
        ),
    })
}

// ---------------------------------------------------------------------------
// Queries

/// What one query's algorithm call reported, for metrics and the
/// determinism fingerprint.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Outcome {
    n: usize,
    rounds: u64,
    beeps: u64,
    phases: Vec<(String, u64)>,
    parents_digest: u64,
    /// Edits applied before the query (churn only).
    edits: usize,
}

/// One query's result: `None` outcome if it panicked.
struct QueryResult {
    seconds: f64,
    outcome: Option<Outcome>,
    violations: usize,
}

impl QueryResult {
    fn ok(&self) -> bool {
        self.outcome.is_some() && self.violations == 0
    }
}

fn outcome(
    n: usize,
    parents: &[Option<NodeId>],
    rounds: u64,
    beeps: u64,
    report: &RoundReport,
    edits: usize,
) -> Outcome {
    let mut h = Fnv::new();
    for p in parents {
        h.u64(p.map_or(u64::MAX, |p| p.0.into()));
    }
    Outcome {
        n,
        rounds,
        beeps,
        phases: report.phases().to_vec(),
        parents_digest: h.0,
        edits,
    }
}

/// Checks a forest the way the scenario runner does: `validate_forest`
/// (all five forest properties) plus explicit agreement of every covered
/// amoebot's tree depth with its multi-source BFS distance. Returns the
/// number of violations found.
fn check(
    t: &mut Tracer,
    s: &AmoebotStructure,
    sources: &[NodeId],
    dests: &[NodeId],
    parents: &[Option<NodeId>],
) -> usize {
    let violations = t.span("grid.validate", |_| {
        validate_forest(s, sources, dests, parents).len()
    });
    let (dist, _) = t.span("grid.bfs", |_| multi_source_bfs(s, sources));
    t.span("check.depths", |_| {
        violations + depth_mismatches(s, sources, parents, &dist)
    })
}

/// Covered amoebots whose depth in `parents` differs from `dist`. Depths
/// come from a BFS down the parent edges from every parentless covered
/// amoebot, so an amoebot on or below a cycle gets none and counts.
fn depth_mismatches(
    s: &AmoebotStructure,
    sources: &[NodeId],
    parents: &[Option<NodeId>],
    dist: &[Option<u32>],
) -> usize {
    let n = s.len();
    let mut covered: Vec<bool> = parents.iter().map(Option::is_some).collect();
    for v in sources {
        covered[v.index()] = true;
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let mut queue = VecDeque::new();
    for v in 0..n {
        match parents[v] {
            Some(p) => children[p.index()].push(v),
            None if covered[v] => {
                depth[v] = Some(0);
                queue.push_back(v);
            }
            None => {}
        }
    }
    while let Some(v) = queue.pop_front() {
        for &c in &children[v] {
            depth[c] = depth[v].map(|d| d + 1);
            queue.push_back(c);
        }
    }
    (0..n)
        .filter(|&v| covered[v] && depth[v] != dist[v])
        .count()
}

/// Runs one query on a fixed instance.
fn fixed_query(t: &mut Tracer, w: Workload, i: &Instance) -> (Outcome, usize) {
    let s = &i.structure;
    let (parents, o) = if w == Workload::Forest {
        let out = t.span("core.forest", |_| {
            shortest_path_forest(s, &i.sources, &i.dests)
        });
        let o = outcome(s.len(), &out.parents, out.rounds, out.beeps, &out.report, 0);
        (out.parents, o)
    } else {
        let out = t.span("core.spt", |_| {
            shortest_path_tree(s, i.sources[0], &i.dests)
        });
        let o = outcome(s.len(), &out.parents, out.rounds, out.beeps, &out.report, 0);
        (out.parents, o)
    };
    let violations = check(t, s, &i.sources, &i.dests, &parents);
    (o, violations)
}

/// Runs churn event `e` on `dw`, then restarts the SPT on the new
/// structure and checks it.
fn churn_query(
    t: &mut Tracer,
    dw: &mut DynamicWorld,
    start: &ChurnStart,
    e: usize,
) -> (Outcome, usize) {
    let (edits, holes_ok) = t.span("dynamics.plan_apply", |_| {
        let applied = start.plan.apply(dw, e);
        let ok = dw.revalidate_edited_chunks();
        (applied.inserted.len() + applied.removed.len(), ok)
    });
    let (snapshot, map) = t.span("grid.editor_snapshot", |_| dw.editor().snapshot());
    let source = map[start.source.index()];
    let dests = remap_terminals(&map, &start.dests);
    let mut counter = RestartCounter::default();
    let r = t.span("core.spt", |_| {
        restart_spt(&snapshot, source, &dests, &mut counter)
    });
    let out = &r.outcome;
    let o = outcome(
        snapshot.len(),
        &out.parents,
        out.rounds,
        out.beeps,
        &out.report,
        edits,
    );
    let violations = check(t, &snapshot, &[r.source], &r.dests, &out.parents);
    (o, violations + usize::from(!holes_ok))
}

/// Runs the pool's queries in order, one at a time, wrapping around at
/// the end of the pool. A churn schedule advances a working copy of its
/// start world, taken (untimed) before its first event.
struct Runner<'a> {
    w: Workload,
    inputs: &'a Inputs,
    churn_world: Option<DynamicWorld>,
}

impl Runner<'_> {
    /// Queries in one pass over the pool.
    fn pool(&self) -> usize {
        match self.inputs {
            Inputs::Fixed(list) => list.len(),
            Inputs::Churn(starts) => starts.len() * CHURN_EVENTS,
        }
    }

    /// Runs query number `id` of the run, timing it and catching a panic.
    fn run(&mut self, t: &mut Tracer, id: usize) -> QueryResult {
        let p = id % self.pool();
        if let Inputs::Churn(starts) = self.inputs {
            if p.is_multiple_of(CHURN_EVENTS) {
                self.churn_world = Some(starts[p / CHURN_EVENTS].world.clone());
            }
        }
        t.query = Some(id as u32);
        let depth = t.open.len();
        let start = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            t.span("query", |t| match self.inputs {
                Inputs::Fixed(list) => fixed_query(t, self.w, &list[p]),
                Inputs::Churn(starts) => {
                    let dw = self.churn_world.as_mut().expect("schedule started");
                    churn_query(t, dw, &starts[p / CHURN_EVENTS], p % CHURN_EVENTS)
                }
            })
        }));
        let seconds = start.elapsed().as_secs_f64();
        t.close_to(depth);
        t.query = None;
        match r {
            Ok((o, violations)) => QueryResult {
                seconds,
                outcome: Some(o),
                violations,
            },
            Err(_) => QueryResult {
                seconds,
                outcome: None,
                violations: 0,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics

/// Share of each query's time spent after it on the reference kernel.
const REFERENCE_SHARE: f64 = 0.05;

/// A fixed CPU-and-cache-bound kernel of the benchmark's own (sorting
/// 300,000 pseudo-random words, about 2.4 MB), timed between queries. The
/// host this benchmark runs on is shared, and its speed drifts by 20% and
/// more over minutes; the kernel's time tracks that drift closely, while
/// no change to the library can move it. Dividing query times by its
/// median turns them into steady, host-independent ratios.
fn reference_kernel() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut words: Vec<u64> = (0..300_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    std::hint::black_box(&mut words).sort_unstable();
    std::hint::black_box(&words);
    start.elapsed().as_secs_f64()
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Maps a `RoundReport` phase name to its per-lemma metric.
fn phase_metric(phase: &str) -> &'static str {
    const PREFIXES: [(&str, &str); 9] = [
        ("compute Q'", "core.rounds.q_prime"),
        ("divide into regions", "core.rounds.divide"),
        ("elect and root", "core.rounds.elect_root"),
        ("base case", "core.rounds.base_case"),
        ("portal centroid decomposition", "core.rounds.decomposition"),
        ("merge level", "core.rounds.merge"),
        ("destination pruning", "core.rounds.prune"),
        ("portal root-and-prune", "core.rounds.portal_rp"),
        ("final root-and-prune", "core.rounds.cleanup"),
    ];
    PREFIXES
        .iter()
        .find(|(p, _)| phase.starts_with(p))
        .map_or("core.rounds.other", |&(_, m)| m)
}

/// Ordered `name -> (value, unit)` metrics for the result line.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust prints (finite values only).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut tracer = Tracer::new(args.trace);

    // Set-up, repeated; the first repetition's inputs are kept.
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..w.setup_reps() {
        let start = Instant::now();
        let built = setup(&mut tracer, w, args.seed);
        setup_times.push(start.elapsed().as_secs_f64());
        inputs.get_or_insert(built);
    }
    let inputs = inputs.expect("at least one set-up repetition");
    if args.trace {
        // World construction as its own call, once per structure (churn
        // pays it on every restart, the fixed workloads once per query).
        let list: Vec<AmoebotStructure> = match &inputs {
            Inputs::Fixed(list) => list.iter().map(|i| i.structure.clone()).collect(),
            Inputs::Churn(starts) => starts
                .iter()
                .map(|c| c.world.editor().snapshot().0)
                .collect(),
        };
        for s in &list {
            let world = tracer.span("circuits.world_new", |_| {
                World::new(Topology::from_structure(s), LINKS)
            });
            drop(std::hint::black_box(world));
        }
    }

    // Measured closed loop: at least one full pass over the pool, then
    // further queries while the next is expected to end within the
    // budget. A traced run alternates untraced and traced passes, and
    // stops only between passes after at least two, so both sides cover
    // the same queries and the tracing overhead is measured in-process.
    let mut runner = Runner {
        w,
        inputs: &inputs,
        churn_world: None,
    };
    let pool = runner.pool();
    let loop_start = Instant::now();
    let mut all: Vec<QueryResult> = Vec::new();
    let mut reference: Vec<f64> = Vec::new();
    let mut nondeterministic = 0usize;
    loop {
        let n = all.len();
        let spent = loop_start.elapsed().as_secs_f64();
        let over = n > 0 && spent + spent / n as f64 > args.seconds;
        let done = match args.passes {
            Some(c) => n >= c.max(1 + usize::from(args.trace)) * pool,
            None if args.trace => n >= 2 * pool && n.is_multiple_of(pool) && over,
            None => n >= pool && over,
        };
        if done {
            break;
        }
        tracer.on = args.trace && (n / pool) % 2 == 1;
        let r = runner.run(&mut tracer, n);
        tracer.on = false;
        let slice = Instant::now();
        loop {
            reference.push(reference_kernel());
            if slice.elapsed().as_secs_f64() >= REFERENCE_SHARE * r.seconds {
                break;
            }
        }
        if n >= pool && r.outcome != all[n % pool].outcome {
            nondeterministic += 1;
        }
        all.push(r);
    }
    let times_where = |traced: bool| -> Vec<f64> {
        (0..all.len())
            .filter(|n| ((n / pool) % 2 == 1) == traced)
            .map(|n| all[n].seconds)
            .collect()
    };
    let (traced, plain) = (times_where(true), times_where(false));
    let passes = all.len() as f64 / pool as f64;

    let attempted = all.len();
    let failed = all.iter().filter(|r| !r.ok()).count() + nondeterministic;
    let failed = failed.min(attempted);
    let correct = failed == 0;
    let first: Vec<Outcome> = all[..pool]
        .iter()
        .filter_map(|r| r.outcome.clone())
        .collect();
    // Each distinct query weighs the same however often the run repeated
    // it, so a partial last pass does not shift the mix of query kinds:
    // a query's time is its median over its repeats, and a typical pass
    // takes the sum of those.
    let repeats = |p: usize| all.iter().skip(p).step_by(pool);
    let query_times: Vec<f64> = (0..pool)
        .map(|p| median(&repeats(p).map(|r| r.seconds).collect::<Vec<_>>()))
        .collect();
    let pass_s: f64 = query_times.iter().sum();
    let covered: usize = (0..pool)
        .filter(|&p| repeats(p).all(QueryResult::ok))
        .map(|p| all[p].outcome.as_ref().map_or(0, |o| o.n))
        .sum();
    let rounds: u64 = first.iter().map(|o| o.rounds).sum();

    if args.fingerprint {
        let per_query: Vec<String> = first
            .iter()
            .map(|o| {
                let phases: Vec<String> =
                    o.phases.iter().map(|(p, r)| format!("{p:?}:{r}")).collect();
                format!(
                    "{{\"rounds\":{},\"beeps\":{},\"phases\":{{{}}},\"parents\":\"{:016x}\"}}",
                    o.rounds,
                    o.beeps,
                    phases.join(","),
                    o.parents_digest
                )
            })
            .collect();
        println!(
            "fingerprint {{\"inputs\":\"{:016x}\",\"queries\":[{}]}}",
            inputs.digest(),
            per_query.join(",")
        );
    }

    let mut m = Metrics::default();
    let ref_s = median(&reference);
    if !args.trace {
        let p50 = median(&query_times);
        // The typical query of a pool mixing query kinds: unlike the
        // median, which follows the few instances of the middle kind, the
        // geometric mean draws on every distinct query of the pool.
        let gmean =
            (query_times.iter().map(|t| t.ln()).sum::<f64>() / query_times.len() as f64).exp();
        let nodes_per_s = covered as f64 / pass_s;
        let rss = peak_rss_mb();
        println!(
            "{}: seed {} — {} queries ({:.2} passes over {}), {} failed",
            w.name(),
            args.seed,
            attempted,
            passes,
            pool,
            failed
        );
        println!("  query_p50_s    {p50:.4} s ({pool} queries, n={attempted})");
        println!("  query_gmean_s  {gmean:.4} s");
        println!("  nodes_per_s    {nodes_per_s:.1} nodes/s");
        println!(
            "  setup_s        {:.4} s (median of {})",
            median(&setup_times),
            setup_times.len()
        );
        println!("  rounds         {rounds} rounds (per pass)");
        println!("  fail_ratio     {:.4}", failed as f64 / attempted as f64);
        println!("  peak_rss_mb    {rss:.1} MB");
        println!(
            "  reference      {ref_s:.5} s (median of {} kernel runs)",
            reference.len()
        );
        println!("  query_gmean_ref {:.2} ref", gmean / ref_s);
        println!("  nodes_per_ref  {:.2} nodes/ref", nodes_per_s * ref_s);
        m.put("query_gmean_ref", gmean / ref_s, "ref");
        m.put("nodes_per_ref", nodes_per_s * ref_s, "nodes/ref");
        m.put("setup_s", median(&setup_times), "s");
        m.put("rounds", rounds as f64, "rounds");
        m.put(
            "ok_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
        m.put("peak_rss_mb", rss, "MB");
    } else {
        let per_query = tracer.per_query();
        let q = |name: &str| per_query.get(name).map_or(0.0, |v| median(v));
        let setup_med = |name: &str| median(&tracer.per_setup(name));
        let mut phase_rounds: BTreeMap<&'static str, u64> = BTreeMap::new();
        for o in &first {
            for (p, r) in &o.phases {
                *phase_rounds.entry(phase_metric(p)).or_default() += r;
            }
        }
        let reported: u64 = first.iter().flat_map(|o| &o.phases).map(|(_, r)| r).sum();
        let edits: usize = first.iter().map(|o| o.edits).sum();
        let requested = match &inputs {
            Inputs::Churn(starts) => starts
                .iter()
                .map(|c| c.plan.events * c.plan.per_event)
                .sum(),
            Inputs::Fixed(_) => 0,
        };
        m.put("grid.random_s", setup_med("grid.random"), "s");
        m.put("grid.placement_s", setup_med("grid.placement"), "s");
        m.put("grid.structure_s", setup_med("grid.structure"), "s");
        m.put(
            "circuits.world_new_s",
            median(&tracer.durations("circuits.world_new")),
            "s",
        );
        m.put("core.forest_s", q("core.forest"), "s");
        m.put("core.spt_s", q("core.spt"), "s");
        m.put("core.calls", first.len() as f64, "count");
        m.put(
            "core.beeps",
            first.iter().map(|o| o.beeps).sum::<u64>() as f64,
            "count",
        );
        for name in [
            "core.rounds.q_prime",
            "core.rounds.divide",
            "core.rounds.elect_root",
            "core.rounds.base_case",
            "core.rounds.decomposition",
            "core.rounds.merge",
            "core.rounds.prune",
            "core.rounds.portal_rp",
            "core.rounds.cleanup",
            "core.rounds.other",
        ] {
            m.put(
                name,
                phase_rounds.get(name).copied().unwrap_or(0) as f64,
                "rounds",
            );
        }
        m.put(
            "core.rounds.unattributed",
            (rounds - reported.min(rounds)) as f64,
            "rounds",
        );
        m.put("grid.validate_s", q("grid.validate"), "s");
        m.put("grid.bfs_s", q("grid.bfs"), "s");
        m.put(
            "grid.violations",
            all.iter().map(|r| r.violations).sum::<usize>() as f64,
            "count",
        );
        m.put("dynamics.plan_apply_s", q("dynamics.plan_apply"), "s");
        m.put("dynamics.edits", edits as f64, "count");
        m.put(
            "dynamics.fill_ratio",
            if requested == 0 {
                0.0
            } else {
                edits as f64 / requested as f64
            },
            "ratio",
        );
        m.put("grid.editor_snapshot_s", q("grid.editor_snapshot"), "s");
        m.put("trace.overhead_s", median(&traced) - median(&plain), "s");
        m.put("host.reference_s", ref_s, "s");
        for (name, value, unit) in &m.0 {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
        if let Some(path) = &args.spans_out {
            if let Err(e) = tracer.write(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    std::io::stdout().flush().expect("stdout is writable");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
