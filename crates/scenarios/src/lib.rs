//! Scenario engine for the shortest-path-forest reproduction.
//!
//! This crate turns the workspace's experiments from bespoke functions
//! into **data**: a [`Scenario`] describes a structure generator, a
//! source/destination placement, an algorithm under test and its
//! validation checks; the [`registry`] names scenario families (the
//! paper's E1–E20 experiment index plus randomized families over the
//! generators in [`amoebot_grid::random`]); the [`batch`] runner executes
//! scenarios in parallel (each owns its `World`); and every distributed
//! result is **cross-validated against the centralized BFS baselines** of
//! [`amoebot_grid::validate`]. Reports render as deterministic JSON
//! ([`report`]): identical seeds produce byte-identical canonical reports,
//! regardless of thread count.
//!
//! The `scenario-runner` binary is the CLI front end:
//!
//! ```text
//! cargo run --release --bin scenario-runner -- run --seed 42 --count 20
//! ```
//!
//! # Example
//!
//! ```
//! use amoebot_scenarios::batch::{run_batch, Threads};
//! use amoebot_scenarios::registry::default_registry;
//! use amoebot_scenarios::report::BatchReport;
//!
//! let registry = default_registry();
//! let scenarios = registry.random_suite(42, 4, &[]);
//! let results = run_batch(&scenarios, Threads::Count(2));
//! assert!(results.iter().all(|r| r.pass));
//! let report = BatchReport { master_seed: 42, threads: 2, results };
//! assert!(report.canonical_json().contains("\"passed\": 4"));
//! ```

pub mod adversary;
pub mod batch;
pub mod cli;
pub mod experiments;
pub mod flight;
pub mod json;
pub mod record;
pub mod registry;
pub mod report;
pub mod run;
pub mod server;
pub mod spec;
pub mod sweep;

pub use adversary::fault_fail_line;
pub use batch::{run_batch, Threads};
pub use flight::{dump_flight_record, flight_file_name, reproduction_key, ReproKey};
pub use record::{record_scenario, recordable};
pub use registry::{default_registry, Family, Registry};
pub use report::{BatchReport, Envelope};
pub use run::{run_scenario, run_scenario_with, CheckResult, ScenarioResult};
pub use spec::{
    MicroWorkload, PlacementSpec, Scenario, StructureAlgorithm, StructureSpec, Workload,
};
pub use sweep::{
    run_sweep, run_sweep_checkpointed, run_sweep_observed, sweep_suite, CheckpointStore,
    RungOutcome, SweepEntry, SweepPoint, SweepReport, DEFAULT_SIZES, SWEEP_SCHEMA,
};
