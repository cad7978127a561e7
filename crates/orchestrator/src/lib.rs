//! # orchestrator — declarative, cached, parallel experiment runs
//!
//! Every figure, table, and ablation in the reproduction is expressed as a
//! cell in a sweep [`manifest`]: one independent unit of simulation work
//! (one utilization point of Figure 1, one Table-1 topology configuration,
//! one PLR σ target, …). Seed-swept cells further split into deterministic
//! per-seed *shards* (`CellSpec::execute_shard` / `merge_shards`), and the
//! [`runner`] executes uncached shards either on worker threads (the
//! experiment crate's work-stealing `parallel_map_on`) or — with
//! `--workers N` — on a farm of separate `propdiff-run worker` processes
//! fed over the stdin/stdout JSONL [`protocol`] by the parent-side pool in
//! [`worker`]. Both paths run the same shard arithmetic and the same
//! seed-order merge, so the merged JSON is byte-identical at any worker
//! count and interleaving.
//!
//! Results land in the on-disk [`cache`] keyed by a content hash of (cell
//! parameters, scale, source [`fingerprint`], schema version); shard-level
//! entries under the same key family make the cache the farm's
//! coordination substrate — exactly-once work, crash-resume, and zero-work
//! warm merges. A warm re-run does zero simulation work.
//!
//! The `propdiff-run` binary fronts this crate: the cached, parallel path
//! (`run`, `render`, `list` subcommands; see its `--help`).
//!
//! The [`render`] module closes the docs loop: measured-number tables in
//! `EXPERIMENTS.md` live between `<!-- generated:NAME -->` markers and are
//! regenerated from cached cell results, so the document cannot silently
//! drift from the code.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cell;
pub mod fingerprint;
pub mod json;
pub mod manifest;
pub mod protocol;
pub mod render;
pub mod runner;
pub mod worker;
