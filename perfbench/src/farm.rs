//! `farm`: the orchestrator end to end. Each iteration runs
//! `propdiff-run run --suite all --bench --workers 2` cold into a private
//! cache, then cached re-runs with `--expect-all-cached` (the path
//! `render --check` and CI take). A cold `--threads 2` pass of the same
//! suite checks that the process farm and the thread pool write the same
//! document and, in traced iterations, prices worker IPC.
//!
//! The suite's seeds are fixed by the manifest, so `--seed` changes
//! nothing here. Set-up is a `--max-cells 0` invocation: process spawn,
//! source fingerprinting and the cache look-ups, with no cell run. A unit
//! is one cached re-run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use experiments::Scale;
use orchestrator::cache::Cache;
use orchestrator::fingerprint::{fnv1a, source_fingerprint};
use orchestrator::json::Json;
use orchestrator::manifest::{self, Manifest};
use orchestrator::protocol::{Job, Reply};

use crate::probes::Digest;
use crate::report::{self, Outcome};
use crate::runloop::{Cfg, Iter, Spans, Workload, MAX_PARALLEL};
use crate::trace::Tracer;

const SUITE: &str = "all";
/// Cached re-runs per iteration.
const WARM_RUNS: usize = 24;
/// `--max-cells 0` invocations per iteration, for the set-up median.
const SETUP_REPEATS: usize = 15;

/// The summary line `propdiff-run run` prints on stderr.
#[derive(Debug, Default, PartialEq)]
struct Summary {
    cells: u64,
    executed: u64,
    shards: u64,
    cached: u64,
    skipped: u64,
}

fn parse_summary(stderr: &str) -> Option<Summary> {
    let line = stderr.lines().find(|l| l.starts_with("suite="))?;
    let field = |key: &str| -> Option<u64> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))?
            .parse()
            .ok()
    };
    Some(Summary {
        cells: field("cells")?,
        executed: field("executed")?,
        shards: field("shards")?,
        cached: field("cached")?,
        skipped: field("skipped")?,
    })
}

/// One `propdiff-run` invocation: wall seconds, exit success, summary and
/// the document it wrote.
struct Pass {
    secs: f64,
    success: bool,
    summary: Option<Summary>,
    doc: String,
}

pub struct Farm {
    exe: PathBuf,
    root: PathBuf,
    manifest: Manifest,
    threads_checked: bool,
    warm_secs: Vec<f64>,
    iteration: usize,
}

impl Farm {
    pub fn new(cfg: &Cfg) -> Result<Farm, String> {
        let exe = cfg
            .propdiff_run
            .clone()
            .ok_or("the farm workload needs --propdiff-run PATH")?;
        if !exe.is_file() {
            return Err(format!("no propdiff-run binary at {}", exe.display()));
        }
        Ok(Farm {
            exe,
            root: std::env::current_dir().map_err(|e| format!("current dir: {e}"))?,
            manifest: manifest::suite(SUITE).expect("the all suite exists"),
            threads_checked: false,
            warm_secs: Vec::new(),
            iteration: 0,
        })
    }

    fn pass(&self, dir: &Path, cache: &Path, name: &str, flags: &[&str]) -> Pass {
        let out = dir.join(format!("{name}.json"));
        let started = Instant::now();
        let result = Command::new(&self.exe)
            .args(["run", "--suite", SUITE, "--bench", "--quiet", "--cache-dir"])
            .arg(cache)
            .arg("--out")
            .arg(&out)
            .arg("--csv-dir")
            .arg(dir.join("csv"))
            .args(flags)
            .env("PROPDIFF_ROOT", &self.root)
            .output();
        let secs = started.elapsed().as_secs_f64();
        let (success, summary) = match &result {
            Ok(o) => (
                o.status.success(),
                parse_summary(&String::from_utf8_lossy(&o.stderr)),
            ),
            Err(_) => (false, None),
        };
        Pass {
            secs,
            success,
            summary,
            doc: std::fs::read_to_string(&out).unwrap_or_default(),
        }
    }

    /// The in-process layers over the cold pass's cache: fingerprinting,
    /// cache loads and stores, JSON and the worker protocol.
    fn layer_replay(
        &self,
        cache_dir: &Path,
        store_dir: &Path,
        doc: &str,
        tracer: &mut Tracer,
        out: &mut Outcome,
        it: &mut Iter,
    ) {
        let scale = Scale::Bench;
        let span = tracer.enter("orchestrator.fingerprint", None);
        let fingerprint = source_fingerprint(&self.root);
        tracer.exit(span);

        let cache = Cache::new(cache_dir, fingerprint);
        let span = tracer.enter("orchestrator.cache.load", None);
        let results: Vec<Option<Json>> = self
            .manifest
            .cells
            .iter()
            .map(|c| cache.load(c, scale))
            .collect();
        tracer.exit(span);
        let misses = results.iter().filter(|r| r.is_none()).count() as u64;
        out.count(results.len() as u64, misses, || {
            format!("farm: {misses} cells missing from the warm cache")
        });
        let results: Vec<Json> = results.into_iter().flatten().collect();
        let cell_files: Vec<PathBuf> = self
            .manifest
            .cells
            .iter()
            .map(|c| cache_dir.join("bench").join(c.id() + ".json"))
            .collect();
        it.counts
            .insert("load_bytes", dir_bytes(&cell_files) as f64);

        let store = Cache::new(store_dir, fingerprint);
        let span = tracer.enter("orchestrator.cache.store", None);
        let mut stored = true;
        for (cell, result) in self.manifest.cells.iter().zip(&results) {
            stored &= store.store(cell, scale, result).is_ok();
            stored &= store.store_shard(cell, scale, 0, 1, result, None).is_ok();
        }
        tracer.exit(span);
        out.check(1, stored, || "farm: a cache store failed".into());
        it.counts
            .insert("store_bytes", tree_bytes(store_dir) as f64);

        let texts: Vec<String> = cell_files
            .iter()
            .filter_map(|p| std::fs::read_to_string(p).ok())
            .chain([doc.to_string()])
            .collect();
        let span = tracer.enter("orchestrator.json.parse", None);
        let parsed: Vec<Result<Json, String>> = texts.iter().map(|t| Json::parse(t)).collect();
        tracer.exit(span);
        let parsed: Vec<Json> = parsed.into_iter().filter_map(Result::ok).collect();
        let span = tracer.enter("orchestrator.json.serialize", None);
        let written: Vec<String> = parsed.iter().map(Json::serialize).collect();
        tracer.exit(span);
        out.check(1, written == texts, || {
            "farm: a cache or result document does not survive parse + serialize".into()
        });

        let span = tracer.enter("orchestrator.protocol", None);
        let mut trips = 0u64;
        let mut intact = true;
        for (i, (cell, result)) in self.manifest.cells.iter().zip(&results).enumerate() {
            let shards = cell.shard_count(scale);
            for shard in 0..shards {
                let job = Job {
                    suite: SUITE.into(),
                    cell: i,
                    id: cell.id(),
                    scale,
                    shard,
                    shards,
                };
                let reply = Reply::Ok {
                    cell: i,
                    shard,
                    partial: result.clone(),
                    registry: None,
                };
                intact &= Job::parse(&job.to_line()).as_ref() == Ok(&job);
                intact &= Reply::parse(&reply.to_line()).as_ref() == Ok(&reply);
                trips += 1;
            }
        }
        tracer.exit(span);
        out.check(1, intact, || {
            "farm: a job or reply does not round-trip".into()
        });
        it.counts.insert("roundtrips", trips as f64);
    }
}

fn dir_bytes(files: &[PathBuf]) -> u64 {
    files
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

impl Workload for Farm {
    const NAME: &'static str = "farm";

    fn iteration(
        &mut self,
        cfg: &Cfg,
        tracer: &mut Tracer,
        out: &mut Outcome,
        corrupt: bool,
    ) -> Iter {
        let traced = tracer.enabled();
        let mut it = Iter::default();
        let dir = cfg.scratch.join(format!("iter{}", self.iteration));
        self.iteration += 1;
        let _ = std::fs::create_dir_all(&dir);
        let cells = self.manifest.cells.len() as u64;
        let workers = MAX_PARALLEL.to_string();

        // Set-up takes milliseconds: run it several times, take the median.
        let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
        for r in 0..SETUP_REPEATS {
            let span = tracer.enter("propdiff-run.setup", Some(r as u64));
            let setup = self.pass(
                &dir,
                &dir.join("cache-setup"),
                "setup",
                &["--max-cells", "0"],
            );
            tracer.exit(span);
            setup_secs.push(setup.secs);
            let skipped = setup.summary.as_ref().map(|s| s.skipped);
            out.check(1, !setup.success && skipped == Some(cells), || {
                format!("farm: the --max-cells 0 pass skipped {skipped:?} of {cells} cells")
            });
        }
        it.setup_s = report::median(&setup_secs);

        let cache = dir.join("cache");
        let span = tracer.enter("propdiff-run.cold_workers", None);
        let mut cold = self.pass(&dir, &cache, "cold", &["--workers", &workers]);
        tracer.exit(span);
        it.wall_s = cold.secs;
        if corrupt {
            cold.doc.push(' ');
        }
        let summary = cold.summary.unwrap_or_default();
        let complete = Json::parse(&cold.doc)
            .ok()
            .and_then(|d| d.get("complete").and_then(Json::as_bool));
        out.check(
            1,
            cold.success && summary.executed == cells && complete == Some(true),
            || {
                format!(
                    "farm: the cold pass executed {} of {cells} cells",
                    summary.executed
                )
            },
        );
        it.digest = Digest(fnv1a(cold.doc.as_bytes()));
        it.counts.insert("shards_executed", summary.shards as f64);

        let mut hit_frac = Vec::new();
        for w in 0..WARM_RUNS {
            let span = tracer.enter("propdiff-run.warm", Some(w as u64));
            let warm = self.pass(
                &dir,
                &cache,
                "warm",
                &["--workers", &workers, "--expect-all-cached"],
            );
            tracer.exit(span);
            let s = warm.summary.unwrap_or_default();
            out.check(
                1,
                warm.success && s.executed == 0 && warm.doc == cold.doc,
                || {
                    format!(
                        "farm: cached re-run {w} executed {} cells; document identical: {}",
                        s.executed,
                        warm.doc == cold.doc
                    )
                },
            );
            hit_frac.push(s.cached as f64 / s.cells.max(1) as f64);
            it.unit_secs.push(warm.secs);
        }
        if !traced {
            self.warm_secs.extend(&it.unit_secs);
        }
        it.counts.insert("warm_hit_frac", report::median(&hit_frac));

        if traced || !self.threads_checked {
            self.threads_checked = true;
            let span = tracer.enter("propdiff-run.cold_threads", None);
            let threads = self.pass(
                &dir,
                &dir.join("cache-threads"),
                "threads",
                &["--threads", &workers],
            );
            tracer.exit(span);
            out.check(1, threads.success && threads.doc == cold.doc, || {
                "farm: the --threads document differs from the --workers one".into()
            });
            it.counts.insert("ipc_s", cold.secs - threads.secs);
        }
        if traced {
            let doc = cold.doc.clone();
            self.layer_replay(&cache, &dir.join("cache-store"), &doc, tracer, out, &mut it);
        }
        let _ = std::fs::remove_dir_all(&dir);
        it
    }

    fn layers(&self, it: &Iter, spans: &Spans) -> Vec<(&'static str, f64)> {
        vec![
            (
                "orchestrator.fingerprint_s",
                spans.total("orchestrator.fingerprint") / 1e9,
            ),
            (
                "orchestrator.cache.load_s",
                spans.total("orchestrator.cache.load") / 1e9,
            ),
            ("orchestrator.cache.load_bytes", it.counts["load_bytes"]),
            (
                "orchestrator.cache.store_s",
                spans.total("orchestrator.cache.store") / 1e9,
            ),
            ("orchestrator.cache.store_bytes", it.counts["store_bytes"]),
            (
                "orchestrator.json.parse_s",
                spans.total("orchestrator.json.parse") / 1e9,
            ),
            (
                "orchestrator.json.serialize_s",
                spans.total("orchestrator.json.serialize") / 1e9,
            ),
            (
                "orchestrator.protocol.ns_per_roundtrip",
                spans.total("orchestrator.protocol") / it.counts["roundtrips"],
            ),
            ("orchestrator.ipc_s", it.counts["ipc_s"]),
            ("orchestrator.shards_executed", it.counts["shards_executed"]),
            ("orchestrator.warm_hit_frac", it.counts["warm_hit_frac"]),
        ]
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::host::children_peak_rss_mb()
    }

    fn extra(&self, out: &mut Outcome) {
        Outcome::push(
            &mut out.extra,
            "warm_s",
            report::median(&self.warm_secs),
            "s",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_parses() {
        let s = parse_summary(
            "suite=all scale=bench cells=111 executed=0 shards=0 cached=111 skipped=0 wall=0.0s\n",
        );
        assert_eq!(
            s,
            Some(Summary {
                cells: 111,
                executed: 0,
                shards: 0,
                cached: 111,
                skipped: 0
            })
        );
        assert_eq!(parse_summary("nothing"), None);
    }
}
