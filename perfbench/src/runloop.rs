//! The loop every workload shares: repeat the fixed work for the run's
//! time budget, check each iteration's outputs against the first, and
//! summarise untraced iterations into end-to-end metrics and traced ones
//! into per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::probes::Digest;
use crate::report::{self, Outcome};
use crate::trace::{gap_frac, Tracer};

/// Worker threads and processes never exceed this.
pub const MAX_PARALLEL: usize = 2;

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one output of the first iteration before it is checked.
    pub corrupt: bool,
    /// Where the workload may write (removed at the end of the run).
    pub scratch: PathBuf,
    pub propdiff_run: Option<PathBuf>,
}

impl Cfg {
    /// Threads the parallel phases use: `nproc`, at most [`MAX_PARALLEL`].
    pub fn threads(&self) -> usize {
        crate::host::nproc().clamp(1, MAX_PARALLEL)
    }
}

/// What one iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Iter {
    /// Host seconds before the first simulated packet.
    pub setup_s: f64,
    /// Host seconds of the whole fixed work, set-up included.
    pub wall_s: f64,
    /// Packet transmissions simulated (0 where they cannot be counted).
    pub hops: u64,
    /// Host seconds of each independent unit of work, in a fixed order.
    pub unit_secs: Vec<f64>,
    /// Digest of every output; equal across the iterations of a run.
    pub digest: Digest,
    /// Workload-specific counts a traced iteration turns into layer
    /// metrics.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Span times of one traced iteration, by span name.
pub struct Spans {
    own: BTreeMap<&'static str, u64>,
    total: BTreeMap<&'static str, u64>,
    calls: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Self time in ns: duration minus the time child spans cover.
    pub fn own(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0) as f64
    }

    /// Total duration in ns.
    pub fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0) as f64
    }

    /// Intervals recorded under `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.calls.get(name).copied().unwrap_or(0) as f64
    }
}

/// A workload: its fixed work, and how a traced iteration's spans and
/// counts become per-layer metrics.
pub trait Workload {
    const NAME: &'static str;

    fn iteration(
        &mut self,
        cfg: &Cfg,
        tracer: &mut Tracer,
        out: &mut Outcome,
        corrupt: bool,
    ) -> Iter;

    fn layers(&self, it: &Iter, spans: &Spans) -> Vec<(&'static str, f64)>;

    /// Memory high-water of the process (or of its children) so far, MB.
    fn peak_rss_mb(&self) -> f64 {
        crate::host::self_peak_rss_mb()
    }

    /// Figures of this workload only, added after the loop.
    fn extra(&self, _out: &mut Outcome) {}
}

/// Runs `w` for the time budget (at least three untraced iterations, or
/// two of each kind when tracing) and summarises it.
pub fn drive<W: Workload>(cfg: &Cfg, w: &mut W) -> Outcome {
    let mut out = Outcome::default();
    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let started = Instant::now();
    let min = if cfg.trace { 4 } else { 3 };
    let (mut walls, mut setups, mut sims, mut rates, mut units) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut traced_walls, mut gaps, mut rows) = (vec![], vec![], vec![]);
    let mut first: Option<u64> = None;
    let mut peak_rss_mb = 0.0;
    let mut i = 0;
    while i < min || started.elapsed().as_secs_f64() < cfg.seconds {
        // A traced run alternates untraced and traced iterations, so the
        // tracing overhead comes from paired samples in one process.
        let is_traced = cfg.trace && i % 2 == 1;
        let t = if is_traced { &mut traced } else { &mut plain };
        let mark = t.mark();
        let root = t.enter("bench.iteration", None);
        let it = w.iteration(cfg, t, &mut out, cfg.corrupt && i == 0);
        t.exit(root);
        if i == 0 {
            // Later iterations only add allocator fragmentation, which
            // grows with the iteration count rather than with the work.
            peak_rss_mb = w.peak_rss_mb();
        }
        let digest = it.digest.0;
        let reference = *first.get_or_insert(digest);
        out.check(1, digest == reference, || {
            format!(
                "{} iteration {i}: output digest {digest:016x} != first {reference:016x}",
                W::NAME
            )
        });
        if is_traced {
            let spans = Spans {
                own: t.self_ns_since(mark),
                total: t.total_ns_since(mark),
                calls: t.calls_since(mark),
            };
            traced_walls.push(it.wall_s);
            gaps.push(gap_frac(&spans.own, spans.total("bench.iteration") as u64));
            rows.push(w.layers(&it, &spans));
        } else {
            walls.push(it.wall_s);
            setups.push(it.setup_s);
            sims.push(it.wall_s - it.setup_s);
            rates.push(it.hops as f64 / (it.wall_s - it.setup_s));
            units.push(it.unit_secs);
        }
        i += 1;
    }
    out.digest = first.expect("at least one iteration");

    let e2e = &mut out.end_to_end;
    Outcome::push(e2e, "wall_s", report::median(&walls), "s");
    Outcome::push(e2e, "setup_s", report::median(&setups), "s");
    Outcome::push(e2e, "sim_s", report::median(&sims), "s");
    Outcome::push(e2e, "peak_rss_mb", peak_rss_mb, "MB");
    debug_assert!(out
        .end_to_end
        .iter()
        .map(|m| &m.name)
        .eq(report::END_TO_END.iter()));
    report::job_metrics(&mut out, &units);
    if rates.iter().all(|&r| r > 0.0) {
        Outcome::push(&mut out.extra, "hops_per_s", report::median(&rates), "1/s");
    }
    Outcome::push(&mut out.extra, "iterations", walls.len() as f64, "count");
    w.extra(&mut out);

    if cfg.trace {
        let mut measured: Vec<(&'static str, f64)> = (0..rows[0].len())
            .map(|k| {
                let column: Vec<f64> = rows.iter().map(|r| r[k].1).collect();
                (rows[0][k].0, report::median(&column))
            })
            .collect();
        let (u, t) = (report::median(&walls), report::median(&traced_walls));
        measured.extend([
            ("trace.overhead_frac", t / u - 1.0),
            ("trace.gap_frac", report::median(&gaps)),
            ("trace.iterations", traced_walls.len() as f64),
            ("trace.spans", traced.mark() as f64),
            ("trace.untraced_wall_s", u),
            ("trace.traced_wall_s", t),
        ]);
        out.set_layers(&measured);
        out.spans_jsonl = traced.to_jsonl();
    }
    out
}

/// A seed for part `salt` of a workload, derived from the run's seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    pdd::netsim::topology::splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed_after_one_iteration<W: Workload>(w: &mut W, corrupt: bool) -> u64 {
        let cfg = Cfg {
            seed: crate::DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            corrupt,
            scratch: std::env::temp_dir().join("perfbench-self-test"),
            propdiff_run: None,
        };
        let mut out = Outcome::default();
        w.iteration(&cfg, &mut Tracer::new(false), &mut out, corrupt);
        assert!(out.attempted > 0);
        out.failed
    }

    /// The self-test behind `failed_frac`: a clean iteration passes every
    /// check and a corrupted output fails one.
    #[test]
    fn corrupted_outputs_raise_failed_frac() {
        use crate::{chain::Chain, fabric::Fabric, single_link::SingleLink};
        assert_eq!(failed_after_one_iteration(&mut SingleLink, false), 0);
        assert!(failed_after_one_iteration(&mut SingleLink, true) > 0);
        assert_eq!(failed_after_one_iteration(&mut Chain, false), 0);
        assert!(failed_after_one_iteration(&mut Chain, true) > 0);
        assert_eq!(failed_after_one_iteration(&mut Fabric::default(), false), 0);
        assert!(failed_after_one_iteration(&mut Fabric::default(), true) > 0);
    }
}
