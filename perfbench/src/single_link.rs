//! `single-link`: Study A (§5, Fig. 1). Pareto(1.9) arrivals with the
//! paper's trimodal sizes, four classes, on the Fig.-1 utilisation ladder,
//! through WTP, BPR, PAD, HPD and PIFO(WTP) on one link. At every load
//! [`SEEDS`] seeds replay materialised traces (`Experiment::trace_for_seed`
//! → `Session::trace(..).run`) and as many stream their sources
//! (`Session::sources(..).run_metered`).
//!
//! Set-up builds the traces (the input of the trace half); the streaming
//! half generates its arrivals inside the simulation phase. A unit is one
//! (load, seed, scheduler) run plus its per-class reduction.

use std::time::Instant;

use experiments::fig1::UTILIZATIONS;
use pdd::qsim::{Departure, Experiment, Session};
use pdd::sched::{RankKind, Scheduler, SchedulerKind, SchedulerVisitor, Sdp};
use pdd::simcore::Time;
use pdd::stats::{successive_ratios, Summary};
use pdd::traffic::{ClassSource, LoadPlan, MergedStream, SizeDist, Trace};

use crate::probes::{Digest, Timed};
use crate::report::Outcome;
use crate::runloop::{derive_seed, Cfg, Iter, Spans, Workload};
use crate::trace::Tracer;

/// The schedulers under test and their metric names.
const KINDS: [(SchedulerKind, &str, &str); 5] = [
    (SchedulerKind::Wtp, "sched.wtp", "sched.wtp.ns_per_decision"),
    (SchedulerKind::Bpr, "sched.bpr", "sched.bpr.ns_per_decision"),
    (SchedulerKind::Pad, "sched.pad", "sched.pad.ns_per_decision"),
    (SchedulerKind::Hpd, "sched.hpd", "sched.hpd.ns_per_decision"),
    (
        SchedulerKind::Pifo(RankKind::Wtp),
        "sched.pifo_wtp",
        "sched.pifo_wtp.ns_per_decision",
    ),
];

const WTP: usize = 0;
const PIFO_WTP: usize = 4;

/// Simulated horizon of every unit, in mean packet transmission times.
const PUNITS: u64 = 10_000;
/// Seeds per load point in each half (trace and streaming).
const SEEDS: usize = 4;
const CLASS_FRACTIONS: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

/// One load point's inputs.
struct Point {
    exp: Experiment,
    sources: Vec<ClassSource>,
    trace: Trace,
    trace_arrivals: Vec<u64>,
    stream_seed: u64,
}

enum Input<'a> {
    Trace(&'a Trace),
    /// Streamed, with the metrics registry attached (the workload's call).
    Metered(&'a Point),
    /// Streamed without the registry (traced iterations only, to price it).
    Plain(&'a Point),
}

/// What one replay produced.
struct Replay {
    departures: Vec<u64>,
    digest: Digest,
    /// Per-class arrivals and departures seen by the registry.
    registry: Option<(Vec<u64>, Vec<u64>)>,
    sched_ns: u64,
    decisions: u64,
}

/// Runs one replay; visited once per scheduler type, so the loop is
/// monomorphised exactly as `Experiment::run` monomorphises it.
struct Run<'a> {
    input: Input<'a>,
    warmup: Time,
    timed: bool,
    waits: &'a mut Vec<(u8, u64)>,
}

impl SchedulerVisitor for Run<'_> {
    type Out = Replay;

    fn visit<S: Scheduler>(self, scheduler: S) -> Replay {
        if self.timed {
            let mut timed = Timed::new(scheduler);
            let mut out = self.replay(&mut timed);
            out.sched_ns = timed.ns;
            out.decisions = timed.decisions;
            out
        } else {
            let mut scheduler = scheduler;
            self.replay(&mut scheduler)
        }
    }
}

impl Run<'_> {
    fn replay<S: Scheduler>(self, scheduler: &mut S) -> Replay {
        let nc = scheduler.num_classes();
        let mut departures = vec![0u64; nc];
        let mut digest = Digest::default();
        let warmup = self.warmup;
        let waits = self.waits;
        waits.clear();
        let on_depart = |d: &Departure| {
            departures[d.packet.class as usize] += 1;
            digest.add(d.packet.seq);
            digest.add(d.finish.ticks());
            if d.start >= warmup {
                waits.push((d.packet.class, d.wait().ticks()));
            }
        };
        let horizon = |p: &Point| Time::from_ticks(p.exp.horizon_ticks);
        let registry = match self.input {
            Input::Trace(trace) => {
                Session::trace(trace, 1.0).run(scheduler, on_depart);
                None
            }
            Input::Metered(p) => {
                let reg = Session::sources(&p.sources, horizon(p), p.stream_seed, 1.0)
                    .run_metered(scheduler, on_depart);
                Some((
                    (0..nc).map(|c| reg.class_total(c).arrivals).collect(),
                    (0..nc).map(|c| reg.class_total(c).departures).collect(),
                ))
            }
            Input::Plain(p) => {
                Session::sources(&p.sources, horizon(p), p.stream_seed, 1.0)
                    .run(scheduler, on_depart);
                None
            }
        };
        Replay {
            departures,
            digest,
            registry,
            sched_ns: 0,
            decisions: 0,
        }
    }
}

/// The per-class reduction of one unit's post-warm-up waits: mean wait
/// per class and the successive-class ratios (the Fig.-1 quantities).
fn reduce(waits: &[(u8, u64)], nc: usize) -> (Vec<f64>, Vec<f64>) {
    let mut per_class = vec![Summary::new(); nc];
    for &(c, w) in waits {
        per_class[c as usize].push(w as f64);
    }
    let means: Vec<Option<f64>> = per_class
        .iter()
        .map(|s| (s.count() > 0).then(|| s.mean()))
        .collect();
    let ratios = successive_ratios(&means);
    (means.iter().map(|m| m.unwrap_or(0.0)).collect(), ratios)
}

/// Builds every (load, seed) point; the traces are generated here (input
/// building).
fn setup(cfg: &Cfg, tracer: &mut Tracer) -> Vec<Point> {
    let mut points = Vec::with_capacity(UTILIZATIONS.len() * SEEDS);
    for &rho in &UTILIZATIONS {
        let sources = LoadPlan::new(1.0, rho, &CLASS_FRACTIONS, SizeDist::paper())
            .and_then(|plan| plan.pareto_sources())
            .expect("the paper's load plan is valid");
        for _ in 0..SEEDS {
            let i = points.len() as u64;
            let exp = Experiment::paper(rho, Sdp::paper_default(), PUNITS, Vec::new());
            let span = tracer.enter("traffic.trace_for_seed", Some(i));
            let trace = exp.trace_for_seed(derive_seed(cfg.seed, 2 * i));
            tracer.exit(span);
            let mut trace_arrivals = vec![0u64; CLASS_FRACTIONS.len()];
            for e in trace.entries() {
                trace_arrivals[e.class as usize] += 1;
            }
            points.push(Point {
                exp,
                sources: sources.clone(),
                trace,
                trace_arrivals,
                stream_seed: derive_seed(cfg.seed, 2 * i + 1),
            });
        }
    }
    points
}

pub struct SingleLink;

impl Workload for SingleLink {
    const NAME: &'static str = "single-link";

    fn iteration(
        &mut self,
        cfg: &Cfg,
        tracer: &mut Tracer,
        out: &mut Outcome,
        corrupt: bool,
    ) -> Iter {
        iteration(cfg, tracer, out, corrupt)
    }

    fn layers(&self, it: &Iter, spans: &Spans) -> Vec<(&'static str, f64)> {
        layers(it, spans)
    }
}

/// Per-iteration counts the traced layer metrics divide by.
#[derive(Default)]
struct Counts {
    trace_pkts: u64,
    stream_pkts: u64,
    stream_drawn: u64,
    decisions: u64,
}

fn iteration(cfg: &Cfg, tracer: &mut Tracer, out: &mut Outcome, corrupt: bool) -> Iter {
    let traced = tracer.enabled();
    let mut it = Iter::default();
    let mut n = Counts::default();
    let started = Instant::now();
    let setup_span = tracer.enter("bench.setup", None);
    let points = setup(cfg, tracer);
    tracer.exit(setup_span);
    it.setup_s = started.elapsed().as_secs_f64();
    let mut waits = Vec::new();
    let mut unit = 0u64;
    let mut pair_digests = Vec::new();
    let mut extra_secs = 0.0;
    for p in &points {
        let warmup = Time::from_ticks(p.exp.warmup_ticks);
        let nc = p.exp.sdp.num_classes();
        for (mode, name) in [(0, "qsim.trace"), (1, "qsim.stream")] {
            let mut digests = Vec::with_capacity(KINDS.len());
            for &(kind, sched_name, _) in &KINDS {
                let t0 = Instant::now();
                let input = if mode == 0 {
                    Input::Trace(&p.trace)
                } else {
                    Input::Metered(p)
                };
                let span = tracer.enter(name, Some(unit));
                let mut r = kind.build_and_visit(
                    &p.exp.sdp,
                    1.0,
                    Run {
                        input,
                        warmup,
                        timed: traced,
                        waits: &mut waits,
                    },
                );
                tracer.aggregate(sched_name, Some(unit), r.sched_ns, r.decisions);
                tracer.exit(span);
                let span = tracer.enter("stats.accum", Some(unit));
                let (means, ratios) = reduce(&waits, nc);
                tracer.exit(span);
                it.unit_secs.push(t0.elapsed().as_secs_f64());
                n.decisions += r.decisions;

                if corrupt && unit == 0 {
                    r.departures[0] -= 1;
                }
                let arrivals = r.registry.as_ref().map_or(&p.trace_arrivals, |(a, _)| a);
                let mut ok = r.departures == *arrivals;
                if let Some((_, reg_departures)) = &r.registry {
                    ok &= *reg_departures == r.departures;
                }
                ok &= means
                    .iter()
                    .chain(&ratios)
                    .all(|x| x.is_finite() && *x >= 0.0);
                out.check(1, ok, || {
                    format!(
                        "single-link unit {unit} ({}, {}): departures {:?} vs arrivals {:?}",
                        kind.name(),
                        if mode == 0 { "trace" } else { "stream" },
                        r.departures,
                        arrivals
                    )
                });
                let total: u64 = r.departures.iter().sum();
                it.hops += total;
                if mode == 0 {
                    n.trace_pkts += total;
                } else {
                    n.stream_pkts += total;
                }
                digests.push(r.digest.0);
                it.digest.add(r.digest.0);
                means
                    .iter()
                    .chain(&ratios)
                    .for_each(|&x| it.digest.add_f64(x));

                if traced && mode == 1 {
                    let extra_started = Instant::now();
                    // Price the registry: the same inputs without it.
                    let span = tracer.enter("qsim.stream_unmetered", Some(unit));
                    let r = kind.build_and_visit(
                        &p.exp.sdp,
                        1.0,
                        Run {
                            input: Input::Plain(p),
                            warmup,
                            timed: true,
                            waits: &mut waits,
                        },
                    );
                    tracer.aggregate(sched_name, Some(unit), r.sched_ns, r.decisions);
                    tracer.exit(span);
                    // Price the draws: the same stream, generated alone.
                    let span = tracer.enter("traffic.stream_draw", Some(unit));
                    let drawn = MergedStream::per_source(
                        p.sources.clone(),
                        p.stream_seed,
                        Time::from_ticks(p.exp.horizon_ticks),
                    )
                    .count();
                    tracer.exit(span);
                    n.stream_drawn += drawn as u64;
                    extra_secs += extra_started.elapsed().as_secs_f64();
                }
                unit += 1;
            }
            pair_digests.push((digests[WTP], digests[PIFO_WTP]));
        }
    }
    // The traced-only passes are not part of the workload's fixed work.
    it.wall_s = started.elapsed().as_secs_f64() - extra_secs;
    it.counts = [
        ("trace_pkts", n.trace_pkts),
        ("stream_pkts", n.stream_pkts),
        ("stream_drawn", n.stream_drawn),
        ("decisions", n.decisions),
    ]
    .into_iter()
    .map(|(k, v)| (k, v as f64))
    .collect();
    for (i, &(wtp, pifo)) in pair_digests.iter().enumerate() {
        out.check(1, wtp == pifo, || {
            format!("single-link pair {i}: WTP digest {wtp:016x} != PIFO(WTP) {pifo:016x}")
        });
    }
    it
}

/// One traced iteration's per-layer figures.
fn layers(it: &Iter, spans: &Spans) -> Vec<(&'static str, f64)> {
    let n = |k: &str| it.counts[k];
    let gen_ns = spans.own("traffic.trace_for_seed") + spans.own("traffic.stream_draw");
    let generated = n("trace_pkts") / KINDS.len() as f64 + n("stream_drawn");
    let unmetered = spans.total("qsim.stream_unmetered");
    let mut row = vec![
        ("traffic.gen_s", gen_ns / 1e9),
        ("traffic.ns_per_pkt", gen_ns / generated),
        ("sched.decisions", n("decisions")),
        (
            "qsim.trace.ns_per_pkt",
            spans.own("qsim.trace") / n("trace_pkts"),
        ),
        (
            "qsim.stream.ns_per_pkt",
            (spans.own("qsim.stream_unmetered") - spans.total("traffic.stream_draw"))
                / n("stream_pkts"),
        ),
        ("stats.accum_s", spans.own("stats.accum") / 1e9),
        (
            "telemetry.registry_overhead_frac",
            (spans.total("qsim.stream") - unmetered) / unmetered,
        ),
        (
            "telemetry.registry_ns_per_pkt",
            (spans.own("qsim.stream") - spans.own("qsim.stream_unmetered")) / n("stream_pkts"),
        ),
    ];
    for &(_, span, metric) in &KINDS {
        row.push((metric, spans.total(span) / spans.calls(span)));
    }
    row
}
