//! `chain`: Study B (§6, Table 1). Seeded runs of the Fig.-6 chain over
//! the Table-1 (K, ρ) grid at both flow shapes, through
//! `netsim::Session::study_b(..).run()` and then `netsim::analyze`. The
//! only workload on the simcore event queue and the exact multi-hop
//! engine. A unit is one Study-B configuration: its run and its analysis.

use std::time::Instant;

use pdd::netsim::{analyze, packet_time_tolerance, Session, StudyBConfig};

use crate::probes::EngineProbe;
use crate::report::{self, Outcome};
use crate::runloop::{derive_seed, Cfg, Iter, Spans, Workload};
use crate::trace::Tracer;

/// The Table-1 (K, ρ) grid.
const GRID: [(usize, f64); 4] = [(4, 0.85), (4, 0.95), (8, 0.85), (8, 0.95)];
/// The Table-1 flow shapes (F packets, R_u kbit/s).
const FLOWS: [(u32, f64); 2] = [(10, 50.0), (100, 200.0)];
/// User experiments M per configuration and warm-up seconds.
const EXPERIMENTS: u32 = 6;
const WARMUP_SECS: f64 = 4.0;
/// Times the set-up is repeated to take its median.
const SETUP_REPEATS: usize = 33;

fn build_configs(seed: u64) -> Vec<StudyBConfig> {
    let mut out = Vec::new();
    for &(k, rho) in &GRID {
        for &(flow_len, rate) in &FLOWS {
            let salt = out.len() as u64;
            out.push(
                StudyBConfig::builder(k, rho, flow_len, rate)
                    .experiments(EXPERIMENTS)
                    .warmup_secs(WARMUP_SECS)
                    .seed(derive_seed(seed, salt))
                    .build()
                    .expect("the Table-1 grid is valid"),
            );
        }
    }
    out
}

pub struct Chain;

impl Workload for Chain {
    const NAME: &'static str = "chain";

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
        let run_ns = spans.total("netsim.chain");
        let (events, hops) = (it.counts["events"], it.hops as f64);
        vec![
            ("stats.analyze_s", spans.total("stats.analyze") / 1e9),
            ("simcore.events", events),
            ("simcore.heap_high_water", it.counts["heap_high_water"]),
            ("simcore.ns_per_event", run_ns / events),
            ("netsim.chain.run_s", run_ns / 1e9),
            ("netsim.chain.hops", hops),
            ("netsim.chain.ns_per_hop", run_ns / hops),
        ]
    }
}

fn iteration(cfg: &Cfg, tracer: &mut Tracer, out: &mut Outcome, corrupt: bool) -> Iter {
    let mut it = Iter::default();
    let (mut events, mut heap_high_water) = (0u64, 0usize);
    // Set-up takes microseconds: build the configurations several times
    // and take the median.
    let span = tracer.enter("bench.setup", None);
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut configs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        configs = build_configs(cfg.seed);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    tracer.exit(span);
    it.setup_s = report::median(&setup_secs);
    let started = Instant::now();
    for (unit, c) in configs.iter().enumerate() {
        let t0 = Instant::now();
        let span = tracer.enter("netsim.chain", Some(unit as u64));
        let (mut records, links, probe) = if tracer.enabled() {
            let mut probe = EngineProbe::new(c.k_hops);
            let (records, links) = Session::study_b(c).probe(&mut probe).run();
            (records, links, Some(probe))
        } else {
            let (records, links) = Session::study_b(c).run();
            (records, links, None)
        };
        tracer.exit(span);
        let span = tracer.enter("stats.analyze", Some(unit as u64));
        let result = analyze(&records, c.num_classes(), packet_time_tolerance(c));
        tracer.exit(span);
        it.unit_secs.push(t0.elapsed().as_secs_f64());

        if corrupt && unit == 0 {
            records.pop();
        }
        let hops: u64 = links.iter().map(|l| l.departures).sum();
        let user_hops =
            (c.k_hops * c.num_classes()) as u64 * u64::from(c.experiments) * u64::from(c.flow_len);
        let tx = links[0].busy_ticks / links[0].departures.max(1);
        let mut ok = records.len() == c.experiments as usize;
        ok &= records.iter().all(|r| {
            r.per_class_waits.len() == c.num_classes()
                && r.per_class_waits
                    .iter()
                    .all(|w| w.len() == c.flow_len as usize)
        });
        ok &= links.iter().all(|l| {
            l.bytes == l.departures * u64::from(c.packet_bytes) && l.busy_ticks == l.departures * tx
        });
        ok &= hops >= user_hops && result.rd.is_finite();
        if let Some(p) = &probe {
            ok &= p.arrivals == p.departures;
            ok &= p
                .departures
                .iter()
                .zip(&links)
                .all(|(&d, l)| d == l.departures);
            events += p.events;
            heap_high_water = heap_high_water.max(p.heap_high_water);
        }
        out.check(1, ok, || {
            format!(
                "chain unit {unit} (K={}, rho={}, F={}): {} records, {} hops",
                c.k_hops,
                c.utilization,
                c.flow_len,
                records.len(),
                hops
            )
        });
        it.hops += hops;
        for r in &records {
            for w in r.per_class_waits.iter().flatten() {
                it.digest.add(*w);
            }
        }
        links.iter().for_each(|l| it.digest.add(l.departures));
        it.digest.add_f64(result.rd);
        it.digest.add(result.inconsistent_experiments as u64);
    }
    it.wall_s = it.setup_s + started.elapsed().as_secs_f64();
    it.counts.insert("events", events as f64);
    it.counts.insert("heap_high_water", heap_high_water as f64);
    it
}
