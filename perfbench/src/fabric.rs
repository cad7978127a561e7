//! `fabric`: link-level decomposition of a k = 10 fat-tree (1,500 links)
//! with the shape of the paper mesh cell. From the seed the benchmark
//! builds an ECMP-routed probe-flow set over Pareto cross traffic, then
//! runs `Topology::fat_tree` → `TopologyConfig::to_mesh` →
//! `DecomposeInput::new` → `link_report` on the worker threads →
//! `compose`. A unit is one `link_report`.

use std::time::Instant;

use experiments::parallel_map_on;
use pdd::netsim::decompose::{DecomposeInput, DecomposedOutcome, LinkReport};
use pdd::netsim::mesh::FlowModel;
use pdd::netsim::topology::splitmix64;
use pdd::netsim::{CrossTraffic, HostFlow, LinkSpec, Topology, TopologyConfig};
use pdd::sched::{SchedulerKind, Sdp};

use crate::probes::Digest;
use crate::report::Outcome;
use crate::runloop::{derive_seed, Cfg, Iter, Spans, Workload};
use crate::trace::Tracer;

/// Fat-tree arity: 3k³/2 = 1,500 unidirectional links, k³/4 = 250 hosts.
const K: usize = 10;
/// Host-to-host probe flows (the paper cell has 10⁶).
const PROBE_FLOWS: usize = 100_000;
/// Packets per probe flow, their size and spacing.
const PROBE_PACKETS: u32 = 2;
const PROBE_BYTES: u32 = 100;
const PROBE_GAP_TICKS: u64 = 1_000_000;
/// Per-link Pareto cross traffic (the paper mix) at this utilisation.
const CROSS_UTILIZATION: f64 = 0.55;
const LINK_BPS: f64 = 1e9;
/// Cross-traffic horizon, ticks (1 tick = 1 ns).
const HORIZON_TICKS: u64 = 10_000_000;

/// The fat-tree with probe flows placed from `seed`. Flow `i` hashes its
/// endpoints, start and class from `(seed, i)`.
fn topology_config(seed: u64, tracer: &mut Tracer) -> TopologyConfig {
    let spec = LinkSpec::new(LINK_BPS, SchedulerKind::Wtp)
        .with_cross(CrossTraffic::paper(CROSS_UTILIZATION));
    let span = tracer.enter("netsim.topology.build", None);
    let topology = Topology::fat_tree(K, &spec).expect("even arity");
    tracer.exit(span);
    let span = tracer.enter("bench.flows", None);
    let hosts = topology.hosts();
    let h = hosts.len() as u64;
    let sdp = Sdp::paper_default();
    let nc = sdp.num_classes() as u64;
    let place = derive_seed(seed, 1);
    let flows = (0..PROBE_FLOWS as u64)
        .map(|i| {
            let key = splitmix64(place ^ i);
            let src = key % h;
            let dst = (src + 1 + splitmix64(key) % (h - 1)) % h;
            HostFlow {
                src: hosts[src as usize],
                dst: hosts[dst as usize],
                class: (splitmix64(key ^ 0x5EED) % nc) as u8,
                packet_bytes: PROBE_BYTES,
                model: FlowModel::Periodic {
                    gap_ticks: PROBE_GAP_TICKS,
                    count: PROBE_PACKETS,
                },
                start_ticks: 1 + splitmix64(key ^ 0xABCD) % (HORIZON_TICKS / 2),
            }
        })
        .collect();
    tracer.exit(span);
    TopologyConfig {
        topology,
        sdp,
        flows,
        seed: derive_seed(seed, 2),
        cross_horizon_ticks: HORIZON_TICKS,
    }
}

/// Runs every link on `threads` threads (results in link order), timing
/// each `link_report`.
fn link_phase(input: &DecomposeInput, threads: usize) -> Vec<(LinkReport, f64)> {
    let jobs: Vec<_> = (0..input.num_links())
        .map(|l| {
            move || {
                let t0 = Instant::now();
                let r = input.link_report(l);
                (r, t0.elapsed().as_secs_f64())
            }
        })
        .collect();
    parallel_map_on(jobs, threads)
}

fn outcome_digest(o: &DecomposedOutcome) -> Digest {
    let mut d = Digest::default();
    o.per_flow_mean_wait.iter().for_each(|&w| d.add_f64(w));
    o.per_flow_packets.iter().for_each(|&n| d.add(n));
    o.class_hop_packets.iter().for_each(|&n| d.add(n));
    o.class_hop_wait_sum.iter().for_each(|&n| d.add(n));
    o.link_departures.iter().for_each(|&n| d.add(n));
    for s in &o.class_flow_e2e {
        d.add(s.count());
        d.add_f64(s.mean());
    }
    d
}

#[derive(Default)]
pub struct Fabric {
    serial_checked: bool,
}

impl Workload for Fabric {
    const NAME: &'static str = "fabric";

    fn iteration(
        &mut self,
        cfg: &Cfg,
        tracer: &mut Tracer,
        out: &mut Outcome,
        corrupt: bool,
    ) -> Iter {
        let threads = cfg.threads();
        let mut it = Iter::default();
        let started = Instant::now();
        let topo = topology_config(cfg.seed, tracer);
        let span = tracer.enter("netsim.topology.lower", None);
        let mesh = topo.to_mesh().expect("the generated fabric is valid");
        tracer.exit(span);
        let span = tracer.enter("netsim.decompose.input", None);
        let input = DecomposeInput::new(&mesh).expect("the lowered mesh is valid");
        tracer.exit(span);
        it.setup_s = started.elapsed().as_secs_f64();

        let span = tracer.enter("netsim.decompose.links", None);
        let t0 = Instant::now();
        let timed = link_phase(&input, threads);
        let link_wall = t0.elapsed().as_secs_f64();
        tracer.exit(span);
        let (reports, secs): (Vec<LinkReport>, Vec<f64>) = timed.into_iter().unzip();
        let span = tracer.enter("netsim.decompose.compose", None);
        let mut outcome = input.compose(&reports);
        tracer.exit(span);
        it.wall_s = started.elapsed().as_secs_f64();

        if corrupt {
            outcome.link_departures[0] += 1;
        }
        it.hops = outcome.link_departures.iter().sum();
        it.digest = outcome_digest(&outcome);
        let links = reports.len() as u64;
        // Every link: its departures are its per-class packets.
        let bad_links = reports
            .iter()
            .filter(|r| r.departures != r.class_packets.iter().sum::<u64>())
            .count() as u64;
        out.count(links, bad_links, || {
            format!("fabric: {bad_links} link reports disagree with their class counts")
        });
        // Conservation: link departures = Σ probe packets × hops + cross
        // packets, and every probe flow delivered all its packets.
        let probe_hops: u64 = (0..PROBE_FLOWS)
            .map(|f| outcome.per_flow_packets[f] * mesh.flows[f].route.len() as u64)
            .sum();
        let cross: u64 = outcome.per_flow_packets[PROBE_FLOWS..].iter().sum();
        let delivered = outcome.per_flow_packets[..PROBE_FLOWS]
            .iter()
            .all(|&n| n == u64::from(PROBE_PACKETS));
        let class_hops: u64 = outcome.class_hop_packets.iter().sum();
        out.check(
            1,
            it.hops == probe_hops + cross && delivered && class_hops == it.hops,
            || {
                format!(
                "fabric: {} link departures vs {probe_hops} probe hops + {cross} cross packets \
                 (all probes delivered: {delivered})",
                it.hops
            )
            },
        );
        it.unit_secs = secs;
        it.counts.insert("link_wall_s", link_wall);
        it.counts.insert("threads", threads as f64);
        it.counts.insert("link_sum_s", it.unit_secs.iter().sum());

        // Thread count must not change a bit of the outcome: check the
        // first iteration against a serial pass, outside the timed work.
        if !self.serial_checked {
            self.serial_checked = true;
            let serial: Vec<LinkReport> =
                link_phase(&input, 1).into_iter().map(|(r, _)| r).collect();
            let serial_digest = outcome_digest(&input.compose(&serial)).0;
            let digest = it.digest.0;
            out.check(1, serial_digest == digest, || {
                format!("fabric: outcome digest {digest:016x} at {threads} threads != {serial_digest:016x} at 1")
            });
        }
        it
    }

    fn layers(&self, it: &Iter, spans: &Spans) -> Vec<(&'static str, f64)> {
        let link_sum = it.counts["link_sum_s"];
        vec![
            (
                "netsim.topology.build_s",
                spans.total("netsim.topology.build") / 1e9,
            ),
            (
                "netsim.topology.lower_s",
                spans.total("netsim.topology.lower") / 1e9,
            ),
            (
                "netsim.decompose.input_s",
                spans.total("netsim.decompose.input") / 1e9,
            ),
            ("netsim.decompose.link_s", link_sum),
            (
                "netsim.decompose.ns_per_hop",
                link_sum * 1e9 / it.hops as f64,
            ),
            (
                "netsim.decompose.compose_s",
                spans.total("netsim.decompose.compose") / 1e9,
            ),
            (
                "netsim.decompose.parallel_eff",
                link_sum / (it.counts["threads"] * it.counts["link_wall_s"]),
            ),
        ]
    }
}
