//! General-topology simulation: flows routed over arbitrary link sets.
//!
//! Study B's Figure-6 chain answers the paper's question for one path
//! shape; this module generalizes the engine so *crossing* paths can be
//! simulated — e.g. two user populations whose routes share a bottleneck
//! link — and the §6 question ("consistent end-to-end differentiation,
//! independent of the network path") can be probed on meshes.
//!
//! The model stays deliberately simple: unidirectional links described by
//! the shared [`LinkSpec`]; flows carry an explicit route (a sequence of
//! link indices); propagation delay shifts arrivals between hops but is
//! excluded from the queueing-wait metric; waits accumulate per hop
//! exactly as in the chain engine.
//!
//! Background load is expressed either as explicit Pareto [`MeshFlow`]s or
//! as a [`CrossTraffic`](crate::CrossTraffic) model on a [`LinkSpec`] —
//! the latter must be expanded into flows via
//! [`MeshConfig::materialize_cross`] before the engine will accept the
//! config, so the event loop only ever sees one kind of traffic.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::{Command, DownPolicy, Scenario, ScenarioRuntime};
use sched::{Packet, ReconfigureError, Scheduler, Sdp};
use simcore::{Context, Dur, Model, Simulation, Time};
use telemetry::{PacketId, Probe};
use traffic::IatDist;

use crate::config::CrossModel;
use crate::link::LinkSpec;

/// How a flow emits packets.
#[derive(Debug, Clone)]
pub enum FlowModel {
    /// `count` packets spaced `gap_ticks` apart (a Study-B user flow).
    Periodic {
        /// Inter-packet gap, ticks.
        gap_ticks: u64,
        /// Number of packets.
        count: u32,
    },
    /// Pareto(α = 1.9) arrivals with the given mean gap until the horizon
    /// (background/cross traffic).
    Pareto {
        /// Mean inter-packet gap, ticks.
        mean_gap_ticks: f64,
        /// Last instant at which the flow may emit.
        until_ticks: u64,
    },
}

/// One flow: a class, a route, and an emission model.
#[derive(Debug, Clone)]
pub struct MeshFlow {
    /// Ordered link indices the flow traverses.
    pub route: Vec<usize>,
    /// Service class.
    pub class: u8,
    /// Packet size in bytes.
    pub packet_bytes: u32,
    /// Emission model.
    pub model: FlowModel,
    /// Start of the first packet, ticks.
    pub start_ticks: u64,
}

/// A mesh scenario.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Scheduler Differentiation Parameters shared by all links.
    pub sdp: Sdp,
    /// The links, described by the shared [`LinkSpec`].
    pub links: Vec<LinkSpec>,
    /// The flows.
    pub flows: Vec<MeshFlow>,
    /// RNG seed for the Pareto flows.
    pub seed: u64,
}

impl MeshConfig {
    /// A validating builder: add links and flows, then
    /// [`build`](MeshConfigBuilder::build) returns `Err` for rejected
    /// topologies instead of deferring to a panic inside the engine.
    pub fn builder(sdp: Sdp) -> MeshConfigBuilder {
        MeshConfigBuilder {
            cfg: MeshConfig {
                sdp,
                links: Vec::new(),
                flows: Vec::new(),
                seed: 0,
            },
        }
    }

    /// Validates routes, classes, and link parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.links.is_empty() {
            return Err("mesh needs at least one link".into());
        }
        for (l, spec) in self.links.iter().enumerate() {
            spec.validate(self.sdp.num_classes())
                .map_err(|e| format!("link {l}: {e}"))?;
            if spec.cross.is_some() {
                return Err(format!(
                    "link {l} has an unmaterialized cross-traffic model; \
                     call MeshConfig::materialize_cross(horizon) first"
                ));
            }
        }
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        for (i, f) in self.flows.iter().enumerate() {
            if f.route.is_empty() {
                return Err(format!("flow {i} has an empty route"));
            }
            if f.route.iter().any(|&l| l >= self.links.len()) {
                return Err(format!("flow {i} routes over an unknown link"));
            }
            // A route that revisits a link would let a packet race itself
            // through the same queue; the engine's per-packet hop counter
            // assumes loop-free routes.
            for (h, &l) in f.route.iter().enumerate() {
                if f.route[..h].contains(&l) {
                    return Err(format!("flow {i} visits link {l} twice"));
                }
            }
            if f.class as usize >= self.sdp.num_classes() {
                return Err(format!("flow {i} uses class {} without an SDP", f.class));
            }
            if f.packet_bytes == 0 {
                return Err(format!("flow {i} has zero-byte packets"));
            }
            match f.model {
                FlowModel::Periodic { count: 0, .. } => {
                    return Err(format!("flow {i} emits no packets"));
                }
                FlowModel::Pareto { mean_gap_ticks, .. } if !positive(mean_gap_ticks) => {
                    return Err(format!("flow {i} has a nonpositive mean gap"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Expands every link's [`CrossTraffic`](crate::CrossTraffic) model
    /// into explicit single-hop Pareto [`MeshFlow`]s emitting from tick 1
    /// until `until_ticks`, clears the models, and validates the result.
    /// Consumes the config, so nothing is copied. The engine only accepts
    /// configs without unmaterialized cross models, so this is the bridge
    /// from the declarative [`LinkSpec`] surface to the event loop.
    ///
    /// Expansion is deterministic: links in index order, classes in
    /// ascending order, then one flow per source, appended after the
    /// existing flows. Classes with a zero share produce no flows.
    ///
    /// Rejects `EcnAdaptive` cross models (closed-loop sources cannot be
    /// expressed as open-loop flows) and invalid cross parameters.
    pub fn materialize_cross(mut self, until_ticks: u64) -> Result<MeshConfig, String> {
        for l in 0..self.links.len() {
            let Some(cross) = self.links[l].cross.take() else {
                continue;
            };
            cross
                .validate(self.sdp.num_classes())
                .map_err(|e| format!("link {l}: {e}"))?;
            if !matches!(cross.model, CrossModel::Pareto) {
                return Err(format!(
                    "link {l}: only Pareto cross traffic can be materialized \
                     into mesh flows"
                ));
            }
            for (c, &frac) in cross.class_fractions.iter().enumerate() {
                if frac <= 0.0 {
                    continue;
                }
                let per_source_bps =
                    cross.utilization * self.links[l].bps * frac / cross.sources as f64;
                let mean_gap_ticks =
                    cross.packet_bytes as f64 * 8.0 / per_source_bps * crate::TICKS_PER_SEC as f64;
                for _ in 0..cross.sources {
                    self.flows.push(MeshFlow {
                        route: vec![l],
                        class: c as u8,
                        packet_bytes: cross.packet_bytes,
                        model: FlowModel::Pareto {
                            mean_gap_ticks,
                            until_ticks,
                        },
                        start_ticks: 1,
                    });
                }
            }
        }
        self.validate()?;
        Ok(self)
    }
}

/// Builder for [`MeshConfig`] whose [`build`](Self::build) validates the
/// whole topology. Created by [`MeshConfig::builder`].
#[derive(Debug, Clone)]
pub struct MeshConfigBuilder {
    cfg: MeshConfig,
}

impl MeshConfigBuilder {
    /// Adds a unidirectional link (index = insertion order).
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.cfg.links.push(link);
        self
    }

    /// Adds a flow routed over previously added links.
    pub fn flow(mut self, flow: MeshFlow) -> Self {
        self.cfg.flows.push(flow);
        self
    }

    /// RNG seed for the Pareto flows (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<MeshConfig, String> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Per-flow outcome: one end-to-end queueing wait (ticks) per delivered
/// packet, in delivery order.
#[derive(Debug, Clone)]
pub struct MeshOutcome {
    /// `per_flow_waits[f]` = end-to-end waits of flow f's packets.
    pub per_flow_waits: Vec<Vec<u64>>,
    /// Packets transmitted per link.
    pub link_departures: Vec<u64>,
}

impl MeshOutcome {
    /// Mean end-to-end wait of flow `f` (0 if it delivered nothing).
    pub fn mean_wait(&self, f: usize) -> f64 {
        let w = &self.per_flow_waits[f];
        if w.is_empty() {
            0.0
        } else {
            w.iter().sum::<u64>() as f64 / w.len() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Flow `flow` emits packet `idx`.
    Emit { flow: u32, idx: u32 },
    /// Link finished its in-flight packet.
    TxDone { link: u16 },
    /// Packet `tag` finished propagating and arrives at its next hop.
    /// Only scheduled for links with a nonzero propagation delay — with
    /// zero propagation the engine hands the packet to the next hop
    /// synchronously, so existing zero-propagation results are unchanged.
    Arrive { tag: u64 },
    /// The next scenario event is due.
    ScenarioTick,
}

struct PacketMeta {
    flow: u32,
    hop: u16,
    acc_wait: u64,
}

struct LinkState {
    scheduler: Box<dyn Scheduler>,
    rate: f64,
    in_flight: Option<Packet>,
    /// Start of the in-flight transmission (valid while `in_flight` is
    /// `Some`).
    tx_start: Time,
    departures: u64,
}

struct Mesh<'p, P: Probe> {
    cfg: MeshConfig,
    links: Vec<LinkState>,
    metas: Vec<PacketMeta>,
    waits: Vec<Vec<u64>>,
    /// Per-Pareto-flow (rng, cumulative clock).
    pareto: Vec<Option<(StdRng, f64, IatDist)>>,
    probe: &'p mut P,
    rt: ScenarioRuntime,
    cmd_buf: Vec<Command>,
    audit_buf: Vec<(usize, f64)>,
}

/// Probe identity of mesh packet `pkt` at hop `link`: the per-packet tag
/// is the end-to-end span (one journey = one trace track).
fn packet_id(pkt: &Packet, link: usize) -> PacketId {
    PacketId {
        span: pkt.tag,
        seq: pkt.seq,
        class: pkt.class,
        size: pkt.size,
        hop: link as u16,
    }
}

impl<P: Probe> Mesh<'_, P> {
    fn arrive(&mut self, link: usize, class: u8, size: u32, tag: u64, ctx: &mut Context<Ev>) {
        let pkt = Packet {
            seq: tag,
            class,
            size,
            arrival: ctx.now(),
            tag,
        };
        if P::ENABLED {
            self.probe.on_arrival(pkt.arrival, packet_id(&pkt, link));
        }
        if !self.rt.link_up(link as u16) && self.rt.down_policy(link as u16) == DownPolicy::Drop {
            if P::ENABLED {
                self.probe.on_drop(
                    pkt.arrival,
                    packet_id(&pkt, link),
                    self.links[link].scheduler.total_backlog_bytes(),
                    0,
                );
            }
            return;
        }
        if P::ENABLED {
            self.probe.on_enqueue(pkt.arrival, packet_id(&pkt, link));
        }
        self.links[link].scheduler.enqueue(pkt);
        if self.links[link].in_flight.is_none() {
            self.start_tx(link, ctx);
        }
    }

    fn start_tx(&mut self, link: usize, ctx: &mut Context<Ev>) {
        if !self.rt.link_up(link as u16) {
            return;
        }
        let now = ctx.now();
        if P::ENABLED && P::WANTS_DECISION_VALUES {
            self.audit_buf.clear();
            self.links[link]
                .scheduler
                .decision_values(now, &mut self.audit_buf);
        }
        let Some(pkt) = self.links[link].scheduler.dequeue(now) else {
            return;
        };
        if P::ENABLED {
            self.probe.on_decision(
                now,
                self.links[link].scheduler.name(),
                packet_id(&pkt, link),
                &self.audit_buf,
            );
        }
        let wait = now.since(pkt.arrival).ticks();
        self.metas[pkt.tag as usize].acc_wait += wait;
        let tx = qsim::tx_ticks(pkt.size, self.links[link].rate);
        self.links[link].in_flight = Some(pkt);
        self.links[link].tx_start = now;
        ctx.schedule_in(Dur::from_ticks(tx), Ev::TxDone { link: link as u16 });
    }

    /// Applies every scenario command due at `now` to the mesh.
    fn apply_scenario(&mut self, ctx: &mut Context<Ev>) {
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        self.rt
            .apply_due(ctx.now(), &mut *self.probe, |c| cmds.push(c));
        for c in cmds.drain(..) {
            match c {
                Command::Reconfigure(sdp) => {
                    for l in &mut self.links {
                        match l.scheduler.reconfigure(&sdp) {
                            Ok(()) | Err(ReconfigureError::Unsupported(_)) => {}
                            Err(e) => panic!("scenario set_sdp: {e}"),
                        }
                    }
                }
                Command::SetLinkRate { link, rate } => {
                    let l = &mut self.links[link as usize];
                    l.rate = rate;
                    l.scheduler.set_link_rate(rate);
                }
                Command::LinkDown { .. } => {}
                Command::LinkUp { link } => {
                    let l = link as usize;
                    if self.links[l].in_flight.is_none() {
                        self.start_tx(l, ctx);
                    }
                }
            }
        }
        self.cmd_buf = cmds;
    }
}

impl<P: Probe> Model for Mesh<'_, P> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<Ev>) {
        match ev {
            Ev::Emit { flow, idx } => {
                let f = self.cfg.flows[flow as usize].clone();
                if self.rt.admits(f.class) {
                    let tag = self.metas.len() as u64;
                    self.metas.push(PacketMeta {
                        flow,
                        hop: 0,
                        acc_wait: 0,
                    });
                    self.arrive(f.route[0], f.class, f.packet_bytes, tag, ctx);
                }
                // Schedule the next emission.
                match f.model {
                    FlowModel::Periodic { gap_ticks, count } => {
                        if idx + 1 < count {
                            ctx.schedule_in(
                                Dur::from_ticks(gap_ticks),
                                Ev::Emit { flow, idx: idx + 1 },
                            );
                        }
                    }
                    FlowModel::Pareto { until_ticks, .. } => {
                        let slot = self.pareto[flow as usize]
                            .as_mut()
                            .expect("pareto state for pareto flow");
                        slot.1 += slot.2.sample(&mut slot.0);
                        let next = slot.1.round().max(ctx.now().ticks() as f64 + 1.0);
                        if next as u64 <= until_ticks {
                            ctx.schedule(
                                Time::from_ticks(next as u64),
                                Ev::Emit { flow, idx: idx + 1 },
                            );
                        }
                    }
                }
            }
            Ev::TxDone { link } => {
                let link = link as usize;
                let pkt = self.links[link]
                    .in_flight
                    .take()
                    .expect("TxDone without in-flight packet");
                self.links[link].departures += 1;
                let meta = &mut self.metas[pkt.tag as usize];
                meta.hop += 1;
                let route = &self.cfg.flows[meta.flow as usize].route;
                let delivered = meta.hop as usize >= route.len();
                if P::ENABLED {
                    let start = self.links[link].tx_start;
                    self.probe.on_depart(
                        packet_id(&pkt, link),
                        pkt.arrival,
                        start,
                        ctx.now(),
                        delivered,
                    );
                }
                if !delivered {
                    let prop = self.cfg.links[link].propagation_ns;
                    if prop > 0 {
                        ctx.schedule_in(Dur::from_ticks(prop), Ev::Arrive { tag: pkt.tag });
                    } else {
                        let next_link = route[meta.hop as usize];
                        let (class, size, tag) = (pkt.class, pkt.size, pkt.tag);
                        self.arrive(next_link, class, size, tag, ctx);
                    }
                } else {
                    let (flow, acc) = (meta.flow, meta.acc_wait);
                    self.waits[flow as usize].push(acc);
                }
                self.start_tx(link, ctx);
            }
            Ev::Arrive { tag } => {
                let meta = &self.metas[tag as usize];
                let f = &self.cfg.flows[meta.flow as usize];
                let (link, class, size) = (f.route[meta.hop as usize], f.class, f.packet_bytes);
                self.arrive(link, class, size, tag, ctx);
            }
            Ev::ScenarioTick => {
                self.apply_scenario(ctx);
                if let Some(at) = self.rt.next_at() {
                    ctx.schedule(at, Ev::ScenarioTick);
                }
            }
        }
    }
}

/// [`Session::mesh`](crate::Session::mesh) under a perturbation timeline with a
/// [`Probe`] observing every hop: scenario events (live SDP swaps,
/// link-rate changes, link faults, class joins/leaves) apply to the whole
/// mesh at their timestamps. With a non-empty scenario, flows may
/// legitimately deliver fewer packets than they emitted.
///
/// # Panics
/// Panics if the configuration fails [`MeshConfig::validate`], if the
/// scenario references a link or class the mesh does not define, or if it
/// contains a load surge (mesh flows carry explicit emission models).
pub fn run_mesh_scenario_probed<P: Probe>(
    cfg: &MeshConfig,
    scenario: &Scenario,
    probe: &mut P,
) -> MeshOutcome {
    cfg.validate().expect("invalid mesh configuration");
    assert!(
        !scenario.has_load_surge(),
        "load_surge is not supported by the mesh engine"
    );
    let links: Vec<LinkState> = cfg
        .links
        .iter()
        .map(|l| LinkState {
            scheduler: l.scheduler.build(&cfg.sdp, l.bytes_per_tick()),
            rate: l.bytes_per_tick(),
            in_flight: None,
            tx_start: Time::ZERO,
            departures: 0,
        })
        .collect();
    let pareto: Vec<Option<(StdRng, f64, IatDist)>> = cfg
        .flows
        .iter()
        .enumerate()
        .map(|(i, f)| match f.model {
            FlowModel::Pareto { mean_gap_ticks, .. } => Some((
                StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                f.start_ticks as f64,
                IatDist::paper_pareto(mean_gap_ticks).expect("validated gap"),
            )),
            FlowModel::Periodic { .. } => None,
        })
        .collect();
    let mesh = Mesh {
        links,
        metas: Vec::new(),
        waits: vec![Vec::new(); cfg.flows.len()],
        pareto,
        probe,
        rt: ScenarioRuntime::new(scenario, cfg.links.len(), cfg.sdp.num_classes()),
        cmd_buf: Vec::new(),
        audit_buf: Vec::new(),
        cfg: cfg.clone(),
    };
    let mut sim = Simulation::new(mesh);
    for (i, f) in cfg.flows.iter().enumerate() {
        sim.schedule(
            Time::from_ticks(f.start_ticks),
            Ev::Emit {
                flow: i as u32,
                idx: 0,
            },
        );
    }
    // Arm the perturbation timeline (no-op for empty scenarios).
    if let Some(at) = sim.model_mut().rt.next_at() {
        sim.schedule(at, Ev::ScenarioTick);
    }
    sim.run();
    let mesh = sim.into_model();
    MeshOutcome {
        per_flow_waits: mesh.waits,
        link_departures: mesh.links.iter().map(|l| l.departures).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::SchedulerKind;

    const MBPS25: f64 = 25_000_000.0;

    fn wtp_link() -> LinkSpec {
        LinkSpec::new(MBPS25, SchedulerKind::Wtp)
    }

    fn probe(route: Vec<usize>, class: u8, start: u64) -> MeshFlow {
        MeshFlow {
            route,
            class,
            packet_bytes: 500,
            model: FlowModel::Periodic {
                gap_ticks: 20_000_000, // 200 kbps
                count: 50,
            },
            start_ticks: start,
        }
    }

    fn background(route: Vec<usize>, class: u8, load_fraction: f64, horizon: u64) -> MeshFlow {
        // 500 B packets at `load_fraction` of 25 Mbps.
        let gap = 500.0 * 8.0 / (load_fraction * MBPS25) * 1e9;
        MeshFlow {
            route,
            class,
            packet_bytes: 500,
            model: FlowModel::Pareto {
                mean_gap_ticks: gap,
                until_ticks: horizon,
            },
            start_ticks: 1,
        }
    }

    /// Background mix loading `link` to ~92% across 4 classes.
    fn background_mix(link: usize, horizon: u64) -> Vec<MeshFlow> {
        [0.36, 0.27, 0.18, 0.09]
            .iter()
            .enumerate()
            .map(|(c, &frac)| background(vec![link], c as u8, frac, horizon))
            .collect()
    }

    #[test]
    fn unloaded_mesh_has_zero_waits() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link()],
            flows: vec![probe(vec![0, 1], 3, 0)],
            seed: 1,
        };
        let out = crate::Session::mesh(&cfg).run();
        assert_eq!(out.per_flow_waits[0].len(), 50);
        assert!(out.per_flow_waits[0].iter().all(|&w| w == 0));
        assert_eq!(out.link_departures, vec![50, 50]);
    }

    #[test]
    fn crossing_paths_both_keep_differentiation() {
        // Y topology: path A = [0, 2], path B = [1, 2]; link 2 is the shared
        // bottleneck. Each path carries a low-class and a high-class probe.
        let horizon = 4 * crate::TICKS_PER_SEC;
        let mut flows = vec![
            probe(vec![0, 2], 0, 0),
            probe(vec![0, 2], 3, 0),
            probe(vec![1, 2], 0, 0),
            probe(vec![1, 2], 3, 0),
        ];
        flows.extend(background_mix(2, horizon));
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link(), wtp_link()],
            flows,
            seed: 7,
        };
        let out = crate::Session::mesh(&cfg).run();
        for f in 0..4 {
            assert_eq!(out.per_flow_waits[f].len(), 50, "flow {f} incomplete");
        }
        // On each path the high class beats the low class end-to-end.
        assert!(
            out.mean_wait(0) > 1.5 * out.mean_wait(1),
            "path A: low {} vs high {}",
            out.mean_wait(0),
            out.mean_wait(1)
        );
        assert!(
            out.mean_wait(2) > 1.5 * out.mean_wait(3),
            "path B: low {} vs high {}",
            out.mean_wait(2),
            out.mean_wait(3)
        );
    }

    #[test]
    fn shared_bottleneck_couples_the_paths() {
        // Loading path A's private link should not change path B's delays
        // much; loading the shared link hurts both.
        let horizon = 3 * crate::TICKS_PER_SEC;
        let base_flows = |extra: Vec<MeshFlow>| {
            let mut flows = vec![probe(vec![0, 2], 0, 0), probe(vec![1, 2], 0, 0)];
            flows.extend(extra);
            flows
        };
        let mk = |extra| MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link(), wtp_link()],
            flows: base_flows(extra),
            seed: 3,
        };
        let private_loaded = crate::Session::mesh(&mk(background_mix(0, horizon))).run();
        let shared_loaded = crate::Session::mesh(&mk(background_mix(2, horizon))).run();
        // Flow 1 (path B) barely notices path A's private congestion...
        assert!(
            private_loaded.mean_wait(1) < private_loaded.mean_wait(0) / 4.0,
            "B {} vs A {}",
            private_loaded.mean_wait(1),
            private_loaded.mean_wait(0)
        );
        // ...but suffers when the shared link is hot.
        assert!(
            shared_loaded.mean_wait(1) > 4.0 * private_loaded.mean_wait(1).max(1.0),
            "shared {} vs private {}",
            shared_loaded.mean_wait(1),
            private_loaded.mean_wait(1)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let horizon = crate::TICKS_PER_SEC;
        let mk = || {
            let mut flows = vec![probe(vec![0], 2, 0)];
            flows.extend(background_mix(0, horizon));
            MeshConfig {
                sdp: Sdp::paper_default(),
                links: vec![wtp_link()],
                flows,
                seed: 11,
            }
        };
        let a = crate::Session::mesh(&mk()).run();
        let b = crate::Session::mesh(&mk()).run();
        assert_eq!(a.per_flow_waits, b.per_flow_waits);
    }

    #[test]
    fn scenario_link_flap_holds_and_releases_the_shared_bottleneck() {
        use scenario::{DownPolicy, Scenario};
        // Flap the shared link of the Y topology with Hold: every probe
        // packet is still delivered, but the outage inflates the waits of
        // flows crossing it relative to the un-flapped run.
        let mk = || {
            MeshConfig::builder(Sdp::paper_default())
                .link(wtp_link())
                .link(wtp_link())
                .link(wtp_link())
                .flow(probe(vec![0, 2], 0, 0))
                .flow(probe(vec![1, 2], 3, 0))
                .seed(5)
                .build()
                .unwrap()
        };
        let base = crate::Session::mesh(&mk()).run();
        let sc = Scenario::builder()
            .link_down(Time::from_ticks(100_000_000), 2, DownPolicy::Hold)
            .link_up(Time::from_ticks(400_000_000), 2)
            .build()
            .unwrap();
        let flapped = crate::Session::mesh(&mk()).scenario(sc).run();
        for f in 0..2 {
            assert_eq!(flapped.per_flow_waits[f].len(), 50, "flow {f} lost packets");
        }
        assert!(
            flapped.mean_wait(0) > base.mean_wait(0) + 1_000_000.0,
            "outage must inflate path-A waits: {} vs {}",
            flapped.mean_wait(0),
            base.mean_wait(0)
        );
        assert!(
            flapped.mean_wait(1) > base.mean_wait(1) + 1_000_000.0,
            "outage must inflate path-B waits: {} vs {}",
            flapped.mean_wait(1),
            base.mean_wait(1)
        );
    }

    #[test]
    fn scenario_link_flap_drop_loses_mesh_packets() {
        use scenario::{DownPolicy, Scenario};
        let cfg = MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0], 2, 0))
            .build()
            .unwrap();
        // The 50-packet probe spans 1 s; a 0.4 s Drop outage eats packets.
        let sc = Scenario::builder()
            .link_down(Time::from_ticks(100_000_000), 0, DownPolicy::Drop)
            .link_up(Time::from_ticks(500_000_000), 0)
            .build()
            .unwrap();
        let mut counter = telemetry::CountingProbe::new(4);
        let out = run_mesh_scenario_probed(&cfg, &sc, &mut counter);
        assert!(
            out.per_flow_waits[0].len() < 50,
            "Drop outage delivered all {} packets",
            out.per_flow_waits[0].len()
        );
        let report = counter.report();
        let drops: u64 = report.classes.iter().map(|c| c.drops).sum();
        assert_eq!(
            drops as usize + out.per_flow_waits[0].len(),
            50,
            "dropped + delivered must cover the flow"
        );
        assert_eq!(report.scenario_events, 2);
    }

    #[test]
    fn mesh_builder_rejects_bad_topologies() {
        let err = MeshConfig::builder(Sdp::paper_default())
            .flow(probe(vec![0], 0, 0))
            .build()
            .unwrap_err();
        assert!(err.contains("at least one link"), "{err}");
        let err = MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0, 1], 0, 0))
            .build()
            .unwrap_err();
        assert!(err.contains("unknown link"), "{err}");
        let err = MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0], 9, 0))
            .build()
            .unwrap_err();
        assert!(err.contains("without an SDP"), "{err}");
        assert!(MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0], 0, 0))
            .build()
            .is_ok());
    }

    #[test]
    fn validation_rejects_bad_meshes() {
        let ok = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link()],
            flows: vec![probe(vec![0], 0, 0)],
            seed: 0,
        };
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.flows[0].route = vec![];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.flows[0].route = vec![5];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.flows[0].class = 9;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.flows[0].packet_bytes = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.links.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_rejects_looping_routes() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link()],
            flows: vec![probe(vec![0, 1, 0], 0, 0)],
            seed: 0,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("visits link 0 twice"), "{err}");
    }

    #[test]
    fn validation_rejects_unmaterialized_cross() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link().with_cross(crate::CrossTraffic::paper(0.5))],
            flows: vec![probe(vec![0], 0, 0)],
            seed: 0,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("materialize_cross"), "{err}");
    }

    #[test]
    fn materialize_cross_expands_to_pareto_flows() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![
                wtp_link().with_cross(crate::CrossTraffic::paper(0.5)),
                wtp_link(),
            ],
            flows: vec![probe(vec![0, 1], 3, 0)],
            seed: 9,
        };
        let horizon = crate::TICKS_PER_SEC;
        let mat = cfg.materialize_cross(horizon).unwrap();
        // 8 sources × 4 classes with nonzero share, appended after the probe.
        assert_eq!(mat.flows.len(), 1 + 8 * 4);
        assert!(mat.links.iter().all(|l| l.cross.is_none()));
        for f in &mat.flows[1..] {
            assert_eq!(f.route, vec![0]);
            assert!(matches!(
                f.model,
                FlowModel::Pareto { until_ticks, .. } if until_ticks == horizon
            ));
        }
        // The expansion runs and congests the probe's first hop.
        let out = crate::Session::mesh(&mat).run();
        assert_eq!(out.per_flow_waits[0].len(), 50);
        assert!(out.link_departures[0] > out.link_departures[1]);
    }

    #[test]
    fn materialize_cross_rejects_closed_loop_models() {
        let mut cross = crate::CrossTraffic::paper(0.5);
        cross.model = CrossModel::EcnAdaptive {
            mark_threshold_bytes: 10_000,
            increase_bps: 1e6,
            min_rate_fraction: 0.1,
        };
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link().with_cross(cross)],
            flows: vec![probe(vec![0], 0, 0)],
            seed: 0,
        };
        let err = cfg.materialize_cross(crate::TICKS_PER_SEC).unwrap_err();
        assert!(err.contains("Pareto cross traffic"), "{err}");
    }

    #[test]
    fn propagation_shifts_arrivals_but_not_waits() {
        // An unloaded 2-hop route: propagation delays hop-2 arrivals but
        // queueing waits stay zero, and every packet still gets delivered.
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link().with_propagation(5_000_000), wtp_link()],
            flows: vec![probe(vec![0, 1], 3, 0)],
            seed: 1,
        };
        let out = crate::Session::mesh(&cfg).run();
        assert_eq!(out.per_flow_waits[0].len(), 50);
        assert!(out.per_flow_waits[0].iter().all(|&w| w == 0));
        assert_eq!(out.link_departures, vec![50, 50]);
    }
}
