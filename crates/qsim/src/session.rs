//! The single-link front door.
//!
//! A [`Session`] composes the axes of a single-link run — workload
//! (materialized trace or live sources), probe, scenario and buffer — over
//! the one replay loop in [`server`](crate::server):
//!
//! ```
//! use qsim::Session;
//! use sched::{Sdp, SchedulerKind};
//! use simcore::Time;
//! use traffic::{Trace, TraceEntry};
//!
//! // Two same-time arrivals: WTP serves the higher class first.
//! let trace = Trace::from_entries(vec![
//!     TraceEntry { at: Time::ZERO, class: 0, size: 100 },
//!     TraceEntry { at: Time::ZERO, class: 1, size: 100 },
//! ]);
//! let mut sched = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
//! let mut order = Vec::new();
//! Session::trace(&trace, 1.0).run(sched.as_mut(), |d| order.push(d.packet.class));
//! assert_eq!(order, vec![1, 0]);
//! ```
//!
//! Optional axes chain before `run`:
//!
//! * [`probe`](Session::probe) attaches any [`telemetry::Probe`] (pass
//!   `&mut sink` to keep ownership for `finish()`);
//! * [`scenario`](Session::scenario) attaches a perturbation timeline
//!   ([`scenario::Scenario`]) — live SDP swaps, link faults, load surges;
//! * [`lossy`](Session::lossy) bounds the buffer (trace workloads only).
//!
//! Run metrics are a first-class output: [`run_metered`](Session::run_metered)
//! attaches a [`telemetry::MetricsRegistry`] and returns it alongside the
//! departures, and [`run_monitored`](Session::run_monitored) adds the
//! online [`telemetry::PddMonitor`] conformance check.
//!
//! The loop instance is picked from what the session already knows: an
//! empty scenario (checked when the run starts) takes the stationary
//! instance, and a session without [`lossy`](Session::lossy) the unbounded
//! one. The default configuration (no probe, empty scenario) is therefore
//! exactly [`run_trace_on`](crate::run_trace_on) — the golden determinism
//! tests pin this.

use scenario::{Scenario, ScenarioRuntime};
use sched::Scheduler;
use simcore::Time;
use telemetry::{MetricsRegistry, MonitorConfig, NoopProbe, PddMonitor, Probe, Tee};
use traffic::{ClassSource, MergedStream, SurgedSource, Trace};

use crate::lossy::{LossMode, LossyReport};
use crate::server::{replay, Admission, Departure, Finite, Stationary, Unbounded};

/// A materialized-trace workload (replay identical input through many
/// schedulers).
#[derive(Debug)]
pub struct TraceWorkload<'a> {
    trace: &'a Trace,
}

/// A live-source workload (O(sources) memory, arrivals drawn on the fly).
#[derive(Debug)]
pub struct SourcesWorkload<'a> {
    sources: &'a [ClassSource],
    horizon: Time,
    base_seed: u64,
}

mod sealed {
    use super::{Admission, Departure, Probe, Scenario, Scheduler};

    /// A session workload: turns itself into arrivals and drives the
    /// replay loop, picking the perturbation instance from the scenario.
    pub trait Workload {
        /// Replays the workload under `scenario` with `admission`.
        fn replay<S, F, P, A>(
            &self,
            scheduler: &mut S,
            rate: f64,
            scenario: &Scenario,
            on_depart: F,
            probe: &mut P,
            admission: &mut A,
        ) where
            S: Scheduler + ?Sized,
            F: FnMut(&Departure),
            P: Probe,
            A: Admission;
    }
}
use sealed::Workload;

impl Workload for TraceWorkload<'_> {
    fn replay<S, F, P, A>(
        &self,
        scheduler: &mut S,
        rate: f64,
        scenario: &Scenario,
        on_depart: F,
        probe: &mut P,
        admission: &mut A,
    ) where
        S: Scheduler + ?Sized,
        F: FnMut(&Departure),
        P: Probe,
        A: Admission,
    {
        assert!(
            !scenario.has_load_surge(),
            "load_surge cannot re-time a prerecorded trace; use Session::sources"
        );
        let arrivals = self.trace.entries().iter().copied();
        if scenario.is_empty() {
            replay(
                scheduler,
                arrivals,
                rate,
                on_depart,
                probe,
                admission,
                &mut Stationary,
            );
        } else {
            let mut rt = ScenarioRuntime::new(scenario, 1, scheduler.num_classes());
            replay(
                scheduler, arrivals, rate, on_depart, probe, admission, &mut rt,
            );
        }
    }
}

impl Workload for SourcesWorkload<'_> {
    /// Load surges are realized by wrapping each source in a
    /// [`SurgedSource`] carrying its class's gap-scale breakpoints; an
    /// empty breakpoint list is the identity, so unperturbed classes draw
    /// exactly their stationary arrivals.
    fn replay<S, F, P, A>(
        &self,
        scheduler: &mut S,
        rate: f64,
        scenario: &Scenario,
        on_depart: F,
        probe: &mut P,
        admission: &mut A,
    ) where
        S: Scheduler + ?Sized,
        F: FnMut(&Departure),
        P: Probe,
        A: Admission,
    {
        let (seed, horizon) = (self.base_seed, self.horizon);
        if scenario.is_empty() {
            let stream = MergedStream::per_source(self.sources.to_vec(), seed, horizon);
            replay(
                scheduler,
                stream,
                rate,
                on_depart,
                probe,
                admission,
                &mut Stationary,
            );
        } else {
            let surged: Vec<SurgedSource<ClassSource>> = self
                .sources
                .iter()
                .map(|s| SurgedSource::new(s.clone(), scenario.gap_scale_breakpoints(s.class())))
                .collect();
            let stream = MergedStream::per_source(surged, seed, horizon);
            let mut rt = ScenarioRuntime::new(scenario, 1, scheduler.num_classes());
            replay(
                scheduler, stream, rate, on_depart, probe, admission, &mut rt,
            );
        }
    }
}

/// A composable single-link simulation run: workload × probe × scenario
/// (× buffer). See the module docs for the axes.
#[derive(Debug)]
pub struct Session<W, P = NoopProbe> {
    workload: W,
    rate: f64,
    scenario: Scenario,
    probe: P,
}

impl<'a> Session<TraceWorkload<'a>> {
    /// Replays `trace` on a link of `rate` bytes/tick.
    pub fn trace(trace: &'a Trace, rate: f64) -> Self {
        Session::new(TraceWorkload { trace }, rate)
    }
}

impl<'a> Session<SourcesWorkload<'a>> {
    /// Streams `sources` until `horizon` on a link of `rate` bytes/tick,
    /// seeding source *i* with [`traffic::per_source_seed`]`(base_seed, i)`
    /// — the workload is identical to replaying
    /// [`Trace::generate_per_source`] with the same arguments.
    pub fn sources(sources: &'a [ClassSource], horizon: Time, base_seed: u64, rate: f64) -> Self {
        let workload = SourcesWorkload {
            sources,
            horizon,
            base_seed,
        };
        Session::new(workload, rate)
    }
}

impl<W> Session<W> {
    fn new(workload: W, rate: f64) -> Self {
        Session {
            workload,
            rate,
            scenario: Scenario::empty(),
            probe: NoopProbe,
        }
    }
}

impl<W, P: Probe> Session<W, P> {
    /// Attaches a probe observing the packet lifecycle (and scenario
    /// events). Pass `&mut sink` to keep ownership of sinks that need a
    /// `finish()` call.
    pub fn probe<Q: Probe>(self, probe: Q) -> Session<W, Q> {
        Session {
            workload: self.workload,
            rate: self.rate,
            scenario: self.scenario,
            probe,
        }
    }

    /// Attaches a perturbation timeline. An empty scenario (the default)
    /// costs nothing: the run takes the stationary loop.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }
}

impl<W: Workload, P: Probe> Session<W, P> {
    /// Runs the replay, invoking `on_depart` for every departure in order.
    /// On a sources workload, scenario load surges re-time the sources via
    /// [`traffic::SurgedSource`].
    ///
    /// # Panics
    /// Panics if a trace workload's scenario contains a load surge (a
    /// prerecorded trace's arrival instants are data, not a rate process —
    /// use [`Session::sources`]) or if a scenario SDP's class count does
    /// not match the scheduler's.
    pub fn run<S: Scheduler + ?Sized>(
        mut self,
        scheduler: &mut S,
        on_depart: impl FnMut(&Departure),
    ) {
        self.workload.replay(
            scheduler,
            self.rate,
            &self.scenario,
            on_depart,
            &mut self.probe,
            &mut Unbounded,
        );
    }
}

impl<W: Workload> Session<W> {
    /// Runs the replay with a [`MetricsRegistry`] attached and returns it
    /// — run metrics as a first-class output next to the departures.
    pub fn run_metered<S: Scheduler + ?Sized>(
        self,
        scheduler: &mut S,
        on_depart: impl FnMut(&Departure),
    ) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.probe(&mut registry).run(scheduler, on_depart);
        registry
    }

    /// Runs the replay with both a [`MetricsRegistry`] and an online
    /// [`PddMonitor`] (configured by `cfg`) attached; the monitor is
    /// finalized before it is returned.
    pub fn run_monitored<S: Scheduler + ?Sized>(
        self,
        cfg: MonitorConfig,
        scheduler: &mut S,
        on_depart: impl FnMut(&Departure),
    ) -> (MetricsRegistry, PddMonitor) {
        let mut registry = MetricsRegistry::new();
        let mut monitor = PddMonitor::new(cfg);
        self.probe(Tee(&mut registry, &mut monitor))
            .run(scheduler, on_depart);
        monitor.finish();
        (registry, monitor)
    }
}

impl<'a, P: Probe> Session<TraceWorkload<'a>, P> {
    /// Bounds the shared buffer to `buffer_bytes` with drop policy `mode`,
    /// turning the run lossy (the §7 extension).
    pub fn lossy(self, buffer_bytes: u64, mode: LossMode) -> LossySession<'a, P> {
        LossySession {
            session: self,
            buffer_bytes,
            mode,
        }
    }
}

/// A [`Session`] with a finite buffer; built by [`Session::lossy`].
#[derive(Debug)]
pub struct LossySession<'a, P = NoopProbe> {
    session: Session<TraceWorkload<'a>, P>,
    buffer_bytes: u64,
    mode: LossMode,
}

impl<P: Probe> LossySession<'_, P> {
    /// Runs the lossy replay and reports per-class arrivals, drops, and
    /// delivered-packet delay summaries.
    ///
    /// Every rejected packet yields an `on_drop` probe record carrying the
    /// queued-byte occupancy at the drop instant — for push-out (PLR) drops
    /// the victim is the *queued* packet that was evicted, and the
    /// occupancy excludes it. Arrivals discarded by a link fault
    /// ([`scenario::DownPolicy::Drop`]) count as drops and report buffer 0.
    ///
    /// # Panics
    /// Panics under the same conditions as [`Session::run`], or if the
    /// buffer cannot hold the largest packet in the trace.
    pub fn run(self, scheduler: &mut dyn Scheduler) -> LossyReport {
        let Session {
            workload,
            rate,
            scenario,
            mut probe,
        } = self.session;
        let mut buffer = Finite::new(self.buffer_bytes, self.mode, scheduler.num_classes());
        workload.replay(scheduler, rate, &scenario, |_| {}, &mut probe, &mut buffer);
        buffer.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::DownPolicy;
    use sched::{SchedulerKind, Sdp};
    use traffic::{IatDist, LoadPlan, SizeDist, TraceEntry};

    fn small_trace() -> Trace {
        Trace::from_entries(
            [
                (0u64, 0u8, 550u32),
                (10, 3, 40),
                (20, 1, 1500),
                (30, 2, 550),
            ]
            .iter()
            .map(|&(t, class, size)| TraceEntry {
                at: Time::from_ticks(t),
                class,
                size,
            })
            .collect(),
        )
    }

    #[test]
    fn default_session_equals_the_probed_loop_with_noop_probe() {
        let tr = small_trace();
        let mut via_session = Vec::new();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::trace(&tr, 1.0).run(s.as_mut(), |d| {
            via_session.push((d.packet.seq, d.start, d.finish))
        });
        let mut via_probed = Vec::new();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        crate::run_trace_probed(
            s.as_mut(),
            tr.entries().iter().copied(),
            1.0,
            |d| via_probed.push((d.packet.seq, d.start, d.finish)),
            &mut NoopProbe,
        );
        assert_eq!(via_session, via_probed);
    }

    #[test]
    fn probe_axis_observes_the_run() {
        let tr = small_trace();
        let mut counter = telemetry::CountingProbe::new(4);
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::trace(&tr, 1.0)
            .probe(&mut counter)
            .run(s.as_mut(), |_| {});
        assert_eq!(counter.report().total_departures(), 4);
    }

    #[test]
    fn lossy_axis_reports_drops() {
        // A same-instant burst is admitted before the head enters service,
        // so a 200-byte buffer holds two of the three packets.
        let tr = Trace::from_entries(vec![
            TraceEntry {
                at: Time::ZERO,
                class: 0,
                size: 100,
            },
            TraceEntry {
                at: Time::ZERO,
                class: 0,
                size: 100,
            },
            TraceEntry {
                at: Time::ZERO,
                class: 0,
                size: 100,
            },
        ]);
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = Session::trace(&tr, 1.0)
            .lossy(200, LossMode::TailDrop)
            .run(s.as_mut());
        assert_eq!(r.arrivals[0], 3);
        assert_eq!(r.drops[0], 1);
    }

    #[test]
    fn sources_session_equals_trace_session() {
        let sources = vec![ClassSource::new(
            0,
            IatDist::deterministic(100.0).unwrap(),
            SizeDist::fixed(50),
        )];
        let horizon = Time::from_ticks(1_000);
        let trace = Trace::generate_per_source(&mut sources.clone(), horizon, 5);
        let mut a = Vec::new();
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        Session::trace(&trace, 1.0).run(s.as_mut(), |d| a.push(d.finish));
        let mut b = Vec::new();
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        Session::sources(&sources, horizon, 5, 1.0).run(s.as_mut(), |d| b.push(d.finish));
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_axis_reaches_the_lossy_path() {
        let tr = Trace::from_entries(vec![
            TraceEntry {
                at: Time::from_ticks(0),
                class: 0,
                size: 100,
            },
            TraceEntry {
                at: Time::from_ticks(200),
                class: 0,
                size: 100,
            },
        ]);
        let sc = Scenario::builder()
            .link_down(Time::from_ticks(150), 0, DownPolicy::Drop)
            .link_up(Time::from_ticks(300), 0)
            .build()
            .unwrap();
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = Session::trace(&tr, 1.0)
            .scenario(sc)
            .lossy(10_000, LossMode::TailDrop)
            .run(s.as_mut());
        assert_eq!(r.drops[0], 1, "the downtime arrival is a fault drop");
    }

    #[test]
    fn metered_run_returns_the_registry() {
        let tr = small_trace();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let mut n = 0u64;
        let reg = Session::trace(&tr, 1.0).run_metered(s.as_mut(), |_| n += 1);
        assert_eq!(n, 4);
        let departures: u64 = (0..4).map(|c| reg.class_total(c).departures).sum();
        assert_eq!(departures, 4);
        assert_eq!(reg.decisions(), 4);
        assert_eq!(reg.num_links(), 1);
    }

    #[test]
    fn metered_registry_matches_counting_probe() {
        let tr = small_trace();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let reg = Session::trace(&tr, 1.0).run_metered(s.as_mut(), |_| {});
        let mut counter = telemetry::CountingProbe::new(4);
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::trace(&tr, 1.0)
            .probe(&mut counter)
            .run(s.as_mut(), |_| {});
        assert_eq!(reg.to_json(), counter.registry().to_json());
    }

    #[test]
    fn monitored_run_flags_the_engineered_miss() {
        // small_trace's class-0 packet is served with zero wait while the
        // later classes queue behind it, so pair 0 (d̄₀/d̄₁ = 0) inverts
        // against any target > 1.
        let tr = small_trace();
        let mut cfg = telemetry::MonitorConfig::new(10_000, 0.25, vec![2.0, 2.0, 2.0]);
        cfg.min_samples = 1;
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let (reg, monitor) = Session::trace(&tr, 1.0).run_monitored(cfg, s.as_mut(), |_| {});
        assert_eq!(reg.class_total(0).departures, 1);
        assert_eq!(monitor.windows_closed(), 1);
        assert!(
            monitor
                .violations()
                .iter()
                .any(|v| v.kind == telemetry::ViolationKind::Inversion),
            "expected an inversion: {:?}",
            monitor.violations()
        );
    }

    #[test]
    #[should_panic(expected = "load_surge cannot re-time a prerecorded trace")]
    fn load_surge_on_a_trace_is_rejected() {
        let tr = small_trace();
        let sc = Scenario::builder()
            .load_surge(Time::from_ticks(10), 0, 0.5)
            .build()
            .unwrap();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::trace(&tr, 1.0)
            .scenario(sc)
            .run(s.as_mut(), |_| {});
    }

    fn paper_sources(rho: f64) -> Vec<ClassSource> {
        LoadPlan::paper_study_a(rho)
            .unwrap()
            .pareto_sources()
            .unwrap()
    }

    #[test]
    fn streaming_equals_trace_replay() {
        let horizon = Time::from_ticks(2_000_000);
        let sources = paper_sources(0.9);
        // Trace path.
        let mut src_copy = sources.clone();
        let trace = Trace::generate_per_source(&mut src_copy, horizon, 21);
        let mut s1 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let mut trace_deps = Vec::new();
        crate::Session::trace(&trace, 1.0).run(s1.as_mut(), |d| {
            trace_deps.push((d.packet.class, d.packet.arrival, d.start));
        });
        // Streaming path.
        let mut s2 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let mut stream_deps = Vec::new();
        crate::Session::sources(&sources, horizon, 21, 1.0).run(s2.as_mut(), |d| {
            stream_deps.push((d.packet.class, d.packet.arrival, d.start));
        });
        assert_eq!(trace_deps.len(), stream_deps.len());
        assert_eq!(trace_deps, stream_deps);
    }

    #[test]
    fn streaming_handles_single_source() {
        let sources = vec![ClassSource::new(
            0,
            IatDist::deterministic(100.0).unwrap(),
            SizeDist::fixed(50),
        )];
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 1.0]).unwrap(), 1.0);
        let mut count = 0;
        crate::Session::sources(&sources, Time::from_ticks(1_000), 0, 1.0).run(s.as_mut(), |d| {
            count += 1;
            assert_eq!(d.wait().ticks(), 0); // load 0.5, deterministic: no queueing
        });
        assert_eq!(count, 10);
    }

    #[test]
    fn empty_sources_do_nothing() {
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let mut count = 0;
        crate::Session::sources(&[], Time::from_ticks(100), 0, 1.0).run(s.as_mut(), |_| count += 1);
        assert_eq!(count, 0);
    }
}
