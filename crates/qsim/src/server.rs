//! The single-link replay loop.
//!
//! Every single-link run goes through one loop, [`replay`]: non-preemptive,
//! work-conserving, arrivals at a decision instant enqueued before the
//! decision. Besides the scheduler, the arrival iterator and the [`Probe`],
//! it is generic over two policies that change only who is admitted and
//! what state the link is in:
//!
//! * an [`Admission`] — [`Unbounded`] queues (the §3 lossless regime) or a
//!   [`Finite`] shared buffer with a [`LossMode`] (the §7 extension);
//! * a [`Perturbation`] — [`Stationary`], whose hooks compile away like
//!   [`NoopProbe`]'s, or a [`ScenarioRuntime`] timeline.

use scenario::{Command, DownPolicy, ScenarioRuntime};
use sched::{Packet, ReconfigureError, Scheduler};
use simcore::{Dur, Time};
use telemetry::{NoopProbe, PacketId, Probe};
use traffic::TraceEntry;

use crate::lossy::{LossMode, LossyReport};

/// One packet departure from the link.
#[derive(Debug, Clone, Copy)]
pub struct Departure {
    /// The packet as the scheduler saw it.
    pub packet: Packet,
    /// When transmission began.
    pub start: Time,
    /// When transmission completed (start + size/rate).
    pub finish: Time,
}

impl Departure {
    /// Queueing (waiting) delay: arrival → start of transmission. This is
    /// the paper's "queueing delay" metric.
    pub fn wait(&self) -> Dur {
        self.start - self.packet.arrival
    }

    /// Sojourn time: arrival → end of transmission.
    pub fn sojourn(&self) -> Dur {
        self.finish - self.packet.arrival
    }
}

/// Transmission time of `size` bytes at `rate` bytes/tick, at least 1 tick.
#[inline]
pub fn tx_ticks(size: u32, rate: f64) -> u64 {
    ((size as f64 / rate).round() as u64).max(1)
}

/// Replays any stream of time-ordered arrivals through any scheduler on a
/// link of `rate` bytes/tick, invoking `on_depart` for every departure in
/// order.
///
/// Semantics (matching the paper's model):
/// * non-preemptive: once transmission starts it completes;
/// * work-conserving: the link never idles while a packet is queued;
/// * arrivals at exactly a decision instant are enqueued *before* the
///   decision (arrival-before-departure tie rule);
/// * queues are unbounded (the §3 lossless ECN-regulated regime).
///
/// Both the scheduler and the arrival source are statically dispatched, so
/// the per-packet enqueue/dequeue calls inline into the loop. `arrivals`
/// may be a materialized trace (`trace.entries().iter().copied()`) or a
/// lazy generator such as [`traffic::MergedStream`], which replays the
/// identical workload in O(sources) memory.
/// [`qsim::Session`](crate::Session) is the front door over this loop that
/// adds scenarios and finite buffers.
///
/// `arrivals` must yield entries in nondecreasing time order; the k-way
/// merge and the trace generators both guarantee that.
#[inline]
pub fn run_trace_on<S, I, F>(scheduler: &mut S, arrivals: I, rate: f64, on_depart: F)
where
    S: Scheduler + ?Sized,
    I: IntoIterator<Item = TraceEntry>,
    F: FnMut(&Departure),
{
    run_trace_probed(scheduler, arrivals, rate, on_depart, &mut NoopProbe)
}

/// [`run_trace_on`] with a [`Probe`] observing the packet lifecycle.
///
/// Every probe interaction is gated on the associated constant
/// [`Probe::ENABLED`], so with [`NoopProbe`] this monomorphizes to exactly
/// the uninstrumented loop — [`run_trace_on`] *is* this function with the
/// no-op probe, and the tracked perf baseline holds the overhead to zero.
///
/// Probe event stream per packet (single link, so `span == seq`, `hop` 0):
/// `on_arrival` and `on_enqueue` at the arrival instant (unbounded queues —
/// everything offered is admitted), `on_decision` at the decision instant
/// with the scheduler's [`decision_values`](Scheduler::decision_values)
/// audit record, and `on_depart` with `eol = true` at the finish instant.
#[inline]
pub fn run_trace_probed<S, I, F, P>(
    scheduler: &mut S,
    arrivals: I,
    rate: f64,
    on_depart: F,
    probe: &mut P,
) where
    S: Scheduler + ?Sized,
    I: IntoIterator<Item = TraceEntry>,
    F: FnMut(&Departure),
    P: Probe,
{
    replay(
        scheduler,
        arrivals,
        rate,
        on_depart,
        probe,
        &mut Unbounded,
        &mut Stationary,
    )
}

/// The buffer policy of [`replay`]: counts what is offered and decides
/// what is admitted. `pub` only because the sealed session workload trait
/// names it in a bound; the module is private.
pub trait Admission {
    /// Sees an arrival offered to the link (its class is active).
    fn on_arrival(&mut self, _e: &TraceEntry) {}

    /// Counts an offered arrival of `class` discarded by a link fault.
    fn on_fault_drop(&mut self, _class: u8) {}

    /// Makes room for `e` (`id` is its packet id) and says whether it is
    /// enqueued. Drops — of the arrival or of pushed-out queued packets —
    /// are reported to `probe`.
    fn admit<S: Scheduler + ?Sized, P: Probe>(
        &mut self,
        _scheduler: &mut S,
        _e: &TraceEntry,
        _id: PacketId,
        _probe: &mut P,
    ) -> bool {
        true
    }

    /// Sees the queue at a decision instant, before the dequeue.
    fn on_decision<S: Scheduler + ?Sized>(&mut self, _scheduler: &S) {}

    /// Sees a packet enter transmission at `start`.
    fn on_depart(&mut self, _packet: &Packet, _start: Time) {}
}

/// Unbounded queues: everything offered is admitted.
pub(crate) struct Unbounded;

impl Admission for Unbounded {}

/// A shared buffer of `buffer_bytes` queued bytes (the packet in service
/// does not occupy it) under a [`LossMode`], accounted in a [`LossyReport`].
pub(crate) struct Finite {
    buffer_bytes: u64,
    mode: LossMode,
    /// What the run offered, dropped and delivered.
    pub(crate) report: LossyReport,
}

impl Finite {
    /// An empty buffer for `num_classes` classes.
    pub(crate) fn new(buffer_bytes: u64, mode: LossMode, num_classes: usize) -> Self {
        Finite {
            buffer_bytes,
            mode,
            report: LossyReport::new(num_classes),
        }
    }
}

impl Admission for Finite {
    fn on_arrival(&mut self, e: &TraceEntry) {
        assert!(
            u64::from(e.size) <= self.buffer_bytes,
            "buffer ({} B) smaller than packet ({} B)",
            self.buffer_bytes,
            e.size
        );
        self.report.arrivals[e.class as usize] += 1;
    }

    fn on_fault_drop(&mut self, class: u8) {
        self.report.drops[class as usize] += 1;
    }

    /// Tail-drop drops the arrival on overflow. PLR picks the class whose
    /// normalized loss fraction is furthest below its target and pushes
    /// out that class's newest queued packet, repeating until the arrival
    /// fits; it drops the arrival itself when that class wins or when the
    /// scheduler cannot push out. A push-out drop reports the evicted
    /// packet, with the occupancy excluding it.
    fn admit<S: Scheduler + ?Sized, P: Probe>(
        &mut self,
        s: &mut S,
        e: &TraceEntry,
        id: PacketId,
        probe: &mut P,
    ) -> bool {
        let class = e.class as usize;
        if let LossMode::Plr(d) = &mut self.mode {
            d.on_arrival(class);
        }
        while s.total_backlog_bytes() + u64::from(e.size) > self.buffer_bytes {
            let pushed_out = match &mut self.mode {
                LossMode::TailDrop => None,
                LossMode::Plr(d) => {
                    let mut candidates: Vec<usize> = (0..s.num_classes())
                        .filter(|&c| s.backlog_packets(c) > 0)
                        .collect();
                    if !candidates.contains(&class) {
                        candidates.push(class);
                    }
                    let victim = d.preview_victim(&candidates).expect("nonempty candidates");
                    let pushed = (victim != class).then(|| s.drop_newest(victim)).flatten();
                    d.record_drop(pushed.map_or(class, |v| v.class as usize));
                    pushed
                }
            };
            let dropped = pushed_out.map_or(id, |v| PacketId::single_link(v.seq, v.class, v.size));
            self.report.drops[dropped.class as usize] += 1;
            if P::ENABLED {
                probe.on_drop(e.at, dropped, s.total_backlog_bytes(), self.buffer_bytes);
            }
            if pushed_out.is_none() {
                return false;
            }
        }
        true
    }

    fn on_decision<S: Scheduler + ?Sized>(&mut self, scheduler: &S) {
        let backlog = scheduler.total_backlog_bytes();
        self.report.max_backlog_bytes = self.report.max_backlog_bytes.max(backlog);
    }

    fn on_depart(&mut self, packet: &Packet, start: Time) {
        self.report.delays[packet.class as usize].push(start.since(packet.arrival).as_f64());
    }
}

/// The link-state policy of [`replay`]: what a perturbation timeline does
/// to the scheduler, the link rate and the classes over time. The default
/// methods are the stationary link.
pub(crate) trait Perturbation {
    /// `false` compiles every hook out of the loop.
    const ENABLED: bool;

    /// Applies the events due by `now`: SDP swaps reconfigure the scheduler
    /// (schedulers without SDPs keep running; a class-count mismatch
    /// panics), rate changes retime future transmissions.
    fn advance<S: Scheduler + ?Sized, P: Probe>(
        &mut self,
        _: Time,
        _: &mut S,
        _: &mut f64,
        _: &mut P,
    ) {
    }

    /// Whether `class` currently offers traffic.
    fn admits(&self, _class: u8) -> bool {
        true
    }

    /// Whether the link is down and discards arrivals
    /// ([`DownPolicy::Drop`]) rather than holding them.
    fn drops_arrivals(&self) -> bool {
        false
    }

    /// While the link is down, the next timeline event: service stalls
    /// until then.
    fn stalled_until(&self) -> Option<Time> {
        None
    }
}

/// No perturbation: the link and the classes never change.
pub(crate) struct Stationary;

impl Perturbation for Stationary {
    const ENABLED: bool = false;
}

impl Perturbation for ScenarioRuntime {
    const ENABLED: bool = true;

    fn advance<S: Scheduler + ?Sized, P: Probe>(
        &mut self,
        now: Time,
        scheduler: &mut S,
        rate: &mut f64,
        probe: &mut P,
    ) {
        self.apply_due(now, probe, |cmd| match cmd {
            Command::Reconfigure(sdp) => match scheduler.reconfigure(&sdp) {
                Ok(()) | Err(ReconfigureError::Unsupported(_)) => {}
                Err(e) => panic!("scenario set_sdp: {e}"),
            },
            Command::SetLinkRate { rate: r, .. } => {
                *rate = r;
                scheduler.set_link_rate(r);
            }
            // Link state lives in the runtime; the loop queries it.
            Command::LinkDown { .. } | Command::LinkUp { .. } => {}
        });
    }

    fn admits(&self, class: u8) -> bool {
        ScenarioRuntime::admits(self, class)
    }

    fn drops_arrivals(&self) -> bool {
        !self.link_up(0) && self.down_policy(0) == DownPolicy::Drop
    }

    /// Validation guarantees a restoring `LinkUp`, so a stall always ends.
    fn stalled_until(&self) -> Option<Time> {
        let down = !self.link_up(0);
        down.then(|| {
            self.next_at()
                .expect("validated scenario restores the link")
        })
    }
}

/// The single-link loop behind every run. A downed link stalls service —
/// the clock jumps to the next timeline event until the matching `LinkUp`
/// — while the packet in flight completes at the rate it started with.
#[inline]
pub(crate) fn replay<S, I, F, P, A, X>(
    scheduler: &mut S,
    arrivals: I,
    mut rate: f64,
    mut on_depart: F,
    probe: &mut P,
    admission: &mut A,
    timeline: &mut X,
) where
    S: Scheduler + ?Sized,
    I: IntoIterator<Item = TraceEntry>,
    F: FnMut(&Departure),
    P: Probe,
    A: Admission,
    X: Perturbation,
{
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    let mut arrivals = arrivals.into_iter().peekable();
    let mut free = Time::ZERO;
    let mut seq = 0u64;
    // Scratch for the decision audit, reused across decisions.
    let mut values: Vec<(usize, f64)> = Vec::new();
    loop {
        if scheduler.is_empty() {
            let Some(e) = arrivals.next() else { break };
            free = free.max(e.at);
            if !offer(
                scheduler, e, &mut seq, &mut rate, probe, admission, timeline,
            ) {
                continue; // the lone arrival was filtered or dropped
            }
        }
        while let Some(e) = arrivals.next_if(|e| e.at <= free) {
            offer(
                scheduler, e, &mut seq, &mut rate, probe, admission, timeline,
            );
        }
        if X::ENABLED {
            timeline.advance(free, scheduler, &mut rate, probe);
            if let Some(resume) = timeline.stalled_until() {
                free = resume;
                continue;
            }
        }
        admission.on_decision(scheduler);
        if P::ENABLED && P::WANTS_DECISION_VALUES {
            values.clear();
            scheduler.decision_values(free, &mut values);
        }
        let pkt = scheduler
            .dequeue(free)
            .expect("work-conserving scheduler with backlog must dequeue");
        let finish = free + Dur::from_ticks(tx_ticks(pkt.size, rate));
        if P::ENABLED {
            let id = PacketId::single_link(pkt.seq, pkt.class, pkt.size);
            probe.on_decision(free, scheduler.name(), id, &values);
            probe.on_depart(id, pkt.arrival, free, finish, true);
        }
        admission.on_depart(&pkt, free);
        on_depart(&Departure {
            packet: pkt,
            start: free,
            finish,
        });
        free = finish;
    }
}

/// Offers one arrival to the link and says whether it was enqueued. A
/// class that left is filtered with no sequence number and no probe
/// record; an arrival on a link down under [`DownPolicy::Drop`] takes a
/// sequence number and is dropped with buffer 0 (a fault, not an overflow).
#[inline(always)]
fn offer<S, P, A, X>(
    scheduler: &mut S,
    e: TraceEntry,
    seq: &mut u64,
    rate: &mut f64,
    probe: &mut P,
    admission: &mut A,
    timeline: &mut X,
) -> bool
where
    S: Scheduler + ?Sized,
    P: Probe,
    A: Admission,
    X: Perturbation,
{
    if X::ENABLED {
        timeline.advance(e.at, scheduler, rate, probe);
        if !timeline.admits(e.class) {
            return false;
        }
    }
    admission.on_arrival(&e);
    let id = PacketId::single_link(*seq, e.class, e.size);
    *seq += 1;
    if P::ENABLED {
        probe.on_arrival(e.at, id);
    }
    if X::ENABLED && timeline.drops_arrivals() {
        admission.on_fault_drop(e.class);
        if P::ENABLED {
            probe.on_drop(e.at, id, scheduler.total_backlog_bytes(), 0);
        }
        return false;
    }
    if !admission.admit(scheduler, &e, id, probe) {
        return false;
    }
    if P::ENABLED {
        probe.on_enqueue(e.at, id);
    }
    scheduler.enqueue(Packet::new(id.seq, e.class, e.size, e.at));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LossMode;
    use scenario::Scenario;
    use sched::{Fcfs, SchedulerKind, Sdp};
    use traffic::{ClassSource, Trace, TraceEntry};

    fn trace(entries: &[(u64, u8, u32)]) -> Trace {
        Trace::from_entries(
            entries
                .iter()
                .map(|&(t, class, size)| TraceEntry {
                    at: Time::from_ticks(t),
                    class,
                    size,
                })
                .collect(),
        )
    }

    fn t(ticks: u64) -> Time {
        Time::from_ticks(ticks)
    }

    #[test]
    fn fcfs_waits_are_cumulative_backlog() {
        let tr = trace(&[(0, 0, 100), (0, 1, 100), (0, 0, 100)]);
        let mut s = Fcfs::new(2);
        let mut waits = Vec::new();
        crate::Session::trace(&tr, 1.0).run(&mut s, |d| waits.push(d.wait().ticks()));
        assert_eq!(waits, vec![0, 100, 200]);
    }

    #[test]
    fn idle_gaps_reset_the_clock() {
        let tr = trace(&[(0, 0, 50), (500, 0, 50)]);
        let mut s = Fcfs::new(1);
        let mut starts = Vec::new();
        crate::Session::trace(&tr, 1.0).run(&mut s, |d| starts.push(d.start.ticks()));
        assert_eq!(starts, vec![0, 500]);
    }

    #[test]
    fn rate_scales_transmission_time() {
        let tr = trace(&[(0, 0, 100), (0, 0, 100)]);
        let mut s = Fcfs::new(1);
        let mut finishes = Vec::new();
        crate::Session::trace(&tr, 2.0).run(&mut s, |d| finishes.push(d.finish.ticks()));
        assert_eq!(finishes, vec![50, 100]);
    }

    #[test]
    fn sojourn_includes_transmission() {
        let tr = trace(&[(10, 0, 100)]);
        let mut s = Fcfs::new(1);
        crate::Session::trace(&tr, 1.0).run(&mut s, |d| {
            assert_eq!(d.wait().ticks(), 0);
            assert_eq!(d.sojourn().ticks(), 100);
        });
    }

    #[test]
    fn arrival_at_decision_instant_is_seen() {
        // Packet B arrives exactly when A finishes; WTP must consider it.
        let tr = trace(&[(0, 0, 100), (100, 1, 100)]);
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mut count = 0;
        crate::Session::trace(&tr, 1.0).run(s.as_mut(), |d| {
            count += 1;
            if d.packet.class == 1 {
                assert_eq!(d.start.ticks(), 100);
            }
        });
        assert_eq!(count, 2);
    }

    /// Records the full probe event stream as comparable strings.
    #[derive(Default)]
    struct Tape(Vec<String>);

    impl telemetry::Probe for Tape {
        fn on_arrival(&mut self, at: Time, id: PacketId) {
            self.0.push(format!("arr t={} seq={}", at.ticks(), id.seq));
        }
        fn on_enqueue(&mut self, at: Time, id: PacketId) {
            self.0.push(format!("enq t={} seq={}", at.ticks(), id.seq));
        }
        fn on_decision(
            &mut self,
            at: Time,
            scheduler: &'static str,
            winner: PacketId,
            values: &[(usize, f64)],
        ) {
            self.0.push(format!(
                "dec t={} {} win={} v={:?}",
                at.ticks(),
                scheduler,
                winner.class,
                values
            ));
        }
        fn on_depart(&mut self, id: PacketId, _a: Time, start: Time, finish: Time, eol: bool) {
            self.0.push(format!(
                "dep seq={} start={} finish={} eol={}",
                id.seq,
                start.ticks(),
                finish.ticks(),
                eol
            ));
        }
    }

    #[test]
    fn probed_replay_reports_the_full_lifecycle_in_order() {
        let tr = trace(&[(0, 0, 100), (0, 1, 100)]);
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mut tape = Tape::default();
        let mut deps = Vec::new();
        run_trace_probed(
            s.as_mut(),
            tr.entries().iter().copied(),
            1.0,
            |d| deps.push(d.packet.class),
            &mut tape,
        );
        assert_eq!(deps, vec![1, 0]);
        assert_eq!(
            tape.0,
            vec![
                "arr t=0 seq=0",
                "enq t=0 seq=0",
                "arr t=0 seq=1",
                "enq t=0 seq=1",
                // Both waited 0 at t=0; WTP's audit shows the zero-priority
                // tie and the tie rule sends class 1 out first.
                "dec t=0 WTP win=1 v=[(0, 0.0), (1, 0.0)]",
                "dep seq=1 start=0 finish=100 eol=true",
                "dec t=100 WTP win=0 v=[(0, 100.0)]",
                "dep seq=0 start=100 finish=200 eol=true",
            ]
        );
    }

    #[test]
    fn probed_replay_departures_match_unprobed() {
        let tr = trace(&[
            (0, 0, 550),
            (10, 3, 40),
            (20, 1, 1500),
            (30, 2, 550),
            (2000, 0, 40),
        ]);
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::PIFO_ALL)
        {
            let mut plain = Vec::new();
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            crate::Session::trace(&tr, 1.0).run(s.as_mut(), |d| {
                plain.push((d.packet.seq, d.start, d.finish))
            });
            let mut probed = Vec::new();
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            let mut counter = telemetry::CountingProbe::new(4);
            run_trace_probed(
                s.as_mut(),
                tr.entries().iter().copied(),
                1.0,
                |d| probed.push((d.packet.seq, d.start, d.finish)),
                &mut counter,
            );
            assert_eq!(plain, probed, "{} diverged under probing", kind.name());
            let report = counter.report();
            assert_eq!(report.total_departures(), 5, "{}", kind.name());
            assert_eq!(report.decisions, 5, "{}", kind.name());
        }
    }

    #[test]
    fn all_schedulers_complete_the_same_trace() {
        let tr = trace(&[
            (0, 0, 550),
            (10, 3, 40),
            (20, 1, 1500),
            (30, 2, 550),
            (2000, 0, 40),
        ]);
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::PIFO_ALL)
        {
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            let mut n = 0;
            crate::Session::trace(&tr, 1.0).run(s.as_mut(), |_| n += 1);
            assert_eq!(n, 5, "{} dropped packets", kind.name());
        }
    }

    #[test]
    fn set_sdp_flips_the_winner_mid_run() {
        // At the t=100 decision the class-0 head has waited 99 and the
        // class-1 head 40: under s = [1, 2] class 0 wins (99 > 80), but
        // after the live swap to s = [1, 8] at t=50 class 1 accrues so fast
        // it overtakes (320 > 99) — same queues, same waiting times.
        let tr = trace(&[(0, 1, 100), (1, 0, 100), (60, 1, 100)]);
        let sc = Scenario::builder()
            .set_sdp(t(50), Sdp::new(&[1.0, 8.0]).unwrap())
            .build()
            .unwrap();
        let mut with = Vec::new();
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        crate::Session::trace(&tr, 1.0)
            .scenario(sc)
            .run(s.as_mut(), |d| with.push(d.packet.class));
        let mut without = Vec::new();
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        crate::Session::trace(&tr, 1.0)
            .scenario(Scenario::empty())
            .run(s.as_mut(), |d| without.push(d.packet.class));
        assert_eq!(
            without,
            vec![1, 0, 1],
            "stationary WTP serves the long wait"
        );
        assert_eq!(with, vec![1, 1, 0], "reconfigured WTP promotes class 1");
    }

    #[test]
    fn set_link_rate_retimes_future_transmissions_only() {
        // 100 B at rate 1 take 100 ticks; after the doubling at t=150 they
        // take 50. The packet in flight at the switch completes at rate 1.
        let tr = trace(&[(0, 0, 100), (0, 0, 100), (0, 0, 100)]);
        let sc = Scenario::builder()
            .set_link_rate(t(150), 0, 2.0)
            .build()
            .unwrap();
        let mut finishes = Vec::new();
        let mut s = Fcfs::new(1);
        crate::Session::trace(&tr, 1.0)
            .scenario(sc)
            .run(&mut s, |d| finishes.push(d.finish.ticks()));
        // First two at rate 1 (0→100, 100→200; the event at t=150 fires at
        // the t=100 decision? No: due events are applied at decision
        // instants, so at t=100 the rate is still 1), third at rate 2.
        assert_eq!(finishes, vec![100, 200, 250]);
    }

    #[test]
    fn link_down_hold_stalls_service_and_resumes() {
        // Link down [100, 300): the packet arriving at 150 is held and
        // serves at 300. Non-preemptive: the packet in flight at 100 — none
        // here; first arrival is during downtime.
        let tr = trace(&[(150, 0, 100), (160, 0, 100)]);
        let sc = Scenario::builder()
            .link_down(t(100), 0, DownPolicy::Hold)
            .link_up(t(300), 0)
            .build()
            .unwrap();
        let mut out = Vec::new();
        let mut s = Fcfs::new(1);
        crate::Session::trace(&tr, 1.0)
            .scenario(sc)
            .run(&mut s, |d| out.push((d.start.ticks(), d.finish.ticks())));
        assert_eq!(out, vec![(300, 400), (400, 500)]);
    }

    #[test]
    fn link_down_drop_discards_arrivals_but_completes_in_flight() {
        // The t=0 packet is in flight when the link drops at 50 — it
        // completes (non-preemptive). The t=60 arrival is discarded; the
        // t=400 arrival (after LinkUp at 200) is served normally.
        let tr = trace(&[(0, 0, 100), (60, 0, 100), (400, 0, 100)]);
        let sc = Scenario::builder()
            .link_down(t(50), 0, DownPolicy::Drop)
            .link_up(t(200), 0)
            .build()
            .unwrap();
        let mut out = Vec::new();
        let mut s = Fcfs::new(1);
        let mut counter = telemetry::CountingProbe::new(1);
        crate::Session::trace(&tr, 1.0)
            .probe(&mut counter)
            .scenario(sc)
            .run(&mut s, |d| out.push(d.start.ticks()));
        assert_eq!(out, vec![0, 400]);
        let report = counter.report();
        assert_eq!(report.classes[0].arrivals, 3);
        assert_eq!(report.classes[0].drops, 1);
        assert_eq!(report.scenario_events, 2);
    }

    #[test]
    fn class_leave_filters_arrivals_and_join_readmits() {
        let tr = trace(&[(0, 1, 10), (100, 1, 10), (300, 1, 10)]);
        let sc = Scenario::builder()
            .class_leave(t(50), 1)
            .class_join(t(200), 1)
            .build()
            .unwrap();
        let mut served = 0;
        let mut s = Fcfs::new(2);
        crate::Session::trace(&tr, 1.0)
            .scenario(sc)
            .run(&mut s, |_| served += 1);
        assert_eq!(served, 2, "the t=100 arrival fell in the leave window");
    }

    #[test]
    fn lossy_scenario_flap_counts_fault_drops() {
        let tr = trace(&[(0, 0, 100), (150, 0, 100), (160, 1, 100), (500, 1, 100)]);
        let sc = Scenario::builder()
            .link_down(t(120), 0, DownPolicy::Drop)
            .link_up(t(300), 0)
            .build()
            .unwrap();
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = crate::Session::trace(&tr, 1.0)
            .scenario(sc)
            .lossy(10_000, LossMode::TailDrop)
            .run(s.as_mut());
        assert_eq!(r.arrivals, vec![2, 2]);
        assert_eq!(r.drops, vec![1, 1], "both downtime arrivals discarded");
        assert_eq!(r.delays[0].count() + r.delays[1].count(), 2);
    }

    #[test]
    fn streaming_scenario_surge_increases_arrivals() {
        let sources = vec![ClassSource::new(
            0,
            traffic::IatDist::deterministic(100.0).unwrap(),
            traffic::SizeDist::fixed(10),
        )];
        let sc = Scenario::builder()
            .load_surge(t(5_000), 0, 0.25)
            .build()
            .unwrap();
        let mut n_plain = 0u64;
        let mut s = Fcfs::new(1);
        crate::Session::sources(&sources, t(10_000), 7, 1.0)
            .scenario(Scenario::empty())
            .run(&mut s, |_| n_plain += 1);
        let mut n_surged = 0u64;
        let mut s = Fcfs::new(1);
        crate::Session::sources(&sources, t(10_000), 7, 1.0)
            .scenario(sc)
            .run(&mut s, |_| n_surged += 1);
        // 100 arrivals stationary; the surge quarters the gap from t=5000,
        // so the second half packs ~4x the arrivals in.
        assert_eq!(n_plain, 100);
        assert_eq!(n_surged, 50 + 200);
    }

    #[test]
    #[should_panic(expected = "scenario set_sdp")]
    fn sdp_class_count_mismatch_panics_loudly() {
        let tr = trace(&[(0, 0, 10), (20, 0, 10)]);
        let sc = Scenario::builder()
            .set_sdp(t(5), Sdp::paper_default()) // 4 classes vs 2
            .build()
            .unwrap();
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        crate::Session::trace(&tr, 1.0)
            .scenario(sc)
            .run(s.as_mut(), |_| {});
    }

    #[test]
    fn unsupported_scheduler_ignores_set_sdp() {
        // FCFS has no SDPs; the swap is a recorded no-op, not an error.
        let tr = trace(&[(0, 0, 10), (20, 0, 10)]);
        let sc = Scenario::builder()
            .set_sdp(t(5), Sdp::new(&[1.0, 1.0]).unwrap())
            .build()
            .unwrap();
        let mut s = Fcfs::new(1);
        let mut n = 0;
        crate::Session::trace(&tr, 1.0)
            .scenario(sc)
            .run(&mut s, |_| n += 1);
        assert_eq!(n, 2);
    }
}
