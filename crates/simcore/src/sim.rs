//! The simulation runner: an event loop over a [`Model`].

use crate::event::EventQueue;
use crate::time::{Dur, Time};

/// A discrete-event model.
///
/// The model owns all mutable simulation state; the runner feeds it one
/// event at a time, in timestamp order, and collects the follow-up events
/// the model schedules through [`Context`].
pub trait Model {
    /// The event alphabet of this model. The runner hands the model a
    /// clone of the event while the original still holds its queue slot
    /// (see [`Simulation`]), so events should be cheap to clone; plain
    /// `Copy` enums are the intended shape.
    type Event: Clone;

    /// Handles one event occurring at `ctx.now()`.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<'_, Self::Event>);
}

/// Handle given to [`Model::handle`] for reading the clock and scheduling
/// follow-up events.
///
/// Follow-ups go straight into the event queue. While the model runs, the
/// event being handled still sits at the top of the queue; the first
/// follow-up overwrites it in place and later ones are pushed.
pub struct Context<'q, E> {
    now: Time,
    queue: &'q mut EventQueue<E>,
    // True until the first follow-up takes over the handled event's slot.
    handled_on_top: bool,
    stop: bool,
}

impl<E> Context<'_, E> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time: discrete-event
    /// simulations must never schedule into the past.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.enqueue(at, event);
    }

    /// Schedules `event` after a relative delay.
    ///
    /// # Panics
    /// Panics if `now + delay` does not fit in [`Time`]: a wrapped sum
    /// would land in the past.
    #[inline]
    pub fn schedule_in(&mut self, delay: Dur, event: E) {
        let Some(at) = self.now.checked_add(delay) else {
            panic!(
                "schedule_in overflows virtual time: now={}, delay={}",
                self.now, delay
            );
        };
        self.enqueue(at, event);
    }

    /// Requests that the run loop stop after this event is handled.
    pub fn stop(&mut self) {
        self.stop = true;
    }

    #[inline]
    fn enqueue(&mut self, at: Time, event: E) {
        if self.handled_on_top {
            self.handled_on_top = false;
            self.queue.replace_top(at, event);
        } else {
            self.queue.push(at, event);
        }
    }
}

/// Why a [`Simulation`] run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The event budget passed to [`Simulation::run_for_events`] was spent.
    EventBudgetSpent,
    /// The model called [`Context::stop`].
    Stopped,
}

/// A discrete-event simulation: a [`Model`] plus an event queue and a clock.
///
/// Dispatch contract: the earliest pending event (by time, then by
/// scheduling order) is handed to the model while its entry stays at the
/// top of the queue. The model's first follow-up replaces that entry in
/// place; further follow-ups are pushed; with none, the entry is popped
/// after the model returns. Sequence numbers are taken in scheduling order
/// either way, so the pending set, and hence the `(time, seq)` FIFO order,
/// is exactly that of popping first and pushing afterwards.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: Time,
    handled: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: Time::ZERO,
            handled: 0,
        }
    }

    /// Current event-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Current virtual time (timestamp of the last handled event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Mutable access to the model (e.g. to extract collected statistics).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules an initial event from outside the model.
    pub fn schedule(&mut self, at: Time, event: M::Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Handles the earliest pending event under the dispatch contract.
    /// Returns `None` if the queue was empty, else the model's stop
    /// request.
    #[inline]
    fn step(&mut self) -> Option<bool> {
        let (t, ev) = self.queue.peek().map(|(t, ev)| (t, ev.clone()))?;
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        let mut ctx = Context {
            now: t,
            queue: &mut self.queue,
            handled_on_top: true,
            stop: false,
        };
        self.model.handle(ev, &mut ctx);
        let (handled_on_top, stop) = (ctx.handled_on_top, ctx.stop);
        if handled_on_top {
            self.queue.pop();
        }
        self.handled += 1;
        Some(stop)
    }

    /// Runs until the event queue drains or the model stops the loop.
    pub fn run(&mut self) -> RunOutcome {
        loop {
            match self.step() {
                None => return RunOutcome::Drained,
                Some(true) => return RunOutcome::Stopped,
                Some(false) => {}
            }
        }
    }

    /// Runs for at most `budget` further events.
    pub fn run_for_events(&mut self, budget: u64) -> RunOutcome {
        for _ in 0..budget {
            match self.step() {
                None => return RunOutcome::Drained,
                Some(true) => return RunOutcome::Stopped,
                Some(false) => {}
            }
        }
        RunOutcome::EventBudgetSpent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that re-schedules itself `reps` times with spacing `gap`.
    struct Ticker {
        reps: u32,
        gap: Dur,
        fired_at: Vec<Time>,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, _ev: (), ctx: &mut Context<()>) {
            self.fired_at.push(ctx.now());
            if (self.fired_at.len() as u32) < self.reps {
                ctx.schedule_in(self.gap, ());
            }
        }
    }

    #[test]
    fn run_drains_and_advances_clock() {
        let mut sim = Simulation::new(Ticker {
            reps: 5,
            gap: Dur::from_ticks(3),
            fired_at: Vec::new(),
        });
        sim.schedule(Time::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.now(), Time::from_ticks(12));
        assert_eq!(sim.events_handled(), 5);
        let ticks: Vec<u64> = sim
            .into_model()
            .fired_at
            .iter()
            .map(|t| t.ticks())
            .collect();
        assert_eq!(ticks, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn run_for_events_spends_budget() {
        let mut sim = Simulation::new(Ticker {
            reps: 100,
            gap: Dur::from_ticks(1),
            fired_at: Vec::new(),
        });
        sim.schedule(Time::ZERO, ());
        assert_eq!(sim.run_for_events(7), RunOutcome::EventBudgetSpent);
        assert_eq!(sim.events_handled(), 7);
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Context<u32>) {
            if ev == 3 {
                ctx.stop();
            } else {
                ctx.schedule_in(Dur::from_ticks(1), ev + 1);
            }
        }
    }

    #[test]
    fn model_can_stop_the_loop() {
        let mut sim = Simulation::new(Stopper);
        sim.schedule(Time::ZERO, 0);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.now(), Time::from_ticks(3));
    }

    #[test]
    fn stop_still_flushes_followups_to_the_queue() {
        // A model that schedules a follow-up AND stops in the same handle:
        // the follow-up must survive in the queue, in the slot the
        // stopping event vacated.
        struct ScheduleAndStop;
        impl Model for ScheduleAndStop {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut Context<u32>) {
                ctx.schedule_in(Dur::from_ticks(1), ev + 1);
                ctx.stop();
            }
        }
        let mut sim = Simulation::new(ScheduleAndStop);
        sim.schedule(Time::ZERO, 0);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        // Resuming handles the follow-up scheduled by the stopping event.
        assert_eq!(sim.run_for_events(1), RunOutcome::Stopped);
        assert_eq!(sim.now(), Time::from_ticks(1));
        assert_eq!(sim.events_handled(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _ev: (), ctx: &mut Context<()>) {
                ctx.schedule(Time::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule(Time::from_ticks(5), ());
        sim.run_for_events(1);
    }

    #[test]
    #[should_panic(expected = "schedule_in overflows virtual time")]
    fn schedule_in_past_the_end_of_time_panics() {
        // `now + delay` wrapping around would schedule into the past; the
        // check must hold in release builds too, not only under debug
        // overflow checks.
        struct Huge;
        impl Model for Huge {
            type Event = ();
            fn handle(&mut self, _ev: (), ctx: &mut Context<()>) {
                ctx.schedule_in(Dur::MAX, ());
            }
        }
        let mut sim = Simulation::new(Huge);
        sim.schedule(Time::from_ticks(5), ());
        sim.run_for_events(1);
    }

    /// Follow-up delays (0–3 of them, in ticks) and a stop flag for one
    /// handled event; a script cycles through these.
    type Reaction = (Vec<u64>, bool);

    /// Events the scripted model may still schedule follow-ups for, so
    /// every script drains.
    const FOLLOWUP_LIMIT: u64 = 400;

    /// A model driven by a script: the n-th handled event reacts with
    /// `script[n % len]`, and every handled `(time, event)` is logged.
    struct Scripted {
        script: Vec<Reaction>,
        handled: u64,
        next_id: u32,
        log: Vec<(u64, u32)>,
    }

    impl Scripted {
        fn new(script: &[Reaction], first_id: u32) -> Self {
            Scripted {
                script: script.to_vec(),
                handled: 0,
                next_id: first_id,
                log: Vec::new(),
            }
        }

        /// Logs `ev` and returns its follow-ups as `(delay, event)` plus
        /// the stop request.
        fn react(&mut self, now: Time, ev: u32) -> (Vec<(u64, u32)>, bool) {
            self.log.push((now.ticks(), ev));
            let (delays, stop) = &self.script[self.handled as usize % self.script.len()];
            self.handled += 1;
            let mut out = Vec::new();
            if self.handled <= FOLLOWUP_LIMIT {
                for &d in delays {
                    out.push((d, self.next_id));
                    self.next_id += 1;
                }
            }
            (out, *stop)
        }
    }

    impl Model for Scripted {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Context<u32>) {
            let (followups, stop) = self.react(ctx.now(), ev);
            // Stopping before or after scheduling must not matter.
            if stop && ev.is_multiple_of(2) {
                ctx.stop();
            }
            // Alternate the absolute and relative forms of scheduling.
            for (i, (d, e)) in followups.into_iter().enumerate() {
                if i.is_multiple_of(2) {
                    ctx.schedule_in(Dur::from_ticks(d), e);
                } else {
                    ctx.schedule(ctx.now() + Dur::from_ticks(d), e);
                }
            }
            if stop && !ev.is_multiple_of(2) {
                ctx.stop();
            }
        }
    }

    /// The reference event loop: pop the earliest `(time, seq)` entry of
    /// an ordered map, handle it, insert its follow-ups.
    struct Reference {
        model: Scripted,
        queue: std::collections::BTreeMap<(Time, u64), u32>,
        seq: u64,
        now: Time,
        handled: u64,
    }

    impl Reference {
        fn schedule(&mut self, at: Time, ev: u32) {
            self.queue.insert((at, self.seq), ev);
            self.seq += 1;
        }

        /// `run` with `budget = None`, `run_for_events(b)` with `Some(b)`.
        fn run(&mut self, budget: Option<u64>) -> RunOutcome {
            let mut spent = 0;
            loop {
                if budget == Some(spent) {
                    return RunOutcome::EventBudgetSpent;
                }
                let Some(((t, _), ev)) = self.queue.pop_first() else {
                    return RunOutcome::Drained;
                };
                self.now = t;
                let (followups, stop) = self.model.react(t, ev);
                for (d, e) in followups {
                    self.schedule(t + Dur::from_ticks(d), e);
                }
                self.handled += 1;
                spent += 1;
                if stop {
                    return RunOutcome::Stopped;
                }
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// In-place rescheduling is observably the plain pop–handle–push
        /// loop: same handled `(time, event)` sequence, clock, event
        /// count, queue depth and outcome after every `run` or
        /// `run_for_events` call, with zero delays, equal timestamps and
        /// stops mixed in.
        #[test]
        fn dispatch_matches_the_reference_loop(
            initial in prop::collection::vec(0u64..5, 1..6),
            script in prop::collection::vec(
                (
                    prop::collection::vec(0u64..4, 0..4),
                    (0u64..10).prop_map(|x| x == 0),
                ),
                1..12,
            ),
            budgets in prop::collection::vec(0u64..40, 1..8),
        ) {
            let mut sim = Simulation::new(Scripted::new(&script, initial.len() as u32));
            let mut reference = Reference {
                model: Scripted::new(&script, initial.len() as u32),
                queue: Default::default(),
                seq: 0,
                now: Time::ZERO,
                handled: 0,
            };
            for (id, &t) in initial.iter().enumerate() {
                sim.schedule(Time::from_ticks(t), id as u32);
                reference.schedule(Time::from_ticks(t), id as u32);
            }
            // Budget 0 stands for an unbounded `run`.
            for &b in budgets.iter().cycle().take(10_000) {
                let budget = (b > 0).then_some(b);
                let got = match budget {
                    None => sim.run(),
                    Some(b) => sim.run_for_events(b),
                };
                let want = reference.run(budget);
                prop_assert_eq!(got, want);
                prop_assert_eq!(sim.now(), reference.now);
                prop_assert_eq!(sim.events_handled(), reference.handled);
                prop_assert_eq!(sim.queue_depth(), reference.queue.len());
                if got == RunOutcome::Drained {
                    break;
                }
            }
            prop_assert_eq!(sim.queue_depth(), 0, "script did not drain");
            prop_assert_eq!(&sim.into_model().log, &reference.model.log);
        }
    }
}
