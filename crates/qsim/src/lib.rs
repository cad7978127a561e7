//! # qsim — the single-link class-based queueing simulator (Study A)
//!
//! Reproduces the §5 experimental setup: one work-conserving link served by
//! a configurable scheduler, N packet sources (one per class) with Pareto
//! interarrivals and the paper's trimodal packet sizes.
//!
//! The flow is deliberately trace-based: a [`traffic::Trace`] is generated
//! once per seed and replayed through every scheduler under test, so
//! scheduler comparisons (and the Eq. (7) feasibility replays) see
//! *identical* input.
//!
//! Every single-link run goes through one replay loop: non-preemptive,
//! work-conserving, arrivals at a decision instant enqueued before the
//! decision. It is generic over the scheduler and the arrival iterator
//! (static dispatch; 1 tick = 1 byte at link rate 1, or any rate you pass),
//! the [`telemetry::Probe`], an admission policy (unbounded queues, or the
//! §7 finite buffer under a [`LossMode`]) and a perturbation (stationary,
//! or a [`scenario::Scenario`] timeline). Probe and perturbation hooks are
//! gated on associated constants, so the default instance compiles to the
//! uninstrumented loop.
//!
//! * [`Session`] — the entry point: workload (trace or live sources) ×
//!   probe × scenario × buffer, one builder chain. It picks the loop
//!   instance from whether the scenario is empty and whether
//!   [`lossy`](Session::lossy) was called.
//! * [`run_trace_on`] / [`run_trace_probed`] — the unbounded, stationary
//!   instance of the loop, for callers holding an unboxed scheduler or a
//!   custom arrival iterator (e.g. a streaming [`traffic::MergedStream`]).
//! * [`tx_ticks`] — the transmission-time rule shared with netsim.
//! * Dynamic scenarios attach to any session: live SDP reconfiguration,
//!   link-rate changes, link faults, class joins/leaves, and load surges.
//! * [`Experiment`] — the Fig. 1/Fig. 2 harness: long-run per-class average
//!   delays and successive-class ratios, averaged over seeds.
//! * [`ShortTimescale`] — the Fig. 3 harness: R_D percentiles per
//!   monitoring timescale τ.
//! * [`Microscope`] — the Fig. 4/Fig. 5 harness: microscopic views I
//!   (interval averages) and II (per-packet delays), plus a roughness
//!   metric quantifying BPR's sawtooth noise.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod experiment;
mod lossy;
mod micro;
mod server;
mod session;
mod shortts;

pub use experiment::{average_rows, Experiment, ExperimentResult, SeedResult};
pub use lossy::{LossMode, LossyReport};
pub use micro::{MicroViews, Microscope};
pub use server::{run_trace_on, run_trace_probed, tx_ticks, Departure};
pub use session::{LossySession, Session, SourcesWorkload, TraceWorkload};
pub use shortts::{ShortTimescale, TimescaleResult};
