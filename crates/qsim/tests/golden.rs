//! Golden-determinism regression test for the optimized replay paths.
//!
//! The perf work introduced three ways to drive the same single-link
//! simulation: the `dyn` trace replay (`Session::trace`), the
//! monomorphized generic loop (`run_trace_on` via
//! `SchedulerKind::build_and_visit`), and the streaming source path
//! (`Session::sources`, O(sources) memory). They must be **bit-identical**: for
//! a fixed seed, every scheduler must produce exactly the same departure
//! sequence — same packets, same start and finish ticks — on all three.
//!
//! The full `(seq, class, start, finish)` stream is FNV-hashed so a
//! mismatch anywhere in hundreds of thousands of departures fails loudly.

use qsim::{run_trace_on, Departure, Session};
use sched::{Scheduler, SchedulerKind, SchedulerVisitor, Sdp};
use simcore::Time;
use traffic::{LoadPlan, Trace};

const HORIZON_TICKS: u64 = 2_000_000;
const SEEDS: [u64; 2] = [11, 42];

/// FNV-1a over the departure stream.
#[derive(Default)]
struct DepartureHash(u64);

impl DepartureHash {
    fn new() -> Self {
        DepartureHash(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, d: &Departure) {
        for word in [
            d.packet.seq,
            d.packet.class as u64,
            d.packet.size as u64,
            d.packet.arrival.ticks(),
            d.start.ticks(),
            d.finish.ticks(),
        ] {
            for b in word.to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

fn sources(rho: f64) -> Vec<traffic::ClassSource> {
    LoadPlan::paper_study_a(rho)
        .unwrap()
        .pareto_sources()
        .unwrap()
}

/// Hash of the seed-implementation path: `dyn` scheduler over a
/// materialized per-source trace.
fn dyn_trace_hash(kind: SchedulerKind, rho: f64, seed: u64) -> (u64, usize) {
    let trace =
        Trace::generate_per_source(&mut sources(rho), Time::from_ticks(HORIZON_TICKS), seed);
    let mut s = kind.build(&Sdp::paper_default(), 1.0);
    let mut h = DepartureHash::new();
    let mut n = 0usize;
    Session::trace(&trace, 1.0).run(s.as_mut(), |d| {
        h.push(d);
        n += 1;
    });
    (h.0, n)
}

/// Hash of the monomorphized path: unboxed scheduler, generic loop over
/// the same materialized trace.
fn generic_trace_hash(kind: SchedulerKind, rho: f64, seed: u64) -> (u64, usize) {
    struct Replay {
        trace: Trace,
    }
    impl SchedulerVisitor for Replay {
        type Out = (u64, usize);
        fn visit<S: Scheduler>(self, mut s: S) -> (u64, usize) {
            let mut h = DepartureHash::new();
            let mut n = 0usize;
            run_trace_on(&mut s, self.trace.entries().iter().copied(), 1.0, |d| {
                h.push(d);
                n += 1;
            });
            (h.0, n)
        }
    }
    let trace =
        Trace::generate_per_source(&mut sources(rho), Time::from_ticks(HORIZON_TICKS), seed);
    kind.build_and_visit(&Sdp::paper_default(), 1.0, Replay { trace })
}

/// Hash of the streaming path: no trace materialized at all.
fn streaming_hash(kind: SchedulerKind, rho: f64, seed: u64) -> (u64, usize) {
    let mut s = kind.build(&Sdp::paper_default(), 1.0);
    let mut h = DepartureHash::new();
    let mut n = 0usize;
    Session::sources(&sources(rho), Time::from_ticks(HORIZON_TICKS), seed, 1.0).run(
        s.as_mut(),
        |d| {
            h.push(d);
            n += 1;
        },
    );
    (h.0, n)
}

#[test]
fn all_replay_paths_are_bit_identical_for_every_scheduler() {
    for kind in SchedulerKind::ALL {
        for seed in SEEDS {
            let (dyn_hash, dyn_n) = dyn_trace_hash(kind, 0.95, seed);
            let (gen_hash, gen_n) = generic_trace_hash(kind, 0.95, seed);
            let (str_hash, str_n) = streaming_hash(kind, 0.95, seed);
            assert!(
                dyn_n > 1000,
                "{kind} seed {seed}: suspiciously few departures ({dyn_n})"
            );
            assert_eq!(
                (dyn_hash, dyn_n),
                (gen_hash, gen_n),
                "{kind} seed {seed}: generic loop diverged from dyn replay"
            );
            assert_eq!(
                (dyn_hash, dyn_n),
                (str_hash, str_n),
                "{kind} seed {seed}: streaming path diverged from dyn replay"
            );
        }
    }
}

#[test]
fn departure_hash_is_reproducible_across_runs() {
    // Same process, two independent evaluations: guards against hidden
    // global state (thread-local RNGs, time-dependent code) sneaking into
    // the simulation.
    let a = dyn_trace_hash(SchedulerKind::Wtp, 0.95, 7);
    let b = dyn_trace_hash(SchedulerKind::Wtp, 0.95, 7);
    assert_eq!(a, b);
}

#[test]
fn experiment_streaming_equals_materialized_measurement() {
    // The Experiment harness measures via the streaming monomorphized
    // path; feeding run_one the materialized trace must give identical
    // summaries.
    use qsim::Experiment;
    let e = Experiment::paper(0.9, Sdp::paper_default(), 2_000, vec![5]);
    let streamed = e.run(SchedulerKind::Wtp);
    let trace = e.trace_for_seed(5);
    let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let materialized = e.run_one(s.as_mut(), &trace);
    assert_eq!(streamed.mean_delays, materialized.mean_delays());
}

#[test]
fn jsonl_trace_is_byte_identical_across_replay_paths() {
    // The telemetry layer must not observe path-dependent state: for the
    // same workload, the JSONL export from the materialized-trace replay
    // and from the streaming (O(sources) memory) replay are the same
    // bytes. A small deterministic workload keeps the assertion readable
    // when it fails.
    use qsim::run_trace_probed;
    use telemetry::JsonlSink;

    let horizon = Time::from_ticks(300_000);
    let seed = 21;

    let mut src_copy = sources(0.9);
    let trace = Trace::generate_per_source(&mut src_copy, horizon, seed);
    let mut s1 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink1 = JsonlSink::new(Vec::new());
    run_trace_probed(
        s1.as_mut(),
        trace.entries().iter().copied(),
        1.0,
        |_| {},
        &mut sink1,
    );
    let from_trace = sink1.finish().unwrap();

    let mut s2 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink2 = JsonlSink::new(Vec::new());
    Session::sources(&sources(0.9), horizon, seed, 1.0)
        .probe(&mut sink2)
        .run(s2.as_mut(), |_| {});
    let from_stream = sink2.finish().unwrap();

    assert!(!from_trace.is_empty(), "workload produced no events");
    assert!(
        from_trace.len() > 10_000,
        "workload too small to be a meaningful golden ({} bytes)",
        from_trace.len()
    );
    if from_trace != from_stream {
        // Byte compare failed: find the first differing line for the report.
        let a = String::from_utf8_lossy(&from_trace);
        let b = String::from_utf8_lossy(&from_stream);
        for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
            assert_eq!(la, lb, "JSONL line {} diverged between replay paths", i + 1);
        }
        panic!(
            "JSONL traces differ in length: {} vs {} bytes",
            from_trace.len(),
            from_stream.len()
        );
    }

    // And the export is schema-valid, same as the CI telemetry job checks.
    let text = String::from_utf8(from_trace).unwrap();
    let lines = telemetry::schema::validate_jsonl(&text).expect("golden JSONL is schema-valid");
    assert!(lines > 0);
}

#[test]
fn noop_scenario_is_byte_identical_on_the_trace_path() {
    // Identity events (re-assert the SDP and rate already in force) must
    // not perturb a single departure or telemetry byte: after stripping
    // the scenario-event records themselves, the JSONL export and the
    // departure stream match the scenario-free run exactly.
    use qsim::run_trace_probed;
    use telemetry::JsonlSink;

    let horizon = Time::from_ticks(300_000);
    let trace = Trace::generate_per_source(&mut sources(0.9), horizon, 21);

    let mut s1 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink1 = JsonlSink::new(Vec::new());
    let mut plain = DepartureHash::new();
    run_trace_probed(
        s1.as_mut(),
        trace.entries().iter().copied(),
        1.0,
        |d| plain.push(d),
        &mut sink1,
    );
    let baseline = sink1.finish().unwrap();

    let sc = scenario::Scenario::builder()
        .set_sdp(Time::from_ticks(100_000), Sdp::paper_default())
        .set_link_rate(Time::from_ticks(150_000), 0, 1.0)
        .build()
        .unwrap();
    let mut s2 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink2 = JsonlSink::new(Vec::new());
    let mut perturbed = DepartureHash::new();
    Session::trace(&trace, 1.0)
        .probe(&mut sink2)
        .scenario(sc)
        .run(s2.as_mut(), |d| perturbed.push(d));
    let with_scenario = sink2.finish().unwrap();

    assert_eq!(plain.0, perturbed.0, "identity scenario changed departures");
    let stripped = strip_scenario_lines(&with_scenario);
    assert!(
        with_scenario.len() > stripped.len(),
        "scenario events were never recorded"
    );
    assert_eq!(
        baseline, stripped,
        "identity scenario perturbed the telemetry stream"
    );
}

#[test]
fn noop_scenario_is_byte_identical_on_the_streaming_path() {
    // Same guarantee on the O(sources) path, including a unit load surge
    // (scale 1.0 routes every source through SurgedSource, which must be
    // an exact identity).
    use telemetry::JsonlSink;

    let horizon = Time::from_ticks(300_000);
    let seed = 21;

    let mut s1 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink1 = JsonlSink::new(Vec::new());
    let mut plain = DepartureHash::new();
    Session::sources(&sources(0.9), horizon, seed, 1.0)
        .probe(&mut sink1)
        .run(s1.as_mut(), |d| plain.push(d));
    let baseline = sink1.finish().unwrap();

    let sc = scenario::Scenario::builder()
        .set_sdp(Time::from_ticks(100_000), Sdp::paper_default())
        .load_surge(Time::from_ticks(50_000), 0, 1.0)
        .set_link_rate(Time::from_ticks(150_000), 0, 1.0)
        .build()
        .unwrap();
    let mut s2 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink2 = JsonlSink::new(Vec::new());
    let mut perturbed = DepartureHash::new();
    Session::sources(&sources(0.9), horizon, seed, 1.0)
        .probe(&mut sink2)
        .scenario(sc)
        .run(s2.as_mut(), |d| perturbed.push(d));
    let with_scenario = sink2.finish().unwrap();

    assert_eq!(plain.0, perturbed.0, "identity scenario changed departures");
    let stripped = strip_scenario_lines(&with_scenario);
    assert!(
        with_scenario.len() > stripped.len(),
        "scenario events were never recorded"
    );
    assert_eq!(
        baseline, stripped,
        "identity scenario perturbed the telemetry stream"
    );
}

#[test]
fn unbounded_lossy_session_is_byte_identical_to_lossless() {
    // A buffer no packet can overflow turns the lossy path into the
    // lossless one: same JSONL bytes and same departures, under both drop
    // policies, stationary and through a link flap. Fault drops are not
    // buffer drops, so both paths must report them with buffer 0.
    use qsim::LossMode;
    use scenario::{DownPolicy, Scenario};
    use sched::PlrDropper;
    use telemetry::JsonlSink;

    let trace = Trace::generate_per_source(&mut sources(0.9), Time::from_ticks(1_000_000), 21);
    let flap = |policy| {
        Scenario::builder()
            .link_down(Time::from_ticks(400_000), 0, policy)
            .link_up(Time::from_ticks(450_000), 0)
            .build()
            .unwrap()
    };
    let cases = [
        ("stationary", Scenario::empty()),
        ("flap-hold", flap(DownPolicy::Hold)),
        ("flap-drop", flap(DownPolicy::Drop)),
    ];
    for (name, sc) in cases {
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let mut sink = JsonlSink::new(Vec::new());
        let mut lossless_n = 0u64;
        Session::trace(&trace, 1.0)
            .probe(&mut sink)
            .scenario(sc.clone())
            .run(s.as_mut(), |_| lossless_n += 1);
        let lossless = sink.finish().unwrap();
        assert!(lossless_n > 1000, "{name}: too few departures");

        for mode in [
            LossMode::TailDrop,
            LossMode::Plr(PlrDropper::new(&[8.0, 4.0, 2.0, 1.0]).unwrap()),
        ] {
            let label = format!("{name}/{mode:?}");
            let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
            let mut sink = JsonlSink::new(Vec::new());
            let r = Session::trace(&trace, 1.0)
                .probe(&mut sink)
                .scenario(sc.clone())
                .lossy(u64::MAX, mode)
                .run(s.as_mut());
            let lossy = sink.finish().unwrap();
            let lossy_n: u64 = r.delays.iter().map(|d| d.count()).sum();
            assert_eq!(lossy_n, lossless_n, "{label}: departure count");
            if lossy != lossless {
                let a = String::from_utf8_lossy(&lossless);
                let b = String::from_utf8_lossy(&lossy);
                for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
                    assert_eq!(la, lb, "{label}: JSONL line {} diverged", i + 1);
                }
                panic!("{label}: JSONL lengths differ");
            }
        }
    }
}

/// Drops the `"ev":"scenario"` records a scenario run adds, keeping every
/// other byte (including the trailing newline structure) intact.
fn strip_scenario_lines(jsonl: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(jsonl).expect("JSONL is UTF-8");
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if !line.contains("\"ev\":\"scenario\"") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out.into_bytes()
}
