//! What one run reports: metrics with units, the units of work attempted
//! and failed, and the summary helpers (median, tail percentile).

use std::fmt::Write as _;

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The gated end-to-end metrics every workload reports; `BENCHMARK.json`
/// lists the same names.
pub const END_TO_END: [&str; 4] = ["wall_s", "setup_s", "sim_s", "peak_rss_mb"];

/// The per-layer metrics every traced run reports (0 where the workload
/// does not touch the layer); `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("traffic.gen_s", "s"),
    ("traffic.ns_per_pkt", "ns"),
    ("sched.decisions", "count"),
    ("sched.wtp.ns_per_decision", "ns"),
    ("sched.bpr.ns_per_decision", "ns"),
    ("sched.pad.ns_per_decision", "ns"),
    ("sched.hpd.ns_per_decision", "ns"),
    ("sched.pifo_wtp.ns_per_decision", "ns"),
    ("qsim.trace.ns_per_pkt", "ns"),
    ("qsim.stream.ns_per_pkt", "ns"),
    ("stats.accum_s", "s"),
    ("stats.analyze_s", "s"),
    ("telemetry.registry_overhead_frac", "ratio"),
    ("telemetry.registry_ns_per_pkt", "ns"),
    ("simcore.events", "count"),
    ("simcore.heap_high_water", "count"),
    ("simcore.ns_per_event", "ns"),
    ("netsim.chain.run_s", "s"),
    ("netsim.chain.hops", "count"),
    ("netsim.chain.ns_per_hop", "ns"),
    ("netsim.topology.build_s", "s"),
    ("netsim.topology.lower_s", "s"),
    ("netsim.decompose.input_s", "s"),
    ("netsim.decompose.link_s", "s"),
    ("netsim.decompose.ns_per_hop", "ns"),
    ("netsim.decompose.compose_s", "s"),
    ("netsim.decompose.parallel_eff", "ratio"),
    ("orchestrator.fingerprint_s", "s"),
    ("orchestrator.cache.load_s", "s"),
    ("orchestrator.cache.load_bytes", "bytes"),
    ("orchestrator.cache.store_s", "s"),
    ("orchestrator.cache.store_bytes", "bytes"),
    ("orchestrator.json.parse_s", "s"),
    ("orchestrator.json.serialize_s", "s"),
    ("orchestrator.protocol.ns_per_roundtrip", "ns"),
    ("orchestrator.ipc_s", "s"),
    ("orchestrator.shards_executed", "count"),
    ("orchestrator.warm_hit_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.gap_frac", "ratio"),
    ("trace.iterations", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
];

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted and those that errored or failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// The first failure messages, for stderr.
    pub failures: Vec<String>,
    /// Gated end-to-end metrics (untraced iterations only).
    pub end_to_end: Vec<Metric>,
    /// Further end-to-end figures, printed but not gated.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Digest of the first iteration's outputs.
    pub digest: u64,
    /// Spans as JSONL (traced runs only).
    pub spans_jsonl: String,
}

impl Outcome {
    /// Counts `units` attempted units, `bad` of which failed with `why`.
    pub fn count(&mut self, units: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += units;
        if bad > 0 {
            self.failed += bad;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// Records one check over `units` units: all of them fail if it does.
    pub fn check(&mut self, units: u64, ok: bool, why: impl FnOnce() -> String) {
        self.count(units, if ok { 0 } else { units }, why);
    }

    pub fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
        list.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The per-layer list, every [`PER_LAYER`] name present: values the
    /// workload set, 0 for layers it does not touch.
    pub fn set_layers(&mut self, measured: &[(&str, f64)]) {
        self.layers = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.into(),
                value: measured
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v),
                unit,
            })
            .collect();
        for (name, _) in measured {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not in PER_LAYER"
            );
        }
    }
}

/// Median of `xs` (the mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `xs` with at least ten samples beyond it:
/// `(percentile, value)`. With fewer than eleven samples it is the
/// maximum, reported as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (100.0, v[n - 1]);
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

/// Iterations with at least this many units are summarised one by one.
pub const UNITS_PER_ITERATION_SUMMARY: usize = 100;

/// Adds `job_p50_ms` and `job_tail_ms` over per-unit times in seconds,
/// one list per iteration, with the tail's percentile and the sample
/// count.
///
/// Every iteration repeats the same units, so in a pool of iterations the
/// ten samples beyond the tail would be repeats of the one slowest unit.
/// Where an iteration has [`UNITS_PER_ITERATION_SUMMARY`] units or more,
/// the median and tail are therefore taken per iteration and the medians
/// of those are reported; otherwise they are taken over the pooled units.
pub fn job_metrics(out: &mut Outcome, per_iteration: &[Vec<f64>]) {
    let ms = |units: &[f64]| -> Vec<f64> { units.iter().map(|s| s * 1e3).collect() };
    let (p50, (pct, value), samples) = if per_iteration[0].len() >= UNITS_PER_ITERATION_SUMMARY {
        let each: Vec<(f64, (f64, f64))> = per_iteration
            .iter()
            .map(|u| (median(&ms(u)), tail(&ms(u))))
            .collect();
        let col = |f: fn(&(f64, (f64, f64))) -> f64| -> f64 {
            median(&each.iter().map(f).collect::<Vec<_>>())
        };
        (
            col(|e| e.0),
            (col(|e| e.1 .0), col(|e| e.1 .1)),
            per_iteration[0].len(),
        )
    } else {
        let pooled: Vec<f64> = per_iteration.iter().flat_map(|u| ms(u)).collect();
        (median(&pooled), tail(&pooled), pooled.len())
    };
    Outcome::push(&mut out.extra, "job_p50_ms", p50, "ms");
    Outcome::push(&mut out.extra, "job_tail_ms", value, "ms");
    Outcome::push(&mut out.extra, "job_tail_percentile", pct, "%");
    Outcome::push(&mut out.extra, "job_samples", samples as f64, "count");
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A finite JSON number with all its digits (non-finite values, which a
/// correct run never produces, become 0 and are flagged by the caller).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The human-readable table printed above the result line.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut s = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(s, "  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = orchestrator::json::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[3.0, 1.0]), (100.0, 3.0));
    }

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome::default();
        out.count(3, 1, || "x".into());
        let line = result_line(
            &out,
            &[Metric {
                name: "wall_s".into(),
                value: 1.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
