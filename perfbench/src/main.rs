//! `perfbench` — the seeded benchmark of the propdiff workspace.
//!
//! ```text
//! perfbench --workload single-link|chain|fabric|farm --seed N --seconds S --trace 0|1
//!           [--baseline FILE] [--corrupt] [--propdiff-run PATH]
//! ```
//!
//! Each workload repeats its fixed work for `--seconds`, checks every
//! output, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The last stdout line is the JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads, the metrics and the layer map.

mod chain;
mod fabric;
mod farm;
mod host;
mod probes;
mod report;
mod runloop;
mod single_link;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Metric;
use runloop::Cfg;

/// The seed the reference digests were taken at.
pub const DEFAULT_SEED: u64 = 1;
/// A seed no part of the benchmark was tuned on; run it beside the default
/// seed to confirm a claim.
pub const HELD_OUT_SEED: u64 = 7_919;

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(args: &[String], key: &str) -> Result<T, String> {
    let v = arg(args, key).ok_or_else(|| format!("missing {key}"))?;
    v.parse().map_err(|_| format!("bad value for {key}: {v}"))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: String = parse(&args, "--workload")?;
    let seed: u64 = parse(&args, "--seed")?;
    let seconds: f64 = parse(&args, "--seconds")?;
    let trace = match arg(&args, "--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let host = host::Host::probe();
    if let Some(path) = arg(&args, "--baseline") {
        host.committable()
            .map_err(|e| format!("refusing to write baseline {path}: {e}"))?;
    }
    let work_dir = PathBuf::from(".bench_build").join("perfbench");
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        corrupt: args.iter().any(|a| a == "--corrupt"),
        scratch: work_dir.join(format!("scratch-{}", std::process::id())),
        propdiff_run: arg(&args, "--propdiff-run").map(PathBuf::from),
    };
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("create {}: {e}", cfg.scratch.display()))?;
    let result = match workload.as_str() {
        "single-link" => Ok(runloop::drive(&cfg, &mut single_link::SingleLink)),
        "chain" => Ok(runloop::drive(&cfg, &mut chain::Chain)),
        "fabric" => Ok(runloop::drive(&cfg, &mut fabric::Fabric::default())),
        "farm" => farm::Farm::new(&cfg).map(|mut w| runloop::drive(&cfg, &mut w)),
        other => Err(format!(
            "unknown workload `{other}` (single-link, chain, fabric, farm)"
        )),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let mut out = result?;

    if let Some(reference) = reference_digest(&workload, seed) {
        let digest = out.digest;
        out.check(1, digest == reference, || {
            format!("output digest {digest:016x} differs from the reference {reference:016x}")
        });
    }
    for why in &out.failures {
        eprintln!("perfbench: check failed: {why}");
    }

    let metrics: Vec<Metric> = if trace {
        out.layers.clone()
    } else {
        out.end_to_end.clone()
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        out.check(1, false, || "a metric is not a finite number".into());
    }
    let mut extra = out.extra.clone();
    extra.push(Metric {
        name: "failed_frac".into(),
        value: out.failed as f64 / out.attempted.max(1) as f64,
        unit: "ratio",
    });
    println!("host {}", host.to_json());
    let role = match seed {
        DEFAULT_SEED => " (the default seed)",
        HELD_OUT_SEED => " (the held-out seed)",
        _ => "",
    };
    println!(
        "workload {workload} seed {seed}{role} seconds {seconds} trace {}",
        u8::from(trace)
    );
    print!("{}", report::table("metrics:", &metrics));
    print!("{}", report::table("workload-specific:", &extra));
    println!("output digest {:016x}", out.digest);

    if trace {
        let spans = work_dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        write_file(&spans, &out.spans_jsonl)?;
        eprintln!("perfbench: spans written to {}", spans.display());
    }
    let line = report::result_line(&out, &metrics);
    if let Some(path) = arg(&args, "--baseline") {
        let specific: Vec<String> = extra
            .iter()
            .map(|m| {
                let value = report::json_num(m.value);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let doc = format!(
            "{{\"host\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
             \"trace\": {trace}, \"workload_specific\": {{{}}}, \"result\": {line}}}\n",
            host.to_json(),
            host::quote(&workload),
            specific.join(", ")
        );
        write_file(&PathBuf::from(path), &doc)?;
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reference output digests at [`DEFAULT_SEED`]. The farm's inputs are
/// fixed by the manifest, so its digest holds for every seed.
fn reference_digest(workload: &str, seed: u64) -> Option<u64> {
    match (workload, seed) {
        ("farm", _) => Some(0x288a_3f49_79aa_22d1),
        ("single-link", DEFAULT_SEED) => Some(0xf425_e3ed_9091_029d),
        ("chain", DEFAULT_SEED) => Some(0x1a6b_c013_a843_538e),
        ("fabric", DEFAULT_SEED) => Some(0x3c5f_34cc_c9cc_b800),
        _ => None,
    }
}
