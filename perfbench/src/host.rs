//! Provenance of a result (host, toolchain, build, source revision) and
//! process memory high-water marks.

use std::process::Command;

/// The host block every written result carries.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub profile: &'static str,
    /// `git rev-parse HEAD`, suffixed `-dirty` when tracked files differ
    /// from it; `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: nproc(),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(),
        }
    }

    /// Whether a baseline measured here may be committed: the revision
    /// must be known and clean.
    pub fn committable(&self) -> Result<(), String> {
        if self.git_rev == "unknown" {
            return Err("the source revision is unknown (not a git checkout)".into());
        }
        if self.git_rev.ends_with("-dirty") {
            return Err(format!(
                "the tree is dirty ({}): commit or stash before writing a baseline",
                self.git_rev
            ));
        }
        Ok(())
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \"git_rev\": {}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.rustc),
            quote(self.profile),
            quote(&self.git_rev)
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn git_rev() -> String {
    let Some(rev) = command_line("git", &["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    let clean = Command::new("git")
        .args(["diff", "--quiet", "HEAD", "--"])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if clean {
        rev
    } else {
        format!("{rev}-dirty")
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// This process's resident-set high-water mark, in MB.
pub fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The largest resident-set high-water mark among this process's
/// terminated, waited-for descendants, in MB.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux (repr(C), two 16-byte timevals then
    // fourteen 8-byte longs), which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
