//! What one run measured and checked, and how it is written out.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One metric of one run: its per-run samples and the value reported.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Full name, e.g. `sweep.cold_scen_per_s` or `cache.probe_ns`.
    pub name: String,
    /// Unit, e.g. `scen/s`.
    pub unit: &'static str,
    /// Every sample this run took (one per pass, phase or call batch).
    pub samples: Vec<f64>,
    /// Report the mean of the samples rather than their median.
    pub pooled: bool,
}

impl Metric {
    /// The reported value: the median of the samples, or their mean for
    /// a pooled cost (total over the run ÷ operations).
    pub fn value(&self) -> f64 {
        if self.pooled {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        } else {
            Summary::of(&self.samples).median
        }
    }
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence: counts, digests or the first mismatch.
    pub detail: String,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order measured.
    pub metrics: Vec<Metric>,
    /// Output checks; any failure fails the run.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Free-form lines for the human-readable report (phase tables,
    /// digests).
    pub notes: Vec<String>,
    /// Spans of the traced pass, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
    /// Determinism digest per placement policy.
    pub digests: Vec<(String, u64)>,
}

impl Report {
    /// Record a metric from its samples (replacing one of the same name).
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        self.push(name.into(), unit, samples, false);
    }

    /// Record a per-operation cost that reports the whole run's cost per
    /// operation: the mean of equal-sized samples. A median would jump
    /// between modes when the samples are bimodal, as CPU cost per
    /// simulator instance is on a host whose memory speed varies per
    /// allocation.
    pub fn put_pooled(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        self.push(name.into(), unit, samples, true);
    }

    fn push(&mut self, name: String, unit: &'static str, samples: Vec<f64>, pooled: bool) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            samples,
            pooled,
        });
    }

    /// Record a single-sample metric.
    pub fn put1(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.put(name, unit, vec![value]);
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Record a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check held (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }
}

/// `value` as a JSON number: shortest round-trip digits, finite only.
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process so far, MiB: the kernel's
/// high-water mark of this address space (`VmHWM`), which unlike
/// `getrusage` does not carry over the peak of whatever ran before `exec`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time used by this process so far, summed over all its threads
/// (exited ones included), seconds. On a virtual machine this excludes
/// the time the hypervisor gave to other guests, so it stays steady when
/// wall-clock time does not.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable struct laid out like the platform's
    // `struct timespec`; `clock_gettime` fills it and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time: not measured off Linux.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_s() -> f64 {
    f64::NAN
}

/// Wall-clock and process CPU time elapsed since a start point.
#[derive(Clone, Copy)]
pub struct Clocks {
    wall: std::time::Instant,
    cpu_s: f64,
}

impl Clocks {
    /// Start both clocks now.
    pub fn start() -> Clocks {
        Clocks {
            wall: std::time::Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Seconds since start: `(wall, cpu)`.
    pub fn elapsed(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
        )
    }
}

/// Wall and CPU seconds of repeated measurements of one operation.
#[derive(Default)]
pub struct Series {
    /// Wall-clock seconds per measurement.
    pub wall: Vec<f64>,
    /// Process CPU seconds per measurement.
    pub cpu: Vec<f64>,
}

impl Series {
    /// Record the time since `clocks` started.
    pub fn push(&mut self, clocks: Clocks) {
        let (wall, cpu) = clocks.elapsed();
        self.wall.push(wall);
        self.cpu.push(cpu);
    }
}

/// Seconds to milliseconds.
pub fn ms(secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| s * 1e3).collect()
}
