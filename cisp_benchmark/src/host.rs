//! Host probes and provenance, read from `/proc` and a few child processes
//! (no dependency beyond the standard library).

use std::fs;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::workloads::WORLD_SEED;

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).unwrap_or(f64::NAN) / 1024.0
}

/// Reset `VmHWM` to the current resident size (Linux ≥ 4.0), so that the
/// peak read after the ops is theirs and not the set-up's. Best effort:
/// where `/proc` refuses the write the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reads the process's CPU time (user + system, all threads, including
/// threads that have already exited) from `/proc/self/stat`.
pub struct CpuClock {
    ticks_per_s: f64,
}

impl CpuClock {
    /// `CLK_TCK` comes from `getconf`; 100 (the Linux default) when that
    /// is unavailable.
    pub fn new() -> Self {
        let ticks_per_s = command_line("getconf", &["CLK_TCK"])
            .and_then(|s| s.parse().ok())
            .filter(|&t: &f64| t > 0.0)
            .unwrap_or(100.0);
        Self { ticks_per_s }
    }

    pub fn ticks_per_s(&self) -> f64 {
        self.ticks_per_s
    }

    /// CPU seconds consumed so far.
    pub fn now_s(&self) -> f64 {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        parse_cpu_ticks(&stat).unwrap_or(f64::NAN) / self.ticks_per_s
    }
}

/// utime + stime (fields 14 and 15). The command name (field 2) may hold
/// spaces, so fields are counted from the closing parenthesis.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// First line of a command's standard output, if it ran successfully.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Some(text.lines().next()?.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// `YYYY-MM-DD` of a Unix timestamp (civil-from-days, proleptic Gregorian).
fn utc_date(unix_s: u64) -> String {
    let z = (unix_s / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The "stated hardware" block written into every results file.
pub fn provenance(seed: u64, clock: &CpuClock) -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("cpu_model", Json::Str(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("clk_tck", Json::Num(clock.ticks_per_s())),
        ("seed", Json::Int(seed)),
        ("world_seed", Json::Int(WORLD_SEED)),
        ("date_utc", Json::Str(utc_date(unix_s))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        // comm holds spaces and a parenthesis; utime = 7, stime = 5.
        let stat = "123 (a b) c) S 1 2 3 4 5 6 7 8 9 10 7 5 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(stat), Some(12.0));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let clock = CpuClock::new();
        assert!(clock.ticks_per_s() > 0.0);
        assert!(clock.now_s() >= 0.0);
    }

    #[test]
    fn dates() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_790_726_400), "2026-09-30");
    }
}
