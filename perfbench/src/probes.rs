//! Process probes read from `/proc/self`, outside the library: CPU time,
//! peak resident memory, and a sampler of the live OS thread count.

use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100
/// for user space regardless of the kernel's internal tick rate.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds of the whole process so far, including
/// threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_SEC
}

/// A `kB` field of `/proc/self/status`, e.g. `VmHWM`, or `Threads`.
fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let v = l.strip_prefix(name)?.strip_prefix(':')?;
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size in MB since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Reset the kernel's peak-RSS watermark to the current RSS, so a peak
/// reached during set-up or an earlier repetition does not carry over.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Run `f` while a thread of its own samples the process's OS thread
/// count every millisecond; returns `f`'s result and the peak count of
/// threads other than the sampler.
pub fn sample_threads<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let out = thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if let Some(n) = status_field("Threads") {
                    peak.fetch_max(n.saturating_sub(1), Ordering::Relaxed);
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    });
    (out, peak.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn sampler_excludes_itself_and_sees_spawned_threads() {
        let ((), peak) = sample_threads(|| {
            thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| thread::sleep(Duration::from_millis(30)));
                }
            });
        });
        // The test thread plus three workers, and possibly other test
        // threads running concurrently; never the sampler alone.
        assert!(peak >= 4, "peak {peak}");
    }
}
