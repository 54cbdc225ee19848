//! Host-speed calibration.
//!
//! The benchmark runs on a virtual machine that shares its cores and
//! caches with other tenants, and the machine's speed drifts between
//! regimes that differ by 20–40% and last from seconds to minutes. A
//! run's median would then measure the regime it happened to fall in.
//! So timed work is cut into segments of about [`SEGMENT_S`], each
//! bracketed by a fixed calibration kernel of the benchmark's own, and
//! host times are reported at the reference speed: every segment counts
//! `measured × REFERENCE_S / calibration`. The kernel does what
//! the library's hot paths do most (small allocations, ordered and
//! hashed maps over a working set of a few MB), which is what the
//! drift slows most. No change to the library can move it.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The kernel's time at the reference host speed: its fast regime on a
/// 2-vCPU Xeon (model 207) virtual machine. It only sets the scale of
/// the reported times.
pub const REFERENCE_S: f64 = 0.015;

/// Runs of the kernel per calibration; the fastest counts, so a single
/// preemption does not skew it.
const TRIES: usize = 2;

/// A segment of timed work is closed at the first checkpoint after it
/// has run this long. The drift's regimes last seconds or more.
pub const SEGMENT_S: f64 = 0.5;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One run of the calibration kernel; returns a checksum so the work
/// cannot be optimised away.
fn kernel() -> u64 {
    let mut acc = 0u64;
    // An ordered map of small vectors: allocation and pointer chasing.
    let mut tree = BTreeMap::new();
    let mut x = 1u64;
    for i in 0..20_000u64 {
        x = mix(x);
        tree.insert(x % 100_000, vec![i; (x % 8) as usize + 1]);
    }
    for i in 0..40_000u64 {
        if let Some(v) = tree.get(&(mix(i) % 100_000)) {
            acc = acc.wrapping_add(v[0]);
        }
    }
    // A hash map: inserts, then scattered lookups.
    let mut hashed = HashMap::new();
    for i in 0..30_000u64 {
        x = mix(x);
        hashed.insert(x % 50_000, i);
    }
    for i in 0..60_000u64 {
        if let Some(v) = hashed.get(&(mix(i) % 50_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    // Allocation churn: a pool of vectors of mixed sizes, replaced at
    // random.
    let mut pool: Vec<Vec<u32>> = Vec::with_capacity(2_000);
    for _ in 0..60_000 {
        x = mix(x);
        let v = vec![x as u32; (x % 64) as usize + 1];
        if pool.len() < 2_000 {
            pool.push(v);
        } else {
            let k = (x >> 20) as usize % pool.len();
            acc = acc.wrapping_add(pool[k].len() as u64);
            pool[k] = v;
        }
    }
    acc
}

extern "C" {
    /// glibc: return free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Seconds the calibration kernel takes now on this thread (fastest of
/// a few runs). The kernel runs between units of timed work, so the
/// heap memory it freed is returned to the kernel: it must not stay
/// resident under the timed work's peak.
pub fn calibrate() -> f64 {
    let cal = (0..TRIES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(kernel());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    // SAFETY: malloc_trim takes no pointers and only releases free
    // memory; it is safe to call at any time from any thread.
    unsafe { malloc_trim(0) };
    cal
}

/// A host time measured while the kernel took `calibration` seconds,
/// scaled to the reference speed.
pub fn at_reference(measured: f64, calibration: f64) -> f64 {
    measured * REFERENCE_S / calibration
}

/// What a [`Clock`] timed between two laps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Measured seconds of timed work, calibrations excluded.
    pub measured: f64,
    /// The same work at the reference host speed.
    pub reference: f64,
    /// CPU seconds the calibrations inside the lap used.
    pub calibration_cpu: f64,
}

impl Lap {
    /// Another host time taken over the same stretch (its CPU time, say),
    /// scaled to the reference speed as the lap's wall time was.
    pub fn scale(&self, measured: f64) -> f64 {
        if self.measured > 0.0 {
            measured * self.reference / self.measured
        } else {
            measured
        }
    }
}

/// A stopwatch that keeps time at the reference host speed. Timed work
/// runs between [`Clock::resume`] and [`Clock::lap`]; between units of
/// that work, [`Clock::split`] closes a segment once [`Clock::due`]
/// says it is [`SEGMENT_S`] long, so a long stretch is calibrated as it
/// goes. Each closing calibration also opens the next segment.
pub struct Clock {
    cal: f64,
    start: Instant,
    lap: Lap,
}

impl Clock {
    /// A clock calibrated now, not yet timing.
    pub fn new() -> Clock {
        Clock {
            cal: calibrate(),
            start: Instant::now(),
            lap: Lap::default(),
        }
    }

    /// The latest calibration, in seconds.
    pub fn calibration(&self) -> f64 {
        self.cal
    }

    /// Start timing; what ran since the last lap is not counted.
    pub fn resume(&mut self) {
        self.start = Instant::now();
    }

    fn close(&mut self) -> f64 {
        let t = self.start.elapsed().as_secs_f64();
        let c0 = Instant::now();
        let cal = calibrate();
        let calibrating = c0.elapsed().as_secs_f64();
        self.lap.measured += t;
        self.lap.reference += at_reference(t, (self.cal + cal) / 2.0);
        self.cal = cal;
        self.start = Instant::now();
        calibrating
    }

    /// Whether the open segment has run long enough to be closed.
    pub fn due(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= SEGMENT_S
    }

    /// Between units of timed work: close the segment and open the next.
    pub fn split(&mut self) {
        let calibrating = self.close();
        self.lap.calibration_cpu += calibrating;
    }

    /// Stop timing: close the segment and return what was timed since
    /// the last lap.
    pub fn lap(&mut self) -> Lap {
        self.close();
        std::mem::take(&mut self.lap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_calibration_positive() {
        assert_eq!(kernel(), kernel());
        let c = calibrate();
        assert!(c > 0.0 && c.is_finite(), "{c}");
    }

    #[test]
    fn a_clock_excludes_what_runs_between_laps() {
        let mut clock = Clock::new();
        std::thread::sleep(std::time::Duration::from_millis(50));
        clock.resume();
        let lap = clock.lap();
        assert!(lap.measured < 0.04, "{lap:?}");
        assert!(lap.reference > 0.0 && lap.calibration_cpu == 0.0);
        assert_eq!(lap.scale(0.0), 0.0);
    }

    #[test]
    fn times_scale_inversely_with_calibration() {
        assert_eq!(at_reference(2.0, REFERENCE_S), 2.0);
        assert_eq!(at_reference(2.0, 2.0 * REFERENCE_S), 1.0);
    }
}
