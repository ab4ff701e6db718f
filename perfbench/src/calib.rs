//! Machine-speed calibration of host times.
//!
//! On a shared machine the speed available to one process drifts by ±15%
//! and more, over seconds to minutes, with its neighbours' cache and
//! memory traffic, and that drift, not the code, dominated run-to-run
//! differences. The benchmark therefore runs a fixed kernel of its own at
//! intervals throughout a run: random read-modify-writes over 32 MiB, as
//! cache-hungry as the simulator, then short strings formatted and sorted,
//! branchy and pointer-chasing like the store's JSON codec. Over 5–20 s
//! windows, the ratio of a run-store query's time, and of a simulation
//! step's, to the kernel's varied no more with both parts than with either
//! part alone, and mostly less. Every host-time sample is scaled by
//! `REFERENCE_MS / mean time of the kernel runs within LOCAL of it`: host
//! times are reported at the speed of a machine on which the kernel takes
//! `REFERENCE_MS`. Scaling each sample by the kernel runs near it, not by
//! the whole run's, follows the speed through a run whose first and second
//! halves differ. The raw figures are printed on stderr beside the scaled
//! ones.

use std::fmt::Write;
use std::time::{Duration, Instant};

/// Kernel time, ms, of the reference machine the host times are scaled
/// to (about that of the 2-vCPU VM this benchmark was sized on).
pub const REFERENCE_MS: f64 = 18.0;

/// Random read-modify-writes per kernel run.
const KERNEL_STEPS: u32 = 1_000_000;
/// 32 MiB of `u64`s: larger than the last-level cache.
const KERNEL_WORDS: usize = 1 << 22;
/// Strings formatted and sorted per kernel run.
const KERNEL_STRINGS: usize = 20_000;
/// Capacity of each string: enough for `{:x}-{}` of a `u64` and an index,
/// so formatting never allocates.
const STRING_CAPACITY: usize = 32;
/// Shortest gap between two kernel runs.
const INTERVAL: Duration = Duration::from_millis(250);
/// Kernel runs within this distance of a sample calibrate it.
const LOCAL: Duration = Duration::from_secs(3);

/// One host-time sample and the instant halfway through it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the timed work was half done.
    pub at: Instant,
    /// The time it took, in the unit of its metric.
    pub value: f64,
}

impl Sample {
    /// The time since `started`, in units of `1 / per_s` seconds.
    pub fn since(started: Instant, per_s: f64) -> Sample {
        let took = started.elapsed();
        Sample {
            at: started + took / 2,
            value: took.as_secs_f64() * per_s,
        }
    }
}

/// The kernel's buffers and the times of its runs.
#[derive(Debug)]
pub struct Calibration {
    buf: Vec<u64>,
    strings: Vec<String>,
    /// `(midpoint, ms)` of each kernel run.
    runs: Vec<(Instant, f64)>,
    last: Option<Instant>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Allocates the kernel's buffers.
    pub fn new() -> Self {
        Self {
            // Non-zero, so every page is touched here and not in the
            // first timed kernel run.
            buf: vec![1; KERNEL_WORDS],
            strings: (0..KERNEL_STRINGS)
                .map(|_| String::with_capacity(STRING_CAPACITY))
                .collect(),
            runs: Vec::new(),
            last: None,
        }
    }

    /// Bytes the kernel's buffers occupy (live for the whole run).
    pub fn bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<u64>()
            + self.strings.len() * (std::mem::size_of::<String>() + STRING_CAPACITY)
    }

    /// Runs the kernel unless it ran less than `INTERVAL` ago.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < INTERVAL) {
            return;
        }
        self.tick_now();
    }

    /// Runs the kernel.
    pub fn tick_now(&mut self) {
        let started = Instant::now();
        let mask = self.buf.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..KERNEL_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        std::hint::black_box(&self.buf);
        for (i, s) in self.strings.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.clear();
            let _ = write!(s, "{x:x}-{i}");
        }
        self.strings.sort_unstable();
        std::hint::black_box(&self.strings);
        let run = Sample::since(started, 1e3);
        self.runs.push((run.at, run.value));
        self.last = Some(Instant::now());
    }

    /// Kernel runs so far and their mean time, ms.
    pub fn mean_ms(&self) -> (usize, f64) {
        let n = self.runs.len();
        (n, self.runs.iter().map(|r| r.1).sum::<f64>() / n.max(1) as f64)
    }

    /// The factor that scales a host time measured around `at` to
    /// reference speed: from the kernel runs within `LOCAL` of it, or the
    /// nearest run when none is that close.
    pub fn factor_at(&self, at: Instant) -> f64 {
        let distance = |t: Instant| t.max(at) - t.min(at);
        let near: Vec<f64> = self
            .runs
            .iter()
            .filter(|(t, _)| distance(*t) <= LOCAL)
            .map(|r| r.1)
            .collect();
        let mean = if near.is_empty() {
            match self.runs.iter().min_by_key(|(t, _)| distance(*t)) {
                Some(&(_, ms)) => ms,
                None => return 1.0,
            }
        } else {
            near.iter().sum::<f64>() / near.len() as f64
        };
        REFERENCE_MS / mean
    }

    /// `samples` scaled to reference speed, each by the factor at its
    /// time.
    pub fn scaled(&self, samples: &[Sample]) -> Vec<f64> {
        samples
            .iter()
            .map(|s| s.value * self.factor_at(s.at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference_kernel_time() {
        let mut c = Calibration::new();
        let now = Instant::now();
        assert_eq!(c.factor_at(now), 1.0);
        c.tick();
        c.tick(); // within the interval: skipped
        let (n, mean) = c.mean_ms();
        assert_eq!(n, 1);
        assert!(mean > 0.0);
        assert!((c.factor_at(now) * mean - REFERENCE_MS).abs() < 1e-9);
        // Far from every run: the nearest run still calibrates.
        let later = now + 10 * LOCAL;
        assert!((c.factor_at(later) * mean - REFERENCE_MS).abs() < 1e-9);
        c.tick_now(); // forced
        let (n, mean) = c.mean_ms();
        assert_eq!(n, 2);
        assert!((c.factor_at(now) * mean - REFERENCE_MS).abs() < 1e-9);
    }

    #[test]
    fn samples_are_scaled_by_the_runs_near_them() {
        let t0 = Instant::now();
        let c = Calibration {
            buf: Vec::new(),
            strings: Vec::new(),
            runs: vec![(t0, 10.0), (t0 + 10 * LOCAL, 30.0)],
            last: None,
        };
        let at = |k: u32| Sample {
            at: t0 + k * LOCAL,
            value: 2.0,
        };
        let scaled = c.scaled(&[at(0), at(10)]);
        assert!((scaled[0] - 2.0 * REFERENCE_MS / 10.0).abs() < 1e-9);
        assert!((scaled[1] - 2.0 * REFERENCE_MS / 30.0).abs() < 1e-9);
    }
}
