//! Shared helpers: seeded shuffles, order statistics, process memory,
//! and the run's scratch directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use seqwm_explore::SplitMix64;
use seqwm_json::Json;

/// How many times each workload repeats its set-up; `setup_s` is the
/// fastest. One set-up is tens of milliseconds, so a single sample
/// would be at the mercy of one moment's host speed.
pub const SETUP_REPS: usize = 5;

/// Fisher–Yates shuffle driven by the benchmark seed.
pub fn shuffle<T>(rng: &mut SplitMix64, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i + 1);
        xs.swap(i, j);
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`; 0 when empty. Host interference only ever adds
/// time to a repeated, deterministic computation, so its fastest
/// repeat is the steadiest estimate of what the computation costs.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `xs` as a JSON array, for the report's per-sample notes.
pub fn samples(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// A tail percentile together with the sample it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The latency at the percentile.
    pub value: f64,
    /// The percentile (share of samples at or below `value`, ×100).
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile with at least ten samples beyond it. With
/// fewer than 21 samples that percentile would fall below the median,
/// so the median is reported instead (and named as the 50th).
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 21 {
        return Tail {
            value: median(xs),
            percentile: 50.0,
            samples: n,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The run's private scratch directory (memo stores, daemon state),
/// created under the working directory and removed on drop, so a run
/// reads and writes only inside its checkout.
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    /// Creates `<base>/tmp-<pid>`, replacing any leftover of the same
    /// name.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(base: &Path) -> std::io::Result<Scratch> {
        let root = base.join(format!("tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not yet existing subdirectory path.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Times repeated set-ups. A workload sets up [`SETUP_REPS`] times at
/// points spread over its run, so the fastest is not one moment's host
/// speed; only one set-up's result is kept for the timed pass.
#[derive(Debug, Default)]
pub struct SetupClock {
    /// Every set-up's duration in seconds.
    pub secs: Vec<f64>,
}

impl SetupClock {
    /// Runs and times one set-up.
    ///
    /// # Errors
    ///
    /// The set-up's own error.
    pub fn time<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let t = Instant::now();
        let v = f()?;
        self.secs.push(t.elapsed().as_secs_f64());
        Ok(v)
    }

    /// Runs and times `n` more set-ups whose results are dropped (a
    /// daemon is shut down outside the clock).
    ///
    /// # Errors
    ///
    /// The first set-up error.
    pub fn extra<T, E>(&mut self, n: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<(), E> {
        for _ in 0..n {
            let v = self.time(&mut f)?;
            drop(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_small_samples() {
        let xs = [5.0, 1.0, 3.0, 4.0];
        assert_eq!(tail(&xs).value, 3.5);
        assert_eq!(tail(&xs).percentile, 50.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[2.0, 1.5, 3.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut SplitMix64::new(7), &mut a);
        shuffle(&mut SplitMix64::new(7), &mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
