//! Small shared helpers: quantiles, the result line, paths, seeds.

use crate::Outcome;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads and client connections the benchmark may use: the
/// host's available parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scratch directory for the run's data and trace files, inside the
/// directory the benchmark was started from.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule; 0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs `pass` at least `min` times and then again until `window` has
/// passed since the first, returning every pass's result, or the first
/// error. Contention on a shared host comes and goes within fractions of
/// a second: a burst of set-up passes lands in one phase of it and the
/// next run's burst in another, while passes spread over seconds sample
/// several.
pub fn passes<T, E>(
    min: usize,
    window: Duration,
    mut pass: impl FnMut() -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed() < window {
        out.push(pass()?);
    }
    Ok(out)
}

/// Held by tests that run the STS kernel, so the test reading the
/// process-wide `core.*` counters sees only its own work.
#[cfg(test)]
pub static KERNEL_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A sub-seed for one purpose, so inputs, samples and probes drawn from
/// the same `--seed` stay independent of each other.
pub fn subseed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The result line: `correct`, `attempted`, `failed` and
/// every wanted metric with its unit. A metric the workload did not
/// produce is a bug in the benchmark, not a measurement.
pub fn result_json(outcome: &Outcome, wanted: &[(&str, &str)]) -> String {
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let v = *outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload did not report metric {name}"));
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
