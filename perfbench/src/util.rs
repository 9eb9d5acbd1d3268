//! Small helpers shared by the workloads: order statistics, `/proc` probes, a
//! seeded generator for the service mix, and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use df_core::algebra::{CmpOp, Predicate};
use df_core::dataframe::DataFrame;
use df_types::cell::Cell;
use df_types::error::DfResult;

/// Median of `values` (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median over consecutive `window`-long windows of each window's `q`-quantile.
/// `samples` are `(seconds since the measured window opened, value)`; only windows
/// that end by `span_s` count, and with none of those, the plain `q`-quantile of
/// every sample is returned. A host stall that slows a few windows moves a tail
/// quantile of the whole run; it moves this median only when it slows most windows.
pub fn windowed_quantile(samples: &[(f64, f64)], window_s: f64, span_s: f64, q: f64) -> f64 {
    let windows = (span_s / window_s).floor() as usize;
    let mut binned = vec![Vec::new(); windows];
    for &(at, value) in samples {
        if let Some(bin) = binned.get_mut((at.max(0.0) / window_s) as usize) {
            bin.push(value);
        }
    }
    let per_window: Vec<f64> = binned
        .iter()
        .filter(|bin| !bin.is_empty())
        .map(|bin| quantile(bin, q))
        .collect();
    if per_window.is_empty() {
        let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        return quantile(&all, q);
    }
    median(&per_window)
}

pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        })
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub const MB: f64 = 1024.0 * 1024.0;

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Bytes this process has read and written through syscalls so far (`rchar`,
/// `wchar` of `/proc/self/io`; page-cache hits count, so a re-parsed file shows
/// even when the disk is idle).
pub fn io_chars() -> (u64, u64) {
    let Ok(io) = std::fs::read_to_string("/proc/self/io") else {
        return (0, 0);
    };
    let field = |name: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"))
}

/// SplitMix64: a tiny seeded generator, so the service mix depends on `--seed` only.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Run `setup` `setups` times (`setup_s` is their median); return the last result
/// and the median seconds.
pub fn repeat_setup<T>(
    setups: usize,
    mut setup: impl FnMut() -> DfResult<T>,
) -> DfResult<(T, f64)> {
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        let t = Instant::now();
        last = Some(setup()?);
        times.push(secs(t.elapsed()));
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Column labels from names.
pub fn labels(names: &[&str]) -> Vec<Cell> {
    names.iter().map(|n| Cell::Str((*n).into())).collect()
}

/// The predicate `column > value`.
pub fn greater(column: &str, value: f64) -> Predicate {
    Predicate::ColCmp {
        column: Cell::Str(column.into()),
        op: CmpOp::Gt,
        value: Cell::Float(value),
    }
}

/// Whether `out` equals the reference `expected` cell for cell. Float aggregates
/// (`exact == false`) may differ in the last bits, because a partitioned engine adds
/// partial sums in another order than the single-pass reference; they are compared
/// with the 1e-9 relative tolerance the repository's differential suites use.
pub fn same_result(out: &DataFrame, expected: &DataFrame, exact: bool) -> bool {
    if exact {
        out.same_data(expected)
    } else {
        out.approx_same_data(expected, 1e-9)
    }
}

/// Named metrics with units, printed as the result line's `metrics` object.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.0.iter().map(|(name, (v, unit))| (*name, *v, *unit))
    }
}

/// Operation counts and correctness of one run.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The JSON result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Non-finite values are not JSON; a metric that cannot be computed reads 0.
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_stalled_window() {
        // Three 1-second windows; the middle one holds a stall.
        let samples: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let at = i as f64 / 100.0;
                let value = if (100..200).contains(&i) {
                    50.0
                } else {
                    (i % 100) as f64 / 10.0
                };
                (at, value)
            })
            .collect();
        assert_eq!(windowed_quantile(&samples, 1.0, 3.0, 1.0), 9.9);
        // Samples past the span are left out, and with no whole window the plain
        // quantile of every sample is returned.
        assert_eq!(windowed_quantile(&samples, 1.0, 1.0, 1.0), 9.9);
        assert_eq!(windowed_quantile(&samples, 5.0, 3.0, 1.0), 50.0);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix64::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| r.below(6) < 6));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("job_s", 0.5, "s");
        let line = result_line(
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"job_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
