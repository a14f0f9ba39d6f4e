//! Order statistics and the result record a run prints.

use std::collections::BTreeMap;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Length of the time slices a measurement window is cut into. Latency
/// percentiles and throughput are taken per slice and reported as their
/// median over the slices, so a burst of interference from outside the
/// run moves one slice, not the figure.
pub const SLICE_S: f64 = 1.0;

/// Per-slice p50, p90 and completions per second of `(completed_at_s,
/// latency_ms)` samples over a window of `window_s`, each as the median
/// over the window's [`SLICE_S`] slices.
pub fn sliced(samples: &[(f64, f64)], window_s: f64) -> (f64, f64, f64) {
    let slices = ((window_s / SLICE_S).round() as usize).max(1);
    let width = window_s / slices as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(t, latency) in samples {
        let i = ((t / width) as usize).min(slices - 1);
        buckets[i].push(latency);
    }
    let p50: Vec<f64> = buckets.iter().map(|b| quantile(b, 0.5)).collect();
    let p90: Vec<f64> = buckets.iter().map(|b| quantile(b, 0.9)).collect();
    let rate: Vec<f64> = buckets.iter().map(|b| b.len() as f64 / width).collect();
    (median(&p50), median(&p90), median(&rate))
}

/// Named metrics with units, kept in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one run found: its operation counts, its metrics and every
/// correctness problem it saw.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    pub layers: Metrics,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed check; the first few are kept verbatim.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        } else if self.problems.len() == 20 {
            self.problems.push("… further problems omitted".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }
}
