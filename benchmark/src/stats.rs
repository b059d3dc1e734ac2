//! Order statistics over timing samples, and the pro-rata throughput
//! estimator the end-to-end `jobs_per_s` metric uses.

/// Median of `xs` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice so a bypassed layer reads as "no work".
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
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile, `p` in `[0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * p).round() as usize]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One completed job on the generator's clock, in seconds since the
/// timed window opened.
#[derive(Debug, Clone, Copy)]
pub struct JobSpan {
    pub start_s: f64,
    pub end_s: f64,
}

impl JobSpan {
    pub fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// Jobs per second as the median over `slices` equal slices of the
/// window, each job credited to a slice by the share of its duration
/// that falls inside it. Pro-rata credit keeps a slice's count from
/// jumping by one whole job at its edges (a 170 ms job in a 2 s slice
/// would otherwise quantise the rate to ±8 %), and the median drops the
/// slices a hypervisor pause landed in.
pub fn jobs_per_s(jobs: &[JobSpan], window_s: f64, slices: usize) -> f64 {
    let len = window_s / slices as f64;
    let rates: Vec<f64> = (0..slices)
        .map(|s| {
            let (a, b) = (s as f64 * len, (s + 1) as f64 * len);
            let credit: f64 = jobs
                .iter()
                .map(|j| {
                    let overlap = (j.end_s.min(b) - j.start_s.max(a)).max(0.0);
                    let dur = j.end_s - j.start_s;
                    if dur > 0.0 {
                        overlap / dur
                    } else {
                        0.0
                    }
                })
                .sum();
            credit / len
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn back_to_back_jobs_give_their_rate() {
        // 0.25 s jobs back to back for 10 s: 4 jobs/s in every slice,
        // although no slice edge coincides with a job edge.
        let jobs: Vec<JobSpan> = (0..40)
            .map(|i| JobSpan {
                start_s: i as f64 * 0.25,
                end_s: (i + 1) as f64 * 0.25,
            })
            .collect();
        let r = jobs_per_s(&jobs, 10.0, 3);
        assert!((r - 4.0).abs() < 1e-9, "{r}");
    }
}
