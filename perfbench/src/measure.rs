//! Sample statistics and the metric list the benchmark prints.

/// One latency sample tagged with its mode (the simulation config, the
/// grid size, ...).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub mode: &'static str,
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Index of the nearest-rank `p`th percentile among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the `p`th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// p50 and the workload's fixed tail percentile of a sample set, plus
/// the steadiness report: each mode's share of the samples and where p50
/// and the tail land among the modes.
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub report: Vec<String>,
}

pub fn latency(samples: &[Sample], tail_pct: f64) -> Latency {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let ms: Vec<f64> = sorted.iter().map(|s| s.ms).collect();
    let n = sorted.len();
    let mut report = Vec::new();
    let mut modes: Vec<(&'static str, usize)> = Vec::new();
    for s in &sorted {
        match modes.iter_mut().find(|(m, _)| *m == s.mode) {
            Some((_, c)) => *c += 1,
            None => modes.push((s.mode, 1)),
        }
    }
    modes.sort_by_key(|&(m, _)| m);
    for (mode, count) in &modes {
        let of_mode: Vec<f64> = sorted
            .iter()
            .filter(|s| s.mode == *mode)
            .map(|s| s.ms)
            .collect();
        report.push(format!(
            "mode {mode:<14} share {:6.2}%  n {count:6}  p10 {:9.3}  p50 {:9.3}  p90 {:9.3}  p99 {:9.3} ms",
            100.0 * *count as f64 / n.max(1) as f64,
            percentile(&of_mode, 10.0),
            percentile(&of_mode, 50.0),
            percentile(&of_mode, 90.0),
            percentile(&of_mode, 99.0),
        ));
    }
    for p in [50.0, tail_pct] {
        if n == 0 {
            break;
        }
        let r = rank(n, p);
        // The samples within 2% of the ranks around the percentile: if
        // no single mode holds three quarters of them, the percentile sits
        // on a boundary between modes and small shifts in the mix move it.
        let window = (n / 50).max(1);
        let near = &sorted[r.saturating_sub(window)..=(r + window).min(n - 1)];
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for s in near {
            match counts.iter_mut().find(|(m, _)| *m == s.mode) {
                Some((_, c)) => *c += 1,
                None => counts.push((s.mode, 1)),
            }
        }
        counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let (top, top_n) = counts[0];
        let verdict = if top_n * 4 >= near.len() * 3 {
            format!(
                "inside mode {top} ({top_n} of {} nearby samples)",
                near.len()
            )
        } else {
            let modes: Vec<String> = counts.iter().map(|(m, c)| format!("{m} {c}")).collect();
            format!("ON A MODE BOUNDARY ({})", modes.join(", "))
        };
        report.push(format!(
            "p{p} = {:.3} ms: {verdict}; {} samples beyond",
            ms[r],
            beyond(n, p),
        ));
    }
    if beyond(n, tail_pct) < 10 {
        report.push(format!(
            "WARNING: only {} samples beyond p{tail_pct}; the tail needs at least 10",
            beyond(n, tail_pct)
        ));
    }
    Latency {
        p50: percentile(&ms, 50.0),
        tail: percentile(&ms, tail_pct),
        report,
    }
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn boundary_is_flagged() {
        let mut samples = Vec::new();
        for i in 0..50 {
            samples.push(Sample {
                ms: 1.0 + i as f64 * 0.01,
                mode: "a",
            });
            samples.push(Sample {
                ms: 5.0 + i as f64 * 0.01,
                mode: "b",
            });
        }
        let l = latency(&samples, 90.0);
        assert!(l
            .report
            .iter()
            .any(|r| r.starts_with("p50 ") && r.contains("BOUNDARY")));
        assert!(l
            .report
            .iter()
            .any(|r| r.starts_with("p90 ") && r.contains("inside mode b")));
    }
}
