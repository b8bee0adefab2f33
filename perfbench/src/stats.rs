//! The arithmetic the benchmark's numbers rest on: a seeded generator,
//! nearest-rank percentiles, the Poisson arrival schedule, the parser for
//! the server's `metrics` exposition, and the cost ledger.  Everything
//! here is pure, so the unit tests at the bottom pin it down.

/// SplitMix64: a small, fast, seedable generator.  The benchmark derives
/// every input (class patterns, the mix draw, the arrival schedule) from
/// it, so one `--seed` reproduces one set of inputs exactly.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derive an independent sub-seed for stream `stream` of `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least a `p` share of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a bug upstream.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of a sample (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// [`nearest_rank`] of sorted samples as `f64`, or 0 when there are none
/// (a class or layer that saw no jobs in the window).
pub fn pct(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        nearest_rank(sorted, p) as f64
    }
}

/// [`median`], or 0 when there are no values.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Poisson arrival instants, in seconds from the schedule's start, for
/// `rate` arrivals per second over `duration` seconds: exponential gaps
/// drawn from `rng`.
pub fn poisson_arrivals(rng: &mut SplitMix, rate: f64, duration: f64) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// One histogram series read from the Prometheus-style exposition:
/// cumulative counts at ascending `le` bounds (the last is `+Inf`), plus
/// the series' `_sum` and `_count`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Buckets {
    pub le: Vec<f64>,
    pub cum: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl Buckets {
    /// Parse the series `name{label,…}` (for example
    /// `name = "smartapps_stage_ns"`, `label = "stage=\"queue\""`).  A
    /// series absent from `text` parses as empty.
    pub fn parse(text: &str, name: &str, label: &str) -> Buckets {
        let bucket = format!("{name}_bucket{{{label},le=\"");
        let sum = format!("{name}_sum{{{label}}} ");
        let count = format!("{name}_count{{{label}}} ");
        let mut b = Buckets::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(&bucket) {
                let Some((le, cum)) = rest.split_once("\"} ") else {
                    continue;
                };
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    match le.parse() {
                        Ok(v) => v,
                        Err(_) => continue,
                    }
                };
                if let Ok(cum) = cum.trim().parse() {
                    b.le.push(le);
                    b.cum.push(cum);
                }
            } else if let Some(v) = line.strip_prefix(&sum) {
                b.sum = v.trim().parse().unwrap_or(0);
            } else if let Some(v) = line.strip_prefix(&count) {
                b.count = v.trim().parse().unwrap_or(0);
            }
        }
        b
    }

    /// Cumulative count at bound `le`.  The exposition lists bounds only
    /// up to the highest occupied bucket, so a bound past the last finite
    /// one holds the whole count.
    fn cum_at(&self, le: f64) -> u64 {
        match self.le.iter().position(|&b| b >= le) {
            Some(i) if self.le[i] == le => self.cum[i],
            Some(i) if i > 0 => self.cum[i - 1],
            Some(_) => 0,
            None => self.count,
        }
    }

    /// The observations recorded between `before` and `self` (two
    /// snapshots of one cumulative series).
    pub fn since(&self, before: &Buckets) -> Buckets {
        Buckets {
            le: self.le.clone(),
            cum: self
                .le
                .iter()
                .zip(&self.cum)
                .map(|(&le, &c)| c.saturating_sub(before.cum_at(le)))
                .collect(),
            sum: self.sum.saturating_sub(before.sum),
            count: self.count.saturating_sub(before.count),
        }
    }

    /// Mean of the observations, or `None` for an empty series.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Quantile `q`, interpolated linearly inside the bucket holding rank
    /// `q * count` (the rule of Prometheus' `histogram_quantile`).  A rank
    /// in the `+Inf` bucket reports the last finite bound.  `None` for an
    /// empty series.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = *self.cum.last()?;
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let i = self.cum.iter().position(|&c| c as f64 >= rank)?;
        let (lo, below) = if i == 0 {
            (0.0, 0)
        } else {
            (self.le[i - 1], self.cum[i - 1])
        };
        let hi = self.le[i];
        if hi.is_infinite() {
            return Some(lo);
        }
        let inside = (self.cum[i] - below) as f64;
        let frac = if inside > 0.0 {
            (rank - below as f64) / inside
        } else {
            1.0
        };
        Some(lo + (hi - lo) * frac)
    }
}

/// One job's end-to-end cost split into the layers that explain it, with
/// the remainder no layer accounts for.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Mean end-to-end cost of one job, in µs.
    pub end_to_end: f64,
    /// Per-layer shares of that cost, in µs.
    pub parts: Vec<(&'static str, f64)>,
}

impl Ledger {
    pub fn explained(&self) -> f64 {
        self.parts.iter().map(|(_, v)| v).sum()
    }

    /// The cost no layer explains (negative when the layers over-explain).
    pub fn residual(&self) -> f64 {
        self.end_to_end - self.explained()
    }

    pub fn residual_frac(&self) -> f64 {
        if self.end_to_end > 0.0 {
            self.residual() / self.end_to_end
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        // Rank ceil(0.5 * 5) = 3 of five samples.
        assert_eq!(nearest_rank(&[10, 20, 30, 40, 50], 0.5), 30);
        // p99 of ten samples is the largest: ceil(9.9) = 10.
        let ten: Vec<u64> = (0..10).collect();
        assert_eq!(nearest_rank(&ten, 0.99), 9);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_keeps_its_rate() {
        let a = poisson_arrivals(&mut SplitMix::new(7), 2000.0, 10.0);
        let b = poisson_arrivals(&mut SplitMix::new(7), 2000.0, 10.0);
        let c = poisson_arrivals(&mut SplitMix::new(8), 2000.0, 10.0);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "instants ascend");
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // 20,000 expected arrivals: the count's standard deviation is
        // ~141, so 3% is over four of them.
        let rate = a.len() as f64 / 10.0;
        assert!((rate / 2000.0 - 1.0).abs() < 0.03, "rate {rate}");
        // Exponential gaps: the mean gap is 1/rate, and about 1/e of gaps
        // exceed it.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let longer = gaps.iter().filter(|&&g| g > 1.0 / 2000.0).count() as f64;
        let share = longer / gaps.len() as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.02, "share {share}");
    }

    const EXPO: &str = "\
# TYPE smartapps_stage_ns histogram
smartapps_stage_ns_bucket{stage=\"queue\",le=\"1\"} 0
smartapps_stage_ns_bucket{stage=\"queue\",le=\"3\"} 2
smartapps_stage_ns_bucket{stage=\"queue\",le=\"7\"} 6
smartapps_stage_ns_bucket{stage=\"queue\",le=\"+Inf\"} 6
smartapps_stage_ns_sum{stage=\"queue\"} 30
smartapps_stage_ns_count{stage=\"queue\"} 6
smartapps_stage_ns_bucket{stage=\"write\",le=\"1\"} 4
smartapps_stage_ns_bucket{stage=\"write\",le=\"+Inf\"} 4
smartapps_stage_ns_sum{stage=\"write\"} 4
smartapps_stage_ns_count{stage=\"write\"} 4
";

    #[test]
    fn exposition_series_parse_by_label() {
        let q = Buckets::parse(EXPO, "smartapps_stage_ns", "stage=\"queue\"");
        assert_eq!(q.le, vec![1.0, 3.0, 7.0, f64::INFINITY]);
        assert_eq!(q.cum, vec![0, 2, 6, 6]);
        assert_eq!((q.sum, q.count), (30, 6));
        assert_eq!(q.mean(), Some(5.0));
        let w = Buckets::parse(EXPO, "smartapps_stage_ns", "stage=\"write\"");
        assert_eq!(w.cum, vec![4, 4]);
        let none = Buckets::parse(EXPO, "smartapps_stage_ns", "stage=\"exec\"");
        assert_eq!(none, Buckets::default());
        assert_eq!(none.quantile(0.5), None);
        assert_eq!(none.mean(), None);
    }

    #[test]
    fn exposition_quantiles_interpolate_inside_a_bucket() {
        let q = Buckets::parse(EXPO, "smartapps_stage_ns", "stage=\"queue\"");
        // Rank 3 of 6 is the first of four in (3, 7].
        assert_eq!(q.quantile(0.5), Some(4.0));
        // Rank 6 is the top of (3, 7].
        assert_eq!(q.quantile(1.0), Some(7.0));
        // Rank 1 is half-way through (1, 3].
        assert_eq!(q.quantile(1.0 / 6.0), Some(2.0));
    }

    #[test]
    fn exposition_deltas_align_shorter_snapshots() {
        let before = Buckets::parse(
            "s_bucket{k=\"a\",le=\"1\"} 1\ns_bucket{k=\"a\",le=\"+Inf\"} 1\n\
             s_sum{k=\"a\"} 1\ns_count{k=\"a\"} 1\n",
            "s",
            "k=\"a\"",
        );
        let after = Buckets::parse(
            "s_bucket{k=\"a\",le=\"1\"} 2\ns_bucket{k=\"a\",le=\"3\"} 5\n\
             s_bucket{k=\"a\",le=\"+Inf\"} 5\ns_sum{k=\"a\"} 11\ns_count{k=\"a\"} 5\n",
            "s",
            "k=\"a\"",
        );
        let d = after.since(&before);
        // The earlier snapshot had no `le="3"` line: everything it held
        // sat at or below 1, so its cumulative count there is its total.
        assert_eq!(d.cum, vec![1, 4, 4]);
        assert_eq!((d.sum, d.count), (10, 4));
        assert_eq!(d.mean(), Some(2.5));
        // Values in the +Inf bucket report the last finite bound.
        let inf = Buckets {
            le: vec![1.0, f64::INFINITY],
            cum: vec![0, 3],
            sum: 0,
            count: 3,
        };
        assert_eq!(inf.quantile(0.9), Some(1.0));
    }

    #[test]
    fn ledger_parts_and_residual_add_back_up() {
        let l = Ledger {
            end_to_end: 130.0,
            parts: vec![("codec", 12.5), ("queue", 40.0), ("exec", 30.0)],
        };
        assert_eq!(l.explained(), 82.5);
        assert_eq!(l.residual(), 47.5);
        assert_eq!(l.explained() + l.residual(), l.end_to_end);
        assert!((l.residual_frac() - 47.5 / 130.0).abs() < 1e-15);
        let over = Ledger {
            end_to_end: 10.0,
            parts: vec![("exec", 12.0)],
        };
        assert_eq!(over.residual(), -2.0);
        assert_eq!(Ledger::default().residual_frac(), 0.0);
    }
}
