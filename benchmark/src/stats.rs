//! Order statistics over repeated measurements, and the verdict
//! `compare` gives when two result sets disagree.

use std::fmt;

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (the mean of the middle pair for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// Quartiles follow Python's `statistics.quantiles(samples, n=4)`
    /// (the default "exclusive" method), so numbers printed here match
    /// the ones an outside script computes from the same samples. One
    /// sample gives both quartiles equal to it.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (s[0], s[0])
        } else {
            (exclusive_quartile(&s, 1), exclusive_quartile(&s, 3))
        };
        Summary { median, q1, q3, n }
    }

    /// The interquartile range as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartile `i` (1 or 3) of sorted data under Python's exclusive method:
/// rank `i * (len + 1) / 4`, clamped into the data and interpolated.
fn exclusive_quartile(sorted: &[f64], i: i64) -> f64 {
    let len = sorted.len() as i64;
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m - j * 4) as f64;
    let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
    (lo * (4.0 - delta) + hi * delta) / 4.0
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (time, memory).
    Lower,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// Whether `x` strictly beats `y`.
    fn beats(self, x: f64, y: f64) -> bool {
        match self {
            Better::Higher => x > y,
            Better::Lower => x < y,
        }
    }
}

/// The outcome of comparing a metric between a base and a candidate run
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate improved beyond the base's own spread.
    Better,
    /// No change beyond the bound.
    Same,
    /// The candidate regressed by more than the bound.
    Worse,
    /// The spread is wider than the bound, so a regression of the bound's
    /// size could hide in the noise.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The signed gain of `cand` over `base` as a share of `base`'s median:
/// positive when the candidate is better.
pub fn gain(base: &Summary, cand: &Summary, better: Better) -> f64 {
    if base.median == 0.0 {
        return 0.0;
    }
    let delta = (cand.median - base.median) / base.median.abs();
    match better {
        Better::Higher => delta,
        Better::Lower => -delta,
    }
}

/// Compares a candidate's samples against a base's under a regression
/// bound (a share of the base median).
///
/// The rule is the one the repository's performance claims follow:
///
/// * When either side's interquartile spread exceeds the bound, the
///   result is `Unresolved` — unless every candidate sample beats every
///   base sample (`Better`), or every base sample beats every candidate
///   sample and the medians differ by more than the bound (`Worse`).
/// * Otherwise a median that lost more than the bound is `Worse`.
/// * A gain counts as `Better` only with at least ten cross pairs, the
///   candidate winning nine tenths of them, and a median gain larger than
///   the base's own spread.
/// * Everything else is `Same`.
///
/// # Panics
///
/// Panics if either sample set is empty.
pub fn verdict(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Verdict {
    let (sb, sc) = (Summary::of(base), Summary::of(cand));
    let g = gain(&sb, &sc, better);
    let all = |x: &[f64], y: &[f64]| x.iter().all(|&a| y.iter().all(|&b| better.beats(a, b)));
    if sb.spread().max(sc.spread()) > bound {
        return if all(cand, base) {
            Verdict::Better
        } else if all(base, cand) && -g > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if -g > bound {
        return Verdict::Worse;
    }
    let pairs = base.len() * cand.len();
    let wins = cand
        .iter()
        .map(|&c| base.iter().filter(|&&b| better.beats(c, b)).count())
        .sum::<usize>();
    if pairs >= 10 && wins * 10 >= pairs * 9 && g > sb.spread() {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let one = Summary::of(&[4.0]);
        assert_eq!((one.q1, one.q3, one.n), (4.0, 4.0, 1));
    }
}
