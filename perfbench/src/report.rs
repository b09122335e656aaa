//! The benchmark's one report emitter: summary statistics, the metric
//! record, the human-readable table and the machine-readable result line.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
    /// A workload property or diagnostic with no preferred direction.
    Neither,
}

impl Better {
    fn arrow(self) -> &'static str {
        match self {
            Better::Higher => "up",
            Better::Lower => "down",
            Better::Neither => "-",
        }
    }
}

/// One reported metric: the value the result line carries plus the
/// samples it summarizes.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The reported value (defined per metric: a median, a ratio of
    /// totals, a count per frame, ...).
    pub value: f64,
    /// The per-sample values behind `value` (may be empty for a value
    /// measured once).
    pub samples: Vec<f64>,
    /// What a ratio is relative to, or how a tail was taken.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, better: Better, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            better,
            value,
            samples: Vec::new(),
            note: String::new(),
        }
    }

    pub fn samples(mut self, samples: Vec<f64>) -> Metric {
        self.samples = samples;
        self
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Median and quartiles of a sample set.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for
/// an empty set.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The arithmetic mean; 0 for an empty set.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)` (the method the spread checks use),
/// falling back to the median for fewer than two samples.
pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let m = median(&v);
        return Summary {
            q1: m,
            median: m,
            q3: m,
            n,
        };
    }
    let q = |j: usize| {
        // m = (n + 1) · j / 4, interpolated between neighbours (and
        // clamped to the data range, where Python would extrapolate for
        // n = 2).
        let m = (n + 1) as f64 * j as f64 / 4.0;
        let lo = (m.floor() as usize).clamp(1, n - 1);
        let frac = (m - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Summary {
        q1: q(1),
        median: median(&v),
        q3: q(3),
        n,
    }
}

/// A tail latency: the highest nearest-rank percentile that still has at
/// least ten samples beyond it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile the value sits at (100·(n−10)/n).
    pub percentile: f64,
    /// Samples strictly beyond the value's rank (10 unless the sample
    /// set was too small, then 0 and the value is the maximum).
    pub beyond: usize,
    pub n: usize,
}

/// The tail of `xs` by the ten-samples-beyond rule. With fewer than 11
/// samples no such percentile exists; the maximum is returned with
/// `beyond == 0` so the report shows the shortfall.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n < 11 {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            beyond: 0,
            n,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        beyond: 10,
        n,
    }
}

/// The host a report was measured on.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

/// A named pass/fail condition checked by the run.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run reports.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub host: Host,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the result line carries (end-to-end untraced,
    /// per-layer traced).
    pub metrics: Vec<Metric>,
    /// Workload-property shares, printed with every run.
    pub properties: Vec<Metric>,
    pub checks: Vec<Check>,
}

impl Report {
    /// `true` when every frame was delivered and verified and every check
    /// held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable report: host, metric table, properties, checks.
    pub fn human(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "perfbench {} seed={} seconds={} trace={} | nproc={} rustc=\"{}\" commit={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.host.nproc,
            self.host.rustc,
            self.host.commit
        );
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            s,
            "frames attempted={} failed={} error_rate={rate}",
            self.attempted, self.failed
        );
        table(&mut s, "metrics", &self.metrics);
        table(&mut s, "workload properties", &self.properties);
        let _ = writeln!(s, "checks:");
        for c in &self.checks {
            let _ = writeln!(
                s,
                "  [{}] {}: {}",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        s
    }

    /// The full report as one JSON object (metrics with samples summary,
    /// host, checks), written beside the spans.
    pub fn full_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{},\"rustc\":{},\"commit\":{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":[",
            json_str(self.workload),
            self.seed,
            json_num(self.seconds),
            u8::from(self.traced),
            self.host.nproc,
            json_str(&self.host.rustc),
            json_str(&self.host.commit),
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().chain(&self.properties).enumerate() {
            let sm = summarize(&m.samples);
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":{},\"unit\":{},\"better\":{},\"value\":{},\"q1\":{},\"median\":{},\"q3\":{},\"n\":{},\"note\":{}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.arrow()),
                json_num(m.value),
                json_num(sm.q1),
                json_num(sm.median),
                json_num(sm.q3),
                sm.n,
                json_str(&m.note)
            );
        }
        s.push_str("],\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            );
        }
        s.push_str("]}");
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

fn table(s: &mut String, title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    let _ = writeln!(s, "{title}:");
    let _ = writeln!(
        s,
        "  {:<40} {:>14} {:<6} {:<5} {:>12} {:>12} {:>12} {:>6}  note",
        "name", "value", "unit", "dir", "q1", "median", "q3", "n"
    );
    for m in metrics {
        let sm = summarize(&m.samples);
        let _ = writeln!(
            s,
            "  {:<40} {:>14.6} {:<6} {:<5} {:>12.5} {:>12.5} {:>12.5} {:>6}  {}",
            m.name,
            m.value,
            m.unit,
            m.better.arrow(),
            sm.q1,
            sm.median,
            sm.q3,
            sm.n,
            m.note
        );
    }
}

/// A JSON number; non-finite values (never expected) become 0 so the
/// line stays parseable — the run's checks flag them separately.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // 18 samples: the nearest-rank "p99" would be the maximum; the
        // rule stops at the 8th value (p44.4).
        let xs: Vec<f64> = (1..=18).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 8.0);
        assert!((t.percentile - 100.0 * 8.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_short_sample_is_flagged() {
        let t = tail(&[1.0, 5.0, 3.0]);
        assert_eq!((t.value, t.beyond, t.n), (5.0, 0, 3));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            workload: "vr_single",
            seed: 1,
            seconds: 1.0,
            traced: false,
            host: Host {
                nproc: 2,
                rustc: "rustc".into(),
                commit: "unknown".into(),
            },
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("fps", "1/s", Better::Higher, 9.5)],
            properties: Vec::new(),
            checks: Vec::new(),
        };
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"fps\": {\"value\": 9.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
