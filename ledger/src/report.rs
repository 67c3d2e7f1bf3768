//! Samples, metrics, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::calib::{HostSpeed, NOMINAL_MS};
use crate::stats;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Answer mismatches found by the checks (empty when `correct`).
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{name: {"value", "unit"}, …}` with every digit of each value.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        assert!(stats::valid_name(m.name), "invalid metric name {}", m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

/// One completed operation of a closed loop.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The query id (`"3"`, `"B17"`, `"W"` for the query on a fresh table).
    pub key: String,
    /// Plan family: `lazy`, `eager`, `mystiq`, `hybrid`, `fallback`, or
    /// `write` for `POST /tables`.
    pub family: &'static str,
    pub ok: bool,
    pub ms: f64,
    /// The timed stretch it ran in, for the host-speed adjustment: the
    /// operation's own index on the library workloads, the round on serve.
    pub at: usize,
}

impl Sample {
    fn is_read(&self) -> bool {
        self.family != "write"
    }
}

/// The samples of one closed loop and its wall time.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// Weigh every operation of the mix equally: throughput and median
    /// latency come from per-operation medians, so where the loop stops in
    /// its last pass does not change the mix (one sequential caller only).
    pub per_op: bool,
}

impl LoopStats {
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    fn ok_ms(&self, pred: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && pred(s))
            .map(|s| s.ms)
            .collect()
    }

    /// The same loop at nominal host speed: every sample's time adjusted
    /// by the readings around its stretch. The wall time is left as is.
    pub fn adjusted(&self, speed: &HostSpeed) -> LoopStats {
        LoopStats {
            samples: self
                .samples
                .iter()
                .map(|s| Sample {
                    ms: speed.adjust(s.at, s.ms),
                    ..s.clone()
                })
                .collect(),
            wall_s: self.wall_s,
            per_op: self.per_op,
        }
    }

    /// Successful read latencies.
    pub fn read_ms(&self) -> Vec<f64> {
        self.ok_ms(Sample::is_read)
    }

    /// Geomean over queries of each query's median latency, for the given
    /// families. `None` when no such operation succeeded.
    pub fn geomean_ms(&self, families: &[&str]) -> Option<f64> {
        let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in self
            .samples
            .iter()
            .filter(|s| s.ok && families.contains(&s.family))
        {
            by_key.entry(&s.key).or_default().push(s.ms);
        }
        let medians: Vec<f64> = by_key.values().filter_map(|v| stats::median(v)).collect();
        stats::geomean(&medians)
    }

    pub fn write_p50_ms(&self) -> Option<f64> {
        stats::median(&self.ok_ms(|s| s.family == "write"))
    }

    /// Per operation `(key, family)`: the median time of all its samples,
    /// the median of its successful ones, and its success share.
    fn per_op_medians(&self) -> Vec<(f64, Option<f64>, f64)> {
        let mut by_op: BTreeMap<(&str, &str), Vec<&Sample>> = BTreeMap::new();
        for s in &self.samples {
            by_op.entry((&s.key, s.family)).or_default().push(s);
        }
        by_op
            .values()
            .map(|v| {
                let all: Vec<f64> = v.iter().map(|s| s.ms).collect();
                let ok: Vec<f64> = v.iter().filter(|s| s.ok).map(|s| s.ms).collect();
                let med = stats::median(&all).expect("every operation has a sample");
                (med, stats::median(&ok), ok.len() as f64 / v.len() as f64)
            })
            .collect()
    }

    /// Successful operations per second of the loop; with `per_op`, of one
    /// pass of the mix at each operation's median time.
    pub fn throughput(&self) -> f64 {
        if self.per_op {
            let ops = self.per_op_medians();
            let pass_s: f64 = ops.iter().map(|o| o.0).sum::<f64>() / 1e3;
            ops.iter().map(|o| o.2).sum::<f64>() / pass_s
        } else {
            (self.attempted() - self.failed()) as f64 / self.wall_s
        }
    }

    /// Median successful read latency; with `per_op`, the median over
    /// operations of each one's median.
    pub fn latency_p50_ms(&self) -> Option<f64> {
        if self.per_op {
            let meds: Vec<f64> = self.per_op_medians().iter().filter_map(|o| o.1).collect();
            stats::median(&meds)
        } else {
            stats::median(&self.read_ms())
        }
    }

    /// Successful share of the operations; with `per_op`, of the mix.
    pub fn ok_frac(&self) -> f64 {
        if self.per_op {
            let ops = self.per_op_medians();
            ops.iter().map(|o| o.2).sum::<f64>() / ops.len() as f64
        } else {
            (self.attempted() - self.failed()) as f64 / self.attempted() as f64
        }
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", setup_s),
            metric("throughput_qps", "ops/s", self.throughput()),
            metric("latency_p50_ms", "ms", self.latency_p50_ms().unwrap_or(0.0)),
            metric(
                "lazy_geomean_ms",
                "ms",
                self.geomean_ms(&["lazy", "fallback"]).unwrap_or(0.0),
            ),
            metric("ok_frac", "ratio", self.ok_frac()),
            metric("peak_rss_mb", "MiB", peak_rss_mb()),
        ]
    }

    /// The stderr line of the time metrics as measured, before the
    /// host-speed adjustment, with the host's reference readings.
    pub fn describe_raw(&self, setup_s: f64, speed: &HostSpeed) -> String {
        format!(
            "  as measured: setup_s {setup_s:.6} s, throughput_qps {:.6} ops/s, latency_p50_ms {:.3}, lazy_geomean_ms {:.3}; host reference median {:.3} ms over {} readings (nominal {NOMINAL_MS} ms)",
            self.throughput(),
            self.latency_p50_ms().unwrap_or(0.0),
            self.geomean_ms(&["lazy", "fallback"]).unwrap_or(0.0),
            speed.median_ms(),
            speed.readings.len()
        )
    }

    /// Human-readable lines for stderr: every end-to-end figure this
    /// workload has, tails only where ten samples lie beyond them.
    pub fn describe(&self) -> Vec<String> {
        let reads = self.read_ms();
        let mut lines = vec![format!(
            "  operations: {} attempted, {} failed ({:.4} failed_frac), {} successful reads, {:.3} s loop",
            self.attempted(),
            self.failed(),
            self.failed() as f64 / self.attempted().max(1) as f64,
            reads.len(),
            self.wall_s
        )];
        if self.per_op {
            let mut by_op: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
            for s in self.samples.iter().filter(|s| s.ok) {
                by_op.entry((&s.key, s.family)).or_default().push(s.ms);
            }
            let cells: Vec<String> = by_op
                .iter()
                .map(|((key, family), ms)| {
                    let med = stats::median(ms).expect("a successful sample");
                    format!("{key}/{family} {med:.1} ({})", ms.len())
                })
                .collect();
            for chunk in cells.chunks(6) {
                lines.push(format!(
                    "  per-operation median ms (samples): {}",
                    chunk.join(", ")
                ));
            }
        }
        for (name, q) in [("latency_p95_ms", 0.95), ("latency_p99_ms", 0.99)] {
            lines.push(match stats::tail_percentile(&reads, q) {
                Some(v) => format!("  {name:<22} {v:>12.3} ms   ({} samples)", reads.len()),
                None => format!(
                    "  {name:<22} {:>12}      ({} samples; needs {})",
                    "n/a",
                    reads.len(),
                    stats::samples_needed(q)
                ),
            });
        }
        for (name, fams) in [
            ("eager_geomean_ms", &["eager"][..]),
            ("mystiq_geomean_ms", &["mystiq"][..]),
            ("hybrid_geomean_ms", &["hybrid"][..]),
        ] {
            if let Some(v) = self.geomean_ms(fams) {
                lines.push(format!("  {name:<22} {v:>12.3} ms"));
            }
        }
        if let Some(v) = self.write_p50_ms() {
            lines.push(format!("  {:<22} {v:>12.3} ms", "write_p50_ms"));
        }
        lines
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(key: &str, family: &'static str, ok: bool, ms: f64) -> Sample {
        Sample {
            key: key.to_string(),
            family,
            ok,
            ms,
            at: 0,
        }
    }

    #[test]
    fn geomean_of_per_query_medians_skips_failures() {
        let stats = LoopStats {
            samples: vec![
                s("1", "lazy", true, 1.0),
                s("1", "lazy", true, 3.0),
                s("2", "lazy", true, 8.0),
                s("2", "lazy", false, 1000.0),
                s("2", "eager", true, 50.0),
            ],
            wall_s: 2.0,
            per_op: false,
        };
        // medians 2 and 8 → geomean 4.
        assert!((stats.geomean_ms(&["lazy"]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(stats.failed(), 1);
        assert_eq!(stats.throughput(), 2.0);
    }

    #[test]
    fn per_op_mix_ignores_where_the_last_pass_stops() {
        // Op "a" ran twice (1 ms, 3 ms), op "b" once (6 ms, failed once).
        let stats = LoopStats {
            samples: vec![
                s("a", "lazy", true, 1.0),
                s("b", "lazy", true, 6.0),
                s("a", "lazy", true, 3.0),
                s("b", "lazy", false, 6.0),
            ],
            wall_s: 100.0,
            per_op: true,
        };
        // One pass: a at 2 ms + b at 6 ms; 1.5 successful ops per pass.
        assert!((stats.throughput() - 1.5 / 0.008).abs() < 1e-9);
        assert_eq!(stats.latency_p50_ms(), Some(4.0));
        assert_eq!(stats.ok_frac(), 0.75);
    }

    #[test]
    fn adjusting_scales_each_sample_by_its_own_stretch() {
        let mut stats = LoopStats {
            samples: vec![s("a", "lazy", true, 10.0), s("a", "lazy", true, 10.0)],
            wall_s: 1.0,
            per_op: false,
        };
        stats.samples[1].at = 3;
        let speed =
            HostSpeed::from_readings([vec![NOMINAL_MS; 2], vec![2.0 * NOMINAL_MS; 4]].concat());
        let adjusted = stats.adjusted(&speed);
        assert_eq!(adjusted.samples[0].ms, 10.0);
        assert_eq!(adjusted.samples[1].ms, 5.0);
        assert_eq!(adjusted.wall_s, 1.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: vec![metric("setup_s", "s", 0.5)],
            mismatches: Vec::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
