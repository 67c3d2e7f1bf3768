//! Per-layer metrics of the traced run, and the map from each to the
//! end-to-end metric and workload it should move.

use std::collections::BTreeMap;

use pdb_obs::Counter;

use crate::engine::Probe;
use crate::report::{metric, metrics_json, LoopStats, Metric};
use crate::trace::{self, Span};
use crate::Args;

/// `(metric, what it should move)`, in output order. The traced run prints
/// every row on stderr and writes it to the per-layer file.
pub const LAYER_MAP: &[(&str, &str)] = &[
    (
        "host.reference_ms",
        "none: the host's speed, which every end-to-end time is adjusted by",
    ),
    ("tpch.generate_s", "setup_s, all workloads"),
    ("storage.ingest_s", "setup_s, all workloads"),
    (
        "tpch.known_failures",
        "catalogue queries that fail, run once outside the timed loop (unsafe: 5, B5)",
    ),
    ("storage.register_ms", "write_p50_ms, serve"),
    (
        "plan.build_ms",
        "latency_p50_ms, serve; lazy_geomean_ms, paper",
    ),
    (
        "exec.pipeline_ms",
        "lazy_geomean_ms, paper and unsafe; latency_p50_ms, serve",
    ),
    (
        "exec.scan_ms",
        "lazy_geomean_ms, paper and unsafe; latency_p50_ms, serve",
    ),
    ("exec.join_ms", "derived: exec.pipeline_ms - exec.scan_ms"),
    ("exec.chunk_skip_ratio", "lazy_geomean_ms, paper"),
    ("exec.join_match_ratio", "lazy_geomean_ms, paper"),
    ("exec.rows_scanned", "per traced operation"),
    ("exec.answer_rows", "per traced operation"),
    ("conf.total_ms", "lazy_geomean_ms, paper and unsafe"),
    ("conf.sort_ms", "lazy_geomean_ms, paper"),
    ("conf.scan_ms", "derived: conf.total_ms - conf.sort_ms"),
    ("conf.bags", "per traced operation"),
    ("conf.huge_bags", "per traced operation"),
    ("eager.exec_ms", "eager_geomean_ms, paper"),
    ("eager.groups", "per traced operation"),
    ("mystiq.exec_ms", "mystiq_geomean_ms, paper"),
    ("hybrid.exec_ms", "hybrid_geomean_ms, paper"),
    ("fallback.pipeline_ms", "latency_p50_ms, unsafe"),
    (
        "conf.bounds_ms",
        "latency_p95_ms and bounds_width_mean, unsafe",
    ),
    ("conf.frontier_nodes", "per traced operation"),
    ("lineage.readonce_hit_ratio", "latency_p50_ms, unsafe"),
    (
        "par.exec_speedup",
        "latency_p50_ms, serve; lazy_geomean_ms, paper",
    ),
    (
        "par.conf_speedup",
        "latency_p50_ms, serve; lazy_geomean_ms, paper",
    ),
    (
        "server.admit_wait_ms",
        "latency_p99_ms and latency_p50_ms, serve",
    ),
    ("server.exec_ms", "latency_p99_ms and latency_p50_ms, serve"),
    (
        "server.stream_ms",
        "latency_p99_ms and latency_p50_ms, serve",
    ),
    ("server.wire_ms", "latency_p50_ms and write_p50_ms, serve"),
    ("server.shed_frac", "ok_frac (failed_frac), serve"),
    (
        "trace.overhead_frac",
        "traced minus untraced time, over untraced",
    ),
    (
        "trace.accounted_frac",
        "layer self time on the blocking path, over untraced time",
    ),
    (
        "eager_geomean_ms",
        "plan family split of throughput_qps, paper",
    ),
    (
        "mystiq_geomean_ms",
        "plan family split of throughput_qps, paper",
    ),
    (
        "hybrid_geomean_ms",
        "plan family split of throughput_qps, paper",
    ),
    ("write_p50_ms", "throughput_qps, serve"),
    ("bounds_width_mean", "answer quality, unsafe"),
    ("failed_frac", "ok_frac, all workloads"),
];

/// Times of layers that only some workloads enter. They read 0 on the
/// others, every run, so the result line leaves them out; stderr and the
/// per-layer file carry them.
const WORKLOAD_SPECIFIC: &[&str] = &[
    "storage.register_ms",
    "conf.sort_ms",
    "eager.exec_ms",
    "mystiq.exec_ms",
    "hybrid.exec_ms",
    "fallback.pipeline_ms",
    "conf.bounds_ms",
    "server.admit_wait_ms",
    "server.exec_ms",
    "server.stream_ms",
    "server.wire_ms",
    "eager_geomean_ms",
    "mystiq_geomean_ms",
    "hybrid_geomean_ms",
    "write_p50_ms",
];

/// Logs every per-layer metric with the blocking-path split and the
/// counter totals, writes the span dump (`traced.spans` plus `extra`) and
/// the per-layer file, and returns the metrics the result line carries.
pub fn report(
    args: &Args,
    metrics: Vec<Metric>,
    traced: &Traced,
    extra: Vec<Span>,
    log: &mut Vec<String>,
) -> Vec<Metric> {
    log.extend(describe(&metrics, &traced.spans, traced.plain_ms));
    let counters: Vec<String> = Counter::ALL
        .iter()
        .map(|c| format!("{}={}", c.name(), traced.counters[*c as usize]))
        .collect();
    log.push(format!("  QueryObs counter totals: {}", counters.join(" ")));
    let mut spans = traced.spans.clone();
    trace::merge(&mut spans, extra);
    crate::write_trace_files(args, &spans, &metrics_json(&metrics), log);
    metrics
        .into_iter()
        .filter(|m| !WORKLOAD_SPECIFIC.contains(&m.name))
        .collect()
}

/// What the traced run of a library workload recorded.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    /// Probes of the traced lazy and fallback operations, by op label.
    pub probes: BTreeMap<String, Probe>,
    pub counters: [u64; Counter::COUNT],
    /// Distinct answer tuples over the traced operations.
    pub answer_rows: u64,
    /// Summed untraced time of the operations that were also traced.
    pub plain_ms: f64,
    /// Untraced samples of the same operations.
    pub untraced: LoopStats,
    pub bounds_width_mean: f64,
    /// Operations known to fail that failed in their run outside the loop.
    pub known_failures: u64,
    /// Median host-speed reference reading of the loop, in ms.
    pub host_reference_ms: f64,
}

/// The server-side split of the serve workload, from `GET /metrics`.
#[derive(Debug, Clone, Default)]
pub struct ServerSplit {
    pub admit_ms: f64,
    pub exec_ms: f64,
    pub stream_ms: f64,
    pub wire_ms: f64,
    pub shed_frac: f64,
    pub register_ms: f64,
    pub write_p50_ms: f64,
}

/// Mean over operation labels of each label's mean span time, in ms, over
/// spans named in `names`, restricted to labels accepted by `keep`.
fn label_mean(spans: &[Span], names: &[&str], keep: impl Fn(&str) -> bool) -> f64 {
    let labels: BTreeMap<u64, &str> = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| (s.op, s.detail.as_str()))
        .collect();
    let mut per_label: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        if let Some(label) = labels.get(&s.op).filter(|l| keep(l)) {
            let e = per_label.entry(label).or_default();
            e.0 += s.duration_ns() as f64 / 1e6;
            e.1 += 1;
        }
    }
    mean(per_label.values().map(|(sum, n)| sum / *n as f64))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    crate::stats::mean(&v).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in [`LAYER_MAP`] order.
pub fn per_layer(
    t: &Traced,
    generate_s: f64,
    ingest_s: f64,
    server: Option<&ServerSplit>,
) -> Vec<Metric> {
    let c = |k: Counter| t.counters[k as usize] as f64;
    let roots: Vec<&Span> = t.spans.iter().filter(|s| s.name == "op").collect();
    let ops = roots.len() as f64;
    let per_op = |v: f64| ratio(v, ops);

    // Pipeline and confidence stages of the lazy-family plans (lazy, and
    // the fallback's lazy joins with bounds on top) over the probed labels,
    // so the derived differences subtract like from like.
    let is_probed = |l: &str| t.probes.contains_key(l);
    let is_fallback = |l: &str| l.ends_with("/fallback");
    let pipeline = label_mean(&t.spans, &["exec.pipeline"], is_probed);
    let conf_total = label_mean(&t.spans, &["conf.total", "conf.bounds"], is_probed);
    let scan = mean(t.probes.values().map(|p| p.scan_ms));
    let sort = mean(t.probes.values().map(|p| p.sort_ms.unwrap_or(0.0)));

    let all_probes = || t.probes.values();
    let exec_speedup = ratio(
        all_probes().map(|p| p.pipeline_ms[0]).sum(),
        all_probes().map(|p| p.pipeline_ms[1]).sum(),
    );
    let conf_speedup = ratio(
        all_probes().map(|p| p.conf_ms[0]).sum(),
        all_probes().map(|p| p.conf_ms[1]).sum(),
    );
    let read_once = all_probes().fold((0, 0), |a, p| (a.0 + p.read_once.0, a.1 + p.read_once.1));

    let (blocking, _) = trace::blocking_path(&t.spans, "op");
    let layer_self_ns: u64 = blocking
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, ns)| ns)
        .sum();
    let traced_ms: f64 = roots.iter().map(|s| s.duration_ns() as f64 / 1e6).sum();

    let any = |_: &str| true;
    let s = server.cloned().unwrap_or_default();
    let u = &t.untraced;
    let values: Vec<(&str, f64)> = vec![
        ("ms", t.host_reference_ms),
        ("s", generate_s),
        ("s", ingest_s),
        ("count", t.known_failures as f64),
        ("ms", s.register_ms),
        ("ms", label_mean(&t.spans, &["plan.build"], any)),
        ("ms", pipeline),
        ("ms", scan),
        ("ms", pipeline - scan),
        (
            "ratio",
            ratio(
                c(Counter::ChunksSkipped) + c(Counter::ChunksBloomSkipped),
                c(Counter::ChunksScanned),
            ),
        ),
        (
            "ratio",
            ratio(c(Counter::JoinMatches), c(Counter::JoinProbes)),
        ),
        ("count", per_op(c(Counter::RowsScanned))),
        ("count", per_op(t.answer_rows as f64)),
        ("ms", conf_total),
        ("ms", sort),
        ("ms", conf_total - sort),
        ("count", per_op(c(Counter::ConfBags))),
        ("count", per_op(c(Counter::ConfHugeBags))),
        ("ms", label_mean(&t.spans, &["eager.exec"], any)),
        ("count", per_op(c(Counter::EagerGroups))),
        ("ms", label_mean(&t.spans, &["mystiq.exec"], any)),
        ("ms", label_mean(&t.spans, &["hybrid.exec"], any)),
        ("ms", label_mean(&t.spans, &["exec.pipeline"], is_fallback)),
        ("ms", label_mean(&t.spans, &["conf.bounds"], any)),
        ("count", per_op(c(Counter::FrontierNodes))),
        ("ratio", ratio(read_once.0 as f64, read_once.1 as f64)),
        ("ratio", exec_speedup),
        ("ratio", conf_speedup),
        ("ms", s.admit_ms),
        ("ms", s.exec_ms),
        ("ms", s.stream_ms),
        ("ms", s.wire_ms),
        ("ratio", s.shed_frac),
        ("ratio", ratio(traced_ms, t.plain_ms) - 1.0),
        ("ratio", ratio(layer_self_ns as f64 / 1e6, t.plain_ms)),
        ("ms", u.geomean_ms(&["eager"]).unwrap_or(0.0)),
        ("ms", u.geomean_ms(&["mystiq"]).unwrap_or(0.0)),
        ("ms", u.geomean_ms(&["hybrid"]).unwrap_or(0.0)),
        ("ms", s.write_p50_ms),
        ("prob", t.bounds_width_mean),
        ("ratio", ratio(u.failed() as f64, u.attempted() as f64)),
    ];
    assert_eq!(values.len(), LAYER_MAP.len());
    LAYER_MAP
        .iter()
        .zip(values)
        .map(|(&(name, _), (unit, v))| metric(name, unit, v))
        .collect()
}

/// The per-layer table for stderr: value, unit, and what it should move;
/// then the self time of every span name on the blocking path.
fn describe(metrics: &[Metric], spans: &[Span], plain_ms: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "  {:<28} {:>14} {:<6} should move",
        "metric", "value", "unit"
    )];
    for (m, (_, moves)) in metrics.iter().zip(LAYER_MAP) {
        lines.push(format!(
            "  {:<28} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, moves
        ));
    }
    let (blocking, roots_ns) = trace::blocking_path(spans, "op");
    lines.push(format!(
        "  blocking-path self time over {:.3} ms traced ({:.3} ms untraced):",
        roots_ns as f64 / 1e6,
        plain_ms
    ));
    for (name, ns) in blocking {
        lines.push(format!(
            "    {:<24} {:>12.3} ms  {:>6.2}%",
            if name == "op" { "op (glue)" } else { name },
            ns as f64 / 1e6,
            100.0 * ratio(ns as f64 / 1e6, plain_ms)
        ));
    }
    lines
}
