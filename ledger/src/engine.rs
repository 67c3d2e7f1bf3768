//! Operations on the engine: the production path a user calls
//! (`SproutDb::query_with_options`), the same work split into its public
//! per-layer calls for the traced run, and the per-layer probes (per-atom
//! scans, the one-scan sort, pool-1 re-runs).

use std::sync::Arc;
use std::time::Instant;

use pdb_exec::extensional::ProbAggregation;
use pdb_exec::{ops, Annotated};
use pdb_obs::QueryObs;
use pdb_par::Pool;
use pdb_query::{ConjunctiveQuery, FdSet, OneScanTree, Signature};
use pdb_storage::Catalog;
use sprout::{
    ApproxPolicy, ApproxResult, ConfMethod, ConfidenceResult, PlanKind, QueryOptions, SproutDb,
};
use sprout_plan::eager::EagerPlan;
use sprout_plan::hybrid::HybridPlan;
use sprout_plan::lazy::LazyPlan;
use sprout_plan::safe::SafePlan;
use sprout_plan::{FallbackPlan, PlanError};

use crate::trace::Tracer;

/// Workers of the server's pool, and of the pool-2 side of the pool
/// checks and probes (`nproc` of the 2-core machine the benchmark targets).
pub const POOL_THREADS: usize = 2;
/// Workers of the library workloads' timed loop. On the shared 2-core
/// machine a 2-worker loop ran slower than a 1-worker one and spread about
/// twice as far from run to run, so the loop runs on one worker and pool 2
/// is checked and timed beside it.
pub const LOOP_THREADS: usize = 1;
/// Precision the unsafe workload asks for.
pub const BOUNDS_EPS: f64 = 1e-3;
/// Fixed seed of the anytime refinement tie-breaker.
pub const APPROX_SEED: u64 = 42;
/// Per-tuple Shannon-frontier cap the unsafe workload sends (1 MiB).
pub const FRONTIER_BUDGET: usize = 1 << 20;

/// How an operation evaluates its query.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    Lazy,
    Eager,
    Mystiq,
    /// Hybrid plan with these relations' aggregations pushed down.
    Hybrid(Vec<String>),
    /// Lazy plan with the `Bounds` fallback for queries without a safe plan.
    Fallback,
}

impl Mode {
    pub fn family(&self) -> &'static str {
        match self {
            Mode::Lazy => "lazy",
            Mode::Eager => "eager",
            Mode::Mystiq => "mystiq",
            Mode::Hybrid(_) => "hybrid",
            Mode::Fallback => "fallback",
        }
    }

    /// The options a user sends for this mode.
    pub fn options(&self, pool: Pool, obs: Option<Arc<QueryObs>>) -> QueryOptions {
        let mut opts = QueryOptions {
            pool: Some(pool),
            obs,
            ..QueryOptions::default()
        };
        opts.kind = Some(match self {
            Mode::Lazy | Mode::Fallback => PlanKind::Lazy,
            Mode::Eager => PlanKind::Eager,
            Mode::Mystiq => PlanKind::Mystiq,
            Mode::Hybrid(pushed) => PlanKind::Hybrid(pushed.clone()),
        });
        if *self == Mode::Fallback {
            opts.policy = Some(ApproxPolicy::Bounds { eps: BOUNDS_EPS });
            opts.seed = APPROX_SEED;
            opts.frontier_budget = Some(Some(FRONTIER_BUDGET));
        }
        opts
    }
}

/// One operation of a library workload: a catalogue query under one mode.
#[derive(Debug, Clone)]
pub struct Op {
    pub qid: String,
    pub mode: Mode,
    pub query: ConjunctiveQuery,
}

impl Op {
    pub fn label(&self) -> String {
        format!("{}/{}", self.qid, self.mode.family())
    }
}

/// An operation's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Exact(ConfidenceResult),
    Brackets(ApproxResult),
}

impl Answer {
    /// `(tuple, confidence)` pairs: bracket midpoints for fallback answers.
    pub fn confidences(&self) -> ConfidenceResult {
        match self {
            Answer::Exact(c) => c.clone(),
            Answer::Brackets(b) => b.iter().map(|t| (t.tuple.clone(), t.value())).collect(),
        }
    }

    /// Bitwise equality: same tuples in the same order, identical bits.
    pub fn bitwise_eq(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Exact(a), Answer::Exact(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
            }
            (Answer::Brackets(a), Answer::Brackets(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| {
                        x.tuple == y.tuple
                            && x.lo.to_bits() == y.lo.to_bits()
                            && x.hi.to_bits() == y.hi.to_bits()
                            && x.method == y.method
                    })
            }
            _ => false,
        }
    }
}

/// Runs `op` through the production entry point.
pub fn run_plain(db: &SproutDb, op: &Op, pool: Pool) -> Result<Answer, String> {
    let report = db
        .query_with_options(&op.query, &op.mode.options(pool, None))
        .map_err(|e| e.to_string())?;
    Ok(match report.approx {
        Some(brackets) => Answer::Brackets(brackets),
        None => Answer::Exact(report.confidences),
    })
}

/// Runs `op` as its public per-layer calls, each inside a span, under one
/// `op` root span. Counters go to `obs`. Does the same work as
/// [`run_plain`] and returns the same answer.
pub fn run_traced(
    catalog: &Catalog,
    op: &Op,
    pool: Pool,
    obs: &Arc<QueryObs>,
    tr: &mut Tracer,
    id: u64,
) -> Result<Answer, String> {
    let root = tr.begin("op", &op.label(), id);
    let out = traced_body(catalog, op, pool, obs, tr, id);
    tr.end(root);
    out
}

/// Runs `op` once untraced and once as [`run_traced`], alternating which
/// goes first by `id` so neither side runs on caches the other warmed more
/// often. Returns the untraced answer, its time in ms, and the traced answer.
pub fn run_pair(
    db: &SproutDb,
    op: &Op,
    pool: Pool,
    obs: &Arc<QueryObs>,
    tr: &mut Tracer,
    id: u64,
) -> (Result<Answer, String>, f64, Result<Answer, String>) {
    let traced_first = (id % 2 == 1).then(|| run_traced(db.catalog(), op, pool, obs, tr, id));
    let t = Instant::now();
    let plain = run_plain(db, op, pool);
    let ms = ms_since(t);
    let traced = traced_first.unwrap_or_else(|| run_traced(db.catalog(), op, pool, obs, tr, id));
    (plain, ms, traced)
}

fn traced_body(
    catalog: &Catalog,
    op: &Op,
    pool: Pool,
    obs: &Arc<QueryObs>,
    tr: &mut Tracer,
    id: u64,
) -> Result<Answer, String> {
    let err = |e: PlanError| e.to_string();
    let q = &op.query;
    match &op.mode {
        Mode::Lazy => {
            let plan = tr.span("plan.build", "lazy", id, || {
                LazyPlan::build(q, &fds(catalog), catalog)
                    .map(|p| p.with_pool(pool).with_obs(obs.clone()))
            });
            let plan = plan.map_err(err)?;
            let answer = tr
                .span("exec.pipeline", "", id, || plan.answer_tuples(catalog))
                .map_err(err)?;
            let conf = tr
                .span("conf.total", "", id, || plan.confidences(&answer))
                .map_err(err)?;
            Ok(Answer::Exact(conf))
        }
        Mode::Eager => {
            let plan = tr
                .span("plan.build", "eager", id, || {
                    EagerPlan::build(q, &fds(catalog))
                        .map(|p| p.with_pool(pool).with_obs(obs.clone()))
                })
                .map_err(err)?;
            let conf = tr
                .span("eager.exec", "", id, || plan.execute(catalog))
                .map_err(err)?;
            Ok(Answer::Exact(conf))
        }
        Mode::Mystiq => {
            let plan = tr
                .span("plan.build", "mystiq", id, || {
                    SafePlan::build_with_aggregation(q, &fds(catalog), ProbAggregation::Stable)
                })
                .map_err(err)?;
            let conf = tr
                .span("mystiq.exec", "", id, || plan.execute(catalog))
                .map_err(err)?;
            Ok(Answer::Exact(conf))
        }
        Mode::Hybrid(pushed) => {
            let pushed: Vec<&str> = pushed.iter().map(String::as_str).collect();
            let plan = tr
                .span("plan.build", "hybrid", id, || {
                    HybridPlan::build(q, &fds(catalog), catalog, &pushed)
                        .map(|p| p.with_pool(pool).with_obs(obs.clone()))
                })
                .map_err(err)?;
            let conf = tr
                .span("hybrid.exec", "", id, || plan.execute(catalog))
                .map_err(err)?;
            Ok(Answer::Exact(conf))
        }
        Mode::Fallback => {
            // The planner first tries the safe plan; the unsafe queries fail
            // its hierarchy check and fall back.
            let plan = tr.span("plan.build", "fallback", id, || {
                match LazyPlan::build(q, &fds(catalog), catalog) {
                    Ok(_) => Err("query has a safe plan; the fallback would not run".to_string()),
                    Err(PlanError::UnsafeQuery { .. }) => {
                        FallbackPlan::build(q, catalog, ApproxPolicy::Bounds { eps: BOUNDS_EPS })
                            .map(|p| {
                                p.with_seed(APPROX_SEED)
                                    .with_pool(pool)
                                    .with_frontier_budget(Some(FRONTIER_BUDGET))
                                    .with_obs(obs.clone())
                            })
                            .map_err(err)
                    }
                    Err(e) => Err(e.to_string()),
                }
            })?;
            let answer = tr
                .span("exec.pipeline", "fallback", id, || {
                    plan.answer_tuples(catalog)
                })
                .map_err(err)?;
            let brackets = tr
                .span("conf.bounds", "", id, || plan.confidences(&answer))
                .map_err(err)?;
            Ok(Answer::Brackets(brackets))
        }
    }
}

fn fds(catalog: &Catalog) -> FdSet {
    FdSet::from_catalog_decls(&catalog.fds())
}

/// Per-layer probes of one lazy or fallback query, run outside the
/// operation spans: each atom's fused scan, the one-scan operator's sort
/// stage, and the pipeline and confidence stages at pool 1 and pool 2.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub scan_ms: f64,
    /// `None` when the signature needs more than one scan (no single sort).
    pub sort_ms: Option<f64>,
    pub pipeline_ms: [f64; 2],
    pub conf_ms: [f64; 2],
    /// Whether the pool-1 and pool-2 answers are bitwise-equal.
    pub pools_agree: bool,
    /// Answer tuples whose bracket came from read-once factorization, and
    /// all answer tuples (fallback queries only).
    pub read_once: (usize, usize),
}

/// Probes a lazy or fallback operation. The scans and the sort stage run
/// at `threads` workers, the pool of the traced split they are set against.
pub fn probe(catalog: &Catalog, op: &Op, threads: usize) -> Result<Probe, String> {
    let q = &op.query;
    let mut p = Probe::default();
    let scan_start = Instant::now();
    let head = q.head_set();
    let join_attrs = q.join_attributes();
    for atom in &q.relations {
        let backing = catalog.backing(&atom.name).map_err(|e| e.to_string())?;
        let keep: Vec<String> = atom
            .attributes
            .iter()
            .filter(|a| head.contains(*a) || join_attrs.contains(*a))
            .cloned()
            .collect();
        let scan_pool = Pool::new(threads).for_items(backing.len());
        let scanned = ops::scan_filter_project_backing_with(
            &backing,
            &atom.name,
            &q.predicates_for(&atom.name),
            &keep,
            &scan_pool,
        )
        .map_err(|e| e.to_string())?;
        std::hint::black_box(scanned);
    }
    p.scan_ms = ms_since(scan_start);

    let mut answers: Vec<Answer> = Vec::new();
    for (slot, slot_threads) in [(0, 1), (1, POOL_THREADS)] {
        let pool = Pool::new(slot_threads);
        let answer = match op.mode {
            Mode::Fallback => {
                let plan =
                    FallbackPlan::build(q, catalog, ApproxPolicy::Bounds { eps: BOUNDS_EPS })
                        .map_err(|e| e.to_string())?
                        .with_seed(APPROX_SEED)
                        .with_pool(pool)
                        .with_frontier_budget(Some(FRONTIER_BUDGET));
                let t = Instant::now();
                let tuples = plan.answer_tuples(catalog).map_err(|e| e.to_string())?;
                p.pipeline_ms[slot] = ms_since(t);
                let t = Instant::now();
                let brackets = plan.confidences(&tuples).map_err(|e| e.to_string())?;
                p.conf_ms[slot] = ms_since(t);
                p.read_once = (
                    brackets
                        .iter()
                        .filter(|b| b.method == ConfMethod::ReadOnce)
                        .count(),
                    brackets.len(),
                );
                Answer::Brackets(brackets)
            }
            _ => {
                let plan = LazyPlan::build(q, &fds(catalog), catalog)
                    .map_err(|e| e.to_string())?
                    .with_pool(pool);
                let t = Instant::now();
                let tuples = plan.answer_tuples(catalog).map_err(|e| e.to_string())?;
                p.pipeline_ms[slot] = ms_since(t);
                let t = Instant::now();
                let conf = plan.confidences(&tuples).map_err(|e| e.to_string())?;
                p.conf_ms[slot] = ms_since(t);
                if slot_threads == threads && plan.signature().is_one_scan() {
                    p.sort_ms = Some(sort_stage_ms(&tuples, plan.signature(), pool)?);
                }
                Answer::Exact(conf)
            }
        };
        answers.push(answer);
    }
    p.pools_agree = answers[0].bitwise_eq(&answers[1]);
    Ok(p)
}

/// Times the one-scan operator's sort stage on a lazy answer through its
/// public calls: the normalized sort keys over the data columns and the
/// lineage columns in one-scan preorder, then the sorted permutation.
fn sort_stage_ms(answer: &Annotated, signature: &Signature, pool: Pool) -> Result<f64, String> {
    let tree = OneScanTree::build(signature).map_err(|e| e.to_string())?;
    let col_idx: Vec<usize> = (0..answer.data_width()).collect();
    let rel_idx = tree
        .preorder()
        .iter()
        .map(|r| answer.relation_index(r))
        .collect::<Result<Vec<usize>, _>>()
        .map_err(|e| e.to_string())?;
    let pool = pool.for_items(answer.len());
    let t = Instant::now();
    let keys = answer.sort_keys_with(&col_idx, &rel_idx, &pool);
    let order = keys.sorted_permutation_with(answer.len(), &pool);
    let ms = ms_since(t);
    std::hint::black_box(order);
    Ok(ms)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
