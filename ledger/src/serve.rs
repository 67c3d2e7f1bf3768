//! The `serve-sf0.01` workload: a `SproutServer` on loopback with one slot
//! and two worker threads, driven by two closed-loop keep-alive clients.
//! Every tenth operation of a client is a write: `POST /tables` of a freshly
//! named 32-row table, then a lazy query joining it with `Nation`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pdb_obs::QueryObs;
use pdb_par::Pool;
use pdb_query::ConjunctiveQuery;
use pdb_storage::{Tuple, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sprout::{CompareOp, SproutDb};
use sprout_server::{proto, Json, ServerConfig, SproutServer};

use crate::calib::HostSpeed;
use crate::engine::{self, Answer, Mode, Op};
use crate::http::Client;
use crate::layers::{self, ServerSplit, Traced};
use crate::library::{self, shuffled};
use crate::report::{LoopStats, Outcome, Sample};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::Args;

const SF: f64 = 0.01;
const SETUPS: usize = 5;
/// Closed-loop client connections (`nproc` of the 2-core machine the benchmark targets).
pub const CLIENTS: usize = 2;
/// One operation in this many is a write.
pub const WRITE_EVERY: usize = 10;
const WRITE_ROWS: usize = 32;

/// The server configuration under test.
pub fn config() -> ServerConfig {
    ServerConfig {
        slots: 1,
        queue_depth: 2,
        queue_timeout: Duration::from_secs(30),
        worker_threads: engine::POOL_THREADS,
        ..ServerConfig::default()
    }
}

/// The tractable query set: Fig. 9 ∪ Fig. 10 ∪ Fig. 12 C and D, lazy.
fn read_ops() -> Vec<Op> {
    let mut ops: Vec<Op> = library::paper_ops()
        .into_iter()
        .filter(|o| o.mode == Mode::Lazy)
        .collect();
    ops.dedup_by(|a, b| a.qid == b.qid);
    ops
}

fn op_str(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::Ne => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
        CompareOp::In => "in",
    }
}

fn strs(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::Str(s.clone())).collect())
}

/// A lazy `POST /query` body for `q`.
fn query_body(q: &ConjunctiveQuery) -> String {
    let relations = q
        .relations
        .iter()
        .map(|r| {
            Json::Object(vec![
                ("name".into(), Json::Str(r.name.clone())),
                ("attrs".into(), strs(&r.attributes)),
            ])
        })
        .collect();
    let predicates = q
        .predicates
        .iter()
        .map(|p| {
            let mut fields = vec![
                ("relation".into(), Json::Str(p.relation.clone())),
                ("attribute".into(), Json::Str(p.attribute.clone())),
                ("op".into(), Json::Str(op_str(p.op).into())),
            ];
            fields.push(if p.op == CompareOp::In {
                let values = p.constants().map(proto::value_to_json).collect();
                ("values".into(), Json::Array(values))
            } else {
                ("value".into(), proto::value_to_json(&p.constant))
            });
            Json::Object(fields)
        })
        .collect();
    Json::Object(vec![
        (
            "query".into(),
            Json::Object(vec![
                ("relations".into(), Json::Array(relations)),
                ("head".into(), strs(&q.head)),
                ("predicates".into(), Json::Array(predicates)),
            ]),
        ),
        ("kind".into(), Json::Str("lazy".into())),
    ])
    .render()
}

/// The `POST /tables` body of client `client`'s `k`-th write: a 32-row
/// table `W<client>_<k>(nkey, wnote, wqty)` with seeded probabilities and
/// variables disjoint from every other table's.
fn write_body(seed: u64, client: usize, k: usize) -> (String, String) {
    let name = format!("W{client}_{k}");
    let mut rng = SmallRng::seed_from_u64(seed ^ ((client as u64) << 48) ^ ((k as u64) << 8));
    let rows = (0..WRITE_ROWS)
        .map(|j| {
            let var = (1i64 << 40) + ((client as i64) << 32) + ((k as i64) << 8) + j as i64;
            let p: f64 = rng.gen_range(0.05..=1.0);
            Json::Object(vec![
                (
                    "values".into(),
                    Json::Array(vec![
                        Json::Int(rng.gen_range(0..25i64)),
                        Json::Str(format!("note-{}", j % 5)),
                        Json::Float(rng.gen_range(1..100i64) as f64 / 4.0),
                    ]),
                ),
                ("var".into(), Json::Int(var)),
                ("prob".into(), Json::Float((p * 100.0).round() / 100.0)),
            ])
        })
        .collect();
    let schema = [("nkey", "int"), ("wnote", "str"), ("wqty", "float")]
        .iter()
        .map(|(c, t)| Json::Array(vec![Json::Str(c.to_string()), Json::Str(t.to_string())]))
        .collect();
    let body = Json::Object(vec![
        ("name".into(), Json::Str(name.clone())),
        ("schema".into(), Json::Array(schema)),
        ("keys".into(), Json::Array(Vec::new())),
        ("fds".into(), Json::Array(Vec::new())),
        ("rows".into(), Json::Array(rows)),
    ]);
    (name, body.render())
}

/// `π_nname(Nation ⋈ W)`: the query each write is followed by.
fn write_query(table: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::build(
        &[
            ("Nation", &["nkey", "nname", "rkey"]),
            (table, &["nkey", "wnote", "wqty"]),
        ],
        &["nname"],
        Vec::new(),
    )
    .expect("the write query is well-formed")
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// First 200 body per read query; later bodies must equal it.
    bodies: BTreeMap<String, String>,
    /// `(table, POST /tables body, query response body)` per write.
    writes: Vec<(String, String, String)>,
    mismatches: Vec<String>,
    errors: Vec<String>,
    sheds: usize,
    spans: Vec<Span>,
}

/// The wire loop runs in rounds of this length. Between rounds both
/// clients wait, so the server is idle while the host-speed reference runs.
const ROUND: Duration = Duration::from_millis(500);

/// How the clients and the main thread take turns: each round starts and
/// ends at `barrier` (the clients plus the main thread).
#[derive(Clone, Copy)]
struct Rounds<'a> {
    count: usize,
    barrier: &'a Barrier,
}

fn client_loop(
    addr: SocketAddr,
    client: usize,
    seed: u64,
    rounds: Rounds,
    epoch: Instant,
    tracing: bool,
    bodies: &[(String, String)],
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tr = Tracer::new(epoch, tracing);
    // A client that cannot connect still keeps the rounds' turns.
    let mut conn = Client::connect(addr)
        .map_err(|e| log.errors.push(format!("client {client}: connect: {e}")))
        .ok();
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(client as u64 + 1));
    let mut order = Vec::new();
    let mut writes = 0;
    let mut n = 0;
    for round in 0..rounds.count {
        rounds.barrier.wait();
        let end = Instant::now() + ROUND;
        while let Some(conn) = conn.as_mut().filter(|_| Instant::now() < end) {
            n += 1;
            let id = ((client as u64) << 32) + n as u64;
            let mut send =
                |key: &str, family: &'static str, path: &str, body: &str, log: &mut ClientLog| {
                    let open = tr.begin("wire.request", key, id);
                    let t = Instant::now();
                    let res = conn.request("POST", path, body);
                    let ms = engine::ms_since(t);
                    tr.end(open);
                    let (ok, text) = match res {
                        Ok(r) if (200..300).contains(&r.status) => (true, Some(r.body)),
                        Ok(r) => {
                            if r.status == 429 || r.status == 503 {
                                log.sheds += 1;
                            }
                            log.errors
                                .push(format!("{key}: HTTP {}: {}", r.status, r.body));
                            (false, None)
                        }
                        Err(e) => {
                            log.errors.push(format!("{key}: {e}"));
                            (false, None)
                        }
                    };
                    log.samples.push(Sample {
                        key: key.to_string(),
                        family,
                        ok,
                        ms,
                        at: round,
                    });
                    text
                };
            if n % WRITE_EVERY == 0 {
                let (table, body) = write_body(seed, client, writes);
                writes += 1;
                if send("W", "write", "/tables", &body, &mut log).is_some() {
                    let q = query_body(&write_query(&table));
                    if let Some(answer) = send("W", "lazy", "/query", &q, &mut log) {
                        log.writes.push((table, body, answer));
                    }
                }
                continue;
            }
            if order.is_empty() {
                order = shuffled(bodies.len(), &mut rng);
            }
            let (key, body) = &bodies[order.pop().expect("refilled above")];
            if let Some(text) = send(key, "lazy", "/query", body, &mut log) {
                match log.bodies.get(key) {
                    None => {
                        log.bodies.insert(key.clone(), text);
                    }
                    Some(first) if *first == text => {}
                    Some(_) => log
                        .mismatches
                        .push(format!("{key}: wire answer changed between requests")),
                }
            }
        }
        rounds.barrier.wait();
    }
    log.spans = tr.into_spans();
    log
}

/// Parses an answer stream: `(tuple, confidence)` in rank order.
fn parse_answer(body: &str) -> Result<Vec<(Tuple, f64)>, String> {
    let mut out = Vec::new();
    for line in body.lines().skip(1) {
        let json = Json::parse(line)?;
        let values = json
            .get("tuple")
            .and_then(Json::as_array)
            .ok_or("answer line without a tuple")?
            .iter()
            .map(proto::json_to_value)
            .collect::<Result<Vec<Value>, String>>()?;
        let p = json
            .get("confidence")
            .and_then(Json::as_f64)
            .ok_or("answer line without a confidence")?;
        out.push((Tuple::new(values), p));
    }
    Ok(out)
}

/// A library answer in the server's rank order.
fn ranked(answer: &Answer) -> Vec<(Tuple, f64)> {
    let mut conf = answer.confidences();
    conf.sort_by(|a, b| sprout::total_f64_cmp(b.1, a.1));
    conf
}

/// Whether a wire body, parsed, is bitwise the library's answer.
fn wire_matches(body: &str, library: &Answer) -> bool {
    match parse_answer(body) {
        Ok(wire) => {
            let lib = ranked(library);
            wire.len() == lib.len()
                && wire
                    .iter()
                    .zip(&lib)
                    .all(|(w, l)| w.0 == l.0 && w.1.to_bits() == l.1.to_bits())
        }
        Err(_) => false,
    }
}

/// Mean of a server histogram, in ms, from the Prometheus page.
fn histogram_mean_ms(page: &str, name: &str) -> f64 {
    let field = |suffix: &str| {
        page.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}_{suffix} ")))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let count = field("count");
    if count > 0.0 {
        field("sum") / count * 1e3
    } else {
        0.0
    }
}

pub fn run(args: &Args, log: &mut Vec<String>) -> Outcome {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, args.trace);
    let mut setup = library::setup(SF, args.seed, SETUPS, 1, &mut tr);
    let lib_db = SproutDb::from_catalog(
        pdb_tpch::probabilistic_catalog_columnar(&setup.data, args.seed)
            .expect("the generated TPC-H tables ingest"),
    );
    let bind_start = Instant::now();
    let server = SproutServer::bind(
        SproutDb::from_catalog(setup.catalogs.pop().expect("one catalog kept")),
        "127.0.0.1:0",
        config(),
    )
    .expect("bind a loopback port");
    let bind_s = bind_start.elapsed().as_secs_f64();
    let (setup_s, raw_setup_s) = (setup.setup_s + bind_s, setup.raw_setup_s + bind_s);
    let addr = server.addr();

    let ops = read_ops();
    let bodies: Vec<(String, String)> = ops
        .iter()
        .map(|o| (o.qid.clone(), query_body(&o.query)))
        .collect();
    // The traced run splits its time between the wire and the library
    // decomposition of the same queries.
    let wire_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let barrier = Barrier::new(CLIENTS + 1);
    let rounds = Rounds {
        count: (wire_seconds / ROUND.as_secs_f64()).ceil() as usize,
        barrier: &barrier,
    };
    // The host-speed reference runs before every round and after the last,
    // while both clients wait; `round_s` times each round.
    let mut speed = HostSpeed::default();
    let mut round_s = Vec::with_capacity(rounds.count);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let bodies = &bodies;
                let (seed, tracing) = (args.seed, args.trace);
                s.spawn(move || client_loop(addr, c, seed, rounds, epoch, tracing, bodies))
            })
            .collect();
        for _ in 0..rounds.count {
            speed.read();
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            round_s.push(t.elapsed().as_secs_f64());
        }
        speed.read();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut stats = LoopStats {
        wall_s: round_s.iter().sum(),
        ..LoopStats::default()
    };
    let metrics_page = Client::connect(addr)
        .and_then(|mut c| c.request("GET", "/metrics", ""))
        .map(|r| r.body)
        .unwrap_or_default();
    server.shutdown();

    // Checks, outside the timed loop: every read body equals its query's
    // first body (checked in the loop), and that body parsed off the wire
    // is bitwise the library's answer; likewise every write's query.
    let mut mismatches = Vec::new();
    let mut first_bodies: BTreeMap<String, String> = BTreeMap::new();
    let mut writes = Vec::new();
    let mut wire_spans = Vec::new();
    let mut sheds = 0;
    for l in logs {
        stats.samples.extend(l.samples);
        mismatches.extend(l.mismatches);
        log.extend(
            l.errors
                .into_iter()
                .take(5)
                .map(|e| format!("  request failed: {e}")),
        );
        sheds += l.sheds;
        for (k, body) in l.bodies {
            match first_bodies.get(&k) {
                Some(b) if *b != body => {
                    mismatches.push(format!("{k}: clients saw different answers"))
                }
                Some(_) => {}
                None => {
                    first_bodies.insert(k, body);
                }
            }
        }
        writes.extend(l.writes);
        trace::merge(&mut wire_spans, l.spans);
    }
    let pool = Pool::new(engine::POOL_THREADS);
    for op in &ops {
        let Some(body) = first_bodies.get(&op.qid) else {
            continue;
        };
        match engine::run_plain(&lib_db, op, pool) {
            Ok(lib) if wire_matches(body, &lib) => {
                // The traced run's probes compare the pools instead.
                if !args.trace {
                    let one = engine::run_plain(&lib_db, op, Pool::new(1));
                    if !one.is_ok_and(|one| one.bitwise_eq(&lib)) {
                        mismatches.push(format!("{}: pool 1 and pool 2 answers differ", op.qid));
                    }
                }
            }
            Ok(_) => mismatches.push(format!("{}: wire answer differs from the library", op.qid)),
            Err(e) => mismatches.push(format!("{}: library failed: {e}", op.qid)),
        }
    }
    let mut register_ms = Vec::new();
    for (table, body, answer) in &writes {
        let spec = Json::parse(body)
            .map_err(|e| e.to_string())
            .and_then(|j| proto::parse_table(&j).map_err(|e| e.message.clone()));
        let registered = spec.and_then(|spec| {
            let t = Instant::now();
            let r = lib_db
                .register_table(&spec.name, spec.table)
                .map_err(|e| e.to_string());
            register_ms.push(engine::ms_since(t));
            r
        });
        let op = Op {
            qid: "W".into(),
            mode: Mode::Lazy,
            query: write_query(table),
        };
        match registered.and_then(|()| engine::run_plain(&lib_db, &op, pool)) {
            Ok(lib) if wire_matches(answer, &lib) => {}
            Ok(_) => mismatches.push(format!("{table}: wire answer differs from the library")),
            Err(e) => mismatches.push(format!("{table}: library failed: {e}")),
        }
    }

    let mut outcome = Outcome {
        attempted: stats.attempted(),
        failed: stats.failed(),
        ..Outcome::default()
    };
    if args.trace {
        let query_ms = stats.read_ms();
        let admit = histogram_mean_ms(&metrics_page, "sprout_admit_seconds");
        let exec = histogram_mean_ms(&metrics_page, "sprout_exec_seconds");
        let stream = histogram_mean_ms(&metrics_page, "sprout_stream_seconds");
        let split = ServerSplit {
            admit_ms: admit,
            exec_ms: exec,
            stream_ms: stream,
            wire_ms: stats::mean(&query_ms).unwrap_or(0.0) - admit - exec - stream,
            shed_frac: sheds as f64 / stats.attempted().max(1) as f64,
            register_ms: stats::mean(&register_ms).unwrap_or(0.0),
            write_p50_ms: stats.write_p50_ms().unwrap_or(0.0),
        };
        let mut traced = library_split(&lib_db, &ops, args, &mut tr, &mut mismatches);
        traced.host_reference_ms = speed.median_ms();
        traced.untraced = stats.adjusted(&speed);
        traced.spans = tr.into_spans();
        let metrics = layers::per_layer(&traced, setup.generate_s, setup.ingest_s, Some(&split));
        log.push(format!(
            "  wire: {} requests; server means admit {admit:.3} ms, exec {exec:.3} ms, stream {stream:.3} ms",
            traced.untraced.attempted()
        ));
        outcome.metrics = layers::report(args, metrics, &traced, wire_spans, log);
    } else {
        let mut adjusted = stats.adjusted(&speed);
        adjusted.wall_s = round_s
            .iter()
            .enumerate()
            .map(|(r, &s)| speed.adjust(r, s))
            .sum();
        outcome.metrics = adjusted.end_to_end(setup_s);
        log.push(format!(
            "  {} clients, slots 1, queue 2, 2 workers; 1 in {WRITE_EVERY} operations writes; {} writes checked",
            CLIENTS,
            writes.len()
        ));
        log.extend(adjusted.describe());
        log.push(stats.describe_raw(raw_setup_s, &speed));
    }
    outcome.correct = mismatches.is_empty();
    outcome.mismatches = mismatches;
    outcome
}

/// The traced run's library half: the serve queries split into their
/// per-layer calls (untraced and traced, interleaved) until the time is up,
/// then one probe per query.
fn library_split(
    db: &SproutDb,
    ops: &[Op],
    args: &Args,
    tr: &mut Tracer,
    mismatches: &mut Vec<String>,
) -> Traced {
    let mut traced = Traced::default();
    let obs = QueryObs::new();
    let pool = Pool::new(engine::POOL_THREADS);
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let start = Instant::now();
    let mut id = 1u64 << 40;
    while traced.plain_ms == 0.0 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        for i in shuffled(ops.len(), &mut rng) {
            let op = &ops[i];
            id += 1;
            let (plain, ms, traced_answer) = engine::run_pair(db, op, pool, &obs, tr, id);
            traced.plain_ms += ms;
            match (&plain, &traced_answer) {
                (Ok(a), Ok(b)) if a.bitwise_eq(b) => {
                    traced.answer_rows += b.confidences().len() as u64;
                }
                _ => mismatches.push(format!(
                    "{}: traced answer differs from untraced",
                    op.label()
                )),
            }
        }
    }
    for op in ops {
        match engine::probe(db.catalog(), op, engine::POOL_THREADS) {
            Ok(p) => {
                if !p.pools_agree {
                    mismatches.push(format!("{}: pool 1 and pool 2 answers differ", op.label()));
                }
                traced.probes.insert(op.label(), p);
            }
            Err(e) => mismatches.push(format!("{}: probe failed: {e}", op.label())),
        }
    }
    traced.counters = obs.counter_values();
    traced
}
