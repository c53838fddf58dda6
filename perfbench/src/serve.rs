//! The `serve-mixed` workload: an in-process query service over an RMAT
//! graph, driven by one closed-loop client through the HTTP client. Each
//! round sends a REACH query (answered by a standing view), a CC query
//! (a scratch shared run), one `/facts` insert and one `/facts` delete.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use recstep::{
    programs, Config, Database, Durability, Engine, MaterializedView, ServeConfig, Value,
};
use recstep_common::mem;
use recstep_graphgen::rmat;
use recstep_serve::json::{self, Json};
use recstep_serve::{client, Server};

use crate::batch::Input;
use crate::reference;
use crate::trace::Tracer;
use crate::{median, mix, percentile, Opts, Outcome, Rng, Size};

/// Rows a read asks for: the client pays for a small page, not the whole
/// relation, on every read.
const PAGE: i64 = 16;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Writes replayed against an in-process view for the `view.tuples_*`
/// counters, which the service's `/stats` does not expose.
const SHADOW_WRITES: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    ViewRead,
    ScratchRead,
    Insert,
    Delete,
}

const OPS: [Op; 4] = [Op::ViewRead, Op::ScratchRead, Op::Insert, Op::Delete];

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::ViewRead => "view_read",
            Op::ScratchRead => "scratch_read",
            Op::Insert => "insert",
            Op::Delete => "delete",
        }
    }
}

/// The evolving edge set, mirrored by the client so that every insert
/// adds a new edge and every delete removes an existing one.
struct Graph {
    n: u32,
    edges: Vec<(Value, Value)>,
    present: HashSet<(Value, Value)>,
}

impl Graph {
    fn new(n: u32, raw: Vec<(u32, u32)>) -> Self {
        let mut present = HashSet::new();
        let mut edges = Vec::new();
        for (a, b) in raw {
            let e = (a as Value, b as Value);
            if present.insert(e) {
                edges.push(e);
            }
        }
        Graph { n, edges, present }
    }

    fn pick_new(&mut self, rng: &mut Rng) -> (Value, Value) {
        loop {
            let e = (
                rng.below(self.n as u64) as Value,
                rng.below(self.n as u64) as Value,
            );
            if self.present.insert(e) {
                self.edges.push(e);
                return e;
            }
        }
    }

    fn pick_existing(&mut self, rng: &mut Rng) -> (Value, Value) {
        let i = rng.below(self.edges.len() as u64) as usize;
        let e = self.edges.swap_remove(i);
        self.present.remove(&e);
        e
    }

    fn database(&self) -> recstep::Result<Database> {
        let mut db = Database::new()?;
        let mut tx = db.transaction();
        tx.load_edges("arc", &self.edges)?;
        tx.load_rows("id", 1, [&[0 as Value][..]])?;
        tx.commit()?;
        Ok(db)
    }

    fn inputs(&self) -> Vec<Input> {
        vec![
            Input {
                name: "arc",
                arity: 2,
                data: self.edges.iter().flat_map(|&(a, b)| [a, b]).collect(),
            },
            Input {
                name: "id",
                arity: 1,
                data: vec![0],
            },
        ]
    }
}

fn query_body(program: &str, relation: &str, limit: i64) -> String {
    json::obj(vec![
        ("program", json::str(program)),
        ("relation", json::str(relation)),
        ("limit", json::int(limit)),
    ])
    .to_string()
}

fn facts_body(kind: &str, (a, b): (Value, Value)) -> String {
    let rows = Json::Arr(vec![Json::Arr(vec![Json::Int(a), Json::Int(b)])]);
    json::obj(vec![(kind, json::obj(vec![("arc", rows)]))]).to_string()
}

/// Counters of `GET /stats` the benchmark reads, flattened by path.
fn stats(addr: SocketAddr) -> Result<Vec<(String, i64)>, String> {
    let (status, body) = client::get(addr, "/stats").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let doc = Json::parse(&body)?;
    let mut flat = Vec::new();
    for (section, prefix) in [
        (Some("durability"), "durability."),
        (Some("lifetime"), "lifetime."),
        (None, ""),
    ] {
        let node = match section {
            Some(s) => doc.get(s),
            None => Some(&doc),
        };
        if let Some(Json::Obj(map)) = node {
            for (k, v) in map {
                if let Some(n) = v.as_int() {
                    flat.push((format!("{prefix}{k}"), n));
                }
            }
        }
    }
    Ok(flat)
}

fn counter(snap: &[(String, i64)], key: &str) -> f64 {
    snap.iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Sorted rows of one relation from a `/query` answer.
fn rows_of(body: &str, relation: &str) -> Result<Vec<Vec<Value>>, String> {
    let doc = Json::parse(body)?;
    let rows = doc
        .get("results")
        .and_then(|r| r.get(relation))
        .and_then(|r| r.get("rows"))
        .and_then(Json::as_arr)
        .ok_or("answer has no rows")?;
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            r.as_arr()
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_int)
                .collect()
        })
        .collect();
    out.sort_unstable();
    Ok(out)
}

/// A data directory inside the benchmark's own output directory.
fn data_dir(opts: &Opts, i: usize) -> PathBuf {
    opts.out_dir
        .join(format!("serve-{}-{}-{i}", std::process::id(), opts.seed))
}

/// Start a server over a fresh copy of the graph and make the first cold
/// query of each program. Returns the server, the setup time and the
/// load time.
fn set_up(
    graph: &Graph,
    dir: &PathBuf,
    bodies: &[String; 2],
    tracer: &mut Tracer,
) -> Result<(Server, f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let span = tracer.begin("setup");
    let t = Instant::now();
    let db = graph.database().map_err(|e| e.to_string())?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let cfg = ServeConfig::default()
        .addr("127.0.0.1:0")
        .data_dir(dir.to_string_lossy())
        .durability(Durability::Commit);
    let server = Server::start(Config::default(), cfg, db).map_err(|e| e.to_string())?;
    for body in bodies {
        let (status, _) = client::post(server.addr(), "/query", body).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("cold query answered {status}"));
        }
    }
    let setup_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    Ok((server, setup_s, load_ms))
}

/// Run the workload.
pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let n: u32 = if opts.size == Size::Full { 6_000 } else { 200 };
    let mut graph = Graph::new(n, rmat::rmat(n, 10 * n as usize, mix(opts.seed, 1)));
    let initial = graph.edges.clone();
    let mut rng = Rng::new(mix(opts.seed, 2));
    let reads = [
        query_body(programs::REACH, "reach", PAGE),
        query_body(programs::CC, "cc", PAGE),
    ];
    let root = tracer.begin("workload:serve-mixed");

    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
            let _ = std::fs::remove_dir_all(data_dir(opts, i - 1));
        }
        let (s, setup_s, load_ms) = set_up(&graph, &data_dir(opts, i), &reads, tracer)?;
        setups.push(setup_s);
        loads.push(load_ms);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let before = stats(addr)?;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut lat: [Vec<f64>; 4] = Default::default();
    let mut transport = Vec::new();
    let mut rounds = Vec::new();
    let mut peaks = Vec::new();
    let mut writes = Vec::new();
    let start = Instant::now();
    while rounds.len() < crate::MIN_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && rounds.len().is_multiple_of(2);
        tracer.set_enabled(traced);
        mem::reset_peak();
        let t_round = Instant::now();
        let span = tracer.begin("pass");
        for (k, op) in OPS.into_iter().enumerate() {
            let (path, body) = match op {
                Op::ViewRead => ("/query", reads[0].clone()),
                Op::ScratchRead => ("/query", reads[1].clone()),
                Op::Insert => {
                    let e = graph.pick_new(&mut rng);
                    writes.push((true, e));
                    ("/facts", facts_body("insert", e))
                }
                Op::Delete => {
                    let e = graph.pick_existing(&mut rng);
                    writes.push((false, e));
                    ("/facts", facts_body("delete", e))
                }
            };
            attempted += 1;
            let rspan = tracer.begin(&format!("request:{}", op.name()));
            let t = Instant::now();
            let res = client::post(addr, path, &body);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match res {
                Ok((200, answer)) => {
                    lat[k].push(ms);
                    if op == Op::ViewRead {
                        let server_us = Json::parse(&answer)
                            .ok()
                            .and_then(|d| d.get("elapsed_us").and_then(Json::as_int));
                        if let Some(us) = server_us {
                            transport.push(ms - us as f64 / 1e3);
                            tracer.attr(rspan, "server_ms", us as f64 / 1e3);
                        }
                    }
                }
                Ok((status, answer)) => {
                    eprintln!("{} answered {status}: {answer}", op.name());
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("{}: {e}", op.name());
                    failed += 1;
                }
            }
            tracer.end(rspan);
        }
        rounds.push(t_round.elapsed().as_secs_f64());
        peaks.push(mem::peak_bytes() as f64 / (1024.0 * 1024.0));
        tracer.end(span);
        tracer.set_enabled(opts.trace);
        if opts.trace && !traced {
            let bare = tracer.record("pass", t_round, Instant::now());
            tracer.attr(bare, "untraced", 1.0);
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let after = stats(addr)?;

    // Verification, outside the measured window: the service's full
    // answers against the reference evaluator over the client's mirror
    // of the final edge set.
    let span = tracer.begin("verify");
    let inputs = graph.inputs();
    let (reach_ref, cc_ref) = std::thread::scope(|s| {
        let a = s.spawn(|| reference::expected(programs::REACH, &inputs));
        let b = s.spawn(|| reference::expected(programs::CC, &inputs));
        (a.join(), b.join())
    });
    let mut verified = true;
    for ((program, relation), expected) in [
        ((programs::REACH, "reach"), reach_ref),
        ((programs::CC, "cc"), cc_ref),
    ] {
        attempted += 1;
        let expected = expected
            .map_err(|_| "reference evaluator panicked".to_string())
            .and_then(|r| r);
        let answer = client::post(addr, "/query", &query_body(program, relation, i64::MAX))
            .map_err(|e| e.to_string())
            .and_then(|(status, body)| match status {
                200 => rows_of(&body, relation),
                s => Err(format!("answered {s}")),
            });
        let ok = match (expected, answer) {
            (Ok(exp), Ok(rows)) => exp.rows(relation) == Some(rows.as_slice()),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{relation}: {e}");
                false
            }
        };
        if !ok {
            eprintln!("{relation}: service answer differs from the reference");
            verified = false;
            failed += 1;
        }
    }
    tracer.end(span);
    Server::shutdown(server);
    let _ = std::fs::remove_dir_all(data_dir(opts, SETUPS - 1));

    let mut out = Outcome::new(attempted, failed, verified);
    out.e2e("run_s", median(rounds.clone()), rounds.len());
    out.e2e("setup_s", median(setups), SETUPS);
    out.e2e("peak_heap_mb", median(peaks), rounds.len());

    if opts.trace {
        let on: Vec<f64> = rounds.iter().step_by(2).copied().collect();
        let off: Vec<f64> = rounds.iter().skip(1).step_by(2).copied().collect();
        out.layer("trace.overhead_ms", (median(on) - median(off)) * 1e3);
        for (k, op) in OPS.into_iter().enumerate() {
            out.layer(&format!("{}_ms.p50", op.name()), percentile(&lat[k], 0.50));
            out.layer(&format!("{}_ms.p90", op.name()), percentile(&lat[k], 0.90));
        }
        let ops: usize = lat.iter().map(Vec::len).sum();
        out.layer("ops_per_s", ops as f64 / window_s);
        out.layer("passes", rounds.len() as f64);
        out.layer("serve.transport_ms", median(transport));
        let delta = |key: &str| counter(&after, key) - counter(&before, key);
        for key in [
            "compiles",
            "prepared_hits",
            "view_hits",
            "shed_count",
            "timeouts",
            "panics",
        ] {
            out.layer(&format!("serve.{key}"), delta(key));
        }
        for (metric, key) in [
            ("view.refreshes", "lifetime.view_refreshes"),
            ("view.seeded_strata", "lifetime.view_seeded_strata"),
            ("view.dred_strata", "lifetime.view_dred_strata"),
            ("view.fallbacks", "lifetime.view_fallbacks"),
            ("core.iterations", "lifetime.iterations"),
            ("core.tuples_considered", "lifetime.tuples_considered"),
        ] {
            out.layer(metric, delta(key));
        }
        out.layer("core.run_ms", delta("lifetime.total_us") / 1e3);
        let (hits, misses) = (delta("lifetime.cache_hits"), delta("lifetime.cache_misses"));
        if hits + misses > 0.0 {
            out.layer("exec.cache_hit_ratio", hits / (hits + misses));
        }
        // The log is compacted at every snapshot, so its size is a gauge.
        let records = counter(&after, "durability.wal_records");
        out.layer("storage.wal_records", records);
        if records > 0.0 {
            out.layer(
                "storage.wal_bytes_per_commit",
                counter(&after, "durability.wal_bytes") / records,
            );
        }
        out.layer("storage.snapshots", delta("durability.snapshots"));
        out.layer("storage.load_ms", median(loads));
        shadow_view(&mut out, &initial, &writes, tracer)?;
    }
    tracer.end(root);
    Ok(out)
}

/// Replay the first writes of the run against an in-process standing
/// REACH view, for the per-refresh tuple counters and the compile time.
fn shadow_view(
    out: &mut Outcome,
    initial: &[(Value, Value)],
    writes: &[(bool, (Value, Value))],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let err = |e: recstep::Error| e.to_string();
    let engine = Engine::from_config(Config::default()).map_err(err)?;
    let span = tracer.begin("shadow_view");
    let mut db = Database::new().map_err(err)?;
    db.load_edges("arc", initial).map_err(err)?;
    db.load_relation("id", 1, &[vec![0]]).map_err(err)?;
    let t = Instant::now();
    let reach = engine.prepare(programs::REACH).map_err(err)?;
    let cc = engine.prepare(programs::CC).map_err(err)?;
    out.layer("datalog.prepare_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(cc);
    let mut view = MaterializedView::create(Arc::new(reach), &db).map_err(err)?;
    let replay = &writes[..writes.len().min(SHADOW_WRITES)];
    for &(insert, (a, b)) in replay {
        let rows = vec![("arc".to_string(), vec![vec![a, b]])];
        let mut tx = db.transaction();
        if insert {
            tx.load_edges("arc", &[(a, b)]).map_err(err)?;
        } else {
            tx.delete_rows("arc", 2, [&[a, b][..]]).map_err(err)?;
        }
        tx.commit().map_err(err)?;
        let rspan = tracer.begin(if insert {
            "view.refresh.insert"
        } else {
            "view.refresh.delete"
        });
        let (ins, del) = if insert {
            (rows, Vec::new())
        } else {
            (Vec::new(), rows)
        };
        view.refresh(&db, &ins, &del).map_err(err)?;
        tracer.end(rspan);
    }
    tracer.end(span);
    let v = view.view_stats();
    let per = replay.len().max(1) as f64;
    out.layer("view.tuples_seeded", v.view_tuples_seeded as f64 / per);
    out.layer(
        "view.tuples_retracted",
        v.view_tuples_retracted as f64 / per,
    );
    out.layer(
        "storage.db_heap_mb",
        db.heap_bytes() as f64 / (1024.0 * 1024.0),
    );
    Ok(())
}
