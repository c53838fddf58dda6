//! Crash-safety tests for the service's durability layer: exact
//! snapshot + WAL-tail recovery, torn/corrupt-tail truncation, the
//! WAL-before-apply acknowledgement contract under injected faults,
//! snapshot compaction, panic isolation and the client retry policy.
//!
//! Failpoints are process-global, so every test here serializes on
//! [`fp_lock`] — armed points must never leak into a concurrent test's
//! commits.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use recstep::{Config, Database, Durability, ServeConfig};
use recstep_common::fail;
use recstep_serve::client::{get, post, post_with_retry, RetryPolicy};
use recstep_serve::Server;

/// One lock around every test in this file: failpoints are global state.
fn fp_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recstep_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counter(body: &str, key: &str) -> i64 {
    let pat = format!("\"{key}\":");
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + pat.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect::<String>()
        .parse()
        .unwrap()
}

fn seed_db() -> Database {
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    db
}

fn start(dir: &Path, mode: Durability, snapshot_every: u64, db: Database) -> Server {
    Server::start(
        Config::default().threads(1),
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .data_dir(dir.to_str().unwrap())
            .durability(mode)
            .snapshot_every_n_commits(snapshot_every),
        db,
    )
    .unwrap()
}

const TC: &str = "tc(x, y) :- arc(x, y).\\ntc(x, y) :- tc(x, z), arc(z, y).";

fn tc_total(addr: SocketAddr) -> (u16, i64) {
    let (status, body) = post(addr, "/query", &format!("{{\"program\":\"{TC}\"}}")).unwrap();
    if status != 200 {
        return (status, -1);
    }
    (status, counter(&body, "total"))
}

fn insert_arc(addr: SocketAddr, from: i64, to: i64) -> (u16, String) {
    post(
        addr,
        "/facts",
        &format!("{{\"insert\":{{\"arc\":[[{from},{to}]]}}}}"),
    )
    .unwrap()
}

#[test]
fn acked_commits_survive_a_restart_exactly() {
    let _g = fp_lock();
    let dir = tempdir("exact");

    let server = start(&dir, Durability::Commit, 0, seed_db());
    let addr = server.addr();
    // Three acked commits on top of the boot snapshot of the seed facts.
    for (f, t) in [(3, 4), (4, 5), (5, 6)] {
        let (status, body) = insert_arc(addr, f, t);
        assert_eq!(status, 200, "{body}");
    }
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(total, 15, "closure over the chain 1..=6");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "data_version"), 3, "{stats}");
    // The log holds the three commits plus the boot snapshot's barrier;
    // the boot snapshot itself covers the seed facts.
    assert_eq!(counter(&stats, "wal_records"), 4, "{stats}");
    assert!(counter(&stats, "snapshots") >= 1, "{stats}");
    server.shutdown();

    // Restart from an EMPTY database: everything must come from disk.
    let server = start(&dir, Durability::Commit, 0, Database::new().unwrap());
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "data_version"), 3, "{stats}");
    assert_eq!(counter(&stats, "recovered_records"), 3, "{stats}");
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(total, 15, "recovered closure identical");
    // The recovered server keeps committing where the old one stopped.
    let (status, body) = insert_arc(addr, 6, 7);
    assert_eq!(status, 200, "{body}");
    assert_eq!(counter(&body, "data_version"), 4, "{body}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_or_corrupt_wal_tail_truncates_to_the_last_good_commit() {
    let _g = fp_lock();
    let dir = tempdir("torn");

    let server = start(&dir, Durability::Commit, 0, seed_db());
    let addr = server.addr();
    for (f, t) in [(3, 4), (4, 5), (5, 6)] {
        insert_arc(addr, f, t);
    }
    server.shutdown();

    // Tear the last record: chop a few bytes off the log, as a crash
    // mid-write would.
    let log = dir.join("wal.log");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() - 5]).unwrap();

    let server = start(&dir, Durability::Commit, 0, Database::new().unwrap());
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "data_version"), 2, "{stats}");
    assert_eq!(counter(&stats, "recovered_records"), 2, "{stats}");
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(total, 10, "closure over 1..=5: the torn commit is gone");
    server.shutdown();

    // Now corrupt a byte INSIDE the second record: recovery must truncate
    // from there, keeping only the first commit.
    let bytes = std::fs::read(&log).unwrap();
    assert!(!bytes.is_empty(), "truncated recovery rewrote the log");
    let mut bytes = bytes;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&log, &bytes).unwrap();

    let server = start(&dir, Durability::Commit, 0, Database::new().unwrap());
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats").unwrap();
    let recovered = counter(&stats, "recovered_records");
    assert!(
        (0..=1).contains(&recovered),
        "corruption mid-log keeps at most the first commit: {stats}"
    );
    assert_eq!(counter(&stats, "data_version"), recovered, "{stats}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_wal_append_is_not_applied_and_not_acked() {
    let _g = fp_lock();
    let dir = tempdir("unacked");

    let server = start(&dir, Durability::Commit, 0, seed_db());
    let addr = server.addr();
    let (status, _) = insert_arc(addr, 3, 4);
    assert_eq!(status, 200);

    // A short write is the cruelest failure: bytes partially hit the
    // disk, the handle is poisoned, the commit must not be acknowledged
    // or applied.
    let (status, body) = {
        let _armed = fail::FailGuard::new("wal::short_write", "short_write").unwrap();
        insert_arc(addr, 4, 5)
    };
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("commit not logged"), "{body}");

    // Nothing of the failed commit is visible; the version did not move.
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(total, 6, "closure over 1..=4 only");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "data_version"), 1, "{stats}");
    assert_eq!(counter(&stats, "facts_commits"), 1, "{stats}");

    // The poisoned log refuses further commits until a restart — better
    // loudly unavailable than silently undurable.
    let (status, body) = insert_arc(addr, 4, 5);
    assert_eq!(status, 500, "{body}");
    server.shutdown();

    // Restart: the torn tail truncates away; the acked commit is intact,
    // and the log accepts writes again.
    let server = start(&dir, Durability::Commit, 0, Database::new().unwrap());
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "data_version"), 1, "{stats}");
    let (status, body) = insert_arc(addr, 4, 5);
    assert_eq!(status, 200, "{body}");
    assert_eq!(counter(&body, "data_version"), 2, "{body}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshots_compact_the_log_and_recover() {
    let _g = fp_lock();
    let dir = tempdir("compact");

    let server = start(&dir, Durability::Commit, 2, seed_db());
    let addr = server.addr();
    for (f, t) in [(3, 4), (4, 5), (5, 6), (6, 7)] {
        let (status, body) = insert_arc(addr, f, t);
        assert_eq!(status, 200, "{body}");
    }
    let (_, stats) = get(addr, "/stats").unwrap();
    // Boot snapshot + one per two commits; after the last compaction the
    // log holds only its barrier record.
    assert_eq!(counter(&stats, "snapshots"), 3, "{stats}");
    assert_eq!(counter(&stats, "wal_records"), 1, "{stats}");
    server.shutdown();

    let server = start(&dir, Durability::Commit, 2, Database::new().unwrap());
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "data_version"), 4, "{stats}");
    // Everything came back through the snapshot, nothing through replay.
    assert_eq!(counter(&stats, "recovered_records"), 0, "{stats}");
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(total, 21, "closure over the chain 1..=7");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Scrape the sorted marker values out of a single-column relation in a
/// `/query` response body (rows render as `[[0],[1],...]`).
fn marks(body: &str, rel: &str) -> Vec<i64> {
    let pat = format!("\"{rel}\":{{\"rows\":[");
    let start = body.find(&pat).unwrap() + pat.len();
    let end = body[start..]
        .find("],\"total\"")
        .map_or(start, |e| start + e);
    let mut got: Vec<i64> = body[start..end]
        .split(|c: char| !c.is_ascii_digit() && c != '-')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    got.sort_unstable();
    got
}

#[test]
fn batch_durability_coalesces_fsyncs_and_survives_a_torn_tail() {
    let _g = fp_lock();
    let dir = tempdir("batch");

    let mut db = Database::new().unwrap();
    db.load_relation("a", 1, &[vec![0i64]]).unwrap();
    db.load_relation("b", 1, &[vec![0i64]]).unwrap();
    let server = start(&dir, Durability::Batch, 5, db);
    let addr = server.addr();
    // Sustained commit load: 23 sequential dual-relation marker commits,
    // every one acknowledged.
    for mark in 1..=23i64 {
        let (status, body) = post(
            addr,
            "/facts",
            &format!("{{\"insert\":{{\"a\":[[{mark}]],\"b\":[[{mark}]]}}}}"),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let (_, stats) = get(addr, "/stats").unwrap();
    assert!(stats.contains("\"mode\":\"batch\""), "{stats}");
    assert_eq!(counter(&stats, "data_version"), 23, "{stats}");
    // Boot snapshot plus one per five commits (versions 5, 10, 15, 20):
    // those are the fsync points batch mode coalesces onto.
    assert_eq!(counter(&stats, "snapshots"), 5, "{stats}");
    // After the version-20 compaction the log holds its barrier plus the
    // three batched commits 21..=23.
    assert_eq!(counter(&stats, "wal_records"), 4, "{stats}");
    server.shutdown();

    // Crash simulation: batch mode may lose the OS-buffered log tail,
    // never a prefix and never anything a snapshot covered. Chop the log
    // in half — wherever the cut lands, recovery keeps some record
    // prefix on top of the fsynced version-20 snapshot.
    let log = dir.join("wal.log");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() / 2]).unwrap();

    let server = start(&dir, Durability::Batch, 5, Database::new().unwrap());
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats").unwrap();
    let version = counter(&stats, "data_version");
    assert!(
        (20..=23).contains(&version),
        "the fsynced snapshot floor holds: {stats}"
    );
    // Exactly the marker prefix up to the recovered version, in BOTH
    // relations: commits acked after an fsync point are recovered, and
    // no commit is ever torn across relations.
    let (status, body) = post(
        addr,
        "/query",
        "{\"program\":\"ra(x) :- a(x).\\nrb(x) :- b(x).\",\"limit\":1000}",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let expect: Vec<i64> = (0..=version).collect();
    assert_eq!(marks(&body, "ra"), expect, "{body}");
    assert_eq!(marks(&body, "rb"), expect, "{body}");
    // The recovered log accepts further batched commits.
    let (status, body) = post(addr, "/facts", "{\"insert\":{\"a\":[[99]],\"b\":[[99]]}}").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(counter(&body, "data_version"), version + 1, "{body}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delete_commits_replay_exactly_across_a_restart() {
    let _g = fp_lock();
    let dir = tempdir("delete");

    let server = start(&dir, Durability::Commit, 0, seed_db());
    let addr = server.addr();
    // Pure insert, pure delete, then a mixed commit — the three WAL
    // record shapes `Database::apply_wal_commit` must replay in order.
    let (status, body) = post(addr, "/facts", "{\"insert\":{\"arc\":[[3,4],[4,5]]}}").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = post(addr, "/facts", "{\"delete\":{\"arc\":[[2,3]]}}").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = post(
        addr,
        "/facts",
        "{\"insert\":{\"arc\":[[2,3]]},\"delete\":{\"arc\":[[4,5]]}}",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    // Live arcs: (1,2), (2,3), (3,4) — the chain 1..=4.
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(total, 6, "closure over the chain 1..=4");
    server.shutdown();

    // Restart from an EMPTY database: the deletes must replay through
    // the log exactly — insert-then-delete-then-reinsert ordering and
    // all.
    let server = start(&dir, Durability::Commit, 0, Database::new().unwrap());
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "data_version"), 3, "{stats}");
    assert_eq!(counter(&stats, "recovered_records"), 3, "{stats}");
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(
        total, 6,
        "replayed deletes removed exactly the deleted rows"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durability_off_reproduces_the_undurable_server() {
    let _g = fp_lock();
    let dir = tempdir("off");

    let server = start(&dir, Durability::Off, 0, seed_db());
    let addr = server.addr();
    let (status, body) = insert_arc(addr, 3, 4);
    assert_eq!(status, 200, "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert!(stats.contains("\"mode\":\"off\""), "{stats}");
    assert_eq!(counter(&stats, "wal_records"), 0, "{stats}");
    server.shutdown();
    // Nothing was ever written: no directory, no log, no snapshot.
    assert!(!dir.exists(), "durability off must not touch the data dir");

    // And a restart starts from whatever the process loads — the commit
    // is gone, exactly like the pre-durability server.
    let server = start(&dir, Durability::Off, 0, seed_db());
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "data_version"), 0, "{stats}");
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(total, 3, "seed facts only");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panicking_fixpoint_is_one_500_not_a_dead_worker() {
    let _g = fp_lock();
    let server = Server::start(
        Config::default().threads(1),
        ServeConfig::default().addr("127.0.0.1:0"),
        seed_db(),
    )
    .unwrap();
    let addr = server.addr();

    let (status, body) = {
        let _armed = fail::FailGuard::new("eval::fixpoint", "panic").unwrap();
        post(addr, "/query", &format!("{{\"program\":\"{TC}\"}}")).unwrap()
    };
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("panicked"), "{body}");

    // The worker survived, the permit was released, the server still
    // answers — including the very query that just panicked.
    let (_, stats) = get(addr, "/stats").unwrap();
    assert!(counter(&stats, "panics") >= 1, "{stats}");
    let (status, total) = tc_total(addr);
    assert_eq!(status, 200);
    assert_eq!(total, 3);
    server.shutdown();
}

#[test]
fn client_retry_rides_out_shedding_and_refused_connections() {
    let _g = fp_lock();
    let server = Server::start(
        Config::default().threads(1),
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .max_concurrent_runs(1)
            .queue_depth(0),
        seed_db(),
    )
    .unwrap();
    let addr = server.addr();

    // Wedge the server, un-wedge it shortly after: the retrying client
    // sees 429 (+ Retry-After) first, then succeeds — one call.
    let sem = server.semaphore();
    let gate = match sem.acquire(Instant::now() + Duration::from_secs(30)) {
        recstep_common::sched::Admission::Admitted(g) => g,
        _ => panic!("test could not take the permit"),
    };
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(gate);
    });
    let policy = RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(25),
        max_delay: Duration::from_millis(200),
    };
    let (status, body) =
        post_with_retry(addr, "/query", &format!("{{\"program\":\"{TC}\"}}"), policy).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":3"), "{body}");
    releaser.join().unwrap();

    // A bounded policy gives up and reports the last shed honestly.
    let gate = match sem.acquire(Instant::now() + Duration::from_secs(30)) {
        recstep_common::sched::Admission::Admitted(g) => g,
        _ => panic!("test could not take the permit"),
    };
    let quick = RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
    };
    // The first query left a standing materialized view behind, and view
    // hits answer before admission — the wedged server still serves the
    // cached program.
    let (status, body) = post(addr, "/query", &format!("{{\"program\":\"{TC}\"}}")).unwrap();
    assert_eq!(status, 200, "view hits bypass admission: {body}");
    // A program with no standing view needs a run permit and sheds.
    let fresh = "p(x, y) :- arc(x, y).\\np(x, y) :- p(x, z), p(z, y).";
    let (status, body) = post_with_retry(
        addr,
        "/query",
        &format!("{{\"program\":\"{fresh}\"}}"),
        quick,
    )
    .unwrap();
    assert_eq!(status, 429, "{body}");
    drop(gate);
    server.shutdown();

    // Connection refused (the server is gone) retries, then surfaces the
    // error once the budget is spent.
    let err = post_with_retry(addr, "/query", "{}", quick).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The recovery invariant under random fault injection: an
    /// acknowledged commit is never lost across a restart, and every
    /// commit — acked or not — is all-or-nothing. Each commit writes a
    /// marker row into TWO relations; atomicity means the relations
    /// always agree on which markers exist.
    #[test]
    fn random_crash_points_never_lose_an_acked_commit(sites in proptest::collection::vec(0usize..4, 1..6)) {
        let _g = fp_lock();
        fail::teardown();
        let dir = tempdir("prop");

        let mut db = Database::new().unwrap();
        // Seed both marker relations so programs over them always compile.
        db.load_relation("a", 1, &[vec![0i64]]).unwrap();
        db.load_relation("b", 1, &[vec![0i64]]).unwrap();
        let server = start(&dir, Durability::Commit, 0, db);
        let addr = server.addr();

        let mut acked: Vec<i64> = Vec::new();
        for (i, site) in sites.iter().enumerate() {
            let mark = i as i64 + 1;
            let armed = match site {
                1 => Some(fail::FailGuard::new("wal::before_append", "return_io_err").unwrap()),
                2 => Some(fail::FailGuard::new("wal::after_append", "return_io_err").unwrap()),
                3 => Some(fail::FailGuard::new("wal::short_write", "short_write").unwrap()),
                _ => None,
            };
            let (status, _) = post(
                addr,
                "/facts",
                &format!("{{\"insert\":{{\"a\":[[{mark}]],\"b\":[[{mark}]]}}}}"),
            )
            .unwrap();
            drop(armed);
            if status == 200 {
                acked.push(mark);
            }
        }
        server.shutdown();

        // Restart from scratch; only the durable state speaks now.
        let server = start(&dir, Durability::Commit, 0, Database::new().unwrap());
        let addr = server.addr();
        let (status, body) = post(
            addr,
            "/query",
            "{\"program\":\"ra(x) :- a(x).\\nrb(x) :- b(x).\",\"limit\":1000}",
        )
        .unwrap();
        prop_assert_eq!(status, 200, "{}", body);
        let marks = |rel: &str| -> Vec<i64> {
            let pat = format!("\"{rel}\":{{\"rows\":[");
            let start = body.find(&pat).unwrap() + pat.len();
            let end = body[start..]
                .find("],\"total\"")
                .map_or(start, |e| start + e);
            let mut got: Vec<i64> = body[start..end]
                .split(|c: char| !c.is_ascii_digit() && c != '-')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap())
                .collect();
            got.sort_unstable();
            got
        };
        // Single-column rows render as [[0],[1],...]; the digit scrape
        // above recovers the marker set.
        let ra = marks("ra");
        let rb = marks("rb");
        prop_assert_eq!(&ra, &rb, "commits are atomic across relations");
        for m in &acked {
            prop_assert!(ra.contains(m), "acked commit {} lost: {:?}", m, ra);
        }
        let (_, stats) = get(addr, "/stats").unwrap();
        prop_assert_eq!(
            counter(&stats, "data_version") as usize, acked.len(),
            "{}", stats
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
