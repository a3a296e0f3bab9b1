//! Differential suite for live read replicas (PR 10): a [`ReplicaDb`]
//! tailing a running primary must serve exactly the primary's committed
//! state — byte for byte — after every quiesce point, in every
//! encryption mode (plain, EncFS, SHIELD), across WAL switches, flushes,
//! MANIFEST rollovers, primary crashes mid-edit, and replica-side I/O
//! faults (where the staleness bound must trip instead of serving a
//! gapped view).
//!
//! SHIELD writes are quiesced with `WriteOptions { sync: true }`: an
//! unsynced record may still sit (plaintext) in the primary's WAL
//! application buffer — the §5.3 persistence trade-off — and no replica
//! can serve bytes that never reached storage.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use shield::{open_encfs, open_shield, open_shield_replica, EncryptedEnv, ShieldOptions};
use shield_core::json;
use shield_crypto::{Algorithm, Dek};
use shield_env::{
    Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv, NetworkModel, RemoteEnv,
};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Error, Options, ReadOptions, ReplicaDb, ReplicaOptions, WriteOptions};

const PRIMARY: ServerId = ServerId(1);
const READER: ServerId = ServerId(3);

/// Keys live in `key-0000 .. key-0255`.
const KEYSPACE: u16 = 256;

fn key_of(id: u16) -> Vec<u8> {
    format!("key-{:04}", id % KEYSPACE).into_bytes()
}

fn small_opts(env: Arc<dyn Env>) -> Options {
    let mut opts = Options::new(env).with_write_buffer_size(8 << 10);
    opts.compaction.l0_compaction_trigger = 2;
    opts
}

/// Replica options for deterministic tests: no background thread, rounds
/// are driven by hand.
fn manual() -> ReplicaOptions {
    ReplicaOptions { auto_poll: false, ..ReplicaOptions::default() }
}

/// Runs catch-up rounds until every tail is clean (bounded retries: with
/// a quiesced primary the second round at the latest must come up clean).
fn drain(replica: &ReplicaDb) {
    for _ in 0..64 {
        if replica.catch_up().expect("catch_up") {
            return;
        }
    }
    panic!("replica never reached a clean tail against a quiesced primary");
}

/// Asserts the replica serves exactly `model` over the whole keyspace,
/// by point reads, one multi_get, and a full scan.
fn assert_matches_model(replica: &ReplicaDb, model: &BTreeMap<Vec<u8>, Vec<u8>>, what: &str) {
    for id in 0..KEYSPACE {
        let key = key_of(id);
        let got = replica.get(&key).expect("replica get");
        assert_eq!(got.as_ref(), model.get(&key), "{what}: key {id} diverged");
    }
    let keys: Vec<Vec<u8>> = (0..KEYSPACE).map(key_of).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let got = replica.multi_get(&refs).expect("replica multi_get");
    for (id, slot) in got.iter().enumerate() {
        assert_eq!(slot.as_ref(), model.get(&keys[id]), "{what}: multi_get slot {id}");
    }
    let scanned = replica.scan(b"key-", KEYSPACE as usize + 8).expect("replica scan");
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, want, "{what}: scan diverged");
}

/// Basic lifecycle: a plain-mode replica follows puts, deletes, flushes.
#[test]
fn replica_tails_live_plain_primary() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(env.clone()), "db").expect("open primary");
    let w = WriteOptions { sync: true };
    let mut model = BTreeMap::new();

    for id in 0..100u16 {
        let (k, v) = (key_of(id), format!("v{id}").into_bytes());
        db.put(&w, &k, &v).expect("put");
        model.insert(k, v);
    }
    let replica =
        ReplicaDb::open(Options::new(env.clone()), "db", manual()).expect("open replica");
    assert_matches_model(&replica, &model, "initial open");
    assert_eq!(replica.staleness(), 0);

    // Live updates: new puts, overwrites, deletes — visible after a round.
    for id in 50..150u16 {
        let (k, v) = (key_of(id), format!("w{id}").into_bytes());
        db.put(&w, &k, &v).expect("put");
        model.insert(k, v);
    }
    for id in 0..20u16 {
        db.delete(&w, &key_of(id)).expect("delete");
        model.remove(&key_of(id));
    }
    drain(&replica);
    assert_matches_model(&replica, &model, "after live updates");

    // A flush retires the WAL into an SST; the replica follows the
    // manifest edit and drops its replayed memtable without a blip.
    db.flush().expect("flush");
    drain(&replica);
    assert_matches_model(&replica, &model, "after flush");
    let stats = replica.statistics();
    assert!(stats.replica_wal_records_applied.load(std::sync::atomic::Ordering::Relaxed) > 0);
    assert!(stats.replica_manifest_edits_applied.load(std::sync::atomic::Ordering::Relaxed) > 0);
}

/// The background poller catches up without manual rounds.
#[test]
fn replica_auto_poll_catches_up() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(env.clone()), "db").expect("open primary");
    let w = WriteOptions { sync: true };
    db.put(&w, b"k-before", b"1").expect("put");

    let opts = ReplicaOptions { poll_interval: Duration::from_millis(1), ..Default::default() };
    let replica = ReplicaDb::open(Options::new(env), "db", opts).expect("open replica");
    assert_eq!(replica.get(b"k-before").expect("get"), Some(b"1".to_vec()));

    db.put(&w, b"k-after", b"2").expect("put");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if replica.get(b"k-after").expect("get") == Some(b"2".to_vec()) {
            break;
        }
        assert!(Instant::now() < deadline, "poller never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
    replica.stop();
}

/// WAL switches and flushes mid-tail: a small write buffer forces the
/// primary through many memtable switches while the replica polls
/// between batches, exercising segment discovery, multi-segment drains,
/// and retirement of flushed segments.
#[test]
fn replica_follows_wal_switches_under_load() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mut opts = small_opts(env.clone());
    opts = opts.with_write_buffer_size(2 << 10);
    let db = Db::open(opts, "db").expect("open primary");
    let w = WriteOptions { sync: true };
    let mut model = BTreeMap::new();

    let replica = ReplicaDb::open(Options::new(env), "db", manual()).expect("open replica");
    for round in 0..12u16 {
        for id in 0..60u16 {
            let key = key_of(round.wrapping_mul(37).wrapping_add(id * 3));
            let value = vec![b'a' + (round % 26) as u8; 64];
            db.put(&w, &key, &value).expect("put");
            model.insert(key, value);
        }
        // Poll mid-stream; no quiesce, so this round may be unclean.
        let _ = replica.catch_up().expect("catch_up");
    }
    drain(&replica);
    assert_matches_model(&replica, &model, "after switch-heavy load");
    let stats = replica.statistics();
    let flushes =
        stats.replica_manifest_edits_applied.load(std::sync::atomic::Ordering::Relaxed);
    assert!(flushes >= 3, "expected several flush edits, saw {flushes}");
}

/// A primary crash that tears the MANIFEST mid-edit: the replica keeps
/// serving its consistent pre-crash view, then follows the recovered
/// primary's manifest rollover.
#[test]
fn replica_survives_primary_crash_mid_manifest_edit() {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let fenv = Arc::new(FaultInjectionEnv::new(backing));
    let env: Arc<dyn Env> = fenv.clone();
    let w = WriteOptions { sync: true };
    let mut model = BTreeMap::new();

    let db = Db::open(small_opts(env.clone()), "db").expect("open primary");
    for id in 0..80u16 {
        let (k, v) = (key_of(id), format!("v{id}").into_bytes());
        db.put(&w, &k, &v).expect("put");
        model.insert(k, v);
    }
    db.flush().expect("flush");
    let replica =
        ReplicaDb::open(Options::new(env.clone()), "db", manual()).expect("open replica");
    assert_matches_model(&replica, &model, "pre-crash");

    // More committed writes, then a flush whose manifest append tears
    // mid-record — the paper's crash-mid-metadata-update window.
    for id in 80..120u16 {
        let (k, v) = (key_of(id), format!("v{id}").into_bytes());
        db.put(&w, &k, &v).expect("put");
        model.insert(k, v);
    }
    fenv.torn_write_n_times(FileKind::Manifest, 1);
    let _ = db.flush(); // fails (or surfaces later): the edit is torn
    drop(db);
    fenv.disarm_all();

    // The replica sees the committed WAL records and the torn manifest
    // tail; it must report the incomplete tail but stay consistent.
    let mut clean = true;
    for _ in 0..8 {
        clean = replica.catch_up().expect("catch_up over torn manifest");
    }
    assert!(!clean, "torn manifest tail must not read as clean");
    assert_matches_model(&replica, &model, "while primary is down");

    // The primary recovers: replays the WAL, rolls a fresh MANIFEST.
    let db = Db::open(small_opts(env.clone()), "db").expect("reopen primary");
    db.put(&w, b"post-crash", b"alive").expect("put");
    model.insert(b"post-crash".to_vec(), b"alive".to_vec());
    drain(&replica);
    assert_matches_model(&replica, &model, "after recovery rollover");
    let stats = replica.statistics();
    assert!(
        stats.replica_rollovers_followed.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "replica must have followed the recovery rollover"
    );
    assert!(stats.replica_incomplete_tails.load(std::sync::atomic::Ordering::Relaxed) >= 1);
}

/// Replica-side storage faults: when the WAL is unreadable but the
/// manifest advertises newer sequences, the replica must refuse to
/// advance (no gapped view) and trip the staleness bound rather than
/// serve flushed data it cannot prove contiguous.
#[test]
fn replica_staleness_bound_trips_under_faults() {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(backing.clone()), "db").expect("open primary");
    let w = WriteOptions { sync: true };
    let mut model = BTreeMap::new();
    for id in 0..60u16 {
        let (k, v) = (key_of(id), format!("v{id}").into_bytes());
        db.put(&w, &k, &v).expect("put");
        model.insert(k, v);
    }
    db.flush().expect("flush");

    let fenv = Arc::new(FaultInjectionEnv::new(backing));
    let opts = ReplicaOptions { max_staleness: Some(0), ..manual() };
    let replica = ReplicaDb::open(Options::new(fenv.clone() as Arc<dyn Env>), "db", opts)
        .expect("open replica");
    drain(&replica);
    assert_matches_model(&replica, &model, "before faults");

    // Block every WAL read on the replica side, then commit + flush on
    // the primary: the manifest says the database moved on, but the
    // replica cannot verify the live WAL. It must hold its sequence.
    fenv.error_n_times(FileKind::Wal, FaultOp::Open, u32::MAX);
    fenv.error_n_times(FileKind::Wal, FaultOp::Read, u32::MAX);
    for id in 60..90u16 {
        db.put(&w, &key_of(id), b"unseen").expect("put");
    }
    db.flush().expect("flush");
    let before = replica.sequence();
    for _ in 0..4 {
        let clean = replica.catch_up().expect("degraded catch_up");
        assert!(!clean, "blocked WAL must not report clean");
    }
    assert_eq!(replica.sequence(), before, "sequence must hold across the gap");
    assert!(replica.staleness() > 0, "manifest advanced: staleness must show");
    match replica.get(&key_of(0)) {
        Err(Error::InvalidArgument(msg)) => {
            assert!(msg.contains("behind"), "unexpected message: {msg}")
        }
        other => panic!("stale read must fail the bound, got {other:?}"),
    }

    // Faults clear; the replica verifies the gap and catches up.
    fenv.disarm_all();
    for id in 60..90u16 {
        model.insert(key_of(id), b"unseen".to_vec());
    }
    drain(&replica);
    assert_eq!(replica.staleness(), 0);
    assert_matches_model(&replica, &model, "after faults clear");
}

/// SHIELD end to end over the disaggregated topology: primary and
/// replica each mount the shared store through their own RemoteEnv, the
/// replica resolves every DEK by DEK-ID through its own resolver under
/// its own KDS identity, and the metrics document carries the golden
/// key set.
#[test]
fn replica_shield_over_remote_env_end_to_end() {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let primary_mount: Arc<dyn Env> =
        Arc::new(RemoteEnv::new(backing.clone(), NetworkModel::unlimited()));
    let sdb = open_shield(
        small_opts(primary_mount),
        "db",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, PRIMARY, b"primary-pass"),
    )
    .expect("open shield primary");

    let w = WriteOptions { sync: true };
    let mut model = BTreeMap::new();
    for id in 0..120u16 {
        let (k, v) = (key_of(id), format!("s{id}").into_bytes());
        sdb.put(&w, &k, &v).expect("put");
        model.insert(k, v);
    }
    sdb.flush().expect("flush");
    for id in 120..150u16 {
        let (k, v) = (key_of(id), format!("s{id}").into_bytes());
        sdb.put(&w, &k, &v).expect("put");
        model.insert(k, v);
    }

    let replica_mount: Arc<dyn Env> =
        Arc::new(RemoteEnv::new(backing, NetworkModel::unlimited()));
    let replica = open_shield_replica(
        replica_mount,
        "db",
        "reader.cache",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, READER, b"reader-pass"),
        manual(),
    )
    .expect("open shield replica");
    drain(&replica);
    assert_matches_model(&replica, &model, "shield over remote env");

    // DEKs came through the replica's own resolver, by DEK-ID.
    let rstats = replica.resolver.stats();
    assert!(rstats.cache_hits + rstats.cache_misses > 0, "resolver never engaged");

    // Golden keys of shield_replica_metrics_v1.
    let doc = json::parse(&replica.metrics_json()).expect("replica metrics parse");
    let keys = doc.keys();
    assert_eq!(
        keys,
        vec![
            "schema",
            "last_applied_seq",
            "last_seen_seq",
            "lag_records",
            "polls",
            "manifest_edits_applied",
            "wal_records_applied",
            "rollovers_followed",
            "incomplete_tails",
        ],
        "shield_replica_metrics_v1 key set drifted"
    );
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("shield_replica_metrics_v1")
    );
    assert_eq!(doc.get("lag_records").and_then(|v| v.as_f64()), Some(0.0));

    // Revoking the replica's identity locks it out of *new* DEKs (the
    // §5.4 breached-server response); already-cached DEKs still serve.
    kds.revoke_server(READER);
    sdb.put(&w, b"zz-new", b"rotated").expect("put");
    sdb.flush().expect("flush");
    let _ = replica.catch_up(); // new SST's DEK is unresolvable
    let locked = open_shield_replica(
        Arc::new(RemoteEnv::new(
            Arc::new(MemEnv::new()) as Arc<dyn Env>,
            NetworkModel::unlimited(),
        )),
        "db",
        "reader2.cache",
        ShieldOptions::new(kds as Arc<dyn Kds>, READER, b"reader2-pass"),
        manual(),
    );
    assert!(locked.is_err(), "revoked reader opened a fresh replica");
}

/// The primary's compaction deletes SSTs the replica's published view
/// still names (the view is one poll behind). A read that hits the
/// missing file catches up once and retries on the fresh view, so get,
/// multi_get and scan all serve the primary's state, and the published
/// sequence never moves backwards.
fn replica_reads_survive_primary_gc(shield_mode: bool) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let mut opts = Options::new(env.clone()).with_write_buffer_size(64 << 10);
    opts.compaction.l0_compaction_trigger = 2;
    let primary = if shield_mode {
        open_shield(
            opts,
            "db",
            ShieldOptions::new(kds.clone() as Arc<dyn Kds>, PRIMARY, b"primary-pass"),
        )
        .expect("open shield primary")
        .db
    } else {
        Db::open(opts, "db").expect("open primary")
    };
    let w = WriteOptions { sync: true };
    let key = |i: u32| format!("k{i:05}").into_bytes();
    for i in 0..200 {
        primary.put(&w, &key(i), b"v0").expect("put");
    }
    primary.flush().expect("flush");
    let keys: Vec<Vec<u8>> = (0..200).map(key).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

    let mut round = 0u32;
    // Each read runs on a fresh replica: one that has opened no table
    // yet, so its first read must open a file the primary deleted.
    for read in ["get", "multi_get", "scan"] {
        let replica = if shield_mode {
            open_shield_replica(
                env.clone(),
                "db",
                &format!("reader-{read}.cache"),
                ShieldOptions::new(kds.clone() as Arc<dyn Kds>, READER, b"reader-pass"),
                manual(),
            )
            .expect("open shield replica")
            .replica
        } else {
            ReplicaDb::open(Options::new(env.clone()), "db", manual()).expect("open replica")
        };
        replica.catch_up().expect("catch_up");
        let before = replica.sequence();
        for _ in 0..3 {
            round += 1;
            let value = format!("v{round}").into_bytes();
            for i in 0..200 {
                primary.put(&w, &key(i), &value).expect("overwrite");
            }
            primary.compact_all().expect("compact_all");
        }
        let value = Some(format!("v{round}").into_bytes());
        match read {
            "get" => assert_eq!(replica.get(b"k00007").expect("replica get"), value),
            "multi_get" => {
                let got = replica.multi_get(&refs).expect("replica multi_get");
                assert!(got.iter().all(|v| *v == value), "multi_get served a stale view");
            }
            _ => {
                let got = replica.scan(b"k", 1_000).expect("replica scan");
                assert_eq!(got.len(), 200);
                assert!(got.iter().all(|(_, v)| Some(v) == value.as_ref()));
            }
        }
        assert!(replica.sequence() >= before, "published sequence moved backwards");
        assert_eq!(replica.sequence(), primary.last_sequence());
    }
}

#[test]
fn replica_reads_survive_primary_gc_plain() {
    replica_reads_survive_primary_gc(false);
}

#[test]
fn replica_reads_survive_primary_gc_shield() {
    replica_reads_survive_primary_gc(true);
}

/// A primary with `count` keys flushed to SSTs, and a replica mounting
/// the same store through its own `RemoteEnv`.
fn remote_replica(count: u32) -> (Db, Arc<RemoteEnv>, Arc<ReplicaDb>) {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(backing.clone()), "db").expect("open primary");
    let w = WriteOptions { sync: true };
    for id in 0..count {
        db.put(&w, format!("key-{id:04}").as_bytes(), &[b'v'; 100]).expect("put");
    }
    db.compact_all().expect("compact_all");
    let mount = Arc::new(RemoteEnv::new(backing, NetworkModel::unlimited()));
    let replica = ReplicaDb::open(Options::new(mount.clone()), "db", manual())
        .expect("open replica");
    (db, mount, replica)
}

/// Replica reads go through a block cache: a repeated get makes no
/// reads on the replica's mount.
#[test]
fn replica_repeat_get_is_served_from_block_cache() {
    let (_db, mount, replica) = remote_replica(400);
    let io = mount.io_stats().expect("remote env keeps io stats");
    let first = replica.get(b"key-0123").expect("first get");
    assert_eq!(first, Some(vec![b'v'; 100]));
    let before = io.snapshot();
    assert_eq!(replica.get(b"key-0123").expect("second get"), first);
    let reads: u64 = io.snapshot().delta_since(&before).read_ops.iter().sum();
    assert_eq!(reads, 0, "a repeated replica get went to storage");
    let hits = replica.statistics().block_cache_hits.load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits > 0, "replica block cache never hit");
}

/// A cold replica multi_get takes the batched read path and returns
/// exactly what serial replica gets return.
#[test]
fn replica_cold_multi_get_is_batched_and_matches_gets() {
    let (_db, _mount, replica) = remote_replica(400);
    let keys: Vec<Vec<u8>> =
        (0..64u32).map(|i| format!("key-{:04}", i * 6).into_bytes()).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let batched = replica.multi_get(&refs).expect("replica multi_get");
    let batches = replica.statistics().batched_reads.load(std::sync::atomic::Ordering::Relaxed);
    assert!(batches > 0, "cold replica multi_get never reached the batched read path");
    let serial: Vec<Option<Vec<u8>>> =
        refs.iter().map(|k| replica.get(k).expect("replica get")).collect();
    assert_eq!(batched, serial);
    assert!(serial.iter().all(Option::is_some));
}

/// One encryption mode's way of wiring a primary + replica pair over a
/// shared MemEnv.
enum Mode {
    Plain,
    EncFs,
    Shield,
}

/// Random-history differential: puts, deletes, batches, flushes against
/// the primary; at every checkpoint the replica must equal the model
/// (and hence the primary) byte for byte.
#[derive(Clone, Debug)]
enum Action {
    Put(u16, Vec<u8>),
    Delete(u16),
    Batch(Vec<(u16, Option<Vec<u8>>)>),
    Flush,
    Check,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(k, v)| Action::Put(k, v)),
        2 => any::<u16>().prop_map(Action::Delete),
        2 => (any::<u16>(), 2usize..10, proptest::collection::vec((any::<bool>(), proptest::collection::vec(any::<u8>(), 0..24)), 10))
            .prop_map(|(base, n, payload)| {
                let ops = payload
                    .into_iter()
                    .take(n)
                    .enumerate()
                    .map(|(i, (del, v))| {
                        (base.wrapping_add(i as u16), if del { None } else { Some(v) })
                    })
                    .collect();
                Action::Batch(ops)
            }),
        1 => Just(Action::Flush),
        1 => Just(Action::Check),
    ]
}

fn run_differential(mode: &Mode, actions: &[Action]) {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let dek = Dek::generate(Algorithm::Aes128Ctr);
    let w = WriteOptions { sync: true };

    enum Primary {
        Plain(Db),
        EncFs(shield::EncFsDb),
        Shield(shield::ShieldDb),
    }
    impl Primary {
        fn db(&self) -> &Db {
            match self {
                Primary::Plain(db) => db,
                Primary::EncFs(db) => &db.db,
                Primary::Shield(db) => &db.db,
            }
        }
    }
    let primary = match mode {
        Mode::Plain => Primary::Plain(Db::open(small_opts(backing.clone()), "db").expect("open")),
        Mode::EncFs => Primary::EncFs(
            open_encfs(small_opts(backing.clone()), "db", dek.clone(), 0).expect("open encfs"),
        ),
        Mode::Shield => Primary::Shield(
            open_shield(
                small_opts(backing.clone()),
                "db",
                ShieldOptions::new(kds.clone() as Arc<dyn Kds>, PRIMARY, b"primary-pass"),
            )
            .expect("open shield"),
        ),
    };

    enum Replica {
        Direct(Arc<ReplicaDb>),
        Shield(shield::ShieldReplica),
    }
    impl Replica {
        fn get(&self) -> &ReplicaDb {
            match self {
                Replica::Direct(r) => r,
                Replica::Shield(r) => &r.replica,
            }
        }
    }
    let replica = match mode {
        Mode::Plain => Replica::Direct(
            ReplicaDb::open(Options::new(backing.clone()), "db", manual()).expect("open replica"),
        ),
        Mode::EncFs => {
            // Instance-level encryption sits below the engine: the
            // replica mounts through its own EncryptedEnv with the same
            // instance DEK.
            let env: Arc<dyn Env> = Arc::new(EncryptedEnv::new(backing.clone(), dek, 0));
            Replica::Direct(
                ReplicaDb::open(Options::new(env), "db", manual()).expect("open replica"),
            )
        }
        Mode::Shield => Replica::Shield(
            open_shield_replica(
                backing.clone(),
                "db",
                "reader.cache",
                ShieldOptions::new(kds.clone() as Arc<dyn Kds>, READER, b"reader-pass"),
                manual(),
            )
            .expect("open shield replica"),
        ),
    };

    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for action in actions {
        match action {
            Action::Put(k, v) => {
                primary.db().put(&w, &key_of(*k), v).expect("put");
                model.insert(key_of(*k), v.clone());
            }
            Action::Delete(k) => {
                primary.db().delete(&w, &key_of(*k)).expect("delete");
                model.remove(&key_of(*k));
            }
            Action::Batch(ops) => {
                let mut batch = shield_lsm::WriteBatch::new();
                for (k, v) in ops {
                    match v {
                        Some(v) => batch.put(&key_of(*k), v),
                        None => batch.delete(&key_of(*k)),
                    }
                    match v {
                        Some(v) => {
                            model.insert(key_of(*k), v.clone());
                        }
                        None => {
                            model.remove(&key_of(*k));
                        }
                    }
                }
                primary.db().write(&w, batch).expect("batch");
            }
            Action::Flush => primary.db().flush().expect("flush"),
            Action::Check => {
                drain(replica.get());
                assert_matches_model(replica.get(), &model, "checkpoint");
            }
        }
    }
    drain(replica.get());
    assert_matches_model(replica.get(), &model, "final");

    // Cross-check against the primary itself, not just the model.
    let r = ReadOptions::new();
    for id in (0..KEYSPACE).step_by(7) {
        let key = key_of(id);
        assert_eq!(
            replica.get().get(&key).expect("replica get"),
            primary.db().get(&r, &key).expect("primary get"),
            "replica vs primary diverged on key {id}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, max_shrink_iters: 80, ..ProptestConfig::default() })]

    #[test]
    fn replica_differential_plain(actions in proptest::collection::vec(action_strategy(), 1..60)) {
        run_differential(&Mode::Plain, &actions);
    }

    #[test]
    fn replica_differential_encfs(actions in proptest::collection::vec(action_strategy(), 1..60)) {
        run_differential(&Mode::EncFs, &actions);
    }

    #[test]
    fn replica_differential_shield(actions in proptest::collection::vec(action_strategy(), 1..60)) {
        run_differential(&Mode::Shield, &actions);
    }
}
