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
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use shield::{open_encfs, open_shield, open_shield_replica, EncryptedEnv, ShieldOptions};
use shield_core::json;
use shield_crypto::{Algorithm, Dek};
use shield_env::{
    Env, EnvError, FaultInjectionEnv, FaultOp, FileKind, MemEnv, NetworkModel, RemoteEnv,
};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::cache::{BlockCache, CacheConfig};
use shield_lsm::encryption::FILE_HEADER_LEN;
use shield_lsm::{
    Db, Error, Integrity, Options, ReadOptions, ReplicaDb, ReplicaOptions, WriteOptions,
};

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
    assert!(stats.replica_wal_records_applied.load(Ordering::Relaxed) > 0);
    assert!(stats.replica_manifest_edits_applied.load(Ordering::Relaxed) > 0);
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
        stats.replica_manifest_edits_applied.load(Ordering::Relaxed);
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
        stats.replica_rollovers_followed.load(Ordering::Relaxed) >= 1,
        "replica must have followed the recovery rollover"
    );
    assert!(stats.replica_incomplete_tails.load(Ordering::Relaxed) >= 1);
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
            "warmed_blocks",
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

/// One encryption mode's way of wiring a primary + replica pair over a
/// shared store.
enum Mode {
    Plain,
    EncFs,
    Shield,
}

/// Key material a primary and its replica share: the KDS both resolve
/// SHIELD DEKs through, and the EncFS instance DEK.
struct Keys {
    kds: Arc<LocalKds>,
    dek: Dek,
}

impl Keys {
    fn new() -> Self {
        Keys {
            kds: Arc::new(LocalKds::new(KdsConfig::default())),
            dek: Dek::generate(Algorithm::Aes128Ctr),
        }
    }
}

/// A primary in one of the three modes.
enum Primary {
    Plain(Db),
    EncFs(shield::EncFsDb),
    Shield(shield::ShieldDb),
}

impl Primary {
    fn open(mode: &Mode, opts: Options, keys: &Keys) -> Self {
        match mode {
            Mode::Plain => Primary::Plain(Db::open(opts, "db").expect("open")),
            Mode::EncFs => {
                Primary::EncFs(open_encfs(opts, "db", keys.dek.clone(), 0).expect("open encfs"))
            }
            Mode::Shield => Primary::Shield(
                open_shield(
                    opts,
                    "db",
                    ShieldOptions::new(keys.kds.clone() as Arc<dyn Kds>, PRIMARY, b"primary-pass"),
                )
                .expect("open shield"),
            ),
        }
    }

    fn db(&self) -> &Db {
        match self {
            Primary::Plain(db) => db,
            Primary::EncFs(db) => &db.db,
            Primary::Shield(db) => &db.db,
        }
    }
}

/// A manually polled replica in one of the three modes.
enum Replica {
    Direct(Arc<ReplicaDb>),
    Shield(shield::ShieldReplica),
}

impl Replica {
    /// Opens a replica of the store at `db`, mounted through `env`.
    fn open(mode: &Mode, env: Arc<dyn Env>, keys: &Keys) -> Self {
        match mode {
            Mode::Plain => Replica::Direct(
                ReplicaDb::open(Options::new(env), "db", manual()).expect("open replica"),
            ),
            Mode::EncFs => {
                // Instance-level encryption sits below the engine: the
                // replica mounts through its own EncryptedEnv with the
                // same instance DEK.
                let env: Arc<dyn Env> = Arc::new(EncryptedEnv::new(env, keys.dek.clone(), 0));
                Replica::Direct(
                    ReplicaDb::open(Options::new(env), "db", manual()).expect("open replica"),
                )
            }
            Mode::Shield => Replica::Shield(
                open_shield_replica(
                    env,
                    "db",
                    "reader.cache",
                    ShieldOptions::new(keys.kds.clone() as Arc<dyn Kds>, READER, b"reader-pass"),
                    manual(),
                )
                .expect("open shield replica"),
            ),
        }
    }

    fn get(&self) -> &ReplicaDb {
        match self {
            Replica::Direct(r) => r,
            Replica::Shield(r) => &r.replica,
        }
    }
}

/// A primary and a replica over one shared in-memory store, the replica
/// mounting it through its own `RemoteEnv` over a fault-injection layer.
struct RemotePair {
    /// The shared store itself, for raw tampering.
    backing: MemEnv,
    primary: Primary,
    /// The replica's link: its I/O stats count every replica read.
    mount: Arc<RemoteEnv>,
    /// Faults armed here hit only the replica's reads.
    faults: FaultInjectionEnv,
    replica: Replica,
}

impl RemotePair {
    /// SST reads the replica's link has carried so far.
    fn sst_reads(&self) -> u64 {
        let io = self.mount.io_stats().expect("remote env keeps io stats");
        io.snapshot().read_ops[FileKind::Sst.index()]
    }
}

/// A `mode` primary with `count` keys (`key-0000`, …) of 100-byte values
/// compacted below L0, then one L0 file of other keys (`key-9000`, …),
/// and a replica opened over the result. SHIELD runs with
/// `Integrity::Hmac`. Automatic compaction is held off, so new L0 files
/// stay where a flush puts them; 1 KiB blocks give every flush several.
fn remote_replica(mode: &Mode, count: u32) -> RemotePair {
    let keys = Keys::new();
    let backing = MemEnv::new();
    let mut opts = small_opts(Arc::new(backing.clone()));
    opts.compaction.l0_compaction_trigger = 8;
    opts.block_size = 1024;
    if matches!(mode, Mode::Shield) {
        opts = opts.with_integrity(Integrity::Hmac);
    }
    let primary = Primary::open(mode, opts, &keys);
    let w = WriteOptions { sync: true };
    for id in 0..count {
        primary.db().put(&w, format!("key-{id:04}").as_bytes(), &[b'v'; 100]).expect("put");
    }
    primary.db().compact_all().expect("compact_all");
    for id in 9000..9040u32 {
        primary.db().put(&w, format!("key-{id:04}").as_bytes(), b"l0").expect("put");
    }
    primary.db().flush().expect("flush");

    let faults = FaultInjectionEnv::new(Arc::new(backing.clone()));
    let mount = Arc::new(RemoteEnv::new(
        Arc::new(faults.clone()) as Arc<dyn Env>,
        NetworkModel::unlimited(),
    ));
    let replica = Replica::open(mode, mount.clone(), &keys);
    RemotePair { backing, primary, mount, faults, replica }
}

/// Replica reads go through a block cache: a repeated get makes no
/// reads on the replica's mount.
#[test]
fn replica_repeat_get_is_served_from_block_cache() {
    let pair = remote_replica(&Mode::Plain, 400);
    let replica = pair.replica.get();
    let first = replica.get(b"key-0123").expect("first get");
    assert_eq!(first, Some(vec![b'v'; 100]));
    let io = pair.mount.io_stats().expect("remote env keeps io stats");
    let before = io.snapshot();
    assert_eq!(replica.get(b"key-0123").expect("second get"), first);
    let reads: u64 = io.snapshot().delta_since(&before).read_ops.iter().sum();
    assert_eq!(reads, 0, "a repeated replica get went to storage");
    let hits = replica.statistics().block_cache_hits.load(Ordering::Relaxed);
    assert!(hits > 0, "replica block cache never hit");
}

/// A cold replica multi_get takes the batched read path and returns
/// exactly what serial replica gets return.
#[test]
fn replica_cold_multi_get_is_batched_and_matches_gets() {
    let pair = remote_replica(&Mode::Plain, 400);
    let replica = pair.replica.get();
    let keys: Vec<Vec<u8>> =
        (0..64u32).map(|i| format!("key-{:04}", i * 6).into_bytes()).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let batched = replica.multi_get(&refs).expect("replica multi_get");
    let batches = replica.statistics().batched_reads.load(Ordering::Relaxed);
    assert!(batches > 0, "cold replica multi_get never reached the batched read path");
    let serial: Vec<Option<Vec<u8>>> =
        refs.iter().map(|k| replica.get(k).expect("replica get")).collect();
    assert_eq!(batched, serial);
    assert!(serial.iter().all(Option::is_some));
}

/// Keys the flush tests overwrite: spread over `key-0000..key-0400`, so
/// the new L0 file overlaps the compacted data under it.
fn flush_keys() -> Vec<Vec<u8>> {
    (0..40u32).map(|i| format!("key-{:04}", i * 9).into_bytes()).collect()
}

/// Overwrites [`flush_keys`] on the primary, lets the replica tail them
/// into its memtable, then flushes them into a new L0 file. The replica
/// has not seen the flush yet.
fn overwrite_and_flush(pair: &RemotePair) {
    let w = WriteOptions { sync: true };
    for (i, key) in flush_keys().iter().enumerate() {
        let value = format!("flushed-{i:02}-{}", "x".repeat(48));
        pair.primary.db().put(&w, key, value.as_bytes()).expect("put");
    }
    drain(pair.replica.get());
    pair.primary.db().flush().expect("flush");
}

/// The round that retires a memtable first warms the L0 file replacing
/// it: after one catch-up, every flushed key reads back the primary's
/// value without a single SST read or data-block cache miss. Opening a
/// replica reads no data block at all.
fn flush_is_warm_before_retire(mode: &Mode) {
    let pair = remote_replica(mode, 400);
    let replica = pair.replica.get();
    let stats = replica.statistics();
    let data_misses = || replica.statistics().block_cache_data_misses.load(Ordering::Relaxed);
    assert_eq!(pair.sst_reads(), 0, "opening a replica read an SST");
    assert_eq!(data_misses(), 0, "opening a replica read a data block");
    assert_eq!(stats.replica_warmed_blocks.load(Ordering::Relaxed), 0, "open warmed");

    overwrite_and_flush(&pair);
    replica.catch_up().expect("catch_up");
    assert!(
        stats.replica_warmed_blocks.load(Ordering::Relaxed) > 0,
        "the flushed L0 file was not warmed"
    );
    let (reads, misses) = (pair.sst_reads(), data_misses());
    let r = ReadOptions::new();
    for key in flush_keys() {
        let want = pair.primary.db().get(&r, &key).expect("primary get");
        assert!(want.is_some());
        assert_eq!(replica.get(&key).expect("replica get"), want);
    }
    assert_eq!(pair.sst_reads(), reads, "a flushed key's get went to storage");
    assert_eq!(data_misses(), misses, "a flushed key's get missed the block cache");
}

#[test]
fn flush_is_warm_before_retire_plain() {
    flush_is_warm_before_retire(&Mode::Plain);
}

#[test]
fn flush_is_warm_before_retire_encfs() {
    flush_is_warm_before_retire(&Mode::EncFs);
}

#[test]
fn flush_is_warm_before_retire_shield_hmac() {
    flush_is_warm_before_retire(&Mode::Shield);
}

/// Warming is best-effort: an unrecoverable read fault on the new SST
/// during the round neither fails the round nor poisons the replica, and
/// once the fault clears the flushed keys read on demand.
#[test]
fn warm_read_fault_never_poisons_the_replica() {
    let pair = remote_replica(&Mode::Plain, 400);
    let replica = pair.replica.get();
    overwrite_and_flush(&pair);
    pair.faults.error_once_with(
        FileKind::Sst,
        FaultOp::Read,
        EnvError::Corruption("injected medium fault".into()),
    );
    replica.catch_up().expect("a failed warm must not fail the round");
    assert_eq!(pair.faults.stats().injected_for(FaultOp::Read), 1, "the fault never fired");
    let stats = replica.statistics();
    assert_eq!(stats.replica_warmed_blocks.load(Ordering::Relaxed), 0);
    pair.faults.disarm_all();
    replica.catch_up().expect("the replica was poisoned");
    let r = ReadOptions::new();
    for key in flush_keys() {
        let want = pair.primary.db().get(&r, &key).expect("primary get");
        assert_eq!(replica.get(&key).expect("replica get"), want);
    }
}

/// The warm verifies before it admits: a block forged in the new L0 file
/// fails its HMAC, stays out of the cache, and the get that needs it
/// still fails with `IntegrityViolation` — while the round succeeds, the
/// file's intact blocks are warmed, and the replica keeps serving.
#[test]
fn warm_never_caches_a_tampered_block() {
    let pair = remote_replica(&Mode::Shield, 400);
    let replica = pair.replica.get();
    overwrite_and_flush(&pair);
    let newest = pair
        .backing
        .list_dir("db")
        .expect("list")
        .into_iter()
        .filter(|n| n.ends_with(".sst"))
        .max()
        .expect("an sst");
    let path = format!("db/{newest}");
    let mut raw = pair.backing.raw_content(&path).expect("raw sst");
    // The first data block starts right after SHIELD's file header.
    raw[FILE_HEADER_LEN + 8] ^= 0x01;
    pair.backing.set_raw_content(&path, raw).expect("tamper");

    let stats = replica.statistics();
    let failures = || stats.integrity_failures.load(Ordering::Relaxed);
    replica.catch_up().expect("a tampered block must not fail the round");
    let after_warm = failures();
    assert!(after_warm > 0, "the warm admitted a block without verifying it");
    assert!(stats.replica_warmed_blocks.load(Ordering::Relaxed) > 0, "intact blocks not warmed");
    // The smallest flushed key lives in the forged first block.
    let first = &flush_keys()[0];
    match replica.get(first) {
        Err(Error::IntegrityViolation(_)) => {}
        other => panic!("forged block served: {other:?}"),
    }
    assert!(failures() > after_warm, "the get was served from a cached forged block");
    replica.catch_up().expect("the replica was poisoned");
    let last = flush_keys().pop().expect("keys");
    let want = pair.primary.db().get(&ReadOptions::new(), &last).expect("primary get");
    assert_eq!(replica.get(&last).expect("an intact block"), want);
}

/// A warm takes at most half the block cache, newest files first. The
/// replica here has a 5 KiB cache — smaller than one of the primary's
/// ~5.6 KiB flushes — and falls behind by several flushes in one round:
/// only the small newest file is warmed, the bigger ones are skipped
/// whole, and the block the replica was serving from before the round is
/// still cached after it.
#[test]
fn warm_is_bounded_by_half_the_block_cache() {
    let pair = remote_replica(&Mode::Plain, 400);
    let capacity = 5 << 10;
    let cache = BlockCache::with_config(CacheConfig {
        capacity,
        shard_bits: 0,
        ..CacheConfig::default()
    })
    .expect("cache");
    let mut opts = Options::new(pair.mount.clone());
    opts.shared_block_cache = Some(cache.clone());
    let replica = ReplicaDb::open(opts, "db", manual()).expect("open replica");
    let hot = b"key-0123";
    assert!(replica.get(hot).expect("hot get").is_some());
    let ssts_before: Vec<String> = pair.backing.list_dir("db").expect("list");

    // 150 puts auto-flush several ~5.6 KiB files before the replica
    // catches up (it still holds the WAL they replace); then the rest and
    // a small newest file flush. None overlaps the hot key.
    let w = WriteOptions { sync: true };
    let db = pair.primary.db();
    let big = |id: u32| format!("key-6{id:03}").into_bytes();
    let small = |id: u32| format!("key-7{id:03}").into_bytes();
    for id in 0..150 {
        db.put(&w, &big(id), &[b'b'; 100]).expect("put");
    }
    drain(&replica);
    db.flush().expect("flush");
    for id in 0..8 {
        db.put(&w, &small(id), b"small").expect("put");
    }
    db.flush().expect("flush");
    let largest = pair
        .backing
        .list_dir("db")
        .expect("list")
        .into_iter()
        .filter(|n| n.ends_with(".sst") && !ssts_before.contains(n))
        .map(|n| pair.backing.file_size(&format!("db/{n}")).expect("size"))
        .max()
        .expect("new ssts");
    assert!(largest > capacity as u64, "a flush ({largest} B) should outgrow the cache");

    replica.catch_up().expect("catch_up");
    let stats = replica.statistics();
    assert!(stats.replica_warmed_blocks.load(Ordering::Relaxed) > 0, "newest file not warmed");
    assert!(cache.usage() <= capacity, "cache usage {} over {capacity}", cache.usage());
    let reads = pair.sst_reads();
    assert!(replica.get(hot).expect("hot get").is_some());
    for id in 0..8 {
        assert_eq!(replica.get(&small(id)).expect("small get"), Some(b"small".to_vec()));
    }
    assert_eq!(pair.sst_reads(), reads, "hot block displaced, or newest file not warmed");
    assert_eq!(replica.get(&big(0)).expect("big get"), Some(vec![b'b'; 100]));
    assert!(pair.sst_reads() > reads, "a file larger than half the cache was warmed");
    let r = ReadOptions::new();
    for id in 0..150 {
        let want = db.get(&r, &big(id)).expect("primary get");
        assert_eq!(replica.get(&big(id)).expect("replica get"), want);
    }
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
    let keys = Keys::new();
    let w = WriteOptions { sync: true };
    let primary = Primary::open(mode, small_opts(backing.clone()), &keys);
    let replica = Replica::open(mode, backing, &keys);

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
