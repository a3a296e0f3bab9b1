//! Differential coverage for `Db::multi_get` (PR 7): a batched lookup
//! must be observationally identical to N serial `get`s — slot for slot
//! — in all three encryption modes (plain / EncFS / SHIELD), including:
//!
//! - keys resident in the active/immutable memtables (never fetched),
//! - keys shadowed by tombstones at any layer,
//! - snapshot reads (`ReadOptions::snapshot_seq`) taken mid-history,
//! - absent keys, and
//! - mid-batch injected read faults: a `FaultInjectionEnv` failing one
//!   underlying SST read must error only the slots that needed that
//!   file's data, leave every neighboring slot's bytes intact, never
//!   park the engine (I/O faults are retryable), and succeed on retry
//!   once disarmed; failing every read of one file errors only the keys
//!   whose lookups reach that file.
//!
//! Over a layered store (an L0 file shadowing several deeper levels), a
//! cold batch must also read exactly the blocks serial gets read, and
//! submit the first wave's reads for different files concurrently.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;
use shield::{open_encfs, open_plain, open_shield, EncFsDb, ShieldDb, ShieldOptions};
use shield_crypto::{Algorithm, Dek};
use shield_env::{
    Env, EnvError, EnvResult, FaultInjectionEnv, FaultOp, FaultStatsSnapshot, FileKind, IoStats,
    MemEnv, RandomAccessFile, ReadRequest, SequentialFile, WritableFile,
};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Options, ReadOptions, WriteOptions};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Plain,
    EncFs,
    Shield,
}

const MODES: [Mode; 3] = [Mode::Plain, Mode::EncFs, Mode::Shield];

enum Handle {
    Plain(Db),
    EncFs(EncFsDb),
    Shield(ShieldDb),
}

impl Handle {
    fn db(&self) -> &Db {
        match self {
            Handle::Plain(db) => db,
            Handle::EncFs(db) => &db.db,
            Handle::Shield(db) => &db.db,
        }
    }
}

/// What [`RecordingEnv`] observes and injects, shared by every file it
/// opens.
#[derive(Default)]
struct Recorder {
    /// Whether SST reads are being logged.
    on: AtomicBool,
    /// `(file name, offset)` of every logged SST read.
    reads: Mutex<Vec<(String, u64)>>,
    /// `read_at_many` calls open right now, and their high-water mark.
    open_batches: AtomicUsize,
    peak_batches: AtomicUsize,
    /// Until this many `read_at_many` calls have been open at once, each
    /// call waits (at most 2 s) for the others, so concurrent submissions
    /// are seen overlapping without any timing assumption. 0 disables
    /// the wait.
    hold_for: AtomicUsize,
    /// Every read of this SST file fails.
    failing: Mutex<Option<String>>,
}

impl Recorder {
    fn start(&self) {
        self.reads.lock().unwrap().clear();
        self.peak_batches.store(0, Ordering::SeqCst);
        self.on.store(true, Ordering::SeqCst);
    }

    /// Stops logging and returns the reads logged since [`Recorder::start`].
    fn take(&self) -> Vec<(String, u64)> {
        self.on.store(false, Ordering::SeqCst);
        std::mem::take(&mut *self.reads.lock().unwrap())
    }

    /// Logs a read of `name` at `offset`; fails it if `name` is failing.
    fn read(&self, name: &str, offset: u64) -> EnvResult<()> {
        if self.failing.lock().unwrap().as_deref() == Some(name) {
            return Err(EnvError::Io(format!("injected read fault on {name}")));
        }
        if self.on.load(Ordering::SeqCst) {
            self.reads.lock().unwrap().push((name.to_string(), offset));
        }
        Ok(())
    }
}

/// An env that logs and optionally fails SST reads per file, and counts
/// concurrently open `read_at_many` calls.
struct RecordingEnv {
    inner: Arc<dyn Env>,
    rec: Arc<Recorder>,
}

struct RecordingFile {
    inner: Arc<dyn RandomAccessFile>,
    name: String,
    rec: Arc<Recorder>,
}

impl RandomAccessFile for RecordingFile {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        self.rec.read(&self.name, offset)?;
        self.inner.read_at(offset, len)
    }

    fn len(&self) -> EnvResult<u64> {
        self.inner.len()
    }

    fn read_at_many(&self, requests: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
        let open = self.rec.open_batches.fetch_add(1, Ordering::SeqCst) + 1;
        self.rec.peak_batches.fetch_max(open, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(2);
        let hold_for = self.rec.hold_for.load(Ordering::SeqCst);
        while self.rec.peak_batches.load(Ordering::SeqCst) < hold_for && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        let logged: EnvResult<Vec<()>> =
            requests.iter().map(|r| self.rec.read(&self.name, r.offset)).collect();
        let out = match logged {
            Ok(_) => self.inner.read_at_many(requests),
            Err(e) => requests.iter().map(|_| Err(e.clone())).collect(),
        };
        self.rec.open_batches.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

impl Env for RecordingEnv {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        self.inner.new_writable_file(path, kind)
    }
    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
        let inner = self.inner.new_random_access_file(path, kind)?;
        if kind != FileKind::Sst {
            return Ok(inner);
        }
        let name = path.rsplit('/').next().unwrap_or(path).to_string();
        Ok(Arc::new(RecordingFile { inner, name, rec: self.rec.clone() }))
    }
    fn new_sequential_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Box<dyn SequentialFile>> {
        self.inner.new_sequential_file(path, kind)
    }
    fn remove_file(&self, path: &str) -> EnvResult<()> {
        self.inner.remove_file(path)
    }
    fn rename(&self, from: &str, to: &str) -> EnvResult<()> {
        self.inner.rename(from, to)
    }
    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }
    fn file_size(&self, path: &str) -> EnvResult<u64> {
        self.inner.file_size(path)
    }
    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn create_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.create_dir_all(dir)
    }
    fn remove_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.remove_dir_all(dir)
    }
    fn io_stats(&self) -> Option<Arc<IoStats>> {
        self.inner.io_stats()
    }
    fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.inner.fault_stats()
    }
    fn set_event_listener(&self, listener: Arc<dyn shield_core::EventListener>) {
        self.inner.set_event_listener(listener);
    }
}

/// One mode's persistent state: the fault-injection env holding the
/// files plus the key material that must survive reopens. The engine
/// sees it through a [`RecordingEnv`].
struct TestDb {
    fenv: FaultInjectionEnv,
    rec: Arc<Recorder>,
    kds: Arc<LocalKds>,
    dek: Dek,
    mode: Mode,
}

impl TestDb {
    fn new(mode: Mode) -> Self {
        TestDb {
            fenv: FaultInjectionEnv::new(Arc::new(MemEnv::new())),
            rec: Arc::new(Recorder::default()),
            kds: Arc::new(LocalKds::new(KdsConfig::default())),
            dek: Dek::generate(Algorithm::Aes128Ctr),
            mode,
        }
    }

    /// Opens (or reopens, with a cold block cache) the database.
    fn open(&self) -> Handle {
        self.open_with(|_| {})
    }

    /// [`TestDb::open`] with `tune` applied to the options last.
    fn open_with(&self, tune: impl FnOnce(&mut Options)) -> Handle {
        let env = RecordingEnv { inner: Arc::new(self.fenv.clone()), rec: self.rec.clone() };
        let mut opts = Options::new(Arc::new(env)).with_write_buffer_size(16 << 10);
        // Small files and an eager trigger so batches span several
        // levels and tables; tiny blocks so they span many blocks.
        opts.block_size = 256;
        opts.compaction.l0_compaction_trigger = 2;
        opts.compaction.target_file_size = 32 << 10;
        tune(&mut opts);
        match self.mode {
            Mode::Plain => Handle::Plain(open_plain(opts, "db").expect("open plain")),
            Mode::EncFs => {
                Handle::EncFs(open_encfs(opts, "db", self.dek.clone(), 0).expect("open encfs"))
            }
            Mode::Shield => Handle::Shield(
                open_shield(
                    opts,
                    "db",
                    ShieldOptions::new(self.kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk"),
                )
                .expect("open shield"),
            ),
        }
    }

    /// Names of the SST files on storage.
    fn sst_files(&self) -> BTreeSet<String> {
        self.fenv
            .inner()
            .list_dir("db")
            .expect("list db")
            .into_iter()
            .filter(|n| n.ends_with(".sst"))
            .collect()
    }
}

fn key_bytes(i: u8) -> Vec<u8> {
    format!("key{i:03}").into_bytes()
}

/// Asserts `multi_get(keys)` ≡ serial `get`s, slot for slot, at `ropts`.
fn assert_batch_matches_serial(db: &Db, ropts: &ReadOptions, keys: &[Vec<u8>], label: &str) {
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let batched = db.multi_get(ropts, &refs);
    assert_eq!(batched.len(), keys.len());
    for (key, got) in keys.iter().zip(batched) {
        let serial = db.get(ropts, key).unwrap_or_else(|e| panic!("serial get failed: {e}"));
        assert_eq!(
            got.expect("batched slot errored where serial get succeeded"),
            serial,
            "{label}: divergence on {:?}",
            String::from_utf8_lossy(key)
        );
    }
}

/// One scripted history: puts/deletes before a flush+compact boundary
/// (persistent layers), a snapshot, then more puts/deletes that stay in
/// the memtable. Batched reads at both the latest state and the snapshot
/// must match serial reads exactly.
fn run_history(
    mode: Mode,
    persistent: &[(u8, bool)],
    resident: &[(u8, bool)],
    queries: &[u8],
) {
    let t = TestDb::new(mode);
    let handle = t.open();
    let db = handle.db();
    let w = WriteOptions::default();
    for &(k, is_delete) in persistent {
        if is_delete {
            db.delete(&w, &key_bytes(k)).unwrap();
        } else {
            db.put(&w, &key_bytes(k), format!("v1-{k}").as_bytes()).unwrap();
        }
    }
    db.compact_all().unwrap();
    let snap = db.snapshot();
    for &(k, is_delete) in resident {
        if is_delete {
            db.delete(&w, &key_bytes(k)).unwrap();
        } else {
            db.put(&w, &key_bytes(k), format!("v2-{k}").as_bytes()).unwrap();
        }
    }
    let keys: Vec<Vec<u8>> = queries.iter().map(|&k| key_bytes(k)).collect();
    assert_batch_matches_serial(db, &ReadOptions::new(), &keys, "latest");
    assert_batch_matches_serial(db, &snap.read_options(), &keys, "snapshot");
    // And with fill_cache off (reads around the cache).
    let ropts = ReadOptions { snapshot_seq: None, fill_cache: false };
    assert_batch_matches_serial(db, &ropts, &keys, "no-fill");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Arbitrary histories and query batches (duplicate and absent keys
    /// included), differentially checked in all three modes.
    #[test]
    fn multi_get_equals_serial_gets(
        persistent in proptest::collection::vec((0u8..48, any::<bool>()), 8..64),
        resident in proptest::collection::vec((0u8..48, any::<bool>()), 0..24),
        queries in proptest::collection::vec(0u8..64, 1..48),
    ) {
        for mode in MODES {
            run_history(mode, &persistent, &resident, &queries);
        }
    }
}

/// A large deterministic batch over cold multi-level storage: the batch
/// must engage the batched read path (nonzero `batched_reads` ticker
/// carrying several requests per submission) and still match serial gets.
#[test]
fn large_cold_batch_engages_batched_reads() {
    for mode in MODES {
        let t = TestDb::new(mode);
        {
            let handle = t.open();
            let db = handle.db();
            let w = WriteOptions::default();
            for i in 0..=255u8 {
                db.put(&w, &key_bytes(i), format!("value-{i}").as_bytes()).unwrap();
            }
            db.compact_all().unwrap();
        }
        // Reopen: cold block cache, everything on "disk".
        let handle = t.open();
        let db = handle.db();
        let keys: Vec<Vec<u8>> = (0..=255u8).step_by(3).map(key_bytes).collect();
        assert_batch_matches_serial(db, &ReadOptions::new(), &keys, "cold batch");
        let snap = db.statistics().snapshot();
        assert!(snap.multi_gets >= 1, "{mode:?}: multi_gets ticker never bumped");
        assert!(snap.batched_reads > 0, "{mode:?}: batch never hit the batched read path");
        assert!(
            snap.batch_read_requests > snap.batched_reads,
            "{mode:?}: batches carried {} requests over {} submissions — no batching",
            snap.batch_read_requests,
            snap.batched_reads
        );
    }
}

/// An injected read fault mid-batch must produce per-slot errors only,
/// leave neighboring slots byte-intact, not park the engine, and clear
/// on retry after the fault is disarmed.
#[test]
fn injected_fault_errors_only_affected_slots() {
    for mode in MODES {
        let t = TestDb::new(mode);
        {
            let handle = t.open();
            let db = handle.db();
            let w = WriteOptions::default();
            for i in 0..=255u8 {
                db.put(&w, &key_bytes(i), format!("value-{i}").as_bytes()).unwrap();
            }
            db.compact_all().unwrap();
        }
        // Reopen cold so the batch must actually read, then arm exactly
        // one SST read fault.
        let handle = t.open();
        let db = handle.db();
        let keys: Vec<Vec<u8>> = (0..=255u8).step_by(2).map(key_bytes).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        t.fenv.error_n_times(FileKind::Sst, FaultOp::Read, 1);
        let results = db.multi_get(&ReadOptions::new(), &refs);
        t.fenv.disarm_all();
        assert_eq!(
            t.fenv.stats().injected_for(FaultOp::Read),
            1,
            "{mode:?}: the armed fault never fired"
        );
        let failed: Vec<usize> =
            (0..results.len()).filter(|&i| results[i].is_err()).collect();
        assert!(!failed.is_empty(), "{mode:?}: injected read fault surfaced in no slot");
        // Neighbors are intact: every Ok slot must carry the exact value.
        for (i, (key, result)) in keys.iter().zip(&results).enumerate() {
            if let Ok(got) = result {
                let expect = format!("value-{}", i * 2).into_bytes();
                assert_eq!(
                    got.as_deref(),
                    Some(expect.as_slice()),
                    "{mode:?}: fault corrupted neighboring slot {:?}",
                    String::from_utf8_lossy(key)
                );
            }
        }
        // An I/O fault is transient: the engine must not park...
        assert!(
            db.background_error().is_none(),
            "{mode:?}: retryable I/O fault parked the engine"
        );
        // ...and the failed slots must succeed once the fault is gone.
        let retry_keys: Vec<&[u8]> = failed.iter().map(|&i| keys[i].as_slice()).collect();
        let retried = db.multi_get(&ReadOptions::new(), &retry_keys);
        for (&i, result) in failed.iter().zip(retried) {
            let expect = format!("value-{}", i * 2).into_bytes();
            assert_eq!(
                result.unwrap_or_else(|e| panic!("{mode:?}: retry still failing: {e}")).as_deref(),
                Some(expect.as_slice()),
                "{mode:?}: retry returned wrong bytes for slot {i}"
            );
        }
    }
}

fn layered_key(i: usize) -> Vec<u8> {
    format!("k{i:04}").into_bytes()
}

/// Tiny files and level targets so a few hundred keys span several files
/// on several levels; `base_level_bytes` is L1's target size. Every
/// flush compacts L0 away.
fn layered_options(opts: &mut Options, base_level_bytes: u64) {
    opts.compaction.target_file_size = 8 << 10;
    opts.compaction.base_level_bytes = base_level_bytes;
    opts.compaction.fanout = 2;
    opts.compaction.l0_compaction_trigger = 1;
}

/// The layered store and what the tests need to know about it.
struct Layered {
    /// Every key's visible value (`None`: deleted).
    model: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// SST files known to sit at L1.
    l1_files: BTreeSet<String>,
}

/// Builds a store of 600 keys over ≥ 2 levels below L0, overwritten in
/// part by an L1 rewrite and shadowed (puts and deletes) by one L0 file.
fn build_layered(t: &TestDb) -> Layered {
    let w = WriteOptions::default();
    let mut model = BTreeMap::new();
    let mut put = |db: &Db, i: usize, tag: &str| {
        let value = format!("{tag}-{i:04}-{}", "x".repeat(96)).into_bytes();
        db.put(&w, &layered_key(i), &value).unwrap();
        model.insert(layered_key(i), Some(value));
    };
    // Phase 1: a small L1 target pushes the data down several levels.
    {
        let handle = t.open_with(|o| layered_options(o, 16 << 10));
        for i in 0..600 {
            put(handle.db(), i, "v1");
        }
        handle.db().compact_all().unwrap();
    }
    let deep = t.sst_files();
    // Phase 2: overwrite every third key into L1; the large L1 target
    // keeps the compaction outputs there.
    {
        let handle = t.open_with(|o| {
            layered_options(o, 64 << 20);
            o.write_buffer_size = 1 << 20;
        });
        for i in (0..600).step_by(3) {
            put(handle.db(), i, "v2");
        }
        handle.db().compact_all().unwrap();
    }
    let l1_files: BTreeSet<String> = t.sst_files().difference(&deep).cloned().collect();
    // Phase 3: one L0 file shadowing every tenth key and deleting every
    // 25th (offset 5); a large memtable and trigger keep it a single L0
    // file.
    let handle = t.open_with(|o| {
        layered_options(o, 64 << 20);
        o.write_buffer_size = 1 << 20;
        o.compaction.l0_compaction_trigger = 8;
    });
    let db = handle.db();
    for i in (0..600).step_by(10) {
        put(db, i, "v3");
    }
    for i in (5..600).step_by(25) {
        db.delete(&w, &layered_key(i)).unwrap();
        model.insert(layered_key(i), None);
    }
    db.flush().unwrap();
    let levels = db.level_summary();
    assert_eq!(levels[0].0, 1, "expected one L0 file, got {levels:?}");
    assert!(
        levels[1..].iter().filter(|l| l.0 > 0).count() >= 2,
        "expected two or more levels below L0, got {levels:?}"
    );
    assert!(
        levels[1..].iter().map(|l| l.0).sum::<usize>() >= 4,
        "expected four or more files below L0, got {levels:?}"
    );
    assert!(levels[1].0 > 0 && !l1_files.is_empty(), "no L1 files: {levels:?}");
    Layered { model, l1_files }
}

/// The batch the layered tests query: keys from every layer, including
/// L0-shadowed, deleted, absent-in-range and out-of-range keys. At most
/// 16 keys, so one wave fits the default in-flight bound.
fn layered_batch() -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = (0..600).step_by(41).map(layered_key).collect();
    keys.push(b"k0300~".to_vec());
    keys.push(layered_key(9999));
    keys
}

/// Opens every table without admitting data blocks to the cache: gets of
/// absent keys between every pair of neighbours, around the cache.
fn open_all_tables(db: &Db) {
    let around = ReadOptions { snapshot_seq: None, fill_cache: false };
    for i in 0..600 {
        assert!(db.get(&around, format!("k{i:04}~").as_bytes()).unwrap().is_none());
    }
}

/// Serial gets of `keys` on a cold cache (tables open): the SST reads of
/// each get, in order. Also checks each value against `model`.
fn serial_reads(t: &TestDb, layered: &Layered, keys: &[Vec<u8>]) -> Vec<Vec<(String, u64)>> {
    let handle = t.open();
    let db = handle.db();
    open_all_tables(db);
    keys.iter()
        .map(|key| {
            t.rec.start();
            let got = db.get(&ReadOptions::new(), key).unwrap();
            let reads = t.rec.take();
            assert_eq!(&got, layered.model.get(key).unwrap_or(&None), "serial get {key:?}");
            reads
        })
        .collect()
}

/// A cold batch over a layered store reads exactly the blocks serial
/// gets read (same count, same `(file, offset)` set), and the first
/// wave's reads for different files are in flight together.
#[test]
fn cold_wave_reads_exactly_the_serial_blocks_concurrently() {
    for mode in MODES {
        let t = TestDb::new(mode);
        let layered = build_layered(&t);
        let keys = layered_batch();
        let per_key = serial_reads(&t, &layered, &keys);
        let mut serial: Vec<(String, u64)> = per_key.iter().flatten().cloned().collect();
        serial.sort();
        let first_wave: BTreeSet<&String> =
            per_key.iter().filter_map(|reads| reads.first()).map(|(f, _)| f).collect();
        assert!(first_wave.len() >= 2, "{mode:?}: first wave touches {first_wave:?}");

        let handle = t.open();
        let db = handle.db();
        open_all_tables(db);
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        t.rec.hold_for.store(first_wave.len(), Ordering::SeqCst);
        t.rec.start();
        let results = db.multi_get(&ReadOptions::new(), &refs);
        let mut batched = t.rec.take();
        t.rec.hold_for.store(0, Ordering::SeqCst);
        for (key, got) in keys.iter().zip(results) {
            assert_eq!(&got.unwrap(), layered.model.get(key).unwrap_or(&None), "{mode:?}: {key:?}");
        }
        batched.sort();
        assert_eq!(batched, serial, "{mode:?}: the batch read other blocks than serial gets");
        let peak = t.rec.peak_batches.load(Ordering::SeqCst);
        assert!(
            peak >= first_wave.len(),
            "{mode:?}: at most {peak} read_at_many calls overlapped; the first wave spans {} files",
            first_wave.len()
        );
    }
}

/// Failing every read of one L1 file errors exactly the keys whose
/// lookups reach that file; keys resolved at L0 or at other files keep
/// their values, and a retry after the fault clears matches serial gets.
#[test]
fn failing_one_l1_file_errors_only_the_keys_that_reach_it() {
    for mode in MODES {
        let t = TestDb::new(mode);
        let layered = build_layered(&t);
        let keys = layered_batch();
        let per_key = serial_reads(&t, &layered, &keys);
        // The L1 file that most keys read first.
        let mut first_reads: HashMap<&String, usize> = HashMap::new();
        for (file, _) in per_key.iter().filter_map(|reads| reads.first()) {
            if layered.l1_files.contains(file) {
                *first_reads.entry(file).or_default() += 1;
            }
        }
        let (&failing, _) = first_reads
            .iter()
            .max_by_key(|(f, n)| (**n, std::cmp::Reverse(**f)))
            .unwrap_or_else(|| panic!("{mode:?}: no key reads an L1 file first"));
        let reaches: Vec<bool> =
            per_key.iter().map(|reads| reads.iter().any(|(f, _)| f == failing)).collect();

        let handle = t.open();
        let db = handle.db();
        open_all_tables(db);
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        *t.rec.failing.lock().unwrap() = Some(failing.clone());
        let results = db.multi_get(&ReadOptions::new(), &refs);
        *t.rec.failing.lock().unwrap() = None;
        for ((key, result), &reached) in keys.iter().zip(&results).zip(&reaches) {
            if reached {
                assert!(result.is_err(), "{mode:?}: {key:?} reads {failing} but did not fail");
            } else {
                assert_eq!(
                    result.as_ref().unwrap_or_else(|e| panic!("{mode:?}: {key:?} failed: {e}")),
                    layered.model.get(key).unwrap_or(&None),
                    "{mode:?}: {key:?}"
                );
            }
        }
        assert!(db.background_error().is_none(), "{mode:?}: a read fault parked the engine");
        assert_batch_matches_serial(db, &ReadOptions::new(), &keys, "retry");
    }
}
