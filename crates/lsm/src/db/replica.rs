//! Live read replicas: a [`ReplicaDb`] tails a primary's manifest and WAL
//! through the incremental replay engine and serves snapshot-consistent
//! reads with a reportable staleness bound.
//!
//! The replica owns nothing on disk. It opens the primary's directory
//! through any [`shield_env::Env`] (a `MemEnv` for tests, `PosixEnv` for
//! a shared mount, [`shield_env::RemoteEnv`] for the paper's
//! disaggregated-storage topology) and runs a catch-up loop built
//! entirely from the replay engine's parts:
//!
//! * a [`ManifestTailer`] + [`EditApplier`] follow the CURRENT → MANIFEST
//!   chain, surviving torn tail edits (retried from the held offset) and
//!   MANIFEST rollovers (reset + snapshot re-apply);
//! * one [`WalTailer`] per live WAL segment replays committed batches into
//!   a private [`MemTable`], holding byte/fragment position across polls so
//!   a record torn mid-append is picked up once the primary finishes it.
//!
//! In SHIELD mode every file's DEK is resolved by DEK-ID through the
//! replica's **own** resolver ([`Options::encryption`]) — the paper's
//! metadata-enabled sharing path: the primary never ships key material,
//! and revoking the replica's KDS authorization locks it out.
//!
//! Reads go through the same `ReadView` as the primary's, over a block
//! cache and table cache built from the same [`Options`] the same way, so
//! a replica has the primary's read budget: block cache, open-table
//! limit, readahead and batched `multi_get`.
//!
//! ## Consistency model
//!
//! Reads serve a **prefix of the primary's committed history**. Each
//! catch-up round publishes an immutable `ReadView`; `get`/`multi_get`/
//! `scan` read one view, so a single operation never mixes rounds. The
//! published `seq` only covers records the replica actually holds with no
//! gaps: WAL segments are credited in file order and crediting stops at
//! the first segment whose tail was torn or unreadable, so a hole in
//! segment *N* hides everything replayed from segment *N + 1* (entries
//! above `seq` exist in the memtables but are sequence-filtered). The
//! manifest's `last_sequence` is credited only when every live segment
//! drained to a clean boundary — it counts records that may still sit in
//! the primary's (unsynced) WAL buffer, which no replica can serve.
//!
//! Staleness is the gap between that served sequence and the highest
//! sequence the replica has *observed* (WAL records parsed plus the
//! manifest's high-water mark): [`ReplicaDb::staleness`]. With
//! [`ReplicaOptions::max_staleness`] set, reads fail once the gap exceeds
//! the bound instead of silently serving stale data.
//!
//! A published view is up to one poll behind, so the primary's GC may
//! already have deleted an SST it names. A read that fails with
//! `NotFound` for such a file runs one catch-up round and retries on the
//! fresh view; the error surfaces only if the fresh view still names the
//! file.
//!
//! ## Warm before retire
//!
//! A round that is about to retire memtables (a flush edit advanced
//! `log_number` past them) first reads every data block of the level-0
//! files those flushes added into the block cache, in one batched fetch,
//! and only then drops the memtables and publishes the view. So a
//! published view does not send a read of records the replica held in
//! memory to cold storage. The warm takes at most half the cache: newest
//! files first, whole files only, so one flush larger than that, or a
//! lagging round that picks up many flushes, cannot displace everything
//! the replica had cached; a file left out is read on demand, as before.
//!
//! The cost is one batched read of each new L0 file per flush on the
//! replica's link. It runs beside the round's WAL drain, so it delays
//! the round's publish only by what it takes beyond that drain. It pays
//! off only when replica reads revisit keys written since the last
//! flushes; a replica whose reads miss them pays the read for nothing.
//! The scope is L0 flush outputs: compaction outputs are not warmed, the
//! round at open (which holds no memtable) warms nothing, and a replica
//! without a block cache skips it. Warming is best-effort: a block that
//! fails to read or verify is not admitted, the read that needs it
//! reports the error, and the replica is never poisoned by it. Warming
//! the primary's cache as it flushes (write-through) was measured and
//! rejected: it made the primary flush more often and took CPU from the
//! replica, whose mean get latency roughly doubled (DESIGN.md §4l).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use shield_core::JsonBuilder;

use crate::cache::BlockCache;
use crate::db::batch::WriteBatch;
use crate::db::options::Options;
use crate::db::view::{open_read_side, refresh_read_mirrors, ReadView};
use crate::error::{Error, Result};
use crate::iter::scan_range;
use crate::memtable::MemTable;
use crate::sst::FetchedBlock;
use crate::statistics::Statistics;
use crate::types::SequenceNumber;
use crate::version::table_cache::TableCache;
use crate::version::version::Version;
use crate::version::{
    parse_file_name, wal_file_name, EditApplier, FileType, ManifestPoll, ManifestTailer,
};
use crate::wal::{open_wal_tailer, TailEnd, TailPoll, WalTailer};

/// The `schema` field of [`ReplicaDb::metrics_json`].
pub const REPLICA_METRICS_SCHEMA: &str = "shield_replica_metrics_v1";

/// Tuning for a [`ReplicaDb`].
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// How often the background poller runs a catch-up round.
    pub poll_interval: Duration,
    /// Reads fail with [`Error::InvalidArgument`] once
    /// [`ReplicaDb::staleness`] exceeds this many records. `None` serves
    /// regardless of lag.
    pub max_staleness: Option<u64>,
    /// Start the background poll thread at open. Tests that want
    /// deterministic rounds set this to `false` and call
    /// [`ReplicaDb::catch_up`] themselves.
    pub auto_poll: bool,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            poll_interval: Duration::from_millis(10),
            max_staleness: None,
            auto_poll: true,
        }
    }
}

/// One live WAL segment being tailed, with the private memtable its
/// replayed batches land in.
struct WalSegment {
    number: u64,
    /// `None` until the file opens; a segment listed in the directory can
    /// race with primary-side deletion, so open failures stay transient.
    tailer: Option<WalTailer>,
    mem: Arc<MemTable>,
    /// Highest sequence replayed from this segment.
    max_seq: SequenceNumber,
    /// Whether the last drain ended at a clean record boundary. A torn
    /// (or unreadable) segment caps the served prefix at its `max_seq`.
    clean: bool,
}

/// Tailing state mutated by catch-up rounds, under one lock.
struct TailState {
    manifest: ManifestTailer,
    applier: EditApplier,
    /// Live segments in ascending WAL-number order.
    wals: Vec<WalSegment>,
    version_dirty: bool,
}

/// A live read replica over a primary's database directory.
///
/// See the [module docs](self) for the consistency model. Obtain one with
/// [`ReplicaDb::open`]; reads are [`ReplicaDb::get`],
/// [`ReplicaDb::multi_get`] and [`ReplicaDb::scan`].
pub struct ReplicaDb {
    /// The primary's read configuration: env, encryption, integrity and
    /// the read budget the caches below were built from.
    options: Options,
    path: String,
    opts: ReplicaOptions,
    block_cache: Option<Arc<BlockCache>>,
    table_cache: Arc<TableCache>,
    stats: Arc<Statistics>,
    tail: Mutex<TailState>,
    view: RwLock<Arc<ReadView>>,
    /// Mirror of the published view's sequence, for lock-free staleness.
    published_seq: AtomicU64,
    /// Highest sequence observed anywhere (WAL records parsed, manifest
    /// high-water mark) — the other half of the staleness bound.
    last_seen_seq: AtomicU64,
    /// A corruption or integrity violation poisons the replica: replay
    /// cannot continue past tampered bytes, so reads surface it too.
    fatal: Mutex<Option<Error>>,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    poller: Mutex<Option<JoinHandle<()>>>,
}

impl ReplicaDb {
    /// Opens a replica over `path` and runs the first catch-up round (so
    /// the returned replica already serves the primary's durable state).
    ///
    /// `options` is the primary's read configuration — env, encryption
    /// (with the replica's own DEK resolver in SHIELD mode), integrity
    /// mode and key, and the read budget (`block_cache_bytes`,
    /// `shared_block_cache`, `max_open_files`, `readahead_blocks`,
    /// `max_inflight_reads`, …). The replica's counters land in
    /// [`Options::statistics`]. Write-side settings are ignored.
    pub fn open(options: Options, path: &str, opts: ReplicaOptions) -> Result<Arc<Self>> {
        let stats = options.statistics.clone();
        let (block_cache, table_cache) = open_read_side(&options, path, None)?;
        let manifest = ManifestTailer::open(
            options.env.as_ref(),
            path,
            options.encryption.as_ref(),
            options.integrity_key,
        )?
        .with_sinks(Some(stats.clone()), None);
        let empty = ReadView::new(table_cache.clone(), Arc::new(Version::new()), Vec::new(), 0);
        let replica = Arc::new(ReplicaDb {
            options,
            path: path.to_string(),
            opts,
            block_cache,
            table_cache,
            stats,
            tail: Mutex::new(TailState {
                manifest,
                applier: EditApplier::new(),
                wals: Vec::new(),
                version_dirty: true,
            }),
            view: RwLock::new(Arc::new(empty)),
            published_seq: AtomicU64::new(0),
            last_seen_seq: AtomicU64::new(0),
            fatal: Mutex::new(None),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            poller: Mutex::new(None),
        });
        replica.catch_up()?;
        if replica.opts.auto_poll {
            replica.start_polling();
        }
        Ok(replica)
    }

    /// Spawns the background poll thread (idempotent). The thread holds a
    /// weak reference: dropping the last external handle ends it at the
    /// next tick without an explicit [`ReplicaDb::stop`].
    pub fn start_polling(self: &Arc<Self>) {
        let mut slot = self.poller.lock();
        if slot.is_some() {
            return;
        }
        let weak = Arc::downgrade(self);
        let interval = self.opts.poll_interval;
        *slot = Some(std::thread::spawn(move || loop {
            let Some(db) = weak.upgrade() else { break };
            // Transient errors retry next tick; fatal ones are sticky in
            // `self.fatal` and surface on reads, so the loop just idles.
            let _ = db.catch_up();
            let mut stop = db.stop.lock();
            if !*stop {
                db.stop_cv.wait_for(&mut stop, interval);
            }
            let done = *stop;
            drop(stop);
            drop(db);
            if done {
                break;
            }
        }));
    }

    /// Stops the background poller and waits for it to exit. Reads keep
    /// serving the last published view. Must not be called from the
    /// poller thread itself.
    pub fn stop(&self) {
        *self.stop.lock() = true;
        self.stop_cv.notify_all();
        let handle = self.poller.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Runs one catch-up round: drain new manifest edits (following
    /// rollovers), open any newly referenced WAL segments, replay their
    /// new records, and publish a fresh read view.
    ///
    /// Returns `true` when every tail (manifest and WALs) ended at a
    /// clean record boundary — the replica holds everything the primary
    /// has durably published. `false` means something was torn or still
    /// in flight; position is held and the next round retries.
    pub fn catch_up(&self) -> Result<bool> {
        if let Some(err) = self.fatal.lock().clone() {
            return Err(err);
        }
        let mut tail = self.tail.lock();
        let mut clean = true;
        // Level-0 files added by flush edits this round.
        let mut flushed: Vec<u64> = Vec::new();

        let env = self.options.env.as_ref();

        // 1. Manifest: fold new edits into the applier; a rollover resets
        // the file set for the new manifest's leading snapshot.
        loop {
            match tail.manifest.poll(env) {
                Ok(ManifestPoll::Edit(edit)) => {
                    // A flush adds L0 files and deletes none; compaction
                    // outputs (which delete their inputs) are not warmed.
                    if edit.deleted_files.is_empty() {
                        let l0 = edit.new_files.iter().filter(|(level, _)| *level == 0);
                        flushed.extend(l0.map(|(_, meta)| meta.number));
                    }
                    tail.applier.apply(&edit);
                    tail.version_dirty = true;
                    self.stats.replica_manifest_edits_applied.fetch_add(1, Ordering::Relaxed);
                }
                Ok(ManifestPoll::Rollover) => {
                    tail.applier.reset();
                    tail.version_dirty = true;
                    self.stats.replica_rollovers_followed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(ManifestPoll::Pending(end)) => {
                    clean &= end == TailEnd::Clean;
                    break;
                }
                Err(err) => {
                    self.fail_or_retry(err)?;
                    clean = false;
                    break;
                }
            }
        }

        // 2. Warm before retiring: a round about to drop memtables first
        // reads the flushed L0 files that replace them into the block
        // cache, so no published view sends a read of those records to
        // cold storage. The warm runs beside steps 3-5 (its reads and the
        // WAL drain's overlap on the link) and ends before step 7
        // publishes. The round at open holds no memtable and skips it.
        let log_number = tail.applier.log_number();
        let retiring = tail.wals.iter().any(|seg| seg.number < log_number);
        let warm = match &self.block_cache {
            Some(cache) if retiring && !flushed.is_empty() => {
                self.warm_set(&tail.applier.version(), &flushed, cache.capacity() / 2)
            }
            _ => Vec::new(),
        };
        clean &= std::thread::scope(|s| {
            if !warm.is_empty() {
                s.spawn(|| self.warm(&warm));
            }
            self.drain_wals(&mut tail, log_number)
        })?;

        // 6. Compute the served prefix. Segments are credited in file
        // order and crediting stops after the first torn/unreadable tail:
        // records replayed from later segments sit *above* that segment's
        // possible hole, so their memtables are withheld from the view
        // entirely (they stay in `tail.wals` and surface once the gap
        // heals). The manifest high-water mark counts only when every
        // segment is clean — it includes records that may still sit in
        // the primary's unsynced WAL buffer, which nothing can serve, so
        // crediting it then is label-only and cannot expose a gap.
        let mut served = 0u64;
        let mut intact = true;
        let mut visible = 0usize;
        for seg in &tail.wals {
            if intact {
                served = served.max(seg.max_seq);
                visible += 1;
            }
            intact &= seg.clean;
        }
        if intact {
            served = served.max(tail.applier.last_sequence());
        }
        let seen = served
            .max(tail.applier.last_sequence())
            .max(tail.wals.iter().map(|seg| seg.max_seq).max().unwrap_or(0))
            .max(self.last_seen_seq.load(Ordering::Relaxed));
        self.last_seen_seq.store(seen, Ordering::Relaxed);

        // 7. Publish the round's view; `seq` is monotonic. Tables the
        // new version dropped are deleted (or about to be) at the
        // primary: close them.
        {
            let mut view = self.view.write();
            let version = if tail.version_dirty {
                tail.version_dirty = false;
                let next = Arc::new(tail.applier.version());
                let live = next.live_files();
                for number in view.version().live_files() {
                    if !live.contains(&number) {
                        self.table_cache.evict(number);
                    }
                }
                next
            } else {
                view.version().clone()
            };
            let mems = tail.wals[..visible].iter().rev().map(|seg| seg.mem.clone()).collect();
            let seq = view.sequence().max(served);
            *view = Arc::new(ReadView::new(self.table_cache.clone(), version, mems, seq));
            self.published_seq.store(seq, Ordering::Relaxed);
        }

        self.stats.replica_polls.fetch_add(1, Ordering::Relaxed);
        if !clean {
            self.stats.replica_incomplete_tails.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .replica_lag_records
            .store(self.staleness(), Ordering::Relaxed);
        Ok(clean)
    }

    /// Steps 3-5 of a catch-up round: retire the segments a flush
    /// covered (every WAL below `log_number`), discover new ones, and
    /// drain each live segment into its memtable. Returns whether every
    /// segment ended at a clean record boundary.
    fn drain_wals(&self, tail: &mut TailState, log_number: u64) -> Result<bool> {
        let env = self.options.env.as_ref();
        let mut clean = true;

        // 3. Retire segments fully covered by flushed SSTs: a flush edit
        // advancing `log_number` to N certifies every WAL below N is in
        // the version, so dropping those memtables loses nothing.
        tail.wals.retain(|seg| seg.number >= log_number);

        // 4. Discover segments the primary created since the last round.
        match env.list_dir(&self.path) {
            Ok(names) => {
                let mut numbers: Vec<u64> = names
                    .iter()
                    .filter_map(|n| match parse_file_name(n) {
                        Some(FileType::Wal(num)) if num >= log_number => Some(num),
                        _ => None,
                    })
                    .collect();
                numbers.sort_unstable();
                for number in numbers {
                    if !tail.wals.iter().any(|seg| seg.number == number) {
                        tail.wals.push(WalSegment {
                            number,
                            tailer: None,
                            mem: Arc::new(MemTable::new(number)),
                            max_seq: 0,
                            clean: false,
                        });
                    }
                }
                tail.wals.sort_by_key(|seg| seg.number);
            }
            Err(_) => clean = false,
        }

        // 5. Drain every live segment in file order.
        for i in 0..tail.wals.len() {
            let seg = &mut tail.wals[i];
            if seg.tailer.is_none() {
                let wal_path = shield_env::join_path(&self.path, &wal_file_name(seg.number));
                match open_wal_tailer(
                    env,
                    &wal_path,
                    self.options.encryption.as_ref(),
                    self.options.integrity_key,
                ) {
                    Ok(tailer) => {
                        seg.tailer =
                            Some(tailer.with_sinks(seg.number, Some(self.stats.clone()), None));
                    }
                    Err(err) => {
                        // A listed-then-deleted segment races with the
                        // primary's GC; corruption is final either way.
                        self.fail_or_retry(err)?;
                        seg.clean = false;
                        clean = false;
                        continue;
                    }
                }
            }
            let Some(tailer) = seg.tailer.as_mut() else { continue };
            loop {
                match tailer.poll() {
                    Ok(TailPoll::Record(record)) => {
                        let batch = match WriteBatch::from_data(&record) {
                            Ok(batch) => batch,
                            Err(err) => {
                                self.fail_or_retry(err)?;
                                seg.clean = false;
                                clean = false;
                                break;
                            }
                        };
                        if let Err(err) = batch.insert_into(&seg.mem) {
                            self.fail_or_retry(err)?;
                            seg.clean = false;
                            clean = false;
                            break;
                        }
                        let last = batch.sequence() + u64::from(batch.count()).max(1) - 1;
                        seg.max_seq = seg.max_seq.max(last);
                        self.stats.replica_wal_records_applied.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(TailPoll::Pending(end)) => {
                        seg.clean = end == TailEnd::Clean;
                        clean &= seg.clean;
                        break;
                    }
                    Err(err) => {
                        self.fail_or_retry(err)?;
                        seg.clean = false;
                        clean = false;
                        break;
                    }
                }
            }
        }
        Ok(clean)
    }

    /// The files a round warms: the level-0 files this round's flush
    /// edits added (`flushed`) that the applier's version `live` still
    /// holds and the published view does not name, newest first, as many
    /// whole files as fit in `budget` bytes. A file's size bounds what its
    /// data blocks charge the cache, and the caller passes half the
    /// cache's capacity, so a warm never displaces more than half of what
    /// the replica had cached — however large one flush is against the
    /// cache, and however many flushes a lagging round picks up.
    fn warm_set(&self, live: &Version, flushed: &[u64], budget: usize) -> Vec<u64> {
        let named = self.view.read().version().live_files();
        let mut fresh: Vec<_> = live.files[0]
            .iter()
            .filter(|meta| flushed.contains(&meta.number) && !named.contains(&meta.number))
            .collect();
        fresh.sort_by_key(|meta| std::cmp::Reverse(meta.number));
        let mut left = budget as u64;
        fresh
            .into_iter()
            .map_while(|meta| {
                left = left.checked_sub(meta.file_size)?;
                Some(meta.number)
            })
            .collect()
    }

    /// Reads every data block of the level-0 files `numbers` into the
    /// block cache in one batched fetch: each table opens through the
    /// table cache (DEK, index and filter), then all their blocks go out
    /// together in rounds of [`Options::max_inflight_reads`], verified and
    /// admitted like any other read.
    ///
    /// Best-effort: a table that fails to open or a block that fails to
    /// read or verify is simply not admitted, and the read that later
    /// needs it reports the error. Nothing here goes through
    /// [`Self::fail_or_retry`], so a warm never poisons the replica.
    fn warm(&self, numbers: &[u64]) {
        let tables: Vec<_> =
            numbers.iter().filter_map(|&n| self.table_cache.get(n).ok()).collect();
        let requests: Vec<_> =
            tables.iter().filter_map(|t| t.data_block_requests().ok()).flatten().collect();
        let warmed = self
            .table_cache
            .fetcher()
            .get_many(&requests, true)
            .iter()
            .filter(|block| matches!(block, Ok(FetchedBlock::Cached(_))))
            .count();
        self.stats.replica_warmed_blocks.fetch_add(warmed as u64, Ordering::Relaxed);
    }

    /// Classifies a catch-up error: corruption and integrity violations
    /// poison the replica permanently (returned as `Err`); anything else
    /// (I/O, a primary-side race) is transient and retried next round.
    fn fail_or_retry(&self, err: Error) -> Result<()> {
        match err {
            Error::Corruption(_) | Error::IntegrityViolation(_) => {
                *self.fatal.lock() = Some(err.clone());
                Err(err)
            }
            _ => Ok(()),
        }
    }

    /// Returns the poisoning error, if replay hit one.
    fn check_fatal(&self) -> Result<()> {
        match self.fatal.lock().clone() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Enforces [`ReplicaOptions::max_staleness`] on the read path.
    fn check_fresh(&self) -> Result<()> {
        self.check_fatal()?;
        if let Some(bound) = self.opts.max_staleness {
            let lag = self.staleness();
            if lag > bound {
                return Err(Error::InvalidArgument(format!(
                    "replica {lag} records behind primary (bound {bound})"
                )));
            }
        }
        Ok(())
    }

    /// The sequence number reads currently serve at.
    #[must_use]
    pub fn sequence(&self) -> SequenceNumber {
        self.published_seq.load(Ordering::Relaxed)
    }

    /// Records observed at the primary (WAL tail + manifest high-water
    /// mark) but not yet served: the replica's staleness bound.
    #[must_use]
    pub fn staleness(&self) -> u64 {
        self.last_seen_seq
            .load(Ordering::Relaxed)
            .saturating_sub(self.published_seq.load(Ordering::Relaxed))
    }

    /// This replica's ticker set: `replica_*` counters and gauges, plus
    /// the read side's block-cache and batched-read mirrors (refreshed on
    /// each call).
    #[must_use]
    pub fn statistics(&self) -> Arc<Statistics> {
        refresh_read_mirrors(&self.stats, self.options.env.as_ref(), self.block_cache.as_deref());
        self.stats.clone()
    }

    /// Point lookup against the published view.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.read(|view| view.get(key, true))
    }

    /// Batched point lookup through the batched read path; every key
    /// reads the same published view.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        self.read(|view| view.multi_get(keys, true).into_iter().collect())
    }

    /// Range scan from `start` (inclusive), at most `limit` entries, over
    /// one published view.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.read(|view| scan_range(&mut view.iter()?, start, limit))
    }

    /// Runs `read` on the published view. If it fails with `NotFound` for
    /// an SST the view names (the primary's GC ran ahead of this
    /// replica), runs one catch-up round and retries on the fresh view —
    /// unless that view still names the file.
    fn read<T>(&self, read: impl Fn(&ReadView) -> Result<T>) -> Result<T> {
        self.check_fresh()?;
        let view = self.view.read().clone();
        let err = match read(&view) {
            Err(err) => err,
            ok => return ok,
        };
        let missing = match &err {
            Error::Io(shield_env::EnvError::NotFound(path)) => {
                match parse_file_name(path.rsplit('/').next().unwrap_or(path)) {
                    Some(FileType::Sst(number)) => number,
                    _ => return Err(err),
                }
            }
            _ => return Err(err),
        };
        let names = |view: &ReadView| view.version().live_files().contains(&missing);
        if !names(&view) {
            return Err(err);
        }
        self.catch_up()?;
        let fresh = self.view.read().clone();
        if names(&fresh) {
            return Err(err);
        }
        read(&fresh)
    }

    /// Replica health as one `shield_replica_metrics_v1` JSON object:
    /// served/observed sequences, the lag between them, and the replay
    /// engine's work counters.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let snapshot = self.stats.snapshot();
        let mut out = JsonBuilder::new();
        out.open_obj_item();
        out.field_str("schema", REPLICA_METRICS_SCHEMA);
        out.field_u64("last_applied_seq", self.sequence());
        out.field_u64("last_seen_seq", self.last_seen_seq.load(Ordering::Relaxed));
        out.field_u64("lag_records", self.staleness());
        out.field_u64("polls", snapshot.replica_polls);
        out.field_u64("manifest_edits_applied", snapshot.replica_manifest_edits_applied);
        out.field_u64("wal_records_applied", snapshot.replica_wal_records_applied);
        out.field_u64("rollovers_followed", snapshot.replica_rollovers_followed);
        out.field_u64("incomplete_tails", snapshot.replica_incomplete_tails);
        out.field_u64("warmed_blocks", snapshot.replica_warmed_blocks);
        out.close_obj();
        out.finish()
    }
}

impl Drop for ReplicaDb {
    fn drop(&mut self) {
        // The poller holds only a weak reference, so it cannot outlive
        // this drop by more than one tick; flag it anyway for promptness.
        *self.stop.lock() = true;
        self.stop_cv.notify_all();
    }
}
