//! The database: write path (group commit → WAL → memtable), read path
//! (memtables → levels, bloom + block cache), background flushes and
//! compactions, snapshots, iterators, and crash recovery.
//!
//! Encryption placement follows the paper exactly (§5.2): WAL bytes are
//! encrypted by the file layer just before persistence (optionally through
//! the §5.3 application buffer); memtables stay plaintext and flushes
//! encrypt at SST-build time; compaction outputs are chunk-encrypted and
//! always carry fresh DEKs, making compaction double as key rotation.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex};
use shield_core::{
    perf, trace, Event, EventDispatcher, InfoLog, JsonBuilder, LogConfig, MetricsWindow,
    PerfContext, PerfGuard, PerfMetric, SlowOp, SpanRecord, Tracer, WindowSample, WindowTracker,
};
use shield_env::{Env, FileKind};

use crate::cache::BlockCache;
use crate::compaction::{
    append_input_deletions, pick_compaction, plan_subcompactions, run_compaction,
    run_compaction_range, CompactionContext, CompactionOutcome, CompactionTask,
    SubcompactionRange,
};
use crate::db::batch::WriteBatch;
use crate::db::metrics::{LevelStats, MetricsReport, OpHistograms};
use crate::db::options::{Options, ReadOptions, WriteOptions};
use crate::db::pool::{JobClass, JobPool};
use crate::db::view::{open_read_side, refresh_read_mirrors, ReadView, ViewIterator};
use crate::obs::{EnvLogSink, LOG_FILE_NAME};
use crate::error::{Error, Result, Severity};
use crate::iter::{scan_range, InternalIterator, UserIterator};
use crate::memtable::MemTable;
use crate::sst::builder::{TableBuilder, TableBuilderOptions};
use crate::statistics::Statistics;
use crate::types::{make_internal_key, SequenceNumber, ValueType, MAX_SEQUENCE};
use crate::version::edit::{FileMeta, VersionEdit};
use crate::version::filenames::{parse_file_name, sst_file_name, wal_file_name, FileType};
use crate::version::table_cache::TableCache;
use crate::version::VersionSet;
use crate::wal::{LogWriter, TailPoll};

/// A queued subrange merge of an in-flight parallel compaction.
type Subtask = Box<dyn FnOnce() + Send>;

struct State {
    mem: Arc<MemTable>,
    imm: Vec<Arc<MemTable>>,
    wal: Option<LogWriter>,
    wal_number: u64,
    versions: VersionSet,
    flush_scheduled: bool,
    compaction_scheduled: bool,
    busy_files: HashSet<u64>,
    pending_outputs: HashSet<u64>,
    snapshots: std::collections::BTreeMap<u64, SequenceNumber>,
    next_snapshot_id: u64,
    bg_error: Option<Error>,
}

struct Pending {
    batch: WriteBatch,
    sync: bool,
    slot: Arc<Mutex<Option<Result<()>>>>,
}

struct DbInner {
    opts: Options,
    env: Arc<dyn Env>,
    path: String,
    table_cache: Arc<TableCache>,
    block_cache: Option<Arc<BlockCache>>,
    stats: Arc<Statistics>,
    state: Mutex<State>,
    /// Signaled whenever background work finishes (stall waits).
    work_cv: Condvar,
    /// Writers waiting to be committed by a group leader.
    commit_queue: Mutex<Vec<Pending>>,
    /// Held by the active group-commit leader.
    leader: Mutex<()>,
    /// Highest sequence visible to readers.
    last_published: AtomicU64,
    shutting_down: AtomicBool,
    /// Background worker pool. Owned by this database unless
    /// [`Options::job_pool`] supplied a shared one (sharded deployments:
    /// one pool serves every shard with flush-priority fair scheduling).
    pool: Arc<JobPool>,
    /// Self-reference so background jobs (closures on the pool) can keep
    /// the database alive while they run.
    weak_self: Weak<DbInner>,
    /// Jobs this database has submitted to the pool that have not finished.
    /// Shutdown waits for zero — the pool may be shared, so joining the
    /// worker threads is not an option.
    bg_pending: Mutex<usize>,
    bg_cv: Condvar,
    /// Pending subrange merges of the in-flight parallel compaction.
    /// Workers pop one per subcompaction claim token; the coordinating
    /// compaction thread drains whatever is left itself (work stealing),
    /// so the parallel path cannot deadlock even with a 1-thread pool.
    sub_queue: Mutex<std::collections::VecDeque<Subtask>>,
    /// In-engine per-op latency histograms (see `Db::metrics_report`).
    op_hists: OpHistograms,
    /// Fan-out for engine events; the `LOG` file is one of its listeners.
    events: Arc<EventDispatcher>,
    /// Flight recorder: span ring, slow-op ring, active-op registry.
    tracer: Arc<Tracer>,
    /// Windowed-stats differ plus the ring of recent finished windows.
    window: Mutex<WindowTracker>,
    /// Sleep/wake for the watchdog + stats ticker thread; shutdown
    /// notifies `ticker_cv` under `ticker_mu` so the thread exits
    /// promptly instead of finishing its tick.
    ticker_mu: Mutex<()>,
    ticker_cv: Condvar,
}

/// RAII pair for one traced operation. Field order matters: `op` drops
/// first, so the tracer's slow-op capture still sees the live
/// [`PerfContext`] the `perf` guard enables for the op's duration. Both
/// are `None` when tracing is disabled — the whole struct then costs one
/// atomic load per op.
struct TracedOp {
    _op: Option<shield_core::trace::OpGuard>,
    _perf: Option<PerfGuard>,
}

/// An LSM-KVS instance.
///
/// Cheap operations (`get`, `put`, `delete`, `write`, `iter`, `snapshot`)
/// take `&self` and are thread-safe. Dropping the handle shuts down
/// background work and flushes the WAL cleanly; use
/// [`Db::simulate_process_crash`] in tests that need a dirty exit.
pub struct Db {
    inner: Arc<DbInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    crash_on_drop: bool,
}

impl Db {
    /// Opens (creating or recovering) a database at `path`.
    pub fn open(opts: Options, path: &str) -> Result<Db> {
        let env = opts.env.clone();
        env.create_dir_all(path)?;
        let stats = opts.statistics.clone();

        // Event plumbing first, so recovery and the env itself can report.
        let events = Arc::new(EventDispatcher::new());
        for listener in &opts.event_listeners {
            events.add(listener.clone());
        }
        let log_config = opts.info_log.unwrap_or_else(|| {
            std::env::var("SHIELD_LOG")
                .map(|v| LogConfig::from_env_str(&v))
                .unwrap_or(LogConfig { level: Some(shield_core::LogLevel::Info), json: false })
        });
        if let Some(min_level) = log_config.level {
            let log_path = shield_env::join_path(path, LOG_FILE_NAME);
            let sink = EnvLogSink::create(env.as_ref(), &log_path)?;
            events.add(Arc::new(InfoLog::new(Box::new(sink), min_level, log_config.json)));
        }
        // Faults injected by a wrapping fault env surface in the same LOG.
        env.set_event_listener(events.clone());

        let tracer = Tracer::new(opts.trace_ring_spans, opts.slow_op_ring);
        tracer.set_enabled(opts.trace_ops);
        tracer.set_slow_op_threshold(opts.slow_op_threshold);
        tracer.set_listener(events.clone());

        let (block_cache, table_cache) = open_read_side(&opts, path, Some(events.clone()))?;
        let mut versions = VersionSet::new(
            env.clone(),
            path.to_string(),
            opts.encryption.clone(),
            table_cache.clone(),
        );
        versions.set_integrity(crate::integrity::IntegrityOptions {
            mode: opts.integrity,
            key: opts.integrity_key,
        });
        let exists = VersionSet::db_exists(env.as_ref(), path);
        if exists {
            if opts.error_if_exists {
                return Err(Error::InvalidArgument(format!("{path} already exists")));
            }
            versions.recover()?;
        } else {
            if !opts.create_if_missing {
                return Err(Error::Io(shield_env::EnvError::NotFound(path.to_string())));
            }
            versions.create_new()?;
        }

        let pool = opts
            .job_pool
            .clone()
            .unwrap_or_else(|| JobPool::new(opts.max_background_jobs));
        let inner = Arc::new_cyclic(|weak_self| DbInner {
            env: env.clone(),
            path: path.to_string(),
            table_cache,
            block_cache,
            stats,
            pool,
            weak_self: weak_self.clone(),
            bg_pending: Mutex::new(0),
            bg_cv: Condvar::new(),
            state: Mutex::new(State {
                mem: Arc::new(MemTable::new(0)),
                imm: Vec::new(),
                wal: None,
                wal_number: 0,
                versions,
                flush_scheduled: false,
                compaction_scheduled: false,
                busy_files: HashSet::new(),
                pending_outputs: HashSet::new(),
                snapshots: std::collections::BTreeMap::new(),
                next_snapshot_id: 1,
                bg_error: None,
            }),
            work_cv: Condvar::new(),
            commit_queue: Mutex::new(Vec::new()),
            leader: Mutex::new(()),
            last_published: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            sub_queue: Mutex::new(std::collections::VecDeque::new()),
            op_hists: OpHistograms::default(),
            events,
            tracer,
            window: Mutex::new(WindowTracker::default()),
            ticker_mu: Mutex::new(()),
            ticker_cv: Condvar::new(),
            opts,
        });

        let recovered_wals = inner.recover_wals()?;

        // Fresh WAL for new writes.
        {
            let mut state = inner.state.lock();
            let wal_number = state.versions.new_file_number();
            let writer = inner.new_wal(wal_number)?;
            state.wal = Some(writer);
            state.wal_number = wal_number;
            // Tag the (still empty) initial memtable with its real WAL so
            // obsolete-WAL computation is exact from the start.
            state.mem = Arc::new(MemTable::new(wal_number));
            let edit = VersionEdit { log_number: Some(wal_number), ..VersionEdit::default() };
            state.versions.log_and_apply(edit)?;
            let seq = state.versions.last_sequence();
            inner.last_published.store(seq, Ordering::Release);
            inner.delete_obsolete_files(&mut state);
        }

        // Background work runs on the (owned or shared) job pool; the only
        // thread this database spawns itself is the ticker.
        let mut threads = Vec::new();
        // Watchdog + windowed-stats ticker (only when either is on).
        if inner.opts.stats_dump_period.is_some()
            || (inner.opts.trace_ops && inner.opts.watchdog_deadline.is_some())
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || inner.ticker_loop()));
        }
        {
            let mut state = inner.state.lock();
            inner.maybe_schedule(&mut state);
        }
        inner
            .events
            .emit(&Event::DbOpen { path: path.to_string(), recovered_wals });
        Ok(Db { inner, threads, crash_on_drop: false })
    }

    /// Stores `value` under `key`.
    pub fn put(&self, wopts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(wopts, batch)
    }

    /// Deletes `key`.
    pub fn delete(&self, wopts: &WriteOptions, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(wopts, batch)
    }

    /// Applies a batch atomically. Concurrent writers are group-committed:
    /// the first to arrive becomes the leader, drains the queue, writes one
    /// combined WAL record, and applies everything to the memtable.
    pub fn write(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(Error::Shutdown);
        }
        let op_start = std::time::Instant::now();
        let single_op = batch.count() == 1;
        let _trace = self.inner.traced_op(if single_op { "put" } else { "write_batch" });
        let slot = Arc::new(Mutex::new(None));
        self.inner.commit_queue.lock().push(Pending {
            batch,
            sync: wopts.sync,
            slot: slot.clone(),
        });
        let leader_guard = self.inner.leader.lock();
        if let Some(result) = slot.lock().take() {
            // An earlier leader committed us while we waited.
            drop(leader_guard);
            self.record_write_latency(single_op, op_start);
            return result;
        }
        let group: Vec<Pending> = std::mem::take(&mut *self.inner.commit_queue.lock());
        debug_assert!(!group.is_empty());
        let result = self.inner.commit_group(&group);
        for p in &group {
            *p.slot.lock() = Some(result.clone());
        }
        drop(leader_guard);
        self.record_write_latency(single_op, op_start);
        result
    }

    /// Each writer records its own wall time (queue wait included):
    /// single-op batches land in the `put` histogram, larger ones in
    /// `write_batch`.
    fn record_write_latency(&self, single_op: bool, op_start: std::time::Instant) {
        if single_op {
            self.inner.op_hists.put.record_elapsed(op_start);
        } else {
            self.inner.op_hists.write_batch.record_elapsed(op_start);
        }
    }

    /// Point lookup at the latest state (or the snapshot in `ropts`).
    pub fn get(&self, ropts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _trace = self.inner.traced_op("get");
        let op_start = std::time::Instant::now();
        let result = self.get_impl(ropts, key);
        self.inner.op_hists.get.record_elapsed(op_start);
        if let Err(e) = &result {
            self.park_if_unrecoverable(e);
        }
        result
    }

    /// Fail-stop on unrecoverable foreground read errors: an integrity
    /// violation (or corruption) seen by a get/scan parks the sticky
    /// background error so writes stop too — compaction must never
    /// launder data the read path already refused to serve.
    fn park_if_unrecoverable(&self, e: &Error) {
        if e.severity() == Severity::Unrecoverable {
            let mut state = self.inner.state.lock();
            if state.bg_error.is_none() {
                self.inner.set_bg_error(&mut state, "read", e.clone());
            }
        }
    }

    fn get_impl(&self, ropts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.stats.gets.fetch_add(1, Ordering::Relaxed);
        let value = self.inner.read_view(ropts).get(key, ropts.fill_cache)?;
        if value.is_some() {
            self.inner.stats.gets_found.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// Batched point lookup: one result slot per key, each equivalent to
    /// [`Db::get`] at the same snapshot. Memtables are probed per key
    /// (they are in memory anyway); keys that miss are resolved against
    /// the current version in waves, each wave reading every unresolved
    /// key's next block across all files at once, so a cold batch pays a
    /// round trip per wave instead of one per key or per file, and reads
    /// exactly the blocks the serial gets would. Errors are per-slot: a
    /// fault on one key's block never corrupts its neighbors.
    pub fn multi_get(&self, ropts: &ReadOptions, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>>> {
        let _trace = self.inner.traced_op("multi_get");
        let op_start = std::time::Instant::now();
        let results = self.multi_get_impl(ropts, keys);
        self.inner.op_hists.multi_get.record_elapsed(op_start);
        for r in &results {
            if let Err(e) = r {
                self.park_if_unrecoverable(e);
            }
        }
        results
    }

    fn multi_get_impl(&self, ropts: &ReadOptions, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>>> {
        self.inner.stats.multi_gets.fetch_add(1, Ordering::Relaxed);
        let results = self.inner.read_view(ropts).multi_get(keys, ropts.fill_cache);
        let found = results.iter().filter(|r| matches!(r, Ok(Some(_)))).count();
        self.inner.stats.gets_found.fetch_add(found as u64, Ordering::Relaxed);
        results
    }

    /// Creates a consistent point-in-time snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut state = self.inner.state.lock();
        let id = state.next_snapshot_id;
        state.next_snapshot_id += 1;
        let seq = self.inner.last_published.load(Ordering::Acquire);
        state.snapshots.insert(id, seq);
        Snapshot { inner: self.inner.clone(), id, seq }
    }

    /// An iterator over live keys, visible at the latest state (or the
    /// snapshot in `ropts`).
    pub fn iter(&self, ropts: &ReadOptions) -> Result<DbIterator> {
        Ok(DbIterator { view: self.inner.read_view(ropts).iter()?, db: self.inner.clone() })
    }

    /// Range scan: up to `limit` live `(key, value)` pairs with
    /// `key >= start`.
    pub fn scan(&self, ropts: &ReadOptions, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut it = self.iter(ropts)?;
        scan_range(&mut it, start, limit).inspect_err(|e| self.park_if_unrecoverable(e))
    }

    /// Forces the active memtable to flush and waits until no immutable
    /// memtables remain.
    pub fn flush(&self) -> Result<()> {
        {
            // Rotate under the leader lock so we never race a commit.
            let _leader = self.inner.leader.lock();
            let mut state = self.inner.state.lock();
            if !state.mem.is_empty() {
                self.inner.switch_memtable(&mut state)?;
                self.inner.maybe_schedule(&mut state);
            }
        }
        let mut state = self.inner.state.lock();
        while !state.imm.is_empty() && state.bg_error.is_none() {
            self.inner.work_cv.wait(&mut state);
        }
        state.bg_error.clone().map_or(Ok(()), Err)
    }

    /// Blocks until no flush or compaction work remains.
    pub fn wait_for_background_work(&self) -> Result<()> {
        let mut state = self.inner.state.lock();
        loop {
            if let Some(e) = &state.bg_error {
                return Err(e.clone());
            }
            let more = !state.imm.is_empty()
                || state.flush_scheduled
                || state.compaction_scheduled
                || pick_compaction(&state.versions.current(), &self.inner.opts.compaction)
                    .is_some();
            if !more {
                return Ok(());
            }
            self.inner.maybe_schedule(&mut state);
            self.inner.work_cv.wait(&mut state);
        }
    }

    /// Flushes everything and compacts until the picker finds no work.
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        self.wait_for_background_work()
    }

    /// Engine counters. Mirrored tickers (fault-injection counts from
    /// the env, block-cache hit/miss totals) and gauges are refreshed on
    /// each call.
    #[must_use]
    pub fn statistics(&self) -> Arc<Statistics> {
        self.inner.refresh_stat_mirrors();
        self.inner.stats.clone()
    }

    /// Slow operations captured so far (oldest first): every op whose
    /// wall time crossed [`Options::slow_op_threshold`], with its full
    /// span tree and [`PerfContext`] breakdown.
    #[must_use]
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.inner.tracer.slow_ops()
    }

    /// Best-effort snapshot of the flight recorder's span ring, oldest
    /// first. Empty unless [`Options::trace_ops`] is set.
    #[must_use]
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.inner.tracer.recent_spans()
    }

    /// Recent windowed-stats intervals (oldest first), populated every
    /// [`Options::stats_dump_period`].
    #[must_use]
    pub fn metrics_windows(&self) -> Vec<MetricsWindow> {
        self.inner.window.lock().recent()
    }

    /// One JSON document with everything needed to debug the engine:
    /// the full metrics report, recent stats windows, the slow-op ring,
    /// the recent span ring, and the tail of the `LOG` file.
    #[must_use]
    pub fn debug_bundle(&self) -> String {
        const LOG_TAIL_BYTES: usize = 16 * 1024;
        let metrics = self.metrics_report().to_json();
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_str("schema", "shield_debug_bundle_v1");
        j.field_raw("metrics", &metrics);
        j.open_arr("windows");
        for w in self.inner.window.lock().recent() {
            w.push_json(&mut j);
        }
        j.close_arr();
        j.open_arr("slow_ops");
        for s in self.inner.tracer.slow_ops() {
            s.push_json(&mut j);
        }
        j.close_arr();
        j.open_arr("trace_spans");
        for s in self.inner.tracer.recent_spans() {
            s.push_json(&mut j);
        }
        j.close_arr();
        let log_path = shield_env::join_path(&self.inner.path, LOG_FILE_NAME);
        let tail = shield_env::read_file_to_vec(
            self.inner.env.as_ref(),
            &log_path,
            FileKind::Other,
        )
        .ok()
        .map(|bytes| {
            let start = bytes.len().saturating_sub(LOG_TAIL_BYTES);
            String::from_utf8_lossy(&bytes[start..]).into_owned()
        })
        .unwrap_or_default();
        j.field_str("log_tail", &tail);
        j.close_obj();
        j.finish()
    }

    /// The engine's event dispatcher. Listeners added here (or via
    /// [`Options::event_listeners`]) receive every [`Event`]; the `LOG`
    /// file in the DB directory is itself one such listener.
    #[must_use]
    pub fn events(&self) -> Arc<EventDispatcher> {
        self.inner.events.clone()
    }

    /// Runs `f` with this thread's [`PerfContext`] enabled and returns
    /// `f`'s result together with the timing breakdown it accumulated.
    ///
    /// ```ignore
    /// let (value, perf) = db.with_perf_context(|db| db.get(&ropts, b"k"));
    /// assert!(perf.block_read_nanos + perf.block_decrypt_nanos <= wall_nanos);
    /// ```
    pub fn with_perf_context<R>(&self, f: impl FnOnce(&Self) -> R) -> (R, PerfContext) {
        let guard = PerfGuard::enable();
        let result = f(self);
        let ctx = perf::current();
        drop(guard);
        (result, ctx)
    }

    /// One structured report of everything the engine measures: per-level
    /// shape, write/read amplification, per-op latency quantiles, and all
    /// tickers. See [`MetricsReport::to_json`] for the stable schema.
    #[must_use]
    pub fn metrics_report(&self) -> MetricsReport {
        let stats = self.statistics(); // refreshes gauge mirrors
        let snap = stats.snapshot();
        let per_level = self.level_summary();
        let levels: Vec<LevelStats> = per_level
            .iter()
            .enumerate()
            .filter(|(l, (files, _))| *l == 0 || *files > 0)
            .map(|(l, &(files, bytes))| LevelStats { level: l, files, bytes })
            .collect();
        let bytes_to_storage = snap.flush_bytes + snap.compaction_bytes_written;
        let write_amplification = bytes_to_storage as f64 / (snap.wal_bytes.max(1)) as f64;
        let l0_files = per_level.first().map_or(0, |&(f, _)| f as u64);
        let deeper_nonempty =
            per_level.iter().skip(1).filter(|&&(files, _)| files > 0).count() as u64;
        MetricsReport {
            levels,
            write_amplification,
            read_amplification: l0_files + deeper_nonempty,
            latencies: self.inner.op_hists.summaries(),
            tickers: snap,
            windows: self.inner.window.lock().recent(),
        }
    }

    /// Per-op latency histograms, for cross-shard aggregation by the
    /// sharded router.
    pub(crate) fn op_histograms(&self) -> &OpHistograms {
        &self.inner.op_hists
    }

    /// The sticky background error, if any. While set, writes are refused
    /// but reads keep serving; [`Db::resume`] clears recoverable errors.
    #[must_use]
    pub fn background_error(&self) -> Option<Error> {
        self.inner.state.lock().bg_error.clone()
    }

    /// Clears a recoverable background error and re-drives the pending
    /// work, blocking until the backlog drains (mirrors RocksDB's
    /// `DB::Resume`).
    ///
    /// * No background error: returns `Ok(())` immediately.
    /// * Soft/hard error: the error is cleared, flush/compaction are
    ///   rescheduled, and the call returns the result of that re-run —
    ///   `Ok(())` if the cause (e.g. an injected fault, a KDS outage) has
    ///   been fixed, or the fresh error if it has not.
    /// * Unrecoverable error (corruption): nothing is cleared and the
    ///   error is returned.
    pub fn resume(&self) -> Result<()> {
        {
            let mut state = self.inner.state.lock();
            let Some(e) = state.bg_error.clone() else {
                return Ok(());
            };
            if e.severity() == Severity::Unrecoverable {
                return Err(e);
            }
            state.bg_error = None;
            self.inner.stats.resumes.fetch_add(1, Ordering::Relaxed);
            self.inner.events.emit(&Event::Resume);
            self.inner.maybe_schedule(&mut state);
        }
        self.inner.work_cv.notify_all();
        self.wait_for_background_work()
    }

    /// Walks every live SST file, re-reading and checksum-verifying every
    /// block (through decryption when encrypted) and cross-checking entry
    /// counts against the properties block. Returns per-database totals.
    pub fn verify_integrity(&self) -> Result<IntegrityReport> {
        let version = {
            let state = self.inner.state.lock();
            state.versions.current()
        };
        let mut report = IntegrityReport::default();
        for number in version.live_files() {
            let table = self.inner.table_cache.get(number)?;
            let mut it = table.iter();
            it.seek_to_first();
            let mut entries = 0u64;
            let mut prev: Option<Vec<u8>> = None;
            while it.valid() {
                let key = it.key().to_vec();
                if let Some(p) = &prev {
                    if crate::types::internal_key_cmp(p, &key) != std::cmp::Ordering::Less {
                        return Err(Error::Corruption(format!(
                            "file {number}: keys out of order"
                        )));
                    }
                }
                prev = Some(key);
                entries += 1;
                it.next();
            }
            it.status()?;
            let expected = table.properties().num_entries;
            if entries != expected {
                return Err(Error::Corruption(format!(
                    "file {number}: {entries} entries, properties claim {expected}"
                )));
            }
            report.files += 1;
            report.entries += entries;
            report.bytes += version
                .files
                .iter()
                .flatten()
                .find(|f| f.number == number)
                .map_or(0, |f| f.file_size);
        }
        Ok(report)
    }

    /// `(files, bytes)` per level, for reporting.
    #[must_use]
    pub fn level_summary(&self) -> Vec<(usize, u64)> {
        let state = self.inner.state.lock();
        let v = state.versions.current();
        (0..v.files.len()).map(|l| (v.level_files(l), v.level_size(l))).collect()
    }

    /// Block-cache `(hits, misses)`.
    #[must_use]
    pub fn cache_hit_miss(&self) -> (u64, u64) {
        self.inner.block_cache.as_ref().map_or((0, 0), |c| c.hit_miss())
    }

    /// The database directory.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.inner.path
    }

    /// Highest sequence number visible to readers.
    #[must_use]
    pub fn last_sequence(&self) -> SequenceNumber {
        self.inner.last_published.load(Ordering::Acquire)
    }

    /// Drops the handle *without* the clean-shutdown WAL flush, simulating
    /// a process crash: anything still in application buffers (including
    /// SHIELD's WAL encryption buffer) is lost, exactly the §5.3 trade-off.
    pub fn simulate_process_crash(mut self) {
        self.crash_on_drop = true;
    }

    fn shutdown(&mut self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        // Wake the ticker so it observes the flag now, not a tick later.
        {
            let _g = self.inner.ticker_mu.lock();
            self.inner.ticker_cv.notify_all();
        }
        {
            let mut state = self.inner.state.lock();
            self.inner.work_cv.notify_all();
            if let Some(mut w) = state.wal.take() {
                if !self.crash_on_drop {
                    let _ = w.sync();
                }
            }
        }
        // Drain this database's background jobs. The pool may be shared
        // with other databases, so its worker threads cannot be joined —
        // each database instead waits for its own submissions to finish
        // (`shutting_down` stops new ones from being scheduled).
        {
            let mut pending = self.inner.bg_pending.lock();
            while *pending > 0 {
                self.inner.bg_cv.wait(&mut pending);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.inner.events.emit(&Event::DbClose { path: self.inner.path.clone() });
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl DbInner {
    /// Creates a new WAL file (encrypted, with the §5.3 buffer, when
    /// SHIELD is enabled).
    fn new_wal(&self, number: u64) -> Result<LogWriter> {
        let path = shield_env::join_path(&self.path, &wal_file_name(number));
        let (file, dek_mac) = match &self.opts.encryption {
            Some(cfg) => {
                let (f, _, mac) = cfg.new_writable_with_mac(self.env.as_ref(), &path, FileKind::Wal)?;
                (f, mac)
            }
            None => (self.env.new_writable_file(&path, FileKind::Wal)?, None),
        };
        // Under Hmac, tag WAL records with the file DEK's subkey, or the
        // engine key when the WAL is plaintext.
        let mac_key = (self.opts.integrity == crate::integrity::Integrity::Hmac)
            .then(|| dek_mac.unwrap_or(self.opts.integrity_key));
        LogWriter::with_integrity(file, mac_key)
    }

    /// Starts a traced (and perf-contexted) op if the flight recorder is
    /// on. Disabled cost: one atomic load.
    fn traced_op(&self, name: &'static str) -> TracedOp {
        let op = self.tracer.start_op(name);
        // Enable a PerfContext for the op so a slow-op capture carries
        // the breakdown — unless the caller already holds one (e.g.
        // `with_perf_context`), whose accumulation we must not reset.
        let perf = if op.is_some() && !perf::enabled() {
            Some(PerfGuard::enable())
        } else {
            None
        };
        TracedOp { _op: op, _perf: perf }
    }

    fn refresh_stat_mirrors(&self) {
        refresh_read_mirrors(&self.stats, self.env.as_ref(), self.block_cache.as_deref());
    }

    /// The read view at `ropts`' snapshot (or the latest published
    /// sequence) over the live memtables and current version.
    fn read_view(&self, ropts: &ReadOptions) -> ReadView {
        let seq = ropts.snapshot_seq.unwrap_or_else(|| self.last_published.load(Ordering::Acquire));
        let state = self.state.lock();
        let mems = std::iter::once(&state.mem).chain(state.imm.iter().rev()).cloned().collect();
        ReadView::new(self.table_cache.clone(), state.versions.current(), mems, seq)
    }

    /// Watchdog + windowed-stats ticker loop. The tick is the finer of
    /// the stats period and half the watchdog deadline, so a pinned op
    /// is flagged within ~1.5x its deadline.
    fn ticker_loop(&self) {
        let stats_period = self.opts.stats_dump_period;
        let deadline = self.opts.watchdog_deadline.filter(|_| self.opts.trace_ops);
        let min_tick = std::time::Duration::from_millis(1);
        let tick = match (stats_period, deadline) {
            (Some(p), Some(d)) => p.min(d / 2).max(min_tick),
            (Some(p), None) => p.max(min_tick),
            (None, Some(d)) => (d / 2).max(min_tick),
            (None, None) => return,
        };
        let mut next_stats = stats_period.map(|p| std::time::Instant::now() + p);
        loop {
            {
                let mut g = self.ticker_mu.lock();
                if self.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                self.ticker_cv.wait_for(&mut g, tick);
            }
            if self.shutting_down.load(Ordering::Acquire) {
                return;
            }
            if let Some(d) = deadline {
                self.check_watchdog(d);
            }
            if let (Some(p), Some(at)) = (stats_period, next_stats.as_mut()) {
                if std::time::Instant::now() >= *at {
                    *at = std::time::Instant::now() + p;
                    self.roll_stats_window();
                }
            }
        }
    }

    /// Flags traced ops pinned past `deadline` — once each, with their
    /// live span stack.
    fn check_watchdog(&self, deadline: std::time::Duration) {
        let deadline_nanos = deadline.as_nanos() as u64;
        for op in self.tracer.active_ops() {
            if op.elapsed_nanos() >= deadline_nanos && op.flag_watchdog() {
                self.events.emit(&Event::Watchdog {
                    op: op.op(),
                    trace_id: op.trace_id(),
                    elapsed_micros: op.elapsed_nanos() / 1_000,
                    deadline_micros: deadline.as_micros() as u64,
                    stack: op.live_stack().join(" > "),
                });
            }
        }
    }

    /// Rolls one windowed-stats interval: refresh mirrors, diff the
    /// cumulative counters, derive interval rates, log, and store.
    fn roll_stats_window(&self) {
        self.refresh_stat_mirrors();
        let snap = self.stats.snapshot();
        let sample = WindowSample {
            at: std::time::Instant::now(),
            unix_micros: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            counters: snap.counters(),
        };
        let Some(mut w) = self.window.lock().diff(sample) else { return };
        let secs = (w.duration_micros as f64 / 1e6).max(1e-9);
        let writes_per_sec = w.delta("writes").unwrap_or(0) as f64 / secs;
        let reads = w.delta("gets").unwrap_or(0) + w.delta("multi_gets").unwrap_or(0);
        let reads_per_sec = reads as f64 / secs;
        let hits = w.delta("block_cache_hits").unwrap_or(0);
        let lookups = hits + w.delta("block_cache_misses").unwrap_or(0);
        let cache_hit_ratio = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        let stall_fraction = (w.delta("stall_micros").unwrap_or(0) as f64
            / w.duration_micros.max(1) as f64)
            .min(1.0);
        w.rates.push(("writes_per_sec", writes_per_sec));
        w.rates.push(("reads_per_sec", reads_per_sec));
        w.rates.push(("cache_hit_ratio", cache_hit_ratio));
        w.rates.push(("stall_fraction", stall_fraction));
        self.events.emit(&Event::StatsWindow {
            seq: w.seq,
            duration_micros: w.duration_micros,
            writes_per_sec,
            reads_per_sec,
            cache_hit_ratio,
            stall_fraction,
        });
        self.window.lock().store(w);
    }

    /// Group-commit body, run by the leader.
    fn commit_group(&self, group: &[Pending]) -> Result<()> {
        let mut span = trace::span("group_commit");
        span.attr("batches", group.len() as u64);
        let mut combined = if group.len() == 1 {
            group[0].batch.clone()
        } else {
            let mut c = WriteBatch::new();
            for p in group {
                c.append(&p.batch);
            }
            c
        };
        let count = u64::from(combined.count());
        if count == 0 {
            return Ok(());
        }
        let sync = self.opts.wal_sync_writes || group.iter().any(|p| p.sync);

        let (mem, mut wal, base) = {
            let mut state = self.state.lock();
            self.make_room_for_write(&mut state)?;
            let base = state.versions.last_sequence() + 1;
            state.versions.set_last_sequence(base + count - 1);
            (state.mem.clone(), state.wal.take(), base)
        };
        combined.set_sequence(base);

        let mut wal_result: Result<()> = Ok(());
        if !self.opts.disable_wal {
            if let Some(w) = wal.as_mut() {
                wal_result = w
                    .add_record(combined.data())
                    .and_then(|()| w.flush())
                    .and_then(|()| if sync { w.sync() } else { Ok(()) });
                if wal_result.is_ok() {
                    self.stats
                        .wal_bytes
                        .fetch_add(combined.data().len() as u64, Ordering::Relaxed);
                    if sync {
                        self.stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if wal_result.is_ok() {
            let t = perf::timer();
            let insert_result = combined.insert_into(&mem);
            perf::add_elapsed(PerfMetric::MemtableInsert, t);
            insert_result?;
            self.last_published.store(base + count - 1, Ordering::Release);
            self.stats.writes.fetch_add(count, Ordering::Relaxed);
            self.stats.write_groups.fetch_add(1, Ordering::Relaxed);
        }
        // Return the WAL even on failure; the writer stays usable for
        // later rotation.
        self.state.lock().wal = wal;
        wal_result
    }

    /// Ensures the active memtable has room, rotating and stalling as
    /// needed. Called by the commit leader with the state lock held.
    fn make_room_for_write(&self, state: &mut parking_lot::MutexGuard<'_, State>) -> Result<()> {
        let mut slowed_down = false;
        loop {
            if let Some(e) = &state.bg_error {
                return Err(e.clone());
            }
            if self.shutting_down.load(Ordering::Acquire) {
                return Err(Error::Shutdown);
            }
            let l0 = state.versions.current().level_files(0);
            // FIFO keeps its entire dataset in L0 by design; L0 file-count
            // backpressure does not apply (as in RocksDB).
            let l0_backpressure =
                self.opts.compaction.style != crate::compaction::CompactionStyle::Fifo;
            if l0_backpressure
                && !slowed_down
                && l0 >= self.opts.l0_slowdown_trigger
                && l0 < self.opts.l0_stop_trigger
            {
                // Gentle backpressure: sleep once outside the lock.
                slowed_down = true;
                self.stats.write_stalls.fetch_add(1, Ordering::Relaxed);
                self.events
                    .emit(&Event::WriteStall { reason: "l0_slowdown", l0_files: l0 as u64 });
                let t0 = std::time::Instant::now();
                parking_lot::MutexGuard::unlocked(state, || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
                self.stats
                    .stall_micros
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                continue;
            }
            if state.mem.approximate_memory_usage() < self.opts.write_buffer_size {
                return Ok(());
            }
            if state.imm.len() >= self.opts.max_immutable_memtables
                || (l0_backpressure
                    && l0 >= self.opts.l0_stop_trigger
                    && pick_compaction(&state.versions.current(), &self.opts.compaction)
                        .is_some())
            {
                // Hard stall until background work catches up. An L0 pile-up
                // that no compaction can reduce (e.g. compaction disabled by
                // configuration) must not stall forever.
                self.stats.write_stalls.fetch_add(1, Ordering::Relaxed);
                self.events.emit(&Event::WriteStall { reason: "stop", l0_files: l0 as u64 });
                let t0 = std::time::Instant::now();
                self.maybe_schedule(state);
                self.work_cv.wait(state);
                self.stats
                    .stall_micros
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                continue;
            }
            self.switch_memtable(state)?;
            self.maybe_schedule(state);
        }
    }

    /// Moves the active memtable to the immutable list and starts a fresh
    /// memtable + WAL.
    fn switch_memtable(&self, state: &mut parking_lot::MutexGuard<'_, State>) -> Result<()> {
        let new_number = state.versions.new_file_number();
        let new_wal = self.new_wal(new_number)?;
        if let Some(mut old) = state.wal.take() {
            // Drain any buffered (possibly still-unencrypted) bytes; the
            // old WAL must be complete before its memtable is flushable.
            old.sync()?;
        }
        let old_mem = std::mem::replace(
            &mut state.mem,
            Arc::new(MemTable::new(new_number)),
        );
        // Re-tag the new memtable with the WAL that backs it.
        state.imm.push(old_mem);
        state.wal = Some(new_wal);
        state.wal_number = new_number;
        Ok(())
    }

    /// Submits a background job to the pool, tracked in `bg_pending` so
    /// shutdown can drain this database's work without joining the
    /// (possibly shared) pool threads. The closure receives a strong
    /// self-reference; the pending count is decremented *after* that
    /// reference drops, so shutdown never races a job still holding one.
    fn submit_job(&self, class: JobClass, f: impl FnOnce(&Arc<DbInner>) + Send + 'static) {
        let Some(me) = self.weak_self.upgrade() else { return };
        *self.bg_pending.lock() += 1;
        self.pool.spawn(
            class,
            Box::new(move || {
                f(&me);
                let mut pending = me.bg_pending.lock();
                *pending -= 1;
                if *pending == 0 {
                    me.bg_cv.notify_all();
                }
                drop(pending);
                // If this was the last strong reference, DbInner (and
                // possibly the pool itself) drops here on a worker
                // thread; JobPool::drop handles the self-join.
                drop(me);
            }),
        );
    }

    /// Schedules flush/compaction work if warranted. State lock held.
    fn maybe_schedule(&self, state: &mut State) {
        if self.shutting_down.load(Ordering::Acquire) || state.bg_error.is_some() {
            return;
        }
        if !state.flush_scheduled && !state.imm.is_empty() {
            state.flush_scheduled = true;
            self.submit_job(JobClass::Flush, |inner| inner.background_flush());
        }
        if !state.compaction_scheduled {
            if let Some(task) =
                pick_compaction(&state.versions.current(), &self.opts.compaction)
            {
                if !self.task_conflicts(state, &task) {
                    state.compaction_scheduled = true;
                    self.submit_job(JobClass::General, |inner| inner.background_compaction());
                }
            }
        }
    }

    fn task_conflicts(&self, state: &State, task: &CompactionTask) -> bool {
        let files: Vec<u64> = match task {
            CompactionTask::Merge { inputs, overlaps, .. } => inputs
                .iter()
                .chain(overlaps.iter())
                .map(|f| f.number)
                .collect(),
            CompactionTask::FifoTrim { files } => files.iter().map(|f| f.number).collect(),
        };
        files.iter().any(|n| state.busy_files.contains(n))
    }

    /// Builds an L0 table from a memtable. Runs without the state lock.
    fn write_level0_table(&self, mem: &MemTable, number: u64) -> Result<FileMeta> {
        let path = shield_env::join_path(&self.path, &sst_file_name(number));
        let (file, dek_id, dek_mac) = match &self.opts.encryption {
            Some(cfg) => {
                let (f, id, mac) = cfg.new_writable_with_mac(self.env.as_ref(), &path, FileKind::Sst)?;
                (f, Some(id), mac)
            }
            None => (self.env.new_writable_file(&path, FileKind::Sst)?, None, None),
        };
        let opts = TableBuilderOptions {
            block_size: self.opts.block_size,
            restart_interval: self.opts.restart_interval,
            bloom_bits_per_key: self.opts.bloom_bits_per_key,
            dek_id,
            mac_key: (self.opts.integrity == crate::integrity::Integrity::Hmac)
                .then(|| dek_mac.unwrap_or(self.opts.integrity_key)),
        };
        let mut builder = TableBuilder::new(file, opts);
        let mut it = mem.iter();
        it.seek_to_first();
        while it.valid() {
            builder.add(it.key(), it.value())?;
            InternalIterator::next(&mut it);
        }
        let (props, size) = builder.finish()?;
        self.stats.flush_bytes.fetch_add(size, Ordering::Relaxed);
        self.stats.sst_files_created.fetch_add(1, Ordering::Relaxed);
        Ok(FileMeta {
            number,
            file_size: size,
            smallest: make_internal_key(&props.smallest_user_key, MAX_SEQUENCE, ValueType::Value),
            largest: make_internal_key(&props.largest_user_key, 0, ValueType::Deletion),
            dek_id: props.dek_id,
        })
    }

    /// Runs `f`, retrying soft (transient) failures with capped
    /// exponential backoff up to `max_background_retries` times. Hard and
    /// unrecoverable errors are returned immediately. `job` labels the
    /// retry/error events in the LOG.
    fn with_bg_retries<T>(&self, job: &'static str, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt: u32 = 0;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if e.retryable() && attempt < self.opts.max_background_retries => {
                    self.stats.bg_retries.fetch_add(1, Ordering::Relaxed);
                    self.events.emit(&Event::BackgroundRetry {
                        job,
                        attempt: u64::from(attempt + 1),
                        message: e.to_string(),
                    });
                    let backoff = self
                        .opts
                        .background_retry_backoff
                        .saturating_mul(1u32 << attempt.min(16))
                        .min(self.opts.background_retry_max_backoff);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Parks `e` as the sticky background error and reports it.
    fn set_bg_error(&self, state: &mut State, job: &'static str, e: Error) {
        self.events.emit(&Event::BackgroundError {
            job,
            severity: match e.severity() {
                Severity::Soft => "soft",
                Severity::Hard => "hard",
                Severity::Unrecoverable => "unrecoverable",
            },
            message: e.to_string(),
        });
        state.bg_error = Some(e);
    }

    fn background_flush(&self) {
        loop {
            let (mem, number, immutables) = {
                let mut state = self.state.lock();
                let Some(mem) = state.imm.first().cloned() else {
                    state.flush_scheduled = false;
                    self.work_cv.notify_all();
                    return;
                };
                let number = state.versions.new_file_number();
                state.pending_outputs.insert(number);
                (mem, number, state.imm.len() as u64)
            };
            let _trace = self.traced_op("flush");
            self.events.emit(&Event::FlushBegin { immutables });
            let flush_start = std::time::Instant::now();
            let result = if mem.is_empty() {
                Ok(None)
            } else {
                // A fresh writable open truncates any partial output from
                // the failed attempt, so retrying with the same file
                // number is safe.
                self.with_bg_retries("flush", || {
                    // Durability barrier: a sharded router syncs its shared
                    // WAL here, so no shard can persist an SST containing a
                    // batch whose commit record is not yet durable.
                    if let Some(barrier) = &self.opts.flush_barrier {
                        barrier()?;
                    }
                    self.write_level0_table(&mem, number)
                })
                .map(Some)
            };
            self.op_hists.flush.record_elapsed(flush_start);
            let mut state = self.state.lock();
            state.pending_outputs.remove(&number);
            match result {
                Ok(meta) => {
                    // The WAL needed going forward is the one behind the
                    // next-oldest memtable (or the active one).
                    let min_wal = state
                        .imm
                        .get(1)
                        .map_or(state.wal_number, |m| m.wal_number());
                    let mut edit =
                        VersionEdit { log_number: Some(min_wal), ..VersionEdit::default() };
                    let (out_number, out_bytes) =
                        meta.as_ref().map_or((0, 0), |m| (m.number, m.file_size));
                    if let Some(meta) = meta {
                        edit.new_files.push((0, meta));
                    }
                    match state.versions.log_and_apply(edit) {
                        Ok(_) => {
                            state.imm.remove(0);
                            self.stats.flushes.fetch_add(1, Ordering::Relaxed);
                            self.events.emit(&Event::FlushEnd {
                                file_number: out_number,
                                bytes: out_bytes,
                                micros: flush_start.elapsed().as_micros() as u64,
                            });
                            self.delete_obsolete_files(&mut state);
                            self.maybe_schedule(&mut state);
                            self.work_cv.notify_all();
                        }
                        Err(e) => {
                            self.set_bg_error(&mut state, "flush", e);
                            state.flush_scheduled = false;
                            self.work_cv.notify_all();
                            return;
                        }
                    }
                }
                Err(e) => {
                    self.set_bg_error(&mut state, "flush", e);
                    state.flush_scheduled = false;
                    self.work_cv.notify_all();
                    return;
                }
            }
        }
    }

    fn background_compaction(self: &Arc<Self>) {
        // Pick under the lock; run without it.
        let (task, version, smallest_snapshot) = {
            let mut state = self.state.lock();
            let version = state.versions.current();
            let Some(task) = pick_compaction(&version, &self.opts.compaction) else {
                state.compaction_scheduled = false;
                self.work_cv.notify_all();
                return;
            };
            if self.task_conflicts(&state, &task) {
                state.compaction_scheduled = false;
                self.work_cv.notify_all();
                return;
            }
            match &task {
                CompactionTask::Merge { inputs, overlaps, .. } => {
                    for f in inputs.iter().chain(overlaps.iter()) {
                        state.busy_files.insert(f.number);
                    }
                }
                CompactionTask::FifoTrim { files } => {
                    for f in files {
                        state.busy_files.insert(f.number);
                    }
                }
            }
            let smallest_snapshot = state
                .snapshots
                .values()
                .min()
                .copied()
                .unwrap_or_else(|| self.last_published.load(Ordering::Acquire));
            (task, version, smallest_snapshot)
        };

        let (task_level, task_inputs, task_input_bytes) = match &task {
            CompactionTask::Merge { input_level, inputs, overlaps, .. } => (
                *input_level as u64,
                (inputs.len() + overlaps.len()) as u64,
                inputs.iter().chain(overlaps.iter()).map(|f| f.file_size).sum(),
            ),
            CompactionTask::FifoTrim { files } => (
                0,
                files.len() as u64,
                files.iter().map(|f| f.file_size).sum(),
            ),
        };
        let _trace = self.traced_op("compaction");
        self.events.emit(&Event::CompactionBegin {
            level: task_level,
            inputs: task_inputs,
            input_bytes: task_input_bytes,
        });

        let table_options = TableBuilderOptions {
            block_size: self.opts.block_size,
            restart_interval: self.opts.restart_interval,
            bloom_bits_per_key: self.opts.bloom_bits_per_key,
            dek_id: None,
            // Carries the Hmac policy (engine key); output-creation sites
            // swap in the per-file DEK subkey when encryption is on.
            mac_key: (self.opts.integrity == crate::integrity::Integrity::Hmac)
                .then_some(self.opts.integrity_key),
        };
        // Every output number any attempt allocates lands here, so the
        // install/error paths below can clear `pending_outputs` exactly —
        // including numbers abandoned by failed retry attempts, which
        // previously leaked and kept their garbage files undeletable.
        let allocated: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let plan = match &self.opts.compaction_executor {
            // Offloaded executors own their whole task; only the
            // in-process path splits work.
            Some(_) => vec![SubcompactionRange::full()],
            None => plan_subcompactions(
                &self.table_cache,
                &task,
                self.opts.compaction.max_subcompactions,
            ),
        };
        let exec_start = std::time::Instant::now();
        // Soft failures (transient storage/network faults) are retried
        // (per subrange in the parallel path); each retry allocates fresh
        // output numbers, and the env truncates on reopen, so a
        // half-written attempt is harmless.
        let result = if plan.len() > 1 {
            self.run_subcompactions(
                &task,
                &version,
                smallest_snapshot,
                &table_options,
                task_level,
                task_input_bytes,
                plan,
                &allocated,
            )
        } else {
            let mut alloc = || self.alloc_compaction_output(&allocated);
            self.with_bg_retries("compaction", || match &self.opts.compaction_executor {
                Some(executor) => {
                    // Offloaded: the remote worker resolves DEKs itself from
                    // the DEK-IDs embedded in the file metadata (§5.4).
                    let request = crate::compaction::CompactionRequest {
                        db_path: &self.path,
                        task: &task,
                        version: &version,
                        smallest_snapshot,
                        table_options: table_options.clone(),
                        target_file_size: self.opts.compaction.target_file_size,
                    };
                    executor.execute(&request, &mut alloc)
                }
                None => {
                    let mut ctx = CompactionContext {
                        env: &self.env,
                        db_path: &self.path,
                        encryption: self.opts.encryption.as_ref(),
                        table_cache: &self.table_cache,
                        version: &version,
                        smallest_snapshot,
                        table_options: table_options.clone(),
                        target_file_size: self.opts.compaction.target_file_size,
                        readahead_blocks: self.opts.readahead_blocks,
                        next_file_number: &mut alloc,
                    };
                    run_compaction(&mut ctx, &task)
                }
            })
        };
        self.stats
            .compaction_micros
            .fetch_add(exec_start.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.op_hists.compaction.record_elapsed(exec_start);

        let mut state = self.state.lock();
        match &task {
            CompactionTask::Merge { inputs, overlaps, .. } => {
                for f in inputs.iter().chain(overlaps.iter()) {
                    state.busy_files.remove(&f.number);
                }
            }
            CompactionTask::FifoTrim { files } => {
                for f in files {
                    state.busy_files.remove(&f.number);
                }
            }
        }
        match result {
            Ok(outcome) => {
                // Release every allocated output number — survivors are
                // about to be pinned by the manifest, and numbers
                // abandoned by failed attempts become plain garbage. GC
                // cannot race: it runs under this same state lock.
                for n in allocated.lock().drain(..) {
                    state.pending_outputs.remove(&n);
                }
                match state.versions.log_and_apply(outcome.edit.clone()) {
                    Ok(_) => {
                        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
                        self.stats
                            .compaction_bytes_read
                            .fetch_add(outcome.bytes_read, Ordering::Relaxed);
                        self.stats
                            .compaction_bytes_written
                            .fetch_add(outcome.bytes_written, Ordering::Relaxed);
                        self.stats
                            .sst_files_created
                            .fetch_add(outcome.outputs as u64, Ordering::Relaxed);
                        self.events.emit(&Event::CompactionEnd {
                            level: task_level,
                            bytes_read: outcome.bytes_read,
                            bytes_written: outcome.bytes_written,
                            output_files: outcome.outputs as u64,
                            micros: exec_start.elapsed().as_micros() as u64,
                        });
                        self.delete_obsolete_files(&mut state);
                    }
                    Err(e) => self.set_bg_error(&mut state, "compaction", e),
                }
            }
            Err(e) => {
                // Nothing survives a failed compaction: unpin all
                // allocated outputs so GC can delete the half-written
                // files once the error clears.
                for n in allocated.lock().drain(..) {
                    state.pending_outputs.remove(&n);
                }
                self.set_bg_error(&mut state, "compaction", e);
            }
        }
        state.compaction_scheduled = false;
        self.maybe_schedule(&mut state);
        self.work_cv.notify_all();
    }

    /// Allocates an output file number, pinning it in `pending_outputs`
    /// (against GC) and recording it in `allocated` (for exact unpinning
    /// when the compaction installs or fails).
    fn alloc_compaction_output(&self, allocated: &Mutex<Vec<u64>>) -> u64 {
        let n = {
            let mut state = self.state.lock();
            let n = state.versions.new_file_number();
            state.pending_outputs.insert(n);
            n
        };
        allocated.lock().push(n);
        n
    }

    /// Pops and runs one queued subrange merge. Each claim token
    /// submitted to the pool redeems exactly one queue entry; the queue
    /// may already be empty if the coordinator stole the work (that is
    /// fine — the token is then a no-op and the worker moves on).
    fn run_queued_subcompaction(&self) {
        let subtask = self.sub_queue.lock().pop_front();
        if let Some(f) = subtask {
            f();
        }
    }

    /// Runs a picked merge task as `plan.len()` parallel subrange merges
    /// and stitches the results into ONE `CompactionOutcome`, so the
    /// caller installs a single atomic `VersionEdit` — readers never see
    /// a partially compacted range, exactly as in the serial path.
    ///
    /// Scheduling: subranges 1.. go onto `sub_queue` with one general-
    /// class claim token each; this thread runs subrange 0
    /// inline, then steals any still-queued subranges (tokens may be
    /// behind other work, or lost entirely at shutdown), then waits for
    /// stragglers a worker already popped. Progress never depends on a
    /// second thread existing.
    #[allow(clippy::too_many_arguments)]
    fn run_subcompactions(
        self: &Arc<Self>,
        task: &CompactionTask,
        version: &Arc<crate::version::version::Version>,
        smallest_snapshot: SequenceNumber,
        table_options: &TableBuilderOptions,
        task_level: u64,
        task_input_bytes: u64,
        plan: Vec<SubcompactionRange>,
        allocated: &Arc<Mutex<Vec<u64>>>,
    ) -> Result<CompactionOutcome> {
        let n = plan.len();
        self.events.emit(&Event::SubcompactionBegin {
            level: task_level,
            subtasks: n as u64,
            input_bytes: task_input_bytes,
        });
        // The task is shared into 'static closures, so it must live on
        // the heap (file lists are `Arc<FileMeta>`s — cloning is cheap).
        let task: Arc<CompactionTask> = Arc::new(match task {
            CompactionTask::Merge { input_level, output_level, inputs, overlaps } => {
                CompactionTask::Merge {
                    input_level: *input_level,
                    output_level: *output_level,
                    inputs: inputs.clone(),
                    overlaps: overlaps.clone(),
                }
            }
            CompactionTask::FifoTrim { files } => {
                CompactionTask::FifoTrim { files: files.clone() }
            }
        });
        let results: Arc<Mutex<Vec<Option<Result<CompactionOutcome>>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let remaining = Arc::new((Mutex::new(n), Condvar::new()));

        let mut ranges = plan.into_iter();
        let range0 = ranges.next().unwrap_or_default();
        // Pool workers do not inherit the coordinator's trace context;
        // capture it here and attach inside each queued closure so
        // subcompaction spans land under the compaction's trace.
        let tctx = trace::context();
        {
            let mut queue = self.sub_queue.lock();
            for (offset, range) in ranges.enumerate() {
                let index = offset + 1;
                let this = self.clone();
                let task = task.clone();
                let version = version.clone();
                let topts = table_options.clone();
                let results = results.clone();
                let remaining = remaining.clone();
                let allocated = allocated.clone();
                let tctx = tctx.clone();
                queue.push_back(Box::new(move || {
                    let _trace = tctx.as_ref().map(trace::SpanContext::attach);
                    this.run_one_subrange(
                        index,
                        &task,
                        &version,
                        smallest_snapshot,
                        &topts,
                        &range,
                        &results,
                        &remaining,
                        &allocated,
                    );
                }));
            }
        }
        for _ in 1..n {
            self.submit_job(JobClass::General, |inner| inner.run_queued_subcompaction());
        }
        self.run_one_subrange(
            0,
            &task,
            version,
            smallest_snapshot,
            table_options,
            &range0,
            &results,
            &remaining,
            allocated,
        );
        // Steal whatever no worker has claimed yet.
        loop {
            let subtask = self.sub_queue.lock().pop_front();
            match subtask {
                Some(f) => f(),
                None => break,
            }
        }
        // Wait for subranges a worker popped but has not finished.
        {
            let (count, cv) = &*remaining;
            let mut left = count.lock();
            while *left > 0 {
                cv.wait(&mut left);
            }
        }

        // Stitch in subrange order: outputs are key-disjoint and the
        // version set re-sorts each level on apply, so concatenation
        // preserves every invariant of the serial outcome.
        let mut merged =
            CompactionOutcome { bytes_read: task.input_bytes(), ..CompactionOutcome::default() };
        let mut slots = results.lock();
        let mut first_err: Option<Error> = None;
        for slot in slots.iter_mut() {
            match slot.take() {
                Some(Ok(out)) => {
                    merged.bytes_written += out.bytes_written;
                    merged.entries_dropped += out.entries_dropped;
                    merged.outputs += out.outputs;
                    merged.edit.new_files.extend(out.edit.new_files);
                }
                Some(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                None => {
                    if first_err.is_none() {
                        first_err = Some(Error::Io(shield_env::EnvError::Io(
                            "subcompaction result missing".to_string(),
                        )));
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // Inputs are deleted exactly once, for the task as a whole.
        append_input_deletions(&task, &mut merged.edit);
        Ok(merged)
    }

    /// Executes one subrange of a parallel compaction and publishes the
    /// result into its slot. Runs on whichever thread claimed it (a pool
    /// worker via a claim token, or the coordinator itself).
    #[allow(clippy::too_many_arguments)]
    fn run_one_subrange(
        &self,
        index: usize,
        task: &CompactionTask,
        version: &Arc<crate::version::version::Version>,
        smallest_snapshot: SequenceNumber,
        table_options: &TableBuilderOptions,
        range: &SubcompactionRange,
        results: &Mutex<Vec<Option<Result<CompactionOutcome>>>>,
        remaining: &(Mutex<usize>, Condvar),
        allocated: &Mutex<Vec<u64>>,
    ) {
        let start = std::time::Instant::now();
        let mut span = trace::span("subcompaction");
        span.attr("index", index as u64);
        let result = self.with_bg_retries("subcompaction", || {
            let mut alloc = || self.alloc_compaction_output(allocated);
            let mut ctx = CompactionContext {
                env: &self.env,
                db_path: &self.path,
                encryption: self.opts.encryption.as_ref(),
                table_cache: &self.table_cache,
                version,
                smallest_snapshot,
                table_options: table_options.clone(),
                target_file_size: self.opts.compaction.target_file_size,
                readahead_blocks: self.opts.readahead_blocks,
                next_file_number: &mut alloc,
            };
            run_compaction_range(&mut ctx, task, range)
        });
        let micros = start.elapsed().as_micros() as u64;
        self.stats.subcompactions.fetch_add(1, Ordering::Relaxed);
        self.stats.subcompaction_micros.fetch_add(micros, Ordering::Relaxed);
        self.op_hists.subcompaction.record_elapsed(start);
        self.events.emit(&Event::SubcompactionEnd {
            index: index as u64,
            bytes_written: result.as_ref().map_or(0, |o| o.bytes_written),
            micros,
        });
        results.lock()[index] = Some(result);
        let (count, cv) = remaining;
        let mut left = count.lock();
        *left -= 1;
        if *left == 0 {
            cv.notify_all();
        }
    }

    /// Removes files no longer referenced: old WALs, compacted-away SSTs,
    /// superseded manifests. In SHIELD mode each deleted file's DEK is
    /// pruned from the secure cache and revoked at the KDS — this is the
    /// "old DEKs die with their files" half of key rotation (§5.2).
    fn delete_obsolete_files(&self, state: &mut State) {
        // referenced_files() (not current().live_files()): readers clone the
        // current Arc<Version> under this same lock and then read SSTs
        // lock-free, so files of superseded-but-still-pinned versions must
        // survive until the last reader drops its pin.
        let live: HashSet<u64> = state.versions.referenced_files();
        let min_wal = state
            .imm
            .first()
            .map_or(state.wal_number, |m| m.wal_number())
            .min(state.versions.log_number().max(1));
        let Ok(names) = self.env.list_dir(&self.path) else { return };
        for name in names {
            let Some(kind) = parse_file_name(&name) else { continue };
            let (remove, file_kind, evict) = match kind {
                FileType::Wal(n) => (n < min_wal && n < state.wal_number, FileKind::Wal, None),
                FileType::Sst(n) => (
                    !live.contains(&n)
                        && !state.pending_outputs.contains(&n)
                        && !state.busy_files.contains(&n),
                    FileKind::Sst,
                    Some(n),
                ),
                FileType::Manifest(n) => {
                    (n != state.versions.manifest_number(), FileKind::Manifest, None)
                }
                // Temp files may be mid-rename (e.g. the secure cache's
                // atomic persist runs outside the state lock), so runtime
                // GC must leave them alone; stale ones are harmless.
                FileType::Temp | FileType::Current | FileType::DekCache => {
                    (false, FileKind::Other, None)
                }
            };
            if !remove {
                continue;
            }
            let path = shield_env::join_path(&self.path, &name);
            if let Some(cfg) = &self.opts.encryption {
                let _ = cfg.note_file_deleted(self.env.as_ref(), &path, file_kind);
            }
            if self.env.remove_file(&path).is_ok() {
                if let Some(n) = evict {
                    self.table_cache.evict(n);
                    self.stats.sst_files_deleted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Replays WAL segments newer than the manifest's log number into a
    /// recovery memtable, flushing it to L0. Returns the number of WAL
    /// segments replayed.
    fn recover_wals(self: &Arc<Self>) -> Result<u64> {
        let names = self.env.list_dir(&self.path)?;
        let mut wals: Vec<u64> = names
            .iter()
            .filter_map(|n| match parse_file_name(n) {
                Some(FileType::Wal(num)) => Some(num),
                _ => None,
            })
            .collect();
        wals.sort_unstable();
        let (min_log, mut max_seq) = {
            let state = self.state.lock();
            (state.versions.log_number(), state.versions.last_sequence())
        };

        let mem = Arc::new(MemTable::new(0));
        let mut replayed = 0u64;
        for number in wals.into_iter().filter(|n| *n >= min_log) {
            replayed += 1;
            let path = shield_env::join_path(&self.path, &wal_file_name(number));
            // The same resumable tailer a live replica polls; recovery is
            // one drain over a segment that can no longer grow, so any
            // `Pending` tail is the crash aftermath and ends the replay.
            let mut tailer = crate::wal::open_wal_tailer(
                self.env.as_ref(),
                &path,
                self.opts.encryption.as_ref(),
                self.opts.integrity_key,
            )?
            .with_sinks(number, Some(self.stats.clone()), Some(self.events.clone()));
            loop {
                match tailer.poll()? {
                    TailPoll::Record(record) => {
                        let batch = WriteBatch::from_data(&record)?;
                        batch.insert_into(&mem)?;
                        max_seq = max_seq.max(batch.sequence() + u64::from(batch.count()) - 1);
                    }
                    TailPoll::Pending(_) => {
                        tailer.assume_legacy();
                        break;
                    }
                }
            }
            // Legacy segments replay as-is but count as unprotected
            // under Hmac.
            if self.opts.integrity == crate::integrity::Integrity::Hmac && tailer.is_legacy() {
                self.stats.integrity_unprotected_files.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut state = self.state.lock();
        state.versions.set_last_sequence(max_seq);
        if !mem.is_empty() {
            let number = state.versions.new_file_number();
            state.pending_outputs.insert(number);
            // Build while holding the lock: open() is single-threaded.
            let meta = self.write_level0_table(&mem, number)?;
            state.pending_outputs.remove(&number);
            let edit = VersionEdit {
                new_files: vec![(0, meta)],
                ..VersionEdit::default()
            };
            state.versions.log_and_apply(edit)?;
        }
        Ok(replayed)
    }
}

/// Result of [`Db::verify_integrity`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityReport {
    /// SST files verified.
    pub files: usize,
    /// Entries read (including tombstones).
    pub entries: u64,
    /// Total bytes of verified files.
    pub bytes: u64,
}

/// A point-in-time read view. Dropping it releases the sequence pin so
/// compaction may reclaim shadowed versions.
pub struct Snapshot {
    inner: Arc<DbInner>,
    id: u64,
    seq: SequenceNumber,
}

impl Snapshot {
    /// The sequence this snapshot reads at; feed it to
    /// [`ReadOptions::snapshot_seq`].
    #[must_use]
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }

    /// Read options pinned to this snapshot.
    #[must_use]
    pub fn read_options(&self) -> ReadOptions {
        ReadOptions { snapshot_seq: Some(self.seq), fill_cache: true }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.inner.state.lock().snapshots.remove(&self.id);
    }
}

/// Iterator over live user keys and values.
pub struct DbIterator {
    view: ViewIterator,
    /// For the `iter_next` latency histogram.
    db: Arc<DbInner>,
}

impl DbIterator {
    /// True if positioned on an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.view.valid()
    }

    /// Current user key.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        self.view.key()
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> &[u8] {
        self.view.value()
    }

    /// Positions on the first live key.
    pub fn seek_to_first(&mut self) {
        self.view.seek_to_first();
    }

    /// Positions on the first live key >= `user_key`.
    pub fn seek(&mut self, user_key: &[u8]) {
        self.view.seek(user_key);
    }

    /// Advances to the next live key.
    pub fn next(&mut self) {
        let op_start = std::time::Instant::now();
        self.view.next();
        self.db.op_hists.iter_next.record_elapsed(op_start);
    }

    /// First error any underlying source hit. An iterator that went
    /// invalid with an error here has *stopped early*, not finished.
    pub fn status(&self) -> Result<()> {
        self.view.status()
    }
}

impl UserIterator for DbIterator {
    fn valid(&self) -> bool {
        DbIterator::valid(self)
    }
    fn seek_to_first(&mut self) {
        DbIterator::seek_to_first(self);
    }
    fn seek(&mut self, target: &[u8]) {
        DbIterator::seek(self, target);
    }
    fn next(&mut self) {
        DbIterator::next(self);
    }
    fn key(&self) -> &[u8] {
        DbIterator::key(self)
    }
    fn value(&self) -> &[u8] {
        DbIterator::value(self)
    }
    fn status(&self) -> Result<()> {
        DbIterator::status(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_env::MemEnv;

    fn open_mem() -> (MemEnv, Db) {
        let env = MemEnv::new();
        let opts = Options::new(Arc::new(env.clone()));
        let db = Db::open(opts, "db").unwrap();
        (env, db)
    }

    fn w() -> WriteOptions {
        WriteOptions::default()
    }

    fn r() -> ReadOptions {
        ReadOptions::new()
    }

    #[test]
    fn log_file_records_lifecycle_events() {
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env.clone()));
        opts.info_log = Some(LogConfig { level: Some(shield_core::LogLevel::Info), json: false });
        let db = Db::open(opts, "db").unwrap();
        db.put(&w(), b"k", b"v").unwrap();
        db.flush().unwrap();
        drop(db);
        let raw = shield_env::read_file_to_vec(&env, "db/LOG", FileKind::Other).unwrap();
        let log = String::from_utf8(raw).unwrap();
        for needle in ["db_open", "flush_begin", "flush_end", "db_close"] {
            assert!(log.contains(needle), "LOG missing {needle}:\n{log}");
        }
        let begins = log.matches("flush_begin").count();
        let ends = log.matches("flush_end").count();
        assert_eq!(begins, ends, "unpaired flush events:\n{log}");
    }

    #[test]
    fn listeners_and_metrics_report() {
        struct Capture(Mutex<Vec<&'static str>>);
        impl shield_core::EventListener for Capture {
            fn on_event(&self, e: &Event) {
                self.0.lock().push(e.name());
            }
        }
        let capture = Arc::new(Capture(Mutex::new(Vec::new())));
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env)).with_event_listener(capture.clone());
        opts.info_log = Some(LogConfig::default()); // no LOG file
        let db = Db::open(opts, "db").unwrap();
        for i in 0..200u32 {
            db.put(&w(), format!("k{i:03}").as_bytes(), &[1u8; 64]).unwrap();
        }
        db.flush().unwrap();
        {
            let names = capture.0.lock();
            assert!(names.contains(&"db_open"));
            assert!(names.contains(&"flush_begin"));
            assert!(names.contains(&"flush_end"));
        }
        let report = db.metrics_report();
        assert!(report.levels[0].files >= 1);
        let put = report
            .latencies
            .iter()
            .find(|(op, _)| *op == "put")
            .map(|(_, s)| s)
            .unwrap();
        assert_eq!(put.count, 200);
        assert!(put.p99_us >= put.p50_us);
        let flush = report
            .latencies
            .iter()
            .find(|(op, _)| *op == "flush")
            .map(|(_, s)| s)
            .unwrap();
        assert!(flush.count >= 1);
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"shield_metrics_v1\""));
        assert!(json.contains("\"tickers\":{\"writes\":200"));
        assert!(report.write_amplification > 0.0);
    }

    #[test]
    fn put_get_delete() {
        let (_env, db) = open_mem();
        db.put(&w(), b"key", b"value").unwrap();
        assert_eq!(db.get(&r(), b"key").unwrap(), Some(b"value".to_vec()));
        db.delete(&w(), b"key").unwrap();
        assert_eq!(db.get(&r(), b"key").unwrap(), None);
        assert_eq!(db.get(&r(), b"never").unwrap(), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let (_env, db) = open_mem();
        db.put(&w(), b"k", b"v1").unwrap();
        db.put(&w(), b"k", b"v2").unwrap();
        assert_eq!(db.get(&r(), b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn batch_is_atomic() {
        let (_env, db) = open_mem();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put(b"b", b"2");
        batch.delete(b"a");
        db.write(&w(), batch).unwrap();
        assert_eq!(db.get(&r(), b"a").unwrap(), None);
        assert_eq!(db.get(&r(), b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn survives_flush() {
        let (_env, db) = open_mem();
        for i in 0..100u32 {
            db.put(&w(), format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        assert!(db.level_summary()[0].0 >= 1, "flush should create an L0 file");
        for i in 0..100u32 {
            assert_eq!(
                db.get(&r(), format!("k{i:03}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "key k{i:03}"
            );
        }
    }

    #[test]
    fn reads_merge_memtable_over_sst() {
        let (_env, db) = open_mem();
        db.put(&w(), b"k", b"old").unwrap();
        db.flush().unwrap();
        db.put(&w(), b"k", b"new").unwrap();
        assert_eq!(db.get(&r(), b"k").unwrap(), Some(b"new".to_vec()));
        // Deletion in memtable shadows SST value.
        db.delete(&w(), b"k").unwrap();
        assert_eq!(db.get(&r(), b"k").unwrap(), None);
    }

    #[test]
    fn recovery_from_wal() {
        let env = MemEnv::new();
        {
            let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
            db.put(&w(), b"persisted", b"yes").unwrap();
            // Clean drop: WAL flushed.
        }
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"persisted").unwrap(), Some(b"yes".to_vec()));
    }

    #[test]
    fn recovery_after_flush_and_more_writes() {
        let env = MemEnv::new();
        {
            let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
            for i in 0..50u32 {
                db.put(&w(), format!("a{i:03}").as_bytes(), b"1").unwrap();
            }
            db.flush().unwrap();
            for i in 0..50u32 {
                db.put(&w(), format!("b{i:03}").as_bytes(), b"2").unwrap();
            }
        }
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"a001").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(&r(), b"b049").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn compaction_reduces_l0() {
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env));
        opts.write_buffer_size = 4 << 10; // tiny memtable
        opts.compaction.l0_compaction_trigger = 2;
        opts.compaction.target_file_size = 64 << 10;
        let db = Db::open(opts, "db").unwrap();
        for i in 0..2000u32 {
            db.put(&w(), format!("key{i:06}").as_bytes(), &[b'x'; 64]).unwrap();
        }
        db.compact_all().unwrap();
        let summary = db.level_summary();
        assert!(summary[0].0 <= 2, "L0 should drain, got {summary:?}");
        assert!(summary[1].0 >= 1, "L1 should be populated, got {summary:?}");
        // Everything still readable.
        for i in (0..2000u32).step_by(97) {
            assert!(db.get(&r(), format!("key{i:06}").as_bytes()).unwrap().is_some());
        }
        assert!(db.statistics().snapshot().compactions >= 1);
    }

    #[test]
    fn iterator_basic() {
        let (_env, db) = open_mem();
        for k in ["d", "a", "c", "b"] {
            db.put(&w(), k.as_bytes(), k.as_bytes()).unwrap();
        }
        db.delete(&w(), b"c").unwrap();
        let mut it = db.iter(&r()).unwrap();
        it.seek_to_first();
        let mut keys = Vec::new();
        while it.valid() {
            keys.push(it.key().to_vec());
            it.next();
        }
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn iterator_across_memtable_and_sst() {
        let (_env, db) = open_mem();
        db.put(&w(), b"a", b"sst").unwrap();
        db.put(&w(), b"b", b"sst").unwrap();
        db.flush().unwrap();
        db.put(&w(), b"b", b"mem").unwrap(); // overwrites
        db.put(&w(), b"c", b"mem").unwrap();
        let mut it = db.iter(&r()).unwrap();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), b"sst".to_vec()),
                (b"b".to_vec(), b"mem".to_vec()),
                (b"c".to_vec(), b"mem".to_vec()),
            ]
        );
    }

    #[test]
    fn scan_range() {
        let (_env, db) = open_mem();
        for i in 0..20u32 {
            db.put(&w(), format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        let got = db.scan(&r(), b"k05", 5).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].0, b"k05");
        assert_eq!(got[4].0, b"k09");
    }

    #[test]
    fn snapshot_isolation() {
        let (_env, db) = open_mem();
        db.put(&w(), b"k", b"v1").unwrap();
        let snap = db.snapshot();
        db.put(&w(), b"k", b"v2").unwrap();
        db.delete(&w(), b"other").unwrap();
        assert_eq!(db.get(&snap.read_options(), b"k").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(db.get(&r(), b"k").unwrap(), Some(b"v2".to_vec()));
        // Snapshot survives flush.
        db.flush().unwrap();
        assert_eq!(db.get(&snap.read_options(), b"k").unwrap(), Some(b"v1".to_vec()));
    }

    #[test]
    fn concurrent_writers_group_commit() {
        let env = MemEnv::new();
        let db = Arc::new(Db::open(Options::new(Arc::new(env)), "db").unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        db.put(&w(), format!("t{t}-{i:04}").as_bytes(), b"v").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = db.statistics().snapshot();
        assert_eq!(stats.writes, 1600);
        // Spot check.
        for t in 0..8 {
            assert!(db.get(&r(), format!("t{t}-0199").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn process_crash_loses_only_unflushed_tail() {
        let env = MemEnv::new();
        {
            let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
            db.put(&w(), b"acked", b"1").unwrap();
            db.simulate_process_crash();
        }
        // Plaintext unbuffered WAL flushes per commit, so the write
        // survives a process crash.
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"acked").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn system_crash_respects_sync() {
        let env = MemEnv::new();
        {
            let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
            db.put(&WriteOptions { sync: true }, b"synced", b"1").unwrap();
            db.put(&w(), b"unsynced", b"2").unwrap();
            db.simulate_process_crash();
        }
        env.crash_system();
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"synced").unwrap(), Some(b"1".to_vec()));
        // Unsynced write may or may not survive; here the MemEnv dropped it.
        assert_eq!(db.get(&r(), b"unsynced").unwrap(), None);
    }

    #[test]
    fn empty_batch_is_noop() {
        let (_env, db) = open_mem();
        db.write(&w(), WriteBatch::new()).unwrap();
        assert_eq!(db.statistics().snapshot().writes, 0);
    }

    #[test]
    fn reopen_empty_db() {
        let env = MemEnv::new();
        {
            let _ = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
        }
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"x").unwrap(), None);
    }

    #[test]
    fn verify_integrity_clean_and_corrupt() {
        let env = MemEnv::new();
        let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
        for i in 0..500u32 {
            db.put(&w(), format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        let report = db.verify_integrity().unwrap();
        assert!(report.files >= 1);
        assert_eq!(report.entries, 500);
        assert!(report.bytes > 0);
        // Corrupt a data block in the SST and verify again.
        let name = env
            .list_dir("db")
            .unwrap()
            .into_iter()
            .find(|n| n.ends_with(".sst"))
            .unwrap();
        let mut raw = env.raw_content(&format!("db/{name}")).unwrap();
        raw[20] ^= 0xff;
        {
            use shield_env::FileKind;
            let mut f = env.new_writable_file(&format!("db/{name}"), FileKind::Sst).unwrap();
            f.append(&raw).unwrap();
            f.sync().unwrap();
        }
        // Evict the cached reader and cached blocks by reopening.
        drop(db);
        let mut opts = Options::new(Arc::new(env));
        opts.block_cache_bytes = 0;
        let db = Db::open(opts, "db").unwrap();
        assert!(matches!(db.verify_integrity(), Err(Error::Corruption(_))));
    }

    #[test]
    fn error_if_exists() {
        let env = MemEnv::new();
        let _ = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
        let mut opts = Options::new(Arc::new(env));
        opts.error_if_exists = true;
        assert!(matches!(Db::open(opts, "db"), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn create_if_missing_false() {
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env));
        opts.create_if_missing = false;
        assert!(Db::open(opts, "nope").is_err());
    }
}
