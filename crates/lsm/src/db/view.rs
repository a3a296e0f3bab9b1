//! The read path, written once: a [`ReadView`] is an immutable
//! `(version, memtables, sequence)` triple read through a
//! [`TableCache`] — and so through its [`crate::sst::BlockFetcher`]'s
//! block cache, single-flight table and batched reads.
//!
//! [`crate::Db`] builds a view from its live state for every read;
//! [`crate::ReplicaDb`] publishes one per catch-up round. Both build the
//! caches a view reads through with [`open_read_side`], from the same
//! [`Options`], so a replica gets the primary's read budget.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use shield_core::{perf, EventDispatcher, PerfMetric};
use shield_env::Env;

use crate::cache::BlockCache;
use crate::db::options::Options;
use crate::error::Result;
use crate::integrity::IntegrityOptions;
use crate::iter::{InternalIterator, MergingIterator};
use crate::memtable::{LookupResult, MemTable};
use crate::statistics::Statistics;
use crate::types::{extract_seq_type, extract_user_key, make_lookup_key, SequenceNumber, ValueType};
use crate::version::table_cache::TableCache;
use crate::version::version::{GetResult, Version};

/// Builds the block cache (or takes [`Options::shared_block_cache`]) and
/// the table cache a database reads through.
pub(crate) fn open_read_side(
    opts: &Options,
    path: &str,
    events: Option<Arc<EventDispatcher>>,
) -> Result<(Option<Arc<BlockCache>>, Arc<TableCache>)> {
    let block_cache = opts.open_block_cache()?;
    let table_cache = TableCache::new_with_stats(
        opts.env.clone(),
        path.to_string(),
        opts.encryption.clone(),
        block_cache.clone(),
        Some(opts.statistics.clone()),
        opts.max_open_files,
        opts.readahead_blocks,
        opts.max_inflight_reads,
        IntegrityOptions { mode: opts.integrity, key: opts.integrity_key },
        events,
    );
    Ok((block_cache, table_cache))
}

/// Refreshes ticker mirrors (env faults, block-cache totals, gauges)
/// from their live sources.
pub(crate) fn refresh_read_mirrors(stats: &Statistics, env: &dyn Env, cache: Option<&BlockCache>) {
    if let Some(faults) = env.fault_stats() {
        stats.env_faults_injected.store(faults.injected_total(), Ordering::Relaxed);
    }
    if let Some(cache) = cache {
        let c = cache.stats();
        let s = stats;
        s.block_cache_hits.store(c.hits(), Ordering::Relaxed);
        s.block_cache_misses.store(c.misses(), Ordering::Relaxed);
        s.block_cache_data_hits.store(c.data_hits, Ordering::Relaxed);
        s.block_cache_data_misses.store(c.data_misses, Ordering::Relaxed);
        s.block_cache_index_hits.store(c.index_hits, Ordering::Relaxed);
        s.block_cache_index_misses.store(c.index_misses, Ordering::Relaxed);
        s.block_cache_filter_hits.store(c.filter_hits, Ordering::Relaxed);
        s.block_cache_filter_misses.store(c.filter_misses, Ordering::Relaxed);
        s.block_cache_singleflight_waits.store(c.singleflight_waits, Ordering::Relaxed);
        s.block_cache_oversized_bypass.store(c.oversized_bypass, Ordering::Relaxed);
        s.block_cache_pinned_bytes.store(c.pinned_bytes, Ordering::Relaxed);
        s.readahead_issued.store(c.readahead_issued, Ordering::Relaxed);
        s.readahead_useful.store(c.readahead_useful, Ordering::Relaxed);
        s.batched_reads.store(c.batched_reads, Ordering::Relaxed);
        s.batch_read_requests.store(c.batch_read_requests, Ordering::Relaxed);
    }
    stats.env_inflight_reads.store(shield_env::inflight_reads_peak(), Ordering::Relaxed);
}

/// An immutable point-in-time read view: memtables newest first, then
/// the pinned version's files, filtered to entries at or below `seq`.
pub struct ReadView {
    table_cache: Arc<TableCache>,
    version: Arc<Version>,
    /// Newest first: the active memtable, then immutables newest → oldest.
    mems: Vec<Arc<MemTable>>,
    seq: SequenceNumber,
}

impl ReadView {
    pub(crate) fn new(
        table_cache: Arc<TableCache>,
        version: Arc<Version>,
        mems: Vec<Arc<MemTable>>,
        seq: SequenceNumber,
    ) -> Self {
        ReadView { table_cache, version, mems, seq }
    }

    /// The sequence number this view reads at.
    #[must_use]
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }

    /// The file layout this view pins.
    #[must_use]
    pub fn version(&self) -> &Arc<Version> {
        &self.version
    }

    /// The newest memtable entry for `key`: `Some(None)` is a tombstone,
    /// `None` means no memtable holds the key.
    fn mem_get(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        self.mems.iter().find_map(|mem| match mem.get(key, self.seq) {
            LookupResult::Found(v) => Some(Some(v)),
            LookupResult::Deleted => Some(None),
            LookupResult::NotFound => None,
        })
    }

    /// Point lookup. `fill_cache = false` reads around the block cache.
    pub fn get(&self, key: &[u8], fill_cache: bool) -> Result<Option<Vec<u8>>> {
        let t = perf::timer();
        let hit = self.mem_get(key);
        perf::add_elapsed(PerfMetric::MemtableLookup, t);
        match hit {
            Some(hit) => Ok(hit),
            None => self.version.get_opt(&self.table_cache, key, self.seq, fill_cache).map(live),
        }
    }

    /// Batched point lookup: one result per key, each equal to
    /// [`ReadView::get`]. Memtables are probed per key; the misses go to
    /// [`Version::multi_get_opt`], which fetches every unresolved key's
    /// next block, across all files and levels, in one wave, so a cold
    /// batch pays a round trip per wave rather than per file. Errors are
    /// per slot.
    pub fn multi_get(&self, keys: &[&[u8]], fill_cache: bool) -> Vec<Result<Option<Vec<u8>>>> {
        let t = perf::timer();
        let mut out = Vec::with_capacity(keys.len());
        let mut misses = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match self.mem_get(key) {
                Some(hit) => out.push(Ok(hit)),
                None => {
                    out.push(Ok(None));
                    misses.push(i);
                }
            }
        }
        perf::add_elapsed(PerfMetric::MemtableLookup, t);
        if !misses.is_empty() {
            let sub: Vec<&[u8]> = misses.iter().map(|&i| keys[i]).collect();
            let results = self.version.multi_get_opt(&self.table_cache, &sub, self.seq, fill_cache);
            for (&i, result) in misses.iter().zip(results) {
                out[i] = result.map(live);
            }
        }
        out
    }

    /// An iterator over the view's live keys. It pins the view's version,
    /// so obsolete-file GC cannot delete an SST its lazily-opened level
    /// iterators have not read yet (memtable iterators pin their own
    /// tables).
    pub fn iter(&self) -> Result<ViewIterator> {
        let mut children: Vec<Box<dyn InternalIterator>> = self
            .mems
            .iter()
            .map(|mem| Box::new(mem.iter()) as Box<dyn InternalIterator>)
            .collect();
        children.extend(self.version.iterators(&self.table_cache)?);
        Ok(ViewIterator {
            merged: MergingIterator::new(children),
            seq: self.seq,
            current: None,
            _version: self.version.clone(),
        })
    }
}

fn live(result: GetResult) -> Option<Vec<u8>> {
    match result {
        GetResult::Found(v) => Some(v),
        GetResult::Deleted | GetResult::NotFound => None,
    }
}

/// Iterator over a [`ReadView`]'s live user keys and values: the newest
/// visible entry per key, tombstoned keys skipped.
pub struct ViewIterator {
    merged: MergingIterator,
    seq: SequenceNumber,
    current: Option<(Vec<u8>, Vec<u8>)>,
    _version: Arc<Version>,
}

impl ViewIterator {
    /// Skips invisible/shadowed/deleted entries. `skip_key` is a user key
    /// whose remaining versions must be bypassed.
    fn advance_to_visible(&mut self, mut skip_key: Option<Vec<u8>>) {
        self.current = None;
        while self.merged.valid() {
            let ikey = self.merged.key();
            let user_key = extract_user_key(ikey);
            let (entry_seq, vtype) = extract_seq_type(ikey);
            if entry_seq > self.seq || skip_key.as_deref() == Some(user_key) {
                self.merged.next();
                continue;
            }
            match vtype {
                Some(ValueType::Deletion) => {
                    skip_key = Some(user_key.to_vec());
                    self.merged.next();
                }
                Some(ValueType::Value) => {
                    self.current = Some((user_key.to_vec(), self.merged.value().to_vec()));
                    return;
                }
                // Corrupt tag: skip defensively.
                None => self.merged.next(),
            }
        }
    }
}

impl crate::iter::UserIterator for ViewIterator {
    fn valid(&self) -> bool {
        self.current.is_some()
    }
    fn seek_to_first(&mut self) {
        self.merged.seek_to_first();
        self.advance_to_visible(None);
    }
    fn seek(&mut self, user_key: &[u8]) {
        self.merged.seek(&make_lookup_key(user_key, self.seq));
        self.advance_to_visible(None);
    }
    fn next(&mut self) {
        let skip = self.current.take().map(|(k, _)| k);
        self.advance_to_visible(skip);
    }
    fn key(&self) -> &[u8] {
        &self.current.as_ref().expect("valid").0
    }
    fn value(&self) -> &[u8] {
        &self.current.as_ref().expect("valid").1
    }
    fn status(&self) -> Result<()> {
        self.merged.status()
    }
}
