//! Opens and reads SST files: footer → index → (cached, decrypted) blocks.
//!
//! All block reads go through [`BlockFetcher`] (cache lookup →
//! single-flight verified read), so a `Table` no longer owns private
//! copies of its index and filter: they are cached, charged blocks pinned
//! for the table's lifetime, and survive table-cache eviction as block
//! cache hits on reopen.

use std::sync::Arc;

use shield_core::{perf, PerfCounter};
use shield_env::RandomAccessFile;

use crate::cache::{BlockCache, BlockKind};
use crate::error::{Error, Result};
use crate::integrity::{IntegrityCtx, ReadIntegrity};
use crate::iter::InternalIterator;
use crate::sst::block::{Block, BlockIter};
use crate::sst::fetcher::{read_verified, BlockFetcher, BlockRequest, FetchedBlock};
use crate::sst::filter::BloomFilterReader;
use crate::sst::format::{BlockHandle, Footer, TableProperties, FOOTER_LEN, FOOTER_V2_LEN};
use crate::types::{extract_user_key, make_lookup_key, SequenceNumber};

/// Where a point lookup in one table goes next: the step shared by
/// [`Table::get_opt`] and the batched lookup waves of
/// [`crate::version::Version::multi_get_opt`].
#[derive(Debug)]
pub(crate) enum Probe {
    /// The table holds no entry for the key visible at the lookup's
    /// sequence.
    Absent,
    /// Fetch this data block, then hand it to [`Table::resolve`].
    Read(BlockStep),
    /// The newest visible entry: `(internal_key, value)`.
    Found(Vec<u8>, Vec<u8>),
}

/// A data block a lookup must read next.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockStep {
    /// Where the block lives in the file.
    pub(crate) handle: BlockHandle,
    /// True for the between-blocks fallback: the block after the one the
    /// index seek named. A lookup reads at most these two blocks per table.
    fallback: bool,
}

/// An open, immutable table file.
pub struct Table {
    file: Arc<dyn RandomAccessFile>,
    /// Unique id used as the block-cache key prefix. For standalone
    /// tables this is the file number; tables opened through a
    /// [`crate::version::TableCache`] get the cache's owner id folded in,
    /// so two databases sharing one block cache (sharding) can never
    /// collide on equal file numbers.
    table_id: u64,
    fetcher: Arc<BlockFetcher>,
    /// Index block, pinned (and charged) for the table's lifetime.
    index: FetchedBlock,
    /// Filter block pin plus a reader sharing the block's allocation.
    filter: Option<(FetchedBlock, BloomFilterReader)>,
    props: TableProperties,
    /// Engine tickers (bloom_useful); `None` for standalone tables.
    stats: Option<Arc<crate::statistics::Statistics>>,
    /// HMAC verification context (`Some` iff the file is format v2);
    /// threaded into every block fetch.
    integrity: Option<IntegrityCtx>,
    /// Per-block trailer length for this file's format version.
    trailer_len: usize,
}

impl Table {
    /// Opens a table. `file` must already be decryption-wrapped if the
    /// table is encrypted (see [`crate::encryption::EncryptionConfig`]).
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        table_id: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Table> {
        Self::open_with_stats(file, table_id, cache, None)
    }

    /// [`Table::open`] with an engine ticker sink, so bloom-filter
    /// negatives are credited to `bloom_useful`.
    pub fn open_with_stats(
        file: Arc<dyn RandomAccessFile>,
        table_id: u64,
        cache: Option<Arc<BlockCache>>,
        stats: Option<Arc<crate::statistics::Statistics>>,
    ) -> Result<Table> {
        Self::open_with_fetcher(
            file,
            table_id,
            table_id,
            BlockFetcher::new(cache, 0),
            stats,
            ReadIntegrity::default(),
        )
    }

    /// Opens a table over a shared fetcher (the normal engine path: one
    /// fetcher per `TableCache`, so all tables share its cache, in-flight
    /// table, and prefetch pool). `table_id` keys the block cache and must
    /// be unique across every table the cache serves; `file_number` is the
    /// on-disk file number used in integrity-violation reports (the two
    /// differ when the cache is shared across databases). `integrity`
    /// supplies the MAC key that verifies format-v2 tables; the file's
    /// footer version — not the engine option — decides whether
    /// verification runs.
    pub fn open_with_fetcher(
        file: Arc<dyn RandomAccessFile>,
        table_id: u64,
        file_number: u64,
        fetcher: Arc<BlockFetcher>,
        stats: Option<Arc<crate::statistics::Statistics>>,
        integrity: ReadIntegrity,
    ) -> Result<Table> {
        let len = file.len()?;
        if (len as usize) < FOOTER_LEN {
            return Err(Error::Corruption("table smaller than footer".into()));
        }
        let tail_len = (len as usize).min(FOOTER_V2_LEN);
        let footer_data = file.read_at(len - tail_len as u64, tail_len)?;
        let footer = Footer::decode_from_tail(&footer_data)?;
        let trailer_len = footer.block_trailer_len();
        let ctx = if footer.version >= 2 {
            Some(IntegrityCtx {
                key: integrity.key,
                context: footer.context,
                file_number,
                stats: stats.clone(),
                events: integrity.events.clone(),
            })
        } else {
            if integrity.expect_hmac {
                // Legacy file under Hmac mode: readable, unverified —
                // surfaced so operators can watch compaction retire it.
                if let Some(stats) = &stats {
                    stats
                        .integrity_unprotected_files
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
            None
        };
        let index =
            fetcher.fetch(&file, table_id, footer.index, BlockKind::Index, true, ctx.as_ref())?;
        let filter = if footer.filter.size > 0 {
            let block = fetcher.fetch(
                &file,
                table_id,
                footer.filter,
                BlockKind::Filter,
                true,
                ctx.as_ref(),
            )?;
            let reader = BloomFilterReader::from_bytes(block.block().raw_bytes().clone());
            Some((block, reader))
        } else {
            None
        };
        // Properties are decoded once into owned fields; no reason to
        // hold the raw block in cache.
        let props_raw = read_verified(file.as_ref(), footer.properties, ctx.as_ref())?;
        let props = TableProperties::decode(&props_raw)?;
        Ok(Table {
            file,
            table_id,
            fetcher,
            index,
            filter,
            props,
            stats,
            integrity: ctx,
            trailer_len,
        })
    }

    /// Table-level metadata.
    #[must_use]
    pub fn properties(&self) -> &TableProperties {
        &self.props
    }

    /// The id used for cache keys.
    #[must_use]
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// Loads a data block through the fetcher.
    fn data_block(&self, handle: BlockHandle, fill_cache: bool) -> Result<FetchedBlock> {
        self.fetcher.fetch(
            &self.file,
            self.table_id,
            handle,
            BlockKind::Data,
            fill_cache,
            self.integrity.as_ref(),
        )
    }

    /// Point lookup: returns the first entry for `user_key` visible at
    /// `seq`, as `(internal_key, value)`, or `None`.
    pub fn get(&self, user_key: &[u8], seq: SequenceNumber) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        self.get_opt(user_key, seq, true)
    }

    /// [`Table::get`] with cache-admission control (`fill_cache = false`
    /// reads around the cache without disturbing residency).
    pub fn get_opt(
        &self,
        user_key: &[u8],
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let lookup = make_lookup_key(user_key, seq);
        let mut probe = self.plan(&lookup)?;
        loop {
            probe = match probe {
                Probe::Absent => return Ok(None),
                Probe::Found(ikey, value) => return Ok(Some((ikey, value))),
                Probe::Read(step) => {
                    let block = self.data_block(step.handle, fill_cache)?;
                    self.resolve(block.block(), &lookup, step)?
                }
            };
        }
    }

    /// The I/O-free first half of a point lookup for the internal
    /// `lookup` key (see [`make_lookup_key`]): the bloom check and the
    /// index seek. Returns [`Probe::Absent`] or the data block to read
    /// next; [`Table::resolve`] finishes the lookup once that block is
    /// fetched. Bloom negatives are credited to `bloom_useful`.
    pub(crate) fn plan(&self, lookup: &[u8]) -> Result<Probe> {
        if let Some((_, filter)) = &self.filter {
            perf::incr(PerfCounter::BloomProbes, 1);
            if !filter.may_contain(extract_user_key(lookup)) {
                if let Some(stats) = &self.stats {
                    stats.bloom_useful.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                return Ok(Probe::Absent);
            }
        }
        self.block_after_seek(lookup, false)
    }

    /// Seeks `lookup` inside `block`, the data block `step` named. Returns
    /// the entry, the next block when the key may open it (the lookup
    /// fell exactly between blocks), or [`Probe::Absent`].
    pub(crate) fn resolve(
        &self,
        block: &Arc<Block>,
        lookup: &[u8],
        step: BlockStep,
    ) -> Result<Probe> {
        let mut it = block.iter();
        it.seek(lookup);
        if it.valid() && extract_user_key(it.key()) == extract_user_key(lookup) {
            return Ok(Probe::Found(it.key().to_vec(), it.value().to_vec()));
        }
        if step.fallback {
            return Ok(Probe::Absent);
        }
        self.block_after_seek(lookup, true)
    }

    /// The data block an index seek to `lookup` lands on, or (with
    /// `fallback`) the block after it.
    fn block_after_seek(&self, lookup: &[u8], fallback: bool) -> Result<Probe> {
        let mut index_iter = self.index.block().iter();
        index_iter.seek(lookup);
        if fallback && index_iter.valid() {
            index_iter.next();
        }
        if !index_iter.valid() {
            return Ok(Probe::Absent);
        }
        let handle = BlockHandle::decode_varint(index_iter.value())?;
        Ok(Probe::Read(BlockStep { handle, fallback }))
    }

    /// The batched-fetch request for the data block `step` names.
    #[must_use]
    pub(crate) fn block_request(&self, step: BlockStep) -> BlockRequest<'_> {
        BlockRequest {
            file: &self.file,
            table_id: self.table_id,
            integrity: self.integrity.as_ref(),
            handle: step.handle,
            kind: BlockKind::Data,
        }
    }

    /// True if the bloom filter rules out `user_key` (used by stats).
    #[must_use]
    pub fn filter_rules_out(&self, user_key: &[u8]) -> bool {
        self.filter.as_ref().is_some_and(|(_, f)| !f.may_contain(user_key))
    }

    /// Per-data-block `(last user key, stored bytes)` spans from the
    /// index block, in key order. Subcompaction planning uses these to
    /// place byte-balanced boundaries without reading any data blocks.
    /// Index keys are full internal keys (the builder records each
    /// block's last key verbatim), so stripping the trailer yields a
    /// real user key.
    pub fn index_spans(&self) -> Result<Vec<(Vec<u8>, u64)>> {
        let mut spans = Vec::new();
        let mut it = self.index.block().iter();
        it.seek_to_first();
        while it.valid() {
            let handle = BlockHandle::decode_varint(it.value())?;
            spans.push((
                extract_user_key(it.key()).to_vec(),
                handle.size + self.trailer_len as u64,
            ));
            it.next();
        }
        Ok(spans)
    }

    /// A full-table iterator with the fetcher's default readahead depth.
    #[must_use]
    pub fn iter(self: &Arc<Self>) -> TableIterator {
        self.iter_with_readahead(self.fetcher.readahead_blocks())
    }

    /// A full-table iterator prefetching up to `readahead_blocks` data
    /// blocks ahead of the read position (0 disables readahead).
    #[must_use]
    pub fn iter_with_readahead(self: &Arc<Self>, readahead_blocks: usize) -> TableIterator {
        TableIterator {
            table: self.clone(),
            index_iter: self.index.block().iter(),
            data_iter: None,
            data_pin: None,
            readahead_blocks,
            prefetch_watermark: 0,
            status: Ok(()),
        }
    }
}

/// Two-level iterator: index entries → data blocks.
///
/// Holds a pin on the current data block (so the cache cannot evict it
/// mid-iteration) and, when readahead is enabled, issues bounded prefetch
/// of upcoming blocks each time it crosses into a new one.
pub struct TableIterator {
    table: Arc<Table>,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
    /// Cache pin for the block `data_iter` walks (`None` when uncached).
    data_pin: Option<FetchedBlock>,
    /// How many blocks ahead to prefetch (0 = off).
    readahead_blocks: usize,
    /// File offset up to which prefetch has been issued, so each block is
    /// requested at most once per forward pass.
    prefetch_watermark: u64,
    status: Result<()>,
}

impl TableIterator {
    /// Loads the data block the index currently points at.
    fn init_data_block(&mut self) {
        self.data_iter = None;
        self.data_pin = None;
        if !self.index_iter.valid() {
            return;
        }
        match BlockHandle::decode_varint(self.index_iter.value())
            .and_then(|h| self.table.data_block(h, true))
        {
            Ok(block) => {
                self.data_iter = Some(block.block().iter());
                self.data_pin = Some(block);
                self.issue_readahead();
            }
            Err(e) => self.status = Err(e),
        }
    }

    /// Queues prefetch for up to `readahead_blocks` index entries past the
    /// current one. Uses a fresh iterator over the (pinned) index block so
    /// the read position is untouched; the watermark keeps a forward scan
    /// from re-requesting blocks it already asked for.
    fn issue_readahead(&mut self) {
        if self.readahead_blocks == 0 || !self.index_iter.valid() {
            return;
        }
        let mut it = self.table.index.block().iter();
        it.seek(self.index_iter.key());
        if !it.valid() {
            return;
        }
        for _ in 0..self.readahead_blocks {
            it.next();
            if !it.valid() {
                return;
            }
            let Ok(handle) = BlockHandle::decode_varint(it.value()) else { return };
            if handle.offset <= self.prefetch_watermark {
                continue;
            }
            self.prefetch_watermark = handle.offset;
            self.table.fetcher.prefetch(
                &self.table.file,
                self.table.table_id,
                handle,
                self.table.integrity.as_ref(),
            );
        }
    }

    /// Moves forward past empty blocks until the data iterator is valid or
    /// the table is exhausted.
    fn skip_empty_blocks_forward(&mut self) {
        while self.data_iter.as_ref().is_none_or(|d| !d.valid()) {
            if !self.index_iter.valid() || self.status.is_err() {
                self.data_iter = None;
                self.data_pin = None;
                return;
            }
            self.index_iter.next();
            self.init_data_block();
            if let Some(d) = &mut self.data_iter {
                d.seek_to_first();
            }
        }
    }
}

impl InternalIterator for TableIterator {
    fn valid(&self) -> bool {
        self.data_iter.as_ref().is_some_and(BlockIter::valid)
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek_to_first();
        }
        self.skip_empty_blocks_forward();
    }

    fn seek(&mut self, target: &[u8]) {
        self.index_iter.seek(target);
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek(target);
        }
        self.skip_empty_blocks_forward();
    }

    fn next(&mut self) {
        if let Some(d) = &mut self.data_iter {
            d.next();
        }
        self.skip_empty_blocks_forward();
    }

    fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        self.status.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::types::{make_internal_key, ValueType};
    use shield_env::{Env, FileKind, MemEnv};

    fn build_table(env: &MemEnv, path: &str, n: u32, block_size: usize) -> Arc<Table> {
        let file = env.new_writable_file(path, FileKind::Sst).unwrap();
        let opts = TableBuilderOptions { block_size, ..TableBuilderOptions::default() };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..n {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("value-{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap();
        let file = env.new_random_access_file(path, FileKind::Sst).unwrap();
        Arc::new(Table::open(file, 1, None).unwrap())
    }

    #[test]
    fn get_existing_and_missing() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 1000, 512);
        let hit = t.get(b"key000500", 100).unwrap().unwrap();
        assert_eq!(hit.1, b"value-500");
        assert!(t.get(b"key999999", 100).unwrap().is_none());
        assert!(t.get(b"absent", 100).unwrap().is_none());
    }

    #[test]
    fn plan_and_resolve_match_a_scan_within_two_blocks() {
        let env = MemEnv::new();
        // Small blocks so lookups land on many blocks, including keys
        // that fall exactly on block boundaries.
        let t = build_table(&env, "t.sst", 500, 256);
        let mut entries = Vec::new();
        let mut it = t.iter();
        it.seek_to_first();
        while it.valid() {
            entries.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        let names: Vec<String> = (0..500)
            .step_by(7)
            .map(|i| format!("key{i:06}"))
            .chain(["key999999".into(), "absent".into(), "key000000".into()])
            .collect();
        for name in &names {
            for seq in [5, 100] {
                let expect = entries
                    .iter()
                    .find(|(k, _)| {
                        extract_user_key(k) == name.as_bytes()
                            && crate::types::extract_seq_type(k).0 <= seq
                    })
                    .cloned();
                let lookup = make_lookup_key(name.as_bytes(), seq);
                let mut probe = t.plan(&lookup).unwrap();
                let mut reads = 0;
                let got = loop {
                    probe = match probe {
                        Probe::Absent => break None,
                        Probe::Found(k, v) => break Some((k, v)),
                        Probe::Read(step) => {
                            reads += 1;
                            let block = t.data_block(step.handle, true).unwrap();
                            t.resolve(block.block(), &lookup, step).unwrap()
                        }
                    };
                };
                assert!(reads <= 2, "{name}@{seq}: {reads} block reads");
                assert_eq!(got, expect, "{name}@{seq}");
                assert_eq!(t.get_opt(name.as_bytes(), seq, true).unwrap(), expect, "{name}@{seq}");
            }
        }
    }

    #[test]
    fn get_respects_sequence_visibility() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 10, 4096);
        // All entries written at seq 10: invisible at seq 5.
        assert!(t.get(b"key000001", 5).unwrap().is_none());
        assert!(t.get(b"key000001", 10).unwrap().is_some());
    }

    #[test]
    fn iterator_scans_everything_in_order() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 500, 256);
        let mut it = t.iter();
        it.seek_to_first();
        let mut count = 0;
        let mut prev: Option<Vec<u8>> = None;
        while it.valid() {
            let k = it.key().to_vec();
            if let Some(p) = &prev {
                assert!(crate::types::internal_key_cmp(p, &k) == std::cmp::Ordering::Less);
            }
            prev = Some(k);
            count += 1;
            it.next();
        }
        assert_eq!(count, 500);
        it.status().unwrap();
    }

    #[test]
    fn iterator_seek_mid_table() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 500, 256);
        let mut it = t.iter();
        it.seek(&make_internal_key(b"key000250", u64::MAX >> 8, ValueType::Value));
        assert!(it.valid());
        assert_eq!(extract_user_key(it.key()), b"key000250");
        // Count remaining.
        let mut rest = 0;
        while it.valid() {
            rest += 1;
            it.next();
        }
        assert_eq!(rest, 250);
    }

    #[test]
    fn corrupted_block_detected() {
        let env = MemEnv::new();
        build_table(&env, "t.sst", 100, 4096);
        let mut raw = env.raw_content("t.sst").unwrap();
        raw[10] ^= 0xff; // corrupt inside first data block
        {
            let mut f = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
            f.append(&raw).unwrap();
            f.sync().unwrap();
        }
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 1, None).unwrap()); // footer/index intact
        let err = t.get(b"key000001", 100).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
    }

    #[test]
    fn bloom_filter_short_circuits() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 1000, 512);
        // A key far outside the table: bloom should rule it out.
        let mut ruled_out = 0;
        for i in 0..100 {
            if t.filter_rules_out(format!("zzz-{i}").as_bytes()) {
                ruled_out += 1;
            }
        }
        assert!(ruled_out > 90, "bloom ruled out only {ruled_out}/100");
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let env = MemEnv::new();
        {
            let t = build_table(&env, "t.sst", 1000, 512);
            drop(t);
        }
        let cache = BlockCache::new(1 << 20);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 7, Some(cache.clone())).unwrap());
        let _ = t.get(b"key000100", 100).unwrap();
        let (h0, _) = cache.hit_miss();
        let _ = t.get(b"key000100", 100).unwrap();
        let (h1, _) = cache.hit_miss();
        assert!(h1 > h0, "second read should hit the cache");
    }

    #[test]
    fn index_and_filter_are_cached_and_pinned() {
        let env = MemEnv::new();
        {
            let t = build_table(&env, "t.sst", 1000, 512);
            drop(t);
        }
        let cache = BlockCache::new(1 << 20);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 7, Some(cache.clone())).unwrap());
        let s = cache.stats();
        assert_eq!(s.index_misses, 1, "index block admitted via fetcher");
        assert_eq!(s.filter_misses, 1, "filter block admitted via fetcher");
        assert!(s.pinned_bytes > 0, "index/filter pins are charged");
        assert!(cache.usage() as u64 >= s.pinned_bytes);
        // Reopening the same file hits the cache for both blocks.
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t2 = Arc::new(Table::open(file, 7, Some(cache.clone())).unwrap());
        let s = cache.stats();
        assert_eq!((s.index_hits, s.filter_hits), (1, 1));
        drop(t);
        drop(t2);
        assert_eq!(cache.stats().pinned_bytes, 0, "pins released with tables");
    }

    #[test]
    fn fill_cache_false_reads_around_cache() {
        let env = MemEnv::new();
        {
            let t = build_table(&env, "t.sst", 1000, 512);
            drop(t);
        }
        let cache = BlockCache::new(1 << 20);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 7, Some(cache.clone())).unwrap());
        let before = cache.len();
        let hit = t.get_opt(b"key000500", 100, false).unwrap().unwrap();
        assert_eq!(hit.1, b"value-500");
        assert_eq!(cache.len(), before, "no-fill get must not admit data blocks");
    }

    #[test]
    fn readahead_iterator_scans_correctly() {
        let env = MemEnv::new();
        {
            let t = build_table(&env, "t.sst", 500, 256);
            drop(t);
        }
        // `readahead_issued` counts prefetches that actually lead a read,
        // so give the link a little latency: on an instant in-memory file
        // the foreground scan can win every race and legitimately issue 0.
        let remote = shield_env::RemoteEnv::new(
            Arc::new(env),
            shield_env::NetworkModel {
                rtt: std::time::Duration::from_micros(200),
                bandwidth_bytes_per_sec: None,
                write_packet_bytes: 64 * 1024,
            },
        );
        let cache = BlockCache::new(1 << 20);
        let file = remote.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let fetcher = BlockFetcher::new(Some(cache.clone()), 4);
        let t = Arc::new(
            Table::open_with_fetcher(file, 7, 7, fetcher, None, ReadIntegrity::default()).unwrap(),
        );
        let mut it = t.iter(); // inherits readahead depth 4
        it.seek_to_first();
        let mut count = 0;
        while it.valid() {
            count += 1;
            it.next();
        }
        assert_eq!(count, 500);
        it.status().unwrap();
        // Workers may still be draining the queue; poll briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while cache.stats().readahead_issued == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(cache.stats().readahead_issued > 0, "scan should issue prefetch");
    }

    #[test]
    fn hmac_table_end_to_end_get_scan_and_tamper() {
        let key = [5u8; 32];
        let env = MemEnv::new();
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let opts = TableBuilderOptions {
            block_size: 256,
            mac_key: Some(key),
            ..TableBuilderOptions::default()
        };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..300u32 {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("value-{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap();
        let open = |env: &MemEnv| {
            let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
            Table::open_with_fetcher(
                file,
                9,
                9,
                BlockFetcher::new(None, 0),
                None,
                ReadIntegrity { key, expect_hmac: true, events: None },
            )
        };
        let t = Arc::new(open(&env).unwrap());
        // Gets and full scans verify every block and succeed untampered.
        assert_eq!(t.get(b"key000100", 100).unwrap().unwrap().1, b"value-100");
        let mut it = t.iter();
        it.seek_to_first();
        let mut count = 0;
        while it.valid() {
            count += 1;
            it.next();
        }
        assert_eq!(count, 300);
        it.status().unwrap();
        // Flip a bit inside the first data block's contents: the scan
        // must die with IntegrityViolation.
        let mut raw = env.raw_content("t.sst").unwrap();
        raw[10] ^= 0x01;
        env.set_raw_content("t.sst", raw).unwrap();
        let t = Arc::new(open(&env).unwrap());
        let mut it = t.iter();
        it.seek_to_first();
        while it.valid() {
            it.next();
        }
        let err = it.status().unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }

    #[test]
    fn legacy_table_under_hmac_mode_bumps_unprotected_gauge() {
        let env = MemEnv::new();
        build_table(&env, "t.sst", 100, 4096); // v1 file
        let stats = crate::statistics::Statistics::new();
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Table::open_with_fetcher(
            file,
            3,
            3,
            BlockFetcher::new(None, 0),
            Some(stats.clone()),
            ReadIntegrity { key: [1u8; 32], expect_hmac: true, events: None },
        )
        .unwrap();
        assert_eq!(stats.snapshot().integrity_unprotected_files, 1);
        // Still fully readable (and CRC-checked, not MAC-checked).
        assert!(t.get(b"key000050", 100).unwrap().is_some());
        assert_eq!(stats.snapshot().integrity_checks, 0);
    }

    #[test]
    fn works_with_encrypted_file_layer() {
        use shield_crypto::Algorithm;
        use shield_kds::{DekResolver, KdsConfig, LocalKds, ServerId};

        let env = MemEnv::new();
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let resolver =
            Arc::new(DekResolver::new(kds, None, ServerId(1), Algorithm::Aes128Ctr));
        let cfg = crate::encryption::EncryptionConfig::new(resolver);
        let (file, dek_id) = cfg.new_writable(&env, "enc.sst", FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(
            file,
            TableBuilderOptions { dek_id: Some(dek_id), ..TableBuilderOptions::default() },
        );
        for i in 0..200u32 {
            let ik = make_internal_key(format!("k{i:05}").as_bytes(), 3, ValueType::Value);
            b.add(&ik, b"secret-value").unwrap();
        }
        b.finish().unwrap();
        // Raw bytes on disk must not contain the key material.
        let raw = env.raw_content("enc.sst").unwrap();
        assert!(!raw.windows(6).any(|w| w == b"k00100"));
        assert!(!raw.windows(12).any(|w| w == b"secret-value"));
        // And reading through the decryption layer works.
        let file = cfg.open_random(&env, "enc.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 1, None).unwrap());
        assert_eq!(t.properties().dek_id, Some(dek_id));
        let hit = t.get(b"k00100", 100).unwrap().unwrap();
        assert_eq!(hit.1, b"secret-value");
    }
}
