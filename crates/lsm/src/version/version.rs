//! An immutable snapshot of the LSM shape: which files live at which level.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::Result;
use crate::iter::InternalIterator;
use crate::sst::{BlockStep, Probe, Table};
use crate::types::{extract_seq_type, extract_user_key, make_lookup_key, SequenceNumber, ValueType};
use crate::version::edit::FileMeta;
use crate::version::table_cache::TableCache;

/// Number of levels (RocksDB default: 7).
pub const NUM_LEVELS: usize = 7;

/// Result of a point lookup against persistent state.
#[derive(Debug, PartialEq, Eq)]
pub enum GetResult {
    /// A live value.
    Found(Vec<u8>),
    /// A tombstone shadows the key.
    Deleted,
    /// Not present in any file.
    NotFound,
}

/// An immutable file layout. L0 files may overlap and are ordered newest
/// first; L1+ files are disjoint and ordered by smallest key.
#[derive(Clone, Default)]
pub struct Version {
    /// Files per level.
    pub files: Vec<Vec<Arc<FileMeta>>>,
}

impl Version {
    /// An empty version.
    #[must_use]
    pub fn new() -> Self {
        Version { files: vec![Vec::new(); NUM_LEVELS] }
    }

    /// Total bytes at `level`.
    #[must_use]
    pub fn level_size(&self, level: usize) -> u64 {
        self.files[level].iter().map(|f| f.file_size).sum()
    }

    /// Number of files at `level`.
    #[must_use]
    pub fn level_files(&self, level: usize) -> usize {
        self.files[level].len()
    }

    /// Total number of live SST files.
    #[must_use]
    pub fn total_files(&self) -> usize {
        self.files.iter().map(Vec::len).sum()
    }

    /// All live file numbers.
    #[must_use]
    pub fn live_files(&self) -> Vec<u64> {
        self.files.iter().flatten().map(|f| f.number).collect()
    }

    /// Point lookup at sequence `seq`.
    pub fn get(
        &self,
        table_cache: &TableCache,
        user_key: &[u8],
        seq: SequenceNumber,
    ) -> Result<GetResult> {
        self.get_opt(table_cache, user_key, seq, true)
    }

    /// [`Version::get`] with cache-admission control (`fill_cache = false`
    /// reads around the block cache).
    pub fn get_opt(
        &self,
        table_cache: &TableCache,
        user_key: &[u8],
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Result<GetResult> {
        for meta in self.candidates(user_key) {
            if let Some(result) = self.get_in_file(table_cache, meta, user_key, seq, fill_cache)? {
                return Ok(result);
            }
        }
        Ok(GetResult::NotFound)
    }

    /// The files that may hold `user_key`, in the order a lookup visits
    /// them: the overlapping L0 files newest first, then at most one file
    /// per deeper level (found by `partition_point`).
    fn candidates<'a>(&'a self, user_key: &'a [u8]) -> impl Iterator<Item = &'a Arc<FileMeta>> {
        let l0 = self.files[0].iter().filter(move |f| {
            user_key >= f.smallest_user_key() && user_key <= f.largest_user_key()
        });
        let deeper = self.files[1..].iter().filter_map(move |files| {
            let idx = files.partition_point(|f| f.largest_user_key() < user_key);
            files.get(idx).filter(|f| user_key >= f.smallest_user_key())
        });
        l0.chain(deeper)
    }

    /// Batched point lookup at sequence `seq`: one slot per key, each
    /// equal to [`Version::get_opt`] and reading exactly the blocks it
    /// would. The batch resolves in waves. A wave holds, for every
    /// unresolved key, the next data block a serial lookup of that key
    /// would read, across every file and level, and fetches them all in
    /// one [`crate::sst::BlockFetcher::get_many`]: a cold batch costs a
    /// round trip per wave, not one per file. Planning a key's next block
    /// (`Table::plan`: bloom check, index seek) does no I/O, because
    /// filters and indexes are pinned. A key leaves the batch once it is
    /// found, deleted or failed; otherwise its next block or next
    /// candidate file joins the next wave. Errors are per slot.
    pub fn multi_get_opt(
        &self,
        table_cache: &TableCache,
        keys: &[&[u8]],
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Vec<Result<GetResult>> {
        /// One key's progress through its candidate files.
        struct KeyLookup<C> {
            lookup: Vec<u8>,
            candidates: C,
            /// The table being probed and the block the next wave reads.
            pending: Option<(Arc<Table>, BlockStep)>,
        }
        impl<C> KeyLookup<C> {
            /// Applies `table`'s answer: a result resolves the key, a
            /// block to read stays pending, `Absent` leaves the key ready
            /// for its next candidate.
            fn step(
                &mut self,
                table: Arc<Table>,
                probe: Result<Probe>,
            ) -> Option<Result<GetResult>> {
                match probe {
                    Err(e) => Some(Err(e)),
                    Ok(Probe::Found(ikey, value)) => Some(Version::classify_entry(&ikey, value)),
                    Ok(Probe::Read(step)) => {
                        self.pending = Some((table, step));
                        None
                    }
                    Ok(Probe::Absent) => None,
                }
            }
        }

        self.warm_candidate_tables(table_cache, keys);
        let mut out: Vec<Option<Result<GetResult>>> = Vec::new();
        out.resize_with(keys.len(), || None);
        let mut lookups: Vec<_> = keys
            .iter()
            .map(|&k| KeyLookup {
                lookup: make_lookup_key(k, seq),
                candidates: self.candidates(k),
                pending: None,
            })
            .collect();
        let mut unresolved: Vec<usize> = (0..keys.len()).collect();
        loop {
            // Plan: walk every key without a pending block to its next
            // bloom-positive candidate.
            unresolved.retain(|&slot| {
                let l = &mut lookups[slot];
                while l.pending.is_none() {
                    let Some(meta) = l.candidates.next() else {
                        out[slot] = Some(Ok(GetResult::NotFound));
                        return false;
                    };
                    let resolved = match table_cache.get(meta.number) {
                        Ok(table) => {
                            let probe = table.plan(&l.lookup);
                            l.step(table, probe)
                        }
                        Err(e) => Some(Err(e)),
                    };
                    if let Some(result) = resolved {
                        out[slot] = Some(result);
                        return false;
                    }
                }
                true
            });
            if unresolved.is_empty() {
                break;
            }
            // Fetch: the wave's blocks, deduplicated, in one batch.
            let mut request_of: Vec<usize> = Vec::with_capacity(unresolved.len());
            let fetched = {
                let mut index: HashMap<(u64, u64), usize> = HashMap::new();
                let mut requests = Vec::new();
                for &slot in &unresolved {
                    let (table, step) = lookups[slot].pending.as_ref().expect("planned");
                    let r = *index.entry((table.table_id(), step.handle.offset)).or_insert_with(|| {
                        requests.push(table.block_request(step.handle));
                        requests.len() - 1
                    });
                    request_of.push(r);
                }
                table_cache.fetcher().get_many(&requests, fill_cache)
            };
            // Resolve: seek each key inside its fetched block.
            let mut next = Vec::with_capacity(unresolved.len());
            for (&slot, &r) in unresolved.iter().zip(&request_of) {
                let l = &mut lookups[slot];
                let (table, step) = l.pending.take().expect("planned");
                let resolved = match &fetched[r] {
                    Ok(block) => {
                        let probe = table.resolve(block.block(), &l.lookup, step);
                        l.step(table, probe)
                    }
                    Err(e) => Some(Err(e.clone())),
                };
                match resolved {
                    Some(result) => out[slot] = Some(result),
                    None => next.push(slot),
                }
            }
            unresolved = next;
        }
        out.into_iter().map(|slot| slot.expect("every key resolved")).collect()
    }

    /// Opens the tables a batch might touch that the [`TableCache`] does
    /// not hold yet, concurrently.
    ///
    /// A cold [`Table::open`] costs several storage round trips (footer,
    /// index, bloom, properties — plus the DEK resolve in SHIELD mode);
    /// opening a batch's candidate files one after another would
    /// serialize those trips and dominate the whole batch on a remote
    /// env. [`TableCache::get`] is concurrency-safe and idempotent, so
    /// this is a pure warm-up: open errors are ignored here — the plan
    /// step re-encounters them and attributes them to the right slots.
    /// Candidacy is over-approximate on purpose (a key that resolves at
    /// L0 still warms its L1+ candidates); those tables stay in the cache
    /// for the next lookup. A batch whose tables are all open spawns
    /// nothing.
    fn warm_candidate_tables(&self, table_cache: &TableCache, keys: &[&[u8]]) {
        const WARM_THREADS: usize = 8;
        let mut cold: Vec<u64> = keys
            .iter()
            .flat_map(|&k| self.candidates(k))
            .map(|f| f.number)
            .filter(|&n| !table_cache.is_open(n))
            .collect();
        cold.sort_unstable();
        cold.dedup();
        if cold.len() < 2 {
            return; // nothing to overlap
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let open = || loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(&number) = cold.get(i) else { break };
            let _ = table_cache.get(number);
        };
        std::thread::scope(|scope| {
            // The calling thread opens tables too.
            for _ in 1..cold.len().min(WARM_THREADS) {
                scope.spawn(open);
            }
            open();
        });
    }

    /// Maps a raw table entry to its visible [`GetResult`].
    fn classify_entry(ikey: &[u8], value: Vec<u8>) -> Result<GetResult> {
        match extract_seq_type(ikey).1 {
            Some(ValueType::Value) => Ok(GetResult::Found(value)),
            Some(ValueType::Deletion) => Ok(GetResult::Deleted),
            None => Err(crate::error::Error::Corruption("bad value type in table entry".into())),
        }
    }

    fn get_in_file(
        &self,
        table_cache: &TableCache,
        meta: &FileMeta,
        user_key: &[u8],
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Result<Option<GetResult>> {
        let table = table_cache.get(meta.number)?;
        match table.get_opt(user_key, seq, fill_cache)? {
            None => Ok(None),
            Some((ikey, value)) => {
                debug_assert_eq!(extract_user_key(&ikey), user_key);
                Self::classify_entry(&ikey, value).map(Some)
            }
        }
    }

    /// Files at `level` whose user-key range intersects
    /// `[smallest, largest]` (inclusive; `None` bounds are open).
    #[must_use]
    pub fn overlapping_files(
        &self,
        level: usize,
        smallest: Option<&[u8]>,
        largest: Option<&[u8]>,
    ) -> Vec<Arc<FileMeta>> {
        self.files[level]
            .iter()
            .filter(|f| {
                let below = largest.is_some_and(|l| f.smallest_user_key() > l);
                let above = smallest.is_some_and(|s| f.largest_user_key() < s);
                !below && !above
            })
            .cloned()
            .collect()
    }

    /// Iterators covering every persistent entry: one per L0 file plus one
    /// concatenating iterator per deeper non-empty level. Listed newest
    /// first, as the merging iterator's tie-break requires.
    pub fn iterators(
        &self,
        table_cache: &Arc<TableCache>,
    ) -> Result<Vec<Box<dyn InternalIterator>>> {
        let mut out: Vec<Box<dyn InternalIterator>> = Vec::new();
        for meta in &self.files[0] {
            let table = table_cache.get(meta.number)?;
            out.push(Box::new(table.iter()));
        }
        for level in 1..self.files.len() {
            if !self.files[level].is_empty() {
                out.push(Box::new(LevelIterator::new(
                    self.files[level].clone(),
                    table_cache.clone(),
                )));
            }
        }
        Ok(out)
    }
}

/// Concatenating iterator over a level's disjoint, sorted files.
pub struct LevelIterator {
    files: Vec<Arc<FileMeta>>,
    table_cache: Arc<TableCache>,
    file_index: usize,
    current: Option<crate::sst::TableIterator>,
    /// Per-iterator readahead override; `None` uses the fetcher default.
    readahead_blocks: Option<usize>,
    status: Result<()>,
}

impl LevelIterator {
    /// Creates an iterator over `files`, which must be disjoint and sorted
    /// by smallest key.
    #[must_use]
    pub fn new(files: Vec<Arc<FileMeta>>, table_cache: Arc<TableCache>) -> Self {
        LevelIterator {
            files,
            table_cache,
            file_index: 0,
            current: None,
            readahead_blocks: None,
            status: Ok(()),
        }
    }

    /// [`LevelIterator::new`] with an explicit readahead depth (used by
    /// compaction, whose strictly sequential scans benefit from deeper
    /// prefetch than point-query-heavy foreground iterators).
    #[must_use]
    pub fn new_with_readahead(
        files: Vec<Arc<FileMeta>>,
        table_cache: Arc<TableCache>,
        readahead_blocks: usize,
    ) -> Self {
        LevelIterator {
            files,
            table_cache,
            file_index: 0,
            current: None,
            readahead_blocks: Some(readahead_blocks),
            status: Ok(()),
        }
    }

    fn open_file(&mut self, index: usize) {
        self.current = None;
        self.file_index = index;
        if index >= self.files.len() {
            return;
        }
        match self.table_cache.get(self.files[index].number) {
            Ok(table) => {
                self.current = Some(match self.readahead_blocks {
                    Some(k) => table.iter_with_readahead(k),
                    None => table.iter(),
                });
            }
            Err(e) => self.status = Err(e),
        }
    }

    fn advance_past_empty(&mut self) {
        loop {
            match &self.current {
                Some(it) if it.valid() => return,
                _ => {
                    if self.status.is_err() || self.file_index + 1 >= self.files.len() {
                        self.current = None;
                        return;
                    }
                    let next = self.file_index + 1;
                    self.open_file(next);
                    if let Some(it) = &mut self.current {
                        it.seek_to_first();
                    }
                }
            }
        }
    }
}

impl InternalIterator for LevelIterator {
    fn valid(&self) -> bool {
        self.current.as_ref().is_some_and(InternalIterator::valid)
    }

    fn seek_to_first(&mut self) {
        if self.files.is_empty() {
            self.current = None;
            return;
        }
        self.open_file(0);
        if let Some(it) = &mut self.current {
            it.seek_to_first();
        }
        self.advance_past_empty();
    }

    fn seek(&mut self, target: &[u8]) {
        let user = extract_user_key(target);
        let idx = self.files.partition_point(|f| f.largest_user_key() < user);
        if idx >= self.files.len() {
            self.current = None;
            self.file_index = self.files.len();
            return;
        }
        self.open_file(idx);
        if let Some(it) = &mut self.current {
            it.seek(target);
        }
        self.advance_past_empty();
    }

    fn next(&mut self) {
        if let Some(it) = &mut self.current {
            it.next();
        }
        self.advance_past_empty();
    }

    fn key(&self) -> &[u8] {
        self.current.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.current.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        self.status.clone()?;
        if let Some(it) = &self.current {
            it.status()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::types::make_internal_key;
    use crate::version::filenames::sst_file_name;
    use shield_env::{Env, FileKind, MemEnv};

    /// Builds an SST with the given user keys (seq 10) and returns meta.
    fn build(env: &MemEnv, number: u64, keys: &[&str]) -> Arc<FileMeta> {
        let path = shield_env::join_path("db", &sst_file_name(number));
        let file = env.new_writable_file(&path, FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(file, TableBuilderOptions::default());
        let mut sorted: Vec<&str> = keys.to_vec();
        sorted.sort_unstable();
        for k in &sorted {
            let ik = make_internal_key(k.as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("{k}@{number}").as_bytes()).unwrap();
        }
        let (_, size) = b.finish().unwrap();
        Arc::new(FileMeta {
            number,
            file_size: size,
            smallest: make_internal_key(sorted.first().unwrap().as_bytes(), 10, ValueType::Value),
            largest: make_internal_key(sorted.last().unwrap().as_bytes(), 10, ValueType::Value),
            dek_id: None,
        })
    }

    fn cache(env: &MemEnv) -> Arc<TableCache> {
        TableCache::new(Arc::new(env.clone()), "db".into(), None, None, 16)
    }

    #[test]
    fn get_prefers_newer_l0_file() {
        let env = MemEnv::new();
        let old = build(&env, 1, &["k"]);
        let new = build(&env, 2, &["k"]);
        let mut v = Version::new();
        // L0 newest first.
        v.files[0] = vec![new, old];
        let tc = cache(&env);
        assert_eq!(v.get(&tc, b"k", 100).unwrap(), GetResult::Found(b"k@2".to_vec()));
    }

    #[test]
    fn get_searches_deeper_levels() {
        let env = MemEnv::new();
        let l1 = build(&env, 3, &["a", "m"]);
        let l2 = build(&env, 4, &["z"]);
        let mut v = Version::new();
        v.files[1] = vec![l1];
        v.files[2] = vec![l2];
        let tc = cache(&env);
        assert_eq!(v.get(&tc, b"m", 100).unwrap(), GetResult::Found(b"m@3".to_vec()));
        assert_eq!(v.get(&tc, b"z", 100).unwrap(), GetResult::Found(b"z@4".to_vec()));
        assert_eq!(v.get(&tc, b"q", 100).unwrap(), GetResult::NotFound);
    }

    #[test]
    fn multi_get_matches_serial_gets_across_levels() {
        let env = MemEnv::new();
        let l0_new = build(&env, 5, &["b", "k"]);
        let l0_old = build(&env, 4, &["b", "x"]);
        let l1a = build(&env, 1, &["a", "c"]);
        let l1b = build(&env, 2, &["m", "p"]);
        let l2 = build(&env, 3, &["z"]);
        let mut v = Version::new();
        v.files[0] = vec![l0_new, l0_old]; // newest first
        v.files[1] = vec![l1a, l1b];
        v.files[2] = vec![l2];
        let tc = cache(&env);
        let keys: Vec<&[u8]> =
            vec![b"a", b"b", b"c", b"k", b"m", b"p", b"q", b"x", b"z", b"zz"];
        let batched = v.multi_get_opt(&tc, &keys, 100, true);
        for (key, got) in keys.iter().zip(batched) {
            let serial = v.get(&tc, key, 100).unwrap();
            assert_eq!(got.unwrap(), serial, "divergence on {:?}", String::from_utf8_lossy(key));
        }
        // Spot-check shadowing: "b" must come from the newer L0 file.
        let got = v.multi_get_opt(&tc, &[b"b"], 100, true);
        assert_eq!(got[0].as_ref().unwrap(), &GetResult::Found(b"b@5".to_vec()));
    }

    #[test]
    fn overlapping_files_filters_by_range() {
        let env = MemEnv::new();
        let a = build(&env, 1, &["a", "c"]);
        let b = build(&env, 2, &["e", "g"]);
        let c = build(&env, 3, &["i", "k"]);
        let mut v = Version::new();
        v.files[1] = vec![a, b, c];
        let hits = v.overlapping_files(1, Some(b"d"), Some(b"h"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].number, 2);
        let all = v.overlapping_files(1, None, None);
        assert_eq!(all.len(), 3);
        // Boundary inclusivity.
        let edge = v.overlapping_files(1, Some(b"g"), Some(b"i"));
        assert_eq!(edge.len(), 2);
    }

    #[test]
    fn level_iterator_concatenates() {
        let env = MemEnv::new();
        let f1 = build(&env, 1, &["a", "b"]);
        let f2 = build(&env, 2, &["c", "d"]);
        let tc = cache(&env);
        let mut it = LevelIterator::new(vec![f1, f2], tc);
        it.seek_to_first();
        let mut keys = Vec::new();
        while it.valid() {
            keys.push(extract_user_key(it.key()).to_vec());
            it.next();
        }
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
        // Seek into the second file directly.
        it.seek(&make_internal_key(b"c", u64::MAX >> 8, ValueType::Value));
        assert!(it.valid());
        assert_eq!(extract_user_key(it.key()), b"c");
        it.seek(&make_internal_key(b"x", u64::MAX >> 8, ValueType::Value));
        assert!(!it.valid());
    }

    #[test]
    fn version_iterators_cover_all_sources() {
        let env = MemEnv::new();
        let l0a = build(&env, 1, &["a"]);
        let l0b = build(&env, 2, &["b"]);
        let l1 = build(&env, 3, &["c", "d"]);
        let mut v = Version::new();
        v.files[0] = vec![l0b, l0a];
        v.files[1] = vec![l1];
        let tc = cache(&env);
        let iters = v.iterators(&tc).unwrap();
        assert_eq!(iters.len(), 3); // two L0 + one level iterator
        let mut m = crate::iter::MergingIterator::new(iters);
        m.seek_to_first();
        let mut n = 0;
        while m.valid() {
            n += 1;
            m.next();
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn level_size_accounting() {
        let env = MemEnv::new();
        let f = build(&env, 1, &["a"]);
        let size = f.file_size;
        let mut v = Version::new();
        v.files[1] = vec![f];
        assert_eq!(v.level_size(1), size);
        assert_eq!(v.level_size(0), 0);
        assert_eq!(v.total_files(), 1);
        assert_eq!(v.live_files(), vec![1]);
    }
}
