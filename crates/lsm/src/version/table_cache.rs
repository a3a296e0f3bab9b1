//! Keeps recently used [`Table`] readers open, keyed by file number.
//!
//! Opening a table in SHIELD mode reads the plaintext file header, resolves
//! the DEK (secure cache → KDS), and builds the decryption context — so
//! this cache is also what bounds DEK-resolution traffic on the read path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shield_env::{Env, FileKind};

use crate::cache::BlockCache;
use crate::encryption::EncryptionConfig;
use crate::error::Result;
use crate::integrity::{Integrity, IntegrityOptions, ReadIntegrity};
use crate::sst::{BlockFetcher, Table};
use crate::version::filenames::sst_file_name;

struct Inner {
    tables: HashMap<u64, (Arc<Table>, u64)>,
    tick: u64,
}

/// Process-wide counter handing every [`TableCache`] a distinct owner id.
/// Folded into block-cache keys so databases *sharing* one
/// [`BlockCache`] (a [`crate::ShardedDb`]'s shards) can never collide on
/// equal file numbers.
static NEXT_CACHE_OWNER: AtomicU64 = AtomicU64::new(0);

/// File numbers occupy the low 40 bits of a cache table id (a database
/// writing one file per millisecond would take ~35 years to overflow);
/// the owner id fills the high bits.
const FILE_NUMBER_BITS: u32 = 40;

/// An LRU cache of open table readers.
///
/// Owns the engine's one [`BlockFetcher`]: every table opened here shares
/// its block cache, single-flight table, and prefetch pool.
pub struct TableCache {
    env: Arc<dyn Env>,
    db_path: String,
    encryption: Option<EncryptionConfig>,
    fetcher: Arc<BlockFetcher>,
    stats: Option<Arc<crate::statistics::Statistics>>,
    integrity: IntegrityOptions,
    events: Option<Arc<shield_core::EventDispatcher>>,
    capacity: usize,
    /// This cache's slice of the block-cache key space.
    cache_owner: u64,
    inner: Mutex<Inner>,
}

impl TableCache {
    /// Creates a cache holding at most `capacity` open tables.
    #[must_use]
    pub fn new(
        env: Arc<dyn Env>,
        db_path: String,
        encryption: Option<EncryptionConfig>,
        block_cache: Option<Arc<BlockCache>>,
        capacity: usize,
    ) -> Arc<Self> {
        Self::new_with_stats(
            env,
            db_path,
            encryption,
            block_cache,
            None,
            capacity,
            0,
            crate::sst::fetcher::DEFAULT_INFLIGHT_READS,
            IntegrityOptions::default(),
            None,
        )
    }

    /// [`TableCache::new`] with an engine ticker sink handed to every
    /// opened [`Table`] (for `bloom_useful` accounting), a default
    /// readahead depth for iterators over these tables, the in-flight
    /// depth for batched reads, and the engine's integrity settings plus
    /// the event sink violations report to.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_stats(
        env: Arc<dyn Env>,
        db_path: String,
        encryption: Option<EncryptionConfig>,
        block_cache: Option<Arc<BlockCache>>,
        stats: Option<Arc<crate::statistics::Statistics>>,
        capacity: usize,
        readahead_blocks: usize,
        max_inflight_reads: usize,
        integrity: IntegrityOptions,
        events: Option<Arc<shield_core::EventDispatcher>>,
    ) -> Arc<Self> {
        Arc::new(TableCache {
            env,
            db_path,
            encryption,
            fetcher: BlockFetcher::with_depth(block_cache, readahead_blocks, max_inflight_reads),
            stats,
            integrity,
            events,
            capacity: capacity.max(4),
            cache_owner: NEXT_CACHE_OWNER.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner { tables: HashMap::new(), tick: 0 }),
        })
    }

    /// The shared fetcher all tables opened by this cache read through.
    #[must_use]
    pub fn fetcher(&self) -> &Arc<BlockFetcher> {
        &self.fetcher
    }

    /// Returns the open table for `file_number`, opening it if needed.
    pub fn get(&self, file_number: u64) -> Result<Arc<Table>> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((table, stamp)) = inner.tables.get_mut(&file_number) {
                *stamp = tick;
                return Ok(table.clone());
            }
        }
        // Open outside the lock: DEK resolution may hit the network.
        let path = shield_env::join_path(&self.db_path, &sst_file_name(file_number));
        // SHIELD files verify with a subkey of their own DEK; plaintext
        // files fall back to the engine-wide integrity key.
        let (file, dek_mac) = match &self.encryption {
            Some(cfg) => cfg.open_random_with_mac(self.env.as_ref(), &path, FileKind::Sst)?,
            None => (self.env.new_random_access_file(&path, FileKind::Sst)?, None),
        };
        let read_integrity = ReadIntegrity {
            key: dek_mac.unwrap_or(self.integrity.key),
            expect_hmac: self.integrity.mode == Integrity::Hmac,
            events: self.events.clone(),
        };
        let table = Arc::new(Table::open_with_fetcher(
            file,
            (self.cache_owner << FILE_NUMBER_BITS) | (file_number & ((1 << FILE_NUMBER_BITS) - 1)),
            file_number,
            self.fetcher.clone(),
            self.stats.clone(),
            read_integrity,
        )?);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.tables.insert(file_number, (table.clone(), tick));
        while inner.tables.len() > self.capacity {
            let victim = inner
                .tables
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
                .expect("non-empty");
            inner.tables.remove(&victim);
        }
        Ok(table)
    }

    /// True if the reader for `file_number` is open. Unlike
    /// [`TableCache::get`], this never opens the table.
    #[must_use]
    pub fn is_open(&self, file_number: u64) -> bool {
        self.inner.lock().tables.contains_key(&file_number)
    }

    /// Drops the cached reader for a deleted file.
    pub fn evict(&self, file_number: u64) {
        self.inner.lock().tables.remove(&file_number);
    }

    /// Number of currently open tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().tables.len()
    }

    /// True if no tables are open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::types::{make_internal_key, ValueType};
    use shield_env::MemEnv;

    fn build(env: &MemEnv, number: u64) {
        let path = shield_env::join_path("db", &sst_file_name(number));
        let file = env.new_writable_file(&path, FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(file, TableBuilderOptions::default());
        let ik = make_internal_key(format!("key-{number}").as_bytes(), 1, ValueType::Value);
        b.add(&ik, b"v").unwrap();
        b.finish().unwrap();
    }

    #[test]
    fn opens_and_caches() {
        let env = MemEnv::new();
        build(&env, 1);
        let cache = TableCache::new(Arc::new(env), "db".into(), None, None, 8);
        let a = cache.get(1).unwrap();
        let b = cache.get(1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_lru_beyond_capacity() {
        let env = MemEnv::new();
        for n in 1..=10 {
            build(&env, n);
        }
        let cache = TableCache::new(Arc::new(env), "db".into(), None, None, 4);
        for n in 1..=10 {
            cache.get(n).unwrap();
        }
        assert!(cache.len() <= 4);
    }

    #[test]
    fn explicit_evict() {
        let env = MemEnv::new();
        build(&env, 1);
        let cache = TableCache::new(Arc::new(env), "db".into(), None, None, 8);
        cache.get(1).unwrap();
        cache.evict(1);
        assert!(cache.is_empty());
    }

    #[test]
    fn missing_file_is_error() {
        let env = MemEnv::new();
        let cache = TableCache::new(Arc::new(env), "db".into(), None, None, 8);
        assert!(cache.get(42).is_err());
    }
}
