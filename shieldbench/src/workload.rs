//! The three workloads: set-up, the timed closed-loop phase, and the
//! correctness and encryption-at-rest checks that follow it.
//!
//! Shared settings: `open_shield` with `ShieldOptions::new` defaults
//! (AES-128-CTR, 512 B WAL buffer, secure DEK cache), the SSToolkit-like
//! KDS profile, 16 B keys, 100 B values, and the WAL on with
//! `sync: false` on every put. Clients run a closed loop: each waits for
//! a reply before it sends its next request.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use shield::{open_shield, open_shield_replica, ShieldDb, ShieldOptions, ShieldReplica};
use shield_core::perf::{self, PerfGuard};
use shield_core::PerfContext;
use shield_env::{Env, EnvError, IoStats, IoStatsSnapshot, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Options, ReadOptions, ReplicaOptions, StatsSnapshot, WriteOptions};

use crate::data::{self, Ledger, Rng, Zipf, KEY_LEN, VALUE_LEN};
use crate::trace::{Layer, Op, TimedEnv, TimedKds, Tracer, PRIMARY, REPLICA};

pub const PUT: WriteOptions = WriteOptions { sync: false };
const DB: &str = "db";
const REPLICA_CACHE: &str = "replica.cache";
const PRIMARY_ID: ServerId = ServerId(1);
const REPLICA_ID: ServerId = ServerId(2);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Fill,
    DsRead,
    DsReplica,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fill" => Some(Workload::Fill),
            "ds_read" => Some(Workload::DsRead),
            "ds_replica" => Some(Workload::DsReplica),
            _ => None,
        }
    }

    /// The op whose latency the headline metrics report.
    pub fn main_op(self) -> Op {
        match self {
            Workload::Fill => Op::Put,
            Workload::DsRead => Op::Get,
            Workload::DsReplica => Op::ReplicaGet,
        }
    }

    /// Clients that send puts (for the stall share).
    pub fn writers(self) -> usize {
        match self {
            Workload::Fill => FILL_WRITERS,
            Workload::DsRead => 0,
            Workload::DsReplica => 1,
        }
    }

    /// Whether storage sits behind a simulated network.
    pub fn remote(self) -> bool {
        self != Workload::Fill
    }
}

const FILL_WRITERS: usize = 2;
const FILL_KEYS: u32 = 2_000_000;
const READ_KEYS: u32 = 200_000;
const READ_CACHE_BYTES: usize = 4 << 20;
const READERS: usize = 2;
const SCAN_LEN: usize = 50;
const MULTIGET_KEYS: usize = 16;
const REPLICA_KEYS: u32 = 100_000;
/// Keys compared between replica and primary after the run.
const REPLICA_CHECK_SAMPLE: u32 = 4_000;

/// Everything measured in one timed phase.
pub struct Measured {
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// Latency samples in ns, indexed by `Op as usize`; failed ops too.
    pub lat_ns: Vec<Vec<u64>>,
    /// Ops that returned an error, and the first few errors.
    pub failed: u64,
    pub failures: Vec<String>,
    pub traced: Option<Traced>,
}

/// Counter deltas and per-layer inputs of a traced phase.
pub struct Traced {
    pub tracer: Arc<Tracer>,
    /// Foreground `PerfContext` summed per op type.
    pub perf: Vec<PerfContext>,
    pub primary: StatsSnapshot,
    pub replica: Option<StatsSnapshot>,
    /// DEK resolver (cache hits, cache misses) over the phase.
    pub primary_resolver: (u64, u64),
    /// The primary's and the replica's mount-level I/O (`Env::io_stats`).
    pub primary_io: IoStatsSnapshot,
    pub replica_io: Option<IoStatsSnapshot>,
    pub replica_resolver: Option<(u64, u64)>,
    pub cipher_inits: u64,
    /// Replication lag in records (primary's last sequence minus the
    /// replica's served sequence), sampled before each replica read.
    pub lag: Vec<u64>,
    /// Bytes of every file in the database directory at the end.
    pub store_bytes: u64,
    /// Distinct keys times entry size at the end.
    pub live_bytes: u64,
}

/// One client's recordings.
struct Client {
    lat_ns: Vec<Vec<u64>>,
    perf: Vec<PerfContext>,
    lag: Vec<u64>,
    traced: bool,
    /// Ops that returned an error: counted, and the client goes on.
    failed: u64,
    failures: Vec<String>,
    /// A wrong value: the run stops and fails.
    wrong: Option<String>,
}

impl Client {
    fn new(traced: bool) -> Client {
        Client {
            lat_ns: vec![Vec::new(); Op::COUNT],
            perf: vec![PerfContext::ZERO; Op::COUNT],
            lag: Vec::new(),
            traced,
            failed: 0,
            failures: Vec::new(),
            wrong: None,
        }
    }

    /// Times one op, under a root span when tracing.
    fn op<R>(&mut self, op: Op, tracer: Option<&Tracer>, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = match tracer {
            Some(tr) => tr.op(op, f),
            None => f(),
        };
        self.lat_ns[op as usize].push(t.elapsed().as_nanos() as u64);
        if self.traced {
            add_perf(&mut self.perf[op as usize], &perf::take());
        }
        out
    }

    fn failed(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    fn wrong(&mut self, msg: String) {
        self.wrong.get_or_insert(msg);
    }
}

pub fn add_perf(acc: &mut PerfContext, c: &PerfContext) {
    acc.wal_append_nanos += c.wal_append_nanos;
    acc.wal_sync_nanos += c.wal_sync_nanos;
    acc.memtable_insert_nanos += c.memtable_insert_nanos;
    acc.memtable_lookup_nanos += c.memtable_lookup_nanos;
    acc.block_read_nanos += c.block_read_nanos;
    acc.block_decrypt_nanos += c.block_decrypt_nanos;
    acc.block_encrypt_nanos += c.block_encrypt_nanos;
    acc.dek_resolve_nanos += c.dek_resolve_nanos;
    acc.cache_lookup_nanos += c.cache_lookup_nanos;
    acc.subcompaction_nanos += c.subcompaction_nanos;
    acc.io_batch_wait_nanos += c.io_batch_wait_nanos;
    acc.blocks_read += c.blocks_read;
    acc.bloom_probes += c.bloom_probes;
    acc.cipher_inits += c.cipher_inits;
    acc.singleflight_waits += c.singleflight_waits;
}

/// Process user+system CPU seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn kds(base: &Arc<dyn Kds>, tracer: Option<&Arc<Tracer>>, node: usize) -> Arc<dyn Kds> {
    match tracer {
        Some(t) => TimedKds::new(base.clone(), t.clone(), node),
        None => base.clone(),
    }
}

/// The env a node opens files through: `backing`, behind a simulated
/// intra-datacenter link when `remote`, with timing wrappers above and
/// below the link when traced.
fn mount(
    backing: &MemEnv,
    remote: bool,
    tracer: Option<&Arc<Tracer>>,
    node: usize,
) -> Arc<dyn Env> {
    let wrap = |env: Arc<dyn Env>, layer: Layer| -> Arc<dyn Env> {
        match tracer {
            Some(t) => TimedEnv::new(env, t.clone(), layer, node),
            None => env,
        }
    };
    let backing: Arc<dyn Env> = Arc::new(backing.clone());
    if remote {
        let below = wrap(backing, Layer::Storage);
        wrap(
            Arc::new(RemoteEnv::new(below, NetworkModel::intra_datacenter())),
            Layer::Env,
        )
    } else {
        wrap(backing, Layer::Env)
    }
}

/// Opens the primary with default `Options`, but for the block cache size
/// and, with `auto_compaction` off, L0 triggers no flush can reach: no
/// compaction starts and no write stalls.
fn open_primary(
    env: Arc<dyn Env>,
    kds: Arc<dyn Kds>,
    cache_bytes: Option<usize>,
    auto_compaction: bool,
) -> Result<ShieldDb, String> {
    let mut opts = Options::new(env);
    if let Some(bytes) = cache_bytes {
        opts.block_cache_bytes = bytes;
    }
    if !auto_compaction {
        opts.compaction.l0_compaction_trigger = usize::MAX;
        opts.l0_slowdown_trigger = usize::MAX;
        opts.l0_stop_trigger = usize::MAX;
    }
    open_shield(
        opts,
        DB,
        ShieldOptions::new(kds, PRIMARY_ID, b"bench-primary"),
    )
    .map_err(err("open primary"))
}

/// Loads keys `0..n` (write 1 of each, in a seeded random order) and
/// compacts, on the storage node's own env: bulk load does not cross the
/// simulated network, so set-up stays short enough to repeat.
fn preload(
    backing: &MemEnv,
    kds: &Arc<dyn Kds>,
    ledger: &Ledger,
    seed: u64,
    n: u32,
) -> Result<(), String> {
    let db = open_primary(Arc::new(backing.clone()), kds.clone(), None, true)?;
    for id in Rng::new(seed, 0x10ad).permutation(n) {
        let widx = ledger.next_write(id);
        db.put(&PUT, &data::key(id), &data::value(seed, id, widx))
            .map_err(err("preload put"))?;
        ledger.ack(id, widx);
    }
    db.compact_all().map_err(err("preload compaction"))
}

/// A store that is set up and ready for its timed phase.
pub struct Prepared {
    workload: Workload,
    seed: u64,
    backing: MemEnv,
    base_kds: Arc<dyn Kds>,
    tracer: Option<Arc<Tracer>>,
    ledger: Ledger,
    primary: ShieldDb,
    replica: Option<ShieldReplica>,
    /// I/O counters of the primary's and the replica's mounts.
    io: Vec<Arc<IoStats>>,
}

/// Sets a workload's store up: everything before the timed phase.
pub fn prepare(
    workload: Workload,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
) -> Result<Prepared, String> {
    let backing = MemEnv::new();
    let base_kds: Arc<dyn Kds> = Arc::new(LocalKds::new(KdsConfig::sstoolkit_like()));
    let keys = match workload {
        Workload::Fill => FILL_KEYS,
        Workload::DsRead => READ_KEYS,
        Workload::DsReplica => REPLICA_KEYS,
    };
    let ledger = Ledger::new(keys);
    if workload != Workload::Fill {
        preload(&backing, &base_kds, &ledger, seed, keys)?;
    }
    let cache = (workload == Workload::DsRead).then_some(READ_CACHE_BYTES);
    let primary_mount = mount(&backing, workload.remote(), tracer.as_ref(), PRIMARY);
    let mut io: Vec<Arc<IoStats>> = primary_mount.io_stats().into_iter().collect();
    // A replica get fails when compaction deletes an SST the replica's
    // published view still names (the view is one poll behind), so
    // ds_replica's primary compacts only after the timed phase.
    let primary = open_primary(
        primary_mount,
        kds(&base_kds, tracer.as_ref(), PRIMARY),
        cache,
        workload != Workload::DsReplica,
    )?;
    let replica = if workload == Workload::DsReplica {
        let replica_mount = mount(&backing, true, tracer.as_ref(), REPLICA);
        io.extend(replica_mount.io_stats());
        Some(
            open_shield_replica(
                replica_mount,
                DB,
                REPLICA_CACHE,
                ShieldOptions::new(
                    kds(&base_kds, tracer.as_ref(), REPLICA),
                    REPLICA_ID,
                    b"bench-replica",
                ),
                ReplicaOptions::default(),
            )
            .map_err(err("open replica"))?,
        )
    } else {
        None
    };
    Ok(Prepared {
        workload,
        seed,
        backing,
        base_kds,
        tracer,
        ledger,
        primary,
        replica,
        io,
    })
}

impl Prepared {
    /// Tears an unused store down, stopping the replica's poller first.
    pub fn close(self) {
        if let Some(replica) = &self.replica {
            replica.stop();
        }
    }

    /// Runs the timed phase for `seconds`, then every check. Fails on the
    /// first wrong or failed op, or a failed check.
    pub fn run(self, seconds: f64) -> Result<Measured, String> {
        let stats_before = self.primary.statistics().snapshot();
        let replica_before = self.replica.as_ref().map(|r| r.statistics().snapshot());
        let res_before = self.primary.resolver.stats();
        let rres_before = self.replica.as_ref().map(|r| r.resolver.stats());
        let inits_before = self.primary.encryption.cipher_inits();
        let io_before: Vec<IoStatsSnapshot> = self.io.iter().map(|s| s.snapshot()).collect();
        let cpu_before = cpu_seconds()?;
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);

        let this = &self;
        let clients: Vec<Client> = thread::scope(|s| {
            let handles: Vec<_> = match self.workload {
                Workload::Fill => (0..FILL_WRITERS)
                    .map(|w| s.spawn(move || this.fill_writer(w, deadline)))
                    .collect(),
                Workload::DsRead => (0..READERS)
                    .map(|r| s.spawn(move || this.reader(r, deadline)))
                    .collect(),
                Workload::DsReplica => vec![
                    s.spawn(move || this.replica_primary_client(deadline)),
                    s.spawn(move || this.replica_client(deadline)),
                ],
            };
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds()? - cpu_before;
        if let Some(e) = clients.iter().find_map(|c| c.wrong.clone()) {
            return Err(e);
        }
        let failed = clients.iter().map(|c| c.failed).sum();
        let failures = clients.iter().flat_map(|c| c.failures.clone()).collect();

        let mut lat_ns = vec![Vec::new(); Op::COUNT];
        let mut perf_sum = vec![PerfContext::ZERO; Op::COUNT];
        let mut lag = Vec::new();
        for c in clients {
            for (i, l) in c.lat_ns.into_iter().enumerate() {
                lat_ns[i].extend(l);
            }
            for (i, p) in c.perf.iter().enumerate() {
                add_perf(&mut perf_sum[i], p);
            }
            lag.extend(c.lag);
        }
        let traced = match &self.tracer {
            Some(tracer) => {
                let after = self.primary.resolver.stats();
                Some(Traced {
                    tracer: tracer.clone(),
                    perf: perf_sum,
                    primary: self
                        .primary
                        .statistics()
                        .snapshot()
                        .delta_since(&stats_before),
                    replica: self
                        .replica
                        .as_ref()
                        .zip(replica_before.as_ref())
                        .map(|(r, b)| r.statistics().snapshot().delta_since(b)),
                    primary_resolver: (
                        after.cache_hits - res_before.cache_hits,
                        after.cache_misses - res_before.cache_misses,
                    ),
                    replica_resolver: self.replica.as_ref().zip(rres_before).map(|(r, b)| {
                        let a = r.resolver.stats();
                        (a.cache_hits - b.cache_hits, a.cache_misses - b.cache_misses)
                    }),
                    primary_io: io_delta(&self.io, &io_before, PRIMARY).unwrap_or_default(),
                    replica_io: io_delta(&self.io, &io_before, REPLICA),
                    cipher_inits: self.primary.encryption.cipher_inits() - inits_before,
                    lag,
                    store_bytes: self.store_bytes()?,
                    live_bytes: self.ledger.live_keys() * (KEY_LEN + VALUE_LEN) as u64,
                })
            }
            None => None,
        };
        self.verify()?;
        Ok(Measured {
            elapsed_s,
            cpu_s,
            lat_ns,
            failed,
            failures,
            traced,
        })
    }

    fn store_bytes(&self) -> Result<u64, String> {
        let mut total = 0;
        for name in self.backing.list_dir(DB).map_err(err("list db"))? {
            match self.backing.file_size(&shield_env::join_path(DB, &name)) {
                Ok(n) => total += n,
                // Compaction deleted it since the listing.
                Err(EnvError::NotFound(_)) => {}
                Err(e) => return Err(format!("size of {name}: {e}")),
            }
        }
        Ok(total)
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Enables the per-thread `PerfContext` on traced client threads.
    fn perf_guard(&self) -> Option<PerfGuard> {
        self.tracer.is_some().then(PerfGuard::enable)
    }

    /// Uniform puts over the writer's half of the key space (even or odd
    /// ids), so every key has exactly one writer.
    fn fill_writer(&self, w: usize, deadline: Instant) -> Client {
        let _g = self.perf_guard();
        let mut c = Client::new(self.tracer.is_some());
        let mut rng = Rng::new(self.seed, 100 + w as u64);
        let half = FILL_KEYS / FILL_WRITERS as u32;
        while Instant::now() < deadline && c.wrong.is_none() {
            let id = rng.below(half) * FILL_WRITERS as u32 + w as u32;
            self.put(&mut c, id);
        }
        c
    }

    fn put(&self, c: &mut Client, id: u32) {
        let widx = self.ledger.next_write(id);
        let (k, v) = (data::key(id), data::value(self.seed, id, widx));
        match c.op(Op::Put, self.tracer(), || self.primary.put(&PUT, &k, &v)) {
            Ok(()) => self.ledger.ack(id, widx),
            Err(e) => c.failed(format!("put key {id}: {e}")),
        }
    }

    fn get(&self, c: &mut Client, id: u32) {
        let floor = self.ledger.acked(id);
        let got = c.op(Op::Get, self.tracer(), || {
            self.primary.get(&ReadOptions::new(), &data::key(id))
        });
        match got {
            Ok(v) => {
                if let Err(e) = data::check_read(self.seed, &self.ledger, id, floor, v.as_deref()) {
                    c.wrong(format!("get: {e}"));
                }
            }
            Err(e) => c.failed(format!("get key {id}: {e}")),
        }
    }

    /// 90% get, 5% scan(50), 5% multi_get(16), keys uniform.
    fn reader(&self, r: usize, deadline: Instant) -> Client {
        let _g = self.perf_guard();
        let mut c = Client::new(self.tracer.is_some());
        let mut rng = Rng::new(self.seed, 200 + r as u64);
        let ropts = ReadOptions::new();
        while Instant::now() < deadline && c.wrong.is_none() {
            let pick = rng.unit();
            if pick < 0.90 {
                self.get(&mut c, rng.below(READ_KEYS));
            } else if pick < 0.95 {
                let first = rng.below(READ_KEYS);
                let got = c.op(Op::Scan, self.tracer(), || {
                    self.primary.scan(&ropts, &data::key(first), SCAN_LEN)
                });
                match got {
                    Ok(rows) => {
                        if let Err(e) = self.check_scan(first, &rows) {
                            c.wrong(e);
                        }
                    }
                    Err(e) => c.failed(format!("scan from {first}: {e}")),
                }
            } else {
                let ids: Vec<u32> = (0..MULTIGET_KEYS).map(|_| rng.below(READ_KEYS)).collect();
                let keys: Vec<[u8; KEY_LEN]> = ids.iter().map(|&id| data::key(id)).collect();
                let refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
                let floors: Vec<u32> = ids.iter().map(|&id| self.ledger.acked(id)).collect();
                let got = c.op(Op::MultiGet, self.tracer(), || {
                    self.primary.multi_get(&ropts, &refs)
                });
                let mut error = None;
                for ((id, floor), res) in ids.iter().zip(floors).zip(got) {
                    match res {
                        Ok(v) => {
                            if let Err(e) =
                                data::check_read(self.seed, &self.ledger, *id, floor, v.as_deref())
                            {
                                c.wrong(format!("multi_get: {e}"));
                            }
                        }
                        Err(e) => error = Some(format!("multi_get key {id}: {e}")),
                    }
                }
                if let Some(e) = error {
                    c.failed(e);
                }
            }
        }
        c
    }

    /// A scan from `first` must return the next keys in order, every one
    /// present (the key space is dense and ds_read never writes).
    fn check_scan(&self, first: u32, rows: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String> {
        let want = (READ_KEYS - first).min(SCAN_LEN as u32) as usize;
        if rows.len() != want {
            return Err(format!(
                "scan from {first}: {} rows, expected {want}",
                rows.len()
            ));
        }
        for (i, (k, v)) in rows.iter().enumerate() {
            let id = first + i as u32;
            if data::key_id(k) != Some(id) {
                return Err(format!(
                    "scan from {first}: row {i} has key {k:?}, expected id {id}"
                ));
            }
            data::check_read(self.seed, &self.ledger, id, self.ledger.acked(id), Some(v))
                .map_err(|e| format!("scan: {e}"))?;
        }
        Ok(())
    }

    /// The primary's client: 50% get / 50% put, zipfian keys.
    fn replica_primary_client(&self, deadline: Instant) -> Client {
        let _g = self.perf_guard();
        let mut c = Client::new(self.tracer.is_some());
        let zipf = Zipf::new(REPLICA_KEYS, self.seed);
        let mut rng = Rng::new(self.seed, 300);
        while Instant::now() < deadline && c.wrong.is_none() {
            let id = zipf.sample(&mut rng);
            if rng.next_u64() & 1 == 0 {
                self.get(&mut c, id);
            } else {
                self.put(&mut c, id);
            }
        }
        c
    }

    /// The replica's client: gets, zipfian keys. Every key was preloaded
    /// before the replica opened, so it must find write 1 or later.
    fn replica_client(&self, deadline: Instant) -> Client {
        let _g = self.perf_guard();
        let mut c = Client::new(self.tracer.is_some());
        let replica = self.replica.as_ref().expect("ds_replica has a replica");
        let zipf = Zipf::new(REPLICA_KEYS, self.seed ^ 0x4e91);
        let mut rng = Rng::new(self.seed, 301);
        while Instant::now() < deadline && c.wrong.is_none() {
            let id = zipf.sample(&mut rng);
            c.lag.push(
                self.primary
                    .last_sequence()
                    .saturating_sub(replica.sequence()),
            );
            let got = c.op(Op::ReplicaGet, self.tracer(), || {
                replica.get(&data::key(id))
            });
            match got {
                Ok(v) => {
                    if let Err(e) = data::check_read(self.seed, &self.ledger, id, 1, v.as_deref()) {
                        c.wrong(format!("replica get: {e}"));
                    }
                }
                Err(e) => c.failed(format!("replica get key {id}: {e}")),
            }
        }
        c
    }

    /// The end-of-run checks: fill reopens and reads every key back;
    /// ds_replica reopens its primary with compaction on, catches the
    /// replica up and compares the two; then no stored file may hold a
    /// value's plaintext marker.
    fn verify(self) -> Result<(), String> {
        let cipher_inits = self.primary.encryption.cipher_inits();
        if cipher_inits == 0 {
            return Err("no cipher was initialised: the store is not encrypted".into());
        }
        // Scan once now, while the live WAL still holds the latest writes
        // (the flush and reopen below retire it), and again at the end.
        scan_plaintext(&self.backing)?;
        let Prepared {
            workload,
            seed,
            backing,
            base_kds,
            ledger,
            primary,
            replica,
            ..
        } = self;
        let reopen = || open_primary(Arc::new(backing.clone()), base_kds.clone(), None, true);
        if let Some(replica) = &replica {
            // The reopened primary replays its WAL and compacts the L0
            // files the timed phase flushed, under the live replica.
            drop(primary);
            let primary = reopen()?;
            primary.compact_all().map_err(err("primary compaction"))?;
            check_replica(replica, &primary, seed, &ledger)?;
            replica.stop();
        } else {
            drop(primary);
            if workload == Workload::Fill {
                verify_all(&reopen()?, seed, &ledger)?;
            }
        }
        drop(replica);
        scan_plaintext(&backing)
    }
}

/// Runs `catch_up` until the replica is clean, with staleness 0 and at
/// the primary's sequence, then compares the two on a sample of keys.
fn check_replica(
    replica: &ShieldReplica,
    primary: &ShieldDb,
    seed: u64,
    ledger: &Ledger,
) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        let clean = replica.catch_up().map_err(err("replica catch_up"))?;
        if clean && replica.staleness() == 0 && replica.sequence() == primary.last_sequence() {
            break;
        }
        if Instant::now() > give_up {
            return Err(format!(
                "replica at sequence {} (staleness {}) after 60 s, primary at {}",
                replica.sequence(),
                replica.staleness(),
                primary.last_sequence()
            ));
        }
    }
    let mut rng = Rng::new(seed, 400);
    for _ in 0..REPLICA_CHECK_SAMPLE {
        let id = rng.below(REPLICA_KEYS);
        let k = data::key(id);
        let a = replica.get(&k).map_err(err("replica get"))?;
        let b = primary
            .get(&ReadOptions::new(), &k)
            .map_err(err("primary get"))?;
        if a != b {
            return Err(format!("replica and primary differ on key {id}"));
        }
        data::check_read(seed, ledger, id, ledger.acked(id), a.as_deref())?;
    }
    Ok(())
}

fn io_delta(
    io: &[Arc<IoStats>],
    before: &[IoStatsSnapshot],
    node: usize,
) -> Option<IoStatsSnapshot> {
    Some(io.get(node)?.snapshot().delta_since(before.get(node)?))
}

/// Every key must hold its last acknowledged write (or a later one whose
/// put returned an error), and every acknowledged key must be present.
fn verify_all(db: &ShieldDb, seed: u64, ledger: &Ledger) -> Result<(), String> {
    let mut it = db.iter(&ReadOptions::new()).map_err(err("iter"))?;
    it.seek_to_first();
    let mut seen = 0u64;
    while it.valid() {
        let id = data::key_id(it.key()).ok_or_else(|| format!("unexpected key {:?}", it.key()))?;
        let widx = data::check_value(seed, id, it.value())?;
        // A put that returned an error may or may not have landed.
        let (acked, sent) = (ledger.acked(id), ledger.sent(id));
        if widx < acked || widx > sent {
            return Err(format!(
                "after reopen key {id} holds write {widx}, acknowledged {acked}, sent {sent}"
            ));
        }
        seen += u64::from(acked > 0);
        it.next();
    }
    it.status().map_err(err("iter"))?;
    let want = ledger.live_keys();
    if seen != want {
        return Err(format!("after reopen {seen} keys, expected {want}"));
    }
    Ok(())
}

/// Encryption at rest: no stored file may contain a value's plaintext
/// marker, and the store must hold at least one SST.
fn scan_plaintext(backing: &MemEnv) -> Result<(), String> {
    let mut paths: Vec<String> = backing
        .list_dir(DB)
        .map_err(err("list db"))?
        .iter()
        .map(|n| shield_env::join_path(DB, n))
        .collect();
    paths.extend(backing.list_dir("").map_err(err("list root"))?);
    let mut ssts = 0;
    for path in &paths {
        let raw = match backing.raw_content(path) {
            Ok(raw) => raw,
            // Compaction deleted it since the listing.
            Err(EnvError::NotFound(_)) => continue,
            Err(e) => return Err(format!("read {path}: {e}")),
        };
        let hits = data::marker_hits(&raw);
        if hits > 0 {
            return Err(format!(
                "{path}: {hits} plaintext values stored unencrypted"
            ));
        }
        ssts += usize::from(path.ends_with(".sst"));
    }
    if ssts == 0 {
        return Err("no SST files to scan".into());
    }
    Ok(())
}
