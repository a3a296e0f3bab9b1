//! Live read-replica benchmark over the disaggregated topology
//! (DESIGN.md §4l): a SHIELD primary and a [`shield_lsm::ReplicaDb`]
//! each mount one shared store through their own network-modeled
//! [`RemoteEnv`], and the replica tails the primary's manifest + WAL
//! while the write workload runs.
//!
//! Measured quantities:
//!   * **live tail lag** — staleness (records) observed after each
//!     poll round while the primary ingests at full speed (the live
//!     phase flushes once midway, so a round warms the new L0 file
//!     into the replica's block cache: `replica_warmed_blocks`),
//!   * **catch-up throughput** — WAL records/s the replay engine
//!     applies when draining a quiesced backlog,
//!   * **replica read throughput** — random gets served from the
//!     replica's published view vs. the same reads on the primary.
//!
//! Results land in `BENCH_replica.json` (override with `--out`).
//! `--smoke` shrinks the workload and *asserts* the engagement gate:
//! the replica must have applied >0 manifest edits and >0 WAL records,
//! finished with zero staleness, and a sampled read-back must match
//! the primary byte for byte — the `bench-smoke` tier of
//! `scripts/verify.sh`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use shield::{open_shield, open_shield_replica, ShieldOptions};
use shield_env::{Env, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Options, ReadOptions, ReplicaOptions, WriteOptions};

const PRIMARY: ServerId = ServerId(1);
const READER: ServerId = ServerId(3);

struct Config {
    smoke: bool,
    out: String,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config { smoke: false, out: "BENCH_replica.json".to_string() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" => {
                cfg.out = args.next().ok_or_else(|| "--out needs a path".to_string())?;
            }
            "--help" | "-h" => {
                return Err("usage: replica [--smoke] [--out BENCH_replica.json]".to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cfg)
}

fn key_of(id: u32) -> Vec<u8> {
    format!("key-{id:08}").into_bytes()
}

/// Simple deterministic PRNG (xorshift*) for read sampling.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (live_keys, backlog_keys, reads) =
        if cfg.smoke { (2_000u32, 2_000u32, 2_000u32) } else { (20_000, 20_000, 20_000) };
    let value = vec![0x5au8; 100];

    // One shared store; primary and replica each pay their own network
    // path to it (the paper's compute/storage split). The measured run
    // uses the paper's intra-datacenter figures; smoke keeps the gate
    // fast with an unmetered link.
    let model = if cfg.smoke {
        NetworkModel::unlimited
    } else {
        NetworkModel::intra_datacenter
    };
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let primary_mount: Arc<dyn Env> = Arc::new(RemoteEnv::new(backing.clone(), model()));
    let replica_mount: Arc<dyn Env> = Arc::new(RemoteEnv::new(backing.clone(), model()));

    let mut opts = Options::new(primary_mount).with_write_buffer_size(4 << 20);
    opts.compaction.l0_compaction_trigger = 4;
    let primary = match open_shield(
        opts,
        "db",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, PRIMARY, b"primary-pass"),
    ) {
        Ok(db) => db,
        Err(err) => {
            eprintln!("open primary: {err}");
            return ExitCode::FAILURE;
        }
    };
    let w = WriteOptions { sync: true };

    // Seed a little state so the replica opens onto a real manifest.
    for id in 0..64u32 {
        if let Err(err) = primary.put(&w, &key_of(id), &value) {
            eprintln!("seed put: {err}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(err) = primary.flush() {
        eprintln!("seed flush: {err}");
        return ExitCode::FAILURE;
    }

    let replica = match open_shield_replica(
        replica_mount,
        "db",
        "reader.cache",
        ShieldOptions::new(kds as Arc<dyn Kds>, READER, b"reader-pass"),
        ReplicaOptions { auto_poll: false, ..ReplicaOptions::default() },
    ) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("open replica: {err}");
            return ExitCode::FAILURE;
        }
    };

    // Phase 1 — live tail: the primary ingests while the replica polls
    // every `batch` writes; lag is sampled after each round.
    let batch = (live_keys / 50).max(1);
    let mut lag_samples: Vec<u64> = Vec::new();
    let mut round_micros: Vec<u64> = Vec::new();
    let live_start = Instant::now();
    for id in 64..live_keys {
        if let Err(err) = primary.put(&w, &key_of(id), &value) {
            eprintln!("live put: {err}");
            return ExitCode::FAILURE;
        }
        if id == live_keys / 2 {
            if let Err(err) = primary.flush() {
                eprintln!("live flush: {err}");
                return ExitCode::FAILURE;
            }
        }
        if id % batch == 0 {
            let t = Instant::now();
            if let Err(err) = replica.catch_up() {
                eprintln!("live catch_up: {err}");
                return ExitCode::FAILURE;
            }
            round_micros.push(t.elapsed().as_micros() as u64);
            lag_samples.push(replica.staleness());
        }
    }
    let live_secs = live_start.elapsed().as_secs_f64();

    // Phase 2 — backlog drain: write a quiesced backlog (with a flush in
    // the middle so the replay crosses a manifest edit), then time the
    // replica catching up from a standstill.
    for id in live_keys..live_keys + backlog_keys {
        if let Err(err) = primary.put(&w, &key_of(id), &value) {
            eprintln!("backlog put: {err}");
            return ExitCode::FAILURE;
        }
        if id == live_keys + backlog_keys / 2 {
            if let Err(err) = primary.flush() {
                eprintln!("backlog flush: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let stats = replica.statistics();
    let records_before = stats.replica_wal_records_applied.load(Ordering::Relaxed);
    let drain_start = Instant::now();
    loop {
        match replica.catch_up() {
            Ok(true) => break,
            Ok(false) => {}
            Err(err) => {
                eprintln!("drain catch_up: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let drain_secs = drain_start.elapsed().as_secs_f64();
    let drained = stats.replica_wal_records_applied.load(Ordering::Relaxed) - records_before;
    let catchup_records_s = drained as f64 / drain_secs.max(1e-9);

    // Phase 3 — read throughput: the same random gets on replica and
    // primary (both paths pay their RemoteEnv mount).
    let total_keys = live_keys + backlog_keys;
    let r = ReadOptions::new();
    let mut rng = Rng(0x5eed_1234_5678_9abc);
    let replica_read_start = Instant::now();
    for _ in 0..reads {
        let id = (rng.next() % u64::from(total_keys)) as u32;
        match replica.get(&key_of(id)) {
            Ok(Some(_)) => {}
            Ok(None) => {
                eprintln!("replica lost key {id}");
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("replica get: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let replica_reads_s = f64::from(reads) / replica_read_start.elapsed().as_secs_f64();
    let mut rng = Rng(0x5eed_1234_5678_9abc);
    let primary_read_start = Instant::now();
    for _ in 0..reads {
        let id = (rng.next() % u64::from(total_keys)) as u32;
        if let Err(err) = primary.get(&r, &key_of(id)) {
            eprintln!("primary get: {err}");
            return ExitCode::FAILURE;
        }
    }
    let primary_reads_s = f64::from(reads) / primary_read_start.elapsed().as_secs_f64();

    // Differential spot-check: replica ≡ primary on a sample.
    let mut rng = Rng(0xd1ff_0000_0000_0001);
    for _ in 0..256 {
        let id = (rng.next() % u64::from(total_keys)) as u32;
        let key = key_of(id);
        let (a, b) = match (replica.get(&key), primary.get(&r, &key)) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                eprintln!("spot-check error on key {id}: {a:?} vs {b:?}");
                return ExitCode::FAILURE;
            }
        };
        if a != b {
            eprintln!("replica diverged from primary on key {id}");
            return ExitCode::FAILURE;
        }
    }

    let snapshot = stats.snapshot();
    let lag_max = lag_samples.iter().copied().max().unwrap_or(0);
    let lag_mean = if lag_samples.is_empty() {
        0.0
    } else {
        lag_samples.iter().sum::<u64>() as f64 / lag_samples.len() as f64
    };
    let round_mean_us = if round_micros.is_empty() {
        0.0
    } else {
        round_micros.iter().sum::<u64>() as f64 / round_micros.len() as f64
    };

    let mode = if cfg.smoke { "smoke" } else { "full" };
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"replica_tailing\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"encryption\": \"shield\",");
    let _ = writeln!(s, "  \"topology\": \"remote_env_per_node\",");
    let _ = writeln!(
        s,
        "  \"network\": \"{}\",",
        if cfg.smoke { "unlimited" } else { "intra_datacenter" }
    );
    let _ = writeln!(s, "  \"live_keys\": {live_keys},");
    let _ = writeln!(s, "  \"backlog_keys\": {backlog_keys},");
    let _ = writeln!(s, "  \"value_bytes\": {},", value.len());
    let _ = writeln!(s, "  \"live_ingest_records_s\": {:.0},", f64::from(live_keys) / live_secs);
    let _ = writeln!(s, "  \"live_lag_records_max\": {lag_max},");
    let _ = writeln!(s, "  \"live_lag_records_mean\": {lag_mean:.1},");
    let _ = writeln!(s, "  \"live_poll_round_us_mean\": {round_mean_us:.0},");
    let _ = writeln!(s, "  \"catchup_drain_records\": {drained},");
    let _ = writeln!(s, "  \"catchup_records_s\": {catchup_records_s:.0},");
    let _ = writeln!(s, "  \"replica_reads_s\": {replica_reads_s:.0},");
    let _ = writeln!(s, "  \"primary_reads_s\": {primary_reads_s:.0},");
    let _ = writeln!(s, "  \"manifest_edits_applied\": {},", snapshot.replica_manifest_edits_applied);
    let _ = writeln!(s, "  \"wal_records_applied\": {},", snapshot.replica_wal_records_applied);
    let _ = writeln!(s, "  \"rollovers_followed\": {},", snapshot.replica_rollovers_followed);
    let _ = writeln!(s, "  \"replica_warmed_blocks\": {},", snapshot.replica_warmed_blocks);
    let _ = writeln!(s, "  \"final_staleness\": {}", replica.staleness());
    s.push_str("}\n");
    print!("{s}");
    if let Err(err) = std::fs::write(&cfg.out, &s) {
        eprintln!("write {}: {err}", cfg.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", cfg.out);

    // Engagement gate: the replay engine must actually have been driven.
    if cfg.smoke {
        if snapshot.replica_manifest_edits_applied == 0 {
            eprintln!("gate: no manifest edits applied");
            return ExitCode::FAILURE;
        }
        if snapshot.replica_wal_records_applied == 0 {
            eprintln!("gate: no WAL records applied");
            return ExitCode::FAILURE;
        }
        if replica.staleness() != 0 {
            eprintln!("gate: replica finished stale ({})", replica.staleness());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
