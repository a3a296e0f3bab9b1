//! The benchmark's own tests: the timing wrappers change nothing the
//! engine does, and per-op attribution closes.

use std::sync::Arc;
use std::time::Duration;

use shield::{open_shield, ShieldDb, ShieldOptions};
use shield_env::{Env, FaultInjectionEnv, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Options, ReadOptions, WriteOptions};

use crate::data;
use crate::trace::{Call, Layer, Op, TimedEnv, TimedKds, Tracer, PRIMARY};

const KEYS: u32 = 4_000;

fn open(env: Arc<dyn Env>, kds: Arc<dyn Kds>) -> ShieldDb {
    let mut opts = Options::new(env);
    opts.write_buffer_size = 64 << 10;
    open_shield(opts, "db", ShieldOptions::new(kds, ServerId(1), b"test")).expect("open")
}

/// Even ids 0, 2, .. spread over many small SSTs.
fn build_store(backing: &MemEnv, kds: &Arc<dyn Kds>) {
    let db = open(Arc::new(backing.clone()), kds.clone());
    for i in 0..KEYS {
        db.put(
            &WriteOptions::default(),
            &data::key(i * 2),
            &data::value(1, i * 2, 1),
        )
        .expect("put");
    }
    db.compact_all().expect("compact");
}

/// One 64-key `multi_get` (present and absent keys) on a freshly opened
/// store: its results and the batched-read counters it moved.
fn multi_get(
    env: Arc<dyn Env>,
    kds: Arc<dyn Kds>,
    tracer: Option<&Tracer>,
) -> (Vec<Option<Vec<u8>>>, u64, u64) {
    let db = open(env, kds);
    let keys: Vec<_> = (0..64u32).map(|i| data::key(i * 97 % (2 * KEYS))).collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
    let before = db.statistics().snapshot();
    let got = match tracer {
        Some(t) => t.op(Op::MultiGet, || db.multi_get(&ReadOptions::new(), &refs)),
        None => db.multi_get(&ReadOptions::new(), &refs),
    };
    let d = db.statistics().snapshot().delta_since(&before);
    (
        got.into_iter().map(|r| r.expect("multi_get")).collect(),
        d.batched_reads,
        d.batch_read_requests,
    )
}

#[test]
fn wrappers_keep_batched_reads_batched() {
    let kds: Arc<dyn Kds> = Arc::new(LocalKds::new(KdsConfig::default()));
    let backing = MemEnv::new();
    build_store(&backing, &kds);
    let plain = RemoteEnv::new(Arc::new(backing.clone()), NetworkModel::unlimited());
    let (want, batches, requests) = multi_get(Arc::new(plain), kds.clone(), None);
    assert!(batches > 0, "multi_get must submit batched reads");

    let tracer = Tracer::new();
    let below = TimedEnv::new(
        Arc::new(backing.clone()),
        tracer.clone(),
        Layer::Storage,
        PRIMARY,
    );
    let remote: Arc<dyn Env> = Arc::new(RemoteEnv::new(below, NetworkModel::unlimited()));
    let above = TimedEnv::new(remote.clone(), tracer.clone(), Layer::Env, PRIMARY);
    assert!(Arc::ptr_eq(
        &above.io_stats().expect("io_stats forwarded"),
        &remote.io_stats().expect("remote stats")
    ));
    let got = multi_get(
        above,
        TimedKds::new(kds, tracer.clone(), PRIMARY),
        Some(&tracer),
    );

    assert_eq!(
        got,
        (want, batches, requests),
        "wrappers changed results or batching"
    );
    let many = |layer| {
        tracer.cells(
            None,
            Some(layer),
            Some(PRIMARY),
            Some(Call::ReadAtMany),
            None,
        )
    };
    let (above, below) = (many(Layer::Env), many(Layer::Storage));
    assert!(above.calls > 0, "read_at_many reached the wrapper");
    assert_eq!(
        (above.calls, above.units),
        (below.calls, below.units),
        "read_at_many must reach the env below"
    );
}

#[test]
fn wrappers_forward_fault_stats() {
    let faulty: Arc<dyn Env> = Arc::new(FaultInjectionEnv::new(Arc::new(MemEnv::new())));
    let timed = TimedEnv::new(faulty.clone(), Tracer::new(), Layer::Env, PRIMARY);
    assert!(faulty.fault_stats().is_some());
    assert_eq!(timed.fault_stats(), faulty.fault_stats());
}

#[test]
fn layer_self_times_plus_unattributed_equal_wall_time() {
    let tracer = Tracer::new();
    let kds = LocalKds::new(KdsConfig {
        generation_latency: Duration::from_micros(200),
        fetch_latency: Duration::from_micros(100),
        ..KdsConfig::default()
    });
    let model = NetworkModel {
        rtt: Duration::from_micros(50),
        ..NetworkModel::unlimited()
    };
    let below = TimedEnv::new(
        Arc::new(MemEnv::new()),
        tracer.clone(),
        Layer::Storage,
        PRIMARY,
    );
    let env = TimedEnv::new(
        Arc::new(RemoteEnv::new(below, model)),
        tracer.clone(),
        Layer::Env,
        PRIMARY,
    );
    let db = open(env, TimedKds::new(Arc::new(kds), tracer.clone(), PRIMARY));
    for i in 0..300u32 {
        tracer
            .op(Op::Put, || {
                db.put(
                    &WriteOptions { sync: i % 10 == 0 },
                    &data::key(i),
                    &data::value(1, i, 1),
                )
            })
            .expect("put");
    }
    db.flush().expect("flush");
    for i in 0..300u32 {
        let got = tracer
            .op(Op::Get, || db.get(&ReadOptions::new(), &data::key(i)))
            .expect("get");
        assert_eq!(data::check_value(1, i, &got.expect("present")), Ok(1));
    }
    for op in [Op::Put, Op::Get] {
        let s = tracer.op_stats(op);
        assert_eq!((s.count, s.unbalanced), (300, 0), "{op:?}");
        let layers: u64 = Layer::ALL
            .iter()
            .map(|&l| tracer.cells(Some(op), Some(l), None, None, None).self_ns)
            .sum();
        assert!(layers > 0, "{op:?} spent no time in any wrapped layer");
        assert_eq!(
            layers + s.self_ns,
            s.wall_ns,
            "{op:?}: layers + unattributed != wall"
        );
    }
    let bg = tracer.cells(Some(Op::Background), None, None, None, None);
    assert!(bg.calls > 0, "the flush ran outside any op span");
}
