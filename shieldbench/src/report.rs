//! Turns measurements into named metrics: the end-to-end set of an
//! untraced run, and the per-layer set of a traced run.

use shield_env::FileKind;

use crate::data::{KEY_LEN, VALUE_LEN};
use crate::trace::{Call, CellStats, Layer, Op, Tracer, PRIMARY, REPLICA};
use crate::workload::{Measured, Traced, Workload};

/// One reported number. `n` is the sample count behind it, where the
/// metric is a statistic over samples.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        n,
    }
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-op-type throughput and latency, for every op type the run sent:
/// the detailed report, printed by name with sample counts.
pub fn per_op(m: &Measured) -> Vec<Metric> {
    let mut out = Vec::new();
    for op in Op::ALL {
        let mut lat = m.lat_ns[op as usize].clone();
        if lat.is_empty() {
            continue;
        }
        lat.sort_unstable();
        let n = Some(lat.len());
        let name = op.name();
        if matches!(op, Op::Put | Op::Get | Op::ReplicaGet) {
            out.push(metric(
                format!("{name}_ops_s"),
                lat.len() as f64 / m.elapsed_s,
                "ops/s",
                n,
            ));
        }
        out.push(metric(
            format!("{name}_p50_us"),
            percentile(&lat, 0.50) as f64 / 1e3,
            "us",
            n,
        ));
        out.push(metric(
            format!("{name}_p99_us"),
            percentile(&lat, 0.99) as f64 / 1e3,
            "us",
            n,
        ));
    }
    out
}

pub fn total_ops(m: &Measured) -> usize {
    m.lat_ns.iter().map(Vec::len).sum()
}

/// The end-to-end metrics every workload reports and `BENCHMARK.json`
/// bounds: all ops per second, the median and mean latency of the
/// workload's main op, and the set-up time.
///
/// The latency of a remote op comes in round-trip steps (one RTT, two,
/// ...), and a high percentile that falls near a step jumps between runs
/// of one build: on the 2-vCPU VM the benchmark was sized on, the replica
/// get p90 of `ds_replica` spread 0.33 of its median over ten runs and the
/// get p99 of `ds_read` 0.62. The mean moves smoothly with the share of
/// slow ops, so it carries the tail into the bounded set; every op type's
/// p99 is still printed, unbounded.
pub fn end_to_end(w: Workload, m: &Measured, setup_s: f64, setups: usize) -> Vec<Metric> {
    let ops = total_ops(m);
    let mut main = m.lat_ns[w.main_op() as usize].clone();
    main.sort_unstable();
    let n = Some(main.len());
    let mean_us = main.iter().sum::<u64>() as f64 / main.len() as f64 / 1e3;
    vec![
        metric("ops_s", ops as f64 / m.elapsed_s, "1/s", Some(ops)),
        metric(
            "main_op_p50_us",
            percentile(&main, 0.50) as f64 / 1e3,
            "us",
            n,
        ),
        metric("main_op_mean_us", mean_us, "us", n),
        metric("setup_s", setup_s, "s", Some(setups)),
    ]
}

/// Process user+system CPU over the timed phase per op completed,
/// background flush and compaction included. Printed and traced but not
/// bounded: on `ds_read`, whose CPU goes mostly to thread wake-ups and
/// spawns, it spread 0.23 of its median over ten runs of one build.
pub fn cpu_us_per_op(m: &Measured) -> Metric {
    let ops = total_ops(m);
    metric("cpu_us_per_op", m.cpu_s * 1e6 / ops as f64, "us", Some(ops))
}

fn reads(t: &Tracer, op: Option<Op>, node: usize) -> CellStats {
    let mut s = t.cells(
        op,
        Some(Layer::Env),
        Some(node),
        Some(Call::ReadAt),
        Some(FileKind::Sst),
    );
    s += t.cells(
        op,
        Some(Layer::Env),
        Some(node),
        Some(Call::ReadAtMany),
        Some(FileKind::Sst),
    );
    s
}

/// The per-layer metrics of a traced run, plus the tracing overhead
/// against the untraced run's end-to-end metrics.
pub fn per_layer(
    w: Workload,
    m: &Measured,
    traced: &Traced,
    untraced: &[Metric],
    traced_e2e: &[Metric],
) -> Vec<Metric> {
    let t = &traced.tracer;
    let count = |op: Op| m.lat_ns[op as usize].len() as f64;
    let perf = |op: Op| traced.perf[op as usize];
    let (puts, gets, rgets) = (count(Op::Put), count(Op::Get), count(Op::ReplicaGet));
    let all_ops = total_ops(m) as f64;
    let p = &traced.primary;
    let user_bytes = puts * (KEY_LEN + VALUE_LEN) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = Vec::new();
    let mut add =
        |name: &str, value: f64, unit: &'static str| out.push(metric(name, value, unit, None));

    add(
        "lsm.wal.append_us_per_put",
        ratio(us(perf(Op::Put).wal_append_nanos), puts),
        "us",
    );
    add(
        "lsm.wal.bytes_per_put",
        ratio(p.wal_bytes as f64, puts),
        "B",
    );
    add(
        "lsm.commit.writes_per_group",
        ratio(p.writes as f64, p.write_groups as f64),
        "count",
    );
    add(
        "lsm.memtable.insert_us_per_put",
        ratio(us(perf(Op::Put).memtable_insert_nanos), puts),
        "us",
    );
    add(
        "lsm.memtable.lookup_us_per_get",
        ratio(us(perf(Op::Get).memtable_lookup_nanos), gets),
        "us",
    );
    add("lsm.write.stalls", p.write_stalls as f64, "count");
    add(
        "lsm.write.stall_share",
        ratio(
            p.stall_micros as f64 / 1e6,
            w.writers() as f64 * m.elapsed_s,
        ),
        "ratio",
    );
    add("lsm.flush.count", p.flushes as f64, "count");
    add("lsm.compaction.count", p.compactions as f64, "count");
    add(
        "lsm.compaction.busy_s",
        p.compaction_micros as f64 / 1e6,
        "s",
    );
    add(
        "lsm.compaction.write_amp",
        ratio(
            (p.flush_bytes + p.compaction_bytes_written) as f64,
            user_bytes,
        ),
        "ratio",
    );
    let hit = |h: u64, miss: u64| ratio(h as f64, (h + miss) as f64);
    add(
        "lsm.cache.data_hit_ratio",
        hit(p.block_cache_data_hits, p.block_cache_data_misses),
        "ratio",
    );
    add(
        "lsm.cache.index_hit_ratio",
        hit(p.block_cache_index_hits, p.block_cache_index_misses),
        "ratio",
    );
    add(
        "lsm.cache.lookup_us_per_get",
        ratio(us(perf(Op::Get).cache_lookup_nanos), gets),
        "us",
    );
    add(
        "lsm.cache.singleflight_waits",
        p.block_cache_singleflight_waits as f64,
        "count",
    );
    add(
        "lsm.sst.blocks_read_per_get",
        ratio(perf(Op::Get).blocks_read as f64, gets),
        "count",
    );
    let probes: u64 = [Op::Get, Op::Scan, Op::MultiGet]
        .iter()
        .map(|&o| perf(o).bloom_probes)
        .sum();
    add(
        "lsm.sst.bloom_useful_ratio",
        ratio(p.bloom_useful as f64, probes as f64),
        "ratio",
    );
    add(
        "lsm.multiget.requests_per_submission",
        ratio(p.batch_read_requests as f64, p.batched_reads as f64),
        "count",
    );
    add(
        "lsm.readahead.useful_ratio",
        ratio(p.readahead_useful as f64, p.readahead_issued as f64),
        "ratio",
    );

    let mut lag = traced.lag.clone();
    lag.sort_unstable();
    add(
        "lsm.replica.lag_records_p50",
        if lag.is_empty() {
            0.0
        } else {
            percentile(&lag, 0.5) as f64
        },
        "count",
    );
    add(
        "lsm.replica.lag_records_max",
        lag.last().copied().unwrap_or(0) as f64,
        "count",
    );
    let applied = traced
        .replica
        .as_ref()
        .map_or(0, |r| r.replica_wal_records_applied);
    add(
        "lsm.replica.wal_records_applied_per_s",
        applied as f64 / m.elapsed_s,
        "1/s",
    );
    add(
        "lsm.replica.sst_reads_per_get",
        ratio(reads(t, Some(Op::ReplicaGet), REPLICA).units as f64, rgets),
        "count",
    );

    add(
        "crypto.cipher_inits_per_put",
        ratio(perf(Op::Put).cipher_inits as f64, puts),
        "count",
    );
    add(
        "crypto.cipher_inits_total_per_op",
        ratio(traced.cipher_inits as f64, all_ops),
        "count",
    );
    add(
        "crypto.encrypt_us_per_put",
        ratio(us(perf(Op::Put).block_encrypt_nanos), puts),
        "us",
    );
    add(
        "crypto.decrypt_us_per_get",
        ratio(us(perf(Op::Get).block_decrypt_nanos), gets),
        "us",
    );

    let generate = t.cells(None, Some(Layer::Kds), None, Some(Call::Generate), None);
    let fetch = t.cells(None, Some(Layer::Kds), None, Some(Call::Fetch), None);
    add("kds.generate.calls", generate.calls as f64, "count");
    add("kds.generate.busy_ms", ms(generate.dur_ns), "ms");
    add("kds.fetch.calls", fetch.calls as f64, "count");
    add("kds.fetch.busy_ms", ms(fetch.dur_ns), "ms");
    let (h, miss) = traced.primary_resolver;
    add("kds.resolver.cache_hit_ratio", hit(h, miss), "ratio");
    let (h, miss) = traced.replica_resolver.unwrap_or((0, 0));
    add(
        "kds.replica_resolver.cache_hit_ratio",
        hit(h, miss),
        "ratio",
    );
    add(
        "kds.resolve_us_per_get",
        ratio(us(perf(Op::Get).dek_resolve_nanos), gets),
        "us",
    );
    add(
        "kds.replica_resolve_us_per_get",
        ratio(us(perf(Op::ReplicaGet).dek_resolve_nanos), rgets),
        "us",
    );

    let get_reads = reads(t, Some(Op::Get), PRIMARY);
    add(
        "env.sst.read_calls_per_get",
        ratio(get_reads.calls as f64, gets),
        "count",
    );
    add(
        "env.sst.bytes_read_per_get",
        ratio(get_reads.bytes as f64, gets),
        "B",
    );
    add(
        "env.read_busy_us_per_get",
        ratio(us(get_reads.dur_ns), gets),
        "us",
    );
    let wait = if w.remote() {
        us(get_reads.self_ns)
    } else {
        0.0
    };
    add("env.remote.wait_us_per_get", ratio(wait, gets), "us");
    let many = t.cells(
        None,
        Some(Layer::Env),
        Some(PRIMARY),
        Some(Call::ReadAtMany),
        None,
    );
    add(
        "env.read_at_many.requests_per_call",
        ratio(many.units as f64, many.calls as f64),
        "count",
    );
    add(
        "env.inflight_reads_max",
        t.inflight_max(PRIMARY) as f64,
        "count",
    );
    let wal_appends = t.cells(
        Some(Op::Put),
        Some(Layer::Env),
        Some(PRIMARY),
        Some(Call::Append),
        Some(FileKind::Wal),
    );
    add(
        "env.wal.append_calls_per_put",
        ratio(wal_appends.calls as f64, puts),
        "count",
    );
    let syncs = t.cells(
        None,
        Some(Layer::Env),
        Some(PRIMARY),
        Some(Call::Sync),
        Some(FileKind::Wal),
    );
    add("env.wal.sync_calls", syncs.calls as f64, "count");
    let written = t.cells(
        None,
        Some(Layer::Env),
        Some(PRIMARY),
        Some(Call::Append),
        None,
    );
    add(
        "env.write_amp",
        ratio(written.bytes as f64, user_bytes),
        "ratio",
    );
    let primary_ops = all_ops - rgets;
    add(
        "env.io.read_bytes_per_op",
        ratio(traced.primary_io.total_read() as f64, primary_ops),
        "B",
    );
    add(
        "env.io.written_bytes_per_op",
        ratio(traced.primary_io.total_written() as f64, primary_ops),
        "B",
    );
    let replica_read = traced.replica_io.as_ref().map_or(0, |s| s.total_read());
    add(
        "env.replica_io.read_bytes_per_get",
        ratio(replica_read as f64, rgets),
        "B",
    );
    add(
        "env.space_amp",
        ratio(traced.store_bytes as f64, traced.live_bytes as f64),
        "ratio",
    );

    // Attribution: each op type's mean wall time split into the self time
    // of every wrapper layer plus the unattributed rest.
    for op in Op::ALL {
        if op == Op::Background {
            continue;
        }
        let s = t.op_stats(op);
        let n = s.count as f64;
        add(
            &format!("attr.{}.wall_us", op.name()),
            ratio(us(s.wall_ns), n),
            "us",
        );
        for layer in Layer::ALL {
            let c = t.cells(Some(op), Some(layer), None, None, None);
            add(
                &format!("attr.{}.{}_us", op.name(), layer.name()),
                ratio(us(c.self_ns), n),
                "us",
            );
        }
        add(
            &format!("unattributed_us_per_op.{}", op.name()),
            ratio(us(s.self_ns), n),
            "us",
        );
    }
    for layer in Layer::ALL {
        let c = t.cells(Some(Op::Background), Some(layer), None, None, None);
        add(
            &format!("background.{}_ms", layer.name()),
            ms(c.self_ns),
            "ms",
        );
    }
    for a in untraced.iter().filter(|a| a.name == "cpu_us_per_op") {
        add("process.cpu_us_per_op", a.value, "us");
    }
    // How much worse each end-to-end metric reads with tracing on; only
    // `ops_s` is better when higher.
    for (a, b) in untraced.iter().zip(traced_e2e) {
        let worse = if a.name == "ops_s" {
            ratio(a.value, b.value)
        } else {
            ratio(b.value, a.value)
        };
        add(&format!("trace.overhead.{}", a.name), worse - 1.0, "ratio");
    }
    out
}

/// The op types whose self times plus `unattributed` did not sum to their
/// wall time; empty when attribution closes.
pub fn unbalanced(t: &Tracer) -> Vec<(Op, u64)> {
    Op::ALL
        .iter()
        .map(|&op| (op, t.op_stats(op).unbalanced))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// The last line of output: the result object.
pub fn result_json(attempted: usize, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not a number", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
