//! Span tracing from outside the engine: a root span around every
//! `Db`/`ReplicaDb` call the benchmark makes, and child spans from timing
//! wrappers around the `Env` and `Kds` traits.
//!
//! Spans on one thread nest strictly (a wrapper call returns before its
//! caller does), so each thread keeps a stack of open spans and computes
//! a span's self time when it closes: its duration minus the durations of
//! its direct children. Closed spans are folded into per-(op, layer, call,
//! file) cells, and the first [`SPAN_LOG_CAP`] are kept verbatim in memory
//! and written out when the run ends. A span with no open op span below it
//! on its thread ran on an engine thread and is attributed to `background`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use shield_crypto::{Algorithm, Dek, DekId};
use shield_env::{
    Env, EnvResult, FaultStatsSnapshot, FileKind, IoStats, RandomAccessFile, ReadRequest,
    SequentialFile, WritableFile,
};
use shield_kds::{Kds, KdsResult, KdsStats, ServerId};

/// Spans kept verbatim for the span dump; later spans are only aggregated.
pub const SPAN_LOG_CAP: usize = 100_000;

/// The foreground operations the workloads send, plus `Background` for
/// wrapper calls made on engine threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Put,
    Get,
    Scan,
    MultiGet,
    ReplicaGet,
    Background,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Put,
        Op::Get,
        Op::Scan,
        Op::MultiGet,
        Op::ReplicaGet,
        Op::Background,
    ];
    pub const COUNT: usize = Op::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Scan => "scan",
            Op::MultiGet => "multiget",
            Op::ReplicaGet => "replica_get",
            Op::Background => "background",
        }
    }
}

/// Where a wrapper sits. `Env` is the env the engine opens files through
/// (above `RemoteEnv` when storage is remote); `Storage` sits below
/// `RemoteEnv`, so `Env` self time is the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Env,
    Storage,
    Kds,
}

impl Layer {
    pub const ALL: [Layer; 3] = [Layer::Env, Layer::Storage, Layer::Kds];
    pub const COUNT: usize = Layer::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Layer::Env => "env",
            Layer::Storage => "storage",
            Layer::Kds => "kds",
        }
    }
}

/// The wrapped trait method.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Call {
    Open,
    Append,
    Flush,
    Sync,
    ReadAt,
    ReadAtMany,
    SeqRead,
    Meta,
    Generate,
    Fetch,
}

impl Call {
    pub const COUNT: usize = Call::Fetch as usize + 1;
}

/// Where a wrapper call happened: which layer of which node, which
/// method, on which kind of file.
#[derive(Clone, Copy)]
struct Site {
    layer: Layer,
    node: usize,
    call: Call,
    file: usize,
}

/// Per-node index: the primary's mount and KDS client, or the replica's.
pub const PRIMARY: usize = 0;
pub const REPLICA: usize = 1;
const NODES: usize = 2;
/// File-kind slots: the four [`FileKind`]s plus "no file" (metadata, KDS).
const FILES: usize = 5;
const NO_FILE: usize = 4;

/// One aggregation cell's counters.
#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    dur_ns: AtomicU64,
    self_ns: AtomicU64,
    units: AtomicU64,
    bytes: AtomicU64,
}

/// A read-out aggregation cell.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CellStats {
    pub calls: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    /// Requests carried (1 per call except `read_at_many`).
    pub units: u64,
    pub bytes: u64,
}

impl std::ops::AddAssign for CellStats {
    fn add_assign(&mut self, o: CellStats) {
        self.calls += o.calls;
        self.dur_ns += o.dur_ns;
        self.self_ns += o.self_ns;
        self.units += o.units;
        self.bytes += o.bytes;
    }
}

/// Wall and self time of one op type's root spans.
#[derive(Default)]
struct OpCell {
    count: AtomicU64,
    wall_ns: AtomicU64,
    self_ns: AtomicU64,
    /// Ops whose children's self times plus its own self time did not
    /// equal its wall time (broken nesting); must stay 0.
    unbalanced: AtomicU64,
}

/// Per-op-type totals of the root spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct OpStats {
    pub count: u64,
    pub wall_ns: u64,
    /// Time inside the op not covered by any wrapper span: `unattributed`.
    pub self_ns: u64,
    pub unbalanced: u64,
}

/// One closed span, as kept in the span log.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub thread: u64,
    pub op: Op,
    /// `None` for the op's root span.
    pub layer: Option<(Layer, usize, Call)>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    id: u64,
    start: Instant,
    child_ns: u64,
    /// Self time of every descendant, for the balance check.
    desc_self_ns: u64,
    op: Option<Op>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// The in-memory span sink shared by every wrapper of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    cells: Vec<Cell>,
    ops: Vec<OpCell>,
    inflight: [AtomicU64; NODES],
    inflight_max: [AtomicU64; NODES],
    log: Mutex<Vec<SpanRecord>>,
    logged: AtomicUsize,
}

fn cell_index(op: usize, layer: usize, node: usize, call: usize, file: usize) -> usize {
    (((op * Layer::COUNT + layer) * NODES + node) * Call::COUNT + call) * FILES + file
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        let cells = Op::COUNT * Layer::COUNT * NODES * Call::COUNT * FILES;
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            cells: (0..cells).map(|_| Cell::default()).collect(),
            ops: (0..Op::COUNT).map(|_| OpCell::default()).collect(),
            inflight: [AtomicU64::new(0), AtomicU64::new(0)],
            inflight_max: [AtomicU64::new(0), AtomicU64::new(0)],
            log: Mutex::new(Vec::new()),
            logged: AtomicUsize::new(0),
        })
    }

    fn open(&self, op: Option<Op>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                id,
                start: Instant::now(),
                child_ns: 0,
                desc_self_ns: 0,
                op,
            });
        });
        id
    }

    /// Closes the innermost open span (which must be `id`) and returns
    /// (op the span belongs to, its duration, its self time).
    fn close(&self, id: u64, layer: Option<(Layer, usize, Call)>) -> (Op, u64, u64) {
        let end = Instant::now();
        let (start, dur, self_ns, balanced, parent, op) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.pop().expect("span closed on a thread with no open span");
            assert_eq!(frame.id, id, "spans on one thread must nest");
            let dur = end.duration_since(frame.start).as_nanos() as u64;
            let self_ns = dur.saturating_sub(frame.child_ns);
            if let Some(p) = s.last_mut() {
                p.child_ns += dur;
                p.desc_self_ns += self_ns + frame.desc_self_ns;
            }
            let op = s
                .first()
                .and_then(|f| f.op)
                .or(frame.op)
                .unwrap_or(Op::Background);
            let balanced = self_ns + frame.desc_self_ns == dur;
            (
                frame.start,
                dur,
                self_ns,
                balanced,
                s.last().map_or(0, |p| p.id),
                op,
            )
        });
        if layer.is_none() && !balanced {
            self.ops[op as usize]
                .unbalanced
                .fetch_add(1, Ordering::Relaxed);
        }
        // The counter keeps spans past the cap off the lock.
        if self.logged.fetch_add(1, Ordering::Relaxed) < SPAN_LOG_CAP {
            self.log
                .lock()
                .expect("span log poisoned")
                .push(SpanRecord {
                    id,
                    parent,
                    thread: THREAD.with(|t| *t),
                    op,
                    layer,
                    start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                    end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                    self_ns,
                });
        }
        (op, dur, self_ns)
    }

    /// Runs one foreground operation under a root span.
    pub fn op<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        let id = self.open(Some(op));
        let out = f();
        let (_, dur, self_ns) = self.close(id, None);
        let c = &self.ops[op as usize];
        c.count.fetch_add(1, Ordering::Relaxed);
        c.wall_ns.fetch_add(dur, Ordering::Relaxed);
        c.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        out
    }

    /// Runs one wrapper call, carrying `units` requests, under a child span.
    fn call<R>(
        &self,
        at: Site,
        units: u64,
        f: impl FnOnce() -> R,
        bytes: impl FnOnce(&R) -> u64,
    ) -> R {
        let id = self.open(None);
        let out = f();
        let (op, dur, self_ns) = self.close(id, Some((at.layer, at.node, at.call)));
        let c = &self.cells[cell_index(
            op as usize,
            at.layer as usize,
            at.node,
            at.call as usize,
            at.file,
        )];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.dur_ns.fetch_add(dur, Ordering::Relaxed);
        c.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        c.units.fetch_add(units, Ordering::Relaxed);
        c.bytes.fetch_add(bytes(&out), Ordering::Relaxed);
        out
    }

    /// Sums the cells that match every given filter (`None` = any).
    pub fn cells(
        &self,
        op: Option<Op>,
        layer: Option<Layer>,
        node: Option<usize>,
        call: Option<Call>,
        file: Option<FileKind>,
    ) -> CellStats {
        let mut out = CellStats::default();
        for o in Op::ALL {
            if op.is_some_and(|x| x != o) {
                continue;
            }
            for l in Layer::ALL {
                if layer.is_some_and(|x| x != l) {
                    continue;
                }
                for n in 0..NODES {
                    if node.is_some_and(|x| x != n) {
                        continue;
                    }
                    for ci in 0..Call::COUNT {
                        if call.is_some_and(|x| x as usize != ci) {
                            continue;
                        }
                        for fi in 0..FILES {
                            if file.is_some_and(|x| x.index() != fi) {
                                continue;
                            }
                            let c = &self.cells[cell_index(o as usize, l as usize, n, ci, fi)];
                            out += CellStats {
                                calls: c.calls.load(Ordering::Relaxed),
                                dur_ns: c.dur_ns.load(Ordering::Relaxed),
                                self_ns: c.self_ns.load(Ordering::Relaxed),
                                units: c.units.load(Ordering::Relaxed),
                                bytes: c.bytes.load(Ordering::Relaxed),
                            };
                        }
                    }
                }
            }
        }
        out
    }

    pub fn op_stats(&self, op: Op) -> OpStats {
        let c = &self.ops[op as usize];
        OpStats {
            count: c.count.load(Ordering::Relaxed),
            wall_ns: c.wall_ns.load(Ordering::Relaxed),
            self_ns: c.self_ns.load(Ordering::Relaxed),
            unbalanced: c.unbalanced.load(Ordering::Relaxed),
        }
    }

    /// Deepest concurrent read submission seen through `node`'s env.
    pub fn inflight_max(&self, node: usize) -> u64 {
        self.inflight_max[node].load(Ordering::Relaxed)
    }

    /// The kept spans, in close order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.log.lock().expect("span log poisoned").clone()
    }

    fn read_start(&self, node: usize, n: u64) {
        let now = self.inflight[node].fetch_add(n, Ordering::Relaxed) + n;
        self.inflight_max[node].fetch_max(now, Ordering::Relaxed);
    }

    fn read_end(&self, node: usize, n: u64) {
        self.inflight[node].fetch_sub(n, Ordering::Relaxed);
    }
}

/// Times every [`Env`] method and every file-handle method it returns.
pub struct TimedEnv {
    inner: Arc<dyn Env>,
    tracer: Arc<Tracer>,
    layer: Layer,
    node: usize,
}

impl TimedEnv {
    pub fn new(inner: Arc<dyn Env>, tracer: Arc<Tracer>, layer: Layer, node: usize) -> Arc<Self> {
        Arc::new(TimedEnv {
            inner,
            tracer,
            layer,
            node,
        })
    }

    fn at(&self, call: Call, file: usize) -> Site {
        Site {
            layer: self.layer,
            node: self.node,
            call,
            file,
        }
    }

    fn meta<R>(&self, f: impl FnOnce() -> R) -> R {
        self.tracer.call(self.at(Call::Meta, NO_FILE), 1, f, |_| 0)
    }

    fn opened<R>(&self, kind: FileKind, f: impl FnOnce() -> R) -> R {
        self.tracer
            .call(self.at(Call::Open, kind.index()), 1, f, |_| 0)
    }

    fn handle(&self, kind: FileKind) -> Handle {
        Handle {
            tracer: self.tracer.clone(),
            layer: self.layer,
            node: self.node,
            file: kind.index(),
        }
    }
}

/// What a wrapped file handle needs to record its calls.
struct Handle {
    tracer: Arc<Tracer>,
    layer: Layer,
    node: usize,
    file: usize,
}

impl Handle {
    fn call<R>(
        &self,
        call: Call,
        units: u64,
        f: impl FnOnce() -> R,
        bytes: impl FnOnce(&R) -> u64,
    ) -> R {
        let at = Site {
            layer: self.layer,
            node: self.node,
            call,
            file: self.file,
        };
        self.tracer.call(at, units, f, bytes)
    }

    /// Only the env the engine calls counts in-flight reads.
    fn counts_inflight(&self) -> bool {
        self.layer == Layer::Env
    }
}

struct TimedWritable {
    inner: Box<dyn WritableFile>,
    h: Handle,
}

impl WritableFile for TimedWritable {
    fn append(&mut self, data: &[u8]) -> EnvResult<()> {
        let n = data.len() as u64;
        let inner = &mut self.inner;
        self.h.call(Call::Append, 1, || inner.append(data), |_| n)
    }

    fn flush(&mut self) -> EnvResult<()> {
        let inner = &mut self.inner;
        self.h.call(Call::Flush, 1, || inner.flush(), |_| 0)
    }

    fn sync(&mut self) -> EnvResult<()> {
        let inner = &mut self.inner;
        self.h.call(Call::Sync, 1, || inner.sync(), |_| 0)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct TimedRandom {
    inner: Arc<dyn RandomAccessFile>,
    h: Handle,
}

impl RandomAccessFile for TimedRandom {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        let counted = self.h.counts_inflight();
        if counted {
            self.h.tracer.read_start(self.h.node, 1);
        }
        let out = self.h.call(
            Call::ReadAt,
            1,
            || self.inner.read_at(offset, len),
            |r| r.as_ref().map_or(0, |b| b.len() as u64),
        );
        if counted {
            self.h.tracer.read_end(self.h.node, 1);
        }
        out
    }

    fn len(&self) -> EnvResult<u64> {
        self.inner.len()
    }

    fn read_at_many(&self, requests: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
        let n = requests.len() as u64;
        let counted = self.h.counts_inflight();
        if counted {
            self.h.tracer.read_start(self.h.node, n);
        }
        let out = self.h.call(
            Call::ReadAtMany,
            n,
            || self.inner.read_at_many(requests),
            |r| r.iter().flatten().map(|b| b.len() as u64).sum(),
        );
        if counted {
            self.h.tracer.read_end(self.h.node, n);
        }
        out
    }
}

struct TimedSequential {
    inner: Box<dyn SequentialFile>,
    h: Handle,
}

impl SequentialFile for TimedSequential {
    fn read(&mut self, buf: &mut [u8]) -> EnvResult<usize> {
        let inner = &mut self.inner;
        self.h.call(
            Call::SeqRead,
            1,
            || inner.read(buf),
            |r| *r.as_ref().unwrap_or(&0) as u64,
        )
    }
}

impl Env for TimedEnv {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        let inner = self.opened(kind, || self.inner.new_writable_file(path, kind))?;
        Ok(Box::new(TimedWritable {
            inner,
            h: self.handle(kind),
        }))
    }

    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
        let inner = self.opened(kind, || self.inner.new_random_access_file(path, kind))?;
        Ok(Arc::new(TimedRandom {
            inner,
            h: self.handle(kind),
        }))
    }

    fn new_sequential_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Box<dyn SequentialFile>> {
        let inner = self.opened(kind, || self.inner.new_sequential_file(path, kind))?;
        Ok(Box::new(TimedSequential {
            inner,
            h: self.handle(kind),
        }))
    }

    fn remove_file(&self, path: &str) -> EnvResult<()> {
        self.meta(|| self.inner.remove_file(path))
    }

    fn rename(&self, from: &str, to: &str) -> EnvResult<()> {
        self.meta(|| self.inner.rename(from, to))
    }

    fn file_exists(&self, path: &str) -> bool {
        self.meta(|| self.inner.file_exists(path))
    }

    fn file_size(&self, path: &str) -> EnvResult<u64> {
        self.meta(|| self.inner.file_size(path))
    }

    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>> {
        self.meta(|| self.inner.list_dir(dir))
    }

    fn create_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.meta(|| self.inner.create_dir_all(dir))
    }

    fn remove_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.meta(|| self.inner.remove_dir_all(dir))
    }

    fn io_stats(&self) -> Option<Arc<IoStats>> {
        self.inner.io_stats()
    }

    fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.inner.fault_stats()
    }

    fn set_event_listener(&self, listener: Arc<dyn shield_core::EventListener>) {
        self.inner.set_event_listener(listener);
    }
}

/// Times DEK generation and fetch; forwards everything else.
pub struct TimedKds {
    inner: Arc<dyn Kds>,
    tracer: Arc<Tracer>,
    node: usize,
}

impl TimedKds {
    pub fn new(inner: Arc<dyn Kds>, tracer: Arc<Tracer>, node: usize) -> Arc<Self> {
        Arc::new(TimedKds {
            inner,
            tracer,
            node,
        })
    }

    fn at(&self, call: Call) -> Site {
        Site {
            layer: Layer::Kds,
            node: self.node,
            call,
            file: NO_FILE,
        }
    }
}

impl Kds for TimedKds {
    fn generate_dek(&self, requester: ServerId, algorithm: Algorithm) -> KdsResult<Dek> {
        self.tracer.call(
            self.at(Call::Generate),
            1,
            || self.inner.generate_dek(requester, algorithm),
            |_| 0,
        )
    }

    fn fetch_dek(&self, requester: ServerId, id: DekId) -> KdsResult<Dek> {
        self.tracer.call(
            self.at(Call::Fetch),
            1,
            || self.inner.fetch_dek(requester, id),
            |_| 0,
        )
    }

    fn revoke_dek(&self, id: DekId) -> KdsResult<()> {
        self.tracer
            .call(self.at(Call::Meta), 1, || self.inner.revoke_dek(id), |_| 0)
    }

    fn authorize_server(&self, server: ServerId) {
        self.inner.authorize_server(server);
    }

    fn revoke_server(&self, server: ServerId) {
        self.inner.revoke_server(server);
    }

    fn stats(&self) -> KdsStats {
        self.inner.stats()
    }
}
