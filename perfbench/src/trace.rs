//! In-memory span recording and the `Storage` / `App` decorators that time
//! the storage and service layers from outside, through their public
//! traits.
//!
//! A [`Tracer`] holds one span buffer per node (each node's reactor thread
//! is the only writer of its buffer, so the lock is uncontended) plus an
//! enable flag. Decorators forward every trait method to the wrapped value
//! and, while the flag is on, record a [`Span`] around the calls the
//! per-layer metrics need. Spans of one request carry its `RequestId`.

use bytes::Bytes;
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{Decree, DedupEntry, SnapshotBlob, StateUpdate};
use gridpaxos_core::request::{AbortReason, Request, RequestId};
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState, Storage};
use gridpaxos_core::types::{Instance, TxnId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span timed. The name printed in span dumps is [`Kind::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `App::execute` on the leader.
    Execute,
    /// `App::apply` (every replica).
    Apply,
    /// `App::txn_prepare` on a participant leader.
    TxnPrepare,
    /// `App::txn_decide` / `App::apply_txn_decide`.
    TxnDecide,
    /// `App::snapshot` or one `App::snapshot_chunk`.
    Snapshot,
    /// Any other `App` call (transactions, tentative execution, restore).
    AppOther,
    /// `Storage::save_promised` / `save_accepted` / `save_chosen_prefix`.
    Append,
    /// `Storage::flush`.
    Flush,
    /// From the first write that dirtied the storage to the flush start.
    FlushWait,
    /// `Storage::save_checkpoint` or the chunked checkpoint calls.
    Checkpoint,
    /// Any other `Storage` call (truncate, load).
    StorageOther,
}

impl Kind {
    /// Span name, `layer.call`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Execute => "apply.execute",
            Kind::Apply => "apply.apply",
            Kind::TxnPrepare => "apply.txn_prepare",
            Kind::TxnDecide => "apply.txn_decide",
            Kind::Snapshot => "apply.snapshot",
            Kind::AppOther => "apply.other",
            Kind::Append => "fstorage.append",
            Kind::Flush => "fstorage.flush",
            Kind::FlushWait => "fstorage.flush_wait",
            Kind::Checkpoint => "fstorage.checkpoint",
            Kind::StorageOther => "fstorage.other",
        }
    }

    /// Whether the span is time the layer spent working (as opposed to
    /// time work waited for it).
    #[must_use]
    pub fn is_busy(self) -> bool {
        !matches!(self, Kind::FlushWait)
    }

    /// Whether the span belongs to the storage layer.
    #[must_use]
    pub fn is_storage(self) -> bool {
        matches!(
            self,
            Kind::Append | Kind::Flush | Kind::FlushWait | Kind::Checkpoint | Kind::StorageOther
        )
    }
}

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was timed.
    pub kind: Kind,
    /// Node the call ran on.
    pub node: u32,
    /// The request the call served, when the layer sees one. It is also
    /// the span's parent: the client request span with the same id.
    pub req: Option<RequestId>,
    /// Start, ns since the tracer epoch.
    pub start: u64,
    /// End, ns since the tracer epoch.
    pub end: u64,
}

/// Shared span recorder for one cluster.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    nodes: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A disabled tracer for `n_nodes` nodes, timing from `epoch`.
    #[must_use]
    pub fn new(n_nodes: usize, epoch: Instant) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch,
            enabled: AtomicBool::new(false),
            nodes: (0..n_nodes).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// Turn recording on or off. Relaxed: the flag publishes no data.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record(&self, node: u32, kind: Kind, req: Option<RequestId>, start: Instant) {
        let end = Instant::now();
        let span = Span {
            kind,
            node,
            req,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.nodes[node as usize]
            .lock()
            .expect("span buffer lock poisoned by a panicking reactor")
            .push(span);
    }

    /// Take every span recorded so far, all nodes, in node order.
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for n in &self.nodes {
            out.append(&mut n.lock().expect("span buffer lock poisoned"));
        }
        out
    }
}

/// Run `f`, recording a span of `kind` when the tracer is on.
fn timed<R>(t: &Tracer, node: u32, kind: Kind, req: Option<RequestId>, f: impl FnOnce() -> R) -> R {
    if !t.enabled() {
        return f();
    }
    let start = Instant::now();
    let r = f();
    t.record(node, kind, req, start);
    r
}

/// A [`Storage`] that forwards every call and times the storage layer.
pub struct TracedStorage<S> {
    inner: S,
    tracer: Arc<Tracer>,
    node: u32,
    /// When the first write since the last flush happened (for
    /// [`Kind::FlushWait`]).
    dirty_since: Option<Instant>,
}

impl<S: Storage> TracedStorage<S> {
    /// Wrap `inner`, recording into `tracer` as node `node`.
    pub fn new(inner: S, tracer: Arc<Tracer>, node: u32) -> TracedStorage<S> {
        TracedStorage {
            inner,
            tracer,
            node,
            dirty_since: None,
        }
    }

    fn append<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        if self.dirty_since.is_none() && self.tracer.enabled() {
            self.dirty_since = Some(Instant::now());
        }
        let (t, node, inner) = (&self.tracer, self.node, &mut self.inner);
        timed(t, node, Kind::Append, None, || f(inner))
    }

    fn call<R>(&mut self, kind: Kind, f: impl FnOnce(&mut S) -> R) -> R {
        let (t, node, inner) = (&self.tracer, self.node, &mut self.inner);
        timed(t, node, kind, None, || f(inner))
    }
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn save_promised(&mut self, b: Ballot) {
        self.append(|s| s.save_promised(b));
    }
    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
        self.append(|s| s.save_accepted(i, b, d));
    }
    fn save_chosen_prefix(&mut self, upto: Instance) {
        self.append(|s| s.save_chosen_prefix(upto));
    }
    fn save_checkpoint(&mut self, snap: &SnapshotBlob) {
        self.call(Kind::Checkpoint, |s| s.save_checkpoint(snap));
    }
    fn truncate_upto(&mut self, upto: Instance) {
        self.call(Kind::StorageOther, |s| s.truncate_upto(upto));
    }
    fn load(&self) -> DurableState {
        self.inner.load()
    }
    fn flush(&mut self) {
        if let Some(since) = self.dirty_since.take() {
            if self.tracer.enabled() {
                self.tracer.record(self.node, Kind::FlushWait, None, since);
            }
        }
        self.call(Kind::Flush, Storage::flush);
    }
    fn is_dirty(&self) -> bool {
        self.inner.is_dirty()
    }
    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }
    fn supports_chunked_checkpoint(&self) -> bool {
        self.inner.supports_chunked_checkpoint()
    }
    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        self.call(Kind::Checkpoint, |s| s.checkpoint_begin(upto, dedup, total));
    }
    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        self.call(Kind::Checkpoint, |s| s.checkpoint_chunk(idx, data));
    }
    fn checkpoint_commit(&mut self) {
        self.call(Kind::Checkpoint, Storage::checkpoint_commit);
    }
    fn checkpoint_abort(&mut self) {
        self.call(Kind::Checkpoint, Storage::checkpoint_abort);
    }
    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        self.inner.checkpoint_chunks()
    }
}

/// An [`App`] that forwards every call and times the service layer.
pub struct TracedApp<A> {
    inner: A,
    tracer: Arc<Tracer>,
    node: u32,
}

impl<A: App> TracedApp<A> {
    /// Wrap `inner`, recording into `tracer` as node `node`.
    pub fn new(inner: A, tracer: Arc<Tracer>, node: u32) -> TracedApp<A> {
        TracedApp {
            inner,
            tracer,
            node,
        }
    }

    fn call<R>(&mut self, kind: Kind, req: Option<RequestId>, f: impl FnOnce(&mut A) -> R) -> R {
        let (t, node, inner) = (&self.tracer, self.node, &mut self.inner);
        timed(t, node, kind, req, || f(inner))
    }
}

impl<A: App> App for TracedApp<A> {
    fn execute(&mut self, req: &Request, ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        self.call(Kind::Execute, Some(req.id), |a| a.execute(req, ctx))
    }
    fn apply(&mut self, req: &Request, update: &StateUpdate) {
        self.call(Kind::Apply, Some(req.id), |a| a.apply(req, update));
    }
    fn snapshot(&self) -> Bytes {
        timed(&self.tracer, self.node, Kind::Snapshot, None, || {
            self.inner.snapshot()
        })
    }
    fn restore(&mut self, snap: &[u8]) {
        self.call(Kind::AppOther, None, |a| a.restore(snap));
    }
    fn shard_key(&self, req: &Request) -> Option<u64> {
        self.inner.shard_key(req)
    }
    fn txn_begin(&mut self, txn: TxnId) {
        self.call(Kind::AppOther, None, |a| a.txn_begin(txn));
    }
    fn txn_execute(
        &mut self,
        txn: TxnId,
        req: &Request,
        durable: bool,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Bytes, StateUpdate), AbortReason> {
        self.call(Kind::AppOther, Some(req.id), |a| {
            a.txn_execute(txn, req, durable, ctx)
        })
    }
    fn txn_commit(&mut self, txn: TxnId) -> StateUpdate {
        self.call(Kind::AppOther, None, |a| a.txn_commit(txn))
    }
    fn txn_abort(&mut self, txn: TxnId) {
        self.call(Kind::AppOther, None, |a| a.txn_abort(txn));
    }
    fn tentative_begin(&mut self) -> bool {
        self.call(Kind::AppOther, None, App::tentative_begin)
    }
    fn tentative_rollback(&mut self) {
        self.call(Kind::AppOther, None, App::tentative_rollback);
    }
    fn tentative_commit(&mut self) {
        self.call(Kind::AppOther, None, App::tentative_commit);
    }
    fn snapshot_begin(&mut self, chunk_bytes: usize) -> usize {
        self.call(Kind::Snapshot, None, |a| a.snapshot_begin(chunk_bytes))
    }
    fn snapshot_chunk(&mut self, idx: usize) -> Bytes {
        self.call(Kind::Snapshot, None, |a| a.snapshot_chunk(idx))
    }
    fn snapshot_end(&mut self) {
        self.call(Kind::Snapshot, None, App::snapshot_end);
    }
    fn txn_prepare(
        &mut self,
        txn: TxnId,
        req: &Request,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<StateUpdate, AbortReason> {
        self.call(Kind::TxnPrepare, Some(req.id), |a| {
            a.txn_prepare(txn, req, ctx)
        })
    }
    fn txn_decide(&mut self, txn: TxnId, commit: bool, record: bool) -> (bool, StateUpdate) {
        self.call(Kind::TxnDecide, None, |a| a.txn_decide(txn, commit, record))
    }
    fn apply_txn_decide(&mut self, txn: TxnId, commit: bool, update: &StateUpdate) {
        self.call(Kind::TxnDecide, None, |a| {
            a.apply_txn_decide(txn, commit, update)
        });
    }
    fn apply_txn_commit(&mut self, txn: TxnId, ops: &[Request], update: &StateUpdate) {
        self.call(Kind::AppOther, None, |a| {
            a.apply_txn_commit(txn, ops, update)
        });
    }
}
