//! The `Storage` and `App` decorators must not change what they wrap:
//! every trait method is forwarded, and a decorated cluster ends in the
//! same replies and service state as an undecorated one.

use crate::cluster::{Spec, Steady, NODES};
use crate::gen::{Engine, GenConfig, KeySpace, Load, Op, Until};
use crate::trace::{TracedApp, TracedStorage, Tracer};
use bytes::Bytes;
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{Decree, DedupEntry, SnapshotBlob, StateUpdate};
use gridpaxos_core::config::Config;
use gridpaxos_core::request::{AbortReason, ReplyBody, Request, RequestId, RequestKind};
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState, Storage};
use gridpaxos_core::types::{ClientId, Instance, Seq, Time, TxnId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Calls = Arc<Mutex<Vec<&'static str>>>;

fn note(c: &Calls, name: &'static str) {
    c.lock().expect("calls lock").push(name);
}

/// Records the name of every `Storage` method called on it.
struct RecStorage(Calls);

impl Storage for RecStorage {
    fn save_promised(&mut self, _: Ballot) {
        note(&self.0, "save_promised");
    }
    fn save_accepted(&mut self, _: Instance, _: Ballot, _: &Decree) {
        note(&self.0, "save_accepted");
    }
    fn save_chosen_prefix(&mut self, _: Instance) {
        note(&self.0, "save_chosen_prefix");
    }
    fn save_checkpoint(&mut self, _: &SnapshotBlob) {
        note(&self.0, "save_checkpoint");
    }
    fn truncate_upto(&mut self, _: Instance) {
        note(&self.0, "truncate_upto");
    }
    fn load(&self) -> DurableState {
        note(&self.0, "load");
        DurableState::default()
    }
    fn flush(&mut self) {
        note(&self.0, "flush");
    }
    fn is_dirty(&self) -> bool {
        note(&self.0, "is_dirty");
        true
    }
    fn write_count(&self) -> u64 {
        note(&self.0, "write_count");
        7
    }
    fn supports_chunked_checkpoint(&self) -> bool {
        note(&self.0, "supports_chunked_checkpoint");
        true
    }
    fn checkpoint_begin(&mut self, _: Instance, _: &[DedupEntry], _: usize) {
        note(&self.0, "checkpoint_begin");
    }
    fn checkpoint_chunk(&mut self, _: usize, _: Bytes) {
        note(&self.0, "checkpoint_chunk");
    }
    fn checkpoint_commit(&mut self) {
        note(&self.0, "checkpoint_commit");
    }
    fn checkpoint_abort(&mut self) {
        note(&self.0, "checkpoint_abort");
    }
    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        note(&self.0, "checkpoint_chunks");
        None
    }
}

/// Records the name of every `App` method called on it.
struct RecApp(Calls);

impl App for RecApp {
    fn execute(&mut self, _: &Request, _: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        note(&self.0, "execute");
        (Bytes::from_static(b"x"), StateUpdate::None)
    }
    fn apply(&mut self, _: &Request, _: &StateUpdate) {
        note(&self.0, "apply");
    }
    fn snapshot(&self) -> Bytes {
        note(&self.0, "snapshot");
        Bytes::from_static(b"s")
    }
    fn restore(&mut self, _: &[u8]) {
        note(&self.0, "restore");
    }
    fn shard_key(&self, _: &Request) -> Option<u64> {
        note(&self.0, "shard_key");
        Some(9)
    }
    fn txn_begin(&mut self, _: TxnId) {
        note(&self.0, "txn_begin");
    }
    fn txn_execute(
        &mut self,
        _: TxnId,
        _: &Request,
        _: bool,
        _: &mut ExecCtx<'_>,
    ) -> Result<(Bytes, StateUpdate), AbortReason> {
        note(&self.0, "txn_execute");
        Err(AbortReason::ClientAbort)
    }
    fn txn_commit(&mut self, _: TxnId) -> StateUpdate {
        note(&self.0, "txn_commit");
        StateUpdate::None
    }
    fn txn_abort(&mut self, _: TxnId) {
        note(&self.0, "txn_abort");
    }
    fn tentative_begin(&mut self) -> bool {
        note(&self.0, "tentative_begin");
        true
    }
    fn tentative_rollback(&mut self) {
        note(&self.0, "tentative_rollback");
    }
    fn tentative_commit(&mut self) {
        note(&self.0, "tentative_commit");
    }
    fn snapshot_begin(&mut self, _: usize) -> usize {
        note(&self.0, "snapshot_begin");
        3
    }
    fn snapshot_chunk(&mut self, _: usize) -> Bytes {
        note(&self.0, "snapshot_chunk");
        Bytes::from_static(b"c")
    }
    fn snapshot_end(&mut self) {
        note(&self.0, "snapshot_end");
    }
    fn txn_prepare(
        &mut self,
        _: TxnId,
        _: &Request,
        _: &mut ExecCtx<'_>,
    ) -> Result<StateUpdate, AbortReason> {
        note(&self.0, "txn_prepare");
        Ok(StateUpdate::None)
    }
    fn txn_decide(&mut self, _: TxnId, commit: bool, _: bool) -> (bool, StateUpdate) {
        note(&self.0, "txn_decide");
        (!commit, StateUpdate::None)
    }
    fn apply_txn_decide(&mut self, _: TxnId, _: bool, _: &StateUpdate) {
        note(&self.0, "apply_txn_decide");
    }
    fn apply_txn_commit(&mut self, _: TxnId, _: &[Request], _: &StateUpdate) {
        note(&self.0, "apply_txn_commit");
    }
}

fn take(c: &Calls) -> Vec<&'static str> {
    std::mem::take(&mut *c.lock().expect("calls lock"))
}

#[test]
fn storage_decorator_forwards_every_method() {
    for traced in [false, true] {
        let calls = Calls::default();
        let tracer = Tracer::new(1, Instant::now());
        tracer.set_enabled(traced);
        let mut s = TracedStorage::new(RecStorage(calls.clone()), Arc::clone(&tracer), 0);
        s.save_promised(Ballot::ZERO);
        s.save_accepted(Instance(1), Ballot::ZERO, &Decree::noop());
        s.save_chosen_prefix(Instance(1));
        s.save_checkpoint(&SnapshotBlob {
            upto: Instance(1),
            app: Bytes::new(),
            dedup: Vec::new(),
        });
        s.truncate_upto(Instance(1));
        let _ = s.load();
        s.flush();
        assert!(s.is_dirty());
        assert_eq!(s.write_count(), 7);
        assert!(s.supports_chunked_checkpoint());
        s.checkpoint_begin(Instance(1), &[], 1);
        s.checkpoint_chunk(0, Bytes::new());
        s.checkpoint_commit();
        s.checkpoint_abort();
        assert!(s.checkpoint_chunks().is_none());
        assert_eq!(
            take(&calls),
            vec![
                "save_promised",
                "save_accepted",
                "save_chosen_prefix",
                "save_checkpoint",
                "truncate_upto",
                "load",
                "flush",
                "is_dirty",
                "write_count",
                "supports_chunked_checkpoint",
                "checkpoint_begin",
                "checkpoint_chunk",
                "checkpoint_commit",
                "checkpoint_abort",
                "checkpoint_chunks",
            ]
        );
        // Tracing records spans only while enabled; the flush also closes
        // the dirty window opened by the first write.
        assert_eq!(tracer.drain().is_empty(), !traced);
    }
}

#[test]
fn app_decorator_forwards_every_method() {
    for traced in [false, true] {
        let calls = Calls::default();
        let tracer = Tracer::new(1, Instant::now());
        tracer.set_enabled(traced);
        let mut a = TracedApp::new(RecApp(calls.clone()), Arc::clone(&tracer), 0);
        let req = Request::new(
            RequestId::new(ClientId(1), Seq(1)),
            RequestKind::Write,
            Bytes::new(),
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        assert_eq!(a.execute(&req, &mut ctx).0, Bytes::from_static(b"x"));
        a.apply(&req, &StateUpdate::None);
        assert_eq!(a.snapshot(), Bytes::from_static(b"s"));
        a.restore(b"s");
        assert_eq!(a.shard_key(&req), Some(9));
        a.txn_begin(TxnId(1));
        assert!(a.txn_execute(TxnId(1), &req, true, &mut ctx).is_err());
        let _ = a.txn_commit(TxnId(1));
        a.txn_abort(TxnId(1));
        assert!(a.tentative_begin());
        a.tentative_rollback();
        a.tentative_commit();
        assert_eq!(a.snapshot_begin(16), 3);
        assert_eq!(a.snapshot_chunk(0), Bytes::from_static(b"c"));
        a.snapshot_end();
        assert!(a.txn_prepare(TxnId(1), &req, &mut ctx).is_ok());
        assert!(!a.txn_decide(TxnId(1), true, true).0);
        a.apply_txn_decide(TxnId(1), true, &StateUpdate::None);
        a.apply_txn_commit(TxnId(1), &[], &StateUpdate::None);
        assert_eq!(
            take(&calls),
            vec![
                "execute",
                "apply",
                "snapshot",
                "restore",
                "shard_key",
                "txn_begin",
                "txn_execute",
                "txn_commit",
                "txn_abort",
                "tentative_begin",
                "tentative_rollback",
                "tentative_commit",
                "snapshot_begin",
                "snapshot_chunk",
                "snapshot_end",
                "txn_prepare",
                "txn_decide",
                "apply_txn_decide",
                "apply_txn_commit",
            ]
        );
        assert_eq!(tracer.drain().is_empty(), !traced);
    }
}

/// Drive a two-group in-memory cluster with one client through a seeded
/// mix of puts, reads, adds and cross-shard transfers, with checkpoints
/// every 16 decrees in 64-byte chunks. Returns every reply body and each
/// group leader's final service snapshot.
fn drive(seed: u64, decorated: bool) -> (Vec<ReplyBody>, Vec<Bytes>) {
    let groups = 2;
    let spec = Spec {
        n_groups: groups,
        durable: false,
        cfg: Config::cluster(NODES)
            .with_checkpoint_every(16)
            .with_checkpoint_chunk_bytes(64),
    };
    let epoch = Instant::now();
    let tracer = decorated.then(|| Tracer::new(NODES, epoch));
    if let Some(t) = &tracer {
        t.set_enabled(true);
    }
    let dir = std::env::temp_dir();
    let cluster = Steady::launch(&spec, &dir, tracer.clone()).expect("launch");
    let cfg = GenConfig {
        n_nodes: NODES,
        n_groups: groups,
        max_conns: 2,
        retry: Duration::from_millis(2),
        deadline: Duration::from_secs(10),
        keys: KeySpace::Kv,
        client_base: 1,
    };
    let mut engine = Engine::new(cfg, cluster.addrs.clone(), epoch, 2_000).expect("engine");
    engine.replies = Some(Vec::new());
    let mut rng = seed;
    let mut next = move || {
        let r = crate::gen::splitmix(&mut rng);
        let key = (r >> 8) as u32 % 50;
        match r % 4 {
            0 => Op::Put(key),
            1 => Op::Get(key),
            2 => Op::Add(1_000 + key, 5),
            _ => Op::Transfer {
                src: 1_000 + key,
                dst: 1_000 + (key + 1 + (r >> 20) as u32 % 49) % 50,
                amount: 3,
            },
        }
    };
    let acct = engine.run_phase(Load::Closed { clients: 1 }, Until::Ops(300), &mut next);
    assert_eq!((acct.committed, acct.failed), (300, 0), "every op commits");
    engine.close();
    let replies = engine.replies.take().expect("recorded");
    let replicas = cluster.shutdown();
    let checkpoints: u64 = replicas.iter().flatten().map(|r| r.stats.checkpoints).sum();
    assert!(checkpoints > 0, "the run took checkpoints");
    assert!(
        replies.iter().any(ReplyBody::is_committed),
        "the run committed transfers"
    );
    let snaps = (0..groups)
        .map(|g| {
            let leader = (0..NODES)
                .find(|&n| replicas[n][g].is_leader())
                .expect("each group has a leader");
            replicas[leader][g].service_snapshot()
        })
        .collect();
    if let Some(t) = tracer {
        assert!(!t.drain().is_empty(), "the decorated run recorded spans");
    }
    (replies, snaps)
}

#[test]
fn decorated_cluster_ends_like_the_undecorated_one() {
    let plain = drive(7, false);
    let decorated = drive(7, true);
    assert!(plain.0.len() >= 300);
    assert_eq!(plain.0, decorated.0, "replies differ");
    assert_eq!(plain.1, decorated.1, "service state differs");
}
