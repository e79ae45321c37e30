//! Launching the 3-node reactor cluster under test, with the benchmark's
//! own storage (and, when tracing, the `Storage` / `App` decorators).
//!
//! Steady workloads use [`ReactorCluster::launch_with_storage`]. The
//! failover workload builds each node with [`spawn_reactor_node`] so that
//! every node has its own stop flag and can be stopped and recovered from
//! its data directory on its own.

use crate::trace::{TracedApp, TracedStorage, Tracer};
use gridpaxos_core::config::Config;
use gridpaxos_core::multi::{group_config, group_seed};
use gridpaxos_core::replica::{Replica, ReplicaStats};
use gridpaxos_core::service::App;
use gridpaxos_core::storage::{MemStorage, Storage};
use gridpaxos_core::types::{GroupId, ProcessId, Time};
use gridpaxos_services::kvstore::{shard_router, KvStore};
use gridpaxos_transport::fstorage::{FlushCoordinator, SyncMode};
use gridpaxos_transport::reactor::{
    spawn_reactor_node, ReactorCluster, ReactorConfig, ReactorHandle, ReactorMetrics, ReactorStats,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replica nodes in every workload.
pub const NODES: usize = 3;

/// What to launch.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Consensus groups per node.
    pub n_groups: usize,
    /// `FileStorage` (batched group commit) under the data directory when
    /// set, `MemStorage` otherwise.
    pub durable: bool,
    /// Protocol configuration.
    pub cfg: Config,
}

/// The service of group `g` of `n_groups`.
fn kv_app(g: usize, n_groups: usize) -> KvStore {
    if n_groups > 1 {
        KvStore::sharded_in(g as u32, n_groups)
    } else {
        KvStore::new()
    }
}

fn boxed_app(app: KvStore, tracer: Option<&Arc<Tracer>>, node: usize) -> Box<dyn App> {
    match tracer {
        Some(t) => Box::new(TracedApp::new(app, Arc::clone(t), node as u32)),
        None => Box::new(app),
    }
}

fn boxed_storage<S: Storage + 'static>(
    s: S,
    tracer: Option<&Arc<Tracer>>,
    node: usize,
) -> Box<dyn Storage> {
    match tracer {
        Some(t) => Box::new(TracedStorage::new(s, Arc::clone(t), node as u32)),
        None => Box::new(s),
    }
}

fn open_coordinator(dir: &Path, node: usize, n_groups: usize) -> io::Result<FlushCoordinator> {
    FlushCoordinator::open(
        dir.join(format!("node-{node}")),
        SyncMode::Batched,
        n_groups,
    )
}

/// Counters the benchmark reads while the cluster runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Live {
    /// Reactor counters, summed over nodes.
    pub reactor: ReactorStats,
    /// Shared-WAL appends, summed over nodes.
    pub appends: u64,
    /// Shared-WAL syncs, summed over nodes.
    pub syncs: u64,
}

fn add_stats(a: &mut ReactorStats, b: &ReactorStats) {
    a.accepted += b.accepted;
    a.msgs_in += b.msgs_in;
    a.msgs_out += b.msgs_out;
    a.bytes_in += b.bytes_in;
    a.bytes_out += b.bytes_out;
    a.busy_shed += b.busy_shed;
    a.frames_dropped += b.frames_dropped;
    a.reads_suspended += b.reads_suspended;
    a.partial_writes += b.partial_writes;
    a.unroutable += b.unroutable;
}

/// `b - a`, counter by counter.
#[must_use]
pub fn live_delta(a: &Live, b: &Live) -> Live {
    let (x, y) = (&a.reactor, &b.reactor);
    Live {
        reactor: ReactorStats {
            accepted: y.accepted - x.accepted,
            msgs_in: y.msgs_in - x.msgs_in,
            msgs_out: y.msgs_out - x.msgs_out,
            bytes_in: y.bytes_in - x.bytes_in,
            bytes_out: y.bytes_out - x.bytes_out,
            busy_shed: y.busy_shed - x.busy_shed,
            frames_dropped: y.frames_dropped - x.frames_dropped,
            reads_suspended: y.reads_suspended - x.reads_suspended,
            partial_writes: y.partial_writes - x.partial_writes,
            unroutable: y.unroutable - x.unroutable,
        },
        appends: b.appends - a.appends,
        syncs: b.syncs - a.syncs,
    }
}

/// Sum of `Replica.stats` over replicas.
pub fn add_replica_stats(acc: &mut ReplicaStats, s: &ReplicaStats) {
    acc.commits_led += s.commits_led;
    acc.xpaxos_reads += s.xpaxos_reads;
    acc.batched_reads += s.batched_reads;
    acc.confirm_rounds += s.confirm_rounds;
    acc.elections_started += s.elections_started;
    acc.elections_won += s.elections_won;
    acc.step_downs += s.step_downs;
    acc.applied += s.applied;
    acc.checkpoints += s.checkpoints;
    acc.checkpoint_bytes += s.checkpoint_bytes;
}

/// A steady cluster: [`ReactorCluster`] over benchmark-owned storage.
pub struct Steady {
    inner: ReactorCluster,
    coords: Vec<FlushCoordinator>,
    /// Listen address of node `i` at index `i`.
    pub addrs: Vec<SocketAddr>,
}

impl Steady {
    /// Launch `spec` with data under `dir` (durable only). Groups whose
    /// storage holds state are recovered.
    pub fn launch(spec: &Spec, dir: &Path, tracer: Option<Arc<Tracer>>) -> io::Result<Steady> {
        let g = spec.n_groups;
        let coords = if spec.durable {
            (0..NODES)
                .map(|i| open_coordinator(dir, i, g))
                .collect::<io::Result<Vec<_>>>()?
        } else {
            Vec::new()
        };
        // `launch_with_storage` asks for the apps node by node, group by
        // group, so the call count names the node and group.
        let calls = AtomicUsize::new(0);
        let t_app = tracer.clone();
        let app_factory = move || {
            let c = calls.fetch_add(1, Ordering::Relaxed);
            boxed_app(kv_app(c % g, g), t_app.as_ref(), c / g)
        };
        let storage_factory = |id: ProcessId| -> Vec<Box<dyn Storage>> {
            let node = id.0 as usize;
            (0..g)
                .map(|gi| match coords.get(node) {
                    Some(c) => boxed_storage(c.storage(gi), tracer.as_ref(), node),
                    None => boxed_storage(MemStorage::new(), tracer.as_ref(), node),
                })
                .collect()
        };
        let router = (g > 1).then(shard_router);
        let inner = ReactorCluster::launch_with_storage(
            spec.cfg.clone(),
            g,
            app_factory,
            router,
            ReactorConfig::default(),
            storage_factory,
        )?;
        let addrs = (0..NODES)
            .map(|i| inner.addrs[&ProcessId(i as u32)])
            .collect();
        Ok(Steady {
            inner,
            coords,
            addrs,
        })
    }

    /// Current counters.
    #[must_use]
    pub fn live(&self) -> Live {
        let mut l = Live::default();
        for i in 0..NODES {
            add_stats(&mut l.reactor, &self.inner.metrics(i).stats());
        }
        for c in &self.coords {
            l.appends += c.appends();
            l.syncs += c.syncs();
        }
        l
    }

    /// Stop every node; returns `replicas[node][group]`.
    pub fn shutdown(self) -> Vec<Vec<Replica>> {
        self.inner.shutdown()
    }
}

struct Node {
    stop: Arc<AtomicBool>,
    handle: Option<ReactorHandle>,
    coord: Option<FlushCoordinator>,
}

/// A single-group durable cluster whose nodes stop and restart one at a
/// time, each through its own stop flag.
pub struct Failover {
    cfg: Config,
    dir: PathBuf,
    tracer: Option<Arc<Tracer>>,
    nodes: Vec<Node>,
    /// Listen address of node `i` at index `i`.
    pub addrs: Vec<SocketAddr>,
    metrics: Vec<ReactorMetrics>,
    /// Stats of every stopped incarnation, summed.
    pub stopped_stats: ReplicaStats,
    /// WAL appends and syncs of stopped incarnations.
    stopped_wal: (u64, u64),
    /// Duration of each restart: reopen the data directory, recover the
    /// replica, spawn its reactor (ms).
    pub recover_ms: Vec<f64>,
}

impl Failover {
    /// Launch fresh nodes with data under `dir`.
    pub fn launch(cfg: Config, dir: &Path, tracer: Option<Arc<Tracer>>) -> io::Result<Failover> {
        let mut listeners = Vec::new();
        for _ in 0..NODES {
            listeners.push(TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?);
        }
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Vec<_>>>()?;
        let mut f = Failover {
            cfg,
            dir: dir.to_path_buf(),
            tracer,
            nodes: Vec::new(),
            addrs,
            metrics: Vec::new(),
            stopped_stats: ReplicaStats::default(),
            stopped_wal: (0, 0),
            recover_ms: Vec::new(),
        };
        for (i, l) in listeners.into_iter().enumerate() {
            let node = f.start(i, l, false)?;
            f.nodes.push(node);
        }
        Ok(f)
    }

    fn peers(&self) -> HashMap<ProcessId, SocketAddr> {
        (0..NODES)
            .map(|i| (ProcessId(i as u32), self.addrs[i]))
            .collect()
    }

    fn start(&mut self, i: usize, listener: TcpListener, recover: bool) -> io::Result<Node> {
        let id = ProcessId(i as u32);
        let coord = open_coordinator(&self.dir, i, 1)?;
        let tracer = self.tracer.as_ref();
        let app = boxed_app(kv_app(0, 1), tracer, i);
        let storage = boxed_storage(coord.storage(0), tracer, i);
        let cfg = group_config(&self.cfg, GroupId::ZERO);
        let seed = group_seed(0xace0 + u64::from(id.0), GroupId::ZERO);
        let replica = if recover {
            Replica::recover(id, cfg, app, storage, seed, Time::ZERO)
        } else {
            Replica::new(id, cfg, app, storage, seed, Time::ZERO)
        };
        let stop = Arc::new(AtomicBool::new(false));
        let handle = spawn_reactor_node(
            vec![replica],
            listener,
            self.peers(),
            Arc::clone(&stop),
            ReactorConfig::default(),
        )?;
        self.metrics.push(handle.metrics());
        Ok(Node {
            stop,
            handle: Some(handle),
            coord: Some(coord),
        })
    }

    /// Raise node `i`'s stop flag; returns the instant it was raised.
    pub fn stop_begin(&self, i: usize) -> Instant {
        self.nodes[i].stop.store(true, Ordering::Relaxed);
        Instant::now()
    }

    /// Wait for node `i` to stop and keep what its incarnation counted.
    pub fn stop_finish(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        if let Some(h) = node.handle.take() {
            for r in h.join() {
                add_replica_stats(&mut self.stopped_stats, &r.stats);
            }
        }
        if let Some(c) = node.coord.take() {
            self.stopped_wal.0 += c.appends();
            self.stopped_wal.1 += c.syncs();
        }
    }

    /// Restart stopped node `i` from its data directory.
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        let t0 = Instant::now();
        // The old listener closed with its reactor; rebinding the same
        // port can race the kernel briefly.
        let mut tries = 0;
        let listener = loop {
            match TcpListener::bind(self.addrs[i]) {
                Ok(l) => break l,
                Err(e) if tries < 100 => {
                    tries += 1;
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        };
        let node = self.start(i, listener, true)?;
        self.recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.nodes[i] = node;
        Ok(())
    }

    /// Current counters (all incarnations).
    #[must_use]
    pub fn live(&self) -> Live {
        let mut l = Live::default();
        for m in &self.metrics {
            add_stats(&mut l.reactor, &m.stats());
        }
        l.appends = self.stopped_wal.0;
        l.syncs = self.stopped_wal.1;
        for n in &self.nodes {
            if let Some(c) = &n.coord {
                l.appends += c.appends();
                l.syncs += c.syncs();
            }
        }
        l
    }

    /// Stop every node; returns the live replicas (one per node) and the
    /// stats summed over every incarnation.
    pub fn shutdown(mut self) -> (Vec<Replica>, ReplicaStats) {
        for n in &self.nodes {
            n.stop.store(true, Ordering::Relaxed);
        }
        let mut replicas = Vec::new();
        let mut stats = self.stopped_stats.clone();
        for n in &mut self.nodes {
            if let Some(h) = n.handle.take() {
                for r in h.join() {
                    add_replica_stats(&mut stats, &r.stats);
                    replicas.push(r);
                }
            }
        }
        (replicas, stats)
    }
}
