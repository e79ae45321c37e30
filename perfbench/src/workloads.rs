//! The four workloads: set-up, timed phase, correctness checks and the
//! metrics each run reports.

use crate::cluster::{add_replica_stats, live_delta, Failover, Live, Spec, Steady, NODES};
use crate::gen::{splitmix, unit, Engine, GenConfig, KeySpace, Layer, Load, Op, StopEvent, Until};
use crate::procfs;
use crate::stats::{median_f64, percentile_ms, Accounting};
use crate::trace::{Kind, Span, Tracer};
use gridpaxos_bench::zipf::ZipfGen;
use gridpaxos_core::config::Config;
use gridpaxos_core::replica::ReplicaStats;
use gridpaxos_core::request::RequestId;
use gridpaxos_core::service::App;
use gridpaxos_core::types::{shard_of, ProcessId};
use gridpaxos_services::kvstore::{KvOp, KvStore};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order they are documented.
pub const WORKLOADS: [&str; 4] = [
    "put_durable",
    "read_mostly",
    "txn_transfer",
    "leader_failover",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Keys of the key-value workloads.
const KV_KEYS: usize = 10_000;

/// Accounts of `txn_transfer`, and each one's preloaded balance.
const ACCOUNTS: usize = 1024;
const BALANCE: i64 = 1000;

/// Groups of `txn_transfer`.
const TXN_GROUPS: usize = 4;

/// Open-loop write rate of `leader_failover`, per second.
const FAILOVER_RATE: f64 = 2000.0;

/// First leader stop after the timed phase starts, the stop period, and
/// how long a stopped node stays down.
const FAILOVER_FIRST: Duration = Duration::from_millis(500);
const FAILOVER_PERIOD: Duration = Duration::from_millis(1000);
const FAILOVER_DOWN: Duration = Duration::from_millis(400);

/// Client retransmit interval while probing for a leader at set-up.
const PROBE_RETRY: Duration = Duration::from_millis(2);

/// Retransmit interval in steady workloads, and in `leader_failover`
/// (far below the 50 ms suspect timeout, so a failover gap measures the
/// election, not the client timer).
const STEADY_RETRY: Duration = Duration::from_millis(100);
const FAILOVER_RETRY: Duration = Duration::from_millis(5);

/// An op without a committed reply this long after it started fails.
const DEADLINE: Duration = Duration::from_secs(2);

/// The timed phase is cut into this many equal windows; `ops_s`, `p50_ms`
/// and `p99_ms` are medians over the windows, so one disk or scheduler
/// hiccup moves at most one window.
const WINDOWS: usize = 10;

/// Spans written to the span dump at most.
const SPAN_DUMP_MAX: usize = 100_000;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or definition, for the human-readable line.
    pub detail: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, detail: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        detail: detail.into(),
    }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// End-to-end metrics (tracing off).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layer: Vec<Metric>,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops failed in the measured phase.
    pub failed: u64,
    /// Correctness problems (empty: correct).
    pub problems: Vec<String>,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed phase length, s.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum W {
    PutDurable,
    ReadMostly,
    TxnTransfer,
    LeaderFailover,
}

impl W {
    fn parse(s: &str) -> Option<W> {
        match s {
            "put_durable" => Some(W::PutDurable),
            "read_mostly" => Some(W::ReadMostly),
            "txn_transfer" => Some(W::TxnTransfer),
            "leader_failover" => Some(W::LeaderFailover),
            _ => None,
        }
    }

    fn n_groups(self) -> usize {
        if self == W::TxnTransfer {
            TXN_GROUPS
        } else {
            1
        }
    }

    fn keys(self) -> (KeySpace, usize) {
        if self == W::TxnTransfer {
            (KeySpace::Accounts, ACCOUNTS)
        } else {
            (KeySpace::Kv, KV_KEYS)
        }
    }

    fn spec(self) -> Spec {
        let mut cfg = Config::cluster(NODES);
        if self == W::TxnTransfer {
            // Every group's leader on node 0: one connection carries all
            // the traffic.
            cfg = cfg.with_placement(Some(vec![ProcessId(0); TXN_GROUPS]));
        }
        Spec {
            n_groups: self.n_groups(),
            durable: self != W::ReadMostly,
            cfg,
        }
    }

    fn load(self, seed: u64) -> Load {
        match self {
            W::PutDurable => Load::Closed { clients: 32 },
            W::ReadMostly | W::TxnTransfer => Load::Closed { clients: 16 },
            W::LeaderFailover => Load::Open {
                rate: FAILOVER_RATE,
                seed,
            },
        }
    }

    fn preload(self) -> bool {
        self != W::LeaderFailover
    }
}

/// Seeded op stream of a workload's timed phase.
fn op_stream(w: W, seed: u64) -> Box<dyn FnMut() -> Op> {
    let mut rng = seed ^ 0x0005_eed0_f0b5;
    match w {
        W::PutDurable | W::LeaderFailover => {
            Box::new(move || Op::Put((splitmix(&mut rng) % KV_KEYS as u64) as u32))
        }
        W::ReadMostly => {
            let mut zipf = ZipfGen::new(KV_KEYS as u64, 0.99, seed);
            Box::new(move || {
                let key = zipf.next_key() as u32;
                if unit(&mut rng) < 0.05 {
                    Op::Put(key)
                } else {
                    Op::Get(key)
                }
            })
        }
        W::TxnTransfer => Box::new(move || {
            let n = ACCOUNTS as u64;
            let src = splitmix(&mut rng) % n;
            let mut dst = splitmix(&mut rng) % (n - 1);
            if dst >= src {
                dst += 1;
            }
            let amount = 1 + (splitmix(&mut rng) % 10) as i64;
            Op::Transfer {
                src: src as u32,
                dst: dst as u32,
                amount,
            }
        }),
    }
}

/// Preload op `i` (`i < n_keys`).
fn preload_op(w: W, i: u32) -> Op {
    if w == W::TxnTransfer {
        Op::Add(i, BALANCE)
    } else {
        Op::Put(i)
    }
}

/// Probe ops: one per group, each answered only by that group's leader.
fn probe_ops(w: W) -> Vec<Op> {
    let (keys, n) = w.keys();
    let g = w.n_groups();
    (0..g)
        .map(|target| {
            let key = (0..n as u32)
                .find(|&k| {
                    let op = KvOp::Get(keys.name(k));
                    shard_of(op.shard_key().expect("Get has a key"), g).0 as usize == target
                })
                .expect("some key lands in every group");
            Op::Get(key)
        })
        .collect()
}

fn max_conns() -> usize {
    // An X-Paxos read needs the leader and one follower, so two
    // connections at least; never more than the host has cores.
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .clamp(2, NODES)
}

fn gen_config(w: W, retry: Duration, client_base: u64) -> GenConfig {
    GenConfig {
        n_nodes: NODES,
        n_groups: w.n_groups(),
        max_conns: max_conns(),
        retry,
        deadline: DEADLINE,
        keys: w.keys().0,
        client_base,
    }
}

/// A fresh, empty directory.
fn fresh_dir(p: &Path) -> io::Result<PathBuf> {
    if p.exists() {
        std::fs::remove_dir_all(p)?;
    }
    std::fs::create_dir_all(p)?;
    Ok(p.to_path_buf())
}

/// Either kind of cluster. One lives per run, so its size does not matter.
#[allow(clippy::large_enum_variant)]
enum Cl {
    Steady(Steady),
    Failover(Failover),
}

impl Cl {
    fn addrs(&self) -> Vec<std::net::SocketAddr> {
        match self {
            Cl::Steady(c) => c.addrs.clone(),
            Cl::Failover(c) => c.addrs.clone(),
        }
    }

    fn live(&self) -> Live {
        match self {
            Cl::Steady(c) => c.live(),
            Cl::Failover(c) => c.live(),
        }
    }
}

/// Launch `w`'s cluster in `dir`, probe until every group's leader
/// answers. Returns the cluster, the probe engine's request counts, and
/// the launch → all leaders answering gap.
fn launch_ready(
    w: W,
    dir: &Path,
    epoch: Instant,
    tracer: Option<Arc<Tracer>>,
    client_base: u64,
) -> io::Result<(Cl, (u64, u64), Duration)> {
    let cl = if w == W::LeaderFailover {
        Cl::Failover(Failover::launch(w.spec().cfg, dir, tracer)?)
    } else {
        Cl::Steady(Steady::launch(&w.spec(), dir, tracer)?)
    };
    let mut probe = Engine::new(
        gen_config(w, PROBE_RETRY, client_base),
        cl.addrs(),
        epoch,
        w.keys().1,
    )?;
    let ops = probe_ops(w);
    let mut it = ops.iter().copied().cycle();
    let acct = probe.run_phase(
        Load::Closed { clients: 1 },
        Until::Ops(ops.len() as u64),
        &mut || it.next().expect("cycle is endless"),
    );
    probe.close();
    if acct.committed != ops.len() as u64 {
        return Err(io::Error::other("no leader answered the set-up probe"));
    }
    Ok((cl, (probe.writes_done, probe.reads_done), epoch.elapsed()))
}

/// Timed-phase measurements.
struct Phase {
    acct: Accounting,
    secs: f64,
    live: Live,
    cpu_ns: u64,
    write_bytes: u64,
    spans: Vec<Span>,
    layer: Layer,
}

fn run_timed(
    engine: &mut Engine,
    cl: &mut Cl,
    w: W,
    seed: u64,
    secs: f64,
    tracer: Option<&Arc<Tracer>>,
    ops: &mut dyn FnMut() -> Op,
) -> io::Result<Phase> {
    if let Some(t) = tracer {
        let _ = t.drain();
        t.set_enabled(true);
    }
    engine.layer = Layer {
        trace: tracer.is_some(),
        ..Layer::default()
    };
    let live0 = cl.live();
    let cpu0 = procfs::thread_cpu_ns();
    let wb0 = procfs::write_bytes();
    let d = Duration::from_secs_f64(secs);
    let load = w.load(seed);
    let acct = match cl {
        Cl::Failover(f) => run_with_failovers(engine, f, load, d, ops)?,
        Cl::Steady(_) => engine.run_phase(load, Until::For(d), ops),
    };
    let cpu_ns = procfs::thread_cpu_ns() - cpu0;
    let write_bytes = procfs::write_bytes() - wb0;
    let live = live_delta(&live0, &cl.live());
    let spans = match tracer {
        Some(t) => {
            t.set_enabled(false);
            t.drain()
        }
        None => Vec::new(),
    };
    Ok(Phase {
        acct,
        secs,
        live,
        cpu_ns,
        write_bytes,
        spans,
        layer: std::mem::take(&mut engine.layer),
    })
}

/// The open loop of `leader_failover`, with a fault injector thread that
/// stops the leader about every second and restarts it from its data
/// directory.
fn run_with_failovers(
    engine: &mut Engine,
    cluster: &mut Failover,
    load: Load,
    d: Duration,
    ops: &mut dyn FnMut() -> Op,
) -> io::Result<Accounting> {
    let (tx, rx) = mpsc::channel::<StopEvent>();
    engine.stops = Some(rx);
    let leader = Arc::clone(&engine.leader_seen);
    let start = Instant::now();
    let acct = std::thread::scope(|s| {
        let injector = s.spawn(move || -> io::Result<()> {
            let mut k = 0u32;
            loop {
                let at = start + FAILOVER_FIRST + FAILOVER_PERIOD * k;
                if at + FAILOVER_DOWN > start + d {
                    return Ok(());
                }
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                let l = leader.load(std::sync::atomic::Ordering::Relaxed);
                if l as usize >= NODES {
                    k += 1;
                    continue;
                }
                let stopped_at = cluster.stop_begin(l as usize);
                let _ = tx.send((l, stopped_at));
                cluster.stop_finish(l as usize);
                std::thread::sleep(
                    (stopped_at + FAILOVER_DOWN).saturating_duration_since(Instant::now()),
                );
                cluster.restart(l as usize)?;
                k += 1;
            }
        });
        let acct = engine.run_phase(load, Until::For(d), ops);
        let injected = injector.join().expect("fault injector panicked");
        (acct, injected)
    });
    engine.stops = None;
    acct.1?;
    Ok(acct.0)
}

fn mean(pair: (u64, u64)) -> f64 {
    if pair.0 == 0 {
        0.0
    } else {
        pair.1 as f64 / pair.0 as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// End-to-end metrics of a measured phase.
fn e2e_metrics(
    p: &Phase,
    setup: &[f64],
    gap_ms: &[f64],
    gap_what: &str,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let wins = p.acct.sorted_windows();
    let win_s = p.secs / WINDOWS as f64;
    let counts: Vec<f64> = wins.iter().map(|w| w.len() as f64 / win_s).collect();
    let lat_total: usize = wins.iter().map(Vec::len).sum();
    let mut out = vec![metric(
        "setup_s",
        median_f64(setup).unwrap_or(0.0),
        "s",
        format!("median of n={} set-ups", setup.len()),
    )];
    out.push(metric(
        "ops_s",
        median_f64(&counts).unwrap_or(0.0),
        "ops/s",
        format!(
            "median of {WINDOWS} windows of {win_s:.1} s [{}]; n={} committed",
            counts
                .iter()
                .map(|c| format!("{c:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
            p.acct.committed
        ),
    ));
    for (name, q) in [("p50_ms", 0.5), ("p99_ms", 0.99)] {
        let mut per_window = Vec::new();
        for w in &wins {
            match percentile_ms(w, q) {
                Ok(v) => per_window.push(v),
                Err(why) => problems.push(format!("{name}: a window has {why}")),
            }
        }
        let fewest = wins.iter().map(Vec::len).min().unwrap_or(0);
        if let Some(v) = median_f64(&per_window).filter(|_| per_window.len() == WINDOWS) {
            let vals: Vec<String> = per_window.iter().map(|v| format!("{v:.3}")).collect();
            out.push(metric(
                name,
                v,
                "ms",
                format!(
                    "median of {WINDOWS} windows [{}], n={} samples, >= {fewest} per window",
                    vals.join(" "),
                    lat_total
                ),
            ));
        }
    }
    out.push(metric(
        "rss_mb",
        procfs::peak_rss_mib().unwrap_or(0.0),
        "MiB",
        "VmHWM of the benchmark process",
    ));
    match median_f64(gap_ms) {
        Some(v) => out.push(metric(
            "failover_ms",
            v,
            "ms",
            format!("median of n={} {gap_what}", gap_ms.len()),
        )),
        None => problems.push("no leader gap was measured".into()),
    }
    out
}

/// Request timings joined with the leader's service spans.
struct Joined {
    queue_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    confirm_ns: Vec<u64>,
    /// Writes whose queue + execute + commit was compared with the
    /// client latency, and the largest difference, ns.
    identity: (u64, u64),
}

fn join_requests(p: &Phase) -> Joined {
    // The last execute (or prepare) span of each request: the one on the
    // leader that answered.
    let mut exec: HashMap<RequestId, (u64, u64)> = HashMap::new();
    for s in &p.spans {
        if matches!(s.kind, Kind::Execute | Kind::TxnPrepare) {
            if let Some(id) = s.req {
                let e = exec.entry(id).or_insert((s.start, s.end));
                if s.start >= e.0 {
                    *e = (s.start, s.end);
                }
            }
        }
    }
    let mut j = Joined {
        queue_ns: Vec::new(),
        commit_ns: Vec::new(),
        confirm_ns: Vec::new(),
        identity: (0, 0),
    };
    for &(id, read, sent, reply) in &p.layer.requests {
        let Some(&(start, end)) = exec.get(&id) else {
            continue;
        };
        if start < sent || end > reply {
            continue; // an execution of an earlier incarnation of the id
        }
        let queue = start - sent;
        let tail = reply - end;
        j.queue_ns.push(queue);
        if read {
            j.confirm_ns.push(tail);
        } else {
            j.commit_ns.push(tail);
            let sum = queue + (end - start) + tail;
            j.identity.0 += 1;
            j.identity.1 = j.identity.1.max(sum.abs_diff(reply - sent));
        }
    }
    j
}

fn mean_us(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e3
    }
}

/// Per-layer metrics of a traced phase.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    p: &Phase,
    stats: &ReplicaStats,
    requests: (u64, u64),
    recover_ms: &[f64],
    untraced_ops_s: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let ops = p.acct.committed as f64;
    let wall_ns = p.secs * 1e9;
    let l = &p.layer;
    let r = &p.live.reactor;
    let (writes, reads) = (requests.0 as f64, requests.1 as f64);
    let mut span_sum: HashMap<Kind, (u64, u64)> = HashMap::new();
    let (mut app_busy, mut storage_busy) = (0u64, 0u64);
    for s in &p.spans {
        let d = s.end - s.start;
        let e = span_sum.entry(s.kind).or_default();
        e.0 += 1;
        e.1 += d;
        if s.kind.is_storage() {
            if s.kind.is_busy() {
                storage_busy += d;
            }
        } else {
            app_busy += d;
        }
    }
    let span_us = |k: Kind| mean(span_sum.get(&k).copied().unwrap_or_default()) / 1e3;
    let j = join_requests(p);
    notes.push(format!(
        "trace identity: {} writes, max |queue + execute + commit - client latency| = {} ns",
        j.identity.0, j.identity.1
    ));
    let traced_ops_s = ops / p.secs;
    let node_wall = wall_ns * NODES as f64;
    vec![
        metric(
            "driver.cpu_ratio",
            p.cpu_ns as f64 / wall_ns,
            "ratio",
            "generator thread CPU / wall",
        ),
        metric(
            "driver.late_ms",
            mean(l.late) / 1e6,
            "ms",
            format!("mean over n={} sends", l.late.0),
        ),
        metric(
            "client.submit_us",
            mean(l.submit) / 1e3,
            "us",
            format!("n={}", l.submit.0),
        ),
        metric(
            "client.on_message_us",
            mean(l.on_message) / 1e3,
            "us",
            format!("n={}", l.on_message.0),
        ),
        metric(
            "client.retransmits_per_op",
            ratio(l.retransmits as f64, ops),
            "count/op",
            "per committed op",
        ),
        metric(
            "client.busy_per_op",
            ratio(l.busy as f64, ops),
            "count/op",
            "per committed op",
        ),
        metric(
            "txn.step_us",
            mean(l.txn_step) / 1e3,
            "us",
            format!("n={}", l.txn_step.0),
        ),
        metric(
            "txn.abort_ratio",
            ratio(l.txn_aborts as f64, l.txn_attempts as f64),
            "ratio",
            format!("of n={} attempts", l.txn_attempts),
        ),
        metric(
            "txn.requests_per_commit",
            ratio(l.txn_requests as f64, l.txn_commits as f64),
            "count/op",
            format!("n={} commits", l.txn_commits),
        ),
        metric(
            "txn.cross_shard_ratio",
            ratio(l.txn_cross as f64, l.txn_attempts as f64),
            "ratio",
            format!("of n={} attempts", l.txn_attempts),
        ),
        metric(
            "wire.encode_us",
            mean(l.encode) / 1e3,
            "us",
            format!("n={}", l.encode.0),
        ),
        metric(
            "wire.decode_us",
            mean(l.decode) / 1e3,
            "us",
            format!("n={}", l.decode.0),
        ),
        metric(
            "wire.request_bytes",
            mean(l.req_frames),
            "B",
            format!("n={} frames", l.req_frames.0),
        ),
        metric(
            "wire.reply_bytes",
            mean(l.reply_frames),
            "B",
            format!("n={} frames", l.reply_frames.0),
        ),
        metric(
            "reactor.msgs_in_per_op",
            ratio(r.msgs_in as f64, ops),
            "msgs/op",
            "all nodes, per committed op",
        ),
        metric(
            "reactor.msgs_out_per_op",
            ratio(r.msgs_out as f64, ops),
            "msgs/op",
            "all nodes, per committed op",
        ),
        metric(
            "reactor.bytes_out_per_op",
            ratio(r.bytes_out as f64, ops),
            "B/op",
            "all nodes, per committed op",
        ),
        metric(
            "reactor.partial_writes_per_op",
            ratio(r.partial_writes as f64, ops),
            "count/op",
            "all nodes, per committed op",
        ),
        metric(
            "reactor.busy_shed",
            r.busy_shed as f64,
            "count",
            "all nodes, traced phase",
        ),
        metric(
            "reactor.reads_suspended",
            r.reads_suspended as f64,
            "count",
            "all nodes, traced phase",
        ),
        metric(
            "reactor.frames_dropped",
            r.frames_dropped as f64,
            "count",
            "all nodes, traced phase",
        ),
        metric(
            "reactor.unroutable",
            r.unroutable as f64,
            "count",
            "all nodes, traced phase",
        ),
        metric(
            "replica.queue_us",
            mean_us(&j.queue_ns),
            "us",
            format!("n={}", j.queue_ns.len()),
        ),
        metric(
            "replica.commit_us",
            mean_us(&j.commit_ns),
            "us",
            format!("n={}", j.commit_ns.len()),
        ),
        metric(
            "replica.confirm_us",
            mean_us(&j.confirm_ns),
            "us",
            format!("n={}", j.confirm_ns.len()),
        ),
        metric(
            "replica.ops_per_decree",
            ratio(writes, stats.commits_led as f64),
            "ratio",
            "write requests / decrees led, cluster lifetime",
        ),
        metric(
            "replica.confirm_rounds_per_read",
            ratio(stats.confirm_rounds as f64, reads),
            "ratio",
            "confirm rounds / read requests, cluster lifetime",
        ),
        metric(
            "replica.batched_read_ratio",
            ratio(stats.batched_reads as f64, stats.xpaxos_reads as f64),
            "ratio",
            "batched / X-Paxos reads, cluster lifetime",
        ),
        metric(
            "replica.checkpoints",
            stats.checkpoints as f64,
            "count",
            "all replicas, cluster lifetime",
        ),
        metric(
            "replica.checkpoint_bytes_per_op",
            ratio(stats.checkpoint_bytes as f64, writes),
            "B/op",
            "all replicas / write requests, cluster lifetime",
        ),
        metric(
            "replica.elections",
            stats.elections_started as f64,
            "count",
            "all replicas, cluster lifetime",
        ),
        metric(
            "replica.elections_lost",
            stats.elections_started.saturating_sub(stats.elections_won) as f64,
            "count",
            "started - won, cluster lifetime",
        ),
        metric(
            "replica.step_downs",
            stats.step_downs as f64,
            "count",
            "all replicas, cluster lifetime",
        ),
        metric(
            "replica.recover_ms",
            median_f64(recover_ms).unwrap_or(0.0),
            "ms",
            format!("median of n={} recoveries", recover_ms.len()),
        ),
        metric(
            "fstorage.appends_per_op",
            ratio(p.live.appends as f64, ops),
            "count/op",
            "all nodes, per committed op",
        ),
        metric(
            "fstorage.fsyncs_per_op",
            ratio(p.live.syncs as f64, ops),
            "count/op",
            "all nodes, per committed op",
        ),
        metric(
            "fstorage.append_us",
            span_us(Kind::Append),
            "us",
            "mean save_* call",
        ),
        metric(
            "fstorage.flush_us",
            span_us(Kind::Flush),
            "us",
            "mean flush call",
        ),
        metric(
            "fstorage.flush_wait_us",
            span_us(Kind::FlushWait),
            "us",
            "first dirtying write to flush start",
        ),
        metric(
            "fstorage.busy_ratio",
            storage_busy as f64 / node_wall,
            "ratio",
            "storage call time / (wall x nodes)",
        ),
        metric(
            "fstorage.write_bytes_per_op",
            ratio(p.write_bytes as f64, ops),
            "B/op",
            "/proc/self/io write_bytes",
        ),
        metric(
            "fstorage.checkpoint_us",
            span_us(Kind::Checkpoint),
            "us",
            "mean checkpoint storage call",
        ),
        metric(
            "apply.execute_us",
            span_us(Kind::Execute),
            "us",
            "mean App::execute",
        ),
        metric(
            "apply.apply_us",
            span_us(Kind::Apply),
            "us",
            "mean App::apply",
        ),
        metric(
            "apply.txn_prepare_us",
            span_us(Kind::TxnPrepare),
            "us",
            "mean App::txn_prepare",
        ),
        metric(
            "apply.txn_decide_us",
            span_us(Kind::TxnDecide),
            "us",
            "mean txn_decide / apply_txn_decide",
        ),
        metric(
            "apply.snapshot_us",
            span_us(Kind::Snapshot),
            "us",
            "mean snapshot call",
        ),
        metric(
            "apply.busy_ratio",
            app_busy as f64 / node_wall,
            "ratio",
            "App call time / (wall x nodes)",
        ),
        metric(
            "trace.ops_ratio",
            ratio(traced_ops_s, untraced_ops_s),
            "ratio",
            "traced ops_s / untraced ops_s",
        ),
    ]
}

fn dump_spans(path: &Path, p: &Phase) -> io::Result<()> {
    let mut out = String::from("name\tnode\tparent_request\tstart_ns\tend_ns\n");
    for s in p.spans.iter().take(SPAN_DUMP_MAX) {
        let parent = s.req.map_or_else(|| "-".to_string(), |id| id.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}",
            s.kind.name(),
            s.node,
            s.start,
            s.end
        );
    }
    for (id, read, sent, reply) in p.layer.requests.iter().take(SPAN_DUMP_MAX) {
        let name = if *read { "client.read" } else { "client.write" };
        let _ = writeln!(out, "{name}\t-\t{id}\t{sent}\t{reply}");
    }
    if let Some(d) = path.parent() {
        std::fs::create_dir_all(d)?;
    }
    std::fs::write(path, out)
}

/// Read every key in `keys` back through a fresh engine's history check.
fn read_back(engine: &mut Engine, keys: &[u32], clients: usize) -> Accounting {
    engine.final_reads = true;
    let mut it = keys.iter().copied().cycle();
    engine.run_phase(
        Load::Closed { clients },
        Until::Ops(keys.len() as u64),
        &mut || Op::Get(it.next().expect("cycle is endless")),
    )
}

/// Check the leaders' final state of `txn_transfer`: no prepared intent
/// is left and the balances sum to the preloaded total.
fn check_balances(
    replicas: &[Vec<gridpaxos_core::replica::Replica>],
    problems: &mut Vec<String>,
) -> i64 {
    let mut total = 0i64;
    for g in 0..TXN_GROUPS {
        let leader = (0..replicas.len())
            .find(|&n| replicas[n][g].is_leader())
            .unwrap_or(0);
        let mut kv = KvStore::sharded_in(g as u32, TXN_GROUPS);
        kv.restore(&replicas[leader][g].service_snapshot());
        let left = kv.prepared_txns();
        if !left.is_empty() {
            problems.push(format!(
                "group {g}: {} transfers left undecided",
                left.len()
            ));
        }
        for (k, v) in kv.iter() {
            match v.parse::<i64>() {
                Ok(b) if k.starts_with('a') => total += b,
                _ => problems.push(format!("group {g}: unexpected entry {k}")),
            }
        }
    }
    let want = ACCOUNTS as i64 * BALANCE;
    if total != want {
        problems.push(format!("balances sum to {total}, preloaded {want}"));
    }
    total
}

/// Run one workload end to end.
pub fn run(args: &RunArgs, data_root: &Path) -> io::Result<RunResult> {
    let w = W::parse(&args.workload).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {:?}; known: {}",
                args.workload,
                WORKLOADS.join(", ")
            ),
        )
    })?;
    let mut res = RunResult::default();
    let run_dir = data_root.join(format!("{}-{}", args.workload, std::process::id()));
    let n_keys = w.keys().1;
    let retry = if w == W::LeaderFailover {
        FAILOVER_RETRY
    } else {
        STEADY_RETRY
    };
    let load = w.load(args.seed);
    let clients = match load {
        Load::Closed { clients } => clients,
        Load::Open { .. } => 32,
    };

    // Set-up, several times: launch on an empty directory, probe for the
    // leaders, preload through the generator.
    let mut setup_s = Vec::new();
    let mut boot_ms = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let dir = fresh_dir(&run_dir.join(format!("setup-{k}")))?;
        let epoch = Instant::now();
        let tracer = args.trace.then(|| Tracer::new(NODES, epoch));
        let (cl, probe_reqs, boot) = launch_ready(w, &dir, epoch, tracer.clone(), 1)?;
        boot_ms.push(boot.as_secs_f64() * 1e3);
        let mut engine = Engine::new(gen_config(w, retry, 1_000), cl.addrs(), epoch, n_keys)?;
        engine.windows = WINDOWS;
        if w.preload() {
            let mut i = 0u32;
            let acct = engine.run_phase(
                Load::Closed { clients },
                Until::Ops(n_keys as u64),
                &mut || {
                    i += 1;
                    preload_op(w, i - 1)
                },
            );
            if acct.committed != n_keys as u64 {
                res.problems.push(format!(
                    "preload committed {} of {n_keys} ops",
                    acct.committed
                ));
            }
        }
        setup_s.push(epoch.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            engine.close();
            drop(engine);
            match cl {
                Cl::Steady(c) => drop(c.shutdown()),
                Cl::Failover(c) => drop(c.shutdown()),
            }
            std::fs::remove_dir_all(&dir)?;
        } else {
            kept = Some((cl, engine, tracer, dir, probe_reqs));
        }
    }
    let (mut cl, mut engine, tracer, dir, probe_reqs) = kept.expect("SETUPS >= 1");
    let setup_changes = engine.leader_changes;

    // Timed phase(s).
    let mut ops = op_stream(w, args.seed);
    let (secs_plain, secs_traced) = if args.trace {
        (args.seconds / 2.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    };
    let plain = run_timed(
        &mut engine,
        &mut cl,
        w,
        args.seed,
        secs_plain,
        None,
        &mut *ops,
    )?;
    let traced = match &tracer {
        Some(t) => Some(run_timed(
            &mut engine,
            &mut cl,
            w,
            args.seed ^ 1,
            secs_traced,
            Some(t),
            &mut *ops,
        )?),
        None => None,
    };
    let gaps = std::mem::take(&mut engine.gaps_ms);
    let measured = traced.as_ref().unwrap_or(&plain);
    res.attempted = measured.acct.attempted;
    res.failed = measured.acct.failed;
    res.notes.push(format!(
        "failed ops: {} past their deadline ({} of them refused with Busy), {} transfers gave up",
        measured.acct.failed_deadline,
        measured.acct.failed_busy,
        measured.acct.failed - measured.acct.failed_deadline
    ));

    // Correctness checks on the live cluster, then stop it.
    if engine.bad_replies > 0 {
        res.problems.push(format!(
            "{} replies had an unexpected body",
            engine.bad_replies
        ));
    }
    if !engine.in_doubt.is_empty() {
        res.problems
            .push(format!("{} transfers left in doubt", engine.in_doubt.len()));
    }
    let mut recover_ms = Vec::new();
    let stats = match cl {
        Cl::Steady(c) => {
            let replicas = c.shutdown();
            let mut s = ReplicaStats::default();
            for r in replicas.iter().flatten() {
                add_replica_stats(&mut s, &r.stats);
            }
            if w == W::TxnTransfer {
                let total = check_balances(&replicas, &mut res.problems);
                res.notes.push(format!(
                    "check txn_transfer: {} accounts sum to {total}, no transfer left undecided",
                    ACCOUNTS
                ));
            }
            s
        }
        Cl::Failover(f) => {
            // Every node is up again: read back every written key.
            let written = engine.hist.written_keys();
            let acct = read_back(&mut engine, &written, 32);
            if acct.committed != written.len() as u64 {
                res.problems.push(format!(
                    "read-back answered {} of {} keys",
                    acct.committed,
                    written.len()
                ));
            }
            res.notes.push(format!(
                "check leader_failover: {} written keys read back after {} leader stops",
                written.len(),
                gaps.len()
            ));
            engine.close();
            recover_ms.clone_from(&f.recover_ms);
            let (_, s) = f.shutdown();
            s
        }
    };
    // Every request the measured cluster answered, set-up included: the
    // divisor of the per-request ratios built on `Replica.stats`.
    let requests = (
        probe_reqs.0 + engine.writes_done,
        probe_reqs.1 + engine.reads_done,
    );
    match w {
        W::ReadMostly => {
            let n = engine.hist.reads_checked();
            res.notes.push(format!(
                "check read_mostly: {n} reads, none older than a write acknowledged before it was sent"
            ));
        }
        W::PutDurable => {
            // Relaunch from the same directory and read every key back.
            engine.close();
            let epoch = Instant::now();
            let t0 = Instant::now();
            let (cl2, _, _) = launch_ready(w, &dir, epoch, None, 10_000_000)?;
            recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut back = Engine::new(gen_config(w, retry, 20_000_000), cl2.addrs(), epoch, 0)?;
            back.hist = std::mem::replace(&mut engine.hist, crate::check::History::new(0));
            let all: Vec<u32> = (0..n_keys as u32).collect();
            let acct = read_back(&mut back, &all, clients);
            if acct.committed != n_keys as u64 {
                res.problems.push(format!(
                    "read-back answered {} of {n_keys} keys",
                    acct.committed
                ));
            }
            back.close();
            engine.hist = std::mem::replace(&mut back.hist, crate::check::History::new(0));
            if let Cl::Steady(c) = cl2 {
                drop(c.shutdown());
            }
            res.notes.push(format!(
                "check put_durable: relaunched from the data directory, {n_keys} keys read back"
            ));
        }
        W::TxnTransfer | W::LeaderFailover => {}
    }
    res.problems.extend(engine.hist.problems().iter().cloned());

    // Metrics.
    let gap_what = if w == W::LeaderFailover {
        "leader stops (stop to first committed reply of another leader)"
    } else {
        "set-ups (launch to every group's leader answering)"
    };
    let gap_ms = if w == W::LeaderFailover {
        gaps
    } else {
        boot_ms
    };
    // A traced run reports per-layer metrics only; its untraced half is
    // too short to hold the end-to-end windows and serves as the base of
    // `trace.ops_ratio`.
    if !args.trace {
        res.e2e = e2e_metrics(&plain, &setup_s, &gap_ms, gap_what, &mut res.problems);
    }
    let changes = engine.leader_changes - setup_changes;
    res.notes.push(format!(
        "leader changes seen in replies during the timed phase: {changes}; elections over the cluster's life: {}",
        stats.elections_started
    ));
    if let Some(t) = &traced {
        let plain_ops_s = plain.acct.committed as f64 / plain.secs;
        res.layer = layer_metrics(
            t,
            &stats,
            requests,
            &recover_ms,
            plain_ops_s,
            &mut res.notes,
        );
        let path = data_root
            .join("spans")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        dump_spans(&path, t)?;
        res.notes
            .push(format!("spans written to {}", path.display()));
    }
    std::fs::remove_dir_all(&run_dir)?;
    Ok(res)
}
