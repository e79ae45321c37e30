//! The single-threaded load generator.
//!
//! One thread hosts many sans-io [`ClientCore`]s (one outstanding request
//! each, the paper's client model) and multiplexes them over at most
//! `max_conns` nonblocking TCP connections to the cluster, driven by one
//! `epoll` loop. Writes go to the known leader of their group only; reads
//! go to every connected node (the leader plus one follower make the
//! majority an X-Paxos read needs); retransmissions go to every connected
//! node. Transfers run a [`TxnCoordinator`] on their client.

use crate::check::{value_of, History};
use crate::stats::{Accounting, Failure};
use bytes::{Bytes, BytesMut};
use gridpaxos_core::action::{Action, TimerKind};
use gridpaxos_core::client::{ClientCore, CompletedOp};
use gridpaxos_core::msg::Msg;
use gridpaxos_core::request::{Reply, ReplyBody, RequestId, RequestKind};
use gridpaxos_core::txn::{Outcome, TxnCoordinator};
use gridpaxos_core::types::{Addr, ClientId, Dur, GroupId, Time, TxnId};
use gridpaxos_services::kvstore::{shard_router, transfer_legs, KvOp};
use gridpaxos_transport::framing::FrameDecoder;
use gridpaxos_transport::sys::{Epoll, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use gridpaxos_transport::wire::{decode_msg, encode_with_scratch, put_addr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aborted attempts after which a transfer gives up.
const MAX_TRANSFER_ATTEMPTS: u32 = 16;

/// Without a committed reply for this long while ops are in flight and no
/// leader is reachable, the generator swaps one connection for the node it
/// is not connected to.
const STALL: Duration = Duration::from_millis(150);

/// Failures after which a phase bounded by an op count stops issuing.
const MAX_PHASE_FAILURES: u64 = 64;

/// How the keys of a workload are named.
#[derive(Clone, Copy, Debug)]
pub enum KeySpace {
    /// `k00042`: plain key-value keys.
    Kv,
    /// `a0042`: bank accounts.
    Accounts,
}

impl KeySpace {
    /// The key's name.
    #[must_use]
    pub fn name(self, k: u32) -> String {
        match self {
            KeySpace::Kv => format!("k{k:05}"),
            KeySpace::Accounts => format!("a{k:04}"),
        }
    }
}

/// One application-level operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Write a fresh 128-byte value to a key.
    Put(u32),
    /// X-Paxos read of a key.
    Get(u32),
    /// Add to an account (preload).
    Add(u32, i64),
    /// Move `amount` from `src` to `dst` through 2PC.
    Transfer {
        /// Debited account.
        src: u32,
        /// Credited account.
        dst: u32,
        /// Amount moved.
        amount: i64,
    },
}

/// Generator settings.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Replica nodes in the cluster.
    pub n_nodes: usize,
    /// Consensus groups per node.
    pub n_groups: usize,
    /// Most connections open at once.
    pub max_conns: usize,
    /// Client retransmit interval.
    pub retry: Duration,
    /// An op without a committed reply this long after it started fails.
    pub deadline: Duration,
    /// Key naming.
    pub keys: KeySpace,
    /// Client ids start here (distinct per cluster incarnation that shares
    /// a data directory, so replicas' dedup tables never match a new
    /// client's sequence numbers against an old one's).
    pub client_base: u64,
}

/// How a phase offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `clients` clients, each sending its next op when the last one ends.
    Closed {
        /// Number of clients.
        clients: usize,
    },
    /// Ops due on a seeded Poisson schedule of `rate` per second, each on
    /// an idle client (clients are added as needed).
    Open {
        /// Mean ops per second.
        rate: f64,
        /// Schedule seed.
        seed: u64,
    },
}

/// When a phase stops issuing ops.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// After this many ops.
    Ops(u64),
    /// After this long.
    For(Duration),
}

/// Generator-side counters and timings. Timings are only taken while
/// `trace` is set.
#[derive(Debug, Default)]
pub struct Layer {
    /// Take timings (spans) as well as counts.
    pub trace: bool,
    /// `ClientCore::submit*` calls and their total ns.
    pub submit: (u64, u64),
    /// `ClientCore::on_message` calls and their total ns.
    pub on_message: (u64, u64),
    /// Request encodes and their total ns.
    pub encode: (u64, u64),
    /// Reply decodes and their total ns.
    pub decode: (u64, u64),
    /// `TxnCoordinator::step` calls and their total ns.
    pub txn_step: (u64, u64),
    /// Request frames written and their bytes.
    pub req_frames: (u64, u64),
    /// Reply frames read and their bytes.
    pub reply_frames: (u64, u64),
    /// Retransmissions (client retry timer firings).
    pub retransmits: u64,
    /// `Busy` replies.
    pub busy: u64,
    /// Transfer attempts, aborted attempts, committed transfers, requests
    /// sent by coordinators, transfers with legs in two groups.
    pub txn_attempts: u64,
    /// See `txn_attempts`.
    pub txn_aborts: u64,
    /// See `txn_attempts`.
    pub txn_commits: u64,
    /// See `txn_attempts`.
    pub txn_requests: u64,
    /// See `txn_attempts`.
    pub txn_cross: u64,
    /// Ops issued and their total lateness, ns.
    pub late: (u64, u64),
    /// Per completed request: id, whether a read, first send and reply
    /// receipt (ns since the epoch). Only while tracing.
    pub requests: Vec<(RequestId, bool, u64, u64)>,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    want_out: bool,
}

struct Active {
    op_id: u64,
    op: Op,
    /// Put id, or the read's freshness floor.
    aux: u64,
    coord: Option<TxnCoordinator>,
    attempts: u32,
    cur_req: Option<RequestId>,
}

/// What the generator knows about one consensus group.
#[derive(Clone, Debug)]
struct GroupState {
    /// Known leader; cleared when its connection drops or it stalls.
    leader: Option<u32>,
    /// Last leader that answered; never cleared.
    last_leader: Option<u32>,
    /// Last answer from the group's leader.
    last_ok: Instant,
    /// A request of the group is being retransmitted.
    retrying: bool,
}

struct Slot {
    core: ClientCore,
    active: Option<Active>,
    retry_at: Option<Instant>,
    timer_gen: u64,
}

/// A leader stop announced by a fault injector: node and instant.
pub type StopEvent = (u32, Instant);

/// The generator.
pub struct Engine {
    cfg: GenConfig,
    epoch: Instant,
    epoll: Epoll,
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<Conn>>,
    next_dial: Vec<Instant>,
    rotation: usize,
    hello_ids: u64,
    groups: Vec<GroupState>,
    next_rotate: Instant,
    slots: Vec<Slot>,
    idle: Vec<usize>,
    by_client: HashMap<u64, usize>,
    next_client: u64,
    timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    deadlines: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    next_op: u64,
    scratch: BytesMut,
    /// Put/get history for the correctness checks.
    pub hist: History,
    /// Accounting of the current (or last) phase.
    pub acct: Accounting,
    /// Generator-side layer counters.
    pub layer: Layer,
    /// Times a reply named a different leader than the last one seen for
    /// its group.
    pub leader_changes: u64,
    /// Leader of group 0 as last seen (`u32::MAX`: none yet).
    pub leader_seen: Arc<AtomicU32>,
    /// Leader stops to time the gap of.
    pub stops: Option<Receiver<StopEvent>>,
    pending_stop: Option<StopEvent>,
    /// Gap from each leader stop to the first committed reply of another
    /// leader, ms.
    pub gaps_ms: Vec<f64>,
    /// Transfers abandoned with prepared participants.
    pub in_doubt: Vec<(TxnId, Vec<GroupId>)>,
    /// Committed replies whose body was not the expected kind.
    pub bad_replies: u64,
    /// Write and read requests answered over the engine's life.
    pub writes_done: u64,
    /// See `writes_done`.
    pub reads_done: u64,
    /// When set, every reply body is appended here (in completion order).
    pub replies: Option<Vec<ReplyBody>>,
    /// Windows a timed phase's latencies are kept in.
    pub windows: usize,
    /// Treat `Get` replies as the final read-back of their key
    /// ([`History::check_final`]) instead of in-flight reads.
    pub final_reads: bool,
}

fn peek_request(msg: &Msg) -> Option<(&gridpaxos_core::request::Request, GroupId)> {
    match msg {
        Msg::Request(r) => Some((r, GroupId::ZERO)),
        Msg::Grouped { group, inner } => match inner.as_ref() {
            Msg::Request(r) => Some((r, *group)),
            _ => None,
        },
        _ => None,
    }
}

fn peek_reply(msg: &Msg) -> Option<(&Reply, GroupId)> {
    match msg {
        Msg::Reply(r) => Some((r, GroupId::ZERO)),
        Msg::Grouped { group, inner } => match inner.as_ref() {
            Msg::Reply(r) => Some((r, *group)),
            _ => None,
        },
        _ => None,
    }
}

/// SplitMix64 step.
#[must_use]
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`.
#[must_use]
pub fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl Engine {
    /// A generator for the cluster listening on `addrs` (node `i` at index
    /// `i`), timing from `epoch`, with a key history over `n_keys` keys.
    pub fn new(
        cfg: GenConfig,
        addrs: Vec<SocketAddr>,
        epoch: Instant,
        n_keys: usize,
    ) -> io::Result<Engine> {
        let n = addrs.len();
        let now = Instant::now();
        let groups = vec![
            GroupState {
                leader: None,
                last_leader: None,
                last_ok: now,
                retrying: false,
            };
            cfg.n_groups
        ];
        Ok(Engine {
            next_client: cfg.client_base,
            hello_ids: cfg.client_base + (1 << 30),
            cfg,
            epoch,
            epoll: Epoll::new()?,
            addrs,
            conns: (0..n).map(|_| None).collect(),
            next_dial: vec![now; n],
            rotation: 0,
            groups,
            next_rotate: now,
            slots: Vec::new(),
            idle: Vec::new(),
            by_client: HashMap::new(),
            timers: BinaryHeap::new(),
            deadlines: BinaryHeap::new(),
            next_op: 0,
            scratch: BytesMut::new(),
            hist: History::new(n_keys),
            acct: Accounting::default(),
            layer: Layer::default(),
            leader_changes: 0,
            leader_seen: Arc::new(AtomicU32::new(u32::MAX)),
            stops: None,
            pending_stop: None,
            gaps_ms: Vec::new(),
            in_doubt: Vec::new(),
            bad_replies: 0,
            writes_done: 0,
            reads_done: 0,
            replies: None,
            windows: 1,
            final_reads: false,
        })
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn time(&self, t: Instant) -> Time {
        Time(self.ns(t))
    }

    /// Connections currently open.
    #[must_use]
    pub fn open_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn new_core(&mut self) -> ClientCore {
        let id = self.next_client;
        self.next_client += 1;
        let router = (self.cfg.n_groups > 1).then(shard_router);
        ClientCore::new(
            ClientId(id),
            self.cfg.n_nodes,
            Dur::from_nanos(self.cfg.retry.as_nanos() as u64),
        )
        .with_groups(self.cfg.n_groups, router)
    }

    fn add_slot(&mut self) -> usize {
        let core = self.new_core();
        let idx = self.slots.len();
        self.by_client.insert(core.id().0, idx);
        self.slots.push(Slot {
            core,
            active: None,
            retry_at: None,
            timer_gen: 0,
        });
        idx
    }

    /// Give slot `s` a fresh client: its old one still has a request
    /// outstanding that will never be answered usefully.
    fn replace_core(&mut self, s: usize) {
        let core = self.new_core();
        self.by_client.remove(&self.slots[s].core.id().0);
        self.by_client.insert(core.id().0, s);
        let slot = &mut self.slots[s];
        slot.core = core;
        slot.retry_at = None;
        slot.timer_gen += 1;
    }

    // ---- connections ---------------------------------------------------

    fn dial(&mut self, node: usize, now: Instant) {
        let stream = match TcpStream::connect(self.addrs[node]) {
            Ok(s) => s,
            Err(_) => {
                self.next_dial[node] = now + Duration::from_millis(10);
                return;
            }
        };
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        if self
            .epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, node as u64)
            .is_err()
        {
            return;
        }
        // The reactor expects the peer's address as the first frame; the
        // replies themselves route by each request's client id.
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &Addr::Client(ClientId(self.hello_ids)));
        self.hello_ids += 1;
        let mut out = Vec::with_capacity(1 << 16);
        out.extend_from_slice(&(hello.len() as u32).to_le_bytes());
        out.extend_from_slice(&hello);
        self.conns[node] = Some(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out,
            want_out: false,
        });
    }

    fn drop_conn(&mut self, node: usize) {
        if let Some(c) = self.conns[node].take() {
            let _ = self.epoll.delete(c.stream.as_raw_fd());
        }
        for g in &mut self.groups {
            if g.leader == Some(node as u32) {
                g.leader = None;
            }
        }
    }

    fn known_leaders(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .groups
            .iter()
            .filter_map(|g| g.leader)
            .map(|l| l as usize)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Keep `max_conns` connections open, the known leaders first.
    fn ensure_conns(&mut self, now: Instant) {
        let n = self.addrs.len();
        let leaders = self.known_leaders();
        // A leader we are not connected to displaces a non-leader.
        for &l in &leaders {
            if self.conns[l].is_none() && self.open_conns() >= self.cfg.max_conns {
                if let Some(victim) =
                    (0..n).find(|i| self.conns[*i].is_some() && !leaders.contains(i))
                {
                    self.drop_conn(victim);
                }
            }
        }
        let order = leaders
            .iter()
            .copied()
            .chain((0..n).map(|i| (i + self.rotation) % n));
        for node in order.collect::<Vec<_>>() {
            if self.open_conns() >= self.cfg.max_conns {
                break;
            }
            if self.conns[node].is_none() && now >= self.next_dial[node] {
                self.dial(node, now);
            }
        }
        self.rotate_if_stalled(now);
    }

    /// A group whose requests are being retransmitted and that has not
    /// answered for [`STALL`] has probably moved its leader to a node we
    /// are not connected to: forget its leader and swap the connection
    /// that serves the fewest other groups' leaders for the node not tried.
    fn rotate_if_stalled(&mut self, now: Instant) {
        if now < self.next_rotate || self.open_conns() < self.cfg.max_conns {
            return;
        }
        let n = self.addrs.len();
        let Some(g) = (0..self.groups.len()).find(|&g| {
            self.groups[g].retrying && now.duration_since(self.groups[g].last_ok) > STALL
        }) else {
            return;
        };
        self.groups[g].leader = None;
        self.groups[g].last_ok = now;
        self.next_rotate = now + STALL;
        self.rotation += 1;
        let leads = |node: usize| {
            self.groups
                .iter()
                .filter(|s| s.leader == Some(node as u32))
                .count()
        };
        let victim = (0..n)
            .map(|i| (i + self.rotation) % n)
            .filter(|&i| self.conns[i].is_some())
            .min_by_key(|&i| leads(i));
        if let Some(victim) = victim {
            // Keep it closed for a while so the node not yet tried gets the
            // free connection.
            self.drop_conn(victim);
            self.next_dial[victim] = now + STALL;
        }
    }

    fn send_msg(&mut self, node: usize, msg: &Msg) {
        let t0 = self.layer.trace.then(Instant::now);
        let body = encode_with_scratch(msg, &mut self.scratch);
        let len = body.len();
        let Some(c) = self.conns[node].as_mut() else {
            return;
        };
        c.out.extend_from_slice(&(len as u32).to_le_bytes());
        c.out.extend_from_slice(body);
        if let Some(t0) = t0 {
            self.layer.encode.0 += 1;
            self.layer.encode.1 += t0.elapsed().as_nanos() as u64;
        }
        self.layer.req_frames.0 += 1;
        self.layer.req_frames.1 += 4 + len as u64;
    }

    fn flush_writes(&mut self) {
        for node in 0..self.conns.len() {
            let mut failed = false;
            if let Some(c) = self.conns[node].as_mut() {
                if c.out.is_empty() && !c.want_out {
                    continue;
                }
                let mut written = 0;
                while written < c.out.len() {
                    match c.stream.write(&c.out[written..]) {
                        Ok(0) => {
                            failed = true;
                            break;
                        }
                        Ok(k) => written += k,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                c.out.drain(..written);
                let want_out = !c.out.is_empty();
                if want_out != c.want_out && !failed {
                    c.want_out = want_out;
                    let mut interest = EPOLLIN | EPOLLRDHUP;
                    if want_out {
                        interest |= EPOLLOUT;
                    }
                    failed = self
                        .epoll
                        .modify(c.stream.as_raw_fd(), interest, node as u64)
                        .is_err();
                }
            }
            if failed {
                self.drop_conn(node);
            }
        }
    }

    // ---- client actions ------------------------------------------------

    /// Carry out a client's actions. `first`: these are the first
    /// transmission of a request (not a retransmission).
    fn transmit(&mut self, s: usize, actions: Vec<Action>, first: bool, now: Instant) {
        let mut msg: Option<Msg> = None;
        for a in actions {
            match a {
                Action::Send { to: _, msg: m } => {
                    msg.get_or_insert(m);
                }
                Action::ToAllReplicas { msg: m } => {
                    msg.get_or_insert(m);
                }
                Action::SetTimer {
                    kind: TimerKind::ClientRetry,
                    after,
                } => {
                    let at = now + Duration::from_nanos(after.0);
                    let slot = &mut self.slots[s];
                    slot.timer_gen += 1;
                    slot.retry_at = Some(at);
                    self.timers.push(Reverse((at, s, slot.timer_gen)));
                }
                Action::CancelTimer {
                    kind: TimerKind::ClientRetry,
                } => {
                    self.slots[s].retry_at = None;
                }
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
            }
        }
        let Some(msg) = msg else {
            return;
        };
        let Some((req, group)) = peek_request(&msg) else {
            return;
        };
        let read = req.kind == RequestKind::Read;
        if first {
            let id = req.id;
            if let Some(a) = self.slots[s].active.as_mut() {
                a.cur_req = Some(id);
            }
        }
        let st = &mut self.groups[group.0 as usize];
        if !first {
            st.retrying = true;
        }
        let leader = st
            .leader
            .map(|l| l as usize)
            .filter(|&l| self.conns[l].is_some());
        let targets: Vec<usize> = match leader {
            Some(l) if first && !read => vec![l],
            _ => (0..self.conns.len())
                .filter(|&i| self.conns[i].is_some())
                .collect(),
        };
        for t in targets {
            self.send_msg(t, &msg);
        }
    }

    fn op_bytes(&self, op: Op, aux: u64) -> (RequestKind, Bytes) {
        let k = self.cfg.keys;
        match op {
            Op::Put(key) => (
                RequestKind::Write,
                KvOp::Put(k.name(key), value_of(aux)).encode(),
            ),
            Op::Get(key) => (RequestKind::Read, KvOp::Get(k.name(key)).encode()),
            Op::Add(key, d) => (RequestKind::Write, KvOp::Add(k.name(key), d).encode()),
            Op::Transfer { .. } => unreachable!("transfers run through a coordinator"),
        }
    }

    fn new_coordinator(&mut self, s: usize, src: u32, dst: u32, amount: i64) -> TxnCoordinator {
        let k = self.cfg.keys;
        let legs = transfer_legs(&k.name(src), &k.name(dst), amount, self.cfg.n_groups);
        self.layer.txn_attempts += 1;
        if legs.len() > 1 {
            self.layer.txn_cross += 1;
        }
        let txn = self.slots[s].core.next_txn_id();
        TxnCoordinator::new(txn, self.cfg.n_groups, legs)
    }

    /// Run the coordinator of slot `s` one step (send its next request).
    fn step_txn(&mut self, s: usize, now: Instant) {
        let t = self.time(now);
        let t0 = self.layer.trace.then(Instant::now);
        let slot = &mut self.slots[s];
        let Some(a) = slot.active.as_mut() else {
            return;
        };
        let coord = a.coord.as_mut().expect("a transfer has a coordinator");
        let actions = coord.step(&mut slot.core, t);
        if let Some(t0) = t0 {
            // A coordinator step is how a transfer hands its next request
            // to the client, so it also counts as a submit.
            let d = t0.elapsed().as_nanos() as u64;
            self.layer.txn_step.0 += 1;
            self.layer.txn_step.1 += d;
            self.layer.submit.0 += 1;
            self.layer.submit.1 += d;
        }
        self.layer.txn_requests += 1;
        if let Some(actions) = actions {
            self.transmit(s, actions, true, now);
        }
    }

    /// Start `op` on idle slot `s`; it was due at `due`.
    fn issue(&mut self, s: usize, op: Op, due: Instant, now: Instant) {
        let op_id = self.next_op;
        self.next_op += 1;
        self.acct.open(op_id, self.ns(due));
        self.layer.late.0 += 1;
        self.layer.late.1 += now.saturating_duration_since(due).as_nanos() as u64;
        self.deadlines
            .push(Reverse((due + self.cfg.deadline, s, op_id)));
        let aux = match op {
            Op::Put(key) => {
                let id = self.hist.new_put(key);
                let t = self.ns(now);
                self.hist.put_sent(id, t);
                id
            }
            Op::Get(key) => self.hist.floor(key),
            Op::Add(..) | Op::Transfer { .. } => 0,
        };
        let coord = match op {
            Op::Transfer { src, dst, amount } => Some(self.new_coordinator(s, src, dst, amount)),
            _ => None,
        };
        let is_txn = coord.is_some();
        self.slots[s].active = Some(Active {
            op_id,
            op,
            aux,
            coord,
            attempts: 1,
            cur_req: None,
        });
        if is_txn {
            self.step_txn(s, now);
            return;
        }
        let (kind, bytes) = self.op_bytes(op, aux);
        let t = self.time(now);
        let t0 = self.layer.trace.then(Instant::now);
        let actions = self.slots[s].core.submit_op(kind, bytes, t);
        if let Some(t0) = t0 {
            self.layer.submit.0 += 1;
            self.layer.submit.1 += t0.elapsed().as_nanos() as u64;
        }
        self.transmit(s, actions, true, now);
    }

    fn finish(&mut self, s: usize, committed: bool, now: Instant) {
        let Some(a) = self.slots[s].active.take() else {
            return;
        };
        if committed {
            let t = self.ns(now);
            self.acct.commit(a.op_id, t);
        } else {
            self.acct.fail(a.op_id, Failure::GaveUp);
        }
        self.idle.push(s);
    }

    fn on_completed(&mut self, s: usize, done: CompletedOp, now: Instant) {
        if done.req.kind == RequestKind::Read {
            self.reads_done += 1;
        } else {
            self.writes_done += 1;
        }
        if let Some(r) = self.replies.as_mut() {
            r.push(done.body.clone());
        }
        if self.layer.trace {
            let end = self.ns(now);
            self.layer.requests.push((
                done.req.id,
                done.req.kind == RequestKind::Read,
                end.saturating_sub(done.rtt.0),
                end,
            ));
        }
        let Some(a) = self.slots[s].active.as_ref() else {
            return;
        };
        let (op, aux) = (a.op, a.aux);
        match op {
            Op::Put(_) | Op::Add(..) => {
                let ok = matches!(done.body, ReplyBody::Ok(_));
                if ok {
                    if let Op::Put(_) = op {
                        let t = self.ns(now);
                        self.hist.put_acked(aux, t);
                    }
                } else {
                    self.bad_replies += 1;
                }
                self.finish(s, ok, now);
            }
            Op::Get(key) => {
                let ok = match &done.body {
                    ReplyBody::Ok(payload) if self.final_reads => {
                        self.hist.check_final(key, payload);
                        true
                    }
                    ReplyBody::Ok(payload) => {
                        self.hist.get_returned(key, aux, payload);
                        true
                    }
                    _ => false,
                };
                if !ok {
                    self.bad_replies += 1;
                }
                self.finish(s, ok, now);
            }
            Op::Transfer { src, dst, amount } => {
                let a = self.slots[s].active.as_mut().expect("checked above");
                let coord = a.coord.as_mut().expect("a transfer has a coordinator");
                match coord.on_complete(&done) {
                    None => self.step_txn(s, now),
                    Some(Outcome::Committed) => {
                        self.layer.txn_commits += 1;
                        self.finish(s, true, now);
                    }
                    Some(Outcome::Aborted(_)) => {
                        self.layer.txn_aborts += 1;
                        if a.attempts >= MAX_TRANSFER_ATTEMPTS {
                            self.finish(s, false, now);
                        } else {
                            a.attempts += 1;
                            let c = self.new_coordinator(s, src, dst, amount);
                            if let Some(a) = self.slots[s].active.as_mut() {
                                a.coord = Some(c);
                            }
                            self.step_txn(s, now);
                        }
                    }
                    Some(Outcome::InDoubt) => {
                        self.in_doubt.push((coord.txn(), coord.prepared().to_vec()));
                        self.finish(s, false, now);
                    }
                }
            }
        }
    }

    fn on_frame(&mut self, mut frame: Bytes, now: Instant) {
        self.layer.reply_frames.0 += 1;
        self.layer.reply_frames.1 += 4 + frame.len() as u64;
        let t0 = self.layer.trace.then(Instant::now);
        let Ok(msg) = decode_msg(&mut frame) else {
            return;
        };
        if let Some(t0) = t0 {
            self.layer.decode.0 += 1;
            self.layer.decode.1 += t0.elapsed().as_nanos() as u64;
        }
        let Some((reply, group)) = peek_reply(&msg) else {
            return;
        };
        let Some(&s) = self.by_client.get(&reply.id.client.0) else {
            return; // a client replaced after its deadline
        };
        let current = self.slots[s]
            .active
            .as_ref()
            .is_some_and(|a| a.cur_req == Some(reply.id));
        if current && reply.body.is_busy() {
            self.layer.busy += 1;
            let op = self.slots[s].active.as_ref().map(|a| a.op_id);
            if let Some(op) = op {
                self.acct.busy(op);
            }
        } else if current {
            self.note_leader(group, reply.leader.0, now);
        }
        let t = self.time(now);
        let t0 = self.layer.trace.then(Instant::now);
        let (done, actions) = self.slots[s].core.on_message(msg, t);
        if let Some(t0) = t0 {
            self.layer.on_message.0 += 1;
            self.layer.on_message.1 += t0.elapsed().as_nanos() as u64;
        }
        self.transmit(s, actions, false, now);
        if let Some(done) = done {
            self.on_completed(s, done, now);
        }
    }

    fn note_leader(&mut self, group: GroupId, leader: u32, now: Instant) {
        let g = group.0 as usize;
        let st = &mut self.groups[g];
        st.leader = Some(leader);
        st.last_ok = now;
        st.retrying = false;
        if st.last_leader != Some(leader) {
            if st.last_leader.is_some() {
                self.leader_changes += 1;
            }
            st.last_leader = Some(leader);
        }
        if g == 0 {
            self.leader_seen.store(leader, Ordering::Relaxed);
        }
        if let Some((stopped, at)) = self.pending_stop {
            if leader != stopped {
                self.gaps_ms
                    .push(now.saturating_duration_since(at).as_secs_f64() * 1e3);
                self.pending_stop = None;
            }
        }
    }

    fn read_conn(&mut self, node: usize, now: Instant) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let Some(c) = self.conns[node].as_mut() else {
                return;
            };
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    self.drop_conn(node);
                    return;
                }
                Ok(k) => {
                    c.decoder.extend(&buf[..k]);
                    loop {
                        let Some(c) = self.conns[node].as_mut() else {
                            return;
                        };
                        match c.decoder.next_frame() {
                            Ok(Some(frame)) => self.on_frame(frame, now),
                            Ok(None) => break,
                            Err(_) => {
                                self.drop_conn(node);
                                return;
                            }
                        }
                    }
                    if k < buf.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.drop_conn(node);
                    return;
                }
            }
        }
    }

    fn fire_timers(&mut self, now: Instant) {
        while let Some(&Reverse((at, s, gen))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            let slot = &mut self.slots[s];
            if slot.timer_gen != gen || slot.retry_at != Some(at) {
                continue;
            }
            slot.retry_at = None;
            let t = self.time(now);
            let actions = self.slots[s].core.on_timer(TimerKind::ClientRetry, t);
            self.layer.retransmits += 1;
            self.transmit(s, actions, false, now);
        }
    }

    fn expire_deadlines(&mut self, now: Instant) {
        while let Some(&Reverse((at, s, op_id))) = self.deadlines.peek() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            let live = self.slots[s]
                .active
                .as_ref()
                .is_some_and(|a| a.op_id == op_id);
            if !live {
                continue;
            }
            let a = self.slots[s].active.take().expect("checked above");
            self.acct.fail(op_id, Failure::Deadline);
            if let Some(c) = &a.coord {
                if !c.prepared().is_empty() {
                    self.in_doubt.push((c.txn(), c.prepared().to_vec()));
                }
            }
            self.replace_core(s);
            self.idle.push(s);
        }
    }

    fn poll_stops(&mut self) {
        if let Some(rx) = &self.stops {
            while let Ok(ev) = rx.try_recv() {
                self.pending_stop = Some(ev);
            }
        }
    }

    fn next_wake(&self, now: Instant, extra: Option<Instant>) -> i32 {
        let mut at = now + Duration::from_millis(5);
        if let Some(Reverse((t, _, _))) = self.timers.peek() {
            at = at.min(*t);
        }
        if let Some(Reverse((t, _, _))) = self.deadlines.peek() {
            at = at.min(*t);
        }
        if let Some(t) = extra {
            at = at.min(t);
        }
        at.saturating_duration_since(now).as_micros().div_ceil(1000) as i32
    }

    /// Run one phase: offer `load` from `next_op` until `until`, then wait
    /// for the ops in flight (each ends by its deadline). Returns the
    /// phase's accounting.
    pub fn run_phase(
        &mut self,
        load: Load,
        until: Until,
        next_op: &mut dyn FnMut() -> Op,
    ) -> Accounting {
        let start = Instant::now();
        self.acct = match until {
            Until::For(d) => {
                Accounting::windowed(self.ns(start), d.as_nanos() as u64, self.windows)
            }
            Until::Ops(_) => Accounting::windowed(self.ns(start), u64::MAX / 2, 1),
        };
        let end_at = match until {
            Until::For(d) => Some(start + d),
            Until::Ops(_) => None,
        };
        let mut issued = 0u64;
        // A phase bounded by an op count stops early once ops keep failing
        // (each failure costs a whole deadline).
        let issuing = |issued: u64, failed: u64, now: Instant| match until {
            Until::Ops(n) => issued < n && failed < MAX_PHASE_FAILURES,
            Until::For(_) => end_at.is_some_and(|e| now < e),
        };
        let (clients, mut open) = match load {
            Load::Closed { clients } => (clients, None),
            Load::Open { rate, seed } => (0, Some((rate, seed | 1, start))),
        };
        while self.slots.len() < clients {
            self.add_slot();
        }
        self.idle = (0..self.slots.len())
            .filter(|&s| self.slots[s].active.is_none())
            .collect();
        self.idle.reverse();
        let mut events = Vec::new();
        let mut wake = start;
        loop {
            let now = Instant::now();
            self.poll_stops();
            self.ensure_conns(now);
            self.fire_timers(now);
            self.expire_deadlines(now);
            match open.as_mut() {
                None => {
                    while issuing(issued, self.acct.failed, now) {
                        let Some(s) = self.idle.pop() else { break };
                        let op = next_op();
                        self.issue(s, op, wake, now);
                        issued += 1;
                    }
                }
                Some((rate, rng, due)) => {
                    while *due <= now && issuing(issued, self.acct.failed, *due) {
                        let s = match self.idle.pop() {
                            Some(s) => s,
                            None => self.add_slot(),
                        };
                        let op = next_op();
                        let d = *due;
                        self.issue(s, op, d, now);
                        issued += 1;
                        let gap = -(1.0 - unit(rng)).ln() / *rate;
                        *due += Duration::from_secs_f64(gap);
                    }
                }
            }
            self.flush_writes();
            if !issuing(issued, self.acct.failed, now) && self.acct.in_flight() == 0 {
                break;
            }
            // Once nothing more is issued, only replies, retransmissions
            // and deadlines can wake the loop.
            let extra = match (&open, end_at) {
                _ if !issuing(issued, self.acct.failed, now) => None,
                (Some((_, _, due)), _) => Some(*due),
                (None, e) => e,
            };
            let timeout = self.next_wake(now, extra);
            events.clear();
            if self.epoll.wait(&mut events, timeout).is_err() {
                continue;
            }
            wake = Instant::now();
            // Writable events need no handling here: the next flush writes
            // whatever is queued and re-settles the interest mask.
            for ev in &events {
                if ev.readable() {
                    self.read_conn(ev.token as usize, wake);
                }
            }
        }
        std::mem::take(&mut self.acct)
    }

    /// Close every connection.
    pub fn close(&mut self) {
        for node in 0..self.conns.len() {
            self.drop_conn(node);
        }
    }
}
