//! Workload `rt_churn`: two rt nodes over loopback TCP, the caller on
//! `connections × 64` tunnels, every slot in a closed open → oack → close →
//! closeack loop until a fixed number of set-ups complete.
//!
//! The benchmark's own dialer logic records each call's wall latency from
//! issuing `Open` to `SlotNote::Oacked`. A call with no oack within
//! [`DEADLINE_MS`] is counted as failed, closed and reopened: today the
//! callee's 64-deep writer queue sheds oack and select frames when a burst
//! of more than 32 opens reaches one connection, and rt has no per-signal
//! retransmission, so those calls never set up (see the README).

use crate::report::{rounds, Outcome, SIGNAL_KINDS};
use crate::stats::{median, Samples};
use crate::sys;
use ipmedia_core::boxes::{GoalSpec, MediaBox};
use ipmedia_core::endpoint::EndpointLogic;
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, UserCmd};
use ipmedia_core::ids::{BoxId, SlotId, TunnelId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx, TimerId};
use ipmedia_core::slot::{SlotAction, SlotEvent};
use ipmedia_core::{ChannelMsg, MediaAddr, Medium, Signal};
use ipmedia_obs::metrics::MetricsSnapshot;
use ipmedia_obs::{NoopObserver, Observer};
use ipmedia_rt::{
    spawn_node_tuned, wire, Directory, Frame, NodeHandle, NodeTuning, ReconnectPolicy,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tunnels per connection; with two connections, 128 calls in flight,
/// where throughput stops growing on a 2-core host.
pub const TUNNELS: u16 = 64;
/// Set-ups that end one round.
pub const ROUND_SETUPS: u64 = 20_000;
/// Per-call deadline for the oack, far above the healthy p99.9.
pub const DEADLINE_MS: u64 = 250;

/// Repetitions of one call's frame mix the codec is timed over.
const WIRE_REPS: usize = 20_000;

/// The timer the dialer polls with while the callee registers a channel.
const GATE: TimerId = TimerId(u32::MAX);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked holding the lock")
}

/// Connections of the caller: one per core, at most two.
pub fn connections() -> u32 {
    sys::nproc().clamp(1, 2) as u32
}

/// Slots of every channel on both sides, in channel order. The dialer
/// opens a channel only after the callee registered the previous one, so
/// channel `c` tunnel `t` is the same tunnel on both sides.
#[derive(Default)]
struct Topo {
    caller: Vec<Vec<SlotId>>,
    callee: Vec<Vec<SlotId>>,
}

impl Topo {
    fn peer(&self, side: usize, slot: SlotId) -> Option<SlotId> {
        let (mine, theirs) = if side == 0 {
            (&self.caller, &self.callee)
        } else {
            (&self.callee, &self.caller)
        };
        mine.iter().enumerate().find_map(|(c, slots)| {
            let t = slots.iter().position(|s| *s == slot)?;
            theirs.get(c)?.get(t).copied()
        })
    }
}

#[derive(Debug)]
enum Note {
    ChannelsUp,
    TargetReached,
    Drained,
}

/// What the dialer saw in one round.
#[derive(Default)]
struct Log {
    attempted: u64,
    completed: u64,
    failed: u64,
    latencies_us: Vec<f64>,
    channels_up: Option<Instant>,
    target_at: Option<Instant>,
    /// Slots whose close got no closeack within the deadline, counted
    /// when the round drained.
    stuck: usize,
}

struct Dialer {
    target: String,
    channels: u32,
    setups: u64,
    deadline_ms: u64,
    topo: Arc<Mutex<Topo>>,
    log: Arc<Mutex<Log>>,
    notes: mpsc::Sender<Note>,
    slots: Vec<SlotId>,
    open_at: HashMap<SlotId, Instant>,
    close_at: HashMap<SlotId, Instant>,
    stopping: bool,
    drained: bool,
}

impl Dialer {
    fn new(
        channels: u32,
        setups: u64,
        deadline_ms: u64,
        topo: &Arc<Mutex<Topo>>,
        log: &Arc<Mutex<Log>>,
        notes: mpsc::Sender<Note>,
    ) -> Self {
        Self {
            target: "churn-callee".into(),
            channels,
            setups,
            deadline_ms,
            topo: topo.clone(),
            log: log.clone(),
            notes,
            slots: Vec::new(),
            open_at: HashMap::new(),
            close_at: HashMap::new(),
            stopping: false,
            drained: false,
        }
    }

    fn open_next_channel(&mut self, ctx: &mut Ctx<'_>) {
        let c = lock(&self.topo).caller.len() as u32;
        ctx.open_channel(self.target.clone(), TUNNELS, c);
    }

    fn begin(&mut self, ctx: &mut Ctx<'_>) {
        lock(&self.log).channels_up = Some(Instant::now());
        let _ = self.notes.send(Note::ChannelsUp);
        for slot in self.slots.clone() {
            ctx.set_goal(GoalSpec::User {
                slot,
                policy: EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000)),
                mode: AcceptMode::Auto,
            });
            self.start_call(slot, ctx);
        }
    }

    fn start_call(&mut self, slot: SlotId, ctx: &mut Ctx<'_>) {
        self.close_at.remove(&slot);
        if self.stopping {
            return;
        }
        self.open_at.insert(slot, Instant::now());
        lock(&self.log).attempted += 1;
        ctx.user(slot, UserCmd::Open(Medium::Audio));
        ctx.set_timer(TimerId(u32::from(slot.0)), self.deadline_ms);
    }

    fn close(&mut self, slot: SlotId, ctx: &mut Ctx<'_>) {
        let closable = ctx
            .media()
            .slot(slot)
            .is_some_and(|s| s.state().after_send(SlotAction::Close).is_some());
        if closable {
            self.close_at.insert(slot, Instant::now());
            ctx.user(slot, UserCmd::Close);
        }
    }

    /// Once the target is reached, the round is drained when no call is
    /// pending: every attempt has become a set-up or a failure.
    fn check_drained(&mut self) {
        if self.stopping && !self.drained && self.open_at.is_empty() {
            self.drained = true;
            let deadline = Duration::from_millis(self.deadline_ms);
            lock(&self.log).stuck = self
                .close_at
                .values()
                .filter(|t| t.elapsed() > deadline)
                .count();
            let _ = self.notes.send(Note::Drained);
        }
    }

    fn on_oacked(&mut self, slot: SlotId, ctx: &mut Ctx<'_>) {
        if let Some(t0) = self.open_at.remove(&slot) {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            ctx.cancel_timer(TimerId(u32::from(slot.0)));
            let mut log = lock(&self.log);
            log.latencies_us.push(us);
            log.completed += 1;
            if log.completed == self.setups {
                log.target_at = Some(Instant::now());
                self.stopping = true;
                let _ = self.notes.send(Note::TargetReached);
            }
        }
        self.close(slot, ctx);
        self.check_drained();
    }

    /// No oack in time: the call failed. It counts as a miss of every
    /// latency limit, and the slot is closed so it can dial again.
    fn on_deadline(&mut self, slot: SlotId, ctx: &mut Ctx<'_>) {
        if self.open_at.remove(&slot).is_some() {
            let mut log = lock(&self.log);
            log.failed += 1;
            log.latencies_us.push(f64::INFINITY);
            drop(log);
            self.close(slot, ctx);
            self.check_drained();
        }
    }
}

impl AppLogic for Dialer {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Start => self.open_next_channel(ctx),
            BoxInput::ChannelUp {
                slots,
                req: Some(_),
                ..
            } => {
                let opened = {
                    let mut topo = lock(&self.topo);
                    topo.caller.push(slots.clone());
                    topo.caller.len() as u32
                };
                self.slots.extend(slots);
                if opened < self.channels {
                    ctx.set_timer(GATE, 1);
                } else {
                    self.begin(ctx);
                }
            }
            BoxInput::Timer(GATE) => {
                let (mine, theirs) = {
                    let topo = lock(&self.topo);
                    (topo.caller.len(), topo.callee.len())
                };
                if theirs >= mine {
                    self.open_next_channel(ctx);
                } else {
                    ctx.set_timer(GATE, 1);
                }
            }
            BoxInput::Timer(id) => self.on_deadline(SlotId(id.0 as u16), ctx),
            BoxInput::SlotNote { slot, event } => match event {
                SlotEvent::Oacked => self.on_oacked(*slot, ctx),
                SlotEvent::CloseAcked | SlotEvent::PeerClosed { .. } => self.start_call(*slot, ctx),
                _ => {}
            },
            _ => {}
        }
    }
}

/// The auto-answering callee, registering its channels for the dialer's
/// gate and the hop observer.
struct Callee {
    inner: EndpointLogic,
    topo: Arc<Mutex<Topo>>,
}

impl AppLogic for Callee {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        if let BoxInput::ChannelUp {
            slots, req: None, ..
        } = input
        {
            lock(&self.topo).callee.push(slots.clone());
        }
        self.inner.handle(input, ctx);
    }
}

/// Hop and callee-turn samples of the traced run, shared by the
/// observers of both nodes.
#[derive(Default)]
struct HopTable {
    /// Per side, per (slot, signal kind): when the latest one was sent.
    sent: [HashMap<(SlotId, usize), Instant>; 2],
    /// Callee slots with an open received and no oack sent yet.
    open_rx: HashMap<SlotId, Instant>,
    hop_us: Vec<f64>,
    turn_us: Vec<f64>,
    sent_kinds: [u64; SIGNAL_KINDS.len()],
}

/// Observer on one node (side 0 caller, 1 callee). A slot's protocol is
/// request/response, so a received signal answers the latest send of its
/// kind on the peer end of the same tunnel.
struct HopObserver {
    side: usize,
    topo: Arc<Mutex<Topo>>,
    table: Arc<Mutex<HopTable>>,
}

fn kind_index(kind: &str) -> Option<usize> {
    SIGNAL_KINDS.iter().position(|k| *k == kind)
}

impl Observer for HopObserver {
    fn signal_sent(&mut self, _bx: u32, slot: u16, kind: &'static str) {
        let now = Instant::now();
        let Some(k) = kind_index(kind) else { return };
        let slot = SlotId(slot);
        let mut t = lock(&self.table);
        t.sent[self.side].insert((slot, k), now);
        t.sent_kinds[k] += 1;
        if self.side == 1 && kind == "oack" {
            if let Some(rx) = t.open_rx.remove(&slot) {
                t.turn_us.push((now - rx).as_secs_f64() * 1e6);
            }
        }
    }

    fn signal_received(&mut self, _bx: u32, slot: u16, kind: &'static str) {
        let now = Instant::now();
        let Some(k) = kind_index(kind) else { return };
        let slot = SlotId(slot);
        let Some(peer) = lock(&self.topo).peer(self.side, slot) else {
            return;
        };
        let mut t = lock(&self.table);
        if let Some(sent) = t.sent[1 - self.side].remove(&(peer, k)) {
            t.hop_us.push((now - sent).as_secs_f64() * 1e6);
        }
        if self.side == 1 && kind == "open" {
            t.open_rx.insert(slot, now);
        }
    }
}

/// One churn round from node spawn to shutdown.
struct Round {
    spawn_s: f64,
    setup_s: f64,
    measured_s: f64,
    cpu_s: Option<f64>,
    log: Log,
    loopback: bool,
    caller: MetricsSnapshot,
    callee: MetricsSnapshot,
    peak_bytes: usize,
    allocs: u64,
    hops: Option<HopTable>,
}

impl Round {
    fn calls_per_s(&self) -> f64 {
        ROUND_SETUPS as f64 / self.measured_s
    }

    fn samples(&self) -> Samples {
        Samples::new(self.log.latencies_us.clone())
    }

    fn sheds(&self) -> u64 {
        self.caller.faults("shed") + self.callee.faults("shed")
    }
}

fn observer(
    traced: bool,
    side: usize,
    topo: &Arc<Mutex<Topo>>,
    table: &Arc<Mutex<HopTable>>,
) -> Box<dyn Observer + Send> {
    if traced {
        Box::new(HopObserver {
            side,
            topo: topo.clone(),
            table: table.clone(),
        })
    } else {
        Box::new(NoopObserver)
    }
}

async fn spawn_pair(
    traced: bool,
    topo: &Arc<Mutex<Topo>>,
    table: &Arc<Mutex<HopTable>>,
    dialer: Dialer,
) -> std::io::Result<(NodeHandle, NodeHandle)> {
    let dir = Directory::new();
    let callee = spawn_node_tuned(
        "churn-callee",
        BoxId(2),
        Box::new(Callee {
            inner: EndpointLogic::resource(EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 2, 4000))),
            topo: topo.clone(),
        }),
        dir.clone(),
        ReconnectPolicy::default(),
        observer(traced, 1, topo, table),
        NodeTuning::default(),
    )
    .await?;
    let caller = spawn_node_tuned(
        "churn-caller",
        BoxId(1),
        Box::new(dialer),
        dir,
        ReconnectPolicy::default(),
        observer(traced, 0, topo, table),
        NodeTuning::default(),
    )
    .await?;
    Ok((caller, callee))
}

fn round(traced: bool) -> Result<Round, String> {
    let topo = Arc::new(Mutex::new(Topo::default()));
    let table = Arc::new(Mutex::new(HopTable::default()));
    let log = Arc::new(Mutex::new(Log::default()));
    let (tx, rx) = mpsc::channel();
    let channels = connections();
    let dialer = Dialer::new(channels, ROUND_SETUPS, DEADLINE_MS, &topo, &log, tx);
    let baseline = sys::mark();
    let allocs0 = sys::allocs();
    let t_spawn = Instant::now();
    let (caller, callee) = tokio::runtime::block_on(spawn_pair(traced, &topo, &table, dialer))
        .map_err(|e| format!("rt node spawn failed: {e}"))?;
    let spawn_s = t_spawn.elapsed().as_secs_f64();
    let loopback = caller.addr.ip().is_loopback() && callee.addr.ip().is_loopback();

    let wait = |want: &str, timeout: Duration| match rx.recv_timeout(timeout) {
        Ok(_) => Ok(()),
        Err(e) => Err(format!("rt churn: no {want} within {timeout:?} ({e})")),
    };
    let mut result = wait("channels up", Duration::from_secs(10));
    let cpu0 = sys::process_cpu_s();
    if result.is_ok() {
        result = wait("target set-ups", Duration::from_secs(120));
    }
    let cpu_s = sys::process_cpu_s().zip(cpu0).map(|(b, a)| b - a);
    // Calls in flight at the target finish or fail within the deadline.
    if result.is_ok() {
        result = wait("drain", Duration::from_millis(DEADLINE_MS + 500));
    }
    let caller_metrics = caller.registry().snapshot();
    let callee_metrics = callee.registry().snapshot();
    tokio::runtime::block_on(async {
        caller.shutdown().await;
        callee.shutdown().await;
    });
    result?;
    let peak_bytes = sys::peak_since(baseline);
    let allocs = sys::allocs() - allocs0;
    let log = std::mem::take(&mut *lock(&log));
    let (up, done) = (
        log.channels_up.expect("channels-up note sent"),
        log.target_at.expect("target note sent"),
    );
    let hops = traced.then(|| std::mem::take(&mut *lock(&table)));
    Ok(Round {
        spawn_s,
        setup_s: (up - t_spawn).as_secs_f64(),
        measured_s: (done - up).as_secs_f64(),
        cpu_s,
        log,
        loopback,
        caller: caller_metrics,
        callee: callee_metrics,
        peak_bytes,
        allocs,
        hops,
    })
}

/// The signals of one call as the churn makes it (open → oack + selects
/// → close → closeack), from two user agents pumped in memory: the frame
/// mix the wire codec is timed on.
fn call_signals() -> Vec<Signal> {
    let slot = SlotId(0);
    let mut ends = [MediaBox::new(BoxId(1)), MediaBox::new(BoxId(2))];
    for (i, b) in ends.iter_mut().enumerate() {
        b.add_slot(slot, i == 0);
        b.set_goal(GoalSpec::User {
            slot,
            policy: EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, i as u8 + 1, 4000)),
            mode: AcceptMode::Auto,
        });
    }
    let mut all = Vec::new();
    for cmd in [UserCmd::Open(Medium::Audio), UserCmd::Close] {
        let first = ends[0]
            .user(slot, cmd)
            .expect("legal in a quiet user-agent slot");
        let mut queue: Vec<(usize, Signal)> = first.into_iter().map(|o| (1, o.signal)).collect();
        while let Some((to, signal)) = queue.pop() {
            all.push(signal.clone());
            let (out, _) = ends[to].on_signal(slot, signal);
            queue.extend(out.into_iter().map(|o| (1 - to, o.signal)));
        }
    }
    all
}

/// Wire bytes of one call and the codec's encode/decode time per frame,
/// over the call's frame mix; `None` if a frame does not round-trip.
fn wire_costs() -> Option<(f64, f64, f64)> {
    let frames: Vec<Frame> = call_signals()
        .into_iter()
        .map(|signal| {
            Frame::Msg(ChannelMsg::Tunnel {
                tunnel: TunnelId(7),
                signal,
            })
        })
        .collect();
    // Framed prefixes each frame with a 4-byte length.
    let bytes: usize = frames.iter().map(|f| wire::encode(f).len() + 4).sum();
    let t0 = Instant::now();
    let mut encoded = Vec::with_capacity(WIRE_REPS * frames.len());
    for _ in 0..WIRE_REPS {
        for f in &frames {
            encoded.push(std::hint::black_box(wire::encode(f)));
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / encoded.len() as f64;
    let t1 = Instant::now();
    let mut decoded = Vec::with_capacity(encoded.len());
    for b in &encoded {
        decoded.push(std::hint::black_box(wire::decode(b.clone())));
    }
    let decode_ns = t1.elapsed().as_nanos() as f64 / decoded.len() as f64;
    let round_trips = decoded
        .iter()
        .zip(frames.iter().cycle())
        .all(|(d, f)| d.as_ref().ok() == Some(f));
    round_trips.then_some((bytes as f64, encode_ns, decode_ns))
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Runs the workload for `seconds`; with `traced`, half the time untraced
/// (the reference for the tracing overhead) and half with the hop
/// observers on both nodes.
pub fn run(seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let channels = connections();
    out.fact("connections", channels);
    out.fact("tunnels_per_connection", TUNNELS);
    out.fact("in_flight", channels as usize * TUNNELS as usize);
    out.fact("setups_per_round", ROUND_SETUPS);
    out.fact("deadline_ms", DEADLINE_MS);
    let plain_s = if traced { seconds / 2.0 } else { seconds };
    let plain = rounds(plain_s, &mut out, || round(false));
    let timed = if traced {
        rounds(seconds / 2.0, &mut out, || round(true))
    } else {
        Vec::new()
    };
    if plain.is_empty() {
        return out;
    }
    out.fact("rounds", plain.len());
    out.fact(
        "round_ops_per_s",
        format!(
            "{:.0?}",
            plain.iter().map(Round::calls_per_s).collect::<Vec<_>>()
        ),
    );
    out.fact(
        "round_stuck",
        format!(
            "{:?}",
            plain.iter().map(|r| r.log.stuck).collect::<Vec<_>>()
        ),
    );
    out.fact(
        "round_failed",
        format!(
            "{:?}",
            plain.iter().map(|r| r.log.failed).collect::<Vec<_>>()
        ),
    );
    out.fact("loopback", plain.iter().all(|r| r.loopback));

    // Oracle: every attempt is accounted for as a set-up or a failure,
    // every open the dialer issued left the caller, and the traffic stayed
    // on loopback.
    for r in plain.iter().chain(&timed) {
        let l = &r.log;
        out.attempted += l.attempted;
        out.failed += l.failed;
        out.expect(
            "attempted = completed + failed",
            l.attempted,
            l.completed + l.failed,
        );
        out.expect(
            "latency samples = attempted",
            l.latencies_us.len() as u64,
            l.attempted,
        );
        out.expect("opens sent = attempted", r.caller.sent("open"), l.attempted);
        out.check(
            "completed below the round target",
            l.completed >= ROUND_SETUPS,
        );
        out.check("rt traffic left loopback", r.loopback);
    }

    let n = plain.len();
    let all = Samples::new(
        plain
            .iter()
            .flat_map(|r| r.log.latencies_us.clone())
            .collect(),
    );
    let ops = med(&plain, Round::calls_per_s);
    let in_flight = channels as f64 * f64::from(TUNNELS);
    out.e2e.insert("ops_per_s", ops);
    out.e2e.insert("setup_s", med(&plain, |r| r.setup_s));
    out.e2e.insert(
        "bytes_per_op",
        med(&plain, |r| r.peak_bytes as f64 / in_flight),
    );
    out.e2e.insert(
        "latency_ms",
        med(&plain, |r| r.samples().percentile(50.0)) / 1e3,
    );

    out.named("calls_per_s", ops, "1/s", n);
    out.named("setup_s", med(&plain, |r| r.setup_s), "s", n);
    out.named(
        "bytes_per_live_call",
        med(&plain, |r| r.peak_bytes as f64 / in_flight),
        "B",
        n,
    );
    out.named("setup_p50_us", all.percentile(50.0), "us", all.len());
    out.named("setup_p99_us", all.percentile(99.0), "us", all.len());
    out.named("setup_p999_us", all.percentile(99.9), "us", all.len());
    out.named(
        "setup_p999_beyond",
        all.beyond(99.9) as f64,
        "count",
        all.len(),
    );
    out.named("failed_calls", all.misses() as f64, "count", all.len());
    out.named(
        "sheds",
        plain.iter().map(Round::sheds).sum::<u64>() as f64,
        "count",
        n,
    );
    out.named(
        "stuck_slots",
        plain.iter().map(|r| r.log.stuck).sum::<usize>() as f64,
        "count",
        n,
    );

    if traced && !timed.is_empty() {
        layer_split(&mut out, &plain, &timed);
    }
    out
}

/// The traced split. Names shared with the benchmark's per-layer list go
/// on the result line; the rt-only figures go in the detail record.
fn layer_split(out: &mut Outcome, plain: &[Round], timed: &[Round]) {
    let n = timed.len();
    let completed = |r: &Round| r.log.completed as f64;
    let frames = |r: &Round| (r.caller.signals_sent_total() + r.callee.signals_sent_total()) as f64;
    let all = Samples::new(
        timed
            .iter()
            .flat_map(|r| r.log.latencies_us.clone())
            .collect(),
    );
    let pool = |f: fn(&HopTable) -> &Vec<f64>| {
        Samples::new(
            timed
                .iter()
                .filter_map(|r| r.hops.as_ref())
                .flat_map(|h| f(h).clone())
                .collect(),
        )
    };
    let hops = pool(|h| &h.hop_us);
    let turns = pool(|h| &h.turn_us);
    out.named("rt.spawn_s", med(timed, |r| r.spawn_s), "s", n);
    out.named(
        "rt.channels_up_s",
        med(timed, |r| r.setup_s - r.spawn_s),
        "s",
        n,
    );
    out.named("rt.setup_p99_us", all.percentile(99.0), "us", all.len());
    out.named("rt.hop_us_p50", hops.percentile(50.0), "us", hops.len());
    out.named("rt.hop_us_p99", hops.percentile(99.0), "us", hops.len());
    out.named(
        "rt.callee_turn_us_p50",
        turns.percentile(50.0),
        "us",
        turns.len(),
    );
    out.named(
        "rt.callee_turn_us_p99",
        turns.percentile(99.0),
        "us",
        turns.len(),
    );
    out.named(
        "rt.frames_per_call",
        med(timed, |r| frames(r) / completed(r)),
        "count",
        n,
    );
    match wire_costs() {
        Some((bytes, enc, dec)) => {
            out.named("rt.wire.bytes_per_call", bytes, "B", 1);
            out.named("rt.wire.encode_ns", enc, "ns", WIRE_REPS);
            out.named("rt.wire.decode_ns", dec, "ns", WIRE_REPS);
        }
        None => out.mismatches.push("wire frames do not round-trip".into()),
    }
    let cpu_us = |r: &Round| r.cpu_s.unwrap_or(f64::NAN) * 1e6 / ROUND_SETUPS as f64;
    out.named("rt.cpu_us_per_call", med(timed, cpu_us), "us", n);
    out.named("rt.sheds", med(timed, |r| r.sheds() as f64), "count", n);
    out.named(
        "rt.deadline_misses",
        med(timed, |r| r.log.failed as f64),
        "count",
        n,
    );
    out.named(
        "rt.stuck_slots",
        med(timed, |r| r.log.stuck as f64),
        "count",
        n,
    );

    out.layer("latency_p99_ms", all.percentile(99.0) / 1e3);
    out.layer(
        "cpu.busy_frac",
        med(timed, |r| r.cpu_s.unwrap_or(f64::NAN) / r.measured_s),
    );
    if let Some(h) = timed[0].hops.as_ref() {
        for (i, k) in SIGNAL_KINDS.iter().enumerate() {
            out.layer(
                &format!("core.signals_per_call.{k}"),
                h.sent_kinds[i] as f64 / completed(&timed[0]),
            );
        }
    }
    out.layer(
        "alloc.allocs_per_event",
        med(timed, |r| r.allocs as f64 / frames(r)),
    );
    out.layer("alloc.peak_bytes", med(timed, |r| r.peak_bytes as f64));
    out.layer(
        "trace.overhead_frac",
        1.0 - med(timed, Round::calls_per_s) / med(plain, Round::calls_per_s),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deadline shorter than any loopback round trip (the shim alone
    /// retries socket I/O every millisecond) fails nearly every call. Each
    /// failure is counted once, as a miss, and nothing panics.
    #[test]
    fn a_too_short_deadline_is_counted_as_failed_calls() {
        let topo = Arc::new(Mutex::new(Topo::default()));
        let table = Arc::new(Mutex::new(HopTable::default()));
        let log = Arc::new(Mutex::new(Log::default()));
        let (tx, rx) = mpsc::channel();
        let dialer = Dialer::new(1, u64::MAX, 0, &topo, &log, tx);
        let (caller, callee) =
            tokio::runtime::block_on(spawn_pair(false, &topo, &table, dialer)).unwrap();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(Note::ChannelsUp)
        ));
        std::thread::sleep(Duration::from_millis(300));
        let l = std::mem::take(&mut *lock(&log));
        tokio::runtime::block_on(async {
            caller.shutdown().await;
            callee.shutdown().await;
        });
        assert!(l.failed > 0, "no call missed a 0 ms deadline");
        assert_eq!(l.latencies_us.len() as u64, l.completed + l.failed);
        let misses = l.latencies_us.iter().filter(|v| v.is_infinite()).count();
        assert_eq!(misses as u64, l.failed);
        let in_flight = l.attempted - l.completed - l.failed;
        assert!(
            in_flight <= u64::from(TUNNELS),
            "{in_flight} calls unaccounted for"
        );
    }

    #[test]
    fn a_call_frame_mix_round_trips_through_the_codec() {
        let kinds: Vec<&str> = call_signals().iter().map(Signal::kind).collect();
        assert_eq!(kinds[0], "open");
        assert!(kinds.contains(&"oack") && kinds.contains(&"closeack"));
        let (bytes, enc, dec) = wire_costs().expect("frames round-trip");
        assert!(bytes > 0.0 && enc > 0.0 && dec > 0.0);
    }
}
