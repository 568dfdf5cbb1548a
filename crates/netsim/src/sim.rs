//! The deterministic discrete-event network simulator.
//!
//! Boxes are [`ProgramBox`]es; signaling channels are FIFO, reliable, and
//! delay each message by the network latency *n*; each box takes the
//! compute cost *c* to read a stimulus and compute the next signals to
//! send, and processes stimuli serially (paper §VIII-C). All scheduling is
//! deterministic: events run in time order, and events due at the same
//! instant run in the order they were scheduled.

use crate::fault::{FaultPlan, FaultState, SendFate};
use crate::time::{SimDuration, SimTime};
use ipmedia_core::goal::{Outgoing, UserCmd};
use ipmedia_core::ids::{BoxId, ChannelId, SlotId, TunnelId};
use ipmedia_core::program::{AppLogic, BoxCmd, BoxInput, ProgramBox, TimerGenerations, TimerId};
use ipmedia_core::reliable::{self, Reliability, ReliableConfig, TimerAction};
use ipmedia_core::signal::{Availability, MetaSignal};
use ipmedia_core::MediaBox;
use ipmedia_obs::clock::ManualClock;
use ipmedia_obs::ladder::{render, LadderEvent};
use ipmedia_obs::trace::{SpanCtx, SpanSink, Tracer};
use ipmedia_obs::{Fanout, NoopObserver, Observer};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write;
use std::sync::Arc;

/// Timing parameters of the simulated deployment.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Average time for the network to accept a signal and deliver it to
    /// its destination box (*n*; the paper measured 34 ms on a typical
    /// carrier network with multiple geographic sites).
    pub net_latency: SimDuration,
    /// Average time for a box to read a stimulus from its input queue and
    /// compute the next signal to send (*c*; typical value 20 ms).
    pub compute_cost: SimDuration,
}

impl SimConfig {
    /// The paper's calibration: n = 34 ms, c = 20 ms (§VIII-C).
    pub fn paper() -> Self {
        Self {
            net_latency: SimDuration::from_millis(34),
            compute_cost: SimDuration::from_millis(20),
        }
    }

    /// Zero-cost timing: useful for functional tests where only message
    /// ordering matters.
    pub fn instant() -> Self {
        Self {
            net_latency: SimDuration::ZERO,
            compute_cost: SimDuration::ZERO,
        }
    }
}

enum Ev {
    /// Deliver an input to a box (and let it process it). `from` is the
    /// box whose output caused the input, when there is one — it feeds the
    /// trace's source column and ladder arrows.
    Input {
        to: BoxId,
        input: BoxInput,
        from: Option<BoxId>,
    },
    /// An application timer fires, if still current.
    TimerFire { to: BoxId, id: TimerId, gen: u64 },
    /// An externally injected user command.
    User {
        to: BoxId,
        slot: SlotId,
        cmd: UserCmd,
    },
    /// An externally injected closure over the box (goal re-annotations
    /// driven by test harnesses rather than application logic).
    #[allow(clippy::type_complexity)]
    Apply {
        to: BoxId,
        f: Box<dyn FnOnce(&mut ProgramBox) -> Vec<BoxCmd> + Send>,
    },
    /// The box goes down: inputs and timer fires addressed to it are lost
    /// until the matching `Restart`. Protocol state survives (a transient
    /// outage, not a state wipe).
    Crash { to: BoxId },
    /// The box comes back up; its reliability layer (if any) re-arms.
    Restart { to: BoxId },
    /// A (possibly asymmetric) partition between two boxes comes into
    /// force: blocked directions silently swallow signals and meta
    /// traffic until the matching `HealPair`.
    Partition {
        a: BoxId,
        b: BoxId,
        block_ab: bool,
        block_ba: bool,
    },
    /// Remove any partition between two boxes.
    HealPair { a: BoxId, b: BoxId },
    /// A bursty fault window opens on a channel: for its duration the
    /// burst plan overrides the channel's baseline fault plan.
    BurstStart {
        ch: ChannelId,
        plan: FaultPlan,
        until: SimTime,
    },
}

struct Scheduled {
    ev: Ev,
    /// Causal trace context the event carries (tracing enabled only).
    /// Not part of the ordering, so enabling tracing cannot change the
    /// event schedule — the zero-perturbation guarantee.
    ctx: Option<SpanCtx>,
}

struct Node {
    pb: ProgramBox,
    name: String,
    /// The box processes stimuli serially; this is when it frees up.
    busy_until: SimTime,
    /// Current generation per timer id; stale fires are dropped. Shared
    /// semantics with the tokio runtime via `core::program`.
    timer_gen: TimerGenerations,
    available: bool,
    terminated: bool,
    /// Crashed (between `Ev::Crash` and `Ev::Restart`): all deliveries
    /// and timer fires are lost.
    down: bool,
    /// Retransmission layer, when enabled for this box.
    reliab: Option<Reliability>,
    /// The id the box's next slot gets. Ids count up from 0 and wrap
    /// after `u16::MAX`, reusing the ids of slots closed long before.
    next_slot: u16,
    /// Outgoing routing, indexed by `SlotId.0`, so it never holds more
    /// than 65,536 entries. A slot whose channel closed keeps its index
    /// with `None`.
    routes: Vec<Option<(ChannelId, TunnelId)>>,
}

struct Channel {
    a: BoxId,
    b: BoxId,
    /// Slot ids per tunnel at each end (same length).
    slots_a: Vec<SlotId>,
    slots_b: Vec<SlotId>,
}

/// A live burst window: overrides the channel's baseline fault plan
/// until `until` (inclusive), then expires on its own.
struct BurstState {
    fs: FaultState,
    until: SimTime,
}

/// Normalize an unordered box pair to a canonical map key.
fn pair_key(a: BoxId, b: BoxId) -> (BoxId, BoxId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// One recorded delivery, for debugging and figure generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    pub at: SimTime,
    /// The box whose output caused this delivery, when there is one;
    /// `None` for externally injected inputs (start, user commands,
    /// harness closures).
    pub from: Option<BoxId>,
    pub to: BoxId,
    pub what: String,
}

/// The simulated network of boxes and signaling channels.
pub struct Network {
    cfg: SimConfig,
    /// Boxes indexed by `BoxId.0`; ids are dense and boxes are never
    /// removed.
    nodes: Vec<Node>,
    names: HashMap<String, BoxId>,
    /// Channels indexed by `ChannelId.0`; a closed channel leaves `None`.
    channels: Vec<Option<Channel>>,
    /// Per-channel fault injection; channels absent here are perfect.
    faults: HashMap<ChannelId, FaultState>,
    /// Active partitions, keyed by normalized box pair; flags block the
    /// low→high and high→low directions respectively. A partition gates
    /// every channel between the pair, present and future.
    partitions: HashMap<(BoxId, BoxId), (bool, bool)>,
    /// Active burst windows per channel; consulted before `faults`.
    bursts: HashMap<ChannelId, BurstState>,
    /// Pending events, bucketed by due time. Each bucket is FIFO, so
    /// events due at one instant run in the order they were pushed.
    events: BTreeMap<SimTime, VecDeque<Scheduled>>,
    /// Number of events across all buckets.
    pending: usize,
    now: SimTime,
    pub trace_enabled: bool,
    trace: Vec<TraceEntry>,
    /// Unified observability sink; every protocol event in the simulation
    /// flows through it (the trace above is a thin adapter kept for
    /// figure generation and golden tests).
    obs: Box<dyn Observer + Send>,
    /// Virtual-time clock kept in sync with `now`, so observers that
    /// timestamp (e.g. `RecordingObserver`) see simulation time.
    clock: Arc<ManualClock>,
    /// Causal tracer, when [`Network::enable_tracing`] was called. All
    /// per-event tracing work is gated on this being `Some`; with it
    /// `None` the simulation takes exactly the untraced code path.
    tracer: Option<Tracer>,
}

impl Network {
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            cfg,
            nodes: Vec::new(),
            names: HashMap::new(),
            channels: Vec::new(),
            faults: HashMap::new(),
            partitions: HashMap::new(),
            bursts: HashMap::new(),
            events: BTreeMap::new(),
            pending: 0,
            now: SimTime::ZERO,
            trace_enabled: false,
            trace: Vec::new(),
            obs: Box::new(NoopObserver),
            clock: Arc::new(ManualClock::new()),
            tracer: None,
        }
    }

    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    fn node(&self, id: BoxId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: BoxId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Install an observer; all subsequent simulation activity is reported
    /// to it. The previous observer is returned (a `NoopObserver` box if
    /// none was set).
    pub fn set_observer(&mut self, obs: Box<dyn Observer + Send>) -> Box<dyn Observer + Send> {
        std::mem::replace(&mut self.obs, obs)
    }

    /// The simulation's virtual-time clock (microseconds = `SimTime`).
    /// Hand it to observers that timestamp events.
    pub fn clock(&self) -> Arc<ManualClock> {
        self.clock.clone()
    }

    /// Enable causal tracing into `sink`: every delivery records a
    /// `"transit"` span, every box activation a `"stimulus"` span, and
    /// the trace context rides on scheduled events so per-call causality
    /// survives arbitrary interleaving. Box-layer protocol callbacks
    /// (slot transitions, races, faults, recoveries) become child spans
    /// via a [`ipmedia_obs::TracingObserver`] fanned into the current
    /// observer. Tracing is strictly passive: it changes no event
    /// ordering, no virtual-time arithmetic, and no box behavior.
    pub fn enable_tracing(&mut self, sink: Arc<SpanSink>) -> Tracer {
        let tracer = Tracer::new(sink, self.clock.clone());
        let prev = std::mem::replace(&mut self.obs, Box::new(NoopObserver));
        self.obs = Box::new(Fanout(tracer.observer(), prev));
        self.tracer = Some(tracer.clone());
        tracer
    }

    /// When tracing, close the transit leg (if the activation was caused
    /// by a transmitted event), open the span for this box activation,
    /// point the observer context at it, and return the child context
    /// its outputs should carry.
    #[allow(clippy::too_many_arguments)]
    fn trace_activation(
        &self,
        to: BoxId,
        from: Option<BoxId>,
        ctx: Option<SpanCtx>,
        kind: &'static str,
        label: String,
        start: SimTime,
        done: SimTime,
    ) -> Option<SpanCtx> {
        let tracer = self.tracer.as_ref()?;
        let (trace, parent) = match ctx {
            Some(c) => {
                // A transit span only where something actually traversed
                // the network; timer fires and local follow-ups parent
                // straight to the causing span.
                let p = if from.is_some() {
                    tracer.span(
                        c.trace,
                        Some(c.parent),
                        to.0,
                        from.map(|b| b.0),
                        "transit",
                        label.clone(),
                        c.sent_micros,
                        self.now.0,
                    )
                } else {
                    c.parent
                };
                (c.trace, Some(p))
            }
            None => (tracer.new_trace(), None),
        };
        let sid = tracer.span(trace, parent, to.0, None, kind, label, start.0, done.0);
        tracer.set_current(trace, sid);
        Some(SpanCtx {
            trace,
            parent: sid,
            sent_micros: done.0,
        })
    }

    /// Render the recorded trace as a Fig.-10-style ASCII ladder, one
    /// column per box. Requires `trace_enabled` to have been set before
    /// the events of interest.
    pub fn ladder(&self) -> String {
        // Columns are boxes in id order, so a box's column is its id.
        let col = |b: BoxId| b.0 as usize;
        let columns: Vec<&str> = self.nodes.iter().map(|n| n.name.as_str()).collect();
        let events: Vec<LadderEvent> = self
            .trace
            .iter()
            .map(|t| match t.from {
                Some(f) => LadderEvent::arrow(t.at.0, col(f), col(t.to), t.what.clone()),
                None => LadderEvent::local(t.at.0, col(t.to), t.what.clone()),
            })
            .collect();
        render(&columns, &events)
    }

    /// Add a box running `logic` under a unique `name`. A `Start` input is
    /// scheduled at the current time.
    pub fn add_box(&mut self, name: impl Into<String>, logic: Box<dyn AppLogic>) -> BoxId {
        let name = name.into();
        let id = BoxId(u32::try_from(self.nodes.len()).expect("box ids exhausted"));
        assert!(
            self.names.insert(name.clone(), id).is_none(),
            "duplicate box name {name}"
        );
        self.nodes.push(Node {
            pb: ProgramBox::new(id, logic),
            name,
            busy_until: SimTime::ZERO,
            timer_gen: TimerGenerations::new(),
            available: true,
            terminated: false,
            down: false,
            reliab: None,
            next_slot: 0,
            routes: Vec::new(),
        });
        self.push(
            self.now,
            Ev::Input {
                to: id,
                input: BoxInput::Start,
                from: None,
            },
        );
        id
    }

    /// Mark a box unavailable: channel setup toward it reports
    /// `Peer(Unavailable)` and delivers no far-end `ChannelUp`.
    pub fn set_available(&mut self, id: BoxId, available: bool) {
        self.node_mut(id).available = available;
    }

    /// Install a fault plan on a channel. Signals transmitted on the
    /// channel (in either direction) are subject to the plan from now on;
    /// replacing a plan resets its PRNG stream.
    pub fn set_fault_plan(&mut self, ch: ChannelId, plan: FaultPlan) {
        self.faults.insert(ch, FaultState::new(plan));
    }

    /// Enable the §VI retransmission/recovery layer on a box. Awaits
    /// already outstanding are armed immediately.
    pub fn enable_reliability(&mut self, id: BoxId, cfg: ReliableConfig) {
        self.node_mut(id).reliab = Some(Reliability::new(cfg));
        let now = self.now;
        self.sync_reliability(id, now, None);
    }

    /// Schedule a crash at `at` and the matching restart `down_for` later.
    /// While down the box loses every input and timer fire; its protocol
    /// state survives and its reliability layer re-arms on restart.
    pub fn schedule_crash(&mut self, id: BoxId, at: SimTime, down_for: SimDuration) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, Ev::Crash { to: id });
        self.push(at + down_for, Ev::Restart { to: id });
    }

    /// Schedule a (possibly asymmetric) partition between two boxes at
    /// `at`: blocked directions silently swallow tunnel signals and meta
    /// traffic (each swallowed delivery is observed as a `"partition"`
    /// fault), and channel setup between the pair fails as if the target
    /// were unavailable. The partition covers every channel between the
    /// pair — present and future — and stays in force until a matching
    /// [`Network::schedule_heal`]. `block_ab`/`block_ba` cut the `a`→`b`
    /// and `b`→`a` directions respectively.
    pub fn schedule_partition(
        &mut self,
        at: SimTime,
        a: BoxId,
        b: BoxId,
        block_ab: bool,
        block_ba: bool,
    ) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(
            at,
            Ev::Partition {
                a,
                b,
                block_ab,
                block_ba,
            },
        );
    }

    /// Schedule the removal of any partition between two boxes
    /// (order-insensitive pair).
    pub fn schedule_heal(&mut self, at: SimTime, a: BoxId, b: BoxId) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, Ev::HealPair { a, b });
    }

    /// Schedule a bursty fault window on a channel: from `at` until
    /// `at + duration` the burst `plan` overrides the channel's baseline
    /// fault plan (which resumes, with its PRNG stream intact, when the
    /// burst expires). The burst's own PRNG is seeded from `plan.seed`
    /// and consumed in event order — the same determinism guarantee as
    /// baseline fault plans.
    pub fn schedule_burst(
        &mut self,
        at: SimTime,
        ch: ChannelId,
        plan: FaultPlan,
        duration: SimDuration,
    ) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(
            at,
            Ev::BurstStart {
                ch,
                plan,
                until: at + duration,
            },
        );
    }

    /// Current block flags between two boxes as `(a→b, b→a)`.
    pub fn partition_between(&self, a: BoxId, b: BoxId) -> (bool, bool) {
        let key = pair_key(a, b);
        let (lo_hi, hi_lo) = self.partitions.get(&key).copied().unwrap_or((false, false));
        if a.0 <= b.0 {
            (lo_hi, hi_lo)
        } else {
            (hi_lo, lo_hi)
        }
    }

    /// True iff traffic from `from` to `to` is currently cut.
    fn blocked(&self, from: BoxId, to: BoxId) -> bool {
        self.partition_between(from, to).0
    }

    /// All channels whose endpoints are exactly this box pair (either
    /// orientation), in channel-id order.
    pub fn channels_between(&self, a: BoxId, b: BoxId) -> Vec<ChannelId> {
        let key = pair_key(a, b);
        (0..)
            .zip(&self.channels)
            .filter(|(_, c)| {
                c.as_ref()
                    .is_some_and(|c| pair_key(c.a, c.b) == key && c.a != c.b)
            })
            .map(|(id, _)| ChannelId(id))
            .collect()
    }

    /// True iff every slot of the box has converged (§VI quiescence: no
    /// unanswered open/close/describe).
    pub fn converged(&self, id: BoxId) -> bool {
        reliable::converged(self.node(id).pb.media())
    }

    /// True iff every box in the network has converged.
    pub fn all_converged(&self) -> bool {
        self.nodes.iter().all(|n| reliable::converged(n.pb.media()))
    }

    /// Slots of `id` that exhausted their retries and parked.
    pub fn parked_slots(&self, id: BoxId) -> Vec<SlotId> {
        self.node(id)
            .reliab
            .as_ref()
            .map(|r| r.parked_slots().collect())
            .unwrap_or_default()
    }

    pub fn box_id(&self, name: &str) -> Option<BoxId> {
        self.names.get(name).copied()
    }

    /// Read access to a box's media layer (slots, goals) for assertions.
    pub fn media(&self, id: BoxId) -> &MediaBox {
        self.node(id).pb.media()
    }

    pub fn media_by_name(&self, name: &str) -> &MediaBox {
        self.media(self.box_id(name).expect("known name"))
    }

    /// Create a signaling channel between two existing boxes with `tunnels`
    /// tunnels, delivering `ChannelUp` to both at the current time. Slots
    /// at `a` are channel initiators. Returns (channel, slots at a,
    /// slots at b).
    pub fn connect(
        &mut self,
        a: BoxId,
        b: BoxId,
        tunnels: u16,
    ) -> (ChannelId, Vec<SlotId>, Vec<SlotId>) {
        let ch = self.next_channel_id();
        let slots_a = self.alloc_slots(a, tunnels, true, ch);
        let slots_b = self.alloc_slots(b, tunnels, false, ch);
        self.channels.push(Some(Channel {
            a,
            b,
            slots_a: slots_a.clone(),
            slots_b: slots_b.clone(),
        }));
        self.push(
            self.now,
            Ev::Input {
                to: a,
                input: BoxInput::ChannelUp {
                    channel: ch,
                    slots: slots_a.clone(),
                    req: None,
                },
                from: None,
            },
        );
        self.push(
            self.now,
            Ev::Input {
                to: b,
                input: BoxInput::ChannelUp {
                    channel: ch,
                    slots: slots_b.clone(),
                    req: None,
                },
                from: None,
            },
        );
        (ch, slots_a, slots_b)
    }

    /// The id the next channel gets; the caller pushes the channel
    /// before allocating another.
    fn next_channel_id(&self) -> ChannelId {
        ChannelId(u32::try_from(self.channels.len()).expect("channel ids exhausted"))
    }

    fn alloc_slots(
        &mut self,
        owner: BoxId,
        tunnels: u16,
        initiator: bool,
        ch: ChannelId,
    ) -> Vec<SlotId> {
        let node = self.node_mut(owner);
        let mut out = Vec::with_capacity(tunnels as usize);
        for t in 0..tunnels {
            let sid = SlotId(node.next_slot);
            node.next_slot = node.next_slot.wrapping_add(1);
            node.pb.media_mut().add_slot(sid, initiator);
            let route = Some((ch, TunnelId(t)));
            match node.routes.get_mut(usize::from(sid.0)) {
                Some(r) => *r = route,
                None => node.routes.push(route),
            }
            out.push(sid);
        }
        out
    }

    /// Inject a user command at the current time (as if the human acted).
    pub fn user(&mut self, to: BoxId, slot: SlotId, cmd: UserCmd) {
        self.push(self.now, Ev::User { to, slot, cmd });
    }

    /// Inject an arbitrary input at the current time. Used by tests and
    /// scenario drivers to deliver application meta-signals (feature
    /// commands like "switch to call 2") as if a peer had sent them.
    pub fn inject_input(&mut self, to: BoxId, input: BoxInput) {
        self.push(
            self.now,
            Ev::Input {
                to,
                input,
                from: None,
            },
        );
    }

    /// Inject a closure over a box at the current time; used by test
    /// harnesses and benchmarks to drive goal re-annotations directly.
    pub fn apply<F>(&mut self, to: BoxId, f: F)
    where
        F: FnOnce(&mut ProgramBox) -> Vec<BoxCmd> + Send + 'static,
    {
        self.push(self.now, Ev::Apply { to, f: Box::new(f) });
    }

    /// Schedule a closure at an absolute virtual time.
    pub fn apply_at<F>(&mut self, at: SimTime, to: BoxId, f: F)
    where
        F: FnOnce(&mut ProgramBox) -> Vec<BoxCmd> + Send + 'static,
    {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, Ev::Apply { to, f: Box::new(f) });
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        self.push_traced(at, ev, None);
    }

    fn push_traced(&mut self, at: SimTime, ev: Ev, ctx: Option<SpanCtx>) {
        self.events
            .entry(at)
            .or_default()
            .push_back(Scheduled { ev, ctx });
        self.pending += 1;
    }

    /// Due time of the earliest pending event.
    fn next_due(&self) -> Option<SimTime> {
        self.events.first_key_value().map(|(&at, _)| at)
    }

    /// Process one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(mut bucket) = self.events.first_entry() else {
            return false;
        };
        let at = *bucket.key();
        let sch = bucket
            .get_mut()
            .pop_front()
            .expect("buckets are never empty");
        if bucket.get().is_empty() {
            bucket.remove();
        }
        self.pending -= 1;
        debug_assert!(at >= self.now);
        self.now = at;
        self.clock.set(self.now.0);
        if let Some(t) = &self.tracer {
            // Contexts never leak across events: anything observed outside
            // an activation (crash faults, say) is deliberately unparented.
            t.clear_current();
        }
        let ctx = sch.ctx;
        match sch.ev {
            Ev::Input { to, input, from } => self.deliver(to, input, from, ctx),
            Ev::TimerFire { to, id, gen } => {
                let Some(node) = self.nodes.get(to.0 as usize) else {
                    return true;
                };
                if node.down || !node.timer_gen.is_current(id, gen) {
                    return true;
                }
                if node.reliab.is_some() && reliable::timer_slot(id).is_some() {
                    self.retransmit_fire(to, id, ctx);
                } else {
                    self.deliver(to, BoxInput::Timer(id), None, ctx);
                }
            }
            Ev::User { to, slot, cmd } => {
                let Some(node) = self.nodes.get_mut(to.0 as usize) else {
                    return true;
                };
                if node.terminated {
                    return true;
                }
                let start = self.now.max(node.busy_until);
                let done = start + self.cfg.compute_cost;
                node.busy_until = done;
                let child = if self.tracer.is_some() {
                    self.trace_activation(
                        to,
                        None,
                        None,
                        "stimulus",
                        format!("user {cmd:?} s{}", slot.0),
                        start,
                        done,
                    )
                } else {
                    None
                };
                let node = &mut self.nodes[to.0 as usize];
                self.obs.stimulus(to.0, "user");
                match node.pb.media_mut().user_obs(slot, cmd, &mut self.obs) {
                    Ok(out) => {
                        let cmds: Vec<BoxCmd> = out.into_iter().map(BoxCmd::Signal).collect();
                        self.execute(to, done, cmds, child);
                    }
                    Err(e) => panic!("user command failed on {to}: {e}"),
                }
            }
            Ev::Apply { to, f } => {
                let Some(node) = self.nodes.get_mut(to.0 as usize) else {
                    return true;
                };
                let start = self.now.max(node.busy_until);
                let done = start + self.cfg.compute_cost;
                node.busy_until = done;
                let child = if self.tracer.is_some() {
                    self.trace_activation(to, None, ctx, "stimulus", "apply".into(), start, done)
                } else {
                    None
                };
                let node = &mut self.nodes[to.0 as usize];
                self.obs.stimulus(to.0, "apply");
                let cmds = f(&mut node.pb);
                self.execute(to, done, cmds, child);
            }
            Ev::Crash { to } => {
                if let Some(node) = self.nodes.get_mut(to.0 as usize) {
                    node.down = true;
                    self.obs.fault_injected(to.0, "crash");
                }
            }
            Ev::Restart { to } => {
                if let Some(node) = self.nodes.get_mut(to.0 as usize) {
                    if !node.down {
                        return true;
                    }
                    node.down = false;
                    // Fires swallowed while down never come back, so the
                    // reliability layer restarts from scratch and re-arms
                    // every outstanding await.
                    if let Some(rel) = node.reliab.as_ref() {
                        let cfg = *rel.config();
                        node.reliab = Some(Reliability::new(cfg));
                    }
                    self.obs.fault_injected(to.0, "restart");
                    let now = self.now;
                    self.sync_reliability(to, now, None);
                }
            }
            Ev::Partition {
                a,
                b,
                block_ab,
                block_ba,
            } => {
                let key = pair_key(a, b);
                let flags = if a.0 <= b.0 {
                    (block_ab, block_ba)
                } else {
                    (block_ba, block_ab)
                };
                self.partitions.insert(key, flags);
            }
            Ev::HealPair { a, b } => {
                self.partitions.remove(&pair_key(a, b));
            }
            Ev::BurstStart { ch, plan, until } => {
                self.bursts.insert(
                    ch,
                    BurstState {
                        fs: FaultState::new(plan),
                        until,
                    },
                );
            }
        }
        true
    }

    fn deliver(&mut self, to: BoxId, input: BoxInput, from: Option<BoxId>, ctx: Option<SpanCtx>) {
        let Some(node) = self.nodes.get_mut(to.0 as usize) else {
            return; // no such box
        };
        if node.terminated || node.down {
            return; // crashed boxes lose their inputs
        }
        // Drop tunnel signals whose slot no longer exists (channel died
        // while the signal was in flight).
        if let BoxInput::Tunnel { slot, .. } = &input {
            if node.pb.media().slot(*slot).is_none() {
                return;
            }
        }
        // Reliability re-ack: a duplicate open hitting a flowing acceptor
        // means the original oack/select may have been lost; the slot will
        // ignore the duplicate, so re-emit the cached acknowledgement.
        let mut reack = Vec::new();
        if node.reliab.is_some() {
            if let BoxInput::Tunnel { slot, signal } = &input {
                if let Some(s) = node.pb.media().slot(*slot) {
                    let sigs = reliable::reack_signals(s, signal);
                    if !sigs.is_empty() {
                        let slot = *slot;
                        reack.extend(
                            sigs.into_iter()
                                .map(|signal| BoxCmd::Signal(Outgoing { slot, signal })),
                        );
                        self.obs.retransmission(to.0, slot.0, "reack");
                    }
                }
            }
        }
        if self.trace_enabled {
            let what = match &input {
                BoxInput::Tunnel { slot, signal } => format!("{slot}:{}", signal.kind()),
                other => format!("{other:?}"),
            };
            self.trace.push(TraceEntry {
                at: self.now,
                from,
                to,
                what,
            });
        }
        if let BoxInput::Meta { channel, meta } = &input {
            self.obs.meta_signal(to.0, channel.0, meta.kind());
        }
        let start = self.now.max(node.busy_until);
        let done = start + self.cfg.compute_cost;
        node.busy_until = done;
        let child = if self.tracer.is_some() {
            let label = match &input {
                BoxInput::Tunnel { slot, signal } => {
                    // The commonest stimulus: one allocation sized for the
                    // longest label, where `format!` would grow its buffer.
                    let mut label = String::with_capacity(24);
                    let _ = write!(label, "?{} s{}", signal.kind(), slot.0);
                    label
                }
                BoxInput::Timer(_) => "timer".to_string(),
                BoxInput::Meta { meta, .. } => format!("meta {}", meta.kind()),
                BoxInput::ChannelUp { channel, .. } => format!("channel_up ch{}", channel.0),
                BoxInput::Start => "start".to_string(),
                other => format!("{other:?}"),
            };
            self.trace_activation(to, from, ctx, "stimulus", label, start, done)
        } else {
            None
        };
        let node = &mut self.nodes[to.0 as usize];
        let mut cmds = node.pb.handle_obs(input, &mut self.obs);
        cmds.extend(reack);
        self.execute(to, done, cmds, child);
    }

    /// Execute the commands a box produced; its outputs leave at `done`.
    fn execute(&mut self, from: BoxId, done: SimTime, cmds: Vec<BoxCmd>, ctx: Option<SpanCtx>) {
        for cmd in cmds {
            match cmd {
                BoxCmd::Signal(out) => {
                    let Some((ch, tunnel)) = self.route(from, out.slot) else {
                        continue; // channel died under us
                    };
                    let Some(channel) = self.channel(ch) else {
                        continue;
                    };
                    let (peer, peer_slot) = peer_of(channel, from, tunnel);
                    // If the peer never came up (unavailable target), the
                    // signal vanishes into the void.
                    if peer.0 as usize >= self.nodes.len() {
                        continue;
                    }
                    // The routing layer is the one place every transmitted
                    // signal passes through (logic-driven, user-driven, and
                    // harness-injected alike), so sends are observed here.
                    self.obs.signal_sent(from.0, out.slot.0, out.signal.kind());
                    // An active partition swallows the signal before the
                    // channel's fault plan gets a say.
                    if self.blocked(from, peer) {
                        self.obs.fault_injected(from.0, "partition");
                        continue;
                    }
                    // A live burst window overrides the channel's baseline
                    // fault plan; perfect channels take the clean
                    // single-copy path. Expired bursts are reaped lazily
                    // here so the baseline plan resumes.
                    if self.bursts.get(&ch).is_some_and(|b| done > b.until) {
                        self.bursts.remove(&ch);
                    }
                    let fate = if let Some(b) = self.bursts.get_mut(&ch) {
                        b.fs.fate()
                    } else {
                        match self.faults.get_mut(&ch) {
                            Some(f) => f.fate(),
                            None => SendFate::clean(),
                        }
                    };
                    match fate {
                        SendFate::Dropped => {
                            self.obs.fault_injected(from.0, "drop");
                        }
                        SendFate::Deliver(copies) => {
                            // The payload is moved into the final copy;
                            // only a fault-injected duplicate pays for a
                            // clone, so the clean single-copy path (all of
                            // a storm's traffic on perfect channels) stays
                            // allocation-free per delivery.
                            let last = copies.len() - 1;
                            let mut signal = Some(out.signal);
                            for (i, copy) in copies.into_iter().enumerate() {
                                for kind in copy.labels() {
                                    self.obs.fault_injected(from.0, kind);
                                }
                                let signal = if i == last {
                                    signal.take().expect("one take per copy")
                                } else {
                                    signal.as_ref().expect("kept until last").clone()
                                };
                                self.push_traced(
                                    done + self.cfg.net_latency + copy.extra_delay,
                                    Ev::Input {
                                        to: peer,
                                        input: BoxInput::Tunnel {
                                            slot: peer_slot,
                                            signal,
                                        },
                                        from: Some(from),
                                    },
                                    ctx,
                                );
                            }
                        }
                    }
                }
                BoxCmd::Meta { channel, meta } => {
                    let Some(chan) = self.channel(channel) else {
                        continue;
                    };
                    let peer = if chan.a == from { chan.b } else { chan.a };
                    // Meta traffic rides the same links, so a partition
                    // swallows it too.
                    if peer != from && self.blocked(from, peer) {
                        self.obs.fault_injected(from.0, "partition");
                        continue;
                    }
                    self.push_traced(
                        done + self.cfg.net_latency,
                        Ev::Input {
                            to: peer,
                            input: BoxInput::Meta { channel, meta },
                            from: Some(from),
                        },
                        ctx,
                    );
                }
                BoxCmd::OpenChannel { to, tunnels, req } => {
                    self.open_channel(from, &to, tunnels, req, done, ctx);
                }
                BoxCmd::CloseChannel(ch) => self.close_channel(from, ch, done),
                BoxCmd::SetTimer { id, after_ms } => {
                    let gen = self.node_mut(from).timer_gen.arm(id);
                    self.push_traced(
                        done + SimDuration::from_millis(after_ms),
                        Ev::TimerFire { to: from, id, gen },
                        ctx,
                    );
                }
                BoxCmd::CancelTimer(id) => self.node_mut(from).timer_gen.cancel(id),
                BoxCmd::Terminate => self.node_mut(from).terminated = true,
            }
        }
        // Any activity can create or resolve awaits; reconcile the box's
        // retransmission timers with its new slot state. The nested
        // `execute` below only ever carries timer commands, so recursion
        // stops at the second (no-change) sync.
        self.sync_reliability(from, done, ctx);
    }

    /// Reconcile a box's reliability layer with its slot state: cancel
    /// timers for resolved awaits (reporting recoveries), arm timers for
    /// new ones.
    fn sync_reliability(&mut self, id: BoxId, done: SimTime, ctx: Option<SpanCtx>) {
        let now_ms = self.now.0 / 1_000;
        let node = self.node_mut(id);
        let Some(rel) = node.reliab.as_mut() else {
            return;
        };
        let (cmds, recoveries) = rel.sync(node.pb.media(), now_ms);
        for r in &recoveries {
            self.obs.recovered(id.0, r.slot.0, r.attempts, r.elapsed_ms);
        }
        if !cmds.is_empty() {
            self.execute(id, done, cmds, ctx);
        }
    }

    /// A retransmission timer fired: re-emit the slot's cached signals and
    /// re-arm with backoff, or park the slot once retries are exhausted.
    fn retransmit_fire(&mut self, to: BoxId, id: TimerId, ctx: Option<SpanCtx>) {
        let node = &mut self.nodes[to.0 as usize];
        if node.terminated || node.down {
            return;
        }
        let Some(rel) = node.reliab.as_mut() else {
            return;
        };
        let Some(action) = rel.on_timer(node.pb.media(), id) else {
            return;
        };
        match action {
            TimerAction::Stale | TimerAction::Parked { .. } => {}
            TimerAction::Resend {
                slot,
                signals,
                rearm_ms,
            } => {
                // Retransmission costs a stimulus like any other activity.
                let start = self.now.max(node.busy_until);
                let done = start + self.cfg.compute_cost;
                node.busy_until = done;
                let kind = signals.first().map(|s| s.kind()).unwrap_or("resend");
                let child = if self.tracer.is_some() {
                    // The episode span parents to the stimulus that armed
                    // the timer, keeping the whole recovery in one trace.
                    self.trace_activation(
                        to,
                        None,
                        ctx,
                        "retransmission",
                        format!("resend {kind} s{}", slot.0),
                        start,
                        done,
                    )
                } else {
                    None
                };
                self.obs.stimulus(to.0, "retransmit");
                self.obs.retransmission(to.0, slot.0, kind);
                let mut cmds: Vec<BoxCmd> = signals
                    .into_iter()
                    .map(|signal| BoxCmd::Signal(Outgoing { slot, signal }))
                    .collect();
                cmds.push(BoxCmd::SetTimer {
                    id,
                    after_ms: rearm_ms,
                });
                self.execute(to, done, cmds, child);
            }
        }
    }

    fn open_channel(
        &mut self,
        from: BoxId,
        to_name: &str,
        tunnels: u16,
        req: u32,
        done: SimTime,
        ctx: Option<SpanCtx>,
    ) {
        let target = self.names.get(to_name).copied();
        // Channel setup is a round trip, so a partition in either
        // direction makes the target as unreachable as an unavailable one.
        let available = target
            .map(|t| {
                let (ab, ba) = self.partition_between(from, t);
                self.node(t).available && !ab && !ba
            })
            .unwrap_or(false);
        let ch = self.next_channel_id();
        let slots_from = self.alloc_slots(from, tunnels, true, ch);

        // One-way setup message + acknowledgement: the requester learns the
        // outcome after a round trip.
        let up_at = done + self.cfg.net_latency + self.cfg.net_latency;
        // Tunnel setup gets its own interval span covering the round trip;
        // the ChannelUp/Meta deliveries parent under it so latency
        // attribution can separate signaling from propagation.
        let child = match (&self.tracer, ctx) {
            (Some(tracer), Some(c)) => {
                let sid = tracer.span(
                    c.trace,
                    Some(c.parent),
                    from.0,
                    None,
                    "tunnel_setup",
                    format!("open_channel {to_name}"),
                    done.0,
                    up_at.0,
                );
                Some(SpanCtx {
                    trace: c.trace,
                    parent: sid,
                    sent_micros: done.0,
                })
            }
            _ => None,
        };
        if let (Some(target), true) = (target, available) {
            let slots_to = self.alloc_slots(target, tunnels, false, ch);
            self.channels.push(Some(Channel {
                a: from,
                b: target,
                slots_a: slots_from.clone(),
                slots_b: slots_to.clone(),
            }));
            self.push_traced(
                done + self.cfg.net_latency,
                Ev::Input {
                    to: target,
                    input: BoxInput::ChannelUp {
                        channel: ch,
                        slots: slots_to,
                        req: None,
                    },
                    from: Some(from),
                },
                child,
            );
            self.push_traced(
                up_at,
                Ev::Input {
                    to: from,
                    input: BoxInput::ChannelUp {
                        channel: ch,
                        slots: slots_from,
                        req: Some(req),
                    },
                    from: Some(target),
                },
                child,
            );
            self.push_traced(
                up_at,
                Ev::Input {
                    to: from,
                    input: BoxInput::Meta {
                        channel: ch,
                        meta: MetaSignal::Peer(Availability::Available),
                    },
                    from: Some(target),
                },
                child,
            );
        } else {
            // Target missing or unavailable: a half-open channel the
            // requester can observe and destroy (Fig. 6's busy branch).
            self.channels.push(Some(Channel {
                a: from,
                b: from, // no far end; peer lookups resolve to self and
                // are suppressed by the empty slots_b
                slots_a: slots_from.clone(),
                slots_b: Vec::new(),
            }));
            self.push_traced(
                up_at,
                Ev::Input {
                    to: from,
                    input: BoxInput::ChannelUp {
                        channel: ch,
                        slots: slots_from,
                        req: Some(req),
                    },
                    from: None,
                },
                child,
            );
            self.push_traced(
                up_at,
                Ev::Input {
                    to: from,
                    input: BoxInput::Meta {
                        channel: ch,
                        meta: MetaSignal::Peer(Availability::Unavailable),
                    },
                    from: None,
                },
                child,
            );
        }
    }

    fn close_channel(&mut self, from: BoxId, ch: ChannelId, done: SimTime) {
        // Only an end of the channel may close it; a request from any
        // other box is ignored.
        let Some(entry) = self
            .channels
            .get_mut(ch.0 as usize)
            .filter(|c| c.as_ref().is_some_and(|c| c.a == from || c.b == from))
        else {
            return;
        };
        let channel = entry.take().expect("checked above");
        // Remove local slots now; notify and remove the peer's after n.
        let (local_slots, peer, peer_slots) = if channel.a == from {
            (channel.slots_a, channel.b, channel.slots_b)
        } else {
            (channel.slots_b, channel.a, channel.slots_a)
        };
        let node = self.node_mut(from);
        for s in &local_slots {
            node.pb.media_mut().remove_slot(*s);
            node.routes[s.0 as usize] = None;
        }
        if peer != from && !peer_slots.is_empty() {
            // Schedule the far-end teardown: the peer's slots stop routing
            // now and die when the closure below delivers ChannelDown.
            let node = self.node_mut(peer);
            for s in &peer_slots {
                node.routes[s.0 as usize] = None;
            }
            let slots = peer_slots;
            self.push(
                done + self.cfg.net_latency,
                Ev::Apply {
                    to: peer,
                    f: Box::new(move |pb: &mut ProgramBox| {
                        for s in &slots {
                            pb.media_mut().remove_slot(*s);
                        }
                        pb.handle(BoxInput::ChannelDown { channel: ch })
                    }),
                },
            );
        }
    }

    /// Run until the event queue is empty or virtual time exceeds `max`.
    /// Returns the final virtual time.
    pub fn run_until_quiescent(&mut self, max: SimTime) -> SimTime {
        while self.next_due().is_some_and(|at| at <= max) {
            self.step();
        }
        self.now
    }

    /// Step until `pred` holds (checked after every event) or the queue
    /// empties / `max` is exceeded. Returns true iff the predicate held.
    pub fn run_until<F: FnMut(&Network) -> bool>(&mut self, max: SimTime, mut pred: F) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            match self.next_due() {
                Some(at) if at <= max => {
                    self.step();
                }
                _ => return false,
            }
        }
    }

    /// The virtual time at which a box finishes its current processing:
    /// outputs computed during the event being handled leave at this time.
    /// Latency measurements use it as the completion instant of the state
    /// change observed by a `run_until` predicate.
    pub fn busy_until(&self, id: BoxId) -> SimTime {
        self.node(id).busy_until
    }

    /// Advance virtual time with nothing happening (boxes go idle). Only
    /// legal when no events are pending; used to separate setup from a
    /// measured phase so setup compute time does not queue-delay it.
    pub fn advance(&mut self, d: SimDuration) {
        assert_eq!(self.pending, 0, "advance requires a quiescent network");
        self.now += d;
    }

    /// Names and ids of all boxes, in id order.
    pub fn boxes(&self) -> Vec<(BoxId, String)> {
        (0..)
            .zip(&self.nodes)
            .map(|(id, n)| (BoxId(id), n.name.clone()))
            .collect()
    }

    /// Count of pending events (for quiescence checks in tests).
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// The live channel with this id.
    fn channel(&self, ch: ChannelId) -> Option<&Channel> {
        self.channels.get(ch.0 as usize)?.as_ref()
    }

    /// Where a box's slot routes to, while its channel is open.
    fn route(&self, from: BoxId, slot: SlotId) -> Option<(ChannelId, TunnelId)> {
        *self
            .nodes
            .get(from.0 as usize)?
            .routes
            .get(slot.0 as usize)?
    }
}

fn peer_of(channel: &Channel, from: BoxId, tunnel: TunnelId) -> (BoxId, SlotId) {
    let t = tunnel.0 as usize;
    if channel.a == from {
        (
            channel.b,
            channel.slots_b.get(t).copied().unwrap_or(SlotId(u16::MAX)),
        )
    } else {
        (
            channel.a,
            channel.slots_a.get(t).copied().unwrap_or(SlotId(u16::MAX)),
        )
    }
}

/// Extract one tunnel signal destination for `Signal` commands; used by
/// tests needing visibility into routing.
pub fn route_of(net: &Network, from: BoxId, slot: SlotId) -> Option<(ChannelId, TunnelId)> {
    net.route(from, slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::endpoint::NullLogic;
    use ipmedia_core::program::Ctx;
    use ipmedia_core::signal::Signal;
    use std::sync::Mutex;

    type Log = Arc<Mutex<Vec<String>>>;

    /// Logs every timer it is handed, tagged with its own name.
    struct TimerLog(&'static str, Log);

    impl AppLogic for TimerLog {
        fn handle(&mut self, input: &BoxInput, _ctx: &mut Ctx<'_>) {
            if let BoxInput::Timer(id) = input {
                self.1
                    .lock()
                    .unwrap()
                    .push(format!("{}:timer{}", self.0, id.0));
            }
        }
    }

    /// A closure that logs `tag` when dispatched and sets a zero-delay
    /// timer, whose fire is pushed onto the instant being dispatched.
    fn logging(
        log: &Log,
        tag: &'static str,
        timer: u32,
    ) -> impl FnOnce(&mut ProgramBox) -> Vec<BoxCmd> + Send + 'static {
        let log = log.clone();
        move |_| {
            log.lock().unwrap().push(tag.to_string());
            vec![BoxCmd::SetTimer {
                id: TimerId(timer),
                after_ms: 0,
            }]
        }
    }

    fn close_on(net: &mut Network, from: BoxId, slot: SlotId) {
        net.apply(from, move |_| {
            vec![BoxCmd::Signal(Outgoing {
                slot,
                signal: Signal::Close,
            })]
        });
    }

    fn tunnel_deliveries(net: &Network) -> Vec<(Option<BoxId>, BoxId, String)> {
        net.trace()
            .iter()
            .filter(|t| t.what.starts_with("slot"))
            .map(|t| (t.from, t.to, t.what.clone()))
            .collect()
    }

    #[test]
    fn same_instant_events_dispatch_in_push_order() {
        let log: Log = Arc::default();
        let mut net = Network::new(SimConfig::instant());
        let boxes: Vec<BoxId> = ["b0", "b1", "b2"]
            .into_iter()
            .map(|n| net.add_box(n, Box::new(TimerLog(n, log.clone()))))
            .collect();
        net.run_until_quiescent(SimTime::ZERO);
        let (t1, t2) = (SimTime(1_000), SimTime(2_000));
        // Pushes interleave two instants and three boxes; the later
        // instant is pushed first.
        net.apply_at(t2, boxes[1], logging(&log, "t2-first", 10));
        net.apply_at(t1, boxes[2], logging(&log, "t1-first", 20));
        net.apply_at(t2, boxes[0], logging(&log, "t2-second", 11));
        net.apply_at(t1, boxes[0], logging(&log, "t1-second", 21));
        net.apply_at(t1, boxes[1], logging(&log, "t1-third", 22));
        net.apply_at(t2, boxes[2], logging(&log, "t2-third", 12));
        assert_eq!(net.pending_events(), 6);
        net.run_until_quiescent(SimTime(10_000));
        assert_eq!(net.pending_events(), 0);
        // Timer fires pushed while an instant is dispatched join the back
        // of that instant, behind everything already due then.
        let want = [
            "t1-first",
            "t1-second",
            "t1-third",
            "b2:timer20",
            "b0:timer21",
            "b1:timer22",
            "t2-first",
            "t2-second",
            "t2-third",
            "b1:timer10",
            "b0:timer11",
            "b2:timer12",
        ];
        assert_eq!(*log.lock().unwrap(), want);
    }

    #[test]
    fn signal_on_a_closed_channel_is_dropped() {
        let mut net = Network::new(SimConfig::paper());
        let a = net.add_box("a", Box::new(NullLogic));
        let b = net.add_box("b", Box::new(NullLogic));
        let (ch, sa, sb) = net.connect(a, b, 1);
        net.run_until_quiescent(SimTime(1_000_000));
        net.trace_enabled = true;
        net.apply(a, move |_| vec![BoxCmd::CloseChannel(ch)]);
        net.step();
        // Both ends stop routing at once; the far end's slot dies when
        // the teardown reaches it.
        assert_eq!(route_of(&net, a, sa[0]), None);
        assert_eq!(route_of(&net, b, sb[0]), None);
        assert!(net.media(a).slot(sa[0]).is_none());
        assert!(net.media(b).slot(sb[0]).is_some());
        close_on(&mut net, b, sb[0]);
        close_on(&mut net, a, sa[0]);
        net.run_until_quiescent(SimTime(2_000_000));
        assert!(net.media(b).slot(sb[0]).is_none());
        assert_eq!(net.channels_between(a, b), vec![]);
        assert_eq!(tunnel_deliveries(&net), vec![]);
    }

    #[test]
    fn slots_allocated_after_a_close_route_to_their_peer() {
        let mut net = Network::new(SimConfig::paper());
        let a = net.add_box("a", Box::new(NullLogic));
        let b = net.add_box("b", Box::new(NullLogic));
        let c = net.add_box("c", Box::new(NullLogic));
        let (ch0, sa0, _) = net.connect(a, b, 2);
        net.run_until_quiescent(SimTime(1_000_000));
        net.apply(a, move |_| vec![BoxCmd::CloseChannel(ch0)]);
        net.run_until_quiescent(SimTime(2_000_000));
        assert_eq!(route_of(&net, a, sa0[1]), None);

        let (ch1, sa1, sc1) = net.connect(a, c, 1);
        let (ch2, sa2, sb2) = net.connect(a, b, 2);
        // Slot ids keep counting past the closed channel's.
        assert_eq!(sa1, vec![SlotId(2)]);
        assert_eq!(sa2, vec![SlotId(3), SlotId(4)]);
        assert_eq!(sb2, vec![SlotId(2), SlotId(3)]);
        assert_eq!(route_of(&net, a, sa1[0]), Some((ch1, TunnelId(0))));
        assert_eq!(route_of(&net, a, sa2[1]), Some((ch2, TunnelId(1))));
        assert_eq!(route_of(&net, b, sb2[0]), Some((ch2, TunnelId(0))));
        net.run_until_quiescent(SimTime(3_000_000));

        net.trace_enabled = true;
        close_on(&mut net, a, sa1[0]);
        close_on(&mut net, a, sa2[1]);
        net.run_until_quiescent(SimTime(4_000_000));
        let to_peers: Vec<_> = tunnel_deliveries(&net)
            .into_iter()
            .filter(|(from, _, _)| *from == Some(a))
            .map(|(_, to, what)| (to, what))
            .collect();
        assert_eq!(
            to_peers,
            vec![
                (c, format!("{}:close", sc1[0])),
                (b, format!("{}:close", sb2[1])),
            ]
        );
    }

    #[test]
    fn boxes_and_channels_list_in_ascending_id_order() {
        let mut net = Network::new(SimConfig::instant());
        let z = net.add_box("z", Box::new(NullLogic));
        let m = net.add_box("m", Box::new(NullLogic));
        let a = net.add_box("a", Box::new(NullLogic));
        assert_eq!(
            net.boxes(),
            vec![(z, "z".into()), (m, "m".into()), (a, "a".into())]
        );
        assert_eq!((z, m, a), (BoxId(0), BoxId(1), BoxId(2)));

        let (c0, ..) = net.connect(m, z, 1);
        let (c1, ..) = net.connect(z, a, 1);
        let (c2, ..) = net.connect(z, m, 1);
        let (c3, ..) = net.connect(m, z, 1);
        net.run_until_quiescent(SimTime(1_000));
        assert_eq!(net.channels_between(z, m), vec![c0, c2, c3]);
        assert_eq!(net.channels_between(m, z), vec![c0, c2, c3]);
        assert_eq!(net.channels_between(a, z), vec![c1]);
        net.apply(z, move |_| vec![BoxCmd::CloseChannel(c2)]);
        net.run_until_quiescent(SimTime(2_000));
        assert_eq!(net.channels_between(m, z), vec![c0, c3]);
    }

    #[test]
    fn a_box_off_the_channel_cannot_close_it() {
        let mut net = Network::new(SimConfig::paper());
        let a = net.add_box("a", Box::new(NullLogic));
        let b = net.add_box("b", Box::new(NullLogic));
        let c = net.add_box("c", Box::new(NullLogic));
        // `c` has no slots, while the channel's slot ids on `b` are past
        // any `c` could index.
        let _ = net.connect(a, b, 3);
        let (ch, sa, sb) = net.connect(a, b, 2);
        net.run_until_quiescent(SimTime(1_000_000));
        net.apply(c, move |_| vec![BoxCmd::CloseChannel(ch)]);
        net.run_until_quiescent(SimTime(2_000_000));
        assert_eq!(route_of(&net, a, sa[1]), Some((ch, TunnelId(1))));
        assert_eq!(route_of(&net, b, sb[1]), Some((ch, TunnelId(1))));
        assert!(net.media(b).slot(sb[1]).is_some());
        assert_eq!(net.channels_between(a, b).len(), 2);
    }

    #[test]
    fn slot_ids_wrap_and_reuse_the_ids_of_closed_slots() {
        let mut net = Network::new(SimConfig::paper());
        let a = net.add_box("a", Box::new(NullLogic));
        let b = net.add_box("b", Box::new(NullLogic));
        let c = net.add_box("c", Box::new(NullLogic));
        let (ch0, sa0, _) = net.connect(a, b, u16::MAX);
        assert_eq!(sa0.last(), Some(&SlotId(u16::MAX - 1)));
        net.run_until_quiescent(SimTime(1_000_000));
        net.apply(a, move |_| vec![BoxCmd::CloseChannel(ch0)]);
        net.run_until_quiescent(SimTime(2_000_000));

        let (ch1, sa1, sc1) = net.connect(a, c, 2);
        assert_eq!(sa1, vec![SlotId(u16::MAX), SlotId(0)]);
        assert_eq!(route_of(&net, a, SlotId(0)), Some((ch1, TunnelId(1))));
        assert_eq!(route_of(&net, a, SlotId(1)), None);
        net.run_until_quiescent(SimTime(3_000_000));
        net.trace_enabled = true;
        close_on(&mut net, a, SlotId(0));
        net.run_until_quiescent(SimTime(4_000_000));
        assert_eq!(
            tunnel_deliveries(&net),
            vec![
                (Some(a), c, format!("{}:close", sc1[1])),
                (Some(c), a, format!("{}:closeack", sa1[1])),
            ]
        );
    }
}
