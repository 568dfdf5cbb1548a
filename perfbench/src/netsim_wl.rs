//! Workloads `netsim_storm` and `netsim_lossy`: the `bench::storm` call
//! mix opened at one virtual instant in one `Network`, then the feature
//! phase and the hold + relink flowlink excursion. The lossy variant puts a
//! seeded `FaultPlan` on every channel and the §VI reliability layer on
//! every box.
//!
//! The benchmark drives `Network::step()` itself, so it can count events,
//! sample the queue and, for each call, note the wall instant at which the
//! simulation passed the call's virtual completion: the open-loop latency
//! of a call that was due at the burst's start.

use crate::layers::{self, Tally, TimedLogic, TimedObserver};
use crate::report::{rounds, Outcome, INPUT_KINDS, SIGNAL_KINDS, STIMULUS_KINDS};
use crate::stats::{median, Samples};
use crate::sys;
use ipmedia_bench::storm::{generate_storm, CallPlan, StormSpec};
use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::{EndpointLogic, NullLogic};
use ipmedia_core::goal::{EndpointPolicy, Policy, UserCmd};
use ipmedia_core::ids::{BoxId, ChannelId, SlotId};
use ipmedia_core::path::EndGoal;
use ipmedia_core::program::AppLogic;
use ipmedia_core::{BoxCmd, MediaAddr, Medium, ReliableConfig};
use ipmedia_netsim::{FaultPlan, Network, SimConfig, SimDuration, SimTime};
use ipmedia_obs::metrics::{CountingObserver, MetricsSnapshot, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Calls in one `netsim_storm` round: tens of thousands opened at once,
/// about 250 MB of simulator state.
pub const STORM_CALLS: usize = 20_000;
/// Calls in one `netsim_lossy` round: timers and retransmissions make a
/// call about twice as costly, so fewer keep a round to a few seconds.
pub const LOSSY_CALLS: usize = 10_000;
/// Per-channel drop, duplicate and reorder probability of the lossy storm.
pub const LOSS: f64 = 0.03;

const T_MAX: SimTime = SimTime(3_600_000_000);

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub calls: usize,
    pub lossy: bool,
}

struct Call {
    plan: CallPlan,
    l: BoxId,
    r: BoxId,
    l_slot: SlotId,
    r_slot: SlotId,
    relays: Vec<(BoxId, SlotId, SlotId)>,
    l_addr: MediaAddr,
    r_addr: MediaAddr,
    established: bool,
}

fn both_flowing(net: &Network, c: &Call) -> bool {
    match (net.media(c.l).slot(c.l_slot), net.media(c.r).slot(c.r_slot)) {
        (Some(sl), Some(sr)) => {
            sl.tx_route().map(|(to, _)| to) == Some(c.r_addr)
                && sr.tx_route().map(|(to, _)| to) == Some(c.l_addr)
        }
        _ => false,
    }
}

/// Steps the network to quiescence, counting events; in traced rounds it
/// also times each step and samples the queue length.
struct Stepper {
    traced: bool,
    steps: u64,
    step_ns: u64,
    queue_peak: usize,
}

impl Stepper {
    fn new(traced: bool) -> Self {
        Self {
            traced,
            steps: 0,
            step_ns: 0,
            queue_peak: 0,
        }
    }

    /// `marks`, when given, receives the wall instant at which each new
    /// virtual instant was first reached.
    fn run(
        &mut self,
        net: &mut Network,
        mut marks: Option<&mut Vec<(SimTime, Instant)>>,
    ) -> Result<(), String> {
        loop {
            let t0 = self.traced.then(Instant::now);
            if !net.step() {
                return Ok(());
            }
            if let Some(t0) = t0 {
                self.step_ns += t0.elapsed().as_nanos() as u64;
                self.queue_peak = self.queue_peak.max(net.pending_events());
            }
            self.steps += 1;
            if let Some(m) = marks.as_deref_mut() {
                if m.last().is_none_or(|&(vt, _)| vt != net.now()) {
                    m.push((net.now(), Instant::now()));
                }
            }
            if net.now() > T_MAX {
                return Err(format!("network still busy at virtual {} us", net.now().0));
            }
        }
    }
}

/// splitmix64: one fault-plan seed per channel from the workload seed.
fn channel_seed(seed: u64, ch: ChannelId) -> u64 {
    let mut z = seed ^ (u64::from(ch.0) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Chains<'a> {
    net: &'a mut Network,
    cfg: Config,
    seed: u64,
    traced: bool,
}

impl Chains<'_> {
    fn add_box(&mut self, name: String, logic: Box<dyn AppLogic>) -> BoxId {
        let logic: Box<dyn AppLogic> = if self.traced {
            Box::new(TimedLogic(logic))
        } else {
            logic
        };
        let id = self.net.add_box(name, logic);
        if self.cfg.lossy {
            self.net.enable_reliability(id, ReliableConfig::default());
        }
        id
    }

    fn connect(&mut self, a: BoxId, b: BoxId) -> (SlotId, SlotId) {
        let (ch, sa, sb) = self.net.connect(a, b, 1);
        if self.cfg.lossy {
            let plan = FaultPlan::new(channel_seed(self.seed, ch))
                .with_drop(LOSS)
                .with_duplicate(LOSS)
                .with_reorder(LOSS);
            self.net.set_fault_plan(ch, plan);
        }
        (sa[0], sb[0])
    }

    /// Every call's private chain `L — s0 — … — R`, as `bench::storm`
    /// builds it.
    fn call(&mut self, plan: CallPlan) -> Call {
        let i = plan.index;
        let (hi, lo) = ((i >> 8) as u8, (i & 0xFF) as u8);
        let l_addr = MediaAddr::v4(10, hi, lo, 1, 4000);
        let r_addr = MediaAddr::v4(10, hi, lo, 2, 4000);
        let endpoint = |addr| Box::new(EndpointLogic::resource(EndpointPolicy::audio(addr)));
        let l = self.add_box(format!("c{i}-l"), endpoint(l_addr));
        let r = self.add_box(format!("c{i}-r"), endpoint(r_addr));
        let hops: Vec<BoxId> = (0..plan.relays)
            .map(|k| self.add_box(format!("c{i}-s{k}"), Box::new(NullLogic)))
            .collect();
        let chain: Vec<BoxId> = std::iter::once(l)
            .chain(hops.iter().copied())
            .chain(std::iter::once(r))
            .collect();
        let links: Vec<(SlotId, SlotId)> =
            chain.windows(2).map(|w| self.connect(w[0], w[1])).collect();
        let relays = hops
            .iter()
            .enumerate()
            .map(|(k, &bx)| (bx, links[k].1, links[k + 1].0))
            .collect();
        Call {
            plan,
            l,
            r,
            l_slot: links[0].0,
            r_slot: links[links.len() - 1].1,
            relays,
            l_addr,
            r_addr,
            established: false,
        }
    }
}

fn link_goal(a: SlotId, b: SlotId) -> impl FnOnce(&mut ipmedia_core::ProgramBox) -> Vec<BoxCmd> {
    move |pb| {
        pb.media_mut()
            .set_goal(GoalSpec::Link { a, b })
            .into_iter()
            .map(BoxCmd::Signal)
            .collect()
    }
}

/// One storm from plan generation to the relinked excursion calls.
struct Round {
    gen_s: f64,
    build_s: f64,
    establish_s: f64,
    features_s: f64,
    excursion_s: f64,
    cpu_s: Option<f64>,
    calls: usize,
    failed: usize,
    open_loop_ms: Samples,
    vsetup_ms: Samples,
    vrelink_ms: Samples,
    converged: bool,
    steps: u64,
    step_ns: u64,
    queue_peak: usize,
    allocs: u64,
    peak_bytes: usize,
    metrics: MetricsSnapshot,
    tally: Tally,
    digest: String,
}

impl Round {
    fn setup_s(&self) -> f64 {
        self.gen_s + self.build_s
    }

    fn measured_s(&self) -> f64 {
        self.establish_s + self.features_s + self.excursion_s
    }

    fn calls_per_s(&self) -> f64 {
        (self.calls - self.failed) as f64 / self.measured_s()
    }
}

fn round(cfg: Config, seed: u64, traced: bool) -> Result<Round, String> {
    let baseline = sys::mark();
    let t_gen = Instant::now();
    let plans = generate_storm(&StormSpec {
        seed,
        calls: cfg.calls,
        threads: sys::nproc(),
    });
    let gen_s = t_gen.elapsed().as_secs_f64();

    let t_build = Instant::now();
    let registry = Arc::new(Registry::new());
    let mut net = Network::new(SimConfig::paper());
    let counting = CountingObserver::new(registry.clone());
    if traced {
        net.set_observer(Box::new(TimedObserver(counting)));
    } else {
        net.set_observer(Box::new(counting));
    }
    let mut calls: Vec<Call> = {
        let mut b = Chains {
            net: &mut net,
            cfg,
            seed,
            traced,
        };
        plans.into_iter().map(|p| b.call(p)).collect()
    };
    let mut setup = Stepper::new(false);
    setup.run(&mut net, None)?;
    for c in &calls {
        for &(bx, a, b) in &c.relays {
            net.apply(bx, link_goal(a, b));
        }
    }
    setup.run(&mut net, None)?;
    let build_s = t_build.elapsed().as_secs_f64();

    // Measured phases.
    let mut drv = Stepper::new(traced);
    layers::take();
    let allocs0 = sys::allocs();
    let cpu0 = sys::process_cpu_s();

    let t0 = net.now();
    for c in &calls {
        net.user(c.l, c.l_slot, UserCmd::Open(Medium::Audio));
    }
    let wall0 = Instant::now();
    let mut marks: Vec<(SimTime, Instant)> = Vec::new();
    drv.run(&mut net, Some(&mut marks))?;
    let wall_end = Instant::now();
    let establish_s = (wall_end - wall0).as_secs_f64();

    let mut open_loop = Vec::with_capacity(calls.len());
    let mut vsetup = Vec::with_capacity(calls.len());
    let mut failed = 0usize;
    for c in &mut calls {
        c.established = both_flowing(&net, c);
        if !c.established {
            failed += 1;
            open_loop.push(f64::INFINITY);
            vsetup.push(f64::INFINITY);
            continue;
        }
        let done = net.busy_until(c.l).max(net.busy_until(c.r));
        vsetup.push((done - t0).as_millis_f64());
        let i = marks.partition_point(|&(vt, _)| vt < done);
        let at = marks.get(i).map_or(wall_end, |&(_, w)| w);
        open_loop.push((at - wall0).as_secs_f64() * 1e3);
    }

    // Feature phase: end goals from the path type, flavoured by roles.
    // Calls that failed to establish are left alone: a user command on a
    // slot in the wrong state is a protocol error, not a benchmark step.
    let t_feat = Instant::now();
    for c in calls.iter().filter(|c| c.established) {
        let (gl, gr) = c.plan.path.ends();
        for (goal, bx, slot, role) in [
            (gl, c.l, c.l_slot, c.plan.caller_role),
            (gr, c.r, c.r_slot, c.plan.callee_role),
        ] {
            match goal {
                EndGoal::Close => {
                    // One close suffices; the peer follows the handshake.
                    if bx == c.l || gl != EndGoal::Close {
                        net.user(bx, slot, UserCmd::Close);
                    }
                }
                EndGoal::Hold => net.user(
                    bx,
                    slot,
                    UserCmd::Modify {
                        mute_in: false,
                        mute_out: true,
                    },
                ),
                EndGoal::Open => {
                    if role == "parked" || role == "holder" {
                        for mute_in in [true, false] {
                            let cmd = UserCmd::Modify {
                                mute_in,
                                mute_out: false,
                            };
                            net.user(bx, slot, cmd);
                        }
                    }
                }
            }
        }
    }
    drv.run(&mut net, None)?;
    let features_s = t_feat.elapsed().as_secs_f64();

    // Flowlink excursion: hold one relay of every open/open relay call,
    // then relink them all at one instant.
    let t_exc = Instant::now();
    let excursion: Vec<&Call> = calls
        .iter()
        .filter(|c| c.established && c.plan.measures_flowlink())
        .collect();
    for c in &excursion {
        let (bx, a, b) = c.relays[0];
        net.apply(bx, move |pb| {
            [a, b]
                .into_iter()
                .flat_map(|slot| {
                    pb.media_mut().set_goal(GoalSpec::Hold {
                        slot,
                        policy: Policy::Server,
                    })
                })
                .map(BoxCmd::Signal)
                .collect()
        });
    }
    drv.run(&mut net, None)?;
    net.advance(SimDuration::from_millis(1_000));
    let t1 = net.now();
    for c in &excursion {
        let (bx, a, b) = c.relays[0];
        net.apply(bx, link_goal(a, b));
    }
    drv.run(&mut net, None)?;
    let excursion_s = t_exc.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s().zip(cpu0).map(|(b, a)| b - a);
    let allocs = sys::allocs() - allocs0;
    let peak_bytes = sys::peak_since(baseline);

    let mut vrelink = Vec::with_capacity(excursion.len());
    for c in &excursion {
        if both_flowing(&net, c) {
            let done = net.busy_until(c.l).max(net.busy_until(c.r));
            vrelink.push((done - t1).as_millis_f64());
        } else {
            failed += 1;
            vrelink.push(f64::INFINITY);
        }
    }
    let converged = net.all_converged();
    let metrics = registry.snapshot();
    let (open_loop_ms, vsetup_ms, vrelink_ms) = (
        Samples::new(open_loop),
        Samples::new(vsetup),
        Samples::new(vrelink),
    );
    let digest = format!(
        "calls={} failed={failed} excursion={} vsetup=({},{},{}) vrelink=({},{}) \
         sent={:?} stimuli={} faults={:?} retx={} converged={converged} vt={} events={}",
        calls.len(),
        excursion.len(),
        vsetup_ms.finite_sum(),
        vsetup_ms.percentile(50.0),
        vsetup_ms.percentile(99.0),
        vrelink_ms.finite_sum(),
        vrelink_ms.percentile(99.0),
        metrics.signals_sent,
        metrics.stimuli,
        metrics.faults_injected,
        metrics.retransmissions,
        net.now().0,
        drv.steps,
    );
    Ok(Round {
        gen_s,
        build_s,
        establish_s,
        features_s,
        excursion_s,
        cpu_s,
        calls: calls.len(),
        failed,
        open_loop_ms,
        vsetup_ms,
        vrelink_ms,
        converged,
        steps: drv.steps,
        step_ns: drv.step_ns,
        queue_peak: drv.queue_peak,
        allocs,
        peak_bytes,
        metrics,
        tally: layers::take(),
        digest,
    })
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Runs the workload for `seconds`; with `traced`, half the time untraced
/// (the reference for the tracing overhead) and half traced.
pub fn run(cfg: Config, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    out.fact("calls_per_round", cfg.calls);
    out.fact(
        "threads",
        format!("1 simulator thread; {} plan generators", sys::nproc()),
    );
    if cfg.lossy {
        out.fact(
            "fault_plan",
            format!("drop={LOSS} duplicate={LOSS} reorder={LOSS}"),
        );
    }
    let plain_s = if traced { seconds / 2.0 } else { seconds };
    let plain = rounds(plain_s, &mut out, || round(cfg, seed, false));
    let timed = if traced {
        rounds(seconds / 2.0, &mut out, || round(cfg, seed, true))
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

    // Oracle: every call establishes and reconverges; the same seed gives
    // the same virtual latencies and signal counts in every round, traced
    // or not; the lossy network ends converged; the clean one sees no
    // fault and no retransmission.
    let first = &plain[0];
    for r in plain.iter().chain(&timed) {
        out.attempted += r.calls as u64;
        out.failed += r.failed as u64;
        out.expect("calls failed to establish or reconverge", r.failed, 0);
        out.check("network did not end converged", r.converged);
        out.expect(
            "deterministic outputs differ between rounds",
            &r.digest,
            &first.digest,
        );
        if !cfg.lossy {
            out.expect("faults on the clean storm", r.metrics.faults_total(), 0);
            out.expect(
                "retransmissions on the clean storm",
                r.metrics.retransmissions,
                0,
            );
        }
    }

    let n = plain.len();
    let ops = med(&plain, Round::calls_per_s);
    out.e2e.insert("ops_per_s", ops);
    out.e2e.insert("setup_s", med(&plain, Round::setup_s));
    out.e2e.insert(
        "bytes_per_op",
        med(&plain, |r| r.peak_bytes as f64 / r.calls as f64),
    );
    // The mean, not the median: a call's open-loop latency follows its
    // virtual completion, and the mix's median call sits on the edge
    // between two virtual-latency clusters, so the median jumps between
    // them from seed to seed while the mean moves with the simulator.
    out.e2e
        .insert("latency_ms", med(&plain, |r| r.open_loop_ms.mean()));

    let calls = first.calls;
    out.named("calls_per_s", ops, "1/s", n);
    out.named("setup_s", med(&plain, Round::setup_s), "s", n);
    out.named(
        "bytes_per_call",
        med(&plain, |r| r.peak_bytes as f64 / r.calls as f64),
        "B",
        n,
    );
    out.named(
        "open_loop_mean_ms",
        med(&plain, |r| r.open_loop_ms.mean()),
        "ms",
        n * calls,
    );
    out.named(
        "open_loop_p50_ms",
        med(&plain, |r| r.open_loop_ms.percentile(50.0)),
        "ms",
        n * calls,
    );
    out.named(
        "open_loop_p99_ms",
        med(&plain, |r| r.open_loop_ms.percentile(99.0)),
        "ms",
        n * calls,
    );
    out.named(
        "vsetup_p50_ms",
        first.vsetup_ms.percentile(50.0),
        "ms",
        first.vsetup_ms.len(),
    );
    out.named(
        "vsetup_p99_ms",
        first.vsetup_ms.percentile(99.0),
        "ms",
        first.vsetup_ms.len(),
    );
    out.named(
        "vrelink_p99_ms",
        first.vrelink_ms.percentile(99.0),
        "ms",
        first.vrelink_ms.len(),
    );

    if traced && !timed.is_empty() {
        layer_split(&mut out, &plain, &timed);
    }
    out
}

fn layer_split(out: &mut Outcome, plain: &[Round], timed: &[Round]) {
    let calls = timed[0].calls as f64;
    let per_call = |v: f64| v / calls;
    out.layer("storm.gen_s", med(timed, |r| r.gen_s));
    out.layer("netsim.build_s", med(timed, |r| r.build_s));
    out.layer("netsim.establish_s", med(timed, |r| r.establish_s));
    out.layer("netsim.features_s", med(timed, |r| r.features_s));
    out.layer("netsim.excursion_s", med(timed, |r| r.excursion_s));
    out.layer("netsim.events_per_call", per_call(timed[0].steps as f64));
    out.layer(
        "netsim.step_ns",
        med(timed, |r| r.step_ns as f64 / r.steps as f64),
    );
    out.layer("netsim.queue_peak", timed[0].queue_peak as f64);
    out.layer(
        "core.logic_ns_per_call",
        med(timed, |r| per_call(r.tally.logic_ns as f64)),
    );
    out.layer(
        "obs.observer_ns_per_call",
        med(timed, |r| per_call(r.tally.observer_ns as f64)),
    );
    out.layer(
        "netsim.self_ns_per_call",
        med(timed, |r| {
            per_call(r.step_ns as f64 - r.tally.logic_ns as f64 - r.tally.observer_ns as f64)
        }),
    );
    let t = &timed[0].tally;
    for (i, k) in INPUT_KINDS.iter().enumerate() {
        out.layer(
            &format!("core.inputs_per_call.{k}"),
            per_call(t.inputs[i] as f64),
        );
    }
    for (i, k) in SIGNAL_KINDS.iter().enumerate() {
        out.layer(
            &format!("core.signals_per_call.{k}"),
            per_call(t.signals[i] as f64),
        );
    }
    for (i, k) in STIMULUS_KINDS.iter().enumerate() {
        out.layer(
            &format!("core.stimuli_per_call.{k}"),
            per_call(t.stimuli[i] as f64),
        );
    }
    let m = &timed[0].metrics;
    let sent = m.signals_sent_total() as f64;
    let retx = m.retransmissions as f64;
    out.layer("core.reliable.retx_per_call", per_call(retx));
    out.layer("core.reliable.useful_frac", (sent - retx) / sent);
    out.layer(
        "netsim.fault.drops_per_call",
        per_call(m.faults("drop") as f64),
    );
    out.layer(
        "netsim.fault.dups_per_call",
        per_call(m.faults("duplicate") as f64),
    );
    out.layer(
        "netsim.fault.reorders_per_call",
        per_call(m.faults("reorder") as f64),
    );
    out.layer(
        "alloc.allocs_per_event",
        med(timed, |r| r.allocs as f64 / r.steps as f64),
    );
    out.layer("alloc.peak_bytes", med(timed, |r| r.peak_bytes as f64));
    out.layer(
        "latency_p99_ms",
        med(timed, |r| r.open_loop_ms.percentile(99.0)),
    );
    out.layer(
        "cpu.busy_frac",
        med(timed, |r| r.cpu_s.unwrap_or(f64::NAN) / r.measured_s()),
    );
    out.layer(
        "trace.overhead_frac",
        1.0 - med(timed, Round::calls_per_s) / med(plain, Round::calls_per_s),
    );
}
