//! Timing wrappers the traced netsim run puts around the `core` and `obs`
//! layers from outside: [`TimedLogic`] around each box's `AppLogic`, and
//! [`TimedObserver`] around the network's `CountingObserver`.
//!
//! The simulator is single-threaded, so the tallies live in a thread-local
//! cell. Observer callbacks also fire inside `AppLogic::handle` (goal and
//! user activity through the ctx); the logic's time is kept net of them so
//! no nanosecond is counted twice.

use crate::report::{INPUT_KINDS, SIGNAL_KINDS, STIMULUS_KINDS};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx};
use ipmedia_obs::Observer;
use std::cell::RefCell;
use std::time::Instant;

/// Tallies of one traced phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub logic_ns: u64,
    pub observer_ns: u64,
    pub inputs: [u64; INPUT_KINDS.len()],
    pub signals: [u64; SIGNAL_KINDS.len()],
    pub stimuli: [u64; STIMULUS_KINDS.len()],
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Takes this thread's tallies and starts from zero.
pub fn take() -> Tally {
    TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

fn index_or_other(kinds: &[&str], kind: &str) -> Option<usize> {
    kinds
        .iter()
        .position(|k| *k == kind)
        .or_else(|| kinds.iter().position(|k| *k == "other"))
}

/// Times and classifies every input a box's logic handles.
pub struct TimedLogic(pub Box<dyn AppLogic>);

impl AppLogic for TimedLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        let obs_before = TALLY.with(|t| t.borrow().observer_ns);
        let t0 = Instant::now();
        self.0.handle(input, ctx);
        let dt = t0.elapsed().as_nanos() as u64;
        TALLY.with(|t| {
            let mut t = t.borrow_mut();
            let nested = t.observer_ns - obs_before;
            t.logic_ns += dt.saturating_sub(nested);
            if let Some(i) = index_or_other(&INPUT_KINDS, input.kind()) {
                t.inputs[i] += 1;
            }
        });
    }
}

/// Times every callback into the wrapped observer and counts signals sent
/// and stimuli by kind.
pub struct TimedObserver<O>(pub O);

impl<O: Observer> TimedObserver<O> {
    fn timed(&mut self, f: impl FnOnce(&mut O)) {
        let t0 = Instant::now();
        f(&mut self.0);
        let dt = t0.elapsed().as_nanos() as u64;
        TALLY.with(|t| t.borrow_mut().observer_ns += dt);
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn stimulus(&mut self, bx: u32, kind: &'static str) {
        self.timed(|o| o.stimulus(bx, kind));
        TALLY.with(|t| {
            if let Some(i) = index_or_other(&STIMULUS_KINDS, kind) {
                t.borrow_mut().stimuli[i] += 1;
            }
        });
    }
    fn signal_sent(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.timed(|o| o.signal_sent(bx, slot, kind));
        if let Some(i) = SIGNAL_KINDS.iter().position(|k| *k == kind) {
            TALLY.with(|t| t.borrow_mut().signals[i] += 1);
        }
    }
    fn signal_received(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.timed(|o| o.signal_received(bx, slot, kind));
    }
    fn slot_transition(
        &mut self,
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        self.timed(|o| o.slot_transition(bx, slot, from, to, cause));
    }
    fn goal_activated(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.timed(|o| o.goal_activated(bx, slot, kind));
    }
    fn goal_dropped(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.timed(|o| o.goal_dropped(bx, slot, kind));
    }
    fn race_resolved(&mut self, bx: u32, slot: u16, won: bool) {
        self.timed(|o| o.race_resolved(bx, slot, won));
    }
    fn signal_ignored(&mut self, bx: u32, slot: u16, reason: &'static str) {
        self.timed(|o| o.signal_ignored(bx, slot, reason));
    }
    fn meta_signal(&mut self, bx: u32, channel: u32, kind: &'static str) {
        self.timed(|o| o.meta_signal(bx, channel, kind));
    }
    fn fault_injected(&mut self, bx: u32, kind: &'static str) {
        self.timed(|o| o.fault_injected(bx, kind));
    }
    fn retransmission(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.timed(|o| o.retransmission(bx, slot, kind));
    }
    fn recovered(&mut self, bx: u32, slot: u16, attempts: u32, elapsed_ms: u64) {
        self.timed(|o| o.recovered(bx, slot, attempts, elapsed_ms));
    }
}
