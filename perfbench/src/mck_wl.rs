//! Workload `mck_verify`: a full check (`explore_with` + `check_safety` +
//! `check_spec`) of two fixed configurations, sequentially and at
//! `min(2, nproc)` threads. The configurations are fixed, so the seed
//! draws nothing here.
//!
//! The traced run replays the sequential BFS through the checker's public
//! pieces (`PathState::actions`/`apply`, `state_hash`, `SeenSet::insert`),
//! timing each, and must reproduce the engine's counts exactly.

use crate::report::{rounds, Outcome};
use crate::stats::median;
use crate::sys;
use ipmedia_core::path::{EndGoal, PathType};
use ipmedia_mck::explore::state_hash;
use ipmedia_mck::{budgeted, check_safety, check_spec, explore_with, CheckConfig, ExploreOptions};
use ipmedia_mck::{PathState, SeenSet};
use std::hint::black_box;
use std::time::Instant;

/// Expected exhaustive-exploration counts of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub states: usize,
    pub transitions: usize,
    pub terminals: usize,
}

/// The fixed configurations with the counts and verdict every run must
/// reproduce: the flowlink state space and the fault budget.
pub fn configs() -> [(&'static str, CheckConfig, Counts); 2] {
    [
        (
            "open-open/1",
            budgeted(1, EndGoal::Open, EndGoal::Open, 0),
            Counts {
                states: 105_475,
                transitions: 321_104,
                terminals: 4,
            },
        ),
        (
            "open-hold/0+1fault",
            budgeted(0, EndGoal::Open, EndGoal::Hold, 0).with_faults(1),
            Counts {
                states: 91_743,
                transitions: 228_371,
                terminals: 10,
            },
        ),
    ]
}

const MAX_STATES: usize = 5_000_000;
/// Constructions of the config set per timed block of `setup_s`, and
/// the blocks.
const SETUP_BLOCK: usize = 50;
const SETUP_BLOCKS: usize = 40;

/// Threads of the parallel check: the host's cores, at most two.
pub fn par_threads() -> usize {
    sys::nproc().clamp(1, 2)
}

struct Check {
    counts: Counts,
    verdict: String,
    dedup_hits: u64,
    explore_s: f64,
    props_s: f64,
    peak_bytes: usize,
}

fn check(cfg: &CheckConfig, threads: usize) -> Check {
    let baseline = sys::mark();
    let t0 = Instant::now();
    let g = explore_with(cfg, &ExploreOptions::parallel(MAX_STATES, threads));
    let explore_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let safety = check_safety(&g);
    let spec = check_spec(&g, PathType::of(cfg.left, cfg.right).spec());
    let props_s = t1.elapsed().as_secs_f64();
    let verdict = match (&safety, &spec, g.truncated) {
        (Ok(()), Ok(()), false) => "pass".to_string(),
        _ => format!("safety={safety:?} spec={spec:?} truncated={}", g.truncated),
    };
    Check {
        counts: Counts {
            states: g.states(),
            transitions: g.transitions,
            terminals: g.terminals.len(),
        },
        verdict,
        dedup_hits: g.dedup_hits,
        explore_s,
        props_s,
        peak_bytes: sys::peak_since(baseline),
    }
}

/// One full check of every configuration at 1 and at `par_threads()`.
struct Round {
    seq: Vec<Check>,
    par: Vec<Check>,
}

fn states(checks: &[Check]) -> f64 {
    checks.iter().map(|c| c.counts.states as f64).sum()
}

fn wall_s(checks: &[Check]) -> f64 {
    checks.iter().map(|c| c.explore_s + c.props_s).sum()
}

impl Round {
    fn seq_states_per_s(&self) -> f64 {
        states(&self.seq) / wall_s(&self.seq)
    }

    fn par_states_per_s(&self) -> f64 {
        states(&self.par) / wall_s(&self.par)
    }
}

fn round() -> Round {
    let cfgs = configs();
    let seq = cfgs.iter().map(|(_, c, _)| check(c, 1)).collect();
    let par = cfgs
        .iter()
        .map(|(_, c, _)| check(c, par_threads()))
        .collect();
    Round { seq, par }
}

/// The checker's set-up: build the config set, then start the engine on
/// each config and stop it after the initial state (`max_states = 1`).
/// That covers the config, its initial state and spec, and the engine's
/// fixed start-up cost (seen-set shards, arena, first hash), so work moved
/// out of exploration into start-up shows here. It takes microseconds, so
/// it is timed in blocks of [`SETUP_BLOCK`] and the median block kept.
fn setup_s() -> f64 {
    let blocks: Vec<f64> = (0..SETUP_BLOCKS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..SETUP_BLOCK {
                for (_, cfg, _) in black_box(configs()) {
                    black_box(explore_with(&cfg, &ExploreOptions::sequential(1)));
                    black_box(PathType::of(cfg.left, cfg.right).spec());
                }
            }
            t0.elapsed().as_secs_f64() / SETUP_BLOCK as f64
        })
        .collect();
    median(&blocks)
}

/// The sequential BFS replayed through the checker's public pieces.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub counts: Option<Counts>,
    pub levels: usize,
    pub dedup_hits: u64,
    pub actions_ns: u64,
    pub apply_ns: u64,
    pub hash_ns: u64,
    /// `SeenSet::insert` time net of the one `state_hash` it repeats.
    pub seen_ns: u64,
    pub wall_s: f64,
}

pub fn replay(cfg: &CheckConfig) -> Replay {
    let start = Instant::now();
    let mut r = Replay::default();
    let mut seen = SeenSet::new();
    seen.insert(PathState::initial(cfg));
    let (mut transitions, mut terminals) = (0usize, 0usize);
    let mut level_end = 1usize;
    let mut i = 0usize;
    while i < seen.len() {
        if i == level_end {
            r.levels += 1;
            level_end = seen.len();
        }
        let t0 = Instant::now();
        let state = seen.get(i as u32);
        let actions = state.actions(cfg);
        let t1 = Instant::now();
        let next: Vec<PathState> = actions.iter().map(|&a| state.apply(cfg, a)).collect();
        let t2 = Instant::now();
        for s in &next {
            black_box(state_hash(s));
        }
        let t3 = Instant::now();
        for s in next {
            if !seen.insert(s).1 {
                r.dedup_hits += 1;
            }
        }
        let t4 = Instant::now();
        r.actions_ns += (t1 - t0).as_nanos() as u64;
        r.apply_ns += (t2 - t1).as_nanos() as u64;
        let hash = (t3 - t2).as_nanos() as u64;
        r.hash_ns += hash;
        r.seen_ns += ((t4 - t3).as_nanos() as u64).saturating_sub(hash);
        transitions += actions.len();
        terminals += usize::from(actions.is_empty());
        i += 1;
    }
    r.levels += 1;
    r.counts = Some(Counts {
        states: seen.len(),
        transitions,
        terminals,
    });
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// Oracle: a check reproduces the pinned counts and passes; anything else
/// is a failed check and a mismatch.
fn judge(out: &mut Outcome, what: &str, got: &Check, want: Counts) {
    out.attempted += 1;
    out.failed += u64::from(got.counts != want || got.verdict != "pass");
    out.expect(&format!("{what}: counts"), got.counts, want);
    out.expect(&format!("{what}: verdict"), got.verdict.as_str(), "pass");
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Runs the workload for `seconds`; with `traced`, about half the time
/// goes to the instrumented replay.
pub fn run(seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    out.fact("threads", format!("1 and {}", par_threads()));
    out.fact("seed", "unused: the configurations are fixed");
    let cfgs = configs();
    let plain_s = if traced { seconds / 2.0 } else { seconds };
    let setup = setup_s();
    let (wall0, cpu0) = (Instant::now(), sys::process_cpu_s());
    let rounds = rounds(plain_s, &mut out, || Ok(round()));
    let busy = sys::process_cpu_s()
        .zip(cpu0)
        .map(|(b, a)| (b - a) / wall0.elapsed().as_secs_f64());
    out.fact("rounds", rounds.len());
    out.fact(
        "round_ops_per_s",
        format!(
            "{:.0?}",
            rounds
                .iter()
                .map(Round::seq_states_per_s)
                .collect::<Vec<_>>()
        ),
    );

    for r in &rounds {
        for (checks, threads) in [(&r.seq, 1), (&r.par, par_threads())] {
            for ((name, _, want), got) in cfgs.iter().zip(checks) {
                judge(
                    &mut out,
                    &format!("{name} at {threads} threads"),
                    got,
                    *want,
                );
            }
        }
    }

    let n = rounds.len();
    let seq_sps = med(&rounds, Round::seq_states_per_s);
    let par_sps = med(&rounds, Round::par_states_per_s);
    let bytes_per_state = med(&rounds, |r| {
        r.seq.iter().map(|c| c.peak_bytes as f64).sum::<f64>() / states(&r.seq)
    });
    // The sequential verdict is the gated latency: the 2-thread one waits
    // on the host granting both cores at once and swings far more from
    // run to run.
    let verdict_ms = med(&rounds, |r| wall_s(&r.seq) * 1e3);
    let verdict_ms_par = med(&rounds, |r| wall_s(&r.par) * 1e3);
    out.e2e.insert("ops_per_s", seq_sps);
    out.e2e.insert("setup_s", setup);
    out.e2e.insert("bytes_per_op", bytes_per_state);
    out.e2e.insert("latency_ms", verdict_ms);
    out.named("states_per_s_seq", seq_sps, "1/s", n);
    out.named("states_per_s_par", par_sps, "1/s", n);
    out.named("bytes_per_state", bytes_per_state, "B", n);
    out.named("verdict_ms_seq", verdict_ms, "ms", n);
    out.named("verdict_ms_par", verdict_ms_par, "ms", n);
    out.named("setup_s", setup, "s", SETUP_BLOCKS);

    if traced {
        out.layer(
            "mck.explore_s",
            med(&rounds, |r| r.seq.iter().map(|c| c.explore_s).sum()),
        );
        out.layer(
            "mck.props_s",
            med(&rounds, |r| r.seq.iter().map(|c| c.props_s).sum()),
        );
        let transitions: f64 = cfgs.iter().map(|(_, _, c)| c.transitions as f64).sum();
        let dedup = rounds[0]
            .seq
            .iter()
            .map(|c| c.dedup_hits as f64)
            .sum::<f64>();
        out.layer("mck.dedup_frac", dedup / transitions);
        out.layer("mck.states_per_s_par", par_sps);
        out.layer("cpu.busy_frac", busy.unwrap_or(f64::NAN));
        out.layer("mck.par_eff", par_sps / (par_threads() as f64 * seq_sps));
        out.layer(
            "alloc.peak_bytes",
            med(&rounds, |r| {
                r.seq
                    .iter()
                    .map(|c| c.peak_bytes as f64)
                    .fold(0.0, f64::max)
            }),
        );

        let replays: Vec<Replay> = cfgs.iter().map(|(_, c, _)| replay(c)).collect();
        for ((name, _, want), r) in cfgs.iter().zip(&replays) {
            out.expect(&format!("{name} replay counts"), r.counts, Some(*want));
        }
        let total_states = states(&rounds[0].seq);
        let per_state =
            |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64 / total_states;
        let replay_ns = per_state(|r| r.actions_ns + r.apply_ns + r.hash_ns + r.seen_ns);
        let engine_ns =
            med(&rounds, |r| r.seq.iter().map(|c| c.explore_s).sum()) * 1e9 / total_states;
        out.layer(
            "mck.levels",
            replays.iter().map(|r| r.levels).max().unwrap_or(0) as f64,
        );
        out.layer("mck.actions_ns", per_state(|r| r.actions_ns));
        out.layer("mck.apply_ns", per_state(|r| r.apply_ns));
        out.layer("mck.hash_ns", per_state(|r| r.hash_ns));
        out.layer("mck.seen_ns", per_state(|r| r.seen_ns));
        out.layer("mck.engine_other_ns", engine_ns - replay_ns);
        let replay_sps = total_states / replays.iter().map(|r| r.wall_s).sum::<f64>();
        out.layer("trace.overhead_frac", 1.0 - replay_sps / seq_sps);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_expected_count_fails_the_oracle() {
        let got = check(&budgeted(0, EndGoal::Open, EndGoal::Hold, 0), 1);
        let mut out = Outcome::default();
        judge(&mut out, "open-hold/0", &got, got.counts);
        assert!(out.mismatches.is_empty());
        assert_eq!((out.attempted, out.failed), (1, 0));
        let tampered = Counts {
            transitions: got.counts.transitions + 1,
            ..got.counts
        };
        judge(&mut out, "open-hold/0", &got, tampered);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.mismatches.len(), 1);
        assert!(out.mismatches[0].starts_with("open-hold/0: counts"));
    }

    /// The replay walks the same graph as the engine on a small config.
    #[test]
    fn replay_matches_the_engine_on_a_small_config() {
        let cfg = budgeted(0, EndGoal::Open, EndGoal::Hold, 0);
        let g = explore_with(&cfg, &ExploreOptions::sequential(MAX_STATES));
        let r = replay(&cfg);
        let want = Counts {
            states: g.states(),
            transitions: g.transitions,
            terminals: g.terminals.len(),
        };
        assert_eq!(r.counts, Some(want));
        assert_eq!(r.dedup_hits, g.dedup_hits);
        assert!(r.levels > 1);
    }
}
