//! Pinned checker numbers: the two configurations the repository
//! benchmark verifies, with their exhaustive counts and verdicts, and the
//! exact `state_hash` stream along scripted runs.
//!
//! The hashes were recorded from the inline (pre-copy-on-write) state
//! layout. Shard placement and state numbering are functions of these
//! hashes, so any change to how a state hashes — a field reordered, a
//! pointer hashed instead of its value, a canonicalization that renumbers
//! differently — fails here before it can silently move a graph.

use ipmedia_core::path::EndGoal;
use ipmedia_mck::explore::state_hash;
use ipmedia_mck::{
    budgeted, check_path_with, Action, CheckConfig, ExploreOptions, NondetOp, PathState,
    VerdictClass,
};

fn open_open_1() -> CheckConfig {
    budgeted(1, EndGoal::Open, EndGoal::Open, 0)
}

fn open_hold_0_fault() -> CheckConfig {
    budgeted(0, EndGoal::Open, EndGoal::Hold, 0).with_faults(1)
}

/// `(states, transitions, terminals, dedup_hits)` of a full check, which
/// must pass.
fn full_check(cfg: &CheckConfig, threads: usize) -> (usize, usize, usize, u64) {
    let (r, _) = check_path_with(cfg, &ExploreOptions::parallel(5_000_000, threads));
    assert_eq!(r.verdict_class(), VerdictClass::Pass, "{}", r.verdict());
    assert_eq!(r.expanded, r.states);
    (r.states, r.transitions, r.terminals, r.dedup_hits)
}

#[test]
fn open_open_1_counts_and_verdict_are_pinned() {
    for threads in [1, 2] {
        assert_eq!(
            full_check(&open_open_1(), threads),
            (105_475, 321_104, 4, 215_630),
            "{threads} threads"
        );
    }
}

#[test]
fn open_hold_0_with_a_fault_counts_and_verdict_are_pinned() {
    for threads in [1, 2] {
        assert_eq!(
            full_check(&open_hold_0_fault(), threads),
            (91_743, 228_371, 10, 136_629),
            "{threads} threads"
        );
    }
}

/// Apply `script` from the initial state, returning the hash of the
/// initial state followed by the hash after each action.
fn hash_stream(cfg: &CheckConfig, script: &[Action]) -> Vec<u64> {
    let mut s = PathState::initial(cfg);
    let mut hashes = vec![state_hash(&s)];
    for &a in script {
        assert!(s.actions(cfg).contains(&a), "{a:?} not enabled");
        s = s.apply(cfg, a);
        hashes.push(state_hash(&s));
    }
    hashes
}

#[test]
fn initial_successor_hashes_are_pinned() {
    let cfg = open_open_1();
    let s0 = PathState::initial(&cfg);
    let got: Vec<(Action, u64)> = s0
        .actions(&cfg)
        .into_iter()
        .map(|a| (a, state_hash(&s0.apply(&cfg, a))))
        .collect();
    let want = [
        (
            Action::EndNondet {
                right: false,
                op: NondetOp::Open,
            },
            0xef7e_cd43_55c8_559b,
        ),
        (Action::EndAttach { right: false }, 0xccbd_34ef_e596_83ef),
        (
            Action::EndNondet {
                right: true,
                op: NondetOp::Open,
            },
            0x8855_a569_b172_9e47,
        ),
        (Action::EndAttach { right: true }, 0x084d_63d1_d62e_0959),
        (Action::LinkAttach { idx: 0 }, 0xe209_4a70_612d_1fa4),
    ];
    assert_eq!(state_hash(&s0), 0xa98c_be81_2068_d781);
    assert_eq!(got, want);
}

#[test]
fn flowlink_delivery_hashes_are_pinned() {
    let script = [
        Action::EndAttach { right: false },
        Action::EndAttach { right: true },
        Action::DeliverFwd(0),
        Action::DeliverBwd(1),
        Action::LinkAttach { idx: 0 },
        Action::DeliverBwd(0),
        Action::DeliverFwd(0),
        Action::DeliverBwd(0),
    ];
    assert_eq!(
        hash_stream(&open_open_1(), &script),
        [
            0xa98c_be81_2068_d781,
            0xccbd_34ef_e596_83ef,
            0xd965_1b3f_7049_be98,
            0x7bad_51ba_8c03_65b1,
            0xfecd_e6bf_94a2_cf0a,
            0xc933_226a_d3cb_eafb,
            0x1de0_4c06_476a_d122,
            0xfc68_0fab_4a49_3847,
            0x969a_a145_d3a7_ab79,
        ]
    );
}

#[test]
fn fault_recovery_hashes_are_pinned() {
    let cfg = open_hold_0_fault();
    let dup = [
        Action::EndAttach { right: false },
        Action::DupFwd(0),
        Action::DeliverFwd(0),
        Action::EndAttach { right: true },
        Action::DeliverFwd(0),
        Action::DeliverBwd(0),
        Action::DeliverBwd(0),
    ];
    assert_eq!(
        hash_stream(&cfg, &dup),
        [
            0x357b_bcd5_0180_53a5,
            0x8844_3d1d_11b9_2485,
            0x34ce_5e4b_0f99_cdd7,
            0x680d_9c24_36d6_8e48,
            0x0e0b_1aef_500e_d76d,
            0x7cc8_a4c2_a6bf_93f0,
            0x27cb_ecb3_86e1_0574,
            0x74d7_a059_ebef_9902,
        ]
    );
    let drop = [
        Action::EndAttach { right: false },
        Action::DropFwd(0),
        Action::RetransmitFwd(0),
        Action::EndAttach { right: true },
        Action::DeliverFwd(0),
        Action::DeliverBwd(0),
    ];
    assert_eq!(
        hash_stream(&cfg, &drop),
        [
            0x357b_bcd5_0180_53a5,
            0x8844_3d1d_11b9_2485,
            0xa8e5_3350_9a5d_0c1a,
            0x9241_0fae_3e09_3329,
            0x3ea2_4a81_3f16_345d,
            0x80a1_5b35_b292_87c4,
            0x0d2c_1921_1df0_3e50,
        ]
    );
}
