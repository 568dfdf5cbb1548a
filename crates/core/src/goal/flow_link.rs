//! The `flowLink` goal (paper §IV-A, §VII).
//!
//! A flowlink coordinates the signals of its two slots so that, to the rest
//! of the signaling path, the pair behaves like a single transparent tunnel.
//! Its slots can start in *any* pair of states (they may have been linked
//! elsewhere before); the flowlink performs *state matching* (Fig. 12),
//! pushing toward one of the two goal substates — *both flowing* or *both
//! closed* — with a bias toward media flow. Which superstate it works in is
//! chosen by its environment, through the `open` and `close` signals it
//! receives.
//!
//! The code is organized around the two concepts the paper credits for
//! taming the case explosion (§VII, §X-E):
//!
//! * a slot is **described** if it holds a current peer descriptor (slots in
//!   the `opened` and `flowing` states are described);
//! * a slot is **up-to-date** (*utd*) if the other slot is described and
//!   this slot has been sent the other's most recent descriptor.
//!
//! Both are derived from slot state here rather than stored: `utd(i)` holds
//! iff `described(j)` and the descriptor most recently sent into `i` carries
//! the tag of `j`'s peer descriptor. In every live state the flowlink works
//! to make both *utd* flags true; selector handling needs no history at all
//! because only selectors answering the other slot's *current* descriptor
//! are fresh — all others are discarded (§VII).

use crate::descriptor::{Descriptor, Selector, TagSource};
use crate::signal::Signal;
use crate::slot::{Slot, SlotEvent, SlotState};

/// Which of the flowlink's two slots an event or signal belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkSide {
    /// The first linked slot.
    A,
    /// The second linked slot.
    B,
}

impl LinkSide {
    /// The opposite side.
    pub fn other(self) -> LinkSide {
        match self {
            LinkSide::A => LinkSide::B,
            LinkSide::B => LinkSide::A,
        }
    }
}

/// The `flowLink` goal object controlling two slots.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowLink {
    /// Source for placeholder `noMedia` descriptors, used to make progress
    /// when the far side is not yet described (e.g. opening toward one side
    /// while the other is still `opening`).
    tags: TagSource,
}

impl FlowLink {
    /// Mutable access to this goal's tag source, for state
    /// canonicalization only.
    #[doc(hidden)]
    pub fn tags_mut(&mut self) -> &mut TagSource {
        &mut self.tags
    }

    /// This goal's tag source, for state canonicalization only.
    #[doc(hidden)]
    #[inline]
    pub fn tags(&self) -> &TagSource {
        &self.tags
    }

    /// A fresh `flowLink` goal.
    pub fn new(tag_origin: u64) -> Self {
        Self {
            tags: TagSource::new(tag_origin),
        }
    }

    /// Gain control of both slots, in whatever states they are.
    ///
    /// Precondition (§IV-A): if both slots have a defined medium, the media
    /// must be equal; checked in debug builds.
    pub fn attach(&mut self, a: &mut Slot, b: &mut Slot) -> Vec<(LinkSide, Signal)> {
        debug_assert!(
            match (a.medium(), b.medium()) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            },
            "flowLink precondition: both slots must carry the same medium"
        );
        self.reconcile(a, b)
    }

    /// React to a slot event on `side`.
    pub fn on_event(
        &mut self,
        side: LinkSide,
        event: &SlotEvent,
        a: &mut Slot,
        b: &mut Slot,
    ) -> Vec<(LinkSide, Signal)> {
        let mut out = Vec::new();
        // Close propagation is the only event-driven (rather than
        // state-matched) behaviour: when the environment closes one side,
        // the flowlink moves to the "both closed" superstate by closing the
        // other. State matching must not immediately reopen it.
        if let SlotEvent::PeerClosed { .. } = event {
            let other = match side {
                LinkSide::A => &mut *b,
                LinkSide::B => &mut *a,
            };
            if other.state().is_live() {
                let sig = other.send_close().expect("close a live slot");
                out.push((side.other(), sig));
            }
        }
        out.extend(self.reconcile(a, b));
        out
    }

    /// Idempotent state matching (Fig. 12): from the current pair of slot
    /// states, emit every signal needed to push toward the goal substate and
    /// to make both slots up-to-date, guarded so re-running is harmless.
    fn reconcile(&mut self, a: &mut Slot, b: &mut Slot) -> Vec<(LinkSide, Signal)> {
        let mut out = Vec::new();
        self.reconcile_side(LinkSide::A, a, b, &mut out);
        self.reconcile_side(LinkSide::B, b, a, &mut out);
        out
    }

    /// Push slot `i` (on `side_i`) toward matching slot `j`.
    fn reconcile_side(
        &mut self,
        side_i: LinkSide,
        i: &mut Slot,
        j: &mut Slot,
        out: &mut Vec<(LinkSide, Signal)>,
    ) {
        match i.state() {
            // A pending open on i: answer it transparently as soon as the
            // far side is described; if the far side is closed, first open
            // it (carrying i's descriptor so it stays up-to-date).
            SlotState::Opened => {
                let i_peer_tag = i.peer_desc().expect("opened slot is described").tag;
                if j.is_described() {
                    let desc = j.peer_desc().expect("described").clone();
                    // Forward the far side's cached selector if it answers
                    // i's descriptor; otherwise a placeholder "not sending
                    // yet" selector satisfies the oack/select sequence.
                    let sel = match j.peer_sel() {
                        Some(s) if s.answers == i_peer_tag => s.clone(),
                        _ => Selector::not_sending(i_peer_tag),
                    };
                    let sigs = i.accept(desc, sel).expect("accept pending open");
                    out.extend(sigs.into_iter().map(|s| (side_i, s)));
                } else if j.state() == SlotState::Closed {
                    let medium = i.medium().expect("opened slot has a medium");
                    let desc = i.peer_desc().expect("described").clone();
                    let sig = j.send_open(medium, desc).expect("open a closed slot");
                    out.push((side_i.other(), sig));
                }
                // j opening or closing: wait for it to resolve.
            }
            // i is closed while the far side is live: bias toward media
            // flow — open i rather than closing j (§IV-A).
            SlotState::Closed => {
                if j.state().is_live() {
                    let medium = j.medium().expect("live slot has a medium");
                    let desc = match j.peer_desc() {
                        Some(d) if j.is_described() => d.clone(),
                        // Far side not yet described (still opening):
                        // open with a placeholder so both ends progress.
                        _ => Descriptor::no_media(self.tags.next()),
                    };
                    let sig = i.send_open(medium, desc).expect("open a closed slot");
                    out.push((side_i, sig));
                }
            }
            SlotState::Flowing => {
                // utd maintenance: if the far side is described and i has
                // not been sent its latest descriptor, forward it now.
                if j.is_described() {
                    let j_tag = j.peer_desc().expect("described").tag;
                    if i.sent_desc().map(|d| d.tag) != Some(j_tag) {
                        let desc = j.peer_desc().expect("described").clone();
                        let sig = i.send_describe(desc).expect("describe while flowing");
                        out.push((side_i, sig));
                    }
                }
                // Selector forwarding: a selector cached on j is fresh iff
                // it answers i's current descriptor; forward it into i
                // unless already sent (§VII: only fresh selectors matter,
                // so no selector history is kept).
                if let (Some(sel), Some(peer)) = (j.peer_sel(), i.peer_desc()) {
                    if sel.answers == peer.tag && i.sent_sel() != Some(sel) {
                        let sel = sel.clone();
                        if let Ok(sig) = i.send_select(sel) {
                            out.push((side_i, sig));
                        }
                    }
                }
            }
            // Opening: our open is in flight, nothing to do until it
            // resolves. Closing: wait for the closeack.
            SlotState::Opening | SlotState::Closing => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, Medium};
    use crate::descriptor::MediaAddr;

    fn media_desc(tags: &mut TagSource, host: u8, port: u16) -> Descriptor {
        Descriptor::media(
            tags.next(),
            MediaAddr::v4(10, 0, 0, host, port),
            vec![Codec::G711, Codec::G726],
        )
    }

    /// Deliver a signal into one side of the flowlink and run its reaction.
    fn inject(
        fl: &mut FlowLink,
        side: LinkSide,
        sig: Signal,
        a: &mut Slot,
        b: &mut Slot,
    ) -> (Vec<Signal>, Vec<(LinkSide, Signal)>) {
        let (ev, auto) = match side {
            LinkSide::A => a.on_signal(sig),
            LinkSide::B => b.on_signal(sig),
        };
        let out = fl.on_event(side, &ev, a, b);
        (auto, out)
    }

    #[test]
    fn closed_closed_is_stable() {
        let mut fl = FlowLink::new(500);
        let mut a = Slot::new(true);
        let mut b = Slot::new(true);
        assert!(fl.attach(&mut a, &mut b).is_empty());
    }

    #[test]
    fn incoming_open_is_forwarded_transparently() {
        // L opens toward the flowlink: the flowlink forwards the open on
        // the other side, carrying L's descriptor unchanged.
        let mut fl = FlowLink::new(500);
        let mut a = Slot::new(true);
        let mut b = Slot::new(true);
        fl.attach(&mut a, &mut b);

        let mut l_tags = TagSource::new(1);
        let dl = media_desc(&mut l_tags, 1, 4000);
        let (_, out) = inject(
            &mut fl,
            LinkSide::A,
            Signal::Open {
                medium: Medium::Audio,
                desc: dl.clone(),
            },
            &mut a,
            &mut b,
        );
        assert_eq!(out.len(), 1);
        match &out[0] {
            (LinkSide::B, Signal::Open { medium, desc }) => {
                assert_eq!(*medium, Medium::Audio);
                assert_eq!(desc.tag, dl.tag, "descriptor forwarded unchanged");
            }
            other => panic!("expected forwarded open, got {other:?}"),
        }
        assert_eq!(
            a.state(),
            SlotState::Opened,
            "answer deferred until far side described"
        );
        assert_eq!(b.state(), SlotState::Opening);
    }

    #[test]
    fn end_to_end_transparent_setup() {
        // Full chain: L -- a [flowlink] b -- R. R accepts; everything L and
        // R observe is exactly what they would observe on a single tunnel.
        let mut fl = FlowLink::new(500);
        let mut a = Slot::new(true);
        let mut b = Slot::new(true);
        fl.attach(&mut a, &mut b);

        let mut l_tags = TagSource::new(1);
        let mut r_tags = TagSource::new(2);
        let dl = media_desc(&mut l_tags, 1, 4000);
        let (_, out) = inject(
            &mut fl,
            LinkSide::A,
            Signal::Open {
                medium: Medium::Audio,
                desc: dl.clone(),
            },
            &mut a,
            &mut b,
        );
        let fwd_open = out.into_iter().next().unwrap().1;

        // R receives the open and accepts with its own descriptor and a
        // real selector answering L's descriptor.
        let mut r = Slot::new(false);
        let (ev, _) = r.on_signal(fwd_open);
        assert!(matches!(ev, SlotEvent::OpenReceived { .. }));
        let dr = media_desc(&mut r_tags, 2, 5000);
        let sel_r = Selector::sending(dl.tag, MediaAddr::v4(10, 0, 0, 2, 5000), Codec::G711);
        let [oack, select] = r.accept(dr.clone(), sel_r.clone()).unwrap();

        // The oack comes back into side B: the flowlink accepts the pending
        // open on side A, forwarding R's descriptor.
        let (_, out) = inject(&mut fl, LinkSide::B, oack, &mut a, &mut b);
        assert_eq!(b.state(), SlotState::Flowing);
        assert_eq!(a.state(), SlotState::Flowing);
        let oack_to_l = out
            .iter()
            .find_map(|(s, sig)| match (s, sig) {
                (LinkSide::A, Signal::Oack { desc }) => Some(desc.clone()),
                _ => None,
            })
            .expect("oack forwarded to L");
        assert_eq!(oack_to_l.tag, dr.tag, "R's descriptor reaches L unchanged");

        // R's selector follows and is forwarded to L because it answers
        // L's current descriptor.
        let (_, out) = inject(&mut fl, LinkSide::B, select, &mut a, &mut b);
        let sel_to_l = out
            .iter()
            .find_map(|(s, sig)| match (s, sig) {
                (LinkSide::A, Signal::Select { sel }) => Some(sel.clone()),
                _ => None,
            })
            .expect("fresh selector forwarded to L");
        assert_eq!(sel_to_l.answers, dl.tag);
        assert_eq!(sel_to_l.codec, Codec::G711);

        // L answers R's descriptor; the selector is forwarded to R.
        let sel_l = Selector::sending(dr.tag, MediaAddr::v4(10, 0, 0, 1, 4000), Codec::G726);
        let (_, out) = inject(
            &mut fl,
            LinkSide::A,
            Signal::Select { sel: sel_l.clone() },
            &mut a,
            &mut b,
        );
        let sel_to_r = out
            .iter()
            .find_map(|(s, sig)| match (s, sig) {
                (LinkSide::B, Signal::Select { sel }) => Some(sel.clone()),
                _ => None,
            })
            .expect("L's selector forwarded to R");
        assert_eq!(sel_to_r, sel_l);
    }

    #[test]
    fn attach_flowing_closed_opens_the_closed_side() {
        // The bias toward media flow (§IV-A): entering flowLink(s1,s2) with
        // s1 flowing and s2 closed attempts to get s2 flowing, not to close
        // s1. This is the Click-to-Dial busy-tone situation (Fig. 6).
        let mut l_tags = TagSource::new(1);
        let mut fl_old = TagSource::new(99);

        // Bring slot a to flowing by hand (as a previous goal would have).
        let mut a = Slot::new(true);
        let dl = media_desc(&mut l_tags, 1, 4000);
        a.on_signal(Signal::Open {
            medium: Medium::Audio,
            desc: dl.clone(),
        });
        a.accept(
            Descriptor::no_media(fl_old.next()),
            Selector::not_sending(dl.tag),
        )
        .unwrap();
        assert_eq!(a.state(), SlotState::Flowing);

        let mut b = Slot::new(true);
        let mut fl = FlowLink::new(500);
        let out = fl.attach(&mut a, &mut b);
        // The flowlink opens b carrying a's peer descriptor (the phone's).
        let opened: Vec<_> = out
            .iter()
            .filter(|(s, sig)| *s == LinkSide::B && matches!(sig, Signal::Open { .. }))
            .collect();
        assert_eq!(opened.len(), 1);
        match &opened[0].1 {
            Signal::Open { desc, .. } => assert_eq!(desc.tag, dl.tag),
            _ => unreachable!(),
        }
        assert_eq!(a.state(), SlotState::Flowing, "a is not closed");
        assert_eq!(b.state(), SlotState::Opening);
    }

    #[test]
    fn attach_both_flowing_exchanges_descriptors() {
        // Fig. 13's first step: a freshly attached flowlink with two flowing
        // slots sends each slot the most recent descriptor from the other.
        let mut fl_old1 = TagSource::new(98);
        let mut fl_old2 = TagSource::new(99);
        let mut l_tags = TagSource::new(1);
        let mut r_tags = TagSource::new(2);

        let mut a = Slot::new(true);
        let dl = media_desc(&mut l_tags, 1, 4000);
        a.on_signal(Signal::Open {
            medium: Medium::Audio,
            desc: dl.clone(),
        });
        a.accept(
            Descriptor::no_media(fl_old1.next()),
            Selector::not_sending(dl.tag),
        )
        .unwrap();

        let mut b = Slot::new(true);
        let dr = media_desc(&mut r_tags, 2, 5000);
        b.on_signal(Signal::Open {
            medium: Medium::Audio,
            desc: dr.clone(),
        });
        b.accept(
            Descriptor::no_media(fl_old2.next()),
            Selector::not_sending(dr.tag),
        )
        .unwrap();

        let mut fl = FlowLink::new(500);
        let out = fl.attach(&mut a, &mut b);
        let desc_into_a = out.iter().find_map(|(s, sig)| match (s, sig) {
            (LinkSide::A, Signal::Describe { desc }) => Some(desc.tag),
            _ => None,
        });
        let desc_into_b = out.iter().find_map(|(s, sig)| match (s, sig) {
            (LinkSide::B, Signal::Describe { desc }) => Some(desc.tag),
            _ => None,
        });
        assert_eq!(desc_into_a, Some(dr.tag));
        assert_eq!(desc_into_b, Some(dl.tag));
    }

    #[test]
    fn close_propagates_and_reopen_works() {
        // Establish both flowing via the transparent path, close from one
        // end, then reopen: the flowlink must settle in both-closed and then
        // re-establish cleanly.
        let mut fl = FlowLink::new(500);
        let mut a = Slot::new(true);
        let mut b = Slot::new(true);
        fl.attach(&mut a, &mut b);

        let mut l_tags = TagSource::new(1);
        let mut r_tags = TagSource::new(2);
        let dl = media_desc(&mut l_tags, 1, 4000);
        let (_, out) = inject(
            &mut fl,
            LinkSide::A,
            Signal::Open {
                medium: Medium::Audio,
                desc: dl.clone(),
            },
            &mut a,
            &mut b,
        );
        assert!(matches!(out[0].1, Signal::Open { .. }));
        let dr = media_desc(&mut r_tags, 2, 5000);
        inject(
            &mut fl,
            LinkSide::B,
            Signal::Oack { desc: dr.clone() },
            &mut a,
            &mut b,
        );
        assert_eq!(a.state(), SlotState::Flowing);
        assert_eq!(b.state(), SlotState::Flowing);

        // L closes. The flowlink closeacks L (slot auto-response) and sends
        // close toward R.
        let (auto, out) = inject(&mut fl, LinkSide::A, Signal::Close, &mut a, &mut b);
        assert_eq!(auto, vec![Signal::CloseAck]);
        assert!(out
            .iter()
            .any(|(s, sig)| *s == LinkSide::B && *sig == Signal::Close));
        assert_eq!(a.state(), SlotState::Closed);
        assert_eq!(b.state(), SlotState::Closing);

        // R acknowledges; both closed and stable.
        let (_, out) = inject(&mut fl, LinkSide::B, Signal::CloseAck, &mut a, &mut b);
        assert!(out.is_empty());
        assert_eq!(b.state(), SlotState::Closed);

        // L reopens; the open is forwarded again.
        let dl2 = media_desc(&mut l_tags, 1, 4000);
        let (_, out) = inject(
            &mut fl,
            LinkSide::A,
            Signal::Open {
                medium: Medium::Audio,
                desc: dl2,
            },
            &mut a,
            &mut b,
        );
        assert!(out
            .iter()
            .any(|(s, sig)| *s == LinkSide::B && matches!(sig, Signal::Open { .. })));
    }

    #[test]
    fn obsolete_selector_is_absorbed() {
        // §VII / Fig. 13: a selector answering a descriptor that is no
        // longer the other slot's current descriptor is discarded.
        let mut fl = FlowLink::new(500);
        let mut a = Slot::new(true);
        let mut b = Slot::new(true);
        fl.attach(&mut a, &mut b);

        let mut l_tags = TagSource::new(1);
        let mut r_tags = TagSource::new(2);
        let dl = media_desc(&mut l_tags, 1, 4000);
        inject(
            &mut fl,
            LinkSide::A,
            Signal::Open {
                medium: Medium::Audio,
                desc: dl.clone(),
            },
            &mut a,
            &mut b,
        );
        let dr = media_desc(&mut r_tags, 2, 5000);
        inject(
            &mut fl,
            LinkSide::B,
            Signal::Oack { desc: dr.clone() },
            &mut a,
            &mut b,
        );

        // R re-describes itself: b's peer descriptor advances to dr2.
        let dr2 = media_desc(&mut r_tags, 2, 5002);
        let (_, out) = inject(
            &mut fl,
            LinkSide::B,
            Signal::Describe { desc: dr2.clone() },
            &mut a,
            &mut b,
        );
        assert!(
            out.iter()
                .any(|(s, sig)| *s == LinkSide::A && matches!(sig, Signal::Describe { .. })),
            "new descriptor forwarded to L"
        );

        // A selector from L answering the *old* dr is obsolete: absorbed.
        let stale = Selector::sending(dr.tag, MediaAddr::v4(10, 0, 0, 1, 4000), Codec::G711);
        let (_, out) = inject(
            &mut fl,
            LinkSide::A,
            Signal::Select { sel: stale },
            &mut a,
            &mut b,
        );
        assert!(
            !out.iter()
                .any(|(_, sig)| matches!(sig, Signal::Select { .. })),
            "obsolete selector must be absorbed, got {out:?}"
        );

        // A fresh selector answering dr2 is forwarded.
        let fresh = Selector::sending(dr2.tag, MediaAddr::v4(10, 0, 0, 1, 4000), Codec::G711);
        let (_, out) = inject(
            &mut fl,
            LinkSide::A,
            Signal::Select { sel: fresh.clone() },
            &mut a,
            &mut b,
        );
        assert!(out
            .iter()
            .any(|(s, sig)| *s == LinkSide::B && *sig == Signal::Select { sel: fresh.clone() }));
    }

    #[test]
    fn double_pending_opens_resolve_without_deadlock() {
        // Opens arrive on both sides before either is answered: the
        // flowlink must answer both (with the other's descriptor) rather
        // than deadlock waiting for descriptors.
        let mut fl = FlowLink::new(500);
        let mut a = Slot::new(true);
        let mut b = Slot::new(true);
        fl.attach(&mut a, &mut b);

        let mut l_tags = TagSource::new(1);
        let mut r_tags = TagSource::new(2);
        let dl = media_desc(&mut l_tags, 1, 4000);
        let dr = media_desc(&mut r_tags, 2, 5000);

        // Deliver L's open; the flowlink starts opening side B. But R's own
        // open crosses it: side B slot backs off or wins depending on
        // initiator flag. Use a non-initiator slot on B so it backs off.
        let mut b_noninit = Slot::new(false);
        let (_, _out) = inject(
            &mut fl,
            LinkSide::A,
            Signal::Open {
                medium: Medium::Audio,
                desc: dl.clone(),
            },
            &mut a,
            &mut b_noninit,
        );
        assert_eq!(b_noninit.state(), SlotState::Opening);
        // R's open arrives at side B: back off, slot becomes Opened.
        let (_, out) = inject(
            &mut fl,
            LinkSide::B,
            Signal::Open {
                medium: Medium::Audio,
                desc: dr.clone(),
            },
            &mut a,
            &mut b_noninit,
        );
        // Both sides are now pending (A Opened, B Opened): reconcile
        // accepts both with the other's descriptor.
        assert_eq!(a.state(), SlotState::Flowing);
        assert_eq!(b_noninit.state(), SlotState::Flowing);
        let oacks: Vec<_> = out
            .iter()
            .filter(|(_, sig)| matches!(sig, Signal::Oack { .. }))
            .collect();
        assert_eq!(oacks.len(), 2, "both pending opens answered: {out:?}");
        let _ = b; // silence unused in this scenario
    }

    #[test]
    fn flowing_opening_waits_then_updates() {
        // The paper's §VII worked example: slot 1 flowing, slot 2 opening
        // (case 1). When slot 2's oack arrives it is flowing but not
        // up-to-date; the flowlink must send describe with slot 1's
        // descriptor.
        let mut l_tags = TagSource::new(1);
        let mut r_tags = TagSource::new(2);
        let mut old = TagSource::new(99);

        // Slot a: flowing, peer descriptor = L's.
        let mut a = Slot::new(true);
        let dl = media_desc(&mut l_tags, 1, 4000);
        a.on_signal(Signal::Open {
            medium: Medium::Audio,
            desc: dl.clone(),
        });
        a.accept(
            Descriptor::no_media(old.next()),
            Selector::not_sending(dl.tag),
        )
        .unwrap();

        // Slot b: opening — a previous goal sent an open with some stale
        // descriptor that "had nothing to do with this flowlink".
        let mut b = Slot::new(true);
        b.send_open(Medium::Audio, Descriptor::no_media(old.next()))
            .unwrap();

        let mut fl = FlowLink::new(500);
        let out = fl.attach(&mut a, &mut b);
        assert!(
            !out.iter().any(|(s, _)| *s == LinkSide::B),
            "nothing can be sent into an opening slot yet"
        );

        // R accepts the stale open: b becomes flowing with utd(b) false.
        let dr = media_desc(&mut r_tags, 2, 5000);
        let (_, out) = inject(
            &mut fl,
            LinkSide::B,
            Signal::Oack { desc: dr.clone() },
            &mut a,
            &mut b,
        );
        // The flowlink makes b up-to-date by forwarding a's descriptor...
        assert!(out.iter().any(|(s, sig)| matches!(
            (s, sig),
            (LinkSide::B, Signal::Describe { desc }) if desc.tag == dl.tag
        )));
        // ...and a up-to-date with b's newly learned descriptor.
        assert!(out.iter().any(|(s, sig)| matches!(
            (s, sig),
            (LinkSide::A, Signal::Describe { desc }) if desc.tag == dr.tag
        )));
    }
}
