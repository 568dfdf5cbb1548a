//! The `holdSlot` goal (paper §IV-A).
//!
//! Goal: accept a media channel and get it to the *flowing* state, but only
//! if the channel is requested by the other end of the signaling path. If
//! the other end closes the channel it stays closed until the other end asks
//! to open it again. A holdslot emits `oack` signals and never `open` or
//! `close` (§VII). Like `closeSlot` it has no state precondition.
//!
//! (The paper notes `acceptSlot` might be a more accurate name, but keeps
//! `holdSlot` for service programmers; we follow the paper.)

use crate::descriptor::TagSource;
use crate::goal::policy::Policy;
use crate::signal::Signal;
use crate::slot::{Slot, SlotEvent, SlotState};

/// The `holdSlot` goal object (§IV): keeps its slot's channel open but
/// parked — accepting incoming opens, muting flow per its policy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HoldSlot {
    policy: Policy,
    tags: TagSource,
}

impl HoldSlot {
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

    /// `holdSlot(s)` with a server (masquerading, both-muted) policy —
    /// the normal case: "when any of these goal objects opens or accepts a
    /// channel, it mutes media flow on the channel in both directions".
    pub fn server(tag_origin: u64) -> Self {
        Self::with_policy(Policy::Server, tag_origin)
    }

    /// `holdSlot(s)` with an explicit receiving policy.
    pub fn with_policy(policy: Policy, tag_origin: u64) -> Self {
        Self {
            policy,
            tags: TagSource::new(tag_origin),
        }
    }

    /// This end's receiving policy while the slot is held.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The user changed a mute flag (a `modify` event of Fig. 5, permitted
    /// at genuine endpoints per §V). Re-describe and re-select in the
    /// flowing state.
    pub fn modify(&mut self, policy: Policy, slot: &mut Slot) -> Vec<Signal> {
        self.policy = policy;
        let mut out = Vec::new();
        if slot.state() == SlotState::Flowing {
            let desc = self.policy.descriptor(&mut self.tags);
            out.push(slot.send_describe(desc).expect("describe while flowing"));
            if let Some(peer) = slot.peer_desc().cloned() {
                let sel = self.policy.selector_for(&peer);
                out.push(slot.send_select(sel).expect("select while flowing"));
            }
        }
        out
    }

    /// Gain control of the slot in any state; accept a pending open.
    ///
    /// On a slot that is already flowing, the holdslot asserts its own
    /// (muted) identity: it describes itself toward the far end and answers
    /// the current peer descriptor. This is exactly the paper's Snapshot
    /// 1 → 2 transition, where PC "sends a describe signal with noMedia to
    /// A" after taking A's channel off its flowlink (§VI-C) — without it
    /// the far endpoint would keep transmitting toward a stale address.
    pub fn attach(&mut self, slot: &mut Slot) -> Vec<Signal> {
        match slot.state() {
            SlotState::Opened => self.accept(slot),
            SlotState::Flowing => self.assert_identity(slot),
            _ => vec![],
        }
    }

    fn assert_identity(&mut self, slot: &mut Slot) -> Vec<Signal> {
        let desc = self.policy.descriptor(&mut self.tags);
        let mut out = vec![slot.send_describe(desc).expect("describe while flowing")];
        if let Some(peer) = slot.peer_desc().cloned() {
            let sel = self.policy.selector_for(&peer);
            out.push(slot.send_select(sel).expect("select while flowing"));
        }
        out
    }

    /// React to a slot event; emits the signals needed to keep the channel
    /// open but parked.
    pub fn on_event(&mut self, event: &SlotEvent, slot: &mut Slot) -> Vec<Signal> {
        match event {
            SlotEvent::OpenReceived { .. } | SlotEvent::RaceBackoff { .. } => self.accept(slot),
            // A predecessor goal's open was accepted; a holdslot keeps the
            // flowing channel and completes the handshake.
            SlotEvent::Oacked => {
                let sel = self
                    .policy
                    .selector_for(slot.peer_desc().expect("oacked slot is described"));
                vec![slot.send_select(sel).expect("select after oack")]
            }
            SlotEvent::Described => {
                let sel = self
                    .policy
                    .selector_for(slot.peer_desc().expect("described slot has desc"));
                vec![slot.send_select(sel).expect("select answers describe")]
            }
            // The other end closed: stay closed until it opens again.
            SlotEvent::PeerClosed { .. }
            | SlotEvent::CloseAcked
            | SlotEvent::Selected { .. }
            | SlotEvent::RaceIgnored
            | SlotEvent::Ignored(_) => vec![],
        }
    }

    fn accept(&mut self, slot: &mut Slot) -> Vec<Signal> {
        let desc = self.policy.descriptor(&mut self.tags);
        let sel = self
            .policy
            .selector_for(slot.peer_desc().expect("opened slot is described"));
        slot.accept(desc, sel).expect("accept pending open").into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, Medium};
    use crate::descriptor::{Descriptor, MediaAddr};
    use crate::goal::policy::EndpointPolicy;

    fn open_sig(tags: &mut TagSource) -> Signal {
        Signal::Open {
            medium: Medium::Audio,
            desc: Descriptor::media(
                tags.next(),
                MediaAddr::v4(10, 0, 0, 9, 4000),
                vec![Codec::G711],
            ),
        }
    }

    #[test]
    fn accepts_incoming_open() {
        let mut g = HoldSlot::server(100);
        let mut s = Slot::new(true);
        let mut peer = TagSource::new(200);
        let (ev, _) = s.on_signal(open_sig(&mut peer));
        let out = g.on_event(&ev, &mut s);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], Signal::Oack { .. }));
        assert!(matches!(out[1], Signal::Select { .. }));
        assert_eq!(s.state(), SlotState::Flowing);
        // Server policy: not transmitting.
        assert!(!s.tx_enabled());
    }

    #[test]
    fn never_reopens_after_peer_close() {
        let mut g = HoldSlot::server(100);
        let mut s = Slot::new(true);
        let mut peer = TagSource::new(200);
        let (ev, _) = s.on_signal(open_sig(&mut peer));
        g.on_event(&ev, &mut s);
        let (ev, _) = s.on_signal(Signal::Close);
        let out = g.on_event(&ev, &mut s);
        assert!(out.is_empty());
        assert_eq!(s.state(), SlotState::Closed);
    }

    #[test]
    fn attach_on_closed_slot_waits() {
        let mut g = HoldSlot::server(100);
        let mut s = Slot::new(true);
        assert!(g.attach(&mut s).is_empty());
        assert_eq!(s.state(), SlotState::Closed);
    }

    #[test]
    fn attach_accepts_pending_open() {
        let mut g = HoldSlot::server(100);
        let mut s = Slot::new(true);
        let mut peer = TagSource::new(200);
        s.on_signal(open_sig(&mut peer));
        let out = g.attach(&mut s);
        assert_eq!(out.len(), 2);
        assert_eq!(s.state(), SlotState::Flowing);
    }

    #[test]
    fn endpoint_holdslot_transmits_real_media() {
        // A holdslot with an endpoint policy, as used at genuine media
        // endpoints (§V): it answers with a real codec.
        let p = Policy::Endpoint(EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 2, 5000)));
        let mut g = HoldSlot::with_policy(p, 100);
        let mut s = Slot::new(true);
        let mut peer = TagSource::new(200);
        let (ev, _) = s.on_signal(open_sig(&mut peer));
        let out = g.on_event(&ev, &mut s);
        match &out[1] {
            Signal::Select { sel } => {
                assert_eq!(sel.codec, Codec::G711);
                assert!(sel.is_sending());
            }
            other => panic!("expected select, got {other}"),
        }
        assert!(s.tx_enabled());
    }

    #[test]
    fn completes_handshake_for_inherited_opening_slot() {
        // Slot was Opening under a previous goal; holdslot takes over and
        // the oack arrives: holdslot keeps the channel, sending the select.
        let mut s = Slot::new(true);
        let mut tags = TagSource::new(1);
        s.send_open(Medium::Audio, Descriptor::no_media(tags.next()))
            .unwrap();
        let mut g = HoldSlot::server(100);
        assert!(g.attach(&mut s).is_empty());
        let mut peer = TagSource::new(200);
        let (ev, _) = s.on_signal(Signal::Oack {
            desc: Descriptor::no_media(peer.next()),
        });
        let out = g.on_event(&ev, &mut s);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Signal::Select { .. }));
        assert_eq!(s.state(), SlotState::Flowing);
    }
}
