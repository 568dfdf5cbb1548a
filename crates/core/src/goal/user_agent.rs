//! The user-agent goal: a genuine media endpoint's slot controller.
//!
//! Implements the user interface of Fig. 5 over the protocol of Fig. 9:
//! users can open, accept, reject, close, and modify (change `mute` flags),
//! at any time. §V notes that endpoints could equivalently be programmed
//! with the three single-slot goal primitives plus free mute choice; this
//! object packages exactly that freedom behind an explicit command API so
//! endpoints can be scripted by applications, simulations, and the checker.

use crate::codec::Medium;
use crate::descriptor::TagSource;
use crate::error::ProtocolError;
use crate::goal::policy::{EndpointPolicy, Policy};
use crate::signal::Signal;
use crate::slot::{Slot, SlotEvent, SlotState};

/// Whether incoming opens are accepted automatically (a resource that
/// always answers) or surfaced to the user first (a ringing telephone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceptMode {
    /// Accept incoming opens automatically.
    Auto,
    /// Surface incoming opens to the user as [`UserNote::Ringing`].
    Manual,
}

/// User-initiated events of Fig. 5 (those marked `!` there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserCmd {
    /// Open a media channel of the given medium.
    Open(Medium),
    /// Accept a pending incoming open.
    Accept,
    /// Reject a pending incoming open.
    Reject,
    /// Close the channel.
    Close,
    /// Change this end's mute choices.
    Modify {
        /// Stop receiving (advertise `noMedia`).
        mute_in: bool,
        /// Stop sending (select `noMedia`).
        mute_out: bool,
    },
}

/// Peer-initiated events of Fig. 5 (those marked `?`), surfaced to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserNote {
    /// An open request arrived (the device would ring).
    Ringing(Medium),
    /// Our open was accepted; the channel is flowing.
    Accepted,
    /// Our open was rejected, or the flowing channel was closed.
    Closed,
    /// The peer modified its end (advisory only: each end is responsible
    /// for implementing the `mute` values chosen at its end, §III-B).
    PeerModified,
}

/// A genuine media endpoint's controller for one slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UserAgent {
    policy: EndpointPolicy,
    accept_mode: AcceptMode,
    tags: TagSource,
}

impl UserAgent {
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

    /// A user agent with the given endpoint policy and accept mode.
    pub fn new(policy: EndpointPolicy, accept_mode: AcceptMode, tag_origin: u64) -> Self {
        Self {
            policy,
            accept_mode,
            tags: TagSource::new(tag_origin),
        }
    }

    /// The endpoint's current media policy.
    pub fn policy(&self) -> &EndpointPolicy {
        &self.policy
    }

    fn as_policy(&self) -> Policy {
        Policy::Endpoint(self.policy.clone())
    }

    /// Execute a user command against the slot.
    pub fn command(&mut self, cmd: UserCmd, slot: &mut Slot) -> Result<Vec<Signal>, ProtocolError> {
        match cmd {
            UserCmd::Open(medium) => {
                let desc = self.as_policy().descriptor(&mut self.tags);
                Ok(vec![slot.send_open(medium, desc)?])
            }
            UserCmd::Accept => {
                let desc = self.as_policy().descriptor(&mut self.tags);
                let peer = slot
                    .peer_desc()
                    .cloned()
                    .ok_or(ProtocolError::InvalidRecord("no pending open to accept"))?;
                let sel = self.as_policy().selector_for(&peer);
                Ok(slot.accept(desc, sel)?.into())
            }
            UserCmd::Reject | UserCmd::Close => Ok(vec![slot.send_close()?]),
            UserCmd::Modify { mute_in, mute_out } => {
                let in_changed = self.policy.mute_in != mute_in;
                let out_changed = self.policy.mute_out != mute_out;
                self.policy.mute_in = mute_in;
                self.policy.mute_out = mute_out;
                let mut out = Vec::new();
                if slot.state() == SlotState::Flowing {
                    if in_changed {
                        let desc = self.as_policy().descriptor(&mut self.tags);
                        out.push(slot.send_describe(desc)?);
                    }
                    if out_changed {
                        if let Some(peer) = slot.peer_desc().cloned() {
                            let sel = self.as_policy().selector_for(&peer);
                            out.push(slot.send_select(sel)?);
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// React to a slot event: protocol-mandated responses plus a user
    /// notification where Fig. 5 has a `?` event.
    pub fn on_event(&mut self, event: &SlotEvent, slot: &mut Slot) -> (Vec<Signal>, Vec<UserNote>) {
        match event {
            SlotEvent::OpenReceived { medium } | SlotEvent::RaceBackoff { medium } => {
                match self.accept_mode {
                    AcceptMode::Auto => {
                        let desc = self.as_policy().descriptor(&mut self.tags);
                        let peer = slot.peer_desc().cloned().expect("opened slot is described");
                        let sel = self.as_policy().selector_for(&peer);
                        let sigs = slot.accept(desc, sel).expect("accept pending open");
                        (sigs.into(), vec![UserNote::Ringing(*medium)])
                    }
                    AcceptMode::Manual => (vec![], vec![UserNote::Ringing(*medium)]),
                }
            }
            SlotEvent::Oacked => {
                let peer = slot.peer_desc().cloned().expect("oacked slot is described");
                let sel = self.as_policy().selector_for(&peer);
                let sig = slot.send_select(sel).expect("select after oack");
                (vec![sig], vec![UserNote::Accepted])
            }
            SlotEvent::PeerClosed { .. } => (vec![], vec![UserNote::Closed]),
            SlotEvent::Described => {
                let peer = slot.peer_desc().cloned().expect("described slot has desc");
                let sel = self.as_policy().selector_for(&peer);
                let sig = slot.send_select(sel).expect("select answers describe");
                (vec![sig], vec![UserNote::PeerModified])
            }
            SlotEvent::Selected { .. } => (vec![], vec![UserNote::PeerModified]),
            SlotEvent::CloseAcked | SlotEvent::RaceIgnored | SlotEvent::Ignored(_) => {
                (vec![], vec![])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::descriptor::MediaAddr;

    fn agent(host: u8, origin: u64) -> UserAgent {
        UserAgent::new(
            EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, host, 4000)),
            AcceptMode::Auto,
            origin,
        )
    }

    /// Connect two user agents over a direct tunnel and pump messages until
    /// quiescent. Returns final notes.
    fn pump(
        a: (&mut UserAgent, &mut Slot),
        b: (&mut UserAgent, &mut Slot),
        mut queue_ab: Vec<Signal>,
    ) -> Vec<UserNote> {
        let mut notes = Vec::new();
        let mut queue_ba: Vec<Signal> = Vec::new();
        let (ua, sa) = a;
        let (ub, sb) = b;
        for _ in 0..64 {
            if queue_ab.is_empty() && queue_ba.is_empty() {
                break;
            }
            if let Some(sig) = queue_ab.first().cloned() {
                queue_ab.remove(0);
                let (ev, auto) = sb.on_signal(sig);
                queue_ba.extend(auto);
                let (sigs, ns) = ub.on_event(&ev, sb);
                queue_ba.extend(sigs);
                notes.extend(ns);
            }
            if let Some(sig) = queue_ba.first().cloned() {
                queue_ba.remove(0);
                let (ev, auto) = sa.on_signal(sig);
                queue_ab.extend(auto);
                let (sigs, ns) = ua.on_event(&ev, sa);
                queue_ab.extend(sigs);
                notes.extend(ns);
            }
        }
        notes
    }

    #[test]
    fn two_endpoints_establish_two_way_media() {
        let mut ua = agent(1, 10);
        let mut ub = agent(2, 20);
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);

        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        let notes = pump((&mut ua, &mut sa), (&mut ub, &mut sb), opens);

        assert_eq!(sa.state(), SlotState::Flowing);
        assert_eq!(sb.state(), SlotState::Flowing);
        assert!(sa.tx_enabled() && sb.tx_enabled());
        assert!(sa.rx_expected() && sb.rx_expected());
        assert!(notes.contains(&UserNote::Accepted));
        // Optimal codec: both prefer G.711.
        assert_eq!(sa.sent_sel().unwrap().codec, Codec::G711);
        assert_eq!(sb.sent_sel().unwrap().codec, Codec::G711);
    }

    #[test]
    fn manual_mode_rings_until_accepted() {
        let mut ua = agent(1, 10);
        let mut ub = UserAgent::new(
            EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 2, 4000)),
            AcceptMode::Manual,
            20,
        );
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);

        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        let (ev, _) = sb.on_signal(opens.into_iter().next().unwrap());
        let (sigs, notes) = ub.on_event(&ev, &mut sb);
        assert!(sigs.is_empty(), "manual mode does not auto-accept");
        assert_eq!(notes, vec![UserNote::Ringing(Medium::Audio)]);
        assert_eq!(sb.state(), SlotState::Opened);

        // User accepts.
        let sigs = ub.command(UserCmd::Accept, &mut sb).unwrap();
        assert_eq!(sigs.len(), 2);
        let notes = pump((&mut ua, &mut sa), (&mut ub, &mut sb), vec![]);
        let _ = notes;
        // Deliver oack+select manually:
        for sig in sigs {
            let (ev, _) = sa.on_signal(sig);
            ua.on_event(&ev, &mut sa);
        }
        assert_eq!(sa.state(), SlotState::Flowing);
    }

    #[test]
    fn reject_closes_pending_open() {
        let mut ua = agent(1, 10);
        let mut ub = UserAgent::new(
            EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 2, 4000)),
            AcceptMode::Manual,
            20,
        );
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);
        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        sb.on_signal(opens.into_iter().next().unwrap());
        let sigs = ub.command(UserCmd::Reject, &mut sb).unwrap();
        assert_eq!(sigs, vec![Signal::Close]);
        let (ev, auto) = sa.on_signal(Signal::Close);
        assert!(matches!(
            ev,
            SlotEvent::PeerClosed {
                was: SlotState::Opening
            }
        ));
        assert_eq!(auto, vec![Signal::CloseAck]);
    }

    #[test]
    fn modify_mute_out_stops_transmission() {
        let mut ua = agent(1, 10);
        let mut ub = agent(2, 20);
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);
        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        pump((&mut ua, &mut sa), (&mut ub, &mut sb), opens);
        assert!(sa.tx_enabled());

        // A mutes outward: sends select(noMedia); transmission disabled.
        let sigs = ua
            .command(
                UserCmd::Modify {
                    mute_in: false,
                    mute_out: true,
                },
                &mut sa,
            )
            .unwrap();
        assert_eq!(sigs.len(), 1);
        assert!(matches!(&sigs[0], Signal::Select { sel } if !sel.is_sending()));
        assert!(!sa.tx_enabled());
        // B learns A is not sending.
        let notes = pump((&mut ua, &mut sa), (&mut ub, &mut sb), sigs);
        assert!(notes.contains(&UserNote::PeerModified));
        assert!(!sb.rx_expected());
        // B→A direction is unaffected (independent directions, §VI-C).
        assert!(sb.tx_enabled());
    }

    #[test]
    fn modify_mute_in_redescribes_and_peer_reselects() {
        let mut ua = agent(1, 10);
        let mut ub = agent(2, 20);
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);
        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        pump((&mut ua, &mut sa), (&mut ub, &mut sb), opens);
        assert!(sb.tx_enabled());

        // A mutes inward: describe(noMedia); B must answer select(noMedia).
        let sigs = ua
            .command(
                UserCmd::Modify {
                    mute_in: true,
                    mute_out: false,
                },
                &mut sa,
            )
            .unwrap();
        assert!(matches!(&sigs[0], Signal::Describe { desc } if desc.is_no_media()));
        pump((&mut ua, &mut sa), (&mut ub, &mut sb), sigs);
        assert!(!sb.tx_enabled(), "B stopped sending after A muted in");
        assert!(sa.tx_enabled(), "A→B unaffected");

        // Unmute: flow resumes.
        let sigs = ua
            .command(
                UserCmd::Modify {
                    mute_in: false,
                    mute_out: false,
                },
                &mut sa,
            )
            .unwrap();
        pump((&mut ua, &mut sa), (&mut ub, &mut sb), sigs);
        assert!(
            sb.tx_enabled(),
            "B resumed after A unmuted: recurrence of bothFlowing"
        );
    }

    #[test]
    fn user_close_from_flowing() {
        let mut ua = agent(1, 10);
        let mut ub = agent(2, 20);
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);
        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        pump((&mut ua, &mut sa), (&mut ub, &mut sb), opens);

        let sigs = ua.command(UserCmd::Close, &mut sa).unwrap();
        let notes = pump((&mut ua, &mut sa), (&mut ub, &mut sb), sigs);
        assert!(notes.contains(&UserNote::Closed));
        assert_eq!(sa.state(), SlotState::Closed);
        assert_eq!(sb.state(), SlotState::Closed);
    }

    #[test]
    fn tx_route_points_at_peer_descriptor() {
        let mut ua = agent(1, 10);
        let mut ub = agent(2, 20);
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);
        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        pump((&mut ua, &mut sa), (&mut ub, &mut sb), opens);
        let (to, codec) = sa.tx_route().expect("A transmits");
        assert_eq!(to, MediaAddr::v4(10, 0, 0, 2, 4000));
        assert_eq!(codec, Codec::G711);
        let (to, _) = sb.tx_route().expect("B transmits");
        assert_eq!(to, MediaAddr::v4(10, 0, 0, 1, 4000));
    }

    #[test]
    fn open_while_live_is_an_error() {
        let mut ua = agent(1, 10);
        let mut sa = Slot::new(true);
        ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        let err = ua.command(UserCmd::Open(Medium::Audio), &mut sa);
        assert!(matches!(err, Err(ProtocolError::BadState { .. })));
    }

    #[test]
    fn descriptor_tags_advance_per_modify() {
        let mut ua = agent(1, 10);
        let mut ub = agent(2, 20);
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);
        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        pump((&mut ua, &mut sa), (&mut ub, &mut sb), opens);
        let t0 = sa.sent_desc().unwrap().tag;
        let sigs = ua
            .command(
                UserCmd::Modify {
                    mute_in: true,
                    mute_out: false,
                },
                &mut sa,
            )
            .unwrap();
        let t1 = sa.sent_desc().unwrap().tag;
        assert_eq!(t0.origin, t1.origin);
        assert!(t1.generation > t0.generation);
        let _ = sigs;
    }

    #[test]
    fn describe_from_peer_gets_fresh_select_answer() {
        let mut ua = agent(1, 10);
        let mut ub = agent(2, 20);
        let mut sa = Slot::new(true);
        let mut sb = Slot::new(false);
        let opens = ua.command(UserCmd::Open(Medium::Audio), &mut sa).unwrap();
        pump((&mut ua, &mut sa), (&mut ub, &mut sb), opens);

        // B re-describes (e.g. address change simulated by mute toggle off→on→off
        // would be a no-op; drive the describe directly through modify).
        let sigs = ub
            .command(
                UserCmd::Modify {
                    mute_in: true,
                    mute_out: false,
                },
                &mut sb,
            )
            .unwrap();
        let new_tag = match &sigs[0] {
            Signal::Describe { desc } => desc.tag,
            other => panic!("expected describe, got {other}"),
        };
        let (ev, _) = sa.on_signal(sigs.into_iter().next().unwrap());
        let (answer, _) = ua.on_event(&ev, &mut sa);
        match &answer[0] {
            Signal::Select { sel } => {
                assert_eq!(sel.answers, new_tag);
                assert!(
                    !sel.is_sending(),
                    "noMedia descriptor must get noMedia answer"
                );
            }
            other => panic!("expected select, got {other}"),
        }
    }
}
