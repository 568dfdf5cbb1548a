//! The box: container of slots, goal objects, and the `Maps` association
//! between them (paper §VII, Fig. 11).
//!
//! A box receives signals from its tunnels, uses `Maps` to find the goal
//! object controlling the slot, shows the signal to the goal via the slot,
//! and transmits whatever the goal emits. High-level box programs manipulate
//! media only by re-assigning goals to slots ([`MediaBox::set_goal`]).

use crate::error::ProtocolError;
use crate::goal::{self, FlowLink, Goal, LinkSide, Outgoing, UserCmd, UserNote};
use crate::ids::{BoxId, SlotId};
use crate::signal::Signal;
use crate::slot::{Slot, SlotEvent, SlotState};
use ipmedia_obs::{NoopObserver, Observer};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identity of a goal object within its box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GoalId(pub u32);

/// What slots a goal controls.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Controlled {
    One(SlotId),
    Two(SlotId, SlotId),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GoalEntry {
    goal: Goal,
    controls: Controlled,
}

/// Everything the box reports upward to its program / application logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoxNote {
    /// A slot event occurred (after the goal object reacted to it).
    Slot {
        /// The slot the event happened on.
        slot: SlotId,
        /// The event itself.
        event: SlotEvent,
    },
    /// A user-agent goal surfaced a Fig. 5 `?` event.
    User {
        /// The user-agent slot the note concerns.
        slot: SlotId,
        /// The surfaced note.
        note: UserNote,
    },
}

/// The desired goal for a slot (or pair), as written in a program-state
/// annotation (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoalSpec {
    /// Annotate `slot` with an `openSlot` goal.
    Open {
        /// The slot to control.
        slot: SlotId,
        /// Medium to open.
        medium: crate::codec::Medium,
        /// Receiving policy of this end.
        policy: goal::Policy,
    },
    /// Annotate `slot` with a `closeSlot` goal.
    Close {
        /// The slot to control.
        slot: SlotId,
    },
    /// Annotate `slot` with a `holdSlot` goal.
    Hold {
        /// The slot to control.
        slot: SlotId,
        /// Receiving policy of this end while held.
        policy: goal::Policy,
    },
    /// Annotate `slot` with an interactive `userAgent` goal.
    User {
        /// The slot to control.
        slot: SlotId,
        /// The endpoint's media policy.
        policy: goal::EndpointPolicy,
        /// How incoming opens are answered.
        mode: goal::AcceptMode,
    },
    /// Annotate slots `a` and `b` with one `flowLink` goal.
    Link {
        /// One linked slot.
        a: SlotId,
        /// The other linked slot.
        b: SlotId,
    },
}

impl GoalSpec {
    fn slots(&self) -> Controlled {
        match *self {
            GoalSpec::Open { slot, .. }
            | GoalSpec::Close { slot }
            | GoalSpec::Hold { slot, .. }
            | GoalSpec::User { slot, .. } => Controlled::One(slot),
            GoalSpec::Link { a, b } => Controlled::Two(a, b),
        }
    }
}

/// Entries a [`SmallMap`] holds in its sorted `Vec` before it becomes a
/// B-tree. Replacing a goal shifts the `Vec` entries behind the old one,
/// so past this size a B-tree is cheaper: on a box of that many slots,
/// each with a user-agent goal, the two cost the same per `set_goal`
/// near 200 to 250 slots (EXPERIMENTS.md S1).
const SPILL: usize = 192;

/// A `MediaBox` map: a `Vec` sorted by key and searched by bisection
/// while it is small, a `BTreeMap` once it has held more than [`SPILL`]
/// entries. A netsim box holds one to three slots and goals, where a
/// B-tree would allocate a full eleven-entry leaf for the first; an rt
/// node's single box holds every slot of every channel it serves.
/// Equality, hashing and `Debug` output depend only on the entries, and
/// are those of the ordered map.
#[derive(Clone)]
enum SmallMap<K, V> {
    Vec(Vec<(K, V)>),
    Tree(BTreeMap<K, V>),
}

fn find<K: Ord, V>(v: &[(K, V)], k: &K) -> Result<usize, usize> {
    v.binary_search_by(|(x, _)| x.cmp(k))
}

impl<K: Ord + Copy, V> SmallMap<K, V> {
    const fn new() -> Self {
        Self::Vec(Vec::new())
    }

    fn len(&self) -> usize {
        match self {
            Self::Vec(v) => v.len(),
            Self::Tree(m) => m.len(),
        }
    }

    fn get(&self, k: K) -> Option<&V> {
        match self {
            Self::Vec(v) => find(v, &k).ok().map(|i| &v[i].1),
            Self::Tree(m) => m.get(&k),
        }
    }

    fn get_mut(&mut self, k: K) -> Option<&mut V> {
        match self {
            Self::Vec(v) => find(v, &k).ok().map(|i| &mut v[i].1),
            Self::Tree(m) => m.get_mut(&k),
        }
    }

    fn contains_key(&self, k: K) -> bool {
        self.get(k).is_some()
    }

    fn insert(&mut self, k: K, val: V) -> Option<V> {
        match self {
            Self::Vec(v) => match find(v, &k) {
                Ok(i) => Some(std::mem::replace(&mut v[i].1, val)),
                Err(i) if v.len() < SPILL => {
                    v.insert(i, (k, val));
                    None
                }
                Err(_) => {
                    let mut m: BTreeMap<K, V> = std::mem::take(v).into_iter().collect();
                    m.insert(k, val);
                    *self = Self::Tree(m);
                    None
                }
            },
            Self::Tree(m) => m.insert(k, val),
        }
    }

    fn remove(&mut self, k: K) -> Option<V> {
        match self {
            Self::Vec(v) => find(v, &k).ok().map(|i| v.remove(i).1),
            Self::Tree(m) => m.remove(&k),
        }
    }

    /// Entries in key order.
    fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        let (vec, tree) = match self {
            Self::Vec(v) => (Some(v), None),
            Self::Tree(m) => (None, Some(m)),
        };
        let vec = vec.into_iter().flatten().map(|(k, v)| (k, v));
        vec.chain(tree.into_iter().flatten())
    }

    fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| *k)
    }

    /// Mutable access to the values of two distinct present keys.
    fn pair_mut(&mut self, first: K, second: K) -> (&mut V, &mut V) {
        assert!(first != second, "pair_mut needs distinct keys");
        let (low, high) = match self {
            Self::Vec(v) => {
                let i = find(v, &first).expect("first key present");
                let j = find(v, &second).expect("second key present");
                let (lo, hi) = v.split_at_mut(i.max(j));
                (&mut lo[i.min(j)].1, &mut hi[0].1)
            }
            Self::Tree(m) => {
                let mut range = m.range_mut(first.min(second)..=first.max(second));
                let (lo, low) = range.next().expect("keys present");
                let (hi, high) = range.next_back().expect("keys present");
                assert!(
                    *lo == first.min(second) && *hi == first.max(second),
                    "pair_mut keys present"
                );
                (low, high)
            }
        };
        if first < second {
            (low, high)
        } else {
            (high, low)
        }
    }
}

impl<K: Ord + Copy, V: PartialEq> PartialEq for SmallMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<K: Ord + Copy, V: Eq> Eq for SmallMap<K, V> {}

impl<K: Ord + Copy + Hash, V: Hash> Hash for SmallMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        self.iter().for_each(|entry| entry.hash(state));
    }
}

impl<K: Ord + Copy + fmt::Debug, V: fmt::Debug> fmt::Debug for SmallMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Protocol states of the slots a change may touch (one slot, or both
/// ends of a flowlink), snapshotted for transition reporting. Every
/// stimulus takes one, so it is a fixed array with a length rather than
/// a heap allocation.
struct Snapshot {
    states: [(SlotId, SlotState); 2],
    len: usize,
}

impl Snapshot {
    fn as_slice(&self) -> &[(SlotId, SlotState)] {
        &self.states[..self.len]
    }
}

/// A peer module involved in media control: slots + goals + maps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MediaBox {
    id: BoxId,
    slots: SmallMap<SlotId, Slot>,
    goals: SmallMap<GoalId, GoalEntry>,
    /// The `Maps` object: dynamic association between slots and goals.
    maps: SmallMap<SlotId, GoalId>,
    next_goal: u32,
    next_origin: u64,
}

impl MediaBox {
    /// New empty box with the given identity.
    pub fn new(id: BoxId) -> Self {
        Self {
            id,
            slots: SmallMap::new(),
            goals: SmallMap::new(),
            maps: SmallMap::new(),
            next_goal: 0,
            next_origin: 0,
        }
    }

    /// This box's identity.
    pub fn id(&self) -> BoxId {
        self.id
    }

    /// Register a slot (one end of a tunnel). `initiator` must be true iff
    /// this box initiated setup of the slot's signaling channel.
    pub fn add_slot(&mut self, id: SlotId, initiator: bool) {
        let prev = self.slots.insert(id, Slot::new(initiator));
        assert!(prev.is_none(), "slot {id} already exists");
    }

    /// Destroy a slot (its signaling channel was torn down). Any goal
    /// controlling it dies; a flowlink's other slot becomes uncontrolled.
    pub fn remove_slot(&mut self, id: SlotId) {
        self.slots.remove(id);
        self.drop_goal_of(id);
    }

    /// Read access to a slot, for guard predicates.
    pub fn slot(&self, id: SlotId) -> Option<&Slot> {
        self.slots.get(id)
    }

    /// All registered slot ids, in order.
    pub fn slot_ids(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots.keys()
    }

    /// The goal currently controlling a slot, if any.
    pub fn goal_of(&self, id: SlotId) -> Option<&Goal> {
        self.maps
            .get(id)
            .and_then(|&g| self.goals.get(g))
            .map(|e| &e.goal)
    }

    /// Mint a tag origin unique within the system (box id in the high bits).
    fn fresh_origin(&mut self) -> u64 {
        let o = (u64::from(self.id.0) << 24) | self.next_origin;
        self.next_origin += 1;
        o
    }

    fn drop_goal_of(&mut self, slot: SlotId) {
        self.drop_goal_of_obs(slot, &mut NoopObserver);
    }

    fn drop_goal_of_obs<O: Observer + ?Sized>(&mut self, slot: SlotId, obs: &mut O) {
        if let Some(gid) = self.maps.remove(slot) {
            if let Some(entry) = self.goals.remove(gid) {
                obs.goal_dropped(self.id.0, slot.0, entry.goal.kind());
                // A flowlink's other slot loses its controller too; the
                // program must assign it a new goal.
                if let Controlled::Two(a, b) = entry.controls {
                    let other = if a == slot { b } else { a };
                    self.maps.remove(other);
                }
            }
        }
    }

    /// Snapshot the protocol states of the (at most two) slots a change
    /// may touch, for transition reporting; absent slots are skipped.
    fn states_of(&self, slots: &[SlotId]) -> Snapshot {
        let mut snap = Snapshot {
            states: [(SlotId(0), SlotState::Closed); 2],
            len: 0,
        };
        for &s in slots {
            if let Some(slot) = self.slots.get(s) {
                snap.states[snap.len] = (s, slot.state());
                snap.len += 1;
            }
        }
        snap
    }

    /// Report every state change relative to `before` with the given cause.
    fn observe_transitions<O: Observer + ?Sized>(
        &self,
        obs: &mut O,
        before: &Snapshot,
        cause: &'static str,
    ) {
        for &(slot, was) in before.as_slice() {
            if let Some(now) = self.slots.get(slot).map(Slot::state) {
                if now != was {
                    obs.slot_transition(self.id.0, slot.0, was.name(), now.name(), cause);
                }
            }
        }
    }

    /// Report protocol-level meanings of a slot event: races and tolerated
    /// (idempotently dropped) signals.
    fn observe_event<O: Observer + ?Sized>(&self, obs: &mut O, slot: SlotId, event: &SlotEvent) {
        match event {
            SlotEvent::RaceBackoff { .. } => obs.race_resolved(self.id.0, slot.0, false),
            SlotEvent::RaceIgnored => obs.race_resolved(self.id.0, slot.0, true),
            SlotEvent::Ignored(reason) => obs.signal_ignored(self.id.0, slot.0, reason),
            _ => {}
        }
    }

    /// Put slots under the control of a new goal object, as a program-state
    /// annotation does. Returns the signals the new goal emits on gaining
    /// control. Reassignment destroys the slots' previous goal objects
    /// ("the slots are moved elsewhere and this goal object becomes
    /// garbage", §VII).
    pub fn set_goal(&mut self, spec: GoalSpec) -> Vec<Outgoing> {
        self.set_goal_obs(spec, &mut NoopObserver)
    }

    /// [`MediaBox::set_goal`] with observability: reports the dropped and
    /// activated goals and any slot transitions the new goal causes.
    pub fn set_goal_obs<O: Observer + ?Sized>(
        &mut self,
        spec: GoalSpec,
        obs: &mut O,
    ) -> Vec<Outgoing> {
        let controls = spec.slots();
        let (watched, n) = match controls {
            Controlled::One(s) => ([s, s], 1),
            Controlled::Two(a, b) => ([a, b], 2),
        };
        let before = self.states_of(&watched[..n]);
        match controls {
            Controlled::One(s) => {
                assert!(self.slots.contains_key(s), "unknown slot {s}");
                self.drop_goal_of_obs(s, obs);
            }
            Controlled::Two(a, b) => {
                assert!(a != b, "flowLink needs two distinct slots");
                assert!(self.slots.contains_key(a), "unknown slot {a}");
                assert!(self.slots.contains_key(b), "unknown slot {b}");
                self.drop_goal_of_obs(a, obs);
                self.drop_goal_of_obs(b, obs);
            }
        }
        let origin = self.fresh_origin();
        let mut new_goal = match &spec {
            GoalSpec::Open { medium, policy, .. } => {
                Goal::Open(goal::OpenSlot::with_policy(*medium, policy.clone(), origin))
            }
            GoalSpec::Close { .. } => Goal::Close(goal::CloseSlot::new()),
            GoalSpec::Hold { policy, .. } => {
                Goal::Hold(goal::HoldSlot::with_policy(policy.clone(), origin))
            }
            GoalSpec::User { policy, mode, .. } => {
                Goal::User(goal::UserAgent::new(policy.clone(), *mode, origin))
            }
            GoalSpec::Link { .. } => Goal::Link(FlowLink::new(origin)),
        };

        let out = match controls {
            Controlled::One(s) => {
                let slot = self.slots.get_mut(s).expect("checked above");
                goal::attach_single(&mut new_goal, slot)
                    .into_iter()
                    .map(|signal| Outgoing { slot: s, signal })
                    .collect()
            }
            Controlled::Two(a, b) => {
                let (sa, sb) = self.slots.pair_mut(a, b);
                let Goal::Link(link) = &mut new_goal else {
                    unreachable!()
                };
                link.attach(sa, sb)
                    .into_iter()
                    .map(|(side, signal)| Outgoing {
                        slot: if side == LinkSide::A { a } else { b },
                        signal,
                    })
                    .collect()
            }
        };

        let gid = GoalId(self.next_goal);
        self.next_goal += 1;
        match controls {
            Controlled::One(s) => {
                self.maps.insert(s, gid);
            }
            Controlled::Two(a, b) => {
                self.maps.insert(a, gid);
                self.maps.insert(b, gid);
            }
        }
        obs.goal_activated(self.id.0, watched[0].0, new_goal.kind());
        self.goals.insert(
            gid,
            GoalEntry {
                goal: new_goal,
                controls,
            },
        );
        self.observe_transitions(obs, &before, "goal");
        out
    }

    /// Deliver one tunnel signal to its slot and the controlling goal.
    pub fn on_signal(&mut self, slot_id: SlotId, signal: Signal) -> (Vec<Outgoing>, Vec<BoxNote>) {
        self.on_signal_obs(slot_id, signal, &mut NoopObserver)
    }

    /// [`MediaBox::on_signal`] with observability: reports the received
    /// signal, any slot transitions it causes (across both slots of a
    /// flowlink), resolved open/open races, and tolerated stale signals.
    pub fn on_signal_obs<O: Observer + ?Sized>(
        &mut self,
        slot_id: SlotId,
        signal: Signal,
        obs: &mut O,
    ) -> (Vec<Outgoing>, Vec<BoxNote>) {
        let kind = signal.kind();
        obs.signal_received(self.id.0, slot_id.0, kind);
        let (watched, n) = match self.maps.get(slot_id).and_then(|&g| self.goals.get(g)) {
            Some(GoalEntry {
                controls: Controlled::Two(a, b),
                ..
            }) => ([*a, *b], 2),
            _ => ([slot_id, slot_id], 1),
        };
        let before = self.states_of(&watched[..n]);
        let (out, notes) = self.on_signal_inner(slot_id, signal);
        self.observe_transitions(obs, &before, kind);
        for note in &notes {
            if let BoxNote::Slot { slot, event } = note {
                self.observe_event(obs, *slot, event);
            }
        }
        (out, notes)
    }

    fn on_signal_inner(
        &mut self,
        slot_id: SlotId,
        signal: Signal,
    ) -> (Vec<Outgoing>, Vec<BoxNote>) {
        let Some(gid) = self.maps.get(slot_id).copied() else {
            // Uncontrolled slot: apply protocol-mandated auto responses
            // only, and surface the event so the program can react.
            let Some(slot) = self.slots.get_mut(slot_id) else {
                return (vec![], vec![]);
            };
            let (event, auto) = slot.on_signal(signal);
            let out = auto
                .into_iter()
                .map(|signal| Outgoing {
                    slot: slot_id,
                    signal,
                })
                .collect();
            return (
                out,
                vec![BoxNote::Slot {
                    slot: slot_id,
                    event,
                }],
            );
        };

        let entry = self.goals.get(gid).expect("maps points at live goal");
        match entry.controls {
            Controlled::One(s) => {
                debug_assert_eq!(s, slot_id);
                let slot = self.slots.get_mut(s).expect("slot exists");
                let (event, auto) = slot.on_signal(signal);
                let mut out: Vec<Outgoing> = auto
                    .into_iter()
                    .map(|signal| Outgoing { slot: s, signal })
                    .collect();
                let entry = self.goals.get_mut(gid).expect("goal exists");
                let (sigs, user_notes) = goal::on_event_single(&mut entry.goal, &event, slot);
                out.extend(sigs.into_iter().map(|signal| Outgoing { slot: s, signal }));
                let mut notes = vec![BoxNote::Slot { slot: s, event }];
                notes.extend(
                    user_notes
                        .into_iter()
                        .map(|note| BoxNote::User { slot: s, note }),
                );
                (out, notes)
            }
            Controlled::Two(a, b) => {
                let side = if slot_id == a {
                    LinkSide::A
                } else {
                    LinkSide::B
                };
                let (sa, sb) = self.slots.pair_mut(a, b);
                let target = if side == LinkSide::A {
                    &mut *sa
                } else {
                    &mut *sb
                };
                let (event, auto) = target.on_signal(signal);
                let mut out: Vec<Outgoing> = auto
                    .into_iter()
                    .map(|signal| Outgoing {
                        slot: slot_id,
                        signal,
                    })
                    .collect();
                let entry = self.goals.get_mut(gid).expect("goal exists");
                let Goal::Link(link) = &mut entry.goal else {
                    unreachable!("two-slot goal is a flowlink")
                };
                out.extend(
                    link.on_event(side, &event, sa, sb)
                        .into_iter()
                        .map(|(s, signal)| Outgoing {
                            slot: if s == LinkSide::A { a } else { b },
                            signal,
                        }),
                );
                (
                    out,
                    vec![BoxNote::Slot {
                        slot: slot_id,
                        event,
                    }],
                )
            }
        }
    }

    /// Issue a Fig. 5 user command to a user-agent-controlled slot.
    pub fn user(&mut self, slot_id: SlotId, cmd: UserCmd) -> Result<Vec<Outgoing>, ProtocolError> {
        self.user_obs(slot_id, cmd, &mut NoopObserver)
    }

    /// [`MediaBox::user`] with observability: reports any slot transition
    /// the command causes, with cause `"user"`.
    pub fn user_obs<O: Observer + ?Sized>(
        &mut self,
        slot_id: SlotId,
        cmd: UserCmd,
        obs: &mut O,
    ) -> Result<Vec<Outgoing>, ProtocolError> {
        let before = self.states_of(&[slot_id]);
        let out = self.user_inner(slot_id, cmd);
        if out.is_ok() {
            self.observe_transitions(obs, &before, "user");
        }
        out
    }

    fn user_inner(
        &mut self,
        slot_id: SlotId,
        cmd: UserCmd,
    ) -> Result<Vec<Outgoing>, ProtocolError> {
        let gid = self
            .maps
            .get(slot_id)
            .copied()
            .ok_or(ProtocolError::InvalidRecord("slot has no goal"))?;
        let entry = self.goals.get_mut(gid).expect("maps points at live goal");
        let Goal::User(agent) = &mut entry.goal else {
            return Err(ProtocolError::InvalidRecord(
                "user commands require a userAgent goal",
            ));
        };
        let slot = self.slots.get_mut(slot_id).expect("slot exists");
        Ok(agent
            .command(cmd, slot)?
            .into_iter()
            .map(|signal| Outgoing {
                slot: slot_id,
                signal,
            })
            .collect())
    }

    /// Update the endpoint policy of a user-agent slot via a modify event.
    pub fn user_modify(
        &mut self,
        slot_id: SlotId,
        mute_in: bool,
        mute_out: bool,
    ) -> Result<Vec<Outgoing>, ProtocolError> {
        self.user(slot_id, UserCmd::Modify { mute_in, mute_out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Medium;
    use crate::descriptor::MediaAddr;
    use crate::goal::{AcceptMode, EndpointPolicy, Policy};
    use crate::slot::SlotState;

    fn server_box() -> MediaBox {
        let mut b = MediaBox::new(BoxId(1));
        b.add_slot(SlotId(0), true);
        b.add_slot(SlotId(1), true);
        b
    }

    #[test]
    fn set_goal_open_emits_open() {
        let mut b = server_box();
        let out = b.set_goal(GoalSpec::Open {
            slot: SlotId(0),
            medium: Medium::Audio,
            policy: Policy::Server,
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slot, SlotId(0));
        assert!(matches!(out[0].signal, Signal::Open { .. }));
        assert_eq!(b.slot(SlotId(0)).unwrap().state(), SlotState::Opening);
        assert_eq!(b.goal_of(SlotId(0)).unwrap().kind(), "openSlot");
    }

    #[test]
    fn reassignment_replaces_goal() {
        let mut b = server_box();
        b.set_goal(GoalSpec::Open {
            slot: SlotId(0),
            medium: Medium::Audio,
            policy: Policy::Server,
        });
        let out = b.set_goal(GoalSpec::Close { slot: SlotId(0) });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].signal, Signal::Close);
        assert_eq!(b.goal_of(SlotId(0)).unwrap().kind(), "closeSlot");
    }

    #[test]
    fn flowlink_controls_two_slots_and_breaks_on_reassignment() {
        let mut b = server_box();
        b.set_goal(GoalSpec::Link {
            a: SlotId(0),
            b: SlotId(1),
        });
        assert_eq!(b.goal_of(SlotId(0)).unwrap().kind(), "flowLink");
        assert_eq!(b.goal_of(SlotId(1)).unwrap().kind(), "flowLink");
        // Reassigning one slot destroys the link; the other slot is left
        // uncontrolled until the program assigns it.
        b.set_goal(GoalSpec::Hold {
            slot: SlotId(0),
            policy: Policy::Server,
        });
        assert_eq!(b.goal_of(SlotId(0)).unwrap().kind(), "holdSlot");
        assert!(b.goal_of(SlotId(1)).is_none());
    }

    #[test]
    fn signal_through_flowlink_is_forwarded() {
        let mut b = server_box();
        b.set_goal(GoalSpec::Link {
            a: SlotId(0),
            b: SlotId(1),
        });
        let mut tags = crate::descriptor::TagSource::new(77);
        let desc = crate::descriptor::Descriptor::media(
            tags.next(),
            MediaAddr::v4(10, 0, 0, 9, 4000),
            vec![crate::codec::Codec::G711],
        );
        let (out, notes) = b.on_signal(
            SlotId(0),
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
        );
        assert!(out
            .iter()
            .any(|o| o.slot == SlotId(1) && matches!(o.signal, Signal::Open { .. })));
        assert_eq!(notes.len(), 1);
    }

    #[test]
    fn uncontrolled_slot_still_auto_acks_close() {
        let mut b = server_box();
        // No goal assigned; an incoming open is surfaced but unanswered.
        let mut tags = crate::descriptor::TagSource::new(77);
        let desc = crate::descriptor::Descriptor::no_media(tags.next());
        let (out, notes) = b.on_signal(
            SlotId(0),
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
        );
        assert!(out.is_empty());
        assert!(matches!(
            notes[0],
            BoxNote::Slot {
                event: SlotEvent::OpenReceived { .. },
                ..
            }
        ));
        // And a close gets its mandatory ack even without a goal.
        let (out, _) = b.on_signal(SlotId(0), Signal::Close);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].signal, Signal::CloseAck);
    }

    #[test]
    fn user_agent_via_box() {
        let mut b = MediaBox::new(BoxId(5));
        b.add_slot(SlotId(0), true);
        b.set_goal(GoalSpec::User {
            slot: SlotId(0),
            policy: EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 5, 4000)),
            mode: AcceptMode::Auto,
        });
        let out = b.user(SlotId(0), UserCmd::Open(Medium::Audio)).unwrap();
        assert!(matches!(out[0].signal, Signal::Open { .. }));
        // User commands on non-user goals are rejected.
        let mut srv = server_box();
        srv.set_goal(GoalSpec::Close { slot: SlotId(0) });
        assert!(srv.user(SlotId(0), UserCmd::Close).is_err());
    }

    #[test]
    fn tag_origins_are_unique_per_goal() {
        let mut b = server_box();
        let o1 = b.set_goal(GoalSpec::Open {
            slot: SlotId(0),
            medium: Medium::Audio,
            policy: Policy::Server,
        });
        let o2 = b.set_goal(GoalSpec::Open {
            slot: SlotId(1),
            medium: Medium::Audio,
            policy: Policy::Server,
        });
        let t1 = match &o1[0].signal {
            Signal::Open { desc, .. } => desc.tag,
            _ => unreachable!(),
        };
        let t2 = match &o2[0].signal {
            Signal::Open { desc, .. } => desc.tag,
            _ => unreachable!(),
        };
        assert_ne!(t1.origin, t2.origin);
    }

    #[test]
    fn observer_sees_goals_transitions_and_races() {
        use ipmedia_obs::{ManualClock, ObsEvent, RecordingObserver};
        use std::sync::Arc;

        let mut obs = RecordingObserver::new(Arc::new(ManualClock::new()));
        let log = obs.log();

        let mut b = server_box();
        b.set_goal_obs(
            GoalSpec::Open {
                slot: SlotId(0),
                medium: Medium::Audio,
                policy: Policy::Server,
            },
            &mut obs,
        );
        // Re-annotating drops the old goal and activates the new one.
        b.set_goal_obs(GoalSpec::Close { slot: SlotId(0) }, &mut obs);
        // An open arriving while Opening at the channel initiator is a won
        // race... but the goal is now closeSlot, so drive a fresh slot.
        let mut tags = crate::descriptor::TagSource::new(3);
        let desc = crate::descriptor::Descriptor::no_media(tags.next());
        b.on_signal_obs(
            SlotId(1),
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
            &mut obs,
        );

        let events: Vec<ObsEvent> = log.lock().unwrap().iter().map(|(_, e)| e.clone()).collect();
        assert!(events.contains(&ObsEvent::GoalActivated {
            bx: 1,
            slot: 0,
            kind: "openSlot"
        }));
        assert!(events.contains(&ObsEvent::SlotTransition {
            bx: 1,
            slot: 0,
            from: "closed",
            to: "opening",
            cause: "goal",
        }));
        assert!(events.contains(&ObsEvent::GoalDropped {
            bx: 1,
            slot: 0,
            kind: "openSlot"
        }));
        assert!(events.contains(&ObsEvent::GoalActivated {
            bx: 1,
            slot: 0,
            kind: "closeSlot"
        }));
        assert!(events.contains(&ObsEvent::SignalReceived {
            bx: 1,
            slot: 1,
            kind: "open"
        }));
        assert!(events.contains(&ObsEvent::SlotTransition {
            bx: 1,
            slot: 1,
            from: "closed",
            to: "opened",
            cause: "open",
        }));
    }

    #[test]
    fn observer_reports_open_open_race() {
        use ipmedia_obs::{ManualClock, ObsEvent, RecordingObserver};
        use std::sync::Arc;

        let mut obs = RecordingObserver::new(Arc::new(ManualClock::new()));
        let log = obs.log();

        // Loser side: not the channel initiator, already Opening.
        let mut b = MediaBox::new(BoxId(2));
        b.add_slot(SlotId(0), false);
        b.set_goal_obs(
            GoalSpec::Open {
                slot: SlotId(0),
                medium: Medium::Audio,
                policy: Policy::Server,
            },
            &mut obs,
        );
        let mut tags = crate::descriptor::TagSource::new(9);
        let desc = crate::descriptor::Descriptor::no_media(tags.next());
        b.on_signal_obs(
            SlotId(0),
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
            &mut obs,
        );

        let events: Vec<ObsEvent> = log.lock().unwrap().iter().map(|(_, e)| e.clone()).collect();
        assert!(events.contains(&ObsEvent::RaceResolved {
            bx: 2,
            slot: 0,
            won: false
        }));
        // The openSlot goal reacts to the backoff within the same stimulus
        // (it accepts the winning open), so the transition the observer
        // reports is the net one: opening straight to flowing.
        assert!(events.contains(&ObsEvent::SlotTransition {
            bx: 2,
            slot: 0,
            from: "opening",
            to: "flowing",
            cause: "open",
        }));
    }

    #[test]
    fn remove_slot_kills_goal() {
        let mut b = server_box();
        b.set_goal(GoalSpec::Link {
            a: SlotId(0),
            b: SlotId(1),
        });
        b.remove_slot(SlotId(0));
        assert!(b.slot(SlotId(0)).is_none());
        assert!(b.goal_of(SlotId(1)).is_none());
    }

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn small_map_spills_into_a_tree_with_the_same_entries() {
        let spill = u32::try_from(SPILL).unwrap();
        let keys: Vec<u32> = (0..spill + 40).map(|i| (i * 7919) % 1000).collect();
        let mut spilled = SmallMap::new();
        for &k in &keys {
            assert_eq!(spilled.insert(k, k * 2), None);
        }
        assert!(matches!(spilled, SmallMap::Tree(_)));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(spilled.keys().collect::<Vec<_>>(), sorted);
        assert_eq!(spilled.insert(keys[3], 1), Some(keys[3] * 2));
        assert_eq!(spilled.insert(keys[3], keys[3] * 2), Some(1));

        // Below the spill size again, the tree equals, hashes and prints
        // like a `Vec` map and an ordered map with the same entries.
        for &k in &keys[..41] {
            assert_eq!(spilled.remove(k), Some(k * 2));
        }
        let mut small = SmallMap::new();
        let mut reference = BTreeMap::new();
        for &k in keys[41..].iter().rev() {
            small.insert(k, k * 2);
            reference.insert(k, k * 2);
        }
        assert!(matches!(small, SmallMap::Vec(_)));
        assert_eq!(spilled, small);
        assert_eq!(hash_of(&spilled), hash_of(&small));
        assert_eq!(hash_of(&small), hash_of(&reference));
        assert_eq!(format!("{spilled:?}"), format!("{reference:?}"));
        assert_eq!(format!("{small:?}"), format!("{reference:?}"));
        small.remove(keys[50]);
        assert_ne!(spilled, small);
    }

    #[test]
    fn pair_mut_returns_values_in_argument_order_in_either_form() {
        for n in [4, u32::try_from(SPILL).unwrap() + 4] {
            let mut m = SmallMap::new();
            for k in 0..n {
                m.insert(k, k);
            }
            assert_eq!(matches!(m, SmallMap::Tree(_)), n as usize > SPILL);
            let (hi, lo) = m.pair_mut(n - 1, 1);
            assert_eq!((*hi, *lo), (n - 1, 1));
            *hi = 100;
            let (lo, hi) = m.pair_mut(1, n - 1);
            assert_eq!((*lo, *hi), (1, 100));
        }
    }

    #[test]
    fn a_box_past_the_spill_size_forwards_through_a_flowlink() {
        let mut b = MediaBox::new(BoxId(1));
        let n = u16::try_from(SPILL).unwrap() + 8;
        for i in 0..n {
            b.add_slot(SlotId(i), true);
        }
        for i in 0..n - 2 {
            b.set_goal(GoalSpec::Close { slot: SlotId(i) });
        }
        let (a, z) = (SlotId(n - 1), SlotId(2));
        b.set_goal(GoalSpec::Link { a, b: z });
        assert!(b
            .goal_of(SlotId(2))
            .is_some_and(|g| matches!(g, Goal::Link(_))));
        assert_eq!(b.slot_ids().count(), usize::from(n));
        assert!(b.slot_ids().zip(b.slot_ids().skip(1)).all(|(x, y)| x < y));
        let desc = crate::descriptor::Descriptor::media(
            crate::descriptor::TagSource::new(77).next(),
            MediaAddr::v4(10, 0, 0, 9, 4000),
            vec![crate::codec::Codec::G711],
        );
        let (out, _) = b.on_signal(
            a,
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
        );
        assert!(out
            .iter()
            .any(|o| o.slot == z && matches!(o.signal, Signal::Open { .. })));
        b.remove_slot(a);
        assert!(b.goal_of(z).is_none());
    }
}
