//! Descriptor-tag canonicalization support for explicit-state exploration.
//!
//! Goal objects mint fresh descriptor tags whenever they re-describe or
//! re-open, so a naive state hash never repeats along a reopen loop (e.g.
//! the openSlot/closeSlot retry cycle of §V) and exhaustive exploration
//! would diverge. Tag *identity* is the only thing the protocol ever
//! compares — generations are never ordered across records — so states that
//! differ only by a consistent renaming of generations are bisimilar.
//!
//! The model checker canonicalizes states before hashing: for every tag
//! origin it collects the generations that actually occur (in slots, queued
//! signals, and goal caches), renames them densely preserving their order,
//! and resets each [`TagSource`] counter to just past the highest renamed
//! generation so future mints remain fresh. [`Retag`] is the visitor that
//! makes every tag and tag source in a structure reachable, mutably for
//! the rewrite and read-only for the scan that decides whether a
//! (possibly shared) structure needs rewriting at all.

use crate::descriptor::{DescTag, Descriptor, Selector, TagSource};
use crate::goal::{CloseSlot, FlowLink, Goal, HoldSlot, OpenSlot, UserAgent};
use crate::signal::Signal;
use crate::slot::Slot;

/// Visit every descriptor tag and tag source in a structure.
///
/// The read-only visitors are `#[inline]` in every impl: the model checker
/// calls them from its own crate on every successor state, and inlining
/// keeps them out of this crate's code layout.
pub trait Retag {
    /// Call `f` on each embedded [`DescTag`].
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag));
    /// Call `f` on each embedded [`TagSource`].
    fn visit_sources(&mut self, _f: &mut dyn FnMut(&mut TagSource)) {}
    /// Read-only [`Retag::visit_tags`]: same tags, same order.
    fn for_each_tag(&self, f: &mut dyn FnMut(&DescTag));
    /// Read-only [`Retag::visit_sources`]: same sources, same order.
    #[inline]
    fn for_each_source(&self, _f: &mut dyn FnMut(&TagSource)) {}
}

impl Retag for DescTag {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        f(self);
    }
    #[inline]
    fn for_each_tag(&self, f: &mut dyn FnMut(&DescTag)) {
        f(self);
    }
}

impl Retag for Descriptor {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        f(&mut self.tag);
    }
    #[inline]
    fn for_each_tag(&self, f: &mut dyn FnMut(&DescTag)) {
        f(&self.tag);
    }
}

impl Retag for Selector {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        f(&mut self.answers);
    }
    #[inline]
    fn for_each_tag(&self, f: &mut dyn FnMut(&DescTag)) {
        f(&self.answers);
    }
}

impl Retag for Signal {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        match self {
            Signal::Open { desc, .. } | Signal::Oack { desc } | Signal::Describe { desc } => {
                desc.visit_tags(f);
            }
            Signal::Select { sel } => sel.visit_tags(f),
            Signal::Close | Signal::CloseAck => {}
        }
    }
    #[inline]
    fn for_each_tag(&self, f: &mut dyn FnMut(&DescTag)) {
        match self {
            Signal::Open { desc, .. } | Signal::Oack { desc } | Signal::Describe { desc } => {
                desc.for_each_tag(f);
            }
            Signal::Select { sel } => sel.for_each_tag(f),
            Signal::Close | Signal::CloseAck => {}
        }
    }
}

impl Retag for Slot {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        if let Some(d) = self.peer_desc_mut() {
            d.visit_tags(f);
        }
        if let Some(d) = self.sent_desc_mut() {
            d.visit_tags(f);
        }
        if let Some(s) = self.peer_sel_mut() {
            s.visit_tags(f);
        }
        if let Some(s) = self.sent_sel_mut() {
            s.visit_tags(f);
        }
    }
    #[inline]
    fn for_each_tag(&self, f: &mut dyn FnMut(&DescTag)) {
        if let Some(d) = self.peer_desc() {
            d.for_each_tag(f);
        }
        if let Some(d) = self.sent_desc() {
            d.for_each_tag(f);
        }
        if let Some(s) = self.peer_sel() {
            s.for_each_tag(f);
        }
        if let Some(s) = self.sent_sel() {
            s.for_each_tag(f);
        }
    }
}

impl Retag for TagSource {
    fn visit_tags(&mut self, _f: &mut dyn FnMut(&mut DescTag)) {}
    fn visit_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        f(self);
    }
    #[inline]
    fn for_each_tag(&self, _f: &mut dyn FnMut(&DescTag)) {}
    #[inline]
    fn for_each_source(&self, f: &mut dyn FnMut(&TagSource)) {
        f(self);
    }
}

impl Retag for OpenSlot {
    fn visit_tags(&mut self, _f: &mut dyn FnMut(&mut DescTag)) {}
    fn visit_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        f(self.tags_mut());
    }
    #[inline]
    fn for_each_tag(&self, _f: &mut dyn FnMut(&DescTag)) {}
    #[inline]
    fn for_each_source(&self, f: &mut dyn FnMut(&TagSource)) {
        f(self.tags());
    }
}

impl Retag for HoldSlot {
    fn visit_tags(&mut self, _f: &mut dyn FnMut(&mut DescTag)) {}
    fn visit_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        f(self.tags_mut());
    }
    #[inline]
    fn for_each_tag(&self, _f: &mut dyn FnMut(&DescTag)) {}
    #[inline]
    fn for_each_source(&self, f: &mut dyn FnMut(&TagSource)) {
        f(self.tags());
    }
}

impl Retag for CloseSlot {
    fn visit_tags(&mut self, _f: &mut dyn FnMut(&mut DescTag)) {}
    #[inline]
    fn for_each_tag(&self, _f: &mut dyn FnMut(&DescTag)) {}
}

impl Retag for FlowLink {
    fn visit_tags(&mut self, _f: &mut dyn FnMut(&mut DescTag)) {}
    fn visit_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        f(self.tags_mut());
    }
    #[inline]
    fn for_each_tag(&self, _f: &mut dyn FnMut(&DescTag)) {}
    #[inline]
    fn for_each_source(&self, f: &mut dyn FnMut(&TagSource)) {
        f(self.tags());
    }
}

impl Retag for UserAgent {
    fn visit_tags(&mut self, _f: &mut dyn FnMut(&mut DescTag)) {}
    fn visit_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        f(self.tags_mut());
    }
    #[inline]
    fn for_each_tag(&self, _f: &mut dyn FnMut(&DescTag)) {}
    #[inline]
    fn for_each_source(&self, f: &mut dyn FnMut(&TagSource)) {
        f(self.tags());
    }
}

impl Retag for Goal {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        match self {
            Goal::Open(g) => g.visit_tags(f),
            Goal::Close(g) => g.visit_tags(f),
            Goal::Hold(g) => g.visit_tags(f),
            Goal::User(g) => g.visit_tags(f),
            Goal::Link(g) => g.visit_tags(f),
        }
    }
    fn visit_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        match self {
            Goal::Open(g) => g.visit_sources(f),
            Goal::Close(g) => g.visit_sources(f),
            Goal::Hold(g) => g.visit_sources(f),
            Goal::User(g) => g.visit_sources(f),
            Goal::Link(g) => g.visit_sources(f),
        }
    }
    #[inline]
    fn for_each_tag(&self, f: &mut dyn FnMut(&DescTag)) {
        match self {
            Goal::Open(g) => g.for_each_tag(f),
            Goal::Close(g) => g.for_each_tag(f),
            Goal::Hold(g) => g.for_each_tag(f),
            Goal::User(g) => g.for_each_tag(f),
            Goal::Link(g) => g.for_each_tag(f),
        }
    }
    #[inline]
    fn for_each_source(&self, f: &mut dyn FnMut(&TagSource)) {
        match self {
            Goal::Open(g) => g.for_each_source(f),
            Goal::Close(g) => g.for_each_source(f),
            Goal::Hold(g) => g.for_each_source(f),
            Goal::User(g) => g.for_each_source(f),
            Goal::Link(g) => g.for_each_source(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, Medium};
    use crate::descriptor::MediaAddr;

    #[test]
    fn slot_tags_are_visitable() {
        let mut ts = TagSource::new(5);
        let mut a = Slot::new(true);
        let d = Descriptor::media(ts.next(), MediaAddr::v4(1, 1, 1, 1, 2), vec![Codec::G711]);
        a.send_open(Medium::Audio, d).unwrap();
        let mut seen = Vec::new();
        a.visit_tags(&mut |t| seen.push(*t));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].origin, 5);
    }

    #[test]
    fn signal_tags_are_visitable_and_mutable() {
        let mut ts = TagSource::new(5);
        let mut sig = Signal::Describe {
            desc: Descriptor::no_media(ts.next()),
        };
        sig.visit_tags(&mut |t| t.generation = 42);
        match sig {
            Signal::Describe { desc } => assert_eq!(desc.tag.generation, 42),
            _ => unreachable!(),
        }
    }

    #[test]
    fn read_only_visitors_match_the_mutable_ones() {
        let mut ts = TagSource::new(5);
        let mut a = Slot::new(true);
        let d = Descriptor::media(ts.next(), MediaAddr::v4(1, 1, 1, 1, 2), vec![Codec::G711]);
        a.send_open(Medium::Audio, d).unwrap();
        let mut read = Vec::new();
        a.for_each_tag(&mut |t| read.push(*t));
        let mut written = Vec::new();
        a.visit_tags(&mut |t| written.push(*t));
        assert_eq!(read, written);
        let mut goal = Goal::Link(FlowLink::new(9));
        let mut origins = Vec::new();
        goal.for_each_source(&mut |s| origins.push(s.origin()));
        goal.visit_sources(&mut |s| origins.push(s.origin()));
        assert_eq!(origins, [9, 9]);
    }

    #[test]
    fn tag_source_counter_is_adjustable() {
        let mut ts = TagSource::new(5);
        ts.next();
        ts.next();
        ts.set_generation_counter(1);
        assert_eq!(ts.next().generation, 1);
    }
}
