//! Event-queue plumbing.
//!
//! Events are totally ordered by `(time, seq)` where `seq` is a global
//! monotone counter assigned at scheduling time. The tiebreaker makes the
//! run deterministic *and* gives the synchronous-ordered network mode its
//! "every site sees broadcasts in the same order" property: equal-delay
//! deliveries inherit the ordering of their sends.
//!
//! The kernel keeps three lanes, all keyed by `(time, seq)` from the one
//! counter, and merges them in the run loop:
//!
//! * the message heap holds only in-flight deliveries (`Delivery`);
//! * the timer lane holds armed timers (see `crate::timers`);
//! * the `ScriptLane` holds work scheduled from outside a run —
//!   externals, crashes, recoveries. A workload schedules all of it up
//!   front, so it sits in a sorted `Vec` instead of inflating the heap
//!   every delivery has to sift through.

use crate::time::SimTime;
use crate::NodeId;
use std::cmp::{Ordering, Reverse};

/// An in-flight message: deliver `msg` from `from` to `to` at `at`.
#[derive(Debug)]
pub(crate) struct Delivery<M> {
    pub at: SimTime,
    pub seq: u64,
    pub from: NodeId,
    pub to: NodeId,
    pub msg: M,
}

impl<M> PartialEq for Delivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Delivery<M> {}

impl<M> PartialOrd for Delivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Delivery<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Work scheduled from outside a run.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scripted {
    /// Externally injected event for `node` (workload arrivals etc.).
    External { node: NodeId, tag: u64 },
    /// Crash `node`.
    Crash { node: NodeId },
    /// Recover `node`.
    Recover { node: NodeId },
}

/// One pre-scheduled event.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ScriptEntry {
    pub at: SimTime,
    pub seq: u64,
    pub what: Scripted,
}

impl ScriptEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Pre-scheduled events in a `Vec` sorted latest-first, so the next one
/// pops off the back. Scheduling only appends; the kernel calls
/// [`sort`](Self::sort) at the start of each run, which re-sorts only if
/// something was scheduled since the last run.
#[derive(Debug, Default)]
pub(crate) struct ScriptLane {
    entries: Vec<ScriptEntry>,
    sorted: bool,
}

impl ScriptLane {
    /// Number of pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Append an entry; the lane is unsorted until the next [`sort`](Self::sort).
    pub fn push(&mut self, e: ScriptEntry) {
        self.entries.push(e);
        self.sorted = false;
    }

    /// Restore latest-first order if anything was pushed since the last
    /// sort. `seq` is unique, so keys never tie and an unstable sort gives
    /// the one correct order without the scratch allocation a stable
    /// sort makes.
    pub fn sort(&mut self) {
        if !self.sorted {
            self.entries.sort_unstable_by_key(|e| Reverse(e.key()));
            self.sorted = true;
        }
    }

    /// Key of the earliest entry, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        debug_assert!(self.sorted || self.entries.is_empty(), "lane not sorted");
        self.entries.last().map(ScriptEntry::key)
    }

    /// Remove and return the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<ScriptEntry> {
        self.entries.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(at: u64, seq: u64) -> Delivery<()> {
        Delivery {
            at: SimTime(at),
            seq,
            from: 0,
            to: 0,
            msg: (),
        }
    }

    fn entry(at: u64, seq: u64) -> ScriptEntry {
        ScriptEntry {
            at: SimTime(at),
            seq,
            what: Scripted::External { node: 0, tag: seq },
        }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut h = BinaryHeap::new();
        h.push(ev(30, 0));
        h.push(ev(10, 1));
        h.push(ev(20, 2));
        assert_eq!(h.pop().unwrap().at, SimTime(10));
        assert_eq!(h.pop().unwrap().at, SimTime(20));
        assert_eq!(h.pop().unwrap().at, SimTime(30));
    }

    #[test]
    fn ties_break_by_sequence_number() {
        let mut h = BinaryHeap::new();
        h.push(ev(10, 5));
        h.push(ev(10, 2));
        h.push(ev(10, 9));
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn script_lane_pops_in_time_then_seq_order_across_resorts() {
        let mut l = ScriptLane::default();
        l.push(entry(30, 0));
        l.push(entry(10, 1));
        l.push(entry(10, 2));
        l.sort();
        assert_eq!(l.peek_key(), Some((SimTime(10), 1)));
        assert_eq!(l.pop().unwrap().seq, 1);
        // More scheduled between runs lands in order on the next sort.
        l.push(entry(20, 3));
        l.push(entry(10, 4));
        l.sort();
        let order: Vec<u64> = std::iter::from_fn(|| l.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![2, 4, 3, 0]);
        assert_eq!(l.len(), 0);
        assert_eq!(l.peek_key(), None);
    }
}
