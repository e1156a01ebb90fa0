//! Latency modeling: in-order delay lines and out-of-order stations.

use crate::Cycle;
use std::collections::VecDeque;

/// A fixed-latency, in-order pipe: an element pushed at cycle *t* becomes
/// poppable at cycle *t + latency*. Models fully pipelined fixed-latency
/// paths (cache hit pipelines, the event bus, arithmetic cores).
///
/// # Example
///
/// ```
/// use apir_sim::delay::DelayLine;
/// let mut d = DelayLine::new(3);
/// d.push(0, "x");
/// assert!(d.pop_ready(2).is_none());
/// assert_eq!(d.pop_ready(3), Some("x"));
/// ```
#[derive(Clone, Debug)]
pub struct DelayLine<T> {
    latency: Cycle,
    q: VecDeque<(Cycle, T)>,
}

impl<T> DelayLine<T> {
    /// Creates a delay line with the given latency in cycles.
    pub fn new(latency: Cycle) -> Self {
        DelayLine {
            latency,
            q: VecDeque::new(),
        }
    }

    /// The configured latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Inserts an element at cycle `now`.
    pub fn push(&mut self, now: Cycle, v: T) {
        self.push_extra(now, 0, v);
    }

    /// Inserts an element with an extra latency on top of the base.
    pub fn push_extra(&mut self, now: Cycle, extra: Cycle, v: T) {
        // Keep the queue sorted by ready time: the base latency is constant
        // and `now` is monotone, but extra latencies could reorder entries.
        // Stable insertion after equal ready times preserves FIFO order.
        let ready = now + self.latency + extra;
        let pos = self.q.partition_point(|(r, _)| *r <= ready);
        self.q.insert(pos, (ready, v));
    }

    /// Pops the oldest element whose latency has elapsed by `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.q.front().is_some_and(|(r, _)| *r <= now) {
            self.q.pop_front().map(|(_, v)| v)
        } else {
            None
        }
    }

    /// Ready cycle of the next element to emerge, if any — the cycle at
    /// which [`DelayLine::pop_ready`] would first return it. Event-wheel
    /// wake-time source: a fabric with nothing else to do can jump
    /// straight to this cycle.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.q.front().map(|(r, _)| *r)
    }

    /// Elements in flight.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Is the pipe empty?
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Iterates over `(ready_cycle, element)` pairs in queue order —
    /// checkpointing reads the absolute ready times so a restore does
    /// not re-derive them from a shifted `now`.
    pub fn iter_entries(&self) -> impl Iterator<Item = (Cycle, &T)> {
        self.q.iter().map(|(r, v)| (*r, v))
    }

    /// Rebuilds a delay line from checkpointed `(ready_cycle, element)`
    /// pairs. The pairs must already be sorted by ready time (they are,
    /// when they came from [`DelayLine::iter_entries`]).
    pub fn from_parts(latency: Cycle, entries: impl IntoIterator<Item = (Cycle, T)>) -> Self {
        let mut d = DelayLine::new(latency);
        d.q.extend(entries);
        debug_assert!(
            d.q.iter().zip(d.q.iter().skip(1)).all(|(a, b)| a.0 <= b.0),
            "restored delay line out of ready order"
        );
        d
    }
}

/// A tag-matched waiting station with bounded occupancy: entries enter with
/// a tag, complete in any order when their tag is signalled, and leave
/// through [`OutOfOrderStation::take_ready`].
///
/// This is the matching logic the paper pays for at load/store units and
/// rendezvous points ("out-of-order operations incur resource overheads on
/// FPGAs since they require large matching logics"), which is why its
/// `capacity` is small and everything else stays in-order.
///
/// Entries are kept in insertion-cycle order: inserts append with a
/// non-decreasing stamp, [`OutOfOrderStation::take_ready`] removes in
/// place, and [`OutOfOrderStation::from_parts`] rejects out-of-order
/// slots. The first waiting entry is therefore the oldest waiting one,
/// so the timeout scans stop there instead of taking a minimum.
#[derive(Clone, Debug)]
pub struct OutOfOrderStation<T> {
    cap: usize,
    // (tag, payload, ready, completion word, insertion cycle)
    entries: Vec<(u64, T, bool, u64, Cycle)>,
    /// Entries marked ready, so a station waiting on every entry answers
    /// [`OutOfOrderStation::take_ready`] without a scan.
    ready: usize,
}

impl<T> OutOfOrderStation<T> {
    /// Creates a station with `cap` slots.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "station capacity must be positive");
        OutOfOrderStation {
            cap,
            entries: Vec::with_capacity(cap),
            ready: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the station empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is there a free slot?
    pub fn can_insert(&self) -> bool {
        self.entries.len() < self.cap
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Inserts an entry waiting on `tag`.
    ///
    /// # Panics
    ///
    /// Panics when full; check [`OutOfOrderStation::can_insert`] first.
    pub fn insert(&mut self, tag: u64, payload: T) {
        self.insert_at(tag, payload, 0);
    }

    /// Inserts an entry stamped with the current cycle (enables
    /// [`OutOfOrderStation::timeout_one`]).
    ///
    /// # Panics
    ///
    /// Panics when full; check [`OutOfOrderStation::can_insert`] first.
    /// `now` must not be older than the newest entry's stamp.
    pub fn insert_at(&mut self, tag: u64, payload: T, now: Cycle) {
        assert!(self.can_insert(), "insert into full station");
        debug_assert!(
            self.entries.last().map_or(true, |e| e.4 <= now),
            "station inserts must not go back in time"
        );
        self.entries.push((tag, payload, false, 0, now));
    }

    /// Bounces the oldest still-waiting entry inserted before `cutoff`:
    /// marks it ready with completion word 0 and returns its tag (so the
    /// caller can cancel whatever it was waiting on). At most one per
    /// call — one bounce port per cycle.
    pub fn timeout_one(&mut self, cutoff: Cycle) -> Option<u64> {
        let e = self.entries.iter_mut().find(|e| !e.2)?;
        if e.4 >= cutoff {
            return None;
        }
        e.2 = true;
        e.3 = 0;
        self.ready += 1;
        Some(e.0)
    }

    /// Insertion cycle of the oldest still-waiting entry, if any. With
    /// the [`OutOfOrderStation::timeout_one`] contract (`insert < cutoff`
    /// bounces), the first cycle at which a bounce can fire is
    /// `oldest_waiting_insert + timeout + 1` — the event-wheel wake time
    /// for a station whose occupants are all waiting.
    pub fn oldest_waiting_insert(&self) -> Option<Cycle> {
        self.entries.iter().find(|e| !e.2).map(|e| e.4)
    }

    /// Marks the entry with `tag` complete, attaching a completion word
    /// (e.g. the loaded value or a rule's return). Returns `true` if an
    /// entry matched.
    pub fn complete(&mut self, tag: u64, word: u64) -> bool {
        for e in &mut self.entries {
            if e.0 == tag && !e.2 {
                e.2 = true;
                e.3 = word;
                self.ready += 1;
                return true;
            }
        }
        false
    }

    /// Removes and returns the oldest ready entry as `(payload, word)`.
    pub fn take_ready(&mut self) -> Option<(T, u64)> {
        if self.ready == 0 {
            return None;
        }
        let idx = self.entries.iter().position(|e| e.2)?;
        self.ready -= 1;
        let (_, payload, _, word, _) = self.entries.remove(idx);
        Some((payload, word))
    }

    /// Iterates over the payloads of entries still waiting.
    pub fn iter_waiting(&self) -> impl Iterator<Item = (&u64, &T)> {
        self.entries
            .iter()
            .filter(|e| !e.2)
            .map(|e| (&e.0, &e.1))
    }

    /// Iterates over every payload (waiting or ready).
    pub fn iter_all(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|e| &e.1)
    }

    /// Iterates over the full entry state in slot order:
    /// `(tag, payload, ready, completion word, insertion cycle)`.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u64, &T, bool, u64, Cycle)> {
        self.entries
            .iter()
            .map(|(tag, p, ready, word, born)| (*tag, p, *ready, *word, *born))
    }

    /// Rebuilds a station from checkpointed entries (slot order matters:
    /// [`OutOfOrderStation::take_ready`] removes the oldest ready slot).
    ///
    /// # Errors
    ///
    /// Entries that exceed `cap`, or whose insertion cycles decrease
    /// from one slot to the next.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn from_parts(
        cap: usize,
        entries: impl IntoIterator<Item = (u64, T, bool, u64, Cycle)>,
    ) -> Result<Self, String> {
        let mut s = OutOfOrderStation::new(cap);
        s.entries.extend(entries);
        s.ready = s.entries.iter().filter(|e| e.2).count();
        if s.entries.len() > cap {
            return Err(format!(
                "{} station entries exceed window {cap}",
                s.entries.len()
            ));
        }
        if let Some(k) = s.entries.windows(2).position(|w| w[0].4 > w[1].4) {
            return Err(format!(
                "station slot {} was inserted at cycle {}, before slot {k} (cycle {})",
                k + 1,
                s.entries[k + 1].4,
                s.entries[k].4
            ));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_line_is_in_order() {
        let mut d = DelayLine::new(2);
        d.push(0, 'a');
        d.push(1, 'b');
        assert_eq!(d.pop_ready(1), None);
        assert_eq!(d.pop_ready(2), Some('a'));
        assert_eq!(d.pop_ready(2), None);
        assert_eq!(d.pop_ready(3), Some('b'));
        assert!(d.is_empty());
    }

    #[test]
    fn extra_latency_keeps_ready_order() {
        let mut d = DelayLine::new(1);
        d.push_extra(0, 10, 'a'); // ready at 11
        d.push(1, 'b'); // ready at 2
        assert_eq!(d.pop_ready(2), Some('b'));
        assert_eq!(d.pop_ready(10), None);
        assert_eq!(d.pop_ready(11), Some('a'));
    }

    #[test]
    fn station_completes_out_of_order() {
        let mut s = OutOfOrderStation::new(4);
        s.insert(10, "first");
        s.insert(20, "second");
        assert!(s.take_ready().is_none());
        assert!(s.complete(20, 99));
        let (p, w) = s.take_ready().unwrap();
        assert_eq!((p, w), ("second", 99));
        assert!(!s.complete(20, 0)); // already gone
        assert!(s.complete(10, 5));
        assert_eq!(s.take_ready().unwrap(), ("first", 5));
    }

    #[test]
    fn next_ready_tracks_the_front() {
        let mut d = DelayLine::new(2);
        assert_eq!(d.next_ready(), None);
        d.push_extra(0, 10, 'a'); // ready at 12
        d.push(1, 'b'); // ready at 3
        assert_eq!(d.next_ready(), Some(3));
        assert_eq!(d.pop_ready(3), Some('b'));
        assert_eq!(d.next_ready(), Some(12));
        assert_eq!(d.pop_ready(12), Some('a'));
        assert_eq!(d.next_ready(), None);
    }

    #[test]
    fn oldest_waiting_insert_predicts_timeout_one() {
        let mut s = OutOfOrderStation::new(4);
        assert_eq!(s.oldest_waiting_insert(), None);
        s.insert_at(2, 'b', 5);
        s.insert_at(1, 'a', 10);
        assert_eq!(s.oldest_waiting_insert(), Some(5));
        // Ready entries no longer wait, so they drop out of the minimum.
        s.complete(2, 0);
        assert_eq!(s.oldest_waiting_insert(), Some(10));
        // The predicted first bounce cycle is insert + timeout + 1.
        let timeout: Cycle = 3;
        let wake: Cycle = 10 + timeout + 1;
        assert_eq!(s.timeout_one((wake - 1).saturating_sub(timeout)), None);
        assert_eq!(s.timeout_one(wake.saturating_sub(timeout)), Some(1));
    }

    #[test]
    fn from_parts_rejects_out_of_order_and_oversized_slots() {
        let e = |born| (0u64, (), false, 0u64, born);
        assert!(OutOfOrderStation::from_parts(2, [e(3), e(3)]).is_ok());
        let err = OutOfOrderStation::from_parts(2, [e(4), e(3)]).unwrap_err();
        assert!(err.contains("slot 1"), "{err}");
        assert!(OutOfOrderStation::from_parts(1, [e(1), e(2)]).is_err());
    }

    #[test]
    fn station_capacity_enforced() {
        let mut s = OutOfOrderStation::new(1);
        s.insert(1, ());
        assert!(!s.can_insert());
        s.complete(1, 0);
        s.take_ready();
        assert!(s.can_insert());
    }

    #[test]
    fn duplicate_tags_complete_one_at_a_time() {
        let mut s = OutOfOrderStation::new(4);
        s.insert(7, 'x');
        s.insert(7, 'y');
        assert!(s.complete(7, 1));
        assert_eq!(s.take_ready().unwrap(), ('x', 1));
        assert!(s.complete(7, 2));
        assert_eq!(s.take_ready().unwrap(), ('y', 2));
    }

    #[test]
    fn iter_waiting_skips_ready() {
        let mut s = OutOfOrderStation::new(4);
        s.insert(1, 'a');
        s.insert(2, 'b');
        s.complete(1, 0);
        let waiting: Vec<char> = s.iter_waiting().map(|(_, c)| *c).collect();
        assert_eq!(waiting, vec!['b']);
        assert_eq!(s.iter_all().count(), 2);
    }
}
