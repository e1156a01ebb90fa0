//! Windowed activity timelines: *when* the fabric was busy, not just
//! how much in total.
//!
//! [`TimelineRecorder`] closes a window every `window` cycles, keeping
//! the most recent `capacity` windows in a bounded ring (older windows
//! are evicted and counted in `dropped`). A window's sample is the
//! fabric's cumulative [`TimelineSample`] totals at the window's last
//! cycle minus the totals at the cycle before its first, so the recorder
//! needs the totals only at window boundaries — when a tick, or a
//! quiescent jump, crosses one — and when a report or snapshot reads the
//! open window. Nothing is sampled per cycle, which is why dense and
//! event-wheel schedules produce byte-identical timelines.

use std::collections::VecDeque;

/// Cumulative fabric totals, or their difference over a span of cycles.
/// Every field is a monotone fabric counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineSample {
    /// Stage-cycles spent busy.
    pub busy: u64,
    /// Stage-cycles spent stalled.
    pub stall: u64,
    /// Stage-cycles spent idle.
    pub idle: u64,
    /// Tasks retired.
    pub retired: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Bytes transferred over the memory link.
    pub qpi_bytes: u64,
}

impl TimelineSample {
    /// Field-wise `self - prev`, or `None` when some field of `prev` is
    /// larger.
    pub fn checked_delta_from(&self, prev: &TimelineSample) -> Option<TimelineSample> {
        Some(TimelineSample {
            busy: self.busy.checked_sub(prev.busy)?,
            stall: self.stall.checked_sub(prev.stall)?,
            idle: self.idle.checked_sub(prev.idle)?,
            retired: self.retired.checked_sub(prev.retired)?,
            hits: self.hits.checked_sub(prev.hits)?,
            misses: self.misses.checked_sub(prev.misses)?,
            qpi_bytes: self.qpi_bytes.checked_sub(prev.qpi_bytes)?,
        })
    }

    /// Field-wise `self - prev`.
    ///
    /// # Panics
    ///
    /// Panics when some field of `prev` is larger: totals are monotone.
    pub fn delta_from(&self, prev: &TimelineSample) -> TimelineSample {
        self.checked_delta_from(prev)
            .expect("timeline totals are monotone")
    }
}

/// One closed window: `cycles` consecutive cycles starting at
/// simulation cycle `start` (1-based), with the totals' growth across
/// them. The final window of a run may be partial
/// (`cycles < window`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineWindow {
    /// First simulation cycle covered (cycles are 1-based).
    pub start: u64,
    /// Number of cycles covered.
    pub cycles: u64,
    /// Deltas accumulated over the covered cycles.
    pub sample: TimelineSample,
}

/// The finished timeline attached to a report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Configured cycles per window.
    pub window: u64,
    /// Windows evicted from the ring (oldest first).
    pub dropped: u64,
    /// Retained windows, oldest first.
    pub windows: Vec<TimelineWindow>,
}

/// Closes windows of `window` cycles from cumulative totals, keeping
/// the newest `capacity` windows.
#[derive(Clone, Debug)]
pub struct TimelineRecorder {
    window: u64,
    capacity: usize,
    /// First cycle of the open window.
    start: u64,
    /// Totals at cycle `start − 1`, where the open window's growth starts.
    base: TimelineSample,
    ring: VecDeque<TimelineWindow>,
    dropped: u64,
}

impl TimelineRecorder {
    /// Creates a recorder with `window` cycles per window (must be > 0)
    /// and a ring of at most `capacity` windows (clamped to ≥ 1).
    pub fn new(window: u64, capacity: usize) -> Self {
        Self::from_parts(
            window,
            capacity,
            1,
            TimelineSample::default(),
            Vec::new(),
            0,
        )
    }

    /// Configured cycles per window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Ring capacity in windows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Windows evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained (already closed) windows, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &TimelineWindow> {
        self.ring.iter()
    }

    /// The cycle on which the open window closes.
    pub fn next_close(&self) -> u64 {
        self.start + self.window - 1
    }

    /// Closes the open window on its last cycle ([`Self::next_close`]),
    /// given the totals at that cycle.
    pub fn close(&mut self, totals: TimelineSample) {
        self.push(self.window, totals);
    }

    /// The open window as of cycle `now` (before [`Self::next_close`]),
    /// given the totals at `now`: its start, the cycles it covers so far,
    /// and the totals' growth across them.
    pub fn open_window(&self, now: u64, totals: &TimelineSample) -> TimelineWindow {
        TimelineWindow {
            start: self.start,
            cycles: now + 1 - self.start,
            sample: totals.delta_from(&self.base),
        }
    }

    fn push(&mut self, cycles: u64, totals: TimelineSample) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TimelineWindow {
            start: self.start,
            cycles,
            sample: totals.delta_from(&self.base),
        });
        self.start += cycles;
        self.base = totals;
    }

    /// Closes the partial final window at cycle `now`, given the totals
    /// there, and returns the finished timeline.
    pub fn finish(mut self, now: u64, totals: TimelineSample) -> Timeline {
        if now >= self.start {
            self.push(now + 1 - self.start, totals);
        }
        Timeline {
            window: self.window,
            dropped: self.dropped,
            windows: self.ring.into_iter().collect(),
        }
    }

    /// Rebuilds a recorder: the open window starts at `start` and grows
    /// from the totals `base`; `ring` holds the retained closed windows.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or the ring exceeds `capacity`.
    pub fn from_parts(
        window: u64,
        capacity: usize,
        start: u64,
        base: TimelineSample,
        ring: Vec<TimelineWindow>,
        dropped: u64,
    ) -> Self {
        assert!(window > 0, "timeline window must be positive");
        let capacity = capacity.max(1);
        assert!(
            ring.len() <= capacity,
            "restored timeline ring exceeds capacity"
        );
        Self {
            window,
            capacity,
            start,
            base,
            ring: ring.into(),
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Totals after `c` cycles of a fabric that is busy 2 and retires 1
    /// per cycle.
    fn totals(c: u64) -> TimelineSample {
        TimelineSample {
            busy: 2 * c,
            retired: c,
            ..TimelineSample::default()
        }
    }

    /// Runs a recorder through cycle `end`, closing every window on its
    /// boundary, as the fabric does.
    fn run(mut r: TimelineRecorder, end: u64) -> Timeline {
        while r.next_close() <= end {
            let at = r.next_close();
            r.close(totals(at));
        }
        r.finish(end, totals(end))
    }

    #[test]
    fn windows_close_on_boundaries_and_final_partial_flushes() {
        let t = run(TimelineRecorder::new(4, 16), 10);
        assert_eq!(t.window, 4);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.windows.len(), 3);
        assert_eq!(t.windows[0].start, 1);
        assert_eq!(t.windows[0].cycles, 4);
        assert_eq!(t.windows[0].sample.busy, 8);
        assert_eq!(t.windows[1].start, 5);
        assert_eq!(t.windows[2].start, 9);
        assert_eq!(t.windows[2].cycles, 2); // partial tail
        assert_eq!(t.windows[2].sample.retired, 2);
    }

    #[test]
    fn a_run_ending_on_a_boundary_has_no_partial_window() {
        let t = run(TimelineRecorder::new(4, 16), 8);
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[1].cycles, 4);
    }

    #[test]
    fn open_window_is_the_growth_since_the_last_boundary() {
        let mut r = TimelineRecorder::new(4, 16);
        r.close(totals(4));
        let w = r.open_window(6, &totals(6));
        assert_eq!((w.start, w.cycles, w.sample), (5, 2, totals(2)));
        // Rebuilt from its parts, the recorder carries on identically.
        let rebuilt = TimelineRecorder::from_parts(
            4,
            16,
            w.start,
            totals(4),
            r.ring().copied().collect(),
            r.dropped(),
        );
        assert_eq!(run(rebuilt, 10), run(r, 10));
    }

    #[test]
    fn ring_drops_oldest_windows() {
        let t = run(TimelineRecorder::new(2, 3), 10);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.windows.len(), 3);
        // Oldest retained window starts after the two evicted ones.
        assert_eq!(t.windows[0].start, 5);
        assert_eq!(t.windows[2].start, 9);
    }

    #[test]
    fn empty_recorder_finishes_empty() {
        let t = TimelineRecorder::new(8, 4).finish(0, TimelineSample::default());
        assert_eq!(t.windows.len(), 0);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let t = run(TimelineRecorder::new(1, 0), 2);
        assert_eq!(t.windows.len(), 1);
        assert_eq!(t.dropped, 1);
    }
}
