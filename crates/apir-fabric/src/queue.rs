//! Multi-bank task queues with a wavefront-style allocator.
//!
//! Section 5.2: "a multi-bank queue with customizable number of
//! input/output ports is provided. A wavefront allocator is used between
//! input ports and pipelines to ensure load balance among banks. [...] An
//! index indicating the well-order is assigned to each task when it is
//! pushed." We model the allocator as rotating-priority selection over
//! banks (what a wavefront allocator converges to under uniform load).

use crate::snapshot;
use crate::types::TaskToken;
use apir_core::spec::TaskSetKind;
use apir_core::IndexTuple;
use apir_sim::fifo::Fifo;
use apir_util::json::Json;
use apir_sim::metrics::{CounterId, GaugeId, LevelStat, MetricsRegistry};
use apir_sim::stats::StallCause;

/// Handles for one task queue's stable metric keys
/// (`queue.<task_set>.*`).
#[derive(Clone, Copy, Debug)]
pub struct QueueMetrics {
    pushed: CounterId,
    occupancy: GaugeId,
    peak: GaugeId,
}

impl QueueMetrics {
    /// Registers the `queue.<name>.*` keys for the task set `name`. The
    /// two per-cycle statistics are levels, appended to `levels`: the
    /// occupancy histogram ([`TaskQueue::len`]) and the backpressure
    /// stall counters ([`TaskQueue::stall_cause`]).
    pub fn register(m: &mut MetricsRegistry, name: &str, levels: &mut Vec<LevelStat>) -> Self {
        levels.push(LevelStat::histogram(
            m.histogram(&format!("queue.{name}.occupancy_hist")),
        ));
        let stall = m.counter(&format!("queue.{name}.stall"));
        let cause = |m: &mut MetricsRegistry, c: StallCause| {
            (c, m.counter(&format!("queue.{name}.stall.{}", c.key())))
        };
        let causes = [cause(m, StallCause::QueueFull), cause(m, StallCause::ReserveFull)];
        levels.push(LevelStat::stall(stall, causes));
        QueueMetrics {
            pushed: m.counter(&format!("queue.{name}.pushed")),
            occupancy: m.gauge(&format!("queue.{name}.occupancy")),
            peak: m.gauge(&format!("queue.{name}.peak")),
        }
    }
}

/// One task set's multi-bank queue.
#[derive(Clone, Debug)]
pub struct TaskQueue {
    kind: TaskSetKind,
    level: usize,
    banks: Vec<Fifo<TaskToken>>,
    /// Entries in all banks, visible and staged.
    len: usize,
    /// Visible (poppable) entries in all banks.
    visible: usize,
    counter: u64,
    push_rr: usize,
    pop_rr: usize,
    pushed_total: u64,
    peak: usize,
    /// Slots usable only by recirculation (`push_fixed`): tokens already
    /// inside the pipelines must always be able to requeue, or a full
    /// queue deadlocks against a full pipeline.
    reserve: usize,
    capacity: usize,
    /// Entries per bank (fixed at construction; needed to recompute the
    /// capacity when a bank fault masks one out).
    per_bank: usize,
    /// Banks masked out by injected hard faults; the allocator and the
    /// pop rotation skip them. A masked bank is always empty, so every
    /// live bank holds `per_bank` entries at most and `capacity` is
    /// `per_bank` times the live banks.
    masked: Vec<bool>,
}

impl TaskQueue {
    /// Creates a queue with `banks` banks sharing `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `capacity < banks`.
    pub fn new(kind: TaskSetKind, level: usize, banks: usize, capacity: usize) -> Self {
        assert!(banks > 0, "queue needs at least one bank");
        assert!(capacity >= banks, "capacity below bank count");
        let per = capacity / banks;
        TaskQueue {
            kind,
            level,
            banks: (0..banks).map(|_| Fifo::new(per)).collect(),
            len: 0,
            visible: 0,
            counter: 0,
            push_rr: 0,
            pop_rr: 0,
            pushed_total: 0,
            peak: 0,
            reserve: 0,
            capacity: per * banks,
            per_bank: per,
            masked: vec![false; banks],
        }
    }

    /// Reserves `slots` (clamped to half the capacity) for recirculation
    /// pushes; ordinary activations stall earlier.
    pub fn set_reserve(&mut self, slots: usize) {
        self.reserve = slots.min(self.capacity / 2);
    }

    /// Entries currently queued (visible + staged).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Can one more ordinary task be pushed this cycle (leaving the
    /// recirculation reserve free)?
    pub fn can_push(&self) -> bool {
        self.len + self.reserve < self.capacity
    }

    /// Can a recirculated task be pushed this cycle? Some live bank has
    /// room exactly when the live banks, all of one size, are not all
    /// full.
    pub fn can_push_reserved(&self) -> bool {
        self.len < self.capacity
    }

    /// Why an ordinary push would be refused right now, if it would:
    /// `QueueFull` when no bank has room, `ReserveFull` when only the
    /// recirculation reserve is left. One stall is counted per cycle
    /// this holds at the end of a tick.
    pub fn stall_cause(&self) -> Option<StallCause> {
        if self.can_push() {
            None
        } else if self.can_push_reserved() {
            Some(StallCause::ReserveFull)
        } else {
            Some(StallCause::QueueFull)
        }
    }

    /// Banks still in service (not masked by an injected fault).
    pub fn live_banks(&self) -> usize {
        self.masked.iter().filter(|&&m| !m).count()
    }

    /// Masks out one live bank (an injected hard fault), draining its
    /// contents for the caller to respill onto the survivors. The pick is
    /// taken modulo the live-bank count. Refuses (returns `None`) when
    /// masking would drop below half the banks or leave too little
    /// capacity for the recirculation reserve — graceful degradation must
    /// never become a self-inflicted deadlock.
    pub fn mask_bank(&mut self, pick: u64) -> Option<Vec<TaskToken>> {
        let live: Vec<usize> = (0..self.banks.len())
            .filter(|&i| !self.masked[i])
            .collect();
        if live.len() * 2 <= self.banks.len() {
            return None;
        }
        if self.per_bank * (live.len() - 1) <= 2 * self.reserve {
            return None;
        }
        let victim = live[(pick % live.len() as u64) as usize];
        self.masked[victim] = true;
        self.capacity = self.per_bank * (live.len() - 1);
        self.visible -= self.banks[victim].visible();
        let drained = self.banks[victim].drain_all();
        self.len -= drained.len();
        Some(drained)
    }

    /// Peak occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total tasks ever pushed.
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Pushes a task created by a parent with index `parent`, assigning
    /// the child's well-order index per the task set kind (Figure 5).
    /// Returns the assigned token, or `None` when all banks are full.
    pub fn push_child(
        &mut self,
        parent: IndexTuple,
        seq: u64,
        fields: [u64; apir_core::MAX_FIELDS],
    ) -> Option<TaskToken> {
        let ord = match self.kind {
            TaskSetKind::ForEach => {
                // The counter value is only consumed on success; peek it.
                self.counter
            }
            TaskSetKind::ForAll => 0,
        };
        let token = TaskToken {
            index: parent.child(self.level, ord),
            seq,
            fields,
        };
        if self.push_token(token) {
            if self.kind == TaskSetKind::ForEach {
                self.counter += 1;
            }
            Some(token)
        } else {
            None
        }
    }

    /// Pushes a task with a pre-assigned index (requeue / recirculation).
    /// Returns `false` when full.
    #[must_use]
    pub fn push_fixed(&mut self, token: TaskToken) -> bool {
        self.push_token(token)
    }

    /// The bank after `b` in rotation order.
    fn next_bank(&self, b: usize) -> usize {
        if b + 1 == self.banks.len() {
            0
        } else {
            b + 1
        }
    }

    fn push_token(&mut self, token: TaskToken) -> bool {
        if !self.can_push_reserved() {
            return false;
        }
        let mut b = self.push_rr;
        for _ in 0..self.banks.len() {
            if !self.masked[b] && self.banks[b].try_push(token) {
                self.push_rr = self.next_bank(b);
                self.pushed_total += 1;
                self.len += 1;
                self.peak = self.peak.max(self.len);
                return true;
            }
            b = self.next_bank(b);
        }
        false
    }

    /// Pops the next task, rotating across banks.
    pub fn pop(&mut self) -> Option<TaskToken> {
        if self.visible == 0 {
            return None;
        }
        let mut b = self.pop_rr;
        for _ in 0..self.banks.len() {
            if !self.masked[b] {
                if let Some(t) = self.banks[b].pop() {
                    self.pop_rr = self.next_bank(b);
                    self.visible -= 1;
                    self.len -= 1;
                    return Some(t);
                }
            }
            b = self.next_bank(b);
        }
        None
    }

    /// Minimum `(index, seq)` over every queued task (exact, scanning all
    /// banks — for-all tokens are not FIFO-ordered by index).
    pub fn min_queued(&self) -> Option<(IndexTuple, u64)> {
        self.banks
            .iter()
            .flat_map(|b| b.iter())
            .map(|t| (t.index, t.seq))
            .min()
    }

    /// Writes the queue's totals into a registry view: pushes,
    /// occupancy and the peak. The per-cycle statistics are levels
    /// (see [`QueueMetrics::register`]).
    pub fn publish(&self, ids: &QueueMetrics, m: &mut MetricsRegistry) {
        m.set_counter(ids.pushed, self.pushed_total);
        m.set_gauge(ids.occupancy, self.len as f64);
        m.set_gauge(ids.peak, self.peak as f64);
    }

    /// End-of-cycle commit of all banks.
    pub fn commit(&mut self) {
        if self.visible == self.len {
            return;
        }
        for b in &mut self.banks {
            b.commit();
        }
        self.visible = self.len;
    }

    /// `(len, visible)` by a scan of the banks.
    fn scan_counts(&self) -> (usize, usize) {
        self.banks
            .iter()
            .fold((0, 0), |(n, v), b| (n + b.len(), v + b.visible()))
    }

    /// Do the kept counts match a scan of the banks, does every masked
    /// bank hold nothing, and is the capacity that of the live banks?
    /// (Debug invariant.)
    pub(crate) fn counts_consistent(&self) -> bool {
        (self.len, self.visible) == self.scan_counts()
            && self
                .banks
                .iter()
                .zip(&self.masked)
                .all(|(b, &m)| !m || b.is_empty())
            && self.capacity == self.per_bank * self.live_banks()
    }

    /// Serializes the queue's mutable state (bank contents, allocator
    /// rotation, counters, mask, degraded capacity) for a fabric
    /// snapshot. Structure (kind, level, bank count, per-bank size,
    /// reserve) is rebuilt from config on restore.
    pub(crate) fn snapshot_json(&self) -> Json {
        Json::obj([
            (
                "banks",
                Json::arr(self.banks.iter().map(|b| {
                    Json::obj([
                        ("v", Json::arr(b.iter().map(snapshot::token_json))),
                        ("s", Json::arr(b.iter_staged().map(snapshot::token_json))),
                    ])
                })),
            ),
            ("counter", Json::U64(self.counter)),
            ("push_rr", Json::U64(self.push_rr as u64)),
            ("pop_rr", Json::U64(self.pop_rr as u64)),
            ("pushed_total", Json::U64(self.pushed_total)),
            ("peak", Json::U64(self.peak as u64)),
            ("capacity", Json::U64(self.capacity as u64)),
            (
                "masked",
                Json::arr(self.masked.iter().map(|&m| Json::Bool(m))),
            ),
        ])
    }

    /// Restores state captured by [`TaskQueue::snapshot_json`] into a
    /// structurally identical queue.
    pub(crate) fn restore_json(&mut self, j: &Json) -> Result<(), String> {
        let banks = snapshot::arr_field(j, "banks")?;
        if banks.len() != self.banks.len() {
            return Err(format!(
                "snapshot: queue has {} banks, config builds {}",
                banks.len(),
                self.banks.len()
            ));
        }
        for (bank, bj) in self.banks.iter_mut().zip(banks) {
            let decode = |key: &str| -> Result<Vec<TaskToken>, String> {
                snapshot::arr_field(bj, key)?
                    .iter()
                    .map(snapshot::token_from)
                    .collect()
            };
            let visible = decode("v")?;
            let staged = decode("s")?;
            if visible.len() + staged.len() > bank.capacity() {
                return Err("snapshot: queue bank over capacity".into());
            }
            *bank = Fifo::from_parts(bank.capacity(), visible, staged);
        }
        self.counter = snapshot::u64_field(j, "counter")?;
        self.push_rr = snapshot::usize_field(j, "push_rr")? % self.banks.len();
        self.pop_rr = snapshot::usize_field(j, "pop_rr")? % self.banks.len();
        self.pushed_total = snapshot::u64_field(j, "pushed_total")?;
        self.peak = snapshot::usize_field(j, "peak")?;
        self.capacity = snapshot::usize_field(j, "capacity")?;
        let masked = snapshot::bool_vec(snapshot::field(j, "masked")?, "masked")?;
        if masked.len() != self.masked.len() {
            return Err("snapshot: queue mask length mismatch".into());
        }
        self.masked = masked;
        (self.len, self.visible) = self.scan_counts();
        if !self.counts_consistent() {
            return Err(format!(
                "snapshot: queue capacity {} does not match {} live banks of {}, \
                 or a masked bank holds tasks",
                self.capacity,
                self.live_banks(),
                self.per_bank
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::to_fields;

    fn q(kind: TaskSetKind) -> TaskQueue {
        TaskQueue::new(kind, 1, 4, 16)
    }

    #[test]
    fn for_each_assigns_increasing_indices() {
        let mut q = q(TaskSetKind::ForEach);
        let a = q.push_child(IndexTuple::ROOT, 1, to_fields(&[5])).unwrap();
        let b = q.push_child(IndexTuple::ROOT, 2, to_fields(&[6])).unwrap();
        assert!(a.index < b.index);
        assert_eq!(a.index.component(1), 0);
        assert_eq!(b.index.component(1), 1);
    }

    #[test]
    fn for_all_shares_parent_order() {
        let mut q = TaskQueue::new(TaskSetKind::ForAll, 2, 2, 8);
        let parent = IndexTuple::new(&[3]);
        let a = q.push_child(parent, 1, to_fields(&[0])).unwrap();
        let b = q.push_child(parent, 2, to_fields(&[1])).unwrap();
        assert_eq!(a.index, b.index);
        assert_eq!(a.index.component(1), 3);
        assert_eq!(a.index.component(2), 0);
    }

    #[test]
    fn pop_round_robins_after_commit() {
        let mut q = q(TaskSetKind::ForEach);
        for i in 0..6 {
            q.push_child(IndexTuple::ROOT, i, to_fields(&[i])).unwrap();
        }
        assert!(q.pop().is_none()); // staged only
        q.commit();
        let mut seen = Vec::new();
        while let Some(t) = q.pop() {
            seen.push(t.fields[0]);
        }
        assert_eq!(seen.len(), 6);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn full_queue_rejects_and_counter_unchanged() {
        let mut q = TaskQueue::new(TaskSetKind::ForEach, 1, 1, 2);
        assert!(q.push_child(IndexTuple::ROOT, 1, to_fields(&[0])).is_some());
        assert!(q.push_child(IndexTuple::ROOT, 2, to_fields(&[1])).is_some());
        assert!(q.push_child(IndexTuple::ROOT, 3, to_fields(&[2])).is_none());
        q.commit();
        q.pop();
        // Counter did not advance for the failed push.
        let t = q.push_child(IndexTuple::ROOT, 4, to_fields(&[3])).unwrap();
        assert_eq!(t.index.component(1), 2);
    }

    #[test]
    fn bank_mask_drains_and_degrades() {
        let mut q = q(TaskSetKind::ForEach);
        for i in 0..8 {
            q.push_child(IndexTuple::ROOT, i, to_fields(&[i])).unwrap();
        }
        q.commit();
        let drained = q.mask_bank(0).expect("first mask allowed");
        assert_eq!(q.live_banks(), 3);
        assert_eq!(q.len() + drained.len(), 8, "nothing lost by the drain");
        for t in drained {
            assert!(q.push_fixed(t), "survivors absorb the respill");
        }
        q.commit();
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 8);
        // Degradation stops at half the banks.
        assert!(q.mask_bank(1).is_some());
        assert_eq!(q.live_banks(), 2);
        assert!(q.mask_bank(2).is_none(), "refuses to go below half");
    }

    #[test]
    fn bank_mask_respects_reserve() {
        let mut q = TaskQueue::new(TaskSetKind::ForEach, 1, 2, 8);
        q.set_reserve(4); // clamped to capacity/2 = 4
        // Masking one of two banks would leave 4 slots <= 2 * reserve.
        assert!(q.mask_bank(0).is_none());
        assert_eq!(q.live_banks(), 2);
    }

    #[test]
    fn min_queued_scans_banks() {
        let mut q = TaskQueue::new(TaskSetKind::ForAll, 1, 2, 8);
        let big = IndexTuple::new(&[9]);
        let small = IndexTuple::new(&[2]);
        assert!(q.push_fixed(TaskToken {
            index: big,
            seq: 1,
            fields: to_fields(&[])
        }));
        assert!(q.push_fixed(TaskToken {
            index: small,
            seq: 2,
            fields: to_fields(&[])
        }));
        q.commit();
        assert_eq!(q.min_queued(), Some((small, 2)));
        assert_eq!(q.peak(), 2);
        assert_eq!(q.pushed_total(), 2);
    }
}
