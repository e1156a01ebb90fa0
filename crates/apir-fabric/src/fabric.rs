//! The synthesized accelerator: pipelines + queues + rule engines + memory.
//!
//! This is the Model-of-Structure of Figure 7: task queues pop tokens into
//! replicated task pipelines; pipelines are chains of primitive-operation
//! stages generated from the BDFG; load/store units and rendezvous points
//! complete out of order through small matching stations while every other
//! stage is in-order; rule engines steer tokens; the host seeds initial
//! tasks (incrementally, when queues are smaller than the seed set).
//!
//! Execution is cycle-by-cycle and *execution-driven*: memory operations
//! act on the real [`apir_core::MemImage`] at completion, so the final
//! image can be compared against the sequential interpreter.

use crate::fault::{FaultMetrics, FaultPlan, FaultStats};
use crate::memory::{MemMetrics, MemStats, MemorySubsystem};
use crate::queue::{QueueMetrics, TaskQueue};
use crate::rules::{ClaimOutcome, RuleEngine, RuleEngineStats, RuleMetrics};
use crate::snapshot::{self, SNAPSHOT_SCHEMA};
use crate::types::{to_fields, Ctx, EventMsg, MemReq, TaskToken, WriteKind};
use crate::FabricConfig;
use apir_core::op::{BodyOp, StoreKind, ValRef};
use apir_core::spec::{ExternIn, RuleId, Spec, TaskSetId};
use apir_core::{IndexTuple, ProgramInput, MAX_FIELDS};
use apir_sim::delay::OutOfOrderStation;
use apir_sim::fifo::Fifo;
use apir_sim::metrics::{
    stall_level, CounterId, GaugeId, Histogram, LevelStat, MetricValue, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
use apir_sim::seconds_from_cycles;
use apir_sim::stats::{Activity, ActivityTracker, StallCause, UtilizationSummary};
use apir_sim::timeline::{Timeline, TimelineRecorder, TimelineSample, TimelineWindow};
use apir_sim::trace::{CompId, EventTrace, TraceRecord};
use apir_util::json::Json;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Simulation failure. The runtime variants carry the partial
/// [`FabricReport`] at the point of failure (metrics, trace, memory
/// image, diagnostics) so a failed campaign can still be post-mortemed
/// with the same tooling as a successful run.
#[derive(Debug)]
pub enum FabricError {
    /// No forward progress for the configured window, even after the
    /// watchdog escalation (forced `otherwise` + station flush).
    Deadlock {
        /// Cycle at which deadlock was declared.
        cycle: u64,
        /// Human-readable state summary.
        diagnostics: String,
        /// State of the fabric when the deadlock was declared.
        report: Box<FabricReport>,
    },
    /// The run exceeded `max_cycles`.
    MaxCycles {
        /// The cycle limit that was hit.
        cycle: u64,
        /// State of the fabric when the limit was hit.
        report: Box<FabricReport>,
    },
    /// A QPI transfer was dropped more than `faults.max_retries` times
    /// (only possible under an injected-fault campaign).
    LinkFailed {
        /// Cycle of the final drop.
        cycle: u64,
        /// Human-readable failure summary.
        diagnostics: String,
        /// State of the fabric when the link was declared failed.
        report: Box<FabricReport>,
    },
    /// The static analyzer found error-level diagnostics in the spec; the
    /// fabric refuses to simulate a graph it knows is broken.
    RejectedByLint {
        /// The rendered lint report.
        report: String,
    },
}

impl FabricError {
    /// The partial report captured at the failure point, when there is
    /// one (`RejectedByLint` fails before the first cycle).
    pub fn partial_report(&self) -> Option<&FabricReport> {
        match self {
            FabricError::Deadlock { report, .. }
            | FabricError::MaxCycles { report, .. }
            | FabricError::LinkFailed { report, .. } => Some(report),
            FabricError::RejectedByLint { .. } => None,
        }
    }

    /// Stable terminal-cause tag for report JSON (`terminated.kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            FabricError::Deadlock { .. } => "deadlock",
            FabricError::MaxCycles { .. } => "max_cycles",
            FabricError::LinkFailed { .. } => "link_failed",
            FabricError::RejectedByLint { .. } => "rejected_by_lint",
        }
    }

    /// Cycle at which the run terminated, when it got that far
    /// (`RejectedByLint` fails before the first cycle).
    pub fn failure_cycle(&self) -> Option<u64> {
        match self {
            FabricError::Deadlock { cycle, .. }
            | FabricError::MaxCycles { cycle, .. }
            | FabricError::LinkFailed { cycle, .. } => Some(*cycle),
            FabricError::RejectedByLint { .. } => None,
        }
    }
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Deadlock {
                cycle, diagnostics, ..
            } => {
                write!(f, "deadlock at cycle {cycle}: {diagnostics}")
            }
            FabricError::MaxCycles { cycle, .. } => write!(f, "exceeded max cycles ({cycle})"),
            FabricError::LinkFailed {
                cycle, diagnostics, ..
            } => {
                write!(f, "link failed at cycle {cycle}: {diagnostics}")
            }
            FabricError::RejectedByLint { report } => {
                write!(f, "spec rejected by static analysis:\n{report}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Results of a fabric run.
#[derive(Clone, Debug)]
pub struct FabricReport {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Wall time at the configured clock.
    pub seconds: f64,
    /// Tasks retired per task set.
    pub retired: Vec<u64>,
    /// Rendezvous that returned `false` (squashed tokens).
    pub squashes: u64,
    /// Tokens recirculated by `Requeue`.
    pub requeues: u64,
    /// Coordinative waits bounced by the reservation-station timeout.
    pub bounces: u64,
    /// Memory subsystem statistics.
    pub mem: MemStats,
    /// Per-rule-engine statistics.
    pub rules: Vec<RuleEngineStats>,
    /// The paper's pipeline utilization rate (Figure 10).
    pub utilization: f64,
    /// Number of primitive operations instantiated.
    pub primitive_ops: usize,
    /// Peak queue occupancy per task set.
    pub queue_peaks: Vec<usize>,
    /// Extern core invocations.
    pub extern_calls: u64,
    /// The final memory image.
    pub mem_image: apir_core::MemImage,
    /// `(cycle, task_set)` per retirement, if recording was enabled.
    pub retirements: Vec<(u64, usize)>,
    /// Final snapshot of the metrics registry (stable `fabric.*`,
    /// `queue.*`, `mem.*`, `rule.*` keys — see README §Observability).
    pub metrics: MetricsSnapshot,
    /// Per-primitive-operation busy/stall/idle totals.
    pub activity: UtilizationSummary,
    /// Fault-injection and recovery totals (all zero on a fault-free
    /// run; also exported as the `fault.*` metric keys).
    pub faults: FaultStats,
    /// The structured event trace, when `trace_capacity > 0`.
    pub trace: Option<EventTrace>,
    /// Windowed activity/memory timeline, when `timeline_window > 0`.
    pub timeline: Option<Timeline>,
    /// Rollback-and-replay recovery summary; present exactly when
    /// recovery was armed (`max_rollbacks > 0`), even if no link
    /// failure ever triggered it.
    pub rollbacks: Option<RollbackSummary>,
}

/// Totals for the checkpoint/rollback recovery path: how often a
/// terminal link failure was converted into a rewind-and-replay, and
/// how much simulated work was re-executed to get there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RollbackSummary {
    /// Rollbacks performed (≤ `FabricConfig::max_rollbacks`).
    pub count: u64,
    /// Total cycles re-executed (Σ failure cycle − checkpoint cycle).
    pub replayed_cycles: u64,
    /// One `(fail_cycle, resume_cycle)` pair per rollback, in order.
    pub events: Vec<(u64, u64)>,
}

/// Outcome of [`Fabric::run_until`]: the run either finished before the
/// target cycle or paused at it with work still in flight.
#[allow(clippy::large_enum_variant)]
pub enum RunSplit {
    /// The run completed before reaching the target cycle.
    Done(Box<FabricReport>),
    /// The target cycle was reached; the paused fabric can be
    /// snapshotted with [`Fabric::snapshot`] or resumed with
    /// [`Fabric::run`] / [`Fabric::run_until`].
    Paused(Box<Fabric>),
}

impl FabricReport {
    /// Total retired tasks.
    pub fn total_retired(&self) -> u64 {
        self.retired.iter().sum()
    }
}

/// Pre-registered handles for the fabric-level metric keys; component
/// keys live in [`MemMetrics`], [`QueueMetrics`], [`RuleMetrics`]. The
/// per-cycle statistics of component levels live in `levels`.
struct FabricMetricIds {
    cycles: CounterId,
    busy: CounterId,
    stall: CounterId,
    idle: CounterId,
    /// One counter per [`StallCause`], in `StallCause::ALL` order.
    stall_causes: Vec<CounterId>,
    retired: Vec<CounterId>,
    squashes: CounterId,
    requeues: CounterId,
    bounces: CounterId,
    extern_calls: CounterId,
    utilization: GaugeId,
    queues: Vec<QueueMetrics>,
    mem: MemMetrics,
    rules: Vec<RuleMetrics>,
    faults: FaultMetrics,
    /// Every level statistic, in the order [`live_levels`] reads the
    /// levels: per queue its occupancy then its stall, the memory
    /// subsystem's in-flight count then its stall, per rule engine its
    /// stall.
    levels: Vec<LevelStat>,
}

impl FabricMetricIds {
    fn register(m: &mut MetricsRegistry, spec: &Spec) -> Self {
        let mut levels = Vec::new();
        let queues = spec
            .task_sets()
            .iter()
            .map(|t| QueueMetrics::register(m, &t.name, &mut levels))
            .collect();
        let mem = MemMetrics::register(m, &mut levels);
        let rules = spec
            .rules()
            .iter()
            .map(|r| RuleMetrics::register(m, &r.name, &mut levels))
            .collect();
        FabricMetricIds {
            cycles: m.counter("fabric.cycles"),
            busy: m.counter("fabric.busy"),
            stall: m.counter("fabric.stall"),
            idle: m.counter("fabric.idle"),
            stall_causes: StallCause::ALL
                .iter()
                .map(|c| m.counter(&format!("fabric.stall.{}", c.key())))
                .collect(),
            retired: spec
                .task_sets()
                .iter()
                .map(|t| m.counter(&format!("fabric.retired.{}", t.name)))
                .collect(),
            squashes: m.counter("fabric.squashes"),
            requeues: m.counter("fabric.requeues"),
            bounces: m.counter("fabric.bounces"),
            extern_calls: m.counter("fabric.extern_calls"),
            utilization: m.gauge("fabric.utilization"),
            queues,
            mem,
            rules,
            faults: FaultMetrics::register(m),
            levels,
        }
    }
}

/// The live value of every level statistic, in the order of
/// [`FabricMetricIds::levels`]. Each is O(1) to read.
fn live_levels<'a>(
    queues: &'a [TaskQueue],
    mem: &'a MemorySubsystem,
    engines: &'a [RuleEngine],
) -> impl Iterator<Item = u64> + 'a {
    queues
        .iter()
        .flat_map(|q| [q.len() as u64, stall_level(q.stall_cause())])
        .chain([mem.inflight() as u64, stall_level(mem.stall_cause())])
        .chain(engines.iter().map(|e| stall_level(e.stall_cause())))
}

/// Metric handles for the rollback-recovery path, registered only when
/// `max_rollbacks > 0` so fault-free and plain-chaos reports (and their
/// goldens) keep their exact key set.
struct RollbackIds {
    count: CounterId,
    replayed: CounterId,
    last_cycle: CounterId,
}

/// Cheap per-tick capture of the totals whose deltas become trace
/// records (allocated only when tracing is enabled).
struct TickSnap {
    mem: MemStats,
    pushed: Vec<u64>,
    rules: Vec<RuleEngineStats>,
    seeds_pending: usize,
    faults: FaultStats,
}

struct Stage {
    op: BodyOp,
    /// Response-routing port for Load/Store/Extern/Rendezvous stages.
    port: Option<u32>,
    station: Option<OutOfOrderStation<Ctx>>,
    /// Progress cursor of an in-flight `EnqueueRange`.
    expand_pos: Option<u64>,
    /// Busy and stall cycles credited so far. `idle` stays 0 here, and
    /// the stall of a sleeping stage is credited late: both are derived,
    /// see [`Stage::tracker_at`].
    tracker: ActivityTracker,
    /// Trace component of this stage (meaningful only when tracing).
    comp: CompId,
    /// Last activity state recorded to the trace (transition detection).
    last_activity: Option<Activity>,
    /// Cause of the most recent recorded stall. With [`Stage::asleep`]
    /// it is the stage's stall *level*: a sleeping stage stalls for this
    /// cause on every cycle after `since`.
    last_stall_cause: StallCause,
    /// `Some(since)` while the stage's stall has been credited only
    /// through cycle `since`: it is asleep, out of its pipeline's active
    /// set until the one event that can unblock it, or it was waiting
    /// across a quiescent jump. Its next visit settles the gap first.
    asleep: Option<u64>,
}

impl Stage {
    /// The stage's activity through `cycle`. Every cycle a stage is
    /// exactly one of busy, stall or idle. A sleeper stalls for
    /// `last_stall_cause` on every cycle since it fell asleep, and idle
    /// is what busy and stall leave; neither is counted per cycle,
    /// which is what lets a stage out of the active set cost nothing.
    fn tracker_at(&self, cycle: u64) -> ActivityTracker {
        let mut t = self.tracker;
        if let Some(since) = self.asleep {
            t.record_stall_n(self.last_stall_cause, cycle - since);
        }
        t.idle = cycle - t.busy - t.stall;
        t
    }

    /// Credits the stall cycles of a sleep that ends now: every cycle
    /// after `since` and before `now`, which the visit at `now` records
    /// itself.
    fn settle(&mut self, now: u64) {
        if let Some(since) = self.asleep.take() {
            self.tracker
                .record_stall_n(self.last_stall_cause, now - 1 - since);
        }
    }

    /// May this stage sleep after a visit that stalled for `cause` with
    /// no progress and no activity? Only when the blocker can clear on
    /// nothing but a wake event: the next latch emptying
    /// (`DownstreamFull`) or a response arriving on its port
    /// (`MissOutstanding`, `MshrFull`). A rendezvous times out by
    /// itself, and an extern's `DownstreamFull` also covers a full unit
    /// queue, so both stay awake.
    fn can_sleep(&self, cause: StallCause) -> bool {
        use StallCause::{DownstreamFull, MissOutstanding, MshrFull};
        matches!(cause, DownstreamFull | MissOutstanding | MshrFull)
            && !matches!(
                (&self.op, cause),
                (BodyOp::Rendezvous { .. }, _) | (BodyOp::Extern { .. }, DownstreamFull)
            )
    }
}

struct Pipeline {
    set: TaskSetId,
    latches: Vec<Option<Ctx>>,
    stages: Vec<Stage>,
    /// The active set, one bit per stage (bit `i % 64` of word
    /// `i / 64`): the stages the next tick visits. A stage joins when a
    /// context lands in its latch, a response lands on its port, or,
    /// asleep, when the context in the next latch leaves; it leaves after
    /// a visit that ends idle or asleep (see [`Stage::asleep`]). Every
    /// stage is in the set after [`Fabric::new`] and after a restore.
    active: Vec<u64>,
    /// Extern unit attached to this pipeline (if the body calls externs).
    extern_unit: Option<ExternUnit>,
    /// Trace component of this pipeline (meaningful only when tracing).
    comp: CompId,
}

impl Pipeline {
    fn activate(&mut self, i: usize) {
        self.active[i / 64] |= 1u64 << (i % 64);
    }

    fn activate_all(&mut self) {
        let n = self.stages.len();
        for (w, word) in self.active.iter_mut().enumerate() {
            *word = stage_mask(n, w);
        }
    }
}

struct ExternJob {
    tag: u64,
    port: u32,
    result: u64,
    bytes_left: u64,
    compute_left: u64,
}

struct ExternReq {
    tag: u64,
    port: u32,
    ext: usize,
    args: [u64; MAX_FIELDS],
    nargs: u8,
    index: IndexTuple,
}

struct ExternUnit {
    queue: Fifo<ExternReq>,
    busy: Option<ExternJob>,
    calls: u64,
}

/// The accelerator instance.
pub struct Fabric {
    spec: Spec,
    cfg: FabricConfig,
    mem: MemorySubsystem,
    queues: Vec<TaskQueue>,
    engines: Vec<RuleEngine>,
    pipelines: Vec<Pipeline>,
    /// Per-port response queues `(tag, word)`.
    resp: Vec<VecDeque<(u64, u64)>>,
    /// Response port → `(pipeline, stage)` that drains it.
    port_owner: Vec<(usize, usize)>,
    bus_staged: Vec<EventMsg>,
    bus_current: Vec<EventMsg>,
    /// Live tasks: queued or in flight, keyed by `(index, seq)`.
    live: BTreeSet<(IndexTuple, u64)>,
    /// Host-side seed backlog, pushed in as queue space allows.
    seed_backlog: VecDeque<(TaskSetId, [u64; MAX_FIELDS])>,
    /// Task activations from extern cores awaiting queue space.
    pending_tasks: VecDeque<(TaskSetId, IndexTuple, [u64; MAX_FIELDS])>,
    /// Events from extern cores awaiting bus slots.
    pending_events: VecDeque<EventMsg>,
    next_seq: u64,
    next_tag: u64,
    cycle: u64,
    last_progress: u64,
    retired: Vec<u64>,
    squashes: u64,
    requeues: u64,
    bounces: u64,
    retire_log: Vec<(u64, usize)>,
    /// Watchdog escalations performed (forced `otherwise` + flush).
    wd_escalations: u64,
    /// Reservation-station entries flushed by watchdog escalation.
    wd_flushes: u64,
    /// An escalation already ran for the current no-progress window;
    /// the next expiry is a real deadlock.
    escalated: bool,
    /// Tokens drained from fault-masked queue banks awaiting respill
    /// onto the surviving banks (they stay in `live` throughout).
    fault_respill: VecDeque<(usize, TaskToken)>,
    /// Rendered lint report when the analyzer found error-level findings;
    /// [`Fabric::run`] refuses to start while this is set.
    lint_errors: Option<String>,
    /// In-memory checkpoint (a full snapshot document) for
    /// rollback-and-replay, refreshed every `checkpoint_interval` cycles.
    ckpt: Option<Json>,
    /// Cycle at which `ckpt` was taken.
    ckpt_cycle: u64,
    /// Rollbacks performed so far (≤ `max_rollbacks`); also the re-salt
    /// epoch of the link RNG stream after the most recent rollback.
    rollbacks_done: u64,
    /// Total cycles re-executed across all rollbacks.
    rollback_replayed: u64,
    /// `(fail_cycle, resume_cycle)` per rollback, in order.
    rollback_events: Vec<(u64, u64)>,
    /// `fault.rollback.*` metric handles, when recovery is armed.
    mids_rollback: Option<RollbackIds>,
    /// The registered metric keys. Values are never written here: each
    /// report or snapshot renders a copy ([`Fabric::metrics_view`]).
    metrics: MetricsRegistry,
    mids: FabricMetricIds,
    trace: Option<EventTrace>,
    timeline: Option<TimelineRecorder>,
    tr_host: CompId,
    tr_mem: CompId,
    tr_fault: CompId,
    tr_queues: Vec<CompId>,
    tr_rules: Vec<CompId>,
}

impl Fabric {
    /// Instantiates an accelerator for a validated spec and seeds it with
    /// the program input.
    ///
    /// # Panics
    ///
    /// Panics if the spec was not validated.
    pub fn new(spec: &Spec, input: &ProgramInput, cfg: FabricConfig) -> Self {
        assert!(spec.is_validated(), "spec must be validated");
        let mem = MemorySubsystem::with_faults(cfg.mem.clone(), input.mem.clone(), &cfg.faults);
        // A degenerate config is rejected by the lint gate at `run`;
        // clamp the structural parameters so construction itself cannot
        // panic before the gate reports the real diagnostics.
        let banks = cfg.queue_banks.max(1);
        let capacity = cfg.queue_capacity.max(banks);
        let queues: Vec<TaskQueue> = spec
            .task_sets()
            .iter()
            .map(|t| {
                let mut q = TaskQueue::new(t.kind, t.level, banks, capacity);
                // Upper bound on contexts a task set's pipelines can hold
                // (latches + every station slot): reserve that much for
                // recirculation so requeue can never deadlock.
                let in_pipe = cfg.pipelines_per_set
                    * (t.body.len()
                        + t.body.len() * cfg.lsu_window.max(cfg.rendezvous_window));
                q.set_reserve(in_pipe);
                q
            })
            .collect();
        let engines: Vec<RuleEngine> = spec
            .rules()
            .iter()
            .map(|r| RuleEngine::new(r.clone(), cfg.rule_lanes))
            .collect();
        let mut metrics = MetricsRegistry::new();
        let mids = FabricMetricIds::register(&mut metrics, spec);
        let mids_rollback = (cfg.max_rollbacks > 0).then(|| RollbackIds {
            count: metrics.counter("fault.rollback.count"),
            replayed: metrics.counter("fault.rollback.replayed_cycles"),
            last_cycle: metrics.counter("fault.rollback.last_cycle"),
        });
        let mut trace = (cfg.trace_capacity > 0).then(|| EventTrace::new(cfg.trace_capacity));
        let mut intern = |name: &str| {
            trace.as_mut().map_or(CompId(0), |t| t.comp(name))
        };
        let tr_host = intern("host");
        let tr_mem = intern("mem");
        let tr_fault = intern("fault");
        let tr_queues: Vec<CompId> = spec
            .task_sets()
            .iter()
            .map(|t| intern(&format!("queue:{}", t.name)))
            .collect();
        let tr_rules: Vec<CompId> = spec
            .rules()
            .iter()
            .map(|r| intern(&format!("rule:{}", r.name)))
            .collect();
        let mut port_owner = Vec::new();
        let mut pipelines = Vec::new();
        for (tsi, ts) in spec.task_sets().iter().enumerate() {
            for replica in 0..cfg.pipelines_per_set {
                let pipe_name = format!("pipe:{}#{}", ts.name, replica);
                let mut stages = Vec::with_capacity(ts.body.len());
                let mut has_extern = false;
                for (si, op) in ts.body.iter().enumerate() {
                    let window = match op {
                        BodyOp::Load { .. } | BodyOp::Store { .. } => Some(cfg.lsu_window),
                        BodyOp::Rendezvous { .. } => Some(cfg.rendezvous_window),
                        BodyOp::Extern { .. } => {
                            has_extern = true;
                            Some(cfg.lsu_window)
                        }
                        _ => None,
                    };
                    let port = window.map(|_| {
                        port_owner.push((pipelines.len(), si));
                        (port_owner.len() - 1) as u32
                    });
                    stages.push(Stage {
                        comp: intern(&format!("{pipe_name}/s{si}:{}", op.mnemonic())),
                        op: op.clone(),
                        port,
                        station: window.map(OutOfOrderStation::new),
                        expand_pos: None,
                        tracker: ActivityTracker::new(),
                        last_activity: None,
                        last_stall_cause: StallCause::DownstreamFull,
                        asleep: None,
                    });
                }
                let mut p = Pipeline {
                    set: TaskSetId(tsi),
                    latches: vec![None; ts.body.len()],
                    active: vec![0; ts.body.len().div_ceil(64)],
                    stages,
                    extern_unit: has_extern.then(|| ExternUnit {
                        queue: Fifo::new(4),
                        busy: None,
                        calls: 0,
                    }),
                    comp: intern(&pipe_name),
                };
                p.activate_all();
                pipelines.push(p);
            }
        }
        let seed_backlog: VecDeque<(TaskSetId, [u64; MAX_FIELDS])> = input
            .initial
            .iter()
            .map(|t| (t.task_set, to_fields(&t.fields)))
            .collect();
        // Full static-analysis pass (spec + BDFG families) plus the
        // fabric-config sanity lints (`APIR5xx`): the fabric refuses at
        // `run` to simulate a graph or a configuration it knows is broken.
        let mut lint = apir_core::check::check_all(spec);
        lint.merge(cfg.validate());
        // Config-aware semantic analysis (`APIR6xx`): statically-certain
        // reserve starvation and unsound dependency cycles refuse to run
        // just like broken specs do. Skipped when the families above
        // already found errors — the analysis would reason about a graph
        // or config known to be invalid.
        if !lint.has_errors() {
            let params = crate::analysis_params(&cfg, spec, input);
            if let Some(a) = apir_core::check::analysis::analyze(spec, &params) {
                lint.merge(a.report);
            }
        }
        let lint_errors = lint.has_errors().then(|| lint.render_text());
        let timeline = (cfg.timeline_window > 0)
            .then(|| TimelineRecorder::new(cfg.timeline_window, cfg.timeline_capacity));
        let mut fabric = Fabric {
            retired: vec![0; spec.task_sets().len()],
            spec: spec.clone(),
            cfg,
            mem,
            queues,
            engines,
            pipelines,
            resp: vec![VecDeque::new(); port_owner.len()],
            port_owner,
            bus_staged: Vec::new(),
            bus_current: Vec::new(),
            live: BTreeSet::new(),
            seed_backlog,
            pending_tasks: VecDeque::new(),
            pending_events: VecDeque::new(),
            next_seq: 0,
            next_tag: 0,
            cycle: 0,
            last_progress: 0,
            squashes: 0,
            requeues: 0,
            bounces: 0,
            retire_log: Vec::new(),
            wd_escalations: 0,
            wd_flushes: 0,
            escalated: false,
            fault_respill: VecDeque::new(),
            lint_errors,
            ckpt: None,
            ckpt_cycle: 0,
            rollbacks_done: 0,
            rollback_replayed: 0,
            rollback_events: Vec::new(),
            mids_rollback,
            metrics,
            mids,
            trace,
            timeline,
            tr_host,
            tr_mem,
            tr_fault,
            tr_queues,
            tr_rules,
        };
        for (stat, live) in fabric.levels_live() {
            stat.reseed(0, live);
        }
        fabric
    }

    /// Runs the accelerator to quiescence.
    ///
    /// # Errors
    ///
    /// [`FabricError::RejectedByLint`] when the static analyzer found
    /// error-level diagnostics in the spec or its configuration;
    /// [`FabricError::Deadlock`] when nothing makes progress for the
    /// configured window and the watchdog escalation (forced `otherwise`
    /// for the minimum live task plus a rendezvous-station flush) also
    /// fails to restart it; [`FabricError::LinkFailed`] when an injected
    /// link-fault campaign exhausts a transfer's retry budget;
    /// [`FabricError::MaxCycles`] on timeout. All runtime errors carry
    /// the partial [`FabricReport`] for post-mortem.
    pub fn run(mut self) -> Result<FabricReport, FabricError> {
        if let Some(report) = self.lint_errors.take() {
            return Err(FabricError::RejectedByLint { report });
        }
        match self.run_loop(None)? {
            RunSplit::Done(report) => Ok(*report),
            RunSplit::Paused(_) => unreachable!("no pause target"),
        }
    }

    /// Runs until the fabric either finishes (exactly the [`Fabric::run`]
    /// contract) or reaches a cycle ≥ `target` with work still in
    /// flight, returning the paused fabric for snapshotting. Under the
    /// event wheel a quiescent jump may overshoot `target`; the pause
    /// then lands on the first post-jump cycle. `run_until(0)` pauses
    /// before the first tick.
    ///
    /// Restore equivalence: snapshotting the paused fabric, restoring
    /// it, and running to completion is byte-identical to the
    /// uninterrupted run (under rollback recovery, only when the pause
    /// lands on a checkpoint cycle; see [`crate::snapshot`]).
    ///
    /// # Errors
    ///
    /// Exactly the [`Fabric::run`] contract, when the run fails before
    /// reaching `target`.
    pub fn run_until(mut self, target: u64) -> Result<RunSplit, FabricError> {
        if let Some(report) = self.lint_errors.take() {
            return Err(FabricError::RejectedByLint { report });
        }
        self.run_loop(Some(target))
    }

    /// One-shot job entry point: builds the fabric and runs it to
    /// completion in a single call. This is the unit of work batch
    /// drivers dispatch (`apir-campaign` runs thousands of these
    /// concurrently, one per plan cell), kept here so the simulation
    /// request surface is a single deterministic function of
    /// `(spec, input, cfg)`.
    ///
    /// # Errors
    ///
    /// Exactly the [`Fabric::run`] contract.
    pub fn execute(
        spec: &Spec,
        input: &ProgramInput,
        cfg: FabricConfig,
    ) -> Result<FabricReport, FabricError> {
        Fabric::new(spec, input, cfg).run()
    }

    fn run_loop(mut self, target: Option<u64>) -> Result<RunSplit, FabricError> {
        // Arm the recovery path: checkpoint the pristine (or restored)
        // state so a failure before the first interval elapses still has
        // somewhere to rewind to.
        if self.cfg.checkpoint_interval > 0 && self.ckpt.is_none() {
            self.take_checkpoint();
        }
        loop {
            if target.is_some_and(|t| self.cycle >= t) {
                return Ok(RunSplit::Paused(Box::new(self)));
            }
            let moved = self.tick();
            if let Some(lf) = self.mem.link_failure() {
                // Rollback-and-replay: rewind to the last checkpoint and
                // re-run the window under a re-salted link RNG stream
                // instead of aborting, while the budget lasts.
                if self.cfg.max_rollbacks > 0
                    && self.rollbacks_done < u64::from(self.cfg.max_rollbacks)
                    && self.ckpt.is_some()
                {
                    self.rollback_and_replay();
                    continue;
                }
                let cycle = self.cycle;
                let diagnostics = format!(
                    "transfer tag {} on port {} dropped {} times (retries exhausted); {}",
                    lf.tag,
                    lf.port,
                    lf.retries + 1,
                    self.diagnostics()
                );
                return Err(FabricError::LinkFailed {
                    cycle,
                    diagnostics,
                    report: Box::new(self.into_report()),
                });
            }
            // `>=` rather than `==`: a quiescent jump can overshoot the
            // exact interval boundary.
            if self.cfg.checkpoint_interval > 0
                && self.cycle - self.ckpt_cycle >= self.cfg.checkpoint_interval
            {
                self.take_checkpoint();
            }
            if self.is_done() {
                return Ok(RunSplit::Done(Box::new(self.into_report())));
            }
            if self.cycle >= self.cfg.max_cycles {
                let cycle = self.cycle;
                return Err(FabricError::MaxCycles {
                    cycle,
                    report: Box::new(self.into_report()),
                });
            }
            if self.cycle - self.last_progress > self.cfg.deadlock_cycles {
                if !self.escalated {
                    // The paper's liveness lever, pulled early: force the
                    // minimum waiting task's `otherwise` and flush the
                    // rendezvous stations before declaring defeat.
                    self.escalate_watchdog();
                    continue;
                }
                let cycle = self.cycle;
                let diagnostics = self.diagnostics();
                return Err(FabricError::Deadlock {
                    cycle,
                    diagnostics,
                    report: Box::new(self.into_report()),
                });
            }
            // Event wheel: a quiescent tick would repeat identically
            // until the earliest pending wake, so jump to the cycle
            // *before* it — the next `tick` lands exactly on the wake.
            // Clamped to `max_cycles` so a timing-out run stops on the
            // same cycle as the dense loop.
            if !moved && !self.cfg.dense_tick {
                let wake = self.next_wake().min(self.cfg.max_cycles);
                if wake > self.cycle + 1 {
                    self.fast_forward(wake - self.cycle - 1);
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.live.is_empty()
            && self.seed_backlog.is_empty()
            && self.pending_tasks.is_empty()
            && self.fault_respill.is_empty()
            && self.mem.is_idle()
    }

    /// Captures the in-memory rollback checkpoint. Snapshotting is a
    /// pure observer — it never perturbs the run, so a checkpointing
    /// run stays byte-identical to a non-checkpointing one until (and
    /// unless) a rollback actually fires.
    fn take_checkpoint(&mut self) {
        self.ckpt_cycle = self.cycle;
        self.ckpt = Some(self.snapshot());
    }

    /// Rewinds to the in-memory checkpoint after a terminal link
    /// failure and re-salts the link RNG stream so the replay draws a
    /// fresh drop schedule. Recovery progress (rollback counters, the
    /// event log, and the checkpoint itself) is meta-state: it survives
    /// the rewind rather than being restored from it.
    fn rollback_and_replay(&mut self) {
        let fail_cycle = self.cycle;
        let epoch = self.rollbacks_done + 1;
        let events = std::mem::take(&mut self.rollback_events);
        let replayed = self.rollback_replayed;
        let doc = self.ckpt.clone().expect("rollback requires a checkpoint");
        self.restore_values(&doc)
            .expect("in-memory checkpoint restores against its own fabric");
        self.rollbacks_done = epoch;
        self.rollback_replayed = replayed + (fail_cycle - self.cycle);
        self.rollback_events = events;
        self.rollback_events.push((fail_cycle, self.cycle));
        if let Some(plan) = self.mem.faults_mut() {
            plan.resalt_link(epoch);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.record(self.cycle, self.tr_fault, "rollback", epoch);
        }
    }

    /// Last-resort liveness escalation, run when the progress watchdog
    /// is about to expire: force-release the minimum live task's rule
    /// lanes with their `otherwise` verdicts, then bounce every entry
    /// waiting in a rendezvous reservation station (each receives the
    /// conservative `false` and retries through its abort path). Resets
    /// the watchdog so the recovered work gets a full window to drain.
    fn escalate_watchdog(&mut self) {
        let now = self.cycle;
        self.wd_escalations += 1;
        let mut out = Vec::new();
        if let Some(key) = self.live.iter().next().copied() {
            for e in &mut self.engines {
                e.force_min_release(key, &mut out);
            }
        }
        for p in &mut self.pipelines {
            let set = p.set;
            for stage in &mut p.stages {
                let BodyOp::Rendezvous { rule_instance, .. } = &stage.op else {
                    continue;
                };
                let rule = rendezvous_rule(&self.spec, set, *rule_instance);
                let station = stage.station.as_mut().expect("rendezvous has station");
                while let Some(tag) = station.timeout_one(now + 1) {
                    self.engines[rule.0].cancel(tag);
                    self.bounces += 1;
                    self.wd_flushes += 1;
                }
            }
        }
        for (port, tag, word) in out {
            self.deliver(port, tag, word);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.record(now, self.tr_fault, "wd_escalate", 1);
        }
        self.escalated = true;
        self.last_progress = self.cycle;
    }

    /// Lands a response on its port and puts the stage that drains the
    /// port in its pipeline's active set.
    fn deliver(&mut self, port: u32, tag: u64, word: u64) {
        self.resp[port as usize].push_back((tag, word));
        let (pi, si) = self.port_owner[port as usize];
        self.pipelines[pi].activate(si);
    }

    /// Assembles the campaign totals: the memory subsystem owns the
    /// plan's counters; the watchdog counters live on the fabric (the
    /// escalation works with faults off too).
    fn fault_totals(&self) -> FaultStats {
        let mut s = self.mem.fault_stats();
        s.watchdog_escalations = self.wd_escalations;
        s.watchdog_flushed = self.wd_flushes;
        s
    }

    fn diagnostics(&self) -> String {
        let mut s = format!(
            "live={} seed_backlog={} pending_tasks={} ",
            self.live.len(),
            self.seed_backlog.len(),
            self.pending_tasks.len()
        );
        for (i, q) in self.queues.iter().enumerate() {
            s.push_str(&format!(
                "q[{}]={} ",
                self.spec.task_sets()[i].name,
                q.len()
            ));
        }
        for (i, e) in self.engines.iter().enumerate() {
            s.push_str(&format!("lanes[{}]={} ", self.spec.rules()[i].name, e.occupied()));
        }
        let in_flight: usize = self
            .pipelines
            .iter()
            .map(|p| {
                p.latches.iter().filter(|l| l.is_some()).count()
                    + p.stages
                        .iter()
                        .map(|st| st.station.as_ref().map_or(0, |s| s.len()))
                        .sum::<usize>()
            })
            .sum();
        s.push_str(&format!("in_pipeline={in_flight}"));
        if let Some(&(idx, seq)) = self.live.iter().next() {
            s.push_str(&format!(" min_live=({idx}, seq {seq})"));
        }
        let ages = self.mem.mshr_ages(self.cycle);
        if !ages.is_empty() {
            s.push_str(&format!(
                " mshr_ages={:?}",
                &ages[..ages.len().min(8)]
            ));
        }
        s
    }

    fn into_report(mut self) -> FabricReport {
        let mut metrics = self.metrics_view();
        let mut util = UtilizationSummary::new();
        let mut busy = 0u64;
        let mut stall = 0u64;
        let mut idle = 0u64;
        let mut causes = [0u64; StallCause::COUNT];
        for (pi, p) in self.pipelines.iter().enumerate() {
            for (si, st) in p.stages.iter().enumerate() {
                let t = st.tracker_at(self.cycle);
                util.add(format!("p{pi}.s{si}:{}", st.op.mnemonic()), t);
                busy += t.busy;
                stall += t.stall;
                idle += t.idle;
                for (acc, &c) in causes.iter_mut().zip(t.stall_by.iter()) {
                    *acc += c;
                }
            }
        }
        metrics.set_counter(self.mids.busy, busy);
        metrics.set_counter(self.mids.stall, stall);
        metrics.set_counter(self.mids.idle, idle);
        for (&id, &c) in self.mids.stall_causes.iter().zip(causes.iter()) {
            metrics.set_counter(id, c);
        }
        metrics.set_gauge(self.mids.utilization, util.pipeline_utilization());
        let timeline = self.timeline.take().map(|tl| {
            let totals = self.timeline_totals(self.cycle);
            tl.finish(self.cycle, totals)
        });
        FabricReport {
            rollbacks: (self.cfg.max_rollbacks > 0).then(|| RollbackSummary {
                count: self.rollbacks_done,
                replayed_cycles: self.rollback_replayed,
                events: self.rollback_events.clone(),
            }),
            faults: self.fault_totals(),
            metrics: metrics.snapshot(),
            activity: util.clone(),
            trace: self.trace,
            timeline,
            cycles: self.cycle,
            seconds: seconds_from_cycles(self.cfg.clock_mhz, self.cycle),
            retired: self.retired,
            squashes: self.squashes,
            requeues: self.requeues,
            bounces: self.bounces,
            mem: self.mem.stats(),
            rules: self.engines.iter().map(|e| e.stats()).collect(),
            utilization: util.pipeline_utilization(),
            primitive_ops: util.count(),
            queue_peaks: self.queues.iter().map(|q| q.peak()).collect(),
            extern_calls: self
                .pipelines
                .iter()
                .filter_map(|p| p.extern_unit.as_ref())
                .map(|u| u.calls)
                .sum(),
            mem_image: self.mem.image().clone(),
            retirements: self.retire_log,
        }
    }

    /// One clock cycle. Returns whether any module changed state this
    /// cycle ("moved") — the event wheel's quiescence signal. A tick
    /// that returns `false` would repeat byte-identically every cycle
    /// until the next scheduled wake (a latency pipe maturing, a retry
    /// backoff expiring, a bandwidth credit covering a blocked
    /// transfer, a fault-window trial, a rendezvous timeout, or the
    /// watchdog), so [`Fabric::run`] may jump straight to that wake.
    ///
    /// `moved` is deliberately wider than the watchdog's `progress`: a
    /// stage can be busy without making forward progress (pure ALU
    /// work, a guard-fail pass-through, a rendezvous bounce), and the
    /// memory subsystem can accept or re-arm transfers that pay off
    /// only cycles later. Skipping such a cycle would change state;
    /// skipping a `!moved` cycle cannot.
    pub fn tick(&mut self) -> bool {
        self.cycle += 1;
        let now = self.cycle;
        let mut progress = false;
        let mut moved = false;
        // Totals whose per-cycle deltas become trace records.
        let snap = self.trace.as_ref().map(|_| TickSnap {
            mem: self.mem.stats(),
            pushed: self.queues.iter().map(TaskQueue::pushed_total).collect(),
            rules: self.engines.iter().map(RuleEngine::stats).collect(),
            seeds_pending: self.seed_backlog.len(),
            faults: self.fault_totals(),
        });

        // 0) Fault campaign: windowed lane/bank hard-fault trials, then
        // respill of tokens drained from masked banks. Trials run at
        // cycles ≡ 1 (mod fw) — every cycle when `fw == 1`, since
        // `1 % 1 == 0`. (The old plain `now % fw == 1` comparison never
        // fired for a one-cycle window: no cycle satisfies
        // `now % 1 == 1`.)
        let fw = self.cfg.faults.fault_window;
        if fw > 0 && now % fw == 1 % fw {
            // Armed trials consume RNG draws even when masking fails,
            // so a trial cycle is never quiescent.
            moved |= self.fault_trials_armed();
            self.inject_window_faults(now);
        }
        progress |= self.drain_fault_respill();

        // 1) Memory subsystem: completions -> response ports.
        let mut responses = Vec::new();
        moved |= self.mem.tick(now, &mut responses);
        for (port, tag, word) in responses {
            self.deliver(port, tag, word);
            progress = true;
        }

        // 2) Host seeding: drain the backlog into queues.
        while let Some(&(ts, fields)) = self.seed_backlog.front() {
            if !self.queues[ts.0].can_push() {
                break;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let token = self.queues[ts.0]
                .push_child(IndexTuple::ROOT, seq, fields)
                .expect("checked can_push");
            self.live.insert((token.index, token.seq));
            self.seed_backlog.pop_front();
            progress = true;
        }

        // 3) Extern spill buffers -> queues / bus.
        while let Some(&(ts, parent, fields)) = self.pending_tasks.front() {
            if !self.queues[ts.0].can_push() {
                break;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let token = self.queues[ts.0]
                .push_child(parent, seq, fields)
                .expect("checked can_push");
            self.live.insert((token.index, token.seq));
            self.pending_tasks.pop_front();
            progress = true;
        }
        while self.bus_staged.len() < self.cfg.event_bus_width {
            let Some(ev) = self.pending_events.pop_front() else { break };
            self.bus_staged.push(ev);
        }

        // 4) Rule engines: evaluate last cycle's events + min broadcast.
        let global_min = self.live.iter().next().copied();
        let mut rule_out = Vec::new();
        let bus = std::mem::take(&mut self.bus_current);
        for e in &mut self.engines {
            moved |= e.tick(&bus, global_min, &mut rule_out);
        }
        for (port, tag, word) in rule_out {
            self.deliver(port, tag, word);
            progress = true;
        }

        // 5) Extern units.
        for pi in 0..self.pipelines.len() {
            let Some(unit) = self.pipelines[pi].extern_unit.as_mut() else {
                continue;
            };
            let (unit_progress, done) = tick_extern_unit(
                unit,
                &self.spec,
                &mut self.mem,
                &mut self.pending_tasks,
                &mut self.pending_events,
            );
            progress |= unit_progress;
            if let Some((port, tag, word)) = done {
                self.deliver(port, tag, word);
            }
        }

        // 6) Pipelines.
        let mut sh = Shared {
            spec: &self.spec,
            now,
            timeout: self.cfg.rendezvous_timeout,
            bus_cap: self.cfg.event_bus_width,
            dense: self.cfg.dense_tick,
            queues: &mut self.queues,
            engines: &mut self.engines,
            mem: &mut self.mem,
            resp: &mut self.resp,
            bus_staged: &mut self.bus_staged,
            live: &mut self.live,
            next_seq: &mut self.next_seq,
            next_tag: &mut self.next_tag,
            retired: &mut self.retired,
            squashes: &mut self.squashes,
            requeues: &mut self.requeues,
            bounces: &mut self.bounces,
            retire_log: self.cfg.record_retirements.then_some(&mut self.retire_log),
            trace: self.trace.as_mut(),
        };
        for p in &mut self.pipelines {
            let set = p.set.0;
            let before = sh
                .trace
                .is_some()
                .then(|| (sh.retired[set], *sh.squashes, *sh.requeues, *sh.bounces));
            let (p_progress, p_active) = tick_pipeline(p, &mut sh);
            progress |= p_progress;
            moved |= p_active;
            if let (Some((r0, s0, q0, b0)), Some(tr)) = (before, sh.trace.as_deref_mut()) {
                for (ev, d) in [
                    ("retire", sh.retired[set] - r0),
                    ("squash", *sh.squashes - s0),
                    ("requeue", *sh.requeues - q0),
                    ("bounce", *sh.bounces - b0),
                ] {
                    if d > 0 {
                        tr.record(now, p.comp, ev, d);
                    }
                }
            }
        }

        // 7) End of cycle: commit staged state.
        for q in &mut self.queues {
            q.commit();
        }
        self.mem.commit();
        for p in &mut self.pipelines {
            if let Some(u) = &mut p.extern_unit {
                u.queue.commit();
                progress |= u.busy.is_some();
            }
        }
        self.bus_current = std::mem::take(&mut self.bus_staged);
        if !self.bus_current.is_empty() {
            progress = true;
        }

        // 8) Observability: trace deltas vs the start-of-tick snapshot,
        // level statistics whose level moved, and a timeline window that
        // closes on this cycle. Counters and gauges are read when a
        // report or snapshot renders them.
        if let Some(snap) = snap {
            self.record_tick_deltas(now, &snap);
        }
        for (stat, live) in self.levels_live() {
            stat.update(now, live);
        }
        self.close_timeline_windows();

        if progress {
            self.last_progress = self.cycle;
            // A fresh no-progress window earns a fresh escalation.
            self.escalated = false;
        }
        debug_assert!(
            self.active_sets_cover_work(),
            "a stage holding work is neither in its active set nor blocked asleep"
        );
        debug_assert!(
            self.accounting_levels_current(),
            "a level statistic does not hold the live level it stands for"
        );
        moved || progress
    }

    /// Does every level statistic hold the live value it stands for, and
    /// do the components' O(1) counts behind those values match a scan?
    fn accounting_levels_current(&self) -> bool {
        self.mids
            .levels
            .iter()
            .map(LevelStat::value)
            .eq(live_levels(&self.queues, &self.mem, &self.engines))
            && self.queues.iter().all(TaskQueue::counts_consistent)
            && self.engines.iter().all(RuleEngine::counts_consistent)
    }

    /// Every level statistic, paired with the live value it stands for.
    fn levels_live(&mut self) -> impl Iterator<Item = (&mut LevelStat, u64)> + '_ {
        let live = live_levels(&self.queues, &self.mem, &self.engines);
        self.mids.levels.iter_mut().zip(live)
    }

    /// Closes every timeline window whose last cycle the clock has
    /// reached: one per boundary a tick or a quiescent jump crosses.
    fn close_timeline_windows(&mut self) {
        while let Some(at) = self
            .timeline
            .as_ref()
            .map(TimelineRecorder::next_close)
            .filter(|&at| at <= self.cycle)
        {
            let totals = self.timeline_totals(at);
            self.timeline.as_mut().expect("checked").close(totals);
        }
    }

    /// Does every stage that holds work — a latch occupant, a station
    /// entry or a pending response — sit in its pipeline's active set or
    /// sleep, and does every sleeper's blocker still hold: an occupied
    /// next latch for `DownstreamFull`, no pending response on its port
    /// for `MissOutstanding` and `MshrFull`?
    fn active_sets_cover_work(&self) -> bool {
        self.pipelines.iter().all(|p| {
            p.stages.iter().enumerate().all(|(i, st)| {
                if p.active[i / 64] >> (i % 64) & 1 == 1 {
                    return true;
                }
                let no_response = st
                    .port
                    .is_none_or(|port| self.resp[port as usize].is_empty());
                match (st.asleep, st.last_stall_cause) {
                    (None, _) => {
                        p.latches[i].is_none()
                            && st.station.as_ref().is_none_or(|s| s.is_empty())
                            && no_response
                    }
                    (Some(_), StallCause::DownstreamFull) => {
                        p.latches.get(i + 1).is_some_and(Option::is_some)
                    }
                    (Some(_), StallCause::MissOutstanding | StallCause::MshrFull) => no_response,
                    (Some(_), _) => false,
                }
            })
        })
    }

    /// Cumulative totals feeding the timeline at `cycle`, which is the
    /// current cycle or one inside a quiescent jump that just ended: a
    /// window's sample is their growth across it. Everything here is
    /// monotone, so the growth is always well-defined.
    fn timeline_totals(&self, cycle: u64) -> TimelineSample {
        let mut s = TimelineSample::default();
        for p in &self.pipelines {
            for st in &p.stages {
                let t = st.tracker_at(cycle);
                s.busy += t.busy;
                s.stall += t.stall;
                s.idle += t.idle;
            }
        }
        s.retired = self.retired.iter().sum();
        let mem = self.mem.stats();
        s.hits = mem.hits;
        s.misses = mem.misses;
        s.qpi_bytes = mem.qpi_bytes;
        s
    }

    /// Do the windowed fault trials consume RNG draws on this fabric?
    /// Zero-rate draws short-circuit without touching the generator, so
    /// they neither move state nor need event-wheel wakes.
    fn fault_trials_armed(&self) -> bool {
        self.cfg.faults.lane_fault_rate > 0.0 || self.cfg.faults.bank_fault_rate > 0.0
    }

    /// Earliest future cycle at which anything can happen, given that
    /// the tick at `self.cycle` moved nothing. Always finite — the
    /// watchdog deadline bounds every wait — and never later than the
    /// first cycle the dense loop would act on, so jumping here is
    /// semantically invisible.
    fn next_wake(&self) -> u64 {
        let now = self.cycle;
        // The watchdog fires on the first cycle where
        // `cycle - last_progress > deadlock_cycles`.
        let mut wake = self.last_progress + self.cfg.deadlock_cycles + 1;
        let mem_wake = self.mem.next_wake(now, wake);
        let mut consider = |c: u64| {
            let c = c.max(now + 1);
            if c < wake {
                wake = c;
            }
        };
        if let Some(c) = mem_wake {
            consider(c);
        }
        let fw = self.cfg.faults.fault_window;
        if fw > 0 && self.fault_trials_armed() {
            // Next cycle > now that is ≡ 1 (mod fw).
            let mut delta = (1 % fw + fw - now % fw) % fw;
            if delta == 0 {
                delta = fw;
            }
            consider(now + delta);
        }
        // Rendezvous stations self-wake through their timeout; every
        // other station waits on memory or extern completions, which
        // the candidates above (or extern-busy forcing dense ticks)
        // already cover.
        let timeout = self.cfg.rendezvous_timeout;
        for p in &self.pipelines {
            for st in &p.stages {
                if !matches!(st.op, BodyOp::Rendezvous { .. }) {
                    continue;
                }
                if let Some(born) = st
                    .station
                    .as_ref()
                    .and_then(OutOfOrderStation::oldest_waiting_insert)
                {
                    consider(born + timeout + 1);
                }
            }
        }
        drop(consider);
        wake
    }

    /// Jumps the clock forward `k` quiescent cycles. Nothing but the
    /// clock moves in such a stretch, so that is nearly all this does:
    /// the bandwidth meter accrues credit exactly as `k` ticks would
    /// (bit-exact — see [`apir_sim::bandwidth::BandwidthMeter::tick_n`]),
    /// waiting stages sleep from the jump on, and the timeline windows
    /// the jump crosses close. A quiescent stage repeats the state of
    /// the preceding tick, so no trace transition fires. Nothing else is
    /// replayed: idle is derived from the clock, every level statistic
    /// holds its unchanged level across the jump, and counters are read
    /// when a report or snapshot renders them.
    fn fast_forward(&mut self, k: u64) {
        let from = self.cycle;
        self.cycle += k;
        self.mem.fast_forward(k);
        // A waiting stage is asleep or in its pipeline's active set (only
        // a visit that ends idle or asleep removes one). The preceding
        // tick recorded a caused stall for each one in the set; from the
        // jump on it sleeps in place, and its next visit settles.
        for p in &mut self.pipelines {
            for (w, &word) in p.active.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let st = &mut p.stages[i];
                    if p.latches[i].is_some() || st.station.as_ref().is_some_and(|s| !s.is_empty())
                    {
                        st.asleep.get_or_insert(from);
                    }
                }
            }
        }
        self.close_timeline_windows();
    }

    /// One lane-fault and one bank-fault trial per engine/queue. The
    /// draws happen every window regardless of whether masking succeeds,
    /// so the fault schedule is a pure function of the seed.
    fn inject_window_faults(&mut self, now: u64) {
        for ei in 0..self.engines.len() {
            let Some(pick) = self.mem.faults_mut().and_then(FaultPlan::draw_lane_fault) else {
                continue;
            };
            let mut out = Vec::new();
            if let Some(drained) = self.engines[ei].mask_lane(pick, &mut out) {
                let plan = self.mem.faults_mut().expect("plan produced the draw");
                plan.stats.lanes_masked += 1;
                if drained {
                    plan.stats.lanes_drained += 1;
                }
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(now, self.tr_fault, "lane_mask", 1);
                }
            }
            for (port, tag, word) in out {
                self.deliver(port, tag, word);
            }
        }
        for qi in 0..self.queues.len() {
            let Some(pick) = self.mem.faults_mut().and_then(FaultPlan::draw_bank_fault) else {
                continue;
            };
            if let Some(drained) = self.queues[qi].mask_bank(pick) {
                let plan = self.mem.faults_mut().expect("plan produced the draw");
                plan.stats.banks_masked += 1;
                plan.stats.banks_drained += drained.len() as u64;
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(now, self.tr_fault, "bank_mask", 1);
                }
                for t in drained {
                    self.fault_respill.push_back((qi, t));
                }
            }
        }
    }

    /// Pushes tokens drained from masked banks back onto the surviving
    /// banks through the recirculation reserve (they never left `live`).
    fn drain_fault_respill(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.fault_respill.len() {
            let (qi, token) = self.fault_respill[i];
            if self.queues[qi].can_push_reserved() {
                let pushed = self.queues[qi].push_fixed(token);
                debug_assert!(pushed, "checked can_push_reserved");
                self.fault_respill.remove(i);
                progress = true;
            } else {
                i += 1;
            }
        }
        progress
    }

    /// Emits trace records for whatever the shared components (host,
    /// memory, queues, rule engines) did this cycle, as deltas against
    /// the totals captured at the top of [`Fabric::tick`].
    fn record_tick_deltas(&mut self, now: u64, snap: &TickSnap) {
        let tr = self.trace.as_mut().expect("snap implies trace");
        let seeded = snap.seeds_pending.saturating_sub(self.seed_backlog.len());
        if seeded > 0 {
            tr.record(now, self.tr_host, "seed", seeded as u64);
        }
        let mem = self.mem.stats();
        for (ev, d) in [
            ("hit", mem.hits - snap.mem.hits),
            ("miss", mem.misses - snap.mem.misses),
            ("write", mem.writes - snap.mem.writes),
        ] {
            if d > 0 {
                tr.record(now, self.tr_mem, ev, d);
            }
        }
        for (qi, q) in self.queues.iter().enumerate() {
            let d = q.pushed_total() - snap.pushed[qi];
            if d > 0 {
                tr.record(now, self.tr_queues[qi], "push", d);
            }
        }
        for (ei, e) in self.engines.iter().enumerate() {
            let s = e.stats();
            let p = &snap.rules[ei];
            for (ev, d) in [
                ("alloc", s.allocs - p.allocs),
                ("nack", s.alloc_stalls - p.alloc_stalls),
                ("clause", s.clause_fires - p.clause_fires),
                ("otherwise", s.otherwise_fires - p.otherwise_fires),
                ("evict", s.evictions - p.evictions),
            ] {
                if d > 0 {
                    tr.record(now, self.tr_rules[ei], ev, d);
                }
            }
        }
        // Soft-error and link injections/recoveries this cycle (lane,
        // bank, and watchdog events are recorded at their action sites).
        let f = self.mem.fault_stats();
        let pf = &snap.faults;
        for (ev, d) in [
            ("soft_injected", f.soft_injected - pf.soft_injected),
            ("soft_corrected", f.soft_corrected - pf.soft_corrected),
            ("soft_refetched", f.soft_refetched - pf.soft_refetched),
            ("link_drop", f.link_dropped - pf.link_dropped),
            ("link_late", f.link_late - pf.link_late),
            ("link_retry", f.link_retried - pf.link_retried),
            ("link_escalate", f.link_escalated - pf.link_escalated),
        ] {
            if d > 0 {
                tr.record(now, self.tr_fault, ev, d);
            }
        }
    }

    /// The metrics registry as of the current cycle: every counter and
    /// gauge read from its component's totals, and every level
    /// statistic credited through this cycle. The pipelines' activity
    /// counters (`fabric.busy`, `fabric.stall*`, `fabric.idle`,
    /// `fabric.utilization`) are left as registered; the report sets
    /// them.
    fn metrics_view(&self) -> MetricsRegistry {
        let mut m = self.metrics.clone();
        let now = self.cycle;
        m.set_counter(self.mids.cycles, now);
        for (id, &r) in self.mids.retired.iter().zip(self.retired.iter()) {
            m.set_counter(*id, r);
        }
        m.set_counter(self.mids.squashes, self.squashes);
        m.set_counter(self.mids.requeues, self.requeues);
        m.set_counter(self.mids.bounces, self.bounces);
        let externs: u64 = self
            .pipelines
            .iter()
            .filter_map(|p| p.extern_unit.as_ref())
            .map(|u| u.calls)
            .sum();
        m.set_counter(self.mids.extern_calls, externs);
        for (q, ids) in self.queues.iter().zip(self.mids.queues.iter()) {
            q.publish(ids, &mut m);
        }
        self.mem.publish(&self.mids.mem, &mut m);
        for (e, ids) in self.engines.iter().zip(self.mids.rules.iter()) {
            e.publish(ids, &mut m);
        }
        for stat in &self.mids.levels {
            stat.render(now, &mut m);
        }
        self.mids.faults.publish(&self.fault_totals(), &mut m);
        if let Some(ids) = &self.mids_rollback {
            m.set_counter(ids.count, self.rollbacks_done);
            m.set_counter(ids.replayed, self.rollback_replayed);
            let last = self.rollback_events.last().map_or(0, |&(fail, _)| fail);
            m.set_counter(ids.last_cycle, last);
        }
        m
    }
}

/// Ticks an extern unit. Returns whether it made progress, and the
/// `(port, tag, word)` response of a job that finished this cycle.
fn tick_extern_unit(
    unit: &mut ExternUnit,
    spec: &Spec,
    mem: &mut MemorySubsystem,
    pending_tasks: &mut VecDeque<(TaskSetId, IndexTuple, [u64; MAX_FIELDS])>,
    pending_events: &mut VecDeque<EventMsg>,
) -> (bool, Option<(u32, u64, u64)>) {
    let mut progress = false;
    let mut done = None;
    if let Some(job) = &mut unit.busy {
        if job.bytes_left > 0 {
            let granted = mem.grant_burst(job.bytes_left.min(256));
            job.bytes_left -= granted;
            progress |= granted > 0;
        } else if job.compute_left > 0 {
            job.compute_left -= 1;
            progress = true;
        }
        if job.bytes_left == 0 && job.compute_left == 0 {
            done = Some((job.port, job.tag, job.result));
            unit.busy = None;
            progress = true;
        }
    }
    if unit.busy.is_none() {
        if let Some(req) = unit.queue.pop() {
            unit.calls += 1;
            let f = spec.externs()[req.ext].f.clone();
            let out = f(
                mem.image_mut(),
                &ExternIn {
                    args: &req.args[..req.nargs as usize],
                    index: req.index,
                },
            );
            for (ts, fields) in out.new_tasks {
                pending_tasks.push_back((ts, req.index, to_fields(&fields)));
            }
            for (label, payload) in out.events {
                pending_events.push_back(EventMsg {
                    label,
                    payload: to_fields(&payload),
                    len: payload.len() as u8,
                    index: req.index,
                });
            }
            unit.busy = Some(ExternJob {
                tag: req.tag,
                port: req.port,
                result: out.out,
                bytes_left: out.cost.bytes_read + out.cost.bytes_written,
                compute_left: out.cost.compute_cycles.max(1),
            });
            progress = true;
        }
    }
    (progress, done)
}

/// Fabric state that every pipeline reads or writes during one tick,
/// borrowed once per tick from [`Fabric`].
struct Shared<'a> {
    spec: &'a Spec,
    now: u64,
    /// `FabricConfig::rendezvous_timeout`.
    timeout: u64,
    /// `FabricConfig::event_bus_width`.
    bus_cap: usize,
    /// `FabricConfig::dense_tick`: visit every stage, not the active set.
    dense: bool,
    queues: &'a mut [TaskQueue],
    engines: &'a mut [RuleEngine],
    mem: &'a mut MemorySubsystem,
    resp: &'a mut [VecDeque<(u64, u64)>],
    bus_staged: &'a mut Vec<EventMsg>,
    live: &'a mut BTreeSet<(IndexTuple, u64)>,
    next_seq: &'a mut u64,
    next_tag: &'a mut u64,
    retired: &'a mut [u64],
    squashes: &'a mut u64,
    requeues: &'a mut u64,
    bounces: &'a mut u64,
    /// The retirement log, when `record_retirements` is on.
    retire_log: Option<&'a mut Vec<(u64, usize)>>,
    trace: Option<&'a mut EventTrace>,
}

impl Shared<'_> {
    fn take_tag(&mut self) -> u64 {
        let tag = *self.next_tag;
        *self.next_tag += 1;
        tag
    }

    fn take_seq(&mut self) -> u64 {
        let seq = *self.next_seq;
        *self.next_seq += 1;
        seq
    }

    /// Pushes a child of `parent` onto `ts`'s queue and makes it live;
    /// the caller has checked `can_push`.
    fn spawn(&mut self, ts: TaskSetId, parent: IndexTuple, fields: [u64; MAX_FIELDS]) {
        let seq = self.take_seq();
        let token = self.queues[ts.0]
            .push_child(parent, seq, fields)
            .expect("checked can_push");
        self.live.insert((token.index, token.seq));
    }

    /// Moves a context into the next latch, or retires it when there is
    /// none (the pipeline tail).
    fn advance(&mut self, ctx: Ctx, next: Option<&mut Option<Ctx>>, set: TaskSetId) {
        if let Some(slot) = next {
            debug_assert!(slot.is_none(), "advance into occupied latch");
            *slot = Some(ctx);
            return;
        }
        self.live.remove(&(ctx.index, ctx.seq));
        self.retired[set.0] += 1;
        if let Some(log) = self.retire_log.as_deref_mut() {
            log.push((self.now, set.0));
        }
    }
}

/// The rule engine a rendezvous waits on: the rule of the `AllocRule`
/// op that produced its `rule_instance` tag.
fn rendezvous_rule(spec: &Spec, set: TaskSetId, rule_instance: ValRef) -> RuleId {
    match &spec.task_sets()[set.0].body[rule_instance.pos()] {
        BodyOp::AllocRule { rule, .. } => *rule,
        _ => unreachable!("validated spec"),
    }
}

/// Bits of active-set word `w` that stand for real stages of an
/// `n`-stage pipeline.
fn stage_mask(n: usize, w: usize) -> u64 {
    match n - w * 64 {
        left if left >= 64 => u64::MAX,
        left => (1u64 << left) - 1,
    }
}

/// Ticks one pipeline, tail to head, visiting only the stages in its
/// active set (every stage under `dense_tick`). Returns `(progress,
/// active)`: `progress` feeds the deadlock watchdog (forward progress
/// only), `active` is the wider event-wheel quiescence signal — any
/// stage doing *anything* this cycle, including non-progress work like
/// pure ALU moves, guard-fail pass-throughs, and rendezvous timeout
/// bounces.
fn tick_pipeline(p: &mut Pipeline, sh: &mut Shared<'_>) -> (bool, bool) {
    let n = p.stages.len();
    let mut progress = false;
    let mut active = false;
    for w in (0..p.active.len()).rev() {
        let mut todo = if sh.dense {
            stage_mask(n, w)
        } else {
            p.active[w]
        };
        while todo != 0 {
            let b = 63 - todo.leading_zeros() as usize;
            todo &= !(1u64 << b);
            let i = w * 64 + b;
            let held = p.latches[i].is_some();
            let next_free = i + 1 < n && p.latches[i + 1].is_none();
            let (state, s_progress, s_active) = tick_stage(p, i, sh);
            progress |= s_progress;
            active |= s_active;
            // A context that moved into latch i + 1 wakes that stage for
            // the next cycle (it was already visited on this one).
            if next_free && p.latches[i + 1].is_some() {
                p.activate(i + 1);
            }
            // A context that left latch i wakes a stage i − 1 sleeping on
            // it in this same cycle: it is visited after this one, so it
            // sees exactly what the dense loop shows it.
            if held && p.latches[i].is_none() && i > 0 && p.stages[i - 1].asleep.is_some() {
                p.activate(i - 1);
                if b > 0 {
                    todo |= 1u64 << (b - 1);
                }
            }
            // A stage that ends a visit idle holds nothing, and one that
            // fell asleep is blocked; visiting either again would change
            // nothing until a wake event puts it back.
            if state == Activity::Idle || p.stages[i].asleep.is_some() {
                p.active[w] &= !(1u64 << b);
            }
            // Trace only activity *transitions* so a stage that stays
            // busy for ten thousand cycles costs one record, not ten
            // thousand.
            if let Some(tr) = sh.trace.as_deref_mut() {
                let st = &mut p.stages[i];
                if st.last_activity != Some(state) {
                    st.last_activity = Some(state);
                    let ev = match state {
                        Activity::Busy => "busy",
                        Activity::Stall => "stall",
                        Activity::Idle => "idle",
                    };
                    tr.record(sh.now, st.comp, ev, 0);
                }
            }
        }
    }
    // Head: pop a task into latch 0.
    if n > 0 && p.latches[0].is_none() {
        if let Some(token) = sh.queues[p.set.0].pop() {
            p.latches[0] = Some(Ctx::from_token(token, n));
            p.activate(0);
            progress = true;
        }
    }
    (progress, active || progress)
}

/// Evaluates stage `i` for one cycle and records its busy or stall
/// cycle. Returns `(state, progress, active)`, the last two as
/// [`tick_pipeline`] defines them.
fn tick_stage(p: &mut Pipeline, i: usize, sh: &mut Shared<'_>) -> (Activity, bool, bool) {
    let set = p.set;
    let mut busy = false;
    let mut progress = false;
    let mut bounced = false;
    // Split the borrow: current latch vs the next one (`None` at the tail).
    let (latch_cur, mut latch_next) = {
        let (a, b) = p.latches.split_at_mut(i + 1);
        (&mut a[i], b.first_mut())
    };
    let stage = &mut p.stages[i];
    stage.settle(sh.now);

    // Phase A: drain responses into the station and retire ready
    // entries forward.
    if let (Some(port), Some(station)) = (stage.port, stage.station.as_mut()) {
        while let Some((tag, word)) = sh.resp[port as usize].pop_front() {
            // A miss is possible: the entry may have been bounced by a
            // timeout and its late response must be dropped.
            let _ = station.complete(tag, word);
        }
        // Coordinative rendezvous entries that waited too long bounce
        // back as `false`; their lane is cancelled.
        if let BodyOp::Rendezvous { rule_instance, .. } = &stage.op {
            let cutoff = sh.now.saturating_sub(sh.timeout);
            if let Some(tag) = station.timeout_one(cutoff) {
                let rule = rendezvous_rule(sh.spec, set, *rule_instance);
                sh.engines[rule.0].cancel(tag);
                *sh.bounces += 1;
                // A bounce mutates the station and the engine but is
                // not watchdog progress: flag it for the event wheel so
                // back-to-back bounces are never skipped over.
                bounced = true;
            }
        }
        // One completion may advance per cycle (station output port).
        if latch_next.as_ref().map_or(true, |l| l.is_none()) {
            if let Some((mut ctx, word)) = station.take_ready() {
                ctx.vals[i] = word;
                if matches!(stage.op, BodyOp::Rendezvous { .. }) && word == 0 {
                    *sh.squashes += 1;
                }
                busy = true;
                progress = true;
                sh.advance(ctx, latch_next.as_deref_mut(), set);
            }
        }
    }

    // Phase B: process the latch occupant.
    // Why the occupant could not leave its latch this cycle; only
    // meaningful when phase B re-parks it (`stalled_ctx`). The default
    // covers every pure-op and guard-fail path, which stall only
    // because the next latch is occupied.
    let mut stall_cause = StallCause::DownstreamFull;
    if let Some(ctx) = latch_cur.take() {
        let next_free = latch_next.as_ref().map_or(true, |l| l.is_none());
        let mut stalled_ctx: Option<Ctx> = None;
        // Writes `$val` into this stage's value slot and advances the
        // context, or re-parks it while the next latch is occupied.
        macro_rules! pass {
            ($ctx:ident, $val:expr) => {
                if next_free {
                    let mut $ctx = $ctx;
                    $ctx.vals[i] = $val;
                    busy = true;
                    sh.advance($ctx, latch_next.as_deref_mut(), set);
                } else {
                    stalled_ctx = Some($ctx);
                }
            };
        }
        // Gathers operand values into a fixed-width field array.
        let gather = |vs: &[ValRef], ctx: &Ctx| {
            let mut f = [0u64; MAX_FIELDS];
            for (k, v) in vs.iter().enumerate() {
                f[k] = ctx.vals[v.pos()];
            }
            f
        };
        if stage.op.guard().is_some_and(|g| ctx.vals[g.pos()] == 0) {
            // A failed guard skips the op's effect; the token carries 0.
            pass!(ctx, 0);
        } else {
            match &stage.op {
                BodyOp::Field(f) => pass!(ctx, ctx.fields[*f as usize]),
                BodyOp::IndexComp(l) => pass!(ctx, ctx.index.component(*l as usize)),
                BodyOp::Const(c) => pass!(ctx, *c),
                BodyOp::Alu(op, a, b) => pass!(ctx, op.eval(ctx.vals[a.pos()], ctx.vals[b.pos()])),
                BodyOp::Select {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let v = if ctx.vals[cond.pos()] != 0 {
                        ctx.vals[if_true.pos()]
                    } else {
                        ctx.vals[if_false.pos()]
                    };
                    pass!(ctx, v);
                }
                BodyOp::Load { region, addr } | BodyOp::Store { region, addr, .. } => {
                    let station = stage.station.as_mut().expect("memory op has station");
                    if station.can_insert() && sh.mem.requests.can_push() {
                        let write = match &stage.op {
                            BodyOp::Store { value, kind, .. } => {
                                let wk = match kind {
                                    StoreKind::Plain => WriteKind::Plain,
                                    StoreKind::Min => WriteKind::Min,
                                    StoreKind::Cas { expected } => {
                                        WriteKind::Cas(ctx.vals[expected.pos()])
                                    }
                                    StoreKind::Add => WriteKind::Add,
                                };
                                Some((wk, ctx.vals[value.pos()]))
                            }
                            _ => None,
                        };
                        let tag = sh.take_tag();
                        sh.mem.requests.push(MemReq {
                            port: stage.port.expect("memory op has port"),
                            tag,
                            region: *region,
                            offset: ctx.vals[addr.pos()],
                            write,
                        });
                        station.insert(tag, ctx);
                        busy = true;
                        progress = true;
                    } else {
                        stall_cause = if station.can_insert() {
                            StallCause::Bandwidth
                        } else {
                            StallCause::MshrFull
                        };
                        stalled_ctx = Some(ctx);
                    }
                }
                BodyOp::Enqueue {
                    task_set, fields, ..
                } => {
                    if next_free && sh.queues[task_set.0].can_push() {
                        sh.spawn(*task_set, ctx.index, gather(fields, &ctx));
                        progress = true;
                        pass!(ctx, 1);
                    } else {
                        stall_cause = if next_free {
                            StallCause::QueueFull
                        } else {
                            StallCause::DownstreamFull
                        };
                        stalled_ctx = Some(ctx);
                    }
                }
                BodyOp::EnqueueRange {
                    task_set,
                    lo,
                    hi,
                    extra,
                    ..
                } => {
                    let lo_v = ctx.vals[lo.pos()];
                    let hi_v = ctx.vals[hi.pos()];
                    if lo_v >= hi_v {
                        stage.expand_pos = None;
                        pass!(ctx, 0);
                    } else {
                        let pos = stage.expand_pos.get_or_insert(lo_v);
                        // Emit one child per cycle while space is available.
                        if *pos < hi_v && sh.queues[task_set.0].can_push() {
                            let mut f = [0u64; MAX_FIELDS];
                            f[0] = *pos;
                            f[1..].copy_from_slice(&gather(extra, &ctx)[..MAX_FIELDS - 1]);
                            *pos += 1;
                            sh.spawn(*task_set, ctx.index, f);
                            busy = true;
                            progress = true;
                        }
                        if stage.expand_pos == Some(hi_v) && next_free {
                            stage.expand_pos = None;
                            pass!(ctx, hi_v - lo_v);
                        } else {
                            stall_cause = if stage.expand_pos == Some(hi_v) {
                                StallCause::DownstreamFull
                            } else {
                                StallCause::QueueFull
                            };
                            stalled_ctx = Some(ctx);
                        }
                    }
                }
                BodyOp::Requeue { fields, .. } => {
                    if next_free && sh.queues[set.0].can_push_reserved() {
                        let token = TaskToken {
                            index: ctx.index,
                            seq: sh.take_seq(),
                            fields: gather(fields, &ctx),
                        };
                        let pushed = sh.queues[set.0].push_fixed(token);
                        debug_assert!(pushed, "checked can_push");
                        sh.live.insert((token.index, token.seq));
                        *sh.requeues += 1;
                        progress = true;
                        pass!(ctx, 1);
                    } else {
                        stall_cause = if next_free {
                            StallCause::ReserveFull
                        } else {
                            StallCause::DownstreamFull
                        };
                        stalled_ctx = Some(ctx);
                    }
                }
                BodyOp::AllocRule { rule, params, .. } => {
                    if next_free {
                        let tag = sh.take_tag();
                        // Granted or nacked, the token proceeds: a nack
                        // buffered `false` for this tag, steering the
                        // task into its retry path at the rendezvous.
                        let _ =
                            sh.engines[rule.0].alloc(ctx.index, ctx.seq, gather(params, &ctx), tag);
                        progress = true;
                        pass!(ctx, tag);
                    } else {
                        stalled_ctx = Some(ctx);
                    }
                }
                BodyOp::Rendezvous { rule_instance, .. } => {
                    let station = stage.station.as_mut().expect("rendezvous has station");
                    if station.can_insert() && next_free {
                        let tag = ctx.vals[rule_instance.pos()];
                        let rule = rendezvous_rule(sh.spec, set, *rule_instance);
                        let port = stage.port.expect("rendezvous has port");
                        match sh.engines[rule.0].claim(tag, port) {
                            ClaimOutcome::Ready(v) => {
                                if !v {
                                    *sh.squashes += 1;
                                }
                                progress = true;
                                pass!(ctx, v as u64);
                            }
                            ClaimOutcome::Wait => {
                                station.insert_at(tag, ctx, sh.now);
                                busy = true;
                                progress = true;
                            }
                        }
                    } else {
                        stall_cause = if station.can_insert() {
                            StallCause::DownstreamFull
                        } else {
                            StallCause::RendezvousParked
                        };
                        stalled_ctx = Some(ctx);
                    }
                }
                BodyOp::Emit { label, payload, .. } => {
                    if next_free && sh.bus_staged.len() < sh.bus_cap {
                        sh.bus_staged.push(EventMsg {
                            label: *label,
                            payload: gather(payload, &ctx),
                            len: payload.len() as u8,
                            index: ctx.index,
                        });
                        progress = true;
                        pass!(ctx, 1);
                    } else {
                        stall_cause = if next_free {
                            StallCause::BusFull
                        } else {
                            StallCause::DownstreamFull
                        };
                        stalled_ctx = Some(ctx);
                    }
                }
                BodyOp::Extern { ext, args, .. } => {
                    let station = stage.station.as_mut().expect("extern has station");
                    let unit = p.extern_unit.as_mut().expect("extern has unit");
                    if station.can_insert() && unit.queue.can_push() {
                        let tag = sh.take_tag();
                        unit.queue.push(ExternReq {
                            tag,
                            port: stage.port.expect("extern has port"),
                            ext: ext.0,
                            args: gather(args, &ctx),
                            nargs: args.len() as u8,
                            index: ctx.index,
                        });
                        station.insert(tag, ctx);
                        busy = true;
                        progress = true;
                    } else {
                        stall_cause = if station.can_insert() {
                            StallCause::DownstreamFull
                        } else {
                            StallCause::MshrFull
                        };
                        stalled_ctx = Some(ctx);
                    }
                }
            }
        }
        *latch_cur = stalled_ctx;
    }

    // Activity accounting. Idle cycles are not counted, nor are the
    // stall cycles of a sleep: both are derived (see `Stage::tracker_at`).
    let waiting_latch = latch_cur.is_some();
    let state = if busy {
        stage.tracker.record(Activity::Busy);
        Activity::Busy
    } else if waiting_latch || stage.station.as_ref().is_some_and(|s| !s.is_empty()) {
        // A re-parked latch carries the cause phase B just computed; a
        // station-only stall is waiting on an outstanding completion
        // (rendezvous verdict or memory/extern response).
        let cause = if waiting_latch {
            stall_cause
        } else if matches!(stage.op, BodyOp::Rendezvous { .. }) {
            StallCause::RendezvousParked
        } else {
            StallCause::MissOutstanding
        };
        stage.tracker.record_stall(cause);
        stage.last_stall_cause = cause;
        // Nothing this visit did, and nothing but a wake event can
        // change, so every cycle until then would repeat this one.
        if !sh.dense && !progress && !bounced && stage.can_sleep(cause) {
            stage.asleep = Some(sh.now);
        }
        Activity::Stall
    } else {
        Activity::Idle
    };
    (state, progress, busy || bounced)
}

impl Fabric {
    /// Serializes the complete mutable state of this fabric as an
    /// `apir.fabric.snapshot.v1` document. Everything derivable from the
    /// `(spec, input, config)` triple is structural and omitted; see
    /// [`crate::snapshot`] for the contract.
    pub fn snapshot(&self) -> Json {
        // The timeline is rendered from the totals at this cycle: the
        // open window's growth so far, and the totals themselves.
        let totals = self.tl_prev();
        Json::obj([
            ("schema", Json::str(SNAPSHOT_SCHEMA)),
            ("cycle", Json::U64(self.cycle)),
            (
                "core",
                Json::obj([
                    ("next_seq", Json::U64(self.next_seq)),
                    ("next_tag", Json::U64(self.next_tag)),
                    ("last_progress", Json::U64(self.last_progress)),
                    ("escalated", Json::Bool(self.escalated)),
                    ("wd_escalations", Json::U64(self.wd_escalations)),
                    ("wd_flushes", Json::U64(self.wd_flushes)),
                    ("squashes", Json::U64(self.squashes)),
                    ("requeues", Json::U64(self.requeues)),
                    ("bounces", Json::U64(self.bounces)),
                    (
                        "retired",
                        Json::arr(self.retired.iter().map(|&r| Json::U64(r))),
                    ),
                ]),
            ),
            (
                "rollback",
                Json::obj([
                    ("done", Json::U64(self.rollbacks_done)),
                    ("replayed", Json::U64(self.rollback_replayed)),
                    (
                        "events",
                        Json::arr(
                            self.rollback_events.iter().map(|&(f, r)| pair_json(f, r)),
                        ),
                    ),
                ]),
            ),
            (
                "live",
                Json::arr(self.live.iter().map(|(i, s)| {
                    Json::arr([snapshot::index_json(i), Json::U64(*s)])
                })),
            ),
            (
                "seed_backlog",
                Json::arr(self.seed_backlog.iter().map(|(ts, f)| {
                    Json::arr([Json::U64(ts.0 as u64), snapshot::fields_json(f)])
                })),
            ),
            (
                "pending_tasks",
                Json::arr(self.pending_tasks.iter().map(|(ts, idx, f)| {
                    Json::arr([
                        Json::U64(ts.0 as u64),
                        snapshot::index_json(idx),
                        snapshot::fields_json(f),
                    ])
                })),
            ),
            (
                "pending_events",
                Json::arr(self.pending_events.iter().map(snapshot::event_json)),
            ),
            (
                "bus_staged",
                Json::arr(self.bus_staged.iter().map(snapshot::event_json)),
            ),
            (
                "bus_current",
                Json::arr(self.bus_current.iter().map(snapshot::event_json)),
            ),
            (
                "fault_respill",
                Json::arr(self.fault_respill.iter().map(|(qi, t)| {
                    Json::arr([Json::U64(*qi as u64), snapshot::token_json(t)])
                })),
            ),
            (
                "resp",
                Json::arr(self.resp.iter().map(|q| {
                    Json::arr(q.iter().map(|&(t, w)| pair_json(t, w)))
                })),
            ),
            (
                "retire_log",
                Json::arr(self.retire_log.iter().map(|&(c, s)| pair_json(c, s as u64))),
            ),
            (
                "queues",
                Json::arr(self.queues.iter().map(TaskQueue::snapshot_json)),
            ),
            (
                "engines",
                Json::arr(self.engines.iter().map(RuleEngine::snapshot_json)),
            ),
            ("mem", self.mem.snapshot_json()),
            (
                "pipelines",
                Json::arr(self.pipelines.iter().map(|p| pipeline_json(p, self.cycle))),
            ),
            ("metrics", metrics_json(&self.metrics_view().snapshot())),
            ("trace", self.trace.as_ref().map_or(Json::Null, trace_json)),
            (
                "timeline",
                self.timeline
                    .as_ref()
                    .map_or(Json::Null, |tl| timeline_json(tl, self.cycle, &totals)),
            ),
            ("tl_prev", sample_json(&totals)),
        ])
    }

    /// Rebuilds a fabric from the `(spec, input, cfg)` triple the
    /// snapshot was taken under, plus the snapshot document. Running the
    /// result to completion is byte-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Any structural mismatch — a snapshot taken under a different
    /// spec or config, a truncated or hand-mangled document — fails
    /// loudly with the offending member named.
    ///
    /// # Panics
    ///
    /// Panics if the spec was not validated (the [`Fabric::new`]
    /// contract).
    pub fn restore(
        spec: &Spec,
        input: &ProgramInput,
        cfg: FabricConfig,
        doc: &Json,
    ) -> Result<Fabric, String> {
        let mut f = Fabric::new(spec, input, cfg);
        f.restore_values(doc)?;
        Ok(f)
    }

    /// Overwrites every mutable value from a snapshot document, leaving
    /// structure (and rollback checkpoint meta) untouched.
    fn restore_values(&mut self, doc: &Json) -> Result<(), String> {
        let schema = snapshot::str_field(doc, "schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "snapshot: schema `{schema}`, expected `{SNAPSHOT_SCHEMA}`"
            ));
        }
        self.cycle = snapshot::u64_field(doc, "cycle")?;

        let core = snapshot::field(doc, "core")?;
        self.next_seq = snapshot::u64_field(core, "next_seq")?;
        self.next_tag = snapshot::u64_field(core, "next_tag")?;
        self.last_progress = snapshot::u64_field(core, "last_progress")?;
        self.escalated = snapshot::bool_field(core, "escalated")?;
        self.wd_escalations = snapshot::u64_field(core, "wd_escalations")?;
        self.wd_flushes = snapshot::u64_field(core, "wd_flushes")?;
        self.squashes = snapshot::u64_field(core, "squashes")?;
        self.requeues = snapshot::u64_field(core, "requeues")?;
        self.bounces = snapshot::u64_field(core, "bounces")?;
        let retired = snapshot::u64_vec(snapshot::field(core, "retired")?, "retired")?;
        if retired.len() != self.retired.len() {
            return Err(format!(
                "snapshot: {} retired counters, fabric has {} task sets",
                retired.len(),
                self.retired.len()
            ));
        }
        self.retired = retired;

        let rb = snapshot::field(doc, "rollback")?;
        self.rollbacks_done = snapshot::u64_field(rb, "done")?;
        self.rollback_replayed = snapshot::u64_field(rb, "replayed")?;
        self.rollback_events = snapshot::arr_field(rb, "events")?
            .iter()
            .map(|e| pair_from(e, "rollback event"))
            .collect::<Result<_, _>>()?;

        self.live.clear();
        for e in snapshot::arr_field(doc, "live")? {
            let parts = snapshot::need_arr(e, "live entry")?;
            let [idx, seq] = parts else {
                return Err("snapshot: malformed live entry".into());
            };
            self.live.insert((
                snapshot::index_from(idx)?,
                snapshot::need_u64(seq, "live seq")?,
            ));
        }

        self.seed_backlog = snapshot::arr_field(doc, "seed_backlog")?
            .iter()
            .map(|e| {
                let parts = snapshot::need_arr(e, "seed entry")?;
                let [ts, fields] = parts else {
                    return Err("snapshot: malformed seed entry".into());
                };
                Ok((
                    self.task_set_from(ts)?,
                    snapshot::fields_from(fields)?,
                ))
            })
            .collect::<Result<_, String>>()?;

        self.pending_tasks = snapshot::arr_field(doc, "pending_tasks")?
            .iter()
            .map(|e| {
                let parts = snapshot::need_arr(e, "pending task")?;
                let [ts, idx, fields] = parts else {
                    return Err("snapshot: malformed pending task".into());
                };
                Ok((
                    self.task_set_from(ts)?,
                    snapshot::index_from(idx)?,
                    snapshot::fields_from(fields)?,
                ))
            })
            .collect::<Result<_, String>>()?;

        self.pending_events = snapshot::arr_field(doc, "pending_events")?
            .iter()
            .map(snapshot::event_from)
            .collect::<Result<_, _>>()?;
        self.bus_staged = snapshot::arr_field(doc, "bus_staged")?
            .iter()
            .map(snapshot::event_from)
            .collect::<Result<_, _>>()?;
        self.bus_current = snapshot::arr_field(doc, "bus_current")?
            .iter()
            .map(snapshot::event_from)
            .collect::<Result<_, _>>()?;

        self.fault_respill = snapshot::arr_field(doc, "fault_respill")?
            .iter()
            .map(|e| {
                let parts = snapshot::need_arr(e, "respill entry")?;
                let [qi, token] = parts else {
                    return Err("snapshot: malformed respill entry".into());
                };
                let qi = snapshot::need_u64(qi, "respill queue")? as usize;
                if qi >= self.queues.len() {
                    return Err(format!("snapshot: respill queue {qi} out of range"));
                }
                Ok((qi, snapshot::token_from(token)?))
            })
            .collect::<Result<_, String>>()?;

        let resp = snapshot::arr_field(doc, "resp")?;
        if resp.len() != self.resp.len() {
            return Err(format!(
                "snapshot: {} response ports, fabric has {}",
                resp.len(),
                self.resp.len()
            ));
        }
        for (port, rj) in self.resp.iter_mut().zip(resp.iter()) {
            *port = snapshot::need_arr(rj, "resp port")?
                .iter()
                .map(|e| pair_from(e, "response"))
                .collect::<Result<_, _>>()?;
        }

        self.retire_log = snapshot::arr_field(doc, "retire_log")?
            .iter()
            .map(|e| pair_from(e, "retirement").map(|(c, s)| (c, s as usize)))
            .collect::<Result<_, _>>()?;

        let queues = snapshot::arr_field(doc, "queues")?;
        if queues.len() != self.queues.len() {
            return Err(format!(
                "snapshot: {} queues, fabric has {}",
                queues.len(),
                self.queues.len()
            ));
        }
        for (q, qj) in self.queues.iter_mut().zip(queues.iter()) {
            q.restore_json(qj)?;
        }

        let engines = snapshot::arr_field(doc, "engines")?;
        if engines.len() != self.engines.len() {
            return Err(format!(
                "snapshot: {} rule engines, fabric has {}",
                engines.len(),
                self.engines.len()
            ));
        }
        for (e, ej) in self.engines.iter_mut().zip(engines.iter()) {
            e.restore_json(ej)?;
        }

        self.mem
            .restore_json(snapshot::field(doc, "mem")?, self.resp.len())?;

        let pipelines = snapshot::arr_field(doc, "pipelines")?;
        if pipelines.len() != self.pipelines.len() {
            return Err(format!(
                "snapshot: {} pipelines, fabric has {}",
                pipelines.len(),
                self.pipelines.len()
            ));
        }
        for (pi, (p, pj)) in self.pipelines.iter_mut().zip(pipelines.iter()).enumerate() {
            restore_pipeline(p, pj, pi, self.cycle)?;
        }

        let doc_metrics =
            MetricsSnapshot::from_entries(metrics_entries_from(snapshot::field(doc, "metrics")?)?);
        let mut restored = self.metrics.clone();
        restored.restore_values(&doc_metrics)?;
        let now = self.cycle;
        for (stat, live) in self.levels_live() {
            stat.load(&restored, now, live);
        }
        // Everything else in the metrics member is read from the state
        // just restored; a document whose metrics disagree with it is
        // rejected rather than half believed.
        let view = self.metrics_view().snapshot();
        let mut pairs = view.entries().iter().zip(doc_metrics.entries());
        if let Some((_, (key, _))) = pairs.find(|(got, want)| got != want) {
            return Err(format!(
                "snapshot: metric `{key}` disagrees with the restored state"
            ));
        }

        match (&self.trace, snapshot::field(doc, "trace")?) {
            (None, Json::Null) => {}
            (Some(tr), tj @ Json::Obj(_)) => {
                self.trace = Some(trace_from(tj, tr.capacity())?);
            }
            _ => {
                return Err(
                    "snapshot: trace presence disagrees with config trace_capacity".into(),
                )
            }
        }

        let tl_prev = sample_from(snapshot::field(doc, "tl_prev")?, "tl_prev")?;
        let totals = self.tl_prev();
        if tl_prev != totals {
            return Err("snapshot: tl_prev disagrees with the restored totals".into());
        }
        match (&self.timeline, snapshot::field(doc, "timeline")?) {
            (None, Json::Null) => {}
            (Some(tl), tj @ Json::Obj(_)) => {
                let (window, capacity) = (tl.window(), tl.capacity());
                self.timeline = Some(timeline_from(tj, window, capacity, self.cycle, &totals)?);
            }
            _ => {
                return Err(
                    "snapshot: timeline presence disagrees with config timeline_window".into(),
                )
            }
        }
        Ok(())
    }

    /// The snapshot's `tl_prev`: the timeline totals at the current
    /// cycle, all zero without a timeline.
    fn tl_prev(&self) -> TimelineSample {
        match self.timeline {
            Some(_) => self.timeline_totals(self.cycle),
            None => TimelineSample::default(),
        }
    }

    /// Decodes and range-checks a task-set id.
    fn task_set_from(&self, j: &Json) -> Result<TaskSetId, String> {
        let ts = snapshot::need_u64(j, "task set")? as usize;
        if ts >= self.spec.task_sets().len() {
            return Err(format!("snapshot: task set {ts} out of range"));
        }
        Ok(TaskSetId(ts))
    }
}

/// Encodes a `(u64, u64)` pair as a two-element array.
fn pair_json(a: u64, b: u64) -> Json {
    Json::arr([Json::U64(a), Json::U64(b)])
}

/// Decodes a `(u64, u64)` pair.
fn pair_from(j: &Json, what: &str) -> Result<(u64, u64), String> {
    let v = snapshot::u64_vec(j, what)?;
    match v.as_slice() {
        [a, b] => Ok((*a, *b)),
        _ => Err(format!("snapshot: `{what}` is not a pair")),
    }
}

/// Encodes a timeline sample as its seven counters, in field order.
fn sample_json(s: &TimelineSample) -> Json {
    Json::arr(
        [s.busy, s.stall, s.idle, s.retired, s.hits, s.misses, s.qpi_bytes]
            .into_iter()
            .map(Json::U64),
    )
}

/// Decodes a timeline sample.
fn sample_from(j: &Json, what: &str) -> Result<TimelineSample, String> {
    let v = snapshot::u64_vec(j, what)?;
    let [busy, stall, idle, retired, hits, misses, qpi_bytes] = v.as_slice() else {
        return Err(format!("snapshot: `{what}` is not a 7-field sample"));
    };
    Ok(TimelineSample {
        busy: *busy,
        stall: *stall,
        idle: *idle,
        retired: *retired,
        hits: *hits,
        misses: *misses,
        qpi_bytes: *qpi_bytes,
    })
}

/// Encodes an activity tracker as `[busy, stall, idle, stall_by...]`.
fn tracker_json(t: &ActivityTracker) -> Json {
    Json::arr(
        [t.busy, t.stall, t.idle]
            .into_iter()
            .chain(t.stall_by.iter().copied())
            .map(Json::U64),
    )
}

/// Decodes an activity tracker.
fn tracker_from(j: &Json) -> Result<ActivityTracker, String> {
    let v = snapshot::u64_vec(j, "tracker")?;
    if v.len() != 3 + StallCause::COUNT {
        return Err(format!(
            "snapshot: tracker has {} counters, expected {}",
            v.len(),
            3 + StallCause::COUNT
        ));
    }
    let mut stall_by = [0u64; StallCause::COUNT];
    stall_by.copy_from_slice(&v[3..]);
    Ok(ActivityTracker {
        busy: v[0],
        stall: v[1],
        idle: v[2],
        stall_by,
    })
}

/// Checks a restored tracker against the derived-idle invariant at
/// `cycle` and returns it in live form, with `idle` cleared.
fn live_tracker(t: ActivityTracker, cycle: u64) -> Result<ActivityTracker, String> {
    let (busy, stall) = (t.busy, t.stall);
    let active = busy
        .checked_add(stall)
        .filter(|&a| a <= cycle)
        .ok_or_else(|| format!("tracker busy {busy} + stall {stall} exceeds cycle {cycle}"))?;
    if t.idle != cycle - active {
        return Err(format!(
            "tracker idle {} is not cycle {cycle} - busy {busy} - stall {stall}",
            t.idle
        ));
    }
    let caused = t.stall_by.iter().try_fold(0u64, |acc, &c| acc.checked_add(c));
    if caused != Some(stall) {
        return Err(format!("tracker stall causes do not sum to stall {stall}"));
    }
    Ok(ActivityTracker { idle: 0, ..t })
}

/// Stable wire code of an activity state.
fn activity_code(a: Activity) -> u64 {
    match a {
        Activity::Busy => 0,
        Activity::Stall => 1,
        Activity::Idle => 2,
    }
}

/// Decodes an activity state.
fn activity_from(c: u64) -> Result<Activity, String> {
    match c {
        0 => Ok(Activity::Busy),
        1 => Ok(Activity::Stall),
        2 => Ok(Activity::Idle),
        _ => Err(format!("snapshot: bad activity code {c}")),
    }
}

/// Decodes a stall cause by its declaration-order discriminant.
fn stall_cause_from(c: u64) -> Result<StallCause, String> {
    StallCause::ALL
        .get(c as usize)
        .copied()
        .ok_or_else(|| format!("snapshot: bad stall cause code {c}"))
}

/// Encodes a reservation station's entries in slot order (slot order is
/// behavioral: `take_ready` prefers the oldest ready slot).
fn station_json(st: &OutOfOrderStation<Ctx>) -> Json {
    Json::arr(st.iter_entries().map(|(tag, ctx, ready, word, born)| {
        Json::arr([
            Json::U64(tag),
            snapshot::ctx_json(ctx),
            Json::Bool(ready),
            Json::U64(word),
            Json::U64(born),
        ])
    }))
}

/// Decodes a reservation station; `body_len` is the SSA width of the
/// parked contexts and `cycle` the snapshot cycle, which no entry's
/// insertion cycle may exceed.
fn station_from(
    j: &Json,
    cap: usize,
    body_len: usize,
    cycle: u64,
) -> Result<OutOfOrderStation<Ctx>, String> {
    let mut entries = Vec::new();
    for e in snapshot::need_arr(j, "station")? {
        let parts = snapshot::need_arr(e, "station entry")?;
        let [tag, ctx, ready, word, born] = parts else {
            return Err("snapshot: malformed station entry".into());
        };
        entries.push((
            snapshot::need_u64(tag, "station tag")?,
            snapshot::ctx_from(ctx, body_len)?,
            ready
                .as_bool()
                .ok_or("snapshot: station ready flag is not a bool")?,
            snapshot::need_u64(word, "station word")?,
            snapshot::need_u64(born, "station born")?,
        ));
    }
    if let Some(e) = entries.iter().find(|e| e.4 > cycle) {
        return Err(format!(
            "snapshot: station entry inserted at cycle {}, after snapshot cycle {cycle}",
            e.4
        ));
    }
    OutOfOrderStation::from_parts(cap, entries).map_err(|e| format!("snapshot: {e}"))
}

/// Encodes one pipeline's latches, stage state, and extern unit at
/// `cycle`. Trackers are written settled, through [`Stage::tracker_at`];
/// the active set and sleep marks are not encoded: restore puts every
/// stage, awake, in the set.
fn pipeline_json(p: &Pipeline, cycle: u64) -> Json {
    Json::obj([
        (
            "latches",
            Json::arr(p.latches.iter().map(|l| {
                l.as_ref().map_or(Json::Null, snapshot::ctx_json)
            })),
        ),
        (
            "stages",
            Json::arr(p.stages.iter().map(|st| {
                Json::obj([
                    ("st", st.station.as_ref().map_or(Json::Null, station_json)),
                    ("ep", st.expand_pos.map_or(Json::Null, Json::U64)),
                    ("tk", tracker_json(&st.tracker_at(cycle))),
                    (
                        "la",
                        st.last_activity
                            .map_or(Json::Null, |a| Json::U64(activity_code(a))),
                    ),
                    ("lsc", Json::U64(st.last_stall_cause as u64)),
                ])
            })),
        ),
        (
            "ext",
            p.extern_unit.as_ref().map_or(Json::Null, extern_unit_json),
        ),
    ])
}

/// Restores pipeline `pi` from its snapshot member taken at `cycle`.
fn restore_pipeline(p: &mut Pipeline, pj: &Json, pi: usize, cycle: u64) -> Result<(), String> {
    let body_len = p.stages.len();
    let latches = snapshot::arr_field(pj, "latches")?;
    if latches.len() != body_len {
        return Err(format!(
            "snapshot: {} latches, pipeline has {body_len} stages",
            latches.len()
        ));
    }
    for (slot, lj) in p.latches.iter_mut().zip(latches.iter()) {
        *slot = match lj {
            Json::Null => None,
            _ => Some(snapshot::ctx_from(lj, body_len)?),
        };
    }
    let stages = snapshot::arr_field(pj, "stages")?;
    if stages.len() != body_len {
        return Err(format!(
            "snapshot: {} stage records, pipeline has {body_len}",
            stages.len()
        ));
    }
    for (si, (st, sj)) in p.stages.iter_mut().zip(stages.iter()).enumerate() {
        let station_j = snapshot::field(sj, "st")?;
        match (&mut st.station, station_j) {
            (None, Json::Null) => {}
            (Some(station), Json::Arr(_)) => {
                *station = station_from(station_j, station.capacity(), body_len, cycle)?;
            }
            _ => return Err("snapshot: station presence disagrees with stage op".into()),
        }
        st.expand_pos = match snapshot::field(sj, "ep")? {
            Json::Null => None,
            v => Some(snapshot::need_u64(v, "expand_pos")?),
        };
        st.tracker = live_tracker(tracker_from(snapshot::field(sj, "tk")?)?, cycle)
            .map_err(|e| format!("snapshot: pipeline {pi} stage {si}: {e}"))?;
        st.last_activity = match snapshot::field(sj, "la")? {
            Json::Null => None,
            v => Some(activity_from(snapshot::need_u64(v, "last_activity")?)?),
        };
        st.last_stall_cause =
            stall_cause_from(snapshot::u64_field(sj, "lsc")?)?;
        st.asleep = None;
    }
    p.activate_all();
    let ext_j = snapshot::field(pj, "ext")?;
    match (&mut p.extern_unit, ext_j) {
        (None, Json::Null) => Ok(()),
        (Some(u), Json::Obj(_)) => restore_extern_unit(u, ext_j),
        _ => Err("snapshot: extern unit presence disagrees with spec".into()),
    }
}

/// Encodes an extern-core request.
fn extern_req_json(r: &ExternReq) -> Json {
    Json::obj([
        ("t", Json::U64(r.tag)),
        ("p", Json::U64(r.port as u64)),
        ("e", Json::U64(r.ext as u64)),
        ("a", snapshot::fields_json(&r.args)),
        ("n", Json::U64(r.nargs as u64)),
        ("i", snapshot::index_json(&r.index)),
    ])
}

/// Decodes an extern-core request.
fn extern_req_from(j: &Json) -> Result<ExternReq, String> {
    Ok(ExternReq {
        tag: snapshot::u64_field(j, "t")?,
        port: snapshot::u64_field(j, "p")? as u32,
        ext: snapshot::usize_field(j, "e")?,
        args: snapshot::fields_from(snapshot::field(j, "a")?)?,
        nargs: snapshot::u64_field(j, "n")? as u8,
        index: snapshot::index_from(snapshot::field(j, "i")?)?,
    })
}

/// Encodes an extern unit (request FIFO, in-flight job, call count).
fn extern_unit_json(u: &ExternUnit) -> Json {
    Json::obj([
        (
            "q",
            Json::obj([
                ("v", Json::arr(u.queue.iter().map(extern_req_json))),
                ("s", Json::arr(u.queue.iter_staged().map(extern_req_json))),
            ]),
        ),
        (
            "busy",
            u.busy.as_ref().map_or(Json::Null, |j| {
                Json::obj([
                    ("t", Json::U64(j.tag)),
                    ("p", Json::U64(j.port as u64)),
                    ("r", Json::U64(j.result)),
                    ("b", Json::U64(j.bytes_left)),
                    ("c", Json::U64(j.compute_left)),
                ])
            }),
        ),
        ("calls", Json::U64(u.calls)),
    ])
}

/// Restores an extern unit from its snapshot member.
fn restore_extern_unit(u: &mut ExternUnit, j: &Json) -> Result<(), String> {
    let qj = snapshot::field(j, "q")?;
    let visible: Vec<ExternReq> = snapshot::arr_field(qj, "v")?
        .iter()
        .map(extern_req_from)
        .collect::<Result<_, _>>()?;
    let staged: Vec<ExternReq> = snapshot::arr_field(qj, "s")?
        .iter()
        .map(extern_req_from)
        .collect::<Result<_, _>>()?;
    let cap = u.queue.capacity();
    if visible.len() + staged.len() > cap {
        return Err(format!(
            "snapshot: extern queue holds {} entries, capacity {cap}",
            visible.len() + staged.len()
        ));
    }
    u.queue = Fifo::from_parts(cap, visible, staged);
    u.busy = match snapshot::field(j, "busy")? {
        Json::Null => None,
        bj => Some(ExternJob {
            tag: snapshot::u64_field(bj, "t")?,
            port: snapshot::u64_field(bj, "p")? as u32,
            result: snapshot::u64_field(bj, "r")?,
            bytes_left: snapshot::u64_field(bj, "b")?,
            compute_left: snapshot::u64_field(bj, "c")?,
        }),
    };
    u.calls = snapshot::u64_field(j, "calls")?;
    Ok(())
}

/// Encodes the metrics registry. Counters are `[key, 0, value]`, gauges
/// `[key, 1, bits]` (raw IEEE-754 — see [`crate::snapshot`]), histograms
/// `[key, 2, buckets, count, sum, max, saturated]` with trailing zero
/// buckets trimmed.
fn metrics_json(snap: &MetricsSnapshot) -> Json {
    Json::arr(snap.entries().iter().map(|(key, val)| match val {
        MetricValue::Counter(v) => {
            Json::arr([Json::str(key.as_str()), Json::U64(0), Json::U64(*v)])
        }
        MetricValue::Gauge(g) => Json::arr([
            Json::str(key.as_str()),
            Json::U64(1),
            snapshot::f64_bits_json(*g),
        ]),
        MetricValue::Histogram(h) => {
            let mut buckets = h.raw_buckets().to_vec();
            while buckets.last() == Some(&0) {
                buckets.pop();
            }
            Json::arr([
                Json::str(key.as_str()),
                Json::U64(2),
                Json::arr(buckets.into_iter().map(Json::U64)),
                Json::U64(h.count()),
                Json::U64(h.sum()),
                Json::U64(h.max()),
                Json::Bool(h.saturated()),
            ])
        }
    }))
}

/// Decodes the metrics member back into snapshot entries.
fn metrics_entries_from(j: &Json) -> Result<Vec<(String, MetricValue)>, String> {
    let mut entries = Vec::new();
    for e in snapshot::need_arr(j, "metrics")? {
        let parts = snapshot::need_arr(e, "metric entry")?;
        if parts.len() < 3 {
            return Err("snapshot: malformed metric entry".into());
        }
        let key = parts[0]
            .as_str()
            .ok_or("snapshot: metric key is not a string")?;
        let value = match snapshot::need_u64(&parts[1], "metric kind")? {
            0 => MetricValue::Counter(snapshot::need_u64(&parts[2], key)?),
            1 => MetricValue::Gauge(snapshot::f64_from_bits(&parts[2], key)?),
            2 => {
                let [_, _, buckets, count, sum, max, saturated] = parts else {
                    return Err(format!("snapshot: malformed histogram `{key}`"));
                };
                let buckets = snapshot::u64_vec(buckets, key)?;
                if buckets.len() > HISTOGRAM_BUCKETS {
                    return Err(format!("snapshot: histogram `{key}` has too many buckets"));
                }
                MetricValue::Histogram(Histogram::from_parts(
                    buckets,
                    snapshot::need_u64(count, key)?,
                    snapshot::need_u64(sum, key)?,
                    snapshot::need_u64(max, key)?,
                    saturated
                        .as_bool()
                        .ok_or("snapshot: histogram saturated flag is not a bool")?,
                ))
            }
            k => return Err(format!("snapshot: bad metric kind {k}")),
        };
        entries.push((key.to_string(), value));
    }
    Ok(entries)
}

/// Encodes the event trace: interned component table, retained records
/// (each `[cycle, comp, event, value]`), and the conservation counters.
fn trace_json(tr: &EventTrace) -> Json {
    Json::obj([
        (
            "components",
            Json::arr(tr.components().iter().map(|c| Json::str(c.as_str()))),
        ),
        (
            "records",
            Json::arr(tr.records().map(|r| {
                Json::arr([
                    Json::U64(r.cycle),
                    Json::U64(r.comp.0 as u64),
                    Json::str(r.event),
                    Json::U64(r.value),
                ])
            })),
        ),
        ("dropped", Json::U64(tr.dropped())),
        ("emitted", Json::U64(tr.emitted())),
    ])
}

/// Decodes the event trace, resolving record labels against the static
/// event table.
fn trace_from(j: &Json, cap: usize) -> Result<EventTrace, String> {
    let components: Vec<String> = snapshot::arr_field(j, "components")?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or_else(|| "snapshot: trace component is not a string".to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut records = Vec::new();
    for r in snapshot::arr_field(j, "records")? {
        let parts = snapshot::need_arr(r, "trace record")?;
        let [cycle, comp, event, value] = parts else {
            return Err("snapshot: malformed trace record".into());
        };
        let comp = snapshot::need_u64(comp, "trace comp")? as usize;
        if comp >= components.len() {
            return Err(format!("snapshot: trace comp {comp} out of range"));
        }
        records.push(TraceRecord {
            cycle: snapshot::need_u64(cycle, "trace cycle")?,
            comp: CompId(comp as u32),
            event: snapshot::intern_event(
                event
                    .as_str()
                    .ok_or("snapshot: trace event is not a string")?,
            )?,
            value: snapshot::need_u64(value, "trace value")?,
        });
    }
    let dropped = snapshot::u64_field(j, "dropped")?;
    let emitted = snapshot::u64_field(j, "emitted")?;
    if records.len() > cap || emitted != records.len() as u64 + dropped {
        return Err("snapshot: trace conservation invariant violated".into());
    }
    Ok(EventTrace::from_parts(cap, components, records, dropped, emitted))
}

/// Encodes the timeline recorder at `cycle`, given the totals there: the
/// open window plus the closed ring.
fn timeline_json(tl: &TimelineRecorder, cycle: u64, totals: &TimelineSample) -> Json {
    let cur = tl.open_window(cycle, totals);
    Json::obj([
        ("cur", sample_json(&cur.sample)),
        ("cur_len", Json::U64(cur.cycles)),
        ("cur_start", Json::U64(cur.start)),
        ("dropped", Json::U64(tl.dropped())),
        (
            "ring",
            Json::arr(tl.ring().map(|w| {
                Json::arr([
                    Json::U64(w.start),
                    Json::U64(w.cycles),
                    sample_json(&w.sample),
                ])
            })),
        ),
    ])
}

/// Decodes the timeline recorder against the structural window/capacity
/// and the restored `cycle` with its `totals`: the open window must end
/// at `cycle`, short of its boundary, and cannot have grown by more than
/// the totals.
fn timeline_from(
    j: &Json,
    window: u64,
    capacity: usize,
    cycle: u64,
    totals: &TimelineSample,
) -> Result<TimelineRecorder, String> {
    let mut ring = Vec::new();
    for w in snapshot::arr_field(j, "ring")? {
        let parts = snapshot::need_arr(w, "timeline window")?;
        let [start, cycles, sample] = parts else {
            return Err("snapshot: malformed timeline window".into());
        };
        ring.push(TimelineWindow {
            start: snapshot::need_u64(start, "window start")?,
            cycles: snapshot::need_u64(cycles, "window cycles")?,
            sample: sample_from(sample, "window sample")?,
        });
    }
    if ring.len() > capacity {
        return Err(format!(
            "snapshot: timeline ring holds {} windows, capacity {capacity}",
            ring.len()
        ));
    }
    let cur = sample_from(snapshot::field(j, "cur")?, "timeline cur")?;
    let cur_len = snapshot::u64_field(j, "cur_len")?;
    let cur_start = snapshot::u64_field(j, "cur_start")?;
    if cur_start.checked_add(cur_len) != Some(cycle + 1) || cur_len >= window {
        return Err(format!(
            "snapshot: timeline window of {cur_len} cycles from cycle {cur_start} \
             does not end at cycle {cycle}"
        ));
    }
    let base = totals
        .checked_delta_from(&cur)
        .ok_or("snapshot: timeline cur exceeds the restored totals")?;
    Ok(TimelineRecorder::from_parts(
        window,
        capacity,
        cur_start,
        base,
        ring,
        snapshot::u64_field(j, "dropped")?,
    ))
}
