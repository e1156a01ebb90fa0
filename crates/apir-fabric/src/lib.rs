//! # apir-fabric
//!
//! Cycle-level model of the accelerators the APIR framework synthesizes on
//! FPGA (reproduction of "Aggressive Pipelining of Irregular Applications
//! on Reconfigurable Hardware", ISCA 2017).
//!
//! The generalized architecture of Figure 7 is modeled structurally:
//!
//! * **task pipelines** — one chain of primitive-operation stages per task
//!   set (replicated [`FabricConfig::pipelines_per_set`] times), with
//!   out-of-order load/store units and rendezvous stations and in-order
//!   everything else, exactly as Section 5.2 prescribes;
//! * **multi-bank task queues** with a wavefront-style allocator
//!   ([`queue`]);
//! * **rule engines** — lanes, event bus, return buffer, and the
//!   minimum-live-task broadcast that triggers `otherwise` clauses
//!   ([`rules`]);
//! * **a generic memory subsystem** — direct-mapped FPGA-side cache in
//!   front of a bandwidth/latency-modeled QPI link ([`memory`]), with the
//!   HARP numbers (64 KB, 14-cycle hit, ~200 ns miss, 7.0 GB/s) as
//!   defaults;
//! * **extern IP units** — problem-specific cores (LU block math, DMR
//!   cavity re-triangulation) whose data movement is charged to the QPI
//!   link ([`fabric`]);
//! * **a resource model** ([`resource`]) estimating ALM/register/BRAM
//!   usage per template on the paper's Stratix V part.
//!
//! The simulation is *execution-driven*: loads and stores act on a real
//! [`apir_core::MemImage`] when they complete, so speculative tasks read
//! stale data exactly as hardware would, and the final image is compared
//! against the sequential interpreter in tests.

pub mod export;
pub mod fabric;
pub mod fault;
pub mod memory;
pub mod queue;
pub mod resource;
pub mod rules;
pub mod snapshot;
pub mod types;

pub use fabric::{Fabric, FabricError, FabricReport, RollbackSummary, RunSplit};
pub use fault::{FaultConfig, FaultPlan, FaultStats};
pub use memory::MemConfig;
pub use resource::{estimate_resources, ResourceReport, StratixV};

/// Re-export of the semantic-analysis pass so downstream crates that
/// only depend on `apir-fabric` (e.g. `apir-trace`) can name its types
/// without a direct `apir-core` dependency.
pub use apir_core::check::analysis;

/// Derives the semantic-analysis inputs ([`apir_core::check::analysis`])
/// for a spec×input×config triple: the structural fabric parameters, the
/// memory-model numbers converted to cycles at the configured clock, the
/// program's working-set footprint, and the per-set seed counts.
///
/// [`Fabric::new`] uses this to fold the `APIR6xx` findings into its lint
/// gate; `apir-lint --analyze` and `apir-trace analyze` call it so the
/// static report matches what the fabric would check.
pub fn analysis_params(
    cfg: &FabricConfig,
    spec: &apir_core::Spec,
    input: &apir_core::ProgramInput,
) -> apir_core::check::analysis::AnalysisParams {
    let mut seeds = vec![0u64; spec.task_sets().len()];
    for t in &input.initial {
        if let Some(s) = seeds.get_mut(t.task_set.0) {
            *s += 1;
        }
    }
    let clock = cfg.mem.clock_mhz.max(1);
    apir_core::check::analysis::AnalysisParams {
        pipelines_per_set: cfg.pipelines_per_set,
        queue_banks: cfg.queue_banks,
        queue_capacity: cfg.queue_capacity,
        rule_lanes: cfg.rule_lanes,
        lsu_window: cfg.lsu_window,
        rendezvous_window: cfg.rendezvous_window,
        hit_latency: cfg.mem.hit_latency,
        miss_extra_cycles: apir_sim::cycles_from_ns(clock, cfg.mem.miss_extra_ns),
        mshr_depth: cfg.mem.max_inflight_misses,
        requests_per_cycle: cfg.mem.requests_per_cycle,
        // GB/s at MHz: bytes per cycle = gbps * 1e9 / (mhz * 1e6).
        qpi_bytes_per_cycle: cfg.mem.qpi_gbps * 1000.0 / clock as f64,
        line_bytes: cfg.mem.line_bytes,
        cache_bytes: cfg.mem.cache_kb as u64 * 1024,
        footprint_bytes: input.mem.flat_words() * 8,
        seeds,
        ..Default::default()
    }
}

/// Runs the full semantic analysis (`APIR6xx` + bottleneck prediction)
/// for a spec×input×config triple — [`analysis_params`] followed by
/// [`analysis::analyze`]. Returns `None` when the spec cannot be lowered
/// to a BDFG (error-level structural lints), mirroring `analyze` itself.
pub fn analyze_config(
    cfg: &FabricConfig,
    spec: &apir_core::Spec,
    input: &apir_core::ProgramInput,
) -> Option<analysis::Analysis> {
    analysis::analyze(spec, &analysis_params(cfg, spec, input))
}

/// Template parameters of a synthesized accelerator (the paper's MoA
/// parameters, normally chosen by the `apir-synth` heuristic).
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// FPGA clock in MHz (paper: all accelerators run at 200 MHz).
    pub clock_mhz: u64,
    /// Pipeline replicas instantiated per task set.
    pub pipelines_per_set: usize,
    /// Banks per task queue.
    pub queue_banks: usize,
    /// Total capacity of each task queue (entries across banks).
    pub queue_capacity: usize,
    /// Lanes per rule engine.
    pub rule_lanes: usize,
    /// Slots in each out-of-order load/store station.
    pub lsu_window: usize,
    /// Slots in each rendezvous reorder station.
    pub rendezvous_window: usize,
    /// Cycles a coordinative rendezvous may wait before the station
    /// bounces it back as `false` (abort/retry) so the pipeline keeps
    /// draining; the minimum live task is released by `otherwise` long
    /// before this fires.
    pub rendezvous_timeout: u64,
    /// Events the bus can broadcast per cycle.
    pub event_bus_width: usize,
    /// Memory subsystem parameters.
    pub mem: MemConfig,
    /// Deterministic fault-injection campaign ([`fault`]); the default
    /// injects nothing and adds no overhead.
    pub faults: FaultConfig,
    /// Abort the simulation after this many cycles (runaway guard).
    pub max_cycles: u64,
    /// Declare deadlock after this many cycles without progress.
    pub deadlock_cycles: u64,
    /// Record `(cycle, task_set)` for every retirement (schedule
    /// diagrams; costs memory on big runs).
    pub record_retirements: bool,
    /// Ring-buffer capacity of the structured event trace; `0` (the
    /// default) disables tracing entirely. When the buffer fills, the
    /// oldest records are evicted and counted in
    /// [`apir_sim::trace::EventTrace::dropped`].
    pub trace_capacity: usize,
    /// Cycles per timeline window; `0` (the default) disables the
    /// windowed timeline entirely. When enabled, the fabric snapshots
    /// activity/memory deltas every `timeline_window` cycles into a
    /// bounded ring exported as the report's `timeline` block.
    pub timeline_window: u64,
    /// Ring capacity (windows retained) of the timeline recorder. When
    /// the ring fills, the oldest windows are evicted and counted in
    /// [`apir_sim::timeline::Timeline::dropped`].
    pub timeline_capacity: usize,
    /// Arm periodic in-memory checkpoints every this many cycles; `0`
    /// (the default) disables them. A checkpoint is a full
    /// [`snapshot`]-format capture of the fabric's mutable state kept in
    /// memory, from which rollback recovery replays after a terminal
    /// link failure. Restore-then-run is byte-identical to the
    /// uninterrupted run, so checkpoints never perturb results.
    pub checkpoint_interval: u64,
    /// Maximum rollback-and-replay recoveries per run; `0` (the
    /// default) keeps the historical behavior of aborting with
    /// [`FabricError::LinkFailed`] once `faults.max_retries` is
    /// exhausted. When armed (and `checkpoint_interval > 0`), a terminal
    /// link failure restores the latest checkpoint, re-salts the link
    /// fault stream with the rollback epoch, and resumes; only when all
    /// rollbacks are spent does the run abort.
    pub max_rollbacks: u32,
    /// Force the dense per-cycle scheduler instead of the event wheel,
    /// and visit every pipeline stage on every cycle instead of each
    /// pipeline's active set.
    ///
    /// By default the fabric skips quiescent stretches (no module made
    /// progress and every latency source's next wake cycle is known) by
    /// jumping straight to the earliest pending wake, and within a tick
    /// visits only the stages that hold work: a stage joins its
    /// pipeline's active set when a context or a response arrives and
    /// leaves after a visit that ends idle. Idle stage cycles are never
    /// counted; they are derived as `cycle − busy − stall` when a
    /// report, snapshot or timeline reads them, so a skipped stage costs
    /// nothing. Both skips are semantically invisible — every counter,
    /// histogram, fault draw, trace record and retirement is
    /// byte-identical to the dense loop; only wall clock changes. This
    /// flag keeps the dense loop available as a differential oracle
    /// (`tests/scheduler_equiv.rs`, `verify.sh`).
    pub dense_tick: bool,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            clock_mhz: 200,
            pipelines_per_set: 2,
            queue_banks: 4,
            queue_capacity: 1 << 16,
            rule_lanes: 64,
            lsu_window: 16,
            rendezvous_window: 16,
            rendezvous_timeout: 4096,
            event_bus_width: 8,
            mem: MemConfig::default(),
            faults: FaultConfig::default(),
            max_cycles: 2_000_000_000,
            deadlock_cycles: 100_000,
            record_retirements: false,
            trace_capacity: 0,
            timeline_window: 0,
            timeline_capacity: 4096,
            checkpoint_interval: 0,
            max_rollbacks: 0,
            dense_tick: false,
        }
    }
}

impl FabricConfig {
    /// Lints the template parameters themselves (the `APIR5xx` family):
    /// zero structural resources, a rendezvous timeout that cannot fire
    /// before the deadlock watchdog, fault rates outside `[0, 1]`, and
    /// degenerate fault plans. [`Fabric::new`] folds error-level
    /// diagnostics into the same lint gate that rejects bad specs, and
    /// `apir-lint` runs this over the builtin configurations.
    pub fn validate(&self) -> apir_core::check::Report {
        use apir_core::check::{Diagnostic, Lint, Report};
        let mut report = Report::new("fabric config");
        let zero = |name: &str, value: usize, report: &mut Report| {
            if value == 0 {
                report.push(
                    Diagnostic::new(
                        Lint::ZeroFabricResource,
                        format!("config:{name}"),
                        format!("`{name}` is 0; the fabric cannot be instantiated"),
                    )
                    .hint(format!("set `{name}` to at least 1")),
                );
            }
        };
        zero("pipelines_per_set", self.pipelines_per_set, &mut report);
        zero("queue_banks", self.queue_banks, &mut report);
        zero("queue_capacity", self.queue_capacity, &mut report);
        zero("rule_lanes", self.rule_lanes, &mut report);
        zero("lsu_window", self.lsu_window, &mut report);
        zero("rendezvous_window", self.rendezvous_window, &mut report);
        zero("event_bus_width", self.event_bus_width, &mut report);
        zero(
            "mem.requests_per_cycle",
            self.mem.requests_per_cycle,
            &mut report,
        );
        zero(
            "mem.max_inflight_misses",
            self.mem.max_inflight_misses,
            &mut report,
        );
        if self.queue_capacity > 0 && self.queue_capacity < self.queue_banks {
            report.push(
                Diagnostic::new(
                    Lint::ZeroFabricResource,
                    "config:queue_capacity",
                    format!(
                        "`queue_capacity` ({}) is below `queue_banks` ({}); \
                         some banks would hold zero entries",
                        self.queue_capacity, self.queue_banks
                    ),
                )
                .hint("give each bank at least one entry"),
            );
        }
        if self.timeline_window > 0 && self.timeline_capacity == 0 {
            report.push(
                Diagnostic::new(
                    Lint::ZeroFabricResource,
                    "config:timeline_capacity",
                    format!(
                        "`timeline_window` is {} but `timeline_capacity` is 0; \
                         every window would be dropped as soon as it closes",
                        self.timeline_window
                    ),
                )
                .hint("set timeline_capacity to at least 1 (or disable the timeline)"),
            );
        }
        if self.rendezvous_timeout >= self.deadlock_cycles {
            report.push(
                Diagnostic::new(
                    Lint::WatchdogMisordered,
                    "config:rendezvous_timeout",
                    format!(
                        "`rendezvous_timeout` ({}) must be below `deadlock_cycles` ({}): \
                         a stuck rendezvous would be declared a deadlock before it can bounce",
                        self.rendezvous_timeout, self.deadlock_cycles
                    ),
                )
                .hint("lower rendezvous_timeout or raise deadlock_cycles"),
            );
        }
        let rate = |name: &str, value: f64, report: &mut Report| {
            if !(0.0..=1.0).contains(&value) {
                report.push(
                    Diagnostic::new(
                        Lint::FaultRateOutOfRange,
                        format!("config:faults.{name}"),
                        format!("`faults.{name}` is {value}; rates are probabilities in [0, 1]"),
                    )
                    .hint("clamp the rate to [0, 1]"),
                );
            }
        };
        rate("soft_error_rate", self.faults.soft_error_rate, &mut report);
        rate(
            "multi_bit_fraction",
            self.faults.multi_bit_fraction,
            &mut report,
        );
        rate("drop_rate", self.faults.drop_rate, &mut report);
        rate("late_rate", self.faults.late_rate, &mut report);
        rate("lane_fault_rate", self.faults.lane_fault_rate, &mut report);
        rate("bank_fault_rate", self.faults.bank_fault_rate, &mut report);
        if self.max_rollbacks > 0 && self.checkpoint_interval == 0 {
            report.push(
                Diagnostic::new(
                    Lint::RollbackWithoutCheckpoint,
                    "config:max_rollbacks",
                    format!(
                        "`max_rollbacks` is {} but `checkpoint_interval` is 0: \
                         rollback recovery has no checkpoint to restore from",
                        self.max_rollbacks
                    ),
                )
                .hint("set checkpoint_interval to a positive cycle count"),
            );
        }
        if self.checkpoint_interval > 0 && self.checkpoint_interval >= self.max_cycles {
            report.push(
                Diagnostic::new(
                    Lint::CheckpointNeverFires,
                    "config:checkpoint_interval",
                    format!(
                        "`checkpoint_interval` ({}) is at or above `max_cycles` ({}): \
                         only the initial cycle-0 checkpoint will ever exist",
                        self.checkpoint_interval, self.max_cycles
                    ),
                )
                .hint("lower checkpoint_interval below max_cycles"),
            );
        }
        if self.max_rollbacks > 0 && !self.faults.is_enabled() {
            report.push(
                Diagnostic::new(
                    Lint::RollbackWithoutFaults,
                    "config:max_rollbacks",
                    format!(
                        "`max_rollbacks` is {} but fault injection is disabled: \
                         no link failure can ever trigger a rollback",
                        self.max_rollbacks
                    ),
                )
                .hint("enable faults (drop_rate > 0) or drop max_rollbacks"),
            );
        }
        if self.faults.is_enabled() {
            if (self.faults.lane_fault_rate > 0.0 || self.faults.bank_fault_rate > 0.0)
                && self.faults.fault_window == 0
            {
                report.push(
                    Diagnostic::new(
                        Lint::DegenerateFaultPlan,
                        "config:faults.fault_window",
                        "lane/bank faults are enabled but `fault_window` is 0, \
                         so no trial would ever run",
                    )
                    .hint("set fault_window to a positive cycle count"),
                );
            }
            if self.faults.drop_rate > 0.0 && self.faults.retry_timeout == 0 {
                report.push(
                    Diagnostic::new(
                        Lint::DegenerateFaultPlan,
                        "config:faults.retry_timeout",
                        "drops are enabled but `retry_timeout` is 0, so dropped \
                         transfers would retry with no backoff at all",
                    )
                    .hint("set retry_timeout to a positive cycle count"),
                );
            }
        }
        report
    }
}
