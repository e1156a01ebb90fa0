//! The benchmark's workloads and metrics: names, units, directions, the
//! regression bounds of the end-to-end metrics, and — for every per-layer
//! metric — the end-to-end metric and workload it is expected to move.
//! `BENCHMARK.json` at the repository root mirrors this table; the
//! self-tests keep the two in step.

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["road-medium", "sweep-small", "chaos-restore"];

/// An end-to-end metric: printed by every untraced run.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric: printed by every traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `<end-to-end metric>@<workload>` this layer should move.
    pub moves: &'static str,
    /// Exact simulated count: repeats bit for bit for a given seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> E2e {
    E2e {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    exact: bool,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        exact,
    }
}

pub const END_TO_END: &[E2e] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("sim_mcycles_per_s", "Mcycles/s", "higher", 0.25),
    e2e("job_s.p50", "s", "lower", 0.25),
    e2e("job_s.tail", "s", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("restore_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("sim_cycles", "cycles", "lower", 0.2),
];

/// App names whose per-app fabric cost is reported.
pub const APPS: [&str; 6] = [
    "SPEC-BFS",
    "COOR-BFS",
    "SPEC-SSSP",
    "SPEC-MST",
    "SPEC-DMR",
    "COOR-LU",
];

const SETUP: &str = "setup_s@sweep-small";
const ROAD_WALL: &str = "wall_s@road-medium";
const ROAD_RATE: &str = "sim_mcycles_per_s@road-medium";
const SWEEP_WALL: &str = "wall_s@sweep-small";
const CHAOS_WALL: &str = "wall_s@chaos-restore";
const CHAOS_RESTORE: &str = "restore_s@chaos-restore";
const SWEEP_JOB: &str = "job_s.p50@sweep-small";
const SWEEP_JOBS: &str = "jobs_per_s@sweep-small";
const ROAD_CYCLES: &str = "sim_cycles@road-medium";
const CHAOS_CYCLES: &str = "sim_cycles@chaos-restore";

pub const PER_LAYER: &[Layer] = &[
    // Setup layers: generation, app build, synthesis, lint, analysis,
    // fabric construction (median per job).
    layer("workloads.gen_s", "s", "lower", SETUP, false),
    layer("apps.build_s", "s", "lower", SETUP, false),
    layer("synth.synthesize_s", "s", "lower", SETUP, false),
    layer("check.lint_s", "s", "lower", SETUP, false),
    layer("check.analyze_s", "s", "lower", SETUP, false),
    layer("fabric.new_s", "s", "lower", SETUP, false),
    // The fabric run loop.
    layer(
        "fabric.ns_per_cycle.SPEC-BFS",
        "ns",
        "lower",
        ROAD_RATE,
        false,
    ),
    layer(
        "fabric.ns_per_cycle.COOR-BFS",
        "ns",
        "lower",
        ROAD_RATE,
        false,
    ),
    layer(
        "fabric.ns_per_cycle.SPEC-SSSP",
        "ns",
        "lower",
        ROAD_RATE,
        false,
    ),
    layer(
        "fabric.ns_per_cycle.SPEC-MST",
        "ns",
        "lower",
        SWEEP_WALL,
        false,
    ),
    layer(
        "fabric.ns_per_cycle.SPEC-DMR",
        "ns",
        "lower",
        SWEEP_WALL,
        false,
    ),
    layer(
        "fabric.ns_per_cycle.COOR-LU",
        "ns",
        "lower",
        SWEEP_WALL,
        false,
    ),
    layer("fabric.stage_cycles", "count", "lower", ROAD_WALL, true),
    layer("fabric.busy_ratio", "ratio", "higher", ROAD_WALL, true),
    layer("fabric.idle_ratio", "ratio", "lower", ROAD_WALL, true),
    layer("fabric.ns_per_stage_cycle", "ns", "lower", ROAD_WALL, false),
    layer(
        "fabric.window_ns_per_cycle.p50",
        "ns",
        "lower",
        ROAD_WALL,
        false,
    ),
    layer(
        "fabric.window_ns_per_cycle.max",
        "ns",
        "lower",
        ROAD_WALL,
        false,
    ),
    // Event wheel.
    layer(
        "wheel.dense_over_wheel",
        "ratio",
        "higher",
        SWEEP_WALL,
        false,
    ),
    // Memory subsystem.
    layer("mem.hit_ratio", "ratio", "higher", ROAD_CYCLES, true),
    layer("mem.misses", "count", "lower", ROAD_CYCLES, true),
    layer("mem.qpi_bytes", "bytes", "lower", ROAD_CYCLES, true),
    layer(
        "fabric.stall.mshr_full_share",
        "ratio",
        "lower",
        ROAD_CYCLES,
        true,
    ),
    layer(
        "fabric.stall.bandwidth_share",
        "ratio",
        "lower",
        ROAD_CYCLES,
        true,
    ),
    layer(
        "fabric.stall.miss_outstanding_share",
        "ratio",
        "lower",
        ROAD_CYCLES,
        true,
    ),
    layer(
        "fabric.stall.other_share",
        "ratio",
        "lower",
        ROAD_CYCLES,
        true,
    ),
    layer("memory.tick_ns", "ns", "lower", ROAD_WALL, false),
    // Task queues and rule engines.
    layer("queue.pushed", "count", "lower", SWEEP_WALL, true),
    layer("queue.peak", "count", "lower", SWEEP_WALL, true),
    layer("rules.allocs", "count", "lower", SWEEP_WALL, true),
    layer("rules.alloc_stalls", "count", "lower", SWEEP_WALL, true),
    layer("rules.squash_ratio", "ratio", "lower", SWEEP_WALL, true),
    layer("queue.push_pop_ns", "ns", "lower", SWEEP_WALL, false),
    layer("rules.tick_ns", "ns", "lower", SWEEP_WALL, false),
    // Fault injection and rollback recovery.
    layer("fault.link_dropped", "count", "lower", CHAOS_CYCLES, true),
    layer("fault.link_retried", "count", "lower", CHAOS_CYCLES, true),
    layer("rollback.count", "count", "lower", CHAOS_CYCLES, true),
    layer(
        "rollback.replayed_ratio",
        "ratio",
        "lower",
        CHAOS_WALL,
        true,
    ),
    // Snapshots and the JSON layer.
    layer("snapshot.take_s", "s", "lower", CHAOS_WALL, false),
    layer("snapshot.bytes", "bytes", "lower", CHAOS_RESTORE, true),
    layer("snapshot.render_s", "s", "lower", CHAOS_WALL, false),
    layer("json.parse_s", "s", "lower", CHAOS_RESTORE, false),
    layer(
        "json.parse_mb_per_s",
        "MB/s",
        "higher",
        CHAOS_RESTORE,
        false,
    ),
    layer("snapshot.restore_s", "s", "lower", CHAOS_RESTORE, false),
    layer(
        "checkpoint.overhead_ratio",
        "ratio",
        "lower",
        CHAOS_WALL,
        false,
    ),
    // Trace ring, timeline, report export.
    layer("trace.overhead_ratio", "ratio", "lower", CHAOS_WALL, false),
    layer(
        "timeline.overhead_ratio",
        "ratio",
        "lower",
        CHAOS_WALL,
        false,
    ),
    layer("trace.records", "count", "higher", CHAOS_WALL, true),
    layer("trace.dropped", "count", "lower", CHAOS_WALL, true),
    layer("report.to_json_s", "s", "lower", SWEEP_JOB, false),
    layer("trace.chrome_render_s", "s", "lower", CHAOS_WALL, false),
    // Campaign engine and work-stealing dispatch.
    layer("campaign.steals", "count", "lower", SWEEP_JOBS, false),
    layer(
        "campaign.peak_inflight",
        "count",
        "lower",
        SWEEP_JOBS,
        false,
    ),
    layer("campaign.record_s", "s", "lower", SWEEP_JOBS, false),
    layer(
        "campaign.parallel_efficiency",
        "ratio",
        "higher",
        SWEEP_JOBS,
        false,
    ),
    // Self time per layer group over the traced run, and the cost of
    // tracing itself.
    layer("self.setup_s", "s", "lower", SETUP, false),
    layer("self.fabric_run_s", "s", "lower", ROAD_WALL, false),
    layer("self.wheel_s", "s", "lower", SWEEP_WALL, false),
    layer("self.memory_s", "s", "lower", ROAD_WALL, false),
    layer("self.queue_rules_s", "s", "lower", SWEEP_WALL, false),
    layer("self.fault_s", "s", "lower", CHAOS_WALL, false),
    layer("self.snapshot_json_s", "s", "lower", CHAOS_RESTORE, false),
    layer("self.trace_export_s", "s", "lower", CHAOS_WALL, false),
    layer("self.campaign_s", "s", "lower", SWEEP_JOBS, false),
    layer("self.checker_s", "s", "lower", SWEEP_JOB, false),
    layer("self.bench_s", "s", "lower", SWEEP_JOB, false),
    layer("spans.overhead_ratio", "ratio", "lower", ROAD_WALL, false),
];

/// The layer group a span name belongs to (its self time is summed into
/// `self.<group>_s`).
pub fn span_group(name: &str) -> &'static str {
    match name {
        "workloads.gen" | "apps.build" | "synth.synthesize" | "check.lint" | "check.analyze"
        | "fabric.new" => "setup",
        "fabric.run" | "fabric.run_slice" | "fabric.run_until" | "probe.ns_per_cycle" => {
            "fabric_run"
        }
        "probe.wheel" => "wheel",
        "probe.memory" => "memory",
        "probe.queue" | "probe.rules" => "queue_rules",
        "probe.checkpoint" => "fault",
        "snapshot.take" | "snapshot.render" | "json.parse" | "fabric.restore" => "snapshot_json",
        "export.to_json" | "trace.chrome_render" | "probe.trace" | "probe.timeline" => {
            "trace_export"
        }
        "campaign.run" | "campaign.record" => "campaign",
        "app.check" => "checker",
        _ => "bench",
    }
}

/// Every `self.<group>_s` group, in catalog order.
pub const SPAN_GROUPS: [&str; 11] = [
    "setup",
    "fabric_run",
    "wheel",
    "memory",
    "queue_rules",
    "fault",
    "snapshot_json",
    "trace_export",
    "campaign",
    "checker",
    "bench",
];
