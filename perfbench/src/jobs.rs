//! One benchmark job, driven through the public API one layer at a time:
//! generator → app builder → synthesis → `Fabric::new` → run → checker →
//! result record. Each call is timed (and wrapped in a span when the
//! traced mode is on), so the setup, run, check and record shares of a
//! job are measured from outside the program.

use crate::spans::{span, timed};
use apir_apps::{bfs, dmr, lu, mst, sssp, AppInstance};
use apir_bench::experiments::{base_cfg, scale_cache};
use apir_bench::Scale;
use apir_campaign::{retry_seed, ConfigVariant, Job};
use apir_fabric::{
    Fabric, FabricConfig, FabricError, FabricReport, FaultConfig, FaultStats, RunSplit,
};
use apir_sim::stats::StallCause;
use apir_synth::flow::{synthesize, SynthesisTarget};
use apir_workloads::delaunay::Mesh;
use apir_workloads::graph::CsrGraph;
use apir_workloads::sparse::BlockPattern;
use std::sync::Arc;
use std::time::Duration;

/// Cycles per `run_until` slice in the traced mode.
pub const SLICE_CYCLES: u64 = 4096;

/// A seeded input generator call (`apir_workloads`).
#[derive(Clone, Debug)]
pub enum Gen {
    Road { side: usize, max_w: u32, seed: u64 },
    Edges { n: usize, m: usize, seed: u64 },
    Mesh { points: usize, seed: u64 },
    Blocks { nb: usize, bs: usize, seed: u64 },
}

/// What a generator produced, ready for an app builder.
pub enum Generated {
    Graph(Arc<CsrGraph>),
    Edges(usize, Arc<Vec<(u32, u32, u64)>>),
    Mesh(Arc<Mesh>),
    Blocks(BlockPattern, usize, u64),
}

impl Gen {
    pub fn generate(&self) -> Generated {
        use apir_workloads::gen;
        match *self {
            Gen::Road { side, max_w, seed } => {
                Generated::Graph(Arc::new(gen::road_network(side, side, 0.93, max_w, seed)))
            }
            Gen::Edges { n, m, seed } => {
                Generated::Edges(n, Arc::new(gen::edge_list_distinct_weights(n, m, seed)))
            }
            Gen::Mesh { points, seed } => Generated::Mesh(Arc::new(Mesh::random(points, seed))),
            Gen::Blocks { nb, bs, seed } => {
                Generated::Blocks(BlockPattern::random(nb, 0.4, seed), bs, seed)
            }
        }
    }

    /// The generator call `apir_bench::scale::build_app` makes for `app`
    /// at `scale` (its sizes and fixed seeds). `builtin_gens_match`
    /// checks the two stay equal.
    pub fn builtin(app: &str, scale: Scale) -> Gen {
        let i = match scale {
            Scale::Tiny => 0,
            Scale::Small => 1,
            Scale::Medium => 2,
            Scale::Large => 3,
        };
        match app {
            "SPEC-BFS" | "COOR-BFS" => Gen::Road {
                side: [8, 24, 48, 96][i],
                max_w: 8,
                seed: 42,
            },
            "SPEC-SSSP" => Gen::Road {
                side: [7, 20, 40, 72][i],
                max_w: 16,
                seed: 43,
            },
            "SPEC-MST" => {
                let (n, m) = [(40, 120), (200, 600), (600, 2_000), (2_000, 7_000)][i];
                Gen::Edges { n, m, seed: 44 }
            }
            "SPEC-DMR" => Gen::Mesh {
                points: [16, 60, 160, 400][i],
                seed: 45,
            },
            "COOR-LU" => {
                let (nb, bs) = [(3, 4), (5, 8), (8, 12), (12, 16)][i];
                Gen::Blocks { nb, bs, seed: 46 }
            }
            other => panic!("unknown app `{other}`"),
        }
    }
}

/// The catalog's `'static` name for an app.
pub fn app_name(app: &str) -> &'static str {
    crate::catalog::APPS
        .into_iter()
        .find(|a| *a == app)
        .unwrap_or_else(|| panic!("unknown app `{app}`"))
}

/// Calls the app builder (`apir_apps`) on generated inputs.
pub fn build(app: &str, input: Generated) -> AppInstance {
    match (app, input) {
        ("SPEC-BFS", Generated::Graph(g)) => bfs::build(g, 0, bfs::BfsVariant::Spec),
        ("COOR-BFS", Generated::Graph(g)) => bfs::build(g, 0, bfs::BfsVariant::Coor),
        ("SPEC-SSSP", Generated::Graph(g)) => sssp::build(g, 0),
        ("SPEC-MST", Generated::Edges(n, e)) => mst::build(n, e),
        ("SPEC-DMR", Generated::Mesh(m)) => dmr::build(m, 21.0),
        ("COOR-LU", Generated::Blocks(p, bs, seed)) => lu::build(&p, bs, seed),
        (app, _) => panic!("no builder for `{app}` on these inputs"),
    }
}

/// Fabric knobs on top of the synthesized, cache-scaled, tuned baseline.
#[derive(Clone, Debug, Default)]
pub struct Knobs {
    /// The campaign variant (plan overrides, chaos flag, retry budget).
    pub variant: ConfigVariant,
    /// Rollback recovery as the chaos-restore workload arms it.
    pub recovery: bool,
    /// Trace ring and timeline armed.
    pub observe: bool,
}

/// Trace ring capacity when a job observes. `apir-trace run` arms
/// 65 536 records; at that size the SPEC-SSSP snapshot is 1.5 MB and one
/// parse takes seconds, so the ring is kept to 4 096 records (a 0.2 MB
/// snapshot).
pub const TRACE_CAP: usize = 1 << 12;
/// Timeline window and ring size when a job observes (as
/// `apir-trace timeline`).
pub const TIMELINE_WINDOW: u64 = 256;
pub const TIMELINE_CAP: usize = 4096;

impl Knobs {
    /// The fabric configuration for `app` under these knobs: the recipe
    /// `apir_campaign::job_cfg` uses, with the synthesis run on the spec
    /// already built, then this workload's recovery and observability.
    pub fn cfg(&self, app: &AppInstance, fault_seed: u64, job: u64) -> FabricConfig {
        let mut cfg = span("synth.synthesize", job, || {
            synthesize(&app.spec, base_cfg(), SynthesisTarget::default()).cfg
        });
        scale_cache(&mut cfg, &app.input);
        (app.tune)(&mut cfg);
        self.variant.overrides.apply(&mut cfg);
        if self.variant.chaos {
            cfg.faults = FaultConfig::chaos(fault_seed);
        }
        if self.recovery {
            cfg.faults.max_retries = 3;
            cfg.checkpoint_interval = 1000;
            cfg.max_rollbacks = 64;
        }
        if self.observe {
            cfg.trace_capacity = TRACE_CAP;
            cfg.timeline_window = TIMELINE_WINDOW;
            cfg.timeline_capacity = TIMELINE_CAP;
        }
        cfg
    }
}

/// One job of a workload's fixed job list.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Position in the job list (the span job id).
    pub id: u64,
    pub app: &'static str,
    pub gen: Gen,
    pub knobs: Knobs,
    /// The cell the job's result record is rendered for; its seed is the
    /// fault seed when the variant is chaos.
    pub cell: Job,
}

impl JobSpec {
    pub fn new(
        id: u64,
        app: &'static str,
        gen: Gen,
        knobs: Knobs,
        seed: u64,
        scale: Scale,
    ) -> Self {
        let cell = Job {
            app: app.to_string(),
            config: knobs.variant.clone(),
            seed,
            scale,
        };
        JobSpec {
            id,
            app,
            gen,
            knobs,
            cell,
        }
    }
}

/// What a constructed fabric was built from.
pub struct Built {
    pub app: AppInstance,
    pub cfg: FabricConfig,
    /// Generation through `Fabric::new`.
    pub setup: Duration,
}

/// Setup of one attempt: generate, build, synthesize, construct. The
/// traced mode also times the lint and analysis passes that
/// `Fabric::new` runs inside, by calling them on their own.
pub fn setup(job: &JobSpec, attempt: u32, traced: bool) -> (Built, Fabric) {
    let ((app, cfg, fabric), setup) = timed("setup", job.id, || {
        let input = span("workloads.gen", job.id, || job.gen.generate());
        let app = span("apps.build", job.id, || build(job.app, input));
        let cfg = job
            .knobs
            .cfg(&app, retry_seed(job.cell.seed, attempt), job.id);
        if traced {
            span("check.lint", job.id, || {
                apir_core::check::check_all(&app.spec)
            });
            span("check.analyze", job.id, || {
                apir_fabric::analyze_config(&cfg, &app.spec, &app.input)
            });
        }
        let fabric = span("fabric.new", job.id, || {
            Fabric::new(&app.spec, &app.input, cfg.clone())
        });
        (app, cfg, fabric)
    });
    (Built { app, cfg, setup }, fabric)
}

/// Host time of each `run_until` slice and the cycles it covered.
pub type Windows = Vec<(Duration, u64)>;

/// Runs a fabric that stands at cycle `from` to completion: one `run`
/// call, or in the traced mode successive `run_until` slices of
/// [`SLICE_CYCLES`] whose host times give the cost by run phase.
pub fn run(
    fabric: Fabric,
    from: u64,
    job: u64,
    traced: bool,
    windows: &mut Windows,
) -> (Result<FabricReport, FabricError>, Duration) {
    if !traced {
        return timed("fabric.run", job, || fabric.run());
    }
    let mut fabric = fabric;
    let mut total = Duration::ZERO;
    let mut at = from;
    loop {
        let target = at + SLICE_CYCLES;
        let (split, d) = timed("fabric.run_slice", job, || fabric.run_until(target));
        total += d;
        match split {
            Ok(RunSplit::Paused(f)) => {
                windows.push((d, SLICE_CYCLES));
                fabric = *f;
                at = target;
            }
            Ok(RunSplit::Done(report)) => {
                windows.push((d, report.cycles.saturating_sub(at)));
                return (Ok(*report), total);
            }
            Err(e) => return (Err(e), total),
        }
    }
}

/// Exact simulated counters of one run: everything that must repeat bit
/// for bit across samples of the same job and seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub cycles: u64,
    pub busy: u64,
    pub stall: u64,
    pub idle: u64,
    pub stall_causes: Vec<u64>,
    pub mem_reads: u64,
    pub mem_writes: u64,
    pub mem_hits: u64,
    pub mem_misses: u64,
    pub mem_qpi_bytes: u64,
    pub rule_allocs: u64,
    pub rule_alloc_stalls: u64,
    pub rule_fires: u64,
    pub rule_evictions: u64,
    pub retired: u64,
    pub squashes: u64,
    pub queue_pushed: u64,
    pub queue_peak: u64,
    pub faults: FaultStats,
    pub rollbacks: u64,
    pub replayed: u64,
}

impl Counters {
    pub fn of(r: &FabricReport) -> Counters {
        let m = &r.metrics;
        let c = |k: &str| m.counter(k).unwrap_or(0);
        let queue_pushed = m
            .entries()
            .iter()
            .filter(|(k, _)| k.starts_with("queue.") && k.ends_with(".pushed"))
            .map(|(k, _)| c(k))
            .sum();
        Counters {
            cycles: r.cycles,
            busy: c("fabric.busy"),
            stall: c("fabric.stall"),
            idle: c("fabric.idle"),
            stall_causes: StallCause::ALL
                .iter()
                .map(|s| c(&format!("fabric.stall.{}", s.key())))
                .collect(),
            mem_reads: r.mem.reads,
            mem_writes: r.mem.writes,
            mem_hits: r.mem.hits,
            mem_misses: r.mem.misses,
            mem_qpi_bytes: r.mem.qpi_bytes,
            rule_allocs: r.rules.iter().map(|s| s.allocs).sum(),
            rule_alloc_stalls: r.rules.iter().map(|s| s.alloc_stalls).sum(),
            rule_fires: r
                .rules
                .iter()
                .map(|s| s.clause_fires + s.otherwise_fires)
                .sum(),
            rule_evictions: r.rules.iter().map(|s| s.evictions).sum(),
            retired: r.total_retired(),
            squashes: r.squashes,
            queue_pushed,
            queue_peak: r.queue_peaks.iter().copied().max().unwrap_or(0) as u64,
            faults: r.faults,
            rollbacks: r.rollbacks.as_ref().map_or(0, |s| s.count),
            replayed: r.rollbacks.as_ref().map_or(0, |s| s.replayed_cycles),
        }
    }

    pub fn stage_cycles(&self) -> u64 {
        self.busy + self.stall + self.idle
    }

    /// Adds another job's counters into a workload total (of the fault
    /// counters, the two the per-layer metrics report).
    pub fn add(&mut self, o: &Counters) {
        self.cycles += o.cycles;
        self.busy += o.busy;
        self.stall += o.stall;
        self.idle += o.idle;
        self.stall_causes
            .resize(o.stall_causes.len().max(self.stall_causes.len()), 0);
        for (a, b) in self.stall_causes.iter_mut().zip(&o.stall_causes) {
            *a += b;
        }
        self.mem_reads += o.mem_reads;
        self.mem_writes += o.mem_writes;
        self.mem_hits += o.mem_hits;
        self.mem_misses += o.mem_misses;
        self.mem_qpi_bytes += o.mem_qpi_bytes;
        self.rule_allocs += o.rule_allocs;
        self.rule_alloc_stalls += o.rule_alloc_stalls;
        self.rule_fires += o.rule_fires;
        self.rule_evictions += o.rule_evictions;
        self.retired += o.retired;
        self.squashes += o.squashes;
        self.queue_pushed += o.queue_pushed;
        self.queue_peak = self.queue_peak.max(o.queue_peak);
        self.faults.link_dropped += o.faults.link_dropped;
        self.faults.link_retried += o.faults.link_retried;
        self.rollbacks += o.rollbacks;
        self.replayed += o.replayed;
    }
}

/// One finished job, timed layer by layer.
pub struct Done {
    pub setup: Duration,
    pub run: Duration,
    /// Setup + run + check + record, over every attempt.
    pub total: Duration,
    pub counters: Counters,
    /// The rendered result record (`apir_campaign::record`).
    pub record: String,
    pub report: FabricReport,
}

/// Runs one job end to end: setup, run, checker, record. A failing
/// attempt is retried under the variant's retry budget with the bumped
/// fault salt, exactly as the campaign engine does.
///
/// # Errors
///
/// The last attempt's failure, when every attempt failed.
pub fn execute(job: &JobSpec, traced: bool, windows: &mut Windows) -> Result<Done, String> {
    let (result, total) = timed("job", job.id, || {
        let mut last = String::new();
        for attempt in 0..=job.knobs.variant.retries {
            let (built, fabric) = setup(job, attempt, traced);
            let (outcome, run_d) = run(fabric, 0, job.id, traced, windows);
            let report = match outcome {
                Ok(r) => r,
                Err(e) => {
                    last = format!("{}: {e}", job.cell.key());
                    continue;
                }
            };
            if let Err(e) = span("app.check", job.id, || (built.app.check)(&report.mem_image)) {
                last = format!("{}: checker rejected the image: {e}", job.cell.key());
                continue;
            }
            let outcome = Ok(report);
            let record = span("campaign.record", job.id, || {
                apir_campaign::record(&job.cell, &outcome).render()
            });
            let Ok(report) = outcome else {
                unreachable!("built as Ok")
            };
            if traced {
                span("export.to_json", job.id, || report.to_json());
            }
            return Ok((built.setup, run_d, Counters::of(&report), record, report));
        }
        Err(last)
    });
    let (setup, run, counters, record, report) = result?;
    Ok(Done {
        setup,
        run,
        total,
        counters,
        record,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_bench::scale::{build_app, APP_NAMES};

    #[test]
    fn builtin_gens_match_build_app() {
        for scale in [Scale::Tiny, Scale::Small] {
            for app in APP_NAMES {
                let ours = build(app, Gen::builtin(app, scale).generate());
                let theirs = build_app(app, scale);
                assert!(ours.input.mem == theirs.input.mem, "{app} memory image");
                assert_eq!(ours.input.initial, theirs.input.initial, "{app} seeds");
            }
        }
    }
}
