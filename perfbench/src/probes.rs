//! Layer probes of the traced mode: single layers driven on their own
//! through their public APIs, with the workload's own inputs, and paired
//! runs of one job with a mechanism switched on and off.

use crate::jobs::{self, setup, JobSpec};
use crate::spans::{span, timed};
use crate::stats::median;
use apir_apps::AppInstance;
use apir_bench::scale::build_app;
use apir_bench::Scale;
use apir_core::rule::EventPat;
use apir_core::{IndexTuple, RegionId, MAX_FIELDS};
use apir_fabric::memory::MemorySubsystem;
use apir_fabric::queue::TaskQueue;
use apir_fabric::rules::RuleEngine;
use apir_fabric::types::{EventMsg, MemReq};
use apir_fabric::{Fabric, FabricConfig, FabricReport, FaultConfig};
use std::time::{Duration, Instant};

/// Runs `job`'s app under `cfg` (its own setup untimed) and returns the
/// report with the host time of the run call.
fn run_with(
    app: &AppInstance,
    cfg: FabricConfig,
    name: &'static str,
    job: u64,
) -> (FabricReport, Duration) {
    let fabric = Fabric::new(&app.spec, &app.input, cfg);
    let (r, d) = timed(name, job, || fabric.run());
    let report = r.unwrap_or_else(|e| panic!("{name} probe run failed: {e}"));
    (report, d)
}

/// Host time with a mechanism on over host time with it off, for the
/// same job: `reps` alternating pairs, ratio of the medians. Returns the
/// ratio and the last report with the mechanism on.
pub fn overhead(
    job: &JobSpec,
    name: &'static str,
    reps: usize,
    on: impl Fn(&mut FabricConfig),
    off: impl Fn(&mut FabricConfig),
) -> (f64, FabricReport) {
    let (built, _) = setup(job, 0, false);
    let (mut on_t, mut off_t) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        let mut c = built.cfg.clone();
        off(&mut c);
        off_t.push(run_with(&built.app, c, name, job.id).1.as_secs_f64());
        let mut c = built.cfg.clone();
        on(&mut c);
        let (r, d) = run_with(&built.app, c, name, job.id);
        on_t.push(d.as_secs_f64());
        last = Some(r);
    }
    (median(&on_t) / median(&off_t), last.expect("reps >= 1"))
}

/// The chaos preset that recovers by retries alone, for probes that
/// compare a run with and without the recovery machinery.
pub fn retry_only_faults(cfg: &mut FabricConfig, seed: u64) {
    cfg.faults = FaultConfig::chaos(seed);
    cfg.checkpoint_interval = 0;
    cfg.max_rollbacks = 0;
}

/// Host ns per cycle of each app at tiny scale, for apps a workload does
/// not run itself.
pub fn tiny_ns_per_cycle(app: &'static str) -> f64 {
    let a = build_app(app, Scale::Tiny);
    let mut cfg = apir_bench::experiments::synthesized_cfg(app, Scale::Tiny);
    apir_bench::experiments::scale_cache(&mut cfg, &a.input);
    (a.tune)(&mut cfg);
    let mut ns = Vec::new();
    let mut cycles = 1;
    for _ in 0..5 {
        let (r, d) = run_with(&a, cfg.clone(), "probe.ns_per_cycle", 0);
        cycles = r.cycles.max(1);
        ns.push(d.as_nanos() as f64);
    }
    median(&ns) / cycles as f64
}

/// Drives `MemorySubsystem` alone with a CSR graph's edge-relaxation
/// address stream (`col[e]`, then `dist[col[e]]`), issuing as fast as the
/// request FIFO accepts. Returns host ns per memory tick.
pub fn memory_tick_ns(app: &AppInstance, cfg: &FabricConfig, budget: Duration) -> f64 {
    let region = |name: &str| {
        let i = app.spec.regions().iter().position(|(n, _)| n == name);
        RegionId(i.unwrap_or_else(|| panic!("{} has no `{name}` region", app.name)))
    };
    let (col, dist) = (region("col"), region("dist"));
    let edges: Vec<u64> = app.input.mem.region(col).to_vec();
    let stream: Vec<(RegionId, u64)> = edges
        .iter()
        .enumerate()
        .flat_map(|(e, &v)| [(col, e as u64), (dist, v)])
        .collect();
    span("probe.memory", 0, || {
        let mut ticks = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            let mut mem = MemorySubsystem::new(cfg.mem.clone(), app.input.mem.clone());
            let mut responses = Vec::new();
            let (mut next, mut now, mut tag) = (0usize, 0u64, 0u64);
            while next < stream.len() || !mem.is_idle() {
                while next < stream.len() {
                    let (region, offset) = stream[next];
                    let req = MemReq {
                        port: 0,
                        tag,
                        region,
                        offset,
                        write: None,
                    };
                    if !mem.requests.try_push(req) {
                        break;
                    }
                    next += 1;
                    tag += 1;
                }
                mem.tick(now, &mut responses);
                mem.commit();
                responses.clear();
                now += 1;
            }
            ticks += now;
        }
        t0.elapsed().as_nanos() as f64 / ticks.max(1) as f64
    })
}

/// Drives one `TaskQueue` alone: fill it with `batch` children of one
/// parent, commit, drain. Returns host ns per push + pop.
pub fn queue_push_pop_ns(app: &AppInstance, cfg: &FabricConfig, budget: Duration) -> f64 {
    let ts = &app.spec.task_sets()[0];
    let batch = (cfg.queue_capacity / 2).clamp(1, 4096);
    span("probe.queue", 0, || {
        let mut ops = 0u64;
        let t0 = Instant::now();
        let parent = IndexTuple::new(&[1]);
        let mut q = TaskQueue::new(
            ts.kind,
            ts.level,
            cfg.queue_banks.max(1),
            cfg.queue_capacity.max(1),
        );
        let mut seq = 0u64;
        while t0.elapsed() < budget {
            for _ in 0..batch {
                seq += 1;
                std::hint::black_box(q.push_child(parent, seq, [seq; MAX_FIELDS]));
            }
            q.commit();
            while let Some(t) = q.pop() {
                std::hint::black_box(t);
                ops += 1;
            }
        }
        t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
    })
}

/// Drives the app's first `RuleEngine` alone: every cycle, allocate lanes
/// for a batch of tasks, broadcast a few events on the rule's label and
/// the minimum task, then release the lanes. Returns host ns per tick.
pub fn rules_tick_ns(app: &AppInstance, cfg: &FabricConfig, budget: Duration) -> f64 {
    let decl = app.spec.rules()[0].clone();
    let label = decl.clauses.iter().find_map(|c| match c.event {
        EventPat::Label(l) => Some(l),
        _ => None,
    });
    let lanes = cfg.rule_lanes.max(1);
    span("probe.rules", 0, || {
        let mut engine = RuleEngine::new(decl, lanes);
        let mut out = Vec::new();
        let mut tick_ns = 0u128;
        let mut ticks = 0u64;
        let mut k = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            let base = k;
            for _ in 0..lanes {
                k += 1;
                engine.alloc(IndexTuple::new(&[k]), k, [k % 97; MAX_FIELDS], k);
            }
            let events: Vec<EventMsg> = label
                .into_iter()
                .flat_map(|l| {
                    (0..4).map(move |i| EventMsg {
                        label: l,
                        payload: [(base + i) % 97; MAX_FIELDS],
                        len: 2,
                        index: IndexTuple::new(&[base + i]),
                    })
                })
                .collect();
            let t = Instant::now();
            engine.tick(
                &events,
                Some((IndexTuple::new(&[base + 1]), base + 1)),
                &mut out,
            );
            tick_ns += t.elapsed().as_nanos();
            ticks += 1;
            out.clear();
            for tag in base + 1..=k {
                engine.cancel(tag);
            }
        }
        tick_ns as f64 / ticks.max(1) as f64
    })
}

/// A tiny chaos campaign (six apps, two fault seeds) for the campaign
/// metrics of workloads that do not run one themselves.
pub fn campaign_probe_plan(seed: u64) -> apir_campaign::CampaignPlan {
    let (a, b) = (seed >> 40, (seed >> 20) & 0xfffff);
    apir_campaign::parse_plan(&format!(
        r#"{{"schema":"apir.campaign.plan.v1","scale":"tiny",
            "apps":["SPEC-BFS","COOR-BFS","SPEC-SSSP","SPEC-MST","SPEC-DMR","COOR-LU"],
            "seeds":[{a},{}],"configs":[{{"id":"chaos","chaos":true,"retries":3}}]}}"#,
        b + 1
    ))
    .expect("the campaign probe plan is valid")
}

/// The set-up SPEC-SSSP job of a workload, whose graph drives the
/// single-layer probes.
pub fn sssp_app(jobs: &[JobSpec]) -> jobs::Built {
    let job = jobs
        .iter()
        .find(|j| j.app == "SPEC-SSSP")
        .expect("every workload runs SPEC-SSSP");
    setup(job, 0, false).0
}
