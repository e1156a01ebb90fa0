//! Self-tests of the benchmark: its catalog against `BENCHMARK.json`
//! and the metric list of its specification, and the determinism its
//! correctness checks rely on. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::jobs::{execute, Gen, JobSpec, Knobs};
use crate::workloads::{chaos_jobs, road_jobs, sweep_plans};
use apir_bench::Scale;
use apir_util::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    apir_util::json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

fn text(v: &Json, key: &str) -> String {
    field(v, key).as_str().expect("a string").to_string()
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_and_units_use_the_allowed_characters_once() {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|e| e.name))
        .chain(PER_LAYER.iter().map(|l| l.name));
    for n in names {
        assert!(valid_name(n), "bad name `{n}`");
        assert!(seen.insert(n), "`{n}` used twice");
    }
    for u in END_TO_END
        .iter()
        .map(|e| e.unit)
        .chain(PER_LAYER.iter().map(|l| l.unit))
    {
        assert!(valid_unit(u), "bad unit `{u}`");
    }
    for e in END_TO_END {
        assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
}

#[test]
fn catalog_matches_benchmark_json() {
    let b = benchmark_json();
    let workloads: Vec<String> = field(&b, "workloads")
        .as_arr()
        .expect("workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = field(&b, "end_to_end").as_arr().expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, e) in e2e.iter().zip(END_TO_END) {
        assert_eq!(text(j, "name"), e.name);
        assert_eq!(text(j, "unit"), e.unit, "{}", e.name);
        assert_eq!(text(j, "better"), e.better, "{}", e.name);
        assert_eq!(field(j, "bound").as_f64(), Some(e.bound), "{}", e.name);
    }
    let layers = field(&b, "per_layer").as_arr().expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, l) in layers.iter().zip(PER_LAYER) {
        assert_eq!(text(j, "name"), l.name);
        assert_eq!(text(j, "unit"), l.unit, "{}", l.name);
        assert_eq!(text(j, "better"), l.better, "{}", l.name);
    }
    let paths = field(&b, "paths").as_arr().expect("paths");
    assert_eq!(
        paths.iter().map(|p| p.as_str()).collect::<Vec<_>>(),
        [Some("perfbench")]
    );
}

/// The end-to-end and per-layer metrics the benchmark was specified
/// with; `failed_ratio` is carried by the result line's `failed` and
/// `attempted` instead (a metric that is 0 on every correct run has no
/// spread to bound).
const SPECIFIED: &[&str] = &[
    "setup_s",
    "wall_s",
    "sim_mcycles_per_s",
    "job_s.p50",
    "job_s.tail",
    "jobs_per_s",
    "restore_s",
    "peak_rss_mb",
    "sim_cycles",
    "workloads.gen_s",
    "apps.build_s",
    "synth.synthesize_s",
    "check.lint_s",
    "check.analyze_s",
    "fabric.new_s",
    "fabric.stage_cycles",
    "fabric.busy_ratio",
    "fabric.idle_ratio",
    "fabric.ns_per_stage_cycle",
    "fabric.window_ns_per_cycle.p50",
    "fabric.window_ns_per_cycle.max",
    "wheel.dense_over_wheel",
    "mem.hit_ratio",
    "mem.misses",
    "mem.qpi_bytes",
    "memory.tick_ns",
    "queue.pushed",
    "queue.peak",
    "rules.allocs",
    "rules.alloc_stalls",
    "rules.squash_ratio",
    "queue.push_pop_ns",
    "rules.tick_ns",
    "fault.link_dropped",
    "fault.link_retried",
    "rollback.count",
    "rollback.replayed_ratio",
    "snapshot.take_s",
    "snapshot.bytes",
    "snapshot.render_s",
    "json.parse_s",
    "json.parse_mb_per_s",
    "snapshot.restore_s",
    "checkpoint.overhead_ratio",
    "trace.overhead_ratio",
    "timeline.overhead_ratio",
    "trace.records",
    "trace.dropped",
    "report.to_json_s",
    "trace.chrome_render_s",
    "campaign.steals",
    "campaign.peak_inflight",
    "campaign.record_s",
    "campaign.parallel_efficiency",
];

#[test]
fn every_specified_metric_is_in_the_catalog() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .map(|e| e.name)
        .chain(PER_LAYER.iter().map(|l| l.name))
        .collect();
    for n in SPECIFIED {
        assert!(names.contains(n), "`{n}` is missing");
    }
    for app in crate::catalog::APPS {
        let n = format!("fabric.ns_per_cycle.{app}");
        assert!(names.contains(&n.as_str()), "`{n}` is missing");
    }
    for g in crate::catalog::SPAN_GROUPS {
        let n = format!("self.{g}_s");
        assert!(names.contains(&n.as_str()), "`{n}` is missing");
    }
    for l in PER_LAYER {
        let (metric, workload) = l.moves.split_once('@').expect("metric@workload");
        assert!(END_TO_END.iter().any(|e| e.name == metric), "{}", l.name);
        assert!(WORKLOADS.contains(&workload), "{}", l.name);
    }
}

#[test]
fn readme_documents_every_metric() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("perfbench/README.md");
    for n in END_TO_END
        .iter()
        .map(|e| e.name)
        .chain(PER_LAYER.iter().map(|l| l.name))
    {
        assert!(
            readme.contains(&format!("`{n}`")),
            "README does not document `{n}`"
        );
    }
}

#[test]
fn another_seed_gives_other_road_inputs() {
    let graph = |seed| {
        let job = road_jobs(seed)
            .into_iter()
            .find(|j| j.app == "SPEC-BFS")
            .expect("a SPEC-BFS job");
        match job.gen.generate() {
            crate::jobs::Generated::Graph(g) => g.col().to_vec(),
            _ => unreachable!("road jobs generate graphs"),
        }
    };
    assert_eq!(graph(1), graph(1));
    assert_ne!(graph(1), graph(2));
}

#[test]
fn fault_seeds_follow_the_workload_seed() {
    let seeds = |s| {
        chaos_jobs(s)
            .iter()
            .map(|j| j.cell.seed)
            .collect::<Vec<_>>()
    };
    assert_eq!(seeds(5), seeds(5));
    assert_ne!(seeds(5), seeds(6));
    assert_ne!(sweep_plans(5)[0].seeds, sweep_plans(6)[0].seeds);
}

/// A tiny job under each knob set the workloads use.
fn tiny_jobs() -> Vec<JobSpec> {
    let sweep = sweep_plans(3);
    let chaos = chaos_jobs(3).remove(0);
    let chaos_variant = sweep[0]
        .configs
        .iter()
        .find(|c| c.chaos)
        .expect("a chaos cell")
        .clone();
    vec![
        JobSpec::new(
            0,
            "SPEC-BFS",
            Gen::builtin("SPEC-BFS", Scale::Tiny),
            Knobs::default(),
            1,
            Scale::Tiny,
        ),
        JobSpec::new(
            1,
            "SPEC-MST",
            Gen::builtin("SPEC-MST", Scale::Tiny),
            Knobs {
                variant: chaos_variant,
                ..Knobs::default()
            },
            chaos.cell.seed,
            Scale::Tiny,
        ),
        JobSpec::new(
            2,
            "SPEC-SSSP",
            Gen::builtin("SPEC-SSSP", Scale::Tiny),
            chaos.knobs,
            chaos.cell.seed,
            Scale::Tiny,
        ),
    ]
}

#[test]
fn same_seed_repeats_exact_counters() {
    for job in tiny_jobs() {
        let mut w = Vec::new();
        let a = execute(&job, false, &mut w).expect("runs");
        let b = execute(&job, true, &mut w).expect("runs");
        assert_eq!(a.counters, b.counters, "{}", job.cell.key());
        assert_eq!(a.record, b.record, "{}", job.cell.key());
        assert!(a.counters.cycles > 0);
    }
}
