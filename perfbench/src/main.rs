//! `apir-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload road-medium --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The workload's inputs are generated from `--seed`; every job is
//! checked (app checker, exact counters repeating across samples, result
//! records equal across the paths that produce them). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the metrics — the end-to-end ones with `--trace 0`, the per-layer
//! ones with `--trace 1`. See `perfbench/README.md`.

mod calib;
mod catalog;
mod jobs;
mod probes;
#[cfg(test)]
mod selftest;
mod spans;
mod stats;
mod workloads;

use catalog::{END_TO_END, PER_LAYER};
use jobs::{JobSpec, TIMELINE_CAP, TIMELINE_WINDOW, TRACE_CAP};
use stats::{median, quantile, tail_percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Tally;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            catalog::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A workload, ready to run passes.
enum Plan {
    Road(Vec<JobSpec>),
    Sweep(Vec<apir_campaign::CampaignPlan>, Vec<JobSpec>),
    Chaos(Vec<JobSpec>),
}

impl Plan {
    fn new(workload: &str, seed: u64) -> Plan {
        match workload {
            "road-medium" => Plan::Road(workloads::road_jobs(seed)),
            "sweep-small" => {
                let plans = workloads::sweep_plans(seed);
                let jobs = workloads::sweep_jobs(&plans);
                Plan::Sweep(plans, jobs)
            }
            _ => Plan::Chaos(workloads::chaos_jobs(seed)),
        }
    }

    fn jobs(&self) -> &[JobSpec] {
        match self {
            Plan::Road(j) | Plan::Sweep(_, j) | Plan::Chaos(j) => j,
        }
    }

    fn pass(&self, traced: bool, t: &mut Tally) {
        match self {
            Plan::Road(j) => workloads::plain_pass(j, traced, t),
            Plan::Sweep(p, j) => workloads::sweep_round(p, j, traced, t),
            Plan::Chaos(j) => workloads::chaos_pass(j, traced, t),
        }
    }

    /// Passes every run makes at least (so the tail percentile is the
    /// same on every run), and passes of the traced mode.
    fn min_passes(&self) -> u64 {
        match self {
            Plan::Road(_) => 5,
            Plan::Sweep(..) | Plan::Chaos(_) => 4,
        }
    }

    fn traced_passes(&self) -> u64 {
        match self {
            Plan::Road(_) | Plan::Sweep(..) => 2,
            Plan::Chaos(_) => 3,
        }
    }

    /// Job completion samples one pass yields.
    fn samples_per_pass(&self) -> usize {
        match self {
            Plan::Chaos(j) => 2 * j.len(),
            _ => self.jobs().len(),
        }
    }

    /// The job whose mid-run snapshot gives `restore_s` where the passes
    /// take none: one with fixed inputs, so every seed restores the same
    /// snapshot.
    fn restore_job(&self) -> &JobSpec {
        let j = self.jobs();
        match self {
            Plan::Sweep(..) => j
                .iter()
                .find(|j| j.app == "SPEC-MST" && j.cell.config.id == "qpi-1x")
                .expect("the sweep runs SPEC-MST at qpi-1x"),
            _ => &j[0],
        }
    }

    /// The job the paired on/off probes run: a short one.
    fn probe_job(&self) -> &JobSpec {
        match self {
            Plan::Road(j) => j
                .iter()
                .find(|j| j.app == "SPEC-BFS")
                .expect("road runs SPEC-BFS"),
            _ => self.restore_job(),
        }
    }

    /// The job the event-wheel probe runs: the sweep's tiny SPEC-MST
    /// cell, else the probe job.
    fn wheel_job(&self) -> &JobSpec {
        match self {
            Plan::Sweep(..) => self
                .jobs()
                .iter()
                .find(|j| j.cell.config.id == "wheel")
                .expect("the sweep has a wheel cell"),
            _ => self.probe_job(),
        }
    }
}

/// Setup-only rounds: more `setup_s` samples, and a warm start.
fn setup_rounds(jobs: &[JobSpec], rounds: usize, t: &mut Tally) {
    for _ in 0..rounds {
        for job in jobs {
            t.setup
                .push(jobs::setup(job, 0, false).0.setup.as_secs_f64());
        }
    }
}

/// Runs a warm-up pass (checked, not timed: first-touch page faults and
/// heap growth make it slower), then passes for `seconds` (at least
/// `min_passes` of them), stopping when the next pass would end past the
/// budget. Where the passes take no snapshot themselves, three parse +
/// restore samples of a mid-run snapshot follow each pass. The host-speed
/// kernel runs between passes.
fn measure(plan: &Plan, seconds: u64, t: &mut Tally) {
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    plan.pass(false, t);
    let mut probe = match plan {
        Plan::Chaos(_) => None,
        _ => workloads::RestoreProbe::new(plan.restore_job(), false, t),
    };
    t.discard_samples();
    let mut n = 0u32;
    loop {
        t.calibrate();
        plan.pass(false, t);
        if let Some(p) = probe.as_mut() {
            for _ in 0..3 {
                p.sample(t);
            }
        }
        n += 1;
        let spent = t0.elapsed();
        eprintln!("perfbench: pass {n} done at {:.1}s", spent.as_secs_f64());
        if u64::from(n) >= plan.min_passes() && spent + spent / (n + 1) > budget {
            break;
        }
    }
    t.calibrate();
    if let Some(p) = probe {
        p.finish(false, t);
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

type Metrics = BTreeMap<&'static str, f64>;

fn end_to_end(plan: &Plan, t: &Tally) -> Metrics {
    let times = t.job_times();
    let pct = tail_percentile(plan.min_passes() as usize * plan.samples_per_pass());
    eprintln!(
        "perfbench: job_s.tail is p{pct} of {} job samples; {} passes",
        times.len(),
        t.passes()
    );
    let wall = match plan {
        Plan::Sweep(..) => median(&t.campaign_wall),
        _ => t.list_seconds(),
    };
    let (run_s, cycles) = t.run_seconds(|_| true);
    Metrics::from([
        ("setup_s", median(&t.setup)),
        ("wall_s", wall),
        ("sim_mcycles_per_s", cycles as f64 / run_s / 1e6),
        ("job_s.p50", median(&times)),
        ("job_s.tail", quantile(&times, f64::from(pct) / 100.0)),
        ("jobs_per_s", t.jobs.len() as f64 / wall),
        ("restore_s", median(&t.restore)),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_cycles", cycles as f64),
    ])
}

fn untraced(plan: &Plan, seconds: u64, t: &mut Tally) -> Metrics {
    t.local = true;
    measure(plan, seconds, t);
    setup_rounds(plan.jobs(), 2, t);
    t.calibrate();
    end_to_end(plan, t)
}

/// Span durations by name, in seconds.
fn durations(spans: &[spans::Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e9);
    }
    by
}

fn traced(plan: &Plan, seed: u64, workload: &str, t: &mut Tally) -> Metrics {
    let mut m = Metrics::new();
    // A warm-up pass, an untraced reference pass, then the traced passes:
    // their wall time ratio is the cost of the spans (and of the calls
    // the traced mode adds: lint and analysis on their own, report
    // export).
    t.calibrate();
    plan.pass(false, t);
    t.discard_samples();
    plan.pass(false, t);
    t.calibrate();
    spans::set_enabled(true);
    for _ in 0..plan.traced_passes() {
        plan.pass(true, t);
        t.calibrate();
    }
    m.insert(
        "spans.overhead_ratio",
        median(&t.list_wall[1..]) / t.list_wall[0],
    );

    // Snapshot round trip where the passes take none.
    if !matches!(plan, Plan::Chaos(_)) {
        if let Some(mut p) = workloads::RestoreProbe::new(plan.restore_job(), true, t) {
            for _ in 0..3 {
                p.sample(t);
            }
            p.finish(true, t);
        }
    }

    // Paired on/off runs of one job.
    let probe = plan.probe_job();
    let chaos = matches!(plan, Plan::Chaos(_));
    let fault_seed = probe.cell.seed;
    let quiet = move |c: &mut apir_fabric::FabricConfig| {
        c.trace_capacity = 0;
        c.timeline_window = 0;
        if chaos {
            probes::retry_only_faults(c, fault_seed);
        }
    };
    let (r, _) = probes::overhead(
        plan.wheel_job(),
        "probe.wheel",
        3,
        |c| c.dense_tick = true,
        |c| c.dense_tick = false,
    );
    m.insert("wheel.dense_over_wheel", r);
    let (r, _) = probes::overhead(
        probe,
        "probe.checkpoint",
        3,
        |c| {
            quiet(c);
            c.checkpoint_interval = 1000;
        },
        quiet,
    );
    m.insert("checkpoint.overhead_ratio", r);
    let (r, report) = probes::overhead(
        probe,
        "probe.trace",
        3,
        |c| {
            quiet(c);
            c.trace_capacity = TRACE_CAP;
        },
        quiet,
    );
    m.insert("trace.overhead_ratio", r);
    if !chaos {
        let tr = report.trace.as_ref().expect("trace armed");
        t.trace_records.push(tr.len() as u64);
        t.trace_dropped.push(tr.dropped());
    }
    spans::span("trace.chrome_render", probe.id, || {
        apir_trace::chrome_trace(&report)
    });
    let (r, _) = probes::overhead(
        probe,
        "probe.timeline",
        3,
        |c| {
            quiet(c);
            c.timeline_window = TIMELINE_WINDOW;
            c.timeline_capacity = TIMELINE_CAP;
        },
        quiet,
    );
    m.insert("timeline.overhead_ratio", r);

    // Single layers driven on their own with the workload's graph.
    let sssp = probes::sssp_app(plan.jobs());
    let budget = Duration::from_millis(300);
    m.insert(
        "memory.tick_ns",
        probes::memory_tick_ns(&sssp.app, &sssp.cfg, budget),
    );
    m.insert(
        "queue.push_pop_ns",
        probes::queue_push_pop_ns(&sssp.app, &sssp.cfg, budget),
    );
    m.insert(
        "rules.tick_ns",
        probes::rules_tick_ns(&sssp.app, &sssp.cfg, budget),
    );

    // Campaign dispatch: the sweep's own campaigns, else a tiny one.
    if !matches!(plan, Plan::Sweep(..)) {
        let probe_plan = probes::campaign_probe_plan(seed);
        let cells = apir_campaign::expand(&probe_plan).len() as f64;
        for _ in 0..2 {
            let mut rate = |threads| {
                let (s, d) = spans::timed("campaign.run", threads as u64, || {
                    apir_campaign::run_campaign(
                        &probe_plan,
                        threads,
                        apir_campaign::DEFAULT_INFLIGHT,
                        |_| {},
                    )
                });
                if s.failed > 0 {
                    t.failed += s.failed;
                    t.violation(format!("campaign probe: {} failed cells", s.failed));
                }
                t.attempted += s.jobs;
                (s, cells / d.as_secs_f64())
            };
            let (_, one) = rate(1);
            let (s, many) = rate(workloads::nproc());
            t.steals.push(s.steals as f64);
            t.peak_inflight.push(s.peak_inflight as f64);
            t.campaign_rates.push((one, many));
        }
    }
    let n = workloads::nproc() as f64;
    let eff: Vec<f64> = t
        .campaign_rates
        .iter()
        .map(|(one, many)| many / (n * one))
        .collect();
    m.insert("campaign.parallel_efficiency", median(&eff));
    m.insert("campaign.steals", median(&t.steals));
    m.insert("campaign.peak_inflight", median(&t.peak_inflight));

    // Host ns per cycle of every app: the workload's own runs, or a
    // tiny-scale probe for apps it does not run.
    for app in catalog::APPS {
        let v = match t.run_seconds(|s| s.app == app) {
            (s, cycles) if cycles > 0 => s * 1e9 / cycles as f64,
            _ => spans::span("probe.ns_per_cycle", 0, || probes::tiny_ns_per_cycle(app)),
        };
        m.insert(per_app_key(app), v);
    }
    spans::set_enabled(false);

    let spans = spans::take();
    let by = durations(&spans);
    let med = |name: &str| by.get(name).map_or(f64::NAN, |v| median(v));
    for (metric, span) in [
        ("workloads.gen_s", "workloads.gen"),
        ("apps.build_s", "apps.build"),
        ("synth.synthesize_s", "synth.synthesize"),
        ("check.lint_s", "check.lint"),
        ("check.analyze_s", "check.analyze"),
        ("fabric.new_s", "fabric.new"),
        ("snapshot.take_s", "snapshot.take"),
        ("snapshot.render_s", "snapshot.render"),
        ("json.parse_s", "json.parse"),
        ("snapshot.restore_s", "fabric.restore"),
        ("report.to_json_s", "export.to_json"),
        ("trace.chrome_render_s", "trace.chrome_render"),
        ("campaign.record_s", "campaign.record"),
    ] {
        m.insert(metric, med(span));
    }
    let bytes = median(&t.snapshot_bytes);
    m.insert("snapshot.bytes", bytes);
    m.insert("json.parse_mb_per_s", bytes / med("json.parse") / 1e6);

    let mut own: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(spans::self_ns(&spans)) {
        *own.entry(catalog::span_group(s.name)).or_default() += ns as f64 / 1e9;
    }
    for g in catalog::SPAN_GROUPS {
        m.insert(self_key(g), own.get(g).copied().unwrap_or(0.0));
    }

    let windows: Vec<f64> = t
        .windows
        .iter()
        .filter(|(_, c)| *c >= jobs::SLICE_CYCLES / 2)
        .map(|(d, c)| d.as_nanos() as f64 / *c as f64)
        .collect();
    m.insert("fabric.window_ns_per_cycle.p50", median(&windows));
    m.insert("fabric.window_ns_per_cycle.max", quantile(&windows, 1.0));

    let c = &t.totals();
    let stage = c.stage_cycles() as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.insert("fabric.stage_cycles", stage);
    m.insert("fabric.busy_ratio", ratio(c.busy, c.stage_cycles()));
    m.insert("fabric.idle_ratio", ratio(c.idle, c.stage_cycles()));
    m.insert(
        "fabric.ns_per_stage_cycle",
        t.run_seconds(|_| true).0 * 1e9 / stage,
    );
    m.insert(
        "mem.hit_ratio",
        ratio(c.mem_hits, c.mem_hits + c.mem_misses),
    );
    m.insert("mem.misses", c.mem_misses as f64);
    m.insert("mem.qpi_bytes", c.mem_qpi_bytes as f64);
    let cause = |s: apir_sim::stats::StallCause| c.stall_causes[s as usize];
    use apir_sim::stats::StallCause as S;
    let memory = [S::MshrFull, S::Bandwidth, S::MissOutstanding];
    m.insert(
        "fabric.stall.mshr_full_share",
        ratio(cause(S::MshrFull), c.stall),
    );
    m.insert(
        "fabric.stall.bandwidth_share",
        ratio(cause(S::Bandwidth), c.stall),
    );
    m.insert(
        "fabric.stall.miss_outstanding_share",
        ratio(cause(S::MissOutstanding), c.stall),
    );
    let mem_stall: u64 = memory.iter().map(|&s| cause(s)).sum();
    m.insert(
        "fabric.stall.other_share",
        ratio(c.stall.saturating_sub(mem_stall), c.stall),
    );
    m.insert("queue.pushed", c.queue_pushed as f64);
    m.insert("queue.peak", c.queue_peak as f64);
    m.insert("rules.allocs", c.rule_allocs as f64);
    m.insert("rules.alloc_stalls", c.rule_alloc_stalls as f64);
    m.insert("rules.squash_ratio", ratio(c.squashes, c.retired));
    m.insert("fault.link_dropped", c.faults.link_dropped as f64);
    m.insert("fault.link_retried", c.faults.link_retried as f64);
    m.insert("rollback.count", c.rollbacks as f64);
    m.insert("rollback.replayed_ratio", ratio(c.replayed, c.cycles));
    let recs: Vec<f64> = t.trace_records.iter().map(|&v| v as f64).collect();
    let drops: Vec<f64> = t.trace_dropped.iter().map(|&v| v as f64).collect();
    m.insert("trace.records", median(&recs));
    m.insert("trace.dropped", median(&drops));

    t.calibrate();
    write_spans(workload, seed, &spans);
    m
}

fn per_app_key(app: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|l| l.name)
        .find(|n| n.strip_prefix("fabric.ns_per_cycle.") == Some(app))
        .expect("every app has a ns_per_cycle metric")
}

fn self_key(group: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|l| l.name)
        .find(|n| n.strip_prefix("self.").and_then(|g| g.strip_suffix("_s")) == Some(group))
        .expect("every span group has a self metric")
}

/// Writes the traced run's spans under `.perfbench-out/`.
fn write_spans(workload: &str, seed: u64, spans: &[spans::Span]) {
    let dir = std::path::Path::new(".perfbench-out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::render_jsonl(spans)));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: apir-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(&args.workload, args.seed);
    let mut t = Tally::default();
    let metrics = if args.trace {
        traced(&plan, args.seed, &args.workload, &mut t)
    } else {
        untraced(&plan, args.seconds, &mut t)
    };
    // (name, unit, note for the human-readable table on stderr)
    let expected: Vec<(&str, &str, String)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|l| {
                let exact = if l.exact { ", exact" } else { "" };
                (
                    l.name,
                    l.unit,
                    format!("{} is better{exact}; moves {}", l.better, l.moves),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|e| {
                (
                    e.name,
                    e.unit,
                    format!("{} is better; bound {}", e.better, e.bound),
                )
            })
            .collect()
    };
    // Host times in nominal-host seconds (see `calib`): the untraced
    // samples were converted pass by pass (`Tally::calibrate`), the
    // traced mode's are scaled by the speed factor of the whole run.
    let run_speed = median(&t.host_ref) / calib::NOMINAL_KERNEL_S;
    eprintln!(
        "perfbench: reference kernel {:.2} ms (median of {}), nominal {:.2} ms: host speed factor {run_speed:.4}",
        run_speed * calib::NOMINAL_KERNEL_S * 1e3,
        t.host_ref.len(),
        calib::NOMINAL_KERNEL_S * 1e3
    );
    let speed = if t.local { 1.0 } else { run_speed };
    let mut body = Vec::new();
    for (name, unit, note) in expected {
        let raw = metrics.get(name).copied().unwrap_or(f64::NAN);
        let v = match unit {
            "s" | "ns" => raw / speed,
            "MB/s" | "Mcycles/s" | "1/s" => raw * speed,
            _ => raw,
        };
        if !v.is_finite() {
            t.violation(format!("metric {name} was not measured"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        eprintln!("  {name:<38} {v:>14.6} {unit:<10} {note}");
        body.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    let correct = t.violations.is_empty() && t.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted.max(1),
        t.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
