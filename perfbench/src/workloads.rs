//! The three workloads: their job lists (made from the workload seed)
//! and one measured pass over each list.

use crate::jobs::{self, execute, setup, Counters, Done, Gen, JobSpec, Knobs, Windows};
use crate::spans::{span, timed};
use crate::stats::median;
use apir_bench::Scale;
use apir_campaign::{
    expand, parse_plan, run_campaign, CampaignPlan, ConfigVariant, DEFAULT_INFLIGHT,
};
use apir_fabric::{Fabric, FabricReport, RunSplit};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64 step: derives independent input seeds from the workload
/// seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded road graphs per BFS variant on `road-medium`.
pub const ROAD_BFS_GRAPHS: u64 = 8;
/// Fault seeds per pass on `chaos-restore`.
pub const CHAOS_SEEDS: u64 = 8;

/// `road-medium`: SPEC-SSSP on `build_app`'s side-40 road network, and
/// SPEC-BFS and COOR-BFS on seeded side-48 ones (the medium sizes of
/// `apir_bench::scale`); fault-free, nothing armed. SPEC-SSSP's graph
/// stays fixed: its cycle count moves by ±17% between seeded graphs,
/// which would swamp every host time of the workload.
pub fn road_jobs(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let mut push = |app: &'static str, gen: Gen, input_seed: u64| {
        let mut knobs = Knobs::default();
        knobs.variant.id = "road".into();
        let id = jobs.len() as u64;
        jobs.push(JobSpec::new(id, app, gen, knobs, input_seed, Scale::Medium));
    };
    push("SPEC-SSSP", Gen::builtin("SPEC-SSSP", Scale::Medium), 0);
    for g in 0..ROAD_BFS_GRAPHS {
        let s = derive(seed, 101 + g);
        push(
            "SPEC-BFS",
            Gen::Road {
                side: 48,
                max_w: 8,
                seed: s,
            },
            s,
        );
        push(
            "COOR-BFS",
            Gen::Road {
                side: 48,
                max_w: 8,
                seed: s,
            },
            s,
        );
    }
    jobs
}

/// `sweep-small`: a Fig.-10 QPI-bandwidth sweep plus chaos cells over
/// all six apps at small scale, and SPEC-MST at tiny scale (where the
/// event wheel skips most cycles). Fault seeds come from the workload
/// seed; the cells' inputs are `build_app`'s fixed ones.
pub fn sweep_plans(seed: u64) -> Vec<CampaignPlan> {
    let s = derive(seed, 201) >> 12;
    let small = format!(
        r#"{{"schema":"apir.campaign.plan.v1","scale":"small",
            "apps":["SPEC-BFS","COOR-BFS","SPEC-SSSP","SPEC-MST","SPEC-DMR","COOR-LU"],
            "seeds":[{s}],
            "configs":[
              {{"id":"qpi-1x","qpi_gbps":7.0,"max_inflight_misses":32}},
              {{"id":"qpi-2x","qpi_gbps":14.0,"max_inflight_misses":64}},
              {{"id":"qpi-4x","qpi_gbps":28.0,"max_inflight_misses":128}},
              {{"id":"chaos","chaos":true,"retries":3}}]}}"#
    );
    let tiny = format!(
        r#"{{"schema":"apir.campaign.plan.v1","scale":"tiny",
            "apps":["SPEC-MST"],"seeds":[{s}],"configs":[{{"id":"wheel"}}]}}"#
    );
    [small, tiny]
        .iter()
        .map(|text| parse_plan(text).expect("the sweep plans are valid"))
        .collect()
}

/// The campaign cells of `plans` as benchmark jobs, in merge-key order.
pub fn sweep_jobs(plans: &[CampaignPlan]) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for plan in plans {
        for cell in expand(plan) {
            let app = jobs::app_name(&cell.app);
            let knobs = Knobs {
                variant: cell.config.clone(),
                ..Knobs::default()
            };
            let id = jobs.len() as u64;
            jobs.push(JobSpec::new(
                id,
                app,
                Gen::builtin(app, cell.scale),
                knobs,
                cell.seed,
                cell.scale,
            ));
        }
    }
    jobs
}

/// `chaos-restore`: SPEC-SSSP at small scale under seeded chaos faults
/// with rollback recovery, trace ring and timeline armed.
pub fn chaos_jobs(seed: u64) -> Vec<JobSpec> {
    (0..CHAOS_SEEDS)
        .map(|i| {
            let knobs = Knobs {
                variant: ConfigVariant {
                    id: "chaos-restore".into(),
                    chaos: true,
                    ..ConfigVariant::default()
                },
                recovery: true,
                observe: true,
            };
            let fault_seed = derive(seed, 301 + i) >> 12;
            JobSpec::new(
                i,
                "SPEC-SSSP",
                Gen::builtin("SPEC-SSSP", Scale::Small),
                knobs,
                fault_seed,
                Scale::Small,
            )
        })
        .collect()
}

/// One job's samples across passes, and what must repeat between them.
pub struct JobSamples {
    pub app: &'static str,
    pub counters: Counters,
    pub record: String,
    /// Completion seconds (setup + run + check + record), per pass.
    pub total: Vec<f64>,
    /// Seconds inside the fabric's run calls, per pass.
    pub run: Vec<f64>,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Tally {
    /// Per-job setup seconds (generation through `Fabric::new`).
    pub setup: Vec<f64>,
    /// Samples of each job, by key.
    pub jobs: BTreeMap<String, JobSamples>,
    /// Seconds per pass over the job list, one job at a time.
    pub list_wall: Vec<f64>,
    /// Seconds per campaign pass (`sweep-small`).
    pub campaign_wall: Vec<f64>,
    /// Parse + restore seconds per snapshot round trip.
    pub restore: Vec<f64>,
    /// Seconds per run of the host-speed reference kernel.
    pub host_ref: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub windows: Windows,
    /// Campaign dispatch statistics from the nproc-thread passes.
    pub steals: Vec<f64>,
    pub peak_inflight: Vec<f64>,
    /// (jobs/s at 1 thread, jobs/s at nproc threads) pairs.
    pub campaign_rates: Vec<(f64, f64)>,
    /// Snapshot sizes in bytes.
    pub snapshot_bytes: Vec<f64>,
    /// Trace ring records retained and dropped, per observed run.
    pub trace_records: Vec<u64>,
    pub trace_dropped: Vec<u64>,
    passes: u64,
    /// Whether `calibrate` converts host times to nominal-host seconds.
    pub local: bool,
    /// The previous `calibrate`'s kernel samples.
    last_ref: Vec<f64>,
    /// Lengths of the host-time sample lists at the previous `calibrate`.
    marks: Marks,
}

/// Where the host-time samples since the last calibration start.
#[derive(Default)]
struct Marks {
    setup: usize,
    list_wall: usize,
    campaign_wall: usize,
    restore: usize,
    /// (total, run) per job key.
    jobs: BTreeMap<String, (usize, usize)>,
}

/// Multiplies the samples from `from` on by `f`.
fn scale_from(v: &mut [f64], from: usize, f: f64) {
    for x in v.iter_mut().skip(from) {
        *x *= f;
    }
}

impl Tally {
    /// Times the host-speed reference kernel a few times. With `local`
    /// set, the host times recorded since the previous call (one pass,
    /// between two calls) are converted to nominal-host seconds with the
    /// kernel samples of both calls: the host's speed drifts within a
    /// run too, and a slow spell during one pass then moves only that
    /// pass's samples by what it slowed the kernel.
    pub fn calibrate(&mut self) {
        let now = crate::calib::samples(4);
        if self.local {
            let near: Vec<f64> = self.last_ref.iter().chain(&now).copied().collect();
            let f = crate::calib::NOMINAL_KERNEL_S / median(&near);
            let m = &self.marks;
            scale_from(&mut self.setup, m.setup, f);
            scale_from(&mut self.list_wall, m.list_wall, f);
            scale_from(&mut self.campaign_wall, m.campaign_wall, f);
            scale_from(&mut self.restore, m.restore, f);
            for (k, s) in &mut self.jobs {
                let (total, run) = m.jobs.get(k).copied().unwrap_or_default();
                scale_from(&mut s.total, total, f);
                scale_from(&mut s.run, run, f);
            }
        }
        self.marks = Marks {
            setup: self.setup.len(),
            list_wall: self.list_wall.len(),
            campaign_wall: self.campaign_wall.len(),
            restore: self.restore.len(),
            jobs: self
                .jobs
                .iter()
                .map(|(k, s)| (k.clone(), (s.total.len(), s.run.len())))
                .collect(),
        };
        self.host_ref.extend(&now);
        self.last_ref = now;
    }

    /// Drops the host-time samples taken so far (a warm-up pass), keeping
    /// what later samples are checked against.
    pub fn discard_samples(&mut self) {
        self.setup.clear();
        self.list_wall.clear();
        self.campaign_wall.clear();
        self.restore.clear();
        for s in self.jobs.values_mut() {
            s.total.clear();
            s.run.clear();
        }
        self.marks = Marks::default();
    }

    pub fn violation(&mut self, msg: String) {
        eprintln!("perfbench: VIOLATION: {msg}");
        self.violations.push(msg);
    }

    /// Books one finished job and checks that its exact counters and
    /// result record repeat every earlier sample of the same key.
    pub fn job_done(&mut self, key: String, app: &'static str, d: &Done) {
        self.attempted += 1;
        self.setup.push(d.setup.as_secs_f64());
        if let Some(t) = &d.report.trace {
            self.trace_records.push(t.len() as u64);
            self.trace_dropped.push(t.dropped());
        }
        let s = self.jobs.entry(key.clone()).or_insert_with(|| JobSamples {
            app,
            counters: d.counters.clone(),
            record: d.record.clone(),
            total: Vec::new(),
            run: Vec::new(),
        });
        s.total.push(d.total.as_secs_f64());
        s.run.push(d.run.as_secs_f64());
        let differs = if s.counters != d.counters {
            Some("exact counters")
        } else if s.record != d.record {
            Some("result record")
        } else {
            None
        };
        if let Some(what) = differs {
            self.failed += 1;
            self.violation(format!("{key}: {what} differ between samples"));
        }
    }

    /// A job whose every attempt failed.
    pub fn job_failed(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.violation(msg);
    }

    pub fn record_of(&self, key: &str) -> Option<&str> {
        self.jobs.get(key).map(|s| s.record.as_str())
    }

    pub fn cycles_of(&self, key: &str) -> Option<u64> {
        self.jobs.get(key).map(|s| s.counters.cycles)
    }

    /// Every job completion sample.
    pub fn job_times(&self) -> Vec<f64> {
        self.jobs
            .values()
            .flat_map(|s| s.total.iter().copied())
            .collect()
    }

    /// Seconds for one pass over the job list: the sum of each job's
    /// median completion time, so a burst of host noise during one pass
    /// moves a single sample of the jobs it hit, not the estimate.
    pub fn list_seconds(&self) -> f64 {
        self.jobs.values().map(|s| median(&s.total)).sum()
    }

    /// Median seconds inside run calls, summed over `jobs` matching the
    /// filter, with the cycles they simulated.
    pub fn run_seconds(&self, keep: impl Fn(&JobSamples) -> bool) -> (f64, u64) {
        self.jobs
            .values()
            .filter(|s| keep(s))
            .fold((0.0, 0), |(t, c), s| {
                (t + median(&s.run), c + s.counters.cycles)
            })
    }

    /// Exact counters summed over the job list.
    pub fn totals(&self) -> Counters {
        let mut c = Counters::default();
        for s in self.jobs.values() {
            c.add(&s.counters);
        }
        c
    }

    pub fn passes(&self) -> u64 {
        self.passes
    }
}

fn key(job: &JobSpec) -> String {
    format!("{}#{}", job.cell.key(), job.id)
}

/// One pass over a list of independent jobs (`road-medium`; the
/// decomposed, one-thread half of a `sweep-small` round).
pub fn plain_pass(jobs: &[JobSpec], traced: bool, t: &mut Tally) {
    let t0 = Instant::now();
    for job in jobs {
        match execute(job, traced, &mut t.windows) {
            Ok(d) => t.job_done(key(job), job.app, &d),
            Err(e) => t.job_failed(e),
        }
    }
    t.list_wall.push(t0.elapsed().as_secs_f64());
    t.passes += 1;
}

/// Reruns `job` up to cycle `at`, snapshots it and renders the snapshot
/// text. Returns the text and the host seconds spent simulating up to
/// the pause.
fn snapshot_at(
    job: &JobSpec,
    at: u64,
    traced: bool,
) -> Result<(jobs::Built, String, Duration), String> {
    let (built, fabric) = setup(job, 0, traced);
    let (split, d) = timed("fabric.run_until", job.id, || fabric.run_until(at));
    let fabric = match split {
        Ok(RunSplit::Paused(f)) => f,
        Ok(RunSplit::Done(_)) => return Err(format!("{}: finished before cycle {at}", key(job))),
        Err(e) => return Err(format!("{}: run to the snapshot failed: {e}", key(job))),
    };
    let doc = span("snapshot.take", job.id, || fabric.snapshot());
    let paused_at = doc.get("cycle").and_then(|c| c.as_u64());
    if paused_at != Some(at) {
        return Err(format!(
            "{}: run_until({at}) paused at cycle {paused_at:?}",
            key(job)
        ));
    }
    let text = span("snapshot.render", job.id, || doc.render());
    Ok((built, text, d))
}

/// The cycle of the mid-run snapshot on `chaos-restore`: the rollback
/// checkpoint nearest the middle of the run (the resume cycle of one of
/// its rollbacks), or the middle itself when no rollback fired. A
/// snapshot does not carry the fabric's in-memory rollback checkpoint: a
/// restored fabric checkpoints afresh at the restore cycle. So a run
/// restored off the checkpoint schedule rolls back to other cycles than
/// the uninterrupted one; restoring on a checkpoint the run took keeps
/// both schedules the same.
fn checkpoint_mid(d: &Done) -> u64 {
    let mid = (d.counters.cycles / 2).max(1);
    d.report
        .rollbacks
        .iter()
        .flat_map(|r| r.events.iter().map(|&(_, resume)| resume))
        .filter(|&c| c > 0)
        .min_by_key(|&c| c.abs_diff(mid))
        .unwrap_or(mid)
}

/// Parse + restore: snapshot text to a restored, ready fabric.
fn restore(built: &jobs::Built, text: &str, job: u64) -> Result<(Fabric, Duration), String> {
    let (fabric, d) = timed("restore", job, || -> Result<Fabric, String> {
        let doc = span("json.parse", job, || apir_util::json::parse(text))
            .map_err(|e| format!("snapshot text does not parse: {e}"))?;
        span("fabric.restore", job, || {
            Fabric::restore(&built.app.spec, &built.app.input, built.cfg.clone(), &doc)
        })
    });
    Ok((fabric?, d))
}

/// Finishes a fabric restored at cycle `from` and renders its result
/// record.
fn finish(
    job: &JobSpec,
    built: &jobs::Built,
    fabric: Fabric,
    from: u64,
    traced: bool,
    t: &mut Tally,
) -> Result<(FabricReport, String, Duration), String> {
    let (outcome, d) = jobs::run(fabric, from, job.id, traced, &mut t.windows);
    let report = outcome.map_err(|e| format!("{}: resumed run failed: {e}", key(job)))?;
    span("app.check", job.id, || (built.app.check)(&report.mem_image))
        .map_err(|e| format!("{}: resumed image rejected: {e}", key(job)))?;
    let outcome = Ok(report);
    let record = span("campaign.record", job.id, || {
        apir_campaign::record(&job.cell, &outcome).render()
    });
    let Ok(report) = outcome else {
        unreachable!("built as Ok")
    };
    Ok((report, record, d))
}

/// A snapshot of one job, taken mid-run outside the timed passes, for
/// parse + restore samples between passes.
pub struct RestoreProbe {
    job: JobSpec,
    built: jobs::Built,
    text: String,
    at: u64,
    last: Option<Fabric>,
}

impl RestoreProbe {
    /// Reruns `job` (which must have finished once) to the middle of its
    /// run and snapshots it.
    pub fn new(job: &JobSpec, traced: bool, t: &mut Tally) -> Option<RestoreProbe> {
        let k = key(job);
        let Some(cycles) = t.cycles_of(&k) else {
            t.failed += 1;
            t.violation(format!("{k}: no finished sample to snapshot"));
            return None;
        };
        let at = (cycles / 2).max(1);
        match snapshot_at(job, at, traced) {
            Ok((built, text, _)) => {
                t.snapshot_bytes.push(text.len() as f64);
                Some(RestoreProbe {
                    job: job.clone(),
                    built,
                    text,
                    at,
                    last: None,
                })
            }
            Err(e) => {
                t.failed += 1;
                t.violation(e);
                None
            }
        }
    }

    /// One parse + restore sample.
    pub fn sample(&mut self, t: &mut Tally) {
        match restore(&self.built, &self.text, self.job.id) {
            Ok((fabric, d)) => {
                t.restore.push(d.as_secs_f64());
                self.last = Some(fabric);
            }
            Err(e) => {
                t.failed += 1;
                t.violation(e);
            }
        }
    }

    /// Runs the last restored fabric to the end: it must reproduce the
    /// job's uninterrupted record byte for byte.
    pub fn finish(self, traced: bool, t: &mut Tally) {
        let Some(fabric) = self.last else { return };
        let k = key(&self.job);
        let reference = t.record_of(&k).map(str::to_string);
        let verdict = match finish(&self.job, &self.built, fabric, self.at, traced, t) {
            Ok((_, record, _)) if Some(&record) == reference.as_ref() => return,
            Ok(_) => format!("{k}: restored run differs from the uninterrupted run"),
            Err(e) => e,
        };
        t.failed += 1;
        t.violation(verdict);
    }
}

/// One `chaos-restore` pass: for each fault seed, the uninterrupted run,
/// then the same run paused mid-way on one of its rollback checkpoints,
/// snapshotted, rendered, parsed, restored and finished — its report
/// must equal the uninterrupted one byte for byte.
pub fn chaos_pass(jobs: &[JobSpec], traced: bool, t: &mut Tally) {
    let t0 = Instant::now();
    let mut rollbacks = 0;
    for job in jobs {
        let d = match execute(job, traced, &mut t.windows) {
            Ok(d) => d,
            Err(e) => {
                t.job_failed(e);
                continue;
            }
        };
        rollbacks += d.counters.rollbacks;
        let uninterrupted = d.record.clone();
        t.job_done(key(job), job.app, &d);
        let split = timed("job", job.id, || -> Result<Done, String> {
            let at = checkpoint_mid(&d);
            let (built, text, before) = snapshot_at(job, at, traced)?;
            let setup = built.setup;
            let (fabric, restore_d) = restore(&built, &text, job.id)?;
            let (report, record, after) = finish(job, &built, fabric, at, traced, t)?;
            t.restore.push(restore_d.as_secs_f64());
            t.snapshot_bytes.push(text.len() as f64);
            if record != uninterrupted {
                return Err(format!(
                    "{}: resumed report differs from the uninterrupted report",
                    key(job)
                ));
            }
            Ok(Done {
                setup,
                run: before + after,
                total: Duration::ZERO,
                counters: Counters::of(&report),
                record,
                report,
            })
        });
        match split {
            (Ok(mut resumed), total) => {
                resumed.total = total;
                t.job_done(format!("{}/resumed", key(job)), job.app, &resumed);
            }
            (Err(e), _) => t.job_failed(e),
        }
    }
    if rollbacks == 0 {
        t.failed += 1;
        t.violation("chaos-restore pass fired no rollback".into());
    }
    t.list_wall.push(t0.elapsed().as_secs_f64());
    t.passes += 1;
}

/// The number of worker threads the sweep's campaign runs on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the sweep's campaigns on `threads` workers. Every record must
/// be `ok` and equal, byte for byte, the record the decomposed pass
/// rendered for the same cell. Returns the wall time.
pub fn campaign_pass(
    plans: &[CampaignPlan],
    jobs: &[JobSpec],
    threads: usize,
    t: &mut Tally,
) -> Duration {
    let mut records: Vec<String> = Vec::new();
    let mut steals = 0;
    let mut peak = 0;
    let (_, wall) = timed("campaign.run", threads as u64, || {
        for plan in plans {
            let summary = run_campaign(plan, threads, DEFAULT_INFLIGHT, |r| {
                records.push(r.render())
            });
            steals += summary.steals;
            peak = peak.max(summary.peak_inflight);
        }
    });
    if threads == nproc() {
        t.steals.push(steals as f64);
        t.peak_inflight.push(peak as f64);
    }
    for (job, rec) in jobs.iter().zip(&records) {
        t.attempted += 1;
        if t.record_of(&key(job)) != Some(rec.as_str()) {
            t.failed += 1;
            t.violation(format!(
                "{}: campaign record differs from the job's own run",
                key(job)
            ));
        }
    }
    if records.len() != jobs.len() {
        t.failed += 1;
        t.violation(format!(
            "campaign returned {} records for {} cells",
            records.len(),
            jobs.len()
        ));
    }
    wall
}

/// One `sweep-small` round: the decomposed one-thread pass (per-job
/// times), then the campaign on `nproc` threads (the workload's pass:
/// wall time and throughput). The traced mode adds a one-thread
/// campaign, for the dispatcher's parallel efficiency.
pub fn sweep_round(plans: &[CampaignPlan], jobs: &[JobSpec], traced: bool, t: &mut Tally) {
    plain_pass(jobs, traced, t);
    let wall = campaign_pass(plans, jobs, nproc(), t);
    t.campaign_wall.push(wall.as_secs_f64());
    if traced {
        let one = campaign_pass(plans, jobs, 1, t);
        let n = jobs.len() as f64;
        t.campaign_rates
            .push((n / one.as_secs_f64(), n / wall.as_secs_f64()));
    }
}
