//! Differential gate for the event-wheel scheduler.
//!
//! `FabricConfig::dense_tick` keeps the original dense per-cycle loop,
//! which visits every pipeline stage on every cycle, available as an
//! oracle. The event wheel, which skips quiescent stretches, and the
//! per-pipeline active sets, which skip idle stages, must execute
//! *identical* cycle-accurate semantics — every counter, histogram,
//! fault draw, trace record and retirement byte-identical — and only
//! change wall-clock time. These tests run every builtin app fault-free
//! and under the pinned chaos campaigns with both schedulers and
//! compare:
//!
//! 1. the full deterministic JSON report (`to_json` — counters,
//!    utilization, metrics snapshot, fault totals),
//! 2. the typed fault mix,
//! 3. the complete `(cycle, task_set)` retirement log,
//! 4. every record of the event trace, in order.
//!
//! A regression test also pins the `fault_window == 1` schedule: the
//! old `now % fw == 1` predicate never fired for a one-cycle window
//! (no cycle satisfies `now % 1 == 1`), so maximum-pressure campaigns
//! silently injected nothing.

use apir::bench::experiments::{scale_cache, synthesized_cfg};
use apir::bench::scale::{build_app, APP_NAMES};
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricConfig, FabricReport, FaultConfig, RunSplit};

/// The synthesized + tuned fault-free configuration, recording
/// retirements so the schedule itself is compared, not just totals.
fn tuned_cfg(name: &str, app: &apir::apps::AppInstance) -> FabricConfig {
    let mut cfg = synthesized_cfg(name, Scale::Tiny);
    scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    cfg.record_retirements = true;
    // Arm the windowed timeline so the equivalence gate also covers the
    // wheel's O(1) replay of skipped stretches (the `timeline` block is
    // part of `to_json`, so any divergence fails the byte comparison),
    // along with the replayed stall-cause attribution counters.
    cfg.timeline_window = 32;
    cfg.timeline_capacity = 256;
    // Arm the trace ring, large enough that no record is dropped, so the
    // gate also compares every stage's busy/stall/idle transitions.
    cfg.trace_capacity = TRACE_CAP;
    cfg
}

/// Trace ring capacity: holds every record of a tiny-scale run.
const TRACE_CAP: usize = 1 << 20;

/// Same pinned chaos campaign seeds as `tests/chaos.rs`.
const CAMPAIGNS: [(&str, [u64; 3]); 6] = [
    ("SPEC-BFS", [1, 2, 3]),
    ("COOR-BFS", [1, 2, 3]),
    ("SPEC-SSSP", [1, 2, 3]),
    ("SPEC-MST", [1, 2, 4]),
    ("SPEC-DMR", [1, 2, 3]),
    ("COOR-LU", [1, 2, 3]),
];

fn run(name: &str, app: &apir::apps::AppInstance, cfg: FabricConfig) -> FabricReport {
    Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{name}: run failed: {e}"))
}

/// Runs one config under both schedulers and asserts full equivalence.
fn assert_schedulers_agree(name: &str, app: &apir::apps::AppInstance, cfg: FabricConfig, tag: &str) {
    let mut dense_cfg = cfg.clone();
    dense_cfg.dense_tick = true;
    let mut wheel_cfg = cfg;
    wheel_cfg.dense_tick = false;
    let dense = run(name, app, dense_cfg);
    let wheel = run(name, app, wheel_cfg);
    assert_eq!(
        dense.to_json(),
        wheel.to_json(),
        "{name} {tag}: dense and wheel reports diverged"
    );
    assert_eq!(
        dense.faults, wheel.faults,
        "{name} {tag}: fault mixes diverged"
    );
    assert_eq!(
        dense.retirements, wheel.retirements,
        "{name} {tag}: retirement schedules diverged"
    );
    assert_eq!(
        dense.mem_image, wheel.mem_image,
        "{name} {tag}: final memory images diverged"
    );
    let records = |r: &FabricReport| {
        let tr = r.trace.as_ref().expect("trace armed");
        assert_eq!(tr.dropped(), 0, "{name} {tag}: trace ring overflowed");
        tr.records().copied().collect::<Vec<_>>()
    };
    assert_eq!(
        records(&dense),
        records(&wheel),
        "{name} {tag}: trace records diverged"
    );
}

#[test]
fn dense_and_wheel_agree_fault_free() {
    for name in APP_NAMES {
        let app = build_app(name, Scale::Tiny);
        let cfg = tuned_cfg(name, &app);
        assert_schedulers_agree(name, &app, cfg, "fault-free");
    }
}

#[test]
fn dense_and_wheel_agree_under_chaos() {
    for (name, seeds) in CAMPAIGNS {
        let app = build_app(name, Scale::Tiny);
        for seed in seeds {
            let mut cfg = tuned_cfg(name, &app);
            cfg.faults = FaultConfig::chaos(seed);
            assert_schedulers_agree(name, &app, cfg, &format!("chaos seed {seed}"));
        }
    }
}

/// Pauses a run at `at` (or, for the wheel, at the first cycle past a
/// quiescent jump) and returns the paused cycle and snapshot text.
fn snapshot_at(app: &apir::apps::AppInstance, cfg: FabricConfig, at: u64) -> Option<(u64, String)> {
    match Fabric::new(&app.spec, &app.input, cfg).run_until(at).ok()? {
        RunSplit::Done(_) => None,
        RunSplit::Paused(f) => Some((f.snapshot().get("cycle")?.as_u64()?, f.snapshot().render())),
    }
}

#[test]
fn dense_and_wheel_snapshots_agree_mid_run() {
    // The whole mutable state, not just the final report, must match at
    // the same cycle: response queues drained on the same cycle, the
    // same stage trackers and last activities, the same trace ring.
    for (name, seeds) in CAMPAIGNS {
        let app = build_app(name, Scale::Tiny);
        for fault_seed in [None, Some(seeds[0])] {
            let mut cfg = tuned_cfg(name, &app);
            if let Some(seed) = fault_seed {
                cfg.faults = FaultConfig::chaos(seed);
            }
            let cycles = run(name, &app, cfg.clone()).cycles;
            for at in [cycles / 3, cycles / 2, cycles - cycles / 4] {
                let Some((c, wheel)) = snapshot_at(&app, cfg.clone(), at) else {
                    continue;
                };
                let mut dense_cfg = cfg.clone();
                dense_cfg.dense_tick = true;
                let (dc, dense) = snapshot_at(&app, dense_cfg, c).expect("dense pauses too");
                assert_eq!(dc, c, "{name}: the dense loop pauses exactly on its target");
                assert!(
                    wheel == dense,
                    "{name} (faults {fault_seed:?}): snapshots at cycle {c} diverged"
                );
            }
        }
    }
}

#[test]
fn fault_window_one_injects_faults() {
    // Regression for the off-by-one: with `fault_window == 1` the trial
    // predicate is `now % 1 == 1 % 1`, true every cycle — the old
    // `now % 1 == 1` comparison was never true, so a maximum-pressure
    // campaign ran fault-free without saying so.
    let name = "SPEC-BFS";
    let app = build_app(name, Scale::Tiny);
    let mut cfg = tuned_cfg(name, &app);
    cfg.faults = FaultConfig::chaos(1);
    cfg.faults.fault_window = 1;
    let report = run(name, &app, cfg.clone());
    let f = &report.faults;
    assert!(
        f.lanes_masked + f.banks_masked > 0,
        "window-1 campaign must inject structural faults, got {f:?}"
    );
    // Per-cycle trials hit the masking refusal limits (half the lanes /
    // banks stay in service) long before quiescence; pin the saturated
    // schedule so a future predicate regression is caught exactly.
    assert!(
        f.lanes_masked >= f.banks_masked,
        "lane trials run per engine per window: {f:?}"
    );
    // And the run still recovers: graceful degradation, not collapse.
    (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: {e}"));
    // The schedule is identical under both schedulers.
    assert_schedulers_agree(name, &app, cfg, "fault_window=1");
}

#[test]
fn fault_window_schedule_is_pinned() {
    // Pin the exact structural-fault counts for the window-1 campaign:
    // any change to the trial predicate, the RNG draw order, or the
    // wheel's fault-window wake times shows up here first.
    let name = "SPEC-BFS";
    let app = build_app(name, Scale::Tiny);
    let mut cfg = tuned_cfg(name, &app);
    cfg.faults = FaultConfig::chaos(1);
    cfg.faults.fault_window = 1;
    let with_one = run(name, &app, cfg).faults;

    let mut cfg16 = tuned_cfg(name, &app);
    cfg16.faults = FaultConfig::chaos(1);
    assert_eq!(cfg16.faults.fault_window, 16, "chaos preset window");
    let with_sixteen = run(name, &app, cfg16).faults;

    // Both campaigns run long enough to hit the half-resources masking
    // refusal cap, so the structural counts are stable — pin them.
    // Before the fix, `with_one` masked exactly zero of each.
    assert_eq!(with_one.lanes_masked, 32, "window-1 schedule drifted: {with_one:?}");
    assert_eq!(with_one.banks_masked, 4, "window-1 schedule drifted: {with_one:?}");
    // Per-cycle trials can never inject less than 16-cycle windows.
    assert!(
        with_one.lanes_masked + with_one.banks_masked
            >= with_sixteen.lanes_masked + with_sixteen.banks_masked,
        "per-cycle trials must not under-inject windowed trials: {with_one:?} vs {with_sixteen:?}"
    );
}

/// Wall-clock probe backing the README performance table. Run with
/// `cargo test --release --test scheduler_equiv probe -- --ignored --nocapture`.
#[test]
#[ignore]
fn probe_scheduler_wall_time() {
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>8}",
        "app", "cycles", "dense ms", "wheel ms", "speedup"
    );
    for name in APP_NAMES {
        let app = build_app(name, Scale::Tiny);
        let mut dense_cfg = tuned_cfg(name, &app);
        dense_cfg.record_retirements = false;
        dense_cfg.trace_capacity = 0;
        dense_cfg.dense_tick = true;
        let mut wheel_cfg = dense_cfg.clone();
        wheel_cfg.dense_tick = false;
        let t0 = std::time::Instant::now();
        let d = run(name, &app, dense_cfg);
        let dense_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let w = run(name, &app, wheel_cfg);
        let wheel_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(d.cycles, w.cycles);
        println!(
            "{:<10} {:>10} {:>12.2} {:>12.2} {:>7.1}x",
            name,
            w.cycles,
            dense_ms,
            wheel_ms,
            dense_ms / wheel_ms
        );
    }
}
