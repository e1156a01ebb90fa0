//! Restore-equivalence: snapshotting a paused fabric at cycle N and
//! resuming from the document must finish byte-identically — the same
//! `to_json()` report — as the uninterrupted run, for every builtin
//! app, fault-free and under pinned chaos seeds, on both the
//! event-wheel scheduler and the dense per-cycle oracle. This is the
//! contract that makes checkpoints trustworthy: a restored run is
//! *provably* the run it resumed.
//!
//! The trace ring and the timeline are armed, and every trace record is
//! compared too: a restore that forgot a stage's last activity would
//! lose or duplicate a busy/stall/idle transition record while every
//! counter still matched.

use apir::bench::experiments::{scale_cache, synthesized_cfg};
use apir::bench::scale::{build_app, AppInstance, APP_NAMES};
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricConfig, FabricReport, FaultConfig, RunSplit};
use apir_util::{props, Json};

fn app_cfg(name: &str, fault_seed: Option<u64>, dense: bool) -> (AppInstance, FabricConfig) {
    let app = build_app(name, Scale::Tiny);
    let mut cfg = synthesized_cfg(name, Scale::Tiny);
    if let Some(seed) = fault_seed {
        cfg.faults = FaultConfig::chaos(seed);
    }
    cfg.dense_tick = dense;
    cfg.trace_capacity = 1 << 20;
    cfg.timeline_window = 32;
    cfg.timeline_capacity = 256;
    scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    (app, cfg)
}

/// The report JSON followed by every trace record, one per line: the
/// bytes a restored run must reproduce.
fn fingerprint(report: &FabricReport) -> String {
    let tr = report.trace.as_ref().expect("trace armed");
    assert_eq!(tr.dropped(), 0, "trace ring overflowed");
    let mut out = report.to_json();
    for r in tr.records() {
        out.push_str(&format!(
            "\n{} {} {} {}",
            r.cycle, r.comp.0, r.event, r.value
        ));
    }
    out
}

/// The uninterrupted run's report JSON (and its cycle count, for
/// picking interesting split points).
fn uninterrupted(name: &str, fault_seed: Option<u64>, dense: bool) -> (String, u64) {
    let (app, cfg) = app_cfg(name, fault_seed, dense);
    let report = Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{name}: uninterrupted run failed: {e}"));
    (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: bad image: {e}"));
    (fingerprint(&report), report.cycles)
}

/// Pause at `at`, snapshot, restore into a *fresh* fabric, finish, and
/// return the report JSON. A run that completes before `at` returns its
/// report directly (split-at-N degenerates to the uninterrupted run).
fn split_at(name: &str, fault_seed: Option<u64>, dense: bool, at: u64) -> String {
    let (app, cfg) = app_cfg(name, fault_seed, dense);
    let split = Fabric::new(&app.spec, &app.input, cfg.clone())
        .run_until(at)
        .unwrap_or_else(|e| panic!("{name}: run to cycle {at} failed: {e}"));
    let report = match split {
        RunSplit::Done(report) => *report,
        RunSplit::Paused(fabric) => {
            let doc = fabric.snapshot();
            drop(fabric);
            Fabric::restore(&app.spec, &app.input, cfg, &doc)
                .unwrap_or_else(|e| panic!("{name}: restore at {at} rejected: {e}"))
                .run()
                .unwrap_or_else(|e| panic!("{name}: resumed run failed: {e}"))
        }
    };
    (app.check)(&report.mem_image)
        .unwrap_or_else(|e| panic!("{name}: resumed image is bad: {e}"));
    fingerprint(&report)
}

/// Splits the app at cycle 0 (before the first tick), at 1 (one tick
/// in), mid-run, and one cycle short of the end; each resumed report
/// must match the uninterrupted bytes. `at = cycles - 1` usually lands
/// inside the final quiescent stretch, so the event wheel's jump
/// overshoots the target — the pause-past-a-quiescent-skip boundary.
fn check_restore_equivalence(name: &str, fault_seed: Option<u64>, dense: bool) {
    let (want, cycles) = uninterrupted(name, fault_seed, dense);
    for at in [0, 1, cycles / 2, cycles.saturating_sub(1)] {
        let got = split_at(name, fault_seed, dense, at);
        assert_eq!(
            got, want,
            "{name} (faults {fault_seed:?}, dense {dense}): split at cycle {at} diverged"
        );
    }
}

#[test]
fn spec_bfs_restores_byte_identically() {
    check_restore_equivalence("SPEC-BFS", None, false);
    check_restore_equivalence("SPEC-BFS", Some(5), false);
}

#[test]
fn coor_bfs_restores_byte_identically() {
    check_restore_equivalence("COOR-BFS", None, false);
    check_restore_equivalence("COOR-BFS", Some(5), false);
}

#[test]
fn spec_sssp_restores_byte_identically() {
    check_restore_equivalence("SPEC-SSSP", None, false);
    check_restore_equivalence("SPEC-SSSP", Some(5), false);
}

#[test]
fn spec_mst_restores_byte_identically() {
    check_restore_equivalence("SPEC-MST", None, false);
    check_restore_equivalence("SPEC-MST", Some(5), false);
}

#[test]
fn spec_dmr_restores_byte_identically() {
    check_restore_equivalence("SPEC-DMR", None, false);
    check_restore_equivalence("SPEC-DMR", Some(5), false);
}

#[test]
fn coor_lu_restores_byte_identically() {
    check_restore_equivalence("COOR-LU", None, false);
    check_restore_equivalence("COOR-LU", Some(5), false);
}

#[test]
fn dense_tick_oracle_restores_byte_identically() {
    // The dense per-cycle loop shares the snapshot format; a restored
    // dense run must match its own uninterrupted bytes too.
    check_restore_equivalence("SPEC-BFS", None, true);
    check_restore_equivalence("SPEC-BFS", Some(5), true);
}

#[test]
fn snapshot_doc_carries_the_versioned_schema() {
    let (app, cfg) = app_cfg("SPEC-BFS", None, false);
    let RunSplit::Paused(fabric) = Fabric::new(&app.spec, &app.input, cfg)
        .run_until(100)
        .unwrap()
    else {
        panic!("SPEC-BFS runs longer than 100 cycles");
    };
    let doc = fabric.snapshot();
    assert_eq!(
        doc.get("schema").and_then(apir_util::Json::as_str),
        Some("apir.fabric.snapshot.v1")
    );
    // The document round-trips through the strict parser.
    let text = doc.render();
    assert_eq!(apir_util::json::parse(&text).unwrap().render(), text);
}

/// Mutable member `key` of a JSON object.
fn member<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    match j {
        Json::Obj(kv) => &mut kv.iter_mut().find(|(k, _)| k == key).expect(key).1,
        _ => panic!("`{key}`: not an object"),
    }
}

/// Mutable element `i` of a JSON array.
fn item(j: &mut Json, i: usize) -> &mut Json {
    match j {
        Json::Arr(v) => &mut v[i],
        _ => panic!("element {i}: not an array"),
    }
}

#[test]
fn restore_rejects_a_stage_tracker_that_breaks_derived_idle() {
    // Idle cycles are derived (`cycle - busy - stall`), so a restored
    // tracker must satisfy that identity exactly; a mutated leaf must be
    // rejected with the pipeline and stage named — never wrap or panic.
    let (app, cfg) = app_cfg("SPEC-BFS", None, false);
    let RunSplit::Paused(fabric) = Fabric::new(&app.spec, &app.input, cfg.clone())
        .run_until(300)
        .unwrap()
    else {
        panic!("SPEC-BFS runs longer than 300 cycles");
    };
    let doc = fabric.snapshot();
    let pipelines = doc.get("pipelines").and_then(Json::as_arr).unwrap();
    let (pi, si) = (pipelines.len() - 1, 2);
    let stage = &pipelines[pi].get("stages").and_then(Json::as_arr).unwrap()[si];
    let orig: Vec<u64> = stage
        .get("tk")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(
        orig[0] + orig[1] + orig[2],
        300,
        "busy + stall + idle == cycle"
    );
    // (leaf index, new value): idle off by one, busy past the cycle,
    // busy + stall wrapping u64, a stall cause that breaks the sum.
    let cases: [&[(usize, u64)]; 4] = [
        &[(2, orig[2] + 1)],
        &[(0, 301)],
        &[(0, u64::MAX), (1, 1)],
        &[(3, orig[3] + 1)],
    ];
    for leaves in cases {
        let mut bad = doc.clone();
        let stage = item(
            member(item(member(&mut bad, "pipelines"), pi), "stages"),
            si,
        );
        for &(leaf, value) in leaves {
            *item(member(stage, "tk"), leaf) = Json::U64(value);
        }
        let err = Fabric::restore(&app.spec, &app.input, cfg.clone(), &bad)
            .err()
            .unwrap_or_else(|| panic!("tk mutation {leaves:?} was accepted"));
        assert!(
            err.contains(&format!("pipeline {pi} stage {si}")),
            "tk mutation {leaves:?}: error does not name the stage: {err}"
        );
    }
    // The unmutated document still restores.
    assert!(Fabric::restore(&app.spec, &app.input, cfg, &doc).is_ok());
}

/// One step of a document path: an object member or an array element.
#[derive(Clone, Copy)]
enum Step {
    Key(&'static str),
    Idx(usize),
}

/// Mutable node at `steps` below `j`.
fn node<'a>(j: &'a mut Json, steps: &[Step]) -> &'a mut Json {
    steps.iter().fold(j, |j, s| match *s {
        Step::Key(k) => member(j, k),
        Step::Idx(i) => item(j, i),
    })
}

/// `steps` written as the document path restore errors name, such as
/// `/mem/requests/v[0]`.
fn path_of(steps: &[Step]) -> String {
    steps
        .iter()
        .map(|s| match *s {
            Step::Key(k) => format!("/{k}"),
            Step::Idx(i) => format!("[{i}]"),
        })
        .collect()
}

#[test]
fn restore_rejects_out_of_range_in_flight_memory_requests() {
    // A request that outlives its snapshot is completed against the
    // image and answered on its port, so a region, offset or port out of
    // range used to panic the resumed run (an out-of-bounds image read).
    // Restore must refuse it and name the leaf, wherever the request
    // waits: the request FIFO, a latency pipe, admission, or backoff.
    use Step::{Idx, Key};
    let mut covered = std::collections::BTreeSet::new();
    // Pause points that, between them, hold a request in every container.
    for (fault_seed, at) in [(None, 400), (None, 500), (Some(5), 500)] {
        let (app, cfg) = app_cfg("SPEC-BFS", fault_seed, false);
        let RunSplit::Paused(fabric) = Fabric::new(&app.spec, &app.input, cfg.clone())
            .run_until(at)
            .unwrap()
        else {
            panic!("SPEC-BFS runs longer than {at} cycles");
        };
        let mut doc = fabric.snapshot();
        // The first request held by each container, as its path.
        let mut sites: Vec<Vec<Step>> = Vec::new();
        for (container, tail) in [
            (&[Key("mem"), Key("requests"), Key("v")][..], &[][..]),
            (&[Key("mem"), Key("requests"), Key("s")], &[]),
            (&[Key("mem"), Key("hit_pipe")], &[Idx(1)]),
            (&[Key("mem"), Key("write_pipe")], &[Idx(1)]),
            (&[Key("mem"), Key("miss_pipe")], &[Idx(1), Key("q")]),
            (&[Key("mem"), Key("lost")], &[Idx(1), Key("q")]),
            (&[Key("mem"), Key("miss_wait")], &[Key("q")]),
        ] {
            if matches!(node(&mut doc, container), Json::Arr(v) if !v.is_empty()) {
                covered.insert(path_of(&container[..2]));
                sites.push([container, &[Idx(0)], tail].concat());
            }
        }
        for site in &sites {
            for (leaf, value) in [("o", 1_000_000_000), ("r", 1_000), ("p", 1_000_000)] {
                let mut bad = doc.clone();
                *member(node(&mut bad, site), leaf) = Json::U64(value);
                let want = format!("{}/{leaf}", path_of(site));
                let err = Fabric::restore(&app.spec, &app.input, cfg.clone(), &bad)
                    .err()
                    .unwrap_or_else(|| panic!("{want} = {value} was accepted"));
                assert!(
                    err.contains(&want),
                    "{want} = {value}: error names another path: {err}"
                );
            }
        }
        // The unmutated document still restores.
        assert!(Fabric::restore(&app.spec, &app.input, cfg, &doc).is_ok());
    }
    let containers = ["hit_pipe", "lost", "miss_pipe", "miss_wait", "requests", "write_pipe"];
    assert_eq!(
        covered.into_iter().collect::<Vec<_>>(),
        containers.map(|k| format!("/mem/{k}")),
        "a request container was never exercised"
    );
}

props! {
    // Full fabric runs per case; keep the count modest.
    cases = 6;

    /// Splitting at a random cycle, with the trace ring armed, resumes
    /// to the uninterrupted run's report and trace records.
    fn random_split_with_trace_is_byte_identical(g) {
        let name = APP_NAMES[g.gen_range(0usize..APP_NAMES.len())];
        let fault_seed = if g.gen_bool(0.5) {
            Some(g.gen_range(0u64..1000))
        } else {
            None
        };
        let dense = g.gen_bool(0.25);
        let (want, cycles) = uninterrupted(name, fault_seed, dense);
        let at = g.gen_range(0u64..cycles.max(1));
        assert_eq!(
            split_at(name, fault_seed, dense, at),
            want,
            "{name} (faults {fault_seed:?}, dense {dense}): split at cycle {at} diverged"
        );
    }

    /// snapshot -> restore -> snapshot is a fixed point: restoring a
    /// document and immediately re-snapshotting reproduces it
    /// byte-for-byte, for random apps, fault seeds, and split cycles.
    fn snapshot_restore_snapshot_is_a_fixed_point(g) {
        let name = APP_NAMES[g.gen_range(0usize..APP_NAMES.len())];
        let fault_seed = if g.gen_bool(0.5) {
            Some(g.gen_range(0u64..1000))
        } else {
            None
        };
        let at = g.gen_range(0u64..600);
        let (app, cfg) = app_cfg(name, fault_seed, false);
        match Fabric::new(&app.spec, &app.input, cfg.clone()).run_until(at).unwrap() {
            // The run ended before `at`: nothing to snapshot this case.
            RunSplit::Done(_) => {}
            RunSplit::Paused(fabric) => {
                let doc = fabric.snapshot();
                let restored = Fabric::restore(&app.spec, &app.input, cfg, &doc)
                    .expect("own snapshot restores");
                assert_eq!(
                    restored.snapshot().render(),
                    doc.render(),
                    "{name} at {at} (faults {fault_seed:?})"
                );
            }
        }
    }
}
