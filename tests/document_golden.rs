//! Whole-document goldens: the complete report of every builtin app and
//! one mid-run snapshot, pinned byte for byte.
//!
//! `tests/report_golden.rs` pins a handful of counters per app; these
//! files pin everything else a run renders: every histogram bucket,
//! gauge, component stall counter, per-stage activity row, timeline
//! window, and (in the snapshot) the open timeline window and the
//! timeline totals it is measured against. A change to how any of them
//! is accounted must leave these bytes alone.
//!
//! Each report is what `apir-trace timeline <APP> --json` writes, with
//! the trace ring armed as well (65 536 records, as `apir-trace run`).
//! The snapshot is what `apir-trace snapshot SPEC-BFS --at 400 --window
//! 256` writes. On a mismatch the test names the first differing key,
//! using the engine behind `apir-trace diff`.
//!
//! Regenerate (only for an intentional change, and say why in the
//! commit) with `APIR_BLESS_GOLDENS=1 cargo test --test document_golden`.

use apir::bench::experiments::{scale_cache, synthesized_cfg};
use apir::bench::scale::{build_app, APP_NAMES};
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricConfig, RunSplit};
use apir::trace::diff_docs;
use std::path::PathBuf;

/// Cycles per timeline window and retained windows (the
/// `apir-trace timeline` defaults).
const WINDOW: u64 = 256;
const WINDOW_CAP: usize = 4096;
/// Trace ring capacity (the `apir-trace run` default).
const TRACE_CAP: usize = 1 << 16;
/// Cycle the snapshot golden pauses at.
const SNAPSHOT_AT: u64 = 400;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The tiny-scale configuration the CLI runners build for `name`, with
/// the timeline and the trace ring armed.
fn armed(name: &str) -> (apir::bench::scale::AppInstance, FabricConfig) {
    let app = build_app(name, Scale::Tiny);
    let mut cfg = synthesized_cfg(name, Scale::Tiny);
    cfg.trace_capacity = TRACE_CAP;
    cfg.timeline_window = WINDOW;
    cfg.timeline_capacity = WINDOW_CAP;
    scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    (app, cfg)
}

/// Compares `got` with the committed golden `file`, or rewrites the
/// golden when `APIR_BLESS_GOLDENS` is set. A mismatch panics naming
/// the first differing key and how many keys differ.
fn check(file: &str, got: &str) {
    let path = golden_path(file);
    if std::env::var_os("APIR_BLESS_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if want == got {
        return;
    }
    let parse = |text: &str, what: &str| {
        apir::util::json::parse(text).unwrap_or_else(|e| panic!("{file}: {what} is not JSON: {e}"))
    };
    let diffs = diff_docs(&parse(&want, "golden"), &parse(got, "rendering"), false)
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    match diffs.first() {
        Some(first) => panic!(
            "{file}: {} key(s) differ from the golden; first: {}",
            diffs.len(),
            first.render()
        ),
        None => panic!("{file}: same keys and values as the golden, but the bytes differ"),
    }
}

#[test]
fn reports_match_document_goldens() {
    for name in APP_NAMES {
        let (app, cfg) = armed(name);
        let report = Fabric::new(&app.spec, &app.input, cfg)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: {e}"));
        check(&format!("report_{name}.json"), &report.to_json());
    }
}

#[test]
fn mid_run_snapshot_matches_document_golden() {
    let name = "SPEC-BFS";
    let (app, cfg) = armed(name);
    let split = Fabric::new(&app.spec, &app.input, cfg)
        .run_until(SNAPSHOT_AT)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let RunSplit::Paused(fabric) = split else {
        panic!("{name} finished before cycle {SNAPSHOT_AT}");
    };
    let mut text = fabric.snapshot().render_pretty();
    text.push('\n');
    check(&format!("snapshot_{name}_{SNAPSHOT_AT}.json"), &text);
}
