//! The machine-readable bench baseline: `BENCH_fabric.json`.
//!
//! [`baseline_json`] runs all six builtin apps on their synthesized
//! accelerators at a pinned scale (every workload generator is seeded,
//! so the simulated counters are a pure function of the code) and
//! renders per-app `{cycles, utilization, mem.hits, mem.misses,
//! retired, squashes, wall_ms, mcycles_per_sec}`. The first six keys
//! are deterministic; the two wall-clock keys (v2) measure the host
//! machine and change run to run, so every byte-identity comparison
//! excludes them: [`emit_baseline`]'s double-run assert drops their
//! lines (see [`strip_wall_lines`]), and the `verify.sh` bench-smoke
//! gate compares key by key with `apir-trace diff --tolerance-wall`,
//! which skips [`WALL_KEYS`].
//! [`validate_baseline`] checks any document against the schema.

use crate::experiments::{scale_cache, synthesized_cfg};
use crate::scale::{build_app, Scale, APP_NAMES};
use apir_fabric::Fabric;
use apir_util::json::{parse, Json};

/// Schema identifier embedded in the baseline document. `v2` added the
/// host wall-clock keys `wall_ms` and `mcycles_per_sec` per app.
pub const BASELINE_SCHEMA: &str = "apir.bench.fabric.v2";

/// The pinned scale of the checked-in baseline (seeded generators make
/// scale + code → a unique document).
pub const BASELINE_SCALE: Scale = Scale::Tiny;

/// Canonical file name of the baseline.
pub const BASELINE_FILE: &str = "BENCH_fabric.json";

/// Per-app *deterministic* result keys every baseline entry must carry.
pub const APP_KEYS: [&str; 6] = [
    "cycles",
    "utilization",
    "mem.hits",
    "mem.misses",
    "retired",
    "squashes",
];

/// Per-app wall-clock keys (v2): host-dependent, excluded from every
/// byte-identity comparison. `apir-trace diff --tolerance-wall` skips
/// exactly these keys.
pub const WALL_KEYS: [&str; 2] = ["wall_ms", "mcycles_per_sec"];

/// Drops the lines carrying wall-clock keys so two documents can be
/// compared for the determinism contract (the pretty renderer puts one
/// key per line).
pub fn strip_wall_lines(doc: &str) -> String {
    doc.lines()
        .filter(|l| !WALL_KEYS.iter().any(|k| l.contains(k)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the six builtin apps at `scale` and renders the baseline
/// document (pretty, trailing newline — it is meant to be diffed).
/// `Fabric::run` alone is timed, not workload generation or result
/// verification, so `mcycles_per_sec` is the simulator's own rate.
pub fn baseline_json(scale: Scale) -> String {
    let apps: Vec<(String, Json)> = APP_NAMES
        .iter()
        .map(|name| {
            let mut cfg = synthesized_cfg(name, scale);
            let app = build_app(name, scale);
            scale_cache(&mut cfg, &app.input);
            (app.tune)(&mut cfg);
            let fabric = Fabric::new(&app.spec, &app.input, cfg);
            let t0 = std::time::Instant::now();
            let r = fabric
                .run()
                .unwrap_or_else(|e| panic!("{name}: fabric failed: {e}"));
            let wall = t0.elapsed();
            (app.check)(&r.mem_image)
                .unwrap_or_else(|e| panic!("{name}: bad result: {e}"));
            let wall_ms = wall.as_secs_f64() * 1e3;
            let mcps = if wall.as_secs_f64() > 0.0 {
                r.cycles as f64 / 1e6 / wall.as_secs_f64()
            } else {
                0.0
            };
            let entry = Json::obj([
                ("cycles", Json::U64(r.cycles)),
                ("utilization", Json::Num(r.utilization)),
                ("mem.hits", Json::U64(r.mem.hits)),
                ("mem.misses", Json::U64(r.mem.misses)),
                ("retired", Json::U64(r.total_retired())),
                ("squashes", Json::U64(r.squashes)),
                // Rounded so the noise floor doesn't suggest precision
                // the measurement doesn't have.
                ("wall_ms", Json::Num((wall_ms * 1e3).round() / 1e3)),
                ("mcycles_per_sec", Json::Num((mcps * 1e2).round() / 1e2)),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("schema", Json::str(BASELINE_SCHEMA)),
        ("scale", Json::str(scale.name())),
        ("apps", Json::Obj(apps)),
    ])
    .render_pretty()
}

/// Validates a baseline document: parseable JSON, right schema tag, all
/// six apps present, every required key present with a non-negative
/// counter, and utilization in `[0, 1]`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_baseline(doc: &str) -> Result<(), String> {
    let root = parse(doc).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != BASELINE_SCHEMA {
        return Err(format!("schema `{schema}` != `{BASELINE_SCHEMA}`"));
    }
    root.get("scale")
        .and_then(Json::as_str)
        .and_then(Scale::parse)
        .ok_or("missing or unknown `scale`")?;
    let apps = root.get("apps").ok_or("missing `apps`")?;
    for name in APP_NAMES {
        let entry = apps.get(name).ok_or_else(|| format!("missing app `{name}`"))?;
        for key in APP_KEYS {
            let v = entry
                .get(key)
                .ok_or_else(|| format!("{name}: missing `{key}`"))?;
            if key == "utilization" {
                let u = v
                    .as_f64()
                    .ok_or_else(|| format!("{name}: `{key}` not a number"))?;
                if !(0.0..=1.0).contains(&u) {
                    return Err(format!("{name}: utilization {u} outside [0, 1]"));
                }
            } else {
                // `as_u64` rejects negatives and fractions outright.
                v.as_u64()
                    .ok_or_else(|| format!("{name}: `{key}` not a non-negative integer"))?;
            }
        }
        for key in WALL_KEYS {
            let v = entry
                .get(key)
                .ok_or_else(|| format!("{name}: missing `{key}`"))?
                .as_f64()
                .ok_or_else(|| format!("{name}: `{key}` not a number"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name}: `{key}` is {v}, not a finite non-negative"));
            }
        }
    }
    Ok(())
}

/// Generates the baseline **twice**, asserts the two renderings are
/// byte-identical after dropping the wall-clock lines (the determinism
/// contract covers every simulated counter; host timing is expected to
/// jitter), validates the schema, and writes the first document to
/// `path`.
///
/// # Errors
///
/// Propagates validation failures and I/O errors as strings.
///
/// # Panics
///
/// Panics if the two generations differ — that is a simulator
/// determinism bug, not an environment problem.
pub fn emit_baseline(path: &std::path::Path, scale: Scale) -> Result<(), String> {
    let first = baseline_json(scale);
    let second = baseline_json(scale);
    assert_eq!(
        strip_wall_lines(&first),
        strip_wall_lines(&second),
        "baseline generation is nondeterministic — fabric determinism bug"
    );
    validate_baseline(&first)?;
    std::fs::write(path, &first).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid_and_deterministic() {
        let a = baseline_json(Scale::Tiny);
        let b = baseline_json(Scale::Tiny);
        assert_eq!(
            strip_wall_lines(&a),
            strip_wall_lines(&b),
            "two generations must be byte-identical outside wall-clock lines"
        );
        validate_baseline(&a).expect("schema-valid");
    }

    #[test]
    fn strip_wall_lines_removes_only_wall_keys() {
        let doc = "{\n  \"cycles\": 5,\n  \"wall_ms\": 1.25,\n  \"mcycles_per_sec\": 80.0,\n  \"retired\": 3\n}";
        let stripped = strip_wall_lines(doc);
        assert!(stripped.contains("cycles"));
        assert!(stripped.contains("retired"));
        assert!(!stripped.contains("wall_ms"));
        assert!(!stripped.contains("mcycles_per_sec"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_baseline("not json").is_err());
        assert!(validate_baseline("{}").is_err());
        let wrong_schema = r#"{"schema":"other.v1","scale":"tiny","apps":{}}"#;
        assert!(validate_baseline(wrong_schema).unwrap_err().contains("schema"));
        // Valid shell, missing apps.
        let empty_apps = format!(r#"{{"schema":"{BASELINE_SCHEMA}","scale":"tiny","apps":{{}}}}"#);
        assert!(validate_baseline(&empty_apps).unwrap_err().contains("missing app"));
        // All apps present, one counter negative.
        let entries = |util: &str, cycles: &str| {
            let apps: Vec<String> = APP_NAMES
                .iter()
                .map(|n| {
                    format!(
                        r#""{n}":{{"cycles":{cycles},"utilization":{util},"mem.hits":0,"mem.misses":0,"retired":1,"squashes":0,"wall_ms":1.5,"mcycles_per_sec":12.0}}"#
                    )
                })
                .collect();
            format!(
                r#"{{"schema":"{BASELINE_SCHEMA}","scale":"tiny","apps":{{{}}}}}"#,
                apps.join(",")
            )
        };
        assert!(validate_baseline(&entries("0.5", "10")).is_ok());
        assert!(validate_baseline(&entries("7.0", "10"))
            .unwrap_err()
            .contains("utilization"));
        assert!(validate_baseline(&entries("0.5", "-3"))
            .unwrap_err()
            .contains("non-negative"));
    }
}
