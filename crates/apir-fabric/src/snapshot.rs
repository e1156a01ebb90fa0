//! Versioned, byte-deterministic fabric snapshots.
//!
//! A snapshot is a complete serialization of one [`crate::Fabric`]'s
//! mutable state at a cycle boundary — memory image, tag array, in-flight
//! MSHRs, queue banks, rule-lane occupants, pipeline latches and
//! stations, fault RNG streams, metrics, trace and timeline rings — as an
//! `apir.fabric.snapshot.v1` JSON document. The contract is *restore
//! equivalence*: restoring a snapshot and running to completion produces
//! a report byte-identical to the uninterrupted run, from any snapshot
//! cycle, under either scheduler — with one exception. With rollback
//! recovery armed (`max_rollbacks > 0`), the in-memory checkpoint is not
//! part of the snapshot: a restored run takes its first checkpoint at
//! the restore cycle, so its checkpoint schedule, and with it the
//! rewind target of any later rollback, matches the uninterrupted run's
//! only when the snapshot was taken on a cycle at which that run took a
//! checkpoint. Under rollback recovery, restore equivalence holds on
//! the checkpoint schedule, not from every snapshot cycle.
//!
//! Pipeline active sets are not part of the snapshot either: restore
//! puts every stage in its set, exactly as [`crate::Fabric::new`] does,
//! and stage idle cycles are derived from the cycle count (see
//! `FabricConfig::dense_tick`), so a restored tracker must satisfy
//! `idle == cycle − busy − stall`.
//!
//! Structure vs. values: everything derivable from the `(spec, input,
//! config)` triple — stage wiring, port assignment, metric registration,
//! trace-component interning, RNG *seeds* — is **structural** and is
//! rebuilt by [`crate::Fabric::new`] on restore. The snapshot carries
//! only the **mutable values**: queue contents, lane occupants, RNG
//! *positions*, counters. This keeps the document small and makes
//! version drift loud — a snapshot taken under a different config fails
//! with a count mismatch instead of silently diverging.
//!
//! Floating-point state (bandwidth credit, gauges) is serialized as raw
//! IEEE-754 bit patterns ([`f64::to_bits`]) so a JSON round trip cannot
//! perturb a single bandwidth decision.
//!
//! This module holds the schema constant, the static trace-event
//! interning table (trace records carry `&'static str` labels), and the
//! shared encode/decode helpers used by the per-component
//! `snapshot_json`/`restore_json` implementations in [`crate::queue`],
//! [`crate::rules`], [`crate::memory`], and [`crate::fabric`].

use apir_core::{IndexTuple, MAX_FIELDS};
use apir_util::json::Json;

use crate::types::{Ctx, EventMsg, MemReq, TaskToken, WriteKind};

/// Schema identifier stamped into every snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "apir.fabric.snapshot.v1";

/// Every event label the fabric ever records into the structured trace.
/// Restore resolves serialized labels against this table to recover the
/// `&'static str` the ring buffer stores.
pub(crate) const EVENT_NAMES: [&str; 28] = [
    "seed",
    "hit",
    "miss",
    "write",
    "push",
    "alloc",
    "nack",
    "clause",
    "otherwise",
    "evict",
    "soft_injected",
    "soft_corrected",
    "soft_refetched",
    "link_drop",
    "link_late",
    "link_retry",
    "link_escalate",
    "lane_mask",
    "bank_mask",
    "wd_escalate",
    "busy",
    "stall",
    "idle",
    "retire",
    "squash",
    "requeue",
    "bounce",
    "rollback",
];

/// Resolves a serialized event label to its static interned form.
pub(crate) fn intern_event(name: &str) -> Result<&'static str, String> {
    EVENT_NAMES
        .iter()
        .find(|&&e| e == name)
        .copied()
        .ok_or_else(|| format!("snapshot: unknown trace event `{name}`"))
}

// ---------------------------------------------------------------------
// Decode helpers. Every failure path names the offending key so a
// hand-edited or truncated snapshot fails loudly and legibly.
// ---------------------------------------------------------------------

/// Looks up a required object member.
pub(crate) fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key)
        .ok_or_else(|| format!("snapshot: missing key `{key}`"))
}

/// Interprets a value as u64 or fails with the member's name.
pub(crate) fn need_u64(j: &Json, what: &str) -> Result<u64, String> {
    j.as_u64()
        .ok_or_else(|| format!("snapshot: `{what}` is not a u64"))
}

/// Interprets a value as an array or fails with the member's name.
pub(crate) fn need_arr<'a>(j: &'a Json, what: &str) -> Result<&'a [Json], String> {
    j.as_arr()
        .ok_or_else(|| format!("snapshot: `{what}` is not an array"))
}

/// Required u64 member.
pub(crate) fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    need_u64(field(j, key)?, key)
}

/// Required usize member.
pub(crate) fn usize_field(j: &Json, key: &str) -> Result<usize, String> {
    Ok(u64_field(j, key)? as usize)
}

/// Required bool member.
pub(crate) fn bool_field(j: &Json, key: &str) -> Result<bool, String> {
    field(j, key)?
        .as_bool()
        .ok_or_else(|| format!("snapshot: `{key}` is not a bool"))
}

/// Required array member.
pub(crate) fn arr_field<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    need_arr(field(j, key)?, key)
}

/// Required string member.
pub(crate) fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| format!("snapshot: `{key}` is not a string"))
}

/// Decodes an array of u64.
pub(crate) fn u64_vec(j: &Json, what: &str) -> Result<Vec<u64>, String> {
    need_arr(j, what)?.iter().map(|x| need_u64(x, what)).collect()
}

/// Decodes an array of bool.
pub(crate) fn bool_vec(j: &Json, what: &str) -> Result<Vec<bool>, String> {
    need_arr(j, what)?
        .iter()
        .map(|x| {
            x.as_bool()
                .ok_or_else(|| format!("snapshot: `{what}` element is not a bool"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Shared value encodings. Compact single-letter member names keep big
// snapshots (every queued token is one object) readable but small.
// ---------------------------------------------------------------------

/// Encodes an index tuple as its significant components only. The
/// derived `PartialEq`/`Hash` on [`IndexTuple`] compare depth as well as
/// components, so restore must preserve depth exactly;
/// [`IndexTuple::new`] zero-pads and sets depth from the slice length,
/// which round-trips because unused components are always zero.
pub(crate) fn index_json(i: &IndexTuple) -> Json {
    let a = i.as_array();
    Json::arr(a[..i.depth()].iter().map(|&c| Json::U64(c)))
}

/// Decodes an index tuple.
pub(crate) fn index_from(j: &Json) -> Result<IndexTuple, String> {
    let comps = u64_vec(j, "index")?;
    if comps.len() > apir_core::MAX_DEPTH {
        return Err(format!("snapshot: index depth {} > max", comps.len()));
    }
    Ok(IndexTuple::new(&comps))
}

/// Encodes a fixed field array (all slots; unused ones are zero).
pub(crate) fn fields_json(f: &[u64; MAX_FIELDS]) -> Json {
    Json::arr(f.iter().map(|&w| Json::U64(w)))
}

/// Decodes a fixed field array.
pub(crate) fn fields_from(j: &Json) -> Result<[u64; MAX_FIELDS], String> {
    let v = u64_vec(j, "fields")?;
    if v.len() != MAX_FIELDS {
        return Err(format!(
            "snapshot: field array has {} entries, expected {MAX_FIELDS}",
            v.len()
        ));
    }
    let mut f = [0u64; MAX_FIELDS];
    f.copy_from_slice(&v);
    Ok(f)
}

/// Encodes a queued task token.
pub(crate) fn token_json(t: &TaskToken) -> Json {
    Json::obj([
        ("i", index_json(&t.index)),
        ("s", Json::U64(t.seq)),
        ("f", fields_json(&t.fields)),
    ])
}

/// Decodes a queued task token.
pub(crate) fn token_from(j: &Json) -> Result<TaskToken, String> {
    Ok(TaskToken {
        index: index_from(field(j, "i")?)?,
        seq: u64_field(j, "s")?,
        fields: fields_from(field(j, "f")?)?,
    })
}

/// Encodes an in-flight pipeline context (token plus SSA values).
pub(crate) fn ctx_json(c: &Ctx) -> Json {
    Json::obj([
        ("i", index_json(&c.index)),
        ("s", Json::U64(c.seq)),
        ("f", fields_json(&c.fields)),
        ("v", Json::arr(c.vals.iter().map(|&w| Json::U64(w)))),
    ])
}

/// Decodes a pipeline context; `body_len` is the structural SSA width.
pub(crate) fn ctx_from(j: &Json, body_len: usize) -> Result<Ctx, String> {
    let vals = u64_vec(field(j, "v")?, "ctx.v")?;
    if vals.len() != body_len {
        return Err(format!(
            "snapshot: ctx has {} vals, body has {body_len} ops",
            vals.len()
        ));
    }
    Ok(Ctx {
        index: index_from(field(j, "i")?)?,
        seq: u64_field(j, "s")?,
        fields: fields_from(field(j, "f")?)?,
        vals: vals.into_boxed_slice(),
    })
}

/// Encodes an event-bus message.
pub(crate) fn event_json(e: &EventMsg) -> Json {
    Json::obj([
        ("l", Json::U64(e.label.0 as u64)),
        ("n", Json::U64(e.len as u64)),
        ("p", Json::arr(e.payload().iter().map(|&w| Json::U64(w)))),
        ("i", index_json(&e.index)),
    ])
}

/// Decodes an event-bus message.
pub(crate) fn event_from(j: &Json) -> Result<EventMsg, String> {
    let len = u64_field(j, "n")? as usize;
    let words = u64_vec(field(j, "p")?, "event.p")?;
    if words.len() != len || len > MAX_FIELDS {
        return Err(format!(
            "snapshot: event payload has {} words, header says {len}",
            words.len()
        ));
    }
    let mut payload = [0u64; MAX_FIELDS];
    payload[..len].copy_from_slice(&words);
    Ok(EventMsg {
        label: apir_core::spec::LabelId(u64_field(j, "l")? as usize),
        payload,
        len: len as u8,
        index: index_from(field(j, "i")?)?,
    })
}

/// Encodes a memory request. The write member is `null` for reads or
/// `[code, value]` (`[3, value, expected]` for CAS) with codes
/// 0=Plain, 1=Min, 2=Add, 3=Cas.
pub(crate) fn memreq_json(r: &MemReq) -> Json {
    let w = match r.write {
        None => Json::Null,
        Some((WriteKind::Plain, v)) => Json::arr([Json::U64(0), Json::U64(v)]),
        Some((WriteKind::Min, v)) => Json::arr([Json::U64(1), Json::U64(v)]),
        Some((WriteKind::Add, v)) => Json::arr([Json::U64(2), Json::U64(v)]),
        Some((WriteKind::Cas(exp), v)) => {
            Json::arr([Json::U64(3), Json::U64(v), Json::U64(exp)])
        }
    };
    Json::obj([
        ("p", Json::U64(r.port as u64)),
        ("t", Json::U64(r.tag)),
        ("r", Json::U64(r.region.0 as u64)),
        ("o", Json::U64(r.offset)),
        ("w", w),
    ])
}

/// Decodes a memory request.
pub(crate) fn memreq_from(j: &Json) -> Result<MemReq, String> {
    let wj = field(j, "w")?;
    let write = match wj {
        Json::Null => None,
        _ => {
            let parts = u64_vec(wj, "memreq.w")?;
            let (code, value) = match parts.as_slice() {
                [c, v] | [c, v, _] => (*c, *v),
                _ => return Err("snapshot: malformed memreq write".into()),
            };
            let kind = match (code, parts.len()) {
                (0, 2) => WriteKind::Plain,
                (1, 2) => WriteKind::Min,
                (2, 2) => WriteKind::Add,
                (3, 3) => WriteKind::Cas(parts[2]),
                _ => return Err(format!("snapshot: bad write kind code {code}")),
            };
            Some((kind, value))
        }
    };
    Ok(MemReq {
        port: u64_field(j, "p")? as u32,
        tag: u64_field(j, "t")?,
        region: apir_core::spec::RegionId(u64_field(j, "r")? as usize),
        offset: u64_field(j, "o")?,
        write,
    })
}

/// Encodes an `f64` as its raw bit pattern (lossless round trip).
pub(crate) fn f64_bits_json(v: f64) -> Json {
    Json::U64(v.to_bits())
}

/// Decodes an `f64` stored as raw bits.
pub(crate) fn f64_from_bits(j: &Json, what: &str) -> Result<f64, String> {
    Ok(f64::from_bits(need_u64(j, what)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::to_fields;

    #[test]
    fn event_names_are_unique() {
        let mut names = EVENT_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EVENT_NAMES.len(), "duplicate event name");
        assert_eq!(intern_event("retire"), Ok("retire"));
        assert!(intern_event("no_such_event").is_err());
    }

    #[test]
    fn index_round_trip_preserves_depth() {
        for comps in [&[][..], &[3][..], &[3, 0][..], &[1, 2, 3, 4][..]] {
            let i = IndexTuple::new(comps);
            let back = index_from(&index_json(&i)).unwrap();
            assert_eq!(back, i, "depth must survive: {comps:?}");
            assert_eq!(back.depth(), i.depth());
        }
    }

    #[test]
    fn token_and_ctx_round_trip() {
        let t = TaskToken {
            index: IndexTuple::new(&[5, 9]),
            seq: 42,
            fields: to_fields(&[7, 0, 3]),
        };
        assert_eq!(token_from(&token_json(&t)).unwrap(), t);
        let mut c = Ctx::from_token(t, 4);
        c.vals[2] = 99;
        let back = ctx_from(&ctx_json(&c), 4).unwrap();
        assert_eq!(back.vals.as_ref(), c.vals.as_ref());
        assert_eq!(back.seq, c.seq);
        assert!(ctx_from(&ctx_json(&c), 5).is_err(), "body_len mismatch");
    }

    #[test]
    fn memreq_write_kinds_round_trip() {
        for write in [
            None,
            Some((WriteKind::Plain, 1)),
            Some((WriteKind::Min, 17)),
            Some((WriteKind::Add, 2)),
            Some((WriteKind::Cas(8), 9)),
        ] {
            let r = MemReq {
                port: 3,
                tag: 77,
                region: apir_core::spec::RegionId(1),
                offset: 1024,
                write,
            };
            let back = memreq_from(&memreq_json(&r)).unwrap();
            assert_eq!(back.port, r.port);
            assert_eq!(back.tag, r.tag);
            assert_eq!(back.region, r.region);
            assert_eq!(back.offset, r.offset);
            match (back.write, r.write) {
                (None, None) => {}
                (Some((WriteKind::Cas(a), v1)), Some((WriteKind::Cas(b), v2))) => {
                    assert_eq!((a, v1), (b, v2));
                }
                (Some((k1, v1)), Some((k2, v2))) => {
                    assert_eq!(v1, v2);
                    assert_eq!(
                        std::mem::discriminant(&k1),
                        std::mem::discriminant(&k2)
                    );
                }
                _ => panic!("write kind lost"),
            }
        }
    }

    #[test]
    fn event_msg_round_trip() {
        let e = EventMsg {
            label: apir_core::spec::LabelId(2),
            payload: to_fields(&[11, 22]),
            len: 2,
            index: IndexTuple::new(&[4]),
        };
        let back = event_from(&event_json(&e)).unwrap();
        assert_eq!(back.payload(), e.payload());
        assert_eq!(back.label, e.label);
        assert_eq!(back.index, e.index);
    }

    #[test]
    fn f64_bits_survive_render_parse() {
        for v in [0.0f64, -0.0, 1.5, 0.1 + 0.2, f64::MIN_POSITIVE] {
            let doc = Json::obj([("x", f64_bits_json(v))]);
            let parsed = apir_util::json::parse(&doc.render()).unwrap();
            let back = f64_from_bits(parsed.get("x").unwrap(), "x").unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
