//! Property-based tests (apir-util's seeded harness) on core invariants.

use apir::core::index::IndexTuple;
use apir::core::interp::SeqInterp;
use apir::core::op::AluOp;
use apir::core::spec::{Spec, TaskSetKind};
use apir::core::{MemAccess, ProgramInput};
use apir::fabric::{Fabric, FabricConfig};
use apir::runtime::{ParConfig, ParRunner};
use apir::sim::bandwidth::BandwidthMeter;
use apir::sim::delay::OutOfOrderStation;
use apir::sim::fifo::Fifo;
use apir::workloads::gen;
use apir::workloads::unionfind::{FlatUnionFind, UnionFind};
use apir_util::props;

props! {
    cases = 64;

    /// The well-order is total and consistent with lexicographic tuples.
    fn index_order_is_lexicographic(g) {
        let a = g.vec(0usize..4, |g| g.gen_range(0u64..100));
        let b = g.vec(0usize..4, |g| g.gen_range(0u64..100));
        let ia = IndexTuple::new(&a);
        let ib = IndexTuple::new(&b);
        // Pad to MAX_DEPTH manually and compare.
        let pad = |v: &[u64]| {
            let mut p = [0u64; 4];
            p[..v.len()].copy_from_slice(v);
            p
        };
        assert_eq!(ia.cmp(&ib), pad(&a).cmp(&pad(&b)));
    }

    /// Children always order at-or-after their parent.
    fn children_never_precede_parent(g) {
        let parent = g.vec(1usize..3, |g| g.gen_range(0u64..50));
        let level_off = g.gen_range(0usize..2);
        let ord = g.gen_range(0u64..50);
        let p = IndexTuple::new(&parent);
        let level = parent.len() + level_off;
        if level >= 1 && level <= 4 {
            let c = p.child(level, ord);
            assert!(p <= c || level <= parent.len(),
                "parent {p:?} child {c:?}");
        }
    }

    /// FIFO preserves order and never loses or duplicates elements.
    fn fifo_preserves_order(g) {
        let ops = g.vec(1usize..200, |g| g.gen_range(0u32..3));
        let mut f: Fifo<u64> = Fifo::new(16);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut staged: std::collections::VecDeque<u64> = Default::default();
        let mut next = 0u64;
        for op in ops {
            match op {
                0 => {
                    if f.try_push(next) {
                        staged.push_back(next);
                    }
                    next += 1;
                }
                1 => {
                    let got = f.pop();
                    assert_eq!(got, model.pop_front());
                }
                _ => {
                    f.commit();
                    model.append(&mut staged);
                }
            }
        }
    }

    /// The station's first-waiting-entry scans (`timeout_one`,
    /// `oldest_waiting_insert`) agree with full filter-and-minimum scans
    /// of a model station, over random insert/complete/take/timeout
    /// sequences with non-decreasing insertion cycles.
    fn station_scans_match_full_window_scans(g) {
        let cap = g.gen_range(1usize..8);
        let mut s: OutOfOrderStation<u64> = OutOfOrderStation::new(cap);
        // Model slots: (tag, payload, ready, word, born).
        let mut model: Vec<(u64, u64, bool, u64, u64)> = Vec::new();
        let mut now = g.gen_range(0u64..4);
        let mut next = 0u64;
        for _ in 0..g.gen_range(1usize..120) {
            now += g.gen_range(0u64..3);
            match g.gen_range(0u32..4) {
                0 => {
                    if s.can_insert() {
                        // Few distinct tags, so duplicates get exercised.
                        let tag = g.gen_range(0u64..6);
                        s.insert_at(tag, next, now);
                        model.push((tag, next, false, 0, now));
                        next += 1;
                    }
                }
                1 => {
                    let (tag, word) = (g.gen_range(0u64..6), g.gen_range(0u64..100));
                    let hit = model.iter_mut().find(|e| e.0 == tag && !e.2);
                    let want = hit.map(|e| {
                        e.2 = true;
                        e.3 = word;
                    });
                    assert_eq!(s.complete(tag, word), want.is_some());
                }
                2 => {
                    let want = model
                        .iter()
                        .position(|e| e.2)
                        .map(|k| model.remove(k))
                        .map(|e| (e.1, e.3));
                    assert_eq!(s.take_ready(), want);
                }
                _ => {
                    let cutoff = now.saturating_sub(g.gen_range(0u64..6));
                    let want = model
                        .iter_mut()
                        .filter(|e| !e.2 && e.4 < cutoff)
                        .min_by_key(|e| e.4)
                        .map(|e| {
                            e.2 = true;
                            e.3 = 0;
                            e.0
                        });
                    assert_eq!(s.timeout_one(cutoff), want);
                }
            }
            let oldest = model.iter().filter(|e| !e.2).map(|e| e.4).min();
            assert_eq!(s.oldest_waiting_insert(), oldest);
            let slots: Vec<_> = s.iter_entries().map(|(t, p, r, w, b)| (t, *p, r, w, b)).collect();
            assert_eq!(slots, model);
        }
    }

    /// The bandwidth meter never exceeds its configured rate over time.
    fn bandwidth_never_exceeds_rate(g) {
        let rate = g.gen_range(1.0f64..64.0);
        let req = g.gen_range(1u64..128);
        let mut m = BandwidthMeter::new(rate);
        let mut moved = 0u64;
        let cycles = 500u64;
        for _ in 0..cycles {
            m.tick();
            while m.try_consume(req) {
                moved += req;
            }
        }
        // Allow the burst window on top of the sustained rate.
        assert!(moved as f64 <= rate * cycles as f64 + rate * 4.0 + req as f64);
    }

    /// Flat union-find partitions match the classic structure under any
    /// union sequence.
    fn union_find_equivalence(g) {
        let edges = g.vec(0usize..64, |g| {
            (g.gen_range(0u32..32), g.gen_range(0u32..32))
        });
        let mut classic = UnionFind::new(32);
        let mut arr = vec![0u64; 32];
        FlatUnionFind::init(&mut arr);
        let mut flat = FlatUnionFind::new(&mut arr);
        for (a, b) in edges {
            assert_eq!(classic.union(a, b), flat.union(a as u64, b as u64));
        }
        for i in 0..32u32 {
            for j in (i + 1)..32u32 {
                assert_eq!(classic.same(i, j), flat.find(i as u64) == flat.find(j as u64));
            }
        }
    }

    /// The round-based software runtime is sequentially consistent for an
    /// arbitrary mix of read-modify-write tasks.
    fn software_runtime_matches_interpreter(g) {
        let cells = g.vec(1usize..40, |g| g.gen_range(0u64..6));
        let width = g.gen_range(1usize..16);
        let mut s = Spec::new("prop");
        let r = s.region("cells", 8);
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["cell"]);
        let mut b = s.body(ts);
        let cell = b.field(0);
        let old = b.load(r, cell);
        let three = b.konst(3);
        let new = b.alu(AluOp::Mul, old, three);
        let one = b.konst(1);
        let new1 = b.alu(AluOp::Add, new, one);
        b.store_plain(r, cell, new1);
        b.finish();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        for c in &cells {
            input.seed(&s, ts, &[*c]);
        }
        let seq = SeqInterp::run(&s, &input).unwrap();
        let par = ParRunner::run(&s, &input, ParConfig { width, max_steps: 100_000 }).unwrap();
        assert!(par.mem.diff(&seq.mem, 3).is_empty());
    }
}

props! {
    // Fabric runs are expensive; fewer cases.
    cases = 8;

    /// SPEC-BFS levels are correct on random road networks for any seed
    /// and root.
    fn fabric_bfs_correct_on_random_inputs(g) {
        let seed = g.gen_range(0u64..1000);
        let root = g.gen_range(0u32..64);
        let graph = std::sync::Arc::new(gen::road_network(8, 8, 0.85, 4, seed));
        let app = apir::apps::bfs::build(graph, root, apir::apps::bfs::BfsVariant::Spec);
        let fab = Fabric::new(&app.spec, &app.input, FabricConfig::default()).run().unwrap();
        assert!((app.check)(&fab.mem_image).is_ok());
    }

    /// Conservation invariants of the observability layer, for any input
    /// seed and pipeline/bank mix:
    ///  * at quiescence, every task ever pushed has retired (squashed
    ///    tokens still flow to the pipeline tail and retire, so squashes
    ///    are a subset of retirements, not an extra term);
    ///  * every pipeline stage's activity tracker accounts for exactly
    ///    busy + stall + idle == cycles;
    ///  * every occupancy histogram has one observation per cycle, and
    ///    its bucket counts sum to its observation count;
    ///  * trace record cycles are monotone non-decreasing.
    fn fabric_conservation_invariants(g) {
        use apir::sim::metrics::MetricValue;
        let seed = g.gen_range(0u64..1000);
        let npipes = g.gen_range(1usize..3);
        let banks = g.gen_range(1usize..4);
        let variant = if g.gen_bool(0.5) {
            apir::apps::bfs::BfsVariant::Spec
        } else {
            apir::apps::bfs::BfsVariant::Coor
        };
        let graph = std::sync::Arc::new(gen::road_network(6, 6, 0.85, 4, seed));
        let app = apir::apps::bfs::build(graph, 0, variant);
        let cfg = FabricConfig {
            pipelines_per_set: npipes,
            queue_banks: banks,
            trace_capacity: 1 << 14,
            ..FabricConfig::default()
        };
        let r = Fabric::new(&app.spec, &app.input, cfg).run().unwrap();
        let pushed: u64 = r
            .metrics
            .entries()
            .iter()
            .filter(|(k, _)| k.starts_with("queue.") && k.ends_with(".pushed"))
            .map(|(k, _)| r.metrics.counter(k).unwrap())
            .sum();
        assert_eq!(pushed, r.total_retired(), "pushed vs retired at quiescence");
        assert!(r.squashes <= r.total_retired(), "squash is a kind of retire");
        for (name, t) in r.activity.rows() {
            assert_eq!(t.total(), r.cycles, "stage {name} misses cycles");
        }
        for (k, v) in r.metrics.entries() {
            if let MetricValue::Histogram(h) = v {
                let bucket_sum: u64 = h.nonzero_buckets().map(|(_, n)| n).sum();
                assert_eq!(h.count(), bucket_sum, "{k}: bucket sum");
                assert_eq!(h.count(), r.cycles, "{k}: one observation per cycle");
            }
        }
        let trace = r.trace.as_ref().expect("tracing enabled");
        let mut last = 0u64;
        for rec in trace.records() {
            assert!(rec.cycle >= last, "trace went backwards");
            last = rec.cycle;
        }
    }

    /// Stall attribution is a partition, for any pipeline/bank mix, with
    /// and without a chaos campaign:
    ///  * every pipeline stage's per-cause stall counts sum exactly to
    ///    its stall total (no stall is uncaused or double-counted);
    ///  * every `<comp>.stall` counter in the snapshot equals the sum of
    ///    its `<comp>.stall.<cause>` sub-counters;
    ///  * the timeline block covers the run exactly: window cycles sum
    ///    to the run length, stage-cycles to stages × cycles, and
    ///    retirements to the retired total.
    fn stall_causes_partition_stalls(g) {
        use apir::sim::metrics::MetricValue;
        let seed = g.gen_range(0u64..1000);
        let npipes = g.gen_range(1usize..3);
        let banks = g.gen_range(1usize..4);
        let graph = std::sync::Arc::new(gen::road_network(6, 6, 0.85, 4, seed));
        let app = apir::apps::bfs::build(graph, 0, apir::apps::bfs::BfsVariant::Spec);
        let mut cfg = FabricConfig {
            pipelines_per_set: npipes,
            queue_banks: banks,
            timeline_window: g.gen_range(8u64..128),
            timeline_capacity: 1 << 20,
            ..FabricConfig::default()
        };
        if g.gen_bool(0.5) {
            cfg.faults = apir::fabric::FaultConfig::chaos(seed);
        }
        let r = Fabric::new(&app.spec, &app.input, cfg).run().unwrap();
        for (name, t) in r.activity.rows() {
            let by_cause: u64 = t.stall_causes().map(|(_, n)| n).sum();
            assert_eq!(t.stall, by_cause, "stage {name}: causes must partition stalls");
        }
        for (k, v) in r.metrics.entries() {
            let MetricValue::Counter(total) = v else { continue };
            if !k.ends_with(".stall") {
                continue;
            }
            let prefix = format!("{k}.");
            let by_cause: u64 = r
                .metrics
                .entries()
                .iter()
                .filter(|(k2, _)| k2.starts_with(&prefix))
                .map(|(k2, _)| r.metrics.counter(k2).unwrap())
                .sum();
            assert_eq!(*total, by_cause, "{k}: causes must partition stalls");
        }
        let tl = r.timeline.as_ref().expect("timeline enabled");
        assert_eq!(tl.dropped, 0, "ring sized for the whole run");
        assert_eq!(
            tl.windows.iter().map(|w| w.cycles).sum::<u64>(),
            r.cycles,
            "windows cover the run"
        );
        let stage_cycles: u64 = tl
            .windows
            .iter()
            .map(|w| w.sample.busy + w.sample.stall + w.sample.idle)
            .sum();
        assert_eq!(
            stage_cycles,
            r.cycles * r.primitive_ops as u64,
            "every stage accounted every cycle"
        );
        assert_eq!(
            tl.windows.iter().map(|w| w.sample.retired).sum::<u64>(),
            r.total_retired(),
            "windowed retirements sum to the total"
        );
    }

    /// Under a seeded fault storm the observability layer keeps its
    /// books: the trace ring's conservation invariant holds (records
    /// emitted == retained + dropped — fault events multiply trace volume
    /// but must never be lost silently), and the metrics snapshot stays
    /// key-sorted with the `fault.*` family interleaved.
    fn fault_storm_keeps_trace_and_metric_invariants(g) {
        let seed = g.gen_range(0u64..1000);
        let cap = g.gen_range(64usize..2048);
        let graph = std::sync::Arc::new(gen::road_network(6, 6, 0.85, 4, seed));
        let app = apir::apps::bfs::build(graph, 0, apir::apps::bfs::BfsVariant::Spec);
        let mut cfg = FabricConfig {
            trace_capacity: cap,
            ..FabricConfig::default()
        };
        cfg.faults = apir::fabric::FaultConfig::chaos(seed);
        let r = Fabric::new(&app.spec, &app.input, cfg).run().unwrap();
        assert!((app.check)(&r.mem_image).is_ok());
        let t = r.trace.as_ref().expect("tracing enabled");
        assert_eq!(
            t.emitted(),
            t.len() as u64 + t.dropped(),
            "trace ring lost records"
        );
        let keys: Vec<&str> = r.metrics.entries().iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "metrics snapshot is not key-sorted");
        assert!(
            keys.iter().any(|k| k.starts_with("fault.")),
            "fault.* keys missing from the snapshot"
        );
    }

    /// The static occupancy bounds (`apir_core::check::analysis`) are
    /// sound: for random fabric geometry (pipelines, banks, capacity,
    /// LSU window), with and without a chaos fault campaign, the
    /// observed peak occupancy of every queue stays at or under the
    /// analysis bound. Geometries the analysis itself condemns
    /// (error-level APIR6xx, e.g. a starved recirculation reserve) are
    /// rejected by `Fabric::new` — the other half of the contract.
    fn occupancy_bounds_are_sound(g) {
        let seed = g.gen_range(0u64..1000);
        let npipes = g.gen_range(1usize..5);
        let banks = g.gen_range(1usize..5);
        let capacity = g.gen_range(256usize..2048);
        let lsu = g.gen_range(4usize..32);
        let variant = if g.gen_bool(0.5) {
            apir::apps::bfs::BfsVariant::Spec
        } else {
            apir::apps::bfs::BfsVariant::Coor
        };
        let graph = std::sync::Arc::new(gen::road_network(6, 6, 0.85, 4, seed));
        let app = apir::apps::bfs::build(graph, 0, variant);
        let mut cfg = FabricConfig {
            pipelines_per_set: npipes,
            queue_banks: banks,
            queue_capacity: capacity,
            lsu_window: lsu,
            ..FabricConfig::default()
        };
        if g.gen_bool(0.5) {
            cfg.faults = apir::fabric::FaultConfig::chaos(seed);
        }
        let analysis = apir::fabric::analyze_config(&cfg, &app.spec, &app.input)
            .expect("builtin specs lower");
        match Fabric::new(&app.spec, &app.input, cfg.clone()).run() {
            Ok(r) => {
                for (i, q) in analysis.queues.iter().enumerate() {
                    let peak = r.queue_peaks[i] as u64;
                    assert!(
                        peak <= q.bound,
                        "queue `{}` peak {peak} exceeds static bound {} \
                         (pipes={npipes} banks={banks} cap={capacity} lsu={lsu})",
                        q.task_set, q.bound
                    );
                }
            }
            Err(_) => {
                assert!(
                    analysis.report.has_errors() || cfg.validate().has_errors(),
                    "fabric rejected a config the static analysis accepted"
                );
            }
        }

        // Finite-demand side: a seed-only spec (no enqueues) gets an
        // exact bound — the seed count — and the fabric never tops it.
        let mut s = Spec::new("faa");
        let r = s.region("acc", 16);
        let ts = s.task_set("t", TaskSetKind::ForAll, 1, &["i"]);
        let mut b = s.body(ts);
        let i = b.field(0);
        let one = b.konst(1);
        b.store(r, i, one, apir::core::op::StoreKind::Add, None);
        b.finish();
        let s = s.build().unwrap();
        let nseeds = g.gen_range(1u64..128);
        let mut input = ProgramInput::new(&s);
        for k in 0..nseeds {
            input.seed(&s, ts, &[k % 16]);
        }
        let analysis = apir::fabric::analyze_config(&cfg, &s, &input)
            .expect("trivial spec lowers");
        let q = &analysis.queues[0];
        assert!(!q.widened, "seed-only spec must get a finite bound");
        let run = Fabric::new(&s, &input, cfg).run().unwrap();
        assert!(
            run.queue_peaks[0] as u64 <= q.bound,
            "faa peak {} exceeds finite bound {} ({nseeds} seeds)",
            run.queue_peaks[0], q.bound
        );
    }

    /// Commutative fetch-and-add workloads give identical images on the
    /// fabric regardless of configuration.
    fn fabric_faa_deterministic(g) {
        let npipes = g.gen_range(1usize..4);
        let banks = g.gen_range(1usize..4);
        let mut s = Spec::new("faa");
        let r = s.region("acc", 16);
        let ts = s.task_set("t", TaskSetKind::ForAll, 1, &["i"]);
        let mut b = s.body(ts);
        let i = b.field(0);
        let one = b.konst(1);
        b.store(r, i, one, apir::core::op::StoreKind::Add, None);
        b.finish();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        for k in 0..64u64 {
            input.seed(&s, ts, &[k % 16]);
        }
        let cfg = FabricConfig {
            pipelines_per_set: npipes,
            queue_banks: banks,
            ..FabricConfig::default()
        };
        let fab = Fabric::new(&s, &input, cfg).run().unwrap();
        for c in 0..16u64 {
            assert_eq!(fab.mem_image.read(apir::core::spec::RegionId(0), c), 4);
        }
    }
}
