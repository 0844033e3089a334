//! The cross-session batched scoring service must be *invisible* to
//! outcomes: fusing every session's pool-scoring into one wide call per
//! tick, parking sessions behind the admission queue, or splitting traffic
//! across dataset shards may change scheduling and timing — never a single
//! output bit. These tests pin the four contracts: the service ==
//! the single-session reference (`LtePipeline::explore`), 1 worker == N
//! workers, bounded capacity == unbounded, and sharded == each shard solo.

use lte_core::config::{LteConfig, ScoringPrecision};
use lte_core::explore::Variant;
use lte_core::metrics::ConfusionMatrix;
use lte_core::oracle::ConjunctiveOracle;
use lte_core::pipeline::{LtePipeline, UirOutcome};
use lte_core::uis::UisMode;
use lte_data::generator::{generate_car, generate_sdss};
use lte_data::subspace::decompose_sequential;
use lte_data::table::Table;
use lte_serve::{ScoringService, ServiceOutcome, SessionEngine};
use std::sync::Arc;

fn train(table: &Table, seed: u64) -> Arc<LtePipeline> {
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 60;
    cfg.train.epochs = 1;
    let (p, _) = LtePipeline::offline(table, decompose_sequential(4, 2), cfg, seed);
    Arc::new(p)
}

fn sdss_setup() -> (Arc<LtePipeline>, Vec<Vec<f64>>) {
    let table = generate_sdss(3000, 0);
    let pool: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();
    (train(&table, 11), pool)
}

/// Everything deterministic in a `UirOutcome`, floats as raw bits, timing
/// fields excluded.
fn outcome_bytes(o: &UirOutcome) -> Vec<u64> {
    let mut bytes = vec![
        o.confusion.tp as u64,
        o.confusion.fp as u64,
        o.confusion.tn as u64,
        o.confusion.fn_ as u64,
        o.labels_used as u64,
    ];
    bytes.extend(o.per_subspace_f1.iter().map(|f| f.to_bits()));
    for sub in &o.subspace_outcomes {
        bytes.extend(sub.scores.iter().map(|s| s.to_bits()));
        bytes.extend(sub.predictions.iter().map(|&p| p as u64));
        bytes.extend(sub.cs_labels.iter().map(|&l| l as u64));
        bytes.push(sub.labels_used as u64);
    }
    bytes
}

/// The conjunctive confusion recomputed without the service's round fold:
/// every round's predictions ANDed per pool row, against the truth's label
/// of the full-space row.
fn relabelled_confusion(
    o: &UirOutcome,
    truth: &ConjunctiveOracle,
    eval_rows: &[Vec<f64>],
) -> ConfusionMatrix {
    ConfusionMatrix::from_pairs(eval_rows.iter().enumerate().map(|(r, row)| {
        let pred = o.subspace_outcomes.iter().all(|sub| sub.predictions[r]);
        (pred, truth.label(row))
    }))
}

/// The service-side provenance plus the outcome — the full byte identity a
/// worker-count sweep must preserve.
fn service_bytes(o: &ServiceOutcome) -> Vec<u64> {
    let mut bytes = vec![
        o.id,
        o.shard as u64,
        o.submit_seq,
        o.submit_tick,
        o.admitted_tick,
        o.completed_tick,
    ];
    bytes.extend(&o.epochs);
    bytes.extend(outcome_bytes(&o.outcome));
    bytes
}

#[test]
fn fused_service_matches_per_session_engine_for_every_variant() {
    let (pipeline, pool) = sdss_setup();
    for variant in [Variant::Basic, Variant::Meta, Variant::MetaStar] {
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 2);
        let requests = engine.simulate_requests(6, UisMode::new(1, 10), 0.2, 0.9, variant, 42);
        let fused = engine.run_sessions(requests.clone(), &pool);
        assert_eq!(requests.len(), fused.len());
        for (req, b) in requests.iter().zip(&fused) {
            assert_eq!(req.id, b.id, "{variant:?}: ordering diverged");
            let solo = pipeline.explore(&req.truth, &pool, req.variant, req.seed);
            assert_eq!(
                outcome_bytes(&solo),
                outcome_bytes(&b.outcome),
                "{variant:?}: session {} diverged between the reference and the service",
                req.id
            );
        }
    }
}

#[test]
fn service_outcomes_are_identical_at_one_and_four_workers() {
    let (pipeline, pool) = sdss_setup();
    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
    let requests = engine.simulate_requests(8, UisMode::new(1, 10), 0.2, 0.9, Variant::MetaStar, 7);

    let run = |workers: usize| {
        let mut service = ScoringService::builder()
            .workers(workers)
            .capacity(3)
            .shard("sdss", Arc::clone(&pipeline), pool.clone())
            .build();
        for req in requests.clone() {
            service.submit("sdss", req);
        }
        let reports = service.run_until_idle();
        (reports, service.take_completed())
    };
    let (reports_1, done_1) = run(1);
    let (reports_4, done_4) = run(4);

    // Tick composition is counter-based, so even the per-tick reports
    // agree exactly — admission waves, fused widths, completions.
    assert_eq!(reports_1, reports_4, "tick schedules diverged");
    assert_eq!(done_1.len(), 8);
    for (a, b) in done_1.iter().zip(&done_4) {
        assert_eq!(
            service_bytes(a),
            service_bytes(b),
            "session {} diverged between 1 and 4 workers",
            a.id
        );
    }
}

#[test]
fn multi_part_truths_fold_to_full_space_labels_at_one_and_four_workers() {
    let (pipeline, pool) = sdss_setup();
    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
    let requests =
        engine.simulate_requests(8, UisMode::new(3, 10), 0.2, 0.9, Variant::MetaStar, 31);
    assert!(
        requests
            .iter()
            .all(|r| r.truth.parts().iter().all(|(_, region)| region.len() == 3)),
        "every subspace truth is a three-part union"
    );

    let run = |workers: usize| {
        let mut service = ScoringService::builder()
            .workers(workers)
            .shard("sdss", Arc::clone(&pipeline), pool.clone())
            .build();
        for req in requests.clone() {
            service.submit("sdss", req);
        }
        service.run_until_idle();
        let mut done = service.take_completed();
        done.sort_by_key(|o| o.id);
        done
    };
    let done_1 = run(1);
    let done_4 = run(4);
    assert_eq!(done_1.len(), 8);
    for ((req, a), b) in requests.iter().zip(&done_1).zip(&done_4) {
        assert_eq!(req.id, a.id);
        assert_eq!(
            service_bytes(a),
            service_bytes(b),
            "session {} diverged between 1 and 4 workers",
            a.id
        );
        assert_eq!(
            a.outcome.confusion,
            relabelled_confusion(&a.outcome, &req.truth, &pool),
            "session {}: folded confusion differs from the full-space labels",
            a.id
        );
    }
}

#[test]
fn fast_precision_serves_deterministically_across_worker_counts() {
    // `ScoringPrecision::Fast` flows from the pipeline config straight
    // through the service's fused scoring path (no serve-side switch), so
    // the worker-sweep determinism contract and service == reference must
    // hold for it too.
    let table = generate_sdss(3000, 0);
    let pool: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 60;
    cfg.train.epochs = 1;
    cfg.online.precision = ScoringPrecision::Fast;
    let (pipeline, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 11);
    let pipeline = Arc::new(pipeline);

    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
    let requests = engine.simulate_requests(6, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 23);

    let run = |workers: usize| {
        let mut service = ScoringService::builder()
            .workers(workers)
            .shard("sdss", Arc::clone(&pipeline), pool.clone())
            .build();
        for req in requests.clone() {
            service.submit("sdss", req);
        }
        service.run_until_idle();
        let mut done = service.take_completed();
        done.sort_by_key(|o| o.id);
        done
    };
    let done_1 = run(1);
    let done_4 = run(4);
    assert_eq!(done_1.len(), 6);
    for ((a, b), req) in done_1.iter().zip(&done_4).zip(&requests) {
        assert_eq!(
            service_bytes(a),
            service_bytes(b),
            "fast session {} diverged between 1 and 4 workers",
            a.id
        );
        assert_eq!(a.id, req.id);
        let solo = pipeline.explore(&req.truth, &pool, req.variant, req.seed);
        assert_eq!(
            outcome_bytes(&a.outcome),
            outcome_bytes(&solo),
            "fast session {} diverged between the service and the reference",
            a.id
        );
    }
}

#[test]
fn admission_capacity_never_changes_outcomes() {
    let (pipeline, pool) = sdss_setup();
    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
    let requests = engine.simulate_requests(7, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 19);

    let run = |max_active: usize| {
        let mut service = ScoringService::builder()
            .workers(1)
            .capacity(max_active)
            .shard("sdss", Arc::clone(&pipeline), pool.clone())
            .build();
        for req in requests.clone() {
            service.submit("sdss", req);
        }
        service.run_until_idle();
        let mut done = service.take_completed();
        done.sort_by_key(|o| o.id);
        done
    };
    let unbounded = run(usize::MAX);
    let squeezed = run(2);

    // Squeezing capacity to 2 stretches the schedule (more ticks, parked
    // sessions) but every session's *result* is untouched.
    assert!(squeezed.iter().any(|o| o.admitted_tick > o.submit_tick));
    assert!(unbounded.iter().all(|o| o.admitted_tick == o.submit_tick));
    for (a, b) in unbounded.iter().zip(&squeezed) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            outcome_bytes(&a.outcome),
            outcome_bytes(&b.outcome),
            "session {} diverged under admission pressure",
            a.id
        );
    }
}

#[test]
fn sharded_service_matches_each_pipeline_solo() {
    let sdss_table = generate_sdss(3000, 0);
    let car_table = generate_car(3000, 1);
    let sdss = train(&sdss_table, 11);
    let car = train(&car_table, 13);
    let sdss_pool: Vec<Vec<f64>> = (0..250).map(|i| sdss_table.row(i).unwrap()).collect();
    let car_pool: Vec<Vec<f64>> = (0..250).map(|i| car_table.row(i).unwrap()).collect();

    let sdss_engine = SessionEngine::with_workers(Arc::clone(&sdss), 1);
    let car_engine = SessionEngine::with_workers(Arc::clone(&car), 1);
    let mode = UisMode::new(1, 10);
    let sdss_reqs = sdss_engine.simulate_requests(4, mode, 0.2, 0.9, Variant::Meta, 5);
    let car_reqs = car_engine.simulate_requests(4, mode, 0.2, 0.9, Variant::Meta, 6);

    // One service, both datasets, submissions interleaved — each tick's
    // fused call spans both shards.
    let mut service = ScoringService::builder()
        .workers(2)
        .shard("sdss", Arc::clone(&sdss), sdss_pool.clone())
        .shard("car", Arc::clone(&car), car_pool.clone())
        .build();
    for (s, c) in sdss_reqs.iter().zip(&car_reqs) {
        service.submit("sdss", s.clone());
        service.submit("car", c.clone());
    }
    let reports = service.run_until_idle();
    // Both shards really were fused into one call: 8 requests per tick.
    assert_eq!(reports[0].fused_requests, 8);
    assert_eq!(reports[0].fused_rows, 8 * 250);

    let done = service.take_completed();
    assert_eq!(done.len(), 8);
    for o in &done {
        let (pipeline, pool, reqs, ids_base) = if service.shard_name(o.shard) == "sdss" {
            (&sdss, &sdss_pool, &sdss_reqs, "sdss")
        } else {
            (&car, &car_pool, &car_reqs, "car")
        };
        let req = reqs.iter().find(|r| r.id == o.id).unwrap();
        let solo = pipeline.explore(&req.truth, pool, req.variant, req.seed);
        assert_eq!(
            outcome_bytes(&solo),
            outcome_bytes(&o.outcome),
            "{ids_base} session {} diverged from its solo run",
            o.id
        );
    }
}
