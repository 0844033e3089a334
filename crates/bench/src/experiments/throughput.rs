//! Serving throughput: the single-session reference baseline vs the
//! cross-session batched [`ScoringService`], with a machine-readable
//! snapshot.
//!
//! Not a paper figure — this measures the ROADMAP's serving north star at
//! serving scale (64 concurrent Meta* sessions). Three paths over the same
//! request set:
//!
//! 1. **per_session** — the reference baseline: a `parallel_map` over
//!    [`LtePipeline::explore`], so each session runs end to end on a
//!    worker, re-encoding the retrieval pool and issuing its own narrow
//!    scoring calls — the yardstick the service is measured and checked
//!    against,
//! 2. **fused** — the [`ScoringService`] tick loop (the loop
//!    [`lte_serve::SessionEngine::run_sessions`] wraps): one shard, every
//!    session admitted immediately, each tick's pool-scoring fused into a
//!    single wide call and the encoded pool cached per pipeline epoch,
//! 3. **fused_sharded** — one service serving SDSS *and* CAR concurrently;
//!    each tick's fused call spans both shards.
//!
//! Outcomes are asserted bitwise-equal between (1) and (2) before any
//! number is reported — the fused path must beat the reference on
//! sessions/s *without touching a single output bit*.
//!
//! Like `pool_scoring`, this writes a committed snapshot
//! (`BENCH_throughput.json`) that future PRs regenerate on comparable
//! hardware; absolute numbers move with the machine, the
//! `fused.speedup_vs_per_session` ratio is the stable signal. `--smoke`
//! shrinks training and session count so CI can drive the full path in
//! seconds.

use crate::env::BenchEnv;
use crate::report::{fmt_secs, Report};
use crate::runner::{build_pipeline, default_threads, eval_pool, parallel_map};
use lte_core::explore::Variant;
use lte_core::pipeline::LtePipeline;
use lte_data::rng::derive_seed;
use lte_serve::{ScoringService, SessionEngine, SessionOutcome, SessionRequest, ThroughputStats};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Concurrent sessions in the full-scale run (the ISSUE gate: ≥ 64).
const SESSIONS: usize = 64;
/// Concurrent sessions under `--smoke`.
const SMOKE_SESSIONS: usize = 8;

/// One fused run: throughput stats plus the service's batch-shape counters.
struct FusedRun {
    stats: ThroughputStats,
    outcomes: Vec<SessionOutcome>,
    ticks: u64,
    fused_calls: u64,
    max_fused_requests: usize,
    max_fused_rows: usize,
    mean_fused_rows: f64,
}

/// Drive `requests` through a single-shard [`ScoringService`].
fn run_fused(
    pipeline: &Arc<LtePipeline>,
    requests: &[SessionRequest],
    pool: &[Vec<f64>],
    workers: usize,
) -> FusedRun {
    let t0 = Instant::now();
    let mut service = ScoringService::builder()
        .workers(workers)
        .shard("sdss", Arc::clone(pipeline), pool.to_vec())
        .build();
    for req in requests {
        service.submit("sdss", req.clone());
    }
    service.run_until_idle();
    let mut done = service.take_completed();
    done.sort_by_key(|o| o.submit_seq);
    let outcomes: Vec<SessionOutcome> = done
        .into_iter()
        .map(|o| SessionOutcome {
            id: o.id,
            outcome: o.outcome,
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let stats = ThroughputStats::collect(&outcomes, wall, workers);
    let s = service.stats();
    FusedRun {
        stats,
        outcomes,
        ticks: s.ticks,
        fused_calls: s.fused_calls,
        max_fused_requests: s.max_fused_requests,
        max_fused_rows: s.max_fused_rows,
        mean_fused_rows: s.mean_fused_rows(),
    }
}

/// Drive `requests` through the single-session reference, one session per
/// `parallel_map` item.
fn run_reference(
    pipeline: &LtePipeline,
    requests: &[SessionRequest],
    pool: &[Vec<f64>],
    workers: usize,
) -> (Vec<SessionOutcome>, ThroughputStats) {
    let t0 = Instant::now();
    let outcomes = parallel_map(requests.to_vec(), workers, |req| SessionOutcome {
        id: req.id,
        outcome: pipeline.explore(&req.truth, pool, req.variant, req.seed),
    });
    let stats = ThroughputStats::collect(&outcomes, t0.elapsed().as_secs_f64(), workers);
    (outcomes, stats)
}

/// Run the reference vs fused comparison and write the snapshot.
pub fn run(env: &BenchEnv, out: Option<&Path>, smoke: bool) {
    let workers = default_threads();
    let sessions = if smoke { SMOKE_SESSIONS } else { SESSIONS };
    let pool_rows = if smoke { 400 } else { env.eval_size };
    let mode = env.convex_mode();

    let sdss_table = env.table("sdss");
    let mut cfg = env.lte_config(30);
    cfg.task.mode = mode;
    if smoke {
        cfg.train.n_tasks = 60;
        cfg.train.epochs = 1;
    }
    let (pipeline, _) = build_pipeline(sdss_table, 4, cfg.clone(), derive_seed(env.seed, 900));
    let pipeline = Arc::new(pipeline);
    let pool = eval_pool(sdss_table, pool_rows, derive_seed(env.seed, 901));

    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), workers);
    let requests = engine.simulate_requests(
        sessions,
        mode,
        0.2,
        0.9,
        Variant::MetaStar,
        derive_seed(env.seed, 910),
    );

    let (solo_outcomes, solo) = run_reference(&pipeline, &requests, &pool, workers);
    let fused = run_fused(&pipeline, &requests, &pool, workers);

    // The fused path is only a throughput optimization: before reporting a
    // single number, hold it to the bitwise contract the integration tests
    // pin (here at bench scale, on the bench's exact request set).
    assert_eq!(solo_outcomes.len(), fused.outcomes.len());
    for (a, b) in solo_outcomes.iter().zip(&fused.outcomes) {
        assert_eq!(a.id, b.id, "fused path reordered sessions");
        assert_eq!(
            a.outcome.confusion, b.outcome.confusion,
            "fused path changed session {} outputs",
            a.id
        );
    }

    // Sharded: the same service class serving SDSS and CAR concurrently.
    let car_table = env.table("car");
    let (car_pipeline, _) = build_pipeline(car_table, 4, cfg, derive_seed(env.seed, 902));
    let car_pipeline = Arc::new(car_pipeline);
    let car_pool = eval_pool(car_table, pool_rows, derive_seed(env.seed, 903));
    let car_engine = SessionEngine::with_workers(Arc::clone(&car_pipeline), workers);
    let car_requests = car_engine.simulate_requests(
        sessions / 2,
        mode,
        0.2,
        0.9,
        Variant::MetaStar,
        derive_seed(env.seed, 911),
    );

    let t0 = Instant::now();
    let mut service = ScoringService::builder()
        .workers(workers)
        .shard("sdss", Arc::clone(&pipeline), pool.clone())
        .shard("car", Arc::clone(&car_pipeline), car_pool)
        .build();
    for (s, c) in requests.iter().take(sessions / 2).zip(&car_requests) {
        service.submit("sdss", s.clone());
        service.submit("car", c.clone());
    }
    service.run_until_idle();
    let sharded_sessions = service.stats().sessions_completed;
    let sharded_wall = t0.elapsed().as_secs_f64();
    let sharded = service.stats().clone();

    let speedup = fused.stats.sessions_per_sec / solo.sessions_per_sec;
    let mut report = Report::new(
        format!(
            "Serving throughput ({sessions} Meta* sessions, SDSS 4D, {workers} worker(s){})",
            if smoke { ", smoke" } else { "" }
        ),
        &[
            "path",
            "sessions",
            "sessions/s",
            "round p50",
            "round p95",
            "wall",
            "max fused width",
        ],
    );
    report.push_row(vec![
        "per_session".to_string(),
        sessions.to_string(),
        format!("{:.2}", solo.sessions_per_sec),
        fmt_secs(solo.round_p50_seconds),
        fmt_secs(solo.round_p95_seconds),
        fmt_secs(solo.wall_seconds),
        "-".to_string(),
    ]);
    report.push_row(vec![
        "fused".to_string(),
        sessions.to_string(),
        format!("{:.2}", fused.stats.sessions_per_sec),
        fmt_secs(fused.stats.round_p50_seconds),
        fmt_secs(fused.stats.round_p95_seconds),
        fmt_secs(fused.stats.wall_seconds),
        format!(
            "{} reqs / {} rows",
            fused.max_fused_requests, fused.max_fused_rows
        ),
    ]);
    report.push_row(vec![
        "fused_sharded".to_string(),
        sharded_sessions.to_string(),
        format!("{:.2}", sharded_sessions as f64 / sharded_wall),
        "-".to_string(),
        "-".to_string(),
        fmt_secs(sharded_wall),
        format!(
            "{} reqs / {} rows",
            sharded.max_fused_requests, sharded.max_fused_rows
        ),
    ]);
    report.print();
    println!("fused speedup vs per_session: {speedup:.2}×");
    if let Some(dir) = out {
        let _ = report.write_csv(dir);
    }

    let json = snapshot_json(
        smoke,
        sessions,
        workers,
        pool_rows,
        &mode.to_string(),
        &solo,
        &fused,
        speedup,
        sharded_sessions,
        sharded_wall,
        &sharded,
    );
    let path = out
        .map(|d| d.join("BENCH_throughput.json"))
        .unwrap_or_else(|| Path::new("BENCH_throughput.json").to_path_buf());
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("snapshot written to {}", path.display()),
        Err(e) => eprintln!("could not write snapshot {}: {e}", path.display()),
    }
}

/// Hand-rolled JSON (the workspace deliberately has no serde). Keys are
/// schema-checked by CI against the committed `BENCH_throughput.json`.
#[allow(clippy::too_many_arguments)]
fn snapshot_json(
    smoke: bool,
    sessions: usize,
    workers: usize,
    pool_rows: usize,
    mode: &str,
    solo: &ThroughputStats,
    fused: &FusedRun,
    speedup: f64,
    sharded_sessions: u64,
    sharded_wall: f64,
    sharded: &lte_serve::ServiceStats,
) -> String {
    let ms = |secs: f64| secs * 1e3;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"throughput\",");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"sessions\": {sessions},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    let _ = writeln!(s, "  \"threads\": {},", default_threads());
    let _ = writeln!(s, "  \"cpu_features\": \"{}\",", lte_nn::cpu_features());
    let _ = writeln!(s, "  \"pool_rows\": {pool_rows},");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"variant\": \"Meta*\",");
    let _ = writeln!(s, "  \"per_session\": {{");
    let _ = writeln!(s, "    \"sessions_per_sec\": {:.4},", solo.sessions_per_sec);
    let _ = writeln!(s, "    \"wall_seconds\": {:.4},", solo.wall_seconds);
    let _ = writeln!(
        s,
        "    \"round_p50_ms\": {:.4},",
        ms(solo.round_p50_seconds)
    );
    let _ = writeln!(s, "    \"round_p95_ms\": {:.4}", ms(solo.round_p95_seconds));
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"fused\": {{");
    let _ = writeln!(
        s,
        "    \"sessions_per_sec\": {:.4},",
        fused.stats.sessions_per_sec
    );
    let _ = writeln!(s, "    \"wall_seconds\": {:.4},", fused.stats.wall_seconds);
    let _ = writeln!(
        s,
        "    \"round_p50_ms\": {:.4},",
        ms(fused.stats.round_p50_seconds)
    );
    let _ = writeln!(
        s,
        "    \"round_p95_ms\": {:.4},",
        ms(fused.stats.round_p95_seconds)
    );
    let _ = writeln!(s, "    \"ticks\": {},", fused.ticks);
    let _ = writeln!(s, "    \"fused_calls\": {},", fused.fused_calls);
    let _ = writeln!(
        s,
        "    \"max_fused_requests\": {},",
        fused.max_fused_requests
    );
    let _ = writeln!(s, "    \"max_fused_rows\": {},", fused.max_fused_rows);
    let _ = writeln!(s, "    \"mean_fused_rows\": {:.1},", fused.mean_fused_rows);
    let _ = writeln!(s, "    \"speedup_vs_per_session\": {speedup:.3}");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"sharded\": {{");
    let _ = writeln!(s, "    \"shards\": 2,");
    let _ = writeln!(s, "    \"sessions\": {sharded_sessions},");
    let _ = writeln!(
        s,
        "    \"sessions_per_sec\": {:.4},",
        sharded_sessions as f64 / sharded_wall
    );
    let _ = writeln!(s, "    \"wall_seconds\": {sharded_wall:.4},");
    let _ = writeln!(
        s,
        "    \"max_fused_requests\": {},",
        sharded.max_fused_requests
    );
    let _ = writeln!(s, "    \"max_fused_rows\": {}", sharded.max_fused_rows);
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}

/// Dispatch a CLI subcommand; unknown names list the options and exit.
pub fn subcommand(env: &BenchEnv, out: Option<&Path>, smoke: bool, sub: &str) {
    match sub {
        "all" => run(env, out, smoke),
        other => {
            eprintln!("unknown subcommand `{other}`; available: all");
            std::process::exit(2);
        }
    }
}
