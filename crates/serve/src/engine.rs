//! The session engine: N concurrent online explorations over one shared
//! pipeline, served by the [`ScoringService`] tick loop.

use crate::service::ScoringService;
use crate::stats::ThroughputStats;
use lte_core::explore::Variant;
use lte_core::oracle::ConjunctiveOracle;
use lte_core::parallel::default_threads;
use lte_core::pipeline::{LtePipeline, UirOutcome};
use lte_core::routing::{PipelineRegistry, Router, RoutingDecision};
use lte_core::uis::UisMode;
use lte_data::rng::derive_seed;
use std::sync::Arc;
use std::time::Instant;

/// One user's exploration session: who answers the labelling rounds (the
/// oracle), which LTE variant runs, and the seed driving the session's
/// random choices (the Δ initial tuples).
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Caller-chosen session identifier, echoed into the outcome.
    pub id: u64,
    /// The (simulated) user's ground-truth interest region.
    pub truth: ConjunctiveOracle,
    /// Which LTE variant to serve.
    pub variant: Variant,
    /// Session seed; two requests with equal seed, truth, and variant
    /// produce bit-identical outcomes.
    pub seed: u64,
}

/// The completed session: the full per-round exploration outcome.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The request's identifier.
    pub id: u64,
    /// The conjunctive exploration result (per-subspace rounds inside).
    pub outcome: UirOutcome,
}

/// One completed routed session: the outcome plus the routing decision
/// that picked its pipeline.
#[derive(Debug, Clone)]
pub struct RoutedSession {
    /// The session result, in the engine's plain shape.
    pub outcome: SessionOutcome,
    /// Which registry entry served it, and why (see
    /// [`RoutingDecision::explanation`]).
    pub decision: RoutingDecision,
}

/// A serving engine over one shared, immutable, meta-trained pipeline.
///
/// The pipeline sits behind an [`Arc`]: meta-trained parameters and
/// memories are read-only at serving time (online adaptation clones the
/// initialization per session; see [`lte_core::meta_learner::MetaLearner::adapt`]),
/// so any number of sessions can share them without locks.
#[derive(Debug, Clone)]
pub struct SessionEngine {
    pipeline: Arc<LtePipeline>,
    workers: usize,
}

impl SessionEngine {
    /// Engine over a shared pipeline with one worker per available core.
    pub fn new(pipeline: Arc<LtePipeline>) -> Self {
        Self::with_workers(pipeline, default_threads())
    }

    /// Engine with an explicit worker count (clamped to at least 1).
    pub fn with_workers(pipeline: Arc<LtePipeline>, workers: usize) -> Self {
        Self {
            pipeline,
            workers: workers.max(1),
        }
    }

    /// The worker count in force.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared pipeline.
    pub fn pipeline(&self) -> &LtePipeline {
        &self.pipeline
    }

    /// A clone of the shared pipeline handle — for building a
    /// [`crate::service::ScoringService`] (or a retrainer's
    /// [`crate::swap::SwapCell`]) over the same model.
    pub fn shared_pipeline(&self) -> Arc<LtePipeline> {
        Arc::clone(&self.pipeline)
    }

    /// Generate `n` simulated session requests: one ground-truth UIR each
    /// (selectivity-guarded like [`LtePipeline::generate_truth`]) with
    /// seeds derived from `base_seed`. Request `i` is identical across
    /// calls with the same arguments — the determinism tests rely on this.
    pub fn simulate_requests(
        &self,
        n: usize,
        mode: UisMode,
        min_sel: f64,
        max_sel: f64,
        variant: Variant,
        base_seed: u64,
    ) -> Vec<SessionRequest> {
        (0..n)
            .map(|i| SessionRequest {
                id: i as u64,
                truth: self.pipeline.generate_truth(
                    mode,
                    derive_seed(base_seed, 5_000 + i as u64),
                    min_sel,
                    max_sel,
                ),
                variant,
                seed: derive_seed(base_seed, 9_000 + i as u64),
            })
            .collect()
    }

    /// Run every session to completion through a one-shard
    /// [`ScoringService`] at this engine's worker count. Outcomes come back
    /// **in request order**, bit-identical to [`LtePipeline::explore`] on
    /// each request at any worker count; only the timing fields vary.
    pub fn run_sessions(
        &self,
        requests: Vec<SessionRequest>,
        eval_rows: &[Vec<f64>],
    ) -> Vec<SessionOutcome> {
        let mut service = ScoringService::builder()
            .workers(self.workers)
            .shard("default", self.shared_pipeline(), eval_rows.to_vec())
            .build();
        for req in requests {
            service.submit("default", req);
        }
        drain(service).map(|(outcome, _)| outcome).collect()
    }

    /// Serve every request through a [`PipelineRegistry`]: the router
    /// picks a pipeline per session (explained in each
    /// [`RoutedSession::decision`]) and the sessions run through the
    /// [`ScoringService`] tick loop at this engine's worker count.
    ///
    /// The engine's own pipeline is not consulted — the registry is the
    /// model library — but the worker pool and determinism contract are
    /// the engine's: outcomes come back in request order, bit-identical at
    /// any worker count. With a single-entry registry this degenerates to
    /// [`SessionEngine::run_sessions`] over that entry's pipeline,
    /// bitwise.
    pub fn run_sessions_routed(
        &self,
        requests: Vec<SessionRequest>,
        eval_rows: &[Vec<f64>],
        registry: Arc<PipelineRegistry>,
        router: Router,
    ) -> Vec<RoutedSession> {
        let mut service = ScoringService::builder()
            .workers(self.workers)
            .routed_shard("routed", registry, router, eval_rows.to_vec())
            .build();
        for req in requests {
            service.submit_routed("routed", req);
        }
        drain(service)
            .map(|(outcome, decision)| RoutedSession {
                outcome,
                decision: decision.expect("routed submissions carry a decision"),
            })
            .collect()
    }

    /// [`SessionEngine::run_sessions`] plus aggregate throughput/latency
    /// statistics for the batch.
    pub fn run_with_stats(
        &self,
        requests: Vec<SessionRequest>,
        eval_rows: &[Vec<f64>],
    ) -> (Vec<SessionOutcome>, ThroughputStats) {
        let t0 = Instant::now();
        let outcomes = self.run_sessions(requests, eval_rows);
        let wall = t0.elapsed().as_secs_f64();
        let stats = ThroughputStats::collect(&outcomes, wall, self.workers);
        (outcomes, stats)
    }
}

/// Tick `service` until idle and hand back its sessions in submission
/// order, each with the routing decision it was submitted under.
fn drain(
    mut service: ScoringService,
) -> impl Iterator<Item = (SessionOutcome, Option<RoutingDecision>)> {
    service.run_until_idle();
    let mut done = service.take_completed();
    done.sort_by_key(|o| o.submit_seq);
    done.into_iter().map(|o| {
        let outcome = SessionOutcome {
            id: o.id,
            outcome: o.outcome,
        };
        (outcome, o.routing)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_core::config::LteConfig;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;

    fn tiny_pipeline() -> (Arc<LtePipeline>, Vec<Vec<f64>>) {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 60;
        cfg.train.epochs = 1;
        let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 5);
        let pool: Vec<Vec<f64>> = (0..250).map(|i| table.row(i).unwrap()).collect();
        (Arc::new(p), pool)
    }

    #[test]
    fn eight_concurrent_sessions_match_single_session_runs() {
        let (pipeline, pool) = tiny_pipeline();
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 4);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for variant in [Variant::Meta, Variant::MetaStar] {
            let requests = engine.simulate_requests(8, UisMode::new(1, 10), 0.2, 0.9, variant, 77);
            assert_eq!(requests.len(), 8);

            let outcomes = engine.run_sessions(requests.clone(), &pool);
            assert_eq!(outcomes.len(), 8);
            for (req, got) in requests.into_iter().zip(&outcomes) {
                assert_eq!(req.id, got.id, "outcomes must keep request order");
                // The single-session reference every served session must
                // reproduce bit for bit.
                let solo = pipeline.explore(&req.truth, &pool, req.variant, req.seed);
                assert_eq!(solo.confusion, got.outcome.confusion, "{variant:?}");
                assert_eq!(solo.labels_used, got.outcome.labels_used, "{variant:?}");
                assert_eq!(
                    bits(&solo.per_subspace_f1),
                    bits(&got.outcome.per_subspace_f1),
                    "{variant:?}: per-subspace F1 must be bitwise equal"
                );
                for (a, b) in solo
                    .subspace_outcomes
                    .iter()
                    .zip(&got.outcome.subspace_outcomes)
                {
                    assert_eq!(a.predictions, b.predictions, "{variant:?}");
                    assert_eq!(a.cs_labels, b.cs_labels, "{variant:?}");
                    assert_eq!(
                        bits(&a.scores),
                        bits(&b.scores),
                        "{variant:?}: scores must be bitwise equal"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_cover_every_round() {
        let (pipeline, pool) = tiny_pipeline();
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 2);
        let requests =
            engine.simulate_requests(5, UisMode::new(1, 10), 0.2, 0.9, Variant::MetaStar, 3);
        let (outcomes, stats) = engine.run_with_stats(requests, &pool);
        assert_eq!(stats.sessions, 5);
        // One round per subspace per session.
        assert_eq!(stats.rounds, 5 * pipeline.subspaces().len());
        assert_eq!(stats.workers, 2);
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.sessions_per_sec > 0.0);
        assert!(stats.round_p95_seconds >= stats.round_p50_seconds);
        assert!(stats.round_p50_seconds > 0.0);
        assert_eq!(outcomes.len(), 5);
    }

    #[test]
    fn workers_clamp_to_one() {
        let (pipeline, _) = tiny_pipeline();
        assert_eq!(SessionEngine::with_workers(pipeline, 0).workers(), 1);
    }
}
