//! Cross-session batched scoring: the tick-driven [`ScoringService`].
//!
//! The single-session reference ([`LtePipeline::explore`]) runs one
//! session end to end: every round re-encodes the retrieval pool and
//! issues its own small
//! [`Scorer::score`](lte_core::scorer::Scorer::score) call. At serving
//! scale (64+ concurrent sessions over the same pool) that shape wastes
//! the batch structure twice — the pool is projected and encoded once *per
//! session per round*, and the matmul-heavy scoring runs as many narrow
//! calls instead of one wide one. The service is the serving layer's one
//! round loop: [`crate::SessionEngine`]'s batch methods wrap it.
//!
//! The service inverts the loop. Time advances in **ticks**; each tick:
//!
//! 1. **admit** — promote parked sessions FIFO up to the capacity budget
//!    ([`crate::admission::AdmissionQueue`]); submission itself never
//!    blocks a worker.
//! 2. **refresh** — load each in-use shard's [`SwapCell`] **once** and,
//!    when the epoch moved, rebuild the shard's cached [`EncodedPool`].
//!    Loading once per tick is the no-torn-read guarantee: every round of
//!    every session sees exactly one `(pipeline, epoch)` pair.
//! 3. **prepare** — run the label-and-adapt half of one round per active
//!    session ([`lte_core::explore::prepare_round`]) across the worker
//!    pool.
//! 4. **score** — fuse every session's pool-scoring request into a single
//!    [`lte_core::scorer::score_fused_with`] call. Scores are
//!    bit-identical to the per-session calls (row independence), so fusing
//!    is invisible to outcomes.
//! 5. **finish** — predictions and `Meta*` revision
//!    ([`lte_core::explore::finish_round`]), then the round is graded
//!    against its ground-truth region and folded into the session's
//!    [`UirFold`] — all inside the parallel job, so the serial remainder
//!    is O(1) per session.
//! 6. **drain** — sessions whose last subspace finished emit a
//!    [`ServiceOutcome`] (their fold's conjunctive confusion; the pool is
//!    not re-labelled) and release their admission slot.
//!
//! Everything that affects outcomes is counter-based (submission order,
//! tick index, per-round seed stream `derive_seed(seed, 2000 + round)` —
//! the same stream [`lte_core::pipeline::LtePipeline::explore`] uses), so
//! results are bit-identical at any worker count; only measured timing
//! varies. Shards make one service serve several datasets (SDSS and Cars)
//! concurrently: requests are grouped per shard but *scored* in one fused
//! batch across all of them.

use crate::admission::{AdmissionQueue, AdmissionState};
use crate::engine::SessionRequest;
use crate::swap::SwapCell;
use lte_core::explore::{finish_round, prepare_round, PreparedRound, Variant};
use lte_core::oracle::RegionOracle;
use lte_core::parallel::{default_threads, parallel_map};
use lte_core::pipeline::{EncodedPool, LtePipeline, UirFold, UirOutcome};
use lte_core::routing::{PipelineRegistry, Router, RoutingDecision};
use lte_core::scorer::{score_fused_with, FusedRequest, ScoreRequest};
use lte_data::rng::derive_seed;
use lte_data::subspace::Subspace;
use std::sync::Arc;
use std::time::Instant;

/// One dataset served by the service: a swappable pipeline, its retrieval
/// pool, and the per-epoch encoded-pool cache.
#[derive(Debug)]
struct Shard {
    name: String,
    cell: Arc<SwapCell>,
    eval_rows: Vec<Vec<f64>>,
    /// The decomposition every epoch of the shard must keep: submitted
    /// truths and swapped-in pipelines are checked against it.
    subspaces: Vec<Subspace>,
    cache: Option<ShardCache>,
}

/// The encoded pool for one `(shard, pipeline epoch)` — rebuilt only when
/// the shard's [`SwapCell`] epoch moves.
#[derive(Debug)]
struct ShardCache {
    epoch: u64,
    pipeline: Arc<LtePipeline>,
    pool: EncodedPool,
}

/// A family of shards fed by one [`Router`]: every entry of the registry
/// became an internal shard at [`ScoringService::add_routed_shard`] time,
/// and [`ScoringService::submit_routed`] picks among them per session.
#[derive(Debug)]
struct RoutedGroup {
    name: String,
    registry: Arc<PipelineRegistry>,
    router: Router,
    eval_rows: Vec<Vec<f64>>,
    /// Internal shard index for each registry entry, in entry order.
    shards: Vec<usize>,
}

/// A session waiting in the admission queue.
#[derive(Debug)]
struct PendingSession {
    shard: usize,
    request: SessionRequest,
    routing: Option<RoutingDecision>,
    submit_seq: u64,
    submit_tick: u64,
}

/// A session currently advancing one subspace round per tick.
#[derive(Debug)]
struct ActiveSession {
    shard: usize,
    request: SessionRequest,
    routing: Option<RoutingDecision>,
    submit_seq: u64,
    submit_tick: u64,
    admitted_tick: u64,
    round: usize,
    fold: UirFold,
    epochs: Vec<u64>,
}

/// A completed session, with the service-side provenance a
/// [`crate::SessionOutcome`] drops: which pipeline epoch served each round
/// and when the session moved through the queue.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// The request's identifier.
    pub id: u64,
    /// Index of the shard that served the session.
    pub shard: usize,
    /// The full exploration result, bit-identical to what
    /// [`LtePipeline::explore`] would produce against the epoch-matched
    /// pipelines.
    pub outcome: UirOutcome,
    /// The pipeline epoch each round ran against — exactly one per round;
    /// the hot-swap tests assert there is never a torn epoch.
    pub epochs: Vec<u64>,
    /// Global submission sequence number (FIFO position).
    pub submit_seq: u64,
    /// Tick at which the session was submitted.
    pub submit_tick: u64,
    /// Tick at which the session was admitted (== `submit_tick` when it
    /// was never parked).
    pub admitted_tick: u64,
    /// Tick at which the session's last round finished.
    pub completed_tick: u64,
    /// How the session was routed — `Some` for sessions submitted through
    /// [`ScoringService::submit_routed`], `None` for plain shard
    /// submissions. The decision (and its explanation) is computed at
    /// submit time and carried through unchanged.
    pub routing: Option<RoutingDecision>,
}

/// What one tick did — returned by [`ScoringService::tick`] so callers
/// (and the throughput bench) can see the fused batch shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// The tick index (0-based).
    pub tick: u64,
    /// Sessions promoted from the parked queue this tick.
    pub admitted: usize,
    /// Rounds advanced (== active sessions this tick).
    pub rounds: usize,
    /// Scoring requests fused into the single batched call.
    pub fused_requests: usize,
    /// Total pool rows across the fused call.
    pub fused_rows: usize,
    /// Sessions that completed this tick.
    pub completed: usize,
    /// Sessions still parked after this tick.
    pub parked: usize,
}

/// Lifetime counters for the service — fused batch widths, rounds, and
/// scoring time, for capacity planning and the throughput bench.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Rounds advanced across all sessions.
    pub rounds: u64,
    /// Fused scoring calls issued (at most one per tick).
    pub fused_calls: u64,
    /// Pool rows scored across all fused calls.
    pub fused_rows_total: u64,
    /// Widest fused call, in pool rows.
    pub max_fused_rows: usize,
    /// Widest fused call, in session requests.
    pub max_fused_requests: usize,
    /// Wall-clock seconds inside fused scoring calls.
    pub score_seconds: f64,
    /// Sessions completed.
    pub sessions_completed: u64,
    /// High-water mark of concurrently active sessions.
    pub peak_active: usize,
}

impl ServiceStats {
    /// Mean pool rows per fused scoring call.
    pub fn mean_fused_rows(&self) -> f64 {
        if self.fused_calls == 0 {
            0.0
        } else {
            self.fused_rows_total as f64 / self.fused_calls as f64
        }
    }
}

/// A routed-group registration queued by the builder: group name,
/// registry, router, and the group's full-space eval rows.
type RoutedSpec = (String, Arc<PipelineRegistry>, Router, Vec<Vec<f64>>);

/// Builds a [`ScoringService`] without constructor creep: worker count,
/// admission capacity, plain shards, and routed shard groups all in one
/// place.
///
/// ```no_run
/// use lte_core::{LtePipeline, PipelineRegistry, Router};
/// use lte_serve::ScoringService;
/// use std::sync::Arc;
///
/// fn build_service(
///     pipeline: Arc<LtePipeline>,
///     registry: Arc<PipelineRegistry>,
///     router: Router,
///     rows: Vec<Vec<f64>>,
/// ) -> ScoringService {
///     ScoringService::builder()
///         .workers(4)
///         .capacity(64)
///         .shard("sdss", pipeline, rows.clone())
///         .routed_shard("analyst", registry, router, rows)
///         .build()
/// }
/// ```
#[derive(Debug)]
pub struct ScoringServiceBuilder {
    workers: usize,
    capacity: usize,
    shards: Vec<(String, Arc<LtePipeline>, Vec<Vec<f64>>)>,
    routed: Vec<RoutedSpec>,
}

impl Default for ScoringServiceBuilder {
    fn default() -> Self {
        Self {
            workers: default_threads(),
            capacity: usize::MAX,
            shards: Vec::new(),
            routed: Vec::new(),
        }
    }
}

impl ScoringServiceBuilder {
    /// Worker threads for prepare/score/finish (clamped to at least 1;
    /// defaults to [`default_threads`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Admit at most `max_active` concurrent sessions; further
    /// submissions park FIFO (defaults to unbounded).
    pub fn capacity(mut self, max_active: usize) -> Self {
        self.capacity = max_active;
        self
    }

    /// Register a plain dataset shard (see [`ScoringService::add_shard`]).
    pub fn shard(
        mut self,
        name: &str,
        pipeline: Arc<LtePipeline>,
        eval_rows: Vec<Vec<f64>>,
    ) -> Self {
        self.shards.push((name.to_string(), pipeline, eval_rows));
        self
    }

    /// Register a routed shard group (see
    /// [`ScoringService::add_routed_shard`]).
    pub fn routed_shard(
        mut self,
        name: &str,
        registry: Arc<PipelineRegistry>,
        router: Router,
        eval_rows: Vec<Vec<f64>>,
    ) -> Self {
        self.routed
            .push((name.to_string(), registry, router, eval_rows));
        self
    }

    /// Build the service. Shards keep registration order; routed groups
    /// register after plain shards.
    pub fn build(self) -> ScoringService {
        let mut service = ScoringService {
            workers: self.workers,
            admission: AdmissionQueue::bounded(self.capacity),
            shards: Vec::new(),
            groups: Vec::new(),
            active: Vec::new(),
            completed: Vec::new(),
            tick: 0,
            submit_seq: 0,
            stats: ServiceStats::default(),
        };
        for (name, pipeline, rows) in self.shards {
            service.add_shard(&name, pipeline, rows);
        }
        for (name, registry, router, rows) in self.routed {
            service.add_routed_shard(&name, registry, router, rows);
        }
        service
    }
}

/// The cross-session batched scoring service. See the module docs for the
/// tick loop; see `docs/SERVING.md` for the serving architecture.
#[derive(Debug)]
pub struct ScoringService {
    workers: usize,
    admission: AdmissionQueue<PendingSession>,
    shards: Vec<Shard>,
    groups: Vec<RoutedGroup>,
    active: Vec<ActiveSession>,
    completed: Vec<ServiceOutcome>,
    tick: u64,
    submit_seq: u64,
    stats: ServiceStats,
}

impl ScoringService {
    /// Start building a service: [`ScoringServiceBuilder`] gathers worker
    /// count, capacity, shards, and routed groups before construction.
    pub fn builder() -> ScoringServiceBuilder {
        ScoringServiceBuilder::default()
    }

    /// The worker count in force.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Register a dataset shard: a named pipeline plus the retrieval pool
    /// its sessions predict over. Returns the shard index used by
    /// [`ScoringService::submit`]. The pipeline goes behind a fresh
    /// [`SwapCell`] at epoch 0; grab [`ScoringService::swap_handle`] to
    /// hot-swap it later.
    pub fn add_shard(
        &mut self,
        name: &str,
        pipeline: Arc<LtePipeline>,
        eval_rows: Vec<Vec<f64>>,
    ) -> usize {
        assert!(
            self.shard_index(name).is_none(),
            "shard {name:?} already registered"
        );
        self.shards.push(Shard {
            name: name.to_string(),
            subspaces: pipeline.subspaces().to_vec(),
            cell: Arc::new(SwapCell::new(pipeline)),
            eval_rows,
            cache: None,
        });
        self.shards.len() - 1
    }

    /// Register a routed shard group: every entry of `registry` becomes an
    /// internal shard named `"{name}/{entry}"` (same retrieval pool, own
    /// [`SwapCell`]), and [`ScoringService::submit_routed`] lets the
    /// [`Router`] pick among them per session. Returns the group index.
    ///
    /// Routing composes with everything the plain shards already do: the
    /// chosen entry's rounds are fused into the same per-tick scoring call
    /// as every other session, its encoded pool is cached per epoch, and
    /// each entry can still be hot-swapped through
    /// [`ScoringService::swap_handle`] on its internal shard.
    ///
    /// # Panics
    /// Panics when the registry is empty or a name collides.
    pub fn add_routed_shard(
        &mut self,
        name: &str,
        registry: Arc<PipelineRegistry>,
        router: Router,
        eval_rows: Vec<Vec<f64>>,
    ) -> usize {
        assert!(
            !registry.is_empty(),
            "routed shard {name:?} needs a non-empty registry"
        );
        assert!(
            self.group_index(name).is_none(),
            "routed shard {name:?} already registered"
        );
        let shards: Vec<usize> = registry
            .entries()
            .iter()
            .map(|entry| {
                self.add_shard(
                    &format!("{name}/{}", entry.name()),
                    Arc::clone(entry.pipeline()),
                    eval_rows.clone(),
                )
            })
            .collect();
        self.groups.push(RoutedGroup {
            name: name.to_string(),
            registry,
            router,
            eval_rows,
            shards,
        });
        self.groups.len() - 1
    }

    /// Look a shard up by name.
    pub fn shard_index(&self, name: &str) -> Option<usize> {
        self.shards.iter().position(|s| s.name == name)
    }

    /// Look a routed group up by name.
    pub fn group_index(&self, name: &str) -> Option<usize> {
        self.groups.iter().position(|g| g.name == name)
    }

    /// A shard's name.
    pub fn shard_name(&self, shard: usize) -> &str {
        &self.shards[shard].name
    }

    /// The shard's swap cell, for an external retrainer thread: swap a new
    /// pipeline in at any time; in-flight sessions pick it up at the next
    /// tick boundary, never mid-round.
    pub fn swap_handle(&self, shard: usize) -> Arc<SwapCell> {
        Arc::clone(&self.shards[shard].cell)
    }

    /// Submit a session to a shard. Never blocks and never occupies a
    /// worker: the session is parked FIFO and joins a tick when capacity
    /// allows (the returned [`AdmissionState`] says which happens at the
    /// next boundary).
    ///
    /// # Panics
    /// Panics when the shard name is unknown or the request's ground truth
    /// does not have one region per shard subspace, in the shard's order.
    pub fn submit(&mut self, shard: &str, request: SessionRequest) -> AdmissionState {
        let shard = self
            .shard_index(shard)
            .unwrap_or_else(|| panic!("unknown shard {shard:?}"));
        self.submit_to(shard, request, None)
    }

    /// Submit a session to a routed group: the group's [`Router`] scores
    /// the session's ground truth against the registry and the session is
    /// parked on the chosen entry's internal shard. The full
    /// [`RoutingDecision`] (with its explanation) is returned immediately
    /// and echoed on the session's [`ServiceOutcome`].
    ///
    /// The decision depends only on the router seed, the session's truth,
    /// and the group's retrieval pool — never on the worker count, tick
    /// phase, or other in-flight sessions.
    ///
    /// # Panics
    /// Panics when the group name is unknown or no registry entry is
    /// compatible with the session's subspace decomposition.
    pub fn submit_routed(
        &mut self,
        group: &str,
        request: SessionRequest,
    ) -> (AdmissionState, RoutingDecision) {
        let g = self
            .group_index(group)
            .unwrap_or_else(|| panic!("unknown routed shard {group:?}"));
        let g = &self.groups[g];
        let decision = g.router.route(&g.registry, &request.truth, &g.eval_rows);
        let shard = g.shards[decision.chosen];
        let state = self.submit_to(shard, request, Some(decision.clone()));
        (state, decision)
    }

    fn submit_to(
        &mut self,
        shard: usize,
        request: SessionRequest,
        routing: Option<RoutingDecision>,
    ) -> AdmissionState {
        assert!(
            request
                .truth
                .matches_subspaces(&self.shards[shard].subspaces),
            "one ground-truth region per shard subspace required, in shard order"
        );
        let pending = PendingSession {
            shard,
            request,
            routing,
            submit_seq: self.submit_seq,
            submit_tick: self.tick,
        };
        self.submit_seq += 1;
        self.admission.submit(pending)
    }

    /// Sessions currently parked.
    pub fn parked(&self) -> usize {
        self.admission.parked()
    }

    /// High-water mark of the parked queue.
    pub fn peak_parked(&self) -> usize {
        self.admission.peak_parked()
    }

    /// Sessions currently active.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// True when no session is active or parked.
    pub fn is_idle(&self) -> bool {
        self.admission.is_idle()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Completed sessions, in completion order (FIFO within a tick).
    pub fn completed(&self) -> &[ServiceOutcome] {
        &self.completed
    }

    /// Drain the completed sessions (completion order; sort by
    /// `submit_seq` to recover submission order).
    pub fn take_completed(&mut self) -> Vec<ServiceOutcome> {
        std::mem::take(&mut self.completed)
    }

    /// Run one tick: admit, refresh shard caches, advance every active
    /// session by one subspace round through a single fused scoring call,
    /// and drain completions.
    pub fn tick(&mut self) -> TickReport {
        let tick = self.tick;

        // (1) Admit parked sessions FIFO up to capacity.
        let newly = self.admission.admit();
        let admitted = newly.len();
        for p in newly {
            let rows = self.shards[p.shard].eval_rows.len();
            self.active.push(ActiveSession {
                shard: p.shard,
                request: p.request,
                routing: p.routing,
                submit_seq: p.submit_seq,
                submit_tick: p.submit_tick,
                admitted_tick: tick,
                round: 0,
                fold: UirFold::new(rows),
                epochs: Vec::new(),
            });
        }
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());

        // (2) Refresh in-use shard caches: one SwapCell load per shard per
        // tick, so every round this tick sees exactly one (pipeline, epoch).
        let mut in_use = vec![false; self.shards.len()];
        for s in &self.active {
            in_use[s.shard] = true;
        }
        for (shard, used) in self.shards.iter_mut().zip(&in_use) {
            if !used {
                continue;
            }
            let (pipeline, epoch) = shard.cell.load();
            if shard.cache.as_ref().map(|c| c.epoch) != Some(epoch) {
                assert_eq!(
                    pipeline.subspaces(),
                    &shard.subspaces[..],
                    "hot-swapped pipeline changed the subspace decomposition"
                );
                let pool = pipeline.encode_pool(&shard.eval_rows);
                shard.cache = Some(ShardCache {
                    epoch,
                    pipeline,
                    pool,
                });
            }
        }

        // (3) Prepare one round per active session across the worker pool.
        // Each session's fold travels with its round into the finish job
        // and comes back with the round folded in.
        let folds: Vec<UirFold> = self
            .active
            .iter_mut()
            .map(|s| std::mem::take(&mut s.fold))
            .collect();
        let active = &self.active;
        let shards = &self.shards;
        let prepared: Vec<(usize, PreparedRound)> =
            parallel_map((0..active.len()).collect(), self.workers, move |idx| {
                let s = &active[idx];
                let cache = shards[s.shard].cache.as_ref().expect("cache refreshed");
                let pipeline = &cache.pipeline;
                let ctx = &pipeline.contexts()[s.round];
                let region = &s.request.truth.parts()[s.round].1;
                let oracle = RegionOracle::new(region.clone());
                let learner = match s.request.variant {
                    Variant::Basic => None,
                    _ => Some(&pipeline.learners()[s.round]),
                };
                let prepared = prepare_round(
                    ctx,
                    learner,
                    &oracle,
                    pipeline.config(),
                    s.request.variant,
                    derive_seed(s.request.seed, 2000 + s.round as u64),
                );
                (idx, prepared)
            });

        // (4) One fused scoring call for every session's pool request.
        let requests: Vec<FusedRequest<'_>> = prepared
            .iter()
            .map(|(idx, p)| {
                let s = &active[*idx];
                let cache = shards[s.shard].cache.as_ref().expect("cache refreshed");
                FusedRequest {
                    scorer: &p.classifier,
                    request: ScoreRequest::new(
                        &p.v_r,
                        cache.pool.encoded(s.round),
                        cache.pipeline.config().online.precision,
                    ),
                }
            })
            .collect();
        let fused_requests = requests.len();
        let fused_rows: usize = requests.iter().map(|r| r.request.rows.len()).sum();
        let t0 = Instant::now();
        let scores = score_fused_with(&requests, self.workers);
        let score_seconds = t0.elapsed().as_secs_f64();
        drop(requests);

        // (5) Finish each round (predictions + Meta* revision) and fold it,
        // graded against its ground-truth region, into the session — in
        // parallel. The measured scoring time is attributed per session by
        // its share of the fused rows — a report-only split; outcomes
        // never depend on it.
        let finish_jobs: Vec<(usize, PreparedRound, Vec<f64>, f64, UirFold)> = prepared
            .into_iter()
            .zip(scores)
            .zip(folds)
            .map(|(((idx, p), s_scores), fold)| {
                let share = if fused_rows > 0 {
                    score_seconds * s_scores.len() as f64 / fused_rows as f64
                } else {
                    0.0
                };
                (idx, p, s_scores, share, fold)
            })
            .collect();
        let finished: Vec<UirFold> = parallel_map(
            finish_jobs,
            self.workers,
            move |(idx, p, s_scores, share, mut fold)| {
                let s = &active[idx];
                let cache = shards[s.shard].cache.as_ref().expect("cache refreshed");
                let pipeline = &cache.pipeline;
                let outcome = finish_round(
                    &pipeline.contexts()[s.round],
                    p,
                    cache.pool.proj(s.round),
                    s_scores,
                    pipeline.config(),
                    s.request.variant,
                    share,
                );
                let region = &s.request.truth.parts()[s.round].1;
                fold.push(outcome, region, cache.pool.proj(s.round));
                fold
            },
        );

        // Serial bookkeeping: O(1) per session.
        let shards = &self.shards;
        for (s, fold) in self.active.iter_mut().zip(finished) {
            let cache = shards[s.shard].cache.as_ref().expect("cache refreshed");
            s.fold = fold;
            s.epochs.push(cache.epoch);
            s.round += 1;
        }

        // (6) Drain sessions whose last subspace just finished.
        let mut completed = 0usize;
        let mut still_active = Vec::with_capacity(self.active.len());
        for s in std::mem::take(&mut self.active) {
            let shard = &shards[s.shard];
            if s.round < shard.subspaces.len() {
                still_active.push(s);
                continue;
            }
            let cache = shard.cache.as_ref().expect("cache refreshed");
            self.completed.push(ServiceOutcome {
                id: s.request.id,
                shard: s.shard,
                outcome: s.fold.finish(cache.pipeline.config().budget()),
                epochs: s.epochs,
                submit_seq: s.submit_seq,
                submit_tick: s.submit_tick,
                admitted_tick: s.admitted_tick,
                completed_tick: tick,
                routing: s.routing,
            });
            completed += 1;
        }
        self.active = still_active;
        self.admission.release(completed);

        // Counters.
        let rounds = fused_requests;
        self.stats.ticks += 1;
        self.stats.rounds += rounds as u64;
        if fused_requests > 0 {
            self.stats.fused_calls += 1;
            self.stats.fused_rows_total += fused_rows as u64;
            self.stats.max_fused_rows = self.stats.max_fused_rows.max(fused_rows);
            self.stats.max_fused_requests = self.stats.max_fused_requests.max(fused_requests);
            self.stats.score_seconds += score_seconds;
        }
        self.stats.sessions_completed += completed as u64;
        self.tick += 1;

        TickReport {
            tick,
            admitted,
            rounds,
            fused_requests,
            fused_rows,
            completed,
            parked: self.admission.parked(),
        }
    }

    /// Tick until every submitted session has completed; returns the
    /// per-tick reports.
    pub fn run_until_idle(&mut self) -> Vec<TickReport> {
        let mut reports = Vec::new();
        while !self.is_idle() {
            reports.push(self.tick());
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SessionEngine;
    use lte_core::config::LteConfig;
    use lte_core::oracle::ConjunctiveOracle;
    use lte_core::uis::UisMode;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;

    fn tiny() -> (Arc<LtePipeline>, Vec<Vec<f64>>) {
        let table = generate_sdss(2000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 40;
        cfg.train.epochs = 1;
        let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 5);
        let pool: Vec<Vec<f64>> = (0..200).map(|i| table.row(i).unwrap()).collect();
        (Arc::new(p), pool)
    }

    #[test]
    fn capacity_parks_and_completes_in_fifo_waves() {
        let (pipeline, pool) = tiny();
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
        let requests = engine.simulate_requests(3, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 7);

        let mut service = ScoringService::builder()
            .workers(1)
            .capacity(2)
            .shard("sdss", Arc::clone(&pipeline), pool.clone())
            .build();
        assert_eq!(
            service.submit("sdss", requests[0].clone()),
            AdmissionState::Admitted
        );
        assert_eq!(
            service.submit("sdss", requests[1].clone()),
            AdmissionState::Admitted
        );
        assert_eq!(
            service.submit("sdss", requests[2].clone()),
            AdmissionState::Parked
        );

        let reports = service.run_until_idle();
        // 2 subspaces: wave one (sessions 0,1) takes ticks 0–1, then the
        // parked session runs ticks 2–3.
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].admitted, 2);
        assert_eq!(reports[0].parked, 1);
        assert_eq!(reports[1].completed, 2);
        assert_eq!(reports[2].admitted, 1);
        assert_eq!(reports[3].completed, 1);

        let done = service.take_completed();
        assert_eq!(done.len(), 3);
        assert_eq!(done[2].submit_tick, 0);
        assert_eq!(done[2].admitted_tick, 2, "parked until a slot freed");
        assert_eq!(done[2].completed_tick, 3);
        assert_eq!(service.stats().sessions_completed, 3);
        // All 3 submissions stage in the parked queue until the first tick
        // boundary — peak queue depth is 3, even though only 1 session
        // was parked *for capacity* after that tick.
        assert_eq!(service.peak_parked(), 3);
        // Each round saw epoch 0 (no swap happened).
        for o in &done {
            assert_eq!(o.epochs, vec![0, 0]);
        }
    }

    #[test]
    #[should_panic(expected = "unknown shard")]
    fn submitting_to_an_unknown_shard_panics() {
        let (pipeline, pool) = tiny();
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
        let req = engine
            .simulate_requests(1, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 7)
            .pop()
            .unwrap();
        let mut service = ScoringService::builder()
            .workers(1)
            .shard("sdss", pipeline, pool)
            .build();
        service.submit("cars", req);
    }

    #[test]
    #[should_panic(expected = "one ground-truth region per shard subspace")]
    fn submitting_a_truth_with_permuted_subspaces_panics() {
        let (pipeline, pool) = tiny();
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
        let mut req = engine
            .simulate_requests(1, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 7)
            .pop()
            .unwrap();
        // Same regions, same count — but in the wrong subspace order.
        let mut parts = req.truth.parts().to_vec();
        parts.reverse();
        req.truth = ConjunctiveOracle::new(parts);
        let mut service = ScoringService::builder()
            .workers(1)
            .shard("sdss", pipeline, pool)
            .build();
        service.submit("sdss", req);
    }

    #[test]
    #[should_panic(expected = "hot-swapped pipeline changed the subspace decomposition")]
    fn swapping_in_a_different_decomposition_panics() {
        let (pipeline, pool) = tiny();
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
        let requests = engine.simulate_requests(1, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 7);
        // The same trained parts with the subspaces permuted: the subspace
        // count is unchanged, the decomposition is not.
        fn reversed<T: Clone>(xs: &[T]) -> Vec<T> {
            xs.iter().rev().cloned().collect()
        }
        let permuted = LtePipeline::from_parts(
            pipeline.config().clone(),
            reversed(pipeline.subspaces()),
            reversed(pipeline.contexts()),
            reversed(pipeline.learners()),
        );
        let mut service = ScoringService::builder()
            .workers(1)
            .shard("sdss", pipeline, pool)
            .build();
        service.submit("sdss", requests[0].clone());
        service.tick();
        service.swap_handle(0).swap(Arc::new(permuted));
        service.tick();
    }
}
