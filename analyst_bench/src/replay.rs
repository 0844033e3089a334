//! Replays the service's tick schedule through the public stage functions
//! — `encode_pool`, `prepare_round`, `score_fused_with`, `finish_round` —
//! with a span on every call, and checks the replayed sessions against the
//! service's outcomes bit for bit.

use crate::serve::SessionRecord;
use crate::setup::Inputs;
use crate::stats::digest;
use crate::trace::Tracer;
use lte_core::classifier::UisClassifier;
use lte_core::config::ScoringPrecision;
use lte_core::explore::{finish_round, prepare_round, ExploreOutcome, PreparedRound, Variant};
use lte_core::metrics::ConfusionMatrix;
use lte_core::oracle::RegionOracle;
use lte_core::parallel::parallel_map;
use lte_core::pipeline::{EncodedPool, UirOutcome};
use lte_core::scorer::{score_fused_with, FusedRequest, ScoreRequest, Scorer};
use lte_data::rng::derive_seed;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span ids and counts of one replayed tick.
#[derive(Debug, Clone, Default)]
pub struct ReplayTick {
    pub tick: u64,
    pub span: usize,
    pub encode: Option<usize>,
    pub prepare: usize,
    pub score: usize,
    pub finish: usize,
    pub rounds: usize,
    pub fused_rows: usize,
    /// Σ `PreparedRound::prep_seconds` over the tick's rounds.
    pub adapt_seconds: f64,
}

/// Scores through a classifier, with a span around every row block that
/// `score_fused_with` hands it.
struct TimedScorer<'a> {
    inner: &'a UisClassifier,
    tracer: &'a Tracer,
    parent: usize,
    session: u64,
}

impl Scorer for TimedScorer<'_> {
    fn vr_width(&self) -> usize {
        self.inner.vr_width()
    }

    fn score_block(&self, v_r: &[f64], rows: &[Vec<f64>], precision: ScoringPrecision) -> Vec<f64> {
        self.tracer
            .span("score_block", Some(self.parent), Some(self.session), || {
                self.inner.score_block(v_r, rows, precision)
            })
            .0
    }
}

/// A session as the replay rebuilds it.
#[derive(Default)]
struct Replayed {
    uir_pred: Vec<bool>,
    per_subspace_f1: Vec<f64>,
    subspace_outcomes: Vec<ExploreOutcome>,
    epochs: Vec<u64>,
}

/// Replay every tick the recorded sessions ran in. Ticks at the edges of
/// the recorded span may hold only some of the service's rounds. Returns
/// the replayed ticks, or the first session whose replay differs from the
/// service.
pub fn replay(
    inputs: &Inputs,
    records: &[SessionRecord],
    workers: usize,
    tracer: &Tracer,
) -> Result<Vec<ReplayTick>, String> {
    let n_sub = inputs.pipelines[0].subspaces().len();
    // tick → sessions (index into `records`) advanced in it, with their
    // round; ordered by submission like the service's active list.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].submit_seq);
    let mut schedule: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
    for &i in &order {
        for round in 0..n_sub {
            schedule
                .entry(records[i].admitted_tick + round as u64)
                .or_default()
                .push((i, round));
        }
    }

    let mut sessions: Vec<Option<Replayed>> = (0..records.len()).map(|_| None).collect();
    let mut cache: Option<(u64, EncodedPool)> = None;
    let mut ticks = Vec::with_capacity(schedule.len());

    for (&tick, jobs) in &schedule {
        let epoch = records[jobs[0].0].epochs[jobs[0].1];
        if jobs.iter().any(|&(i, r)| records[i].epochs[r] != epoch) {
            return Err(format!("tick {tick}: rounds saw different epochs"));
        }
        let pipeline = &inputs.pipelines[(epoch % 2) as usize];
        let cfg = pipeline.config();
        let span = tracer.open("replay.tick", None, None);
        let mut rec = ReplayTick {
            tick,
            span,
            rounds: jobs.len(),
            ..ReplayTick::default()
        };

        if cache.as_ref().map(|c| c.0) != Some(epoch) {
            let (pool, id) = tracer.span("encode_pool", Some(span), None, || {
                pipeline.encode_pool(&inputs.pool)
            });
            rec.encode = Some(id);
            cache = Some((epoch, pool));
        }
        let pool = &cache.as_ref().expect("pool encoded").1;

        // prepare_round jobs across the workers.
        rec.prepare = tracer.open("prepare", Some(span), None);
        let prepare_parent = rec.prepare;
        let prepared: Vec<PreparedRound> = parallel_map(jobs.clone(), workers, |(i, round)| {
            let req = inputs.request(records[i].id);
            tracer
                .span("prepare_round", Some(prepare_parent), Some(req.id), || {
                    let (sub, region) = &req.truth.parts()[round];
                    debug_assert_eq!(sub, &pipeline.subspaces()[round]);
                    let learner = match req.variant {
                        Variant::Basic => None,
                        _ => Some(&pipeline.learners()[round]),
                    };
                    prepare_round(
                        &pipeline.contexts()[round],
                        learner,
                        &RegionOracle::new(region.clone()),
                        cfg,
                        req.variant,
                        derive_seed(req.seed, 2000 + round as u64),
                    )
                })
                .0
        });
        tracer.close(rec.prepare);
        rec.adapt_seconds = prepared.iter().map(|p| p.prep_seconds).sum();

        // One fused scoring call.
        rec.score = tracer.open("score_fused_with", Some(span), None);
        let scorers: Vec<TimedScorer<'_>> = jobs
            .iter()
            .zip(&prepared)
            .map(|(&(i, _), p)| TimedScorer {
                inner: &p.classifier,
                tracer,
                parent: rec.score,
                session: records[i].id,
            })
            .collect();
        let requests: Vec<FusedRequest<'_>> = jobs
            .iter()
            .zip(&prepared)
            .zip(&scorers)
            .map(|((&(_, round), p), s)| FusedRequest {
                scorer: s,
                request: ScoreRequest::new(&p.v_r, pool.encoded(round), cfg.online.precision),
            })
            .collect();
        rec.fused_rows = requests.iter().map(|r| r.request.rows.len()).sum();
        let t0 = Instant::now();
        let scores = score_fused_with(&requests, workers);
        let score_seconds = t0.elapsed().as_secs_f64();
        tracer.close(rec.score);
        drop(requests);
        drop(scorers);

        // finish_round jobs across the workers.
        rec.finish = tracer.open("finish", Some(span), None);
        let finish_parent = rec.finish;
        let fused_rows = rec.fused_rows.max(1) as f64;
        let finish_jobs: Vec<_> = jobs.iter().copied().zip(prepared).zip(scores).collect();
        let finished: Vec<((usize, usize), ExploreOutcome)> =
            parallel_map(finish_jobs, workers, |(((i, round), p), s)| {
                let share = score_seconds * s.len() as f64 / fused_rows;
                let out = tracer
                    .span(
                        "finish_round",
                        Some(finish_parent),
                        Some(records[i].id),
                        || {
                            finish_round(
                                &pipeline.contexts()[round],
                                p,
                                pool.proj(round),
                                s,
                                cfg,
                                inputs.templates[inputs.template_of(records[i].id)].variant,
                                share,
                            )
                        },
                    )
                    .0;
                ((i, round), out)
            });
        tracer.close(rec.finish);

        // Fold each round into its session, as the service does; a session
        // is compared with the service's outcome as soon as it completes.
        for ((i, round), outcome) in finished {
            let req = inputs.request(records[i].id);
            let (_, region) = &req.truth.parts()[round];
            let s = sessions[i].get_or_insert_with(|| Replayed {
                uir_pred: vec![true; inputs.pool.len()],
                ..Replayed::default()
            });
            let sub_confusion = ConfusionMatrix::from_pairs(
                outcome
                    .predictions
                    .iter()
                    .zip(pool.proj(round))
                    .map(|(&pred, row)| (pred, region.contains(row))),
            );
            s.per_subspace_f1.push(sub_confusion.f1());
            for (pred, &sub) in s.uir_pred.iter_mut().zip(&outcome.predictions) {
                *pred &= sub;
            }
            s.subspace_outcomes.push(outcome);
            s.epochs.push(epoch);
            if s.epochs.len() == n_sub {
                let s = sessions[i].take().expect("session replayed");
                compare(inputs, s, &records[i])?;
            }
        }
        tracer.close(span);
        ticks.push(rec);
    }
    Ok(ticks)
}

/// Assemble a replayed session like the service's drain and compare its
/// digest and epochs with the service's.
fn compare(inputs: &Inputs, s: Replayed, want: &SessionRecord) -> Result<(), String> {
    let req = inputs.request(want.id);
    let confusion = ConfusionMatrix::from_pairs(
        s.uir_pred
            .iter()
            .zip(&inputs.pool)
            .map(|(&pred, row)| (pred, req.truth.label(row))),
    );
    let got = UirOutcome {
        confusion,
        per_subspace_f1: s.per_subspace_f1,
        online_seconds: 0.0,
        labels_used: inputs.pipelines[0].config().budget(),
        subspace_outcomes: s.subspace_outcomes,
    };
    if digest(&got) == want.digest && s.epochs == want.epochs {
        Ok(())
    } else {
        Err(format!("session {} differs from the service", want.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{check_against_reference, serve, Plan};
    use crate::setup::{build_inputs, build_model, build_model_traced, Scale, Workload};

    fn tiny(precision: ScoringPrecision, swap_every: Option<u64>) -> Workload {
        Workload {
            name: "tiny",
            slots: 16,
            pool_rows: 200,
            precision,
            swap_every,
        }
    }

    fn plan() -> Plan {
        Plan {
            warmup_ticks: 2,
            seconds: 0.0,
            min_slice_rounds: 0,
            workers: 2,
        }
    }

    #[test]
    fn stage_replay_equals_the_service_bitwise() {
        let scale = Scale::TINY;
        let model = build_model(&scale);
        for w in [
            tiny(ScoringPrecision::Exact, Some(3)),
            tiny(ScoringPrecision::Fast, None),
        ] {
            let inputs = build_inputs(&model, &w, &scale, 7, 2);
            let tracer = Tracer::default();
            let served = serve(&inputs, &w, &plan(), Some(&tracer));
            assert!(served.panic.is_none());
            assert_eq!(served.failed, 0);
            assert!(!served.records.is_empty());
            let ticks = replay(&inputs, &served.records, 2, &tracer).expect("replay matches");
            // Every window tick is replayed whole.
            let (a, b) = served.window;
            let window: Vec<_> = ticks.iter().filter(|t| (a..b).contains(&t.tick)).collect();
            assert_eq!(window.len() as u64, b - a);
            for r in window {
                let s = &served.ticks[r.tick as usize];
                assert_eq!((r.rounds, r.fused_rows), (s.rounds, s.fused_rows));
            }
            // One encode on the first replayed tick, one per swap after it.
            let first = ticks[0].tick;
            let last = ticks.last().expect("ticks replayed").tick;
            let swaps = (first + 1..=last)
                .filter(|&t| inputs.swaps.swaps_before(t))
                .count();
            let encodes = ticks.iter().filter(|t| t.encode.is_some()).count();
            assert_eq!(encodes, 1 + swaps);
            let all: Vec<usize> = (0..inputs.templates.len()).collect();
            assert!(check_against_reference(&inputs, &served, &all, 2).is_empty());
        }
    }

    #[test]
    fn replay_catches_a_differing_session() {
        let scale = Scale::TINY;
        let w = tiny(ScoringPrecision::Exact, None);
        let inputs = build_inputs(&build_model(&scale), &w, &scale, 3, 1);
        let tracer = Tracer::default();
        let served = serve(&inputs, &w, &plan(), Some(&tracer));
        let mut records = served.records.clone();
        records[1].digest ^= 1;
        assert!(replay(&inputs, &records, 1, &tracer).is_err());
        let mut records = served.records;
        records[0].epochs[1] += 2;
        assert!(replay(&inputs, &records, 1, &tracer).is_err());
    }

    #[test]
    fn traced_build_serves_the_same_sessions() {
        let scale = Scale::TINY;
        let w = tiny(ScoringPrecision::Exact, None);
        let plain = build_inputs(&build_model(&scale), &w, &scale, 5, 2);
        let traced = build_inputs(
            &build_model_traced(&scale, &Tracer::default()),
            &w,
            &scale,
            5,
            2,
        );
        let a = serve(&plain, &w, &plan(), None);
        let b = serve(&traced, &w, &plan(), None);
        assert_eq!(a.mean_f1().to_bits(), b.mean_f1().to_bits());
        assert_eq!(a.first, b.first);
    }
}
