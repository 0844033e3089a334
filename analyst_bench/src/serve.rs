//! The closed serving loop: a fixed number of analyst slots on one shard,
//! refilled from a backlog through admission, warmed up, timed, drained and
//! checked.

use crate::setup::{Inputs, Workload};
use crate::stats::{digest, median, percentile_with_beyond, MIN_BEYOND};
use crate::trace::Tracer;
use lte_core::metrics::ConfusionMatrix;
use lte_core::parallel::parallel_map;
use lte_serve::{ScoringService, ServiceOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Consecutive slices of the timed window. Throughput and the tail latency
/// are taken per slice and the median slice is reported: the host's
/// interference comes in bursts, and one disturbed slice then does not
/// move the result.
pub const SLICES: usize = 5;

/// Round samples a slice needs so that its p99 leaves [`MIN_BEYOND`]
/// samples ranked beyond it.
pub const MIN_SLICE_ROUNDS: usize = 100 * MIN_BEYOND;

/// `ticks` cut into [`SLICES`] consecutive slices.
fn slices(ticks: &[TickRecord]) -> impl Iterator<Item = &[TickRecord]> {
    (0..SLICES).map(move |i| &ticks[i * ticks.len() / SLICES..(i + 1) * ticks.len() / SLICES])
}

/// How long to serve.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup_ticks: u64,
    /// The timed window closes at the first tick that completes sessions
    /// once this many seconds of serving have passed and every slice holds
    /// at least `min_slice_rounds` round samples (and one tick).
    pub seconds: f64,
    /// [`MIN_SLICE_ROUNDS`] where the run reports `round_p99_ms`.
    pub min_slice_rounds: usize,
    pub workers: usize,
}

/// One tick of the service, as the loop saw it.
#[derive(Debug, Clone, Copy)]
pub struct TickRecord {
    /// Wall time of `ScoringService::tick`: every round it advanced waited
    /// this long between labelling and seeing predictions.
    pub wall: f64,
    /// Seconds inside every service call of this tick: submissions, swap
    /// and the tick itself.
    pub serve_wall: f64,
    pub rounds: usize,
    pub fused_rows: usize,
    pub completed: usize,
}

/// What one serving pass did and produced.
#[derive(Debug, Default)]
pub struct Served {
    pub ticks: Vec<TickRecord>,
    /// Tick indices of the timed window, `[start, end)`.
    pub window: (u64, u64),
    /// Seconds of the warm-up ticks (with their submissions), counted in
    /// set-up.
    pub warmup_wall: f64,
    pub swaps: u64,
    pub peak_parked: usize,
    /// `admitted_tick - submit_tick` of each session completed in the window.
    pub wait_ticks: Vec<u64>,
    pub attempted: u64,
    /// Completions whose outputs differ from their request's first
    /// completion, plus sessions that never completed.
    pub failed: u64,
    /// Per template: its first completion.
    pub first: Vec<Option<First>>,
    /// Per template: how many times it completed.
    pub completions: Vec<u64>,
    /// Sessions that ran in the window, when asked for (see [`serve`]).
    pub records: Vec<SessionRecord>,
    pub panic: Option<String>,
}

/// What the checks keep of a request's first completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct First {
    pub digest: u64,
    pub confusion: ConfusionMatrix,
    pub f1: f64,
}

/// A completed session, as the stage replay needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    pub id: u64,
    pub submit_seq: u64,
    pub admitted_tick: u64,
    /// The pipeline epoch each round ran against.
    pub epochs: Vec<u64>,
    pub digest: u64,
}

impl Served {
    /// Mean UIR F1 over the distinct requests: every template completes at
    /// least once, so this is a function of the seed alone.
    pub fn mean_f1(&self) -> f64 {
        let f1s: Vec<f64> = self.first.iter().flatten().map(|f| f.f1).collect();
        f1s.iter().sum::<f64>() / f1s.len().max(1) as f64
    }

    /// The window's ticks.
    pub fn window_ticks(&self) -> &[TickRecord] {
        // A pass that panicked may never have closed its window.
        let n = self.ticks.len();
        let (a, b) = (self.window.0 as usize, self.window.1 as usize);
        &self.ticks[a.min(n)..b.clamp(a, n)]
    }

    /// Completed sessions ÷ serving wall of each slice; the median slice.
    pub fn sessions_per_s(&self) -> f64 {
        let rates: Vec<f64> = slices(self.window_ticks())
            .map(|slice| {
                let done: usize = slice.iter().map(|t| t.completed).sum();
                done as f64 / slice.iter().map(|t| t.serve_wall).sum::<f64>()
            })
            .collect();
        median(&rates)
    }

    /// Round latency in ms, one sample per round: the window's p50, the
    /// median over slices of each slice's p99, and the fewest samples any
    /// slice leaves beyond its p99.
    pub fn round_latency_ms(&self) -> (f64, f64, usize) {
        let p50 = percentile_with_beyond(&round_samples_ms(self.window_ticks()), 50.0)
            .map_or(f64::NAN, |p| p.0);
        let p99s: Vec<(f64, usize)> = slices(self.window_ticks())
            .map(|slice| {
                percentile_with_beyond(&round_samples_ms(slice), 99.0).unwrap_or((f64::NAN, 0))
            })
            .collect();
        let p99 = median(&p99s.iter().map(|p| p.0).collect::<Vec<_>>());
        let beyond = p99s.iter().map(|p| p.1).min().unwrap_or(0);
        (p50, p99, beyond)
    }
}

/// One latency sample per round the ticks advanced, in ms, sorted.
fn round_samples_ms(ticks: &[TickRecord]) -> Vec<f64> {
    let mut samples: Vec<f64> = ticks
        .iter()
        .flat_map(|t| std::iter::repeat_n(t.wall * 1e3, t.rounds))
        .collect();
    samples.sort_by(f64::total_cmp);
    samples
}

#[derive(PartialEq)]
enum Phase {
    Warmup,
    Window,
    Drain,
}

/// Serve `inputs` under `w` and `plan`. With a tracer, every submit, swap
/// and tick call runs inside a span, and every session with a round in the
/// timed window is recorded for the stage replay. A panic inside the
/// service ends the pass; sessions that had not completed count as failed.
pub fn serve(inputs: &Inputs, w: &Workload, plan: &Plan, tracer: Option<&Tracer>) -> Served {
    let n_templates = inputs.templates.len();
    let mut out = Served {
        first: vec![None; n_templates],
        completions: vec![0; n_templates],
        ..Served::default()
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        serve_loop(inputs, w, plan, tracer, &mut out)
    }));
    if let Err(payload) = result {
        out.panic = Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "service panicked".to_string()),
        );
        let completed: u64 = out.completions.iter().sum();
        out.failed += out.attempted - completed;
    }
    out
}

fn serve_loop(
    inputs: &Inputs,
    w: &Workload,
    plan: &Plan,
    tracer: Option<&Tracer>,
    out: &mut Served,
) {
    let mut service = ScoringService::builder()
        .workers(plan.workers)
        .capacity(w.slots)
        .shard(
            "sdss",
            Arc::clone(&inputs.pipelines[0]),
            inputs.pool.clone(),
        )
        .build();
    let cell = service.swap_handle(0);
    let mut epoch = 0u64;
    let mut submitted = 0u64;

    // Times one service call, inside a span when tracing.
    let call = |name: &'static str, session: Option<u64>, f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        match tracer {
            Some(tr) => {
                tr.span(name, None, session, f);
            }
            None => f(),
        }
        t0.elapsed().as_secs_f64()
    };
    let submit = |service: &mut ScoringService, n: usize, submitted: &mut u64| -> f64 {
        let mut wall = 0.0;
        for _ in 0..n {
            let req = inputs.request(*submitted);
            let id = req.id;
            let mut req = Some(req);
            wall += call("submit", Some(id), &mut || {
                service.submit("sdss", req.take().expect("submitted once"));
            });
            *submitted += 1;
        }
        wall
    };

    // Arrivals ramp in over the first rounds so every tick mixes sessions
    // at each round; then a backlog as deep as the slots parks behind them,
    // and every completion is replaced while warming up or timed.
    let rounds = inputs.pipelines[0].subspaces().len();
    let ramp = |k: usize| (w.slots * k).div_ceil(rounds);
    let mut phase = Phase::Warmup;
    let mut window_start = Instant::now();
    let mut tick = 0u64;
    loop {
        if phase == Phase::Warmup && tick == plan.warmup_ticks {
            phase = Phase::Window;
            out.window.0 = tick;
            window_start = Instant::now();
        }
        if phase == Phase::Drain && service.is_idle() {
            break;
        }
        let mut wall = 0.0;
        if (tick as usize) < rounds {
            let k = tick as usize;
            let backlog = if k + 1 == rounds { w.slots } else { 0 };
            wall += submit(
                &mut service,
                ramp(k + 1) - ramp(k) + backlog,
                &mut submitted,
            );
            out.attempted = submitted;
        }
        if inputs.swaps.swaps_before(tick) {
            epoch += 1;
            let next = Arc::clone(&inputs.pipelines[(epoch % 2) as usize]);
            let mut next = Some(next);
            wall += call("swap", None, &mut || {
                cell.swap(next.take().expect("swapped once"));
            });
            out.swaps += u64::from(phase == Phase::Window);
        }
        let mut report = None;
        let tick_wall = call("tick", None, &mut || report = Some(service.tick()));
        let report = report.expect("tick ran");
        wall += tick_wall;
        tick += 1;

        let done = service.take_completed();
        if phase != Phase::Drain {
            wall += submit(&mut service, done.len(), &mut submitted);
            out.attempted = submitted;
        }
        out.ticks.push(TickRecord {
            wall: tick_wall,
            serve_wall: wall,
            rounds: report.rounds,
            fused_rows: report.fused_rows,
            completed: report.completed,
        });
        match phase {
            Phase::Warmup => out.warmup_wall += wall,
            Phase::Window => out
                .wait_ticks
                .extend(done.iter().map(|o| o.admitted_tick - o.submit_tick)),
            Phase::Drain => {}
        }
        for o in done {
            // Sessions admitted after the window closed never ran in it.
            let in_window = phase != Phase::Warmup
                && o.completed_tick >= out.window.0
                && (phase == Phase::Window || o.admitted_tick < out.window.1);
            record(inputs, &o, tracer.is_some() && in_window, out);
        }

        if phase == Phase::Window
            && report.completed > 0
            && window_start.elapsed().as_secs_f64() >= plan.seconds
            && slices(&out.ticks[out.window.0 as usize..])
                .all(|s| s.iter().map(|t| t.rounds).sum::<usize>() >= plan.min_slice_rounds.max(1))
        {
            out.window.1 = tick;
            phase = Phase::Drain;
            // Every request completes at least once, untimed.
            let missing = (inputs.templates.len() as u64).saturating_sub(submitted);
            submit(&mut service, missing as usize, &mut submitted);
            out.attempted = submitted;
        }
    }
    out.peak_parked = service.peak_parked();
}

/// Check one completion against its request's first completion.
fn record(inputs: &Inputs, o: &ServiceOutcome, keep_record: bool, out: &mut Served) {
    let t = inputs.template_of(o.id);
    let d = digest(&o.outcome);
    out.completions[t] += 1;
    match out.first[t] {
        None => {
            out.first[t] = Some(First {
                digest: d,
                confusion: o.outcome.confusion,
                f1: o.outcome.f1(),
            })
        }
        Some(first) if first.digest != d || first.confusion != o.outcome.confusion => {
            out.failed += 1
        }
        Some(_) => {}
    }
    if keep_record {
        out.records.push(SessionRecord {
            id: o.id,
            submit_seq: o.submit_seq,
            admitted_tick: o.admitted_tick,
            epochs: o.epochs.clone(),
            digest: d,
        });
    }
}

/// Recompute the given templates through the per-session reference
/// `LtePipeline::explore_with_pool` and compare each with the service's
/// first completion: the confusion matrix exactly, and the predictions and
/// score bits through their digest. Returns the templates that failed
/// (mismatch, panic, or never completed).
pub fn check_against_reference(
    inputs: &Inputs,
    served: &Served,
    templates: &[usize],
    workers: usize,
) -> Vec<usize> {
    let pipeline = &inputs.pipelines[0];
    let pool = pipeline.encode_pool(&inputs.pool);
    let verdicts = parallel_map(templates.to_vec(), workers, |t| {
        let Some(got) = served.first[t] else {
            return (t, false);
        };
        let req = &inputs.templates[t];
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let want =
                pipeline.explore_with_pool(&req.truth, &inputs.pool, &pool, req.variant, req.seed);
            want.confusion == got.confusion && digest(&want) == got.digest
        }))
        .unwrap_or(false);
        (t, ok)
    });
    verdicts
        .into_iter()
        .filter(|&(_, ok)| !ok)
        .map(|(t, _)| t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(walls_ms: &[f64], rounds: usize) -> Served {
        let ticks: Vec<TickRecord> = walls_ms
            .iter()
            .map(|&ms| TickRecord {
                wall: ms / 1e3,
                serve_wall: ms / 1e3,
                rounds,
                fused_rows: 0,
                completed: rounds / 2,
            })
            .collect();
        Served {
            window: (0, ticks.len() as u64),
            ticks,
            ..Served::default()
        }
    }

    #[test]
    fn tail_latency_is_the_median_slice_p99() {
        // Five slices of 20 ticks × 64 rounds; four hold one slow tick,
        // the last of them a burst.
        let mut walls = vec![100.0; 100];
        walls[10] = 110.0;
        walls[30] = 120.0;
        walls[50] = 130.0;
        walls[90] = 500.0;
        let (p50, p99, beyond) = served(&walls, 64).round_latency_ms();
        assert_eq!(p50, 100.0);
        // Each slice: 1280 samples; nearest rank 1268 falls in its slowest
        // tick's block, so its p99 is that tick, with 12 samples beyond.
        assert_eq!(beyond, 12);
        // Slice p99s 110, 120, 130, 100, 500: the median ignores the burst.
        assert_eq!(p99, 120.0);
    }

    #[test]
    fn slices_of_min_slice_rounds_leave_enough_beyond_p99() {
        for n in MIN_SLICE_ROUNDS..MIN_SLICE_ROUNDS + 2000 {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (_, beyond) = percentile_with_beyond(&samples, 99.0).expect("samples");
            assert!(beyond >= MIN_BEYOND, "{n} samples leave {beyond}");
        }
        // 3 ticks per slice × 64 rounds = 192 samples: too few.
        let (_, _, beyond) = served(&[100.0; 15], 64).round_latency_ms();
        assert!(beyond < MIN_BEYOND);
    }

    #[test]
    fn throughput_is_the_median_slice_rate() {
        // 32 completions per tick; two ticks per slice.
        let walls: Vec<f64> = [100.0, 50.0, 200.0, 80.0, 400.0]
            .iter()
            .flat_map(|&w| [w, w])
            .collect();
        let rate = served(&walls, 64).sessions_per_s();
        assert!((rate - 320.0).abs() < 1e-9, "{rate}");
    }
}
