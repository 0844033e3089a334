//! Per-layer metrics of a traced run: offline stages from their spans, the
//! service from its ticks, and the round's stages from the replay's spans.

use crate::replay::ReplayTick;
use crate::serve::Served;
use crate::setup::Scale;
use crate::stats::median;
use crate::trace::{children, self_time, Span};
use lte_core::classifier::ClassifierConfig;
use lte_core::config::ScoringPrecision;
use lte_core::pipeline::LtePipeline;

/// Multiply-adds and bytes moved per pool row by the scorer, computed from
/// the classifier's layer shapes (not measured). The pool-constant UIS
/// embedding and conversion split are shared by every row and left out;
/// weights are taken to stay in cache, and every activation is written
/// once and read once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowCost {
    pub madds: f64,
    pub bytes: f64,
}

pub fn row_cost(arch: &ClassifierConfig, precision: ScoringPrecision) -> RowCost {
    // (in, out) of every per-row matmul: tuple block, conversion (the
    // pool-varying half of `Mcp`), then the classification block.
    let mut layers = vec![(arch.nr, arch.ne)];
    if arch.use_conversion {
        layers.push((arch.ne, arch.ne));
    }
    layers.push((arch.clf_input(), arch.clf_hidden));
    layers.push((arch.clf_hidden, 1));
    let madds: usize = layers.iter().map(|(i, o)| i * o).sum();
    let elem = match precision {
        ScoringPrecision::Exact => 8,
        _ => 4,
    };
    // The encoded f64 row is read and copied into the kernel's matrix type.
    let load = arch.nr * (8 + elem);
    let activations: usize = layers.iter().map(|(i, o)| (i + o) * elem).sum();
    RowCost {
        madds: madds as f64,
        bytes: (load + activations) as f64,
    }
}

/// Mean [`row_cost`] over the pipeline's subspaces (rounds split evenly).
pub fn pipeline_row_cost(pipeline: &LtePipeline) -> RowCost {
    let precision = pipeline.config().online.precision;
    let costs: Vec<RowCost> = pipeline
        .learners()
        .iter()
        .map(|l| row_cost(l.arch(), precision))
        .collect();
    let n = costs.len() as f64;
    RowCost {
        madds: costs.iter().map(|c| c.madds).sum::<f64>() / n,
        bytes: costs.iter().map(|c| c.bytes).sum::<f64>() / n,
    }
}

/// Everything the per-layer metrics are computed from.
pub struct TracedRun<'a> {
    pub spans: &'a [Span],
    pub served: &'a Served,
    pub replay: &'a [ReplayTick],
    pub pipeline: &'a LtePipeline,
    pub scale: &'a Scale,
    pub workers: usize,
    pub pool_rows: usize,
    /// `sessions_per_s` of the untraced pass in the same process.
    pub untraced_sessions_per_s: f64,
}

/// `(name, unit, value)` for every per-layer metric.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<(&'static str, &'static str, f64)> {
    let spans = run.spans;
    let kids = children(spans);
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    };
    let sum_children = |ids: &mut dyn Iterator<Item = usize>| -> f64 {
        ids.flat_map(|id| kids[id].iter())
            .map(|&c| spans[c].duration())
            .sum()
    };
    let dur = |id: usize| spans[id].duration();

    let n_sub = run.pipeline.subspaces().len() as f64;
    let train_s = total("meta_learner.train");
    let cfg = run.pipeline.config();

    // Service ticks of the timed window.
    let (a, b) = run.served.window;
    let window = run.served.window_ticks();
    let n_ticks = window.len() as f64;
    let tick_ms = median(&window.iter().map(|t| t.wall * 1e3).collect::<Vec<_>>());

    // Replayed ticks of the same window.
    let rt: Vec<&ReplayTick> = run
        .replay
        .iter()
        .filter(|t| (a..b).contains(&t.tick))
        .collect();
    let rounds: f64 = rt.iter().map(|t| t.rounds as f64).sum();
    let rows: f64 = rt.iter().map(|t| t.fused_rows as f64).sum();
    let stage_wall =
        |t: &ReplayTick| t.encode.map_or(0.0, dur) + dur(t.prepare) + dur(t.score) + dur(t.finish);
    let other_ms = rt
        .iter()
        .map(|t| run.served.ticks[t.tick as usize].wall - stage_wall(t))
        .sum::<f64>()
        * 1e3
        / rt.len().max(1) as f64;
    let prepare_busy = sum_children(&mut rt.iter().map(|t| t.prepare));
    let score_busy = sum_children(&mut rt.iter().map(|t| t.score));
    let finish_busy = sum_children(&mut rt.iter().map(|t| t.finish));
    let prepare_wall: f64 = rt.iter().map(|t| dur(t.prepare)).sum();
    let score_wall: f64 = rt.iter().map(|t| dur(t.score)).sum();
    let finish_wall: f64 = rt.iter().map(|t| dur(t.finish)).sum();
    let stage_self: f64 = rt
        .iter()
        .flat_map(|t| [t.prepare, t.score, t.finish])
        .map(|id| self_time(spans, &kids, id))
        .sum();
    let util = |busy: f64, wall: f64| busy / (run.workers as f64 * wall);
    let encodes: Vec<f64> = run
        .replay
        .iter()
        .filter_map(|t| t.encode.map(dur))
        .collect();
    let cost = pipeline_row_cost(run.pipeline);
    let waits = &run.served.wait_ticks;
    let traced_sps = run.served.sessions_per_s();

    vec![
        ("context.build_s", "s", total("context.build")),
        ("meta_task.generate_s", "s", total("meta_task.generate")),
        ("meta_learner.train_s", "s", train_s),
        (
            "meta_learner.tasks_per_s",
            "1/s",
            run.scale.n_tasks as f64 * run.scale.epochs as f64 * n_sub / train_s,
        ),
        ("service.tick_ms", "ms", tick_ms),
        (
            "service.rounds_per_tick",
            "count",
            window.iter().map(|t| t.rounds as f64).sum::<f64>() / n_ticks,
        ),
        (
            "service.fused_rows_per_tick",
            "count",
            window.iter().map(|t| t.fused_rows as f64).sum::<f64>() / n_ticks,
        ),
        ("service.other_ms_per_tick", "ms", other_ms),
        (
            "admission.wait_ticks",
            "count",
            waits.iter().sum::<u64>() as f64 / waits.len().max(1) as f64,
        ),
        (
            "admission.peak_parked",
            "count",
            run.served.peak_parked as f64,
        ),
        ("swap.count", "count", run.served.swaps as f64),
        (
            "pipeline.encode_pool_ms",
            "ms",
            encodes.iter().sum::<f64>() * 1e3 / encodes.len().max(1) as f64,
        ),
        (
            "explore.prepare_ms_per_round",
            "ms",
            prepare_busy * 1e3 / rounds,
        ),
        (
            "explore.adapt_ms_per_round",
            "ms",
            rt.iter().map(|t| t.adapt_seconds).sum::<f64>() * 1e3 / rounds,
        ),
        (
            "meta_learner.sgd_passes_per_round",
            "count",
            (cfg.online.adapt_steps * cfg.budget()) as f64,
        ),
        (
            "scorer.ms_per_call",
            "ms",
            score_wall * 1e3 / rt.len().max(1) as f64,
        ),
        ("scorer.rows_per_s", "1/s", rows / score_wall),
        ("scorer.madds_per_row", "madd/row", cost.madds),
        ("scorer.bytes_per_row", "B/row", cost.bytes),
        (
            "scorer.gflops",
            "GFLOP/s",
            2.0 * cost.madds * rows / score_wall / 1e9,
        ),
        (
            "explore.finish_ms_per_round",
            "ms",
            finish_busy * 1e3 / rounds,
        ),
        (
            "refine.rows_per_s",
            "1/s",
            rounds * run.pool_rows as f64 / finish_busy,
        ),
        (
            "parallel.util.prepare",
            "frac",
            util(prepare_busy, prepare_wall),
        ),
        ("parallel.util.score", "frac", util(score_busy, score_wall)),
        (
            "parallel.util.finish",
            "frac",
            util(finish_busy, finish_wall),
        ),
        (
            "parallel.self_ms_per_tick",
            "ms",
            stage_self * 1e3 / rt.len().max(1) as f64,
        ),
        (
            "trace.overhead_frac",
            "frac",
            1.0 - traced_sps / run.untraced_sessions_per_s,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_cost_follows_layer_shapes() {
        let arch = ClassifierConfig {
            ku: 40,
            nr: 6,
            ne: 32,
            clf_hidden: 32,
            use_conversion: true,
        };
        let exact = row_cost(&arch, ScoringPrecision::Exact);
        // 6·32 + 32·32 + 32·32 + 32·1
        assert_eq!(exact.madds, (192 + 1024 + 1024 + 32) as f64);
        // load 6·16, activations (6+32 + 32+32 + 32+32 + 32+1)·8
        assert_eq!(exact.bytes, (96 + 199 * 8) as f64);
        let fast = row_cost(&arch, ScoringPrecision::Fast);
        assert_eq!(fast.madds, exact.madds);
        assert_eq!(fast.bytes, (6 * 12 + 199 * 4) as f64);

        let plain = ClassifierConfig {
            use_conversion: false,
            ..arch
        };
        // No conversion: the classifier reads the 2·Ne concatenation.
        assert_eq!(
            row_cost(&plain, ScoringPrecision::Exact).madds,
            (192 + 64 * 32 + 32) as f64
        );
    }
}
