//! Workloads, the offline build, and the seeded inputs the service receives.

use crate::trace::Tracer;
use lte_core::config::{LteConfig, ScoringPrecision};
use lte_core::context::SubspaceContext;
use lte_core::explore::Variant;
use lte_core::feature::expansion_degree;
use lte_core::meta_learner::MetaLearner;
use lte_core::meta_task::generate_task_set;
use lte_core::pipeline::LtePipeline;
use lte_core::uis::UisMode;
use lte_data::rng::{derive_seed, seeded};
use lte_data::sampling::sample_indices;
use lte_data::subspace::decompose_sequential;
use lte_data::table::Table;
use lte_data::Dataset;
use lte_serve::{SessionEngine, SessionRequest};
use std::sync::Arc;

/// The dataset and the model are fixed; the workload seed varies the
/// traffic (pool, sessions, swap phase), not the system under test.
const DATA_SEED: u64 = 0x5D55;
const MODEL_SEED: u64 = 900;
/// Attributes explored, split into 2D subspaces.
const N_ATTRS: usize = 4;
/// Labelling budget `B = ks + Δ` per subspace.
const BUDGET: usize = 30;
/// Convex test mode: α = 1, ψ = 20 (the reduced-scale ψ = 50).
const MODE: UisMode = UisMode { alpha: 1, psi: 20 };
/// Ground-truth selectivity window per subspace.
const MIN_SEL: f64 = 0.2;
const MAX_SEL: f64 = 0.9;

/// One serving workload: a fixed number of analyst slots refilled from a
/// backlog, over one pool at one precision.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Concurrent sessions; the backlog holds as many again.
    pub slots: usize,
    pub pool_rows: usize,
    pub precision: ScoringPrecision,
    /// Hot-swap the shard every this many ticks.
    pub swap_every: Option<u64>,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "busy_exact",
        slots: 64,
        pool_rows: 1500,
        precision: ScoringPrecision::Exact,
        swap_every: Some(16),
    },
    Workload {
        name: "wide_fast",
        slots: 64,
        pool_rows: 16384,
        precision: ScoringPrecision::Fast,
        swap_every: None,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Sizes of everything built in set-up.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub table_rows: usize,
    pub n_tasks: usize,
    pub epochs: usize,
    /// Distinct session requests; submissions cycle through them.
    pub templates: usize,
    /// Requests checked against the per-session reference in an untraced run.
    pub checked: usize,
}

impl Scale {
    /// The benchmark's scale: SDSS reduced (20 000 rows, `LteConfig::reduced`)
    /// with 200 meta-tasks per subspace so set-up can repeat within a run.
    pub const BENCH: Scale = Scale {
        table_rows: 20_000,
        n_tasks: 200,
        epochs: 6,
        templates: 1024,
        checked: 16,
    };

    /// A tiny scale for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        table_rows: 2_000,
        n_tasks: 40,
        epochs: 1,
        templates: 6,
        checked: 2,
    };

    pub fn config(&self) -> LteConfig {
        let mut cfg = LteConfig::reduced().with_budget(BUDGET);
        cfg.task.mode = MODE;
        cfg.train.n_tasks = self.n_tasks;
        cfg.train.epochs = self.epochs;
        cfg
    }
}

/// The data table and the meta-trained pipeline over it.
pub struct Model {
    pub table: Table,
    pub pipeline: LtePipeline,
}

/// Data generation plus `LtePipeline::offline`.
pub fn build_model(scale: &Scale) -> Model {
    let table = Dataset::sdss(scale.table_rows, DATA_SEED).table;
    let (pipeline, _) = LtePipeline::offline(
        &table,
        decompose_sequential(N_ATTRS, 2),
        scale.config(),
        MODEL_SEED,
    );
    Model { table, pipeline }
}

/// [`build_model`] stage by stage, with a span around each stage call.
/// Seeds and arguments follow `LtePipeline::offline`, so the pipeline is
/// the same one.
pub fn build_model_traced(scale: &Scale, tracer: &Tracer) -> Model {
    let cfg = scale.config();
    let root = tracer.open("offline", None, None);
    let (table, _) = tracer.span("data.generate", Some(root), None, || {
        Dataset::sdss(scale.table_rows, DATA_SEED).table
    });
    let subspaces = decompose_sequential(N_ATTRS, 2);
    let mut contexts = Vec::with_capacity(subspaces.len());
    let mut learners = Vec::with_capacity(subspaces.len());
    for (i, sub) in subspaces.iter().enumerate() {
        let sub_seed = derive_seed(MODEL_SEED, i as u64);
        let (ctx, _) = tracer.span("context.build", Some(root), None, || {
            SubspaceContext::build(&table, sub.clone(), &cfg.task, &cfg.encoder, sub_seed)
        });
        let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
        let (tasks, _) = tracer.span("meta_task.generate", Some(root), None, || {
            generate_task_set(
                &ctx,
                &cfg.task,
                l,
                cfg.train.n_tasks,
                &mut seeded(derive_seed(sub_seed, 1)),
            )
        });
        let mut learner = MetaLearner::new(
            cfg.task.ku.min(ctx.cu().len()),
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            derive_seed(sub_seed, 2),
        );
        tracer.span("meta_learner.train", Some(root), None, || {
            learner.train(&tasks)
        });
        contexts.push(ctx);
        learners.push(learner);
    }
    let pipeline = LtePipeline::from_parts(cfg, subspaces, contexts, learners);
    tracer.close(root);
    Model { table, pipeline }
}

/// Swap before every tick `t > 0` with `t % every == phase`.
#[derive(Debug, Clone, Copy)]
pub struct SwapSchedule {
    pub every: Option<u64>,
    pub phase: u64,
}

impl SwapSchedule {
    pub fn swaps_before(&self, tick: u64) -> bool {
        self.every
            .is_some_and(|k| tick > 0 && tick % k == self.phase)
    }
}

/// Everything the service receives, generated from the workload seed.
pub struct Inputs {
    /// Epoch `e` serves `pipelines[e % 2]`: two `Arc`s over equal clones, so
    /// a swap forces an encoded-pool rebuild and leaves outputs unchanged.
    pub pipelines: [Arc<LtePipeline>; 2],
    pub pool: Vec<Vec<f64>>,
    /// Submission `k` is `templates[k % len]` with id `k`.
    pub templates: Vec<SessionRequest>,
    pub swaps: SwapSchedule,
    /// Template indices checked against the per-session reference.
    pub checked: Vec<usize>,
}

impl Inputs {
    /// The request submitted as the `seq`-th session.
    pub fn request(&self, seq: u64) -> SessionRequest {
        let mut req = self.templates[self.template_of(seq)].clone();
        req.id = seq;
        req
    }

    pub fn template_of(&self, seq: u64) -> usize {
        (seq % self.templates.len() as u64) as usize
    }
}

/// Pool, requests, swap schedule and swap pipelines for one seed.
pub fn build_inputs(
    model: &Model,
    w: &Workload,
    scale: &Scale,
    seed: u64,
    workers: usize,
) -> Inputs {
    let mut pipeline = model.pipeline.clone();
    let mut online = pipeline.config().online.clone();
    online.precision = w.precision;
    pipeline.set_online(online);
    let pipelines = [Arc::new(pipeline.clone()), Arc::new(pipeline)];
    let pool = model
        .table
        .sample(&mut seeded(derive_seed(seed, 1)), w.pool_rows)
        .to_rows();
    let templates = SessionEngine::with_workers(Arc::clone(&pipelines[0]), workers)
        .simulate_requests(
            scale.templates,
            MODE,
            MIN_SEL,
            MAX_SEL,
            Variant::MetaStar,
            derive_seed(seed, 2),
        );
    let swaps = SwapSchedule {
        every: w.swap_every,
        phase: w.swap_every.map_or(0, |k| derive_seed(seed, 3) % k),
    };
    let mut checked = sample_indices(
        &mut seeded(derive_seed(seed, 4)),
        scale.templates,
        scale.checked.min(scale.templates),
    );
    checked.sort_unstable();
    Inputs {
        pipelines,
        pool,
        templates,
        swaps,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn swap_schedule_fires_every_k_ticks_at_its_phase() {
        let s = SwapSchedule {
            every: Some(16),
            phase: 3,
        };
        let fired: Vec<u64> = (0..50).filter(|&t| s.swaps_before(t)).collect();
        assert_eq!(fired, vec![3, 19, 35]);
        let never = SwapSchedule {
            every: None,
            phase: 0,
        };
        assert!((0..50).all(|t| !never.swaps_before(t)));
    }
}
