//! Bitwise pins on per-sample SGD: the adapted classifiers, the trained
//! initialization `φ`, the memories and the reported losses of fixed
//! seeded runs, each folded into one FNV-1a digest of its `f64` bit
//! patterns. Any change to the arithmetic of the local loop (Eq. 12) or of
//! meta-training (Algorithm 2) — a reordered sum, a dropped `0.0 +`, a
//! skipped row that was not a no-op — changes a digest; pure speed work
//! must leave every constant here untouched.

use lte_core::classifier::{ClassifierConfig, Example, UisClassifier};
use lte_core::config::LteConfig;
use lte_core::context::SubspaceContext;
use lte_core::feature::expansion_degree;
use lte_core::meta_learner::{Adapted, MetaLearner};
use lte_core::meta_task::{generate_task_set, MetaTask};
use lte_data::generator::generate_sdss;
use lte_data::rng::seeded;
use lte_data::subspace::Subspace;

/// FNV-1a over the bit patterns of a sequence of `f64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        for x in xs {
            for byte in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }

    fn classifier(&mut self, c: &UisClassifier) -> &mut Self {
        self.f64s(&c.r_block.params())
            .f64s(&c.t_block.params())
            .f64s(&c.clf_block.params());
        if let Some(m) = &c.conversion {
            self.f64s(m.data());
        }
        self
    }

    fn adapted(&mut self, a: &Adapted) -> &mut Self {
        self.classifier(&a.classifier)
            .f64s(&a.avg_grad_r)
            .f64s(&[a.support_loss]);
        if let Some(att) = &a.attention {
            self.f64s(att);
        }
        self
    }
}

fn setup(use_memories: bool) -> (SubspaceContext, Vec<MetaTask>, LteConfig) {
    let table = generate_sdss(3000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 40;
    cfg.train.epochs = 2;
    cfg.train.use_memories = use_memories;
    let ctx = SubspaceContext::build(
        &table,
        Subspace::new(vec![0, 1]),
        &cfg.task,
        &cfg.encoder,
        5,
    );
    let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
    let tasks = generate_task_set(&ctx, &cfg.task, l, cfg.train.n_tasks, &mut seeded(6));
    (ctx, tasks, cfg)
}

fn learner(ctx: &SubspaceContext, cfg: &LteConfig, seed: u64) -> MetaLearner {
    MetaLearner::new(
        cfg.task.ku,
        ctx.feature_width(),
        &cfg.net,
        cfg.train.clone(),
        seed,
    )
}

/// The union of a task's support and query sets: a larger, imbalanced
/// label set like an online round's.
fn labels(task: &MetaTask) -> Vec<Example> {
    task.support.iter().chain(&task.query).cloned().collect()
}

#[test]
fn meta_star_adapt_weighted_with_memories_is_pinned() {
    let (ctx, tasks, cfg) = setup(true);
    let mut learner = learner(&ctx, &cfg, 21);
    // A trained learner, so the memories and φ are not at their init.
    learner.train(&tasks[..20]);
    let mut h = Fnv::new();
    for task in &tasks[20..26] {
        let ex = labels(task);
        let w = UisClassifier::balance_weight(&ex);
        let a = learner.adapt_weighted(&task.v_r, &ex, 5, 0.05, w);
        assert!(a.classifier.conversion.is_some());
        h.adapted(&a);
    }
    assert_eq!(
        h.0, 8_919_803_826_050_058_211,
        "Meta* adapt_weighted digest"
    );
}

#[test]
fn plain_maml_adapt_without_memories_is_pinned() {
    let (ctx, tasks, cfg) = setup(false);
    let learner = learner(&ctx, &cfg, 22);
    let mut h = Fnv::new();
    for task in &tasks[..6] {
        let a = learner.adapt(&task.v_r, &task.support, 3, 0.05);
        assert!(a.classifier.conversion.is_none());
        h.adapted(&a);
    }
    assert_eq!(h.0, 2_161_359_032_448_651_186, "plain-MAML adapt digest");
}

#[test]
fn basic_train_local_weighted_is_pinned() {
    let (ctx, tasks, cfg) = setup(false);
    let mut h = Fnv::new();
    for (i, task) in tasks[..6].iter().enumerate() {
        let arch = ClassifierConfig {
            ku: cfg.task.ku,
            nr: ctx.feature_width(),
            ne: cfg.net.ne,
            clf_hidden: cfg.net.clf_hidden,
            use_conversion: false,
        };
        let mut c = UisClassifier::new(arch, &mut seeded(30 + i as u64));
        let ex = labels(task);
        let w = UisClassifier::balance_weight(&ex);
        let loss = c.train_local_weighted(&task.v_r, &ex, 5, 0.05, w);
        h.classifier(&c).f64s(&[loss]);
    }
    assert_eq!(
        h.0, 5_838_017_349_950_173_646,
        "Basic train_local_weighted digest"
    );
}

#[test]
fn meta_training_phi_memories_and_losses_are_pinned() {
    for (use_memories, golden) in [
        (true, 12_418_756_034_828_377_305u64),
        (false, 17_611_919_276_106_699_665),
    ] {
        let (ctx, tasks, cfg) = setup(use_memories);
        let mut learner = learner(&ctx, &cfg, 23);
        let report = learner.train(&tasks);
        let (phi_r, phi_t, phi_clf) = learner.phi();
        let mut h = Fnv::new();
        h.f64s(phi_r)
            .f64s(phi_t)
            .f64s(phi_clf)
            .f64s(&report.epoch_query_loss);
        if let Some(mem) = learner.memories() {
            h.f64s(mem.mvr.data()).f64s(mem.mr.data());
            for slice in &mem.mcp {
                h.f64s(slice.data());
            }
        }
        assert_eq!(h.0, golden, "train digest (memories = {use_memories})");
    }
}
