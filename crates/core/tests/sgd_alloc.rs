//! Allocation gate on the per-sample SGD pass: a counting global allocator
//! shows that a local-adaptation run (Eq. 12) allocates the same number of
//! times at 5 steps as at 1 step — every heap allocation is per run (the
//! adapted classifier, the workspace's first sizing), none per pass.
//!
//! The counter is thread-local and const-initialised, so tests running in
//! parallel in this binary never see each other's allocations.

use lte_core::classifier::{ClassifierConfig, Example, UisClassifier};
use lte_core::config::LteConfig;
use lte_core::context::SubspaceContext;
use lte_core::feature::expansion_degree;
use lte_core::meta_learner::MetaLearner;
use lte_core::meta_task::{generate_task_set, MetaTask};
use lte_data::generator::generate_sdss;
use lte_data::rng::seeded;
use lte_data::subspace::Subspace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System` plus a per-thread count of `alloc`/`alloc_zeroed`/`realloc`.
struct Counting;

fn count() {
    // `try_with`: never panic inside the allocator during TLS teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, so `System`'s guarantees are this allocator's; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on the calling thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn setup() -> (SubspaceContext, Vec<MetaTask>, LteConfig) {
    let table = generate_sdss(3000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 12;
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

fn labels(task: &MetaTask) -> Vec<Example> {
    task.support.iter().chain(&task.query).cloned().collect()
}

/// Assert that `run(steps)` allocates as often at 5 steps as at 1.
fn assert_no_per_pass_allocations(what: &str, passes_per_step: usize, run: impl Fn(usize)) {
    let one = allocations_during(|| run(1));
    let five = allocations_during(|| run(5));
    assert!(
        one > 0,
        "{what}: the counter must see the per-run allocations"
    );
    assert_eq!(
        five,
        one,
        "{what}: {:.2} allocations per SGD pass",
        (five as f64 - one as f64) / (4 * passes_per_step) as f64
    );
}

#[test]
fn adapt_weighted_allocates_nothing_per_pass() {
    let (ctx, tasks, cfg) = setup();
    for use_memories in [true, false] {
        let mut train = cfg.train.clone();
        train.use_memories = use_memories;
        let learner = MetaLearner::new(cfg.task.ku, ctx.feature_width(), &cfg.net, train, 3);
        let ex = labels(&tasks[0]);
        let w = UisClassifier::balance_weight(&ex);
        assert_no_per_pass_allocations(
            &format!("adapt_weighted (memories = {use_memories})"),
            ex.len(),
            |steps| {
                black_box(learner.adapt_weighted(&tasks[0].v_r, &ex, steps, 0.05, w));
            },
        );
    }
}

#[test]
fn train_local_weighted_allocates_nothing_per_pass() {
    let (ctx, tasks, cfg) = setup();
    let arch = ClassifierConfig {
        ku: cfg.task.ku,
        nr: ctx.feature_width(),
        ne: cfg.net.ne,
        clf_hidden: cfg.net.clf_hidden,
        use_conversion: false,
    };
    let fresh = UisClassifier::new(arch, &mut seeded(4));
    let ex = labels(&tasks[1]);
    let w = UisClassifier::balance_weight(&ex);
    let v_r = &tasks[1].v_r;
    assert_no_per_pass_allocations("train_local_weighted", ex.len(), |steps| {
        // The clone is counted too, identically at every step count.
        let mut c = fresh.clone();
        black_box(c.train_local_weighted(v_r, &ex, steps, 0.05, w));
    });
}
