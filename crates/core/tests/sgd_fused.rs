//! The fused per-sample SGD step (`UisClassifier::sgd_example`) against
//! its unfused definition: accumulate one example's gradient into zeroed
//! `Grads`, add the θR part into the running sum, then step every block
//! (`Mlp::sgd_step`, and `Mcp += (−lr)·g`). The two must agree bit for bit
//! — parameters, loss and θR gradient sum — over random widths, learning
//! rates, positive-class weights, both conversion settings, and inputs
//! that kill ReLU units (including an all-zero `vR`, which kills the whole
//! UIS-embedding block).

use lte_core::classifier::{ClassifierConfig, Example, Grads, SgdWorkspace, UisClassifier};
use lte_data::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// The unfused reference step.
fn reference_step(
    c: &mut UisClassifier,
    v_r: &[f64],
    example: &Example,
    pos_weight: f64,
    lr: f64,
    acc_r: &mut [f64],
) -> f64 {
    let mut g = Grads::zeros_like(c);
    let loss = c.loss_backward_weighted(v_r, example, &mut g, pos_weight);
    for (a, x) in acc_r.iter_mut().zip(&g.g_r) {
        *a += x;
    }
    c.r_block.sgd_step(&g.g_r, lr);
    c.t_block.sgd_step(&g.g_t, lr);
    c.clf_block.sgd_step(&g.g_clf, lr);
    if let (Some(m), Some(gm)) = (&mut c.conversion, &g.g_conv) {
        m.add_scaled(gm, -lr);
    }
    loss
}

fn bits(c: &UisClassifier) -> Vec<u64> {
    let mut flat = c.r_block.params();
    flat.extend(c.t_block.params());
    flat.extend(c.clf_block.params());
    if let Some(m) = &c.conversion {
        flat.extend_from_slice(m.data());
    }
    flat.iter().map(|v| v.to_bits()).collect()
}

fn random_vec(rng: &mut impl Rng, n: usize, scale: f64) -> Vec<f64> {
    (0..n)
        .map(|_| scale * rng.random_range(-1.0..1.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_step_is_bitwise_the_unfused_step(
        seed in 0u64..10_000,
        ku in 1usize..10,
        nr in 1usize..10,
        ne in 1usize..12,
        clf_hidden in 1usize..12,
        use_conversion in proptest::bool::ANY,
        lr in 0.0..1.0f64,
        pos_weight in 1.0..5.0f64,
        zero_vr in proptest::bool::ANY,
        n_examples in 1usize..6,
        steps in 1usize..4,
    ) {
        let cfg = ClassifierConfig { ku, nr, ne, clf_hidden, use_conversion };
        let mut rng = seeded(seed);
        let mut fused = UisClassifier::new(cfg, &mut rng);
        let mut unfused = fused.clone();
        let v_r = if zero_vr { vec![0.0; ku] } else { random_vec(&mut rng, ku, 2.0) };
        let examples: Vec<Example> = (0..n_examples)
            .map(|_| (random_vec(&mut rng, nr, 3.0), rng.random::<bool>()))
            .collect();

        let theta_r = fused.r_block.param_count();
        let (mut acc_fused, mut acc_unfused) = (vec![0.0; theta_r], vec![0.0; theta_r]);
        let mut ws = SgdWorkspace::default();
        for _ in 0..steps {
            for ex in &examples {
                let a = fused.sgd_example(&v_r, ex, pos_weight, lr, &mut ws, Some(&mut acc_fused));
                let b = reference_step(&mut unfused, &v_r, ex, pos_weight, lr, &mut acc_unfused);
                prop_assert_eq!(a.to_bits(), b.to_bits());
                prop_assert!(bits(&fused) == bits(&unfused), "parameters diverged");
            }
        }
        let acc_bits = |acc: &[f64]| acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert!(acc_bits(&acc_fused) == acc_bits(&acc_unfused), "θR gradient sums diverged");
    }
}
