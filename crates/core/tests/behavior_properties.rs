//! Property tests for the simulated-analyst behavior layer: zero noise and
//! zero shift must degenerate to the wrapped oracle *exactly*, abandonment
//! must never emit labels past its round, and selectivity must stay a
//! probability under any interest shift. The ground truth underneath, the
//! allocation-free `ConjunctiveOracle::label`, must agree with projecting
//! each row through `Subspace::project_row`.

use lte_core::oracle::{
    BehaviorOracle, ConjunctiveOracle, NoisyOracle, RegionOracle, SubspaceOracle,
};
use lte_core::scenario::{DriftSpec, DriftTrigger};
use lte_data::subspace::Subspace;
use lte_geom::{Aabb, Region, RegionUnion};
use proptest::prelude::*;

fn boxed(x0: f64, y0: f64, w: f64, h: f64) -> RegionUnion {
    RegionUnion::new(vec![Region::Box(Aabb::new(
        vec![x0, y0],
        vec![x0 + w, y0 + h],
    ))])
}

fn truth_of(region: RegionUnion) -> ConjunctiveOracle {
    ConjunctiveOracle::new(vec![(Subspace::new(vec![0, 1]), region)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Noise probability 0.0 is the wrapped oracle, label for label — both
    /// through `NoisyOracle` and through a full `BehaviorOracle`.
    #[test]
    fn zero_noise_degenerates_to_the_wrapped_oracle(
        x0 in -100.0..100.0f64, y0 in -100.0..100.0f64,
        w in 0.1..50.0f64, h in 0.1..50.0f64,
        rows in proptest::collection::vec(
            proptest::collection::vec(-200.0..200.0f64, 2), 0..40),
        seed in 0u64..1000,
    ) {
        let inner = RegionOracle::new(boxed(x0, y0, w, h));
        let noisy = NoisyOracle::new(RegionOracle::new(boxed(x0, y0, w, h)), 0.0, seed);
        let analyst = BehaviorOracle::new(truth_of(boxed(x0, y0, w, h)), seed);
        prop_assert!(analyst.begin_round(0));
        for row in &rows {
            prop_assert_eq!(noisy.label(row), inner.label(row));
            prop_assert_eq!(analyst.label_full(row), inner.label(row));
            prop_assert_eq!(analyst.subspace_view(0).label(row), inner.label(row));
        }
    }

    /// Labelling through the oracle's stack-buffer projection equals the
    /// AND of each region's test on the allocated projection — for
    /// repeated and reordered attributes, and for subspaces wider than the
    /// buffer.
    #[test]
    fn conjunctive_label_matches_projected_containment(
        parts in proptest::collection::vec(
            (proptest::collection::vec(0usize..12, 1..12), -0.3..0.3f64, 0.6..1.4f64),
            1..4),
        rows in proptest::collection::vec(
            proptest::collection::vec(0.0..1.0f64, 12), 1..30),
    ) {
        let parts: Vec<(Subspace, RegionUnion)> = parts
            .into_iter()
            .map(|(attrs, lo, w)| {
                let dim = attrs.len();
                let region = RegionUnion::new(vec![Region::Box(Aabb::new(
                    vec![lo; dim],
                    vec![lo + w; dim],
                ))]);
                (Subspace::new(attrs), region)
            })
            .collect();
        let truth = ConjunctiveOracle::new(parts.clone());
        for row in &rows {
            let want = parts
                .iter()
                .all(|(sub, region)| region.contains(&sub.project_row(row)));
            prop_assert_eq!(truth.label(row), want);
        }
    }

    /// Shift magnitude 0.0 is the identity *bitwise*: the shifted truth
    /// compares equal to the original, part for part.
    #[test]
    fn zero_shift_degenerates_to_the_original_truth(
        x0 in -100.0..100.0f64, y0 in -100.0..100.0f64,
        w in 0.1..50.0f64, h in 0.1..50.0f64,
        at in 0usize..5,
    ) {
        let region = boxed(x0, y0, w, h);
        let spec = DriftSpec {
            trigger: DriftTrigger::AtRound(at),
            translate_frac: 0.0,
            scale: 1.0,
        };
        prop_assert!(spec.is_noop());
        prop_assert_eq!(spec.apply(&region), region.clone());
        let truth = truth_of(region);
        let shifted = spec.shift_truth(&truth);
        prop_assert_eq!(shifted.parts(), truth.parts());
    }

    /// Abandonment at round k: rounds `0..k` run, everything later refuses
    /// to start, and the label counter counts exactly the rounds that ran.
    #[test]
    fn abandonment_never_emits_labels_past_round_k(
        k in 0usize..8, total in 0usize..8, seed in 0u64..1000,
    ) {
        let analyst = BehaviorOracle::new(truth_of(boxed(0.0, 0.0, 1.0, 1.0)), seed)
            .with_noise(0.5)
            .with_abandonment(k);
        let mut labelled = 0u64;
        for r in 0..total {
            if analyst.begin_round(r) {
                prop_assert!(r < k, "round {} ran despite abandonment at {}", r, k);
                analyst.subspace_view(0).label(&[0.5, 0.5]);
                labelled += 1;
            } else {
                prop_assert!(r >= k, "round {} refused before abandonment at {}", r, k);
            }
        }
        prop_assert_eq!(analyst.labels_emitted(), labelled);
        prop_assert_eq!(labelled as usize, k.min(total));
    }

    /// Selectivity is a probability under any shift, however extreme —
    /// including negative scales (inverted boxes) and off-domain moves.
    #[test]
    fn selectivity_stays_in_unit_interval_under_any_shift(
        x0 in -100.0..100.0f64, y0 in -100.0..100.0f64,
        w in 0.1..50.0f64, h in 0.1..50.0f64,
        translate in -3.0..3.0f64, scale in -2.0..4.0f64,
        rows in proptest::collection::vec(
            proptest::collection::vec(-500.0..500.0f64, 2), 1..60),
    ) {
        let spec = DriftSpec {
            trigger: DriftTrigger::AtRound(0),
            translate_frac: translate,
            scale,
        };
        let shifted = spec.shift_truth(&truth_of(boxed(x0, y0, w, h)));
        let sel = shifted.selectivity(&rows);
        prop_assert!((0.0..=1.0).contains(&sel), "selectivity {} out of range", sel);
    }
}
