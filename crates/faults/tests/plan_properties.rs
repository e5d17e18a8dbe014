//! Property tests for the fault-schedule DSL: any *valid* [`FaultPlan`] is
//! **deterministic** (two injectors over the same plan and seed answer every
//! query identically, in any order) and **monotone** (persistent link
//! failures never heal and never grow; partitions are active exactly inside
//! their half-open windows; crash bursts fire exactly at their cycle; the
//! effective loss rate stays a probability at every cycle).

use gossip_faults::{
    CrashBurst, FaultPlan, LossRamp, PartitionWindow, PlanInjector, ValueInjection,
};
use overlay_topology::NodeId;
use proptest::prelude::*;

/// Builds a valid plan from raw sampled tuples (probabilities already in
/// range, windows made non-empty and ramps well-ordered by construction).
#[allow(clippy::type_complexity)]
fn plan_from(
    link_failure: f64,
    base_loss: f64,
    partitions: Vec<(usize, usize, f64)>,
    crashes: Vec<(usize, f64)>,
    ramps: Vec<(usize, usize, f64, f64)>,
    injections: Vec<(usize, f64, f64)>,
) -> FaultPlan {
    FaultPlan {
        link_failure,
        base_loss,
        partitions: partitions
            .into_iter()
            .map(|(split, duration, fraction)| PartitionWindow {
                split_at_cycle: split,
                heal_at_cycle: split + 1 + duration,
                minority_fraction: fraction,
            })
            .collect(),
        crashes: crashes
            .into_iter()
            .map(|(cycle, fraction)| CrashBurst { cycle, fraction })
            .collect(),
        loss_ramps: ramps
            .into_iter()
            .map(|(start, span, a, b)| LossRamp {
                start_cycle: start,
                end_cycle: start + span,
                start_loss: a,
                end_loss: b,
            })
            .collect(),
        injections: injections
            .into_iter()
            .map(|(cycle, fraction, value)| ValueInjection {
                cycle,
                fraction,
                value,
            })
            .collect(),
    }
}

fn prob() -> std::ops::Range<f64> {
    0.0..1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every plan built by the generator passes validation, and its loss
    /// schedule is a probability at every cycle.
    #[test]
    fn generated_plans_are_valid_with_bounded_loss(
        link in prob(),
        base in prob(),
        partitions in proptest::collection::vec((0usize..60, 0usize..40, 0.0f64..1.0), 0..4),
        crashes in proptest::collection::vec((0usize..80, 0.0f64..1.0), 0..4),
        ramps in proptest::collection::vec((0usize..60, 0usize..40, 0.0f64..1.0, 0.0f64..1.0), 0..4),
    ) {
        let plan = plan_from(link, base, partitions, crashes, ramps, Vec::new());
        prop_assert!(plan.validate().is_ok());
        for cycle in 0..120 {
            let loss = plan.loss_at(cycle);
            prop_assert!((0.0..=1.0).contains(&loss), "cycle {cycle}: loss {loss}");
        }
    }

    /// Determinism: two injectors over the same (plan, seed) agree on every
    /// query — loss per cycle, link verdicts, crash counts and corruption
    /// victim lists — even when one of them is queried twice as often.
    #[test]
    fn same_plan_and_seed_answer_identically(
        link in prob(),
        base in prob(),
        partitions in proptest::collection::vec((0usize..30, 0usize..30, 0.0f64..1.0), 0..3),
        crashes in proptest::collection::vec((0usize..40, 0.0f64..1.0), 0..3),
        injections in proptest::collection::vec((0usize..40, 0.0f64..0.3, -1e6f64..1e6), 0..3),
        seed in 0u64..1_000,
    ) {
        let plan = plan_from(link, base, partitions, crashes, Vec::new(), injections);
        prop_assert!(plan.validate().is_ok());
        let mut a = PlanInjector::new(plan.clone(), seed);
        let mut b = PlanInjector::new(plan, seed);
        for cycle in 0..40 {
            a.begin_cycle(cycle);
            b.begin_cycle(cycle);
            prop_assert_eq!(a.loss_probability().to_bits(), b.loss_probability().to_bits());
            prop_assert_eq!(a.crash_count(500), b.crash_count(500));
            prop_assert_eq!(a.corruptions(500), b.corruptions(500));
            for i in 0..12u32 {
                let (x, y) = (NodeId::from_u32(i), NodeId::from_u32(i * 7 + 1));
                // Query `a` twice: link verdicts are pure, so extra queries
                // must not perturb anything.
                prop_assert_eq!(a.link_blocked(x, y), a.link_blocked(x, y));
                prop_assert_eq!(a.link_blocked(x, y), b.link_blocked(x, y));
                prop_assert_eq!(a.link_blocked(y, x), b.link_blocked(x, y), "symmetry");
            }
        }
    }

    /// Monotonicity: the dead-link set is constant over the whole run (no
    /// healing, no new failures); partitions block cross-side links exactly
    /// inside `[split, heal)`; crash bursts fire exactly at their cycle and
    /// never exceed the live count.
    #[test]
    fn fault_activation_is_monotone_in_time(
        link in prob(),
        split in 0usize..30,
        duration in 0usize..30,
        fraction in prob(),
        crash_cycle in 0usize..40,
        crash_fraction in prob(),
        seed in 0u64..1_000,
    ) {
        let plan = plan_from(
            link,
            0.0,
            vec![(split, duration, fraction)],
            vec![(crash_cycle, crash_fraction)],
            Vec::new(),
            Vec::new(),
        );
        prop_assert!(plan.validate().is_ok());
        let heal = split + 1 + duration;
        let mut injector = PlanInjector::new(plan, seed);

        // Freeze the persistent dead-link set at cycle 0 (outside any
        // partition effect by construction below).
        let pairs: Vec<(NodeId, NodeId)> = (0..10u32)
            .flat_map(|i| (i + 1..10).map(move |j| (NodeId::from_u32(i), NodeId::from_u32(j))))
            .collect();
        let dead_at_start: Vec<bool> = pairs
            .iter()
            .map(|&(a, b)| injector.link_dead(a, b))
            .collect();

        for cycle in 0..80 {
            injector.begin_cycle(cycle);
            let live = 1_000;
            let crashed = injector.crash_count(live);
            if cycle == crash_cycle {
                prop_assert!(crashed <= live);
                prop_assert_eq!(crashed, (crash_fraction * live as f64) as usize);
            } else {
                prop_assert_eq!(crashed, 0, "burst fired at cycle {}", cycle);
            }
            for (&(a, b), &dead) in pairs.iter().zip(&dead_at_start) {
                // The persistent component never changes…
                prop_assert_eq!(injector.link_dead(a, b), dead);
                // …and outside the partition window the verdict *is* the
                // persistent component.
                if !(split..heal).contains(&cycle) {
                    prop_assert_eq!(injector.link_blocked(a, b), dead);
                }
            }
            if (split..heal).contains(&cycle) {
                for &(a, b) in &pairs {
                    let split_sides =
                        injector.partition_side(0, a) != injector.partition_side(0, b);
                    prop_assert_eq!(
                        injector.link_blocked(a, b),
                        dead_at_start[pairs.iter().position(|&p| p == (a, b)).unwrap()]
                            || split_sides
                    );
                }
            }
        }
    }
}
