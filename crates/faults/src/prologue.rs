//! The per-cycle fault/adversary prologue, written once for every runtime:
//! [`enter_cycle`] over each runtime's [`LiveSet`] view of its own storage.

use crate::adversary::Adversary;
use crate::injector::PlanInjector;
use overlay_topology::NodeId;
use rand::Rng;

/// One runtime's dense live directory, as seen by the fault prologue.
///
/// Positions enumerate the live nodes in the runtime's directory order
/// (the order crash victims and injection victims are drawn over).
/// Implementations record their own telemetry for every removal and
/// corruption they apply, keyed however the runtime keys its trace.
pub trait LiveSet {
    /// Number of live nodes.
    fn len(&self) -> usize;

    /// Whether no node is live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The identifier of the live node at `pos` (`pos < len()`).
    fn id_at(&self, pos: usize) -> NodeId;

    /// Crashes the live node at `pos`: removes it from the directory
    /// (swap-remove, so the last node takes `pos`) and notifies the peer
    /// sampler, exactly as a churn departure would.
    fn remove_at(&mut self, pos: usize);

    /// Overwrites the running default-instance estimate of node `id` with
    /// `value`. A no-op when `id` has departed (or, in the live runtime, is
    /// not the local node).
    fn corrupt_estimate(&mut self, id: NodeId, value: f64);

    /// Forces the state of the counting instance led by `leader` at the
    /// leader node itself. A no-op when `leader` has departed, and by default:
    /// a runtime that elects no leaders never has one captured.
    fn corrupt_instance(&mut self, _leader: NodeId, _state: f64) {}
}

/// Removes up to `count` uniformly random live nodes, one
/// `gen_range(0..len)` draw from `rng` per victim. Returns the number
/// removed (fewer than `count` only when the live set runs dry).
pub fn crash_random<L: LiveSet, R: Rng>(live: &mut L, rng: &mut R, count: usize) -> usize {
    let mut removed = 0;
    while removed < count && !live.is_empty() {
        let pos = rng.gen_range(0..live.len());
        live.remove_at(pos);
        removed += 1;
    }
    removed
}

/// Enters `cycle` on one runtime and returns the cycle's message-loss
/// probability. In order:
///
/// 1. the injector enters the cycle;
/// 2. scheduled crash bursts remove their victims through
///    [`crash_random`], drawing from `crash_rng` (the runtime's churn
///    stream);
/// 3. every colluder re-asserts the adversary's lie, in initial-position
///    order, and every captured leader re-asserts the false instance state;
/// 4. the injector's value injections corrupt their victims — except a node
///    the adversary is actively lying through, which keeps the lie (one
///    corruption per node per cycle).
///
/// Only step 2 consumes randomness outside the injector, so the empty plan
/// and the empty adversary leave every runtime's trajectory untouched.
pub fn enter_cycle<L: LiveSet, R: Rng>(
    injector: &mut PlanInjector,
    adversary: &Adversary,
    cycle: usize,
    live: &mut L,
    crash_rng: &mut R,
) -> f64 {
    injector.begin_cycle(cycle);
    let victims = injector.crash_count(live.len());
    crash_random(live, crash_rng, victims);
    if let Some(value) = adversary.lie_at(cycle) {
        for &id in adversary.colluders() {
            live.corrupt_estimate(id, value);
        }
    }
    if let Some(state) = adversary.captured_state_at(cycle) {
        for &leader in adversary.captured() {
            live.corrupt_instance(leader, state);
        }
    }
    for (pos, value) in injector.corruptions(live.len()) {
        let id = live.id_at(pos);
        if !adversary.overrides_injection(cycle, id) {
            live.corrupt_estimate(id, value);
        }
    }
    injector.loss_probability()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryPlan, AttackStrategy};
    use crate::plan::{CrashBurst, FaultPlan, ValueInjection};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A plain vector directory that logs every action it is asked for.
    #[derive(Default)]
    struct Log {
        live: Vec<NodeId>,
        actions: Vec<String>,
    }

    impl LiveSet for Log {
        fn len(&self) -> usize {
            self.live.len()
        }
        fn id_at(&self, pos: usize) -> NodeId {
            self.live[pos]
        }
        fn remove_at(&mut self, pos: usize) {
            let id = self.live.swap_remove(pos);
            self.actions.push(format!("crash {id}"));
        }
        fn corrupt_estimate(&mut self, id: NodeId, value: f64) {
            if self.live.contains(&id) {
                self.actions.push(format!("estimate {id}={value}"));
            }
        }
        fn corrupt_instance(&mut self, leader: NodeId, state: f64) {
            self.actions.push(format!("instance {leader}={state}"));
        }
    }

    fn log(n: usize) -> Log {
        Log {
            live: (0..n).map(NodeId::new).collect(),
            actions: Vec::new(),
        }
    }

    #[test]
    fn crash_random_stops_when_the_live_set_runs_dry() {
        let mut live = log(3);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(crash_random(&mut live, &mut rng, 5), 3);
        assert!(live.live.is_empty());
        assert_eq!(live.actions.len(), 3);
    }

    #[test]
    fn empty_plans_do_nothing_and_draw_nothing() {
        let mut injector = PlanInjector::new(FaultPlan::none(), 3);
        let mut live = log(10);
        let mut rng = StdRng::seed_from_u64(9);
        let mut untouched = rng.clone();
        for cycle in 0..5 {
            let loss = enter_cycle(
                &mut injector,
                &Adversary::none(),
                cycle,
                &mut live,
                &mut rng,
            );
            assert_eq!(loss, 0.0);
        }
        assert!(live.actions.is_empty());
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    fn crashes_precede_lies_which_win_over_injections() {
        let plan = FaultPlan {
            crashes: vec![CrashBurst {
                cycle: 0,
                fraction: 0.25,
            }],
            injections: vec![ValueInjection {
                cycle: 0,
                fraction: 1.0,
                value: 100.0,
            }],
            base_loss: 0.1,
            ..FaultPlan::default()
        };
        let n = 8;
        let ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let adversary = Adversary::new(
            AdversaryPlan::with_strategy(0.5, AttackStrategy::FixedLie { value: 7.0 }),
            11,
            &ids,
        );
        let mut injector = PlanInjector::new(plan, 5);
        let mut live = log(n);
        let mut rng = StdRng::seed_from_u64(2);
        let loss = enter_cycle(&mut injector, &adversary, 0, &mut live, &mut rng);
        assert_eq!(loss, 0.1);

        let crashes = live
            .actions
            .iter()
            .take_while(|a| a.starts_with("crash"))
            .count();
        assert_eq!(crashes, 2, "a quarter of 8 nodes crash first");
        // Every surviving node is corrupted exactly once: colluders keep the
        // lie, honest survivors take the injection.
        let mut seen = Vec::new();
        for action in &live.actions[crashes..] {
            let (who, value) = action
                .trim_start_matches("estimate ")
                .split_once('=')
                .unwrap();
            assert!(!seen.contains(&who.to_string()), "{who} corrupted twice");
            seen.push(who.to_string());
            let id = ids.iter().find(|id| id.to_string() == who).unwrap();
            let expected = if adversary.is_colluder(*id) {
                "7"
            } else {
                "100"
            };
            assert_eq!(value, expected, "{who}");
        }
        assert_eq!(seen.len(), n - 2);
    }
}
