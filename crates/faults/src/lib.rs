//! # gossip-faults
//!
//! The fault-injection lab for the epidemic-aggregation workspace: a
//! deterministic, seeded schedule DSL for the robustness experiments of the
//! paper's Section 4 — and one step beyond them.
//!
//! The paper claims the averaging protocol degrades gracefully under link
//! failures, node crashes and message omission. This crate turns each of
//! those (plus network partitions and an adversarial value-injection attack
//! motivated by the fault-containment literature) into a declarative
//! [`FaultPlan`] that every simulation engine and runtime executes through
//! one [`PlanInjector`] and one shared cycle prologue, [`enter_cycle`]:
//!
//! * [`NetworkConditions`] — the legacy simple model (uniform loss plus one
//!   crash), absorbed into the plan via [`FaultPlan::from_conditions`];
//! * [`FaultPlan`] — the schedule DSL: persistent per-link failure maps,
//!   partition windows that split at cycle *k* and heal at cycle *m*,
//!   correlated crash bursts, message-loss ramps and value injections;
//! * [`PlanInjector`] — the seeded realisation of a plan. Decisions are
//!   pure functions of `(plan, seed, entity, cycle)` wherever an engine
//!   might evaluate them from more than one executor, and all adversarial
//!   randomness lives in a private stream so the **empty plan is
//!   bit-identical to no fault lab at all** — the property that lets
//!   `gossip-sim`'s engines route every run, faulty or not, through one
//!   code path;
//! * [`enter_cycle`] over a [`LiveSet`] — the per-cycle prologue (crashes,
//!   lies, injections) every runtime runs over a view of its live storage.
//!
//! # Example
//!
//! ```
//! use gossip_faults::{FaultPlan, PlanInjector};
//! use overlay_topology::NodeId;
//!
//! // 20 % of links dead forever, a partition over cycles 10..20, and a
//! // loss ramp flat at 5 %.
//! let plan = FaultPlan {
//!     link_failure: 0.2,
//!     base_loss: 0.05,
//!     ..FaultPlan::with_partition(10, 20, 0.3)
//! };
//! plan.validate().unwrap();
//!
//! // A fresh injector stands at cycle 0; `enter_cycle` advances it.
//! let injector = PlanInjector::new(plan, 42);
//! assert_eq!(injector.loss_probability(), 0.05);
//! // Persistent link decisions are pure and symmetric.
//! let (a, b) = (NodeId::new(1), NodeId::new(2));
//! assert_eq!(injector.link_blocked(a, b), injector.link_blocked(b, a));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversary;
mod conditions;
mod injector;
mod plan;
mod prologue;

pub use adversary::{Adversary, AdversaryPlan, AdversaryPlanError, AttackStrategy};
pub use conditions::{ConditionsError, NetworkConditions};
pub use injector::PlanInjector;
pub use plan::{CrashBurst, FaultPlan, FaultPlanError, LossRamp, PartitionWindow, ValueInjection};
pub use prologue::{crash_random, enter_cycle, LiveSet};
