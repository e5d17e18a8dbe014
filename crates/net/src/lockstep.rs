//! The deterministic in-memory runtime: [`VirtualCluster`] steps a whole
//! gossip network through the *wire* message path under virtual time.
//!
//! This is the second binding of the "one core, two runtimes" design. The
//! node stepping is the same [`NodeCore`] the threaded [`crate::GossipRuntime`]
//! drives, every message crosses an [`InMemoryNetwork`] endpoint (and is
//! therefore encoded and decoded through the 33-byte wire codec), time is a
//! [`VirtualClock`] advanced one Δt per cycle, and all randomness comes from
//! the labelled [`SeedSequence`] streams of one master seed.
//!
//! The cluster executes cycles in *lockstep*, mirroring
//! [`gossip_sim::GossipSimulation`] draw for draw: same schedule shuffle,
//! same sampler streams, same fault-injection streams, same loss-coin order
//! inside each exchange. A seeded run is therefore not merely deterministic
//! — it is **bit-identical** to the cycle engine for the same seed,
//! membership and topology, which `tests/determinism.rs` pins. That identity
//! is the strongest statement this repository can make that the deployed
//! message path and the simulated one realise the same protocol.

use crate::node_core::{Delivery, NodeCore};
use crate::{InMemoryNetwork, Transport};
use aggregate_core::aggregate::CountInit;
use aggregate_core::effects::{Clock, SeedSequence, VirtualClock};
use aggregate_core::node::ProtocolNode;
use aggregate_core::redundancy::redundant_size_estimate_from_epoch;
use aggregate_core::sampler::{sample_live_peer, PeerSampler, SamplerConfig, SamplerDirectory};
use aggregate_core::{size_estimation, ExchangeTally, GossipMessage, InstanceTag};
use gossip_analysis::OnlineStats;
use gossip_faults::{enter_cycle, Adversary, AdversaryPlan, FaultPlan, LiveSet, PlanInjector};
use gossip_sim::sampling::{ADVERSARY_STREAM, FAULTS_STREAM, REDUNDANCY_STREAM};
use gossip_sim::{instantiate_sampler, CycleSummary, SimConfigError, SimulationConfig};
use gossip_telemetry::{Event, TelemetryConfig, TelemetrySink};
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Duration;

/// Sentinel for "slot is not live" in the slot → live-position map (the same
/// convention as the engine arena's internal map).
const NOT_LIVE: u32 = u32::MAX;

/// The live directory the peer sampler draws from: positions enumerate the
/// dense live array, liveness is an O(1) map lookup. Mirrors the engine's
/// `ArenaDirectory` exactly (same ordering, same answers); the generation
/// check is unnecessary here because a [`VirtualCluster`] never rejoins a
/// vacated slot, so every identifier in circulation is generation 0.
#[derive(Debug, Clone, Copy)]
struct LiveDirectory<'a> {
    live: &'a [u32],
    live_pos: &'a [u32],
}

impl SamplerDirectory for LiveDirectory<'_> {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn id_at(&self, pos: usize) -> NodeId {
        NodeId::from_u32(self.live[pos])
    }

    fn is_live(&self, id: NodeId) -> bool {
        let slot = id.as_u32() as usize;
        slot < self.live_pos.len() && self.live_pos[slot] != NOT_LIVE
    }
}

/// The cluster's side of the shared fault prologue: the same dense live
/// array and swap-remove bookkeeping as the engine arena, so crash bursts
/// leave both runtimes with identical live orders; telemetry keys on node
/// identifiers (= slots).
struct ClusterLive<'a> {
    nodes: &'a mut [Option<NodeCore>],
    live: &'a mut Vec<u32>,
    live_pos: &'a mut [u32],
    sampler: &'a mut dyn PeerSampler,
    telemetry: &'a mut TelemetrySink,
}

impl ClusterLive<'_> {
    fn core(&mut self, id: NodeId) -> Option<&mut NodeCore> {
        self.nodes.get_mut(id.as_u32() as usize)?.as_mut()
    }
}

impl LiveSet for ClusterLive<'_> {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn id_at(&self, pos: usize) -> NodeId {
        NodeId::from_u32(self.live[pos])
    }

    fn remove_at(&mut self, pos: usize) {
        let slot = self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.live_pos[moved as usize] = pos as u32;
        }
        self.live_pos[slot as usize] = NOT_LIVE;
        self.nodes[slot as usize] = None;
        if self.telemetry.events_enabled() {
            self.telemetry.node_departed(u64::from(slot));
        }
        self.sampler.on_depart(NodeId::from_u32(slot));
    }

    fn corrupt_estimate(&mut self, id: NodeId, value: f64) {
        if let Some(core) = self.core(id) {
            core.corrupt_estimate(value);
            if self.telemetry.events_enabled() {
                self.telemetry.value_corrupted(u64::from(id.as_u32()));
            }
        }
    }

    fn corrupt_instance(&mut self, leader: NodeId, state: f64) {
        if let Some(core) = self.core(leader) {
            core.node_mut()
                .corrupt_instance(InstanceTag::from_leader(leader), state);
        }
    }
}

/// A whole gossip network run deterministically inside one thread: real
/// [`NodeCore`] state machines, real wire frames over [`InMemoryNetwork`]
/// endpoints, virtual time — stepped one cycle at a time in lockstep with
/// the reference engine's schedule.
///
/// Takes the *same* [`SimulationConfig`] (and optionally the same
/// [`FaultPlan`]) as [`gossip_sim::GossipSimulation`] and produces the same
/// [`CycleSummary`] values, bit for bit. No joins are supported (the live
/// runtime has a static bootstrap membership); crash bursts from the fault
/// plan remove nodes exactly as the engine's churn path does.
///
/// # Example
///
/// ```
/// use gossip_net::VirtualCluster;
/// use gossip_sim::{GossipSimulation, SimulationConfig};
/// use aggregate_core::ProtocolConfig;
///
/// let config = SimulationConfig::averaging(ProtocolConfig::default());
/// let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
/// let mut wire = VirtualCluster::new(config, &values, 7).unwrap();
/// let mut engine = GossipSimulation::new(config, &values, 7);
/// // The wire runtime and the cycle engine take identical trajectories.
/// assert_eq!(wire.run(5), engine.run(5));
/// ```
#[derive(Debug)]
pub struct VirtualCluster {
    config: SimulationConfig,
    /// Slot-indexed node state; `None` marks a crashed node's vacated slot.
    nodes: Vec<Option<NodeCore>>,
    /// Wire endpoints, slot-indexed and immortal (a crashed node simply
    /// stops being scheduled; frames addressed to it are never sent because
    /// the sampler only returns live peers).
    endpoints: Vec<InMemoryNetwork>,
    /// Dense array of live slot indices, in engine live order.
    live: Vec<u32>,
    /// Slot → position in `live`, [`NOT_LIVE`] for vacated slots.
    live_pos: Vec<u32>,
    cycle: usize,
    clock: VirtualClock,
    rng: StdRng,
    sampler: Box<dyn PeerSampler + Send>,
    injector: PlanInjector,
    /// The stateful adversary, mirroring the engine's: colluders re-assert
    /// lies each cycle, captured leaders re-assert false instance states.
    adversary: Adversary,
    /// Master seed streams, kept for the per-epoch redundant leader draws.
    seeds: SeedSequence,
    /// Monotone counter keying the `redundancy-leaders` draws, in lockstep
    /// with the engine's.
    elections: u64,
    last_size_estimate: Option<f64>,
    scratch_pushes: Vec<GossipMessage>,
    /// The observability sink: same event schema as the cycle engines,
    /// timestamped from this cluster's virtual clock. Disabled by default;
    /// recording consumes no randomness, so enabling it never perturbs the
    /// wire-path trajectory.
    telemetry: TelemetrySink,
}

impl VirtualCluster {
    /// Creates a deterministic in-memory cluster with one node per initial
    /// value, all present from epoch 0, fault-free.
    ///
    /// # Errors
    ///
    /// Everything [`gossip_sim::GossipSimulation::try_new`] rejects: an empty
    /// population, non-finite initial values, invalid failure conditions,
    /// unrealisable sampler configurations.
    pub fn new(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
    ) -> Result<Self, SimConfigError> {
        VirtualCluster::with_faults(config, initial_values, master_seed, FaultPlan::none())
    }

    /// Creates the cluster executing the given [`FaultPlan`] (with the
    /// configuration's conditions absorbed underneath), exactly as
    /// [`gossip_sim::GossipSimulation::with_faults`] does.
    ///
    /// # Errors
    ///
    /// Everything [`VirtualCluster::new`] rejects, plus
    /// [`SimConfigError::Faults`] for a malformed schedule.
    pub fn with_faults(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
        plan: FaultPlan,
    ) -> Result<Self, SimConfigError> {
        VirtualCluster::with_adversary(
            config,
            initial_values,
            master_seed,
            plan,
            AdversaryPlan::none(),
        )
    }

    /// Creates the cluster executing a [`FaultPlan`] and a stateful
    /// [`AdversaryPlan`], exactly as
    /// [`gossip_sim::GossipSimulation::with_adversary`] does — the wire-path
    /// binding of the Byzantine adversary lab.
    ///
    /// # Errors
    ///
    /// Everything [`VirtualCluster::with_faults`] rejects, plus
    /// [`SimConfigError::Adversary`] for a malformed adversary plan.
    pub fn with_adversary(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
        plan: FaultPlan,
        adversary_plan: AdversaryPlan,
    ) -> Result<Self, SimConfigError> {
        config.validate(initial_values)?;
        let plan = plan.absorb_conditions(config.conditions);
        plan.validate()?;
        adversary_plan.validate()?;
        let n = initial_values.len();
        let nodes: Vec<Option<NodeCore>> = initial_values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Some(NodeCore::new(ProtocolNode::new(
                    NodeId::new(i),
                    config.protocol,
                    v,
                )))
            })
            .collect();
        let initial_ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let seeds = SeedSequence::new(master_seed);
        let sampler = instantiate_sampler(config.sampler, &initial_ids, &seeds)?;
        let injector = PlanInjector::new(plan, seeds.seed_for_labeled(0, FAULTS_STREAM));
        let adversary = Adversary::new(
            adversary_plan,
            seeds.seed_for_labeled(0, ADVERSARY_STREAM),
            &initial_ids,
        );
        let mut cluster = VirtualCluster {
            config,
            nodes,
            endpoints: InMemoryNetwork::create(n),
            live: (0..n as u32).collect(),
            live_pos: (0..n as u32).collect(),
            cycle: 0,
            clock: VirtualClock::new(),
            rng: seeds.rng_for_run(0),
            sampler,
            injector,
            adversary,
            seeds,
            elections: 0,
            last_size_estimate: None,
            scratch_pushes: Vec::new(),
            telemetry: TelemetrySink::new(TelemetryConfig::disabled()),
        };
        cluster.elect_leaders();
        Ok(cluster)
    }

    /// Installs (or replaces) the telemetry sink. With
    /// [`TelemetryConfig::disabled`] — the construction default — every hook
    /// is a single branch and the run stays bit-identical to the reference
    /// engine's trajectory.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = TelemetrySink::new(config);
        self.telemetry
            .begin_cycle(self.cycle as u64, self.clock.now_ms());
    }

    /// Drains the recorded events in canonical trace order.
    pub fn drain_trace(&mut self) -> Vec<Event> {
        self.telemetry.drain_events() // lint-allow(observer-effect): post-hoc export accessor for runners/tests, not protocol logic
    }

    /// The convergence watchdog's current verdict, if one is configured.
    pub fn watchdog_verdict(&self) -> Option<gossip_telemetry::WatchdogVerdict> {
        self.telemetry.watchdog_verdict() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// Every verdict transition the watchdog has diagnosed so far.
    pub fn watchdog_diagnoses(&self) -> &[gossip_telemetry::Diagnosis] {
        self.telemetry.diagnoses() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// The accumulated telemetry counters (post-hoc readout).
    pub fn telemetry_metrics(&self) -> &gossip_telemetry::MetricsRegistry {
        self.telemetry.metrics() // lint-allow(observer-effect): post-hoc metrics accessor for runners/tests, not protocol logic
    }

    /// The peer-sampling configuration partners are drawn from.
    pub fn sampler_config(&self) -> SamplerConfig {
        self.sampler.config()
    }

    /// The realised adversary (colluding set and per-epoch captures) — the
    /// cross-runtime tests inspect it to cross-check which nodes are lying.
    pub fn adversary(&self) -> &Adversary {
        &self.adversary
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The current cycle index.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// The cluster's virtual time in milliseconds (one Δt per cycle run).
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// The most recent pooled network-size estimate, if any epoch completed.
    pub fn last_size_estimate(&self) -> Option<f64> {
        self.last_size_estimate
    }

    /// Current default-instance estimates of all live nodes, in live order.
    pub fn estimates(&self) -> Vec<f64> {
        self.live
            .iter()
            .filter_map(|&slot| self.nodes[slot as usize].as_ref())
            .filter_map(|core| core.estimate())
            .collect()
    }

    /// Runs one full protocol cycle over the wire path and returns the same
    /// summary the reference engine produces for this cycle.
    pub fn run_cycle(&mut self) -> CycleSummary {
        let mut tally = ExchangeTally::default();
        let mut exchanges_blocked = 0usize;

        // Fault lab first, through the same prologue as the engine (crash
        // victims from the schedule RNG, as the engine's churn path draws).
        let loss = {
            let VirtualCluster {
                injector,
                adversary,
                cycle,
                rng,
                nodes,
                live,
                live_pos,
                sampler,
                telemetry,
                ..
            } = self;
            let mut live = ClusterLive {
                nodes,
                live,
                live_pos,
                sampler: sampler.as_mut(),
                telemetry,
            };
            enter_cycle(injector, adversary, *cycle, &mut live, rng)
        };

        // Overlay maintenance in lockstep with the aggregation cycle.
        self.sampler.begin_cycle(&LiveDirectory {
            live: &self.live,
            live_pos: &self.live_pos,
        });

        // Active phase: every live node initiates one exchange, in the same
        // shuffled order the engine draws — but here each exchange travels
        // as encoded wire frames through the in-memory transport and is
        // stepped through `NodeCore` message delivery.
        let mut order = self.live.clone();
        order.shuffle(&mut self.rng);
        for initiator_slot in order {
            let slot = initiator_slot as usize;
            if self.nodes[slot].is_none() {
                continue;
            }
            let peer_id = {
                let directory = LiveDirectory {
                    live: &self.live,
                    live_pos: &self.live_pos,
                };
                let initiator_pos = self.live_pos[slot] as usize;
                sample_live_peer(
                    self.sampler.as_mut(),
                    &directory,
                    initiator_pos,
                    &mut self.rng,
                )
            };
            let Some(peer_id) = peer_id else {
                continue;
            };
            let initiator_id = NodeId::from_u32(initiator_slot);
            if self.injector.link_blocked(initiator_id, peer_id) {
                self.sampler.peer_failed(initiator_id, peer_id);
                exchanges_blocked += 1;
                if self.telemetry.events_enabled() {
                    self.telemetry.exchange_vetoed(
                        u64::from(initiator_id.as_u32()),
                        u64::from(peer_id.as_u32()),
                    );
                }
                continue;
            }
            let peer_slot = peer_id.as_u32() as usize;
            let mut pushes = std::mem::take(&mut self.scratch_pushes);
            let started = self.nodes[slot]
                .as_mut()
                // lint-allow(unwrap): slot liveness checked when the schedule entry was drawn
                .expect("checked above")
                .begin(peer_id, &mut pushes);
            if !started {
                self.scratch_pushes = pushes;
                continue;
            }
            tally.exchanges += 1;
            let seq = (tally.exchanges - 1) as u64;
            let lost_before = tally.messages_lost;
            if self.telemetry.events_enabled() {
                self.telemetry.exchange_begun(
                    seq,
                    u64::from(initiator_id.as_u32()),
                    u64::from(peer_id.as_u32()),
                );
            }
            // Ship each push over the wire, delivering at the peer as it
            // lands; the loss coins are drawn in the exact order the
            // engine's `ExchangeCore::respond` draws them — push, then (if a
            // reply was produced) reply, for each push in turn.
            for push in &pushes {
                if loss > 0.0 && self.rng.gen_bool(loss) {
                    tally.messages_lost += 1;
                    continue;
                }
                self.endpoints[slot]
                    .send(push)
                    // lint-allow(unwrap): every live slot owns an in-memory endpoint; send cannot fail
                    .expect("sampled peer has an endpoint");
                let message = self.endpoints[peer_slot]
                    .recv_timeout(Duration::ZERO)
                    // lint-allow(unwrap): frames cross an in-memory channel bit-exactly; decode cannot fail
                    .expect("in-memory frames always decode")
                    // lint-allow(unwrap): the push was enqueued by the send directly above
                    .expect("frame was just enqueued");
                // When no reply is owed (stale-epoch push, epoch jump) there
                // is nothing to ship back; a peer can never be mid-exchange
                // here — the lockstep schedule completes each exchange
                // before the next begins.
                if let Delivery::Reply(reply) = self.nodes[peer_slot]
                    .as_mut()
                    // lint-allow(unwrap): peer liveness checked when the exchange was scheduled
                    .expect("sampled peer is live")
                    .deliver(message)
                {
                    if loss > 0.0 && self.rng.gen_bool(loss) {
                        tally.messages_lost += 1;
                    } else {
                        self.endpoints[peer_slot]
                            .send(&reply)
                            // lint-allow(unwrap): every live slot owns an in-memory endpoint; send cannot fail
                            .expect("initiator has an endpoint");
                    }
                }
            }
            // Absorb whatever replies made it back, then settle the
            // exchange.
            while let Ok(Some(reply)) = self.endpoints[slot].recv_timeout(Duration::ZERO) {
                self.nodes[slot]
                    .as_mut()
                    // lint-allow(unwrap): slot liveness checked when the schedule entry was drawn
                    .expect("checked above")
                    .deliver(reply);
            }
            self.nodes[slot]
                .as_mut()
                // lint-allow(unwrap): slot liveness checked when the schedule entry was drawn
                .expect("checked above")
                .close_pending();
            if self.telemetry.events_enabled() {
                let lost_now = tally.messages_lost - lost_before;
                for _ in 0..lost_now {
                    self.telemetry.message_lost(seq);
                }
                if lost_now == 0 {
                    self.telemetry.exchange_completed(seq);
                }
            }
            self.scratch_pushes = pushes;
        }
        let ExchangeTally {
            exchanges,
            messages_lost,
        } = tally;

        // End-of-cycle phase: epoch book-keeping on every live node, in live
        // order, exactly as the engine does.
        let mut completed_epoch = None;
        let mut epoch_estimates = Vec::new();
        let mut epoch_size_estimates = Vec::new();
        for pos in 0..self.live.len() {
            let slot = self.live[pos] as usize;
            let Some(core) = self.nodes[slot].as_mut() else {
                continue;
            };
            if let Some(result) = core.end_cycle() {
                completed_epoch = Some(result.epoch);
                if result.full_participation {
                    if let Some(estimate) = result.default_estimate() {
                        epoch_estimates.push(estimate);
                    }
                    // The defended estimator merges per-instance estimates;
                    // the undefended one pools instance states by averaging
                    // (same selection as the engine).
                    let size = match self.config.redundancy {
                        Some(redundancy) => {
                            redundant_size_estimate_from_epoch(&result, redundancy.merge).ok()
                        }
                        None => size_estimation::size_estimate_from_epoch(&result),
                    };
                    if let Some(size) = size {
                        epoch_size_estimates.push(size);
                    }
                }
            }
        }

        if !epoch_size_estimates.is_empty() {
            let mean = epoch_size_estimates.iter().sum::<f64>() / epoch_size_estimates.len() as f64;
            self.last_size_estimate = Some(mean);
        }

        if let Some(epoch) = completed_epoch {
            if self.telemetry.events_enabled() {
                self.telemetry.epoch_restarted(epoch);
            }
            self.elect_leaders();
        }

        let mut stats = OnlineStats::new();
        for &slot in &self.live {
            if let Some(estimate) = self.nodes[slot as usize]
                .as_ref()
                .and_then(|core| core.estimate())
            {
                stats.push(estimate);
            }
        }

        let summary = CycleSummary {
            cycle: self.cycle,
            live_nodes: self.live.len(),
            exchanges,
            messages_lost,
            exchanges_blocked,
            estimate_variance: stats.sample_variance(),
            estimate_mean: stats.mean(),
            completed_epoch,
            epoch_estimates,
            epoch_size_estimates,
        };
        self.telemetry
            .observe_variance(self.cycle as u64, summary.estimate_variance);
        self.cycle += 1;
        self.clock.advance(self.config.protocol.cycle_length_ms());
        // Open the next cycle's recording context — inter-cycle churn lands
        // in that cycle's start band, mirroring the reference engine.
        self.telemetry
            .begin_cycle(self.cycle as u64, self.clock.now_ms());
        summary
    }

    /// Runs `cycles` consecutive cycles, returning all summaries.
    pub fn run(&mut self, cycles: usize) -> Vec<CycleSummary> {
        (0..cycles).map(|_| self.run_cycle()).collect()
    }

    /// Re-runs the leader election for the counting instances, mirroring the
    /// engine (same iteration order, same RNG stream, same deterministic
    /// fallback leader, same redundant-election draws).
    fn elect_leaders(&mut self) {
        // A new epoch starts: whatever leaders the adversary captured last
        // epoch died with their instances.
        self.adversary.begin_epoch();
        if let Some(redundancy) = self.config.redundancy {
            self.elect_redundant_leaders(redundancy.instances);
            return;
        }
        let Some(policy) = self.config.leader_policy else {
            return;
        };
        let previous = self.last_size_estimate;
        let VirtualCluster {
            nodes,
            live,
            rng,
            adversary,
            telemetry,
            ..
        } = self;
        let record = telemetry.events_enabled();
        let mut any_leader = false;
        for &slot in live.iter() {
            if let Some(core) = nodes[slot as usize].as_mut() {
                if size_estimation::elect_leader(core.node_mut(), policy, previous, rng) {
                    any_leader = true;
                    adversary.observe_leader(core.id());
                    if record {
                        telemetry.leader_elected(u64::from(core.id().as_u32()));
                    }
                }
            }
        }
        if !any_leader {
            if let Some(&slot) = live.first() {
                if let Some(core) = nodes[slot as usize].as_mut() {
                    let tag = InstanceTag::from_leader(core.id());
                    core.node_mut().start_led_instance(tag, 1.0);
                    adversary.observe_leader(core.id());
                    if record {
                        telemetry.leader_elected(u64::from(core.id().as_u32()));
                    }
                }
            }
        }
    }

    /// The redundant-instance election, draw-for-draw identical to the
    /// engine's: a partial Fisher–Yates over the live directory from the
    /// `redundancy-leaders` stream, keyed by the same election counter.
    fn elect_redundant_leaders(&mut self, instances: usize) {
        let live_count = self.live.len();
        if live_count == 0 {
            return;
        }
        let k = instances.min(live_count);
        let mut rng = self
            .seeds
            .rng_for_labeled(self.elections, REDUNDANCY_STREAM);
        self.elections += 1;
        let mut positions: Vec<u32> = (0..live_count as u32).collect();
        for i in 0..k {
            let j = rng.gen_range(i..live_count);
            positions.swap(i, j);
        }
        for &pos in &positions[..k] {
            let slot = self.live[pos as usize] as usize;
            if let Some(core) = self.nodes[slot].as_mut() {
                let id = core.id();
                core.node_mut().start_led_instance(
                    InstanceTag::from_leader(id),
                    CountInit::initial_value(true),
                );
                self.adversary.observe_leader(id);
                if self.telemetry.events_enabled() {
                    self.telemetry.leader_elected(u64::from(id.as_u32()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::ProtocolConfig;
    use gossip_sim::GossipSimulation;

    fn averaging(cycles_per_epoch: u32) -> SimulationConfig {
        SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(cycles_per_epoch)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn wire_cluster_matches_the_engine_cycle_for_cycle() {
        let values: Vec<f64> = (0..120).map(|i| (i % 19) as f64).collect();
        let config = averaging(10);
        let mut wire = VirtualCluster::new(config, &values, 33).unwrap();
        let mut engine = GossipSimulation::new(config, &values, 33);
        for _ in 0..25 {
            assert_eq!(wire.run_cycle(), engine.run_cycle());
        }
        assert_eq!(wire.estimates(), engine.estimates());
    }

    #[test]
    fn virtual_time_advances_one_cycle_length_per_cycle() {
        let config = SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(10)
                .cycle_length_ms(2_000)
                .build()
                .unwrap(),
        );
        let mut cluster = VirtualCluster::new(config, &[1.0, 2.0, 3.0], 1).unwrap();
        assert_eq!(cluster.now_ms(), 0);
        cluster.run(4);
        assert_eq!(cluster.now_ms(), 8_000);
        assert_eq!(cluster.cycle(), 4);
    }

    #[test]
    fn rejects_what_the_engine_rejects() {
        let config = averaging(10);
        assert!(matches!(
            VirtualCluster::new(config, &[], 1).err(),
            Some(SimConfigError::ZeroNodes)
        ));
        assert!(matches!(
            VirtualCluster::new(config, &[1.0, f64::NAN], 1).err(),
            Some(SimConfigError::NonFiniteInitialValue { index: 1, .. })
        ));
        assert!(matches!(
            VirtualCluster::with_faults(config, &[1.0], 1, FaultPlan::with_link_failure(2.0)).err(),
            Some(SimConfigError::Faults { .. })
        ));
        let bad_sampler = SimulationConfig {
            sampler: SamplerConfig::Newscast { cache_size: 0 },
            ..config
        };
        assert!(matches!(
            VirtualCluster::new(bad_sampler, &[1.0, 2.0], 1).err(),
            Some(SimConfigError::Sampler { .. })
        ));
    }

    #[test]
    fn crash_bursts_mirror_the_engine_churn_path() {
        let values: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let config = averaging(10);
        let plan = FaultPlan::with_crash_burst(3, 0.25);
        let mut wire = VirtualCluster::with_faults(config, &values, 9, plan.clone()).unwrap();
        let mut engine = GossipSimulation::with_faults(config, &values, 9, plan).unwrap();
        for _ in 0..8 {
            assert_eq!(wire.run_cycle(), engine.run_cycle());
        }
        assert_eq!(wire.live_count(), 60);
        assert_eq!(wire.live_count(), engine.live_count());
        assert_eq!(wire.estimates(), engine.estimates());
    }
}
