//! One driving interface over the two engines the workloads run: the
//! sharded cycle engine and the lockstep wire cluster. Only their public
//! API is called.

use gossip_net::VirtualCluster;
use gossip_sim::ShardedSimulation;
use gossip_telemetry::{Event, TelemetryConfig};

/// Epoch results reported at the end of a cycle that completed an epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Nodes that reported an epoch estimate.
    pub reports: u64,
    /// Mean of the reported estimates.
    pub mean: f64,
}

/// What one cycle reports, in a form common to both engines.
#[derive(Debug, Clone)]
pub struct CycleStats {
    pub exchanges: usize,
    pub lost: usize,
    pub blocked: usize,
    pub live: usize,
    pub variance: f64,
    pub epoch: Option<EpochStats>,
    /// Exchanges initiated per shard (empty for the wire cluster).
    pub shard_exchanges: Vec<usize>,
}

pub trait Engine {
    /// Span names of the constructor, `run_cycle` and drop.
    const NEW_SPAN: &'static str;
    const RUN_CYCLE_SPAN: &'static str;
    const DROP_SPAN: &'static str;

    fn step(&mut self) -> CycleStats;
    fn estimates(&self) -> Vec<f64>;
    fn set_telemetry(&mut self, config: TelemetryConfig);
    fn drain_trace(&mut self) -> Vec<Event>;
    /// Flight-recorder events evicted so far, where the engine exposes it.
    fn dropped_trace_events(&self) -> u64;
}

impl Engine for ShardedSimulation {
    const NEW_SPAN: &'static str = "sharded.new";
    const RUN_CYCLE_SPAN: &'static str = "sharded.run_cycle";
    const DROP_SPAN: &'static str = "sharded.drop";

    fn step(&mut self) -> CycleStats {
        let s = self.run_cycle();
        CycleStats {
            exchanges: s.exchanges,
            lost: s.messages_lost,
            blocked: s.exchanges_blocked,
            live: s.live_nodes,
            variance: s.estimate_variance,
            epoch: s.completed_epoch.map(|_| EpochStats {
                reports: s.epoch_estimates.count(),
                mean: s.epoch_estimates.mean(),
            }),
            shard_exchanges: s.shard_exchanges,
        }
    }

    fn estimates(&self) -> Vec<f64> {
        ShardedSimulation::estimates(self)
    }

    fn set_telemetry(&mut self, config: TelemetryConfig) {
        ShardedSimulation::set_telemetry(self, config);
    }

    fn drain_trace(&mut self) -> Vec<Event> {
        ShardedSimulation::drain_trace(self)
    }

    fn dropped_trace_events(&self) -> u64 {
        ShardedSimulation::dropped_trace_events(self)
    }
}

impl Engine for VirtualCluster {
    const NEW_SPAN: &'static str = "lockstep.new";
    const RUN_CYCLE_SPAN: &'static str = "lockstep.run_cycle";
    const DROP_SPAN: &'static str = "lockstep.drop";

    fn step(&mut self) -> CycleStats {
        let s = self.run_cycle();
        let reports = s.epoch_estimates.len();
        CycleStats {
            exchanges: s.exchanges,
            lost: s.messages_lost,
            blocked: s.exchanges_blocked,
            live: s.live_nodes,
            variance: s.estimate_variance,
            epoch: s.completed_epoch.map(|_| EpochStats {
                reports: reports as u64,
                mean: s.epoch_estimates.iter().sum::<f64>() / reports.max(1) as f64,
            }),
            shard_exchanges: Vec::new(),
        }
    }

    fn estimates(&self) -> Vec<f64> {
        VirtualCluster::estimates(self)
    }

    fn set_telemetry(&mut self, config: TelemetryConfig) {
        VirtualCluster::set_telemetry(self, config);
    }

    fn drain_trace(&mut self) -> Vec<Event> {
        VirtualCluster::drain_trace(self)
    }

    /// The cluster has no public eviction counter; its workload runs with
    /// telemetry off, so nothing is recorded to evict.
    fn dropped_trace_events(&self) -> u64 {
        0
    }
}
