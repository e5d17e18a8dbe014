//! P1 — performance micro-benchmarks (Criterion): elementary exchange cost,
//! one full AVG cycle, topology generation, wire codec and the newscast
//! membership cycle. These have no counterpart in the paper (which reports no
//! wall-clock numbers); they document the cost of the building blocks.

use aggregate_core::aggregate::{Aggregate, Average};
use aggregate_core::avg::run_avg_cycle;
use aggregate_core::node::ProtocolNode;
use aggregate_core::sampler::{PeerSampler, SliceDirectory};
use aggregate_core::selectors::SequentialSelector;
use aggregate_core::ProtocolConfig;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gossip_net::codec;
use overlay_topology::{generators, CompleteTopology, NodeId};
use peer_sampling::NewscastSampler;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_elementary_exchange(c: &mut Criterion) {
    c.bench_function("elementary_merge_average", |b| {
        b.iter(|| black_box(Average.merge(black_box(1.5), black_box(2.5))))
    });

    c.bench_function("push_pull_exchange_between_two_nodes", |b| {
        let config = ProtocolConfig::default();
        b.iter_batched(
            || {
                (
                    ProtocolNode::new(NodeId::new(0), config, 1.0),
                    ProtocolNode::new(NodeId::new(1), config, 9.0),
                )
            },
            |(mut a, mut other)| {
                for push in a.begin_exchange(NodeId::new(1)) {
                    if let Some(reply) = other.handle_message(push) {
                        a.handle_message(reply);
                    }
                }
                black_box((a, other))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_avg_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("avg_cycle");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000] {
        group.bench_function(format!("sequential_complete_n{n}"), |b| {
            let topo = CompleteTopology::new(n);
            b.iter_batched(
                || {
                    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    (
                        values,
                        SequentialSelector::new(),
                        rand::rngs::StdRng::seed_from_u64(1),
                    )
                },
                |(mut values, mut selector, mut rng)| {
                    run_avg_cycle(&mut values, &topo, &mut selector, &mut rng, 0).unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_topology_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_generation");
    group.sample_size(10);
    group.bench_function("random_regular_n10000_k20", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            generators::random_regular(10_000, 20, &mut rng).unwrap()
        })
    });
    group.bench_function("erdos_renyi_n10000_p0.002", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            generators::erdos_renyi(10_000, 0.002, &mut rng).unwrap()
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let message = aggregate_core::GossipMessage::Push {
        from: NodeId::new(12),
        to: NodeId::new(99),
        instance: aggregate_core::InstanceTag(3),
        epoch: 42,
        value: 3.25,
    };
    c.bench_function("codec_encode", |b| {
        b.iter(|| codec::encode(black_box(&message)))
    });
    let frame = codec::encode(&message);
    c.bench_function("codec_decode", |b| {
        b.iter(|| codec::decode(black_box(&frame)).unwrap())
    });
}

fn bench_membership_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership");
    group.sample_size(10);
    let ids: Vec<NodeId> = (0..1_000).map(NodeId::new).collect();
    let directory = SliceDirectory::new(&ids);
    group.bench_function("newscast_cycle_n1000_view20", |b| {
        b.iter_batched(
            || NewscastSampler::bootstrap_ring(20, &ids, 3),
            |mut membership| {
                membership.begin_cycle(&directory);
                black_box(membership)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_elementary_exchange,
    bench_avg_cycle,
    bench_topology_generation,
    bench_codec,
    bench_membership_cycle
);
criterion_main!(benches);
