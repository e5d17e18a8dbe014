//! Standalone per-layer probes for the traced run. Each one calls a single
//! layer's public functions on inputs sized from the workload, inside
//! spans named after the function it times.

use crate::stats::{median, rss_mb};
use crate::trace::Tracer;
use aggregate_core::sampler::{PeerSampler, SliceDirectory};
use aggregate_core::{
    AggregateKind, ExchangeCore, ExchangeScratch, ExchangeTally, GossipMessage, InstanceTag,
    ProtocolConfig, ProtocolNode, SeedSequence,
};
use gossip_net::{codec, InMemoryNetwork, Transport};
use gossip_sim::soa::{self, HotSlot, WordBuffer};
use gossip_telemetry::{merge_events, Event, EventKind, FlightRecorder, DEFAULT_RING_CAPACITY};
use overlay_topology::NodeId;
use peer_sampling::NewscastSampler;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

/// Calls timed per span in the per-call probes.
const CHUNK: usize = 1 << 16;
/// Chunks per per-call probe; the reported time is the median chunk's.
const CHUNKS: usize = 9;

fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Median ns per call over the `name` spans, each covering `calls` calls.
fn ns_per_call(tracer: &Tracer, name: &str, calls: usize) -> f64 {
    median_or_zero(&tracer.durations_ns(name)) / calls as f64
}

/// Distinct random index pairs over `0..n`.
fn random_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| loop {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                break (a, b);
            }
        })
        .collect()
}

/// `soa::shuffle_batched` over `positions` global positions: median ms.
pub fn shuffle_ms(tracer: &mut Tracer, positions: usize, seed: u64) -> f64 {
    let mut order: Vec<u32> = (0..positions as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..5 {
        tracer.span("soa.shuffle_batched", |_| {
            soa::shuffle_batched(&mut order, &mut rng)
        });
    }
    black_box(&order);
    median_or_zero(&tracer.durations_ns("soa.shuffle_batched")) / 1e6
}

/// `ExchangeCore::exchange_fused_raw` on random pairs of 16-byte hot
/// records over `nodes` slots: median ns per exchange.
pub fn exchange_fused_ns(tracer: &mut Tracer, nodes: usize, seed: u64) -> f64 {
    let mut slots: Vec<HotSlot> = (0..nodes)
        .map(|i| HotSlot {
            state: i as f64,
            key: 0,
            exchanges: 0,
        })
        .collect();
    let pairs = random_pairs(nodes, CHUNK * CHUNKS, seed);
    let mut tally = ExchangeTally::default();
    for chunk in pairs.chunks(CHUNK) {
        tracer.span("core.exchange_fused_raw", |_| {
            for &(a, b) in chunk {
                let (lo, hi) = (a.min(b), a.max(b));
                let (left, right) = slots.split_at_mut(hi);
                let (first, second) = (&mut left[lo], &mut right[0]);
                let (init, peer) = if a < b {
                    (first, second)
                } else {
                    (second, first)
                };
                ExchangeCore::exchange_fused_raw(
                    AggregateKind::Average,
                    &mut init.state,
                    &mut init.exchanges,
                    &mut peer.state,
                    &mut peer.exchanges,
                    &mut || false,
                    &mut tally,
                );
            }
        });
    }
    black_box((&slots, tally));
    ns_per_call(tracer, "core.exchange_fused_raw", CHUNK)
}

/// Bytes one fused exchange moves, computed from the record size: both
/// endpoint records are read and written once.
pub fn bytes_per_fused_exchange() -> f64 {
    (4 * std::mem::size_of::<HotSlot>()) as f64
}

/// `ExchangeCore::exchange` on random pairs of `ProtocolNode`s: median ns
/// per exchange.
pub fn exchange_ns(tracer: &mut Tracer, nodes: usize, seed: u64) -> f64 {
    let protocol = ProtocolConfig::default();
    let mut population: Vec<ProtocolNode> = (0..nodes)
        .map(|i| ProtocolNode::new(NodeId::new(i), protocol, i as f64))
        .collect();
    let pairs = random_pairs(nodes, CHUNK * CHUNKS, seed);
    let mut scratch = ExchangeScratch::new();
    let mut tally = ExchangeTally::default();
    for chunk in pairs.chunks(CHUNK) {
        tracer.span("core.exchange", |_| {
            for &(a, b) in chunk {
                let (lo, hi) = (a.min(b), a.max(b));
                let (left, right) = population.split_at_mut(hi);
                let (first, second) = (&mut left[lo], &mut right[0]);
                let (init, peer) = if a < b {
                    (first, second)
                } else {
                    (second, first)
                };
                ExchangeCore::exchange(init, peer, &mut scratch, &mut || false, &mut tally);
            }
        });
    }
    black_box((&population, tally));
    ns_per_call(tracer, "core.exchange", CHUNK)
}

/// Words per second drawn by `SeedSequence::fill_block` and
/// `soa::WordBuffer::next` together.
pub fn words_per_s(tracer: &mut Tracer, seed: u64) -> f64 {
    let seeds = SeedSequence::new(seed);
    let mut block = vec![0u64; CHUNK];
    for i in 0..CHUNKS {
        tracer.span("effects.fill_block", |_| {
            seeds.fill_block((i * CHUNK) as u64, &mut block)
        });
        black_box(&block);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words = WordBuffer::new();
    for _ in 0..CHUNKS {
        let sum = tracer.span("soa.word_buffer_next", |_| {
            (0..CHUNK).fold(0u64, |acc, _| acc ^ words.next(&mut rng))
        });
        black_box(sum);
    }
    let fill = median_or_zero(&tracer.durations_ns("effects.fill_block"));
    let next = median_or_zero(&tracer.durations_ns("soa.word_buffer_next"));
    2.0 * CHUNK as f64 / ((fill + next) / 1e9)
}

/// NEWSCAST maintenance and sampling on a standalone sampler.
#[derive(Debug, Clone, Copy)]
pub struct Membership {
    pub begin_cycle_ms: f64,
    pub sample_ns: f64,
    pub stale_descriptors: f64,
    pub stale_sample_ratio: f64,
}

/// `NewscastSampler` (cache `cache_size`) over a `SliceDirectory` of
/// `nodes` identifiers: three `begin_cycle` calls, then one `sample` per
/// node.
pub fn membership(tracer: &mut Tracer, nodes: usize, cache_size: usize, seed: u64) -> Membership {
    let ids: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
    let directory = SliceDirectory::new(&ids);
    let mut sampler = tracer.span("membership.new", |_| {
        NewscastSampler::new(cache_size, &ids, seed)
    });
    for _ in 0..3 {
        tracer.span("membership.begin_cycle", |_| {
            sampler.begin_cycle(&directory)
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let picks: Vec<Option<NodeId>> = tracer.span("membership.sample", |_| {
        (0..nodes)
            .map(|pos| sampler.sample(&directory, pos, &mut rng as &mut dyn RngCore))
            .collect()
    });
    // Identifiers are dense positions, so a pick is live iff it indexes one.
    let stale = picks
        .iter()
        .filter(|p| !matches!(p, Some(id) if id.index() < nodes))
        .count();
    tracer.count("membership.stale_samples", stale as f64);
    Membership {
        begin_cycle_ms: median_or_zero(&tracer.durations_ns("membership.begin_cycle")) / 1e6,
        sample_ns: median_or_zero(&tracer.durations_ns("membership.sample")) / nodes as f64,
        stale_descriptors: sampler.stale_descriptors() as f64,
        stale_sample_ratio: stale as f64 / nodes as f64,
    }
}

/// `FlightRecorder::record` into a full-size ring: median ns per event.
/// Returns the ring's final contents for the merge probe.
pub fn record_ns(tracer: &mut Tracer) -> (f64, Vec<Event>) {
    let mut recorder = FlightRecorder::new(DEFAULT_RING_CAPACITY);
    recorder.set_context(1, 1000);
    for c in 0..CHUNKS {
        tracer.span("telemetry.record", |_| {
            for i in 0..CHUNK {
                let seq = (c * CHUNK + i) as u64;
                recorder.record(
                    seq,
                    EventKind::ExchangeBegun {
                        initiator: seq,
                        peer: seq ^ 1,
                    },
                );
            }
        });
    }
    (
        ns_per_call(tracer, "telemetry.record", CHUNK),
        recorder.drain(),
    )
}

/// `merge_events` over `events` dealt round-robin into per-shard batches:
/// median ns per event.
pub fn merge_ns_per_event(tracer: &mut Tracer, events: &[Event], shards: usize) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    for _ in 0..3 {
        let mut batches: Vec<Vec<Event>> = vec![Vec::new(); shards];
        for (i, event) in events.iter().enumerate() {
            batches[i % shards].push(*event);
        }
        let merged = tracer.span("telemetry.merge_events", |_| merge_events(batches));
        black_box(merged);
    }
    ns_per_call(tracer, "telemetry.merge_events", events.len())
}

/// Standalone `InMemoryNetwork::create(n)`: seconds and resident-set growth
/// in MiB while the endpoints are alive.
pub fn memory_create(tracer: &mut Tracer, nodes: usize) -> (f64, f64) {
    let before = rss_mb().unwrap_or(0.0);
    let endpoints = tracer.span("memory.create", |_| InMemoryNetwork::create(nodes));
    let grown = rss_mb().unwrap_or(0.0) - before;
    drop(endpoints);
    let secs = median_or_zero(&tracer.durations_ns("memory.create")) / 1e9;
    (secs, grown)
}

/// Codec and transport costs.
#[derive(Debug, Clone, Copy)]
pub struct Wire {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub frame_bytes: f64,
    pub send_recv_ns: f64,
    /// Whether every decoded frame equals the message it was encoded from.
    pub round_trip_ok: bool,
}

fn message(i: usize, from: NodeId, to: NodeId) -> GossipMessage {
    let (instance, epoch, value) = (InstanceTag::DEFAULT, (i / 7) as u64, i as f64 * 0.5);
    if i.is_multiple_of(2) {
        GossipMessage::Push {
            from,
            to,
            instance,
            epoch,
            value,
        }
    } else {
        GossipMessage::Reply {
            from,
            to,
            instance,
            epoch,
            value,
        }
    }
}

/// `codec::encode` / `codec::decode` per frame, and one
/// `Transport::send` + `recv_timeout` hop over a two-endpoint
/// `InMemoryNetwork`.
pub fn wire(tracer: &mut Tracer) -> Wire {
    let messages: Vec<GossipMessage> = (0..CHUNK)
        .map(|i| message(i, NodeId::new(i % 5000), NodeId::new((i + 1) % 5000)))
        .collect();
    let mut frames = Vec::new();
    let mut decoded = Vec::new();
    for _ in 0..CHUNKS {
        frames = tracer.span("codec.encode", |_| {
            messages.iter().map(codec::encode).collect::<Vec<_>>()
        });
        decoded = tracer.span("codec.decode", |_| {
            frames.iter().map(|f| codec::decode(f)).collect::<Vec<_>>()
        });
    }
    let round_trip_ok = decoded
        .iter()
        .zip(&messages)
        .all(|(d, m)| d.as_ref().ok() == Some(m));

    let endpoints = InMemoryNetwork::create(2);
    let hops = CHUNK / 8;
    let mut received = 0usize;
    for _ in 0..CHUNKS {
        received += tracer.span("memory.send_recv", |_| {
            let mut got = 0;
            for i in 0..hops {
                let m = message(i, NodeId::new(0), NodeId::new(1));
                if endpoints[0].send(&m).is_ok()
                    && matches!(endpoints[1].recv_timeout(Duration::from_millis(100)), Ok(Some(r)) if r == m)
                {
                    got += 1;
                }
            }
            got
        });
    }
    Wire {
        encode_ns: ns_per_call(tracer, "codec.encode", CHUNK),
        decode_ns: ns_per_call(tracer, "codec.decode", CHUNK),
        frame_bytes: frames.first().map_or(0.0, |f| f.len() as f64),
        send_recv_ns: ns_per_call(tracer, "memory.send_recv", hops),
        round_trip_ok: round_trip_ok && received == hops * CHUNKS,
    }
}
