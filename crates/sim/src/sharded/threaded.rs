//! The multi-worker executor of [`ShardedSimulation`]: rounds of
//! node-disjoint exchanges over contiguous shard chunks, with cross-worker
//! exchanges split into halves that travel through [`Lanes`] (see the
//! parent module's docs for the protocol and its determinism argument).

use super::{
    end_of_cycle_pass, endpoint, record_exchange_outcome, touch_records, PairExec, Pick, Shard,
    ShardCycleOut, ShardedSimulation, PICK_BLOCK,
};
use crate::arena::{IdLayout, MAX_SHARDS};
use crate::lanes::{Lanes, RoundBarrier};
use aggregate_core::redundancy::MergePolicy;
use aggregate_core::{AggregateKind, ExchangeCore, ExchangeTally, GossipMessage, InstanceTag};
use overlay_topology::NodeId;

/// One exchange of the multi-worker schedule.
#[derive(Debug, Clone, Copy)]
struct ScheduledExchange {
    /// Global sequence number.
    seq: u32,
    round: u32,
    initiator: NodeId,
    peer: NodeId,
}

/// One message crossing between two workers.
#[derive(Debug, Clone, Copy)]
struct Envelope {
    /// The fixed merge key: the exchange's global sequence number in the
    /// high half, the message's index within the exchange in the low half.
    order: u64,
    message: GossipMessage,
}

impl Envelope {
    fn seq(&self) -> u64 {
        self.order >> 32
    }
}

/// One worker's reusable buffers.
#[derive(Debug, Default)]
struct WorkerBuffers {
    /// The cycle's exchanges initiated on this worker, in sequence order.
    assigned: Vec<ScheduledExchange>,
    /// The same exchanges bucketed by round (inner buffers are cleared,
    /// not freed).
    by_round: Vec<Vec<ScheduledExchange>>,
    /// Outgoing envelopes per destination worker, posted at each barrier.
    outbox: Vec<Vec<Envelope>>,
    /// The phase's incoming envelopes, seq-sorted.
    inbox: Vec<Envelope>,
    /// One exchange's pushes or replies.
    messages: Vec<GossipMessage>,
    /// One exchange's surviving replies.
    replies: Vec<GossipMessage>,
}

/// The multi-worker executor's buffers, kept across cycles.
#[derive(Debug, Default)]
pub(super) struct WorkerPool {
    pushes: Lanes<Envelope>,
    replies: Lanes<Envelope>,
    buffers: Vec<WorkerBuffers>,
    /// Per global position: the next free round for that node.
    next_round: Vec<u32>,
}

impl WorkerPool {
    fn ensure(&mut self, workers: usize) {
        if self.pushes.workers() != workers {
            self.pushes = Lanes::new(workers);
            self.replies = Lanes::new(workers);
        }
        self.buffers.resize_with(workers, WorkerBuffers::default);
        for buffers in &mut self.buffers {
            buffers.outbox.resize_with(workers, Vec::new);
        }
    }
}

impl ShardedSimulation {
    /// Multi-worker executor: the deterministic round/lane protocol from
    /// the module docs, with the shards partitioned into contiguous chunks
    /// over the worker threads.
    pub(super) fn run_cycle_threaded(
        &mut self,
        loss: f64,
        workers: usize,
    ) -> (Vec<ShardCycleOut>, usize) {
        let shard_count = self.config.shards;
        let redundancy = self.config.base.redundancy.map(|r| r.merge);
        let cycles_per_epoch = self.config.base.protocol.cycles_per_epoch();
        let execs: Vec<PairExec> = (0..workers).map(|_| self.pair_exec(loss)).collect();
        self.pool.ensure(workers);

        // Contiguous shard chunks per worker, sized as evenly as possible.
        let base_chunk = shard_count / workers;
        let remainder = shard_count % workers;
        let chunk_len = |worker: usize| base_chunk + usize::from(worker < remainder);
        let mut owner = [0u8; MAX_SHARDS];
        let mut shard = 0;
        for worker in 0..workers {
            for _ in 0..chunk_len(worker) {
                owner[shard] = worker as u8;
                shard += 1;
            }
        }
        let (rounds, exchanges_blocked) = self.build_schedule(&owner);

        let mut outs: Vec<ShardCycleOut> =
            (0..shard_count).map(|_| ShardCycleOut::default()).collect();
        let barrier = RoundBarrier::new(workers);
        let ShardedSimulation { shards, pool, .. } = self;
        let WorkerPool {
            pushes,
            replies,
            buffers,
            ..
        } = pool;
        let (pushes, replies) = (&*pushes, &*replies);
        std::thread::scope(|scope| {
            let mut shards_rest = shards.as_mut_slice();
            let mut outs_rest = outs.as_mut_slice();
            let mut chunk_start = 0usize;
            // Worker 0 runs on this thread, once the others are spawned.
            let mut first = None;
            for (index, (bufs, exec)) in buffers.iter_mut().zip(execs).enumerate() {
                let len = chunk_len(index);
                let (shards_chunk, tail) = shards_rest.split_at_mut(len);
                shards_rest = tail;
                let (outs_chunk, tail) = outs_rest.split_at_mut(len);
                outs_rest = tail;
                let worker = ShardWorker {
                    index,
                    chunk_start,
                    shards: shards_chunk,
                    outs: outs_chunk,
                    bufs,
                    exec,
                    rounds,
                    owner,
                    pushes,
                    replies,
                    barrier: &barrier,
                    cycles_per_epoch,
                    redundancy,
                };
                chunk_start += len;
                if index == 0 {
                    first = Some(worker);
                } else {
                    scope.spawn(move || run_shard_worker(worker));
                }
            }
            if let Some(worker) = first {
                run_shard_worker(worker);
            }
        });
        (outs, exchanges_blocked)
    }

    /// Derives the multi-worker schedule through the shared pick stage:
    /// assigns every exchange its round and hands it to its initiator's
    /// worker, in sequence order. Returns `(rounds, exchanges_blocked)`.
    fn build_schedule(&mut self, owner: &[u8; MAX_SHARDS]) -> (usize, usize) {
        let n = self.global_live.len();
        let mut pool = std::mem::take(&mut self.pool);
        pool.next_round.clear();
        pool.next_round.resize(n, 0);
        for buffers in &mut pool.buffers {
            buffers.assigned.clear();
        }
        let next_round = &mut pool.next_round;
        let mut rounds = 0u32;
        let mut seq = 0u32;
        let mut picks = [Pick::NONE; PICK_BLOCK];
        let (mut picker, shards) = self.start_schedule();
        while let Some(block) = picker.next_block(shards, &mut picks) {
            // Touch both endpoints' round words first, so the misses overlap.
            let warm = block.iter().fold(0u32, |warm, pick| {
                warm ^ next_round[pick.ipos as usize] ^ next_round[pick.ppos as usize]
            });
            std::hint::black_box(warm);
            for pick in block {
                let (i, p) = (pick.ipos as usize, pick.ppos as usize);
                let round = next_round[i].max(next_round[p]);
                next_round[i] = round + 1;
                next_round[p] = round + 1;
                rounds = rounds.max(round + 1);
                let worker = owner[IdLayout::shard_of(pick.initiator) as usize];
                pool.buffers[usize::from(worker)]
                    .assigned
                    .push(ScheduledExchange {
                        seq,
                        round,
                        initiator: pick.initiator,
                        peer: pick.peer,
                    });
                seq += 1;
            }
        }
        let exchanges_blocked = picker.blocked;
        self.pool = pool;
        (rounds as usize, exchanges_blocked)
    }
}

/// Everything one worker thread needs for one cycle: a contiguous chunk of
/// shards with their output slots, its buffers and loss model, plus the
/// shared schedule, lanes and barrier.
struct ShardWorker<'a> {
    /// This worker's row and column in the lanes and schedule buckets.
    index: usize,
    chunk_start: usize,
    shards: &'a mut [Shard],
    outs: &'a mut [ShardCycleOut],
    bufs: &'a mut WorkerBuffers,
    exec: PairExec,
    rounds: usize,
    /// The worker owning each shard.
    owner: [u8; MAX_SHARDS],
    pushes: &'a Lanes<Envelope>,
    replies: &'a Lanes<Envelope>,
    barrier: &'a RoundBarrier,
    cycles_per_epoch: u32,
    /// Merge policy of the redundant-instance defense, `None` for the
    /// undefended estimator (coordinator-computed; workers must not read
    /// engine state).
    redundancy: Option<MergePolicy>,
}

fn run_shard_worker(ctx: ShardWorker<'_>) {
    let ShardWorker {
        index,
        chunk_start,
        shards,
        outs,
        bufs,
        mut exec,
        rounds,
        owner,
        pushes,
        replies,
        barrier,
        cycles_per_epoch,
        redundancy,
    } = ctx;
    let WorkerBuffers {
        assigned,
        by_round,
        outbox,
        inbox,
        messages,
        replies: reply_buf,
    } = bufs;
    let owner_of = |id: NodeId| usize::from(owner[IdLayout::shard_of(id) as usize]);
    let mut tallies = vec![ExchangeTally::default(); shards.len()];
    by_round.iter_mut().for_each(Vec::clear);
    if by_round.len() < rounds {
        by_round.resize_with(rounds, Vec::new);
    }
    for ex in assigned.iter() {
        by_round[ex.round as usize].push(*ex);
    }

    for round in by_round.iter().take(rounds) {
        // Phase A, in sequence order: pairs inside this worker run whole;
        // cross-worker pairs begin and post their pushes towards the peer's
        // worker, so every lane carries one seq-sorted run.
        for block in round.chunks(PICK_BLOCK) {
            touch_records(shards, chunk_start, block.iter().map(|ex| ex.initiator));
            touch_records(shards, chunk_start, block.iter().map(|ex| ex.peer));
            for ex in block {
                let (shard, slot) = endpoint(ex.initiator);
                let local = shard - chunk_start;
                let seq = ex.seq as usize;
                let peer_worker = owner_of(ex.peer);
                if peer_worker == index {
                    let (peer_shard, peer_slot) = endpoint(ex.peer);
                    let coins = exec.coins(seq);
                    exec.run_pair(
                        shards,
                        (local, slot),
                        (peer_shard - chunk_start, peer_slot),
                        seq,
                        coins,
                        &mut tallies[local],
                    );
                } else {
                    let outbox = &mut outbox[peer_worker];
                    begin_half(
                        &mut shards[local],
                        ex,
                        messages,
                        outbox,
                        &mut tallies[local],
                    );
                }
            }
        }
        pushes.post(index, outbox);
        barrier.wait();

        // Phase B: restore the fixed merge order — a total order by global
        // sequence number — then let the peers absorb the pushes and post
        // the surviving replies back. (Within a round node-disjointness
        // already makes the node state order-independent; the total order
        // keeps the execution auditable and the recorder rings' insertion
        // order scheduler-independent.)
        pushes.drain_lanes(index, inbox);
        inbox.sort_unstable_by_key(|envelope| envelope.order);
        for block in exchange_runs(inbox, PICK_BLOCK) {
            touch_records(
                shards,
                chunk_start,
                block.iter().map(|e| e.message.recipient()),
            );
            for group in exchange_runs(block, 1) {
                messages.clear();
                messages.extend(group.iter().map(|envelope| envelope.message));
                let seq = group[0].seq();
                let local = endpoint(messages[0].recipient()).0 - chunk_start;
                reply_buf.clear();
                respond_half(
                    &mut shards[local],
                    seq,
                    messages,
                    &exec,
                    &mut tallies[local],
                    reply_buf,
                );
                if let Some(reply) = reply_buf.first() {
                    outbox[owner_of(reply.recipient())].extend(reply_buf.iter().enumerate().map(
                        |(part, &message)| Envelope {
                            order: (seq << 32) | part as u64,
                            message,
                        },
                    ));
                }
            }
        }
        replies.post(index, outbox);
        barrier.wait();

        // Phase C: initiators absorb the surviving replies, in merge order.
        // No barrier follows: the next round's phase A touches only this
        // worker's own shards and the push lanes, which every reader
        // emptied before the barrier above.
        replies.drain_lanes(index, inbox);
        inbox.sort_unstable_by_key(|envelope| envelope.order);
        for block in exchange_runs(inbox, PICK_BLOCK) {
            touch_records(
                shards,
                chunk_start,
                block.iter().map(|e| e.message.recipient()),
            );
            for group in exchange_runs(block, 1) {
                messages.clear();
                messages.extend(group.iter().map(|envelope| envelope.message));
                let local = endpoint(messages[0].recipient()).0 - chunk_start;
                complete_half(&mut shards[local], messages, exec.kind);
            }
        }
    }

    for ((shard, out), tally) in shards.iter_mut().zip(outs.iter_mut()).zip(tallies) {
        *out = end_of_cycle_pass(shard, tally, exec.kind, cycles_per_epoch, redundancy);
    }
}

/// Splits seq-sorted envelopes into runs of at least `len` envelopes (or
/// the rest) that never split one exchange's messages: with `len` 1, one
/// run per exchange.
fn exchange_runs(envelopes: &[Envelope], len: usize) -> impl Iterator<Item = &[Envelope]> {
    let mut rest = envelopes;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut end = rest.len().min(len);
        while end < rest.len() && rest[end].seq() == rest[end - 1].seq() {
            end += 1;
        }
        let (block, tail) = rest.split_at(end);
        rest = tail;
        Some(block)
    })
}

/// Phase A of a cross-worker exchange, on the initiator's worker: its
/// pushes go into the outbox towards the peer's worker. A hot initiator's
/// single push is built from its record — exactly the message
/// [`ExchangeCore::begin`] produces from the synced node — so nothing is
/// flushed; a cold initiator's node begins as usual (`begin` mutates
/// nothing).
fn begin_half(
    shard: &mut Shard,
    ex: &ScheduledExchange,
    messages: &mut Vec<GossipMessage>,
    outbox: &mut Vec<Envelope>,
    tally: &mut ExchangeTally,
) {
    let slot = IdLayout::sharded_slot_of(ex.initiator);
    let order = u64::from(ex.seq) << 32;
    if let Some(record) = shard.hot.hot(slot) {
        tally.exchanges += 1;
        outbox.push(Envelope {
            order,
            message: GossipMessage::Push {
                from: ex.initiator,
                to: ex.peer,
                instance: InstanceTag::DEFAULT,
                epoch: u64::from(record.key),
                value: record.state,
            },
        });
        return;
    }
    let Some(node) = shard.arena.node_at_slot_mut(slot) else {
        return;
    };
    if ExchangeCore::begin(node, ex.peer, messages) {
        tally.exchanges += 1;
        outbox.extend(
            messages
                .iter()
                .enumerate()
                .map(|(part, &message)| Envelope {
                    order: order | part as u64,
                    message,
                }),
        );
    }
}

/// Phase B of a cross-worker exchange, on the peer's worker, where every
/// loss coin of the exchange is drawn. A hot peer in the push's epoch
/// answers a single default-instance push with the fused kernel's peer half
/// ([`ExchangeCore::respond_fused_raw`]: same arithmetic, same coin order)
/// and replies exactly what the node would; anything else flushes the
/// peer, runs [`ExchangeCore::respond`] on its node and resyncs it.
fn respond_half(
    shard: &mut Shard,
    seq: u64,
    pushes: &[GossipMessage],
    exec: &PairExec,
    tally: &mut ExchangeTally,
    replies: &mut Vec<GossipMessage>,
) {
    let slot = IdLayout::sharded_slot_of(pushes[0].recipient());
    let mut lost = exec.loss_of(seq);
    let lost_before = tally.messages_lost;
    let record = shard
        .hot
        .slots
        .get_mut(slot as usize)
        .filter(|r| r.is_hot());
    match (record, pushes) {
        (
            Some(record),
            &[GossipMessage::Push {
                from,
                to,
                instance,
                epoch,
                value,
            }],
        ) if instance == InstanceTag::DEFAULT && u64::from(record.key) == epoch => {
            if let Some(replied) = ExchangeCore::respond_fused_raw(
                exec.kind,
                &mut record.state,
                &mut record.exchanges,
                value,
                &mut lost,
                tally,
            ) {
                replies.push(GossipMessage::Reply {
                    from: to,
                    to: from,
                    instance,
                    epoch,
                    value: replied,
                });
            }
        }
        _ => {
            shard.flush_hot_slot(slot);
            let Some(peer) = shard.arena.node_at_slot_mut(slot) else {
                return;
            };
            ExchangeCore::respond(peer, pushes, replies, &mut lost, tally);
            shard.resync_slot(slot, exec.kind);
        }
    }
    if exec.record {
        // `began` is unconditionally true: the pushes only exist because
        // the initiator began.
        record_exchange_outcome(
            &mut shard.recorder,
            seq,
            true,
            tally.messages_lost - lost_before,
        );
    }
}

/// Phase C of a cross-worker exchange, back on the initiator's worker: a
/// hot initiator takes a single default-instance reply of its own epoch
/// with the fused kernel's initiator half
/// ([`ExchangeCore::complete_fused_raw`]); anything else flushes it, runs
/// [`ExchangeCore::complete`] on its node and resyncs it.
fn complete_half(shard: &mut Shard, replies: &[GossipMessage], kind: AggregateKind) {
    let slot = IdLayout::sharded_slot_of(replies[0].recipient());
    let record = shard
        .hot
        .slots
        .get_mut(slot as usize)
        .filter(|r| r.is_hot());
    if let (
        Some(record),
        &[GossipMessage::Reply {
            instance,
            epoch,
            value,
            ..
        }],
    ) = (record, replies)
    {
        if instance == InstanceTag::DEFAULT && u64::from(record.key) == epoch {
            ExchangeCore::complete_fused_raw(kind, &mut record.state, &mut record.exchanges, value);
            return;
        }
    }
    shard.flush_hot_slot(slot);
    if let Some(initiator) = shard.arena.node_at_slot_mut(slot) {
        ExchangeCore::complete(initiator, replies);
        shard.resync_slot(slot, kind);
    }
}
