//! [`PeerSampler`] implementations backed by this crate's membership
//! machinery: a live NEWSCAST protocol and static overlay graphs.
//!
//! The simulation engines in `gossip-sim` drive any [`PeerSampler`] through
//! the same three hooks — `begin_cycle` (overlay maintenance, in lockstep
//! with aggregation cycles), `sample` (one pick per initiating node) and the
//! churn notifications — so swapping the paper's idealised uniform sampling
//! for a realistic membership service is a one-line configuration change
//! ([`aggregate_core::sampler::SamplerConfig`]).

use crate::NodeDescriptor;
use aggregate_core::sampler::{PeerSampler, SamplerConfig, SamplerDirectory};
use overlay_topology::{
    BuiltTopology, NodeId, Topology, TopologyBuilder, TopologyError, TopologyKind,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::collections::HashMap; // lint-allow(nondeterminism): keyed lookup only; slots are iterated through `members`

/// A live NEWSCAST membership service acting as the peer sampler of a
/// simulation: every live node keeps a partial view ("cache") of
/// `cache_size` descriptors; once per aggregation cycle each node exchanges
/// and merges views with its oldest known peer, then all descriptors age by
/// one. Exchange partners for the *aggregation* protocol are drawn uniformly
/// from the initiator's current view.
///
/// Failure handling is exactly the paper's: there is no failure detector.
/// Descriptors of departed nodes age until they fall off the cache tail, and
/// a failed exchange attempt drops the stale descriptor immediately
/// (tail-drop healing, reported by the engine through
/// [`PeerSampler::peer_failed`]).
///
/// Storage is one flat array: every member owns a *slot*, and slot `s`'s
/// view is the block `views[s·c .. s·c + lens[s]]` of `c = cache_size`
/// descriptors. An identifier → slot map resolves members in O(1); slots
/// stay dense (a departure moves the last slot into the hole), and the
/// exchange payloads go through two reused scratch buffers, so a
/// membership cycle allocates nothing.
///
/// Determinism: membership randomness (exchange order, bootstrap contacts)
/// comes from an internal RNG seeded at construction; sampling randomness
/// comes from the engine's seeded pick stream. Every iteration runs over
/// directory positions or slots, never over the identifier map. Peers
/// are drawn by view index, so the merge keeps each view's entry order
/// exactly as a one-by-one insert would, and the whole trajectory is a
/// pure function of the seeds.
///
/// # Example
///
/// ```
/// use aggregate_core::sampler::{PeerSampler, SliceDirectory};
/// use overlay_topology::NodeId;
/// use peer_sampling::NewscastSampler;
/// use rand::SeedableRng;
///
/// let live: Vec<NodeId> = (0..100).map(NodeId::new).collect();
/// let directory = SliceDirectory::new(&live);
/// let mut sampler = NewscastSampler::new(8, &live, 42);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
///
/// // A few cycles of view exchange fill and randomise the caches…
/// for _ in 0..10 {
///     sampler.begin_cycle(&directory);
/// }
/// // …after which every node can produce a partner from its own view.
/// let peer = sampler.sample(&directory, 3, &mut rng).unwrap();
/// assert_ne!(peer, NodeId::new(3));
/// assert_eq!(sampler.view_of(NodeId::new(3)).unwrap().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct NewscastSampler {
    cache_size: usize,
    /// Slot → member identifier.
    members: Vec<NodeId>,
    /// Slot → number of descriptors in the slot's view.
    lens: Vec<usize>,
    /// All views, `cache_size` descriptors per slot.
    views: Vec<NodeDescriptor>,
    // lint-allow(nondeterminism): looked up by key only; slots are iterated through `members`
    slot_of: HashMap<NodeId, usize>,
    rng: StdRng,
    /// Scratch buffer for the per-cycle exchange order.
    order: Vec<NodeId>,
    /// Scratch buffers for the two payloads of one view exchange.
    offer: Vec<NodeDescriptor>,
    response: Vec<NodeDescriptor>,
}

impl NewscastSampler {
    /// Creates the sampler over an initial population, bootstrapping each
    /// node's view with `cache_size` uniformly random contacts — the
    /// steady-state regime the paper's experiments start from (a NEWSCAST
    /// overlay converges to a `c`-out random graph within a few cycles from
    /// any connected start, so this skips the transient without changing
    /// the dynamics).
    ///
    /// `membership_seed` seeds the internal RNG driving bootstrap contacts
    /// and the per-cycle exchange order; the engines derive it from the
    /// master seed via a labelled stream so it never interferes with the
    /// aggregation draws.
    ///
    /// # Panics
    ///
    /// Panics if `cache_size` is zero.
    pub fn new(cache_size: usize, initial: &[NodeId], membership_seed: u64) -> Self {
        let mut sampler = Self::empty(cache_size, initial.len(), membership_seed);
        let n = initial.len();
        let contacts_per_node = cache_size.min(n.saturating_sub(1));
        let mut contacts = Vec::with_capacity(contacts_per_node);
        for (i, &id) in initial.iter().enumerate() {
            // Distinct random contacts, drawn positionally so the
            // bootstrap is invariant under the engines' id layouts.
            contacts.clear();
            while contacts.len() < contacts_per_node {
                let pos = sampler.rng.gen_range(0..n);
                let candidate = NodeDescriptor::fresh(initial[pos]);
                if pos != i && !contacts.contains(&candidate) {
                    contacts.push(candidate);
                }
            }
            sampler.admit(id, &contacts);
        }
        sampler
    }

    /// Creates the sampler over `initial` with the weakest sensible start:
    /// each node's view holds only its ring successor (`initial[i + 1]`,
    /// wrapping). A handful of cycles randomises it; the frozen-snapshot
    /// experiment measures the overlay this warms up into.
    ///
    /// # Panics
    ///
    /// Panics if `cache_size` is zero.
    pub fn bootstrap_ring(cache_size: usize, initial: &[NodeId], membership_seed: u64) -> Self {
        let mut sampler = Self::empty(cache_size, initial.len(), membership_seed);
        for (i, &id) in initial.iter().enumerate() {
            let successor = initial[(i + 1) % initial.len()];
            sampler.admit(id, &[NodeDescriptor::fresh(successor)]);
        }
        sampler
    }

    fn empty(cache_size: usize, population: usize, membership_seed: u64) -> Self {
        assert!(cache_size > 0, "newscast cache size must be positive");
        NewscastSampler {
            cache_size,
            members: Vec::with_capacity(population),
            lens: Vec::with_capacity(population),
            views: Vec::with_capacity(population * cache_size),
            // lint-allow(nondeterminism): keyed lookup only, never iterated
            slot_of: HashMap::with_capacity(population),
            rng: StdRng::seed_from_u64(membership_seed),
            order: Vec::new(),
            offer: Vec::with_capacity(cache_size + 1),
            response: Vec::with_capacity(cache_size + 1),
        }
    }

    /// The configured per-node view capacity `c`.
    pub fn cache_size(&self) -> usize {
        self.cache_size
    }

    /// Number of nodes currently holding membership state.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when no node holds membership state.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Read access to a node's current partial view, if the node is known.
    /// Entry order is the order [`PeerSampler::sample`] draws by index.
    pub fn view_of(&self, id: NodeId) -> Option<&[NodeDescriptor]> {
        self.slot_of.get(&id).map(|&slot| self.view(slot))
    }

    /// In-degree of every member: how many *other* members currently list it
    /// in their view. A healthy peer-sampling service keeps this
    /// distribution narrow; the view-dynamics tests bound it.
    pub fn in_degrees(&self) -> BTreeMap<NodeId, usize> {
        let mut degrees: BTreeMap<NodeId, usize> = self.members.iter().map(|&id| (id, 0)).collect();
        for slot in 0..self.members.len() {
            for descriptor in self.view(slot) {
                if let Some(count) = degrees.get_mut(&descriptor.node) {
                    *count += 1;
                }
            }
        }
        degrees
    }

    /// Number of *stale* descriptors across all views: entries naming a node
    /// that no longer holds membership state. Self-healing drives this to
    /// zero after a failure burst; the dynamics tests assert it.
    pub fn stale_descriptors(&self) -> usize {
        (0..self.members.len())
            .flat_map(|slot| self.view(slot))
            .filter(|descriptor| !self.slot_of.contains_key(&descriptor.node))
            .count()
    }

    fn view(&self, slot: usize) -> &[NodeDescriptor] {
        let start = slot * self.cache_size;
        &self.views[start..start + self.lens[slot]]
    }

    /// Merges `incoming` into the view of `slot`, whose owner is `owner`.
    fn merge_at(&mut self, slot: usize, owner: NodeId, incoming: &[NodeDescriptor]) {
        let start = slot * self.cache_size;
        let block = &mut self.views[start..start + self.cache_size];
        merge_view(block, &mut self.lens[slot], incoming, owner);
    }

    /// Gives `id` a slot (reusing its own if it already has one) whose view
    /// is `bootstrap` merged into an empty view.
    fn admit(&mut self, id: NodeId, bootstrap: &[NodeDescriptor]) {
        let slot = match self.slot_of.get(&id) {
            Some(&slot) => slot,
            None => {
                let slot = self.members.len();
                self.members.push(id);
                self.lens.push(0);
                let placeholder = NodeDescriptor::fresh(id);
                self.views.resize((slot + 1) * self.cache_size, placeholder);
                self.slot_of.insert(id, slot);
                slot
            }
        };
        self.lens[slot] = 0;
        self.merge_at(slot, id, bootstrap);
    }

    /// Drops `peer` from the view of `slot`, preserving the order of the
    /// remaining entries.
    fn evict(&mut self, slot: usize, peer: NodeId) {
        let start = slot * self.cache_size;
        let len = &mut self.lens[slot];
        let view = &mut self.views[start..start + *len];
        if let Some(idx) = view.iter().position(|d| d.node == peer) {
            view.copy_within(idx + 1.., idx);
            *len -= 1;
        }
    }

    /// One view exchange: `initiator` sends its view plus a fresh
    /// descriptor of itself, `partner` answers with its *pre-merge* view
    /// plus its own fresh descriptor, and both merge what they received.
    fn exchange(&mut self, initiator: (usize, NodeId), partner: (usize, NodeId)) {
        let (i, i_id) = initiator;
        let (p, p_id) = partner;
        let mut offer = std::mem::take(&mut self.offer);
        let mut response = std::mem::take(&mut self.response);
        offer.clear();
        offer.extend_from_slice(self.view(i));
        offer.push(NodeDescriptor::fresh(i_id));
        response.clear();
        response.extend_from_slice(self.view(p));
        response.push(NodeDescriptor::fresh(p_id));
        self.merge_at(p, p_id, &offer);
        self.merge_at(i, i_id, &response);
        self.offer = offer;
        self.response = response;
    }
}

/// The NEWSCAST merge of `incoming` into the view `block[..*len]` of
/// capacity `block.len()`, whose owner `exclude` is never admitted.
///
/// The result is exactly that of inserting the descriptors one by one,
/// in order, with the sequential rule: a descriptor for a node already in
/// the view only lowers that entry's age, in place; a new one is pushed at
/// the end, and when that overflows the view the *last* entry of maximal
/// age is `swap_remove`d. Entry order matters, since peers are drawn by
/// index. Two shortcuts spare most of the sequential rule's scans while
/// keeping that result bit for bit:
///
/// * in a full view, a descriptor at least as old as every entry is
///   dropped at once — it would itself be the last maximum, and a
///   duplicate of it could not get younger;
/// * the maximum age and the number of entries holding it are tracked, so
///   the entry to evict is the first hit of a backward scan for that age,
///   and the maximum is recounted only once its last holder is gone.
fn merge_view(
    block: &mut [NodeDescriptor],
    len: &mut usize,
    incoming: &[NodeDescriptor],
    exclude: NodeId,
) {
    let capacity = block.len();
    let mut n = *len;
    let (mut max_age, mut at_max) = oldest(&block[..n]);
    for &d in incoming {
        if d.node == exclude || (n == capacity && d.age >= max_age) {
            continue;
        }
        if let Some(existing) = block[..n].iter_mut().find(|e| e.node == d.node) {
            if d.age < existing.age {
                if existing.age == max_age {
                    at_max -= 1;
                }
                existing.age = d.age;
                if at_max == 0 {
                    (max_age, at_max) = oldest(&block[..n]);
                }
            }
            continue;
        }
        if n < capacity {
            block[n] = d;
            n += 1;
            if d.age > max_age {
                (max_age, at_max) = (d.age, 1);
            } else if d.age == max_age {
                at_max += 1;
            }
            continue;
        }
        // Full, and younger than the oldest entry: the last entry of age
        // `max_age` is the one `swap_remove` would take.
        if let Some(idx) = block[..n].iter().rposition(|e| e.age == max_age) {
            block[idx] = d;
            at_max -= 1;
            if at_max == 0 {
                (max_age, at_max) = oldest(&block[..n]);
            }
        }
    }
    *len = n;
}

/// The largest age in `view` (0 when empty) and how many entries carry it.
fn oldest(view: &[NodeDescriptor]) -> (u32, usize) {
    let max_age = view.iter().map(|d| d.age).max().unwrap_or(0);
    (max_age, view.iter().filter(|d| d.age == max_age).count())
}

/// Index of the last entry of maximal age (`max_by_key`'s tie rule).
fn last_oldest(view: &[NodeDescriptor]) -> Option<usize> {
    let (max_age, _) = oldest(view);
    view.iter().rposition(|d| d.age == max_age)
}

impl PeerSampler for NewscastSampler {
    fn config(&self) -> SamplerConfig {
        SamplerConfig::Newscast {
            cache_size: self.cache_size,
        }
    }

    /// One NEWSCAST cycle: every member (in a shuffled order drawn from the
    /// internal RNG) exchanges views with its oldest known peer — dropping
    /// the descriptor instead when that peer has departed — then every view
    /// ages by one.
    ///
    /// The exchange order is drawn over *directory positions*, not raw
    /// identifiers: the sharded engine's directory order is invariant under
    /// the shard count (identifiers are not — they embed shard bits), and
    /// iterating positionally is what keeps NEWSCAST-sampled node
    /// trajectories bit-identical across 1/2/4/8 shards.
    fn begin_cycle(&mut self, directory: &dyn SamplerDirectory) {
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend((0..directory.len()).map(|pos| directory.id_at(pos)));
        order.shuffle(&mut self.rng);
        for &initiator in &order {
            let Some(&slot) = self.slot_of.get(&initiator) else {
                continue;
            };
            // The oldest entry is the exchange partner (newscast's
            // heuristic, which speeds up the removal of stale descriptors).
            let view = self.view(slot);
            let Some(oldest) = last_oldest(view) else {
                continue;
            };
            let partner = view[oldest].node;
            match self.slot_of.get(&partner) {
                Some(&partner_slot) => {
                    self.exchange((slot, initiator), (partner_slot, partner));
                }
                // The oldest entry points at a departed node: heal the view
                // (no failure detector — the failed contact attempt is the
                // detection) and skip this cycle's membership exchange.
                None => self.evict(slot, partner),
            }
        }
        for slot in 0..self.members.len() {
            let start = slot * self.cache_size;
            for descriptor in &mut self.views[start..start + self.lens[slot]] {
                *descriptor = descriptor.aged();
            }
        }
        self.order = order;
    }

    fn sample(
        &mut self,
        directory: &dyn SamplerDirectory,
        initiator_pos: usize,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let view = self.view_of(directory.id_at(initiator_pos))?;
        if view.is_empty() {
            return None;
        }
        Some(view[rng.gen_range(0..view.len())].node)
    }

    /// A joining node learns one uniformly random live contact (the paper's
    /// "a joining node knows an arbitrary member"); gossip spreads its
    /// descriptor from there.
    fn on_join(&mut self, id: NodeId, directory: &dyn SamplerDirectory) {
        let n = directory.len();
        let mut contact = None;
        if n > 1 {
            // The directory already contains the newcomer; reject self-picks.
            // The loop terminates because some other node exists (n > 1).
            loop {
                let candidate = directory.id_at(self.rng.gen_range(0..n));
                if candidate != id {
                    contact = Some(candidate);
                    break;
                }
            }
        }
        self.admit(id, contact.map(NodeDescriptor::fresh).as_slice());
        // Tell the contact about the newcomer as well (the join handshake's
        // other half), so isolated newcomers cannot linger unreferenced.
        if let Some(contact) = contact {
            if let Some(&slot) = self.slot_of.get(&contact) {
                self.merge_at(slot, contact, &[NodeDescriptor::fresh(id)]);
            }
        }
    }

    /// The departed node's slot is refilled by the last slot, so slots
    /// stay dense.
    fn on_depart(&mut self, id: NodeId) {
        let Some(slot) = self.slot_of.remove(&id) else {
            return;
        };
        let c = self.cache_size;
        let last = self.members.len() - 1;
        self.members.swap_remove(slot);
        self.lens.swap_remove(slot);
        self.views.copy_within(last * c..(last + 1) * c, slot * c);
        self.views.truncate(last * c);
        if let Some(&moved) = self.members.get(slot) {
            self.slot_of.insert(moved, slot);
        }
    }

    fn peer_failed(&mut self, initiator: NodeId, peer: NodeId) {
        if let Some(&slot) = self.slot_of.get(&initiator) {
            self.evict(slot, peer);
        }
    }
}

/// Peer sampling along the edges of a static overlay graph generated once at
/// construction — the setting of the paper's Figure 3(b) overlay sweep
/// (random regular graphs, small worlds, scale-free graphs, …).
///
/// The overlay's vertices are bound to the initial population in directory
/// order. Under churn the binding evolves deterministically: a departure
/// vacates its vertex (neighbours drawing it simply fail that attempt, as a
/// crashed neighbour would), and a later join re-occupies the most recently
/// vacated vertex. Joins beyond the vacancy pool stay overlay-isolated and
/// never initiate (a static overlay has no room for them — use
/// [`NewscastSampler`] for workloads where the overlay must follow churn).
#[derive(Debug, Clone)]
pub struct StaticOverlaySampler {
    kind: TopologyKind,
    topology: BuiltTopology,
    /// Vertex → current occupant.
    occupant: Vec<Option<NodeId>>,
    /// Occupant → vertex.
    vertex_of: BTreeMap<NodeId, usize>,
    /// Vacated vertices, re-assigned LIFO.
    vacant: Vec<usize>,
}

impl StaticOverlaySampler {
    /// Generates the overlay over the initial population (vertex `i` ↔
    /// `initial[i]`), with generator randomness from `topology_seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] for invalid generator parameters (degree
    /// too large, probability out of range, …).
    pub fn new(
        kind: TopologyKind,
        initial: &[NodeId],
        topology_seed: u64,
    ) -> Result<Self, TopologyError> {
        let mut rng = StdRng::seed_from_u64(topology_seed);
        let topology = TopologyBuilder::new(kind)
            .nodes(initial.len())
            .build(&mut rng)?;
        Ok(StaticOverlaySampler {
            kind,
            topology,
            occupant: initial.iter().map(|&id| Some(id)).collect(),
            vertex_of: initial.iter().enumerate().map(|(v, &id)| (id, v)).collect(),
            vacant: Vec::new(),
        })
    }

    /// The generated overlay (vertex space, not current occupants).
    pub fn topology(&self) -> &BuiltTopology {
        &self.topology
    }

    /// The vertex currently bound to `id`, if any.
    pub fn vertex_of(&self, id: NodeId) -> Option<usize> {
        self.vertex_of.get(&id).copied()
    }
}

impl PeerSampler for StaticOverlaySampler {
    fn config(&self) -> SamplerConfig {
        SamplerConfig::StaticOverlay {
            topology: self.kind,
        }
    }

    fn sample(
        &mut self,
        directory: &dyn SamplerDirectory,
        initiator_pos: usize,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let id = directory.id_at(initiator_pos);
        let vertex = *self.vertex_of.get(&id)?;
        let neighbor = self.topology.random_neighbor(NodeId::new(vertex), rng)?;
        // A vacated neighbour vertex is a crashed peer: the contact attempt
        // fails and the initiator skips this cycle, as in the paper's model.
        self.occupant[neighbor.index()]
    }

    fn on_join(&mut self, id: NodeId, _directory: &dyn SamplerDirectory) {
        if let Some(vertex) = self.vacant.pop() {
            self.occupant[vertex] = Some(id);
            self.vertex_of.insert(id, vertex);
        }
    }

    fn on_depart(&mut self, id: NodeId) {
        if let Some(vertex) = self.vertex_of.remove(&id) {
            self.occupant[vertex] = None;
            self.vacant.push(vertex);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::sampler::{sample_live_peer, SliceDirectory};
    use proptest::prelude::*;

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    fn d(node: usize, age: u32) -> NodeDescriptor {
        NodeDescriptor::with_age(NodeId::new(node), age)
    }

    fn nodes(view: &[NodeDescriptor]) -> Vec<usize> {
        view.iter().map(|d| d.node.index()).collect()
    }

    /// The sequential NEWSCAST insert, one descriptor at a time: the oracle
    /// [`merge_view`] must reproduce entry for entry, in order.
    fn oracle_insert(view: &mut Vec<NodeDescriptor>, capacity: usize, descriptor: NodeDescriptor) {
        match view.iter_mut().find(|e| e.node == descriptor.node) {
            Some(existing) => {
                if descriptor.age < existing.age {
                    existing.age = descriptor.age;
                }
            }
            None => {
                view.push(descriptor);
                if view.len() > capacity {
                    if let Some((idx, _)) = view.iter().enumerate().max_by_key(|(_, e)| e.age) {
                        view.swap_remove(idx);
                    }
                }
            }
        }
    }

    /// [`merge_view`] of `incoming` into a block of `capacity` holding
    /// `view`; returns the resulting view.
    fn merged(
        view: &[NodeDescriptor],
        capacity: usize,
        incoming: &[NodeDescriptor],
        exclude: usize,
    ) -> Vec<NodeDescriptor> {
        let mut block = vec![d(0, 0); capacity];
        block[..view.len()].copy_from_slice(view);
        let mut len = view.len();
        merge_view(&mut block, &mut len, incoming, NodeId::new(exclude));
        block.truncate(len);
        block
    }

    /// A sampler over `n` ring-bootstrapped nodes whose node 0 holds
    /// exactly `view`.
    fn with_view(n: usize, cache_size: usize, view: &[NodeDescriptor]) -> NewscastSampler {
        let mut sampler = NewscastSampler::bootstrap_ring(cache_size, &ids(n), 1);
        sampler.admit(NodeId::new(0), view);
        sampler
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cache_size_is_rejected() {
        let _ = NewscastSampler::new(0, &ids(3), 1);
    }

    #[test]
    fn merge_deduplicates_keeping_the_youngest_in_place() {
        let view = merged(&[d(1, 5), d(2, 1)], 4, &[d(1, 2), d(1, 9), d(2, 4)], 0);
        assert_eq!(view, vec![d(1, 2), d(2, 1)]);
    }

    #[test]
    fn merge_evicts_the_last_oldest_entry() {
        // The overflow swap_removes the oldest entry: the newcomer takes
        // its place.
        assert_eq!(
            merged(&[d(1, 7), d(2, 1)], 2, &[d(3, 3)], 0),
            vec![d(3, 3), d(2, 1)]
        );
        // Among tied oldest entries the last one goes.
        assert_eq!(
            merged(&[d(1, 4), d(2, 4), d(3, 0)], 3, &[d(5, 1)], 0),
            vec![d(1, 4), d(5, 1), d(3, 0)]
        );
        // A newcomer at least as old as every entry is itself the last
        // oldest: the view does not change.
        let full = [d(1, 4), d(2, 4), d(3, 0)];
        assert_eq!(merged(&full, 3, &[d(6, 4), d(7, 9)], 0), full.to_vec());
    }

    #[test]
    fn merge_excludes_the_owner_and_respects_capacity() {
        let incoming = [d(0, 0), d(1, 4), d(2, 1), d(3, 2), d(4, 9)];
        let view = merged(&[], 3, &incoming, 0);
        assert_eq!(view.len(), 3);
        assert!(!nodes(&view).contains(&0), "the owner is never admitted");
        assert!(!nodes(&view).contains(&4), "the oldest descriptor loses");
    }

    #[test]
    fn eviction_removes_failed_peers_and_preserves_order() {
        let mut sampler = with_view(5, 4, &[d(1, 0), d(2, 3), d(3, 1), d(4, 2)]);
        sampler.peer_failed(NodeId::new(0), NodeId::new(2));
        assert_eq!(nodes(sampler.view_of(NodeId::new(0)).unwrap()), [1, 3, 4]);
        sampler.peer_failed(NodeId::new(0), NodeId::new(2));
        assert_eq!(nodes(sampler.view_of(NodeId::new(0)).unwrap()), [1, 3, 4]);
    }

    #[test]
    fn the_oldest_entry_is_the_exchange_partner() {
        assert_eq!(last_oldest(&[d(1, 0), d(2, 8), d(3, 3)]), Some(1));
        assert_eq!(last_oldest(&[d(1, 5), d(2, 5), d(3, 1)]), Some(1));
        assert_eq!(last_oldest(&[]), None);
        // A departed oldest entry is dropped instead of contacted; the
        // other entries keep their order and age by one.
        let mut sampler = with_view(4, 4, &[d(1, 0), d(9, 8), d(3, 3)]);
        let directory_ids = [NodeId::new(0)];
        sampler.begin_cycle(&SliceDirectory::new(&directory_ids));
        assert_eq!(sampler.view_of(NodeId::new(0)).unwrap(), [d(1, 1), d(3, 4)]);
    }

    #[test]
    fn exchange_spreads_membership_information() {
        // Ring over 0, 1, 2: node 0 knows 1, node 1 knows 2.
        let mut sampler = NewscastSampler::bootstrap_ring(5, &ids(3), 1);
        sampler.exchange((0, NodeId::new(0)), (1, NodeId::new(1)));
        let a = sampler.view_of(NodeId::new(0)).unwrap();
        let b = sampler.view_of(NodeId::new(1)).unwrap();
        assert_eq!(a, [d(1, 0), d(2, 0)], "the initiator learns 2 via 1");
        // The partner received the initiator's fresh self-descriptor.
        assert_eq!(b, [d(2, 0), d(0, 0)]);
    }

    #[test]
    fn ring_bootstrap_creates_one_contact_per_node() {
        let sampler = NewscastSampler::bootstrap_ring(5, &ids(10), 1);
        for i in 0..10 {
            let view = sampler.view_of(NodeId::new(i)).unwrap();
            assert_eq!(nodes(view), [(i + 1) % 10]);
        }
        // Degenerate populations do not panic.
        for n in [0, 1] {
            let live = ids(n);
            let mut sampler = NewscastSampler::bootstrap_ring(3, &live, 1);
            sampler.begin_cycle(&SliceDirectory::new(&live));
            assert_eq!(sampler.len(), n);
            if n == 1 {
                assert!(sampler.view_of(live[0]).unwrap().is_empty());
                let mut r = rng();
                assert_eq!(sampler.sample(&SliceDirectory::new(&live), 0, &mut r), None);
            }
        }
    }

    #[test]
    fn ring_overlay_warms_up_connected_and_well_mixed() {
        let live = ids(300);
        let directory = SliceDirectory::new(&live);
        let mut sampler = NewscastSampler::bootstrap_ring(15, &live, 23);
        for _ in 0..25 {
            sampler.begin_cycle(&directory);
        }
        let in_degrees = sampler.in_degrees();
        assert!(
            in_degrees.values().all(|&d| d > 0),
            "no node may be forgotten"
        );
        let max_in = *in_degrees.values().max().unwrap();
        assert!(
            max_in < 6 * 15,
            "in-degree distribution too skewed: max {max_in}"
        );
        // Reachability from node 0 along directed view edges.
        let mut visited = vec![false; 300];
        let mut stack = vec![NodeId::new(0)];
        visited[0] = true;
        while let Some(current) = stack.pop() {
            assert_eq!(sampler.view_of(current).unwrap().len(), 15);
            for peer in sampler.view_of(current).unwrap() {
                if !visited[peer.node.index()] {
                    visited[peer.node.index()] = true;
                    stack.push(peer.node);
                }
            }
        }
        assert!(visited.iter().all(|&v| v), "overlay must stay connected");
    }

    #[test]
    fn departures_keep_slots_dense_and_other_views_intact() {
        let live = ids(6);
        let mut sampler = NewscastSampler::new(3, &live, 5);
        let before: Vec<Vec<NodeDescriptor>> = live
            .iter()
            .map(|&id| sampler.view_of(id).unwrap().to_vec())
            .collect();
        sampler.on_depart(live[1]);
        sampler.on_depart(live[1]);
        assert_eq!(sampler.len(), 5);
        assert_eq!(sampler.view_of(live[1]), None);
        for (i, &id) in live.iter().enumerate().filter(|&(i, _)| i != 1) {
            assert_eq!(sampler.view_of(id).unwrap(), before[i]);
        }
    }

    #[test]
    fn newscast_views_fill_to_cache_size_and_samples_stay_live() {
        let live = ids(200);
        let directory = SliceDirectory::new(&live);
        let mut sampler = NewscastSampler::new(10, &live, 1);
        for _ in 0..15 {
            sampler.begin_cycle(&directory);
        }
        let mut r = rng();
        for (pos, &own) in live.iter().enumerate() {
            let view = sampler.view_of(own).unwrap().to_vec();
            assert_eq!(view.len(), 10);
            let peer = sample_live_peer(&mut sampler, &directory, pos, &mut r).unwrap();
            assert_ne!(peer, own);
            assert!(
                view.iter().any(|d| d.node == peer),
                "picks come from the view"
            );
        }
        assert_eq!(sampler.cache_size(), 10);
        assert_eq!(sampler.len(), 200);
    }

    #[test]
    fn newscast_same_seed_same_trajectory() {
        let live = ids(60);
        let directory = SliceDirectory::new(&live);
        let run = || {
            let mut sampler = NewscastSampler::new(6, &live, 77);
            let mut r = StdRng::seed_from_u64(5);
            let mut picks = Vec::new();
            for _ in 0..10 {
                sampler.begin_cycle(&directory);
                for pos in 0..60 {
                    picks.push(sampler.sample(&directory, pos, &mut r));
                }
            }
            picks
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn newscast_joins_bootstrap_and_departures_heal() {
        let mut live = ids(50);
        let mut sampler = NewscastSampler::new(5, &live, 3);
        {
            let directory = SliceDirectory::new(&live);
            for _ in 0..10 {
                sampler.begin_cycle(&directory);
            }
        }
        // Depart 10 nodes, join one newcomer.
        for dead in live.drain(0..10) {
            sampler.on_depart(dead);
        }
        let newcomer = NodeId::new(1_000);
        live.push(newcomer);
        let directory = SliceDirectory::new(&live);
        sampler.on_join(newcomer, &directory);
        assert_eq!(sampler.len(), 41);
        let bootstrap = sampler.view_of(newcomer).unwrap();
        assert_eq!(bootstrap.len(), 1, "newcomer knows exactly one contact");
        assert!(
            sampler.stale_descriptors() > 0,
            "views still cache the departed"
        );
        // A few cycles of aging + tail-drop flush every stale descriptor and
        // spread the newcomer.
        for _ in 0..40 {
            sampler.begin_cycle(&directory);
        }
        assert_eq!(sampler.stale_descriptors(), 0);
        assert!(
            sampler.in_degrees()[&newcomer] > 0,
            "the newcomer must be gossiped into other views"
        );
    }

    #[test]
    fn newscast_peer_failed_evicts_the_stale_descriptor() {
        let live = ids(10);
        let directory = SliceDirectory::new(&live);
        let mut sampler = NewscastSampler::new(4, &live, 1);
        sampler.begin_cycle(&directory);
        let initiator = live[0];
        let peer = sampler.view_of(initiator).unwrap()[0].node;
        sampler.peer_failed(initiator, peer);
        assert!(!nodes(sampler.view_of(initiator).unwrap()).contains(&peer.index()));
    }

    #[test]
    fn static_overlay_samples_along_edges_only() {
        let live = ids(30);
        let directory = SliceDirectory::new(&live);
        let mut sampler = StaticOverlaySampler::new(TopologyKind::Ring, &live, 11).unwrap();
        let mut r = rng();
        for pos in 0..30 {
            let peer = sampler.sample(&directory, pos, &mut r).unwrap();
            let delta = (peer.index() as i64 - pos as i64).rem_euclid(30);
            assert!(
                delta == 1 || delta == 29,
                "ring neighbours only, got {peer}"
            );
        }
        assert_eq!(
            sampler.config(),
            SamplerConfig::StaticOverlay {
                topology: TopologyKind::Ring
            }
        );
    }

    #[test]
    fn static_overlay_departures_vacate_and_joins_reoccupy() {
        let live = ids(20);
        let directory = SliceDirectory::new(&live);
        let mut sampler =
            StaticOverlaySampler::new(TopologyKind::RandomRegular { degree: 4 }, &live, 13)
                .unwrap();
        sampler.on_depart(live[7]);
        assert_eq!(sampler.vertex_of(live[7]), None);
        // The vacated vertex's neighbours now occasionally fail the attempt.
        let newcomer = NodeId::new(500);
        sampler.on_join(newcomer, &directory);
        assert_eq!(sampler.vertex_of(newcomer), Some(7));
        // A join without a vacancy stays overlay-isolated.
        let extra = NodeId::new(501);
        sampler.on_join(extra, &directory);
        assert_eq!(sampler.vertex_of(extra), None);
        let mut r = rng();
        assert!(sampler.sample(&directory, 0, &mut r).is_some());
    }

    #[test]
    fn static_overlay_invalid_parameters_error() {
        let live = ids(5);
        assert!(
            StaticOverlaySampler::new(TopologyKind::RandomRegular { degree: 10 }, &live, 1)
                .is_err()
        );
    }

    proptest! {
        /// A view never exceeds its capacity and never holds two
        /// descriptors for one node, whatever stream is merged into it.
        #[test]
        fn prop_capacity_and_uniqueness_invariants(
            capacity in 1usize..8,
            inserts in proptest::collection::vec((0usize..20, 0u32..50), 0..100),
        ) {
            let mut view = Vec::new();
            for (node, age) in inserts {
                view = merged(&view, capacity, &[d(node, age)], 99);
                prop_assert!(view.len() <= capacity);
                let mut ids = nodes(&view);
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), view.len());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The fast merge equals the sequential insert oracle entry for
        /// entry, in order, on views with many tied ages and duplicates.
        #[test]
        fn prop_fast_merge_matches_the_sequential_oracle(
            capacity in 1usize..22,
            start in proptest::collection::vec((0usize..24, 0u32..4), 0..30),
            incoming in proptest::collection::vec((0usize..24, 0u32..4), 0..30),
            exclude in 0usize..24,
        ) {
            let descriptor = |&(node, age): &(usize, u32)| d(node, age);
            let mut oracle = Vec::new();
            for x in &start {
                oracle_insert(&mut oracle, capacity, descriptor(x));
            }
            let incoming: Vec<NodeDescriptor> = incoming.iter().map(descriptor).collect();
            let fast = merged(&oracle, capacity, &incoming, exclude);
            for &x in incoming.iter().filter(|x| x.node.index() != exclude) {
                oracle_insert(&mut oracle, capacity, x);
            }
            prop_assert_eq!(fast, oracle);
        }
    }
}
