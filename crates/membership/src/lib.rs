//! # peer-sampling
//!
//! A newscast-style peer-sampling (membership) service for gossip protocols.
//!
//! The aggregation paper assumes that "each node has a non-empty set of
//! neighbors" and explicitly delegates the maintenance of that set to
//! membership protocols that "maintain an approximately random topology"
//! (its references [5, 7, 9] — lpbcast, SCAMP and newscast). This crate
//! implements the newscast flavour: every node keeps a small *partial view* of
//! node descriptors tagged with an age; peers periodically exchange views,
//! merge them and keep the freshest entries. The emergent communication graph
//! is close to a random graph with out-degree equal to the view size — exactly
//! the "20-regular random" overlay the paper simulates.
//!
//! The crate offers two layers:
//!
//! * [`NodeDescriptor`] — the unit of membership information, a node
//!   identifier tagged with an age;
//! * [`NewscastSampler`] / [`StaticOverlaySampler`] — implementations of the
//!   engine-facing [`aggregate_core::sampler::PeerSampler`] interface, which
//!   is how the `gossip-sim` engines draw their exchange partners from a
//!   live NEWSCAST membership or a static overlay graph instead of the
//!   complete graph. [`NewscastSampler`] is the one NEWSCAST
//!   implementation: the engines drive it cycle by cycle, and the
//!   frozen-snapshot experiment warms one up from a ring
//!   ([`NewscastSampler::bootstrap_ring`]) and reads its views
//!   ([`NewscastSampler::view_of`]).
//!
//! ## Example
//!
//! ```
//! use aggregate_core::sampler::{PeerSampler, SliceDirectory};
//! use overlay_topology::NodeId;
//! use peer_sampling::NewscastSampler;
//!
//! // 500 nodes, view size 20 (the paper's setting), bootstrapped from a ring.
//! let live: Vec<NodeId> = (0..500).map(NodeId::new).collect();
//! let directory = SliceDirectory::new(&live);
//! let mut membership = NewscastSampler::bootstrap_ring(20, &live, 1);
//! for _ in 0..20 {
//!     membership.begin_cycle(&directory);
//! }
//! // Every node now has a full view of 20 approximately random neighbours.
//! assert!(live.iter().all(|&id| membership.view_of(id).unwrap().len() == 20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod descriptor;
mod sampler;

pub use descriptor::NodeDescriptor;
pub use sampler::{NewscastSampler, StaticOverlaySampler};
