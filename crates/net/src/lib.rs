//! Network serving front-end: a from-scratch TCP/HTTP/1.1 layer over
//! item-sharded [`imcat_serve::Engine`] replicas.
//!
//! The crate has three layers, each usable on its own:
//!
//! * [`ShardedEngine`] — N engine replicas, each holding a contiguous slice
//!   of the item axis (and its own IVF lists when ANN is configured). A
//!   request fans out to every replica and the per-shard top-K lists are
//!   merged through the evaluator's own canonical ranking, so the merged
//!   answer is **bit-identical** to a single unsharded engine at any shard
//!   count — same items, same order, same score bits.
//! * [`Server`] — a dependency-free HTTP/1.1 front-end: one acceptor thread,
//!   a bounded admission queue, a pool of connection workers, and a single
//!   batcher thread that folds concurrent requests into micro-batch ticks
//!   ([`imcat_serve::Engine::recommend_batch`] per replica). A tick takes
//!   whatever is queued as soon as the batcher is free, with no linger by
//!   default, so batches grow with load instead of with a timer. Overload
//!   is shed with a fast `503` and counted (`serve.shed`) rather than
//!   queued without bound.
//! * [`loadgen`] — closed-loop and open-loop (coordinated-omission-aware)
//!   load generators speaking real sockets, used by `serve_bench` to map
//!   the latency/QPS frontier per shard count.
//!
//! Everything is `std`-only: the container has no crates.io access, so the
//! HTTP layer reuses the parsing discipline of `imcat-obs`'s telemetry
//! endpoint (bounded heads, total per-connection deadlines, tail-overlap
//! terminator scans) extended to persistent multi-request connections.

pub mod http;
pub mod loadgen;
mod server;
mod shard;

pub use loadgen::{closed_loop, open_loop, LoadReport};
pub use server::{NetConfig, NetStats, Server};
pub use shard::{shard_artifact, shard_ranges, ShardedEngine};
