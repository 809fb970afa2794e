//! `noctest-serve` — the service tier over the planning executor.
//!
//! The planning daemon (`plan-serve`) started life as a thin NDJSON loop
//! over one [`Executor`](noctest_core::plan::exec::Executor). This crate
//! grows that loop into a service: **sharded** executors with consistent
//! hashing so near-duplicate request streams land on the same shard,
//! **admission control** (a per-client bound on each shard executor's
//! queue, whose clients take turns) with explicit in-band backpressure,
//! and a **durable journal** that makes restarts safe —
//! queued work is replayed, completed work is deduplicated and its
//! outcome served byte-identically.
//!
//! The crate's compatibility contract: with the defaults (one shard,
//! unbounded admission, no journal) a [`ServeTier`] produces exactly the
//! event stream the bare executor did, byte for byte on the daemon wire.
//! Everything here is opt-in surface, not a protocol break.
//!
//! Modules, bottom-up:
//!
//! - [`key`] — FNV-1a content keys: the canonical request key (dedupe
//!   identity) and the affinity key (shard routing).
//! - [`shard`] — the consistent-hash ring over named shards.
//! - [`wire`] — the daemon's line protocol: the line cap, the decoder
//!   that turns an input line into a submit or a cancel (the daemon
//!   members `client` and `priority` included), and the in-band answer
//!   lines (`error`, `rejected`, `done`, `cached`, `warm_start`), pinned
//!   to exact bytes.
//! - [`journal`] — the append-only NDJSON job journal and its recovery,
//!   which reads a submit record's daemon members through [`wire`].
//! - [`tier`] — [`ServeTier`], which composes the above.
//!
//! ```
//! use noctest_core::plan::PlanRequest;
//! use noctest_serve::{ServeTier, SubmitOutcome};
//!
//! let tier = ServeTier::builder().shards(2).build().expect("tier");
//! let outcome = tier.submit(PlanRequest::benchmark("d695", 8, 4));
//! assert!(matches!(outcome, SubmitOutcome::Admitted { .. }));
//! tier.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod key;
pub mod shard;
pub mod tier;
pub mod wire;

pub use journal::{Journal, Recovery};
pub use key::RequestKey;
pub use shard::ShardRing;
pub use tier::{recover_journal, ServeError, ServeTier, ServeTierBuilder, SubmitOutcome};
