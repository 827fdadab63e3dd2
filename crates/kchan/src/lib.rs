//! `kchan`: lock-free single-producer/single-consumer ring transport.
//!
//! The paper's argument is quantitative: 100µs-period sampling is viable
//! only while the per-sample collection cost stays an order of magnitude
//! below the sampling period. At fleet scale the same discipline applies
//! one level up — the transport that carries drained sample batches from
//! each monitor to the collector must cost almost nothing per sample, or
//! the pipeline's own overhead becomes the signal. A shared
//! `Mutex`+`Condvar` queue pays a lock round-trip (and often a futex
//! syscall) per batch; this crate replaces it with one wait-free ring per
//! stream.
//!
//! Design (see [`ring`](mod@ring) for the memory-ordering argument):
//!
//! - **SPSC by construction.** [`ring`](ring()) returns a [`Producer`] /
//!   [`Consumer`] pair; neither is clonable, so the one-writer/one-reader
//!   discipline is a type-system fact, not a convention.
//! - **Power-of-two capacity**, monotonic indices, masked slot lookup —
//!   no modulo, no index wraparound cases.
//! - **Batched publication.** A whole slice is copied in and published
//!   with a *single* release store; the consumer takes everything
//!   available with a single acquire load. The release/acquire pair is
//!   paid per batch, never per sample.
//! - **Cache-line padding** between the producer-written and
//!   consumer-written atomics, so the two sides do not false-share.
//! - **Explicit drop accounting.** A full ring never blocks and never
//!   overwrites: [`Producer::try_push`] reports how much it accepted, the
//!   caller decides (drop, retry, back off) and charges the loss via
//!   [`Producer::mark_dropped`]. The consumer-visible ledger
//!   ([`Consumer::pushed`], [`Consumer::dropped`]) closes the books the
//!   same way the fleet's `ChannelStats` does: offered = pushed + dropped.
//!
//! No dependencies, no locks, no syscalls — the hot path is a bounds
//! check, a `memcpy`, and one atomic store.

pub mod ring;
pub(crate) mod sync;

/// Ordering-weakening knob for kloom mutation tests (model builds only).
#[cfg(kloom)]
pub use crate::sync::mutation;

pub use ring::{ring, Consumer, Producer};
