//! `ktrace` — columnar trace storage and deterministic replay for
//! K-LEB sample streams.
//!
//! High-frequency monitoring (100 µs periods, one 80-byte record each)
//! produces streams that are expensive to keep raw and painful to debug
//! when a run misbehaves. This crate gives the stack a durable,
//! compact, *recoverable* on-disk form and a way to feed a recorded run
//! back through the fleet pipeline bit-for-bit:
//!
//! - [`format`](mod@format) — the append-only segment format: a CRC-protected file
//!   header, then blocks of `BlockHeader(48 B) · payload`, each part
//!   independently checksummed, sealed by a [`StreamLedger`] carrying
//!   the module's drop ledger and recovery stats.
//! - `codec` — the columnar payload encoding: delta-of-delta
//!   timestamps, zigzag-varint counter deltas, constant-column
//!   collapsing, sparse flag lists. Dense PMC streams land well under
//!   10 bytes/sample versus the 80-byte wire record.
//! - `writer` / `reader` — bounded-memory streaming
//!   [`TraceWriter`]; [`TraceReader`] with full corruption recovery:
//!   CRC-bad blocks are
//!   skipped, smashed framing is resynchronised on block magic,
//!   truncated tails flagged — all losses *counted* in a
//!   [`RecoveryReport`], never guessed, never panicking.
//! - `sink` — [`SharedWriter`], the handle the drain path persists live
//!   batches through, deferring I/O errors so storage trouble never
//!   perturbs capture.
//! - `replay` — [`TraceReplayer`] loads a directory of per-stream
//!   segments back into memory in stream order; `fleet` drives them
//!   through the collector as a drop-in machine source.
//! - [`corrupt`] — a seeded, deterministic damage injector for
//!   recovery tests, in the `ksim::faults` mold.
//!
//! Determinism contract: recording preserves drain-batch boundaries in
//! the format, so a replayed run reconstructs the exact channel batch
//! sequence the live run produced — watchdog, metrics and drop
//! accounting come out identical.

mod codec;
mod corrupt;
mod crc;
pub mod format;
mod manifest;
mod reader;
mod replay;
mod sink;
mod varint;
mod writer;

pub use codec::{decode_block, encode_block, EncodedBlock};
pub use corrupt::{corrupt, CorruptionLog, CorruptionPlan};

pub use format::{
    StreamHealth, StreamLedger, StreamMeta, TraceError, BLOCK_HEADER_LEN, FILE_MAGIC, KIND_LEDGER,
    KIND_SAMPLES, NUM_LANES,
};
pub use reader::{RecoveredStream, RecoveryReport, TraceReader};
pub use replay::{stream_file_name, TraceReplayer};
pub use sink::SharedWriter;
pub use writer::TraceWriter;
