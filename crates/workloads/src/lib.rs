//! Simulated benchmark workloads for the K-LEB reproduction.
//!
//! Each workload models one of the programs the paper profiles, as a
//! [`ksim::Workload`] state machine that generates the *mechanisms* behind
//! the paper's measurements — instruction mixes, memory-access patterns
//! against the simulated cache hierarchy, forks, and (for Meltdown) cache
//! flushes and timed reloads:
//!
//! - [`Linpack`]: dense LU solve with the paper's Fig. 4 phase structure
//!   (kernel-mode init → LOAD/STORE-heavy setup → alternating
//!   load/compute/store panels) and a GFLOPS figure of merit (Table I);
//! - [`Matmul`]: the triple-nested-loop matrix multiply used for the
//!   overhead study (Table II, Fig. 8);
//! - [`Dgemm`]: the Intel-MKL-like blocked multiply with ~20× shorter
//!   runtime, which amplifies fixed tool costs (Table III);
//! - `docker`: nine container workload models spanning the MPKI spectrum
//!   of Fig. 5, each running as a parent "container runtime" that forks the
//!   service process (exercising K-LEB's child tracking);
//! - [`MeltdownAttack`]/[`SecretPrinter`]: a victim secret-printer and a Flush+Reload Meltdown
//!   attacker that genuinely recovers the secret from simulated cache
//!   timing (Figs. 6-7);
//! - [`HeartbleedServer`]: a TLS server with a data-only over-read exploit
//!   (the paper's reference \[26\] motivation — control flow identical,
//!   data footprint not);
//! - [`Synthetic`]: a fully tunable event generator for ablations.

mod dgemm;
mod docker;
mod heartbleed;
mod linpack;
mod matmul;
mod meltdown;
mod synthetic;

pub use dgemm::Dgemm;
pub use docker::DockerImage;
pub use heartbleed::HeartbleedServer;
pub use linpack::Linpack;
pub use matmul::Matmul;
pub use meltdown::{MeltdownAttack, SecretPrinter, SECRET};
pub use synthetic::Synthetic;

/// Default heap base for workload data regions (just a recognizable
/// user-space address).
pub(crate) const HEAP_BASE: u64 = 0x5555_0000_0000;
