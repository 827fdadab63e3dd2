//! Fleet telemetry pipeline: many K-LEB monitors, one collector.
//!
//! The paper demonstrates low-overhead, high-frequency monitoring of one
//! process on one machine. This crate scales that architecture out:
//! [`FleetRunner`] drives N independent simulated machines on OS
//! threads, each with its own seeded RNG, workload, and K-LEB monitor;
//! their sample batches stream through one lock-free SPSC ring per
//! machine ([`ingest`]) with an explicit [`Backpressure`] policy into a
//! sharded [`FleetStore`], where windowed queries and the `detect`
//! fan-in pass operate across the fleet. The pipeline observes itself through [`FleetMetrics`], and the
//! `governor` module can hold the whole fleet inside an aggregate
//! sampling budget while each machine's AIMD loop rides out its own
//! pressure bursts.
//!
//! ```
//! use fleet::{FleetConfig, FleetRunner, MachineSpec};
//! use ksim::{Duration, FixedBlocks, MachineConfig, WorkBlock};
//! use pmu::HwEvent;
//!
//! let config = FleetConfig::builder(&[HwEvent::LlcMiss], Duration::from_micros(500))
//!     .machine(MachineConfig::test_tiny)
//!     .build();
//! let specs = (0..3)
//!     .map(|i| {
//!         MachineSpec::new(format!("m{i}"), 7 + i, |_seed| {
//!             Box::new(FixedBlocks::new(2_000, WorkBlock::compute(1_000, 2_670))) as _
//!         })
//!     })
//!     .collect();
//! let outcome = FleetRunner::new(config).run(specs)?;
//! assert_eq!(outcome.machines.len(), 3);
//! assert_eq!(outcome.channel.total_dropped(), 0);
//! # Ok::<(), fleet::FleetError>(())
//! ```

mod clock;
mod detect;
mod governor;
pub mod ingest;
pub(crate) mod ksync;
mod metrics;
mod runner;
mod store;
mod supervisor;
mod watchdog;

pub use clock::{Clock, MonotonicClock, TickClock};
pub use detect::{scan_fleet, verdict_table, AnomalyConfig, FleetAnomalyReport, MachineVerdict};
pub use governor::{GovernorPolicy, GovernorReport};
pub use ingest::{ring_fanin, Backpressure, ChannelStats, Polled, RingCollector, RingSender};
pub use metrics::FleetMetrics;
pub use runner::{
    FleetConfig, FleetConfigBuilder, FleetError, FleetOutcome, FleetRunner, MachineReport,
    MachineSpec, WorkloadFactory,
};
pub use store::{FleetStore, Lane, MachineSnapshot, Point, StoreStats, Window};
pub use supervisor::{BreakerState, FailureKind, HealthReport, MachineFailure, SupervisorPolicy};
pub use watchdog::WatchdogReport;
