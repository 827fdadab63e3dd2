//! Monitoring configuration and the ioctl protocol.
//!
//! The user-space controller passes a [`MonitorConfig`] to the kernel module
//! through an `ioctl` (paper Fig. 2, step 1): the target PID, the hardware
//! events to program on the four counters, and the sampling period. Requests
//! are numbered in the `0x4B__` ("K") range.

use pmu::HwEvent;

use ksim::{Duration, Pid};

/// `ioctl` request: configure monitoring (payload = JSON [`MonitorConfig`]).
pub(crate) const IOCTL_CONFIG: u64 = 0x4B01;
/// `ioctl` request: start monitoring the configured target.
pub(crate) const IOCTL_START: u64 = 0x4B02;
/// `ioctl` request: stop monitoring and release kernel resources.
pub(crate) const IOCTL_STOP: u64 = 0x4B03;
/// `ioctl` request: query module status (out payload = JSON [`ModuleStatus`]).
pub(crate) const IOCTL_STATUS: u64 = 0x4B04;
/// `ioctl` request: kick a stalled sampling timer. If the module is
/// running/active and its periodic deadline has sailed past without the
/// expiry ever firing (a lost hrtimer interrupt — see
/// [`ksim::FaultClass::TimerMiss`]), the timer is re-armed from now.
/// Returns 1 if a stall was repaired, 0 if there was nothing to do.
pub(crate) const IOCTL_KICK: u64 = 0x4B05;
/// `ioctl` request: change the sampling period of a configured monitor
/// (payload = little-endian `u64` nanoseconds; takes effect at the next
/// re-arm). This is the controller's degraded-mode lever: when drops
/// exceed its threshold it doubles the period to shed pressure rather
/// than losing samples silently.
pub(crate) const IOCTL_SET_PERIOD: u64 = 0x4B06;

/// Errors produced when validating a [`MonitorConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ConfigError {
    /// More events requested than programmable counters exist.
    TooManyEvents {
        /// Number requested.
        requested: usize,
    },
    /// The same event was requested twice.
    DuplicateEvent(HwEvent),
    /// A zero sampling period.
    ZeroPeriod,
    /// A zero buffer capacity.
    ZeroBuffer,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooManyEvents { requested } => write!(
                f,
                "requested {requested} events but only {} programmable counters exist",
                pmu::NUM_PROGRAMMABLE
            ),
            ConfigError::DuplicateEvent(e) => write!(f, "event {e} requested twice"),
            ConfigError::ZeroPeriod => f.write_str("sampling period must be non-zero"),
            ConfigError::ZeroBuffer => f.write_str("kernel buffer capacity must be non-zero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything the kernel module needs to monitor one process tree.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Initial PID to monitor.
    pub target: u32,
    /// Events for the programmable counters (≤ 4). The three fixed counters
    /// (instructions, core cycles, reference cycles) are always collected.
    pub events: Vec<HwEventCode>,
    /// Sampling period, nanoseconds.
    pub period_ns: u64,
    /// Also track children of the target (fork-following, paper §III).
    pub track_children: bool,
    /// Kernel sample buffer capacity, in records.
    pub buffer_capacity: usize,
    /// Count ring-0 events too (`OS` bit). K-LEB defaults to user-only so
    /// the monitored process's counts are isolated from kernel noise.
    pub count_kernel: bool,
}

/// A serializable `(event, umask)` pair — what actually crosses the
/// user/kernel boundary (the kernel does not know Rust enums).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwEventCode {
    /// Primary event code.
    pub event: u8,
    /// Unit mask.
    pub umask: u8,
}

jsonlite::json_struct!(MonitorConfig {
    target,
    events,
    period_ns,
    track_children,
    buffer_capacity,
    count_kernel,
});
jsonlite::json_struct!(HwEventCode { event, umask });
jsonlite::json_struct!(ModuleStatus {
    target_alive,
    buffered,
    samples_taken,
    samples_dropped,
    pauses,
    paused,
    period_ns,
});

impl From<HwEvent> for HwEventCode {
    fn from(e: HwEvent) -> Self {
        let code = e.code();
        Self {
            event: code.event,
            umask: code.umask,
        }
    }
}

impl HwEventCode {
    /// Decodes back to a known event, if the code is one the PMU models.
    pub(crate) fn decode(self) -> Option<HwEvent> {
        HwEvent::from_code(pmu::EventCode::new(self.event, self.umask))
    }
}

impl MonitorConfig {
    /// A config for `target` monitoring `events` every `period`, with
    /// child-tracking on and an 8192-record buffer.
    pub fn new(target: Pid, events: &[HwEvent], period: Duration) -> Self {
        Self {
            target: target.0,
            events: events.iter().map(|&e| e.into()).collect(),
            period_ns: period.as_nanos(),
            track_children: true,
            buffer_capacity: 8192,
            count_kernel: false,
        }
    }

    /// The sampling period as a [`Duration`].
    pub(crate) fn period(&self) -> Duration {
        Duration::from_nanos(self.period_ns)
    }

    /// Validates counter fit, duplicates, and non-zero parameters.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.events.len() > pmu::NUM_PROGRAMMABLE {
            return Err(ConfigError::TooManyEvents {
                requested: self.events.len(),
            });
        }
        for (i, a) in self.events.iter().enumerate() {
            for b in &self.events[i + 1..] {
                if a == b {
                    let e = a.decode().unwrap_or(HwEvent::InstructionsRetired);
                    return Err(ConfigError::DuplicateEvent(e));
                }
            }
        }
        if self.period_ns == 0 {
            return Err(ConfigError::ZeroPeriod);
        }
        if self.buffer_capacity == 0 {
            return Err(ConfigError::ZeroBuffer);
        }
        Ok(())
    }

    /// Marshals for the ioctl payload. Serialization of these plain fields
    /// cannot fail; if it ever did, the empty payload is rejected by the
    /// module as `-EINVAL` rather than panicking in the controller.
    pub fn to_payload(&self) -> Vec<u8> {
        jsonlite::to_vec(self).unwrap_or_default()
    }

    /// Unmarshals from an ioctl payload.
    ///
    /// # Errors
    ///
    /// Returns `None` on malformed payloads (the module answers `-EINVAL`).
    pub fn from_payload(payload: &[u8]) -> Option<Self> {
        jsonlite::from_slice(payload).ok()
    }
}

/// Status snapshot returned by `IOCTL_STATUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleStatus {
    /// Whether the target (or any tracked process) is still alive.
    pub target_alive: bool,
    /// Records currently buffered in kernel memory.
    pub buffered: u64,
    /// Total samples taken since start.
    pub samples_taken: u64,
    /// Samples taken but lost before they could be buffered (ring-buffer
    /// pressure, [`ksim::FaultClass::RingSlot`]). Zero on a healthy
    /// machine: the safety stop pauses instead of dropping — but under
    /// injected pressure every loss is counted here, never silent.
    /// Invariant: `drained + samples_dropped + buffered == samples_taken`.
    pub samples_dropped: u64,
    /// Times the safety mechanism paused collection because the buffer
    /// filled before the controller drained it (paper §III).
    pub pauses: u64,
    /// Whether collection is currently paused by the safety mechanism.
    pub paused: bool,
    /// The sampling period currently in effect, nanoseconds (changes when
    /// the controller degrades via `IOCTL_SET_PERIOD`). Zero when no
    /// monitor is configured.
    pub period_ns: u64,
}

impl ModuleStatus {
    /// Marshals for the ioctl out-payload. Like
    /// [`MonitorConfig::to_payload`], degrades to an empty (`-EINVAL`)
    /// payload instead of panicking.
    pub(crate) fn to_payload(self) -> Vec<u8> {
        jsonlite::to_vec(&self).unwrap_or_default()
    }

    /// Unmarshals from an ioctl out-payload.
    pub(crate) fn from_payload(payload: &[u8]) -> Option<Self> {
        jsonlite::from_slice(payload).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MonitorConfig {
        MonitorConfig::new(
            Pid(3),
            &[HwEvent::LlcReference, HwEvent::LlcMiss],
            Duration::from_micros(100),
        )
    }

    #[test]
    fn valid_config_round_trips() {
        let cfg = config();
        assert_eq!(cfg.validate(), Ok(()));
        let back = MonitorConfig::from_payload(&cfg.to_payload()).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.period(), Duration::from_micros(100));
    }

    #[test]
    fn event_codes_round_trip() {
        for e in pmu::event::ALL_EVENTS {
            let code: HwEventCode = e.into();
            assert_eq!(code.decode(), Some(e));
        }
    }

    #[test]
    fn too_many_events_rejected() {
        let mut cfg = config();
        cfg.events = [
            HwEvent::Load,
            HwEvent::Store,
            HwEvent::BranchRetired,
            HwEvent::BranchMiss,
            HwEvent::LlcMiss,
        ]
        .iter()
        .map(|&e| e.into())
        .collect();
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooManyEvents { requested: 5 })
        );
    }

    #[test]
    fn duplicate_event_rejected() {
        let mut cfg = config();
        cfg.events = vec![HwEvent::Load.into(), HwEvent::Load.into()];
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::DuplicateEvent(HwEvent::Load))
        );
    }

    #[test]
    fn zero_period_and_buffer_rejected() {
        let mut cfg = config();
        cfg.period_ns = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroPeriod));
        let mut cfg = config();
        cfg.buffer_capacity = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBuffer));
    }

    #[test]
    fn malformed_payload_is_none() {
        assert!(MonitorConfig::from_payload(b"not json").is_none());
        assert!(ModuleStatus::from_payload(b"{").is_none());
    }

    #[test]
    fn status_round_trips() {
        let s = ModuleStatus {
            target_alive: true,
            buffered: 7,
            samples_taken: 100,
            samples_dropped: 3,
            pauses: 1,
            paused: false,
            period_ns: 100_000,
        };
        assert_eq!(ModuleStatus::from_payload(&s.to_payload()), Some(s));
    }
}
