//! Sync facade: real primitives in normal builds, kloom shadows under
//! `cfg(kloom)`.
//!
//! Normal builds (`cargo build`, `cargo test`) re-export
//! `std::sync::atomic` and a thin `UnsafeCell<MaybeUninit<T>>` slot —
//! zero cost, zero behavior change. Model-checking builds
//! (`RUSTFLAGS="--cfg kloom"`) swap in `kloom`'s instrumented shadows,
//! which turn every atomic access and every slot access into a scheduler
//! decision point. `ring.rs` is written once against this facade; see its
//! module docs for the pattern.
//!
//! The `mutation` submodule (kloom builds only) is the teeth-check knob:
//! it lets a test weaken exactly one of the ring's four protocol
//! orderings to `Relaxed` at runtime, so CI can assert that kloom
//! actually catches each seeded ordering bug.

#[cfg(not(kloom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

#[cfg(kloom)]
pub(crate) use kloom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

pub(crate) use std::sync::atomic::Ordering;

use std::fmt;
use std::mem::MaybeUninit;

/// One ring slot. The `unsafe fn` contract is identical in both builds —
/// the caller must own the slot per the ring's four-rule protocol — but
/// under `cfg(kloom)` every access is also race-checked against the
/// model's happens-before relation, so a protocol violation is reported
/// instead of being silent UB.
pub(crate) struct Slot<T> {
    #[cfg(not(kloom))]
    cell: std::cell::UnsafeCell<MaybeUninit<T>>,
    #[cfg(kloom)]
    cell: kloom::cell::UnsafeCellProbe<MaybeUninit<T>>,
}

impl<T> fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Slot")
    }
}

impl<T: Copy> Slot<T> {
    pub(crate) fn uninit() -> Self {
        Self {
            #[cfg(not(kloom))]
            cell: std::cell::UnsafeCell::new(MaybeUninit::uninit()),
            #[cfg(kloom)]
            cell: kloom::cell::UnsafeCellProbe::new(MaybeUninit::uninit()),
        }
    }

    /// Writes the slot.
    ///
    /// # Safety
    ///
    /// The caller must hold write ownership of the slot under the ring
    /// protocol: the slot lies in the free region and rule 4's acquire
    /// load has ordered any previous reader's accesses before this write.
    pub(crate) unsafe fn write(&self, val: T) {
        #[cfg(not(kloom))]
        // SAFETY: forwarded caller contract — exclusive write ownership.
        unsafe {
            (*self.cell.get()).write(val);
        }
        #[cfg(kloom)]
        self.cell.with_mut(|p| {
            // SAFETY: forwarded caller contract; kloom additionally
            // race-checks the access.
            unsafe {
                (*p).write(val);
            }
        });
    }

    /// Reads the slot, which must have been initialized by a
    /// happens-before [`Slot::write`].
    ///
    /// # Safety
    ///
    /// The caller must hold read ownership under the ring protocol: the
    /// slot lies in the live region and rule 2's acquire load has
    /// ordered the producer's initializing write before this read.
    pub(crate) unsafe fn read(&self) -> T {
        #[cfg(not(kloom))]
        // SAFETY: forwarded caller contract — initialized, no writer.
        unsafe {
            (*self.cell.get()).assume_init()
        }
        #[cfg(kloom)]
        self.cell.with(|p| {
            // SAFETY: forwarded caller contract; kloom additionally
            // race-checks the access.
            unsafe { (*p).assume_init() }
        })
    }
}

// SAFETY: a Slot is only accessed through the ring protocol, whose
// ordering rules partition each slot between the producer and consumer;
// `T: Copy + Send` values may cross threads and carry no drop glue.
unsafe impl<T: Copy + Send> Send for Slot<T> {}
// SAFETY: as above — shared references only reach the slot through the
// protocol's unsafe accessors, never concurrently on both sides.
unsafe impl<T: Copy + Send> Sync for Slot<T> {}

/// Runtime ordering-weakening knob for kloom mutation tests: CI weakens
/// one protocol rule at a time to `Relaxed` and asserts kloom reports a
/// violation, proving the checker would catch a real regression.
#[cfg(kloom)]
pub mod mutation {
    use std::sync::atomic::{AtomicU8, Ordering as StdOrdering};

    /// Rule 1 — slot writes → `tail.store(Release)`.
    pub const PUBLISH: u8 = 1;
    /// Rule 2 — `tail.load(Acquire)` → slot reads.
    pub const OBSERVE: u8 = 2;
    /// Rule 3 — slot reads → `head.store(Release)`.
    pub const RETIRE: u8 = 3;
    /// Rule 4 — `head.load(Acquire)` → slot writes.
    pub const REUSE: u8 = 4;

    static WEAKENED: AtomicU8 = AtomicU8::new(0);

    /// Weakens `rule` to `Relaxed` for subsequent ring operations.
    pub fn weaken(rule: u8) {
        WEAKENED.store(rule, StdOrdering::SeqCst);
    }

    /// Restores the full protocol.
    pub fn reset() {
        WEAKENED.store(0, StdOrdering::SeqCst);
    }

    /// The ordering the ring actually uses for `rule`.
    pub(crate) fn ord(rule: u8, strong: super::Ordering) -> super::Ordering {
        if WEAKENED.load(StdOrdering::SeqCst) == rule {
            // This *is* the seeded ordering bug the kloom mutation tests
            // weaken the protocol with (cfg(kloom) builds only).
            // klint: allow(D3): intentional mutation-test weakening
            super::Ordering::Relaxed
        } else {
            strong
        }
    }
}

/// Selects the ordering for one of the ring's four protocol rules. In
/// normal builds this is the identity on its second argument (fully
/// compiled out); under `cfg(kloom)` it consults [`mutation`].
macro_rules! proto_ord {
    ($rule:ident, $ord:expr) => {{
        #[cfg(not(kloom))]
        {
            $ord
        }
        #[cfg(kloom)]
        {
            $crate::sync::mutation::ord($crate::sync::mutation::$rule, $ord)
        }
    }};
}

pub(crate) use proto_ord;
