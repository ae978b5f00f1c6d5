#![warn(missing_docs)]

//! Resilience primitives for the LOTUS workspace (DESIGN.md §8).
//!
//! A production triangle-counting service must survive hostile inputs,
//! runaway requests, and worker failures without taking the process down.
//! This crate provides the building blocks, free of any graph-specific
//! dependency so every layer of the workspace can use them:
//!
//! * [`CancelToken`] / [`Deadline`] / [`RunGuard`] — cooperative
//!   cancellation, checked by the counting kernels at tile/chunk
//!   granularity through one [`LoopPoll`] per parallel loop. A stopped
//!   run returns a [`StopReason`] plus whatever partial results were
//!   accumulated, instead of running forever.
//! * [`MemoryBudget`] — a byte budget that callers compare against
//!   pre-build footprint estimates so an oversized request degrades
//!   (smaller hub set, leaner algorithm) instead of OOMing.
//! * [`isolate()`] — `catch_unwind`-based panic isolation that converts a
//!   worker panic into a structured [`PanicCaught`] error.
//! * `fault` (behind the `fault-injection` feature) — a registry of
//!   named fault points ([`fault_point!`]) that deterministically inject
//!   I/O errors, short reads, or panics on the Nth hit, so tests can
//!   prove every failure path yields a clean typed error.

pub mod budget;
pub mod cancel;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod isolate;
pub mod retry;

pub use budget::MemoryBudget;
pub use cancel::{CancelToken, Deadline, LoopPoll, RunGuard, StopReason};
pub use isolate::{isolate, PanicCaught};
pub use retry::{is_transient_io, RetryPolicy};

/// Declares a named fault point.
///
/// Two forms:
///
/// * `fault_point!("name")` — evaluates to `Result<(), std::io::Error>`;
///   intended for fallible call sites (`fault_point!("x")?;`). An armed
///   `IoError`/`ShortRead` fault returns `Err`, an armed `Panic` fault
///   panics.
/// * `fault_point!(panic: "name")` — a statement for infallible call
///   sites; any armed fault at this point panics (the surrounding phase
///   is expected to be wrapped in [`isolate()`]).
///
/// Without the `fault-injection` feature **on the calling crate**, both
/// forms compile to nothing (the first to `Ok(())`), so release builds
/// pay zero cost. Consumer crates forward their own `fault-injection`
/// feature to `lotus-resilience/fault-injection`.
#[macro_export]
macro_rules! fault_point {
    ($name:literal) => {{
        #[cfg(feature = "fault-injection")]
        let __fault_result = $crate::fault::fire($name);
        #[cfg(not(feature = "fault-injection"))]
        let __fault_result = ::core::result::Result::<(), ::std::io::Error>::Ok(());
        __fault_result
    }};
    (panic: $name:literal) => {{
        #[cfg(feature = "fault-injection")]
        $crate::fault::fire_panic($name);
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn fault_point_is_ok_when_feature_rules_say_so() {
        // In this crate's own test build the feature may or may not be
        // armed; with nothing armed the point must always pass.
        #[cfg(feature = "fault-injection")]
        crate::fault::reset();
        let r: Result<(), std::io::Error> = fault_point!("resilience.self_test");
        assert!(r.is_ok());
    }
}
