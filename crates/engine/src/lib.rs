//! Parallel candidate-evaluation engine.
//!
//! POWDER's inner loop evaluates many independent substitution
//! candidates per accepted move: power-gain scoring and ATPG
//! permissibility proofs are pure functions of the netlist until a
//! commit mutates it. This crate provides the generic machinery that
//! turns that loop into a speculative, work-stealing pipeline while
//! keeping the *decisions* bit-identical at any worker count:
//!
//! | module | provides |
//! |--------|----------|
//! | [`pool`] | [`WorkerPool`]: scoped work-stealing thread pool over batched items |
//! | [`footprint`] | [`Footprint`] / [`DirtyBits`]: read-set and commit write-set bitsets |
//! | [`cache`] | [`SpecCache`]: per-candidate speculative results with footprint invalidation |
//! | [`stats`] | [`EngineStats`]: per-stage counters and wall times for reports |
//!
//! The engine itself is policy-free: it knows nothing about gains,
//! SAT, or the POWDER arbiter. The pipeline that wires these pieces
//! to the optimizer lives in `powder::parallel` (the `core` crate),
//! which keeps the dependency direction `engine → netlist` only.
//!
//! # Snapshot / epoch model
//!
//! Workers only ever observe an immutable netlist (`&Netlist`); all
//! mutation happens on the arbiter thread between parallel phases.
//! Each committed edit advances the journal generation ("epoch") and
//! yields a [`DirtyRegion`](powder_netlist::DirtyRegion); a cached
//! result computed at an earlier epoch remains valid iff its
//! [`Footprint`] — the set of gates whose state the computation read —
//! is disjoint from every later commit's [`DirtyBits`]. Conflicting
//! entries are dropped and the candidate is re-enqueued (targeted
//! retry, not a global barrier).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod footprint;
pub mod pool;
pub mod stats;

pub use budget::{ThreadBudget, ThreadLease};
pub use cache::SpecCache;
pub use footprint::{DirtyBits, Footprint, FootprintScratch};
pub use pool::{PoolResilience, WorkerPool, MAX_WORKER_LOSSES};
pub use stats::{EngineStats, SessionStats};

/// Resolves the worker count for an optimizer run.
///
/// Precedence: an explicit non-zero `requested` value wins; otherwise
/// the `POWDER_JOBS` environment variable (if set to a positive
/// integer); otherwise [`std::thread::available_parallelism`]. Always
/// returns at least 1.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("POWDER_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of hardware threads actually available to this process.
///
/// Speculation depth should track this rather than the requested
/// worker count: speculative work is free only while it fills
/// otherwise-idle hardware threads, so an oversubscribed pool
/// (`jobs` > hardware) should speculate as if it had `hardware`
/// workers or it executes proofs that a commit then invalidates.
#[must_use]
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::resolve_jobs;

    #[test]
    fn explicit_jobs_override_everything() {
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(1), 1);
    }

    #[test]
    fn auto_jobs_is_positive() {
        // May read POWDER_JOBS or machine parallelism; either way the
        // contract is "at least one worker".
        assert!(resolve_jobs(0) >= 1);
    }
}
