//! Bit-parallel logic simulation for the POWDER reproduction.
//!
//! The ATPG-based candidate generation of the paper (Section 3.5,
//! `get_candidate_substitutions`, following refs \[2,5\]) is driven by random
//! pattern simulation:
//!
//! * [`Patterns`] — packed random input vectors, 64 per machine word;
//! * [`simulate`] — evaluates every gate, producing per-signal *signatures*;
//! * [`stem_observability`] / [`branch_observability`] — exact per-pattern
//!   observability masks computed by forward difference propagation (the
//!   bit-parallel equivalent of simulating the stuck-at fault pair at the
//!   signal);
//! * [`propagate_difference`] — the same propagation for an arbitrary
//!   forced word, which refutes a candidate substitution outright when
//!   some pattern shows the rewired circuit's outputs differ;
//! * [`ones_fraction`] — Monte-Carlo signal probabilities used to
//!   cross-check the analytic estimator in `powder-power`.
//!
//! A candidate substitution `a ← b` survives filtering iff
//! `(sig(a) ^ sig(b)) & obs(a) == 0` on all simulated patterns — a
//! necessary condition for permissibility that the exact ATPG check then
//! confirms or refutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod covers;
mod observe;
mod patterns;
#[cfg(test)]
mod proptests;
mod simulate;

pub use covers::CellCovers;
pub use observe::{
    branch_observability, branch_observability_scoped, propagate_difference, stem_observability,
    stem_observability_all, stem_observability_scoped, topo_positions,
};
pub use patterns::Patterns;
pub use simulate::{ones_fraction, resimulate_cone, simulate, SavedValues, SimValues};
