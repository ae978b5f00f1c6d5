//! Memory-budget degradation for LOTUS runs.
//!
//! LOTUS trades memory for locality: the H2H bit array is quadratic in
//! the hub count and the HE/NHE split stores every edge in a
//! width-specialised list. On machines where that footprint does not
//! fit, [`count_with_budget`] degrades *before* allocating: it halves
//! the hub set until the estimated [`LotusGraph`](crate::LotusGraph)
//! footprint fits the [`MemoryBudget`], and if even a hub-less build is
//! too large it falls back to the forward-hashed baseline, which only
//! materialises one oriented CSR. The chosen degradation is reported as
//! a [`DegradeReason`] so callers can surface it.

// See crate::count: CountError is intentionally larger than clippy's
// 128-byte Err threshold; budgeted runs happen once per invocation.
#![allow(clippy::result_large_err)]

use std::fmt;

use lotus_algos::forward_hashed::forward_hashed_count_guarded;
use lotus_graph::UndirectedCsr;
use lotus_resilience::{MemoryBudget, RunGuard};
use lotus_telemetry::span;

use crate::config::{HubCount, LotusConfig};
use crate::count::{count_stage, CountError, LotusCounter, LotusResult, Phase};
use crate::h2h::TriBitArray;

/// Conservative estimate, in bytes, of the peak [`LotusGraph`]
/// footprint for a graph with `num_vertices` vertices and `num_edges`
/// undirected edges at the given hub count.
///
/// Each component is bounded independently (every edge could land in
/// either list, so HE and NHE are both sized for all of them):
///
/// * H2H bit array: `hub_count·(hub_count−1)/2` bits;
/// * HE entries: 2 bytes per edge, NHE entries: 4 bytes per edge;
/// * two CSR offset arrays: 8 bytes per vertex each;
/// * the relabeling (old→new and new→old): 2 × 4 bytes per vertex.
///
/// [`LotusGraph`]: crate::LotusGraph
pub fn estimate_footprint(num_vertices: u32, num_edges: u64, hub_count: u32) -> u64 {
    let h2h = TriBitArray::bit_len(hub_count).div_ceil(64) * 8;
    let he = 2 * num_edges;
    let nhe = 4 * num_edges;
    let offsets = 2 * (num_vertices as u64 + 1) * 8;
    let relabeling = 2 * num_vertices as u64 * 4;
    h2h + he + nhe + offsets + relabeling
}

/// How a budgeted run was degraded to fit its [`MemoryBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The hub set was shrunk (halving from the configured count) until
    /// the estimated footprint fit the budget.
    ShrunkHubs {
        /// The configured (resolved) hub count.
        from: u32,
        /// The hub count actually used.
        to: u32,
        /// Estimated footprint at `to` hubs, in bytes.
        estimated: u64,
        /// The budget, in bytes.
        budget: u64,
    },
    /// Even a hub-less LOTUS build was estimated over budget; the run
    /// used the forward-hashed baseline instead.
    ForwardFallback {
        /// Estimated footprint of the hub-less build, in bytes.
        estimated: u64,
        /// The budget, in bytes.
        budget: u64,
    },
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::ShrunkHubs {
                from,
                to,
                estimated,
                budget,
            } => write!(
                f,
                "shrunk hub set {from} -> {to} (estimated {estimated} B, budget {budget} B)"
            ),
            DegradeReason::ForwardFallback { estimated, budget } => write!(
                f,
                "fell back to forward-hashed (hub-less estimate {estimated} B over budget {budget} B)"
            ),
        }
    }
}

/// Result of a budgeted run: the counts plus the degradation applied,
/// if any.
///
/// When `degraded` is a [`DegradeReason::ForwardFallback`] the driver
/// does not classify triangles by type: the undifferentiated total is
/// reported in `result.stats.nnn` (and its wall time in
/// `result.breakdown.nnn`).
#[derive(Debug, Clone)]
pub struct ResilientCount {
    /// The counting result.
    pub result: LotusResult,
    /// The degradation applied, or `None` when the configured run fit
    /// the budget unmodified.
    pub degraded: Option<DegradeReason>,
}

impl ResilientCount {
    /// Total triangle count.
    pub fn total(&self) -> u64 {
        self.result.total()
    }
}

/// Runs LOTUS under both a [`MemoryBudget`] and a [`RunGuard`].
///
/// The footprint is estimated from `(|V|, |E|)` *before* building
/// anything; if the configured hub count is over budget the hub set is
/// halved until it fits (recorded as [`DegradeReason::ShrunkHubs`]),
/// and if even zero hubs do not fit the forward-hashed baseline runs
/// instead ([`DegradeReason::ForwardFallback`]). Guard stops and worker
/// panics surface as [`CountError`] exactly as in
/// [`LotusCounter::count_guarded`].
///
/// # Errors
/// Returns a [`CountError`] when the guard stops the run or a worker
/// panics; budget degradation itself is not an error.
pub fn count_with_budget(
    config: &LotusConfig,
    graph: &UndirectedCsr,
    budget: &MemoryBudget,
    guard: &RunGuard,
) -> Result<ResilientCount, CountError> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let configured = config.resolved_hub_count(n);

    let mut hubs = configured;
    let mut estimated = estimate_footprint(n, m, hubs);
    while !budget.fits(estimated) && hubs > 0 {
        hubs /= 2;
        estimated = estimate_footprint(n, m, hubs);
    }

    if !budget.fits(estimated) {
        // Even hub-less LOTUS is over budget: forward-hashed fallback.
        let reason = DegradeReason::ForwardFallback {
            estimated,
            budget: budget.bytes(),
        };
        // The degrade path is part of the run's observable story: record
        // it before the fallback driver starts, so telemetry keeps the
        // explanation even if the driver is later stopped or panics.
        span::record_degrade(&reason.to_string());
        let mut result = LotusResult::default();
        count_stage(
            Phase::Fallback,
            &mut result,
            || forward_hashed_count_guarded(graph, guard),
            |s, c| s.nnn = c,
        )?;
        return Ok(ResilientCount {
            result,
            degraded: Some(reason),
        });
    }

    let degraded = (hubs != configured).then_some(DegradeReason::ShrunkHubs {
        from: configured,
        to: hubs,
        estimated,
        budget: budget.bytes(),
    });
    if let Some(reason) = &degraded {
        span::record_degrade(&reason.to_string());
    }
    let effective = if hubs == configured {
        *config
    } else {
        config.with_hub_count(HubCount::Fixed(hubs))
    };
    let result = LotusCounter::new(effective).count_guarded(graph, guard)?;
    Ok(ResilientCount { result, degraded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HubCount;
    use lotus_algos::forward::forward_count;

    fn cfg(hubs: u32) -> LotusConfig {
        LotusConfig::default().with_hub_count(HubCount::Fixed(hubs))
    }

    #[test]
    fn footprint_grows_with_hubs_and_edges() {
        let base = estimate_footprint(1000, 5000, 0);
        assert!(estimate_footprint(1000, 5000, 512) > base);
        assert!(estimate_footprint(1000, 10_000, 0) > base);
    }

    #[test]
    fn generous_budget_runs_unmodified() {
        let g = lotus_gen::Rmat::new(9, 8).generate(7);
        let budget = MemoryBudget::from_bytes(u64::MAX);
        let r = count_with_budget(&cfg(64), &g, &budget, &RunGuard::unlimited()).unwrap();
        assert!(r.degraded.is_none());
        assert_eq!(r.total(), forward_count(&g));
    }

    #[test]
    fn tight_budget_shrinks_hubs_and_stays_correct() {
        let g = lotus_gen::Rmat::new(9, 8).generate(7);
        let full = estimate_footprint(g.num_vertices(), g.num_edges(), 512);
        let hubless = estimate_footprint(g.num_vertices(), g.num_edges(), 0);
        // A budget between the hub-less and the 512-hub estimate forces
        // halving without forcing the fallback.
        let budget = MemoryBudget::from_bytes((full + hubless) / 2);
        let r = count_with_budget(&cfg(512), &g, &budget, &RunGuard::unlimited()).unwrap();
        match r.degraded {
            Some(DegradeReason::ShrunkHubs { from, to, .. }) => {
                assert_eq!(from, 512);
                assert!(to < 512);
            }
            other => panic!("expected ShrunkHubs, got {other:?}"),
        }
        assert_eq!(r.total(), forward_count(&g));
    }

    #[test]
    fn hopeless_budget_falls_back_to_forward_hashed() {
        let g = lotus_gen::Rmat::new(8, 8).generate(3);
        let budget = MemoryBudget::from_bytes(16);
        let r = count_with_budget(&cfg(64), &g, &budget, &RunGuard::unlimited()).unwrap();
        assert!(matches!(
            r.degraded,
            Some(DegradeReason::ForwardFallback { .. })
        ));
        assert_eq!(r.total(), forward_count(&g));
        // The fallback reports the whole count as NNN.
        assert_eq!(r.result.stats.nnn, r.total());
    }
}
