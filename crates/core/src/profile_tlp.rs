//! Profiled `OptTLP`: run the application per TLP level and pick the
//! fastest (the paper's thread-throttling baseline, Kayıran et al.
//! PACT'13, determined "offline by exhaustively testing all the
//! possible TLPs" — a small space, at most `MaxTLP` runs).
//!
//! The sweep returns the exhaustive sweep's answer without running
//! every level to completion: it bounds each level by the best cycle
//! count so far and prunes the levels that pass it (see
//! [`profile_opt_tlp_with`]).

use crat_ptx::Kernel;
use crat_sim::{GpuConfig, LaunchConfig, SimError, SimStats};

use crate::engine::{EvalBudget, EvalEngine};
use crate::CratError;

/// The outcome of the TLP profiling sweep.
#[derive(Debug, Clone)]
pub struct TlpProfile {
    /// The fastest TLP found: the lowest level among the minima.
    pub opt_tlp: u32,
    /// Statistics per completed TLP level `(tlp, stats)`, ascending.
    pub runs: Vec<(u32, SimStats)>,
    /// Levels stopped at the bound because they ran longer than a
    /// higher level had already finished, ascending. Together with
    /// `runs` they cover `1..=max` exactly once.
    pub pruned: Vec<u32>,
}

impl TlpProfile {
    /// The stats of the winning run.
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty (cannot happen for values
    /// produced by [`profile_opt_tlp`]).
    pub fn best(&self) -> &SimStats {
        match self.runs.iter().find(|(t, _)| *t == self.opt_tlp) {
            Some((_, stats)) => stats,
            None => panic!("winning run recorded"),
        }
    }
}

/// Sweep TLP from the kernel's occupancy limit down to 1 and return the
/// fastest level. `regs_per_thread` must match the allocation being
/// profiled (the paper profiles with the default allocation).
///
/// # Errors
///
/// Propagates the first simulation failure; see
/// [`profile_opt_tlp_with`].
pub fn profile_opt_tlp(
    kernel: &Kernel,
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
) -> Result<TlpProfile, CratError> {
    profile_opt_tlp_with(
        crate::engine::global(),
        kernel,
        gpu,
        launch,
        regs_per_thread,
    )
}

/// [`profile_opt_tlp`] on an explicit engine, bound-and-prune.
///
/// Levels run serially in descending order, from the occupancy limit
/// `max` down to 1. The top level runs unbounded (it is the same
/// operating point, and memo entry, as the uncapped `MaxTLP` run), and
/// so do the levels down to the resident blocks it actually ran (the
/// grid can leave fewer blocks per SM than occupancy allows): they are
/// the same point again, served from the memo. Each lower level runs
/// under [`EvalBudget::prune_above`] the best cycle count so far. The
/// bound is inclusive — the simulator stops only once the count
/// exceeds it — so a level that ties the best completes and, walking
/// down, takes the win: the result is the exhaustive sweep's lowest
/// TLP among the minima, with bit-identical stats. A level stopped at
/// the bound cannot win and is listed in [`TlpProfile::pruned`]
/// instead of [`TlpProfile::runs`].
///
/// Bounds depend only on earlier, deterministic results, so a repeated
/// sweep requests the same operating points and replays from the memo
/// cache (or an attached store), pruned levels included.
///
/// # Errors
///
/// Propagates the first failure among the levels that ran, walking
/// down. A level that would have failed only after passing the bound
/// is pruned instead: it cannot win, so its failure is never reached.
pub fn profile_opt_tlp_with(
    engine: &EvalEngine,
    kernel: &Kernel,
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
) -> Result<TlpProfile, CratError> {
    let max = crat_sim::occupancy(
        gpu,
        regs_per_thread,
        kernel.shared_bytes(),
        launch.block_size,
    )
    .blocks
    .max(1);
    let top = engine.simulate(kernel, gpu, launch, regs_per_thread, Some(max))?;
    let limit = top.resident_blocks;
    let mut best = (max, top.cycles);
    let mut runs = vec![(max, top)];
    let mut pruned = Vec::new();
    for tlp in (1..max).rev() {
        // A cap at or above the blocks the top level kept resident is
        // the top's own operating point: unbounded, it is a memo hit.
        let budget = if tlp >= limit {
            EvalBudget::none()
        } else {
            EvalBudget::prune_above(best.1)
        };
        match engine.simulate_budgeted(kernel, gpu, launch, regs_per_thread, Some(tlp), budget) {
            // A bounded level completes only at or below the best.
            Ok(stats) => {
                best = (tlp, stats.cycles);
                runs.push((tlp, stats));
            }
            Err(CratError::Sim(SimError::CycleLimit { .. })) => pruned.push(tlp),
            Err(e) => return Err(e),
        }
    }
    runs.reverse();
    pruned.reverse();
    Ok(TlpProfile {
        opt_tlp: best.0,
        runs,
        pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_workloads::{build_kernel, launch_sized, suite};

    #[test]
    fn cache_thrasher_prefers_low_tlp() {
        let app = suite::spec("KMN");
        let k = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let p = profile_opt_tlp(&k, &gpu, &launch, 21).unwrap();
        let max_tlp = p.runs.last().unwrap().0;
        assert!(
            p.opt_tlp < max_tlp,
            "KMN should be throttled: opt {} of max {max_tlp}",
            p.opt_tlp
        );
        assert_eq!(
            p.best().cycles,
            p.runs.iter().map(|(_, s)| s.cycles).min().unwrap()
        );
    }

    #[test]
    fn insensitive_app_prefers_high_tlp() {
        let app = suite::spec("BAK");
        let k = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let p = profile_opt_tlp(&k, &gpu, &launch, 16).unwrap();
        // Running at full TLP must be about as fast as the optimum:
        // the app does not benefit from throttling (paper Figure 19).
        let full = &p.runs.last().unwrap().1;
        let best = p.best();
        assert!(
            full.cycles as f64 <= best.cycles as f64 * 1.05,
            "full TLP ({}) should match the optimum ({})",
            full.cycles,
            best.cycles
        );
    }

    #[test]
    fn profile_covers_every_tlp() {
        let app = suite::spec("BAK");
        let k = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let p = profile_opt_tlp(&k, &gpu, &launch, 16).unwrap();
        let max = crat_sim::occupancy(&gpu, 16, k.shared_bytes(), launch.block_size).blocks;
        let mut tlps: Vec<u32> = p.runs.iter().map(|(t, _)| *t).collect();
        tlps.extend(&p.pruned);
        tlps.sort_unstable();
        let expected: Vec<u32> = (1..=max).collect();
        assert_eq!(tlps, expected, "runs and pruned partition 1..=max");
        assert_eq!(p.runs.last().unwrap().0, max, "the top level always runs");
    }
}
