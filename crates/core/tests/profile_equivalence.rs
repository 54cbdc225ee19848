//! The bound-and-prune OptTLP sweep against the exhaustive sweep it
//! replaces, and the two engine guarantees it rests on: a cycle bound
//! truncates a run exactly (a run that fits is bit-identical, one that
//! does not stops with `CycleLimit`), and a TLP cap that cannot bind is
//! the same memo entry as no cap.

use crat_core::engine::{EvalBudget, EvalEngine};
use crat_core::{analyze, profile_opt_tlp_with, CratError, ALLOC_FLOOR};
use crat_ptx::Kernel;
use crat_regalloc::{allocate, AllocOptions};
use crat_sim::{GpuConfig, LaunchConfig, SimError, SimStats};
use crat_workloads::{build_kernel, launch_sized, suite, AppSpec};

/// The golden suite's grid size.
const GOLDEN_GRID: u32 = 30;

/// All 24 apps: the paper table plus the bank-study companions.
fn apps() -> impl Iterator<Item = &'static AppSpec> {
    suite::all().chain(suite::bank_sensitive())
}

/// The default-allocation binary the paper profiles, and its register
/// count.
fn default_binary(kernel: &Kernel, gpu: &GpuConfig, launch: &LaunchConfig) -> (Kernel, u32) {
    let usage = analyze(kernel, gpu, launch);
    let alloc = allocate(
        kernel,
        &AllocOptions::new(usage.default_reg.max(ALLOC_FLOOR)),
    )
    .expect("default allocation");
    (alloc.kernel, alloc.slots_used)
}

fn max_tlp(kernel: &Kernel, gpu: &GpuConfig, launch: &LaunchConfig, regs: u32) -> u32 {
    crat_sim::occupancy(gpu, regs, kernel.shared_bytes(), launch.block_size)
        .blocks
        .max(1)
}

#[test]
fn pruned_sweep_matches_the_exhaustive_sweep_at_the_golden_grid() {
    for app in apps() {
        check_sweep(app, GOLDEN_GRID);
    }
}

/// Full-size grids take minutes unoptimized; `scripts/check.sh` runs
/// this file with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-size grids: run with --release")]
fn pruned_sweep_matches_the_exhaustive_sweep_at_each_apps_own_grid() {
    for app in apps() {
        check_sweep(app, app.grid_blocks);
    }
}

/// The pruned sweep against an exhaustive loop over every level: same
/// winner, bit-identical stats for every completed level, and every
/// pruned level's full run slower than the winner.
fn check_sweep(app: &AppSpec, grid: u32) {
    let gpu = GpuConfig::fermi();
    let ctx = format!("{} at grid {grid}", app.abbr);
    let launch = launch_sized(app, grid);
    let (kernel, regs) = default_binary(&build_kernel(app), &gpu, &launch);
    let max = max_tlp(&kernel, &gpu, &launch, regs);

    // The exhaustive sweep: every level to completion, winner the
    // lowest TLP among the minima.
    let oracle = EvalEngine::serial();
    let full: Vec<SimStats> = (1..=max)
        .map(|tlp| {
            oracle
                .simulate(&kernel, &gpu, &launch, regs, Some(tlp))
                .unwrap_or_else(|e| panic!("{ctx}: TLP {tlp}: {e}"))
        })
        .collect();
    let min = full.iter().map(|s| s.cycles).min().expect("levels");
    let opt = 1 + full.iter().position(|s| s.cycles == min).expect("min") as u32;

    let engine = EvalEngine::serial();
    let p = profile_opt_tlp_with(&engine, &kernel, &gpu, &launch, regs)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(p.opt_tlp, opt, "{ctx}: winner");
    assert_eq!(p.best(), &full[opt as usize - 1], "{ctx}: winning stats");
    for (tlp, stats) in &p.runs {
        assert_eq!(stats, &full[*tlp as usize - 1], "{ctx}: TLP {tlp}");
    }
    for tlp in &p.pruned {
        assert!(
            full[*tlp as usize - 1].cycles > min,
            "{ctx}: pruned TLP {tlp} could have won"
        );
    }
    let mut covered: Vec<u32> = p.runs.iter().map(|(t, _)| *t).collect();
    covered.extend(&p.pruned);
    covered.sort_unstable();
    assert_eq!(covered, (1..=max).collect::<Vec<_>>(), "{ctx}: levels");

    // Levels at or above the resident blocks the top level ran are its
    // own memo entry; each level below runs once. Pruned levels are
    // counted as such, not as budget failures, and a repeated sweep
    // replays from the memo.
    let limit = u64::from(full[max as usize - 1].resident_blocks);
    let s = engine.stats();
    assert_eq!(s.sims_executed, limit, "{ctx}");
    assert_eq!(s.cache_hits, u64::from(max) - limit, "{ctx}");
    assert_eq!(s.sims_pruned, p.pruned.len() as u64, "{ctx}");
    assert_eq!(s.budget_exceeded, 0, "{ctx}");
    let again = profile_opt_tlp_with(&engine, &kernel, &gpu, &launch, regs).unwrap();
    assert_eq!((again.opt_tlp, &again.runs), (p.opt_tlp, &p.runs), "{ctx}");
    assert_eq!(again.pruned, p.pruned, "{ctx}");
    assert_eq!(engine.stats().sims_executed, limit, "{ctx}: replay");
}

#[test]
fn cycle_bound_truncates_exactly() {
    let gpu = GpuConfig::fermi();
    for app in apps() {
        let launch = launch_sized(app, GOLDEN_GRID);
        let (kernel, regs) = default_binary(&build_kernel(app), &gpu, &launch);
        for tlp in [Some(1), None] {
            let full = EvalEngine::serial()
                .simulate(&kernel, &gpu, &launch, regs, tlp)
                .unwrap();
            for cap in [full.cycles - 1, full.cycles, full.cycles + 1] {
                let engine = EvalEngine::serial();
                let bounded = engine.simulate_budgeted(
                    &kernel,
                    &gpu,
                    &launch,
                    regs,
                    tlp,
                    EvalBudget::prune_above(cap),
                );
                let ctx = format!("{} tlp {tlp:?} cap {cap} (full {})", app.abbr, full.cycles);
                if full.cycles <= cap {
                    assert_eq!(bounded.as_ref(), Ok(&full), "{ctx}");
                    assert_eq!(engine.stats().sims_pruned, 0, "{ctx}");
                } else {
                    assert!(
                        matches!(bounded, Err(CratError::Sim(SimError::CycleLimit { .. }))),
                        "{ctx}: {bounded:?}"
                    );
                    assert_eq!(engine.stats().sims_pruned, 1, "{ctx}");
                }
                assert_eq!(engine.stats().budget_exceeded, 0, "{ctx}");
            }
        }
    }
}

#[test]
fn caps_that_cannot_bind_are_one_operating_point() {
    let gpu = GpuConfig::fermi();
    let app = suite::spec("KMN");
    let launch = launch_sized(app, app.grid_blocks);
    let (kernel, regs) = default_binary(&build_kernel(app), &gpu, &launch);
    let limit = crat_sim::occupancy(&gpu, regs, kernel.shared_bytes(), launch.block_size)
        .blocks
        .min(launch.grid_blocks.div_ceil(gpu.num_sms));
    assert!(limit >= 2, "the check needs a binding cap below the limit");

    let engine = EvalEngine::serial();
    let uncapped = engine.simulate(&kernel, &gpu, &launch, regs, None).unwrap();
    for cap in [limit, limit + 3] {
        let capped = engine
            .simulate(&kernel, &gpu, &launch, regs, Some(cap))
            .unwrap();
        assert_eq!(capped, uncapped, "cap {cap}");
    }
    let s = engine.stats();
    assert_eq!((s.sims_executed, s.cache_hits), (1, 2));
    assert_eq!(engine.cache_len(), 1);

    let below = engine
        .simulate(&kernel, &gpu, &launch, regs, Some(limit - 1))
        .unwrap();
    assert_eq!(
        engine.stats().sims_executed,
        2,
        "a binding cap is its own point"
    );
    assert_eq!(below.resident_blocks, limit - 1);
    assert_eq!(uncapped.resident_blocks, limit);
}

#[test]
fn malformed_launches_fail_as_before() {
    let gpu = GpuConfig::fermi();
    let app = suite::spec("BAK");
    let kernel = build_kernel(app);
    let good = launch_sized(app, GOLDEN_GRID);
    let with_params = |mut l: LaunchConfig| {
        l.params = good.params.clone();
        l
    };
    let launches = [
        with_params(LaunchConfig::new(0, good.block_size)),
        with_params(LaunchConfig::new(GOLDEN_GRID, 0)),
        with_params(LaunchConfig::new(GOLDEN_GRID, 100)),
    ];
    let engine = EvalEngine::serial();
    for launch in &launches {
        for cap in [None, Some(1), Some(5), Some(u32::MAX)] {
            let direct = crat_sim::simulate(&kernel, &gpu, launch, 16, cap);
            let got = engine.simulate(&kernel, &gpu, launch, 16, cap);
            let ctx = format!(
                "grid {} block {} cap {cap:?}",
                launch.grid_blocks, launch.block_size
            );
            assert!(direct.is_err(), "{ctx}");
            assert_eq!(got, direct.map_err(CratError::Sim), "{ctx}");
        }
    }
    assert_eq!(engine.stats().panics_caught, 0);
}
