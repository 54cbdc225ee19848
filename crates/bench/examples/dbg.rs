use crat_core::*;
use crat_regalloc::{allocate, AllocOptions};
use crat_sim::GpuConfig;
use crat_workloads::{build_kernel, launch_sized, suite};

fn main() {
    let gpu = GpuConfig::fermi();
    for app in suite::sensitive() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, app.grid_blocks);
        let u = analyze(&kernel, &gpu, &launch);
        let alloc = allocate(&kernel, &AllocOptions::new(u.default_reg.max(12))).unwrap();
        let p = profile_opt_tlp(&alloc.kernel, &gpu, &launch, alloc.slots_used).unwrap();
        // The profile prunes levels that cannot win; the curve needs
        // every level run to completion.
        let engine = engine::global();
        let max = p.runs.iter().map(|(t, _)| *t).max().unwrap();
        let curve: Vec<String> = (1..=max)
            .map(|t| {
                let s = engine
                    .simulate(&alloc.kernel, &gpu, &launch, alloc.slots_used, Some(t))
                    .unwrap();
                format!("{t}:{}", s.cycles / 1000)
            })
            .collect();
        println!("{:5} maxreg={:2} default={:2} spill_mem={:3} weighted={:4} opt_tlp={} curve(kcyc)=[{}]",
            app.abbr, u.max_reg, u.default_reg,
            alloc.spills.counts.total_memory_insts(),
            alloc.spills.counts.total_local_weighted(),
            p.opt_tlp, curve.join(" "));
    }
}
