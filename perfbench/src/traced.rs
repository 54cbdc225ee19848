//! The traced pass: the same evaluation as [`crate::suite::evaluate`],
//! driven layer by layer through the library's public calls so that a
//! span can be recorded around each call into a layer.
//!
//! Each technique is decomposed as `evaluate_with` composes it: resource
//! analysis, the default allocation, then either the final simulation
//! (MaxTLP), the OptTLP profiling sweep (OptTLP), or the CRAT pipeline
//! (OptTLP source → `optimize_with` → the winner's simulation). The
//! pipeline is handed the OptTLP the pass measured
//! (`OptTlpSource::Given`), so `optimize_with` runs no simulations and
//! its span holds only analysis, allocation and TPSC. Simulations are
//! memoized per distinct operating point, as the engine memoizes them,
//! and run as a separate `decode` and `sim` call each — or, when the
//! evaluation replays a result store, as one engine lookup served by the
//! store. Every output is checked against the same expected table as
//! the untraced evaluation.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crat_core::{
    analyze, estimate_opt_tlp, optimize_with, CratOptions, EvalEngine, OptTlpSource, RecordKey,
    ResourceUsage, ResultStore, StoreConfig, StrategyRoster, Technique, ALLOC_FLOOR,
    STATIC_L1_HIT_RATE,
};
use crat_ptx::Kernel;
use crat_regalloc::{allocate_with, AllocError, AllocOptions, Allocation, StrategyKind};
use crat_sim::{
    decode, occupancy, simulate_decoded_profiled, DecodedKernel, GpuConfig, SimStats, StallCause,
    VectorStats, NUM_CAUSES,
};

use crate::spans::Tracer;
use crate::suite::{build_jobs, Job, Outcome, Plan, Row};

/// Simulated totals of every simulation the pass executed.
#[derive(Debug, Default, Clone)]
pub struct SimTotals {
    pub warp_insts: u64,
    pub cycles: u64,
    pub vector: VectorStats,
    pub stall: [u64; NUM_CAUSES],
}

/// Counters the pass takes at the pipeline boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineTotals {
    /// Design points the optimizer evaluated (survivors plus skipped).
    pub points: u64,
    /// Design points it dropped.
    pub skipped: u64,
}

/// The OptTLP a CRAT variant was given, kept so the allocator sweeps
/// can re-run the same optimization under each pinned strategy.
#[derive(Debug, Clone, Copy)]
pub struct GivenTlp {
    pub job: usize,
    pub technique: Technique,
    pub opt_tlp: u32,
}

/// The outcome of one traced pass.
#[derive(Debug)]
pub struct PassOutput {
    pub rows: Vec<Row>,
    pub given: Vec<GivenTlp>,
    pub sims: SimTotals,
    pub pipeline: PipelineTotals,
}

/// Shared state of one pass.
struct Pass<'a> {
    tracer: &'a Tracer,
    engine: &'a EvalEngine,
    gpu: &'a GpuConfig,
    via_store: bool,
    sims: Mutex<SimTotals>,
    pipeline: Mutex<PipelineTotals>,
}

/// Per-application memo: the engine keys its caches by kernel, so no
/// two applications share an entry and a per-app map is equivalent.
struct AppMemo<'j> {
    job: &'j Job,
    decoded: HashMap<u64, Arc<DecodedKernel>>,
    points: HashMap<(u64, u32, Option<u32>), Result<SimStats, String>>,
}

fn kernel_hash(kernel: &Kernel) -> u64 {
    let mut h = DefaultHasher::new();
    kernel.hash(&mut h);
    h.finish()
}

/// Build every kernel and launch of a plan as root span `setup`, one
/// `workloads.build` span per app (the untraced run's set-up).
pub fn build_traced(tracer: &Tracer, pass: u32, plan: &Plan) -> Vec<Job> {
    tracer.root(pass, "setup", || {
        plan.iter()
            .flat_map(|p| {
                tracer.span("workloads.build", p.0.abbr, || {
                    build_jobs(std::slice::from_ref(p))
                })
            })
            .collect()
    })
}

/// Run one traced pass over `jobs` as root span `pass`, on `engine`
/// (fresh, so allocation contexts are built inside the pass). With
/// `via_store`, simulations are served by the engine's attached store.
pub fn run_pass(
    tracer: &Tracer,
    pass: u32,
    engine: &EvalEngine,
    gpu: &GpuConfig,
    jobs: &[Job],
    via_store: bool,
) -> PassOutput {
    let p = Pass {
        tracer,
        engine,
        gpu,
        via_store,
        sims: Mutex::new(SimTotals::default()),
        pipeline: Mutex::new(PipelineTotals::default()),
    };
    let indexed: Vec<(usize, &Job)> = jobs.iter().enumerate().collect();
    let per_app = tracer.root(pass, "pass", || {
        engine.par_map(&indexed, |&(i, job)| p.run_app(i, job))
    });
    let mut rows = Vec::new();
    let mut given = Vec::new();
    for (r, g) in per_app {
        rows.extend(r);
        given.extend(g);
    }
    PassOutput {
        rows,
        given,
        sims: p.sims.into_inner().expect("sim totals lock poisoned"),
        pipeline: p
            .pipeline
            .into_inner()
            .expect("pipeline totals lock poisoned"),
    }
}

impl Pass<'_> {
    fn run_app(&self, index: usize, job: &Job) -> (Vec<Row>, Vec<GivenTlp>) {
        let app = job.app.abbr;
        self.tracer.span("regalloc.ctx_build", app, || {
            self.engine.alloc_context(&job.kernel)
        });
        let mut memo = AppMemo {
            job,
            decoded: HashMap::new(),
            points: HashMap::new(),
        };
        let mut rows = Vec::with_capacity(job.techniques.len());
        let mut given = Vec::new();
        for &t in &job.techniques {
            let outcome = self.technique(&mut memo, t).map(|(o, g)| {
                if let Some(opt_tlp) = g {
                    given.push(GivenTlp {
                        job: index,
                        technique: t,
                        opt_tlp,
                    });
                }
                o
            });
            rows.push(Row {
                app,
                technique: t,
                outcome,
            });
        }
        (rows, given)
    }

    /// One technique, as `evaluate_with` composes it. Returns the
    /// outcome and, for CRAT variants, the OptTLP handed to the pipeline.
    fn technique(
        &self,
        memo: &mut AppMemo<'_>,
        t: Technique,
    ) -> Result<(Outcome, Option<u32>), String> {
        let job = memo.job;
        let app = job.app.abbr;
        let usage = self.tracer.span("resource.analyze", app, || {
            analyze(&job.kernel, self.gpu, &job.launch)
        });
        let default = self.default_alloc(app, job, &usage)?;
        let outcome = |reg, tlp, s: &SimStats| Outcome {
            reg,
            tlp,
            cycles: s.cycles,
            warp_insts: s.warp_insts,
        };
        match t {
            Technique::MaxTlp => {
                let s = self.point(memo, &default.kernel, default.slots_used, None)?;
                Ok((outcome(default.slots_used, s.resident_blocks, &s), None))
            }
            Technique::OptTlp => {
                let (tlp, s) = self.profile(memo, &default)?;
                Ok((outcome(default.slots_used, tlp, &s), None))
            }
            Technique::CratLocal | Technique::Crat | Technique::CratStatic => {
                let (opt_tlp, solution) = self.tracer.span("pipeline", app, || {
                    let opt_tlp = if t == Technique::CratStatic {
                        self.tracer.span("static_tlp.estimate", app, || {
                            estimate_opt_tlp(
                                &default.kernel,
                                self.gpu,
                                usage.max_tlp,
                                self.gpu.warps_per_block(usage.block_size),
                                STATIC_L1_HIT_RATE,
                            )
                        })
                    } else {
                        self.profile(memo, &default)?.0
                    };
                    let opts = crat_options(t, opt_tlp, StrategyRoster::Default);
                    optimize_with(self.engine, &job.kernel, self.gpu, &job.launch, &opts)
                        .map(|s| (opt_tlp, s))
                        .map_err(|e| e.to_string())
                })?;
                {
                    let mut p = self.pipeline.lock().expect("pipeline totals lock poisoned");
                    p.points += (solution.candidates.len() + solution.skipped.len()) as u64;
                    p.skipped += solution.skipped.len() as u64;
                }
                let w = solution.winner();
                let a = &w.allocation;
                let s = self.point(memo, &a.kernel, a.slots_used, Some(w.achieved_tlp))?;
                Ok((outcome(a.slots_used, w.achieved_tlp, &s), Some(opt_tlp)))
            }
        }
    }

    /// The default allocation with the pipeline's `+2` budget ladder,
    /// drawing on the engine's cached allocation context.
    fn default_alloc(
        &self,
        app: &'static str,
        job: &Job,
        usage: &ResourceUsage,
    ) -> Result<Allocation, String> {
        self.tracer.span("regalloc.alloc", app, || {
            let ctx = self.engine.alloc_context(&job.kernel);
            let mut budget = usage.default_reg.max(ALLOC_FLOOR);
            for attempt in 0..7 {
                match allocate_with(&job.kernel, &ctx, &AllocOptions::new(budget)) {
                    Err(AllocError::BudgetTooSmall { .. }) if attempt < 6 => budget += 2,
                    r => return r.map_err(|e| e.to_string()),
                }
            }
            unreachable!("the final attempt either succeeds or returns its error")
        })
    }

    /// The OptTLP profiling sweep over the default allocation: the
    /// earliest strict minimum of cycles over TLP 1..=occupancy.
    fn profile(
        &self,
        memo: &mut AppMemo<'_>,
        alloc: &Allocation,
    ) -> Result<(u32, SimStats), String> {
        let job = memo.job;
        self.tracer.span("profile_tlp", job.app.abbr, || {
            let max = occupancy(
                self.gpu,
                alloc.slots_used,
                alloc.kernel.shared_bytes(),
                job.launch.block_size,
            )
            .blocks
            .max(1);
            let mut best: Option<(u32, SimStats)> = None;
            for tlp in 1..=max {
                let s = self.point(memo, &alloc.kernel, alloc.slots_used, Some(tlp))?;
                if best.as_ref().is_none_or(|(_, b)| s.cycles < b.cycles) {
                    best = Some((tlp, s));
                }
            }
            Ok(best.expect("the sweep covers at least TLP 1"))
        })
    }

    /// One operating point, memoized: decode (once per kernel) and
    /// simulate, or look the result up through the store-backed engine.
    fn point(
        &self,
        memo: &mut AppMemo<'_>,
        kernel: &Kernel,
        regs: u32,
        tlp: Option<u32>,
    ) -> Result<SimStats, String> {
        let (job, app) = (memo.job, memo.job.app.abbr);
        let kh = kernel_hash(kernel);
        if let Some(r) = memo.points.get(&(kh, regs, tlp)) {
            return r.clone();
        }
        let result = if self.via_store {
            self.tracer.span("store.lookup", app, || {
                self.engine
                    .simulate(kernel, self.gpu, &job.launch, regs, tlp)
                    .map_err(|e| e.to_string())
            })
        } else {
            let dk = match memo.decoded.get(&kh) {
                Some(dk) => dk.clone(),
                None => {
                    let dk = self
                        .tracer
                        .span("decode", app, || decode(kernel))
                        .map_err(|e| e.to_string())?;
                    memo.decoded.entry(kh).or_insert(Arc::new(dk)).clone()
                }
            };
            let (r, _) = self.tracer.span_counted("sim", app, || {
                let r = simulate_decoded_profiled(&dk, self.gpu, &job.launch, regs, tlp, None);
                let insts = r.as_ref().map_or(0, |(s, _)| s.warp_insts);
                (r, insts)
            });
            r.map(|(s, v)| {
                let mut t = self.sims.lock().expect("sim totals lock poisoned");
                t.warp_insts += s.warp_insts;
                t.cycles += s.cycles;
                t.vector.merge(&v);
                for c in StallCause::ALL {
                    t.stall[c as usize] += s.attribution.cause(c);
                }
                s
            })
            .map_err(|e| e.to_string())
        };
        memo.points.insert((kh, regs, tlp), result.clone());
        result
    }
}

/// The options `evaluate_with` uses for CRAT variant `t`, with the
/// OptTLP given and the allocator roster set.
fn crat_options(t: Technique, opt_tlp: u32, roster: StrategyRoster) -> CratOptions {
    CratOptions {
        opt_tlp: OptTlpSource::Given(opt_tlp),
        shm_spill: t != Technique::CratLocal,
        roster,
        ..CratOptions::new()
    }
}

/// The span name of a pinned-strategy sweep.
pub fn sweep_span(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Briggs => "regalloc.briggs.sweep",
        StrategyKind::SchedBriggs => "regalloc.sched_briggs.sweep",
        StrategyKind::Ssa => "regalloc.ssa.sweep",
        StrategyKind::LinearScan => "regalloc.linear_scan.sweep",
    }
}

/// Re-run every CRAT optimization of a pass under each pinned roster
/// strategy, as root span `sweeps`, on the pass's engine (allocation
/// contexts already built; no simulation runs with a given OptTLP), so
/// each span holds that strategy's allocations and TPSC scoring only.
pub fn run_sweeps(
    tracer: &Tracer,
    pass: u32,
    engine: &EvalEngine,
    gpu: &GpuConfig,
    jobs: &[Job],
    given: &[GivenTlp],
) -> Result<(), String> {
    tracer.root(pass, "sweeps", || {
        for kind in StrategyKind::ROSTER {
            for g in given {
                let job = &jobs[g.job];
                let opts = crat_options(g.technique, g.opt_tlp, StrategyRoster::Pinned(kind));
                tracer
                    .span(sweep_span(kind), job.app.abbr, || {
                        optimize_with(engine, &job.kernel, gpu, &job.launch, &opts)
                    })
                    .map_err(|e| {
                        format!(
                            "{} {} pinned {}: {e}",
                            job.app.abbr,
                            g.technique,
                            kind.label()
                        )
                    })?;
            }
        }
        Ok(())
    })
}

/// Store I/O measured directly: every record of `dir` loaded through
/// `ResultStore::load`, then saved into the fresh directory `copy`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreIo {
    pub hits: u64,
    pub writes: u64,
    pub bytes: u64,
}

/// Every record key in a store directory (shard dirs of `<32 hex>.rec`).
pub fn record_keys(dir: &Path) -> Vec<RecordKey> {
    let mut keys = Vec::new();
    for shard in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        for rec in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = rec.file_name();
            let Some(hex) = name.to_str().and_then(|n| n.strip_suffix(".rec")) else {
                continue;
            };
            if hex.len() == 32 {
                if let (Ok(a), Ok(b)) = (
                    u64::from_str_radix(&hex[..16], 16),
                    u64::from_str_radix(&hex[16..], 16),
                ) {
                    keys.push(RecordKey(a, b));
                }
            }
        }
    }
    keys.sort_by_key(|k| (k.0, k.1));
    keys
}

/// Time `ResultStore::load` on every record of `dir` and
/// `ResultStore::save` of each into `copy`, as root span `store_io`.
pub fn run_store_io(
    tracer: &Tracer,
    pass: u32,
    dir: &Path,
    copy: &Path,
) -> Result<StoreIo, String> {
    let keys = record_keys(dir);
    let src = ResultStore::open(StoreConfig::new(dir)).map_err(|e| e.to_string())?;
    let dst = ResultStore::open(StoreConfig::new(copy)).map_err(|e| e.to_string())?;
    tracer.root(pass, "store_io", || {
        let loaded: Vec<_> = keys
            .iter()
            .filter_map(|&k| {
                tracer
                    .span("store.load", "", || src.load(k))
                    .map(|r| (k, r))
            })
            .collect();
        for (k, r) in &loaded {
            tracer.span("store.save", "", || dst.save(*k, r));
        }
    });
    let io = StoreIo {
        hits: src.stats().hits,
        writes: dst.stats().writes,
        bytes: dst.record_bytes(),
    };
    if io.hits != keys.len() as u64 || io.writes != io.hits {
        return Err(format!(
            "store I/O: {} records, {} loaded, {} saved",
            keys.len(),
            io.hits,
            io.writes
        ));
    }
    Ok(io)
}
