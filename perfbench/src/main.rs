//! End-to-end benchmark of the CRAT paper evaluation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig13_t1 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` it times the workload's evaluation on a fresh engine
//! per repetition and prints the end-to-end metrics; with `--trace 1` it
//! runs untraced repetitions (for engine counters, the thread sampler,
//! and the tracing-overhead baseline) and then traced passes that time
//! each layer from outside the library, and prints the per-layer
//! metrics. Every evaluation's outputs are checked against the expected
//! table. The last line of standard output is one JSON object. Host
//! times are reported at a reference host speed (see [`host`]).
//! `--write-expected` regenerates that table from the library instead;
//! `--fill-store <dir>` is the store-fill process a `warm_store_all`
//! set-up starts.

mod host;
mod ledger;
mod probes;
mod report;
mod spans;
mod suite;
mod traced;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{self, ExitCode};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crat_core::{EngineStats, EvalEngine, ResultStore, StoreConfig, Technique};
use crat_regalloc::StrategyKind;
use crat_sim::GpuConfig;

use host::Clock;
use ledger::{median, ACCOUNTING_TOLERANCE};
use report::{Metric, END_TO_END};
use spans::Tracer;
use suite::{Expected, Job, Plan, Row, Workload};

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Result-store set-ups per run: each populates a fresh store, which
/// takes seconds, so only two are done, before the repetitions.
const STORE_SETUPS: usize = 2;
/// Building the kernels alone takes a fraction of a millisecond and its
/// timing follows the machine's short-term state, so it is repeated in a
/// batch before every repetition, sampling the same stretch of time the
/// repetitions do. `setup_s` is the median over all set-ups of a run.
const BUILD_SETUPS_PER_REP: usize = 16;
/// Where runs keep their result stores and span files, relative to the
/// working directory.
const WORK_DIR: &str = ".perfbench";
/// Width of the engine that populates the store in set-up.
const STORE_FILL_THREADS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <fig13_t1|fig13_t2|static_all_t1|warm_store_all> \
[--seed N] [--seconds S] [--trace 0|1] | --write-expected";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    /// Fill a result store for a set-up (see [`fill_store`]).
    FillStore(Args, PathBuf),
    WriteExpected,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut fill = None;
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            return Ok(Command::WriteExpected);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--fill-store" => fill = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
    };
    Ok(match fill {
        Some(dir) => Command::FillStore(args, dir),
        None => Command::Run(args),
    })
}

fn main() -> ExitCode {
    let result = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::FillStore(args, dir)) => fill_store_process(&args, &dir),
        Ok(Command::WriteExpected) => write_expected(),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Regenerate `expected/outcomes.tsv` from the library: every app under
/// every technique, on a fresh engine.
fn write_expected() -> Result<(), String> {
    let jobs = suite::build_jobs(&suite::plan(Workload::WarmStoreAll, DEFAULT_SEED));
    let rows = suite::evaluate(&EvalEngine::new(0), &GpuConfig::fermi(), &jobs, &|| {});
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/outcomes.tsv");
    fs::write(&path, suite::render_expected(&rows)?).map_err(|e| e.to_string())?;
    println!("wrote {} rows to {}", rows.len(), path.display());
    Ok(())
}

/// Output checking across every evaluation of a run.
struct Checker {
    expected: Expected,
    attempted: u64,
    failed: u64,
    first_errors: Vec<String>,
}

impl Checker {
    fn check(&mut self, rows: &[Row]) {
        let bad = suite::mismatches(rows, &self.expected);
        self.count(rows.len() as u64, bad);
    }

    fn count(&mut self, attempted: u64, bad: Vec<String>) {
        self.attempted += attempted;
        self.failed += bad.len() as u64;
        let room = 5usize.saturating_sub(self.first_errors.len());
        self.first_errors.extend(bad.into_iter().take(room));
    }

    /// Count the check a store-fill process reported on its standard
    /// output: a `mismatch <row>` line per failure, then
    /// `filled <attempted> <failed>`.
    fn count_report(&mut self, report: &str) -> Result<(), String> {
        let bad: Vec<String> = report
            .lines()
            .filter_map(|l| l.strip_prefix("mismatch "))
            .map(String::from)
            .collect();
        let counts = report
            .lines()
            .find_map(|l| l.strip_prefix("filled "))
            .and_then(|c| c.split_once(' '))
            .and_then(|(a, f)| Some((a.parse::<u64>().ok()?, f.parse::<usize>().ok()?)));
        match counts {
            Some((attempted, failed)) if failed == bad.len() => {
                self.count(attempted, bad);
                Ok(())
            }
            _ => Err(format!("store fill printed no valid report: {report:?}")),
        }
    }
}

/// What set-up leaves for the repetitions.
struct Prepared {
    plan: Plan,
    jobs: Vec<Job>,
    store: Option<Arc<ResultStore>>,
    setup_s: Vec<f64>,
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(WORK_DIR).join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Build every kernel and launch and construct the engine; returns the
/// jobs and the seconds it took.
fn build_setup(args: &Args, plan: &Plan) -> (Vec<Job>, f64) {
    let t0 = Instant::now();
    let jobs = suite::build_jobs(plan);
    drop(std::hint::black_box(EvalEngine::new(
        args.workload.threads(),
    )));
    (jobs, t0.elapsed().as_secs_f64())
}

/// A batch of [`BUILD_SETUPS_PER_REP`] build set-ups; returns the last
/// one's jobs and every set-up's seconds.
fn build_setups(args: &Args, plan: &Plan) -> (Vec<Job>, Vec<f64>) {
    let (mut jobs, mut secs) = (Vec::new(), Vec::new());
    for _ in 0..BUILD_SETUPS_PER_REP {
        let (j, s) = build_setup(args, plan);
        jobs = j;
        secs.push(s);
    }
    (jobs, secs)
}

/// One store set-up: build the jobs and populate a fresh result store
/// by evaluating them; returns the jobs, the store and the seconds. The
/// store is filled by a process of its own, as users replay a store an
/// earlier process filled, so the filling engine's worker threads leave
/// no memory resident under the timed repetitions' peaks.
fn fill_store(
    args: &Args,
    plan: &Plan,
    k: usize,
    checker: &mut Checker,
) -> Result<(Vec<Job>, Arc<ResultStore>, f64), String> {
    let (jobs, build_s) = build_setup(args, plan);
    let t0 = Instant::now();
    let dir = fresh_dir(&format!("store{k}"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--fill-store")
        .arg(&dir)
        .output()
        .map_err(|e| format!("store fill: {e}"))?;
    let secs = build_s + t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "store fill: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    checker.count_report(&String::from_utf8_lossy(&out.stdout))?;
    let store = ResultStore::open(StoreConfig::new(&dir)).map_err(|e| e.to_string())?;
    Ok((jobs, Arc::new(store), secs))
}

/// The store-fill process: evaluate the workload into the store at
/// `dir` and report the output check (see [`Checker::count_report`]).
fn fill_store_process(args: &Args, dir: &Path) -> Result<(), String> {
    let jobs = suite::build_jobs(&suite::plan(args.workload, args.seed));
    let store = ResultStore::open(StoreConfig::new(dir)).map_err(|e| e.to_string())?;
    let filler = EvalEngine::new(STORE_FILL_THREADS);
    filler.attach_store(Arc::new(store));
    let rows = suite::evaluate(&filler, &GpuConfig::fermi(), &jobs, &|| {});
    let bad = suite::mismatches(&rows, &suite::expected());
    for b in &bad {
        println!("mismatch {b}");
    }
    println!("filled {} {}", rows.len(), bad.len());
    Ok(())
}

/// Set up before the repetitions: a batch of kernel builds or, for the
/// store workload, populating a fresh result store each time. Only the
/// last set-up's products are kept. Set-up times are at the reference
/// host speed.
fn prepare(args: &Args, checker: &mut Checker) -> Result<Prepared, String> {
    let plan = suite::plan(args.workload, args.seed);
    if !args.workload.uses_store() {
        let mut clock = Clock::new();
        clock.resume();
        let (jobs, secs) = build_setups(args, &plan);
        let lap = clock.lap();
        return Ok(Prepared {
            plan,
            jobs,
            store: None,
            setup_s: secs.iter().map(|&s| lap.scale(s)).collect(),
        });
    }
    let mut setup_s = Vec::new();
    let mut kept: Option<(Vec<Job>, Arc<ResultStore>)> = None;
    let mut clock = Clock::new();
    for k in 0..STORE_SETUPS {
        clock.resume();
        let filled = fill_store(args, &plan, k, checker);
        let lap = clock.lap();
        let (jobs, store, secs) = filled?;
        setup_s.push(lap.scale(secs));
        if let Some((_, old)) = kept.replace((jobs, store)) {
            let _ = fs::remove_dir_all(old.dir());
        }
    }
    let (jobs, store) = kept.expect("at least one set-up");
    Ok(Prepared {
        plan,
        jobs,
        store: Some(store),
        setup_s,
    })
}

fn engine_for(args: &Args, prepared: &Prepared) -> EvalEngine {
    let engine = EvalEngine::new(args.workload.threads());
    if let Some(store) = &prepared.store {
        engine.attach_store(store.clone());
    }
    engine
}

/// One untraced repetition's measurements.
struct Rep {
    /// Measured wall seconds, calibrations excluded.
    wall: f64,
    /// Wall and CPU seconds at the reference host speed.
    wall_ref: f64,
    cpu_ref: f64,
    rss_mb: f64,
    threads_peak: u64,
    stats: EngineStats,
    rows: Vec<Row>,
}

/// The run's host clock, and the peak RSS seen before calibrations
/// inside the current repetition (the kernel's own allocations must
/// not count).
struct Timing {
    clock: Clock,
    rss_mb: f64,
}

fn untraced_rep(
    args: &Args,
    prepared: &Prepared,
    gpu: &GpuConfig,
    sample: bool,
    timing: &Mutex<Timing>,
) -> Rep {
    let engine = engine_for(args, prepared);
    // Calibrating between evaluations is sound only when they run one at
    // a time on this thread; a wider pool is calibrated per repetition.
    let inner = args.workload.threads() == 1;
    let checkpoint = || {
        let mut t = timing.lock().expect("timing lock");
        if inner && t.clock.due() {
            t.rss_mb = t.rss_mb.max(probes::peak_rss_mb());
            t.clock.split();
            probes::reset_peak_rss();
        }
    };
    probes::reset_peak_rss();
    timing.lock().expect("timing lock").rss_mb = 0.0;
    let cpu0 = probes::cpu_seconds();
    timing.lock().expect("timing lock").clock.resume();
    let eval = || suite::evaluate(&engine, gpu, &prepared.jobs, &checkpoint);
    let (rows, threads_peak) = if sample {
        probes::sample_threads(eval)
    } else {
        (eval(), 0)
    };
    let cpu1 = probes::cpu_seconds();
    let mut t = timing.lock().expect("timing lock");
    let rss_mb = t.rss_mb.max(probes::peak_rss_mb());
    let lap = t.clock.lap();
    let cpu = cpu1 - cpu0 - lap.calibration_cpu;
    Rep {
        wall: lap.measured,
        wall_ref: lap.reference,
        cpu_ref: lap.scale(cpu),
        rss_mb,
        threads_peak,
        stats: engine.stats(),
        rows,
    }
}

/// Repeat `f` until `seconds` have passed (at least once).
fn repeat<T>(seconds: f64, mut f: impl FnMut(u32) -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        out.push(f(out.len() as u32));
    }
    out
}

fn run(args: &Args) -> Result<(), String> {
    let gpu = GpuConfig::fermi();
    let mut checker = Checker {
        expected: suite::expected(),
        attempted: 0,
        failed: 0,
        first_errors: Vec::new(),
    };
    fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let prepared = prepare(args, &mut checker)?;
    println!(
        "# perfbench {} seed {}: {} apps x {} techniques, {} thread(s), available parallelism {}",
        args.workload.name(),
        args.seed,
        prepared.jobs.len(),
        args.workload.techniques().len(),
        args.workload.threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = if args.trace {
        run_traced(args, &prepared, &gpu, &mut checker)
    } else {
        run_untraced(args, &prepared, &gpu, &mut checker)
    };
    if let Some(store) = &prepared.store {
        let _ = fs::remove_dir_all(store.dir());
    }
    let (values, mut problems) = outcome?;
    if checker.failed > 0 {
        problems.push(format!(
            "{} of {} evaluations failed or mismatched the expected table, e.g. {:?}",
            checker.failed, checker.attempted, checker.first_errors
        ));
    }
    println!(
        "# outputs: {} of {} evaluations checked against the expected table, failed_frac {}",
        checker.attempted - checker.failed,
        checker.attempted,
        checker.failed as f64 / checker.attempted.max(1) as f64
    );
    for p in &problems {
        println!("# FAILED: {p}");
    }
    let metrics = declared_metrics(args.trace, values)?;
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_line(
            problems.is_empty(),
            checker.attempted,
            checker.failed,
            &metrics
        )
    );
    Ok(())
}

/// Order computed values by the declaration list. A declared metric
/// with no value (a layer the workload does not exercise) reads 0; a
/// computed value that is not declared is a bug.
fn declared_metrics(trace: bool, mut values: BTreeMap<String, f64>) -> Result<Vec<Metric>, String> {
    let decls: Vec<(String, &'static str)> = if trace {
        report::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics = decls
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.remove(&name).unwrap_or(0.0),
            name,
            unit,
        })
        .collect::<Vec<Metric>>();
    if let Some(extra) = values.keys().next() {
        return Err(format!("computed metric {extra} is not declared"));
    }
    match metrics.iter().find(|m| !report::valid_name(&m.name)) {
        Some(m) => Err(format!("metric name {} breaks the name grammar", m.name)),
        None => Ok(metrics),
    }
}

type Outcome = Result<(BTreeMap<String, f64>, Vec<String>), String>;

fn print_speedups(rows: &[Row]) {
    // Paper Fig. 13 / §7.5 geometric means over the sensitive apps.
    let paper = [
        (Technique::Crat, Technique::OptTlp, 1.25),
        (Technique::CratLocal, Technique::OptTlp, 1.17),
        (Technique::CratStatic, Technique::OptTlp, 1.22),
    ];
    for (num, den, want) in paper {
        if let Some(got) = suite::speedup_gmean(rows, num, den, true) {
            println!(
                "# speedup {num} over {den} (sensitive apps, simulated): {got:.4}, paper {want:.2}, error {:+.1}%",
                (got / want - 1.0) * 100.0
            );
        }
    }
    if let Some(got) = suite::speedup_gmean(rows, Technique::CratStatic, Technique::MaxTlp, false) {
        println!(
            "# speedup CRAT-static over MaxTLP (all apps, simulated): {got:.4}, unvalidated: the paper gives no such figure"
        );
    }
}

fn run_untraced(
    args: &Args,
    prepared: &Prepared,
    gpu: &GpuConfig,
    checker: &mut Checker,
) -> Outcome {
    let mut setup_s = prepared.setup_s.clone();
    let timing = Mutex::new(Timing {
        clock: Clock::new(),
        rss_mb: 0.0,
    });
    let reps = repeat(args.seconds, |i| {
        if prepared.store.is_none() {
            let builds = build_setups(args, &prepared.plan).1;
            let cal = timing.lock().expect("timing lock").clock.calibration();
            setup_s.extend(builds.iter().map(|&s| host::at_reference(s, cal)));
        }
        let mut rep = untraced_rep(args, prepared, gpu, false, &timing);
        checker.check(&rep.rows);
        // Only the first repetition's rows are used after the check;
        // keeping the rest would grow the heap under later peaks.
        if i > 0 {
            rep.rows = Vec::new();
        }
        rep
    });
    let rows = &reps[0].rows;
    print_speedups(rows);
    let (num, den, sensitive) = args.workload.headline();
    let speedup = suite::speedup_gmean(rows, num, den, sensitive)
        .ok_or("the headline speedup has no app with both techniques")?;
    let raw: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_ref).collect();
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.3}", x * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# measured wall of {} repetitions (ms): {}",
        reps.len(),
        ms(&raw)
    );
    println!("# wall_s at the reference speed (ms): {}", ms(&walls));
    let rss: Vec<String> = reps.iter().map(|r| format!("{:.2}", r.rss_mb)).collect();
    println!("# peak_rss_mb of the repetitions: {}", rss.join(" "));
    println!(
        "# setup_s of {} set-ups at the reference speed (ms): {}",
        setup_s.len(),
        ms(&setup_s)
    );
    let mut v = BTreeMap::new();
    v.insert("wall_s".into(), median(&walls));
    v.insert("setup_s".into(), median(&setup_s));
    // CPU time is read in 10 ms ticks, so it is averaged over the
    // repetitions rather than taken as a median of coarse values.
    v.insert(
        "cpu_s".into(),
        reps.iter().map(|r| r.cpu_ref).sum::<f64>() / reps.len() as f64,
    );
    v.insert(
        "peak_rss_mb".into(),
        median(&reps.iter().map(|r| r.rss_mb).collect::<Vec<_>>()),
    );
    v.insert("speedup_gmean".into(), speedup);
    let failed = checker.failed as f64 / checker.attempted.max(1) as f64;
    v.insert("match_frac".into(), 1.0 - failed);
    Ok((v, Vec::new()))
}

fn run_traced(args: &Args, prepared: &Prepared, gpu: &GpuConfig, checker: &mut Checker) -> Outcome {
    let mut problems = Vec::new();
    // Untraced repetitions first: engine counters, the OS thread peak,
    // and the untraced wall time the tracing overhead is measured from.
    let timing = Mutex::new(Timing {
        clock: Clock::new(),
        rss_mb: 0.0,
    });
    let reps = repeat(args.seconds / 2.0, |_| {
        let mut rep = untraced_rep(args, prepared, gpu, true, &timing);
        checker.check(&rep.rows);
        rep.rows = Vec::new();
        rep
    });
    let threads = args.workload.threads() as f64;
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut engine_values = BTreeMap::new();
    let s = &reps[0].stats;
    engine_values.insert("engine.sims_executed".to_string(), s.sims_executed as f64);
    engine_values.insert("engine.memo_hit_rate".to_string(), s.hit_rate());
    engine_values.insert(
        "engine.os_threads_peak".to_string(),
        reps.iter().map(|r| r.threads_peak).max().unwrap_or(0) as f64,
    );
    engine_values.insert(
        "engine.sim_busy_over_wall".to_string(),
        med(&|r| r.stats.sim_time().as_secs_f64() / (threads * r.wall)),
    );
    engine_values.insert("regalloc.allocs".to_string(), s.allocs_run as f64);
    engine_values.insert("regalloc.ctx_builds".to_string(), s.alloc_ctx_builds as f64);
    for kind in StrategyKind::ROSTER {
        engine_values.insert(
            format!("regalloc.{}.wins", kind.json_key()),
            s.strategies[kind.index()].wins as f64,
        );
    }
    let untraced_wall = med(&|r| r.wall);

    // Traced passes, each on a fresh engine, with the allocator sweeps
    // and the direct store I/O measured after the pass.
    let tracer = Tracer::default();
    let plan = &prepared.plan;
    let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
    let passes = repeat(args.seconds / 2.0, |pass| -> Result<(), String> {
        let jobs = traced::build_traced(&tracer, pass, plan);
        let engine = engine_for(args, prepared);
        let out = traced::run_pass(&tracer, pass, &engine, gpu, &jobs, prepared.store.is_some());
        checker.check(&out.rows);
        traced::run_sweeps(&tracer, pass, &engine, gpu, &jobs, &out.given)?;
        let io = match &prepared.store {
            Some(store) => {
                let copy = fresh_dir("copy");
                let io = traced::run_store_io(&tracer, pass, store.dir(), &copy);
                let _ = fs::remove_dir_all(&copy);
                Some(io?)
            }
            None => None,
        };
        let spans: Vec<_> = tracer
            .spans()
            .into_iter()
            .filter(|s| s.pass == pass)
            .collect();
        per_pass.push(ledger::layer_values(&spans, &out, io));
        Ok(())
    });
    for p in passes {
        p?;
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for key in per_pass[0].keys() {
        let v: Vec<f64> = per_pass.iter().map(|p| p[key]).collect();
        values.insert(key.clone(), median(&v));
    }
    values.extend(engine_values);
    let traced_wall = values["trace.wall_s"];
    values.insert("trace.overhead_s".into(), traced_wall - untraced_wall);

    // Accounting: at width 1, the layer spans' self times must cover the
    // traced wall time up to the benchmark's own glue.
    for (i, p) in per_pass.iter().enumerate() {
        let share = p["trace.unattributed_s"] / p["trace.wall_s"];
        if args.workload.threads() == 1 && share.abs() > ACCOUNTING_TOLERANCE {
            problems.push(format!(
                "accounting: pass {i} leaves {:.2}% of the traced wall unattributed (tolerance {:.0}%)",
                share * 100.0,
                ACCOUNTING_TOLERANCE * 100.0
            ));
        }
    }
    println!(
        "# {} untraced repetitions (median {untraced_wall:.4} s), {} traced passes (median {traced_wall:.4} s); accounting tolerance {:.0}% at width 1",
        reps.len(),
        per_pass.len(),
        ACCOUNTING_TOLERANCE * 100.0
    );
    // At width > 1 the layers' self times overlap in time, so shares are
    // of the pool's capacity (threads x traced wall) instead.
    println!("# self time by layer, pass 0 (share of {threads} x traced wall):");
    let first: Vec<_> = tracer.spans().into_iter().filter(|s| s.pass == 0).collect();
    for (name, secs) in ledger::self_time_by_layer(&first) {
        println!(
            "#   {name:<22} {secs:>9.4} s {:>6.1}%",
            secs / (threads * per_pass[0]["trace.wall_s"]) * 100.0
        );
    }
    let path = Path::new(WORK_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut file = fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    tracer
        .write_jsonl(&mut file)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok((values, problems))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> Checker {
        Checker {
            expected: suite::expected(),
            attempted: 0,
            failed: 0,
            first_errors: Vec::new(),
        }
    }

    #[test]
    fn a_fill_report_counts_its_mismatches() {
        let mut c = checker();
        c.count_report("filled 120 0\n").unwrap();
        c.count_report("mismatch CFD CRAT: got 1, expected 2\nfilled 120 1\n")
            .unwrap();
        assert_eq!((c.attempted, c.failed), (240, 1));
        assert_eq!(c.first_errors, ["CFD CRAT: got 1, expected 2"]);
    }

    #[test]
    fn a_fill_report_without_valid_counts_is_an_error() {
        let mut c = checker();
        assert!(c.count_report("").is_err());
        assert!(c.count_report("filled 120 1\n").is_err());
        assert!(c.count_report("filled x 0\n").is_err());
    }
}
