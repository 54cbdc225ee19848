//! The four workloads, their seeded submission order, the untraced
//! evaluation, and the expected-output table every run is checked
//! against.

use std::collections::BTreeMap;

use crat_core::{evaluate_with, EvalEngine, Evaluation, Technique};
use crat_ptx::Kernel;
use crat_sim::{GpuConfig, LaunchConfig};
use crat_workloads::{build_kernel, launch_sized, suite, AppSpec};

/// The expected (reg, tlp, cycles, warp_insts) of every app under every
/// technique, captured from the library with `--write-expected`.
const EXPECTED: &str = include_str!("../expected/outcomes.tsv");

/// Every technique, in the paper's order.
pub const ALL_TECHNIQUES: [Technique; 5] = [
    Technique::MaxTlp,
    Technique::OptTlp,
    Technique::CratLocal,
    Technique::Crat,
    Technique::CratStatic,
];

/// A named workload. See `BENCHMARK.json` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig13T1,
    Fig13T2,
    StaticAllT1,
    WarmStoreAll,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig13T1,
        Workload::Fig13T2,
        Workload::StaticAllT1,
        Workload::WarmStoreAll,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig13T1 => "fig13_t1",
            Workload::Fig13T2 => "fig13_t2",
            Workload::StaticAllT1 => "static_all_t1",
            Workload::WarmStoreAll => "warm_store_all",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker-pool width of the timed evaluation.
    pub fn threads(self) -> usize {
        match self {
            Workload::Fig13T2 => 2,
            _ => 1,
        }
    }

    /// Whether set-up populates a result store that every repetition
    /// replays from.
    pub fn uses_store(self) -> bool {
        self == Workload::WarmStoreAll
    }

    pub fn apps(self) -> Vec<&'static AppSpec> {
        match self {
            Workload::Fig13T1 | Workload::Fig13T2 => suite::sensitive().collect(),
            Workload::StaticAllT1 | Workload::WarmStoreAll => all_apps(),
        }
    }

    pub fn techniques(self) -> &'static [Technique] {
        match self {
            Workload::Fig13T1 | Workload::Fig13T2 => &ALL_TECHNIQUES[..4],
            Workload::StaticAllT1 => &[Technique::MaxTlp, Technique::CratStatic],
            Workload::WarmStoreAll => &ALL_TECHNIQUES,
        }
    }

    /// The headline simulated speedup `(numerator, denominator, apps)`:
    /// CRAT over OptTLP on the sensitive apps (paper Fig. 13) wherever
    /// both ran, else CRAT-static over MaxTLP on every app.
    pub fn headline(self) -> (Technique, Technique, bool) {
        match self {
            Workload::StaticAllT1 => (Technique::CratStatic, Technique::MaxTlp, false),
            _ => (Technique::Crat, Technique::OptTlp, true),
        }
    }
}

/// The paper's 22 applications plus the two bank-study companions.
pub fn all_apps() -> Vec<&'static AppSpec> {
    suite::all().chain(suite::bank_sensitive()).collect()
}

/// One application's inputs and the techniques to run on it, in the
/// order they are submitted.
#[derive(Debug, Clone)]
pub struct Job {
    pub app: &'static AppSpec,
    pub kernel: Kernel,
    pub launch: LaunchConfig,
    pub techniques: Vec<Technique>,
}

/// A small deterministic generator (splitmix64) for the seeded order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// Apps in submission order, each with its techniques in order.
pub type Plan = Vec<(&'static AppSpec, Vec<Technique>)>;

/// The workload's submission order under `seed`: apps permuted, and the
/// techniques permuted within each app.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut rng = SplitMix(seed);
    let mut apps = workload.apps();
    rng.shuffle(&mut apps);
    apps.into_iter()
        .map(|app| {
            let mut techs = workload.techniques().to_vec();
            rng.shuffle(&mut techs);
            (app, techs)
        })
        .collect()
}

/// Build every kernel and launch of a plan (part of set-up).
pub fn build_jobs(plan: &[(&'static AppSpec, Vec<Technique>)]) -> Vec<Job> {
    plan.iter()
        .map(|(app, techs)| Job {
            app,
            kernel: build_kernel(app),
            launch: launch_sized(app, app.grid_blocks),
            techniques: techs.clone(),
        })
        .collect()
}

/// The outputs of one (app, technique) evaluation that the expected
/// table pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub reg: u32,
    pub tlp: u32,
    pub cycles: u64,
    pub warp_insts: u64,
}

impl Outcome {
    pub fn of(e: &Evaluation) -> Outcome {
        Outcome {
            reg: e.reg,
            tlp: e.tlp,
            cycles: e.stats.cycles,
            warp_insts: e.stats.warp_insts,
        }
    }
}

/// One evaluated (app, technique) pair.
#[derive(Debug, Clone)]
pub struct Row {
    pub app: &'static str,
    pub technique: Technique,
    pub outcome: Result<Outcome, String>,
}

/// The untraced evaluation: apps fan out across the engine's pool, as
/// the experiment binaries run them, and every simulation goes through
/// the engine's memo cache (and store, when attached). `between` is
/// called before every (app, technique) evaluation.
pub fn evaluate(
    engine: &EvalEngine,
    gpu: &GpuConfig,
    jobs: &[Job],
    between: &(dyn Fn() + Sync),
) -> Vec<Row> {
    engine
        .par_map(jobs, |job| {
            job.techniques
                .iter()
                .map(|&t| {
                    between();
                    Row {
                        app: job.app.abbr,
                        technique: t,
                        outcome: evaluate_with(engine, &job.kernel, gpu, &job.launch, t)
                            .map(|e| Outcome::of(&e))
                            .map_err(|e| e.to_string()),
                    }
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
}

/// The expected table, keyed by (app, technique label).
pub type Expected = BTreeMap<(String, String), Outcome>;

/// Parse the tab-separated expected table (`#` lines are comments).
pub fn parse_expected(text: &str) -> Result<Expected, String> {
    let mut table = Expected::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("expected table line {}: bad field {i}", n + 1))
        };
        if f.len() != 6 {
            return Err(format!("expected table line {}: {} fields", n + 1, f.len()));
        }
        let outcome = Outcome {
            reg: num(2)? as u32,
            tlp: num(3)? as u32,
            cycles: num(4)?,
            warp_insts: num(5)?,
        };
        table.insert((f[0].to_string(), f[1].to_string()), outcome);
    }
    Ok(table)
}

/// The table compiled into the benchmark.
pub fn expected() -> Expected {
    parse_expected(EXPECTED).expect("the compiled-in expected table parses")
}

/// Render rows as an expected table (sorted, so any seed writes the
/// same file).
pub fn render_expected(rows: &[Row]) -> Result<String, String> {
    let mut out = String::from("# app\ttechnique\treg\ttlp\tcycles\twarp_insts\n");
    let mut lines = Vec::new();
    for r in rows {
        let o = r
            .outcome
            .as_ref()
            .map_err(|e| format!("{} {}: {e}", r.app, r.technique))?;
        lines.push(format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            r.app,
            r.technique.label(),
            o.reg,
            o.tlp,
            o.cycles,
            o.warp_insts
        ));
    }
    lines.sort();
    out.extend(lines);
    Ok(out)
}

/// Every row that errored or disagrees with the expected table, as a
/// one-line description.
pub fn mismatches(rows: &[Row], expected: &Expected) -> Vec<String> {
    rows.iter()
        .filter_map(|r| {
            let key = (r.app.to_string(), r.technique.label().to_string());
            match (&r.outcome, expected.get(&key)) {
                (Err(e), _) => Some(format!("{} {}: error: {e}", r.app, r.technique)),
                (Ok(_), None) => Some(format!(
                    "{} {}: not in the expected table",
                    r.app, r.technique
                )),
                (Ok(got), Some(want)) if got != want => Some(format!(
                    "{} {}: got {got:?}, expected {want:?}",
                    r.app, r.technique
                )),
                _ => None,
            }
        })
        .collect()
}

/// Geometric mean over apps of `cycles(den) / cycles(num)`, restricted
/// to the paper's 11 sensitive apps (Fig. 13) when `sensitive_only`. `None` when no app has
/// both techniques.
pub fn speedup_gmean(
    rows: &[Row],
    num: Technique,
    den: Technique,
    sensitive_only: bool,
) -> Option<f64> {
    let cycles = |app: &str, t: Technique| {
        rows.iter()
            .find(|r| r.app == app && r.technique == t)
            .and_then(|r| r.outcome.as_ref().ok())
            .map(|o| o.cycles as f64)
    };
    let apps: Vec<&'static str> = if sensitive_only {
        suite::sensitive().map(|a| a.abbr).collect()
    } else {
        all_apps().into_iter().map(|a| a.abbr).collect()
    };
    let logs: Vec<f64> = apps
        .iter()
        .filter_map(|a| Some((cycles(a, den)? / cycles(a, num)?).ln()))
        .collect();
    (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(app: &'static str, t: Technique, cycles: u64) -> Row {
        Row {
            app,
            technique: t,
            outcome: Ok(Outcome {
                reg: 20,
                tlp: 4,
                cycles,
                warp_insts: 1000,
            }),
        }
    }

    #[test]
    fn the_compiled_table_covers_every_app_and_technique() {
        let table = expected();
        assert_eq!(table.len(), all_apps().len() * ALL_TECHNIQUES.len());
        for app in all_apps() {
            for t in ALL_TECHNIQUES {
                assert!(table.contains_key(&(app.abbr.to_string(), t.label().to_string())));
            }
        }
    }

    #[test]
    fn a_single_altered_cycle_count_is_flagged() {
        let rows = vec![
            row("CFD", Technique::Crat, 5000),
            row("CFD", Technique::OptTlp, 6000),
        ];
        let mut rendered = render_expected(&rows).unwrap();
        let table = parse_expected(&rendered).unwrap();
        assert!(mismatches(&rows, &table).is_empty());

        rendered = rendered.replace("\t5000\t", "\t5001\t");
        let altered = parse_expected(&rendered).unwrap();
        let found = mismatches(&rows, &altered);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("CFD CRAT:"), "{found:?}");
    }

    #[test]
    fn errors_and_unknown_rows_count_as_mismatches() {
        let table =
            parse_expected(&render_expected(&[row("CFD", Technique::Crat, 1)]).unwrap()).unwrap();
        let mut bad = row("CFD", Technique::Crat, 1);
        bad.outcome = Err("boom".into());
        assert_eq!(
            mismatches(&[bad, row("CFD", Technique::MaxTlp, 1)], &table).len(),
            2
        );
    }

    #[test]
    fn seeds_permute_order_but_not_content() {
        let a = plan(Workload::Fig13T1, 1);
        let b = plan(Workload::Fig13T1, 2);
        assert_ne!(
            a.iter()
                .map(|(x, t)| (x.abbr, t.clone()))
                .collect::<Vec<_>>(),
            b.iter()
                .map(|(x, t)| (x.abbr, t.clone()))
                .collect::<Vec<_>>()
        );
        let sorted = |p: &[(&'static AppSpec, Vec<Technique>)]| {
            let mut v: Vec<String> = p
                .iter()
                .flat_map(|(x, ts)| ts.iter().map(move |t| format!("{}/{t}", x.abbr)))
                .collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&a), sorted(&b));
        assert_eq!(a.len(), 11);
        assert_eq!(plan(Workload::WarmStoreAll, 9).len(), 24);
    }

    #[test]
    fn speedup_is_the_geomean_cycle_ratio() {
        let rows = vec![
            row("CFD", Technique::Crat, 100),
            row("CFD", Technique::OptTlp, 200),
            row("FDTD", Technique::Crat, 100),
            row("FDTD", Technique::OptTlp, 50),
        ];
        let s = speedup_gmean(&rows, Technique::Crat, Technique::OptTlp, false).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
