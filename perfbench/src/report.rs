//! Metric declarations, the name grammar, and the result line.

use crat_regalloc::StrategyKind;
use crat_sim::StallCause;

use crate::suite::all_apps;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An application's abbreviation as a metric-name component: characters
/// outside the name grammar (the `+` of `B+T`) become `_`.
pub fn app_key(abbr: &str) -> String {
    abbr.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("speedup_gmean", "x"),
    ("match_frac", "ratio"),
];

/// The per-layer metrics, printed with `--trace 1`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("engine.sims_executed", "count"),
        ("engine.memo_hit_rate", "ratio"),
        ("engine.os_threads_peak", "count"),
        ("engine.sim_busy_over_wall", "ratio"),
        ("profile_tlp.busy_s", "s"),
        ("profile_tlp.sims", "count"),
        ("profile_tlp.share", "ratio"),
        ("pipeline.self_s", "s"),
        ("pipeline.points", "count"),
        ("pipeline.skipped", "count"),
        ("regalloc.allocs", "count"),
        ("regalloc.ctx_builds", "count"),
        ("regalloc.ctx_build_s", "s"),
        ("regalloc.alloc_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in StrategyKind::ROSTER {
        m.push((format!("regalloc.{}.sweep_s", kind.json_key()), "s"));
        m.push((format!("regalloc.{}.wins", kind.json_key()), "count"));
    }
    for (n, u) in [
        ("resource.analyze_s", "s"),
        ("static_tlp.estimate_s", "s"),
        ("decode.calls", "count"),
        ("decode.busy_s", "s"),
        ("sim.calls", "count"),
        ("sim.busy_s", "s"),
        ("sim.minst_per_s", "Minst/s"),
        ("sim.minst_per_s.p10", "Minst/s"),
        ("sim.minst_per_s.p50", "Minst/s"),
    ] {
        m.push((n.to_string(), u));
    }
    for app in all_apps() {
        m.push((
            format!("sim.app.{}.minst_per_s", app_key(app.abbr)),
            "Minst/s",
        ));
    }
    for (n, u) in [
        ("sim.warp_insts", "count"),
        ("sim.cycles", "cycles"),
        ("sim.vector_frac", "ratio"),
        ("sim.burst_frac", "ratio"),
    ] {
        m.push((n.to_string(), u));
    }
    for cause in StallCause::ALL {
        m.push((format!("sim.stall.{}", cause.name()), "slots"));
    }
    for (n, u) in [
        ("store.lookup_s", "s"),
        ("store.read_s", "s"),
        ("store.hits", "count"),
        ("store.write_s", "s"),
        ("store.writes", "count"),
        ("store.bytes", "bytes"),
        ("workloads.build_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// Render a finite number for JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object printed as the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_name_grammar() {
        assert_eq!(app_key("B+T"), "B_T");
        for ok in ["wall_s", "sim.app.BNKT.minst_per_s", "a-b.c_d", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "sim/rate",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        let all: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        assert!(all.iter().all(|n| valid_name(n)));
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "names are unique"
        );
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "wall_s".into(),
                unit: "s",
                value: 1.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    /// Pull every `"name": "<value>"` of one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("closed string") + open;
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn printed_names_and_units_are_exactly_those_declared() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
