//! Per-layer values of one traced pass, derived from its spans and the
//! counters taken at the same boundaries.

use std::collections::{BTreeMap, HashMap};

use crat_regalloc::StrategyKind;
use crat_sim::StallCause;

use crate::spans::{has_ancestor, self_times, Span};
use crate::traced::{sweep_span, PassOutput, StoreIo};

/// The accounting tolerance at width 1: the benchmark's own glue
/// between layer calls (the pass root's self time) may be at most this
/// share of the traced wall time.
pub const ACCOUNTING_TOLERANCE: f64 = 0.02;

/// Linear-interpolated percentile `q` in `[0, 1]` of `v` (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The name of the root span above `span`.
fn root_name<'a>(by_id: &HashMap<u32, &'a Span>, span: &'a Span) -> &'a str {
    let mut s = span;
    while let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
        s = p;
    }
    s.name
}

/// Per-layer values of one pass. `spans` are that pass's spans only.
pub fn layer_values(
    spans: &[Span],
    out: &PassOutput,
    io: Option<StoreIo>,
) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let named = |n: &'static str| spans.iter().filter(move |s| s.name == n);
    let busy = |n: &'static str| named(n).map(Span::secs).sum::<f64>();
    let count = |n: &'static str| named(n).count() as f64;

    let wall = busy("pass");
    let attributed: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name != "pass" && root_name(&by_id, s) == "pass")
        .map(|(_, t)| t)
        .sum();

    let mut v = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("trace.wall_s", wall);
    put("trace.unattributed_s", wall - attributed);
    put("workloads.build_s", busy("workloads.build"));
    put("resource.analyze_s", busy("resource.analyze"));
    put("static_tlp.estimate_s", busy("static_tlp.estimate"));
    put("regalloc.ctx_build_s", busy("regalloc.ctx_build"));
    put("regalloc.alloc_s", busy("regalloc.alloc"));
    for kind in StrategyKind::ROSTER {
        put(
            &format!("regalloc.{}.sweep_s", kind.json_key()),
            busy(sweep_span(kind)),
        );
    }
    let profiling = busy("profile_tlp");
    put("profile_tlp.busy_s", profiling);
    put(
        "profile_tlp.sims",
        spans
            .iter()
            .filter(|s| matches!(s.name, "sim" | "store.lookup"))
            .filter(|s| has_ancestor(spans, s, "profile_tlp"))
            .count() as f64,
    );
    put(
        "profile_tlp.share",
        if wall > 0.0 { profiling / wall } else { 0.0 },
    );
    put(
        "pipeline.self_s",
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == "pipeline")
            .map(|(_, t)| t)
            .sum(),
    );
    put("pipeline.points", out.pipeline.points as f64);
    put("pipeline.skipped", out.pipeline.skipped as f64);
    put("decode.calls", count("decode"));
    put("decode.busy_s", busy("decode"));
    put("store.lookup_s", busy("store.lookup"));
    put("store.read_s", busy("store.load"));
    put("store.write_s", busy("store.save"));
    let io = io.unwrap_or_default();
    put("store.hits", io.hits as f64);
    put("store.writes", io.writes as f64);
    put("store.bytes", io.bytes as f64);

    // Simulator rate: warp instructions per host second of `sim` spans,
    // overall, per call (p10, p50), and per application.
    let sims: Vec<&Span> = named("sim").collect();
    let rate = |insts: u64, secs: f64| {
        if secs > 0.0 {
            insts as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    let sim_busy: f64 = sims.iter().map(|s| s.secs()).sum();
    put("sim.calls", sims.len() as f64);
    put("sim.busy_s", sim_busy);
    put(
        "sim.minst_per_s",
        rate(sims.iter().map(|s| s.insts).sum(), sim_busy),
    );
    let per_call: Vec<f64> = sims.iter().map(|s| rate(s.insts, s.secs())).collect();
    put("sim.minst_per_s.p10", percentile(&per_call, 0.1));
    put("sim.minst_per_s.p50", percentile(&per_call, 0.5));
    for app in crate::suite::all_apps() {
        let (insts, secs) = sims
            .iter()
            .filter(|s| s.app == app.abbr)
            .fold((0u64, 0.0f64), |(i, t), s| (i + s.insts, t + s.secs()));
        put(
            &format!("sim.app.{}.minst_per_s", crate::report::app_key(app.abbr)),
            rate(insts, secs),
        );
    }
    let t = &out.sims;
    put("sim.warp_insts", t.warp_insts as f64);
    put("sim.cycles", t.cycles as f64);
    let issued = t.vector.vector_insts + t.vector.scalar_insts;
    put(
        "sim.vector_frac",
        if issued > 0 {
            t.vector.vector_fraction()
        } else {
            0.0
        },
    );
    put(
        "sim.burst_frac",
        if t.warp_insts > 0 {
            t.vector.burst_insts as f64 / t.warp_insts as f64
        } else {
            0.0
        },
    );
    for c in StallCause::ALL {
        put(
            &format!("sim.stall.{}", c.name()),
            t.stall[c as usize] as f64,
        );
    }
    v
}

/// Self time per layer of the pass root's subtree, summed by span name
/// (the ledger printed beside the metrics), largest first.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let selfs = self_times(spans);
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        if root_name(&by_id, s) == "pass" {
            *sums.entry(s.name).or_default() += t;
        }
    }
    let mut v: Vec<_> = sums.into_iter().collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((percentile(&[0.0, 10.0], 0.1) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
