//! Canonical JSON rendering of a [`RunReport`].
//!
//! This is the single serializer behind both `coaxial run --json` and the
//! gateway's `/v1/run` response, so the two are byte-identical by
//! construction — the loopback integration test and the `check.sh` smoke
//! test both `cmp` the CLI's stdout against the served body.

use std::fmt::Write as _;

use coaxial_system::{RunReport, SampledReport};
use coaxial_telemetry::json::{emit_f64, escape};

/// Render one report as a single-line JSON object (no trailing newline;
/// callers terminate the line).
#[must_use]
pub fn report_to_json(r: &RunReport) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    let _ = write!(out, "\"config\":\"{}\"", escape(&r.config_name));
    let _ = write!(
        out,
        ",\"workloads\":[{}]",
        r.workload_names.iter().map(|w| format!("\"{}\"", escape(w))).collect::<Vec<_>>().join(",")
    );
    let _ = write!(out, ",\"ipc\":{}", emit_f64(r.ipc));
    let _ = write!(
        out,
        ",\"per_core_ipc\":[{}]",
        r.per_core_ipc.iter().map(|&v| emit_f64(v)).collect::<Vec<_>>().join(",")
    );
    let _ = write!(out, ",\"mpki\":{}", emit_f64(r.mpki));
    let (on_chip, queue, dram, cxl) = r.breakdown_ns;
    let _ = write!(out, ",\"l2_miss_latency_ns\":{}", emit_f64(r.l2_miss_latency_ns));
    let _ = write!(
        out,
        ",\"breakdown_ns\":{{\"on_chip\":{},\"queue\":{},\"dram\":{},\"cxl\":{}}}",
        emit_f64(on_chip),
        emit_f64(queue),
        emit_f64(dram),
        emit_f64(cxl)
    );
    let _ = write!(out, ",\"read_gbs\":{}", emit_f64(r.read_gbs));
    let _ = write!(out, ",\"write_gbs\":{}", emit_f64(r.write_gbs));
    let _ = write!(out, ",\"bandwidth_gbs\":{}", emit_f64(r.bandwidth_gbs));
    let _ = write!(out, ",\"utilization\":{}", emit_f64(r.utilization));
    let _ = write!(out, ",\"llc_miss_ratio\":{}", emit_f64(r.llc_miss_ratio));
    match r.cxl_link_utilization {
        Some((tx, rx)) => {
            let _ = write!(
                out,
                ",\"cxl_link_utilization\":{{\"tx\":{},\"rx\":{}}}",
                emit_f64(tx),
                emit_f64(rx)
            );
        }
        None => out.push_str(",\"cxl_link_utilization\":null"),
    }
    let _ = write!(
        out,
        ",\"calm\":{{\"decisions\":{},\"false_pos\":{},\"false_neg\":{},\
         \"fp_per_mem_access\":{},\"fn_per_llc_miss\":{}}}",
        r.calm.decisions(),
        r.calm.false_pos,
        r.calm.false_neg,
        emit_f64(r.calm.false_pos_per_mem_access()),
        emit_f64(r.calm.false_neg_per_llc_miss())
    );
    let _ = write!(out, ",\"cycles\":{}", r.cycles);
    let _ = write!(out, ",\"instructions\":{}", r.instructions);
    out.push('}');
    out
}

/// Render a sampled run: the [`report_to_json`] object plus one extra
/// `"sampling"` member carrying the interval-sampling metadata (mean, CI
/// half-width, interval counts, the detail/fast-forward instruction split,
/// and the raw per-interval samples).
#[must_use]
pub fn sampled_report_to_json(r: &SampledReport) -> String {
    let mut out = report_to_json(&r.report);
    out.pop(); // re-open the report object to append the sampling member
    let s = &r.sampling;
    let _ = write!(
        out,
        ",\"sampling\":{{\"intervals_planned\":{},\"intervals_run\":{},\"early_stopped\":{},\
         \"warm_per_interval\":{},\"measure_per_interval\":{},\"horizon_instructions\":{},\
         \"detail_instructions\":{},\"fast_forward_instructions\":{},\"ci_target\":{},\
         \"ipc_mean\":{},\"ipc_ci_half\":{},\"ipc_samples\":[{}]}}",
        s.intervals_planned,
        s.intervals_run,
        s.early_stopped,
        s.warm_per_interval,
        s.measure_per_interval,
        s.horizon_instructions,
        s.detail_instructions,
        s.fast_forward_instructions,
        emit_f64(s.ci_target),
        emit_f64(s.ipc_mean),
        emit_f64(s.ipc_ci_half),
        s.ipc_samples.iter().map(|&v| emit_f64(v)).collect::<Vec<_>>().join(",")
    );
    out.push('}');
    out
}

/// Render a batch of reports (sweep response) as a JSON array.
#[must_use]
pub fn reports_to_json(reports: &[RunReport]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&report_to_json(r));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_system::{SamplingConfig, Simulation, SystemConfig};

    #[test]
    fn report_json_is_valid_and_stable() {
        let w = coaxial_workloads::Workload::by_name("mcf").unwrap();
        let sim =
            Simulation::new(SystemConfig::coaxial_4x(), w).instructions_per_core(2_000).warmup(500);
        let r = sim.run();
        let a = report_to_json(&r);
        // Parseable by our own parser, and deterministic.
        let parsed = coaxial_telemetry::json::parse(&a).unwrap();
        let coaxial_telemetry::json::Json::Obj(o) = &parsed else { panic!("object") };
        assert_eq!(o["config"].as_str(), Some("COAXIAL-4x"));
        assert!(o.contains_key("ipc") && o.contains_key("cycles"), "{a}");
        let again = Simulation::new(SystemConfig::coaxial_4x(), w)
            .instructions_per_core(2_000)
            .warmup(500)
            .run();
        assert_eq!(a, report_to_json(&again), "same config+budget must serialize identically");
    }

    #[test]
    fn single_interval_ci_serializes_as_null_not_zero() {
        // One measurement interval: the Student-t CI has zero degrees of
        // freedom, so `ci_half_width()` is infinite and the JSON must carry
        // `null` — a literal 0 would claim perfect confidence.
        let w = coaxial_workloads::Workload::by_name("mcf").unwrap();
        let scfg = SamplingConfig { intervals: 1, measure: 1_000, warm: 500, ci_target: 0.0 };
        let sim = Simulation::new(SystemConfig::coaxial_4x(), w);
        let r = sim.run_sampled(&scfg);
        assert_eq!(r.sampling.intervals_run, 1);
        assert!(r.sampling.ipc_ci_half.is_infinite());
        let j = sampled_report_to_json(&r);
        assert!(j.contains("\"ipc_ci_half\":null"), "degenerate CI must be null: {j}");
        coaxial_telemetry::json::parse(&j).expect("sampled report stays valid JSON");
    }
}
