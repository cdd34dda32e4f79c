//! One simulation input, described once so the same input can run
//! in-process as a [`RunSpec`] and be served as a `/v1/run` body.

use coaxial_system::{RunSpec, SystemConfig};
use coaxial_workloads::Workload;

#[derive(Debug, Clone)]
pub struct Job {
    pub workload: &'static Workload,
    /// Short config name as the CLI and the gateway spell it.
    pub config: &'static str,
    /// CXL unloaded latency override, ns.
    pub cxl_ns: Option<f64>,
    pub seed: u64,
    pub instructions: u64,
    pub warmup: u64,
}

impl Job {
    /// A job on a registry workload. Names are compile-time constants of
    /// this benchmark, so an unknown one is a bug here.
    pub fn new(workload: &str, config: &'static str, seed: u64, instructions: u64) -> Self {
        let workload = Workload::by_name(workload).expect("benchmark names a registry workload");
        Self { workload, config, cxl_ns: None, seed, instructions, warmup: 0 }
    }

    pub fn warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    pub fn cxl_ns(mut self, ns: f64) -> Self {
        self.cxl_ns = Some(ns);
        self
    }

    /// The same config the gateway builds for [`Job::body`]: name lookup,
    /// then the CXL latency and seed overrides.
    pub fn spec(&self) -> RunSpec {
        let mut cfg = SystemConfig::by_name(self.config).expect("benchmark names a canned config");
        if let Some(ns) = self.cxl_ns {
            cfg = cfg.with_cxl_latency_ns(ns);
        }
        RunSpec::homogeneous(
            cfg.with_seed(self.seed),
            self.workload,
            self.instructions,
            self.warmup,
        )
    }

    /// The `/v1/run` request body for this job.
    pub fn body(&self) -> String {
        let cxl = self.cxl_ns.map(|ns| format!(",\"cxl_ns\":{ns}")).unwrap_or_default();
        format!(
            "{{\"workload\":\"{}\",\"config\":\"{}\",\"instructions\":{},\"warmup\":{},\"seed\":{}{cxl}}}",
            self.workload.name, self.config, self.instructions, self.warmup, self.seed
        )
    }

    /// Simulated instructions of one full-detail run: warm-up plus
    /// measured, on every active core.
    pub fn sim_instructions(&self) -> u64 {
        let cores = SystemConfig::by_name(self.config).map_or(0, |c| c.functional.active_cores);
        (self.instructions + self.warmup) * cores as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_parses_to_the_same_spec() {
        let job = Job::new("mcf", "4x", 99, 2_000).warmup(500).cxl_ns(45.25);
        let req = coaxial_gateway::request::parse_run(job.body().as_bytes()).expect("valid body");
        let spec = job.spec();
        assert_eq!(req.spec.config.name, spec.config.name);
        assert_eq!(req.spec.config.functional.seed, 99);
        assert_eq!(req.spec.instructions, 2_000);
        assert_eq!(req.spec.warmup, 500);
        assert_eq!(format!("{:?}", req.spec.config), format!("{:?}", spec.config));
    }
}
