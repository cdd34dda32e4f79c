//! Server configurations (paper Tables II and III).
//!
//! The paper simulates a 12-core slice of its 144-core server: the
//! baseline gets one DDR5-4800 channel (12:1 core:MC ratio); COAXIAL
//! variants replace it with 2–4 CXL-attached channels (8 DDR channels for
//! COAXIAL-asym, two per CXL-asym link). All COAXIAL variants default to
//! CALM_70%.
//!
//! # The functional / timing split
//!
//! [`SystemConfig`] is deliberately two nested halves:
//!
//! * [`FunctionalConfig`] — everything that determines *which* memory
//!   accesses happen and *what state* the machine holds after the
//!   functional prefill: core counts, the workload seed, and cache
//!   geometry. Two configs with equal functional halves produce
//!   byte-identical post-prefill machine state, no matter how their
//!   timing halves differ.
//! * [`TimingConfig`] — everything that only determines *when* things
//!   happen in the timed phase: the memory system (CXL link parameters,
//!   channel counts), CALM policy and epoch, the prefetcher, and DRAM
//!   timings.
//!
//! This split is what makes the content-addressed prefill checkpoint
//! store in `coaxial-system` sound: checkpoints are keyed by a canonical
//! hash of the functional slice only, so a latency sweep over 36 timing
//! variants reuses one warmed snapshot. The warm function
//! (`server::warm`) takes this half and the trace sources and nothing
//! else, so it has no way to read the timing half.

use coaxial_cache::{CacheGeometry, CalmPolicy, PrefetchPolicy};
use coaxial_cxl::CxlLinkConfig;
use coaxial_dram::DramConfig;

/// A structurally invalid configuration request.
///
/// [`SystemConfig::configure`] (through [`SystemConfig::by_name`] and
/// [`SystemConfig::try_with_active_cores`]) returns this instead of
/// panicking so service front-ends (the gateway's HTTP 400 mapping) and
/// the CLI can report the same message without killing a worker thread.
/// The panicking `with_*` builders keep their assert semantics for
/// experiment code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No canned configuration under that name (see [`SystemConfig::by_name`]).
    UnknownConfig(String),
    /// `active_cores` outside `1..=cores`.
    InvalidActiveCores { n: usize, cores: usize },
    /// No run-loop engine under that name (see `EngineKind::parse`).
    UnknownEngine(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownConfig(name) => {
                write!(f, "unknown config `{name}`: expected ddr|baseline|2x|4x|5x|asym")
            }
            Self::InvalidActiveCores { n, cores } => {
                write!(f, "invalid active core count {n}: must be in 1..={cores}")
            }
            Self::UnknownEngine(name) => {
                write!(f, "unknown engine `{name}`: expected event|lockstep")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// What kind of memory system backs the processor.
#[derive(Debug, Clone)]
pub enum MemorySystemKind {
    /// Directly attached DDR channels (the baseline).
    DirectDdr { channels: usize },
    /// CXL-attached Type-3 devices.
    Cxl { link: CxlLinkConfig, channels: usize },
}

/// The functional half of a configuration: determines the post-prefill
/// machine state (and nothing about cycle timing). See the module docs.
#[derive(Debug, Clone)]
pub struct FunctionalConfig {
    /// Cores on the simulated slice (Table III: 12).
    pub cores: usize,
    /// Cores actually running a workload (Fig. 11 sensitivity).
    pub active_cores: usize,
    /// LLC capacity per core in MB (Table II: 2 MB baseline, 1 MB for
    /// COAXIAL-4x/asym). Geometry, not timing: it fixes which lines
    /// survive the prefill.
    pub llc_mb_per_core: f64,
    /// RNG seed for workload generation and CALM_R decisions.
    pub seed: u64,
}

impl FunctionalConfig {
    /// The cache arrays this half fixes: Table III sizes for its cores and
    /// LLC capacity. The timed hierarchy's arrays come from the same
    /// [`CacheGeometry::table_iii`].
    pub(crate) fn geometry(&self) -> CacheGeometry {
        CacheGeometry::table_iii(self.cores, self.llc_mb_per_core)
    }
}

/// The timing half of a configuration: determines *when* accesses
/// complete, never *which* accesses happen. See the module docs.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    pub memory: MemorySystemKind,
    pub calm: CalmPolicy,
    /// CALM_R monitoring epoch in cycles (ablation knob).
    pub calm_epoch: u64,
    /// Optional L2 prefetcher (extension; the paper runs without one).
    pub prefetch: PrefetchPolicy,
    /// L2 MSHRs per core: the per-core memory-level-parallelism ceiling
    /// (ablation knob; the prefill never touches MSHRs).
    pub l2_mshrs: usize,
    pub dram: DramConfig,
}

/// A complete simulated server configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Human-readable configuration name (used in reports).
    pub name: String,
    /// The half that shapes machine state (prefill checkpoint key).
    pub functional: FunctionalConfig,
    /// The half that shapes cycle timing only.
    pub timing: TimingConfig,
}

impl SystemConfig {
    fn base(name: &str, memory: MemorySystemKind, llc_mb: f64, calm: CalmPolicy) -> Self {
        Self {
            name: name.to_string(),
            functional: FunctionalConfig {
                cores: 12,
                active_cores: 12,
                llc_mb_per_core: llc_mb,
                seed: 0xC0A51A1,
            },
            timing: TimingConfig {
                memory,
                calm,
                calm_epoch: coaxial_cache::calm::CALM_EPOCH,
                prefetch: PrefetchPolicy::None,
                l2_mshrs: coaxial_cache::hierarchy::L2_MSHRS,
                dram: DramConfig::ddr5_4800(),
            },
        }
    }

    /// DDR-based baseline: 12 cores, 1 DDR5-4800 channel, 2 MB LLC/core,
    /// serial LLC/memory access.
    pub fn ddr_baseline() -> Self {
        Self::base(
            "DDR-baseline",
            MemorySystemKind::DirectDdr { channels: 1 },
            2.0,
            CalmPolicy::Serial,
        )
    }

    /// COAXIAL-2x: 2 CXL channels, LLC unchanged (iso-LLC point).
    pub fn coaxial_2x() -> Self {
        Self::base(
            "COAXIAL-2x",
            MemorySystemKind::Cxl { link: CxlLinkConfig::x8_symmetric(), channels: 2 },
            2.0,
            CalmPolicy::CalmR { r: 0.7 },
        )
    }

    /// COAXIAL-4x (the paper's default "COAXIAL"): 4 CXL channels, LLC
    /// halved to 1 MB/core (iso-area point), CALM_70%.
    pub fn coaxial_4x() -> Self {
        Self::base(
            "COAXIAL-4x",
            MemorySystemKind::Cxl { link: CxlLinkConfig::x8_symmetric(), channels: 4 },
            1.0,
            CalmPolicy::CalmR { r: 0.7 },
        )
    }

    /// COAXIAL-5x: iso-pin point (5 CXL channels per DDR channel) — 17%
    /// larger die (Table II); evaluated for completeness.
    pub fn coaxial_5x() -> Self {
        Self::base(
            "COAXIAL-5x",
            MemorySystemKind::Cxl { link: CxlLinkConfig::x8_symmetric(), channels: 5 },
            1.0,
            CalmPolicy::CalmR { r: 0.7 },
        )
    }

    /// COAXIAL-asym: 4 asymmetric-lane CXL channels, each fronting two DDR
    /// channels (8 total), LLC 1 MB/core.
    pub fn coaxial_asym() -> Self {
        Self::base(
            "COAXIAL-asym",
            MemorySystemKind::Cxl { link: CxlLinkConfig::x8_asymmetric(), channels: 4 },
            1.0,
            CalmPolicy::CalmR { r: 0.7 },
        )
    }

    /// A canned configuration by its short name: `ddr`/`baseline`, `2x`,
    /// `4x`, `5x` or `asym` (else [`ConfigError::UnknownConfig`]).
    pub fn by_name(name: &str) -> Result<Self, ConfigError> {
        match name {
            "ddr" | "baseline" => Ok(Self::ddr_baseline()),
            "2x" => Ok(Self::coaxial_2x()),
            "4x" => Ok(Self::coaxial_4x()),
            "5x" => Ok(Self::coaxial_5x()),
            "asym" => Ok(Self::coaxial_asym()),
            other => Err(ConfigError::UnknownConfig(other.to_string())),
        }
    }

    /// The canned config `name` with each override given: active cores,
    /// CXL latency premium in ns, seed. The one front door for the CLI's
    /// and the gateway's configs, so both report the same [`ConfigError`].
    pub fn configure(
        name: &str,
        active_cores: Option<usize>,
        cxl_ns: Option<f64>,
        seed: Option<u64>,
    ) -> Result<Self, ConfigError> {
        let mut cfg = Self::by_name(name)?;
        if let Some(n) = active_cores {
            cfg = cfg.try_with_active_cores(n)?;
        }
        if let Some(ns) = cxl_ns {
            cfg = cfg.with_cxl_latency_ns(ns);
        }
        if let Some(seed) = seed {
            cfg = cfg.with_seed(seed);
        }
        Ok(cfg)
    }

    /// Override the CALM mechanism (Fig. 7).
    pub fn with_calm(mut self, calm: CalmPolicy) -> Self {
        self.timing.calm = calm;
        let suffix = calm.label();
        self.name = format!("{}+{}", self.name, suffix);
        self
    }

    /// Override the CXL unloaded latency budget in ns (Fig. 10; §VII's
    /// 10 ns OMI-like projection). No effect on DDR configurations.
    pub fn with_cxl_latency_ns(mut self, total_ns: f64) -> Self {
        if let MemorySystemKind::Cxl { link, .. } = &mut self.timing.memory {
            *link = link.clone().with_total_port_latency_ns(total_ns);
            self.name = format!("{} ({total_ns:.0}ns CXL)", self.name);
        }
        self
    }

    /// Resize the simulated slice to `n` cores, all active (scaling
    /// studies beyond the paper's fixed 12-core slice; the mesh and LLC
    /// banking rebuild around the new count). Use [`Self::with_active_cores`]
    /// to idle cores without shrinking the slice.
    pub fn with_cores(mut self, n: usize) -> Self {
        assert!(n >= 1, "invalid core count {n}: a server needs at least one core");
        self.functional.cores = n;
        self.functional.active_cores = n;
        self
    }

    /// Run the workload on only the first `n` cores (Fig. 11).
    pub fn with_active_cores(self, n: usize) -> Self {
        match self.try_with_active_cores(n) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`Self::with_active_cores`] for service front-ends.
    pub fn try_with_active_cores(mut self, n: usize) -> Result<Self, ConfigError> {
        if n < 1 || n > self.functional.cores {
            return Err(ConfigError::InvalidActiveCores { n, cores: self.functional.cores });
        }
        self.functional.active_cores = n;
        Ok(self)
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.functional.seed = seed;
        self
    }

    /// Enable an L2 prefetcher (extension experiments).
    pub fn with_prefetch(mut self, prefetch: PrefetchPolicy) -> Self {
        self.timing.prefetch = prefetch;
        if prefetch != PrefetchPolicy::None {
            self.name = format!("{}+pf({})", self.name, prefetch.label());
        }
        self
    }

    /// Override the CALM_R monitoring epoch (ablation experiments).
    pub fn with_calm_epoch(mut self, cycles: u64) -> Self {
        assert!(cycles >= 1, "calm epoch must be at least one cycle");
        self.timing.calm_epoch = cycles;
        self
    }

    /// Override the L2 MSHR count per core (ablation experiments).
    pub fn with_l2_mshrs(mut self, n: usize) -> Self {
        assert!(n >= 1, "an L2 needs at least one MSHR");
        self.timing.l2_mshrs = n;
        self
    }

    /// Override the DRAM configuration (ablation experiments: page policy,
    /// scheduler window, queue depths).
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.timing.dram = dram;
        self
    }

    /// Number of DDR channels behind the memory system.
    pub fn ddr_channels(&self) -> usize {
        match &self.timing.memory {
            MemorySystemKind::DirectDdr { channels } => *channels,
            MemorySystemKind::Cxl { link, channels } => channels * link.ddr_channels_per_device,
        }
    }

    /// Aggregate peak DDR bandwidth, GB/s.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.timing.dram.peak_bandwidth_gbs() * self.ddr_channels() as f64
    }

    /// Relative memory bandwidth vs. the 1-channel baseline.
    pub fn relative_bandwidth(&self) -> f64 {
        self.ddr_channels() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_channel_counts() {
        assert_eq!(SystemConfig::ddr_baseline().ddr_channels(), 1);
        assert_eq!(SystemConfig::coaxial_2x().ddr_channels(), 2);
        assert_eq!(SystemConfig::coaxial_4x().ddr_channels(), 4);
        assert_eq!(SystemConfig::coaxial_5x().ddr_channels(), 5);
        assert_eq!(SystemConfig::coaxial_asym().ddr_channels(), 8);
    }

    #[test]
    fn table_ii_llc_capacities() {
        assert_eq!(SystemConfig::ddr_baseline().functional.llc_mb_per_core, 2.0);
        assert_eq!(SystemConfig::coaxial_2x().functional.llc_mb_per_core, 2.0);
        assert_eq!(SystemConfig::coaxial_4x().functional.llc_mb_per_core, 1.0);
        assert_eq!(SystemConfig::coaxial_asym().functional.llc_mb_per_core, 1.0);
    }

    #[test]
    fn coaxial_defaults_to_calm_70() {
        match SystemConfig::coaxial_4x().timing.calm {
            CalmPolicy::CalmR { r } => assert!((r - 0.7).abs() < 1e-9),
            other => panic!("default CALM must be CALM_70%, got {other:?}"),
        }
        assert_eq!(SystemConfig::ddr_baseline().timing.calm, CalmPolicy::Serial);
    }

    #[test]
    fn relative_bandwidth_matches_names() {
        assert_eq!(SystemConfig::coaxial_4x().relative_bandwidth(), 4.0);
        let base = SystemConfig::ddr_baseline().peak_bandwidth_gbs();
        assert!((base - 38.4).abs() < 0.1);
        assert!((SystemConfig::coaxial_4x().peak_bandwidth_gbs() - 4.0 * base).abs() < 0.5);
    }

    #[test]
    fn latency_override_only_touches_cxl() {
        let ddr = SystemConfig::ddr_baseline().with_cxl_latency_ns(70.0);
        assert_eq!(ddr.name, "DDR-baseline");
        let coax = SystemConfig::coaxial_4x().with_cxl_latency_ns(70.0);
        assert!(coax.name.contains("70ns"));
    }

    #[test]
    fn timing_overrides_leave_the_functional_half_untouched() {
        // The checkpoint key depends only on the functional half; a full
        // timing sweep must therefore share one serialized functional slice.
        let base = SystemConfig::coaxial_4x();
        let swept = SystemConfig::coaxial_4x()
            .with_cxl_latency_ns(70.0)
            .with_calm(CalmPolicy::MapI)
            .with_calm_epoch(5_000)
            .with_prefetch(PrefetchPolicy::NextLine { degree: 2 })
            .with_l2_mshrs(4)
            .with_dram(DramConfig::ddr5_4800());
        let a = format!("{:?}", base.functional);
        let b = format!("{:?}", swept.functional);
        assert_eq!(a, b, "timing builders must not leak into FunctionalConfig");
    }

    #[test]
    #[should_panic]
    fn active_cores_bounded() {
        let _ = SystemConfig::ddr_baseline().with_active_cores(13);
    }

    #[test]
    fn try_builders_return_structured_errors() {
        assert_eq!(
            SystemConfig::ddr_baseline().try_with_active_cores(13).unwrap_err(),
            ConfigError::InvalidActiveCores { n: 13, cores: 12 }
        );
    }

    #[test]
    fn by_name_resolves_every_canned_config_and_rejects_unknowns() {
        for (name, channels) in
            [("ddr", 1), ("baseline", 1), ("2x", 2), ("4x", 4), ("5x", 5), ("asym", 8)]
        {
            assert_eq!(SystemConfig::by_name(name).unwrap().ddr_channels(), channels, "{name}");
        }
        let err = SystemConfig::by_name("8x").unwrap_err();
        assert_eq!(err, ConfigError::UnknownConfig("8x".to_string()));
        assert!(err.to_string().contains("8x"), "{err}");
    }
}
