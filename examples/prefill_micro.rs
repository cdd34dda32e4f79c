//! Microbenchmark for the production cache warm (dev aid, not a paper
//! figure): times `server::warm` cold, twice each, for mcf on the DDR
//! baseline's and COAXIAL-4x's functional halves, generating the access
//! streams as it goes, and prints each wall time.
//!
//! ```text
//! cargo run --release --example prefill_micro
//! ```

use coaxial::system::server::{warm, TraceSources};
use coaxial::system::SystemConfig;
use coaxial::workloads::Workload;

#[expect(clippy::disallowed_types, reason = "a microbenchmark measures host wall time")]
fn main() {
    let mcf = Workload::by_name("mcf").unwrap();
    for config in [SystemConfig::ddr_baseline(), SystemConfig::coaxial_4x()] {
        let func = &config.functional;
        let sources = TraceSources::Registry(vec![mcf; func.cores]);
        for pass in 1..=2 {
            let t0 = std::time::Instant::now();
            let state = warm(func, &sources);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let [_, _, (llc_valid, _)] = state.occupancy();
            println!(
                "cold warm of mcf on {} #{pass}: {ms:.1} ms ({llc_valid} LLC lines valid)",
                config.name
            );
        }
    }
}
