//! Microbenchmark for the production cache warm (dev aid, not a paper
//! figure): times `server::warm` for mcf on the DDR baseline's functional
//! half, once cold, generating the access streams as it goes, and once as
//! a timing sibling replaying the parked streams, which is the array work
//! alone.
//!
//! ```text
//! cargo run --release --example prefill_micro
//! ```

use coaxial::system::server::{warm, TraceSources};
use coaxial::system::SystemConfig;
use coaxial::workloads::Workload;

#[expect(clippy::disallowed_types, reason = "a microbenchmark measures host wall time")]
fn main() {
    let func = SystemConfig::ddr_baseline().functional;
    let sources = TraceSources::Registry(vec![Workload::by_name("mcf").unwrap(); func.cores]);

    let t0 = std::time::Instant::now();
    let (cold, parked) = warm(&func, &sources, None);
    let cold_s = t0.elapsed().as_secs_f64();
    let parked = parked.expect("a registry warm with nothing parked parks its streams");

    let t0 = std::time::Instant::now();
    let (sibling, park) = warm(&func, &sources, Some(&parked));
    let sibling_s = t0.elapsed().as_secs_f64();
    assert!(park.is_none(), "a sibling of the same geometry needs no more accesses");
    assert_eq!(sibling.occupancy(), cold.occupancy(), "both warms reach one state");

    let n = parked.accesses() as f64;
    println!(
        "cold warm:    {n} accesses in {cold_s:.3}s ({:.1} ns/access, generation included)",
        cold_s * 1e9 / n
    );
    println!(
        "sibling warm: {n} accesses in {sibling_s:.3}s ({:.1} ns/access, arrays alone)",
        sibling_s * 1e9 / n
    );
}
