#![expect(clippy::disallowed_types, reason = "prints the sweep's host wall time")]

use coaxial_system::experiments::{fig5_main, geomean_speedup, Budget};

fn main() {
    let budget = Budget { instructions: 30_000, warmup: 5_000 };
    let t0 = std::time::Instant::now();
    let rows = fig5_main(budget);
    for r in &rows {
        let (on_b, q_b, s_b, _) = r.base.breakdown_ns;
        let (on_c, q_c, s_c, x_c) = r.coax.breakdown_ns;
        println!(
            "{:<15} speedup {:>5.2}  base[ipc {:>5.3} mpki {:>5.1} util {:>4.2} lat {:>6.1} = on {:>5.1}+q {:>6.1}+dram {:>4.1}]  coax[ipc {:>5.3} util {:>4.2} lat {:>6.1} = on {:>4.1}+q {:>5.1}+dram {:>4.1}+cxl {:>4.1}] rw {:>4.1}",
            r.workload, r.speedup,
            r.base.ipc, r.base.mpki, r.base.utilization, r.base.l2_miss_latency_ns, on_b, q_b, s_b,
            r.coax.ipc, r.coax.utilization, r.coax.l2_miss_latency_ns, on_c, q_c, s_c, x_c,
            r.base.read_gbs / r.base.write_gbs.max(0.01),
        );
    }
    println!("\ngeomean speedup: {:.3}", geomean_speedup(&rows));
    println!("elapsed: {:?}", t0.elapsed());
}
