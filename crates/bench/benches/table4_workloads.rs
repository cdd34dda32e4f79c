//! Table IV: workload IPC and MPKI on the DDR baseline; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("table4");
}
