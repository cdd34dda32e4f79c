//! Fig. 6: workload-mix speedups; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig6");
}
