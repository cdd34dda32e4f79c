//! Fig. 2a: DDR5-4800 load-latency curve; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig2a");
}
