//! Fig. 2b: baseline latency breakdown and bandwidth utilization; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig2b");
}
