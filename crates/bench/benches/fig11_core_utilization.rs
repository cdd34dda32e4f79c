//! Fig. 11: speedup vs active cores; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig11");
}
