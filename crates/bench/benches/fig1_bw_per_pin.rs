//! Fig. 1: bandwidth per processor pin; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig1");
}
