//! Fig. 8: COAXIAL design variants; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig8");
}
