//! Fig. 7: CALM mechanism sensitivity; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig7");
}
