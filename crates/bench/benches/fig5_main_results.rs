//! Fig. 5: COAXIAL-4x vs the DDR baseline; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig5");
}
