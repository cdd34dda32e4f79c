//! Fig. 9: read/write bandwidth on the DDR baseline; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig9");
}
