//! Extension: design-choice ablations; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("ablations");
}
