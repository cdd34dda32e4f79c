//! Table V: power and EDP of the 144-core server; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("table5");
}
