//! Tables I–III: component areas, server designs, simulated parameters; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("table2");
}
