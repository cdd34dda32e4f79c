//! Fig. 10 (+§VII): sensitivity to the CXL latency premium; defined in `coaxial_bench::paper`.

fn main() {
    coaxial_bench::paper::bench("fig10");
}
