//! `flac-faultstorm` — runs seeded rack-wide fault-storm campaigns and
//! checks their cross-subsystem invariants; see [`bench::faultstorm`]
//! for the campaigns and the command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bench::faultstorm::main(&args));
}
