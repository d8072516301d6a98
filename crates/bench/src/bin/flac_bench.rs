//! `flac-bench` — runs, gates and checks the scale benchmarks; see
//! [`bench::driver`] for the command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bench::driver::main(&args));
}
