//! `perfbench --workload <sdss|sqlshare> --seed <n>
//! --seconds <s> --trace <0|1> [--smoke]`
//!
//! Runs one workload and prints its result as the last line of stdout.
//! Exits non-zero, printing no result, on bad arguments.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let pinned = perfbench::pin_settings();
    eprintln!(
        "[perfbench] workload={} seed={} seconds={} trace={} nproc={} simd={} pinned={:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        perfbench::nproc(),
        sqlan_simd::active().name(),
        pinned
    );
    let report = perfbench::run(&args);
    for p in &report.problems {
        eprintln!("[perfbench] check failed: {p}");
    }
    println!("{}", report.to_json());
}
