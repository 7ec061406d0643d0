//! Prints the Table 1 reproduction.
//!
//! Accepts the shared harness flags (`--threads N`, `--deadline-ms N`,
//! `--trace-out PATH`; see `dhpf_bench::args`). When the deadline trips,
//! affected nests degrade to conservative (but correct) communication
//! instead of crashing, and the table gains a "graceful degradations"
//! section listing what was given up and why.

use dhpf_bench::args;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let common = args::common(&argv);
    common.banner();
    let opts = common.apply(dhpf_core::CompileOptions::new());
    println!("{}", dhpf_bench::table1::run_opts(&opts));
    common.finish_trace(true);
}
