//! Ablation: the effect of Figure-4 loop splitting (communication/
//! computation overlap) on simulated execution time, per the paper's §7
//! observation that splitting let TOMCATV reference receive buffers
//! directly and overlap boundary exchange with interior computation.

use dhpf_core::{compile, CompileOptions};
use dhpf_sim::{simulate_with, MachineModel};
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace = dhpf_bench::traceopt::from_args_env(&args);
    let inputs: HashMap<String, i64> = [("niter".to_string(), 3i64)].into_iter().collect();
    println!("Ablation: Figure-4 loop splitting (TOMCATV 257x257)");
    println!();
    println!("  P    t(no split)   t(split)    gain");
    for p in [2i64, 4, 8, 16] {
        let mut times = Vec::new();
        for split in [false, true] {
            let mut opts = CompileOptions::new().loop_splitting(split);
            if let Some(t) = &trace {
                opts = opts.trace(t.collector.clone());
            }
            let compiled = compile(dhpf_bench::sources::TOMCATV, &opts).expect("compile tomcatv");
            let r = simulate_with(
                &compiled,
                &[p],
                &inputs,
                &MachineModel::sp2(),
                trace.as_ref().map(|t| &t.collector),
            )
            .expect("simulate tomcatv");
            times.push(r.time);
        }
        println!(
            "  {:<4} {:>11.5} {:>10.5} {:>6.1}%",
            p,
            times[0],
            times[1],
            100.0 * (times[0] - times[1]) / times[0]
        );
    }
    if let Some(t) = &trace {
        match t.write() {
            Ok(_) => println!("\ntrace written to {}", t.path.display()),
            Err(e) => {
                eprintln!("failed to write trace {}: {e}", t.path.display());
                std::process::exit(1);
            }
        }
    }
}
