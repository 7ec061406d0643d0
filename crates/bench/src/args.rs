//! Shared CLI flag parsing for the benchmark binaries.
//!
//! The harnesses (`table1`, `figure7`, `oracle_fuzz`) accept the same
//! core flags with the same spelling
//! and semantics, parsed by [`common`]:
//!
//! - `--threads N` — compile on the parallel driver (default 1, the
//!   serial pipeline; output is bit-identical either way).
//! - `--deadline-ms N` — wall-clock compile budget; trips degrade
//!   gracefully instead of crashing.
//! - `--trace-out PATH` (or `DHPF_TRACE`) — dump the structured trace;
//!   `.jsonl` for JSON lines, anything else for Chrome `trace_event`.
//!
//! Both `--flag value` and `--flag=value` spellings are accepted. The
//! harness-specific flags stay in their binaries but should use
//! [`value`] / [`u64_value`] / [`present`] so the spellings stay uniform.

use crate::traceopt::TraceOut;
use dhpf_core::CompileOptions;

/// Returns the value of `--name v` or `--name=v`, if present.
#[must_use]
pub fn value(args: &[String], name: &str) -> Option<String> {
    let eq = format!("{name}=");
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&eq).map(str::to_string))
        })
}

/// Returns the integer value of `--name`, exiting with a clear message on
/// a malformed value (benchmarks should fail loudly, not guess).
#[must_use]
pub fn u64_value(args: &[String], name: &str) -> Option<u64> {
    value(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{name} needs an integer, got {v:?}");
            std::process::exit(2);
        })
    })
}

/// Whether the bare flag `--name` appears.
#[must_use]
pub fn present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The flags every benchmark binary shares.
#[derive(Debug, Default)]
pub struct Common {
    /// `--threads N` (default 1).
    pub threads: usize,
    /// `--deadline-ms N` (default none: unlimited).
    pub deadline_ms: Option<u64>,
    /// `--trace-out PATH` / `DHPF_TRACE` (default none).
    pub trace: Option<TraceOut>,
}

/// Parses the shared flags from `args`.
#[must_use]
pub fn common(args: &[String]) -> Common {
    Common {
        threads: u64_value(args, "--threads").map_or(1, |n| (n.max(1)) as usize),
        deadline_ms: u64_value(args, "--deadline-ms"),
        trace: crate::traceopt::from_args_env(args),
    }
}

impl Common {
    /// Applies the shared flags to a set of compile options: thread
    /// count, deadline, and the trace collector when tracing.
    #[must_use]
    pub fn apply(&self, mut opts: CompileOptions) -> CompileOptions {
        opts = opts.threads(self.threads);
        if let Some(ms) = self.deadline_ms {
            opts = opts.deadline_ms(ms);
        }
        if let Some(t) = &self.trace {
            opts = opts.trace(t.collector.clone());
        }
        opts
    }

    /// Prints the banner lines for non-default shared flags, so every
    /// harness reports its configuration the same way.
    pub fn banner(&self) {
        if self.threads > 1 {
            println!("(parallel driver: --threads {})\n", self.threads);
        }
        if let Some(ms) = self.deadline_ms {
            println!("(compile deadline: --deadline-ms {ms})\n");
        }
    }

    /// Writes the collected trace (if `--trace-out` was given), printing
    /// the destination or exiting on I/O failure.
    pub fn finish_trace(&self, print_tree: bool) {
        if let Some(t) = &self.trace {
            match t.write() {
                Ok(tree) => {
                    if print_tree {
                        println!("{tree}");
                    }
                    println!("trace written to {}", t.path.display());
                }
                Err(e) => {
                    eprintln!("failed to write trace {}: {e}", t.path.display());
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn both_flag_spellings_parse() {
        let a = argv(&["bench", "--threads", "4", "--deadline-ms=250"]);
        let c = common(&a);
        assert_eq!(c.threads, 4);
        assert_eq!(c.deadline_ms, Some(250));
        assert_eq!(value(&a, "--threads").as_deref(), Some("4"));
        assert_eq!(u64_value(&a, "--deadline-ms"), Some(250));
    }

    #[test]
    fn defaults_are_serial_and_unlimited() {
        let c = common(&argv(&["bench"]));
        assert_eq!(c.threads, 1);
        assert_eq!(c.deadline_ms, None);
        assert!(c.trace.is_none());
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        assert_eq!(common(&argv(&["bench", "--threads", "0"])).threads, 1);
    }
}
