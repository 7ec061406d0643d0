//! Shared `--trace-out` plumbing for the benchmark binaries.
//!
//! Every harness accepts `--trace-out <path>` (or the `DHPF_TRACE`
//! environment variable) to dump the structured compile/simulate trace on
//! exit. The extension picks the format: `.jsonl` writes JSON lines,
//! anything else writes Chrome `trace_event` JSON (load it in
//! `chrome://tracing` or Perfetto).

use dhpf_obs::export::{to_chrome_trace, to_json_lines};
use dhpf_obs::Collector;
use std::path::{Path, PathBuf};

/// A requested trace dump: the destination path plus the live collector
/// the harness threads through compilation and simulation.
#[derive(Clone, Debug)]
pub struct TraceOut {
    /// Destination file.
    pub path: PathBuf,
    /// The collector to pass to `CompileOptions::trace` / `simulate_with`.
    pub collector: Collector,
}

impl TraceOut {
    /// Serializes the collected trace to [`TraceOut::path`] (format from
    /// the extension) and returns the rendered tree for printing.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write(&self) -> std::io::Result<String> {
        let trace = self.collector.trace();
        let text = if self.path.extension().is_some_and(|e| e == "jsonl") {
            to_json_lines(&trace)
        } else {
            to_chrome_trace(&trace)
        };
        std::fs::write(&self.path, text)?;
        Ok(dhpf_obs::export::render_tree(&trace))
    }
}

/// Parses `--trace-out <path>` from `args` (falling back to the
/// `DHPF_TRACE` environment variable). Returns `None` when tracing was not
/// requested.
pub fn from_args_env(args: &[String]) -> Option<TraceOut> {
    let path = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--trace-out=").map(str::to_string))
        })
        .or_else(|| std::env::var("DHPF_TRACE").ok().filter(|s| !s.is_empty()))?;
    Some(TraceOut {
        path: Path::new(&path).to_path_buf(),
        collector: Collector::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_trace_out_flag() {
        let t = from_args_env(&argv(&["table1", "--trace-out", "t.json"])).unwrap();
        assert_eq!(t.path, Path::new("t.json"));
        let t = from_args_env(&argv(&["table1", "--trace-out=t.jsonl"])).unwrap();
        assert_eq!(t.path, Path::new("t.jsonl"));
        assert!(
            from_args_env(&argv(&["table1", "--threads", "2"])).is_none()
                || std::env::var("DHPF_TRACE").is_ok()
        );
    }
}
