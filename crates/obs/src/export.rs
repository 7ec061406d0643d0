//! Exporters: human-readable tree dump, JSON lines, Chrome `trace_event`
//! JSON and single-line span trees for wire responses — plus schema
//! validators for them and for the serve access log, used by `trace_lint`
//! and CI.
//!
//! All emitters build their output by hand with a **fixed field order**, so
//! golden-file tests can compare bytes (after redacting wall-clock values
//! with [`chrome_trace_redacted`]).

use crate::json::{self, Arr, Obj, Value};
use crate::{OpStat, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{ns} ns")
    }
}

/// Renders the span tree as an indented human-readable listing with
/// cumulative time, self time, per-op counters, and counters.
pub fn render_tree(trace: &Trace) -> String {
    let mut out = String::new();
    fn visit(trace: &Trace, i: usize, depth: usize, out: &mut String) {
        let n = &trace.nodes[i];
        let pad = "  ".repeat(depth);
        let self_ns = trace.self_ns(i);
        let _ = writeln!(
            out,
            "{pad}{name:<w$} {cum:>12}  (self {selft}){open}",
            name = n.name,
            w = 36usize.saturating_sub(pad.len()),
            cum = fmt_ns(n.dur_ns),
            selft = fmt_ns(self_ns),
            open = if n.open { "  [open]" } else { "" },
        );
        for (op, stat) in &n.ops {
            let _ = writeln!(
                out,
                "{pad}  · {op}: {calls} calls, {t}",
                calls = stat.calls,
                t = fmt_ns(stat.total_ns),
            );
        }
        for (k, v) in &n.counters {
            let _ = writeln!(out, "{pad}  · {k} = {v}");
        }
        for &c in &n.children {
            visit(trace, c, depth + 1, out);
        }
    }
    for r in trace.roots() {
        visit(trace, r, 0, &mut out);
    }
    out
}

fn push_op_obj(out: &mut String, stat: &OpStat, redact: bool) {
    let ns = if redact { 0 } else { stat.total_ns };
    let _ = write!(out, "{{\"calls\":{},\"ns\":{},\"hist\":[", stat.calls, ns);
    for (k, b) in stat.sizes.buckets.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

/// Serializes the trace as JSON lines: one object per span, then one per
/// (span, op) pair, then one per (span, counter) pair. Field order is
/// fixed; see the module docs.
pub fn to_json_lines(trace: &Trace) -> String {
    let mut out = String::new();
    for (i, n) in trace.nodes.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"type\":\"span\",\"id\":{i},\"parent\":{parent},\"name\":{name},\"cat\":{cat},\"start_ns\":{start},\"dur_ns\":{dur},\"self_ns\":{selfns}}}",
            parent = n
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".to_string()),
            name = json::escape(&n.name),
            cat = json::escape(n.cat),
            start = n.start_ns,
            dur = n.dur_ns,
            selfns = trace.self_ns(i),
        );
        out.push('\n');
    }
    for (i, n) in trace.nodes.iter().enumerate() {
        for (op, stat) in &n.ops {
            let _ = write!(
                out,
                "{{\"type\":\"op\",\"span\":{i},\"op\":{op},\"stat\":",
                op = json::escape(op),
            );
            push_op_obj(&mut out, stat, false);
            out.push_str("}\n");
        }
        for (k, v) in &n.counters {
            let _ = write!(
                out,
                "{{\"type\":\"counter\",\"span\":{i},\"name\":{k},\"value\":{v}}}",
                k = json::escape(k),
            );
            out.push('\n');
        }
    }
    out
}

/// Serializes the trace in Chrome `trace_event` format (the JSON object
/// form), loadable in `chrome://tracing` and Perfetto. One complete
/// (`"ph":"X"`) event per span, with self time, op stats, and counters in
/// `args`.
pub fn to_chrome_trace(trace: &Trace) -> String {
    chrome_trace_inner(trace, false)
}

/// [`to_chrome_trace`] with every wall-clock-derived value (`ts`, `dur`,
/// `args.self_ns`, per-op `ns`) forced to zero, for byte-stable golden
/// tests. Structure, names, call counts, histograms, and counters are
/// preserved.
pub fn chrome_trace_redacted(trace: &Trace) -> String {
    chrome_trace_inner(trace, true)
}

fn chrome_trace_inner(trace: &Trace, redact: bool) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    for (i, n) in trace.nodes.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let (ts, dur, self_ns) = if redact {
            (0.0, 0.0, 0)
        } else {
            (
                n.start_ns as f64 / 1e3,
                n.dur_ns as f64 / 1e3,
                trace.self_ns(i),
            )
        };
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":{name},\"cat\":{cat},\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"self_ns\":{self_ns}",
            tid = n.thread + 1,
            name = json::escape(&n.name),
            cat = json::escape(n.cat),
            parent = n
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".to_string()),
        );
        if !n.ops.is_empty() {
            out.push_str(",\"ops\":{");
            for (k, (op, stat)) in n.ops.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:", json::escape(op));
                push_op_obj(&mut out, stat, redact);
            }
            out.push('}');
        }
        if !n.counters.is_empty() {
            out.push_str(",\"counters\":{");
            for (k, (name, v)) in n.counters.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{v}", json::escape(name));
            }
            out.push('}');
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"dhpf-obs\"}}\n");
    out
}

/// Summary returned by the validators: event counts by category, plus the
/// total set-op call count seen in `args.ops`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total number of events.
    pub events: u64,
    /// Events per category.
    pub by_cat: BTreeMap<String, u64>,
    /// Total `calls` summed over every `args.ops` entry.
    pub op_calls: u64,
    /// Sum of every counter named in `args.counters`.
    pub counters: BTreeMap<String, i64>,
}

fn expect_num(v: &Value, what: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("{what} must be a number"))
}

fn validate_event_args(args: &Value, sum: &mut TraceSummary) -> Result<(), String> {
    let obj = args.as_obj().ok_or("args must be an object")?;
    for (k, v) in obj {
        match k.as_str() {
            "self_ns" | "id" => {
                expect_num(v, "args.self_ns/id")?;
            }
            "parent" => {
                if !matches!(v, Value::Null) {
                    expect_num(v, "args.parent")?;
                }
            }
            "ops" => {
                let ops = v.as_obj().ok_or("args.ops must be an object")?;
                for (op, stat) in ops {
                    let s = stat
                        .as_obj()
                        .ok_or_else(|| format!("args.ops.{op} must be an object"))?;
                    let mut saw_calls = false;
                    for (fk, fv) in s {
                        match fk.as_str() {
                            "calls" => {
                                sum.op_calls += expect_num(fv, "ops calls")? as u64;
                                saw_calls = true;
                            }
                            "ns" => {
                                expect_num(fv, "ops ns")?;
                            }
                            "hist" => {
                                let arr = fv.as_arr().ok_or("ops hist must be an array")?;
                                if arr.len() != crate::HIST_BUCKETS {
                                    return Err(format!(
                                        "ops hist must have {} buckets, got {}",
                                        crate::HIST_BUCKETS,
                                        arr.len()
                                    ));
                                }
                            }
                            other => return Err(format!("unknown ops field '{other}'")),
                        }
                    }
                    if !saw_calls {
                        return Err(format!("args.ops.{op} missing 'calls'"));
                    }
                }
            }
            "counters" => {
                let cs = v.as_obj().ok_or("args.counters must be an object")?;
                for (name, cv) in cs {
                    let n = expect_num(cv, "counter value")? as i64;
                    *sum.counters.entry(name.clone()).or_default() += n;
                }
            }
            other => return Err(format!("unknown args field '{other}'")),
        }
    }
    Ok(())
}

/// Validates Chrome-trace JSON produced by [`to_chrome_trace`] (schema:
/// `traceEvents` array of complete events with `ph`/`name`/`cat`/`pid`/
/// `tid`/`ts`/`dur`/`args`). Returns a [`TraceSummary`] on success and a
/// message naming the first malformed event otherwise.
///
/// # Errors
///
/// Returns a description of the first schema violation found.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .ok_or("missing 'traceEvents'")?
        .as_arr()
        .ok_or("'traceEvents' must be an array")?;
    let mut sum = TraceSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: String| format!("event {i}: {msg}");
        let obj = ev.as_obj().ok_or_else(|| fail("not an object".into()))?;
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        for required in ["ph", "name", "cat", "pid", "tid", "ts", "dur", "args"] {
            if !keys.contains(&required) {
                return Err(fail(format!("missing field '{required}'")));
            }
        }
        let ph = ev
            .get("ph")
            .unwrap()
            .as_str()
            .ok_or_else(|| fail("'ph' must be a string".into()))?;
        if ph != "X" {
            return Err(fail(format!("unsupported phase '{ph}' (expected \"X\")")));
        }
        ev.get("name")
            .unwrap()
            .as_str()
            .ok_or_else(|| fail("'name' must be a string".into()))?;
        let cat = ev
            .get("cat")
            .unwrap()
            .as_str()
            .ok_or_else(|| fail("'cat' must be a string".into()))?;
        for f in ["pid", "tid", "ts", "dur"] {
            let v = expect_num(ev.get(f).unwrap(), f).map_err(&fail)?;
            if v < 0.0 {
                return Err(fail(format!("'{f}' must be non-negative")));
            }
        }
        validate_event_args(ev.get("args").unwrap(), &mut sum).map_err(&fail)?;
        sum.events += 1;
        *sum.by_cat.entry(cat.to_string()).or_default() += 1;
    }
    Ok(sum)
}

/// Validates JSONL output from [`to_json_lines`]: every line must be an
/// object with a `type` of `span`, `op`, or `counter` and the fields that
/// type requires.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate_json_lines(text: &str) -> Result<TraceSummary, String> {
    let mut sum = TraceSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |msg: String| format!("line {}: {msg}", lineno + 1);
        let v = json::parse(line).map_err(|e| fail(format!("invalid JSON: {e}")))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing 'type'".into()))?;
        match ty {
            "span" => {
                for f in ["id", "start_ns", "dur_ns", "self_ns"] {
                    expect_num(v.get(f).ok_or_else(|| fail(format!("missing '{f}'")))?, f)
                        .map_err(&fail)?;
                }
                let cat = v
                    .get("cat")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail("missing 'cat'".into()))?;
                v.get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail("missing 'name'".into()))?;
                sum.events += 1;
                *sum.by_cat.entry(cat.to_string()).or_default() += 1;
            }
            "op" => {
                let stat = v.get("stat").ok_or_else(|| fail("missing 'stat'".into()))?;
                let calls = stat
                    .get("calls")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| fail("missing 'stat.calls'".into()))?;
                sum.op_calls += calls as u64;
            }
            "counter" => {
                let name = v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail("missing 'name'".into()))?;
                let val = v
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| fail("missing 'value'".into()))?;
                *sum.counters.entry(name.to_string()).or_default() += val as i64;
            }
            other => return Err(fail(format!("unknown type '{other}'"))),
        }
    }
    Ok(sum)
}

/// Serializes a span tree as one **single-line** JSON object, embeddable
/// as a value inside a line-framed wire response:
/// `{"spans":[{"id":…,"parent":…,"name":…,"cat":…,"start_ns":…,
/// "dur_ns":…,"thread":…,"ops":{…},"counters":{…}},…]}`. Children always
/// follow their parent (creation order), which [`validate_span_tree`]
/// checks.
pub fn span_tree_json(trace: &Trace) -> String {
    let mut spans = Arr::new();
    for (i, n) in trace.nodes.iter().enumerate() {
        let mut o = Obj::new()
            .u64("id", i as u64)
            .raw(
                "parent",
                &n.parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".to_string()),
            )
            .str("name", &n.name)
            .str("cat", n.cat)
            .u64("start_ns", n.start_ns)
            .u64("dur_ns", n.dur_ns)
            .u64("self_ns", trace.self_ns(i))
            .u64("thread", n.thread);
        if !n.ops.is_empty() {
            let mut ops = Obj::new();
            for (op, stat) in &n.ops {
                let mut body = String::new();
                push_op_obj(&mut body, stat, false);
                ops = ops.raw(op, &body);
            }
            o = o.obj("ops", ops);
        }
        if !n.counters.is_empty() {
            let mut cs = Obj::new();
            for (k, v) in &n.counters {
                cs = cs.i64(k, *v);
            }
            o = o.obj("counters", cs);
        }
        spans = spans.obj(o);
    }
    Obj::new().arr("spans", spans).finish()
}

/// Validates a span tree produced by [`span_tree_json`] that was already
/// parsed as a [`Value`] (e.g. extracted from a response line). Returns
/// the number of spans.
///
/// # Errors
///
/// Returns a description of the first schema violation: missing fields,
/// a parent index that does not precede its child, or negative numbers.
pub fn validate_span_tree_value(v: &Value) -> Result<u64, String> {
    let spans = v
        .get("spans")
        .ok_or("missing 'spans'")?
        .as_arr()
        .ok_or("'spans' must be an array")?;
    if spans.is_empty() {
        return Err("span tree has no spans".to_string());
    }
    for (i, s) in spans.iter().enumerate() {
        let fail = |msg: String| format!("span {i}: {msg}");
        s.as_obj().ok_or_else(|| fail("not an object".into()))?;
        let id = expect_num(
            s.get("id").ok_or_else(|| fail("missing 'id'".into()))?,
            "id",
        )
        .map_err(&fail)?;
        if id as usize != i {
            return Err(fail(format!("id {id} out of order (expected {i})")));
        }
        for f in ["start_ns", "dur_ns", "self_ns", "thread"] {
            let n = expect_num(s.get(f).ok_or_else(|| fail(format!("missing '{f}'")))?, f)
                .map_err(&fail)?;
            if n < 0.0 {
                return Err(fail(format!("'{f}' must be non-negative")));
            }
        }
        for f in ["name", "cat"] {
            s.get(f)
                .and_then(Value::as_str)
                .ok_or_else(|| fail(format!("missing string '{f}'")))?;
        }
        match s.get("parent") {
            Some(Value::Null) => {}
            Some(p) => {
                let p = expect_num(p, "parent").map_err(&fail)?;
                if p as usize >= i {
                    return Err(fail(format!("parent {p} does not precede span {i}")));
                }
            }
            None => return Err(fail("missing 'parent'".into())),
        }
        if let Some(ops) = s.get("ops") {
            let mut sum = TraceSummary::default();
            validate_event_args(
                &Value::Obj(vec![("ops".to_string(), ops.clone())]),
                &mut sum,
            )
            .map_err(&fail)?;
        }
    }
    Ok(spans.len() as u64)
}

/// Validates span-tree JSON text (see [`validate_span_tree_value`]).
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_span_tree(text: &str) -> Result<u64, String> {
    let v = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    validate_span_tree_value(&v)
}

/// What [`validate_access_log`] extracted from a structured access log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessLogSummary {
    /// Total records.
    pub lines: u64,
    /// Records per outcome (`"ok"` or an `E_*` code).
    pub by_outcome: BTreeMap<String, u64>,
    /// Records per op.
    pub by_op: BTreeMap<String, u64>,
    /// Records carrying an embedded (schema-valid) span tree.
    pub traces: u64,
}

/// Validates a JSON-lines access log: every line must be an object with
/// `ts_ms`, `id`, `op`, `outcome` (`"ok"` or `E_*`), and a non-negative
/// `duration_us`; `warm`/`coalesced` must be booleans when present; an
/// embedded `trace` must satisfy [`validate_span_tree_value`].
///
/// # Errors
///
/// Returns a description of the first malformed record.
pub fn validate_access_log(text: &str) -> Result<AccessLogSummary, String> {
    let mut sum = AccessLogSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |msg: String| format!("line {}: {msg}", lineno + 1);
        let v = json::parse(line).map_err(|e| fail(format!("invalid JSON: {e}")))?;
        v.as_obj().ok_or_else(|| fail("not an object".into()))?;
        for f in ["ts_ms", "duration_us"] {
            let n = expect_num(v.get(f).ok_or_else(|| fail(format!("missing '{f}'")))?, f)
                .map_err(&fail)?;
            if n < 0.0 {
                return Err(fail(format!("'{f}' must be non-negative")));
            }
        }
        v.get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing string 'id'".into()))?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing string 'op'".into()))?;
        let outcome = v
            .get("outcome")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing string 'outcome'".into()))?;
        if outcome != "ok" && !outcome.starts_with("E_") {
            return Err(fail(format!(
                "outcome must be \"ok\" or an E_* code, got {outcome:?}"
            )));
        }
        for f in ["warm", "coalesced"] {
            if let Some(b) = v.get(f) {
                if !matches!(b, Value::Bool(_)) {
                    return Err(fail(format!("'{f}' must be a boolean")));
                }
            }
        }
        if let Some(trace) = v.get("trace") {
            validate_span_tree_value(trace).map_err(|e| fail(format!("embedded trace: {e}")))?;
            sum.traces += 1;
        }
        sum.lines += 1;
        *sum.by_outcome.entry(outcome.to_string()).or_default() += 1;
        *sum.by_op.entry(op.to_string()).or_default() += 1;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;
    use std::time::Duration;

    fn sample() -> Trace {
        let c = Collector::new();
        let a = c.begin("compile", "compile");
        {
            let _g = c.guard("communication generation", "phase");
            c.record_op("satisfiability", Duration::from_micros(5), 3);
            c.record_op("fme projection", Duration::from_micros(9), 12);
            c.add_counter("comm events", 2);
        }
        c.record_span("opt of generated code", "phase", Duration::from_micros(1));
        c.end(a);
        c.trace()
    }

    #[test]
    fn chrome_trace_round_trips_through_validator() {
        let t = sample();
        let text = to_chrome_trace(&t);
        let sum = validate_chrome_trace(&text).expect("valid");
        assert_eq!(sum.events, 3);
        assert_eq!(sum.by_cat["phase"], 2);
        assert_eq!(sum.op_calls, 2);
        assert_eq!(sum.counters["comm events"], 2);
    }

    #[test]
    fn json_lines_round_trip_through_validator() {
        let t = sample();
        let text = to_json_lines(&t);
        let sum = validate_json_lines(&text).expect("valid");
        assert_eq!(sum.events, 3);
        assert_eq!(sum.op_calls, 2);
        assert_eq!(sum.counters["comm events"], 2);
    }

    #[test]
    fn tree_dump_mentions_self_time_and_ops() {
        let t = sample();
        let txt = render_tree(&t);
        assert!(txt.contains("compile"));
        assert!(txt.contains("self"));
        assert!(txt.contains("satisfiability"));
        assert!(txt.contains("comm events = 2"));
    }

    #[test]
    fn span_tree_json_is_single_line_and_validates() {
        let t = sample();
        let text = span_tree_json(&t);
        assert!(!text.contains('\n'), "span tree must be one line");
        assert_eq!(validate_span_tree(&text), Ok(3));
        // Embedded as a value inside a larger document too.
        let doc = format!("{{\"trace\":{text}}}");
        let v = json::parse(&doc).unwrap();
        assert_eq!(validate_span_tree_value(v.get("trace").unwrap()), Ok(3));
        assert!(validate_span_tree("{\"spans\":[]}").is_err());
        assert!(validate_span_tree("{\"spans\":[{\"id\":0}]}").is_err());
        // A parent pointing forward is structurally invalid.
        let bad = "{\"spans\":[{\"id\":0,\"parent\":1,\"name\":\"a\",\"cat\":\"x\",\
                   \"start_ns\":0,\"dur_ns\":0,\"self_ns\":0,\"thread\":0}]}";
        assert!(validate_span_tree(bad).is_err());
    }

    #[test]
    fn access_log_validator_checks_schema() {
        let good = concat!(
            "{\"ts_ms\":1,\"id\":\"r1\",\"op\":\"compile\",\"outcome\":\"ok\",",
            "\"duration_us\":1500,\"warm\":false,\"coalesced\":false}\n",
            "{\"ts_ms\":2,\"id\":\"r2\",\"op\":\"compile\",\"outcome\":\"E_BUDGET\",",
            "\"duration_us\":3}\n",
            "{\"ts_ms\":3,\"id\":\"p\",\"op\":\"ping\",\"outcome\":\"ok\",\"duration_us\":1}\n",
        );
        let sum = validate_access_log(good).expect("valid log");
        assert_eq!(sum.lines, 3);
        assert_eq!(sum.by_outcome["ok"], 2);
        assert_eq!(sum.by_outcome["E_BUDGET"], 1);
        assert_eq!(sum.by_op["compile"], 2);
        assert_eq!(sum.traces, 0);

        // Embedded trace must be schema-valid.
        let t = sample();
        let with_trace = format!(
            "{{\"ts_ms\":1,\"id\":\"r\",\"op\":\"compile\",\"outcome\":\"ok\",\
             \"duration_us\":9,\"trace\":{}}}\n",
            span_tree_json(&t)
        );
        assert_eq!(validate_access_log(&with_trace).unwrap().traces, 1);

        assert!(validate_access_log("{\"id\":\"x\"}\n").is_err());
        assert!(validate_access_log(
            "{\"ts_ms\":1,\"id\":\"x\",\"op\":\"compile\",\"outcome\":\"weird\",\"duration_us\":1}\n"
        )
        .is_err());
        assert!(validate_access_log(
            "{\"ts_ms\":1,\"id\":\"x\",\"op\":\"c\",\"outcome\":\"ok\",\"duration_us\":1,\"warm\":1}\n"
        )
        .is_err());
    }

    #[test]
    fn validator_rejects_malformed_events() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
        let ok = validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"cat\":\"phase\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":1,\"args\":{\"self_ns\":1}}]}",
        );
        assert!(ok.is_ok());
    }
}
