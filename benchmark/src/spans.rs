//! Host-time spans the benchmark records around its own steps, and the
//! Chrome trace file that holds them next to the program's spans.
//!
//! The file has two processes: pid 0 is the benchmark on the host clock
//! (microseconds since the benchmark started), pid 1 is the program's own
//! tracer on the simulated clock, exactly as `Tracer::export_chrome`
//! writes it.

use crate::clock::Stopwatch;
use simkit::json::{self, Object, Value};
use std::path::Path;

struct HostSpan {
    cat: &'static str,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
}

/// An in-memory recorder of host-time spans.
pub struct HostSpans {
    clock: Stopwatch,
    spans: Vec<HostSpan>,
}

impl HostSpans {
    /// A recorder whose clock starts now.
    pub fn new() -> HostSpans {
        HostSpans {
            clock: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its output and duration in seconds.
    /// The span closes when `f` returns, so every span opened is closed.
    pub fn time<T>(
        &mut self,
        cat: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_us = self.clock.secs() * 1e6;
        let out = f();
        let dur_us = self.clock.secs() * 1e6 - start_us;
        self.spans.push(HostSpan {
            cat,
            name,
            start_us,
            dur_us,
        });
        (out, dur_us / 1e6)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as Chrome complete events.
    fn events(&self) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                Object::new()
                    .field("name", s.name)
                    .field("cat", s.cat)
                    .field("ph", "X")
                    .field("ts", s.start_us)
                    .field("dur", s.dur_us)
                    .field("pid", 0u32)
                    .field("tid", 0u32)
                    .finish()
            })
            .collect()
    }
}

/// Writes one trace file: the benchmark's spans followed by the
/// program's export (a `{"traceEvents":[…],…}` document).
pub fn write(path: &Path, host: &HostSpans, program: &str) -> Result<(), String> {
    const HEAD: &str = "{\"traceEvents\":[";
    let rest = program
        .strip_prefix(HEAD)
        .ok_or("program trace does not start with traceEvents")?;
    let mut out = String::with_capacity(program.len() + 4096);
    out.push_str(HEAD);
    out.push_str(&host.events().join(","));
    if !rest.starts_with(']') && host.len() > 0 {
        out.push(',');
    }
    out.push_str(rest);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, out).map_err(|e| e.to_string())
}

/// Parses the trace file and checks that every event is a closed span
/// (a complete event with a finite, non-negative duration). Returns the
/// event counts `(benchmark, program)`.
pub fn validate(path: &Path) -> Result<(usize, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&text).map_err(|e| format!("{e:?}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("no traceEvents array")?;
    let mut counts = (0, 0);
    for ev in events {
        let closed = ev.get("ph").and_then(Value::as_str) == Some("X")
            && ev
                .get("dur")
                .and_then(Value::as_f64)
                .is_some_and(|d| d.is_finite() && d >= 0.0);
        if !closed {
            return Err("an event is not a closed span".into());
        }
        match ev.get("pid").and_then(Value::as_f64) {
            Some(0.0) => counts.0 += 1,
            _ => counts.1 += 1,
        }
    }
    Ok(counts)
}
