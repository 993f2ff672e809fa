//! In-memory spans around the benchmark's calls into the tenoc crates.
//!
//! Spans are recorded only by the traced run, kept in memory, and written
//! out as JSON lines when the run ends. A span names the public call it
//! wraps, its parent span and the request (cell, search or sweep
//! submission) it belongs to. Work that is too fine-grained to span one
//! call at a time, such as single clock edges, is summed into counters
//! attached to the enclosing span.

use serde::json::Value;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: String,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Counter {
    span: u64,
    name: String,
    value: f64,
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    counters: Vec<Counter>,
}

/// A cheap, clonable handle; a disabled tracer records nothing.
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    store: Option<Arc<Mutex<Store>>>,
}

/// Span id 0 is "no parent".
pub const ROOT: u64 = 0;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            store: enabled.then(|| Arc::new(Mutex::new(Store::default()))),
        }
    }

    pub fn enabled(&self) -> bool {
        self.store.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; returns its id (0 when tracing is off).
    pub fn begin(&self, name: &str, parent: u64, request: u64) -> u64 {
        let Some(store) = &self.store else { return ROOT };
        let start_ns = self.ns(Instant::now());
        let mut s = store.lock().expect("trace store lock poisoned");
        let id = s.spans.len() as u64 + 1;
        s.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: u64) {
        let Some(store) = &self.store else { return };
        let end_ns = self.ns(Instant::now());
        let mut s = store.lock().expect("trace store lock poisoned");
        s.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Attaches a summed quantity to a span.
    pub fn count(&self, span: u64, name: &str, value: f64) {
        let Some(store) = &self.store else { return };
        let mut s = store.lock().expect("trace store lock poisoned");
        s.counters.push(Counter { span, name: name.to_string(), value });
    }

    /// Writes every span, then every counter, as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let Some(store) = &self.store else { return Ok(0) };
        let s = store.lock().expect("trace store lock poisoned");
        let mut out = String::new();
        for sp in &s.spans {
            let v = Value::Object(vec![
                ("span".into(), Value::U64(sp.id)),
                ("parent".into(), Value::U64(sp.parent)),
                ("name".into(), Value::String(sp.name.clone())),
                ("request".into(), Value::U64(sp.request)),
                ("start_ns".into(), Value::U64(sp.start_ns)),
                ("end_ns".into(), Value::U64(sp.end_ns)),
            ]);
            out.push_str(&v.to_json_compact());
            out.push('\n');
        }
        for c in &s.counters {
            let v = Value::Object(vec![
                ("counter".into(), Value::String(c.name.clone())),
                ("span".into(), Value::U64(c.span)),
                ("value".into(), Value::F64(c.value)),
            ]);
            out.push_str(&v.to_json_compact());
            out.push('\n');
        }
        std::fs::write(path, out)?;
        Ok(s.spans.len())
    }
}
