//! In-memory span recording for the traced run: one span per call into a
//! layer, kept in memory and written out once at the end.

use phishinghook::json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one replayed request share this id (0 = no request).
    pub request: u64,
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<u64>, request: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.into(),
            start,
            end: start,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let end = self.now();
        self.spans[id as usize - 1].end = end;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Records a span measured elsewhere (e.g. on a worker thread).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        request: u64,
        start: u64,
        end: u64,
    ) {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.into(),
            start,
            end,
        });
    }

    pub fn span(&self, id: u64) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Durations (µs) of every span named `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let num = |v: u64| Value::Num(v as f64);
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("id".into(), num(s.id)),
                        ("parent".into(), s.parent.map_or(Value::Null, num)),
                        ("request".into(), num(s.request)),
                        ("name".into(), Value::Str(s.name.clone())),
                        ("start_ns".into(), num(s.start)),
                        ("end_ns".into(), num(s.end)),
                    ])
                })
                .collect(),
        )
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_their_parent_and_durations() {
        let mut t = Tracer::default();
        t.record("root", None, 1, 0, 1000);
        t.record("a", Some(1), 1, 100, 300);
        assert_eq!(t.micros_of("a"), vec![0.2]);
        let json = t.to_json();
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":1"));
    }
}
