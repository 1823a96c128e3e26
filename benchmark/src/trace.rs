//! Spans recorded by the benchmark's own code around each call it makes
//! into a layer. Kept in memory; written as one Chrome-trace JSON and a
//! per-layer table when the run ends. Spans inside the engine are a later
//! issue (ROADMAP 1(c)).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ggpu_sim::json::JsonWriter;

/// One timed call into a layer. The layer is the part of `name` before
/// the first `.` (`sim.synchronize` belongs to `sim`).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (suite job, serve phase) the span belongs to.
    pub job: u32,
}

/// In-memory span recorder. When off, `span` only calls its closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Spans recorded from here on belong to `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Chrome-trace ("Trace Event Format") JSON, one complete event per
    /// span; loads in Perfetto and chrome://tracing.
    pub fn chrome_trace(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.begin_arr_key("traceEvents");
        for (id, s) in self.spans.iter().enumerate() {
            let mut e = JsonWriter::new();
            e.begin_obj();
            e.str("name", s.name)
                .str("cat", layer_of(s.name))
                .str("ph", "X")
                .f64("ts", s.start_ns as f64 / 1e3)
                .f64("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                .u64("pid", 1)
                .u64("tid", 1);
            e.begin_obj_key("args");
            e.u64("id", id as u64)
                .u64("job", s.job as u64)
                .opt_u64("parent", s.parent.map(|p| p as u64));
            e.end_obj();
            e.end_obj();
            w.elem_raw(&e.finish());
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Text table: per span name (calls, total, self) and per layer (self
    /// time and its share of all traced time).
    pub fn layer_table(&self) -> String {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
            *by_layer.entry(layer_of(s.name)).or_default() += self_ns;
        }
        let total: u64 = by_layer.values().sum::<u64>().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (calls, dur, own)) in &by_name {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12.3} {:>12.3}",
                name,
                calls,
                *dur as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
        let _ = writeln!(out, "\n{:<28} {:>12} {:>8}", "layer", "self_ms", "share");
        for (layer, own) in &by_layer {
            let _ = writeln!(
                out,
                "{:<28} {:>12.3} {:>7.1}%",
                layer,
                *own as f64 / 1e6,
                100.0 * *own as f64 / total as f64
            );
        }
        out
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_sim::json::Json;

    #[test]
    fn children_know_their_parent_and_self_time_excludes_them() {
        let mut t = Tracer::new(true);
        t.set_job(3);
        t.span("kernels.run", |t| {
            t.span("sim.synchronize", |_| std::hint::black_box(0));
        });
        let s = &t.spans;
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent, s[1].job), (None, Some(0), 3));
        let own = t.self_ns();
        let child = s[1].end_ns - s[1].start_ns;
        assert_eq!(own[0], (s[0].end_ns - s[0].start_ns) - child);
        let doc = Json::parse(&t.chrome_trace()).expect("well-formed trace");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
        assert!(t.layer_table().contains("kernels"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("sim.launch", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
