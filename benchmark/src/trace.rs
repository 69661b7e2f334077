//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a layer of the program
//! (or a group of such calls). Spans are kept in memory and written out
//! once, when the run ends; the end-to-end metrics never come from a pass
//! that records them. Spans *inside* the program are a later change
//! (ROADMAP item 5) — this recorder only sees layer boundaries from outside.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the enclosing span.
struct Span {
    name: String,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    pass: u32,
}

/// Records nested spans against one origin. When `on` is false every call
/// is a no-op, so untraced passes run the same code path without recording.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// A recorder; `on = false` makes it inert.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Labels the spans that follow with a pass number.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Self seconds per span name: a span's duration minus the part its
    /// direct children cover, summed over spans of the same name, largest
    /// first.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_s - s.start_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_s - s.start_s;
            }
        }
        let mut by_name: Vec<(String, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += t,
                None => by_name.push((s.name.clone(), t)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = serde_json::json!({
                "id": id,
                "name": s.name,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "parent": s.parent,
                "workload": workload,
                "pass": s.pass,
            });
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let times = tr.self_times();
        let get = |n: &str| times.iter().find(|(name, _)| name == n).unwrap().1;
        assert!(get("inner") >= 0.02);
        assert!(get("outer") < 0.01, "outer self time {}", get("outer"));
    }

    #[test]
    fn inert_when_off() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.self_times().is_empty());
    }
}
