//! Spans recorded by the harness around its calls into each layer's
//! public functions. Kept in memory during the traced pass and written
//! once, when it ends, to `benchmark/out/<workload>.spans.json`.
//!
//! A span is `{name, start_ns, end_ns, parent, job}`: `parent` is the
//! index of the enclosing span in the file (or `null`), `job` the
//! number of the job it belongs to. A layer's self time is its span
//! minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open enclosing spans, innermost last.
    open: Vec<usize>,
    job: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses the calls timed until [`Self::close`].
    /// Opening a root span starts a new job.
    pub fn open(&mut self, name: &'static str) -> usize {
        if self.open.is_empty() {
            self.job += 1;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time one call into a layer as a child of the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Record a span from timestamps taken elsewhere (the generator
    /// threads), in seconds since the recorder's epoch.
    pub fn add(
        &mut self,
        name: &'static str,
        start_s: f64,
        end_s: f64,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: (start_s * 1e9) as u64,
            end_ns: (end_s * 1e9) as u64,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Durations in ms of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per span name: `(count, total ms, self ms)`, self time being the
    /// span minus its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_insert((0u64, 0.0, 0.0));
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
        by_name
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}{}",
                s.name, s.start_ns, s.end_ns, parent, s.job, comma
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(Instant::now());
        let job = r.add("job", 0.0, 0.010, None, 1);
        r.add("child", 0.001, 0.004, Some(job), 1);
        r.add("child", 0.005, 0.009, Some(job), 1);
        let t = r.self_times();
        let (n, total, own) = t["job"];
        assert_eq!(n, 1);
        assert!((total - 10.0).abs() < 1e-6);
        assert!((own - 3.0).abs() < 1e-6, "{own}");
        assert_eq!(t["child"].0, 2);
    }

    #[test]
    fn nesting_sets_parent_and_job() {
        let mut r = Recorder::new(Instant::now());
        let a = r.open("a");
        r.time("b", || ());
        r.close(a);
        let c = r.open("c");
        r.close(c);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].job, 1);
        assert_eq!(r.spans[2].job, 2);
    }
}
