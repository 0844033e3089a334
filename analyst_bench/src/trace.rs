//! In-memory spans: name, start, end, parent and session id, recorded
//! around calls into the library and written out as JSON lines at exit.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub session: Option<u64>,
    pub thread: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A small per-process number for the calling thread.
fn thread_number() -> usize {
    THREAD.with(|t| match t.get() {
        Some(n) => n,
        None => {
            let n = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(n));
            n
        }
    })
}

/// Collects spans from any thread; a span is opened before its children so
/// they can name it as their parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span now; returns its id for [`Tracer::close`] and children.
    pub fn open(&self, name: &'static str, parent: Option<usize>, session: Option<u64>) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            session,
            thread: thread_number(),
        });
        spans.len() - 1
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span list poisoned")[id].end = end;
    }

    /// Run `f` inside a span; returns its result and the span id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        session: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, session);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// A copy of every span recorded so far, indexed by id.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.snapshot();
        let kids = children(&spans);
        for (id, s) in spans.iter().enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"parent\":{},\"session\":{},\"thread\":{}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                self_time(&spans, &kids, id) * 1e6,
                opt(s.parent.map(|p| p.to_string())),
                opt(s.session.map(|p| p.to_string())),
                s.thread,
            )?;
        }
        out.flush()
    }
}

/// Child ids of every span, in id order.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(id);
        }
    }
    kids
}

/// Self time: the span's duration minus the part of its interval that its
/// children cover. Overlapping children (parallel jobs) count once.
pub fn self_time(spans: &[Span], kids: &[Vec<usize>], id: usize) -> f64 {
    let parent = &spans[id];
    let mut intervals: Vec<(f64, f64)> = kids[id]
        .iter()
        .map(|&c| {
            (
                spans[c].start.max(parent.start),
                spans[c].end.min(parent.end),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (a, b) in intervals {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    parent.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            session: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0.0, 10.0, None),
            // Two overlapping parallel jobs cover [1, 5) once.
            span(1.0, 4.0, Some(0)),
            span(2.0, 5.0, Some(0)),
            // A disjoint child covers [7, 8).
            span(7.0, 8.0, Some(0)),
            // A grandchild does not count against the root.
            span(1.5, 2.5, Some(1)),
        ];
        let kids = children(&spans);
        assert_eq!(self_time(&spans, &kids, 0), 10.0 - 4.0 - 1.0);
        assert_eq!(self_time(&spans, &kids, 1), 3.0 - 1.0);
        assert_eq!(self_time(&spans, &kids, 3), 1.0);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(2.0, 6.0, None),
            span(0.0, 3.0, Some(0)),
            span(5.0, 9.0, Some(0)),
            span(7.0, 8.0, Some(0)),
        ];
        let kids = children(&spans);
        assert_eq!(self_time(&spans, &kids, 0), 4.0 - 1.0 - 1.0);
    }

    #[test]
    fn nested_children_count_once() {
        let spans = vec![
            span(0.0, 4.0, None),
            span(0.0, 4.0, Some(0)),
            span(1.0, 2.0, Some(0)),
        ];
        let kids = children(&spans);
        assert_eq!(self_time(&spans, &kids, 0), 0.0);
    }

    #[test]
    fn tracer_links_parents_and_closes_spans() {
        let tracer = Tracer::default();
        let (_, outer) = tracer.span("outer", None, None, || {
            tracer.span("inner", Some(0), Some(7), || ());
        });
        let spans = tracer.snapshot();
        assert_eq!(outer, 0);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].session, Some(7));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
