//! In-memory span recording around the benchmark's own calls into each
//! layer, and the self-time arithmetic the per-layer ledger rests on.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one [`Tracer`].
    pub id: u32,
    /// The span that was open on the same thread when this one began,
    /// or the pass root for work started on a pool worker.
    pub parent: Option<u32>,
    /// Which traced pass (repetition) the span belongs to.
    pub pass: u32,
    /// Layer-qualified name, e.g. `sim` or `regalloc.ctx_build`.
    pub name: &'static str,
    /// The application the call worked on, if any.
    pub app: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Warp instructions simulated by the call (sim spans only).
    pub insts: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Records spans from any thread into one in-memory list.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    /// `(pass, root span id)` that parentless spans attach to.
    root: Mutex<(u32, Option<u32>)>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            root: Mutex::new((0, None)),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as a root span of pass `pass`: spans opened on other
    /// threads while it runs, with nothing open on their own thread,
    /// become its children.
    pub fn root<R>(&self, pass: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        *self.root.lock().expect("span root lock poisoned") = (pass, Some(id));
        let out = self.record(id, None, pass, name, "", || (f(), 0));
        *self.root.lock().expect("span root lock poisoned") = (pass, None);
        out.0
    }

    /// Run `f` inside a span named `name` for `app`.
    pub fn span<R>(&self, name: &'static str, app: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_counted(name, app, || (f(), 0)).0
    }

    /// [`span`](Self::span) for a call that reports how many warp
    /// instructions it simulated; returns the full result.
    pub fn span_counted<R>(
        &self,
        name: &'static str,
        app: &'static str,
        f: impl FnOnce() -> (R, u64),
    ) -> (R, u64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (pass, root) = *self.root.lock().expect("span root lock poisoned");
        let parent = OPEN.with(|o| o.borrow().last().copied()).or(root);
        self.record(id, parent, pass, name, app, f)
    }

    fn record<R>(
        &self,
        id: u32,
        parent: Option<u32>,
        pass: u32,
        name: &'static str,
        app: &'static str,
        f: impl FnOnce() -> (R, u64),
    ) -> (R, u64) {
        OPEN.with(|o| o.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let (out, insts) = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(Span {
                id,
                parent,
                pass,
                name,
                app,
                start_ns,
                end_ns,
                insts,
            });
        (out, insts)
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"pass\":{},\"name\":\"{}\",\"app\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"insts\":{}}}",
                s.id, parent, s.pass, s.name, s.app, s.start_ns, s.end_ns, s.insts
            )?;
        }
        Ok(())
    }
}

/// Self time of every span in seconds, in the order given: its duration
/// minus the part of its interval that its direct children cover.
/// Children that overlap each other (pool workers) are merged first, so
/// a span's self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// Whether `span` has an ancestor named `name`.
pub fn has_ancestor(spans: &[Span], span: &Span, name: &str) -> bool {
    let mut parent = span.parent;
    while let Some(p) = parent {
        match spans.iter().find(|s| s.id == p) {
            Some(s) if s.name == name => return true,
            Some(s) => parent = s.parent,
            None => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            pass: 0,
            name: "x",
            app: "",
            start_ns,
            end_ns,
            insts: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // root [0,100) > a [10,60) > b [20,30); root > c [70,90)
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 70, 90),
        ];
        let st = self_times(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(
            st.iter().map(|&s| ns(s)).collect::<Vec<_>>(),
            [30, 40, 10, 20]
        );
        // Self times telescope to the root's duration.
        assert_eq!(ns(st.iter().sum()), 100);
    }

    #[test]
    fn overlapping_children_are_merged_not_double_counted() {
        // Two workers' spans overlap inside the root.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 120), // clipped to the root's end
        ];
        let st = self_times(&spans);
        assert_eq!((st[0] * 1e9).round() as u64, 100 - 70 - 10);
    }

    #[test]
    fn recorded_spans_nest_by_thread_and_attach_workers_to_the_root() {
        let t = Tracer::default();
        t.root(3, "pass", || {
            t.span("outer", "A", || {
                t.span("inner", "A", || ());
                std::thread::scope(|s| {
                    s.spawn(|| t.span("worker", "B", || ()));
                });
            });
        });
        let spans = t.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, outer, inner, worker) = (by("pass"), by("outer"), by("inner"), by("worker"));
        assert_eq!(root.parent, None);
        assert_eq!(outer.parent, Some(root.id));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(worker.parent, Some(root.id));
        assert!(spans.iter().all(|s| s.pass == 3));
        assert!(has_ancestor(&spans, &inner, "pass"));
        assert!(!has_ancestor(&spans, &worker, "outer"));
    }
}
