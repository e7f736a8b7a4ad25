//! Spans recorded from outside the program, around each call into a
//! layer's public function, and their export as Chrome trace-event JSON.
//!
//! A span is one layer for one app (or one engine pass); spans of the
//! same app share its id. Calls into the summary store are many and
//! tiny, so [`TimedStore`] accumulates them and each enclosing stage
//! span gets one aggregated `store` child covering their total time.

use sierra_core::json::{obj, Json};
use sierra_core::{MethodSummary, SummaryStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one (the engine pass for a stage, the
    /// stage for its store calls); `None` for roots.
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The app this span belongs to, when it belongs to one.
    pub app: Option<usize>,
    /// Which traced pass (or set-up repetition) recorded it.
    pub pass: usize,
    pub tid: usize,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Store calls aggregated into this span (only `store` spans).
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small per-thread index for the trace's `tid` field (the first
/// thread to ask gets 0).
pub fn tid() -> usize {
    TID.with(|t| *t)
}

/// Collects spans in memory; they are written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; [`Recorder::close`] records it.
#[derive(Debug)]
pub struct Open {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    app: Option<usize>,
    pass: usize,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        app: Option<usize>,
        pass: usize,
    ) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            app,
            pass,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` now, on the calling thread.
    pub fn close(&self, open: Open) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            app: open.app,
            pass: open.pass,
            tid: tid(),
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            calls: 0,
        };
        self.push(span.clone());
        span
    }

    /// Records the store time `store` accumulated during `parent` as one
    /// aggregated child span starting with the parent.
    pub fn close_store_child(&self, parent: &Span, store_ns: u64, calls: u64) {
        if calls == 0 {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: Some(parent.id),
            name: "store",
            app: parent.app,
            pass: parent.pass,
            tid: parent.tid,
            start_ns: parent.start_ns,
            end_ns: parent.start_ns + store_ns.min(parent.dur_ns()),
            calls,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its children's spans cover (children may overlap each
/// other, as the engine's parallel workers do).
pub fn self_times(spans: &[Span]) -> HashMap<usize, u64> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// The spans as a Chrome trace-event document (complete `X` events, in
/// microseconds), loadable by Perfetto and `chrome://tracing`.
pub fn chrome_trace(spans: &[Span], workload: &str, seed: u64) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("pass", Json::Num(s.pass as f64))];
            if let Some(app) = s.app {
                args.push(("app_id", Json::Num(app as f64)));
            }
            if s.calls > 0 {
                args.push(("calls", Json::Num(s.calls as f64)));
            }
            let mut event = vec![
                ("name", Json::Str(s.name.to_owned())),
                ("cat", Json::Str("layer".to_owned())),
                ("ph", Json::Str("X".to_owned())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
            ];
            if let Some(app) = s.app {
                event.push(("id", Json::Num(app as f64)));
            }
            event.push(("args", obj(args)));
            obj(event)
        })
        .collect();
    obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
        (
            "otherData",
            obj(vec![
                ("workload", Json::Str(workload.to_owned())),
                ("seed", Json::Num(seed as f64)),
            ]),
        ),
    ])
}

/// A [`SummaryStore`] that forwards to another and accumulates the time
/// spent in, and the number of, the calls it forwards.
#[derive(Debug)]
pub struct TimedStore {
    inner: Arc<dyn SummaryStore>,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn SummaryStore>) -> Self {
        Self {
            inner,
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// `(nanoseconds, calls)` accumulated so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.nanos.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }

    fn timed<T>(&self, f: impl FnOnce(&dyn SummaryStore) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_ref());
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl SummaryStore for TimedStore {
    fn get(&self, key: u64) -> Option<Arc<MethodSummary>> {
        self.timed(|s| s.get(key))
    }

    fn put(&self, key: u64, summary: Arc<MethodSummary>) {
        self.timed(|s| s.put(key, summary))
    }

    fn get_analysis(&self, key: u64) -> Option<Arc<pointer::Analysis>> {
        self.timed(|s| s.get_analysis(key))
    }

    fn put_analysis(&self, key: u64, analysis: Arc<pointer::Analysis>) {
        self.timed(|s| s.put_analysis(key, analysis))
    }

    fn get_artifact(&self, key: u64) -> Option<Vec<u8>> {
        self.timed(|s| s.get_artifact(key))
    }

    fn put_artifact(&self, key: u64, blob: &[u8]) {
        self.timed(|s| s.put_artifact(key, blob))
    }

    fn persists_artifacts(&self) -> bool {
        self.inner.persists_artifacts()
    }

    fn corrupt_misses(&self) -> usize {
        self.inner.corrupt_misses()
    }

    fn evictions(&self) -> usize {
        self.inner.evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            app: Some(id),
            pass: 0,
            tid: 0,
            start_ns,
            end_ns,
            calls: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = [
            span(0, None, 0, 100),
            // Two overlapping children (parallel workers) cover 10..60.
            span(1, Some(0), 10, 50),
            span(2, Some(0), 20, 60),
            // A child running past its parent counts only inside it.
            span(3, Some(0), 90, 120),
            span(4, Some(1), 15, 25),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 100 - 50 - 10);
        assert_eq!(own[&1], 40 - 10);
        assert_eq!(own[&2], 40);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 10);
    }

    #[test]
    fn store_child_is_clipped_to_its_parent() {
        let rec = Recorder::default();
        let parent = span(7, None, 1_000, 1_500);
        rec.close_store_child(&parent, 900, 3);
        rec.close_store_child(&parent, 100, 0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].parent, spans[0].dur_ns()), (Some(7), 500));
        assert_eq!(spans[0].calls, 3);
    }

    #[test]
    fn trace_json_parses_and_keeps_app_ids() {
        let rec = Recorder::default();
        let engine = rec.open("engine", None, None, 0);
        let stage = rec.open("harness", Some(engine.id()), Some(4), 0);
        let stage = rec.close(stage);
        rec.close_store_child(&stage, 1, 1);
        rec.close(engine);
        let text = chrome_trace(&rec.spans(), "ladder", 9).render();
        let doc = Json::parse(&text).expect("trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 3);
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, ["engine", "harness", "store"]);
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        }
        let app = |e: &Json| e.get("args").and_then(|a| a.get("app_id")).cloned();
        assert_eq!(app(&events[1]), Some(Json::Num(4.0)));
        assert_eq!(app(&events[1]), app(&events[2]));
        assert_eq!(app(&events[0]), None);
    }

    #[test]
    fn timed_store_counts_forwarded_calls() {
        let store = TimedStore::new(Arc::new(sierra_core::MemoryStore::new()));
        assert!(store.get(1).is_none());
        assert!(store.get_analysis(1).is_none());
        assert_eq!(store.totals().1, 2);
        assert!(!store.persists_artifacts());
    }
}
