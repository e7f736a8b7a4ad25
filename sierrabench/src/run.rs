//! One pass over a workload's apps through `sierra_core::run_jobs`,
//! untraced (`finish()` alone, as a user calls it) or traced (each
//! session getter called in turn inside its own span).

use crate::trace::{Recorder, Span, TimedStore};
use crate::workload::{race_digest, score, Input};
use sierra_core::{
    run_jobs, SessionBuilder, SessionError, SierraConfig, StageMetrics, SummaryStore,
};
use std::sync::Arc;
use std::time::Instant;

/// What the benchmark keeps of one app's analysis.
#[derive(Debug, Clone)]
pub struct Answer {
    pub digest: u64,
    /// `(true races, reported groups, planted true races)`.
    pub score: (usize, usize, usize),
    pub candidates: usize,
    pub metrics: StageMetrics,
    /// Traced passes only: summed duration of the app's stage spans.
    pub outside_ns: u64,
}

/// One app's outcome in one pass.
#[derive(Debug, Clone)]
pub struct AppRun {
    pub id: usize,
    pub name: String,
    pub activities: usize,
    /// Latency of the analysis alone (session build to `finish()`).
    pub secs: f64,
    /// The answer, or why there is none (panic or `SessionError`).
    pub answer: Result<Answer, String>,
}

/// One pass: wall time of the `run_jobs` call and every app's outcome.
#[derive(Debug, Clone)]
pub struct Pass {
    pub wall_s: f64,
    pub apps: Vec<AppRun>,
}

/// Where a traced pass records its spans.
#[derive(Clone, Copy)]
pub struct Tracing<'a> {
    pub recorder: &'a Recorder,
    pub pass: usize,
}

/// Runs every input once on `jobs` workers, all sessions sharing
/// `store`.
pub fn pass(
    inputs: Vec<Input>,
    jobs: usize,
    store: &Arc<dyn SummaryStore>,
    tracing: Option<Tracing<'_>>,
) -> Pass {
    let meta: Vec<(usize, String, usize)> = inputs
        .iter()
        .map(|i| (i.id, i.name.clone(), i.activities))
        .collect();
    let items: Vec<(String, Input)> = inputs.into_iter().map(|i| (i.name.clone(), i)).collect();
    let engine = tracing.map(|t| t.recorder.open("engine", None, None, t.pass));
    let engine_id = engine.as_ref().map(|e| e.id());
    let start = Instant::now();
    let rows = run_jobs(jobs, items, |_, input| {
        let t = Instant::now();
        let answer = match (tracing, engine_id) {
            (Some(tracing), Some(parent)) => {
                analyze_traced(input, Arc::clone(store), tracing, parent)
            }
            _ => analyze(input, Arc::clone(store)),
        };
        (t.elapsed().as_secs_f64(), answer.map_err(|e| e.to_string()))
    });
    let wall_s = start.elapsed().as_secs_f64();
    if let (Some(t), Some(engine)) = (tracing, engine) {
        t.recorder.close(engine);
    }
    let apps = rows
        .into_iter()
        .zip(meta)
        .map(|(row, (id, name, activities))| {
            let (secs, answer) = row.unwrap_or_else(|panicked| (0.0, Err(panicked.to_string())));
            AppRun {
                id,
                name,
                activities,
                secs,
                answer,
            }
        })
        .collect();
    Pass { wall_s, apps }
}

/// The untraced path: one `finish()`, as `sierra analyze` runs it.
fn analyze(input: Input, store: Arc<dyn SummaryStore>) -> Result<Answer, SessionError> {
    let result = SessionBuilder::new(SierraConfig::default())
        .app(input.app)
        .store(store)
        .build()?
        .finish()?;
    Ok(Answer {
        digest: race_digest(&result),
        score: score(&result, &input.truth),
        candidates: result.racy_pairs_with_as,
        metrics: result.metrics,
        outside_ns: 0,
    })
}

/// The traced path: every getter in pipeline order, each in its own
/// span, with the store calls made during it as an aggregated child.
fn analyze_traced(
    input: Input,
    store: Arc<dyn SummaryStore>,
    tracing: Tracing<'_>,
    engine: usize,
) -> Result<Answer, SessionError> {
    let timed = Arc::new(TimedStore::new(store));
    let mut outside_ns = 0u64;
    let mut span = |name: &'static str, f: &mut dyn FnMut() -> Result<(), SessionError>| {
        let before = timed.totals();
        let open = tracing
            .recorder
            .open(name, Some(engine), Some(input.id), tracing.pass);
        let out = f();
        let closed: Span = tracing.recorder.close(open);
        let after = timed.totals();
        tracing
            .recorder
            .close_store_child(&closed, after.0 - before.0, after.1 - before.1);
        outside_ns += closed.dur_ns();
        out
    };
    let mut session = SessionBuilder::new(SierraConfig::default())
        .app(input.app)
        .store(Arc::clone(&timed) as Arc<dyn SummaryStore>)
        .build()?;
    span("harness", &mut || session.harness().map(drop))?;
    span("pointer", &mut || session.pointer().map(drop))?;
    span("shbg", &mut || session.shbg().map(drop))?;
    span("candidates", &mut || session.candidates().map(drop))?;
    span("prefilter", &mut || session.prefilter().map(drop))?;
    span("symexec", &mut || session.refute().map(drop))?;
    span("histories", &mut || session.histories().map(drop))?;
    span("triage", &mut || session.triage().map(drop))?;
    let mut session = Some(session);
    let mut result = None;
    span("finish", &mut || {
        let s = session.take().expect("finish runs once");
        result = Some(s.finish()?);
        Ok(())
    })?;
    let result = result.expect("finish succeeded");
    Ok(Answer {
        digest: race_digest(&result),
        score: score(&result, &input.truth),
        candidates: result.racy_pairs_with_as,
        metrics: result.metrics,
        outside_ns,
    })
}
