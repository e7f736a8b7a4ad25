//! Turns a run's measurements into the printed summary lines and the
//! final JSON result.

use crate::run::{Answer, AppRun, Pass};
use crate::stats::{loglog_slope, median, percentile, Summary};
use crate::trace::{self_times, Span};
use crate::workload::Workload;
use crate::Measured;
use sierra_core::json::{obj, Json};
use std::collections::HashMap;

/// The layers, in pipeline order, named after the modules they time.
pub const LAYERS: [&str; 12] = [
    "corpus",
    "engine",
    "harness",
    "pointer",
    "store",
    "shbg",
    "candidates",
    "prefilter",
    "symexec",
    "histories",
    "triage",
    "finish",
];

/// Layers whose log-log slope over app size is reported.
const SLOPED: [&str; 4] = ["harness", "shbg", "pointer", "finish"];

pub struct Output {
    /// Human-readable summary, printed before the result.
    pub lines: Vec<String>,
    /// `{"correct", "attempted", "failed", "metrics"}`.
    pub result: Json,
}

/// Accumulates `name → (value, unit)` in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // A value with no meaning here (an empty ratio) reads as 0
        // rather than as invalid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let entry = obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).to_owned())),
                    ]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

fn summary_line(name: &str, unit: &str, values: &[f64], digits: usize) -> String {
    match Summary::of(values) {
        Some(s) => format!("{name} ({unit}): {}", s.describe(digits)),
        None => format!("{name} ({unit}): no samples"),
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether one app's outcome is correct: it answered, and its ranked
/// race list matches the reference.
fn app_ok(app: &AppRun, reference: &HashMap<String, u64>) -> bool {
    matches!(&app.answer, Ok(a) if reference.get(&app.name) == Some(&a.digest))
}

pub fn build(m: &Measured, reference: &HashMap<String, u64>, trace: bool) -> Output {
    let mut lines = vec![format!(
        "workload {}: {} apps, {} job(s), {} warm-up + {} untraced + {} traced pass(es), {} set-up rep(s)",
        m.workload.name(),
        m.inputs.len(),
        m.jobs,
        m.warmup.len(),
        m.untraced.len(),
        m.traced.len(),
        m.setup_s.len()
    )];
    let all: Vec<&AppRun> = m
        .warmup
        .iter()
        .chain(&m.untraced)
        .chain(&m.traced)
        .flat_map(|p| &p.apps)
        .collect();
    let attempted = all.len();
    let bad: Vec<&&AppRun> = all.iter().filter(|a| !app_ok(a, reference)).collect();
    for app in bad.iter().take(5) {
        let why = match &app.answer {
            Ok(_) => "ranked race list differs from the reference".to_owned(),
            Err(e) => e.clone(),
        };
        lines.push(format!("FAILED {}: {why}", app.name));
    }
    let failed = bad.len();

    let mut metrics = Metrics::default();
    if trace {
        per_layer(m, &mut metrics, &mut lines);
    } else {
        end_to_end(m, attempted, failed, &mut metrics, &mut lines);
    }
    for (name, value, unit) in &metrics.0 {
        lines.push(format!("{name} = {value} {unit}"));
    }
    let result = obj(vec![
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.json()),
    ]);
    Output { lines, result }
}

fn end_to_end(
    m: &Measured,
    attempted: usize,
    failed: usize,
    metrics: &mut Metrics,
    lines: &mut Vec<String>,
) {
    let passes: Vec<f64> = m.untraced.iter().map(|p| p.wall_s).collect();
    let mut app_ms: Vec<f64> = m
        .untraced
        .iter()
        .flat_map(|p| &p.apps)
        .map(|a| a.secs * 1e3)
        .collect();
    // The apps with the most activities: the ladder's top rung, the
    // corpus's few 32-activity apps.
    let most = m.inputs.iter().map(|(_, n)| *n).max().unwrap_or(0);
    let largest_s: Vec<f64> = m
        .untraced
        .iter()
        .flat_map(|p| &p.apps)
        .filter(|a| a.activities == most)
        .map(|a| a.secs)
        .collect();
    let (mut tp, mut reported, mut planted) = (0, 0, 0);
    for app in &m.untraced[0].apps {
        if let Ok(a) = &app.answer {
            tp += a.score.0;
            reported += a.score.1;
            planted += a.score.2;
        }
    }
    lines.push(summary_line("setup_s", "s", &m.setup_s, 4));
    lines.push(summary_line("pass_s", "s", &passes, 4));
    lines.push(format!(
        "pass walls (s, in run order): {}",
        passes
            .iter()
            .map(|p| format!("{p:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.push(summary_line("app_ms", "ms", &app_ms, 3));
    lines.push(summary_line("largest_app_s", "s", &largest_s, 4));
    if m.workload == Workload::Ladder {
        let rungs: Vec<String> = m
            .inputs
            .iter()
            .map(|(id, activities)| {
                let ms: Vec<f64> = m
                    .untraced
                    .iter()
                    .flat_map(|p| &p.apps)
                    .filter(|a| a.id == *id)
                    .map(|a| a.secs * 1e3)
                    .collect();
                format!("{activities}:{:.1}", med(&ms))
            })
            .collect();
        lines.push(format!(
            "median ms by rung (activities:ms): {}",
            rungs.join(" ")
        ));
    }
    lines.push(format!(
        "planted races: {tp} found of {planted}, {reported} reported group(s)"
    ));

    app_ms.sort_by(f64::total_cmp);
    let pct = |p| percentile(&app_ms, p).unwrap_or(0.0);
    metrics.put("setup_s", med(&m.setup_s), "s");
    metrics.put("pass_s", med(&passes), "s");
    metrics.put("app_ms_p50", pct(50.0), "ms");
    metrics.put("app_ms_p90", pct(90.0), "ms");
    metrics.put("largest_app_s", med(&largest_s), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    metrics.put("race_recall", ratio(tp as f64, planted as f64), "ratio");
    metrics.put("race_precision", ratio(tp as f64, reported as f64), "ratio");
    metrics.put(
        "ok_share",
        1.0 - ratio(failed as f64, attempted as f64),
        "ratio",
    );
}

fn per_layer(m: &Measured, metrics: &mut Metrics, lines: &mut Vec<String>) {
    let spans = m.recorder.spans();
    let own = self_times(&spans);
    let passes = m.traced.len();
    // Self time in ms by layer, per traced pass (per set-up repetition
    // for the warm workload's `corpus`), and by (layer, app) per pass
    // for the slope fits.
    let mut by_pass: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut by_app: HashMap<(&str, usize), Vec<f64>> = HashMap::new();
    for s in &spans {
        let ms = own[&s.id] as f64 / 1e6;
        let per = by_pass.entry(s.name).or_default();
        if per.len() <= s.pass {
            per.resize(s.pass + 1, 0.0);
        }
        per[s.pass] += ms;
        if let Some(app) = s.app.filter(|_| s.name != "corpus") {
            let per = by_app
                .entry((s.name, app))
                .or_insert_with(|| vec![0.0; passes]);
            per[s.pass] += ms;
        }
    }
    for layer in LAYERS {
        by_pass.entry(layer).or_insert_with(|| vec![0.0; passes]);
    }
    let layer_ms: Vec<(&str, f64)> = LAYERS.iter().map(|l| (*l, med(&by_pass[l]))).collect();
    let total: f64 = layer_ms.iter().map(|(_, ms)| ms).sum();
    for (layer, ms) in &layer_ms {
        lines.push(summary_line(
            &format!("{layer} self"),
            "ms/pass",
            &by_pass[layer],
            3,
        ));
        metrics.put(format!("{layer}.ms"), *ms, "ms");
        metrics.put(format!("{layer}.share"), ratio(*ms, total), "ratio");
    }
    for layer in SLOPED {
        let points: Vec<(f64, f64)> = m
            .inputs
            .iter()
            .filter_map(|(id, activities)| {
                let per = by_app.get(&(layer, *id))?;
                Some((*activities as f64, med(per)))
            })
            .collect();
        metrics.put(
            format!("{layer}.slope"),
            loglog_slope(&points).unwrap_or(0.0),
            "exponent",
        );
    }

    // Work counters, summed over a pass's apps (median over passes).
    let per_pass = |f: &dyn Fn(&Answer) -> f64| -> f64 {
        let sums: Vec<f64> = m
            .traced
            .iter()
            .map(|p| {
                p.apps
                    .iter()
                    .filter_map(|a| a.answer.as_ref().ok())
                    .map(f)
                    .sum()
            })
            .collect();
        med(&sums)
    };
    let link = |a: &Answer| a.metrics.link;
    let reused = per_pass(&|a| link(a).summaries_reused as f64);
    let recomputed = per_pass(&|a| link(a).summaries_recomputed as f64);
    let candidates = per_pass(&|a| a.candidates as f64);
    metrics.put(
        "pointer.iterations",
        per_pass(&|a| link(a).pointer_iterations_run as f64),
        "count",
    );
    metrics.put(
        "pointer.propagations",
        per_pass(&|a| {
            if link(a).analysis_reused {
                0.0
            } else {
                a.metrics.pointer.propagations as f64
            }
        }),
        "count",
    );
    metrics.put("pointer.summaries_reused", reused, "count");
    metrics.put("pointer.summaries_recomputed", recomputed, "count");
    metrics.put(
        "pointer.reuse_ratio",
        ratio(reused, reused + recomputed),
        "ratio",
    );
    metrics.put(
        "pointer.analysis_reused",
        per_pass(&|a| link(a).analysis_reused as u8 as f64),
        "count",
    );
    let store_calls: Vec<f64> = (0..passes)
        .map(|p| {
            spans
                .iter()
                .filter(|s| s.name == "store" && s.pass == p)
                .map(|s| s.calls as f64)
                .sum()
        })
        .collect();
    metrics.put("store.calls", med(&store_calls), "count");
    metrics.put("store.files", m.store_usage.0 as f64, "count");
    metrics.put("store.bytes", m.store_usage.1 as f64, "bytes");
    metrics.put(
        "store.corrupt_misses",
        per_pass(&|a| link(a).corrupt_misses as f64),
        "count",
    );
    metrics.put("candidates.pairs", candidates, "count");
    metrics.put(
        "prefilter.pruned_ratio",
        ratio(
            per_pass(&|a| a.metrics.prefilter.pruned_total() as f64),
            candidates,
        ),
        "ratio",
    );
    metrics.put(
        "symexec.queries",
        per_pass(&|a| a.metrics.refuter.queries as f64),
        "count",
    );
    metrics.put(
        "symexec.paths",
        per_pass(&|a| a.metrics.refuter.paths as f64),
        "count",
    );
    metrics.put(
        "symexec.budget_exhausted",
        per_pass(&|a| a.metrics.refuter.budget_exhausted as f64),
        "count",
    );
    metrics.put(
        "histories.discharged",
        per_pass(&|a| a.metrics.histories.discharged_total() as f64),
        "count",
    );

    engine_metrics(m, &spans, metrics);
    trace_metrics(m, metrics, lines);
}

/// Engine utilisation from the spans: busy share is the apps' summed
/// stage time over `jobs × wall`; tail idle is how long the first worker
/// to run out of apps waited for the pass to end.
fn engine_metrics(m: &Measured, spans: &[Span], metrics: &mut Metrics) {
    let mut busy = Vec::new();
    let mut tail = Vec::new();
    for engine in spans.iter().filter(|s| s.name == "engine") {
        let kids: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == Some(engine.id))
            .collect();
        let work: u64 = kids.iter().map(|s| s.dur_ns()).sum();
        busy.push(ratio(work as f64, (m.jobs as u64 * engine.dur_ns()) as f64));
        let mut last_end: HashMap<usize, u64> = HashMap::new();
        for k in &kids {
            let end = last_end.entry(k.tid).or_insert(0);
            *end = (*end).max(k.end_ns);
        }
        let first_idle = last_end.values().copied().min().unwrap_or(engine.end_ns);
        tail.push(engine.end_ns.saturating_sub(first_idle) as f64 / 1e6);
    }
    metrics.put("engine.busy_share", med(&busy), "ratio");
    metrics.put("engine.tail_idle_ms", med(&tail), "ms");
}

/// Tracing overhead against the interleaved untraced passes, and the
/// share of each app's outside-measured stage time that the program's
/// own `StageMetrics::timings` do not account for.
fn trace_metrics(m: &Measured, metrics: &mut Metrics, lines: &mut Vec<String>) {
    let wall = |ps: &[Pass]| med(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let (traced, untraced) = (wall(&m.traced), wall(&m.untraced));
    metrics.put(
        "trace.overhead_share",
        ratio(traced - untraced, untraced),
        "ratio",
    );

    let (mut outside, mut inside, mut total) = (0f64, 0f64, 0f64);
    for a in m.traced.iter().flat_map(|p| &p.apps) {
        if let Ok(ans) = &a.answer {
            let t = &ans.metrics.timings;
            outside += ans.outside_ns as f64;
            inside += [
                t.harness,
                t.cg_pa,
                t.hbg,
                t.prefilter,
                t.refutation,
                t.histories,
                t.triage,
                t.compare,
            ]
            .iter()
            .map(|d| d.as_nanos() as f64)
            .sum::<f64>();
            total += t.total.as_nanos() as f64;
        }
    }
    lines.push(format!(
        "stage accounting: outside spans {:.1} ms, StageTimings stages {:.1} ms, StageTimings total {:.1} ms",
        outside / 1e6,
        inside / 1e6,
        total / 1e6
    ));
    metrics.put(
        "trace.unaccounted_share",
        ratio(outside - inside, outside),
        "ratio",
    );
}
