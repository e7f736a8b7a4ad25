//! Bench regression gate: compares the work counters of a fresh
//! `BENCH_table4.json` (written by the `table4_efficiency` bench) against
//! the checked-in `BENCH_baseline.json` and exits nonzero when a gated
//! counter drifts outside the tolerance band.
//!
//! Only deterministic *work counters* are gated — worklist iterations,
//! propagations, rule applications, prune tallies, and the cycle-collapse
//! ablation deltas. Wall-clock keys (`*_us`, `stage_mean_us`) are never
//! compared: they depend on the host and would make the gate flaky. On
//! top of the per-counter band the gate checks the structural
//! invariants the pipeline exists to provide: collapse must reduce both
//! worklist iterations and propagations on the cycle fixture, and the
//! harm classifier's crash precision must stay at or above the 90%
//! floor on the labelled corpus.
//!
//! The exceptions to the no-wall-clock rule are the **latency SLO**
//! band over the `corpus_throughput` group — p99 per-app latency and
//! peak RSS may regress by at most 10% against the baseline
//! (improvements always pass — the check is one-sided); the SLO gates
//! only fire when the baseline records those keys — and the
//! **artifact-reuse payoff**: a warm process over a populated cache
//! directory must finish in under half the cold wall-time of the same
//! run (no baseline involved). `BENCH_GATE_SLO=0` disables both for
//! noisy or throttled hosts. The artifact group's structural
//! invariant (zero warm solver iterations) is absolute and always
//! enforced.
//!
//! The soundness ablation (`--bench soundness_ablation`) contributes a
//! second current file, `BENCH_soundness.json`, merged from the
//! directory of the current run when present. Its recall keys are
//! banded like any counter, and its ladder invariants are absolute:
//! recall monotone over `ignore → resolve → havoc`, `resolve`/`havoc`
//! at the 100% floor on the planted corpus, zero planted races lost
//! under `havoc`, zero `ignore ⊆ resolve ⊆ havoc` edge-subset
//! violations.
//!
//! When an intentional change shifts a counter past the band, rerun
//! `cargo bench -p sierra-bench --bench table4_efficiency` (and
//! `--bench soundness_ablation`) and refresh the gated keys in
//! `crates/bench/BENCH_baseline.json` in the same commit, so the diff
//! documents the new cost.
//!
//! Usage: `bench_gate [current.json] [baseline.json]` (defaults to the
//! crate-relative paths used by CI).

use std::process::ExitCode;

/// Relative drift allowed per counter. The counters are deterministic on
/// a given commit, so the band only absorbs drift from intentional code
/// changes small enough not to matter (e.g. one extra constraint node);
/// anything larger must come with a baseline refresh.
const TOLERANCE: f64 = 0.10;

/// Counter keys gated against the baseline. Quoted-key extraction is
/// exact, so `worklist_iterations` does not match
/// `worklist_iterations_collapse_on`.
const GATED: &[&str] = &[
    // counters
    "worklist_iterations",
    "propagations",
    "cg_edges",
    "pts_set_bytes",
    "rule_applications",
    "fixpoint_rounds",
    "closure_sccs",
    "refuter_paths",
    "refuter_queries",
    // prefilter
    "stress_candidates",
    "pruned_pairs",
    "pruned_escape",
    "pruned_guarded",
    "pruned_constprop",
    "infeasible_edges",
    // pointer ablation
    "collapsed_sccs",
    "collapsed_nodes",
    "worklist_iterations_collapse_on",
    "worklist_iterations_collapse_off",
    "propagations_collapse_on",
    "propagations_collapse_off",
    // triage ablation (corpus-wide harm classifier counters)
    "triage_classified",
    "triage_null_deref",
    "triage_use_before_init",
    "triage_value_inconsistency",
    "triage_likely_benign",
    "triage_dataflow_iterations",
    // histories ablation (protocol-fixture counters; deterministic)
    "hist_components",
    "hist_pairs_checked",
    "hist_product_edges",
    "hist_discharged_unregistered",
    "hist_discharged_destroy",
    "hist_discharged_pause",
    "hist_dead_callbacks",
    "hist_infeasible_exported",
    // summary reuse (edit-pair fixture; warm run over a primed store)
    "cold_pointer_iterations",
    "warm_pointer_iterations",
    "summaries_reused",
    "summaries_recomputed",
    // corpus throughput (shared-arena occupancy is deterministic;
    // scratch_reused is scheduling-dependent and only checked > 0)
    "arena_symbols",
    "arena_bytes",
    // soundness ablation (opaque-call policy audit; deterministic)
    "soundness_recall_ignore_pct",
    "soundness_unresolved_ignore",
    "soundness_refl_sites_ignore",
    "soundness_intent_sites_ignore",
];

/// Latency-SLO keys from the `corpus_throughput` group: gated
/// one-sided (only regressions beyond the band fail), and only when the
/// baseline records them. `BENCH_GATE_SLO=0` disables the check.
const SLO_GATED: &[&str] = &["corpus_p99_latency_us", "corpus_peak_rss_kb"];

/// Crash-capable precision the harm classifier must hold on the labelled
/// corpus, in percent. A triage stage that cries "crash" on benign races
/// is worse than no triage at all, so this floor is absolute rather than
/// baseline-relative.
const CRASH_PRECISION_FLOOR_PCT: f64 = 90.0;

/// Planted-race recall the `resolve` and `havoc` opaque-call policies
/// must hold on the soundness-audit corpus, in percent. The corpus
/// plants races reachable only through reflective and intent-dispatch
/// edges, so anything under 100% means a resolution path broke.
const SOUNDNESS_RECALL_FLOOR_PCT: f64 = 100.0;

/// Extracts the numeric value of `"key": <number>` from `json`. No serde
/// in-tree, and the bench JSON is flat and machine-written, so a quoted
/// exact-key scan is sufficient and keeps the gate dependency-free.
fn counter(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)?;
    let rest = json[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn within_band(current: f64, baseline: f64) -> bool {
    (current - baseline).abs() <= TOLERANCE * baseline.abs()
}

fn run(current: &str, baseline: &str, slo_enabled: bool) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for key in GATED {
        let base = counter(baseline, key);
        let cur = counter(current, key);
        match (base, cur) {
            (Some(b), Some(c)) => {
                if !within_band(c, b) {
                    violations.push(format!(
                        "{key}: {c} is outside ±{:.0}% of baseline {b}",
                        TOLERANCE * 100.0
                    ));
                }
            }
            (Some(_), None) => violations.push(format!("{key}: missing from current run")),
            (None, Some(_)) => violations.push(format!("{key}: missing from baseline")),
            // Absent from both: nothing to compare (the bench does not
            // emit this counter), so the gate has no opinion.
            (None, None) => {}
        }
    }
    // Structural invariants of the cycle-collapse ablation, independent
    // of any baseline value.
    let pairs = [
        (
            "worklist_iterations_collapse_on",
            "worklist_iterations_collapse_off",
        ),
        ("propagations_collapse_on", "propagations_collapse_off"),
    ];
    for (on_key, off_key) in pairs {
        if let (Some(on), Some(off)) = (counter(current, on_key), counter(current, off_key)) {
            if on >= off {
                violations.push(format!(
                    "{on_key} ({on}) must be below {off_key} ({off}): cycle collapse stopped paying for itself"
                ));
            }
        }
    }
    if let Some(sccs) = counter(current, "collapsed_sccs") {
        if sccs < 1.0 {
            violations.push("collapsed_sccs: cycle fixture no longer collapses anything".into());
        }
    }
    if let Some(precision) = counter(current, "triage_crash_precision_pct") {
        if precision < CRASH_PRECISION_FLOOR_PCT {
            violations.push(format!(
                "triage_crash_precision_pct: {precision} is below the {CRASH_PRECISION_FLOOR_PCT}% floor on crash-capable labels"
            ));
        }
    }
    // Structural invariants of the histories ablation: on the protocol
    // fixtures the stage must discharge every planted false positive and
    // keep every true race — both tallies are absolute zeros, not
    // baseline-relative bands.
    for (key, what) in [
        ("hist_corpus_missed_races", "dropped a true race"),
        ("hist_corpus_surviving_fps", "left a planted FP standing"),
    ] {
        if let Some(n) = counter(current, key) {
            if n > 0.0 {
                violations.push(format!(
                    "{key}: {n} — the histories stage {what} on the protocol fixtures"
                ));
            }
        }
    }
    // Structural invariants of the soundness ablation, current-run only:
    // recall must be monotone up the policy ladder, the sound end of the
    // ladder must hold the 100% floor on the planted corpus, climbing to
    // havoc must lose nothing, and the projected call graph must satisfy
    // ignore ⊆ resolve ⊆ havoc on every app.
    let recall = |p: &str| counter(current, &format!("soundness_recall_{p}_pct"));
    if let (Some(ig), Some(re), Some(ha)) = (recall("ignore"), recall("resolve"), recall("havoc")) {
        if !(ig <= re && re <= ha) {
            violations.push(format!(
                "soundness recall not monotone: ignore {ig} / resolve {re} / havoc {ha}"
            ));
        }
        for (policy, pct) in [("resolve", re), ("havoc", ha)] {
            if pct < SOUNDNESS_RECALL_FLOOR_PCT {
                violations.push(format!(
                    "soundness_recall_{policy}_pct: {pct} is below the \
                     {SOUNDNESS_RECALL_FLOOR_PCT}% floor on the planted corpus"
                ));
            }
        }
    }
    if let Some(lost) = counter(current, "soundness_truth_lost_havoc") {
        if lost > 0.0 {
            violations.push(format!(
                "soundness_truth_lost_havoc: {lost} planted race(s) lost under the most \
                 conservative policy"
            ));
        }
    }
    if let Some(bad) = counter(current, "edge_subset_violations") {
        if bad > 0.0 {
            violations.push(format!(
                "edge_subset_violations: {bad} app(s) break ignore ⊆ resolve ⊆ havoc on the \
                 projected call graph"
            ));
        }
    }
    // Structural invariants of the summary-reuse group: a warm run over
    // a primed store must actually reuse summaries and must spend under
    // half the cold run's solver iterations, independent of baseline.
    if let (Some(cold), Some(warm)) = (
        counter(current, "cold_pointer_iterations"),
        counter(current, "warm_pointer_iterations"),
    ) {
        if warm >= 0.5 * cold {
            violations.push(format!(
                "warm_pointer_iterations ({warm}) must be below half of cold_pointer_iterations ({cold}): the summary store stopped paying for itself"
            ));
        }
    }
    if let Some(reused) = counter(current, "summaries_reused") {
        if reused < 1.0 {
            violations.push("summaries_reused: warm run reused nothing from the store".into());
        }
    }
    // Corpus-throughput invariant: a multi-app run must reuse pooled
    // solver scratch (allocation churn crept back in otherwise).
    if let Some(reused) = counter(current, "scratch_reused") {
        if reused < 1.0 {
            violations.push("scratch_reused: corpus run reused no pooled solver scratch".into());
        }
    }
    // Structural invariant of the artifact-reuse group, current-run
    // only (no baseline needed): a warm process over a populated cache
    // directory must skip the solver entirely.
    if let Some(iters) = counter(current, "artifact_warm_pointer_iterations") {
        if iters > 0.0 {
            violations.push(format!(
                "artifact_warm_pointer_iterations: {iters} — a warm process must reuse the \
                 persisted points-to artifact instead of re-solving"
            ));
        }
    }
    // The warm-process payoff is wall-clock, so like the latency SLO it
    // honors BENCH_GATE_SLO=0 on noisy hosts; unlike the SLO it needs
    // no baseline — cold and warm come from the same run.
    if slo_enabled {
        if let (Some(cold), Some(warm)) = (
            counter(current, "artifact_cold_us"),
            counter(current, "artifact_warm_process_us"),
        ) {
            if warm >= 0.5 * cold {
                violations.push(format!(
                    "artifact_warm_process_us ({warm}) must be below half of artifact_cold_us \
                     ({cold}): the artifact cache stopped paying for itself \
                     (set BENCH_GATE_SLO=0 to skip on noisy hosts)"
                ));
            }
        }
    }
    // Latency SLO: one-sided band on p99 latency and peak RSS, active
    // only when the baseline records the keys.
    if slo_enabled {
        for key in SLO_GATED {
            match (counter(baseline, key), counter(current, key)) {
                (Some(b), Some(c)) => {
                    if c > b * (1.0 + TOLERANCE) {
                        violations.push(format!(
                            "{key}: {c} regresses more than {:.0}% over baseline {b} (SLO; set BENCH_GATE_SLO=0 to skip on noisy hosts)",
                            TOLERANCE * 100.0
                        ));
                    }
                }
                (Some(_), None) => violations.push(format!("{key}: missing from current run")),
                // No baseline SLO recorded: the gate has no opinion.
                (None, _) => {}
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let current_path = args
        .next()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_table4.json").to_owned());
    let baseline_path = args
        .next()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json").to_owned());
    let read = |p: &str| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_gate: cannot read {p}: {e}");
            None
        }
    };
    let (Some(mut current), Some(baseline)) = (read(&current_path), read(&baseline_path)) else {
        return ExitCode::FAILURE;
    };
    // The soundness ablation writes its counters to a sibling file
    // (`BENCH_soundness.json`, from `--bench soundness_ablation`); when
    // present it is concatenated into the current run so one gate pass
    // covers both benches. The quoted-key scan does not require the
    // combined text to be a single JSON document.
    let soundness_path = std::path::Path::new(&current_path)
        .parent()
        .map(|d| d.join("BENCH_soundness.json"));
    if let Some(p) = soundness_path {
        if let Ok(s) = std::fs::read_to_string(&p) {
            current.push('\n');
            current.push_str(&s);
            println!("bench_gate: merged {}", p.display());
        }
    }
    let slo_enabled = std::env::var("BENCH_GATE_SLO").map_or(true, |v| v != "0");
    match run(&current, &baseline, slo_enabled) {
        Ok(()) => {
            println!(
                "bench_gate: {} counters within ±{:.0}% of baseline, invariants hold",
                GATED.len(),
                TOLERANCE * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(violations) => {
            eprintln!("bench_gate: {} violation(s):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            eprintln!(
                "if intentional, refresh crates/bench/BENCH_baseline.json from a fresh bench run"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "counters": { "worklist_iterations": 100, "propagations": 200 },
      "pointer_ablation": {
        "collapsed_sccs": 4,
        "worklist_iterations_collapse_on": 10,
        "worklist_iterations_collapse_off": 40,
        "propagations_collapse_on": 50,
        "propagations_collapse_off": 90
      },
      "histories_ablation": {
        "hist_pairs_checked": 6,
        "hist_discharged_destroy": 1,
        "hist_corpus_missed_races": 0,
        "hist_corpus_surviving_fps": 0
      },
      "summary_reuse": {
        "cold_pointer_iterations": 30,
        "warm_pointer_iterations": 0,
        "summaries_reused": 6,
        "summaries_recomputed": 1
      },
      "artifact_reuse": {
        "artifact_cold_us": 5000.0,
        "artifact_warm_process_us": 900.0,
        "artifact_warm_pointer_iterations": 0,
        "artifact_warm_summaries_reused": 6
      },
      "corpus_throughput": {
        "corpus_p99_latency_us": 1000.0,
        "corpus_peak_rss_kb": 50000,
        "scratch_reused": 19
      }
    }"#;

    #[test]
    fn quoted_key_extraction_is_exact() {
        assert_eq!(counter(BASE, "worklist_iterations"), Some(100.0));
        assert_eq!(counter(BASE, "worklist_iterations_collapse_on"), Some(10.0));
        assert_eq!(counter(BASE, "propagations"), Some(200.0));
        assert_eq!(counter(BASE, "nonexistent"), None);
    }

    #[test]
    fn identical_runs_pass() {
        assert!(run(BASE, BASE, true).is_ok());
    }

    #[test]
    fn drift_beyond_band_fails() {
        let drifted = BASE.replace("\"propagations\": 200", "\"propagations\": 260");
        let err = run(&drifted, BASE, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.starts_with("propagations:")),
            "{err:?}"
        );
    }

    #[test]
    fn drift_within_band_passes() {
        let drifted = BASE.replace("\"propagations\": 200", "\"propagations\": 210");
        assert!(run(&drifted, BASE, true).is_ok());
    }

    #[test]
    fn collapse_invariants_are_enforced() {
        let broken = BASE.replace(
            "\"worklist_iterations_collapse_on\": 10",
            "\"worklist_iterations_collapse_on\": 40",
        );
        let err = run(&broken, BASE, true).unwrap_err();
        assert!(err.iter().any(|v| v.contains("stopped paying")), "{err:?}");
    }

    #[test]
    fn crash_precision_floor_is_enforced() {
        let with_precision = |pct: &str| {
            BASE.replace(
                "\"collapsed_sccs\": 4,",
                &format!("\"collapsed_sccs\": 4, \"triage_crash_precision_pct\": {pct},"),
            )
        };
        let good = with_precision("92.5");
        assert!(run(&good, BASE, true).is_ok());
        let bad = with_precision("88.0");
        let err = run(&bad, BASE, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("below the 90% floor")),
            "{err:?}"
        );
    }

    #[test]
    fn summary_reuse_invariants_are_enforced() {
        // Warm solver work creeping past half of cold is a violation
        // even when it stays within the per-counter drift band.
        let lazy = BASE.replace(
            "\"warm_pointer_iterations\": 0",
            "\"warm_pointer_iterations\": 15",
        );
        let err = run(&lazy, &lazy, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("stopped paying for itself")),
            "{err:?}"
        );

        let cold_store = BASE.replace("\"summaries_reused\": 6", "\"summaries_reused\": 0");
        let err = run(&cold_store, &cold_store, true).unwrap_err();
        assert!(err.iter().any(|v| v.contains("reused nothing")), "{err:?}");
    }

    #[test]
    fn histories_soundness_zeros_are_enforced() {
        // A nonzero tally fails even against a matching baseline: the
        // zeros are absolute, not drift-banded.
        let leaky = BASE.replace(
            "\"hist_corpus_missed_races\": 0",
            "\"hist_corpus_missed_races\": 1",
        );
        let err = run(&leaky, &leaky, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("dropped a true race")),
            "{err:?}"
        );

        let lax = BASE.replace(
            "\"hist_corpus_surviving_fps\": 0",
            "\"hist_corpus_surviving_fps\": 2",
        );
        let err = run(&lax, &lax, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("left a planted FP standing")),
            "{err:?}"
        );
    }

    #[test]
    fn missing_counter_fails() {
        let gutted = BASE.replace(", \"propagations\": 200", "");
        let err = run(&gutted, BASE, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("missing from current run")),
            "{err:?}"
        );
    }

    #[test]
    fn slo_regression_beyond_band_fails() {
        let slow = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 1200.0",
        );
        let err = run(&slow, BASE, true).unwrap_err();
        assert!(
            err.iter()
                .any(|v| v.starts_with("corpus_p99_latency_us:") && v.contains("SLO")),
            "{err:?}"
        );

        let fat = BASE.replace(
            "\"corpus_peak_rss_kb\": 50000",
            "\"corpus_peak_rss_kb\": 60000",
        );
        let err = run(&fat, BASE, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.starts_with("corpus_peak_rss_kb:")),
            "{err:?}"
        );
    }

    #[test]
    fn slo_is_one_sided_and_tolerates_small_drift() {
        // Improvements pass no matter how large.
        let fast = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 100.0",
        );
        assert!(run(&fast, BASE, true).is_ok());
        // Regressions inside the band pass.
        let wobble = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 1090.0",
        );
        assert!(run(&wobble, BASE, true).is_ok());
    }

    #[test]
    fn slo_can_be_disabled_and_skips_bare_baselines() {
        // BENCH_GATE_SLO=0 waves through any regression.
        let slow = BASE.replace(
            "\"corpus_p99_latency_us\": 1000.0",
            "\"corpus_p99_latency_us\": 9000.0",
        );
        assert!(run(&slow, BASE, false).is_ok());
        // A baseline without SLO keys leaves the gate without an opinion
        // (the scratch_reused structural check still applies to current).
        let bare = BASE.replace("\"corpus_p99_latency_us\": 1000.0,", "");
        assert!(run(&slow, &bare, true).is_ok());
    }

    #[test]
    fn artifact_reuse_invariant_is_enforced() {
        // A warm process that re-runs the solver fails absolutely, even
        // against a matching baseline.
        let resolving = BASE.replace(
            "\"artifact_warm_pointer_iterations\": 0",
            "\"artifact_warm_pointer_iterations\": 30",
        );
        let err = run(&resolving, &resolving, true).unwrap_err();
        assert!(
            err.iter()
                .any(|v| v.contains("must reuse the persisted points-to artifact")),
            "{err:?}"
        );
    }

    #[test]
    fn artifact_warm_halving_is_enforced_and_slo_gated() {
        // Warm wall-time at or past half of cold fails while the SLO
        // checks are on…
        let slow_warm = BASE.replace(
            "\"artifact_warm_process_us\": 900.0",
            "\"artifact_warm_process_us\": 2600.0",
        );
        let err = run(&slow_warm, &slow_warm, true).unwrap_err();
        assert!(
            err.iter()
                .any(|v| v.contains("below half of artifact_cold_us")),
            "{err:?}"
        );
        // …and is waved through with BENCH_GATE_SLO=0 (noisy hosts).
        assert!(run(&slow_warm, &slow_warm, false).is_ok());
    }

    /// The soundness ablation's sibling file (`BENCH_soundness.json`),
    /// as concatenated into the current run by `main` — and into the
    /// baseline when the keys are refreshed.
    const SOUND: &str = r#"{
      "soundness_ablation": {
        "soundness_recall_ignore_pct": 98.6,
        "soundness_recall_resolve_pct": 100.0,
        "soundness_recall_havoc_pct": 100.0,
        "soundness_truth_lost_havoc": 0,
        "edge_subset_violations": 0,
        "soundness_unresolved_ignore": 990,
        "soundness_refl_sites_ignore": 3,
        "soundness_intent_sites_ignore": 2
      }
    }"#;

    fn with_soundness(base: &str) -> String {
        format!("{base}\n{SOUND}")
    }

    #[test]
    fn soundness_counters_are_banded_like_any_other() {
        let merged = with_soundness(BASE);
        assert!(run(&merged, &merged, true).is_ok());
        // The unresolved-site census drifts like any gated counter.
        let drifted = merged.replace(
            "\"soundness_unresolved_ignore\": 990",
            "\"soundness_unresolved_ignore\": 1200",
        );
        let err = run(&drifted, &merged, true).unwrap_err();
        assert!(
            err.iter()
                .any(|v| v.starts_with("soundness_unresolved_ignore:")),
            "{err:?}"
        );
        // A run missing the soundness file fails against a baseline
        // that records its keys — the ablation cannot silently vanish.
        let err = run(BASE, &merged, true).unwrap_err();
        assert!(
            err.iter()
                .any(|v| v.starts_with("soundness_recall_ignore_pct:")
                    && v.contains("missing from current run")),
            "{err:?}"
        );
    }

    #[test]
    fn soundness_ladder_invariants_are_enforced() {
        let merged = with_soundness(BASE);
        // Recall must not decrease up the ignore → resolve → havoc
        // ladder, even against a matching baseline.
        let inverted = merged
            .replace(
                "\"soundness_recall_ignore_pct\": 98.6",
                "\"soundness_recall_ignore_pct\": 100.0",
            )
            .replace(
                "\"soundness_recall_resolve_pct\": 100.0",
                "\"soundness_recall_resolve_pct\": 97.0",
            );
        let err = run(&inverted, &inverted, true).unwrap_err();
        assert!(err.iter().any(|v| v.contains("not monotone")), "{err:?}");

        // The sound end of the ladder holds the 100% floor.
        let slipped = merged.replace(
            "\"soundness_recall_havoc_pct\": 100.0",
            "\"soundness_recall_havoc_pct\": 99.3",
        );
        let err = run(&slipped, &slipped, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("below the 100% floor")),
            "{err:?}"
        );

        // Climbing to havoc must lose no planted race.
        let lossy = merged.replace(
            "\"soundness_truth_lost_havoc\": 0",
            "\"soundness_truth_lost_havoc\": 1",
        );
        let err = run(&lossy, &lossy, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("planted race(s) lost")),
            "{err:?}"
        );

        // The projected call graph must satisfy the subset law.
        let unsound = merged.replace(
            "\"edge_subset_violations\": 0",
            "\"edge_subset_violations\": 2",
        );
        let err = run(&unsound, &unsound, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("ignore ⊆ resolve ⊆ havoc")),
            "{err:?}"
        );
    }

    #[test]
    fn scratch_reuse_invariant_is_enforced() {
        let churning = BASE.replace("\"scratch_reused\": 19", "\"scratch_reused\": 0");
        let err = run(&churning, &churning, true).unwrap_err();
        assert!(
            err.iter().any(|v| v.contains("no pooled solver scratch")),
            "{err:?}"
        );
    }
}
