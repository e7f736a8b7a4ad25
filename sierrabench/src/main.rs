//! The repository's benchmark: runs one workload through the public
//! `sierra_core` API and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path sierrabench/Cargo.toml -- \
//!     --workload <ladder|fdroid|fdroid_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with no
//! instrumentation; with `--trace 1` the per-layer metrics, derived from
//! spans recorded around each call into a layer (see `trace.rs`), and
//! it writes those spans to `sierrabench/out/trace-<workload>.json`.
//! The last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod report;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Pass, Tracing};
use sierra_core::{DiskStore, MemoryStore, SummaryStore};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;
use workload::{Input, Workload};

/// The seed whose ranked race lists are recorded in `reference/`.
const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions of the warm workload; `setup_s` is their median.
const WARM_SETUP_REPS: usize = 5;

/// Set-up repetitions before every pass on the ladder. Its five apps take
/// under 1% of a pass to generate, so it sets up several times per pass,
/// for about as many samples per run as the corpus workload's forty-odd
/// passes give with one each.
const LADDER_SETUP_REPS: usize = 4;

/// Engine workers on every workload, one per core of the 2-core host. With
/// one worker, the ladder's pass took 1.7× as long and its medians spread
/// more between runs. The ladder scans its top rung first (see
/// `workload::plan`), so it runs alongside all the other rungs.
const JOBS: usize = 2;

/// Fewest measured passes of each kind, however long they take.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_reference = false;
    while let Some(flag) = args.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.unwrap_or(DEFAULT_SEED);
    if write_reference && seed != DEFAULT_SEED {
        return Err(format!(
            "references are recorded at seed {DEFAULT_SEED} only"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        write_reference,
    })
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn reference_path(workload: Workload) -> PathBuf {
    bench_dir()
        .join("reference")
        .join(format!("{}.txt", workload.corpus()))
}

fn read_reference(path: &Path) -> Result<HashMap<String, u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (name, digest) = l
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed reference line {l:?}"))?;
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|_| format!("malformed digest in {l:?}"))?;
            Ok((name.to_owned(), digest))
        })
        .collect()
}

fn write_reference(path: &Path, pass: &Pass) -> Result<(), String> {
    let mut text = format!(
        "# Ranked race-list digests (FNV-1a over each report's race lines) at seed {DEFAULT_SEED}.\n\
         # Rewrite with --write-reference after a change that is meant to alter reports.\n"
    );
    for app in &pass.apps {
        let answer = app
            .answer
            .as_ref()
            .map_err(|e| format!("{}: {e}", app.name))?;
        text.push_str(&format!("{} {:016x}\n", app.name, answer.digest));
    }
    std::fs::create_dir_all(path.parent().expect("reference dir"))
        .and_then(|_| std::fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Generates the inputs, recording one `corpus` span per app when traced.
fn generate(plan: &[(String, usize, u64)], tracing: Option<Tracing<'_>>) -> Vec<Input> {
    plan.iter()
        .enumerate()
        .map(|(id, item)| match tracing {
            Some(t) => {
                let open = t.recorder.open("corpus", None, Some(id), t.pass);
                let input = workload::synthesize(id, item);
                t.recorder.close(open);
                input
            }
            None => workload::synthesize(id, item),
        })
        .collect()
}

/// The files in a store directory: `(count, bytes)`.
fn dir_usage(dir: &Path) -> (usize, u64) {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
        })
        .unwrap_or((0, 0))
}

/// Everything a run measured, handed to `report`.
pub struct Measured {
    pub workload: Workload,
    pub jobs: usize,
    pub setup_s: Vec<f64>,
    /// Untimed passes before the measurement; checked, not timed.
    pub warmup: Vec<Pass>,
    pub untraced: Vec<Pass>,
    pub traced: Vec<Pass>,
    pub recorder: Recorder,
    /// Files and bytes in the warm workload's store after set-up.
    pub store_usage: (usize, u64),
    /// `(id, activities)` of every app.
    pub inputs: Vec<(usize, usize)>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sierrabench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("sierrabench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let plan = workload::plan(w, args.seed);
    let reference = if args.seed == DEFAULT_SEED && !args.write_reference {
        Some(read_reference(&reference_path(w))?)
    } else {
        None
    };
    let out_dir = bench_dir().join("out");
    // One store directory per set-up repetition, all deleted when the run
    // ends: deleting some 25,000 files just before a fill was seen to slow
    // that fill several-fold.
    let store_dirs: Vec<PathBuf> = (0..WARM_SETUP_REPS)
        .map(|rep| out_dir.join(format!("store-{}-{}-{rep}", w.name(), std::process::id())))
        .collect();
    let store_dir = store_dirs.last().expect("at least one repetition");
    let recorder = Recorder::default();
    // The main thread, which records engine and corpus spans, is tid 0.
    trace::tid();

    let open_disk = |dir: &Path| {
        DiskStore::new(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))
    };
    let tracing = |on: bool, pass: usize| {
        on.then_some(Tracing {
            recorder: &recorder,
            pass,
        })
    };

    // Set-up. The warm workload generates its inputs and fills a fresh
    // on-disk store with one cold pass, several times over, before it
    // measures; the other workloads generate their inputs afresh before
    // every pass, so their set-up samples spread over the whole run.
    let mut setup_s = Vec::new();
    let mut template = None;
    let mut cold = None;
    if w == Workload::FdroidWarm {
        for (rep, dir) in store_dirs.iter().enumerate() {
            let t = Instant::now();
            let inputs = generate(&plan, tracing(args.trace, rep));
            let generated = t.elapsed();
            template = Some(inputs.clone());
            let t = Instant::now();
            let store: Arc<dyn SummaryStore> = Arc::new(open_disk(dir)?);
            cold = Some(run::pass(inputs, JOBS, &store, None));
            setup_s.push((generated + t.elapsed()).as_secs_f64());
        }
    }
    let store_usage = dir_usage(store_dir);
    let mut settle_s = None;
    if w == Workload::FdroidWarm {
        // Let the disk come to rest before timing: delete the stores the
        // passes do not read, then wait until the kernel has written every
        // dirty page. Each fill leaves some 130 MB dirty (one page per
        // small file), which the kernel starts writing back 30 s later, in
        // the middle of the measured passes.
        let t = Instant::now();
        for dir in &store_dirs[..store_dirs.len() - 1] {
            let _ = std::fs::remove_dir_all(dir);
        }
        sync_disks();
        settle_s = Some(t.elapsed().as_secs_f64());
    }

    // Warm-up: one untimed pass, so the measured passes start with the
    // code, the allocator's heap and the page cache already warm (the warm
    // workload's cold set-up passes have done this already). The warm-up's
    // answers are checked with the measured ones.
    let mut warmup = Vec::new();
    if w != Workload::FdroidWarm && !args.write_reference {
        let store: Arc<dyn SummaryStore> = Arc::new(MemoryStore::new());
        warmup.push(run::pass(generate(&plan, None), JOBS, &store, None));
    }

    // Measurement: closed-loop passes until the time is up. A traced run
    // alternates untraced and traced passes, so the overhead of tracing
    // is measured on the same inputs in the same process.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let enough = |done: &Vec<Pass>| done.len() >= MIN_PASSES;
        if start.elapsed() >= budget && enough(&untraced) && (!args.trace || enough(&traced)) {
            break;
        }
        let trace_this = args.trace && traced.len() < untraced.len();
        let inputs = match &template {
            Some(template) => template.clone(),
            None => {
                let reps = if w == Workload::Ladder {
                    LADDER_SETUP_REPS
                } else {
                    1
                };
                let mut inputs = Vec::new();
                for rep in 1..=reps {
                    // Only the generation whose inputs the pass uses is traced.
                    let t = Instant::now();
                    inputs = generate(&plan, tracing(trace_this && rep == reps, traced.len()));
                    setup_s.push(t.elapsed().as_secs_f64());
                }
                inputs
            }
        };
        let store: Arc<dyn SummaryStore> = match w {
            // A new instance per pass starts with an empty in-memory
            // artifact map, so a warm pass reads every entry from disk as
            // a freshly started process would.
            Workload::FdroidWarm => Arc::new(open_disk(store_dir)?),
            Workload::Ladder | Workload::Fdroid => Arc::new(MemoryStore::new()),
        };
        let pass = run::pass(inputs, JOBS, &store, tracing(trace_this, traced.len()));
        if trace_this {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        if args.write_reference {
            break;
        }
    }
    for dir in &store_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }

    if args.write_reference {
        let path = reference_path(w);
        write_reference(&path, &untraced[0])?;
        println!("wrote {}", path.display());
        return Ok(());
    }

    // The reference each app's digest must match: the recorded one at the
    // default seed, otherwise the cold set-up pass (warm workload) or the
    // first measured pass.
    let reference: HashMap<String, u64> = match (reference, &cold) {
        (Some(recorded), _) => recorded,
        (None, Some(cold)) => digests(cold),
        (None, None) => digests(&untraced[0]),
    };

    let measured = Measured {
        workload: w,
        jobs: sierra_core::engine::effective_jobs(JOBS, plan.len()),
        setup_s,
        warmup,
        untraced,
        traced,
        recorder,
        store_usage,
        inputs: plan.iter().enumerate().map(|(id, p)| (id, p.1)).collect(),
    };
    let out = report::build(&measured, &reference, args.trace);
    for line in &out.lines {
        println!("{line}");
    }
    if let Some(settle_s) = settle_s {
        println!("disk settled before timing in {settle_s:.2} s (untimed)");
    }
    if args.trace {
        let path = out_dir.join(format!("trace-{}.json", w.name()));
        let doc = trace::chrome_trace(&measured.recorder.spans(), w.name(), args.seed);
        std::fs::create_dir_all(&out_dir)
            .and_then(|_| std::fs::write(&path, doc.render()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }
    println!("{}", out.result.render());
    Ok(())
}

extern "C" {
    /// `sync(2)`: on Linux, returns once every dirty page and inode has
    /// been written.
    fn sync();
}

fn sync_disks() {
    // SAFETY: `sync` takes no arguments, touches no memory of this
    // process and cannot fail.
    unsafe { sync() }
}

fn digests(pass: &Pass) -> HashMap<String, u64> {
    pass.apps
        .iter()
        .filter_map(|a| {
            a.answer
                .as_ref()
                .ok()
                .map(|ans| (a.name.clone(), ans.digest))
        })
        .collect()
}
