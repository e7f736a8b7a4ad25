//! The benchmark's workloads and the inputs each generates from its seed.

use android_model::AndroidApp;
use corpus::GroundTruth;
use sierra_core::SierraResult;
use sierra_prng::SplitMix64;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One synthesized app per rung of a size ladder: the super-linear
    /// layers dominate.
    Ladder,
    /// An F-Droid-shaped corpus on two jobs against a cold in-memory
    /// store: many small apps, where the fixed per-app work dominates.
    Fdroid,
    /// The same corpus re-scanned against an on-disk store that set-up
    /// filled with one cold pass: the only workload that reads a store.
    FdroidWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Ladder, Workload::Fdroid, Workload::FdroidWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ladder => "ladder",
            Workload::Fdroid => "fdroid",
            Workload::FdroidWarm => "fdroid_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name of the input set, which also names its reference file:
    /// both F-Droid workloads scan the same corpus.
    pub fn corpus(self) -> &'static str {
        match self {
            Workload::Ladder => "ladder",
            Workload::Fdroid | Workload::FdroidWarm => "fdroid",
        }
    }
}

/// Activity counts of the ladder's rungs: powers of 2 from 32 to 512, so
/// the log-log slope fit has evenly spaced points. With five apps per
/// pass, the pooled median and 90th percentile of per-app latency fall in
/// the middle of one app's samples (the 128- and 512-activity rungs)
/// rather than between two apps', where the estimate would shift with the
/// number of passes a run completes.
pub const RUNGS: [usize; 5] = [32, 64, 128, 256, 512];

/// One generated app with its planted-race labels.
#[derive(Debug, Clone)]
pub struct Input {
    /// Position in the workload; spans of this app carry it as their id.
    pub id: usize,
    pub name: String,
    pub activities: usize,
    pub app: AndroidApp,
    pub truth: GroundTruth,
}

/// A per-item seed derived from the run's seed (SplitMix64 finalizer,
/// so neighbouring seeds give unrelated apps).
fn mix(seed: u64, item: u64) -> u64 {
    SplitMix64::new(seed ^ item.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The activity counts of the workload's apps, in scan order, before
/// synthesis. The ladder scans its rungs largest first: on two workers
/// the top rung runs alongside all the others, so every app meets the
/// same co-runner on every pass and the pass ends when the top rung does
/// (smallest first, each app met whichever neighbour was running, and its
/// latency swung with that). The F-Droid corpus keeps the size
/// distribution of `corpus::fdroid` (log-normal around the paper's 1.1 MB
/// median, so median 9 and at most 32 activities); the seed shuffles the
/// scan order and picks every app's contents.
pub fn plan(workload: Workload, seed: u64) -> Vec<(String, usize, u64)> {
    match workload {
        Workload::Ladder => RUNGS
            .iter()
            .rev()
            .map(|&n| (format!("Ladder{seed}n{n}"), n, mix(seed, n as u64)))
            .collect(),
        Workload::Fdroid | Workload::FdroidWarm => {
            let mut order: Vec<usize> = (0..corpus::fdroid::APP_COUNT).collect();
            let mut rng = SplitMix64::new(seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.usize(i + 1));
            }
            order
                .into_iter()
                .map(|i| {
                    let activities = corpus::twenty::activity_count(corpus::fdroid::size_kb(i));
                    let name = format!("org.fdroid.s{seed}.app{i:03}");
                    (name, activities, mix(seed, i as u64))
                })
                .collect()
        }
    }
}

/// Synthesizes one planned app.
pub fn synthesize(id: usize, (name, activities, seed): &(String, usize, u64)) -> Input {
    let (app, truth) = corpus::twenty::synthesize(name, *activities, *seed);
    Input {
        id,
        name: name.clone(),
        activities: *activities,
        app,
        truth,
    }
}

/// FNV-1a digest of the ranked race list as the report prints it.
pub fn race_digest(result: &SierraResult) -> u64 {
    let program = &result.harness.app.program;
    let actions = &result.analysis.actions;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for race in &result.races {
        for b in race.describe(program, actions).bytes().chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Planted-race scoring of one app's reports: `(true races, reported
/// groups, planted true races)`.
pub fn score(result: &SierraResult, truth: &GroundTruth) -> (usize, usize, usize) {
    let p = &result.harness.app.program;
    let groups: Vec<(String, String)> = result
        .races
        .iter()
        .map(|r| {
            let f = p.field(r.field);
            (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
        })
        .collect();
    let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
    (
        eval.true_races,
        eval.reported,
        eval.true_races + eval.missed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_follow_the_seed() {
        assert_eq!(plan(Workload::Fdroid, 3), plan(Workload::FdroidWarm, 3));
        assert_ne!(plan(Workload::Fdroid, 3), plan(Workload::Fdroid, 4));
        let mut sizes: Vec<usize> = plan(Workload::Fdroid, 3).iter().map(|p| p.1).collect();
        let mut other: Vec<usize> = plan(Workload::Fdroid, 4).iter().map(|p| p.1).collect();
        sizes.sort_unstable();
        other.sort_unstable();
        assert_eq!(sizes, other, "the seed never changes the size distribution");
        assert_eq!(sizes.len(), 174);
        assert_eq!(sizes[sizes.len() / 2], 9);
        assert_eq!(sizes.last(), Some(&32));
        let ladder = plan(Workload::Ladder, 3);
        let largest_first: Vec<usize> = RUNGS.iter().rev().copied().collect();
        assert_eq!(
            ladder.iter().map(|p| p.1).collect::<Vec<_>>(),
            largest_first
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
