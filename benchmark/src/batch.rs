//! `mall_match` and `taxi_match`: the paper's matching task (§VI-B).
//!
//! The timed operation is exactly what `sts_eval::matching_ranks` does
//! with an `StsMatrix`: the full D(1)×D(2) STS matrix through the
//! repository's matrix engine, then the ranks of the true matches. A
//! round runs it once for every scenario of the run; rounds repeat
//! while another fits in `--seconds`, and every matrix is checked.
//!
//! Batch has no per-request latencies, yet every end-to-end metric is
//! reported on every workload. Here the latency family is the engine's
//! service time per unit of work, from a round's wall time `W` with `n`
//! worker threads: `coloc_*` is `W·n / pairs` (one pair score) and
//! `topk_*` is `W·n / queries` (one query ranked against every
//! candidate), each the median over rounds. They move with
//! `pairs_per_s` by construction.

use crate::reference::{self, Matrix};
use crate::span::{self, span};
use crate::util::{self, mean, median, quantile, subseed};
use crate::{Args, Outcome};
use std::time::{Duration, Instant};
use sts_core::{
    GaussianNoise, PreparedTrajectory, SpeedKdeTransition, StpCacheMode, StpEstimator, StpScratch,
    Sts, StsConfig,
};
use sts_eval::matching::StsMatrix;
use sts_eval::metrics::ranks_of_true_matches;
use sts_eval::scenario::ScenarioKind;
use sts_eval::{MatrixMeasure, Scenario, ScenarioConfig};
use sts_geo::Grid;
use sts_rng::{Rng, Xoshiro256pp};
use sts_traj::{MatchingPairs, Trajectory};

/// Set-up passes run in slots of `SETUP_SLOT`: one before the first
/// matrix and one after each matrix that ends `SETUP_EVERY` or more of
/// matrix time since the last slot, so they sample the host across the
/// whole run. `setup_s` is the median of every pass.
const SETUP_SLOT: Duration = Duration::from_millis(500);
const SETUP_EVERY: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mall,
    Taxi,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mall => "mall_match",
            Kind::Taxi => "taxi_match",
        }
    }

    /// Independent scenarios per seed. A mall scenario's cost per pair
    /// swings ±12% from seed to seed with 16 or 24 objects alike, a
    /// property of the whole scenario that more objects do not average
    /// out, so a run matches four scenarios of 16 objects. The taxi cost
    /// per pair varies little between seeds.
    fn parts(self) -> usize {
        match self {
            Kind::Mall => 4,
            Kind::Taxi => 1,
        }
    }

    /// Objects generated per scenario: the mall is kernel-bound
    /// (~50 ms per pair at the 3 m grid), the taxi matrix engine-bound
    /// (~63k mostly non-overlapping pairs).
    fn objects(self) -> usize {
        match self {
            Kind::Mall => 16,
            Kind::Taxi => 256,
        }
    }

    /// Cells per scenario re-scored by the uncached oracle when no
    /// stored reference exists for the seed.
    fn oracle_cells(self) -> usize {
        match self {
            Kind::Mall => 4,
            Kind::Taxi => 64,
        }
    }

    /// `StpEstimator::stp` evaluations per kind (observed / bridge) in
    /// the traced run.
    fn stp_samples(self) -> usize {
        match self {
            Kind::Mall => 64,
            Kind::Taxi => 256,
        }
    }
}

/// One generated scenario of a run.
pub struct Part {
    pub pairs: MatchingPairs,
    pub grid: Grid,
    pub config: StsConfig,
}

/// A scenario with exactly `objects` matching pairs. The scenario drops
/// trajectories shorter than the paper's 20 points, so more objects are
/// generated until enough survive and the first `objects` are kept: a
/// dropped object would leave the mall's 16×16 matrix at 15×15, dealt to
/// the engine's two threads as uneven 64-pair chunks.
fn part(kind: Kind, objects: usize, seed: u64) -> Part {
    let kind_of = match kind {
        Kind::Mall => ScenarioKind::Mall,
        Kind::Taxi => ScenarioKind::Taxi,
    };
    let mut generated = objects;
    let mut scenario = loop {
        let s = Scenario::build(ScenarioConfig {
            kind: kind_of,
            n_objects: generated,
            seed,
        });
        if s.pairs.d1.len() >= objects {
            break s;
        }
        generated += objects - s.pairs.d1.len();
    };
    scenario.pairs.d1.truncate(objects);
    scenario.pairs.d2.truncate(objects);
    Part {
        grid: scenario.default_grid(),
        config: StsConfig {
            noise_sigma: scenario.scale.noise_sigma,
            ..StsConfig::default()
        },
        pairs: scenario.pairs,
    }
}

/// The run's scenarios: the seed itself for a single scenario, sub-seeds
/// of it otherwise.
pub fn input(kind: Kind, objects: usize, seed: u64) -> Vec<Part> {
    match kind.parts() {
        1 => vec![part(kind, objects, seed)],
        n => (0..n as u64)
            .map(|k| part(kind, objects, subseed(seed, 100 + k)))
            .collect(),
    }
}

impl Part {
    fn trajectories(&self) -> impl Iterator<Item = &Trajectory> {
        self.pairs.d1.iter().chain(&self.pairs.d2)
    }

    fn cells(&self) -> usize {
        self.pairs.d1.len() * self.pairs.d2.len()
    }

    /// Cells of trajectories that cannot be prepared: a failed
    /// trajectory costs every cell of its row or column.
    fn unpreparable_cells(&self, ok: &[bool]) -> usize {
        let (nq, nc) = (self.pairs.d1.len(), self.pairs.d2.len());
        let rows = ok[..nq].iter().filter(|ok| !**ok).count();
        let cols = ok[nq..].iter().filter(|ok| !**ok).count();
        rows * nc + cols * nq - rows * cols
    }
}

/// One set-up pass: `Sts::new` plus one `prepare` of every trajectory,
/// for every scenario. Returns its wall time and, per scenario, which
/// trajectories could be prepared.
fn setup_once(parts: &[Part]) -> (f64, Vec<Vec<bool>>) {
    let inputs: Vec<_> = parts
        .iter()
        .map(|p| (p.config.clone(), p.grid.clone()))
        .collect();
    let started = Instant::now();
    let ok = parts
        .iter()
        .zip(inputs)
        .map(|(p, (config, grid))| {
            let sts = span("bench.sts.new", || Sts::new(config, grid));
            p.trajectories()
                .map(|t| span("bench.sts.prepare", || sts.prepare(t)).is_ok())
                .collect()
        })
        .collect();
    (started.elapsed().as_secs_f64(), ok)
}

/// One matching task: the matrix and the ranks, with its wall time.
fn matching(measure: &StsMatrix, pairs: &MatchingPairs) -> (Vec<Vec<f64>>, Vec<usize>, Duration) {
    let started = Instant::now();
    let matrix = span("bench.eval.matrix", || measure.matrix(&pairs.d1, &pairs.d2));
    let ranks = ranks_of_true_matches(&matrix);
    (matrix, ranks, started.elapsed())
}

/// How every matrix of a scenario is checked.
enum Check {
    /// The stored reference: every cell and every rank.
    Stored(Matrix),
    /// A seeded sample of cells re-scored by the uncached oracle.
    Oracle(Vec<(usize, usize, f64)>),
}

impl Check {
    fn apply(&self, matrix: &[Vec<f64>], ranks: &[usize]) -> (u64, u64) {
        match self {
            Check::Stored(r) => reference::compare(matrix, ranks, r),
            Check::Oracle(cells) => {
                let equal = cells
                    .iter()
                    .filter(|&&(i, j, want)| {
                        matrix
                            .get(i)
                            .and_then(|row| row.get(j))
                            .is_some_and(|&v| (v - want).abs() <= reference::CELL_TOLERANCE)
                    })
                    .count();
                (cells.len() as u64, equal as u64)
            }
        }
    }
}

/// Scores a seeded sample of cells with `StpCacheMode::Off`, the
/// uncached path the cached kernel must reproduce. Half the sample is
/// drawn from the cells of `matrix` that are non-zero, so a workload
/// whose pairs mostly never meet still checks real scores.
fn oracle_sample(p: &Part, matrix: &[Vec<f64>], n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let (rows, cols) = (p.pairs.d1.len(), p.pairs.d2.len());
    let nonzero: Vec<(usize, usize)> = (0..rows)
        .flat_map(|i| (0..cols).map(move |j| (i, j)))
        .filter(|&(i, j)| matrix[i][j] != 0.0)
        .collect();
    let oracle = Sts::new(p.config.clone(), p.grid.clone()).with_cache_mode(StpCacheMode::Off);
    (0..n)
        .map(|k| {
            let (i, j) = if k % 2 == 0 && !nonzero.is_empty() {
                nonzero[rng.random_range(0..nonzero.len())]
            } else {
                (rng.random_range(0..rows), rng.random_range(0..cols))
            };
            let a = oracle.prepare(&p.pairs.d1[i]);
            let b = oracle.prepare(&p.pairs.d2[j]);
            let want = match (a, b) {
                (Ok(a), Ok(b)) => oracle.similarity_prepared(&a, &b),
                _ => 0.0,
            };
            (i, j, want)
        })
        .collect()
}

/// Everything the timed loop of one run produced.
struct Runs<'a> {
    kind: Kind,
    parts: &'a [Part],
    measures: Vec<StsMatrix>,
    checks: Vec<Option<Check>>,
    seed: u64,
    /// Wall time of each round's matrices, one entry per scenario.
    rounds: Vec<Vec<Duration>>,
    setups: Vec<f64>,
    /// Matrix time since the last slot of set-up passes.
    since_setups: Duration,
    prepared_ok: Vec<Vec<bool>>,
    checked: u64,
    equal: u64,
}

impl Runs<'_> {
    /// One slot of set-up passes.
    fn setups(&mut self) {
        let passes = util::passes(1, SETUP_SLOT, || {
            Ok::<_, std::convert::Infallible>(setup_once(self.parts))
        });
        for (s, ok) in passes.unwrap_or_else(|never| match never {}) {
            self.setups.push(s);
            self.prepared_ok = ok;
        }
        self.since_setups = Duration::ZERO;
    }

    /// Rounds of every scenario's matching task: at least one, and
    /// another only while it fits in what is left of `budget`. Returns
    /// the range of rounds it added.
    fn rounds(&mut self, budget: Duration) -> std::ops::Range<usize> {
        let first = self.rounds.len();
        let mut spent = Duration::ZERO;
        loop {
            let mut walls = Vec::new();
            for k in 0..self.parts.len() {
                let (matrix, ranks, wall) = matching(&self.measures[k], &self.parts[k].pairs);
                walls.push(wall);
                self.since_setups += wall;
                if self.since_setups >= SETUP_EVERY {
                    self.setups();
                }
                let (part, seed, n) = (&self.parts[k], self.seed, self.kind.oracle_cells());
                let check = self.checks[k].get_or_insert_with(|| {
                    Check::Oracle(oracle_sample(
                        part,
                        &matrix,
                        n,
                        subseed(seed, 200 + k as u64),
                    ))
                });
                let (c, e) = check.apply(&matrix, &ranks);
                self.checked += c;
                self.equal += e;
            }
            let round: Duration = walls.iter().sum();
            spent += round;
            self.rounds.push(walls);
            if spent + round > budget {
                return first..self.rounds.len();
            }
        }
    }

    /// Median round wall time (ms) over `range`.
    fn median_round_ms(&self, range: std::ops::Range<usize>) -> f64 {
        let ms: Vec<f64> = self.rounds[range]
            .iter()
            .map(|r| r.iter().sum::<Duration>().as_secs_f64() * 1e3)
            .collect();
        median(&ms)
    }
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let parts = input(kind, kind.objects(), args.seed);
    let threads = crate::util::threads() as f64;
    let stored = reference::load(kind.name(), args.seed)?;
    let pairs: Vec<String> = parts
        .iter()
        .map(|p| format!("{}×{}", p.pairs.d1.len(), p.pairs.d2.len()))
        .collect();
    eprintln!(
        "{}: seed {} · pairs {} · {} grid cells · {} threads · reference: {}",
        kind.name(),
        args.seed,
        pairs.join(" + "),
        parts[0].grid.len(),
        threads,
        if stored.is_some() {
            "stored"
        } else {
            "uncached oracle sample"
        }
    );
    let checks = match stored {
        Some(r) if r.len() == parts.len() => {
            r.into_iter().map(|m| Some(Check::Stored(m))).collect()
        }
        Some(r) => {
            return Err(format!(
                "stored reference has {} matrices, run has {}",
                r.len(),
                parts.len()
            ))
        }
        None => parts.iter().map(|_| None).collect(),
    };
    let mut runs = Runs {
        kind,
        parts: &parts,
        measures: parts
            .iter()
            .map(|p| StsMatrix(Sts::new(p.config.clone(), p.grid.clone())))
            .collect(),
        checks,
        seed: args.seed,
        rounds: Vec::new(),
        setups: Vec::new(),
        since_setups: Duration::ZERO,
        prepared_ok: Vec::new(),
        checked: 0,
        equal: 0,
    };

    span::set_enabled(args.trace);
    runs.setups();
    span::set_enabled(false);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut out = Outcome::default();
    if args.trace {
        let plain = runs.rounds(budget / 2);
        span::set_enabled(true);
        let before = sts_obs::metrics::global().snapshot();
        let traced = runs.rounds(budget / 2);
        let after = sts_obs::metrics::global().snapshot();
        // Every matrix of a scenario does the same STP work whatever the
        // thread interleaving (the cache fills each timestamp exactly
        // once), so these ratios do not depend on how many rounds ran.
        layer_counts(&mut out, &before, &after);
        out.metrics.insert(
            "trace.overhead_pct",
            (runs.median_round_ms(traced.clone()) / runs.median_round_ms(plain) - 1.0) * 100.0,
        );
        let first_matrix_s: Vec<f64> = runs.rounds[traced]
            .iter()
            .map(|r| r[0].as_secs_f64())
            .collect();
        layer_probes(
            kind,
            &parts,
            &mut out,
            median(&first_matrix_s) * threads,
            args.seed,
        );
    } else {
        runs.rounds(budget);
    }
    span::set_enabled(false);

    // Batch has one service time per unit of work, not a distribution:
    // the tail metrics carry the same median as the p50 metrics.
    let cells: f64 = parts.iter().map(|p| p.cells() as f64).sum();
    let queries: f64 = parts.iter().map(|p| p.pairs.d1.len() as f64).sum();
    let round_ms: Vec<f64> = runs
        .rounds
        .iter()
        .map(|r| r.iter().sum::<Duration>().as_secs_f64() * 1e3)
        .collect();
    let per = |unit: f64| {
        median(
            &round_ms
                .iter()
                .map(|w| w * threads / unit)
                .collect::<Vec<_>>(),
        )
    };
    let pps = median(
        &round_ms
            .iter()
            .map(|w| cells / (w * 1e-3))
            .collect::<Vec<_>>(),
    );
    let m = &mut out.metrics;
    m.insert("pairs_per_s", pps);
    m.insert("coloc_p50_ms", per(cells));
    m.insert("coloc_p99_ms", per(cells));
    m.insert("topk_p50_ms", per(queries));
    m.insert("topk_p90_ms", per(queries));
    m.insert(
        "answer_quality",
        runs.equal as f64 / runs.checked.max(1) as f64,
    );
    m.insert("setup_s", median(&runs.setups));
    for name in SERVE_LAYERS {
        m.entry(name).or_insert(0.0);
    }

    let bad_cells: usize = parts
        .iter()
        .zip(&runs.prepared_ok)
        .map(|(p, ok)| p.unpreparable_cells(ok))
        .sum();
    let n_rounds = runs.rounds.len() as u64;
    out.attempted = cells as u64 * n_rounds;
    out.failed = bad_cells as u64 * n_rounds;
    out.correct = runs.checked > 0 && runs.equal == runs.checked && out.failed == 0;
    eprintln!(
        "{}: {n_rounds} rounds · median round {:.1} ms · {pps:.1} pairs/s · setup {:.4} s ({} passes) · \
         checked {} outputs, {} equal",
        kind.name(),
        median(&round_ms),
        median(&runs.setups),
        runs.setups.len(),
        runs.checked,
        runs.equal,
    );
    Ok(out)
}

/// Per-layer metrics batch workloads never exercise.
const SERVE_LAYERS: [&str; 12] = [
    "serve.flush_ms",
    "serve.apply_us",
    "serve.coloc_ms",
    "serve.topk_ms",
    "wal.commit_ms",
    "wal.commits",
    "server.shed_busy",
    "server.queries_stale",
    "server.queries_deadline",
    "server.queue_depth_max",
    "isolate.roundtrip_us",
    "loadgen.late_ms_max",
];

/// STP work counters of the kernel, per scored pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    pub evals_per_pair: f64,
    pub cells_per_eval: f64,
    pub hit_ratio: f64,
}

pub fn counts(before: &sts_obs::Snapshot, after: &sts_obs::Snapshot) -> Counts {
    let delta = after.since(before);
    let c = |name: &str| delta.counter(name).unwrap_or(0) as f64;
    let (evals, pairs) = (c("core.stp.evals"), c("core.pairs.scored"));
    let (hits, misses) = (c("core.stp.cache_hits"), c("core.stp.cache_misses"));
    Counts {
        evals_per_pair: evals / pairs.max(1.0),
        cells_per_eval: c("core.stp.cells") / evals.max(1.0),
        hit_ratio: hits / (hits + misses).max(1.0),
    }
}

fn layer_counts(out: &mut Outcome, before: &sts_obs::Snapshot, after: &sts_obs::Snapshot) {
    let c = counts(before, after);
    out.metrics
        .insert("stprob.evals_per_pair", c.evals_per_pair);
    out.metrics
        .insert("stprob.cells_per_eval", c.cells_per_eval);
    out.metrics.insert("stpcache.hit_ratio", c.hit_ratio);
}

/// The single-layer probes of the traced run: one thread scoring every
/// pair of the first scenario through `similarity_prepared_with`, and
/// `StpEstimator::stp` at seeded observation and between-observation
/// times. `matrix_thread_s` is the traced engine's thread time for that
/// scenario's matrix.
fn layer_probes(kind: Kind, parts: &[Part], out: &mut Outcome, matrix_thread_s: f64, seed: u64) {
    let p = &parts[0];
    let sts = Sts::new(p.config.clone(), p.grid.clone());
    let prep = |t: &Trajectory| span("bench.sts.prepare", || sts.prepare(t)).ok();
    let q: Vec<Option<PreparedTrajectory>> = p.pairs.d1.iter().map(prep).collect();
    let c: Vec<Option<PreparedTrajectory>> = p.pairs.d2.iter().map(prep).collect();
    let mut scratch = StpScratch::new();
    for a in q.iter().flatten() {
        for b in c.iter().flatten() {
            std::hint::black_box(span("bench.sts.pair", || {
                sts.similarity_prepared_with(a, b, &mut scratch)
            }));
        }
    }
    let pair_ms: Vec<f64> = span::durations_ns("bench.sts.pair")
        .iter()
        .map(|n| n * 1e-6)
        .collect();
    let prepare_us: Vec<f64> = span::durations_ns("bench.sts.prepare")
        .iter()
        .map(|n| n * 1e-3)
        .collect();
    let m = &mut out.metrics;
    m.insert("sts.pair_ms_p50", median(&pair_ms));
    m.insert("sts.pair_ms_p99", quantile(&pair_ms, 0.99));
    m.insert("sts.prepare_us", median(&prepare_us));
    m.insert(
        "engine.parallel_efficiency",
        pair_ms.iter().sum::<f64>() * 1e-3 / matrix_thread_s,
    );
    let noise = GaussianNoise::with_truncation(p.config.noise_sigma, p.config.truncation_k);
    let trajectories = parts.iter().flat_map(|p| p.trajectories()).collect();
    let cells = stp_probe(&p.grid, &noise, trajectories, kind.stp_samples(), seed);
    let ns_us = |name| mean(&span::durations_ns(name)) * 1e-3;
    m.insert("stprob.bridge_us", ns_us("bench.stprob.bridge"));
    m.insert("stprob.observed_us", ns_us("bench.stprob.observed"));
    m.insert("stprob.bridge_cells", cells);
}

/// Evaluates `StpEstimator::stp` at `n` seeded observation times and `n`
/// seeded between-observation times over `trajectories`, inside
/// `bench.stprob.observed` / `bench.stprob.bridge` spans. Returns the mean support
/// size of the bridge distributions.
pub fn stp_probe(
    grid: &Grid,
    noise: &GaussianNoise,
    trajectories: Vec<&Trajectory>,
    n: usize,
    seed: u64,
) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(subseed(seed, 3));
    let usable: Vec<&Trajectory> = trajectories.into_iter().filter(|t| t.len() >= 2).collect();
    let models: Vec<Option<SpeedKdeTransition>> = usable
        .iter()
        .map(|t| {
            SpeedKdeTransition::from_trajectory(t, sts_stats::Kernel::Gaussian)
                .ok()
                .map(|m| m.with_position_uncertainty(grid.cell_size() / 2.0))
        })
        .collect();
    let mut support = Vec::new();
    for k in 0..2 * n {
        let i = rng.random_range(0..usable.len());
        let (traj, Some(model)) = (usable[i], &models[i]) else {
            continue;
        };
        let est = StpEstimator::new(grid, noise, model, traj);
        let j = rng.random_range(0..traj.len() - 1);
        if k % 2 == 0 {
            let t = traj.get(j).t;
            std::hint::black_box(span("bench.stprob.observed", || est.stp(t)));
        } else {
            let (t0, t1) = (traj.get(j).t, traj.get(j + 1).t);
            let t = t0 + (t1 - t0) * (0.05 + 0.9 * rng.random::<f64>());
            let d = span("bench.stprob.bridge", || est.stp(t));
            support.push(d.entries().len() as f64);
        }
    }
    mean(&support)
}

/// Writes the stored reference for `args.seed`: the matching output of
/// every scenario, after a seeded sample of its cells has been checked
/// against the uncached oracle (scoring whole taxi matrices uncached
/// takes far too long to be the writer itself).
pub fn write_reference(args: &Args) -> Result<std::path::PathBuf, String> {
    let kind = match args.workload.as_str() {
        "mall_match" => Kind::Mall,
        "taxi_match" => Kind::Taxi,
        other => return Err(format!("{other} keeps no stored reference")),
    };
    let mut matrices = Vec::new();
    for (k, p) in input(kind, kind.objects(), args.seed).iter().enumerate() {
        let measure = StsMatrix(Sts::new(p.config.clone(), p.grid.clone()));
        let (cells, ranks, _) = matching(&measure, &p.pairs);
        let seed = subseed(args.seed, 300 + k as u64);
        let sample = oracle_sample(p, &cells, 4 * kind.oracle_cells(), seed);
        let (checked, equal) = Check::Oracle(sample).apply(&cells, &ranks);
        if checked != equal {
            return Err(format!(
                "scenario {k}: {equal} of {checked} cells match the uncached oracle"
            ));
        }
        matrices.push(Matrix {
            rows: cells.len(),
            cols: p.pairs.d2.len(),
            ranks,
            cells,
        });
    }
    let path = reference::path(kind.name(), args.seed);
    std::fs::write(&path, reference::encode(kind.name(), args.seed, &matrices))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::KERNEL_COUNTERS;

    fn one_matrix_counts(kind: Kind, objects: usize) -> (Counts, f64) {
        let p = part(kind, objects, 7);
        let measure = StsMatrix(Sts::new(p.config.clone(), p.grid.clone()));
        let before = sts_obs::metrics::global().snapshot();
        matching(&measure, &p.pairs);
        let after = sts_obs::metrics::global().snapshot();
        let noise = GaussianNoise::with_truncation(p.config.noise_sigma, p.config.truncation_k);
        let cells = stp_probe(&p.grid, &noise, p.trajectories().collect(), 16, 7);
        (counts(&before, &after), cells)
    }

    #[test]
    fn counts_repeat_exactly_across_same_seed_runs() {
        let _serial = KERNEL_COUNTERS.lock().unwrap();
        for (kind, objects) in [(Kind::Mall, 4), (Kind::Taxi, 24)] {
            let first = one_matrix_counts(kind, objects);
            let second = one_matrix_counts(kind, objects);
            assert_eq!(first, second, "{kind:?}");
            assert!(
                first.0.evals_per_pair > 0.0 && first.1 > 0.0,
                "{kind:?}: {first:?}"
            );
        }
    }

    #[test]
    fn perturbed_reference_drops_answer_quality_on_a_real_matrix() {
        let _serial = KERNEL_COUNTERS.lock().unwrap();
        let p = part(Kind::Mall, 4, 3);
        let measure = StsMatrix(Sts::new(p.config.clone(), p.grid.clone()));
        let (cells, ranks, _) = matching(&measure, &p.pairs);
        let r = Matrix {
            rows: cells.len(),
            cols: cells[0].len(),
            ranks: ranks.clone(),
            cells: cells.clone(),
        };
        let good = Check::Stored(r.clone()).apply(&cells, &ranks);
        assert_eq!(good.0, good.1);
        let mut bad = r;
        bad.cells[0][1] += 1e-6;
        let (checked, equal) = Check::Stored(bad).apply(&cells, &ranks);
        assert!(equal < checked, "{equal} of {checked}");
        // The oracle sample agrees with the cached kernel, and stops
        // agreeing once one of its values is off.
        let sample = oracle_sample(&p, &cells, 4, 3);
        let ok = Check::Oracle(sample.clone()).apply(&cells, &ranks);
        assert_eq!(ok, (4, 4));
        let mut off = sample;
        off[0].2 += 1e-6;
        assert_eq!(Check::Oracle(off).apply(&cells, &ranks), (4, 3));
    }

    #[test]
    fn stored_references_decode_and_match_the_run_shape() {
        for kind in [Kind::Mall, Kind::Taxi] {
            if let Some(r) = reference::load(kind.name(), 1).unwrap() {
                assert_eq!(r.len(), kind.parts(), "{kind:?}");
            }
        }
    }
}
