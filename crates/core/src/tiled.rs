//! The matrix engine: supervised similarity matrices, in memory or
//! out of core in crash-safe tiles.
//!
//! Every supervised matrix job runs here. The pair space is dealt into
//! **tiles** ([`TileConfig::tile_pairs`] pairs each, derivable from a
//! byte budget via [`TileConfig::with_memory_budget`]); each tile is
//! computed on the configured engine — the in-process pool, or one
//! `sts-worker` fleet per job under the lease coordinator in
//! [`crate::shard`], per [`JobConfig::exec`](crate::job::JobConfig::exec)
//! — and the cells are stream-merged tile by tile into the caller's
//! sink.
//! [`Sts::similarity_matrix_supervised`] is the engine with no tiling:
//! one whole-space tile held in memory, scored by one pool run over
//! `chunk_pairs` chunks, with no storage, no tile encoding and no
//! read-back.
//!
//! [`Sts::similarity_matrix_tiled`] removes the memory bound without
//! weakening a single supervised guarantee:
//!
//! * each completed tile is **spilled** to its own file through the
//!   [`Storage`](sts_runtime::Storage) trait (tmp write → fsync →
//!   rename → dir fsync) and **read-back verified** before the
//!   in-memory copy is dropped;
//! * tile files are bound to the job fingerprint and digest-protected
//!   ([`sts_runtime::tile`]): a torn write, flipped byte or stale file
//!   is *detected*, quarantined aside as `.corrupt` evidence and
//!   recomputed — never silently read back;
//! * completed tiles are the job's only crash-safe state: a killed job
//!   resumes by reloading verified tiles and recomputing only the
//!   rest, so the resumed result is byte-identical to an uninterrupted
//!   run (the default [`StpCacheMode::Exact`](crate::StpCacheMode)
//!   scoring path is deterministic and visitation-order independent);
//! * the merge holds at most one tile plus any spill-failed fallbacks
//!   — the honest bound is reported as
//!   [`TileStats::max_resident_cells`] and the measured one as
//!   [`TileStats::peak_rss_bytes`].
//!
//! A spill failure (ENOSPC, verification failure on read-back) costs
//! durability for that tile, not correctness: the tile is served from
//! memory and counted in [`TileStats::spill_errors`]. The disk-chaos
//! suite in `sts-robust` drives torn writes, bit flips, ENOSPC and
//! stale-tmp crashes through this engine via an injected `Storage`
//! implementation and asserts bit-identical results with every
//! corruption detected.

use crate::batch::{prepare_all, BatchReport, PairOutcome};
use crate::job::{
    is_terminal, job_fingerprint, job_telemetry, zeroed_stats, ExecMode, JobConfig, JobError,
    JobReport,
};
use crate::shard::{FleetRun, ShardOptions};
use crate::sts::{sort_scores_descending, PreparedTrajectory, Sts};
use crate::worker;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sts_obs::trace;
use sts_runtime::pool::{run_supervised_with, ChunkStatus, PoolConfig};
use sts_runtime::{
    Budget, CellRecord, FsStorage, IsolateStats, JobState, PairChunk, PairSpace, StopReason,
    Storage, TileData, TileError, TileStats, TileStore,
};
use sts_traj::Trajectory;

/// Rough in-memory footprint of one resident cell record (outcome enum
/// plus `Vec` slack), used by [`TileConfig::with_memory_budget`] to
/// turn a byte budget into a tile size. Deliberately conservative.
pub const TILE_CELL_BYTES: usize = 64;

/// How a tiled job spills and resumes: the tile directory, the tile
/// granularity and the storage implementation all tile I/O goes
/// through (the chaos suite injects a fault-raising one).
#[derive(Clone)]
pub struct TileConfig {
    /// Directory holding the per-tile spill files (created if absent).
    /// A directory left by a killed run of the *same* job is resumed
    /// from; tiles from a different job are detected by fingerprint
    /// and recomputed.
    pub dir: PathBuf,
    /// Pairs per tile — the spill granularity and the engine's
    /// resident-memory unit. Must be ≥ 1
    /// ([`JobError::InvalidTiling`] otherwise: a zero tile would
    /// schedule forever without progressing).
    pub tile_pairs: usize,
    /// Keep tile files after a run that resolved every pair (default:
    /// they are removed — quarantined `.corrupt` evidence is always
    /// kept). Interrupted runs always keep them; they are the resume
    /// state.
    pub keep_tiles: bool,
    /// The storage implementation behind every tile read and write.
    pub storage: Arc<dyn Storage>,
}

impl fmt::Debug for TileConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TileConfig")
            .field("dir", &self.dir)
            .field("tile_pairs", &self.tile_pairs)
            .field("keep_tiles", &self.keep_tiles)
            .finish_non_exhaustive()
    }
}

impl TileConfig {
    /// Spill to `dir` with the default tile size (4096 pairs) on the
    /// real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TileConfig {
            dir: dir.into(),
            tile_pairs: 4096,
            keep_tiles: false,
            storage: Arc::new(FsStorage),
        }
    }

    /// Derive the tile size from a resident-memory budget in bytes
    /// (at least one pair per tile, [`TILE_CELL_BYTES`] per cell).
    pub fn with_memory_budget(dir: impl Into<PathBuf>, budget_bytes: usize) -> Self {
        TileConfig {
            tile_pairs: (budget_bytes / TILE_CELL_BYTES).max(1),
            ..TileConfig::new(dir)
        }
    }
}

/// Where a tile's cells live between phase A (compute/spill) and
/// phase B (merge).
enum TileSource {
    /// Durably on disk, verified; reloaded one at a time at merge.
    Disk,
    /// Held in memory: the job is untiled, the spill failed, or the
    /// run stopped mid-tile (partial tiles are never spilled). Dense,
    /// tile-length.
    Memory(Vec<PairOutcome>),
    /// Never attempted — the run stopped before this tile.
    Skipped,
}

/// What every tile computation of one job shares.
struct JobCtx<'a> {
    cfg: &'a JobConfig,
    space: PairSpace,
    // Fields drop in declaration order. Freeing the candidates before
    // the queries lets the allocator hand the freed space back between
    // matrices; the reverse order measured ~10 MB more peak RSS on the
    // 256-taxi matrix benchmark.
    prepared_c: Vec<Option<PreparedTrajectory>>,
    prepared_q: Vec<Option<PreparedTrajectory>>,
    /// The worker fleet, when `cfg.exec` asks for one.
    fleet: Option<Fleet>,
}

/// A job's worker fleet, resolved once per job: the coordinator's
/// options, whether crash attribution is on (`Subprocess`), and the
/// preamble every worker starts from.
struct Fleet {
    opts: ShardOptions,
    attribute: bool,
    preamble: Vec<String>,
}

/// The engine's accounting across every tile it computes: scheduling
/// chunks, retries, time and isolation, as they end up in
/// [`JobStats`](sts_runtime::JobStats).
#[derive(Default)]
struct Tally {
    cell_retries: AtomicU64,
    pool_retries: u64,
    chunks_total: usize,
    chunks_completed: usize,
    chunks_failed: usize,
    slow_chunks: Vec<usize>,
    wait: Duration,
    run: Duration,
    isolate: Option<IsolateStats>,
}

impl Sts {
    /// The supervised similarity matrix computed **out of core**: same
    /// contract as
    /// [`similarity_matrix_supervised`](Sts::similarity_matrix_supervised)
    /// — budget, cancellation, retries, fault injection, in-process,
    /// subprocess or sharded execution — but progress is spilled per
    /// tile and the engine never holds more than one tile of cells
    /// (see the [module docs](crate::tiled)). The returned full matrix
    /// is the *caller's* memory; use
    /// [`top_k_matrix_tiled`](Sts::top_k_matrix_tiled) when the output
    /// itself must stay bounded.
    ///
    /// A run interrupted at any point — including SIGKILL mid-spill —
    /// resumes from `tiling.dir` with byte-identical results.
    pub fn similarity_matrix_tiled(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        cfg: &JobConfig,
        tiling: &TileConfig,
    ) -> Result<(Vec<Vec<PairOutcome>>, JobReport), JobError> {
        self.matrix_job(queries, candidates, cfg, Some(tiling))
    }

    /// Both matrix entry points: the engine's tiles, collected into
    /// the row-major matrix. Tiles arrive in ascending order, so each
    /// cell appends to its row.
    pub(crate) fn matrix_job(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        cfg: &JobConfig,
        tiling: Option<&TileConfig>,
    ) -> Result<(Vec<Vec<PairOutcome>>, JobReport), JobError> {
        let cols = candidates.len();
        let mut rows: Vec<Vec<PairOutcome>> = Vec::new();
        let report = self.matrix_engine(queries, candidates, cfg, tiling, &mut |start, outs| {
            if rows.is_empty() {
                rows = (0..queries.len())
                    .map(|_| Vec::with_capacity(cols))
                    .collect();
            }
            for (off, outcome) in outs.into_iter().enumerate() {
                rows[(start + off) / cols].push(outcome);
            }
        })?;
        // A job stopped before it started emits no tiles.
        rows.resize_with(queries.len(), Vec::new);
        for row in &mut rows {
            row.resize(cols, PairOutcome::Skipped);
        }
        Ok((rows, report))
    }

    /// Top-k nearest candidates for **every** query row, out of core:
    /// the full `N × M` matrix is never materialized — each row keeps
    /// a bounded accumulator (at most `max(2k, 16)` entries) that is
    /// pruned as tiles stream through the merge. Ranking semantics
    /// match [`top_k_supervised`](Sts::top_k_supervised): only scored
    /// cells rank; skipped, quarantined and failed pairs are excluded
    /// (the report says which and why).
    pub fn top_k_matrix_tiled(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        k: usize,
        cfg: &JobConfig,
        tiling: &TileConfig,
    ) -> Result<(Vec<Vec<(usize, f64)>>, JobReport), JobError> {
        let cols = candidates.len();
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); queries.len()];
        let prune_at = k.saturating_mul(2).max(16);
        let mut sink = |start: usize, outs: Vec<PairOutcome>| {
            for (off, outcome) in outs.into_iter().enumerate() {
                if let Some(s) = outcome.score() {
                    let lin = start + off;
                    let row = &mut rows[lin / cols];
                    row.push((lin % cols, s));
                    if row.len() >= prune_at {
                        sort_scores_descending(row);
                        row.truncate(k);
                    }
                }
            }
        };
        let report = self.matrix_engine(queries, candidates, cfg, Some(tiling), &mut sink)?;
        for row in &mut rows {
            sort_scores_descending(row);
            row.truncate(k);
        }
        Ok((rows, report))
    }

    /// Single-query top-k, out of core: row 0 of a `1 × candidates`
    /// [`top_k_matrix_tiled`](Sts::top_k_matrix_tiled) job.
    pub fn top_k_tiled(
        &self,
        query: &Trajectory,
        candidates: &[Trajectory],
        k: usize,
        cfg: &JobConfig,
        tiling: &TileConfig,
    ) -> Result<(Vec<(usize, f64)>, JobReport), JobError> {
        let (mut rows, report) =
            self.top_k_matrix_tiled(std::slice::from_ref(query), candidates, k, cfg, tiling)?;
        Ok((rows.pop().unwrap_or_default(), report))
    }

    /// The engine every supervised matrix job runs on. `sink` receives
    /// every tile's dense outcomes exactly once, in ascending order,
    /// as `(first linear index, cells)`; with `tiling` absent there is
    /// one whole-space tile that never touches storage.
    fn matrix_engine(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        cfg: &JobConfig,
        tiling: Option<&TileConfig>,
        sink: &mut dyn FnMut(usize, Vec<PairOutcome>),
    ) -> Result<JobReport, JobError> {
        let started = Instant::now();
        let _job_span = trace::span("job.run");
        let metrics_base = cfg.telemetry.then(|| sts_obs::metrics::global().snapshot());

        match tiling {
            Some(t) if t.tile_pairs == 0 => {
                return Err(JobError::InvalidTiling(
                    "tile_pairs must be ≥ 1 (a zero-pair tile would never progress)".into(),
                ))
            }
            None if matches!(cfg.exec, ExecMode::Sharded(_)) => {
                return Err(JobError::ShardRequiresTiling)
            }
            _ => {}
        }

        let space = PairSpace::new(queries.len(), candidates.len());
        let mut batch = BatchReport::default();

        // A job with no budget at all returns before preparing
        // anything: "0-pair budget" must mean *immediately*, not
        // "after an O(n) preparation pass".
        if let Some(reason) = stop_check(cfg, 0) {
            let mut stats = zeroed_stats(JobState::from_run(Some(reason), false), space.len());
            stats.elapsed = started.elapsed();
            stats.pairs_skipped = space.len();
            stats.tiles = tiling.map(|_| TileStats::default());
            return Ok(JobReport {
                batch,
                stats,
                telemetry: job_telemetry(metrics_base.as_ref()),
            });
        }

        let (prepared_q, prepared_c) = {
            let _span = trace::span("job.prepare");
            (
                prepare_all(self, queries, &mut batch.quarantined_queries),
                prepare_all(self, candidates, &mut batch.quarantined_candidates),
            )
        };

        // Resolve the worker fleet up front so a missing worker fails
        // fast, before any tile I/O: the measure must be
        // wire-describable, and the process launcher needs an actual
        // worker binary. (Custom launchers bring their own workers.)
        let fleet = match &cfg.exec {
            ExecMode::InProcess => None,
            ExecMode::Sharded(opts) => Some((opts.clone(), false)),
            ExecMode::Subprocess(opts) => Some((opts.fleet_options(cfg.threads), true)),
        };
        let fleet = match fleet {
            None => None,
            Some((opts, attribute)) => {
                let spec = self.measure_spec().ok_or(JobError::SubprocessUnsupported)?;
                if opts.launcher.is_none() {
                    let program = opts
                        .worker
                        .clone()
                        .unwrap_or_else(worker::default_worker_path);
                    if !program.is_file() {
                        return Err(JobError::WorkerMissing { path: program });
                    }
                }
                let preamble = worker::encode_preamble(
                    spec,
                    self.grid(),
                    cfg,
                    &space,
                    queries,
                    candidates,
                    opts.hb_every,
                );
                Some(Fleet {
                    opts,
                    attribute,
                    preamble,
                })
            }
        };

        let mut tstats = TileStats::default();
        let store = match tiling {
            Some(t) => {
                let fingerprint = job_fingerprint(self.grid(), queries, candidates);
                let (store, swept) = TileStore::open(t.storage.as_ref(), &t.dir, fingerprint)
                    .map_err(JobError::TileDir)?;
                tstats.stale_tmp_swept = swept.stale_tmp;
                tstats.corrupt_swept = swept.corrupt;
                Some(store)
            }
            None => None,
        };
        let tiles: Vec<PairChunk> = space
            .chunks(tiling.map_or(space.len(), |t| t.tile_pairs))
            .collect();
        tstats.tiles_total = tiles.len();
        let ctx = JobCtx {
            cfg,
            space,
            prepared_q,
            prepared_c,
            fleet,
        };

        // ---- Phase A: resume what is on disk, compute the rest. ----
        let mut tally = Tally {
            isolate: ctx
                .fleet
                .as_ref()
                .filter(|f| f.attribute)
                .map(|_| IsolateStats::default()),
            ..Tally::default()
        };
        let mut sources: Vec<TileSource> = tiles.iter().map(|_| TileSource::Skipped).collect();
        let mut stop_reason: Option<StopReason> = None;
        let mut new_pairs = 0usize; // computed this run (budget unit)
        let mut pairs_resumed = 0usize;
        let mut resident_fallback = 0usize; // cells pinned by Memory sources
        let mut shard_stats = None;
        let mut fleet_telemetry = None;

        // Resume first, stopped or not: a verified tile on disk is
        // free progress.
        let mut todo: Vec<usize> = Vec::with_capacity(tiles.len());
        match &store {
            None => todo.extend(0..tiles.len()),
            Some(store) => {
                let _span = trace::span("job.resume");
                for (idx, tile) in tiles.iter().enumerate() {
                    match load_verified(store, tile, &ctx) {
                        Loaded::Verified => {
                            tstats.max_resident_cells = tstats.max_resident_cells.max(tile.len);
                            tstats.tiles_resumed += 1;
                            pairs_resumed += tile.len;
                            sources[idx] = TileSource::Disk;
                        }
                        Loaded::Corrupt => {
                            store.quarantine(tile.id);
                            tstats.tiles_corrupt += 1;
                            todo.push(idx);
                        }
                        Loaded::Absent => todo.push(idx),
                    }
                }
                sts_obs::static_counter!("core.job.pairs_resumed").add(pairs_resumed as u64);
            }
        }

        if let Some(fleet) = &ctx.fleet {
            // Deal every pending tile to the worker fleet in one
            // coordinator run, and spill each tile as its last pair
            // resolves.
            let (run, partial) = self.fleet_tiles(
                &ctx,
                &tiles,
                &todo,
                new_pairs,
                &mut tally,
                &mut |idx, outs, open_cells| {
                    let tile = &tiles[idx];
                    tstats.max_resident_cells = tstats
                        .max_resident_cells
                        .max(resident_fallback + open_cells);
                    tstats.tiles_computed += 1;
                    new_pairs += outs.iter().filter(|o| is_terminal(o)).count();
                    sources[idx] = match &store {
                        Some(store) => {
                            spill_tile(store, tile, outs, &mut tstats, &mut resident_fallback)
                        }
                        None => {
                            resident_fallback += tile.len;
                            TileSource::Memory(outs)
                        }
                    };
                },
            );
            // A stopped run's partial tiles are never spilled.
            for (idx, outs) in partial {
                new_pairs += outs.iter().filter(|o| is_terminal(o)).count();
                resident_fallback += tiles[idx].len;
                sources[idx] = TileSource::Memory(outs);
            }
            stop_reason = run.stop;
            fleet_telemetry = Some(run.telemetry);
            if !fleet.attribute {
                shard_stats = Some(run.stats);
            }
            // Whatever a sharded fleet could not finish — it was
            // exhausted, rejected the handshake, or the run stopped —
            // degrades to the in-process engine. A dead fleet never
            // loses a job. (With attribution on, a lost fleet has
            // stopped the run, so nothing below computes locally.)
            todo = run
                .leftover
                .iter()
                .map(|unit| tiles.partition_point(|t| t.range().end <= unit.start))
                .collect();
            todo.dedup();
        }

        for idx in todo {
            let tile = &tiles[idx];
            if stop_reason.is_none() {
                stop_reason = stop_check(cfg, new_pairs);
            }
            if stop_reason.is_some() {
                continue; // stays Skipped
            }
            let _span = trace::span("job.tile");
            tstats.max_resident_cells = tstats.max_resident_cells.max(resident_fallback + tile.len);
            let (outs, stop) = self.compute_tile(&ctx, tile, new_pairs, &mut tally);
            tstats.tiles_computed += 1;
            if let Some(sstats) = shard_stats.as_mut() {
                sstats.tiles_local_fallback += 1;
                sts_obs::static_counter!("shard.tiles.local_fallback").incr();
                trace::event("shard.tile.fallback", tile.id as f64);
            }
            new_pairs += outs.iter().filter(|o| is_terminal(o)).count();
            if stop.is_some() {
                stop_reason = stop;
            }
            sources[idx] = match &store {
                // Partial tiles are never spilled: a tile file always
                // represents a *complete* slab.
                Some(store) if stop.is_none() => {
                    spill_tile(store, tile, outs, &mut tstats, &mut resident_fallback)
                }
                _ => {
                    resident_fallback += tile.len;
                    TileSource::Memory(outs)
                }
            };
        }

        // ---- Phase B: stream-merge tiles into the sink. ------------
        let merge_span = trace::span("job.merge");
        let mut pairs_skipped = 0usize;
        let mut pairs_failed = 0usize;
        for (idx, (tile, source)) in tiles.iter().zip(sources).enumerate() {
            let outs = match (source, &store) {
                (TileSource::Memory(outs), _) => {
                    resident_fallback = resident_fallback.saturating_sub(tile.len);
                    outs
                }
                (TileSource::Disk, Some(store)) => {
                    tstats.max_resident_cells =
                        tstats.max_resident_cells.max(resident_fallback + tile.len);
                    match store.load(tile.id, tile.start, tile.len) {
                        Ok(Some(data)) => dense_outcomes(tile, data),
                        // Verified minutes ago and unreadable now —
                        // disk decay mid-job. Detect, quarantine,
                        // recompute inline: a corrupt tile is never
                        // read back and never fabricated.
                        Ok(None) | Err(_) => {
                            store.quarantine(tile.id);
                            tstats.tiles_corrupt += 1;
                            if stop_reason.is_none() {
                                stop_reason = stop_check(cfg, new_pairs);
                            }
                            if stop_reason.is_some() {
                                vec![PairOutcome::Skipped; tile.len]
                            } else {
                                let (outs, stop) =
                                    self.recompute_tile(&ctx, &tiles, idx, new_pairs, &mut tally);
                                tstats.tiles_computed += 1;
                                new_pairs += outs.iter().filter(|o| is_terminal(o)).count();
                                stop_reason = stop;
                                outs
                            }
                        }
                    }
                }
                // Only a tiled job (one with a store) has Disk tiles.
                (TileSource::Skipped, _) | (TileSource::Disk, None) => {
                    vec![PairOutcome::Skipped; tile.len]
                }
            };
            for (off, outcome) in outs.iter().enumerate() {
                let lin = tile.start + off;
                match outcome {
                    PairOutcome::Skipped => pairs_skipped += 1,
                    PairOutcome::Panicked => {
                        pairs_failed += 1;
                        batch.panicked_pairs.push(ctx.space.pair(lin));
                    }
                    PairOutcome::Failed { .. } => {
                        pairs_failed += 1;
                        batch.failed_pairs.push(ctx.space.pair(lin));
                    }
                    PairOutcome::Poisoned { exit } => {
                        pairs_failed += 1;
                        let (i, j) = ctx.space.pair(lin);
                        batch.poisoned_pairs.push((i, j, *exit));
                    }
                    PairOutcome::Score(_) | PairOutcome::Quarantined => {}
                }
            }
            sink(tile.start, outs);
        }
        drop(merge_span);

        if let (Some(store), Some(t)) = (&store, tiling) {
            // Tiles are resume state: only a run that resolved every
            // pair may clean up (quarantined `.corrupt` files are kept
            // either way — they are the post-mortem evidence).
            if stop_reason.is_none() && !t.keep_tiles {
                let _ = store.remove_all_tiles();
            }
            tstats.peak_rss_bytes = sts_obs::record_peak_rss();
        }

        let mut stats = zeroed_stats(
            JobState::from_run(stop_reason, pairs_failed > 0),
            space.len(),
        );
        stats.elapsed = started.elapsed();
        stats.pairs_completed = space.len() - pairs_skipped;
        stats.pairs_failed = pairs_failed;
        stats.pairs_skipped = pairs_skipped;
        stats.pairs_resumed = pairs_resumed;
        stats.chunks_total = tally.chunks_total;
        stats.chunks_completed = tally.chunks_completed;
        stats.chunks_failed = tally.chunks_failed;
        stats.chunks_skipped = tally.chunks_total - tally.chunks_completed - tally.chunks_failed;
        stats.retries = tally.pool_retries + tally.cell_retries.into_inner();
        tally.slow_chunks.sort_unstable();
        stats.slow_chunks = tally.slow_chunks;
        stats.chunk_wait_total = tally.wait;
        stats.chunk_run_total = tally.run;
        stats.isolate = tally.isolate;
        stats.tiles = tiling.map(|_| tstats);
        stats.shard = shard_stats;

        let mut telemetry = job_telemetry(metrics_base.as_ref());
        if let (Some(t), Some(fleet)) = (telemetry.as_mut(), fleet_telemetry.as_ref()) {
            // Fold the workers' shipped deltas into the coordinator's
            // own registry delta: unlabeled fleet sums (so
            // `core.pairs.scored` counts work performed anywhere in the
            // fleet) plus per-worker labeled attribution. The
            // coordinator's own `shard.pairs.committed` counter already
            // covers every commit, so the fleet copy is dropped rather
            // than double-counted.
            let mut merged = fleet.merged.clone();
            merged
                .counters
                .retain(|(n, _)| n != "shard.pairs.committed");
            t.metrics.merge(&merged.without_zeros());
            t.metrics.merge(&fleet.labeled.clone().without_zeros());
        }

        Ok(JobReport {
            batch,
            stats,
            telemetry,
        })
    }

    /// Runs the `todo` tiles on the job's worker fleet, in one
    /// coordinator run ([`crate::shard`]) with whatever budget is left
    /// after `done_pairs`: a sharded fleet is dealt whole tiles, a
    /// crash-attributing one their `chunk_pairs` chunks.
    /// `on_tile(idx, outs, open_cells)` receives each tile as soon as
    /// its last pair resolves, with the cells held open at that moment.
    /// Returns the run and the tiles it left partial, dense with
    /// `Skipped` where unresolved.
    fn fleet_tiles(
        &self,
        ctx: &JobCtx<'_>,
        tiles: &[PairChunk],
        todo: &[usize],
        done_pairs: usize,
        tally: &mut Tally,
        on_tile: &mut dyn FnMut(usize, Vec<PairOutcome>, usize),
    ) -> (FleetRun, Vec<(usize, Vec<PairOutcome>)>) {
        let fleet = ctx.fleet.as_ref().expect("the job has a fleet");
        let chunk_pairs = ctx.cfg.chunk_pairs;
        let units: Vec<PairChunk> = if fleet.attribute {
            let mut chunks = Vec::new();
            for &idx in todo {
                let first_id = tally.chunks_total + chunks.len();
                chunks.extend(chunk_tile(&tiles[idx], chunk_pairs, first_id));
            }
            tally.chunks_total += chunks.len();
            chunks
        } else {
            todo.iter().map(|&idx| tiles[idx]).collect()
        };
        // Chunk accounting counts fully-resolved chunks, and only for
        // a fleet that is dealt chunks.
        let resolved_chunks = |tile: &PairChunk, outs: &[PairOutcome]| {
            if !fleet.attribute {
                return 0;
            }
            chunk_tile(tile, chunk_pairs, 0)
                .iter()
                .filter(|c| c.range().all(|lin| is_terminal(&outs[lin - tile.start])))
                .count()
        };
        let mut open: BTreeMap<usize, (Vec<PairOutcome>, usize)> = BTreeMap::new();
        let mut open_cells = 0usize;
        let run = crate::shard::run_fleet(
            &units,
            &fleet.preamble,
            &fleet.opts,
            fleet.attribute,
            &ctx.cfg.cancel,
            remaining_budget(ctx.cfg, done_pairs),
            &mut |unit, outs| {
                let idx = tiles.partition_point(|t| t.range().end <= unit.start);
                let tile = &tiles[idx];
                let (cells, unresolved) = open.entry(idx).or_insert_with(|| {
                    open_cells += tile.len;
                    (vec![PairOutcome::Skipped; tile.len], tile.len)
                });
                for (lin, outcome) in unit.range().zip(outs) {
                    cells[lin - tile.start] = outcome;
                }
                *unresolved -= unit.len;
                if *unresolved == 0 {
                    let (cells, _) = open.remove(&idx).expect("tile is open");
                    tally.chunks_completed += resolved_chunks(tile, &cells);
                    on_tile(idx, cells, open_cells);
                    open_cells -= tile.len;
                }
            },
        );
        let partial = open
            .into_iter()
            .map(|(idx, (cells, _))| {
                tally.chunks_completed += resolved_chunks(&tiles[idx], &cells);
                (idx, cells)
            })
            .collect();
        if let Some(iso) = tally.isolate.as_mut() {
            iso.workers_spawned += run.isolate.workers_spawned;
            iso.worker_restarts += run.isolate.worker_restarts;
            iso.worker_kills += run.isolate.worker_kills;
            iso.protocol_errors += run.isolate.protocol_errors;
            iso.pairs_poisoned += run.isolate.pairs_poisoned;
            iso.max_bisect_depth = iso.max_bisect_depth.max(run.isolate.max_bisect_depth);
        }
        (run, partial)
    }

    /// Computes tile `idx` again after it decayed on disk mid-job, with
    /// whatever budget is left after `done_pairs`: on the fleet when
    /// crash attribution is on — the tile may hold pairs that kill
    /// workers, and this process must not run them — in-process
    /// otherwise.
    fn recompute_tile(
        &self,
        ctx: &JobCtx<'_>,
        tiles: &[PairChunk],
        idx: usize,
        done_pairs: usize,
        tally: &mut Tally,
    ) -> (Vec<PairOutcome>, Option<StopReason>) {
        if !ctx.fleet.as_ref().is_some_and(|f| f.attribute) {
            return self.compute_tile(ctx, &tiles[idx], done_pairs, tally);
        }
        let mut done = None;
        let (run, mut partial) =
            self.fleet_tiles(ctx, tiles, &[idx], done_pairs, tally, &mut |_, outs, _| {
                done = Some(outs)
            });
        let outs = done
            .or_else(|| partial.pop().map(|(_, outs)| outs))
            .unwrap_or_else(|| vec![PairOutcome::Skipped; tiles[idx].len]);
        (outs, run.stop)
    }

    /// Computes one tile's slab on the in-process pool, with whatever
    /// budget is left after the `done_pairs` this run already computed
    /// (the deadline is absolute, so it carries over unchanged).
    /// Returns dense outcomes (`Skipped` where the engine stopped
    /// first) and why it stopped, if it did.
    fn compute_tile(
        &self,
        ctx: &JobCtx<'_>,
        tile: &PairChunk,
        done_pairs: usize,
        tally: &mut Tally,
    ) -> (Vec<PairOutcome>, Option<StopReason>) {
        let cfg = ctx.cfg;
        let remaining = remaining_budget(cfg, done_pairs);
        let chunks = chunk_tile(tile, cfg.chunk_pairs, tally.chunks_total);
        tally.chunks_total += chunks.len();
        let mut outs = vec![PairOutcome::Skipped; tile.len];

        let cell_retries = &tally.cell_retries;
        let work =
            |scratch: &mut crate::StpScratch, chunk: &PairChunk| -> Vec<(usize, PairOutcome)> {
                let mut v = Vec::with_capacity(chunk.len);
                for lin in chunk.range() {
                    let (i, j) = ctx.space.pair(lin);
                    v.push((
                        lin,
                        self.score_cell_retrying(
                            ctx.prepared_q[i].as_ref(),
                            ctx.prepared_c[j].as_ref(),
                            cfg,
                            lin,
                            cell_retries,
                            scratch,
                        ),
                    ));
                }
                v
            };
        let pool_cfg = PoolConfig {
            threads: cfg.threads,
            retry: cfg.retry,
            soft_timeout: cfg.soft_timeout,
            budget: remaining,
            cancel: cfg.cancel.clone(),
        };
        let run = run_supervised_with(
            &chunks,
            &pool_cfg,
            |_slot| crate::StpScratch::new(),
            work,
            |_chunk, computed| {
                for (lin, outcome) in computed {
                    outs[lin - tile.start] = outcome;
                }
            },
        );
        // Pool-level backstop: cells of a terminally failed chunk that
        // never produced outcomes become Failed (or Panicked under the
        // legacy no-retry contract).
        for (chunk, status) in chunks.iter().zip(&run.statuses) {
            match status {
                ChunkStatus::Completed => tally.chunks_completed += 1,
                ChunkStatus::Failed { attempts } => {
                    tally.chunks_failed += 1;
                    for lin in chunk.range() {
                        if !is_terminal(&outs[lin - tile.start]) {
                            outs[lin - tile.start] = if cfg.retry.max_retries == 0 {
                                PairOutcome::Panicked
                            } else {
                                PairOutcome::Failed {
                                    attempts: *attempts,
                                }
                            };
                        }
                    }
                }
                ChunkStatus::Skipped(_) => {}
            }
        }
        tally.pool_retries += run.retries;
        tally.wait += run.chunk_wait;
        tally.run += run.chunk_run;
        tally
            .slow_chunks
            .extend(run.slow_chunks.iter().map(|&idx| chunks[idx].id));
        (outs, run.stop)
    }
}

/// What probing the store for an existing tile concluded.
enum Loaded {
    /// Present, verified, and consistent with this job's preparation.
    Verified,
    /// Present but failed verification (or inconsistent coverage) —
    /// the caller must quarantine and recompute.
    Corrupt,
    /// Not spilled yet (or unreadable: treated as absent and
    /// recomputed).
    Absent,
}

/// Probes the store for tile `tile.id` and cross-checks its record
/// coverage against preparation: every pair in the slab must have a
/// record XOR be quarantined (fingerprint-matched inputs prepare
/// deterministically, so any disagreement means the file does not
/// describe this job and is treated as corrupt).
fn load_verified(store: &TileStore<'_>, tile: &PairChunk, ctx: &JobCtx<'_>) -> Loaded {
    let mut data = match store.load(tile.id, tile.start, tile.len) {
        Ok(Some(data)) => data,
        Ok(None) | Err(TileError::Io(_)) => return Loaded::Absent,
        Err(TileError::Corrupt { .. }) => return Loaded::Corrupt,
    };
    data.cells.sort_unstable_by_key(|(lin, _)| *lin);
    let mut recs = data.cells.iter().peekable();
    for lin in tile.range() {
        let has_record = matches!(recs.peek(), Some((l, _)) if *l == lin);
        if has_record {
            recs.next();
        }
        let (i, j) = ctx.space.pair(lin);
        let quarantined = ctx.prepared_q[i].is_none() || ctx.prepared_c[j].is_none();
        if has_record == quarantined {
            return Loaded::Corrupt;
        }
    }
    Loaded::Verified
}

/// Spills a completed tile and read-back-verifies it before letting
/// go of the in-memory copy. Any failure — write error (ENOSPC, a
/// crash-shaped storage fault) or a read-back that does not verify
/// bit-for-bit — degrades to serving the tile from memory.
fn spill_tile(
    store: &TileStore<'_>,
    tile: &PairChunk,
    outs: Vec<PairOutcome>,
    tstats: &mut TileStats,
    resident_fallback: &mut usize,
) -> TileSource {
    let data = TileData {
        id: tile.id,
        start: tile.start,
        len: tile.len,
        cells: outs
            .iter()
            .enumerate()
            .filter_map(|(off, o)| to_record(o).map(|rec| (tile.start + off, rec)))
            .collect(),
    };
    let durable = match store.save(&data) {
        Err(_) => false,
        Ok(()) => match store.load(tile.id, tile.start, tile.len) {
            Ok(Some(back)) if back == data => true,
            Ok(_) | Err(TileError::Io(_)) => false,
            Err(TileError::Corrupt { .. }) => {
                store.quarantine(tile.id);
                tstats.tiles_corrupt += 1;
                false
            }
        },
    };
    if durable {
        tstats.tiles_spilled += 1;
        TileSource::Disk
    } else {
        tstats.spill_errors += 1;
        *resident_fallback += tile.len;
        TileSource::Memory(outs)
    }
}

/// A verified tile's records as dense outcomes. Pairs without a
/// record are the quarantined ones: quarantine is re-derived from
/// preparation, never stored.
fn dense_outcomes(tile: &PairChunk, data: TileData) -> Vec<PairOutcome> {
    let mut outs = vec![PairOutcome::Quarantined; tile.len];
    for (lin, rec) in data.cells {
        outs[lin - tile.start] = from_record(rec);
    }
    outs
}

fn to_record(cell: &PairOutcome) -> Option<CellRecord> {
    match cell {
        PairOutcome::Score(s) => Some(CellRecord::Score(*s)),
        PairOutcome::Failed { attempts } => Some(CellRecord::Failed {
            attempts: *attempts,
        }),
        PairOutcome::Panicked => Some(CellRecord::Panicked),
        // Poison is stored: a resumed job must NOT rediscover a poison
        // pair by feeding it to (and losing) another worker.
        PairOutcome::Poisoned { exit } => Some(CellRecord::Poisoned { exit: *exit }),
        // Quarantine is re-derived from preparation on resume; Skipped
        // is by definition not terminal.
        PairOutcome::Quarantined | PairOutcome::Skipped => None,
    }
}

fn from_record(rec: CellRecord) -> PairOutcome {
    match rec {
        CellRecord::Score(s) => PairOutcome::Score(s),
        CellRecord::Failed { attempts } => PairOutcome::Failed { attempts },
        CellRecord::Panicked => PairOutcome::Panicked,
        CellRecord::Poisoned { exit } => PairOutcome::Poisoned { exit },
    }
}

/// Deals one tile's slab into scheduling chunks of `chunk_pairs`
/// (clamped to ≥ 1), numbered on from `first_id`, with linear indices
/// absolute in the full pair space — a worker scores whatever slab it
/// is sent, so the chunks must speak the global coordinate system.
fn chunk_tile(tile: &PairChunk, chunk_pairs: usize, first_id: usize) -> Vec<PairChunk> {
    let size = chunk_pairs.max(1);
    let n = tile.len.div_ceil(size);
    (0..n)
        .map(|k| PairChunk {
            id: first_id + k,
            start: tile.start + k * size,
            len: size.min(tile.len - k * size),
        })
        .collect()
}

/// The job budget left after `done_pairs` computed pairs (the deadline
/// is absolute, so it carries over unchanged).
fn remaining_budget(cfg: &JobConfig, done_pairs: usize) -> Budget {
    Budget {
        deadline: cfg.budget.deadline,
        max_pairs: cfg.budget.max_pairs.map(|m| m.saturating_sub(done_pairs)),
    }
}

/// Cancellation and global-budget check before the job and between
/// tiles, mirroring the pool's per-chunk stop checks.
fn stop_check(cfg: &JobConfig, new_pairs: usize) -> Option<StopReason> {
    if cfg.cancel.is_cancelled() {
        return Some(StopReason::Cancelled);
    }
    cfg.budget.check(new_pairs)
}
