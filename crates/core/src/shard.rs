//! The worker-fleet coordinator: lease-based distribution of pair
//! units to a fleet of socket workers, with failover, crash
//! attribution and byte-identical recovery.
//!
//! Both fleet modes of [`ExecMode`](crate::job::ExecMode) run here,
//! once per job. The coordinator deals units to `workers` worker
//! processes (`sts-worker serve-tcp <addr>`) over loopback TCP, framed
//! by [`sts_isolate::protocol`] and moved by
//! [`sts_isolate::FrameConn`], and a worker scores each unit as a
//! single wire chunk:
//!
//! * `Sharded` deals whole tiles, with heartbeats;
//! * `Subprocess` deals the `chunk_pairs` chunks of every pending
//!   tile, with the hard timeout as the lease timeout and no
//!   heartbeats, and turns crash attribution on.
//!
//! The pieces that make this safe under real process and network
//! failure:
//!
//! * **Leases, not assignments.** Every deal carries a fresh epoch from
//!   a [`LeaseTable`] (the wire request id). A worker that dies, wedges
//!   or goes silent past [`ShardOptions::lease_timeout`] forfeits its
//!   lease; the unit returns to the queue and is re-dealt. Heartbeats
//!   (`hb` frames every [`ShardOptions::hb_every`] scored pairs) let an
//!   honest-but-slow worker keep its lease alive indefinitely.
//! * **At-most-once commit.** A result only commits when it carries the
//!   *live* epoch of its unit. Duplicated frames and zombie results
//!   from superseded leases are refused — refusal is sound because
//!   scoring is deterministic, so the committed bytes equal whatever
//!   the zombie computed. Exactly one spill per tile ever happens.
//! * **Bounded garbage retries.** A frame destroyed in transit may have
//!   been the result, so the first garbage frame on a lease re-deals
//!   the unit to the same worker. A second one loses the worker: one
//!   that always answers garbage must cost the restart budget, not
//!   re-deal forever.
//! * **Typed handshake rejection.** Workers verify the `hello` frame's
//!   protocol version and job fingerprint before `ready`
//!   ([`crate::worker`]); a rejection marks the *pairing of binaries*
//!   broken and stops all further spawning rather than burning the
//!   restart budget on a permanent condition.
//! * **Bounded failover.** Worker respawns share one restart budget
//!   with decorrelated-jitter backoff. A slot whose respawn budget is
//!   exhausted retires; when the whole fleet is gone, the unresolved
//!   units are returned to the caller as leftovers. A sharded job
//!   computes them in-process
//!   ([`ShardStats::tiles_local_fallback`]) — graceful degradation,
//!   never a lost job.
//! * **Crash attribution** (`Subprocess` only). A worker that dies,
//!   outlives its lease or sends non-frame bytes in place of a result
//!   is killed, and the unit it held is bisected — both halves queued
//!   at the front, so attribution finishes before new work starts —
//!   until the single pair that kills workers is quarantined as
//!   [`PairOutcome::Poisoned`] with the worker's [`WorkerExit`]. Which
//!   pairs end up poisoned depends only on which pairs kill workers, so
//!   seeded runs replay the same poison set. Here a lost fleet stops
//!   the job ([`StopReason::WorkerRestartsExhausted`] or
//!   [`StopReason::WorkerRejected`]) instead of falling back to local
//!   compute, which would run the very pairs that kill workers inside
//!   the coordinator. `Sharded` keeps re-dealing a lost tile whole: on
//!   a network, a lost lease is no evidence against the tile.
//!
//! The transport seam ([`ShardOptions::injector`]) is where the
//! network-chaos suite in `sts-robust` injects seeded drops, delays,
//! corruption, duplicates, disconnects and wedges, then reconciles
//! every injection against this coordinator's [`ShardStats`] and
//! asserts the final matrix is byte-identical to an in-process run.

use crate::batch::PairOutcome;
use crate::worker;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use sts_isolate::protocol::ProtocolError;
use sts_isolate::{is_timeout, FrameConn, NetDirection, NetFault, NetInjector};
use sts_obs::trace::{self, ClockMap};
use sts_obs::{Snapshot, SpanRecord};
use sts_runtime::{
    Budget, CancelToken, CommitOutcome, DecorrelatedJitter, IsolateStats, LeaseTable, PairChunk,
    ShardStats, StopReason, WorkerExit,
};

/// Tuning for [`ExecMode::Sharded`](crate::job::ExecMode). `Default`
/// is production-shaped; tests shrink the timeouts and inject their
/// own launcher and fault plan.
#[derive(Clone)]
pub struct ShardOptions {
    /// Worker executable; `None` resolves `sts-worker` next to the
    /// current executable ([`worker::default_worker_path`]). Ignored
    /// when [`launcher`](Self::launcher) is set.
    pub worker: Option<PathBuf>,
    /// Fleet size (0 → [`sts_runtime::worker_count`], which honors the
    /// `STS_WORKERS` environment override). Clamped to the tile count.
    pub workers: usize,
    /// How long a dealt tile may go without any frame (heartbeat or
    /// result) before its lease expires and the worker is presumed
    /// lost. Must comfortably exceed `hb_every` pairs of honest
    /// scoring.
    pub lease_timeout: Duration,
    /// How long a fresh worker may take to connect, rebuild the
    /// measure, prepare the corpus and answer `ready`.
    pub ready_timeout: Duration,
    /// Heartbeat stride in scored pairs, forwarded in the `hello`
    /// frame. 0 disables heartbeats (then a tile must finish within
    /// one lease timeout).
    pub hb_every: u64,
    /// Worker respawns allowed across the whole fleet (the initial
    /// fleet is free). Exhaustion retires slots; leftover tiles fall
    /// back to local compute.
    pub restart_budget: usize,
    /// Respawn backoff (decorrelated jitter between these bounds).
    pub backoff_base: Duration,
    /// See [`backoff_base`](Self::backoff_base).
    pub backoff_cap: Duration,
    /// How workers are launched. `None` spawns
    /// `sts-worker serve-tcp <addr>` subprocesses
    /// ([`ProcessLauncher`]); tests inject in-thread workers.
    pub launcher: Option<Arc<dyn WorkerLauncher>>,
    /// Fault injector applied to every coordinator-side connection
    /// (both directions). `None` is the clean transport.
    pub injector: Option<Arc<dyn NetInjector>>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            worker: None,
            workers: 0,
            lease_timeout: Duration::from_secs(30),
            ready_timeout: Duration::from_secs(10),
            hb_every: 64,
            restart_budget: 64,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            launcher: None,
            injector: None,
        }
    }
}

impl fmt::Debug for ShardOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardOptions")
            .field("worker", &self.worker)
            .field("workers", &self.workers)
            .field("lease_timeout", &self.lease_timeout)
            .field("ready_timeout", &self.ready_timeout)
            .field("hb_every", &self.hb_every)
            .field("restart_budget", &self.restart_budget)
            .finish_non_exhaustive()
    }
}

/// Launches one worker that must connect to `addr` and speak the
/// worker protocol over that socket. The default is
/// [`ProcessLauncher`]; tests launch in-thread workers for speed and
/// determinism.
pub trait WorkerLauncher: Send + Sync {
    /// Launch a worker that will connect to `addr`.
    fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>>;
}

/// A launched worker, killable by the coordinator. Implementations
/// must make `kill` idempotent and must reap any OS resources (a
/// killed child is waited on, not left a zombie).
pub trait WorkerHandle: Send {
    /// Terminate the worker. Idempotent; called on every teardown
    /// path, including drop-equivalent cleanup at coordinator exit.
    fn kill(&mut self);

    /// Reaps a worker that hung up mid-unit and reports how it exited
    /// — crash attribution's verdict. Bounded: a worker that lingers
    /// is killed. The default, for workers with no process to reap,
    /// kills and reports [`WorkerExit::Protocol`].
    fn reap(&mut self) -> WorkerExit {
        self.kill();
        WorkerExit::Protocol
    }
}

/// Spawns `<program> serve-tcp <addr>` subprocesses with null stdio —
/// the production launcher.
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    /// The worker executable.
    pub program: PathBuf,
}

impl WorkerLauncher for ProcessLauncher {
    fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
        let child = Command::new(&self.program)
            .arg("serve-tcp")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Box::new(ProcessHandle { child }))
    }
}

struct ProcessHandle {
    child: Child,
}

impl WorkerHandle for ProcessHandle {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn reap(&mut self) -> WorkerExit {
        // A worker that hung up is dead or dying: give it two seconds
        // to exit on its own before killing it.
        for _ in 0..200 {
            match self.child.try_wait() {
                Ok(Some(status)) => return WorkerExit::from_status(status),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        self.child
            .wait()
            .map_or(WorkerExit::Code(-1), WorkerExit::from_status)
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Decorrelates per-connection fault schedules: each worker connection
/// gets a disjoint frame-index window into the shared injector, so a
/// respawned worker does not replay its predecessor's exact faults
/// (which would turn one seeded disconnect into an unconditional
/// restart loop).
struct OffsetInjector {
    inner: Arc<dyn NetInjector>,
    base: u64,
}

impl NetInjector for OffsetInjector {
    fn fault_for(&self, index: u64, dir: NetDirection) -> Option<NetFault> {
        self.inner.fault_for(self.base + index, dir)
    }
}

/// Index-window stride per connection — far beyond any real frame
/// count, so windows never overlap.
const CONN_INDEX_STRIDE: u64 = 1 << 20;

/// What [`run_fleet`] concluded.
pub(crate) struct FleetRun {
    /// Coordinator accounting ([`ShardStats::tiles_local_fallback`] is
    /// left 0 — the caller owns the fallback).
    pub stats: ShardStats,
    /// Crash-attribution accounting (all zero with attribution off
    /// except the spawn counts).
    pub isolate: IsolateStats,
    /// Units neither committed nor poisoned by the fleet: the run
    /// stopped, or the fleet was exhausted/rejected. Ascending order.
    pub leftover: Vec<PairChunk>,
    /// Why the run stopped early, if it did. With attribution on, a
    /// lost fleet that left units unresolved is a stop too.
    pub stop: Option<StopReason>,
    /// The fleet's shipped telemetry, merged coordinator-side.
    pub telemetry: FleetTelemetry,
}

/// The fleet-wide view of worker-shipped telemetry: every connection's
/// cumulative job-delta snapshot (latest sequence wins, so chaos drops
/// and duplicate frames self-heal), merged unlabeled for fleet totals
/// and per-worker-labeled for attribution. The coordinator's own
/// `shard.pairs.committed{worker="cN"}` tally rides along, which is
/// what lets a consumer reconcile worker-*performed* work (a worker
/// that lost its lease still scored the pairs) against
/// coordinator-*committed* work exactly.
#[derive(Debug, Default, Clone)]
pub struct FleetTelemetry {
    /// All workers' snapshots merged (counters/histograms summed).
    pub merged: Snapshot,
    /// Per-worker labeled copies, merged: `name{worker="c<conn>"}`.
    pub labeled: Snapshot,
    /// Connections that shipped at least one snapshot.
    pub workers: usize,
    /// Clean final flushes observed (`bye` frames after `shutdown`).
    pub flushes: usize,
}

/// Per-connection telemetry accumulation (keyed by connection id).
#[derive(Default)]
struct ConnTelemetry {
    /// Highest `tstat` sequence absorbed; 0 = none yet.
    stat_seq: u64,
    /// That sequence's cumulative snapshot.
    snapshot: Snapshot,
    /// Highest `tspan` sequence absorbed (spans ship drained, so the
    /// gate only rejects duplicated frames, never reorders).
    span_seq: u64,
    /// Pairs the coordinator committed from this connection.
    committed_pairs: u64,
}

/// One slot's claim-serve-commit state machine outcome for a single
/// wait on the wire.
enum Verdict {
    /// The live epoch's result committed; here are its dense outcomes.
    Committed(Vec<PairOutcome>),
    /// A frame was destroyed in transit or in the worker (typed
    /// garbage). It may have been the result.
    Garbage,
    /// The worker is unusable: kill it, expire the lease, respawn under
    /// budget.
    Lost(Loss),
    /// The commit gate refused our own epoch (defensive: should be
    /// unreachable since a unit is held by exactly one slot).
    AlreadyDone,
}

/// How a worker was lost holding a unit — what crash attribution turns
/// into a [`WorkerExit`].
enum Loss {
    /// No frame within the lease timeout.
    Silent,
    /// EOF or an I/O error: the worker hung up or died.
    HungUp,
    /// Garbage or a malformed frame in place of a result.
    Garbled,
}

/// One dealable unit: a pair range and its bisection depth (0 for a
/// unit the caller dealt).
#[derive(Clone, Copy)]
struct Unit {
    chunk: PairChunk,
    depth: usize,
}

enum SpawnError {
    /// Launch, connect, preamble or ready failed — transient, costs a
    /// restart from the shared budget.
    Failed,
    /// The worker answered `reject ...`: version or fingerprint skew.
    /// Permanent for this pairing of binaries.
    Rejected,
}

/// Coordinator state shared by all slot threads.
struct Shared<'a> {
    preamble: &'a [String],
    opts: &'a ShardOptions,
    /// Crash attribution on (see the [module docs](self)).
    attribute: bool,
    launcher: Arc<dyn WorkerLauncher>,
    /// Every unit of the run, by position; bisection appends halves.
    units: Mutex<Vec<Unit>>,
    /// Pending positions into `units`.
    queue: Mutex<VecDeque<usize>>,
    queue_cv: Condvar,
    /// Lease arbiter over `units` positions (leftover = the pending
    /// ones at exit).
    lt: Mutex<LeaseTable>,
    /// Pairs neither committed nor poisoned yet; the run ends at zero.
    pairs_left: AtomicUsize,
    stopped: AtomicBool,
    rejected: AtomicBool,
    restarts_left: AtomicUsize,
    conn_seq: AtomicU64,
    workers_spawned: AtomicUsize,
    worker_restarts: AtomicUsize,
    workers_rejected: AtomicUsize,
    frames_corrupt: AtomicUsize,
    /// Results refused without going through the lease table (stale
    /// epochs we cannot map to a tile).
    stale_results: AtomicUsize,
    /// Crash attribution: workers killed for outliving their lease,
    /// workers lost to garbled output, pairs poisoned, deepest split.
    hard_timeout_kills: AtomicUsize,
    protocol_errors: AtomicUsize,
    pairs_poisoned: AtomicUsize,
    max_depth: AtomicUsize,
    /// Job-wide trace id forwarded in every connection's `trace` frame.
    trace_id: u64,
    /// The `job.shard` span id worker root spans re-parent under (0
    /// when tracing is off — harmless, shipped roots stay roots).
    trace_parent: u64,
    /// Shipped telemetry per connection id.
    telemetry: Mutex<BTreeMap<u64, ConnTelemetry>>,
    /// Clean `bye` flushes observed.
    flushes: AtomicUsize,
}

impl Shared<'_> {
    /// Claims the next pending position, waiting out windows where
    /// every remaining unit is in flight on some other slot. `None`
    /// once every pair is resolved or the run stopped.
    fn claim(&self) -> Option<usize> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if self.stopped.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(pos) = q.pop_front() {
                return Some(pos);
            }
            if self.pairs_left.load(Ordering::SeqCst) == 0 {
                return None;
            }
            // An in-flight tile may yet be requeued by a failing slot;
            // the timeout is only a safety net against lost wakeups.
            q = self
                .queue_cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    fn requeue(&self, pos: usize) {
        self.queue.lock().unwrap().push_back(pos);
        self.queue_cv.notify_all();
    }

    /// Counts `pairs` as committed or poisoned.
    fn resolve(&self, pairs: usize) {
        self.pairs_left.fetch_sub(pairs, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    fn unit(&self, pos: usize) -> Unit {
        self.units
            .lock()
            .expect("a slot panicked holding coordinator state")[pos]
    }

    /// Crash attribution for the unit at `pos`, whose worker was lost
    /// with `exit`. A multi-pair unit is bisected, halves queued at the
    /// front with the left one first; a single pair is quarantined as
    /// poison and handed to the commit sink.
    fn attribute_loss(
        &self,
        pos: usize,
        exit: WorkerExit,
        tx: &mpsc::Sender<(PairChunk, Vec<PairOutcome>)>,
    ) {
        let Unit { chunk, depth } = self.unit(pos);
        // The unit is resolved here, outside the lease protocol.
        self.lt
            .lock()
            .expect("a slot panicked holding coordinator state")
            .force_done(pos);
        if chunk.len <= 1 {
            self.note_depth(depth);
            self.pairs_poisoned.fetch_add(1, Ordering::SeqCst);
            sts_obs::static_counter!("shard.pairs.poisoned").incr();
            self.resolve(chunk.len);
            let _ = tx.send((chunk, vec![PairOutcome::Poisoned { exit }]));
            return;
        }
        let left = chunk.len / 2;
        let halves = [
            PairChunk { len: left, ..chunk },
            PairChunk {
                start: chunk.start + left,
                len: chunk.len - left,
                ..chunk
            },
        ];
        self.note_depth(depth + 1);
        let mut units = self
            .units
            .lock()
            .expect("a slot panicked holding coordinator state");
        let mut lt = self
            .lt
            .lock()
            .expect("a slot panicked holding coordinator state");
        let mut q = self
            .queue
            .lock()
            .expect("a slot panicked holding coordinator state");
        for half in halves.into_iter().rev() {
            units.push(Unit {
                chunk: half,
                depth: depth + 1,
            });
            q.push_front(lt.add());
        }
        self.queue_cv.notify_all();
    }

    fn note_depth(&self, depth: usize) {
        self.max_depth.fetch_max(depth, Ordering::SeqCst);
        sts_obs::static_histogram!("shard.bisect.depth").record(depth as u64);
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Takes one respawn from the shared budget. `false` = exhausted.
    fn charge_restart(&self) -> bool {
        self.restarts_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    fn expire(&self, pos: usize) {
        self.lt.lock().unwrap().expire(pos);
        trace::event("shard.tile.expire", self.tile_id(pos));
    }

    /// The caller-visible unit id at position `pos` (a bisected half
    /// keeps its parent's) — the value every `shard.tile.*` lifecycle
    /// event carries.
    fn tile_id(&self, pos: usize) -> f64 {
        self.unit(pos).chunk.id as f64
    }

    /// Credits `pairs` committed pairs to connection `conn_id` (the
    /// coordinator-side half of the reconciliation ledger).
    fn credit_commit(&self, conn_id: u64, pairs: u64) {
        sts_obs::static_counter!("shard.pairs.committed").add(pairs);
        let mut t = self.telemetry.lock().unwrap();
        t.entry(conn_id).or_default().committed_pairs += pairs;
    }

    /// Absorbs a `tstat <seq> <wire snapshot>` frame. `false` means
    /// the frame is malformed (a protocol violation, not chaos — the
    /// framing layer already filtered corrupt frames into
    /// [`ProtocolError::Garbage`]).
    fn absorb_tstat(&self, conn_id: u64, frame: &str) -> bool {
        let Some(rest) = frame.strip_prefix("tstat ") else {
            return false;
        };
        let (seq, payload) = match rest.split_once(' ') {
            Some((s, p)) => (s, p),
            None => (rest, ""),
        };
        let Ok(seq) = seq.parse::<u64>() else {
            return false;
        };
        let Some(snapshot) = Snapshot::decode_wire(payload) else {
            return false;
        };
        let mut t = self.telemetry.lock().unwrap();
        let entry = t.entry(conn_id).or_default();
        // Cumulative snapshots: the latest sequence is the truth, and
        // anything older (a duplicated frame) is stale.
        if seq > entry.stat_seq {
            entry.stat_seq = seq;
            entry.snapshot = snapshot;
        }
        true
    }

    /// Absorbs a `tspan <seq> <n> (<id> <parent> <name> <thread>
    /// <start> <dur>)*` frame: sequence-gates against duplicates, maps
    /// worker clocks and thread ids into coordinator ranges, and
    /// re-emits each span through the coordinator's subscriber.
    fn absorb_tspan(&self, conn_id: u64, clock: ClockMap, frame: &str) -> bool {
        let mut fields = frame.split_whitespace();
        fields.next(); // "tspan"
        let Some(seq) = fields.next().and_then(|s| s.parse::<u64>().ok()) else {
            return false;
        };
        let Some(n) = fields.next().and_then(|s| s.parse::<usize>().ok()) else {
            return false;
        };
        {
            let mut t = self.telemetry.lock().unwrap();
            let entry = t.entry(conn_id).or_default();
            if seq <= entry.span_seq {
                return true; // duplicated frame; spans already emitted
            }
            entry.span_seq = seq;
        }
        for _ in 0..n {
            fn num<'a>(fields: &mut impl Iterator<Item = &'a str>) -> Option<u64> {
                fields.next().and_then(|s| s.parse::<u64>().ok())
            }
            let Some(id) = num(&mut fields) else {
                return false;
            };
            let Some(parent) = num(&mut fields) else {
                return false;
            };
            let Some(name) = fields.next() else {
                return false;
            };
            let name = trace::intern_name(name);
            let Some(thread) = num(&mut fields) else {
                return false;
            };
            let Some(start_ns) = num(&mut fields) else {
                return false;
            };
            let Some(dur_ns) = num(&mut fields) else {
                return false;
            };
            trace::emit_span(&SpanRecord {
                id,
                parent,
                name,
                // Worker thread ids are per-process; shift them into a
                // per-connection range so fleet threads stay distinct.
                thread: ((conn_id + 1) << 16) | (thread & 0xffff),
                start_ns: clock.to_local(start_ns),
                dur_ns,
            });
        }
        fields.next().is_none()
    }

    /// Folds every connection's accumulated telemetry into the fleet
    /// view handed back on [`ShardRun`].
    fn fleet_telemetry(&self) -> FleetTelemetry {
        let t = self.telemetry.lock().unwrap();
        let mut fleet = FleetTelemetry {
            flushes: self.flushes.load(Ordering::SeqCst),
            ..FleetTelemetry::default()
        };
        for (&conn_id, ct) in t.iter() {
            let mut contribution = ct.snapshot.clone();
            // In-process test workers share the coordinator's registry
            // and may echo coordinator-side counters back; this one is
            // authoritative coordinator-side, so theirs is dropped.
            contribution
                .counters
                .retain(|(n, _)| n != "shard.pairs.committed");
            contribution
                .counters
                .push(("shard.pairs.committed".to_string(), ct.committed_pairs));
            contribution.counters.sort_by(|a, b| a.0.cmp(&b.0));
            fleet.merged.merge(&contribution);
            fleet
                .labeled
                .merge(&contribution.with_label("worker", &format!("c{conn_id}")));
            if ct.stat_seq > 0 {
                fleet.workers += 1;
            }
        }
        fleet
    }
}

/// Deals `units` to a worker fleet and calls `on_commit` (on this
/// thread) exactly once per resolved unit, in resolution order, with
/// the unit and its dense outcomes. A committed unit may be smaller
/// than the one dealt (bisection), and a poisoned pair arrives as a
/// one-pair unit. `attribute` turns crash attribution on. See the
/// [module docs](self) for the protocol; see [`FleetRun`] for what
/// comes back.
pub(crate) fn run_fleet(
    units: &[PairChunk],
    preamble: &[String],
    opts: &ShardOptions,
    attribute: bool,
    cancel: &CancelToken,
    budget: Budget,
    on_commit: &mut dyn FnMut(PairChunk, Vec<PairOutcome>),
) -> FleetRun {
    let shard_span = trace::span("job.shard");
    if units.is_empty() {
        return FleetRun {
            stats: ShardStats::default(),
            isolate: IsolateStats::default(),
            leftover: Vec::new(),
            stop: None,
            telemetry: FleetTelemetry::default(),
        };
    }
    let launcher: Arc<dyn WorkerLauncher> = match &opts.launcher {
        Some(l) => Arc::clone(l),
        None => Arc::new(ProcessLauncher {
            program: opts
                .worker
                .clone()
                .unwrap_or_else(worker::default_worker_path),
        }),
    };
    let slots = if opts.workers == 0 {
        sts_runtime::worker_count(units.len())
    } else {
        opts.workers.min(units.len()).max(1)
    };
    let shared = Shared {
        preamble,
        opts,
        attribute,
        launcher,
        units: Mutex::new(
            units
                .iter()
                .map(|&chunk| Unit { chunk, depth: 0 })
                .collect(),
        ),
        queue: Mutex::new((0..units.len()).collect()),
        queue_cv: Condvar::new(),
        lt: Mutex::new(LeaseTable::new(units.len())),
        pairs_left: AtomicUsize::new(units.iter().map(|u| u.len).sum()),
        stopped: AtomicBool::new(false),
        rejected: AtomicBool::new(false),
        restarts_left: AtomicUsize::new(opts.restart_budget),
        conn_seq: AtomicU64::new(0),
        workers_spawned: AtomicUsize::new(0),
        worker_restarts: AtomicUsize::new(0),
        workers_rejected: AtomicUsize::new(0),
        frames_corrupt: AtomicUsize::new(0),
        stale_results: AtomicUsize::new(0),
        hard_timeout_kills: AtomicUsize::new(0),
        protocol_errors: AtomicUsize::new(0),
        pairs_poisoned: AtomicUsize::new(0),
        max_depth: AtomicUsize::new(0),
        // Process id ⊕ span id: unique across a fleet of coordinators
        // on one host and across reruns in one process.
        trace_id: (u64::from(std::process::id()) << 32) | (shard_span.id() & 0xffff_ffff),
        trace_parent: shard_span.id(),
        telemetry: Mutex::new(BTreeMap::new()),
        flushes: AtomicUsize::new(0),
    };

    let (tx, rx) = mpsc::channel::<(PairChunk, Vec<PairOutcome>)>();
    let mut stop_reason: Option<StopReason> = None;
    let mut committed_pairs = 0usize;
    std::thread::scope(|s| {
        for slot in 0..slots {
            let tx = tx.clone();
            let shared = &shared;
            s.spawn(move || slot_loop(shared, slot, &tx));
        }
        drop(tx);
        // This thread owns the commit sink: spills happen here, in
        // commit order, so the caller's closure needs no Send bound.
        loop {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok((unit, outs)) => {
                    committed_pairs += outs.len();
                    on_commit(unit, outs);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            if stop_reason.is_none() {
                stop_reason = if cancel.is_cancelled() {
                    Some(StopReason::Cancelled)
                } else {
                    budget.check(committed_pairs)
                };
                if stop_reason.is_some() {
                    shared.stop();
                }
            }
        }
        // Commits that raced the shutdown are still commits: the lease
        // table accepted them and the spill must happen.
        while let Ok((unit, outs)) = rx.try_recv() {
            committed_pairs += outs.len();
            on_commit(unit, outs);
        }
    });

    let lt = shared.lt.lock().unwrap();
    let stats = ShardStats {
        workers_spawned: shared.workers_spawned.load(Ordering::SeqCst),
        worker_restarts: shared.worker_restarts.load(Ordering::SeqCst),
        workers_rejected: shared.workers_rejected.load(Ordering::SeqCst),
        tiles_leased: lt.leases_granted(),
        leases_expired: lt.leases_expired(),
        commits_refused: lt.commits_refused() + shared.stale_results.load(Ordering::SeqCst),
        frames_corrupt: shared.frames_corrupt.load(Ordering::SeqCst),
        tiles_local_fallback: 0,
        telemetry_flushes: shared.flushes.load(Ordering::SeqCst),
    };
    let all_units = shared
        .units
        .lock()
        .expect("a slot panicked holding coordinator state");
    let mut leftover: Vec<PairChunk> = lt
        .pending()
        .into_iter()
        .map(|pos| all_units[pos].chunk)
        .collect();
    drop((lt, all_units));
    leftover.sort_unstable_by_key(|c| c.start);
    if attribute && stop_reason.is_none() && !leftover.is_empty() {
        stop_reason = Some(if shared.rejected.load(Ordering::SeqCst) {
            StopReason::WorkerRejected
        } else {
            StopReason::WorkerRestartsExhausted
        });
    }
    let isolate = IsolateStats {
        workers_spawned: stats.workers_spawned,
        worker_restarts: stats.worker_restarts,
        worker_kills: shared.hard_timeout_kills.load(Ordering::SeqCst),
        protocol_errors: shared.protocol_errors.load(Ordering::SeqCst),
        pairs_poisoned: shared.pairs_poisoned.load(Ordering::SeqCst),
        max_bisect_depth: shared.max_depth.load(Ordering::SeqCst),
    };
    let telemetry = shared.fleet_telemetry();
    FleetRun {
        stats,
        isolate,
        leftover,
        stop: stop_reason,
        telemetry,
    }
}

/// One live worker connection, as held by a slot: the framed socket,
/// the kill handle, the connection id (telemetry attribution key and
/// injector window), and the worker→coordinator clock mapping from the
/// ready exchange.
struct Worker {
    conn: FrameConn,
    handle: Box<dyn WorkerHandle>,
    id: u64,
    clock: ClockMap,
}

/// One slot: claim a unit, keep a worker alive, deal and commit, until
/// the queue drains, the run stops, the handshake is rejected, or the
/// restart budget retires this slot.
fn slot_loop(shared: &Shared<'_>, slot: usize, tx: &mpsc::Sender<(PairChunk, Vec<PairOutcome>)>) {
    let mut live: Option<Worker> = None;
    let mut jitter = DecorrelatedJitter::new(
        shared.opts.backoff_base,
        shared.opts.backoff_cap,
        0x5AAD_0000 ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut spawned_once = false;
    'slot: while let Some(pos) = shared.claim() {
        let unit = shared.unit(pos).chunk;
        // One same-worker resend after a garbage frame, per unit and
        // worker.
        let mut garbage_retried = false;
        loop {
            if shared.stopped.load(Ordering::SeqCst) {
                shared.requeue(pos);
                break 'slot;
            }
            if live.is_none() {
                if shared.rejected.load(Ordering::SeqCst) {
                    // The binaries cannot agree; spawning more copies
                    // of the same worker cannot fix it.
                    shared.requeue(pos);
                    break 'slot;
                }
                if spawned_once {
                    if !shared.charge_restart() {
                        shared.requeue(pos);
                        break 'slot; // slot retires; fleet shrinks
                    }
                    shared.worker_restarts.fetch_add(1, Ordering::SeqCst);
                    sts_obs::static_counter!("shard.workers.restarted").incr();
                    std::thread::sleep(jitter.next_delay());
                }
                spawned_once = true;
                match spawn_ready_worker(shared) {
                    Ok(w) => {
                        live = Some(w);
                        garbage_retried = false;
                    }
                    Err(SpawnError::Failed) => continue,
                    Err(SpawnError::Rejected) => {
                        shared.workers_rejected.fetch_add(1, Ordering::SeqCst);
                        sts_obs::static_counter!("shard.workers.rejected").incr();
                        shared.rejected.store(true, Ordering::SeqCst);
                        shared.requeue(pos);
                        break 'slot;
                    }
                }
            }
            let Some(epoch) = shared.lt.lock().unwrap().lease(pos) else {
                // Defensive: positions are claimed exclusively, so a
                // committed unit cannot be re-claimed.
                break;
            };
            trace::event("shard.tile.lease", shared.tile_id(pos));
            let w = live.as_mut().expect("worker ensured above");
            if w.conn
                .send(&format!("chunk {epoch} {} {}", unit.start, unit.len))
                .is_err()
            {
                // Never dealt, so nothing to attribute: re-deal it to
                // a fresh worker.
                teardown(&mut live);
                shared.expire(pos);
                continue;
            }
            trace::event("shard.tile.deal", shared.tile_id(pos));
            let _ = w.conn.set_read_deadline(Some(shared.opts.lease_timeout));
            let loss = match wait_result(shared, w, pos, &unit, epoch) {
                Verdict::Committed(outs) => {
                    shared.credit_commit(w.id, outs.len() as u64);
                    trace::event("shard.tile.commit", shared.tile_id(pos));
                    shared.resolve(unit.len);
                    let _ = tx.send((unit, outs));
                    break;
                }
                Verdict::AlreadyDone => break,
                Verdict::Garbage if !shared.attribute && !garbage_retried => {
                    // Line noise on the wire may have destroyed our
                    // result: re-lease and resend to the same worker,
                    // once. The commit gate absorbs any original that
                    // later limps in.
                    garbage_retried = true;
                    shared.expire(pos);
                    continue;
                }
                Verdict::Garbage => Loss::Garbled,
                Verdict::Lost(loss) => loss,
            };
            let mut w = live.take().expect("a verdict needs a live worker");
            shared.expire(pos);
            if !shared.attribute {
                w.handle.kill();
                continue;
            }
            let exit = match loss {
                Loss::Silent => {
                    w.handle.kill();
                    shared.hard_timeout_kills.fetch_add(1, Ordering::SeqCst);
                    sts_obs::static_counter!("shard.workers.killed").incr();
                    WorkerExit::HardTimeout
                }
                Loss::HungUp => w.handle.reap(),
                Loss::Garbled => {
                    w.handle.kill();
                    shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    WorkerExit::Protocol
                }
            };
            shared.attribute_loss(pos, exit, tx);
            break;
        }
    }
    if let Some(mut w) = live.take() {
        // A graceful shutdown earns the worker one final telemetry
        // flush: absorb tstat/tspan frames (and drain any stale
        // leftovers) until `bye`, a bounded deadline, or a dead pipe.
        let _ = w.conn.send("shutdown");
        let _ = w
            .conn
            .set_read_deadline(Some(shared.opts.lease_timeout.min(Duration::from_secs(2))));
        loop {
            match w.conn.recv() {
                Ok(f) if f.starts_with("tstat ") => {
                    if !shared.absorb_tstat(w.id, &f) {
                        break;
                    }
                }
                Ok(f) if f.starts_with("tspan ") => {
                    if !shared.absorb_tspan(w.id, w.clock, &f) {
                        break;
                    }
                }
                Ok(f) if f.starts_with("bye") => {
                    shared.flushes.fetch_add(1, Ordering::SeqCst);
                    break;
                }
                Ok(_) => continue, // stale hb/result frames drain here
                Err(ProtocolError::Garbage { .. }) => {
                    // Corruption detected here still counts: the
                    // chaos suites reconcile garbage frames against
                    // the injection ledger exactly, shutdown included.
                    shared.frames_corrupt.fetch_add(1, Ordering::SeqCst);
                    sts_obs::static_counter!("shard.frames.corrupt").incr();
                    continue;
                }
                Err(_) => break,
            }
        }
        w.handle.kill();
    }
}

fn teardown(live: &mut Option<Worker>) {
    if let Some(mut w) = live.take() {
        w.handle.kill();
    }
}

/// Reads frames until the live epoch's result arrives (commit), the
/// deadline passes, or the connection proves unusable. Heartbeats for
/// any epoch reset the deadline simply by being frames; results for
/// superseded epochs are refused and skipped. Telemetry frames
/// (`tstat`/`tspan`) are absorbed in passing — malformed ones are
/// protocol violations, not chaos, and lose the worker. Garbage is the
/// caller's to judge.
fn wait_result(
    shared: &Shared<'_>,
    w: &mut Worker,
    pos: usize,
    tile: &PairChunk,
    epoch: u64,
) -> Verdict {
    loop {
        match w.conn.recv() {
            Ok(frame) => {
                let mut fields = frame.split_whitespace();
                match fields.next() {
                    Some("hb") => {
                        // `hb <epoch> <pairs_done>` — surface progress
                        // instead of treating the frame as opaque.
                        let mut num = || fields.next().and_then(|s| s.parse::<u64>().ok());
                        if let (Some(hb_epoch), Some(pairs_done)) = (num(), num()) {
                            if hb_epoch == epoch {
                                sts_obs::static_gauge!("shard.tile.progress")
                                    .set(pairs_done as i64);
                                trace::event("shard.tile.hb", shared.tile_id(pos));
                            }
                        }
                        continue;
                    }
                    Some("tstat") => {
                        if !shared.absorb_tstat(w.id, &frame) {
                            return Verdict::Lost(Loss::Garbled);
                        }
                        continue;
                    }
                    Some("tspan") => {
                        if !shared.absorb_tspan(w.id, w.clock, &frame) {
                            return Verdict::Lost(Loss::Garbled);
                        }
                        continue;
                    }
                    Some("result") => {
                        let Some(id) = fields.next().and_then(|s| s.parse::<u64>().ok()) else {
                            return Verdict::Lost(Loss::Garbled);
                        };
                        if id != epoch {
                            // A duplicated frame or a superseded
                            // chunk's late result: refuse, keep
                            // listening for ours.
                            shared.stale_results.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        let payload = frame
                            .strip_prefix(&format!("result {id} "))
                            .unwrap_or_default();
                        let Some(outs) = decode_tile(payload, tile) else {
                            return Verdict::Lost(Loss::Garbled);
                        };
                        return match shared.lt.lock().unwrap().commit(pos, epoch) {
                            CommitOutcome::Committed => Verdict::Committed(outs),
                            CommitOutcome::Duplicate | CommitOutcome::Stale => Verdict::AlreadyDone,
                        };
                    }
                    _ => return Verdict::Lost(Loss::Garbled),
                }
            }
            Err(ProtocolError::Garbage { .. }) => {
                shared.frames_corrupt.fetch_add(1, Ordering::SeqCst);
                sts_obs::static_counter!("shard.frames.corrupt").incr();
                return Verdict::Garbage;
            }
            Err(e) if is_timeout(&e) => return Verdict::Lost(Loss::Silent),
            Err(ProtocolError::FrameTooLarge { .. }) => return Verdict::Lost(Loss::Garbled),
            Err(_) => return Verdict::Lost(Loss::HungUp),
        }
    }
}

/// Decodes one result payload into the tile's dense outcome slab.
/// `None` on any malformed, out-of-range, duplicated or missing record
/// — the chunk was for this exact tile, so anything but a perfect
/// cover is a protocol violation.
fn decode_tile(payload: &str, tile: &PairChunk) -> Option<Vec<PairOutcome>> {
    let cells = worker::decode_result_payload(payload)?;
    if cells.len() != tile.len {
        return None;
    }
    let mut dense = vec![PairOutcome::Skipped; tile.len];
    for (lin, outcome) in cells {
        if lin < tile.start || lin >= tile.start + tile.len {
            return None;
        }
        let slot = &mut dense[lin - tile.start];
        // The wire never carries `Skipped`, so it doubles as the
        // unfilled marker.
        if !matches!(slot, PairOutcome::Skipped) {
            return None;
        }
        *slot = outcome;
    }
    dense
        .iter()
        .all(|o| !matches!(o, PairOutcome::Skipped))
        .then_some(dense)
}

/// Launches one worker and walks it to `ready`: bind an ephemeral
/// loopback listener, launch, accept within the ready deadline, send
/// the preamble plus the `trace` context frame, and interpret the
/// worker's answer. The worker's `ready <now_ns>` clock echo is paired
/// with the coordinator's own clock at receipt to build the
/// per-connection [`ClockMap`].
fn spawn_ready_worker(shared: &Shared<'_>) -> Result<Worker, SpawnError> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|_| SpawnError::Failed)?;
    let addr = listener.local_addr().map_err(|_| SpawnError::Failed)?;
    listener
        .set_nonblocking(true)
        .map_err(|_| SpawnError::Failed)?;
    let mut handle = shared
        .launcher
        .launch(addr)
        .map_err(|_| SpawnError::Failed)?;
    shared.workers_spawned.fetch_add(1, Ordering::SeqCst);
    sts_obs::static_counter!("shard.workers.spawned").incr();
    let deadline = Instant::now() + shared.opts.ready_timeout;
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    handle.kill();
                    return Err(SpawnError::Failed);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                handle.kill();
                return Err(SpawnError::Failed);
            }
        }
    };
    let _ = stream.set_nodelay(true);
    // Connection ids are allocated unconditionally: they key telemetry
    // attribution and span-id/thread-id remapping even when no fault
    // injector is installed.
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
    let injector = shared.opts.injector.as_ref().map(|inner| {
        Arc::new(OffsetInjector {
            inner: Arc::clone(inner),
            base: conn_id * CONN_INDEX_STRIDE,
        }) as Arc<dyn NetInjector>
    });
    let Ok(mut conn) = FrameConn::with_injector(stream, injector) else {
        handle.kill();
        return Err(SpawnError::Failed);
    };
    let _ = conn.set_read_deadline(Some(shared.opts.ready_timeout));
    for frame in shared.preamble {
        if conn.send(frame).is_err() {
            handle.kill();
            return Err(SpawnError::Failed);
        }
    }
    // Trace context: job-wide trace id, the span the worker's root
    // should parent under, a disjoint id window per connection, and
    // whether spans are worth shipping at all (the coordinator is the
    // only consumer, so its tracing switch decides).
    let span_base = (conn_id + 1) << 32;
    let ship_spans = u64::from(trace::tracing_enabled());
    if conn
        .send(&format!(
            "trace {:016x} {} {span_base} {ship_spans}",
            shared.trace_id, shared.trace_parent
        ))
        .is_err()
    {
        handle.kill();
        return Err(SpawnError::Failed);
    }
    if conn.send("begin").is_err() {
        handle.kill();
        return Err(SpawnError::Failed);
    }
    loop {
        match conn.recv() {
            Ok(f) if f == "ready" || f.starts_with("ready ") => {
                // `ready <worker_now_ns>` — the clock-origin exchange.
                // A bare `ready` (older worker) degrades to identity
                // mapping: spans keep their worker-relative times.
                let clock = f
                    .strip_prefix("ready ")
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .map(|remote| ClockMap::from_exchange(remote, trace::now_ns()))
                    .unwrap_or_default();
                return Ok(Worker {
                    conn,
                    handle,
                    id: conn_id,
                    clock,
                });
            }
            Ok(f) if f.starts_with("reject ") => {
                handle.kill();
                return Err(SpawnError::Rejected);
            }
            Ok(_) => {
                handle.kill();
                return Err(SpawnError::Failed);
            }
            Err(ProtocolError::Garbage { .. }) => {
                shared.frames_corrupt.fetch_add(1, Ordering::SeqCst);
                sts_obs::static_counter!("shard.frames.corrupt").incr();
                continue;
            }
            Err(_) => {
                handle.kill();
                return Err(SpawnError::Failed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sts::MeasureSpec;
    use crate::{Sts, StsConfig};
    use std::net::{Shutdown, TcpStream};
    use sts_geo::{BoundingBox, Grid, Point};
    use sts_runtime::PairSpace;
    use sts_traj::Trajectory;

    fn grid() -> Grid {
        Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(200.0, 50.0)),
            5.0,
        )
        .unwrap()
    }

    fn walker(y: f64, phase: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let t = phase + 10.0 * i as f64;
                    sts_traj::TrajPoint::from_xy(2.0 * t, y, t)
                })
                .collect(),
        )
        .unwrap()
    }

    fn corpus() -> (Vec<Trajectory>, Vec<Trajectory>) {
        let queries: Vec<_> = (0..4)
            .map(|i| walker(5.0 + 10.0 * i as f64, 0.0, 6))
            .collect();
        let candidates: Vec<_> = (0..4)
            .map(|i| walker(8.0 + 9.0 * i as f64, 5.0, 6))
            .collect();
        (queries, candidates)
    }

    /// Runs `crate::worker::serve` on an in-process thread over the
    /// connecting socket — the test fleet.
    struct ThreadLauncher;

    struct ThreadHandle {
        stream: TcpStream,
    }

    impl WorkerHandle for ThreadHandle {
        fn kill(&mut self) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }

    impl WorkerLauncher for ThreadLauncher {
        fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
            let stream = TcpStream::connect(addr)?;
            let reader = stream.try_clone()?;
            let writer = stream.try_clone()?;
            std::thread::spawn(move || {
                let mut r = std::io::BufReader::new(reader);
                let mut w = writer;
                let _ = crate::worker::serve(&mut r, &mut w);
            });
            Ok(Box::new(ThreadHandle { stream }))
        }
    }

    /// A launcher that never produces a worker: exercises budget
    /// exhaustion and the leftover path.
    struct BrokenLauncher;

    impl WorkerLauncher for BrokenLauncher {
        fn launch(&self, _addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
            Err(io::Error::other("no workers here"))
        }
    }

    fn shard_opts(launcher: Arc<dyn WorkerLauncher>) -> ShardOptions {
        ShardOptions {
            workers: 2,
            lease_timeout: Duration::from_secs(5),
            ready_timeout: Duration::from_secs(5),
            hb_every: 2,
            restart_budget: 4,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_micros(500),
            launcher: Some(launcher),
            ..ShardOptions::default()
        }
    }

    fn run(
        opts: &ShardOptions,
        preamble_tamper: impl FnOnce(&mut Vec<String>),
    ) -> (
        Vec<Option<Vec<PairOutcome>>>,
        FleetRun,
        Vec<Trajectory>,
        Vec<Trajectory>,
    ) {
        let (queries, candidates) = corpus();
        let sts = Sts::new(StsConfig::default(), grid());
        let space = PairSpace::new(queries.len(), candidates.len());
        let cfg = crate::job::JobConfig::default();
        let mut preamble = crate::worker::encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            sts.grid(),
            &cfg,
            &space,
            &queries,
            &candidates,
            opts.hb_every,
        );
        preamble_tamper(&mut preamble);
        let tiles: Vec<PairChunk> = space.chunks(4).collect();
        let mut committed: Vec<Option<Vec<PairOutcome>>> = vec![None; tiles.len()];
        let run = run_fleet(
            &tiles,
            &preamble,
            opts,
            false,
            &sts_runtime::CancelToken::new(),
            Budget::default(),
            &mut |tile, outs| {
                let idx = tile.id;
                assert!(committed[idx].is_none(), "tile {idx} committed twice");
                committed[idx] = Some(outs);
            },
        );
        (committed, run, queries, candidates)
    }

    fn leftover_ids(run: &FleetRun) -> Vec<usize> {
        run.leftover.iter().map(|tile| tile.id).collect()
    }

    #[test]
    fn clean_fleet_commits_every_tile_bit_exactly_once() {
        let opts = shard_opts(Arc::new(ThreadLauncher));
        let (committed, run, queries, candidates) = run(&opts, |_| {});
        let sts = Sts::new(StsConfig::default(), grid());
        let strict = sts.similarity_matrix(&queries, &candidates).unwrap();
        let cols = candidates.len();
        for (idx, outs) in committed.iter().enumerate() {
            let outs = outs.as_ref().expect("every tile commits");
            for (off, outcome) in outs.iter().enumerate() {
                let lin = idx * 4 + off;
                match outcome {
                    PairOutcome::Score(s) => {
                        assert_eq!(
                            s.to_bits(),
                            strict[lin / cols][lin % cols].to_bits(),
                            "cell {lin}"
                        );
                    }
                    other => panic!("cell {lin}: {other:?}"),
                }
            }
        }
        assert!(run.leftover.is_empty());
        assert!(run.stop.is_none());
        assert_eq!(run.stats.tiles_leased, 4);
        assert_eq!(run.stats.leases_expired, 0);
        assert_eq!(run.stats.workers_rejected, 0);
        assert!(run.stats.workers_spawned >= 1 && run.stats.workers_spawned <= 2);
        assert_eq!(run.stats.worker_restarts, 0);
        // Fleet telemetry: every spawned worker survives a clean run
        // and flushes on shutdown; the coordinator-authoritative commit
        // tally covers the whole 4×4 matrix exactly.
        assert_eq!(run.stats.telemetry_flushes, run.stats.workers_spawned);
        assert_eq!(run.telemetry.flushes, run.stats.telemetry_flushes);
        assert!(run.telemetry.workers >= 1);
        assert_eq!(
            run.telemetry.merged.counter("shard.pairs.committed"),
            Some(16)
        );
        // The in-process test fleet shares this process's registry, so
        // worker-shipped counters are a superset of the fleet's own
        // work — exact equality needs subprocess workers (integration
        // tests); here `>=` proves the shipping path moved real deltas.
        assert!(
            run.telemetry
                .merged
                .counter("core.pairs.scored")
                .unwrap_or(0)
                >= 16
        );
        let labeled_commits: u64 = run
            .telemetry
            .labeled
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("shard.pairs.committed{worker="))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(
            labeled_commits, 16,
            "per-worker attribution sums to the matrix"
        );
    }

    #[test]
    fn exhausted_fleet_returns_every_tile_as_leftover() {
        let opts = shard_opts(Arc::new(BrokenLauncher));
        let (committed, run, _, _) = run(&opts, |_| {});
        assert!(committed.iter().all(Option::is_none));
        assert_eq!(leftover_ids(&run), vec![0, 1, 2, 3]);
        assert!(
            run.stop.is_none(),
            "exhaustion is not a stop: {:?}",
            run.stop
        );
        // Initial fleet spawns are free; every further attempt drew
        // from the shared budget of 4.
        assert_eq!(run.stats.worker_restarts, 4);
        assert_eq!(run.stats.workers_spawned, 0, "launch never succeeded");
    }

    #[test]
    fn version_skew_rejects_typed_without_burning_restarts() {
        let opts = shard_opts(Arc::new(ThreadLauncher));
        let (committed, run, _, _) = run(&opts, |preamble| {
            preamble[0] = preamble[0].replacen(
                &format!("hello {} ", crate::worker::PROTOCOL_VERSION),
                "hello 99 ",
                1,
            );
        });
        assert!(committed.iter().all(Option::is_none));
        assert_eq!(leftover_ids(&run), vec![0, 1, 2, 3]);
        assert!(run.stats.workers_rejected >= 1);
        assert_eq!(
            run.stats.worker_restarts, 0,
            "a permanent rejection must not burn the restart budget"
        );
    }

    #[test]
    fn zero_pair_result_payloads_are_protocol_violations() {
        let tile = PairChunk {
            id: 0,
            start: 4,
            len: 3,
        };
        // Perfect cover commits.
        assert!(decode_tile("3 4 s 0.5 5 q 6 s 0.25", &tile).is_some());
        for bad in [
            "2 4 s 0.5 5 q",          // short
            "3 4 s 0.5 5 q 9 s 0.25", // out of range
            "3 4 s 0.5 4 s 0.5 6 q",  // duplicate lin
            "3 4 s 0.5 5 zz 6 q",     // malformed record
        ] {
            assert!(decode_tile(bad, &tile).is_none(), "{bad:?}");
        }
    }

    /// An in-thread worker that scores pair `lin` as `2 · lin` and
    /// hangs up on any chunk holding pair `poison` — a crash the
    /// coordinator can only attribute by bisection.
    struct HangUpLauncher {
        poison: usize,
    }

    impl WorkerLauncher for HangUpLauncher {
        fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
            let stream = TcpStream::connect(addr)?;
            let sock = stream.try_clone()?;
            let mut conn = FrameConn::new(stream.try_clone()?)?;
            let poison = self.poison;
            std::thread::spawn(move || {
                while let Ok(frame) = conn.recv() {
                    let fields: Vec<&str> = frame.split_whitespace().collect();
                    match fields.as_slice() {
                        ["begin"] => {
                            let _ = conn.send("ready");
                        }
                        ["chunk", id, start, len] => {
                            let start: usize = start.parse().unwrap();
                            let len: usize = len.parse().unwrap();
                            if (start..start + len).contains(&poison) {
                                let _ = sock.shutdown(Shutdown::Both);
                                return;
                            }
                            let mut body = format!("result {id} {len}");
                            for lin in start..start + len {
                                body.push_str(&format!(" {lin} s {}", 2 * lin));
                            }
                            let _ = conn.send(&body);
                        }
                        ["shutdown"] => return,
                        _ => {}
                    }
                }
            });
            Ok(Box::new(ThreadHandle { stream }))
        }
    }

    #[test]
    fn lost_worker_is_bisected_down_to_its_poison_pair() {
        let opts = ShardOptions {
            restart_budget: 16,
            ..shard_opts(Arc::new(HangUpLauncher { poison: 11 }))
        };
        let units: Vec<PairChunk> = PairSpace::new(4, 8).chunks(8).collect();
        let mut cells: Vec<Option<PairOutcome>> = vec![None; 32];
        let run = run_fleet(
            &units,
            &[],
            &opts,
            true,
            &sts_runtime::CancelToken::new(),
            Budget::default(),
            &mut |unit, outs| {
                for (lin, outcome) in unit.range().zip(outs) {
                    assert!(cells[lin].is_none(), "pair {lin} resolved twice");
                    cells[lin] = Some(outcome);
                }
            },
        );
        assert!(run.stop.is_none(), "{:?}", run.stop);
        assert!(run.leftover.is_empty());
        assert_eq!(run.isolate.pairs_poisoned, 1);
        assert!(
            run.isolate.max_bisect_depth >= 3,
            "depth {}",
            run.isolate.max_bisect_depth
        );
        for (lin, cell) in cells.iter().enumerate() {
            match cell {
                Some(PairOutcome::Poisoned { exit }) => {
                    assert_eq!(lin, 11, "only the chosen pair is poisoned");
                    assert_eq!(*exit, WorkerExit::Protocol, "default reap verdict");
                }
                Some(PairOutcome::Score(s)) => assert_eq!(*s, (2 * lin) as f64, "pair {lin}"),
                other => panic!("pair {lin}: {other:?}"),
            }
        }
    }
}
