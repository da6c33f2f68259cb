//! `serve_mixed`: the streaming service under writes and reads at once.
//!
//! An in-process `Server::start` on `FsStorage` over loopback, at the
//! server's own geometry (5 m cells, σ 2 m, 150×80 m floor). Two
//! connections, both open loop (every request is sent at its scheduled
//! time whether or not earlier replies arrived):
//!
//! * ingest — mall pedestrians replayed as pings at [`PING_RATE`], with a
//!   `flush` after every [`FLUSH_EVERY`] pings;
//! * queries — windowed `coloc` at [`COLOC_RATE`] and `topk` at
//!   [`TOPK_RATE`] (one per slot of each rate, at a seeded point in the
//!   slot) over the trailing [`WINDOW_S`] seconds, always about objects
//!   active in that window.
//!
//! Top-k scoring holds the state mutex and stalls ingest apply, so the
//! query path and the WAL are measured together. Every latency runs
//! from the request's scheduled send time. After the schedule, a
//! `flush`, a probe set of queries and the server's count of applied
//! pings are compared byte for byte with an in-process `ServeState` fed
//! the acknowledged pings in acknowledgement order.

use crate::batch::stp_probe;
use crate::span::{self, span};
use crate::util::{self, mean, median, quantile, subseed};
use crate::{Args, Outcome};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sts_core::GaussianNoise;
use sts_geo::{BoundingBox, Grid, Point};
use sts_isolate::protocol::{read_frame_capped, write_frame};
use sts_rng::{Rng, Xoshiro256pp};
use sts_runtime::FsStorage;
use sts_serve::{
    f64_to_hex, Ping, ServeClient, ServeOptions, ServeState, ServeStats, Server, ServerHandle,
    StateConfig, Wal,
};
use sts_traj::generators::mall;
use sts_traj::Trajectory;

/// Pedestrians replayed; every one is live for the whole run. With 32,
/// one top-k takes ~60 ms, so the ~100 top-k samples a p90 needs hold
/// the state lock for about a fifth of a 30 s run: queries contend with
/// each other and with ingest, but the server stays far from
/// saturation, where latencies would no longer repeat from run to run.
const OBJECTS: usize = 32;
/// Stores each pedestrian visits: enough pings for a 60 s schedule.
const STOPS: usize = 32;
const PING_RATE: f64 = 100.0;
const FLUSH_EVERY: usize = 20;
const COLOC_RATE: f64 = 34.0;
const TOPK_RATE: f64 = 3.4;
const WINDOW_S: f64 = 120.0;
const STEPS: usize = 8;
const TOP_K: usize = 10;
/// Set-up passes run in two slots of `SETUP_SLOT`, one before the
/// schedule and one after it, so they sample the host at both ends of
/// the run. `setup_s` is the median of every pass.
const SETUP_SLOT: Duration = Duration::from_millis(1500);
/// Pings per object in the timed warm-up: the cold-model threshold.
const COLD_PINGS: usize = 2;
const PROBE_COLOC: usize = 32;
const PROBE_TOPK: usize = 8;
/// A run whose generator sent any request later than this share of the
/// schedule's length is invalid: a stalled generator must never read
/// as a fast server.
const LATE_SHARE: f64 = 0.05;
const HELLOS: usize = 200;
const FRAME_CAP: usize = 1 << 20;

pub fn state_config() -> StateConfig {
    StateConfig {
        area_min: (0.0, 0.0),
        area_max: (150.0, 80.0),
        cell_size: 5.0,
        noise_sigma: 2.0,
        ..StateConfig::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Query {
    Coloc { a: u64, b: u64, t0: f64, t1: f64 },
    Topk { obj: u64, t0: f64, t1: f64 },
}

impl Query {
    fn frame(&self) -> String {
        match *self {
            Query::Coloc { a, b, t0, t1 } => {
                format!(
                    "coloc {a} {b} {} {} {STEPS}",
                    f64_to_hex(t0),
                    f64_to_hex(t1)
                )
            }
            Query::Topk { obj, t0, t1 } => {
                format!(
                    "topk {obj} {} {} {STEPS} {TOP_K}",
                    f64_to_hex(t0),
                    f64_to_hex(t1)
                )
            }
        }
    }

    /// The reply the in-process state gives, formatted as the server
    /// formats it.
    fn answer(&self, state: &mut ServeState, stats: &ServeStats) -> String {
        match *self {
            Query::Coloc { a, b, t0, t1 } => {
                let o = state.windowed_colocation(a, b, t0, t1, STEPS, false, stats);
                format!("coloc {} {}", o.staleness.token(), f64_to_hex(o.value))
            }
            Query::Topk { obj, t0, t1 } => {
                let o = state.topk(obj, t0, t1, STEPS, TOP_K, false, Duration::MAX, stats);
                let mut s = format!(
                    "topk {} {} {}",
                    o.staleness.token(),
                    if o.deadline_hit { "deadline" } else { "ok" },
                    o.value.len()
                );
                for (id, score) in &o.value {
                    s.push_str(&format!(" {id} {}", f64_to_hex(*score)));
                }
                s
            }
        }
    }
}

/// The generated inputs: warm-up pings, the ping stream, and the query
/// schedule. The warm-up takes every object past the cold-model
/// threshold (two pings) and then fills its tail ring, so queries cost
/// the same from the first second of the schedule to the last.
struct Plan {
    seed: u64,
    /// Pings before the schedule: first every object's two oldest (the
    /// timed set-up's warm-up), then the rest of each tail ring.
    warmup: Vec<Ping>,
    /// Length of the timed part of `warmup`.
    cold: usize,
    stream: Vec<Ping>,
    /// `(offset, query, stream pings scheduled at or before it)`.
    queries: Vec<(f64, Query, usize)>,
    trajectories: Vec<Trajectory>,
}

/// The trailing window ending at the newest ping before stream index
/// `upto`, and the objects with a ping inside it.
fn window(
    plan_pings: &[Ping],
    last_seen: &[f64],
    upto: usize,
    fallback_t: f64,
) -> (f64, f64, Vec<u64>) {
    let t1 = if upto == 0 {
        fallback_t
    } else {
        plan_pings[upto - 1].t
    };
    let t0 = t1 - WINDOW_S;
    let active = (0..last_seen.len() as u64)
        .filter(|&o| last_seen[o as usize] >= t0)
        .collect();
    (t0, t1, active)
}

/// A query about objects in `active`. Top-k queries take their object
/// from `cycle` (a seeded permutation of every object, repeated) when it
/// is active, so each run's top-k costs cover the whole population
/// rather than a lucky or unlucky draw of it.
fn pick_query(
    rng: &mut Xoshiro256pp,
    cycle: &mut impl Iterator<Item = u64>,
    coloc: bool,
    t0: f64,
    t1: f64,
    active: &[u64],
) -> Query {
    if coloc {
        let a = active[rng.random_range(0..active.len())];
        let b = loop {
            let b = active[rng.random_range(0..active.len())];
            if b != a {
                break b;
            }
        };
        Query::Coloc { a, b, t0, t1 }
    } else {
        let obj = cycle
            .take(active.len().max(1) * 4)
            .find(|o| active.contains(o))
            .unwrap_or_else(|| active[rng.random_range(0..active.len())]);
        Query::Topk { obj, t0, t1 }
    }
}

fn plan(seed: u64, seconds: f64) -> Result<Plan, String> {
    let workload = mall::generate(&mall::MallConfig {
        n_pedestrians: OBJECTS,
        n_stops: STOPS,
        seed,
        ..mall::MallConfig::default()
    });
    let trajectories: Vec<Trajectory> = workload
        .objects
        .into_iter()
        .map(|o| o.trajectory)
        .filter(|t| t.len() >= 2)
        .collect();
    let ring = state_config().ring_capacity;
    let (mut cold, mut fill, mut stream) = (Vec::new(), Vec::new(), Vec::new());
    for (obj, t) in trajectories.iter().enumerate() {
        for (k, p) in t.points().iter().enumerate() {
            let ping = Ping {
                seq: 0,
                obj: obj as u64,
                t: p.t,
                x: p.loc.x,
                y: p.loc.y,
            };
            match k {
                k if k < COLD_PINGS => cold.push(ping),
                k if k < ring => fill.push(ping),
                _ => stream.push(ping),
            }
        }
    }
    let by_time = |a: &Ping, b: &Ping| a.t.total_cmp(&b.t).then(a.obj.cmp(&b.obj));
    cold.sort_by(by_time);
    fill.sort_by(by_time);
    stream.sort_by(by_time);
    let cold_len = cold.len();
    let mut warmup = cold;
    warmup.extend(fill);
    let n_pings = (seconds * PING_RATE).ceil() as usize;
    if stream.len() < n_pings {
        return Err(format!(
            "{} pings generated, {n_pings} needed for {seconds} s",
            stream.len()
        ));
    }
    stream.truncate(n_pings);
    for (seq, p) in warmup.iter_mut().chain(stream.iter_mut()).enumerate() {
        p.seq = seq as u64 + 1;
    }

    // Query schedule, merged by offset; each query asks about objects
    // active in the window ending at the newest ping sent before it.
    // One query per slot of each rate, at a seeded point inside its
    // slot: the rates stay fixed, and a coloc can arrive at any phase of
    // a running top-k instead of locking to the same phase every time.
    let mut jitter = Xoshiro256pp::seed_from_u64(subseed(seed, 6));
    let mut offsets: Vec<(f64, bool)> = Vec::new();
    for (rate, coloc) in [(COLOC_RATE, true), (TOPK_RATE, false)] {
        for j in 0..(seconds * rate) as usize {
            offsets.push(((j as f64 + jitter.random::<f64>()) / rate, coloc));
        }
    }
    offsets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut rng = Xoshiro256pp::seed_from_u64(subseed(seed, 4));
    let mut cycle = object_cycle(&mut rng, trajectories.len());
    let mut last_seen = vec![f64::NEG_INFINITY; trajectories.len()];
    for p in &warmup {
        last_seen[p.obj as usize] = p.t;
    }
    let warm_t = warmup.last().map_or(0.0, |p| p.t);
    let mut sent = 0;
    let mut queries = Vec::new();
    for (offset, coloc) in offsets {
        while sent < stream.len() && sent as f64 / PING_RATE <= offset {
            last_seen[stream[sent].obj as usize] = stream[sent].t;
            sent += 1;
        }
        let (t0, t1, active) = window(&stream, &last_seen, sent, warm_t);
        queries.push((
            offset,
            pick_query(&mut rng, &mut cycle, coloc, t0, t1, &active),
            sent,
        ));
    }
    Ok(Plan {
        seed,
        cold: cold_len,
        warmup,
        stream,
        queries,
        trajectories,
    })
}

/// The checked probe set after the first `n_pings` stream pings: queries
/// about the objects active in the window ending at the newest of them.
fn probes(p: &Plan, n_pings: usize) -> Vec<Query> {
    let mut last_seen = vec![f64::NEG_INFINITY; p.trajectories.len()];
    for ping in p.warmup.iter().chain(&p.stream[..n_pings]) {
        last_seen[ping.obj as usize] = ping.t;
    }
    let warm_t = p.warmup.last().map_or(0.0, |p| p.t);
    let (t0, t1, active) = window(&p.stream, &last_seen, n_pings, warm_t);
    let mut rng = Xoshiro256pp::seed_from_u64(subseed(p.seed, 5));
    let mut cycle = object_cycle(&mut rng, p.trajectories.len());
    (0..PROBE_COLOC + PROBE_TOPK)
        .map(|k| pick_query(&mut rng, &mut cycle, k < PROBE_COLOC, t0, t1, &active))
        .collect()
}

/// A seeded permutation of `0..n`, repeated forever.
fn object_cycle(rng: &mut Xoshiro256pp, n: usize) -> impl Iterator<Item = u64> {
    let mut order: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order.into_iter().cycle()
}

/// One request on the wire, as its connection's reader expects it.
enum Expect {
    Ping(usize),
    Flush,
    Query(Query),
}

/// What the readers saw during one schedule.
#[derive(Default)]
struct Tally {
    /// Stream indices of acknowledged pings, in acknowledgement order.
    acked: Vec<usize>,
    coloc_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    busy: u64,
    stale: u64,
    deadline: u64,
    errors: u64,
    /// Latest any request left the generator, relative to schedule.
    late_ms_max: f64,
}

fn connect(addr: std::net::SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let r = s.try_clone().map_err(|e| e.to_string())?;
    Ok((s, BufReader::new(r)))
}

/// Reads one reply per expected request until the writer hangs up.
fn read_replies(
    mut reader: BufReader<TcpStream>,
    rx: mpsc::Receiver<(Instant, Expect)>,
) -> Result<(Tally, BufReader<TcpStream>), String> {
    let mut t = Tally::default();
    for (due, expect) in rx {
        let reply = read_frame_capped(&mut reader, FRAME_CAP).map_err(|e| format!("read: {e}"))?;
        let now = Instant::now();
        let ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
        let head = reply.split_whitespace().next().unwrap_or("");
        match expect {
            Expect::Ping(i) => match head {
                "ok" => t.acked.push(i),
                "busy" => t.busy += 1,
                _ => t.errors += 1,
            },
            Expect::Flush => {
                if head == "flushed" {
                    span::record("bench.client.flush", due, now);
                    t.flush_ms.push(ms);
                } else {
                    t.errors += 1;
                }
            }
            Expect::Query(q) => {
                let mut f = reply.split_whitespace();
                let kind = f.next();
                let fresh = f.next() == Some("fresh");
                let cut = f.next() == Some("deadline");
                match (q, kind) {
                    (Query::Coloc { .. }, Some("coloc")) if fresh => {
                        span::record("bench.client.coloc", due, now);
                        t.coloc_ms.push(ms);
                    }
                    (Query::Topk { .. }, Some("topk")) if fresh && !cut => {
                        span::record("bench.client.topk", due, now);
                        t.topk_ms.push(ms);
                    }
                    (_, Some("coloc" | "topk")) => {
                        t.stale += u64::from(!fresh);
                        t.deadline += u64::from(cut);
                    }
                    _ => t.errors += 1,
                }
            }
        }
    }
    Ok((t, reader))
}

/// Everything one server session produced.
struct Session {
    setups: Vec<f64>,
    tally: Tally,
    /// Requests sent by the open-loop generator.
    sent: u64,
    checked: u64,
    equal: u64,
    stats: Vec<(String, u64)>,
    hello_us: Vec<f64>,
    valid: bool,
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        state: state_config(),
        ..ServeOptions::new(dir)
    }
}

fn roundtrip(
    w: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    frame: &str,
) -> Result<String, String> {
    write_frame(w, frame).map_err(|e| format!("write: {e}"))?;
    read_frame_capped(r, FRAME_CAP).map_err(|e| format!("read: {e}"))
}

/// One timed set-up: `Server::start`, then the warm-up ingest past the
/// cold-model threshold, ended by `flush`. Returns its wall time with
/// the server and its client.
fn setup(p: &Plan, dir: &Path) -> Result<(f64, ServerHandle, ServeClient), String> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let h = Server::start(options(dir), Arc::new(FsStorage), "127.0.0.1:0")
        .map_err(|e| format!("server start: {e}"))?;
    let mut c = ServeClient::connect(h.addr()).map_err(|e| format!("connect: {e}"))?;
    for ping in &p.warmup[..p.cold] {
        c.ingest_until_acked(ping)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    c.flush().map_err(|e| format!("warm-up flush: {e}"))?;
    Ok((started.elapsed().as_secs_f64(), h, c))
}

/// What the server must answer after the schedule, given a `reference`
/// state fed the same pings: the reply to `flush` (the durable
/// horizon), the reply to every probe, and the count of applied pings
/// (`ingest_applied` of the stats frame). The probes see what the state
/// still holds: each object's last `ring_capacity` pings and speeds. The
/// count catches a lost acknowledged ping anywhere in the run.
fn expected(reference: &mut ServeState, probes: &[Query]) -> Vec<String> {
    let stats = ServeStats::default();
    let mut out = vec![format!("flushed {}", reference.max_seq())];
    out.extend(probes.iter().map(|q| q.answer(reference, &stats)));
    out.push(format!("applied {}", reference.total_applied()));
    out
}

/// Set-up passes over `SETUP_SLOT`; the server of the last one stays up.
fn setup_slot(p: &Plan, dir: &Path) -> Result<(Vec<f64>, ServerHandle, ServeClient), String> {
    let mut last: Option<(ServerHandle, ServeClient)> = None;
    let setups = util::passes(1, SETUP_SLOT, || {
        if let Some((h, c)) = last.take() {
            // The client first: the server joins its connection threads.
            drop(c);
            drop(h);
        }
        let (s, h, c) = setup(p, dir)?;
        last = Some((h, c));
        Ok::<_, String>(s)
    })?;
    let (h, c) = last.expect("at least one set-up");
    Ok((setups, h, c))
}

/// A slot of set-up passes, the open-loop schedule over its first
/// `seconds` on the last set-up's server, the checked flush and probes,
/// then another slot of set-up passes.
fn session(p: &Plan, seconds: f64, dir: &Path) -> Result<Session, String> {
    let (mut setups, h, mut c) = setup_slot(p, dir)?;
    // Fill the tail rings outside the clock, in flushed batches small
    // enough that the ingest queue never sheds.
    for batch in p.warmup[p.cold..].chunks(8) {
        let (ok, _) = c
            .ingest_pipelined(batch)
            .map_err(|e| format!("ring fill: {e}"))?;
        if ok != batch.len() as u64 {
            return Err(format!(
                "ring fill: {ok} of {} pings acknowledged",
                batch.len()
            ));
        }
        c.flush().map_err(|e| format!("ring fill flush: {e}"))?;
    }
    let stats_before = c.stats().map_err(|e| format!("stats: {e}"))?;
    drop(c);

    let n_pings = (seconds * PING_RATE).ceil() as usize;
    let (mut ingest_w, ingest_r) = connect(h.addr())?;
    let (mut query_w, query_r) = connect(h.addr())?;
    let mut events: Vec<(f64, bool, Expect)> = Vec::new();
    for i in 0..n_pings {
        let at = i as f64 / PING_RATE;
        events.push((at, true, Expect::Ping(i)));
        if (i + 1) % FLUSH_EVERY == 0 {
            events.push((at, true, Expect::Flush));
        }
    }
    for &(at, q, _) in p.queries.iter().filter(|(at, _, _)| *at < seconds) {
        events.push((at, false, Expect::Query(q)));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let sent = events.len() as u64;

    let (itx, irx) = mpsc::channel();
    let (qtx, qrx) = mpsc::channel();
    let (ingest, query, late_ms_max) = std::thread::scope(|s| {
        let ingest = s.spawn(move || read_replies(ingest_r, irx));
        let query = s.spawn(move || read_replies(query_r, qrx));
        let start = Instant::now() + Duration::from_millis(20);
        let mut late_ms_max: f64 = 0.0;
        let mut failure = None;
        for (at, is_ingest, expect) in events {
            let due = start + Duration::from_secs_f64(at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let frame = match &expect {
                Expect::Ping(i) => p.stream[*i].encode(),
                Expect::Flush => "flush".to_string(),
                Expect::Query(q) => q.frame(),
            };
            let (w, tx) = if is_ingest {
                (&mut ingest_w, &itx)
            } else {
                (&mut query_w, &qtx)
            };
            late_ms_max = late_ms_max.max(due.elapsed().as_secs_f64() * 1e3);
            let _ = tx.send((due, expect));
            if let Err(e) = write_frame(w, &frame) {
                failure = Some(format!("write: {e}"));
                break;
            }
        }
        drop((itx, qtx));
        let ingest = ingest.join().expect("ingest reader thread");
        let query = query.join().expect("query reader thread");
        match failure {
            Some(e) => Err(e),
            None => Ok((ingest, query, late_ms_max)),
        }
    })?;
    let (mut tally, mut ingest_r) = ingest?;
    let (qt, mut query_r) = query?;
    tally.coloc_ms = qt.coloc_ms;
    tally.topk_ms = qt.topk_ms;
    tally.stale = qt.stale;
    tally.deadline = qt.deadline;
    tally.errors += qt.errors;
    tally.late_ms_max = late_ms_max;
    let valid = late_ms_max <= LATE_SHARE * seconds * 1e3;

    // The checked answers, against an in-process state fed the
    // acknowledged pings in acknowledgement order.
    let mut reference = ServeState::new(state_config());
    for ping in &p.warmup {
        reference.apply(ping);
    }
    for &i in &tally.acked {
        reference.apply(&p.stream[i]);
    }
    let probe_set = probes(p, n_pings);
    let want = expected(&mut reference, &probe_set);
    let mut got = vec![roundtrip(&mut ingest_w, &mut ingest_r, "flush")?];
    for q in &probe_set {
        got.push(roundtrip(&mut query_w, &mut query_r, &q.frame())?);
    }
    let stats_frame = roundtrip(&mut query_w, &mut query_r, "stats")?;
    let mut stats =
        ServeStats::parse(&stats_frame).ok_or(format!("bad stats frame {stats_frame:?}"))?;
    let applied = stats.iter().find(|(name, _)| name == "ingest_applied");
    got.push(format!("applied {}", applied.map_or(0, |(_, v)| *v)));
    let checked = want.len() as u64;
    let equal = want.iter().zip(&got).filter(|(w, g)| w == g).count() as u64;
    // Counters over the schedule only; the queue-depth high-water mark
    // cannot be split and covers the warm-up too.
    for ((name, v), (_, before)) in stats.iter_mut().zip(&stats_before) {
        if name != "queue_depth_max" {
            *v -= before;
        }
    }
    let mut hello_us = Vec::new();
    if span::enabled() {
        for _ in 0..HELLOS {
            let started = Instant::now();
            span("bench.isolate.hello", || {
                roundtrip(&mut query_w, &mut query_r, "hello")
            })?;
            hello_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop((ingest_w, ingest_r, query_w, query_r));
    h.shutdown();
    let (more, h, c) = setup_slot(p, dir)?;
    setups.extend(more);
    drop(c);
    h.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(Session {
        setups,
        tally,
        sent,
        checked,
        equal,
        stats,
        hello_us,
        valid,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let p = plan(args.seed, args.seconds)?;
    let live = p.trajectories.len();
    eprintln!(
        "serve_mixed: seed {} · {live} objects · {} warm-up + {} stream pings · {} queries",
        args.seed,
        p.warmup.len(),
        p.stream.len(),
        p.queries.len()
    );
    let root = util::run_dir().join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let result = if args.trace {
        // Same schedule prefix twice, on fresh servers: untraced, then
        // traced, so the difference is the tracing overhead.
        let half = args.seconds / 2.0;
        span::set_enabled(false);
        let plain = session(&p, half, &root.join("plain"))?;
        span::set_enabled(true);
        let traced = session(&p, half, &root.join("traced"))?;
        let mut out = outcome(&[&plain, &traced], live);
        layers(&p, &plain, &traced, half, &root, &mut out)?;
        span::set_enabled(false);
        out
    } else {
        let s = session(&p, args.seconds, &root.join("run"))?;
        outcome(&[&s], live)
    };
    let _ = std::fs::remove_dir_all(&root);
    Ok(result)
}

/// The end-to-end metrics and the result counts over `sessions`.
fn outcome(sessions: &[&Session], live: usize) -> Outcome {
    let last = sessions.last().expect("one session");
    let t = &last.tally;
    let mut out = Outcome::default();
    let (mut checked, mut equal, mut attempted, mut failed, mut valid) = (0, 0, 0, 0, true);
    for s in sessions {
        let t = &s.tally;
        checked += s.checked;
        equal += s.equal;
        attempted += s.sent + s.checked;
        failed += t.busy + t.stale + t.deadline + t.errors + (s.checked - s.equal);
        valid &= s.valid;
        if !s.valid {
            eprintln!(
                "serve_mixed: invalid run: generator ran up to {:.1} ms late",
                t.late_ms_max
            );
        }
    }
    let m = &mut out.metrics;
    // A top-k scores every other live object.
    let topk_s = median(&t.topk_ms) * 1e-3;
    m.insert(
        "pairs_per_s",
        if topk_s > 0.0 {
            (live as f64 - 1.0) / topk_s
        } else {
            0.0
        },
    );
    m.insert("coloc_p50_ms", median(&t.coloc_ms));
    m.insert("coloc_p99_ms", quantile(&t.coloc_ms, 0.99));
    m.insert("topk_p50_ms", median(&t.topk_ms));
    m.insert("topk_p90_ms", quantile(&t.topk_ms, 0.90));
    m.insert("answer_quality", equal as f64 / checked.max(1) as f64);
    m.insert("setup_s", median(&last.setups));
    out.attempted = attempted;
    out.failed = failed;
    out.correct = valid && equal == checked;
    eprintln!(
        "serve_mixed: coloc n={} p50 {:.2} ms p99 {:.2} ms · topk n={} p50 {:.1} ms p90 {:.1} ms · \
         flush n={} p50 {:.2} ms · busy {} stale {} deadline {} err {} · late ≤ {:.2} ms · \
         setup {:.4} s · checked {checked} outputs, {equal} equal",
        t.coloc_ms.len(),
        median(&t.coloc_ms),
        quantile(&t.coloc_ms, 0.99),
        t.topk_ms.len(),
        median(&t.topk_ms),
        quantile(&t.topk_ms, 0.90),
        t.flush_ms.len(),
        median(&t.flush_ms),
        t.busy,
        t.stale,
        t.deadline,
        t.errors,
        t.late_ms_max,
        median(&last.setups),
    );
    out
}

/// The per-layer metrics of a traced run.
fn layers(
    p: &Plan,
    plain: &Session,
    traced: &Session,
    seconds: f64,
    root: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let sum = |t: &Tally| {
        t.coloc_ms
            .iter()
            .chain(&t.topk_ms)
            .chain(&t.flush_ms)
            .sum::<f64>()
    };
    let m = &mut out.metrics;
    m.insert(
        "trace.overhead_pct",
        (sum(&traced.tally) / sum(&plain.tally) - 1.0) * 100.0,
    );
    let stat = |name: &str| {
        traced
            .stats
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    for (metric, counter) in [
        ("server.shed_busy", "shed_busy"),
        ("server.queries_stale", "queries_stale"),
        ("server.queries_deadline", "queries_deadline"),
        ("server.queue_depth_max", "queue_depth_max"),
    ] {
        m.insert(metric, stat(counter));
    }
    m.insert("isolate.roundtrip_us", median(&traced.hello_us));
    m.insert("serve.flush_ms", median(&traced.tally.flush_ms));
    m.insert(
        "loadgen.late_ms_max",
        plain.tally.late_ms_max.max(traced.tally.late_ms_max),
    );

    // In-process replay of the traced session: the same acknowledged
    // pings and the same query schedule, straight into `ServeState`.
    let mut state = ServeState::new(state_config());
    let stats = ServeStats::default();
    for ping in &p.warmup {
        state.apply(ping);
    }
    let mut acked = traced.tally.acked.iter().peekable();
    for &(_, q, upto) in p.queries.iter().filter(|(at, _, _)| *at < seconds) {
        while let Some(&&i) = acked.peek().filter(|&&&i| i < upto) {
            span("bench.serve.apply", || state.apply(&p.stream[i]));
            acked.next();
        }
        let name = match q {
            Query::Coloc { .. } => "bench.serve.coloc",
            Query::Topk { .. } => "bench.serve.topk",
        };
        std::hint::black_box(span(name, || q.answer(&mut state, &stats)));
    }
    let us = |name| mean(&span::durations_ns(name)) * 1e-3;
    m.insert("serve.apply_us", us("bench.serve.apply"));
    m.insert("serve.coloc_ms", us("bench.serve.coloc") * 1e-3);
    m.insert("serve.topk_ms", us("bench.serve.topk") * 1e-3);

    let n_pings = (seconds * PING_RATE).ceil() as usize;
    let (commit_ms, commits) = wal_probe(p, &traced.tally.acked, n_pings, &root.join("walprobe"))?;
    m.insert("wal.commit_ms", commit_ms);
    m.insert("wal.commits", commits);

    let grid = Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(150.0, 80.0)),
        state_config().cell_size,
    )
    .map_err(|e| format!("serve grid: {e:?}"))?;
    let noise = GaussianNoise::new(state_config().noise_sigma);
    let cells = stp_probe(&grid, &noise, p.trajectories.iter().collect(), 64, 0);
    m.insert(
        "stprob.bridge_us",
        mean(&span::durations_ns("bench.stprob.bridge")) * 1e-3,
    );
    m.insert(
        "stprob.observed_us",
        mean(&span::durations_ns("bench.stprob.observed")) * 1e-3,
    );
    m.insert("stprob.bridge_cells", cells);
    for name in [
        "stprob.evals_per_pair",
        "stprob.cells_per_eval",
        "stpcache.hit_ratio",
        "sts.prepare_us",
        "sts.pair_ms_p50",
        "sts.pair_ms_p99",
        "engine.parallel_efficiency",
    ] {
        m.insert(name, 0.0);
    }
    Ok(())
}

/// `Wal::commit` on `FsStorage`, fed what the server logged: the
/// warm-up, then the acknowledged pings, committing every
/// `commit_every` records and at every flush, as the ingest thread
/// does. Returns the mean commit time (ms) and the number of commits.
fn wal_probe(p: &Plan, acked: &[usize], n_pings: usize, dir: &Path) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let stats = Arc::new(ServeStats::default());
    let opts = options(dir);
    let (mut wal, _) = Wal::open(
        Arc::new(FsStorage),
        dir,
        opts.segment_records,
        Arc::clone(&stats),
    )
    .map_err(|e| format!("wal open: {e}"))?;
    let commit = |wal: &mut Wal| {
        span("bench.wal.commit", || wal.commit()).map_err(|e| format!("wal commit: {e}"))
    };
    for ping in &p.warmup {
        wal.append(ping.encode());
        if wal.pending_len() >= opts.commit_every {
            commit(&mut wal)?;
        }
    }
    commit(&mut wal)?;
    let mut was_acked = vec![false; n_pings];
    for &i in acked {
        was_acked[i] = true;
    }
    for (i, ping) in p.stream[..n_pings].iter().enumerate() {
        if was_acked[i] {
            wal.append(ping.encode());
            if wal.pending_len() >= opts.commit_every {
                commit(&mut wal)?;
            }
        }
        if (i + 1) % FLUSH_EVERY == 0 {
            commit(&mut wal)?;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    let commits = stats.get("wal_commits").unwrap_or(0) as f64;
    Ok((
        mean(&span::durations_ns("bench.wal.commit")) * 1e-6,
        commits,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_per_seed_and_queries_ask_about_live_objects() {
        let a = plan(5, 2.0).unwrap();
        let b = plan(5, 2.0).unwrap();
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.queries, b.queries);
        assert_eq!(
            a.warmup.len(),
            state_config().ring_capacity * a.trajectories.len()
        );
        assert!(a
            .stream
            .windows(2)
            .all(|w| w[0].seq < w[1].seq && w[0].t <= w[1].t));
        for (_, q, _) in &a.queries {
            if let Query::Coloc { a: x, b: y, .. } = q {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn wal_commit_count_repeats_exactly() {
        let p = plan(9, 1.0).unwrap();
        let acked: Vec<usize> = (0..p.stream.len()).collect();
        let dir = util::run_dir().join(format!("test-wal-{}", std::process::id()));
        let first = wal_probe(&p, &acked, acked.len(), &dir.join("a"))
            .unwrap()
            .1;
        let second = wal_probe(&p, &acked, acked.len(), &dir.join("b"))
            .unwrap()
            .1;
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(first, second);
        assert!(first > 0.0);
    }

    #[test]
    fn one_lost_ping_drops_answer_quality() {
        let _serial = util::KERNEL_COUNTERS.lock().unwrap();
        // 30 s of pings: ~94 per object, three times a ring.
        let p = plan(11, 30.0).unwrap();
        // The reference state, fed every ping but the stream's `lost`-th.
        let want = |lost: Option<usize>| {
            let mut state = ServeState::new(state_config());
            for ping in &p.warmup {
                state.apply(ping);
            }
            for (i, ping) in p.stream.iter().enumerate() {
                if Some(i) != lost {
                    state.apply(ping);
                }
            }
            expected(&mut state, &probes(&p, p.stream.len()))
        };
        let full = want(None);
        assert_eq!(full, want(None));
        let differ = |a: &[String], b: &[String]| a.iter().zip(b).filter(|(x, y)| x != y).count();
        // A ping lost from the middle of the stream has left every ring
        // by the end: the probes cannot see it, the applied count does.
        let n = full.len() - 1;
        let middle = want(Some(p.stream.len() / 2));
        assert_eq!(middle[0], full[0], "below the flush horizon");
        assert_eq!(differ(&middle[1..n], &full[1..n]), 0);
        assert_ne!(middle[n], full[n]);
        // A ping lost from the tail, still in its object's ring, also
        // changes probe answers.
        let tail = want(Some(p.stream.len() - 2));
        assert_eq!(tail[0], full[0], "below the flush horizon");
        assert!(differ(&tail[1..n], &full[1..n]) > 0);
    }
}
