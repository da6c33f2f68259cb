//! The benchmark's spans, recorded through `sts_obs::trace`.
//!
//! Spans wrap the calls the benchmark makes into a layer's public
//! functions (`Sts::prepare`, `StpEstimator::stp`, `Wal::commit`, a
//! client request, …). Their names start with [`PREFIX`]; a traced run
//! installs a subscriber that keeps those in memory and drops the
//! library's own spans, and the per-layer metrics are reduced from what
//! it kept. The kept spans are written out as JSON lines when the run
//! ends. With tracing off, [`span`] is the library's inert guard.

use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use sts_obs::trace::{self, JsonlSubscriber, SpanRecord, Subscriber};

/// Every benchmark span name starts with this.
pub const PREFIX: &str = "bench.";

/// Keeps the benchmark's spans, unbounded: a traced run must reduce
/// every span it recorded, not the last N.
#[derive(Default)]
struct Recorder {
    spans: Mutex<Vec<SpanRecord>>,
}

impl Subscriber for Recorder {
    fn on_span(&self, span: &SpanRecord) {
        if span.name.starts_with(PREFIX) {
            self.spans.lock().expect("span log lock").push(span.clone());
        }
    }

    fn on_event(&self, _: &trace::EventRecord) {}
}

fn recorder() -> &'static Arc<Recorder> {
    static RECORDER: OnceLock<Arc<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(Default::default)
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    // Fixes the trace epoch before the first record, so a span timed
    // from an earlier start never clamps to 0.
    trace::now_ns();
    if on {
        trace::set_subscriber(Arc::clone(recorder()) as Arc<dyn Subscriber>);
    } else {
        trace::clear_subscriber();
    }
}

pub fn enabled() -> bool {
    trace::tracing_enabled()
}

/// Runs `f` inside a span called `name`.
#[inline]
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = trace::span(name);
    f()
}

/// Records a span whose start was taken earlier (a request timed from
/// its scheduled send time, closed by another thread).
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let now = Instant::now();
    let ago = |t: Instant| now.saturating_duration_since(t).as_nanos() as u64;
    trace::emit_span(&SpanRecord {
        id: 0,
        parent: 0,
        name,
        thread: trace::thread_id(),
        start_ns: trace::now_ns().saturating_sub(ago(start)),
        dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
    });
}

/// Durations (nanoseconds) of every recorded span called `name`.
pub fn durations_ns(name: &str) -> Vec<f64> {
    recorder()
        .spans
        .lock()
        .expect("span log lock")
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64)
        .collect()
}

/// Writes every recorded span as one JSON object per line, in the
/// library's trace format.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    let out = JsonlSubscriber::to_file(path)?;
    for s in recorder().spans.lock().expect("span log lock").iter() {
        out.on_span(s);
    }
    match out.write_errors() {
        0 => Ok(()),
        n => Err(std::io::Error::other(format!("{n} spans not written"))),
    }
}
