//! `sts-benchmark` — the repository benchmark.
//!
//! ```text
//! sts-benchmark --workload <mall_match|taxi_match|serve_mixed> --seed <n>
//!               --seconds <s> --trace <0|1>
//! sts-benchmark --write-reference --workload <w> --seed <n>
//! ```
//!
//! Each run generates its inputs from `--seed` before any clock starts,
//! pins `STS_THREADS` to the host's available parallelism, measures for
//! `--seconds`, checks every output, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` records spans around the benchmark's calls into
//! each layer and reports the per-layer metrics, including the tracing
//! overhead against an untraced half of the same run. A human-readable
//! summary goes to standard error. See `README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

mod batch;
mod reference;
mod serve;
mod span;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), reported on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pairs_per_s", "1/s"),
    ("coloc_p50_ms", "ms"),
    ("coloc_p99_ms", "ms"),
    ("topk_p50_ms", "ms"),
    ("topk_p90_ms", "ms"),
    ("answer_quality", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload never calls
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stprob.bridge_us", "us"),
    ("stprob.observed_us", "us"),
    ("stprob.bridge_cells", "count"),
    ("stprob.evals_per_pair", "count"),
    ("stprob.cells_per_eval", "count"),
    ("stpcache.hit_ratio", "ratio"),
    ("sts.prepare_us", "us"),
    ("sts.pair_ms_p50", "ms"),
    ("sts.pair_ms_p99", "ms"),
    ("engine.parallel_efficiency", "ratio"),
    ("serve.apply_us", "us"),
    ("serve.coloc_ms", "ms"),
    ("serve.topk_ms", "ms"),
    ("serve.flush_ms", "ms"),
    ("wal.commit_ms", "ms"),
    ("wal.commits", "count"),
    ("server.shed_busy", "count"),
    ("server.queries_stale", "count"),
    ("server.queries_deadline", "count"),
    ("server.queue_depth_max", "count"),
    ("isolate.roundtrip_us", "us"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["mall_match", "taxi_match", "serve_mixed"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub write_reference: bool,
}

/// What one run produced: the result line before printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sts-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         sts-benchmark --write-reference --workload <w> --seed <n>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next()?,
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                args.seconds = it.next()?.parse().ok()?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return None;
                }
            }
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--write-reference" => args.write_reference = true,
            _ => return None,
        }
    }
    WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    // One worker per CPU, pinned so the matrix engine never guesses.
    let threads = util::threads();
    std::env::set_var("STS_THREADS", threads.to_string());

    if args.write_reference {
        return match batch::write_reference(&args) {
            Ok(path) => {
                eprintln!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sts-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let outcome = match args.workload.as_str() {
        "mall_match" => batch::run(batch::Kind::Mall, &args),
        "taxi_match" => batch::run(batch::Kind::Taxi, &args),
        _ => serve::run(&args),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sts-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        let rss = sts_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
        outcome.metrics.insert("peak_rss_mb", rss);
    }
    if args.trace {
        let dir = util::run_dir();
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| span::write_jsonl(&path)) {
            eprintln!("sts-benchmark: cannot write {}: {e}", path.display());
        }
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", util::result_json(&outcome, wanted));
    ExitCode::SUCCESS
}
