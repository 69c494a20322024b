//! `dcbench` — the DataCell benchmark of record.
//!
//! ```text
//! dcbench --workload <embedded_mq|wire_binary_passthrough|wire_text_durable|all>
//!         [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload (or all three with `--workload all`), checks its
//! outputs and prints two JSON lines: a record (seed, host, build, notes)
//! and, last, the result (`correct`, `attempted`, `failed`, `metrics`).
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run records a span around every call into a layer and reports the
//! per-layer ones, writing the spans to `dcbench/out/`. Built in debug
//! mode it refuses to run. See `dcbench/README.md`.

mod affinity;
mod check;
mod embedded;
mod gen;
mod loadgen;
mod report;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{host_facts, record_line, result_line, Outcome};
use trace::SpanStats;

/// Options shared by every workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where spans are written at exit (traced runs).
    pub trace_out: Option<PathBuf>,
    /// Scratch directory for WAL directories and traces.
    pub out_dir: PathBuf,
    /// CPU placement of the generator and the server.
    pub placement: Option<affinity::Placement>,
}

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = [
    "embedded_mq",
    "wire_binary_passthrough",
    "wire_text_durable",
];

/// Every per-layer metric with its unit, in output order: those of the
/// layers the wire workloads exercise. Traced runs report all of them; a
/// layer a workload does not exercise reads 0. `embedded_mq`, which
/// `BENCHMARK.json` does not list, writes its own per-call timings to the
/// record line instead.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.register_ms", "ms"),
    ("core.firings", "count"),
    ("core.rows_in_per_event", "count"),
    ("core.dropped_chunks", "count"),
    ("storage.pinned_bytes.max", "bytes"),
    ("server.push_rtt_us.p50", "us"),
    ("server.push_rtt_us.p99", "us"),
    ("server.chunk_wait_us.p50", "us"),
    ("server.rows_per_chunk", "count"),
    ("server.wire_delivery_us.p50", "us"),
    ("server.wire_delivery_us.p99", "us"),
    ("server.frame_cache_hit_ratio", "ratio"),
    ("server.scheduler_pass_us.p99", "us"),
    ("server.overloaded", "count"),
    ("server.max_chunk_gap_ms", "ms"),
    ("wal.append_us.p50", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.bytes_per_event", "B/event"),
    ("wal.io_retries", "count"),
    ("wal.replay_s", "s"),
    ("gen.lag_ms.p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("self.gen_ns_per_event", "ns/event"),
    ("self.server_ns_per_event", "ns/event"),
];

/// Per-layer values of one traced run, emitted in [`PER_LAYER`] order.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Set a metric; `name` must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// Set the self time per event of the generator and server span
    /// layers; `events` is how many events `spans` cover.
    pub fn self_times(&mut self, spans: &BTreeMap<&'static str, SpanStats>, events: f64) {
        for (layer, metric) in [
            ("gen", "self.gen_ns_per_event"),
            ("server", "self.server_ns_per_event"),
        ] {
            self.set(metric, self_ns_per_event(spans, layer, events));
        }
    }

    /// Append every per-layer metric to `out`.
    pub fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Self time per event of one span layer (the span name's prefix before
/// the first dot); `events` is how many events `spans` cover.
pub fn self_ns_per_event(
    spans: &BTreeMap<&'static str, SpanStats>,
    layer: &str,
    events: f64,
) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|(n, _)| n.split('.').next() == Some(layer))
        .map(|(_, s)| s.self_ns)
        .sum();
    ns as f64 / events.max(1.0)
}

fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match name {
        "embedded_mq" => embedded::run(opts),
        "wire_binary_passthrough" => wire::run(&wire::WireSpec::binary_passthrough(), opts),
        "wire_text_durable" => wire::run(&wire::WireSpec::text_durable(), opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?} or all)"
        )),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("dcbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Host facts first: pinning narrows what this process may use.
    let mut host = host_facts();
    let placement = affinity::Placement::apply();
    host.push(("placement".into(), affinity::Placement::describe(placement)));
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let out_dir = PathBuf::from("dcbench").join("out");
    let mut summary = Vec::new();
    for name in names {
        let trace_out = args
            .trace
            .then(|| out_dir.join(format!("trace-{name}-seed{}.jsonl", args.seed)));
        if let Some(p) = &trace_out {
            let _ = std::fs::remove_file(p);
        }
        let opts = RunOpts {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            trace_out,
            out_dir: out_dir.clone(),
            placement,
        };
        let ticks = report::cpu_ticks();
        match run_workload(name, &opts) {
            Ok(mut outcome) => {
                let steal = report::steal_share(ticks, report::cpu_ticks());
                outcome.note("host_steal_pct", format!("{:.1}", steal * 100.0));
                println!(
                    "{}",
                    record_line(name, args.seed, args.trace, &host, &outcome)
                );
                summary.push((name, outcome));
            }
            Err(e) => {
                eprintln!("dcbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if summary.len() > 1 {
        eprintln!(
            "\n{:<24} {:<26} {:>16}  unit",
            "workload", "metric", "value"
        );
        for (name, o) in &summary {
            eprintln!(
                "{name:<24} {:<26} {:>16.6}  share",
                "failed_share",
                o.failed_share()
            );
            for m in &o.metrics {
                eprintln!("{name:<24} {:<26} {:>16.6}  {}", m.name, m.value, m.unit);
            }
        }
        for (_, o) in &summary {
            println!("{}", result_line(o));
        }
    } else if let Some((_, o)) = summary.first() {
        eprintln!(
            "failed_share {:.6} ({} of {})",
            o.failed_share(),
            o.failed,
            o.attempted
        );
        println!("{}", result_line(o));
    }
    ExitCode::SUCCESS
}
