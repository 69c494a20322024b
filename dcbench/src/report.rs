//! Result assembly: named metrics with units, host/build facts, and the
//! JSON lines the benchmark prints.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: pushes, result chunks and oracle windows.
    pub attempted: u64,
    /// Operations that failed: refused or erroring pushes, connection
    /// errors, missing/duplicated/wrong results, dropped chunks.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Extra facts for the record line (sample counts, first failures).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Add a note for the record line.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Count one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 5 {
            self.note(format!("failure{}", self.failed), why.into());
        }
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contract line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The record line printed before the contract line: seed, host, build,
/// failure share and notes.
pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    host: &[(String, String)],
    outcome: &Outcome,
) -> String {
    let obj = |pairs: &[(String, String)]| {
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"failed_share\": {}, \"host\": {}, \"notes\": {}}}}}",
        json_str(workload),
        json_num(outcome.failed_share()),
        obj(host),
        obj(&outcome.notes)
    )
}

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Host and build facts recorded with every result.
pub fn host_facts() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        (
            "cpu".into(),
            first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("kernel".into(), kernel),
        (
            "rustc".into(),
            command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "commit".into(),
            command_output("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ]
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`: time a
/// hypervisor ran something else while a virtual CPU was ready.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU time the hypervisor stole between two [`cpu_ticks`]
/// readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    after.0.saturating_sub(before.0) as f64 / after.1.saturating_sub(before.1).max(1) as f64
}

/// Peak resident set of process `pid` (`"self"` for this one), MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    first_line_of(&format!("/proc/{pid}/status"), "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metric("latency_p50_ms", 1.25, "ms");
        let line = result_line(&o);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.fail("x");
        assert!(result_line(&o).starts_with("{\"correct\": false"));
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self") > 0.0);
    }
}
