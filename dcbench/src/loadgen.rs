//! Open-loop load generation for the wire workloads: batches are sent on a
//! fixed schedule whether or not the system keeps up, each stamped with
//! the time it was *due*, so a stall shows up as latency on every batch
//! queued behind it. The generator also records how late it ran.

use std::time::Duration;

use crate::gen::{now_us, BATCH};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Where the generator sends batches.
pub trait Sink {
    /// Send batch `b`, every row stamped `due_us`; `Ok` once acknowledged.
    fn push(&mut self, b: u64, due_us: i64, tracer: &mut Tracer) -> Result<(), String>;

    /// True once the sink wants no more batches in this step.
    fn stopped(&self) -> bool {
        false
    }
}

/// What one fixed-rate step of the schedule did.
#[derive(Debug, Default)]
pub struct Step {
    /// Batches sent.
    pub batches: u64,
    /// Due time of the first batch, µs.
    pub start_us: i64,
    /// Due time one interval past the last batch, µs.
    pub end_us: i64,
    /// Wall time from the first send to the last acknowledgement, µs.
    pub busy_us: i64,
    /// How late each send started relative to its due time, µs.
    pub lag_us: Samples,
    /// Pushes that failed.
    pub failed: u64,
    /// `(seconds into the step, pushed - delivered events)` after each push.
    pub backlog: Vec<(f64, f64)>,
}

impl Step {
    /// Events sent in the step.
    pub fn events(&self) -> u64 {
        self.batches * BATCH as u64
    }

    /// Rate actually achieved: events over the wall time they took to send.
    pub fn achieved_eps(&self) -> f64 {
        self.events() as f64 / (self.busy_us.max(1) as f64 / 1e6)
    }
}

fn sleep_until(t_us: i64) {
    let now = now_us();
    if t_us > now {
        std::thread::sleep(Duration::from_micros((t_us - now) as u64));
    }
}

/// Send batches `first_batch..` at `rate_eps` for `duration`. `delivered()`
/// reports how many events the subscriber has seen so far; it is sampled
/// after every push to track the backlog.
pub fn run_step(
    sink: &mut impl Sink,
    first_batch: u64,
    rate_eps: f64,
    duration: Duration,
    delivered: impl Fn() -> u64,
    tracer: &mut Tracer,
) -> Step {
    let interval_us = BATCH as f64 * 1e6 / rate_eps;
    let n = ((duration.as_secs_f64() * 1e6 / interval_us).round() as u64).max(1);
    let start_us = now_us();
    let mut step = Step {
        start_us,
        end_us: start_us + (n as f64 * interval_us) as i64,
        ..Step::default()
    };
    let mut first_send = None;
    for k in 0..n {
        if sink.stopped() {
            break;
        }
        let due = start_us + (k as f64 * interval_us) as i64;
        tracer.tick();
        sleep_until(due);
        let sent = now_us();
        first_send.get_or_insert(sent);
        step.lag_us.push((sent - due) as f64);
        let b = first_batch + k;
        let span = tracer.begin("gen.batch", b);
        if sink.push(b, due, tracer).is_err() {
            step.failed += 1;
        }
        tracer.end(span);
        step.batches += 1;
        let pushed = (b + 1) * BATCH as u64;
        let backlog = pushed.saturating_sub(delivered()) as f64;
        step.backlog
            .push(((now_us() - start_us) as f64 / 1e6, backlog));
    }
    step.busy_us = now_us() - first_send.unwrap_or(start_us);
    step
}

/// Geometric rate ladder from `lo` up to at most `hi`, each step `ratio`
/// times the one before.
pub fn ladder(lo: f64, hi: f64, ratio: f64) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut r = lo;
    while r <= hi * (1.0 + 1e-9) {
        rates.push(r.round());
        r *= ratio;
    }
    rates
}

/// True when the backlog grows over the step by more than `tolerance`
/// events: the least-squares slope of backlog over time, times the span of
/// the samples. In-flight batches make the backlog jitter; only a trend
/// larger than the tolerance counts.
pub fn backlog_growing(samples: &[(f64, f64)], tolerance: f64) -> bool {
    if samples.len() < 3 {
        return false;
    }
    let n = samples.len() as f64;
    let mt = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let mb = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let (mut num, mut den) = (0.0, 0.0);
    for &(t, b) in samples {
        num += (t - mt) * (b - mb);
        den += (t - mt) * (t - mt);
    }
    if den <= 0.0 {
        return false;
    }
    let span = samples[samples.len() - 1].0 - samples[0].0;
    num / den * span > tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake server that acknowledges at once but stalls on one batch;
    /// it "delivers" each batch when the push returns and records latency
    /// the way the subscriber does: delivery time minus the stamped ts.
    struct StallingSink {
        stall_on: u64,
        stall: Duration,
        latency_us: Vec<(u64, i64)>,
    }

    impl Sink for StallingSink {
        fn push(&mut self, b: u64, due_us: i64, _t: &mut Tracer) -> Result<(), String> {
            if b == self.stall_on {
                std::thread::sleep(self.stall);
            }
            self.latency_us.push((b, now_us() - due_us));
            Ok(())
        }
    }

    #[test]
    fn stalled_server_shows_as_latency_from_due_time_and_generator_lag() {
        let mut sink = StallingSink {
            stall_on: 2,
            stall: Duration::from_millis(60),
            latency_us: Vec::new(),
        };
        // 1024 events per batch at 1024k events/s: one batch per ms.
        let step = run_step(
            &mut sink,
            0,
            1_024_000.0,
            Duration::from_millis(20),
            || 0,
            &mut Tracer::new(false),
        );
        assert_eq!(step.batches, 20);
        // Batch 3 was due 1 ms after batch 2 but could only be sent once
        // the 60 ms stall ended: its latency counts the wait.
        let lat3 = sink.latency_us.iter().find(|l| l.0 == 3).unwrap().1;
        assert!(
            lat3 >= 50_000,
            "latency of the batch behind the stall: {lat3} µs"
        );
        // A closed-loop measurement (send to ack) would have seen ~0 here.
        assert!(
            step.lag_us.max() >= 50_000.0,
            "generator lag {}",
            step.lag_us.max()
        );
        assert!(step.lag_us.tail().is_some());
        // Later batches catch up: the schedule did not slow down.
        let last = sink.latency_us.last().unwrap().1;
        assert!(last < lat3);
    }

    #[test]
    fn ladder_is_geometric_and_bounded() {
        let r = ladder(100.0, 200.0, 1.25);
        assert_eq!(r, vec![100.0, 125.0, 156.0, 195.0]);
        for w in r.windows(2) {
            assert!(w[1] / w[0] < 1.26);
        }
    }

    #[test]
    fn backlog_growth_detection() {
        // Flat, jittery in-flight backlog: not growing.
        let flat: Vec<(f64, f64)> = (0..200)
            .map(|i| (i as f64 * 0.005, 2048.0 + ((i * 37) % 5) as f64 * 1024.0))
            .collect();
        assert!(!backlog_growing(&flat, 8192.0));
        // Steady growth of 100k events/s over one second: growing.
        let grow: Vec<(f64, f64)> = (0..200)
            .map(|i| (i as f64 * 0.005, 1024.0 + i as f64 * 500.0))
            .collect();
        assert!(backlog_growing(&grow, 8192.0));
        // A transient spike that drains again: not growing.
        let spike: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                (
                    i as f64 * 0.005,
                    if (90..110).contains(&i) {
                        60_000.0
                    } else {
                        2048.0
                    },
                )
            })
            .collect();
        assert!(!backlog_growing(&spike, 8192.0));
        // Too few samples to call a trend.
        assert!(!backlog_growing(&[(0.0, 0.0), (1.0, 1e9)], 1.0));
    }
}
