//! `embedded_mq`: the in-process engine in a closed loop on one thread —
//! push a batch, run the scheduler until idle, drain every query — feeding
//! 16 incremental sliding-window `GROUP BY` queries. Eight share one
//! `WHERE` with different aggregates (shared-subplan cache hits), eight
//! have disjoint thresholds (misses), and two of those keep a window whose
//! state is larger than L2. Core, algebra and plan do nearly all the work;
//! no server or WAL code runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use datacell_baseline::VolcanoEngine;
use datacell_core::{DataCell, DataCellConfig, QueryId};
use datacell_storage::{Row, Value};

use crate::check::{newest_ts, same_rows};
use crate::gen::{now_us, SensorGen, BATCH};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, quiet_blocks, Samples};
use crate::trace::{self, SpanStats, Tracer};
use crate::RunOpts;

const DDL: &str = "CREATE STREAM sensors (ts TIMESTAMP, sensor BIGINT, temp DOUBLE)";
const SENSORS: u64 = 100;
/// The small windows slide by one batch, so each push completes one of
/// their windows; the large ones slide by eight.
const SLIDE: u64 = BATCH as u64;
const LARGE_SLIDE: u64 = 8 * SLIDE;
const SMALL: u64 = 8 * 1024;
/// 128k rows of (ts, sensor, temp) retained: 3 MiB of basket state plus
/// 128 per-slide partials, more than a 2 MiB L2.
const LARGE: u64 = 128 * 1024;
const SETUPS: usize = 5;
/// Restarts, one after each equal part of the measured phase.
const RESTARTS: usize = 6;
/// Parts the latency sample is split into for the tail (see `split_tail`).
const TAIL_PARTS: usize = 5;
/// The quiet-share rule (see `quiet_blocks`): throughput and median
/// latency are taken over the least contended tenth of the measured
/// cycles, a cycle being the eight rounds in which each large window fires
/// once. `recovery_s` applies it per stage across the restarts: see
/// [`Restart::quiet_secs`].
const CYCLE_ROUNDS: usize = (LARGE_SLIDE / SLIDE) as usize;
const QUIET_SHARE: f64 = 0.1;
/// Warm-up fills the largest window and a few slides past it.
const WARMUP_BATCHES: u64 = LARGE / SLIDE + 16;
/// Oracle checks per query and engine incarnation: windows are sampled by
/// seed.
const CHECKS_SMALL: usize = 3;
const CHECKS_LARGE: usize = 1;
/// Rounds at the start of each incarnation's measured part the sampled
/// windows are drawn from.
const SAMPLE_ROUNDS: u64 = 192;

/// One continuous query of the mix.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    aggs: String,
    pred: String,
    window: u64,
    slide: u64,
}

impl QuerySpec {
    /// The query's SQL with the given slide. The benchmark registers it
    /// with its own slide; the oracle evaluates one full window with
    /// `slide = window`.
    pub fn sql(&self, slide: u64) -> String {
        format!(
            "SELECT sensor, {}, MAX(ts) FROM sensors [ROWS {} SLIDE {slide}] WHERE {} GROUP BY sensor",
            self.aggs, self.window, self.pred
        )
    }
}

/// The 16-query mix.
pub fn queries() -> Vec<QuerySpec> {
    let shared = [
        "COUNT(*)",
        "SUM(temp)",
        "AVG(temp)",
        "MIN(temp)",
        "MAX(temp)",
        "COUNT(*), SUM(temp)",
        "MIN(temp), MAX(temp)",
        "COUNT(*), AVG(temp)",
    ];
    let mut qs: Vec<QuerySpec> = shared
        .iter()
        .map(|a| QuerySpec {
            aggs: (*a).into(),
            pred: "temp > 18.0".into(),
            window: SMALL,
            slide: SLIDE,
        })
        .collect();
    for k in 0..8u32 {
        let lo = 15.0 + 1.25 * f64::from(k);
        let large = k == 3 || k == 6;
        qs.push(QuerySpec {
            aggs: "COUNT(*), SUM(temp)".into(),
            pred: format!("temp >= {lo} AND temp < {}", lo + 1.25),
            window: if large { LARGE } else { SMALL },
            slide: if large { LARGE_SLIDE } else { SLIDE },
        });
    }
    qs
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A result kept for the oracle: query index, batch whose push completed
/// the window, rows.
struct Sampled {
    query: usize,
    batch: u64,
    rows: Vec<Row>,
}

/// Per-phase accumulators.
#[derive(Default)]
struct Phase {
    events: u64,
    timed_ns: u128,
    /// Timed cost of each round, ns.
    round_ns: Samples,
    /// Share of the above spent in rounds that recorded spans.
    traced_events: u64,
    traced_ns: u128,
    latency_us: Samples,
    /// Length of `latency_us` after each round of `round_ns`.
    latency_end: Vec<usize>,
    pinned_max: usize,
}

struct Bench {
    cell: DataCell,
    qids: Vec<QueryId>,
    specs: Vec<QuerySpec>,
    gen: SensorGen,
    seed: u64,
    next_batch: u64,
    /// `ts` each batch was stamped with, indexed by batch.
    stamps: Vec<i64>,
    sampled: Vec<Sampled>,
    sampled_per_query: Vec<usize>,
}

impl Bench {
    fn build(
        specs: &[QuerySpec],
        gen: SensorGen,
        seed: u64,
        register_ms: &mut Samples,
        tracer: &mut Tracer,
    ) -> Result<Bench, String> {
        let mut cell = DataCell::new(DataCellConfig::incremental());
        cell.execute(DDL).map_err(err)?;
        let mut qids = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let t = Instant::now();
            let span = tracer.begin("plan.register_query", i as u64);
            qids.push(cell.register_query(&s.sql(s.slide)).map_err(err)?);
            tracer.end(span);
            register_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(Bench {
            cell,
            qids,
            specs: specs.to_vec(),
            gen,
            seed,
            next_batch: 0,
            stamps: Vec::new(),
            sampled: Vec::new(),
            sampled_per_query: vec![0; specs.len()],
        })
    }

    fn wants_sample(&self, q: usize, b: u64) -> bool {
        // Windows are drawn from the first rounds of each incarnation, so a
        // run holds the same number of sampled results however fast it
        // goes. Large windows complete every eighth batch: draw them more
        // often.
        let (cap, every) = if self.specs[q].window == LARGE {
            (CHECKS_LARGE, 4)
        } else {
            (CHECKS_SMALL, 8)
        };
        let h = SensorGen::new(self.seed ^ 0x5EED, 1 << 20).sensor((q as u64) << 40 | b);
        b < WARMUP_BATCHES + SAMPLE_ROUNDS && self.sampled_per_query[q] < cap && h % every == 0
    }

    /// One closed-loop round. Generation, stamping and checking are
    /// outside the timed region; `phase` gets the timed cost.
    fn round(
        &mut self,
        phase: &mut Phase,
        out: &mut Outcome,
        tracer: &mut Tracer,
        sample: bool,
    ) -> Result<(), String> {
        let b = self.next_batch;
        self.next_batch += 1;
        tracer.tick();
        let mut rows = self.gen.batch(b, 0);
        let ts = now_us();
        for r in &mut rows {
            r[0] = Value::Timestamp(ts);
        }
        self.stamps.push(ts);

        let mut drained = Vec::with_capacity(self.qids.len());
        let start = Instant::now();
        let root = tracer.begin("bench.round", b);
        let s = tracer.begin("core.push_rows", b);
        self.cell.push_rows("sensors", &rows).map_err(err)?;
        tracer.end(s);
        let s = tracer.begin("core.run_until_idle", b);
        self.cell.run_until_idle().map_err(err)?;
        tracer.end(s);
        for &q in &self.qids {
            let s = tracer.begin("core.take_results", b);
            let chunks = self.cell.take_results(q).map_err(err)?;
            tracer.end(s);
            drained.push((chunks, now_us()));
        }
        tracer.end(root);
        let ns = start.elapsed().as_nanos();
        phase.timed_ns += ns;
        phase.round_ns.push(ns as f64);
        phase.events += BATCH as u64;
        if tracer.enabled() {
            phase.traced_ns += ns;
            phase.traced_events += BATCH as u64;
            phase.pinned_max = phase.pinned_max.max(self.cell.pinned_bytes());
        }

        let end = (b + 1) * BATCH as u64;
        for (qi, (chunks, at)) in drained.into_iter().enumerate() {
            let spec = &self.specs[qi];
            let expect = usize::from(end >= spec.window && end.is_multiple_of(spec.slide));
            out.attempted += expect.max(chunks.len()) as u64;
            if chunks.len() != expect {
                out.fail(format!(
                    "query {qi}: {} results for window ending at {end}, expected {expect}",
                    chunks.len()
                ));
                continue;
            }
            for chunk in chunks {
                let rows: Vec<Row> = chunk.rows().collect();
                let ts_col = rows.first().map_or(0, |r| r.len() - 1);
                match newest_ts(&rows, ts_col) {
                    Some(t) => phase.latency_us.push((at - t) as f64),
                    None => out.fail(format!(
                        "query {qi}: empty result for window ending at {end}"
                    )),
                }
                if sample && self.wants_sample(qi, b) {
                    self.sampled_per_query[qi] += 1;
                    self.sampled.push(Sampled {
                        query: qi,
                        batch: b,
                        rows,
                    });
                }
            }
        }
        phase.latency_end.push(phase.latency_us.values().len());
        Ok(())
    }
}

/// Re-evaluate every sampled window of one engine incarnation (`stamps` is
/// the `ts` of each of its batches) on the tuple-at-a-time oracle.
fn check_samples(
    specs: &[QuerySpec],
    gen: SensorGen,
    stamps: &[i64],
    sampled: &[Sampled],
    out: &mut Outcome,
) -> Result<(), String> {
    for s in sampled {
        let spec = &specs[s.query];
        let end = (s.batch + 1) * BATCH as u64;
        let rows: Vec<Row> = (end - spec.window..end)
            .map(|i| gen.row(i, stamps[(i / BATCH as u64) as usize]))
            .collect();
        let mut oracle = VolcanoEngine::new();
        oracle.execute(DDL).map_err(err)?;
        let q = oracle.register_query(&spec.sql(spec.window)).map_err(err)?;
        oracle.push_rows("sensors", &rows).map_err(err)?;
        oracle.run_until_idle().map_err(err)?;
        let expected = oracle.take_results(q);
        out.attempted += 1;
        match expected.as_slice() {
            [one] => {
                if let Err(e) = same_rows(one, &s.rows) {
                    out.fail(format!("query {} window ending at {end}: {e}", s.query));
                }
            }
            other => out.fail(format!(
                "oracle gave {} results for one window",
                other.len()
            )),
        }
    }
    Ok(())
}

/// Engine counters summed over the measured parts of a run.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    firings: u64,
    shared_hits: u64,
    shared_misses: u64,
    rows_in: u64,
    dropped_chunks: u64,
}

impl Counters {
    fn read(cell: &DataCell) -> Counters {
        let stats = cell.stats();
        Counters {
            firings: stats.total_firings,
            shared_hits: stats.shared_hits,
            shared_misses: stats.shared_misses,
            rows_in: cell
                .metrics_snapshot()
                .counter("datacell_fire_rows_in_total")
                .unwrap_or(0),
            dropped_chunks: stats.dropped_chunks,
        }
    }

    fn add_since(&mut self, before: Counters, now: Counters) {
        self.firings += now.firings - before.firings;
        self.shared_hits += now.shared_hits - before.shared_hits;
        self.shared_misses += now.shared_misses - before.shared_misses;
        self.rows_in += now.rows_in - before.rows_in;
        self.dropped_chunks += now.dropped_chunks - before.dropped_chunks;
    }
}

fn run_phase(
    bench: &mut Bench,
    phase: &mut Phase,
    secs: f64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    // Whole cycles only: every part starts at a cycle boundary.
    let until = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < until || !bench.next_batch.is_multiple_of(CYCLE_ROUNDS as u64) {
        bench.round(phase, out, tracer, true)?;
    }
    Ok(())
}

/// One restart's stages: rebuilding the engine, then the engine time of
/// each refill round, seconds; and its wall time to the first full round
/// of results.
struct Restart {
    build_s: f64,
    rounds_s: Vec<f64>,
    wall_s: f64,
}

impl Restart {
    /// Recovery time by the quiet-share rule: each stage (the rebuild, then
    /// every refill round) taken over the least contended share of the
    /// restarts, summed. A restart lasts under a second, so the whole of one
    /// can fall into a contended stretch of the shared host; its stages
    /// rarely all do.
    fn quiet_secs(restarts: &[Restart]) -> f64 {
        let quiet = |costs: Vec<f64>| {
            let picked: Vec<f64> = quiet_blocks(&costs, 1, QUIET_SHARE)
                .into_iter()
                .map(|r| costs[r.start])
                .collect();
            median(&picked).unwrap_or(0.0)
        };
        let rounds = restarts.iter().map(|r| r.rounds_s.len()).min().unwrap_or(0);
        quiet(restarts.iter().map(|r| r.build_s).collect())
            + (0..rounds)
                .map(|k| quiet(restarts.iter().map(|r| r.rounds_s[k]).collect()))
                .sum::<f64>()
    }
}

/// Engine incarnations retired by restarts: their batch stamps and sampled
/// results, checked against the oracle after the run (the oracle's memory
/// would otherwise count in the engine's peak RSS).
type Retired = Vec<(Vec<i64>, Vec<Sampled>)>;

/// Drop the engine, rebuild it and feed it until every query has delivered
/// a result again (the largest window is full). The new engine is then
/// warmed like a set-up one.
fn restart(
    bench: &mut Bench,
    specs: &[QuerySpec],
    gen: SensorGen,
    seed: u64,
    out: &mut Outcome,
    retired: &mut Retired,
) -> Result<Restart, String> {
    retired.push((
        std::mem::take(&mut bench.stamps),
        std::mem::take(&mut bench.sampled),
    ));
    let t = Instant::now();
    let fresh = Bench::build(
        specs,
        gen,
        seed,
        &mut Samples::default(),
        &mut Tracer::new(false),
    )?;
    drop(std::mem::replace(bench, fresh));
    let build_s = t.elapsed().as_secs_f64();
    let mut p = Phase::default();
    let mut tracer = Tracer::new(false);
    while bench.next_batch < LARGE / SLIDE {
        bench.round(&mut p, out, &mut tracer, false)?;
    }
    let wall_s = t.elapsed().as_secs_f64();
    while bench.next_batch < WARMUP_BATCHES {
        bench.round(&mut p, out, &mut tracer, false)?;
    }
    let rounds_s = p.round_ns.values()[..(LARGE / SLIDE) as usize]
        .iter()
        .map(|ns| ns / 1e9)
        .collect();
    Ok(Restart {
        build_s,
        rounds_s,
        wall_s,
    })
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let specs = queries();
    let gen = SensorGen::new(opts.seed, SENSORS);
    let mut tracer = Tracer::new(false);
    let mut register_ms = Samples::default();

    // Set-up: build the engine, register the mix and warm every window,
    // several times; the last engine is the one measured.
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t = Instant::now();
        let mut b = Bench::build(&specs, gen, opts.seed, &mut register_ms, &mut tracer)?;
        let mut warm = Phase::default();
        for _ in 0..WARMUP_BATCHES {
            b.round(&mut warm, &mut out, &mut tracer, false)?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.ok_or("no set-up ran")?;

    // The measured phase comes in RESTARTS parts with a restart after each,
    // so the restart figure samples the host at several points of the run.
    // Traced runs record a pseudo-random half of the rounds; the cost
    // difference between the two halves is the tracing overhead.
    let mut phase = Phase::default();
    let mut counters = Counters::default();
    let mut recovery = Vec::new();
    let mut retired = Retired::new();
    let mut rss = 0.0;
    for part in 0..RESTARTS {
        let before = Counters::read(&bench.cell);
        tracer.set_alternating(opts.trace);
        run_phase(
            &mut bench,
            &mut phase,
            opts.seconds / RESTARTS as f64,
            &mut out,
            &mut tracer,
        )?;
        tracer.set_alternating(false);
        tracer.set_enabled(false);
        counters.add_since(before, Counters::read(&bench.cell));
        if part + 1 == RESTARTS {
            rss = peak_rss_mb("self");
        }
        recovery.push(restart(
            &mut bench,
            &specs,
            gen,
            opts.seed,
            &mut out,
            &mut retired,
        )?);
    }
    if opts.trace {
        layer_metrics(&phase, counters, &register_ms, &tracer, &mut out);
    }
    for (stamps, sampled) in &retired {
        check_samples(&specs, gen, stamps, sampled, &mut out)?;
    }
    out.note(
        "oracle_windows",
        retired.iter().map(|r| r.1.len()).sum::<usize>(),
    );
    if let Some(path) = &opts.trace_out {
        trace::write_spans(path, "main", tracer.spans()).map_err(err)?;
    }

    if !opts.trace {
        // Throughput and median latency over the run's least contended
        // cycles; the mean over all rounds is a note.
        let quiet = quiet_blocks(phase.round_ns.values(), CYCLE_ROUNDS, QUIET_SHARE);
        let (mut rounds, mut ns, mut latency) = (0usize, 0.0, Samples::default());
        for r in &quiet {
            rounds += r.len();
            ns += phase.round_ns.values()[r.clone()].iter().sum::<f64>();
            let from = r.start.checked_sub(1).map_or(0, |i| phase.latency_end[i]);
            for &l in &phase.latency_us.values()[from..phase.latency_end[r.end - 1]] {
                latency.push(l);
            }
        }
        if quiet.is_empty() {
            return Err("too few rounds for the quiet-share rule".into());
        }
        let eps = (rounds * BATCH) as f64 / (ns / 1e9);
        out.note("quiet_rounds", rounds);
        out.note(
            "mean_eps",
            format!("{:.0}", phase.events as f64 / (phase.timed_ns as f64 / 1e9)),
        );
        let tail = crate::stats::split_tail(phase.latency_us.values(), TAIL_PARTS)
            .ok_or("too few results for a tail latency")?;
        out.metric("throughput_eps", eps, "events/s");
        out.metric("sustainable_eps", eps, "events/s");
        out.metric("latency_p50_ms", latency.p50() / 1e3, "ms");
        out.metric("setup_s", median(&setup_s).unwrap_or(0.0), "s");
        out.metric("peak_rss_mb", rss, "MiB");
        out.metric("recovery_s", Restart::quiet_secs(&recovery), "s");
        let walls: Vec<f64> = recovery.iter().map(|r| r.wall_s).collect();
        out.note("recovery_wall_s_each", format!("{walls:.3?}"));
        // The tail is recorded, not gated: see dcbench/README.md.
        out.note("latency_p99_ms", format!("{:.3}", tail.value / 1e3));
        out.note("latency_tail_percentile", format!("{:.2}", tail.percentile));
        out.note("latency_samples", tail.samples);
    }
    out.note("events", phase.events);
    out.note("timed_s", format!("{:.3}", phase.timed_ns as f64 / 1e9));
    Ok(out)
}

fn layer_metrics(
    phase: &Phase,
    counters: Counters,
    register_ms: &Samples,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let mut spans: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    trace::summarize(tracer.spans(), &mut spans);
    let dur = |name: &str| {
        spans
            .get(name)
            .map(|s| s.durations_us.clone())
            .unwrap_or_default()
    };
    for (name, st) in &spans {
        out.note(
            format!("span.{name}"),
            format!(
                "count={} total_ms={:.1} self_ms={:.1}",
                st.count,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6
            ),
        );
    }
    let events = phase.events.max(1) as f64;
    let plain_events = (phase.events - phase.traced_events).max(1) as f64;
    let per_event_plain = (phase.timed_ns - phase.traced_ns) as f64 / plain_events;
    let per_event_traced = phase.traced_ns as f64 / phase.traced_events.max(1) as f64;
    let shared = counters.shared_hits + counters.shared_misses;
    // Per-call timings of the in-process API, in the record line.
    let traced_events = phase.traced_events.max(1) as f64;
    for (name, value) in [
        ("core.push_us.p50", dur("core.push_rows").p50()),
        ("core.push_us.p99", dur("core.push_rows").q(0.99)),
        ("core.pass_us.p50", dur("core.run_until_idle").p50()),
        ("core.pass_us.p99", dur("core.run_until_idle").q(0.99)),
        ("core.drain_us.p50", dur("core.take_results").p50()),
        (
            "core.shared_hit_ratio",
            counters.shared_hits as f64 / shared.max(1) as f64,
        ),
        (
            "self.bench_ns_per_event",
            crate::self_ns_per_event(&spans, "bench", traced_events),
        ),
        (
            "self.core_ns_per_event",
            crate::self_ns_per_event(&spans, "core", traced_events),
        ),
    ] {
        out.note(name, format!("{value:.3}"));
    }
    let mut m = crate::LayerMetrics::default();
    m.set("plan.register_ms", register_ms.p50());
    m.set("core.firings", counters.firings as f64);
    m.set("core.rows_in_per_event", counters.rows_in as f64 / events);
    m.set("core.dropped_chunks", counters.dropped_chunks as f64);
    m.set("storage.pinned_bytes.max", phase.pinned_max as f64);
    m.set(
        "trace.overhead_pct",
        (per_event_traced / per_event_plain - 1.0) * 100.0,
    );
    m.self_times(&spans, traced_events);
    m.emit(out);
}
