//! The two wire workloads. Both run `datacell-server` as a child process
//! and drive it from this process with two threads and two connections:
//! the main thread is the open-loop pusher (its connection also does the
//! set-up `REGISTER` and the final `METRICS` scrape), one thread reads the
//! subscription.
//!
//! * `wire_binary_passthrough`: default server config, binary `PUSH`
//!   frames, one binary subscriber to `SELECT ts, sensor, temp FROM
//!   sensors`. Every event crosses the socket twice while the engine only
//!   projects: reactor, frame codec, replay ring and the pump/engine-mutex
//!   handoff do the work.
//! * `wire_text_durable`: `--wal-dir` with `--fsync every=64`, CSV `PUSH`,
//!   one text subscriber to a sliding `GROUP BY` carrying `MAX(ts)`. Ends
//!   with `kill -9`, a restart on the same directory and an `AFTER` resume.
//!   WAL and the thread-per-connection text path do the work.
//!
//! Each run: set-up (several times), a reference step at a fixed rate
//! (the latency figures), then a ladder of rising rates until a step
//! misses the latency limit or its backlog grows (the sustainable rate),
//! then restarts (the recovery figures).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datacell_obs::{parse_prometheus, Sample};
use datacell_server::{Client, ClientError, ReconnectPolicy, ResumingSubscription};
use datacell_storage::Row;

use crate::affinity::Placement;
use crate::check::{newest_ts, PassthroughCheck, WindowCheck};
use crate::gen::{now_us, SensorGen, BATCH};
use crate::loadgen::{backlog_growing, ladder, run_step, Sink, Step};
use crate::report::{cpu_ticks, peak_rss_mb, steal_share, Outcome};
use crate::stats::{median, Samples};
use crate::trace::{self, SpanStats, Tracer};
use crate::{LayerMetrics, RunOpts};

const SETUPS: usize = 3;
/// Restarts; `recovery_s` is their median. A restart is too short for
/// `/proc/stat`'s 10 ms ticks to tell how much of it was stolen.
const RESTARTS: usize = 8;
/// Parts the reference latency sample is split into for the tail.
const TAIL_PARTS: usize = 9;
const WARMUP: Duration = Duration::from_millis(300);
/// Each ladder step; long enough that a backlog growing at a few percent
/// of the rate stands clear of in-flight jitter.
const STEP: Duration = Duration::from_millis(500);
/// The reference step runs as slices of this length. Its median latency,
/// and the rates over the ladder climbs, are taken over the share of
/// slices (climbs) in which the hypervisor stole the least CPU time.
const REF_SLICE: Duration = Duration::from_millis(500);
const QUIET_SHARE: f64 = 0.25;
/// Reference slices run after each climb.
const REF_PER_CLIMB: usize = 2;
/// Parts a ladder step's latency sample is split into for its tail.
const STEP_TAIL_PARTS: usize = 5;
/// A step whose backlog passes this many events is cut short (it has
/// failed): the server's replay ring keeps 256 chunks, and a subscriber
/// further behind than that would lose results.
const ABORT_BACKLOG: u64 = 96 * BATCH as u64;

/// Parameters of one wire workload.
#[derive(Debug, Clone)]
pub struct WireSpec {
    /// Binary frames (else CSV text lines).
    pub binary: bool,
    /// `--wal-dir … --fsync every=64`, ending in kill -9 and recovery.
    pub durable: bool,
    /// Distinct sensors (group cardinality of the windowed query).
    pub sensors: u64,
    /// Rate of the reference step, events/s.
    pub reference_eps: f64,
    /// Ladder of offered rates, events/s.
    pub ladder: Vec<f64>,
    /// p99 latency a ladder step must stay under, ms.
    pub limit_ms: f64,
}

/// Window of the durable workload's query.
const TEXT_WINDOW: u64 = 4 * BATCH as u64;
const TEXT_SLIDE: u64 = BATCH as u64 / 4;

impl WireSpec {
    /// `wire_binary_passthrough`. One binary pusher saturates at a few
    /// million events/s on two cores; the ladder spans that region in
    /// steps of 5%.
    pub fn binary_passthrough() -> Self {
        WireSpec {
            binary: true,
            durable: false,
            sensors: 100,
            reference_eps: 500_000.0,
            ladder: ladder(1_500_000.0, 12_000_000.0, 1.05),
            limit_ms: 50.0,
        }
    }

    /// `wire_text_durable`.
    pub fn text_durable() -> Self {
        WireSpec {
            binary: false,
            durable: true,
            sensors: 8,
            reference_eps: 100_000.0,
            ladder: ladder(200_000.0, 3_000_000.0, 1.05),
            limit_ms: 50.0,
        }
    }

    fn ddl(&self) -> &'static str {
        if self.durable {
            "CREATE STREAM sensors (ts TIMESTAMP, seq BIGINT, sensor BIGINT, temp DOUBLE)"
        } else {
            "CREATE STREAM sensors (ts TIMESTAMP, sensor BIGINT, temp DOUBLE)"
        }
    }

    fn query(&self) -> String {
        if self.durable {
            format!(
                "SELECT sensor, COUNT(*), MIN(seq), MAX(seq), SUM(seq), MAX(ts) FROM sensors \
                 [ROWS {TEXT_WINDOW} SLIDE {TEXT_SLIDE}] GROUP BY sensor"
            )
        } else {
            "SELECT ts, sensor, temp FROM sensors".into()
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A `datacell-server` child process.
struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    /// Start the daemon built next to this executable and wait for its
    /// `LISTENING <addr>` line.
    fn spawn(
        addr: &str,
        extra: &[String],
        placement: Option<Placement>,
    ) -> Result<ServerProc, String> {
        let exe = std::env::current_exe()
            .map_err(err)?
            .with_file_name("datacell-server");
        let mut cmd = Command::new(&exe);
        if let Some(p) = placement {
            p.server(&mut cmd);
        }
        let mut child = cmd
            .arg("--addr")
            .arg(addr)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no stdout")?);
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(err)?;
        let Some(addr) = line.trim().strip_prefix("LISTENING ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("datacell-server did not start: {line:?}"));
        };
        Ok(ServerProc {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `kill -9` and reap.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// One received chunk.
#[derive(Debug, Clone, Copy)]
struct ChunkRec {
    arrival_us: i64,
    newest_ts: i64,
    rows: u32,
    /// Input events the chunk accounts for (rows of a pass-through, one
    /// slide of a window).
    events: u32,
    /// Time the subscriber waited for it, µs.
    wait_us: i64,
}

/// State shared by the pusher and the subscriber thread.
#[derive(Default)]
struct Shared {
    /// Events the subscriber has seen and checked.
    delivered: AtomicU64,
    stop: AtomicBool,
    /// `ts` stamp of each pushed batch, by batch index.
    dues: Mutex<Vec<i64>>,
    records: Mutex<Vec<ChunkRec>>,
    attempted: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Shared {
    fn fail(&self, why: String) {
        self.failures
            .lock()
            .expect("failure list poisoned")
            .push(why);
    }
}

enum Checker {
    Passthrough(PassthroughCheck),
    Window(WindowCheck),
}

/// The subscriber thread: read chunks until told to stop, check each,
/// record its arrival and newest `ts`.
fn subscriber(
    mut sub: ResumingSubscription,
    shared: Arc<Shared>,
    mut check: Checker,
    traced: bool,
) -> Tracer {
    let mut tracer = Tracer::new(traced);
    let mut wait_since = now_us();
    while !shared.stop.load(Ordering::SeqCst) {
        let call = Tracer::clock();
        match sub.next_chunk(Duration::from_millis(20)) {
            Ok(Some(rows)) => {
                let arrival = now_us();
                shared.attempted.fetch_add(1, Ordering::Relaxed);
                let (newest, delivered) = match &mut check {
                    Checker::Passthrough(c) => {
                        let dues = shared.dues.lock().expect("dues poisoned");
                        if let Err(e) = c.accept(&rows, |b| dues.get(b as usize).copied()) {
                            shared.fail(e);
                        }
                        (newest_ts(&rows, 0), c.delivered())
                    }
                    Checker::Window(c) => {
                        let newest = c.accept(&rows).map_err(|e| shared.fail(e)).ok();
                        (newest, c.next_end() - TEXT_SLIDE)
                    }
                };
                let req = delivered.saturating_sub(1) / BATCH as u64;
                tracer.record("server.next_chunk", req, call, Tracer::clock());
                if let Some(ts) = newest {
                    shared
                        .records
                        .lock()
                        .expect("records poisoned")
                        .push(ChunkRec {
                            arrival_us: arrival,
                            newest_ts: ts,
                            rows: rows.len() as u32,
                            events: match check {
                                Checker::Passthrough(_) => rows.len() as u32,
                                Checker::Window(_) => TEXT_SLIDE as u32,
                            },
                            wait_us: arrival - wait_since,
                        });
                }
                shared.delivered.store(delivered, Ordering::SeqCst);
                wait_since = now_us();
            }
            Ok(None) if sub.finished() => {
                shared.fail("subscription ended".into());
                break;
            }
            Ok(None) => {}
            Err(e) => {
                shared.fail(format!("subscriber: {e}"));
                break;
            }
        }
    }
    tracer
}

/// The pusher's side of the generator.
struct Pusher {
    client: Client,
    gen: SensorGen,
    durable: bool,
    shared: Arc<Shared>,
    overloaded: u64,
    failures: Vec<String>,
    /// Round trip of every push, µs, split by whether the push was traced
    /// (`[untraced, traced]`): the difference is the tracing overhead.
    rtt_us: [Samples; 2],
    /// Batch buffer, refilled for every push.
    rows: Vec<Row>,
}

impl Sink for Pusher {
    fn push(&mut self, b: u64, due_us: i64, tracer: &mut Tracer) -> Result<(), String> {
        self.gen.fill_batch(&mut self.rows, b, due_us, self.durable);
        let rows = &self.rows;
        {
            let mut dues = self.shared.dues.lock().expect("dues poisoned");
            if dues.len() as u64 == b {
                dues.push(due_us);
            }
        }
        let sent = Instant::now();
        let span = tracer.begin("server.push_rows", b);
        let r = self.client.push_rows("sensors", rows);
        tracer.end(span);
        self.rtt_us[usize::from(tracer.enabled())].push(sent.elapsed().as_secs_f64() * 1e6);
        let why = match r {
            Ok(n) if n == rows.len() => return Ok(()),
            Ok(n) => format!("batch {b}: {n} of {} rows accepted", rows.len()),
            Err(ClientError::Overloaded { .. }) => {
                self.overloaded += 1;
                format!("batch {b}: OVERLOADED")
            }
            Err(e) => format!("batch {b}: {e}"),
        };
        self.failures.push(why.clone());
        Err(why)
    }
}

/// A running server with its two connections.
struct Live {
    server: ServerProc,
    pusher: Pusher,
    shared: Arc<Shared>,
    sub: Option<JoinHandle<Tracer>>,
    next_batch: u64,
    pushes: u64,
}

impl Live {
    fn server_args(spec: &WireSpec, wal: &Option<PathBuf>) -> Vec<String> {
        match wal {
            Some(dir) if spec.durable => vec![
                "--wal-dir".into(),
                dir.display().to_string(),
                "--fsync".into(),
                "every=64".into(),
            ],
            _ => Vec::new(),
        }
    }

    fn connect(spec: &WireSpec, addr: &str) -> Result<Client, String> {
        if spec.binary {
            Client::connect_binary(addr)
        } else {
            Client::connect(addr)
        }
        .map_err(err)
    }

    /// Spawn, create the stream, register the query, attach the
    /// subscriber.
    fn start(
        spec: &WireSpec,
        gen: SensorGen,
        wal: &Option<PathBuf>,
        register_ms: &mut Samples,
        opts: &RunOpts,
    ) -> Result<Live, String> {
        let traced = opts.trace;
        let server =
            ServerProc::spawn("127.0.0.1:0", &Self::server_args(spec, wal), opts.placement)?;
        let mut client = Self::connect(spec, &server.addr)?;
        client.exec(spec.ddl()).map_err(err)?;
        let t = Instant::now();
        let q = client.register(&spec.query()).map_err(err)?;
        register_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if spec.binary {
            // Prefetch: the SCHEMA round trip is set-up, not ingest.
            client.schema_of("sensors").map_err(err)?;
        }
        let shared = Arc::new(Shared::default());
        let policy = ReconnectPolicy {
            max_attempts: 20_000,
            base_delay: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        };
        let addr = server.addr.clone();
        let sub = if spec.binary {
            ResumingSubscription::connect_binary_with(addr, q, policy)
        } else {
            ResumingSubscription::connect_with(addr, q, policy)
        }
        .map_err(err)?;
        let check = if spec.durable {
            Checker::Window(WindowCheck::new(TEXT_WINDOW, TEXT_SLIDE))
        } else {
            Checker::Passthrough(PassthroughCheck::new(gen))
        };
        let sh = Arc::clone(&shared);
        let handle = std::thread::spawn(move || subscriber(sub, sh, check, traced));
        Ok(Live {
            server,
            pusher: Pusher {
                client,
                gen,
                durable: spec.durable,
                shared: Arc::clone(&shared),
                overloaded: 0,
                failures: Vec::new(),
                rtt_us: Default::default(),
                rows: Vec::new(),
            },
            shared,
            sub: Some(handle),
            next_batch: 0,
            pushes: 0,
        })
    }

    fn pushed_events(&self) -> u64 {
        self.next_batch * BATCH as u64
    }

    fn step(&mut self, rate: f64, dur: Duration, tracer: &mut Tracer) -> Step {
        let shared = Arc::clone(&self.shared);
        let first = self.next_batch;
        let delivered = move || shared.delivered.load(Ordering::SeqCst);
        let step = run_step_bounded(&mut self.pusher, first, rate, dur, delivered, tracer);
        self.next_batch += step.batches;
        self.pushes += step.batches;
        step
    }

    /// Wait until the subscriber has seen every pushed event.
    fn caught_up(&self, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        while self.shared.delivered.load(Ordering::SeqCst) < self.pushed_events() {
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Stop the subscriber thread and return its spans.
    fn stop_subscriber(&mut self) -> Tracer {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.sub
            .take()
            .map(|h| h.join().unwrap_or_else(|_| Tracer::new(false)))
            .unwrap_or_default()
    }

    /// Move this incarnation's failures and attempts into `out`.
    fn account(&mut self, out: &mut Outcome) {
        out.attempted += self.pushes + self.shared.attempted.swap(0, Ordering::SeqCst);
        self.pushes = 0;
        for f in self.pusher.failures.drain(..) {
            out.fail(f);
        }
        for f in self
            .shared
            .failures
            .lock()
            .expect("failure list poisoned")
            .drain(..)
        {
            out.fail(f);
        }
    }

    fn records_between(&self, from_us: i64, to_us: i64) -> Vec<ChunkRec> {
        self.shared
            .records
            .lock()
            .expect("records poisoned")
            .iter()
            .filter(|r| r.newest_ts >= from_us && r.newest_ts < to_us)
            .copied()
            .collect()
    }
}

/// [`run_step`], cut short once the backlog passes [`ABORT_BACKLOG`].
fn run_step_bounded(
    pusher: &mut Pusher,
    first: u64,
    rate: f64,
    dur: Duration,
    delivered: impl Fn() -> u64,
    tracer: &mut Tracer,
) -> Step {
    struct Bounded<'a> {
        inner: &'a mut Pusher,
        delivered: &'a dyn Fn() -> u64,
        aborted: bool,
    }
    impl Sink for Bounded<'_> {
        fn push(&mut self, b: u64, due: i64, t: &mut Tracer) -> Result<(), String> {
            let r = self.inner.push(b, due, t);
            let backlog = ((b + 1) * BATCH as u64).saturating_sub((self.delivered)());
            self.aborted = backlog > ABORT_BACKLOG;
            r
        }

        fn stopped(&self) -> bool {
            self.aborted
        }
    }
    let mut sink = Bounded {
        inner: pusher,
        delivered: &delivered,
        aborted: false,
    };
    let mut step = run_step(&mut sink, first, rate, dur, &delivered, tracer);
    if sink.aborted {
        step.failed += 1;
    }
    step
}

/// `kill -9` the server, restart it on the same WAL directory and address,
/// and wait for the first resumed chunk; the subscription reconnects by
/// itself and resumes `AFTER` its last chunk. Returns (kill → first chunk,
/// spawn → first `PING` answered) in seconds.
fn restart_durable(
    live: &mut Live,
    spec: &WireSpec,
    wal: &Option<PathBuf>,
    opts: &RunOpts,
) -> Result<(f64, f64), String> {
    if !live.caught_up(Duration::from_secs(10)) {
        live.shared.fail("subscriber behind before restart".into());
    }
    let addr = live.server.addr.clone();
    let seen = live.shared.records.lock().expect("records poisoned").len();
    let killed = Instant::now();
    live.server.kill9();
    let spawned = Instant::now();
    live.server = ServerProc::spawn(&addr, &Live::server_args(spec, wal), opts.placement)?;
    live.pusher.client = Live::connect(spec, &addr)?;
    live.pusher.client.ping().map_err(err)?;
    let replay = spawned.elapsed().as_secs_f64();
    live.step(
        spec.reference_eps,
        Duration::from_millis(1),
        &mut Tracer::new(false),
    );
    let until = Instant::now() + Duration::from_secs(20);
    while live.shared.records.lock().expect("records poisoned").len() == seen {
        if Instant::now() > until {
            return Err("no result after restart".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((killed.elapsed().as_secs_f64(), replay))
}

/// One climb of the rate ladder.
#[derive(Debug, Clone, Copy)]
struct Climb {
    /// (sent, delivered) events/s of its best passing step, if any passed.
    best: Option<(f64, f64)>,
    /// Share of the host's CPU time stolen during the climb.
    steal: f64,
}

/// The reference step: fixed-rate slices, each with the share of the
/// host's CPU time stolen while it ran.
struct Reference {
    rate: f64,
    /// Slices still to run.
    left: usize,
    slices: Vec<(f64, Step)>,
}

impl Reference {
    /// Run up to `n` of the remaining slices.
    fn run(&mut self, live: &mut Live, n: usize, tracer: &mut Tracer) {
        for _ in 0..n.min(self.left) {
            let ticks = cpu_ticks();
            let step = live.step(self.rate, REF_SLICE, tracer);
            self.slices.push((steal_share(ticks, cpu_ticks()), step));
            self.left -= 1;
        }
    }

    /// Time the remaining slices need.
    fn reserved(&self) -> Duration {
        REF_SLICE * self.left as u32
    }
}

/// Climb the ladder until the time left before `end` is what the remaining
/// reference slices need; two of them run after each climb. A step fails
/// only when it fails twice in a row; a climb ends at its first failed
/// step. Later climbs start one step below the previous climb's best, so a
/// run makes several climbs and a burst of stolen CPU time on a shared host
/// spoils one of them, not the figure. A climb the deadline cuts short is
/// kept only when no climb finished.
fn climb_ladder(
    live: &mut Live,
    spec: &WireSpec,
    end: Instant,
    reference: &mut Reference,
    tracer: &mut Tracer,
    lag_us: &mut Samples,
    scrape: &mut dyn FnMut(&mut Live) -> Result<(), String>,
) -> Result<Vec<Climb>, String> {
    let mut climbs = Vec::new();
    let mut from = 0usize;
    loop {
        let ticks = cpu_ticks();
        let mut best = None;
        let mut top = None;
        let mut idx = from;
        while idx < spec.ladder.len() {
            let rate = spec.ladder[idx];
            let mut passed = false;
            for _ in 0..2 {
                if Instant::now() + STEP + reference.reserved() > end {
                    if climbs.is_empty() {
                        climbs.push(Climb {
                            best,
                            steal: steal_share(ticks, cpu_ticks()),
                        });
                    }
                    return Ok(climbs);
                }
                let step = live.step(rate, STEP, tracer);
                let caught = live.caught_up(Duration::from_millis(1000));
                let recs = live.records_between(step.start_us, step.end_us);
                lag_us.extend(&step.lag_us);
                scrape(live)?;
                let (pass, why) = step_verdict(&step, rate, &recs, caught, spec.limit_ms);
                eprintln!(
                    "dcbench: climb {} step {rate:.0}/s: {} ({why})",
                    climbs.len(),
                    if pass { "pass" } else { "FAIL" }
                );
                if pass {
                    best = Some((step.achieved_eps(), delivered_eps(&recs)));
                    top = Some(idx);
                    passed = true;
                    break;
                }
            }
            if !passed {
                break;
            }
            idx += 1;
        }
        climbs.push(Climb {
            best,
            steal: steal_share(ticks, cpu_ticks()),
        });
        live.caught_up(Duration::from_secs(5));
        reference.run(live, REF_PER_CLIMB, tracer);
        from = top.unwrap_or(from).saturating_sub(1);
    }
}

/// Events per second the subscriber received and checked across `recs`.
fn delivered_eps(recs: &[ChunkRec]) -> f64 {
    match (recs.first(), recs.last()) {
        (Some(a), Some(b)) if b.arrival_us > a.arrival_us => {
            let events: u64 = recs[1..].iter().map(|r| u64::from(r.events)).sum();
            events as f64 / ((b.arrival_us - a.arrival_us) as f64 / 1e6)
        }
        _ => 0.0,
    }
}

/// Verdict on one ladder step, with the figures it rests on.
fn step_verdict(
    step: &Step,
    rate: f64,
    recs: &[ChunkRec],
    caught_up: bool,
    limit_ms: f64,
) -> (bool, String) {
    let lat: Vec<f64> = recs
        .iter()
        .map(|r| (r.arrival_us - r.newest_ts) as f64 / 1e3)
        .collect();
    // The tail rule per part of the step, median part: one stall of the
    // shared host spoils one part, not the verdict.
    let p99 = crate::stats::split_tail(&lat, STEP_TAIL_PARTS).map(|t| t.value);
    let growing = backlog_growing(&step.backlog, (8 * BATCH) as f64);
    // A generator that could not keep to the schedule (every push waits
    // for its acknowledgement) did not offer the rate at all.
    let kept_pace = step.achieved_eps() >= 0.9 * rate;
    let pass = step.failed == 0
        && caught_up
        && kept_pace
        && !growing
        && p99.is_some_and(|v| v <= limit_ms);
    let why = format!(
        "achieved {:.0}/s, p99 {} ms over {} results, backlog {}, caught up {caught_up}, failed pushes {}, lag p99 {:.2} ms",
        step.achieved_eps(),
        p99.map_or("n/a".into(), |v| format!("{v:.2}")),
        lat.len(),
        if growing { "growing" } else { "flat" },
        step.failed,
        step.lag_us.q(0.99) / 1e3,
    );
    (pass, why)
}

/// Indices of the least stolen [`QUIET_SHARE`] of measurements with the
/// given steal shares (at least one), in time order.
fn least_stolen(steals: &[f64]) -> Vec<usize> {
    crate::stats::quiet_blocks(steals, 1, QUIET_SHARE)
        .into_iter()
        .map(|r| r.start)
        .collect()
}

fn prom_value(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.value)
}

/// Quantile of a server-side log2 histogram: the upper bound of the bucket
/// holding the rank (coarse: within 2x).
fn prom_quantile(samples: &[Sample], name: &str, q: f64) -> f64 {
    let count = prom_value(samples, &format!("{name}_count"));
    if count <= 0.0 {
        return 0.0;
    }
    let bucket = format!("{name}_bucket");
    samples
        .iter()
        .filter(|s| s.name == bucket)
        .filter_map(|s| {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")?
                .1
                .parse::<f64>()
                .ok()?;
            Some((le, s.value))
        })
        .find(|&(_, cum)| cum >= q * count)
        .map_or(0.0, |(le, _)| le)
}

fn wal_dir(opts: &RunOpts) -> PathBuf {
    opts.out_dir
        .join(format!("wal-{}-{}", std::process::id(), opts.seed))
}

/// Run a wire workload.
pub fn run(spec: &WireSpec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let gen = SensorGen::new(opts.seed, spec.sensors);
    let wal = spec.durable.then(|| wal_dir(opts));
    let clear_wal = || {
        if let Some(d) = &wal {
            let _ = std::fs::remove_dir_all(d);
        }
    };
    let mut register_ms = Samples::default();
    let mut tracer = Tracer::new(false);

    // Set-up: spawn, DDL, REGISTER, subscribe and warm up; several times.
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        if let Some(mut l) = live.take() {
            l.stop_subscriber();
            l.account(&mut out);
        }
        clear_wal();
        let t = Instant::now();
        let mut l = Live::start(spec, gen, &wal, &mut register_ms, opts)?;
        l.step(spec.reference_eps, WARMUP, &mut tracer);
        if !l.caught_up(Duration::from_secs(5)) {
            out.fail("warm-up results never arrived");
        }
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some(l);
    }
    let mut live = live.ok_or("no set-up ran")?;

    // Measured phase.
    let measure_start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let ref_dur = budget.mul_f64(0.3);
    // The reference step runs as slices: a third before anything else
    // (traced runs trace half its batches: the difference in mean push
    // round trip is the tracing overhead), the rest between ladder climbs,
    // so the least stolen share of them can come from anywhere in the run.
    live.pusher.rtt_us = Default::default();
    tracer.set_alternating(opts.trace);
    let total = ((ref_dur.as_secs_f64() / REF_SLICE.as_secs_f64()).round() as usize).max(1);
    let mut reference = Reference {
        rate: spec.reference_eps,
        left: total,
        slices: Vec::with_capacity(total),
    };
    reference.run(&mut live, total.div_ceil(3), &mut tracer);
    tracer.set_alternating(false);
    tracer.set_enabled(opts.trace);
    let [plain_rtt, traced_rtt] = &live.pusher.rtt_us;
    let overhead_pct = (traced_rtt.mean() / plain_rtt.mean() - 1.0) * 100.0;
    let mut pinned_max = 0.0f64;
    let mut scrape = |live: &mut Live| -> Result<Vec<Sample>, String> {
        let text = live.pusher.client.metrics().map_err(err)?;
        let s = parse_prometheus(&text)?;
        pinned_max = pinned_max.max(prom_value(&s, "datacell_basket_pinned_bytes"));
        Ok(s)
    };
    let mut recovery = Vec::new();
    let mut replay = Vec::new();
    // Durable restarts come right after the first reference slices, so
    // every run replays the same amount of WAL.
    if spec.durable {
        for _ in 0..RESTARTS {
            let (r, w) = restart_durable(&mut live, spec, &wal, opts)?;
            recovery.push(r);
            replay.push(w);
        }
    }

    let mut scrape_step = |l: &mut Live| {
        if opts.trace {
            scrape(l).map(drop)
        } else {
            Ok(())
        }
    };
    let mut lag_us = Samples::default();
    let climbs = climb_ladder(
        &mut live,
        spec,
        measure_start + budget,
        &mut reference,
        &mut tracer,
        &mut lag_us,
        &mut scrape_step,
    )?;
    reference.run(&mut live, usize::MAX, &mut tracer);
    let ok = live.caught_up(Duration::from_secs(2));
    if !ok || reference.slices.iter().any(|(_, s)| s.failed > 0) {
        out.fail("reference step did not keep up");
    }
    let latency_of = |recs: &[ChunkRec]| -> Vec<f64> {
        recs.iter()
            .map(|r| (r.arrival_us - r.newest_ts) as f64 / 1e3)
            .collect()
    };
    let mut latency_ms = Vec::new();
    let mut gaps = Samples::default();
    let slice_recs: Vec<Vec<ChunkRec>> = reference
        .slices
        .iter()
        .map(|(_, step)| live.records_between(step.start_us, step.end_us))
        .collect();
    for ((_, step), recs) in reference.slices.iter().zip(&slice_recs) {
        lag_us.extend(&step.lag_us);
        latency_ms.extend(latency_of(recs));
        for w in recs.windows(2) {
            gaps.push((w[1].arrival_us - w[0].arrival_us) as f64 / 1e3);
        }
    }
    // Median latency over the least stolen share of the slices.
    let steals: Vec<f64> = reference.slices.iter().map(|(st, _)| *st).collect();
    let mut quiet_latency_ms = Vec::new();
    for i in least_stolen(&steals) {
        quiet_latency_ms.extend(latency_of(&slice_recs[i]));
    }
    // Medians over the least stolen share of the climbs that passed a step.
    let passed: Vec<Climb> = climbs.iter().filter(|c| c.best.is_some()).copied().collect();
    let climb_steals: Vec<f64> = passed.iter().map(|c| c.steal).collect();
    let quiet: Vec<(f64, f64)> = least_stolen(&climb_steals)
        .into_iter()
        .filter_map(|i| passed[i].best)
        .collect();
    let best = |f: fn(&(f64, f64)) -> f64| {
        median(&quiet.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let (sustainable, throughput) = (best(|b| b.0), best(|b| b.1));
    if !live.caught_up(Duration::from_secs(10)) {
        out.fail("subscriber never caught up after the ladder");
    }
    let final_metrics = scrape(&mut live)?;
    let all_recs = live
        .shared
        .records
        .lock()
        .expect("records poisoned")
        .clone();
    let rss = peak_rss_mb(&live.server.pid());

    // Non-durable restarts: a fresh server, the query registered again and
    // a new subscription.
    let mut sub_tracer = Tracer::new(false);
    if !spec.durable {
        for _ in 0..RESTARTS {
            if !live.caught_up(Duration::from_secs(10)) {
                out.fail("subscriber behind before restart");
            }
            let t = live.stop_subscriber();
            if !t.spans().is_empty() {
                sub_tracer = t;
            }
            live.account(&mut out);
            let killed = Instant::now();
            live.server.kill9();
            let untraced = RunOpts {
                trace: false,
                ..opts.clone()
            };
            let mut l = Live::start(spec, gen, &wal, &mut Samples::default(), &untraced)?;
            l.step(
                spec.reference_eps,
                Duration::from_millis(1),
                &mut Tracer::new(false),
            );
            if !l.caught_up(Duration::from_secs(20)) {
                return Err("no result after restart".into());
            }
            recovery.push(killed.elapsed().as_secs_f64());
            live = l;
        }
    }
    let t = live.stop_subscriber();
    if !t.spans().is_empty() {
        sub_tracer = t;
    }
    live.account(&mut out);
    let overloaded = live.pusher.overloaded;
    drop(live);
    clear_wal();

    out.note("climbs", climbs.len());
    out.note(
        "climb_best_eps",
        format!(
            "{:?}",
            climbs
                .iter()
                .map(|c| c.best.map_or(0.0, |b| b.0.round()))
                .collect::<Vec<_>>()
        ),
    );
    out.note(
        "climb_steal_pct",
        format!(
            "{:.1?}",
            climbs.iter().map(|c| c.steal * 100.0).collect::<Vec<_>>()
        ),
    );
    out.note("reference_chunks", latency_ms.len());
    if opts.trace {
        let mut spans: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        trace::summarize(tracer.spans(), &mut spans);
        let pusher_events = spans.get("gen.batch").map_or(0, |s| s.count) as f64 * BATCH as f64;
        let mut sub_spans: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        trace::summarize(sub_tracer.spans(), &mut sub_spans);
        if let Some(path) = &opts.trace_out {
            trace::write_spans(path, "pusher", tracer.spans()).map_err(err)?;
            trace::write_spans(path, "subscriber", sub_tracer.spans()).map_err(err)?;
        }
        let s = &final_metrics;
        let pushed = prom_value(s, "datacell_ingest_rows_total").max(1.0);
        let dur = |n: &str| {
            spans
                .get(n)
                .map(|x| x.durations_us.clone())
                .unwrap_or_default()
        };
        for (name, st) in spans.iter().chain(&sub_spans) {
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
        let all = &all_recs;
        let hits = prom_value(s, "datacell_reactor_frame_cache_hits_total");
        let misses = prom_value(s, "datacell_reactor_frame_cache_misses_total");
        let mut m = LayerMetrics::default();
        m.set("plan.register_ms", register_ms.p50());
        m.set("core.firings", prom_value(s, "datacell_firings_total"));
        m.set(
            "core.rows_in_per_event",
            prom_value(s, "datacell_fire_rows_in_total") / pushed,
        );
        m.set(
            "core.dropped_chunks",
            prom_value(s, "datacell_emitter_dropped_chunks_total"),
        );
        m.set("storage.pinned_bytes.max", pinned_max);
        m.set("server.push_rtt_us.p50", dur("server.push_rows").p50());
        m.set("server.push_rtt_us.p99", dur("server.push_rows").q(0.99));
        m.set(
            "server.chunk_wait_us.p50",
            Samples::from_iter(all.iter().map(|r| r.wait_us as f64)).p50(),
        );
        m.set(
            "server.rows_per_chunk",
            Samples::from_iter(all.iter().map(|r| f64::from(r.rows))).mean(),
        );
        m.set(
            "server.wire_delivery_us.p50",
            prom_quantile(s, "datacell_wire_delivery_us", 0.5),
        );
        m.set(
            "server.wire_delivery_us.p99",
            prom_quantile(s, "datacell_wire_delivery_us", 0.99),
        );
        m.set(
            "server.frame_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        m.set(
            "server.scheduler_pass_us.p99",
            prom_quantile(s, "datacell_scheduler_pass_us", 0.99),
        );
        m.set(
            "server.overloaded",
            overloaded as f64 + prom_value(s, "datacell_admission_rejected_total"),
        );
        m.set("server.max_chunk_gap_ms", gaps.max());
        if spec.durable {
            m.set(
                "wal.append_us.p50",
                prom_quantile(s, "datacell_wal_append_us", 0.5),
            );
            m.set(
                "wal.fsync_us.p99",
                prom_quantile(s, "datacell_wal_fsync_us", 0.99),
            );
            m.set(
                "wal.bytes_per_event",
                prom_value(s, "datacell_wal_bytes_total") / pushed,
            );
            m.set(
                "wal.io_retries",
                prom_value(s, "datacell_wal_io_retries_total"),
            );
            m.set("wal.replay_s", median(&replay).unwrap_or(0.0));
        }
        m.set("gen.lag_ms.p99", lag_us.q(0.99) / 1e3);
        m.set("trace.overhead_pct", overhead_pct);
        // Self time counts the pusher thread only: the subscriber's
        // `next_chunk` spans are mostly waiting for the next chunk, and that
        // wait is `server.chunk_wait_us`.
        m.self_times(&spans, pusher_events);
        m.emit(&mut out);
        out.note("histograms", "server.wire_delivery_us, server.scheduler_pass_us and wal.* quantiles are log2-bucket upper bounds (coarse, within 2x)");
    } else {
        let tail = crate::stats::split_tail(&latency_ms, TAIL_PARTS)
            .ok_or("too few reference results for a tail latency")?;
        out.metric("throughput_eps", throughput, "events/s");
        out.metric("sustainable_eps", sustainable, "events/s");
        out.metric(
            "latency_p50_ms",
            median(&quiet_latency_ms).unwrap_or(0.0),
            "ms",
        );
        out.note(
            "reference_steal_pct_each",
            format!("{:.1?}", steals.iter().map(|s| s * 100.0).collect::<Vec<_>>()),
        );
        out.metric("setup_s", median(&setup_s).unwrap_or(0.0), "s");
        out.metric("peak_rss_mb", rss, "MiB");
        out.metric("recovery_s", median(&recovery).unwrap_or(0.0), "s");
        // The tail is recorded, not gated: see dcbench/README.md.
        out.note("latency_p99_ms", format!("{:.3}", tail.value));
        out.note("latency_tail_percentile", format!("{:.2}", tail.percentile));
        out.note("latency_samples", tail.samples);
        out.note("gen_lag_ms_p99", format!("{:.3}", lag_us.q(0.99) / 1e3));
        out.note("recovery_s_each", format!("{recovery:.3?}"));
    }
    Ok(out)
}
