//! Per-connection sessions: one thread per client, command dispatch over
//! the shared engine, and the streaming (subscription) mode.
//!
//! A session alternates between two modes:
//!
//! * **command mode** — read a line, parse a [`Command`], dispatch it
//!   against the engine (held behind the server's mutex only for the
//!   duration of the command), write the reply;
//! * **streaming mode** — after `SUBSCRIBE`, the connection becomes an
//!   *emitter* (paper §3): result chunks are pumped from the query's
//!   server-side [`ReplayRing`](crate::replay::ReplayRing) to the socket
//!   as `CHUNK <id> <n> <seq>` frames until the client sends `STOP`, the
//!   chunk limit is reached, the subscription is closed engine-side, or
//!   the connection drops. The ring outlives the connection, so a client
//!   reconnecting with `SUBSCRIBE … AFTER <epoch> <seq>` resumes from its
//!   last delivered chunk.
//!
//! All socket reads go through [`LineReader`] with a short read timeout,
//! so every blocking point periodically rechecks the server's shutdown
//! flag and streaming sessions can poll the socket and the ring from a
//! single thread. Sessions also carry resilience deadlines (see
//! [`ServerConfig`](crate::ServerConfig)): idle command-mode sessions are
//! reaped, a `PUSH` block must reach `END` within its frame timeout, and
//! socket writes carry a deadline so a wedged client cannot pin the
//! thread.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell_core::{EngineError, EngineObs, ExecOutcome};
use datacell_storage::Chunk;

use crate::protocol::{
    encode_chunk, encode_names, encode_rows, err_line, parse_command, ChunkDecoder, Command,
    PUSH_END,
};
use crate::server::SharedState;

/// Upper bound on one protocol line; longer input is a framing error.
const MAX_LINE: usize = 1 << 20;

/// Read timeout while waiting for the next command.
const COMMAND_POLL: Duration = Duration::from_millis(100);

/// Read/emitter poll interval while streaming.
const STREAM_POLL: Duration = Duration::from_millis(5);

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 64 << 10;

/// Outcome of one [`LineReader::poll_line`] call. `L` is the line: an
/// owned `String` for callers, a byte range of the reader's buffer inside
/// the session.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadLine<L = String> {
    /// A complete line (terminator stripped).
    Line(L),
    /// A line longer than the protocol limit. Its bytes were discarded
    /// (through the terminating newline), the stream stays in sync, and
    /// the session answers `ERR` instead of tearing the connection down.
    Overlong,
    /// Peer closed the connection.
    Eof,
    /// Nothing available within the read timeout.
    Idle,
}

/// Incremental line reader that survives read timeouts: bytes of a
/// partial line stay buffered across [`ReadLine::Idle`] returns, unlike
/// `BufRead::read_line` which can lose them into the caller's buffer.
///
/// Lines are consumed by advancing an offset into the buffer; the
/// consumed prefix is compacted away once per socket read, not once per
/// line.
pub struct LineReader<R: Read> {
    inner: R,
    /// Bytes received; `buf[start..]` are not consumed yet.
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte.
    start: usize,
    /// `buf[start..scanned]` is known to hold no newline.
    scanned: usize,
    /// An oversize line is being skipped: drop bytes until its newline,
    /// then report [`ReadLine::Overlong`].
    discarding: bool,
    /// Read target, allocated (and zeroed) once.
    read_buf: Box<[u8]>,
}

impl<R: Read> LineReader<R> {
    /// Wrap a byte stream.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            discarding: false,
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
        }
    }

    /// Surrender whatever raw bytes are buffered past the last produced
    /// line. Used at the `HELLO BINARY` handoff: bytes the peer pipelined
    /// after the handshake line are binary frames and belong to the
    /// reactor's frame reader, not this line reader.
    pub fn take_buffered(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.start.min(self.buf.len()));
        self.clear();
        self.discarding = false;
        rest
    }

    /// Try to produce the next line. A read timeout on the underlying
    /// stream yields [`ReadLine::Idle`]; a line over [`MAX_LINE`] is
    /// discarded (through its newline) and reported as
    /// [`ReadLine::Overlong`] — the framing stays intact, so the session
    /// can answer `ERR` and keep serving.
    pub fn poll_line(&mut self) -> io::Result<ReadLine> {
        Ok(match self.advance()? {
            ReadLine::Line(r) => ReadLine::Line(String::from_utf8_lossy(self.line(r)).into_owned()),
            ReadLine::Overlong => ReadLine::Overlong,
            ReadLine::Eof => ReadLine::Eof,
            ReadLine::Idle => ReadLine::Idle,
        })
    }

    /// The bytes of a line [`LineReader::advance`] just produced. Valid
    /// until the next `advance`, which may compact the buffer.
    fn line(&self, range: std::ops::Range<usize>) -> &[u8] {
        self.buf.get(range).unwrap_or_default()
    }

    /// [`LineReader::poll_line`] without copying: the line is returned as
    /// its range in the buffer (see [`LineReader::line`]).
    fn advance(&mut self) -> io::Result<ReadLine<std::ops::Range<usize>>> {
        loop {
            let unscanned = self.buf.get(self.scanned..).unwrap_or_default();
            if let Some(pos) = unscanned.iter().position(|&b| b == b'\n') {
                let newline = self.scanned + pos;
                let line_start = self.start;
                self.start = newline + 1;
                self.scanned = self.start;
                if self.discarding || newline - line_start > MAX_LINE {
                    self.discarding = false;
                    return Ok(ReadLine::Overlong);
                }
                let mut end = newline;
                if end > line_start && self.buf.get(end - 1) == Some(&b'\r') {
                    end -= 1;
                }
                return Ok(ReadLine::Line(line_start..end));
            }
            self.scanned = self.buf.len();
            if self.discarding {
                // Nothing before a newline matters; drop what is buffered.
                self.clear();
            } else if self.buf.len() - self.start > MAX_LINE {
                self.clear();
                self.discarding = true;
            }
            // Compact once per read: only the partial line moves.
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.scanned -= self.start;
                self.start = 0;
            }
            match self.inner.read(&mut self.read_buf) {
                Ok(0) => {
                    if self.discarding {
                        // Oversize final line, never terminated.
                        self.discarding = false;
                        return Ok(ReadLine::Overlong);
                    }
                    if self.buf.is_empty() {
                        return Ok(ReadLine::Eof);
                    }
                    // Final unterminated line.
                    self.start = self.buf.len();
                    self.scanned = self.start;
                    return Ok(ReadLine::Line(0..self.start));
                }
                Ok(n) => self.buf.extend_from_slice(self.read_buf.get(..n).unwrap_or_default()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadLine::Idle),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Ok(ReadLine::Idle),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
    }
}

/// Statistics of one finished session (also aggregated server-wide).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Commands dispatched.
    pub commands: u64,
    /// Stream tuples ingested via `PUSH` / `EXEC INSERT`.
    pub rows_pushed: u64,
    /// Result chunks streamed out while subscribed.
    pub chunks_delivered: u64,
    /// Result rows streamed out while subscribed.
    pub rows_delivered: u64,
    /// Commands that answered `ERR`.
    pub errors: u64,
}

/// Reply sent when a line exceeds [`MAX_LINE`].
const OVERLONG_MSG: &str = "protocol line exceeds 1 MiB";

/// One blocking read's outcome at the session level.
enum Input {
    /// A complete protocol line: its bytes are `reader.line(range)`.
    Line(std::ops::Range<usize>),
    /// An oversize line was discarded; answer `ERR`, stay alive.
    Overlong,
    /// Connection closed (or server shutting down).
    Closed,
    /// The caller's deadline passed with no input (idle reaping or a
    /// stalled `PUSH` frame).
    TimedOut,
}

/// Why the session loop ended.
enum Exit {
    /// Client sent QUIT, closed the socket, or an I/O error occurred.
    Closed,
    /// The server is shutting down.
    Shutdown,
    /// `HELLO BINARY` negotiated: this connection continues under the
    /// reactor in frame mode; the session thread ends without closing it.
    Handoff,
}

/// Drive one client connection to completion. Returns the session's
/// final statistics (already folded into the server-wide counters) —
/// or, after a binary handoff, an empty default: the connection lives on
/// under the reactor, which folds the carried-over counters when the
/// connection actually closes.
pub(crate) fn run_session(stream: TcpStream, shared: Arc<SharedState>) -> SessionStats {
    let mut session = match Session::new(stream, shared) {
        Ok(s) => s,
        Err(_) => return SessionStats::default(),
    };
    let _ = session.run();
    if session.handoff {
        session.into_handoff();
        return SessionStats::default();
    }
    session.finish()
}

struct Session {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
    shared: Arc<SharedState>,
    stats: SessionStats,
    /// Set when `HELLO BINARY` succeeded: hand the socket to the reactor
    /// instead of closing it.
    handoff: bool,
}

impl Session {
    fn new(stream: TcpStream, shared: Arc<SharedState>) -> io::Result<Session> {
        stream.set_read_timeout(Some(COMMAND_POLL))?;
        // A wedged client that stops reading must not pin this thread on
        // a blocking write forever.
        stream.set_write_timeout(shared.tuning.write_timeout)?;
        stream.set_nodelay(true).ok();
        let reader = LineReader::new(stream.try_clone()?);
        Ok(Session {
            reader,
            writer: stream,
            shared,
            stats: SessionStats::default(),
            handoff: false,
        })
    }

    fn finish(self) -> SessionStats {
        self.shared.stats.fold_session(&self.stats);
        self.stats
    }

    /// Pass the connection to the reactor: the socket goes non-blocking,
    /// bytes the client pipelined behind the `HELLO` line travel along,
    /// and this session's counters ride with the connection (folded
    /// server-wide when the reactor eventually closes it).
    fn into_handoff(mut self) {
        let leftover = self.reader.take_buffered();
        if self.writer.set_nonblocking(true).is_err() {
            // Can't enter the reactor; close out as a normal session end.
            self.finish();
            return;
        }
        let Session { writer, shared, stats, .. } = self;
        shared.enqueue_handoff(crate::reactor::BinaryHandoff {
            stream: writer,
            leftover,
            stats,
        });
    }

    fn send(&mut self, text: &str) -> io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    fn send_err(&mut self, msg: &str) -> io::Result<()> {
        self.stats.errors += 1;
        self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        let line = err_line(msg);
        self.send(&line)
    }

    /// Report an engine failure. Admission-control sheds get the
    /// dedicated retryable `OVERLOADED <retry-after-ms>` line so clients
    /// can tell "back off and retry" from a hard `ERR`.
    fn send_engine_err(&mut self, e: &EngineError) -> io::Result<()> {
        if let EngineError::Overloaded { retry_after_ms } = e {
            self.stats.errors += 1;
            self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            return self.send(&format!("OVERLOADED {retry_after_ms}\n"));
        }
        self.send_err(&e.to_string())
    }

    fn count_pushed(&mut self, n: u64) {
        self.stats.rows_pushed += n;
        self.shared.stats.rows_pushed.fetch_add(n, Ordering::Relaxed);
    }

    /// Block for the next input event, honouring the shutdown flag at
    /// every read-timeout tick. A passed `deadline` turns prolonged
    /// silence into [`Input::TimedOut`] instead of waiting forever.
    fn next_input(&mut self, deadline: Option<Instant>) -> io::Result<Input> {
        loop {
            match self.reader.advance()? {
                ReadLine::Line(r) => return Ok(Input::Line(r)),
                ReadLine::Overlong => return Ok(Input::Overlong),
                ReadLine::Eof => return Ok(Input::Closed),
                ReadLine::Idle => {
                    if self.shared.is_shutdown() {
                        return Ok(Input::Closed);
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Ok(Input::TimedOut);
                    }
                }
            }
        }
    }

    fn run(&mut self) -> io::Result<()> {
        loop {
            let deadline = self.shared.tuning.idle_timeout.map(|t| Instant::now() + t);
            let line = match self.next_input(deadline)? {
                Input::Line(r) => String::from_utf8_lossy(self.reader.line(r)).into_owned(),
                Input::TimedOut => {
                    // Idle-session reaping: tell the client why, then hang
                    // up (best effort — it may be long gone).
                    let _ = self.send("ERR idle session reaped\n");
                    break;
                }
                Input::Overlong => {
                    // A framing error, not a fatal one: answer ERR and
                    // keep the session alive (the reader resynced at the
                    // newline).
                    self.stats.commands += 1;
                    self.shared.stats.commands.fetch_add(1, Ordering::Relaxed);
                    self.send_err(OVERLONG_MSG)?;
                    continue;
                }
                Input::Closed => break,
            };
            if line.trim().is_empty() {
                continue;
            }
            self.stats.commands += 1;
            self.shared.stats.commands.fetch_add(1, Ordering::Relaxed);
            let cmd = match parse_command(&line) {
                Ok(c) => c,
                Err(e) => {
                    self.send_err(&e.0)?;
                    continue;
                }
            };
            match self.dispatch(cmd)? {
                None => {}
                Some(Exit::Handoff) => {
                    self.handoff = true;
                    break;
                }
                Some(Exit::Closed) | Some(Exit::Shutdown) => break,
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, cmd: Command) -> io::Result<Option<Exit>> {
        match cmd {
            Command::Hello(version) => {
                if version == datacell_storage::binio::WIRE_VERSION {
                    self.send(&format!("OK HELLO BINARY {version}\n"))?;
                    return Ok(Some(Exit::Handoff));
                }
                self.send_err(&format!(
                    "unsupported binary wire version {version} (supported: {})",
                    datacell_storage::binio::WIRE_VERSION
                ))?;
            }
            Command::Schema(stream) => {
                let schema = self.shared.lock_engine().catalog().schema_of(&stream);
                match schema {
                    Ok(s) => {
                        let mut bytes = Vec::new();
                        datacell_storage::binio::encode_schema(&mut bytes, &s);
                        self.send(&format!(
                            "OK SCHEMA {stream} {}\n",
                            crate::protocol::encode_hex(&bytes)
                        ))?;
                    }
                    Err(e) => self.send_engine_err(&EngineError::from(e))?,
                }
            }
            Command::Ping => self.send("PONG\n")?,
            Command::Quit => {
                self.send("OK BYE\n")?;
                return Ok(Some(Exit::Closed));
            }
            Command::Shutdown => {
                // Flag first, ack second: a client that saw `OK SHUTDOWN`
                // must observe `shutdown_requested()` as true.
                self.shared.request_shutdown();
                self.send("OK SHUTDOWN\n")?;
                return Ok(Some(Exit::Shutdown));
            }
            Command::Stop => self.send_err("STOP is only valid while subscribed")?,
            Command::Exec(sql) => self.exec(&sql)?,
            Command::Register { sql, mode } => {
                let registered = {
                    let mut engine = self.shared.lock_engine();
                    match mode {
                        Some(m) => engine.register_query_with_mode(&sql, m),
                        None => engine.register_query(&sql),
                    }
                };
                match registered {
                    Ok(id) => {
                        self.shared.notify_work();
                        self.send(&format!("OK QUERY {id}\n"))?;
                    }
                    Err(e) => self.send_err(&e.to_string())?,
                }
            }
            Command::Deregister(id) => {
                let res = self.shared.lock_engine().deregister_query(id);
                match res {
                    Ok(()) => self.send(&format!("OK DEREGISTERED {id}\n"))?,
                    Err(e) => self.send_err(&e.to_string())?,
                }
            }
            Command::Push(stream) => self.push(&stream)?,
            Command::Subscribe { query, limit, after } => {
                return self.subscribe(query, limit, after)
            }
            Command::Stats => self.stats_report(false)?,
            Command::StatsDetail => self.stats_report(true)?,
            Command::Metrics => {
                let text = self.shared.lock_engine().metrics_text();
                self.send_framed("METRICS", text)?;
            }
            Command::ExplainAnalyze(id) => {
                let rendered = self.shared.lock_engine().explain_analyze(id);
                match rendered {
                    Ok(text) => self.send_framed("ANALYZE", text)?,
                    Err(e) => self.send_err(&e.to_string())?,
                }
            }
            Command::TraceDump(n) => self.trace_report(n)?,
        }
        Ok(None)
    }

    /// Send a multi-line report framed as `<tag> <line-count>`.
    fn send_framed(&mut self, tag: &str, mut body: String) -> io::Result<()> {
        if !body.is_empty() && !body.ends_with('\n') {
            body.push('\n');
        }
        let lines = body.lines().count();
        self.send(&format!("{tag} {lines}\n{body}"))
    }

    fn exec(&mut self, sql: &str) -> io::Result<()> {
        let outcome = {
            let mut engine = self.shared.lock_engine();
            let outcome = engine.execute(sql);
            // INSERT into a stream can enable factories: evaluate
            // synchronously so results are on subscriber queues before the
            // client sees the reply (ingest-synchronous semantics).
            if matches!(outcome, Ok(ExecOutcome::Inserted(_))) {
                engine.run_until_idle().ok();
            }
            outcome
        };
        match outcome {
            Ok(ExecOutcome::Created(name)) => self.send(&format!("OK CREATED {name}\n")),
            Ok(ExecOutcome::Dropped(name)) => self.send(&format!("OK DROPPED {name}\n")),
            Ok(ExecOutcome::Inserted(n)) => {
                self.count_pushed(n as u64);
                self.shared.notify_work();
                self.send(&format!("OK INSERTED {n}\n"))
            }
            Ok(ExecOutcome::Rows { names, chunk }) => {
                let mut reply =
                    format!("ROWS {} {}\n", chunk.len(), encode_names(&names));
                encode_rows(&mut reply, chunk.rows());
                self.send(&reply)
            }
            Err(e) => self.send_engine_err(&e),
        }
    }

    /// The socket receptor: decode CSV rows until [`PUSH_END`] straight
    /// into typed columns ([`ChunkDecoder`]), append the block to the
    /// stream's basket as one chunk — the same entry binary `PUSH` uses —
    /// and evaluate to quiescence before acknowledging, so a subsequent
    /// `SUBSCRIBE` read on another connection observes everything this
    /// batch produced.
    fn push(&mut self, stream: &str) -> io::Result<()> {
        let schema = self.shared.lock_engine().catalog().schema_of(stream);
        let mut decoder = schema.map(ChunkDecoder::new);
        let mut bad: Option<String> = None;
        loop {
            // In-frame deadline: a producer that stalls mid-block (between
            // `PUSH` and `END`) must not pin the session forever. The
            // deadline restarts with every row received.
            let deadline = Instant::now() + self.shared.tuning.push_frame_timeout;
            let range = match self.next_input(Some(deadline))? {
                Input::Line(r) => r,
                Input::TimedOut => {
                    // Nothing was applied; the reader is still line-synced,
                    // so the session survives. Any stragglers of the
                    // abandoned block will bounce off parse_command.
                    return self.send_err(&format!(
                        "PUSH {stream}: no END within {:?}; batch discarded",
                        self.shared.tuning.push_frame_timeout
                    ));
                }
                Input::Overlong => {
                    // An oversize row poisons the batch but not the
                    // session: keep consuming through END, then ERR.
                    if bad.is_none() {
                        let row = decoder.as_ref().map_or(0, ChunkDecoder::rows) + 1;
                        bad = Some(format!("row {row}: {OVERLONG_MSG}"));
                    }
                    continue;
                }
                // Connection died mid-batch: nothing was applied.
                Input::Closed => return Ok(()),
            };
            let line = String::from_utf8_lossy(self.reader.line(range));
            if line.trim().eq_ignore_ascii_case(PUSH_END) {
                break;
            }
            if bad.is_some() {
                continue; // keep consuming the block to stay in sync
            }
            match &mut decoder {
                Ok(d) => bad = d.push_line(&line).err().map(|e| e.0),
                Err(_) => bad = Some(String::new()), // reported below
            }
        }
        let decoder = match decoder {
            Ok(d) => d,
            Err(e) => return self.send_err(&EngineError::from(e).to_string()),
        };
        if let Some(msg) = bad {
            return self.send_err(&msg);
        }
        let chunk = match decoder.finish() {
            Ok(c) => c,
            Err(e) => return self.send_err(&e.0),
        };
        let pushed = {
            let mut engine = self.shared.lock_engine();
            match engine.push_chunk(stream, &chunk) {
                Ok(n) => {
                    engine.run_until_idle().ok();
                    Ok(n)
                }
                Err(e) => Err(e),
            }
        };
        match pushed {
            Ok(n) => {
                self.count_pushed(n as u64);
                self.shared.notify_work();
                self.send(&format!("OK PUSHED {n}\n"))
            }
            Err(e) => self.send_engine_err(&e),
        }
    }

    /// Streaming mode: the connection becomes this query's emitter,
    /// reading from the query's server-side replay ring by cursor. A plain
    /// `SUBSCRIBE` starts at "future chunks only"; `AFTER <epoch> <seq>`
    /// resumes a previous incarnation of the subscription.
    fn subscribe(
        &mut self,
        query: u64,
        limit: Option<u64>,
        after: Option<(u64, u64)>,
    ) -> io::Result<Option<Exit>> {
        let prepared = {
            let engine = self.shared.lock_engine();
            engine.output_names(query).map(|names| (names, engine.obs().clone()))
        };
        let (names, obs) = match prepared {
            Ok(pair) => pair,
            Err(e) => {
                self.send_engine_err(&e)?;
                return Ok(None);
            }
        };
        let mut cursor = match self.shared.attach_subscriber(query, after) {
            Ok((cursor, _next_seq)) => cursor,
            Err(e) => {
                self.send_engine_err(&e)?;
                return Ok(None);
            }
        };
        self.send(&format!(
            "OK SUBSCRIBED {query} {} {} {}\n",
            self.shared.epoch,
            cursor + 1,
            encode_names(&names)
        ))?;

        self.writer.set_read_timeout(Some(STREAM_POLL))?;
        let mut counters = (0u64, 0u64); // (chunks, rows)
        let exit = loop {
            if self.shared.is_shutdown() {
                // Final drain: chunks of already-acknowledged batches must
                // still reach the client before the stream ends.
                self.forward_ring(query, &obs, &mut cursor, limit, &mut counters)?;
                break Some(Exit::Shutdown);
            }
            // 1. Client input: STOP, connection close, or garbage. The
            //    STREAM_POLL read timeout paces the loop.
            match self.reader.poll_line()? {
                ReadLine::Eof => break Some(Exit::Closed),
                ReadLine::Overlong => self.send_err(OVERLONG_MSG)?,
                ReadLine::Line(l) => match parse_command(&l) {
                    Ok(Command::Stop) => {
                        self.forward_ring(query, &obs, &mut cursor, limit, &mut counters)?;
                        break None;
                    }
                    _ => self.send_err("only STOP is accepted while subscribed")?,
                },
                ReadLine::Idle => {}
            }
            // 2. Ring output: forward everything retained past the cursor.
            let (limit_hit, closed) =
                self.forward_ring(query, &obs, &mut cursor, limit, &mut counters)?;
            if limit_hit {
                break None;
            }
            if closed {
                // Deregistered or engine shutdown: the ring is drained and
                // no more chunks can arrive — end the stream politely.
                break None;
            }
        };
        let (chunks, rows) = counters;
        self.stats.chunks_delivered += chunks;
        self.stats.rows_delivered += rows;
        self.shared.stats.chunks_delivered.fetch_add(chunks, Ordering::Relaxed);
        self.shared.stats.rows_delivered.fetch_add(rows, Ordering::Relaxed);
        self.writer.set_read_timeout(Some(COMMAND_POLL))?;
        // Every stream end — including server shutdown — is announced with
        // OK STOPPED so a blocked client sees a clean end-of-stream rather
        // than a bare EOF.
        self.send(&format!("OK STOPPED {chunks} {rows}\n"))?;
        Ok(exit)
        // The ring (and its engine tap) deliberately survives this
        // session: that retained tail is what a reconnecting client
        // resumes from.
    }

    /// Forward every retained chunk past `cursor`, updating the cursor
    /// and the `(chunks, rows)` counters. Returns `(limit_reached,
    /// ring_closed_and_drained)`.
    fn forward_ring(
        &mut self,
        query: u64,
        obs: &EngineObs,
        cursor: &mut u64,
        limit: Option<u64>,
        counters: &mut (u64, u64),
    ) -> io::Result<(bool, bool)> {
        loop {
            let budget = match limit {
                Some(l) if counters.0 >= l => return Ok((true, false)),
                Some(l) => (l - counters.0) as usize,
                None => usize::MAX,
            };
            let (batch, closed) = self.shared.fetch_ring(query, *cursor, budget);
            if batch.is_empty() {
                return Ok((false, closed));
            }
            for (seq, chunk) in batch {
                self.send_chunk(obs, query, seq, &chunk)?;
                *cursor = seq;
                counters.0 += 1;
                counters.1 += chunk.len() as u64;
            }
        }
    }

    /// Write one `CHUNK` frame, then close the lifecycle latency chain:
    /// the chunk's ingest stamp (the arrival tick of its newest
    /// contributing tuple) to "bytes handed to the socket" is the
    /// wire-delivery latency. Replayed chunks arrive stamp-stripped from
    /// the ring, so re-deliveries never pollute the histogram.
    fn send_chunk(
        &mut self,
        obs: &EngineObs,
        query: u64,
        seq: u64,
        chunk: &Chunk,
    ) -> io::Result<()> {
        self.send(&encode_chunk(query, seq, chunk))?;
        if let Some(arrived) = chunk.stamp().instant() {
            let us = arrived.elapsed().as_micros().min(u64::MAX as u128) as u64;
            obs.record_wire_delivery_us(us);
        }
        Ok(())
    }

    /// The `STATS` / `STATS DETAIL` report: engine sections (detail adds
    /// the analyze table and latency percentiles), engine uptime, the
    /// server-wide counters, and this session's own counters.
    fn stats_report(&mut self, detail: bool) -> io::Result<()> {
        let (engine_report, uptime) = {
            let engine = self.shared.lock_engine();
            let text = if detail { engine.stats_detail() } else { engine.stats().render() };
            (text, engine.uptime())
        };
        let mut report = engine_report;
        report.push_str(&format!("uptime: {:.1}s\n", uptime.as_secs_f64()));
        report.push_str(&self.shared.stats.render());
        report.push_str(&format!(
            "== session ==\n\
             commands: {} ({} errors)\n\
             ingest: {} rows pushed\n\
             egress: {} chunks / {} rows delivered\n",
            self.stats.commands,
            self.stats.errors,
            self.stats.rows_pushed,
            self.stats.chunks_delivered,
            self.stats.rows_delivered,
        ));
        self.send_framed("STATS", report)
    }

    /// Drain the engine's flight recorder into a `TRACE` frame, one event
    /// per line (details folded to keep the line framing intact).
    fn trace_report(&mut self, n: Option<usize>) -> io::Result<()> {
        let events = self.shared.lock_engine().trace_events(n);
        let mut body = String::new();
        for e in &events {
            body.push_str(&format!(
                "#{} +{}us {} {}\n",
                e.seq,
                e.at_us,
                e.kind,
                e.detail.replace(['\n', '\r'], "; ")
            ));
        }
        self.send_framed("TRACE", body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_reader_splits_and_survives_partials() {
        // A reader that yields data in awkward slices with interspersed
        // timeouts, to prove partial lines are never lost.
        struct Chunked {
            parts: Vec<io::Result<Vec<u8>>>,
        }
        impl Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.parts.is_empty() {
                    return Ok(0);
                }
                match self.parts.remove(0) {
                    Ok(bytes) => {
                        buf[..bytes.len()].copy_from_slice(&bytes);
                        Ok(bytes.len())
                    }
                    Err(e) => Err(e),
                }
            }
        }
        let timeout = || Err(io::Error::new(io::ErrorKind::WouldBlock, "t"));
        let mut r = LineReader::new(Chunked {
            parts: vec![
                Ok(b"PI".to_vec()),
                timeout(),
                Ok(b"NG\r\nEX".to_vec()),
                timeout(),
                Ok(b"EC 1\ntail".to_vec()),
            ],
        });
        assert_eq!(r.poll_line().unwrap(), ReadLine::Idle);
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("PING".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Idle);
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("EXEC 1".into()));
        // EOF flushes the unterminated tail as a final line.
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("tail".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Eof);
    }

    /// A reader that hands out scripted slices (or errors), one per read.
    struct Script(Vec<io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let bytes = self.0.remove(0)?;
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn line_reader_consumes_many_lines_from_one_read_by_offset() {
        let block: String = (0..100).map(|i| format!("@{i},{i}\n")).collect();
        let mut r = LineReader::new(Script(vec![Ok(block.clone().into_bytes())]));
        for i in 0..100 {
            assert_eq!(r.poll_line().unwrap(), ReadLine::Line(format!("@{i},{i}")));
            // Consumed lines are skipped by offset: the buffer still holds
            // the whole read until the next one compacts it.
            assert_eq!(r.buf.len(), block.len());
        }
        assert_eq!(r.poll_line().unwrap(), ReadLine::Eof);
    }

    #[test]
    fn line_reader_strips_crlf_and_keeps_empty_lines() {
        let mut r = LineReader::new(Script(vec![Ok(b"A\r\n\r\n\nB\rC\r\nD\r".to_vec())]));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("A".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line(String::new()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line(String::new()));
        // Only a `\r` right before the newline is a terminator.
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("B\rC".into()));
        // The unterminated tail at EOF is returned as it is.
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("D\r".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Eof);
    }

    #[test]
    fn line_reader_compacts_a_line_split_across_reads_and_timeouts() {
        let timeout = || Err(io::Error::new(io::ErrorKind::TimedOut, "t"));
        let mut r = LineReader::new(Script(vec![
            Ok(b"one\ntwo\nthr".to_vec()),
            timeout(),
            Ok(b"ee\r".to_vec()),
            timeout(),
            Ok(b"\nfour\n".to_vec()),
        ]));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("one".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("two".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Idle);
        // Compacting before the next read moved only the partial line.
        assert_eq!(r.buf, b"thr");
        assert_eq!(r.poll_line().unwrap(), ReadLine::Idle);
        assert_eq!(r.buf, b"three\r");
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("three".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("four".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Eof);
    }

    #[test]
    fn line_reader_take_buffered_returns_exactly_the_unconsumed_bytes() {
        // `HELLO BINARY` handoff with frames pipelined behind the line.
        let frames = [0x01u8, 5, 0, 0, 0, b'\n', 0xff, b'\r', b'\n', 0];
        let mut bytes = b"PING\nHELLO BINARY 1\r\n".to_vec();
        bytes.extend_from_slice(&frames);
        let mut r = LineReader::new(Script(vec![Ok(bytes)]));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("PING".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("HELLO BINARY 1".into()));
        assert_eq!(r.take_buffered(), frames);
        assert!(r.take_buffered().is_empty());
    }

    #[test]
    fn line_reader_resyncs_after_an_overlong_line_in_the_same_read() {
        let mut bytes = b"A\n".to_vec();
        bytes.extend(std::iter::repeat_n(b'x', MAX_LINE + 1));
        bytes.extend_from_slice(b"\nB\n");
        let parts = bytes.chunks(READ_CHUNK).map(|c| Ok(c.to_vec())).collect();
        let mut r = LineReader::new(Script(parts));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("A".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Overlong);
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("B".into()));
        assert_eq!(r.poll_line().unwrap(), ReadLine::Eof);
    }

    #[test]
    fn push_errors_keep_their_row_numbered_text() {
        let server = crate::Server::start(crate::ServerConfig {
            init_script: Some(
                "CREATE STREAM s (ts TIMESTAMP, v BIGINT, ok BOOLEAN, x DOUBLE, tag VARCHAR)"
                    .into(),
            ),
            ..crate::ServerConfig::default()
        })
        .unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut replies = LineReader::new(c.try_clone().unwrap());
        let good = "@1,2,true,0.5,a\n";
        let oversize = format!("{good}{}\n", "9".repeat(2 * MAX_LINE));
        let cases = [
            ("@1,2\n".to_string(), "ERR row 1: row has 2 fields, stream has 5 columns"),
            (format!("{good}@1,x,true,0.5,a\n"), "ERR row 2: column \"v\" (Int): bad field \"x\""),
            (
                format!("{good}{good}@1,2,maybe,0.5,a\n"),
                "ERR row 3: column \"ok\" (Bool): bad field \"maybe\"",
            ),
            ("@1,2,true,o.5,a\n".to_string(), "ERR row 1: column \"x\" (Float): bad field \"o.5\""),
            ("@1,2,true,0.5,\"a\\q\"\n".to_string(), "ERR row 1: bad escape \\q in quoted field"),
            (format!("{good}@1,2,true,0.5,\"open\n"), "ERR row 2: unterminated quoted field"),
            (oversize, "ERR row 2: protocol line exceeds 1 MiB"),
            (format!("{good}NULL,,,,\"x,\"\"y\"\"\\n\"\n"), "OK PUSHED 2"),
        ];
        for (block, want) in cases {
            c.write_all(format!("PUSH s\n{block}END\n").as_bytes()).unwrap();
            assert_eq!(replies.poll_line().unwrap(), ReadLine::Line(want.into()));
        }
        server.with_engine(|e| assert_eq!(e.stats().baskets[0].arrived, 2));
        server.shutdown();
    }

    #[test]
    fn line_reader_skips_unbounded_lines_and_resyncs() {
        // An oversize line followed by a normal one: the reader reports
        // Overlong once, discards through the newline, and produces the
        // next line intact — bounded memory throughout.
        struct Oversize {
            sent: usize,
            total: usize,
        }
        impl Read for Oversize {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.sent >= self.total {
                    let tail = b"\nPING\n";
                    buf[..tail.len()].copy_from_slice(tail);
                    self.sent = usize::MAX;
                    return Ok(tail.len());
                }
                buf.fill(b'x');
                self.sent += buf.len();
                Ok(buf.len())
            }
        }
        let mut r = LineReader::new(Oversize { sent: 0, total: 3 << 20 });
        assert_eq!(r.poll_line().unwrap(), ReadLine::Overlong);
        assert_eq!(r.poll_line().unwrap(), ReadLine::Line("PING".into()));
    }

    #[test]
    fn line_reader_reports_overlong_final_line_on_eof() {
        // Feed > MAX_LINE then EOF: one Overlong, then Eof.
        struct Limited {
            remaining: usize,
        }
        impl Read for Limited {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.remaining == 0 {
                    return Ok(0);
                }
                let n = buf.len().min(self.remaining);
                buf[..n].fill(b'y');
                self.remaining -= n;
                Ok(n)
            }
        }
        let mut r = LineReader::new(Limited { remaining: 2 << 20 });
        assert_eq!(r.poll_line().unwrap(), ReadLine::Overlong);
        assert_eq!(r.poll_line().unwrap(), ReadLine::Eof);
    }
}
