//! Transports that feed the [`Engine`]: stdio for tests and editor
//! pipes, a Unix domain socket for long-lived daemons.
//!
//! Both transports read *bounded* NDJSON frames: a request line longer
//! than [`ServerConfig::max_frame_bytes`] is discarded up to its
//! newline and answered with a `bad-request` error, and the connection
//! keeps serving — an oversized (or garbage) frame costs its sender one
//! request, never the daemon or the other clients. Both construct their
//! engine through [`Engine::recover`], so a daemon started with a
//! `state_dir` resumes from its snapshot + journal.

use std::io::{self, BufRead, BufReader, Write};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::engine::{Engine, ServerConfig};
use crate::protocol::error_line;
use crate::signal::install_term_handler;

/// One framing step's outcome.
enum Frame {
    /// A complete line within the size cap (newline stripped).
    Line(String),
    /// A line that blew the cap; payload is the number of bytes
    /// discarded. The stream is positioned after the offending newline.
    Oversized(usize),
    /// Clean end of input.
    Eof,
}

/// Reads one newline-delimited frame, enforcing `max` bytes per line.
/// An over-long line is consumed (so the stream stays line-aligned) but
/// never buffered whole — memory use is bounded by the reader's chunk
/// size, not by what a hostile client sends.
fn read_frame<R: BufRead>(reader: &mut R, max: usize) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    let mut discarded = 0usize;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if discarded > 0 {
                return Ok(Frame::Oversized(discarded));
            }
            if line.is_empty() {
                return Ok(Frame::Eof);
            }
            return frame_line(line);
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if discarded == 0 && line.len() + nl <= max {
                    line.extend_from_slice(&chunk[..nl]);
                    reader.consume(nl + 1);
                    return frame_line(line);
                }
                discarded += line.len() + nl;
                reader.consume(nl + 1);
                return Ok(Frame::Oversized(discarded));
            }
            None => {
                let len = chunk.len();
                if discarded == 0 && line.len() + len <= max {
                    line.extend_from_slice(chunk);
                } else {
                    discarded += line.len() + len;
                    line.clear();
                }
                reader.consume(len);
            }
        }
    }
}

fn frame_line(bytes: Vec<u8>) -> io::Result<Frame> {
    String::from_utf8(bytes)
        .map(Frame::Line)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request line is not UTF-8"))
}

/// The `bad-request` reply for an oversized frame.
fn oversized_line(discarded: usize, max: usize) -> String {
    let message =
        format!("request line exceeds the {max}-byte frame limit ({discarded} bytes discarded)");
    error_line(None, "bad-request", &message)
}

/// Serves the protocol over an arbitrary reader/writer pair — in
/// production that is stdin/stdout (`rid serve --stdio`), in tests any
/// in-memory buffer.
///
/// Returns after a `shutdown` request has been answered or the input
/// reaches EOF; on EOF the queue is drained first so accepted deferred
/// requests are never lost.
pub fn serve_stdio<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    config: ServerConfig,
) -> io::Result<()> {
    let max = config.max_frame_bytes.max(1);
    let mut engine: Engine<()> = Engine::recover(config)?;
    let mut input = input;
    loop {
        match read_frame(&mut input, max)? {
            Frame::Eof => break,
            Frame::Oversized(discarded) => {
                writeln!(output, "{}", oversized_line(discarded, max))?;
                output.flush()?;
            }
            Frame::Line(line) => {
                for ((), response) in engine.handle_line((), &line) {
                    writeln!(output, "{response}")?;
                }
                output.flush()?;
                if engine.is_shutting_down() {
                    return Ok(());
                }
            }
        }
    }
    for ((), response) in engine.drain() {
        writeln!(output, "{response}")?;
    }
    output.flush()
}

/// Reply bytes one connection may have queued before its reader stops
/// taking frames. A client that stops reading holds at most this much
/// (plus the replies to its last frame) in the daemon, and stalls only
/// its own connection.
#[cfg(unix)]
const MAX_QUEUED_REPLY_BYTES: usize = 8 << 20;

/// How long an exiting daemon lets the writer threads flush the replies
/// already queued (the `shutdown` reply among them).
#[cfg(unix)]
const FLUSH_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

#[cfg(unix)]
#[derive(Default)]
struct ReplyQueue {
    lines: std::collections::VecDeque<String>,
    /// Bytes queued or being written, newlines included.
    bytes: usize,
    /// Set when no more replies will be taken: the writer exits once
    /// the queue is empty, and later replies are dropped.
    closed: bool,
}

/// One connection's replies, in the order the engine produced them,
/// waiting for that connection's writer thread. Only the writer thread
/// touches the socket, and it holds no lock while it writes.
#[cfg(unix)]
#[derive(Default)]
struct Outbox {
    queue: Mutex<ReplyQueue>,
    changed: std::sync::Condvar,
}

#[cfg(unix)]
impl Outbox {
    fn lock(&self) -> std::sync::MutexGuard<'_, ReplyQueue> {
        self.queue.lock().expect("outbox lock")
    }

    /// Queues one reply line; a closed outbox drops it.
    fn push(&self, line: String) {
        {
            let mut queue = self.lock();
            if queue.closed {
                return;
            }
            queue.bytes += line.len() + 1;
            queue.lines.push_back(line);
        }
        // Woken after the unlock, the writer does not block on it.
        self.changed.notify_all();
    }

    /// Takes no more replies; the writer flushes the queue and exits.
    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// Blocks while more than [`MAX_QUEUED_REPLY_BYTES`] are queued.
    fn wait_for_room(&self) {
        let mut queue = self.lock();
        while queue.bytes > MAX_QUEUED_REPLY_BYTES {
            queue = self.changed.wait(queue).expect("outbox lock");
        }
    }

    /// The writer thread's loop: writes queued replies in order until
    /// the outbox is closed and empty, or the peer goes away (its later
    /// replies are then dropped — the daemon must not die for a
    /// disconnected client).
    fn write_to(&self, stream: std::os::unix::net::UnixStream) {
        let mut out = io::BufWriter::new(stream);
        loop {
            let batch: Vec<String> = {
                let mut queue = self.lock();
                while queue.lines.is_empty() && !queue.closed {
                    queue = self.changed.wait(queue).expect("outbox lock");
                }
                if queue.lines.is_empty() {
                    return;
                }
                queue.lines.drain(..).collect()
            };
            let bytes: usize = batch.iter().map(|line| line.len() + 1).sum();
            let written = batch
                .iter()
                .try_for_each(|line| out.write_all(line.as_bytes()).and(out.write_all(b"\n")))
                .and_then(|()| out.flush());
            let mut queue = self.lock();
            queue.bytes -= bytes;
            if written.is_err() {
                queue.closed = true;
                queue.lines.clear();
                queue.bytes = 0;
            }
            self.changed.notify_all();
            if written.is_err() {
                return;
            }
        }
    }
}

/// Serves the protocol on a Unix domain socket at `path`.
///
/// Each connection has a reader thread that feeds the shared engine and
/// a writer thread that drains the connection's reply queue. Responses
/// are routed back by connection id, so coalesced batches answer every
/// connection that contributed a request; routing only queues, so a
/// client that stops reading never blocks the engine or other clients.
/// The accept loop polls a SIGTERM/SIGINT latch and the engine's
/// shutdown state; on either it stops accepting, drains the queue, lets
/// the writers flush for up to `FLUSH_TIMEOUT`, and removes the socket
/// file.
#[cfg(unix)]
pub fn serve_unix(path: &std::path::Path, config: ServerConfig) -> io::Result<()> {
    use std::collections::HashMap;
    use std::os::unix::net::UnixListener;

    // A stale socket from a crashed daemon would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let term = install_term_handler();

    let max = config.max_frame_bytes.max(1);
    let engine: Arc<Mutex<Engine<usize>>> = Arc::new(Mutex::new(Engine::recover(config)?));
    // The flight recorder outlives the engine lock on purpose: the
    // panic hook and the fatal-error path below persist from it without
    // ever taking the engine mutex (the panicking thread may hold it).
    let black_box = engine.lock().expect("engine lock").black_box().cloned();
    if let Some(black_box) = &black_box {
        crate::flightrec::install_panic_hook(black_box);
    }
    let outboxes: Arc<Mutex<HashMap<usize, Arc<Outbox>>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut writer_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    // Connection 0 is reserved: journal replay tags its discarded
    // responses with `usize::default()`, so live connections start at 1.
    let mut next_conn = 1usize;

    loop {
        if term.load(Ordering::Relaxed) {
            break;
        }
        if engine.lock().expect("engine lock").is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let conn = next_conn;
                next_conn += 1;
                let outbox = Arc::new(Outbox::default());
                outboxes.lock().expect("outboxes lock").insert(conn, Arc::clone(&outbox));
                let write_half = stream.try_clone()?;
                let writer = Arc::clone(&outbox);
                writer_threads.retain(|thread| !thread.is_finished());
                writer_threads.push(std::thread::spawn(move || writer.write_to(write_half)));
                let engine = Arc::clone(&engine);
                let outboxes = Arc::clone(&outboxes);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    loop {
                        outbox.wait_for_room();
                        match read_frame(&mut reader, max) {
                            Ok(Frame::Line(line)) => {
                                let mut engine = engine.lock().expect("engine lock");
                                let responses = engine.handle_line(conn, &line);
                                // Take the outboxes before releasing the
                                // engine lock, so replies are queued in
                                // the engine's order and before the accept
                                // loop (which checks `is_shutting_down()`
                                // under the engine lock) can drain, close
                                // the outboxes and exit; queue them after
                                // releasing it, so the woken writer does
                                // not preempt a thread the next request
                                // waits for.
                                let outboxes = outboxes.lock().expect("outboxes lock");
                                drop(engine);
                                route(&outboxes, responses);
                            }
                            Ok(Frame::Oversized(discarded)) => {
                                outbox.push(oversized_line(discarded, max));
                            }
                            // A mid-frame disconnect or non-UTF-8 junk
                            // ends this connection only.
                            Ok(Frame::Eof) | Err(_) => break,
                        }
                    }
                    outboxes.lock().expect("outboxes lock").remove(&conn);
                    outbox.close();
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => {
                // A fatal accept error is a crash the panic hook never
                // sees; write the post-mortem ourselves.
                if let Some(black_box) = &black_box {
                    let _ = black_box.persist(&format!("fatal: accept failed: {e}"), "");
                }
                return Err(e);
            }
        }
    }

    // Graceful drain: answer everything accepted before we stop, then
    // give the writers a bounded time to put it on the wire.
    let responses = engine.lock().expect("engine lock").drain();
    let outboxes = outboxes.lock().expect("outboxes lock");
    route(&outboxes, responses);
    for outbox in outboxes.values() {
        outbox.close();
    }
    drop(outboxes);
    let deadline = std::time::Instant::now() + FLUSH_TIMEOUT;
    while writer_threads.iter().any(|thread| !thread.is_finished())
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Queues each response on its connection's outbox; replies to
/// connections that went away are dropped.
#[cfg(unix)]
fn route(outboxes: &std::collections::HashMap<usize, Arc<Outbox>>, responses: Vec<(usize, String)>) {
    for (conn, response) in responses {
        if let Some(outbox) = outboxes.get(&conn) {
            outbox.push(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdio_drains_deferred_requests_at_eof() {
        let input = concat!(
            r#"{"id":1,"op":"stats","defer":true}"#,
            "\n",
            r#"{"id":2,"op":"stats","defer":true}"#,
            "\n",
        );
        let mut out = Vec::new();
        serve_stdio(input.as_bytes(), &mut out, ServerConfig::default()).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.lines().count(), 2, "EOF answered both deferred requests");
    }

    #[test]
    fn stdio_stops_after_shutdown_reply() {
        let input = concat!(
            r#"{"id":1,"op":"shutdown"}"#,
            "\n",
            r#"{"id":2,"op":"stats"}"#,
            "\n",
        );
        let mut out = Vec::new();
        serve_stdio(input.as_bytes(), &mut out, ServerConfig::default()).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "nothing is read past shutdown");
        let reply: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(reply["id"].as_i64(), Some(1));
        assert_eq!(reply["ok"].as_bool(), Some(true));
    }

    #[test]
    fn oversized_frame_is_rejected_and_the_stream_survives() {
        let huge = "x".repeat(4096);
        let input = format!(
            "{}\n{}\n",
            format_args!(r#"{{"id":1,"op":"stats","project":"{huge}"}}"#),
            r#"{"id":2,"op":"stats"}"#,
        );
        let config = ServerConfig { max_frame_bytes: 256, ..ServerConfig::default() };
        let mut out = Vec::new();
        serve_stdio(input.as_bytes(), &mut out, config).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["error"]["kind"].as_str(), Some("bad-request"));
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["ok"].as_bool(), Some(true), "later requests still served");
        assert_eq!(second["id"].as_i64(), Some(2));
    }

    #[test]
    fn frame_reader_handles_boundaries_and_eof() {
        // Exactly at the cap: accepted. One past: rejected.
        let at_cap = "a".repeat(8);
        let input = format!("{at_cap}\n{}over\nrest\n", "b".repeat(8));
        let mut reader = std::io::BufReader::with_capacity(4, input.as_bytes());
        match read_frame(&mut reader, 8).unwrap() {
            Frame::Line(line) => assert_eq!(line, at_cap),
            _ => panic!("cap-sized line must pass"),
        }
        match read_frame(&mut reader, 8).unwrap() {
            Frame::Oversized(discarded) => assert_eq!(discarded, 12),
            _ => panic!("cap+4 line must be rejected"),
        }
        match read_frame(&mut reader, 8).unwrap() {
            Frame::Line(line) => assert_eq!(line, "rest", "stream stays line-aligned"),
            _ => panic!("line after oversized must pass"),
        }
        assert!(matches!(read_frame(&mut reader, 8).unwrap(), Frame::Eof));
        // A final line without a trailing newline is still a line.
        let mut reader = std::io::BufReader::new(&b"tail"[..]);
        match read_frame(&mut reader, 8).unwrap() {
            Frame::Line(line) => assert_eq!(line, "tail"),
            _ => panic!("unterminated final line must pass"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn outbox_keeps_order_and_holds_the_reader_past_the_cap() {
        use std::time::Duration;
        let (daemon_end, client_end) = std::os::unix::net::UnixStream::pair().unwrap();
        let outbox = Arc::new(Outbox::default());
        let body = "x".repeat(1 << 20);
        let count = MAX_QUEUED_REPLY_BYTES / body.len() + 2;
        for i in 0..count {
            outbox.push(format!("{i}:{body}"));
        }
        let (room, has_room) = std::sync::mpsc::channel();
        let reader = Arc::clone(&outbox);
        std::thread::spawn(move || {
            reader.wait_for_room();
            room.send(()).unwrap();
        });
        assert!(
            has_room.recv_timeout(Duration::from_millis(200)).is_err(),
            "the reader waits while the queue is past the cap"
        );
        let writer = Arc::clone(&outbox);
        let handle = std::thread::spawn(move || writer.write_to(daemon_end));
        let mut client = BufReader::new(client_end);
        for i in 0..count {
            let mut line = String::new();
            client.read_line(&mut line).unwrap();
            assert!(line.starts_with(&format!("{i}:")), "reply {i} arrives in order");
        }
        has_room.recv_timeout(Duration::from_secs(10)).expect("room once the writer drained");
        outbox.push("last".to_owned());
        outbox.close();
        outbox.push("dropped".to_owned());
        handle.join().unwrap();
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut client, &mut rest).unwrap();
        assert_eq!(rest, "last\n", "close flushes what was queued, then takes nothing");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip_and_shutdown() {
        let dir = std::env::temp_dir().join(format!("rid-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rid.sock");
        let server_path = path.clone();
        let handle = std::thread::spawn(move || {
            serve_unix(&server_path, ServerConfig::default()).unwrap();
        });
        // Wait for the socket to appear, then talk to it.
        let mut client = None;
        for _ in 0..200 {
            match crate::client::Client::connect(&path) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let mut client = client.expect("daemon came up");
        let reply = client.roundtrip(r#"{"id":1,"op":"stats"}"#).unwrap();
        let reply: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(reply["ok"].as_bool(), Some(true));
        let bye = client.roundtrip(r#"{"id":2,"op":"shutdown"}"#).unwrap();
        let bye: serde_json::Value = serde_json::from_str(&bye).unwrap();
        assert_eq!(bye["id"].as_i64(), Some(2));
        handle.join().unwrap();
        assert!(!path.exists(), "socket removed on exit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
