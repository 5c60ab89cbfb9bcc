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

/// Serves the protocol on a Unix domain socket at `path`.
///
/// One reader thread per connection feeds a shared engine; responses
/// are routed back by connection id, so coalesced batches answer every
/// connection that contributed a request. The accept loop polls a
/// SIGTERM/SIGINT latch and the engine's shutdown state; on either it
/// stops accepting, drains the queue, and removes the socket file.
#[cfg(unix)]
pub fn serve_unix(path: &std::path::Path, config: ServerConfig) -> io::Result<()> {
    use std::collections::HashMap;
    use std::os::unix::net::{UnixListener, UnixStream};

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
    let writers: Arc<Mutex<HashMap<usize, UnixStream>>> = Arc::new(Mutex::new(HashMap::new()));
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
                writers
                    .lock()
                    .expect("writers lock")
                    .insert(conn, stream.try_clone()?);
                let engine = Arc::clone(&engine);
                let writers = Arc::clone(&writers);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    loop {
                        match read_frame(&mut reader, max) {
                            Ok(Frame::Line(line)) => {
                                // Write the replies before releasing the
                                // engine lock: the accept loop checks
                                // `is_shutting_down()` under it, so a
                                // `shutdown` reply is on the wire before
                                // the daemon can drain and exit.
                                let mut engine = engine.lock().expect("engine lock");
                                let responses = engine.handle_line(conn, &line);
                                route(&writers, responses);
                            }
                            Ok(Frame::Oversized(discarded)) => {
                                route(&writers, vec![(conn, oversized_line(discarded, max))]);
                            }
                            // A mid-frame disconnect or non-UTF-8 junk
                            // ends this connection only.
                            Ok(Frame::Eof) | Err(_) => break,
                        }
                    }
                    writers.lock().expect("writers lock").remove(&conn);
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

    // Graceful drain: answer everything accepted before we stop.
    let responses = engine.lock().expect("engine lock").drain();
    route(&writers, responses);
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Writes each response to its connection's stream; connections that
/// went away simply miss their reply (the daemon must not die for a
/// disconnected client).
#[cfg(unix)]
fn route(
    writers: &Arc<Mutex<std::collections::HashMap<usize, std::os::unix::net::UnixStream>>>,
    responses: Vec<(usize, String)>,
) {
    let mut writers = writers.lock().expect("writers lock");
    for (conn, response) in responses {
        if let Some(stream) = writers.get_mut(&conn) {
            let _ = writeln!(stream, "{response}");
            let _ = stream.flush();
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
