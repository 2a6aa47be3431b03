//! The threaded TCP front end: one acceptor thread, one worker thread per
//! connection. A connection's first byte picks its protocol — `{` opens a
//! newline-delimited JSON ingest stream (device reports in, one
//! [`IngestAck`] line back at EOF), anything else is parsed as an HTTP
//! request and routed to `/metrics` or the `/query/*` endpoints.
//!
//! The load is a handful of long-lived ingest streams plus occasional
//! scrapes, so thread-per-connection with `std::net` is the right size —
//! no async runtime exists in the offline build environment anyway.

use crate::http::{read_request, respond, Request, APPLICATION_JSON, PROMETHEUS_TEXT};
use crate::report::{DeviceReport, IngestAck};
use crate::state::ServiceState;
use mvqoe_study::FleetAggregate;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Flush batched per-connection ingest tallies into the registry every
/// this many lines (and at EOF), so the per-sample path stays off the
/// registry lock.
const INGEST_FLUSH_EVERY: u64 = 1024;

/// Yield the CPU every this many ingest lines. An upload is a CPU-bound
/// loop that keeps a core busy for its whole length; yielding every ~50 µs
/// lets query handlers waiting on that core run now rather than at the end
/// of the scheduler's slice, for a syscall per 64 reports.
const INGEST_YIELD_EVERY: u64 = 64;

/// Read buffer of an ingest stream: the same 64 KiB the load generator
/// writes through, so each read syscall carries hundreds of reports.
const INGEST_BUF: usize = 64 * 1024;

/// Longest ingest line accepted, newline excluded. Reports are ~170 bytes;
/// a longer line counts as one parse failure and is skipped through its
/// newline, so no peer can grow the line buffer without bound.
const MAX_LINE: usize = 1 << 20;

/// A running telemetry service.
pub struct TelemetryServer {
    state: Arc<ServiceState>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `127.0.0.1:port` (0 picks an ephemeral port) and start
    /// accepting connections.
    pub fn start(state: ServiceState, port: u16) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, state, stop))
        };
        Ok(TelemetryServer {
            state,
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process inspection.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Stop accepting, join every in-flight connection, and merge the
    /// shards into the final fleet aggregate.
    pub fn shutdown(mut self) -> FleetAggregate {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.state.finalize()
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServiceState>, stop: Arc<AtomicBool>) {
    let workers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(&state);
        workers
            .lock()
            .unwrap()
            .push(std::thread::spawn(move || handle_connection(stream, state)));
    }
    for h in workers.into_inner().unwrap() {
        let _ = h.join();
    }
}

fn handle_connection(stream: TcpStream, state: Arc<ServiceState>) {
    state.add_connection();
    let mut first = [0u8; 1];
    let Ok(n) = stream.peek(&mut first) else { return };
    let result = if n == 1 && first[0] == b'{' {
        handle_ingest(stream, &state)
    } else {
        handle_http(stream, &state)
    };
    // Peer hangups mid-stream are normal (a killed load generator); there
    // is no one to report the error to, so drop it.
    let _ = result;
}

/// What [`read_line_capped`] found.
#[derive(Debug, PartialEq)]
enum Line {
    /// The stream ended.
    Eof,
    /// A line of at most [`MAX_LINE`] bytes, newline kept if present.
    Complete,
    /// A longer line, already discarded through its newline.
    Oversize,
}

/// Read one line into `line` (cleared first), holding at most
/// `MAX_LINE + 1` bytes of it in memory.
fn read_line_capped(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<Line> {
    line.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', line)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if n <= MAX_LINE || line.last() == Some(&b'\n') {
        return Ok(Line::Complete);
    }
    line.clear();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                break;
            }
            None => {
                let n = chunk.len();
                reader.consume(n);
            }
        }
    }
    Ok(Line::Oversize)
}

/// Drain one NDJSON ingest stream, apply every report, and answer with a
/// one-line [`IngestAck`] once the peer half-closes its write side. An
/// oversize, non-UTF-8 or unparsable line counts as one parse failure and
/// the stream goes on.
fn handle_ingest(stream: TcpStream, state: &ServiceState) -> std::io::Result<()> {
    let mut reader = BufReader::with_capacity(INGEST_BUF, stream.try_clone()?);
    let mut ack = IngestAck::default();
    let mut pending_ok = 0u64;
    let mut pending_bad = 0u64;
    let mut line = Vec::new();
    loop {
        let report = match read_line_capped(&mut reader, &mut line)? {
            Line::Eof => break,
            Line::Oversize => Err(format!("line longer than {MAX_LINE} bytes")),
            Line::Complete => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => {
                    serde_json::from_str::<DeviceReport>(text.trim_end()).map_err(|e| e.to_string())
                }
                Err(e) => Err(e.to_string()),
            },
        };
        match report.and_then(|report| state.apply(&report)) {
            Ok(folded) => {
                ack.accepted += 1;
                ack.folded += folded as u64;
                pending_ok += 1;
            }
            Err(_) => {
                ack.parse_failures += 1;
                pending_bad += 1;
            }
        }
        let pending = pending_ok + pending_bad;
        if pending % INGEST_YIELD_EVERY == 0 {
            std::thread::yield_now();
        }
        if pending >= INGEST_FLUSH_EVERY {
            state.add_ingest(pending_ok, pending_bad);
            pending_ok = 0;
            pending_bad = 0;
        }
    }
    state.add_ingest(pending_ok, pending_bad);
    let mut body = serde_json::to_string(&ack)?;
    body.push('\n');
    let mut writer = stream;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Answer one HTTP request and close.
fn handle_http(stream: TcpStream, state: &ServiceState) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let Some(req) = read_request(&mut reader)? else {
        return Ok(());
    };
    let mut writer = BufWriter::new(stream);
    let started = std::time::Instant::now();
    let endpoint = route(&mut writer, &req, state)?;
    let elapsed_us = started.elapsed().as_micros() as f64;
    state.registry.with(|r| {
        r.add_counter(&format!("telemetryd.http.{endpoint}.requests_total"), 1);
        let h = r.histogram(&format!("telemetryd.http.{endpoint}.latency_us"));
        r.observe(h, elapsed_us);
    });
    Ok(())
}

/// Dispatch one request; returns the endpoint label the latency metrics
/// are filed under.
fn route(writer: &mut impl Write, req: &Request, state: &ServiceState) -> std::io::Result<&'static str> {
    if req.method != "GET" {
        respond(
            writer,
            405,
            "Method Not Allowed",
            APPLICATION_JSON,
            "{\"error\":\"only GET is supported\"}",
        )?;
        return Ok("other");
    }
    match req.route() {
        "/metrics" => {
            let body = state.scrape();
            respond(writer, 200, "OK", PROMETHEUS_TEXT, &body)?;
            Ok("metrics")
        }
        "/query/headline" => {
            let body = json_body(&state.headline())?;
            respond(writer, 200, "OK", APPLICATION_JSON, &body)?;
            Ok("headline")
        }
        "/query/attribution" => {
            let body = json_body(&state.attribution())?;
            respond(writer, 200, "OK", APPLICATION_JSON, &body)?;
            Ok("attribution")
        }
        "/query/topk" => {
            let k = req
                .query("k")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(5);
            let body = json_body(&state.topk(k))?;
            respond(writer, 200, "OK", APPLICATION_JSON, &body)?;
            Ok("topk")
        }
        path => {
            if let Some(id) = path.strip_prefix("/query/device/") {
                match id.parse::<u32>() {
                    Ok(device) => {
                        let body = json_body(&state.device(device))?;
                        respond(writer, 200, "OK", APPLICATION_JSON, &body)?;
                        return Ok("device");
                    }
                    Err(_) => {
                        respond(
                            writer,
                            400,
                            "Bad Request",
                            APPLICATION_JSON,
                            "{\"error\":\"device id must be a u32\"}",
                        )?;
                        return Ok("other");
                    }
                }
            }
            respond(
                writer,
                404,
                "Not Found",
                APPLICATION_JSON,
                "{\"error\":\"no such endpoint\"}",
            )?;
            Ok("other")
        }
    }
}

fn json_body<T: serde::Serialize>(value: &T) -> std::io::Result<String> {
    Ok(serde_json::to_string(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn lines(input: Vec<u8>) -> Vec<(Line, usize, usize)> {
        let mut reader = Cursor::new(input);
        let mut line = Vec::new();
        let mut out = Vec::new();
        loop {
            let kind = read_line_capped(&mut reader, &mut line).unwrap();
            if kind == Line::Eof {
                return out;
            }
            out.push((kind, line.len(), line.capacity()));
        }
    }

    #[test]
    fn an_oversize_line_is_skipped_in_bounded_memory() {
        let mut input = vec![b'x'; 8 << 20];
        input.extend_from_slice(b"\nok\n");
        let got = lines(input);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, Line::Oversize);
        let capacity = got[0].2;
        assert!(capacity <= 2 * (MAX_LINE + 1), "buffer grew to {capacity} bytes");
        assert_eq!((&got[1].0, got[1].1), (&Line::Complete, 3));
    }

    #[test]
    fn the_cap_counts_bytes_before_the_newline() {
        let mut at_cap = vec![b'x'; MAX_LINE];
        at_cap.push(b'\n');
        let mut over = vec![b'y'; MAX_LINE + 1];
        over.push(b'\n');
        let input = [at_cap, over, b"tail".to_vec()].concat();
        let got: Vec<(Line, usize)> = lines(input).into_iter().map(|(k, n, _)| (k, n)).collect();
        assert_eq!(
            got,
            vec![
                (Line::Complete, MAX_LINE + 1),
                (Line::Oversize, 0),
                (Line::Complete, 4),
            ]
        );
    }
}
