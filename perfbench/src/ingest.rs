//! `ingest`: a short-window fleet — 400 users observed for a median hour,
//! about two million reports — streamed into an in-process
//! `TelemetryServer` by `run_fleet_loadgen` over one loopback connection,
//! timed from the first byte to the drained aggregate `shutdown()` returns.
//!
//! Meanwhile a second thread queries `/query/headline`, `/query/topk?k=10`
//! and `/metrics` in turn on a fixed open-loop schedule: a query is sent
//! when it is due whatever the server is doing, and timed from its due
//! time, so a stall also delays every query behind it. The load generator
//! simulates users one at a time with `step_1s`, not through the batch
//! engine, and every report crosses encode, TCP, line read, parse, shard
//! lock and fold, with reads contending for the same shard locks.
//!
//! One operation is one query; its latency runs from its due time to the
//! last byte of its response.

use crate::spans::{self, Span};
use crate::stats::{self, Fnv};
use crate::{phase, Metrics, Pass, Pick, Summary, Unit, Workload};
use mvqoe_experiments::fleet_figs::shard_count;
use mvqoe_metrics::{prometheus, SharedRegistry};
use mvqoe_sim::{derive_seed, SimTime};
use mvqoe_study::{simulate_range, start_user, FleetConfig};
use mvqoe_telemetryd::{run_fleet_loadgen, DeviceReport, IngestAck, ServiceState, TelemetryServer};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fleet size and median observation window.
const USERS: u32 = 400;
const MEDIAN_HOURS: f64 = 1.0;
/// Queries per second, all endpoints together.
const QUERY_RATE: f64 = 150.0;
/// Endpoints queried in turn: request path, span name, metric suffix.
const ENDPOINTS: [(&str, &str, &str); 3] = [
    ("/query/headline", "http.headline", "headline"),
    ("/query/topk?k=10", "http.topk", "topk"),
    ("/metrics", "http.metrics", "metrics"),
];
/// Users whose reports the traced run replays through each layer alone.
const PROBE_USERS: u32 = 40;
/// Direct calls per query kind in the traced run.
const PROBE_QUERIES: u32 = 100;
/// Longest wait for an answer once the load has stopped.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Default)]
struct Layers {
    step_ns: u64,
    steps: u64,
    encode_ns: u64,
    parse_ns: u64,
    apply_ns: u64,
    reports: u64,
    bytes: u64,
    replay_ns: u64,
    finalize_ns: u64,
    headline_ns: u64,
    topk_ns: u64,
    scrape_ns: u64,
    query_ms: [Vec<f64>; 3],
    late_ms_max: f64,
    loadgen_slow_ns: u64,
    loadgen_coarse_ns: u64,
    probe_coarse_ns: u64,
    pass0: Option<Pass0>,
}

/// Exact counts from the first traced pass.
#[derive(Debug, Clone, Copy)]
struct Pass0 {
    reports: u64,
    parse_failures: u64,
    connections: u64,
    recruited: u64,
    kept: u64,
}

pub struct Ingest {
    cfg: FleetConfig,
    shards: u32,
    /// Reports the fleet uploads: `Begin`, one `Sample` per second, `End`.
    expected_reports: u64,
    user_seconds: u64,
    /// The batch engine's aggregate of the same fleet, serialized.
    reference: String,
    late_ms_max: f64,
    query_spans: Vec<Span>,
    layers: Layers,
}

impl Ingest {
    /// Derive the fleet from `seed`, count the reports it will upload and
    /// fold it through the batch engine as the reference aggregate.
    pub fn setup(seed: u64) -> Ingest {
        let cfg = FleetConfig::scaled(
            USERS,
            derive_seed(seed, "perfbench/ingest", 0, 0),
            MEDIAN_HOURS,
            MEDIAN_HOURS * 0.1,
        );
        let user_seconds: u64 = (0..USERS).map(|i| start_user(&cfg, i).seconds()).sum();
        let reference =
            serde_json::to_string(&simulate_range(&cfg, 0..USERS)).expect("aggregate serializes");
        Ingest {
            cfg,
            shards: shard_count(USERS),
            expected_reports: user_seconds + 2 * u64::from(USERS),
            user_seconds,
            reference,
            late_ms_max: 0.0,
            query_spans: Vec::new(),
            layers: Layers::default(),
        }
    }
}

/// What the query thread saw.
#[derive(Debug, Default)]
struct Queries {
    /// `(endpoint, ms from due time to the end of the response)`.
    done: Vec<(usize, f64)>,
    late_ms_max: f64,
    sent: u64,
    problems: Vec<String>,
    spans: Vec<Span>,
}

struct InFlight {
    k: u64,
    due: Instant,
    stream: TcpStream,
    response: Vec<u8>,
}

/// Check one complete response: status 200 and a body that parses as the
/// endpoint's format.
fn check_response(endpoint: usize, raw: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header terminator")?;
    let status = head.lines().next().unwrap_or_default();
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("status line {status:?}"));
    }
    if ENDPOINTS[endpoint].2 == "metrics" {
        prometheus::validate(body).map(|_| ())
    } else {
        serde_json::from_str::<serde::Value>(body)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// The open-loop query client: query `k` is due at `start + k / rate` and
/// is sent then, however many earlier queries are still unanswered. While
/// waiting it reads the oldest open query, waking when the next is due.
fn query_loop(
    addr: SocketAddr,
    start: Instant,
    stop: &AtomicBool,
    origin: Option<Instant>,
) -> Queries {
    if let Some(origin) = origin {
        spans::record_on_this_thread(origin);
    }
    let mut q = Queries::default();
    let mut open: VecDeque<InFlight> = VecDeque::new();
    let mut buf = [0u8; 16 * 1024];
    let mut next = 0u64;
    let mut stopped_at: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if stopped_at.is_none() && stop.load(Ordering::SeqCst) {
            stopped_at = Some(now);
        }
        let due = start + Duration::from_secs_f64(next as f64 / QUERY_RATE);
        if stopped_at.is_none() && due <= now {
            q.late_ms_max = q.late_ms_max.max((now - due).as_secs_f64() * 1e3);
            let endpoint = (next % ENDPOINTS.len() as u64) as usize;
            let request = format!(
                "GET {} HTTP/1.1\r\nHost: bench\r\n\r\n",
                ENDPOINTS[endpoint].0
            );
            let sent = TcpStream::connect(addr)
                .and_then(|mut s| s.write_all(request.as_bytes()).map(|_| s));
            match sent {
                Ok(stream) => open.push_back(InFlight {
                    k: next,
                    due,
                    stream,
                    response: Vec::new(),
                }),
                Err(e) => q.problems.push(format!("query {next}: refused: {e}")),
            }
            q.sent += 1;
            next += 1;
            continue;
        }
        let Some(front) = open.front_mut() else {
            if stopped_at.is_some() {
                break;
            }
            std::thread::sleep(due - now);
            continue;
        };
        let wait = match stopped_at {
            Some(t) => DRAIN_TIMEOUT.saturating_sub(now - t),
            None => due.saturating_duration_since(now),
        };
        if wait.is_zero() && stopped_at.is_some() {
            q.problems.push(format!(
                "query {}: no answer within {DRAIN_TIMEOUT:?}",
                front.k
            ));
            open.pop_front();
            continue;
        }
        let _ = front
            .stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))));
        match front.stream.read(&mut buf) {
            Ok(0) => {
                let end = Instant::now();
                let done = open.pop_front().expect("front exists");
                let endpoint = (done.k % ENDPOINTS.len() as u64) as usize;
                match check_response(endpoint, &done.response) {
                    Ok(()) => {
                        q.done
                            .push((endpoint, (end - done.due).as_secs_f64() * 1e3));
                        spans::push(ENDPOINTS[endpoint].1, done.k, done.due, end);
                    }
                    Err(e) => q.problems.push(format!("query {}: {e}", done.k)),
                }
            }
            Ok(n) => front.response.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => {
                q.problems
                    .push(format!("query {}: read failed: {e}", front.k));
                open.pop_front();
            }
        }
    }
    q.spans = spans::take();
    q
}

fn counter(state: &ServiceState, name: &str) -> u64 {
    state.registry.with(|r| r.counter_value(name)).unwrap_or(0)
}

impl Ingest {
    /// Direct calls into the loaded service state: the query handlers and
    /// the final merge, without HTTP around them.
    fn probe_state(&mut self, state: &ServiceState) {
        let l = &mut self.layers;
        for i in 0..PROBE_QUERIES {
            let g = spans::enter("telemetryd.headline", u64::from(i));
            std::hint::black_box(state.headline());
            l.headline_ns += g.finish();
            let g = spans::enter("telemetryd.topk", u64::from(i));
            std::hint::black_box(state.topk(10));
            l.topk_ns += g.finish();
            let g = spans::enter("metrics.scrape", u64::from(i));
            std::hint::black_box(state.scrape());
            l.scrape_ns += g.finish();
        }
        let g = spans::enter("telemetryd.finalize", 0);
        std::hint::black_box(state.finalize());
        l.finalize_ns = g.finish();
    }

    /// The first `PROBE_USERS` users through each layer of the wire path
    /// alone: simulate, encode, parse, apply, then the same bytes replayed
    /// over one connection to a fresh server. Returns problems found.
    fn probe_layers(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let cfg = self.cfg;
        let l = &mut self.layers;
        let mut wire = String::new();
        let mut batches = Vec::new();
        for i in 0..PROBE_USERS {
            let group = u64::from(i);
            let mut st = start_user(&cfg, i);
            let coarse0 = phase("kernel.coarse_step");
            let g = spans::enter("workload.step_1s", group);
            let samples: Vec<_> = (0..st.seconds())
                .map(|s| st.user.step_1s(SimTime::from_secs(s)))
                .collect();
            l.step_ns += g.finish();
            l.probe_coarse_ns += phase("kernel.coarse_step").1 - coarse0.1;
            l.steps += samples.len() as u64;

            let begin = wire.len();
            let g = spans::enter("json.encode", group);
            let mut line = |r: &DeviceReport| {
                wire.push_str(&serde_json::to_string(r).expect("report serializes"));
                wire.push('\n');
            };
            line(&DeviceReport::Begin {
                device: i,
                name: st.user.device.name.clone(),
                manufacturer: st.user.device.manufacturer.clone(),
                ram_mib: st.user.device.ram_mib,
                pattern: st.user.pattern,
                hours: st.hours,
            });
            for sample in samples {
                line(&DeviceReport::Sample { device: i, sample });
            }
            line(&DeviceReport::End { device: i });
            l.encode_ns += g.finish();
            batches.push(begin..wire.len());
        }
        l.bytes = wire.len() as u64;
        l.reports = wire.lines().count() as u64;

        let state = ServiceState::new(cfg, self.shards, SharedRegistry::new());
        for (i, range) in batches.into_iter().enumerate() {
            let g = spans::enter("json.parse", i as u64);
            let parsed: Result<Vec<DeviceReport>, _> = wire[range]
                .lines()
                .map(serde_json::from_str::<DeviceReport>)
                .collect();
            l.parse_ns += g.finish();
            let Ok(parsed) = parsed else {
                problems.push(format!("probe user {i}: a report does not parse"));
                continue;
            };
            let g = spans::enter("telemetryd.apply", i as u64);
            let applied = parsed
                .iter()
                .map(|r| state.apply(r))
                .filter(|r| r.is_err())
                .count();
            l.apply_ns += g.finish();
            if applied > 0 {
                problems.push(format!("probe user {i}: {applied} reports rejected"));
            }
        }

        match TelemetryServer::start(
            ServiceState::new(cfg, self.shards, SharedRegistry::new()),
            0,
        ) {
            Ok(server) => {
                let g = spans::enter("telemetryd.replay", 0);
                let ack = replay(server.addr(), wire.as_bytes());
                l.replay_ns = g.finish();
                match ack {
                    Ok(ack) if ack.accepted == l.reports && ack.parse_failures == 0 => {}
                    Ok(ack) => problems.push(format!(
                        "replay: {} of {} reports accepted, {} parse failures",
                        ack.accepted, l.reports, ack.parse_failures
                    )),
                    Err(e) => problems.push(format!("replay: {e}")),
                }
                server.shutdown();
            }
            Err(e) => problems.push(format!("replay server: {e}")),
        }
        problems
    }
}

/// Send pre-encoded reports over one ingest connection and read the ack.
fn replay(addr: SocketAddr, wire: &[u8]) -> std::io::Result<IngestAck> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(wire)?;
    stream.shutdown(Shutdown::Write)?;
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line)?;
    serde_json::from_str(line.trim_end())
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
}

impl Workload for Ingest {
    fn pick(&self) -> Pick {
        Pick::Median
    }

    fn pass(&mut self, k: usize, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let state = ServiceState::new(self.cfg, self.shards, SharedRegistry::new());
        let server = match TelemetryServer::start(state, 0) {
            Ok(s) => s,
            Err(e) => {
                pass.attempted = 1;
                pass.fail(format!("pass {k}: server did not start: {e}"));
                return pass;
            }
        };
        let addr = server.addr();
        let stop = AtomicBool::new(false);
        let origin = spans::origin();
        let (ack, upload_s, queries, loadgen_phases) = std::thread::scope(|scope| {
            let start = Instant::now();
            let stop = &stop;
            let client = scope.spawn(move || query_loop(addr, start, stop, origin));
            let slow0 = phase("fleet.slow_step");
            let coarse0 = phase("kernel.coarse_step");
            let g = spans::enter("telemetryd.ingest", k as u64);
            let ack = run_fleet_loadgen(addr, &self.cfg, 0..USERS);
            drop(g);
            let upload_s = start.elapsed().as_secs_f64();
            let phases = (
                phase("fleet.slow_step").1 - slow0.1,
                phase("kernel.coarse_step").1 - coarse0.1,
            );
            stop.store(true, Ordering::SeqCst);
            let queries = client.join().expect("query thread panicked");
            (ack, upload_s, queries, phases)
        });

        let reports = counter(server.state(), "telemetryd.reports_total");
        let parse_failures = counter(server.state(), "telemetryd.parse_failures_total");
        let connections = counter(server.state(), "telemetryd.connections_total");
        if traced && k == 0 {
            self.probe_state(server.state());
        }
        let t = Instant::now();
        let g = spans::enter("telemetryd.shutdown", k as u64);
        let agg = server.shutdown();
        drop(g);
        let host_s = upload_s + t.elapsed().as_secs_f64();

        // The upload: every report accepted, none failing to parse, and the
        // drained aggregate byte-equal to the batch engine's.
        pass.attempted += self.expected_reports + 1;
        match ack {
            Ok(ack) => {
                let missing = self.expected_reports.saturating_sub(ack.accepted);
                let bad = ack.parse_failures.max(parse_failures);
                if missing + bad > 0 {
                    pass.failed += missing + bad;
                    pass.problems.push(format!(
                        "pass {k}: {} of {} reports accepted, {bad} parse failures",
                        ack.accepted, self.expected_reports
                    ));
                }
            }
            Err(e) => {
                pass.failed += self.expected_reports;
                pass.problems.push(format!("pass {k}: upload failed: {e}"));
            }
        }
        let drained = serde_json::to_string(&agg).expect("aggregate serializes");
        if drained != self.reference {
            pass.fail(format!(
                "pass {k}: drained aggregate differs from the batch engine's"
            ));
        }
        let mut fp = Fnv::default();
        fp.bytes(drained.as_bytes());
        fp.u64(reports);
        pass.fingerprint = fp.finish();

        pass.attempted += queries.sent;
        pass.failed += queries.problems.len() as u64;
        pass.problems.extend(queries.problems.iter().cloned());
        pass.units.push(Unit {
            host_s,
            sim_s: self.user_seconds as f64,
            op_ms: queries.done.iter().map(|&(_, ms)| ms).collect(),
        });
        self.late_ms_max = self.late_ms_max.max(queries.late_ms_max);

        if traced {
            let l = &mut self.layers;
            for &(endpoint, ms) in &queries.done {
                l.query_ms[endpoint].push(ms);
            }
            l.late_ms_max = l.late_ms_max.max(queries.late_ms_max);
            l.loadgen_slow_ns += loadgen_phases.0;
            l.loadgen_coarse_ns += loadgen_phases.1;
            self.query_spans.extend(queries.spans);
            if l.pass0.is_none() {
                l.pass0 = Some(Pass0 {
                    reports,
                    parse_failures,
                    connections,
                    recruited: u64::from(agg.recruited),
                    kept: agg.kept,
                });
                for problem in self.probe_layers() {
                    pass.fail(problem);
                }
            }
        }
        pass
    }

    fn per_layer(&self, m: &mut Metrics) {
        let l = &self.layers;
        let reports = l.reports as f64;
        m.set(
            "workload.step_1s_ns",
            stats::ratio(l.step_ns as f64, l.steps as f64),
        );
        m.set("json.encode_ns", stats::ratio(l.encode_ns as f64, reports));
        m.set(
            "json.bytes_per_report",
            stats::ratio(l.bytes as f64, reports),
        );
        m.set(
            "loadgen.client_ns_per_report",
            stats::ratio((l.step_ns + l.encode_ns) as f64, reports),
        );
        m.set("json.parse_ns", stats::ratio(l.parse_ns as f64, reports));
        m.set(
            "telemetryd.apply_ns",
            stats::ratio(l.apply_ns as f64, reports),
        );
        m.set(
            "telemetryd.server_ns_per_report",
            stats::ratio(l.replay_ns as f64, reports),
        );
        m.set("telemetryd.finalize_ms", l.finalize_ns as f64 / 1e6);
        let n = f64::from(PROBE_QUERIES);
        m.set("telemetryd.headline_us", l.headline_ns as f64 / 1e3 / n);
        m.set("telemetryd.topk_us", l.topk_ns as f64 / 1e3 / n);
        m.set("metrics.scrape_us", l.scrape_ns as f64 / 1e3 / n);
        for (i, (_, _, key)) in ENDPOINTS.iter().enumerate() {
            m.set(
                &format!("http.query_ms.{key}"),
                stats::median(&l.query_ms[i]),
            );
        }
        m.set("loadgen.query_late_ms_max", l.late_ms_max);
        if let Some(p) = l.pass0 {
            m.set("telemetryd.reports", p.reports as f64);
            m.set("telemetryd.parse_failures", p.parse_failures as f64);
            m.set("telemetryd.connections", p.connections as f64);
            m.set("study.recruited", p.recruited as f64);
            m.set("study.kept", p.kept as f64);
        }
    }

    fn phase_moves(&self) -> Vec<(&'static str, &'static str, u64)> {
        // The load generator steps users inside the ingest span; a slow user
        // step encloses the kernel's coarse step.
        let l = &self.layers;
        vec![
            (
                "telemetryd",
                "workload",
                l.loadgen_slow_ns.saturating_sub(l.loadgen_coarse_ns),
            ),
            ("telemetryd", "kernel", l.loadgen_coarse_ns),
            ("workload", "kernel", l.probe_coarse_ns),
        ]
    }

    fn side_spans(&mut self) -> Vec<(u32, &'static str, Vec<Span>)> {
        vec![(2, "queries", std::mem::take(&mut self.query_spans))]
    }

    fn headline(&self, run: &Summary) -> Vec<(String, f64, &'static str)> {
        let n = run.ops;
        vec![
            (
                "reports per pass".into(),
                self.expected_reports as f64,
                "count",
            ),
            (
                "ingest_users_per_s".into(),
                stats::ratio(f64::from(USERS), run.host_s),
                "users/s",
            ),
            (
                "ingest_reports_per_s".into(),
                stats::ratio(self.expected_reports as f64, run.host_s),
                "1/s",
            ),
            (format!("query_ms_p50 (n={n})"), run.op_ms(0.5), "ms"),
            (format!("query_ms_p99 (n={n})"), run.op_ms(0.99), "ms"),
            ("loadgen.query_late_ms_max".into(), self.late_ms_max, "ms"),
        ]
    }
}
