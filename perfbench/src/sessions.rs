//! `sessions`: a fixed list of complete 120 s sessions run back to back on
//! one thread through `Session::start` / `run_until` / `finish` — the path
//! every §4–§7 experiment takes.
//!
//! * Paper-LAN cells with fixed encodings: Nokia 1, Nexus 5 and Nexus 6P ×
//!   {no pressure, synthetic Moderate, synthetic Critical, organic} × 15
//!   encodings (180 sessions). Kernel, scheduler, storage, video and the
//!   event skip do the work here.
//! * Cellular cells: Nexus 5 on the `lte_walk`, `congested_wifi` and
//!   `train_tunnel` link traces × BOLA, MPC, hybrid and memory-aware ABR ×
//!   {no pressure, synthetic Moderate} × 4 traces, with attribution on
//!   (96 sessions). Only here do the network, ABR and attribution layers
//!   do real work.
//!
//! One operation is one session; its latency is its host time.

use crate::spans;
use crate::stats::{self, Fnv};
use crate::{phase, Metrics, Pass, Summary, Unit, Workload};
use mvqoe_abr::{Abr, AbrContext, Bola, BufferBased, FixedAbr, Hybrid, MemoryAware, Mpc};
use mvqoe_core::{PressureMode, Session, SessionConfig, SessionOutcome};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::TrimLevel;
use mvqoe_net::{LinkParams, LinkTrace};
use mvqoe_sim::{derive_seed, SimDuration, SimTime};
use mvqoe_video::{Fps, Genre, Manifest, Representation, Resolution};
use std::time::Instant;

/// Playback length of every session (the paper's ≈ 2 minutes).
const VIDEO_SECS: f64 = 120.0;
/// Simulated seconds per `run_until` slice in traced passes.
const SLICE: SimDuration = SimDuration::from_secs(1);

#[derive(Debug, Clone, Copy)]
enum Policy {
    Fixed(Representation),
    Bola,
    Mpc,
    Hybrid,
    MemoryAware,
}

/// Per-policy metric suffixes, in [`Policy::index`] order.
const POLICY_KEYS: [&str; 5] = ["fixed", "bola", "mpc", "hybrid", "memory_aware"];

impl Policy {
    fn index(self) -> usize {
        match self {
            Policy::Fixed(_) => 0,
            Policy::Bola => 1,
            Policy::Mpc => 2,
            Policy::Hybrid => 3,
            Policy::MemoryAware => 4,
        }
    }

    fn build(self) -> Box<dyn Abr> {
        match self {
            Policy::Fixed(rep) => Box::new(FixedAbr::new(rep)),
            Policy::Bola => Box::new(Bola::new(Fps::F60)),
            Policy::Mpc => Box::new(Mpc::new(Fps::F60)),
            Policy::Hybrid => Box::new(Hybrid::new(Fps::F60)),
            Policy::MemoryAware => Box::new(MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60)),
        }
    }
}

struct Cell {
    cfg: SessionConfig,
    policy: Policy,
}

/// The session list for `seed`: every session and link-trace seed is
/// derived from it by the cell's position.
fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();

    let manifest = Manifest::full_ladder(Genre::Travel, VIDEO_SECS);
    let pressures = [
        PressureMode::None,
        PressureMode::Synthetic(TrimLevel::Moderate),
        PressureMode::Synthetic(TrimLevel::Critical),
        PressureMode::Organic(8),
    ];
    let resolutions = [
        Resolution::R240p,
        Resolution::R360p,
        Resolution::R480p,
        Resolution::R720p,
        Resolution::R1080p,
    ];
    for device in [
        DeviceProfile::nokia1(),
        DeviceProfile::nexus5(),
        DeviceProfile::nexus6p(),
    ] {
        for pressure in pressures {
            for res in resolutions {
                for fps in [Fps::F30, Fps::F48, Fps::F60] {
                    let idx = out.len() as u64;
                    let cfg = SessionConfig::paper_default(
                        device.clone(),
                        pressure,
                        derive_seed(seed, "perfbench/sessions", idx, 0),
                    );
                    let rep = manifest.representation(res, fps).expect("full ladder");
                    out.push(Cell {
                        cfg,
                        policy: Policy::Fixed(rep),
                    });
                }
            }
        }
    }

    // Trace horizon: the pressure ramp (≤ ~300 s) plus the session
    // deadline (2.5× the video plus slack), as the arena sizes it.
    let horizon = 300.0 + VIDEO_SECS * 2.5 + 60.0;
    for network in ["lte_walk", "congested_wifi", "train_tunnel"] {
        for policy in [
            Policy::Bola,
            Policy::Mpc,
            Policy::Hybrid,
            Policy::MemoryAware,
        ] {
            for pressure in [
                PressureMode::None,
                PressureMode::Synthetic(TrimLevel::Moderate),
            ] {
                for rep in 0..4u64 {
                    let idx = out.len() as u64;
                    let trace_seed = derive_seed(seed, "perfbench/sessions.trace", idx, rep);
                    let mut cfg = SessionConfig::paper_default(
                        DeviceProfile::nexus5(),
                        pressure,
                        derive_seed(seed, "perfbench/sessions", idx, 0),
                    );
                    cfg.link = match network {
                        "lte_walk" => LinkParams::constrained(15.0)
                            .with_trace(LinkTrace::lte_walk(trace_seed, horizon)),
                        "congested_wifi" => LinkParams::constrained(20.0)
                            .with_trace(LinkTrace::congested_wifi(trace_seed, horizon)),
                        _ => LinkParams::constrained(25.0)
                            .with_trace(LinkTrace::train_tunnel(trace_seed, horizon)),
                    };
                    cfg.attribution = true;
                    out.push(Cell { cfg, policy });
                }
            }
        }
    }
    out
}

/// The simulated statistics of one session that the fingerprint and the
/// exact work counts cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Digest {
    frames_rendered: u64,
    frames_dropped: u64,
    rebuffer_us: u64,
    crashed_at_us: u64,
    segments: u64,
    ended_at_us: u64,
    pgscan: u64,
    pgsteal: u64,
    direct_reclaims: u64,
    faults_major: u64,
    faults_zram: u64,
    kills: u64,
    ctx_switches: u64,
    preemptions: u64,
    disk_reads: u64,
    disk_busy_us: u64,
    attr_records: u64,
}

impl Digest {
    fn of(out: &SessionOutcome) -> Digest {
        let vm = out.machine.mm.vmstat();
        let disk = out.machine.disk.stats();
        Digest {
            frames_rendered: out.stats.frames_rendered,
            frames_dropped: out.stats.frames_dropped,
            rebuffer_us: out.stats.rebuffer_time.as_micros(),
            crashed_at_us: out.stats.crashed_at.map_or(u64::MAX, |t| t.as_micros()),
            segments: out.stats.segments_downloaded,
            ended_at_us: out.stats.ended_at.as_micros(),
            pgscan: vm.scanned(),
            pgsteal: vm.stolen(),
            direct_reclaims: vm.direct_reclaims,
            faults_major: vm.pgfault_major,
            faults_zram: vm.pgfault_zram,
            kills: vm.lmkd_kills + vm.oom_kills,
            ctx_switches: out.machine.sched.ctx_switches(),
            preemptions: out.machine.trace.preemptions().len() as u64,
            disk_reads: disk.reads,
            disk_busy_us: disk.busy.as_micros(),
            attr_records: out
                .attribution
                .as_ref()
                .map_or(0, |a| a.records.len() as u64 + a.records_dropped),
        }
    }

    fn fields(&self) -> [u64; 17] {
        [
            self.frames_rendered,
            self.frames_dropped,
            self.rebuffer_us,
            self.crashed_at_us,
            self.segments,
            self.ended_at_us,
            self.pgscan,
            self.pgsteal,
            self.direct_reclaims,
            self.faults_major,
            self.faults_zram,
            self.kills,
            self.ctx_switches,
            self.preemptions,
            self.disk_reads,
            self.disk_busy_us,
            self.attr_records,
        ]
    }

    fn add(&mut self, o: &Digest) {
        self.frames_rendered += o.frames_rendered;
        self.frames_dropped += o.frames_dropped;
        self.rebuffer_us += o.rebuffer_us;
        self.segments += o.segments;
        self.pgscan += o.pgscan;
        self.pgsteal += o.pgsteal;
        self.direct_reclaims += o.direct_reclaims;
        self.faults_major += o.faults_major;
        self.faults_zram += o.faults_zram;
        self.kills += o.kills;
        self.ctx_switches += o.ctx_switches;
        self.preemptions += o.preemptions;
        self.disk_reads += o.disk_reads;
        self.disk_busy_us += o.disk_busy_us;
        self.attr_records += o.attr_records;
    }
}

/// A forwarding policy that times every decision of the policy it wraps.
struct TimedAbr {
    inner: Box<dyn Abr>,
    group: u64,
    ns: u64,
    calls: u64,
}

impl Abr for TimedAbr {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        let span = spans::enter("abr.choose", self.group);
        let rep = self.inner.choose(ctx);
        self.ns += span.finish();
        self.calls += 1;
        rep
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn state_value(&self) -> serde::Value {
        self.inner.state_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::de::Error> {
        self.inner.restore_state(state)
    }
}

fn trim_index(level: TrimLevel) -> usize {
    match level {
        TrimLevel::Normal => 0,
        TrimLevel::Moderate => 1,
        TrimLevel::Low => 2,
        TrimLevel::Critical => 3,
    }
}

const TRIM_KEYS: [&str; 4] = ["normal", "moderate", "low", "critical"];

/// Per-layer sums over the traced passes.
#[derive(Debug, Default)]
struct Layers {
    passes: u64,
    sessions: u64,
    start_ns: u64,
    finish_ns: u64,
    run_ns: [u64; 4],
    run_sim_s: [f64; 4],
    choose_ns: [u64; 5],
    choose_calls: [u64; 5],
    decisions_pass0: u64,
    reclaim: (u64, u64),
    select_slow: (u64, u64),
    reclaim_calls_pass0: u64,
    select_slow_calls_pass0: u64,
    counts_pass0: Digest,
}

pub struct Sessions {
    cells: Vec<Cell>,
    /// Outcomes of the first and last cell, computed at set-up: every pass
    /// must reproduce them exactly.
    reference: [Digest; 2],
    layers: Layers,
}

/// One session's result: its outcome, host time and simulated playback.
struct Ran {
    out: SessionOutcome,
    host_ns: u64,
    playback_s: f64,
}

impl Sessions {
    pub fn setup(seed: u64) -> Sessions {
        let cells = cells(seed);
        let first = Digest::of(&run_plain(&cells[0]).out);
        let last = Digest::of(&run_plain(&cells[cells.len() - 1]).out);
        Sessions {
            cells,
            reference: [first, last],
            layers: Layers::default(),
        }
    }

    /// Run one cell in 1 s simulated slices with spans and per-layer
    /// timing; the outcome is identical to [`run_plain`]'s.
    fn run_traced(&mut self, idx: usize, group: u64) -> Ran {
        let cell = &self.cells[idx];
        let l = &mut self.layers;
        let session_span = spans::enter("core.session", group);
        let t = Instant::now();
        let mut abr = TimedAbr {
            inner: cell.policy.build(),
            group,
            ns: 0,
            calls: 0,
        };
        let span = spans::enter("core.start", group);
        let mut s = Session::start(cell.cfg.clone());
        l.start_ns += span.finish();
        let t0 = s.now();
        loop {
            let level = trim_index(s.machine().mm.trim_level());
            let before = s.now();
            let span = spans::enter("core.run_until", group);
            let ended = s.run_until(&mut abr, before + SLICE);
            l.run_ns[level] += span.finish();
            l.run_sim_s[level] += s.now().saturating_since(before).as_secs_f64();
            if ended {
                break;
            }
        }
        let span = spans::enter("core.finish", group);
        let out = s.finish(None);
        l.finish_ns += span.finish();
        let host_ns = t.elapsed().as_nanos() as u64;
        drop(session_span);
        let p = cell.policy.index();
        l.choose_ns[p] += abr.ns;
        l.choose_calls[p] += abr.calls;
        if l.passes == 0 {
            l.decisions_pass0 += abr.calls;
        }
        l.sessions += 1;
        let playback_s = out.stats.ended_at.saturating_since(t0).as_secs_f64();
        Ran {
            out,
            host_ns,
            playback_s,
        }
    }
}

/// Run one cell straight through, as `run_session` does.
fn run_plain(cell: &Cell) -> Ran {
    let t = Instant::now();
    let mut abr = cell.policy.build();
    let mut s = Session::start(cell.cfg.clone());
    let t0 = s.now();
    s.run_until(abr.as_mut(), SimTime::MAX);
    let out = s.finish(None);
    let host_ns = t.elapsed().as_nanos() as u64;
    let playback_s = out.stats.ended_at.saturating_since(t0).as_secs_f64();
    Ran {
        out,
        host_ns,
        playback_s,
    }
}

impl Workload for Sessions {
    fn pass(&mut self, k: usize, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let mut fp = Fnv::default();
        let mut counts = Digest::default();
        let reclaim0 = phase("kernel.reclaim");
        let select0 = phase("sched.select_slow");
        let last = self.cells.len() - 1;
        for idx in 0..self.cells.len() {
            let group = (k * self.cells.len() + idx) as u64;
            let ran = if traced {
                self.run_traced(idx, group)
            } else {
                run_plain(&self.cells[idx])
            };
            pass.units.push(Unit {
                host_s: ran.host_ns as f64 / 1e9,
                sim_s: ran.playback_s,
                op_ms: vec![ran.host_ns as f64 / 1e6],
            });
            pass.attempted += 1;

            let digest = Digest::of(&ran.out);
            for v in digest.fields() {
                fp.u64(v);
            }
            counts.add(&digest);
            if let Some(a) = &ran.out.attribution {
                let stats = &ran.out.stats;
                if a.total_rebuffer_us() != stats.rebuffer_time.as_micros()
                    || a.total_drops() != stats.frames_dropped
                {
                    pass.fail(format!(
                        "pass {k} session {idx}: attribution sums ({} us, {} drops) differ from the session's ({} us, {} drops)",
                        a.total_rebuffer_us(),
                        a.total_drops(),
                        stats.rebuffer_time.as_micros(),
                        stats.frames_dropped
                    ));
                    continue;
                }
            }
            let reference = match idx {
                0 => Some(&self.reference[0]),
                i if i == last => Some(&self.reference[1]),
                _ => None,
            };
            if reference.is_some_and(|r| *r != digest) {
                pass.fail(format!(
                    "pass {k} session {idx}: outcome differs from its set-up run"
                ));
            }
        }
        pass.fingerprint = fp.finish();

        if traced {
            let l = &mut self.layers;
            let reclaim1 = phase("kernel.reclaim");
            let select1 = phase("sched.select_slow");
            l.reclaim.0 += reclaim1.0 - reclaim0.0;
            l.reclaim.1 += reclaim1.1 - reclaim0.1;
            l.select_slow.0 += select1.0 - select0.0;
            l.select_slow.1 += select1.1 - select0.1;
            if l.passes == 0 {
                l.reclaim_calls_pass0 = reclaim1.0 - reclaim0.0;
                l.select_slow_calls_pass0 = select1.0 - select0.0;
                l.counts_pass0 = counts;
            }
            l.passes += 1;
        }
        pass
    }

    fn per_layer(&self, m: &mut Metrics) {
        let l = &self.layers;
        let n = l.sessions as f64;
        m.set(
            "core.session_start_us",
            stats::ratio(l.start_ns as f64 / 1e3, n),
        );
        m.set(
            "core.session_finish_us",
            stats::ratio(l.finish_ns as f64 / 1e3, n),
        );
        for (i, key) in TRIM_KEYS.iter().enumerate() {
            m.set(
                &format!("core.run_ns_per_sim_s.{key}"),
                stats::ratio(l.run_ns[i] as f64, l.run_sim_s[i]),
            );
        }
        for (i, key) in POLICY_KEYS.iter().enumerate() {
            m.set(
                &format!("abr.choose_ns.{key}"),
                stats::ratio(l.choose_ns[i] as f64, l.choose_calls[i] as f64),
            );
        }
        m.set("abr.decisions", l.decisions_pass0 as f64);
        m.set(
            "kernel.reclaim_ns",
            stats::ratio(l.reclaim.1 as f64, l.reclaim.0 as f64),
        );
        m.set("kernel.reclaim_calls", l.reclaim_calls_pass0 as f64);
        m.set(
            "sched.select_slow_ns",
            stats::ratio(l.select_slow.1 as f64, l.select_slow.0 as f64),
        );
        m.set("sched.select_slow_calls", l.select_slow_calls_pass0 as f64);

        let c = &l.counts_pass0;
        m.set("kernel.pgscan", c.pgscan as f64);
        m.set("kernel.pgsteal", c.pgsteal as f64);
        m.set(
            "kernel.reclaim_efficiency",
            stats::ratio(c.pgsteal as f64, c.pgscan as f64),
        );
        m.set("kernel.direct_reclaims", c.direct_reclaims as f64);
        m.set("kernel.faults_major", c.faults_major as f64);
        m.set("kernel.faults_zram", c.faults_zram as f64);
        m.set("kernel.kills", c.kills as f64);
        m.set("sched.ctx_switches", c.ctx_switches as f64);
        m.set("sched.preemptions", c.preemptions as f64);
        m.set("storage.reads", c.disk_reads as f64);
        m.set("storage.busy_ms", c.disk_busy_us as f64 / 1e3);
        m.set("video.frames_rendered", c.frames_rendered as f64);
        m.set("video.frames_dropped", c.frames_dropped as f64);
        m.set("net.segments", c.segments as f64);
        m.set("core.attr_records", c.attr_records as f64);
    }

    fn phase_moves(&self) -> Vec<(&'static str, &'static str, u64)> {
        vec![
            ("core", "kernel", self.layers.reclaim.1),
            ("core", "sched", self.layers.select_slow.1),
        ]
    }

    fn headline(&self, run: &Summary) -> Vec<(String, f64, &'static str)> {
        let n = run.ops;
        vec![
            ("sessions per pass".into(), n as f64, "count"),
            (
                "sim_s_per_s".into(),
                stats::ratio(run.sim_s, run.host_s),
                "sim_s/s",
            ),
            (format!("session_ms_p50 (n={n})"), run.op_ms(0.5), "ms"),
            (format!("session_ms_p95 (n={n})"), run.op_ms(0.95), "ms"),
        ]
    }
}
