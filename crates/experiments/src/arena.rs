//! `exp arena`: the joint network + memory pressure competitive ABR arena.
//!
//! The paper provisions a dedicated LAN so that memory pressure is the
//! *only* cause of QoE collapse (§4); this experiment explores the regime
//! the paper could not — joint pressure, where bandwidth-aware and
//! memory-aware adaptation conflict. Six policies race across a grid of
//! {network regime} × {memory regime} × {device}:
//!
//! * **throughput**, **buffer-based**, **bola**, **mpc** — network-only
//!   adaptation at 60 fps, blind to the device;
//! * **memory-aware** — the paper's §6 controller over a buffer-based
//!   inner policy: device-aware, one-step bandwidth rule;
//! * **hybrid** — memory caps + MPC lookahead on the capped ladder.
//!
//! Every policy in a cell replays the *same* seed (identical device,
//! pressure schedule, and link trace), so row differences within a cell
//! are policy effects, not draw luck. A second stage forks all six
//! policies from one shared prefix at the same snapshot (the PR-5 engine)
//! in the joint-pressure showcase cells, giving exactly-paired deltas.
//!
//! The headline QoE score (higher is better) follows the linear model of
//! Yin et al. (SIGCOMM '15) extended with the paper's device metric:
//!
//! ```text
//! qoe = mean_mbps − 0.5·rebuffer_s − 0.15·drop_pct − 0.2·switches − 12·crashed
//! ```
//!
//! `results/arena.json` carries the per-regime tables, the paired forks,
//! and the regime map: `hybrid_wins` lists every regime where the hybrid
//! strictly beats *both* of its parents (memory-aware and mpc).
//! [`Arena::validate`] re-derives winners, flags and deltas on every write.

use crate::report;
use crate::runner;
use crate::scale::Scale;
use mvqoe_abr::{Abr, Bola, BufferBased, Hybrid, MemoryAware, Mpc, ThroughputBased};
use mvqoe_core::{run_session, PressureMode, Session, SessionConfig, SessionOutcome};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::TrimLevel;
use mvqoe_net::{LinkParams, LinkTrace};
use mvqoe_sim::{derive_seed, SimTime};
use mvqoe_video::Fps;
use serde::{Deserialize, Serialize};

/// Fraction of the video the fork branches share before the fork point.
const FORK_FRAC: f64 = 0.25;

/// The six policies racing in the arena, in table order.
pub const POLICIES: [&str; 6] = [
    "throughput",
    "buffer-based",
    "bola",
    "mpc",
    "memory-aware",
    "hybrid",
];

/// The network regimes (presets from `mvqoe-net`).
pub const NETWORKS: [&str; 4] = ["paper-lan", "lte-walk", "congested-wifi", "train-tunnel"];

pub(crate) fn devices() -> [DeviceProfile; 2] {
    [DeviceProfile::nokia1(), DeviceProfile::nexus5()]
}

pub(crate) fn memories() -> [PressureMode; 2] {
    [
        PressureMode::None,
        PressureMode::Synthetic(TrimLevel::Moderate),
    ]
}

pub(crate) fn make_abr(name: &str) -> Box<dyn Abr> {
    match name {
        "throughput" => Box::new(ThroughputBased::new(Fps::F60)),
        "buffer-based" => Box::new(BufferBased::new(Fps::F60)),
        "bola" => Box::new(Bola::new(Fps::F60)),
        "mpc" => Box::new(Mpc::new(Fps::F60)),
        "memory-aware" => Box::new(MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60)),
        "hybrid" => Box::new(Hybrid::new(Fps::F60)),
        other => panic!("unknown arena policy {other}"),
    }
}

/// Build the link for a network regime. The trace seed is a coordinate
/// derivation (regime cell × rep), so every policy in a cell streams over
/// the *same* trace and `--jobs` cannot reorder the randomness.
fn link_for(network: &str, trace_seed: u64, horizon_secs: f64) -> LinkParams {
    match network {
        "paper-lan" => LinkParams::paper_lan(),
        "lte-walk" => LinkParams::constrained(15.0)
            .with_trace(LinkTrace::lte_walk(trace_seed, horizon_secs)),
        "congested-wifi" => LinkParams::constrained(20.0)
            .with_trace(LinkTrace::congested_wifi(trace_seed, horizon_secs)),
        "train-tunnel" => LinkParams::constrained(25.0)
            .with_trace(LinkTrace::train_tunnel(trace_seed, horizon_secs)),
        other => panic!("unknown arena network {other}"),
    }
}

/// Trace horizon: the synthetic pressure ramp is bounded at ~300 s and the
/// session deadline is 2.5× the video plus slack, so this covers any
/// playback phase start.
fn trace_horizon_secs(video_secs: f64) -> f64 {
    300.0 + video_secs * 2.5 + 60.0
}

/// One session's QoE, the arena's unit record.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ArenaRun {
    /// Total rebuffer time (s).
    pub rebuffer_s: f64,
    /// Frame-drop percentage (100 for an instant crash).
    pub drop_pct: f64,
    /// Representation switches after playback start.
    pub switches: u64,
    /// Whether lmkd killed the client.
    pub crashed: bool,
    /// Time-weighted mean video bitrate (Mbit/s).
    pub mean_mbps: f64,
    /// Headline QoE score (see module docs; higher is better).
    pub qoe: f64,
}

fn score(out: &SessionOutcome) -> ArenaRun {
    let rebuffer_s = out.stats.rebuffer_time.as_secs_f64();
    let drop_pct = out.stats.drop_pct();
    let switches = out.rep_history.len().saturating_sub(1) as u64;
    let crashed = out.stats.crashed();
    // Time-weighted mean bitrate over the representation timeline.
    let end = out.stats.ended_at;
    let mut weighted = 0.0;
    let mut total = 0.0;
    for (i, &(at, rep)) in out.rep_history.iter().enumerate() {
        let until = out
            .rep_history
            .get(i + 1)
            .map(|&(t, _)| t)
            .unwrap_or(end)
            .max(at);
        let dt = (until - at).as_micros() as f64 / 1e6;
        weighted += rep.bitrate_kbps as f64 / 1000.0 * dt;
        total += dt;
    }
    let mean_mbps = if total > 0.0 { weighted / total } else { 0.0 };
    let qoe = mean_mbps - 0.5 * rebuffer_s - 0.15 * drop_pct - 0.2 * switches as f64
        - 12.0 * f64::from(u8::from(crashed));
    ArenaRun {
        rebuffer_s,
        drop_pct,
        switches,
        crashed,
        mean_mbps,
        qoe,
    }
}

/// One policy's aggregate row in a regime cell (means over repetitions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: String,
    /// Mean rebuffer time (s).
    pub rebuffer_s: f64,
    /// Mean frame-drop percentage.
    pub drop_pct: f64,
    /// Mean switch count.
    pub switches: f64,
    /// Percent of repetitions that crashed.
    pub crash_pct: f64,
    /// Mean of the time-weighted mean bitrate (Mbit/s).
    pub mean_mbps: f64,
    /// Mean headline QoE score.
    pub qoe: f64,
}

/// One {device, network, memory} regime: a row per policy plus the winner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegimeCell {
    /// Device under test.
    pub device: String,
    /// Network regime name.
    pub network: String,
    /// Memory regime label (`Normal` / `Moderate`).
    pub memory: String,
    /// One aggregate row per policy, in [`POLICIES`] order.
    pub rows: Vec<PolicyRow>,
    /// Policy with the best mean QoE score.
    pub winner: String,
    /// True when hybrid strictly beats both of its parents (memory-aware
    /// and mpc) on the headline score.
    pub hybrid_beats_parents: bool,
}

/// Paired QoE difference of one fork branch against the baseline branch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForkDelta {
    /// Rebuffer-time difference (s).
    pub rebuffer_s: f64,
    /// Frame-drop percentage difference (points).
    pub drop_pct: f64,
    /// Switch-count difference.
    pub switches: i64,
    /// Crash difference (−1 = avoided the baseline crash).
    pub crashed: i64,
    /// Headline-score difference.
    pub qoe: f64,
}

/// One policy branch forked from the shared prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForkBranch {
    /// Policy continuing from the fork point.
    pub policy: String,
    /// Absolute QoE of the branch.
    pub run: ArenaRun,
    /// Paired difference vs the baseline branch (zeros for the baseline).
    pub delta: ForkDelta,
}

/// One shared-prefix fork: six policy branches from the same snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForkPair {
    /// Device under test.
    pub device: String,
    /// Network regime of the showcase cell.
    pub network: String,
    /// Memory regime label.
    pub memory: String,
    /// Repetition index.
    pub rep: u64,
    /// The shared session seed.
    pub seed: u64,
    /// Absolute sim time of the fork point (s).
    pub fork_at_s: f64,
    /// One outcome per policy, baseline (`throughput`) first.
    pub branches: Vec<ForkBranch>,
}

/// The `exp arena` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Arena {
    /// Devices raced.
    pub devices: Vec<String>,
    /// Policies raced, in table order.
    pub policies: Vec<String>,
    /// Network regimes crossed.
    pub networks: Vec<String>,
    /// Memory regimes crossed.
    pub memories: Vec<String>,
    /// The headline score, spelled out for artifact readers.
    pub qoe_formula: String,
    /// Every regime's per-policy table.
    pub regimes: Vec<RegimeCell>,
    /// Exactly-paired forks in the joint-pressure showcase cells.
    pub pairs: Vec<ForkPair>,
    /// Regimes (`device/network/memory`) where hybrid strictly beats both
    /// memory-aware and mpc on the headline score.
    pub hybrid_wins: Vec<String>,
}

/// Absolute-grid job: one (regime cell, repetition) — six sessions.
struct CellJob {
    cell: u64,
    device: DeviceProfile,
    network: &'static str,
    memory: PressureMode,
    rep: u64,
}

pub(crate) fn session_cfg(scale: &Scale, job_cell: u64, rep: u64, coord: &str, device: DeviceProfile, memory: PressureMode, network: &str) -> SessionConfig {
    let seed = runner::seed_at(scale, coord, job_cell, rep);
    let trace_seed = derive_seed(scale.seed, &format!("{coord}.trace"), job_cell, rep);
    let mut cfg = SessionConfig::paper_default(device, memory, seed);
    cfg.video_secs = scale.video_secs;
    cfg.link = link_for(network, trace_seed, trace_horizon_secs(scale.video_secs));
    cfg
}

fn run_cell_rep(scale: &Scale, job: &CellJob) -> Vec<ArenaRun> {
    let cfg = session_cfg(scale, job.cell, job.rep, "arena", job.device.clone(), job.memory, job.network);
    POLICIES
        .iter()
        .map(|policy| {
            let mut abr = make_abr(policy);
            score(&run_session(&cfg, abr.as_mut()))
        })
        .collect()
}

/// Fork-stage job: one (showcase cell, repetition).
struct ForkJob {
    cell: u64,
    device: DeviceProfile,
    network: &'static str,
    memory: PressureMode,
    rep: u64,
}

fn run_fork(scale: &Scale, job: &ForkJob) -> ForkPair {
    let cfg = session_cfg(scale, job.cell, job.rep, "arena.fork", job.device.clone(), job.memory, job.network);
    let seed = cfg.seed;
    // Shared prefix under the baseline policy, snapshotted once. Every
    // branch restores from this single snapshot: `throughput` (stateless,
    // same name) continues exactly; the others start their policy at the
    // fork point — that swap is the counterfactual under test.
    let mut baseline = make_abr(POLICIES[0]);
    let mut parent = Session::start(cfg);
    let fork_at =
        SimTime::from_secs_f64(parent.now().as_secs_f64() + FORK_FRAC * scale.video_secs);
    parent.run_until(baseline.as_mut(), fork_at);
    let snap = parent.snapshot(baseline.as_ref());
    let fork_at_s = snap.at.as_secs_f64();

    let runs: Vec<ArenaRun> = POLICIES
        .iter()
        .map(|policy| {
            let mut abr = make_abr(policy);
            let mut s = Session::restore(&snap, abr.as_mut()).expect("fresh snapshot restores");
            s.run_until(abr.as_mut(), SimTime::MAX);
            score(&s.finish(None))
        })
        .collect();
    let base = runs[0];
    let branches = POLICIES
        .iter()
        .zip(&runs)
        .map(|(policy, &run)| ForkBranch {
            policy: policy.to_string(),
            run,
            delta: ForkDelta {
                rebuffer_s: run.rebuffer_s - base.rebuffer_s,
                drop_pct: run.drop_pct - base.drop_pct,
                switches: run.switches as i64 - base.switches as i64,
                crashed: i64::from(run.crashed) - i64::from(base.crashed),
                qoe: run.qoe - base.qoe,
            },
        })
        .collect();
    ForkPair {
        device: job.device.name.to_string(),
        network: job.network.to_string(),
        memory: job.memory.label(),
        rep: job.rep,
        seed,
        fork_at_s,
        branches,
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Run the arena at this scale.
pub fn run(scale: &Scale) -> Arena {
    // ---- absolute grid -------------------------------------------------
    let mut cells = Vec::new();
    let mut jobs = Vec::new();
    for device in devices() {
        for network in NETWORKS {
            for memory in memories() {
                let cell = cells.len() as u64;
                cells.push((device.clone(), network, memory));
                for rep in 0..scale.runs {
                    jobs.push(CellJob {
                        cell,
                        device: device.clone(),
                        network,
                        memory,
                        rep,
                    });
                }
            }
        }
    }
    let per_rep: Vec<Vec<ArenaRun>> = runner::map(scale, &jobs, |job| run_cell_rep(scale, job));

    let mut regimes = Vec::new();
    let mut hybrid_wins = Vec::new();
    for (ci, (device, network, memory)) in cells.iter().enumerate() {
        // This cell's runs: one Vec<ArenaRun> (policy-indexed) per rep.
        let reps: Vec<&Vec<ArenaRun>> = jobs
            .iter()
            .zip(&per_rep)
            .filter(|(j, _)| j.cell == ci as u64)
            .map(|(_, r)| r)
            .collect();
        let rows: Vec<PolicyRow> = POLICIES
            .iter()
            .enumerate()
            .map(|(pi, policy)| PolicyRow {
                policy: policy.to_string(),
                rebuffer_s: mean(reps.iter().map(|r| r[pi].rebuffer_s)),
                drop_pct: mean(reps.iter().map(|r| r[pi].drop_pct)),
                switches: mean(reps.iter().map(|r| r[pi].switches as f64)),
                crash_pct: mean(reps.iter().map(|r| f64::from(u8::from(r[pi].crashed)) * 100.0)),
                mean_mbps: mean(reps.iter().map(|r| r[pi].mean_mbps)),
                qoe: mean(reps.iter().map(|r| r[pi].qoe)),
            })
            .collect();
        let winner = rows
            .iter()
            .max_by(|a, b| a.qoe.total_cmp(&b.qoe))
            .expect("six rows")
            .policy
            .clone();
        let qoe_of = |name: &str| rows.iter().find(|r| r.policy == name).expect("row").qoe;
        let hybrid_beats_parents =
            qoe_of("hybrid") > qoe_of("memory-aware") && qoe_of("hybrid") > qoe_of("mpc");
        let label = format!("{}/{}/{}", device.name, network, memory.label());
        if hybrid_beats_parents {
            hybrid_wins.push(label);
        }
        regimes.push(RegimeCell {
            device: device.name.to_string(),
            network: network.to_string(),
            memory: memory.label(),
            rows,
            winner,
            hybrid_beats_parents,
        });
    }

    // ---- paired forks in the joint-pressure showcase cells -------------
    let showcase: Vec<&'static str> = NETWORKS
        .iter()
        .copied()
        .filter(|n| *n != "paper-lan")
        .collect();
    let mut fork_jobs = Vec::new();
    for (cell, network) in showcase.into_iter().enumerate() {
        for rep in 0..scale.runs {
            fork_jobs.push(ForkJob {
                cell: cell as u64,
                device: DeviceProfile::nokia1(),
                network,
                memory: PressureMode::Synthetic(TrimLevel::Moderate),
                rep,
            });
        }
    }
    let pairs = runner::map(scale, &fork_jobs, |job| run_fork(scale, job));

    Arena {
        devices: devices().iter().map(|d| d.name.to_string()).collect(),
        policies: POLICIES.iter().map(|p| p.to_string()).collect(),
        networks: NETWORKS.iter().map(|n| n.to_string()).collect(),
        memories: memories().iter().map(|m| m.label()).collect(),
        qoe_formula:
            "mean_mbps - 0.5*rebuffer_s - 0.15*drop_pct - 0.2*switches - 12*crashed".to_string(),
        regimes,
        pairs,
        hybrid_wins,
    }
}

impl Arena {
    /// The artifact's rules: the declared axes are non-empty and the
    /// regimes fill their grid; every regime and every fork lists the
    /// declared policies in order; each regime's winner has the best QoE
    /// and its `hybrid_beats_parents` flag agrees with the QoE column;
    /// `hybrid_wins` lists exactly the flagged regimes; there is at least
    /// one fork, its baseline delta is zero, and every QoE delta
    /// reproduces from the absolute values. `Err` names the first rule
    /// broken.
    pub fn validate(&self) -> Result<(), String> {
        let axes = [
            ("policies", &self.policies),
            ("devices", &self.devices),
            ("networks", &self.networks),
            ("memories", &self.memories),
        ];
        if let Some((key, _)) = axes.iter().find(|(_, list)| list.is_empty()) {
            return Err(format!("{key} is empty"));
        }
        let grid = self.devices.len() * self.networks.len() * self.memories.len();
        if self.regimes.len() != grid {
            return Err(format!(
                "{} regime(s) but the declared grid has {grid}",
                self.regimes.len()
            ));
        }
        let mut flagged = Vec::new();
        for (i, cell) in self.regimes.iter().enumerate() {
            let policies: Vec<&String> = cell.rows.iter().map(|r| &r.policy).collect();
            if !policies.iter().copied().eq(&self.policies) {
                return Err(format!("regime {i} rows {policies:?} != declared policies"));
            }
            let qoe_of = |name: &str| {
                cell.rows
                    .iter()
                    .find(|r| r.policy == name && !r.qoe.is_nan())
                    .map(|r| r.qoe)
                    .ok_or_else(|| format!("regime {i}: no numeric qoe for {name}"))
            };
            let best = cell
                .rows
                .iter()
                .map(|r| r.qoe)
                .fold(f64::NEG_INFINITY, f64::max);
            if qoe_of(&cell.winner)? < best {
                return Err(format!(
                    "regime {i}: winner {} does not have the best qoe",
                    cell.winner
                ));
            }
            let hybrid = qoe_of("hybrid")?;
            let beats = hybrid > qoe_of("memory-aware")? && hybrid > qoe_of("mpc")?;
            if cell.hybrid_beats_parents != beats {
                return Err(format!(
                    "regime {i}: hybrid_beats_parents flag disagrees with the qoe column"
                ));
            }
            if beats {
                flagged.push(format!("{}/{}/{}", cell.device, cell.network, cell.memory));
            }
        }
        if self.hybrid_wins != flagged {
            return Err(format!(
                "hybrid_wins {:?} != flagged regimes {flagged:?}",
                self.hybrid_wins
            ));
        }
        if self.pairs.is_empty() {
            return Err("pairs is empty".into());
        }
        for (i, pair) in self.pairs.iter().enumerate() {
            let policies: Vec<&String> = pair.branches.iter().map(|b| &b.policy).collect();
            if !policies.iter().copied().eq(&self.policies) {
                return Err(format!(
                    "pair {i} branches {policies:?} != declared policies"
                ));
            }
            let base = &pair.branches[0];
            if base.delta.qoe != 0.0 {
                return Err(format!("pair {i}: baseline delta is not zero"));
            }
            if !pair
                .branches
                .iter()
                .all(|b| report::agrees(b.delta.qoe, b.run.qoe - base.run.qoe))
            {
                return Err(format!(
                    "pair {i}: qoe delta disagrees with its absolute values"
                ));
            }
        }
        Ok(())
    }

    /// Print the regime tables and the regime map.
    pub fn print(&self) {
        report::banner(
            "arena",
            "joint network + memory pressure: six ABR policies per regime",
        );
        let rows: Vec<Vec<String>> = self
            .regimes
            .iter()
            .flat_map(|cell| {
                cell.rows.iter().map(move |r| {
                    vec![
                        cell.device.clone(),
                        cell.network.clone(),
                        cell.memory.clone(),
                        r.policy.clone(),
                        format!("{:.1}", r.rebuffer_s),
                        format!("{:.1}", r.drop_pct),
                        format!("{:.1}", r.switches),
                        format!("{:.0}", r.crash_pct),
                        format!("{:.2}", r.mean_mbps),
                        format!("{:+.2}", r.qoe),
                        if r.policy == cell.winner { "*" } else { "" }.to_string(),
                    ]
                })
            })
            .collect();
        report::print_table(
            &[
                "device", "network", "memory", "policy", "rebuf s", "drop %", "switch",
                "crash %", "Mbit/s", "QoE", "win",
            ],
            &rows,
        );
        if self.hybrid_wins.is_empty() {
            println!("hybrid beats both parents in no regime at this scale");
        } else {
            println!(
                "hybrid beats both parents (memory-aware, mpc) in: {}",
                self.hybrid_wins.join(", ")
            );
        }
        println!(
            "paired forks: {} shared-prefix forks in the joint-pressure showcase cells \
             (Nokia 1, Moderate)",
            self.pairs.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: byte-identical at any worker count and the
    /// artifact passes its own rules (all six policies in every regime,
    /// exact paired deltas).
    #[test]
    fn artifact_is_byte_identical_at_any_jobs_count() {
        let scale = Scale::quick().runs(1).video_secs(24.0);
        let serial = serde_json::to_string(&run(&scale.clone().jobs(1))).unwrap();
        for jobs in [2, 8] {
            let parallel = serde_json::to_string(&run(&scale.clone().jobs(jobs))).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs} must not change the artifact");
        }
        let data = run(&scale);
        data.validate().unwrap();
        assert_eq!(data.regimes.len(), 16); // 2 devices × 4 networks × 2 memories
        assert_eq!(data.pairs.len(), 3); // 3 showcase networks × 1 rep
        for pair in &data.pairs {
            let d0 = &pair.branches[0].delta;
            assert_eq!(
                (d0.rebuffer_s, d0.drop_pct, d0.switches, d0.crashed),
                (0.0, 0.0, 0, 0)
            );
        }
    }
}
