//! `exp counterfactual`: exact paired counterfactuals via snapshot/fork.
//!
//! One §5-style session (Nokia 1, Moderate synthetic pressure, 720p30 —
//! a cell Table 2 shows crashing) runs a shared prefix, is snapshotted at
//! fork time *t*, and then continues down four policy branches restored
//! from the *same* snapshot:
//!
//! 0. **baseline** — the untouched continuation (exact replay of the
//!    uninterrupted session; every delta is measured against it).
//! 1. **memory-aware-abr** — the §6 memory-aware wrapper replaces the
//!    fixed policy at the fork point.
//! 2. **lmkd-earlier-kill** — lmkd's `kill_cached` threshold drops from
//!    60 to 45, evicting cached apps before the client is cornered.
//! 3. **extra-bg-app** — one more cached app lands on the device, sized
//!    by a coordinate-derived RNG so `--jobs N` stays byte-identical.
//!
//! Because every branch shares the prefix byte-for-byte, the per-branch
//! QoE deltas (rebuffer time, frame drops, representation switches,
//! crash) are *paired* differences: the knob is the only thing that
//! changed, so no seed-to-seed variance pollutes the comparison.
//! [`Counterfactual::validate`] checks that pairing on every write.

use crate::report;
use crate::runner;
use crate::scale::Scale;
use mvqoe_abr::{FixedAbr, MemoryAware};
use mvqoe_core::{PressureMode, Session, SessionConfig, SessionOutcome, Snapshot};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::{Pages, ProcKind, TrimLevel};
use mvqoe_sim::{derive_seed, SimRng, SimTime};
use mvqoe_video::{Fps, Manifest, Representation, Resolution};
use serde::{Deserialize, Serialize};

/// Fraction of the video the branches share before the fork point.
const FORK_FRAC: f64 = 0.25;

/// The `kill_cached` threshold the lmkd branch switches to (paper: 60).
const EARLIER_KILL_CACHED: f64 = 45.0;

/// The policy knob one branch turns at the fork point.
enum Knob {
    /// No change: the exact continuation of the parent session.
    Baseline,
    /// Swap the fixed policy for the §6 memory-aware wrapper.
    MemoryAwareAbr,
    /// Lower lmkd's `kill_cached` threshold (60 → 45).
    LmkdEarlierKill,
    /// Open one extra cached app on the device at the fork point.
    ExtraBgApp,
}

impl Knob {
    fn label(&self) -> &'static str {
        match self {
            Knob::Baseline => "baseline",
            Knob::MemoryAwareAbr => "memory-aware-abr",
            Knob::LmkdEarlierKill => "lmkd-earlier-kill",
            Knob::ExtraBgApp => "extra-bg-app",
        }
    }
}

const BRANCHES: [Knob; 4] = [
    Knob::Baseline,
    Knob::MemoryAwareAbr,
    Knob::LmkdEarlierKill,
    Knob::ExtraBgApp,
];

/// Paired QoE difference of one branch against the baseline branch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QoeDelta {
    /// Rebuffer-time difference (s).
    pub rebuffer_s: f64,
    /// Frame-drop percentage difference (points).
    pub drop_pct: f64,
    /// Representation-switch count difference.
    pub switches: i64,
    /// Crash difference (−1 = branch avoided the baseline crash,
    /// +1 = branch crashed where the baseline survived).
    pub crashed: i64,
}

/// One branch's absolute QoE plus its paired delta vs the baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BranchOutcome {
    /// Branch label (`baseline`, `memory-aware-abr`, ...).
    pub branch: String,
    /// Total rebuffer time (s).
    pub rebuffer_s: f64,
    /// Frame drop percentage.
    pub drop_pct: f64,
    /// Representation switches after playback start.
    pub switches: u64,
    /// Whether lmkd killed the client.
    pub crashed: bool,
    /// Paired difference vs the baseline branch (zeros for the baseline).
    pub delta: QoeDelta,
}

/// One fork point: the shared prefix plus every branch's paired outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pair {
    /// Repetition index (the cell's rep coordinate).
    pub rep: u64,
    /// The shared session seed.
    pub seed: u64,
    /// Absolute sim time of the fork point (s).
    pub fork_at_s: f64,
    /// One outcome per policy branch, baseline first.
    pub branches: Vec<BranchOutcome>,
}

/// The `exp counterfactual` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Counterfactual {
    /// Device under test.
    pub device: String,
    /// Fraction of the video shared before the fork.
    pub fork_frac: f64,
    /// One paired fork per repetition.
    pub pairs: Vec<Pair>,
}

fn qoe(out: &SessionOutcome) -> (f64, f64, u64, bool) {
    (
        out.stats.rebuffer_time.as_secs_f64(),
        out.stats.drop_pct(),
        out.rep_history.len().saturating_sub(1) as u64,
        out.stats.crashed(),
    )
}

/// Restore one branch from the shared snapshot, turn its knob, and run it
/// to completion. The branch index and rep are RNG *coordinates*: every
/// random draw a knob needs derives from them, never from worker order.
fn run_branch(snap: &Snapshot, knob: &Knob, branch: u64, rep: u64, fixed: Representation) -> SessionOutcome {
    match knob {
        Knob::MemoryAwareAbr => {
            // A different `Abr::name` starts fresh at the fork point —
            // that policy swap is exactly the counterfactual under test.
            let mut abr = MemoryAware::new(FixedAbr::new(fixed), fixed.fps);
            let mut s = Session::restore(snap, &mut abr).expect("fresh snapshot restores");
            s.run_until(&mut abr, SimTime::MAX);
            s.finish(None)
        }
        _ => {
            let mut abr = FixedAbr::new(fixed);
            let mut s = Session::restore(snap, &mut abr).expect("fresh snapshot restores");
            match knob {
                Knob::LmkdEarlierKill => {
                    let mut lmkd = s.machine().mm.config().lmkd;
                    lmkd.kill_cached = EARLIER_KILL_CACHED;
                    s.machine_mut().mm.set_lmkd_thresholds(lmkd);
                }
                Knob::ExtraBgApp => {
                    let mut rng = SimRng::new(derive_seed(
                        snap.cfg.seed,
                        "counterfactual.bgapp",
                        branch,
                        rep,
                    ));
                    let anon = rng.uniform_u64(20_000, 45_000);
                    s.machine_mut().add_process(
                        "cf.bgapp",
                        ProcKind::Cached,
                        Pages(anon),
                        Pages(anon / 4),
                        Pages(anon / 2),
                        0.3,
                    );
                }
                _ => {}
            }
            s.run_until(&mut abr, SimTime::MAX);
            s.finish(None)
        }
    }
}

/// Run the experiment: one shared-prefix fork per repetition, four policy
/// branches each. Repetitions are independent jobs under [`runner::map`],
/// so the artifact is byte-identical at any `--jobs` count.
pub fn run(scale: &Scale) -> Counterfactual {
    let reps: Vec<u64> = (0..scale.runs).collect();
    let pairs = runner::map(scale, &reps, |&rep| {
        let seed = runner::seed_at(scale, "counterfactual", 0, rep);
        let mut cfg = SessionConfig::paper_default(
            DeviceProfile::nokia1(),
            PressureMode::Synthetic(TrimLevel::Moderate),
            seed,
        );
        cfg.video_secs = scale.video_secs;
        let manifest = Manifest::full_ladder(cfg.genre, cfg.video_secs);
        let fixed = manifest
            .representation(Resolution::R720p, Fps::F30)
            .expect("720p30 is on the full ladder");

        // Shared prefix: run to the fork point and snapshot once. Every
        // branch restores from this single snapshot, so their prefixes
        // are byte-for-byte the same machine.
        let mut abr = FixedAbr::new(fixed);
        let mut parent = Session::start(cfg);
        let fork_at =
            SimTime::from_secs_f64(parent.now().as_secs_f64() + FORK_FRAC * scale.video_secs);
        parent.run_until(&mut abr, fork_at);
        let snap = parent.snapshot(&abr);
        let fork_at_s = snap.at.as_secs_f64();

        let outcomes: Vec<(f64, f64, u64, bool)> = BRANCHES
            .iter()
            .enumerate()
            .map(|(bi, knob)| qoe(&run_branch(&snap, knob, bi as u64, rep, fixed)))
            .collect();
        let base = outcomes[0];
        let branches = BRANCHES
            .iter()
            .zip(&outcomes)
            .map(|(knob, &(rebuffer_s, drop_pct, switches, crashed))| BranchOutcome {
                branch: knob.label().to_string(),
                rebuffer_s,
                drop_pct,
                switches,
                crashed,
                delta: QoeDelta {
                    rebuffer_s: rebuffer_s - base.0,
                    drop_pct: drop_pct - base.1,
                    switches: switches as i64 - base.2 as i64,
                    crashed: crashed as i64 - base.3 as i64,
                },
            })
            .collect();
        Pair {
            rep,
            seed,
            fork_at_s,
            branches,
        }
    });
    Counterfactual {
        device: "nokia1".to_string(),
        fork_frac: FORK_FRAC,
        pairs,
    }
}

impl Counterfactual {
    /// The artifact's rules: at least one fork; every fork carries all
    /// four branches, the `baseline` first; and every rebuffer and drop
    /// delta reproduces from the absolute values (deltas are exact
    /// pairwise differences). `Err` names the first rule broken.
    pub fn validate(&self) -> Result<(), String> {
        if self.pairs.is_empty() {
            return Err("pairs is empty".into());
        }
        for (i, pair) in self.pairs.iter().enumerate() {
            let n = pair.branches.len();
            if n < BRANCHES.len() {
                return Err(format!(
                    "pair {i} has {n} branch(es), need >= {}",
                    BRANCHES.len()
                ));
            }
            let base = &pair.branches[0];
            if base.branch != "baseline" {
                return Err(format!("pair {i}: branch 0 is not the baseline"));
            }
            for b in &pair.branches {
                for (key, delta, want) in [
                    (
                        "rebuffer_s",
                        b.delta.rebuffer_s,
                        b.rebuffer_s - base.rebuffer_s,
                    ),
                    ("drop_pct", b.delta.drop_pct, b.drop_pct - base.drop_pct),
                ] {
                    if !report::agrees(delta, want) {
                        return Err(format!(
                            "pair {i}: {key} delta disagrees with its absolute values"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Print the paired-delta table.
    pub fn print(&self) {
        report::banner(
            "counterfactual",
            "paired policy branches forked from one shared prefix (Nokia 1, Moderate, 720p30)",
        );
        let rows: Vec<Vec<String>> = self
            .pairs
            .iter()
            .flat_map(|p| {
                p.branches.iter().map(move |b| {
                    vec![
                        format!("{}", p.rep),
                        format!("{:.0}", p.fork_at_s),
                        b.branch.clone(),
                        format!("{:.1}", b.rebuffer_s),
                        format!("{:.1}", b.drop_pct),
                        format!("{}", b.switches),
                        if b.crashed { "yes" } else { "no" }.to_string(),
                        format!("{:+.1}", b.delta.rebuffer_s),
                        format!("{:+.1}", b.delta.drop_pct),
                        format!("{:+}", b.delta.switches),
                        format!("{:+}", b.delta.crashed),
                    ]
                })
            })
            .collect();
        report::print_table(
            &[
                "rep", "fork@s", "branch", "rebuf s", "drop %", "switch", "crash", "Δrebuf",
                "Δdrop", "Δswitch", "Δcrash",
            ],
            &rows,
        );
        println!(
            "paired deltas: every branch shares the baseline's prefix byte-for-byte, so each Δ \
             isolates one policy knob (paper §6: memory-aware capping trades resolution for \
             survival under pressure)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: the artifact is byte-identical at any worker
    /// count and passes its own rules.
    #[test]
    fn artifact_is_byte_identical_at_any_jobs_count() {
        let scale = Scale::quick().runs(2);
        let serial = serde_json::to_string(&run(&scale.clone().jobs(1))).unwrap();
        for jobs in [2, 8] {
            let parallel = serde_json::to_string(&run(&scale.clone().jobs(jobs))).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs} must not change the artifact");
        }
        let data = run(&scale);
        data.validate().unwrap();
        assert_eq!(data.pairs.len(), 2);
        for pair in &data.pairs {
            let b0 = &pair.branches[0].delta;
            assert_eq!((b0.rebuffer_s, b0.drop_pct, b0.switches, b0.crashed), (0.0, 0.0, 0, 0));
        }
    }
}
