//! `fleet`: the §3 study at the paper's protocol — `FleetConfig` default,
//! 80 users observed for a median 100 h (1–18 days) — as
//! `run_fleet_sharded` runs it on one worker with no checkpoint directory:
//! one `simulate_range` per shard (32 shards of 2–3 users), then the
//! in-order merge. Those calls are timed one by one; the runner around
//! them is not, and in the first pass of a run `run_fleet_sharded` itself
//! must produce the same aggregate. A pass runs two studies, 160 users.
//! Long windows make the batch engine's calm-skip stepping and the
//! kernel's coarse steps dominate; no session, ABR, network or wire code
//! runs.
//!
//! A user's host cost follows their observation window closely, and the
//! windows are heavy-tailed, so two random studies can differ in cost by
//! half. Each study is therefore picked, among candidate seeds derived
//! from `--seed`, as the one whose users log closest to the paper's mean
//! of 124 h each: every run carries about the same simulated work while
//! the users themselves still change with the seed.
//!
//! One operation is one shard; its latency is its host time.

use crate::spans;
use crate::stats::{self, Fnv};
use crate::{phase, Metrics, Pass, Summary, Unit, Workload};
use mvqoe_experiments::fleet_figs::{run_fleet_sharded, shard_count, shard_range};
use mvqoe_experiments::Scale;
use mvqoe_sim::derive_seed;
use mvqoe_study::{simulate_range, start_user, FleetAggregate, FleetConfig};
use std::ops::Range;
use std::time::Instant;

/// Studies per pass.
const STUDIES: u64 = 2;
/// Candidate seeds considered for each study.
const CANDIDATES: u64 = 16;
/// The paper's mean observation length per user, in hours.
const TARGET_HOURS_PER_USER: f64 = 124.0;

struct Study {
    cfg: FleetConfig,
    /// Each shard's users and the simulated device-seconds they log.
    shards: Vec<(Range<u32>, u64)>,
    /// The users' observation hours, summed in user order.
    hours: f64,
}

impl Study {
    fn user_seconds(&self) -> u64 {
        self.shards.iter().map(|s| s.1).sum()
    }
}

#[derive(Debug, Default)]
struct Layers {
    passes: u64,
    shard_ns: Vec<f64>,
    merge_ns: u64,
    user_seconds: u64,
    coarse: (u64, u64),
    slow: (u64, u64),
    coarse_calls_pass0: u64,
    slow_calls_pass0: u64,
    user_seconds_pass0: u64,
    recruited_pass0: u64,
    kept_pass0: u64,
}

pub struct Fleet {
    studies: Vec<Study>,
    scale: Scale,
    layers: Layers,
}

impl Fleet {
    /// Derive every study's config from `seed`, opening each candidate
    /// user's observation window to total the simulated work.
    pub fn setup(seed: u64) -> Fleet {
        let studies = (0..STUDIES)
            .map(|j| {
                (0..CANDIDATES)
                    .map(|c| {
                        let cfg = FleetConfig {
                            seed: derive_seed(seed, "perfbench/fleet", j, c),
                            ..FleetConfig::default()
                        };
                        let n = shard_count(cfg.n_users);
                        let mut hours = 0.0;
                        let shards = (0..n)
                            .map(|s| {
                                let users = shard_range(cfg.n_users, n, s);
                                let secs: u64 = users
                                    .clone()
                                    .map(|i| {
                                        let st = start_user(&cfg, i);
                                        hours += st.hours;
                                        st.seconds()
                                    })
                                    .sum();
                                (users, secs)
                            })
                            .collect();
                        Study { cfg, shards, hours }
                    })
                    .min_by(|a, b| {
                        let off = |s: &Study| {
                            (s.hours / f64::from(s.cfg.n_users) - TARGET_HOURS_PER_USER).abs()
                        };
                        off(a).total_cmp(&off(b))
                    })
                    .expect("at least one candidate")
            })
            .collect();
        Fleet {
            studies,
            scale: Scale::full().jobs(1),
            layers: Layers::default(),
        }
    }

    /// Run study `idx` as `run_fleet_sharded` does on one worker, timing
    /// each shard and the merge as units of `pass`.
    fn run_study(&mut self, idx: usize, group: u64, pass: &mut Pass) -> FleetAggregate {
        let study = &self.studies[idx];
        let _study = spans::enter("study.run", group);
        let mut parts = Vec::with_capacity(study.shards.len());
        for (users, secs) in &study.shards {
            let span = spans::enter("study.shard", group);
            let t = Instant::now();
            parts.push(simulate_range(&study.cfg, users.clone()));
            let host_s = t.elapsed().as_secs_f64();
            let ns = span.finish();
            if ns > 0 {
                self.layers.shard_ns.push(ns as f64);
            }
            pass.units.push(Unit {
                host_s,
                sim_s: *secs as f64,
                op_ms: vec![host_s * 1e3],
            });
        }
        let span = spans::enter("study.merge", group);
        let t = Instant::now();
        let mut parts = parts.into_iter();
        let mut agg = parts.next().expect("at least one shard");
        for part in parts {
            agg.absorb(part);
        }
        pass.units.push(Unit {
            host_s: t.elapsed().as_secs_f64(),
            ..Unit::default()
        });
        self.layers.merge_ns += span.finish();
        agg
    }
}

impl Workload for Fleet {
    fn pass(&mut self, k: usize, traced: bool) -> Pass {
        let coarse0 = phase("kernel.coarse_step");
        let slow0 = phase("fleet.slow_step");
        let mut pass = Pass::default();
        let mut fp = Fnv::default();
        let (mut recruited, mut kept) = (0u64, 0u64);
        for idx in 0..self.studies.len() {
            let agg = self.run_study(idx, (k * self.studies.len() + idx) as u64, &mut pass);
            let study = &self.studies[idx];
            if k == 0 && !traced {
                let sharded =
                    run_fleet_sharded(&study.cfg, study.shards.len() as u32, &self.scale, None);
                if serde_json::to_string(&sharded.aggregate).ok()
                    != serde_json::to_string(&agg).ok()
                {
                    pass.fail(format!(
                        "study {idx}: the timed calls and run_fleet_sharded disagree"
                    ));
                }
            }
            pass.attempted += study.shards.len() as u64 + 1;
            fp.bytes(
                serde_json::to_string(&agg)
                    .expect("aggregate serializes")
                    .as_bytes(),
            );
            recruited += u64::from(agg.recruited);
            kept += agg.kept;
            if agg.recruited != study.cfg.n_users {
                pass.fail(format!(
                    "pass {k} study {idx}: recruited {} of {} users",
                    agg.recruited, study.cfg.n_users
                ));
            } else if (agg.total_hours() - study.hours).abs() > 1e-9 * study.hours {
                pass.fail(format!(
                    "pass {k} study {idx}: {:.6} h observed, inputs ask for {:.6} h",
                    agg.total_hours(),
                    study.hours
                ));
            }
        }
        pass.fingerprint = fp.finish();

        if traced {
            let l = &mut self.layers;
            let coarse1 = phase("kernel.coarse_step");
            let slow1 = phase("fleet.slow_step");
            l.coarse.0 += coarse1.0 - coarse0.0;
            l.coarse.1 += coarse1.1 - coarse0.1;
            l.slow.0 += slow1.0 - slow0.0;
            l.slow.1 += slow1.1 - slow0.1;
            let user_seconds: u64 = self.studies.iter().map(Study::user_seconds).sum();
            l.user_seconds += user_seconds;
            if l.passes == 0 {
                l.coarse_calls_pass0 = coarse1.0 - coarse0.0;
                l.slow_calls_pass0 = slow1.0 - slow0.0;
                l.user_seconds_pass0 = user_seconds;
                l.recruited_pass0 = recruited;
                l.kept_pass0 = kept;
            }
            l.passes += 1;
        }
        pass
    }

    fn per_layer(&self, m: &mut Metrics) {
        let l = &self.layers;
        let shards = stats::sorted(l.shard_ns.clone());
        m.set("study.shard_ms_p50", stats::quantile(&shards, 0.5) / 1e6);
        m.set(
            "study.shard_ms_max",
            shards.last().copied().unwrap_or(0.0) / 1e6,
        );
        m.set(
            "study.ns_per_user_s",
            stats::ratio(shards.iter().sum::<f64>(), l.user_seconds as f64),
        );
        m.set(
            "study.merge_us",
            stats::ratio(l.merge_ns as f64 / 1e3, (l.passes * STUDIES) as f64),
        );
        m.set(
            "kernel.coarse_step_ns",
            stats::ratio(l.coarse.1 as f64, l.coarse.0 as f64),
        );
        m.set("kernel.coarse_step_calls", l.coarse_calls_pass0 as f64);
        m.set(
            "fleet.slow_step_ns",
            stats::ratio(l.slow.1 as f64, l.slow.0 as f64),
        );
        m.set("fleet.slow_step_calls", l.slow_calls_pass0 as f64);
        m.set(
            "study.calm_skip_ratio",
            1.0 - stats::ratio(l.slow_calls_pass0 as f64, l.user_seconds_pass0 as f64),
        );
        m.set("study.recruited", l.recruited_pass0 as f64);
        m.set("study.kept", l.kept_pass0 as f64);
    }

    fn phase_moves(&self) -> Vec<(&'static str, &'static str, u64)> {
        // A slow user step encloses the kernel's coarse step.
        let (coarse, slow) = (self.layers.coarse.1, self.layers.slow.1);
        vec![
            ("study", "workload", slow.saturating_sub(coarse)),
            ("study", "kernel", coarse),
        ]
    }

    fn headline(&self, run: &Summary) -> Vec<(String, f64, &'static str)> {
        let users: u32 = self.studies.iter().map(|s| s.cfg.n_users).sum();
        let n = run.ops;
        vec![
            ("users per pass".into(), f64::from(users), "count"),
            (
                "fleet_users_per_s".into(),
                stats::ratio(f64::from(users), run.host_s),
                "users/s",
            ),
            (
                "study_ms (one study)".into(),
                run.host_s * 1e3 / STUDIES as f64,
                "ms",
            ),
            (format!("shard_ms_p50 (n={n})"), run.op_ms(0.5), "ms"),
        ]
    }
}
