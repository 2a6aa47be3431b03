//! The committed `results/` artifacts pass their types' `validate()`
//! rules, and every rule rejects a hand-corrupted copy with its own
//! message. `exp` runs the same `validate()` each time it writes one of
//! these artifacts; this suite pins the rules themselves, so a rule that
//! stops firing (or a field rename that breaks loading) fails tier-1.

use mvqoe_experiments::arena::Arena;
use mvqoe_experiments::blame::Blame;
use mvqoe_experiments::counterfactual::Counterfactual;
use mvqoe_experiments::report::RunMeta;
use mvqoe_experiments::serve::ServeResults;
use mvqoe_metrics::selfprof::PhaseProfile;
use serde::Deserialize;

/// One corruption and the fragment of the message it must fail with.
type Case<T> = (&'static str, fn(&mut T));

/// Load `results/<name>.json`, check the committed copy passes, then
/// check each corrupted copy fails naming its rule.
fn check<T: Deserialize>(name: &str, validate: fn(&T) -> Result<(), String>, cases: &[Case<T>]) {
    let path = format!("{}/results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let load = || serde_json::from_str::<T>(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    if let Err(rule) = validate(&load()) {
        panic!("committed {path} breaks a rule: {rule}");
    }
    for (want, corrupt) in cases {
        let mut data = load();
        corrupt(&mut data);
        match validate(&data) {
            Ok(()) => panic!("{name}: corruption expecting {want:?} passed validate()"),
            Err(rule) => assert!(
                rule.contains(want),
                "{name}: {rule:?} does not name {want:?}"
            ),
        }
    }
}

#[test]
fn counterfactual_rules_hold_and_each_one_fires() {
    check::<Counterfactual>(
        "counterfactual",
        Counterfactual::validate,
        &[
            ("pairs is empty", |c| c.pairs.clear()),
            ("pair 0 has 3 branch(es)", |c| {
                c.pairs[0].branches.truncate(3)
            }),
            ("branch 0 is not the baseline", |c| {
                c.pairs[0].branches.swap(0, 1)
            }),
            ("rebuffer_s delta disagrees", |c| {
                c.pairs[0].branches[2].delta.rebuffer_s += 1e-6
            }),
            ("drop_pct delta disagrees", |c| {
                c.pairs[1].branches[3].delta.drop_pct += 1e-6
            }),
            ("drop_pct delta disagrees", |c| {
                c.pairs[0].branches[1].drop_pct = f64::NAN
            }),
        ],
    );
}

#[test]
fn arena_rules_hold_and_each_one_fires() {
    check::<Arena>(
        "arena",
        Arena::validate,
        &[
            ("policies is empty", |a| a.policies.clear()),
            ("memories is empty", |a| a.memories.clear()),
            ("but the declared grid has 16", |a| {
                a.regimes.pop();
            }),
            ("regime 0 rows", |a| a.regimes[0].rows.reverse()),
            ("does not have the best qoe", |a| {
                let r = &mut a.regimes[3];
                let worst = r
                    .rows
                    .iter()
                    .min_by(|x, y| x.qoe.total_cmp(&y.qoe))
                    .unwrap();
                r.winner = worst.policy.clone();
            }),
            ("no numeric qoe for hybrid", |a| {
                a.regimes[5].rows[5].qoe = f64::NAN
            }),
            ("hybrid_beats_parents flag disagrees", |a| {
                a.regimes[2].hybrid_beats_parents = !a.regimes[2].hybrid_beats_parents;
            }),
            ("hybrid_wins", |a| {
                a.hybrid_wins.push("nokia1/paper-lan/Normal".into())
            }),
            ("hybrid_wins", |a| {
                a.hybrid_wins.pop();
            }),
            ("pairs is empty", |a| a.pairs.clear()),
            ("pair 1 branches", |a| a.pairs[1].branches.swap(2, 3)),
            ("baseline delta is not zero", |a| {
                a.pairs[0].branches[0].delta.qoe = 0.5
            }),
            ("qoe delta disagrees", |a| {
                a.pairs[2].branches[4].delta.qoe += 1e-6
            }),
        ],
    );
}

/// The first Moderate paper-lan regime that rebuffered: the one the
/// dominance rule is about.
fn dominance_regime(b: &mut Blame) -> &mut mvqoe_experiments::blame::BlameRegime {
    b.regimes
        .iter_mut()
        .find(|r| r.network == "paper-lan" && r.memory == "Moderate" && r.stats_rebuffer_us > 0)
        .expect("the committed artifact exercises the dominance rule")
}

#[test]
fn attribution_rules_hold_and_each_one_fires() {
    check::<Blame>(
        "attribution",
        Blame::validate,
        &[
            ("cause lmkd_kill missing", |b| {
                b.causes.retain(|c| c != "lmkd_kill")
            }),
            ("regimes is empty", |b| b.regimes.clear()),
            ("drops has 7 entries for 8 causes", |b| {
                b.regimes[4].drops.pop();
            }),
            ("per-cause drop sum != session total", |b| {
                b.regimes[1].drops[0] += 1
            }),
            ("per-cause rebuffer sum != session total", |b| {
                dominance_regime(b).rebuffer_us[2] += 1;
            }),
            ("rebuffer shares sum to", |b| {
                dominance_regime(b).rebuffer_share[0] += 1e-6
            }),
            ("not in causes", |b| {
                let r = b
                    .regimes
                    .iter_mut()
                    .find(|r| !r.samples.is_empty())
                    .unwrap();
                r.samples[0].cause = "cosmic_ray".into();
            }),
            ("does not dominate network share", |b| {
                let r = dominance_regime(b);
                std::mem::swap(&mut r.memory_rebuffer_share, &mut r.network_rebuffer_share);
            }),
            ("the dominance claim was never exercised", |b| {
                for r in &mut b.regimes {
                    if r.memory == "Moderate" {
                        r.network = "lte-walk".into();
                    }
                }
            }),
        ],
    );
}

#[test]
fn service_rules_hold_and_each_one_fires() {
    check::<ServeResults>(
        "service",
        ServeResults::validate,
        &[
            ("no devices recruited", |s| s.headline.recruited = 0),
            ("exceeds recruited", |s| {
                s.headline.kept = u64::from(s.headline.recruited) + 1
            }),
            ("still in flight", |s| s.headline.devices_in_flight = 1),
            ("ack folded", |s| s.ack.folded -= 1),
            ("cannot cover", |s| s.ack.accepted = 2 * s.ack.folded - 1),
            ("not batch-equivalent", |s| s.equivalent_to_batch = false),
            ("scrape is not valid exposition", |s| {
                s.scrape.push_str("not a sample line\n")
            }),
        ],
    );
}

#[test]
fn a_profiled_sidecar_must_record_a_span() {
    let meta = |calls: &[u64]| RunMeta {
        jobs: 1,
        wall_secs: 0.5,
        runs_per_cell: 1,
        seed: 42,
        workers: Vec::new(),
        profile: Some(
            calls
                .iter()
                .map(|&calls| PhaseProfile {
                    phase: "kernel.reclaim".into(),
                    calls,
                    total_ns: 0,
                })
                .collect(),
        ),
    };
    assert!(meta(&[0, 3]).validate().is_ok());
    assert!(RunMeta {
        profile: None,
        ..meta(&[])
    }
    .validate()
    .is_ok());
    let err = meta(&[0, 0]).validate().unwrap_err();
    assert!(err.contains("zero calls"), "{err}");
}
