//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each module reproduces one experiment family; the [`registry`] names
//! them, and its one binary, `exp`, prints each table/series in a form
//! directly comparable to the paper and writes machine-readable JSON next
//! to it (`results/<artifact>.json`). Run `exp all` to regenerate
//! everything, or name experiments (`exp fig9 table4`, …; `exp --list`
//! shows them all); `--quick` selects a reduced-scale pass. Artifacts
//! with invariants ([`counterfactual`], [`arena`], [`blame`], [`serve`])
//! are checked by their type's `validate()` every time they are written.
//!
//! | Module | Paper artifacts |
//! |---|---|
//! | [`fleet_figs`] | Figs. 1–6 (user study) |
//! | [`fig8`] | Fig. 8 (client PSS) |
//! | [`framedrops`] | Figs. 9/11/12, Tables 2/3, Nexus 6P summary, Figs. 18/19 |
//! | [`fig10`] | Fig. 10 (DMOS survey) |
//! | [`trace_exp`] | Tables 4/5, Fig. 13 (Perfetto analysis) |
//! | [`session_figs`] | Figs. 14–17 (instantaneous sessions) |
//! | [`counterfactual`] | paired policy counterfactuals (snapshot/fork) |
//! | [`arena`] | joint network + memory pressure ABR arena |
//! | [`blame`] | causal attribution across the arena's regimes |
//! | [`serve`] | live telemetry service (ingest + Prometheus + queries) |
//! | [`organic_check`] | §4.3 organic spot values |
//! | [`abr_ablation`] | §6/§7 memory-aware ABR vs network-only baselines |
//! | [`os_ablation`] | §7 CPU-resource and daemon-scheduling ablations |
//! | [`table1`] | Table 1 digest |

pub mod abr_ablation;
pub mod arena;
pub mod blame;
pub mod counterfactual;
pub mod fig10;
pub mod fig8;
pub mod fleet_figs;
pub mod framedrops;
pub mod organic_check;
pub mod registry;
pub mod os_ablation;
pub mod report;
pub mod runner;
pub mod scale;
pub mod serve;
pub mod session_figs;
pub mod table1;
pub mod telemetry;
pub mod trace_exp;

pub use scale::Scale;
