//! The experiment registry: one name → runner table for every figure and
//! table in the paper's evaluation, and the `exp` command line over it.
//!
//! Each experiment is an [`Experiment`] implementation that runs at a
//! [`Scale`], prints its report (banners, paper anchors, telemetry
//! showcase), writes its typed data straight to `results/<artifact>.json`
//! (plus the `.meta.json` / `.metrics.json` sidecars) and then checks the
//! data against its type's `validate()` rules, if it has any. [`cli`] is
//! the whole `exp` binary: `exp <name>...` runs the named experiments,
//! `exp all` the full pass, `exp --list` prints this table, and every run
//! shares one flag set (`--quick`, `--jobs`, `--fleet-users`,
//! `--fleet-hours`, `--rss-limit-mib`, `--perfetto`, `--metrics`,
//! `--dense-ticks`, `--profile`; see [`Scale::parse`]).

use crate::scale::Scale;
use crate::{
    abr_ablation, arena, blame, counterfactual, fig10, fig8, fleet_figs, framedrops,
    organic_check, os_ablation, report, serve, session_figs, table1, telemetry, trace_exp,
};
use mvqoe_device::DeviceProfile;
use mvqoe_video::PlayerKind;
use std::path::Path;
use std::process::ExitCode;

/// One experiment the repository can regenerate.
pub trait Experiment: Sync {
    /// Registry / CLI name (`exp <name>` and the `--list` table).
    fn name(&self) -> &'static str;

    /// One-line description of what the experiment reproduces.
    fn description(&self) -> &'static str;

    /// Stem of the data artifact, `results/<artifact>.json`.
    fn artifact(&self) -> &'static str;

    /// Whether `exp all` includes this experiment (Table 1 digests the
    /// others' outputs, so it runs standalone only).
    fn in_all(&self) -> bool {
        true
    }

    /// Run at `scale`, print the report, write `<dir>/<artifact>.json`
    /// and its sidecars, then check the written data. `Err` names the
    /// failed write or the broken rule; the artifact is written either
    /// way.
    fn run(&self, scale: &Scale, dir: &Path) -> Result<(), String>;
}

macro_rules! experiments {
    ($($ty:ident {
        name: $name:literal,
        description: $desc:literal,
        artifact: $artifact:literal,
        $(in_all: $in_all:literal,)?
        run: |$scale:ident| $body:expr,
        $(validate: $validate:path,)?
    })*) => {
        $(
            struct $ty;

            impl Experiment for $ty {
                fn name(&self) -> &'static str {
                    $name
                }
                fn description(&self) -> &'static str {
                    $desc
                }
                fn artifact(&self) -> &'static str {
                    $artifact
                }
                $(
                    fn in_all(&self) -> bool {
                        $in_all
                    }
                )?
                fn run(&self, $scale: &Scale, dir: &Path) -> Result<(), String> {
                    let timer = report::MetaTimer::start($scale);
                    let data = $body;
                    timer.write(dir, $artifact, &data)?;
                    let valid: Result<(), String> = Ok(()) $(.and_then(|()| $validate(&data)))?;
                    valid.map_err(|rule| format!("{}.json: {rule}", $artifact))
                }
            }
        )*

        /// Every registered experiment, in `exp all` execution order.
        pub fn all() -> &'static [&'static dyn Experiment] {
            static ALL: &[&dyn Experiment] = &[$(&$ty),*];
            ALL
        }
    };
}

experiments! {
    Fleet {
        name: "fleet",
        description: "Figs. 1-6: the §3 user study (streamed fleet run)",
        artifact: "fleet_figs1-6",
        run: |scale| {
            let figs = fleet_figs::run(scale);
            figs.print();
            figs
        },
    }
    Fig8 {
        name: "fig8",
        description: "Fig. 8: client PSS vs resolution x frame rate",
        artifact: "fig8",
        run: |scale| {
            let f = fig8::run(scale);
            f.print();
            telemetry::showcase("fig8", &DeviceProfile::nexus5(), scale);
            f
        },
    }
    Fig9 {
        name: "fig9",
        description: "Fig. 9 + Table 2: frame drops and crash rates on the Nokia 1",
        artifact: "fig9_table2",
        run: |scale| {
            let grid = framedrops::nokia1_grid(scale);
            report::banner("Fig 9", "frame drops on the Nokia 1 (mean ± 95% CI)");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            println!("paper anchors: 1080p30 = 19% Normal / 53% Moderate / ~100% Critical");
            report::banner("Table 2", "crash rates on the Nokia 1");
            grid.print_crash_table(
                &[(30, "480p"), (30, "720p"), (60, "480p"), (60, "720p")],
                &["Normal", "Moderate", "Critical"],
            );
            println!("paper: Normal 0/0/0/0; Moderate 40/100/40/100; Critical 100/100/100/100");
            telemetry::showcase("fig9_table2", &DeviceProfile::nokia1(), scale);
            grid
        },
    }
    Fig10 {
        name: "fig10",
        description: "Fig. 10: the DMOS survey",
        artifact: "fig10",
        run: |scale| {
            let f = fig10::run(scale);
            f.print();
            f
        },
    }
    Fig11 {
        name: "fig11",
        description: "Fig. 11 + Table 3: frame drops and crash rates on the Nexus 5",
        artifact: "fig11_table3",
        run: |scale| {
            let grid = framedrops::nexus5_grid(scale);
            report::banner("Fig 11", "frame drops on the Nexus 5 (mean ± 95% CI)");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            println!("paper anchors: no drops ≤480p30; 17% at 1080p60 under Critical; up to 25%");
            report::banner("Table 3", "crash rates on the Nexus 5");
            grid.print_crash_table(
                &[(30, "720p"), (30, "1080p"), (60, "480p"), (60, "720p")],
                &["Normal", "Moderate", "Critical"],
            );
            println!("paper: Normal 0/0/0/0; Moderate 10/100/0/100; Critical 100/100/70/100");
            telemetry::showcase("fig11_table3", &DeviceProfile::nexus5(), scale);
            grid
        },
    }
    Nexus6p {
        name: "nexus6p",
        description: "§4.3: the Nexus 6P summary grid",
        artifact: "nexus6p",
        run: |scale| {
            let grid = framedrops::nexus6p_grid(scale);
            report::banner("§4.3", "frame drops on the Nexus 6P");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            println!("paper: drops only at ≥720p; highest ≈9% at 1080p60");
            telemetry::showcase("nexus6p", &DeviceProfile::nexus6p(), scale);
            grid
        },
    }
    Fig12 {
        name: "fig12",
        description: "Fig. 12: the five genres on the Nexus 5",
        artifact: "fig12_genres",
        run: |scale| {
            let grids = framedrops::genre_grids(scale);
            for grid in &grids {
                let genre = grid.cells.first().map(|c| c.genre.clone()).unwrap_or_default();
                report::banner("Fig 12", &format!("genre: {genre} (Nexus 5)"));
                grid.print_drops(&["Normal", "Moderate", "Critical"]);
            }
            println!(
                "paper: same trend across genres — low drops at 30 FPS, significant at 60 FPS, \
                 rising with pressure/resolution"
            );
            grids
        },
    }
    Table4 {
        name: "table4",
        description: "Tables 4/5 + Fig. 13: the §5 trace analysis",
        artifact: "table4_table5_fig13",
        run: |scale| {
            let t = trace_exp::run(scale);
            t.print();
            telemetry::showcase("table4_table5_fig13", &DeviceProfile::nokia1(), scale);
            t
        },
    }
    Fig14 {
        name: "fig14",
        description: "Fig. 14: FPS + lmkd CPU in a crashing session",
        artifact: "fig14",
        run: |scale| {
            let f = session_figs::fig14(scale);
            f.print();
            f
        },
    }
    Fig15 {
        name: "fig15",
        description: "Fig. 15: FPS + processes killed under organic pressure",
        artifact: "fig15",
        run: |scale| {
            let f = session_figs::fig15(scale);
            f.print();
            f
        },
    }
    Fig16 {
        name: "fig16",
        description: "Fig. 16: encoded frame-rate sweep across resolutions",
        artifact: "fig16",
        run: |scale| {
            let f = session_figs::fig16(scale);
            f.print();
            f
        },
    }
    Fig17 {
        name: "fig17",
        description: "Fig. 17: mid-session frame-rate switching under pressure",
        artifact: "fig17",
        run: |scale| {
            let f = session_figs::fig17(scale);
            f.print();
            f
        },
    }
    Fig18 {
        name: "fig18",
        description: "Fig. 18: ExoPlayer on the Nexus 5 (Appendix B.1)",
        artifact: "fig18_exoplayer",
        run: |scale| {
            let grid = framedrops::appendix_grid(PlayerKind::ExoPlayer, scale);
            report::banner("Fig 18", "ExoPlayer on the Nexus 5");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            grid.print_crash_table(
                &[(30, "720p"), (30, "1080p"), (60, "720p"), (60, "1080p")],
                &["Normal", "Moderate", "Critical"],
            );
            println!(
                "paper: far fewer drops than Firefox, but still significant crashes at high pressure"
            );
            grid
        },
    }
    Fig19 {
        name: "fig19",
        description: "Fig. 19: Chrome on the Nexus 5 (Appendix B.2)",
        artifact: "fig19_chrome",
        run: |scale| {
            let grid = framedrops::appendix_grid(PlayerKind::Chrome, scale);
            report::banner("Fig 19", "Chrome on the Nexus 5");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            grid.print_crash_table(
                &[(30, "720p"), (30, "1080p"), (60, "720p"), (60, "1080p")],
                &["Normal", "Moderate", "Critical"],
            );
            println!("paper: fewer drops than Firefox (smaller footprint), but crashes persist");
            grid
        },
    }
    Organic {
        name: "organic",
        description: "§4.3: the organic-pressure spot check",
        artifact: "organic_check",
        run: |scale| {
            let c = organic_check::run(scale);
            c.print();
            c
        },
    }
    AbrAblation {
        name: "abr-ablation",
        description: "§6/§7: memory-aware ABR vs network-only baselines",
        artifact: "abr_ablation",
        run: |scale| {
            let a = abr_ablation::run(scale);
            a.print();
            a
        },
    }
    OsAblation {
        name: "os-ablation",
        description: "§7 ablations: CPU resources and mmcqd scheduling class",
        artifact: "os_ablation",
        run: |scale| {
            let a = os_ablation::run(scale);
            a.print();
            a
        },
    }
    Counterfactual {
        name: "counterfactual",
        description: "paired policy counterfactuals forked from one snapshotted prefix",
        artifact: "counterfactual",
        in_all: false,
        run: |scale| {
            let c = counterfactual::run(scale);
            c.print();
            c
        },
        validate: counterfactual::Counterfactual::validate,
    }
    Arena {
        name: "arena",
        description: "joint network + memory pressure: six ABR policies raced per regime",
        artifact: "arena",
        in_all: false,
        run: |scale| {
            let a = arena::run(scale);
            a.print();
            a
        },
        validate: arena::Arena::validate,
    }
    Blame {
        name: "blame",
        description: "causal attribution: every rebuffer second and dropped frame blamed on its cause",
        artifact: "attribution",
        in_all: false,
        run: |scale| {
            let b = blame::run(scale);
            b.print();
            b
        },
        validate: blame::Blame::validate,
    }
    Serve {
        name: "serve",
        description: "live telemetry service: ingest the fleet over TCP, scrape, verify vs batch",
        artifact: "service",
        in_all: false,
        run: |scale| {
            let s = serve::run(scale);
            s.print();
            s
        },
        validate: serve::ServeResults::validate,
    }
    Table1 {
        name: "table1",
        description: "Table 1: the key-insight digest",
        artifact: "table1",
        in_all: false,
        run: |scale| {
            let t = table1::run(scale);
            t.print();
            t
        },
    }
}

/// Look an experiment up by registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    all().iter().copied().find(|e| e.name() == name)
}

/// Resolve `exp`'s positional arguments to experiments: a registry name,
/// or `all` for every experiment in the full pass.
fn select(names: &[String]) -> Result<Vec<&'static dyn Experiment>, String> {
    if names.is_empty() {
        return Err("no experiment named".into());
    }
    let mut out = Vec::new();
    for name in names {
        if name == "all" {
            out.extend(all().iter().copied().filter(|e| e.in_all()));
        } else {
            out.push(find(name).ok_or_else(|| format!("unknown experiment {name:?}"))?);
        }
    }
    Ok(out)
}

/// Print the registry as a name → artifact table (`--list`).
pub fn print_list() {
    let rows: Vec<Vec<String>> = all()
        .iter()
        .map(|e| {
            vec![
                e.name().to_string(),
                format!("results/{}.json", e.artifact()),
                if e.in_all() { "yes" } else { "no" }.to_string(),
                e.description().to_string(),
            ]
        })
        .collect();
    report::print_table(&["name", "artifact", "in all", "reproduces"], &rows);
}

/// Fail the process if the run exceeded the `--rss-limit-mib` guard rail;
/// report peak RSS when a limit was requested.
fn enforce_rss_limit(scale: &Scale) {
    let Some(limit) = scale.rss_limit_mib else {
        return;
    };
    match mvqoe_core::peak_rss_mib() {
        Some(peak) if peak > limit as f64 => {
            eprintln!("peak RSS {peak:.0} MiB exceeded the --rss-limit-mib {limit} MiB bound");
            std::process::exit(1);
        }
        Some(peak) => println!("peak RSS {peak:.0} MiB within the {limit} MiB bound"),
        None => eprintln!("--rss-limit-mib set but /proc/self/status is unavailable; not enforced"),
    }
}

const USAGE: &str = "usage: exp [flags] <name>... | exp [flags] all | exp --list
flags: --quick|-q  --jobs|-j N  --fleet-users N  --fleet-hours H  --rss-limit-mib N
       --perfetto DIR  --metrics  --dense-ticks  --profile";

/// The `exp` binary: parse the command line, run the selected experiments
/// in order, and write each artifact into `results/`. Exits 2 (after
/// printing usage) on a bad argument, and 1 if any write failed or any
/// artifact broke one of its rules; every selected experiment still runs.
pub fn cli() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let list = args.iter().any(|a| a == "--list");
    args.retain(|a| a != "--list");
    let parsed = Scale::parse(&args)
        .and_then(|(scale, names)| Ok((scale, if list { Vec::new() } else { select(&names)? })));
    let (scale, selected) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("exp: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if list {
        print_list();
        return ExitCode::SUCCESS;
    }
    mvqoe_core::set_dense_ticks(scale.dense_ticks);
    let dir = report::results_dir();
    let t0 = std::time::Instant::now();
    let mut failed = 0;
    for exp in &selected {
        if let Err(e) = exp.run(&scale, &dir) {
            eprintln!("[exp] {} failed: {e}", exp.name());
            failed += 1;
        }
    }
    println!(
        "\n{} experiment(s) regenerated in {:.1}s with {} worker thread(s)",
        selected.len(),
        t0.elapsed().as_secs_f64(),
        scale.jobs
    );
    enforce_rss_limit(&scale);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("[exp] {failed} experiment(s) failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_artifacts_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        let mut artifacts: Vec<&str> = all().iter().map(|e| e.artifact()).collect();
        names.sort_unstable();
        artifacts.sort_unstable();
        assert_eq!(names.len(), 22);
        names.dedup();
        artifacts.dedup();
        assert_eq!(names.len(), 22, "registry names must be unique");
        assert_eq!(artifacts.len(), 22, "artifact stems must be unique");
    }

    #[test]
    fn lookup_finds_every_experiment() {
        for exp in all() {
            let found = find(exp.name()).expect("registered name resolves");
            assert_eq!(found.artifact(), exp.artifact());
        }
        assert!(find("not-an-experiment").is_none());
    }

    #[test]
    fn select_expands_all_and_rejects_unknown_names() {
        let names = |list: &[&str]| {
            select(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .map(|exps| exps.iter().map(|e| e.name()).collect::<Vec<_>>())
        };
        assert_eq!(names(&["blame", "fig8"]).unwrap(), ["blame", "fig8"]);
        let full = names(&["all"]).unwrap();
        assert_eq!(full.len(), 17);
        assert!(!full.contains(&"table1"));
        assert_eq!(names(&["table1", "all"]).unwrap().len(), 18);
        assert!(names(&["fig8", "exp-fig8"])
            .unwrap_err()
            .contains("\"exp-fig8\""));
        assert!(names(&[]).is_err());
    }

    #[test]
    fn exp_all_keeps_its_execution_order() {
        // The full pass runs in the historical `exp all` order; Table 1
        // digests the others' artifacts, so it stays out of the pass.
        let order: Vec<&str> = all()
            .iter()
            .filter(|e| e.in_all())
            .map(|e| e.name())
            .collect();
        assert_eq!(
            order,
            [
                "fleet", "fig8", "fig9", "fig10", "fig11", "nexus6p", "fig12", "table4",
                "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "organic",
                "abr-ablation", "os-ablation",
            ]
        );
        assert!(!find("table1").unwrap().in_all());
    }
}
