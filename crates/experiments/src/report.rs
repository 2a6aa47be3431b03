//! Output helpers: aligned tables on stdout, JSON in `results/`.

use crate::runner;
use crate::scale::Scale;
use mvqoe_core::WorkerStat;
use mvqoe_metrics::selfprof::{self, PhaseProfile};
use serde::Serialize;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Print a header banner for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Render rows as an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(line, "{:>w$}  ", h, w = widths[i]);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(line.trim_end().len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Print an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(headers, rows));
}

/// Location of the JSON results directory (workspace `results/`).
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    // Walk up to the workspace root (where Cargo.toml with [workspace] is).
    for _ in 0..4 {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            break;
        }
        if let Some(parent) = dir.parent() {
            dir = parent.to_path_buf();
        }
    }
    dir.join("results")
}

/// Write `value` as pretty JSON to `<dir>/<name>.json`, creating `dir`
/// first, and return the path written.
pub fn write_json<T: Serialize + ?Sized>(dir: &Path, name: &str, value: &T) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    println!("[json] {}", path.display());
    Ok(path)
}

/// Whether a float reproduces `expected` up to JSON's f64 round trip.
/// NaN (a `null` in the file) never does.
pub(crate) fn agrees(value: f64, expected: f64) -> bool {
    (value - expected).abs() <= 1e-9
}

/// Run metadata written next to an experiment's data JSON.
#[derive(Debug, Clone, Serialize)]
pub struct RunMeta {
    /// Worker threads used by the parallel engine.
    pub jobs: usize,
    /// Wall-clock seconds from timer start to the write.
    pub wall_secs: f64,
    /// Repetitions per cell at this scale.
    pub runs_per_cell: u64,
    /// Base seed.
    pub seed: u64,
    /// Per-worker jobs completed and busy seconds for this experiment's
    /// engine invocations.
    pub workers: Vec<WorkerStat>,
    /// Hot-path self-profiling totals (`--profile` runs only): one entry
    /// per instrumented phase, in `selfprof::PHASES` order. `None` when
    /// profiling was off.
    pub profile: Option<Vec<PhaseProfile>>,
}

impl RunMeta {
    /// The sidecar's one rule that its types do not already enforce: a
    /// profiled run recorded at least one span. An all-zero block means
    /// the recorder was off or no instrumented phase ran.
    pub fn validate(&self) -> Result<(), String> {
        match &self.profile {
            Some(phases) if phases.iter().all(|p| p.calls == 0) => {
                Err("profile recorded zero calls across all phases".into())
            }
            _ => Ok(()),
        }
    }
}

/// Times one experiment and writes its results with a `<name>.meta.json`
/// sidecar recording wall-clock and worker count. The sidecar keeps the
/// data JSON itself byte-identical across `--jobs` settings: only the meta
/// file (which nothing diffs against golden outputs) varies run to run.
pub struct MetaTimer {
    start: Instant,
    jobs: usize,
    runs_per_cell: u64,
    seed: u64,
    profile: bool,
}

impl MetaTimer {
    /// Start timing an experiment run at this scale. When the scale asks
    /// for self-profiling, recording turns on (and the counters reset) for
    /// the span of this experiment; the totals land in the sidecar.
    pub fn start(scale: &Scale) -> MetaTimer {
        if scale.profile {
            selfprof::reset();
            selfprof::set_enabled(true);
        }
        MetaTimer {
            start: Instant::now(),
            jobs: scale.jobs,
            runs_per_cell: scale.runs,
            seed: scale.seed,
            profile: scale.profile,
        }
    }

    /// Wall-clock seconds elapsed since [`MetaTimer::start`].
    pub fn wall_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Write `<dir>/<name>.json` (the data) plus `<name>.meta.json` (this
    /// run's wall clock, job count, and per-worker utilization), then
    /// check the sidecar's rule. When the runner stashed per-cell metrics
    /// snapshots (`--metrics`), they land in a third sidecar,
    /// `<name>.metrics.json`, keyed by experiment id — the data JSON
    /// itself never changes. `Err` names the failed write or the rule.
    pub fn write<T: Serialize + ?Sized>(
        &self,
        dir: &Path,
        name: &str,
        value: &T,
    ) -> Result<(), String> {
        let stash = runner::drain_stash();
        let meta = RunMeta {
            jobs: self.jobs,
            wall_secs: self.wall_secs(),
            runs_per_cell: self.runs_per_cell,
            seed: self.seed,
            workers: stash.workers,
            profile: self.profile.then(selfprof::snapshot),
        };
        let failed = |stem: &str| {
            let path = dir.join(format!("{stem}.json"));
            move |e: io::Error| format!("cannot write {}: {e}", path.display())
        };
        write_json(dir, name, value).map_err(failed(name))?;
        let meta_name = format!("{name}.meta");
        write_json(dir, &meta_name, &meta).map_err(failed(&meta_name))?;
        if !stash.metrics.is_empty() {
            let metrics_name = format!("{name}.metrics");
            write_json(dir, &metrics_name, &stash.metrics).map_err(failed(&metrics_name))?;
        }
        meta.validate()
            .map_err(|rule| format!("{meta_name}.json: {rule}"))
    }
}

/// Format a mean ± CI pair.
pub fn pm(mean: f64, ci: f64) -> String {
    format!("{mean:.1} ± {ci:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("longer"));
        // Right-aligned: the short name is padded.
        assert!(lines[2].starts_with("     a"));
    }

    #[test]
    fn a_results_path_that_is_a_file_is_an_error() {
        let file = std::env::temp_dir().join(format!("mvqoe-results-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let err = write_json(&file, "fig8", &[1, 2, 3]);
        std::fs::remove_file(&file).unwrap();
        assert!(err.is_err(), "writing under a regular file must fail");
    }

    #[test]
    fn pm_formats() {
        assert_eq!(pm(12.345, 0.67), "12.3 ± 0.7");
    }
}
