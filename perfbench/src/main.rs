//! The repository benchmark.
//!
//! ```text
//! mvqoe-perfbench --workload <sessions|fleet|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the simulator only receives the
//! generated configs. A run sets the workload up several times (reporting
//! the median set-up time), then repeats complete passes of the workload
//! for `--seconds` of host time, checking every output. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run spends half its time on
//! untraced passes and then repeats the same passes with spans recorded,
//! so the tracing overhead compares identical work. Host time is what is
//! measured; simulated time is the load it carries.

mod fleet;
mod ingest;
mod sessions;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Most spans written to a run's trace file.
const TRACE_FILE_CAP: usize = 250_000;
/// Where traced runs write their trace files, relative to the checkout.
const TRACE_DIR: &str = ".bench_out";

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_s_per_s", "sim_s/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
];

/// The per-layer metrics, printed by every traced run. A workload that
/// never enters a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.session_start_us", "us"),
    ("core.session_finish_us", "us"),
    ("core.run_ns_per_sim_s.normal", "ns"),
    ("core.run_ns_per_sim_s.moderate", "ns"),
    ("core.run_ns_per_sim_s.low", "ns"),
    ("core.run_ns_per_sim_s.critical", "ns"),
    ("abr.choose_ns.fixed", "ns"),
    ("abr.choose_ns.bola", "ns"),
    ("abr.choose_ns.mpc", "ns"),
    ("abr.choose_ns.hybrid", "ns"),
    ("abr.choose_ns.memory_aware", "ns"),
    ("abr.decisions", "count"),
    ("kernel.reclaim_ns", "ns"),
    ("kernel.reclaim_calls", "count"),
    ("sched.select_slow_ns", "ns"),
    ("sched.select_slow_calls", "count"),
    ("kernel.coarse_step_ns", "ns"),
    ("kernel.coarse_step_calls", "count"),
    ("fleet.slow_step_ns", "ns"),
    ("fleet.slow_step_calls", "count"),
    ("study.calm_skip_ratio", "ratio"),
    ("study.shard_ms_p50", "ms"),
    ("study.shard_ms_max", "ms"),
    ("study.ns_per_user_s", "ns"),
    ("study.merge_us", "us"),
    ("workload.step_1s_ns", "ns"),
    ("json.encode_ns", "ns"),
    ("json.bytes_per_report", "bytes"),
    ("loadgen.client_ns_per_report", "ns"),
    ("json.parse_ns", "ns"),
    ("telemetryd.apply_ns", "ns"),
    ("telemetryd.server_ns_per_report", "ns"),
    ("telemetryd.finalize_ms", "ms"),
    ("telemetryd.headline_us", "us"),
    ("telemetryd.topk_us", "us"),
    ("metrics.scrape_us", "us"),
    ("http.query_ms.headline", "ms"),
    ("http.query_ms.topk", "ms"),
    ("http.query_ms.metrics", "ms"),
    ("loadgen.query_late_ms_max", "ms"),
    ("kernel.pgscan", "count"),
    ("kernel.pgsteal", "count"),
    ("kernel.reclaim_efficiency", "ratio"),
    ("kernel.direct_reclaims", "count"),
    ("kernel.faults_major", "count"),
    ("kernel.faults_zram", "count"),
    ("kernel.kills", "count"),
    ("sched.ctx_switches", "count"),
    ("sched.preemptions", "count"),
    ("storage.reads", "count"),
    ("storage.busy_ms", "ms"),
    ("video.frames_rendered", "count"),
    ("video.frames_dropped", "count"),
    ("net.segments", "count"),
    ("core.attr_records", "count"),
    ("study.recruited", "count"),
    ("study.kept", "count"),
    ("telemetryd.reports", "count"),
    ("telemetryd.parse_failures", "count"),
    ("telemetryd.connections", "count"),
    ("self_pct.core", "%"),
    ("self_pct.abr", "%"),
    ("self_pct.kernel", "%"),
    ("self_pct.sched", "%"),
    ("self_pct.workload", "%"),
    ("self_pct.study", "%"),
    ("self_pct.json", "%"),
    ("self_pct.telemetryd", "%"),
    ("self_pct.metrics", "%"),
    ("trace.unaccounted_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// One timed unit of work: a session, a fleet shard or merge, or an upload
/// with the queries sent during it.
#[derive(Debug, Default)]
pub struct Unit {
    pub host_s: f64,
    pub sim_s: f64,
    /// Latency of each user-facing operation in the unit, ms.
    pub op_ms: Vec<f64>,
}

/// What one pass of a workload produced. Every pass of a run carries the
/// same inputs, so units line up by index across passes.
#[derive(Debug, Default)]
pub struct Pass {
    pub units: Vec<Unit>,
    /// Operations attempted and failed (a failed check fails its op).
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprint of the pass's simulated statistics.
    pub fingerprint: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Pass {
    pub fn host_s(&self) -> f64 {
        self.units.iter().map(|u| u.host_s).sum()
    }

    pub fn sim_s(&self) -> f64 {
        self.units.iter().map(|u| u.sim_s).sum()
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// How a run's repetitions of each unit of work are reduced.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Each unit at its fastest repetition, latencies included: for
    /// single-threaded work, whose only variation is what other tenants
    /// of the host take from it.
    Fastest,
    /// Each unit's median repetition, and each latency quantile as the
    /// median over passes of that pass's quantile: for concurrent work,
    /// whose speed also depends on how the OS places its threads, so that
    /// the fastest repetition is a rare lucky placement and one stalled
    /// pass must not set the run's tail.
    Median,
}

/// A run's passes reduced to one pass. On a shared host other tenants
/// only ever add time, and they add a lot: identical passes vary by a
/// quarter within a minute, in stretches of tens of seconds, while a pure
/// ALU loop varies by 5%.
#[derive(Debug)]
pub struct Summary {
    /// Simulated seconds of one pass.
    pub sim_s: f64,
    /// Host seconds of one pass made of the chosen repetitions.
    pub host_s: f64,
    /// Operations behind the latency quantiles.
    pub ops: usize,
    /// Sorted latency samples, ms: one set of the chosen repetitions, or
    /// one set per pass.
    op_sets: Vec<Vec<f64>>,
}

impl Summary {
    fn of(passes: &[Pass], pick: Pick) -> Summary {
        let units = passes.iter().map(|p| p.units.len()).min().unwrap_or(0);
        let chosen: Vec<&Unit> = (0..units)
            .map(|i| {
                let mut reps: Vec<&Unit> = passes.iter().map(|p| &p.units[i]).collect();
                reps.sort_by(|a, b| a.host_s.total_cmp(&b.host_s));
                match pick {
                    Pick::Fastest => reps[0],
                    Pick::Median => reps[(reps.len() - 1) / 2],
                }
            })
            .collect();
        let op_sets: Vec<Vec<f64>> = match pick {
            Pick::Fastest => vec![sorted_ops(chosen.iter().copied())],
            Pick::Median => passes.iter().map(|p| sorted_ops(p.units.iter())).collect(),
        };
        Summary {
            sim_s: chosen.iter().map(|u| u.sim_s).sum(),
            host_s: chosen.iter().map(|u| u.host_s).sum(),
            ops: op_sets.iter().map(Vec::len).sum(),
            op_sets,
        }
    }

    /// Latency quantile `q`, ms: the median over the sets of each set's
    /// quantile.
    pub fn op_ms(&self, q: f64) -> f64 {
        let per_set: Vec<f64> = self.op_sets.iter().map(|s| stats::quantile(s, q)).collect();
        stats::median(&per_set)
    }
}

fn sorted_ops<'a>(units: impl Iterator<Item = &'a Unit>) -> Vec<f64> {
    stats::sorted(units.flat_map(|u| u.op_ms.iter().copied()).collect())
}

/// Named metric values, filled in by the workloads.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// One workload: generated inputs plus the state its passes accumulate.
pub trait Workload {
    /// Run pass `k`. Passes with the same `k` carry the same inputs, so a
    /// traced pass repeats the untraced pass of the same index exactly.
    fn pass(&mut self, k: usize, traced: bool) -> Pass;
    /// Which repetition of each unit the end-to-end metrics use.
    fn pick(&self) -> Pick {
        Pick::Fastest
    }
    /// Per-layer metrics over the traced passes.
    fn per_layer(&self, out: &mut Metrics);
    /// Self-profiled phase time to move out of the layer whose span
    /// encloses it: `(from layer, to layer, ns)`.
    fn phase_moves(&self) -> Vec<(&'static str, &'static str, u64)>;
    /// Spans recorded on threads other than the main one.
    fn side_spans(&mut self) -> Vec<(u32, &'static str, Vec<spans::Span>)> {
        Vec::new()
    }
    /// The workload's headline figures under their own names, for people.
    fn headline(&self, run: &Summary) -> Vec<(String, f64, &'static str)>;
}

/// `(calls, ns)` a self-profiled phase has recorded so far.
pub fn phase(name: &str) -> (u64, u64) {
    mvqoe_metrics::selfprof::snapshot()
        .into_iter()
        .find(|p| p.phase == name)
        .map_or((0, 0), |p| (p.calls, p.total_ns))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "sessions" => Box::new(sessions::Sessions::setup(seed)),
        "fleet" => Box::new(fleet::Fleet::setup(seed)),
        "ingest" => Box::new(ingest::Ingest::setup(seed)),
        other => {
            return Err(format!(
                "unknown workload {other} (sessions, fleet, ingest)"
            ))
        }
    })
}

/// Run passes from 0 while another one fits in `budget_s` of measured
/// host time, judged by the mean pass so far (at least two passes). Work
/// a pass does outside its timed units, such as a one-off check, does not
/// count against the budget.
fn run_for(w: &mut dyn Workload, budget_s: f64) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut spent = 0.0;
    loop {
        let pass = w.pass(passes.len(), false);
        spent += pass.host_s();
        passes.push(pass);
        if passes.len() >= 2 && spent + spent / passes.len() as f64 > budget_s {
            return passes;
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let w = match setup(&args.workload, args.seed) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    let mut metrics = Metrics::default();
    let (passes, traced) = if args.trace {
        let untraced = run_for(w.as_mut(), args.seconds / 2.0);
        let traced = traced_passes(w.as_mut(), &args, &untraced, &mut metrics);
        (untraced, Some(traced))
    } else {
        (run_for(w.as_mut(), args.seconds), None)
    };

    let attempted: u64 = passes
        .iter()
        .chain(traced.iter().flatten())
        .map(|p| p.attempted)
        .sum();
    let mut failed: u64 = passes
        .iter()
        .chain(traced.iter().flatten())
        .map(|p| p.failed)
        .sum();
    let mut problems: Vec<String> = passes
        .iter()
        .chain(traced.iter().flatten())
        .flat_map(|p| p.problems.iter().cloned())
        .collect();
    // Every pass of the same inputs must simulate the same thing.
    if let Some(traced) = &traced {
        for (k, (u, t)) in passes.iter().zip(traced).enumerate() {
            if u.fingerprint != t.fingerprint {
                failed += 1;
                problems.push(format!(
                    "pass {k}: traced fingerprint differs from untraced"
                ));
            }
        }
    }

    let run = Summary::of(&passes, w.pick());
    metrics.set("setup_s", stats::median(&setup_s));
    metrics.set("peak_rss_mib", mvqoe_core::peak_rss_mib().unwrap_or(0.0));
    metrics.set("sim_s_per_s", stats::ratio(run.sim_s, run.host_s));
    metrics.set("op_ms_p50", run.op_ms(0.50));
    metrics.set("op_ms_p95", run.op_ms(0.95));

    println!(
        "workload {}  seed {}  passes {}  host {:.3} s",
        args.workload,
        args.seed,
        passes.len(),
        passes.iter().map(Pass::host_s).sum::<f64>(),
    );
    println!(
        "fingerprint {}:{:016x}  (simulated statistics of pass 0)",
        args.workload, passes[0].fingerprint
    );
    for (k, p) in passes.iter().enumerate() {
        let ops = sorted_ops(p.units.iter());
        println!(
            "  pass {k:<3} host {:>9.4} s  simulated {:>12.0} s  {:>12.1} sim_s/s  ops {:>4}  op p50 {:.4} ms",
            p.host_s(),
            p.sim_s(),
            stats::ratio(p.sim_s(), p.host_s()),
            ops.len(),
            stats::quantile(&ops, 0.5),
        );
    }
    for (name, value, unit) in w.headline(&run) {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    let error_rate = stats::ratio(failed as f64, attempted as f64);
    println!(
        "  {:<34} {:>14.6} ({failed} of {attempted} operations)",
        "error_rate", error_rate
    );
    for p in problems.iter().take(20) {
        println!("  FAILED: {p}");
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::with_capacity(wanted.len());
    let mut correct = failed == 0;
    for &(name, unit) in wanted {
        let value = metrics.get(name).unwrap_or(0.0);
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            println!("  FAILED: metric {name} is not finite");
            0.0
        };
        println!("  {name:<34} {value:>14.4} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Repeat the untraced passes with spans and self-profiling on, write the
/// trace file and fill in the tracing ledger.
fn traced_passes(
    w: &mut dyn Workload,
    args: &Args,
    untraced: &[Pass],
    metrics: &mut Metrics,
) -> Vec<Pass> {
    mvqoe_metrics::selfprof::reset();
    mvqoe_metrics::selfprof::set_enabled(true);
    let origin = Instant::now();
    spans::record_on_this_thread(origin);
    let traced: Vec<Pass> = (0..untraced.len()).map(|k| w.pass(k, true)).collect();
    let wall_ns = origin.elapsed().as_nanos() as u64;
    let main_spans = spans::take();
    mvqoe_metrics::selfprof::set_enabled(false);

    w.per_layer(metrics);
    let untraced_s: f64 = untraced.iter().map(Pass::host_s).sum();
    let traced_s: f64 = traced.iter().map(Pass::host_s).sum();
    metrics.set(
        "trace.overhead_pct",
        (stats::ratio(traced_s, untraced_s) - 1.0) * 100.0,
    );

    // Layer self times on the main thread, with self-profiled phases moved
    // from the enclosing layer into their own.
    let (mut layers, covered) = spans::self_times(&main_spans);
    for (from, to, ns) in w.phase_moves() {
        let moved = ns.min(layers.get(from).copied().unwrap_or(0));
        *layers.entry(from).or_insert(0) -= moved;
        *layers.entry(to).or_insert(0) += moved;
    }
    for (layer, ns) in &layers {
        metrics.set(
            &format!("self_pct.{layer}"),
            *ns as f64 * 100.0 / wall_ns.max(1) as f64,
        );
    }
    let unaccounted = wall_ns.saturating_sub(covered);
    metrics.set(
        "trace.unaccounted_pct",
        unaccounted as f64 * 100.0 / wall_ns.max(1) as f64,
    );

    let side = w.side_spans();
    let mut threads: Vec<(u32, &str, &[spans::Span])> = vec![(1, "main", &main_spans)];
    for (tid, name, s) in &side {
        threads.push((*tid, name, s));
    }
    let total: usize = threads.iter().map(|t| t.2.len()).sum();
    metrics.set("trace.spans", total as f64);
    let path =
        PathBuf::from(TRACE_DIR).join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    match spans::write_chrome_trace(&path, &threads, TRACE_FILE_CAP) {
        Ok(n) => println!("trace: {n} of {total} spans written to {}", path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
    println!(
        "self time per layer (main thread, {:.3} s traced wall):",
        wall_ns as f64 / 1e9
    );
    for (layer, ns) in &layers {
        println!("  {layer:<12} {:>10.3} ms", *ns as f64 / 1e6);
    }
    println!(
        "  {:<12} {:>10.3} ms",
        "unaccounted",
        unaccounted as f64 / 1e6
    );
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &serde::Value, key: &str, field: &str) -> Vec<String> {
        let Some(serde::Value::Seq(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no list {key}");
        };
        items
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(|x| x.as_str())
                    .expect("string field")
                    .to_string()
            })
            .collect()
    }

    /// The metrics this program prints are the ones BENCHMARK.json declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<String> = list.iter().map(|(n, _)| n.to_string()).collect();
            let units: Vec<String> = list.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(names(&v, key, "name"), want, "{key} names");
            assert_eq!(names(&v, key, "unit"), units, "{key} units");
        }
        assert_eq!(
            names(&v, "workloads", "name"),
            ["sessions", "fleet", "ingest"]
        );
    }
}
