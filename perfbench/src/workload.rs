//! The workloads, their set-up, and their untraced measurement.

use crate::check;
use crate::noise;
use crate::report::RunResult;
use crate::stats;
use powder::{DelayLimit, OptimizeConfig, RoundHook};
use powder_library::Library;
use powder_netlist::Netlist;
use powder_passes::{build_pipeline, AnalysisSession, PipelineReport, SessionConfig};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::sync::Arc;
use std::time::Instant;

/// `powder optimize`'s default `--patterns`.
pub const CLI_PATTERNS: usize = 1024;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// One workload: circuits and the flags `powder optimize` would get.
pub struct Spec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Suite circuits, built with `powder_benchmarks::build`.
    pub circuits: &'static [&'static str],
    /// `--passes` list.
    pub passes: &'static str,
    /// `--jobs` (0 = the CLI's automatic default, one per hardware thread).
    pub jobs: usize,
    /// `--window-size`, forcing the windowed driver.
    pub window: Option<usize>,
    /// `--delay-limit` as a factor of the input circuit's delay.
    pub delay_factor: Option<f64>,
    /// A quick circuit of the set, on which the traced run runs each
    /// pass alone when the workload's pass list is a single pass.
    pub probe: &'static str,
}

/// Every workload. The circuit sets are declared, with a version, in
/// `BENCHMARK.json`; keep the two in step.
pub const WORKLOADS: &[Spec] = &[
    // Almost every permissibility proof fails: ATPG refutation, the
    // engine's speculative proofs and the windowed driver.
    Spec {
        name: "refute",
        circuits: &["rot", "i2", "C1908", "C1355"],
        passes: "powder",
        jobs: 0,
        window: Some(256),
        delay_factor: None,
        probe: "C1355",
    },
    // Almost every proof succeeds: candidate generation and the commit
    // path (apply, guard, resimulation) dominate.
    Spec {
        name: "commit",
        circuits: &["example2", "apex6", "apex7", "x1", "bw", "x4", "pair"],
        passes: "powder",
        jobs: 0,
        window: None,
        delay_factor: None,
        probe: "x1",
    },
    // Every pass under a 0 % delay limit on the sequential path: STA,
    // egraph, redundancy, sweep and resize.
    Spec {
        name: "pipeline",
        circuits: &["frg2", "ex4", "x3", "apex7"],
        passes: "sweep,egraph,powder,resize,redundancy",
        jobs: 1,
        window: None,
        delay_factor: Some(1.0),
        probe: "x3",
    },
];

/// The workload called `name`.
pub fn named(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built input circuit.
pub struct Circuit {
    /// Suite name.
    pub name: &'static str,
    /// The mapped netlist.
    pub nl: Netlist,
}

/// The optimizer configuration `powder optimize` builds from the
/// workload's flags, with the workload seed as `--seed`.
pub fn optimize_config(spec: &Spec, seed: u64) -> OptimizeConfig {
    OptimizeConfig {
        sim_words: CLI_PATTERNS.div_ceil(64).max(1),
        seed,
        jobs: spec.jobs,
        window_size: spec.window,
        delay_limit: spec.delay_factor.map(DelayLimit::Factor),
        ..OptimizeConfig::default()
    }
}

/// Builds every circuit of `names` (synthesis and mapping).
pub fn build(names: &[&'static str], lib: &Arc<Library>) -> Result<Vec<Circuit>, String> {
    names
        .iter()
        .map(|&name| {
            powder_benchmarks::build(name, Arc::clone(lib))
                .map(|nl| Circuit { name, nl })
                .map_err(|e| format!("build {name}: {e}"))
        })
        .collect()
}

/// Builds the circuits [`SETUP_REPEATS`] times; returns the last set and
/// the median set-up time.
fn setup(names: &[&'static str], lib: &Arc<Library>) -> Result<(Vec<Circuit>, f64), String> {
    let mut times = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        circuits = build(names, lib)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((circuits, stats::median(&times)))
}

/// The absolute required time a `--delay-limit` factor resolves to on
/// `nl`, as `powder optimize` anchors it for the resize pass.
pub fn required_time(nl: &Netlist, factor: f64) -> f64 {
    let probe = TimingConfig {
        output_load: powder_power::PowerConfig::default().output_load,
        required_time: None,
    };
    factor * TimingAnalysis::new(nl, &probe).circuit_delay()
}

/// One optimize call and what it cost.
pub struct Run {
    /// The optimized netlist.
    pub nl: Netlist,
    /// The pipeline's report.
    pub report: PipelineReport,
    /// Wall seconds of the call (session set-up and pipeline).
    pub wall: f64,
    /// Process CPU seconds over the call.
    pub cpu: f64,
}

/// Runs the workload's pipeline on a copy of `input`, as `powder
/// optimize` does. `hook` observes every committed POWDER round.
pub fn run_one(input: &Netlist, spec: &Spec, cfg: &OptimizeConfig, hook: Option<RoundHook>) -> Run {
    let nl = input.clone();
    let resize_required = spec.delay_factor.map(|f| required_time(&nl, f));
    let mut pipeline =
        build_pipeline(spec.passes, cfg, resize_required).expect("workload pass list is valid");
    pipeline.budget.round_hook = hook;
    let cpu0 = noise::process_cpu_s();
    let t = Instant::now();
    let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(cfg));
    let report = pipeline.run(&mut sess);
    let nl = sess.into_netlist();
    Run {
        wall: t.elapsed().as_secs_f64(),
        cpu: noise::process_cpu_s() - cpu0,
        nl,
        report,
    }
}

/// Counts that must repeat exactly whenever a circuit is optimized again
/// with the same seed.
pub fn fingerprint(report: &PipelineReport) -> Vec<u64> {
    let mut f = vec![report.final_power.to_bits(), report.final_area.to_bits()];
    for p in &report.passes {
        f.push(p.edits as u64);
        if let Some(o) = &p.optimize {
            f.extend(
                [
                    o.rounds,
                    o.atpg_checks,
                    o.atpg_rejections,
                    o.delay_rejections,
                ]
                .map(|n| n as u64),
            );
        }
    }
    f
}

/// The optimizer seed of a circuit's `rep`-th call in a run: the workload
/// seed itself first, then seeds mixed from it. Spreading a run's calls
/// over several seeds keeps one seed that happens to need more rounds
/// from moving the run's median time.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    if rep == 0 {
        seed
    } else {
        let mut state = seed ^ (rep as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        stats::splitmix64(&mut state)
    }
}

/// Untraced measurement of an optimize workload: every circuit in turn,
/// round after round, until `seconds` have passed and every circuit has
/// run at least once. Each circuit's time is the mean over its calls;
/// power and area come from the calls with the workload seed.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, lib: &Arc<Library>) -> RunResult {
    let mut out = RunResult::default();
    let (circuits, setup_s) = match setup(spec.circuits, lib) {
        Ok(v) => v,
        Err(e) => {
            out.fail_run(e);
            return out;
        }
    };
    let n = circuits.len();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut power = Vec::new();
    let mut area = Vec::new();
    let start = Instant::now();
    'rounds: loop {
        for (i, c) in circuits.iter().enumerate() {
            // Stop once every circuit has run and the next call would
            // likely end more than half a call past the measuring time.
            let elapsed = start.elapsed().as_secs_f64();
            if walls.iter().all(|w| !w.is_empty())
                && elapsed + stats::mean(&walls[i]) / 2.0 > seconds
            {
                break 'rounds;
            }
            let rep = walls[i].len();
            let call_seed = rep_seed(seed, rep);
            let run = run_one(&c.nl, spec, &optimize_config(spec, call_seed), None);
            out.outcomes.attempted += 1;
            walls[i].push(run.wall);
            cpus[i].push(run.cpu);
            if let Err(e) = check::output(&c.nl, &run.nl, spec, call_seed) {
                out.fail(format!("{} (seed {call_seed}): {e}", c.name));
            }
            if rep == 0 {
                power.push((run.report.initial_power, run.report.final_power));
                area.push((run.report.initial_area, run.report.final_area));
            }
        }
    }
    // On a shared host the speed can switch between levels for tens of
    // seconds at a time. A median of a few calls snaps to whichever
    // level held most of them; the mean moves only with the share of
    // the run spent at each.
    out.set("wall_s", walls.iter().map(|w| stats::mean(w)).sum());
    out.set("cpu_s", cpus.iter().map(|c| stats::mean(c)).sum());
    out.set("setup_s", setup_s);
    out.set("power_reduction_pct", stats::reduction_pct(&power));
    out.set("area_reduction_pct", stats::reduction_pct(&area));
    out.set("peak_rss_mb", noise::peak_rss_mb());
    out.notes.push(format!(
        "{}: {} optimize calls over {:.1} s, runs per circuit {:?}",
        spec.name,
        out.outcomes.attempted,
        start.elapsed().as_secs_f64(),
        walls.iter().map(Vec::len).collect::<Vec<_>>()
    ));
    out
}
