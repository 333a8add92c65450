//! Benchmarks the incremental analysis engine and the speculative
//! candidate-evaluation engine: runs POWDER per circuit at `jobs = 1`
//! (no speculation) and `jobs = 4`, replays each committed sequence to
//! time the incremental analysis refresh against a from-scratch
//! rebuild, and emits a machine-readable `BENCH_optimize.json` with
//! per-circuit wall-clock, per-phase breakdown, refresh counters,
//! per-stage engine counters, and a whole-process `powder-obs` metric
//! snapshot under the top-level `"metrics"` key.
//!
//! Usage:
//!
//! ```text
//! cargo run -p powder-bench --bin bench_optimize --release \
//!     [-- --quick | --circuits=a,b,c] [--scale[=a,b,c]] \
//!     [--scale-deadline=SECS] [--out=BENCH_optimize.json]
//! ```
//!
//! By default the medium `--quick` (trade-off) suite is used; pass
//! `--circuits=` for an explicit list or `--all` for the full Table 1
//! suite. `--scale` additionally runs the windowed optimizer over the
//! generated large circuits (`gen10k`, `gen50k`; `--scale=` picks
//! others) under a per-circuit deadline and emits one JSON row per
//! processed window under the top-level `"scaling"` key.
//!
//! Each circuit additionally runs the full pass pipeline
//! (`sweep,powder,resize,redundancy`) through a shared
//! `AnalysisSession`; the JSON gains one row per executed pass with
//! its power delta and session refresh counters.

use powder::apply::apply_substitution;
use powder::{optimize, DelayLimit, OptimizeConfig, OptimizeReport, Substitution};
use powder_bench::{experiment_config, library};
use powder_netlist::Netlist;
use powder_passes::{build_pipeline, AnalysisSession, PipelineReport, SessionConfig};
use powder_power::PowerEstimator;
use powder_sim::{resimulate_cone, simulate, CellCovers, Patterns};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Pass sequence benchmarked per circuit.
const PIPELINE_SPEC: &str = "sweep,egraph,powder,resize,redundancy";

/// One optimizer run, timed externally for the headline number.
struct Run {
    report: OptimizeReport,
    seconds: f64,
}

/// Isolated measurement of the post-commit analysis refresh: replays a
/// committed substitution sequence and times only the work of bringing
/// simulation values, power totals/probabilities, and STA back in sync
/// after each edit — incrementally (dirty cone) versus from scratch.
/// Returns `(incremental_seconds, full_seconds)`, best of `reps` replays.
fn replay_refresh(
    nl: &Netlist,
    subs: &[Substitution],
    cfg: &OptimizeConfig,
    reps: usize,
) -> (f64, f64) {
    let covers = CellCovers::new(nl.library());
    let pats = Patterns::random(nl.inputs().len(), cfg.sim_words, cfg.seed);
    let initial_delay = TimingAnalysis::new(
        nl,
        &TimingConfig {
            output_load: cfg.power.output_load,
            required_time: None,
        },
    )
    .circuit_delay();
    let tcfg = TimingConfig {
        output_load: cfg.power.output_load,
        required_time: Some(initial_delay),
    };

    let mut best_inc = f64::INFINITY;
    let mut best_full = f64::INFINITY;
    for _ in 0..reps {
        // Incremental: every analysis refreshed over the dirty cone.
        let mut work = nl.clone();
        let mut est = PowerEstimator::new(&work, &cfg.power);
        let mut sta = TimingAnalysis::new(&work, &tcfg);
        let mut values = simulate(&work, &covers, &pats);
        work.drain_dirty();
        let t = Instant::now();
        for sub in subs {
            apply_substitution(&mut work, sub);
            let region = work.drain_dirty();
            let cone = work.dirty_cone(&region);
            est.retire_gates(region.removed());
            est.update_cone(&work, &cone);
            let _ = est.total_power();
            resimulate_cone(&work, &covers, &mut values, &cone);
            sta.update(&work, &region);
        }
        best_inc = best_inc.min(t.elapsed().as_secs_f64());

        // Full: every analysis rebuilt from scratch after each edit.
        let mut work = nl.clone();
        let t = Instant::now();
        for sub in subs {
            apply_substitution(&mut work, sub);
            work.drain_dirty();
            let est = PowerEstimator::new(&work, &cfg.power);
            let _ = est.circuit_power(&work);
            let _ = simulate(&work, &covers, &pats);
            let _ = TimingAnalysis::new(&work, &tcfg);
        }
        best_full = best_full.min(t.elapsed().as_secs_f64());
    }
    (best_inc, best_full)
}

fn run_mode(nl: &Netlist, jobs: usize) -> Run {
    let mut work = nl.clone();
    // Delay-constrained mode so STA refreshes are part of the measurement.
    let cfg = OptimizeConfig {
        jobs,
        ..experiment_config(Some(DelayLimit::Factor(1.0)))
    };
    let t = Instant::now();
    let report = optimize(&mut work, &cfg);
    let seconds = t.elapsed().as_secs_f64();
    Run { report, seconds }
}

/// The candidate-evaluation phase of a run: full-gain analysis plus
/// ATPG proofs — the work the `jobs > 1` pipeline parallelizes and
/// deduplicates.
fn eval_seconds(run: &Run) -> f64 {
    run.report.phase.gain + run.report.phase.atpg
}

/// Best-of-`reps` eval-phase wall clock. Optimizer decisions are a
/// deterministic function of the netlist, so repeat runs differ only
/// in timing; the minimum strips scheduler and cache interference the
/// same way the refresh columns do.
fn best_eval(nl: &Netlist, jobs: usize, first: &Run, reps: usize) -> f64 {
    let mut best = eval_seconds(first);
    for _ in 1..reps {
        best = best.min(eval_seconds(&run_mode(nl, jobs)));
    }
    best
}

fn json_run(out: &mut String, indent: &str, run: &Run) {
    let r = &run.report;
    let p = &r.phase;
    let i = &r.incremental;
    let e = &r.engine;
    let _ = write!(
        out,
        "{indent}{{\n\
         {indent}  \"seconds\": {:.6},\n\
         {indent}  \"jobs\": {},\n\
         {indent}  \"applied\": {},\n\
         {indent}  \"rounds\": {},\n\
         {indent}  \"final_power\": {:.9},\n\
         {indent}  \"phase\": {{ \"simulation\": {:.6}, \"candidates\": {:.6}, \"gain\": {:.6}, \"timing\": {:.6}, \"atpg\": {:.6}, \"apply\": {:.6} }},\n\
         {indent}  \"refreshes\": {{ \"sta_incremental\": {}, \"sim_incremental\": {}, \"sim_full\": {}, \"power_incremental\": {} }},\n\
         {indent}  \"engine\": {{ \"evaluated\": {}, \"filtered\": {}, \"full_gains\": {}, \"proved\": {}, \"speculative_hits\": {}, \"invalidated\": {}, \"retried\": {}, \"filter_seconds\": {:.6}, \"gain_seconds\": {:.6}, \"proof_seconds\": {:.6}, \"arbiter_seconds\": {:.6} }}\n\
         {indent}}}",
        run.seconds,
        r.jobs,
        r.applied.len(),
        r.rounds,
        r.final_power,
        p.simulation,
        p.candidates,
        p.gain,
        p.timing,
        p.atpg,
        p.apply,
        i.incremental_sta_updates,
        i.incremental_resims,
        i.full_resims,
        i.incremental_power_updates,
        e.evaluated,
        e.filtered,
        e.full_gains,
        e.proved,
        e.speculative_hits,
        e.invalidated,
        e.retried,
        e.filter_seconds,
        e.gain_seconds,
        e.proof_seconds,
        e.arbiter_seconds,
    );
}

/// Runs the benchmark pass pipeline on a fresh session over `nl`.
fn run_pipeline(nl: &Netlist) -> PipelineReport {
    let cfg = OptimizeConfig {
        jobs: 1,
        ..experiment_config(Some(DelayLimit::Factor(1.0)))
    };
    let mut sess = AnalysisSession::new(nl.clone(), SessionConfig::from_optimize(&cfg));
    let mut pipeline = build_pipeline(PIPELINE_SPEC, &cfg, None).expect("valid pipeline spec");
    pipeline.run(&mut sess)
}

fn json_pipeline(out: &mut String, indent: &str, report: &PipelineReport) {
    let _ = write!(
        out,
        "{indent}{{\n\
         {indent}  \"spec\": \"{PIPELINE_SPEC}\",\n\
         {indent}  \"seconds\": {:.6},\n\
         {indent}  \"iterations\": {},\n\
         {indent}  \"initial_power\": {:.9},\n\
         {indent}  \"final_power\": {:.9},\n\
         {indent}  \"total_edits\": {},\n\
         {indent}  \"passes\": [\n",
        report.seconds,
        report.iterations,
        report.initial_power,
        report.final_power,
        report.total_edits(),
    );
    for (i, pass) in report.passes.iter().enumerate() {
        let s = &pass.session;
        // The egraph pass carries its own saturation/extraction
        // accounting; other passes emit no "egraph" key.
        let egraph = match &pass.egraph {
            Some(e) => format!(
                ", \"egraph\": {{ \"cones\": {}, \"iters\": {}, \"nodes\": {}, \"saturated\": {}, \"applied\": {}, \"rejected\": {}, \"rollbacks\": {}, \"cost_delta\": {:.9} }}",
                e.cones, e.iters, e.nodes, e.saturated, e.applied, e.rejected, e.rollbacks, e.cost_delta,
            ),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "{indent}    {{ \"name\": \"{}\", \"seconds\": {:.6}, \"power_before\": {:.9}, \"power_after\": {:.9}, \"edits\": {}, \
             \"session\": {{ \"sim_full\": {}, \"sim_incremental\": {}, \"power_full\": {}, \"power_incremental\": {}, \"sta_full\": {}, \"sta_incremental\": {}, \"refreshes\": {} }}{} }}{}",
            pass.name,
            pass.seconds,
            pass.power_before,
            pass.power_after,
            pass.edits,
            s.full_resims,
            s.incremental_resims,
            s.full_power_builds,
            s.incremental_power_updates,
            s.full_sta_builds,
            s.incremental_sta_updates,
            s.refreshes,
            egraph,
            if i + 1 < report.passes.len() { "," } else { "" },
        );
    }
    let _ = write!(out, "{indent}  ]\n{indent}}}");
}

/// One windowed scaling run: auto-policy windows with a wall-clock
/// deadline, reported with one JSON row per processed window.
fn json_scaling_row(out: &mut String, name: &str, gates: usize, run: &Run) {
    let r = &run.report;
    let _ = write!(
        out,
        "    {{\n      \"name\": \"{name}\",\n      \"gates\": {gates},\n      \"seconds\": {:.6},\n      \"windows_processed\": {},\n      \"applied\": {},\n      \"initial_power\": {:.9},\n      \"final_power\": {:.9},\n      \"windows\": [\n",
        run.seconds,
        r.windows.len(),
        r.applied.len(),
        r.initial_power,
        r.final_power,
    );
    for (i, w) in r.windows.iter().enumerate() {
        let p = &w.phase;
        let _ = writeln!(
            out,
            "        {{ \"index\": {}, \"core_gates\": {}, \"scope_gates\": {}, \"commits\": {}, \"power_saved\": {:.9}, \"seconds\": {:.6}, \
             \"phase\": {{ \"simulation\": {:.6}, \"candidates\": {:.6}, \"gain\": {:.6}, \"timing\": {:.6}, \"atpg\": {:.6}, \"apply\": {:.6} }} }}{}",
            w.index,
            w.core_gates,
            w.scope_gates,
            w.commits,
            w.power_saved,
            w.seconds,
            p.simulation,
            p.candidates,
            p.gain,
            p.timing,
            p.atpg,
            p.apply,
            if i + 1 < r.windows.len() { "," } else { "" },
        );
    }
    let _ = write!(out, "      ]\n    }}");
}

fn run_scaling(names: &[String], deadline_secs: f64) -> String {
    let lib = library();
    let mut rows = String::new();
    println!("\n# scaling — windowed POWDER (auto policy) with a {deadline_secs:.0}s deadline per circuit");
    println!(
        "{:<14} {:>7} | {:>9} {:>8} {:>7} | {:>12}",
        "circuit", "gates", "secs", "windows", "subs", "power saved"
    );
    let mut ran = 0usize;
    for name in names {
        let Some(nl) = powder_benchmarks::build_scale(name, lib.clone()) else {
            eprintln!("{name}: skipped (not a scale-suite name)");
            continue;
        };
        let gates = nl.cell_count();
        let mut work = nl.clone();
        let cfg = OptimizeConfig {
            deadline: Some(Instant::now() + std::time::Duration::from_secs_f64(deadline_secs)),
            ..experiment_config(None)
        };
        let t = Instant::now();
        let report = optimize(&mut work, &cfg);
        let run = Run {
            seconds: t.elapsed().as_secs_f64(),
            report,
        };
        // Function-preservation audit: the optimized circuit must agree
        // with the original at every output on random patterns.
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(nl.inputs().len(), 4, 0xA0D17);
        let va = simulate(&nl, &covers, &pats);
        let vb = simulate(&work, &covers, &pats);
        for (&oa, &ob) in nl.outputs().iter().zip(work.outputs()) {
            assert_eq!(
                nl.gate_name(oa),
                work.gate_name(ob),
                "{name}: output order changed"
            );
            assert_eq!(
                va.get(oa),
                vb.get(ob),
                "{name}: output {} diverged after windowed optimization",
                nl.gate_name(oa)
            );
        }
        println!(
            "{:<14} {:>7} | {:>9.3} {:>8} {:>7} | {:>12.6}",
            name,
            gates,
            run.seconds,
            run.report.windows.len(),
            run.report.applied.len(),
            run.report.initial_power - run.report.final_power,
        );
        if ran > 0 {
            rows.push_str(",\n");
        }
        ran += 1;
        json_scaling_row(&mut rows, name, gates, &run);
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_optimize.json")
        .to_string();
    let circuits: Vec<String> =
        if let Some(list) = args.iter().find_map(|a| a.strip_prefix("--circuits=")) {
            list.split(',').map(str::to_string).collect()
        } else if args.iter().any(|a| a == "--all") {
            powder_benchmarks::table1_names()
                .into_iter()
                .map(str::to_string)
                .collect()
        } else {
            powder_benchmarks::tradeoff_names()
                .into_iter()
                .map(str::to_string)
                .collect()
        };

    let lib = library();
    let mut rows = String::new();
    let mut total_jobs1 = 0.0f64;

    let mut total_refresh_inc = 0.0f64;
    let mut total_refresh_full = 0.0f64;

    let mut total_eval_seq = 0.0f64;
    let mut total_eval_par = 0.0f64;

    let mut total_pipeline_seconds = 0.0f64;
    let mut total_pipeline_edits = 0usize;

    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# bench_optimize — POWDER at jobs=1 vs jobs=4");
    println!("# refresh columns: per-commit analysis resync replayed in isolation (best of 3)");
    println!(
        "# eval columns: candidate-evaluation phase (gain + ATPG) at jobs=1 vs jobs=4 (best of 3)"
    );
    println!("# hardware threads available: {hw} (proof-stage parallelism is bounded by this)");
    println!(
        "{:<9} {:>6} | {:>9} | {:>10} {:>10} {:>8} | {:>8} {:>8} {:>7} | {:>5} {:>5}",
        "circuit",
        "gates",
        "jobs1(s)",
        "refr-i(ms)",
        "refr-f(ms)",
        "speedup",
        "ev-1(s)",
        "ev-4(s)",
        "evalx",
        "subs",
        "eq?"
    );

    let mut ran = 0usize;
    for name in &circuits {
        let nl = match powder_benchmarks::build(name, lib.clone()) {
            Ok(nl) => nl,
            Err(e) => {
                eprintln!("{name}: skipped ({e})");
                continue;
            }
        };
        let gates = nl.cell_count();
        let seq = run_mode(&nl, 1);
        let par = run_mode(&nl, 4);
        // Speculation never changes a decision; divergence would mean a
        // consumed cached result went stale.
        let subs: Vec<Substitution> = seq.report.applied.iter().map(|a| a.substitution).collect();
        let par_subs: Vec<Substitution> =
            par.report.applied.iter().map(|a| a.substitution).collect();
        let same = subs == par_subs && seq.report.final_power == par.report.final_power;
        let eval_seq = best_eval(&nl, 1, &seq, 3);
        let eval_par = best_eval(&nl, 4, &par, 3);
        total_eval_seq += eval_seq;
        total_eval_par += eval_par;
        total_jobs1 += seq.seconds;
        let cfg = OptimizeConfig {
            ..experiment_config(Some(DelayLimit::Factor(1.0)))
        };
        let (refresh_inc, refresh_full) = if subs.is_empty() {
            (0.0, 0.0)
        } else {
            replay_refresh(&nl, &subs, &cfg, 3)
        };
        total_refresh_inc += refresh_inc;
        total_refresh_full += refresh_full;
        let pipe = run_pipeline(&nl);
        total_pipeline_seconds += pipe.seconds;
        total_pipeline_edits += pipe.total_edits();
        println!(
            "{:<9} {:>6} | {:>9.3} | {:>10.3} {:>10.3} {:>7.2}x | {:>8.3} {:>8.3} {:>6.2}x | {:>5} {:>5}",
            name,
            gates,
            seq.seconds,
            refresh_inc * 1e3,
            refresh_full * 1e3,
            refresh_full / refresh_inc.max(1e-12),
            eval_seq,
            eval_par,
            eval_seq / eval_par.max(1e-12),
            subs.len(),
            if same { "ok" } else { "DIFF" },
        );
        if ran > 0 {
            rows.push_str(",\n");
        }
        ran += 1;
        let _ = write!(
            rows,
            "    {{\n      \"name\": \"{name}\",\n      \"gates\": {gates},\n      \"results_match\": {same},\n      \"jobs1\":\n"
        );
        json_run(&mut rows, "      ", &seq);
        rows.push_str(",\n      \"jobs4\":\n");
        json_run(&mut rows, "      ", &par);
        rows.push_str(",\n      \"pipeline\":\n");
        json_pipeline(&mut rows, "      ", &pipe);
        let _ = write!(
            rows,
            ",\n      \"refresh\": {{ \"commits\": {}, \"incremental_seconds\": {:.6}, \"full_seconds\": {:.6}, \"speedup\": {:.4} }},\n      \"eval\": {{ \"jobs1_seconds\": {:.6}, \"jobs4_seconds\": {:.6}, \"speedup\": {:.4} }}\n    }}",
            subs.len(),
            refresh_inc,
            refresh_full,
            refresh_full / refresh_inc.max(1e-12),
            eval_seq,
            eval_par,
            eval_seq / eval_par.max(1e-12),
        );
    }

    if ran == 0 {
        eprintln!("no circuit ran; {out_path} not written (see `powder list` for names)");
        std::process::exit(1);
    }

    // Windowed scaling curve: `--scale` runs the default generated
    // sizes; `--scale=a,b,c` an explicit list. Off by default because
    // the large circuits dominate the wall clock.
    let scale_names: Vec<String> =
        if let Some(list) = args.iter().find_map(|a| a.strip_prefix("--scale=")) {
            list.split(',').map(str::to_string).collect()
        } else if args.iter().any(|a| a == "--scale") {
            vec!["gen10k".to_string(), "gen50k".to_string()]
        } else {
            Vec::new()
        };
    let scale_deadline = args
        .iter()
        .find_map(|a| a.strip_prefix("--scale-deadline="))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(300.0);
    let scaling_rows = if scale_names.is_empty() {
        String::new()
    } else {
        run_scaling(&scale_names, scale_deadline)
    };
    let scaling = if scaling_rows.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{scaling_rows}\n  ]")
    };

    // Whole-process registry snapshot: every run above fed the same
    // counters, so this is the benchmark's aggregate observability view.
    let metrics = powder_obs::snapshot().to_json();
    let metrics = metrics.trim_end();
    let json = format!(
        "{{\n  \"experiment\": \"bench_optimize\",\n  \"delay_limit\": \"factor 1.0\",\n  \"hardware_threads\": {hw},\n  \"circuits\": [\n{rows}\n  ],\n  \"scaling\": {scaling},\n  \"totals\": {{ \"jobs1_seconds\": {total_jobs1:.6}, \"refresh_incremental_seconds\": {total_refresh_inc:.6}, \"refresh_full_seconds\": {total_refresh_full:.6}, \"refresh_speedup\": {:.4}, \"eval_jobs1_seconds\": {total_eval_seq:.6}, \"eval_jobs4_seconds\": {total_eval_par:.6}, \"eval_speedup\": {:.4} }},\n  \"metrics\": {metrics}\n}}\n",
        total_refresh_full / total_refresh_inc.max(1e-12),
        total_eval_seq / total_eval_par.max(1e-12),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_optimize.json");
    println!("\ntotal: end-to-end jobs=1 {total_jobs1:.3}s");
    println!(
        "refresh-only: incremental {:.1}ms vs full {:.1}ms ({:.1}x)",
        total_refresh_inc * 1e3,
        total_refresh_full * 1e3,
        total_refresh_full / total_refresh_inc.max(1e-12)
    );
    println!(
        "candidate evaluation: jobs=1 {total_eval_seq:.3}s vs jobs=4 {total_eval_par:.3}s ({:.2}x); wrote {out_path}",
        total_eval_seq / total_eval_par.max(1e-12)
    );
    println!(
        "pipeline ({PIPELINE_SPEC}): {total_pipeline_edits} edits in {total_pipeline_seconds:.3}s across {ran} circuits"
    );
}
