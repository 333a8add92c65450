//! The traced run: times the calls into each layer from outside, around
//! the crates' public functions, and keeps the spans in memory until the
//! run reports.

use crate::check;
use crate::report::{RunResult, PER_LAYER};
use crate::serve_load::{self, End, Session};
use crate::stats;
use crate::workload::{self, Circuit, Run, Spec};
use powder::apply::apply_substitution;
use powder::gain::{analyze_fast, analyze_full};
use powder::{check_equivalence, EquivOutcome, OptimizeConfig, OptimizeReport, RoundHook};
use powder_atpg::{
    generate_candidates_scoped, CandidateScope, CheckArena, CheckOutcome, Substitution,
};
use powder_library::Library;
use powder_netlist::blif::{read_blif, write_blif};
use powder_netlist::{partition_windows, Netlist, WindowConfig};
use powder_passes::{
    AnalysisSession, EgraphPass, PassBudget, PowderPass, RedundancyPass, ResizePass, ResumePoint,
    RunCheckpoint, SessionConfig, SweepPass, Transform,
};
use powder_power::{PowerConfig, PowerEstimator};
use powder_sim::{simulate, stem_observability_all, CellCovers, Patterns};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Round snapshots probed per circuit, spread over the run.
const SNAPSHOTS_PER_CIRCUIT: usize = 4;
/// Most proofs probed per snapshot, to bound the traced run's length.
const MAX_CHECKS_PER_SNAPSHOT: usize = 64;
/// Candidates per snapshot given the full `PG_C` analysis.
const FULL_GAINS_PER_SNAPSHOT: usize = 64;
/// Window size for the partition probe on workloads that do not window.
const PROBE_WINDOW: usize = 256;
/// Backtrack budget of the exact equivalence check (`powder equiv`'s).
const EQUIV_BACKTRACK_LIMIT: usize = 1_000_000;
/// The serve probe's circuit: a job that computes in a few tens of
/// milliseconds, so protocol handling, polling and store writes show.
const SERVE_PROBE_CIRCUIT: &str = "c8";
/// Jobs the serve probe sends.
const SERVE_PROBE_JOBS: usize = 20;
/// The passes, in pipeline order, that the pass probe runs one by one.
const PASS_ORDER: &[&str] = &["sweep", "egraph", "powder", "resize", "redundancy"];

/// Per-layer sums, keyed by metric name.
#[derive(Default)]
struct Acc(BTreeMap<&'static str, f64>);

impl Acc {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(name, t.elapsed().as_secs_f64());
        r
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What the round hook saw during one traced optimize call.
#[derive(Default)]
struct Rounds {
    last: Option<Instant>,
    seconds: Vec<f64>,
    snapshots: Vec<(Netlist, Patterns)>,
}

fn recorder() -> (Arc<Mutex<Rounds>>, RoundHook) {
    let rounds = Arc::new(Mutex::new(Rounds::default()));
    let sink = Arc::clone(&rounds);
    let hook = RoundHook::new(move |snap| {
        let now = Instant::now();
        let mut r = sink.lock().expect("round recorder lock");
        if let Some(last) = r.last {
            r.seconds.push((now - last).as_secs_f64());
        }
        r.last = Some(now);
        r.snapshots.push((snap.nl.clone(), snap.patterns.clone()));
    });
    (rounds, hook)
}

/// The POWDER reports of a pipeline run.
fn powder_reports(run: &Run) -> impl Iterator<Item = &OptimizeReport> {
    run.report.passes.iter().filter_map(|p| p.optimize.as_ref())
}

/// Traced run of any workload.
pub fn run(spec: &Spec, seed: u64, lib: &Arc<Library>) -> RunResult {
    let mut acc = Acc::default();
    let mut out = RunResult::default();
    let cfg = workload::optimize_config(spec, seed);
    let circuits = match workload::build(spec.circuits, lib) {
        Ok(c) => c,
        Err(e) => {
            out.fail_run(e);
            return finish(out, &acc);
        }
    };

    // Each circuit untraced, then traced, back to back so that both
    // calls see the machine in the same state.
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut runs = Vec::new();
    let mut snapshots = Vec::new();
    let mut round_s = Vec::new();
    for c in &circuits {
        let run = workload::run_one(&c.nl, spec, &cfg, None);
        untraced_s += run.wall;
        out.outcomes.attempted += 1;
        if let Err(e) = check::output(&c.nl, &run.nl, spec, seed) {
            out.fail(format!("{}: {e}", c.name));
        }
        let (rounds, hook) = recorder();
        rounds.lock().expect("round recorder lock").last = Some(Instant::now());
        let traced = workload::run_one(&c.nl, spec, &cfg, Some(hook));
        traced_s += traced.wall;
        if write_blif(&traced.nl) != write_blif(&run.nl)
            || workload::fingerprint(&traced.report) != workload::fingerprint(&run.report)
        {
            out.fail_run(format!("{}: traced run differs from untraced run", c.name));
        }
        let mut r = std::mem::take(&mut *rounds.lock().expect("round recorder lock"));
        round_s.append(&mut r.seconds);
        // Probe as many proofs per snapshot as the optimizer ran per
        // round on this circuit (up to a bound), so probed layer times
        // keep its mix.
        let (checks, rounds_run) =
            powder_reports(&run).fold((0, 0), |(k, r), o| (k + o.atpg_checks, r + o.rounds));
        snapshots.push((
            spread(r.snapshots, SNAPSHOTS_PER_CIRCUIT),
            checks
                .div_ceil(rounds_run.max(1))
                .min(MAX_CHECKS_PER_SNAPSHOT),
        ));
        runs.push(run);
    }
    acc.add(
        "trace.overhead_pct",
        stats::overhead_pct(traced_s, untraced_s),
    );
    acc.add("core.round_s_p50", stats::median(&round_s));
    acc.add("core.round_s_max", stats::max(&round_s));

    // Counts from the reports.
    for run in &runs {
        for o in powder_reports(run) {
            acc.add("core.rounds", o.rounds as f64);
            acc.add("core.commits", o.applied.len() as f64);
            acc.add("core.atpg_checks", o.atpg_checks as f64);
            acc.add("core.atpg_rejections", o.atpg_rejections as f64);
            acc.add("core.delay_rejections", o.delay_rejections as f64);
        }
        acc.add("engine.proofs", run.report.engine.proved as f64);
        acc.add(
            "engine.speculative_hits",
            run.report.engine.speculative_hits as f64,
        );
        acc.add("engine.invalidated", run.report.engine.invalidated as f64);
    }
    acc.add(
        "core.commit_ratio",
        stats::ratio(acc.get("core.commits"), acc.get("core.atpg_checks")),
    );
    acc.add(
        "engine.spec_hit_ratio",
        stats::ratio(
            acc.get("engine.speculative_hits"),
            acc.get("engine.speculative_hits") + acc.get("engine.invalidated"),
        ),
    );

    // The engine's bit-identity guarantee: jobs 1 reproduces jobs = nproc.
    let t_checks = Instant::now();
    if spec.jobs != 1 {
        let seq = OptimizeConfig {
            jobs: 1,
            ..cfg.clone()
        };
        for (c, run) in circuits.iter().zip(&runs) {
            if write_blif(&workload::run_one(&c.nl, spec, &seq, None).nl) != write_blif(&run.nl) {
                out.fail_run(format!("{}: jobs 1 and jobs {} differ", c.name, spec.jobs));
            }
        }
    }

    let t_equiv = Instant::now();
    for (c, run) in circuits.iter().zip(&runs) {
        match check_equivalence(&c.nl, &run.nl, EQUIV_BACKTRACK_LIMIT) {
            Ok(EquivOutcome::Equivalent) => acc.add("atpg.equiv_proved", 1.0),
            Ok(EquivOutcome::Unknown) => acc.add("atpg.equiv_undetermined", 1.0),
            Ok(EquivOutcome::Inequivalent { output, .. }) => {
                out.fail_run(format!("{}: output {output} not equivalent", c.name));
            }
            Err(e) => out.fail_run(format!("{}: {e}", c.name)),
        }
        acc.add("netlist.gates_in", c.nl.live_gate_count() as f64);
        acc.add("netlist.gates_out", run.nl.live_gate_count() as f64);
        let size = spec.window.unwrap_or(PROBE_WINDOW);
        let plan = acc.time("netlist.partition_s", || {
            partition_windows(
                &c.nl,
                WindowConfig {
                    size,
                    overlap: size / 8,
                },
            )
        });
        acc.add("netlist.windows", plan.len() as f64);
    }

    out.notes.push(format!(
        "{}: jobs-1 reruns {:.1} s, exact equivalence {:.1} s",
        spec.name,
        (t_equiv - t_checks).as_secs_f64(),
        t_equiv.elapsed().as_secs_f64()
    ));
    let t_probes = Instant::now();
    for (snaps, checks) in &snapshots {
        for (nl, patterns) in snaps {
            probe_snapshot(&mut acc, nl, patterns, spec, &cfg, *checks);
        }
    }

    // Replays of the committed substitutions (the pipeline workload
    // replays inside the pass probe, where the powder pass's input
    // netlist exists).
    if spec.passes == "powder" {
        for (c, run) in circuits.iter().zip(&runs) {
            let subs: Vec<Substitution> = powder_reports(run)
                .flat_map(|o| o.applied.iter().map(|a| a.substitution))
                .collect();
            replay(&mut acc, &mut out, c.name, &c.nl, &subs);
        }
    }

    // Every pass alone on the pipeline's circuits; on the other
    // workloads on their probe circuit.
    let probe = circuits
        .iter()
        .find(|c| c.name == spec.probe)
        .expect("the probe circuit is one of the workload's");
    let pass_inputs: Vec<&Circuit> = if spec.passes.contains(',') {
        circuits.iter().collect()
    } else {
        vec![probe]
    };
    for c in pass_inputs {
        probe_passes(&mut acc, &mut out, c, spec, &cfg);
    }

    out.notes.push(format!(
        "{}: layer probes {:.1} s",
        spec.name,
        t_probes.elapsed().as_secs_f64()
    ));
    match serve_probe(spec, seed, lib, &cfg) {
        Ok((s, standalone_s)) => {
            let latency = serve_layers(&mut acc, &s, standalone_s);
            out.notes.push(format!(
                "stress: serve probe: serving overhead is {:.1}% of the job latency p50 (> 50%)",
                100.0 * stats::ratio(acc.get("serve.overhead_s"), latency)
            ));
        }
        Err(e) => out.fail_run(format!("serve probe: {e}")),
    }
    out.notes.push(format!(
        "{}: traced {traced_s:.3} s vs untraced {untraced_s:.3} s over {} optimize calls",
        spec.name,
        circuits.len()
    ));
    let phases =
        runs.iter()
            .flat_map(powder_reports)
            .fold(powder::PhaseTimes::default(), |mut sum, o| {
                sum.accumulate(&o.phase);
                sum
            });
    out.notes.push(stress_check(spec, &acc, &phases, untraced_s));
    finish(out, &acc)
}

/// Layer times the snapshot and replay probes measure.
const PROBED_TIMES: &[&str] = &[
    "core.gain_fast_s",
    "core.gain_full_s",
    "core.apply_s",
    "atpg.candidates_s",
    "atpg.proved_s",
    "atpg.refuted_s",
    "atpg.aborted_s",
    "sim.simulate_s",
    "sim.observability_s",
    "power.estimate_s",
    "timing.sta_build_s",
    "timing.sta_update_s",
    "passes.checkpoint_encode_s",
    "passes.checkpoint_decode_s",
];

/// Whether the workload stresses the layer it was chosen for, in one
/// line: the share the workload's selection rests on, and the largest
/// probed layer time.
fn stress_check(
    spec: &Spec,
    acc: &Acc,
    phases: &powder::PhaseTimes,
    wall_s: f64,
) -> String {
    let largest = PROBED_TIMES
        .iter()
        .max_by(|a, b| acc.get(a).total_cmp(&acc.get(b)))
        .expect("probed times are listed");
    let share = |num: f64, den: f64| 100.0 * stats::ratio(num, den);
    let claim = match spec.name {
        "refute" => format!(
            "{:.1}% of proofs rejected (>= 90%)",
            share(acc.get("core.atpg_rejections"), acc.get("core.atpg_checks"))
        ),
        "commit" => format!(
            "candidate generation is {:.1}% of the optimizer's phase time",
            share(phases.candidates, phases.total())
        ),
        _ => format!(
            "redundancy + egraph alone take {:.1}% of the pipeline's wall time (> 50%)",
            share(
                acc.get("passes.redundancy_s") + acc.get("passes.egraph_s"),
                wall_s
            )
        ),
    };
    format!(
        "stress: {}: {claim}; largest probed layer time {largest}",
        spec.name
    )
}

fn finish(mut out: RunResult, acc: &Acc) -> RunResult {
    for &(name, _) in PER_LAYER {
        out.set(name, acc.get(name));
    }
    out.set(
        "atpg.useful_ratio",
        stats::ratio(acc.get("atpg.proved"), acc.get("atpg.checks")),
    );
    out
}

/// Up to `n` items spread evenly over `items`, first and last included.
fn spread<T>(items: Vec<T>, n: usize) -> Vec<T> {
    let len = items.len();
    if len <= n {
        return items;
    }
    let keep: Vec<usize> = (0..n).map(|i| i * (len - 1) / (n - 1)).collect();
    items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep.contains(i))
        .map(|(_, x)| x)
        .collect()
}

/// Dense scope masks for one window, as the windowed driver builds them.
fn window_scope(bound: usize, w: &powder_netlist::Window) -> CandidateScope {
    let mut targets = vec![false; bound];
    for &g in &w.core {
        targets[g.0 as usize] = true;
    }
    let mut sources = vec![false; bound];
    for g in w.scope() {
        sources[g.0 as usize] = true;
    }
    CandidateScope { targets, sources }
}

/// Simulation, observability, power, candidates, gains, `checks` ATPG
/// proofs (best fast gain first, as the optimizer tries them) and
/// checkpoint encoding on one round snapshot.
fn probe_snapshot(
    acc: &mut Acc,
    nl: &Netlist,
    patterns: &Patterns,
    spec: &Spec,
    cfg: &OptimizeConfig,
    checks: usize,
) {
    let covers = CellCovers::new(nl.library());
    let values = acc.time("sim.simulate_s", || simulate(nl, &covers, patterns));
    acc.time("sim.observability_s", || {
        stem_observability_all(nl, &covers, &values)
    });
    let est = acc.time("power.estimate_s", || {
        PowerEstimator::new(nl, &PowerConfig::default())
    });

    let scopes: Vec<Option<CandidateScope>> = match spec.window {
        Some(size) => partition_windows(
            nl,
            WindowConfig {
                size,
                overlap: size / 8,
            },
        )
        .windows
        .iter()
        .map(|w| Some(window_scope(nl.id_bound(), w)))
        .collect(),
        None => vec![None],
    };
    for scope in &scopes {
        let cands = acc.time("atpg.candidates_s", || {
            generate_candidates_scoped(nl, &covers, &values, &cfg.candidates, scope.as_ref())
        });
        acc.add("atpg.candidates", cands.len() as f64);
        let mut scored: Vec<(Substitution, f64)> = acc.time("core.gain_fast_s", || {
            cands
                .into_iter()
                .map(|s| {
                    let g = analyze_fast(nl, &est, &s).fast();
                    (s, g)
                })
                .collect()
        });
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        acc.time("core.gain_full_s", || {
            for (s, _) in scored.iter().take(FULL_GAINS_PER_SNAPSHOT) {
                std::hint::black_box(analyze_full(nl, &est, s));
            }
        });
        let mut arena = CheckArena::new();
        for (s, _) in scored.iter().take(checks.div_ceil(scopes.len())) {
            let t = Instant::now();
            let outcome = match scope {
                Some(sc) => arena.check_scoped(nl, s, cfg.backtrack_limit, &sc.sources),
                None => arena.check(nl, s, cfg.backtrack_limit),
            };
            let dt = t.elapsed().as_secs_f64();
            // A scoped proof reports any counterexample as `Aborted`
            // (its witness may be spurious outside the window); settle
            // those with an untimed whole-netlist check so refutations
            // and genuine aborts are told apart.
            let outcome = match (&outcome, scope) {
                (CheckOutcome::Aborted, Some(_)) => match arena.check(nl, s, cfg.backtrack_limit) {
                    CheckOutcome::NotPermissible(w) => CheckOutcome::NotPermissible(w),
                    _ => CheckOutcome::Aborted,
                },
                _ => outcome,
            };
            acc.add("atpg.checks", 1.0);
            let (count, time) = match outcome {
                CheckOutcome::Permissible => ("atpg.proved", "atpg.proved_s"),
                CheckOutcome::NotPermissible(_) => ("atpg.refuted", "atpg.refuted_s"),
                CheckOutcome::Aborted => ("atpg.aborted", "atpg.aborted_s"),
            };
            acc.add(count, 1.0);
            acc.add(time, dt);
        }
    }

    let cp = RunCheckpoint {
        position: ResumePoint::default(),
        netlist: powder_netlist::write_snapshot(nl),
        pattern_bits: (0..patterns.inputs())
            .map(|i| patterns.input_bits(i).to_vec())
            .collect(),
        pattern_tail: patterns.tail_used(),
    };
    let text = acc.time("passes.checkpoint_encode_s", || cp.to_text());
    let decoded = acc.time("passes.checkpoint_decode_s", || {
        RunCheckpoint::from_text(&text)
    });
    debug_assert!(decoded.is_ok());
}

/// Re-applies committed substitutions to `start`, timing each apply and
/// the incremental STA update over its dirty region.
fn replay(acc: &mut Acc, out: &mut RunResult, name: &str, start: &Netlist, subs: &[Substitution]) {
    let mut nl = start.clone();
    nl.drain_dirty();
    let cfg = TimingConfig {
        output_load: PowerConfig::default().output_load,
        required_time: Some(workload::required_time(start, 1.0)),
    };
    let mut sta = acc.time("timing.sta_build_s", || TimingAnalysis::new(&nl, &cfg));
    for (i, sub) in subs.iter().enumerate() {
        if !sub.is_structurally_valid(&nl) {
            out.notes.push(format!(
                "{name}: replay stopped at commit {i} of {} (ids diverged)",
                subs.len()
            ));
            return;
        }
        acc.time("core.apply_s", || apply_substitution(&mut nl, sub));
        let region = nl.drain_dirty();
        acc.time("timing.sta_update_s", || sta.update(&nl, &region));
    }
}

/// Each pass alone, in pipeline order, on one session.
fn probe_passes(
    acc: &mut Acc,
    out: &mut RunResult,
    c: &Circuit,
    spec: &Spec,
    cfg: &OptimizeConfig,
) {
    let resize_required = spec.delay_factor.map(|f| workload::required_time(&c.nl, f));
    let budget = PassBudget {
        backtrack_limit: cfg.backtrack_limit,
        ..PassBudget::default()
    };
    let mut sess = AnalysisSession::new(c.nl.clone(), SessionConfig::from_optimize(cfg));
    for &name in PASS_ORDER {
        let mut pass: Box<dyn Transform> = match name {
            "sweep" => Box::new(SweepPass),
            "egraph" => Box::new(EgraphPass::new(powder_egraph::EgraphConfig::default())),
            "powder" => Box::new(PowderPass::new(cfg.clone())),
            "resize" => Box::new(ResizePass::new(resize_required)),
            _ => Box::new(RedundancyPass),
        };
        let before = (name == "powder").then(|| sess.netlist().clone());
        let report = pass.run(&mut sess, &budget);
        let (time, edits) = match name {
            "sweep" => ("passes.sweep_s", "passes.sweep_edits"),
            "egraph" => ("passes.egraph_s", "passes.egraph_edits"),
            "powder" => ("passes.powder_s", "passes.powder_edits"),
            "resize" => ("passes.resize_s", "passes.resize_edits"),
            _ => ("passes.redundancy_s", "passes.redundancy_edits"),
        };
        acc.add(time, report.seconds);
        acc.add(edits, report.edits as f64);
        if let Some(e) = &report.egraph {
            acc.add("egraph.cones", e.cones as f64);
            acc.add("egraph.nodes", e.nodes as f64);
            acc.add("egraph.applied", e.applied as f64);
            acc.add("egraph.rollbacks", e.rollbacks as f64);
        }
        if let (Some(start), Some(o), true) = (&before, &report.optimize, spec.passes.contains(','))
        {
            let subs: Vec<Substitution> = o.applied.iter().map(|a| a.substitution).collect();
            replay(acc, out, c.name, start, &subs);
        }
    }
}

/// A short serve run of [`SERVE_PROBE_CIRCUIT`] with the workload's
/// flags, for the serve layer's metrics; returns the session and the
/// standalone `Pipeline::run` seconds of the same spec.
fn serve_probe(
    spec: &Spec,
    seed: u64,
    lib: &Arc<Library>,
    cfg: &OptimizeConfig,
) -> Result<(Session, f64), String> {
    let c = workload::build(&[SERVE_PROBE_CIRCUIT], lib)?.remove(0);
    let text = write_blif(&c.nl);
    let input = read_blif(&text, Arc::clone(lib)).map_err(|e| e.to_string())?;
    let standalone = workload::run_one(&input, spec, cfg, None);
    let dir = serve_load::work_dir().join(format!("probe-{}", std::process::id()));
    let daemon = serve_load::Daemon::start(&dir, lib)?;
    let session = serve_load::drive(daemon, spec, seed, &text, SERVE_PROBE_JOBS);
    let _ = std::fs::remove_dir_all(&dir);
    let session = session?;
    let reference = write_blif(&standalone.nl);
    for job in &session.jobs {
        match &job.end {
            End::Done(blif) if *blif == reference => {}
            End::Done(_) => return Err("served result differs from the standalone run".into()),
            End::Shed => return Err("probe job shed".into()),
            End::Error(e) => return Err(e.clone()),
        }
    }
    Ok((session, standalone.wall))
}

/// Medians of the serve phases over the probe's jobs; returns the
/// median submit → result latency.
fn serve_layers(acc: &mut Acc, s: &Session, standalone_s: f64) -> f64 {
    let p50 = |f: &dyn Fn(&serve_load::Job) -> f64| {
        stats::median(&s.jobs.iter().map(f).collect::<Vec<_>>())
    };
    acc.add("serve.submit_rtt_s", p50(&|j| j.submit));
    acc.add("serve.queue_wait_s", p50(&|j| j.queue_wait));
    acc.add("serve.run_s", p50(&|j| j.run));
    acc.add("serve.result_rtt_s", p50(&|j| j.result));
    acc.add("serve.overhead_s", p50(&|j| j.latency - standalone_s));
    acc.add("serve.shed", s.shed);
    acc.add("serve.retries", s.retries);
    p50(&|j| j.latency)
}
