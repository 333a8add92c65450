//! Integration tests of the pass pipeline: bit-identity of the
//! `powder` pass with the standalone optimizer entry point, the
//! zero-full-refresh guarantee for session-driven passes, and
//! order-independence of the function/power invariants under arbitrary
//! pass permutations.

use powder::gain::analyze_full;
use powder::{optimize, OptimizeConfig, Substitution};
use powder_atpg::{check_substitution, CheckOutcome};
use powder_library::lib2;
use powder_netlist::{blif::write_blif, GateId, GateKind, Netlist};
use powder_passes::{
    build_pipeline, AnalysisSession, PassBudget, RedundancyPass, SessionConfig, Transform,
};
use powder_sim::{simulate, CellCovers, Patterns};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

fn bench_netlist(name: &str) -> Netlist {
    powder_benchmarks::build(name, Arc::new(lib2())).expect("known benchmark")
}

/// Builds a random mapped netlist from a recipe of bytes: `ops[i]` selects
/// a cell and two (or one) fanins among earlier signals.
fn random_netlist(inputs: usize, ops: &[(u8, u8, u8)]) -> Netlist {
    let lib = Arc::new(lib2());
    let cells: Vec<_> = [
        "and2", "or2", "nand2", "nor2", "xor2", "xnor2", "inv1", "andn2",
    ]
    .iter()
    .map(|n| lib.find_by_name(n).expect("lib2 cell"))
    .collect();
    let mut nl = Netlist::new("prop", lib);
    let mut signals: Vec<GateId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    for (k, (op, a, b)) in ops.iter().enumerate() {
        let cell = cells[*op as usize % cells.len()];
        let ca = signals[*a as usize % signals.len()];
        let cb = signals[*b as usize % signals.len()];
        let lib = nl.library().clone();
        let g = if lib.cell_ref(cell).inputs() == 1 {
            nl.add_cell(format!("g{k}"), cell, &[ca])
        } else {
            nl.add_cell(format!("g{k}"), cell, &[ca, cb])
        };
        signals.push(g);
    }
    let n = signals.len();
    for (i, &s) in signals[n.saturating_sub(3)..].iter().enumerate() {
        nl.add_output(format!("f{i}"), s);
    }
    nl
}

fn po_signatures(nl: &Netlist, pats: &Patterns) -> Vec<Vec<u64>> {
    let covers = CellCovers::new(nl.library());
    let vals = simulate(nl, &covers, pats);
    nl.outputs().iter().map(|&o| vals.get(o).to_vec()).collect()
}

/// The `k`-th permutation of the four pass names, via the factorial
/// number system (deterministic for a given index).
fn pass_order(k: usize) -> [&'static str; 4] {
    let names = ["sweep", "powder", "resize", "redundancy"];
    let mut avail: Vec<&str> = names.to_vec();
    let mut k = k % 24;
    let mut out = [""; 4];
    for (i, f) in [6usize, 2, 1, 1].into_iter().enumerate() {
        out[i] = avail.remove(k / f);
        k %= f;
    }
    out
}

/// A debug-build-friendly optimizer config (same trimming as
/// `tests/incremental.rs`): identical decision machinery, smaller
/// pattern volume and round budget.
fn small_config(jobs: usize) -> OptimizeConfig {
    OptimizeConfig {
        jobs,
        sim_words: 2,
        max_rounds: 8,
        repeat: 2,
        ..OptimizeConfig::default()
    }
}

/// `--passes powder` must reproduce the standalone `optimize()` run
/// bit for bit — same substitution decision sequence, same final
/// netlist — with speculation off (jobs 1) and on (jobs 4).
#[test]
fn powder_pass_is_bit_identical_to_standalone_optimize() {
    for jobs in [1usize, 4] {
        let cfg = small_config(jobs);
        let mut standalone_nl = bench_netlist("c8");
        let standalone = optimize(&mut standalone_nl, &cfg);

        let mut sess =
            AnalysisSession::new(bench_netlist("c8"), SessionConfig::from_optimize(&cfg));
        let mut pipeline = build_pipeline("powder", &cfg, None).expect("valid spec");
        let report = pipeline.run(&mut sess);
        let opt = report.passes[0].optimize.as_ref().expect("powder report");

        let subs: Vec<_> = opt.applied.iter().map(|a| a.substitution).collect();
        let subs_standalone: Vec<_> = standalone.applied.iter().map(|a| a.substitution).collect();
        assert_eq!(
            subs, subs_standalone,
            "decision sequence diverged at jobs={jobs}"
        );
        assert_eq!(opt.final_power, standalone.final_power, "jobs={jobs}");
        assert_eq!(
            write_blif(&sess.into_netlist()),
            write_blif(&standalone_nl),
            "final netlist diverged at jobs={jobs}"
        );
    }
}

/// Session-driven resize and redundancy must ride the maintained
/// analyses: zero whole-netlist re-simulations and zero from-scratch
/// power-estimator builds between passes. This is the structural fix
/// over the legacy epilogues, which rebuilt both per call (resize even
/// per gate).
#[test]
fn pipeline_resize_and_redundancy_never_fully_refresh() {
    let cfg = small_config(1);
    let mut sess = AnalysisSession::new(bench_netlist("c8"), SessionConfig::from_optimize(&cfg));
    let mut pipeline =
        build_pipeline("sweep,powder,resize,redundancy", &cfg, None).expect("valid spec");
    let report = pipeline.run(&mut sess);
    for pass in &report.passes {
        if pass.name == "resize" || pass.name == "redundancy" {
            assert_eq!(
                pass.session.full_resims, 0,
                "{} performed a full re-simulation",
                pass.name
            );
            assert_eq!(
                pass.session.full_power_builds, 0,
                "{} rebuilt the power estimator",
                pass.name
            );
        }
    }
    assert_eq!(
        report.session.full_power_builds, 0,
        "no pass may rebuild the estimator; the session owns it"
    );
    sess.into_netlist()
        .validate()
        .expect("valid after pipeline");
}

/// Sweep must terminate on circuits with *false* constant suspicions —
/// gates whose random-pattern signature is all-zeros without the gate
/// being constant (k2's PLA terms are rarely-true, so plenty alias).
/// Regression: a failed tie left the scratch constant dangling, the
/// next iteration swept it as "progress", and the fixpoint loop
/// re-armed the same refuted suspicion forever.
#[test]
fn sweep_terminates_on_false_constant_suspicions() {
    let cfg = small_config(1);
    let nl = bench_netlist("k2");
    let pats = Patterns::random(nl.inputs().len(), cfg.sim_words, cfg.seed);
    let before = po_signatures(&nl, &pats);
    let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));
    let mut pipeline = build_pipeline("sweep", &cfg, None).expect("valid spec");
    let report = pipeline.run(&mut sess);
    assert!(
        report.final_power <= report.initial_power + 1e-9,
        "sweep increased power"
    );
    let out = sess.into_netlist();
    out.validate().expect("valid after sweep");
    assert_eq!(po_signatures(&out, &pats), before, "sweep broke function");
}

/// Asserts that the session's retained signatures equal a fresh
/// simulation of its netlist under its pattern set on every live gate.
fn assert_signatures_fresh(sess: &mut AnalysisSession, context: &str) {
    let covers = CellCovers::new(sess.netlist().library());
    let fresh = simulate(sess.netlist(), &covers, sess.patterns());
    let (nl, values) = sess.signatures();
    for g in nl.iter_live() {
        assert_eq!(
            values.get(g),
            fresh.get(g),
            "{context}: retained signature of {} is stale",
            nl.gate_name(g)
        );
    }
}

/// Every pass, run one at a time on one session, must leave the retained
/// simulation values equal to a fresh simulation — including the tie
/// constants sweep, egraph and redundancy create mid-session. The
/// pass-layer simulation filter and sweep's signature classes both read
/// these values, so a stale word is a wrong decision.
#[test]
fn retained_signatures_stay_fresh_across_passes() {
    let cfg = small_config(1);
    let order = ["sweep", "egraph", "powder", "resize", "redundancy"];
    for name in ["frg2", "ex4", "x3"] {
        let mut sess =
            AnalysisSession::new(bench_netlist(name), SessionConfig::from_optimize(&cfg));
        // Two iterations: the `--fixpoint 2` schedule.
        for iteration in 0..2 {
            for pass in order {
                let mut pipeline = build_pipeline(pass, &cfg, None).expect("valid spec");
                pipeline.run(&mut sess);
                assert_signatures_fresh(&mut sess, &format!("{name} {pass} #{iteration}"));
            }
        }
    }
}

/// `circuit` after `sweep,egraph,powder`, the state in which the
/// `pipeline` flow reaches its redundancy pass.
fn session_before_redundancy(circuit: &str, cfg: &OptimizeConfig) -> AnalysisSession {
    let mut sess = AnalysisSession::new(bench_netlist(circuit), SessionConfig::from_optimize(cfg));
    build_pipeline("sweep,egraph,powder", cfg, None)
        .expect("valid spec")
        .run(&mut sess);
    sess
}

/// The pass-layer simulation filter is sound: every constant tie it
/// rejects is one the exact ATPG check also refuses.
#[test]
fn simulation_refutations_are_never_permissible() {
    let cfg = small_config(1);
    for circuit in ["c8", "ex4"] {
        let mut sess = session_before_redundancy(circuit, &cfg);
        let ties = [
            sess.netlist_mut().add_const("tie0", false),
            sess.netlist_mut().add_const("tie1", true),
        ];
        let cells: Vec<GateId> = sess
            .netlist()
            .iter_live()
            .filter(|&g| matches!(sess.netlist().kind(g), GateKind::Cell(_)))
            .collect();
        let (mut refuted, mut kept) = (0usize, 0usize);
        for g in cells {
            for pin in 0..sess.netlist().fanins(g).len() as u32 {
                for b in ties {
                    let sub = Substitution::Is2 {
                        sink: g,
                        pin,
                        b,
                        invert: false,
                    };
                    if !sub.is_structurally_valid(sess.netlist()) {
                        continue;
                    }
                    if !sess.refutes(&sub) {
                        kept += 1;
                        continue;
                    }
                    refuted += 1;
                    assert_ne!(
                        check_substitution(sess.netlist(), &sub, cfg.backtrack_limit),
                        CheckOutcome::Permissible,
                        "{circuit}: simulation refuted a permissible tie {sub:?}"
                    );
                }
            }
        }
        assert!(
            refuted > 0 && kept > 0,
            "{circuit}: {refuted} refuted, {kept} kept"
        );
    }
}

/// [`RedundancyPass`]'s scan with every candidate tie sent to ATPG —
/// no simulation filter — as the reference its decisions must match:
/// same gate order, same refuted-pin cache, same power gate, same
/// lazily created and finally swept tie constants.
fn redundancy_by_atpg_only(sess: &mut AnalysisSession, backtrack_limit: usize) -> usize {
    let mut edits = 0;
    let mut ties: [Option<GateId>; 2] = [None, None];
    let mut failed: HashSet<(GateId, u32, bool)> = HashSet::new();
    loop {
        let mut changed = false;
        let gates: Vec<GateId> = sess
            .netlist()
            .iter_live()
            .filter(|&g| matches!(sess.netlist().kind(g), GateKind::Cell(_)))
            .collect();
        'gates: for g in gates {
            if !sess.netlist().is_live(g) {
                continue;
            }
            for pin in 0..sess.netlist().fanins(g).len() as u32 {
                let driver = sess.netlist().fanins(g)[pin as usize];
                if matches!(sess.netlist().kind(driver), GateKind::Const(_)) {
                    continue;
                }
                for value in [false, true] {
                    if failed.contains(&(g, pin, value)) {
                        continue;
                    }
                    let b = match ties[usize::from(value)] {
                        Some(k) if sess.netlist().is_live(k) => k,
                        _ => {
                            let name = format!("tie{}", u8::from(value));
                            let k = sess.netlist_mut().add_const(name, value);
                            ties[usize::from(value)] = Some(k);
                            k
                        }
                    };
                    let sub = Substitution::Is2 {
                        sink: g,
                        pin,
                        b,
                        invert: false,
                    };
                    let (nl, est) = sess.analyses();
                    let commit = sub.is_structurally_valid(nl)
                        && analyze_full(nl, est, &sub).total() >= -1e-12
                        && check_substitution(nl, &sub, backtrack_limit)
                            == CheckOutcome::Permissible;
                    if commit {
                        sess.apply(&sub);
                        edits += 1;
                        changed = true;
                        continue 'gates;
                    }
                    failed.insert((g, pin, value));
                }
            }
        }
        if !changed {
            break;
        }
    }
    for k in ties.into_iter().flatten() {
        if sess.netlist().is_live(k) && sess.netlist().fanouts(k).is_empty() {
            sess.sweep_dangling(k);
        }
    }
    edits
}

/// The filter only skips proofs that would fail: the filtered pass
/// commits exactly the ties of the ATPG-only reference scan.
#[test]
fn redundancy_pass_matches_atpg_only_reference() {
    let cfg = small_config(1);
    for circuit in ["c8", "ex4"] {
        let mut filtered = session_before_redundancy(circuit, &cfg);
        let mut reference = session_before_redundancy(circuit, &cfg);
        assert_eq!(
            write_blif(filtered.netlist()),
            write_blif(reference.netlist()),
            "{circuit}: set-up is deterministic"
        );
        let budget = PassBudget {
            backtrack_limit: cfg.backtrack_limit,
            ..PassBudget::default()
        };
        let report = RedundancyPass.run(&mut filtered, &budget);
        let edits = redundancy_by_atpg_only(&mut reference, cfg.backtrack_limit);
        assert_eq!(report.edits, edits, "{circuit}: tie counts differ");
        assert_eq!(
            write_blif(&filtered.into_netlist()),
            write_blif(&reference.into_netlist()),
            "{circuit}: the filtered pass committed different ties"
        );
    }
}

/// An empty or unknown pass list is a configuration error.
#[test]
fn pipeline_spec_errors_are_reported() {
    let cfg = OptimizeConfig::default();
    assert!(build_pipeline("", &cfg, None).is_err());
    assert!(build_pipeline("powder,unknown", &cfg, None).is_err());
    assert!(
        build_pipeline("sweep, powder ,resize", &cfg, None).is_ok(),
        "whitespace tolerated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any permutation of the four passes over a random netlist must
    /// preserve every primary-output signature (exhaustive patterns)
    /// and never increase `Σ C·E`.
    #[test]
    fn any_pass_order_preserves_function_and_power(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..16),
        inputs in 2usize..5,
        perm in 0usize..24,
    ) {
        let nl = random_netlist(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let pats = Patterns::exhaustive(inputs);
        let before = po_signatures(&nl, &pats);
        let cfg = small_config(1);
        let order = pass_order(perm);
        let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));
        let mut pipeline = build_pipeline(&order.join(","), &cfg, None).expect("valid spec");
        let report = pipeline.run(&mut sess);
        let out = sess.into_netlist();
        out.validate().expect("pipeline keeps netlist consistent");
        prop_assert_eq!(
            po_signatures(&out, &pats), before,
            "function broken by order {:?}", order
        );
        prop_assert!(
            report.final_power <= report.initial_power + 1e-9,
            "power increased {} -> {} under order {:?}",
            report.initial_power, report.final_power, order
        );
    }
}
