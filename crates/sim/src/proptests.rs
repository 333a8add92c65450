//! Property-based tests: the bit-parallel simulator against a naive
//! per-pattern reference evaluator, and observability against brute-force
//! output flipping.

use crate::{
    branch_observability, simulate, stem_observability, topo_positions, CellCovers, Patterns,
};
use powder_library::lib2;
use powder_netlist::{GateId, GateKind, Netlist};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn build(inputs: usize, ops: &[(u8, u8, u8)]) -> Netlist {
    let lib = Arc::new(lib2());
    let names = [
        "and2", "or2", "nand2", "nor2", "xor2", "xnor2", "inv1", "aoi21",
    ];
    let cells: Vec<_> = names
        .iter()
        .map(|n| lib.find_by_name(n).expect("cell"))
        .collect();
    let mut nl = Netlist::new("p", lib);
    let mut sigs: Vec<GateId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    for (k, (op, a, b)) in ops.iter().enumerate() {
        let cell = cells[*op as usize % cells.len()];
        let lib = nl.library().clone();
        let need = lib.cell_ref(cell).inputs();
        let mut fanins = Vec::with_capacity(need);
        for j in 0..need {
            let pick = match j {
                0 => *a as usize,
                1 => *b as usize,
                _ => (*a as usize) ^ (*b as usize).rotate_left(3),
            };
            fanins.push(sigs[pick % sigs.len()]);
        }
        sigs.push(nl.add_cell(format!("g{k}"), cell, &fanins));
    }
    let n = sigs.len();
    for (i, &s) in sigs[n.saturating_sub(2)..].iter().enumerate() {
        nl.add_output(format!("f{i}"), s);
    }
    nl
}

/// Naive single-pattern evaluation of the whole netlist.
fn reference_eval(nl: &Netlist, assignment: &[bool]) -> HashMap<GateId, bool> {
    let mut val = HashMap::new();
    for (i, &pi) in nl.inputs().iter().enumerate() {
        val.insert(pi, assignment[i]);
    }
    for g in nl.topo_order() {
        let v = match nl.kind(g) {
            GateKind::Input => val[&g],
            GateKind::Const(k) => k,
            GateKind::Output => val[&nl.fanins(g)[0]],
            GateKind::Cell(c) => {
                let mut m = 0u64;
                for (i, f) in nl.fanins(g).iter().enumerate() {
                    if val[f] {
                        m |= 1 << i;
                    }
                }
                nl.library().cell_ref(c).function.eval(m)
            }
        };
        val.insert(g, v);
    }
    val
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every bit of the packed simulation equals the per-pattern reference.
    #[test]
    fn packed_simulation_matches_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..20),
        inputs in 2usize..5,
    ) {
        let nl = build(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(inputs);
        let vals = simulate(&nl, &covers, &pats);
        for m in 0..(1usize << inputs) {
            let assignment: Vec<bool> = (0..inputs).map(|i| (m >> i) & 1 == 1).collect();
            let reference = reference_eval(&nl, &assignment);
            for g in nl.iter_live() {
                let bit = (vals.get(g)[m / 64] >> (m % 64)) & 1 == 1;
                prop_assert_eq!(bit, reference[&g], "gate {} pattern {:#b}", g, m);
            }
        }
    }

    /// Stem observability equals brute force: flip the stem in the
    /// reference model and compare primary outputs.
    #[test]
    fn observability_matches_brute_force(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..14),
        inputs in 2usize..5,
    ) {
        let nl = build(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(inputs);
        let vals = simulate(&nl, &covers, &pats);
        let pos = topo_positions(&nl);
        for g in nl.iter_live().collect::<Vec<_>>() {
            if matches!(nl.kind(g), GateKind::Output) {
                continue;
            }
            let obs = stem_observability(&nl, &covers, &vals, g, &pos);
            for m in 0..(1usize << inputs) {
                let assignment: Vec<bool> = (0..inputs).map(|i| (m >> i) & 1 == 1).collect();
                let reference = reference_eval(&nl, &assignment);
                // Brute force: force g to the complement and re-evaluate
                // downstream.
                let mut forced = reference.clone();
                forced.insert(g, !reference[&g]);
                for h in nl.topo_order() {
                    if h == g || !nl.reaches(g, h) {
                        continue;
                    }
                    let v = match nl.kind(h) {
                        GateKind::Output => forced[&nl.fanins(h)[0]],
                        GateKind::Cell(c) => {
                            let mut mm = 0u64;
                            for (i, f) in nl.fanins(h).iter().enumerate() {
                                if forced[f] {
                                    mm |= 1 << i;
                                }
                            }
                            nl.library().cell_ref(c).function.eval(mm)
                        }
                        _ => continue,
                    };
                    forced.insert(h, v);
                }
                let differs = nl
                    .outputs()
                    .iter()
                    .any(|o| forced[o] != reference[o]);
                let bit = (obs[m / 64] >> (m % 64)) & 1 == 1;
                prop_assert_eq!(bit, differs, "gate {} pattern {:#b}", g, m);
            }
        }
    }

    /// A single-fanout stem's branch observability equals its stem
    /// observability.
    #[test]
    fn single_branch_equals_stem(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..14),
        inputs in 2usize..5,
    ) {
        let nl = build(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(inputs);
        let vals = simulate(&nl, &covers, &pats);
        let pos = topo_positions(&nl);
        for g in nl.iter_live().collect::<Vec<_>>() {
            if matches!(nl.kind(g), GateKind::Output) || nl.fanouts(g).len() != 1 {
                continue;
            }
            let conn = nl.fanouts(g)[0];
            if matches!(nl.kind(conn.gate), GateKind::Output) {
                continue;
            }
            let stem = stem_observability(&nl, &covers, &vals, g, &pos);
            let branch = branch_observability(&nl, &covers, &vals, g, conn, &pos);
            prop_assert_eq!(stem, branch, "gate {}", g);
        }
    }
}
