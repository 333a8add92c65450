//! Untimed correctness checks of optimized netlists.

use crate::workload::{required_time, Spec};
use powder_netlist::Netlist;
use powder_sim::{simulate, CellCovers, Patterns};
use std::collections::HashMap;

/// Random-pattern words (64 patterns each) for the function check.
const CHECK_WORDS: usize = 32;

/// Salt that keeps the check's patterns apart from the optimizer's, which
/// are drawn from the bare optimizer seed.
const CHECK_SALT: u64 = 0x0C4E_C4ED_5EED_0001;

/// Checks an optimized `output` against its `input`: structure, function
/// under random patterns the optimizer never saw, and the workload's
/// delay limit.
pub fn output(input: &Netlist, output: &Netlist, spec: &Spec, seed: u64) -> Result<(), String> {
    output
        .validate()
        .map_err(|e| format!("invalid netlist: {e}"))?;
    same_function(input, output, seed ^ CHECK_SALT)?;
    if let Some(factor) = spec.delay_factor {
        let limit = required_time(input, factor);
        let delay = required_time(output, 1.0);
        if delay > limit + 1e-9 * limit.abs().max(1.0) {
            return Err(format!("delay {delay} exceeds the limit {limit}"));
        }
    }
    Ok(())
}

/// Simulates both netlists on the same random patterns (inputs and
/// outputs matched by name) and compares every output.
fn same_function(a: &Netlist, b: &Netlist, seed: u64) -> Result<(), String> {
    let names = |nl: &Netlist, ids: &[powder_netlist::GateId]| -> Vec<String> {
        ids.iter().map(|&g| nl.gate_name(g).to_string()).collect()
    };
    let a_in = names(a, a.inputs());
    let b_in = names(b, b.inputs());
    let a_pos: HashMap<&str, usize> = a_in
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    if a_in.len() != b_in.len() || b_in.iter().any(|n| !a_pos.contains_key(n.as_str())) {
        return Err("primary inputs differ".to_string());
    }
    let pa = Patterns::random(a_in.len(), CHECK_WORDS, seed);
    let pb = Patterns::from_words(
        b_in.iter()
            .map(|n| pa.input_bits(a_pos[n.as_str()]).to_vec())
            .collect(),
    );
    let va = simulate(a, &CellCovers::new(a.library()), &pa);
    let vb = simulate(b, &CellCovers::new(b.library()), &pb);
    let b_out: HashMap<&str, powder_netlist::GateId> =
        b.outputs().iter().map(|&g| (b.gate_name(g), g)).collect();
    if a.outputs().len() != b_out.len() {
        return Err("primary outputs differ".to_string());
    }
    for &ga in a.outputs() {
        let name = a.gate_name(ga);
        let Some(&gb) = b_out.get(name) else {
            return Err(format!("output {name} is missing"));
        };
        if va.get(ga) != vb.get(gb) {
            return Err(format!("output {name} differs under random patterns"));
        }
    }
    Ok(())
}
