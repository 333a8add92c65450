//! Exact per-pattern observability by forward difference propagation.
//!
//! The observability mask of a signal has bit `t` set iff flipping the
//! signal's value on pattern `t` flips at least one primary output — the
//! bit-parallel analogue of fault-simulating the stuck-at fault pair at the
//! signal, as used by the candidate-generation machinery of refs \[2,5\].

use crate::{CellCovers, SimValues};
use powder_netlist::{Conn, GateId, GateKind, Netlist};
use std::collections::{HashMap, HashSet};

/// Topological positions of the live gates, indexed by raw gate id (dead
/// ids map to `u32::MAX`): the `pos` argument every observability query
/// takes. Valid until the next structural edit of `nl`; callers compute
/// it once and share it across queries.
#[must_use]
pub fn topo_positions(nl: &Netlist) -> Vec<u32> {
    let mut pos = vec![u32::MAX; nl.id_bound()];
    for (i, g) in nl.topo_order().into_iter().enumerate() {
        pos[g.0 as usize] = i as u32;
    }
    pos
}

/// Observability mask of stem `stem`: for each pattern, whether flipping the
/// stem (all its branches at once) is visible at any primary output.
///
/// `pos` comes from [`topo_positions`]; work is `O(|TFO| · words)`.
#[must_use]
pub fn stem_observability(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    stem: GateId,
    pos: &[u32],
) -> Vec<u64> {
    let flipped: Vec<u64> = values.get(stem).iter().map(|w| !w).collect();
    propagate_difference(nl, covers, values, stem, &flipped, None, pos)
}

/// Observability mask of one branch `conn` of stem `stem`: flipping the
/// value *as seen by that sink pin only*.
///
/// Branch observability is never smaller than what IS2 filtering needs: an
/// input substitution only alters the value entering that one pin.
#[must_use]
pub fn branch_observability(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    stem: GateId,
    conn: Conn,
    pos: &[u32],
) -> Vec<u64> {
    let flipped: Vec<u64> = values.get(stem).iter().map(|w| !w).collect();
    propagate_difference(nl, covers, values, stem, &flipped, Some(conn), pos)
}

/// Window-local observability of `stem`: difference propagation is
/// bounded by `scope` (a dense gate mask), and a difference counts as
/// observed the moment it reaches a primary output inside the scope *or
/// any edge leaving it*. This over-approximates true observability —
/// downstream logic outside the window might mask the difference — which
/// is exactly the convention of the window-local permissibility proof
/// (`powder_atpg::CheckArena::check_scoped`): the filter never rejects a
/// candidate the scoped proof could accept.
///
/// `pos` maps raw gate ids to topological positions (callers compute it
/// once per generation round from [`Netlist::topo_order`]); work is
/// `O(scoped TFO · words)`, independent of the netlist size.
#[must_use]
pub fn stem_observability_scoped(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    stem: GateId,
    scope: &[bool],
    pos: &[u32],
) -> Vec<u64> {
    let flipped: Vec<u64> = values.get(stem).iter().map(|w| !w).collect();
    propagate_difference_scoped(nl, covers, values, stem, &flipped, None, scope, pos)
}

/// Scoped variant of [`branch_observability`]; see
/// [`stem_observability_scoped`] for the escape-edge convention.
#[must_use]
pub fn branch_observability_scoped(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    stem: GateId,
    conn: Conn,
    scope: &[bool],
    pos: &[u32],
) -> Vec<u64> {
    let flipped: Vec<u64> = values.get(stem).iter().map(|w| !w).collect();
    propagate_difference_scoped(nl, covers, values, stem, &flipped, Some(conn), scope, pos)
}

/// Observability masks for every live stem, indexed by raw gate id (dead
/// gates get empty vectors). `O(Σ |TFO| · words)` overall: the
/// topological positions are computed once for all stems.
#[must_use]
pub fn stem_observability_all(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
) -> Vec<Vec<u64>> {
    let pos = topo_positions(nl);
    let mut out = vec![Vec::new(); nl.id_bound()];
    for id in nl.iter_live() {
        if matches!(nl.kind(id), GateKind::Output) {
            continue;
        }
        out[id.0 as usize] = stem_observability(nl, covers, values, id, &pos);
    }
    out
}

/// Forces the word `forced` onto `source` — onto its stem, or only onto
/// the sink pin `only_branch` when given — propagates the difference
/// exactly through the transitive fanout, and returns the OR of the
/// resulting primary-output differences: bit `t` is set iff pattern `t`
/// tells the forced circuit from the simulated one.
///
/// `values` must be the simulation of `nl` and `pos` its
/// [`topo_positions`]. Returns all zeros without walking the fanout when
/// `forced` equals the current value.
#[must_use]
pub fn propagate_difference(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    source: GateId,
    forced: &[u64],
    only_branch: Option<Conn>,
    pos: &[u32],
) -> Vec<u64> {
    let words = values.words();
    let mut obs = vec![0u64; words];
    if forced == values.get(source) {
        return obs;
    }

    // Sort the TFO by topological position so each gate is evaluated after
    // all its (possibly modified) fanins.
    let mut tfo: Vec<GateId> = match only_branch {
        Some(conn) => {
            let mut v = nl.tfo(conn.gate);
            v.push(conn.gate);
            v
        }
        None => nl.tfo(source),
    };
    tfo.sort_by_key(|g| pos[g.0 as usize]);

    // modified[g] = packed values under the forced difference, only for
    // gates whose value actually changed.
    let mut modified: HashMap<GateId, Vec<u64>> = HashMap::new();
    if only_branch.is_none() {
        modified.insert(source, forced.to_vec());
    }

    let mut fanin_words: Vec<u64> = Vec::with_capacity(8);
    for &g in &tfo {
        match nl.kind(g) {
            GateKind::Input | GateKind::Const(_) => {}
            GateKind::Output => {
                let src = nl.fanins(g)[0];
                if let Some(mv) = modified.get(&src) {
                    for w in 0..words {
                        obs[w] |= mv[w] ^ values.get(src)[w];
                    }
                }
            }
            GateKind::Cell(c) => {
                let fanins = nl.fanins(g);
                // Skip gates none of whose fanins changed (and which are not
                // the special branch sink).
                let is_branch_sink = only_branch.is_some_and(|b| b.gate == g);
                if !is_branch_sink && !fanins.iter().any(|f| modified.contains_key(f)) {
                    continue;
                }
                let mut new_vals = vec![0u64; words];
                for w in 0..words {
                    fanin_words.clear();
                    for (pin, f) in fanins.iter().enumerate() {
                        let base = match modified.get(f) {
                            Some(mv) => mv[w],
                            None => values.get(*f)[w],
                        };
                        let v = match only_branch {
                            Some(b) if b.gate == g && b.pin == pin as u32 => forced[w],
                            _ => base,
                        };
                        fanin_words.push(v);
                    }
                    new_vals[w] = covers.eval_word(c, &fanin_words);
                }
                if new_vals != values.get(g) {
                    modified.insert(g, new_vals);
                }
            }
        }
    }
    obs
}

/// Scope-bounded difference propagation: like [`propagate_difference`],
/// but the walk never leaves `scope`, and the value difference at any
/// escaping edge is OR-ed into the observability mask.
#[allow(clippy::too_many_arguments)]
fn propagate_difference_scoped(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    source: GateId,
    forced: &[u64],
    only_branch: Option<Conn>,
    scope: &[bool],
    pos: &[u32],
) -> Vec<u64> {
    let words = values.words();
    let mut obs = vec![0u64; words];
    let changed: Vec<u64> = forced
        .iter()
        .zip(values.get(source))
        .map(|(f, o)| f ^ o)
        .collect();
    if changed.iter().all(|&w| w == 0) {
        return obs;
    }
    let in_scope = |g: GateId| scope.get(g.0 as usize).copied().unwrap_or(false);

    // The scoped transitive fanout: a breadth-first walk over fanout
    // edges that never expands outside the mask.
    let mut tfo: Vec<GateId> = Vec::new();
    let mut seen: HashSet<GateId> = HashSet::new();
    let mut frontier: Vec<GateId> = Vec::new();
    match only_branch {
        Some(conn) => {
            if !in_scope(conn.gate) {
                // The branch leaves the window immediately: the flipped
                // value is visible right on the escaping edge.
                return changed;
            }
            seen.insert(conn.gate);
            frontier.push(conn.gate);
            tfo.push(conn.gate);
        }
        None => {
            if nl.fanouts(source).iter().any(|c| !in_scope(c.gate)) {
                // A stem branch escapes: the difference is observed there
                // on every changed pattern, and propagation inside the
                // window can only add to that.
                for w in 0..words {
                    obs[w] |= changed[w];
                }
            }
            for c in nl.fanouts(source) {
                if in_scope(c.gate) && seen.insert(c.gate) {
                    frontier.push(c.gate);
                    tfo.push(c.gate);
                }
            }
        }
    }
    while let Some(g) = frontier.pop() {
        for c in nl.fanouts(g) {
            if in_scope(c.gate) && seen.insert(c.gate) {
                frontier.push(c.gate);
                tfo.push(c.gate);
            }
        }
    }
    tfo.sort_by_key(|g| pos[g.0 as usize]);

    let mut modified: HashMap<GateId, Vec<u64>> = HashMap::new();
    if only_branch.is_none() {
        modified.insert(source, forced.to_vec());
    }
    let mut fanin_words: Vec<u64> = Vec::with_capacity(8);
    for &g in &tfo {
        match nl.kind(g) {
            GateKind::Input | GateKind::Const(_) => {}
            GateKind::Output => {
                let src = nl.fanins(g)[0];
                if let Some(mv) = modified.get(&src) {
                    for w in 0..words {
                        obs[w] |= mv[w] ^ values.get(src)[w];
                    }
                }
            }
            GateKind::Cell(c) => {
                let fanins = nl.fanins(g);
                let is_branch_sink = only_branch.is_some_and(|b| b.gate == g);
                if !is_branch_sink && !fanins.iter().any(|f| modified.contains_key(f)) {
                    continue;
                }
                let mut new_vals = vec![0u64; words];
                for w in 0..words {
                    fanin_words.clear();
                    for (pin, f) in fanins.iter().enumerate() {
                        let base = match modified.get(f) {
                            Some(mv) => mv[w],
                            None => values.get(*f)[w],
                        };
                        let v = match only_branch {
                            Some(b) if b.gate == g && b.pin == pin as u32 => forced[w],
                            _ => base,
                        };
                        fanin_words.push(v);
                    }
                    new_vals[w] = covers.eval_word(c, &fanin_words);
                }
                if new_vals != values.get(g) {
                    if nl.fanouts(g).iter().any(|c| !in_scope(c.gate)) {
                        // The changed signal feeds logic outside the
                        // window: observed at the escaping edge.
                        for w in 0..words {
                            obs[w] |= new_vals[w] ^ values.get(g)[w];
                        }
                    }
                    modified.insert(g, new_vals);
                }
            }
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Patterns};
    use powder_library::lib2;
    use std::sync::Arc;

    /// f = (a ^ c) & b — flipping d=(a^c) is observable exactly when b=1.
    #[test]
    fn xor_and_observability() {
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_cell("d", xor2, &[a, c]);
        let f = nl.add_cell("f", and2, &[d, b]);
        nl.add_output("fo", f);
        let covers = CellCovers::new(nl.library());
        let p = Patterns::exhaustive(3);
        let v = simulate(&nl, &covers, &p);
        let pos = topo_positions(&nl);
        let obs_d = stem_observability(&nl, &covers, &v, d, &pos);
        for m in 0..8usize {
            let expect = m & 2 != 0; // b = input index 1
            assert_eq!((obs_d[m / 64] >> (m % 64)) & 1 == 1, expect, "pattern {m}");
        }
        // The output stem itself is always observable.
        let obs_f = stem_observability(&nl, &covers, &v, f, &pos);
        for m in 0..8usize {
            assert_eq!((obs_f[m / 64] >> (m % 64)) & 1, 1);
        }
    }

    /// With reconvergence, naive chain-rule observability would be wrong;
    /// difference propagation is exact. f = a ^ a via two paths is constant,
    /// so the internal signals are never observable... use g = (a&b) | (a&!b)
    /// = a: flipping branch a→(a&b) is observable iff b=1.
    #[test]
    fn branch_vs_stem_observability_reconvergent() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let andn2 = lib.find_by_name("andn2").unwrap(); // a*!b
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", andn2, &[a, b]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        nl.add_output("f", g3);
        let covers = CellCovers::new(nl.library());
        let p = Patterns::exhaustive(2);
        let v = simulate(&nl, &covers, &p);

        // Stem a: flipping a flips f = a always. Observable on all patterns.
        let pos = topo_positions(&nl);
        let obs_a = stem_observability(&nl, &covers, &v, a, &pos);
        for m in 0..4usize {
            assert_eq!((obs_a[0] >> m) & 1, 1, "stem a pattern {m}");
        }
        // Branch a→g1 (pin 0 of g1): flip changes g1 = a&b only when b=1;
        // then f = (!a&b) | (a&!b)... compare exactly:
        let conn = nl
            .fanouts(a)
            .iter()
            .copied()
            .find(|c| c.gate == g1)
            .unwrap();
        let obs_branch = branch_observability(&nl, &covers, &v, a, conn, &pos);
        for m in 0..4usize {
            let (av, bv) = (m & 1 != 0, m & 2 != 0);
            let f_orig = av;
            let f_flip = (!av && bv) || (av && !bv);
            assert_eq!(
                (obs_branch[0] >> m) & 1 == 1,
                f_orig != f_flip,
                "branch pattern {m}"
            );
        }
    }

    #[test]
    fn all_stems_bulk_matches_single() {
        let lib = Arc::new(lib2());
        let nand2 = lib.find_by_name("nand2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", nand2, &[a, b]);
        let g2 = nl.add_cell("g2", nand2, &[g1, b]);
        nl.add_output("f", g2);
        let covers = CellCovers::new(nl.library());
        let p = Patterns::random(2, 4, 9);
        let v = simulate(&nl, &covers, &p);
        let all = stem_observability_all(&nl, &covers, &v);
        let pos = topo_positions(&nl);
        for id in [a, b, g1, g2] {
            assert_eq!(
                all[id.0 as usize],
                stem_observability(&nl, &covers, &v, id, &pos)
            );
        }
    }
}
