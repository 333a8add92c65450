//! The metrics a run reports and the result line it ends with.

use crate::stats::Outcomes;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("power_reduction_pct", "%"),
    ("area_reduction_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.rounds", "count"),
    ("core.commits", "count"),
    ("core.atpg_checks", "count"),
    ("core.atpg_rejections", "count"),
    ("core.delay_rejections", "count"),
    ("core.round_s_p50", "s"),
    ("core.round_s_max", "s"),
    ("core.commit_ratio", "ratio"),
    ("core.gain_fast_s", "s"),
    ("core.gain_full_s", "s"),
    ("core.apply_s", "s"),
    ("engine.proofs", "count"),
    ("engine.speculative_hits", "count"),
    ("engine.invalidated", "count"),
    ("engine.spec_hit_ratio", "ratio"),
    ("atpg.candidates", "count"),
    ("atpg.candidates_s", "s"),
    ("atpg.checks", "count"),
    ("atpg.proved", "count"),
    ("atpg.refuted", "count"),
    ("atpg.aborted", "count"),
    ("atpg.proved_s", "s"),
    ("atpg.refuted_s", "s"),
    ("atpg.aborted_s", "s"),
    ("atpg.useful_ratio", "ratio"),
    ("atpg.equiv_proved", "count"),
    ("atpg.equiv_undetermined", "count"),
    ("sim.simulate_s", "s"),
    ("sim.observability_s", "s"),
    ("power.estimate_s", "s"),
    ("timing.sta_build_s", "s"),
    ("timing.sta_update_s", "s"),
    ("netlist.gates_in", "count"),
    ("netlist.gates_out", "count"),
    ("netlist.windows", "count"),
    ("netlist.partition_s", "s"),
    ("passes.sweep_s", "s"),
    ("passes.egraph_s", "s"),
    ("passes.powder_s", "s"),
    ("passes.resize_s", "s"),
    ("passes.redundancy_s", "s"),
    ("passes.sweep_edits", "count"),
    ("passes.egraph_edits", "count"),
    ("passes.powder_edits", "count"),
    ("passes.resize_edits", "count"),
    ("passes.redundancy_edits", "count"),
    ("egraph.cones", "count"),
    ("egraph.nodes", "count"),
    ("egraph.applied", "count"),
    ("egraph.rollbacks", "count"),
    ("passes.checkpoint_encode_s", "s"),
    ("passes.checkpoint_decode_s", "s"),
    ("serve.submit_rtt_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.result_rtt_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured and whether its outputs were correct.
#[derive(Default)]
pub struct RunResult {
    metrics: Vec<(&'static str, f64)>,
    /// How the run's optimize calls ended.
    pub outcomes: Outcomes,
    /// One line per correctness failure.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records metric `name` (which must be declared in [`END_TO_END`]
    /// or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics.push((name, value));
    }

    /// Records a correctness failure of one optimize call.
    pub fn fail(&mut self, message: String) {
        self.outcomes.failed += 1;
        self.failures.push(message);
    }

    /// Records a failed check that belongs to no single optimize call.
    pub fn fail_run(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Whether every output passed its checks.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.outcomes.failed == 0
    }

    /// Prints the metrics by name with their units, the notes, and the
    /// final JSON result line. `declared` is the metric list the run
    /// must report in full.
    pub fn print(&self, declared: &[(&str, &str)]) {
        for note in &self.notes {
            println!("{note}");
        }
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
        println!(
            "failed_pct = {:.3} % ({} of {} attempted)",
            self.outcomes.failed_pct(),
            self.outcomes.failed,
            self.outcomes.attempted
        );
        let mut body = Vec::new();
        for &(name, unit) in declared {
            let value = self.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
            // A run that failed early reports what it measured; a correct
            // run must measure everything.
            let Some(value) = value.filter(|v| v.is_finite()) else {
                assert!(!self.correct(), "metric {name} was not measured");
                continue;
            };
            println!("{name} = {value} {unit}");
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.outcomes.attempted.max(1),
            self.outcomes.failed.max(u64::from(!self.correct())),
            body.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(json.matches(&entry).count(), 1, "{entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
