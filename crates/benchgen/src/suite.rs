//! Benchmark-suite assembly: parameter sweeps, cluster sampling and the
//! satisfiability / minimum-count filters of the paper's methodology (§IV).

use std::collections::HashMap;
use std::time::Duration;

use pact_ir::logic::Logic;
use pact_solver::{IncrementalContext, SolverConfig, SolverResult};

use crate::generators::{generate_for_logic, GenParams};
use crate::instance::Instance;

/// Parameters of a suite build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteParams {
    /// Number of instances generated per logic (before cluster sampling).
    pub per_logic: u32,
    /// Minimum projected bit-width used in the sweep.
    pub min_width: u32,
    /// Maximum projected bit-width used in the sweep.
    pub max_width: u32,
    /// Maximum number of instances kept per cluster, mirroring the paper's
    /// "at most five benchmarks per cluster" sampling.
    pub max_per_cluster: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for SuiteParams {
    fn default() -> Self {
        SuiteParams {
            per_logic: 6,
            min_width: 6,
            max_width: 9,
            max_per_cluster: 5,
            seed: 2023,
        }
    }
}

impl SuiteParams {
    /// A tiny suite for unit tests and smoke runs.
    pub fn smoke() -> Self {
        SuiteParams {
            per_logic: 2,
            min_width: 5,
            max_width: 6,
            max_per_cluster: 5,
            seed: 7,
        }
    }
}

/// Builds the benchmark suite used by the Table I / Fig. 1 harnesses: a
/// parameter sweep over all six logics, then cluster sampling.
pub fn paper_suite(params: &SuiteParams) -> Vec<Instance> {
    let mut instances = Vec::new();
    for logic in Logic::TABLE_ONE {
        for i in 0..params.per_logic {
            let width = params.min_width + (i % (params.max_width - params.min_width + 1));
            let scale = 1 + (i % 3);
            let gen = GenParams {
                scale,
                width,
                seed: params
                    .seed
                    .wrapping_add(u64::from(i))
                    .wrapping_mul(0x100_0000_01b3)
                    ^ (logic as u64),
            };
            instances.push(generate_for_logic(logic, &gen));
        }
    }
    sample_clusters(instances, params.max_per_cluster)
}

/// Keeps at most `max_per_cluster` instances of every cluster, preserving
/// generation order (the paper's de-duplication step).
pub fn sample_clusters(instances: Vec<Instance>, max_per_cluster: usize) -> Vec<Instance> {
    let mut kept = Vec::with_capacity(instances.len());
    let mut counts: HashMap<String, usize> = HashMap::new();
    for inst in instances {
        let seen = counts.entry(inst.cluster.clone()).or_insert(0);
        if *seen < max_per_cluster {
            *seen += 1;
            kept.push(inst);
        }
    }
    kept
}

/// Drops instances that are not obviously satisfiable within a small solver
/// budget — the analogue of the paper's "CVC5 finds a model within 5 s"
/// filter.  Returns the surviving instances.
pub fn filter_satisfiable(instances: Vec<Instance>, budget: Duration) -> Vec<Instance> {
    let conflicts = (budget.as_millis() as u64).max(1) * 10;
    instances
        .into_iter()
        .filter_map(|mut inst| {
            let mut ctx = IncrementalContext::with_config(SolverConfig {
                max_conflicts: Some(conflicts),
                ..SolverConfig::default()
            });
            for &v in &inst.projection {
                ctx.track_var(v);
            }
            for &a in &inst.asserts {
                ctx.assert_term(a);
            }
            match ctx.check(&mut inst.tm) {
                Ok(SolverResult::Sat) => Some(inst),
                _ => None,
            }
        })
        .collect()
}

/// Per-logic instance counts of a suite, in Table I row order.
pub fn count_by_logic(instances: &[Instance]) -> Vec<(Logic, usize)> {
    Logic::TABLE_ONE
        .iter()
        .map(|&logic| (logic, instances.iter().filter(|i| i.logic == logic).count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_logics() {
        let suite = paper_suite(&SuiteParams::smoke());
        let counts = count_by_logic(&suite);
        for (logic, n) in counts {
            assert!(n >= 1, "logic {logic} missing from the suite");
        }
    }

    #[test]
    fn cluster_sampling_caps_duplicates() {
        let params = SuiteParams {
            per_logic: 8,
            min_width: 6,
            max_width: 6, // all instances of a logic share a width bucket
            max_per_cluster: 3,
            seed: 1,
        };
        let suite = paper_suite(&params);
        let mut per_cluster: HashMap<&str, usize> = HashMap::new();
        for inst in &suite {
            *per_cluster.entry(inst.cluster.as_str()).or_default() += 1;
        }
        for (cluster, n) in per_cluster {
            assert!(n <= 3, "cluster {cluster} has {n} instances");
        }
    }

    #[test]
    fn instance_names_are_unique() {
        let suite = paper_suite(&SuiteParams::smoke());
        let mut names: Vec<&str> = suite.iter().map(|i| i.name.as_str()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn satisfiability_filter_keeps_generated_instances() {
        let suite = paper_suite(&SuiteParams::smoke());
        let expected = suite.len();
        let kept = filter_satisfiable(suite, Duration::from_millis(500));
        // Our generators only emit satisfiable formulas, so nothing is lost.
        assert_eq!(kept.len(), expected);
    }
}
