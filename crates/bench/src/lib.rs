//! Benchmark harness regenerating every table and figure in the QServe
//! paper's evaluation (§6). The README's "Reproduce the paper's evaluation"
//! is the experiment index.
//!
//! Each experiment is a function returning a [`report::Table`]; the
//! `reproduce` binary prints them (`cargo run --release -p qserve-bench
//! --bin reproduce -- all`).

mod accuracy;
mod efficiency;
pub mod report;
mod scheduling;
pub mod timing;

pub use report::Table;

use qserve_gpusim::GpuSpec;
use qserve_model::ModelConfig;

/// The one registry: `(id, regenerated by `reproduce all`, runner)`, in
/// evaluation order. The two ids outside `all` are `table2quick` (the
/// accuracy suite on two models only) and `mega_sweep` (the full
/// million-request event-core reproduce: minutes of runtime;
/// `mega_sweep_smoke` is its CI-sized stand-in).
const EXPERIMENTS: &[(&str, bool, fn() -> Vec<Table>)] = &[
    ("fig1", true, || vec![efficiency::fig1()]),
    ("fig2a", true, || vec![efficiency::fig2a()]),
    ("fig2b", true, || vec![efficiency::fig2b()]),
    ("fig3", true, || vec![efficiency::fig3()]),
    ("table1", true, || vec![efficiency::table1()]),
    ("table2", true, || vec![accuracy::table2(&ModelConfig::accuracy_suite())]),
    ("table3", true, || vec![accuracy::table3()]),
    ("table5", true, || vec![accuracy::table5()]),
    ("table4", true, || {
        vec![efficiency::table4(&GpuSpec::a100()), efficiency::table4(&GpuSpec::l40s())]
    }),
    ("fig16", true, || vec![accuracy::fig16_accuracy(), efficiency::fig16_efficiency()]),
    ("fig17", true, || {
        vec![
            efficiency::fig17(&ModelConfig::llama2_7b(), &[4, 8, 16, 32, 64]),
            efficiency::fig17(&ModelConfig::llama2_13b(), &[2, 4, 8, 16, 32]),
        ]
    }),
    ("fig18", true, || vec![efficiency::fig18()]),
    ("table6", true, || vec![efficiency::table6()]),
    ("attn_breakdown", true, || vec![efficiency::attn_breakdown()]),
    ("microbench", true, || vec![efficiency::microbench()]),
    ("sched_sweep", true, || vec![scheduling::sched_sweep()]),
    ("prefix_sweep", true, || vec![scheduling::prefix_sweep()]),
    ("cluster_sweep", true, || vec![scheduling::cluster_sweep()]),
    ("hetero_sweep", true, || vec![scheduling::hetero_sweep()]),
    ("mega_sweep_smoke", true, || vec![scheduling::mega_sweep_smoke()]),
    ("failure_sweep", true, || vec![scheduling::failure_sweep()]),
    ("elastic_sweep", true, || vec![scheduling::elastic_sweep()]),
    ("table2quick", false, || {
        vec![accuracy::table2(&[ModelConfig::llama3_8b(), ModelConfig::llama2_7b()])]
    }),
    ("mega_sweep", false, || vec![scheduling::mega_sweep()]),
];

/// Every experiment id `reproduce all` regenerates, in evaluation order.
pub fn experiment_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().filter(|(_, in_all, _)| *in_all).map(|(id, ..)| *id).collect()
}

/// The runner behind an id — `None` for an unknown id. Resolving costs
/// nothing, so a caller can reject a bad id list before running any of it.
pub fn resolve_experiment(id: &str) -> Option<fn() -> Vec<Table>> {
    EXPERIMENTS.iter().find(|(known, ..)| *known == id).map(|(.., run)| *run)
}

/// Runs one experiment by id, returning its tables — `None` for an unknown
/// id.
pub fn run_experiment(id: &str) -> Option<Vec<Table>> {
    resolve_experiment(id).map(|run| run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_all_keeps_its_order() {
        for (i, (id, ..)) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|(seen, ..)| seen != id), "duplicate id '{}'", id);
        }
        assert_eq!(
            experiment_ids(),
            [
                "fig1", "fig2a", "fig2b", "fig3", "table1", "table2", "table3", "table5", "table4",
                "fig16", "fig17", "fig18", "table6", "attn_breakdown", "microbench", "sched_sweep",
                "prefix_sweep", "cluster_sweep", "hetero_sweep", "mega_sweep_smoke",
                "failure_sweep", "elastic_sweep",
            ]
        );
        for outside_all in ["table2quick", "mega_sweep"] {
            assert!(resolve_experiment(outside_all).is_some());
            assert!(!experiment_ids().contains(&outside_all));
        }
    }
}
