//! Experiment harness regenerating every table and figure of the K-LEB
//! paper's evaluation, plus the ablations listed in DESIGN.md.
//!
//! Each experiment is a library function returning structured results, so
//! the `src/bin/*` binaries stay thin, integration tests can assert on the
//! numbers, and EXPERIMENTS.md can be regenerated mechanically:
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table I | [`experiments::table1_linpack`] | `table1_linpack` |
//! | Fig. 4 | [`experiments::fig4_linpack_phases`] | `fig4_linpack_phases` |
//! | Fig. 5 | [`experiments::fig5_docker_mpki`] | `fig5_docker_mpki` |
//! | Fig. 6 | [`experiments::fig6_meltdown_avg`] | `fig6_meltdown_avg` |
//! | Fig. 7 | [`experiments::fig7_meltdown_series`] | `fig7_meltdown_series` |
//! | Table II | [`experiments::table2_overhead_matmul`] | `table2_overhead_matmul` |
//! | Table III | [`experiments::table3_overhead_dgemm`] | `table3_overhead_dgemm` |
//! | Fig. 8 | [`experiments::fig8_overhead_box`] | `fig8_overhead_box` |
//! | Fig. 9 | [`experiments::fig9_accuracy`] | `fig9_accuracy` |
//! | §V/§VI rate sweep | [`experiments::ablation_rate_sweep`] | `ablation_rate_sweep` |
//! | §III buffer safety | [`experiments::ablation_buffer`] | `ablation_buffer` |
//! | §VI jitter | [`experiments::ablation_jitter`] | `ablation_jitter` |
//! | §II-B multiplexing | [`experiments::ablation_multiplex`] | `ablation_multiplex` |
//! | cost-profile ablation | [`experiments::ablation_cost_profiles`] | `ablation_cost_profiles` |
//! | §IV AWS verification | [`experiments::aws_verification`] | `verify_aws` |

pub mod experiments;
mod scale;

pub use scale::Scale;
