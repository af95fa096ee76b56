//! Shared harness for the experiment benches.
//!
//! The experiment plumbing itself (scaled configs, method runners,
//! metric evaluation, table printing, the scenario registry) lives in
//! [`tdmatch_scenarios`] so the conformance suite and the CLI share it;
//! this crate re-exports that surface for the `harness = false` bench
//! targets in `benches/`, and holds what the two perf recorders share
//! ([`record`]).
//!
//! Scales are controlled by environment variables so a paper-scale run is
//! one `TDMATCH_SCALE=paper cargo bench` away (the tiers' presets are
//! listed under "Scale tiers" in `docs/SCENARIOS.md`):
//!
//! * `TDMATCH_SCALE` — `tiny` | `small` (default) | `paper`;
//! * `TDMATCH_WALKS`, `TDMATCH_WALK_LEN`, `TDMATCH_DIM`,
//!   `TDMATCH_EPOCHS` — pipeline overrides.

pub mod record;

pub use tdmatch_scenarios::{
    audit_eval, bench_config, evaluate, print_prf_header, print_prf_row, print_ranking_header,
    print_ranking_row, ranking_table, run_pipeline, run_with_config, run_wrw, run_wrw_ex,
    scale_from_env, scale_presets, supervised_options, Method, MethodRun, TABLE_K,
};

pub use tdmatch_scenarios::{methods, registry};
