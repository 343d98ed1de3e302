//! Runners that regenerate every table and figure of the paper's
//! evaluation (§6). Each function returns a rendered markdown table; the
//! `tables` binary dispatches on experiment id.
//!
//! One file per experiment family, each a study → render → JSON chain over
//! the shared pieces in this module:
//!
//! * `modules` — Tables 3–6, Figures 4 and 9, `trace`: loops over the
//!   module descriptor list (`modules::MODULES`). A new module is one more
//!   descriptor, not one more copy of each table.
//! * `system` — Tables 7–11 and the ablations: the full proving system
//!   against the baselines.
//! * `pool` — `scaling` and `faults`: the scaling batch across a device
//!   pool, fault-free and under scripted faults.
//! * `service` — `serve` and the BENCH.json `service` section: one
//!   generic `service_study` over any [`batchzk_zkp::ProverBackend`]. A new
//!   backend is one more `instance_for` arm, not one more replay loop.
//! * `backends` — `backends` and the BENCH.json `backends` section.
//! * `timeline` — the flight-recorder report and `TIMELINE.json`.
//! * `bench_json` — the BENCH.json artifact assembled from the above.
//! * `profile` — phase attribution of one single-thread host prove.

use std::sync::Arc;
use std::time::Instant;

use batchzk_field::Fr;
use batchzk_zkp::r1cs::synthetic_r1cs;
use batchzk_zkp::{PcsParams, SpartanBackend};

mod backends;
mod bench_json;
mod modules;
mod pool;
mod profile;
mod service;
mod system;
mod timeline;

pub use backends::{backends, validate_trace_backends, MIXED_TRACE};
pub use bench_json::{bench_json, bench_json_with_wall_clock};
pub use modules::{fig4, fig9, table3, table4, table5, table6, trace};
pub use pool::{faults, profile_by_name, scaling};
pub use profile::{profile, profile_json, PhaseProfile, ProfileStudy};
pub use service::{reference_plan, serve, REFERENCE_TRACE};
pub use system::{ablation, table10, table11, table7, table8, table9};
pub use timeline::{timeline, TimelineArtifacts};

/// Thread budget for module pipelines (the paper's §4 example budget).
const MODULE_THREADS: u32 = 10_240;
/// Concurrent kernels in the naive baselines.
const NAIVE_CONCURRENCY: usize = 4;

fn pcs_params() -> PcsParams {
    PcsParams {
        num_col_tests: 32,
        ..PcsParams::default()
    }
}

/// The synthetic R1CS circuit every system-level experiment proves: the
/// sumcheck backend over it plus the one satisfying instance, which
/// batches repeat.
struct Circuit {
    backend: SpartanBackend<Fr>,
    instance: (Vec<Fr>, Vec<Fr>),
}

impl Circuit {
    fn synthetic(log_n: u32) -> Self {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << log_n, 42);
        Self {
            backend: SpartanBackend::new(Arc::new(r1cs), pcs_params()),
            instance: (inputs, witness),
        }
    }

    fn instances(&self, count: usize) -> Vec<(Vec<Fr>, Vec<Fr>)> {
        vec![self.instance.clone(); count]
    }
}

/// Runs `f` once, returning its result and the elapsed wall milliseconds.
fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// The sparkline glyph for a fraction of full scale: a blank for idle, then
/// the decile `1`–`9` (9 = fully busy).
fn decile_glyph(fraction: f64) -> char {
    const GLYPHS: [char; 10] = [' ', '1', '2', '3', '4', '5', '6', '7', '8', '9'];
    GLYPHS[((fraction * 9.0).round() as usize).min(9)]
}

/// Renders one `name : [glyphs]` sparkline per row, names padded to a
/// common width, each cell scaled against `full_scale(row)`.
fn render_sparklines(rows: &[(String, Vec<u64>)], full_scale: impl Fn(&[u64]) -> u64) -> String {
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, row) in rows {
        let full = full_scale(row) as f64;
        out.push_str(&format!("{name:width$} : ["));
        out.extend(row.iter().map(|&v| decile_glyph(v as f64 / full)));
        out.push_str("]\n");
    }
    out
}

#[cfg(test)]
fn tiny_scale() -> crate::scale::Scale {
    crate::scale::Scale {
        module_logs: vec![8, 7],
        // >> pipeline depth (9 stages at 2^8) so steady state holds.
        module_batch: 40,
        system_logs: vec![9, 8],
        system_batch: 3,
        vgg_divisor: 64,
        vgg_batch: 2,
        scaling_log: 8,
        scaling_batch: 48,
        service_log: 8,
        service_probe_batch: 8,
        backends_log: 8,
        backends_batch: 3,
        wall_log: 8,
        wall_batch: 48,
        tag: "test",
    }
}
