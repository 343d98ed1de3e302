//! # batchzk-metrics
//!
//! Service-level observability for the BatchZK reproduction: a
//! deterministic, dependency-free metrics [`Registry`] (counters, gauges,
//! log₂-bucketed histograms with p50/p95/p99), per-proof lifecycle
//! [`Span`]s in simulated device cycles, a windowed flight-recorder
//! [`timeline`] (fixed-width cycle windows with bounded 2:1
//! downsampling), a deterministic [`alerts`] engine that evaluates
//! declarative SLO rules window-by-window into an ordered fire/resolve
//! log, and the one [`json`] writer every artifact renders through. The
//! analyzers that judge a finished run (its limiting stage and thread
//! advice, a pool's balance, a recovery's overhead, a service's SLO
//! health) live next to the run types, in `batchzk-pipeline`'s `analysis`
//! module.
//!
//! The PR 1 trace layer (`batchzk-gpu-sim`'s `TraceLevel` recorder)
//! answers *where cycles go inside one run*; this crate answers what the
//! proving **service** is doing — proofs/second, per-proof latency
//! quantiles, OOM pressure — and why a device profile tops out. Everything
//! is deterministic: both exposition formats ([`Registry::to_prometheus`]
//! and its [`ToJson`] rendering) render byte-identical output for
//! identical recordings, which is what lets `BENCH.json` act as a cross-PR
//! regression artifact.
//!
//! # Examples
//!
//! ```
//! use batchzk_metrics::{Registry, Span};
//!
//! let mut reg = Registry::new();
//! let mut span = Span::new(0, 0);
//! span.enter_stage("merkle-leaf", 0);
//! span.exit_stage(120);
//! span.complete(120);
//! reg.counter_add("batchzk_tasks_total", &[("module", "merkle")], 1);
//! reg.observe(
//!     "batchzk_lifecycle_cycles",
//!     &[("module", "merkle")],
//!     span.total_cycles(),
//! );
//! assert!(reg.to_prometheus().contains("batchzk_tasks_total"));
//! ```

#![deny(missing_docs)]

pub mod alerts;
pub mod json;
pub mod registry;
pub mod span;
pub mod timeline;

pub use alerts::{evaluate, AlertEvent, AlertKind, AlertLog, AlertRule};
pub use json::ToJson;
pub use registry::{Histogram, MetricId, Registry, HISTOGRAM_BUCKETS};
pub use span::{Span, StageSpan};
pub use timeline::{nearest_rank, ClassWindow, DeviceWindow, Timeline, TimelineConfig, Window};
