//! Spans recorded from the benchmark's own code around each call into a
//! layer: name, start, end, the span that was open when it began, and the
//! proof index as the identifier every span of one proof shares. Spans
//! stay in memory until the run ends; nothing is recorded in an untraced
//! run, whose rounds call the layers directly.
//!
//! [`Traced`] is how spans get *inside* a real engine round without
//! touching the engine: it is a [`ProverBackend`] that wraps another and
//! hands the engine stages that time the wrapped stage's `process`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use batchzk_gpu_sim::{Gpu, KernelStep};
use batchzk_pipeline::{BoxedStage, PipeStage, StageWork};
use batchzk_zkp::ProverBackend;

use crate::json::{obj, Json};
use crate::workload::BenchBackend;

/// What a span measures; summaries select on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A phase of a round (`round.prove`, `round.verify`).
    Phase,
    /// One `PipeStage::process` call.
    Stage,
    /// One `ProverBackend::verify` call.
    Verify,
    /// One direct call into a layer's public function.
    Layer,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Phase => "phase",
            Kind::Stage => "stage",
            Kind::Verify => "verify",
            Kind::Layer => "layer",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub proof: Option<usize>,
    /// For a stage span, the kernel's duration under the device cost model
    /// (launch overhead included), so both clocks sit on one record.
    pub sim_cycles: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The in-memory span recorder. Traced rounds run on one host thread, so
/// "the span that caused this one" is the innermost open span.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a panic while recording a span is already fatal")
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        kind: Kind,
        name: &str,
        proof: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span_sim(kind, name, proof, || (f(), None))
    }

    /// As [`span`](Self::span), for a call that also yields its simulated
    /// cost.
    pub fn span_sim<R>(
        &self,
        kind: Kind,
        name: &str,
        proof: Option<usize>,
        f: impl FnOnce() -> (R, Option<u64>),
    ) -> R {
        let id = {
            let mut st = self.lock();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            st.spans.push(Span {
                name: name.to_string(),
                kind,
                start_ns: 0,
                end_ns: 0,
                parent,
                proof,
                sim_cycles: None,
            });
            st.open.push(id);
            id
        };
        // Clock reads are the innermost thing around `f`, so the recorder's
        // own bookkeeping lands in the parent's self time, not the child's.
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let (out, sim_cycles) = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        let span = &mut st.spans[id];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        span.sim_cycles = sim_cycles;
        let popped = st.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost-first");
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span_if<R>(
    tracer: Option<&Tracer>,
    kind: Kind,
    name: &str,
    proof: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(kind, name, proof, f),
        None => f(),
    }
}

/// Self time of each span: its duration minus what its direct children
/// cover. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Chrome-trace ("Trace Event Format") rendering: complete events with
/// microsecond timestamps on one track, nesting by time; `args` carries
/// the span id, its parent, the proof index and the simulated cycles.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |n| Json::Num(n as f64));
            obj([
                ("name", Json::Str(s.name.clone())),
                ("cat", Json::Str(s.kind.label().into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    obj([
                        ("id", Json::Num(id as f64)),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("proof", opt(s.proof.map(|p| p as u64))),
                        ("self_us", Json::Num(own[id] as f64 / 1e3)),
                        ("sim_cycles", opt(s.sim_cycles)),
                    ]),
                ),
            ])
        })
        .collect();
    obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// A backend whose stages and verifier record spans around the wrapped
/// backend's. Instances, tasks and statements carry the proof index so
/// every span of one proof shares it. Proofs are the wrapped backend's,
/// byte for byte.
pub struct Traced<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B: Clone> Clone for Traced<B> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            tracer: Arc::clone(&self.tracer),
        }
    }
}

impl<B> Traced<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

struct TracedStage<T> {
    inner: BoxedStage<T>,
    /// The wrapped stage's name split at `+`: a mixed stage is named after
    /// every protocol's stage at its depth, and a task runs exactly one.
    names: Vec<String>,
    variant: fn(&T) -> usize,
    launch_cycles: u64,
    tracer: Arc<Tracer>,
}

impl<T> PipeStage<(usize, T)> for TracedStage<T> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn threads(&self) -> u32 {
        self.inner.threads()
    }

    fn process(&self, task: &mut (usize, T)) -> StageWork {
        let name = &self.names[(self.variant)(&task.1).min(self.names.len() - 1)];
        self.tracer.span_sim(Kind::Stage, name, Some(task.0), || {
            let work = self.inner.process(&mut task.1);
            let kernel = KernelStep::new(String::new(), self.inner.threads(), work.work.clone());
            let cycles = kernel.duration_cycles() + self.launch_cycles;
            (work, Some(cycles))
        })
    }

    fn naive_phases(&self, task: &(usize, T)) -> Option<Vec<batchzk_gpu_sim::Work>> {
        self.inner.naive_phases(&task.1)
    }
}

impl<B: BenchBackend> ProverBackend for Traced<B> {
    type Instance = (usize, B::Instance);
    type Task = (usize, B::Task);
    type Statement = (usize, B::Statement);
    type Proof = B::Proof;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin(&self, (index, instance): Self::Instance) -> Self::Task {
        (index, self.inner.begin(instance))
    }

    fn module_weights(&self, gpu: &Gpu) -> Vec<u64> {
        self.inner.module_weights(gpu)
    }

    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>> {
        let launch_cycles = gpu.cost().kernel_launch;
        self.inner
            .stages(gpu, total_threads)
            .into_iter()
            .map(|inner| {
                let names = inner.name().split('+').map(str::to_string).collect();
                Box::new(TracedStage {
                    inner,
                    names,
                    variant: B::task_variant,
                    launch_cycles,
                    tracer: Arc::clone(&self.tracer),
                }) as BoxedStage<Self::Task>
            })
            .collect()
    }

    fn task_footprint_bytes(&self) -> u64 {
        self.inner.task_footprint_bytes()
    }

    fn finish(&self, (index, task): Self::Task) -> (Self::Statement, Self::Proof) {
        let (statement, proof) = self.inner.finish(task);
        ((index, statement), proof)
    }

    fn verify(&self, (index, statement): &Self::Statement, proof: &Self::Proof) -> bool {
        let name = format!("verify.{}", B::proof_backend(proof));
        self.tracer.span(Kind::Verify, &name, Some(*index), || {
            self.inner.verify(statement, proof)
        })
    }
}

impl<B: BenchBackend> BenchBackend for Traced<B> {
    fn task_variant(task: &Self::Task) -> usize {
        B::task_variant(&task.1)
    }
    fn proof_backend(proof: &Self::Proof) -> &'static str {
        B::proof_backend(proof)
    }
    fn proof_bytes(proof: &Self::Proof) -> usize {
        B::proof_bytes(proof)
    }
    fn tamper(proof: &mut Self::Proof) {
        B::tamper(proof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let t = Tracer::new();
        t.span(Kind::Phase, "outer", None, || {
            t.span(Kind::Stage, "a", Some(0), || std::hint::black_box(1 + 1));
            t.span_sim(Kind::Stage, "b", Some(1), || ((), Some(42)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].sim_cycles, Some(42));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_times_ns(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        let trace = chrome_trace(&spans);
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2].get("args").unwrap().get("proof"),
            Some(&Json::Num(1.0))
        );
        crate::json::parse(&trace.render()).unwrap();
    }
}
