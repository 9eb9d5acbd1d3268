//! Outside-in tracing: spans recorded by the benchmark around its calls into each
//! layer's public functions, kept in memory and written out when the run ends.
//!
//! [`TracingEngine`] is a forwarding [`Engine`] that sits between the pandas session
//! and the [`ModinEngine`]; it forwards every trait method (including the ones the
//! engine does not override) so a traced session runs the same program as an
//! untraced one.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use df_core::algebra::AlgebraExpr;
use df_core::dataframe::DataFrame;
use df_core::engine::{Capabilities, Engine, EngineKind, PushdownSnapshot};
use df_core::handle::FrameHandle;
use df_engine::engine::ModinEngine;
use df_types::cancel::CancelToken;
use df_types::error::DfResult;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The job (pandas session or tenant session) the span belongs to.
    pub job: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of the next span.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, attributed to `job`.
    pub fn span<T>(&self, job: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span lock poisoned");
            let id = spans.len();
            let parent = OPEN.with(|open| open.borrow().last().copied());
            spans.push(Span {
                id,
                parent,
                job,
                name,
                start_ns,
                end_ns: start_ns,
            });
            id
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.spans.lock().expect("span lock poisoned")[id].end_ns = end_ns;
        out
    }

    /// Record an already-measured interval (used where the span's name is only known
    /// once the call returned, such as a cache hit versus an execution).
    pub fn record(&self, job: usize, name: &'static str, start: Instant, end: Instant) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span lock poisoned");
        let id = spans.len();
        let parent = OPEN.with(|open| open.borrow().last().copied());
        spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Total seconds spent in spans named `name` during `job`.
    pub fn total(&self, job: usize, names: &[&str]) -> f64 {
        self.spans
            .lock()
            .expect("span lock poisoned")
            .iter()
            .filter(|s| s.job == job && names.contains(&s.name))
            .map(Span::seconds)
            .sum()
    }

    /// Number of spans whose name starts with `prefix` during `job`.
    pub fn count(&self, job: usize, prefix: &str) -> usize {
        self.spans
            .lock()
            .expect("span lock poisoned")
            .iter()
            .filter(|s| s.job == job && s.name.starts_with(prefix))
            .count()
    }

    /// Write every span as one JSON object per line, followed by `summary` lines.
    pub fn write_jsonl(&self, path: &Path, summary: &[String]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"job\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.id,
                s.job,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )?;
        }
        for line in summary {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Forwarding engine that records a span around every call into the engine layer,
/// and times the optimizer on every plan the job runs.
pub struct TracingEngine {
    inner: Arc<ModinEngine>,
    tracer: Arc<Tracer>,
    job: usize,
}

impl TracingEngine {
    pub fn new(inner: Arc<ModinEngine>, tracer: Arc<Tracer>, job: usize) -> Self {
        TracingEngine { inner, tracer, job }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(self.job, name, f)
    }

    /// Time `ModinEngine::optimize_only` on the plan about to run. It is its own
    /// span beside the engine call, so the engine spans stay the engine's time.
    fn optimize(&self, plan: &AlgebraExpr) {
        self.span("optimizer.optimize", || {
            std::hint::black_box(self.inner.optimize_only(plan));
        });
    }
}

impl Engine for TracingEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn execute(&self, expr: &AlgebraExpr) -> DfResult<FrameHandle> {
        self.optimize(expr);
        self.span("engine.execute", || self.inner.execute(expr))
    }

    fn collect(&self, handle: &FrameHandle) -> DfResult<DataFrame> {
        self.span("engine.collect", || self.inner.collect(handle))
    }

    fn head_of(&self, handle: &FrameHandle, k: usize) -> DfResult<DataFrame> {
        self.span("engine.head_of", || self.inner.head_of(handle, k))
    }

    fn tail_of(&self, handle: &FrameHandle, k: usize) -> DfResult<DataFrame> {
        self.span("engine.tail_of", || self.inner.tail_of(handle, k))
    }

    fn execute_collect(&self, expr: &AlgebraExpr) -> DfResult<DataFrame> {
        self.optimize(expr);
        self.span("engine.execute_collect", || {
            self.inner.execute_collect(expr)
        })
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn cancel_token(&self) -> Option<CancelToken> {
        self.inner.cancel_token()
    }

    fn execute_prefix(&self, expr: &AlgebraExpr, k: usize) -> DfResult<DataFrame> {
        self.optimize(&expr.clone().limit(k, false));
        self.span("engine.execute_prefix", || {
            self.inner.execute_prefix(expr, k)
        })
    }

    fn execute_suffix(&self, expr: &AlgebraExpr, k: usize) -> DfResult<DataFrame> {
        self.optimize(&expr.clone().limit(k, true));
        self.span("engine.execute_suffix", || {
            self.inner.execute_suffix(expr, k)
        })
    }

    fn pushdown_stats(&self) -> PushdownSnapshot {
        self.inner.pushdown_stats()
    }

    fn explain(&self, expr: &AlgebraExpr) -> String {
        self.inner.explain(expr)
    }
}

/// Engine spans grouped the way the per-layer metrics report them.
pub const ENGINE_EXECUTE: &[&str] = &["engine.execute"];
pub const ENGINE_PREFIX: &[&str] = &[
    "engine.execute_prefix",
    "engine.execute_suffix",
    "engine.head_of",
    "engine.tail_of",
];
pub const ENGINE_COLLECT: &[&str] = &["engine.collect", "engine.execute_collect"];
