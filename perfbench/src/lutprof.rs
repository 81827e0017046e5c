//! The LUT-sweep profile: a timing `UnaryBackend` around a session of the
//! served engine, run over batch-1 model calls after the traced pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gqa::serve::Session;
use gqa::tensor::{UnaryBackend, UnaryKind};

use crate::report::Values;

/// The LUT-servable kinds the workloads plan, with their metric names.
const PROFILED: [(UnaryKind, &str, &str); 4] = [
    (UnaryKind::Gelu, "serve.lut_ns.gelu", "serve.lut_elems.gelu"),
    (UnaryKind::Exp, "serve.lut_ns.exp", "serve.lut_elems.exp"),
    (
        UnaryKind::Recip,
        "serve.lut_ns.recip",
        "serve.lut_elems.recip",
    ),
    (
        UnaryKind::Rsqrt,
        "serve.lut_ns.rsqrt",
        "serve.lut_elems.rsqrt",
    ),
];

/// Forwards every call to the session, timing the tensor-level calls of
/// the profiled kinds.
struct TimingBackend<'a> {
    inner: &'a Session,
    ns: [AtomicU64; 4],
    elems: [AtomicU64; 4],
}

impl TimingBackend<'_> {
    fn timed(&self, kind: UnaryKind, n: usize, call: impl FnOnce()) {
        match PROFILED.iter().position(|&(k, ..)| k == kind) {
            Some(i) => {
                let t = Instant::now();
                call();
                self.ns[i].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                self.elems[i].fetch_add(n as u64, Ordering::Relaxed);
            }
            None => call(),
        }
    }
}

impl UnaryBackend for TimingBackend<'_> {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        self.inner.eval(kind, x)
    }

    fn eval_many(&self, kind: UnaryKind, xs: &[f64], out: &mut [f64]) {
        self.timed(kind, xs.len(), || self.inner.eval_many(kind, xs, out));
    }

    fn eval_many_f32(&self, kind: UnaryKind, xs: &[f32], out: &mut [f32]) {
        self.timed(kind, xs.len(), || self.inner.eval_many_f32(kind, xs, out));
    }
}

/// Runs `run(backend, i)` for `i in 0..runs` on a timing wrapper around
/// `session`; each run makes batch-1 model calls (forwards or decode
/// steps) and returns how many. Writes the LUT time and elements per
/// model call, and the rest of the call time per row.
pub fn profile(
    session: &Session,
    runs: usize,
    mut run: impl FnMut(&dyn UnaryBackend, usize) -> u64,
    values: &mut Values,
) {
    let timing = TimingBackend {
        inner: session,
        ns: Default::default(),
        elems: Default::default(),
    };
    let (mut calls, mut total_ns) = (0u64, 0u64);
    for i in 0..runs {
        let t = Instant::now();
        calls += run(&timing, i);
        total_ns += t.elapsed().as_nanos() as u64;
    }
    let calls_f = calls.max(1) as f64;
    let mut lut_ns = 0;
    for (i, &(_, ns_name, elems_name)) in PROFILED.iter().enumerate() {
        let ns = timing.ns[i].load(Ordering::Relaxed);
        lut_ns += ns;
        values.set(ns_name, ns as f64 / calls_f);
        values.set(
            elems_name,
            timing.elems[i].load(Ordering::Relaxed) as f64 / calls_f,
        );
    }
    values.set(
        "tensor.non_lut_us_per_row",
        total_ns.saturating_sub(lut_ns) as f64 / calls_f / 1e3,
    );
}
