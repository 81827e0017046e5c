//! Spans for the traced run, kept in memory and written out at exit.
//!
//! Spans are recorded in this package's code, around calls into the
//! library: the load loops time each request and its submit call, and the
//! model adapters time each forward (or decode step) on the serving
//! workers, keyed by the requests it served. After the run each request
//! becomes a tree — the request span at the root, its submit call and the
//! batch that carried it as children — and every span of the tree carries
//! the request's id. A span's self time is its duration minus what its
//! children cover.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gqa::tensor::Tensor;

use crate::inputs::row_key;
use crate::report::Values;
use crate::stats::{mean, median};

/// One model call on a serving worker: its interval, its batch, and the
/// keys of the requests it served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub batch: u64,
    pub keys: Vec<u64>,
}

thread_local! {
    /// The batch of the decode tape this worker is running.
    static TAPE_BATCH: Cell<u64> = const { Cell::new(0) };
}

/// The run's clock and the model-side span buffer. Recording stays off
/// until [`Recorder::set_enabled`]; while off, a model call costs a clock
/// read and an atomic load.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_batch: AtomicU64,
    spans: Mutex<Vec<ModelSpan>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_batch: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was made: the time base of every
    /// span.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sleeps until `ns` on this clock; returns at once if that has
    /// passed.
    pub fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }

    /// Turns recording on or off, between passes.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    /// Records a forward over one coalesced batch that began at
    /// `start_ns`, keyed by each of its input rows.
    pub fn forward(&self, start_ns: u64, input: &Tensor) {
        if !self.enabled() {
            return;
        }
        let end_ns = self.now_ns();
        let row_len = input.data.len() / input.shape[0];
        let keys = input.data.chunks(row_len).map(row_key).collect();
        let batch = self.next_batch.fetch_add(1, Ordering::Relaxed);
        self.push(ModelSpan {
            start_ns,
            end_ns,
            batch,
            keys,
        });
    }

    /// Records one decode step keyed by `key`. A worker runs all the steps
    /// of a coalesced batch on one tape, so the first step on a tape
    /// starts a new batch.
    pub fn step(&self, start_ns: u64, first_on_tape: bool, key: u64) {
        if !self.enabled() {
            return;
        }
        let end_ns = self.now_ns();
        if first_on_tape {
            TAPE_BATCH.set(self.next_batch.fetch_add(1, Ordering::Relaxed));
        }
        self.push(ModelSpan {
            start_ns,
            end_ns,
            batch: TAPE_BATCH.get(),
            keys: vec![key],
        });
    }

    fn push(&self, span: ModelSpan) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Takes every model span recorded so far.
    pub fn take(&self) -> Vec<ModelSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// One request as its load loop saw it: its start (send or due time), its
/// submit call if it made one, its end, and the key of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    pub start_ns: u64,
    pub submit: Option<(u64, u64)>,
    pub end_ns: u64,
    pub key: u64,
}

/// A finished span; `parent` indexes the tree it lives in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The self time of `span`: its duration minus the part of it that
/// `children` cover, overlaps counted once.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    cover.sort_unstable();
    let (mut covered, mut reach) = (0, span.start_ns);
    for (s, e) in cover {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.end_ns
        .saturating_sub(span.start_ns)
        .saturating_sub(covered)
}

/// Request trees, as one flat list of spans with parent links.
#[derive(Debug, Default)]
pub struct SpanTree {
    spans: Vec<Span>,
}

impl SpanTree {
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The self time of every span named `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| {
                let kids: Vec<&Span> = kids.iter().map(|&c| &self.spans[c]).collect();
                self_time_ns(s, &kids)
            })
            .collect()
    }

    /// The median self time of the spans named `name`, in µs.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let us: Vec<f64> = self
            .self_times_ns(name)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        median(&us)
    }

    /// Writes the tree to `.bench_trace/<workload>-<seed>.tsv` under the
    /// working directory.
    pub fn save(&self, workload: &str, seed: u64) {
        let path = Path::new(".bench_trace").join(format!("{workload}-{seed}.tsv"));
        match self.write_tsv(&path) {
            Ok(()) => println!("trace: {} spans in {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }

    /// One line per span: name, id, parent index (-1 for a root), start
    /// and end in ns.
    fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One coalesced batch: the union of its model spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub start_ns: u64,
    pub end_ns: u64,
    pub keys: Vec<u64>,
}

/// Groups model spans into their batches, in batch order.
pub fn batches(spans: &[ModelSpan]) -> Vec<Batch> {
    let mut by_id: BTreeMap<u64, Batch> = BTreeMap::new();
    for s in spans {
        let b = by_id.entry(s.batch).or_insert(Batch {
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            keys: Vec::new(),
        });
        b.start_ns = b.start_ns.min(s.start_ns);
        b.end_ns = b.end_ns.max(s.end_ns);
        b.keys.extend(&s.keys);
    }
    by_id.into_values().collect()
}

/// `models.forward_us` (median batch forward) and
/// `models.rows_per_forward` (mean rows) of a forward workload.
pub fn forward_values(batches: &[Batch], values: &mut Values) {
    let us: Vec<f64> = batches
        .iter()
        .map(|b| (b.end_ns - b.start_ns) as f64 / 1e3)
        .collect();
    let rows: Vec<f64> = batches.iter().map(|b| b.keys.len() as f64).collect();
    values.set("models.forward_us", median(&us));
    values.set("models.rows_per_forward", mean(&rows));
}

/// The median submit call of `requests`, in µs.
pub fn median_submit_us(requests: &[RequestSpan]) -> f64 {
    let us: Vec<f64> = requests
        .iter()
        .filter_map(|r| r.submit)
        .map(|(s, e)| (e - s) as f64 / 1e3)
        .collect();
    median(&us)
}

/// Builds each request's tree: the request span, its submit call, and the
/// batch that carried it — the first batch inside the request's interval
/// whose keys include the request's key — named `batch_name`.
pub fn request_trees(
    requests: &[RequestSpan],
    batches: &[Batch],
    batch_name: &'static str,
) -> SpanTree {
    let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, b) in batches.iter().enumerate() {
        for &k in &b.keys {
            by_key.entry(k).or_default().push(i);
        }
    }
    let mut tree = SpanTree::default();
    for (id, r) in requests.iter().enumerate() {
        let id = id as u64;
        let root = tree.push(Span {
            name: "request",
            id,
            parent: None,
            start_ns: r.start_ns,
            end_ns: r.end_ns,
        });
        if let Some((start_ns, end_ns)) = r.submit {
            tree.push(Span {
                name: "served.submit",
                id,
                parent: Some(root),
                start_ns,
                end_ns,
            });
        }
        let carrier = by_key
            .get(&r.key)
            .into_iter()
            .flatten()
            .map(|&i| &batches[i])
            .find(|b| b.start_ns >= r.start_ns && b.end_ns <= r.end_ns);
        if let Some(b) = carrier {
            tree.push(Span {
                name: batch_name,
                id,
                parent: Some(root),
                start_ns: b.start_ns,
                end_ns: b.end_ns,
            });
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_time_once() {
        let mut tree = SpanTree::default();
        let root = tree.push(span("request", None, 0, 100));
        let a = tree.push(span("a", Some(root), 10, 30));
        tree.push(span("b", Some(root), 20, 50)); // overlaps a
        tree.push(span("c", Some(root), 90, 120)); // runs past the root
        tree.push(span("d", Some(a), 15, 20)); // a grandchild of the root
        assert_eq!(tree.self_times_ns("request"), vec![100 - 40 - 10]);
        assert_eq!(tree.self_times_ns("a"), vec![15]);
        assert_eq!(tree.self_times_ns("d"), vec![5]);
    }

    #[test]
    fn requests_attach_to_the_batch_that_carried_them() {
        let model = |start_ns, end_ns, batch, key| ModelSpan {
            start_ns,
            end_ns,
            batch,
            keys: vec![key],
        };
        let b = batches(&[
            model(40, 60, 2, 7),
            model(60, 70, 2, 8),
            model(200, 210, 3, 7),
        ]);
        assert_eq!(b.len(), 2);
        assert_eq!(
            (b[0].start_ns, b[0].end_ns, b[0].keys.clone()),
            (40, 70, vec![7, 8])
        );
        let requests = [
            RequestSpan {
                start_ns: 0,
                submit: Some((5, 10)),
                end_ns: 100,
                key: 7,
            },
            RequestSpan {
                start_ns: 150,
                submit: None,
                end_ns: 250,
                key: 7,
            },
        ];
        let tree = request_trees(&requests, &b, "models.forward");
        // 100 - 5 (submit) - 30 (batch 2); 100 - 10 (batch 3).
        assert_eq!(tree.self_times_ns("request"), vec![65, 90]);
        assert_eq!(tree.self_times_ns("models.forward"), vec![30, 10]);
    }
}
