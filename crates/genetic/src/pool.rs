//! The persistent scoring pool.
//!
//! The pool is spawned once per [`crate::GeneticSearch::run`] and fed
//! scoring jobs over a channel, so the per-generation cost is one channel
//! round-trip per chunk rather than W thread spawns (500 × W per search
//! at the paper's T = 500). Workers are plain `std::thread` — jobs own
//! `Arc` handles to the population and scorer, so no scoped lifetimes are
//! needed.
//!
//! Determinism: a job scores a contiguous index range and the results are
//! written back by range start, so the assembled score vector is identical
//! to a serial sweep regardless of worker scheduling.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::search::Scorer;

/// One scoring task: evaluate `pop[range]` and send the scores back
/// tagged with the range start.
struct Job {
    pop: Arc<Vec<Vec<f64>>>,
    range: Range<usize>,
    scorer: Arc<Scorer>,
    out: Sender<(usize, Vec<f64>)>,
}

/// A fixed set of worker threads draining a shared job queue. Dropping the
/// pool closes the queue and joins every worker.
pub(crate) struct ScoringPool {
    job_tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ScoringPool {
    /// Spawns `threads` workers (at least one).
    pub(crate) fn spawn(threads: usize) -> Self {
        let threads = threads.max(1);
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&job_rx);
                std::thread::spawn(move || worker_loop(&rx))
            })
            .collect();
        Self {
            job_tx: Some(job_tx),
            workers,
        }
    }

    /// Scores `pop` into `out` (same length), sharding into `chunks`
    /// contiguous ranges across the workers.
    ///
    /// # Panics
    ///
    /// Panics if a worker died mid-job (its result channel closes). The
    /// worker's own panic payload is not re-raised — scoring is pure, so
    /// a worker panic indicates a bug in the fitness path; the payload is
    /// printed to stderr by the standard panic hook when it happens.
    pub(crate) fn score_into(
        &self,
        scorer: &Arc<Scorer>,
        pop: &Arc<Vec<Vec<f64>>>,
        chunks: usize,
        out: &mut [f64],
    ) {
        let n = pop.len();
        debug_assert_eq!(n, out.len());
        let chunk = n.div_ceil(chunks.max(1)).max(1);
        let (res_tx, res_rx) = channel::<(usize, Vec<f64>)>();
        let tx = self.job_tx.as_ref().expect("pool is live");
        let mut outstanding = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk).min(n);
            tx.send(Job {
                pop: Arc::clone(pop),
                range: start..end,
                scorer: Arc::clone(scorer),
                out: res_tx.clone(),
            })
            .expect("scoring workers alive");
            outstanding += 1;
            start = end;
        }
        drop(res_tx);
        for _ in 0..outstanding {
            let (at, scores) = res_rx.recv().expect("scoring worker delivered");
            out[at..at + scores.len()].copy_from_slice(&scores);
        }
    }
}

impl Drop for ScoringPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        drop(self.job_tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the lock only for the dequeue, not for the scoring work.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(Job {
            pop,
            range,
            scorer,
            out,
        }) = job
        else {
            return;
        };
        let scores: Vec<f64> = pop[range.clone()].iter().map(|p| scorer.score(p)).collect();
        // Release the shared-population handle *before* announcing the
        // result: the consumer reclaims the population with
        // Arc::try_unwrap right after the last recv, and a still-alive
        // clone here would force it into a full population copy.
        drop(pop);
        drop(scorer);
        // The consumer may have bailed; dropping the result is fine.
        let _ = out.send((range.start, scores));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeneticSearch, SearchConfig};
    use gqa_funcs::NonLinearOp;

    #[test]
    fn pool_scores_match_serial() {
        let cfg = SearchConfig::for_op(NonLinearOp::Gelu)
            .with_generations(1)
            .with_population(40)
            .with_seed(3);
        let search = GeneticSearch::new(cfg);
        let scorer = Arc::clone(search.scorer_for_tests());
        let pop: Arc<Vec<Vec<f64>>> = Arc::new(
            (0..40)
                .map(|i| {
                    (0..7)
                        .map(|j| -3.5 + 0.9 * j as f64 + 0.01 * i as f64)
                        .collect()
                })
                .collect(),
        );
        let serial: Vec<f64> = pop.iter().map(|p| scorer.score(p)).collect();
        let pool = ScoringPool::spawn(4);
        let mut out = vec![0.0; pop.len()];
        pool.score_into(&scorer, &pop, 4, &mut out);
        assert_eq!(serial, out);
        // Reuse across "generations".
        let mut out2 = vec![0.0; pop.len()];
        pool.score_into(&scorer, &pop, 7, &mut out2);
        assert_eq!(serial, out2);
    }
}
