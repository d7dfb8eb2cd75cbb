//! A persistent worker pool for the engine's request-level parallelism.
//!
//! PR 3 hoisted the decode attention workers from one spawn per layer to
//! one `thread::scope` + channel pool per decode *round*; this module
//! removes the remaining per-round spawn cost. A [`WorkerPool`] is created
//! once per [`InferenceEngine`](crate::InferenceEngine) lifetime (lazily,
//! on the first batched decode round that can use it) and its threads
//! then serve every decode round until the engine is dropped. Prefill
//! does not use it: prefill attention is a list of (slot, head) tiles run
//! on the process-wide kernel pool (one slot) or inline (several).
//!
//! The pool is deliberately simple and deterministic: each worker owns one
//! job channel, callers assign work to workers by index (worker `i` always
//! handles the `i`-th contiguous chunk of a batch), and every job carries
//! its own result channel. Work never migrates between workers, so the
//! order in which results are stitched back together — and therefore every
//! output bit — is identical to the single-threaded loop.

use cocktail_quant::parallel::KernelPool;
use std::fmt;

/// A boxed unit of work shipped to one pool worker. Jobs own everything
/// they touch (cloned `Arc`s, moved matrices and caches) and report back
/// through a channel they capture, so no borrowed state crosses the thread
/// boundary.
pub(crate) type Job = cocktail_quant::parallel::Job;

/// A fixed set of worker threads that lives as long as its owner.
///
/// Since the kernel-parallelism PR this is a thin wrapper over the shared
/// [`KernelPool`] primitive in `cocktail_quant::parallel` — one
/// implementation of the per-worker-channel, never-respawn, deterministic-
/// assignment pool serves both the engine's request-level decode
/// parallelism (this type: one pool per engine) and the process-wide
/// kernel dispatcher. Dropping the pool closes every job channel, which ends the
/// worker loops; the threads are then joined so no worker outlives the
/// engine.
pub struct WorkerPool {
    inner: KernelPool,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one), each looping over its own
    /// job channel until the pool is dropped.
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            inner: KernelPool::new(workers),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.workers()
    }

    /// Total threads ever spawned by this pool. The pool never re-spawns,
    /// so this equals [`WorkerPool::workers`] for the pool's whole
    /// lifetime — the property the engine tests assert to prove workers
    /// persist across decode rounds instead of being re-created per round.
    pub fn spawn_count(&self) -> usize {
        self.inner.spawn_count()
    }

    /// Ships a job to worker `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the worker has died (a
    /// worker only exits when the pool is dropped, so a dead worker here
    /// means a previous job panicked).
    pub(crate) fn run_on(&self, index: usize, job: Job) {
        self.inner.run_on(index, job);
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("spawned", &self.spawn_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_on_their_assigned_worker_and_results_come_back() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.spawn_count(), 3);
        let (tx, rx) = mpsc::channel();
        for i in 0..3usize {
            let tx = tx.clone();
            pool.run_on(
                i,
                Box::new(move || {
                    tx.send(i * 10).expect("receiver alive");
                }),
            );
        }
        drop(tx);
        let mut results: Vec<usize> = rx.iter().collect();
        results.sort_unstable();
        assert_eq!(results, vec![0, 10, 20]);
    }

    #[test]
    fn spawn_count_is_stable_across_many_job_rounds() {
        let pool = WorkerPool::new(2);
        for _ in 0..20 {
            let (tx, rx) = mpsc::channel();
            for i in 0..2usize {
                let tx = tx.clone();
                pool.run_on(i, Box::new(move || tx.send(i).expect("receiver alive")));
            }
            drop(tx);
            assert_eq!(rx.iter().count(), 2);
        }
        assert_eq!(pool.spawn_count(), 2);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
