//! Threshold-gated data-parallel dispatch for the hot quantization kernels.
//!
//! This is the compute-kernel layer: the process's one persistent thread
//! pool, reached through [`run_jobs`], plus dispatcher wrappers around the
//! scalar kernels in [`crate::gemm`] and [`crate::QuantizedMatrix`]. The
//! model engine hands its prefill attention tiles and its decode
//! (request, KV-head) units to [`run_jobs`] too, so every thread the stack
//! computes on is a worker of this pool. Every dispatcher follows the same
//! recipe:
//!
//! 1. **Threshold gate.** Small operands (anything below
//!    [`PARALLEL_THRESHOLD`] multiply-adds / elements) take the scalar
//!    fused kernel directly and pay zero dispatch overhead. (Decode
//!    attention is not a caller: `cocktail_kvcache`'s streaming kernel
//!    reads quantized rows itself and never forks.) The scalar kernels are themselves
//!    bit-identical to the `*_reference` paths, which therefore serve as
//!    the documented fallback of the whole dispatcher stack.
//! 2. **Deterministic tiling.** Large operands are cut into contiguous
//!    tiles by [`tile_ranges`]: tile `t` always owns the `t`-th contiguous
//!    slice of the output, independent of how many worker threads actually
//!    execute it.
//! 3. **Owned tiles, ordered stitch.** Each tile job owns its inputs
//!    (shared `Arc`s) and produces its own output block; the caller
//!    stitches blocks back together in ascending tile order. Work never
//!    migrates and no accumulation is reassociated, so the result is
//!    bit-identical to the scalar kernel for *every* thread count —
//!    including 1 — which is what the proptests in this module pin down.
//!
//! Thread count resolution order: the runtime override installed by
//! [`set_kernel_thread_override`] (used by experiments and tests to compare
//! scalar vs parallel in one process), else the [`KERNEL_THREADS_ENV`]
//! environment variable (read once), else `std::thread::available_parallelism`.

use crate::config::{QuantAxis, QuantConfig, QuantError};
use crate::gemm;
use crate::quantized::{self, QuantizedMatrix};
use cocktail_tensor::Matrix;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

/// A boxed unit of work shipped to one pool worker. Jobs own everything
/// they touch (cloned `Arc`s, moved matrices) and report back through a
/// channel they capture, so no borrowed state crosses the thread boundary.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Minimum amount of kernel work (multiply-adds for the GEMMs, elements
/// for quantize/dequantize) before a dispatcher forks tiles onto the pool.
///
/// Below this the scalar fused kernel wins outright: a single-query score
/// product against a 256-token chunk is ~16k multiply-adds, well under
/// the gate.
pub const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// Environment variable that pins the kernel thread count (read once per
/// process). Unset or unparsable values fall back to
/// `std::thread::available_parallelism`.
pub const KERNEL_THREADS_ENV: &str = "COCKTAIL_KERNEL_THREADS";

/// A fixed set of persistent worker threads with per-worker job channels:
/// each worker owns one job channel, callers assign work to workers by
/// index, jobs never migrate, and dropping the pool closes the channels and
/// joins every thread. The process has one, behind [`run_jobs`].
struct KernelPool {
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    spawned: usize,
}

impl KernelPool {
    /// Spawns `workers` threads (at least one), each looping over its own
    /// job channel until the pool is dropped. A job that panics is caught
    /// on its worker, which goes on to its next job: the panic drops the
    /// job's result sender, and [`run_jobs`] reports it on the caller.
    fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut spawned = 0usize;
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            spawned += 1;
            handles.push(std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    let _ = panic::catch_unwind(AssertUnwindSafe(job));
                }
            }));
            senders.push(tx);
        }
        Self {
            senders,
            handles,
            spawned,
        }
    }

    /// Number of worker threads in the pool.
    fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Total threads ever spawned by this pool. The pool never re-spawns,
    /// so this equals [`KernelPool::workers`] for the pool's whole
    /// lifetime — the invariant the persistence tests assert.
    fn spawn_count(&self) -> usize {
        self.spawned
    }

    /// Ships a job to worker `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range. A worker outlives every job,
    /// panicking ones included, and exits only when the pool is dropped.
    fn run_on(&self, index: usize, job: Job) {
        self.senders[index]
            .send(job)
            .expect("pool worker is alive until the pool drops");
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; join so no thread
        // outlives the pool owner.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

static KERNEL_POOL: OnceLock<KernelPool> = OnceLock::new();
static CONFIGURED_THREADS: OnceLock<usize> = OnceLock::new();
/// 0 means "no override"; any other value is the requested tile count.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn configured_threads() -> usize {
    *CONFIGURED_THREADS.get_or_init(|| {
        std::env::var(KERNEL_THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
    })
}

/// The kernel thread count dispatchers use by default: the runtime
/// override if one is installed, else [`KERNEL_THREADS_ENV`], else
/// `available_parallelism`.
///
/// Note this controls the *tile count*, not the pool size: tiling is a
/// pure function of (shape, thread count), so two runs with the same
/// value here produce bit-identical results regardless of how many pool
/// workers actually execute the tiles.
pub fn kernel_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => configured_threads(),
        n => n,
    }
}

/// Installs (`Some(n)`) or clears (`None`) a process-wide runtime override
/// of [`kernel_threads`]. `Some(0)` is clamped to 1.
///
/// Used by the bit-identity tests — this module's, `cocktail_kvcache`'s and
/// the engine's prefill tests — to compare the scalar (`Some(1)`) and
/// parallel paths within one process. The `kernels` experiment's record
/// pins the output bits those tests hold equal.
pub fn set_kernel_thread_override(threads: Option<usize>) {
    let value = threads.map_or(0, |t| t.max(1));
    THREAD_OVERRIDE.store(value, Ordering::Relaxed);
}

/// Threads spawned by the process-wide kernel pool so far (0 before the
/// first parallel dispatch). The pool spawns exactly once, so this value
/// is flat across dispatches — the invariant this module's
/// `pool_spawns_at_most_once` test and the engine's mixed-batch prefill
/// and batched-decode tests enforce.
pub fn pool_spawn_count() -> usize {
    KERNEL_POOL.get().map_or(0, KernelPool::spawn_count)
}

fn kernel_pool() -> &'static KernelPool {
    KERNEL_POOL.get_or_init(|| KernelPool::new(configured_threads()))
}

/// Returns `true` when a kernel doing `work` multiply-adds (or element
/// visits) should take the tiled parallel path under the current
/// [`kernel_threads`] setting.
pub fn should_parallelize(work: usize) -> bool {
    kernel_threads() > 1 && work >= PARALLEL_THRESHOLD
}

/// Cuts `n` items into at most `tiles` contiguous `(start, end)` ranges in
/// ascending order, the first `n % tiles` ranges one element longer.
///
/// This is the single tiling rule every dispatcher uses; it depends only
/// on `(n, tiles)`, never on pool size, which is what makes tiled results
/// reproducible across machines.
pub fn tile_ranges(n: usize, tiles: usize) -> Vec<(usize, usize)> {
    let tiles = tiles.min(n).max(1);
    let base = n / tiles;
    let extra = n % tiles;
    let mut ranges = Vec::with_capacity(tiles);
    let mut start = 0;
    for t in 0..tiles {
        let len = base + usize::from(t < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// Runs a batch of jobs on the persistent kernel pool and returns their
/// results **in job order** (job `i` runs on worker `i % workers`).
///
/// With one job, or a single-worker pool, the jobs run inline on the
/// caller's thread — same code, same order, no channel hops. Panics in a
/// job are surfaced after every other job has been drained. A job that
/// panics on a worker is caught there, so the worker keeps serving later
/// dispatches.
///
/// A job must not call `run_jobs` itself: it would wait on the pool it
/// runs on.
///
/// # Panics
///
/// Panics if any job panicked on its worker.
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    if jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let pool = kernel_pool();
    let workers = pool.workers();
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let mut receivers = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.into_iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        receivers.push(rx);
        pool.run_on(
            i % workers,
            Box::new(move || {
                let _ = tx.send(job());
            }),
        );
    }
    let mut results = Vec::with_capacity(receivers.len());
    let mut lost = 0usize;
    for rx in receivers {
        match rx.recv() {
            Ok(value) => results.push(value),
            Err(_) => lost += 1,
        }
    }
    assert!(
        lost == 0,
        "{lost} kernel job(s) panicked on the worker pool"
    );
    results
}

fn stitch_cols(parts: &[Matrix]) -> Matrix {
    let refs: Vec<&Matrix> = parts.iter().collect();
    Matrix::concat_cols(&refs).expect("tiles share the row count by construction")
}

/// Threshold-gated parallel version of
/// [`gemm::fp_matmul_quant_transposed`]: `a · bqᵀ` with tiles over the
/// rows of `bq` (columns of the output), stitched in tile order.
///
/// Bit-identical to the scalar kernel (and therefore to
/// `gemm::fp_matmul_quant_transposed_reference`) at every thread count.
///
/// # Errors
///
/// Returns [`QuantError::Incompatible`] if the inner dimensions differ.
pub fn fp_matmul_quant_transposed(a: &Matrix, bq: &QuantizedMatrix) -> Result<Matrix, QuantError> {
    fp_matmul_quant_transposed_with_threads(a, bq, kernel_threads())
}

/// [`fp_matmul_quant_transposed`] with an explicit thread (tile) count.
///
/// # Errors
///
/// Returns [`QuantError::Incompatible`] if the inner dimensions differ.
pub fn fp_matmul_quant_transposed_with_threads(
    a: &Matrix,
    bq: &QuantizedMatrix,
    threads: usize,
) -> Result<Matrix, QuantError> {
    gemm::check_transposed_shapes(a, bq)?;
    let work = a.rows() * bq.rows() * a.cols();
    if threads <= 1 || work < PARALLEL_THRESHOLD || bq.rows() < 2 {
        return gemm::fp_matmul_quant_transposed(a, bq);
    }
    let tiles = tile_ranges(bq.rows(), threads);
    let a_shared = Arc::new(a.clone());
    let bq_shared = Arc::new(bq.clone());
    let jobs: Vec<_> = tiles
        .iter()
        .map(|&(j0, j1)| {
            let a = Arc::clone(&a_shared);
            let bq = Arc::clone(&bq_shared);
            move || gemm::transposed_tile(&a, &bq, j0, j1)
        })
        .collect();
    Ok(stitch_cols(&run_jobs(jobs)))
}

/// Threshold-gated parallel version of [`gemm::fp_matmul_quant`]:
/// `a · bq` with tiles over the columns of `bq` (columns of the output),
/// stitched in tile order.
///
/// Bit-identical to the scalar kernel (and therefore to
/// `gemm::fp_matmul_quant_reference`) at every thread count.
///
/// # Errors
///
/// Returns [`QuantError::Incompatible`] if the inner dimensions differ.
pub fn fp_matmul_quant(a: &Matrix, bq: &QuantizedMatrix) -> Result<Matrix, QuantError> {
    fp_matmul_quant_with_threads(a, bq, kernel_threads())
}

/// [`fp_matmul_quant`] with an explicit thread (tile) count.
///
/// # Errors
///
/// Returns [`QuantError::Incompatible`] if the inner dimensions differ.
pub(crate) fn fp_matmul_quant_with_threads(
    a: &Matrix,
    bq: &QuantizedMatrix,
    threads: usize,
) -> Result<Matrix, QuantError> {
    gemm::check_shapes(a, bq)?;
    let work = a.rows() * a.cols() * bq.cols();
    if threads <= 1 || work < PARALLEL_THRESHOLD || bq.cols() < 2 {
        return gemm::fp_matmul_quant(a, bq);
    }
    let tiles = tile_ranges(bq.cols(), threads);
    let a_shared = Arc::new(a.clone());
    let bq_shared = Arc::new(bq.clone());
    let jobs: Vec<_> = tiles
        .iter()
        .map(|&(c0, c1)| {
            let a = Arc::clone(&a_shared);
            let bq = Arc::clone(&bq_shared);
            move || gemm::value_tile(&a, &bq, c0, c1)
        })
        .collect();
    Ok(stitch_cols(&run_jobs(jobs)))
}

/// Threshold-gated parallel version of [`QuantizedMatrix::quantize`].
///
/// Per-token groups never cross a row, so row tiles own disjoint slices of
/// the (scale, zero, code) arrays and concatenating them in tile order
/// reproduces the scalar layout exactly. Per-channel grouping spans rows
/// and stays on the scalar path (the documented fallback).
///
/// # Errors
///
/// Propagates [`QuantError`] from [`QuantizedMatrix::quantize`].
pub fn quantize(matrix: &Matrix, config: &QuantConfig) -> Result<QuantizedMatrix, QuantError> {
    quantize_with_threads(matrix, config, kernel_threads())
}

/// [`quantize`] with an explicit thread (tile) count.
///
/// # Errors
///
/// Propagates [`QuantError`] from [`QuantizedMatrix::quantize`].
pub(crate) fn quantize_with_threads(
    matrix: &Matrix,
    config: &QuantConfig,
    threads: usize,
) -> Result<QuantizedMatrix, QuantError> {
    let (rows, cols) = matrix.shape();
    if threads <= 1
        || rows * cols < PARALLEL_THRESHOLD
        || rows < 2
        || config.axis() != QuantAxis::PerToken
    {
        return QuantizedMatrix::quantize(matrix, config);
    }
    let tiles = tile_ranges(rows, threads);
    let shared = Arc::new(matrix.clone());
    let cfg = *config;
    let jobs: Vec<_> = tiles
        .iter()
        .map(|&(r0, r1)| {
            let m = Arc::clone(&shared);
            move || quantized::quantize_rows_per_token(&m, &cfg, r0, r1)
        })
        .collect();
    let parts = run_jobs(jobs);
    let mut scales = Vec::new();
    let mut zeros = Vec::new();
    let mut codes = Vec::with_capacity(rows * cols);
    for part in parts {
        scales.extend(part.scales);
        zeros.extend(part.zeros);
        codes.extend(part.codes);
    }
    Ok(QuantizedMatrix::assemble(
        rows, cols, *config, &codes, scales, zeros,
    ))
}

/// Threshold-gated parallel version of [`QuantizedMatrix::dequantize`]:
/// row tiles reconstructed independently and stitched with
/// [`Matrix::concat_rows`] in tile order.
pub fn dequantize(bq: &QuantizedMatrix) -> Matrix {
    dequantize_with_threads(bq, kernel_threads())
}

/// [`dequantize`] with an explicit thread (tile) count.
pub(crate) fn dequantize_with_threads(bq: &QuantizedMatrix, threads: usize) -> Matrix {
    if threads <= 1 || bq.rows() * bq.cols() < PARALLEL_THRESHOLD || bq.rows() < 2 {
        return bq.dequantize();
    }
    let tiles = tile_ranges(bq.rows(), threads);
    let shared = Arc::new(bq.clone());
    let jobs: Vec<_> = tiles
        .iter()
        .map(|&(r0, r1)| {
            let bq = Arc::clone(&shared);
            move || bq.dequantize_rows(r0, r1)
        })
        .collect();
    let parts = run_jobs(jobs);
    let refs: Vec<&Matrix> = parts.iter().collect();
    Matrix::concat_rows(&refs).expect("tiles share the column count by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bitwidth;
    use cocktail_tensor::rng;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn cfg(bw: Bitwidth, axis: QuantAxis, group: usize) -> QuantConfig {
        QuantConfig::new(bw, axis, group).expect("valid test config")
    }

    #[test]
    fn tile_ranges_cover_contiguously() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for tiles in [1usize, 2, 3, 8, 200] {
                let ranges = tile_ranges(n, tiles);
                assert!(!ranges.is_empty());
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, n);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "n={n} tiles={tiles}");
                }
            }
        }
    }

    #[test]
    fn jobs_run_on_their_assigned_worker_and_results_come_back() {
        let pool = KernelPool::new(3);
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.spawn_count(), 3);
        let (tx, rx) = mpsc::channel();
        for i in 0..3usize {
            let tx = tx.clone();
            pool.run_on(
                i,
                Box::new(move || {
                    let worker = std::thread::current().id();
                    tx.send((i, worker)).expect("receiver alive");
                }),
            );
        }
        drop(tx);
        let (mut jobs, workers): (Vec<usize>, HashSet<_>) = rx.iter().unzip();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![0, 1, 2]);
        assert_eq!(workers.len(), 3, "one thread per worker index");
    }

    #[test]
    fn spawn_count_is_stable_across_many_job_rounds() {
        let pool = KernelPool::new(2);
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
        let pool = KernelPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn run_jobs_preserves_job_order() {
        let jobs: Vec<_> = (0..17usize).map(|i| move || i * 3).collect();
        let out = run_jobs(jobs);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_leaves_every_worker_serving() {
        // On a one-worker pool both calls run inline; on a larger one the
        // panicking job runs on a worker that must then take its share of
        // the second call.
        let workers = kernel_pool().workers();
        let last = workers.max(2) - 1;
        let jobs: Vec<_> = (0..=last)
            .map(|i| {
                move || {
                    if i == last {
                        panic!("job {i} fails on purpose");
                    }
                    i
                }
            })
            .collect();
        assert!(panic::catch_unwind(|| run_jobs(jobs)).is_err());
        let jobs: Vec<_> = (0..2 * workers).map(|i| move || i + 1).collect();
        assert_eq!(run_jobs(jobs), (1..=2 * workers).collect::<Vec<_>>());
    }

    #[test]
    fn pool_spawns_at_most_once() {
        // Force a parallel dispatch, then another; the process-wide pool
        // must not grow between them.
        let a = rng::gaussian_matrix(8, 64, 1.0, 1);
        let b = rng::gaussian_matrix(256, 64, 1.0, 2);
        let bq =
            QuantizedMatrix::quantize(&b, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 32)).unwrap();
        let _ = fp_matmul_quant_transposed_with_threads(&a, &bq, 4).unwrap();
        let first = pool_spawn_count();
        let _ = fp_matmul_quant_transposed_with_threads(&a, &bq, 4).unwrap();
        assert_eq!(pool_spawn_count(), first);
    }

    #[test]
    fn large_transposed_product_is_bit_identical_across_thread_counts() {
        let a = rng::gaussian_matrix(8, 64, 1.0, 3);
        let b = rng::gaussian_matrix(512, 64, 1.0, 4);
        let bq =
            QuantizedMatrix::quantize(&b, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 32)).unwrap();
        let reference = gemm::fp_matmul_quant_transposed_reference(&a, &bq).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let tiled = fp_matmul_quant_transposed_with_threads(&a, &bq, threads).unwrap();
            assert_eq!(tiled.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn large_value_product_is_bit_identical_across_thread_counts() {
        let a = rng::uniform_matrix(8, 512, 1.0, 5);
        let b = rng::gaussian_matrix(512, 96, 1.0, 6);
        let bq =
            QuantizedMatrix::quantize(&b, &cfg(Bitwidth::Int8, QuantAxis::PerToken, 32)).unwrap();
        let reference = gemm::fp_matmul_quant_reference(&a, &bq).unwrap();
        for threads in [1usize, 2, 5, 8] {
            let tiled = fp_matmul_quant_with_threads(&a, &bq, threads).unwrap();
            assert_eq!(tiled.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_quantize_equals_scalar_quantize() {
        let m = rng::gaussian_matrix(512, 160, 1.0, 7);
        let config = cfg(Bitwidth::Int4, QuantAxis::PerToken, 32);
        let scalar = QuantizedMatrix::quantize(&m, &config).unwrap();
        for threads in [1usize, 2, 3, 7] {
            let parallel = quantize_with_threads(&m, &config, threads).unwrap();
            assert_eq!(parallel, scalar, "threads={threads}");
        }
    }

    #[test]
    fn per_channel_quantize_falls_back_to_scalar() {
        let m = rng::gaussian_matrix(512, 160, 1.0, 8);
        let config = cfg(Bitwidth::Int4, QuantAxis::PerChannel, 32);
        let scalar = QuantizedMatrix::quantize(&m, &config).unwrap();
        let parallel = quantize_with_threads(&m, &config, 4).unwrap();
        assert_eq!(parallel, scalar);
    }

    #[test]
    fn parallel_dequantize_equals_scalar_dequantize() {
        let m = rng::gaussian_matrix(512, 160, 1.0, 9);
        for axis in [QuantAxis::PerToken, QuantAxis::PerChannel] {
            let q = QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int2, axis, 32)).unwrap();
            let scalar = q.dequantize();
            for threads in [1usize, 2, 4, 9] {
                let parallel = dequantize_with_threads(&q, threads);
                assert_eq!(parallel.as_slice(), scalar.as_slice(), "threads={threads}");
            }
        }
    }

    #[test]
    fn small_operands_stay_on_the_scalar_path_and_agree() {
        // Below the threshold the dispatcher must not touch the pool, and
        // must still return the exact scalar result.
        let a = rng::gaussian_matrix(1, 16, 1.0, 10);
        let b = rng::gaussian_matrix(4, 16, 1.0, 11);
        let bq =
            QuantizedMatrix::quantize(&b, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 8)).unwrap();
        let scalar = gemm::fp_matmul_quant_transposed(&a, &bq).unwrap();
        let dispatched = fp_matmul_quant_transposed_with_threads(&a, &bq, 8).unwrap();
        assert_eq!(dispatched.as_slice(), scalar.as_slice());
        assert!(!should_parallelize(a.rows() * bq.rows() * a.cols()) || kernel_threads() > 1);
    }

    #[test]
    fn override_round_trips() {
        set_kernel_thread_override(Some(3));
        assert_eq!(kernel_threads(), 3);
        set_kernel_thread_override(Some(0));
        assert_eq!(kernel_threads(), 1);
        set_kernel_thread_override(None);
        // Back to the configured default, whatever it is on this host.
        assert!(kernel_threads() >= 1);
    }

    #[test]
    fn shape_mismatch_is_still_an_error() {
        let a = Matrix::zeros(2, 8);
        let b = rng::gaussian_matrix(4, 16, 1.0, 12);
        let bq =
            QuantizedMatrix::quantize(&b, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 8)).unwrap();
        assert!(fp_matmul_quant_transposed_with_threads(&a, &bq, 4).is_err());
        let a2 = Matrix::zeros(2, 3);
        assert!(fp_matmul_quant_with_threads(&a2, &bq, 4).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // The central bit-identity property of the PR: for arbitrary
        // shapes, bitwidths, group sizes and thread counts (including 1),
        // the tiled kernels reproduce the scalar reference bit for bit.
        // Shapes this small sit below PARALLEL_THRESHOLD, so in addition
        // to the dispatcher (whose gate may legitimately pick the scalar
        // path) we stitch the actual tile helpers by hand — the exact
        // machinery the above-threshold path runs.
        #[test]
        fn tiled_kernels_are_bit_identical_to_reference(
            m in 1usize..5,
            n in 1usize..40,
            d in 1usize..40,
            group in 1usize..16,
            bw_pick in 0usize..3,
            threads in 1usize..9,
            seed in 0u64..500,
        ) {
            let bw = [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8][bw_pick];
            let a = rng::gaussian_matrix(m, d, 1.0, seed);
            let b = rng::gaussian_matrix(n, d, 1.0, seed + 1);
            let bq = QuantizedMatrix::quantize(&b, &cfg(bw, QuantAxis::PerToken, group)).unwrap();
            let reference = gemm::fp_matmul_quant_transposed_reference(&a, &bq).unwrap();
            let dispatched = fp_matmul_quant_transposed_with_threads(&a, &bq, threads).unwrap();
            prop_assert_eq!(dispatched.as_slice(), reference.as_slice());
            let parts: Vec<Matrix> = tile_ranges(bq.rows(), threads)
                .iter()
                .map(|&(j0, j1)| gemm::transposed_tile(&a, &bq, j0, j1))
                .collect();
            prop_assert_eq!(stitch_cols(&parts).as_slice(), reference.as_slice());

            let p = rng::uniform_matrix(m, n, 1.0, seed + 2);
            let reference2 = gemm::fp_matmul_quant_reference(&p, &bq).unwrap();
            let dispatched2 = fp_matmul_quant_with_threads(&p, &bq, threads).unwrap();
            prop_assert_eq!(dispatched2.as_slice(), reference2.as_slice());
            let parts2: Vec<Matrix> = tile_ranges(bq.cols(), threads)
                .iter()
                .map(|&(c0, c1)| gemm::value_tile(&p, &bq, c0, c1))
                .collect();
            prop_assert_eq!(stitch_cols(&parts2).as_slice(), reference2.as_slice());
        }

        #[test]
        fn tiled_quantize_and_dequantize_are_bit_identical(
            rows in 1usize..48,
            cols in 1usize..48,
            group in 1usize..16,
            bw_pick in 0usize..3,
            axis_pick in 0usize..2,
            threads in 1usize..9,
            seed in 0u64..500,
        ) {
            let bw = [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8][bw_pick];
            let axis = [QuantAxis::PerToken, QuantAxis::PerChannel][axis_pick];
            let m = rng::gaussian_matrix(rows, cols, 1.0, seed);
            let config = cfg(bw, axis, group);
            let scalar = QuantizedMatrix::quantize(&m, &config).unwrap();
            let parallel = quantize_with_threads(&m, &config, threads).unwrap();
            prop_assert_eq!(&parallel, &scalar);
            if axis == QuantAxis::PerToken {
                // Hand-stitched row tiles through the real per-token tile
                // helper, exactly as the above-threshold path would run.
                let mut scales = Vec::new();
                let mut zeros = Vec::new();
                let mut codes = Vec::new();
                for &(r0, r1) in &tile_ranges(rows, threads) {
                    let part = quantized::quantize_rows_per_token(&m, &config, r0, r1);
                    scales.extend(part.scales);
                    zeros.extend(part.zeros);
                    codes.extend(part.codes);
                }
                let stitched = QuantizedMatrix::assemble(rows, cols, config, &codes, scales, zeros);
                prop_assert_eq!(&stitched, &scalar);
            }
            let d_scalar = scalar.dequantize();
            let d_parallel = dequantize_with_threads(&parallel, threads);
            prop_assert_eq!(d_parallel.as_slice(), d_scalar.as_slice());
            let row_parts: Vec<Matrix> = tile_ranges(rows, threads)
                .iter()
                .map(|&(r0, r1)| scalar.dequantize_rows(r0, r1))
                .collect();
            let refs: Vec<&Matrix> = row_parts.iter().collect();
            let d_stitched = Matrix::concat_rows(&refs).unwrap();
            prop_assert_eq!(d_stitched.as_slice(), d_scalar.as_slice());
        }
    }
}
