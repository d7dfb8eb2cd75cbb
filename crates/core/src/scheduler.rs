//! The batch scheduler: admission control under a KV-memory budget.
//!
//! The scheduler is deliberately independent of the model: it deals in
//! request ids and *measured byte costs* (the compressed KV footprint of a
//! prepared request plus its reserved FP16 decode tail). That keeps the
//! admission logic a small, exhaustively testable state machine, and makes
//! the paper's economics explicit — Cocktail's compression shrinks each
//! request's cost, so more requests fit under the same budget and batch
//! capacity (hence throughput) goes up.
//!
//! Admission is strict FIFO: the head of the queue is admitted as soon as
//! its cost fits the remaining budget (and the batch cap), and later
//! requests never jump the queue. This head-of-line blocking is what makes
//! batched serving deterministic and starvation-free.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of one serving request, unique within a
/// [`ServingEngine`](crate::ServingEngine).
///
/// Ids are handed out in submission order, so sorting by id recovers the
/// order in which requests entered the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id from its raw index.
    pub fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw numeric id.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Configuration of the [`BatchScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// KV-memory budget in bytes shared by all admitted requests, or `None`
    /// for an unlimited budget. Costs are measured *compressed* bytes, so a
    /// stronger quantization policy admits more concurrent requests. When a
    /// prefix cache is enabled, its resident blocks are charged against the
    /// same budget — once per *trie node*, however many cached branches or
    /// in-flight requests share that node's run.
    pub kv_budget_bytes: Option<usize>,
    /// Maximum number of concurrently running requests, regardless of
    /// memory (a kernel/occupancy cap in real deployments).
    pub max_batch: usize,
}

impl SchedulerConfig {
    /// Unlimited memory and a practically unlimited batch.
    pub(crate) fn unlimited() -> Self {
        Self {
            kv_budget_bytes: None,
            max_batch: usize::MAX,
        }
    }

    /// Returns a copy with the given KV-memory budget.
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.kv_budget_bytes = Some(bytes);
        self
    }

    /// Returns a copy with the given batch cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Outcome of one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// The request was admitted and its cost charged against the budget.
    Admitted,
    /// The request fits the budget in principle but not right now; it stays
    /// at the head of the queue until running requests release memory.
    DeferredBudget,
    /// The running batch is at `max_batch`; the request stays queued.
    DeferredBatch,
    /// The request can *never* fit (its cost alone exceeds the whole
    /// budget); it is removed from the queue and should be failed.
    Rejected,
}

/// FIFO admission control with exact byte accounting.
///
/// The scheduler tracks which requests are queued and which are running,
/// charges each admitted request's measured cost against the budget, and
/// releases the charge when the request completes. The invariant it
/// guarantees — checked by property tests — is that the sum of admitted
/// costs never exceeds the budget, under any interleaving of admissions and
/// completions.
///
/// # Example
///
/// ```
/// use cocktail_core::{AdmitDecision, BatchScheduler, RequestId, SchedulerConfig};
///
/// let mut scheduler = BatchScheduler::new(SchedulerConfig::default().with_budget(1000));
/// let a = RequestId::new(0);
/// let b = RequestId::new(1);
/// scheduler.enqueue(a);
/// scheduler.enqueue(b);
/// assert_eq!(scheduler.try_admit(a, 700), AdmitDecision::Admitted);
/// // b must wait: 700 + 400 would blow the budget.
/// assert_eq!(scheduler.try_admit(b, 400), AdmitDecision::DeferredBudget);
/// scheduler.complete(a);
/// assert_eq!(scheduler.try_admit(b, 400), AdmitDecision::Admitted);
/// ```
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    config: SchedulerConfig,
    queue: VecDeque<RequestId>,
    running: Vec<(RequestId, usize)>,
    request_bytes: usize,
    shared_bytes: usize,
}

impl BatchScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        Self {
            config,
            queue: VecDeque::new(),
            running: Vec::new(),
            request_bytes: 0,
            shared_bytes: 0,
        }
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Appends a request to the tail of the admission queue.
    pub fn enqueue(&mut self, id: RequestId) {
        self.queue.push_back(id);
    }

    /// The request next in line for admission, if any.
    pub fn head(&self) -> Option<RequestId> {
        self.queue.front().copied()
    }

    /// Attempts to admit the *head* request with its measured cost.
    ///
    /// On [`AdmitDecision::Admitted`] the request moves from the queue to
    /// the running set and `cost_bytes` is charged against the budget. On
    /// [`AdmitDecision::Rejected`] the request is dropped from the queue.
    /// The deferred outcomes leave the queue untouched.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the head of the queue — FIFO admission is part
    /// of the determinism contract, so skipping is a caller bug.
    pub fn try_admit(&mut self, id: RequestId, cost_bytes: usize) -> AdmitDecision {
        assert_eq!(
            self.head(),
            Some(id),
            "only the head of the queue may be admitted (FIFO)"
        );
        if let Some(budget) = self.config.kv_budget_bytes {
            if cost_bytes > budget {
                self.queue.pop_front();
                return AdmitDecision::Rejected;
            }
        }
        // The batch cap is checked before the budget: a DeferredBudget
        // verdict invites the caller to free memory (e.g. evict shared
        // prefix blocks), which is pointless while the batch is full.
        if self.running.len() >= self.config.max_batch {
            return AdmitDecision::DeferredBatch;
        }
        if let Some(budget) = self.config.kv_budget_bytes {
            if self.used_bytes() + cost_bytes > budget {
                return AdmitDecision::DeferredBudget;
            }
        }
        self.queue.pop_front();
        self.running.push((id, cost_bytes));
        self.request_bytes += cost_bytes;
        AdmitDecision::Admitted
    }

    /// Removes the head request from the queue without admitting it (used
    /// when a request fails before admission, e.g. invalid input).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the head of the queue.
    pub(crate) fn drop_head(&mut self, id: RequestId) {
        assert_eq!(
            self.head(),
            Some(id),
            "only the head of the queue may be dropped"
        );
        self.queue.pop_front();
    }

    /// Removes a request from anywhere in the admission queue (the
    /// cancellation path: FIFO constrains *admission* order, but a
    /// cancelled request simply departs). Returns whether it was queued.
    pub(crate) fn remove_queued(&mut self, id: RequestId) -> bool {
        let before = self.queue.len();
        self.queue.retain(|&queued| queued != id);
        self.queue.len() != before
    }

    /// Marks a running request as complete, releasing its charged bytes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not currently running.
    pub fn complete(&mut self, id: RequestId) {
        let idx = self
            .running
            .iter()
            .position(|(r, _)| *r == id)
            .expect("completed request must be running");
        let (_, cost) = self.running.remove(idx);
        self.request_bytes -= cost;
    }

    /// Ids of the running requests in admission order (the round-robin
    /// decode order).
    pub fn running(&self) -> Vec<RequestId> {
        self.running.iter().map(|(id, _)| *id).collect()
    }

    /// Ids of the queued requests in FIFO order (head first).
    pub(crate) fn queued_ids(&self) -> Vec<RequestId> {
        self.queue.iter().copied().collect()
    }

    /// Number of running requests.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Number of queued (not yet admitted) requests.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Bytes currently charged against the budget: admitted request costs
    /// plus resident shared prefix-cache blocks.
    pub(crate) fn used_bytes(&self) -> usize {
        self.request_bytes + self.shared_bytes
    }

    /// Replaces the shared-block charge with the prefix cache's current
    /// resident footprint — the sum over resident trie nodes, so shared
    /// blocks are charged *once per node* regardless of how many cached
    /// branches pass through it or how many requests reference it; the
    /// owner (the serving engine) reports the cache's total after every
    /// insertion or eviction.
    pub(crate) fn set_shared_bytes(&mut self, bytes: usize) {
        self.shared_bytes = bytes;
    }

    /// Whether `additional` more shared bytes would still fit the budget
    /// alongside everything currently charged.
    pub(crate) fn would_fit_shared(&self, additional: usize) -> bool {
        self.config
            .kv_budget_bytes
            .map_or(true, |budget| self.used_bytes() + additional <= budget)
    }

    /// Whether the scheduler has no queued or running requests.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scheduler(budget: Option<usize>, max_batch: usize) -> BatchScheduler {
        BatchScheduler::new(SchedulerConfig {
            kv_budget_bytes: budget,
            max_batch,
        })
    }

    #[test]
    fn shared_bytes_count_against_the_budget() {
        let mut s = scheduler(Some(100), usize::MAX);
        assert!(s.would_fit_shared(100));
        assert!(!s.would_fit_shared(101));
        s.set_shared_bytes(40);
        assert_eq!(s.shared_bytes, 40);
        assert_eq!(s.used_bytes(), 40);
        assert!(s.would_fit_shared(60));
        assert!(s.would_fit_shared(20));
        assert!(!s.would_fit_shared(61));

        let id = RequestId::new(0);
        s.enqueue(id);
        // 70 request bytes + 40 shared would exceed 100: deferred, not
        // rejected (eviction could free the shared charge).
        assert_eq!(s.try_admit(id, 70), AdmitDecision::DeferredBudget);
        s.set_shared_bytes(10);
        assert_eq!(s.try_admit(id, 70), AdmitDecision::Admitted);
        assert_eq!(s.used_bytes(), 80);
        assert_eq!(s.request_bytes, 70);
        s.complete(id);
        assert_eq!(s.used_bytes(), 10);
    }

    #[test]
    fn full_batch_wins_over_tight_budget_in_deferral_verdicts() {
        let mut s = scheduler(Some(100), 1);
        let a = RequestId::new(0);
        let b = RequestId::new(1);
        s.enqueue(a);
        s.enqueue(b);
        assert_eq!(s.try_admit(a, 60), AdmitDecision::Admitted);
        // b is blocked by both the batch cap and the budget; the cap
        // verdict must win so callers don't evict shared memory they could
        // not use anyway.
        assert_eq!(s.try_admit(b, 60), AdmitDecision::DeferredBatch);
        s.complete(a);
        assert_eq!(s.try_admit(b, 60), AdmitDecision::Admitted);
    }

    #[test]
    fn fifo_admission_and_release() {
        let mut s = scheduler(Some(100), usize::MAX);
        let ids: Vec<RequestId> = (0..3).map(RequestId::new).collect();
        for &id in &ids {
            s.enqueue(id);
        }
        assert_eq!(s.try_admit(ids[0], 60), AdmitDecision::Admitted);
        assert_eq!(s.try_admit(ids[1], 60), AdmitDecision::DeferredBudget);
        assert_eq!(s.used_bytes(), 60);
        s.complete(ids[0]);
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(s.try_admit(ids[1], 60), AdmitDecision::Admitted);
        assert_eq!(s.try_admit(ids[2], 30), AdmitDecision::Admitted);
        assert_eq!(s.running(), vec![ids[1], ids[2]]);
    }

    #[test]
    fn oversized_request_is_rejected_not_deferred() {
        let mut s = scheduler(Some(100), usize::MAX);
        let id = RequestId::new(7);
        s.enqueue(id);
        assert_eq!(s.try_admit(id, 101), AdmitDecision::Rejected);
        assert!(s.is_idle());
    }

    #[test]
    fn batch_cap_defers_admission() {
        let mut s = scheduler(None, 1);
        let a = RequestId::new(0);
        let b = RequestId::new(1);
        s.enqueue(a);
        s.enqueue(b);
        assert_eq!(s.try_admit(a, 10), AdmitDecision::Admitted);
        assert_eq!(s.try_admit(b, 10), AdmitDecision::DeferredBatch);
        s.complete(a);
        assert_eq!(s.try_admit(b, 10), AdmitDecision::Admitted);
    }

    #[test]
    fn remove_queued_departs_from_any_position() {
        let mut s = scheduler(None, usize::MAX);
        let ids: Vec<RequestId> = (0..3).map(RequestId::new).collect();
        for &id in &ids {
            s.enqueue(id);
        }
        // Remove from the middle: FIFO admission order of the rest holds.
        assert!(s.remove_queued(ids[1]));
        assert!(!s.remove_queued(ids[1]), "already gone");
        assert_eq!(s.queued_ids(), vec![ids[0], ids[2]]);
        assert_eq!(s.try_admit(ids[0], 1), AdmitDecision::Admitted);
        assert_eq!(s.try_admit(ids[2], 1), AdmitDecision::Admitted);
        assert!(s.queued_ids().is_empty());
    }

    #[test]
    #[should_panic(expected = "FIFO")]
    fn admitting_out_of_order_panics() {
        let mut s = scheduler(None, usize::MAX);
        s.enqueue(RequestId::new(0));
        s.enqueue(RequestId::new(1));
        s.try_admit(RequestId::new(1), 10);
    }

    #[test]
    fn display_and_raw_roundtrip() {
        let id = RequestId::new(42);
        assert_eq!(id.to_string(), "req-42");
        assert_eq!(id.raw(), 42);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any budget and any cost sequence, driving the scheduler to
        /// quiescence (admit when possible, otherwise retire the oldest
        /// running request) never exceeds the budget and leaves every
        /// request either completed or rejected.
        #[test]
        fn budget_is_never_exceeded_and_every_request_terminates(
            budget in 1usize..5000,
            max_batch in 1usize..6,
            costs in proptest::collection::vec(1usize..2000, 1..24),
        ) {
            let mut s = scheduler(Some(budget), max_batch);
            for (i, _) in costs.iter().enumerate() {
                s.enqueue(RequestId::new(i as u64));
            }
            let mut completed = 0usize;
            let mut rejected = 0usize;
            let mut guard = 0usize;
            while !s.is_idle() {
                guard += 1;
                prop_assert!(guard < 10_000, "scheduler failed to quiesce");
                // Admit as long as the head fits.
                while let Some(head) = s.head() {
                    let cost = costs[head.raw() as usize];
                    match s.try_admit(head, cost) {
                        AdmitDecision::Admitted => {}
                        AdmitDecision::Rejected => rejected += 1,
                        AdmitDecision::DeferredBudget | AdmitDecision::DeferredBatch => break,
                    }
                    prop_assert!(s.used_bytes() <= budget, "budget exceeded");
                }
                // Retire the oldest running request (simulates completion).
                if let Some(&oldest) = s.running().first() {
                    s.complete(oldest);
                    completed += 1;
                }
                prop_assert!(s.used_bytes() <= budget);
            }
            prop_assert_eq!(completed + rejected, costs.len());
            // With a budget at least as large as the biggest request,
            // nothing is ever rejected.
            if costs.iter().all(|&c| c <= budget) {
                prop_assert_eq!(rejected, 0);
            }
        }
    }
}
