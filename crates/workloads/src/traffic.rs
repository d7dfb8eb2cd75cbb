//! Multi-request serving traffic: mixed task families with staggered
//! arrivals.
//!
//! The single-request generators in [`crate::TaskGenerator`] model one
//! LongBench-style task at a time. A serving engine needs *traffic*: many
//! requests of different families arriving over time. [`TrafficGenerator`]
//! produces a deterministic arrival schedule in which every request draws
//! its task content and its arrival step from its own per-request seed, so
//! a trace can be regenerated request-by-request (and stays stable when the
//! request count changes: request `i` is the same regardless of how many
//! follow it).

use crate::generators::{TaskGenerator, WorkloadConfig};
use crate::task::{TaskInstance, TaskKind};
use crate::text;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Shape of a generated traffic trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Number of requests in the trace.
    pub requests: usize,
    /// Arrival steps are drawn uniformly from `0..arrival_window_steps`
    /// (one step = one serving-engine step). Zero means all requests
    /// arrive up front.
    pub arrival_window_steps: usize,
    /// Generation budget of every request.
    pub max_new_tokens: usize,
    /// Size of each request's context/needles.
    pub workload: WorkloadConfig,
    /// Task families cycled through by consecutive requests.
    pub kinds: Vec<TaskKind>,
    /// Number of shared-prefix groups; `0` disables the shared-prefix
    /// mode. Request `i` belongs to group `i % prefix_groups` and its
    /// context opens with that group's preamble, so serving-side prefix
    /// caches see realistic shared-context traffic. Group membership and
    /// preambles depend only on the base seed and the group index, so they
    /// are stable when the trace grows.
    pub prefix_groups: usize,
    /// Number of words in each group's shared preamble.
    pub prefix_words: usize,
    /// Number of words in each request's *branch segment*, inserted
    /// between the group preamble and the task context; `0` disables the
    /// branching mode. Each branch segment is drawn from its request's own
    /// seed and opens with a request-unique tag, so requests of one group
    /// share their preamble tokens exactly and then *diverge immediately*
    /// — the traffic shape a trie-structured prefix cache deduplicates and
    /// a whole-sequence cache stores redundantly.
    pub branch_words: usize,
    /// Zipf exponent of the hot-tenant skew, in thousandths (`1200`
    /// means s = 1.2); `0` disables the skew. When enabled, request `i`'s
    /// prefix group is no longer `i % prefix_groups` but a weighted draw
    /// from the request's own seed with group `g` weighted
    /// `(g + 1)^-s` — group 0 is the hot tenant. The draw depends only on
    /// the request seed and this exponent, so group membership is stable
    /// when the trace grows.
    pub tenant_skew_milli: u32,
    /// Out of 1000, the probability that a request is cancelled
    /// client-side mid-decode (a disconnecting user); `0` disables the
    /// cancellation mode. A cancelled request carries
    /// [`TrafficRequest::cancel_after_tokens`], the number of streamed
    /// tokens after which the client gives up — always strictly below the
    /// request's generation budget. Drawn from each request's own seed, so
    /// who cancels (and when) is stable when the trace grows.
    pub cancel_per_mille: u32,
    /// Stop strings cycled across requests (request `i` gets entry
    /// `i % len`); empty disables early text stopping.
    pub stop_strings: Vec<String>,
    /// When set, the request at this position of the arrival-sorted trace
    /// carries [`TrafficRequest::restart_before`]: the serving harness
    /// should snapshot the engine, tear it down, and restore a fresh one
    /// before submitting that request (the warm-restart drill). `None`
    /// disables the restart mode.
    pub restart_after_requests: Option<usize>,
    /// Multi-turn chat mode; `None` keeps the single-shot trace. When
    /// set, the trace becomes `requests` *conversations* of
    /// [`ChatSpec::turns`] turns each: every turn is its own
    /// [`TrafficRequest`] whose context is the conversation transcript so
    /// far (preamble + every earlier user message and canned assistant
    /// reply), so each turn strictly *extends* the previous turn's
    /// context — the trie-extension traffic a prefix cache was built for.
    /// Overrides the shared-prefix/branching modes.
    pub chat: Option<ChatSpec>,
}

/// Shape of the multi-turn chat mode (see [`TrafficConfig::chat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChatSpec {
    /// Turns per conversation; each turn is one request.
    pub turns: usize,
    /// Words in each user message, canned assistant reply, and (in the
    /// tool-loop variant) tool-result segment.
    pub words_per_turn: usize,
    /// Words in the per-conversation preamble (system prompt / pasted
    /// document). The builders default this to 12x the per-turn
    /// transcript increment, so from the second turn on the reusable
    /// prior transcript is at least 12/13 ≈ 92% of the context.
    pub preamble_words: usize,
    /// Agentic tool-call-loop variant: each completed turn appends a
    /// fixed tool-result segment between the user message and the
    /// assistant reply, as an agent interleaving tool output would.
    pub tool_loop: bool,
}

impl ChatSpec {
    /// Words a completed turn appends to the transcript: the user
    /// message, the tool-result segment (tool-loop only), and the canned
    /// assistant reply.
    pub(crate) fn turn_increment_words(&self) -> usize {
        let segments = if self.tool_loop { 3 } else { 2 };
        segments * self.words_per_turn
    }
}

/// Chat-turn coordinates of one request (see [`TrafficConfig::chat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChatTurn {
    /// Which conversation this turn belongs to.
    pub conversation: usize,
    /// Zero-based turn within the conversation.
    pub turn: usize,
    /// Total turns of the conversation.
    pub turns: usize,
}

impl TrafficConfig {
    /// A small mixed-family trace suitable for tests and examples.
    pub fn small(requests: usize) -> Self {
        Self {
            requests,
            arrival_window_steps: 8,
            max_new_tokens: 8,
            workload: WorkloadConfig::tiny(),
            kinds: vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa],
            prefix_groups: 0,
            prefix_words: 0,
            branch_words: 0,
            tenant_skew_milli: 0,
            cancel_per_mille: 0,
            stop_strings: Vec::new(),
            restart_after_requests: None,
            chat: None,
        }
    }

    /// Returns a copy with a different arrival window.
    pub fn with_arrival_window(mut self, steps: usize) -> Self {
        self.arrival_window_steps = steps;
        self
    }

    /// Returns a copy with a different per-request generation budget.
    pub fn with_max_new_tokens(mut self, tokens: usize) -> Self {
        self.max_new_tokens = tokens;
        self
    }

    /// Returns a copy with shared-prefix traffic: `groups` preambles of
    /// `words` words each, cycled over the requests.
    pub fn with_shared_prefix(mut self, groups: usize, words: usize) -> Self {
        self.prefix_groups = groups;
        self.prefix_words = words;
        self
    }

    /// Returns a copy with *branching* shared-prefix traffic: `groups`
    /// preambles of `words` words cycled over the requests (as in
    /// [`TrafficConfig::with_shared_prefix`]), with every request
    /// additionally inserting its own `branch_words`-word branch segment
    /// between the preamble and its task context. Requests of one group
    /// therefore share their leading tokens exactly and then diverge
    /// immediately — the divergent-branch traffic a trie-structured prefix
    /// cache stores once per shared run while a whole-sequence cache
    /// duplicates the preamble per branch.
    pub fn with_branching_prefix(
        mut self,
        groups: usize,
        words: usize,
        branch_words: usize,
    ) -> Self {
        self.prefix_groups = groups;
        self.prefix_words = words;
        self.branch_words = branch_words;
        self
    }

    /// Returns a copy with Zipf-ish hot-tenant skew over the prefix
    /// groups: group membership becomes a per-request weighted draw with
    /// group `g` weighted `(g + 1)^-s`, where `s` is
    /// `exponent_milli / 1000`. Group 0 is the hot tenant. Only
    /// meaningful together with [`TrafficConfig::with_shared_prefix`] or
    /// [`TrafficConfig::with_branching_prefix`]; `0` restores the uniform
    /// `i % prefix_groups` cycling.
    pub fn with_tenant_skew(mut self, exponent_milli: u32) -> Self {
        self.tenant_skew_milli = exponent_milli;
        self
    }

    /// Returns a copy in which roughly `per_mille`/1000 of the requests
    /// are cancelled client-side mid-decode (clamped to 1000).
    pub fn with_cancellations(mut self, per_mille: u32) -> Self {
        self.cancel_per_mille = per_mille.min(1000);
        self
    }

    /// Returns a copy with stop strings cycled across the requests.
    pub fn with_stop_strings(mut self, stops: Vec<String>) -> Self {
        self.stop_strings = stops;
        self
    }

    /// Returns a copy with a serving-restart point: the request at
    /// position `after_requests` of the arrival-sorted trace is marked
    /// [`TrafficRequest::restart_before`], telling the harness to
    /// snapshot, tear down, and restore the engine before submitting it.
    /// Positions past the end of the trace mark nothing.
    pub fn with_restart_point(mut self, after_requests: usize) -> Self {
        self.restart_after_requests = Some(after_requests);
        self
    }

    /// Returns a copy in multi-turn chat mode: `requests` conversations
    /// of `turns` turns, each turn a request whose context is the
    /// transcript of every earlier turn (and whose query is that turn's
    /// user message of `words_per_turn` words). The per-conversation
    /// preamble defaults to 12x the per-turn transcript increment, so
    /// turns ≥ 2 can reuse ≥ 92% of their context from the trie; override
    /// with [`TrafficConfig::with_chat_preamble`].
    pub fn with_chat_turns(mut self, turns: usize, words_per_turn: usize) -> Self {
        let spec = ChatSpec {
            turns,
            words_per_turn,
            preamble_words: 0,
            tool_loop: false,
        };
        self.chat = Some(ChatSpec {
            preamble_words: 12 * spec.turn_increment_words(),
            ..spec
        });
        self
    }

    /// Returns a copy in the agentic tool-call-loop chat variant: as
    /// [`TrafficConfig::with_chat_turns`], but each completed turn also
    /// appends a fixed `words_per_turn`-word tool-result segment to the
    /// transcript between the user message and the assistant reply.
    pub fn with_chat_tool_loop(mut self, turns: usize, words_per_turn: usize) -> Self {
        let spec = ChatSpec {
            turns,
            words_per_turn,
            preamble_words: 0,
            tool_loop: true,
        };
        self.chat = Some(ChatSpec {
            preamble_words: 12 * spec.turn_increment_words(),
            ..spec
        });
        self
    }

    /// Overrides the chat preamble length (words). Only meaningful after
    /// [`TrafficConfig::with_chat_turns`] or
    /// [`TrafficConfig::with_chat_tool_loop`].
    pub fn with_chat_preamble(mut self, words: usize) -> Self {
        if let Some(spec) = self.chat.as_mut() {
            spec.preamble_words = words;
        }
        self
    }
}

/// One request of a traffic trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficRequest {
    /// Position of the request in the trace (also its tiebreak order for
    /// equal arrival steps).
    pub index: usize,
    /// Serving-engine step at which the request arrives.
    pub arrival_step: usize,
    /// The seed this request's content and arrival were drawn from.
    pub seed: u64,
    /// Generation budget.
    pub max_new_tokens: usize,
    /// The shared-prefix group this request belongs to (`None` when the
    /// shared-prefix mode is disabled).
    pub prefix_group: Option<usize>,
    /// When set, the client disconnects after streaming this many tokens
    /// (strictly below `max_new_tokens`): the serving driver should cancel
    /// the request at that point.
    pub cancel_after_tokens: Option<usize>,
    /// The stop string this request asks the server to end generation on
    /// (`None` when the stop-string mode is disabled).
    pub stop_string: Option<String>,
    /// `true` when the serving harness should snapshot the engine and
    /// restore it into a fresh process *before* submitting this request —
    /// the warm-restart drill of
    /// [`TrafficConfig::with_restart_point`]. At most one request of a
    /// trace carries the marker.
    pub restart_before: bool,
    /// Chat-turn coordinates (`None` outside chat mode). Turn `t > 0` of
    /// a conversation must be submitted after turn `t - 1` completed.
    pub chat: Option<ChatTurn>,
    /// The task (context, query, reference answer). In shared-prefix mode
    /// the context opens with the group preamble.
    pub task: TaskInstance,
}

/// Deterministic generator of mixed-arrival serving traffic.
///
/// # Example
///
/// ```
/// use cocktail_workloads::{TrafficConfig, TrafficGenerator};
///
/// let traffic = TrafficGenerator::new(TrafficConfig::small(5), 42).generate();
/// assert_eq!(traffic.len(), 5);
/// // Sorted by arrival, deterministic per seed.
/// assert!(traffic.windows(2).all(|w| w[0].arrival_step <= w[1].arrival_step));
/// let again = TrafficGenerator::new(TrafficConfig::small(5), 42).generate();
/// assert_eq!(traffic, again);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    base_seed: u64,
}

impl TrafficGenerator {
    /// Creates a generator for the given trace shape and base seed.
    pub fn new(config: TrafficConfig, base_seed: u64) -> Self {
        Self { config, base_seed }
    }

    /// The trace configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Per-request seed: a SplitMix-style mix of the base seed and the
    /// request index, so each request's randomness is independent of the
    /// trace length.
    fn request_seed(&self, index: usize) -> u64 {
        let mut z = self
            .base_seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The shared preamble of one prefix group: a fixed-length word
    /// sequence drawn from the base seed and the group index only, so every
    /// request of the group — in any trace length — opens with identical
    /// tokens.
    pub(crate) fn group_preamble(&self, group: usize) -> String {
        let words = self.config.prefix_words;
        if words == 0 {
            return String::new();
        }
        let mut rng = text::text_rng(
            self.base_seed ^ (group as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5_11A_12E,
        );
        // The group tag comes first so even a 1-word preamble still
        // distinguishes groups.
        let mut collected: Vec<String> = vec![format!("channel{group}"), "briefing".to_string()];
        while collected.len() < words {
            let sentence = text::filler_sentence(&mut rng);
            collected.extend(sentence.split_whitespace().map(str::to_string));
        }
        collected.truncate(words);
        collected.join(" ")
    }

    /// The prefix group of one request: the uniform `index % groups`
    /// cycle by default, or — with [`TrafficConfig::with_tenant_skew`] —
    /// a Zipf-ish weighted draw from the request's own seed, so hot
    /// tenants issue most of the branching traffic. Depends only on the
    /// request's index/seed and the config, never on the trace length.
    pub(crate) fn prefix_group_of(&self, index: usize, seed: u64) -> Option<usize> {
        let groups = self.config.prefix_groups;
        if groups == 0 {
            return None;
        }
        if self.config.tenant_skew_milli == 0 {
            return Some(index % groups);
        }
        let s = f64::from(self.config.tenant_skew_milli) / 1000.0;
        let weights: Vec<f64> = (0..groups).map(|g| ((g + 1) as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E2A_4A57);
        let mut draw = rng.gen_range(0.0..total);
        for (g, weight) in weights.iter().enumerate() {
            if draw < *weight {
                return Some(g);
            }
            draw -= weight;
        }
        Some(groups - 1)
    }

    /// The branch segment of one request in branching-prefix mode: a
    /// request-unique tag word followed by filler drawn from the request's
    /// seed, so the request diverges from its group's preamble at its very
    /// first post-preamble token and stays stable under trace growth.
    /// `None` when the branching mode is disabled.
    pub(crate) fn branch_segment(&self, index: usize, seed: u64) -> Option<String> {
        let words = self.config.branch_words;
        if words == 0 {
            return None;
        }
        let mut rng = text::text_rng(seed ^ 0xB8A2_C41F);
        // The unique tag comes first so even a 1-word branch diverges.
        let mut collected: Vec<String> = vec![format!("fork{index}")];
        while collected.len() < words {
            let sentence = text::filler_sentence(&mut rng);
            collected.extend(sentence.split_whitespace().map(str::to_string));
        }
        collected.truncate(words);
        Some(collected.join(" "))
    }

    /// A fixed-length word run for one chat segment: the distinguishing
    /// tag words first, then filler drawn from `seed`.
    fn chat_words(seed: u64, tags: Vec<String>, words: usize) -> String {
        let mut rng = text::text_rng(seed);
        let mut collected = tags;
        while collected.len() < words {
            let sentence = text::filler_sentence(&mut rng);
            collected.extend(sentence.split_whitespace().map(str::to_string));
        }
        collected.truncate(words);
        collected.join(" ")
    }

    /// Per-(conversation, turn, role) seed for chat text, independent of
    /// the trace length and turn count.
    fn chat_seed(&self, conversation: usize, turn: usize, salt: u64) -> u64 {
        let mut z = self.base_seed
            ^ (conversation as u64).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ (turn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The per-conversation chat preamble (system prompt / pasted
    /// document): fixed words drawn from the base seed and the
    /// conversation index only, so every turn of the conversation opens
    /// with identical tokens. Empty outside chat mode.
    pub(crate) fn chat_preamble(&self, conversation: usize) -> String {
        let Some(spec) = &self.config.chat else {
            return String::new();
        };
        if spec.preamble_words == 0 {
            return String::new();
        }
        Self::chat_words(
            self.chat_seed(conversation, 0, 0xC0A7),
            vec![format!("chat{conversation}"), "session".to_string()],
            spec.preamble_words,
        )
    }

    /// Turn `turn`'s user message (the request's query; earlier turns'
    /// messages are part of the transcript). Empty outside chat mode.
    pub(crate) fn chat_user_message(&self, conversation: usize, turn: usize) -> String {
        let Some(spec) = &self.config.chat else {
            return String::new();
        };
        Self::chat_words(
            self.chat_seed(conversation, turn, 0x05E7),
            vec![format!("turn{turn}"), "question".to_string()],
            spec.words_per_turn,
        )
    }

    /// The canned assistant reply appended to the transcript once turn
    /// `turn` completes. A deterministic stand-in for the served answer,
    /// so greedy and sampled runs of the same trace share their
    /// transcripts token-for-token. Empty outside chat mode.
    pub(crate) fn chat_assistant_segment(&self, conversation: usize, turn: usize) -> String {
        let Some(spec) = &self.config.chat else {
            return String::new();
        };
        Self::chat_words(
            self.chat_seed(conversation, turn, 0xA551),
            vec![format!("reply{turn}"), "answer".to_string()],
            spec.words_per_turn,
        )
    }

    /// The fixed tool-result segment the tool-loop variant interleaves
    /// between turn `turn`'s user message and assistant reply. `None`
    /// outside the tool-loop chat mode.
    pub(crate) fn chat_tool_segment(&self, conversation: usize, turn: usize) -> Option<String> {
        let spec = self.config.chat.as_ref()?;
        if !spec.tool_loop {
            return None;
        }
        Some(Self::chat_words(
            self.chat_seed(conversation, turn, 0x7001),
            vec![format!("toolresult{turn}"), "output".to_string()],
            spec.words_per_turn,
        ))
    }

    /// The conversation transcript turn `turn` conditions on: the
    /// preamble plus every earlier turn's user message, tool result
    /// (tool-loop only), and assistant reply. Turn `t`'s transcript is a
    /// strict word-level extension of turn `t - 1`'s, so each turn hits
    /// the prefix trie on its entire prior transcript.
    pub(crate) fn chat_transcript(&self, conversation: usize, turn: usize) -> String {
        let mut parts = vec![self.chat_preamble(conversation)];
        for earlier in 0..turn {
            parts.push(self.chat_user_message(conversation, earlier));
            if let Some(tool) = self.chat_tool_segment(conversation, earlier) {
                parts.push(tool);
            }
            parts.push(self.chat_assistant_segment(conversation, earlier));
        }
        parts.retain(|p| !p.is_empty());
        parts.join(" ")
    }

    /// The chat-mode trace: one request per (conversation, turn), indexed
    /// `conversation * turns + turn` so conversations keep their identity
    /// when more are appended. Arrivals are turn-major (turn `t` arrives
    /// at step `t`): same-turn requests of different conversations batch
    /// together, and a turn never arrives before its predecessor.
    fn chat_requests(&self, spec: &ChatSpec) -> Vec<TrafficRequest> {
        let kinds = if self.config.kinds.is_empty() {
            vec![TaskKind::Qasper]
        } else {
            self.config.kinds.clone()
        };
        let turns = spec.turns.max(1);
        let mut requests = Vec::with_capacity(self.config.requests * turns);
        for conversation in 0..self.config.requests {
            for turn in 0..turns {
                let index = conversation * turns + turn;
                let seed = self.request_seed(index);
                let task = TaskInstance {
                    kind: kinds[conversation % kinds.len()],
                    context: self.chat_transcript(conversation, turn),
                    query: self.chat_user_message(conversation, turn),
                    reference: String::new(),
                    needles: Vec::new(),
                    seed,
                };
                requests.push(TrafficRequest {
                    index,
                    arrival_step: turn,
                    seed,
                    max_new_tokens: self.config.max_new_tokens,
                    prefix_group: None,
                    cancel_after_tokens: self.cancel_draw(seed),
                    stop_string: self.stop_string_for(index),
                    restart_before: false,
                    chat: Some(ChatTurn {
                        conversation,
                        turn,
                        turns,
                    }),
                    task,
                });
            }
        }
        requests
    }

    /// The client-side cancellation draw of one request (see
    /// [`TrafficConfig::with_cancellations`]).
    fn cancel_draw(&self, seed: u64) -> Option<usize> {
        if self.config.cancel_per_mille > 0 && self.config.max_new_tokens > 1 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCA9C_E11E);
            (rng.gen_range(0..1000) < self.config.cancel_per_mille)
                .then(|| rng.gen_range(1..self.config.max_new_tokens))
        } else {
            None
        }
    }

    /// The stop string cycled onto one request, if the mode is enabled.
    fn stop_string_for(&self, index: usize) -> Option<String> {
        (!self.config.stop_strings.is_empty())
            .then(|| self.config.stop_strings[index % self.config.stop_strings.len()].clone())
    }

    /// Generates the trace, sorted by arrival step (ties keep submission
    /// order by index).
    pub fn generate(&self) -> Vec<TrafficRequest> {
        if let Some(spec) = self.config.chat {
            let mut requests = self.chat_requests(&spec);
            requests.sort_by_key(|r| (r.arrival_step, r.index));
            if let Some(point) = self.config.restart_after_requests {
                if let Some(request) = requests.get_mut(point) {
                    request.restart_before = true;
                }
            }
            return requests;
        }
        let kinds = if self.config.kinds.is_empty() {
            vec![TaskKind::Qasper]
        } else {
            self.config.kinds.clone()
        };
        let mut requests: Vec<TrafficRequest> = (0..self.config.requests)
            .map(|index| {
                let seed = self.request_seed(index);
                let kind = kinds[index % kinds.len()];
                let arrival_step = if self.config.arrival_window_steps == 0 {
                    0
                } else {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0A22_17A1);
                    rng.gen_range(0..self.config.arrival_window_steps)
                };
                let mut task = TaskGenerator::new(kind, self.config.workload).generate(seed);
                let prefix_group = if let Some(group) = self.prefix_group_of(index, seed) {
                    let branch = self.branch_segment(index, seed);
                    task.context = match branch {
                        Some(branch) => format!(
                            "{} . {branch} . {}",
                            self.group_preamble(group),
                            task.context
                        ),
                        None => format!("{} . {}", self.group_preamble(group), task.context),
                    };
                    Some(group)
                } else {
                    None
                };
                TrafficRequest {
                    index,
                    arrival_step,
                    seed,
                    max_new_tokens: self.config.max_new_tokens,
                    prefix_group,
                    cancel_after_tokens: self.cancel_draw(seed),
                    stop_string: self.stop_string_for(index),
                    restart_before: false,
                    chat: None,
                    task,
                }
            })
            .collect();
        requests.sort_by_key(|r| (r.arrival_step, r.index));
        // The restart point is positional in the *served* (arrival) order:
        // "restart after N requests have been submitted".
        if let Some(point) = self.config.restart_after_requests {
            if let Some(request) = requests.get_mut(point) {
                request.restart_before = true;
            }
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_seed_sensitive() {
        let a = TrafficGenerator::new(TrafficConfig::small(6), 1).generate();
        let b = TrafficGenerator::new(TrafficConfig::small(6), 1).generate();
        let c = TrafficGenerator::new(TrafficConfig::small(6), 2).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn request_identity_is_stable_under_trace_growth() {
        let short = TrafficGenerator::new(TrafficConfig::small(3), 7).generate();
        let long = TrafficGenerator::new(TrafficConfig::small(8), 7).generate();
        for request in &short {
            let twin = long
                .iter()
                .find(|r| r.index == request.index)
                .expect("request present in longer trace");
            assert_eq!(request, twin);
        }
    }

    #[test]
    fn kinds_cycle_and_arrivals_stay_in_window() {
        let config = TrafficConfig::small(9).with_arrival_window(5);
        let trace = TrafficGenerator::new(config.clone(), 3).generate();
        for request in &trace {
            assert!(request.arrival_step < 5);
            let expected = config.kinds[request.index % config.kinds.len()];
            assert_eq!(request.task.kind, expected);
        }
        // All three families appear.
        for kind in &config.kinds {
            assert!(trace.iter().any(|r| r.task.kind == *kind));
        }
    }

    #[test]
    fn zero_window_means_everything_arrives_up_front() {
        let config = TrafficConfig::small(4).with_arrival_window(0);
        let generator = TrafficGenerator::new(config, 11);
        let trace = generator.generate();
        assert_eq!(trace.len(), 4);
        assert!(trace.iter().all(|r| r.arrival_step == 0));
    }

    #[test]
    fn shared_prefix_groups_share_their_preamble_word_for_word() {
        let config = TrafficConfig::small(9).with_shared_prefix(3, 24);
        let generator = TrafficGenerator::new(config, 17);
        let trace = generator.generate();
        for request in &trace {
            let group = request.prefix_group.expect("prefix mode is on");
            assert_eq!(group, request.index % 3);
            let preamble = generator.group_preamble(group);
            assert_eq!(preamble.split_whitespace().count(), 24);
            assert!(
                request.task.context.starts_with(&preamble),
                "request {} does not open with its group preamble",
                request.index
            );
        }
        // Distinct groups have distinct preambles.
        assert_ne!(generator.group_preamble(0), generator.group_preamble(1));
        assert_ne!(generator.group_preamble(1), generator.group_preamble(2));
        // Even a one-word preamble keeps the groups distinguishable.
        let one_word = TrafficGenerator::new(TrafficConfig::small(2).with_shared_prefix(2, 1), 17);
        assert_ne!(one_word.group_preamble(0), one_word.group_preamble(1));
    }

    #[test]
    fn shared_prefix_requests_stay_stable_under_trace_growth() {
        let config = |n| TrafficConfig::small(n).with_shared_prefix(2, 16);
        let short = TrafficGenerator::new(config(4), 23).generate();
        let long = TrafficGenerator::new(config(10), 23).generate();
        for request in &short {
            let twin = long
                .iter()
                .find(|r| r.index == request.index)
                .expect("request present in longer trace");
            assert_eq!(
                request, twin,
                "shared-prefix request changed as the trace grew"
            );
        }
    }

    #[test]
    fn branching_prefix_shares_the_preamble_then_diverges_immediately() {
        let config = TrafficConfig::small(6).with_branching_prefix(2, 24, 8);
        let generator = TrafficGenerator::new(config, 19);
        let trace = generator.generate();
        for request in &trace {
            let group = request.prefix_group.expect("branching mode is on");
            let preamble = generator.group_preamble(group);
            let branch = generator
                .branch_segment(request.index, request.seed)
                .expect("branching mode is on");
            assert_eq!(branch.split_whitespace().count(), 8);
            assert!(
                branch.starts_with(&format!("fork{}", request.index)),
                "branch must open with the request-unique tag"
            );
            assert!(
                request
                    .task
                    .context
                    .starts_with(&format!("{preamble} . {branch} . ")),
                "request {} does not open with preamble + its own branch",
                request.index
            );
        }
        // Same group, different requests: identical preamble words, then a
        // divergent first post-preamble word.
        let (a, b) = (
            trace.iter().find(|r| r.index == 0).unwrap(),
            trace.iter().find(|r| r.index == 2).unwrap(),
        );
        assert_eq!(a.prefix_group, b.prefix_group);
        let preamble = generator.group_preamble(0);
        let tail = |r: &TrafficRequest| {
            r.task.context[preamble.len() + 3..]
                .split_whitespace()
                .next()
                .unwrap()
                .to_string()
        };
        assert_ne!(tail(a), tail(b), "branches must diverge at the first word");
    }

    #[test]
    fn branching_prefix_requests_stay_stable_under_trace_growth() {
        let config = |n| TrafficConfig::small(n).with_branching_prefix(2, 16, 6);
        let short = TrafficGenerator::new(config(4), 29).generate();
        let long = TrafficGenerator::new(config(9), 29).generate();
        for request in &short {
            let twin = long
                .iter()
                .find(|r| r.index == request.index)
                .expect("request present in longer trace");
            assert_eq!(request, twin, "branching request changed as the trace grew");
        }
    }

    #[test]
    fn disabled_branching_mode_adds_no_segment() {
        let generator = TrafficGenerator::new(TrafficConfig::small(3).with_shared_prefix(2, 12), 7);
        let trace = generator.generate();
        assert!(generator.branch_segment(0, trace[0].seed).is_none());
        for request in &trace {
            assert!(!request.task.context.contains("fork"));
        }
    }

    #[test]
    fn disabled_prefix_mode_leaves_contexts_untouched() {
        let plain = TrafficGenerator::new(TrafficConfig::small(3), 7).generate();
        assert!(plain.iter().all(|r| r.prefix_group.is_none()));
        let prefixed =
            TrafficGenerator::new(TrafficConfig::small(3).with_shared_prefix(1, 12), 7).generate();
        for (a, b) in plain.iter().zip(&prefixed) {
            assert!(b.task.context.ends_with(&a.task.context));
            assert_ne!(a.task.context, b.task.context);
        }
    }

    #[test]
    fn cancellations_are_deterministic_bounded_and_stable_under_growth() {
        let config = |n| {
            TrafficConfig::small(n)
                .with_max_new_tokens(12)
                .with_cancellations(500)
        };
        let trace = TrafficGenerator::new(config(20), 31).generate();
        let cancelled: Vec<&TrafficRequest> = trace
            .iter()
            .filter(|r| r.cancel_after_tokens.is_some())
            .collect();
        assert!(!cancelled.is_empty(), "500/1000 over 20 requests must hit");
        assert!(cancelled.len() < trace.len(), "and must not hit everyone");
        for request in &cancelled {
            let after = request.cancel_after_tokens.unwrap();
            assert!(
                (1..request.max_new_tokens).contains(&after),
                "cancel point {after} outside 1..{}",
                request.max_new_tokens
            );
        }
        // Same seed, longer trace: request identity (incl. cancel draw)
        // is unchanged.
        let long = TrafficGenerator::new(config(30), 31).generate();
        for request in &trace {
            let twin = long.iter().find(|r| r.index == request.index).unwrap();
            assert_eq!(request.cancel_after_tokens, twin.cancel_after_tokens);
        }
        // Disabled by default.
        let plain = TrafficGenerator::new(TrafficConfig::small(5), 31).generate();
        assert!(plain.iter().all(|r| r.cancel_after_tokens.is_none()));
    }

    #[test]
    fn tenant_skew_concentrates_traffic_on_the_hot_tenant() {
        let config = TrafficConfig::small(60)
            .with_branching_prefix(4, 16, 6)
            .with_tenant_skew(1200);
        let generator = TrafficGenerator::new(config, 41);
        let trace = generator.generate();
        let mut counts = [0usize; 4];
        for request in &trace {
            let group = request.prefix_group.expect("prefix mode is on");
            counts[group] += 1;
            // The context still opens with the drawn group's preamble.
            assert!(request
                .task
                .context
                .starts_with(&generator.group_preamble(group)));
        }
        // Group 0 is the hot tenant: it must dominate every other group
        // strictly, and every group still appears.
        for (group, &count) in counts.iter().enumerate().skip(1) {
            assert!(
                counts[0] > count,
                "hot tenant {} not dominant over group {group} ({count})",
                counts[0]
            );
            assert!(count > 0, "group {group} never appears");
        }
        assert!(
            counts[0] * 3 > trace.len(),
            "hot tenant holds under a third of the traffic: {counts:?}"
        );
    }

    #[test]
    fn tenant_skew_is_deterministic_and_stable_under_trace_growth() {
        let config = |n| {
            TrafficConfig::small(n)
                .with_branching_prefix(3, 12, 4)
                .with_tenant_skew(900)
        };
        let short = TrafficGenerator::new(config(6), 43).generate();
        let again = TrafficGenerator::new(config(6), 43).generate();
        let long = TrafficGenerator::new(config(18), 43).generate();
        assert_eq!(short, again);
        for request in &short {
            let twin = long
                .iter()
                .find(|r| r.index == request.index)
                .expect("request present in longer trace");
            assert_eq!(request, twin, "skewed request changed as the trace grew");
        }
        // Different seeds draw different group sequences.
        let other = TrafficGenerator::new(config(18), 44).generate();
        assert!(short.iter().any(|r| other
            .iter()
            .any(|o| o.index == r.index && o.prefix_group != r.prefix_group)));
    }

    #[test]
    fn zero_tenant_skew_restores_the_uniform_group_cycle() {
        let skewless = TrafficGenerator::new(
            TrafficConfig::small(8)
                .with_shared_prefix(3, 8)
                .with_tenant_skew(0),
            13,
        )
        .generate();
        let plain =
            TrafficGenerator::new(TrafficConfig::small(8).with_shared_prefix(3, 8), 13).generate();
        assert_eq!(skewless, plain);
        for request in &plain {
            assert_eq!(request.prefix_group, Some(request.index % 3));
        }
    }

    #[test]
    fn stop_strings_cycle_across_requests() {
        let stops = vec!["alpha".to_string(), "beta".to_string()];
        let config = TrafficConfig::small(5).with_stop_strings(stops.clone());
        let trace = TrafficGenerator::new(config, 7).generate();
        for request in &trace {
            assert_eq!(
                request.stop_string.as_deref(),
                Some(stops[request.index % 2].as_str())
            );
        }
        let plain = TrafficGenerator::new(TrafficConfig::small(3), 7).generate();
        assert!(plain.iter().all(|r| r.stop_string.is_none()));
    }

    #[test]
    fn restart_point_marks_exactly_one_request_in_arrival_order() {
        let config = TrafficConfig::small(6).with_restart_point(3);
        let trace = TrafficGenerator::new(config, 9).generate();
        let marked: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, r)| r.restart_before)
            .map(|(position, _)| position)
            .collect();
        assert_eq!(marked, vec![3], "the marker is positional in arrival order");
        // Out-of-range restart points mark nothing.
        let short = TrafficGenerator::new(TrafficConfig::small(3).with_restart_point(10), 9);
        assert!(short.generate().iter().all(|r| !r.restart_before));
        // Disabled by default.
        let plain = TrafficGenerator::new(TrafficConfig::small(3), 9).generate();
        assert!(plain.iter().all(|r| !r.restart_before));
    }

    #[test]
    fn chat_turns_extend_the_prior_transcript_word_for_word() {
        let config = TrafficConfig::small(2).with_chat_turns(3, 8);
        let generator = TrafficGenerator::new(config, 37);
        let trace = generator.generate();
        assert_eq!(trace.len(), 2 * 3, "one request per (conversation, turn)");
        for request in &trace {
            let chat = request.chat.expect("chat mode is on");
            assert_eq!(request.index, chat.conversation * 3 + chat.turn);
            assert_eq!(request.arrival_step, chat.turn);
            // The query is this turn's user message; the context opens
            // with the conversation preamble.
            assert_eq!(
                request.task.query,
                generator.chat_user_message(chat.conversation, chat.turn)
            );
            assert!(request
                .task
                .context
                .starts_with(&generator.chat_preamble(chat.conversation)));
            // Turn t's context is a strict extension of turn t-1's.
            if chat.turn > 0 {
                let prior = generator.chat_transcript(chat.conversation, chat.turn - 1);
                assert!(
                    request.task.context.starts_with(&prior),
                    "turn {} does not extend turn {}'s transcript",
                    chat.turn,
                    chat.turn - 1
                );
                assert!(request.task.context.len() > prior.len());
                // The extension is exactly one turn increment.
                let spec = generator.config().chat.unwrap();
                let grown = request.task.context.split_whitespace().count()
                    - prior.split_whitespace().count();
                assert_eq!(grown, spec.turn_increment_words());
            }
        }
        // Distinct conversations have distinct preambles.
        assert_ne!(generator.chat_preamble(0), generator.chat_preamble(1));
    }

    #[test]
    fn chat_preamble_dominates_the_transcript_from_the_second_turn() {
        let generator = TrafficGenerator::new(TrafficConfig::small(1).with_chat_turns(3, 8), 5);
        for turn in 1..3 {
            let prior = generator
                .chat_transcript(0, turn - 1)
                .split_whitespace()
                .count();
            let now = generator
                .chat_transcript(0, turn)
                .split_whitespace()
                .count();
            assert!(
                (prior as f64) / (now as f64) >= 0.9,
                "turn {turn}: reusable prior transcript {prior}/{now} below 90%"
            );
        }
    }

    #[test]
    fn chat_tool_loop_interleaves_fixed_tool_results() {
        let config = TrafficConfig::small(1).with_chat_tool_loop(3, 6);
        let generator = TrafficGenerator::new(config, 53);
        let trace = generator.generate();
        // Turn 1's transcript holds turn 0's user message, tool result,
        // and assistant reply, in that order.
        let second = trace.iter().find(|r| r.chat.unwrap().turn == 1).unwrap();
        let user = generator.chat_user_message(0, 0);
        let tool = generator.chat_tool_segment(0, 0).expect("tool loop is on");
        let reply = generator.chat_assistant_segment(0, 0);
        assert!(tool.starts_with("toolresult0"));
        let context = &second.task.context;
        let user_at = context.find(&user).expect("user message in transcript");
        let tool_at = context.find(&tool).expect("tool result in transcript");
        let reply_at = context.find(&reply).expect("assistant reply in transcript");
        assert!(user_at < tool_at && tool_at < reply_at);
        // The plain chat mode has no tool segments.
        let plain = TrafficGenerator::new(TrafficConfig::small(1).with_chat_turns(2, 6), 53);
        assert!(plain.chat_tool_segment(0, 0).is_none());
        assert!(!plain.chat_transcript(0, 1).contains("toolresult"));
    }

    #[test]
    fn chat_traces_are_deterministic_and_stable_under_conversation_growth() {
        let config = |n| TrafficConfig::small(n).with_chat_turns(3, 8);
        let short = TrafficGenerator::new(config(2), 61).generate();
        let again = TrafficGenerator::new(config(2), 61).generate();
        let long = TrafficGenerator::new(config(5), 61).generate();
        assert_eq!(short, again);
        for request in &short {
            let twin = long
                .iter()
                .find(|r| r.index == request.index)
                .expect("request present in longer trace");
            assert_eq!(request, twin, "chat request changed as the trace grew");
        }
        // Different seeds draw different transcripts.
        let other = TrafficGenerator::new(config(2), 62).generate();
        assert_ne!(short, other);
    }

    #[test]
    fn chat_mode_composes_with_cancellations_stops_and_restart_points() {
        let config = TrafficConfig::small(4)
            .with_chat_turns(2, 6)
            .with_max_new_tokens(10)
            .with_cancellations(500)
            .with_stop_strings(vec!["alpha".into()])
            .with_restart_point(3);
        let trace = TrafficGenerator::new(config, 71).generate();
        assert_eq!(trace.len(), 8);
        assert!(trace.iter().any(|r| r.cancel_after_tokens.is_some()));
        assert!(trace
            .iter()
            .all(|r| r.stop_string.as_deref() == Some("alpha")));
        let marked: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, r)| r.restart_before)
            .map(|(position, _)| position)
            .collect();
        assert_eq!(marked, vec![3]);
        for request in trace.iter().filter(|r| r.cancel_after_tokens.is_some()) {
            let after = request.cancel_after_tokens.unwrap();
            assert!((1..request.max_new_tokens).contains(&after));
        }
    }

    #[test]
    fn empty_kind_list_falls_back_to_qasper() {
        let mut config = TrafficConfig::small(2);
        config.kinds.clear();
        let trace = TrafficGenerator::new(config, 5).generate();
        assert!(trace.iter().all(|r| r.task.kind == TaskKind::Qasper));
    }
}
