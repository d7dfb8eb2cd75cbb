//! The four seeded workloads: what each sends, why it exists, which tail
//! percentile its sample counts support, and the engine it runs against.
//!
//! Inputs come from `cocktail_workloads` generators, which later changes
//! may edit; [`fingerprint`] pins what they produced when the benchmark
//! was defined (`workloads.lock`).

use cocktail_core::{CocktailConfig, PrefixCacheConfig, SchedulerConfig, ServingEngine};
use cocktail_model::ModelProfile;
use cocktail_server::EngineSettings;
use cocktail_workloads::{TaskKind, TrafficConfig, TrafficGenerator, WorkloadConfig};

/// Seed used when none is given; `workloads.lock` pins its traces.
pub const DEFAULT_SEED: u64 = 11;
/// Second pinned seed, kept out of development: claims are re-checked on it.
pub const HOLDOUT_SEED: u64 = 4211;
/// Measured seconds per run; must equal `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Unshared 2048-word contexts, one sequential SSE client.
    LongctxCold,
    /// Three-turn conversations over a long preamble, one SSE client.
    ChatShared,
    /// Tiny unshared prompts, two keep-alive clients, mostly non-streamed.
    ShortBurst,
    /// In-process step-clocked open loop under a tight budget.
    AdmissionStorm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::LongctxCold,
        Workload::ChatShared,
        Workload::ShortBurst,
        Workload::AdmissionStorm,
    ];

    /// The name used on the command line and in every record.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LongctxCold => "longctx_cold",
            Workload::ChatShared => "chat_shared",
            Workload::ShortBurst => "short_burst",
            Workload::AdmissionStorm => "admission_storm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layers it stresses and those it
    /// bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::LongctxCold => {
                "unshared 2048-word contexts, 64 new tokens, one sequential SSE client: the \
                 paper's regime - prefill, chunk search, reorder+quantize and mixed-precision \
                 decode do the work; trie reuse is zero"
            }
            Workload::ChatShared => {
                "3-turn chats over a 1536-word preamble, one sequential SSE client, KV budget of \
                 ~8 chats: trie lookup/insert/split/evict and prefix-resumed prefill do the work"
            }
            Workload::ShortBurst => {
                "16-24-word unshared prompts, 4 new tokens, two keep-alive clients: HTTP, JSON, \
                 channel hops, admission and tokenizer dominate; quantization is bypassed"
            }
            Workload::AdmissionStorm => {
                "in-process engine, step-clocked open loop in bursts of five, 25% long + 75% \
                 short contexts, two skewed prefix groups, max batch 8, tight KV budget: prefill \
                 beside a running decode batch, batched decode, deferral and eviction"
            }
        }
    }

    /// The fixed percentile `ttft_ms_tail` is reported at: the highest of
    /// p50/p75/p90/p95/p99 that, at the commit that defined the benchmark,
    /// had ten samples beyond it in a run and repeated across ten seeds
    /// within a third of the metric's bound. It is then held fixed — a tail
    /// whose percentile moved with the sample count would not compare
    /// across commits.
    pub fn ttft_tail_percentile(self) -> u32 {
        match self {
            // ~26 requests in a run: no tail percentile has ten samples
            // beyond it, so the tail is reported at the median.
            Workload::LongctxCold => 50,
            // ~60 requests, a third of them cold first turns: p75 lies a
            // quarter of the way into the cold cluster.
            Workload::ChatShared => 75,
            // ~600 streamed requests.
            Workload::ShortBurst => 95,
            // 55 requests.
            Workload::AdmissionStorm => 75,
        }
    }

    /// The fixed percentile `tpot_ms_tail` is reported at, chosen by the
    /// same rule. Every workload yields over a thousand inter-token gaps,
    /// so repeatability decides.
    pub fn tpot_tail_percentile(self) -> u32 {
        match self {
            // Above p75 the gaps of a lone sequential client are scheduler
            // hiccups: across ten seeds p99 spread 8-20% and p90 4-24%,
            // p75 1-7%.
            Workload::LongctxCold | Workload::ChatShared => 75,
            Workload::ShortBurst => 99,
            // The decode stall behind a burst's admission prefill.
            Workload::AdmissionStorm => 99,
        }
    }

    /// How many of the timed phase's first requests are replayed, in the
    /// same order, through a fresh `CocktailPipeline` once the wall clock
    /// has stopped, their answers compared byte for byte. A fixed count,
    /// well below what the slowest run serves, so `kv_compression_x` — a
    /// ratio over exactly these requests and the set-up subsets — is an
    /// exact count for a seed. Replaying everything a run served would
    /// double its length, and the acceptance procedure's 92 runs must end
    /// within 57 minutes.
    pub fn verified_requests(self) -> usize {
        match self {
            // Twice the eight contexts the KV budget holds: the second
            // half is served while the trie evicts.
            Workload::LongctxCold => 16,
            // Four whole conversations.
            Workload::ChatShared => 12,
            // Two racing clients change the tokenizer's interning order,
            // so no sequential reference exists.
            Workload::ShortBurst => 0,
            // Four bursts: five long and fifteen short contexts, prefilled
            // beside a running batch.
            Workload::AdmissionStorm => 20,
        }
    }

    /// Generation budget of every request.
    pub fn max_new_tokens(self) -> usize {
        match self {
            Workload::LongctxCold | Workload::AdmissionStorm => 64,
            Workload::ChatShared => 32,
            Workload::ShortBurst => 4,
        }
    }

    /// Concurrent clients of the timed phase (the storm is clocked by
    /// engine steps instead).
    pub fn clients(self) -> usize {
        match self {
            Workload::LongctxCold | Workload::ChatShared | Workload::AdmissionStorm => 1,
            Workload::ShortBurst => 2,
        }
    }
}

/// One request of a generated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Position in the trace.
    pub index: usize,
    /// The context to answer from.
    pub context: String,
    /// The query.
    pub query: String,
    /// Generation budget.
    pub max_new_tokens: usize,
    /// Whether the request asks for an SSE stream.
    pub stream: bool,
    /// Engine step at which the request arrives (storm only).
    pub arrival_step: usize,
}

/// A generated trace: `units` are the closed-loop work items, each a run
/// of requests one client walks in order (a whole conversation for
/// `chat_shared`, a single request elsewhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Every request, in trace order.
    pub requests: Vec<Request>,
    /// Indices into `requests`, grouped into work items.
    pub units: Vec<Vec<usize>>,
}

/// Chat shape: turns per conversation, words per turn, preamble words.
const CHAT_TURNS: usize = 3;
const CHAT_WORDS_PER_TURN: usize = 48;
const CHAT_PREAMBLE_WORDS: usize = 1536;
/// Every tenth `short_burst` request streams; the rest are plain JSON.
pub const SHORT_STREAM_EVERY: usize = 10;
/// The storm's arrival schedule: bursts of five requests every 45 engine
/// steps, the same on every seed. Batch 8 over 64-token requests retires
/// 0.125 requests per step, so 0.111 keeps the queue bounded; a burst
/// lands while the previous one still decodes, so two of its five wait for
/// a batch slot and up to four prefill together.
const STORM_BURST: usize = 5;
const STORM_BURST_GAP_STEPS: usize = 45;
/// Bursts per 100 s of requested run length: 11 bursts (55 requests) take
/// about 20 s on the reference box at the commit that defined the
/// benchmark.
const STORM_BURSTS_PER_100S: usize = 55;

fn single_units(count: usize) -> Vec<Vec<usize>> {
    (0..count).map(|i| vec![i]).collect()
}

fn paper_traffic(requests: usize, workload: WorkloadConfig, tokens: usize) -> TrafficConfig {
    let mut config = TrafficConfig::small(requests)
        .with_arrival_window(0)
        .with_max_new_tokens(tokens);
    config.workload = workload;
    config.kinds = vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa];
    config
}

/// Generates a workload's trace. `seconds` only sizes it: every trace
/// holds several times what a run of that length can serve, so a faster
/// build never runs out of unseen inputs.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Trace {
    let seconds = seconds.max(1) as usize;
    let tokens = workload.max_new_tokens();
    match workload {
        Workload::LongctxCold => {
            let config = paper_traffic(seconds * 6, WorkloadConfig::paper_scale(), tokens);
            let requests: Vec<Request> = TrafficGenerator::new(config, seed)
                .generate()
                .into_iter()
                .enumerate()
                .map(|(index, r)| Request {
                    index,
                    context: r.task.context,
                    query: r.task.query,
                    max_new_tokens: r.max_new_tokens,
                    stream: true,
                    arrival_step: 0,
                })
                .collect();
            Trace {
                units: single_units(requests.len()),
                requests,
            }
        }
        Workload::ChatShared => {
            let conversations = seconds * 6;
            let config = TrafficConfig::small(conversations)
                .with_max_new_tokens(tokens)
                .with_chat_turns(CHAT_TURNS, CHAT_WORDS_PER_TURN)
                .with_chat_preamble(CHAT_PREAMBLE_WORDS);
            // The generator orders turn-major; regroup by conversation so
            // one client walks a whole conversation.
            let mut generated = TrafficGenerator::new(config, seed).generate();
            generated.sort_by_key(|r| {
                let chat = r.chat.expect("chat traces carry turn coordinates");
                (chat.conversation, chat.turn)
            });
            let requests: Vec<Request> = generated
                .into_iter()
                .enumerate()
                .map(|(index, r)| Request {
                    index,
                    context: r.task.context,
                    query: r.task.query,
                    max_new_tokens: r.max_new_tokens,
                    stream: true,
                    arrival_step: 0,
                })
                .collect();
            let units = (0..conversations)
                .map(|c| (c * CHAT_TURNS..(c + 1) * CHAT_TURNS).collect())
                .collect();
            Trace { requests, units }
        }
        Workload::ShortBurst => {
            let config = paper_traffic(
                seconds * 1000,
                WorkloadConfig::tiny().with_context_words(40),
                tokens,
            );
            let requests: Vec<Request> = TrafficGenerator::new(config, seed)
                .generate()
                .into_iter()
                .enumerate()
                .map(|(index, r)| {
                    // The generators' shortest context is 40 words; keep
                    // its first 16-24, below one 32-token chunk.
                    let words = 16 + index % 9;
                    let context: Vec<&str> =
                        r.task.context.split_whitespace().take(words).collect();
                    Request {
                        index,
                        context: context.join(" "),
                        query: r.task.query,
                        max_new_tokens: r.max_new_tokens,
                        stream: index % SHORT_STREAM_EVERY == SHORT_STREAM_EVERY - 1,
                        arrival_step: 0,
                    }
                })
                .collect();
            Trace {
                units: single_units(requests.len()),
                requests,
            }
        }
        Workload::AdmissionStorm => {
            storm_trace(seed, (seconds * STORM_BURSTS_PER_100S / 100).max(1))
        }
    }
}

/// The storm's trace: `bursts` bursts of [`STORM_BURST`] requests. Unlike
/// the closed loops it is a fixed amount of work, served to the end.
pub fn storm_trace(seed: u64, bursts: usize) -> Trace {
    let storm = |words: usize| {
        let config = paper_traffic(
            bursts * STORM_BURST,
            WorkloadConfig::paper_scale().with_context_words(words),
            Workload::AdmissionStorm.max_new_tokens(),
        )
        .with_branching_prefix(2, 128, 16)
        .with_tenant_skew(1200);
        TrafficGenerator::new(config, seed).generate()
    };
    // Request i is long when i % 4 == 0. Both generators draw the same
    // per-request seed, so a request's prefix group does not depend on
    // which length it got. Arrivals follow the fixed burst schedule, not
    // the generator's random draw: near saturation a random schedule makes
    // queueing delay swing by an order of magnitude from seed to seed.
    let requests: Vec<Request> = storm(1900)
        .into_iter()
        .zip(storm(256))
        .enumerate()
        .map(|(index, (long, short))| {
            let r = if index % 4 == 0 { long } else { short };
            Request {
                index,
                context: r.task.context,
                query: r.task.query,
                max_new_tokens: r.max_new_tokens,
                stream: true,
                arrival_step: index / STORM_BURST * STORM_BURST_GAP_STEPS,
            }
        })
        .collect();
    Trace {
        units: single_units(requests.len()),
        requests,
    }
}

/// The oracle's own inputs: same shape as the workload's, drawn from a
/// salted seed so replaying them never warms the trie for the timed trace.
pub fn oracle_trace(workload: Workload, seed: u64) -> Trace {
    let salted = seed ^ 0x0C1E_5EED_0AC1_E000;
    match workload {
        // Four bursts: five long and fifteen short contexts to pick from.
        Workload::AdmissionStorm => storm_trace(salted, 4),
        _ => generate(workload, salted, 1),
    }
}

/// FNV-1a over every field of every request of a trace.
pub fn fingerprint(trace: &Trace) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for byte in bytes {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for request in &trace.requests {
        eat(&(request.index as u64).to_le_bytes());
        eat(request.context.as_bytes());
        eat(request.query.as_bytes());
        eat(&(request.max_new_tokens as u64).to_le_bytes());
        eat(&[u8::from(request.stream)]);
        eat(&(request.arrival_step as u64).to_le_bytes());
    }
    for unit in &trace.units {
        eat(&(unit.len() as u64).to_le_bytes());
    }
    hash
}

/// The text of `workloads.lock`: one line per (workload, pinned seed).
pub fn lock_text() -> String {
    let mut out = String::from(
        "# FNV-1a fingerprints of each workload's generated trace at the pinned seeds\n\
         # (DEFAULT_SECONDS sizing). Regenerate with `-- fingerprint` only in a change\n\
         # that redefines the benchmark.\n",
    );
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HOLDOUT_SEED] {
            let trace = generate(workload, seed, DEFAULT_SECONDS);
            out.push_str(&format!(
                "{} {} {:016x}\n",
                workload.name(),
                seed,
                fingerprint(&trace)
            ));
        }
    }
    out
}

/// Checks a generated trace against the committed lock. Seeds and run
/// lengths the lock does not pin pass unchecked.
pub fn check_drift(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: &Trace,
    lock: &str,
) -> Result<(), String> {
    if seconds != DEFAULT_SECONDS {
        return Ok(());
    }
    for line in lock.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [name, pinned_seed, pinned] = fields[..] {
            if name == workload.name() && pinned_seed.parse() == Ok(seed) {
                let actual = format!("{:016x}", fingerprint(trace));
                return if actual == pinned {
                    Ok(())
                } else {
                    Err(format!(
                        "workload {} drifted at seed {seed}: trace fingerprint {actual}, \
                         workloads.lock pins {pinned}",
                        workload.name()
                    ))
                };
            }
        }
    }
    Ok(())
}

/// KV budget of the gateway workloads: about eight 2000-token contexts of
/// FP32 trie rows (2 KiB per token) plus the running requests, so the trie
/// reaches a steady state early in a run and evicts leaf-first after it.
const GATEWAY_KV_BUDGET: usize = 34 * 1024 * 1024;
/// KV budget of the storm: room for the running batch and about two long
/// contexts of trie, so admissions defer and the trie evicts.
const STORM_KV_BUDGET: usize = 12 * 1024 * 1024;
/// Batch cap of the storm.
pub const STORM_MAX_BATCH: usize = 8;

fn prefix_cache() -> PrefixCacheConfig {
    // The byte budget, not the node cap, should bind.
    PrefixCacheConfig::default().with_max_entries(256)
}

/// The model every workload serves.
pub fn profile() -> ModelProfile {
    ModelProfile::llama2_7b_sim()
}

/// Engine settings of the three gateway workloads.
pub fn gateway_settings() -> EngineSettings {
    EngineSettings::new(profile(), CocktailConfig::default())
        .with_scheduler(SchedulerConfig::default().with_budget(GATEWAY_KV_BUDGET))
        .with_prefix_cache(prefix_cache())
}

/// A fresh in-process engine configured like the gateway's.
pub fn gateway_like_engine() -> ServingEngine {
    ServingEngine::new(profile(), CocktailConfig::default())
        .expect("benchmark engine configuration is valid")
        .with_scheduler_config(SchedulerConfig::default().with_budget(GATEWAY_KV_BUDGET))
        .with_prefix_cache(prefix_cache())
}

/// A fresh in-process engine for the storm.
pub fn storm_engine() -> ServingEngine {
    ServingEngine::new(profile(), CocktailConfig::default())
        .expect("benchmark engine configuration is valid")
        .with_scheduler_config(
            SchedulerConfig::default()
                .with_budget(STORM_KV_BUDGET)
                .with_max_batch(STORM_MAX_BATCH),
        )
        .with_prefix_cache(prefix_cache())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seed_deterministic_and_shaped_as_documented() {
        for workload in Workload::ALL {
            let a = generate(workload, 5, 1);
            let b = generate(workload, 5, 1);
            let c = generate(workload, 6, 1);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", workload.name());
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            let covered: usize = a.units.iter().map(Vec::len).sum();
            assert_eq!(covered, a.requests.len());
            assert!(a
                .requests
                .iter()
                .all(|r| r.max_new_tokens == workload.max_new_tokens()));
        }
        let short = generate(Workload::ShortBurst, 5, 1);
        for request in &short.requests {
            let words = request.context.split_whitespace().count();
            assert!((16..=24).contains(&words));
            assert_eq!(request.stream, request.index % 10 == 9);
        }
        let chat = generate(Workload::ChatShared, 5, 1);
        for unit in &chat.units {
            assert_eq!(unit.len(), CHAT_TURNS);
            // Each turn's context extends the previous turn's.
            for pair in unit.windows(2) {
                let (earlier, later) = (&chat.requests[pair[0]], &chat.requests[pair[1]]);
                assert!(later.context.starts_with(&earlier.context));
            }
        }
        let storm = storm_trace(5, 4);
        assert_eq!(storm.requests.len(), 4 * STORM_BURST);
        for request in &storm.requests {
            assert_eq!(
                request.arrival_step,
                request.index / STORM_BURST * STORM_BURST_GAP_STEPS
            );
            let long = request.context.split_whitespace().count() > 1000;
            assert_eq!(long, request.index % 4 == 0);
        }
        // The default run length serves eleven bursts.
        assert_eq!(
            generate(Workload::AdmissionStorm, 5, DEFAULT_SECONDS)
                .requests
                .len(),
            11 * STORM_BURST
        );
    }

    #[test]
    fn drift_is_a_named_hard_error_only_for_pinned_seeds() {
        let trace = generate(Workload::ShortBurst, DEFAULT_SEED, 1);
        let good = format!("short_burst {DEFAULT_SEED} {:016x}\n", fingerprint(&trace));
        let bad = format!("# comment\nshort_burst {DEFAULT_SEED} 00000000deadbeef\n");
        let check = |seed, seconds, lock: &str| {
            check_drift(Workload::ShortBurst, seed, seconds, &trace, lock)
        };
        assert!(check(DEFAULT_SEED, DEFAULT_SECONDS, &good).is_ok());
        let err = check(DEFAULT_SEED, DEFAULT_SECONDS, &bad).unwrap_err();
        assert!(err.contains("short_burst") && err.contains("drifted"));
        // Unpinned seeds and run lengths are not checked.
        assert!(check(99, DEFAULT_SECONDS, &bad).is_ok());
        assert!(check(DEFAULT_SEED, DEFAULT_SECONDS + 1, &bad).is_ok());
    }
}
