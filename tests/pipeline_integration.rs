//! Cross-crate integration tests: the full pipeline on the simulated model,
//! all policies on the same request, and the equivalence guarantees the
//! paper relies on.

use cocktail::prelude::*;
use proptest::prelude::*;

fn sample_task() -> TaskInstance {
    TaskGenerator::qasper(WorkloadConfig::small()).generate(314)
}

fn small_pipeline() -> CocktailPipeline {
    CocktailPipeline::new(
        ModelProfile::llama2_7b_sim(),
        CocktailConfig::default().with_chunk_size(32).unwrap(),
    )
    .unwrap()
}

#[test]
fn cocktail_pipeline_runs_end_to_end_on_every_model_profile() {
    let task = sample_task();
    for profile in ModelProfile::paper_suite() {
        let pipeline = CocktailPipeline::new(profile, CocktailConfig::default()).unwrap();
        let outcome = pipeline.run(&task.context, &task.query, 4).unwrap();
        assert_eq!(outcome.generated_tokens.len(), 4);
        assert!(outcome.compression_ratio() > 1.0);
        assert!(outcome.report.total_chunks() > 0);
    }
}

#[test]
fn all_policies_run_on_the_same_request_and_compress_as_expected() {
    let task = sample_task();
    let pipeline = small_pipeline();
    let policies: Vec<(&str, Box<dyn CachePolicy>)> = vec![
        ("FP16", Box::new(Fp16Policy::new())),
        ("Atom", Box::new(AtomPolicy::default())),
        ("KIVI", Box::new(KiviPolicy::default())),
        ("KVQuant", Box::new(KvQuantPolicy::default())),
        (
            "Cocktail",
            Box::new(CocktailPolicy::new(CocktailConfig::default()).unwrap()),
        ),
    ];
    let mut cache_bytes = std::collections::HashMap::new();
    for (name, policy) in policies {
        let outcome = pipeline
            .run_with_policy(&task.context, &task.query, policy, 3)
            .unwrap();
        assert_eq!(outcome.generated_tokens.len(), 3, "{name}");
        cache_bytes.insert(name, outcome.cache_bytes);
    }
    // Every quantization method shrinks the cache; Atom (pure INT4) is the
    // smallest, KVQuant adds outlier overhead on top of Atom, Cocktail sits
    // between Atom and FP16 because it keeps relevant chunks at FP16.
    assert!(cache_bytes["Atom"] < cache_bytes["FP16"]);
    assert!(cache_bytes["KIVI"] < cache_bytes["FP16"]);
    assert!(cache_bytes["KVQuant"] >= cache_bytes["Atom"]);
    assert!(cache_bytes["KVQuant"] < cache_bytes["FP16"]);
    // Cocktail's footprint depends on how many chunks the search keeps at
    // FP16: INT2-heavy mixes land below Atom, FP16-heavy mixes above it,
    // but it always compresses relative to FP16.
    assert!(cache_bytes["Cocktail"] < cache_bytes["FP16"]);
}

#[test]
fn reordering_does_not_change_generated_tokens() {
    // The paper's Module II equivalence (Eq. 4/5), checked through the full
    // decode loop: with identical per-chunk precisions, generation over the
    // reordered cache matches generation over the logically ordered cache.
    let task = sample_task();
    let with_reorder = CocktailPipeline::new(
        ModelProfile::llama2_7b_sim(),
        CocktailConfig::default().with_reorder(true),
    )
    .unwrap();
    let without_reorder = CocktailPipeline::new(
        ModelProfile::llama2_7b_sim(),
        CocktailConfig::default().with_reorder(false),
    )
    .unwrap();
    let a = with_reorder.run(&task.context, &task.query, 6).unwrap();
    let b = without_reorder.run(&task.context, &task.query, 6).unwrap();
    assert_eq!(a.generated_tokens, b.generated_tokens);
    assert_eq!(a.cache_bytes, b.cache_bytes);
}

#[test]
fn cocktail_keeps_the_ground_truth_relevant_chunks_at_high_precision() {
    let task = sample_task();
    let config = CocktailConfig::default().with_chunk_size(32).unwrap();
    let pipeline = CocktailPipeline::new(ModelProfile::llama2_7b_sim(), config.clone()).unwrap();
    let outcome = pipeline.run(&task.context, &task.query, 2).unwrap();
    let plan = &outcome.chunk_plan;
    // The chunk containing each needle's anchor (where the retrieval signal
    // lives) must never be crushed to INT2; a needle whose answer span
    // spills into the following chunk may leave that continuation chunk at
    // low precision, which the search cannot know about.
    for needle in &task.needles {
        let chunk = needle.word_offset / config.chunk_size;
        if chunk < plan.len() {
            assert_ne!(
                plan[chunk],
                Bitwidth::Int2,
                "the anchor-bearing chunk must not be crushed to INT2"
            );
        }
    }
    // And most chunks are still aggressively compressed.
    let int2 = plan.iter().filter(|&&bw| bw == Bitwidth::Int2).count();
    assert!(int2 * 2 > plan.len());
}

#[test]
fn the_outcome_reports_the_plan_the_request_policy_stored() {
    // The request brings its own Cocktail policy, with thresholds the
    // engine's default config does not share: the outcome must report the
    // plan this policy stored, not one re-derived from the engine's config.
    let task = TaskGenerator::qmsum(WorkloadConfig::small()).generate(5);
    let request_config = CocktailConfig::default()
        .with_alpha(0.05)
        .unwrap()
        .with_beta(0.05)
        .unwrap();
    let policy = || CocktailPolicy::new(request_config.clone()).unwrap();
    let profile = ModelProfile::llama2_7b_sim();
    let slots = profile.sim().n_layers * profile.sim().n_kv_heads;
    let chunk_texts =
        cocktail::retrieval::chunking::chunk_words(&task.context, request_config.chunk_size);
    let expected = ChunkQuantSearch::new(request_config.clone())
        .plan(&task.query, &chunk_texts)
        .unwrap();
    assert!(expected.count(Bitwidth::Int4) > 0);

    let pipeline = CocktailPipeline::new(profile.clone(), CocktailConfig::default()).unwrap();
    let solo = pipeline
        .run_with_policy(&task.context, &task.query, Box::new(policy()), 2)
        .unwrap();
    let mut serving = ServingEngine::new(profile, CocktailConfig::default()).unwrap();
    serving.submit(
        ServeRequest::builder()
            .context(task.context.clone())
            .query(task.query.clone())
            .max_new_tokens(2)
            .policy(Box::new(policy()))
            .build(),
    );
    let served = serving.run_until_idle().unwrap().remove(0).outcome;

    for outcome in [&solo, &served] {
        assert_eq!(outcome.chunk_plan, expected.assignments());
        for bw in [Bitwidth::Fp16, Bitwidth::Int4, Bitwidth::Int2] {
            let per_slot = outcome.chunk_plan.iter().filter(|&&b| b == bw).count();
            assert_eq!(per_slot * slots, outcome.report.chunks_at(bw), "{bw:?}");
        }
    }
}

#[test]
fn batched_serving_is_byte_identical_to_sequential_pipeline_runs() {
    // The tentpole guarantee of the serving redesign: N requests served
    // concurrently by the ServingEngine produce byte-identical answers to
    // the same N requests run one at a time through CocktailPipeline::run.
    let config = CocktailConfig::default().with_chunk_size(32).unwrap();
    let traffic = TrafficGenerator::new(TrafficConfig::small(5), 2718).generate();

    let pipeline = CocktailPipeline::new(ModelProfile::llama2_7b_sim(), config.clone()).unwrap();
    let sequential: Vec<CocktailOutcome> = traffic
        .iter()
        .map(|r| {
            pipeline
                .run(&r.task.context, &r.task.query, r.max_new_tokens)
                .unwrap()
        })
        .collect();

    let mut serving = ServingEngine::new(ModelProfile::llama2_7b_sim(), config).unwrap();
    for request in &traffic {
        serving.submit(ServeRequest::new(
            request.task.context.clone(),
            request.task.query.clone(),
            request.max_new_tokens,
        ));
    }
    let outcomes = serving.run_until_idle().unwrap();

    assert_eq!(outcomes.len(), sequential.len());
    for (batched, seq) in outcomes.iter().zip(&sequential) {
        assert_eq!(batched.outcome.answer, seq.answer);
        assert_eq!(batched.outcome.generated_tokens, seq.generated_tokens);
        assert_eq!(batched.outcome.cache_bytes, seq.cache_bytes);
        assert_eq!(batched.outcome.fp16_cache_bytes, seq.fp16_cache_bytes);
        assert_eq!(batched.outcome.report, seq.report);
        assert_eq!(batched.outcome.chunk_plan, seq.chunk_plan);
    }
}

#[test]
fn serving_budget_is_enforced_against_measured_compressed_bytes() {
    // Size the budget from a probe request's measured footprint, then
    // check that concurrent serving under that budget (a) never exceeds
    // it, (b) still completes everything, and (c) produces the same
    // answers as unconstrained serving.
    let config = CocktailConfig::default().with_chunk_size(32).unwrap();
    let traffic = TrafficGenerator::new(TrafficConfig::small(4), 99).generate();

    let submit_all = |engine: &mut ServingEngine| {
        for request in &traffic {
            engine.submit(ServeRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                request.max_new_tokens,
            ));
        }
    };

    let mut unconstrained =
        ServingEngine::new(ModelProfile::llama2_7b_sim(), config.clone()).unwrap();
    submit_all(&mut unconstrained);
    let reference = unconstrained.run_until_idle().unwrap();
    let per_request: Vec<usize> = reference
        .iter()
        .map(|o| o.stats.cache_bytes + o.stats.reserved_tail_bytes)
        .collect();
    // Room for two average requests at a time.
    let budget = (per_request.iter().sum::<usize>() / per_request.len()) * 2;

    let mut constrained = ServingEngine::new(ModelProfile::llama2_7b_sim(), config)
        .unwrap()
        .with_scheduler_config(SchedulerConfig::default().with_budget(budget));
    submit_all(&mut constrained);
    let mut max_in_use = 0;
    while !constrained.is_idle() {
        constrained.step().unwrap();
        assert!(constrained.kv_bytes_in_use() <= budget);
        max_in_use = max_in_use.max(constrained.kv_bytes_in_use());
    }
    assert!(max_in_use > 0);
    let completed: Vec<RequestOutcome> = (0..traffic.len() as u64)
        .filter_map(|raw| constrained.take_outcome(RequestId::new(raw)))
        .collect();
    assert_eq!(completed.len(), reference.len());
    for (constrained, unconstrained) in completed.iter().zip(&reference) {
        assert_eq!(constrained.outcome.answer, unconstrained.outcome.answer);
    }
}

#[test]
fn prefix_reuse_and_batched_prefill_are_byte_identical_under_shared_traffic() {
    // Shared-prefix traffic served three ways — sequentially through the
    // pipeline, batched without the prefix cache, batched with it — must
    // produce byte-identical outcomes, while the cache measurably reuses
    // the shared preambles.
    let config = CocktailConfig::default().with_chunk_size(32).unwrap();
    let traffic =
        TrafficGenerator::new(TrafficConfig::small(6).with_shared_prefix(2, 96), 0x5a5a).generate();

    let pipeline = CocktailPipeline::new(ModelProfile::llama2_7b_sim(), config.clone()).unwrap();
    let sequential: Vec<CocktailOutcome> = traffic
        .iter()
        .map(|r| {
            pipeline
                .run(&r.task.context, &r.task.query, r.max_new_tokens)
                .unwrap()
        })
        .collect();

    let serve = |prefix: bool| {
        let mut engine = ServingEngine::new(ModelProfile::llama2_7b_sim(), config.clone()).unwrap();
        if prefix {
            engine = engine.with_prefix_cache(PrefixCacheConfig::default());
        }
        for request in &traffic {
            engine.submit(ServeRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                request.max_new_tokens,
            ));
        }
        engine.run_until_idle().unwrap()
    };
    let plain = serve(false);
    let cached = serve(true);
    for ((seq, a), b) in sequential.iter().zip(&plain).zip(&cached) {
        assert_eq!(seq.answer, a.outcome.answer);
        assert_eq!(seq.answer, b.outcome.answer);
        assert_eq!(seq.generated_tokens, b.outcome.generated_tokens);
        assert_eq!(seq.cache_bytes, b.outcome.cache_bytes);
        assert_eq!(seq.report, b.outcome.report);
    }
    // Beyond the two cold group leaders, every request reused its group's
    // preamble from the cache.
    let reused: Vec<usize> = cached
        .iter()
        .map(|o| o.stats.prefix_reused_tokens)
        .collect();
    assert!(
        reused.iter().filter(|&&r| r > 0).count() >= traffic.len() - 2,
        "expected at least {} prefix hits, got {reused:?}",
        traffic.len() - 2
    );
}

#[test]
fn branching_traffic_dedups_in_the_trie_and_stays_byte_identical() {
    // Branching traffic — groups share a preamble, every request forks off
    // its own branch segment right after it — served three ways: solo
    // sequential pipeline runs, batched trie-off, batched trie-on. All
    // three must be byte-identical, while the trie stores each shared
    // preamble once (strictly fewer resident bytes than summing whole
    // contexts) and records the node splits at the divergence points.
    let config = CocktailConfig::default().with_chunk_size(32).unwrap();
    let traffic = TrafficGenerator::new(
        TrafficConfig::small(6).with_branching_prefix(2, 64, 8),
        0xB4A_7C11,
    )
    .generate();

    let pipeline = CocktailPipeline::new(ModelProfile::llama2_7b_sim(), config.clone()).unwrap();
    let solo: Vec<CocktailOutcome> = traffic
        .iter()
        .map(|r| {
            pipeline
                .run(&r.task.context, &r.task.query, r.max_new_tokens)
                .unwrap()
        })
        .collect();

    let serve = |prefix: bool| {
        let mut engine = ServingEngine::new(ModelProfile::llama2_7b_sim(), config.clone()).unwrap();
        if prefix {
            engine = engine.with_prefix_cache(PrefixCacheConfig::default());
        }
        for request in &traffic {
            engine.submit(ServeRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                request.max_new_tokens,
            ));
        }
        let outcomes = engine.run_until_idle().unwrap();
        let stats = engine.prefix_cache_stats();
        (outcomes, stats)
    };
    let (off, _) = serve(false);
    let (on, stats) = serve(true);
    for ((solo, off), on) in solo.iter().zip(&off).zip(&on) {
        assert_eq!(
            solo.answer, off.outcome.answer,
            "trie-off diverged from solo"
        );
        assert_eq!(solo.answer, on.outcome.answer, "trie-on diverged from solo");
        assert_eq!(solo.generated_tokens, on.outcome.generated_tokens);
        assert_eq!(solo.cache_bytes, on.outcome.cache_bytes);
    }

    let stats = stats.expect("trie enabled");
    // Nothing was evicted (unlimited budget), so resident bytes are the
    // full dedup footprint: strictly below the whole-sequence sum.
    assert_eq!(stats.evictions, 0);
    let fp32_per_token = 2 * ModelProfile::llama2_7b_sim()
        .sim()
        .kv_bytes_per_token_fp16();
    let whole_sequence_bytes: usize = on
        .iter()
        .map(|o| o.stats.context_tokens * fp32_per_token)
        .sum();
    assert!(
        stats.resident_bytes < whole_sequence_bytes,
        "trie must store shared preambles once: {} >= {whole_sequence_bytes}",
        stats.resident_bytes
    );
    // One split per group where its branches diverge, and each group's
    // followers reused the preamble.
    assert!(stats.node_splits >= 2, "got {} splits", stats.node_splits);
    let reused = on
        .iter()
        .filter(|o| o.stats.prefix_reused_tokens > 0)
        .count();
    assert!(reused >= traffic.len() - 2, "only {reused} requests reused");
}

#[test]
fn streamed_serving_with_cancellation_is_byte_identical_to_sequential_runs() {
    // The tentpole guarantee of the streaming redesign, end to end on the
    // llama2 sim profile: per-token events concatenate to the collected
    // outcomes, which equal solo sequential pipeline runs; a client
    // cancellation mid-decode frees budget without perturbing survivors,
    // and a cancelled stream is a byte prefix of its solo run.
    let config = CocktailConfig::default().with_chunk_size(32).unwrap();
    let traffic =
        TrafficGenerator::new(TrafficConfig::small(5).with_max_new_tokens(10), 0x0051_3EA7)
            .generate();

    let pipeline = CocktailPipeline::new(ModelProfile::llama2_7b_sim(), config.clone()).unwrap();
    let solo: Vec<CocktailOutcome> = traffic
        .iter()
        .map(|r| {
            pipeline
                .run(&r.task.context, &r.task.query, r.max_new_tokens)
                .unwrap()
        })
        .collect();

    let mut engine = ServingEngine::new(ModelProfile::llama2_7b_sim(), config).unwrap();
    let ids: Vec<RequestId> = traffic
        .iter()
        .map(|r| {
            engine.submit(ServeRequest::new(
                r.task.context.clone(),
                r.task.query.clone(),
                r.max_new_tokens,
            ))
        })
        .collect();
    let cancel_victim = ids[2];
    let cancel_after = 3usize;

    let mut streamed: Vec<String> = vec![String::new(); ids.len()];
    let mut cancelled = false;
    while !engine.is_idle() {
        for event in engine.step_events().unwrap() {
            let i = ids.iter().position(|&id| id == event.id).unwrap();
            streamed[i].push_str(&event.piece);
        }
        if !cancelled
            && engine
                .stats(cancel_victim)
                .is_some_and(|s| s.generated_tokens >= cancel_after)
        {
            let before = engine.kv_bytes_in_use();
            assert!(engine.cancel(cancel_victim));
            assert!(engine.kv_bytes_in_use() < before, "cancel must free budget");
            cancelled = true;
        }
    }
    assert!(cancelled, "the victim must have been cancelled mid-decode");

    for (i, id) in ids.iter().enumerate() {
        if *id == cancel_victim {
            let stats = engine.take_cancelled(*id).unwrap();
            assert!(stats.cancelled);
            assert!(stats.generated_tokens < traffic[i].max_new_tokens);
            assert!(
                solo[i].answer.starts_with(&streamed[i]),
                "cancelled stream must be a byte prefix of the solo run"
            );
        } else {
            let outcome = engine.take_outcome(*id).unwrap();
            assert_eq!(streamed[i], outcome.outcome.answer);
            assert_eq!(outcome.outcome.answer, solo[i].answer);
            assert_eq!(outcome.outcome.generated_tokens, solo[i].generated_tokens);
            assert!(outcome.stats.first_token_step.is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random request sets with random shared prefixes: serving with the
    /// prefix cache enabled is byte-identical to serving with it disabled,
    /// and the scheduler's KV budget is never exceeded while blocks are
    /// shared.
    #[test]
    fn prefix_cached_serving_is_byte_identical_and_never_exceeds_the_budget(
        groups in 1usize..3,
        per_group in 2usize..4,
        prefix_sentences in 2usize..5,
        tail_words in 3usize..9,
        seed in 0u64..1000,
    ) {
        let requests: Vec<(String, String)> = (0..groups * per_group)
            .map(|i| {
                let g = i % groups;
                let preamble: Vec<String> = (0..prefix_sentences)
                    .map(|s| {
                        format!("notice {s} for channel {g} of stream {seed} reports routine operations")
                    })
                    .collect();
                let tail: Vec<String> = (0..tail_words).map(|w| format!("extra{w} detail{i}")).collect();
                (
                    format!(
                        "{} . the secret marker for request {i} is beacon{i} . {}",
                        preamble.join(" . "),
                        tail.join(" ")
                    ),
                    format!("what is the secret marker for request {i}?"),
                )
            })
            .collect();
        let config = CocktailConfig::default().with_chunk_size(8).unwrap();
        let run = |prefix: bool, budget: Option<usize>| -> (Vec<RequestOutcome>, usize) {
            let mut engine = ServingEngine::new(ModelProfile::tiny(), config.clone()).unwrap();
            if let Some(bytes) = budget {
                engine = engine.with_scheduler_config(SchedulerConfig::default().with_budget(bytes));
            }
            if prefix {
                engine = engine.with_prefix_cache(
                    PrefixCacheConfig::default().with_min_prefix_tokens(4),
                );
            }
            for (ctx, q) in &requests {
                engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 3));
            }
            let cap = budget.unwrap_or(usize::MAX);
            let mut max_used = 0;
            let mut guard = 0;
            while !engine.is_idle() {
                guard += 1;
                assert!(guard < 10_000, "serving failed to quiesce");
                engine.step().unwrap();
                assert!(engine.kv_bytes_in_use() <= cap, "budget exceeded");
                max_used = max_used.max(engine.kv_bytes_in_use());
            }
            let outcomes = (0..requests.len() as u64)
                .filter_map(|raw| engine.take_outcome(RequestId::new(raw)))
                .collect();
            (outcomes, max_used)
        };

        let (plain, _) = run(false, None);
        let (cached, _) = run(true, None);
        prop_assert_eq!(plain.len(), requests.len());
        prop_assert_eq!(cached.len(), requests.len());
        for (a, b) in plain.iter().zip(&cached) {
            prop_assert_eq!(&a.outcome.answer, &b.outcome.answer);
            prop_assert_eq!(&a.outcome.generated_tokens, &b.outcome.generated_tokens);
            prop_assert_eq!(a.outcome.cache_bytes, b.outcome.cache_bytes);
        }

        // A budget fitting ~two requests: shared blocks must never push
        // usage past it, everything must still complete, byte-identically.
        let per_request = plain
            .iter()
            .map(|o| o.stats.cache_bytes + o.stats.reserved_tail_bytes)
            .max()
            .expect("at least one outcome");
        let budget = per_request * 2;
        let (constrained, used) = run(true, Some(budget));
        prop_assert_eq!(constrained.len(), requests.len());
        prop_assert!(used <= budget);
        for (a, b) in plain.iter().zip(&constrained) {
            prop_assert_eq!(&a.outcome.answer, &b.outcome.answer);
        }
    }
}

#[test]
fn int8_uniform_cache_preserves_greedy_generation_of_the_sim_model() {
    // A fidelity check through the real transformer: INT8-quantizing every
    // context chunk should rarely change the greedy continuation.
    let pipeline = CocktailPipeline::new(
        ModelProfile::tiny(),
        CocktailConfig::default().with_chunk_size(4).unwrap(),
    )
    .unwrap();
    let context = "the quick brown fox jumps over the lazy dog while the calm river flows north";
    let query = "where does the river flow?";
    let run = |policy: Box<dyn CachePolicy>| pipeline.run_with_policy(context, query, policy, 5);
    let fp16 = run(Box::new(Fp16Policy::new())).unwrap();
    let int8 = run(Box::new(AtomPolicy::new(Bitwidth::Int8, 16).unwrap())).unwrap();
    assert!(int8.report.chunks_at(Bitwidth::Int8) > 0);
    assert_eq!(int8.report.chunks_at(Bitwidth::Fp16), 0);

    let matching = fp16
        .generated_tokens
        .iter()
        .zip(&int8.generated_tokens)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        matching >= 4,
        "INT8 cache diverged too much: {:?} vs {:?}",
        fp16.generated_tokens,
        int8.generated_tokens
    );
}

#[test]
fn accuracy_harness_ranks_cocktail_with_fp16_and_above_uniform_int2() {
    let evaluator = Evaluator::new(EvalConfig::new(32));
    let tasks = TaskGenerator::qasper(WorkloadConfig::paper_scale()).generate_batch(99, 4);
    let fp16 = evaluator.mean_score(&tasks, &Fp16Policy::new()).unwrap();
    let cocktail = evaluator
        .mean_score(
            &tasks,
            &CocktailPolicy::new(CocktailConfig::default()).unwrap(),
        )
        .unwrap();
    let int2 = evaluator
        .mean_score(&tasks, &AtomPolicy::new(Bitwidth::Int2, 32).unwrap())
        .unwrap();
    assert!(
        cocktail >= fp16 - 10.0,
        "cocktail ({cocktail:.1}) should track FP16 ({fp16:.1})"
    );
    assert!(
        cocktail > int2 + 10.0,
        "cocktail ({cocktail:.1}) should clearly beat uniform INT2 ({int2:.1})"
    );
}
