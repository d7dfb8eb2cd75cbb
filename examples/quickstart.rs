//! Quickstart: run the Cocktail pipeline end to end on a small synthetic
//! long-context question-answering request.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use cocktail::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A simulated model profile (a CPU-sized stand-in for Llama2-7B) and
    //    a synthetic single-document QA task with a ~600-word context.
    let profile = ModelProfile::llama2_7b_sim();
    let task = TaskGenerator::qasper(WorkloadConfig::small()).generate(2024);
    println!("context: {} words", task.context.split_whitespace().count());
    println!("query:   {}", task.query);

    // 2. The paper's headline configuration: alpha = 0.6, beta = 0.1,
    //    chunk size 32, Facebook-Contriever-style chunk scoring.
    let config = CocktailConfig::default();
    let pipeline = CocktailPipeline::new(profile, config)?;

    // 3. Prefill, chunk-level quantization search, chunk reordering and
    //    quantization, then greedy decoding over the compressed cache.
    let outcome = pipeline.run(&task.context, &task.query, 16)?;

    println!("\n--- Cocktail outcome ---");
    // The simulated model has deterministic random weights, so the decoded
    // text itself is not meaningful; the accuracy experiments use the
    // extraction harness instead (see the long_document_qa example).
    println!("generated tokens:  {:?}", outcome.generated_tokens);
    println!(
        "kv cache:          {} bytes ({:.2}x smaller than FP16)",
        outcome.cache_bytes,
        outcome.compression_ratio()
    );
    let count = |bw| outcome.chunk_plan.iter().filter(|&&b| b == bw).count();
    println!(
        "chunk assignment:  {} fp16 / {} int4 / {} int2 (of {} chunks)",
        count(Bitwidth::Fp16),
        count(Bitwidth::Int4),
        count(Bitwidth::Int2),
        outcome.chunk_plan.len()
    );
    println!(
        "timings:           prefill {} us, compress {} us, decode {} us",
        outcome.timings.prefill_us, outcome.timings.compress_us, outcome.timings.decode_us
    );
    Ok(())
}
