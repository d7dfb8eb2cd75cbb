//! Repository-level code completion: a RepoBench-P-style workload where the
//! definition to complete sits in one file of a large multi-file context.
//!
//! Shows the full pipeline on the simulated model (not just the accuracy
//! harness): prefill the repository context, let Cocktail pick per-chunk
//! precisions, and inspect which chunks survived at full precision.
//!
//! ```bash
//! cargo run --release --example repository_completion
//! ```

use cocktail::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let task = TaskGenerator::new(TaskKind::RepoBenchP, WorkloadConfig::small()).generate(11);
    println!(
        "repository context ({} words):",
        task.context.split_whitespace().count()
    );
    let preview: String = task
        .context
        .split_whitespace()
        .take(24)
        .collect::<Vec<_>>()
        .join(" ");
    println!("  {preview} ...");
    println!("completion query: {}\n", task.query);

    let config = CocktailConfig::default();
    let pipeline = CocktailPipeline::new(ModelProfile::mistral_7b_sim(), config.clone())?;

    // Run Cocktail and the uniform INT4 baseline on the same request.
    let cocktail = pipeline.run(&task.context, &task.query, 12)?;
    let atom = pipeline.run_with_policy(
        &task.context,
        &task.query,
        Box::new(AtomPolicy::default()),
        12,
    )?;

    println!("{:<22} {:>14} {:>14}", "", "Cocktail", "Atom (INT4)");
    println!(
        "{:<22} {:>14} {:>14}",
        "cache bytes", cocktail.cache_bytes, atom.cache_bytes
    );
    println!(
        "{:<22} {:>13.2}x {:>13.2}x",
        "compression",
        cocktail.compression_ratio(),
        atom.compression_ratio()
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "fp16 chunks kept",
        cocktail.report.chunks_at(Bitwidth::Fp16),
        atom.report.chunks_at(Bitwidth::Fp16)
    );

    let relevant = task.relevant_chunks(config.chunk_size);
    println!("\nground-truth relevant chunks: {relevant:?}");
    let kept: Vec<usize> = cocktail
        .chunk_plan
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == Bitwidth::Fp16)
        .map(|(i, _)| i)
        .collect();
    println!("chunks Cocktail kept at FP16: {kept:?}");
    Ok(())
}
