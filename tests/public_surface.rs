//! The public surface stays what other crates, tests, examples and the
//! benchmark use.
//!
//! rustc never reports an unused `pub` item of a library crate as dead, so
//! this test counts, per workspace crate, the non-test lines under
//! `crates/<crate>/src` that declare a `pub` fn, struct, enum, trait, type,
//! const or static, and fails when a crate exceeds its bound. An item only
//! its own crate uses is `pub(crate)` or private; a change that gives an
//! item its first caller outside the crate raises the bound.

use std::fs;
use std::path::Path;

/// Upper bound on each crate's `pub` declarations.
const BOUNDS: &[(&str, usize)] = &[
    ("baselines", 24),
    ("bench", 8),
    ("core", 127),
    ("hwsim", 35),
    ("kvcache", 87),
    ("model", 71),
    ("quant", 58),
    ("retrieval", 19),
    ("server", 103),
    ("tensor", 70),
    ("workloads", 55),
];

const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// `pub` declarations in one file, up to a `#[cfg(test)]` module.
fn count_file(source: &str) -> usize {
    let mut count = 0;
    let mut after_cfg_test = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if after_cfg_test && (trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ")) {
            break;
        }
        if trimmed == "#[cfg(test)]" {
            after_cfg_test = true;
        } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
            after_cfg_test = false;
        }
        let kind = trimmed
            .strip_prefix("pub ")
            .and_then(|rest| rest.split(' ').next());
        if kind.is_some_and(|kind| KINDS.contains(&kind)) {
            count += 1;
        }
    }
    count
}

fn count_dir(dir: &Path) -> usize {
    let entries = fs::read_dir(dir).unwrap_or_else(|err| panic!("read {}: {err}", dir.display()));
    entries
        .map(|entry| entry.expect("directory entry").path())
        .map(|path| {
            if path.is_dir() {
                count_dir(&path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                count_file(&fs::read_to_string(&path).expect("read source file"))
            } else {
                0
            }
        })
        .sum()
}

#[test]
fn counting_skips_crate_private_items_and_the_test_module() {
    let source = "pub fn a() {}\n    pub const fn b() {}\npub(crate) fn c() {}\npub use x::Y;\n\
                  #[cfg(test)]\n#[allow(dead_code)]\nfn helper() {}\npub struct D;\n\
                  #[cfg(test)]\nmod tests {\n    pub fn e() {}\n}\n";
    assert_eq!(count_file(source), 3);
}

#[test]
fn each_crate_stays_within_its_public_surface_bound() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut failures = Vec::new();
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let name = entry.expect("crate entry").file_name();
        let name = name.to_str().expect("utf-8 crate name");
        let count = count_dir(&crates.join(name).join("src"));
        match BOUNDS.iter().find(|(bounded, _)| *bounded == name) {
            Some(&(_, bound)) if count <= bound => {}
            Some(&(_, bound)) => failures.push(format!("{name}: {count} pub items, bound {bound}")),
            None => failures.push(format!("{name}: {count} pub items, no bound")),
        }
    }
    failures.sort();
    assert!(
        failures.is_empty(),
        "public surface over its bound:\n{}",
        failures.join("\n")
    );
}
