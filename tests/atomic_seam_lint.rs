//! Lint gate: importing the std atomics directly is forbidden outside the
//! seam.
//!
//! Every crate in this workspace must import its atomics through
//! `csds_sync::atomic` so that the `modelcheck` feature can swap in the
//! `csds_modelcheck` shims and run the production protocols under the
//! exhaustive interleaving checker. A stray direct import silently opts
//! that code out of model checking — this test makes it a CI failure
//! instead.
//!
//! The check is textual (source scan), so it also catches references in
//! doc examples and comments; keep those speaking in terms of the seam.
//!
//! The same source scan keeps two further rules: structure locks are
//! released only through guards, and every criterion bench is declared
//! and cited in `README.md`.

use std::path::{Path, PathBuf};

/// Files (exact relative path) and directories (trailing `/`) where the raw
/// `std` atomics are legitimate. Keep this list short and each entry
/// justified.
const ALLOWLIST: &[&str] = &[
    // The seam itself: the pass-through re-export of the std types.
    "crates/sync/src/atomic.rs",
    // csds_metrics sits *below* csds_sync in the dependency graph, so it
    // carries its own copy of the seam (same pattern, optional
    // csds_modelcheck shims) plus the documented `plain` escape hatch for
    // telemetry state that must not create model scheduling points.
    "crates/metrics/src/atomic.rs",
    // The model checker implements the shims on top of the std atomics.
    "crates/modelcheck/",
    // Local stand-ins for external crates (criterion/proptest): external
    // idiom, never model-checked.
    "crates/shims/",
];

fn allowed(rel: &str) -> bool {
    ALLOWLIST.iter().any(|a| {
        if a.ends_with('/') {
            rel.starts_with(a)
        } else {
            rel == *a
        }
    })
}

fn collect_rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Skip build output and VCS metadata.
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_sources(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_raw_std_atomics_outside_the_seam() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Assembled at runtime so this file does not match its own pattern.
    let pattern = format!("std::sync::{}", "atomic");

    let mut sources = Vec::new();
    collect_rust_sources(root, &mut sources);
    assert!(
        sources.len() > 50,
        "source walk looks broken: only {} .rs files found",
        sources.len()
    );

    let mut violations = Vec::new();
    for path in sources {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if allowed(&rel) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            if line.contains(&pattern) {
                violations.push(format!("  {}:{}: {}", rel, i + 1, line.trim()));
            }
        }
    }

    assert!(
        violations.is_empty(),
        "raw std atomics outside the csds_sync::atomic seam (these opt out \
         of model checking; import from csds_sync::atomic, or justify an \
         allowlist entry in {}):\n{}",
        file!(),
        violations.join("\n")
    );
}

/// The inverse guard: the allowlist must not rot. Every entry still exists
/// and (for the two exact files) still contains the pattern it was
/// allowlisted for.
#[test]
fn allowlist_entries_are_live() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pattern = format!("std::sync::{}", "atomic");
    for a in ALLOWLIST {
        let path = root.join(a.trim_end_matches('/'));
        assert!(path.exists(), "stale allowlist entry: {a}");
        if !a.ends_with('/') {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                text.contains(&pattern),
                "allowlist entry {a} no longer uses raw std atomics; drop it"
            );
        }
    }
}

/// Structure locks are released only by dropping a guard: `lock_guard` or
/// `OptikLock::try_lock_version` hands one out, it runs the delay hook on
/// entry and unlocks on drop — unwinding included — and BST-TK's dead
/// routers leave through `retire`. A hand-written unlock, or a hand-placed
/// delay hook, in a structure crate bypasses one of those.
#[test]
fn structure_crates_release_locks_only_through_guards() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Assembled at runtime so this file does not match its own patterns.
    let patterns = [
        format!(".{}()", "unlock"),
        format!("maybe_delay_{}", "in_cs"),
    ];
    let mut sources = Vec::new();
    for dir in ["crates/core/src", "crates/elastic/src", "crates/pq/src"] {
        collect_rust_sources(&root.join(dir), &mut sources);
    }
    assert!(
        sources.len() > 15,
        "source walk looks broken: only {} .rs files found",
        sources.len()
    );

    let mut violations = Vec::new();
    for path in sources {
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            if patterns.iter().any(|p| code.contains(p.as_str())) {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                violations.push(format!("  {}:{}: {}", rel.display(), i + 1, code));
            }
        }
    }

    assert!(
        violations.is_empty(),
        "a structure crate unlocks or injects delays by hand; hold a guard \
         from `lock_guard` / `try_lock_version` instead:\n{}",
        violations.join("\n")
    );
}

/// Every criterion bench is a cited instrument: the `[[bench]]` targets of
/// `crates/bench/Cargo.toml` are exactly the files in
/// `crates/bench/benches/`, and `README.md` names each one. The paper's
/// figures are measured by `repro run`; a bench that no document cites
/// re-times something nobody reads.
#[test]
fn every_bench_target_is_declared_and_cited() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    let mut declared: Vec<String> = manifest
        .split("[[bench]]")
        .skip(1)
        .map(|entry| {
            let name = entry
                .lines()
                .find_map(|l| l.trim().strip_prefix("name"))
                .expect("a [[bench]] entry without a name");
            name.trim_start_matches([' ', '='])
                .trim_matches('"')
                .to_string()
        })
        .collect();
    let mut sources = Vec::new();
    collect_rust_sources(&root.join("crates/bench/benches"), &mut sources);
    let mut files: Vec<String> = sources
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(
        !files.is_empty(),
        "source walk looks broken: no bench files"
    );
    declared.sort();
    files.sort();
    assert_eq!(
        declared, files,
        "crates/bench/Cargo.toml's [[bench]] names and crates/bench/benches/*.rs differ"
    );

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let uncited: Vec<&String> = declared
        .iter()
        .filter(|name| !readme.contains(name.as_str()))
        .collect();
    assert!(
        uncited.is_empty(),
        "bench targets that README.md never names (cite what each measures, or delete it): \
         {uncited:?}"
    );
}
