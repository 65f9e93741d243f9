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
//! The same source scan keeps three further rules: structure locks are
//! released only through guards, no `GuardedMap` impl forwards to a
//! same-named inherent method, and every `repro run <id>` that `README.md`
//! or the verify skill cites names a registered experiment.

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
    // Local stand-in for an external crate (proptest): external idiom,
    // never model-checked.
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

/// Braces a source line opens and closes, outside string literals and
/// `//` comments.
fn brace_balance(line: &str) -> i32 {
    let (mut depth, mut in_str, mut escaped) = (0, false, false);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '/' if !in_str && chars.peek() == Some(&'/') => break,
            '{' if !in_str => depth += 1,
            '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// The methods of every `impl … GuardedMap<…> for T` block under `dir`
/// whose whole body is `T::same_name(self, …)`: a forwarding layer over a
/// same-named inherent method. Each is `(file:line, type, method)`.
fn guarded_map_forwarders(root: &Path, dirs: &[&str]) -> Vec<String> {
    let mut sources = Vec::new();
    for dir in dirs {
        collect_rust_sources(&root.join(dir), &mut sources);
    }
    let mut found = Vec::new();
    for path in sources {
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut i = 0;
        while i < lines.len() {
            let header = lines[i].trim_start();
            let Some(rest) = header
                .strip_prefix("impl")
                .filter(|_| header.contains(" GuardedMap<"))
                .and_then(|h| h.split_once(" for "))
                .map(|(_, t)| t)
            else {
                i += 1;
                continue;
            };
            let ty: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            // Walk the impl block. A `fn` at depth 1 is a method; its body
            // is every line between the one that opens it and the one that
            // closes it.
            let mut depth = 0;
            let mut method: Option<(usize, String)> = None;
            let mut body: Vec<&str> = Vec::new();
            let mut in_body = false;
            loop {
                let code = lines[i].trim();
                let before = depth;
                depth += brace_balance(code);
                if before == 1 && method.is_none() && code.contains("fn ") {
                    let name = code.split("fn ").nth(1).unwrap_or("");
                    let name = name
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    method = Some((i, name));
                    body.clear();
                    in_body = false;
                }
                if let Some((start, name)) = &method {
                    if in_body && depth >= 2 && !code.starts_with("//") {
                        body.push(code);
                    }
                    in_body |= depth >= 2;
                    if in_body && depth == 1 {
                        let body = body.concat();
                        let call = format!("{ty}::{name}(self");
                        if body.starts_with(&call) && body.ends_with(')') && !body.contains(';') {
                            let rel = path.strip_prefix(root).unwrap_or(&path);
                            found.push(format!("  {}:{}: {ty}::{name}", rel.display(), start + 1));
                        }
                        method = None;
                    }
                }
                i += 1;
                if (before > 0 && depth == 0) || i == lines.len() {
                    break;
                }
            }
        }
    }
    found
}

/// Every structure holds its map operations in its `GuardedMap` impl. A
/// method there that only calls a same-named inherent method regrows the
/// forwarding layer this workspace deleted: two names and two doc comments
/// for one operation, and callers that reach the inherent copy without the
/// trait in scope.
#[test]
fn guarded_map_impls_hold_their_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs = ["crates/core/src", "crates/elastic/src", "crates/pq/src"];
    let forwarders = guarded_map_forwarders(root, &dirs);
    assert!(
        forwarders.is_empty(),
        "a `GuardedMap` method only forwards to a same-named inherent \
         method; move the code into the trait impl:\n{}",
        forwarders.join("\n")
    );
}

/// Every figure the documents cite has a command that regenerates it:
/// each `repro run <id>` in `README.md` and the verify skill names an
/// experiment of `csds::harness::experiments::registry()`, and neither
/// file points at a bench harness this workspace no longer has.
#[test]
fn every_cited_repro_run_names_a_registered_experiment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ids: Vec<&str> = csds::harness::experiments::registry()
        .iter()
        .map(|e| e.id)
        .collect();
    for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        // Spelled in halves so a repository-wide search for stale
        // references to the deleted bench package finds none here.
        for stale in [concat!("cargo", " bench"), concat!("csds", "_bench")] {
            assert!(
                !text.contains(stale),
                "{doc} says `{stale}`; `repro run` and `benchmark/` are the instruments"
            );
        }
        let mut cited = Vec::new();
        for (i, _) in text.match_indices("repro") {
            let rest = text[i + "repro".len()..].trim_start_matches([' ', '-']);
            let Some(rest) = rest.strip_prefix("run ") else {
                continue;
            };
            let id: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            // `repro run <id>` placeholders and a bare `repro run` cite nothing.
            if !id.is_empty() {
                cited.push(id);
            }
        }
        assert!(
            !cited.is_empty(),
            "{doc}: citation scan looks broken, no `repro run <id>` found"
        );
        let unknown: Vec<&String> = cited
            .iter()
            .filter(|id| !ids.contains(&id.as_str()))
            .collect();
        assert!(
            unknown.is_empty(),
            "{doc} cites `repro run` ids the registry does not have: {unknown:?}"
        );
    }
}
