//! Fixture corpus for every rule: one flagged, one clean and one
//! pragma-suppressed case each.  Fixtures live under `tests/fixtures/`
//! (a directory the workspace walk skips) and are linted under a
//! synthetic non-test, non-bench relative path so the path policies
//! apply as they would to real decision-path code.

use std::path::Path;

use spmap_lint::{lint_source, Violation};

fn lint_fixture(name: &str) -> Vec<Violation> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path).expect("fixture exists");
    // A decision-path location: no test/bench/example exemption.
    lint_source(Path::new("crates/fixture/src/lib.rs"), &source)
}

fn rules(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.rule).collect()
}

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let vs = lint_fixture("unsafe_flagged.rs");
    assert_eq!(rules(&vs), ["unsafe-needs-safety-comment"], "{vs:#?}");
    assert_eq!(vs[0].line, 4);
}

#[test]
fn unsafe_with_safety_comment_or_doc_section_is_clean() {
    let vs = lint_fixture("unsafe_clean.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn unsafe_pragma_suppresses_with_reason() {
    let vs = lint_fixture("unsafe_pragma.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn hash_iteration_is_flagged() {
    let vs = lint_fixture("unordered_flagged.rs");
    assert_eq!(
        rules(&vs),
        [
            "no-unordered-iteration", // for (_, v) in m
            "no-unordered-iteration", // m.keys()
            "no-unordered-iteration", // s.drain()
        ],
        "{vs:#?}"
    );
    assert_eq!(vs[0].line, 5);
}

#[test]
fn ordered_iteration_and_point_lookups_are_clean() {
    let vs = lint_fixture("unordered_clean.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn hash_iteration_pragma_suppresses_with_reason() {
    let vs = lint_fixture("unordered_pragma.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn env_read_outside_config_is_flagged() {
    let vs = lint_fixture("env_flagged.rs");
    assert_eq!(rules(&vs), ["no-env-outside-config"], "{vs:#?}");
    assert_eq!(vs[0].line, 2);
}

#[test]
fn env_free_decision_code_and_test_env_are_clean() {
    let vs = lint_fixture("env_clean.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn env_pragma_suppresses_with_reason() {
    let vs = lint_fixture("env_pragma.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn wallclock_in_decision_crate_is_flagged() {
    let vs = lint_fixture("wallclock_flagged.rs");
    assert_eq!(
        rules(&vs),
        ["no-wallclock-in-decisions", "no-wallclock-in-decisions"],
        "{vs:#?}"
    );
    assert_eq!(vs[0].line, 1, "the use declaration itself is flagged");
}

#[test]
fn wallclock_in_test_code_is_clean() {
    let vs = lint_fixture("wallclock_clean.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn wallclock_pragma_suppresses_with_reason() {
    let vs = lint_fixture("wallclock_pragma.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn catch_unwind_without_containment_comment_is_flagged() {
    let vs = lint_fixture("containment_flagged.rs");
    assert_eq!(
        rules(&vs),
        ["catch-unwind-needs-containment-comment"],
        "{vs:#?}"
    );
    assert_eq!(vs[0].line, 3);
}

#[test]
fn catch_unwind_with_containment_comment_is_clean() {
    // Also proves the `use std::panic::catch_unwind;` import line is
    // not treated as a catch site.
    let vs = lint_fixture("containment_clean.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn catch_unwind_pragma_suppresses_with_reason() {
    let vs = lint_fixture("containment_pragma.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn catch_unwind_in_test_code_is_exempt() {
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/containment_flagged.rs"),
    )
    .unwrap();
    // Test paths observe panics freely.
    let vs = lint_source(Path::new("tests/chaos.rs"), &source);
    assert!(vs.is_empty(), "{vs:#?}");
    // So do `#[cfg(test)]` items in production files.
    let wrapped = format!("#[cfg(test)]\nmod tests {{\n{source}\n}}\n");
    let vs = lint_source(Path::new("crates/fixture/src/lib.rs"), &wrapped);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn sanctioned_env_file_is_exempt_by_path() {
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/env_flagged.rs"),
    )
    .unwrap();
    let vs = lint_source(Path::new("crates/par/src/lib.rs"), &source);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn bench_paths_are_exempt_from_wallclock() {
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wallclock_flagged.rs"),
    )
    .unwrap();
    let vs = lint_source(Path::new("crates/bench/src/algos.rs"), &source);
    assert!(vs.is_empty(), "{vs:#?}");
    let vs = lint_source(Path::new("examples/quickstart.rs"), &source);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn thread_start_outside_par_is_flagged() {
    let vs = lint_fixture("thread_flagged.rs");
    assert_eq!(
        rules(&vs),
        [
            "no-thread-outside-par", // use std::thread::Builder
            "no-thread-outside-par", // std::thread::spawn
            "no-thread-outside-par", // std::thread::scope
        ],
        "{vs:#?}"
    );
    assert_eq!(
        vs.iter().map(|v| v.line).collect::<Vec<_>>(),
        [1, 4, 8],
        "the use declaration itself is flagged"
    );
}

#[test]
fn thread_queries_and_test_threads_are_clean() {
    let vs = lint_fixture("thread_clean.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn thread_pragma_suppresses_with_reason() {
    let vs = lint_fixture("thread_pragma.rs");
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn par_and_harness_paths_are_exempt_from_thread_rule() {
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/thread_flagged.rs"),
    )
    .unwrap();
    for path in [
        "crates/par/src/pool.rs",
        "crates/bench/src/chaos_load.rs",
        "examples/quickstart.rs",
        "tests/service.rs",
    ] {
        let vs = lint_source(Path::new(path), &source);
        assert!(vs.is_empty(), "{path}: {vs:#?}");
    }
}

#[test]
fn pragma_without_reason_is_itself_a_violation() {
    let source = "pub fn f(x: u32) -> u32 {\n    // lint:allow(no-env-outside-config)\n    x\n}\n";
    let vs = lint_source(Path::new("crates/fixture/src/lib.rs"), source);
    assert_eq!(rules(&vs), ["bad-pragma"], "{vs:#?}");
}

#[test]
fn pragma_with_unknown_rule_is_a_violation() {
    let source = "pub fn f(x: u32) -> u32 {\n    // lint:allow(no-such-rule): whatever\n    x\n}\n";
    let vs = lint_source(Path::new("crates/fixture/src/lib.rs"), source);
    assert_eq!(rules(&vs), ["bad-pragma"], "{vs:#?}");
}

#[test]
fn pragma_for_the_wrong_rule_does_not_suppress() {
    let source = "pub fn f() -> usize {\n    // lint:allow(no-wallclock-in-decisions): wrong rule.\n    std::env::var(\"X\").map(|s| s.len()).unwrap_or(0)\n}\n";
    let vs = lint_source(Path::new("crates/fixture/src/lib.rs"), source);
    assert_eq!(rules(&vs), ["no-env-outside-config"], "{vs:#?}");
}

#[test]
fn tokens_inside_strings_and_comments_are_ignored() {
    let source = "// This mentions unsafe, HashMap.iter() and Instant freely.\npub fn f() -> &'static str {\n    \"unsafe { env::var(\\\"X\\\") } Instant::now()\"\n}\n";
    let vs = lint_source(Path::new("crates/fixture/src/lib.rs"), source);
    assert!(vs.is_empty(), "{vs:#?}");
}
