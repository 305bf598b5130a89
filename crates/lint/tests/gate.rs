//! Integration tests for the lint gate: each rule fires on its fixture,
//! pragmas suppress with a reason, the live workspace is clean, and the
//! shipped binary (the thing `scripts/ci.sh` runs) fails on a seeded
//! violation.

use std::path::Path;
use std::process::Command;

use ee360_lint::rules::{scan_tokens, FileContext};
use ee360_lint::{
    scan_source, scan_sources, scan_workspace, scan_workspace_full, Config, RuleId, Severity,
};

fn deny_config() -> Config {
    // Fixtures exercise indexing too: promote vec-index so it counts.
    let mut config = Config::default();
    config.set_severity(RuleId::VecIndex, Severity::Deny);
    config
}

fn rules_fired(fixture: &str, as_path: &str) -> Vec<(RuleId, usize)> {
    let report = scan_source(as_path, fixture, &deny_config());
    report.violations.iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn panic_paths_fixture_fires_every_arm() {
    let fired = rules_fired(
        include_str!("fixtures/panic_paths.rs"),
        "crates/sim/src/fixture.rs",
    );
    let panic_sites = fired
        .iter()
        .filter(|(r, _)| *r == RuleId::NoPanicPaths)
        .count();
    let index_sites = fired.iter().filter(|(r, _)| *r == RuleId::VecIndex).count();
    // unwrap, expect, panic!, unreachable!, todo! — and one v[0].
    assert_eq!(panic_sites, 5, "{fired:?}");
    assert_eq!(index_sites, 1, "{fired:?}");
}

#[test]
fn panic_paths_fixture_is_exempt_outside_scoped_crates() {
    // The same source in a non-simulation crate (e.g. viz) does not fire
    // the panic rule.
    let fired = rules_fired(
        include_str!("fixtures/panic_paths.rs"),
        "crates/viz/src/fixture.rs",
    );
    assert!(
        fired.iter().all(|(r, _)| *r != RuleId::NoPanicPaths),
        "{fired:?}"
    );
}

#[test]
fn determinism_fixture_fires_every_arm() {
    let report = scan_source(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/determinism.rs"),
        &deny_config(),
    );
    let messages: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::Determinism)
        .map(|v| v.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("HashMap")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("HashSet")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("Instant")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("SystemTime")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("std::env")),
        "{messages:?}"
    );
}

#[test]
fn determinism_hash_arm_is_scoped_to_replay_crates() {
    // viz is not replay-sensitive: HashMap/HashSet pass there, but the
    // clock and env arms still apply.
    let report = scan_source(
        "crates/viz/src/fixture.rs",
        include_str!("fixtures/determinism.rs"),
        &deny_config(),
    );
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.message.contains("HashMap") || v.message.contains("HashSet")),
        "{:?}",
        report.violations
    );
    assert!(report
        .violations
        .iter()
        .any(|v| v.message.contains("Instant")));
}

#[test]
fn float_compare_fixture_fires_on_each_comparison() {
    let fired = rules_fired(
        include_str!("fixtures/float_compare.rs"),
        "crates/qoe/src/fixture.rs",
    );
    let count = fired
        .iter()
        .filter(|(r, _)| *r == RuleId::FloatCompare)
        .count();
    assert_eq!(count, 3, "{fired:?}");
}

#[test]
fn println_fixture_fires_in_lib_and_respects_pragma_and_bin_paths() {
    // In library code: println! and eprintln! fire, the suppressed
    // banner does not.
    let report = scan_source(
        "crates/support/src/fixture.rs",
        include_str!("fixtures/println.rs"),
        &deny_config(),
    );
    let fired = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::NoPrintlnInLib)
        .count();
    assert_eq!(fired, 2, "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1, "{:?}", report.suppressed);
    // The same source as a binary entry point is fully exempt.
    let as_bin = scan_source(
        "crates/support/src/bin/fixture.rs",
        include_str!("fixtures/println.rs"),
        &deny_config(),
    );
    assert!(
        as_bin
            .violations
            .iter()
            .all(|v| v.rule != RuleId::NoPrintlnInLib),
        "{:?}",
        as_bin.violations
    );
}

#[test]
fn pragma_fixture_suppresses_and_rejects() {
    let report = scan_source(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/pragmas.rs"),
        &deny_config(),
    );
    // Two valid suppressions (trailing + standalone).
    assert_eq!(report.suppressed.len(), 2, "{:?}", report.suppressed);
    assert!(report
        .suppressed
        .iter()
        .all(|s| s.reason.starts_with("fixture:")));
    // The reason-less and unknown-rule pragmas are violations themselves,
    // and their unwrap/expect sites still fire.
    let bad_pragmas = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::BadPragma)
        .count();
    let unsuppressed = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::NoPanicPaths)
        .count();
    assert_eq!(bad_pragmas, 2, "{:?}", report.violations);
    assert_eq!(unsuppressed, 2, "{:?}", report.violations);
}

#[test]
fn clean_fixture_passes_at_full_strictness() {
    let report = scan_source(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/clean.rs"),
        &deny_config(),
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.suppressed.is_empty());
}

#[test]
fn bad_manifest_fixture_fires_hermeticity() {
    let raw = ee360_lint::manifest::scan_manifest(include_str!("fixtures/bad_manifest.toml"));
    // serde, rand, clap, tokio, criterion — one violation each.
    assert_eq!(raw.len(), 5, "{raw:?}");
    assert!(raw.iter().all(|v| v.rule == RuleId::Hermeticity));
}

#[test]
fn lexer_sees_through_comments_strings_and_tests() {
    let src = r##"
// v.unwrap() in a comment
/* panic!("block comment") */
/// doc: x == 0.3
pub fn ok() -> String {
    let s = "v.unwrap()";
    let r = r#"panic!("raw")"#;
    format!("{s}{r}")
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Option::<u32>::None.unwrap();
    }
}
"##;
    let ctx = FileContext {
        crate_name: "sim".to_owned(),
        rel_path: "crates/sim/src/fixture.rs".to_owned(),
    };
    let lexed = ee360_lint::lexer::lex(src);
    let raw = scan_tokens(&ctx, &lexed.tokens);
    assert!(raw.is_empty(), "{raw:?}");
}

#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = scan_workspace(&root, &Config::default());
    assert!(report.files_scanned > 50, "walker found the workspace");
    let deny: Vec<String> = report
        .violations
        .iter()
        .filter(|v| v.severity == Severity::Deny)
        .map(|v| format!("{}:{} {}", v.file, v.line, v.message))
        .collect();
    assert!(
        deny.is_empty(),
        "workspace must stay lint-clean:\n{deny:#?}"
    );
    // Every suppression in the tree carries a non-empty reason.
    assert!(report.suppressed.iter().all(|s| !s.reason.is_empty()));
}

#[test]
fn interproc_fixture_fires_each_rule_and_propagates_pragmas() {
    let files = [
        (
            "crates/sim/src/fleet.rs",
            include_str!("fixtures/interproc_entry.rs"),
        ),
        (
            "crates/support/src/util.rs",
            include_str!("fixtures/interproc_hazards.rs"),
        ),
    ];
    let (report, graph) = scan_sources(&files, &Config::default());
    assert!(graph.nodes.len() >= 6, "nodes: {}", graph.nodes.len());
    assert!(!graph.edges.is_empty());

    let with_rule = |rule: RuleId| -> Vec<&str> {
        report
            .violations
            .iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.message.as_str())
            .collect()
    };
    // Each interprocedural rule fires across the crate boundary, naming
    // the entry and the call path.
    let panics = with_rule(RuleId::PanicReachability);
    assert!(
        panics.iter().any(|m| m.contains("hazard_panic")
            && m.contains("run_scale_fleet")
            && m.contains("via")),
        "{panics:?}"
    );
    let allocs = with_rule(RuleId::HotPathAlloc);
    assert!(
        allocs
            .iter()
            .any(|m| m.contains("hazard_alloc") && m.contains("ScaleDriver::on_event")),
        "{allocs:?}"
    );
    let taints = with_rule(RuleId::DeterminismTaint);
    assert!(
        taints
            .iter()
            .any(|m| m.contains("hazard_map") && m.contains("HashMap")),
        "{taints:?}"
    );

    // A pragma on the hazard line suppresses the finding for the entry
    // that reaches it — and the suppression is recorded with its reason.
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.message.contains("safe_pragmad")),
        "{:?}",
        report.violations
    );
    assert!(
        report
            .suppressed
            .iter()
            .any(|s| s.rule == RuleId::PanicReachability
                && s.file.ends_with("util.rs")
                && s.reason.contains("caller validates")),
        "{:?}",
        report.suppressed
    );

    // A pragma on the call line cuts that edge: the hazard inside
    // `edge_cut_target` never becomes reachable.
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.message.contains("edge_cut_target")),
        "{:?}",
        report.violations
    );
}

#[test]
fn live_workspace_entries_resolve_and_graph_is_populated() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let config = Config::default();
    let (report, graph) = scan_workspace_full(&root, &config);
    assert_eq!(report.deny_count(), 0);
    // Every configured entry point must resolve to at least one node —
    // otherwise a rename would silently disable an interprocedural rule.
    for rule in [
        RuleId::PanicReachability,
        RuleId::HotPathAlloc,
        RuleId::DeterminismTaint,
    ] {
        for pattern in config.entries(rule) {
            assert!(
                !graph.resolve_entry(pattern).is_empty(),
                "entry `{pattern}` of {} resolves to no workspace function",
                rule.id()
            );
        }
    }
    assert!(graph.nodes.len() > 500, "nodes: {}", graph.nodes.len());
    assert!(graph.edges.len() > 1000, "edges: {}", graph.edges.len());
}

/// Builds a throwaway two-crate workspace under `CARGO_TARGET_TMPDIR`.
fn seeded_workspace(name: &str, entry_src: &str, hazard_src: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let sim = dir.join("crates").join("sim").join("src");
    let sup = dir.join("crates").join("support").join("src");
    std::fs::create_dir_all(&sim).expect("create sim src");
    std::fs::create_dir_all(&sup).expect("create support src");
    std::fs::write(sim.join("fleet.rs"), entry_src).expect("write entry");
    std::fs::write(sup.join("util.rs"), hazard_src).expect("write hazards");
    dir
}

fn run_gate(dir: &Path, extra: &[&str]) -> (bool, String) {
    let mut args = vec!["--root", dir.to_str().expect("utf-8 path")];
    args.extend_from_slice(extra);
    let output = Command::new(env!("CARGO_BIN_EXE_ee360-lint"))
        .args(&args)
        .output()
        .expect("run ee360-lint binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// Each interprocedural rule gates the binary in both directions: the
/// seeded violation fails, and the same tree with a reasoned pragma
/// passes.
#[test]
fn binary_gates_panic_reachability_both_directions() {
    let entry = "use ee360_support::util::boom;\npub fn run_scale_fleet() { boom(None); }\n";
    let dir = seeded_workspace(
        "interproc-panic-fail",
        entry,
        "pub fn boom(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    let (ok, stdout) = run_gate(&dir, &[]);
    assert!(!ok, "seeded panic path must fail:\n{stdout}");
    assert!(stdout.contains("panic-reachability"), "{stdout}");
    assert!(stdout.contains("boom"), "{stdout}");

    let dir = seeded_workspace(
        "interproc-panic-pass",
        entry,
        "pub fn boom(v: Option<u32>) -> u32 { v.unwrap() } // lint:allow(panic-reachability, \"seeded: validated upstream\")\n",
    );
    let (ok, stdout) = run_gate(&dir, &[]);
    assert!(ok, "pragma'd panic path must pass:\n{stdout}");
    assert!(stdout.contains("1 suppressed"), "{stdout}");
}

#[test]
fn binary_gates_hot_path_alloc_both_directions() {
    let entry = "use ee360_support::util::fill;\npub struct ScaleDriver;\nimpl ScaleDriver { pub fn on_event(&mut self) { fill(); } }\n";
    let dir = seeded_workspace(
        "interproc-alloc-fail",
        entry,
        "pub fn fill() -> Vec<u32> { Vec::new() }\n",
    );
    let (ok, stdout) = run_gate(&dir, &[]);
    assert!(!ok, "seeded hot-path allocation must fail:\n{stdout}");
    assert!(stdout.contains("hot-path-alloc"), "{stdout}");

    let dir = seeded_workspace(
        "interproc-alloc-pass",
        entry,
        "pub fn fill() -> Vec<u32> { Vec::new() } // lint:allow(hot-path-alloc, \"seeded: amortised\")\n",
    );
    let (ok, stdout) = run_gate(&dir, &[]);
    assert!(ok, "pragma'd allocation must pass:\n{stdout}");
}

#[test]
fn binary_gates_determinism_taint_both_directions() {
    let entry =
        "use ee360_support::util::salted;\npub fn run_scale_fleet() -> usize { salted() }\n";
    let dir = seeded_workspace(
        "interproc-taint-fail",
        entry,
        "use std::collections::HashMap;\npub fn salted() -> usize { HashMap::<u32, u32>::new().len() }\n",
    );
    let (ok, stdout) = run_gate(&dir, &[]);
    assert!(!ok, "seeded taint must fail:\n{stdout}");
    assert!(stdout.contains("determinism-taint"), "{stdout}");

    let dir = seeded_workspace(
        "interproc-taint-pass",
        entry,
        "use std::collections::HashMap;\npub fn salted() -> usize { HashMap::<u32, u32>::new().len() } // lint:allow(determinism-taint, \"seeded: single-entry map, never iterated\")\n",
    );
    let (ok, stdout) = run_gate(&dir, &[]);
    assert!(ok, "pragma'd taint must pass:\n{stdout}");
}

/// The telemetry emission entries added with the fleet-telemetry work
/// (`ExemplarSet::offer` for hot-path-alloc, `Recorder::observe_at` for
/// determinism-taint) gate the binary in both directions too.
#[test]
fn binary_gates_telemetry_entries_both_directions() {
    let seed = |name: &str, hazard_src: &str| -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let obs = dir.join("crates").join("obs").join("src");
        let sup = dir.join("crates").join("support").join("src");
        std::fs::create_dir_all(&obs).expect("create obs src");
        std::fs::create_dir_all(&sup).expect("create support src");
        std::fs::write(
            obs.join("sample.rs"),
            "use ee360_support::util::spill;\n\
             pub struct ExemplarSet;\n\
             impl ExemplarSet { pub fn offer(&mut self) { spill(); } }\n",
        )
        .expect("write offer entry");
        std::fs::write(
            obs.join("record.rs"),
            "use ee360_support::util::salted;\n\
             pub struct Recorder;\n\
             impl Recorder { pub fn observe_at(&mut self) -> usize { salted() } }\n",
        )
        .expect("write observe_at entry");
        std::fs::write(sup.join("util.rs"), hazard_src).expect("write hazards");
        dir
    };

    let dir = seed(
        "interproc-telemetry-fail",
        "use std::collections::HashMap;\n\
         pub fn spill() -> Vec<u32> { Vec::new() }\n\
         pub fn salted() -> usize { HashMap::<u32, u32>::new().len() }\n",
    );
    let (ok, stdout) = run_gate(&dir, &[]);
    assert!(!ok, "seeded telemetry hazards must fail:\n{stdout}");
    assert!(stdout.contains("hot-path-alloc"), "{stdout}");
    assert!(stdout.contains("ExemplarSet::offer"), "{stdout}");
    assert!(stdout.contains("determinism-taint"), "{stdout}");
    assert!(stdout.contains("Recorder::observe_at"), "{stdout}");

    let dir = seed(
        "interproc-telemetry-pass",
        "use std::collections::HashMap;\n\
         pub fn spill() -> Vec<u32> { Vec::new() } // lint:allow(hot-path-alloc, \"seeded: rare spill\")\n\
         pub fn salted() -> usize { HashMap::<u32, u32>::new().len() } // lint:allow(determinism-taint, \"seeded: never iterated\")\n",
    );
    let (ok, stdout) = run_gate(&dir, &[]);
    assert!(ok, "pragma'd telemetry hazards must pass:\n{stdout}");
    assert!(stdout.contains("2 suppressed"), "{stdout}");
}

/// `--write-baseline` then `--baseline` demotes the known findings so
/// the gate passes, and `--callgraph` exports the graph.
#[test]
fn binary_baseline_and_callgraph_flags_work() {
    let dir = seeded_workspace(
        "interproc-baseline",
        "use ee360_support::util::boom;\npub fn run_scale_fleet() { boom(None); }\n",
        "pub fn boom(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    let baseline = dir.join("lint_baseline.json");
    let graph_path = dir.join("callgraph.json");

    let (ok, _) = run_gate(
        &dir,
        &[
            "--write-baseline",
            baseline.to_str().expect("utf-8 path"),
            "--callgraph",
            graph_path.to_str().expect("utf-8 path"),
        ],
    );
    assert!(!ok, "writing a baseline does not bless the findings");
    let keys = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(keys.contains("panic-reachability|"), "{keys}");
    let graph_json = std::fs::read_to_string(&graph_path).expect("callgraph written");
    assert!(
        graph_json.contains("\"schema\": \"ee360.callgraph.v1\""),
        "{graph_json}"
    );
    assert!(graph_json.contains("run_scale_fleet"), "{graph_json}");

    let (ok, stdout) = run_gate(
        &dir,
        &["--baseline", baseline.to_str().expect("utf-8 path")],
    );
    assert!(ok, "baselined findings must not block:\n{stdout}");
    assert!(stdout.contains("1 baselined"), "{stdout}");
}

/// The CI gate end to end: the shipped binary exits non-zero on a
/// workspace seeded with one violation of each denying rule — the exact
/// failure mode `scripts/ci.sh` relies on.
#[test]
fn binary_fails_on_seeded_violations() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-seeded");
    let src = dir.join("crates").join("sim").join("src");
    std::fs::create_dir_all(&src).expect("create seeded workspace");
    std::fs::write(
        dir.join("Cargo.toml"),
        "[package]\nname = \"seeded\"\n\n[dependencies]\nserde = \"1.0\"\n",
    )
    .expect("write manifest");
    std::fs::write(
        src.join("lib.rs"),
        "use std::collections::HashMap;\n\
         pub fn bad(v: Option<f64>) -> bool {\n\
             let m: HashMap<u32, u32> = HashMap::new();\n\
             let _ = m.len();\n\
             println!(\"debugging\");\n\
             v.unwrap() == 0.3\n\
         }\n",
    )
    .expect("write seeded source");

    let report_path = dir.join("lint_report.json");
    let output = Command::new(env!("CARGO_BIN_EXE_ee360-lint"))
        .args([
            "--root",
            dir.to_str().expect("utf-8 path"),
            "--json",
            report_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run ee360-lint binary");
    assert!(
        !output.status.success(),
        "gate must fail on seeded violations; stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for rule in [
        "no-panic-paths",
        "determinism",
        "float-compare",
        "hermeticity",
        "no-println-in-lib",
    ] {
        assert!(stdout.contains(rule), "summary must name {rule}:\n{stdout}");
    }
    // The machine-readable report is written even on failure.
    let json = std::fs::read_to_string(&report_path).expect("report exists");
    assert!(json.contains("\"tool\":"), "{json}");
    assert!(json.contains("no-panic-paths"), "{json}");
}

/// A seeded-clean workspace exits zero — the other half of the gate.
#[test]
fn binary_passes_on_clean_tree() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-clean");
    let src = dir.join("crates").join("sim").join("src");
    std::fs::create_dir_all(&src).expect("create clean workspace");
    std::fs::write(
        dir.join("Cargo.toml"),
        "[package]\nname = \"clean\"\n\n[dependencies]\nee360-support.workspace = true\n",
    )
    .expect("write manifest");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn good(v: &[f64]) -> f64 { v.first().copied().unwrap_or(0.0) }\n",
    )
    .expect("write clean source");

    let status = Command::new(env!("CARGO_BIN_EXE_ee360-lint"))
        .args(["--root", dir.to_str().expect("utf-8 path")])
        .status()
        .expect("run ee360-lint binary");
    assert!(status.success(), "gate must pass on a clean tree");
}
