//! Workspace walking, pragma application and severity resolution — the
//! glue between the lexer/rules and the report.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::interproc::{self, PragmaIndex};
use crate::lexer::{lex, Pragma};
use crate::manifest::scan_manifest;
use crate::parser::{parse_file, ParsedFile};
use crate::report::{Report, RuleSummary, SuppressedViolation, Violation};
use crate::rules::{scan_tokens, FileContext, RawViolation, RuleId, Severity};

/// Severity configuration: per-rule levels, overridable from the CLI,
/// plus the interprocedural rules' entry-point sets.
#[derive(Debug, Clone)]
pub struct Config {
    severities: BTreeMap<&'static str, Severity>,
    entries: BTreeMap<&'static str, Vec<String>>,
}

impl Default for Config {
    fn default() -> Self {
        let mut severities = BTreeMap::new();
        severities.insert(RuleId::NoPanicPaths.id(), Severity::Deny);
        // Indexing is pervasive in numeric code; it is reported but does
        // not fail the gate until the burn-down completes. The
        // interprocedural panic rule inherits this level for its
        // indexing arm.
        severities.insert(RuleId::VecIndex.id(), Severity::Warn);
        severities.insert(RuleId::Determinism.id(), Severity::Deny);
        severities.insert(RuleId::Hermeticity.id(), Severity::Deny);
        severities.insert(RuleId::FloatCompare.id(), Severity::Deny);
        severities.insert(RuleId::NoPrintlnInLib.id(), Severity::Deny);
        severities.insert(RuleId::PanicReachability.id(), Severity::Deny);
        severities.insert(RuleId::HotPathAlloc.id(), Severity::Deny);
        severities.insert(RuleId::DeterminismTaint.id(), Severity::Deny);
        severities.insert(RuleId::BadPragma.id(), Severity::Deny);

        // Entry points are matched as qname suffixes at `::` boundaries.
        let mut entries: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let own = |names: &[&str]| names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        entries.insert(
            RuleId::PanicReachability.id(),
            own(&[
                "sim::fleet::run_scale_fleet",
                "abr::mpc::MpcController::plan",
                "abr::mpc::MpcController::solve_with_bandwidths",
                "core::client::run_session_traced",
                "core::client::run_session_resilient",
                "core::client::run_session_resilient_with",
            ]),
        );
        entries.insert(
            RuleId::HotPathAlloc.id(),
            own(&[
                "sim::fleet::ScaleDriver::on_event",
                "sim::fleet::ScaleDriver::start",
                "abr::mpc::MpcController::solve_with_bandwidths",
                "abr::mpc::MpcController::plan",
                "abr::robust::RobustMpcController::plan",
                // The per-segment client step: prediction, Ptile lookup,
                // bandwidth estimate and the controller call.
                "core::client::SessionRunner::plan_segment",
                "support::parallel::parallel_map_indexed",
                // Telemetry emission paths: windowed stamps, timestamped
                // registry writes, and exemplar offers run once per
                // booking or per session across the whole fleet.
                "obs::record::Recorder::count_at",
                "obs::record::Recorder::observe_at",
                "obs::timeseries::SessionWindows::stamp",
                "obs::sample::ExemplarSet::offer",
            ]),
        );
        entries.insert(
            RuleId::DeterminismTaint.id(),
            own(&[
                "sim::fleet::run_scale_fleet",
                "sim::fleet::run_scale_fleet_telemetry",
                "abr::mpc::MpcController::plan",
                "core::client::run_session_traced",
                "core::client::run_session_resilient",
                "obs::record::Recorder::observe_at",
            ]),
        );
        Self {
            severities,
            entries,
        }
    }
}

impl Config {
    /// The severity a rule runs at.
    pub fn severity(&self, rule: RuleId) -> Severity {
        self.severities
            .get(rule.id())
            .copied()
            .unwrap_or(Severity::Deny)
    }

    /// Overrides one rule's severity (`--severity rule=level`).
    pub fn set_severity(&mut self, rule: RuleId, severity: Severity) {
        self.severities.insert(rule.id(), severity);
    }

    /// The entry-point patterns of an interprocedural rule.
    pub fn entries(&self, rule: RuleId) -> &[String] {
        self.entries.get(rule.id()).map_or(&[], |v| v.as_slice())
    }

    /// Replaces one rule's entry-point set.
    pub fn set_entries(&mut self, rule: RuleId, patterns: Vec<String>) {
        self.entries.insert(rule.id(), patterns);
    }
}

/// Directory names whose contents are exempt from scanning: test code,
/// benches and examples may panic and index freely, and lint fixtures
/// are violations on purpose.
const EXEMPT_DIRS: [&str; 5] = ["tests", "benches", "examples", "fixtures", "target"];

/// Scans a whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path, config: &Config) -> Report {
    scan_workspace_full(root, config).0
}

/// Scans a whole workspace and also returns the call graph (for
/// `--callgraph` export and entry-resolution tests).
pub fn scan_workspace_full(root: &Path, config: &Config) -> (Report, CallGraph) {
    let mut rs_files = Vec::new();
    let mut toml_files = Vec::new();
    collect_files(root, root, &mut rs_files, &mut toml_files);
    rs_files.sort();
    toml_files.sort();

    let mut tomls: Vec<(String, String)> = Vec::new();
    for rel in toml_files {
        if let Ok(text) = fs::read_to_string(root.join(&rel)) {
            tomls.push((rel, text));
        }
    }
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in rs_files {
        if let Ok(text) = fs::read_to_string(root.join(&rel)) {
            sources.push((rel, text));
        }
    }
    scan_all(&tomls, &sources, config)
}

/// Scans a set of in-memory Rust sources as one workspace — the
/// multi-file entry point the interprocedural fixture tests use.
pub fn scan_sources(files: &[(&str, &str)], config: &Config) -> (Report, CallGraph) {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| ((*p).to_owned(), (*t).to_owned()))
        .collect();
    scan_all(&[], &owned, config)
}

/// Scans a single Rust source text as if it lived at `rel_path` — the
/// entry point the single-file fixture tests use.
pub fn scan_source(rel_path: &str, text: &str, config: &Config) -> Report {
    scan_sources(&[(rel_path, text)], config).0
}

/// The shared pipeline: lexical pass per file, then the workspace call
/// graph and the interprocedural pass over it.
fn scan_all(
    tomls: &[(String, String)],
    sources: &[(String, String)],
    config: &Config,
) -> (Report, CallGraph) {
    let mut report = Report::new();
    for (rel, text) in tomls {
        report.files_scanned += 1;
        let raw = scan_manifest(text);
        absorb(&mut report, config, rel, text, raw, &[]);
    }

    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut pragma_index = PragmaIndex::default();
    for (rel, text) in sources {
        report.files_scanned += 1;
        let ctx = FileContext {
            crate_name: crate_of(rel),
            rel_path: rel.clone(),
        };
        let lexed = lex(text);
        let raw = scan_tokens(&ctx, &lexed.tokens);
        absorb(&mut report, config, rel, text, raw, &lexed.pragmas);
        pragma_index.add_file(rel, &lexed.pragmas);
        parsed.push(parse_file(rel, &lexed.tokens));
    }

    let graph = CallGraph::build(&parsed);
    let (findings, interproc_suppressed) = interproc::run(&graph, &pragma_index, config);
    let texts: BTreeMap<&str, &str> = sources
        .iter()
        .map(|(rel, text)| (rel.as_str(), text.as_str()))
        .collect();
    for f in findings {
        let snippet = texts
            .get(f.file.as_str())
            .and_then(|t| t.lines().nth(f.line.saturating_sub(1)))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default();
        report.violations.push(Violation {
            rule: f.rule,
            severity: f.severity,
            file: f.file,
            line: f.line,
            message: f.message,
            snippet,
        });
    }
    for s in interproc_suppressed {
        report.suppressed.push(SuppressedViolation {
            rule: s.rule,
            file: s.file,
            line: s.line,
            reason: s.reason,
        });
    }
    finish(&mut report, config);
    (report, graph)
}

/// The crate a workspace-relative path belongs to.
fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_owned(),
        _ => "ee360".to_owned(),
    }
}

fn collect_files(root: &Path, dir: &Path, rs: &mut Vec<String>, toml: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if EXEMPT_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, rs, toml);
        } else if let Some(rel) = relative(root, &path) {
            if name == "Cargo.toml" {
                toml.push(rel);
            } else if name.ends_with(".rs") {
                rs.push(rel);
            }
        }
    }
}

fn relative(root: &Path, path: &Path) -> Option<String> {
    let rel: PathBuf = path.strip_prefix(root).ok()?.to_path_buf();
    Some(
        rel.components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/"),
    )
}

/// Applies pragmas to raw violations and folds everything into the
/// report.
fn absorb(
    report: &mut Report,
    config: &Config,
    rel_path: &str,
    text: &str,
    raw: Vec<RawViolation>,
    pragmas: &[Pragma],
) {
    let lines: Vec<&str> = text.lines().collect();
    let snippet = |line: usize| -> String {
        lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    };

    // Validate pragmas; collect the valid allowances.
    // file-wide: rule -> reason; per-line: (rule, line) -> reason.
    let mut file_wide: BTreeMap<&str, &str> = BTreeMap::new();
    let mut per_line: BTreeMap<(&str, usize), &str> = BTreeMap::new();
    for p in pragmas {
        let known = RuleId::parse(&p.rule).is_some();
        if p.malformed || !known || p.reason.is_empty() {
            let why = if p.malformed {
                "malformed pragma"
            } else if !known {
                "unknown rule id"
            } else {
                "missing reason — every suppression must say why"
            };
            report.violations.push(Violation {
                rule: RuleId::BadPragma,
                severity: config.severity(RuleId::BadPragma),
                file: rel_path.to_owned(),
                line: p.line,
                message: format!("invalid `lint:allow` pragma ({why})"),
                snippet: snippet(p.line),
            });
            continue;
        }
        if p.whole_file {
            file_wide.insert(p.rule.as_str(), p.reason.as_str());
        } else {
            // A trailing pragma covers its own line; a standalone comment
            // covers the line below it.
            let covered = if p.standalone { p.line + 1 } else { p.line };
            per_line.insert((p.rule.as_str(), covered), p.reason.as_str());
        }
    }

    for v in raw {
        let severity = config.severity(v.rule);
        if severity == Severity::Allow {
            continue;
        }
        let reason = per_line
            .get(&(v.rule.id(), v.line))
            .or_else(|| file_wide.get(v.rule.id()))
            .copied();
        match reason {
            Some(reason) => report.suppressed.push(SuppressedViolation {
                rule: v.rule,
                file: rel_path.to_owned(),
                line: v.line,
                reason: reason.to_owned(),
            }),
            None => report.violations.push(Violation {
                rule: v.rule,
                severity,
                file: rel_path.to_owned(),
                line: v.line,
                message: v.message,
                snippet: snippet(v.line),
            }),
        }
    }
}

/// Computes per-rule summaries once all files are absorbed.
fn finish(report: &mut Report, config: &Config) {
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    report
        .suppressed
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    report.rules = RuleId::ALL
        .iter()
        .map(|&rule| RuleSummary {
            rule,
            severity: config.severity(rule),
            violations: report.violations.iter().filter(|v| v.rule == rule).count(),
            suppressed: report.suppressed.iter().filter(|s| s.rule == rule).count(),
            baselined: 0,
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_classification() {
        assert_eq!(crate_of("crates/sim/src/session.rs"), "sim");
        assert_eq!(crate_of("src/lib.rs"), "ee360");
        assert_eq!(crate_of("src/bin/ee360.rs"), "ee360");
    }

    #[test]
    fn trailing_pragma_suppresses_with_reason() {
        let src = "fn f() { v.unwrap(); // lint:allow(no-panic-paths, \"validated upstream\")\n}";
        let report = scan_source("crates/sim/src/x.rs", src, &Config::default());
        assert_eq!(report.deny_count(), 0, "{:?}", report.violations);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].reason, "validated upstream");
    }

    #[test]
    fn standalone_pragma_covers_next_line() {
        let src = "// lint:allow(no-panic-paths, \"invariant: non-empty by construction\")\nfn f() { v.unwrap(); }";
        let report = scan_source("crates/sim/src/x.rs", src, &Config::default());
        assert_eq!(report.deny_count(), 0, "{:?}", report.violations);
        assert_eq!(report.suppressed.len(), 1);
    }

    #[test]
    fn pragma_without_reason_is_itself_a_violation() {
        let src = "fn f() { v.unwrap(); // lint:allow(no-panic-paths)\n}";
        let report = scan_source("crates/sim/src/x.rs", src, &Config::default());
        // The unwrap still fires AND the pragma is flagged.
        let rules: Vec<RuleId> = report.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&RuleId::BadPragma));
        assert!(rules.contains(&RuleId::NoPanicPaths));
    }

    #[test]
    fn unknown_rule_pragma_is_flagged() {
        let src = "// lint:allow(no-such-rule, \"whatever\")\nfn f() {}";
        let report = scan_source("crates/sim/src/x.rs", src, &Config::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, RuleId::BadPragma);
    }

    #[test]
    fn severity_override_turns_warn_into_deny() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        let mut config = Config::default();
        let warn_report = scan_source("crates/abr/src/x.rs", src, &config);
        assert_eq!(warn_report.deny_count(), 0);
        assert_eq!(warn_report.warn_count(), 1);
        config.set_severity(RuleId::VecIndex, Severity::Deny);
        let deny_report = scan_source("crates/abr/src/x.rs", src, &config);
        assert_eq!(deny_report.deny_count(), 1);
    }

    #[test]
    fn allow_severity_drops_the_rule() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        let mut config = Config::default();
        config.set_severity(RuleId::VecIndex, Severity::Allow);
        let report = scan_source("crates/abr/src/x.rs", src, &config);
        assert!(report.violations.is_empty());
    }
}
