//! The interprocedural rules: panic-reachability, hot-path allocation
//! and determinism taint.
//!
//! Each rule is a reachability query over the [`CallGraph`]: starting
//! from configured entry points, every function reachable through
//! resolved call edges is in scope, and every hazard *fact* of the
//! rule's kinds inside a reachable function is a finding — unless a
//! reasoned `lint:allow` pragma suppresses it.
//!
//! Pragma semantics (the "propagation" contract from `DESIGN.md` §13):
//!
//! - A pragma covering the **fact line** suppresses that fact for every
//!   entry point that reaches it. The lexical rule ids are accepted as
//!   aliases (`no-panic-paths`/`vec-index` for `panic-reachability`,
//!   `determinism` for `determinism-taint`), so the tree's existing
//!   reasoned suppressions propagate automatically.
//! - A standalone pragma covering the **`fn` declaration line**
//!   suppresses all of that rule's facts in the function.
//! - A pragma covering a **call line** cuts that call edge: the caller
//!   takes responsibility for everything reachable through the callee.
//! - `lint:allow-file` suppresses the rule for every fact in the file.
//!
//! Suppressions spelled with the interprocedural rule's own id are
//! recorded in the report; alias-based suppressions are silent here
//! because the lexical twin already records them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::engine::Config;
use crate::lexer::Pragma;
use crate::parser::FactKind;
use crate::rules::{RuleId, Severity};

/// The interprocedural rules, in reporting order.
pub const INTERPROC_RULES: [RuleId; 3] = [
    RuleId::PanicReachability,
    RuleId::HotPathAlloc,
    RuleId::DeterminismTaint,
];

/// Fact kinds each rule cares about.
fn kinds(rule: RuleId) -> &'static [FactKind] {
    match rule {
        RuleId::PanicReachability => &[FactKind::Panic, FactKind::Index],
        RuleId::HotPathAlloc => &[FactKind::Alloc],
        RuleId::DeterminismTaint => &[FactKind::Nondet],
        _ => &[],
    }
}

/// Pragma rule ids accepted for each interprocedural rule. The first
/// entry is the rule's own id; the rest are the lexical twins whose
/// existing reasoned suppressions propagate to the call graph.
pub fn aliases(rule: RuleId) -> &'static [&'static str] {
    match rule {
        RuleId::PanicReachability => &["panic-reachability", "no-panic-paths", "vec-index"],
        RuleId::HotPathAlloc => &["hot-path-alloc"],
        RuleId::DeterminismTaint => &["determinism-taint", "determinism"],
        _ => &[],
    }
}

/// Valid pragmas of the whole workspace, indexed by file for the
/// interprocedural pass.
#[derive(Debug, Default)]
pub struct PragmaIndex {
    files: BTreeMap<String, FilePragmas>,
}

#[derive(Debug, Default)]
struct FilePragmas {
    /// `lint:allow-file`: rule id → reason.
    file_wide: BTreeMap<String, String>,
    /// Covered line → (rule id, reason).
    per_line: BTreeMap<usize, Vec<(String, String)>>,
}

impl PragmaIndex {
    /// Records one file's valid pragmas (malformed/unreasoned ones are
    /// already `bad-pragma` violations and must not suppress anything).
    pub fn add_file(&mut self, rel_path: &str, pragmas: &[Pragma]) {
        for p in pragmas {
            if p.malformed || p.reason.is_empty() || RuleId::parse(&p.rule).is_none() {
                continue;
            }
            let entry = self.files.entry(rel_path.to_owned()).or_default();
            if p.whole_file {
                entry.file_wide.insert(p.rule.clone(), p.reason.clone());
            } else {
                let covered = if p.standalone { p.line + 1 } else { p.line };
                entry
                    .per_line
                    .entry(covered)
                    .or_default()
                    .push((p.rule.clone(), p.reason.clone()));
            }
        }
    }

    /// A pragma covering `line` in `file` naming any of `rule_ids`.
    fn at_line<'s>(
        &'s self,
        file: &str,
        line: usize,
        rule_ids: &[&str],
    ) -> Option<(&'s str, &'s str)> {
        let fp = self.files.get(file)?;
        let entries = fp.per_line.get(&line)?;
        for id in rule_ids {
            if let Some((rule, reason)) = entries.iter().find(|(r, _)| r == id) {
                return Some((rule.as_str(), reason.as_str()));
            }
        }
        None
    }

    /// A `lint:allow-file` pragma in `file` naming any of `rule_ids`.
    fn file_wide<'s>(&'s self, file: &str, rule_ids: &[&str]) -> Option<(&'s str, &'s str)> {
        let fp = self.files.get(file)?;
        for id in rule_ids {
            if let Some((rule, reason)) = fp.file_wide.get_key_value(*id) {
                return Some((rule.as_str(), reason.as_str()));
            }
        }
        None
    }
}

/// One interprocedural finding, pre-snippet (the engine attaches the
/// source line).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Effective severity (index facts inherit the `vec-index` level).
    pub severity: Severity,
    /// File of the hazard fact.
    pub file: String,
    /// 1-based line of the hazard fact.
    pub line: usize,
    /// Stable description + ` (via ...)` call-path suffix.
    pub message: String,
}

/// A finding suppressed by a pragma spelled with the rule's own id.
#[derive(Debug, Clone)]
pub struct SuppressedFinding {
    /// Which rule would have fired.
    pub rule: RuleId,
    /// File of the hazard fact.
    pub file: String,
    /// 1-based line of the hazard fact.
    pub line: usize,
    /// The pragma's reason.
    pub reason: String,
}

/// Runs all three interprocedural rules over the graph.
pub fn run(
    graph: &CallGraph,
    pragmas: &PragmaIndex,
    config: &Config,
) -> (Vec<Finding>, Vec<SuppressedFinding>) {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for rule in INTERPROC_RULES {
        if config.severity(rule) == Severity::Allow {
            continue;
        }
        run_rule(rule, graph, pragmas, config, &mut findings, &mut suppressed);
    }
    (findings, suppressed)
}

fn run_rule(
    rule: RuleId,
    graph: &CallGraph,
    pragmas: &PragmaIndex,
    config: &Config,
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<SuppressedFinding>,
) {
    let rule_aliases = aliases(rule);
    let rule_kinds = kinds(rule);

    // Resolve entries; BFS over uncut edges.
    let mut entry_of: BTreeMap<usize, usize> = BTreeMap::new(); // node -> entry node
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for pattern in config.entries(rule) {
        for n in graph.resolve_entry(pattern) {
            if !entry_of.contains_key(&n) {
                entry_of.insert(n, n);
                queue.push_back(n);
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        for &ei in &graph.adj[u] {
            let e = graph.edges[ei];
            if entry_of.contains_key(&e.to) {
                continue;
            }
            // A pragma on the call line cuts the edge: the caller takes
            // responsibility for the callee's hazards.
            if pragmas
                .at_line(&graph.nodes[u].file, e.line, rule_aliases)
                .is_some()
            {
                continue;
            }
            entry_of.insert(e.to, entry_of[&u]);
            parent.insert(e.to, u);
            queue.push_back(e.to);
        }
    }

    // Emit findings for reachable facts, deduplicated per fact site.
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for (&n, &entry) in &entry_of {
        let node = &graph.nodes[n];
        for fact in &node.facts {
            if !rule_kinds.contains(&fact.kind) {
                continue;
            }
            let key = (node.file.clone(), fact.line, fact.what.clone());
            if !seen.insert(key) {
                continue;
            }
            // Suppression: fact line, enclosing fn declaration line, or
            // the whole file.
            let hit = pragmas
                .at_line(&node.file, fact.line, rule_aliases)
                .or_else(|| pragmas.at_line(&node.file, node.decl_line, rule_aliases))
                .or_else(|| pragmas.file_wide(&node.file, rule_aliases));
            if let Some((pragma_rule, reason)) = hit {
                if pragma_rule == rule.id() {
                    suppressed.push(SuppressedFinding {
                        rule,
                        file: node.file.clone(),
                        line: fact.line,
                        reason: reason.to_owned(),
                    });
                }
                // Alias suppressions are recorded by the lexical twin.
                continue;
            }
            let severity = if rule == RuleId::PanicReachability && fact.kind == FactKind::Index {
                // The indexing arm stays at the lexical `vec-index`
                // level while its burn-down runs.
                config.severity(RuleId::VecIndex)
            } else {
                config.severity(rule)
            };
            if severity == Severity::Allow {
                continue;
            }
            findings.push(Finding {
                rule,
                severity,
                file: node.file.clone(),
                line: fact.line,
                message: format!(
                    "{} {} in `{}` reachable from entry `{}` (via {})",
                    fact.what,
                    label(fact.kind),
                    node.qname,
                    graph.nodes[entry].qname,
                    path_to(graph, &parent, n, entry),
                ),
            });
        }
    }
}

fn label(kind: FactKind) -> &'static str {
    match kind {
        FactKind::Panic => "panic path",
        // `Fact::what` for an Index fact already ends in "indexing".
        FactKind::Index => "panic path",
        FactKind::Alloc => "hot-path allocation",
        FactKind::Nondet => "non-determinism source",
    }
}

/// Renders the BFS call path entry → ... → node, truncated in the
/// middle when long.
fn path_to(
    graph: &CallGraph,
    parent: &BTreeMap<usize, usize>,
    node: usize,
    entry: usize,
) -> String {
    let mut chain = vec![node];
    let mut cur = node;
    while cur != entry {
        let Some(&p) = parent.get(&cur) else { break };
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    let names: Vec<&str> = chain
        .iter()
        .map(|&i| graph.nodes[i].qname.as_str())
        .collect();
    if names.len() <= 5 {
        names.join(" -> ")
    } else {
        format!(
            "{} -> {} -> ... -> {} -> {}",
            names[0],
            names[1],
            names[names.len() - 2],
            names[names.len() - 1]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn analyse(
        files: &[(&str, &str)],
        configure: impl FnOnce(&mut Config),
    ) -> (Vec<Finding>, Vec<SuppressedFinding>) {
        let mut parsed = Vec::new();
        let mut pragmas = PragmaIndex::default();
        for (path, src) in files {
            let lexed = lex(src);
            pragmas.add_file(path, &lexed.pragmas);
            parsed.push(parse_file(path, &lexed.tokens));
        }
        let graph = CallGraph::build(&parsed);
        let mut config = Config::default();
        configure(&mut config);
        run(&graph, &pragmas, &config)
    }

    #[test]
    fn panic_reachable_across_crates_fires() {
        let (findings, _) = analyse(
            &[
                (
                    "crates/sim/src/fleet.rs",
                    "use ee360_support::util::pick;\n\
                     pub fn run_scale_fleet(x: Option<u32>) -> u32 { pick(x) }",
                ),
                (
                    "crates/support/src/util.rs",
                    "pub fn pick(x: Option<u32>) -> u32 { x.unwrap() }",
                ),
            ],
            |_| {},
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, RuleId::PanicReachability);
        assert_eq!(f.severity, Severity::Deny);
        assert_eq!(f.file, "crates/support/src/util.rs");
        assert!(f.message.contains("run_scale_fleet"), "{}", f.message);
        assert!(f.message.contains("(via "), "{}", f.message);
    }

    #[test]
    fn unreachable_panic_does_not_fire() {
        let (findings, _) = analyse(
            &[(
                "crates/support/src/util.rs",
                "pub fn orphan(x: Option<u32>) -> u32 { x.unwrap() }",
            )],
            |_| {},
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn fact_line_pragma_propagates_to_entry() {
        let (findings, suppressed) = analyse(
            &[
                (
                    "crates/sim/src/fleet.rs",
                    "use ee360_support::util::pick;\n\
                     pub fn run_scale_fleet(x: Option<u32>) -> u32 { pick(x) }",
                ),
                (
                    "crates/support/src/util.rs",
                    "pub fn pick(x: Option<u32>) -> u32 {\n\
                     x.unwrap() // lint:allow(panic-reachability, \"validated upstream\")\n\
                     }",
                ),
            ],
            |_| {},
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].reason, "validated upstream");
    }

    #[test]
    fn lexical_alias_pragma_suppresses_silently() {
        let (findings, suppressed) = analyse(
            &[
                (
                    "crates/sim/src/fleet.rs",
                    "use ee360_support::util::pick;\n\
                     pub fn run_scale_fleet(x: Option<u32>) -> u32 { pick(x) }",
                ),
                (
                    "crates/support/src/util.rs",
                    "pub fn pick(x: Option<u32>) -> u32 {\n\
                     x.unwrap() // lint:allow(no-panic-paths, \"validated upstream\")\n\
                     }",
                ),
            ],
            |_| {},
        );
        assert!(findings.is_empty(), "{findings:?}");
        // Alias suppressions are the lexical rule's to report.
        assert!(suppressed.is_empty(), "{suppressed:?}");
    }

    #[test]
    fn call_site_pragma_cuts_the_edge() {
        let (findings, _) = analyse(
            &[
                (
                    "crates/sim/src/fleet.rs",
                    "use ee360_support::util::pick;\n\
                     pub fn run_scale_fleet(x: Option<u32>) -> u32 {\n\
                     pick(x) // lint:allow(panic-reachability, \"pick never sees None here\")\n\
                     }",
                ),
                (
                    "crates/support/src/util.rs",
                    "pub fn pick(x: Option<u32>) -> u32 { x.unwrap() }",
                ),
            ],
            |_| {},
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn fn_level_pragma_covers_every_fact_in_the_fn() {
        let (findings, suppressed) = analyse(
            &[
                (
                    "crates/sim/src/fleet.rs",
                    "use ee360_support::util::pick;\n\
                     pub fn run_scale_fleet(x: Option<u32>) -> u32 { pick(x) }",
                ),
                (
                    "crates/support/src/util.rs",
                    "// lint:allow(panic-reachability, \"both unwraps guarded by caller\")\n\
                     pub fn pick(x: Option<u32>) -> u32 {\n\
                     let a = x.unwrap();\n\
                     let b = x.unwrap();\n\
                     a + b\n\
                     }",
                ),
            ],
            |_| {},
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed.len(), 2, "{suppressed:?}");
    }

    #[test]
    fn hot_path_alloc_fires_from_event_loop() {
        let (findings, _) = analyse(
            &[(
                "crates/sim/src/fleet.rs",
                "pub struct ScaleDriver;\n\
                 impl ScaleDriver {\n\
                 pub fn on_event(&mut self) { let label = format!(\"e\"); let _ = label; }\n\
                 }",
            )],
            |_| {},
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::HotPathAlloc);
        assert!(
            findings[0].message.contains("format!"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn determinism_taint_reaches_into_unscoped_crates() {
        // `support` is outside the lexical REPLAY_CRATES scope, so only
        // the taint rule can see this HashMap.
        let (findings, _) = analyse(
            &[
                (
                    "crates/core/src/client.rs",
                    "use ee360_support::cachey::memo;\n\
                     pub fn run_session_traced() { memo(); }",
                ),
                (
                    "crates/support/src/cachey.rs",
                    "use std::collections::HashMap;\n\
                     pub fn memo() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m.len(); }",
                ),
            ],
            |_| {},
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::DeterminismTaint);
        assert_eq!(findings[0].file, "crates/support/src/cachey.rs");
    }

    #[test]
    fn index_facts_inherit_vec_index_severity() {
        let (findings, _) = analyse(
            &[(
                "crates/sim/src/fleet.rs",
                "pub fn run_scale_fleet(v: &[u32]) -> u32 { v[0] }",
            )],
            |_| {},
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::PanicReachability);
        assert_eq!(findings[0].severity, Severity::Warn);
    }

    #[test]
    fn custom_entries_override_defaults() {
        let (findings, _) = analyse(
            &[(
                "crates/viz/src/plot.rs",
                "pub fn render(x: Option<u32>) -> u32 { x.unwrap() }",
            )],
            |c| {
                c.set_entries(
                    RuleId::PanicReachability,
                    vec!["viz::plot::render".to_owned()],
                );
            },
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
    }
}
