//! `xtask` — workspace automation. The one subcommand, `analyze`, is a
//! zero-dependency static-analysis pass over the workspace's token tree
//! (DESIGN.md §18): privacy taint, lock order, checked arithmetic, and the
//! repo-specific rules ordinary tooling cannot express (`no-panic`,
//! `sync-shims`, `safety-comments`, `metric-registry`,
//! `reactor-syscalls`; see `rules.rs`).
//!
//! Two rules are content-anchored rather than token-shaped and live here:
//!
//! * **`golden-constants`** — wire/snapshot magic numbers, protocol
//!   versions, and the `schema_hash` domain tag must not drift: changing
//!   any of them silently invalidates every snapshot and client in the
//!   field, so a change must show up here, in review, on purpose.
//! * **`bench-schema`** — checked-in `BENCH_*.json` files keep their
//!   headline keys, so CI gates and dashboards reading them never break
//!   silently when a bench is reshaped.
//!
//! The DESIGN.md §11 metric-catalogue parser the `metric-registry` rule
//! reads also lives here.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod analyze;
mod arith;
pub mod lex;
mod locks;
mod rules;
mod taint;
pub mod tree;

/// One content-rule violation, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// File the violation is in (workspace-relative when possible).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Short rule identifier (`golden-constants`, `bench-schema`).
    pub rule: &'static str,
    /// Human explanation of what is wrong.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// CLI entry: returns the process exit code.
pub fn run(mut args: impl Iterator<Item = String>) -> i32 {
    // xtask sits directly under the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    match args.next().as_deref() {
        Some("analyze") => {
            let mut json = false;
            let mut dump_locks = false;
            for a in args {
                match a.as_str() {
                    "--format" => {} // value follows
                    "json" | "--format=json" => json = true,
                    "--dump-locks" => dump_locks = true,
                    other => {
                        felip_obs::diag::error(&format!(
                            "unknown analyze flag {other:?} \
                             (expected `--format json` or `--dump-locks`)"
                        ));
                        return 2;
                    }
                }
            }
            let report = analyze::analyze_root(&root);
            if dump_locks {
                felip_obs::diag::line(report.locks.dump().trim_end());
            }
            if json {
                // JSON goes to stdout — it is the machine product.
                println!("{}", analyze::to_json(&report));
            } else {
                for f in &report.findings {
                    felip_obs::diag::line(&f.to_string());
                }
                for f in &report.taint_ok {
                    felip_obs::diag::line(&format!(
                        "{}:{}: [taint-ok] waived: {}",
                        f.file.display(),
                        f.line,
                        f.message
                    ));
                }
            }
            if report.findings.is_empty() {
                if !json {
                    felip_obs::diag::line(&format!(
                        "xtask analyze: all passes clean ({} taint waiver(s) catalogued)",
                        report.taint_ok.len()
                    ));
                }
                0
            } else {
                if !json {
                    felip_obs::diag::error(&format!(
                        "xtask analyze: {} finding(s)",
                        report.findings.len()
                    ));
                }
                1
            }
        }
        other => {
            felip_obs::diag::error(&format!(
                "usage: cargo run -p xtask -- analyze [--format json] [--dump-locks]\n  \
                 unknown subcommand {:?}",
                other.unwrap_or("<none>")
            ));
            2
        }
    }
}

// ---------------------------------------------------------------------------
// golden-constants: wire/snapshot/plan constants must not drift
// ---------------------------------------------------------------------------

/// `(file, anchor, expected-fragment)`: the first line containing `anchor`
/// must also contain `expected`. A missing anchor (constant removed or
/// renamed) is equally a drift.
const GOLDEN: [(&str, &str, &str); 11] = [
    (
        "crates/server/src/wire.rs",
        "pub const MAGIC",
        "u32::from_le_bytes(*b\"FELP\")",
    ),
    (
        "crates/server/src/wire.rs",
        "pub const VERSION",
        ": u8 = 5;",
    ),
    // The cluster verbs' frame-kind discriminants: ingest nodes and
    // aggregators of mixed builds interoperate only if these never move.
    ("crates/server/src/wire.rs", "Delta =", "= 7,"),
    ("crates/server/src/wire.rs", "DeltaAck =", "= 8,"),
    // The online-query verbs (wire v5): clients and servers of mixed
    // builds interoperate only if these never move.
    ("crates/server/src/wire.rs", "Query =", "= 9,"),
    ("crates/server/src/wire.rs", "QueryReply =", "= 10,"),
    (
        "crates/cluster/src/state.rs",
        "pub const CLUSTER_MAGIC",
        "u32::from_le_bytes(*b\"FCLU\")",
    ),
    (
        "crates/cluster/src/state.rs",
        "pub const CLUSTER_VERSION",
        ": u8 = 1;",
    ),
    (
        "crates/server/src/snapshot.rs",
        "pub const SNAPSHOT_MAGIC",
        "u32::from_le_bytes(*b\"FSNP\")",
    ),
    (
        "crates/server/src/snapshot.rs",
        "pub const SNAPSHOT_VERSION",
        ": u8 = 2;",
    ),
    (
        "crates/felip/src/plan.rs",
        "fold(0, 0x",
        "0x4645_4c49_505f_4831", // "FELIP_H1" — the schema_hash domain tag
    ),
];

fn rule_golden_constants(root: &Path, diags: &mut Vec<Diagnostic>) {
    for (file, anchor, expected) in GOLDEN {
        let path = root.join(file);
        let Ok(src) = fs::read_to_string(&path) else {
            diags.push(Diagnostic {
                file: PathBuf::from(file),
                line: 1,
                rule: "golden-constants",
                message: format!("file missing — golden constant `{anchor}` unverifiable"),
            });
            continue;
        };
        match src.lines().enumerate().find(|(_, l)| l.contains(anchor)) {
            Some((_, l)) if l.contains(expected) => {}
            Some((i, _)) => diags.push(Diagnostic {
                file: PathBuf::from(file),
                line: i + 1,
                rule: "golden-constants",
                message: format!(
                    "`{anchor}` drifted from golden value `{expected}` — changing it \
                     invalidates deployed snapshots/clients; if intentional, bump the \
                     format version and update xtask::GOLDEN in the same change"
                ),
            }),
            None => diags.push(Diagnostic {
                file: PathBuf::from(file),
                line: 1,
                rule: "golden-constants",
                message: format!("golden constant `{anchor}` removed or renamed"),
            }),
        }
    }
}

/// Backticked names from the first column of the table that follows the
/// `**Metric catalogue.**` marker in §11 (other §11 tables — e.g. the
/// trace schema — are not catalogues). Returns name → line number.
fn parse_catalogue(design: &str) -> BTreeMap<String, usize> {
    let mut names = BTreeMap::new();
    let mut in_section = false;
    let mut in_table = false;
    for (i, line) in design.lines().enumerate() {
        if let Some(h) = line.strip_prefix("## ") {
            in_section = h.starts_with("11");
            in_table = false;
            continue;
        }
        if !in_section {
            continue;
        }
        if line.contains("**Metric catalogue.**") {
            in_table = true;
            continue;
        }
        let t = line.trim();
        if !in_table || !t.starts_with('|') {
            if in_table && !t.is_empty() && !t.starts_with('|') {
                in_table = false; // prose after the table ends it
            }
            continue;
        }
        let first_cell = t.trim_start_matches('|').split('|').next().unwrap_or("");
        let mut rest = first_cell;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            let name = &after[..close];
            if !name.is_empty() {
                names.entry(name.to_string()).or_insert(i + 1);
            }
            rest = &after[close + 1..];
        }
    }
    names
}

// ---------------------------------------------------------------------------
// bench-schema: checked-in BENCH_*.json headline keys must not drift
// ---------------------------------------------------------------------------

/// Headline keys per bench artefact. CI gates (`.github/workflows/ci.yml`)
/// and the README's numbers read these by name; reshaping a bench without
/// updating both is the drift this rule catches. Absent files are skipped —
/// presence is the bench job's concern, shape is lint's.
const BENCH_SCHEMAS: [(&str, &[&str]); 5] = [
    (
        "BENCH_ingest.json",
        &["bench", "oracle", "results", "batched_reports_per_sec"],
    ),
    (
        "BENCH_obs.json",
        &[
            "bench",
            "disabled_reports_per_sec",
            "enabled_reports_per_sec",
            "overhead_pct",
        ],
    ),
    (
        "BENCH_serve.json",
        &[
            "bench",
            "transport",
            "reports_per_sec",
            "frame_p50_us",
            "frame_p99_us",
        ],
    ),
    (
        "BENCH_cluster.json",
        &[
            "bench",
            "nodes",
            "aggregate_reports_per_sec",
            "delta_merge_p50_us",
            "delta_merge_p99_us",
            "catchup_ms",
        ],
    ),
    (
        "BENCH_query.json",
        &[
            "bench",
            "queries",
            "query_p50_ms",
            "query_p99_ms",
            "max_staleness_epochs",
            "cache_hits",
            "cache_misses",
            "ingest_reports_per_sec",
        ],
    ),
];

fn rule_bench_schema(root: &Path, diags: &mut Vec<Diagnostic>) {
    for (file, keys) in BENCH_SCHEMAS {
        let Ok(text) = fs::read_to_string(root.join(file)) else {
            continue;
        };
        if text.trim_start().as_bytes().first() != Some(&b'{') {
            diags.push(Diagnostic {
                file: PathBuf::from(file),
                line: 1,
                rule: "bench-schema",
                message: "bench artefact must be a JSON object".to_string(),
            });
            continue;
        }
        for key in keys {
            let quoted = format!("\"{key}\"");
            if !text.contains(&quoted) {
                diags.push(Diagnostic {
                    file: PathBuf::from(file),
                    line: 1,
                    rule: "bench-schema",
                    message: format!(
                        "headline key `{key}` missing — CI gates and docs read it by name; \
                         update them together with the bench shape"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A throwaway workspace root holding only the files a test writes.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(tag: &str) -> Fixture {
            let root = std::env::temp_dir().join(format!(
                "xtask-content-fixture-{tag}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).unwrap();
            Fixture { root }
        }

        fn write(&self, path: &str, contents: &str) {
            let p = self.root.join(path);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, contents).unwrap();
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    /// Every golden file at its golden value.
    fn write_golden_files(f: &Fixture) {
        f.write(
            "crates/server/src/wire.rs",
            "pub const MAGIC: u32 = u32::from_le_bytes(*b\"FELP\");\n\
             pub const VERSION: u8 = 5;\n\
             enum FrameKind {\n    Delta = 7,\n    DeltaAck = 8,\n    \
             Query = 9,\n    QueryReply = 10,\n}\n",
        );
        f.write(
            "crates/cluster/src/state.rs",
            "pub const CLUSTER_MAGIC: u32 = u32::from_le_bytes(*b\"FCLU\");\n\
             pub const CLUSTER_VERSION: u8 = 1;\n",
        );
        f.write(
            "crates/server/src/snapshot.rs",
            "pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b\"FSNP\");\n\
             pub const SNAPSHOT_VERSION: u8 = 2;\n",
        );
        f.write(
            "crates/felip/src/plan.rs",
            "fn schema_hash() -> u64 { fold(0, 0x4645_4c49_505f_4831) }\n",
        );
    }

    fn golden(root: &Path) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        rule_golden_constants(root, &mut diags);
        diags
    }

    fn bench(root: &Path) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        rule_bench_schema(root, &mut diags);
        diags
    }

    #[test]
    fn catalogue_is_the_first_column_of_the_section_11_table_only() {
        let design = "## 10. Before\n\n| `not.here` | counter | wrong section |\n\n\
                      ## 11. Observability\n\n\
                      | `trace.schema` | x | a §11 table that is not the catalogue |\n\n\
                      **Metric catalogue.**\n\n\
                      | name | type (unit) | meaning |\n|---|---|---|\n\
                      | `a.one`, `a.two` | counter | two names in one cell |\n\
                      | `b.three` | gauge | mentions `not.a.name` in prose |\n\
                      Prose ends the table.\n\
                      | `c.after` | counter | not catalogued |\n\n\
                      ## 12. After\n\n| `d.later` | counter | wrong section |\n";
        let names = parse_catalogue(design);
        assert_eq!(
            names
                .iter()
                .map(|(n, l)| (n.as_str(), *l))
                .collect::<Vec<_>>(),
            [("a.one", 13), ("a.two", 13), ("b.three", 14)]
        );
    }

    #[test]
    fn golden_files_at_their_values_pass() {
        let f = Fixture::new("golden-ok");
        write_golden_files(&f);
        assert!(golden(&f.root).is_empty(), "{:?}", golden(&f.root));
    }

    #[test]
    fn golden_constant_drift_is_reported() {
        let f = Fixture::new("golden");
        write_golden_files(&f);
        f.write(
            "crates/server/src/wire.rs",
            "pub const MAGIC: u32 = u32::from_le_bytes(*b\"XXXX\");\n\
             pub const VERSION: u8 = 9;\n\
             enum FrameKind {\n    Delta = 7,\n    DeltaAck = 8,\n    \
             Query = 9,\n    QueryReply = 10,\n}\n",
        );
        let golden = golden(&f.root);
        assert_eq!(golden.len(), 2, "{golden:?}");
        assert!(golden[0].message.contains("drifted"));
        assert_eq!(golden[0].file, PathBuf::from("crates/server/src/wire.rs"));
        assert_eq!((golden[0].line, golden[1].line), (1, 2));
    }

    #[test]
    fn bench_schema_rule_fires_on_missing_headline_key() {
        let f = Fixture::new("benchschema");
        // Renamed key: `reports_per_sec` → `rate` must be flagged.
        f.write(
            "BENCH_serve.json",
            "{\n  \"bench\": \"serve_loadgen\",\n  \"transport\": \"tcp loopback\",\n\
             \"rate\": 1.0,\n  \"frame_p50_us\": 1.0,\n  \"frame_p99_us\": 2.0\n}\n",
        );
        let hits = bench(&f.root);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("reports_per_sec"));
        assert_eq!(hits[0].file, PathBuf::from("BENCH_serve.json"));
    }

    #[test]
    fn bench_schema_rule_accepts_conforming_file_and_skips_absent_ones() {
        let f = Fixture::new("benchok");
        // Only serve is present; ingest/obs absent files are skipped.
        f.write(
            "BENCH_serve.json",
            "{\n  \"bench\": \"serve_loadgen\",\n  \"transport\": \"tcp loopback\",\n\
             \"reports_per_sec\": 1.0,\n  \"frame_p50_us\": 1.0,\n  \"frame_p99_us\": 2.0\n}\n",
        );
        let diags = bench(&f.root);
        assert!(diags.is_empty(), "false positives: {diags:?}");
    }

    #[test]
    fn bench_schema_rule_rejects_non_object_artefact() {
        let f = Fixture::new("benchnonobj");
        f.write("BENCH_obs.json", "[1, 2, 3]\n");
        let diags = bench(&f.root);
        assert!(
            diags.iter().any(|d| d.message.contains("JSON object")),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_subcommand_exits_nonzero() {
        assert_eq!(run(["frobnicate".to_string()].into_iter()), 2);
        // The legacy string lint is gone; `analyze` owns every rule.
        assert_eq!(run(["lint".to_string()].into_iter()), 2);
        assert_eq!(run(std::iter::empty()), 2);
    }
}
