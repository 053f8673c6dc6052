//! End-to-end fixture crates driven through `analyze_root` — the same
//! entry point CI uses — one violating and one clean fixture per pass.
//!
//! Fixtures are written to per-test temp directories shaped like a real
//! workspace (`crates/<name>/src/*.rs`); findings are filtered by rule
//! because a bare fixture root legitimately trips the content-anchored
//! rules (missing DESIGN.md, missing golden files).

use std::fs;
use std::path::PathBuf;

use xtask::analyze::{analyze_root, to_json, Finding};

fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("xtask-fixture-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("mkdir fixture");
        fs::write(path, src).expect("write fixture");
    }
    root
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

const DATASET: (&str, &str) = (
    "crates/common/src/dataset.rs",
    "pub struct Dataset { flat: Vec<u32> }\n\
     impl Dataset {\n\
         pub fn row(&self, i: usize) -> &[u32] { &self.flat[i..i + 1] }\n\
     }\n",
);
const WIRE: (&str, &str) = (
    "crates/server/src/wire.rs",
    "pub fn encode_reports(buf: &mut Vec<u8>, reports: &[u32]) { buf.push(reports.len() as u8); }\n",
);
const FO: (&str, &str) = (
    "crates/fo/src/grr.rs",
    "pub fn perturb(cell: u32, r: u64) -> u32 { cell ^ r as u32 }\n",
);

// ---------------------------------------------------------------- taint

#[test]
fn raw_report_to_wire_flow_is_rejected() {
    let root = fixture(
        "taint-bad",
        &[
            DATASET,
            WIRE,
            (
                "crates/server/src/bad.rs",
                "fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let taint = by_rule(&rep.findings, "privacy-taint");
    assert_eq!(taint.len(), 1, "{:?}", rep.findings);
    assert_eq!(taint[0].line, 3);
    assert!(
        !taint[0].trace.is_empty(),
        "taint finding must carry a flow trace"
    );
}

#[test]
fn perturbed_flow_is_accepted() {
    let root = fixture(
        "taint-good",
        &[
            DATASET,
            WIRE,
            FO,
            (
                "crates/server/src/good.rs",
                "fn ok(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     let report = perturb(raw[0], 7);\n\
                     let reports = vec![report];\n\
                     encode_reports(buf, &reports);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    assert!(
        by_rule(&rep.findings, "privacy-taint").is_empty(),
        "{:?}",
        rep.findings
    );
}

#[test]
fn taint_ok_waiver_is_catalogued_not_failing() {
    let root = fixture(
        "taint-waived",
        &[
            DATASET,
            WIRE,
            (
                "crates/server/src/waived.rs",
                "fn waived(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     // TAINT-OK: synthetic fixture data, never user input.\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    assert!(
        by_rule(&rep.findings, "privacy-taint").is_empty(),
        "{:?}",
        rep.findings
    );
    assert_eq!(rep.taint_ok.len(), 1, "waiver must land in the catalogue");
}

#[test]
fn stale_taint_ok_is_rejected() {
    let root = fixture(
        "taint-stale",
        &[(
            "crates/server/src/stale.rs",
            "// TAINT-OK: suppresses nothing.\nfn fine() {}\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "taint-ok-stale").len(), 1);
}

/// Catalogue defense: a sanitizer-named fn outside the allowed crates
/// would silently bless un-perturbed flows — it is flagged at its
/// definition instead.
#[test]
fn sanitizer_alias_outside_allowed_crates_is_rejected() {
    let root = fixture(
        "taint-alias",
        &[(
            "crates/server/src/alias.rs",
            "pub fn perturb(x: u32) -> u32 { x }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "taint-catalogue").len(), 1);
}

// ----------------------------------------------------------------- locks

#[test]
fn lock_order_cycle_is_rejected() {
    let root = fixture(
        "locks-cycle",
        &[(
            "crates/server/src/locky.rs",
            "impl S {\n\
                 fn a(&self) { let g = self.base.lock(); let h = self.shard.lock(); h.n(); g.n(); }\n\
                 fn b(&self) { let g = self.shard.lock(); let h = self.base.lock(); h.n(); g.n(); }\n\
             }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert!(
        !by_rule(&rep.findings, "lock-order").is_empty(),
        "{:?}",
        rep.findings
    );
}

#[test]
fn consistent_lock_order_is_accepted() {
    let root = fixture(
        "locks-clean",
        &[(
            "crates/server/src/locky.rs",
            "impl S {\n\
                 fn a(&self) { let g = self.base.lock(); let h = self.shard.lock(); h.n(); g.n(); }\n\
                 fn b(&self) { let g = self.base.lock(); let h = self.shard.lock(); h.n(); g.n(); }\n\
             }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert!(
        by_rule(&rep.findings, "lock-order").is_empty(),
        "{:?}",
        rep.findings
    );
}

// ----------------------------------------------------------------- arith

#[test]
fn bare_add_in_merge_path_is_rejected() {
    let root = fixture(
        "arith-bad",
        &[(
            "crates/felip/src/agg.rs",
            "impl Agg { pub fn merge(&mut self, o: &Agg) { self.n += o.n; } }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "checked-arith").len(), 1);
}

#[test]
fn checked_add_in_merge_path_is_accepted() {
    let root = fixture(
        "arith-good",
        &[(
            "crates/felip/src/agg.rs",
            "impl Agg { pub fn merge(&mut self, o: &Agg) -> Option<()> { \
             self.n = self.n.checked_add(o.n)?; Some(()) } }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert!(
        by_rule(&rep.findings, "checked-arith").is_empty(),
        "{:?}",
        rep.findings
    );
}

#[test]
fn wrapping_add_without_justification_is_rejected() {
    let root = fixture(
        "arith-wrap",
        &[(
            "crates/fo/src/k.rs",
            "fn accumulate(c: &mut [u64]) { c[0] = c[0].wrapping_add(1); }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "checked-arith").len(), 1);
}

// ------------------------------------------------------- token-rule ports

#[test]
fn unwrap_in_server_is_rejected() {
    let root = fixture(
        "rules-panic",
        &[(
            "crates/server/src/u.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "no-panic").len(), 1);
}

/// Everything the token rules must tolerate: rule tokens inside string,
/// raw-string, byte-string and char literals, doc and block comments, a
/// `// SAFETY:`-commented unsafe fn, and unwraps, panics and raw
/// `std::thread` inside test code.
#[test]
fn token_rules_tolerate_literals_comments_and_tests() {
    let root = fixture(
        "rules-clean",
        &[(
            "crates/server/src/ok.rs",
            concat!(
                "//! Doc examples may call `.unwrap()` or even panic!(freely).\n",
                "use felip_sync::{Mutex, thread};\n",
                "\n",
                "fn fine<'a>(x: &'a str) -> &'a str {\n",
                "    let _s = \"call .unwrap() or panic!(now) or std::thread::spawn\";\n",
                "    let _q = '\"';\n",
                "    let _r = r\"raw .expect( string\";\n",
                "    let _b = b\"byte panic!( string epoll_wait asm!(\";\n",
                "    /* block comment: .unwrap() epoll_ctl */\n",
                "    x\n",
                "}\n",
                "\n",
                "// SAFETY: the pointer is valid for the whole call; see `fine`.\n",
                "unsafe fn justified() {}\n",
                "\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    #[test]\n",
                "    fn tests_may_unwrap() {\n",
                "        Some(1).unwrap();\n",
                "        std::thread::spawn(|| panic!(\"fine in tests\"));\n",
                "    }\n",
                "}\n",
            ),
        )],
    );
    let rep = analyze_root(&root);
    for rule in [
        "no-panic",
        "sync-shims",
        "safety-comments",
        "reactor-syscalls",
    ] {
        assert!(
            by_rule(&rep.findings, rule).is_empty(),
            "false positives: {:?}",
            rep.findings
        );
    }
}

/// `no-panic` covers every ingestion-path crate and names file and line.
#[test]
fn no_panic_fires_per_crate_with_file_and_line() {
    let root = fixture(
        "rules-panic-crates",
        &[
            (
                "crates/server/src/bad.rs",
                "fn f() {\n    let x: Option<u32> = None;\n    x.unwrap();\n}\n",
            ),
            (
                "crates/cli/src/bad.rs",
                "fn g() {\n    panic!(\"boom\");\n}\n",
            ),
            (
                "crates/fo/src/bad.rs",
                "fn h() {\n    let r: Result<(), ()> = Ok(());\n    r.expect(\"oops\");\n}\n",
            ),
            (
                "crates/cluster/src/bad.rs",
                "fn k() {\n    let v: Vec<u8> = Vec::new();\n    let _ = v.first().unwrap();\n}\n",
            ),
            ("crates/grid/src/free.rs", "fn m() { Some(1).unwrap(); }\n"),
        ],
    );
    let rep = analyze_root(&root);
    let mut hits: Vec<(String, u32)> = by_rule(&rep.findings, "no-panic")
        .iter()
        .map(|f| (f.file.display().to_string(), f.line))
        .collect();
    hits.sort();
    assert_eq!(
        hits,
        [
            ("crates/cli/src/bad.rs".to_string(), 2),
            ("crates/cluster/src/bad.rs".to_string(), 3),
            ("crates/fo/src/bad.rs".to_string(), 3),
            ("crates/server/src/bad.rs".to_string(), 3),
        ]
    );
}

/// `sync-shims` fires on raw `std::sync` / `std::thread` in the modelled
/// crates only.
#[test]
fn sync_shims_fire_only_in_modelled_crates() {
    let root = fixture(
        "rules-sync",
        &[
            (
                "crates/server/src/bad_sync.rs",
                "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\n",
            ),
            (
                "crates/cluster/src/bad_sync.rs",
                "fn h() { std::thread::spawn(|| {}); }\n",
            ),
            (
                "crates/fo/src/fine.rs",
                "use std::sync::Arc;\nfn g() -> Arc<u32> { Arc::new(1) }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let sync = by_rule(&rep.findings, "sync-shims");
    assert_eq!(sync.len(), 3, "{sync:?}");
    assert!(sync
        .iter()
        .all(|f| f.file.starts_with("crates/server") || f.file.starts_with("crates/cluster")));
    assert!(
        sync.iter()
            .any(|f| f.file.ends_with("cluster/src/bad_sync.rs") && f.line == 1),
        "{sync:?}"
    );
}

/// Attributes may sit between a `// SAFETY:` comment and its `unsafe`.
#[test]
fn safety_comment_may_precede_attributes() {
    let root = fixture(
        "rules-safety-attrs",
        &[(
            "crates/fo/src/kernels.rs",
            "// SAFETY: feature detected by the caller.\n\
             #[cfg(target_arch = \"x86_64\")]\n\
             #[target_feature(enable = \"avx2\")]\n\
             unsafe fn ok() {}\n\
             \n\
             unsafe fn bad() {}\n",
        )],
    );
    let rep = analyze_root(&root);
    let safety = by_rule(&rep.findings, "safety-comments");
    assert_eq!(safety.len(), 1, "{safety:?}");
    assert_eq!(safety[0].line, 6);
    assert!(safety[0].file.ends_with("fo/src/kernels.rs"));
}

/// `reactor-syscalls`: allowed in the reactor module, flagged with its
/// line anywhere else, never in strings or comments.
#[test]
fn reactor_syscalls_fire_outside_the_reactor_only() {
    let root = fixture(
        "rules-reactor",
        &[
            (
                "crates/server/src/reactor.rs",
                "// SAFETY: fixture.\nunsafe fn w() { epoll_wait(); sched_setaffinity(); }\n",
            ),
            (
                "crates/bench/src/sneaky.rs",
                "fn f() {\n    epoll_ctl();\n}\n",
            ),
            (
                "crates/obs/src/doc.rs",
                "// mentioning epoll_wait in prose is fine\n\
                 fn f() { let _ = \"epoll_wait sched_setaffinity asm!(\"; }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let hits = by_rule(&rep.findings, "reactor-syscalls");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].file.ends_with("bench/src/sneaky.rs"));
    assert_eq!(hits[0].line, 2);
}

/// Files claimed by `#[cfg(…test…)] mod x;` are test code in full.
#[test]
fn cfg_test_gated_module_files_are_skipped() {
    let root = fixture(
        "rules-gated",
        &[
            (
                "crates/server/src/lib.rs",
                "#[cfg(all(test, feature = \"model\"))]\nmod model_tests;\npub mod queue;\n",
            ),
            (
                "crates/server/src/model_tests.rs",
                "fn t() { Some(1).unwrap(); panic!(\"test-only\"); std::thread::yield_now(); }\n",
            ),
            ("crates/server/src/queue.rs", "pub fn q() {}\n"),
        ],
    );
    let rep = analyze_root(&root);
    assert!(
        rep.findings
            .iter()
            .all(|f| !f.file.ends_with("model_tests.rs")),
        "gated module file was analyzed: {:?}",
        rep.findings
    );
}

/// `metric-registry` checks both directions: an emitted name missing from
/// the §11 catalogue (also when the call wraps over lines), and a
/// catalogued name nothing emits.
#[test]
fn metric_registry_checks_both_directions() {
    let root = fixture(
        "rules-metrics",
        &[
            (
                "crates/grid/src/x.rs",
                "fn f() { felip_obs::counter!(\"server.accept\", 1, \"conns\"); }\n\
                 fn g() { felip_obs::hist!(\"grid.unregistered\", 1, \"items\"); }\n\
                 fn h() {\n    felip_obs::hist!(\n        \"grid.wrapped\",\n        1,\n    );\n}\n",
            ),
            (
                "DESIGN.md",
                "## 11. Observability\n\n**Metric catalogue.**\n\n\
                 | name | type (unit) | meaning |\n|---|---|---|\n\
                 | `server.accept` | counter (conns) | accepted connections |\n\
                 | `ghost.metric` | counter | never emitted |\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let reg: Vec<String> = by_rule(&rep.findings, "metric-registry")
        .iter()
        .map(|f| f.to_string())
        .collect();
    assert_eq!(reg.len(), 3, "{reg:?}");
    for (name, at) in [
        ("grid.unregistered", "grid/src/x.rs:2"),
        ("grid.wrapped", "grid/src/x.rs:"),
        ("ghost.metric", "DESIGN.md:8"),
    ] {
        assert!(
            reg.iter().any(|m| m.contains(name) && m.contains(at)),
            "missing {name} at {at}: {reg:?}"
        );
    }
}

// ------------------------------------------------------- driver plumbing

#[test]
fn lex_failure_is_a_coverage_hole_finding() {
    let root = fixture(
        "lex-hole",
        &[(
            "crates/server/src/broken.rs",
            "fn f() { let s = \"unterminated; }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "lex").len(), 1);
}

#[test]
fn json_output_carries_findings_and_traces() {
    let root = fixture(
        "json-out",
        &[
            DATASET,
            WIRE,
            (
                "crates/server/src/bad.rs",
                "fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let j = to_json(&rep);
    assert!(j.starts_with("{\"t\":\"analyze\",\"version\":1,"), "{j}");
    assert!(j.contains("\"rule\":\"privacy-taint\""), "{j}");
    assert!(
        j.contains("\"trace\":[\""),
        "taint finding should carry a trace: {j}"
    );
}
