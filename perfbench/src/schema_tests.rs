//! `BENCHMARK.json` at the repository root must follow the benchmark
//! contract and agree with the metric tables and workloads this package
//! implements.

use felip_obs::jsonread::{parse, JsonValue};

use crate::common::{END_TO_END, PER_LAYER};

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Object(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn array<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match v.get(key) {
        Some(JsonValue::Array(a)) => a,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn string<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key}: expected a string"))
}

/// Letters, digits, `_`, `.`, `-`; starts with a letter or digit; ≤ 64.
fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_shape() {
    let b = benchmark();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = array(&b, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let paths = array(&b, "paths");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().expect("path strings");
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
        assert!(p
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
    }
    let secs = b
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&secs));
}

#[test]
fn workloads_are_the_implemented_ones() {
    let b = benchmark();
    let workloads = array(&b, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let name = string(w, "name");
        assert!(valid_name(name), "{name}");
        assert!(crate::workload(name).is_some(), "no runner for {name}");
        let why = string(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    // A full measurement campaign is 4 + 22 runs per workload and must end
    // within 3420 s; the slowest set-up and wind-down take about 12 s.
    let secs = b.get("run_seconds").and_then(JsonValue::as_u64).unwrap();
    let runs = 4 + 22 * workloads.len() as u64;
    assert!(runs * (secs + 12) <= 3420 - 300, "{runs} runs of {secs} s");
}

#[test]
fn metric_tables_match_the_code() {
    let b = benchmark();
    let check = |key: &str, table: &[(&str, &str)], with_bound: bool| {
        let metrics = array(&b, key);
        let names: Vec<&str> = metrics.iter().map(|m| string(m, "name")).collect();
        let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{key} names");
        for (m, (name, unit)) in metrics.iter().zip(table) {
            let want: &[&str] = if with_bound {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys(m), want, "{name}");
            assert!(valid_name(name), "{name}");
            assert_eq!(string(m, "unit"), *unit, "{name} unit");
            assert!(valid_unit(unit), "{unit}");
            assert!(matches!(string(m, "better"), "lower" | "higher"), "{name}");
            if with_bound {
                let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            }
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);

    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    for (i, n) in all.iter().enumerate() {
        assert!(!all[i + 1..].contains(n), "{n} used twice");
    }
}

#[test]
fn setup_time_has_the_largest_bound() {
    let b = benchmark();
    let e2e = array(&b, "end_to_end");
    let setup = e2e
        .iter()
        .find(|m| string(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(string(setup, "unit"), "s");
    assert_eq!(string(setup, "better"), "lower");
    let bound = |m: &JsonValue| m.get("bound").and_then(JsonValue::as_f64).unwrap();
    assert!(e2e.iter().all(|m| bound(m) <= bound(setup)));
}
