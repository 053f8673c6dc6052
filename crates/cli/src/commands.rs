//! The `plan`, `run` and `compare` subcommands.

use felip::{simulate, CollectionPlan, FelipConfig, SelectivityPrior, Strategy};
use felip_baselines::hio::run_hio;
use felip_common::metrics::mae;
use felip_common::{Dataset, Error, Query, Result};
use felip_datasets::{generate_queries, DatasetKind, GenOptions, WorkloadOptions};
use felip_obs::json::JsonValue;

use crate::args::{parse_schema, Flags};

fn parse_strategy(s: &str) -> Result<Strategy> {
    match s {
        "oug" | "OUG" => Ok(Strategy::Oug),
        "ohg" | "OHG" => Ok(Strategy::Ohg),
        other => Err(Error::InvalidParameter(format!(
            "unknown strategy `{other}`"
        ))),
    }
}

fn parse_dataset(s: &str) -> Result<DatasetKind> {
    match s {
        "uniform" => Ok(DatasetKind::Uniform),
        "normal" => Ok(DatasetKind::Normal),
        "ipums" => Ok(DatasetKind::IpumsLike),
        "loan" => Ok(DatasetKind::LoanLike),
        other => Err(Error::InvalidParameter(format!(
            "unknown dataset `{other}`"
        ))),
    }
}

fn boxed(e: Error) -> Box<dyn std::error::Error> {
    Box::new(e)
}

/// `felip plan`: print the collection plan for a schema.
pub fn plan(args: &[String]) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(args).map_err(boxed)?;
    let schema =
        parse_schema(flags.require::<String>("attrs").map_err(boxed)?.as_str()).map_err(boxed)?;
    let n: usize = flags.require("n").map_err(boxed)?;
    let epsilon: f64 = flags.require("epsilon").map_err(boxed)?;
    let strategy = parse_strategy(&flags.get_or("strategy", "ohg".to_string()).map_err(boxed)?)
        .map_err(boxed)?;
    let selectivity: f64 = flags.get_or("selectivity", 0.5).map_err(boxed)?;

    let config = FelipConfig::new(epsilon)
        .with_strategy(strategy)
        .with_selectivity(SelectivityPrior::Uniform(selectivity));
    let plan = CollectionPlan::build(&schema, n, &config, 0).map_err(boxed)?;

    println!(
        "plan: strategy={strategy} epsilon={epsilon} n={n} groups={} (~{} users each)",
        plan.num_groups(),
        n / plan.num_groups()
    );
    for (i, g) in plan.grids().iter().enumerate() {
        let dims: Vec<String> = g
            .axes()
            .iter()
            .map(|a| {
                format!(
                    "{}[{} cells/{} vals]",
                    schema.attr(a.attr).name,
                    a.cells(),
                    schema.domain(a.attr)
                )
            })
            .collect();
        println!(
            "  group {i:>2}: {} {} via {} ({} cells)",
            g.id(),
            dims.join(" × "),
            g.fo,
            g.num_cells()
        );
    }
    Ok(())
}

struct RunSetup {
    data: Dataset,
    queries: Vec<Query>,
    truth: Vec<f64>,
    epsilon: f64,
    seed: u64,
}

fn setup(flags: &Flags) -> Result<RunSetup> {
    let kind = parse_dataset(&flags.require::<String>("dataset")?)?;
    let n: usize = flags.require("n")?;
    let epsilon: f64 = flags.require("epsilon")?;
    let lambda: usize = flags.get_or("lambda", 2)?;
    let count: usize = flags.get_or("queries", 10)?;
    let selectivity: f64 = flags.get_or("selectivity", 0.5)?;
    let seed: u64 = flags.get_or("seed", 42)?;

    let data = kind.generate(GenOptions {
        n,
        seed,
        ..GenOptions::paper_default()
    });
    let queries = generate_queries(
        data.schema(),
        WorkloadOptions {
            lambda,
            selectivity,
            count,
            seed,
            range_only: false,
        },
    )?;
    let truth = queries.iter().map(|q| q.true_answer(&data)).collect();
    Ok(RunSetup {
        data,
        queries,
        truth,
        epsilon,
        seed,
    })
}

/// `felip run`: one FELIP collection + workload, JSON report.
pub fn run(args: &[String]) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(args).map_err(boxed)?;
    let strategy = parse_strategy(&flags.get_or("strategy", "ohg".to_string()).map_err(boxed)?)
        .map_err(boxed)?;
    let selectivity: f64 = flags.get_or("selectivity", 0.5).map_err(boxed)?;
    let s = setup(&flags).map_err(boxed)?;

    let config = FelipConfig::new(s.epsilon)
        .with_strategy(strategy)
        .with_selectivity(SelectivityPrior::Uniform(selectivity));
    let est = simulate(&s.data, &config, s.seed).map_err(boxed)?;
    let answers = est.answer_all(&s.queries).map_err(boxed)?;

    let per_query: Vec<JsonValue> = s
        .queries
        .iter()
        .zip(&answers)
        .zip(&s.truth)
        .map(|((q, a), t)| {
            felip_obs::json!({
                "attrs": q.attrs(),
                "estimate": a,
                "truth": t,
                "abs_error": (a - t).abs(),
            })
        })
        .collect();
    let report = felip_obs::json!({
        "strategy": strategy.to_string(),
        "epsilon": s.epsilon,
        "n": s.data.len(),
        "queries": per_query,
        "mae": mae(&answers, &s.truth),
    });
    println!("{}", report.to_pretty());
    Ok(())
}

/// `felip compare`: OUG vs OHG vs HIO on one dataset/workload.
pub fn compare(args: &[String]) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(args).map_err(boxed)?;
    let s = setup(&flags).map_err(boxed)?;

    let mut rows = felip_obs::json!({});
    for strategy in [Strategy::Oug, Strategy::Ohg] {
        let config = FelipConfig::new(s.epsilon).with_strategy(strategy);
        let est = simulate(&s.data, &config, s.seed).map_err(boxed)?;
        let answers = est.answer_all(&s.queries).map_err(boxed)?;
        rows.push(&strategy.to_string(), mae(&answers, &s.truth));
    }
    let hio = run_hio(&s.data, s.epsilon, s.seed).map_err(boxed)?;
    let answers = hio.answer_all(&s.queries).map_err(boxed)?;
    rows.push("HIO", mae(&answers, &s.truth));

    let report = felip_obs::json!({
        "epsilon": s.epsilon,
        "n": s.data.len(),
        "query_count": s.queries.len(),
        "mae": rows,
    });
    println!("{}", report.to_pretty());
    Ok(())
}

/// Re-exported for integration tests of the CLI internals.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parsing() {
        assert_eq!(parse_strategy("oug").unwrap(), Strategy::Oug);
        assert_eq!(parse_strategy("OHG").unwrap(), Strategy::Ohg);
        assert!(parse_strategy("hio").is_err());
    }

    #[test]
    fn dataset_parsing() {
        assert_eq!(parse_dataset("ipums").unwrap(), DatasetKind::IpumsLike);
        assert!(parse_dataset("census").is_err());
    }

    #[test]
    fn run_command_end_to_end() {
        let args: Vec<String> = [
            "--dataset",
            "uniform",
            "--n",
            "5000",
            "--epsilon",
            "1.0",
            "--queries",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn plan_command_end_to_end() {
        let args: Vec<String> = [
            "--attrs",
            "n:64,c:4,n:32",
            "--n",
            "10000",
            "--epsilon",
            "1.0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        plan(&args).unwrap();
    }

    #[test]
    fn run_rejects_missing_flags() {
        assert!(run(&["--dataset".to_string(), "uniform".to_string()]).is_err());
    }
}

/// Parses the `--columns age:n:16,edu:c:8` specification for `query`.
fn parse_columns(spec: &str) -> Result<Vec<felip_datasets::ColumnSpec>> {
    spec.split(',')
        .map(|part| {
            let bits: Vec<&str> = part.split(':').collect();
            let [name, kind, d] = bits.as_slice() else {
                return Err(Error::InvalidParameter(format!(
                    "column spec `{part}` is not `<name>:n:<bins>` or `<name>:c:<cats>`"
                )));
            };
            let d: u32 = d.parse().map_err(|_| {
                Error::InvalidParameter(format!("bad domain `{d}` in column spec `{part}`"))
            })?;
            match *kind {
                "n" => Ok(felip_datasets::ColumnSpec::Numerical {
                    name: name.to_string(),
                    bins: d,
                    range: None,
                }),
                "c" => Ok(felip_datasets::ColumnSpec::Categorical {
                    name: name.to_string(),
                    max_categories: d,
                }),
                other => Err(Error::InvalidParameter(format!(
                    "column kind `{other}` must be `n` or `c`"
                ))),
            }
        })
        .collect()
}

/// `felip query`: two modes sharing one verb.
///
/// * **Offline** (`--csv`): load a CSV, collect it once under ε-LDP,
///   answer a WHERE query against the encoded domains.
/// * **Online** (no `--csv`): connect to a running `felip serve` (or
///   `felip aggregate`) and answer via the v5 `Query` wire verb —
///   `--point`/`--marginal` predicates, `--watch` re-polling,
///   `--format table|json`.
pub fn query(args: &[String]) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(args).map_err(boxed)?;
    if flags.get("csv").is_none() {
        return crate::serve_cmd::query_online(&flags);
    }
    let path: String = flags.require("csv").map_err(boxed)?;
    let columns =
        parse_columns(&flags.require::<String>("columns").map_err(boxed)?).map_err(boxed)?;
    let epsilon: f64 = flags.require("epsilon").map_err(boxed)?;
    let where_clause: String = flags.require("where").map_err(boxed)?;
    let strategy = parse_strategy(&flags.get_or("strategy", "ohg".to_string()).map_err(boxed)?)
        .map_err(boxed)?;
    let seed: u64 = flags.get_or("seed", 42).map_err(boxed)?;

    let csv_text = std::fs::read_to_string(&path)?;
    let (data, _book) = felip_datasets::load_csv_str(&csv_text, &columns).map_err(boxed)?;
    let q = felip_common::parse::parse_query(data.schema(), &where_clause).map_err(boxed)?;

    let config = FelipConfig::new(epsilon).with_strategy(strategy);
    let est = simulate(&data, &config, seed).map_err(boxed)?;
    let answer = est.answer(&q).map_err(boxed)?;
    let truth = q.true_answer(&data);

    let report = felip_obs::json!({
        "csv": path,
        "n": data.len(),
        "epsilon": epsilon,
        "strategy": strategy.to_string(),
        "where": where_clause,
        "estimate": answer,
        "estimated_count": (answer * data.len() as f64).round() as u64,
        "true_answer": truth,
        "abs_error": (answer - truth).abs(),
    });
    println!("{}", report.to_pretty());
    Ok(())
}

#[cfg(test)]
mod query_tests {
    use super::*;

    #[test]
    fn parse_columns_spec() {
        let cols = parse_columns("age:n:16,edu:c:8").unwrap();
        assert_eq!(cols.len(), 2);
        assert!(matches!(
            cols[0],
            felip_datasets::ColumnSpec::Numerical { bins: 16, .. }
        ));
        assert!(matches!(
            cols[1],
            felip_datasets::ColumnSpec::Categorical {
                max_categories: 8,
                ..
            }
        ));
        assert!(parse_columns("age:n").is_err());
        assert!(parse_columns("age:x:4").is_err());
        assert!(parse_columns("age:n:zero").is_err());
    }

    #[test]
    fn query_command_end_to_end() {
        // Write a small CSV, then run the full pipeline against it.
        let dir = std::env::temp_dir().join(format!("felip-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("people.csv");
        let mut csv = String::from("age,edu\n");
        for i in 0..4000 {
            csv.push_str(&format!(
                "{},{}\n",
                20 + i % 50,
                ["HS", "BSc", "MSc"][i % 3]
            ));
        }
        std::fs::write(&path, csv).unwrap();
        let args: Vec<String> = [
            "--csv",
            path.to_str().unwrap(),
            "--columns",
            "age:n:10,edu:c:4",
            "--epsilon",
            "1.0",
            "--where",
            "age BETWEEN 2 AND 7 AND edu IN (0, 1)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        query(&args).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }
}
