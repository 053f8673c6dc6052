//! `perf_smoke`: throughput measurement for the batched OLH ingestion path.
//!
//! Measures ingest + aggregate throughput (reports folded into support
//! counts and de-biased, in reports/second) at `d ∈ {64, 1024, 16384}`,
//! the domain sizes where OLH's `O(|reports| × d)` support counting goes
//! from trivially cache-resident to several L1 blocks wide. With
//! `--baseline-scalar` the same run also times the per-report scalar path
//! ([`FrequencyOracle::accumulate`] in a loop) and reports the speedup of
//! the cache-blocked batch kernel over it.
//!
//! Results are printed as a small table and written as JSON (default
//! `BENCH_ingest.json` in the working directory — the repo root when run
//! via `cargo run`).

use std::hint::black_box;
use std::time::Instant;

use felip_common::rng::seeded_rng;
use felip_fo::{FrequencyOracle, Olh, Report};
use felip_obs::json;
use felip_obs::json::JsonValue;

/// Domain sizes swept by the smoke bench.
pub const DOMAINS: [u32; 3] = [64, 1024, 16_384];

/// Privacy budget used for the bench oracles (g = 4, the paper's default ε).
pub const EPSILON: f64 = 1.0;

/// Options parsed from the `perf_smoke` command line.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Also time the per-report scalar path and report the speedup.
    pub baseline_scalar: bool,
    /// Measure recorder overhead (enabled vs disabled) at `d = 16384` and
    /// write it as `BENCH_obs.json`.
    pub obs_overhead: bool,
    /// Enable the recorder for the sweep and print the stage-timing table.
    pub metrics: bool,
    /// Output JSON path.
    pub out: String,
    /// Output JSON path for the recorder-overhead measurement.
    pub obs_out: String,
    /// Hash evaluations per measurement (`n = work / d` reports per point).
    pub work: u64,
    /// Timed repetitions per measurement (best of).
    pub repeats: usize,
    /// Run the serve load generator instead of the kernel sweep
    /// (`--serve-loadgen`; see [`crate::serve`]).
    pub serve: Option<crate::serve::ServeLoadOptions>,
    /// Run the deterministic chaos sweep instead of the kernel sweep
    /// (`--chaos`; see [`crate::chaos`]). `--seed N` reproduces one seed.
    pub chaos: Option<crate::chaos::ChaosOptions>,
    /// Run the two-tier cluster load generator instead of the kernel
    /// sweep (`--cluster-loadgen`; see [`crate::cluster`]).
    pub cluster: Option<crate::cluster::ClusterLoadOptions>,
    /// Run the mixed ingest + query load generator instead of the kernel
    /// sweep (`--query-loadgen`; see [`crate::query`]).
    pub query: Option<crate::query::QueryLoadOptions>,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            baseline_scalar: false,
            obs_overhead: false,
            metrics: false,
            out: "BENCH_ingest.json".to_string(),
            obs_out: "BENCH_obs.json".to_string(),
            // 2^24 hash evaluations ≈ tens of ms per scalar pass: large
            // enough for stable timing, small enough for a smoke bench.
            work: 1 << 24,
            repeats: 3,
            serve: None,
            chaos: None,
            cluster: None,
            query: None,
        }
    }
}

impl PerfOptions {
    /// Parses `perf_smoke` flags (`--baseline-scalar`, `--obs-overhead`,
    /// `--metrics`, `--out PATH`, `--obs-out PATH`, `--work N`,
    /// `--repeats N`, the `--serve-*` load-generator family, and the
    /// `--chaos` fault-injection family).
    ///
    /// # Panics
    /// Panics on unknown flags or malformed values, printing usage.
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
            let v = args
                .next()
                .unwrap_or_else(|| panic!("{flag} requires a value"));
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} got a malformed value: {v}"))
        }

        /// A comma-separated sweep list (`8` or `4,8,16`).
        fn parse_list(args: &mut impl Iterator<Item = String>, flag: &str) -> Vec<usize> {
            let v = args
                .next()
                .unwrap_or_else(|| panic!("{flag} requires a value"));
            v.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("{flag} got a malformed value: {v}"))
                })
                .collect()
        }

        let mut opts = PerfOptions::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--baseline-scalar" => opts.baseline_scalar = true,
                "--obs-overhead" => opts.obs_overhead = true,
                "--metrics" => opts.metrics = true,
                "--out" => {
                    opts.out = args.next().expect("--out requires a path");
                }
                "--obs-out" => {
                    opts.obs_out = args.next().expect("--obs-out requires a path");
                }
                "--work" => opts.work = parse(&mut args, "--work"),
                "--repeats" => opts.repeats = parse(&mut args, "--repeats"),
                "--serve-loadgen" => {
                    opts.serve.get_or_insert_with(Default::default);
                }
                "--serve-connections" => {
                    opts.serve.get_or_insert_with(Default::default).connections =
                        parse_list(&mut args, "--serve-connections");
                }
                "--serve-users" | "--serve-reports" => {
                    opts.serve.get_or_insert_with(Default::default).users =
                        parse_list(&mut args, "--serve-users");
                }
                "--serve-batch" => {
                    opts.serve.get_or_insert_with(Default::default).batch =
                        parse(&mut args, "--serve-batch");
                }
                "--serve-workers" => {
                    opts.serve.get_or_insert_with(Default::default).workers =
                        parse_list(&mut args, "--serve-workers");
                }
                "--serve-window" => {
                    opts.serve.get_or_insert_with(Default::default).window =
                        parse(&mut args, "--serve-window");
                }
                "--serve-queue" => {
                    opts.serve
                        .get_or_insert_with(Default::default)
                        .queue_capacity = parse(&mut args, "--serve-queue");
                }
                "--serve-seed" => {
                    opts.serve.get_or_insert_with(Default::default).seed =
                        parse(&mut args, "--serve-seed");
                }
                "--serve-out" => {
                    opts.serve.get_or_insert_with(Default::default).out =
                        args.next().expect("--serve-out requires a path");
                }
                "--chaos" => {
                    opts.chaos.get_or_insert_with(Default::default);
                }
                "--chaos-seeds" => {
                    opts.chaos.get_or_insert_with(Default::default).seeds =
                        parse(&mut args, "--chaos-seeds");
                }
                "--seed" => {
                    opts.chaos.get_or_insert_with(Default::default).seed =
                        Some(parse(&mut args, "--seed"));
                }
                "--chaos-out" => {
                    opts.chaos.get_or_insert_with(Default::default).out =
                        args.next().expect("--chaos-out requires a path");
                }
                "--cluster-loadgen" => {
                    opts.cluster.get_or_insert_with(Default::default);
                }
                "--cluster-nodes" => {
                    opts.cluster.get_or_insert_with(Default::default).nodes =
                        parse(&mut args, "--cluster-nodes");
                }
                "--cluster-users" | "--cluster-reports" => {
                    opts.cluster.get_or_insert_with(Default::default).users =
                        parse(&mut args, "--cluster-users");
                }
                "--cluster-batch" => {
                    opts.cluster.get_or_insert_with(Default::default).batch =
                        parse(&mut args, "--cluster-batch");
                }
                "--cluster-delta-ms" => {
                    opts.cluster
                        .get_or_insert_with(Default::default)
                        .delta_every =
                        std::time::Duration::from_millis(parse(&mut args, "--cluster-delta-ms"));
                }
                "--cluster-seed" => {
                    opts.cluster.get_or_insert_with(Default::default).seed =
                        parse(&mut args, "--cluster-seed");
                }
                "--cluster-out" => {
                    opts.cluster.get_or_insert_with(Default::default).out =
                        args.next().expect("--cluster-out requires a path");
                }
                "--query-loadgen" => {
                    opts.query.get_or_insert_with(Default::default);
                }
                "--query-users" | "--query-reports" => {
                    opts.query.get_or_insert_with(Default::default).users =
                        parse(&mut args, "--query-users");
                }
                "--query-batch" => {
                    opts.query.get_or_insert_with(Default::default).batch =
                        parse(&mut args, "--query-batch");
                }
                "--query-clients" => {
                    opts.query.get_or_insert_with(Default::default).clients =
                        parse(&mut args, "--query-clients");
                }
                "--query-window" => {
                    opts.query.get_or_insert_with(Default::default).window =
                        parse(&mut args, "--query-window");
                }
                "--query-seed" => {
                    opts.query.get_or_insert_with(Default::default).seed =
                        parse(&mut args, "--query-seed");
                }
                "--query-out" => {
                    opts.query.get_or_insert_with(Default::default).out =
                        args.next().expect("--query-out requires a path");
                }
                other => panic!(
                    "unknown flag {other}; usage: perf_smoke [--baseline-scalar] \
                     [--obs-overhead] [--metrics] [--out PATH] [--obs-out PATH] \
                     [--work N] [--repeats N] [--serve-loadgen] \
                     [--serve-connections N[,N..]] [--serve-users N[,N..]] \
                     [--serve-reports N[,N..]] [--serve-batch N] \
                     [--serve-workers N[,N..]] [--serve-window N] \
                     [--serve-queue N] [--serve-seed N] [--serve-out PATH] \
                     [--chaos] [--chaos-seeds N] [--seed N] [--chaos-out PATH] \
                     [--cluster-loadgen] [--cluster-nodes N] [--cluster-users N] \
                     [--cluster-batch N] [--cluster-delta-ms N] \
                     [--cluster-seed N] [--cluster-out PATH] \
                     [--query-loadgen] [--query-users N] [--query-batch N] \
                     [--query-clients N] [--query-window N] \
                     [--query-seed N] [--query-out PATH]"
                ),
            }
        }
        opts
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Domain size.
    pub d: u32,
    /// Reports per measurement.
    pub n: usize,
    /// Batched path: reports ingested + aggregated per second.
    pub batched_reports_per_sec: f64,
    /// Scalar path throughput (only with `--baseline-scalar`).
    pub scalar_reports_per_sec: Option<f64>,
}

impl PerfPoint {
    /// Batched-over-scalar speedup, when the baseline was measured.
    pub fn speedup(&self) -> Option<f64> {
        self.scalar_reports_per_sec
            .map(|s| self.batched_reports_per_sec / s)
    }
}

/// Best-of-`repeats` wall-clock seconds for `f`.
fn best_seconds(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Measures one domain size: perturbs `n = work / d` reports once, then
/// times ingest (support counting) + aggregate (de-biasing) through the
/// batched kernel and, optionally, the per-report scalar path.
pub fn measure_point(d: u32, opts: &PerfOptions) -> PerfPoint {
    let mut point_span = felip_obs::span!("bench.point");
    point_span.field("d", d);
    let olh = Olh::new(EPSILON, d);
    let n = ((opts.work / d as u64).max(64)) as usize;
    point_span.field("reports", n);
    let mut rng = seeded_rng(0xBE2C ^ d as u64);
    let reports: Vec<Report> = {
        let _s = felip_obs::span!("bench.perturb");
        (0..n)
            .map(|i| olh.perturb(i as u32 % d, &mut rng))
            .collect()
    };

    let batched = {
        let _s = felip_obs::span!("bench.batched");
        best_seconds(opts.repeats, || {
            let mut counts = vec![0u64; d as usize];
            olh.accumulate_batch(black_box(&reports), &mut counts)
                .unwrap();
            black_box(olh.estimate_from_counts(&counts, n));
        })
    };

    let scalar = opts.baseline_scalar.then(|| {
        let _s = felip_obs::span!("bench.scalar");
        best_seconds(opts.repeats, || {
            let mut counts = vec![0u64; d as usize];
            for r in black_box(&reports) {
                olh.accumulate(r, &mut counts).unwrap();
            }
            black_box(olh.estimate_from_counts(&counts, n));
        })
    });

    PerfPoint {
        d,
        n,
        batched_reports_per_sec: n as f64 / batched,
        scalar_reports_per_sec: scalar.map(|s| n as f64 / s),
    }
}

/// Recorder-overhead measurement on the `d = 16384` batched ingest path:
/// the same workload timed with the global recorder disabled and enabled.
#[derive(Debug, Clone)]
pub struct ObsOverhead {
    /// Domain size measured (the widest smoke-bench point).
    pub d: u32,
    /// Reports per measurement.
    pub n: usize,
    /// Throughput with the recorder disabled (the default state).
    pub disabled_reports_per_sec: f64,
    /// Throughput with the recorder enabled and counting.
    pub enabled_reports_per_sec: f64,
}

impl ObsOverhead {
    /// Relative slowdown of the enabled recorder, in percent (negative
    /// values are measurement noise: enabled ran faster).
    pub fn overhead_pct(&self) -> f64 {
        (self.disabled_reports_per_sec / self.enabled_reports_per_sec - 1.0) * 100.0
    }
}

/// Times ingest + aggregate at `d = 16384` twice — recorder disabled, then
/// enabled — and restores the recorder to its prior state afterwards.
///
/// The instrumentation inside the timed region is the per-batch dispatch
/// and report counters in [`Olh::accumulate_batch`], i.e. exactly what a
/// production ingest pays per batch, plus one flight-ring event per batch
/// in the enabled run — the serve hot path records one ring event per
/// frame, so the <5% CI gate covers the seqlock writer too.
pub fn measure_obs_overhead(opts: &PerfOptions) -> ObsOverhead {
    let d = *DOMAINS.last().expect("sweep is non-empty");
    let olh = Olh::new(EPSILON, d);
    let n = ((opts.work / d as u64).max(64)) as usize;
    let mut rng = seeded_rng(0xBE2C ^ d as u64);
    let reports: Vec<Report> = (0..n)
        .map(|i| olh.perturb(i as u32 % d, &mut rng))
        .collect();

    let was_enabled = felip_obs::global().is_enabled();
    let timed = |on: bool| {
        felip_obs::global().set_enabled(on);
        best_seconds(opts.repeats, || {
            let mut counts = vec![0u64; d as usize];
            olh.accumulate_batch(black_box(&reports), &mut counts)
                .unwrap();
            if on {
                felip_obs::flight::flight().record(
                    felip_obs::flight::KIND_FRAME,
                    1,
                    0,
                    reports.len() as u64,
                );
            }
            black_box(olh.estimate_from_counts(&counts, n));
        })
    };
    let disabled = timed(false);
    let enabled = timed(true);
    felip_obs::global().set_enabled(was_enabled);

    ObsOverhead {
        d,
        n,
        disabled_reports_per_sec: n as f64 / disabled,
        enabled_reports_per_sec: n as f64 / enabled,
    }
}

/// Renders the overhead measurement as the `BENCH_obs.json` document.
pub fn obs_overhead_to_json(o: &ObsOverhead, opts: &PerfOptions) -> JsonValue {
    json!({
        "bench": "obs_overhead",
        "oracle": "olh",
        "path": "accumulate_batch + estimate_from_counts",
        "epsilon": EPSILON,
        "compiled_out": felip_obs::COMPILED_OUT,
        "work_per_point": opts.work,
        "repeats": opts.repeats,
        "d": o.d,
        "n": o.n,
        "flight_ring_enabled": true,
        "disabled_reports_per_sec": o.disabled_reports_per_sec,
        "enabled_reports_per_sec": o.enabled_reports_per_sec,
        "overhead_pct": o.overhead_pct(),
    })
}

/// Renders the sweep as the `BENCH_ingest.json` document.
pub fn to_json(points: &[PerfPoint], opts: &PerfOptions) -> JsonValue {
    let results: Vec<JsonValue> = points
        .iter()
        .map(|p| {
            let mut obj = json!({
                "d": p.d,
                "n": p.n,
                "batched_reports_per_sec": p.batched_reports_per_sec,
            });
            if let Some(s) = p.scalar_reports_per_sec {
                obj.push("scalar_reports_per_sec", s);
            }
            if let Some(x) = p.speedup() {
                obj.push("batched_speedup", x);
            }
            obj
        })
        .collect();
    json!({
        "bench": "perf_smoke",
        "oracle": "olh",
        "epsilon": EPSILON,
        "work_per_point": opts.work,
        "repeats": opts.repeats,
        "baseline_scalar": opts.baseline_scalar,
        "results": results
    })
}

/// Runs the sweep, prints a table, and writes the JSON report(s).
///
/// With `--serve-loadgen` the kernel sweep is skipped entirely and the
/// TCP load generator runs instead (see [`crate::serve::serve_smoke`]).
pub fn perf_smoke(opts: &PerfOptions) -> std::io::Result<()> {
    if opts.metrics {
        felip_obs::enable();
    }
    if let Some(chaos) = &opts.chaos {
        crate::chaos::chaos_smoke(chaos)?;
        return Ok(());
    }
    if let Some(serve) = &opts.serve {
        crate::serve::serve_smoke(serve)?;
        if opts.metrics {
            println!("{}", felip_obs::global().summary_table());
        }
        return Ok(());
    }
    if let Some(cluster) = &opts.cluster {
        crate::cluster::cluster_smoke(cluster)?;
        if opts.metrics {
            println!("{}", felip_obs::global().summary_table());
        }
        return Ok(());
    }
    if let Some(query) = &opts.query {
        crate::query::query_smoke(query)?;
        if opts.metrics {
            println!("{}", felip_obs::global().summary_table());
        }
        return Ok(());
    }
    println!("perf_smoke: OLH ingest+aggregate throughput (ε = {EPSILON})");
    let mut points = Vec::new();
    for &d in &DOMAINS {
        let p = measure_point(d, opts);
        match p.speedup() {
            Some(x) => println!(
                "d = {:>6}  n = {:>7}  batched {:>12.0} rep/s  scalar {:>12.0} rep/s  speedup {:.2}x",
                p.d,
                p.n,
                p.batched_reports_per_sec,
                p.scalar_reports_per_sec.unwrap(),
                x
            ),
            None => println!(
                "d = {:>6}  n = {:>7}  batched {:>12.0} rep/s",
                p.d, p.n, p.batched_reports_per_sec
            ),
        }
        points.push(p);
    }
    let doc = to_json(&points, opts);
    std::fs::write(&opts.out, doc.to_pretty())?;
    println!("wrote {}", opts.out);
    if opts.obs_overhead {
        let o = measure_obs_overhead(opts);
        println!(
            "obs overhead: d = {}  n = {}  disabled {:>12.0} rep/s  \
             enabled {:>12.0} rep/s  overhead {:+.2}%",
            o.d,
            o.n,
            o.disabled_reports_per_sec,
            o.enabled_reports_per_sec,
            o.overhead_pct()
        );
        let doc = obs_overhead_to_json(&o, opts);
        std::fs::write(&opts.obs_out, doc.to_pretty())?;
        println!("wrote {}", opts.obs_out);
    }
    if opts.metrics {
        println!("{}", felip_obs::global().summary_table());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse() {
        let opts = PerfOptions::from_args(
            [
                "--baseline-scalar",
                "--out",
                "x.json",
                "--work",
                "1024",
                "--repeats",
                "2",
            ]
            .into_iter()
            .map(String::from),
        );
        assert!(opts.baseline_scalar);
        assert_eq!(opts.out, "x.json");
        assert_eq!(opts.work, 1024);
        assert_eq!(opts.repeats, 2);
    }

    #[test]
    fn obs_flags_parse() {
        let opts = PerfOptions::from_args(
            ["--obs-overhead", "--metrics", "--obs-out", "o.json"]
                .into_iter()
                .map(String::from),
        );
        assert!(opts.obs_overhead);
        assert!(opts.metrics);
        assert_eq!(opts.obs_out, "o.json");
    }

    #[test]
    fn serve_flags_parse() {
        let opts = PerfOptions::from_args(
            [
                "--serve-loadgen",
                "--serve-connections",
                "16",
                "--serve-users",
                "50000",
                "--serve-batch",
                "250",
                "--serve-workers",
                "8",
                "--serve-window",
                "32",
                "--serve-queue",
                "32",
                "--serve-out",
                "s.json",
            ]
            .into_iter()
            .map(String::from),
        );
        let serve = opts.serve.expect("--serve-loadgen sets serve options");
        assert_eq!(serve.connections, vec![16]);
        assert_eq!(serve.users, vec![50_000]);
        assert_eq!(serve.batch, 250);
        assert_eq!(serve.workers, vec![8]);
        assert_eq!(serve.window, 32);
        assert_eq!(serve.queue_capacity, 32);
        assert_eq!(serve.out, "s.json");
    }

    #[test]
    fn serve_sweep_lists_parse() {
        let opts = PerfOptions::from_args(
            [
                "--serve-loadgen",
                "--serve-connections",
                "4,8,16",
                "--serve-workers",
                "1, 2",
                "--serve-reports",
                "100000,500000",
            ]
            .into_iter()
            .map(String::from),
        );
        let serve = opts.serve.expect("serve options");
        assert_eq!(serve.connections, vec![4, 8, 16]);
        assert_eq!(serve.workers, vec![1, 2]);
        assert_eq!(serve.users, vec![100_000, 500_000]);
        assert_eq!(serve.cases().len(), 12);
    }

    #[test]
    fn serve_defaults_absent_without_flag() {
        let opts = PerfOptions::from_args(std::iter::empty());
        assert!(opts.serve.is_none());
        assert!(opts.query.is_none());
    }

    #[test]
    fn query_flags_parse() {
        let opts = PerfOptions::from_args(
            [
                "--query-loadgen",
                "--query-users",
                "5000",
                "--query-clients",
                "3",
                "--query-batch",
                "250",
                "--query-out",
                "q.json",
            ]
            .into_iter()
            .map(String::from),
        );
        let query = opts.query.expect("--query-loadgen sets query options");
        assert_eq!(query.users, 5_000);
        assert_eq!(query.clients, 3);
        assert_eq!(query.batch, 250);
        assert_eq!(query.out, "q.json");
    }

    #[test]
    fn obs_overhead_measures_both_states() {
        let opts = PerfOptions {
            work: 1 << 12,
            repeats: 1,
            ..PerfOptions::default()
        };
        let o = measure_obs_overhead(&opts);
        assert!(o.disabled_reports_per_sec > 0.0);
        assert!(o.enabled_reports_per_sec > 0.0);
        assert!(o.overhead_pct().is_finite());
        let doc = obs_overhead_to_json(&o, &opts);
        assert_eq!(doc.get("d").and_then(|v| v.as_u64()), Some(16_384));
        assert!(doc.get("overhead_pct").is_some());
    }

    #[test]
    fn tiny_sweep_produces_sane_json() {
        let opts = PerfOptions {
            baseline_scalar: true,
            work: 1 << 12,
            repeats: 1,
            ..PerfOptions::default()
        };
        let p = measure_point(64, &opts);
        assert!(p.batched_reports_per_sec > 0.0);
        assert!(p.speedup().unwrap() > 0.0);
        let doc = to_json(&[p], &opts);
        let results = doc.get("results").and_then(|r| r.as_array()).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].get("batched_speedup").is_some());
    }
}
