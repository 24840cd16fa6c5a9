//! `cisp_benchmark` — one paper-scale benchmark for the design → simulate →
//! what-if chain. See `README.md` beside this package for the workloads,
//! the metrics and how they interact.
//!
//! One invocation runs one workload in its own process, so `peak_rss_mb`
//! is per workload. End-to-end metrics come from an untraced run
//! (`--trace 0`), per-layer metrics from a separate traced run
//! (`--trace 1`) of the same workload.

mod checks;
mod host;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use checks::{inspect, OpOutput};
use host::CpuClock;
use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use stats::{median, summarize, Summary};
use trace::Tracer;
use workloads::{op, probes, setup, traced_op, Prepared, Scale, Workload};

const USAGE: &str = "\
usage: cisp_benchmark (--workload NAME | --all) [options]
  --workload NAME   pool_build_us | design_us_flat | packet_sim_us | storm_year_us
  --all             every workload, each in its own process
  --seed N          seed of the stochastic inputs: packet arrivals, page
                    corpus, elevation sample points (default 42); terrain,
                    towers, fiber and the storm year are fixed, see README
  --seconds S       measuring window; ops repeat until it is filled, at
                    least 3 of them (default 12)
  --trace 0|1       1 = traced run: per-layer metrics (default 0)
  --out DIR         also write DIR/<workload>.json (and .traced.json, .trace.json)
  --smoke           miniature inputs, one op: exercises the code path only
  --sets N          run the chosen workloads N times and compare set 1 and 2";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured ops per untraced run.
const MIN_OPS: usize = 3;
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    /// `None` = every workload (`--all`).
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    sets: usize,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut all = false;
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        sets: 1,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::from_name(&name);
                parsed.workload = Some(workload.ok_or(format!("unknown workload {name}"))?);
            }
            "--all" => all = true,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be a finite number ≥ 0".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            "--sets" => {
                parsed.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if parsed.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if all == parsed.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    if parsed.sets > 1 && parsed.trace {
        return Err("--sets compares end-to-end metrics; run it untraced".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let passed = match args.workload {
        Some(workload) if args.sets == 1 => run_workload(workload, &args),
        _ => run_suite(&args),
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric of a finished run, as printed and written.
struct Reading {
    name: &'static str,
    unit: &'static str,
    /// In the order they were taken; the reported value is their median.
    samples: Vec<f64>,
}

impl Reading {
    fn summary(&self) -> Summary {
        summarize(&self.samples)
    }
}

/// Everything one run reports.
struct RunReport {
    attempted: usize,
    /// `(op, failed check)`, op counted from 1.
    failures: Vec<(usize, &'static str)>,
    metrics: Vec<Reading>,
    results: Vec<(&'static str, f64, &'static str)>,
    tracer: Option<Tracer>,
}

/// Run one workload in this process; `false` when an op failed a check.
fn run_workload(workload: Workload, args: &Args) -> bool {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::paper()
    };
    let clock = CpuClock::new();
    let mode = if args.trace { "traced" } else { "untraced" };
    println!("# {} seed {} {mode}", workload.name(), args.seed);
    let report = if args.trace {
        run_traced(workload, args, &scale, &clock)
    } else {
        run_untraced(workload, args, &scale, &clock)
    };

    for m in &report.metrics {
        let Summary {
            median,
            min,
            max,
            n,
        } = m.summary();
        println!("{} {median} {} (min {min} max {max} n {n})", m.name, m.unit);
    }
    if !report.results.is_empty() {
        println!("# results of the first op");
        for (name, value, unit) in &report.results {
            println!("{name} {value} {unit}");
        }
    }
    for (op, check) in &report.failures {
        println!("FAILED op {op}: {check}");
    }
    let failed_ops = report
        .failures
        .iter()
        .map(|(op, _)| op)
        .collect::<BTreeSet<_>>()
        .len();
    println!(
        "fail_share {} ratio ({failed_ops} of {} ops)",
        failed_ops as f64 / report.attempted as f64,
        report.attempted
    );

    if let Some(dir) = &args.out {
        if let Err(e) = write_results(dir, workload, args, &clock, &report, failed_ops) {
            eprintln!("cannot write results to {}: {e}", dir.display());
            return false;
        }
    }

    let metrics = report.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.summary().median)),
                ("unit", Json::str(m.unit)),
            ]),
        )
    });
    let last_line = Json::obj([
        ("correct", Json::Bool(failed_ops == 0)),
        ("attempted", Json::Int(report.attempted as u64)),
        ("failed", Json::Int(failed_ops as u64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", last_line.render());
    failed_ops == 0
}

/// Record an op's failed checks, including a digest that differs from the
/// reference op's.
fn account(
    op_index: usize,
    output: &OpOutput,
    reference_digest: u64,
    digest_check: &'static str,
    failures: &mut Vec<(usize, &'static str)>,
) {
    failures.extend(output.failed.iter().map(|&check| (op_index, check)));
    if output.digest != reference_digest {
        failures.push((op_index, digest_check));
    }
}

fn run_untraced(workload: Workload, args: &Args, scale: &Scale, clock: &CpuClock) -> RunReport {
    let (setups, min_ops, seconds) = if scale.smoke {
        (1, 1, 0.0)
    } else {
        (SETUPS, MIN_OPS, args.seconds)
    };
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..setups {
        // Free the previous set-up first, so the peak holds one, not two.
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(setup(workload, scale, args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up ran");
    host::reset_peak_rss();

    let (mut wall_s, mut cpu_s, mut inflation_pct) = (vec![], vec![], vec![]);
    let mut failures = Vec::new();
    let mut first: Option<OpOutput> = None;
    let window = Instant::now();
    while wall_s.len() < min_ops || window.elapsed().as_secs_f64() < seconds {
        let cpu_before = clock.now_s();
        let start = Instant::now();
        let product = op(&prepared, scale, args.seed);
        wall_s.push(start.elapsed().as_secs_f64());
        cpu_s.push(clock.now_s() - cpu_before);

        let output = inspect(&product, &prepared, scale);
        drop(product);
        inflation_pct.push(output.inflation_pct);
        let reference = first.as_ref().map_or(output.digest, |f| f.digest);
        account(
            wall_s.len(),
            &output,
            reference,
            "repeats_first_op",
            &mut failures,
        );
        first.get_or_insert(output);
    }

    let rss = host::peak_rss_mb();
    let values: [(&str, Vec<f64>); 5] = [
        ("wall_s", wall_s),
        ("setup_s", setup_s),
        ("cpu_s", cpu_s),
        ("peak_rss_mb", vec![rss]),
        ("latency_inflation_pct", inflation_pct),
    ];
    let attempted = values[0].1.len();
    let metrics = END_TO_END
        .iter()
        .zip(&values)
        .map(|(declared, (name, samples))| {
            assert_eq!(declared.name, *name);
            Reading {
                name: declared.name,
                unit: declared.unit,
                samples: samples.clone(),
            }
        })
        .collect();
    RunReport {
        attempted,
        failures,
        metrics,
        results: first.map(|f| f.results).unwrap_or_default(),
        tracer: None,
    }
}

fn run_traced(workload: Workload, args: &Args, scale: &Scale, clock: &CpuClock) -> RunReport {
    let prepared = setup(workload, scale, args.seed);
    let mut tracer = Tracer::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut composed_wall_s, mut traced_wall_s) = (vec![], vec![]);
    let mut failures = Vec::new();
    let mut results = Vec::new();
    let seconds = if scale.smoke { 0.0 } else { args.seconds };
    let window = Instant::now();
    // Pairs of (composed op, decomposed op): the composed one is the
    // untraced reference for the overhead and for the result.
    while traced_wall_s.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let product = op(&prepared, scale, args.seed);
        composed_wall_s.push(start.elapsed().as_secs_f64());
        let composed = inspect(&product, &prepared, scale);
        drop(product);

        let traced = traced_op(&prepared, scale, args.seed, &mut tracer, clock);
        traced_wall_s.push(traced.wall_s);
        let output = inspect(&traced.product, &prepared, scale);
        account(
            traced_wall_s.len(),
            &output,
            composed.digest,
            "decomposed_equals_composed",
            &mut failures,
        );
        for (name, value) in traced.values {
            samples.entry(name).or_default().push(value);
        }
        results = output.results;
    }
    for (name, value) in probes(&prepared, scale, args.seed, &mut tracer) {
        samples.entry(name).or_default().push(value);
    }
    let reference = median(&composed_wall_s);
    let overhead = (median(&traced_wall_s) - reference) / reference;
    samples.insert("bench.trace_overhead_share", vec![overhead]);
    samples.insert("bench.spans", vec![tracer.spans().len() as f64]);

    // A layer the op does not enter spent no time and did no work.
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples = samples.remove(name).unwrap_or_else(|| vec![0.0]);
            Reading {
                name,
                unit,
                samples,
            }
        })
        .collect();
    RunReport {
        attempted: traced_wall_s.len(),
        failures,
        metrics,
        results,
        tracer: Some(tracer),
    }
}

fn write_results(
    dir: &Path,
    workload: Workload,
    args: &Args,
    clock: &CpuClock,
    report: &RunReport,
    failed_ops: usize,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let provenance = host::provenance(args.seed, clock);
    let metrics = report.metrics.iter().map(|m| {
        let summary = m.summary();
        (
            m.name,
            Json::obj([
                ("value", Json::Num(summary.median)),
                ("unit", Json::str(m.unit)),
                ("min", Json::Num(summary.min)),
                ("max", Json::Num(summary.max)),
                ("n", Json::Int(summary.n as u64)),
                (
                    "samples",
                    Json::Arr(m.samples.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
        )
    });
    let results = report.results.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    let failures = report
        .failures
        .iter()
        .map(|&(op, check)| Json::obj([("op", Json::Int(op as u64)), ("check", Json::str(check))]));
    let summary = Json::obj([
        ("workload", Json::str(workload.name())),
        ("traced", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("seconds", Json::Num(args.seconds)),
        ("provenance", provenance.clone()),
        ("attempted", Json::Int(report.attempted as u64)),
        ("failed", Json::Int(failed_ops as u64)),
        ("failed_checks", Json::Arr(failures.collect())),
        ("metrics", Json::obj(metrics)),
        ("results", Json::obj(results)),
    ]);
    let suffix = if args.trace { "traced.json" } else { "json" };
    let path = dir.join(format!("{}.{suffix}", workload.name()));
    fs::write(path, summary.render() + "\n")?;
    if let Some(tracer) = &report.tracer {
        let trace = Json::obj([
            ("workload", Json::str(workload.name())),
            ("provenance", provenance),
            ("trace", tracer.to_json()),
        ]);
        let path = dir.join(format!("{}.trace.json", workload.name()));
        fs::write(path, trace.render() + "\n")?;
    }
    Ok(())
}

/// The end-to-end readings a child run printed, by metric name.
fn parse_readings(stdout: &str) -> BTreeMap<&'static str, f64> {
    let mut readings = BTreeMap::new();
    for line in stdout.lines() {
        let mut tokens = line.split_whitespace();
        let (Some(name), Some(value)) = (tokens.next(), tokens.next()) else {
            continue;
        };
        let declared = END_TO_END.iter().find(|m| m.name == name);
        if let (Some(declared), Ok(value)) = (declared, value.parse()) {
            readings.insert(declared.name, value);
        }
    }
    readings
}

/// By how much of `first` the reading `second` is worse (negative: better).
fn worse_by(better: &str, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if better == "lower" {
        change
    } else {
        -change
    }
}

/// `--all` and `--sets`: run each chosen workload in a child process of
/// its own, then compare the first two sets against the declared bounds.
fn run_suite(args: &Args) -> bool {
    let workloads: Vec<Workload> = match args.workload {
        Some(workload) => vec![workload],
        None => Workload::ALL.to_vec(),
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return false;
        }
    };
    let mut passed = true;
    let mut sets: Vec<BTreeMap<&'static str, BTreeMap<&'static str, f64>>> = Vec::new();
    for set in 1..=args.sets {
        let mut readings = BTreeMap::new();
        for &workload in &workloads {
            if args.sets > 1 {
                println!("# set {set}");
            }
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            if let Some(dir) = &args.out {
                child.arg("--out").arg(dir);
            }
            // `output` waits for the child to end.
            match child.stderr(Stdio::inherit()).output() {
                Ok(output) => {
                    let stdout = String::from_utf8_lossy(&output.stdout);
                    print!("{stdout}");
                    passed &= output.status.success();
                    readings.insert(workload.name(), parse_readings(&stdout));
                }
                Err(e) => {
                    eprintln!("cannot run {}: {e}", workload.name());
                    passed = false;
                }
            }
        }
        sets.push(readings);
    }
    if let [first, second, ..] = sets.as_slice() {
        println!("# run-to-run agreement, set 1 vs set 2: |worse_by| > bound fails, exact metrics must be equal");
        println!("# workload metric set1 set2 worse_by bound");
        for &workload in &workloads {
            for m in &END_TO_END {
                let reading = |set: &BTreeMap<_, BTreeMap<_, f64>>| {
                    set.get(workload.name())
                        .and_then(|r| r.get(m.name))
                        .copied()
                };
                let (Some(a), Some(b)) = (reading(first), reading(second)) else {
                    println!("{} {} missing", workload.name(), m.name);
                    passed = false;
                    continue;
                };
                let worse = worse_by(m.better, a, b);
                // Two sets of the same code: a large difference in either
                // direction is disagreement.
                let agrees = if m.exact {
                    a == b
                } else {
                    worse.abs() <= m.bound
                };
                let verdict = if agrees { "ok" } else { "DISAGREES" };
                println!(
                    "{} {} {a} {b} {worse:+.4} {} {verdict}",
                    workload.name(),
                    m.name,
                    m.bound
                );
                passed &= agrees;
            }
        }
    }
    passed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_invocation() {
        let args = parse(&[
            "--workload",
            "storm_year_us",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::StormYearUs));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, true));
        assert!(!args.smoke && args.out.is_none() && args.sets == 1);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--all", "--workload", "pool_build_us"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--all", "--trace", "2"]).is_err());
        assert!(parse(&["--all", "--seed"]).is_err());
        assert!(parse(&["--all", "--sets", "2", "--trace", "1"]).is_err());
        assert!(parse(&["--all", "--seconds", "-1"]).is_err());
        assert!(parse(&["--all", "--bogus"]).is_err());
    }

    #[test]
    fn reads_back_the_lines_a_run_prints() {
        let stdout = "# pool_build_us seed 42 untraced\n\
                      wall_s 7.25 s (min 7.1 max 9 n 3)\n\
                      latency_inflation_pct 3.71 % (min 3.71 max 3.71 n 3)\n\
                      candidates 6840 count\n\
                      fail_share 0 ratio (0 of 3 ops)\n\
                      {\"correct\": true}\n";
        let readings = parse_readings(stdout);
        assert_eq!(readings.len(), 2);
        assert_eq!(readings["wall_s"], 7.25);
        assert_eq!(readings["latency_inflation_pct"], 3.71);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(worse_by("lower", 10.0, 11.0), 0.1);
        assert_eq!(worse_by("higher", 10.0, 11.0), -0.1);
        assert_eq!(worse_by("higher", 10.0, 9.0), 0.1);
    }

    /// The whole path at miniature scale: every workload, both modes, every
    /// declared metric reported, no check failing.
    #[test]
    fn smoke_runs_report_every_declared_metric() {
        let clock = CpuClock::new();
        let scale = Scale::smoke();
        for workload in Workload::ALL {
            let args = Args {
                workload: Some(workload),
                seed: 42,
                seconds: 0.0,
                trace: false,
                out: None,
                smoke: true,
                sets: 1,
            };
            let untraced = run_untraced(workload, &args, &scale, &clock);
            assert_eq!(untraced.failures, [], "{}", workload.name());
            let names: Vec<_> = untraced.metrics.iter().map(|m| m.name).collect();
            let declared: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, declared);
            for m in &untraced.metrics {
                // A miniature op can end within one 10 ms CPU-clock tick.
                let positive = m.summary().median > 0.0 || m.name == "cpu_s";
                assert!(positive, "{} {}", workload.name(), m.name);
            }

            let traced = run_traced(workload, &args, &scale, &clock);
            assert_eq!(traced.failures, [], "{}", workload.name());
            let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
            let declared: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, declared);
            assert!(traced.tracer.is_some());
        }
    }
}
