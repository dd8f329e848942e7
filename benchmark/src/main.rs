//! The repo's benchmark: five workloads over execute → analyze.
//!
//! ```text
//! cex-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cex-benchmark selfcheck [--seed N] [--seconds S]
//! ```
//!
//! `run --workload NAME` measures one workload in this process and ends
//! with one JSON result line. `run` without a workload re-executes itself
//! once per workload — one child process each, so peak RSS is per workload
//! — and prints a summary. See `README.md` for every name printed.

mod analysis;
mod fleet;
mod gen;
mod metrics;
mod spans;
mod stats;
mod workloads;

use cex_core::json::{obj, Json};
use metrics::{Better, Def, END_TO_END, FAILED_SHARE, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Kind, Outcome, RunArgs, Workload, WORKLOADS};

/// The result line's stand-in for "this workload has no such metric" or
/// "the program did not report it": the driver wants a number under every
/// per-layer name, and no measured value here is negative.
const NOT_REPORTED: f64 = -1.0;

#[derive(Debug, Clone, PartialEq)]
struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().ok_or("expected `run` or `selfcheck`")?,
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
    };
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// `benchmark/out` from the repo root, `out` from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn value_of(outcome: &Outcome, name: &str) -> Option<Option<f64>> {
    outcome.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

fn print_table(workload: &Workload, cli: &Cli, outcome: &Outcome) {
    println!("== {} (seed {}) ==", workload.name, cli.seed);
    println!("why: {}", workload.why);
    println!("work unit: {}", outcome.work_unit);
    outcome.notes.iter().for_each(|note| println!("note: {note}"));
    println!("\nend-to-end");
    for def in &END_TO_END {
        let Some(value) = value_of(outcome, def.name) else { continue };
        let shown = value.map_or("null".to_string(), fmt_value);
        let spread =
            outcome.timings.iter().find(|t| t.name == def.name).map_or(String::new(), |t| {
                let [min, q1, med, q3] = t.spread().map(fmt_value);
                format!("  min {min}  q1 {q1}  median {med}  q3 {q3}  (n = {})", t.samples.len())
            });
        println!("  {:<14} {:>14} {:<6}{spread}", def.name, shown, def.unit);
    }
    let failed = outcome.checks.failures.len();
    println!(
        "  {:<14} {:>14} {:<6}  ({failed} of {} output checks failed)",
        FAILED_SHARE.name,
        fmt_value(failed as f64 / outcome.checks.attempted.max(1) as f64),
        FAILED_SHARE.unit,
        outcome.checks.attempted
    );
    println!(
        "\nper-layer{}",
        if cli.trace == Some(false) { " (untraced run: traced rows absent)" } else { "" }
    );
    for def in &PER_LAYER {
        let Some(value) = value_of(outcome, def.name) else { continue };
        let shown = value.map_or("null".to_string(), fmt_value);
        println!("  {:<42} {:>16} {:<6} -> {}", def.name, shown, def.unit, def.note);
    }
    println!("\ndigest: {:016x}", outcome.digest);
    for failure in &outcome.checks.failures {
        println!("FAILED CHECK: {failure}");
    }
}

/// Every metric of `defs` as `{"value", "unit"}`; one the run has no
/// finite value for reads [`NOT_REPORTED`].
fn metric_json(defs: &[Def], outcome: &Outcome) -> Json {
    let members = defs
        .iter()
        .map(|def| {
            let value = match value_of(outcome, def.name) {
                Some(Some(v)) if v.is_finite() => v,
                _ => NOT_REPORTED,
            };
            let unit = Json::Str(def.unit.into());
            (def.name, obj(vec![("value", Json::Num(value)), ("unit", unit)]))
        })
        .collect();
    obj(members)
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome, trace: bool) -> Json {
    let metrics = metric_json(if trace { &PER_LAYER } else { &END_TO_END }, outcome);
    obj(vec![
        ("correct", Json::Bool(outcome.checks.failures.is_empty())),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failures.len() as f64)),
        ("metrics", metrics),
    ])
}

/// Everything a run measured, for `out/<workload>.result.json`: metrics
/// the workload does not have are left out, unreported ones are `null`.
fn result_file(workload: &Workload, cli: &Cli, outcome: &Outcome) -> Json {
    let all = |defs: &[Def]| {
        let members = defs
            .iter()
            .filter_map(|def| {
                let value = value_of(outcome, def.name)?;
                Some((def.name, value.filter(|v| v.is_finite()).map_or(Json::Null, Json::Num)))
            })
            .collect();
        obj(members)
    };
    let wall_samples = outcome
        .timings
        .iter()
        .filter(|t| t.name == "wall_s")
        .flat_map(|t| t.samples.iter().map(|s| Json::Num(*s)))
        .collect();
    obj(vec![
        ("workload", Json::Str(workload.name.into())),
        ("seed", Json::Num(cli.seed as f64)),
        ("work_unit", Json::Str(outcome.work_unit.into())),
        ("digest", Json::Str(format!("{:016x}", outcome.digest))),
        ("notes", Json::Arr(outcome.notes.iter().cloned().map(Json::Str).collect())),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failures.len() as f64)),
        ("wall_s_samples", Json::Arr(wall_samples)),
        ("end_to_end", all(&END_TO_END)),
        ("per_layer", all(&PER_LAYER)),
    ])
}

fn run_one(workload: &Workload, cli: &Cli) -> Result<bool, String> {
    let trace = cli.trace.unwrap_or(true);
    let args = RunArgs { seed: cli.seed, seconds: cli.seconds, trace, smoke: cli.smoke };
    let outcome = match if cli.smoke { workload.smoke } else { workload.full } {
        Kind::Fleet(spec) => fleet::run(&spec, &args),
        Kind::Analysis(spec) => analysis::run(&spec, &args),
    };
    let correct = outcome.checks.failures.is_empty();
    if cli.smoke {
        // Exact fields only, so two smoke runs are byte-identical.
        let mut members = vec![
            ("workload", Json::Str(workload.name.into())),
            ("seed", Json::Num(cli.seed as f64)),
            ("attempted", Json::Num(outcome.checks.attempted as f64)),
            ("failed", Json::Num(outcome.checks.failures.len() as f64)),
        ];
        members.extend(outcome.exact.iter().cloned());
        println!("{}", obj(members));
        outcome.checks.failures.iter().for_each(|f| eprintln!("FAILED CHECK: {f}"));
        return Ok(correct);
    }
    print_table(workload, cli, &outcome);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let trace_path = dir.join(format!("{}.trace.json", workload.name));
    let write = |path: &PathBuf, doc: Json| {
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(&trace_path, outcome.spans.to_json(workload.name, cli.seed))?;
    write(
        &dir.join(format!("{}.result.json", workload.name)),
        result_file(workload, cli, &outcome),
    )?;
    println!("trace: {}", trace_path.display());
    println!("{}", result_line(&outcome, trace));
    Ok(correct)
}

/// Re-executes this binary for one workload; returns its stdout.
fn child(workload: &str, cli: &Cli, trace: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &cli.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Ok((output.status.success(), stdout))
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for workload in &WORKLOADS {
        let (passed, stdout) = child(workload.name, cli, cli.trace.unwrap_or(true))?;
        ok &= passed;
        if cli.smoke {
            print!("{stdout}");
        } else {
            // The table is for people; the result line that ends a
            // child's output is for the driver.
            let table = stdout.trim_end().rsplit_once('\n').map_or("", |(table, _)| table);
            println!("{table}\n");
        }
    }
    if cli.smoke {
        return Ok(ok);
    }
    println!("== summary (seed {}) ==", cli.seed);
    print!("{:<16}", "");
    for def in END_TO_END.iter().chain([&FAILED_SHARE]) {
        print!(" {:>14}", format!("{} [{}]", def.name, def.unit));
    }
    println!();
    for workload in &WORKLOADS {
        let path = out_dir().join(format!("{}.result.json", workload.name));
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))
            .and_then(|s| Json::parse(&s).map_err(|e| format!("{}: {e}", path.display())))?;
        print!("{:<16}", workload.name);
        for def in &END_TO_END {
            let v = doc.get("end_to_end").and_then(|m| m.get(def.name)).and_then(Json::as_f64);
            print!(" {:>14}", v.map_or("null".to_string(), fmt_value));
        }
        let count = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(" {:>14}", fmt_value(count("failed") / count("attempted")));
    }
    Ok(ok)
}

/// How much worse `later` is than `earlier`, as a share of `earlier`;
/// zero or negative when it is no worse, or within the metric's floor.
fn worsening(def: &Def, earlier: f64, later: f64) -> f64 {
    let worse_by = match def.better {
        Better::Lower => later - earlier,
        Better::Higher => earlier - later,
    };
    if worse_by <= def.floor {
        0.0
    } else {
        worse_by / earlier.abs()
    }
}

/// Two full sets of runs of this binary; every end-to-end metric on every
/// workload is held to its own bound. A run with a failed output check
/// ends the selfcheck at once, so `failed_share` needs no row.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let measure = |set: usize| -> Result<Vec<Json>, String> {
        WORKLOADS
            .iter()
            .map(|w| {
                eprintln!("selfcheck: set {set}, {}", w.name);
                let (passed, stdout) = child(w.name, cli, false)?;
                let line = stdout.lines().last().ok_or(format!("{}: no output", w.name))?;
                if !passed {
                    return Err(format!("{}: run failed: {line}", w.name));
                }
                Json::parse(line).map_err(|e| format!("{}: {e}", w.name))
            })
            .collect()
    };
    let (first, second) = (measure(1)?, measure(2)?);
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        for def in &END_TO_END {
            let read = |doc: &Json| {
                doc.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{}: {} missing", workload.name, def.name))
            };
            let (a, b) = (read(&first[i])?, read(&second[i])?);
            let worse = worsening(def, a, b);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let breach = worse > bound;
            ok &= !breach;
            println!(
                "{:<16} {:<12} {:>12} {:>12} {:>8.1}% {:>6.0}%{}",
                workload.name,
                def.name,
                fmt_value(a),
                fmt_value(b),
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    println!(
        "{}",
        if ok { "selfcheck: every metric within its bound" } else { "selfcheck: BREACH" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match (cli.command.as_str(), &cli.workload) {
        ("run", Some(name)) => {
            let workload = workloads::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; one of {}", names.join(", "))
            })?;
            run_one(workload, &cli)
        }
        ("run", None) => run_all(&cli),
        ("selfcheck", _) => selfcheck(&cli),
        (other, _) => Err(format!("unknown command {other}; expected `run` or `selfcheck`")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cex-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Checks, Timing};

    fn outcome(metrics: Vec<(&'static str, Option<f64>)>) -> Outcome {
        Outcome {
            metrics,
            timings: vec![Timing { name: "wall_s", samples: vec![1.0, 1.1, 1.2, 1.3] }],
            checks: Checks { attempted: 9, failures: vec![] },
            digest: 0xfeed,
            exact: vec![],
            work_unit: "things",
            notes: vec![],
            spans: spans::Spans::new(),
        }
    }

    #[test]
    fn the_result_line_parses_back_with_every_name_as_a_number() {
        let all: Vec<(&'static str, Option<f64>)> = vec![
            ("setup_s", Some(0.8127)),
            ("wall_s", Some(3.25)),
            ("work_per_s", Some(36_912.5)),
            ("tick_p50_ms", Some(0.211)),
            ("peak_rss_mb", Some(141.0)),
            ("bifrost.engine.ticks", Some(30.0)),
            ("bifrost.engine.apply_s", None),
        ];
        let e2e = Json::parse(&result_line(&outcome(all.clone()), false).to_string()).unwrap();
        assert_eq!(e2e.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(e2e.get("attempted").and_then(Json::as_u64), Some(9));
        assert_eq!(e2e.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = e2e.get("metrics").expect("metrics");
        for def in &END_TO_END {
            let m = metrics.get(def.name).expect(def.name);
            assert!(m.get("value").and_then(Json::as_f64).is_some());
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
        }
        assert_eq!(
            metrics.get("work_per_s").and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(36_912.5)
        );

        let layers = Json::parse(&result_line(&outcome(all), true).to_string()).unwrap();
        let metrics = layers.get("metrics").expect("metrics");
        let value = |n: &str| metrics.get(n).and_then(|m| m.get("value")).and_then(Json::as_f64);
        assert_eq!(value("bifrost.engine.ticks"), Some(30.0));
        assert_eq!(value("bifrost.engine.apply_s"), Some(NOT_REPORTED), "unreported");
        assert_eq!(value("topology.rank.rank_ms"), Some(NOT_REPORTED), "not on this workload");
        assert!(metrics.get("wall_s").is_none(), "the traced line carries layer metrics only");
        for def in &PER_LAYER {
            assert!(value(def.name).is_some(), "{}", def.name);
        }
    }

    #[test]
    fn the_result_file_keeps_null_apart_from_absent() {
        let cli = parse_cli(&["run".to_string()]).unwrap();
        let out = outcome(vec![("wall_s", Some(1.0)), ("bifrost.engine.apply_s", None)]);
        let doc = Json::parse(&result_file(&WORKLOADS[0], &cli, &out).to_string()).unwrap();
        let layers = doc.get("per_layer").expect("per_layer");
        assert!(layers.get("bifrost.engine.apply_s").expect("listed").is_null());
        assert!(layers.get("topology.rank.rank_ms").is_none());
        assert_eq!(doc.get("digest").and_then(Json::as_str), Some("000000000000feed"));
    }

    #[test]
    fn cli_flags_parse_as_the_driver_writes_them() {
        let args: Vec<String> = "run --workload fleet-chaos --seed 7 --seconds 10 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("fleet-chaos"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace, cli.smoke),
            (7, Some(10.0), Some(false), false)
        );
        assert!(parse_cli(&["run".into(), "--trace".into(), "2".into()]).is_err());
        assert!(parse_cli(&["run".into(), "--seconds".into(), "0".into()]).is_err());
        assert!(parse_cli(&["run".into(), "--seed".into()]).is_err());
        assert!(parse_cli(&[]).is_err());
    }

    #[test]
    fn worsening_respects_direction_and_floor() {
        let wall = &END_TO_END[1];
        assert_eq!(worsening(wall, 2.0, 1.9), 0.0, "faster is not worse");
        assert!((worsening(wall, 2.0, 2.3) - 0.15).abs() < 1e-12);
        let work = &END_TO_END[2];
        assert!((worsening(work, 1000.0, 900.0) - 0.1).abs() < 1e-12, "higher is better");
        let tick = &END_TO_END[3];
        assert_eq!(worsening(tick, 0.2, 0.29), 0.0, "under the 0.1 ms floor");
        assert!(worsening(tick, 0.2, 0.31) > 0.5);
    }
}
