//! `perf`: the benchmark's command line.
//!
//! `perf --workload NAME --seed N --seconds S --trace 0|1` runs one workload
//! in this process and prints its metrics, ending with the one-line result
//! object. Without `--workload` it runs every workload, each in a fresh child
//! process so that `peak_rss_mb` is per workload; `--selfcheck` does that
//! twice and compares the two suites against the bounds of `BENCHMARK.json`.

use painter_obs::json::{self, JsonValue};
use painter_perf::harness::{write_metrics_json, Report, RunOptions, END_TO_END};
use painter_perf::{run_workload, Size, WORKLOADS};
use std::process::{Command, ExitCode};

/// Seed used when none is given. Seed 7 is held out: sizes and bounds were
/// never tuned on it, so that a later claim can be re-checked there.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--out" => args.out = Some(value("a file")?),
            "--selfcheck" => args.selfcheck = true,
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Output of `cmd args`, trimmed; `unknown` if it cannot be run.
fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One workload's part of a record.
struct Row {
    name: String,
    digest: String,
    rounds: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Row {
    fn of(report: &Report) -> Row {
        Row {
            name: report.workload.to_string(),
            digest: format!("{:016x}", report.digest),
            rounds: report.attempted,
            failed: report.failed,
            metrics: report
                .end_to_end
                .iter()
                .chain(&report.per_layer)
                .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
                .collect(),
        }
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1)
    }

    fn text(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{} {name} {value} {unit}\n", self.name));
        }
        out.push_str(&format!("{} rounds {} count\n", self.name, self.rounds));
        out.push_str(&format!("{} failed_rounds {} count\n", self.name, self.failed));
        out.push_str(&format!("{} digest {} fnv1a\n", self.name, self.digest));
        out
    }
}

/// The record of a run: where and on what it ran, and what it measured.
fn record_json(args: &Args, rows: &[Row]) -> String {
    let mut out = String::from("{\"host\":{\"available_parallelism\":");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::write_f64(&mut out, cores as f64);
    out.push_str(",\"commit\":");
    json::write_str(&mut out, &tool_line("git", &["rev-parse", "HEAD"]));
    out.push_str(",\"rustc\":");
    json::write_str(&mut out, &tool_line("rustc", &["--version"]));
    out.push_str("},\"seed\":");
    json::write_f64(&mut out, args.seed as f64);
    out.push_str(",\"seconds\":");
    json::write_f64(&mut out, args.seconds);
    out.push_str(",\"traced\":");
    out.push_str(if args.trace { "true" } else { "false" });
    out.push_str(",\"workloads\":[");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i > 0 { ",\n{\"name\":" } else { "\n{\"name\":" });
        json::write_str(&mut out, &row.name);
        out.push_str(&format!(",\"rounds\":{},\"failed_rounds\":{}", row.rounds, row.failed));
        out.push_str(",\"digest\":");
        json::write_str(&mut out, &row.digest);
        out.push_str(",\"metrics\":");
        write_metrics_json(
            &mut out,
            row.metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())),
        );
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// The workload rows of a record written by [`record_json`].
fn parse_record(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text)?;
    let rows =
        doc.get("workloads").and_then(JsonValue::as_array).ok_or("record has no workloads")?;
    rows.iter()
        .map(|w| {
            let text = |key: &str| w.get(key).and_then(JsonValue::as_str).unwrap_or("").to_string();
            let num = |key: &str| w.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
            let Some(JsonValue::Object(metrics)) = w.get("metrics") else {
                return Err("record row has no metrics".to_string());
            };
            Ok(Row {
                name: text("name"),
                digest: text("digest"),
                rounds: num("rounds"),
                failed: num("failed_rounds"),
                metrics: metrics
                    .iter()
                    .map(|(k, v)| {
                        let value = v.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                        let unit = v.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                        (k.clone(), value, unit.to_string())
                    })
                    .collect(),
            })
        })
        .collect()
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// Runs one workload here. Prints the metric lines and, last, the result
/// object; writes the record and the Chrome trace beside it when asked.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let opts = RunOptions { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let report = run_workload(name, Size::Full, &opts)
        .ok_or_else(|| format!("unknown workload {name}; one of {}", WORKLOADS.join(", ")))?;
    let row = Row::of(&report);
    print!("{}", row.text());
    report.failures.iter().for_each(|f| println!("{name} FAILED {f}"));
    println!("{}", report.result_json());
    if let Some(out) = &args.out {
        write_file(out, &record_json(args, &[row]))?;
        if let Some(trace) = &report.chrome_trace {
            write_file(&format!("{}.trace.json", out.trim_end_matches(".json")), trace)?;
        }
    }
    Ok(report.correct())
}

/// Runs every workload, each in its own process, one after the other, and
/// returns their rows. Each child leaves its record in a scratch file beside
/// `--out` (or in the working directory), removed once read; `--out` gets the
/// merged record and keeps the children's Chrome traces beside it.
fn run_suite(args: &Args) -> Result<Vec<Row>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let stem = match &args.out {
        Some(out) => out.trim_end_matches(".json").to_string(),
        None => format!("perf-scratch-{}", std::process::id()),
    };
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let record = format!("{stem}.{name}.json");
        let output = Command::new(&exe)
            .args(["--workload", name, "--out", &record])
            .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        let text = std::fs::read_to_string(&record);
        let _ = std::fs::remove_file(&record);
        if args.out.is_none() {
            let _ = std::fs::remove_file(format!("{stem}.{name}.trace.json"));
        }
        let text = text.map_err(|e| {
            format!("{name} left no record ({e}): {}", String::from_utf8_lossy(&output.stderr))
        })?;
        let mut row = parse_record(&text)?.pop().ok_or(format!("{name}: empty record"))?;
        if !output.status.success() {
            row.failed = row.failed.max(1);
        }
        rows.push(row);
    }
    if let Some(out) = &args.out {
        write_file(out, &record_json(args, &rows))?;
    }
    Ok(rows)
}

/// Runs the suite twice at one seed and compares: timings and memory within
/// their bounds, digests, quality and round failures exactly.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = run_suite(args)?;
    let second = run_suite(args)?;
    let mut ok = true;
    println!("workload metric first second rel_diff bound verdict");
    for (a, b) in first.iter().zip(&second) {
        let exact = a.digest == b.digest && a.failed == 0 && b.failed == 0;
        ok &= exact;
        println!(
            "{} digest {} {} - - {}",
            a.name,
            a.digest,
            b.digest,
            if exact { "ok" } else { "MISMATCH" }
        );
        for &(name, _, _, bound) in &END_TO_END {
            let (x, y) = (a.metric(name), b.metric(name));
            let rel = (y - x).abs() / x.abs();
            // Quality is a function of the seed alone: any difference is a bug.
            let pass = if name == "quality" { x.to_bits() == y.to_bits() } else { rel <= bound };
            ok &= pass;
            let verdict = if pass { "ok" } else { "OUT-OF-BOUND" };
            println!("{} {name} {x} {y} {rel:.4} {bound} {verdict}", a.name);
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // The scoring pool is pinned to one thread: the reference host has two
    // shared cores, and the workloads also pass `threads: Some(1)`.
    std::env::set_var("PAINTER_THREADS", "1");
    let outcome = parse_args().and_then(|args| match (&args.workload, args.selfcheck) {
        (Some(name), _) => run_one(&args, name),
        (None, true) => selfcheck(&args),
        (None, false) => run_suite(&args).map(|rows| {
            rows.iter().for_each(|row| print!("{}", row.text()));
            rows.iter().all(|row| row.failed == 0)
        }),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
