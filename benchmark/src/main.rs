//! Command line of the sgmap benchmark; see `README.md`.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sgmap_benchmark::compare::compare;
use sgmap_benchmark::meta;
use sgmap_benchmark::runner::{RunOptions, RunResult};
use sgmap_benchmark::spec::BenchSpec;
use sgmap_benchmark::workloads::{self, WORKLOADS};
use sgmap_sweep::JsonValue;

const USAGE: &str = "usage:
  sgmap-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR] [--max-jobs K]
  sgmap-benchmark run --seed N [--seconds S] [--out DIR] [--max-jobs K]
  sgmap-benchmark compare A B [--claim METRIC:WORKLOAD]...";

/// `--flag value` pairs plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], known: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(flag) if known.contains(&flag) => {
                    let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    flags.push((flag.to_string(), value.clone()));
                }
                Some(flag) => return Err(format!("unknown option --{flag}")),
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{flag}: not a number: {v:?}"))
            })
            .transpose()
    }

    fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(()),
        }
    }

    fn options(&self, spec: &BenchSpec) -> Result<RunOptions, String> {
        let seconds: f64 = self.number("seconds")?.unwrap_or(spec.run_seconds as f64);
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!("--seconds: {seconds} is not a duration"));
        }
        Ok(RunOptions {
            seed: self.number("seed")?.ok_or("missing --seed")?,
            seconds,
            trace: match self.get("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            max_jobs: self.number("max-jobs")?,
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = BenchSpec::load().and_then(|spec| match args.first().map(String::as_str) {
        Some("run") => run_all(&spec, &args[1..]),
        Some("compare") => compare_sets(&spec, &args[1..]),
        _ => run_one(&spec, &args),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints `workload metric value unit` lines, then the
/// result object as the last line.
fn run_one(spec: &BenchSpec, raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &["workload", "seed", "seconds", "trace", "out", "max-jobs"],
    )?;
    args.no_positional()?;
    let workload = args.get("workload").ok_or("missing --workload")?;
    let options = args.options(spec)?;
    let started = Instant::now();
    let result = workloads::run(workload, &options)?;
    let wall_s = started.elapsed().as_secs_f64();

    let table = if options.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::with_capacity(table.len());
    for m in table {
        let value = result.metric(&m.name).ok_or_else(|| {
            format!(
                "{workload} produced no {}; failures: {}",
                m.name,
                result.failures.join("; ")
            )
        })?;
        println!("{workload} {} {value} {}", m.name, m.unit);
        metrics.push((
            m.name.as_str(),
            JsonValue::object(vec![
                ("value", JsonValue::Float(value)),
                ("unit", JsonValue::str(m.unit.as_str())),
            ]),
        ));
    }
    for failure in &result.failures {
        eprintln!("failed: {failure}");
    }
    let summary = vec![
        ("correct", JsonValue::Bool(result.failed == 0)),
        ("attempted", JsonValue::Uint(result.attempted)),
        ("failed", JsonValue::Uint(result.failed)),
        ("metrics", JsonValue::object(metrics)),
    ];
    if let Some(dir) = args.get("out") {
        write_result(
            Path::new(dir),
            workload,
            &options,
            &result,
            wall_s,
            &summary,
        )?;
    }
    println!("{}", JsonValue::object(summary).render());
    Ok(ExitCode::SUCCESS)
}

/// Writes `DIR/<workload>.json` (untraced) or `DIR/<workload>.trace.json`
/// plus `DIR/<workload>.spans.jsonl` (traced).
fn write_result(
    dir: &Path,
    workload: &str,
    options: &RunOptions,
    result: &RunResult,
    wall_s: f64,
    summary: &[(&str, JsonValue)],
) -> Result<(), String> {
    let write = |name: String, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut fields = vec![
        ("workload", JsonValue::str(workload)),
        ("trace", JsonValue::Bool(options.trace)),
        (
            "meta",
            JsonValue::object(vec![
                ("seed", JsonValue::Uint(options.seed)),
                ("seconds", JsonValue::Float(options.seconds)),
                ("threads", JsonValue::Uint(result.threads as u64)),
                ("nproc", JsonValue::Uint(meta::nproc() as u64)),
                ("rustc", JsonValue::str(meta::rustc_version())),
                ("commit", JsonValue::str(meta::git_commit())),
                ("wall_s", JsonValue::Float(wall_s)),
            ]),
        ),
    ];
    fields.extend(summary.iter().cloned());
    fields.push((
        "failures",
        JsonValue::Array(result.failures.iter().map(JsonValue::str).collect()),
    ));
    let (file, spans) = match &result.tracer {
        Some(tracer) => (format!("{workload}.trace.json"), Some(tracer.to_jsonl())),
        None => {
            let sampled = result.jobs.iter().filter(|j| j.ms().is_some()).count();
            fields.push(("sampled_jobs", JsonValue::Uint(sampled as u64)));
            fields.push((
                "jobs",
                JsonValue::Array(
                    result
                        .jobs
                        .iter()
                        .map(|j| {
                            JsonValue::object(vec![
                                ("label", JsonValue::str(j.label.as_str())),
                                ("ms", j.ms().map_or(JsonValue::Null, JsonValue::Float)),
                                (
                                    "samples_ms",
                                    JsonValue::Array(
                                        j.samples_ms.iter().map(|&v| JsonValue::Float(v)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
            (format!("{workload}.json"), None)
        }
    };
    write(file, JsonValue::object(fields).render() + "\n")?;
    if let Some(spans) = spans {
        write(format!("{workload}.spans.jsonl"), spans)?;
    }
    Ok(())
}

/// Runs every workload untraced, then every workload traced, each in its
/// own child process so peak memory is per workload.
fn run_all(spec: &BenchSpec, raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["seed", "seconds", "out", "max-jobs"])?;
    args.no_positional()?;
    let options = args.options(spec)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut all_ok = true;
    for trace in ["0", "1"] {
        for workload in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()]);
            for flag in ["out", "max-jobs"] {
                if let Some(value) = args.get(flag) {
                    cmd.arg(format!("--{flag}")).arg(value);
                }
            }
            let output = cmd
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().and_then(|l| JsonValue::parse(l).ok());
            for line in lines {
                println!("{line}");
            }
            let correct = matches!(
                last.as_ref().and_then(|v| v.get("correct")),
                Some(JsonValue::Bool(true))
            );
            if !(output.status.success() && correct) {
                all_ok = false;
                let stderr = String::from_utf8_lossy(&output.stderr);
                let tail: Vec<&str> = stderr.lines().rev().take(20).collect();
                eprintln!("{workload} (trace {trace}) failed ({}):", output.status);
                for line in tail.iter().rev() {
                    eprintln!("  {line}");
                }
            }
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Compares two result sets; exits non-zero when a metric is worse or
/// unresolved, or a claim is not met.
fn compare_sets(spec: &BenchSpec, raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["claim"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result directories".to_string());
    };
    let claims = args
        .all("claim")
        .map(|c| {
            c.split_once(':')
                .map(|(m, w)| (m.to_string(), w.to_string()))
                .ok_or_else(|| format!("--claim takes METRIC:WORKLOAD, not {c:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (report, ok) = compare(spec, Path::new(a), Path::new(b), &claims)?;
    print!("{report}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
