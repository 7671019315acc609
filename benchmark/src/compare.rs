//! `compare A B`: judges the result set of a change (`B`) against its
//! parent's (`A`) by the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::{Path, PathBuf};

use sgmap_sweep::JsonValue;

use crate::spec::{BenchSpec, Better};
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::WORKLOADS;

/// One untraced result file.
#[derive(Debug, Clone)]
pub struct RunFile {
    /// Where it was read from.
    pub path: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: u64,
    /// Commit the run measured.
    pub commit: String,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

fn parse_run(path: &Path) -> Result<RunFile, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |v: &JsonValue, key: &str| {
        v.get(key)
            .cloned()
            .ok_or_else(|| format!("{}: missing `{key}`", path.display()))
    };
    let meta = field(&doc, "meta")?;
    let number = |key: &str| {
        field(&meta, key)?
            .as_u64()
            .ok_or_else(|| format!("{}: `meta.{key}` is not a count", path.display()))
    };
    let text = |v: &JsonValue, key: &str| {
        field(v, key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{}: `{key}` is not a string", path.display()))
    };
    let mut metrics = BTreeMap::new();
    for (name, value) in field(&doc, "metrics")?.as_object().unwrap_or_default() {
        if let Some(v) = value.get("value").and_then(JsonValue::as_f64) {
            metrics.insert(name.clone(), v);
        }
    }
    Ok(RunFile {
        path: path.to_path_buf(),
        workload: text(&doc, "workload")?,
        seed: number("seed")?,
        threads: number("threads")?,
        commit: text(&meta, "commit")?,
        metrics,
    })
}

/// Every untraced result file (`<workload>.json`) under `dir`, at any
/// depth, sorted by path so the k-th runs of two sets pair up.
///
/// # Errors
///
/// Returns an error if the directory or a result file cannot be read.
pub fn load_result_set(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("{}: {e}", d.display()))?.path();
            let is_result = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".json"))
                .is_some_and(|stem| WORKLOADS.contains(&stem));
            if path.is_dir() {
                pending.push(path);
            } else if is_result {
                files.push(path);
            }
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    files.iter().map(|p| parse_run(p)).collect()
}

/// Refuses sets that do not measure the same thing: each set must come from
/// one commit, and both must share the seed and each workload's threads.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn check_metadata(a: &[RunFile], b: &[RunFile]) -> Result<(), String> {
    for (name, set) in [("A", a), ("B", b)] {
        let first = set.first().ok_or_else(|| format!("set {name} is empty"))?;
        if let Some(other) = set.iter().find(|r| r.commit != first.commit) {
            return Err(format!(
                "set {name} mixes commits {} ({}) and {} ({})",
                first.commit,
                first.path.display(),
                other.commit,
                other.path.display()
            ));
        }
    }
    let reference = &a[0];
    for run in a.iter().chain(b) {
        if run.seed != reference.seed {
            return Err(format!(
                "seed {} in {} differs from seed {} in {}",
                run.seed,
                run.path.display(),
                reference.seed,
                reference.path.display()
            ));
        }
        if let Some(other) = a
            .iter()
            .chain(b)
            .find(|o| o.workload == run.workload && o.threads != run.threads)
        {
            return Err(format!(
                "{} ran on {} threads in {} but {} in {}",
                run.workload,
                run.threads,
                run.path.display(),
                other.threads,
                other.path.display()
            ));
        }
    }
    Ok(())
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so no conclusion.
    Unresolved,
}

/// A judged metric: both sides' quartiles and how far the change moved the
/// median, as a share of the parent's (positive = worse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// Parent quartiles.
    pub a: [f64; 3],
    /// Change quartiles.
    pub b: [f64; 3],
    /// Relative worsening of the median (negative = improvement).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn better_than(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// Judges the change's runs `b` against the parent's runs `a`. A spread
/// wider than the bound leaves the metric unresolved unless every run of the
/// change is better than every run of the parent. `None` if a side has no
/// runs.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<Judgement> {
    let qa = quartiles(a)?;
    let qb = quartiles(b)?;
    let (ma, mb) = (qa[1], qb[1]);
    let worse_by = match (better, ma == 0.0) {
        (_, true) if mb == ma => 0.0,
        (_, true) => f64::INFINITY,
        (Better::Lower, false) => (mb - ma) / ma.abs(),
        (Better::Higher, false) => (ma - mb) / ma.abs(),
    };
    let spread = relative_spread(a)?.max(relative_spread(b)?);
    let all_better = b
        .iter()
        .all(|&y| a.iter().all(|&x| better_than(better, y, x)));
    let verdict = if all_better {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some(Judgement {
        a: qa,
        b: qb,
        worse_by,
        verdict,
    })
}

/// The evidence for a claimed gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Runs paired in order (the k-th of each side).
    pub pairs: usize,
    /// Pairs the change won; ties count for neither side.
    pub wins: usize,
    /// How far the change's median is better than the parent's.
    pub gain: f64,
    /// The parent's interquartile range.
    pub parent_iqr: f64,
    /// At least ten pairs, at least nine tenths won, and a gain larger than
    /// the parent's interquartile range.
    pub met: bool,
}

/// Applies the claim rule to the parent's runs `a` and the change's `b`.
/// `None` if a side has no runs.
pub fn claim(a: &[f64], b: &[f64], better: Better) -> Option<Claim> {
    let qa = quartiles(a)?;
    let mb = median(b)?;
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|&(&x, &y)| better_than(better, y, x))
        .count();
    let gain = match better {
        Better::Lower => qa[1] - mb,
        Better::Higher => mb - qa[1],
    };
    let parent_iqr = qa[2] - qa[0];
    Some(Claim {
        pairs,
        wins,
        gain,
        parent_iqr,
        met: pairs >= 10 && wins * 10 >= pairs * 9 && gain > parent_iqr,
    })
}

fn values(set: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn fmt_quartiles(q: [f64; 3]) -> String {
    format!("{:.6}/{:.6}/{:.6}", q[0], q[1], q[2])
}

/// Compares two result sets metric by metric, one row per workload, then
/// evaluates each `(metric, workload)` claim. Returns the report and whether
/// every metric passed and every claim was met.
///
/// # Errors
///
/// Returns an error when the sets cannot be read or do not match.
pub fn compare(
    spec: &BenchSpec,
    a_dir: &Path,
    b_dir: &Path,
    claims: &[(String, String)],
) -> Result<(String, bool), String> {
    let a = load_result_set(a_dir)?;
    let b = load_result_set(b_dir)?;
    check_metadata(&a, &b)?;
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "A: {} ({} runs, commit {})\nB: {} ({} runs, commit {})\nseed {}",
        a_dir.display(),
        a.len(),
        a[0].commit,
        b_dir.display(),
        b.len(),
        b[0].commit,
        a[0].seed
    );
    let _ = writeln!(
        out,
        "{:<28} {:<17} {:>38} {:>38} {:>9}  verdict",
        "metric", "workload", "A q1/median/q3", "B q1/median/q3", "change"
    );
    for metric in &spec.end_to_end {
        let bound = metric.bound.unwrap_or(0.0);
        for workload in WORKLOADS {
            let (va, vb) = (
                values(&a, workload, &metric.name),
                values(&b, workload, &metric.name),
            );
            let Some(j) = judge(&va, &vb, metric.better, bound) else {
                continue;
            };
            ok &= j.verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{:<28} {:<17} {:>38} {:>38} {:>+8.2}%  {}",
                metric.name,
                workload,
                fmt_quartiles(j.a),
                fmt_quartiles(j.b),
                j.worse_by * 100.0,
                match j.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
    }
    for (metric, workload) in claims {
        let spec_metric = spec
            .end_to_end_metric(metric)
            .ok_or_else(|| format!("claim names unknown metric {metric:?}"))?;
        let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
        let c = claim(&va, &vb, spec_metric.better)
            .ok_or_else(|| format!("no runs of {workload} report {metric}"))?;
        ok &= c.met;
        let _ = writeln!(
            out,
            "claim {metric} on {workload}: won {}/{} pairs, gain {:.6} vs parent IQR {:.6}: {}",
            c.wins,
            c.pairs,
            c.gain,
            c.parent_iqr,
            if c.met { "met" } else { "NOT MET" }
        );
    }
    Ok((out, ok))
}
