//! Facts about the machine and build a result was measured on.

use std::path::Path;
use std::process::Command;

/// Peak resident set size of this process (`VmHWM`), MiB; `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first line a command prints, or `"unknown"` when it cannot run or
/// fails. The command is waited for.
fn first_line_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of(Command::new("rustc").arg("-V"))
}

/// `git rev-parse HEAD` of the tree the benchmark was built from, or
/// `"unknown"` when that tree is not a repository. Git does not look for a
/// repository above the tree.
pub fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository");
    let mut git = Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    first_line_of(&mut git)
}
