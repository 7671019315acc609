//! Integration tests of the persistent estimate cache: a save → load →
//! reuse cycle must reproduce the sweep's records byte-for-byte and answer
//! every shared-cache query without a single miss, and a file of another
//! format version is rejected by name (a cold start, or a hard error under
//! `--strict-cache`).

use sgmap_apps::App;
use sgmap_pee::EstimateCache;
use sgmap_sweep::{
    cache_from_json, cache_to_json, load_cache_file, run_sweep, run_sweep_with_cache,
    save_cache_file, AppSweep, GpuModel, JsonValue, StackConfig, SweepSpec, CACHE_FORMAT_VERSION,
};

fn tiny_spec() -> SweepSpec {
    SweepSpec::new(
        "persistence",
        vec![
            AppSweep::explicit(App::FmRadio, vec![4]),
            AppSweep::explicit(App::Des, vec![4]),
        ],
        vec![GpuModel::M2090],
        vec![1, 2],
        vec![StackConfig::ours()],
    )
}

/// The deterministic record section of a report (the cache counters are
/// *expected* to differ between a cold and a warm run).
fn points_json(report: &sgmap_sweep::SweepReport) -> String {
    let body = JsonValue::parse(&report.canonical_json()).unwrap();
    body.get("points").unwrap().render()
}

#[test]
fn save_load_reuse_reproduces_the_report_with_zero_misses() {
    let dir = std::env::temp_dir().join(format!("sgmap-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("estimates.json");

    // Cold run: populate and save.
    let cold_cache = EstimateCache::shared();
    let cold = run_sweep_with_cache(&tiny_spec(), 2, cold_cache.clone()).unwrap();
    assert!(cold.cache.misses > 0, "cold run must compute something");
    let saved = save_cache_file(&path, &cold_cache).unwrap();
    assert_eq!(saved, cold.cache.entries);

    // Warm run: load and reuse.
    let warm_cache = EstimateCache::shared();
    let loaded = load_cache_file(&path, &warm_cache).unwrap();
    assert_eq!(loaded, saved);
    let warm = run_sweep_with_cache(&tiny_spec(), 1, warm_cache.clone()).unwrap();

    // Byte-identical records, zero misses, everything answered by the cache.
    assert_eq!(points_json(&cold), points_json(&warm));
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(warm.cache.hits, cold.cache.hits + cold.cache.misses);

    // A second save must serialise to the identical bytes (nothing new was
    // computed, and entry order is canonical).
    assert_eq!(cache_to_json(&cold_cache), cache_to_json(&warm_cache));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spec_cache_file_plumbing_warm_starts_run_sweep() {
    let dir = std::env::temp_dir().join(format!("sgmap-cache-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("estimates.json");
    let spec = tiny_spec().with_cache_file(path.to_string_lossy());

    let cold = run_sweep(&spec, 1).unwrap();
    assert!(cold.cache.misses > 0);
    assert!(path.exists(), "run_sweep saves the cache file");

    let warm = run_sweep(&spec, 1).unwrap();
    assert_eq!(warm.cache.misses, 0, "second run is fully warm");
    assert_eq!(points_json(&cold), points_json(&warm));

    // The file still round-trips standalone.
    let reloaded = EstimateCache::shared();
    let n = cache_from_json(&std::fs::read_to_string(&path).unwrap(), &reloaded).unwrap();
    assert_eq!(n, cold.cache.entries);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_cache_file_degrades_to_a_cold_start_by_default() {
    let dir = std::env::temp_dir().join(format!("sgmap-cache-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("estimates.json");
    std::fs::write(
        &path,
        "{\"version\":42,\"kind\":\"sgmap-estimate-cache\",\"entries\":[]}",
    )
    .unwrap();
    let spec = tiny_spec().with_cache_file(path.to_string_lossy());

    // Default: the damaged cache is ignored (warn + cold start) and the
    // sweep's records match a cache-less run byte-for-byte.
    let degraded = run_sweep(&spec, 1).unwrap();
    assert!(degraded.cache.misses > 0, "cold start must compute");
    let baseline = run_sweep(&tiny_spec(), 1).unwrap();
    assert_eq!(points_json(&degraded), points_json(&baseline));

    // The completed sweep overwrites the damaged file with a valid one.
    let reloaded = EstimateCache::shared();
    cache_from_json(&std::fs::read_to_string(&path).unwrap(), &reloaded).unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strict_cache_makes_a_corrupt_cache_file_a_hard_error() {
    let dir = std::env::temp_dir().join(format!("sgmap-cache-strict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("estimates.json");
    std::fs::write(
        &path,
        "{\"version\":42,\"kind\":\"sgmap-estimate-cache\",\"entries\":[]}",
    )
    .unwrap();
    let spec = tiny_spec()
        .with_cache_file(path.to_string_lossy())
        .with_strict_cache(true);
    let err = run_sweep(&spec, 1).unwrap_err();
    assert!(
        err.to_string().contains("unsupported cache format version"),
        "{err}"
    );
    // Strict mode fails before running anything, leaving the file untouched.
    assert!(std::fs::read_to_string(&path).unwrap().contains("42"));
    std::fs::remove_dir_all(&dir).ok();
}

/// One entry of a format-1 cache file, as the previous format wrote it:
/// the model key carried the saturation flag and every entry its own copy
/// of the parameter search space.
const FORMAT_1_FILE: &str = r#"{"version":1,"kind":"sgmap-estimate-cache","estimator_version":1,"entries":[{"key":{"filters":[[4580978397583532461,1],[4591094175208087728,1],[4585925428558828667,2],[4581865260279383881,1]],"io_bytes_per_exec":24,"sm_bytes_per_exec":40,"max_firing_rate":2,"model":[4590207312512236308,4560234124838382822,32,true],"device":[49152,1024],"space":{"s":[1,2,4,8,16,32],"f":[16,32,64,128,256],"max_w":64}},"estimate":{"w":64,"s":2,"f":256,"t_comp_bits":4599768800951884437,"t_dt_bits":4601985957691512990,"t_db_bits":4569241324093123813,"t_exec_bits":4602041386610003704,"normalized_bits":4575019788845780728,"sm_bytes":2584,"io_bytes_per_exec":24}}]}"#;

#[test]
fn a_format_1_cache_file_is_rejected_by_its_version() {
    let cache = EstimateCache::shared();
    let err = cache_from_json(FORMAT_1_FILE, &cache).unwrap_err();
    assert_eq!(
        err,
        format!("unsupported cache format version Some(1) (expected {CACHE_FORMAT_VERSION})")
    );
    assert_eq!(CACHE_FORMAT_VERSION, 2);
    assert!(cache.is_empty());

    // A file this binary writes carries neither the search space nor the
    // saturation flag.
    let cold_cache = EstimateCache::shared();
    run_sweep_with_cache(&tiny_spec(), 1, cold_cache.clone()).unwrap();
    let json = cache_to_json(&cold_cache);
    assert!(json.starts_with("{\"version\":2,"), "{}", &json[..40]);
    assert!(!json.contains("\"space\""));
    assert!(!json.contains("true") && !json.contains("false"));
}

/// Runs the `sweep` binary in `dir` and returns its exit status, stderr
/// and the warning codes of its metrics file.
fn sweep_cli(dir: &std::path::Path, args: &[&str]) -> (bool, String, Vec<String>) {
    let metrics = dir.join("metrics.json");
    std::fs::remove_file(&metrics).ok();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .current_dir(dir)
        .args(args)
        .args(["--metrics", "metrics.json"])
        .output()
        .unwrap();
    let codes = std::fs::read_to_string(&metrics)
        .map(|text| {
            let doc = JsonValue::parse(&text).unwrap();
            doc.array("warnings")
                .unwrap()
                .iter()
                .map(|w| w.get("code").unwrap().as_str().unwrap().to_string())
                .collect()
        })
        .unwrap_or_default();
    (
        out.status.success(),
        String::from_utf8(out.stderr).unwrap(),
        codes,
    )
}

#[test]
fn the_sweep_cli_cold_starts_on_a_format_1_cache_file_unless_strict() {
    let dir = std::env::temp_dir().join(format!("sgmap-cache-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("spec.json"),
        r#"{"name": "v1", "apps": [{"app": "DES", "n_values": [4]}], "platforms": ["paper"],
            "stacks": [{"label": "ours", "partitioner": "proposed", "mapper": "ilp",
                        "transfer": "p2p"}]}"#,
    )
    .unwrap();
    std::fs::write(dir.join("estimates.json"), FORMAT_1_FILE).unwrap();
    let run = |extra: &[&str], out: &str| {
        let mut args = vec![
            "--spec",
            "spec.json",
            "--threads",
            "1",
            "--canonical",
            "--cache-file",
            "estimates.json",
            "--out",
            out,
        ];
        args.extend_from_slice(extra);
        sweep_cli(&dir, &args)
    };

    // Strict: a hard error naming the version, the file left as it was.
    let (ok, stderr, _) = run(&["--strict-cache"], "strict.json");
    assert!(!ok, "--strict-cache must fail on a format-1 file");
    assert!(
        stderr.contains("unsupported cache format version Some(1)"),
        "{stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("estimates.json")).unwrap(),
        FORMAT_1_FILE
    );

    // Default: a `cache.load_failed` warning and a cold start, which
    // overwrites the file with a format-2 one.
    let (ok, stderr, codes) = run(&[], "cold.json");
    assert!(ok, "{stderr}");
    assert_eq!(codes, ["cache.load_failed"]);
    assert!(stderr.contains("unsupported cache format version Some(1)"));
    let cold = JsonValue::parse(&std::fs::read_to_string(dir.join("cold.json")).unwrap()).unwrap();
    assert!(cold.get("cache").unwrap().u64("misses").unwrap() > 0);
    let saved = std::fs::read_to_string(dir.join("estimates.json")).unwrap();
    assert!(saved.starts_with("{\"version\":2,"));

    // Save → load → save is bit-exact, and the warm run computes nothing.
    let (ok, stderr, codes) = run(&[], "warm.json");
    assert!(ok && codes.is_empty(), "{stderr} {codes:?}");
    let warm = JsonValue::parse(&std::fs::read_to_string(dir.join("warm.json")).unwrap()).unwrap();
    assert_eq!(warm.get("cache").unwrap().u64("misses").unwrap(), 0);
    assert_eq!(
        warm.get("points").unwrap().render(),
        cold.get("points").unwrap().render()
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("estimates.json")).unwrap(),
        saved
    );
    std::fs::remove_dir_all(&dir).ok();
}
