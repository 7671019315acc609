//! Persistence of the shared estimate cache.
//!
//! A sweep's dominant compile cost is answering estimation queries, and the
//! answers depend only on partition characteristics and platform parameters
//! — nothing run-specific — so they are safe to reuse across processes. This
//! module serialises an [`EstimateCache`] to a versioned JSON file (via the
//! same deterministic pure-Rust [`Value`] writer the sweep reports use) and
//! loads it back, so a second run of the same sweep warm-starts with zero
//! shared-cache misses.
//!
//! All `f64` inputs and outputs are stored as their IEEE-754 bit patterns
//! (`u64`), so a save → load round trip reproduces every estimate
//! bit-for-bit; keys already are bit patterns by construction. Entries are
//! sorted by their serialised key, so equal caches serialise to equal bytes.
//! Files carry a format version and are rejected — not silently ignored —
//! when the version or shape does not match.
//!
//! Format 2 keys an entry by the partition characteristics, the model
//! constants `[c1 bits, c2 bits, warp size]` and the device limits. Format 1
//! also wrote the parameter search space and the model's saturation switch
//! into every entry; both have one value in every estimator, so format 2
//! drops them and a format-1 file is rejected by its version.

use std::path::Path;
use std::sync::Arc;

use sgmap_gpusim::KernelParams;
use sgmap_pee::{Estimate, EstimateCache, EstimateKey, ESTIMATOR_ALGORITHM_VERSION};
use sgmap_trace::json::Value;

/// Format version of the cache file; bump on any schema change. The file
/// additionally records [`ESTIMATOR_ALGORITHM_VERSION`], so estimates
/// persisted by a binary with different estimation *logic* (same schema,
/// same keys, different answers) are rejected rather than silently replayed.
pub const CACHE_FORMAT_VERSION: u64 = 2;

/// The `kind` marker distinguishing cache files from other JSON artefacts.
const CACHE_KIND: &str = "sgmap-estimate-cache";

fn key_to_value(key: &EstimateKey) -> Value {
    Value::object(vec![
        (
            "filters",
            Value::Array(
                key.filters
                    .iter()
                    .map(|&(t, f)| Value::Array(vec![Value::Uint(t), Value::Uint(f)]))
                    .collect(),
            ),
        ),
        ("io_bytes_per_exec", Value::Uint(key.io_bytes_per_exec)),
        ("sm_bytes_per_exec", Value::Uint(key.sm_bytes_per_exec)),
        ("max_firing_rate", Value::Uint(key.max_firing_rate)),
        (
            "model",
            Value::Array(vec![
                Value::Uint(key.model.0),
                Value::Uint(key.model.1),
                Value::Uint(u64::from(key.model.2)),
            ]),
        ),
        (
            "device",
            Value::Array(vec![
                Value::Uint(u64::from(key.device.0)),
                Value::Uint(u64::from(key.device.1)),
            ]),
        ),
    ])
}

fn estimate_to_value(estimate: &Option<Estimate>) -> Value {
    match estimate {
        None => Value::Null,
        Some(e) => Value::object(vec![
            ("w", Value::Uint(u64::from(e.params.w))),
            ("s", Value::Uint(u64::from(e.params.s))),
            ("f", Value::Uint(u64::from(e.params.f))),
            ("t_comp_bits", Value::Uint(e.t_comp_us.to_bits())),
            ("t_dt_bits", Value::Uint(e.t_dt_us.to_bits())),
            ("t_db_bits", Value::Uint(e.t_db_us.to_bits())),
            ("t_exec_bits", Value::Uint(e.t_exec_us.to_bits())),
            ("normalized_bits", Value::Uint(e.normalized_us.to_bits())),
            ("sm_bytes", Value::Uint(e.sm_bytes)),
            ("io_bytes_per_exec", Value::Uint(e.io_bytes_per_exec)),
        ]),
    }
}

/// Renders the cache's completed entries as deterministic, versioned JSON.
pub fn cache_to_json(cache: &EstimateCache) -> String {
    entries_to_json(cache.entries())
}

fn entries_to_json(entries: Vec<(EstimateKey, Option<Estimate>)>) -> String {
    let mut entries: Vec<(String, Value)> = entries
        .into_iter()
        .map(|(key, estimate)| {
            let key_value = key_to_value(&key);
            let sort_key = key_value.render();
            (
                sort_key,
                Value::object(vec![
                    ("key", key_value),
                    ("estimate", estimate_to_value(&estimate)),
                ]),
            )
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Value::object(vec![
        ("version", Value::Uint(CACHE_FORMAT_VERSION)),
        ("kind", Value::str(CACHE_KIND)),
        (
            "estimator_version",
            Value::Uint(u64::from(ESTIMATOR_ALGORITHM_VERSION)),
        ),
        (
            "entries",
            Value::Array(entries.into_iter().map(|(_, v)| v).collect()),
        ),
    ])
    .render()
}

fn key_from_value(value: &Value) -> Result<EstimateKey, String> {
    let u32_of = |v: &Value| {
        v.as_u64()
            .and_then(|u| u32::try_from(u).ok())
            .ok_or_else(|| "non-u32 integer".to_string())
    };
    let filters = value
        .array("filters")?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([t, f]) => Ok((
                t.as_u64().ok_or("non-integer t bits")?,
                f.as_u64().ok_or("non-integer firing rate")?,
            )),
            _ => Err("filter entry is not a pair".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let model = match value.array("model")? {
        [c1, c2, warp] => (
            c1.as_u64().ok_or("non-integer c1 bits")?,
            c2.as_u64().ok_or("non-integer c2 bits")?,
            u32_of(warp)?,
        ),
        _ => return Err("model is not a triple".to_string()),
    };
    let device = match value.array("device")? {
        [sm, threads] => (u32_of(sm)?, u32_of(threads)?),
        _ => return Err("device is not a pair".to_string()),
    };
    Ok(EstimateKey {
        filters,
        io_bytes_per_exec: value.u64("io_bytes_per_exec")?,
        sm_bytes_per_exec: value.u64("sm_bytes_per_exec")?,
        max_firing_rate: value.u64("max_firing_rate")?,
        model,
        device,
    })
}

fn estimate_from_value(value: &Value) -> Result<Option<Estimate>, String> {
    if value.is_null() {
        return Ok(None);
    }
    // Times are stored as bit patterns, so any u64 decodes; only finite,
    // non-negative times are estimates this binary could have written.
    let time = |field: &str| -> Result<f64, String> {
        let t = f64::from_bits(value.u64(field)?);
        if t.is_finite() && t >= 0.0 {
            Ok(t)
        } else {
            Err(format!(
                "field '{field}' decodes to {t}, not a finite non-negative time"
            ))
        }
    };
    Ok(Some(Estimate {
        params: KernelParams {
            w: value.u32("w")?,
            s: value.u32("s")?,
            f: value.u32("f")?,
        },
        t_comp_us: time("t_comp_bits")?,
        t_dt_us: time("t_dt_bits")?,
        t_db_us: time("t_db_bits")?,
        t_exec_us: time("t_exec_bits")?,
        normalized_us: time("normalized_bits")?,
        sm_bytes: value.u64("sm_bytes")?,
        io_bytes_per_exec: value.u64("io_bytes_per_exec")?,
    }))
}

/// Parses a serialised cache and preloads every entry into `cache`.
/// Returns the number of entries loaded.
///
/// # Errors
///
/// Returns a description of the problem if the text is not valid JSON, is
/// not a cache file, carries an unsupported format version, or holds an
/// entry that is malformed or whose times decode to a non-finite or negative
/// value (the error names the entry index and the field).
pub fn cache_from_json(src: &str, cache: &EstimateCache) -> Result<u64, String> {
    let value = Value::parse(src)?;
    match value.get("kind").and_then(Value::as_str) {
        Some(CACHE_KIND) => {}
        other => return Err(format!("not an estimate-cache file (kind: {other:?})")),
    }
    match value.get("version").and_then(Value::as_u64) {
        Some(CACHE_FORMAT_VERSION) => {}
        other => {
            return Err(format!(
                "unsupported cache format version {other:?} (expected {CACHE_FORMAT_VERSION})"
            ))
        }
    }
    match value.get("estimator_version").and_then(Value::as_u64) {
        Some(v) if v == u64::from(ESTIMATOR_ALGORITHM_VERSION) => {}
        other => {
            return Err(format!(
                "cache was produced by estimator algorithm version {other:?} \
                 (this binary is {ESTIMATOR_ALGORITHM_VERSION}); discard the file"
            ))
        }
    }
    let entries = value.array("entries")?;
    for (i, entry) in entries.iter().enumerate() {
        let key = entry
            .get("key")
            .ok_or_else(|| format!("entry {i}: missing key"))
            .and_then(|k| key_from_value(k).map_err(|e| format!("entry {i}: {e}")))?;
        let estimate = entry
            .get("estimate")
            .ok_or_else(|| format!("entry {i}: missing estimate"))
            .and_then(|e| estimate_from_value(e).map_err(|err| format!("entry {i}: {err}")))?;
        cache.preload(key, estimate);
    }
    Ok(entries.len() as u64)
}

/// Writes the cache to `path` as versioned JSON. Returns the number of
/// entries actually written (completed entries only — in-flight
/// single-flight cells are skipped, exactly as in the file).
///
/// # Errors
///
/// Returns the underlying IO error message on failure.
pub fn save_cache_file(path: impl AsRef<Path>, cache: &Arc<EstimateCache>) -> Result<u64, String> {
    let entries = cache.entries();
    let written = entries.len() as u64;
    std::fs::write(path.as_ref(), entries_to_json(entries) + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.as_ref().display()))?;
    Ok(written)
}

/// Reads a cache file from `path` and preloads its entries into `cache`.
/// Returns the number of entries loaded.
///
/// # Errors
///
/// Returns the underlying IO error or format problem as a message.
pub fn load_cache_file(path: impl AsRef<Path>, cache: &Arc<EstimateCache>) -> Result<u64, String> {
    let src = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("cannot read {}: {e}", path.as_ref().display()))?;
    cache_from_json(&src, cache)
}

/// Like [`load_cache_file`], but a missing file is an empty warm start (0
/// entries), not an error — the shared first-run behaviour of every
/// `--cache-file` consumer. A file that exists but cannot be parsed is still
/// an error: silently cold-starting would hide a corrupt or stale cache.
pub fn load_cache_file_if_exists(
    path: impl AsRef<Path>,
    cache: &Arc<EstimateCache>,
) -> Result<u64, String> {
    if !path.as_ref().exists() {
        return Ok(0);
    }
    load_cache_file(path, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_gpusim::GpuSpec;
    use sgmap_graph::{Filter, NodeSet, StreamGraph};
    use sgmap_pee::Estimator;

    fn populated_cache() -> Arc<EstimateCache> {
        let mut g = StreamGraph::new("chain");
        let a = g.add_filter(Filter::new("a", 0, 1, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 400.0));
        let c = g.add_filter(Filter::new("c", 1, 0, 2.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(b, c, 1, 1).unwrap();
        let cache = EstimateCache::shared();
        let est = Estimator::new(&g, GpuSpec::m2090())
            .unwrap()
            .with_shared_cache(cache.clone());
        for id in g.filter_ids() {
            est.estimate(&NodeSet::singleton(id));
        }
        est.estimate(&NodeSet::all(&g));
        cache
    }

    #[test]
    fn save_load_round_trip_is_bit_exact_and_deterministic() {
        let cache = populated_cache();
        let json = cache_to_json(&cache);
        assert_eq!(json, cache_to_json(&cache), "serialisation is stable");

        let restored = EstimateCache::shared();
        let loaded = cache_from_json(&json, &restored).unwrap();
        assert_eq!(loaded, cache.stats().entries);
        assert_eq!(json, cache_to_json(&restored), "round trip is lossless");
        // Preloading counts no queries.
        assert_eq!(restored.stats().queries(), 0);

        let mut a = cache.entries();
        let mut b = restored.entries();
        let key = |e: &(EstimateKey, Option<Estimate>)| key_to_value(&e.0).render();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a.len(), b.len());
        for ((ka, ea), (kb, eb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            match (ea, eb) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.params, y.params);
                    assert_eq!(x.normalized_us.to_bits(), y.normalized_us.to_bits());
                    assert_eq!(x.t_exec_us.to_bits(), y.t_exec_us.to_bits());
                }
                other => panic!("entry mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_version_kind_or_shape_is_rejected() {
        let cache = EstimateCache::shared();
        let err = cache_from_json("{\"version\":1}", &cache).unwrap_err();
        assert!(err.contains("not an estimate-cache file"), "{err}");
        let err = cache_from_json(
            "{\"version\":99,\"kind\":\"sgmap-estimate-cache\",\"entries\":[]}",
            &cache,
        )
        .unwrap_err();
        assert!(err.contains("unsupported cache format version"), "{err}");
        // Same schema but produced by different estimation logic: rejected.
        let err = cache_from_json(
            &format!(
                "{{\"version\":{CACHE_FORMAT_VERSION},\"kind\":\"sgmap-estimate-cache\",\
                 \"estimator_version\":999,\"entries\":[]}}"
            ),
            &cache,
        )
        .unwrap_err();
        assert!(err.contains("estimator algorithm version"), "{err}");
        let err = cache_from_json(
            &format!(
                "{{\"version\":{CACHE_FORMAT_VERSION},\"kind\":\"sgmap-estimate-cache\",\
                 \"estimator_version\":{ESTIMATOR_ALGORITHM_VERSION},\"entries\":[{{}}]}}"
            ),
            &cache,
        )
        .unwrap_err();
        assert!(err.contains("entry 0"), "{err}");
        // The model is exactly `[c1 bits, c2 bits, warp size]`: format 1's
        // trailing saturation flag, a missing slot or a non-integer warp
        // size is an error naming the entry.
        let json = cache_to_json(&populated_cache());
        let model_start = json
            .find("\"model\":[")
            .expect("the populated cache's model");
        let model_end = model_start + json[model_start..].find(']').unwrap() + 1;
        let model = &json[model_start..model_end];
        let warp = ",32]";
        assert!(model.ends_with(warp), "{model}");
        for bad in [",32,true]", "]", ",\"32\"]"] {
            let mutated = json.replacen(model, &model.replace(warp, bad), 1);
            let err = cache_from_json(&mutated, &cache).unwrap_err();
            assert!(err.contains("entry 0"), "{bad}: {err}");
        }
        assert!(cache_from_json("not json", &cache).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn non_finite_or_negative_times_are_rejected() {
        let json = cache_to_json(&populated_cache());
        let doc = Value::parse(&json).unwrap();
        let entries = doc.array("entries").unwrap();
        let (i, bits) = entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| Some((i, e.get("estimate")?.u64("t_exec_bits").ok()?)))
            .expect("the populated cache holds at least one estimate");
        let field = format!("\"t_exec_bits\":{bits}");
        assert_eq!(json.matches(&field).count(), 1, "unique field to mutate");
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mutated = json.replace(&field, &format!("\"t_exec_bits\":{}", bad.to_bits()));
            let cache = EstimateCache::shared();
            let err = cache_from_json(&mutated, &cache).unwrap_err();
            assert!(err.contains(&format!("entry {i}")), "{err}");
            assert!(err.contains("t_exec_bits"), "{err}");
        }
    }
}
