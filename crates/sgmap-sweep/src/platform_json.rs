//! JSON codec for [`PlatformSpec`] — the persistence path for platform
//! descriptions (spec files, report tooling, the property tests' round-trip
//! oracle).
//!
//! The rendering is deterministic (insertion-ordered objects, shortest
//! round-trip float representation), so encoding the same spec twice yields
//! byte-identical text, and decode(encode(spec)) reproduces the spec
//! exactly — including heterogeneous GPU lists.

use sgmap_gpusim::{GpuSpec, InterconnectSpec, PlatformSpec};
use sgmap_trace::json::Value;

/// Encodes a platform spec as a JSON value.
pub fn platform_spec_to_value(spec: &PlatformSpec) -> Value {
    let interconnect = match &spec.interconnect {
        InterconnectSpec::ReferenceTree | InterconnectSpec::Flat => {
            Value::object(vec![("kind", Value::str(spec.interconnect.kind_name()))])
        }
        InterconnectSpec::NvlinkIslands { gpus_per_island } => Value::object(vec![
            ("kind", Value::str(spec.interconnect.kind_name())),
            ("gpus_per_island", Value::Uint(*gpus_per_island as u64)),
        ]),
        InterconnectSpec::Cluster { gpus_per_node } => Value::object(vec![
            ("kind", Value::str(spec.interconnect.kind_name())),
            ("gpus_per_node", Value::Uint(*gpus_per_node as u64)),
        ]),
    };
    let mut fields = vec![
        ("name", Value::str(&*spec.name)),
        ("interconnect", interconnect),
        (
            "gpus",
            Value::Array(spec.gpus.iter().map(gpu_to_value).collect()),
        ),
    ];
    // Perturbation factors are emitted only when set, so unperturbed spec
    // files keep their historical byte shape.
    if spec.bandwidth_scale != 1.0 {
        fields.push(("bandwidth_scale", Value::Float(spec.bandwidth_scale)));
    }
    if spec.latency_scale != 1.0 {
        fields.push(("latency_scale", Value::Float(spec.latency_scale)));
    }
    Value::object(fields)
}

/// Renders a platform spec as compact JSON text.
pub fn platform_spec_to_json(spec: &PlatformSpec) -> String {
    platform_spec_to_value(spec).render()
}

/// Decodes a platform spec from a JSON value.
///
/// # Errors
///
/// Returns a description of the first missing or ill-typed field.
pub fn platform_spec_from_value(value: &Value) -> Result<PlatformSpec, String> {
    let platform = |e: String| format!("platform: {e}");
    let name = value.string("name").map_err(platform)?.to_string();
    let inter = value
        .get("interconnect")
        .ok_or("platform: missing 'interconnect'")?;
    let kind = inter
        .string("kind")
        .map_err(|e| platform(format!("interconnect: {e}")))?;
    let gpus_per = |field: &str| -> Result<usize, String> {
        let n = inter.u64(field).map_err(platform)?;
        usize::try_from(n).map_err(|_| platform(format!("field '{field}' exceeds usize")))
    };
    let interconnect = match kind {
        "reference_tree" => InterconnectSpec::ReferenceTree,
        "flat" => InterconnectSpec::Flat,
        "nvlink_islands" => InterconnectSpec::NvlinkIslands {
            gpus_per_island: gpus_per("gpus_per_island")?,
        },
        "cluster" => InterconnectSpec::Cluster {
            gpus_per_node: gpus_per("gpus_per_node")?,
        },
        other => return Err(format!("platform: unknown interconnect kind '{other}'")),
    };
    let gpus = value
        .array("gpus")
        .map_err(platform)?
        .iter()
        .map(gpu_from_value)
        .collect::<Result<Vec<GpuSpec>, String>>()?;
    let scale = |field: &str| -> Result<f64, String> {
        match value.get(field) {
            None => Ok(1.0),
            Some(v) => v
                .as_f64()
                .ok_or_else(|| format!("platform: ill-typed number '{field}'")),
        }
    };
    Ok(PlatformSpec {
        name,
        gpus,
        interconnect,
        bandwidth_scale: scale("bandwidth_scale")?,
        latency_scale: scale("latency_scale")?,
    })
}

/// Parses a platform spec from JSON text.
///
/// # Errors
///
/// Returns a description of the first parse or shape error.
pub fn platform_spec_from_json(src: &str) -> Result<PlatformSpec, String> {
    platform_spec_from_value(&Value::parse(src)?)
}

fn gpu_to_value(gpu: &GpuSpec) -> Value {
    Value::object(vec![
        ("name", Value::str(&*gpu.name)),
        ("sm_count", Value::Uint(u64::from(gpu.sm_count))),
        ("core_clock_ghz", Value::Float(gpu.core_clock_ghz)),
        ("mem_clock_ghz", Value::Float(gpu.mem_clock_ghz)),
        ("mem_bandwidth_gbs", Value::Float(gpu.mem_bandwidth_gbs)),
        (
            "shared_mem_bytes",
            Value::Uint(u64::from(gpu.shared_mem_bytes)),
        ),
        (
            "max_threads_per_block",
            Value::Uint(u64::from(gpu.max_threads_per_block)),
        ),
        ("warp_size", Value::Uint(u64::from(gpu.warp_size))),
        (
            "global_access_cycles",
            Value::Float(gpu.global_access_cycles),
        ),
        (
            "shared_access_cycles",
            Value::Float(gpu.shared_access_cycles),
        ),
    ])
}

fn gpu_from_value(value: &Value) -> Result<GpuSpec, String> {
    let gpu = |e: String| format!("gpu: {e}");
    Ok(GpuSpec {
        name: value.string("name").map_err(gpu)?.to_string(),
        sm_count: value.u32("sm_count").map_err(gpu)?,
        core_clock_ghz: value.f64("core_clock_ghz").map_err(gpu)?,
        mem_clock_ghz: value.f64("mem_clock_ghz").map_err(gpu)?,
        mem_bandwidth_gbs: value.f64("mem_bandwidth_gbs").map_err(gpu)?,
        shared_mem_bytes: value.u32("shared_mem_bytes").map_err(gpu)?,
        max_threads_per_block: value.u32("max_threads_per_block").map_err(gpu)?,
        warp_size: value.u32("warp_size").map_err(gpu)?,
        global_access_cycles: value.f64("global_access_cycles").map_err(gpu)?,
        shared_access_cycles: value.f64("shared_access_cycles").map_err(gpu)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_round_trip_exactly() {
        for spec in [
            PlatformSpec::paper(),
            PlatformSpec::reference(GpuSpec::c2070(), 1),
            PlatformSpec::nvlink8_m2090(),
            PlatformSpec::cluster2x4_m2090(),
            PlatformSpec::mixed_m2090_c2070(),
            PlatformSpec::paper().with_link_scales(1.05, 0.95),
        ] {
            let json = platform_spec_to_json(&spec);
            let back = platform_spec_from_json(&json).unwrap();
            assert_eq!(back, spec, "{json}");
            // Deterministic rendering: encode(decode(encode)) is stable.
            assert_eq!(platform_spec_to_json(&back), json);
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(platform_spec_from_json("{}").is_err());
        assert!(platform_spec_from_json(
            r#"{"name":"x","interconnect":{"kind":"warp"},"gpus":[]}"#
        )
        .is_err());
        assert!(platform_spec_from_json(
            r#"{"name":"x","interconnect":{"kind":"nvlink_islands"},"gpus":[]}"#
        )
        .is_err());
        let truncated =
            platform_spec_to_json(&PlatformSpec::paper()).replace("\"sm_count\":16,", "");
        assert!(platform_spec_from_json(&truncated).is_err());
    }

    #[test]
    fn link_scales_must_be_finite_and_positive() {
        let json = platform_spec_to_json(&PlatformSpec::nvlink8_m2090());
        let head = "{\"name\":\"nvlink8\",";
        assert!(json.starts_with(head));
        for field in ["bandwidth_scale", "latency_scale"] {
            let prefix = format!("{head}\"{field}\":");
            let with = |value: &str| json.replacen(head, &format!("{prefix}{value},"), 1);
            // An overflowing scale no longer parses to +inf.
            assert_eq!(
                platform_spec_from_json(&with("1e999")).unwrap_err(),
                format!(
                    "number '1e999' at byte {} is out of range for f64",
                    prefix.len()
                )
            );
            // A scale that parses but is not positive does not build.
            let spec = platform_spec_from_json(&with("0.0")).unwrap();
            let err = spec.build().unwrap_err().to_string();
            assert!(
                err.starts_with(
                    "platform 'nvlink8': link scale factors must be finite and positive"
                ),
                "{err}"
            );
        }
    }
}
