//! JSON codec for [`SweepSpec`] — the file format behind `sweep --spec`.
//!
//! A spec file describes the grid axes declaratively:
//!
//! ```json
//! {
//!   "name": "my-sweep",
//!   "apps": [{"app": "DES", "n_values": [4, 8]}],
//!   "platforms": ["paper", {"name": "...", "interconnect": {...}, "gpus": [...]}],
//!   "stacks": [{"label": "ours", "partitioner": "proposed", "mapper": "ilp",
//!               "transfer": "p2p"}],
//!   "enhanced": [false]
//! }
//! ```
//!
//! Applications are referenced by their display name ([`App::by_name`] — the
//! synthetic families included). Platforms are either a named preset
//! (`"paper"`, `"nvlink8_m2090"`, `"cluster2x4_m2090"`, `"mixed_m2090_c2070"`)
//! or a full platform object in the [`platform_json`](crate::platform_json)
//! codec. Stacks may select the multilevel algorithm with
//! `"algorithm": {"multilevel": {"coarsen_target": 96, ...}}` (the default is
//! `"flat"`; an option below the minimum its `MultilevelOptions` builder
//! clamps to is rejected with the field named) and may pin GPU counts with `"gpu_counts": [1, 2]`, at least one
//! of which a platform must have. The `enhanced` axis defaults to `[false]`
//! when omitted.
//!
//! Encoding is deterministic (insertion-ordered objects, shortest
//! round-trip floats), so `to_json(from_json(s))` is a fixed point:
//! re-encoding an encoded spec reproduces it byte for byte. Settings not
//! expressible in the file (ILP budget, plan shape, cache-file settings,
//! stability baseline, injected panics) take the same defaults
//! [`SweepSpec::on_platforms`] applies.

use sgmap_apps::App;
use sgmap_gpusim::{PlatformSpec, TransferMode};
use sgmap_mapping::MappingMethod;
use sgmap_partition::{Algorithm, MultilevelOptions, PartitionerKind};
use sgmap_trace::json::Value;

use crate::platform_json::{platform_spec_from_value, platform_spec_to_value};
use crate::spec::{mapper_name, partitioner_name, transfer_name, AppSweep, StackConfig, SweepSpec};

/// Encodes a sweep spec as a JSON value (the codec-covered axes: name, apps,
/// platforms, stacks, enhancement).
pub fn sweep_spec_to_value(spec: &SweepSpec) -> Value {
    let apps = spec
        .apps
        .iter()
        .map(|sweep| {
            Value::object(vec![
                ("app", Value::str(sweep.app.name())),
                (
                    "n_values",
                    Value::Array(
                        sweep
                            .n_values
                            .iter()
                            .map(|&n| Value::Uint(u64::from(n)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let platforms = spec.platforms.iter().map(platform_spec_to_value).collect();
    let stacks = spec.stacks.iter().map(stack_to_value).collect();
    Value::object(vec![
        ("name", Value::str(&*spec.name)),
        ("apps", Value::Array(apps)),
        ("platforms", Value::Array(platforms)),
        ("stacks", Value::Array(stacks)),
        (
            "enhanced",
            Value::Array(spec.enhanced.iter().map(|&e| Value::Bool(e)).collect()),
        ),
    ])
}

/// Renders a sweep spec as compact JSON text.
pub fn sweep_spec_to_json(spec: &SweepSpec) -> String {
    sweep_spec_to_value(spec).render()
}

/// Decodes a sweep spec from a JSON value.
///
/// # Errors
///
/// Returns a description of the first missing field, ill-typed value,
/// unknown application / platform / stack-component name.
pub fn sweep_spec_from_value(value: &Value) -> Result<SweepSpec, String> {
    let spec = |e: String| format!("spec: {e}");
    let name = value.string("name").map_err(spec)?.to_string();
    let apps = value
        .array("apps")
        .map_err(spec)?
        .iter()
        .map(app_sweep_from_value)
        .collect::<Result<Vec<AppSweep>, String>>()?;
    let platforms = value
        .array("platforms")
        .map_err(spec)?
        .iter()
        .map(platform_from_value)
        .collect::<Result<Vec<PlatformSpec>, String>>()?;
    let stacks = value
        .array("stacks")
        .map_err(spec)?
        .iter()
        .map(stack_from_value)
        .collect::<Result<Vec<StackConfig>, String>>()?;
    let mut spec = SweepSpec::on_platforms(name, apps, platforms, stacks);
    if let Some(enhanced) = value.get("enhanced") {
        spec.enhanced = enhanced
            .as_array()
            .ok_or("spec: 'enhanced' must be an array of booleans")?
            .iter()
            .map(|v| match v {
                Value::Bool(b) => Ok(*b),
                _ => Err("spec: 'enhanced' must be an array of booleans".to_string()),
            })
            .collect::<Result<Vec<bool>, String>>()?;
    }
    Ok(spec)
}

/// Parses a sweep spec from JSON text.
///
/// # Errors
///
/// Returns a description of the first parse or shape error.
pub fn sweep_spec_from_json(src: &str) -> Result<SweepSpec, String> {
    sweep_spec_from_value(&Value::parse(src)?)
}

fn app_sweep_from_value(value: &Value) -> Result<AppSweep, String> {
    let name = value
        .string("app")
        .map_err(|e| format!("spec: app entry {e}"))?;
    let app = App::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = App::all()
            .into_iter()
            .chain(App::synthetic())
            .map(|a| a.name())
            .collect();
        format!(
            "spec: unknown application '{name}' (available: {})",
            known.join(", ")
        )
    })?;
    let n_values = value
        .array("n_values")
        .map_err(|e| format!("spec: app '{name}' {e}"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("spec: app '{name}' has a non-u32 N value"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    Ok(AppSweep::explicit(app, n_values))
}

fn platform_from_value(value: &Value) -> Result<PlatformSpec, String> {
    match value {
        Value::Str(preset) => match preset.as_str() {
            "paper" => Ok(PlatformSpec::paper()),
            "nvlink8_m2090" => Ok(PlatformSpec::nvlink8_m2090()),
            "cluster2x4_m2090" => Ok(PlatformSpec::cluster2x4_m2090()),
            "mixed_m2090_c2070" => Ok(PlatformSpec::mixed_m2090_c2070()),
            other => Err(format!(
                "spec: unknown platform preset '{other}' (available: paper, \
                 nvlink8_m2090, cluster2x4_m2090, mixed_m2090_c2070)"
            )),
        },
        _ => platform_spec_from_value(value),
    }
}

fn stack_to_value(stack: &StackConfig) -> Value {
    let mut fields = vec![
        ("label", Value::str(&*stack.label)),
        (
            "partitioner",
            Value::str(partitioner_name(stack.partitioner)),
        ),
        ("algorithm", algorithm_to_value(&stack.algorithm)),
        ("mapper", Value::str(mapper_name(stack.mapper))),
        ("transfer", Value::str(transfer_name(stack.transfer_mode))),
    ];
    if let Some(counts) = &stack.gpu_counts {
        fields.push((
            "gpu_counts",
            Value::Array(counts.iter().map(|&c| Value::Uint(c as u64)).collect()),
        ));
    }
    Value::object(fields)
}

fn stack_from_value(value: &Value) -> Result<StackConfig, String> {
    let label = value
        .string("label")
        .map_err(|e| format!("spec: stack {e}"))?
        .to_string();
    let field = |key: &str| {
        value
            .string(key)
            .map_err(|e| format!("spec: stack '{label}' {e}"))
    };
    let partitioner = match field("partitioner")? {
        "proposed" => PartitionerKind::Proposed,
        "baseline" => PartitionerKind::Baseline,
        "single" => PartitionerKind::Single,
        other => {
            return Err(format!(
                "spec: stack '{label}' has unknown partitioner '{other}' \
                 (available: proposed, baseline, single)"
            ))
        }
    };
    let algorithm = match value.get("algorithm") {
        None => Algorithm::Flat,
        Some(v) => algorithm_from_value(&label, v)?,
    };
    let mapper = match field("mapper")? {
        "ilp" => MappingMethod::Ilp,
        "greedy" => MappingMethod::Greedy,
        "round-robin" => MappingMethod::RoundRobin,
        other => {
            return Err(format!(
                "spec: stack '{label}' has unknown mapper '{other}' \
                 (available: ilp, greedy, round-robin)"
            ))
        }
    };
    let transfer_mode = match field("transfer")? {
        "p2p" => TransferMode::PeerToPeer,
        "via-host" => TransferMode::ViaHost,
        other => {
            return Err(format!(
                "spec: stack '{label}' has unknown transfer mode '{other}' \
                 (available: p2p, via-host)"
            ))
        }
    };
    let gpu_counts = match value.get("gpu_counts") {
        None => None,
        Some(v) => Some(
            v.as_array()
                .ok_or_else(|| format!("spec: stack '{label}': 'gpu_counts' must be an array"))?
                .iter()
                .map(|c| {
                    c.as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(|| format!("spec: stack '{label}' has a non-integer GPU count"))
                })
                .collect::<Result<Vec<usize>, String>>()?,
        ),
    };
    Ok(StackConfig {
        label,
        partitioner,
        algorithm,
        mapper,
        transfer_mode,
        gpu_counts,
    })
}

fn algorithm_to_value(algorithm: &Algorithm) -> Value {
    match algorithm {
        Algorithm::Flat => Value::str("flat"),
        Algorithm::Multilevel(o) => Value::object(vec![(
            "multilevel",
            Value::object(vec![
                ("coarsen_target", Value::Uint(o.coarsen_target as u64)),
                ("max_levels", Value::Uint(o.max_levels as u64)),
                ("matching_attempts", Value::Uint(o.matching_attempts as u64)),
            ]),
        )]),
    }
}

fn algorithm_from_value(label: &str, value: &Value) -> Result<Algorithm, String> {
    if let Some(s) = value.as_str() {
        return match s {
            "flat" => Ok(Algorithm::Flat),
            "multilevel" => Ok(Algorithm::Multilevel(MultilevelOptions::default())),
            other => Err(format!(
                "spec: stack '{label}' has unknown algorithm '{other}' \
                 (available: flat, multilevel)"
            )),
        };
    }
    let ml = value.get("multilevel").ok_or_else(|| {
        format!("spec: stack '{label}': 'algorithm' must be \"flat\", \"multilevel\" or {{\"multilevel\": {{...}}}}")
    })?;
    let field = |name: &str, default: usize| -> Result<usize, String> {
        match ml.get(name) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| {
                    format!(
                        "spec: stack '{label}': 'algorithm.multilevel.{name}' must be an integer"
                    )
                }),
        }
    };
    let defaults = MultilevelOptions::default();
    let coarsen_target = field("coarsen_target", defaults.coarsen_target)?;
    let max_levels = field("max_levels", defaults.max_levels)?;
    let matching_attempts = field("matching_attempts", defaults.matching_attempts)?;
    // The builders clamp each option to its minimum; a value they would
    // raise is an error, not a silent change.
    let options = MultilevelOptions::new()
        .with_coarsen_target(coarsen_target)
        .with_max_levels(max_levels)
        .with_matching_attempts(matching_attempts);
    for (name, asked, minimum) in [
        ("coarsen_target", coarsen_target, options.coarsen_target),
        ("max_levels", max_levels, options.max_levels),
        (
            "matching_attempts",
            matching_attempts,
            options.matching_attempts,
        ),
    ] {
        if asked < minimum {
            return Err(format!(
                "spec: stack '{label}': 'algorithm.multilevel.{name}' must be at least {minimum}"
            ));
        }
    }
    Ok(Algorithm::Multilevel(options))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_a_fixed_point_for_every_preset() {
        for preset in SweepSpec::PRESETS {
            let spec = SweepSpec::preset(preset).unwrap();
            let encoded = sweep_spec_to_json(&spec);
            let decoded = sweep_spec_from_json(&encoded)
                .unwrap_or_else(|e| panic!("{preset}: {e}\n{encoded}"));
            assert_eq!(
                sweep_spec_to_json(&decoded),
                encoded,
                "{preset}: re-encoding changed bytes"
            );
            // The codec-covered axes survive the round trip exactly.
            assert_eq!(decoded.name, spec.name);
            assert_eq!(decoded.apps, spec.apps);
            assert_eq!(decoded.platforms, spec.platforms);
            assert_eq!(decoded.stacks, spec.stacks);
            assert_eq!(decoded.enhanced, spec.enhanced);
        }
    }

    #[test]
    fn named_platform_presets_and_synthetic_apps_decode() {
        let src = r#"{
            "name": "custom",
            "apps": [{"app": "SynthPipe", "n_values": [1000]},
                     {"app": "DES", "n_values": [4, 8]}],
            "platforms": ["paper", "nvlink8_m2090"],
            "stacks": [{"label": "ml", "partitioner": "proposed",
                        "algorithm": {"multilevel": {"coarsen_target": 64}},
                        "mapper": "ilp", "transfer": "p2p",
                        "gpu_counts": [4]}],
            "enhanced": [false, true]
        }"#;
        let spec = sweep_spec_from_json(src).unwrap();
        assert_eq!(spec.apps[0].app, App::SynthPipe);
        assert_eq!(spec.platforms[0], PlatformSpec::paper());
        assert_eq!(spec.platforms[1], PlatformSpec::nvlink8_m2090());
        assert_eq!(spec.enhanced, vec![false, true]);
        match &spec.stacks[0].algorithm {
            Algorithm::Multilevel(o) => {
                assert_eq!(o.coarsen_target, 64);
                // Unspecified knobs take their defaults.
                assert_eq!(o.max_levels, MultilevelOptions::default().max_levels);
            }
            other => panic!("expected multilevel, got {other:?}"),
        }
        assert_eq!(spec.stacks[0].gpu_counts, Some(vec![4]));
        // A bare string algorithm works too.
        let spec2 = sweep_spec_from_json(&src.replace(
            r#"{"multilevel": {"coarsen_target": 64}}"#,
            r#""multilevel""#,
        ))
        .unwrap();
        assert_eq!(
            spec2.stacks[0].algorithm,
            Algorithm::Multilevel(MultilevelOptions::default())
        );
        // The decoded spec expands like any hand-built one.
        assert!(!spec.expand().unwrap().is_empty());
    }

    #[test]
    fn unknown_names_are_reported_with_context() {
        let base = |apps: &str, platforms: &str| {
            format!(
                r#"{{"name": "t", "apps": [{apps}], "platforms": [{platforms}],
                    "stacks": [{{"label": "ours", "partitioner": "proposed",
                                 "mapper": "ilp", "transfer": "p2p"}}]}}"#
            )
        };
        let err = sweep_spec_from_json(&base(
            r#"{"app": "NoSuchApp", "n_values": [4]}"#,
            r#""paper""#,
        ))
        .unwrap_err();
        assert!(err.contains("unknown application 'NoSuchApp'"), "{err}");
        assert!(
            err.contains("SynthPipe"),
            "should list synthetic apps: {err}"
        );
        let err = sweep_spec_from_json(&base(
            r#"{"app": "DES", "n_values": [4]}"#,
            r#""warehouse""#,
        ))
        .unwrap_err();
        assert!(err.contains("unknown platform preset 'warehouse'"), "{err}");
        let err = sweep_spec_from_json(r#"{"name": "t", "apps": []}"#).unwrap_err();
        assert!(err.contains("missing array 'platforms'"), "{err}");
        let err = sweep_spec_from_json("{nope").unwrap_err();
        assert!(!err.is_empty());
        // An unknown algorithm name names the options.
        let with_algo = base(r#"{"app": "DES", "n_values": [4]}"#, r#""paper""#).replace(
            r#""mapper""#,
            r#""algorithm": "simulated-annealing", "mapper""#,
        );
        let err = sweep_spec_from_json(&with_algo).unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
    }

    #[test]
    fn multilevel_options_below_their_minimums_are_rejected() {
        let spec = |options: &str| {
            format!(
                r#"{{"name": "t", "apps": [{{"app": "DES", "n_values": [4]}}],
                    "platforms": ["paper"],
                    "stacks": [{{"label": "ml", "partitioner": "proposed",
                                 "algorithm": {{"multilevel": {options}}},
                                 "mapper": "ilp", "transfer": "p2p"}}]}}"#
            )
        };
        for (options, message) in [
            (
                r#"{"coarsen_target": 0, "max_levels": 0, "matching_attempts": 0}"#,
                "'algorithm.multilevel.coarsen_target' must be at least 2",
            ),
            (
                r#"{"coarsen_target": 1}"#,
                "'algorithm.multilevel.coarsen_target' must be at least 2",
            ),
            (
                r#"{"max_levels": 0}"#,
                "'algorithm.multilevel.max_levels' must be at least 1",
            ),
            (
                r#"{"matching_attempts": 0}"#,
                "'algorithm.multilevel.matching_attempts' must be at least 1",
            ),
        ] {
            let err = sweep_spec_from_json(&spec(options)).unwrap_err();
            assert_eq!(err, format!("spec: stack 'ml': {message}"), "{options}");
        }
        // The minimums themselves are accepted as written.
        let decoded = sweep_spec_from_json(&spec(
            r#"{"coarsen_target": 2, "max_levels": 1, "matching_attempts": 1}"#,
        ))
        .unwrap();
        assert_eq!(
            decoded.stacks[0].algorithm,
            Algorithm::Multilevel(MultilevelOptions {
                coarsen_target: 2,
                max_levels: 1,
                matching_attempts: 1,
            })
        );
    }

    #[test]
    fn missing_enhanced_axis_defaults_to_off() {
        let src = r#"{"name": "t",
                      "apps": [{"app": "DES", "n_values": [4]}],
                      "platforms": ["paper"],
                      "stacks": [{"label": "ours", "partitioner": "proposed",
                                  "mapper": "ilp", "transfer": "p2p"}]}"#;
        let spec = sweep_spec_from_json(src).unwrap();
        assert_eq!(spec.enhanced, vec![false]);
        assert_eq!(spec.stacks[0].algorithm, Algorithm::Flat);
        assert_eq!(
            spec.mapping_options.max_nodes,
            SweepSpec::deterministic_mapping_options().max_nodes
        );
    }
}
