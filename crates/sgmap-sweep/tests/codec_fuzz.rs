//! Fuzzing of the JSON codec and every reader built on it.
//!
//! Valid documents of each kind the workspace reads back — spec and
//! platform presets, a saved estimate cache, a canonical quick-preset
//! report, a `BENCH.json`-shaped document and both trace exports — are
//! truncated, have one byte flipped or have one field retyped, and go to
//! their reader or validator. Every mutation must come back as `Ok` or a
//! contextual `Err`; a panic fails the test. Random [`JsonValue`] trees
//! must also survive `render → parse → render` byte for byte.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use sgmap_apps::App;
use sgmap_gpusim::{GpuSpec, PlatformSpec};
use sgmap_pee::EstimateCache;
use sgmap_sweep::{
    cache_from_json, cache_to_json, check_bench_report, check_report, check_trace,
    platform_spec_from_json, platform_spec_to_json, run_sweep, run_sweep_with_cache,
    sweep_spec_from_json, sweep_spec_to_json, AppSweep, GpuModel, JsonValue, StackConfig,
    SweepSpec,
};
use sgmap_trace::{scope, Collector};

/// Deterministic mini-RNG (SplitMix64): one proptest seed drives a whole
/// mutation, so a failing case is reproducible from its seed alone.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A reader or validator: `Ok`/`Err` are both fine, only a panic is not.
type Reader = fn(&str) -> bool;

struct Doc {
    kind: &'static str,
    text: String,
    read: Reader,
}

fn read_spec(s: &str) -> bool {
    sweep_spec_from_json(s).is_ok()
}

fn read_platform(s: &str) -> bool {
    platform_spec_from_json(s).is_ok()
}

fn read_cache(s: &str) -> bool {
    cache_from_json(s, &EstimateCache::shared()).is_ok()
}

fn read_report(s: &str) -> bool {
    check_report(s).is_ok()
}

fn read_bench(s: &str) -> bool {
    check_bench_report(s).is_ok()
}

fn read_trace(s: &str) -> bool {
    check_trace(s).is_ok()
}

/// The valid documents every mutation starts from, built once per test
/// binary.
fn corpus() -> &'static [Doc] {
    static CORPUS: OnceLock<Vec<Doc>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut docs = Vec::new();
        for preset in SweepSpec::PRESETS {
            let spec = SweepSpec::preset(preset).unwrap();
            docs.push(Doc {
                kind: "spec",
                text: sweep_spec_to_json(&spec),
                read: read_spec,
            });
        }
        for platform in [
            PlatformSpec::paper(),
            PlatformSpec::reference(GpuSpec::c2070(), 1),
            PlatformSpec::nvlink8_m2090(),
            PlatformSpec::cluster2x4_m2090(),
            PlatformSpec::mixed_m2090_c2070(),
            PlatformSpec::paper().with_link_scales(1.05, 0.95),
        ] {
            docs.push(Doc {
                kind: "platform",
                text: platform_spec_to_json(&platform),
                read: read_platform,
            });
        }
        // A small traced sweep yields the saved cache and both exports.
        let tiny = SweepSpec::new(
            "fuzz",
            vec![AppSweep::explicit(App::FmRadio, vec![4])],
            vec![GpuModel::M2090],
            vec![1, 2],
            vec![StackConfig::ours()],
        );
        let cache = EstimateCache::shared();
        let collector = Arc::new(Collector::new());
        scope(Some(&collector), || {
            run_sweep_with_cache(&tiny, 1, cache.clone()).unwrap()
        });
        docs.push(Doc {
            kind: "cache",
            text: cache_to_json(&cache),
            read: read_cache,
        });
        docs.push(Doc {
            kind: "chrome trace",
            text: collector.chrome_trace_json(),
            read: read_trace,
        });
        docs.push(Doc {
            kind: "metrics",
            text: collector.metrics_json(),
            read: read_trace,
        });
        let quick = run_sweep(&SweepSpec::preset("quick").unwrap(), 2).unwrap();
        docs.push(Doc {
            kind: "quick report",
            text: quick.canonical_json(),
            read: read_report,
        });
        docs.push(Doc {
            kind: "bench",
            text: include_str!("../../../BENCH.json").to_string(),
            read: read_bench,
        });
        for doc in &docs {
            assert!(
                (doc.read)(&doc.text),
                "unmutated {} must read back",
                doc.kind
            );
        }
        docs
    })
}

/// Values of every JSON type, to retype a field with.
fn replacement(g: &mut Gen) -> JsonValue {
    match g.below(10) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(g.next() & 1 == 0),
        2 => JsonValue::Int(-1 - g.below(1000) as i64),
        3 => JsonValue::Uint(g.next()),
        4 => JsonValue::Uint(g.below(3) as u64),
        5 => JsonValue::Float(-1.5),
        6 => JsonValue::Float(1e300),
        7 => JsonValue::str("x"),
        8 => JsonValue::Array(vec![JsonValue::Uint(1)]),
        _ => JsonValue::object(vec![]),
    }
}

/// Number of object fields anywhere in `v`.
fn field_count(v: &JsonValue) -> usize {
    match v {
        JsonValue::Array(items) => items.iter().map(field_count).sum(),
        JsonValue::Object(fields) => fields.iter().map(|(_, f)| 1 + field_count(f)).sum(),
        _ => 0,
    }
}

/// Replaces the value of the `k`-th object field (pre-order); returns the
/// number of fields still to skip when `k` lies outside `v`.
fn retype_field(v: &mut JsonValue, mut k: usize, with: &mut Option<JsonValue>) -> usize {
    match v {
        JsonValue::Array(items) => {
            for item in items {
                k = retype_field(item, k, with);
                if with.is_none() {
                    break;
                }
            }
        }
        JsonValue::Object(fields) => {
            for (_, field) in fields {
                if k == 0 {
                    *field = with.take().expect("replaced once");
                    break;
                }
                k = retype_field(field, k - 1, with);
                if with.is_none() {
                    break;
                }
            }
        }
        _ => {}
    }
    k
}

/// One seeded mutation of `text`, with a description for failure messages.
fn mutate(text: &str, g: &mut Gen) -> (String, String) {
    let bytes = text.as_bytes();
    match g.below(3) {
        0 => {
            let at = g.below(bytes.len());
            let cut = String::from_utf8_lossy(&bytes[..at]).into_owned();
            (cut, format!("truncated at byte {at}"))
        }
        1 => {
            let at = g.below(bytes.len());
            let mut flipped = bytes.to_vec();
            const PICKS: &[u8] = b"\"\\{}[],:.-+eE0159 nul\x01\x7f\xff";
            let new = if g.next() & 1 == 0 {
                PICKS[g.below(PICKS.len())]
            } else {
                flipped[at] ^ (1 << g.below(8))
            };
            flipped[at] = new;
            let text = String::from_utf8_lossy(&flipped).into_owned();
            (text, format!("byte {at} set to {new:#04x}"))
        }
        _ => {
            let mut doc = JsonValue::parse(text).expect("corpus documents parse");
            let k = g.below(field_count(&doc));
            let mut with = Some(replacement(g));
            let shown = with.as_ref().map(JsonValue::render).unwrap_or_default();
            retype_field(&mut doc, k, &mut with);
            (doc.render(), format!("field {k} retyped to {shown}"))
        }
    }
}

/// A random string over characters the writer must escape (quotes,
/// backslashes, control characters) and multi-byte UTF-8.
fn random_string(g: &mut Gen) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        'λ', '\u{2028}', '😀',
    ];
    (0..g.below(8))
        .map(|_| CHARS[g.below(CHARS.len())])
        .collect()
}

fn random_value(g: &mut Gen, depth: usize) -> JsonValue {
    let leaf_only = depth == 0;
    match g.below(if leaf_only { 6 } else { 8 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(g.next() & 1 == 0),
        2 => JsonValue::Int(g.next() as i64 | i64::MIN),
        3 => JsonValue::Uint(g.next() >> g.below(64)),
        4 => {
            let x = match g.below(4) {
                0 => f64::from_bits(g.next()),
                1 => (g.next() % 2000) as f64 - 1000.0,
                2 => (g.next() % 1_000_000) as f64 / 1024.0,
                _ => [0.0, -0.0, 1e300, -1e-300, f64::MIN_POSITIVE][g.below(5)],
            };
            JsonValue::Float(x)
        }
        5 => JsonValue::Str(random_string(g)),
        6 => JsonValue::Array(
            (0..g.below(4))
                .map(|_| random_value(g, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..g.below(4))
                .map(|_| (random_string(g), random_value(g, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Truncated, byte-flipped and retyped documents give `Ok` or `Err`
    /// from their reader, never a panic.
    #[test]
    fn mutated_documents_never_panic_their_reader(seed in any::<u64>()) {
        let docs = corpus();
        let mut g = Gen(seed);
        let doc = &docs[g.below(docs.len())];
        let (text, how) = mutate(&doc.text, &mut g);
        let outcome = catch_unwind(AssertUnwindSafe(|| (doc.read)(&text)));
        prop_assert!(outcome.is_ok(), "{} reader panicked: {how} (seed {seed})", doc.kind);
    }

    /// Rendering is a fixed point of parsing: `render(parse(render(v)))`
    /// reproduces `render(v)` byte for byte.
    #[test]
    fn render_parse_render_is_byte_stable(seed in any::<u64>()) {
        let v = random_value(&mut Gen(seed), 4);
        let rendered = v.render();
        let parsed = JsonValue::parse(&rendered);
        prop_assert!(parsed.is_ok(), "{rendered} does not parse: {:?}", parsed.err());
        prop_assert_eq!(parsed.unwrap().render(), rendered);
    }
}
