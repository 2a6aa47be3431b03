//! Differential tests of the direct JSON path against the value tree.
//!
//! Derived types write JSON straight through `Serialize::write_json` and
//! read it straight through `Deserialize::read_json`. The tree path —
//! `to_value` rendered by the writer below, or a parsed `Value` handed to
//! `from_value` — is the reference. Writing must give byte-identical text,
//! compact and pretty; reading any text must give the same `Ok`/`Err` and
//! the same value. The texts are wire reports bent the ways a sloppy or
//! hostile peer bends them: reordered, duplicate, unknown and missing
//! keys, `3.0` in integer fields, `null` in floats, 0- and 2-entry variant
//! maps, escaped keys, trailing bytes, truncations and random bytes.

use mvqoe_core::{AttributionReport, Cause, CauseRecord, Effect, QoeReport};
use mvqoe_kernel::TrimLevel;
use mvqoe_sim::{SimRng, SimTime};
use mvqoe_study::{simulate_range, start_user, FleetAggregate, FleetConfig};
use mvqoe_telemetryd::{DeviceReport, Headline, IngestAck};
use mvqoe_workload::{FleetSample, UsagePattern};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::Debug;

// ---- the reference writer ---------------------------------------------------

/// The tree writer the direct path replaced: renders a `Value` exactly as
/// `to_string` rendered every type before.
fn reference_text(v: &Value, pretty: bool) -> String {
    let mut out = String::new();
    write_value(&mut out, v, pretty.then_some(2), 0);
    out
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x == x.trunc() && x.abs() < 1e16 {
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- the two properties -------------------------------------------------------

/// `x` writes the reference text of its own tree, on every entry point.
fn writes_like_the_tree<T: Serialize>(x: &T) -> Result<(), TestCaseError> {
    let tree = serde_json::to_value(x);
    let compact = serde_json::to_string(x).unwrap();
    prop_assert_eq!(&compact, &reference_text(&tree, false));
    prop_assert_eq!(&compact, &serde_json::to_string(&tree).unwrap());
    let pretty = serde_json::to_string_pretty(x).unwrap();
    prop_assert_eq!(&pretty, &reference_text(&tree, true));
    prop_assert_eq!(&pretty, &serde_json::to_string_pretty(&tree).unwrap());
    let mut written = Vec::new();
    serde_json::to_writer(&mut written, x).unwrap();
    prop_assert_eq!(written, compact.into_bytes());
    Ok(())
}

/// Parsing `text` straight into `T` agrees with parsing a tree and
/// rebuilding from it. Returns whether it parsed.
fn reads_like_the_tree<T: Deserialize + Debug>(text: &str) -> Result<bool, TestCaseError> {
    let direct = serde_json::from_str::<T>(text);
    let tree = serde_json::from_str::<Value>(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()));
    match (direct, tree) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "{:?}", text);
            Ok(true)
        }
        (Err(_), Err(_)) => Ok(false),
        (a, b) => Err(TestCaseError::fail(format!(
            "{text:?}: direct {a:?}, tree {b:?}"
        ))),
    }
}

/// Every type the texts are read as: the wire types, and containers that
/// cover each primitive and container impl.
fn reads_like_the_tree_as_anything(text: &str) -> Result<(), TestCaseError> {
    reads_like_the_tree::<DeviceReport>(text)?;
    reads_like_the_tree::<FleetSample>(text)?;
    reads_like_the_tree::<IngestAck>(text)?;
    reads_like_the_tree::<Headline>(text)?;
    reads_like_the_tree::<Value>(text)?;
    reads_like_the_tree::<Vec<u32>>(text)?;
    reads_like_the_tree::<Option<f64>>(text)?;
    reads_like_the_tree::<(u8, bool, String)>(text)?;
    reads_like_the_tree::<[i16; 2]>(text)?;
    reads_like_the_tree::<BTreeMap<u32, Option<String>>>(text)?;
    reads_like_the_tree::<BTreeMap<String, f32>>(text)?;
    reads_like_the_tree::<Box<TrimLevel>>(text)?;
    reads_like_the_tree::<SimTime>(text)?;
    Ok(())
}

// ---- generators -----------------------------------------------------------------

fn float(rng: &mut SimRng) -> f64 {
    match rng.index(9) {
        // Integral values keep their ".0"; from 1e16 up they do not.
        0 => rng.uniform(0.0, 4096.0).round(),
        1 => (1e16 + rng.index(8) as f64) * if rng.chance(0.5) { 1.0 } else { -1.0 },
        2 => -0.0,
        3 => f64::NAN,
        4 => rng.uniform(-1e20, 1e20),
        5 => rng.unit() * 1e-300,
        6 => f64::from_bits(rng.uniform_u64(0, u64::MAX)),
        _ => rng.uniform(0.0, 100.0),
    }
}

fn text(rng: &mut SimRng) -> String {
    const PIECES: [&str; 16] = [
        "Nokia 1",
        "HMD Global",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "日本",
        "🦀",
        "/",
        " ",
        "",
    ];
    (0..rng.index(6))
        .map(|_| PIECES[rng.index(PIECES.len())])
        .collect()
}

fn pick<T: Copy>(rng: &mut SimRng, choices: &[T]) -> T {
    choices[rng.index(choices.len())]
}

fn time(rng: &mut SimRng) -> SimTime {
    SimTime(rng.uniform_u64(0, 1 << 45))
}

fn trim(rng: &mut SimRng) -> TrimLevel {
    pick(
        rng,
        &[
            TrimLevel::Normal,
            TrimLevel::Moderate,
            TrimLevel::Low,
            TrimLevel::Critical,
        ],
    )
}

fn fleet_sample(rng: &mut SimRng) -> FleetSample {
    FleetSample {
        at: time(rng),
        available_mib: float(rng),
        utilization_pct: float(rng),
        trim: trim(rng),
        interactive: rng.chance(0.5),
        n_services: rng.uniform_u64(0, u64::from(u32::MAX)) as u32,
    }
}

/// One report of variant `variant` (0..5 in declaration order).
fn report(rng: &mut SimRng, variant: usize) -> DeviceReport {
    let device = rng.uniform_u64(0, u64::from(u32::MAX)) as u32;
    match variant {
        0 => DeviceReport::Begin {
            device,
            name: text(rng),
            manufacturer: text(rng),
            ram_mib: rng.uniform_u64(0, u64::MAX),
            pattern: UsagePattern {
                games: float(rng),
                music: float(rng),
                videos: float(rng),
                multitask_1: float(rng),
                multitask_2: float(rng),
                interactive_frac: float(rng),
            },
            hours: float(rng),
        },
        1 => DeviceReport::Sample {
            device,
            sample: fleet_sample(rng),
        },
        2 => DeviceReport::End { device },
        3 => DeviceReport::Qoe {
            device,
            report: QoeReport {
                at: time(rng),
                trim: trim(rng),
                buffer_s: float(rng),
                rendered: rng.uniform_u64(0, 100_000) as u32,
                dropped_total: rng.uniform_u64(0, u64::MAX),
                rebuffering: rng.chance(0.5),
                kills: rng.index(4) as u32,
            },
        },
        _ => DeviceReport::Attribution {
            device,
            report: AttributionReport {
                rebuffer_us: (0..rng.index(9))
                    .map(|_| rng.uniform_u64(0, 1 << 40))
                    .collect(),
                drops: (0..rng.index(9))
                    .map(|_| rng.uniform_u64(0, 1000))
                    .collect(),
                records: (0..rng.index(3))
                    .map(|_| CauseRecord {
                        at: time(rng),
                        effect: pick(
                            rng,
                            &[
                                Effect::RebufferStart,
                                Effect::DropStreak,
                                Effect::Downswitch,
                                Effect::Crash,
                            ],
                        ),
                        cause: pick(
                            rng,
                            &[
                                Cause::DirectReclaim,
                                Cause::LmkdKill,
                                Cause::OomKill,
                                Cause::MajorFaultBurst,
                                Cause::ZramThrash,
                                Cause::DecoderOverload,
                                Cause::NetworkDip,
                                Cause::Unattributed,
                            ],
                        ),
                        cause_at: time(rng),
                        lag_us: rng.uniform_u64(0, 1 << 30),
                        evidence: text(rng),
                    })
                    .collect(),
                records_dropped: rng.uniform_u64(0, 10),
            },
        },
    }
}

fn ingest_ack(rng: &mut SimRng) -> IngestAck {
    IngestAck {
        accepted: rng.uniform_u64(0, u64::MAX),
        folded: rng.uniform_u64(0, 1000),
        parse_failures: rng.uniform_u64(0, 10),
    }
}

fn headline(rng: &mut SimRng) -> Headline {
    Headline {
        recruited: rng.index(1000) as u32,
        kept: rng.uniform_u64(0, 1000),
        total_hours: float(rng),
        devices_in_flight: rng.uniform_u64(0, 100),
        reports_total: rng.uniform_u64(0, u64::MAX),
        parse_failures_total: rng.uniform_u64(0, 100),
        qoe_reports_total: rng.uniform_u64(0, 100),
    }
}

/// Keys for unknown and duplicate entries: real field and variant names,
/// near misses and oddities.
const KEYS: [&str; 12] = [
    "device", "sample", "Sample", "End", "Begin", "at", "trim", "hours", "x", "", "Device", "\"q\"",
];

fn random_value(rng: &mut SimRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.index(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::U64(rng.uniform_u64(0, u64::MAX) >> rng.index(64)),
        3 => Value::I64(-((rng.uniform_u64(0, i64::MAX as u64) >> rng.index(63)) as i64)),
        4 => Value::F64(float(rng)),
        5 => Value::Str(if rng.chance(0.5) {
            pick(rng, &KEYS).to_string()
        } else {
            text(rng)
        }),
        6 => Value::Seq(
            (0..rng.index(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.index(4))
                .map(|_| (pick(rng, &KEYS).to_string(), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Bend a valid tree: at each node, with probability `p`, reorder, add a
/// duplicate or unknown key, drop a key, turn an integer into its `.0`
/// float, a float into `null`, or anything into a random value.
fn bend(v: &mut Value, rng: &mut SimRng, p: f64) {
    if rng.chance(p) {
        match v {
            Value::Map(entries) => match rng.index(4) {
                0 => rng.shuffle(entries),
                1 if !entries.is_empty() => {
                    let (key, mut dup) = entries[rng.index(entries.len())].clone();
                    if rng.chance(0.5) {
                        dup = random_value(rng, 2);
                    }
                    entries.insert(rng.index(entries.len() + 1), (key, dup));
                }
                2 => {
                    let at = rng.index(entries.len() + 1);
                    entries.insert(at, (pick(rng, &KEYS).to_string(), random_value(rng, 2)));
                }
                _ if !entries.is_empty() => {
                    entries.remove(rng.index(entries.len()));
                }
                _ => {}
            },
            Value::U64(n) => *v = Value::F64(*n as f64),
            Value::I64(n) => *v = Value::F64(*n as f64),
            Value::F64(_) => *v = Value::Null,
            _ => *v = random_value(rng, 1),
        }
    }
    match v {
        Value::Map(entries) => entries.iter_mut().for_each(|(_, val)| bend(val, rng, p)),
        Value::Seq(items) => items.iter_mut().for_each(|item| bend(item, rng, p)),
        _ => {}
    }
}

/// Bend rendered text: an escaped spelling of a key, leading whitespace,
/// trailing bytes, or one character replaced.
fn bend_text(text: &str, rng: &mut SimRng) -> String {
    match rng.index(5) {
        0 => text.replacen("\"device\"", "\"dev\\u0069ce\"", 1),
        1 => format!(" \n\t{text}"),
        2 => format!(
            "{text}{}",
            pick(rng, &[" ", "\r\n", "x", "}", ",", "0", "\0", "{}", "]"])
        ),
        3 => {
            let chars: Vec<char> = text.chars().collect();
            let at = rng.index(chars.len() + 1);
            let with = pick(
                rng,
                &[
                    '{', '}', '[', ']', ':', ',', '"', '\\', '0', '.', 'e', '-', 'n', ' ',
                ],
            );
            let mut out: String = chars[..at].iter().collect();
            out.push(with);
            out.extend(chars.get(at + 1..).unwrap_or_default());
            out
        }
        _ => text.to_string(),
    }
}

/// Text from JSON-ish tokens: mostly malformed, sometimes valid.
fn token_soup(rng: &mut SimRng) -> String {
    const TOKENS: [&str; 24] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"Sample\"",
        "\"device\"",
        "\"End\"",
        "\"at\"",
        "1",
        "3.0",
        "-0",
        "-7",
        "1e5",
        "18446744073709551616",
        "null",
        "true",
        "\"x\"",
        " ",
        "\"\\u0041\"",
        "\"\\ud800\"",
        "\"\\u+041\"",
        "0.5",
    ];
    (0..rng.index(16)).map(|_| pick(rng, &TOKENS)).collect()
}

// ---- tests ------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn derived_types_write_the_tree_text_byte_for_byte(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        for variant in 0..5 {
            writes_like_the_tree(&report(&mut rng, variant))?;
        }
        writes_like_the_tree(&fleet_sample(&mut rng))?;
        writes_like_the_tree(&ingest_ack(&mut rng))?;
        writes_like_the_tree(&headline(&mut rng))?;
        // Containers and `Value` itself.
        writes_like_the_tree(&random_value(&mut rng, 3))?;
        let samples: Vec<FleetSample> = (0..rng.index(3)).map(|_| fleet_sample(&mut rng)).collect();
        writes_like_the_tree(&samples)?;
        let keyed: BTreeMap<u32, Option<f64>> = (0..rng.index(4))
            .map(|i| (i as u32 * 7, Some(float(&mut rng)).filter(|_| rng.chance(0.7))))
            .collect();
        writes_like_the_tree(&keyed)?;
        writes_like_the_tree(&(text(&mut rng), -(rng.index(100) as i64), [trim(&mut rng); 2]))?;
    }

    #[test]
    fn bent_reports_parse_like_the_tree(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let variant = rng.index(5);
        let values = [
            serde_json::to_value(&report(&mut rng, variant)),
            serde_json::to_value(&fleet_sample(&mut rng)),
            serde_json::to_value(&ingest_ack(&mut rng)),
            serde_json::to_value(&headline(&mut rng)),
        ];
        for value in values {
            let mut bent = value.clone();
            bend(&mut bent, &mut rng, 0.2);
            let text = reference_text(&bent, rng.chance(0.3));
            reads_like_the_tree_as_anything(&text)?;
            reads_like_the_tree_as_anything(&bend_text(&text, &mut rng))?;
        }
    }

    #[test]
    fn every_truncation_parses_like_the_tree(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let variant = rng.index(5);
        let line = serde_json::to_string(&report(&mut rng, variant)).unwrap();
        prop_assert!(reads_like_the_tree::<DeviceReport>(&line)?, "the whole line must parse");
        for (end, _) in line.char_indices() {
            prop_assert!(!reads_like_the_tree::<DeviceReport>(&line[..end])?);
        }
    }

    #[test]
    fn random_bytes_and_token_soup_parse_like_the_tree(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let bytes: Vec<u8> = (0..rng.index(48)).map(|_| rng.uniform_u64(0, 256) as u8).collect();
        reads_like_the_tree_as_anything(&String::from_utf8_lossy(&bytes))?;
        reads_like_the_tree_as_anything(&token_soup(&mut rng))?;
        reads_like_the_tree_as_anything(&reference_text(&random_value(&mut rng, 3), false))?;
    }
}

#[test]
fn variant_maps_need_exactly_one_entry() {
    let end = "{\"device\":3}";
    for (text, parses) in [
        (format!("{{\"End\":{end}}}"), true),
        ("{}".to_string(), false),
        (format!("{{\"End\":{end},\"End\":{end}}}"), false),
        (format!("{{\"End\":{end},\"x\":1}}"), false),
        ("\"End\"".to_string(), false),
    ] {
        assert_eq!(
            reads_like_the_tree::<DeviceReport>(&text).unwrap(),
            parses,
            "{text}"
        );
    }
}

#[test]
fn the_tree_semantics_hold_on_the_direct_path() {
    let sample = |body: &str| format!("{{\"Sample\":{{\"device\":1,\"sample\":{{{body}}}}}}}");
    let full = "\"at\":5,\"available_mib\":1.5,\"utilization_pct\":2.0,\
                \"trim\":\"Low\",\"interactive\":false,\"n_services\":3";
    for (text, parses) in [
        // First duplicate wins, even over a later one of the wrong type.
        (sample(&format!("{full},\"at\":\"late\"")), true),
        // Unknown keys are skipped, but must still be valid JSON.
        (sample(&format!("\"zz\":[{{}},null],{full}")), true),
        (sample(&format!("\"zz\":[1,],{full}")), false),
        // A missing field is an error.
        (sample(&full.replace("\"at\":5,", "")), false),
        // `3.0` fills an integer field; `3.5` does not.
        (sample(&full.replace("\"at\":5", "\"at\":5.0")), true),
        (sample(&full.replace("\"at\":5", "\"at\":5.5")), false),
        // `null` is NaN in a float field, and an error in an integer one.
        (sample(&full.replace("1.5", "null")), true),
        (sample(&full.replace("\"at\":5", "\"at\":null")), false),
    ] {
        assert_eq!(
            reads_like_the_tree::<DeviceReport>(&text).unwrap(),
            parses,
            "{text}"
        );
    }
    // `Option` fields are required too.
    assert!(serde_json::from_str::<(Option<u8>,)>("[]").is_err());
    let headline: Headline = serde_json::from_str(
        "{\"recruited\":1,\"kept\":1,\"total_hours\":null,\"devices_in_flight\":0,\
         \"reports_total\":0,\"parse_failures_total\":0,\"qoe_reports_total\":0}",
    )
    .unwrap();
    assert!(headline.total_hours.is_nan());
}

#[test]
fn a_real_upload_round_trips_on_both_paths() {
    let cfg = FleetConfig::scaled(2, 11, 0.005, 0.0005);
    let mut st = start_user(&cfg, 1);
    let mut reports = vec![DeviceReport::Begin {
        device: 1,
        name: st.user.device.name.clone(),
        manufacturer: st.user.device.manufacturer.clone(),
        ram_mib: st.user.device.ram_mib,
        pattern: st.user.pattern,
        hours: st.hours,
    }];
    for s in 0..st.seconds().min(60) {
        let sample = st.user.step_1s(SimTime::from_secs(s));
        reports.push(DeviceReport::Sample { device: 1, sample });
    }
    reports.push(DeviceReport::End { device: 1 });
    for r in &reports {
        writes_like_the_tree(r).unwrap();
        let line = serde_json::to_string(r).unwrap();
        assert!(
            reads_like_the_tree::<DeviceReport>(&line).unwrap(),
            "{line}"
        );
        let back: DeviceReport = serde_json::from_str(&line).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            line,
            "round trip is exact"
        );
    }
    // A hand-written impl takes the tree fallback on both paths.
    let agg: FleetAggregate = simulate_range(&cfg, 0..2);
    writes_like_the_tree(&agg).unwrap();
    let text = serde_json::to_string(&agg).unwrap();
    assert!(reads_like_the_tree::<FleetAggregate>(&text).unwrap());
}

#[test]
fn nesting_is_capped_at_max_depth_on_both_paths() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let max = serde_json::MAX_DEPTH;
    assert!(serde_json::from_str::<Value>(&nested(max)).is_ok());
    assert!(serde_json::from_str::<Value>(&nested(max + 1)).is_err());
    // Under an unknown key the direct path skips the value: two levels of
    // report maps plus the skipped value share the same budget.
    let skipped = |depth: usize| {
        format!(
            "{{\"Sample\":{{\"zz\":{},\"device\":1,\"sample\":{{}}}}}}",
            nested(depth)
        )
    };
    for depth in [max - 3, max - 2, max - 1] {
        reads_like_the_tree::<DeviceReport>(&skipped(depth)).unwrap();
    }
    assert!(serde_json::from_str::<Value>(&skipped(max - 2)).is_ok());
    assert!(serde_json::from_str::<Value>(&skipped(max - 1)).is_err());
}

#[test]
fn a_million_open_brackets_are_an_error_not_a_stack_overflow() {
    // 2 MiB is the default stack of a spawned thread, which is what each
    // telemetry connection runs on.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let deep = "[".repeat(1_000_000);
            let objects = "{\"a\":".repeat(1_000_000);
            assert!(serde_json::from_str::<Value>(&deep).is_err());
            assert!(serde_json::from_str::<Value>(&objects).is_err());
            for prefix in [
                "{\"Sample\":",
                "{\"Sample\":{\"zz\":",
                "{\"Attribution\":{\"report\":",
            ] {
                let text = format!("{prefix}{deep}");
                assert!(
                    serde_json::from_str::<DeviceReport>(&text).is_err(),
                    "{prefix}"
                );
            }
            assert!(serde_json::from_str::<FleetAggregate>(&deep).is_err());
        })
        .expect("spawn")
        .join()
        .expect("parsing deep input must return an error, not crash");
}
