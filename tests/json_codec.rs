//! The JSON codec behind every wire frame and dataset file: derived types follow
//! the decoding rules (any field order, unknown keys skipped, first duplicate kept,
//! missing fields refused), strings decode exactly as the old character-at-a-time
//! loop did except where it accepted unpaired surrogates, and a dataset of a few
//! megabytes round-trips in linear time.

use proptest::collection;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use tagdm::prelude::*;
use tagdm_data::io;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u64,
    name: String,
    #[serde(skip)]
    cache: Vec<u8>,
    tags: Vec<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Wrap(u8),
    Pair(u8, String),
    Named {
        x: i32,
        #[serde(skip)]
        y: u8,
    },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Triple(u8, u8, u8);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

fn record(id: u64) -> Record {
    Record {
        id,
        name: "n".into(),
        cache: Vec::new(),
        tags: vec!["a".into()],
    }
}

#[test]
fn derived_structs_follow_the_decoding_rules() {
    let written = serde_json::to_string(&Record {
        cache: vec![1, 2],
        ..record(1)
    })
    .unwrap();
    assert_eq!(written, r#"{"id":1,"name":"n","tags":["a"]}"#);

    let read = |text: &str| serde_json::from_str::<Record>(text);
    // Any order; unknown keys (however nested) and skipped fields' keys are ignored.
    assert_eq!(
        read(
            r#"{"tags":["a"],"extra":{"a":[1,{"b":null}],"c":"}"},"cache":[9],"name":"n","id":1}"#
        ),
        Ok(record(1))
    );
    // A repeated key keeps its first value.
    assert_eq!(
        read(r#"{"id":1,"name":"n","id":2,"tags":["a"],"id":"not even a number"}"#),
        Ok(record(1))
    );
    let missing = read(r#"{"id":1,"tags":[]}"#).unwrap_err();
    assert!(
        missing.to_string().contains("missing field `name`"),
        "{missing}"
    );
    assert!(read(r#"{"id":1,"name":"n","tags":[]}   "#).is_ok());
    assert!(read(r#"{"id":1,"name":"n","tags":[]} {}"#).is_err());
    assert!(read(r#"{"id":-1,"name":"n","tags":[]}"#).is_err());
    assert!(read(r#"[1,"n",[]]"#).is_err());

    assert_eq!(serde_json::to_string(&Newtype(5)).unwrap(), "5");
    assert_eq!(serde_json::from_str::<Newtype>("5"), Ok(Newtype(5)));
    assert_eq!(serde_json::to_string(&Triple(1, 2, 3)).unwrap(), "[1,2,3]");
    assert_eq!(
        serde_json::from_str::<Triple>("[1, 2, 3]"),
        Ok(Triple(1, 2, 3))
    );
    assert!(serde_json::from_str::<Triple>("[1,2]").is_err());
    assert!(serde_json::from_str::<Triple>("[1,2,3,4]").is_err());
    assert_eq!(serde_json::to_string(&Unit).unwrap(), "null");
    assert_eq!(serde_json::from_str::<Unit>("null"), Ok(Unit));
}

#[test]
fn derived_enums_are_externally_tagged() {
    let cases = [
        (Shape::Empty, r#""Empty""#),
        (Shape::Wrap(7), r#"{"Wrap":7}"#),
        (Shape::Pair(1, "p".into()), r#"{"Pair":[1,"p"]}"#),
        (Shape::Named { x: -3, y: 0 }, r#"{"Named":{"x":-3}}"#),
    ];
    for (shape, text) in cases {
        assert_eq!(serde_json::to_string(&shape).unwrap(), text);
        assert_eq!(serde_json::from_str::<Shape>(text), Ok(shape));
    }
    assert_eq!(
        serde_json::from_str::<Shape>(r#"{"Named":{"y":9,"x":4}}"#),
        Ok(Shape::Named { x: 4, y: 0 })
    );
    for bad in [
        r#""Wrap""#,
        r#"{"Empty":null}"#,
        r#"{"Wrap":1,"Empty":null}"#,
        r#"{}"#,
        r#""Round""#,
        r#"{"Pair":[1]}"#,
        r#"{"Pair":[1,"p",2]}"#,
        "7",
    ] {
        assert!(serde_json::from_str::<Shape>(bad).is_err(), "{bad}");
    }
}

/// The string loop of the decoder this codec replaced, kept only as an oracle:
/// it decodes one character at a time and, unlike the codec, accepts a high
/// surrogate followed by any `\u` escape. It is quadratic, so inputs stay small.
fn old_parse_string(input: &str) -> Result<String, ()> {
    let bytes = input.as_bytes();
    let hex4 = |pos: &mut usize| -> Result<u32, ()> {
        let hex = bytes.get(*pos..*pos + 4).ok_or(())?;
        let value = u32::from_str_radix(std::str::from_utf8(hex).map_err(drop)?, 16);
        *pos += 4;
        value.map_err(drop)
    };
    if bytes.first() != Some(&b'"') {
        return Err(());
    }
    let mut pos = 1;
    let mut out = String::new();
    loop {
        match bytes.get(pos) {
            None => return Err(()),
            Some(b'"') => {
                pos += 1;
                return if pos == bytes.len() { Ok(out) } else { Err(()) };
            }
            Some(b'\\') => {
                pos += 1;
                match bytes.get(pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        pos += 1;
                        let first = hex4(&mut pos)?;
                        let c = if (0xD800..0xDC00).contains(&first) {
                            if bytes[pos..].starts_with(b"\\u") {
                                pos += 2;
                                let second = hex4(&mut pos)?;
                                let combined = 0x10000
                                    + ((first - 0xD800) << 10)
                                    + (second.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(first)
                        };
                        out.push(c.ok_or(())?);
                        continue;
                    }
                    _ => return Err(()),
                }
                pos += 1;
            }
            Some(_) => {
                let rest = std::str::from_utf8(&bytes[pos..]).map_err(drop)?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
}

/// One generated piece of a string literal's body.
fn piece(kind: u32, r: u32) -> String {
    let pick = |options: &[&str]| options[r as usize % options.len()].to_string();
    let escape = |unit: u32| format!("\\u{unit:04x}");
    let high = 0xD800 + r % 0x400;
    match kind {
        0 => char::from(b' ' + (r % 94) as u8)
            .to_string()
            .replace(['"', '\\'], "q"),
        1 => pick(&["é", "€", "𝄞", "😀", "中", "ß"]),
        2 => pick(&["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"]),
        3 => {
            let unit = r % 0x10000;
            let unit = if (0xD800..0xE000).contains(&unit) {
                unit - 0x800
            } else {
                unit
            };
            let text = escape(unit);
            if r & 1 == 0 {
                text
            } else {
                text.to_uppercase().replace("\\U", "\\u")
            }
        }
        4 => escape(high) + &escape(0xDC00 + (r >> 10) % 0x400),
        5 => escape(high) + "x",
        6 => escape(0xDC00 + r % 0x400),
        7 => char::from((r % 0x20) as u8).to_string(),
        8 => pick(&["\\q", "\\u12g4", "\\U0041", "\\"]),
        9 => escape(high) + &escape([0x41, 0xE000, 0xD800, 0xFFFF, r % 0xDC00][r as usize % 5]),
        _ => escape(high),
    }
}

/// Whether a literal holds a high surrogate escape followed by a `\u` escape that
/// is not a low surrogate: the one input the old loop decoded (wrongly, or with an
/// overflow) and the codec refuses.
fn has_bad_pair(literal: &str) -> bool {
    let bytes = literal.as_bytes();
    let unit_at = |i: usize| -> Option<u32> {
        let hex = bytes.get(i..i + 6)?.strip_prefix(b"\\u")?;
        u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
    };
    let mut i = 0;
    while i < bytes.len() {
        match unit_at(i) {
            Some(0xD800..=0xDBFF) => match unit_at(i + 6) {
                Some(0xDC00..=0xDFFF) => i += 12,
                Some(_) => return true,
                None => i += 6,
            },
            Some(_) => i += 6,
            None if bytes[i] == b'\\' => i += 2,
            None => i += 1,
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn strings_decode_as_the_old_loop_did(
        pieces in collection::vec((0u32..11, any::<u32>()), 0..16)
    ) {
        let body: String = pieces.into_iter().map(|(kind, r)| piece(kind, r)).collect();
        let literal = format!("\"{body}\"");
        let decoded = serde_json::from_str::<String>(&literal).map_err(drop);
        if has_bad_pair(&literal) {
            prop_assert!(decoded.is_err(), "{literal} decodes to {decoded:?}");
        } else {
            prop_assert_eq!(decoded, old_parse_string(&literal), "{}", literal);
        }
    }
}

/// A dataset of a few megabytes round-trips through `io`: decoding is linear in
/// the payload's length (a quadratic string loop took seconds on the 510 KB
/// medium corpus).
#[test]
fn a_multi_megabyte_dataset_round_trips() {
    let config = GeneratorConfig::medium().with_actions(48_000);
    let dataset = MovieLensStyleGenerator::new(config).generate();
    let json = io::to_json(&dataset).unwrap();
    assert!(json.len() > 2 << 20, "{} bytes", json.len());
    let restored = io::from_json(&json).unwrap();
    assert_eq!(restored.actions, dataset.actions);
    assert_eq!(io::to_json(&restored).unwrap(), json);
}
