//! Fuzz-style hardening suite for the hand-rolled JSON layer.
//!
//! The `fl-flpd` daemon feeds *untrusted network bytes* into
//! `fl_telemetry::json::parse` (via the frame layer), so the parser's
//! contract is strict: on any input it must return `Ok` or `Err` — never
//! panic, never overflow the stack, never allocate proportionally to a
//! declared-but-absent size. These tests throw truncations, deep nesting,
//! huge numbers, malformed escapes, and seeded random mutations at it.

use std::time::{Duration, Instant};

use fl_telemetry::json::{self, Json};

/// SplitMix64 — deterministic mutation source (no dependency on the rand
/// shim so the byte streams are pinned forever).
struct Mix(u64);

impl Mix {
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

/// A representative well-formed document (nested objects, arrays, floats,
/// escapes) used as the mutation base.
fn base_doc() -> String {
    json::object(&[
        ("op".into(), json::string("bid")),
        ("price".into(), json::number(12.625)),
        ("theta".into(), json::number(0.55)),
        ("window".into(), json::array(&["1".into(), "9".into()])),
        (
            "note".into(),
            json::string("quote \" backslash \\ newline \n unicode é"),
        ),
        (
            "nested".into(),
            json::object(&[(
                "deep".into(),
                json::array(&[json::object(&[("x".into(), "null".into())])]),
            )]),
        ),
    ])
}

#[test]
fn every_truncation_of_a_valid_document_errs_or_parses() {
    let doc = base_doc();
    for cut in 0..doc.len() {
        // Cut on a char boundary only (parse takes &str).
        if !doc.is_char_boundary(cut) {
            continue;
        }
        let prefix = &doc[..cut];
        // Must not panic; a proper prefix of this doc is never valid JSON
        // except the empty-adjacent cases the parser rejects anyway.
        let _ = json::parse(prefix);
        let _ = json::validate(prefix);
    }
}

#[test]
fn deep_nesting_is_rejected_not_a_stack_overflow() {
    // 64 kB of '[' — without the depth cap this would recurse 65536
    // frames deep and abort the process.
    let deep_arrays = "[".repeat(65_536);
    assert!(json::parse(&deep_arrays).is_err());
    assert!(json::validate(&deep_arrays).is_err());

    let deep_objects = "{\"k\":".repeat(65_536);
    assert!(json::parse(&deep_objects).is_err());
    assert!(json::validate(&deep_objects).is_err());

    // Mixed nesting just below the cap still parses.
    let mut ok = String::new();
    let levels = json::MAX_DEPTH;
    for _ in 0..levels {
        ok.push('[');
    }
    ok.push('1');
    for _ in 0..levels {
        ok.push(']');
    }
    json::parse(&ok).unwrap_or_else(|e| panic!("depth {levels} should parse: {e}"));

    // One past the cap fails with the depth message.
    let too_deep = format!("[{ok}]");
    let err = json::parse(&too_deep).unwrap_err();
    assert!(err.contains("nesting deeper"), "{err}");
}

#[test]
fn huge_and_degenerate_numbers_never_panic() {
    for text in [
        "1e999",
        "-1e999",
        "1e-999",
        "123456789012345678901234567890123456789012345678901234567890",
        "-0.000000000000000000000000000000000000000000000000000000001",
        "9007199254740993",
        "2.2250738585072011e-308", // the classic strtod hang input
        "1e308",
        "-1e-308",
    ] {
        match json::parse(text) {
            Ok(Json::Num(_)) | Err(_) => {}
            other => panic!("{text}: unexpected {other:?}"),
        }
        let _ = json::validate(text);
    }
    // Overflow to infinity is representable input; re-encoding maps it to
    // null (JSON has no Inf) rather than emitting an invalid token.
    if let Ok(Json::Num(x)) = json::parse("1e999") {
        assert!(x.is_infinite());
        assert_eq!(json::number(x), "null");
    }
}

#[test]
fn malformed_escapes_and_strings_err_cleanly() {
    for bad in [
        r#""\q""#,         // unknown escape
        r#""\u""#,         // truncated \u
        r#""\u12""#,       // short hex
        r#""\u12g4""#,     // non-hex digit
        r#""\u+123""#,     // sign before the hex digits
        r#""\u+0041""#,    // sign, then four hex digits
        r#""\"#,           // escape at end of input
        "\"unterminated",  // no closing quote
        "\"raw\u{1}ctl\"", // raw control byte in string
        r#"{"k""v"}"#,     // missing colon
        r#"{"k":1,,}"#,    // double comma
        "[1,2",            // unterminated array
        "{\"a\":1",        // unterminated object
        "tru",             // cut literal
        "nullx",           // trailing garbage on literal
    ] {
        assert!(json::parse(bad).is_err(), "{bad:?} should fail");
        assert!(json::validate(bad).is_err(), "{bad:?} should fail");
    }
}

#[test]
fn lone_surrogate_escapes_decode_to_replacement_not_panic() {
    // \ud800 is an unpaired surrogate — not a valid scalar value. The
    // parser maps it to U+FFFD (it can't come from our encoder anyway).
    let v = json::parse(r#""\ud800 tail""#).unwrap();
    assert_eq!(v.as_str(), Some("\u{fffd} tail"));
}

#[test]
fn seeded_random_mutations_never_panic() {
    let doc = base_doc().into_bytes();
    let mut rng = Mix(0xf1_d0);
    for _ in 0..20_000 {
        let mut bytes = doc.clone();
        // 1–4 random byte edits: overwrite, delete, or duplicate.
        for _ in 0..1 + rng.below(4) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.below(bytes.len());
            match rng.below(3) {
                0 => bytes[at] = (rng.next() & 0xff) as u8,
                1 => {
                    bytes.remove(at);
                }
                _ => {
                    let b = bytes[at];
                    bytes.insert(at, b);
                }
            }
        }
        // Untrusted wire bytes are UTF-8-checked before parsing (the
        // frame layer rejects non-UTF-8); mirror that here.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = json::parse(text);
            let _ = json::validate(text);
        }
    }
}

#[test]
fn seeded_random_garbage_never_panics() {
    let mut rng = Mix(0xbeef);
    for len in [0usize, 1, 2, 3, 7, 32, 512] {
        for _ in 0..2_000 {
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0x7f) as u8).collect();
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = json::parse(text);
                let _ = json::validate(text);
            }
        }
    }
}

/// Reading a string is linear in its length: a 1 MiB string parses well
/// under a second even in a debug build (the reader once re-validated the
/// rest of the document for every character, about 25 s in release).
#[test]
fn a_one_mebibyte_string_parses_in_linear_time() {
    let piece = "plain ascii, then é and an escaped \" quote; ";
    let payload = piece.repeat((1 << 20) / piece.len() + 1);
    let text = json::string(&payload);
    let started = Instant::now();
    let parsed = json::parse(&text).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(parsed.as_str(), Some(payload.as_str()));
    assert!(
        elapsed < Duration::from_secs(1),
        "1 MiB string took {elapsed:?}"
    );
}

#[test]
fn whitespace_padding_extremes_parse() {
    let padded = format!("{}{}{}", " \t\n\r".repeat(10_000), "42", " ".repeat(10_000));
    assert_eq!(json::parse(&padded).unwrap().as_f64(), Some(42.0));
}
