//! Reader robustness: every reader of untrusted input returns `Ok` or
//! `Err`, never a panic, on arbitrary bytes, deep nesting, extreme
//! numbers, and truncated, duplicated, swapped or byte-flipped lines of
//! real `rgrow --trace-out` journals (`mp-async` and `--tiles 2x2`).
//! `pgm::read` gets arbitrary headers and bodies.
//!
//! Each reader runs inside `catch_unwind`, so a panic fails the case with
//! the reader's name and the input. A stack overflow or an allocation
//! failure aborts the test binary instead, which fails the suite as
//! plainly.

use proptest::prelude::*;
use rg_core::json::Json;
use rg_core::{
    analyze_journal, chrome_trace, flow_pairing, parse_journal, parse_journal_strict, replay,
    validate_chrome_trace, validate_journal, Event,
};
use rg_imaging::{pgm, Image};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::OnceLock;

/// Runs `f`; a panic becomes an `Err` naming the reader and the input.
/// What the reader itself returns, `Ok` or `Err`, is not judged.
fn no_panic<T>(reader: &str, input: &[u8], f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| {
        let shown = String::from_utf8_lossy(&input[..input.len().min(600)]);
        format!("{reader} panicked on {} bytes: {shown:?}", input.len())
    })
}

/// Feeds `text` to every journal reader. The span, flow, replay, Chrome
/// and analysis readers get every line that parses as an event, so lines
/// after a damaged one still reach them.
fn read_journal(text: &[u8]) -> Result<(), String> {
    let s = String::from_utf8_lossy(text);
    let _ = no_panic("parse_journal", text, || parse_journal(&s))?;
    let _ = no_panic("parse_journal_strict", text, || parse_journal_strict(&s))?;
    let mut events = Vec::new();
    for line in s.lines() {
        let parsed = no_panic("Event::parse_line", line.as_bytes(), || {
            Event::parse_line(line)
        })?;
        events.extend(parsed.ok());
    }
    let _ = no_panic("validate_journal", text, || validate_journal(&events))?;
    let _ = no_panic("flow_pairing", text, || flow_pairing(&events))?;
    let _ = no_panic("replay", text, || replay(&events).to_json())?;
    let _ = no_panic("chrome_trace", text, || {
        validate_chrome_trace(&chrome_trace(&events))
    })?;
    let _ = no_panic("analyze_journal", text, || analyze_journal(&events))?;
    Ok(())
}

/// Parses each line of `text` as one Chrome trace event and validates the
/// document they make.
fn read_chrome(text: &[u8]) -> Result<(), String> {
    let s = String::from_utf8_lossy(text);
    let mut trace_events = Vec::new();
    for line in s.lines() {
        let parsed = no_panic("Json::parse", line.as_bytes(), || Json::parse(line))?;
        trace_events.extend(parsed.ok());
    }
    let doc = Json::obj(vec![("traceEvents", Json::Arr(trace_events))]);
    let _ = no_panic("validate_chrome_trace", text, || {
        validate_chrome_trace(&doc)
    })?;
    Ok(())
}

/// `pgm::read` at both pixel widths.
fn read_pgm(bytes: &[u8]) -> Result<(), String> {
    let _ = no_panic("pgm::read::<u8>", bytes, || {
        pgm::read::<u8, _>(bytes).map(|img: Image<u8>| img.width())
    })?;
    let _ = no_panic("pgm::read::<u16>", bytes, || {
        pgm::read::<u16, _>(bytes).map(|img: Image<u16>| img.width())
    })?;
    Ok(())
}

/// Lines of the real journals, plus their Chrome trace events one per
/// line: `[mp-async journal, tiled journal, mp-async Chrome, tiled
/// Chrome]`.
fn corpora() -> &'static [Vec<Vec<u8>>; 4] {
    static CORPORA: OnceLock<[Vec<Vec<u8>>; 4]> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("prop_readers_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = |name: &str, flags: &[&str]| -> String {
            let path = dir.join(name);
            let out = Command::new(env!("CARGO_BIN_EXE_rgrow"))
                .args(["--demo", "image3", "--trace-out"])
                .arg(&path)
                .args(flags)
                .output()
                .expect("spawn rgrow");
            assert!(out.status.success(), "rgrow {flags:?} failed");
            std::fs::read_to_string(&path).unwrap()
        };
        let lines =
            |text: &str| -> Vec<Vec<u8>> { text.lines().map(|l| l.as_bytes().to_vec()).collect() };
        let chrome = |text: &str| -> Vec<Vec<u8>> {
            let events = parse_journal_strict(text).expect("rgrow journal parses");
            let doc = chrome_trace(&events);
            validate_chrome_trace(&doc).expect("rgrow Chrome trace validates");
            let trace_events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
            trace_events
                .iter()
                .map(|e| e.to_compact().into_bytes())
                .collect()
        };
        let mp = journal("mp.jsonl", &["--engine", "mp-async", "--nodes", "4"]);
        let tiled = journal("tiled.jsonl", &["--tiles", "2x2"]);
        [lines(&mp), lines(&tiled), chrome(&mp), chrome(&tiled)]
    })
}

/// Numbers a mutation substitutes for a digit run: past `u64` and `u32`,
/// negative, fractional, overflowing `f64`, and malformed.
const EXTREME_NUMBERS: &[&str] = &[
    "18446744073709551615",
    "18446744073709551616",
    "4294967295",
    "4294967296",
    "99999999999999999999999999",
    "-1",
    "-9223372036854775809",
    "-0",
    "0.5",
    "-2.5",
    "1e308",
    "1e309",
    "-1e309",
    "5e-324",
    "1.7976931348623157e308",
    "0",
    "1e",
    "--1",
    "0x10",
];

/// Applies one mutation, chosen by `op`, at positions drawn from `a` and
/// `b`, to a window of journal lines.
fn mutate(lines: &mut Vec<Vec<u8>>, op: u8, a: u64, b: u64) {
    if lines.is_empty() {
        return;
    }
    let i = (a % lines.len() as u64) as usize;
    let j = (b % lines.len() as u64) as usize;
    let at = |len: usize| {
        if len == 0 {
            0
        } else {
            (b % len as u64) as usize
        }
    };
    match op {
        // Truncate one line.
        0 => {
            let k = at(lines[i].len());
            lines[i].truncate(k);
        }
        // Duplicate one line.
        1 => {
            let line = lines[i].clone();
            lines.insert(j, line);
        }
        // Swap two lines.
        2 => lines.swap(i, j),
        // Flip bits of one byte.
        3 => {
            let k = at(lines[i].len());
            if let Some(byte) = lines[i].get_mut(k) {
                *byte ^= (a >> 32) as u8 | 1;
            }
        }
        // Replace a digit run with an extreme number.
        4 => {
            let line = &lines[i];
            let starts: Vec<usize> = (0..line.len())
                .filter(|&k| line[k].is_ascii_digit() && (k == 0 || !line[k - 1].is_ascii_digit()))
                .collect();
            if !starts.is_empty() {
                let s = starts[(b % starts.len() as u64) as usize];
                let e = (s..line.len())
                    .find(|&k| !line[k].is_ascii_digit())
                    .unwrap_or(line.len());
                let n = EXTREME_NUMBERS[((a >> 32) % EXTREME_NUMBERS.len() as u64) as usize];
                lines[i].splice(s..e, n.bytes());
            }
        }
        // Delete one line.
        5 => {
            lines.remove(i);
        }
        // Nest a value deeply: cut the line after a `:` and open brackets.
        6 => {
            if let Some(k) = lines[i].iter().rposition(|&c| c == b':') {
                lines[i].truncate(k + 1);
                let depth = 1 + (a >> 40) as usize % 400;
                lines[i].extend(std::iter::repeat_n(b'[', depth));
            }
        }
        // Truncate the whole window mid-line (a torn final write).
        _ => {
            lines.truncate(i + 1);
            let k = at(lines[i].len());
            lines[i].truncate(k);
        }
    }
}

/// A window of up to `len` consecutive lines of `corpus` from `start`,
/// optionally preceded by the corpus's first line (the `run_start`
/// header), with `ops` applied, joined back into one text.
fn mutated_window(
    corpus: &[Vec<u8>],
    start: u64,
    len: usize,
    header: bool,
    ops: &[(u8, u64, u64)],
) -> Vec<u8> {
    let s = (start % corpus.len() as u64) as usize;
    let mut lines: Vec<Vec<u8>> = Vec::new();
    if header && s > 0 {
        lines.push(corpus[0].clone());
    }
    lines.extend(corpus[s..(s + len).min(corpus.len())].iter().cloned());
    for &(op, a, b) in ops {
        mutate(&mut lines, op, a, b);
    }
    lines.join(&b'\n')
}

/// JSON-ish tokens for the token-soup inputs.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\"ev\"",
    "\"b\"",
    "\"e\"",
    "\"span\"",
    "\"run\"",
    "\"t_us\"",
    "\"flow\"",
    "\"hist\"",
    "\"buckets\"",
    "\"traceEvents\"",
    "\"ph\"",
    "\"X\"",
    "0",
    "1",
    "-1",
    "1e999",
    "0.5",
    "18446744073709551616",
    "true",
    "false",
    "null",
    "\n",
    " ",
    "\"\\u0000\"",
    "\"\\ud800\"",
    "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Windows of real journals under one to four mutations.
    #[test]
    fn mutated_journal_windows_never_panic(
        which in 0usize..2,
        start in any::<u64>(),
        len in 1usize..60,
        header in proptest::bool::ANY,
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..5),
    ) {
        let text = mutated_window(&corpora()[which], start, len, header, &ops);
        read_journal(&text)?;
    }

    /// Windows of the same runs' Chrome trace events under the same
    /// mutations.
    #[test]
    fn mutated_chrome_windows_never_panic(
        which in 2usize..4,
        start in any::<u64>(),
        len in 1usize..60,
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..5),
    ) {
        let text = mutated_window(&corpora()[which], start, len, false, &ops);
        read_chrome(&text)?;
    }

    /// Arbitrary bytes and JSON token soup, to every reader.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..120),
    ) {
        let soup: Vec<u8> = tokens.iter().flat_map(|&t| TOKENS[t].bytes()).collect();
        for input in [&bytes, &soup] {
            read_journal(input)?;
            read_chrome(input)?;
            read_pgm(input)?;
        }
    }

    /// Deep nesting, bare and inside a journal line's value.
    #[test]
    fn deep_nesting_never_panics(
        depth in 0usize..5_000,
        shape in 0usize..4,
        closed in proptest::bool::ANY,
    ) {
        let (open, close) = [("[", "]"), ("{\"a\":", "}"), ("[{\"a\":", "}]"), ("{\"ev\":", "}")][shape];
        let mut value = open.repeat(depth);
        if closed {
            value.push('0');
            value.push_str(&close.repeat(depth));
        }
        let line = format!("{{\"ev\":\"histogram\",\"t_us\":1,\"name\":\"x\",\"hist\":{value}}}");
        for input in [value.as_bytes(), line.as_bytes()] {
            read_journal(input)?;
            read_chrome(input)?;
        }
    }
}

/// Header fields a PGM case draws from: valid, zero, past `u32`,
/// negative, fractional and non-numeric.
const PGM_FIELDS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "255",
    "256",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "-1",
    "1.5",
    "abc",
    "",
    "#c\n4",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary PGM headers over arbitrary binary or ASCII bodies.
    #[test]
    fn arbitrary_pgm_never_panics(
        magic in 0usize..5,
        fields in (0usize..PGM_FIELDS.len(), 0usize..PGM_FIELDS.len(), 0usize..PGM_FIELDS.len()),
        ascii in proptest::bool::ANY,
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let magic = ["P2", "P5", "P6", "P", ""][magic];
        let (w, h, max) = (PGM_FIELDS[fields.0], PGM_FIELDS[fields.1], PGM_FIELDS[fields.2]);
        let mut bytes = format!("{magic}\n{w} {h}\n{max}\n").into_bytes();
        if ascii {
            for b in &body {
                bytes.extend(format!("{b} ").bytes());
            }
        } else {
            bytes.extend_from_slice(&body);
        }
        read_pgm(&bytes)?;
    }
}

/// Every whole journal, unmutated and with one mutation at each of a few
/// spread positions: the readers see complete runs, flows and all.
#[test]
fn whole_journals_with_one_mutation_never_panic() {
    for corpus in &corpora()[..2] {
        read_journal(&corpus.join(&b'\n')).unwrap();
        for op in 0u8..8 {
            let a = u64::from(op) * 7_919 + 13;
            let text = mutated_window(corpus, 0, corpus.len(), false, &[(op, a, a >> 1)]);
            read_journal(&text).unwrap();
        }
    }
}
