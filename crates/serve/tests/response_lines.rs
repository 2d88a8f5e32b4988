//! Whole response lines, pinned by digest.
//!
//! The other serve tests compare one renderer with itself (determinism,
//! TCP against stdin, cache on against cache off) or digest only answer
//! text and verdicts. This one pins every byte of every rendered line of
//! a fixed transcript: v1 and v2 asks, scoped asks that cite a machine
//! and a prefetcher, repeated asks served from the answer cache, `open`
//! with a pin, a probe, `close`, unknown sessions, invalid JSON, bad
//! requests, an over-long line, a shutdown ack, and questions and pins
//! carrying `"`, `\`, a newline, control characters and non-ASCII text.
//! A change to how a response is rendered is correct only if this
//! digest holds.
//!
//! A property test then compares [`AskResponse::to_json`], which writes
//! the line directly, with the `serde_json::Value` object rendering it
//! replaced, kept here as the oracle, over random responses: every
//! optional field set and unset, `closed` and the timing field both ways,
//! strings with escapes, control characters and non-ASCII text, and
//! numbers up to `u64::MAX`.

use std::io::Cursor;

use cachemind_core::system::RetrieverKind;
use cachemind_serve::engine::{build_database, ServeConfig, ServeEngine};
use cachemind_serve::load::{synthetic_question, synthetic_question_scoped};
use cachemind_serve::protocol::{AskRequest, AskResponse, Request, MAX_LINE_BYTES};
use cachemind_sim::hash::fnv64;
use cachemind_sim::scenario::ScenarioSelector;
use proptest::prelude::*;
use serde_json::Value;

/// The digest of the rendered transcript, Ranger then Sieve, recorded
/// when the transcript was written.
const LINES_FNV64: &str = "8ccf5d13590198fb";

/// A question with every kind of character JSON must escape, plus
/// non-ASCII text.
const AWKWARD: &str = "Why does PC 0x4013b4 \"miss\" in mcf\\lbm under LRU?\nExplain\u{1}\u{1f} \
                       the ΣΑΣ pattern — 日本語, tab\there.";

/// Questions beyond the synthetic templates.
const FIXED: [&str; 6] = [
    "What is the miss rate of PC 0x999999 in mcf under lru?",
    "How many cache misses did PC 0x401384 cause in the mcf workload under LRU?",
    "What is the average reuse distance of PC 0x401388 for the lbm workload with Belady?",
    "Why does PC 0x4013b4 have a high hit rate in the mcf workload under LRU? Examine the \
     assembly context and analyze the access pattern.",
    "Identify 3 hot and 3 cold sets by hit rate in lbm under Belady.",
    "What does a replacement policy do?",
];

/// A pin whose workload label carries a quote, a bell, a backslash and
/// non-ASCII text: the `open` acknowledgement echoes it back.
const AWKWARD_PIN: &str = "m\"c\u{7}f\\é@table2";

fn engine(retriever: RetrieverKind) -> ServeEngine {
    let config = ServeConfig {
        retriever,
        machines: vec!["table2".into(), "small".into()],
        prefetchers: vec!["stride4".into()],
        threads: Some(1),
        ..ServeConfig::default()
    };
    ServeEngine::over(build_database(&config).expect("store builds"), config)
}

fn selector(text: &str) -> ScenarioSelector {
    ScenarioSelector::parse(text).expect("the transcript's selectors parse")
}

/// Serves `line` and appends its rendered response to `out`.
fn serve(engine: &ServeEngine, line: &str, out: &mut String) -> String {
    let rendered = engine.serve_line(line, false, "stdin", None).rendered;
    out.push_str(&rendered);
    out.push('\n');
    rendered
}

/// The session id a rendered open or session-opening ask assigned.
fn session_of(rendered: &str) -> u64 {
    AskResponse::from_json(rendered).expect("ask-shaped").session
}

/// Runs the fixed transcript against `engine`, returning every rendered
/// line.
fn transcript(engine: &ServeEngine) -> String {
    let mut out = String::new();
    let store = engine.store();
    let ask = |request: AskRequest| Request::Ask(request).to_json();

    // v1: a session-opening ask, then every synthetic template over two
    // workloads, and questions that draw a trick, a count, an arithmetic
    // answer and a free-form analysis with its evidence.
    let first = serve(engine, &ask(AskRequest::new(synthetic_question(store, 0, 0))), &mut out);
    let v1 = session_of(&first);
    let synthetic = (1..12).map(|turn| synthetic_question(store, 0, turn));
    let synthetic = synthetic.chain((0..12).map(|turn| synthetic_question(store, 1, turn)));
    for question in synthetic.chain(FIXED.iter().map(|q| (*q).to_owned())) {
        serve(engine, &ask(AskRequest::in_session(v1, question)), &mut out);
    }

    // v2: per-request scopes citing a machine, a machine and a prefetcher,
    // and a whole canonical selector.
    for (turn, scope) in
        ["@table2+stride4", "@small", "mcf@table2/lru", "+stride4"].iter().enumerate()
    {
        let pin = selector(scope);
        for t in 0..4 {
            let question = synthetic_question_scoped(store, 1, 4 * turn + t, &pin);
            serve(
                engine,
                &ask(AskRequest::in_session(v1, question).with_scenario(pin.clone())),
                &mut out,
            );
        }
    }

    // A pinned session: open, ask, probe, a repeated (cached) ask, close,
    // then every use of the closed id fails in-band.
    let pin = selector("lbm@table2+stride4/lru");
    let opened = serve(
        engine,
        &Request::Open { session: None, scenario: Some(pin.clone()) }.to_json(),
        &mut out,
    );
    let pinned = session_of(&opened);
    for t in 0..4 {
        let question = synthetic_question_scoped(store, 2, t, &pin);
        serve(engine, &ask(AskRequest::in_session(pinned, question)), &mut out);
    }
    serve(engine, &Request::Open { session: Some(pinned), scenario: None }.to_json(), &mut out);
    let repeated = synthetic_question_scoped(store, 2, 0, &pin);
    serve(engine, &ask(AskRequest::in_session(pinned, repeated.clone())), &mut out);
    serve(engine, &Request::Close { session: pinned }.to_json(), &mut out);
    serve(engine, &ask(AskRequest::in_session(pinned, repeated)), &mut out);
    serve(engine, &Request::Close { session: pinned }.to_json(), &mut out);
    serve(engine, &Request::Open { session: Some(pinned), scenario: None }.to_json(), &mut out);
    serve(engine, &ask(AskRequest::in_session(987_654_321, "Is anyone there?")), &mut out);

    // Escapes and non-ASCII text, v1 and v2, opening and in-session, twice
    // each so the second is a cache hit; an unscoped open, then a pin
    // whose echo needs escaping.
    for _ in 0..2 {
        serve(engine, &ask(AskRequest::new(AWKWARD)), &mut out);
        serve(engine, &ask(AskRequest::in_session(v1, AWKWARD)), &mut out);
        let scoped = AskRequest::in_session(v1, AWKWARD).with_scenario(selector("@small+stride4"));
        serve(engine, &ask(scoped), &mut out);
    }
    serve(engine, &Request::Open { session: None, scenario: None }.to_json(), &mut out);
    let opened = serve(
        engine,
        &Request::Open { session: None, scenario: Some(selector(AWKWARD_PIN)) }.to_json(),
        &mut out,
    );
    let awkward = session_of(&opened);
    serve(engine, &ask(AskRequest::in_session(awkward, AWKWARD)), &mut out);
    serve(engine, &Request::Open { session: Some(awkward), scenario: None }.to_json(), &mut out);

    // Invalid JSON and bad requests.
    for line in [
        "{\"question\": ",
        "not json",
        "{\"question\": \"x\"} trailing",
        "[1, 2, 3]",
        "{\"question\": \"\"}",
        "{\"question\": 5}",
        "{\"question\": \"q\", \"protocol_version\": 7}",
        "{\"question\": \"q\", \"protocol_version\": 1, \"scenario\": \"@table2\"}",
        "{\"question\": \"q\", \"scenario\": \"a b\"}",
        "{\"question\": \"q\", \"scenario\": \"mcf@\"}",
        "{\"question\": \"q\", \"session\": -1}",
        "{\"open\": false}",
        "{\"open\": true, \"session\": 1, \"scenario\": \"@small\"}",
        "{\"close\": true}",
        "{\"stats\": 1}",
        "{\"shutdown\": true}",
    ] {
        serve(engine, line, &mut out);
    }

    // An over-long line on the stdin transport, then lines that answer
    // without a wall-clock field that varies (failures report 0 micros).
    let mut input = "x".repeat(MAX_LINE_BYTES + 1).into_bytes();
    input.extend_from_slice(b"\n{\"question\": \n{\"close\": true, \"session\": 424242}\n");
    let mut output = Vec::new();
    engine.serve_stdio(Cursor::new(input), &mut output);
    out.push_str(&String::from_utf8(output).expect("responses are UTF-8"));
    out
}

#[test]
fn rendered_transcript_matches_its_recorded_digest() {
    let mut rendered = String::new();
    for retriever in [RetrieverKind::Ranger, RetrieverKind::Sieve] {
        rendered.push_str(&transcript(&engine(retriever)));
    }
    // The transcript reaches every field and escape it claims to pin.
    for needle in [
        "\"machine\":",
        "\"prefetcher\":\"stride4\"",
        "\"scenario\":",
        "\"closed\":true",
        "\"error_kind\":\"unknown_session\"",
        "\"error_kind\":\"invalid_json\"",
        "\"error_kind\":\"bad_request\"",
        "\"error_kind\":\"line_too_long\"",
        "{\"shutdown\":true}",
        "\\\"",
        "\\\\",
        "\\n",
        "\\u0007",
        "é",
    ] {
        assert!(rendered.contains(needle), "the transcript never renders {needle}");
    }
    assert_eq!(
        format!("{:016x}", fnv64(rendered.as_bytes())),
        LINES_FNV64,
        "over {} lines",
        rendered.lines().count()
    );
}

/// The `Value` object rendering of a response: the oracle for
/// [`AskResponse::to_json`].
fn value_rendering(response: &AskResponse, with_timing: bool) -> String {
    let mut obj = Value::object();
    obj.insert("session", Value::from(response.session));
    obj.insert("turn", Value::from(response.turn));
    let texts = [
        ("answer", &response.answer),
        ("verdict", &response.verdict),
        ("machine", &response.machine),
        ("prefetcher", &response.prefetcher),
        ("scenario", &response.scenario),
    ];
    for (key, text) in texts {
        if let Some(text) = text {
            obj.insert(key, Value::from(text.as_str()));
        }
    }
    if response.closed {
        obj.insert("closed", Value::from(true));
    }
    for (key, text) in [("error", &response.error), ("error_kind", &response.error_kind)] {
        if let Some(text) = text {
            obj.insert(key, Value::from(text.as_str()));
        }
    }
    if with_timing {
        obj.insert("micros", Value::from(response.micros));
    }
    obj.to_string()
}

/// A splitmix64 stream: one generated seed derives a whole response.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A number near an edge of the JSON number rendering, or anywhere.
    fn number(&mut self) -> u64 {
        const EDGES: [u64; 12] = [
            0,
            1,
            9,
            10,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            9_000_000_000_000_001,
            u64::MAX - 1,
            u64::MAX,
        ];
        match self.below(4) {
            0 => EDGES[self.below(EDGES.len() as u64) as usize],
            1 => self.below(1_000_000),
            _ => self.next() >> self.below(64),
        }
    }

    /// A string of characters JSON escapes, control characters, and
    /// one- to four-byte UTF-8 text.
    fn text(&mut self) -> String {
        const CHARS: [char; 16] = [
            '"', '\\', '\n', '\r', '\t', '\0', '\u{1f}', '\u{7f}', 'a', 'Z', ' ', '/', 'é', 'Σ',
            '日', '😀',
        ];
        (0..self.below(24)).map(|_| CHARS[self.below(CHARS.len() as u64) as usize]).collect()
    }

    fn maybe_text(&mut self) -> Option<String> {
        (self.below(2) == 0).then(|| self.text())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn direct_rendering_matches_the_value_rendering(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let response = AskResponse {
            session: mix.number(),
            turn: mix.number() as usize,
            answer: mix.maybe_text(),
            verdict: mix.maybe_text(),
            machine: mix.maybe_text(),
            prefetcher: mix.maybe_text(),
            scenario: mix.maybe_text(),
            closed: mix.below(2) == 0,
            error: mix.maybe_text(),
            error_kind: mix.maybe_text(),
            micros: mix.number(),
        };
        for with_timing in [false, true] {
            let line = response.to_json(with_timing);
            prop_assert_eq!(&line, &value_rendering(&response, with_timing));
            // Sized to the line: exactly, except up to 4 spare bytes per
            // number past 9e15 (16 to 20 digits, 20 reserved).
            let micros = with_timing.then_some(response.micros);
            let numbers = [Some(response.session), Some(response.turn as u64), micros];
            let big = numbers.iter().flatten().filter(|&&n| n >= 9_000_000_000_000_000).count();
            let spare = line.capacity() - line.len();
            prop_assert!(spare <= 4 * big, "{} spare bytes, {} large numbers", spare, big);
        }
    }
}
