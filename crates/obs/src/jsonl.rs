//! JSONL (one JSON object per line) serialization of [`Event`]s.
//!
//! The writer emits keys in a fixed order and uses Rust's shortest-
//! roundtrip `f64` formatting, so a seeded run produces byte-identical
//! output across invocations. The reader is a minimal, dependency-free
//! JSON parser covering exactly the grammar the writer emits (which is
//! full RFC 8259 minus nothing we use: objects, arrays, strings with
//! escapes, numbers, booleans, null).

use crate::event::{
    CandidateSnapshot, ConsistencyClass, DecisionBranch, DecisionEvent, Event, EventKind,
    FailReason, PlacementActionEvent, PlacementActionKind, ProviderUpdateEvent, ResetCause,
    UpdateDeliveredEvent,
};
use std::fmt;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------
//
// All serialization appends to a caller-owned `String`, so a recorder
// that reuses its line buffer serializes events with zero heap
// allocations. Integers go through a digit writer and floats through
// an exact fast path (see `push_f64`) rather than `core::fmt`, which
// costs several times more per value; the bytes are the same.

fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Interned tags contain no characters needing escapes, so they skip
/// the per-character scan.
fn push_tag(out: &mut String, tag: &'static str) {
    out.push('"');
    out.push_str(tag);
    out.push('"');
}

/// Appends `key` (a literal `,"name":` fragment) then the integer.
fn push_field(out: &mut String, key: &str, v: impl Into<u64>) {
    out.push_str(key);
    push_u64(out, v.into());
}

/// Appends the decimal digits of `v`, as `{v}` would.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ascii digits"));
}

/// Appends `v` as `{v}` would, or `null` when it is not finite.
///
/// Fast path: when `v` is the double nearest a multiple of 10⁻⁶ below
/// 10⁹ in magnitude — every `SimTime` in seconds, and the protocol's
/// constants — the digits are written directly. That decimal has at
/// most 15 significant digits, and a double nearest such a decimal
/// has it as its unique shortest round-trip representation, which is
/// exactly what `Display` prints. Any other value falls back to `{v}`.
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let Some(micros) = exact_micros(v) else {
        let _ = write!(out, "{v}");
        return;
    };
    if v.is_sign_negative() {
        out.push('-');
    }
    push_u64(out, micros / 1_000_000);
    let mut frac = micros % 1_000_000;
    if frac != 0 {
        let mut digits = *b".000000";
        let mut end = digits.len();
        while frac % 10 == 0 {
            frac /= 10;
            end -= 1;
        }
        let mut i = end;
        while frac != 0 {
            i -= 1;
            digits[i] = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        out.push_str(std::str::from_utf8(&digits[..end]).expect("ascii digits"));
    }
}

/// `|s|` for `s = round(v·10⁶)` when `|s| < 10¹⁵` and `s / 10⁶ == v`,
/// i.e. when `v` is the double nearest the decimal `s·10⁻⁶`.
fn exact_micros(v: f64) -> Option<u64> {
    let s = (v * 1e6).round();
    (s.abs() < 1e15 && s / 1e6 == v).then_some(s.abs() as u64)
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => push_u64(out, v),
        None => out.push_str("null"),
    }
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

fn push_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

impl Event {
    /// Serializes the event as one JSON object (no trailing newline).
    ///
    /// Key order is fixed per event type, so identical event sequences
    /// serialize byte-identically. Convenience wrapper around
    /// [`write_json_line`](Self::write_json_line).
    pub fn to_json_line(&self) -> String {
        let mut o = String::with_capacity(128);
        self.write_json_line(&mut o);
        o
    }

    /// Serializes the event into a caller-owned buffer (appended; no
    /// trailing newline). Reusing the buffer across events makes the
    /// serialization path allocation-free once its capacity plateaus.
    pub fn write_json_line(&self, o: &mut String) {
        push_field(o, "{\"seq\":", self.seq);
        o.push_str(",\"t\":");
        push_f64(o, self.t);
        o.push_str(",\"parent\":");
        push_opt_u64(o, self.parent);
        push_field(o, ",\"qd\":", self.queue_depth);
        o.push_str(",\"type\":\"");
        o.push_str(self.type_name());
        o.push('"');
        match &self.kind {
            EventKind::RequestArrived { gateway, object } => {
                push_field(o, ",\"gateway\":", *gateway);
                push_field(o, ",\"object\":", *object);
            }
            EventKind::Decision(d) => {
                push_field(o, ",\"object\":", d.object);
                push_field(o, ",\"gateway\":", d.gateway);
                push_field(o, ",\"chosen\":", d.chosen);
                o.push_str(",\"branch\":");
                push_tag(o, d.branch.as_str());
                o.push_str(",\"constant\":");
                push_f64(o, d.constant);
                o.push_str(",\"closest\":");
                push_opt_u64(o, d.closest.map(u64::from));
                o.push_str(",\"least\":");
                push_opt_u64(o, d.least.map(u64::from));
                o.push_str(",\"unit_closest\":");
                push_opt_f64(o, d.unit_closest);
                o.push_str(",\"unit_least\":");
                push_opt_f64(o, d.unit_least);
                o.push_str(",\"candidates\":[");
                for (i, c) in d.candidates.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    push_field(o, "{\"host\":", c.host);
                    push_field(o, ",\"rcnt\":", c.rcnt);
                    push_field(o, ",\"aff\":", c.aff);
                    o.push_str(",\"unit\":");
                    push_f64(o, c.unit);
                    push_field(o, ",\"distance\":", c.distance);
                    o.push('}');
                }
                o.push(']');
            }
            EventKind::RequestServed {
                gateway,
                object,
                host,
                latency,
                hops,
            } => {
                push_field(o, ",\"gateway\":", *gateway);
                push_field(o, ",\"object\":", *object);
                push_field(o, ",\"host\":", *host);
                o.push_str(",\"latency\":");
                push_f64(o, *latency);
                push_field(o, ",\"hops\":", *hops);
            }
            EventKind::RequestFailed {
                gateway,
                object,
                reason,
            } => {
                push_field(o, ",\"gateway\":", *gateway);
                push_field(o, ",\"object\":", *object);
                o.push_str(",\"reason\":");
                push_tag(o, reason.as_str());
            }
            EventKind::PlacementAction(p) => {
                push_field(o, ",\"host\":", p.host);
                push_field(o, ",\"object\":", p.object);
                o.push_str(",\"action\":");
                push_tag(o, p.action.as_str());
                o.push_str(",\"target\":");
                push_opt_u64(o, p.target.map(u64::from));
                o.push_str(",\"unit_rate\":");
                push_f64(o, p.unit_rate);
                o.push_str(",\"share\":");
                push_opt_f64(o, p.share);
                o.push_str(",\"ratio\":");
                push_opt_f64(o, p.ratio);
                o.push_str(",\"u\":");
                push_f64(o, p.deletion_threshold);
                o.push_str(",\"m\":");
                push_f64(o, p.replication_threshold);
            }
            EventKind::CountsReset { object, cause } => {
                push_field(o, ",\"object\":", *object);
                o.push_str(",\"cause\":");
                push_tag(o, cause.as_str());
            }
            EventKind::Fault { desc } => {
                o.push_str(",\"desc\":");
                push_str_escaped(o, desc);
            }
            EventKind::ReReplication {
                object,
                target,
                elapsed,
            } => {
                push_field(o, ",\"object\":", *object);
                push_field(o, ",\"target\":", *target);
                o.push_str(",\"elapsed\":");
                push_f64(o, *elapsed);
            }
            EventKind::ProviderUpdate(u) => {
                push_field(o, ",\"object\":", u.object);
                o.push_str(",\"class\":");
                push_tag(o, u.class.as_str());
                push_field(o, ",\"version\":", u.version);
                push_field(o, ",\"primary\":", u.primary);
                push_field(o, ",\"targets\":", u.targets);
                push_field(o, ",\"bytes_hops\":", u.bytes_hops);
                o.push_str(",\"reassigned\":");
                push_bool(o, u.reassigned);
            }
            EventKind::UpdateDelivered(u) => {
                push_field(o, ",\"object\":", u.object);
                push_field(o, ",\"host\":", u.host);
                o.push_str(",\"class\":");
                push_tag(o, u.class.as_str());
                push_field(o, ",\"version\":", u.version);
                o.push_str(",\"lag\":");
                push_f64(o, u.lag);
                o.push_str(",\"wasted\":");
                push_bool(o, u.wasted);
            }
        }
        o.push('}');
    }
}

/// Per-severity tally of events the recorder ring evicted before the
/// log was written, serialized as the optional final
/// `{"type":"evictions",…}` trailer line of a JSONL document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionSummary {
    /// Routine events (request/decision/served) evicted.
    pub routine: u64,
    /// Notable events (counts-reset) evicted.
    pub notable: u64,
    /// Critical events (failed/placement/fault/re-replication) evicted.
    pub critical: u64,
}

impl EvictionSummary {
    /// Total events evicted across all severities.
    pub fn total(&self) -> u64 {
        self.routine + self.notable + self.critical
    }

    /// Serializes the trailer as one JSON object (no trailing newline),
    /// with the same fixed key order every time.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"type\":\"evictions\",\"routine\":{},\"notable\":{},\"critical\":{}}}",
            self.routine, self.notable, self.critical
        )
    }
}

/// Reorder-buffer statistics from a sharded run, serialized as an
/// optional `{"type":"reorder",…}` trailer line of a JSONL document.
///
/// These are *operational* metadata, like wall-clock time: the event
/// stream itself is byte-identical to a serial run's, but how hard the
/// [`crate::EventReorderBuffer`] had to work to make it so depends on
/// thread timing. Serial runs never write this trailer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Total recorder sequence numbers reserved for deferred decisions.
    pub reserved: u64,
    /// Peak count of reserved seqs outstanding at once.
    pub max_in_flight: u64,
    /// High-water mark of events held by the reorder buffer.
    pub max_held: u64,
    /// Completed reorder episodes (buffer drained after holding an
    /// out-of-order event).
    pub drains: u64,
}

impl ReorderStats {
    /// Serializes the trailer as one JSON object (no trailing newline),
    /// with the same fixed key order every time.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"type\":\"reorder\",\"reserved\":{},\"max_in_flight\":{},\"max_held\":{},\"drains\":{}}}",
            self.reserved, self.max_in_flight, self.max_held, self.drains
        )
    }
}

/// A parsed JSONL document: the events plus the eviction trailer, when
/// the recorder ring lost anything before the log was written, and the
/// reorder trailer, when the run was sharded.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    /// The recorded events, in file order.
    pub events: Vec<Event>,
    /// The `{"type":"evictions",…}` trailer, if present.
    pub evictions: Option<EvictionSummary>,
    /// The `{"type":"reorder",…}` trailer, if present (sharded runs).
    pub reorder: Option<ReorderStats>,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Error from parsing a JSONL event line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Minimal JSON document model for the reader side.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Val> {
        match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn u64(&self) -> Option<u64> {
        match self {
            Val::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Val, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => self.literal("true", Val::Bool(true)),
            Some(b'f') => self.literal("false", Val::Bool(false)),
            Some(b'n') => self.literal("null", Val::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, val: Val) -> Result<Val, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Val, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        match text.parse::<f64>() {
            Ok(v) => Ok(Val::Num(v)),
            Err(_) => err(format!("bad number {text:?}")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return err("bad \\u escape"),
                            }
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| ParseError("invalid utf-8".into()))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Val, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                _ => return err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Val, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Val::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(fields));
                }
                _ => return err("expected ',' or '}'"),
            }
        }
    }
}

fn need<'a>(v: &'a Val, key: &str) -> Result<&'a Val, ParseError> {
    match v.get(key) {
        Some(f) => Ok(f),
        None => err(format!("missing field {key:?}")),
    }
}

fn need_u64(v: &Val, key: &str) -> Result<u64, ParseError> {
    match need(v, key)?.u64() {
        Some(n) => Ok(n),
        None => err(format!("field {key:?} is not an unsigned integer")),
    }
}

fn need_u32(v: &Val, key: &str) -> Result<u32, ParseError> {
    u32::try_from(need_u64(v, key)?).map_err(|_| ParseError(format!("field {key:?} overflows u32")))
}

fn need_u16(v: &Val, key: &str) -> Result<u16, ParseError> {
    u16::try_from(need_u64(v, key)?).map_err(|_| ParseError(format!("field {key:?} overflows u16")))
}

fn need_f64(v: &Val, key: &str) -> Result<f64, ParseError> {
    match need(v, key)? {
        Val::Num(n) => Ok(*n),
        Val::Null => Ok(f64::NAN),
        _ => err(format!("field {key:?} is not a number")),
    }
}

fn need_bool(v: &Val, key: &str) -> Result<bool, ParseError> {
    match need(v, key)? {
        Val::Bool(b) => Ok(*b),
        _ => err(format!("field {key:?} is not a boolean")),
    }
}

fn need_str(v: &Val, key: &str) -> Result<String, ParseError> {
    match need(v, key)?.str() {
        Some(s) => Ok(s.to_string()),
        None => err(format!("field {key:?} is not a string")),
    }
}

/// Decodes an interned-tag field, rejecting tags outside the closed
/// vocabulary so a corrupted log fails loudly instead of folding into a
/// catch-all value.
fn need_tag<T>(v: &Val, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, ParseError> {
    let s = match need(v, key)?.str() {
        Some(s) => s,
        None => return err(format!("field {key:?} is not a string")),
    };
    match parse(s) {
        Some(t) => Ok(t),
        None => err(format!("field {key:?} has unknown tag {s:?}")),
    }
}

fn opt_u16(v: &Val, key: &str) -> Result<Option<u16>, ParseError> {
    match v.get(key) {
        None | Some(Val::Null) => Ok(None),
        Some(f) => match f.u64() {
            Some(n) => u16::try_from(n)
                .map(Some)
                .map_err(|_| ParseError(format!("field {key:?} overflows u16"))),
            None => err(format!("field {key:?} is not an unsigned integer")),
        },
    }
}

fn opt_f64(v: &Val, key: &str) -> Result<Option<f64>, ParseError> {
    match v.get(key) {
        None | Some(Val::Null) => Ok(None),
        Some(Val::Num(n)) => Ok(Some(*n)),
        Some(_) => err(format!("field {key:?} is not a number")),
    }
}

impl Event {
    /// Parses one JSONL line produced by
    /// [`to_json_line`](Self::to_json_line).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformed or
    /// missing field.
    pub fn from_json_line(line: &str) -> Result<Self, ParseError> {
        Self::from_val(&parse_root(line)?)
    }

    /// Builds an event from an already-parsed JSON object.
    fn from_val(root: &Val) -> Result<Self, ParseError> {
        let root = root.clone();
        let seq = need_u64(&root, "seq")?;
        let t = need_f64(&root, "t")?;
        let parent = match root.get("parent") {
            None | Some(Val::Null) => None,
            Some(f) => match f.u64() {
                Some(n) => Some(n),
                None => return err("field \"parent\" is not an unsigned integer"),
            },
        };
        let queue_depth = need_u32(&root, "qd")?;
        let kind_tag = need_str(&root, "type")?;
        let kind = match kind_tag.as_str() {
            "request" => EventKind::RequestArrived {
                gateway: need_u16(&root, "gateway")?,
                object: need_u32(&root, "object")?,
            },
            "decision" => {
                let raw = match need(&root, "candidates")? {
                    Val::Arr(items) => items.clone(),
                    _ => return err("field \"candidates\" is not an array"),
                };
                let mut candidates = Vec::with_capacity(raw.len());
                for c in &raw {
                    candidates.push(CandidateSnapshot {
                        host: need_u16(c, "host")?,
                        rcnt: need_u64(c, "rcnt")?,
                        aff: need_u32(c, "aff")?,
                        unit: need_f64(c, "unit")?,
                        distance: need_u32(c, "distance")?,
                    });
                }
                EventKind::Decision(DecisionEvent {
                    object: need_u32(&root, "object")?,
                    gateway: need_u16(&root, "gateway")?,
                    chosen: need_u16(&root, "chosen")?,
                    branch: need_tag(&root, "branch", DecisionBranch::from_tag)?,
                    constant: need_f64(&root, "constant")?,
                    closest: opt_u16(&root, "closest")?,
                    least: opt_u16(&root, "least")?,
                    unit_closest: opt_f64(&root, "unit_closest")?,
                    unit_least: opt_f64(&root, "unit_least")?,
                    candidates,
                })
            }
            "served" => EventKind::RequestServed {
                gateway: need_u16(&root, "gateway")?,
                object: need_u32(&root, "object")?,
                host: need_u16(&root, "host")?,
                latency: need_f64(&root, "latency")?,
                hops: need_u32(&root, "hops")?,
            },
            "failed" => EventKind::RequestFailed {
                gateway: need_u16(&root, "gateway")?,
                object: need_u32(&root, "object")?,
                reason: need_tag(&root, "reason", FailReason::from_tag)?,
            },
            "placement" => EventKind::PlacementAction(PlacementActionEvent {
                host: need_u16(&root, "host")?,
                object: need_u32(&root, "object")?,
                action: need_tag(&root, "action", PlacementActionKind::from_tag)?,
                target: opt_u16(&root, "target")?,
                unit_rate: need_f64(&root, "unit_rate")?,
                share: opt_f64(&root, "share")?,
                ratio: opt_f64(&root, "ratio")?,
                deletion_threshold: need_f64(&root, "u")?,
                replication_threshold: need_f64(&root, "m")?,
            }),
            "counts-reset" => EventKind::CountsReset {
                object: need_u32(&root, "object")?,
                cause: need_tag(&root, "cause", ResetCause::from_tag)?,
            },
            "fault" => EventKind::Fault {
                desc: need_str(&root, "desc")?,
            },
            "re-replication" => EventKind::ReReplication {
                object: need_u32(&root, "object")?,
                target: need_u16(&root, "target")?,
                elapsed: need_f64(&root, "elapsed")?,
            },
            "provider-update" => EventKind::ProviderUpdate(ProviderUpdateEvent {
                object: need_u32(&root, "object")?,
                class: need_tag(&root, "class", ConsistencyClass::from_tag)?,
                version: need_u64(&root, "version")?,
                primary: need_u16(&root, "primary")?,
                targets: need_u16(&root, "targets")?,
                bytes_hops: need_u64(&root, "bytes_hops")?,
                reassigned: need_bool(&root, "reassigned")?,
            }),
            "update-delivered" => EventKind::UpdateDelivered(UpdateDeliveredEvent {
                object: need_u32(&root, "object")?,
                host: need_u16(&root, "host")?,
                class: need_tag(&root, "class", ConsistencyClass::from_tag)?,
                version: need_u64(&root, "version")?,
                lag: need_f64(&root, "lag")?,
                wasted: need_bool(&root, "wasted")?,
            }),
            other => return err(format!("unknown event type {other:?}")),
        };
        Ok(Event {
            seq,
            parent,
            t,
            queue_depth,
            kind,
        })
    }
}

/// Parses one line into the JSON document model, rejecting trailing
/// garbage.
fn parse_root(line: &str) -> Result<Val, ParseError> {
    let mut p = Parser::new(line);
    let root = p.value()?;
    p.skip_ws();
    if p.pos != line.len() {
        return err("trailing garbage after JSON object");
    }
    Ok(root)
}

/// Parses a whole JSONL document (blank lines skipped), reporting the
/// first error with its 1-based line number. An `evictions` trailer
/// line, if present, is parsed and discarded; use [`parse_jsonl_log`]
/// to keep it.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    parse_jsonl_log(text).map(|log| log.events)
}

/// Parses a whole JSONL document into an [`EventLog`]: the events plus
/// the recorder's `{"type":"evictions",…}` trailer when one is present
/// (written by [`crate::Recorder::to_jsonl`] after ring evictions).
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_jsonl_log(text: &str) -> Result<EventLog, ParseError> {
    let mut events = Vec::new();
    let mut evictions = None;
    let mut reorder = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: ParseError| ParseError(format!("line {}: {e}", i + 1));
        let root = parse_root(line).map_err(at)?;
        match root.get("type").and_then(Val::str) {
            Some("evictions") => {
                evictions = Some(EvictionSummary {
                    routine: need_u64(&root, "routine").map_err(at)?,
                    notable: need_u64(&root, "notable").map_err(at)?,
                    critical: need_u64(&root, "critical").map_err(at)?,
                });
                continue;
            }
            Some("reorder") => {
                reorder = Some(ReorderStats {
                    reserved: need_u64(&root, "reserved").map_err(at)?,
                    max_in_flight: need_u64(&root, "max_in_flight").map_err(at)?,
                    max_held: need_u64(&root, "max_held").map_err(at)?,
                    drains: need_u64(&root, "drains").map_err(at)?,
                });
                continue;
            }
            _ => {}
        }
        events.push(Event::from_val(&root).map_err(at)?);
    }
    Ok(EventLog {
        events,
        evictions,
        reorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: Event) {
        let line = event.to_json_line();
        let back = Event::from_json_line(&line).expect("round trip parses");
        assert_eq!(back, event, "line: {line}");
        // Re-serialization is byte-stable.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn round_trips_every_variant() {
        let base = |kind| Event {
            seq: 9,
            parent: Some(3),
            t: 12.5,
            queue_depth: 4,
            kind,
        };
        round_trip(base(EventKind::RequestArrived {
            gateway: 1,
            object: 2,
        }));
        round_trip(base(EventKind::Decision(DecisionEvent {
            object: 42,
            gateway: 7,
            chosen: 3,
            branch: DecisionBranch::LeastRequested,
            constant: 2.0,
            closest: Some(5),
            least: Some(3),
            unit_closest: Some(10.0),
            unit_least: Some(2.5),
            candidates: vec![
                CandidateSnapshot {
                    host: 3,
                    rcnt: 5,
                    aff: 2,
                    unit: 2.5,
                    distance: 6,
                },
                CandidateSnapshot {
                    host: 5,
                    rcnt: 10,
                    aff: 1,
                    unit: 10.0,
                    distance: 1,
                },
            ],
        })));
        round_trip(base(EventKind::RequestServed {
            gateway: 1,
            object: 2,
            host: 3,
            latency: 0.125,
            hops: 4,
        }));
        round_trip(base(EventKind::RequestFailed {
            gateway: 1,
            object: 2,
            reason: FailReason::Unreachable,
        }));
        round_trip(base(EventKind::PlacementAction(PlacementActionEvent {
            host: 3,
            object: 42,
            action: PlacementActionKind::GeoReplicate,
            target: Some(9),
            unit_rate: 0.21,
            share: Some(0.4),
            ratio: Some(0.3),
            deletion_threshold: 0.01,
            replication_threshold: 0.18,
        })));
        round_trip(base(EventKind::CountsReset {
            object: 42,
            cause: ResetCause::Created,
        }));
        round_trip(base(EventKind::Fault {
            desc: "link-degrade 3-12 x4".into(),
        }));
        round_trip(base(EventKind::ReReplication {
            object: 42,
            target: 9,
            elapsed: 61.5,
        }));
        round_trip(base(EventKind::ProviderUpdate(ProviderUpdateEvent {
            object: 42,
            class: ConsistencyClass::Type1,
            version: 3,
            primary: 7,
            targets: 2,
            bytes_hops: 98_304,
            reassigned: true,
        })));
        round_trip(base(EventKind::UpdateDelivered(UpdateDeliveredEvent {
            object: 42,
            host: 11,
            class: ConsistencyClass::Type2,
            version: 3,
            lag: 0.31,
            wasted: false,
        })));
    }

    /// One event of every kind, carrying the writer's edge values:
    /// `-0.0`, non-finite floats, off-grid and large floats, the
    /// values either side of the fast path's limit, and integer maxima.
    fn pinned_events() -> Vec<Event> {
        let at = |seq, t, kind| Event {
            seq,
            parent: Some(seq.saturating_sub(1)),
            t,
            queue_depth: 7,
            kind,
        };
        vec![
            Event {
                seq: u64::MAX,
                parent: None,
                t: -0.0,
                queue_depth: u32::MAX,
                kind: EventKind::RequestArrived {
                    gateway: u16::MAX,
                    object: u32::MAX,
                },
            },
            at(
                2,
                0.1 + 0.2,
                EventKind::Decision(DecisionEvent {
                    object: 42,
                    gateway: 7,
                    chosen: 3,
                    branch: DecisionBranch::LeastRequested,
                    constant: 2.0,
                    closest: Some(5),
                    least: None,
                    unit_closest: Some(1.0 / 3.0),
                    unit_least: Some(f64::NAN),
                    candidates: vec![
                        CandidateSnapshot {
                            host: 3,
                            rcnt: u64::MAX,
                            aff: u32::MAX,
                            unit: 5e-7,
                            distance: 0,
                        },
                        CandidateSnapshot {
                            host: 5,
                            rcnt: 10,
                            aff: 1,
                            unit: f64::INFINITY,
                            distance: 6,
                        },
                    ],
                }),
            ),
            at(
                3,
                999_999_999.999_999,
                EventKind::RequestServed {
                    gateway: 1,
                    object: 2,
                    host: 3,
                    latency: 1e9,
                    hops: u32::MAX,
                },
            ),
            at(
                4,
                9_007_199_254_740_991.0,
                EventKind::RequestFailed {
                    gateway: 0,
                    object: 0,
                    reason: FailReason::CrashedMidService,
                },
            ),
            at(
                5,
                1e21,
                EventKind::PlacementAction(PlacementActionEvent {
                    host: 3,
                    object: 42,
                    action: PlacementActionKind::LoadReplicate,
                    target: Some(9),
                    unit_rate: -999_999_999.999_999,
                    share: Some(0.18),
                    ratio: None,
                    deletion_threshold: 0.01,
                    replication_threshold: f64::NEG_INFINITY,
                }),
            ),
            at(
                6,
                1e-7,
                EventKind::CountsReset {
                    object: 9000,
                    cause: ResetCause::Purge,
                },
            ),
            at(
                7,
                123.456_789,
                EventKind::Fault {
                    desc: "link-slow 21-22 x4 \"q\" \\ \u{1}\n".into(),
                },
            ),
            at(
                8,
                1e15 + 0.5,
                EventKind::ReReplication {
                    object: 17,
                    target: 4,
                    elapsed: -0.000_001,
                },
            ),
            at(
                9,
                4_503_599_627_370_496.5,
                EventKind::ProviderUpdate(ProviderUpdateEvent {
                    object: 1,
                    class: ConsistencyClass::Type3,
                    version: 0,
                    primary: 0,
                    targets: u16::MAX,
                    bytes_hops: u64::MAX,
                    reassigned: true,
                }),
            ),
            at(
                10,
                -0.000_025,
                EventKind::UpdateDelivered(UpdateDeliveredEvent {
                    object: 512,
                    host: 52,
                    class: ConsistencyClass::Type1,
                    version: 12,
                    lag: 0.1 + 0.7,
                    wasted: false,
                }),
            ),
        ]
    }

    /// The writer's output for [`pinned_events`], recorded from the
    /// `core::fmt`-based writer it replaced.
    const PINNED_LINES: [&str; 10] = [
        r#"{"seq":18446744073709551615,"t":-0,"parent":null,"qd":4294967295,"type":"request","gateway":65535,"object":4294967295}"#,
        r#"{"seq":2,"t":0.30000000000000004,"parent":1,"qd":7,"type":"decision","object":42,"gateway":7,"chosen":3,"branch":"least-requested","constant":2,"closest":5,"least":null,"unit_closest":0.3333333333333333,"unit_least":null,"candidates":[{"host":3,"rcnt":18446744073709551615,"aff":4294967295,"unit":0.0000005,"distance":0},{"host":5,"rcnt":10,"aff":1,"unit":null,"distance":6}]}"#,
        r#"{"seq":3,"t":999999999.999999,"parent":2,"qd":7,"type":"served","gateway":1,"object":2,"host":3,"latency":1000000000,"hops":4294967295}"#,
        r#"{"seq":4,"t":9007199254740991,"parent":3,"qd":7,"type":"failed","gateway":0,"object":0,"reason":"crashed-mid-service"}"#,
        r#"{"seq":5,"t":1000000000000000000000,"parent":4,"qd":7,"type":"placement","host":3,"object":42,"action":"load-replicate","target":9,"unit_rate":-999999999.999999,"share":0.18,"ratio":null,"u":0.01,"m":null}"#,
        r#"{"seq":6,"t":0.0000001,"parent":5,"qd":7,"type":"counts-reset","object":9000,"cause":"purge"}"#,
        r#"{"seq":7,"t":123.456789,"parent":6,"qd":7,"type":"fault","desc":"link-slow 21-22 x4 \"q\" \\ \u0001\n"}"#,
        r#"{"seq":8,"t":1000000000000000.5,"parent":7,"qd":7,"type":"re-replication","object":17,"target":4,"elapsed":-0.000001}"#,
        r#"{"seq":9,"t":4503599627370496,"parent":8,"qd":7,"type":"provider-update","object":1,"class":"type-3","version":0,"primary":0,"targets":65535,"bytes_hops":18446744073709551615,"reassigned":true}"#,
        r#"{"seq":10,"t":-0.000025,"parent":9,"qd":7,"type":"update-delivered","object":512,"host":52,"class":"type-1","version":12,"lag":0.7999999999999999,"wasted":false}"#,
    ];

    #[test]
    fn writer_bytes_are_pinned_for_every_kind_and_edge_value() {
        let events = pinned_events();
        assert_eq!(events.len(), PINNED_LINES.len());
        let mut buf = String::new();
        for (event, want) in events.iter().zip(PINNED_LINES) {
            buf.clear();
            event.write_json_line(&mut buf);
            assert_eq!(buf, want);
            // Every line parses, and re-serializes to the same bytes
            // (non-finite values parse back as NaN and write as null).
            let back = Event::from_json_line(want).expect("pinned line parses");
            assert_eq!(back.to_json_line(), want);
        }
        let kinds: std::collections::BTreeSet<&str> = events.iter().map(Event::type_name).collect();
        assert_eq!(kinds.len(), crate::EVENT_TYPES.len(), "one event per kind");
    }

    #[test]
    fn none_parent_serializes_as_null() {
        let e = Event {
            seq: 1,
            parent: None,
            t: 0.0,
            queue_depth: 0,
            kind: EventKind::RequestArrived {
                gateway: 0,
                object: 0,
            },
        };
        let line = e.to_json_line();
        assert!(line.contains("\"parent\":null"), "{line}");
        round_trip(e);
    }

    #[test]
    fn string_escapes_round_trip() {
        round_trip(Event {
            seq: 2,
            parent: None,
            t: 1.0,
            queue_depth: 0,
            kind: EventKind::Fault {
                desc: "weird \"desc\"\n\\tab\t".into(),
            },
        });
    }

    #[test]
    fn unknown_interned_tag_is_a_parse_error() {
        let line = "{\"seq\":1,\"t\":0,\"parent\":null,\"qd\":0,\
                    \"type\":\"counts-reset\",\"object\":3,\"cause\":\"vibes\"}";
        let e = Event::from_json_line(line).unwrap_err();
        assert!(e.to_string().contains("unknown tag"), "{e}");
        assert!(e.to_string().contains("vibes"), "{e}");
    }

    #[test]
    fn write_json_line_appends_to_reused_buffer() {
        let e = Event {
            seq: 4,
            parent: None,
            t: 1.5,
            queue_depth: 2,
            kind: EventKind::RequestArrived {
                gateway: 3,
                object: 8,
            },
        };
        let mut buf = String::from("prefix|");
        e.write_json_line(&mut buf);
        assert_eq!(buf, format!("prefix|{}", e.to_json_line()));
        buf.clear();
        e.write_json_line(&mut buf);
        assert_eq!(buf, e.to_json_line());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::from_json_line("not json").is_err());
        assert!(Event::from_json_line("{}").is_err());
        assert!(Event::from_json_line(
            "{\"seq\":1,\"t\":0,\"parent\":null,\"qd\":0,\"type\":\"mystery\"}"
        )
        .is_err());
        let valid = "{\"seq\":1,\"t\":0,\"parent\":null,\"qd\":0,\
                     \"type\":\"request\",\"gateway\":0,\"object\":0}";
        assert!(Event::from_json_line(valid).is_ok());
        assert!(Event::from_json_line(&format!("{valid} extra")).is_err());
    }

    #[test]
    fn eviction_trailer_round_trips_through_parse_jsonl_log() {
        let event = Event {
            seq: 5,
            parent: None,
            t: 2.0,
            queue_depth: 1,
            kind: EventKind::Fault {
                desc: "host-crash 7".into(),
            },
        };
        let summary = EvictionSummary {
            routine: 120,
            notable: 3,
            critical: 0,
        };
        let text = format!("{}\n{}\n", event.to_json_line(), summary.to_json_line());
        let log = parse_jsonl_log(&text).expect("parses");
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.evictions, Some(summary));
        assert_eq!(summary.total(), 123);
        // parse_jsonl tolerates (and discards) the trailer.
        assert_eq!(parse_jsonl(&text).expect("parses").len(), 1);
        // A log without a trailer reports None.
        let bare = parse_jsonl_log(&format!("{}\n", event.to_json_line())).unwrap();
        assert_eq!(bare.evictions, None);
    }

    #[test]
    fn reorder_trailer_round_trips_through_parse_jsonl_log() {
        let event = Event {
            seq: 1,
            parent: None,
            t: 0.5,
            queue_depth: 2,
            kind: EventKind::RequestArrived {
                gateway: 3,
                object: 9,
            },
        };
        let stats = ReorderStats {
            reserved: 4210,
            max_in_flight: 7,
            max_held: 12,
            drains: 905,
        };
        assert_eq!(
            stats.to_json_line(),
            "{\"type\":\"reorder\",\"reserved\":4210,\
             \"max_in_flight\":7,\"max_held\":12,\"drains\":905}"
        );
        let text = format!("{}\n{}\n", event.to_json_line(), stats.to_json_line());
        let log = parse_jsonl_log(&text).expect("parses");
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.reorder, Some(stats));
        // parse_jsonl tolerates (and discards) the trailer.
        assert_eq!(parse_jsonl(&text).expect("parses").len(), 1);
        // A serial log (no trailer) reports None.
        let bare = parse_jsonl_log(&format!("{}\n", event.to_json_line())).unwrap();
        assert_eq!(bare.reorder, None);
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let good = Event {
            seq: 1,
            parent: None,
            t: 0.0,
            queue_depth: 0,
            kind: EventKind::RequestArrived {
                gateway: 0,
                object: 0,
            },
        }
        .to_json_line();
        let text = format!("{good}\n\nbroken\n");
        let e = parse_jsonl(&text).unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
        assert_eq!(parse_jsonl(&format!("{good}\n{good}\n")).unwrap().len(), 2);
    }
}
