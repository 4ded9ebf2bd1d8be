//! Structured metrics export: a dependency-free JSON value type with an
//! emitter and a minimal parser, plus conversions from the workspace's
//! counter structs.
//!
//! Experiment rows declare their columns once ([`Row`]); a [`Report`]
//! renders them as both the printed table and the JSON.
//!
//! The `experiments` binary uses this to write `experiments.json` — the
//! machine-readable companion to its printed tables, carrying the same
//! per-experiment control-event counts (captures, reinstatements,
//! overflows, slots copied, ...) alongside the wall-clock numbers. The
//! parser exists so tests can round-trip the emitted document and
//! reconcile its counts against live [`Stats`](oneshot_core::Stats)
//! values without an external JSON crate.

use std::fmt::Write as _;

use oneshot_core::{Counters, Reading};

use crate::measure::Measurement;

/// A JSON value. Numbers are stored as `f64` but emitted without a
/// fractional part when integral, so counter values survive a round trip
/// textually intact (counters here stay far below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer-valued number (counters).
    #[allow(clippy::cast_precision_loss)] // counters stay far below 2^53
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset this module emits: no exponent
    /// abuse, no `\u` surrogate pairs beyond the BMP).
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            s.push(std::char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Every field a [`counters!`](oneshot_core::counters) struct declares, as
/// a JSON object keyed by field name in declaration order: scalars as
/// integers, lists as arrays, tags as strings, nested structs as nested
/// objects. A field added to a declaration appears here with no edit.
pub fn counters_json(c: &dyn Counters) -> Json {
    let mut pairs = Vec::new();
    c.visit(&mut |name, reading| {
        let value = match reading {
            Reading::Int(_, n) => Json::int(n),
            Reading::Ints(_, ns) => Json::Arr(ns.iter().map(|&n| Json::int(n)).collect()),
            Reading::Tag(tag) => Json::str(tag),
            Reading::Nested(inner) => counters_json(inner),
        };
        pairs.push((name.to_string(), value));
    });
    Json::Obj(pairs)
}

/// A [`Measurement`] as a JSON object: wall-clock milliseconds plus the
/// full counter delta from [`counters_json`].
pub fn measurement_json(m: &Measurement) -> Json {
    Json::obj([("ms", Json::Num(m.ms())), ("delta", counters_json(&m.delta))])
}

/// One value of an experiment row, in the vocabulary both outputs share:
/// [`Cell::json`] is what the JSON carries, [`Cell::text`] what the
/// printed table shows.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A count.
    Int(u64),
    /// A float and the decimals the table shows (the JSON keeps them all).
    Num(f64, usize),
    /// A label.
    Str(String),
    /// A flag.
    Bool(bool),
    /// A list of counts.
    Ints(Vec<u64>),
    /// A measured run, exported through [`measurement_json`]; the table
    /// shows its milliseconds.
    Measured(Box<Measurement>),
}

impl Cell {
    /// The value as JSON.
    pub fn json(&self) -> Json {
        match self {
            Cell::Int(n) => Json::int(*n),
            Cell::Num(x, _) => Json::Num(*x),
            Cell::Str(s) => Json::str(s.clone()),
            Cell::Bool(b) => Json::Bool(*b),
            Cell::Ints(ns) => Json::Arr(ns.iter().map(|&n| Json::int(n)).collect()),
            Cell::Measured(m) => measurement_json(m),
        }
    }

    /// The value as a table cell.
    pub fn text(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Num(x, decimals) => format!("{x:.decimals$}"),
            Cell::Str(s) => s.clone(),
            Cell::Bool(b) => b.to_string(),
            Cell::Ints(ns) => format!("{ns:?}"),
            Cell::Measured(m) => format!("{:.1}", m.ms()),
        }
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Bool(b)
    }
}

impl From<Vec<u64>> for Cell {
    fn from(ns: Vec<u64>) -> Cell {
        Cell::Ints(ns)
    }
}

impl From<Measurement> for Cell {
    fn from(m: Measurement) -> Cell {
        Cell::Measured(Box::new(m))
    }
}

/// One column of a row declaration: its JSON key, its table header, and
/// its value. A column without a key is display-only; one without a
/// header is JSON-only.
#[derive(Debug, Clone)]
pub struct Col {
    /// Key in the row's JSON object, if the JSON carries this column.
    pub key: Option<&'static str>,
    /// Header in the printed table, if the table shows this column.
    pub header: Option<&'static str>,
    /// The value.
    pub cell: Cell,
}

impl Col {
    /// A column in both the JSON (under `key`) and the table (under
    /// `header`).
    pub fn both(key: &'static str, header: &'static str, cell: impl Into<Cell>) -> Col {
        Col { key: Some(key), header: Some(header), cell: cell.into() }
    }

    /// A JSON-only column.
    pub fn json(key: &'static str, cell: impl Into<Cell>) -> Col {
        Col { key: Some(key), header: None, cell: cell.into() }
    }

    /// A display-only column.
    pub fn shown(header: &'static str, cell: impl Into<Cell>) -> Col {
        Col { key: None, header: Some(header), cell: cell.into() }
    }
}

/// An experiment row declared once: its columns drive both the printed
/// table and the JSON object, so a field's key, header and format are
/// written in one place.
pub trait Row {
    /// Every column of this row, in order. The JSON object takes the
    /// keyed columns in this order, the table the headed ones.
    fn columns(&self) -> Vec<Col>;
}

/// A set of rows rendered through their declarations: the printed
/// table's headers and cells, and one JSON object per row.
#[derive(Debug, Clone)]
pub struct Report {
    /// Table headers, from the rows' headed columns.
    pub headers: Vec<&'static str>,
    /// Table cells, one line per row.
    pub cells: Vec<Vec<String>>,
    /// The rows as JSON objects.
    pub rows: Vec<Json>,
}

impl Report {
    /// Renders declared rows.
    pub fn new<R: Row>(rows: &[R]) -> Report {
        Report::from_columns(rows.iter().map(Row::columns))
    }

    /// Renders rows given as column lists (for reports that extend a
    /// declared row with columns of their own).
    ///
    /// # Panics
    ///
    /// Panics if two rows disagree on their headers — a declaration bug.
    pub fn from_columns(rows: impl IntoIterator<Item = Vec<Col>>) -> Report {
        let mut report = Report { headers: Vec::new(), cells: Vec::new(), rows: Vec::new() };
        for (i, cols) in rows.into_iter().enumerate() {
            let headers: Vec<&'static str> = cols.iter().filter_map(|c| c.header).collect();
            if i == 0 {
                report.headers = headers;
            } else {
                assert_eq!(headers, report.headers, "row {i} declares different headers");
            }
            report
                .cells
                .push(cols.iter().filter(|c| c.header.is_some()).map(|c| c.cell.text()).collect());
            report.rows.push(Json::Obj(
                cols.iter().filter_map(|c| Some((c.key?.to_string(), c.cell.json()))).collect(),
            ));
        }
        report
    }

    /// The aligned text table.
    pub fn table(&self) -> String {
        crate::measure::render_table(&self.headers, &self.cells)
    }

    /// The rows as a JSON array.
    pub fn json(self) -> Json {
        Json::Arr(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneshot_core::Stats;

    #[test]
    fn render_parse_round_trips() {
        let doc = Json::obj([
            ("name", Json::str("tak \"quoted\" \\ path")),
            ("ms", Json::Num(12.5)),
            ("count", Json::int(123_456_789)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("rows", Json::Arr(vec![Json::int(1), Json::str("two"), Json::Arr(vec![])])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::int(42).render(), "42\n");
        assert_eq!(Json::Num(1.5).render(), "1.5\n");
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn counters_json_reconciles_stats_field_for_field() {
        let mut s = Stats::default();
        s.captures_one = 7;
        s.reinstates_one = 6;
        s.slots_copied = 123;
        s.overflows = 2;
        s.prompts_pushed = 11;
        s.subconts_taken = 5;
        s.subconts_pushed = 4;
        s.aborts_to_prompt = 3;
        s.subcont_slots = 77;
        s.slots_encapsulated = 512;
        let j = counters_json(&s);
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed.get("captures_one").unwrap().as_u64(), Some(7));
        assert_eq!(parsed.get("reinstates_one").unwrap().as_u64(), Some(6));
        assert_eq!(parsed.get("slots_copied").unwrap().as_u64(), Some(123));
        assert_eq!(parsed.get("overflows").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("captures_multi").unwrap().as_u64(), Some(0));
        assert_eq!(parsed.get("prompts_pushed").unwrap().as_u64(), Some(11));
        assert_eq!(parsed.get("subconts_taken").unwrap().as_u64(), Some(5));
        assert_eq!(parsed.get("subconts_pushed").unwrap().as_u64(), Some(4));
        assert_eq!(parsed.get("aborts_to_prompt").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("subcont_slots").unwrap().as_u64(), Some(77));
        assert_eq!(parsed.get("slots_encapsulated").unwrap().as_u64(), Some(512));
    }

    #[test]
    fn counters_json_carries_live_delimited_counts() {
        // End to end: a shift/reset round trip shows up in the emitted
        // document with nonzero delimited counters.
        let mut vm = oneshot_vm::Vm::new();
        let before = vm.stats();
        vm.eval_str("(reset (lambda () (+ 1 (shift (lambda (k) (k 10))))))").unwrap();
        let d = vm.stats().delta_since(&before);
        let parsed = Json::parse(&counters_json(&d.stack).render()).unwrap();
        assert!(parsed.get("prompts_pushed").unwrap().as_u64().unwrap() >= 3);
        assert_eq!(parsed.get("subconts_taken").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.get("subconts_pushed").unwrap().as_u64(), Some(1));
        assert!(parsed.get("subcont_slots").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn measurement_json_carries_event_counts() {
        let mut vm = oneshot_vm::Vm::new();
        vm.eval_str(&crate::workloads::ctak("call/1cc")).unwrap();
        let m = crate::measure::run_measured(&mut vm, "(ctak 10 5 0)").unwrap();
        let j = measurement_json(&m);
        let parsed = Json::parse(&j.render()).unwrap();
        let stack = parsed.get("delta").unwrap().get("stack").unwrap();
        assert_eq!(stack.get("captures_one").unwrap().as_u64(), Some(m.delta.stack.captures_one));
        assert!(m.delta.stack.captures_one > 0);
        assert!(parsed.get("ms").unwrap().as_f64().unwrap() > 0.0);
    }
}
