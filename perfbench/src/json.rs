//! A minimal JSON reader for the repository's committed `BENCH_*.json`
//! records, and the writer for the benchmark's one-line result. The
//! workspace has no serializer crate, so both are hand-rolled here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep their file order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key `{key}`")),
            _ => Err(format!("`{key}` looked up in a non-object")),
        }
    }

    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Json::Num(v) => Ok(*v),
            other => Err(format!("`{key}` is not a number: {other:?}")),
        }
    }

    /// An integer member, exact below 2^53.
    pub fn int(&self, key: &str) -> Result<u64, String> {
        let v = self.num(key)?;
        if v >= 0.0 && v.fract() == 0.0 && v < 9_007_199_254_740_992.0 {
            Ok(v as u64)
        } else {
            Err(format!("`{key}` is not an exact integer: {v}"))
        }
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Json::Str(s) => Ok(s),
            other => Err(format!("`{key}` is not a string: {other:?}")),
        }
    }

    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key)? {
            Json::Arr(v) => Ok(v),
            other => Err(format!("`{key}` is not an array: {other:?}")),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("bad object at offset {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at offset {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number `{text}` at offset {start}: {e}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    out.push(match c {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => c,
                        _ => return Err(format!("unsupported escape at offset {}", self.i)),
                    });
                    self.i += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The benchmark's result line: `{"correct": …, "attempted": …, "failed":
/// …, "metrics": {name: {"value": …, "unit": …}}}`. Values print with
/// every digit (shortest round-trip form); non-finite values, which JSON
/// cannot carry, print as `null`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, Metric>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let j = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": null, "e": true}"#)
            .unwrap();
        assert_eq!(
            j.arr("a").unwrap(),
            &[Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)]
        );
        assert_eq!(j.get("b").unwrap().str("c").unwrap(), "x\"y");
        assert_eq!(j.get("d").unwrap(), &Json::Null);
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn numbers_round_trip_bitwise() {
        let v = 0.000000978423474729261f64;
        let j = Json::parse(&format!("{{\"v\": {v}}}")).unwrap();
        assert_eq!(j.num("v").unwrap().to_bits(), v.to_bits());
    }
}
