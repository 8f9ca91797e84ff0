//! Minimal flat-JSON building blocks shared by every JSONL log in the
//! workspace.
//!
//! The sweep cell log, the trace replay log and the serving bench all
//! write the same dialect: one self-contained JSON object per line,
//! holding only strings, numbers, booleans and flat arrays of number
//! tokens. Writers produce it with [`esc`] (string escaping) and
//! [`jnum`] (shortest-roundtrip floats, `null` for non-finite);
//! readers take lines apart with [`parse_flat_object`]. Nothing here
//! is a general JSON parser — it only accepts what the writers emit,
//! which is exactly the property the kill/resume paths rely on: a torn
//! line parses as `None` and the producer simply re-runs that unit of
//! work. Resuming compacts a log with [`rewrite_atomically`].

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// One parsed value of a flat JSONL object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// An unparsed number token (callers choose `f64` or exact `u64`).
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// A string, unescaped.
    Str(String),
    /// A flat array of number tokens or strings (e.g.
    /// latency-histogram counts, tenant ids). String items are stored
    /// unescaped; callers know which kind a key holds.
    Arr(Vec<String>),
}

impl JsonVal {
    /// The value as an `f64`, when it is a number token.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonVal::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an exact `u64` (no float rounding above 2^53),
    /// when it is a number token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a boolean, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonVal::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Escapes a string for inclusion in a JSON document.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A float as a JSON token: shortest-roundtrip `Display` for finite
/// values, `null` otherwise — `NaN`/`inf` are not JSON, and a `null`ed
/// record simply re-runs on resume instead of corrupting the log.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Looks a key up in a parsed line.
pub fn field<'a>(fields: &'a [(String, JsonVal)], key: &str) -> Option<&'a JsonVal> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Replaces the log at `path` with `lines` (one per line) and reopens
/// it for appending.
///
/// The lines go to a scratch file beside the log (`<path>.rewrite`),
/// which is synced and then renamed over the original, so a kill
/// mid-rewrite leaves the old log or the new one, never a truncated
/// mix. Returns the append handle of the rewritten log; errors name
/// the step and file that failed.
pub fn rewrite_atomically(
    path: &Path,
    lines: impl IntoIterator<Item = String>,
) -> std::io::Result<File> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".rewrite");
    let tmp = PathBuf::from(tmp);
    let at = |step: &'static str, file: &Path| {
        let file = file.display().to_string();
        move |e: std::io::Error| std::io::Error::new(e.kind(), format!("{step} {file}: {e}"))
    };
    let mut out = BufWriter::new(File::create(&tmp).map_err(at("creating", &tmp))?);
    for line in lines {
        out.write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .map_err(at("writing", &tmp))?;
    }
    let file = out
        .into_inner()
        .map_err(|e| at("writing", &tmp)(e.into_error()))?;
    file.sync_all().map_err(at("syncing", &tmp))?;
    std::fs::rename(&tmp, path).map_err(at("renaming over", path))?;
    OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(at("reopening", path))
}

/// Parses a one-level JSON object of string/number/boolean values and
/// flat arrays of numbers. `None` for anything else — including a torn
/// line from a kill mid-write.
pub fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonVal)>> {
    let s = line.trim();
    let mut chars = s.char_indices().peekable();
    if !s.starts_with('{') || !s.ends_with('}') {
        return None;
    }
    chars.next(); // consume '{'
    let mut fields = Vec::new();
    loop {
        // Skip whitespace and separators up to the next key or the end.
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        match chars.peek() {
            Some((_, '}')) | None => break,
            Some((_, '"')) => {}
            _ => return None,
        }
        let key = parse_string(&mut chars)?;
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        if !matches!(chars.next(), Some((_, ':'))) {
            return None;
        }
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        let val = match chars.peek()? {
            (_, '"') => JsonVal::Str(parse_string(&mut chars)?),
            (_, '[') => {
                chars.next(); // consume '['
                let mut items = Vec::new();
                loop {
                    while matches!(chars.peek(), Some((_, c)) if c.is_whitespace() || *c == ',') {
                        chars.next();
                    }
                    if matches!(chars.peek(), Some((_, ']'))) {
                        chars.next();
                        break;
                    }
                    if matches!(chars.peek(), Some((_, '"'))) {
                        items.push(parse_string(&mut chars)?);
                        continue;
                    }
                    let num: String = std::iter::from_fn(|| {
                        matches!(chars.peek(), Some((_, c))
                            if !c.is_whitespace() && *c != ',' && *c != ']')
                        .then(|| chars.next().map(|(_, c)| c))
                        .flatten()
                    })
                    .collect();
                    if num.is_empty() {
                        return None;
                    }
                    items.push(num);
                }
                JsonVal::Arr(items)
            }
            (_, 't' | 'f') => {
                let word: String = std::iter::from_fn(|| {
                    matches!(chars.peek(), Some((_, c)) if c.is_ascii_alphabetic())
                        .then(|| chars.next().map(|(_, c)| c))
                        .flatten()
                })
                .collect();
                match word.as_str() {
                    "true" => JsonVal::Bool(true),
                    "false" => JsonVal::Bool(false),
                    _ => return None,
                }
            }
            _ => {
                let num: String = std::iter::from_fn(|| {
                    matches!(chars.peek(), Some((_, c)) if !c.is_whitespace() && *c != ',' && *c != '}')
                        .then(|| chars.next().map(|(_, c)| c))
                        .flatten()
                })
                .collect();
                if num.is_empty() {
                    return None;
                }
                JsonVal::Num(num)
            }
        };
        fields.push((key, val));
    }
    Some(fields)
}

/// Parses a double-quoted JSON string (cursor on the opening quote),
/// un-escaping what [`esc`] produced.
pub fn parse_string(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) -> Option<String> {
    if !matches!(chars.next(), Some((_, '"'))) {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            (_, '"') => return Some(out),
            (_, '\\') => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            (_, c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_escaped_strings() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let line = format!("{{\"k\": \"{}\"}}", esc(nasty));
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(field(&fields, "k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn torn_lines_parse_as_none() {
        assert!(parse_flat_object("{\"k\": 1").is_none());
        assert!(parse_flat_object("{\"k\": }").is_none());
        assert!(parse_flat_object("not json").is_none());
        assert!(parse_flat_object("{\"k\": tr").is_none());
    }

    #[test]
    fn numbers_booleans_and_arrays() {
        let fields =
            parse_flat_object("{\"a\": 18446744073709551615, \"b\": true, \"c\": [1, 2, 3]}")
                .unwrap();
        assert_eq!(field(&fields, "a").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(field(&fields, "b").unwrap().as_bool(), Some(true));
        assert_eq!(
            field(&fields, "c"),
            Some(&JsonVal::Arr(vec!["1".into(), "2".into(), "3".into()]))
        );
    }

    #[test]
    fn string_array_items_are_unescaped() {
        let fields = parse_flat_object("{\"t\": [\"a\\\"x\", \"b\", 3]}").unwrap();
        assert_eq!(
            field(&fields, "t"),
            Some(&JsonVal::Arr(vec!["a\"x".into(), "b".into(), "3".into()]))
        );
    }

    #[test]
    fn rewrite_atomically_replaces_the_log_and_appends_after_it() {
        let dir = std::env::temp_dir().join(format!("camdn-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        std::fs::write(&path, "old header\nold line\ntorn").unwrap();
        let mut file =
            rewrite_atomically(&path, ["header".to_string(), "kept".to_string()]).unwrap();
        file.write_all(b"appended\n").unwrap();
        drop(file);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "header\nkept\nappended\n");
        let mut tmp = path.clone().into_os_string();
        tmp.push(".rewrite");
        assert!(
            !Path::new(&tmp).exists(),
            "the scratch file is renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jnum_guards_non_finite() {
        assert_eq!(jnum(1.5), "1.5");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(f64::INFINITY), "null");
    }
}
