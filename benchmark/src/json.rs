//! Reading arbitrary JSON with the vendored serde stand-in, which has no
//! `Value` type: a newtype over its `Content` tree plus two accessors.

use serde::{Content, Deserialize};

struct Any(Content);

impl Deserialize for Any {
    fn from_content(c: &Content) -> Result<Any, String> {
        Ok(Any(c.clone()))
    }
}

/// Parses `text` into the content tree.
pub fn parse(text: &str) -> Result<Content, String> {
    serde_json::from_str::<Any>(text)
        .map(|Any(c)| c)
        .map_err(|e| e.to_string())
}

/// The value under `key` when `c` is an object that has it.
pub fn field<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    match c {
        Content::Map(entries) => entries
            .iter()
            .find(|(k, _)| matches!(k, Content::Str(s) if s == key))
            .map(|(_, v)| v),
        _ => None,
    }
}

/// `c` as a number.
pub fn as_f64(c: &Content) -> Option<f64> {
    match c {
        Content::Int(i) => Some(*i as f64),
        Content::Float(f) => Some(*f),
        _ => None,
    }
}
