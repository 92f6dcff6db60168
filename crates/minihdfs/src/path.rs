//! HDFS path and URI handling.
//!
//! Table 5 of the paper attributes 8 of 18 file-abstraction CSI failures to
//! *addressing*: heterogeneous file-path and URI conventions between
//! upstream and downstream systems. This module implements the downstream
//! (HDFS) convention precisely: paths are absolute, `/`-separated, with an
//! optional `hdfs://authority` prefix. Relative paths, empty components, and
//! other schemes are rejected — upstreams that assume laxer conventions
//! experience exactly the addressing discrepancies the study describes.

use crate::error::HdfsError;
use serde::{Content, Deserialize, Serialize, Serializer};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};

/// A validated, normalized HDFS path.
///
/// Held as one string — `/` for the root, else `/a/b/c` with no trailing
/// slash — so `join`, `parent` and `clone` are one allocation and
/// `Display` is a copy. Ordering is nevertheless *component-wise*
/// (`/a/b` sorts before `/a-b`, which raw text would reverse): listings
/// sort by it. Serialized as its text, and revived only through
/// [`HdfsPath::parse`], so no stored value can skip the checks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HdfsPath {
    authority: Option<String>,
    path: String,
}

impl HdfsPath {
    /// Parses a path like `/user/hive/warehouse` or
    /// `hdfs://nn:9000/user/hive/warehouse`.
    ///
    /// Rejects relative paths, empty components (`//`), `.`/`..` traversal,
    /// and non-`hdfs` schemes.
    pub fn parse(raw: &str) -> Result<HdfsPath, HdfsError> {
        let (authority, rest) = if let Some(after) = raw.strip_prefix("hdfs://") {
            match after.find('/') {
                Some(idx) => {
                    let (auth, path) = after.split_at(idx);
                    if auth.is_empty() {
                        return Err(HdfsError::InvalidPath(raw.to_string()));
                    }
                    (Some(auth.to_string()), path)
                }
                None => return Err(HdfsError::InvalidPath(raw.to_string())),
            }
        } else if raw.contains("://") {
            // file://, s3a://, viewfs:// ... are not this filesystem.
            return Err(HdfsError::InvalidPath(raw.to_string()));
        } else {
            (None, raw)
        };
        // HDFS rejects `//`; what is left may carry the leading slash and a
        // single trailing one, the only empty parts `split` then yields.
        let bad_part = |part: &str| part == "." || part == ".." || part.contains(':');
        if !rest.starts_with('/') || rest.contains("//") || rest.split('/').any(bad_part) {
            return Err(HdfsError::InvalidPath(raw.to_string()));
        }
        let trimmed = match rest.strip_suffix('/') {
            Some(head) if !head.is_empty() => head,
            _ => rest,
        };
        Ok(HdfsPath {
            authority,
            path: trimmed.to_string(),
        })
    }

    /// The root path `/`.
    pub fn root() -> HdfsPath {
        HdfsPath {
            authority: None,
            path: "/".to_string(),
        }
    }

    /// The authority (`host:port`) if the path was written as a full URI.
    pub fn authority(&self) -> Option<&str> {
        self.authority.as_deref()
    }

    /// The path components, root first; none for the root.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.path[1..].split_terminator('/')
    }

    /// Whether this is the root.
    pub fn is_root(&self) -> bool {
        self.path.len() == 1
    }

    /// Byte offset of the slash before the final component.
    fn last_slash(&self) -> usize {
        self.path.rfind('/').expect("paths start with a slash")
    }

    /// Final component, if any.
    pub fn name(&self) -> Option<&str> {
        (!self.is_root()).then(|| &self.path[self.last_slash() + 1..])
    }

    /// The parent path; `None` for the root.
    pub fn parent(&self) -> Option<HdfsPath> {
        if self.is_root() {
            return None;
        }
        Some(HdfsPath {
            authority: self.authority.clone(),
            path: self.path[..self.last_slash().max(1)].to_string(),
        })
    }

    /// Appends a child component.
    ///
    /// # Panics
    ///
    /// Panics if `child` contains `/`; join single components only.
    pub fn join(&self, child: &str) -> HdfsPath {
        assert!(
            !child.contains('/') && !child.is_empty(),
            "join takes a single non-empty component"
        );
        HdfsPath {
            authority: self.authority.clone(),
            path: self.child_text(child.len(), |path| path.push_str(child)),
        }
    }

    /// [`join`](HdfsPath::join) with the component written from its parts
    /// (`format_args!`), in the one allocation the path needs.
    ///
    /// # Panics
    ///
    /// Panics if the written component contains `/` or is empty.
    pub fn join_fmt(&self, child: fmt::Arguments<'_>) -> HdfsPath {
        // Room for a generated name such as `part-00000.parquet`.
        let path = self.child_text(32, |path| {
            let _ = path.write_fmt(child);
        });
        let name = &path[self.stem().len() + 1..];
        assert!(
            !name.contains('/') && !name.is_empty(),
            "join takes a single non-empty component"
        );
        HdfsPath {
            authority: self.authority.clone(),
            path,
        }
    }

    /// The child `name` of this directory as the namespace names it, with
    /// no authority.
    pub(crate) fn bare_child(&self, name: &str) -> HdfsPath {
        HdfsPath {
            authority: None,
            path: self.child_text(name.len(), |path| path.push_str(name)),
        }
    }

    /// The text a child's path starts with, before its slash: empty for
    /// the root.
    fn stem(&self) -> &str {
        if self.is_root() {
            ""
        } else {
            &self.path
        }
    }

    /// This path's text, a slash, and what `write` appends, in a buffer
    /// with room for `room` more bytes.
    fn child_text(&self, room: usize, write: impl FnOnce(&mut String)) -> String {
        let stem = self.stem();
        let mut path = String::with_capacity(stem.len() + 1 + room);
        path.push_str(stem);
        path.push('/');
        write(&mut path);
        path
    }

    /// What [`parent`](HdfsPath::parent) would display, without building
    /// the parent.
    pub(crate) fn parent_display(&self) -> impl fmt::Display + '_ {
        struct Parent<'a>(&'a HdfsPath);
        impl fmt::Display for Parent<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let p = self.0;
                if let Some(a) = &p.authority {
                    f.write_str("hdfs://")?;
                    f.write_str(a)?;
                }
                f.write_str(&p.path[..p.last_slash().max(1)])
            }
        }
        Parent(self)
    }

    /// Whether `self` is `other` or a descendant of `other` (ignoring
    /// authority).
    pub fn starts_with(&self, other: &HdfsPath) -> bool {
        match self.path.strip_prefix(other.path.as_str()) {
            // A sibling sharing a textual prefix (`/a/bx` under `/a/b`)
            // leaves a rest that does not start at a component boundary.
            Some(rest) => rest.is_empty() || rest.starts_with('/') || other.is_root(),
            None => false,
        }
    }

    /// The same path without its authority, as stored in the namespace.
    pub fn without_authority(&self) -> HdfsPath {
        HdfsPath {
            authority: None,
            path: self.path.clone(),
        }
    }
}

impl Ord for HdfsPath {
    fn cmp(&self, other: &HdfsPath) -> Ordering {
        self.authority
            .cmp(&other.authority)
            .then_with(|| self.components().cmp(other.components()))
    }
}

impl PartialOrd for HdfsPath {
    fn partial_cmp(&self, other: &HdfsPath) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Serialize for HdfsPath {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match &self.authority {
            None => s.str(&self.path),
            Some(_) => s.str(&self.to_string()),
        }
    }
}

impl Deserialize for HdfsPath {
    fn from_content(c: &Content) -> Result<HdfsPath, String> {
        HdfsPath::parse(&String::from_content(c)?).map_err(|e| e.to_string())
    }
}

impl fmt::Display for HdfsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(a) = &self.authority {
            f.write_str("hdfs://")?;
            f.write_str(a)?;
        }
        f.write_str(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_uri_paths() {
        let p = HdfsPath::parse("/user/hive/warehouse").unwrap();
        assert_eq!(p.components().count(), 3);
        assert_eq!(p.authority(), None);
        assert_eq!(p.to_string(), "/user/hive/warehouse");

        let q = HdfsPath::parse("hdfs://nn:9000/data/x").unwrap();
        assert_eq!(q.authority(), Some("nn:9000"));
        assert_eq!(q.to_string(), "hdfs://nn:9000/data/x");
        assert_eq!(q.without_authority().to_string(), "/data/x");
    }

    #[test]
    fn rejects_bad_paths() {
        for raw in [
            "relative/path",
            "",
            "hdfs://",
            "hdfs://nn:9000", // No path part.
            "s3a://bucket/x",
            "/a//b",
            "/a/./b",
            "/a/../b",
        ] {
            assert!(HdfsPath::parse(raw).is_err(), "{raw:?} should be invalid");
        }
    }

    #[test]
    fn serde_goes_through_the_text_and_the_parser() {
        for (raw, text) in [
            ("hdfs://nn:9000/data/x/", "hdfs://nn:9000/data/x"),
            ("/data/x", "/data/x"),
        ] {
            let p = HdfsPath::parse(raw).unwrap();
            assert_eq!(serde_json::to_string(&p).unwrap(), format!("{text:?}"));
            let content = Content::Str(text.to_string());
            assert_eq!(HdfsPath::from_content(&content), Ok(p));
        }
        for bad in ["", "a/b", "/a//b", "s3a://bucket/x"] {
            let revived = HdfsPath::from_content(&Content::Str(bad.to_string()));
            assert!(revived.is_err(), "{bad:?}");
        }
        assert!(HdfsPath::from_content(&Content::Null).is_err());
    }

    #[test]
    fn trailing_slash_is_tolerated() {
        let p = HdfsPath::parse("/a/b/").unwrap();
        assert_eq!(p.to_string(), "/a/b");
    }

    #[test]
    fn parent_and_join_round_trip() {
        let p = HdfsPath::parse("/a/b/c").unwrap();
        let parent = p.parent().unwrap();
        assert_eq!(parent.to_string(), "/a/b");
        assert_eq!(parent.join("c"), p);
        assert_eq!(parent.join_fmt(format_args!("{}", 'c')), p);
        for raw in ["/a", "/a/b/c", "hdfs://nn:9000/x/y", "hdfs://nn:9000/x"] {
            let p = HdfsPath::parse(raw).unwrap();
            let parent = p.parent().unwrap();
            assert_eq!(p.parent_display().to_string(), parent.to_string(), "{raw}");
            assert_eq!(parent.join_fmt(format_args!("{}", p.name().unwrap())), p);
            assert_eq!(parent.bare_child(p.name().unwrap()), p.without_authority());
        }
        assert_eq!(HdfsPath::root().parent(), None);
        assert_eq!(p.name(), Some("c"));
    }

    #[test]
    fn starts_with_checks_prefix() {
        let base = HdfsPath::parse("/a/b").unwrap();
        let deep = HdfsPath::parse("/a/b/c/d").unwrap();
        let other = HdfsPath::parse("/a/bx").unwrap();
        assert!(deep.starts_with(&base));
        assert!(base.starts_with(&base));
        assert!(!other.starts_with(&base));
        assert!(!base.starts_with(&deep));
    }

    #[test]
    #[should_panic(expected = "single non-empty component")]
    fn join_rejects_slashes() {
        HdfsPath::root().join("a/b");
    }

    #[test]
    #[should_panic(expected = "single non-empty component")]
    fn join_fmt_rejects_an_empty_component() {
        HdfsPath::root().join_fmt(format_args!(""));
    }

    #[test]
    #[should_panic(expected = "single non-empty component")]
    fn join_fmt_rejects_slashes() {
        HdfsPath::parse("/a")
            .unwrap()
            .join_fmt(format_args!("x/{}", 'y'));
    }
}
