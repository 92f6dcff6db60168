//! A small SQL frontend shared by the simulated systems.
//!
//! The cross-testing harness drives SparkSQL-like and HiveQL-like interfaces
//! with textual statements (Figure 6). Both interfaces share this grammar —
//! `CREATE TABLE`, `DROP TABLE`, `INSERT INTO ... VALUES`, `SELECT` — but
//! interpret the parsed statements under their *own* semantics (identifier
//! case folding, literal coercion, error policies). Faithfully to the paper,
//! the discrepancies live in interpretation, not in syntax.
//!
//! Supported literal forms include typed literals (`DATE '...'`,
//! `TIMESTAMP '...'`, `INTERVAL 3 MONTH`), numeric suffixes (`1Y`, `2S`,
//! `3L`, `1.5BD`), hex binaries (`X'CAFE'`), `CAST(expr AS type)`, and the
//! constructors `ARRAY(...)`, `MAP(...)`, `NAMED_STRUCT(...)`.

use crate::value::{DataType, StructField};
use std::borrow::Cow;
use std::fmt;

/// A lexical token, borrowing its text from the statement: only a string
/// with a `''` escape (and a hex literal's bytes) is owned.
#[derive(Debug, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Number(&'a str),
    Str(Cow<'a, str>),
    HexBin(Vec<u8>),
    Symbol(char),
}

/// Numeric literal suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumSuffix {
    /// `Y` — TINYINT literal.
    Byte,
    /// `S` — SMALLINT literal.
    Short,
    /// `L` — BIGINT literal.
    Long,
    /// `BD` — DECIMAL literal.
    Decimal,
    /// `D` — DOUBLE literal.
    Double,
    /// `F` — FLOAT literal.
    Float,
}

/// Interval unit in an `INTERVAL` literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalUnit {
    /// Calendar years.
    Year,
    /// Calendar months.
    Month,
    /// Days.
    Day,
    /// Hours.
    Hour,
    /// Minutes.
    Minute,
    /// Seconds.
    Second,
}

/// One `<magnitude> <unit>` term of an `INTERVAL` literal.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalPart<'a> {
    /// The magnitude, as written (may carry a sign and, for `SECOND`, a
    /// fractional part of up to microsecond precision). Borrowed from the
    /// statement unless a `-` token or a `''` escape had to be folded in.
    pub value: Cow<'a, str>,
    /// The unit keyword.
    pub unit: IntervalUnit,
}

impl<'a> IntervalPart<'a> {
    /// Convenience constructor.
    pub fn new(value: impl Into<Cow<'a, str>>, unit: IntervalUnit) -> IntervalPart<'a> {
        IntervalPart {
            value: value.into(),
            unit,
        }
    }
}

/// Evaluates the terms of an `INTERVAL` literal to the canonical
/// `(months, micros)` pair shared by both SQL dialects.
///
/// `YEAR`/`MONTH` terms accumulate into months; `DAY`/`HOUR`/`MINUTE`/
/// `SECOND` terms into microseconds. Only `SECOND` magnitudes may carry a
/// fraction, of at most six digits (microsecond precision); every other
/// unit requires an integer. On failure the error carries the offending
/// magnitude, for the dialects to wrap in their own parse-error types.
///
/// # Examples
///
/// ```
/// use csi_core::sql::{eval_interval_parts, IntervalPart, IntervalUnit};
///
/// let parts = [
///     IntervalPart::new("1", IntervalUnit::Day),
///     IntervalPart::new("2", IntervalUnit::Hour),
///     IntervalPart::new("0.5", IntervalUnit::Second),
/// ];
/// assert_eq!(
///     eval_interval_parts(&parts),
///     Ok((0, 86_400_000_000 + 2 * 3_600_000_000 + 500_000))
/// );
/// ```
pub fn eval_interval_parts(parts: &[IntervalPart<'_>]) -> Result<(i32, i64), String> {
    let mut months: i64 = 0;
    let mut micros: i64 = 0;
    let bad = |value: &str| format!("interval magnitude {value:?}");
    for part in parts {
        let raw = part.value.trim();
        let micros_per: i64 = match part.unit {
            IntervalUnit::Year | IntervalUnit::Month => {
                let n: i64 = raw.parse().map_err(|_| bad(&part.value))?;
                let m = if part.unit == IntervalUnit::Year {
                    n.checked_mul(12).ok_or_else(|| bad(&part.value))?
                } else {
                    n
                };
                months = months.checked_add(m).ok_or_else(|| bad(&part.value))?;
                continue;
            }
            IntervalUnit::Day => 86_400_000_000,
            IntervalUnit::Hour => 3_600_000_000,
            IntervalUnit::Minute => 60_000_000,
            IntervalUnit::Second => 1_000_000,
        };
        let us = if part.unit == IntervalUnit::Second {
            parse_seconds_micros(raw).ok_or_else(|| bad(&part.value))?
        } else {
            let n: i64 = raw.parse().map_err(|_| bad(&part.value))?;
            n.checked_mul(micros_per).ok_or_else(|| bad(&part.value))?
        };
        micros = micros.checked_add(us).ok_or_else(|| bad(&part.value))?;
    }
    let months = i32::try_from(months).map_err(|_| bad("months out of range"))?;
    Ok((months, micros))
}

/// Parses a `SECOND` magnitude — optionally signed, optionally fractional
/// with up to six digits — to exact microseconds. No floating point is
/// involved, so sub-second values survive unchanged.
fn parse_seconds_micros(raw: &str) -> Option<i64> {
    let (negative, body) = match raw.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, raw),
    };
    let (whole, frac) = match body.split_once('.') {
        Some((w, f)) => (w, f),
        None => (body, ""),
    };
    if whole.is_empty() && frac.is_empty() {
        return None;
    }
    if frac.len() > 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let seconds: i64 = if whole.is_empty() {
        0
    } else {
        whole
            .parse()
            .ok()
            .filter(|_| whole.bytes().all(|b| b.is_ascii_digit()))?
    };
    let mut sub: i64 = 0;
    if !frac.is_empty() {
        sub = frac.parse().ok()?;
        for _ in frac.len()..6 {
            sub *= 10;
        }
    }
    let magnitude = seconds.checked_mul(1_000_000)?.checked_add(sub)?;
    Some(if negative { -magnitude } else { magnitude })
}

/// A parsed literal expression, borrowing its text from the statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'a> {
    /// `NULL`.
    Null,
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// An unsuffixed numeric literal; its type is dialect-dependent.
    Number(&'a str),
    /// A suffixed numeric literal (`1Y`, `3L`, `1.5BD`, ...): its digits.
    TypedNumber(&'a str, NumSuffix),
    /// A quoted string, owned only when a `''` escape was folded.
    Str(Cow<'a, str>),
    /// `X'...'` hex binary.
    Binary(Vec<u8>),
    /// `DATE '...'`.
    DateLit(Cow<'a, str>),
    /// `TIMESTAMP '...'`.
    TimestampLit(Cow<'a, str>),
    /// `INTERVAL <n> <unit> [<n> <unit> ...]` — one or more terms, each
    /// `INTERVAL 3 MONTH`-style; compound literals (`INTERVAL 1 DAY 2 HOURS`)
    /// carry several terms.
    IntervalLit {
        /// The terms, in source order.
        parts: Vec<IntervalPart<'a>>,
    },
    /// `CAST(expr AS type)`.
    Cast(Box<Expr<'a>>, DataType),
    /// `ARRAY(e1, e2, ...)`.
    Array(Vec<Expr<'a>>),
    /// `MAP(k1, v1, k2, v2, ...)`.
    Map(Vec<(Expr<'a>, Expr<'a>)>),
    /// `NAMED_STRUCT('name1', e1, ...)`.
    NamedStruct(Vec<(Cow<'a, str>, Expr<'a>)>),
    /// Unary minus.
    Neg(Box<Expr<'a>>),
}

/// Projection of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectCols<'a> {
    /// `SELECT *`.
    Star,
    /// `SELECT c1, c2, ...` — names as written, case preserved.
    Columns(Vec<&'a str>),
}

/// Comparison operator in a `WHERE` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`.
    Eq,
    /// `!=` (also `<>`).
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl CmpOp {
    /// Whether an SQL comparison outcome satisfies this operator.
    ///
    /// `None` is the *unknown* of three-valued logic (a NULL operand or
    /// incomparable kinds): no operator matches it.
    pub fn matches(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering;
        let Some(o) = ord else {
            return false;
        };
        match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        }
    }
}

/// One comparison of a `WHERE` clause; clauses are AND-conjunctions of
/// comparisons (the subset both dialects support here).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison<'a> {
    /// Column name, as written.
    pub column: &'a str,
    /// Operator.
    pub op: CmpOp,
    /// Right-hand literal.
    pub literal: Expr<'a>,
}

/// A parsed statement. Names, numbers and strings are borrowed from the
/// statement's text; only a string with a `''` escape, a negative
/// interval magnitude, hex bytes and types are owned.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement<'a> {
    /// `CREATE TABLE [IF NOT EXISTS] t (col type, ...) [STORED AS fmt]`.
    CreateTable {
        /// Table name as written.
        name: &'a str,
        /// Column definitions, case preserved.
        columns: Vec<(&'a str, DataType)>,
        /// Storage format name from `STORED AS`, as written (formats match
        /// it case-insensitively).
        stored_as: Option<&'a str>,
        /// Whether `IF NOT EXISTS` was present.
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS] t`.
    DropTable {
        /// Table name as written.
        name: &'a str,
        /// Whether `IF EXISTS` was present.
        if_exists: bool,
    },
    /// `INSERT INTO t VALUES (..), (..)`.
    Insert {
        /// Target table as written.
        table: &'a str,
        /// Rows of literal expressions.
        rows: Vec<Vec<Expr<'a>>>,
    },
    /// `SELECT cols FROM t [WHERE c op lit [AND ...]]`.
    Select {
        /// Projection.
        columns: SelectCols<'a>,
        /// Source table as written.
        table: &'a str,
        /// AND-conjoined comparisons; empty means no filter.
        predicate: Vec<Comparison<'a>>,
    },
}

/// A parse error with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Splits a statement into tokens, walking it by byte offset. Every
/// delimiter the lexer looks for or steps over is ASCII, and an ASCII
/// byte never occurs inside a multi-byte character, so `i` and every
/// slice bound stay on character boundaries.
fn tokenize(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = input.as_bytes();
    let find = |from: usize, delimiter: char| input[from..].find(delimiter).map(|at| from + at);
    // Room for a one-cell statement's tokens in the first allocation.
    let mut tokens = Vec::with_capacity(16);
    let mut i = 0;
    while let Some(c) = input[i..].chars().next() {
        if c.is_whitespace() {
            i += c.len_utf8();
        } else if c == '\'' {
            // String literal with '' escaping: borrowed as written unless
            // an escape makes the text differ from the source.
            let mut escaped: Option<String> = None;
            let mut from = i + 1;
            loop {
                let Some(quote) = find(from, '\'') else {
                    return Err(ParseError::new("unterminated string literal"));
                };
                if bytes.get(quote + 1) == Some(&b'\'') {
                    escaped
                        .get_or_insert_with(String::new)
                        .push_str(&input[from..=quote]);
                    from = quote + 2;
                } else {
                    let tail = &input[from..quote];
                    tokens.push(Token::Str(match escaped {
                        Some(mut text) => {
                            text.push_str(tail);
                            Cow::Owned(text)
                        }
                        None => Cow::Borrowed(tail),
                    }));
                    i = quote + 1;
                    break;
                }
            }
        } else if c == '`' {
            // Back-quoted identifier, case preserved.
            let Some(close) = find(i + 1, '`') else {
                return Err(ParseError::new("unterminated quoted identifier"));
            };
            tokens.push(Token::Ident(&input[i + 1..close]));
            i = close + 1;
        } else if (c == 'X' || c == 'x') && bytes.get(i + 1) == Some(&b'\'') {
            // Hex binary literal.
            let Some(close) = find(i + 2, '\'') else {
                return Err(ParseError::new("unterminated hex literal"));
            };
            let hex = &input[i + 2..close];
            i = close + 1;
            if !hex.len().is_multiple_of(2) || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(ParseError::new(format!("invalid hex literal X'{hex}'")));
            }
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|j| u8::from_str_radix(&hex[j..j + 2], 16).expect("validated hex"))
                .collect();
            tokens.push(Token::HexBin(bytes));
        } else if c.is_ascii_digit()
            || (c == '.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            // Number, optionally with a fraction and an alpha suffix.
            let start = i;
            let mut seen_dot = false;
            while let Some(&d) = bytes.get(i) {
                if d == b'.' && !seen_dot {
                    seen_dot = true;
                } else if !d.is_ascii_digit() {
                    break;
                }
                i += 1;
            }
            // Suffix letters (Y, S, L, D, F, BD) stick to the number.
            let digits_end = i;
            while i - digits_end < 2 && bytes.get(i).is_some_and(u8::is_ascii_alphabetic) {
                i += 1;
            }
            tokens.push(Token::Number(&input[start..i]));
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while bytes
                .get(i)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'.')
            {
                i += 1;
            }
            tokens.push(Token::Ident(&input[start..i]));
        } else if "(),*<>:;-=!".contains(c) {
            tokens.push(Token::Symbol(c));
            i += 1;
        } else {
            return Err(ParseError::new(format!("unexpected character {c:?}")));
        }
    }
    Ok(tokens)
}

/// Tokens are consumed by value, front to back: the parser copies a
/// token's text only where the AST keeps it.
struct Parser<'a> {
    tokens: std::vec::IntoIter<Token<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.as_slice().first()
    }

    fn next(&mut self) -> Option<Token<'a>> {
        self.tokens.next()
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.tokens.next();
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, c: char) -> bool {
        if let Some(Token::Symbol(s)) = self.peek() {
            if *s == c {
                self.tokens.next();
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_symbol(c) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected {c:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn expect_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(ParseError::new(format!("expected string, found {other:?}"))),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement<'a>, ParseError> {
        if self.eat_keyword("CREATE") {
            self.expect_keyword("TABLE")?;
            let if_not_exists = if self.eat_keyword("IF") {
                self.expect_keyword("NOT")?;
                self.expect_keyword("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.expect_ident()?;
            self.expect_symbol('(')?;
            let mut columns = Vec::new();
            loop {
                let col = self.expect_ident()?;
                let ty = self.parse_type()?;
                columns.push((col, ty));
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            let stored_as = if self.eat_keyword("STORED") {
                self.expect_keyword("AS")?;
                Some(self.expect_ident()?)
            } else {
                None
            };
            Ok(Statement::CreateTable {
                name,
                columns,
                stored_as,
                if_not_exists,
            })
        } else if self.eat_keyword("DROP") {
            self.expect_keyword("TABLE")?;
            let if_exists = if self.eat_keyword("IF") {
                self.expect_keyword("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.expect_ident()?;
            Ok(Statement::DropTable { name, if_exists })
        } else if self.eat_keyword("INSERT") {
            self.expect_keyword("INTO")?;
            // `TABLE` keyword is optional HiveQL syntax.
            let _ = self.eat_keyword("TABLE");
            let table = self.expect_ident()?;
            self.expect_keyword("VALUES")?;
            let mut rows = Vec::new();
            loop {
                self.expect_symbol('(')?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_symbol(',') {
                        break;
                    }
                }
                self.expect_symbol(')')?;
                rows.push(row);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            Ok(Statement::Insert { table, rows })
        } else if self.eat_keyword("SELECT") {
            let columns = if self.eat_symbol('*') {
                SelectCols::Star
            } else {
                let mut cols = vec![self.expect_ident()?];
                while self.eat_symbol(',') {
                    cols.push(self.expect_ident()?);
                }
                SelectCols::Columns(cols)
            };
            self.expect_keyword("FROM")?;
            let table = self.expect_ident()?;
            let mut predicate = Vec::new();
            if self.eat_keyword("WHERE") {
                loop {
                    let column = self.expect_ident()?;
                    let op = self.parse_cmp_op()?;
                    let literal = self.parse_expr()?;
                    predicate.push(Comparison {
                        column,
                        op,
                        literal,
                    });
                    if !self.eat_keyword("AND") {
                        break;
                    }
                }
            }
            Ok(Statement::Select {
                columns,
                table,
                predicate,
            })
        } else {
            Err(ParseError::new(format!(
                "expected CREATE/DROP/INSERT/SELECT, found {:?}",
                self.peek()
            )))
        }
    }

    fn parse_cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        if self.eat_symbol('=') {
            return Ok(CmpOp::Eq);
        }
        if self.eat_symbol('!') {
            self.expect_symbol('=')?;
            return Ok(CmpOp::Ne);
        }
        if self.eat_symbol('<') {
            if self.eat_symbol('=') {
                return Ok(CmpOp::Le);
            }
            if self.eat_symbol('>') {
                return Ok(CmpOp::Ne);
            }
            return Ok(CmpOp::Lt);
        }
        if self.eat_symbol('>') {
            if self.eat_symbol('=') {
                return Ok(CmpOp::Ge);
            }
            return Ok(CmpOp::Gt);
        }
        Err(ParseError::new(format!(
            "expected comparison operator, found {:?}",
            self.peek()
        )))
    }

    fn parse_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        if self.eat_symbol('-') {
            return Ok(Expr::Neg(Box::new(self.parse_expr()?)));
        }
        match self.next() {
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::HexBin(b)) => Ok(Expr::Binary(b)),
            Some(Token::Number(raw)) => split_number(raw),
            Some(Token::Ident(id)) => {
                let mut buf = [0; KEYWORD_MAX];
                match upper(id, &mut buf) {
                    "NULL" => Ok(Expr::Null),
                    "TRUE" => Ok(Expr::Bool(true)),
                    "FALSE" => Ok(Expr::Bool(false)),
                    "DATE" => Ok(Expr::DateLit(self.expect_string()?)),
                    "TIMESTAMP" => Ok(Expr::TimestampLit(self.expect_string()?)),
                    "INTERVAL" => {
                        let mut parts = Vec::new();
                        loop {
                            let (value, neg) = match self.next() {
                                Some(Token::Str(s)) => (s, false),
                                Some(Token::Number(n)) => (Cow::Borrowed(n), false),
                                Some(Token::Symbol('-')) => match self.next() {
                                    Some(Token::Number(n)) => (Cow::Borrowed(n), true),
                                    other => {
                                        return Err(ParseError::new(format!(
                                            "expected interval magnitude, found {other:?}"
                                        )))
                                    }
                                },
                                other => {
                                    return Err(ParseError::new(format!(
                                        "expected interval magnitude, found {other:?}"
                                    )))
                                }
                            };
                            let unit_name = self.expect_ident()?;
                            let mut buf = [0; KEYWORD_MAX];
                            let unit = match upper(unit_name, &mut buf).trim_end_matches('S') {
                                "YEAR" => IntervalUnit::Year,
                                "MONTH" => IntervalUnit::Month,
                                "DAY" => IntervalUnit::Day,
                                "HOUR" => IntervalUnit::Hour,
                                "MINUTE" => IntervalUnit::Minute,
                                "SECOND" => IntervalUnit::Second,
                                _ => {
                                    return Err(ParseError::new(format!(
                                        "unknown interval unit {}",
                                        unit_name.to_ascii_uppercase().trim_end_matches('S')
                                    )))
                                }
                            };
                            let value = if neg {
                                Cow::Owned(format!("-{value}"))
                            } else {
                                value
                            };
                            parts.push(IntervalPart { value, unit });
                            // Another magnitude token continues the compound
                            // literal (`INTERVAL 1 DAY 2 HOURS`); this grammar
                            // has no infix arithmetic, so a trailing `-` can
                            // only start a negative next term.
                            let more = matches!(
                                self.peek(),
                                Some(Token::Str(_))
                                    | Some(Token::Number(_))
                                    | Some(Token::Symbol('-'))
                            );
                            if !more {
                                break;
                            }
                        }
                        Ok(Expr::IntervalLit { parts })
                    }
                    "CAST" => {
                        self.expect_symbol('(')?;
                        let inner = self.parse_expr()?;
                        self.expect_keyword("AS")?;
                        let ty = self.parse_type()?;
                        self.expect_symbol(')')?;
                        Ok(Expr::Cast(Box::new(inner), ty))
                    }
                    "ARRAY" => {
                        self.expect_symbol('(')?;
                        let mut items = Vec::new();
                        if !self.eat_symbol(')') {
                            loop {
                                items.push(self.parse_expr()?);
                                if !self.eat_symbol(',') {
                                    break;
                                }
                            }
                            self.expect_symbol(')')?;
                        }
                        Ok(Expr::Array(items))
                    }
                    "MAP" => {
                        self.expect_symbol('(')?;
                        let mut pairs = Vec::new();
                        if !self.eat_symbol(')') {
                            loop {
                                let k = self.parse_expr()?;
                                self.expect_symbol(',')?;
                                let v = self.parse_expr()?;
                                pairs.push((k, v));
                                if !self.eat_symbol(',') {
                                    break;
                                }
                            }
                            self.expect_symbol(')')?;
                        }
                        Ok(Expr::Map(pairs))
                    }
                    "NAMED_STRUCT" => {
                        self.expect_symbol('(')?;
                        let mut fields = Vec::new();
                        loop {
                            let name = self.expect_string()?;
                            self.expect_symbol(',')?;
                            let v = self.parse_expr()?;
                            fields.push((name, v));
                            if !self.eat_symbol(',') {
                                break;
                            }
                        }
                        self.expect_symbol(')')?;
                        Ok(Expr::NamedStruct(fields))
                    }
                    _ => Err(ParseError::new(format!(
                        "unexpected identifier {id:?} in expression"
                    ))),
                }
            }
            other => Err(ParseError::new(format!(
                "unexpected token {other:?} in expression"
            ))),
        }
    }

    fn parse_type(&mut self) -> Result<DataType, ParseError> {
        let name = self.expect_ident()?;
        let mut buf = [0; KEYWORD_MAX];
        let ty = match upper(name, &mut buf) {
            "BOOLEAN" | "BOOL" => DataType::Boolean,
            "TINYINT" | "BYTE" => DataType::Byte,
            "SMALLINT" | "SHORT" => DataType::Short,
            "INT" | "INTEGER" => DataType::Int,
            "BIGINT" | "LONG" => DataType::Long,
            "FLOAT" | "REAL" => DataType::Float,
            "DOUBLE" => DataType::Double,
            "DECIMAL" | "NUMERIC" => {
                if self.eat_symbol('(') {
                    let p = self.expect_number_u32()? as u8;
                    let s = if self.eat_symbol(',') {
                        self.expect_number_u32()? as u8
                    } else {
                        0
                    };
                    self.expect_symbol(')')?;
                    DataType::Decimal(p, s)
                } else {
                    DataType::Decimal(10, 0)
                }
            }
            "STRING" | "TEXT" => DataType::String,
            "CHAR" => {
                self.expect_symbol('(')?;
                let n = self.expect_number_u32()?;
                self.expect_symbol(')')?;
                DataType::Char(n)
            }
            "VARCHAR" => {
                self.expect_symbol('(')?;
                let n = self.expect_number_u32()?;
                self.expect_symbol(')')?;
                DataType::Varchar(n)
            }
            "BINARY" => DataType::Binary,
            "DATE" => DataType::Date,
            "TIMESTAMP" => DataType::Timestamp,
            "INTERVAL" => DataType::Interval,
            "ARRAY" => {
                self.expect_symbol('<')?;
                let inner = self.parse_type()?;
                self.expect_symbol('>')?;
                DataType::Array(Box::new(inner))
            }
            "MAP" => {
                self.expect_symbol('<')?;
                let k = self.parse_type()?;
                self.expect_symbol(',')?;
                let v = self.parse_type()?;
                self.expect_symbol('>')?;
                DataType::Map(Box::new(k), Box::new(v))
            }
            "STRUCT" => {
                self.expect_symbol('<')?;
                let mut fields = Vec::new();
                loop {
                    let fname = self.expect_ident()?;
                    self.expect_symbol(':')?;
                    let fty = self.parse_type()?;
                    fields.push(StructField::new(fname, fty));
                    if !self.eat_symbol(',') {
                        break;
                    }
                }
                self.expect_symbol('>')?;
                DataType::Struct(fields)
            }
            _ => {
                return Err(ParseError::new(format!(
                    "unknown type {}",
                    name.to_ascii_uppercase()
                )))
            }
        };
        Ok(ty)
    }

    fn expect_number_u32(&mut self) -> Result<u32, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => n
                .parse()
                .map_err(|_| ParseError::new(format!("expected integer, found {n:?}"))),
            other => Err(ParseError::new(format!(
                "expected integer, found {other:?}"
            ))),
        }
    }
}

/// Room for the longest keyword, type or unit name (`NAMED_STRUCT`).
const KEYWORD_MAX: usize = 16;

/// `word` upper-cased into `buf`, for matching against keywords without
/// allocating. A word longer than `buf` comes back empty, which matches no
/// keyword; an error that names it upper-cases it again.
fn upper<'b>(word: &str, buf: &'b mut [u8; KEYWORD_MAX]) -> &'b str {
    let Some(out) = buf.get_mut(..word.len()) else {
        return "";
    };
    out.copy_from_slice(word.as_bytes());
    out.make_ascii_uppercase();
    std::str::from_utf8(out).expect("ASCII case mapping keeps UTF-8 intact")
}

fn split_number(raw: &str) -> Result<Expr<'_>, ParseError> {
    let is_number = |text: &str| text.bytes().all(|b| b.is_ascii_digit() || b == b'.');
    for (suffix, kind) in [
        ("BD", NumSuffix::Decimal),
        ("Y", NumSuffix::Byte),
        ("S", NumSuffix::Short),
        ("L", NumSuffix::Long),
        ("D", NumSuffix::Double),
        ("F", NumSuffix::Float),
    ] {
        // A number token is ASCII, so every split is a character boundary.
        let Some(at) = raw.len().checked_sub(suffix.len()) else {
            continue;
        };
        let (digits, tail) = raw.split_at(at);
        if tail.eq_ignore_ascii_case(suffix) && !digits.is_empty() && is_number(digits) {
            return Ok(Expr::TypedNumber(digits, kind));
        }
    }
    if is_number(raw) {
        Ok(Expr::Number(raw))
    } else {
        Err(ParseError::new(format!("invalid numeric literal {raw:?}")))
    }
}

/// Parses a single SQL statement.
///
/// # Examples
///
/// ```
/// use csi_core::sql::{parse, Statement};
///
/// let stmt = parse("SELECT * FROM t").unwrap();
/// assert!(matches!(stmt, Statement::Select { .. }));
/// ```
pub fn parse(input: &str) -> Result<Statement<'_>, ParseError> {
    let mut tokens = tokenize(input)?;
    // A trailing semicolon is tolerated.
    if tokens.last() == Some(&Token::Symbol(';')) {
        tokens.pop();
    }
    let mut p = Parser {
        tokens: tokens.into_iter(),
    };
    let stmt = p.parse_statement()?;
    if p.peek().is_some() {
        return Err(ParseError::new(format!(
            "trailing tokens after statement: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// Appends `s` to `out` as a SQL string literal with `''` escaping.
pub fn write_quoted(out: &mut String, s: &str) {
    out.push('\'');
    for (i, part) in s.split('\'').enumerate() {
        if i > 0 {
            out.push_str("''");
        }
        out.push_str(part);
    }
    out.push('\'');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let stmt = parse(
            "CREATE TABLE t (a INT, B STRING, c DECIMAL(10,2), d MAP<STRING,INT>) STORED AS orc",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                stored_as,
                if_not_exists,
            } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 4);
                assert_eq!(columns[1].0, "B"); // Case preserved by the parser.
                assert_eq!(columns[2].1, DataType::Decimal(10, 2));
                assert_eq!(stored_as, Some("orc")); // As written.
                assert!(!if_not_exists);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_struct_and_nested_types() {
        let stmt = parse("CREATE TABLE t (s STRUCT<Inner:INT,b:ARRAY<STRING>>)").unwrap();
        let Statement::CreateTable { columns, .. } = stmt else {
            panic!()
        };
        assert_eq!(columns[0].1.sql_name(), "STRUCT<Inner:INT,b:ARRAY<STRING>>");
    }

    #[test]
    fn parses_insert_with_literals() {
        let stmt = parse(
            "INSERT INTO t VALUES (1, 'it''s', NULL, TRUE, -2.5, DATE '2020-01-02', X'CAFE')",
        )
        .unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row[0], Expr::Number("1"));
        assert_eq!(row[1], Expr::Str("it's".into()));
        assert_eq!(row[2], Expr::Null);
        assert_eq!(row[3], Expr::Bool(true));
        assert_eq!(row[4], Expr::Neg(Box::new(Expr::Number("2.5"))));
        assert_eq!(row[5], Expr::DateLit("2020-01-02".into()));
        assert_eq!(row[6], Expr::Binary(vec![0xCA, 0xFE]));
    }

    #[test]
    fn parses_multiple_rows() {
        let stmt = parse("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn parses_suffixed_numbers() {
        let stmt = parse("INSERT INTO t VALUES (1Y, 2S, 3L, 1.50BD, 2.5D, 7F)").unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(rows[0][0], Expr::TypedNumber("1", NumSuffix::Byte));
        assert_eq!(rows[0][1], Expr::TypedNumber("2", NumSuffix::Short));
        assert_eq!(rows[0][2], Expr::TypedNumber("3", NumSuffix::Long));
        assert_eq!(rows[0][3], Expr::TypedNumber("1.50", NumSuffix::Decimal));
        assert_eq!(rows[0][4], Expr::TypedNumber("2.5", NumSuffix::Double));
        assert_eq!(rows[0][5], Expr::TypedNumber("7", NumSuffix::Float));
    }

    #[test]
    fn parses_constructors_and_cast() {
        let stmt = parse(
            "INSERT INTO t VALUES (ARRAY(1, 2), MAP('k', 1), NAMED_STRUCT('a', 1, 'b', 'x'), CAST('5' AS INT))",
        )
        .unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert!(matches!(rows[0][0], Expr::Array(ref v) if v.len() == 2));
        assert!(matches!(rows[0][1], Expr::Map(ref v) if v.len() == 1));
        assert!(matches!(rows[0][2], Expr::NamedStruct(ref v) if v.len() == 2));
        assert!(matches!(rows[0][3], Expr::Cast(_, DataType::Int)));
    }

    #[test]
    fn parses_intervals() {
        let stmt =
            parse("INSERT INTO t VALUES (INTERVAL 3 MONTH, INTERVAL '7' DAYS, INTERVAL -2 HOURS)")
                .unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(
            rows[0][0],
            Expr::IntervalLit {
                parts: vec![IntervalPart::new("3", IntervalUnit::Month)]
            }
        );
        assert_eq!(
            rows[0][1],
            Expr::IntervalLit {
                parts: vec![IntervalPart::new("7", IntervalUnit::Day)]
            }
        );
        assert_eq!(
            rows[0][2],
            Expr::IntervalLit {
                parts: vec![IntervalPart::new("-2", IntervalUnit::Hour)]
            }
        );
    }

    #[test]
    fn parses_compound_intervals() {
        let stmt =
            parse("INSERT INTO t VALUES (INTERVAL 1 DAY 2 HOURS, INTERVAL 3 MONTH '4.5' SECONDS)")
                .unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(
            rows[0][0],
            Expr::IntervalLit {
                parts: vec![
                    IntervalPart::new("1", IntervalUnit::Day),
                    IntervalPart::new("2", IntervalUnit::Hour),
                ]
            }
        );
        assert_eq!(
            rows[0][1],
            Expr::IntervalLit {
                parts: vec![
                    IntervalPart::new("3", IntervalUnit::Month),
                    IntervalPart::new("4.5", IntervalUnit::Second),
                ]
            }
        );
        assert_eq!(
            eval_interval_parts(&[
                IntervalPart::new("3", IntervalUnit::Month),
                IntervalPart::new("4.5", IntervalUnit::Second),
            ]),
            Ok((3, 4_500_000))
        );
    }

    #[test]
    fn parses_select_and_drop() {
        assert_eq!(
            parse("SELECT * FROM t;").unwrap(),
            Statement::Select {
                columns: SelectCols::Star,
                table: "t",
                predicate: vec![]
            }
        );
        assert_eq!(
            parse("SELECT A, b FROM t").unwrap(),
            Statement::Select {
                columns: SelectCols::Columns(vec!["A", "b"]),
                table: "t",
                predicate: vec![]
            }
        );
        assert_eq!(
            parse("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                name: "t",
                if_exists: true
            }
        );
    }

    #[test]
    fn parses_where_clauses() {
        let stmt = parse("SELECT * FROM t WHERE a >= 5 AND name = 'x' AND b <> 2").unwrap();
        let Statement::Select { predicate, .. } = stmt else {
            panic!()
        };
        assert_eq!(predicate.len(), 3);
        assert_eq!(predicate[0].column, "a");
        assert_eq!(predicate[0].op, CmpOp::Ge);
        assert_eq!(predicate[1].op, CmpOp::Eq);
        assert_eq!(predicate[1].literal, Expr::Str("x".into()));
        assert_eq!(predicate[2].op, CmpOp::Ne);
        // All operator spellings parse.
        for (text, op) in [
            ("=", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<>", CmpOp::Ne),
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
        ] {
            let text = format!("SELECT * FROM t WHERE c {text} 1");
            let stmt = parse(&text).unwrap();
            let Statement::Select { predicate, .. } = stmt else {
                panic!()
            };
            assert_eq!(predicate[0].op, op, "{text}");
        }
        // Malformed clauses are rejected.
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t WHERE a ~ 1").is_err());
        assert!(parse("SELECT * FROM t WHERE a = 1 AND").is_err());
    }

    #[test]
    fn quoted_identifiers_preserve_case() {
        let stmt = parse("CREATE TABLE t (`MiXeD` INT)").unwrap();
        let Statement::CreateTable { columns, .. } = stmt else {
            panic!()
        };
        assert_eq!(columns[0].0, "MiXeD");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("SELEC * FROM t").is_err());
        assert!(parse("INSERT INTO t VALUES (1) garbage").is_err());
        assert!(parse("INSERT INTO t VALUES ('unterminated").is_err());
        assert!(parse("CREATE TABLE t (a WIDGET)").is_err());
        assert!(parse("INSERT INTO t VALUES (X'ABC')").is_err());
    }

    /// One statement per token class, each pinned to its `Statement`.
    #[test]
    fn every_token_class_lexes_to_the_same_statement() {
        let insert = |row: Vec<Expr<'static>>| Statement::Insert {
            table: "t",
            rows: vec![row],
        };
        let typed = |digits: &'static str, suffix| Expr::TypedNumber(digits, suffix);
        let cases: Vec<(&str, Statement)> = vec![
            (
                "INSERT INTO t VALUES ('it''s', '', '''', 'é''中''', 'plain é')",
                insert(vec![
                    Expr::Str("it's".into()),
                    Expr::Str("".into()),
                    Expr::Str("'".into()),
                    Expr::Str("é'中'".into()),
                    Expr::Str("plain é".into()),
                ]),
            ),
            (
                "INSERT INTO t VALUES (X'CAFE', x'', X'0a')",
                insert(vec![
                    Expr::Binary(vec![0xCA, 0xFE]),
                    Expr::Binary(vec![]),
                    Expr::Binary(vec![0x0A]),
                ]),
            ),
            (
                "INSERT INTO t VALUES (.5, 5., 007, 1.5BD, 12Y, 3l, 2.5d, -7F);",
                insert(vec![
                    Expr::Number(".5"),
                    Expr::Number("5."),
                    Expr::Number("007"),
                    typed("1.5", NumSuffix::Decimal),
                    typed("12", NumSuffix::Byte),
                    typed("3", NumSuffix::Long),
                    typed("2.5", NumSuffix::Double),
                    Expr::Neg(Box::new(typed("7", NumSuffix::Float))),
                ]),
            ),
            (
                "INSERT INTO t VALUES (DATE '2020-01-02', INTERVAL '1''' DAY -2 HOURS)",
                insert(vec![
                    Expr::DateLit("2020-01-02".into()),
                    Expr::IntervalLit {
                        parts: vec![
                            IntervalPart::new("1'", IntervalUnit::Day),
                            IntervalPart::new("-2", IntervalUnit::Hour),
                        ],
                    },
                ]),
            ),
            (
                "SELECT `Mi Xed`, `é`, _c.d FROM `T-1` WHERE `a b` <> 'x' ;",
                Statement::Select {
                    columns: SelectCols::Columns(vec![
                        "Mi Xed",
                        "é",
                        "_c.d",
                    ]),
                    table: "T-1",
                    predicate: vec![Comparison {
                        column: "a b",
                        op: CmpOp::Ne,
                        literal: Expr::Str("x".into()),
                    }],
                },
            ),
            (
                // Unicode whitespace separates tokens like a space.
                "SELECT\u{a0}*\u{3000}FROM\tdb.t\n",
                Statement::Select {
                    columns: SelectCols::Star,
                    table: "db.t",
                    predicate: vec![],
                },
            ),
            (
                "CREATE TABLE IF NOT EXISTS `t` (`Ä` CHAR(3), s STRUCT<`f g`:INT>) STORED AS parquet",
                Statement::CreateTable {
                    name: "t",
                    columns: vec![
                        ("Ä", DataType::Char(3)),
                        (
                            "s",
                            DataType::Struct(vec![StructField::new("f g", DataType::Int)]),
                        ),
                    ],
                    stored_as: Some("parquet"),
                    if_not_exists: true,
                },
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(parse(text), Ok(expected), "{text}");
        }
    }

    /// Lexer errors, and the parser errors that print a token, are pinned
    /// byte for byte: engines wrap them into the errors a report shows.
    #[test]
    fn error_messages_are_unchanged() {
        let cases = [
            ("INSERT INTO t VALUES ('abc", "unterminated string literal"),
            (
                "INSERT INTO t VALUES ('abc''",
                "unterminated string literal",
            ),
            ("SELECT `abc FROM t", "unterminated quoted identifier"),
            ("INSERT INTO t VALUES (X'CAFE", "unterminated hex literal"),
            (
                "INSERT INTO t VALUES (X'ABC')",
                "invalid hex literal X'ABC'",
            ),
            ("INSERT INTO t VALUES (X'é')", "invalid hex literal X'é'"),
            ("INSERT INTO t VALUES (X'0g')", "invalid hex literal X'0g'"),
            ("SELECT * FROM t WHERE a ~ 1", "unexpected character '~'"),
            ("SELECT é FROM t", "unexpected character 'é'"),
            // A lexer error anywhere wins over an earlier parser error.
            ("SELEC * FROM t 😀", "unexpected character '😀'"),
            (
                "SELECT * FROM 'it''s'",
                "expected identifier, found Some(Str(\"it's\"))",
            ),
            (
                "SELECT * FROM 'x'",
                "expected identifier, found Some(Str(\"x\"))",
            ),
            (
                "SELECT * FROM t `t 2`",
                "trailing tokens after statement: Some(Ident(\"t 2\"))",
            ),
            (
                "SELECT * FROM t; SELECT * FROM t;",
                "trailing tokens after statement: Some(Symbol(';'))",
            ),
            (
                "CREATE TABLE t (a DECIMAL(x))",
                "expected integer, found Some(Ident(\"x\"))",
            ),
            (
                "CREATE TABLE t (a CHAR(1Y))",
                "expected integer, found \"1Y\"",
            ),
            (
                "INSERT INTO t VALUES (X'CAFE' 1.5)",
                "expected ')', found Some(Number(\"1.5\"))",
            ),
            (
                "INSERT INTO t VALUES (DATE X'00')",
                "expected string, found Some(HexBin([0]))",
            ),
            (
                "INSERT INTO t VALUES (1X)",
                "invalid numeric literal \"1X\"",
            ),
            (
                "INSERT INTO t VALUES (1ABC)",
                "invalid numeric literal \"1AB\"",
            ),
            ("", "expected CREATE/DROP/INSERT/SELECT, found None"),
        ];
        for (text, message) in cases {
            assert_eq!(parse(text), Err(ParseError::new(message)), "{text}");
        }
    }

    #[test]
    fn write_quoted_escapes() {
        for (s, quoted) in [("a'b", "'a''b'"), ("", "''"), ("''", "''''''")] {
            let mut out = String::from("x");
            write_quoted(&mut out, s);
            assert_eq!(out, format!("x{quoted}"), "{s:?}");
        }
    }
}
