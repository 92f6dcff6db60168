//! Test-input generation (Section 8.1).
//!
//! "We generate input data based on the publicly documented specifications
//! of each interface. The generated inputs cover all the data types that
//! are supported by each interface. These inputs include both valid and
//! invalid data … In total, we generated 422 values … 210 are valid and 212
//! are invalid."
//!
//! This module reproduces that catalogue: for every supported column type
//! it emits boundary values, representative values, format variants, and
//! malformed inputs. A unit test pins the totals to the paper's numbers.

use csi_core::column::{self, ColumnValues, ValueColumn};
use csi_core::rng::xorshift64;
use csi_core::value::{parse_date, parse_timestamp, DataType, Decimal, StructField, Value};
use serde::{Deserialize, Serialize};

/// Whether an input is expected to be representable in its column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Validity {
    /// Representable: checked by the write–read and differential oracles.
    Valid,
    /// Not representable: checked by the error-handling (and differential)
    /// oracles.
    Invalid,
}

/// One generated input: a column type and a value to store in it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestInput {
    /// Stable id (index into the generated catalogue).
    pub id: usize,
    /// The declared column type.
    pub column_type: DataType,
    /// The value to insert.
    pub value: Value,
    /// Expected representability.
    pub validity: Validity,
    /// Human-readable label for reports.
    pub label: String,
    /// For valid inputs whose storage involves a legitimate conversion
    /// (e.g. an INT stored in a STRING column), the value the write–read
    /// oracle should expect back. `None` means the input itself.
    pub expected_back: Option<Value>,
}

impl TestInput {
    /// The value the write–read oracle compares against.
    pub fn expected(&self) -> &Value {
        self.expected_back.as_ref().unwrap_or(&self.value)
    }
}

struct Gen {
    inputs: Vec<TestInput>,
}

impl Gen {
    fn push(&mut self, column_type: DataType, value: Value, validity: Validity, label: &str) {
        self.inputs.push(TestInput {
            id: self.inputs.len(),
            column_type,
            value,
            validity,
            label: label.to_string(),
            expected_back: None,
        });
    }

    fn valid(&mut self, t: DataType, v: Value, label: &str) {
        self.push(t, v, Validity::Valid, label);
    }

    /// A valid input whose round-trip legitimately converts the value.
    fn valid_as(&mut self, t: DataType, v: Value, expected: Value, label: &str) {
        self.push(t, v, Validity::Valid, label);
        self.inputs.last_mut().expect("just pushed").expected_back = Some(expected);
    }

    fn invalid(&mut self, t: DataType, v: Value, label: &str) {
        self.push(t, v, Validity::Invalid, label);
    }
}

fn dec(s: &str) -> Value {
    Value::Decimal(Decimal::parse(s).expect("static decimal"))
}

fn date(s: &str) -> Value {
    Value::Date(parse_date(s).expect("static date"))
}

fn ts(s: &str) -> Value {
    Value::Timestamp(parse_timestamp(s).expect("static timestamp"))
}

/// The full input catalogue: 422 inputs, 210 valid, 212 invalid.
///
/// The catalogue is deterministic, so it is built once per process and
/// borrowed from there; callers that need only part of it (a
/// `CataloguePrefix`, its length) clone only that part.
pub fn catalogue() -> &'static [TestInput] {
    static CATALOGUE: std::sync::OnceLock<Vec<TestInput>> = std::sync::OnceLock::new();
    CATALOGUE.get_or_init(build_catalogue)
}

/// An owned copy of the whole [`catalogue`].
pub fn generate_inputs() -> Vec<TestInput> {
    catalogue().to_vec()
}

/// Builds the catalogue from scratch; [`catalogue`] caches this.
fn build_catalogue() -> Vec<TestInput> {
    let mut g = Gen { inputs: Vec::new() };
    integers(&mut g);
    floats(&mut g);
    decimals(&mut g);
    booleans(&mut g);
    strings(&mut g);
    chars_varchars(&mut g);
    binaries(&mut g);
    dates(&mut g);
    timestamps(&mut g);
    intervals(&mut g);
    nested(&mut g);
    g.inputs
}

fn integers(g: &mut Gen) {
    let widths: [(DataType, i128, i128); 4] = [
        (DataType::Byte, i8::MIN as i128, i8::MAX as i128),
        (DataType::Short, i16::MIN as i128, i16::MAX as i128),
        (DataType::Int, i32::MIN as i128, i32::MAX as i128),
        (DataType::Long, i64::MIN as i128, i64::MAX as i128),
    ];
    for (ty, min, max) in widths {
        let mk = |v: i128| -> Value {
            match ty {
                DataType::Byte => Value::Byte(v as i8),
                DataType::Short => Value::Short(v as i16),
                DataType::Int => Value::Int(v as i32),
                _ => Value::Long(v as i64),
            }
        };
        // Boundaries and representative points: 16 valid values per width.
        for v in [
            0,
            1,
            -1,
            max,
            min,
            max - 1,
            min + 1,
            42,
            -42,
            max / 2,
            2,
            -2,
            10,
            -10,
            7,
            max / 4,
        ] {
            g.valid(ty.clone(), mk(v), &format!("{ty} value {v}"));
        }
        // Out-of-range typed values: 4 invalid per width (carried in the
        // next-wider representation, or a decimal for LONG).
        let over = [max + 1, min - 1, max * 2, min * 2];
        for v in over {
            let carrier = if ty == DataType::Long {
                dec(&v.to_string())
            } else {
                Value::Long(v as i64)
            };
            g.invalid(ty.clone(), carrier, &format!("{ty} overflow {v}"));
        }
        // Malformed and boundary-crossing strings: 20 invalid per width.
        let bad: [String; 20] = [
            (max + 1).to_string(),
            (min - 1).to_string(),
            format!(" {} ", max / 3),
            "abc".to_string(),
            String::new(),
            "12.5".to_string(),
            "1e3".to_string(),
            "0x10".to_string(),
            format!("{}junk", max / 5),
            "NaN".to_string(),
            "true".to_string(),
            "12 34".to_string(),
            "--3".to_string(),
            "e5".to_string(),
            "0b101".to_string(),
            "12.0.0".to_string(),
            " ".to_string(),
            "9".repeat(40),
            "∞".to_string(),
            "th1rty".to_string(),
        ];
        for s in bad {
            g.invalid(
                ty.clone(),
                Value::Str(s.clone()),
                &format!("{ty} from string {s:?}"),
            );
        }
    }
}

fn floats(g: &mut Gen) {
    for ty in [DataType::Float, DataType::Double] {
        let mk = |v: f64| -> Value {
            if ty == DataType::Float {
                Value::Float(v as f32)
            } else {
                Value::Double(v)
            }
        };
        for (v, label) in [
            (0.0, "zero"),
            (-0.0, "negative zero"),
            (1.5, "simple"),
            (-2.25, "negative"),
            (f32::MAX as f64, "f32 max"),
            (1e-10, "tiny"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "+inf"),
            (f64::NEG_INFINITY, "-inf"),
            (std::f64::consts::PI, "pi"),
        ] {
            g.valid(ty.clone(), mk(v), &format!("{ty} {label}"));
        }
        for s in [
            "abc", "1.2.3", "--5", "1,5", "", "1..2", "NaN5", "0x1p3", "twelve",
        ] {
            g.invalid(
                ty.clone(),
                Value::Str(s.into()),
                &format!("{ty} from string {s:?}"),
            );
        }
    }
}

fn decimals(g: &mut Gen) {
    // Several declared decimal types exercise precision/scale handling.
    let d102 = DataType::Decimal(10, 2);
    for (v, label) in [
        ("0.00", "zero"),
        ("1.50", "exact scale"),
        ("-1.50", "negative"),
        ("12345678.99", "max digits"),
        ("-12345678.99", "min digits"),
        ("0.01", "smallest step"),
        ("1.5", "runtime scale 1"), // D02 driver: valid, narrower scale.
        ("100", "integral"),        // D02 driver: valid, scale 0.
    ] {
        g.valid(d102.clone(), dec(v), &format!("decimal(10,2) {label} {v}"));
    }
    for (v, label) in [
        ("123.456", "excess scale"), // D05 driver.
        ("123456789012.3", "excess precision"),
        ("99999999999999999999999999999999999999", "38 nines"),
    ] {
        g.invalid(d102.clone(), dec(v), &format!("decimal(10,2) {label}"));
    }
    for s in [
        "12,5", "", "1.2.3", "1e2", "abc", "$5.00", "½", ".", "--1.5",
    ] {
        g.invalid(
            d102.clone(),
            Value::Str(s.into()),
            &format!("decimal(10,2) from {s:?}"),
        );
    }
    for v in ["99999999999", "-99999999999"] {
        g.invalid(d102.clone(), dec(v), &format!("decimal(10,2) overflow {v}"));
    }
    let d3810 = DataType::Decimal(38, 10);
    for (v, label) in [
        ("0.0000000001", "min step"),
        ("1234567890123456789012345678.0123456789", "wide"),
        ("-1.5", "negative runtime scale"),
        ("7", "integral"),
        ("3.14159", "partial scale"),
        ("-0.5", "negative fraction"),
        ("2.5000000000", "exact scale"),
        ("0", "zero"),
    ] {
        g.valid(d3810.clone(), dec(v), &format!("decimal(38,10) {label}"));
    }
    for (v, label) in [
        ("0.00000000001", "excess scale"),
        ("12345678901234567890123456789.123456789", "excess digits"),
    ] {
        g.invalid(d3810.clone(), dec(v), &format!("decimal(38,10) {label}"));
    }
    g.invalid(
        d3810,
        Value::Str("many dots 1.2.3.4".into()),
        "decimal(38,10) garbage",
    );
    let d50 = DataType::Decimal(5, 0);
    for v in ["0", "99999", "-99999", "123"] {
        g.valid(d50.clone(), dec(v), &format!("decimal(5,0) {v}"));
    }
    for v in ["100000", "-100000", "1.5"] {
        g.invalid(d50.clone(), dec(v), &format!("decimal(5,0) overflow {v}"));
    }
    for s in ["1 000", "five"] {
        g.invalid(
            d50.clone(),
            Value::Str(s.into()),
            &format!("decimal(5,0) from {s:?}"),
        );
    }
}

fn booleans(g: &mut Gen) {
    g.valid(DataType::Boolean, Value::Boolean(true), "bool true");
    g.valid(DataType::Boolean, Value::Boolean(false), "bool false");
    g.valid_as(
        DataType::Boolean,
        Value::Str("true".into()),
        Value::Boolean(true),
        "bool 'true'",
    );
    g.valid_as(
        DataType::Boolean,
        Value::Str("FALSE".into()),
        Value::Boolean(false),
        "bool 'FALSE'",
    );
    // Hive-lenient spellings that ANSI Spark rejects (D12), plus garbage.
    for s in [
        "t", "f", "yes", "no", "1", "0", "y", "2", "maybe", "TRUEish", "on", "off", " true",
    ] {
        g.invalid(
            DataType::Boolean,
            Value::Str(s.into()),
            &format!("bool from {s:?}"),
        );
    }
    g.invalid(DataType::Boolean, Value::Date(0), "bool from date");
}

fn strings(g: &mut Gen) {
    let cases: [(&str, &str); 20] = [
        ("", "empty"),
        ("hello", "ascii"),
        ("héllo wörld ☃", "unicode"),
        ("it's", "embedded quote"),
        ("  spaced  ", "whitespace"),
        ("NULL", "the word NULL"),
        ("true", "the word true"),
        ("123", "numeric text"),
        ("line1\nline2", "newline"),
        ("tab\there", "tab"),
        ("ends with space ", "trailing space"),
        ("\u{1F600} emoji", "astral plane"),
        ("SELECT * FROM t", "sql keyword soup"),
        ("back\\slash", "backslash"),
        ("{\"json\": [1, 2]}", "json-ish"),
        ("a", "single char"),
        ("''", "two quotes"),
        ("percent % under_score", "wildcard chars"),
        (
            "\u{0627}\u{0644}\u{0633}\u{0644}\u{0627}\u{0645}",
            "rtl text",
        ),
        ("mixed\tws\nlines", "mixed whitespace"),
    ];
    for (s, label) in cases {
        g.valid(
            DataType::String,
            Value::Str(s.into()),
            &format!("string {label}"),
        );
    }
    let long: String = "x".repeat(1000);
    g.valid(DataType::String, Value::Str(long), "string 1000 chars");
    // Non-string values are stored via cast-to-string: all valid, read
    // back in rendered form.
    g.valid_as(
        DataType::String,
        Value::Int(42),
        Value::Str("42".into()),
        "string from int",
    );
    g.valid_as(
        DataType::String,
        Value::Boolean(true),
        Value::Str("true".into()),
        "string from bool",
    );
    g.valid_as(
        DataType::String,
        date("2020-01-02"),
        Value::Str("2020-01-02".into()),
        "string from date",
    );
}

fn chars_varchars(g: &mut Gen) {
    for n in [1u32, 8, 20] {
        let ty = DataType::Char(n);
        let fill: String = "a".repeat(n as usize);
        g.valid(ty.clone(), Value::Str(fill), &format!("char({n}) exact"));
        g.valid(
            ty.clone(),
            Value::Str("".into()),
            &format!("char({n}) empty"),
        );
        if n > 1 {
            // Shorter than n: the padding/trimming discrepancy D13.
            g.valid(
                ty.clone(),
                Value::Str("ab".into()),
                &format!("char({n}) short"),
            );
            g.valid(
                ty.clone(),
                Value::Str("a ".into()),
                &format!("char({n}) trailing space"),
            );
        }
        let over: String = "z".repeat(n as usize + 1);
        g.invalid(ty.clone(), Value::Str(over), &format!("char({n}) overlong"));
        let way_over: String = "z".repeat(n as usize * 3 + 2);
        g.invalid(
            ty.clone(),
            Value::Str(way_over),
            &format!("char({n}) way overlong"),
        );
        let over_unicode: String = "ü".repeat(n as usize + 2);
        g.invalid(
            ty.clone(),
            Value::Str(over_unicode),
            &format!("char({n}) overlong unicode"),
        );
        let over_spaces = format!("{} ", "q".repeat(n as usize));
        g.invalid(
            ty,
            Value::Str(over_spaces),
            &format!("char({n}) overlong via trailing space"),
        );
    }
    for n in [1u32, 8, 255] {
        let ty = DataType::Varchar(n);
        let fill: String = "b".repeat(n as usize);
        g.valid(ty.clone(), Value::Str(fill), &format!("varchar({n}) exact"));
        g.valid(
            ty.clone(),
            Value::Str("".into()),
            &format!("varchar({n}) empty"),
        );
        if n > 1 {
            g.valid(
                ty.clone(),
                Value::Str("ab".into()),
                &format!("varchar({n}) short"),
            );
        }
        // Overflow: truncation vs error, D08.
        let over: String = "w".repeat(n as usize + 1);
        g.invalid(
            ty.clone(),
            Value::Str(over),
            &format!("varchar({n}) overlong"),
        );
        let way_over: String = "w".repeat(n as usize * 2 + 3);
        g.invalid(
            ty.clone(),
            Value::Str(way_over),
            &format!("varchar({n}) way overlong"),
        );
        let over_unicode: String = "é".repeat(n as usize + 2);
        g.invalid(
            ty.clone(),
            Value::Str(over_unicode),
            &format!("varchar({n}) overlong unicode"),
        );
        let over_spaces = format!("{} !", "p".repeat(n as usize));
        g.invalid(
            ty,
            Value::Str(over_spaces),
            &format!("varchar({n}) overlong with punctuation"),
        );
    }
}

fn binaries(g: &mut Gen) {
    for (b, label) in [
        (vec![], "empty"),
        (vec![0u8], "single zero"),
        (vec![1, 2, 3], "small"),
        (vec![255, 0, 128, 7], "high bytes"),
        ((0..=255u8).collect::<Vec<u8>>(), "all byte values"),
        (vec![0u8; 64], "64 zeros"),
        (b"\x89PNG\r\n\x1a\n".to_vec(), "png magic"),
    ] {
        g.valid(
            DataType::Binary,
            Value::Binary(b),
            &format!("binary {label}"),
        );
    }
    g.valid_as(
        DataType::Binary,
        Value::Str("text as bytes".into()),
        Value::Binary(b"text as bytes".to_vec()),
        "binary from string",
    );
    g.invalid(DataType::Binary, Value::Int(5), "binary from int");
    g.invalid(DataType::Binary, Value::Double(1.5), "binary from double");
}

fn dates(g: &mut Gen) {
    for s in [
        "1970-01-01",
        "2020-06-15",
        "1969-12-31",
        "0001-01-01",
        "9999-12-31",
        "2000-02-29",
        "1582-10-04",
        "1582-10-15",
        "1900-01-01",
        "2038-01-19",
        "1066-10-14",
        "1776-07-04",
        "1912-06-23",
        "2100-01-01",
        "0100-12-25",
        "3000-06-30",
    ] {
        g.valid(DataType::Date, date(s), &format!("date {s}"));
    }
    for s in [
        "2021-02-30",
        "2021-13-01",
        "2021-00-10",
        "not-a-date",
        "2021/01/01",
        "01-01-2021",
        "2021-1-1-1",
        "",
        "2021.01.01",
        "20210101",
        "Jan 1 2021",
        "2021-04-31",
        "1900-02-29",
        "yesterday",
    ] {
        g.invalid(
            DataType::Date,
            Value::Str(s.into()),
            &format!("date from {s:?}"),
        );
    }
    // Syntactically fine, semantically out of the documented range: D15.
    g.invalid(
        DataType::Date,
        Value::Date(crate::generator::parse_date_unchecked("9999-12-31") + 365),
        "date beyond 9999-12-31",
    );
    g.invalid(
        DataType::Date,
        Value::Date(parse_date("0001-01-01").unwrap() - 300),
        "date before 0001-01-01",
    );
}

pub(crate) fn parse_date_unchecked(s: &str) -> i32 {
    parse_date(s).expect("static date")
}

fn timestamps(g: &mut Gen) {
    for s in [
        "1970-01-01 00:00:00",
        "2020-06-15 12:34:56.789",
        "1969-12-31 23:59:59.999999",
        "2001-09-09 01:46:40",
        "9999-12-31 23:59:59",
        "1900-01-01 00:00:00",
        // Pre-1900: valid TIMESTAMPs that legacy ORC cannot hold (D06).
        "1899-12-31 23:59:59",
        "1850-03-04 12:00:00",
        // Pre-1582: the Julian rebase region (D07).
        "1500-06-01 00:00:00",
        "0977-01-01 06:30:00",
        "2020-02-29 23:59:59.000001",
        "1970-01-01 00:00:00.000001",
        "1960-05-05 05:05:05.5",
        "2262-04-11 23:47:16",
    ] {
        g.valid(DataType::Timestamp, ts(s), &format!("timestamp {s}"));
    }
    for s in [
        "2021-01-01 25:00:00",
        "2021-01-01 00:61:00",
        "2021-02-30 10:00:00",
        "garbage",
        "2021-01-01T10:00:00",
        "",
        "2021-01-01 12:00:00 PM",
        "2021/01/01 10:00:00",
        "01:02:03",
        "2021-01-01 10:00",
        "2021-01-01 10:00:00.1234567",
        "noonish",
    ] {
        g.invalid(
            DataType::Timestamp,
            Value::Str(s.into()),
            &format!("timestamp from {s:?}"),
        );
    }
}

fn intervals(g: &mut Gen) {
    for (months, micros, label) in [
        (3, 0, "3 months"),
        (12, 0, "1 year"),
        (0, 7 * 86_400_000_000, "7 days"),
        (0, 3_600_000_000, "1 hour"),
        // Negative intervals: D11.
        (-3, 0, "-3 months"),
        (0, -2 * 3_600_000_000, "-2 hours"),
    ] {
        g.valid(
            DataType::Interval,
            Value::Interval { months, micros },
            &format!("interval {label}"),
        );
    }
    g.invalid(
        DataType::Interval,
        Value::Str("1 month".into()),
        "interval from string",
    );
    g.invalid(DataType::Interval, Value::Int(5), "interval from int");
}

fn nested(g: &mut Gen) {
    let arr_int = DataType::Array(Box::new(DataType::Int));
    g.valid(
        arr_int.clone(),
        Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
        "array<int> simple",
    );
    g.valid(arr_int.clone(), Value::Array(vec![]), "array<int> empty");
    g.valid(
        arr_int.clone(),
        Value::Array(vec![Value::Null, Value::Int(7)]),
        "array<int> with null",
    );
    let arr_str = DataType::Array(Box::new(DataType::String));
    g.valid(
        arr_str,
        Value::Array(vec![Value::Str("a".into()), Value::Str("".into())]),
        "array<string>",
    );
    let arr_byte = DataType::Array(Box::new(DataType::Byte));
    g.valid(
        arr_byte.clone(),
        Value::Array(vec![Value::Byte(1), Value::Byte(-1)]),
        "array<tinyint>",
    );
    g.invalid(
        arr_byte,
        Value::Array(vec![Value::Int(300)]),
        "array<tinyint> element overflow",
    );
    g.invalid(
        arr_int.clone(),
        Value::Array(vec![Value::Str("x".into())]),
        "array<int> element garbage",
    );

    let map_si = DataType::Map(Box::new(DataType::String), Box::new(DataType::Int));
    g.valid(
        map_si.clone(),
        Value::Map(vec![(Value::Str("k".into()), Value::Int(1))]),
        "map<string,int>",
    );
    g.valid(map_si.clone(), Value::Map(vec![]), "map<string,int> empty");
    g.invalid(
        map_si,
        Value::Map(vec![(Value::Str("k".into()), Value::Long(1 << 40))]),
        "map<string,int> value overflow",
    );
    // Non-string map keys: fine in ORC/Parquet, rejected by Avro (D04).
    let map_is = DataType::Map(Box::new(DataType::Int), Box::new(DataType::String));
    g.valid(
        map_is.clone(),
        Value::Map(vec![(Value::Int(1), Value::Str("one".into()))]),
        "map<int,string> (non-string keys)",
    );
    g.valid(
        map_is,
        Value::Map(vec![
            (Value::Int(1), Value::Str("one".into())),
            (Value::Int(2), Value::Str("two".into())),
        ]),
        "map<int,string> two entries",
    );

    let st_lower = DataType::Struct(vec![StructField::new("inner", DataType::Int)]);
    g.valid(
        st_lower,
        Value::Struct(vec![("inner".into(), Value::Int(5))]),
        "struct lowercase field",
    );
    // Mixed-case field names: the case-folding discrepancy D14.
    let st_mixed = DataType::Struct(vec![
        StructField::new("Inner", DataType::Int),
        StructField::new("b", DataType::String),
    ]);
    g.valid(
        st_mixed.clone(),
        Value::Struct(vec![
            ("Inner".into(), Value::Int(3)),
            ("b".into(), Value::Str("x".into())),
        ]),
        "struct mixed-case field",
    );
    g.invalid(
        st_mixed,
        Value::Struct(vec![
            ("Inner".into(), Value::Str("oops".into())),
            ("b".into(), Value::Str("x".into())),
        ]),
        "struct field garbage",
    );
    let deep = DataType::Struct(vec![StructField::new(
        "xs",
        DataType::Array(Box::new(DataType::Long)),
    )]);
    g.valid(
        deep,
        Value::Struct(vec![(
            "xs".into(),
            Value::Array(vec![Value::Long(1), Value::Long(2)]),
        )]),
        "struct of array",
    );
    let map_ss = DataType::Map(Box::new(DataType::String), Box::new(DataType::String));
    g.valid(
        map_ss,
        Value::Map(vec![
            (Value::Str("a".into()), Value::Str("1".into())),
            (Value::Str("".into()), Value::Str("".into())),
        ]),
        "map<string,string>",
    );
    let arr_date = DataType::Array(Box::new(DataType::Date));
    g.valid(
        arr_date,
        Value::Array(vec![date("2020-01-01"), Value::Null]),
        "array<date>",
    );
    let arr_arr = DataType::Array(Box::new(DataType::Array(Box::new(DataType::Int))));
    g.valid(
        arr_arr,
        Value::Array(vec![
            Value::Array(vec![Value::Int(1)]),
            Value::Array(vec![]),
        ]),
        "array<array<int>>",
    );
    let st_two = DataType::Struct(vec![
        StructField::new("x", DataType::Double),
        StructField::new("y", DataType::Double),
    ]);
    g.valid(
        st_two,
        Value::Struct(vec![
            ("x".into(), Value::Double(1.0)),
            ("y".into(), Value::Double(-2.0)),
        ]),
        "struct point",
    );
    let map_sv = DataType::Map(Box::new(DataType::String), Box::new(DataType::Varchar(4)));
    g.invalid(
        map_sv,
        Value::Map(vec![(Value::Str("k".into()), Value::Str("toolong".into()))]),
        "map value exceeds varchar",
    );
    let st_byte = DataType::Struct(vec![StructField::new("b", DataType::Byte)]);
    g.invalid(
        st_byte,
        Value::Struct(vec![("b".into(), Value::Int(999))]),
        "struct field overflow",
    );
}

/// Mutation operators for the coverage-guided explore mode.
///
/// Given a corpus entry, emits deterministic variants: per-type value
/// edge-cases, schema edits (struct field case flips, map key-type swaps),
/// and representation changes (value carried as a string). Each mutant
/// carries the validity the engines' documented contracts assign to it, so
/// the oracles evaluate mutants exactly like catalogue inputs. Mutant ids
/// are placeholders (`usize::MAX`); the explore loop assigns fresh unique
/// ids when a mutant is scheduled.
pub fn mutate_input(parent: &TestInput) -> Vec<TestInput> {
    let mut out: Vec<TestInput> = Vec::new();
    let mut push = |ty: DataType, value: Value, validity: Validity, label: String| {
        out.push(TestInput {
            id: usize::MAX,
            column_type: ty,
            value,
            validity,
            label,
            expected_back: None,
        });
    };
    let label = |op: &str| format!("mutant[{op}] of #{} ({})", parent.id, parent.label);
    match &parent.column_type {
        DataType::Byte | DataType::Short | DataType::Int | DataType::Long => {
            let ty = parent.column_type.clone();
            let (max, min): (i128, i128) = match ty {
                DataType::Byte => (i8::MAX as i128, i8::MIN as i128),
                DataType::Short => (i16::MAX as i128, i16::MIN as i128),
                DataType::Int => (i32::MAX as i128, i32::MIN as i128),
                _ => (i64::MAX as i128, i64::MIN as i128),
            };
            // Overflow by one: carried widened (or as a decimal for LONG).
            let carrier = if ty == DataType::Long {
                Value::Decimal(Decimal::parse(&(max + 1).to_string()).expect("static"))
            } else {
                Value::Long((max + 1) as i64)
            };
            push(ty.clone(), carrier, Validity::Invalid, label("overflow+1"));
            push(
                ty.clone(),
                Value::Str((min - 1).to_string()),
                Validity::Invalid,
                label("underflow-as-string"),
            );
            push(
                ty,
                Value::Str(" 7 ".into()),
                Validity::Invalid,
                label("padded-numeral"),
            );
        }
        DataType::Decimal(p, s) => {
            let ty = DataType::Decimal(*p, *s);
            if *s >= 1 {
                push(
                    ty.clone(),
                    dec("1.5"),
                    Validity::Valid,
                    label("runtime-scale"),
                );
            }
            // One more fractional digit than the declared scale holds.
            push(
                ty.clone(),
                dec(&format!("1.{}", "1".repeat(*s as usize + 1))),
                Validity::Invalid,
                label("excess-scale"),
            );
            push(
                ty,
                Value::Str("1.2.3".into()),
                Validity::Invalid,
                label("garbage-text"),
            );
        }
        DataType::Boolean => {
            for s in ["yes", "t", "0"] {
                push(
                    DataType::Boolean,
                    Value::Str(s.into()),
                    Validity::Invalid,
                    label(&format!("hive-lenient-{s}")),
                );
            }
        }
        DataType::Char(n) => {
            push(
                DataType::Char(*n),
                Value::Str("z".repeat(*n as usize + 1)),
                Validity::Invalid,
                label("overlong"),
            );
            if *n > 1 {
                push(
                    DataType::Char(*n),
                    Value::Str("m".into()),
                    Validity::Valid,
                    label("short-padded"),
                );
            }
            push(
                DataType::Varchar(*n),
                Value::Str("v".repeat(*n as usize + 2)),
                Validity::Invalid,
                label("as-varchar-overlong"),
            );
        }
        DataType::Varchar(n) => {
            push(
                DataType::Varchar(*n),
                Value::Str("w".repeat(*n as usize + 1)),
                Validity::Invalid,
                label("overlong"),
            );
            push(
                DataType::Char(*n),
                Value::Str("c".repeat(*n as usize + 1)),
                Validity::Invalid,
                label("as-char-overlong"),
            );
        }
        DataType::String => {
            push(
                DataType::Varchar(4),
                Value::Str("toolong".into()),
                Validity::Invalid,
                label("narrowed-to-varchar"),
            );
            push(
                DataType::Boolean,
                Value::Str("maybe".into()),
                Validity::Invalid,
                label("retyped-boolean"),
            );
        }
        DataType::Date => {
            push(
                DataType::Date,
                Value::Date(parse_date("9999-12-31").expect("static") + 40),
                Validity::Invalid,
                label("beyond-max-date"),
            );
            push(
                DataType::Date,
                Value::Str("2021-02-30".into()),
                Validity::Invalid,
                label("impossible-date"),
            );
        }
        DataType::Timestamp => {
            // Rebase into the two historic ranges the formats disagree on.
            push(
                DataType::Timestamp,
                ts("1880-07-01 12:00:00"),
                Validity::Valid,
                label("pre-1900"),
            );
            push(
                DataType::Timestamp,
                ts("1400-01-01 00:00:00"),
                Validity::Valid,
                label("pre-1582"),
            );
            push(
                DataType::Timestamp,
                Value::Str("2021-01-01 25:00:00".into()),
                Validity::Invalid,
                label("impossible-time"),
            );
        }
        DataType::Interval => {
            if let Value::Interval { months, micros } = &parent.value {
                push(
                    DataType::Interval,
                    Value::Interval {
                        months: -months,
                        micros: -micros,
                    },
                    Validity::Valid,
                    label("sign-flip"),
                );
            }
            push(
                DataType::Interval,
                Value::Interval {
                    months: 0,
                    micros: -1,
                },
                Validity::Valid,
                label("negative-microsecond"),
            );
        }
        DataType::Struct(fields) => {
            // Flip the case of every field name in both schema and value:
            // the case-folding probe (D14).
            let flip = |name: &str| -> String {
                if !name.bytes().any(|b| b.is_ascii_uppercase()) {
                    let mut cs: Vec<char> = name.chars().collect();
                    if let Some(first) = cs.first_mut() {
                        *first = first.to_ascii_uppercase();
                    }
                    cs.into_iter().collect()
                } else {
                    name.to_ascii_lowercase()
                }
            };
            let flipped_ty = DataType::Struct(
                fields
                    .iter()
                    .map(|f| StructField::new(flip(&f.name), f.data_type.clone()))
                    .collect(),
            );
            if let Value::Struct(vs) = &parent.value {
                let flipped_v =
                    Value::Struct(vs.iter().map(|(n, v)| (flip(n), v.clone())).collect());
                push(
                    flipped_ty,
                    flipped_v,
                    parent.validity,
                    label("case-flip-fields"),
                );
            }
            // Overflow a small-int field if the struct has one.
            if fields
                .iter()
                .any(|f| matches!(f.data_type, DataType::Byte | DataType::Short))
            {
                if let Value::Struct(vs) = &parent.value {
                    let v = Value::Struct(
                        vs.iter()
                            .map(|(n, _)| (n.clone(), Value::Int(40_000)))
                            .collect(),
                    );
                    push(
                        parent.column_type.clone(),
                        v,
                        Validity::Invalid,
                        label("field-overflow"),
                    );
                }
            }
        }
        DataType::Map(k, v) => {
            // Swap the key type between STRING and INT: the Avro
            // non-string-key probe (D04) in both directions.
            let (new_key, mk): (DataType, fn(usize) -> Value) = if **k == DataType::String {
                (DataType::Int, |i| Value::Int(i as i32))
            } else {
                (DataType::String, |i| Value::Str(format!("k{i}")))
            };
            if let Value::Map(pairs) = &parent.value {
                let swapped = Value::Map(
                    pairs
                        .iter()
                        .enumerate()
                        .map(|(i, (_, val))| (mk(i), val.clone()))
                        .collect(),
                );
                push(
                    DataType::Map(Box::new(new_key), v.clone()),
                    swapped,
                    parent.validity,
                    label("key-type-swap"),
                );
            }
        }
        DataType::Array(elem) => {
            if **elem == DataType::Int {
                push(
                    DataType::Array(Box::new(DataType::Byte)),
                    Value::Array(vec![Value::Int(300)]),
                    Validity::Invalid,
                    label("narrowed-element-overflow"),
                );
            }
            push(
                parent.column_type.clone(),
                Value::Array(vec![]),
                Validity::Valid,
                label("emptied"),
            );
        }
        DataType::Float | DataType::Double | DataType::Binary => {
            push(
                parent.column_type.clone(),
                Value::Str("not-a-number".into()),
                Validity::Invalid,
                label("garbage-text"),
            );
        }
    }
    out
}

/// The wide-table schema bulk campaigns run over: every fixed-width lane
/// plus strings, binary, and declared-scale decimals. CHAR/VARCHAR,
/// FLOAT, INTERVAL, and nested types are left to the 422-input catalogue —
/// their round trips legitimately transform values (padding, f32/f64
/// round-trips, interval-to-string resolution), which the bulk write–read
/// oracle deliberately does not model.
pub fn bulk_schema() -> Vec<StructField> {
    vec![
        StructField::new("b", DataType::Boolean),
        StructField::new("i", DataType::Int),
        StructField::new("l", DataType::Long),
        StructField::new("d", DataType::Double),
        StructField::new("dec", DataType::Decimal(18, 2)),
        StructField::new("s", DataType::String),
        StructField::new("bin", DataType::Binary),
        StructField::new("dt", DataType::Date),
        StructField::new("ts", DataType::Timestamp),
    ]
}

/// Deterministic bulk column data for [`bulk_schema`] column `ty`:
/// `rows` cells seeded by `seed`, with a NULL roughly every 16th slot.
///
/// Values are *clean round-trippers* by construction — decimals already at
/// the declared scale, dates and timestamps inside both engines' supported
/// ranges and after the 1900 ORC cutover — so every plan of a fault-free
/// bulk campaign must read them back unchanged and the write–read oracle
/// can compare whole columns.
pub fn generate_bulk_column(ty: &DataType, rows: usize, seed: u64) -> ValueColumn {
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    // Distinct streams per column type so two columns never alias.
    for byte in ty.sql_name().bytes() {
        s = s.wrapping_mul(0x100_0000_01b3) ^ byte as u64;
    }
    // One draw per row, written straight into the column's lanes: `None`
    // is a NULL slot, which holds the placeholder `ValueColumn::push`
    // would give it.
    let mut validity = column::Validity::with_capacity(rows);
    let mut draw = || {
        let r = xorshift64(&mut s);
        validity.push(!r.is_multiple_of(16));
        (!r.is_multiple_of(16)).then_some(r)
    };
    fn lane<T: Default>(
        rows: usize,
        mut draw: impl FnMut() -> Option<u64>,
        cell: impl Fn(u64) -> T,
    ) -> Vec<T> {
        (0..rows)
            .map(|_| draw().map_or_else(T::default, &cell))
            .collect()
    }
    let values = match ty {
        DataType::Boolean => ColumnValues::Boolean(lane(rows, draw, |r| r & 1 == 1)),
        DataType::Int => ColumnValues::Int(lane(rows, draw, |r| r as i32)),
        DataType::Long => ColumnValues::Long(lane(rows, draw, |r| r as i64)),
        DataType::Double => ColumnValues::Double(lane(rows, draw, |r| (r as i64 as f64) / 1024.0)),
        DataType::Decimal(p, scale) => {
            // At most p digits, stored at exactly the declared scale. A
            // draw is below 2^64, so when 10^(p-1) is not, the remainder
            // is the draw itself.
            Decimal::new(0, *p, *scale).expect("bulk decimal within bounds");
            let digits = 10i128.pow(*p as u32 - 1);
            let modulus = u64::try_from(digits).ok();
            let (mut unscaled, mut precision, mut scales) = (
                Vec::with_capacity(rows),
                Vec::with_capacity(rows),
                Vec::with_capacity(rows),
            );
            for _ in 0..rows {
                let (u, pr, sc) = match draw() {
                    Some(r) => {
                        let rem = modulus.map_or(r, |m| r % m);
                        (i128::from(rem) - digits / 2, *p, *scale)
                    }
                    // The placeholder `ValueColumn::push` gives a NULL.
                    None => (0, 1, 0),
                };
                unscaled.push(u);
                precision.push(pr);
                scales.push(sc);
            }
            ColumnValues::Decimal {
                unscaled,
                precision,
                scale: scales,
            }
        }
        DataType::String => {
            // `row-{i}-{r as u32:08x}-é世`, written without `core::fmt`.
            let (mut offsets, mut bytes) = (vec![0], Vec::with_capacity(rows * 32));
            for i in 0..rows {
                if let Some(r) = draw() {
                    bytes.extend_from_slice(b"row-");
                    push_decimal(&mut bytes, i);
                    bytes.push(b'-');
                    let word = r as u32;
                    bytes.extend((0..8).rev().map(|k| HEX[(word >> (4 * k)) as usize & 15]));
                    bytes.extend_from_slice("-\u{00e9}\u{4e16}".as_bytes());
                }
                offsets.push(bytes.len());
            }
            ColumnValues::Str { offsets, bytes }
        }
        DataType::Binary => {
            let (mut offsets, mut bytes) = (vec![0], Vec::new());
            for _ in 0..rows {
                if let Some(r) = draw() {
                    bytes.extend_from_slice(&r.to_le_bytes()[..(r % 8 + 1) as usize]);
                }
                offsets.push(bytes.len());
            }
            ColumnValues::Binary { offsets, bytes }
        }
        // 1970-01-01 .. ~2100: inside both engines' ranges and past
        // every Julian/ORC cutover.
        DataType::Date => ColumnValues::Date(lane(rows, draw, |r| (r % 47_000) as i32)),
        DataType::Timestamp => {
            ColumnValues::Timestamp(lane(rows, draw, |r| (r % 4_000_000_000_000_000) as i64))
        }
        other => panic!("generate_bulk_column: unsupported bulk type {other:?}"),
    };
    ValueColumn::from_parts(validity, values)
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// All columns of [`bulk_schema`] at `rows` rows.
pub fn generate_bulk_columns(rows: usize, seed: u64) -> Vec<ValueColumn> {
    bulk_schema()
        .iter()
        .map(|f| generate_bulk_column(&f.data_type, rows, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_row_numbers_are_written_as_fmt_writes_them() {
        for n in [
            0,
            7,
            9,
            10,
            99,
            100,
            4095,
            99_999,
            100_000,
            131_071,
            usize::MAX,
        ] {
            let mut out = b"x".to_vec();
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}").into_bytes());
        }
    }

    #[test]
    fn catalogue_is_nonempty_with_unique_ids() {
        let inputs = generate_inputs();
        assert!(!inputs.is_empty());
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(input.id, i);
        }
    }

    #[test]
    fn every_declared_column_type_is_exercised() {
        let inputs = generate_inputs();
        let has = |p: fn(&DataType) -> bool| inputs.iter().any(|i| p(&i.column_type));
        assert!(has(|t| matches!(t, DataType::Byte)));
        assert!(has(|t| matches!(t, DataType::Decimal(_, _))));
        assert!(has(|t| matches!(t, DataType::Char(_))));
        assert!(has(|t| matches!(t, DataType::Interval)));
        assert!(has(|t| matches!(t, DataType::Map(_, _))));
        assert!(has(|t| matches!(t, DataType::Struct(_))));
        assert!(has(|t| matches!(t, DataType::Timestamp)));
        assert!(has(|t| matches!(t, DataType::Binary)));
    }

    #[test]
    fn catalogue_counts_match_the_paper() {
        // Section 8.1: "In total, we generated 422 values ...; 210 are
        // valid and 212 are invalid."
        let inputs = generate_inputs();
        let valid = inputs
            .iter()
            .filter(|i| i.validity == Validity::Valid)
            .count();
        assert_eq!(inputs.len(), 422);
        assert_eq!(valid, 210);
        assert_eq!(inputs.len() - valid, 212);
    }
}
