//! Aligned table printing, CSV output and the JSON report emitter of
//! the experiment binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// Directory for CSV outputs (`SPMAP_RESULTS` env var or `./results`).
pub fn results_dir() -> PathBuf {
    // lint:allow(no-env-outside-config): CSV output-directory plumbing — never read on a decision path.
    let dir = std::env::var("SPMAP_RESULTS").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    fs::create_dir_all(&path).expect("create results directory");
    path
}

/// A simple string table with aligned console rendering.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Write as CSV into the results directory; returns the path.
    pub fn write_csv(&self, name: &str) -> PathBuf {
        let path = results_dir().join(name);
        let mut s = String::new();
        s.push_str(&self.headers.join(","));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        fs::write(&path, s).expect("write CSV");
        path
    }
}

/// Format a fraction as a percent string (paper style, e.g. `17.3%`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a duration compactly (µs/ms/s).
pub fn dur(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.0}us")
    } else if us < 1e6 {
        format!("{:.1}ms", us / 1e3)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// Mean of an iterator of f64 (0 for empty input).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// One value of a machine-readable `BENCH_*.json` report.
#[derive(Debug)]
pub enum Json {
    /// `null`: a headline with no row to take it from.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count, size or seed.
    Int(u64),
    /// A float in its shortest round-trip form (`2.0` prints `2`).
    Float(f64),
    /// A float with a fixed number of decimals: `Fixed(x, 3)` prints
    /// `{x:.3}`.
    Fixed(f64, usize),
    /// A plain label (printed unescaped; labels are identifiers).
    Str(String),
    /// A nested object.
    Object(Row),
    /// An array.
    Array(Vec<Json>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<Row> for Json {
    fn from(row: Row) -> Self {
        Json::Object(row)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

/// An ordered JSON object: keys print in the order they were added,
/// so a report's key paths are fixed by the code that builds it.
#[derive(Debug, Default)]
pub struct Row(Vec<(&'static str, Json)>);

impl Row {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `key: value`.
    pub fn with(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.0.push((key, value.into()));
        self
    }

    /// Append `key: x` printed with `places` decimals.
    pub fn fixed(self, key: &'static str, x: f64, places: usize) -> Self {
        self.with(key, Json::Fixed(x, places))
    }

    /// Render as a two-space-indented JSON document with a trailing
    /// newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_row(&mut out, self, 0);
        out.push('\n');
        out
    }
}

/// Append `row` to `out`: one `"key": value` line per field, indented
/// one level deeper than `depth`, with the closing brace at `depth`.
fn write_row(out: &mut String, row: &Row, depth: usize) {
    out.push('{');
    for (i, (key, value)) in row.0.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(out, "{}\"{key}\": ", "  ".repeat(depth + 1));
        write_json(out, value, depth + 1);
    }
    let _ = write!(out, "\n{}}}", "  ".repeat(depth));
}

/// Append `value` to `out` at nesting `depth` (see [`write_row`]).
fn write_json(out: &mut String, value: &Json, depth: usize) {
    // Writing into a `String` cannot fail.
    let _ = match value {
        Json::Null => write!(out, "null"),
        Json::Bool(b) => write!(out, "{b}"),
        Json::Int(n) => write!(out, "{n}"),
        Json::Float(x) => write!(out, "{x}"),
        Json::Fixed(x, places) => write!(out, "{x:.places$}"),
        Json::Str(s) => write!(out, "\"{s}\""),
        Json::Object(row) => {
            write_row(out, row, depth);
            Ok(())
        }
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(depth + 1));
                write_json(out, item, depth + 1);
            }
            write!(out, "\n{}]", "  ".repeat(depth))
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "HEFT", "SPFirstFit"]);
        t.row(vec!["5".into(), "1.0%".into(), "2.0%".into()]);
        t.row(vec!["100".into(), "10.5%".into(), "20.25%".into()]);
        let r = t.render();
        assert!(r.contains("HEFT"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(dur(Duration::from_micros(42)), "42us");
        assert_eq!(dur(Duration::from_millis(5)), "5.0ms");
        assert_eq!(dur(Duration::from_secs(2)), "2.00s");
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean([]), 0.0);
    }

    #[test]
    fn json_rows_keep_key_order_and_decimals() {
        let row = Row::new()
            .with("benchmark", "demo")
            .with("quick", true)
            .with("nodes", 506usize)
            .fixed("seconds", 0.25, 6)
            .with("ratio", 2.0)
            .with("missing", None::<u64>)
            .with(
                "runs",
                vec![Row::new().with("a", 1u64).fixed("b", 1.0 / 3.0, 3)],
            )
            .with("empty", Vec::<Row>::new())
            .with("per_site", Row::new().with("x", 0u64));
        assert_eq!(
            row.to_json(),
            "{\n  \"benchmark\": \"demo\",\n  \"quick\": true,\n  \"nodes\": 506,\n  \
             \"seconds\": 0.250000,\n  \"ratio\": 2,\n  \"missing\": null,\n  \
             \"runs\": [\n    {\n      \"a\": 1,\n      \"b\": 0.333\n    }\n  ],\n  \
             \"empty\": [\n  ],\n  \"per_site\": {\n    \"x\": 0\n  }\n}\n"
        );
    }

    #[test]
    fn csv_written() {
        std::env::set_var(
            "SPMAP_RESULTS",
            std::env::temp_dir().join("spmap-test-results"),
        );
        let mut t = Table::new(&["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        let path = t.write_csv("unit-test.csv");
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
    }
}
