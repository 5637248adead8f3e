//! Shared helpers for the experiment harness: table formatting and the
//! stable machine-readable report every `table_*` bin writes next to its
//! TextTable. [`bench`] is the sampling harness the `benches/*` suites
//! run on.
//!
//! The table bins print and write only seed-determined values, so every
//! `BENCH_*.json` is byte-identical across runs. [`bench`] is the only
//! module here that reads the wall clock; clippy.toml bans it everywhere
//! else, and no other crate depends on this one.

pub mod bench;

use std::collections::BTreeMap;

/// A simple fixed-width text table.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    widths: Vec<usize>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let widths = headers.iter().map(|h| h.len()).collect();
        TextTable { headers, rows: Vec::new(), widths }
    }

    /// Adds a row (cells stringified by the caller). Rows may be wider
    /// than the header; extra columns get headerless width slots so the
    /// rendered cells and separator still line up.
    pub fn row(&mut self, cells: &[String]) {
        if self.widths.len() < cells.len() {
            self.widths.resize(cells.len(), 0);
        }
        for (i, c) in cells.iter().enumerate() {
            self.widths[i] = self.widths[i].max(c.len());
        }
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        s.push_str(&line(&self.headers, &self.widths));
        s.push('\n');
        s.push_str(&"-".repeat(self.widths.iter().sum::<usize>() + 2 * self.widths.len()));
        s.push('\n');
        for r in &self.rows {
            s.push_str(&line(r, &self.widths));
            s.push('\n');
        }
        s
    }

    /// Prints the table with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==\n{}", self.render());
    }
}

/// A stable-field-order JSON report: every experiment bin writes one as
/// `BENCH_<name>.json`, and `scripts/verify.sh` byte-diffs two runs of
/// each.
///
/// Fields render in insertion order; an attached metrics snapshot (the
/// `krb-trace` registry, already a sorted map) renders as a nested
/// object under `"metrics"`. No floats beyond what the caller formats —
/// the output is deterministic given deterministic inputs.
pub struct BenchJson {
    experiment: String,
    fields: Vec<(String, String)>,
    metrics: Option<BTreeMap<String, u64>>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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

impl BenchJson {
    /// A report for experiment `experiment` (e.g. `"E2"`).
    pub fn new(experiment: &str) -> Self {
        BenchJson { experiment: experiment.to_string(), fields: Vec::new(), metrics: None }
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields.push((key.to_string(), format!("\"{}\"", json_escape(v))));
        self
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    /// Adds a boolean field.
    pub fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    /// Adds a float field, rendered with `decimals` places.
    pub fn num(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.fields.push((key.to_string(), format!("{v:.decimals$}")));
        self
    }

    /// Attaches a metrics snapshot (rendered sorted, under `"metrics"`).
    pub fn metrics(&mut self, snap: &BTreeMap<String, u64>) -> &mut Self {
        self.metrics = Some(snap.clone());
        self
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"experiment\": \"{}\"", json_escape(&self.experiment)));
        for (k, v) in &self.fields {
            s.push_str(&format!(",\n  \"{}\": {v}", json_escape(k)));
        }
        if let Some(m) = &self.metrics {
            s.push_str(",\n  \"metrics\": {");
            let mut first = true;
            for (k, v) in m {
                s.push_str(if first { "\n" } else { ",\n" });
                first = false;
                s.push_str(&format!("    \"{}\": {v}", json_escape(k)));
            }
            s.push_str("\n  }");
        }
        s.push_str("\n}\n");
        s
    }

    /// Writes `BENCH_<name>.json` in the current directory and says so.
    pub fn write(&self, name: &str) {
        let path = format!("BENCH_{name}.json");
        match std::fs::write(&path, self.render()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-name".into(), "22222".into()]);
        let out = t.render();
        assert!(out.contains("a-much-longer-name"));
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn rows_wider_than_headers_stay_aligned() {
        let mut t = TextTable::new(&["name"]);
        t.row(&["x".into(), "a-long-extra-cell".into()]);
        t.row(&["yy".into(), "z".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        // Separator spans the full (row-derived) width, and both rows
        // pad their first column to the same offset.
        let sep = lines[1];
        assert!(sep.chars().all(|c| c == '-'));
        assert!(sep.len() >= "a-long-extra-cell".len());
        let col2 = |l: &str| l.find("a-long-extra-cell").or_else(|| l.find('z'));
        assert_eq!(col2(lines[2]), col2(lines[3]));
    }
}
