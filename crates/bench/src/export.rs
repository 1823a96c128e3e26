//! The one artifact exporter: every table the harness binaries print or
//! write as CSV is a [`Table`], and every JSON document they write goes
//! through [`write_json_doc`]. Files land in [`crate::results_dir`].
//!
//! Both writers make a malformed artifact impossible rather than checking
//! for one afterwards: a [`Table`] is rectangular by construction and has
//! a single CSV quoting rule, and a JSON document is re-parsed before it
//! reaches disk.

use std::path::PathBuf;

use ggpu_core::json::Json;
use ggpu_core::render_table;

/// Write `contents` to `<results_dir>/<file>`. Failures warn and
/// continue — an export never breaks the run that produced it.
fn write_result_file(file: &str, contents: &str) -> Option<PathBuf> {
    let dir = crate::results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(file);
    match std::fs::write(&path, contents) {
        Ok(()) => {
            println!("[wrote {}]", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Write a JSON document to `results/<name>.json` after validating that it
/// parses, so every emitted file is machine-readable by construction.
/// Returns the path written, `None` if validation or the write failed.
pub fn write_json_doc(name: &str, doc: &str) -> Option<PathBuf> {
    if let Err(e) = Json::parse(doc) {
        eprintln!("warning: {name}.json failed self-validation, not writing: {e}");
        return None;
    }
    write_result_file(&format!("{name}.json"), doc)
}

/// Quote a CSV cell when it contains a delimiter, quote, or newline.
fn csv_cell(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A named rectangular table: one header row and data rows of the same
/// width, rendered as aligned text or as CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Build a table; `name` is the artifact's file stem.
    ///
    /// # Panics
    ///
    /// If any row's width differs from the header's — a ragged table is a
    /// bug in the caller, caught here instead of in a CSV consumer.
    pub fn new<H: Into<String>>(
        name: impl Into<String>,
        headers: impl IntoIterator<Item = H>,
        rows: Vec<Vec<String>>,
    ) -> Table {
        let name = name.into();
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                headers.len(),
                "table `{name}`: row {i} has {} cells, header has {}",
                row.len(),
                headers.len()
            );
        }
        Table {
            name,
            headers,
            rows,
        }
    }

    /// Aligned plain-text rendering (header, rule, rows).
    pub fn text(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        render_table(&headers, &self.rows)
    }

    /// CSV rendering: header line then one line per row, `\n`-terminated.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            let cells: Vec<String> = row.iter().map(|c| csv_cell(c)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV rendering to `results/<name>.csv`.
    pub fn write_csv(&self) {
        write_result_file(&format!("{}.csv", self.name), &self.csv());
    }

    /// Print the text rendering and mirror the table to its CSV file.
    pub fn emit(&self) {
        println!("{}", self.text());
        self.write_csv();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn csv_quotes_delimiters_quotes_and_newlines_only() {
        let t = Table::new(
            "t",
            ["plain", "with,comma"],
            vec![row(&["say \"hi\"", "two\nlines"]), row(&["", "tenant/0"])],
        );
        assert_eq!(
            t.csv(),
            "plain,\"with,comma\"\n\"say \"\"hi\"\"\",\"two\nlines\"\n,tenant/0\n"
        );
    }

    #[test]
    fn text_rendering_is_render_table() {
        let t = Table::new("t", ["a", "bench"], vec![row(&["longer", "2"])]);
        assert_eq!(
            t.text(),
            render_table(&["a", "bench"], &[row(&["longer", "2"])])
        );
    }

    #[test]
    #[should_panic(expected = "row 1 has 1 cells, header has 2")]
    fn ragged_rows_are_rejected_at_construction() {
        Table::new("t", ["a", "b"], vec![row(&["1", "2"]), row(&["3"])]);
    }
}
