//! Plain-text table rendering.
//!
//! The table-reproduction binaries (`table1` … `table4`) print their results
//! in the same row/column layout as the paper; this module provides the
//! column-aligned renderer they share.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-justified (names).
    Left,
    /// Right-justified (numbers).
    Right,
}

/// A simple text table: a header row, data rows, and optional separator
/// positions (printed as a rule line, used to separate the scientific /
/// embedded / aggregate sections exactly as the paper's tables do).
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
    rules_before: Vec<usize>,
}

impl TextTable {
    /// Creates a table with the given column headers; all columns default to
    /// right alignment except the first (the row label).
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let mut aligns = vec![Align::Right; headers.len()];
        if !aligns.is_empty() {
            aligns[0] = Align::Left;
        }
        TextTable {
            headers,
            aligns,
            rows: Vec::new(),
            rules_before: Vec::new(),
        }
    }

    /// Appends a data row. Panics if the arity differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Inserts a horizontal rule before the next row to be added.
    pub fn rule(&mut self) -> &mut Self {
        self.rules_before.push(self.rows.len());
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        let rule_line = "-".repeat(total);

        let fmt_row = |cells: &[String]| -> String {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                match self.aligns[i] {
                    Align::Left => out.push_str(&format!("{:<width$}", cell, width = widths[i])),
                    Align::Right => out.push_str(&format!("{:>width$}", cell, width = widths[i])),
                }
            }
            // Trim trailing padding for clean diffs.
            out.trim_end().to_string()
        };

        let mut lines = Vec::with_capacity(self.rows.len() + 3);
        lines.push(fmt_row(&self.headers));
        lines.push(rule_line.clone());
        for (idx, row) in self.rows.iter().enumerate() {
            if self.rules_before.contains(&idx) {
                lines.push(rule_line.clone());
            }
            lines.push(fmt_row(row));
        }
        lines.join("\n")
    }
}

/// Formats a float with `prec` decimals, trimming to a compact form used in
/// the paper's tables (e.g. `1.28`, `5.99`, `0.24`).
pub fn fnum(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a ratio column with a trailing `x` multiplier (paper style).
pub fn fx(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a percentage with two decimals (paper's coverage columns).
pub fn fpct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["App", "ins", "ratio"]);
        t.row(vec!["adpcm", "305", "1.21"]);
        t.row(vec!["fft", "304", "2.94"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("App"));
        assert!(lines[2].starts_with("adpcm"));
        // Numeric columns right-aligned: "305" and "304" end at same offset.
        let p1 = lines[2].find("305").unwrap() + 3;
        let p2 = lines[3].find("304").unwrap() + 3;
        assert_eq!(p1, p2);
    }

    #[test]
    fn rule_separates_sections() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["x", "1"]);
        t.rule();
        t.row(vec!["AVG", "1"]);
        let out = t.render();
        // header + rule + row + rule + row
        assert_eq!(out.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(1.2849, 2), "1.28");
        assert_eq!(fx(5.991), "5.99x");
        assert_eq!(fpct(0.3886), "38.86");
    }
}
