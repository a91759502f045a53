//! Plain-text table rendering for the experiment harness.

/// Accumulates rows and prints an aligned ASCII table — the harness
/// binaries use this to emit each paper table/figure as text.
#[derive(Debug, Clone, Default)]
pub struct TableWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl TableWriter {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TableWriter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.into(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render as an aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TableWriter::new("Demo", &["Model", "R@20"]);
        t.row(&["WhitenRec+".into(), "0.1688".into()]);
        t.row(&["SASRec".into(), "0.1410".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("WhitenRec+  0.1688"));
        // header padded to the widest cell
        assert!(s.contains("Model     "));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = TableWriter::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
