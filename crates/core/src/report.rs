//! Plain-text tables matching the paper's figures.

use std::fmt::Write as _;

/// A minimal fixed-width table printer for the figure binaries.
///
/// # Example
///
/// ```
/// use ee360_core::report::TableWriter;
///
/// let mut t = TableWriter::new(vec!["scheme", "energy"]);
/// t.row(vec!["Ctile".into(), "1.00".into()]);
/// t.row(vec!["Ours".into(), "0.50".into()]);
/// let s = t.render();
/// assert!(s.contains("Ctile"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableWriter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if no headers are given.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// A horizontal ASCII bar chart for the figure binaries: the closest a
/// terminal gets to the paper's grouped bars.
///
/// # Example
///
/// ```
/// use ee360_core::report::BarChart;
/// let mut chart = BarChart::new("energy vs Ctile");
/// chart.bar("Ctile", 1.0);
/// chart.bar("Ours", 0.54);
/// let s = chart.render(30);
/// assert!(s.contains("Ours"));
/// assert!(s.contains('█'));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BarChart {
    title: String,
    rows: Vec<(String, f64)>,
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Adds one bar.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    pub fn bar(&mut self, label: impl Into<String>, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "bar values must be non-negative"
        );
        self.rows.push((label.into(), value));
    }

    /// Number of bars.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no bars were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with bars scaled so the maximum value spans `width` cells.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(1);
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let max = self
            .rows
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let mut out = format!("{}\n", self.title);
        for (label, value) in &self.rows {
            let cells = ((value / max) * width as f64).round() as usize;
            out.push_str(&format!(
                "  {:<label_w$}  {}{} {:.3}\n",
                label,
                "█".repeat(cells),
                if cells == 0 { "·" } else { "" },
                value,
            ));
        }
        out
    }
}

/// Formats a float with three significant decimals (figure style).
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TableWriter::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // Header and row have equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn table_counts_rows() {
        let mut t = TableWriter::new(vec!["x"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        t.row(vec!["2".into()]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = TableWriter::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let mut c = BarChart::new("t");
        c.bar("a", 2.0);
        c.bar("b", 1.0);
        let s = c.render(10);
        let bars: Vec<usize> = s
            .lines()
            .skip(1)
            .map(|l| l.chars().filter(|ch| *ch == '█').count())
            .collect();
        assert_eq!(bars, vec![10, 5]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn zero_bar_shows_dot() {
        let mut c = BarChart::new("t");
        c.bar("a", 1.0);
        c.bar("b", 0.0);
        assert!(c.render(8).contains('·'));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bar_panics() {
        let mut c = BarChart::new("t");
        c.bar("a", -1.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_pct(0.497), "49.7%");
    }
}
