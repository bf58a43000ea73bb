#![warn(missing_docs)]
//! Shared harness utilities for the per-figure/table benches.
//!
//! Every bench target prints the paper-style table to stdout and writes a
//! CSV under `target/experiments/` so EXPERIMENTS.md can be regenerated.

use std::fs;
use std::path::PathBuf;

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }

    /// Writes the table as CSV under `target/experiments/<name>.csv`.
    pub fn write_csv(&self, name: &str) {
        let dir = experiments_dir();
        let _ = fs::create_dir_all(&dir);
        let mut csv = self.headers.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = dir.join(format!("{name}.csv"));
        if fs::write(&path, csv).is_ok() {
            println!("wrote {}", path.display());
        }
    }
}

/// The output directory for experiment CSVs.
pub fn experiments_dir() -> PathBuf {
    workspace_root().join("target").join("experiments")
}

/// The workspace root, robust to cwd differences.
pub fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir
}

/// Writes a bench's JSON result as `<stem>.json` under
/// [`experiments_dir`] and as the headline `bench_name` (e.g.
/// `BENCH_serve.json`) at the workspace root, where CI and EXPERIMENTS.md
/// pick it up.
pub fn write_results(stem: &str, bench_name: &str, json: &str) {
    let dir = experiments_dir();
    let _ = fs::create_dir_all(&dir);
    for path in [
        dir.join(format!("{stem}.json")),
        workspace_root().join(bench_name),
    ] {
        if fs::write(&path, json).is_ok() {
            println!("wrote {}", path.display());
        }
    }
}

/// Ends a self-gating bench: prints each failed condition as `gate
/// failed: …` and exits with status 1, or returns when none failed.
pub fn exit_on_failed_gates(failed: &[String]) {
    if failed.is_empty() {
        return;
    }
    for reason in failed {
        eprintln!("gate failed: {reason}");
    }
    std::process::exit(1);
}

/// The nearest-rank `p`-quantile (`p` in 0..=1) of an ascending-sorted
/// sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Formats a microsecond time compactly.
pub fn fmt_us(us: f64) -> String {
    if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

/// Formats a seconds duration as `h`/`min`/`s`.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.1} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{s:.0} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| name      | value |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_us(1500.0), "1.50 ms");
        assert_eq!(fmt_us(42.0), "42.0 us");
        assert_eq!(fmt_seconds(7200.0), "2.0 h");
        assert_eq!(fmt_seconds(120.0), "2.0 min");
        assert_eq!(fmt_seconds(5.0), "5 s");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
