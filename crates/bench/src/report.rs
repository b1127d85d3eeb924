//! Table rendering and CSV output for the experiment binaries.

use std::fs;
use std::io::Write;
use std::path::Path;

/// One table cell.
#[derive(Clone, Debug)]
pub enum Cell {
    /// Left-aligned text.
    Text(String),
    /// Number rendered with the given decimal places.
    Num(f64, usize),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(v, places) => {
                if v.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{v:.places$}")
                }
            }
        }
    }
}

/// A printable/CSV-able table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// CSV serialization (headers + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = self
            .headers
            .iter()
            .map(|h| esc(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            let line = row
                .iter()
                .map(|c| esc(&c.render()))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Writes a table as CSV under `results/` (created on demand), returning
/// the path written.
pub fn write_csv(table: &Table, name: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = fs::File::create(&path)?;
    f.write_all(table.to_csv().as_bytes())?;
    Ok(path)
}

/// JSON serialization: an array of objects keyed by header (numbers stay
/// numbers, text stays text) — the machine-readable twin of the CSV.
pub fn to_json(table: &Table) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = table
        .rows
        .iter()
        .map(|row| {
            let mut obj = serde_json::Map::new();
            for (h, cell) in table.headers.iter().zip(row) {
                let v = match cell {
                    Cell::Text(s) => serde_json::Value::String(s.clone()),
                    Cell::Num(x, _) => serde_json::Number::from_f64(*x)
                        .map(serde_json::Value::Number)
                        .unwrap_or_else(|| serde_json::Value::String(x.to_string())),
                };
                obj.insert(h.clone(), v);
            }
            serde_json::Value::Object(obj)
        })
        .collect();
    serde_json::Value::Array(rows)
}

/// Writes a table as JSON under `results/`, returning the path written.
pub fn write_json(table: &Table, name: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let f = fs::File::create(&path)?;
    serde_json::to_writer_pretty(f, &to_json(table))?;
    Ok(path)
}

/// Writes a table as `results/<stem>.csv` and `results/<stem>.json`,
/// reporting each path written, or why not, on stderr.
pub fn write_results(table: &Table, stem: &str) {
    match write_csv(table, &format!("{stem}.csv")) {
        Ok(path) => eprintln!("CSV written to {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    match write_json(table, &format!("{stem}.json")) {
        Ok(path) => eprintln!("JSON written to {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["Method", "Cut", "Mcut"]);
        t.push_row(vec![
            Cell::Text("Fusion Fission".into()),
            Cell::Num(198.0, 1),
            Cell::Num(69.03, 2),
        ]);
        t.push_row(vec![
            Cell::Text("Linear (Bi)".into()),
            Cell::Num(274.2, 1),
            Cell::Num(f64::INFINITY, 2),
        ]);
        t
    }

    #[test]
    fn renders_aligned() {
        let s = sample().render();
        assert!(s.contains("Fusion Fission"));
        assert!(s.contains("198.0"));
        assert!(s.contains("inf"));
        // all lines same width
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "Method,Cut,Mcut");
        assert!(lines[1].starts_with("Fusion Fission,198.0,"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["a"]);
        t.push_row(vec![Cell::Text("x, y".into())]);
        assert!(t.to_csv().contains("\"x, y\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.push_row(vec![Cell::Num(1.0, 0)]);
    }

    #[test]
    fn json_preserves_types() {
        let j = to_json(&sample());
        let rows = j.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["Method"], "Fusion Fission");
        assert_eq!(rows[0]["Cut"].as_f64(), Some(198.0));
        // infinity can't be a JSON number: falls back to string
        assert!(rows[1]["Mcut"].is_string());
    }
}
