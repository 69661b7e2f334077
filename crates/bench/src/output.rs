//! Experiment output: aligned human-readable tables on stdout plus
//! machine-readable JSONL rows under `results/`.

use serde_json::Value;
use std::fs::{create_dir_all, File};
use std::io::Write;
use std::path::PathBuf;

/// Writes one experiment's rows to `results/<name>.jsonl` while echoing an
/// aligned table to stdout.
pub struct ExperimentWriter {
    name: String,
    file: Option<File>,
    columns: Vec<String>,
}

impl ExperimentWriter {
    /// Opens (truncates) `results/<name>.jsonl`.
    pub fn new(name: &str) -> ExperimentWriter {
        let dir = PathBuf::from("results");
        let file = create_dir_all(&dir)
            .and_then(|_| File::create(dir.join(format!("{name}.jsonl"))))
            .ok();
        if file.is_none() {
            eprintln!("warning: cannot write results/{name}.jsonl; printing only");
        }
        ExperimentWriter { name: name.to_string(), file, columns: Vec::new() }
    }

    /// Prints a section heading.
    pub fn section(&mut self, title: &str) {
        println!("\n=== {} — {title} ===", self.name);
        self.columns.clear();
    }

    /// Writes a row to the JSONL file only (no table output) — for bulky
    /// payloads like full convergence curves.
    pub fn row_silent(&mut self, row: Value) {
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{row}");
        }
    }

    /// Emits one row (a JSON object). The first row of a section prints the
    /// header; values print right-aligned in 14-char cells.
    pub fn row(&mut self, row: Value) {
        let obj = row.as_object().expect("rows are JSON objects");
        if self.columns.is_empty() {
            self.columns = obj.keys().cloned().collect();
            println!("{}", self.columns.iter().map(|c| format!("{c:>16}")).collect::<String>());
        }
        let line: String = self
            .columns
            .iter()
            .map(|c| format!("{:>16}", render(obj.get(c).unwrap_or(&Value::Null))))
            .collect();
        println!("{line}");
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{row}");
        }
    }
}

fn render(v: &Value) -> String {
    match v {
        Value::Number(n) => {
            if let Some(f) = n.as_f64() {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f}")
                } else if f.abs() >= 100.0 {
                    format!("{f:.1}")
                } else {
                    format!("{f:.4}")
                }
            } else {
                n.to_string()
            }
        }
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn render_formats_numbers() {
        assert_eq!(render(&json!(3)), "3");
        assert_eq!(render(&json!(1.23456)), "1.2346");
        assert_eq!(render(&json!(12345.6)), "12345.6");
        assert_eq!(render(&json!("x")), "x");
    }

    #[test]
    fn writer_accepts_rows() {
        // Uses the current dir; tolerate readonly environments.
        let mut w = ExperimentWriter::new("unit-test");
        w.section("demo");
        w.row(json!({"a": 1, "b": "x"}));
        w.row(json!({"a": 2, "b": "y"}));
        std::fs::remove_file("results/unit-test.jsonl").ok();
    }
}
