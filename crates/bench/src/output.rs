//! Experiment output: aligned human-readable tables on stdout plus
//! machine-readable JSONL rows under `results/`.

use serde_json::Value;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Writes one experiment's rows to `<dir>/<file>` while echoing an aligned
/// table to stdout.
///
/// Rows are staged in `<file>.tmp` and renamed over `<file>` only by
/// [`ExperimentWriter::finish`], so an experiment that panics or is killed
/// halfway leaves the last complete results in place.
pub struct ExperimentWriter {
    name: String,
    path: PathBuf,
    tmp: PathBuf,
    file: Option<BufWriter<File>>,
    error: Option<io::Error>,
    columns: Vec<String>,
}

impl ExperimentWriter {
    /// Starts staging experiment `name`'s rows for `<dir>/<file>`. If the
    /// staging file cannot be created the rows are only printed, and
    /// [`ExperimentWriter::finish`] returns the error.
    pub fn create(dir: &Path, name: &str, file: &str) -> ExperimentWriter {
        let path = dir.join(file);
        let tmp = dir.join(format!("{file}.tmp"));
        let (file, error) = match fs::create_dir_all(dir).and_then(|_| File::create(&tmp)) {
            Ok(f) => (Some(BufWriter::new(f)), None),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}; printing only", tmp.display());
                (None, Some(e))
            }
        };
        ExperimentWriter { name: name.to_string(), path, tmp, file, error, columns: Vec::new() }
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
            if let Err(e) = writeln!(f, "{row}") {
                self.error.get_or_insert(e);
            }
        }
    }

    /// Emits one row (a JSON object). The first row of a section prints the
    /// header; values print right-aligned in 16-char cells.
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
        self.row_silent(row);
    }

    /// Makes the staged rows the experiment's results: flushes and syncs
    /// the staging file, then renames it over `<dir>/<file>`. On any write
    /// error the old file is left as it was and the error is returned.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let file = self.file.take().expect("the staging file is open until finish");
        file.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        fs::rename(&self.tmp, &self.path)?;
        Ok(self.path.clone())
    }
}

impl Drop for ExperimentWriter {
    /// An unfinished writer discards its staging file.
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = fs::remove_file(&self.tmp);
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

    /// A fresh directory under the system temp dir, private to one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gbdt-bench-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn render_formats_numbers() {
        assert_eq!(render(&json!(3)), "3");
        assert_eq!(render(&json!(1.23456)), "1.2346");
        assert_eq!(render(&json!(12345.6)), "12345.6");
        assert_eq!(render(&json!("x")), "x");
    }

    #[test]
    fn writer_accepts_rows() {
        let dir = scratch_dir("accepts");
        let mut w = ExperimentWriter::create(&dir, "unit-test", "unit-test.jsonl");
        w.section("demo");
        w.row(json!({"a": 1, "b": "x"}));
        w.row_silent(json!({"curve": [1, 2]}));
        let path = w.finish().expect("writable temp dir");
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1,\"b\":\"x\"}\n{\"curve\":[1,2]}\n");
        assert!(!dir.join("unit-test.jsonl.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_writer_leaves_the_old_results_byte_identical() {
        let dir = scratch_dir("unfinished");
        fs::create_dir_all(&dir).unwrap();
        let old = "{\"a\":1}\n{\"a\":2}\n";
        fs::write(dir.join("exp.jsonl"), old).unwrap();
        let mut w = ExperimentWriter::create(&dir, "exp", "exp.jsonl");
        w.section("aborted");
        w.row(json!({"a": 3}));
        drop(w);
        assert_eq!(fs::read_to_string(dir.join("exp.jsonl")).unwrap(), old);
        assert!(!dir.join("exp.jsonl.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
