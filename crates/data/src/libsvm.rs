//! LIBSVM format reader/writer.
//!
//! Every public dataset the paper evaluates (Table 2) ships in LIBSVM text
//! format: one instance per line, `label idx:value idx:value …` with 1-based
//! ascending feature indices. We accept both 0- and 1-based indices
//! (auto-detected per file: if any index 0 appears, the file is 0-based) and
//! map class labels `{-1, +1}` to `{0, 1}` for binary tasks.

use crate::dataset::{Dataset, FeatureMatrix};
use crate::error::DataError;
use crate::sparse::CsrBuilder;
use crate::FeatureId;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parsed but not yet index-normalized LIBSVM content.
struct RawFile {
    labels: Vec<f32>,
    rows: Vec<Vec<(u32, f32)>>,
    max_index: u32,
    has_zero_index: bool,
}

fn parse_reader<R: Read>(reader: R) -> Result<RawFile, DataError> {
    let mut raw = RawFile { labels: Vec::new(), rows: Vec::new(), max_index: 0, has_zero_index: false };
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let label_tok = parts.next().ok_or_else(|| DataError::Parse {
            line: lineno + 1,
            message: "empty line content".into(),
        })?;
        let label: f32 = label_tok.parse().map_err(|_| DataError::Parse {
            line: lineno + 1,
            message: format!("bad label '{label_tok}'"),
        })?;
        let mut row = Vec::new();
        for tok in parts {
            let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| DataError::Parse {
                line: lineno + 1,
                message: format!("expected idx:value, got '{tok}'"),
            })?;
            let idx: u32 = idx_s.parse().map_err(|_| DataError::Parse {
                line: lineno + 1,
                message: format!("bad feature index '{idx_s}'"),
            })?;
            let val: f32 = val_s.parse().map_err(|_| DataError::Parse {
                line: lineno + 1,
                message: format!("bad feature value '{val_s}'"),
            })?;
            raw.max_index = raw.max_index.max(idx);
            raw.has_zero_index |= idx == 0;
            row.push((idx, val));
        }
        raw.labels.push(label);
        raw.rows.push(row);
    }
    Ok(raw)
}

/// Reads a LIBSVM dataset from any reader.
///
/// `n_classes` declares the task (see [`Dataset`]); for binary tasks labels
/// `-1`/`+1` are remapped to `0`/`1`. `n_features` may force a dimensionality
/// larger than the maximum observed index (pass `None` to infer).
pub fn read_from<R: Read>(
    reader: R,
    n_classes: usize,
    n_features: Option<usize>,
    name: impl Into<String>,
) -> Result<Dataset, DataError> {
    let mut raw = parse_reader(reader)?;
    let offset: u32 = if raw.has_zero_index { 0 } else { 1 };
    let inferred = if raw.max_index == 0 && !raw.has_zero_index {
        0
    } else {
        (raw.max_index + 1 - offset) as usize
    };
    let n_features = n_features.unwrap_or(inferred).max(inferred);

    if n_classes == 2 {
        for y in &mut raw.labels {
            if *y == -1.0 {
                *y = 0.0;
            }
        }
    }

    let nnz = raw.rows.iter().map(Vec::len).sum();
    let mut builder = CsrBuilder::with_capacity(n_features, raw.rows.len(), nnz);
    let mut entries: Vec<(FeatureId, f32)> = Vec::new();
    for row in &raw.rows {
        entries.clear();
        entries.extend(row.iter().map(|&(i, v)| (i - offset, v)));
        builder.push_row(&entries)?;
    }
    Dataset::new(FeatureMatrix::Sparse(builder.build()), raw.labels, n_classes, name)
}

/// Reads a LIBSVM dataset from a file path.
pub fn read_file(
    path: impl AsRef<Path>,
    n_classes: usize,
    n_features: Option<usize>,
) -> Result<Dataset, DataError> {
    let name = path
        .as_ref()
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "libsvm".to_string());
    let file = std::fs::File::open(path.as_ref())?;
    read_from(file, n_classes, n_features, name)
}

/// Writes a dataset in LIBSVM format (1-based indices), streaming its rows
/// in their own storage: nothing is converted or copied first.
pub fn write_to<W: Write>(writer: &mut W, dataset: &Dataset) -> Result<(), DataError> {
    let mut written = Ok(());
    dataset.features.for_each_row(|i, feats, vals| {
        if written.is_ok() {
            written = write_row(writer, dataset.labels[i], feats, vals);
        }
    });
    Ok(written?)
}

/// One LIBSVM line: the label, then `feature:value` for each stored value.
fn write_row<W: Write>(
    writer: &mut W,
    label: f32,
    feats: &[FeatureId],
    vals: &[f32],
) -> std::io::Result<()> {
    write!(writer, "{label}")?;
    for (f, v) in feats.iter().zip(vals) {
        write!(writer, " {}:{}", f + 1, v)?;
    }
    writeln!(writer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_one_based_file() {
        let text = "1 1:0.5 3:2.0\n-1 2:1.5\n";
        let ds = read_from(text.as_bytes(), 2, None, "t").unwrap();
        assert_eq!(ds.n_instances(), 2);
        assert_eq!(ds.n_features(), 3);
        assert_eq!(ds.labels, vec![1.0, 0.0]); // -1 remapped
        let csr = ds.features.to_csr();
        assert_eq!(csr.get(0, 0), Some(0.5));
        assert_eq!(csr.get(0, 2), Some(2.0));
        assert_eq!(csr.get(1, 1), Some(1.5));
    }

    #[test]
    fn parses_zero_based_file() {
        let text = "0 0:1.0 4:2.0\n1 1:3.0\n";
        let ds = read_from(text.as_bytes(), 2, None, "t").unwrap();
        assert_eq!(ds.n_features(), 5);
        assert_eq!(ds.features.to_csr().get(0, 0), Some(1.0));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n1 1:1.0\n";
        let ds = read_from(text.as_bytes(), 2, None, "t").unwrap();
        assert_eq!(ds.n_instances(), 1);
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let text = "1 1:1.0\nbogus 1:1.0\n";
        let err = read_from(text.as_bytes(), 2, None, "t").unwrap_err();
        match err {
            DataError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        let text = "1 nocolon\n";
        assert!(read_from(text.as_bytes(), 2, None, "t").is_err());
    }

    #[test]
    fn forced_dimensionality_is_respected() {
        let text = "1 1:1.0\n";
        let ds = read_from(text.as_bytes(), 2, Some(10), "t").unwrap();
        assert_eq!(ds.n_features(), 10);
    }

    #[test]
    fn multiclass_labels_pass_through() {
        let text = "0 1:1\n2 1:1\n1 2:1\n";
        let ds = read_from(text.as_bytes(), 3, None, "t").unwrap();
        assert_eq!(ds.labels, vec![0.0, 2.0, 1.0]);
    }

    #[test]
    fn write_read_roundtrip() {
        let text = "1 1:0.5 3:2\n0 2:1.5\n1 1:7\n";
        let ds = read_from(text.as_bytes(), 2, None, "t").unwrap();
        let mut buf = Vec::new();
        write_to(&mut buf, &ds).unwrap();
        let back = read_from(buf.as_slice(), 2, Some(ds.n_features()), "t").unwrap();
        assert_eq!(ds.labels, back.labels);
        assert_eq!(ds.features, back.features);
    }
}
