//! Minimal flag parser for the experiment binaries (no external CLI crate).
//!
//! Supported forms: `--key value` and `--flag`. Unknown keys are rejected so
//! typos fail loudly.

use gbdt_cluster::FaultPlan;
use gbdt_core::WireCodec;
use std::collections::HashMap;

/// Value keys every experiment binary accepts without listing them:
/// `--wire {dense,auto,f32}` picks the histogram wire codec, and
/// `--faults seed:spec` injects a deterministic fault plan (e.g.
/// `--faults "7:drop=0.05,dup=0.02,crash=1@3"`).
const UNIVERSAL_VALUE_KEYS: [&str; 2] = ["wire", "faults"];

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    // HashMap is fine here (and outside gbdt-lint's map-iteration scope):
    // it is only ever read by key — nothing iterates it, so hash order
    // cannot reach any result or wire byte.
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`, accepting only the given keys.
    ///
    /// `value_keys` take a following value; `flag_keys` stand alone.
    pub fn parse(value_keys: &[&str], flag_keys: &[&str]) -> Args {
        Self::parse_from(std::env::args().skip(1), value_keys, flag_keys)
    }

    /// Parses an explicit iterator (testable path).
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        value_keys: &[&str],
        flag_keys: &[&str],
    ) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key, got '{arg}'"));
            if value_keys.contains(&key) || UNIVERSAL_VALUE_KEYS.contains(&key) {
                let value = iter
                    .next()
                    .unwrap_or_else(|| panic!("flag --{key} requires a value"));
                values.insert(key.to_string(), value);
            } else if flag_keys.contains(&key) {
                flags.push(key.to_string());
            } else {
                panic!(
                    "unknown flag --{key}; known: {:?} {:?} {:?}",
                    value_keys, UNIVERSAL_VALUE_KEYS, flag_keys
                );
            }
        }
        Args { values, flags }
    }

    /// String value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Parsed value of `key`, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.values.get(key) {
            Some(v) => v.parse().unwrap_or_else(|e| panic!("bad --{key} '{v}': {e:?}")),
            None => default,
        }
    }

    /// Whether a standalone flag was passed.
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The `--wire` histogram codec every binary accepts (default: dense,
    /// the legacy bit-exact format).
    pub fn wire(&self) -> WireCodec {
        self.get_or("wire", WireCodec::Dense)
    }

    /// The `--faults seed:spec` fault-injection plan every binary accepts
    /// (default: none — fault-free execution).
    pub fn faults(&self) -> Option<FaultPlan> {
        self.get("faults").map(|spec| {
            FaultPlan::parse(spec).unwrap_or_else(|e| panic!("bad --faults '{spec}': {e}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let args = Args::parse_from(
            strs(&["--scale", "100", "--summary"]),
            &["scale"],
            &["summary"],
        );
        assert_eq!(args.get_or("scale", 1.0f64), 100.0);
        assert!(args.has("summary"));
        assert!(!args.has("other"));
        assert_eq!(args.get("missing"), None);
        assert_eq!(args.get_or("missing", 7usize), 7);
    }

    #[test]
    fn wire_key_is_universal() {
        let args = Args::parse_from(strs(&["--wire", "auto"]), &[], &[]);
        assert_eq!(args.wire(), WireCodec::Auto);
        assert_eq!(Args::parse_from(strs(&[]), &[], &[]).wire(), WireCodec::Dense);
    }

    #[test]
    #[should_panic(expected = "bad --wire")]
    fn rejects_unknown_wire_codec() {
        Args::parse_from(strs(&["--wire", "gzip"]), &[], &[]).wire();
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_keys() {
        Args::parse_from(strs(&["--bogus"]), &["scale"], &[]);
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn rejects_missing_value() {
        Args::parse_from(strs(&["--scale"]), &["scale"], &[]);
    }
}
