//! The `reproduce` command line (no external CLI crate):
//! `reproduce [NAME…] [--scale S] [--faults SPEC]`.
//!
//! Bare words name experiments. `--scale S` multiplies every experiment's
//! instance divisor (S > 1 shrinks the data, S < 1 grows it toward paper
//! scale). `--faults seed:spec` injects a deterministic fault plan into
//! every simulated cluster (e.g. `--faults "7:drop=0.05,dup=0.02,crash=1@3"`).
//! Unknown flags are rejected so typos fail loudly.

use gbdt_cluster::FaultPlan;

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Experiment names, in command-line order (empty = every experiment).
    pub names: Vec<String>,
    /// Multiplier on every experiment's baked-in scale (default 1).
    pub scale: f64,
    /// Fault plan injected into every cluster (default: fault-free).
    pub faults: Option<FaultPlan>,
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args { names: Vec::new(), scale: 1.0, faults: None };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                parsed.names.push(arg);
                continue;
            };
            if key != "scale" && key != "faults" {
                return Err(format!("unknown flag --{key}; known: --scale --faults"));
            }
            let value = iter.next().ok_or_else(|| format!("flag --{key} requires a value"))?;
            if key == "scale" {
                parsed.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --scale '{value}': want a positive number"))?;
            } else {
                let plan =
                    FaultPlan::parse(&value).map_err(|e| format!("bad --faults '{value}': {e}"))?;
                parsed.faults = Some(plan);
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Result<Args, String> {
        Args::parse_from(items.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_names_and_values() {
        let args = parse(&["fig11", "--scale", "20", "table3", "--faults", "7:drop=0.05"]).unwrap();
        assert_eq!(args.names, ["fig11", "table3"]);
        assert_eq!(args.scale, 20.0);
        assert!(args.faults.is_some());
        let bare = parse(&[]).unwrap();
        assert!(bare.names.is_empty());
        assert_eq!(bare.scale, 1.0);
        assert!(bare.faults.is_none());
    }

    #[test]
    fn rejects_unknown_keys() {
        for deleted in ["--bogus", "--trees", "--wire", "--summary"] {
            let err = parse(&[deleted, "1"]).unwrap_err();
            assert!(err.contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--scale"]).unwrap_err().contains("requires a value"));
    }

    #[test]
    fn rejects_bad_values() {
        for scale in ["0", "-2", "NaN", "x"] {
            assert!(parse(&["--scale", scale]).unwrap_err().contains("bad --scale"), "{scale}");
        }
        assert!(parse(&["--faults", "7:blorp=1"]).unwrap_err().contains("bad --faults"));
        // Values the plan cannot hold are named errors, not a panic or a
        // wrapped rank.
        let five = "1:crash=0@1,crash=0@2,crash=0@3,crash=0@4,crash=0@5";
        let err = parse(&["--faults", five]).unwrap_err();
        assert!(err.contains("bad --faults") && err.contains("at most 4 crashes"), "{err}");
        for delay in ["1:delay=0.5@-3", "1:delay=0.5@NaN"] {
            let err = parse(&["--faults", delay]).unwrap_err();
            assert!(err.contains("delay seconds"), "{delay}: {err}");
        }
    }
}
