//! Minimal `--flag value` argument parsing.

use std::collections::BTreeMap;

/// One command's usage: its help text and every option and flag it reads.
pub struct Usage {
    /// Printed for `--help`; its first paragraph is the synopsis.
    pub help: &'static str,
    /// Options that take a value (`--key value`), as lists so commands
    /// can share one.
    pub options: &'static [&'static [&'static str]],
    /// Boolean flags. `--help` is accepted by every command.
    pub flags: &'static [&'static str],
}

/// Parsed `--key value` pairs plus repeated keys and boolean flags.
#[derive(Debug, Default)]
pub struct ArgMap {
    values: BTreeMap<String, Vec<String>>,
    flags: Vec<String>,
}

impl ArgMap {
    /// Parse an argument list against what a command reads. An option of
    /// `usage` takes the next token as its value (repeatable); a flag of
    /// `usage`, or `--help`, takes none. Any other `--key` is an error
    /// that names it, so a misspelled option never falls back silently
    /// to its default.
    pub fn parse(argv: &[String], usage: &Usage) -> Result<ArgMap, String> {
        let mut out = ArgMap::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{tok}`"));
            };
            if key.is_empty() {
                return Err("empty flag `--`".into());
            }
            if key == "help" || usage.flags.contains(&key) {
                out.flags.push(key.to_string());
                i += 1;
            } else if usage.options.iter().any(|list| list.contains(&key)) {
                let Some(value) = argv.get(i + 1).filter(|v| !v.starts_with("--")) else {
                    return Err(format!("option `--{key}` needs a value"));
                };
                out.values
                    .entry(key.to_string())
                    .or_default()
                    .push(value.clone());
                i += 2;
            } else {
                return Err(format!(
                    "unknown option `--{key}` (see `--help` for this command's options)"
                ));
            }
        }
        Ok(out)
    }

    /// Single value for a key, if given exactly once.
    pub fn get(&self, key: &str) -> Option<&str> {
        match self.values.get(key).map(Vec::as_slice) {
            Some([v]) => Some(v),
            _ => None,
        }
    }

    /// Required single value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key} <value>"))
    }

    /// All values for a repeatable key.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }

    /// Whether a boolean flag was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Value parsed as a type, with a default when absent.
    pub fn get_parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid value for --{key}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const TEST: Usage = Usage {
        help: "",
        options: &[&["machine", "co"], &["pstate", "seed", "model"]],
        flags: &["paper-plan"],
    };

    fn parse(s: &[&str]) -> Result<ArgMap, String> {
        ArgMap::parse(&argv(s), &TEST)
    }

    #[test]
    fn parses_values_flags_and_repeats() {
        let a = parse(&[
            "--machine",
            "e5649",
            "--co",
            "cg:2",
            "--co",
            "ep:1",
            "--paper-plan",
            "--help",
        ])
        .unwrap();
        assert_eq!(a.get("machine"), Some("e5649"));
        assert_eq!(a.get_all("co"), &["cg:2".to_string(), "ep:1".to_string()]);
        assert!(a.has_flag("paper-plan"));
        assert!(a.has_flag("help"));
        assert!(!a.has_flag("machine"));
        // Repeated key is not a single value.
        assert_eq!(a.get("co"), None);
    }

    #[test]
    fn rejects_positionals() {
        assert!(parse(&["stray"]).is_err());
        assert!(parse(&["--"]).is_err());
        // A flag takes no value.
        assert!(parse(&["--paper-plan", "yes"]).is_err());
    }

    #[test]
    fn rejects_unknown_options_by_name() {
        for bad in [&["--sokets", "2"][..], &["--faults", "heavy"], &["--naive"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(bad[0]), "{err}");
        }
        let err = parse(&["--pstate"]).unwrap_err();
        assert!(err.contains("--pstate") && err.contains("value"), "{err}");
        let err = parse(&["--model", "--paper-plan"]).unwrap_err();
        assert!(err.contains("--model") && err.contains("value"), "{err}");
    }

    #[test]
    fn parsed_defaults() {
        let a = parse(&["--pstate", "3"]).unwrap();
        assert_eq!(a.get_parsed_or("pstate", 0usize).unwrap(), 3);
        assert_eq!(a.get_parsed_or("seed", 42u64).unwrap(), 42);
        assert!(a.get_parsed_or::<usize>("pstate", 0).is_ok());
        let bad = parse(&["--pstate", "xyz"]).unwrap();
        assert!(bad.get_parsed_or::<usize>("pstate", 0).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]).unwrap();
        assert!(a.require("model").unwrap_err().contains("--model"));
    }
}
