//! Minimal dependency-free argument parsing for the `sdbp` CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options and flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
    /// The keys the command reads, once [`Args::declare`] has run.
    declared: Option<Vec<&'static str>>,
}

impl Args {
    /// Parses `argv[1..]`: the first token is the subcommand, the rest are
    /// `--key value` pairs, `--key=value` tokens, or bare `--flag`s.
    ///
    /// The `--key=value` form is the only way to pass a value that itself
    /// starts with `--` (e.g. a negative number or a dashed string), since
    /// the space-separated form treats such a token as the next option.
    ///
    /// # Errors
    ///
    /// Returns a message for empty option names, empty `--key=` values, or
    /// tokens that are not options.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, String> {
        let mut iter = argv.into_iter().peekable();
        let command = iter.next().unwrap_or_default();
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(format!("unexpected argument '{token}' (expected --option)"));
            };
            if let Some((key, value)) = key.split_once('=') {
                if key.is_empty() {
                    return Err(format!("option '{token}' is missing a name before '='"));
                }
                if value.is_empty() {
                    return Err(format!("option '--{key}=' is missing a value after '='"));
                }
                options.insert(key.to_string(), value.to_string());
                continue;
            }
            if key.is_empty() {
                return Err("unexpected bare '--' (expected --option)".to_string());
            }
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let value = iter.next().unwrap_or_default();
                    options.insert(key.to_string(), value);
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Self {
            command,
            options,
            flags,
            declared: None,
        })
    }

    /// Declares every option and flag the command reads.
    ///
    /// Reading an undeclared key afterwards is a bug in the command and
    /// panics in debug builds, so the declaration cannot drift from the
    /// reads.
    ///
    /// # Errors
    ///
    /// Names every given `--key` outside `known` — a misspelled or retired
    /// option must fail loudly rather than be silently ignored.
    pub fn declare(&mut self, known: Vec<&'static str>) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .options
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .filter(|key| !known.contains(key))
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        self.declared = Some(known);
        if unknown.is_empty() {
            return Ok(());
        }
        let names: Vec<String> = unknown.iter().map(|key| format!("--{key}")).collect();
        Err(format!(
            "unknown option{} {} for `sdbp {}`",
            if names.len() == 1 { "" } else { "s" },
            names.join(", "),
            self.command
        ))
    }

    fn assert_declared(&self, key: &str) {
        debug_assert!(
            self.declared.as_ref().is_none_or(|d| d.contains(&key)),
            "`sdbp {}` reads --{key} without declaring it",
            self.command
        );
    }

    /// The subcommand name (empty when none was given).
    pub fn command(&self) -> &str {
        &self.command
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.assert_declared(key);
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Reports the key and the malformed value.
    pub fn get_parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("invalid --{key} '{v}': {e}")),
        }
    }

    /// Whether a bare `--flag` was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.assert_declared(key);
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["sim", "--benchmark", "gcc", "--shift", "--size", "8192"]);
        assert_eq!(a.command(), "sim");
        assert_eq!(a.get("benchmark"), Some("gcc"));
        assert_eq!(a.get_or("input", "ref"), "ref");
        assert_eq!(a.get_parsed_or("size", 0usize).unwrap(), 8192);
        assert!(a.has_flag("shift"));
        assert!(!a.has_flag("text"));
    }

    #[test]
    fn empty_argv_is_empty_command() {
        let a = parse(&[]);
        assert_eq!(a.command(), "");
    }

    #[test]
    fn rejects_stray_positional() {
        let err = Args::parse(["sim".to_string(), "gcc".to_string()]).unwrap_err();
        assert!(err.contains("gcc"));
    }

    #[test]
    fn reports_bad_values() {
        let a = parse(&["sim", "--size", "zz"]);
        assert!(a.get_parsed_or("size", 0usize).is_err());
    }

    #[test]
    fn trailing_flag_works() {
        let a = parse(&["gen", "--text"]);
        assert!(a.has_flag("text"));
    }

    #[test]
    fn equals_syntax_parses_values() {
        let a = parse(&["sim", "--benchmark=gcc", "--size=8192"]);
        assert_eq!(a.get("benchmark"), Some("gcc"));
        assert_eq!(a.get_parsed_or("size", 0usize).unwrap(), 8192);
    }

    #[test]
    fn equals_syntax_allows_dashed_values() {
        let a = parse(&["sim", "--scheme=--weird", "--offset=-42"]);
        assert_eq!(a.get("scheme"), Some("--weird"));
        assert_eq!(a.get_parsed_or("offset", 0i64).unwrap(), -42);
    }

    #[test]
    fn equals_value_may_contain_equals() {
        let a = parse(&["sim", "--filter=key=value"]);
        assert_eq!(a.get("filter"), Some("key=value"));
    }

    #[test]
    fn rejects_empty_equals_forms() {
        assert!(Args::parse(["sim".into(), "--=x".into()]).is_err());
        assert!(Args::parse(["sim".into(), "--key=".into()]).is_err());
        assert!(Args::parse(["sim".into(), "--".into()]).is_err());
    }

    #[test]
    fn declare_names_every_unknown_key() {
        let mut a = parse(&["grid", "--size", "2048", "--instructons", "5", "--no-fuse"]);
        let err = a.declare(vec!["size", "instructions"]).unwrap_err();
        assert_eq!(
            err,
            "unknown options --instructons, --no-fuse for `sdbp grid`"
        );
        let mut ok = parse(&["grid", "--size", "2048", "--resume"]);
        assert!(ok.declare(vec!["size", "resume"]).is_ok());
        assert_eq!(ok.get("size"), Some("2048"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reads --seed without declaring it")]
    fn reading_an_undeclared_key_panics_in_debug_builds() {
        let mut a = parse(&["sim"]);
        a.declare(vec!["size"]).unwrap();
        let _ = a.get("seed");
    }

    #[test]
    fn space_form_still_swallows_next_nonoption() {
        let a = parse(&["sim", "--seed", "7", "--shift"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.has_flag("shift"));
    }
}
