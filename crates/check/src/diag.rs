//! The diagnostic core: stable codes, severities, spans, and rendering.
//!
//! Modeled on rustc's diagnostics: every finding carries a stable
//! [`Code`] (`SDBP001`…), a [`Severity`], an optional [`Span`] locating the
//! offending field, an optional suggestion, and free-form notes. A
//! [`Diagnostics`] collection renders either as human-readable text or as
//! machine-readable JSON (through the workspace's dependency-free
//! [`Json`] writer).

use sdbp_artifacts::Json;
use std::fmt;

/// How serious a finding is.
///
/// Errors make a configuration unusable; warnings flag configurations that
/// run but are probably not what was meant; notes are advisory (e.g. the
/// aliasing analyzer's hotspot reports) and never fail a check, even under
/// `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Note,
    /// Suspicious but runnable.
    Warning,
    /// The configuration must not run.
    Error,
}

impl Severity {
    /// The rendered label (`"error"`, `"warning"`, `"note"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A stable diagnostic code, rendered `SDBP<nnn>`.
///
/// Codes are append-only: once published in `docs/diagnostics.md` a number
/// is never reused for a different condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub u16);

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SDBP{:03}", self.0)
    }
}

/// Where a finding points: a named origin (a file path, `<args>`, or
/// `<spec>`), the offending field or key, and optionally a 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What is being checked (file path, `<args>`, `<spec>`, …).
    pub origin: String,
    /// The field or key at fault (`"size"`, `"scheme"`, …).
    pub field: String,
    /// 1-based line number, for file-backed origins.
    pub line: Option<usize>,
}

impl Span {
    /// A span over a field with no line information.
    pub fn field(origin: impl Into<String>, field: impl Into<String>) -> Self {
        Self {
            origin: origin.into(),
            field: field.into(),
            line: None,
        }
    }

    /// A span over a field at a 1-based line.
    pub fn line(origin: impl Into<String>, field: impl Into<String>, line: usize) -> Self {
        Self {
            origin: origin.into(),
            field: field.into(),
            line: Some(line),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "{}:{} ({})", self.origin, line, self.field),
            None => write!(f, "{} ({})", self.origin, self.field),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// How serious it is.
    pub severity: Severity,
    /// What is wrong, in one sentence.
    pub message: String,
    /// Where it is, when known.
    pub span: Option<Span>,
    /// How to fix it, when a concrete fix exists.
    pub suggestion: Option<String>,
    /// Additional context lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    fn new(code: Code, severity: Severity, message: impl Into<String>) -> Self {
        Self {
            code,
            severity,
            message: message.into(),
            span: None,
            suggestion: None,
            notes: Vec::new(),
        }
    }

    /// An error-severity finding.
    pub fn error(code: Code, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Error, message)
    }

    /// A warning-severity finding.
    pub fn warning(code: Code, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Warning, message)
    }

    /// A note-severity finding.
    pub fn note(code: Code, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Note, message)
    }

    /// Attaches a span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches a fix suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Appends a context note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

/// An ordered collection of findings with rendering and exit-status logic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.items.push(diagnostic);
    }

    /// Appends every finding of another collection.
    pub fn merge(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// The findings, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, severity: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// Whether the check passed: no errors, and no warnings when
    /// `deny_warnings` is set. Notes never fail a check.
    pub fn passes(&self, deny_warnings: bool) -> bool {
        !(self.has_errors() || (deny_warnings && self.warnings() > 0))
    }

    /// Whether the subject is clean: no errors and no warnings (notes are
    /// tolerated).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.warnings() == 0
    }

    /// A one-line count summary, e.g. `"2 errors, 1 warning"`.
    pub fn summary(&self) -> String {
        fn plural(n: usize, noun: &str) -> String {
            format!("{n} {noun}{}", if n == 1 { "" } else { "s" })
        }
        let mut parts = Vec::new();
        if self.errors() > 0 {
            parts.push(plural(self.errors(), "error"));
        }
        if self.warnings() > 0 {
            parts.push(plural(self.warnings(), "warning"));
        }
        if self.notes() > 0 {
            parts.push(plural(self.notes(), "note"));
        }
        if parts.is_empty() {
            "no findings".to_string()
        } else {
            parts.join(", ")
        }
    }

    /// Renders every finding in the rustc-inspired text layout:
    ///
    /// ```text
    /// error[SDBP002]: table size 3000 is not a power of two
    ///   --> bad.spec:3 (size)
    ///   = help: use 2048 or 4096
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
            if let Some(span) = &d.span {
                out.push_str(&format!("  --> {span}\n"));
            }
            if let Some(suggestion) = &d.suggestion {
                out.push_str(&format!("  = help: {suggestion}\n"));
            }
            for note in &d.notes {
                out.push_str(&format!("  = note: {note}\n"));
            }
        }
        out
    }

    /// Renders the collection as a JSON document:
    ///
    /// ```text
    /// {"diagnostics": [...], "errors": N, "warnings": N, "notes": N}
    /// ```
    ///
    /// Each diagnostic object carries `code`, `severity`, `message`, and —
    /// when present — `origin`, `field`, `line`, `suggestion`, and `notes`.
    pub fn to_json(&self) -> String {
        let diagnostics = self.items.iter().map(|d| {
            let mut members = vec![
                ("code", Json::str(d.code.to_string())),
                ("severity", Json::str(d.severity.label())),
                ("message", Json::str(&d.message)),
            ];
            if let Some(span) = &d.span {
                members.push(("origin", Json::str(&span.origin)));
                members.push(("field", Json::str(&span.field)));
                if let Some(line) = span.line {
                    members.push(("line", Json::Int(line as i64)));
                }
            }
            if let Some(suggestion) = &d.suggestion {
                members.push(("suggestion", Json::str(suggestion)));
            }
            if !d.notes.is_empty() {
                members.push(("notes", Json::Arr(d.notes.iter().map(Json::str).collect())));
            }
            Json::obj(members)
        });
        Json::obj([
            ("diagnostics", Json::Arr(diagnostics.collect())),
            ("errors", Json::Int(self.errors() as i64)),
            ("warnings", Json::Int(self.warnings() as i64)),
            ("notes", Json::Int(self.notes() as i64)),
        ])
        .render()
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostics {
        let mut diags = Diagnostics::new();
        diags.push(
            Diagnostic::error(Code(2), "table size 3000 is not a power of two")
                .with_span(Span::line("bad.spec", "size", 3))
                .with_suggestion("use 2048 or 4096"),
        );
        diags.push(
            Diagnostic::warning(
                Code(22),
                "hint for 0x40 targets a branch the profile never saw",
            )
            .with_span(Span::field("<args>", "hints"))
            .with_note("the profile observed 12 branches"),
        );
        diags.push(Diagnostic::note(Code(40), "predicted hotspot at 0x80"));
        diags
    }

    #[test]
    fn codes_render_zero_padded() {
        assert_eq!(Code(2).to_string(), "SDBP002");
        assert_eq!(Code(41).to_string(), "SDBP041");
        assert_eq!(Code(123).to_string(), "SDBP123");
    }

    #[test]
    fn counts_and_pass_logic() {
        let diags = sample();
        assert_eq!(diags.len(), 3);
        assert_eq!(diags.errors(), 1);
        assert_eq!(diags.warnings(), 1);
        assert_eq!(diags.notes(), 1);
        assert!(diags.has_errors());
        assert!(!diags.passes(false));
        assert!(!diags.is_clean());
        assert_eq!(diags.summary(), "1 error, 1 warning, 1 note");

        let mut warn_only = Diagnostics::new();
        warn_only.push(Diagnostic::warning(Code(20), "dup"));
        assert!(warn_only.passes(false));
        assert!(!warn_only.passes(true), "--deny-warnings promotes warnings");

        let mut notes_only = Diagnostics::new();
        notes_only.push(Diagnostic::note(Code(40), "hotspot"));
        assert!(notes_only.passes(true), "notes never fail a check");
        assert!(notes_only.is_clean());

        assert!(Diagnostics::new().passes(true));
        assert_eq!(Diagnostics::new().summary(), "no findings");
    }

    #[test]
    fn text_rendering_snapshot() {
        let rendered = sample().render_text();
        let expected = "\
error[SDBP002]: table size 3000 is not a power of two
  --> bad.spec:3 (size)
  = help: use 2048 or 4096
warning[SDBP022]: hint for 0x40 targets a branch the profile never saw
  --> <args> (hints)
  = note: the profile observed 12 branches
note[SDBP040]: predicted hotspot at 0x80
";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn json_rendering_snapshot() {
        let rendered = sample().to_json();
        let expected = concat!(
            "{\"diagnostics\":[",
            "{\"code\":\"SDBP002\",\"severity\":\"error\",",
            "\"message\":\"table size 3000 is not a power of two\",",
            "\"origin\":\"bad.spec\",\"field\":\"size\",\"line\":3,",
            "\"suggestion\":\"use 2048 or 4096\"},",
            "{\"code\":\"SDBP022\",\"severity\":\"warning\",",
            "\"message\":\"hint for 0x40 targets a branch the profile never saw\",",
            "\"origin\":\"<args>\",\"field\":\"hints\",",
            "\"notes\":[\"the profile observed 12 branches\"]},",
            "{\"code\":\"SDBP040\",\"severity\":\"note\",",
            "\"message\":\"predicted hotspot at 0x80\"}",
            "],\"errors\":1,\"warnings\":1,\"notes\":1}"
        );
        assert_eq!(rendered, expected);
    }

    #[test]
    fn merge_preserves_order() {
        let mut a = Diagnostics::new();
        a.push(Diagnostic::error(Code(1), "first"));
        let mut b = Diagnostics::new();
        b.push(Diagnostic::note(Code(40), "second"));
        a.merge(b);
        let codes: Vec<Code> = a.iter().map(|d| d.code).collect();
        assert_eq!(codes, [Code(1), Code(40)]);
    }
}
