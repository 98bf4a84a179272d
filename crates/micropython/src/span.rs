//! Source positions and diagnostic rendering.

use std::fmt;

/// A byte range within a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: usize,
    /// Exclusive end byte offset.
    pub end: usize,
}

impl Span {
    /// Creates a span from byte offsets.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at `offset`.
    pub fn point(offset: usize) -> Self {
        Span {
            start: offset,
            end: offset,
        }
    }

    /// The smallest span covering both.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Spans serialize as `{"start", "end"}` byte offsets.
impl serde::Serialize for Span {
    fn serialize(&self, w: &mut serde::json::Writer) {
        w.begin_object();
        w.field("start", &self.start);
        w.field("end", &self.end);
        w.end_object();
    }
}

impl serde::Deserialize for Span {
    fn deserialize(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::Error> {
        r.begin_object("Span")?;
        let (mut start, mut end) = (None, None);
        while let Some(key) = r.next_key()? {
            match &*key {
                "start" => r.field(&mut start, "start", "Span")?,
                "end" => r.field(&mut end, "end", "Span")?,
                _ => r.skip_value()?,
            }
        }
        Ok(Span {
            start: start.ok_or_else(|| serde::Error::missing_field("start", "Span"))?,
            end: end.ok_or_else(|| serde::Error::missing_field("end", "Span"))?,
        })
    }
}

/// A value with its source span.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spanned<T> {
    /// The wrapped value.
    pub node: T,
    /// Where the value came from.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Attaches a span to `node`.
    pub fn new(node: T, span: Span) -> Self {
        Spanned { node, span }
    }
}

/// A source file with precomputed line starts for position lookup.
#[derive(Debug, Clone)]
pub struct SourceFile {
    name: String,
    text: String,
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Wraps source text under a display name.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        let text = text.into();
        let mut line_starts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile {
            name: name.into(),
            text,
            line_starts,
        }
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// 1-based `(line, column)` of a byte offset. Columns count
    /// *characters*, not bytes, so multi-byte UTF-8 text reports the
    /// position an editor shows.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        };
        let start = self.line_starts[line];
        let col = self.text[start..offset.min(self.text.len()).max(start)]
            .chars()
            .count();
        (line + 1, col + 1)
    }

    /// The text of 1-based line `line` (without the newline).
    pub fn line_text(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.text.len(), |&e| e.saturating_sub(1));
        &self.text[start..end.max(start)]
    }

    /// Renders a `file:line:col: message` diagnostic with a source snippet
    /// and caret underline. Caret position and width are measured in
    /// characters so they line up under multi-byte UTF-8 text.
    pub fn render_diagnostic(&self, span: Span, severity: &str, message: &str) -> String {
        let (line, col) = self.line_col(span.start);
        let line_str = self.line_text(line);
        let width = self
            .text
            .get(span.start..span.end.min(self.text.len()))
            .map_or(1, |s| s.chars().count())
            .max(1);
        let line_chars = line_str.chars().count();
        let carets = "^".repeat(width.min(line_chars.saturating_sub(col - 1).max(1)));
        format!(
            "{}:{}:{}: {}: {}\n    {}\n    {}{}",
            self.name,
            line,
            col,
            severity,
            message,
            line_str,
            " ".repeat(col - 1),
            carets
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_lookup() {
        let f = SourceFile::new("t.py", "ab\ncd\nef");
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(1), (1, 2));
        assert_eq!(f.line_col(3), (2, 1));
        assert_eq!(f.line_col(7), (3, 2));
    }

    #[test]
    fn line_text_extraction() {
        let f = SourceFile::new("t.py", "first\nsecond\n");
        assert_eq!(f.line_text(1), "first");
        assert_eq!(f.line_text(2), "second");
    }

    #[test]
    fn diagnostic_contains_caret() {
        let f = SourceFile::new("t.py", "x = foo()\n");
        let d = f.render_diagnostic(Span::new(4, 7), "error", "unknown name");
        assert!(d.contains("t.py:1:5"));
        assert!(d.contains("^^^"));
        assert!(d.contains("unknown name"));
    }

    #[test]
    fn line_col_counts_chars_not_bytes() {
        // "é" is two bytes; "日" is three. The column must count characters.
        let f = SourceFile::new("t.py", "é = 日本\nx = 1\n");
        // Offset of `=` on line 1: "é" (2 bytes) + " " → byte 3, char col 3.
        assert_eq!(f.line_col(3), (1, 3));
        // Offset of `本`: 2 + 1 + 1 + 1 + 3 = byte 8, char col 6.
        assert_eq!(f.line_col(8), (1, 6));
        // ASCII on line 2 is unaffected (line 2 starts at byte 12).
        assert_eq!(f.line_col(12), (2, 1));
    }

    #[test]
    fn caret_aligns_under_multibyte_text() {
        let f = SourceFile::new("t.py", "日本 = foo()\n");
        // Span over `foo` — bytes 9..12 ("日本" = 6 bytes, " = " = 3).
        let d = f.render_diagnostic(Span::new(9, 12), "error", "unknown name");
        // Char col of `foo` is 6 (日, 本, space, =, space → 5 chars before).
        assert!(d.contains("t.py:1:6"), "got: {d}");
        let caret_line = d.lines().last().unwrap();
        assert_eq!(caret_line, "    ".to_string() + &" ".repeat(5) + "^^^");
    }

    #[test]
    fn caret_width_counts_chars() {
        let f = SourceFile::new("t.py", "x = 日本\n");
        // Span over the two-char name `日本` (6 bytes) → two carets.
        let d = f.render_diagnostic(Span::new(4, 10), "error", "bad value");
        let caret_line = d.lines().last().unwrap();
        assert!(caret_line.ends_with("    ^^"), "got: {caret_line:?}");
    }

    #[test]
    fn span_union() {
        let a = Span::new(2, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
    }
}
