//! Tokens and source spans.

use std::fmt;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Builds a span from byte offsets.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based `(line, column)` of the span start within `source`.
    ///
    /// Scans `source` once; a caller resolving many spans against one
    /// file builds a [`LineIndex`] and asks it instead.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        LineIndex::new(source).line_col(self.start)
    }
}

/// The newline offsets of one source text, built once so that each
/// position lookup is a binary search rather than a scan of the prefix.
///
/// Columns count bytes from the start of the line, 1-based. A newline
/// belongs to the line it ends. Offsets past the end of the text resolve
/// on its last line, with the column still counted from the offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineIndex {
    /// Byte offset of every `\n`, ascending.
    newlines: Vec<usize>,
    /// Length of the text in bytes.
    len: usize,
}

impl LineIndex {
    /// Indexes the lines of `source`.
    pub fn new(source: &str) -> Self {
        LineIndex {
            newlines: source
                .bytes()
                .enumerate()
                .filter_map(|(i, b)| (b == b'\n').then_some(i))
                .collect(),
            len: source.len(),
        }
    }

    /// Number of newlines before `offset` (clamped to the text).
    fn newlines_before(&self, offset: usize) -> usize {
        let offset = offset.min(self.len);
        self.newlines.partition_point(|&nl| nl < offset)
    }

    /// 1-based `(line, column)` of byte `offset`.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let before = self.newlines_before(offset);
        let col = match before {
            0 => offset + 1,
            n => offset - self.newlines[n - 1],
        };
        (before + 1, col)
    }

    /// Byte range `(start, end)` of the line holding `offset` (clamped to
    /// the text), without its terminating newline.
    pub fn line_bounds(&self, offset: usize) -> (usize, usize) {
        let before = self.newlines_before(offset);
        let start = match before {
            0 => 0,
            n => self.newlines[n - 1] + 1,
        };
        let end = self.newlines.get(before).copied().unwrap_or(self.len);
        (start, end)
    }
}

/// The kind of a lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Lower-case identifier or digit sequence: a symbol name.
    Name(String),
    /// Upper-case or `_`-initial identifier: a variable name.
    Variable(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.` (clause terminator)
    Dot,
    /// `:-`
    Turnstile,
    /// `>=`
    Supertype,
    /// `+`
    Plus,
    /// `-` (argument mode in `MODE` declarations)
    Minus,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Name(n) => format!("name `{n}`"),
            TokenKind::Variable(v) => format!("variable `{v}`"),
            TokenKind::LParen => "`(`".to_string(),
            TokenKind::RParen => "`)`".to_string(),
            TokenKind::Comma => "`,`".to_string(),
            TokenKind::Dot => "`.`".to_string(),
            TokenKind::Turnstile => "`:-`".to_string(),
            TokenKind::Supertype => "`>=`".to_string(),
            TokenKind::Plus => "`+`".to_string(),
            TokenKind::Minus => "`-`".to_string(),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Where in the source the token came from.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_is_one_based() {
        let src = "abc\ndef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(2, 3).line_col(src), (1, 3));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 1));
        assert_eq!(Span::new(6, 7).line_col(src), (2, 3));
    }

    /// The prefix-scan lookup `LineIndex` replaces, kept as the oracle.
    fn prefix_scan_line_col(source: &str, start: usize) -> (usize, usize) {
        let upto = &source[..start.min(source.len())];
        let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = upto.rfind('\n').map_or(start + 1, |nl| start - nl);
        (line, col)
    }

    /// The prefix-scan line bounds `LineIndex` replaces.
    fn prefix_scan_line_bounds(source: &str, offset: usize) -> (usize, usize) {
        let offset = offset.min(source.len());
        let start = source[..offset].rfind('\n').map_or(0, |i| i + 1);
        let end = source[start..]
            .find('\n')
            .map_or(source.len(), |i| start + i);
        (start, end)
    }

    /// Compares `LineIndex` with the prefix scans at every char boundary
    /// of `src` and a few offsets past its end.
    fn agrees_with_prefix_scan(src: &str) {
        let index = LineIndex::new(src);
        let offsets = (0..=src.len())
            .filter(|&i| src.is_char_boundary(i))
            .chain([src.len() + 1, src.len() + 7]);
        for i in offsets {
            assert_eq!(
                index.line_col(i),
                prefix_scan_line_col(src, i),
                "line_col({i}) of {src:?}"
            );
            assert_eq!(Span::new(i, i).line_col(src), prefix_scan_line_col(src, i));
            assert_eq!(
                index.line_bounds(i),
                prefix_scan_line_bounds(src, i),
                "line_bounds({i}) of {src:?}"
            );
        }
    }

    #[test]
    fn line_index_at_offset_zero() {
        let index = LineIndex::new("abc\ndef\n");
        assert_eq!(index.line_col(0), (1, 1));
        assert_eq!(index.line_bounds(0), (0, 3));
        assert_eq!(LineIndex::new("").line_col(0), (1, 1));
        assert_eq!(LineIndex::new("").line_bounds(0), (0, 0));
        agrees_with_prefix_scan("");
    }

    #[test]
    fn line_index_newline_belongs_to_the_line_it_ends() {
        let src = "ab\ncd\n\nef\n";
        let index = LineIndex::new(src);
        assert_eq!(index.line_col(2), (1, 3));
        assert_eq!(index.line_bounds(2), (0, 2));
        assert_eq!(index.line_col(3), (2, 1));
        // An empty line: its only byte is its own newline.
        assert_eq!(index.line_col(6), (3, 1));
        assert_eq!(index.line_bounds(6), (6, 6));
        agrees_with_prefix_scan(src);
    }

    #[test]
    fn line_index_without_trailing_newline() {
        let src = "p(a).\nq(b)";
        let index = LineIndex::new(src);
        assert_eq!(index.line_col(9), (2, 4));
        assert_eq!(index.line_bounds(9), (6, 10));
        assert_eq!(index.line_col(src.len()), (2, 5));
        agrees_with_prefix_scan(src);
    }

    #[test]
    fn line_index_clamps_offsets_past_the_end() {
        let src = "ab\ncd\n";
        let index = LineIndex::new(src);
        // The line is clamped to the text; the column still counts from
        // the offset, exactly as the prefix scan did.
        assert_eq!(index.line_col(100), (3, 95));
        assert_eq!(index.line_bounds(100), (6, 6));
        assert_eq!(LineIndex::new("ab").line_col(9), (1, 10));
        agrees_with_prefix_scan(src);
        agrees_with_prefix_scan("ab");
    }

    #[test]
    fn line_index_counts_bytes_after_multibyte_text() {
        let src = "% ⊒ ≥ é\np(x). % ∈\nq(λ).";
        let index = LineIndex::new(src);
        let p = src.find("p(").unwrap();
        assert_eq!(index.line_col(p), (2, 1));
        let x = src.find('x').unwrap();
        assert_eq!(index.line_col(x), (2, 3));
        // Columns are byte columns: `λ` follows two bytes, `)` three more.
        let close = src.rfind(')').unwrap();
        assert_eq!(index.line_col(close), (3, 5));
        agrees_with_prefix_scan(src);
    }

    #[test]
    fn merge_covers_both() {
        let a = Span::new(3, 5);
        let b = Span::new(10, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(b.merge(a), Span::new(3, 12));
    }
}
