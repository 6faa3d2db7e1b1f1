//! A tolerant SQL lexer.
//!
//! Real workloads contain arbitrary text — the SDSS portal accepts anything
//! from valid T-SQL to pasted natural language. The lexer therefore never
//! fails: unclassifiable bytes become [`Tok::Unknown`] and unterminated
//! strings are recorded via [`LexReport::unterminated_string`] while still
//! producing a token stream, so downstream consumers (feature extractors,
//! the error model) always have something to work with.
//!
//! Internally the lexer is split into a span-only scanner (`RawLexer`,
//! crate-private) and a materializing wrapper ([`lex`]). The raw scanner
//! allocates nothing; it is shared with the template-fingerprint pass in
//! [`crate::fingerprint`](mod@crate::fingerprint), which guarantees that
//! the fingerprint probe and the full tokenization agree on every byte
//! of every input by construction — there is exactly one tokenizer.

use crate::token::{Keyword, Op, Span, SpannedTok, Tok};

/// Diagnostics gathered while lexing; these feed the error model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LexReport {
    /// A string literal reached end-of-input without a closing quote.
    pub unterminated_string: bool,
    /// A block comment reached end-of-input without `*/`.
    pub unterminated_comment: bool,
    /// Number of bytes that could not be classified.
    pub unknown_bytes: usize,
}

impl LexReport {
    /// True when the input lexed without any irregularity.
    pub fn is_clean(&self) -> bool {
        !self.unterminated_string && !self.unterminated_comment && self.unknown_bytes == 0
    }
}

/// Lex `input` completely. Never fails; see [`LexReport`].
pub fn lex(input: &str) -> (Vec<SpannedTok>, LexReport) {
    let mut lx = RawLexer::new(input);
    let mut out = Vec::with_capacity(input.len() / 4 + 4);
    while let Some(rt) = lx.next_raw() {
        out.push(SpannedTok {
            tok: materialize(input, &rt),
            span: Span::new(rt.lo, rt.hi),
        });
    }
    (out, lx.report)
}

/// Convenience: tokens only, dropping the report.
pub fn lex_tokens(input: &str) -> Vec<SpannedTok> {
    lex(input).0
}

/// Kind of a raw (span-only) token. No text is materialized; the span plus
/// the flags carried here are sufficient to reconstruct the [`Tok`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RawKind {
    Keyword(Keyword),
    /// A bare identifier word that is not a keyword.
    Word,
    Number,
    HexNumber,
    /// Single-quoted string. The span includes the quotes; `escaped` is set
    /// when the body contains a doubled-quote escape.
    Str {
        terminated: bool,
        escaped: bool,
    },
    /// `[bracketed]` identifier; span includes the brackets.
    Bracketed {
        terminated: bool,
    },
    /// `"quoted"` identifier; span includes the quotes.
    Quoted {
        terminated: bool,
    },
    Op(Op),
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Unknown(char),
}

/// A raw token: kind plus the half-open byte range it covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RawTok {
    pub(crate) kind: RawKind,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

impl RawTok {
    /// The source text covered by this token.
    pub(crate) fn text<'a>(&self, input: &'a str) -> &'a str {
        &input[self.lo..self.hi]
    }

    /// For string/bracketed/quoted tokens: the text between the delimiters
    /// (still escaped for strings). For everything else, the full text.
    pub(crate) fn inner<'a>(&self, input: &'a str) -> &'a str {
        match self.kind {
            RawKind::Str { terminated, .. }
            | RawKind::Bracketed { terminated }
            | RawKind::Quoted { terminated } => {
                let hi = if terminated { self.hi - 1 } else { self.hi };
                &input[self.lo + 1..hi]
            }
            _ => self.text(input),
        }
    }
}

/// Unescape a raw string token's body. Allocation-free unless the body
/// contains a `''` escape.
pub(crate) fn str_value<'a>(input: &'a str, rt: &RawTok) -> std::borrow::Cow<'a, str> {
    let inner = rt.inner(input);
    match rt.kind {
        RawKind::Str { escaped: true, .. } => std::borrow::Cow::Owned(inner.replace("''", "'")),
        _ => std::borrow::Cow::Borrowed(inner),
    }
}

/// Turn a raw token into the owned [`Tok`] the parser consumes.
pub(crate) fn materialize(input: &str, rt: &RawTok) -> Tok {
    match rt.kind {
        RawKind::Keyword(kw) => Tok::Keyword(kw),
        RawKind::Word => Tok::Ident(rt.text(input).to_string()),
        RawKind::Number => Tok::Number(rt.text(input).to_string()),
        RawKind::HexNumber => Tok::HexNumber(rt.text(input).to_string()),
        RawKind::Str { .. } => Tok::String(str_value(input, rt).into_owned()),
        RawKind::Bracketed { .. } | RawKind::Quoted { .. } => {
            Tok::Ident(rt.inner(input).to_string())
        }
        RawKind::Op(op) => Tok::Op(op),
        RawKind::LParen => Tok::LParen,
        RawKind::RParen => Tok::RParen,
        RawKind::Comma => Tok::Comma,
        RawKind::Dot => Tok::Dot,
        RawKind::Semicolon => Tok::Semicolon,
        RawKind::Unknown(c) => Tok::Unknown(c),
    }
}

/// The span-only scanner. Crate-private; use [`lex`] or the fingerprint
/// entry points in [`crate::fingerprint`].
pub(crate) struct RawLexer<'a> {
    src: &'a [u8],
    input: &'a str,
    pos: usize,
    pub(crate) report: LexReport,
}

impl<'a> RawLexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        RawLexer {
            src: input.as_bytes(),
            input,
            pos: 0,
            report: LexReport::default(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                // -- line comment
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                // /* block comment */
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.pos += 2;
                    let mut closed = false;
                    while let Some(b) = self.bump() {
                        if b == b'*' && self.peek() == Some(b'/') {
                            self.pos += 1;
                            closed = true;
                            break;
                        }
                    }
                    if !closed {
                        self.report.unterminated_comment = true;
                    }
                }
                _ => break,
            }
        }
    }

    pub(crate) fn next_raw(&mut self) -> Option<RawTok> {
        self.skip_trivia();
        let start = self.pos;
        let b = self.peek()?;

        let kind = match b {
            b'(' => {
                self.pos += 1;
                RawKind::LParen
            }
            b')' => {
                self.pos += 1;
                RawKind::RParen
            }
            b',' => {
                self.pos += 1;
                RawKind::Comma
            }
            b';' => {
                self.pos += 1;
                RawKind::Semicolon
            }
            b'.' => {
                // `.5` is a number; `a.b` is a dot.
                if self.peek2().is_some_and(|c| c.is_ascii_digit()) {
                    self.lex_number()
                } else {
                    self.pos += 1;
                    RawKind::Dot
                }
            }
            b'\'' => self.lex_string(),
            b'[' => self.lex_delimited(b']'),
            b'"' => self.lex_delimited(b'"'),
            b'0' if self.peek2() == Some(b'x') || self.peek2() == Some(b'X') => self.lex_hex(),
            b'0'..=b'9' => self.lex_number(),
            b'=' => {
                self.pos += 1;
                RawKind::Op(Op::Eq)
            }
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => {
                        self.pos += 1;
                        RawKind::Op(Op::Lte)
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        RawKind::Op(Op::Neq)
                    }
                    _ => RawKind::Op(Op::Lt),
                }
            }
            b'>' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    RawKind::Op(Op::Gte)
                } else {
                    RawKind::Op(Op::Gt)
                }
            }
            b'!' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    RawKind::Op(Op::Neq)
                } else {
                    self.report.unknown_bytes += 1;
                    RawKind::Unknown('!')
                }
            }
            b'+' => {
                self.pos += 1;
                RawKind::Op(Op::Plus)
            }
            b'-' => {
                self.pos += 1;
                RawKind::Op(Op::Minus)
            }
            b'*' => {
                self.pos += 1;
                RawKind::Op(Op::Star)
            }
            b'/' => {
                self.pos += 1;
                RawKind::Op(Op::Slash)
            }
            b'%' => {
                self.pos += 1;
                RawKind::Op(Op::Percent)
            }
            b'&' => {
                self.pos += 1;
                RawKind::Op(Op::BitAnd)
            }
            b'|' => {
                self.pos += 1;
                if self.peek() == Some(b'|') {
                    self.pos += 1;
                    RawKind::Op(Op::Concat)
                } else {
                    RawKind::Op(Op::BitOr)
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'@' || c == b'#' => self.lex_word(),
            _ => {
                // Multi-byte UTF-8 or stray punctuation: emit one char as
                // Unknown so arbitrary text survives.
                let s = &self.input[self.pos..];
                let ch = s.chars().next().expect("non-empty by peek");
                self.pos += ch.len_utf8();
                self.report.unknown_bytes += ch.len_utf8();
                RawKind::Unknown(ch)
            }
        };

        Some(RawTok {
            kind,
            lo: start,
            hi: self.pos,
        })
    }

    fn lex_word(&mut self) -> RawKind {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'@' || b == b'#' || b == b'$' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let word = &self.input[start..self.pos];
        match Keyword::parse(word) {
            Some(kw) => RawKind::Keyword(kw),
            None => RawKind::Word,
        }
    }

    fn lex_number(&mut self) -> RawKind {
        let mut seen_dot = false;
        let mut seen_exp = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !seen_dot && !seen_exp => {
                    seen_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E' if !seen_exp => {
                    // Only an exponent if followed by digit or sign+digit.
                    let next = self.peek2();
                    let next2 = self.src.get(self.pos + 2).copied();
                    let is_exp = match next {
                        Some(d) if d.is_ascii_digit() => true,
                        Some(b'+') | Some(b'-') => next2.is_some_and(|d| d.is_ascii_digit()),
                        _ => false,
                    };
                    if !is_exp {
                        break;
                    }
                    seen_exp = true;
                    self.pos += 2; // e and sign-or-digit
                }
                _ => break,
            }
        }
        RawKind::Number
    }

    fn lex_hex(&mut self) -> RawKind {
        self.pos += 2; // 0x
        while let Some(b) = self.peek() {
            if b.is_ascii_hexdigit() {
                self.pos += 1;
            } else {
                break;
            }
        }
        RawKind::HexNumber
    }

    fn lex_string(&mut self) -> RawKind {
        self.pos += 1; // opening quote
        let mut terminated = false;
        let mut escaped = false;
        // Byte-wise scan is UTF-8 safe: `'` (0x27) never appears inside a
        // multi-byte sequence.
        loop {
            match self.bump() {
                None => {
                    self.report.unterminated_string = true;
                    break;
                }
                Some(b'\'') => {
                    if self.peek() == Some(b'\'') {
                        // '' escape
                        escaped = true;
                        self.pos += 1;
                    } else {
                        terminated = true;
                        break;
                    }
                }
                Some(_) => {}
            }
        }
        RawKind::Str {
            terminated,
            escaped,
        }
    }

    fn lex_delimited(&mut self, close: u8) -> RawKind {
        self.pos += 1; // [ or "
        while let Some(b) = self.peek() {
            if b == close {
                break;
            }
            self.pos += 1;
        }
        let terminated = self.peek() == Some(close);
        if terminated {
            self.pos += 1;
        } else {
            self.report.unterminated_string = true;
        }
        if close == b']' {
            RawKind::Bracketed { terminated }
        } else {
            RawKind::Quoted { terminated }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Keyword as K;

    fn toks(s: &str) -> Vec<Tok> {
        lex_tokens(s).into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_simple_select() {
        let t = toks("SELECT * FROM PhotoTag WHERE objId=0x112d075f80360018");
        assert_eq!(
            t,
            vec![
                Tok::Keyword(K::Select),
                Tok::Op(Op::Star),
                Tok::Keyword(K::From),
                Tok::Ident("PhotoTag".into()),
                Tok::Keyword(K::Where),
                Tok::Ident("objId".into()),
                Tok::Op(Op::Eq),
                Tok::HexNumber("0x112d075f80360018".into()),
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            toks("1 2.5 .5 1e3 1.5e-2 62.835405"),
            vec![
                Tok::Number("1".into()),
                Tok::Number("2.5".into()),
                Tok::Number(".5".into()),
                Tok::Number("1e3".into()),
                Tok::Number("1.5e-2".into()),
                Tok::Number("62.835405".into()),
            ]
        );
    }

    #[test]
    fn number_then_dot_then_ident_is_not_exponent() {
        // `1.e` would be ambiguous; ensure `12e` with no digits stays split.
        assert_eq!(
            toks("12easter"),
            vec![Tok::Number("12".into()), Tok::Ident("easter".into()),]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            toks("'BLENDED' 'it''s'"),
            vec![Tok::String("BLENDED".into()), Tok::String("it's".into()),]
        );
    }

    #[test]
    fn utf8_inside_string_survives() {
        assert_eq!(
            toks("'señor ''¿que?'''"),
            vec![Tok::String("señor '¿que?'".into())]
        );
    }

    #[test]
    fn unterminated_string_is_reported_not_fatal() {
        let (t, rep) = lex("SELECT 'oops");
        assert!(rep.unterminated_string);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unterminated_string_with_escape_keeps_escape() {
        assert_eq!(toks("'it''s"), vec![Tok::String("it's".into())]);
    }

    #[test]
    fn lexes_comments() {
        let t = toks("SELECT 1 -- trailing\n/* block */ FROM x");
        assert_eq!(t[0], Tok::Keyword(K::Select));
        assert!(t.contains(&Tok::Keyword(K::From)));
    }

    #[test]
    fn bracketed_and_quoted_identifiers() {
        assert_eq!(
            toks("[My Table] \"col name\""),
            vec![Tok::Ident("My Table".into()), Tok::Ident("col name".into()),]
        );
    }

    #[test]
    fn bitwise_and_comparison_operators() {
        assert_eq!(
            toks("a & b <> c <= d != e || f"),
            vec![
                Tok::Ident("a".into()),
                Tok::Op(Op::BitAnd),
                Tok::Ident("b".into()),
                Tok::Op(Op::Neq),
                Tok::Ident("c".into()),
                Tok::Op(Op::Lte),
                Tok::Ident("d".into()),
                Tok::Op(Op::Neq),
                Tok::Ident("e".into()),
                Tok::Op(Op::Concat),
                Tok::Ident("f".into()),
            ]
        );
    }

    #[test]
    fn arbitrary_text_survives() {
        let (t, rep) = lex("please show me the galaxies ¿que?");
        assert!(!t.is_empty());
        assert!(rep.unknown_bytes > 0); // the ¿ character
    }

    #[test]
    fn at_variables_lex_as_idents() {
        assert_eq!(
            toks("@x #tmp"),
            vec![Tok::Ident("@x".into()), Tok::Ident("#tmp".into()),]
        );
    }
}
