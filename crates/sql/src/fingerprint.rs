//! Template fingerprinting: map a statement to a literal-stripped template
//! identity plus an ordered literal vector.
//!
//! SDSS/SQLShare sessions are dominated by template-driven statements that
//! differ only in literal values (`WHERE objId = 0x…` with a different id
//! each time). The engine's cross-statement plan cache keys on the
//! **fingerprint** computed here: a 128-bit FxHash over the token stream
//! with every *parameterizable* literal replaced by a kind marker. Two
//! statements share a fingerprint iff they lex to the same template —
//! whitespace, comments, and literal spelling (`1e3` vs `1000.0`,
//! `'it''s'` vs the same value spelled differently) do not matter;
//! identifiers, keywords, operators, and punctuation all do. Quoted and
//! bracketed identifiers hash by their inner text, so `[name]` and `name`
//! share a template exactly as they parse to the same AST.
//!
//! **Structural literals are never parameterized.** A literal whose *value*
//! feeds the parser or planner rather than expression evaluation must stay
//! concrete (hashed into the fingerprint), otherwise two statements with
//! different plans would collide. Three grammar positions qualify:
//!
//! - `TOP n` / `TOP (n)` — the row limit becomes [`Query::top`](crate::Query::top);
//! - a string right after `AS` — an alias (`expr AS 'name'`);
//! - numbers inside a CAST type's argument list (`CAST(x AS dec(10, 2))`).
//!
//! The tracker over-approximates: misclassifying a parameterizable literal
//! as concrete only splits a template into several (less sharing, never
//! wrong results). The reverse direction cannot happen because the three
//! contexts above are recognized by the same token shapes the parser uses.
//!
//! Probe vs. full lex: [`fingerprint`] computes the identity without
//! materializing tokens (the cache-hit path); [`lex_fingerprint`]
//! additionally yields the token stream and a parallel per-token slot map
//! for parameterized parsing (the miss path). Both run the exact same
//! scanner and feed the exact same hasher — one loop, one `materialize`
//! flag — so a probe hash always equals the full-lex hash by construction.
//!
//! This module is also the home of [`normalize_statement`], the
//! whitespace-collapsing key function used by `sqlan-serve`'s prediction
//! cache, so both caches' notions of "same statement text" live in one
//! place. Normalization is coarser than raw text but finer than the
//! fingerprint (it keeps literal spelling); `fingerprint` is invariant
//! under it.

use std::hash::Hasher;

use fxhash::FxHasher;

use crate::ast::Literal;
use crate::lexer::{materialize, str_value, LexReport, RawKind, RawLexer};
use crate::token::{Span, SpannedTok};

/// The result of fingerprinting (and optionally fully lexing) a statement.
#[derive(Debug, Clone)]
pub struct FingerprintedLex {
    /// 128-bit template identity (two independently seeded 64-bit FxHashes).
    pub fingerprint: u128,
    /// The parameterizable literals, in source order. `literals[slot]`
    /// is the value for parameter slot `slot`.
    pub literals: Vec<Literal>,
    /// Lexer diagnostics — identical to what [`crate::lexer::lex`] reports.
    pub report: LexReport,
    /// The materialized token stream. Empty for [`fingerprint`] probes.
    pub toks: Vec<SpannedTok>,
    /// Parallel to `toks`: `params[i] = Some(slot)` when `toks[i]` is the
    /// literal occupying parameter slot `slot`. Empty for probes.
    pub params: Vec<Option<u32>>,
}

/// Compute the template fingerprint and literal vector without
/// materializing tokens. This is the cache-hit fast path: no `String`
/// allocations except for the extracted literal values themselves.
pub fn fingerprint(input: &str) -> FingerprintedLex {
    scan(input, false)
}

/// Fingerprint *and* fully lex: the cache-miss path. The token stream is
/// byte-identical to [`crate::lexer::lex`] (same scanner), and `params`
/// marks which tokens were lifted into parameter slots so the parser can
/// emit [`crate::ast::Expr::Param`] nodes in their place.
pub fn lex_fingerprint(input: &str) -> FingerprintedLex {
    scan(input, true)
}

/// Structural-context tracker; see the module docs for the three contexts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ctx {
    Normal,
    /// Right after `TOP` — a following number is the row limit.
    AfterTop,
    /// After `TOP (` — the parenthesized row limit.
    AfterTopLParen,
    /// Right after `AS` — a following string is an alias; a following
    /// identifier may begin a CAST target type.
    AfterAs,
    /// After `AS ident` — a following `(` opens a type argument list.
    AfterAsIdent,
    /// Inside `AS ident ( … )` — numbers are type arguments.
    TypeArgs,
}

impl Ctx {
    fn number_is_structural(self) -> bool {
        matches!(self, Ctx::AfterTop | Ctx::AfterTopLParen | Ctx::TypeArgs)
    }

    fn string_is_structural(self) -> bool {
        self == Ctx::AfterAs
    }

    fn next(self, kind: &RawKind) -> Ctx {
        use crate::token::Keyword as K;
        match (self, kind) {
            (_, RawKind::Keyword(K::Top)) => Ctx::AfterTop,
            (_, RawKind::Keyword(K::As)) => Ctx::AfterAs,
            (Ctx::AfterTop, RawKind::LParen) => Ctx::AfterTopLParen,
            (Ctx::AfterAs, RawKind::Word)
            | (Ctx::AfterAs, RawKind::Bracketed { .. })
            | (Ctx::AfterAs, RawKind::Quoted { .. }) => Ctx::AfterAsIdent,
            (Ctx::AfterAsIdent, RawKind::LParen) => Ctx::TypeArgs,
            (Ctx::TypeArgs, RawKind::Number) | (Ctx::TypeArgs, RawKind::Comma) => Ctx::TypeArgs,
            _ => Ctx::Normal,
        }
    }
}

/// Two independently seeded FxHashers, combined into a u128. A single
/// 64-bit Fx hash is too weak to bet result correctness on (the cache
/// trusts the fingerprint as the template identity); two differently
/// seeded lanes make accidental collisions astronomically unlikely.
struct Fp {
    a: FxHasher,
    b: FxHasher,
}

// Per-token-kind hash tags. Distinct tags keep adjacent tokens from
// gluing together (`a b` vs `ab` must differ even though both hash the
// same bytes).
const TAG_KEYWORD: u64 = 0xE0;
const TAG_IDENT: u64 = 0xE1;
const TAG_NUM_SLOT: u64 = 0xF1;
const TAG_NUM_CONCRETE: u64 = 0xF2;
const TAG_STR_SLOT: u64 = 0xF3;
const TAG_STR_CONCRETE: u64 = 0xF4;
const TAG_HEX_SLOT: u64 = 0xF5;
const TAG_OP: u64 = 0xD0;
const TAG_LPAREN: u64 = 0xC0;
const TAG_RPAREN: u64 = 0xC1;
const TAG_COMMA: u64 = 0xC2;
const TAG_DOT: u64 = 0xC3;
const TAG_SEMI: u64 = 0xC4;
const TAG_UNKNOWN: u64 = 0xB0;

impl Fp {
    fn new() -> Fp {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0x5153_4C41_4E5F_4650); // "QSLAN_FP" lane 1
        b.write_u64(0x6662_7073_6C61_6E32); // lane 2
        Fp { a, b }
    }

    fn tag(&mut self, t: u64) {
        self.a.write_u64(t);
        self.b.write_u64(t);
    }

    fn text(&mut self, s: &str) {
        self.a.write(s.as_bytes());
        self.b.write(s.as_bytes());
    }

    fn finish(self) -> u128 {
        ((self.a.finish() as u128) << 64) | self.b.finish() as u128
    }
}

/// The single scan loop behind both entry points. `materialize_toks`
/// gates only the token materialization — the hash feed, context tracking,
/// and literal extraction are shared unconditionally, which is what makes
/// probe and full-lex fingerprints equal by construction.
fn scan(input: &str, materialize_toks: bool) -> FingerprintedLex {
    let mut lx = RawLexer::new(input);
    let mut fp = Fp::new();
    let mut ctx = Ctx::Normal;
    let mut literals: Vec<Literal> = Vec::new();
    let mut toks: Vec<SpannedTok> = Vec::new();
    let mut params: Vec<Option<u32>> = Vec::new();

    while let Some(rt) = lx.next_raw() {
        let mut slot: Option<u32> = None;
        match rt.kind {
            RawKind::Keyword(k) => {
                fp.tag(TAG_KEYWORD);
                fp.tag(k as u64);
            }
            RawKind::Word => {
                fp.tag(TAG_IDENT);
                fp.text(rt.text(input));
            }
            // Bracketed/quoted identifiers hash by inner text, matching
            // how they materialize: `[name]` and `name` share a template.
            RawKind::Bracketed { .. } | RawKind::Quoted { .. } => {
                fp.tag(TAG_IDENT);
                fp.text(rt.inner(input));
            }
            RawKind::Number => {
                if ctx.number_is_structural() {
                    fp.tag(TAG_NUM_CONCRETE);
                    fp.text(rt.text(input));
                } else {
                    fp.tag(TAG_NUM_SLOT);
                    slot = Some(literals.len() as u32);
                    literals.push(Literal::number_from_text(rt.text(input).to_string()));
                }
            }
            RawKind::HexNumber => {
                // Hex literals never appear in a structural position.
                fp.tag(TAG_HEX_SLOT);
                slot = Some(literals.len() as u32);
                literals.push(Literal::hex_from_text(rt.text(input).to_string()));
            }
            RawKind::Str { .. } => {
                if ctx.string_is_structural() {
                    fp.tag(TAG_STR_CONCRETE);
                    // Hash the unescaped value so two spellings of the
                    // same alias share a template.
                    fp.text(&str_value(input, &rt));
                } else {
                    fp.tag(TAG_STR_SLOT);
                    slot = Some(literals.len() as u32);
                    literals.push(Literal::String(str_value(input, &rt).into_owned()));
                }
            }
            RawKind::Op(o) => {
                fp.tag(TAG_OP);
                fp.tag(o as u64);
            }
            RawKind::LParen => fp.tag(TAG_LPAREN),
            RawKind::RParen => fp.tag(TAG_RPAREN),
            RawKind::Comma => fp.tag(TAG_COMMA),
            RawKind::Dot => fp.tag(TAG_DOT),
            RawKind::Semicolon => fp.tag(TAG_SEMI),
            RawKind::Unknown(c) => {
                fp.tag(TAG_UNKNOWN);
                fp.tag(c as u64);
            }
        }
        ctx = ctx.next(&rt.kind);
        if materialize_toks {
            toks.push(SpannedTok {
                tok: materialize(input, &rt),
                span: Span::new(rt.lo, rt.hi),
            });
            params.push(slot);
        }
    }

    FingerprintedLex {
        fingerprint: fp.finish(),
        literals,
        report: lx.report,
        toks,
        params,
    }
}

/// Collapse whitespace runs to single spaces *outside* string/identifier
/// literals and trim the ends, so logically identical statements share a
/// cache entry without ever merging distinct literals.
///
/// This is `sqlan-serve`'s prediction-cache key function; it lives here so
/// the serving cache and the engine's plan cache derive "same statement"
/// from one module. It deliberately keeps literal spelling (serve keys are
/// pinned by byte-identity e2e tests); the [`fingerprint`] is strictly
/// coarser and invariant under this transform.
pub fn normalize_statement(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut quote: Option<char> = None;
    let mut pending_space = false;
    for c in text.chars() {
        if let Some(q) = quote {
            out.push(c);
            if c == q {
                // A doubled quote re-enters the region at the next quote
                // char; treating it as leave-then-enter preserves bytes
                // either way.
                quote = None;
            }
            continue;
        }
        if c.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        out.push(c);
        if c == '\'' || c == '"' {
            quote = Some(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(s: &str) -> u128 {
        fingerprint(s).fingerprint
    }

    #[test]
    fn whitespace_and_comments_do_not_matter() {
        let a = fp("SELECT id FROM Obj WHERE x > 10");
        assert_eq!(a, fp("select   id\nFROM Obj /* c */ WHERE x > 10"));
        assert_eq!(a, fp("SELECT id FROM Obj -- t\n WHERE x > 10"));
    }

    #[test]
    fn literal_values_do_not_matter() {
        let a = fp("SELECT id FROM Obj WHERE x > 10 AND tag = 'a'");
        assert_eq!(a, fp("SELECT id FROM Obj WHERE x > 999.5 AND tag = 'zz'"));
        assert_eq!(a, fp("SELECT id FROM Obj WHERE x > 1e3 AND tag = 'it''s'"));
    }

    #[test]
    fn structure_does_matter() {
        let a = fp("SELECT id FROM Obj WHERE x > 10");
        assert_ne!(a, fp("SELECT id FROM Obj WHERE x < 10"));
        assert_ne!(a, fp("SELECT id FROM Obj WHERE y > 10"));
        assert_ne!(a, fp("SELECT id FROM Spec WHERE x > 10"));
        assert_ne!(a, fp("SELECT id FROM Obj WHERE x > 'a'"));
        assert_ne!(a, fp("SELECT id FROM Obj WHERE x > 0x10"));
    }

    #[test]
    fn bracketed_identifiers_share_the_bare_template() {
        assert_eq!(fp("SELECT [id] FROM Obj"), fp("SELECT id FROM Obj"));
        assert_eq!(fp("SELECT \"id\" FROM Obj"), fp("SELECT id FROM Obj"));
    }

    #[test]
    fn keyword_case_is_insensitive_but_ident_case_is_not() {
        assert_eq!(fp("SELECT x FROM t"), fp("select x from t"));
        // Identifier case resolves equal downstream, but separate
        // templates are safe — just less sharing.
        assert_ne!(fp("SELECT X FROM t"), fp("SELECT x FROM t"));
    }

    #[test]
    fn top_limit_is_structural() {
        assert_ne!(
            fp("SELECT TOP 5 id FROM Obj"),
            fp("SELECT TOP 6 id FROM Obj")
        );
        assert_ne!(
            fp("SELECT TOP (5) id FROM Obj"),
            fp("SELECT TOP (6) id FROM Obj")
        );
        // ...but a predicate literal right after is still a slot.
        assert_eq!(
            fp("SELECT TOP 5 id FROM Obj WHERE x > 1"),
            fp("SELECT TOP 5 id FROM Obj WHERE x > 2")
        );
    }

    #[test]
    fn string_alias_is_structural() {
        assert_ne!(fp("SELECT x AS 'a' FROM t"), fp("SELECT x AS 'b' FROM t"));
    }

    #[test]
    fn cast_type_args_are_structural() {
        assert_ne!(
            fp("SELECT CAST(x AS dec(10, 2)) FROM t"),
            fp("SELECT CAST(x AS dec(12, 3)) FROM t")
        );
        // The cast operand stays parameterizable.
        assert_eq!(
            fp("SELECT CAST(1 AS dec(10, 2)) FROM t"),
            fp("SELECT CAST(2 AS dec(10, 2)) FROM t")
        );
    }

    #[test]
    fn literal_vector_is_ordered_and_converted() {
        let f = fingerprint("SELECT id FROM Obj WHERE x > 10 AND tag = 'a' AND h = 0x1f");
        assert_eq!(
            f.literals,
            vec![
                Literal::Number(10.0, "10".into()),
                Literal::String("a".into()),
                Literal::Hex(0x1f, "0x1f".into()),
            ]
        );
    }

    #[test]
    fn probe_equals_full_lex() {
        for s in [
            "SELECT TOP 5 id FROM Obj WHERE x > 10 AND tag = 'it''s'",
            "SELECT CAST(x AS dec(10, 2)) AS 'a' FROM t; EXEC dbo.sp 1, 'x'",
            "not sql at all ¿que? 'unterminated",
            "",
        ] {
            let probe = fingerprint(s);
            let full = lex_fingerprint(s);
            assert_eq!(probe.fingerprint, full.fingerprint, "{s:?}");
            assert_eq!(probe.literals, full.literals, "{s:?}");
            assert_eq!(probe.report, full.report, "{s:?}");
            assert!(probe.toks.is_empty());
            assert_eq!(full.toks.len(), full.params.len());
        }
    }

    #[test]
    fn full_lex_matches_plain_lex() {
        for s in [
            "SELECT TOP 5 [id] FROM Obj WHERE x > 10 AND tag = 'it''s' -- c",
            "please show me the galaxies ¿que?",
            "SELECT 'oops",
        ] {
            let full = lex_fingerprint(s);
            let (toks, report) = crate::lexer::lex(s);
            assert_eq!(full.toks, toks, "{s:?}");
            assert_eq!(full.report, report, "{s:?}");
        }
    }

    #[test]
    fn params_point_at_literal_tokens() {
        let full = lex_fingerprint("SELECT id FROM Obj WHERE x > 10 AND tag = 'a'");
        let slots: Vec<(usize, u32)> = full
            .params
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s)))
            .collect();
        assert_eq!(slots.len(), full.literals.len());
        for (i, slot) in slots {
            use crate::token::Tok;
            match (&full.toks[i].tok, &full.literals[slot as usize]) {
                (Tok::Number(t), Literal::Number(_, lt)) => assert_eq!(t, lt),
                (Tok::String(t), Literal::String(lt)) => assert_eq!(t, lt),
                (Tok::HexNumber(t), Literal::Hex(_, lt)) => assert_eq!(t, lt),
                (tok, lit) => panic!("slot {slot} mismatch: {tok:?} vs {lit:?}"),
            }
        }
    }

    #[test]
    fn fingerprint_is_invariant_under_normalization() {
        for s in [
            "  SELECT   id\tFROM Obj\n WHERE tag = 'a  b'  ",
            "SELECT 'it''s'  ,  x FROM t",
        ] {
            assert_eq!(fp(s), fp(&normalize_statement(s)), "{s:?}");
        }
    }

    #[test]
    fn normalization_collapses_outside_literals_only() {
        assert_eq!(
            normalize_statement("SELECT  *\n FROM   x WHERE a = 'two  spaces'"),
            "SELECT * FROM x WHERE a = 'two  spaces'"
        );
        assert_eq!(
            normalize_statement("  SELECT \"my  col\" FROM t  "),
            "SELECT \"my  col\" FROM t"
        );
    }
}
