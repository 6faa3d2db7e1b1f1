//! Lexical tokens for the SQL dialect understood by `sqlan`.
//!
//! The dialect is modeled on the T-SQL flavour used by the SDSS CasJobs
//! service and SQLShare: bracketed identifiers, `TOP n`, hex literals
//! (object ids such as `0x112d075f80360018` are pervasive in SDSS logs),
//! and bitwise operators in predicates (`flags & dbo.fPhotoFlags('BLENDED')`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open byte range into the original query text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// SQL keywords that the parser gives structural meaning to.
///
/// Anything not in this list lexes as an [`Tok::Ident`]; function names in
/// particular are ordinary identifiers followed by `(`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Keyword {
    Select,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Asc,
    Desc,
    Top,
    Distinct,
    All,
    As,
    Into,
    Inner,
    Left,
    Right,
    Full,
    Outer,
    Cross,
    Join,
    On,
    And,
    Or,
    Not,
    In,
    Between,
    Like,
    Is,
    Null,
    Exists,
    Any,
    Some,
    Case,
    When,
    Then,
    Else,
    End,
    Cast,
    Union,
    Except,
    Intersect,
    Insert,
    Update,
    Delete,
    Create,
    Drop,
    Alter,
    Truncate,
    Table,
    View,
    Index,
    Database,
    Procedure,
    Function,
    Execute,
    Exec,
    Declare,
    Set,
    Values,
    Default,
    Count,
    Min,
    Max,
    Avg,
    Sum,
}

impl Keyword {
    /// Case-insensitive keyword lookup.
    pub fn parse(word: &str) -> Option<Keyword> {
        // Keywords are short; an explicit match on the uppercased word keeps
        // this allocation-free for the common case of short tokens.
        let mut buf = [0u8; 10];
        if word.len() > buf.len() {
            return None;
        }
        for (i, b) in word.bytes().enumerate() {
            buf[i] = b.to_ascii_uppercase();
        }
        let up = &buf[..word.len()];
        use Keyword::*;
        // NB: `use Keyword::*` shadows `Option::Some` with `Keyword::Some`.
        Option::Some(match up {
            b"SELECT" => Select,
            b"FROM" => From,
            b"WHERE" => Where,
            b"GROUP" => Group,
            b"BY" => By,
            b"HAVING" => Having,
            b"ORDER" => Order,
            b"ASC" => Asc,
            b"DESC" => Desc,
            b"TOP" => Top,
            b"DISTINCT" => Distinct,
            b"ALL" => All,
            b"AS" => As,
            b"INTO" => Into,
            b"INNER" => Inner,
            b"LEFT" => Left,
            b"RIGHT" => Right,
            b"FULL" => Full,
            b"OUTER" => Outer,
            b"CROSS" => Cross,
            b"JOIN" => Join,
            b"ON" => On,
            b"AND" => And,
            b"OR" => Or,
            b"NOT" => Not,
            b"IN" => In,
            b"BETWEEN" => Between,
            b"LIKE" => Like,
            b"IS" => Is,
            b"NULL" => Null,
            b"EXISTS" => Exists,
            b"ANY" => Any,
            b"SOME" => Some,
            b"CASE" => Case,
            b"WHEN" => When,
            b"THEN" => Then,
            b"ELSE" => Else,
            b"END" => End,
            b"CAST" => Cast,
            b"UNION" => Union,
            b"EXCEPT" => Except,
            b"INTERSECT" => Intersect,
            b"INSERT" => Insert,
            b"UPDATE" => Update,
            b"DELETE" => Delete,
            b"CREATE" => Create,
            b"DROP" => Drop,
            b"ALTER" => Alter,
            b"TRUNCATE" => Truncate,
            b"TABLE" => Table,
            b"VIEW" => View,
            b"INDEX" => Index,
            b"DATABASE" => Database,
            b"PROCEDURE" => Procedure,
            b"FUNCTION" => Function,
            b"EXECUTE" => Execute,
            b"EXEC" => Exec,
            b"DECLARE" => Declare,
            b"SET" => Set,
            b"VALUES" => Values,
            b"DEFAULT" => Default,
            b"COUNT" => Count,
            b"MIN" => Min,
            b"MAX" => Max,
            b"AVG" => Avg,
            b"SUM" => Sum,
            _ => return None,
        })
    }

    /// True for the five standard aggregate functions.
    pub fn is_aggregate(self) -> bool {
        matches!(
            self,
            Keyword::Count | Keyword::Min | Keyword::Max | Keyword::Avg | Keyword::Sum
        )
    }
}

/// Binary and unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Op {
    Eq,      // =
    Neq,     // <> or !=
    Lt,      // <
    Lte,     // <=
    Gt,      // >
    Gte,     // >=
    Plus,    // +
    Minus,   // -
    Star,    // * (also the wildcard)
    Slash,   // /
    Percent, // %
    BitAnd,  // &
    BitOr,   // |
    BitXor,  // ^
    Concat,  // || (rare in workload but cheap to support)
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Neq => "<>",
            Op::Lt => "<",
            Op::Lte => "<=",
            Op::Gt => ">",
            Op::Gte => ">=",
            Op::Plus => "+",
            Op::Minus => "-",
            Op::Star => "*",
            Op::Slash => "/",
            Op::Percent => "%",
            Op::BitAnd => "&",
            Op::BitOr => "|",
            Op::BitXor => "^",
            Op::Concat => "||",
        };
        f.write_str(s)
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Tok {
    /// A recognized keyword.
    Keyword(Keyword),
    /// A bare, bracketed (`[x]`) or double-quoted (`"x"`) identifier,
    /// stored without the quoting.
    Ident(String),
    /// An integer or decimal literal, kept as text to preserve formatting.
    Number(String),
    /// A hexadecimal literal such as `0x112d075f80360018`.
    HexNumber(String),
    /// A single-quoted string literal, unescaped.
    String(String),
    /// An operator.
    Op(Op),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// A byte the lexer could not classify (kept so downstream counters see
    /// it; arbitrary user text must survive lexing).
    Unknown(char),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Keyword(k) => write!(f, "{:?}", k),
            Tok::Ident(s) => f.write_str(s),
            Tok::Number(s) => f.write_str(s),
            Tok::HexNumber(s) => f.write_str(s),
            Tok::String(s) => write!(f, "'{}'", s),
            Tok::Op(o) => write!(f, "{}", o),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::Comma => f.write_str(","),
            Tok::Dot => f.write_str("."),
            Tok::Semicolon => f.write_str(";"),
            Tok::Unknown(c) => write!(f, "{}", c),
        }
    }
}

/// A token plus its source location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpannedTok {
    pub tok: Tok,
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::parse("select"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("SELECT"), Some(Keyword::Select));
    }

    #[test]
    fn keyword_lookup_rejects_non_keywords() {
        assert_eq!(Keyword::parse("photoobj"), None);
        assert_eq!(Keyword::parse(""), None);
        assert_eq!(Keyword::parse("averylongidentifiername"), None);
    }

    #[test]
    fn aggregates_are_flagged() {
        assert!(Keyword::Count.is_aggregate());
        assert!(Keyword::Min.is_aggregate());
        assert!(!Keyword::Select.is_aggregate());
    }

    #[test]
    fn span_length() {
        let s = Span::new(3, 10);
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
        assert!(Span::new(4, 4).is_empty());
    }
}
