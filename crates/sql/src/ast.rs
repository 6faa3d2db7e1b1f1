//! Abstract syntax tree for the supported SQL dialect.

use serde::{Deserialize, Serialize};

use crate::token::Op;

/// A possibly-qualified name such as `dbo.fPhotoFlags` or
/// `SDSSSQL010.MYDB_670681563.test.QSOQuery1_DR5`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QualifiedName {
    /// Name parts, outermost qualifier first.
    pub parts: Vec<String>,
}

impl QualifiedName {
    pub fn single(name: impl Into<String>) -> Self {
        QualifiedName {
            parts: vec![name.into()],
        }
    }

    pub fn new(parts: Vec<String>) -> Self {
        QualifiedName { parts }
    }

    /// The unqualified trailing name (`fPhotoFlags` of `dbo.fPhotoFlags`).
    pub fn base(&self) -> &str {
        self.parts.last().map(String::as_str).unwrap_or("")
    }

    /// Canonical lower-cased rendering used for identity comparisons.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                s.push('.');
            }
            for ch in p.chars() {
                s.extend(ch.to_lowercase());
            }
        }
        s
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// Integer or decimal literal; original text preserved alongside value.
    Number(f64, String),
    /// Hexadecimal literal, value reduced modulo u64.
    Hex(u64, String),
    /// String literal.
    String(String),
    /// NULL.
    Null,
}

impl Literal {
    /// Convert a numeric literal's source text to its value, exactly as the
    /// parser does. Shared with the fingerprint pass so a literal extracted
    /// into a plan-cache slot is bit-identical to the parsed one.
    pub fn number_from_text(text: String) -> Literal {
        let v = text.parse::<f64>().unwrap_or(f64::NAN);
        Literal::Number(v, text)
    }

    /// Convert a hex literal's source text (`0x…`), reducing modulo u64 by
    /// keeping the trailing 16 hex digits. Shared with the fingerprint pass.
    pub fn hex_from_text(text: String) -> Literal {
        let digits = &text[2..];
        let tail = &digits[digits.len().saturating_sub(16)..];
        let v = u64::from_str_radix(tail, 16).unwrap_or(0);
        Literal::Hex(v, text)
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A column reference, possibly qualified with a table alias.
    Column(QualifiedName),
    /// `*` or `alias.*` in a select list or inside COUNT(*).
    Wildcard(Option<String>),
    /// A literal.
    Literal(Literal),
    /// A literal lifted into a plan-cache template parameter slot. Carries
    /// the value it was parsed from so a template behaves exactly like the
    /// statement it was built from; the cache rebinds every `Param` to the
    /// incoming statement's literal (by `slot`) before execution, so
    /// evaluation never sees this variant on a correct path.
    Param { slot: u32, value: Literal },
    /// Unary minus / NOT.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// A binary arithmetic/comparison/bitwise expression.
    Binary {
        left: Box<Expr>,
        op: Op,
        right: Box<Expr>,
    },
    /// AND / OR.
    Logical {
        left: Box<Expr>,
        and: bool,
        right: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        negated: bool,
        low: Box<Expr>,
        high: Box<Expr>,
    },
    /// `expr [NOT] IN (list...)` or `expr [NOT] IN (subquery)`.
    InList {
        expr: Box<Expr>,
        negated: bool,
        list: Vec<Expr>,
    },
    InSubquery {
        expr: Box<Expr>,
        negated: bool,
        subquery: Box<Query>,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        expr: Box<Expr>,
        negated: bool,
        pattern: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `[NOT] EXISTS (subquery)`.
    Exists { negated: bool, subquery: Box<Query> },
    /// A scalar subquery `(SELECT ...)`.
    Subquery(Box<Query>),
    /// A function call; aggregates are represented here too.
    Function(FunctionCall),
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast { expr: Box<Expr>, ty: String },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOp {
    Neg,
    Not,
    Plus,
}

/// The five standard aggregates; everything else is a scalar function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Aggregate {
    Count,
    Min,
    Max,
    Avg,
    Sum,
}

impl Aggregate {
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Count => "count",
            Aggregate::Min => "min",
            Aggregate::Max => "max",
            Aggregate::Avg => "avg",
            Aggregate::Sum => "sum",
        }
    }
}

/// A function call such as `dbo.fGetNearbyObjEq(185.0, -0.5, 1.0)` or
/// `COUNT(DISTINCT objid)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionCall {
    pub name: QualifiedName,
    /// Set when the function is one of the standard aggregates.
    pub aggregate: Option<Aggregate>,
    pub distinct: bool,
    pub args: Vec<Expr>,
}

/// One item of a select list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

/// Join operators (explicit `JOIN` syntax only; comma-separated FROM lists
/// are kept as multiple [`TableFactor`]s, matching how the paper counts
/// "join operators" — 5.91% of SDSS queries use one, even though many more
/// use comma joins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

/// A base table or derived table in FROM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TableFactor {
    Table {
        name: QualifiedName,
        alias: Option<String>,
    },
    Derived {
        subquery: Box<Query>,
        alias: Option<String>,
    },
}

impl TableFactor {
    pub fn alias(&self) -> Option<&str> {
        match self {
            TableFactor::Table { alias, .. } | TableFactor::Derived { alias, .. } => {
                alias.as_deref()
            }
        }
    }
}

/// An explicit join clause attached to a table factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Join {
    pub kind: JoinKind,
    pub factor: TableFactor,
    /// `ON` condition; `None` for CROSS JOIN.
    pub on: Option<Expr>,
}

/// One element of the FROM list: a factor plus its chained joins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FromItem {
    pub factor: TableFactor,
    pub joins: Vec<Join>,
}

/// Ordering specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A full SELECT query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    pub distinct: bool,
    /// `TOP n` row limit.
    pub top: Option<u64>,
    pub select: Vec<SelectItem>,
    /// `SELECT ... INTO target` (CasJobs MyDB exports use this heavily).
    pub into: Option<QualifiedName>,
    pub from: Vec<FromItem>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
}

impl Query {
    /// An empty `SELECT` with nothing set, for incremental construction.
    pub fn empty() -> Self {
        Query {
            distinct: false,
            top: None,
            select: Vec::new(),
            into: None,
            from: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
        }
    }
}

/// Top-level statements. Non-SELECT statements are parsed shallowly: the
/// prediction task only needs their kind and token stream, and real
/// workloads contain vendor-specific syntax we must not choke on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    Select(Query),
    /// `EXEC`/`EXECUTE proc args...`
    Execute {
        name: QualifiedName,
        arg_count: usize,
    },
    /// CREATE/DROP/ALTER/TRUNCATE of an object.
    Ddl {
        verb: DdlVerb,
        object: Option<QualifiedName>,
    },
    /// INSERT/UPDATE/DELETE; the embedded query, if any, is parsed.
    Dml {
        verb: DmlVerb,
        table: Option<QualifiedName>,
        query: Option<Query>,
    },
    /// DECLARE/SET and other procedural statements.
    Procedural,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum DdlVerb {
    Create,
    Drop,
    Alter,
    Truncate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum DmlVerb {
    Insert,
    Update,
    Delete,
}

/// A parsed script: one or more statements (semicolon- or juxtaposition-
/// separated, as in real logs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Script {
    pub statements: Vec<Statement>,
}

impl Script {
    /// Coarse statement-type label used by the workload analysis
    /// (§4.3.1: "SELECT statements comprise approximately 96.5%...").
    pub fn statement_type(&self) -> &'static str {
        match self.statements.first() {
            Some(Statement::Select(_)) => "SELECT",
            Some(Statement::Execute { .. }) => "EXECUTE",
            Some(Statement::Ddl {
                verb: DdlVerb::Create,
                ..
            }) => "CREATE",
            Some(Statement::Ddl {
                verb: DdlVerb::Drop,
                ..
            }) => "DROP",
            Some(Statement::Ddl {
                verb: DdlVerb::Alter,
                ..
            }) => "ALTER",
            Some(Statement::Ddl {
                verb: DdlVerb::Truncate,
                ..
            }) => "TRUNCATE",
            Some(Statement::Dml {
                verb: DmlVerb::Insert,
                ..
            }) => "INSERT",
            Some(Statement::Dml {
                verb: DmlVerb::Update,
                ..
            }) => "UPDATE",
            Some(Statement::Dml {
                verb: DmlVerb::Delete,
                ..
            }) => "DELETE",
            Some(Statement::Procedural) => "PROCEDURAL",
            None => "EMPTY",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualified_name_base_and_canonical() {
        let n = QualifiedName::new(vec!["dbo".into(), "fPhotoFlags".into()]);
        assert_eq!(n.base(), "fPhotoFlags");
        assert_eq!(n.canonical(), "dbo.fphotoflags");
    }

    #[test]
    fn empty_query_is_empty() {
        let q = Query::empty();
        assert!(q.select.is_empty());
        assert!(q.from.is_empty());
        assert!(q.where_clause.is_none());
    }

    #[test]
    fn script_statement_type() {
        let s = Script {
            statements: vec![Statement::Select(Query::empty())],
        };
        assert_eq!(s.statement_type(), "SELECT");
        let e = Script { statements: vec![] };
        assert_eq!(e.statement_type(), "EMPTY");
    }
}
