//! # sqlan-sql
//!
//! SQL lexing, parsing, and syntactic analysis for the `sqlan` project —
//! a reproduction of *"Facilitating SQL Query Composition and Analysis"*
//! (Zolaktaf, Milani, Pottinger; SIGMOD 2020).
//!
//! The dialect targets what appears in the SDSS CasJobs and SQLShare query
//! workloads: T-SQL-flavoured SELECT with joins, subqueries, aggregation,
//! `TOP`, `INTO`, bitwise predicates, bracketed identifiers and hex
//! literals, plus shallow recognition of EXECUTE/DDL/DML statements.
//!
//! Everything is tolerant: arbitrary byte strings lex without panicking
//! and parse failures are ordinary `Result` values — in the paper's
//! workloads, "the end user can submit any query to the system, including
//! a random natural language sentence" (§3).
//!
//! ```
//! use sqlan_sql::{parse, extract_props};
//!
//! let outcome = parse("SELECT TOP 10 objid FROM PhotoObj WHERE ra BETWEEN 150 AND 151");
//! assert!(outcome.result.is_ok());
//!
//! let props = extract_props("SELECT * FROM PhotoTag WHERE objId = 0x112d075f80360018");
//! assert_eq!(props.num_tables, 1);
//! assert_eq!(props.num_predicates, 1);
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod display;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod props;
pub mod token;
pub mod visit;

pub use ast::{
    Aggregate, DdlVerb, DmlVerb, Expr, FromItem, FunctionCall, Join, JoinKind, Literal,
    OrderByItem, QualifiedName, Query, Script, SelectItem, Statement, TableFactor, UnaryOp,
};
pub use fingerprint::{fingerprint, lex_fingerprint, normalize_statement, FingerprintedLex};
pub use lexer::{lex, lex_tokens, LexReport};
pub use parser::{parse, parse_script, parse_tokens, ParseError, ParseOutcome};
pub use props::{extract_props, StructuralProps};
pub use token::{Keyword, Op, Span, SpannedTok, Tok};
