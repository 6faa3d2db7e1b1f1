//! Extraction of the ten syntactic properties of §4.3.1 of the paper.
//!
//! The paper used ANTLR ASTs; we extract the same properties from our own
//! AST. For statements that fail to parse (arbitrary text is legal input),
//! the text-level properties (characters, words) are still computed from
//! the raw token stream and the structural properties are zero.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::ast::*;
use crate::lexer::lex_tokens;
use crate::parser::parse;
use crate::visit::{queries_with_depth, walk_expr, walk_query_exprs};

/// The ten structural properties of a query statement (§4.3.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StructuralProps {
    /// (1) number of characters in the statement text.
    pub num_chars: u32,
    /// (2) number of word tokens (digits collapse to one `<DIGIT>` token).
    pub num_words: u32,
    /// (3) number of function calls (scalar functions and aggregates).
    pub num_functions: u32,
    /// (4) number of explicit join operators.
    pub num_joins: u32,
    /// (5) number of unique table names referenced anywhere.
    pub num_tables: u32,
    /// (6) number of column references in select lists (a bare `*` adds 0).
    pub num_select_columns: u32,
    /// (7) number of predicates (logical conditions) in WHERE/ON/HAVING.
    pub num_predicates: u32,
    /// (8) number of column references appearing inside predicates.
    pub num_predicate_columns: u32,
    /// (9) maximum subquery nesting depth (flat query = 0).
    pub nestedness_level: u32,
    /// (10) true when a nested query involves aggregation.
    pub nested_aggregation: bool,
}

impl StructuralProps {
    /// The property vector in the order the paper's figures use.
    pub fn as_vector(&self) -> [f64; 10] {
        [
            self.num_chars as f64,
            self.num_words as f64,
            self.num_functions as f64,
            self.num_joins as f64,
            self.num_tables as f64,
            self.num_select_columns as f64,
            self.num_predicates as f64,
            self.num_predicate_columns as f64,
            self.nestedness_level as f64,
            if self.nested_aggregation { 1.0 } else { 0.0 },
        ]
    }

    /// Human-readable names matching [`StructuralProps::as_vector`] order.
    pub const NAMES: [&'static str; 10] = [
        "Number of characters",
        "Number of words",
        "Number of functions",
        "Number of joins",
        "Number of tables",
        "Number of select columns",
        "Number of predicates",
        "Number of predicate columns",
        "Nestedness level",
        "Nested aggregation",
    ];
}

/// Extract structural properties from raw statement text.
///
/// This is the main entry point used by workload analysis: it lexes and
/// parses internally, degrading gracefully on unparseable input.
pub fn extract_props(text: &str) -> StructuralProps {
    let mut props = StructuralProps {
        num_chars: text.chars().count() as u32,
        num_words: count_words(text),
        ..StructuralProps::default()
    };
    if let Ok(script) = parse(text).result {
        for stmt in &script.statements {
            accumulate_statement(stmt, &mut props);
        }
    }
    props
}

/// Word count at the lexical level: each token is a word; digit-runs in
/// numeric literals collapse to a single `<DIGIT>` word, matching the
/// paper's preprocessing.
fn count_words(text: &str) -> u32 {
    lex_tokens(text).len() as u32
}

fn accumulate_statement(stmt: &Statement, props: &mut StructuralProps) {
    let queries = queries_with_depth(stmt);
    let mut tables: BTreeSet<String> = BTreeSet::new();

    for &(query, depth) in &queries {
        props.nestedness_level = props.nestedness_level.max(depth);

        // Tables from FROM clauses.
        for fi in &query.from {
            collect_table(&fi.factor, &mut tables);
            for j in &fi.joins {
                collect_table(&j.factor, &mut tables);
                props.num_joins += 1;
            }
        }

        // Select-list column references.
        for item in &query.select {
            walk_expr(&item.expr, &mut |e| {
                if matches!(e, Expr::Column(_)) {
                    props.num_select_columns += 1;
                }
            });
        }

        // Functions anywhere in this query's own expressions; aggregates in
        // nested queries set the nested_aggregation flag.
        walk_query_exprs(query, &mut |e| {
            if let Expr::Function(f) = e {
                props.num_functions += 1;
                if depth > 0 && f.aggregate.is_some() {
                    props.nested_aggregation = true;
                }
            }
        });

        // Predicates: leaves of the boolean structure of WHERE/ON/HAVING.
        let mut count_predicates = |root: &Expr| {
            count_predicate_leaves(root, props);
        };
        if let Some(w) = &query.where_clause {
            count_predicates(w);
        }
        if let Some(h) = &query.having {
            count_predicates(h);
        }
        for fi in &query.from {
            for j in &fi.joins {
                if let Some(on) = &j.on {
                    count_predicates(on);
                }
            }
        }
    }

    // DML statements reference their target table too.
    match stmt {
        Statement::Dml { table: Some(t), .. }
        | Statement::Ddl {
            object: Some(t), ..
        } => {
            tables.insert(t.canonical());
        }
        _ => {}
    }

    props.num_tables += tables.len() as u32;
}

fn collect_table(factor: &TableFactor, tables: &mut BTreeSet<String>) {
    if let TableFactor::Table { name, .. } = factor {
        tables.insert(name.canonical());
    }
}

/// A "predicate" is a leaf logical condition: a comparison, BETWEEN, IN,
/// LIKE, IS NULL or EXISTS. AND/OR/NOT combine predicates and are not
/// themselves counted.
fn count_predicate_leaves(expr: &Expr, props: &mut StructuralProps) {
    match expr {
        Expr::Logical { left, right, .. } => {
            count_predicate_leaves(left, props);
            count_predicate_leaves(right, props);
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => count_predicate_leaves(expr, props),
        Expr::Binary { op, left, right } if op.is_comparison() => {
            props.num_predicates += 1;
            count_columns(left, props);
            count_columns(right, props);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            props.num_predicates += 1;
            count_columns(expr, props);
            count_columns(low, props);
            count_columns(high, props);
        }
        Expr::InList { expr, list, .. } => {
            props.num_predicates += 1;
            count_columns(expr, props);
            for e in list {
                count_columns(e, props);
            }
        }
        Expr::InSubquery { expr, .. } => {
            props.num_predicates += 1;
            count_columns(expr, props);
        }
        Expr::Like { expr, pattern, .. } => {
            props.num_predicates += 1;
            count_columns(expr, props);
            count_columns(pattern, props);
        }
        Expr::IsNull { expr, .. } => {
            props.num_predicates += 1;
            count_columns(expr, props);
        }
        Expr::Exists { .. } => {
            props.num_predicates += 1;
        }
        // A bare boolean-ish expression (e.g. `WHERE flag`) still counts as
        // one condition.
        _ => {
            props.num_predicates += 1;
            count_columns(expr, props);
        }
    }
}

fn count_columns(expr: &Expr, props: &mut StructuralProps) {
    walk_expr(expr, &mut |e| {
        if matches!(e, Expr::Column(_)) {
            props.num_predicate_columns += 1;
        }
    });
}

impl crate::token::Op {
    /// Is this operator a comparison (as opposed to arithmetic/bitwise)?
    pub fn is_comparison(self) -> bool {
        use crate::token::Op::*;
        matches!(self, Eq | Neq | Lt | Lte | Gt | Gte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select_star() {
        let p = extract_props("SELECT * FROM PhotoTag WHERE objId=0x112d075f80360018");
        assert_eq!(p.num_functions, 0);
        assert_eq!(p.num_joins, 0);
        assert_eq!(p.num_tables, 1);
        assert_eq!(p.num_select_columns, 0); // bare star selects no named column
        assert_eq!(p.num_predicates, 1);
        assert_eq!(p.num_predicate_columns, 1);
        assert_eq!(p.nestedness_level, 0);
        assert!(!p.nested_aggregation);
    }

    #[test]
    fn figure5_style_query() {
        // Mirrors the paper's Figure 5 / Example 3 query.
        let sql = "SELECT dbo.fGetURLExpid(objid) FROM SpecPhoto \
                   WHERE modelmag_u-modelmag_g = \
                   (SELECT min(modelmag_u-modelmag_g) \
                    FROM SpecPhoto AS s INNER JOIN PhotoObj AS p ON s.objid=p.objid \
                    WHERE s.flags_g=0 OR p.psfmagerr_g<=0.2 AND p.psfmagerr_u<=0.2)";
        let p = extract_props(sql);
        // Example 3: number of functions = 2 (dbo.fGetURLExpid and min).
        assert_eq!(p.num_functions, 2);
        // Example 3: number of unique table names = 2 (SpecPhoto, PhotoObj).
        assert_eq!(p.num_tables, 2);
        // Example 3: nestedness level = 1, nested aggregation = true.
        assert_eq!(p.nestedness_level, 1);
        assert!(p.nested_aggregation);
        // Example 3: 5 predicates: 1 in the main query, the ON-condition of
        // the inner join, and 3 in the subquery WHERE.
        assert_eq!(p.num_predicates, 5);
        assert_eq!(p.num_joins, 1);
    }

    #[test]
    fn figure2b_counts() {
        let sql = "SELECT p.objid,p.ra,p.dec,p.u,p.g,p.r,p.i,p.z FROM PhotoObj AS p \
                   WHERE type=6 AND p.ra BETWEEN 156.3 AND 156.7 \
                   AND p.dec BETWEEN 62.6 AND 63.0 ORDER BY p.objid";
        let p = extract_props(sql);
        assert_eq!(p.num_select_columns, 8);
        assert_eq!(p.num_predicates, 3);
        assert_eq!(p.num_tables, 1);
    }

    #[test]
    fn unparseable_text_has_text_props_only() {
        let p = extract_props("show me the galaxies near m31");
        assert!(p.num_chars > 0);
        assert!(p.num_words > 0);
        assert_eq!(p.num_tables, 0);
        assert_eq!(p.num_predicates, 0);
    }

    #[test]
    fn nested_without_aggregation() {
        let p = extract_props("SELECT x FROM t WHERE y IN (SELECT y FROM u WHERE z = 1)");
        assert_eq!(p.nestedness_level, 1);
        assert!(!p.nested_aggregation);
    }

    #[test]
    fn top_level_aggregation_is_not_nested_aggregation() {
        let p = extract_props("SELECT count(*) FROM t GROUP BY g");
        assert_eq!(p.num_functions, 1);
        assert!(!p.nested_aggregation);
    }

    #[test]
    fn unique_tables_deduplicate_across_subqueries() {
        let p = extract_props(
            "SELECT a FROM t WHERE a > (SELECT avg(a) FROM t) AND b IN (SELECT b FROM u)",
        );
        assert_eq!(p.num_tables, 2);
    }

    #[test]
    fn char_count_is_unicode_aware() {
        let p = extract_props("SELECT 'é'");
        assert_eq!(p.num_chars, 10);
    }

    #[test]
    fn vector_matches_names_len() {
        let p = extract_props("SELECT 1");
        assert_eq!(p.as_vector().len(), StructuralProps::NAMES.len());
    }

    #[test]
    fn comma_join_counts_tables_not_joins() {
        let p = extract_props("SELECT a.x FROM t1 a, t2 b, t3 c WHERE a.i=b.i AND b.j=c.j");
        assert_eq!(p.num_tables, 3);
        assert_eq!(p.num_joins, 0); // explicit JOIN operators only
        assert_eq!(p.num_predicates, 2);
        assert_eq!(p.num_predicate_columns, 4);
    }
}
