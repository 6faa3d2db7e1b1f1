//! Catalog: table schemas and columnar data, plus seeded data generation.
//!
//! Tables are generated deterministically from a seed so that every label
//! in a synthesized workload is reproducible. Column generators cover the
//! distributions that drive realistic selectivities: uniform sky
//! coordinates, categorical type codes, bit-flag masks, heavy-tailed
//! magnitudes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::value::Value;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    Int,
    Float,
    Str,
}

/// Schema of one column.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColType,
}

/// Columnar storage for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
}

impl ColumnVec {
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Float(v) => v.len(),
            ColumnVec::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` (must be in bounds).
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnVec::Int(v) => Value::Int(v[row]),
            ColumnVec::Float(v) => Value::Float(v[row]),
            ColumnVec::Str(v) => Value::Str(v[row].clone()),
        }
    }

    pub fn ty(&self) -> ColType {
        match self {
            ColumnVec::Int(_) => ColType::Int,
            ColumnVec::Float(_) => ColType::Float,
            ColumnVec::Str(_) => ColType::Str,
        }
    }
}

/// One table: schema + column-oriented rows.
///
/// Columns are `Arc`-shared so the columnar engine's scans can reference
/// base data without copying it (the row engine still materializes rows).
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    pub data: Vec<Arc<ColumnVec>>,
}

impl Table {
    pub fn row_count(&self) -> usize {
        self.data.first().map(|c| c.len()).unwrap_or(0)
    }
}

/// How to generate values for one column.
#[derive(Debug, Clone)]
pub enum ColumnSpec {
    /// 0, 1, 2, ... — primary-key style.
    SeqId,
    /// Large pseudo-random ids in hex-literal range (SDSS objids).
    ObjId,
    /// Uniform float in `[lo, hi)`.
    Uniform(f64, f64),
    /// Gaussian with `(mean, std)` via Box–Muller.
    Normal(f64, f64),
    /// Uniform integer in `[lo, hi]`.
    IntUniform(i64, i64),
    /// Zipf-ish categorical codes `0..n` with probability ∝ 1/(k+1).
    Categorical(u32),
    /// Random bitmask with `bits` independently-set bits (p = 0.15 each).
    Bitmask(u32),
    /// A string drawn from the given set, uniformly.
    StrChoice(&'static [&'static str]),
    /// `prefix` + sequential number.
    TaggedSeq(&'static str),
}

impl ColumnSpec {
    pub fn ty(&self) -> ColType {
        match self {
            ColumnSpec::SeqId
            | ColumnSpec::ObjId
            | ColumnSpec::IntUniform(..)
            | ColumnSpec::Categorical(_)
            | ColumnSpec::Bitmask(_) => ColType::Int,
            ColumnSpec::Uniform(..) | ColumnSpec::Normal(..) => ColType::Float,
            ColumnSpec::StrChoice(_) | ColumnSpec::TaggedSeq(_) => ColType::Str,
        }
    }

    fn generate(&self, rows: usize, rng: &mut StdRng) -> ColumnVec {
        match self {
            ColumnSpec::SeqId => ColumnVec::Int((0..rows as i64).collect()),
            ColumnSpec::ObjId => ColumnVec::Int(
                (0..rows)
                    .map(|_| rng.gen_range(1i64 << 40..1i64 << 56))
                    .collect(),
            ),
            ColumnSpec::Uniform(lo, hi) => {
                ColumnVec::Float((0..rows).map(|_| rng.gen_range(*lo..*hi)).collect())
            }
            ColumnSpec::Normal(mean, std) => ColumnVec::Float(
                (0..rows)
                    .map(|_| {
                        // Box–Muller transform.
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        mean + std * z
                    })
                    .collect(),
            ),
            ColumnSpec::IntUniform(lo, hi) => {
                ColumnVec::Int((0..rows).map(|_| rng.gen_range(*lo..=*hi)).collect())
            }
            ColumnSpec::Categorical(n) => {
                let n = (*n).max(1);
                // Zipf via inverse-CDF over precomputed cumulative weights.
                let weights: Vec<f64> = (0..n).map(|k| 1.0 / (k as f64 + 1.0)).collect();
                let total: f64 = weights.iter().sum();
                ColumnVec::Int(
                    (0..rows)
                        .map(|_| {
                            let mut x = rng.gen_range(0.0..total);
                            for (k, w) in weights.iter().enumerate() {
                                if x < *w {
                                    return k as i64;
                                }
                                x -= w;
                            }
                            (n - 1) as i64
                        })
                        .collect(),
                )
            }
            ColumnSpec::Bitmask(bits) => ColumnVec::Int(
                (0..rows)
                    .map(|_| {
                        let mut m = 0i64;
                        for b in 0..*bits {
                            if rng.gen_bool(0.15) {
                                m |= 1 << b;
                            }
                        }
                        m
                    })
                    .collect(),
            ),
            ColumnSpec::StrChoice(choices) => ColumnVec::Str(
                (0..rows)
                    .map(|_| choices[rng.gen_range(0..choices.len())].to_string())
                    .collect(),
            ),
            ColumnSpec::TaggedSeq(prefix) => {
                ColumnVec::Str((0..rows).map(|i| format!("{prefix}{i}")).collect())
            }
        }
    }
}

/// Declarative description of one table for the catalog builder.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: String,
    pub rows: usize,
    pub columns: Vec<(String, ColumnSpec)>,
}

impl TableSpec {
    pub fn new(name: impl Into<String>, rows: usize) -> Self {
        TableSpec {
            name: name.into(),
            rows,
            columns: Vec::new(),
        }
    }

    pub fn column(mut self, name: impl Into<String>, spec: ColumnSpec) -> Self {
        self.columns.push((name.into(), spec));
        self
    }
}

/// A database instance: named tables plus a per-instance identity.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Tables paired with their precomputed ASCII-lowercased lookup key.
    /// A flat vector beats a hash map here: catalogs hold at most a few
    /// dozen tables, and scanning with `eq_ignore_ascii_case` against the
    /// prebuilt key makes every lookup allocation-free (the old map
    /// lowercased the probe name on each call).
    tables: Vec<(String, Table)>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Build a catalog from specs, deterministically from `seed`.
    pub fn generate(specs: &[TableSpec], seed: u64) -> Self {
        let mut cat = Catalog::new();
        for (i, spec) in specs.iter().enumerate() {
            // Stable per-table seed: changing one table doesn't reshuffle others.
            let mut rng =
                StdRng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut columns = Vec::with_capacity(spec.columns.len());
            let mut data = Vec::with_capacity(spec.columns.len());
            for (name, cspec) in &spec.columns {
                columns.push(ColumnDef {
                    name: name.clone(),
                    ty: cspec.ty(),
                });
                data.push(Arc::new(cspec.generate(spec.rows, &mut rng)));
            }
            cat.insert(Table {
                name: spec.name.clone(),
                columns,
                data,
            });
        }
        cat
    }

    pub fn insert(&mut self, table: Table) {
        let key = table.name.to_ascii_lowercase();
        match self.tables.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = table,
            None => self.tables.push((key, table)),
        }
    }

    /// Case-insensitive lookup; qualified names resolve by their base name
    /// (SDSS queries qualify with `dbo.` or MyDB paths). Allocation-free:
    /// the stored key is already lowercase, so a byte-wise
    /// case-insensitive comparison suffices.
    pub fn get(&self, name: &str) -> Option<&Table> {
        let base = name.rsplit('.').next().unwrap_or(name);
        self.tables
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(base))
            .map(|(_, t)| t)
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|(_, t)| t.name.as_str())
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_specs() -> Vec<TableSpec> {
        vec![TableSpec::new("T", 100)
            .column("id", ColumnSpec::SeqId)
            .column("ra", ColumnSpec::Uniform(0.0, 360.0))
            .column("type", ColumnSpec::Categorical(6))
            .column("flags", ColumnSpec::Bitmask(20))
            .column("name", ColumnSpec::TaggedSeq("obj"))]
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Catalog::generate(&demo_specs(), 42);
        let b = Catalog::generate(&demo_specs(), 42);
        let (ta, tb) = (a.get("t").unwrap(), b.get("T").unwrap());
        assert_eq!(ta.row_count(), 100);
        for c in 0..ta.data.len() {
            for r in 0..100 {
                assert_eq!(ta.data[c].get(r), tb.data[c].get(r));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Catalog::generate(&demo_specs(), 1);
        let b = Catalog::generate(&demo_specs(), 2);
        let (ta, tb) = (a.get("t").unwrap(), b.get("t").unwrap());
        let same = (0..100).all(|r| ta.data[1].get(r) == tb.data[1].get(r));
        assert!(!same);
    }

    #[test]
    fn qualified_lookup_resolves_base_name() {
        let cat = Catalog::generate(&demo_specs(), 7);
        assert!(cat.get("dbo.T").is_some());
        assert!(cat.get("SDSSSQL010.MYDB_1.dbo.T").is_some());
        assert!(cat.get("nosuch").is_none());
    }

    #[test]
    fn uniform_values_in_range() {
        let cat = Catalog::generate(&demo_specs(), 9);
        let t = cat.get("t").unwrap();
        for r in 0..t.row_count() {
            if let Value::Float(ra) = t.data[1].get(r) {
                assert!((0.0..360.0).contains(&ra));
            } else {
                panic!("ra must be float");
            }
        }
    }

    #[test]
    fn categorical_is_skewed_toward_small_codes() {
        let spec = vec![TableSpec::new("c", 5000).column("k", ColumnSpec::Categorical(8))];
        let cat = Catalog::generate(&spec, 3);
        let t = cat.get("c").unwrap();
        let mut counts = [0u32; 8];
        for r in 0..t.row_count() {
            counts[t.data[0].get(r).as_i64().unwrap() as usize] += 1;
        }
        assert!(counts[0] > counts[7], "Zipf skew expected: {counts:?}");
    }
}
