//! Planner statistics of a registered table: cardinality plus per-column
//! distinct counts and (columnar backings only) the largest per-chunk
//! distinct-count hint.
//!
//! A host engine's optimizer reads its column statistics from the catalog
//! rather than scanning base tables for every plan. The [`Catalog`] keeps
//! one [`TableStats`] per registered backing, computed by one full pass on
//! first use and shared afterwards (see [`Catalog::stats`]).
//!
//! [`Catalog`]: crate::Catalog
//! [`Catalog::stats`]: crate::Catalog::stats

use crate::catalog::StorageBacking;

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    /// The column name.
    pub name: String,
    /// Number of distinct values, NULL counted as one value.
    pub distinct: usize,
    /// Largest per-chunk distinct-count hint from the columnar zone
    /// statistics; `None` for row-backed tables. A column whose chunks each
    /// hold few distinct values clusters well: an `Eq`/`In` probe touches
    /// roughly `chunk_distinct / distinct` of its chunks after zone pruning.
    pub chunk_distinct: Option<usize>,
}

/// Statistics of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    /// Number of tuples.
    pub cardinality: usize,
    /// One entry per column, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Computes the statistics of `backing` by one pass over every column.
    pub fn compute(backing: &StorageBacking) -> TableStats {
        let columns = backing
            .schema()
            .names()
            .into_iter()
            .enumerate()
            .map(|(c, name)| ColumnStats {
                name: name.to_string(),
                distinct: match backing {
                    StorageBacking::Row(t) => t.data().distinct_count_at(c),
                    StorageBacking::Columnar(t) => t.column(c).distinct_count(t.len()),
                },
                chunk_distinct: match backing {
                    StorageBacking::Row(_) => None,
                    StorageBacking::Columnar(t) => Some(t.max_chunk_distinct_at(c)),
                },
            })
            .collect();
        TableStats {
            cardinality: backing.len(),
            columns,
        }
    }

    fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Distinct values in column `name`, if the table has it.
    pub fn distinct(&self, name: &str) -> Option<usize> {
        self.column(name).map(|c| c.distinct)
    }

    /// The largest per-chunk distinct-count hint of column `name`, if the
    /// table has it and is columnar.
    pub fn chunk_distinct(&self, name: &str) -> Option<usize> {
        self.column(name).and_then(|c| c.chunk_distinct)
    }
}

/// Number of distinct keys: sorts and deduplicates in place. `Ord` decides
/// equality, so the count matches a `BTreeSet` of the same keys.
pub(crate) fn count_distinct<K: Ord>(mut keys: Vec<K>) -> usize {
    keys.sort_unstable();
    keys.dedup_by(|a, b| Ord::cmp(&*a, &*b).is_eq());
    keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::table::ProbTable;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use crate::variable::Variable;
    use crate::ColumnarTable;

    #[test]
    fn count_distinct_follows_the_key_order() {
        assert_eq!(count_distinct(Vec::<i64>::new()), 0);
        assert_eq!(count_distinct(vec![3, 1, 3, 2, 1]), 3);
        // `Value`'s order equates Int(2) with Float(2.0) and -0.0 with 0.0.
        let values = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Null,
        ];
        assert_eq!(count_distinct(values.iter().collect()), 3);
    }

    #[test]
    fn stats_follow_the_schema_on_both_backings() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..100usize {
            let s = if r % 9 == 0 {
                Value::Null
            } else {
                Value::str(["a", "b"][r % 2])
            };
            t.insert(
                Tuple::new(vec![Value::Int((r % 10) as i64), s]),
                Variable(r as u64),
                0.5,
            )
            .unwrap();
        }
        let columnar =
            ColumnarTable::from_prob_table_chunked(&t, &pdb_par::Pool::sequential(), 64).unwrap();
        let row = TableStats::compute(&StorageBacking::Row(std::sync::Arc::new(t)));
        let col = TableStats::compute(&StorageBacking::Columnar(std::sync::Arc::new(columnar)));
        for stats in [&row, &col] {
            assert_eq!(stats.cardinality, 100);
            let names: Vec<&str> = stats.columns.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["k", "s"]);
            assert_eq!(stats.distinct("k"), Some(10));
            assert_eq!(stats.distinct("s"), Some(3)); // {a, b, NULL}
            assert_eq!(stats.distinct("missing"), None);
        }
        assert_eq!(row.chunk_distinct("k"), None);
        assert_eq!(col.chunk_distinct("k"), Some(10));
        assert_eq!(col.chunk_distinct("missing"), None);
    }
}
