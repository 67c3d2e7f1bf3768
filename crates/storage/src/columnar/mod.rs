//! Columnar base-table storage: typed column vectors, fixed-size row
//! groups, and per-chunk zone maps.
//!
//! A [`ColumnarTable`] stores the same logical relation as a
//! [`crate::table::ProbTable`] — data columns plus one `(variable,
//! probability)` pair per tuple — but laid out **column-major**: each
//! attribute is one dense typed vector ([`ColumnData`]) with a null bitmap,
//! rows are grouped into fixed-size chunks (row groups), and every
//! `(column, chunk)` pair carries a [`ZoneMap`] (min/max under `Value`'s
//! total order, null count). Selective scans evaluate constant predicates
//! against the zone maps first and skip whole chunks whose value range
//! cannot match, then run tight per-column loops over the survivors — the
//! scan shape the lazy plans of the paper spend most of their relational
//! time in.
//!
//! The decode contract is exact: [`ColumnarTable::value`] reproduces the
//! `Value` the row representation stores, variant included (columns whose
//! stored variants are not uniform fall back to [`ColumnData::Mixed`]), so
//! a columnar scan can be — and is, in `pdb-exec` — **bitwise-identical**
//! to the row-at-a-time scan: same values, same lineage, same row order.
//!
//! Ingest ([`ColumnarTable::from_prob_table`]) is chunk-parallel on
//! [`pdb_par::Pool`]: chunks encode their rows into disjoint sub-slices of
//! the pre-sized column vectors and build their zone maps independently;
//! string dictionaries are merged across chunks and re-ranked, so the
//! resulting table is identical at every thread count.

mod column;
mod zone;

pub use column::{ColumnData, NullBitmap};
pub use zone::{
    bloom_key, bloom_key_str, bloom_probe, saturate_bloom, ChunkRepr, ZoneMap, ZoneMapBuilder,
    BLOOM_SATURATION_DISTINCT, BLOOM_WORDS,
};

use std::collections::BTreeSet;
use std::sync::Arc;

use pdb_par::Pool;

use crate::error::{StorageError, StorageResult};
use crate::schema::{DataType, Schema};
use crate::table::ProbTable;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::variable::Variable;

/// Rows per chunk (row group). A multiple of 64 so chunk boundaries are
/// null-bitmap word boundaries and parallel ingest writes disjoint words.
pub const CHUNK_ROWS: usize = 1024;

/// A tuple-independent probabilistic relation stored column-major with
/// per-chunk zone maps.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarTable {
    schema: Schema,
    len: usize,
    chunk_rows: usize,
    /// One [`ColumnData`] per schema column.
    columns: Vec<ColumnData>,
    /// `zones[c][k]` summarises column `c` over chunk `k`.
    zones: Vec<Vec<ZoneMap>>,
    vars: Vec<Variable>,
    probs: Vec<f64>,
}

impl ColumnarTable {
    /// Converts a row-major table, chunk-parallel on `pool`. The result is
    /// identical at every pool size.
    ///
    /// # Errors
    /// Currently infallible for valid `ProbTable`s; the `Result` reserves
    /// room for stricter ingest validation.
    pub fn from_prob_table(table: &ProbTable, pool: &Pool) -> StorageResult<ColumnarTable> {
        Self::from_prob_table_chunked(table, pool, CHUNK_ROWS)
    }

    /// [`ColumnarTable::from_prob_table`] with an explicit chunk size
    /// (tests use small chunks to exercise many-chunk layouts on few rows).
    ///
    /// # Errors
    /// Fails if `chunk_rows` is zero or not a multiple of 64 (chunk
    /// boundaries must be null-bitmap word boundaries).
    pub fn from_prob_table_chunked(
        table: &ProbTable,
        pool: &Pool,
        chunk_rows: usize,
    ) -> StorageResult<ColumnarTable> {
        if chunk_rows == 0 || !chunk_rows.is_multiple_of(64) {
            return Err(StorageError::InvalidChunkSize(chunk_rows));
        }
        let rows = table.len();
        let schema = table.schema().clone();
        let chunks = chunk_ranges(rows, chunk_rows);
        let mut columns = Vec::with_capacity(schema.len());
        let mut zones = Vec::with_capacity(schema.len());
        for (c, col) in schema.columns().iter().enumerate() {
            let cell = |r: usize| table.rows()[r].value(c);
            let (data, zone) = build_column(col.data_type, rows, &chunks, &cell, pool);
            columns.push(data);
            zones.push(zone);
        }
        Ok(ColumnarTable {
            schema,
            len: rows,
            chunk_rows,
            columns,
            zones,
            vars: table.vars().to_vec(),
            probs: table.probs().to_vec(),
        })
    }

    /// The data schema (without the `V`/`P` columns).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.len.div_ceil(self.chunk_rows)
    }

    /// The row range of chunk `k`.
    pub fn chunk_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = k * self.chunk_rows;
        start..(start + self.chunk_rows).min(self.len)
    }

    /// The typed data of column `c`.
    pub fn column(&self, c: usize) -> &ColumnData {
        &self.columns[c]
    }

    /// The zone map of column `c` over chunk `k`.
    pub fn zone(&self, c: usize, k: usize) -> &ZoneMap {
        &self.zones[c][k]
    }

    /// The tuple variables, aligned with row indices.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// The tuple probabilities, aligned with row indices.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Row `r`'s value in column `c`, decoded exactly as the row
    /// representation stores it.
    #[inline]
    pub fn value(&self, r: usize, c: usize) -> Value {
        self.columns[c].value(r)
    }

    /// Number of distinct values in column `name` (NULL counts as one
    /// value), matching the row representation's statistics.
    ///
    /// # Errors
    /// Fails on unknown columns.
    pub fn distinct_count(&self, name: &str) -> StorageResult<usize> {
        let c = self.schema.index_of(name)?;
        Ok(self.columns[c].distinct_count(self.len))
    }

    /// The largest per-chunk distinct-count hint for column `name`: an
    /// upper bound on how many distinct values any single chunk holds.
    /// Planners use it to estimate how many chunks an equality predicate
    /// can skip (a column whose chunks each hold few of the table's
    /// distinct values prunes well).
    ///
    /// # Errors
    /// Fails on unknown columns.
    pub fn max_chunk_distinct(&self, name: &str) -> StorageResult<usize> {
        Ok(self.max_chunk_distinct_at(self.schema.index_of(name)?))
    }

    /// [`max_chunk_distinct`](Self::max_chunk_distinct) of column `c`.
    pub(crate) fn max_chunk_distinct_at(&self, c: usize) -> usize {
        self.zones[c]
            .iter()
            .map(|z| z.distinct as usize)
            .max()
            .unwrap_or(0)
    }

    /// Materialises the row representation (same rows, same variables, same
    /// probabilities, in the same order). Used by the catalog as the
    /// compatibility fallback for consumers that still want
    /// [`ProbTable`]s.
    ///
    /// # Errors
    /// Propagates row validation errors (cannot fail for tables ingested
    /// from a valid `ProbTable`).
    pub fn to_prob_table(&self) -> StorageResult<ProbTable> {
        let mut out = ProbTable::new(self.schema.clone());
        for r in 0..self.len {
            let values: Vec<Value> = (0..self.schema.len()).map(|c| self.value(r, c)).collect();
            out.insert(Tuple::new(values), self.vars[r], self.probs[r])?;
        }
        Ok(out)
    }
}

/// The chunk ranges covering `0..rows` at `chunk_rows` rows per chunk.
fn chunk_ranges(rows: usize, chunk_rows: usize) -> Vec<std::ops::Range<usize>> {
    (0..rows.div_ceil(chunk_rows))
        .map(|k| (k * chunk_rows)..((k + 1) * chunk_rows).min(rows))
        .collect()
}

/// Builds one column: typed storage when every non-null value is the
/// canonical variant of `data_type`, [`ColumnData::Mixed`] otherwise, plus
/// the per-chunk zone maps. Chunk-parallel; identical at every pool size.
fn build_column<'a>(
    data_type: DataType,
    rows: usize,
    chunks: &[std::ops::Range<usize>],
    cell: &(impl Fn(usize) -> &'a Value + Sync),
    pool: &Pool,
) -> (ColumnData, Vec<ZoneMap>) {
    // Pass 1 (parallel): canonical-variant check, and the distinct strings
    // per chunk for dictionary columns.
    let scans: Vec<(bool, BTreeSet<&'a str>)> = pool.map_ranges(chunks, |range| {
        let mut canonical = true;
        let mut strings: BTreeSet<&'a str> = BTreeSet::new();
        for r in range {
            let v = cell(r);
            canonical &= ColumnData::is_canonical(data_type, v);
            if data_type == DataType::Str {
                if let Value::Str(s) = v {
                    strings.insert(s);
                }
            }
        }
        (canonical, strings)
    });
    if !scans.iter().all(|(c, _)| *c) {
        // Mixed storage: keep the original values verbatim.
        let mut values = vec![Value::Null; rows];
        let cuts: Vec<usize> = chunks.iter().map(|c| c.start).collect();
        let zones = pool.map_slices_mut(&mut values, &cuts, |k, slice| {
            let range = chunks[k].clone();
            for (i, r) in range.clone().enumerate() {
                slice[i] = cell(r).clone();
            }
            ZoneMap::build(slice.iter())
        });
        return (ColumnData::Mixed { values }, zones);
    }

    match data_type {
        DataType::Int => build_typed(rows, chunks, pool, 0i64, cell, |v| match v {
            Value::Int(i) => Some(*i),
            _ => None,
        }),
        DataType::Float => build_typed(rows, chunks, pool, 0f64, cell, |v| match v {
            Value::Float(f) => Some(*f),
            _ => None,
        }),
        DataType::Date => build_typed(rows, chunks, pool, 0i32, cell, |v| match v {
            Value::Date(d) => Some(*d),
            _ => None,
        }),
        DataType::Bool => build_typed(rows, chunks, pool, false, cell, |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }),
        DataType::Str => build_str(rows, chunks, pool, cell, scans),
    }
}

/// A native element type of a typed column: maps back to the canonical
/// `Value` variant (for zone-map bounds) and wraps a filled vector into its
/// [`ColumnData`] variant.
trait Native: Copy + Send + Sync {
    fn to_value(self) -> Value;
    fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData;
}
impl Native for i64 {
    fn to_value(self) -> Value {
        Value::Int(self)
    }
    fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData {
        ColumnData::Int { values, nulls }
    }
}
impl Native for f64 {
    fn to_value(self) -> Value {
        Value::Float(self)
    }
    fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData {
        ColumnData::Float { values, nulls }
    }
}
impl Native for i32 {
    fn to_value(self) -> Value {
        Value::Date(self)
    }
    fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData {
        ColumnData::Date { values, nulls }
    }
}
impl Native for bool {
    fn to_value(self) -> Value {
        Value::Bool(self)
    }
    fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData {
        ColumnData::Bool { values, nulls }
    }
}

/// Chunk-parallel fill of one typed column vector + null bitmap + zone maps.
fn build_typed<'a, T: Native>(
    rows: usize,
    chunks: &[std::ops::Range<usize>],
    pool: &Pool,
    zero: T,
    cell: &(impl Fn(usize) -> &'a Value + Sync),
    extract: impl Fn(&Value) -> Option<T> + Sync,
) -> (ColumnData, Vec<ZoneMap>) {
    let mut values = vec![zero; rows];
    let mut nulls = NullBitmap::new(rows);
    let value_cuts: Vec<usize> = chunks.iter().map(|c| c.start).collect();
    // Chunk sizes are multiples of 64, so chunk k owns bitmap words
    // [start / 64, end / 64) exclusively.
    let word_cuts: Vec<usize> = chunks.iter().map(|c| c.start / 64).collect();
    let zones = pool.map_slices2_mut(
        &mut values,
        &value_cuts,
        nulls.words_mut(),
        &word_cuts,
        |k, vseg, wseg| {
            let range = chunks[k].clone();
            // The builder computes bounds under Value's total order (NaN
            // greatest, -0.0 == 0.0 — exactly what Value::cmp yields on the
            // canonical variants), plus the bloom filter and distinct hint.
            let mut stats = zone::ZoneMapBuilder::new();
            for (i, r) in range.clone().enumerate() {
                match extract(cell(r)) {
                    Some(v) => {
                        vseg[i] = v;
                        stats.push(&v.to_value());
                    }
                    None => {
                        wseg[i / 64] |= 1 << (i % 64);
                        stats.push_null();
                    }
                }
            }
            stats.finish()
        },
    );
    (T::into_column(values, nulls), zones)
}

/// Chunk-parallel build of an order-preserving dictionary column: the
/// per-chunk distinct-string sets from pass 1 are merged and ranked, then
/// every chunk encodes its codes against the canonical dictionary.
fn build_str<'a>(
    rows: usize,
    chunks: &[std::ops::Range<usize>],
    pool: &Pool,
    cell: &(impl Fn(usize) -> &'a Value + Sync),
    scans: Vec<(bool, BTreeSet<&'a str>)>,
) -> (ColumnData, Vec<ZoneMap>) {
    // Merge: the union of the per-chunk sets, already sorted — ranks are
    // independent of chunking, so the dictionary is identical at every
    // thread count.
    let mut merged: BTreeSet<&'a str> = BTreeSet::new();
    for (_, set) in &scans {
        merged.extend(set.iter().copied());
    }
    let ordered: Vec<&'a str> = merged.into_iter().collect();
    let dict: Vec<Arc<str>> = ordered.iter().map(|s| Arc::from(*s)).collect();

    let mut codes = vec![0u32; rows];
    let mut nulls = NullBitmap::new(rows);
    let code_cuts: Vec<usize> = chunks.iter().map(|c| c.start).collect();
    let word_cuts: Vec<usize> = chunks.iter().map(|c| c.start / 64).collect();
    let zones = pool.map_slices2_mut(
        &mut codes,
        &code_cuts,
        nulls.words_mut(),
        &word_cuts,
        |k, cseg, wseg| {
            let range = chunks[k].clone();
            let mut min_code: Option<u32> = None;
            let mut max_code: Option<u32> = None;
            let mut null_count = 0usize;
            let mut seen_codes: Vec<u32> = Vec::new();
            for (i, r) in range.clone().enumerate() {
                match cell(r) {
                    Value::Str(s) => {
                        let code = ordered
                            .binary_search(&s.as_ref())
                            .expect("every string was collected in pass 1")
                            as u32;
                        cseg[i] = code;
                        seen_codes.push(code);
                        if min_code.is_none_or(|m| code < m) {
                            min_code = Some(code);
                        }
                        if max_code.is_none_or(|m| code > m) {
                            max_code = Some(code);
                        }
                    }
                    _ => {
                        wseg[i / 64] |= 1 << (i % 64);
                        null_count += 1;
                    }
                }
            }
            // Bloom + distinct over the chunk's distinct codes: each
            // distinct string is hashed exactly once. The distinct hint
            // counts distinct hash keys, matching ZoneMapBuilder.
            seen_codes.sort_unstable();
            seen_codes.dedup();
            let mut keys: Vec<u64> = seen_codes
                .iter()
                .map(|&c| zone::bloom_key_str(&dict[c as usize]))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut bloom = [0u64; zone::BLOOM_WORDS];
            for &key in &keys {
                zone::bloom_insert(&mut bloom, key);
            }
            let repr = if seen_codes.is_empty() {
                ChunkRepr::Hetero
            } else {
                ChunkRepr::Str
            };
            let distinct = keys.len() as u32;
            ZoneMap {
                min: min_code.map(|c| Value::Str(dict[c as usize].clone())),
                max: max_code.map(|c| Value::Str(dict[c as usize].clone())),
                null_count,
                rows: range.len(),
                bloom: zone::saturate_bloom(bloom, distinct),
                distinct,
                repr,
            }
        },
    );
    (ColumnData::Str { dict, codes, nulls }, zones)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::variable::Variable;

    fn mixed_table(rows: usize) -> ProbTable {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("name", DataType::Str),
            ("price", DataType::Float),
            ("d", DataType::Date),
        ])
        .unwrap();
        let names = ["Joe", "Li", "Mo", "Ann"];
        let mut t = ProbTable::new(schema);
        for r in 0..rows {
            let name = if r % 7 == 3 {
                Value::Null
            } else {
                Value::str(names[r % names.len()])
            };
            let price = if r % 5 == 0 {
                Value::Null
            } else {
                Value::Float((r % 13) as f64 / 4.0)
            };
            t.insert(
                Tuple::new(vec![
                    Value::Int(r as i64),
                    name,
                    price,
                    Value::Date((r % 31) as i32),
                ]),
                Variable(r as u64),
                0.25 + (r % 3) as f64 / 8.0,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn ingest_round_trips_every_value() {
        let table = mixed_table(300);
        for threads in [1, 2, 4, 8] {
            let col =
                ColumnarTable::from_prob_table_chunked(&table, &Pool::new(threads), 64).unwrap();
            assert_eq!(col.len(), 300);
            assert_eq!(col.num_chunks(), 300usize.div_ceil(64));
            for r in 0..300 {
                for c in 0..4 {
                    assert_eq!(
                        col.value(r, c),
                        *table.rows()[r].value(c),
                        "row {r} col {c} at {threads} threads"
                    );
                }
            }
            assert_eq!(col.vars(), table.vars());
            assert_eq!(col.probs(), table.probs());
        }
    }

    #[test]
    fn ingest_is_identical_at_every_thread_count() {
        let table = mixed_table(500);
        let reference =
            ColumnarTable::from_prob_table_chunked(&table, &Pool::sequential(), 128).unwrap();
        for threads in [2, 4, 8] {
            let col =
                ColumnarTable::from_prob_table_chunked(&table, &Pool::new(threads), 128).unwrap();
            assert_eq!(col, reference, "{threads} threads");
        }
    }

    #[test]
    fn zone_maps_bound_each_chunk() {
        let table = mixed_table(200);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::sequential(), 64).unwrap();
        // Column 0 is the ascending row index: chunk k spans [64k, 64(k+1)).
        let z = col.zone(0, 1);
        assert_eq!(z.min, Some(Value::Int(64)));
        assert_eq!(z.max, Some(Value::Int(127)));
        assert_eq!(z.null_count, 0);
        // The nullable float column records its null count.
        let z = col.zone(2, 0);
        assert_eq!(z.null_count, (0..64).filter(|r| r % 5 == 0).count());
        assert_eq!(z.rows, 64);
    }

    #[test]
    fn string_dictionary_is_sorted_and_codes_are_ranks() {
        let table = mixed_table(100);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(4), 64).unwrap();
        let ColumnData::Str { dict, codes, nulls } = col.column(1) else {
            panic!("name column should be dictionary-encoded");
        };
        assert!(dict.windows(2).all(|w| w[0] < w[1]), "dictionary sorted");
        for r in 0..100 {
            if !nulls.is_null(r) {
                assert_eq!(
                    Value::Str(dict[codes[r] as usize].clone()),
                    *table.rows()[r].value(1)
                );
            }
        }
    }

    #[test]
    fn non_canonical_variants_fall_back_to_mixed() {
        // Ints stored in a FLOAT column are legal; decoding must reproduce
        // Value::Int, so the column cannot be stored as Vec<f64>.
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let mut t = ProbTable::new(schema);
        t.insert(tuple![1.5f64], Variable(0), 0.5).unwrap();
        t.insert(Tuple::new(vec![Value::Int(2)]), Variable(1), 0.5)
            .unwrap();
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        assert!(matches!(col.column(0), ColumnData::Mixed { .. }));
        assert_eq!(col.value(0, 0), Value::Float(1.5));
        assert_eq!(col.value(1, 0), Value::Int(2));
        // Zone bounds still follow Value's total order.
        assert_eq!(col.zone(0, 0).min, Some(Value::Float(1.5)));
        assert_eq!(col.zone(0, 0).max, Some(Value::Int(2)));
    }

    #[test]
    fn to_prob_table_round_trips() {
        let table = mixed_table(150);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(2), 64).unwrap();
        let back = col.to_prob_table().unwrap();
        assert_eq!(&back, &table);
    }

    #[test]
    fn distinct_counts_match_the_row_representation() {
        let table = mixed_table(200);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(4), 64).unwrap();
        for name in ["k", "name", "price", "d"] {
            let row_count = table.data().distinct_values(name).unwrap().len();
            assert_eq!(
                col.distinct_count(name).unwrap(),
                row_count,
                "column {name}"
            );
        }
        assert!(col.distinct_count("missing").is_err());

        // NaN payloads fold to one value, -0.0 onto 0.0, and NULL counts
        // once, on both backings: typed Float/Int/Bool columns and a Mixed
        // column (integers stored in a FLOAT column).
        let schema = Schema::from_pairs(&[
            ("f", DataType::Float),
            ("i", DataType::Int),
            ("b", DataType::Bool),
            ("m", DataType::Float),
        ])
        .unwrap();
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        let floats = [f64::NAN, -0.0, 0.0, other_nan, 1.5, -f64::NAN];
        let mut table = ProbTable::new(schema);
        for r in 0..150usize {
            let null = r % 11 == 4;
            let pick = |v: Value| if null { Value::Null } else { v };
            let mixed = match r % 4 {
                0 => Value::Int(0),
                1 => Value::Float(-0.0),
                2 => Value::Float(f64::NAN),
                _ => Value::Int(2),
            };
            table
                .insert(
                    Tuple::new(vec![
                        pick(Value::Float(floats[r % floats.len()])),
                        pick(Value::Int((r % 3) as i64)),
                        pick(Value::Bool(r % 2 == 0)),
                        pick(mixed),
                    ]),
                    Variable(r as u64),
                    0.5,
                )
                .unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(2), 64).unwrap();
        assert!(matches!(col.column(3), ColumnData::Mixed { .. }));
        // {NaN, 0.0, 1.5, NULL}, {0, 1, 2, NULL}, {false, true, NULL},
        // {0, NaN, 2, NULL}.
        for (name, expected) in [("f", 4), ("i", 4), ("b", 3), ("m", 4)] {
            let oracle = table.data().distinct_values(name).unwrap().len();
            assert_eq!(oracle, expected, "column {name}");
            assert_eq!(table.data().distinct_count(name).unwrap(), expected);
            assert_eq!(col.distinct_count(name).unwrap(), expected, "column {name}");
        }
    }

    #[test]
    fn chunk_bloom_and_distinct_hints_cover_every_representation() {
        let table = mixed_table(200);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(4), 64).unwrap();
        for c in 0..4 {
            for k in 0..col.num_chunks() {
                let z = col.zone(c, k);
                // No false negatives: every stored value probes positive.
                for r in col.chunk_range(k) {
                    let v = col.value(r, c);
                    if !v.is_null() {
                        assert!(z.may_contain(&v), "col {c} chunk {k} row {r}");
                    }
                }
                assert!(z.distinct as usize <= z.rows - z.null_count);
            }
        }
        // The name column holds 4 distinct strings; chunks cannot exceed it.
        assert!(col.max_chunk_distinct("name").unwrap() <= 4);
        // The ascending int column is unique: chunks hold chunk_rows values.
        assert_eq!(col.max_chunk_distinct("k").unwrap(), 64);
        assert!(col.max_chunk_distinct("missing").is_err());
    }

    #[test]
    fn chunk_repr_tags_follow_the_stored_variants() {
        let table = mixed_table(100);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::sequential(), 64).unwrap();
        assert_eq!(col.zone(0, 0).repr, ChunkRepr::Int);
        assert_eq!(col.zone(1, 0).repr, ChunkRepr::Str);
        assert_eq!(col.zone(2, 0).repr, ChunkRepr::Float);
        assert_eq!(col.zone(3, 0).repr, ChunkRepr::Date);
        // A Mixed column with a uniformly-Float chunk gets tagged Float.
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..65 {
            let v = if r == 64 {
                Value::Int(7)
            } else {
                Value::Float(r as f64)
            };
            t.insert(Tuple::new(vec![v]), Variable(r as u64), 0.5)
                .unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        assert!(matches!(col.column(0), ColumnData::Mixed { .. }));
        assert_eq!(col.zone(0, 0).repr, ChunkRepr::Float);
        assert_eq!(col.zone(0, 1).repr, ChunkRepr::Int);
    }

    #[test]
    fn invalid_chunk_sizes_are_rejected() {
        let table = mixed_table(10);
        for bad in [0, 63, 100] {
            assert!(matches!(
                ColumnarTable::from_prob_table_chunked(&table, &Pool::sequential(), bad),
                Err(StorageError::InvalidChunkSize(_))
            ));
        }
    }

    #[test]
    fn empty_table_ingests() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let t = ProbTable::new(schema);
        let col = ColumnarTable::from_prob_table(&t, &Pool::new(4)).unwrap();
        assert!(col.is_empty());
        assert_eq!(col.num_chunks(), 0);
        assert_eq!(col.to_prob_table().unwrap().len(), 0);
    }
}
