//! The catalog's per-table planner statistics on probabilistic TPC-H.
//!
//! Statistics are computed once per registered backing and then read from
//! the catalog. These tests pin that the cached values equal a fresh
//! per-column recount, and that the greedy join order — the only consumer —
//! is the same whether the statistics were cold or already cached.

use std::sync::Arc;

use pdb_storage::{Catalog, StorageBacking};
use pdb_tpch::{
    fig10_queries, fig12_query_c, fig12_query_d, fig9_queries, probabilistic_catalog,
    probabilistic_catalog_columnar, TpchData, TpchScale,
};
use sprout_plan::join_order::greedy_join_order;

/// The row and the columnar catalog of the same data at `scale_factor`.
fn catalog_pair(scale_factor: f64) -> [(&'static str, Catalog); 2] {
    let data = TpchData::generate(TpchScale::new(scale_factor));
    [
        ("row", probabilistic_catalog(&data, 7).unwrap()),
        (
            "columnar",
            probabilistic_catalog_columnar(&data, 7).unwrap(),
        ),
    ]
}

/// A catalog over the same backings (shared, not copied) whose statistics
/// have not been computed yet.
fn cold_copy(catalog: &Catalog) -> Catalog {
    let cold = Catalog::new();
    for name in catalog.table_names() {
        cold.register_backing(name.clone(), catalog.backing(&name).unwrap())
            .unwrap();
    }
    cold
}

#[test]
fn cached_stats_equal_a_fresh_recount_on_every_tpch_table() {
    let catalogs = catalog_pair(0.01);
    let [(_, row), (_, columnar)] = &catalogs;
    for (label, catalog) in &catalogs {
        for name in catalog.table_names() {
            let stats = catalog.stats(&name).unwrap();
            let backing = catalog.backing(&name).unwrap();
            let view = catalog.table(&name).unwrap();
            assert_eq!(stats.cardinality, backing.len(), "{label} {name}");
            let columns = backing.schema().names();
            assert_eq!(stats.columns.len(), columns.len(), "{label} {name}");
            for (cached, column) in stats.columns.iter().zip(columns) {
                assert_eq!(cached.name, column, "{label} {name}");
                assert_eq!(
                    cached.distinct,
                    backing.distinct_count(column).unwrap(),
                    "{label} {name}.{column}"
                );
                // The value-set oracle over the row view agrees too.
                assert_eq!(
                    cached.distinct,
                    view.data().distinct_values(column).unwrap().len(),
                    "{label} {name}.{column}"
                );
                let chunk = match &backing {
                    StorageBacking::Row(_) => None,
                    StorageBacking::Columnar(t) => Some(t.max_chunk_distinct(column).unwrap()),
                };
                assert_eq!(cached.chunk_distinct, chunk, "{label} {name}.{column}");
            }
            // Later calls serve the cached value.
            assert!(Arc::ptr_eq(&stats, &catalog.stats(&name).unwrap()));
        }
    }
    // Both backings agree on every count.
    for name in row.table_names() {
        let (r, c) = (row.stats(&name).unwrap(), columnar.stats(&name).unwrap());
        assert_eq!(r.cardinality, c.cardinality, "{name}");
        for (a, b) in r.columns.iter().zip(&c.columns) {
            assert_eq!((&a.name, a.distinct), (&b.name, b.distinct), "{name}");
        }
    }
}

#[test]
fn greedy_join_order_is_the_same_on_cold_and_warm_catalogs() {
    let queries: Vec<_> = fig9_queries()
        .into_iter()
        .chain(fig10_queries())
        .filter_map(|q| q.query.map(|cq| (q.id, cq)))
        .chain([
            ("C".to_string(), fig12_query_c()),
            ("D".to_string(), fig12_query_d()),
        ])
        .collect();
    assert_eq!(queries.len(), 28);
    // Each query plans on its own cold catalog, so this runs at a smaller
    // scale than the recount test above.
    for (label, warm) in &catalog_pair(0.002) {
        // Warm every table once.
        for name in warm.table_names() {
            warm.stats(&name).unwrap();
        }
        for (id, query) in &queries {
            let cold = cold_copy(warm);
            let cold_order = greedy_join_order(query, &cold).unwrap();
            let warm_order = greedy_join_order(query, warm).unwrap();
            assert_eq!(cold_order, warm_order, "{label} query {id}");
            // And the cold catalog now serves what it computed.
            assert_eq!(greedy_join_order(query, &cold).unwrap(), cold_order);
        }
    }
}
