//! Engine edge cases: empty inputs, degenerate limits, NULL keys,
//! ORDER BY on non-projected columns, HAVING over a global aggregate.

use qcc_common::{Column, DataType, Row, Schema, Value};
use qcc_engine::Engine;
use qcc_storage::{Catalog, Table};

fn engine() -> Engine {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("s", DataType::Str),
        ]),
    );
    let rows = [
        (Some(1), Some(10), Some("x")),
        (Some(2), Some(20), Some("y")),
        (Some(3), None, Some("x")),
        (None, Some(40), None),
        (Some(5), Some(50), Some("y")),
    ];
    for (a, b, s) in rows {
        t.insert(Row::new(vec![
            a.map(Value::Int).unwrap_or(Value::Null),
            b.map(Value::Int).unwrap_or(Value::Null),
            s.map(Value::from).unwrap_or(Value::Null),
        ]))
        .unwrap();
    }
    let mut empty = Table::new("empty", Schema::new(vec![Column::new("k", DataType::Int)]));
    let _ = &mut empty;
    let mut c = Catalog::new();
    c.register(t);
    c.register(empty);
    Engine::new(c)
}

#[test]
fn order_by_non_projected_column() {
    let (rows, _) = engine()
        .execute_sql("SELECT s FROM t WHERE a IS NOT NULL ORDER BY b DESC")
        .unwrap();
    // b DESC over non-null a: b = 50, 20, 10, NULL → s = y, y, x, x
    let vals: Vec<Option<&str>> = rows.iter().map(|r| r.get(0).as_str()).collect();
    assert_eq!(vals, vec![Some("y"), Some("y"), Some("x"), Some("x")]);
}

#[test]
fn limit_zero_returns_nothing() {
    let (rows, _) = engine().execute_sql("SELECT * FROM t LIMIT 0").unwrap();
    assert!(rows.is_empty());
}

#[test]
fn limit_larger_than_input() {
    let (rows, _) = engine().execute_sql("SELECT * FROM t LIMIT 999").unwrap();
    assert_eq!(rows.len(), 5);
}

#[test]
fn joins_with_empty_side_are_empty() {
    let (rows, _) = engine()
        .execute_sql("SELECT * FROM t JOIN empty ON t.a = empty.k")
        .unwrap();
    assert!(rows.is_empty());
    let (rows, _) = engine()
        .execute_sql("SELECT * FROM empty JOIN t ON t.a = empty.k")
        .unwrap();
    assert!(rows.is_empty());
}

#[test]
fn scan_of_empty_table() {
    let (rows, work) = engine().execute_sql("SELECT * FROM empty").unwrap();
    assert!(rows.is_empty());
    assert_eq!(work.rows_scanned, 0);
}

#[test]
fn null_group_keys_form_their_own_group() {
    let (rows, _) = engine()
        .execute_sql("SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY s")
        .unwrap();
    // Groups: NULL, 'x', 'y' (NULL sorts first in the total order).
    assert_eq!(rows.len(), 3);
    assert!(rows[0].get(0).is_null());
    assert_eq!(rows[0].get(1), &Value::Int(1));
    assert_eq!(rows[1].get(0), &Value::from("x"));
    assert_eq!(rows[1].get(1), &Value::Int(2));
}

#[test]
fn having_over_global_aggregate() {
    let (rows, _) = engine()
        .execute_sql("SELECT COUNT(*) AS n FROM t HAVING COUNT(*) > 3")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Value::Int(5));
    let (rows, _) = engine()
        .execute_sql("SELECT COUNT(*) AS n FROM t HAVING COUNT(*) > 100")
        .unwrap();
    assert!(
        rows.is_empty(),
        "failed HAVING drops the single global group"
    );
}

#[test]
fn count_ignores_nulls_count_star_does_not() {
    let (rows, _) = engine()
        .execute_sql("SELECT COUNT(*), COUNT(a), COUNT(b), COUNT(s) FROM t")
        .unwrap();
    let vals: Vec<i64> = rows[0]
        .values()
        .iter()
        .map(|v| v.as_i64().unwrap())
        .collect();
    assert_eq!(vals, vec![5, 4, 4, 4]);
}

#[test]
fn distinct_counts_null_once() {
    let (rows, _) = engine()
        .execute_sql("SELECT DISTINCT s FROM t ORDER BY s")
        .unwrap();
    assert_eq!(rows.len(), 3, "NULL, x, y");
}

#[test]
fn arithmetic_on_null_columns_propagates() {
    let (rows, _) = engine()
        .execute_sql("SELECT a + b FROM t ORDER BY a")
        .unwrap();
    // a=NULL row and b=NULL row both produce NULL sums.
    let nulls = rows.iter().filter(|r| r.get(0).is_null()).count();
    assert_eq!(nulls, 2);
}

#[test]
fn self_join_with_aliases() {
    let (rows, _) = engine()
        .execute_sql("SELECT x.a, y.a FROM t x JOIN t y ON x.a = y.b WHERE x.a IS NOT NULL")
        .unwrap();
    // a values {1,2,3,5} vs b values {10,20,40,50}: no matches.
    assert!(rows.is_empty());
}

/// `Int(2^53 + 1)` equals `Float(2^53)` under the total order (the int
/// rounds to that float), so the join key must hash by its `f64` image
/// for the hash join to find the pair the reference evaluator finds.
#[test]
fn int_joins_float_it_rounds_to() {
    let mut ta = Table::new("ta", Schema::new(vec![Column::new("k", DataType::Int)]));
    ta.insert(Row::new(vec![Value::Int((1 << 53) + 1)]))
        .unwrap();
    let mut tb = Table::new("tb", Schema::new(vec![Column::new("f", DataType::Float)]));
    tb.insert(Row::new(vec![Value::Float((1u64 << 53) as f64)]))
        .unwrap();
    let mut c = Catalog::new();
    c.register(ta);
    c.register(tb);
    let e = Engine::new(c);
    let sql = "SELECT ta.k, tb.f FROM ta JOIN tb ON ta.k = tb.f";
    let stmt = qcc_sql::parse_select(sql).unwrap();
    let expected = qcc_engine::naive::evaluate(&stmt, e.catalog()).unwrap();
    assert_eq!(expected.len(), 1);
    for planned in e.explain(sql).unwrap() {
        let (rows, _) = e.execute_plan(&planned.plan).unwrap();
        assert_eq!(rows, expected, "plan {}", planned.plan);
        let (rrows, _) =
            qcc_engine::rowexec::execute_rows(&planned.plan, e.catalog(), e.cost_model()).unwrap();
        assert_eq!(rrows, expected, "row engine, plan {}", planned.plan);
    }
}
