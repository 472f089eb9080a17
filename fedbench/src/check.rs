//! Answer checking and the virtual digest.
//!
//! Every completed query's rows are compared, as a multiset, with a
//! reference computed once per distinct SQL by single-site
//! `Engine::execute_sql` over a fault-free server's catalog (the engine
//! the repository property-tests against `naive::evaluate`). Integers
//! and strings compare exactly; floats compare within
//! [`FLOAT_REL_TOL`], because federated aggregates merge partial sums in
//! another order than a single site does.

use qcc_common::{Row, Value};
use qcc_engine::Engine;
use std::collections::BTreeMap;

/// Relative tolerance for float cells (absolute below magnitude 1).
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// Rows sorted into a canonical multiset order.
pub fn canonical(rows: &[Row]) -> Vec<Row> {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| a.values().cmp(b.values()));
    sorted
}

fn cells_match(got: &Value, want: &Value) -> bool {
    let float = |v: &Value| match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    };
    match (got, want) {
        (Value::Float(_), _) | (_, Value::Float(_)) => match (float(got), float(want)) {
            (Some(a), Some(b)) => (a - b).abs() <= FLOAT_REL_TOL * a.abs().max(b.abs()).max(1.0),
            _ => false,
        },
        _ => got == want,
    }
}

/// Do two canonical row multisets agree (floats within tolerance)?
pub fn rows_match(got: &[Row], want: &[Row]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len()
                && g.values()
                    .iter()
                    .zip(w.values())
                    .all(|(a, b)| cells_match(a, b))
        })
}

/// Reference answers, canonical, keyed by SQL text.
#[derive(Debug, Default)]
pub struct Reference {
    answers: BTreeMap<String, Result<Vec<Row>, String>>,
}

impl Reference {
    /// Compute the reference for every SQL in `sqls` not yet known.
    pub fn extend<'a>(&mut self, engine: &Engine, sqls: impl IntoIterator<Item = &'a str>) {
        for sql in sqls {
            if !self.answers.contains_key(sql) {
                let answer = engine
                    .execute_sql(sql)
                    .map(|(rows, _)| canonical(&rows))
                    .map_err(|e| e.to_string());
                self.answers.insert(sql.to_string(), answer);
            }
        }
    }

    /// Number of distinct statements with a reference.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when no reference has been computed.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Does `canonical_rows` answer `sql` correctly? A statement whose
    /// reference failed to compute counts as wrong.
    pub fn accepts(&self, sql: &str, canonical_rows: &[Row]) -> bool {
        matches!(self.answers.get(sql), Some(Ok(want)) if rows_match(canonical_rows, want))
    }
}

/// FNV-1a, 64-bit: a stable digest over bytes (no hasher seeding).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix in a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Mix in canonical rows bit-exactly (floats by their bits).
    pub fn rows(&mut self, rows: &[Row]) {
        self.u64(rows.len() as u64);
        for row in rows {
            self.u64(row.len() as u64);
            for v in row.values() {
                match v {
                    Value::Null => self.u64(0),
                    Value::Int(i) => {
                        self.u64(1);
                        self.u64(*i as u64);
                    }
                    Value::Float(f) => {
                        self.u64(2);
                        self.u64(f.to_bits());
                    }
                    Value::Str(s) => {
                        self.u64(3);
                        self.str(s);
                    }
                }
            }
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn floats_match_within_tolerance_only() {
        let a = vec![row(vec![Value::Int(1), Value::Float(10.0)])];
        let b = vec![row(vec![Value::Int(1), Value::Float(10.0 + 1e-12)])];
        let c = vec![row(vec![Value::Int(1), Value::Float(10.001)])];
        let d = vec![row(vec![Value::Int(2), Value::Float(10.0)])];
        assert!(rows_match(&a, &b));
        assert!(!rows_match(&a, &c));
        assert!(!rows_match(&a, &d));
        assert!(!rows_match(&a, &[]));
    }

    #[test]
    fn digest_sees_float_bits() {
        let mut x = Digest::default();
        x.rows(&[row(vec![Value::Float(1.0)])]);
        let mut y = Digest::default();
        y.rows(&[row(vec![Value::Float(1.0 + f64::EPSILON)])]);
        assert_ne!(x.finish(), y.finish());
    }
}
