//! Vectorized executor with CPU-work accounting.
//!
//! Operators consume and produce columnar [`Chunk`]s — `Arc`-shared column
//! vectors plus a selection vector — instead of materializing a `Vec<Row>`
//! at every plan node. Scans are zero-copy views of table storage, filters
//! only narrow the selection, and zone maps (per-chunk min/max summaries)
//! skip whole chunks that cannot match a pushed-down predicate.
//!
//! Execution returns the result batches and a [`Work`] record describing
//! how much CPU work was *accounted*, in the same optimizer units the cost
//! model estimates. The remote-server simulation divides work by the
//! server's speed and multiplies by its load slowdown to produce the
//! virtual response time the meta-wrapper observes. The accounting is the
//! virtual-time contract: every `cpu_units` add below replicates the
//! row-at-a-time reference in [`crate::rowexec`] add-for-add, in the same
//! order and at the same granularity (f64 addition is order-sensitive).
//! Most adds are operator-level totals computed from row counts, so chunk
//! pruning changes wall-clock time but never virtual time. The hash join
//! and nested-loop join add `output_row` once per emitted match and the
//! join and index-scan residuals add once per evaluated candidate, exactly
//! where the row engine does; a total written as `n × x` instead would
//! round differently.
//!
//! Join, group-by and DISTINCT share one hash layout, `KeyChains`: key
//! cells fold into a `u64` that picks a chain of entries, and candidates
//! are confirmed cell by cell, so no row allocates.

use crate::cost::CostModel;
use crate::expr::{AggAccumulator, CompiledExpr};
use crate::plan::{AggSpec, IndexPredicate, PlanNode};
use crate::vexpr::{eval_cells, eval_predicate_cells, PairView, RowView};
use qcc_common::{CellRef, ColumnBatch, ColumnSummary, ColumnVector, QccError, Result, Row, Value};
use qcc_sql::BinaryOp;
use qcc_storage::Catalog;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Bound, Deref};
use std::sync::Arc;

/// Pass-through hasher for [`KeyChains`]' map, whose `u64` keys are
/// already mixed by [`finish_key_hash`].
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fold(self.0, u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

const KEY_SEED: u64 = 0x243f_6a88_85a3_08d3;
const NULL_WORD: u64 = 0x7ff4_a11c_e5ee_d00d;

#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Fold one key cell into a key hash. Mirrors `Value`'s `Hash`: cells
/// that are equal under `total_cmp` must hash equally, so every number
/// folds in its `f64` image (`Int(2^53 + 1)` equals `Float(2^53)`).
#[inline]
fn fold_cell(h: u64, c: CellRef<'_>) -> u64 {
    match c {
        CellRef::Null => fold(h, NULL_WORD),
        CellRef::Int(i) => fold(h, (i as f64).to_bits()),
        CellRef::Float(f) => fold(h, f.to_bits()),
        CellRef::Str(s) => {
            let mut h = fold(h, !(s.len() as u64));
            for part in s.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..part.len()].copy_from_slice(part);
                h = fold(h, u64::from_le_bytes(word));
            }
            h
        }
    }
}

/// Final avalanche (murmur3's `fmix64`), so the low bits the map buckets
/// by and the high bits it tags with both depend on every key bit.
#[inline]
fn finish_key_hash(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    #[cfg(test)]
    let h = h & tests::KEY_HASH_MASK.with(std::cell::Cell::get);
    h
}

/// Expression `e` as a column of `ch`, indexed by physical row: the
/// chunk's own vector when `e` is a bare column reference, else `e`
/// evaluated at every selected row (NULL elsewhere).
fn expr_column<'a>(e: &'a CompiledExpr, ch: &'a Chunk) -> Cow<'a, ColumnVector> {
    match e {
        CompiledExpr::Column(i) => Cow::Borrowed(&ch.cols[*i]),
        _ => {
            let mut vals = vec![Value::Null; ch.len];
            for row in ch.selected() {
                let view = RowView {
                    cols: &ch.cols,
                    row,
                };
                vals[row] = eval_cells(e, &view).to_value();
            }
            Cow::Owned(ColumnVector::Mixed(vals))
        }
    }
}

/// The key expressions of `keys` as columns of `ch`.
fn key_columns<'a>(keys: &'a [CompiledExpr], ch: &'a Chunk) -> Vec<Cow<'a, ColumnVector>> {
    keys.iter().map(|k| expr_column(k, ch)).collect()
}

/// True iff row `ar` of key columns `a` equals row `br` of key columns `b`
/// cell by cell under `total_cmp` — the equality `Value`'s `Eq` uses, so
/// NULL equals NULL here (the join drops NULL keys before comparing).
fn rows_eq<A, B>(a: &[A], ar: usize, b: &[B], br: usize) -> bool
where
    A: Deref<Target = ColumnVector>,
    B: Deref<Target = ColumnVector>,
{
    a.iter()
        .zip(b)
        .all(|(x, y)| x.cell(ar).total_cmp(y.cell(br)) == Ordering::Equal)
}

/// Key hashes of one chunk's selected rows, in selection order, folded a
/// key column at a time. Scratch, reused across chunks.
#[derive(Default)]
struct KeyHashes {
    hashes: Vec<u64>,
    /// Whether the row's key has a NULL cell.
    has_null: Vec<bool>,
}

impl KeyHashes {
    fn compute<K: Deref<Target = ColumnVector>>(&mut self, keys: &[K], ch: &Chunk) {
        let n = ch.n_selected();
        self.hashes.clear();
        self.hashes.resize(n, KEY_SEED);
        self.has_null.clear();
        self.has_null.resize(n, false);
        for col in keys {
            let slots = self.hashes.iter_mut().zip(self.has_null.iter_mut());
            for ((h, null), r) in slots.zip(ch.selected()) {
                let c = col.cell(r);
                *null |= c.is_null();
                *h = fold_cell(*h, c);
            }
        }
        for h in &mut self.hashes {
            *h = finish_key_hash(*h);
        }
    }
}

/// Sentinel ending a chain.
const CHAIN_END: u32 = u32::MAX;

/// The hash layout shared by the hash join, the group-by and DISTINCT.
///
/// Entries are numbered `0, 1, …` in insertion order; the caller keeps
/// each entry's payload (a build row, a group) in a parallel vector. A
/// key hash maps to the head and tail of a chain of entries linked
/// through `next`, in insertion order. Keys whose hashes coincide share a
/// chain, so every candidate is confirmed cell by cell. Nothing is
/// allocated per row. The hash is unkeyed: keys are table data inside
/// the simulation, so resistance to crafted collisions is not a goal.
#[derive(Default)]
struct KeyChains {
    ends: HashMap<u64, (u32, u32), BuildHasherDefault<PreHashed>>,
    next: Vec<u32>,
}

impl KeyChains {
    fn with_capacity(n: usize) -> Self {
        KeyChains {
            ends: HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            next: Vec::with_capacity(n),
        }
    }

    /// Append the next entry to the tail of `hash`'s chain.
    fn push(&mut self, hash: u64) {
        let e = self.next.len() as u32;
        self.next.push(CHAIN_END);
        match self.ends.entry(hash) {
            Entry::Occupied(mut o) => {
                let (_, tail) = o.get_mut();
                self.next[*tail as usize] = e;
                *tail = e;
            }
            Entry::Vacant(v) => {
                v.insert((e, e));
            }
        }
    }

    /// The entries of `hash`'s chain, oldest first.
    fn chain(&self, hash: u64) -> Chain<'_> {
        Chain {
            next: &self.next,
            at: self.ends.get(&hash).map_or(CHAIN_END, |&(head, _)| head),
        }
    }
}

struct Chain<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.at == CHAIN_END {
            return None;
        }
        let e = self.at as usize;
        self.at = self.next[e];
        Some(e)
    }
}

/// Actual work performed by an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// CPU work in optimizer units.
    pub cpu_units: f64,
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Rows produced at the plan root.
    pub rows_output: u64,
    /// Approximate bytes of the produced result (for transfer costing).
    pub result_bytes: u64,
}

impl Work {
    /// Merge another work record into this one.
    pub fn absorb(&mut self, other: Work) {
        self.cpu_units += other.cpu_units;
        self.rows_scanned += other.rows_scanned;
        // rows_output / result_bytes describe the root and are set last.
    }
}

/// Which rows of a chunk are live.
enum Sel {
    /// Every physical row.
    All,
    /// The listed physical rows, in order.
    Ids(Vec<u32>),
}

/// A unit of columnar data flowing between operators: shared column
/// vectors of `len` physical rows, narrowed by a selection.
struct Chunk {
    cols: Vec<Arc<ColumnVector>>,
    len: usize,
    sel: Sel,
}

enum SelIter<'a> {
    All(std::ops::Range<usize>),
    Ids(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(r) => r.next(),
            SelIter::Ids(it) => it.next().map(|&i| i as usize),
        }
    }
}

impl Chunk {
    fn n_selected(&self) -> usize {
        match &self.sel {
            Sel::All => self.len,
            Sel::Ids(v) => v.len(),
        }
    }

    fn selected(&self) -> SelIter<'_> {
        match &self.sel {
            Sel::All => SelIter::All(0..self.len),
            Sel::Ids(v) => SelIter::Ids(v.iter()),
        }
    }
}

fn total_selected(chunks: &[Chunk]) -> usize {
    chunks.iter().map(Chunk::n_selected).sum()
}

/// Execute a plan against a catalog, returning columnar batches.
pub fn execute_batches(
    plan: &PlanNode,
    catalog: &Catalog,
    m: &CostModel,
) -> Result<(Vec<ColumnBatch>, Work)> {
    let mut work = Work {
        cpu_units: m.startup,
        ..Work::default()
    };
    let chunks = exec_node(plan, catalog, m, &mut work)?;
    let mut batches = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let n = chunk.n_selected();
        if n == 0 {
            continue;
        }
        match chunk.sel {
            Sel::All => batches.push(ColumnBatch::new(chunk.cols, chunk.len)),
            Sel::Ids(ids) => {
                let cols: Vec<Arc<ColumnVector>> = chunk
                    .cols
                    .iter()
                    .map(|c| {
                        let picks = ids.iter().map(|&i| (0, i as usize));
                        Arc::new(ColumnVector::gather(&[&**c], picks))
                    })
                    .collect();
                batches.push(ColumnBatch::new(cols, n));
            }
        }
    }
    work.rows_output = batches.iter().map(|b| b.n_rows() as u64).sum();
    work.result_bytes = batches.iter().map(ColumnBatch::byte_size).sum();
    Ok((batches, work))
}

/// Execute a plan against a catalog, materializing rows (the `Row`
/// compatibility boundary for row-oriented callers).
pub fn execute(plan: &PlanNode, catalog: &Catalog, m: &CostModel) -> Result<(Vec<Row>, Work)> {
    let (batches, work) = execute_batches(plan, catalog, m)?;
    let mut rows = Vec::with_capacity(work.rows_output as usize);
    for b in &batches {
        rows.extend(b.to_rows());
    }
    Ok((rows, work))
}

fn exec_node(
    plan: &PlanNode,
    catalog: &Catalog,
    m: &CostModel,
    work: &mut Work,
) -> Result<Vec<Chunk>> {
    match plan {
        PlanNode::SeqScan {
            table, predicate, ..
        } => {
            let entry = catalog.entry(table)?;
            let total = entry.table.row_count();
            work.rows_scanned += total as u64;
            work.cpu_units += total as f64 * m.scan_row;
            let mut out: Vec<Chunk> = Vec::new();
            match predicate {
                None => {
                    for ch in entry.table.chunks() {
                        if ch.is_empty() {
                            continue;
                        }
                        out.push(Chunk {
                            cols: ch.columns().to_vec(),
                            len: ch.len(),
                            sel: Sel::All,
                        });
                    }
                }
                Some(p) => {
                    work.cpu_units += total as f64 * p.node_count() as f64 * m.pred_node;
                    let fast = simple_cmp(p);
                    for ch in entry.table.chunks() {
                        if ch.is_empty() {
                            continue;
                        }
                        match zone_verdict(p, ch.summaries()) {
                            Verdict::SkipAll => {}
                            Verdict::KeepAll => out.push(Chunk {
                                cols: ch.columns().to_vec(),
                                len: ch.len(),
                                sel: Sel::All,
                            }),
                            Verdict::Eval => {
                                let ids: Vec<u32> = match fast {
                                    Some((op, i, lit)) => {
                                        let col = &ch.columns()[i];
                                        let lit = CellRef::of(lit);
                                        (0..ch.len())
                                            .filter(|&r| cmp_keep(op, col.cell(r), lit))
                                            .map(|r| r as u32)
                                            .collect()
                                    }
                                    None => {
                                        let cols = ch.columns();
                                        (0..ch.len())
                                            .filter(|&r| {
                                                eval_predicate_cells(p, &RowView { cols, row: r })
                                            })
                                            .map(|r| r as u32)
                                            .collect()
                                    }
                                };
                                if !ids.is_empty() {
                                    out.push(Chunk {
                                        cols: ch.columns().to_vec(),
                                        len: ch.len(),
                                        sel: Sel::Ids(ids),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            let kept = total_selected(&out);
            work.cpu_units += kept as f64 * m.output_row;
            Ok(out)
        }
        PlanNode::IndexScan {
            table,
            column,
            pred,
            residual,
            ..
        } => {
            let entry = catalog.entry(table)?;
            let index = entry
                .indexes
                .iter()
                .find(|i| i.column_name().eq_ignore_ascii_case(column))
                .ok_or_else(|| {
                    QccError::Execution(format!("index on {table}.{column} disappeared"))
                })?;
            work.cpu_units += m.index_probe;
            let positions: Vec<u32> = match pred {
                IndexPredicate::Eq(v) => index.lookup_eq(v).to_vec(),
                IndexPredicate::Range { lo, hi } => {
                    let lo_b = match lo {
                        Some((v, true)) => Bound::Included(v),
                        Some((v, false)) => Bound::Excluded(v),
                        None => Bound::Unbounded,
                    };
                    let hi_b = match hi {
                        Some((v, true)) => Bound::Included(v),
                        Some((v, false)) => Bound::Excluded(v),
                        None => Bound::Unbounded,
                    };
                    index.lookup_range(lo_b, hi_b)
                }
            };
            work.rows_scanned += positions.len() as u64;
            work.cpu_units += positions.len() as f64 * m.index_match_row;
            let chunks = entry.table.chunks();
            let mut picks: Vec<(u32, u32)> = Vec::with_capacity(positions.len());
            for pos in positions {
                let (ci, pi) = entry.table.locate(pos as usize).ok_or_else(|| {
                    QccError::Execution(format!("index position {pos} out of range"))
                })?;
                if let Some(p) = residual {
                    work.cpu_units += p.node_count() as f64 * m.pred_node;
                    let view = RowView {
                        cols: chunks[ci].columns(),
                        row: pi,
                    };
                    if !eval_predicate_cells(p, &view) {
                        continue;
                    }
                }
                picks.push((ci as u32, pi as u32));
            }
            work.cpu_units += picks.len() as f64 * m.output_row;
            let Some(&(c0, _)) = picks.first() else {
                return Ok(Vec::new());
            };
            let arity = chunks[c0 as usize].columns().len();
            let cols = (0..arity)
                .map(|j| gather_column(chunks.iter().map(|ch| &*ch.columns()[j]), &picks))
                .collect();
            Ok(vec![Chunk {
                cols,
                len: picks.len(),
                sel: Sel::All,
            }])
        }
        PlanNode::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let build = exec_node(left, catalog, m, work)?;
            let probe = exec_node(right, catalog, m, work)?;
            work.cpu_units += total_selected(&build) as f64 * m.hash_build_row;
            work.cpu_units += total_selected(&probe) as f64 * m.hash_probe_row;
            // Build: chain every build row with no NULL key cell; entry `e`
            // is build row `rows[e]`, so each chain lists its rows in
            // build order.
            let n_build = total_selected(&build);
            let mut chains = KeyChains::with_capacity(n_build);
            let mut rows: Vec<(u32, u32)> = Vec::with_capacity(n_build);
            let mut hashed = KeyHashes::default();
            let build_keys: Vec<_> = build.iter().map(|ch| key_columns(left_keys, ch)).collect();
            for (ci, ch) in build.iter().enumerate() {
                hashed.compute(&build_keys[ci], ch);
                for (slot, pi) in ch.selected().enumerate() {
                    if hashed.has_null[slot] {
                        continue; // NULL keys never join.
                    }
                    chains.push(hashed.hashes[slot]);
                    rows.push((ci as u32, pi as u32));
                }
            }
            // Probe in probe order; within a key, matches come out in
            // build order.
            let mut lpicks: Vec<(u32, u32)> = Vec::new();
            let mut rpicks: Vec<(u32, u32)> = Vec::new();
            for (ci, ch) in probe.iter().enumerate() {
                let probe_keys = key_columns(right_keys, ch);
                hashed.compute(&probe_keys, ch);
                for (slot, pi) in ch.selected().enumerate() {
                    if hashed.has_null[slot] {
                        continue;
                    }
                    for e in chains.chain(hashed.hashes[slot]) {
                        let (bci, bpi) = (rows[e].0 as usize, rows[e].1 as usize);
                        if !rows_eq(&build_keys[bci], bpi, &probe_keys, pi) {
                            continue;
                        }
                        if let Some(p) = residual {
                            work.cpu_units += p.node_count() as f64 * m.pred_node;
                            let pair = PairView {
                                left: &build[bci].cols,
                                lrow: bpi,
                                right: &ch.cols,
                                rrow: pi,
                            };
                            if !eval_predicate_cells(p, &pair) {
                                continue;
                            }
                        }
                        work.cpu_units += m.output_row;
                        lpicks.push(rows[e]);
                        rpicks.push((ci as u32, pi as u32));
                    }
                }
            }
            Ok(join_output(&build, &lpicks, &probe, &rpicks))
        }
        PlanNode::NestedLoopJoin {
            left,
            right,
            predicate,
            ..
        } => {
            let outer = exec_node(left, catalog, m, work)?;
            let inner = exec_node(right, catalog, m, work)?;
            let pairs = total_selected(&outer) as f64 * total_selected(&inner) as f64;
            work.cpu_units += pairs
                * (m.hash_probe_row
                    + predicate
                        .as_ref()
                        .map_or(0.0, |p| p.node_count() as f64 * m.pred_node));
            let mut lpicks: Vec<(u32, u32)> = Vec::new();
            let mut rpicks: Vec<(u32, u32)> = Vec::new();
            for (oci, och) in outer.iter().enumerate() {
                for opi in och.selected() {
                    for (ici, ich) in inner.iter().enumerate() {
                        for ipi in ich.selected() {
                            let keep = predicate.as_ref().is_none_or(|p| {
                                let pair = PairView {
                                    left: &och.cols,
                                    lrow: opi,
                                    right: &ich.cols,
                                    rrow: ipi,
                                };
                                eval_predicate_cells(p, &pair)
                            });
                            if keep {
                                work.cpu_units += m.output_row;
                                lpicks.push((oci as u32, opi as u32));
                                rpicks.push((ici as u32, ipi as u32));
                            }
                        }
                    }
                }
            }
            Ok(join_output(&outer, &lpicks, &inner, &rpicks))
        }
        PlanNode::Filter {
            input, predicate, ..
        } => {
            let chunks = exec_node(input, catalog, m, work)?;
            let total = total_selected(&chunks);
            work.cpu_units += total as f64 * predicate.node_count() as f64 * m.pred_node;
            let mut out = Vec::with_capacity(chunks.len());
            for ch in chunks {
                let ids: Vec<u32> = ch
                    .selected()
                    .filter(|&r| {
                        eval_predicate_cells(
                            predicate,
                            &RowView {
                                cols: &ch.cols,
                                row: r,
                            },
                        )
                    })
                    .map(|r| r as u32)
                    .collect();
                if !ids.is_empty() {
                    out.push(Chunk {
                        cols: ch.cols,
                        len: ch.len,
                        sel: Sel::Ids(ids),
                    });
                }
            }
            Ok(out)
        }
        PlanNode::Project {
            input,
            exprs,
            schema,
        } => {
            let chunks = exec_node(input, catalog, m, work)?;
            let nodes: usize = exprs.iter().map(CompiledExpr::node_count).sum();
            let total = total_selected(&chunks);
            work.cpu_units += total as f64 * nodes as f64 * m.pred_node;
            let mut out = Vec::with_capacity(chunks.len());
            for ch in &chunks {
                let k = ch.n_selected();
                if k == 0 {
                    continue;
                }
                let mut builders: Vec<ColumnVector> = (0..exprs.len())
                    .map(|j| ColumnVector::new_for(schema.columns().get(j).map(|c| c.ty)))
                    .collect();
                for r in ch.selected() {
                    let view = RowView {
                        cols: &ch.cols,
                        row: r,
                    };
                    for (j, e) in exprs.iter().enumerate() {
                        builders[j].push_cell(eval_cells(e, &view));
                    }
                }
                out.push(Chunk {
                    cols: builders.into_iter().map(Arc::new).collect(),
                    len: k,
                    sel: Sel::All,
                });
            }
            Ok(out)
        }
        PlanNode::HashAggregate {
            input,
            group_by,
            aggs,
            schema,
            ..
        } => {
            let chunks = exec_node(input, catalog, m, work)?;
            let total = total_selected(&chunks);
            work.cpu_units += total as f64 * (1 + aggs.len()) as f64 * m.agg_row;
            exec_aggregate(&chunks, group_by, aggs, schema, m, work)
        }
        PlanNode::Sort { input, keys } => {
            let chunks = exec_node(input, catalog, m, work)?;
            let picks: Vec<(u32, u32)> = chunks
                .iter()
                .enumerate()
                .flat_map(|(ci, ch)| ch.selected().map(move |pi| (ci as u32, pi as u32)))
                .collect();
            let n = picks.len().max(2) as f64;
            work.cpu_units += m.sort_row_log * n * n.log2();
            if picks.is_empty() {
                return Ok(Vec::new());
            }
            // Each sort key as a column per chunk (no copy for a bare
            // column reference), then a stable sort of the picks. The
            // comparator is identical to the row engine's, and both sorts
            // are stable, so the permutation matches row-at-a-time
            // execution exactly.
            let keycols: Vec<Vec<Cow<'_, ColumnVector>>> = chunks
                .iter()
                .map(|ch| keys.iter().map(|(k, _)| expr_column(k, ch)).collect())
                .collect();
            let mut permuted = picks;
            permuted.sort_by(|&(ca, ra), &(cb, rb)| {
                let (a, b) = (&keycols[ca as usize], &keycols[cb as usize]);
                for (j, (_, desc)) in keys.iter().enumerate() {
                    let ord = a[j].cell(ra as usize).total_cmp(b[j].cell(rb as usize));
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            let cols = gather_columns(&chunks, &permuted);
            Ok(vec![Chunk {
                cols,
                len: permuted.len(),
                sel: Sel::All,
            }])
        }
        PlanNode::Limit { input, n } => {
            let chunks = exec_node(input, catalog, m, work)?;
            let mut remaining = *n as usize;
            let mut out = Vec::new();
            for ch in chunks {
                if remaining == 0 {
                    break;
                }
                let k = ch.n_selected();
                if k <= remaining {
                    remaining -= k;
                    out.push(ch);
                } else {
                    let ids: Vec<u32> = ch.selected().take(remaining).map(|r| r as u32).collect();
                    out.push(Chunk {
                        cols: ch.cols,
                        len: ch.len,
                        sel: Sel::Ids(ids),
                    });
                    remaining = 0;
                }
            }
            Ok(out)
        }
        PlanNode::Distinct { input, .. } => {
            let chunks = exec_node(input, catalog, m, work)?;
            let total = total_selected(&chunks);
            work.cpu_units += total as f64 * m.hash_build_row;
            // Order-preserving: first occurrence wins. Entry `e` is the
            // first occurrence `firsts[e]` of a distinct row.
            let mut chains = KeyChains::default();
            let mut firsts: Vec<(usize, usize)> = Vec::new();
            let mut hashed = KeyHashes::default();
            let mut kept: Vec<Vec<u32>> = Vec::with_capacity(chunks.len());
            for (ci, ch) in chunks.iter().enumerate() {
                hashed.compute(&ch.cols, ch);
                let mut ids: Vec<u32> = Vec::new();
                for (slot, r) in ch.selected().enumerate() {
                    let h = hashed.hashes[slot];
                    let seen = chains.chain(h).any(|e| {
                        let (fc, fr) = firsts[e];
                        rows_eq(&chunks[fc].cols, fr, &ch.cols, r)
                    });
                    if !seen {
                        chains.push(h);
                        firsts.push((ci, r));
                        ids.push(r as u32);
                    }
                }
                kept.push(ids);
            }
            let mut out = Vec::with_capacity(chunks.len());
            for (ch, ids) in chunks.into_iter().zip(kept) {
                if !ids.is_empty() {
                    out.push(Chunk {
                        cols: ch.cols,
                        len: ch.len,
                        sel: Sel::Ids(ids),
                    });
                }
            }
            Ok(out)
        }
    }
}

/// Gather picked `(chunk, row)` cells of one column into a fresh vector,
/// preserving pick order. `sources` yields that column of every chunk.
fn gather_column<'a>(
    sources: impl Iterator<Item = &'a ColumnVector>,
    picks: &[(u32, u32)],
) -> Arc<ColumnVector> {
    let sources: Vec<&ColumnVector> = sources.collect();
    let picks = picks.iter().map(|&(c, r)| (c as usize, r as usize));
    Arc::new(ColumnVector::gather(&sources, picks))
}

/// Gather picked rows of `chunks` into fresh columns, one per source
/// column, preserving pick order.
fn gather_columns(chunks: &[Chunk], picks: &[(u32, u32)]) -> Vec<Arc<ColumnVector>> {
    let Some(&(c0, _)) = picks.first() else {
        return Vec::new();
    };
    let arity = chunks[c0 as usize].cols.len();
    (0..arity)
        .map(|j| gather_column(chunks.iter().map(|ch| &*ch.cols[j]), picks))
        .collect()
}

/// Materialize a join result: left-side columns then right-side columns.
fn join_output(
    left: &[Chunk],
    lpicks: &[(u32, u32)],
    right: &[Chunk],
    rpicks: &[(u32, u32)],
) -> Vec<Chunk> {
    if lpicks.is_empty() {
        return Vec::new();
    }
    let mut cols = gather_columns(left, lpicks);
    cols.extend(gather_columns(right, rpicks));
    vec![Chunk {
        cols,
        len: lpicks.len(),
        sel: Sel::All,
    }]
}

/// What a chunk's zone map says about a pushed-down predicate.
enum Verdict {
    /// Must evaluate row by row.
    Eval,
    /// No row can satisfy the predicate.
    SkipAll,
    /// Every row definitely satisfies the predicate.
    KeepAll,
}

/// Decide whether a chunk can be skipped or kept wholesale from its
/// per-column min/max summaries. Sound for WHERE semantics (`NULL`
/// rejects): `SkipAll` requires every row's predicate truth to be false or
/// unknown, `KeepAll` requires definite truth for every row (hence zero
/// nulls in the tested column).
fn zone_verdict(p: &CompiledExpr, sums: &[ColumnSummary]) -> Verdict {
    match p {
        CompiledExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => match (zone_verdict(left, sums), zone_verdict(right, sums)) {
            (Verdict::SkipAll, _) | (_, Verdict::SkipAll) => Verdict::SkipAll,
            (Verdict::KeepAll, Verdict::KeepAll) => Verdict::KeepAll,
            _ => Verdict::Eval,
        },
        CompiledExpr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => match (zone_verdict(left, sums), zone_verdict(right, sums)) {
            (Verdict::KeepAll, _) | (_, Verdict::KeepAll) => Verdict::KeepAll,
            (Verdict::SkipAll, Verdict::SkipAll) => Verdict::SkipAll,
            _ => Verdict::Eval,
        },
        _ => match simple_cmp(p) {
            Some((op, i, lit)) => cmp_zone(op, &sums[i], lit),
            None => Verdict::Eval,
        },
    }
}

fn cmp_zone(op: BinaryOp, s: &ColumnSummary, lit: &Value) -> Verdict {
    if lit.is_null() {
        // Comparison with NULL is unknown for every row; WHERE rejects.
        return Verdict::SkipAll;
    }
    let (Some(min), Some(max)) = (&s.min, &s.max) else {
        // All cells are NULL (or the chunk is empty): nothing matches.
        return Verdict::SkipAll;
    };
    let no_nulls = s.null_count == 0;
    // min/max are extremes under the same total order `sql_cmp` uses for
    // non-null values, so range reasoning below is sound for any mix of
    // types (including NaN, which the total order places deterministically).
    let lo = min.total_cmp(lit);
    let hi = max.total_cmp(lit);
    use Ordering::*;
    match op {
        BinaryOp::Eq => {
            if hi == Less || lo == Greater {
                Verdict::SkipAll
            } else if lo == Equal && hi == Equal && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::NotEq => {
            if lo == Equal && hi == Equal {
                Verdict::SkipAll
            } else if (hi == Less || lo == Greater) && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::Lt => {
            if lo != Less {
                Verdict::SkipAll
            } else if hi == Less && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::LtEq => {
            if lo == Greater {
                Verdict::SkipAll
            } else if hi != Greater && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::Gt => {
            if hi != Greater {
                Verdict::SkipAll
            } else if lo == Greater && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::GtEq => {
            if hi == Less {
                Verdict::SkipAll
            } else if lo != Less && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        _ => Verdict::Eval,
    }
}

/// Recognize `column <cmp> literal` (either operand order), the shape that
/// gets both a zone-map verdict and a tight evaluation loop.
fn simple_cmp(p: &CompiledExpr) -> Option<(BinaryOp, usize, &Value)> {
    let CompiledExpr::Binary { op, left, right } = p else {
        return None;
    };
    use BinaryOp::*;
    if !matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) {
        return None;
    }
    match (&**left, &**right) {
        (CompiledExpr::Column(i), CompiledExpr::Literal(v)) => Some((*op, *i, v)),
        (CompiledExpr::Literal(v), CompiledExpr::Column(i)) => Some((flip(*op), *i, v)),
        _ => None,
    }
}

fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// WHERE-keep decision for `cell <cmp> lit`, identical to evaluating the
/// comparison through the expression tree (unknown rejects).
fn cmp_keep(op: BinaryOp, c: CellRef<'_>, lit: CellRef<'_>) -> bool {
    match c.sql_cmp(lit) {
        None => false,
        Some(ord) => match op {
            BinaryOp::Eq => ord == Ordering::Equal,
            BinaryOp::NotEq => ord != Ordering::Equal,
            BinaryOp::Lt => ord == Ordering::Less,
            BinaryOp::LtEq => ord != Ordering::Greater,
            BinaryOp::Gt => ord == Ordering::Greater,
            BinaryOp::GtEq => ord != Ordering::Less,
            _ => false,
        },
    }
}

fn exec_aggregate(
    chunks: &[Chunk],
    group_by: &[CompiledExpr],
    aggs: &[AggSpec],
    schema: &qcc_common::Schema,
    m: &CostModel,
    work: &mut Work,
) -> Result<Vec<Chunk>> {
    let make_accs = || -> Vec<AggAccumulator> {
        aggs.iter()
            .map(|a| AggAccumulator::new(a.func, a.distinct))
            .collect()
    };
    let arity = group_by.len() + aggs.len();
    let mut builders: Vec<ColumnVector> = (0..arity)
        .map(|j| ColumnVector::new_for(schema.columns().get(j).map(|c| c.ty)))
        .collect();

    if group_by.is_empty() {
        // Global aggregation always yields exactly one row.
        let mut accs = make_accs();
        for ch in chunks {
            let args = arg_columns(aggs, ch);
            for r in ch.selected() {
                feed(&mut accs, &args, r);
            }
        }
        work.cpu_units += m.output_row;
        for (b, acc) in builders.iter_mut().zip(&accs) {
            b.push(acc.finish());
        }
        return Ok(vec![Chunk {
            cols: builders.into_iter().map(Arc::new).collect(),
            len: 1,
            sel: Sel::All,
        }]);
    }

    // Groups are numbered in first-seen order: group `g` is chain entry
    // `g`, first seen at row `firsts[g]` (chunk, row), which both the
    // equality check and the output key values read; its accumulators
    // are `group_accs[g]`.
    let key_cols: Vec<_> = chunks.iter().map(|ch| key_columns(group_by, ch)).collect();
    let mut chains = KeyChains::default();
    let mut firsts: Vec<(usize, usize)> = Vec::new();
    let mut group_accs: Vec<Vec<AggAccumulator>> = Vec::new();
    let mut hashed = KeyHashes::default();
    for (ci, ch) in chunks.iter().enumerate() {
        let args = arg_columns(aggs, ch);
        hashed.compute(&key_cols[ci], ch);
        for (slot, r) in ch.selected().enumerate() {
            let h = hashed.hashes[slot];
            let found = chains.chain(h).find(|&g| {
                let (fc, fr) = firsts[g];
                rows_eq(&key_cols[fc], fr, &key_cols[ci], r)
            });
            let gi = match found {
                Some(g) => g,
                None => {
                    chains.push(h);
                    firsts.push((ci, r));
                    group_accs.push(make_accs());
                    group_accs.len() - 1
                }
            };
            feed(&mut group_accs[gi], &args, r);
        }
    }
    let n = group_accs.len();
    work.cpu_units += n as f64 * m.output_row;
    if n == 0 {
        return Ok(Vec::new());
    }
    for &(c, r) in &firsts {
        for (b, col) in builders.iter_mut().zip(&key_cols[c]) {
            b.push(col.value(r));
        }
    }
    let width = group_by.len();
    for accs in &group_accs {
        for (j, acc) in accs.iter().enumerate() {
            builders[width + j].push(acc.finish());
        }
    }
    Ok(vec![Chunk {
        cols: builders.into_iter().map(Arc::new).collect(),
        len: n,
        sel: Sel::All,
    }])
}

/// Each aggregate's argument as a column of `ch` (`None` for `COUNT(*)`).
fn arg_columns<'a>(aggs: &'a [AggSpec], ch: &'a Chunk) -> Vec<Option<Cow<'a, ColumnVector>>> {
    aggs.iter()
        .map(|a| a.arg.as_ref().map(|e| expr_column(e, ch)))
        .collect()
}

fn feed(accs: &mut [AggAccumulator], args: &[Option<Cow<'_, ColumnVector>>], row: usize) {
    for (acc, arg) in accs.iter_mut().zip(args) {
        acc.push_cell(arg.as_ref().map(|col| col.cell(row)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use qcc_common::{Column, DataType, Schema};
    use qcc_storage::Table;

    thread_local! {
        /// Bits of every key hash the tables keep (this thread only). A
        /// narrow mask puts unequal keys on one chain.
        pub(super) static KEY_HASH_MASK: std::cell::Cell<u64> =
            const { std::cell::Cell::new(u64::MAX) };
    }

    fn engine() -> Engine {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "sales",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("region", DataType::Str),
                Column::new("amount", DataType::Int),
            ]),
        );
        let regions = ["east", "west", "north"];
        for i in 0..300i64 {
            t.insert(Row::new(vec![
                Value::Int(i),
                Value::from(regions[(i % 3) as usize]),
                Value::Int(i % 10),
            ]))
            .unwrap();
        }
        c.register(t);
        c.create_index("sales", "id").unwrap();
        let mut r = Table::new(
            "regions",
            Schema::new(vec![
                Column::new("name", DataType::Str),
                Column::new("manager", DataType::Str),
            ]),
        );
        for (n, mgr) in [("east", "alice"), ("west", "bob"), ("north", "carol")] {
            r.insert(Row::new(vec![Value::from(n), Value::from(mgr)]))
                .unwrap();
        }
        c.register(r);
        Engine::new(c)
    }

    #[test]
    fn simple_filter_scan() {
        let (rows, work) = engine()
            .execute_sql("SELECT * FROM sales WHERE amount >= 8")
            .unwrap();
        assert_eq!(rows.len(), 60);
        assert_eq!(work.rows_scanned, 300);
        assert!(work.cpu_units > 0.0);
    }

    #[test]
    fn index_scan_reads_fewer_rows() {
        let e = engine();
        let plans = e.explain("SELECT * FROM sales WHERE id = 42").unwrap();
        let idx_plan = plans
            .iter()
            .find(|p| matches!(p.plan, PlanNode::IndexScan { .. }))
            .expect("index plan offered");
        let (rows, work) = e.execute_plan(&idx_plan.plan).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(work.rows_scanned, 1, "index probe touches one row");
    }

    #[test]
    fn hash_join_matches() {
        let (rows, _) = engine()
            .execute_sql(
                "SELECT s.id, r.manager FROM sales s JOIN regions r ON s.region = r.name \
                 WHERE s.amount = 9",
            )
            .unwrap();
        assert_eq!(rows.len(), 30);
        // Every row must carry a manager.
        assert!(rows.iter().all(|r| !r.get(1).is_null()));
    }

    #[test]
    fn aggregation_group_by() {
        let (rows, _) = engine()
            .execute_sql(
                "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales GROUP BY region",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.get(1), &Value::Int(100));
            assert_eq!(r.get(2), &Value::Int(100 / 10 * 45));
        }
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let (rows, _) = engine()
            .execute_sql("SELECT COUNT(*), SUM(amount) FROM sales WHERE amount > 100")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert_eq!(rows[0].get(1), &Value::Null, "SUM of nothing is NULL");
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        let (rows, _) = engine()
            .execute_sql("SELECT region, COUNT(*) FROM sales WHERE amount > 100 GROUP BY region")
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn having_filters_groups() {
        let (rows, _) = engine()
            .execute_sql(
                "SELECT amount, COUNT(*) AS n FROM sales GROUP BY amount HAVING amount >= 5",
            )
            .unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn order_by_and_limit() {
        let (rows, _) = engine()
            .execute_sql("SELECT id FROM sales ORDER BY id DESC LIMIT 3")
            .unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
        assert_eq!(ids, vec![299, 298, 297]);
    }

    #[test]
    fn order_by_on_aggregate_alias() {
        let (rows, _) = engine()
            .execute_sql(
                "SELECT region, SUM(amount) AS t FROM sales GROUP BY region ORDER BY t DESC, region",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        // All sums are equal, so ties break on region ascending.
        assert_eq!(rows[0].get(0), &Value::from("east"));
    }

    #[test]
    fn distinct_dedups_preserving_order() {
        let (rows, _) = engine()
            .execute_sql("SELECT DISTINCT region FROM sales")
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0), &Value::from("east"), "first-seen order");
    }

    #[test]
    fn projection_expressions() {
        let (rows, _) = engine()
            .execute_sql("SELECT id * 2 + 1 AS x FROM sales WHERE id < 3 ORDER BY id")
            .unwrap();
        let xs: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
        assert_eq!(xs, vec![1, 3, 5]);
    }

    #[test]
    fn null_keys_do_not_join() {
        let mut c = Catalog::new();
        let mut a = Table::new("a", Schema::new(vec![Column::new("k", DataType::Int)]));
        a.insert(Row::new(vec![Value::Null])).unwrap();
        a.insert(Row::new(vec![Value::Int(1)])).unwrap();
        c.register(a);
        let mut b = Table::new("b", Schema::new(vec![Column::new("k", DataType::Int)]));
        b.insert(Row::new(vec![Value::Null])).unwrap();
        b.insert(Row::new(vec![Value::Int(1)])).unwrap();
        c.register(b);
        let e = Engine::new(c);
        let (rows, _) = e.execute_sql("SELECT * FROM a, b WHERE a.k = b.k").unwrap();
        assert_eq!(rows.len(), 1, "NULL = NULL must not match");
    }

    #[test]
    fn work_scales_with_data() {
        let e = engine();
        let (_, w1) = e.execute_sql("SELECT * FROM sales WHERE id < 10").unwrap();
        let (_, w2) = e.execute_sql("SELECT * FROM sales").unwrap();
        assert!(w2.cpu_units > w1.cpu_units);
        assert!(w2.result_bytes > w1.result_bytes);
    }

    #[test]
    fn estimated_vs_actual_same_ballpark() {
        // On a query with sane statistics the estimate should be within an
        // order of magnitude of the actual work (no load, no network).
        let e = engine();
        let plans = e.explain("SELECT * FROM sales WHERE amount >= 5").unwrap();
        let best = &plans[0];
        let (_, work) = e.execute_plan(&best.plan).unwrap();
        let est = best.cost.total();
        let actual = work.cpu_units;
        assert!(
            est / actual < 10.0 && actual / est < 10.0,
            "estimate {est} vs actual {actual}"
        );
    }

    /// Every plan the optimizer offers must produce the same rows, in the
    /// same order, with a bit-identical `Work` record through the
    /// vectorized executor as through the row-at-a-time reference.
    #[test]
    fn batches_match_row_reference_bit_exact() {
        let e = engine();
        let queries = [
            "SELECT * FROM sales WHERE amount >= 8",
            "SELECT * FROM sales WHERE id = 42",
            "SELECT * FROM sales WHERE id >= 100 AND id < 110",
            "SELECT s.id, r.manager FROM sales s JOIN regions r ON s.region = r.name",
            "SELECT region, COUNT(*) AS n, SUM(amount) AS t FROM sales GROUP BY region",
            "SELECT COUNT(*), AVG(amount) FROM sales",
            "SELECT DISTINCT region FROM sales ORDER BY region DESC LIMIT 2",
            "SELECT id * 2 + 1 AS x FROM sales WHERE id < 5 ORDER BY x DESC",
        ];
        for sql in queries {
            for planned in e.explain(sql).unwrap() {
                let (brows, bwork) = e.execute_plan(&planned.plan).unwrap();
                let (rrows, rwork) =
                    crate::rowexec::execute_rows(&planned.plan, e.catalog(), e.cost_model())
                        .unwrap();
                assert_eq!(brows, rrows, "rows for {sql}");
                assert_eq!(bwork, rwork, "work for {sql}");
            }
        }
    }

    /// Zone maps over a clustered column prune most chunks without
    /// changing results or accounting.
    #[test]
    fn zone_pruning_is_transparent() {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "seq",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
        );
        for i in 0..5000i64 {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        c.register(t);
        let e = Engine::new(c);
        for sql in [
            "SELECT * FROM seq WHERE id > 4950",
            "SELECT * FROM seq WHERE id >= 0",
            "SELECT * FROM seq WHERE id < 0",
            "SELECT COUNT(*) FROM seq WHERE id BETWEEN 1000 AND 1010 AND v = 3",
        ] {
            for planned in e.explain(sql).unwrap() {
                let (brows, bwork) = e.execute_plan(&planned.plan).unwrap();
                let (rrows, rwork) =
                    crate::rowexec::execute_rows(&planned.plan, e.catalog(), e.cost_model())
                        .unwrap();
                assert_eq!(brows, rrows, "rows for {sql}");
                assert_eq!(bwork, rwork, "work for {sql}");
            }
        }
    }

    /// Cells equal under `total_cmp` hash equally, across Int and Float
    /// and past 2^53, as `Value`'s `Hash` does.
    #[test]
    fn key_hash_agrees_with_total_cmp() {
        let big = 1i64 << 53;
        let cells = [
            CellRef::Null,
            CellRef::Int(0),
            CellRef::Float(0.0),
            CellRef::Float(-0.0),
            CellRef::Int(3),
            CellRef::Float(3.0),
            CellRef::Float(3.5),
            CellRef::Int(big + 1),
            CellRef::Float(big as f64),
            CellRef::Float(f64::NAN),
            CellRef::Str(""),
            CellRef::Str("abcdefghij"),
        ];
        for &a in &cells {
            for &b in &cells {
                if a.total_cmp(b) == Ordering::Equal {
                    let hash = |c| finish_key_hash(fold_cell(KEY_SEED, c));
                    assert_eq!(hash(a), hash(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    /// Tables that cross `BATCH_ROWS`, with NULL, FLOAT-holding-integers
    /// and string keys.
    fn keyed_engine() -> Engine {
        let mut c = Catalog::new();
        let mut ta = Table::new(
            "ta",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("s", DataType::Str),
                Column::new("g", DataType::Int),
            ]),
        );
        for i in 0..2100i64 {
            let null = |v: Value| if i % 11 == 3 { Value::Null } else { v };
            ta.insert(Row::new(vec![
                null(Value::Int(i % 97)),
                null(Value::Float((i % 89) as f64)),
                null(Value::from(["ab", "abcdefghi", "x", ""][(i % 4) as usize])),
                Value::Int(i % 5),
            ]))
            .unwrap();
        }
        c.register(ta);
        let mut tb = Table::new(
            "tb",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("s", DataType::Str),
                Column::new("v", DataType::Int),
            ]),
        );
        for i in 0..1300i64 {
            let k = if i % 13 == 5 {
                Value::Null
            } else {
                Value::Int(i % 101)
            };
            tb.insert(Row::new(vec![
                k,
                Value::from(["x", "ab", "abcdefghi"][(i % 3) as usize]),
                Value::Int(i % 7),
            ]))
            .unwrap();
        }
        c.register(tb);
        Engine::new(c)
    }

    /// With the key hash cut to three bits every chain holds many
    /// unequal keys, so every probe and group lookup depends on the
    /// cell-by-cell confirmation. Rows and `Work` must still match the
    /// row engine bit for bit, and must equal the full-hash run.
    #[test]
    fn truncated_key_hash_matches_row_reference() {
        let e = keyed_engine();
        let queries = [
            "SELECT ta.g, tb.v FROM ta JOIN tb ON ta.k = tb.k",
            "SELECT ta.k, tb.v FROM ta JOIN tb ON ta.f = tb.k",
            "SELECT ta.g, tb.v FROM ta JOIN tb ON ta.s = tb.s WHERE ta.k < 3",
            "SELECT ta.g, tb.v FROM ta JOIN tb ON ta.k = tb.k AND ta.s = tb.s",
            "SELECT ta.g, tb.v FROM ta JOIN tb ON ta.k = tb.k AND ta.g < tb.v",
            "SELECT ta.s, ta.g, COUNT(*), SUM(ta.f), MIN(ta.k) FROM ta GROUP BY ta.s, ta.g",
            "SELECT ta.k, COUNT(*), MAX(tb.v) FROM ta JOIN tb ON ta.s = tb.s GROUP BY ta.k",
            "SELECT ta.g + 1, COUNT(*), SUM(ta.k * 2) FROM ta WHERE ta.k > 40 GROUP BY ta.g + 1",
            "SELECT DISTINCT ta.s, ta.g FROM ta",
            "SELECT DISTINCT ta.f FROM ta",
        ];
        for sql in queries {
            for planned in e.explain(sql).unwrap() {
                let (full_rows, full_work) = e.execute_plan(&planned.plan).unwrap();
                KEY_HASH_MASK.with(|m| m.set(0b111));
                let run = e.execute_plan(&planned.plan);
                KEY_HASH_MASK.with(|m| m.set(u64::MAX));
                let (brows, bwork) = run.unwrap();
                let (rrows, rwork) =
                    crate::rowexec::execute_rows(&planned.plan, e.catalog(), e.cost_model())
                        .unwrap();
                assert!(!rrows.is_empty(), "{sql} should produce rows");
                assert_eq!(brows, rrows, "rows for {sql}");
                assert_eq!(bwork, rwork, "work for {sql}");
                assert_eq!(brows, full_rows, "truncation changed rows for {sql}");
                assert_eq!(bwork, full_work, "truncation changed work for {sql}");
            }
        }
    }
}
