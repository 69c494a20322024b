//! Element-wise bulk arithmetic over BATs (MonetDB's `batcalc` module),
//! plus the selection-vector-aware **fused filter+aggregate kernels** used
//! by shared multi-query execution.
//!
//! Arithmetic is used by projection expressions (`SELECT a * b + 1 …`).
//! NULLs propagate: if either operand is NULL the result is NULL. Integer
//! division by zero yields NULL (matching MonetDB's permissive bulk
//! semantics) rather than aborting a whole vectorised batch.
//!
//! The fused kernels ([`fused_grouped_states`], [`fused_global_state`])
//! consume a raw stream column together with the `Candidates` produced by a
//! selection and accumulate aggregate partials directly — no filtered-chunk
//! materialization and no per-row `Value` boxing. When the candidate set is
//! a dense range the inner loops run over one contiguous slice, which LLVM
//! autovectorizes.

use datacell_storage::{Bat, DataType, Value, Vector};

use crate::aggregate::{AggKind, AggState, FusedAcc};
use crate::candidates::Candidates;
use crate::error::{AlgebraError, Result};
use crate::group::GroupMap;

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Mod,
}

impl ArithOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }

    fn apply_int(self, a: i64, b: i64) -> Option<i64> {
        match self {
            ArithOp::Add => Some(a.wrapping_add(b)),
            ArithOp::Sub => Some(a.wrapping_sub(b)),
            ArithOp::Mul => Some(a.wrapping_mul(b)),
            ArithOp::Div => {
                if b == 0 {
                    None
                } else {
                    Some(a.wrapping_div(b))
                }
            }
            ArithOp::Mod => {
                if b == 0 {
                    None
                } else {
                    Some(a.wrapping_rem(b))
                }
            }
        }
    }

    fn apply_float(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Mod => a % b,
        }
    }
}

/// Result type of `left op right`, mirroring [`DataType::arith_result`].
pub fn result_type(op: ArithOp, left: DataType, right: DataType) -> Result<DataType> {
    left.arith_result(right).ok_or(AlgebraError::TypeCombination {
        op: op.sql(),
        left,
        right,
    })
}

enum Operand<'a> {
    Col(&'a Bat),
    Const(&'a Value),
}

impl Operand<'_> {
    fn ty(&self, op: ArithOp) -> Result<DataType> {
        match self {
            Operand::Col(b) => Ok(b.data_type()),
            Operand::Const(v) => v.data_type().ok_or(AlgebraError::UnsupportedType {
                op: op.sql(),
                ty: DataType::Bool, // NULL constant: folded by the caller
            }),
        }
    }

    fn len_or(&self, other_len: usize) -> usize {
        match self {
            Operand::Col(b) => b.len(),
            Operand::Const(_) => other_len,
        }
    }

    fn is_null_at(&self, i: usize) -> bool {
        match self {
            Operand::Col(b) => b.is_null_at(i),
            Operand::Const(v) => v.is_null(),
        }
    }

    fn int_at(&self, i: usize) -> i64 {
        match self {
            Operand::Col(b) => b.data().as_ints().map(|s| s[i]).unwrap_or_else(|| {
                b.data().as_floats().map(|s| s[i] as i64).unwrap_or(0)
            }),
            Operand::Const(v) => v.as_int().unwrap_or(0),
        }
    }

    fn float_at(&self, i: usize) -> f64 {
        match self {
            Operand::Col(b) => b
                .data()
                .as_floats()
                .map(|s| s[i])
                .or_else(|| b.data().as_ints().map(|s| s[i] as f64))
                .unwrap_or(0.0),
            Operand::Const(v) => v.as_float().unwrap_or(0.0),
        }
    }
}

fn arith(op: ArithOp, left: Operand<'_>, right: Operand<'_>) -> Result<Bat> {
    let lt = left.ty(op)?;
    let rt = right.ty(op)?;
    let out_ty = result_type(op, lt, rt)?;
    let len = match (&left, &right) {
        (Operand::Col(a), Operand::Col(b)) => {
            if a.len() != b.len() {
                return Err(AlgebraError::LengthMismatch { left: a.len(), right: b.len() });
            }
            a.len()
        }
        _ => left.len_or(right.len_or(0)),
    };

    let mut validity: Option<Vec<bool>> = None;
    let mark_null = |validity: &mut Option<Vec<bool>>, i: usize| {
        validity.get_or_insert_with(|| vec![true; len])[i] = false;
    };

    let data = match out_ty {
        DataType::Int | DataType::Timestamp => {
            let mut out = vec![0i64; len];
            for (i, slot) in out.iter_mut().enumerate() {
                if left.is_null_at(i) || right.is_null_at(i) {
                    mark_null(&mut validity, i);
                    continue;
                }
                match op.apply_int(left.int_at(i), right.int_at(i)) {
                    Some(v) => *slot = v,
                    None => mark_null(&mut validity, i),
                }
            }
            if out_ty == DataType::Timestamp {
                Vector::Timestamp(out.into())
            } else {
                Vector::Int(out.into())
            }
        }
        DataType::Float => {
            let mut out = vec![0.0f64; len];
            for (i, slot) in out.iter_mut().enumerate() {
                if left.is_null_at(i) || right.is_null_at(i) {
                    mark_null(&mut validity, i);
                    continue;
                }
                *slot = op.apply_float(left.float_at(i), right.float_at(i));
            }
            Vector::Float(out.into())
        }
        other => {
            return Err(AlgebraError::UnsupportedType { op: op.sql(), ty: other });
        }
    };
    // lint:allow(panic-freedom): validity was built against data.len() in every arm above
    Ok(Bat::from_parts(data, 0, validity).expect("validity sized to len"))
}

/// `left op right` over two aligned columns.
pub fn arith_cols(op: ArithOp, left: &Bat, right: &Bat) -> Result<Bat> {
    arith(op, Operand::Col(left), Operand::Col(right))
}

/// `left op constant`.
pub fn arith_const(op: ArithOp, left: &Bat, constant: &Value) -> Result<Bat> {
    if constant.is_null() {
        // NULL constant: whole result is NULL of the left type.
        let validity = vec![false; left.len()];
        let data = Vector::with_capacity(left.data_type(), 0);
        let mut filled = data;
        for _ in 0..left.len() {
            filled.push(&Value::Null)?;
        }
        return Ok(Bat::from_parts(filled, 0, Some(validity))?);
    }
    arith(op, Operand::Col(left), Operand::Const(constant))
}

/// `constant op right`.
pub fn arith_const_left(op: ArithOp, constant: &Value, right: &Bat) -> Result<Bat> {
    if constant.is_null() {
        return arith_const(op, right, constant);
    }
    arith(op, Operand::Const(constant), Operand::Col(right))
}

/// Unary negation.
pub fn negate(bat: &Bat) -> Result<Bat> {
    arith_const_left(ArithOp::Sub, &Value::Int(0), bat)
}

/// Cast a whole column to `target` using [`Value::coerce`] semantics.
pub fn cast(bat: &Bat, target: DataType) -> Result<Bat> {
    if bat.data_type() == target {
        return Ok(bat.clone());
    }
    let mut out = Bat::new(target);
    for i in 0..bat.len() {
        let v = bat.get_at(i);
        let coerced = v.coerce(target).ok_or(AlgebraError::UnsupportedType {
            op: "cast",
            ty: bat.data_type(),
        })?;
        out.push(&coerced)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Fused filter+aggregate kernels
// ---------------------------------------------------------------------

/// When `positions` is one contiguous ascending run, its first position.
/// Candidate lists are strictly ascending by invariant, so checking the
/// span length against the element count suffices.
fn contiguous_start(positions: &[usize]) -> Option<usize> {
    let first = *positions.first()?;
    let last = *positions.last()?;
    if last.checked_sub(first)? + 1 == positions.len() {
        Some(first)
    } else {
        None
    }
}

/// How min/max ordinals of `bat` should be wrapped back into `Value`s.
fn ord_type(bat: &Bat) -> DataType {
    if bat.data_type() == DataType::Timestamp {
        DataType::Timestamp
    } else {
        DataType::Int
    }
}

fn count_states(kind: AggKind, rows: Vec<u64>) -> Vec<AggState> {
    rows.into_iter()
        .map(|r| AggState::from_fused(kind, FusedAcc::counted(r), DataType::Int))
        .collect()
}

/// Per-group sum of an `i64` slice steered by group ids, in scan order.
fn grouped_int_sums(ints: &[i64], positions: &[usize], ids: &[u32], ng: usize) -> Option<Vec<i64>> {
    let mut sums = vec![0i64; ng];
    match contiguous_start(positions) {
        Some(start) => {
            let vals = ints.get(start..start + positions.len())?;
            for (i, &x) in vals.iter().enumerate() {
                let g = *ids.get(i)? as usize;
                let s = sums.get_mut(g)?;
                *s = s.wrapping_add(x);
            }
        }
        None => {
            for (i, &p) in positions.iter().enumerate() {
                let g = *ids.get(i)? as usize;
                let s = sums.get_mut(g)?;
                *s = s.wrapping_add(*ints.get(p)?);
            }
        }
    }
    Some(sums)
}

/// Per-group sum of an `f64` slice steered by group ids, in scan order —
/// the same order the scalar per-row path folds in, so results are
/// bit-identical.
fn grouped_float_sums(
    floats: &[f64],
    positions: &[usize],
    ids: &[u32],
    ng: usize,
) -> Option<Vec<f64>> {
    let mut sums = vec![0.0f64; ng];
    match contiguous_start(positions) {
        Some(start) => {
            let vals = floats.get(start..start + positions.len())?;
            for (i, &x) in vals.iter().enumerate() {
                *sums.get_mut(*ids.get(i)? as usize)? += x;
            }
        }
        None => {
            for (i, &p) in positions.iter().enumerate() {
                *sums.get_mut(*ids.get(i)? as usize)? += *floats.get(p)?;
            }
        }
    }
    Some(sums)
}

fn grouped_int_extrema(
    kind: AggKind,
    ints: &[i64],
    positions: &[usize],
    ids: &[u32],
    ng: usize,
) -> Option<Vec<Option<i64>>> {
    let mut best: Vec<Option<i64>> = vec![None; ng];
    for (i, &p) in positions.iter().enumerate() {
        let x = *ints.get(p)?;
        let slot = best.get_mut(*ids.get(i)? as usize)?;
        *slot = Some(match *slot {
            None => x,
            Some(cur) if kind == AggKind::Min => cur.min(x),
            Some(cur) => cur.max(x),
        });
    }
    Some(best)
}

/// Grouped fused aggregation: accumulate one [`AggState`] per group of
/// `map`, reading `values` through `cand` (the selection vector) without
/// materializing the filtered column. `values` is the *raw* column the
/// grouping candidates refer to; `map` must have been built with the same
/// candidate list (`map.len() == cand.len()`).
///
/// Returns `None` whenever the shape falls outside the typed fast paths —
/// NULLs present, non-numeric input, float MIN/MAX (NaN ordering lives in
/// the scalar path), or misaligned inputs — so callers fall back to the
/// general materialize-then-aggregate path. When `Some`, every state is
/// field-identical to what the scalar path produces (same accumulation
/// order, so float sums match bit-for-bit).
pub fn fused_grouped_states(
    kind: AggKind,
    values: Option<&Bat>,
    map: &GroupMap,
    cand: Option<&Candidates>,
) -> Option<Vec<AggState>> {
    let ng = map.ngroups();
    let mut rows = vec![0u64; ng];
    for &g in &map.ids {
        *rows.get_mut(g as usize)? += 1;
    }

    if kind == AggKind::CountStar {
        return Some(count_states(kind, rows));
    }
    let v = values?;
    if v.has_nulls() {
        return None;
    }
    let full;
    let cand = match cand {
        Some(c) => c,
        None => {
            full = Candidates::all(v);
            &full
        }
    };
    let positions = cand.positions_in(v);
    if positions.len() != map.len() {
        return None;
    }

    match kind {
        AggKind::CountStar | AggKind::Count => Some(count_states(kind, rows)),
        AggKind::Sum | AggKind::Avg => {
            if let Some(ints) = v.data().as_ints() {
                let sums = grouped_int_sums(ints, &positions, &map.ids, ng)?;
                return Some(
                    rows.iter()
                        .zip(&sums)
                        .map(|(&r, &s)| {
                            let acc = FusedAcc { sum_int: s, ..FusedAcc::counted(r) };
                            AggState::from_fused(kind, acc, DataType::Int)
                        })
                        .collect(),
                );
            }
            if let Some(floats) = v.data().as_floats() {
                let sums = grouped_float_sums(floats, &positions, &map.ids, ng)?;
                return Some(
                    rows.iter()
                        .zip(&sums)
                        .map(|(&r, &s)| {
                            let acc =
                                FusedAcc { sum_float: s, float: true, ..FusedAcc::counted(r) };
                            AggState::from_fused(kind, acc, DataType::Float)
                        })
                        .collect(),
                );
            }
            None
        }
        AggKind::Min | AggKind::Max => {
            let ints = v.data().as_ints()?;
            let best = grouped_int_extrema(kind, ints, &positions, &map.ids, ng)?;
            let ty = ord_type(v);
            Some(
                rows.iter()
                    .zip(&best)
                    .map(|(&r, &b)| {
                        let mut acc = FusedAcc::counted(r);
                        if kind == AggKind::Min {
                            acc.min = b;
                        } else {
                            acc.max = b;
                        }
                        AggState::from_fused(kind, acc, ty)
                    })
                    .collect(),
            )
        }
    }
}

/// Global (ungrouped) fused aggregation: one [`AggState`] over the rows of
/// `values` selected by `cand`, with contiguous-slice fast paths for dense
/// candidate ranges. Same fallback contract as [`fused_grouped_states`].
pub fn fused_global_state(
    kind: AggKind,
    values: Option<&Bat>,
    cand: &Candidates,
) -> Option<AggState> {
    if kind == AggKind::CountStar {
        let acc = FusedAcc::counted(cand.len() as u64);
        return Some(AggState::from_fused(kind, acc, DataType::Int));
    }
    let v = values?;
    if v.has_nulls() {
        return None;
    }
    let positions = cand.positions_in(v);
    let n = positions.len() as u64;

    match kind {
        AggKind::CountStar | AggKind::Count => {
            Some(AggState::from_fused(kind, FusedAcc::counted(n), DataType::Int))
        }
        AggKind::Sum | AggKind::Avg => {
            if let Some(ints) = v.data().as_ints() {
                let mut s = 0i64;
                match contiguous_start(&positions) {
                    Some(start) => {
                        for &x in ints.get(start..start + positions.len())? {
                            s = s.wrapping_add(x);
                        }
                    }
                    None => {
                        for &p in &positions {
                            s = s.wrapping_add(*ints.get(p)?);
                        }
                    }
                }
                let acc = FusedAcc { sum_int: s, ..FusedAcc::counted(n) };
                return Some(AggState::from_fused(kind, acc, DataType::Int));
            }
            if let Some(floats) = v.data().as_floats() {
                let mut s = 0.0f64;
                match contiguous_start(&positions) {
                    Some(start) => {
                        for &x in floats.get(start..start + positions.len())? {
                            s += x;
                        }
                    }
                    None => {
                        for &p in &positions {
                            s += *floats.get(p)?;
                        }
                    }
                }
                let acc = FusedAcc { sum_float: s, float: true, ..FusedAcc::counted(n) };
                return Some(AggState::from_fused(kind, acc, DataType::Float));
            }
            None
        }
        AggKind::Min | AggKind::Max => {
            let ints = v.data().as_ints()?;
            let mut best: Option<i64> = None;
            for &p in &positions {
                let x = *ints.get(p)?;
                best = Some(match best {
                    None => x,
                    Some(cur) if kind == AggKind::Min => cur.min(x),
                    Some(cur) => cur.max(x),
                });
            }
            let mut acc = FusedAcc::counted(n);
            if kind == AggKind::Min {
                acc.min = best;
            } else {
                acc.max = best;
            }
            Some(AggState::from_fused(kind, acc, ord_type(v)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_col_col() {
        let a = Bat::from_ints(vec![1, 2, 3]);
        let b = Bat::from_ints(vec![10, 20, 30]);
        let r = arith_cols(ArithOp::Add, &a, &b).unwrap();
        assert_eq!(r.data().as_ints().unwrap(), &[11, 22, 33]);
        assert_eq!(r.data_type(), DataType::Int);
    }

    #[test]
    fn mixed_int_float_widens() {
        let a = Bat::from_ints(vec![1, 2]);
        let b = Bat::from_floats(vec![0.5, 0.5]);
        let r = arith_cols(ArithOp::Mul, &a, &b).unwrap();
        assert_eq!(r.data_type(), DataType::Float);
        assert_eq!(r.data().as_floats().unwrap(), &[0.5, 1.0]);
    }

    #[test]
    fn const_operand() {
        let a = Bat::from_ints(vec![3, 6]);
        let r = arith_const(ArithOp::Div, &a, &Value::Int(3)).unwrap();
        assert_eq!(r.data().as_ints().unwrap(), &[1, 2]);
        let r = arith_const_left(ArithOp::Sub, &Value::Int(10), &a).unwrap();
        assert_eq!(r.data().as_ints().unwrap(), &[7, 4]);
    }

    #[test]
    fn div_by_zero_yields_null() {
        let a = Bat::from_ints(vec![4, 8]);
        let b = Bat::from_ints(vec![2, 0]);
        let r = arith_cols(ArithOp::Div, &a, &b).unwrap();
        assert_eq!(r.get_at(0), Value::Int(2));
        assert_eq!(r.get_at(1), Value::Null);
    }

    #[test]
    fn null_propagates() {
        let mut a = Bat::new(DataType::Int);
        a.push(&Value::Int(1)).unwrap();
        a.push(&Value::Null).unwrap();
        let r = arith_const(ArithOp::Add, &a, &Value::Int(1)).unwrap();
        assert_eq!(r.get_at(0), Value::Int(2));
        assert_eq!(r.get_at(1), Value::Null);
    }

    #[test]
    fn null_constant_nullifies_all() {
        let a = Bat::from_ints(vec![1, 2]);
        let r = arith_const(ArithOp::Add, &a, &Value::Null).unwrap();
        assert_eq!(r.get_at(0), Value::Null);
        assert_eq!(r.get_at(1), Value::Null);
    }

    #[test]
    fn length_mismatch_rejected() {
        let a = Bat::from_ints(vec![1]);
        let b = Bat::from_ints(vec![1, 2]);
        assert!(matches!(
            arith_cols(ArithOp::Add, &a, &b),
            Err(AlgebraError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn string_arith_rejected() {
        let a = Bat::from_vector(
            Vector::from(vec!["x".to_string()]),
            0,
        );
        let b = Bat::from_ints(vec![1]);
        assert!(arith_cols(ArithOp::Add, &a, &b).is_err());
    }

    #[test]
    fn timestamp_arithmetic() {
        let ts = Bat::from_vector(Vector::Timestamp(vec![100, 200].into()), 0);
        let r = arith_const(ArithOp::Add, &ts, &Value::Int(5)).unwrap();
        assert_eq!(r.data_type(), DataType::Timestamp);
        assert_eq!(r.data().as_ints().unwrap(), &[105, 205]);
        // timestamp - timestamp = int (duration)
        let d = arith_cols(ArithOp::Sub, &ts, &ts).unwrap();
        assert_eq!(d.data_type(), DataType::Int);
    }

    #[test]
    fn negate_and_cast() {
        let a = Bat::from_ints(vec![5, -3]);
        let n = negate(&a).unwrap();
        assert_eq!(n.data().as_ints().unwrap(), &[-5, 3]);
        let f = cast(&a, DataType::Float).unwrap();
        assert_eq!(f.data().as_floats().unwrap(), &[5.0, -3.0]);
        let same = cast(&a, DataType::Int).unwrap();
        assert_eq!(same, a);
    }

    #[test]
    fn mod_semantics() {
        let a = Bat::from_ints(vec![7, -7]);
        let r = arith_const(ArithOp::Mod, &a, &Value::Int(3)).unwrap();
        assert_eq!(r.data().as_ints().unwrap(), &[1, -1]);
    }

    use crate::aggregate::{aggregate_all, aggregate_groups};
    use crate::group::group_by;

    fn all_kinds() -> [AggKind; 6] {
        [
            AggKind::CountStar,
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ]
    }

    #[test]
    fn fused_grouped_matches_scalar_int() {
        let keys = Bat::from_ints(vec![1, 2, 1, 3, 2, 1]);
        let ints = Bat::from_ints(vec![10, 20, 30, 40, 50, 60]);
        // Group 1 and group 2 SUMs wrap past i64::MAX / i64::MIN.
        let wrapping = Bat::from_ints(vec![i64::MAX, i64::MIN, 1, 7, -1, i64::MAX]);
        let stamps = Bat::from_vector(Vector::Timestamp(vec![30, -5, 10, 0, 99, 20].into()), 0);
        for vals in [&ints, &wrapping, &stamps] {
            for cand in [None, Some(Candidates::range(1, 5)), Some(Candidates::List(vec![0, 2, 5]))]
            {
                let map = group_by(&[&keys], cand.as_ref()).unwrap();
                for kind in all_kinds() {
                    let fused =
                        fused_grouped_states(kind, Some(vals), &map, cand.as_ref()).unwrap();
                    let scalar = aggregate_groups(kind, vals, &map, cand.as_ref()).unwrap();
                    assert_eq!(fused, scalar, "kind {kind:?} cand {cand:?} vals {vals:?}");
                }
            }
        }
    }

    #[test]
    fn fused_grouped_matches_scalar_float() {
        let keys = Bat::from_ints(vec![7, 8, 7, 8]);
        let vals = Bat::from_floats(vec![0.1, 0.2, 0.3, 0.4]);
        // Accumulation order shows in the bits: 1 + 1e16 + 1 - 1e16 is 0
        // left to right (each 1 rounds away), 1 right to left.
        let order = Bat::from_floats(vec![1.0, 1e16, 1.0, -0.0, -1e16, -0.0]);
        let order_keys = Bat::from_ints(vec![1, 1, 1, 2, 1, 2]);
        for (keys, vals) in [(&keys, &vals), (&order_keys, &order)] {
            let map = group_by(&[keys], None).unwrap();
            for kind in [AggKind::Sum, AggKind::Avg] {
                let fused = fused_grouped_states(kind, Some(vals), &map, None).unwrap();
                let scalar = aggregate_groups(kind, vals, &map, None).unwrap();
                assert_eq!(format!("{fused:?}"), format!("{scalar:?}"), "kind {kind:?}");
            }
        }
        // Float MIN/MAX stays on the scalar path (NaN and -0.0 ordering).
        let map = group_by(&[&keys], None).unwrap();
        let special = Bat::from_floats(vec![f64::NAN, -0.0, 0.0, f64::NAN]);
        for vals in [&vals, &special] {
            for kind in [AggKind::Min, AggKind::Max] {
                assert!(fused_grouped_states(kind, Some(vals), &map, None).is_none());
                assert!(fused_global_state(kind, Some(vals), &Candidates::all(vals)).is_none());
            }
        }
    }

    #[test]
    fn fused_grouped_count_star_without_values() {
        let keys = Bat::from_ints(vec![1, 1, 2]);
        let map = group_by(&[&keys], None).unwrap();
        let fused = fused_grouped_states(AggKind::CountStar, None, &map, None).unwrap();
        assert_eq!(fused[0].finalize(), Value::Int(2));
        assert_eq!(fused[1].finalize(), Value::Int(1));
    }

    #[test]
    fn fused_falls_back_on_nulls() {
        let mut vals = Bat::new(DataType::Int);
        vals.push(&Value::Int(1)).unwrap();
        vals.push(&Value::Null).unwrap();
        let keys = Bat::from_ints(vec![1, 1]);
        let map = group_by(&[&keys], None).unwrap();
        assert!(fused_grouped_states(AggKind::Sum, Some(&vals), &map, None).is_none());
        assert!(fused_global_state(AggKind::Sum, Some(&vals), &Candidates::all(&vals)).is_none());
        // CountStar never needs the values column, so it stays fused.
        assert!(fused_grouped_states(AggKind::CountStar, Some(&vals), &map, None).is_some());
    }

    #[test]
    fn fused_global_matches_scalar() {
        let vals = Bat::from_vector(vec![5i64, -2, 9, 4].into(), 100);
        for cand in [
            Candidates::all(&vals),
            Candidates::range(101, 103),
            Candidates::List(vec![100, 103]),
            Candidates::empty(),
        ] {
            for kind in all_kinds() {
                let fused = fused_global_state(kind, Some(&vals), &cand).unwrap();
                let scalar = aggregate_all(kind, &vals, Some(&cand));
                assert_eq!(fused, scalar, "kind {kind:?} cand {cand:?}");
            }
        }
        // Wrapping SUM and timestamp MIN/MAX, field for field.
        let wrapping = Bat::from_ints(vec![i64::MAX, 2, i64::MIN, i64::MIN]);
        let stamps = Bat::from_vector(Vector::Timestamp(vec![7, -3, 12].into()), 0);
        for vals in [&wrapping, &stamps] {
            for kind in all_kinds() {
                let fused = fused_global_state(kind, Some(vals), &Candidates::all(vals)).unwrap();
                assert_eq!(fused, aggregate_all(kind, vals, None), "kind {kind:?}");
            }
        }
    }

    #[test]
    fn fused_global_float_bit_identical() {
        // Same accumulation order as the scalar path ⇒ bit-identical sums.
        let vals = Bat::from_floats(vec![0.1, 0.7, 1e-9, 3.3, -0.5]);
        let order = Bat::from_floats(vec![1.0, 1e16, 1.0, -1e16, -0.0, f64::NAN]);
        for (vals, cand) in [
            (&vals, Candidates::range(1, 4)),
            (&order, Candidates::range(0, 5)),
            (&order, Candidates::all(&order)),
        ] {
            for kind in [AggKind::Sum, AggKind::Avg] {
                let fused = fused_global_state(kind, Some(vals), &cand).unwrap();
                let scalar = aggregate_all(kind, vals, Some(&cand));
                assert_eq!(format!("{fused:?}"), format!("{scalar:?}"));
            }
        }
    }

    #[test]
    fn fused_timestamp_extrema_wrap() {
        let vals = Bat::from_vector(Vector::Timestamp(vec![30, 10, 20].into()), 0);
        let fused = fused_global_state(AggKind::Min, Some(&vals), &Candidates::all(&vals));
        assert_eq!(fused.unwrap().finalize(), Value::Timestamp(10));
    }

    #[test]
    fn contiguity_detection() {
        assert_eq!(contiguous_start(&[3, 4, 5]), Some(3));
        assert_eq!(contiguous_start(&[2]), Some(2));
        assert_eq!(contiguous_start(&[]), None);
        assert_eq!(contiguous_start(&[1, 3, 4]), None);
    }
}
