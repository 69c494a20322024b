//! Grouping (MonetDB's `group.group` / `group.subgroup`): map each row of
//! one or more key columns to a dense group id.
//!
//! The output `GroupMap` is the glue between grouping and aggregation: each
//! aggregate then runs over the value column steered by the group ids. NULL
//! keys form their own single group (SQL GROUP BY semantics).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use datacell_storage::{Bat, Chunk};

use crate::candidates::Candidates;
use crate::error::{AlgebraError, Result};
use crate::join::JoinKey;

/// Result of grouping `n` rows into `ngroups` groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMap {
    /// For each input row (in candidate order), its group id `0..ngroups`.
    pub ids: Vec<u32>,
    /// For each group, the physical position of its first member row.
    pub representatives: Vec<usize>,
}

impl GroupMap {
    /// Number of groups.
    pub fn ngroups(&self) -> usize {
        self.representatives.len()
    }

    /// Number of grouped input rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff no rows were grouped.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Key of one row across multiple group-by columns. `None` encodes NULL.
type RowKey = Vec<Option<JoinKey>>;

/// Group rows of `keys` columns (all equal length, aligned) restricted to
/// `cand`. Group ids are assigned in first-appearance order, so the
/// representative positions are ascending.
pub fn group_by(keys: &[&Bat], cand: Option<&Candidates>) -> Result<GroupMap> {
    let first = keys.first().ok_or(AlgebraError::GroupMismatch { groups: 0, values: 0 })?;
    for k in keys {
        if k.len() != first.len() {
            return Err(AlgebraError::LengthMismatch { left: first.len(), right: k.len() });
        }
    }
    let full = Candidates::all(first);
    let cand = cand.unwrap_or(&full);
    let positions = cand.positions_in(first);

    // Typed single-key fast paths: no Value materialization, no per-row
    // RowKey allocation. These carry the windowed-aggregation hot path
    // (every sliding-window GROUP BY fire lands here).
    if let [key] = keys {
        if !key.has_nulls() {
            if let Some(ints) = key.data().as_ints() {
                return Ok(group_typed::<_, BuildHasherDefault<IntKeyHasher>>(&positions, |p| {
                    ints[p]
                }));
            }
            if let Some(strs) = key.data().as_strs() {
                return Ok(group_typed::<_, RandomState>(&positions, |p| strs[p].as_str()));
            }
        }
    }

    let mut ids = Vec::with_capacity(positions.len());
    let mut representatives = Vec::new();
    let mut seen: HashMap<RowKey, u32> = HashMap::new();

    for &pos in &positions {
        let key: RowKey = keys
            .iter()
            .map(|k| JoinKey::from_value(&k.get_at(pos)))
            .collect();
        let next = seen.len() as u32;
        let id = *seen.entry(key).or_insert_with(|| {
            representatives.push(pos);
            next
        });
        ids.push(id);
    }
    Ok(GroupMap { ids, representatives })
}

/// Fixed, non-randomised hasher for the typed integer group key: one
/// folded 64×64→128-bit multiply spreads every key bit over both the low
/// bits (bucket index) and the high bits (control tag) of the hash. Group
/// ids come from first appearance, not from hash order, so the hasher
/// never changes a result — only the cost of a lookup.
#[derive(Default)]
struct IntKeyHasher(u64);

impl Hasher for IntKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        const MUL: u64 = 0x5851_F42D_4C95_7F2D;
        let full = u128::from(self.0 ^ x) * u128::from(MUL);
        self.0 = (full as u64) ^ ((full >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Grouping driven by a borrowed typed key extractor (fast path helper).
fn group_typed<K: Hash + Eq, S: BuildHasher + Default>(
    positions: &[usize],
    key_at: impl Fn(usize) -> K,
) -> GroupMap {
    let mut ids = Vec::with_capacity(positions.len());
    let mut representatives = Vec::new();
    let mut seen: HashMap<K, u32, S> = HashMap::with_capacity_and_hasher(16, S::default());
    for &pos in positions {
        let next = seen.len() as u32;
        let id = *seen.entry(key_at(pos)).or_insert_with(|| {
            representatives.push(pos);
            next
        });
        ids.push(id);
    }
    GroupMap { ids, representatives }
}

/// Materialize the group-key columns: one row per group, in group-id order.
pub fn group_heads(keys: &[&Bat], map: &GroupMap) -> Chunk {
    let cols = keys
        .iter()
        .map(|k| k.gather_positions(&map.representatives))
        .collect::<Vec<_>>();
    // lint:allow(panic-freedom): every key column is gathered with the same representative list
    Chunk::new(cols).expect("representatives align across key columns")
}

/// Count of rows per group.
pub fn group_counts(map: &GroupMap) -> Vec<u64> {
    let mut counts = vec![0u64; map.ngroups()];
    for &id in &map.ids {
        counts[id as usize] += 1;
    }
    counts
}

/// Distinct values of a single column (used by `SELECT DISTINCT`).
pub fn distinct(bat: &Bat, cand: Option<&Candidates>) -> Result<Bat> {
    let map = group_by(&[bat], cand)?;
    Ok(bat.gather_positions(&map.representatives))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_storage::{DataType, Value};

    #[test]
    fn single_column_grouping() {
        let b = Bat::from_ints(vec![5, 3, 5, 5, 3]);
        let g = group_by(&[&b], None).unwrap();
        assert_eq!(g.ngroups(), 2);
        assert_eq!(g.ids, vec![0, 1, 0, 0, 1]);
        assert_eq!(g.representatives, vec![0, 1]);
        assert_eq!(group_counts(&g), vec![3, 2]);
    }

    #[test]
    fn int_fast_path_keeps_first_appearance_order() {
        // Extreme and power-of-two keys through the fixed integer hasher.
        let b = Bat::from_ints(vec![i64::MIN, 0, 1024, -1, i64::MAX, 0, 1024, i64::MIN, 2048]);
        let g = group_by(&[&b], None).unwrap();
        assert_eq!(g.ids, vec![0, 1, 2, 3, 4, 1, 2, 0, 5]);
        assert_eq!(g.representatives, vec![0, 1, 2, 3, 4, 8]);
    }

    #[test]
    fn multi_column_grouping() {
        let a = Bat::from_ints(vec![1, 1, 2, 1]);
        let b = Bat::from_ints(vec![10, 20, 10, 10]);
        let g = group_by(&[&a, &b], None).unwrap();
        assert_eq!(g.ngroups(), 3);
        assert_eq!(g.ids, vec![0, 1, 2, 0]);
        let heads = group_heads(&[&a, &b], &g);
        assert_eq!(heads.len(), 3);
        assert_eq!(heads.row(0), vec![Value::Int(1), Value::Int(10)]);
        assert_eq!(heads.row(2), vec![Value::Int(2), Value::Int(10)]);
    }

    #[test]
    fn nulls_form_one_group() {
        let mut b = Bat::new(DataType::Int);
        b.push(&Value::Null).unwrap();
        b.push(&Value::Int(1)).unwrap();
        b.push(&Value::Null).unwrap();
        let g = group_by(&[&b], None).unwrap();
        assert_eq!(g.ngroups(), 2);
        assert_eq!(g.ids, vec![0, 1, 0]);
    }

    #[test]
    fn grouping_respects_candidates() {
        let b = Bat::from_ints(vec![1, 2, 1, 3]);
        let cand = Candidates::List(vec![1, 3]);
        let g = group_by(&[&b], Some(&cand)).unwrap();
        assert_eq!(g.ngroups(), 2);
        assert_eq!(g.ids, vec![0, 1]);
        assert_eq!(g.representatives, vec![1, 3]);
    }

    #[test]
    fn distinct_values() {
        let b = Bat::from_ints(vec![3, 1, 3, 2, 1]);
        let d = distinct(&b, None).unwrap();
        assert_eq!(d.data().as_ints().unwrap(), &[3, 1, 2]);
    }

    #[test]
    fn empty_keys_rejected() {
        assert!(group_by(&[], None).is_err());
    }

    #[test]
    fn mismatched_key_lengths_rejected() {
        let a = Bat::from_ints(vec![1]);
        let b = Bat::from_ints(vec![1, 2]);
        assert!(group_by(&[&a, &b], None).is_err());
    }
}
