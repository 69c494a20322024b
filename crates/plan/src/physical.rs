//! Plan execution: evaluate a [`LogicalPlan`] against bound sources using
//! the bulk columnar algebra.
//!
//! The executor is deliberately *pull-at-once*: each operator consumes its
//! whole input chunk and produces a whole output chunk, the bulk processing
//! model of the MonetDB kernel ("an efficient bulk processing model instead
//! of the typical tuple-at-a-time volcano approach", paper §3). The same
//! executor runs one-time queries over tables and per-window evaluations of
//! continuous queries — the factory supplies different source chunks.

use std::collections::HashMap;

use datacell_algebra::{
    aggregate_all, aggregate_groups, fetch_chunk, fused_global_state, fused_grouped_states,
    group_by, hash_join, sort_positions, states_to_bat, AggState, Candidates, SortKey, SortOrder,
};
use datacell_storage::{Bat, Chunk};

use crate::error::{PlanError, Result};
use crate::expr::{eval_expr, eval_predicate, BoundExpr};
use crate::logical::LogicalPlan;

/// Bound inputs for one plan evaluation: binding name → column chunk.
///
/// The engine fills this with basket windows for stream scans and table
/// snapshots for table scans.
#[derive(Debug, Clone, Default)]
pub struct ExecSources {
    chunks: HashMap<String, Chunk>,
}

impl ExecSources {
    /// Empty source set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provide the chunk a scan of `binding` will read.
    pub fn bind(&mut self, binding: impl Into<String>, chunk: Chunk) -> &mut Self {
        self.chunks.insert(binding.into().to_ascii_lowercase(), chunk);
        self
    }

    /// Look up a binding.
    pub fn get(&self, binding: &str) -> Option<&Chunk> {
        self.chunks.get(&binding.to_ascii_lowercase())
    }
}

/// Per-operator execution trace entry (feeds the monitor pane: "we can
/// monitor where tuples live at any point in time", paper §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Operator label, e.g. `"Filter"`.
    pub op: &'static str,
    /// Rows flowing out of the operator.
    pub rows_out: usize,
    /// Approximate bytes of the intermediate result.
    pub bytes: usize,
}

/// Execute `plan` against `sources`.
pub fn execute(plan: &LogicalPlan, sources: &ExecSources) -> Result<Chunk> {
    let mut trace = Vec::new();
    execute_traced(plan, sources, &mut trace)
}

/// Execute while recording a per-operator trace (monitor support).
pub fn execute_traced(
    plan: &LogicalPlan,
    sources: &ExecSources,
    trace: &mut Vec<OpTrace>,
) -> Result<Chunk> {
    let out = match plan {
        LogicalPlan::Scan(scan) => sources
            .get(&scan.binding)
            .cloned()
            .ok_or_else(|| PlanError::MissingSource(scan.binding.clone()))?,
        LogicalPlan::Filter { input, predicate } => {
            let chunk = execute_traced(input, sources, trace)?;
            if chunk.arity() == 0 {
                chunk
            } else {
                let cand = Candidates::all(chunk.column(0));
                let hits = eval_predicate(predicate, &chunk, &cand)?;
                fetch_chunk(&chunk, &hits)
            }
        }
        LogicalPlan::Join { left, right, left_key, right_key } => {
            let lc = execute_traced(left, sources, trace)?;
            let rc = execute_traced(right, sources, trace)?;
            join_chunks(&lc, &rc, *left_key, *right_key)?
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let chunk = execute_traced(input, sources, trace)?;
            project_chunk(&chunk, exprs)?
        }
        LogicalPlan::Aggregate { input, group_exprs, aggs, group_types, .. } => {
            let chunk = execute_traced(input, sources, trace)?;
            aggregate_chunk(&chunk, group_exprs, group_types, aggs)?
        }
        LogicalPlan::Distinct { input } => {
            let chunk = execute_traced(input, sources, trace)?;
            distinct_chunk(&chunk)?
        }
        LogicalPlan::Sort { input, keys } => {
            let chunk = execute_traced(input, sources, trace)?;
            sort_chunk(&chunk, keys)?
        }
        LogicalPlan::Limit { input, n } => {
            let chunk = execute_traced(input, sources, trace)?;
            let n = (*n as usize).min(chunk.len());
            let positions: Vec<usize> = (0..n).collect();
            chunk.gather_positions(&positions)
        }
    };
    trace.push(OpTrace { op: op_name(plan), rows_out: out.len(), bytes: out.byte_size() });
    Ok(out)
}

fn op_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan(_) => "Scan",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Join { .. } => "Join",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Aggregate { .. } => "Aggregate",
        LogicalPlan::Distinct { .. } => "Distinct",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Limit { .. } => "Limit",
    }
}

/// Inner hash equi-join of two chunks on one key column each.
pub fn join_chunks(left: &Chunk, right: &Chunk, lk: usize, rk: usize) -> Result<Chunk> {
    let (lp, rp) = hash_join(left.column(lk), right.column(rk), None, None);
    let mut cols = Vec::with_capacity(left.arity() + right.arity());
    for c in left.columns() {
        cols.push(c.gather_positions(&lp));
    }
    for c in right.columns() {
        cols.push(c.gather_positions(&rp));
    }
    Ok(Chunk::new(cols)?)
}

/// Evaluate projection expressions into a new chunk.
pub fn project_chunk(chunk: &Chunk, exprs: &[BoundExpr]) -> Result<Chunk> {
    let cand = if chunk.arity() == 0 {
        Candidates::range(0, chunk.len() as u64)
    } else {
        Candidates::all(chunk.column(0))
    };
    let cols: Result<Vec<Bat>> = exprs.iter().map(|e| eval_expr(e, chunk, &cand)).collect();
    Ok(Chunk::new(cols?)?)
}

/// Group + aggregate a chunk. With no group keys the result is exactly one
/// row (global aggregation), even for empty input — SQL semantics.
pub fn aggregate_chunk(
    chunk: &Chunk,
    group_exprs: &[BoundExpr],
    group_types: &[datacell_storage::DataType],
    aggs: &[crate::logical::AggSpec],
) -> Result<Chunk> {
    let states = aggregate_states(chunk, group_exprs, aggs)?;
    let mut cols: Vec<Bat> = Vec::with_capacity(group_exprs.len() + aggs.len());

    if group_exprs.is_empty() {
        for (spec, state) in aggs.iter().zip(&states.agg_states) {
            cols.push(states_to_bat(std::slice::from_ref(&state[0]), spec.ty)?);
        }
        debug_assert!(states.group_keys.is_empty());
    } else {
        for (i, _) in group_exprs.iter().enumerate() {
            cols.push(cast_or_self(&states.group_keys[i], group_types[i])?);
        }
        for (spec, state) in aggs.iter().zip(&states.agg_states) {
            cols.push(states_to_bat(state, spec.ty)?);
        }
    }
    Ok(Chunk::new(cols)?)
}

fn cast_or_self(bat: &Bat, ty: datacell_storage::DataType) -> Result<Bat> {
    if bat.data_type() == ty {
        Ok(bat.clone())
    } else {
        Ok(datacell_algebra::cast(bat, ty)?)
    }
}

/// The partial form of an aggregation: group key columns plus per-group
/// [`AggState`]s for every aggregate. This is what incremental basic
/// windows cache and merge.
#[derive(Debug, Clone)]
pub struct GroupedStates {
    /// One materialized key column per group expression (group-id order).
    pub group_keys: Vec<Bat>,
    /// `agg_states[a][g]` = state of aggregate `a` for group `g`.
    pub agg_states: Vec<Vec<AggState>>,
}

impl GroupedStates {
    /// Number of groups.
    pub fn ngroups(&self) -> usize {
        self.agg_states.first().map_or(0, Vec::len)
    }
}

/// Compute the partial aggregation states of one chunk.
///
/// Each aggregate runs through the fused typed kernels first
/// ([`fused_global_state`] / [`fused_grouped_states`]); only the shapes
/// they decline — NULLs, strings/bools, float MIN/MAX — take the per-row
/// path. Both produce field-identical states.
pub fn aggregate_states(
    chunk: &Chunk,
    group_exprs: &[BoundExpr],
    aggs: &[crate::logical::AggSpec],
) -> Result<GroupedStates> {
    let cand = if chunk.arity() == 0 {
        Candidates::range(0, chunk.len() as u64)
    } else {
        Candidates::all(chunk.column(0))
    };
    // Argument columns, evaluated over every candidate row (`None` for
    // COUNT(*), which needs no values).
    let eval_arg = |spec: &crate::logical::AggSpec| -> Result<Option<Bat>> {
        spec.arg.as_ref().map(|arg| eval_expr(arg, chunk, &cand)).transpose()
    };

    if group_exprs.is_empty() {
        // Global aggregation: one state per aggregate.
        let mut agg_states = Vec::with_capacity(aggs.len());
        for spec in aggs {
            let vals = eval_arg(spec)?;
            let st = match &vals {
                Some(v) => fused_global_state(spec.kind, Some(v), &Candidates::all(v))
                    .unwrap_or_else(|| aggregate_all(spec.kind, v, None)),
                None => fused_global_state(spec.kind, None, &cand)
                    .ok_or_else(|| PlanError::Internal("COUNT(*) kernel declined".into()))?,
            };
            agg_states.push(vec![st]);
        }
        return Ok(GroupedStates { group_keys: Vec::new(), agg_states });
    }

    // Evaluate key expressions, group, then steer each aggregate.
    let keys: Result<Vec<Bat>> =
        group_exprs.iter().map(|e| eval_expr(e, chunk, &cand)).collect();
    let keys = keys?;
    let key_refs: Vec<&Bat> = keys.iter().collect();
    let map = group_by(&key_refs, None)?;

    let mut agg_states = Vec::with_capacity(aggs.len());
    for spec in aggs {
        let vals = eval_arg(spec)?;
        let states = match (fused_grouped_states(spec.kind, vals.as_ref(), &map, None), &vals) {
            (Some(states), _) => states,
            (None, Some(v)) => aggregate_groups(spec.kind, v, &map, None)?,
            (None, None) => return Err(PlanError::Internal("COUNT(*) kernel declined".into())),
        };
        agg_states.push(states);
    }
    let group_keys = key_refs
        .iter()
        .map(|k| k.gather_positions(&map.representatives))
        .collect();
    Ok(GroupedStates { group_keys, agg_states })
}

/// Duplicate elimination across all columns.
pub fn distinct_chunk(chunk: &Chunk) -> Result<Chunk> {
    if chunk.arity() == 0 || chunk.is_empty() {
        return Ok(chunk.clone());
    }
    let cols: Vec<&Bat> = chunk.columns().iter().collect();
    let map = group_by(&cols, None)?;
    Ok(chunk.gather_positions(&map.representatives))
}

/// Sort a chunk by `(column, descending)` keys.
pub fn sort_chunk(chunk: &Chunk, keys: &[(usize, bool)]) -> Result<Chunk> {
    if keys.is_empty() || chunk.is_empty() {
        return Ok(chunk.clone());
    }
    let sort_keys: Vec<SortKey<'_>> = keys
        .iter()
        .map(|&(col, desc)| SortKey {
            bat: chunk.column(col),
            order: if desc { SortOrder::Desc } else { SortOrder::Asc },
        })
        .collect();
    let positions = sort_positions(&sort_keys, None)?;
    Ok(chunk.gather_positions(&positions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggSpec, ScanNode};
    use datacell_algebra::{AggKind, CmpOp};
    use datacell_storage::{DataType, Value};

    fn scan(binding: &str) -> LogicalPlan {
        LogicalPlan::Scan(ScanNode {
            binding: binding.into(),
            object: binding.into(),
            is_stream: false,
            window: None,
            names: vec!["k".into(), "v".into()],
            types: vec![DataType::Int, DataType::Int],
        })
    }

    fn sources() -> ExecSources {
        let mut s = ExecSources::new();
        s.bind(
            "t",
            Chunk::new(vec![
                Bat::from_ints(vec![1, 2, 1, 3, 2]),
                Bat::from_ints(vec![10, 20, 30, 40, 50]),
            ])
            .unwrap(),
        );
        s
    }

    #[test]
    fn scan_and_filter() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t")),
            predicate: BoundExpr::Cmp {
                left: Box::new(BoundExpr::Col(1)),
                op: CmpOp::Gt,
                right: Box::new(BoundExpr::Const(Value::Int(25))),
            },
        };
        let out = execute(&plan, &sources()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.column(1).data().as_ints().unwrap(), &[30, 40, 50]);
    }

    #[test]
    fn missing_source_reported() {
        let plan = scan("nope");
        assert!(matches!(
            execute(&plan, &sources()),
            Err(PlanError::MissingSource(_))
        ));
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan("t")),
            group_exprs: vec![],
            group_names: vec![],
            group_types: vec![],
            aggs: vec![
                AggSpec { kind: AggKind::CountStar, arg: None, name: "c".into(), ty: DataType::Int },
                AggSpec {
                    kind: AggKind::Sum,
                    arg: Some(BoundExpr::Col(1)),
                    name: "s".into(),
                    ty: DataType::Int,
                },
            ],
        };
        let mut empty = ExecSources::new();
        empty.bind(
            "t",
            Chunk::new(vec![Bat::new(DataType::Int), Bat::new(DataType::Int)]).unwrap(),
        );
        let out = execute(&plan, &empty).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn grouped_aggregate() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan("t")),
            group_exprs: vec![BoundExpr::Col(0)],
            group_names: vec!["k".into()],
            group_types: vec![DataType::Int],
            aggs: vec![AggSpec {
                kind: AggKind::Sum,
                arg: Some(BoundExpr::Col(1)),
                name: "s".into(),
                ty: DataType::Int,
            }],
        };
        let out = execute(&plan, &sources()).unwrap();
        assert_eq!(out.len(), 3);
        // groups in first-appearance order: 1, 2, 3
        assert_eq!(out.row(0), vec![Value::Int(1), Value::Int(40)]);
        assert_eq!(out.row(1), vec![Value::Int(2), Value::Int(70)]);
        assert_eq!(out.row(2), vec![Value::Int(3), Value::Int(40)]);
    }

    #[test]
    fn join_execution() {
        let plan = LogicalPlan::Join {
            left: Box::new(scan("t")),
            right: Box::new(LogicalPlan::Scan(ScanNode {
                binding: "d".into(),
                object: "d".into(),
                is_stream: false,
                window: None,
                names: vec!["k".into(), "label".into()],
                types: vec![DataType::Int, DataType::Str],
            })),
            left_key: 0,
            right_key: 0,
        };
        let mut s = sources();
        s.bind(
            "d",
            Chunk::new(vec![
                Bat::from_ints(vec![1, 2]),
                Bat::from_vector(
                    datacell_storage::Vector::from(vec!["one".to_string(), "two".into()]),
                    0,
                ),
            ])
            .unwrap(),
        );
        let out = execute(&plan, &s).unwrap();
        assert_eq!(out.len(), 4); // k=3 has no match
        assert_eq!(out.arity(), 4);
    }

    #[test]
    fn sort_limit_distinct() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Distinct {
                    input: Box::new(LogicalPlan::Project {
                        input: Box::new(scan("t")),
                        exprs: vec![BoundExpr::Col(0)],
                        names: vec!["k".into()],
                        types: vec![DataType::Int],
                    }),
                }),
                keys: vec![(0, true)],
            }),
            n: 2,
        };
        let out = execute(&plan, &sources()).unwrap();
        assert_eq!(out.column(0).data().as_ints().unwrap(), &[3, 2]);
    }

    #[test]
    fn projection_expressions() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan("t")),
            exprs: vec![BoundExpr::Arith {
                left: Box::new(BoundExpr::Col(1)),
                op: datacell_algebra::ArithOp::Div,
                right: Box::new(BoundExpr::Const(Value::Int(10))),
            }],
            names: vec!["v10".into()],
            types: vec![DataType::Int],
        };
        let out = execute(&plan, &sources()).unwrap();
        assert_eq!(out.column(0).data().as_ints().unwrap(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn trace_records_operators() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t")),
            predicate: BoundExpr::Const(Value::Bool(true)),
        };
        let mut trace = Vec::new();
        execute_traced(&plan, &sources(), &mut trace).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].op, "Scan");
        assert_eq!(trace[1].op, "Filter");
        assert_eq!(trace[1].rows_out, 5);
    }

    #[test]
    fn aggregate_states_fused_or_not_matches_the_per_row_path() {
        // Columns: key, wrapping ints, timestamps, order-sensitive floats,
        // floats with NaN/-0.0, ints with a NULL, strings.
        let mut nullable = Bat::new(DataType::Int);
        for v in [Value::Int(4), Value::Null, Value::Int(-4), Value::Int(9)] {
            nullable.push(&v).unwrap();
        }
        let chunk = Chunk::new(vec![
            Bat::from_ints(vec![1, 2, 1, 1]),
            Bat::from_ints(vec![i64::MAX, 5, 1, i64::MAX]),
            Bat::from_vector(datacell_storage::Vector::Timestamp(vec![9, -2, 4, 7].into()), 0),
            Bat::from_floats(vec![1.0, 0.5, 1e16, -1e16]),
            Bat::from_floats(vec![-0.0, f64::NAN, 0.0, f64::NAN]),
            nullable,
            Bat::from_vector(
                datacell_storage::Vector::from(["b", "a", "c", "a"].map(String::from).to_vec()),
                0,
            ),
        ])
        .unwrap();
        let kinds = [
            AggKind::CountStar,
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ];
        let mut aggs = Vec::new();
        for col in 1..chunk.arity() {
            for kind in kinds {
                let numeric = col < 6;
                if !numeric && matches!(kind, AggKind::Sum | AggKind::Avg) {
                    continue;
                }
                let arg = (kind != AggKind::CountStar).then_some(BoundExpr::Col(col));
                aggs.push(AggSpec { kind, arg, name: "a".into(), ty: DataType::Int });
            }
        }
        let key = chunk.column(0);
        let map = group_by(&[key], None).unwrap();
        for grouped in [false, true] {
            let group_exprs = if grouped { vec![BoundExpr::Col(0)] } else { vec![] };
            let states = aggregate_states(&chunk, &group_exprs, &aggs).unwrap();
            for (spec, got) in aggs.iter().zip(&states.agg_states) {
                let vals = match &spec.arg {
                    Some(BoundExpr::Col(c)) => chunk.column(*c).clone(),
                    _ => Bat::from_ints(vec![1; chunk.len()]),
                };
                let per_row = if grouped {
                    aggregate_groups(spec.kind, &vals, &map, None).unwrap()
                } else {
                    vec![datacell_algebra::aggregate_all(spec.kind, &vals, None)]
                };
                assert_eq!(format!("{got:?}"), format!("{per_row:?}"), "{:?}", spec.arg);
            }
        }
    }

    #[test]
    fn count_star_counts_all_rows() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan("t")),
            group_exprs: vec![BoundExpr::Col(0)],
            group_names: vec!["k".into()],
            group_types: vec![DataType::Int],
            aggs: vec![AggSpec {
                kind: AggKind::CountStar,
                arg: None,
                name: "c".into(),
                ty: DataType::Int,
            }],
        };
        let out = execute(&plan, &sources()).unwrap();
        assert_eq!(out.row(0), vec![Value::Int(1), Value::Int(2)]);
    }
}
