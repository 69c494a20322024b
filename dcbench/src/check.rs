//! Output checks. Each returns `Err` describing the first mismatch; the
//! workloads count every `Err` as one failed operation.

use std::cmp::Ordering;

use datacell_storage::{Row, Value};

use crate::gen::{SensorGen, BATCH};

/// Relative tolerance for floating-point aggregates: the engine merges
/// per-slide partial sums, the oracle sums tuple by tuple, so the last bits
/// of a `SUM`/`AVG` over doubles legitimately differ.
const FLOAT_RTOL: f64 = 1e-9;

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= FLOAT_RTOL * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// Any total order works for a multiset comparison; results are keyed by
/// their leading group column, so float rounding never reorders them.
fn cmp_rows(a: &Row, b: &Row) -> Ordering {
    format!("{a:?}").cmp(&format!("{b:?}"))
}

/// Compare one window's result with the oracle's, ignoring row order.
pub fn same_rows(expected: &[Row], got: &[Row]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("{} rows, oracle has {}", got.len(), expected.len()));
    }
    let mut e = expected.to_vec();
    let mut g = got.to_vec();
    e.sort_by(cmp_rows);
    g.sort_by(cmp_rows);
    for (re, rg) in e.iter().zip(&g) {
        if re.len() != rg.len() || !re.iter().zip(rg).all(|(x, y)| value_eq(x, y)) {
            return Err(format!("row {rg:?}, oracle has {re:?}"));
        }
    }
    Ok(())
}

/// Largest `Timestamp` in column `col` over `rows` — the newest event
/// contributing to a result.
pub fn newest_ts(rows: &[Row], col: usize) -> Option<i64> {
    rows.iter()
        .filter_map(|r| match r.get(col) {
            Some(Value::Timestamp(t)) => Some(*t),
            _ => None,
        })
        .max()
}

/// Pass-through check: the k-th delivered row must be row k of the seeded
/// stream, stamped with its batch's due time — every event exactly once
/// and in order.
#[derive(Debug)]
pub struct PassthroughCheck {
    gen: SensorGen,
    next: u64,
}

impl PassthroughCheck {
    /// Expect the stream from position 0.
    pub fn new(gen: SensorGen) -> Self {
        PassthroughCheck { gen, next: 0 }
    }

    /// Rows checked so far (the next expected position).
    pub fn delivered(&self) -> u64 {
        self.next
    }

    /// Check one delivered chunk; `due(b)` is the ts batch `b` was stamped
    /// with. On a mismatch the cursor still advances past the chunk.
    pub fn accept(&mut self, rows: &[Row], due: impl Fn(u64) -> Option<i64>) -> Result<(), String> {
        let start = self.next;
        self.next += rows.len() as u64;
        for (k, row) in rows.iter().enumerate() {
            let i = start + k as u64;
            let ts = due(i / BATCH as u64).ok_or_else(|| format!("row {i} was never pushed"))?;
            let ok = matches!(row.as_slice(), [Value::Timestamp(t), Value::Int(s), Value::Float(x)]
                if *t == ts && *s == self.gen.sensor(i) && *x == self.gen.temp(i));
            if !ok {
                return Err(format!(
                    "position {i}: got {row:?}, expected {:?}",
                    self.gen.row(i, ts)
                ));
            }
        }
        Ok(())
    }
}

/// Sliding-window check for `SELECT sensor, COUNT(*), MIN(seq), MAX(seq),
/// SUM(seq), MAX(ts) … [ROWS w SLIDE s] GROUP BY sensor`: each result must
/// cover exactly the `min(w, end)` sequence numbers before its window end,
/// and window ends must advance by exactly one slide.
#[derive(Debug)]
pub struct WindowCheck {
    window: u64,
    slide: u64,
    next_end: u64,
}

impl WindowCheck {
    /// Expect the first window to end at `slide`.
    pub fn new(window: u64, slide: u64) -> Self {
        WindowCheck {
            window,
            slide,
            next_end: slide,
        }
    }

    /// Window end the next result must have.
    pub fn next_end(&self) -> u64 {
        self.next_end
    }

    /// Check one result chunk; returns its newest `ts`. One bad chunk
    /// counts once: the check goes on from the window it should follow.
    pub fn accept(&mut self, rows: &[Row]) -> Result<i64, String> {
        let ints = |r: &Row, c: usize| match r.get(c) {
            Some(Value::Int(v)) => Ok(*v),
            other => Err(format!("column {c}: expected BIGINT, got {other:?}")),
        };
        let (mut count, mut lo, mut hi, mut sum) = (0i64, i64::MAX, i64::MIN, 0i128);
        for r in rows {
            count += ints(r, 1)?;
            lo = lo.min(ints(r, 2)?);
            hi = hi.max(ints(r, 3)?);
            sum += i128::from(ints(r, 4)?);
        }
        let expected_end = self.next_end;
        if rows.is_empty() {
            self.next_end += self.slide;
            return Err(format!("empty result for window ending at {expected_end}"));
        }
        let end = (hi + 1) as u64;
        // A duplicate (an old window again) leaves the cursor; a gap moves
        // it past the window that did arrive.
        self.next_end = if end < expected_end {
            expected_end
        } else {
            end + self.slide
        };
        if end != expected_end {
            return Err(format!(
                "window ends at {end}, expected {expected_end} (gap or duplicate)"
            ));
        }
        let want = self.window.min(end) as i64;
        let first = end as i64 - want;
        let want_sum = (i128::from(first) + i128::from(hi)) * i128::from(want) / 2;
        if count != want || lo != first || sum != want_sum {
            return Err(format!(
                "window ending at {end}: count {count}, seq {lo}..={hi}, sum {sum}; \
                 expected count {want}, seq {first}..={hi}, sum {want_sum}"
            ));
        }
        newest_ts(rows, 5).ok_or_else(|| "result has no MAX(ts)".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_baseline::VolcanoEngine;

    fn window_rows(end: u64, window: u64, ts: i64) -> Vec<Row> {
        // Two groups: even and odd sequence numbers.
        let first = end.saturating_sub(window);
        (0..2)
            .map(|g| {
                let seqs: Vec<i64> = (first..end)
                    .map(|s| s as i64)
                    .filter(|s| s % 2 == g)
                    .collect();
                vec![
                    Value::Int(g),
                    Value::Int(seqs.len() as i64),
                    Value::Int(*seqs.iter().min().unwrap()),
                    Value::Int(*seqs.iter().max().unwrap()),
                    Value::Int(seqs.iter().sum()),
                    Value::Timestamp(ts),
                ]
            })
            .collect()
    }

    #[test]
    fn window_check_accepts_a_clean_stream() {
        let mut c = WindowCheck::new(8, 4);
        for end in [4u64, 8, 12, 16] {
            assert_eq!(c.accept(&window_rows(end, 8, end as i64)), Ok(end as i64));
        }
    }

    #[test]
    fn window_check_catches_missing_duplicated_and_wrong() {
        // A missing window (gap in window ends).
        let mut c = WindowCheck::new(8, 4);
        c.accept(&window_rows(4, 8, 1)).unwrap();
        assert!(c.accept(&window_rows(12, 8, 1)).is_err());
        // A duplicated window.
        let mut c = WindowCheck::new(8, 4);
        c.accept(&window_rows(4, 8, 1)).unwrap();
        c.accept(&window_rows(8, 8, 1)).unwrap();
        assert!(c.accept(&window_rows(8, 8, 1)).is_err());
        // The stream continues after the duplicate is rejected.
        assert!(c.accept(&window_rows(12, 8, 1)).is_ok());
        // A missing row inside a window: count short by one.
        let mut c = WindowCheck::new(8, 4);
        let mut rows = window_rows(4, 8, 1);
        rows[0][1] = Value::Int(1);
        assert!(c.accept(&rows).is_err());
        // A duplicated row inside a window: count and sum too high.
        let mut c = WindowCheck::new(8, 4);
        let mut rows = window_rows(8, 8, 1);
        rows[1][1] = Value::Int(5);
        rows[1][4] = match rows[1][4] {
            Value::Int(v) => Value::Int(v + 7),
            _ => unreachable!(),
        };
        c.accept(&window_rows(4, 8, 1)).unwrap();
        assert!(c.accept(&rows).is_err());
        // A wrong value (sum off by one, count right).
        let mut c = WindowCheck::new(8, 4);
        let mut rows = window_rows(4, 8, 1);
        rows[0][4] = Value::Int(3);
        assert!(c.accept(&rows).is_err());
    }

    fn pushed(b: u64) -> Option<i64> {
        (b < 4).then_some(100 + b as i64)
    }

    #[test]
    fn passthrough_check_accepts_exactly_once_in_order() {
        let g = SensorGen::new(3, 100);
        let mut c = PassthroughCheck::new(g);
        let all: Vec<Row> = (0..4).flat_map(|b| g.batch(b, 100 + b as i64)).collect();
        for chunk in all.chunks(700) {
            c.accept(chunk, pushed).unwrap();
        }
        assert_eq!(c.delivered(), 4 * BATCH as u64);
    }

    #[test]
    fn passthrough_check_catches_missing_duplicated_and_wrong() {
        let g = SensorGen::new(3, 100);
        let rows = g.batch(0, 100);
        // Missing row.
        let mut c = PassthroughCheck::new(g);
        let mut missing = rows.clone();
        missing.remove(10);
        assert!(c.accept(&missing, pushed).is_err());
        // Duplicated row.
        let mut c = PassthroughCheck::new(g);
        let mut dup = rows.clone();
        dup.insert(10, rows[10].clone());
        dup.pop();
        assert!(c.accept(&dup, pushed).is_err());
        // Wrong value.
        let mut c = PassthroughCheck::new(g);
        let mut wrong = rows.clone();
        wrong[5][2] = Value::Float(99.0);
        assert!(c.accept(&wrong, pushed).is_err());
        // Wrong timestamp.
        let mut c = PassthroughCheck::new(g);
        let mut late = rows;
        late[5][0] = Value::Timestamp(101);
        assert!(c.accept(&late, pushed).is_err());
    }

    #[test]
    fn oracle_compare_ignores_order_and_float_rounding() {
        let a = vec![
            vec![Value::Int(1), Value::Float(0.1 + 0.2)],
            vec![Value::Int(2), Value::Float(5.0)],
        ];
        let b = vec![
            vec![Value::Int(2), Value::Float(5.0)],
            vec![Value::Int(1), Value::Float(0.3)],
        ];
        assert_eq!(same_rows(&a, &b), Ok(()));
    }

    #[test]
    fn oracle_compare_catches_missing_duplicated_and_wrong() {
        // Build the expected window from the real oracle.
        let mut v = VolcanoEngine::new();
        v.execute("CREATE STREAM s (ts TIMESTAMP, sensor BIGINT, temp DOUBLE)")
            .unwrap();
        let q = v
            .register_query(
                "SELECT sensor, COUNT(*), SUM(temp) FROM s [ROWS 1024 SLIDE 1024] GROUP BY sensor",
            )
            .unwrap();
        let g = SensorGen::new(5, 10);
        v.push_rows("s", &g.batch(0, 1)).unwrap();
        v.run_until_idle().unwrap();
        let expected = v.take_results(q).pop().unwrap();
        assert_eq!(expected.len(), 10);
        assert_eq!(same_rows(&expected, &expected), Ok(()));

        let mut missing = expected.clone();
        missing.pop();
        assert!(same_rows(&expected, &missing).is_err());
        let mut dup = expected.clone();
        dup[1] = dup[0].clone();
        assert!(same_rows(&expected, &dup).is_err());
        let mut wrong = expected.clone();
        wrong[3][1] = Value::Int(-1);
        assert!(same_rows(&expected, &wrong).is_err());
    }
}
