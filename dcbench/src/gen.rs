//! The load generator's data: a seeded sensor stream in which row `i` is a
//! pure function of `(seed, i)`, so a check can rebuild any window of the
//! stream without the benchmark keeping its history. Only the `ts` column
//! is not a function of the seed: the generator stamps it with the time the
//! event was created (closed loop) or due (open loop), in microseconds on
//! the benchmark's own clock.

use std::sync::OnceLock;
use std::time::Instant;

use datacell_storage::{Row, Value};

/// Rows per generated batch (one `push_rows` call / one `PUSH` frame).
pub const BATCH: usize = 1024;

/// Microseconds since the benchmark process started: the clock every `ts`
/// stamp and every delivery time is read from.
pub fn now_us() -> i64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as i64
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded sensor readings: `sensor` uniform over `0..sensors`, `temp`
/// uniform over `[15, 25)` in steps of 1/1000.
#[derive(Debug, Clone, Copy)]
pub struct SensorGen {
    seed: u64,
    sensors: u64,
}

impl SensorGen {
    /// A stream over `sensors` distinct sensors.
    pub fn new(seed: u64, sensors: u64) -> Self {
        SensorGen {
            seed: splitmix64(seed),
            sensors: sensors.max(1),
        }
    }

    fn hash(&self, i: u64) -> u64 {
        splitmix64(self.seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Sensor id of row `i`.
    pub fn sensor(&self, i: u64) -> i64 {
        (self.hash(i) % self.sensors) as i64
    }

    /// Temperature of row `i`.
    pub fn temp(&self, i: u64) -> f64 {
        15.0 + ((self.hash(i) >> 20) % 10_000) as f64 / 1000.0
    }

    /// `(ts, sensor, temp)` row `i`, stamped `ts`.
    pub fn row(&self, i: u64, ts: i64) -> Row {
        vec![
            Value::Timestamp(ts),
            Value::Int(self.sensor(i)),
            Value::Float(self.temp(i)),
        ]
    }

    #[cfg(test)]
    /// `(ts, seq, sensor, temp)` row `i`, stamped `ts`: the durable
    /// workload carries the position as a sequence number so gaps and
    /// duplicates are visible in its window aggregates.
    pub fn seq_row(&self, i: u64, ts: i64) -> Row {
        vec![
            Value::Timestamp(ts),
            Value::Int(i as i64),
            Value::Int(self.sensor(i)),
            Value::Float(self.temp(i)),
        ]
    }

    /// Overwrite `rows` with batch `b` of [`SensorGen::row`] (or of
    /// [`SensorGen::seq_row`] with `seq`), reusing its allocations.
    pub fn fill_batch(&self, rows: &mut Vec<Row>, b: u64, ts: i64, seq: bool) {
        let lo = b * BATCH as u64;
        let width = if seq { 4 } else { 3 };
        rows.resize_with(BATCH, Vec::new);
        for (k, row) in rows.iter_mut().enumerate() {
            let i = lo + k as u64;
            row.clear();
            row.reserve(width);
            row.push(Value::Timestamp(ts));
            if seq {
                row.push(Value::Int(i as i64));
            }
            row.push(Value::Int(self.sensor(i)));
            row.push(Value::Float(self.temp(i)));
        }
    }

    /// Batch `b` (rows `b*BATCH .. (b+1)*BATCH`) of [`SensorGen::row`].
    pub fn batch(&self, b: u64, ts: i64) -> Vec<Row> {
        let lo = b * BATCH as u64;
        (lo..lo + BATCH as u64).map(|i| self.row(i, ts)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        let a = SensorGen::new(7, 100);
        let b = SensorGen::new(7, 100);
        let c = SensorGen::new(8, 100);
        assert_eq!(a.batch(3, 5), b.batch(3, 5));
        assert_ne!(a.batch(3, 5), c.batch(3, 5));
        let mut buf = c.batch(9, 9);
        a.fill_batch(&mut buf, 3, 5, false);
        assert_eq!(buf, a.batch(3, 5));
        a.fill_batch(&mut buf, 2, 4, true);
        assert_eq!(buf[7], a.seq_row(2 * BATCH as u64 + 7, 4));
    }

    #[test]
    fn values_stay_in_range() {
        let g = SensorGen::new(1, 8);
        for i in 0..10_000 {
            assert!((0..8).contains(&g.sensor(i)));
            let t = g.temp(i);
            assert!((15.0..25.0).contains(&t), "{t}");
        }
    }
}
