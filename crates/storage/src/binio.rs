//! Panic-free binary (de)serialization of the kernel's data shapes — the
//! byte layer underneath the durability subsystem (`datacell-wal`).
//!
//! Three shapes are covered, each self-describing and NULL-aware for all
//! five value types (`Bool`, `Int`, `Float`, `Str`, `Timestamp`):
//!
//! * **row batches** — what a receptor/`PUSH` append logs: column-major,
//!   one validity byte-map per column that holds a NULL;
//! * **chunks** — full BAT sets with their OID heads (catalog snapshots:
//!   table contents, incremental ring state);
//! * **schemas** — column name/type/NOT NULL triples.
//!
//! Every decode path is *total*: arbitrary (truncated, bit-flipped) input
//! yields `StorageError::Corrupt`, never a panic and never an oversized
//! allocation — the WAL's fault-injection suite drives random bytes
//! through here. Integers are little-endian throughout.

use crate::bat::Bat;
use crate::error::{Result, StorageError};
use crate::schema::{ColumnDef, Schema};
use crate::types::{DataType, Oid};
use crate::value::{Row, Value};
use crate::vector::{Segment, Vector};

/// Stable on-disk tag of a [`DataType`].
pub fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Timestamp => 4,
    }
}

/// Inverse of [`type_tag`].
pub fn type_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Timestamp,
        other => return Err(corrupt(format!("unknown type tag {other}"))),
    })
}

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

// ---- writer helpers ---------------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64` (IEEE bits).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---- bounds-checked reader --------------------------------------------

/// Cursor over untrusted bytes; every read is bounds-checked.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff everything was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated input: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take the next `N` bytes as a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| corrupt("internal length mismatch"))
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt("invalid UTF-8 string"))
    }
}

// ---- wire frames ------------------------------------------------------

/// Version of the binary wire-frame layout negotiated by `HELLO BINARY`.
/// Bump on any layout change; peers refuse versions they don't speak.
pub const WIRE_VERSION: u32 = 1;

/// Hard ceiling on one frame's payload length (16 MiB). A longer length
/// field is corrupt or hostile: the connection cannot be resynced past an
/// untrusted length, so readers treat this as fatal.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Bytes in a frame header: tag `u8` + payload length `u32` (LE).
pub const FRAME_HEADER_LEN: usize = 5;

/// Begin a wire frame: append the tag byte and a zero length placeholder.
/// Returns the payload start offset to hand to [`end_frame`].
pub fn begin_frame(buf: &mut Vec<u8>, tag: u8) -> usize {
    put_u8(buf, tag);
    put_u32(buf, 0);
    buf.len()
}

/// Close the frame opened at `payload_start`, patching the real payload
/// length into the header. Fails (leaving `buf` untouched beyond the
/// already-written bytes) if the payload outgrew [`MAX_FRAME_LEN`] or
/// `payload_start` doesn't point just past a header.
pub fn end_frame(buf: &mut [u8], payload_start: usize) -> Result<()> {
    let len = buf.len().checked_sub(payload_start).ok_or_else(|| {
        corrupt("end_frame: payload start past end of buffer")
    })?;
    if len > MAX_FRAME_LEN as usize {
        return Err(corrupt(format!("frame payload too large: {len} bytes")));
    }
    let slot = payload_start
        .checked_sub(4)
        .and_then(|lo| buf.get_mut(lo..payload_start))
        .ok_or_else(|| corrupt("end_frame: no header before payload"))?;
    slot.copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Append a complete frame (header + payload) in one call.
pub fn put_frame(buf: &mut Vec<u8>, tag: u8, payload: &[u8]) -> Result<()> {
    let start = begin_frame(buf, tag);
    buf.extend_from_slice(payload);
    end_frame(buf, start)
}

/// Parse a frame header from the front of `bytes` without consuming the
/// payload: `Ok(Some((tag, payload_len)))` when a whole header is
/// present, `Ok(None)` when more bytes are needed, `Err` on a length
/// field past [`MAX_FRAME_LEN`].
pub fn peek_frame_header(bytes: &[u8]) -> Result<Option<(u8, usize)>> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let mut r = ByteReader::new(bytes);
    let tag = r.u8()?;
    let len = r.u32()?;
    if len > MAX_FRAME_LEN {
        return Err(corrupt(format!("frame length {len} exceeds cap")));
    }
    Ok(Some((tag, len as usize)))
}

// ---- schemas ----------------------------------------------------------

/// Encode a schema (column names, type tags, NOT NULL flags).
pub fn encode_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u32(buf, schema.arity() as u32);
    for c in schema.columns() {
        put_str(buf, &c.name);
        put_u8(buf, type_tag(c.ty));
        put_u8(buf, c.not_null as u8);
    }
}

/// Decode a schema written by [`encode_schema`].
pub fn decode_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let n = r.u32()? as usize;
    let mut cols = Vec::new();
    for _ in 0..n {
        let name = r.str()?;
        let ty = type_from_tag(r.u8()?)?;
        let not_null = r.u8()? != 0;
        cols.push(ColumnDef { name, ty, not_null });
    }
    Ok(Schema::new(cols))
}

// ---- row batches ------------------------------------------------------

/// Encode a validated row batch column-major against `schema`'s column
/// types. Values are stored coerced to the column type (the same implicit
/// casts ingestion applies), so decode yields exactly what a basket or
/// table would hold. NULL slots write a placeholder value and a 0 in the
/// column's validity map.
pub fn encode_batch(buf: &mut Vec<u8>, schema: &Schema, rows: &[Row]) {
    put_u32(buf, schema.arity() as u32);
    put_u32(buf, rows.len() as u32);
    for (j, col) in schema.columns().iter().enumerate() {
        put_u8(buf, type_tag(col.ty));
        // `row.get(j)` instead of `row[j]`: a ragged row (shorter than the
        // schema arity) encodes its missing cells as NULL instead of
        // aborting mid-WAL-append.
        let any_null = rows.iter().any(|r| r.get(j).is_none_or(Value::is_null));
        put_u8(buf, any_null as u8);
        if any_null {
            for row in rows {
                let valid = row.get(j).is_some_and(|v| !v.is_null());
                put_u8(buf, valid as u8);
            }
        }
        for row in rows {
            let v = row
                .get(j)
                .and_then(|v| v.coerce(col.ty))
                .unwrap_or(Value::Null);
            encode_cell(buf, col.ty, &v);
        }
    }
}

/// Columnar twin of [`encode_batch`]: encode a chunk's rows without
/// materializing them, writing exactly the bytes
/// `encode_batch(buf, schema, &chunk.rows().collect::<Vec<_>>())` writes —
/// the WAL record of a durable `PUSH` does not depend on which path built
/// it. A column of the schema's exact type is copied straight from its
/// typed buffer; a missing or differently typed column goes cell by cell
/// through the same coercion `encode_batch` applies.
pub fn encode_batch_chunk(buf: &mut Vec<u8>, schema: &Schema, chunk: &crate::chunk::Chunk) {
    let nrows = chunk.len();
    put_u32(buf, schema.arity() as u32);
    put_u32(buf, nrows as u32);
    for (j, col) in schema.columns().iter().enumerate() {
        put_u8(buf, type_tag(col.ty));
        let bat = chunk.columns().get(j);
        // Row-path semantics: a missing column is all NULL, and the map is
        // written only when a slot actually is NULL (an all-true validity
        // map does not count).
        let valid = |i: usize| bat.is_some_and(|b| !b.is_null_at(i));
        let any_null = match bat {
            None => nrows > 0,
            Some(b) => b.validity().is_some_and(|v| v.contains(&false)),
        };
        put_u8(buf, any_null as u8);
        if any_null {
            buf.extend((0..nrows).map(|i| valid(i) as u8));
        }
        match bat.filter(|b| b.data_type() == col.ty).map(Bat::data) {
            Some(Vector::Int(v) | Vector::Timestamp(v)) => {
                for (i, &x) in v.iter().enumerate() {
                    put_i64(buf, if valid(i) { x } else { 0 });
                }
            }
            Some(Vector::Float(v)) => {
                for (i, &x) in v.iter().enumerate() {
                    put_f64(buf, if valid(i) { x } else { 0.0 });
                }
            }
            Some(Vector::Bool(v)) => {
                buf.extend(v.iter().enumerate().map(|(i, &b)| (valid(i) && b) as u8));
            }
            Some(Vector::Str(v)) => {
                for (i, s) in v.iter().enumerate() {
                    put_str(buf, if valid(i) { s } else { "" });
                }
            }
            None => {
                for i in 0..nrows {
                    let v = bat.and_then(|b| b.get_at(i).coerce(col.ty)).unwrap_or(Value::Null);
                    encode_cell(buf, col.ty, &v);
                }
            }
        }
    }
}

fn encode_cell(buf: &mut Vec<u8>, ty: DataType, v: &Value) {
    match ty {
        DataType::Bool => put_u8(buf, matches!(v, Value::Bool(true)) as u8),
        DataType::Int => put_i64(buf, v.as_int().unwrap_or(0)),
        DataType::Timestamp => put_i64(buf, v.as_int().unwrap_or(0)),
        DataType::Float => put_f64(buf, v.as_float().unwrap_or(0.0)),
        DataType::Str => put_str(buf, v.as_str().unwrap_or("")),
    }
}

fn decode_cell(r: &mut ByteReader<'_>, ty: DataType) -> Result<Value> {
    Ok(match ty {
        DataType::Bool => Value::Bool(r.u8()? != 0),
        DataType::Int => Value::Int(r.i64()?),
        DataType::Timestamp => Value::Timestamp(r.i64()?),
        DataType::Float => Value::Float(r.f64()?),
        DataType::Str => Value::Str(r.str()?),
    })
}

/// Decode a batch written by [`encode_batch`] back into rows (the replay
/// path feeds these to `Basket::push_rows`, i.e. the bulk
/// `Bat::extend_from_rows` append).
pub fn decode_batch(r: &mut ByteReader<'_>) -> Result<Vec<Row>> {
    let ncols = r.u32()? as usize;
    let nrows = r.u32()? as usize;
    // Plausibility bounds before any allocation: every column costs at
    // least two header bytes, every row at least one byte per column, and
    // therefore every *cell* at least one byte — so the ncols×nrows
    // product must fit the remaining input too (a corrupt header must
    // not trigger a huge `resize_with` or per-row `with_capacity`). The
    // loop below still validates every byte.
    if ncols > r.remaining() / 2
        || (nrows > 0 && (ncols == 0 || nrows > r.remaining()))
        || ncols.saturating_mul(nrows) > r.remaining()
    {
        return Err(corrupt(format!("implausible batch header: {ncols}x{nrows}")));
    }
    let mut rows: Vec<Row> = Vec::new();
    rows.resize_with(nrows, || Vec::with_capacity(ncols));
    for _ in 0..ncols {
        let ty = type_from_tag(r.u8()?)?;
        let any_null = r.u8()? != 0;
        let validity = if any_null { Some(r.bytes(nrows)?) } else { None };
        for (i, row) in rows.iter_mut().enumerate() {
            let v = decode_cell(r, ty)?;
            if validity.is_some_and(|v| v[i] == 0) {
                row.push(Value::Null);
            } else {
                row.push(v);
            }
        }
    }
    Ok(rows)
}

/// Decode a batch written by [`encode_batch`] straight into a columnar
/// [`Chunk`](crate::chunk::Chunk) — no intermediate `Vec<Row>`. Each
/// column's cells land in one typed buffer that becomes the [`Segment`]
/// backing a [`Bat`], so a binary `PUSH` frame can be appended to a
/// basket with `Vector::append` instead of being re-pivoted row by row.
/// OID heads start at 0; the receiving basket renumbers on append.
pub fn decode_batch_chunk(r: &mut ByteReader<'_>) -> Result<crate::chunk::Chunk> {
    let ncols = r.u32()? as usize;
    let nrows = r.u32()? as usize;
    // Same plausibility bounds as [`decode_batch`]: every `with_capacity`
    // below is capped by the remaining input length.
    if ncols > r.remaining() / 2
        || (nrows > 0 && (ncols == 0 || nrows > r.remaining()))
        || ncols.saturating_mul(nrows) > r.remaining()
    {
        return Err(corrupt(format!("implausible batch header: {ncols}x{nrows}")));
    }
    let mut cols: Vec<Bat> = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let ty = type_from_tag(r.u8()?)?;
        let any_null = r.u8()? != 0;
        let validity: Option<Vec<bool>> = if any_null {
            Some(r.bytes(nrows)?.iter().map(|&b| b != 0).collect())
        } else {
            None
        };
        let data = match ty {
            DataType::Bool => {
                let mut v: Vec<bool> = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.u8()? != 0);
                }
                Vector::Bool(Segment::from_vec(v))
            }
            DataType::Int | DataType::Timestamp => {
                let mut v: Vec<i64> = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.i64()?);
                }
                let seg = Segment::from_vec(v);
                if ty == DataType::Int {
                    Vector::Int(seg)
                } else {
                    Vector::Timestamp(seg)
                }
            }
            DataType::Float => {
                let mut v: Vec<f64> = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.f64()?);
                }
                Vector::Float(Segment::from_vec(v))
            }
            DataType::Str => {
                let mut v: Vec<String> = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.str()?);
                }
                Vector::Str(Segment::from_vec(v))
            }
        };
        cols.push(Bat::from_parts(data, 0, validity)?);
    }
    crate::chunk::Chunk::new(cols)
}

// ---- chunks -----------------------------------------------------------

/// Encode a chunk: every column's OID base, type, validity and values.
pub fn encode_chunk(buf: &mut Vec<u8>, chunk: &crate::chunk::Chunk) {
    put_u32(buf, chunk.arity() as u32);
    put_u32(buf, chunk.len() as u32);
    for col in chunk.columns() {
        put_u8(buf, type_tag(col.data_type()));
        put_u64(buf, col.oid_base());
        let any_null = col.has_nulls();
        put_u8(buf, any_null as u8);
        if any_null {
            for i in 0..col.len() {
                put_u8(buf, !col.is_null_at(i) as u8);
            }
        }
        for i in 0..col.len() {
            let v = col.get_at(i);
            let v = v.coerce(col.data_type()).unwrap_or(Value::Null);
            encode_cell(buf, col.data_type(), &v);
        }
    }
}

/// Decode a chunk written by [`encode_chunk`].
pub fn decode_chunk(r: &mut ByteReader<'_>) -> Result<crate::chunk::Chunk> {
    let ncols = r.u32()? as usize;
    let nrows = r.u32()? as usize;
    let mut cols: Vec<Bat> = Vec::new();
    for _ in 0..ncols {
        let ty = type_from_tag(r.u8()?)?;
        let base: Oid = r.u64()?;
        let any_null = r.u8()? != 0;
        let validity: Option<Vec<bool>> = if any_null {
            Some(r.bytes(nrows)?.iter().map(|&b| b != 0).collect())
        } else {
            None
        };
        let mut data = Vector::new(ty);
        for _ in 0..nrows {
            let v = decode_cell(r, ty)?;
            data.push(&v).map_err(|e| corrupt(format!("bad cell: {e}")))?;
        }
        cols.push(Bat::from_parts(data, base, validity)?);
    }
    crate::chunk::Chunk::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;

    fn all_types_schema() -> Schema {
        Schema::of(&[
            ("b", DataType::Bool),
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("t", DataType::Timestamp),
        ])
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![
                Value::Bool(true),
                Value::Int(-5),
                Value::Float(2.5),
                Value::Str("héllo, \"wörld\"\n".into()),
                Value::Timestamp(99),
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null, Value::Null],
            vec![
                Value::Bool(false),
                Value::Int(i64::MAX),
                Value::Int(7), // int→float coercion on encode
                Value::Str(String::new()),
                Value::Int(3), // int→timestamp coercion on encode
            ],
        ]
    }

    #[test]
    fn batch_roundtrip_all_types_and_nulls() {
        let schema = all_types_schema();
        let rows = sample_rows();
        let mut buf = Vec::new();
        encode_batch(&mut buf, &schema, &rows);
        let decoded = decode_batch(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0], rows[0]);
        assert!(decoded[1].iter().all(Value::is_null));
        // Coercions land as the column type.
        assert_eq!(decoded[2][2], Value::Float(7.0));
        assert_eq!(decoded[2][4], Value::Timestamp(3));
    }

    #[test]
    fn empty_batch_roundtrip() {
        let schema = all_types_schema();
        let mut buf = Vec::new();
        encode_batch(&mut buf, &schema, &[]);
        assert!(decode_batch(&mut ByteReader::new(&buf)).unwrap().is_empty());
    }

    #[test]
    fn schema_roundtrip() {
        let schema = Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("tag", DataType::Str),
        ]);
        let mut buf = Vec::new();
        encode_schema(&mut buf, &schema);
        let decoded = decode_schema(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(decoded, schema);
    }

    #[test]
    fn chunk_roundtrip_keeps_oid_heads_and_validity() {
        let mut a = Bat::with_base(DataType::Int, 100);
        a.push(&Value::Int(1)).unwrap();
        a.push(&Value::Null).unwrap();
        let mut b = Bat::with_base(DataType::Str, 100);
        b.push(&Value::Str("x".into())).unwrap();
        b.push(&Value::Str("y".into())).unwrap();
        let chunk = Chunk::new(vec![a, b]).unwrap();
        let mut buf = Vec::new();
        encode_chunk(&mut buf, &chunk);
        let decoded = decode_chunk(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(decoded, chunk);
        assert_eq!(decoded.column(0).oid_base(), 100);
        assert_eq!(decoded.column(0).get_at(1), Value::Null);
    }

    #[test]
    fn decode_never_panics_on_garbage() {
        // Truncations of a valid encoding plus pure noise: every prefix
        // must fail cleanly (or, for complete prefixes, succeed).
        let schema = all_types_schema();
        let mut buf = Vec::new();
        encode_batch(&mut buf, &schema, &sample_rows());
        for cut in 0..buf.len() {
            let _ = decode_batch(&mut ByteReader::new(&buf[..cut]));
        }
        for noise in [&[0xffu8; 16][..], &[0x01; 3], &[]] {
            let _ = decode_batch(&mut ByteReader::new(noise));
            let _ = decode_chunk(&mut ByteReader::new(noise));
            let _ = decode_schema(&mut ByteReader::new(noise));
        }
        // A length field pointing far past the buffer must not allocate
        // or panic.
        let mut evil = Vec::new();
        put_u32(&mut evil, 2);
        put_u32(&mut evil, u32::MAX);
        put_u8(&mut evil, type_tag(DataType::Int));
        put_u8(&mut evil, 0);
        assert!(decode_batch(&mut ByteReader::new(&evil)).is_err());
        // Likewise a huge column count (would otherwise drive a
        // multi-GiB per-row `with_capacity`).
        let mut evil = Vec::new();
        put_u32(&mut evil, u32::MAX);
        put_u32(&mut evil, 1);
        evil.extend_from_slice(&[0u8; 8]);
        assert!(decode_batch(&mut ByteReader::new(&evil)).is_err());
        // And a header whose ncols×nrows product explodes even though
        // each factor alone looks plausible for the buffer size.
        let mut evil = Vec::new();
        put_u32(&mut evil, 400);
        put_u32(&mut evil, 1000);
        evil.extend_from_slice(&vec![0u8; 1000]);
        assert!(decode_batch(&mut ByteReader::new(&evil)).is_err());
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.u64().is_err());
        assert_eq!(r.remaining(), 2);
        assert!(ByteReader::new(&[5, 0, 0, 0, b'a']).str().is_err());
    }

    #[test]
    fn frame_header_roundtrip() {
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, 0x01);
        put_u64(&mut buf, 42);
        end_frame(&mut buf, start).unwrap();
        assert_eq!(peek_frame_header(&buf).unwrap(), Some((0x01, 8)));
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 8);

        let mut buf = Vec::new();
        put_frame(&mut buf, 0x00, b"PING").unwrap();
        assert_eq!(peek_frame_header(&buf).unwrap(), Some((0x00, 4)));
        assert_eq!(&buf[FRAME_HEADER_LEN..], b"PING");
    }

    #[test]
    fn frame_header_is_bounded() {
        // Short reads ask for more bytes; hostile lengths are fatal.
        assert_eq!(peek_frame_header(&[]).unwrap(), None);
        assert_eq!(peek_frame_header(&[1, 2, 3, 4]).unwrap(), None);
        let mut evil = Vec::new();
        put_u8(&mut evil, 0x01);
        put_u32(&mut evil, u32::MAX);
        assert!(peek_frame_header(&evil).is_err());
        // Cap is inclusive: exactly MAX_FRAME_LEN is still legal.
        let mut edge = Vec::new();
        put_u8(&mut edge, 0x01);
        put_u32(&mut edge, MAX_FRAME_LEN);
        assert_eq!(
            peek_frame_header(&edge).unwrap(),
            Some((0x01, MAX_FRAME_LEN as usize))
        );
        // Misused end_frame errors instead of panicking.
        let mut buf = Vec::new();
        assert!(end_frame(&mut buf, 3).is_err());
        assert!(end_frame(&mut Vec::new(), 0).is_err());
    }

    #[test]
    fn chunk_batch_encoding_coerces_like_the_row_path() {
        // A differently typed column and a missing one take the per-cell
        // path and still match `encode_batch` byte for byte.
        let schema =
            Schema::of(&[("f", DataType::Float), ("t", DataType::Timestamp), ("s", DataType::Str)]);
        let mut ints = Bat::new(DataType::Int);
        for v in [Value::Int(3), Value::Null, Value::Int(-8)] {
            ints.push(&v).unwrap();
        }
        for chunk in [
            Chunk::new(vec![ints.clone(), ints.clone()]).unwrap(),
            Chunk::new(vec![ints.clone(), ints.clone(), ints]).unwrap(),
        ] {
            let rows: Vec<Row> = chunk.rows().collect();
            let (mut by_rows, mut by_cols) = (Vec::new(), Vec::new());
            encode_batch(&mut by_rows, &schema, &rows);
            encode_batch_chunk(&mut by_cols, &schema, &chunk);
            assert_eq!(by_cols, by_rows);
        }
    }

    mod chunk_batch_props {
        use super::*;
        use proptest::prelude::*;

        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn value(ty: DataType, h: u64) -> Value {
            const SPECIAL: [f64; 6] =
                [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, 0.1];
            const CHARS: [char; 7] = ['"', ',', '\\', '\n', 'é', 'a', '@'];
            match ty {
                DataType::Bool => Value::Bool(h & 1 == 1),
                DataType::Int => Value::Int(h as i64),
                DataType::Timestamp => Value::Timestamp((h >> 3) as i64 - (1 << 59)),
                DataType::Float => Value::Float(match h % 3 {
                    0 => f64::from_bits(h),
                    1 => SPECIAL[(h >> 8) as usize % SPECIAL.len()],
                    _ => (h >> 11) as f64 / 1e6,
                }),
                DataType::Str => Value::Str(
                    (0..(h % 9) as usize)
                        .map(|k| CHARS[(mix(h ^ k as u64) % CHARS.len() as u64) as usize])
                        .collect(),
                ),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(384))]

            /// Columns: (type tag, NULL mode, seed). NULL mode 0 = none,
            /// 1 = real NULLs, 2 = an all-true validity map (the column's
            /// only NULL sits in a row sliced off the window).
            #[test]
            fn chunk_batch_bytes_equal_row_batch_bytes(
                nrows in 0usize..24,
                spec in prop::collection::vec((0u8..5, 0u8..3, 0u64..u64::MAX), 1..6),
            ) {
                let mut cols = Vec::new();
                let mut defs = Vec::new();
                for (j, &(tag, nulls, seed)) in spec.iter().enumerate() {
                    let ty = type_from_tag(tag).unwrap();
                    let mut bat = Bat::new(ty);
                    for i in 0..=nrows {
                        let h = mix(seed ^ i as u64);
                        let null = match nulls {
                            1 => h.is_multiple_of(3),
                            2 => i == 0,
                            _ => false,
                        };
                        let v = if null { Value::Null } else { value(ty, h) };
                        bat.push(&v).unwrap();
                    }
                    cols.push(bat);
                    defs.push(ColumnDef::new(format!("c{j}"), ty));
                }
                let schema = Schema::new(defs);
                // Drop row 0: mode-2 columns keep an all-true validity map.
                let chunk = Chunk::new(cols).unwrap().slice_oids(1, nrows as u64 + 1);
                let rows: Vec<Row> = chunk.rows().collect();
                let (mut by_rows, mut by_cols) = (Vec::new(), Vec::new());
                encode_batch(&mut by_rows, &schema, &rows);
                encode_batch_chunk(&mut by_cols, &schema, &chunk);
                prop_assert_eq!(by_cols, by_rows);
            }
        }
    }

    #[test]
    fn type_tags_are_stable() {
        for ty in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Timestamp,
        ] {
            assert_eq!(type_from_tag(type_tag(ty)).unwrap(), ty);
        }
        assert!(type_from_tag(9).is_err());
    }
}
