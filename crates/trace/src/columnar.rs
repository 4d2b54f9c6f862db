//! Binary columnar trace capture — the production-cheap record format.
//!
//! Streamed JSONL (see [`crate::stream`]) is lossless but pays ~90 bytes
//! and a `core::fmt`-free-but-still-textual encode per record; at 64×64+
//! fabric sizes that is the difference between always-on tracing and
//! tracing you turn off. This module defines a compact binary framing of
//! the same [`TraceRecord`] stream:
//!
//! * records are grouped into **frames** (one frame per writer chunk);
//! * within a frame, like data lives in **columns**: one kind-tag byte
//!   per record, zigzag **delta-encoded cycle stamps**, an optional
//!   explicit sequence column (omitted entirely in the common case where
//!   sequence numbers are consecutive), and a varint payload column;
//! * the wide `u64` identifier spaces (circuit, probe, message ids) are
//!   **interned** into a per-frame dictionary in first-appearance order,
//!   so payloads reference 1–2 byte indices instead of repeating 5-byte
//!   varints;
//! * booleans (`force`, `misroute`) fold into the kind-tag byte.
//!
//! The result is typically 6–9 bytes per record — less than a tenth of
//! the JSONL line — and the encoder is pure integer appends, cheap enough
//! to gate emission+encode below 5 % of the untraced run on one core.
//!
//! Decoding reproduces every record *exactly* (`at`, `seq`, and event
//! fields), so a binary capture converts to byte-identical JSONL and all
//! analytics consume either format through [`crate::stream::TraceReader`].
//! The format is deliberately self-contained per frame: a truncated file
//! loses at most its trailing frame, and frames decode with bounded
//! memory.

use crate::schema::{FieldSink, FieldSource};
use crate::stream::ChunkEncoder;
use crate::{PlaneId, TraceEvent, TraceRecord, TraceSink};

/// File magic prefixing every columnar capture (8 bytes, version baked in).
pub const MAGIC: [u8; 8] = *b"WSTRACE1";

/// Frame flag bit: an explicit sequence column follows the cycle column.
const FLAG_EXPLICIT_SEQ: u8 = 0x01;

/// Kind-tag bit carrying the variant's boolean field (`force`/`misroute`).
///
/// Kind tags come from the schema table ([`crate::schema`]): `plane_tick`
/// folds its plane into the tag, so the 23 enum variants span 25 tag
/// values below this bit. Tags are part of the on-disk format: append
/// only.
pub(crate) const TAG_BOOL: u8 = 0x40;

// ---------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
#[inline]
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Zigzag-maps a signed delta so small magnitudes stay small varints.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads one varint from `bytes` at `*pos`, advancing it.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or("truncated varint (unexpected end of frame)")?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint overflows u64".into());
        }
        v |= u64::from(b & 0x7f)
            .checked_shl(shift)
            .ok_or("varint overflows u64")?;
        if b & 0x80 == 0 {
            // Reject non-canonical encodings that would silently alias.
            if shift == 63 && b > 1 {
                return Err("varint overflows u64".into());
            }
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------
// Per-frame id interner
// ---------------------------------------------------------------------

/// Open-addressing `u64 -> dictionary index` map, rebuilt per frame.
///
/// `std::collections::HashMap`'s SipHash costs more than the whole rest
/// of a record's encode; ids only need a collision-resistant-enough
/// multiplicative hash and linear probing over a half-empty table.
struct Interner {
    /// Slot -> dictionary index, `u32::MAX` = empty.
    slots: Vec<u32>,
    /// Distinct values in first-appearance order (the frame dictionary).
    dict: Vec<u64>,
}

impl Interner {
    fn new() -> Self {
        Self {
            slots: vec![u32::MAX; 1024],
            dict: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.slots.fill(u32::MAX);
        self.dict.clear();
    }

    #[inline]
    fn hash(v: u64, mask: usize) -> usize {
        (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
    }

    /// Index of `v` in the frame dictionary, inserting on first sight.
    fn intern(&mut self, v: u64) -> u64 {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(v, mask);
        loop {
            let s = self.slots[i];
            if s == u32::MAX {
                if self.dict.len() * 2 >= self.slots.len() {
                    self.grow();
                    return self.intern(v);
                }
                let idx = self.dict.len() as u32;
                self.dict.push(v);
                self.slots[i] = idx;
                return u64::from(idx);
            }
            if self.dict[s as usize] == v {
                return u64::from(s);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(cap, u32::MAX);
        let mask = cap - 1;
        for (idx, &v) in self.dict.iter().enumerate() {
            let mut i = Self::hash(v, mask);
            while self.slots[i] != u32::MAX {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32;
        }
    }
}

// ---------------------------------------------------------------------
// Frame encoder
// ---------------------------------------------------------------------

/// Encodes record chunks into self-contained columnar frames.
///
/// One encoder instance serves a whole stream; its column scratch buffers
/// and interner are reused across frames, so steady-state encoding
/// allocates nothing. Frame layout (all integers varint unless noted):
///
/// ```text
/// n_records
/// flags            (1 byte; bit 0 = explicit seq column)
/// first_at         (absolute cycle of the frame's first record)
/// first_seq        (absolute sequence of the frame's first record)
/// dict_len, dict_len × id value         (first-appearance order)
/// kinds_len,   kinds_len bytes          (1 tag byte per record)
/// cycles_len,  cycle column bytes       (zigzag delta per record after the first)
/// [seqs_len,   seq column bytes]        (only when flags bit 0 set)
/// payload_len, payload column bytes     (varint fields, variant order)
/// ```
#[derive(Default)]
pub struct FrameEncoder {
    interner: Option<Interner>,
    kinds: Vec<u8>,
    cycles: Vec<u8>,
    seqs: Vec<u8>,
    payload: Vec<u8>,
}

impl FrameEncoder {
    /// A fresh encoder (emits the stream header before its first frame).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one frame holding `recs` to `out`. Empty chunks emit
    /// nothing.
    pub fn encode_frame(&mut self, recs: &[TraceRecord], out: &mut Vec<u8>) {
        if recs.is_empty() {
            return;
        }
        let interner = self.interner.get_or_insert_with(Interner::new);
        interner.clear();
        self.kinds.clear();
        self.cycles.clear();
        self.seqs.clear();
        self.payload.clear();

        // The hub stamps consecutive sequence numbers; only sampled
        // streams have gaps. Scan once and drop the column when implicit.
        let consecutive = recs
            .windows(2)
            .all(|w| w[1].seq.wrapping_sub(w[0].seq) == 1);

        let mut prev_at = recs[0].at;
        let mut prev_seq = recs[0].seq;
        for rec in recs {
            let mut fields = PayloadSink {
                tag: rec.ev.base_tag(),
                payload: &mut self.payload,
                ids: interner,
            };
            rec.ev.visit(&mut fields);
            self.kinds.push(fields.tag);
            push_varint(
                &mut self.cycles,
                zigzag(rec.at.wrapping_sub(prev_at) as i64),
            );
            prev_at = rec.at;
            if !consecutive {
                push_varint(
                    &mut self.seqs,
                    zigzag(rec.seq.wrapping_sub(prev_seq) as i64),
                );
            }
            prev_seq = rec.seq;
        }

        push_varint(out, recs.len() as u64);
        out.push(if consecutive { 0 } else { FLAG_EXPLICIT_SEQ });
        push_varint(out, recs[0].at);
        push_varint(out, recs[0].seq);
        push_varint(out, interner.dict.len() as u64);
        for &v in &interner.dict {
            push_varint(out, v);
        }
        for col in [&self.kinds, &self.cycles] {
            push_varint(out, col.len() as u64);
            out.extend_from_slice(col);
        }
        if !consecutive {
            push_varint(out, self.seqs.len() as u64);
            out.extend_from_slice(&self.seqs);
        }
        push_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
    }
}

impl ChunkEncoder for FrameEncoder {
    fn header(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
    }

    fn encode_chunk(&mut self, recs: &[TraceRecord], out: &mut Vec<u8>) {
        self.encode_frame(recs, out);
    }
}

/// Appends an event's fields to the payload column, folding the bool and
/// plane fields into its kind tag.
struct PayloadSink<'a> {
    tag: u8,
    payload: &'a mut Vec<u8>,
    ids: &'a mut Interner,
}

impl FieldSink for PayloadSink<'_> {
    fn id(&mut self, _: &'static str, v: u64) {
        push_varint(self.payload, self.ids.intern(v));
    }

    fn u64(&mut self, _: &'static str, v: u64) {
        push_varint(self.payload, v);
    }

    fn bool(&mut self, _: &'static str, v: bool) {
        if v {
            self.tag |= TAG_BOOL;
        }
    }

    fn plane(&mut self, _: &'static str, v: PlaneId) {
        self.tag += v as u8;
    }
}

// ---------------------------------------------------------------------
// Inline sink (no writer thread)
// ---------------------------------------------------------------------

/// A columnar sink that encodes synchronously into an in-memory byte
/// buffer — no writer thread, no I/O.
///
/// This is the *emission + encode* measurement arm of the trace-overhead
/// bench (the number that must stay under 5 % on a single core, where a
/// background writer cannot hide any work), and the test fixture for
/// round-trip properties. Production captures use the threaded
/// [`ColumnarSink`](crate::stream::ColumnarSink) instead.
pub struct ColumnarBuf {
    enc: FrameEncoder,
    chunk: Vec<TraceRecord>,
    chunk_cap: usize,
    bytes: Vec<u8>,
    total: u64,
}

impl ColumnarBuf {
    /// An empty capture with the default frame size.
    #[must_use]
    pub fn new() -> Self {
        Self::with_chunk(crate::stream::CHUNK_RECORDS)
    }

    /// An empty capture sealing a frame every `chunk_cap` records.
    ///
    /// # Panics
    /// Panics if `chunk_cap` is zero.
    #[must_use]
    pub fn with_chunk(chunk_cap: usize) -> Self {
        assert!(chunk_cap > 0, "frame capacity must be positive");
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::with_capacity(64 * 1024);
        enc.header(&mut bytes);
        Self {
            enc,
            chunk: Vec::with_capacity(chunk_cap),
            chunk_cap,
            bytes,
            total: 0,
        }
    }

    /// Seals the in-progress frame and returns the encoded capture.
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.enc.encode_frame(&self.chunk, &mut self.bytes);
        self.bytes
    }
}

impl Default for ColumnarBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for ColumnarBuf {
    fn record(&mut self, rec: TraceRecord) {
        self.total += 1;
        self.chunk.push(rec);
        if self.chunk.len() >= self.chunk_cap {
            self.enc.encode_frame(&self.chunk, &mut self.bytes);
            self.chunk.clear();
        }
    }

    fn record_many(&mut self, recs: &[TraceRecord]) {
        self.total += recs.len() as u64;
        let mut rest = recs;
        while !rest.is_empty() {
            let take = (self.chunk_cap - self.chunk.len()).min(rest.len());
            self.chunk.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.chunk.len() >= self.chunk_cap {
                self.enc.encode_frame(&self.chunk, &mut self.bytes);
                self.chunk.clear();
            }
        }
    }

    fn total(&self) -> u64 {
        self.total
    }
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

/// Streaming decoder over an in-memory columnar capture: yields records
/// frame by frame through [`crate::stream::TraceReader`].
pub struct ColumnarReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    frame: Vec<TraceRecord>,
    next: usize,
    failed: bool,
}

impl<'a> ColumnarReader<'a> {
    /// A reader over `bytes`, which must start with [`MAGIC`].
    ///
    /// # Errors
    /// Fails when the magic prefix is missing (not a columnar capture).
    pub fn new(bytes: &'a [u8]) -> Result<Self, String> {
        let rest = bytes
            .strip_prefix(&MAGIC[..])
            .ok_or("not a columnar trace (missing WSTRACE1 magic)")?;
        Ok(Self {
            bytes: rest,
            pos: 0,
            frame: Vec::new(),
            next: 0,
            failed: false,
        })
    }

    /// Decodes the next frame into `self.frame`; false at end of input.
    fn decode_frame(&mut self) -> Result<bool, String> {
        self.frame.clear();
        self.next = 0;
        decode_frame_into(self.bytes, &mut self.pos, &mut self.frame)
    }
}

/// Decodes one frame of `b` (no magic prefix) starting at `*pos` into
/// `frame`, advancing `*pos` past it. `Ok(false)` at end of input; on
/// `Err` the position is unspecified. Shared by the in-memory
/// [`ColumnarReader`] and the incremental [`FrameStream`].
fn decode_frame_into(
    b: &[u8],
    pos: &mut usize,
    frame: &mut Vec<TraceRecord>,
) -> Result<bool, String> {
    if *pos >= b.len() {
        return Ok(false);
    }
    let n = read_varint(b, pos)? as usize;
    if n == 0 {
        return Err("empty frame".into());
    }
    let &flags = b.get(*pos).ok_or("truncated frame header")?;
    *pos += 1;
    if flags & !FLAG_EXPLICIT_SEQ != 0 {
        return Err(format!("unknown frame flags 0x{flags:02x}"));
    }
    let first_at = read_varint(b, pos)?;
    let first_seq = read_varint(b, pos)?;
    let dict_len = read_varint(b, pos)? as usize;
    let mut dict = Vec::with_capacity(dict_len.min(1 << 20));
    for _ in 0..dict_len {
        dict.push(read_varint(b, pos)?);
    }
    let take_col = |pos: &mut usize| -> Result<(usize, usize), String> {
        let len = read_varint(b, pos)? as usize;
        let start = *pos;
        let end = start.checked_add(len).ok_or("column length overflow")?;
        if end > b.len() {
            return Err("truncated column".into());
        }
        *pos = end;
        Ok((start, end))
    };
    let (kinds_s, kinds_e) = take_col(pos)?;
    if kinds_e - kinds_s != n {
        return Err(format!(
            "kind column holds {} tags for {n} records",
            kinds_e - kinds_s
        ));
    }
    let (cyc_s, cyc_e) = take_col(pos)?;
    let (seq_s, seq_e) = if flags & FLAG_EXPLICIT_SEQ != 0 {
        take_col(pos)?
    } else {
        (0, 0)
    };
    let (pay_s, pay_e) = take_col(pos)?;

    let mut cyc = cyc_s;
    let mut seqp = seq_s;
    let mut pay = pay_s;
    let mut at = first_at;
    let mut seq = first_seq;
    frame.reserve(n);
    for (i, &tag) in b[kinds_s..kinds_e].iter().enumerate() {
        let d = unzigzag(read_varint(&b[..cyc_e], &mut cyc)?);
        at = if i == 0 {
            first_at
        } else {
            at.wrapping_add(d as u64)
        };
        if flags & FLAG_EXPLICIT_SEQ != 0 {
            let d = unzigzag(read_varint(&b[..seq_e], &mut seqp)?);
            seq = if i == 0 {
                first_seq
            } else {
                seq.wrapping_add(d as u64)
            };
        } else {
            seq = first_seq + i as u64;
        }
        let ev = decode_event(tag, &b[..pay_e], &mut pay, &dict)?;
        frame.push(TraceRecord { at, seq, ev });
    }
    if cyc != cyc_e || pay != pay_e || seqp != seq_e {
        return Err("frame columns longer than their records".into());
    }
    Ok(true)
}

impl crate::stream::TraceReader for ColumnarReader<'_> {
    fn next_record(&mut self) -> Option<Result<TraceRecord, String>> {
        if self.failed {
            return None;
        }
        while self.next >= self.frame.len() {
            match self.decode_frame() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(format!("columnar frame at byte {}: {e}", self.pos)));
                }
            }
        }
        let rec = self.frame[self.next];
        self.next += 1;
        Some(Ok(rec))
    }
}

/// Incremental frame decoder over an arbitrary byte source.
///
/// Unlike [`ColumnarReader`], which borrows a fully materialized capture,
/// this reads the source in fixed-size gulps and decodes one frame at a
/// time: peak memory is one frame's records plus the undecoded window,
/// never the capture size — the multi-GB post-mortem path.
///
/// The source must be positioned *after* the [`MAGIC`] prefix (the
/// format sniffer consumes it).
pub struct FrameStream<R: std::io::Read> {
    src: R,
    /// Bytes read but not yet decoded; `pos` marks the consumed prefix.
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
}

/// Bytes [`FrameStream`] reads from its source per refill.
const STREAM_GULP: usize = 256 * 1024;

impl<R: std::io::Read> FrameStream<R> {
    /// A frame stream over `src` (positioned past the magic).
    pub fn new(src: R) -> Self {
        Self {
            src,
            buf: Vec::new(),
            pos: 0,
            eof: false,
        }
    }

    /// Tops the window up with one gulp; records end-of-source.
    fn refill(&mut self) -> Result<(), String> {
        // Drop the consumed prefix before growing so the window stays
        // proportional to one frame, not the bytes read so far.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let start = self.buf.len();
        self.buf.resize(start + STREAM_GULP, 0);
        let mut filled = start;
        while filled < self.buf.len() {
            match self.src.read(&mut self.buf[filled..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("trace stream read: {e}")),
            }
        }
        self.buf.truncate(filled);
        Ok(())
    }

    /// Decodes the next frame into `frame` (cleared first). `Ok(false)`
    /// at end of source.
    ///
    /// # Errors
    /// Fails on I/O errors or a frame that is still malformed once the
    /// whole source is available to it.
    pub fn next_frame(&mut self, frame: &mut Vec<TraceRecord>) -> Result<bool, String> {
        loop {
            frame.clear();
            let mut pos = self.pos;
            match decode_frame_into(&self.buf, &mut pos, frame) {
                Ok(true) => {
                    self.pos = pos;
                    return Ok(true);
                }
                Ok(false) if self.eof => return Ok(false),
                // A decode error on a partial window usually just means
                // the frame is split across gulps: read more and retry.
                // Only an error with the whole source in view is real.
                Ok(false) | Err(_) if !self.eof => self.refill()?,
                Err(e) => return Err(e),
                Ok(false) => return Ok(false),
            }
        }
    }
}

/// Decodes a whole in-memory columnar capture, oldest first.
///
/// # Errors
/// Fails on a missing magic prefix or any malformed frame.
pub fn read_columnar(bytes: &[u8]) -> Result<Vec<TraceRecord>, String> {
    use crate::stream::TraceReader as _;
    ColumnarReader::new(bytes)?.read_all()
}

/// Reads an event's fields from the payload column; the bool and plane
/// fields come from the kind tag.
struct PayloadSource<'a> {
    payload: &'a [u8],
    pos: &'a mut usize,
    dict: &'a [u64],
    /// The tag's bool bit; a `bool` field consumes (clears) it.
    flag: bool,
}

impl FieldSource for PayloadSource<'_> {
    fn id(&mut self, _: &'static str) -> Result<u64, String> {
        let idx = read_varint(self.payload, self.pos)? as usize;
        self.dict
            .get(idx)
            .copied()
            .ok_or_else(|| format!("id index {idx} outside frame dictionary"))
    }

    fn u64(&mut self, _: &'static str) -> Result<u64, String> {
        read_varint(self.payload, self.pos)
    }

    fn bool(&mut self, _: &'static str) -> Result<bool, String> {
        Ok(std::mem::take(&mut self.flag))
    }

    fn plane(&mut self, _: &'static str, folded: u8) -> Result<PlaneId, String> {
        Ok(PlaneId::ALL[usize::from(folded)])
    }
}

/// Decodes the payload fields of one record.
fn decode_event(tag: u8, b: &[u8], pos: &mut usize, dict: &[u64]) -> Result<TraceEvent, String> {
    let mut src = PayloadSource {
        payload: b,
        pos,
        dict,
        flag: tag & TAG_BOOL != 0,
    };
    let ev = TraceEvent::decode_tag(tag & !TAG_BOOL, &mut src)?;
    if src.flag {
        return Err(format!(
            "kind tag 0x{tag:02x} sets the flag bit but `{}` has no flag",
            ev.kind()
        ));
    }
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(recs: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::new();
        enc.header(&mut bytes);
        enc.encode_frame(recs, &mut bytes);
        read_columnar(&bytes).expect("own output decodes")
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_capture_is_just_magic() {
        let bytes = ColumnarBuf::new().into_bytes();
        assert_eq!(bytes, MAGIC);
        assert!(read_columnar(&bytes).unwrap().is_empty());
    }

    #[test]
    fn consecutive_seqs_omit_the_seq_column() {
        let recs: Vec<TraceRecord> = (0..100)
            .map(|i| TraceRecord {
                at: 10 + i,
                seq: 40 + i,
                ev: TraceEvent::CacheMiss {
                    node: 1,
                    dest: i as u32,
                },
            })
            .collect();
        let mut gapped = recs.clone();
        gapped[50].seq += 7; // forces the explicit column
        assert_eq!(roundtrip(&recs), recs);
        assert_eq!(roundtrip(&gapped), gapped);
        let size = |rs: &[TraceRecord]| {
            let mut enc = FrameEncoder::new();
            let mut bytes = Vec::new();
            enc.encode_frame(rs, &mut bytes);
            bytes.len()
        };
        assert!(size(&recs) < size(&gapped), "implicit seqs must be free");
    }

    #[test]
    fn interner_survives_growth_and_collisions() {
        let mut i = Interner::new();
        // More distinct ids than the initial table's load limit.
        for v in 0..5000u64 {
            let idx = i.intern(v.wrapping_mul(0x1234_5678_9abc_def1));
            assert_eq!(idx, v, "first appearance order");
        }
        // Re-interning returns the same indices.
        for v in 0..5000u64 {
            assert_eq!(i.intern(v.wrapping_mul(0x1234_5678_9abc_def1)), v);
        }
    }

    #[test]
    fn truncated_capture_reports_an_error() {
        let recs = vec![TraceRecord {
            at: 5,
            seq: 0,
            ev: TraceEvent::CircuitReleased { circuit: 77 },
        }];
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::new();
        enc.header(&mut bytes);
        enc.encode_frame(&recs, &mut bytes);
        let cut = &bytes[..bytes.len() - 1];
        assert!(read_columnar(cut).is_err());
        assert!(read_columnar(b"JUNKDATA").is_err());
    }

    #[test]
    fn flag_bit_on_a_flagless_kind_is_rejected() {
        let rec = TraceRecord {
            at: 5,
            seq: 0,
            ev: TraceEvent::CacheMiss { node: 1, dest: 2 },
        };
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::new();
        enc.header(&mut bytes);
        enc.encode_frame(&[rec], &mut bytes);
        assert_eq!(read_columnar(&bytes).unwrap(), vec![rec]);
        // Magic, then n, flags, first_at, first_seq, dict_len, kinds_len
        // (one byte each here), then the record's kind tag.
        let tag = MAGIC.len() + 6;
        assert_eq!(bytes[tag], rec.ev.base_tag());
        bytes[tag] |= TAG_BOOL;
        let err = read_columnar(&bytes).unwrap_err();
        assert!(err.contains("flag"), "{err}");
    }
}
