//! Lossless streaming trace capture (JSONL and binary columnar).
//!
//! The flight recorder keeps the *last N* records; paper-scale runs need
//! the *whole* stream. This module provides the streaming machinery: the
//! hot path appends `Copy` records to an in-progress chunk, and full
//! chunks are handed to a dedicated writer thread over a bounded channel.
//! Encoding and file I/O happen entirely off the simulation thread; if
//! the writer falls behind, the bounded channel applies backpressure
//! instead of growing without limit. [`TraceSink::finish`] drains the
//! queue and flushes the writer.
//!
//! Two encoders share that plumbing through [`ChunkEncoder`]:
//!
//! * [`JsonlSink`] writes one JSON object per line, using the same schema
//!   as [`crate::postmortem::record_to_json`], so a captured file
//!   round-trips back into [`TraceRecord`]s via [`read_jsonl`];
//! * [`ColumnarSink`] writes the compact binary frame format of
//!   [`crate::columnar`] — typically under a tenth of the JSONL bytes —
//!   which round-trips via [`crate::columnar::read_columnar`].
//!
//! Reading is format-agnostic: [`read_trace_file`] sniffs the
//! [`crate::columnar::MAGIC`] prefix ([`TraceFormat::detect`]) and every
//! decoder is a [`TraceReader`], so the analyzer and the CLI never care
//! which format a capture used.
//!
//! Saturated runs can cap bytes deterministically with
//! [`StreamSink::with_sampling`]: bulk kinds (tick markers, per-hop probe
//! movement, cache lookups) keep 1-in-N records by a counter over the
//! deterministic record order, while every lifecycle and delivery event
//! is always kept — so spans, flows and fault windows stay exact and the
//! sampled stream is identical at any shard count.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use wavesim_json::Value;

use crate::columnar::FrameEncoder;
use crate::schema::{FieldSink, FieldSource};
use crate::{PlaneId, TraceEvent, TraceRecord, TraceSink};

/// Records per chunk handed to the writer thread (also the columnar
/// frame size).
pub const CHUNK_RECORDS: usize = 8192;
/// Chunks the bounded queue may hold before the hot path blocks.
const QUEUE_CHUNKS: usize = 8;

// ---------------------------------------------------------------------
// Chunk encoders
// ---------------------------------------------------------------------

/// Turns chunks of records into bytes on the writer thread.
///
/// Implementations run off the simulation thread and may keep scratch
/// state across chunks (the columnar encoder reuses its column buffers).
pub trait ChunkEncoder: Send + 'static {
    /// Appends the stream header (file magic) once, before any chunk.
    fn header(&mut self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Appends the encoding of `recs` to `out`.
    fn encode_chunk(&mut self, recs: &[TraceRecord], out: &mut Vec<u8>);
}

/// [`ChunkEncoder`] emitting one compact JSON object per line.
#[derive(Default)]
pub struct JsonlEncoder {
    text: String,
}

impl ChunkEncoder for JsonlEncoder {
    fn encode_chunk(&mut self, recs: &[TraceRecord], out: &mut Vec<u8>) {
        self.text.clear();
        for rec in recs {
            encode_record(&mut self.text, rec);
            self.text.push('\n');
        }
        out.extend_from_slice(self.text.as_bytes());
    }
}

// ---------------------------------------------------------------------
// The streaming sink
// ---------------------------------------------------------------------

/// Streaming trace sink: chunks of records encoded and written by a
/// background thread, bounded memory, lossless (unless sampling is
/// requested explicitly).
///
/// Retains nothing in memory (`snapshot` is empty); pair it with a ring
/// buffer via [`TeeSink`](crate::recorder::TeeSink) when the post-mortem
/// machinery also needs a tail snapshot. Use the [`JsonlSink`] /
/// [`ColumnarSink`] aliases rather than naming the encoder directly.
pub struct StreamSink<W: Write + Send + 'static, E: ChunkEncoder> {
    tx: Option<SyncSender<Vec<TraceRecord>>>,
    handle: Option<JoinHandle<io::Result<W>>>,
    chunk: Vec<TraceRecord>,
    chunk_cap: usize,
    total: u64,
    lost: u64,
    /// Keep 1-in-N bulk-kind records; 0 or 1 = keep everything.
    sample_every: u64,
    /// Bulk-kind records seen (the deterministic sampling clock).
    bulk_seen: u64,
    error: Option<String>,
    _enc: PhantomData<fn() -> E>,
}

/// Streaming JSONL sink: one JSON line per record.
pub type JsonlSink<W> = StreamSink<W, JsonlEncoder>;

/// Streaming binary columnar sink: [`crate::columnar`] frames.
pub type ColumnarSink<W> = StreamSink<W, FrameEncoder>;

impl<E: ChunkEncoder + Default> StreamSink<BufWriter<File>, E> {
    /// Creates (truncating) `path` and streams records to it.
    ///
    /// # Errors
    /// Fails when the file cannot be created.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(BufWriter::new(file)))
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder + Default> StreamSink<W, E> {
    /// Streams records to `writer` with the default chunk size.
    pub fn new(writer: W) -> Self {
        Self::with_chunk(writer, CHUNK_RECORDS)
    }

    /// Streams records to `writer`, handing off every `chunk_cap` records.
    ///
    /// # Panics
    /// Panics if `chunk_cap` is zero.
    pub fn with_chunk(writer: W, chunk_cap: usize) -> Self {
        Self::with_encoder(writer, E::default(), chunk_cap)
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder> StreamSink<W, E> {
    /// Streams records through an explicitly constructed encoder — the
    /// entry point for stateful encoders that carry shared handles (the
    /// live-analytics fold rides this with an `io::sink()` writer).
    ///
    /// # Panics
    /// Panics if `chunk_cap` is zero.
    pub fn with_encoder(writer: W, enc: E, chunk_cap: usize) -> Self {
        assert!(chunk_cap > 0, "chunk capacity must be positive");
        let (tx, rx) = sync_channel(QUEUE_CHUNKS);
        let handle = std::thread::spawn(move || writer_loop(writer, enc, &rx));
        Self {
            tx: Some(tx),
            handle: Some(handle),
            chunk: Vec::with_capacity(chunk_cap),
            chunk_cap,
            total: 0,
            lost: 0,
            sample_every: 0,
            bulk_seen: 0,
            error: None,
            _enc: PhantomData,
        }
    }

    /// Keeps only 1-in-`every` records of the bulk kinds (see
    /// [`is_bulk_kind`]); lifecycle and delivery events are always kept.
    ///
    /// Sampling is a counter over the deterministic record order, so the
    /// kept set — and therefore the captured bytes — is identical across
    /// reruns and shard counts. `every` of 0 or 1 disables sampling.
    #[must_use]
    pub fn with_sampling(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder> StreamSink<W, E> {
    /// Hands the in-progress chunk to the writer thread.
    fn flush_chunk(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        if let Some(tx) = &self.tx {
            let full = std::mem::replace(&mut self.chunk, Vec::with_capacity(self.chunk_cap));
            if tx.send(full).is_err() {
                // The writer thread died (I/O error); the error surfaces on
                // finish. Stop sending and count what we could not persist.
                self.tx = None;
                self.lost += self.chunk_cap as u64;
            }
        } else {
            self.lost += self.chunk.len() as u64;
            self.chunk.clear();
        }
    }

    /// Stops the writer thread and collects its result.
    fn shutdown(&mut self) -> Result<Option<W>, String> {
        self.flush_chunk();
        drop(self.tx.take());
        let Some(handle) = self.handle.take() else {
            return match self.error.take() {
                Some(e) => Err(e),
                None => Ok(None),
            };
        };
        match handle.join() {
            Ok(Ok(w)) => {
                if self.lost > 0 {
                    Err(format!("trace stream lost {} records", self.lost))
                } else {
                    Ok(Some(w))
                }
            }
            Ok(Err(e)) => Err(format!("trace stream i/o error: {e}")),
            Err(_) => Err("trace stream writer thread panicked".into()),
        }
    }

    /// Finishes the stream and returns the underlying writer (tests use
    /// this to inspect an in-memory capture).
    ///
    /// # Errors
    /// Fails when the writer thread hit an I/O error, records were lost,
    /// or the stream already finished.
    pub fn finish_into(mut self) -> Result<W, String> {
        match self.shutdown() {
            Ok(Some(w)) => Ok(w),
            Ok(None) => Err("stream already finished".into()),
            Err(e) => Err(e),
        }
    }
}

/// True for the kinds [`StreamSink::with_sampling`] thins; see
/// [`TraceEvent::is_bulk`].
#[must_use]
pub fn is_bulk_kind(ev: &TraceEvent) -> bool {
    ev.is_bulk()
}

impl<W: Write + Send + 'static, E: ChunkEncoder> TraceSink for StreamSink<W, E> {
    fn record(&mut self, rec: TraceRecord) {
        self.total += 1;
        if self.sample_every > 1 && is_bulk_kind(&rec.ev) {
            let keep = self.bulk_seen.is_multiple_of(self.sample_every);
            self.bulk_seen += 1;
            if !keep {
                return;
            }
        }
        self.chunk.push(rec);
        if self.chunk.len() >= self.chunk_cap {
            self.flush_chunk();
        }
    }

    fn record_many(&mut self, recs: &[TraceRecord]) {
        if self.sample_every > 1 {
            for rec in recs {
                self.record(*rec);
            }
            return;
        }
        self.total += recs.len() as u64;
        let mut rest = recs;
        while !rest.is_empty() {
            let take = (self.chunk_cap - self.chunk.len()).min(rest.len());
            self.chunk.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.chunk.len() >= self.chunk_cap {
                self.flush_chunk();
            }
        }
    }

    fn dropped(&self) -> u64 {
        self.lost
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn finish(&mut self) -> Result<(), String> {
        let res = self.shutdown().map(|_| ());
        if let Err(e) = &res {
            self.error = Some(e.clone());
        }
        res
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder> Drop for StreamSink<W, E> {
    fn drop(&mut self) {
        // Best effort: never panic in drop; finish() reports errors.
        let _ = self.shutdown();
    }
}

/// The writer thread: encodes chunks and writes them out.
fn writer_loop<W: Write, E: ChunkEncoder>(
    mut w: W,
    mut enc: E,
    rx: &Receiver<Vec<TraceRecord>>,
) -> io::Result<W> {
    let mut bytes = Vec::with_capacity(64 * 1024);
    enc.header(&mut bytes);
    w.write_all(&bytes)?;
    for chunk in rx {
        bytes.clear();
        enc.encode_chunk(&chunk, &mut bytes);
        w.write_all(&bytes)?;
    }
    w.flush()?;
    Ok(w)
}

// ---------------------------------------------------------------------
// Format detection and the reader trait
// ---------------------------------------------------------------------

/// On-disk encoding of a trace capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (`{"at":...`).
    Jsonl,
    /// Binary columnar frames behind the `WSTRACE1` magic.
    Columnar,
}

impl TraceFormat {
    /// Sniffs the format from a capture's leading bytes: the columnar
    /// magic wins, anything else is treated as JSONL.
    #[must_use]
    pub fn detect(bytes: &[u8]) -> Self {
        if bytes.starts_with(&crate::columnar::MAGIC) {
            TraceFormat::Columnar
        } else {
            TraceFormat::Jsonl
        }
    }
}

/// A streaming decoder over a trace capture, format-agnostic.
///
/// Both [`JsonlReader`] and [`crate::columnar::ColumnarReader`] implement
/// this, so consumers (the analyzer, the converter, the window series)
/// never branch on format past the initial sniff.
pub trait TraceReader {
    /// The next record, `None` at end of stream. After an `Err` the
    /// reader is done (subsequent calls return `None`).
    fn next_record(&mut self) -> Option<Result<TraceRecord, String>>;

    /// Drains the reader into a vector, oldest first.
    ///
    /// # Errors
    /// Fails on the first malformed record.
    fn read_all(&mut self) -> Result<Vec<TraceRecord>, String> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record() {
            out.push(rec?);
        }
        Ok(out)
    }
}

/// Streaming decoder over JSONL text: one record per non-blank line.
pub struct JsonlReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
    failed: bool,
}

impl<'a> JsonlReader<'a> {
    /// A reader over `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines(),
            line_no: 0,
            failed: false,
        }
    }
}

impl TraceReader for JsonlReader<'_> {
    fn next_record(&mut self) -> Option<Result<TraceRecord, String>> {
        if self.failed {
            return None;
        }
        loop {
            let line = self.lines.next()?;
            self.line_no += 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let res = Value::parse(line)
                .map_err(|e| format!("line {}: {e}", self.line_no))
                .and_then(|v| {
                    record_from_json(&v).map_err(|e| format!("line {}: {e}", self.line_no))
                });
            if res.is_err() {
                self.failed = true;
            }
            return Some(res);
        }
    }
}

/// Decodes an in-memory capture of either format, oldest first.
///
/// # Errors
/// Fails on malformed content (or non-UTF-8 bytes without the columnar
/// magic).
pub fn read_trace_bytes(bytes: &[u8]) -> Result<Vec<TraceRecord>, String> {
    match TraceFormat::detect(bytes) {
        TraceFormat::Columnar => crate::columnar::read_columnar(bytes),
        TraceFormat::Jsonl => {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| "trace is neither columnar (no magic) nor UTF-8 JSONL".to_string())?;
            read_jsonl(text)
        }
    }
}

/// Reads and decodes a trace file, auto-detecting its format.
///
/// # Errors
/// Fails when the file cannot be read or its content is malformed.
pub fn read_trace_file(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_trace_bytes(&bytes)
}

// ---------------------------------------------------------------------
// Incremental readers over io::Read sources
// ---------------------------------------------------------------------

/// A format-agnostic incremental decoder over any byte source.
///
/// Where [`read_trace_file`] materializes the whole capture,
/// this sniffs the format from the leading bytes and then yields records
/// one at a time — JSONL line by line, columnar frame by frame — so peak
/// memory is one frame (plus the read window), whatever the capture size.
/// `convert-trace` and `analyze` run on this.
pub struct StreamingReader<R: io::Read> {
    inner: StreamingInner<R>,
    failed: bool,
}

/// The sniffed leading bytes chained back in front of the source.
type Resumed<R> = io::Chain<io::Cursor<Vec<u8>>, R>;

enum StreamingInner<R: io::Read> {
    Jsonl {
        src: io::BufReader<Resumed<R>>,
        line: String,
        line_no: usize,
    },
    Columnar {
        frames: crate::columnar::FrameStream<Resumed<R>>,
        frame: Vec<TraceRecord>,
        next: usize,
    },
}

impl<R: io::Read> StreamingReader<R> {
    /// Sniffs the format from `src`'s first bytes and builds the matching
    /// incremental decoder.
    ///
    /// # Errors
    /// Fails when the source cannot be read at all.
    pub fn new(mut src: R) -> Result<Self, String> {
        use std::io::Read as _;
        // Pull just enough bytes to check for the columnar magic; hand
        // anything that is not the magic back to the line reader.
        let mut head = vec![0u8; crate::columnar::MAGIC.len()];
        let mut got = 0;
        while got < head.len() {
            match src.read(&mut head[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("trace stream read: {e}")),
            }
        }
        head.truncate(got);
        let inner = if TraceFormat::detect(&head) == TraceFormat::Columnar {
            StreamingInner::Columnar {
                frames: crate::columnar::FrameStream::new(io::Cursor::new(Vec::new()).chain(src)),
                frame: Vec::new(),
                next: 0,
            }
        } else {
            StreamingInner::Jsonl {
                src: io::BufReader::new(io::Cursor::new(head).chain(src)),
                line: String::new(),
                line_no: 0,
            }
        };
        Ok(Self {
            inner,
            failed: false,
        })
    }

    /// The sniffed source format.
    #[must_use]
    pub fn format(&self) -> TraceFormat {
        match self.inner {
            StreamingInner::Jsonl { .. } => TraceFormat::Jsonl,
            StreamingInner::Columnar { .. } => TraceFormat::Columnar,
        }
    }
}

impl<R: io::Read> TraceReader for StreamingReader<R> {
    fn next_record(&mut self) -> Option<Result<TraceRecord, String>> {
        if self.failed {
            return None;
        }
        let res = match &mut self.inner {
            StreamingInner::Jsonl { src, line, line_no } => loop {
                use std::io::BufRead as _;
                line.clear();
                match src.read_line(line) {
                    Ok(0) => return None,
                    Ok(_) => {}
                    Err(e) => break Err(format!("line {}: read error: {e}", *line_no + 1)),
                }
                *line_no += 1;
                let text = line.trim();
                if text.is_empty() {
                    continue;
                }
                break Value::parse(text)
                    .map_err(|e| format!("line {line_no}: {e}"))
                    .and_then(|v| {
                        record_from_json(&v).map_err(|e| format!("line {line_no}: {e}"))
                    });
            },
            StreamingInner::Columnar {
                frames,
                frame,
                next,
            } => {
                if *next >= frame.len() {
                    match frames.next_frame(frame) {
                        Ok(true) => *next = 0,
                        Ok(false) => return None,
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
                let rec = frame[*next];
                *next += 1;
                return Some(Ok(rec));
            }
        };
        if res.is_err() {
            self.failed = true;
        }
        Some(res)
    }
}

/// Opens `path` as an incremental [`StreamingReader`] (auto-detected
/// format, bounded memory).
///
/// # Errors
/// Fails when the file cannot be opened.
pub fn stream_trace_file(path: &Path) -> Result<StreamingReader<File>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    StreamingReader::new(file)
}

// ---------------------------------------------------------------------
// JSONL encode/decode
// ---------------------------------------------------------------------

/// Appends `v` in decimal without going through `core::fmt` — the
/// formatting machinery costs ~3× the digits themselves, and the writer
/// thread encodes every record of a traced run.
fn push_u64(buf: &mut String, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // SAFETY-free: tmp[i..] is ASCII digits by construction.
    buf.push_str(std::str::from_utf8(&tmp[i..]).expect("ascii digits"));
}

/// Appends each field as `,"<name>":<value>`; the JSON key is the
/// field's own name, matching `postmortem::record_to_json`.
struct JsonFields<'a>(&'a mut String);

impl JsonFields<'_> {
    fn key(&mut self, name: &str) {
        self.0.push_str(",\"");
        self.0.push_str(name);
        self.0.push_str("\":");
    }
}

impl FieldSink for JsonFields<'_> {
    fn id(&mut self, name: &'static str, v: u64) {
        self.u64(name, v);
    }

    fn u64(&mut self, name: &'static str, v: u64) {
        self.key(name);
        push_u64(self.0, v);
    }

    fn bool(&mut self, name: &'static str, v: bool) {
        self.key(name);
        self.0.push_str(if v { "true" } else { "false" });
    }

    fn plane(&mut self, name: &'static str, v: PlaneId) {
        self.key(name);
        self.0.push('"');
        self.0.push_str(v.name());
        self.0.push('"');
    }
}

/// Appends one record as a compact JSON object (no trailing newline).
///
/// Byte-identical to `postmortem::record_to_json(rec).compact()` — the
/// hand-rolled encoder exists because the writer thread must keep up with
/// the full event rate of a traced run without allocating a [`Value`] tree
/// per record (and without paying `core::fmt` per integer).
pub fn encode_record(buf: &mut String, rec: &TraceRecord) {
    buf.push_str("{\"at\":");
    push_u64(buf, rec.at);
    buf.push_str(",\"seq\":");
    push_u64(buf, rec.seq);
    buf.push_str(",\"type\":\"");
    buf.push_str(rec.ev.kind());
    buf.push('"');
    rec.ev.visit(&mut JsonFields(buf));
    buf.push('}');
}

/// Reads an event's fields from one parsed JSONL object by key.
struct JsonSource<'a>(&'a Value);

impl FieldSource for JsonSource<'_> {
    fn id(&mut self, name: &'static str) -> Result<u64, String> {
        num(self.0, name)
    }

    fn u64(&mut self, name: &'static str) -> Result<u64, String> {
        num(self.0, name)
    }

    fn bool(&mut self, name: &'static str) -> Result<bool, String> {
        self.0
            .get(name)
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("missing or non-bool field `{name}`"))
    }

    fn plane(&mut self, name: &'static str, _folded: u8) -> Result<PlaneId, String> {
        let text = self
            .0
            .get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing or non-string field `{name}`"))?;
        PlaneId::ALL
            .into_iter()
            .find(|p| p.name() == text)
            .ok_or_else(|| format!("unknown plane `{text}`"))
    }
}

/// Parses one JSONL object back into a [`TraceRecord`].
///
/// # Errors
/// Fails on a missing/unknown `type` or missing/mistyped fields.
pub fn record_from_json(v: &Value) -> Result<TraceRecord, String> {
    let at = num(v, "at")?;
    let seq = num(v, "seq")?;
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or("missing `type` field")?;
    let ev = TraceEvent::decode_kind(kind, &mut JsonSource(v))?;
    Ok(TraceRecord { at, seq, ev })
}

/// Parses a whole JSONL text back into records, oldest first.
///
/// Blank lines are skipped.
///
/// # Errors
/// Any malformed line fails the whole parse with its 1-based line number.
pub fn read_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    JsonlReader::new(text).read_all()
}

/// Reads and parses a JSONL trace file.
///
/// # Errors
/// Fails when the file cannot be read or any line is malformed.
pub fn read_jsonl_file(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_jsonl(&text)
}

fn num(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postmortem::record_to_json;

    /// One record of every event kind, with distinctive field values.
    fn sample_records() -> Vec<TraceRecord> {
        let evs = vec![
            TraceEvent::PlaneTick {
                plane: PlaneId::Circuit,
            },
            TraceEvent::ProbeLaunch {
                circuit: 9,
                src: 3,
                dest: 12,
                switch: 2,
                force: true,
            },
            TraceEvent::ProbeHop {
                circuit: 9,
                probe: 4,
                node: 7,
                link: 21,
                misroute: true,
            },
            TraceEvent::ProbeBacktrack {
                circuit: 9,
                probe: 4,
                node: 3,
            },
            TraceEvent::ProbePark {
                circuit: 9,
                probe: 4,
                node: 7,
                victim: 2,
            },
            TraceEvent::ProbeReached {
                circuit: 9,
                probe: 4,
                dest: 12,
                steps: 11,
            },
            TraceEvent::ProbeExhausted {
                circuit: 9,
                src: 3,
                switch: 2,
                force: false,
            },
            TraceEvent::CircuitEstablished {
                circuit: 9,
                src: 3,
                dest: 12,
                hops: 5,
            },
            TraceEvent::CircuitReleased { circuit: 9 },
            TraceEvent::CircuitAbandoned { circuit: 9 },
            TraceEvent::ForcedRelease { circuit: 9, src: 3 },
            TraceEvent::CacheHit {
                node: 3,
                dest: 12,
                circuit: 9,
            },
            TraceEvent::CacheMiss { node: 3, dest: 12 },
            TraceEvent::CacheEvict {
                node: 3,
                victim_dest: 8,
                circuit: 5,
            },
            TraceEvent::TransferStart {
                circuit: 9,
                msg: 77,
                src: 3,
                dest: 12,
                len_flits: 32,
            },
            TraceEvent::WormholeInject {
                msg: 78,
                src: 3,
                dest: 12,
                len_flits: 32,
            },
            TraceEvent::WormholeDeliver {
                msg: 78,
                src: 3,
                dest: 12,
                latency: 140,
            },
            TraceEvent::CircuitDeliver {
                msg: 77,
                src: 3,
                dest: 12,
                latency: 90,
            },
            TraceEvent::LaneFault {
                link: 21,
                switch: 2,
            },
            TraceEvent::LaneRepair {
                link: 21,
                switch: 2,
            },
            TraceEvent::CircuitBroken {
                circuit: 9,
                src: 3,
                dest: 12,
            },
            TraceEvent::EstablishRetry {
                circuit: 10,
                src: 3,
                dest: 12,
                attempt: 1,
            },
            TraceEvent::WatchdogTrip {
                rule: 2,
                value: 5000,
                limit: 4096,
            },
        ];
        evs.into_iter()
            .enumerate()
            .map(|(i, ev)| TraceRecord {
                at: 100 + i as u64,
                seq: i as u64,
                ev,
            })
            .collect()
    }

    #[test]
    fn fast_encoder_matches_postmortem_json() {
        for rec in sample_records() {
            let mut fast = String::new();
            encode_record(&mut fast, &rec);
            assert_eq!(fast, record_to_json(&rec).compact(), "{}", rec.ev.kind());
        }
    }

    #[test]
    fn every_kind_round_trips() {
        let recs = sample_records();
        let mut text = String::new();
        for rec in &recs {
            encode_record(&mut text, rec);
            text.push('\n');
        }
        let back = read_jsonl(&text).expect("parse");
        assert_eq!(back, recs);
    }

    #[test]
    fn sink_streams_all_records_through_small_chunks() {
        let recs = sample_records();
        let mut sink = JsonlSink::with_chunk(Vec::new(), 3);
        for rec in &recs {
            sink.record(*rec);
        }
        assert_eq!(sink.total(), recs.len() as u64);
        let bytes = sink.finish_into().expect("finish");
        let back = read_jsonl(std::str::from_utf8(&bytes).unwrap()).expect("parse");
        assert_eq!(back, recs);
    }

    #[test]
    fn columnar_sink_round_trips_every_kind() {
        let recs = sample_records();
        let mut sink = ColumnarSink::with_chunk(Vec::new(), 5);
        sink.record_many(&recs);
        assert_eq!(sink.total(), recs.len() as u64);
        let bytes = sink.finish_into().expect("finish");
        assert_eq!(TraceFormat::detect(&bytes), TraceFormat::Columnar);
        let back = crate::columnar::read_columnar(&bytes).expect("decode");
        assert_eq!(back, recs);
        assert_eq!(read_trace_bytes(&bytes).expect("auto-detect"), recs);
    }

    #[test]
    fn record_many_matches_per_record_streaming() {
        let recs = sample_records();
        let mut one = JsonlSink::with_chunk(Vec::new(), 4);
        for rec in &recs {
            one.record(*rec);
        }
        let mut many = JsonlSink::with_chunk(Vec::new(), 4);
        many.record_many(&recs);
        assert_eq!(
            one.finish_into().expect("finish"),
            many.finish_into().expect("finish")
        );
    }

    #[test]
    fn sampling_keeps_lifecycle_events_and_thins_bulk() {
        // 10 bulk records interleaved with 10 lifecycle records.
        let mut recs = Vec::new();
        for i in 0..10u64 {
            recs.push(TraceRecord {
                at: i,
                seq: i * 2,
                ev: TraceEvent::CacheMiss {
                    node: 0,
                    dest: i as u32,
                },
            });
            recs.push(TraceRecord {
                at: i,
                seq: i * 2 + 1,
                ev: TraceEvent::CircuitReleased { circuit: i },
            });
        }
        let mut sink = JsonlSink::with_chunk(Vec::new(), 4).with_sampling(4);
        sink.record_many(&recs);
        let bytes = sink.finish_into().expect("finish");
        let back = read_jsonl(std::str::from_utf8(&bytes).unwrap()).expect("parse");
        let bulk = back.iter().filter(|r| is_bulk_kind(&r.ev)).count();
        let life = back.iter().filter(|r| !is_bulk_kind(&r.ev)).count();
        assert_eq!(bulk, 3, "1-in-4 of 10 bulk records (indices 0,4,8)");
        assert_eq!(life, 10, "lifecycle events always kept");
        // Sampling is deterministic: a rerun produces identical bytes.
        let mut again = JsonlSink::with_chunk(Vec::new(), 4).with_sampling(4);
        again.record_many(&recs);
        assert_eq!(again.finish_into().expect("finish"), bytes);
    }

    #[test]
    fn trait_finish_flushes_and_is_idempotent() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(TraceRecord {
            at: 1,
            seq: 0,
            ev: TraceEvent::CircuitReleased { circuit: 1 },
        });
        assert!(TraceSink::finish(&mut sink).is_ok());
        assert!(TraceSink::finish(&mut sink).is_ok());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn reader_rejects_garbage_with_line_number() {
        let err = read_jsonl("{\"at\":1,\"seq\":0,\"type\":\"nope\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("unknown event kind"), "{err}");
        let err = read_jsonl("not json").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn reader_skips_blank_lines() {
        let rec = TraceRecord {
            at: 4,
            seq: 0,
            ev: TraceEvent::CacheMiss { node: 1, dest: 2 },
        };
        let mut text = String::from("\n");
        encode_record(&mut text, &rec);
        text.push_str("\n\n");
        assert_eq!(read_jsonl(&text).unwrap(), vec![rec]);
    }

    /// A reader that hands out at most `cap` bytes per call — exercises
    /// the partial-read paths in the magic sniff and frame refill.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        cap: usize,
    }

    impl io::Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.cap).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn drain<R: io::Read>(mut reader: StreamingReader<R>) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while let Some(rec) = reader.next_record() {
            out.push(rec.expect("stream"));
        }
        out
    }

    #[test]
    fn streaming_reader_detects_and_decodes_both_formats() {
        let recs = sample_records();

        let mut jsonl = JsonlSink::with_chunk(Vec::new(), 4);
        jsonl.record_many(&recs);
        let jsonl_bytes = jsonl.finish_into().expect("finish");
        let reader = StreamingReader::new(&jsonl_bytes[..]).expect("open");
        assert_eq!(reader.format(), TraceFormat::Jsonl);
        assert_eq!(drain(reader), recs);

        let mut bin = ColumnarSink::with_chunk(Vec::new(), 4);
        bin.record_many(&recs);
        let bin_bytes = bin.finish_into().expect("finish");
        let reader = StreamingReader::new(&bin_bytes[..]).expect("open");
        assert_eq!(reader.format(), TraceFormat::Columnar);
        assert_eq!(drain(reader), recs);
    }

    #[test]
    fn streaming_reader_survives_short_reads() {
        // Frames of 3 records force several frame boundaries, and a
        // 7-byte dribble guarantees every frame straddles refills.
        let recs = sample_records();
        let mut bin = ColumnarSink::with_chunk(Vec::new(), 3);
        bin.record_many(&recs);
        let bytes = bin.finish_into().expect("finish");
        for cap in [1, 7, 64] {
            let src = Dribble {
                data: &bytes,
                pos: 0,
                cap,
            };
            let reader = StreamingReader::new(src).expect("open");
            assert_eq!(reader.format(), TraceFormat::Columnar);
            assert_eq!(drain(reader), recs, "cap {cap}");
        }
    }

    #[test]
    fn streaming_reader_handles_tiny_and_empty_inputs() {
        // Shorter than the magic: must fall back to JSONL (and yield
        // nothing on empty input).
        let reader = StreamingReader::new(&b""[..]).expect("open");
        assert_eq!(reader.format(), TraceFormat::Jsonl);
        assert!(drain(reader).is_empty());

        let rec = TraceRecord {
            at: 4,
            seq: 0,
            ev: TraceEvent::CacheMiss { node: 1, dest: 2 },
        };
        let mut text = String::new();
        encode_record(&mut text, &rec);
        text.push('\n');
        let reader = StreamingReader::new(text.as_bytes()).expect("open");
        assert_eq!(drain(reader), vec![rec]);
    }

    #[test]
    fn streaming_reader_reports_corrupt_columnar() {
        let recs = sample_records();
        let mut bin = ColumnarSink::with_chunk(Vec::new(), 4);
        bin.record_many(&recs);
        let mut bytes = bin.finish_into().expect("finish");
        bytes.truncate(bytes.len() - 3); // chop mid-frame
        let mut reader = StreamingReader::new(&bytes[..]).expect("open");
        let mut saw_err = false;
        while let Some(rec) = reader.next_record() {
            if rec.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err, "truncated frame must surface an error");
    }
}
