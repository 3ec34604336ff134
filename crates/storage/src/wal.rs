//! Write-ahead log for ingested delta batches.
//!
//! The §5.2 maintenance model already numbers every refresh: epoch `n`'s
//! δ⁺/δ⁻ batches carry update numbers `2n`/`2n+1`, so the epoch counter is
//! a natural log sequence number. The WAL simply persists that stream:
//! every ingested delta batch becomes one record tagged with the epoch it
//! will commit into, and every completed epoch appends a commit record.
//! View DDL is logged in the same stream, so a view registered or dropped
//! between two epochs is replayed between them. Replaying the log through
//! the ordinary `ingest`/`run_epoch`/`register_view`/`drop_view` path
//! reproduces the engine state exactly.
//!
//! ## Frame format
//!
//! ```text
//! ┌───────────┬────────────────┬────────────────┐
//! │ len: u32  │ crc32(payload) │ payload (len B)│   repeated until EOF
//! └───────────┴────────────────┴────────────────┘
//! ```
//!
//! All integers little-endian. `len == 0` is invalid by construction (a
//! payload always starts with a record-kind byte), which makes a zero-filled
//! page stop recovery instead of decoding as an endless run of empty
//! records whose CRC (`crc32(b"") == 0`) would otherwise match.
//!
//! ## Prefix recovery
//!
//! [`scan_wal`] never fails on a damaged log: it returns every record of
//! the longest valid prefix plus a [`WalStop`] describing why scanning
//! stopped (clean EOF, torn header or payload, CRC mismatch, bad record).
//! A torn tail is the *expected* crash outcome, not an error.

use crate::crc::crc32;
use crate::error::RecoveryError;
use mvmqo_relalg::codec::{self, CodecError, Dec, Enc};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::{Batch, TableId};
use std::fmt;
use std::io::{Read, Seek, Write};
use std::path::Path;

/// Upper bound on one record's payload; a corrupt length prefix larger than
/// this stops the scan instead of attempting a giant allocation.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

const KIND_INGEST: u8 = 1;
const KIND_EPOCH_COMMIT: u8 = 2;
const KIND_REGISTER_VIEW: u8 = 3;
const KIND_DROP_VIEW: u8 = 4;

/// One durable event in the engine's life.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A delta batch entered the pending set for `table`. `epoch` is the
    /// epoch the batch will commit into (current epoch + 1 at append time)
    /// — the §5.2 update number stream made durable.
    Ingest {
        epoch: u64,
        table: TableId,
        inserts: Batch,
        deletes: Batch,
    },
    /// Epoch `epoch` ran to completion over every preceding ingest.
    EpochCommit { epoch: u64 },
    /// The view `view` was registered.
    RegisterView { view: ViewDef },
    /// The view `name` was dropped.
    DropView { name: String },
}

impl WalRecord {
    /// Encode the payload (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalRecord::Ingest {
                epoch,
                table,
                inserts,
                deletes,
            } => {
                e.u8(KIND_INGEST);
                e.u64(*epoch);
                e.u32(table.0);
                codec::encode_batch(&mut e, inserts);
                codec::encode_batch(&mut e, deletes);
            }
            WalRecord::EpochCommit { epoch } => {
                e.u8(KIND_EPOCH_COMMIT);
                e.u64(*epoch);
            }
            WalRecord::RegisterView { view } => {
                e.u8(KIND_REGISTER_VIEW);
                codec::encode_view_def(&mut e, view);
            }
            WalRecord::DropView { name } => {
                e.u8(KIND_DROP_VIEW);
                e.str(name);
            }
        }
        e.into_bytes()
    }

    /// Decode one payload (no framing). The whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut d = Dec::new(payload);
        let rec = match d.u8()? {
            KIND_INGEST => WalRecord::Ingest {
                epoch: d.u64()?,
                table: TableId(d.u32()?),
                inserts: codec::decode_batch(&mut d)?,
                deletes: codec::decode_batch(&mut d)?,
            },
            KIND_EPOCH_COMMIT => WalRecord::EpochCommit { epoch: d.u64()? },
            KIND_REGISTER_VIEW => WalRecord::RegisterView {
                view: codec::decode_view_def(&mut d)?,
            },
            KIND_DROP_VIEW => WalRecord::DropView { name: d.str()? },
            k => return Err(CodecError::Invalid(format!("record kind {k}"))),
        };
        if !d.is_empty() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after record",
                d.remaining()
            )));
        }
        Ok(rec)
    }
}

/// Appends CRC-framed records to a sink, flushing after every append so a
/// crash can lose at most the record being written.
pub struct WalWriter {
    sink: Box<dyn Write + Send>,
    records: u64,
    bytes: u64,
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter")
            .field("records", &self.records)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl WalWriter {
    /// Start a fresh log at `path` (truncates).
    pub fn create(path: &Path) -> std::io::Result<WalWriter> {
        Ok(WalWriter::from_sink(Box::new(std::fs::File::create(path)?)))
    }

    /// Continue appending to an existing log. `valid_bytes` (from a prior
    /// [`scan_wal`]) truncates any torn tail first, so new records are
    /// never written after garbage.
    pub fn open_append(path: &Path, valid_bytes: u64) -> std::io::Result<WalWriter> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        f.set_len(valid_bytes)?;
        // Position after the valid prefix — a fresh handle writes at
        // offset 0 otherwise, clobbering the records it just kept.
        f.seek(std::io::SeekFrom::Start(valid_bytes))?;
        let mut w = WalWriter::from_sink(Box::new(f));
        w.bytes = valid_bytes;
        Ok(w)
    }

    /// Wrap an arbitrary sink.
    pub fn from_sink(sink: Box<dyn Write + Send>) -> WalWriter {
        WalWriter {
            sink,
            records: 0,
            bytes: 0,
        }
    }

    /// Append one record: `[len][crc][payload]`, then flush.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<()> {
        let payload = rec.encode();
        debug_assert!(!payload.is_empty());
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.sink.write_all(&frame)?;
        self.sink.flush()?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Records appended through this writer.
    pub fn records_appended(&self) -> u64 {
        self.records
    }

    /// Bytes of valid log this writer has produced (including any valid
    /// prefix it resumed from).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Why a [`scan_wal`] stopped consuming input. Everything except [`Eof`]
/// marks the first damaged byte offset; records before it are all intact.
///
/// [`Eof`]: WalStop::Eof
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalStop {
    /// The log ended exactly on a record boundary.
    Eof,
    /// Fewer than 8 header bytes remained (torn header).
    TruncatedHeader { offset: u64 },
    /// The header promised more payload than the file holds (torn write).
    TruncatedPayload { offset: u64 },
    /// Payload bytes do not match the stored CRC (bit rot / partial
    /// overwrite).
    CrcMismatch { offset: u64 },
    /// A zero length prefix — zero-filled page or pre-allocated space.
    ZeroLength { offset: u64 },
    /// Length prefix beyond [`MAX_RECORD_BYTES`] (corrupt header).
    Oversized { offset: u64, len: u32 },
    /// CRC matched but the payload does not decode — only possible when
    /// the writer and reader disagree about the format. Unlike the other
    /// stops this is no torn tail: recovery refuses the log rather than
    /// truncate it here.
    BadRecord { offset: u64, why: String },
}

impl WalStop {
    /// True when the log ended cleanly with no damaged suffix.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalStop::Eof)
    }
}

impl fmt::Display for WalStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalStop::Eof => f.write_str("clean end of log"),
            WalStop::TruncatedHeader { offset } => {
                write!(f, "torn record header at byte {offset}")
            }
            WalStop::TruncatedPayload { offset } => {
                write!(f, "torn record payload at byte {offset}")
            }
            WalStop::CrcMismatch { offset } => write!(f, "CRC mismatch at byte {offset}"),
            WalStop::ZeroLength { offset } => {
                write!(f, "zero length prefix at byte {offset} (zeroed page)")
            }
            WalStop::Oversized { offset, len } => {
                write!(f, "implausible record length {len} at byte {offset}")
            }
            WalStop::BadRecord { offset, why } => {
                write!(f, "undecodable record at byte {offset}: {why}")
            }
        }
    }
}

/// Result of scanning a log: the longest valid record prefix, how many
/// bytes it spans, and why scanning stopped.
#[derive(Debug)]
pub struct WalScan {
    pub records: Vec<WalRecord>,
    /// Bytes covered by the valid prefix; an appender resuming this log
    /// truncates to this length first.
    pub valid_bytes: u64,
    pub stop: WalStop,
}

/// Scan an in-memory log image. Never fails: damage terminates the scan
/// and is reported in [`WalScan::stop`].
pub fn scan_wal_bytes(buf: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let stop = loop {
        if pos == buf.len() {
            break WalStop::Eof;
        }
        let offset = pos as u64;
        let mut header = Dec::new(&buf[pos..]);
        let (Ok(len), Ok(crc)) = (header.u32(), header.u32()) else {
            break WalStop::TruncatedHeader { offset };
        };
        if len == 0 {
            break WalStop::ZeroLength { offset };
        }
        if len > MAX_RECORD_BYTES {
            break WalStop::Oversized { offset, len };
        }
        let len = len as usize;
        if buf.len() - pos - 8 < len {
            break WalStop::TruncatedPayload { offset };
        }
        let payload = &buf[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break WalStop::CrcMismatch { offset };
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(e) => {
                break WalStop::BadRecord {
                    offset,
                    why: e.to_string(),
                }
            }
        }
        pos += 8 + len;
    };
    WalScan {
        records,
        valid_bytes: pos as u64,
        stop,
    }
}

/// Scan a log file. A missing file is an empty log (a crash can land
/// between WAL rotation and the first append).
pub fn scan_wal(path: &Path) -> Result<WalScan, RecoveryError> {
    let mut buf = Vec::new();
    match std::fs::File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)
                .map_err(|e| RecoveryError::Io(format!("reading {}: {e}", path.display())))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(RecoveryError::Io(format!(
                "opening {}: {e}",
                path.display()
            )))
        }
    }
    Ok(scan_wal_bytes(&buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
    use mvmqo_relalg::types::{DataType, Value};

    fn sample_batch() -> Batch {
        let schema = Schema::new(vec![Attribute {
            id: AttrId(0),
            name: "t.k".into(),
            data_type: DataType::Int,
        }]);
        Batch::from_rows(schema, &[vec![Value::Int(1)], vec![Value::Int(2)]])
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Ingest {
                epoch: 1,
                table: TableId(0),
                inserts: sample_batch(),
                deletes: Batch::empty(sample_batch().schema().clone()),
            },
            WalRecord::EpochCommit { epoch: 1 },
        ]
    }

    fn sample_log() -> Vec<u8> {
        frames(&sample_records())
    }

    fn frames(records: &[WalRecord]) -> Vec<u8> {
        let sink: Vec<u8> = Vec::new();
        let mut w = WalWriter::from_sink(Box::new(sink));
        // Writer owns the sink, so build the image by re-encoding frames.
        let mut out = Vec::new();
        for rec in records {
            let payload = rec.encode();
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
            out.extend_from_slice(&payload);
            w.append(rec).unwrap();
        }
        assert_eq!(w.bytes_written(), out.len() as u64);
        out
    }

    /// View DDL records round-trip through the frame format, between the
    /// delta records, in log order.
    #[test]
    fn view_ddl_records_round_trip() {
        use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
        use mvmqo_relalg::logical::LogicalExpr;
        let view = ViewDef::new(
            "small",
            LogicalExpr::select(
                LogicalExpr::scan(TableId(0)),
                Predicate::from_expr(ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Lt, 2i64)),
            ),
        );
        let mut records = sample_records();
        records.insert(1, WalRecord::RegisterView { view });
        records.push(WalRecord::DropView {
            name: "small".into(),
        });
        let log = frames(&records);
        let scan = scan_wal_bytes(&log);
        assert_eq!(scan.stop, WalStop::Eof);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn full_log_scans_cleanly() {
        let log = sample_log();
        let scan = scan_wal_bytes(&log);
        assert_eq!(scan.stop, WalStop::Eof);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_bytes, log.len() as u64);
        assert!(matches!(
            scan.records[1],
            WalRecord::EpochCommit { epoch: 1 }
        ));
    }

    #[test]
    fn every_truncation_point_recovers_a_prefix() {
        let log = sample_log();
        for cut in 0..log.len() {
            let scan = scan_wal_bytes(&log[..cut]);
            assert!(scan.valid_bytes <= cut as u64);
            // Records in the prefix must re-scan identically.
            let again = scan_wal_bytes(&log[..scan.valid_bytes as usize]);
            assert_eq!(again.stop, WalStop::Eof);
            assert_eq!(again.records.len(), scan.records.len());
        }
    }

    #[test]
    fn zero_page_stops_the_scan() {
        let mut log = sample_log();
        let valid = log.len() as u64;
        log.extend_from_slice(&[0u8; 4096]);
        let scan = scan_wal_bytes(&log);
        assert_eq!(scan.stop, WalStop::ZeroLength { offset: valid });
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_bytes, valid);
    }

    #[test]
    fn open_append_resumes_after_the_valid_prefix() {
        // Regression: a resumed writer must append *after* the surviving
        // records, not clobber them from offset 0.
        let path =
            std::env::temp_dir().join(format!("mvmqo-wal-open-append-{}.log", std::process::id()));
        let log = sample_log();
        std::fs::write(&path, &log).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        let mut w = WalWriter::open_append(&path, scan.valid_bytes).unwrap();
        w.append(&WalRecord::EpochCommit { epoch: 2 }).unwrap();
        drop(w);
        let again = scan_wal(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(again.stop, WalStop::Eof);
        assert_eq!(again.records.len(), 3);
        assert_eq!(again.records[..2], scan.records[..]);
        assert!(matches!(
            again.records[2],
            WalRecord::EpochCommit { epoch: 2 }
        ));
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let log = sample_log();
        for byte in 8..log.len().min(40) {
            let mut bad = log.clone();
            bad[byte] ^= 0x40;
            let scan = scan_wal_bytes(&bad);
            assert!(
                !scan.stop.is_clean() || scan.records != scan_wal_bytes(&log).records,
                "flip at byte {byte} went unnoticed"
            );
        }
    }
}
