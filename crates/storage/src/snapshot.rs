//! Atomic snapshot files and the recovery manifest.
//!
//! A snapshot is a single CRC-framed file written atomically (temp file +
//! fsync + rename), so a crash during `save` leaves either the previous
//! snapshot or the new one — never a half-written image. The manifest is a
//! second tiny framed file naming the current snapshot, its epoch, and the
//! WAL segment whose tail must be replayed on top of it; writing the
//! manifest is the commit point of a snapshot.
//!
//! ```text
//! dir/
//! ├── MANIFEST            ← commit point: snapshot epoch + WAL truncation
//! ├── snapshot-<seq>.img  ← full engine image at one epoch
//! └── wal-<seq>.log       ← delta records since that snapshot
//! ```
//!
//! File framing (both snapshot and manifest):
//!
//! ```text
//! ┌──────────┬──────────┬───────────────┬──────────────┐
//! │ magic ×8 │ len: u32 │ crc32(body)   │ body (len B) │
//! └──────────┴──────────┴───────────────┴──────────────┘
//! ```

use crate::crc::crc32;
use crate::error::RecoveryError;
use crate::index::IndexKind;
use crate::table::StoredTable;
use mvmqo_relalg::codec::{self, CodecError, Dec, Enc};
use mvmqo_relalg::schema::AttrId;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of snapshot image files. The digit is the body format's
/// version; a body change bumps it, so an image of another version fails
/// cleanly at the magic check instead of misdecoding.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MVMQOSN3";
/// Magic prefix of the manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"MVMQOMF1";
/// Manifest file name inside a durability directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Write `body` to `path` atomically: `<path>.tmp` + fsync + rename. The
/// temp file is removed on any failure, so an aborted save leaks nothing.
pub fn write_framed_atomic(path: &Path, magic: &[u8; 8], body: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(magic)?;
        f.write_all(&(body.len() as u32).to_le_bytes())?;
        f.write_all(&crc32(body).to_le_bytes())?;
        f.write_all(body)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Read and verify a framed file, returning its body — the read buffer
/// itself, header drained and trailing bytes cut, never a copy.
pub fn read_framed(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>, RecoveryError> {
    let mut bytes = std::fs::read(path)
        .map_err(|e| RecoveryError::Io(format!("reading {}: {e}", path.display())))?;
    let corrupt = |why: &str| RecoveryError::Corrupt {
        file: path.display().to_string(),
        why: why.to_string(),
    };
    let mut header = Dec::new(&bytes);
    let (Ok(file_magic), Ok(len), Ok(crc)) = (header.array::<8>(), header.u32(), header.u32())
    else {
        return Err(corrupt("shorter than the file header"));
    };
    if &file_magic != magic {
        return Err(corrupt("bad magic"));
    }
    let len = len as usize;
    if bytes.len() - 16 < len {
        return Err(corrupt("truncated body"));
    }
    if crc32(&bytes[16..16 + len]) != crc {
        return Err(corrupt("body CRC mismatch"));
    }
    bytes.truncate(16 + len);
    bytes.drain(..16);
    Ok(bytes)
}

/// Names the current snapshot and the WAL segment to replay on top of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Epoch captured by the snapshot (0 = empty engine).
    pub snapshot_epoch: u64,
    /// Snapshot image file name (relative to the durability directory),
    /// empty when no snapshot exists yet (WAL-only durability).
    pub snapshot_file: String,
    /// WAL segment holding records after the snapshot.
    pub wal_file: String,
    /// Monotonic segment sequence number (the WAL truncation point:
    /// segments below this were folded into the snapshot and deleted).
    pub wal_seq: u64,
}

impl Manifest {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.snapshot_epoch);
        e.str(&self.snapshot_file);
        e.str(&self.wal_file);
        e.u64(self.wal_seq);
        e.into_bytes()
    }

    pub fn decode(body: &[u8]) -> Result<Manifest, CodecError> {
        let mut d = Dec::new(body);
        Ok(Manifest {
            snapshot_epoch: d.u64()?,
            snapshot_file: d.str()?,
            wal_file: d.str()?,
            wal_seq: d.u64()?,
        })
    }

    /// Atomically publish this manifest in `dir` (the snapshot commit point).
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        write_framed_atomic(&dir.join(MANIFEST_NAME), MANIFEST_MAGIC, &self.encode())
    }

    /// Load the manifest from `dir`.
    pub fn load(dir: &Path) -> Result<Manifest, RecoveryError> {
        let path = dir.join(MANIFEST_NAME);
        if !path.exists() {
            return Err(RecoveryError::MissingManifest(dir.display().to_string()));
        }
        let body = read_framed(&path, MANIFEST_MAGIC)?;
        Manifest::decode(&body).map_err(|e| RecoveryError::Corrupt {
            file: path.display().to_string(),
            why: e.to_string(),
        })
    }
}

/// Encode a stored table: its dense columnar image plus the `(attr, kind)`
/// spec of every secondary index (indices rebuild from the columns on
/// decode — they are derived state and never serialized).
pub fn encode_stored_table(e: &mut Enc, t: &StoredTable) {
    codec::encode_batch(e, t.batch());
    let mut specs: Vec<(AttrId, IndexKind)> =
        t.indices.values().map(|i| (i.attr, i.kind)).collect();
    specs.sort_by_key(|(a, _)| *a);
    e.u32(specs.len() as u32);
    for (attr, kind) in specs {
        e.u32(attr.0);
        e.u8(match kind {
            IndexKind::Hash => 0,
        });
    }
}

/// Decode a stored table and rebuild its indices.
pub fn decode_stored_table(d: &mut Dec) -> Result<StoredTable, CodecError> {
    let batch = codec::decode_batch(d)?;
    let mut table = StoredTable::from_batch(batch);
    let n = d.count(5)?;
    for _ in 0..n {
        let attr = AttrId(d.u32()?);
        let kind = match d.u8()? {
            0 => IndexKind::Hash,
            k => return Err(CodecError::Invalid(format!("index kind {k}"))),
        };
        if table.schema().position_of(attr).is_none() {
            return Err(CodecError::Invalid(format!(
                "index on {attr}: not in schema"
            )));
        }
        table.create_index(attr, kind);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::batch::Batch;
    use mvmqo_relalg::schema::{Attribute, Schema};
    use mvmqo_relalg::types::{DataType, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mvmqo-snaptest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_roundtrips_through_disk() {
        let dir = tmpdir("manifest");
        let m = Manifest {
            snapshot_epoch: 7,
            snapshot_file: "snapshot-3.img".into(),
            wal_file: "wal-3.log".into(),
            wal_seq: 3,
        };
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_manifest_is_a_clean_error() {
        let dir = tmpdir("corrupt");
        let m = Manifest {
            snapshot_epoch: 1,
            snapshot_file: String::new(),
            wal_file: "wal-0.log".into(),
            wal_seq: 0,
        };
        m.store(&dir).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(RecoveryError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_framed_returns_exactly_the_body() {
        let dir = tmpdir("framed");
        let path = dir.join("x.img");
        write_framed_atomic(&path, SNAPSHOT_MAGIC, b"payload").unwrap();
        assert_eq!(read_framed(&path, SNAPSHOT_MAGIC).unwrap(), b"payload");
        // Bytes past the framed length are not part of the body.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"junk").unwrap();
        drop(f);
        assert_eq!(read_framed(&path, SNAPSHOT_MAGIC).unwrap(), b"payload");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_distinguished_from_corrupt() {
        let dir = tmpdir("missing");
        assert!(matches!(
            Manifest::load(&dir),
            Err(RecoveryError::MissingManifest(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_table_roundtrips_with_indices() {
        let schema = Schema::new(vec![
            Attribute {
                id: AttrId(0),
                name: "t.k".into(),
                data_type: DataType::Int,
            },
            Attribute {
                id: AttrId(1),
                name: "t.v".into(),
                data_type: DataType::Str,
            },
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(1), Value::str("c")],
        ];
        let mut t = StoredTable::from_batch(Batch::from_rows(schema, &rows));
        t.create_index(AttrId(0), IndexKind::Hash);

        let mut e = Enc::new();
        encode_stored_table(&mut e, &t);
        let bytes = e.into_bytes();
        let got = decode_stored_table(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(got.batch(), t.batch());
        assert_eq!(
            got.probe(AttrId(0), &Value::Int(1)),
            t.probe(AttrId(0), &Value::Int(1))
        );
    }

    /// A crafted index count or an index on an attribute the table does
    /// not have is a decode error, never an allocation abort or a panic.
    #[test]
    fn hostile_index_section_is_a_clean_error() {
        let schema = Schema::new(vec![Attribute {
            id: AttrId(0),
            name: "t.k".into(),
            data_type: DataType::Int,
        }]);
        let t = StoredTable::from_batch(Batch::from_rows(schema, &[vec![Value::Int(1)]]));
        let mut e = Enc::new();
        encode_stored_table(&mut e, &t);
        let mut bytes = e.into_bytes();
        // No index: the image ends in a zero index count.
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_stored_table(&mut Dec::new(&bytes)).is_err());
        bytes[at..].copy_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.push(0);
        assert!(decode_stored_table(&mut Dec::new(&bytes)).is_err());
    }

    /// Kind byte 1 named a B-tree index, which no longer exists: an image
    /// holding one is a decode error.
    #[test]
    fn unknown_index_kind_is_a_clean_error() {
        let schema = Schema::new(vec![Attribute {
            id: AttrId(0),
            name: "t.k".into(),
            data_type: DataType::Int,
        }]);
        let mut t = StoredTable::from_batch(Batch::from_rows(schema, &[vec![Value::Int(1)]]));
        t.create_index(AttrId(0), IndexKind::Hash);
        let mut e = Enc::new();
        encode_stored_table(&mut e, &t);
        let mut bytes = e.into_bytes();
        assert!(decode_stored_table(&mut Dec::new(&bytes)).is_ok());
        // The image ends in the one index's kind byte.
        *bytes.last_mut().unwrap() = 1;
        assert!(matches!(
            decode_stored_table(&mut Dec::new(&bytes)),
            Err(CodecError::Invalid(_))
        ));
    }

    /// A stored image mixing both string encodings (and NULLs in each)
    /// survives the codec with contents, encodings and index intact.
    #[test]
    fn stored_table_mixing_dict_and_plain_strings_roundtrips() {
        use mvmqo_relalg::batch::ColumnData;
        let schema = Schema::new(vec![
            Attribute {
                id: AttrId(0),
                name: "t.tag".into(),
                data_type: DataType::Str,
            },
            Attribute {
                id: AttrId(1),
                name: "t.body".into(),
                data_type: DataType::Str,
            },
        ]);
        let rows: Vec<_> = (0..300)
            .map(|i| {
                let cell = |null: bool, s: String| if null { Value::Null } else { Value::str(s) };
                vec![
                    cell(i % 17 == 0, format!("tag{}", i % 5)),
                    cell(i % 19 == 0, format!("body {i}")),
                ]
            })
            .collect();
        let mut t = StoredTable::with_rows(schema, rows.clone());
        t.create_index(AttrId(1), IndexKind::Hash);
        assert!(matches!(
            t.batch().column(0).data(),
            ColumnData::Dict { .. }
        ));
        assert!(matches!(t.batch().column(1).data(), ColumnData::Str(_)));

        let mut e = Enc::new();
        encode_stored_table(&mut e, &t);
        let bytes = e.into_bytes();
        let got = decode_stored_table(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(got.batch(), t.batch());
        assert_eq!(got.rows(), rows.as_slice());
        assert!(matches!(
            got.batch().column(0).data(),
            ColumnData::Dict { .. }
        ));
        assert!(matches!(got.batch().column(1).data(), ColumnData::Str(_)));
        assert_eq!(got.probe(AttrId(1), &Value::str("body 7")).unwrap(), &[7]);
        assert_eq!(got.probe(AttrId(1), &Value::Null).unwrap().len(), 16);
    }
}
