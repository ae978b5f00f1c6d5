//! The append-only manifest journal of the durability layer.
//!
//! `<data_dir>/journal.lotj` records the registry's *logical* state —
//! which names are durably registered with which spec — as a sequence
//! of CRC-framed records after a fixed header:
//!
//! ```text
//! magic   "LOTJ"          4 bytes
//! version u32             4 bytes  (currently 1)
//! record* :=
//!   len   u32             4 bytes  (payload bytes, <= 1 MiB)
//!   payload               len bytes
//!   crc32 u32             4 bytes  (over len + payload)
//! ```
//!
//! Payloads start with a kind byte: `1` Register (name, spec), `2`
//! Evict (name), `3` Checkpoint (full entry list; replaces all prior
//! state on replay). Strings are `u32` length + UTF-8 bytes.
//!
//! An append writes the whole frame, flushes, and `sync_data`s before
//! returning, so a record is either durable or — if the process dies
//! mid-write — a *torn tail* that [`read_journal`] detects by CRC and
//! ignores. Replay therefore recovers exactly the prefix of records
//! that were acknowledged as synced. See DESIGN.md §13.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use lotus_graph::crc32::crc32;
use lotus_resilience::fault_point;

use crate::proto::{Dec, ProtoError};

/// Journal file magic.
pub const JOURNAL_MAGIC: &[u8; 4] = b"LOTJ";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;
/// Upper bound on a single record payload; a length field beyond this
/// is corruption, not a request to preallocate.
pub const MAX_RECORD_BYTES: u32 = 1 << 20;

/// One logical manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// `name` was durably registered from `spec`.
    Register {
        /// Registry key.
        name: String,
        /// Source spec string (`rmat:...`, `er:...`, `path:...`).
        spec: String,
    },
    /// `name` was evicted; its snapshot is no longer needed.
    Evict {
        /// Registry key.
        name: String,
    },
    /// The complete durable set at checkpoint time; replay discards all
    /// prior state and starts from these `(name, spec)` entries.
    Checkpoint {
        /// Every durable `(name, spec)` pair.
        entries: Vec<(String, String)>,
    },
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let len32 = |n: usize| u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes();
        let (kind, strings): (u8, Vec<&String>) = match self {
            JournalRecord::Register { name, spec } => (1, vec![name, spec]),
            JournalRecord::Evict { name } => (2, vec![name]),
            JournalRecord::Checkpoint { entries } => {
                (3, entries.iter().flat_map(|(n, s)| [n, s]).collect())
            }
        };
        let mut p = vec![kind];
        if let JournalRecord::Checkpoint { entries } = self {
            p.extend_from_slice(&len32(entries.len()));
        }
        for s in strings {
            p.extend_from_slice(&len32(s.len()));
            p.extend_from_slice(s.as_bytes());
        }
        p
    }

    fn decode(payload: &[u8]) -> Result<JournalRecord, ProtoError> {
        let mut d = Dec::new(payload);
        let string = |d: &mut Dec<'_>| {
            let len = d.u32()?;
            d.utf8(len as usize)
        };
        let rec = match d.u8()? {
            1 => JournalRecord::Register {
                name: string(&mut d)?,
                spec: string(&mut d)?,
            },
            2 => JournalRecord::Evict {
                name: string(&mut d)?,
            },
            3 => {
                let count = d.u32()?;
                // Bounded by the record size, not the declared count.
                let mut entries = Vec::new();
                for _ in 0..count {
                    entries.push((string(&mut d)?, string(&mut d)?));
                }
                JournalRecord::Checkpoint { entries }
            }
            other => return Err(ProtoError::UnknownTag(other)),
        };
        d.finish()?;
        Ok(rec)
    }
}

/// An open journal file positioned for appends.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (or creates, writing the header) the journal at `path`.
    /// The header of an existing file is *not* validated here — startup
    /// recovery has already read it via [`read_journal`].
    ///
    /// # Errors
    /// Any I/O error creating or opening the file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(JOURNAL_MAGIC)?;
            file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
            file.sync_data()?;
            // A brand-new journal also needs its directory entry made
            // durable, mirroring the snapshot rename path — otherwise a
            // power loss can vanish the file with its synced records.
            sync_parent_dir(&path)?;
        }
        Ok(Journal { file, path })
    }

    /// Path the journal lives at.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and syncs it to disk. When this returns `Ok`,
    /// the record survives a crash; on error the file may end in a torn
    /// frame that replay will detect and discard.
    ///
    /// # Errors
    /// Any I/O error writing or syncing; an armed `serve.journal.append`
    /// fault fires *between* the two halves of the frame so the injected
    /// failure leaves a genuine torn tail behind.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let payload = record.encode();
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "journal record too large"))?;
        if len > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal record too large",
            ));
        }
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());

        let split = frame.len() / 2;
        self.file.write_all(&frame[..split])?;
        fault_point!("serve.journal.append")?;
        self.file.write_all(&frame[split..])?;
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// What a full journal read recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReadout {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Why reading stopped early, if it did: a torn tail (crash
    /// mid-append) or mid-file corruption. `None` means the file was
    /// clean to the end.
    pub damage: Option<String>,
}

impl JournalReadout {
    /// Folds the record sequence into the final logical `(name, spec)`
    /// map: `Register` inserts (last write wins), `Evict` removes,
    /// `Checkpoint` replaces everything.
    #[must_use]
    pub fn fold(&self) -> Vec<(String, String)> {
        let mut entries: Vec<(String, String)> = Vec::new();
        for rec in &self.records {
            match rec {
                JournalRecord::Register { name, spec } => {
                    entries.retain(|(n, _)| n != name);
                    entries.push((name.clone(), spec.clone()));
                }
                JournalRecord::Evict { name } => entries.retain(|(n, _)| n != name),
                JournalRecord::Checkpoint { entries: cp } => {
                    entries.clear();
                    entries.extend(cp.iter().cloned());
                }
            }
        }
        entries
    }
}

/// Reads every intact record from the journal at `path`. A missing file
/// is an empty journal. Damage — bad header, torn tail, CRC mismatch,
/// undecodable payload — ends the read at the last intact record and is
/// reported in [`JournalReadout::damage`] rather than returned as an
/// error: the synced prefix is still authoritative.
///
/// # Errors
/// Only genuine I/O failures (permissions, device errors); corruption
/// is never an `Err`.
pub fn read_journal(path: impl AsRef<Path>) -> io::Result<JournalReadout> {
    let mut file = match File::open(path.as_ref()) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(JournalReadout {
                records: Vec::new(),
                damage: None,
            })
        }
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    let mut out = JournalReadout {
        records: Vec::new(),
        damage: None,
    };
    if bytes.len() < 8 {
        out.damage = Some(format!("header truncated at {} byte(s)", bytes.len()));
        return Ok(out);
    }
    if &bytes[..4] != JOURNAL_MAGIC {
        out.damage = Some("bad journal magic".to_string());
        return Ok(out);
    }
    let mut ver = [0u8; 4];
    ver.copy_from_slice(&bytes[4..8]);
    let version = u32::from_le_bytes(ver);
    if version != JOURNAL_VERSION {
        out.damage = Some(format!("unsupported journal version {version}"));
        return Ok(out);
    }

    let mut pos = 8usize;
    while pos < bytes.len() {
        let Some(frame_head) = bytes.get(pos..pos + 4) else {
            out.damage = Some(format!("torn length prefix at offset {pos}"));
            break;
        };
        let mut raw = [0u8; 4];
        raw.copy_from_slice(frame_head);
        let len = u32::from_le_bytes(raw);
        if len > MAX_RECORD_BYTES {
            out.damage = Some(format!("record length {len} at offset {pos} exceeds cap"));
            break;
        }
        let payload_end = pos + 4 + len as usize;
        let crc_end = payload_end + 4;
        if crc_end > bytes.len() {
            out.damage = Some(format!("torn record at offset {pos}"));
            break;
        }
        let mut stored = [0u8; 4];
        stored.copy_from_slice(&bytes[payload_end..crc_end]);
        if u32::from_le_bytes(stored) != crc32(&bytes[pos..payload_end]) {
            out.damage = Some(format!("crc mismatch at offset {pos}"));
            break;
        }
        match JournalRecord::decode(&bytes[pos + 4..payload_end]) {
            Ok(rec) => out.records.push(rec),
            Err(why) => {
                out.damage = Some(format!("undecodable record at offset {pos}: {why}"));
                break;
            }
        }
        pos = crc_end;
    }
    Ok(out)
}

/// Atomically replaces the journal with a fresh header plus a single
/// `Checkpoint` of `entries` (compaction): write to a temp file, sync,
/// rename over the old journal.
///
/// # Errors
/// Any I/O error writing, syncing, or renaming.
pub fn rewrite(path: impl AsRef<Path>, entries: &[(String, String)]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension("lotj.tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(JOURNAL_MAGIC)?;
        file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        let payload = JournalRecord::Checkpoint {
            entries: entries.to_vec(),
        }
        .encode();
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "checkpoint too large"))?;
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&frame)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Best-effort fsync of `path`'s parent directory so a rename is
/// durable, not just ordered. Platforms that refuse directory syncs
/// (some filesystems do) are tolerated.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_data();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lotus-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Register {
                name: "a".into(),
                spec: "rmat:6:4:1".into(),
            },
            JournalRecord::Register {
                name: "b".into(),
                spec: "er:100:400:1".into(),
            },
            JournalRecord::Evict { name: "a".into() },
            JournalRecord::Checkpoint {
                entries: vec![("b".into(), "er:100:400:1".into())],
            },
        ]
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = tmp_dir("round");
        let path = dir.join("journal.lotj");
        let mut j = Journal::open(&path).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.damage, None);
        assert_eq!(readout.records, sample_records());
        assert_eq!(
            readout.fold(),
            vec![("b".to_string(), "er:100:400:1".to_string())]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fold_applies_register_evict_checkpoint_semantics() {
        let readout = JournalReadout {
            records: vec![
                JournalRecord::Register {
                    name: "x".into(),
                    spec: "rmat:6:4:1".into(),
                },
                // Re-register replaces the spec (last write wins).
                JournalRecord::Register {
                    name: "x".into(),
                    spec: "rmat:6:4:2".into(),
                },
                JournalRecord::Register {
                    name: "y".into(),
                    spec: "er:100:200:3".into(),
                },
                JournalRecord::Evict { name: "y".into() },
            ],
            damage: None,
        };
        assert_eq!(
            readout.fold(),
            vec![("x".to_string(), "rmat:6:4:2".to_string())]
        );
    }

    #[test]
    fn torn_tail_keeps_synced_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join("journal.lotj");
        let mut j = Journal::open(&path).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the final record: the first three must
        // survive, the tail must be reported as damage, never a panic.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.records.len(), 3);
        assert!(readout.damage.is_some(), "torn tail must be reported");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_mismatch_stops_replay() {
        let dir = tmp_dir("crc");
        let path = dir.join("journal.lotj");
        let mut j = Journal::open(&path).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let mut full = std::fs::read(&path).unwrap();
        // Flip one payload bit in the second record (skip header +
        // first frame).
        let second_start = {
            let mut raw = [0u8; 4];
            raw.copy_from_slice(&full[8..12]);
            8 + 4 + u32::from_le_bytes(raw) as usize + 4
        };
        full[second_start + 6] ^= 0x40;
        std::fs::write(&path, &full).unwrap();
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.records.len(), 1, "only the first record survives");
        assert!(readout.damage.unwrap().contains("crc mismatch"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let readout = read_journal("/definitely/not/here/journal.lotj").unwrap();
        assert!(readout.records.is_empty());
        assert_eq!(readout.damage, None);
    }

    #[test]
    fn bad_header_is_damage_not_error() {
        let dir = tmp_dir("hdr");
        let path = dir.join("journal.lotj");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00").unwrap();
        let readout = read_journal(&path).unwrap();
        assert!(readout.records.is_empty());
        assert!(readout.damage.unwrap().contains("magic"));
        std::fs::write(&path, b"LO").unwrap();
        assert!(read_journal(&path)
            .unwrap()
            .damage
            .unwrap()
            .contains("truncated"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_compacts_to_one_checkpoint() {
        let dir = tmp_dir("rw");
        let path = dir.join("journal.lotj");
        let mut j = Journal::open(&path).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let entries = read_journal(&path).unwrap().fold();
        rewrite(&path, &entries).unwrap();
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.records.len(), 1);
        assert_eq!(readout.fold(), entries);
        // The compacted journal accepts further appends.
        let mut j = Journal::open(&path).unwrap();
        j.append(&JournalRecord::Register {
            name: "c".into(),
            spec: "rmat:6:4:9".into(),
        })
        .unwrap();
        drop(j);
        assert_eq!(read_journal(&path).unwrap().records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_length_field_is_damage() {
        let dir = tmp_dir("huge");
        let path = dir.join("journal.lotj");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        bytes.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let readout = read_journal(&path).unwrap();
        assert!(readout.records.is_empty());
        assert!(readout.damage.unwrap().contains("exceeds cap"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
