//! The durable job journal: an append-only log of everything the server
//! would need to rebuild its job layer after `kill -9`.
//!
//! Three record kinds cover the lifecycle: `instance` (a cache load,
//! with the content digest actually computed), `submitted` (the full
//! [`JobRequest`] exactly as admitted) and `event` (the job's
//! `improvement`/`done` stream plus admission `rejected` events). On
//! restart the server replays the log: finished jobs are restored into
//! the `GET /jobs/:id/events` retention ring *without re-execution*,
//! while jobs that were in flight at crash time are re-executed from
//! their journaled spec — a step-budgeted job is byte-identical by the
//! determinism contract, so the client's retry lands on the pinned
//! partition.
//!
//! # On-disk format
//!
//! One record per line, each framed for torn-write detection:
//!
//! ```text
//! <payload-len> <fnv1a64-of-payload, 16 hex digits> <payload JSON>\n
//! ```
//!
//! The writer appends each framed line with a single `write_all` and
//! flushes, so a crash can only leave a *prefix* of the final line (no
//! trailing newline). The reader therefore tolerates exactly one
//! unterminated tail — reported as `truncated`, replay stops cleanly
//! before it — while any *complete* line that fails its length check,
//! checksum or JSON decode is real corruption and fails loudly with
//! [`JournalError::Corrupt`] naming the byte offset.

use crate::cache::{Fnv1a, GraphFormat, GraphSource};
use crate::protocol::{Event, JobRequest};
use crate::schema::{wire_enum, Wire};
use crate::sync::lock;
use ff_obs::{Counter, Registry};
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Mutex;

wire_enum! {
    /// One journaled fact. Serialized as a JSON object whose `record` field
    /// names the variant; the `spec` and `event` payloads reuse the wire
    /// protocol's own encodings, so the journal can never drift from what
    /// clients actually said.
    #[derive(Clone, Debug, PartialEq)]
    pub enum JournalRecord by "record", unknown "record kind" {
        /// A graph was loaded (or reloaded) into the instance cache.
        "instance" => Instance {
            /// Client-chosen cache key.
            instance: String,
            /// Where the bytes came from, so replay can reload them.
            @flatten source: GraphSource,
            /// File format of the source.
            format: GraphFormat,
            /// The cache's FNV-1a content digest at load time. Replay
            /// reloads the source and compares: a mismatch means the bytes
            /// changed behind the journal's back, and every journaled job
            /// referencing this instance is invalidated instead of silently
            /// re-executed on different input.
            digest: u64,
        },
        /// A job passed admission and validation with this exact spec.
        "submitted" => Submitted {
            /// The job id the server assigned.
            job: u64,
            /// The full request, as admitted.
            spec: JobRequest,
        },
        /// A protocol event worth replaying: `improvement`, `done`, or an
        /// admission `rejected`.
        "event" => Event(event: Event),
    }
}

impl JournalRecord {
    /// Parses one journal payload.
    pub fn from_value(v: &Value) -> Result<JournalRecord, String> {
        Wire::decode(v)
    }
}

/// The frame checksum: 64-bit FNV-1a of the record payload.
fn checksum(payload: &str) -> u64 {
    Fnv1a::new().eat(payload.as_bytes()).finish()
}

fn frame(record: &JournalRecord) -> String {
    let payload = record.to_value().to_string();
    format!("{} {:016x} {payload}\n", payload.len(), checksum(&payload))
}

/// Why a journal could not be read.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// A complete record frame failed its length check, checksum or
    /// decode — the journal is damaged mid-file and replaying a prefix
    /// could silently resurrect half a history. `offset` is the byte
    /// position of the damaged record's frame.
    Corrupt {
        /// Byte offset of the damaged record in the journal file.
        offset: u64,
        /// What failed, human-readable.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal unreadable: {e}"),
            JournalError::Corrupt { offset, detail } => {
                write!(f, "journal corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<JournalError> for std::io::Error {
    fn from(e: JournalError) -> std::io::Error {
        match e {
            JournalError::Io(io) => io,
            corrupt => std::io::Error::new(std::io::ErrorKind::InvalidData, corrupt.to_string()),
        }
    }
}

/// What a successful journal read produced.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether the file ended in an unterminated partial record (a torn
    /// final write — tolerated; the partial record is dropped).
    pub truncated: bool,
}

/// Parses journal bytes. Missing trailing newline → tolerated torn tail;
/// any damaged *complete* frame → [`JournalError::Corrupt`].
pub fn parse_journal(bytes: &[u8]) -> Result<ReadOutcome, JournalError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(rel) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            return Ok(ReadOutcome {
                records,
                truncated: true,
            });
        };
        let line = &bytes[offset..offset + rel];
        let at = offset as u64;
        let corrupt = |detail: String| JournalError::Corrupt { offset: at, detail };
        let text =
            std::str::from_utf8(line).map_err(|_| corrupt("record frame is not UTF-8".into()))?;
        let (len_text, rest) = text
            .split_once(' ')
            .ok_or_else(|| corrupt("missing payload-length field".into()))?;
        let (sum_text, payload) = rest
            .split_once(' ')
            .ok_or_else(|| corrupt("missing checksum field".into()))?;
        let len: usize = len_text
            .parse()
            .map_err(|_| corrupt(format!("bad payload length `{len_text}`")))?;
        if payload.len() != len {
            return Err(corrupt(format!(
                "frame declares {len} payload bytes, found {}",
                payload.len()
            )));
        }
        let declared = u64::from_str_radix(sum_text, 16)
            .map_err(|_| corrupt(format!("bad checksum `{sum_text}`")))?;
        let computed = checksum(payload);
        if declared != computed {
            return Err(corrupt(format!(
                "checksum mismatch: frame says {declared:016x}, payload hashes to {computed:016x}"
            )));
        }
        let value: Value = serde_json::from_str(payload)
            .map_err(|e| corrupt(format!("payload is not valid JSON: {e}")))?;
        let record =
            JournalRecord::from_value(&value).map_err(|e| corrupt(format!("bad record: {e}")))?;
        records.push(record);
        offset += rel + 1;
    }
    Ok(ReadOutcome {
        records,
        truncated: false,
    })
}

/// Reads a journal file. A missing file is an empty journal (first boot
/// with `--journal` pointing at a fresh path), not an error.
pub fn read_journal(path: impl AsRef<Path>) -> Result<ReadOutcome, JournalError> {
    let mut file = match File::open(path.as_ref()) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReadOutcome::default()),
        Err(e) => return Err(JournalError::Io(e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(JournalError::Io)?;
    parse_journal(&bytes)
}

/// The append end of a journal. One per server; appends are serialized
/// under a lock and each record is written as one framed line + flush,
/// so `kill -9` can lose at most the line being written (which the
/// reader tolerates as a torn tail).
pub struct JournalWriter {
    file: Mutex<File>,
}

impl JournalWriter {
    /// Opens (creating if needed) `path` for appending.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<JournalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.as_ref())?;
        Ok(JournalWriter {
            file: Mutex::new(file),
        })
    }

    /// Appends one record and flushes.
    pub fn append(&self, record: &JournalRecord) -> std::io::Result<()> {
        let line = frame(record);
        let mut file = lock(&self.file);
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

/// [`JournalWriter`] plus its `ff_journal_*` counters — the handle the
/// server threads share. Append failures are counted and logged to
/// stderr, never propagated into the job path: a full disk degrades
/// durability, not serving.
pub(crate) struct JournalTap {
    writer: JournalWriter,
    instance_records: Counter,
    submitted_records: Counter,
    event_records: Counter,
    write_errors: Counter,
}

impl JournalTap {
    pub(crate) fn new(writer: JournalWriter, registry: &Registry) -> JournalTap {
        JournalTap {
            writer,
            instance_records: crate::obs::journal_record_counter(registry, "instance"),
            submitted_records: crate::obs::journal_record_counter(registry, "submitted"),
            event_records: crate::obs::journal_record_counter(registry, "event"),
            write_errors: crate::obs::journal_write_errors(registry),
        }
    }

    pub(crate) fn record(&self, record: &JournalRecord) {
        let counter = match record {
            JournalRecord::Instance { .. } => &self.instance_records,
            JournalRecord::Submitted { .. } => &self.submitted_records,
            JournalRecord::Event(_) => &self.event_records,
        };
        match self.writer.append(record) {
            Ok(()) => counter.inc(),
            Err(e) => {
                self.write_errors.inc();
                eprintln!("ff-service: journal append failed: {e}");
            }
        }
    }
}

/// What startup replay did, for the serve banner and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Intact records read from the journal.
    pub records: usize,
    /// Whether the journal ended in a tolerated torn final record.
    pub truncated: bool,
    /// Instance records replayed into the cache.
    pub instances: usize,
    /// Finished jobs restored into the event-log retention ring
    /// (observation-only — not re-executed).
    pub finished: usize,
    /// In-flight jobs re-executed from their journaled spec.
    pub resumed: usize,
    /// In-flight jobs *not* re-executed (instance missing, digest
    /// changed, or the spec no longer validates).
    pub skipped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Improvement;
    use crate::schema::s;
    use serde_json::Map;

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        let mut m = Map::new();
        for (k, v) in entries {
            m.insert(k.to_string(), v);
        }
        Value::Object(m)
    }

    fn sample_records() -> Vec<JournalRecord> {
        let spec = JobRequest {
            steps: Some(20_000),
            seed: 7,
            ..JobRequest::new("grid", 2)
        };
        vec![
            JournalRecord::Instance {
                instance: "grid".into(),
                source: GraphSource::Data("3 2\n2\n1 3\n2\n".into()),
                format: GraphFormat::Metis,
                digest: 0xdead_beef_dead_beef,
            },
            JournalRecord::Submitted { job: 1, spec },
            JournalRecord::Event(Event::Improvement(Improvement {
                job: 1,
                value: 0.964286,
                step: 17,
                elapsed_ms: 3,
                island: 0,
                objective: None,
            })),
        ]
    }

    fn journal_bytes(records: &[JournalRecord]) -> Vec<u8> {
        records.iter().flat_map(|r| frame(r).into_bytes()).collect()
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        let records = sample_records();
        let bytes = journal_bytes(&records);
        let out = parse_journal(&bytes).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.records, records);
    }

    #[test]
    fn writer_and_reader_agree_on_disk() {
        let path = std::env::temp_dir().join(format!("ffj-rt-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        {
            let w = JournalWriter::open(&path).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        let out = read_journal(&path).unwrap();
        assert_eq!(out.records, records);
        assert!(!out.truncated);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_empty_not_an_error() {
        let out = read_journal("/nonexistent/never/there.journal").unwrap();
        assert!(out.records.is_empty());
        assert!(!out.truncated);
    }

    #[test]
    fn torn_final_record_is_tolerated() {
        let records = sample_records();
        let mut bytes = journal_bytes(&records);
        // Simulate a crash mid-append: a prefix of the next frame with
        // no terminating newline.
        let torn = frame(&records[2]);
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        let out = parse_journal(&bytes).unwrap();
        assert!(out.truncated, "torn tail must be reported");
        assert_eq!(out.records, records, "intact prefix must replay");
    }

    #[test]
    fn mid_file_checksum_mismatch_fails_loudly_with_offset() {
        let records = sample_records();
        let mut bytes = journal_bytes(&records);
        // Corrupt one payload byte inside the second record.
        let first_len = frame(&records[0]).len();
        let flip = first_len + 40;
        bytes[flip] ^= 0x01;
        let err = parse_journal(&bytes).unwrap_err();
        match err {
            JournalError::Corrupt { offset, ref detail } => {
                assert_eq!(offset as usize, first_len, "offset must name the frame");
                assert!(detail.contains("checksum"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains(&format!("byte {first_len}")), "text: {text}");
    }

    #[test]
    fn length_lies_and_bad_frames_are_corruption() {
        // A complete (newline-terminated) line with a short payload is
        // not a torn write — the writer emits whole lines — so it must
        // fail, not be silently tolerated.
        let bytes = b"999 0123456789abcdef {\"record\":\"event\"}\n".to_vec();
        assert!(matches!(
            parse_journal(&bytes),
            Err(JournalError::Corrupt { offset: 0, .. })
        ));
        let bytes = b"not-a-frame\n".to_vec();
        assert!(matches!(
            parse_journal(&bytes),
            Err(JournalError::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn unknown_record_kinds_are_rejected_by_name() {
        let v = obj(vec![("record", s("mystery"))]);
        let err = JournalRecord::from_value(&v).unwrap_err();
        assert!(err.contains("mystery"), "err: {err}");
    }
}
