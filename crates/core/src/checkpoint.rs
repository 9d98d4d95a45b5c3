//! Durable run state: versioned, CRC-checksummed, atomically written
//! snapshots plus an append-only label journal.
//!
//! VAER's scarce resource is human labels (paper §V): a crash mid-run
//! must never throw them away, and a corrupted snapshot must never be
//! served as a model. This module provides the two durability
//! primitives the trainers build on:
//!
//! - [`CheckpointStore`] — numbered snapshot files in one directory,
//!   each wrapped in a `VAERCKP1` envelope carrying a CRC-32 of the
//!   payload. Writes go to a temp file, are fsynced, and are renamed
//!   into place (atomic on POSIX), with bounded retry/backoff on IO
//!   errors; reads walk snapshots newest-first and silently skip torn
//!   or corrupt files, falling back to the newest valid one.
//! - [`Journal`] — an append-only JSONL file of labelled pairs, fsynced
//!   per entry, so every oracle answer is durable the moment it is
//!   given — even if the process dies before the next snapshot. A torn
//!   final line (crash mid-append) is tolerated on replay.
//!
//! [`AlSession`] combines the two for the active-learning loop: label
//! queries are answered from the journal on resume (without re-billing
//! the oracle) and journaled-then-answered on first ask, which is what
//! makes a resumed run bit-identical to an uninterrupted one.
//!
//! Fault-injection hooks (see `vaer-fault`): `checkpoint.write` (IO
//! error per attempt), `checkpoint.torn` (torn snapshot written in
//! place), `journal.append` (IO error).

use crate::resilience::{RetryPolicy, RunBudget};
use crate::CoreError;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use vaer_data::Oracle;
use vaer_nn::crc32;

/// Envelope magic for snapshot files.
const MAGIC: &[u8; 8] = b"VAERCKP1";
/// Envelope format version.
const VERSION: u32 = 1;
/// Envelope header size: magic + version + seq + payload_len.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Wraps `payload` in the `VAERCKP1` envelope: magic, version, sequence
/// number, payload length, payload, then a trailing CRC-32 computed over
/// *everything* before it (header included, so a corrupted sequence
/// number is caught too).
pub fn seal(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a `VAERCKP1` envelope and returns `(seq, payload)`.
///
/// # Errors
/// [`CoreError::Checkpoint`] if the envelope is truncated, has the wrong
/// magic or version, or fails its CRC — i.e. on any torn or corrupt file.
pub fn unseal(bytes: &[u8]) -> Result<(u64, Vec<u8>), CoreError> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(CoreError::Checkpoint("snapshot truncated".into()));
    }
    if &bytes[..8] != MAGIC {
        return Err(CoreError::Checkpoint("missing VAERCKP1 magic".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(tail.try_into().unwrap()); // vaer-lint: allow(panic) -- split_at leaves exactly 4 bytes; infallible
    if crc32(body) != stored_crc {
        return Err(CoreError::Checkpoint(
            "snapshot checksum mismatch (corrupt or torn data)".into(),
        ));
    }
    let version = u32::from_le_bytes(body[8..12].try_into().unwrap()); // vaer-lint: allow(panic) -- fixed 4-byte slice; infallible
    if version != VERSION {
        return Err(CoreError::Checkpoint(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let seq = u64::from_le_bytes(body[12..20].try_into().unwrap()); // vaer-lint: allow(panic) -- fixed 8-byte slice; infallible
    let len = u64::from_le_bytes(body[20..28].try_into().unwrap()) as usize; // vaer-lint: allow(panic) -- fixed 8-byte slice; infallible
    let payload = &body[HEADER_LEN..];
    if payload.len() != len {
        return Err(CoreError::Checkpoint(format!(
            "snapshot payload length {} != declared {len} (torn write?)",
            payload.len()
        )));
    }
    Ok((seq, payload.to_vec()))
}

/// Little-endian byte reader shared by the crate's state (de)serialisers
/// (`repr` / `active` training state). Every read is bounds-checked and
/// returns [`CoreError::Checkpoint`] on truncation — state parsing must
/// never panic, whatever the bytes are.
pub(crate) struct Cur<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CoreError::Checkpoint("state payload truncated".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap())) // vaer-lint: allow(panic) -- take(4) yields exactly 4 bytes; infallible
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap())) // vaer-lint: allow(panic) -- take(8) yields exactly 8 bytes; infallible
    }

    /// A `u32`-length-prefixed list of `f32`s, bounds-checked before
    /// allocation.
    pub(crate) fn f32_vec(&mut self) -> Result<Vec<f32>, CoreError> {
        let n = self.u32()? as usize;
        let raw = self.take(
            n.checked_mul(4)
                .ok_or_else(|| CoreError::Checkpoint("state length overflow".into()))?,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap())) // vaer-lint: allow(panic) -- chunks_exact(4) yields 4-byte slices; infallible
            .collect())
    }

    /// A `u64`-length-prefixed byte blob, bounds-checked before allocation.
    pub(crate) fn blob(&mut self) -> Result<&'a [u8], CoreError> {
        let n = self.u64()? as usize;
        self.take(n)
    }

    pub(crate) fn rng_state(&mut self) -> Result<[u64; 4], CoreError> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }
}

pub(crate) fn put_f32_vec(out: &mut Vec<u8>, vals: &[f32]) {
    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    for &v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

pub(crate) fn put_blob(out: &mut Vec<u8>, blob: &[u8]) {
    out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
    out.extend_from_slice(blob);
}

pub(crate) fn put_rng_state(out: &mut Vec<u8>, s: [u64; 4]) {
    for w in s {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// A directory of numbered snapshot files (`{prefix}-{seq:08}.ckpt`),
/// written atomically and read newest-valid-first.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    prefix: String,
    retry: RetryPolicy,
}

impl CheckpointStore {
    /// Opens (creating if needed) the snapshot directory. Writes retry
    /// under [`RetryPolicy::checkpoint_default`]; override with
    /// [`with_retry`](Self::with_retry).
    ///
    /// # Errors
    /// [`CoreError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, prefix: &str) -> Result<Self, CoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            prefix: prefix.to_string(),
            retry: RetryPolicy::checkpoint_default(),
        })
    }

    /// Replaces the write-retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{}-{seq:08}.ckpt", self.prefix))
    }

    /// Writes snapshot `seq` atomically: envelope to a temp file, fsync,
    /// rename into place. Transient IO failures retry under the store's
    /// [`RetryPolicy`] (capped, jittered exponential backoff), with retry
    /// sleeps clamped to `budget`'s remaining deadline (a retrying writer
    /// can never sleep through it). Returns the number of retries burned
    /// so callers can account them in a `ResolutionHealth` report.
    ///
    /// # Errors
    /// [`CoreError::Io`] once the retry budget is spent or the run
    /// budget no longer allows a retry sleep.
    pub fn write(&self, seq: u64, payload: &[u8], budget: &RunBudget) -> Result<u32, CoreError> {
        let envelope = seal(seq, payload);
        let final_path = self.path_for(seq);
        let tmp_path = self.dir.join(format!(".{}-{seq:08}.tmp", self.prefix));
        let mut retries = 0u32;
        let out = self.retry.run(
            budget,
            |_| self.try_write(&final_path, &tmp_path, &envelope),
            |_, _| {
                retries += 1;
                crate::obs::handles().checkpoint_write_retries.add(1);
            },
        );
        match out {
            Ok(()) => {
                crate::obs::handles().checkpoint_writes.add(1);
                Ok(retries)
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp_path);
                Err(CoreError::Io(e))
            }
        }
    }

    fn try_write(
        &self,
        final_path: &Path,
        tmp_path: &Path,
        envelope: &[u8],
    ) -> std::io::Result<()> {
        if let Some(action) = vaer_fault::trigger("checkpoint.write") {
            match action {
                vaer_fault::Action::Err => {
                    return Err(std::io::Error::other("injected checkpoint write failure"))
                }
                vaer_fault::Action::Torn => {
                    // Simulate a crash mid-write: half an envelope lands at
                    // the final path, bypassing the temp-then-rename dance.
                    fs::write(final_path, &envelope[..envelope.len() / 2])?;
                    return Ok(());
                }
                _ => {}
            }
        }
        {
            let mut f = File::create(tmp_path)?;
            f.write_all(envelope)?;
            f.sync_all()?;
        }
        fs::rename(tmp_path, final_path)?;
        // Best-effort directory fsync so the rename itself is durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Sequence numbers of all snapshot files present (unvalidated),
    /// ascending.
    ///
    /// # Errors
    /// [`CoreError::Io`] if the directory cannot be read.
    pub fn list(&self) -> Result<Vec<u64>, CoreError> {
        let mut seqs = Vec::new();
        // vaer-lint: allow(cancel-probe-coverage) -- directory scan bounded by checkpoint-file count
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&format!("{}-", self.prefix)) else {
                continue;
            };
            let Some(num) = rest.strip_suffix(".ckpt") else {
                continue;
            };
            if let Ok(seq) = num.parse::<u64>() {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Loads and validates snapshot `seq`.
    ///
    /// # Errors
    /// [`CoreError::Io`] if the file cannot be read,
    /// [`CoreError::Checkpoint`] if it is torn, corrupt, or mislabelled.
    pub fn read(&self, seq: u64) -> Result<Vec<u8>, CoreError> {
        let bytes = fs::read(self.path_for(seq))?;
        let (stored_seq, payload) = unseal(&bytes)?;
        if stored_seq != seq {
            return Err(CoreError::Checkpoint(format!(
                "snapshot file for seq {seq} contains seq {stored_seq}"
            )));
        }
        Ok(payload)
    }

    /// Loads the newest snapshot that validates, skipping (and counting)
    /// torn or corrupt files. Returns `None` when no valid snapshot
    /// exists.
    ///
    /// # Errors
    /// [`CoreError::Io`] if the directory cannot be read at all.
    pub fn read_latest(&self) -> Result<Option<(u64, Vec<u8>)>, CoreError> {
        for &seq in self.list()?.iter().rev() {
            let Ok(bytes) = fs::read(self.path_for(seq)) else {
                crate::obs::handles().checkpoint_corrupt_skipped.add(1);
                continue;
            };
            match unseal(&bytes) {
                Ok((stored_seq, payload)) if stored_seq == seq => return Ok(Some((seq, payload))),
                _ => {
                    crate::obs::handles().checkpoint_corrupt_skipped.add(1);
                    vaer_obs::event(
                        "checkpoint.corrupt",
                        &[("seq", seq.into()), ("prefix", self.prefix.clone().into())],
                    );
                }
            }
        }
        Ok(None)
    }

    /// Deletes all but the newest `keep` snapshot files.
    ///
    /// # Errors
    /// [`CoreError::Io`] if the directory cannot be read.
    pub fn prune(&self, keep: usize) -> Result<(), CoreError> {
        let seqs = self.list()?;
        if seqs.len() > keep {
            for &seq in &seqs[..seqs.len() - keep] {
                let _ = fs::remove_file(self.path_for(seq));
            }
        }
        Ok(())
    }
}

/// One oracle answer, as recorded in the label [`Journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Position in the run's label-query stream (0-based, contiguous).
    pub seq: u64,
    /// Left-table entity index.
    pub left: usize,
    /// Right-table entity index.
    pub right: usize,
    /// The oracle's verdict.
    pub is_match: bool,
}

impl JournalEntry {
    fn to_json(self) -> String {
        format!(
            "{{\"seq\":{},\"left\":{},\"right\":{},\"is_match\":{}}}",
            self.seq, self.left, self.right, self.is_match
        )
    }

    fn from_json(line: &str) -> Option<Self> {
        let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let (mut seq, mut left, mut right, mut is_match) = (None, None, None, None);
        // vaer-lint: allow(cancel-probe-coverage) -- parses one journal line; field count is tiny and fixed
        for field in body.split(',') {
            let (key, value) = field.split_once(':')?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "seq" => seq = value.parse::<u64>().ok(),
                "left" => left = value.parse::<usize>().ok(),
                "right" => right = value.parse::<usize>().ok(),
                "is_match" => is_match = value.parse::<bool>().ok(),
                _ => return None,
            }
        }
        Some(Self {
            seq: seq?,
            left: left?,
            right: right?,
            is_match: is_match?,
        })
    }
}

/// An append-only JSONL file of [`JournalEntry`]s, fsynced per append so
/// each label is durable before it is used.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// Points the journal at `path` (the file need not exist yet).
    pub fn open(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one entry and fsyncs it to disk.
    ///
    /// # Errors
    /// [`CoreError::Io`] when the write fails.
    pub fn append(&self, entry: &JournalEntry) -> Result<(), CoreError> {
        if let Some(vaer_fault::Action::Err) = vaer_fault::trigger("journal.append") {
            return Err(CoreError::Io(std::io::Error::other(
                "injected journal append failure",
            )));
        }
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut line = entry.to_json();
        line.push('\n');
        f.write_all(line.as_bytes())?;
        f.sync_data()?;
        crate::obs::handles().journal_appends.add(1);
        Ok(())
    }

    /// Replays the journal. A missing file is an empty journal; a torn
    /// *final* line (crash mid-append) is dropped; anything else
    /// malformed — a bad interior line or a gap in the sequence numbers —
    /// is an error, since silently skipping labels would desynchronise a
    /// resumed run.
    ///
    /// # Errors
    /// [`CoreError::Io`] on read failure, [`CoreError::Checkpoint`] on a
    /// corrupt interior line or non-contiguous sequence numbers.
    pub fn read_all(&self) -> Result<Vec<JournalEntry>, CoreError> {
        let text = match fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(CoreError::Io(e)),
        };
        let lines: Vec<&str> = text.lines().collect();
        let mut entries = Vec::with_capacity(lines.len());
        // vaer-lint: allow(cancel-probe-coverage) -- journal replay bounded by the on-disk line count
        for (i, line) in lines.iter().enumerate() {
            match JournalEntry::from_json(line) {
                Some(e) => entries.push(e),
                None if i + 1 == lines.len() => break, // torn tail tolerated
                None => {
                    return Err(CoreError::Checkpoint(format!(
                        "journal line {} is corrupt",
                        i + 1
                    )))
                }
            }
        }
        // vaer-lint: allow(cancel-probe-coverage) -- sequence-gap check over the same bounded entry list
        for (i, e) in entries.iter().enumerate() {
            if e.seq != i as u64 {
                return Err(CoreError::Checkpoint(format!(
                    "journal sequence gap: entry {i} has seq {}",
                    e.seq
                )));
            }
        }
        Ok(entries)
    }
}

/// Durable state for one active-learning run: a snapshot store plus the
/// label journal, living in one directory.
///
/// All oracle queries go through [`AlSession::label`], keyed by their
/// position in the run's query stream. On a fresh run every query hits
/// the oracle and is journaled before use; on a resumed run the queries
/// already journaled are replayed verbatim (and, because
/// [`Oracle`] bills each unique pair once, never re-billed), so the
/// resumed run consumes the exact same label stream as the original.
#[derive(Debug)]
pub struct AlSession {
    ckpt: CheckpointStore,
    journal: Journal,
    entries: Vec<JournalEntry>,
}

impl AlSession {
    /// Opens (or creates) the session directory and replays its journal.
    ///
    /// # Errors
    /// [`CoreError::Io`] / [`CoreError::Checkpoint`] if the directory or
    /// journal is unusable.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let dir = dir.into();
        let ckpt = CheckpointStore::open(&dir, "al")?;
        let journal = Journal::open(dir.join("labels.jsonl"));
        let entries = journal.read_all()?;
        Ok(Self {
            ckpt,
            journal,
            entries,
        })
    }

    /// The journaled labels so far (replayed at open).
    pub fn labels(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The newest valid learner snapshot, if any.
    ///
    /// # Errors
    /// [`CoreError::Io`] if the directory cannot be read.
    pub fn latest_snapshot(&self) -> Result<Option<(u64, Vec<u8>)>, CoreError> {
        self.ckpt.read_latest()
    }

    /// Answers label query number `seq` for `(left, right)`: from the
    /// journal when already recorded (a resumed run), otherwise from the
    /// oracle, journaled durably before the answer is used.
    ///
    /// # Errors
    /// [`CoreError::Checkpoint`] when the journaled pair at `seq` is not
    /// `(left, right)` (the resumed run has diverged from the original —
    /// refusing is safer than mixing label streams) or when `seq` skips
    /// ahead of the journal; [`CoreError::Io`] when the append fails.
    pub fn label(
        &mut self,
        oracle: &Oracle,
        seq: u64,
        left: usize,
        right: usize,
    ) -> Result<bool, CoreError> {
        if let Some(e) = self.entries.get(seq as usize) {
            if e.left != left || e.right != right {
                return Err(CoreError::Checkpoint(format!(
                    "journal replay mismatch at seq {seq}: recorded ({}, {}), asked ({left}, {right})",
                    e.left, e.right
                )));
            }
            crate::obs::handles().journal_replays.add(1);
            return Ok(e.is_match);
        }
        if seq as usize != self.entries.len() {
            return Err(CoreError::Checkpoint(format!(
                "label query seq {seq} skips journal position {}",
                self.entries.len()
            )));
        }
        let is_match = oracle.label(left, right);
        let entry = JournalEntry {
            seq,
            left,
            right,
            is_match,
        };
        self.journal.append(&entry)?;
        self.entries.push(entry);
        Ok(is_match)
    }

    /// Writes learner snapshot `seq` and prunes old snapshots (the three
    /// newest are kept so corrupt files still have fallbacks).
    ///
    /// # Errors
    /// [`CoreError::Io`] when every write attempt fails.
    pub fn snapshot(&self, seq: u64, payload: &[u8]) -> Result<(), CoreError> {
        self.ckpt.write(seq, payload, &RunBudget::unlimited())?;
        self.ckpt.prune(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vaer-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn envelope_round_trip_and_corruption_detection() {
        let payload = b"hello checkpoint".to_vec();
        let sealed = seal(7, &payload);
        let (seq, back) = unseal(&sealed).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back, payload);
        // Truncations and bit flips anywhere must be rejected.
        for cut in [0, 5, HEADER_LEN - 1, sealed.len() - 1] {
            assert!(unseal(&sealed[..cut]).is_err(), "cut at {cut} accepted");
        }
        for pos in [0, 9, 15, 28, HEADER_LEN, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x04;
            assert!(unseal(&bad).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn store_writes_lists_reads_and_prunes() {
        let dir = temp_dir("store");
        let store = CheckpointStore::open(&dir, "t").unwrap();
        assert_eq!(store.read_latest().unwrap(), None);
        for seq in 0..5u64 {
            store
                .write(
                    seq,
                    format!("payload-{seq}").as_bytes(),
                    &RunBudget::unlimited(),
                )
                .unwrap();
        }
        assert_eq!(store.list().unwrap(), vec![0, 1, 2, 3, 4]);
        let (seq, payload) = store.read_latest().unwrap().unwrap();
        assert_eq!(seq, 4);
        assert_eq!(payload, b"payload-4");
        store.prune(2).unwrap();
        assert_eq!(store.list().unwrap(), vec![3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_latest_skips_corrupt_snapshots() {
        let dir = temp_dir("fallback");
        let store = CheckpointStore::open(&dir, "t").unwrap();
        store.write(1, b"good", &RunBudget::unlimited()).unwrap();
        store.write(2, b"newer", &RunBudget::unlimited()).unwrap();
        // Corrupt the newest file by hand (torn write).
        let newest = dir.join("t-00000002.ckpt");
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (seq, payload) = store.read_latest().unwrap().unwrap();
        assert_eq!(seq, 1, "fallback must pick the newest valid snapshot");
        assert_eq!(payload, b"good");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_retries_transient_failures_and_respects_budget() {
        let _g = vaer_fault::test_lock();
        let dir = temp_dir("retry");
        let store = CheckpointStore::open(&dir, "t").unwrap();
        // First attempt fails, the retry succeeds.
        vaer_fault::configure("checkpoint.write=err@1").unwrap();
        let retries = store.write(1, b"payload", &RunBudget::unlimited()).unwrap();
        assert_eq!(retries, 1);
        assert_eq!(store.read(1).unwrap(), b"payload");
        // Under an exhausted budget the writer must not sleep-and-retry.
        vaer_fault::configure("checkpoint.write=err").unwrap();
        let b = RunBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        assert!(store.write(2, b"payload", &b).is_err());
        assert_eq!(
            vaer_fault::hits("checkpoint.write"),
            1,
            "exhausted budget must stop after the first attempt"
        );
        vaer_fault::clear();
        // The failed write leaves no artifact behind.
        assert_eq!(store.list().unwrap(), vec![1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_appends_replays_and_tolerates_torn_tail() {
        let dir = temp_dir("journal");
        fs::create_dir_all(&dir).unwrap();
        let journal = Journal::open(dir.join("labels.jsonl"));
        assert!(journal.read_all().unwrap().is_empty());
        let entries = [
            JournalEntry {
                seq: 0,
                left: 3,
                right: 9,
                is_match: true,
            },
            JournalEntry {
                seq: 1,
                left: 4,
                right: 2,
                is_match: false,
            },
        ];
        for e in &entries {
            journal.append(e).unwrap();
        }
        assert_eq!(journal.read_all().unwrap(), entries);
        // A torn final line (crash mid-append) is dropped, not fatal.
        let mut f = OpenOptions::new()
            .append(true)
            .open(journal.path())
            .unwrap();
        f.write_all(b"{\"seq\":2,\"le").unwrap();
        drop(f);
        assert_eq!(journal.read_all().unwrap(), entries);
        // But a corrupt interior line is an error.
        fs::write(
            journal.path(),
            "{\"seq\":0,garbage\n{\"seq\":1,\"left\":1,\"right\":1,\"is_match\":true}\n",
        )
        .unwrap();
        assert!(journal.read_all().is_err());
        // As is a sequence gap.
        fs::write(
            journal.path(),
            "{\"seq\":0,\"left\":1,\"right\":1,\"is_match\":true}\n{\"seq\":5,\"left\":2,\"right\":2,\"is_match\":false}\n",
        )
        .unwrap();
        assert!(journal.read_all().is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_replays_labels_without_rebilling() {
        let dir = temp_dir("session");
        let oracle = Oracle::new([(1, 1), (2, 2)]);
        {
            let mut session = AlSession::open(&dir).unwrap();
            assert!(session.label(&oracle, 0, 1, 1).unwrap());
            assert!(!session.label(&oracle, 1, 1, 2).unwrap());
            assert_eq!(oracle.queries_used(), 2);
        }
        // "Crash" and reopen: the same queries replay from the journal.
        {
            let mut session = AlSession::open(&dir).unwrap();
            assert_eq!(session.labels().len(), 2);
            assert!(session.label(&oracle, 0, 1, 1).unwrap());
            assert!(!session.label(&oracle, 1, 1, 2).unwrap());
            assert_eq!(oracle.queries_used(), 2, "replay must not re-bill");
            // Divergence from the journal is refused.
            assert!(session.label(&oracle, 0, 9, 9).is_err());
            // Skipping ahead is refused.
            assert!(session.label(&oracle, 7, 2, 2).is_err());
            // The next fresh query extends the journal and bills.
            assert!(session.label(&oracle, 2, 2, 2).unwrap());
            assert_eq!(oracle.queries_used(), 3);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
