//! `IUSL` manifest persistence: a [`LiveIndex`] saved as a directory.
//!
//! ```text
//! <dir>/live.iusl      manifest: magic "IUSL" · version u16 · alphabet ·
//!                      family tag + params · max_pattern_len · n ·
//!                      memtable (start, rows, probs) · tombstones ·
//!                      segment table (id, offset, home_len each) ·
//!                      next segment id · CRC32 trailer (u32)
//! <dir>/seg-<id>.iusg  one per segment: magic "IUSG" · version u16 ·
//!                      id/offset/home_len · chunk rows · σ · chunk probs ·
//!                      zero pad to an 8-aligned offset · nested IUSX
//!                      index envelope (ius_index::persist) · CRC32
//!                      trailer (u32)
//! <dir>/live.wal       write-ahead log tail, when durability is armed
//!                      (see [`crate::wal`]); replayed over the manifest
//!                      snapshot by [`LiveIndex::open`]
//! ```
//!
//! Everything is little-endian (`f64` as the LE bytes of its IEEE-754
//! bits), written and read through [`ius_arena::le`] like the `IUSX`
//! on-disk format. **Version policy** is the same too: this build reads
//! and writes version 3 only, any layout change bumps the version, and
//! every other version is refused with a typed `InvalidData` error naming
//! it (load and re-save a version-2 directory with an older build to
//! convert it). Version 2 added the CRC32 trailer (over everything from
//! the magic to the last payload byte); version 3 zero-pads the segment
//! prefix so the nested index envelope starts on an 8-aligned offset.
//!
//! Reopening never re-runs construction, and there is **one read path**
//! for both file kinds: read the whole file, check its magic and version,
//! check the CRC32 once over the body, then parse fields from the checked
//! slice. A segment file is read into one [`ius_arena::Arena`] so its
//! index opens zero-copy through `ius_index::persist::open_index_at`
//! (O(header + validation), not O(elements)); the manifest is read into a
//! plain byte vector. Each file is saved from one buffer: the fields, the
//! CRC32 appended, one `write_all`.
//!
//! [`LiveIndex::save_to_dir`] writes the segment files first and the
//! manifest last, **every file through a temporary name + atomic rename**;
//! segments are immutable and ids never reused, so a segment file already
//! present under its final name is skipped (no pointless rewrite, and no
//! in-place truncation of a file the current manifest references). It then
//! removes `seg-*.iusg` files the new manifest no longer references (left
//! behind by compactions) and stale `.tmp` debris. A torn save therefore
//! always leaves the *previous* manifest intact and loadable.
//!
//! [`LiveIndex::open`] fails with a **typed** `InvalidData`/`UnexpectedEof`
//! error on any corrupt or truncated manifest or segment file, and with a
//! typed `NotFound` error naming the missing file when a segment file the
//! manifest references is gone — never with a panic, and never lazily at
//! first query (everything is validated at open).

use crate::wal::{self, WalRecord};
use crate::{insert_tombstone, LiveConfig, LiveIndex, LiveState, Memtable, Segment};
use ius_arena::le::{self, Reader};
use ius_arena::Arena;
use ius_faultio::crc32;
use ius_index::overlap::overlap_len;
use ius_index::persist::{read_spec, write_spec};
use ius_index::{IndexSpec, UncertainIndex};
use ius_weighted::{Alphabet, WeightedString};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The four magic bytes opening a live-index manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"IUSL";

/// The four magic bytes opening a segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"IUSG";

/// The manifest / segment-file format version, the only one this build
/// reads or writes. Version 2 added the CRC32 trailer behind both file
/// kinds; version 3 zero-pads the segment prefix so the nested `IUSX`
/// envelope starts 8-aligned and reopens through the zero-copy arena
/// path. Files of any other version are refused typed.
pub const LIVE_FORMAT_VERSION: u16 = 3;

/// File name of the manifest inside a live-index directory.
pub const MANIFEST_FILE: &str = "live.iusl";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Bytes of a file's magic and version.
const FILE_HEAD: usize = 6;

/// Bytes of a file's CRC32 trailer.
const FILE_TRAILER: usize = 4;

/// Bytes a manifest buffer holds beyond its rows, tombstones, segment
/// entries and alphabet symbols: the head, the spec, the counts and the
/// trailer.
const MANIFEST_SLACK: usize = 256;

/// Starts a file of either kind, `capacity` bytes long in all: its magic
/// and version, in a buffer reserved at that size so that the writes to
/// come (the trailer included) do not grow it by doubling.
fn begin_file(magic: [u8; 4], capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(&magic);
    le::put(&mut out, LIVE_FORMAT_VERSION);
    out
}

/// Appends the CRC32 trailer to `out` and writes it to `dir/name` in one
/// `write_all`, through a temporary name and an atomic rename.
fn write_file(dir: &Path, name: &str, mut out: Vec<u8>) -> io::Result<()> {
    let crc = crc32(&out);
    le::put(&mut out, crc);
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, dir.join(name))
}

/// Opens the bytes of a whole file of either kind: checks its magic and
/// version first (the most informative failures), then its CRC32 trailer
/// over everything before it, and returns a reader over the checked body,
/// positioned past the version.
fn open_file<'a>(bytes: &'a [u8], magic: [u8; 4], what: &str) -> io::Result<Reader<'a>> {
    if bytes.len() < magic.len() + 2 + 4 {
        return Err(bad(format!("{what} file is too short")));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let mut r = Reader::new(body);
    let got = r.bytes(magic.len(), "magic")?;
    if got != magic {
        return Err(bad(format!(
            "not a live-index {what} file (bad magic {got:02x?})"
        )));
    }
    let version: u16 = r.get("version")?;
    if version != LIVE_FORMAT_VERSION {
        return Err(bad(format!(
            "unsupported live-index {what} version {version} (this build reads only version \
             {LIVE_FORMAT_VERSION}; load and re-save the directory with an older build to \
             convert it)"
        )));
    }
    let stored: u32 = Reader::new(trailer).get("checksum trailer")?;
    let computed = crc32(body);
    if stored != computed {
        return Err(bad(format!(
            "{what} checksum mismatch (stored {stored:#010x}, computed {computed:#010x}): the \
             file is corrupt"
        )));
    }
    Ok(r)
}

fn segment_file_name(id: u64) -> String {
    format!("seg-{id:016x}.iusg")
}

// ---------------------------------------------------------------------
// Save / open
// ---------------------------------------------------------------------

impl LiveIndex {
    /// Persists the live index into `dir` (created if missing): one
    /// segment file per segment, then the `live.iusl` manifest via an
    /// atomic rename, then unreferenced stale segment files are removed.
    /// The saved snapshot is consistent: it is taken once under the
    /// mutation lock, so a concurrent append cannot tear it. When
    /// durability is armed into this same directory, the write-ahead log
    /// is rotated afterwards — the fresh manifest covers everything the
    /// old log held.
    ///
    /// # Errors
    ///
    /// I/O errors of the directory and file writes.
    pub fn save_to_dir(&self, dir: &Path) -> io::Result<()> {
        // Hold the write lock so the saved (segments, memtable, tombstones,
        // n) tuple is one mutation-consistent snapshot.
        let _write = self.inner.write_lock.lock().expect("write lock");
        self.save_to_dir_locked(dir)?;
        self.rotate_wal_locked(dir);
        Ok(())
    }

    /// The save body; the caller holds `write_lock` (the flush-time
    /// checkpoint calls this while already inside a mutation).
    pub(crate) fn save_to_dir_locked(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let state = self.inner.state.lock().expect("state lock").clone();
        let sigma = self.inner.alphabet.size();
        for segment in &state.segments {
            let name = segment_file_name(segment.id);
            // Segments are immutable and ids are never reused (the next
            // id persists in the manifest), so a segment file that exists
            // under its final name was completed by an earlier save's
            // rename and is byte-identical to what would be rewritten —
            // skip it. New segments go through a temp name + atomic
            // rename, so a crash mid-save can only leave unreferenced
            // `.tmp` debris, never a truncated file the *previous*
            // manifest references: a torn save always leaves the prior
            // state loadable.
            if dir.join(&name).exists() {
                continue;
            }
            // Head, five counts and X's rows, padded to 8; then the
            // envelope and the trailer.
            let prefix = FILE_HEAD + 5 * 8 + 8 * segment.x.flat_probs().len();
            let capacity = prefix.next_multiple_of(8) + segment.index.save_bound() + FILE_TRAILER;
            let mut out = begin_file(SEGMENT_MAGIC, capacity);
            le::put_slice(
                &mut out,
                &[
                    segment.id,
                    segment.offset as u64,
                    segment.home_len as u64,
                    segment.x.len() as u64,
                    sigma as u64,
                ],
            );
            le::put_slice(&mut out, segment.x.flat_probs());
            // Zero-pad so the nested envelope starts 8-aligned: reopen
            // then maps the file once and borrows the arrays in place.
            out.resize(out.len().next_multiple_of(8), 0);
            segment.index.save_into(&mut out);
            write_file(dir, &name, out)?;
        }
        let symbols = self.inner.alphabet.symbols();
        let rows = state.memtable.flat_rows(0, state.memtable.rows, sigma);
        // The spec and the scalars fit the slack; the rows, tombstones and
        // segment entries are counted.
        let capacity = MANIFEST_SLACK
            + symbols.len()
            + 8 * rows.len()
            + 16 * state.tombstones.len()
            + 24 * state.segments.len();
        let mut out = begin_file(MANIFEST_MAGIC, capacity);
        le::put(&mut out, symbols.len() as u64);
        out.extend_from_slice(symbols);
        write_spec(&mut out, &self.inner.spec);
        le::put_slice(
            &mut out,
            &[
                self.inner.max_pattern_len as u64,
                state.n as u64,
                state.memtable.start as u64,
                state.memtable.rows as u64,
            ],
        );
        le::put_slice(&mut out, &rows);
        drop(rows);
        le::put(&mut out, state.tombstones.len() as u64);
        for &(start, end) in &state.tombstones {
            le::put_slice(&mut out, &[start as u64, end as u64]);
        }
        le::put(&mut out, state.segments.len() as u64);
        for segment in &state.segments {
            le::put_slice(
                &mut out,
                &[segment.id, segment.offset as u64, segment.home_len as u64],
            );
        }
        le::put(
            &mut out,
            self.inner
                .next_segment_id
                .load(std::sync::atomic::Ordering::SeqCst),
        );
        write_file(dir, MANIFEST_FILE, out)?;
        // Garbage-collect segment files a compaction has retired, plus any
        // `.tmp` debris a crashed earlier save left behind.
        let referenced: Vec<String> = state
            .segments
            .iter()
            .map(|segment| segment_file_name(segment.id))
            .collect();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("seg-")
                && (name.ends_with(".iusg.tmp")
                    || (name.ends_with(".iusg") && !referenced.iter().any(|r| r == name)))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// Reopens a live index previously saved by
    /// [`LiveIndex::save_to_dir`]. No construction is re-run: segment
    /// indexes come back through `ius_index::persist`. Everything is
    /// validated here — a corrupt manifest or segment file fails with a
    /// typed `InvalidData`/`UnexpectedEof` error, a missing segment file
    /// with a typed `NotFound` naming it — so a successfully opened index
    /// cannot fail structurally at first query.
    ///
    /// # Errors
    ///
    /// I/O errors, `InvalidData` on malformed content.
    pub fn open(dir: &Path, config: LiveConfig) -> io::Result<Self> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&manifest_path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot open manifest {}: {e}", manifest_path.display()),
            )
        })?;
        let mut r = open_file(&bytes, MANIFEST_MAGIC, "manifest")?;
        let symbols_len = r.usize("alphabet size")?;
        if symbols_len == 0 || symbols_len > 256 {
            return Err(bad(format!("invalid stored alphabet size {symbols_len}")));
        }
        let alphabet = Alphabet::new(r.bytes(symbols_len, "alphabet symbols")?)
            .map_err(|e| bad(e.to_string()))?;
        let sigma = alphabet.size();
        let spec = read_spec(&mut r)?;
        let max_pattern_len = r.usize("max_pattern_len")?;
        if max_pattern_len == 0 || max_pattern_len < spec.lower_bound() {
            return Err(bad(format!(
                "stored max_pattern_len {max_pattern_len} is below the family's lower bound"
            )));
        }
        let overlap = overlap_len(max_pattern_len);
        let n = r.usize("n")?;
        let mem_start = r.usize("memtable start")?;
        let mem_rows = r.usize("memtable rows")?;
        if mem_start.checked_add(mem_rows) != Some(n) {
            return Err(bad(format!(
                "memtable [{mem_start}, {mem_start}+{mem_rows}) does not end at n = {n}"
            )));
        }
        let mem_probs = r.vec::<f64>(
            mem_rows
                .checked_mul(sigma)
                .ok_or_else(|| bad("memtable size overflow"))?,
            "memtable probabilities",
        )?;
        if mem_rows > 0 {
            // Row validation (sums to 1, entries in [0, 1]) via the
            // WeightedString constructor; the flat copy is then discarded.
            WeightedString::from_flat(alphabet.clone(), mem_probs.clone())
                .map_err(|e| bad(format!("memtable rows: {e}")))?;
        }
        let tombstone_count = r.usize("tombstone count")?;
        let mut tombstones = Vec::with_capacity(tombstone_count.min(r.remaining() / 16));
        let mut prev_end = 0usize;
        for i in 0..tombstone_count {
            let start = r.usize("tombstone start")?;
            let end = r.usize("tombstone end")?;
            if start >= end || end > n || (i > 0 && start <= prev_end) {
                return Err(bad(format!(
                    "tombstone {i} [{start}, {end}) is not sorted/disjoint within [0, {n})"
                )));
            }
            prev_end = end;
            tombstones.push((start, end));
        }
        let segment_count = r.usize("segment count")?;
        let mut table = Vec::with_capacity(segment_count.min(r.remaining() / 24));
        for _ in 0..segment_count {
            let id: u64 = r.get("segment id")?;
            let offset = r.usize("segment offset")?;
            let home_len = r.usize("segment home length")?;
            table.push((id, offset, home_len));
        }
        let next_segment_id: u64 = r.get("next segment id")?;
        if r.remaining() != 0 {
            return Err(bad(format!(
                "{} undecoded bytes before the manifest checksum",
                r.remaining()
            )));
        }
        // Tiling: home ranges cover [0, mem_start) consecutively.
        let mut expected_offset = 0usize;
        for (i, &(id, offset, home_len)) in table.iter().enumerate() {
            if offset != expected_offset || home_len == 0 {
                return Err(bad(format!("segment {i} does not tile the corpus")));
            }
            if id >= next_segment_id {
                return Err(bad(format!(
                    "segment {i} id {id} is not below the stored next id {next_segment_id}"
                )));
            }
            expected_offset = expected_offset
                .checked_add(home_len)
                .ok_or_else(|| bad(format!("segment {i} home range overflows the corpus")))?;
        }
        if expected_offset != mem_start {
            return Err(bad(format!(
                "segment home ranges cover [0, {expected_offset}) but the memtable starts at \
                 {mem_start}"
            )));
        }

        let mut segments = Vec::with_capacity(table.len());
        for &(id, offset, home_len) in &table {
            let path = dir.join(segment_file_name(id));
            let arena = Arena::from_file(&path).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!(
                        "segment file {} referenced by the manifest cannot be opened: {e}",
                        path.display()
                    ),
                )
            })?;
            let segment = read_segment_file(arena, &alphabet, &spec, id, offset, home_len, overlap)
                .map_err(|e| {
                    io::Error::new(e.kind(), format!("segment file {}: {e}", path.display()))
                })?;
            segments.push(Arc::new(segment));
        }

        let mut state = LiveState {
            segments,
            memtable: Memtable::from_flat(mem_start, mem_rows, mem_probs),
            tombstones,
            n,
        };

        // Replay the write-ahead log tail, if one exists: mutations acked
        // after the last checkpoint live only there. `wal::scan` already
        // applied the torn-tail rule, so every record seen here was fully
        // written; records the checkpoint folded in replay as skips.
        let wal_path = dir.join(wal::WAL_FILE);
        let mut recovered_records = 0u64;
        let mut replay_records = 0u64;
        let mut replay_bytes = 0u64;
        let replay_start = ius_obs::clock::now_ns();
        match std::fs::read(&wal_path) {
            Ok(bytes) => {
                replay_bytes = bytes.len() as u64;
                let records = wal::scan(&bytes).map_err(|e| {
                    io::Error::new(e.kind(), format!("wal {}: {e}", wal_path.display()))
                })?;
                replay_records = records.len() as u64;
                for (i, record) in records.iter().enumerate() {
                    let applied = apply_wal_record(&mut state, &alphabet, record).map_err(|e| {
                        io::Error::new(
                            e.kind(),
                            format!("wal {} record {i}: {e}", wal_path.display()),
                        )
                    })?;
                    recovered_records += u64::from(applied);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("cannot read wal {}: {e}", wal_path.display()),
                ))
            }
        }
        let replay_ns = ius_obs::clock::now_ns().saturating_sub(replay_start);

        let live = LiveIndex::from_loaded_parts(
            alphabet,
            spec,
            max_pattern_len,
            config,
            state,
            next_segment_id,
        )
        .map_err(|e| bad(e.to_string()))?;
        if recovered_records > 0 {
            use std::sync::atomic::Ordering;
            live.inner.recoveries.store(1, Ordering::Relaxed);
            live.inner
                .recovered_records
                .store(recovered_records, Ordering::Relaxed);
        }
        live.inner.obs.replay_records.add(replay_records);
        live.inner.obs.replay_bytes.add(replay_bytes);
        live.inner.obs.replay_ns.add(replay_ns);
        Ok(live)
    }
}

/// Applies one replayed WAL record onto the manifest snapshot. Returns
/// `false` for a record the checkpoint had already folded in (its
/// `n_before` stamp lies strictly inside the manifest corpus), `true`
/// when the record mutated the state.
fn apply_wal_record(
    state: &mut LiveState,
    alphabet: &Alphabet,
    record: &WalRecord,
) -> io::Result<bool> {
    let as_len = |v: u64, what: &str| {
        usize::try_from(v).map_err(|_| bad(format!("{what} exceeds the address space")))
    };
    match record {
        WalRecord::Append {
            n_before,
            rows,
            flat,
        } => {
            let n_before = as_len(*n_before, "append position")?;
            let rows = as_len(*rows, "append rows")?;
            let sigma = alphabet.size();
            let values = rows
                .checked_mul(sigma)
                .ok_or_else(|| bad(format!("append of {rows} rows over σ = {sigma} overflows")))?;
            if rows == 0 || flat.len() != values {
                return Err(bad(format!(
                    "append carries {} values for {rows} rows over σ = {sigma}",
                    flat.len()
                )));
            }
            let end = n_before
                .checked_add(rows)
                .ok_or_else(|| bad("append end overflows"))?;
            if end <= state.n {
                // Logged before the checkpoint this manifest is: already in.
                return Ok(false);
            }
            if n_before != state.n {
                return Err(bad(format!(
                    "append stamped at n = {n_before} does not resume the corpus at n = {}",
                    state.n
                )));
            }
            // Row validation (sums to 1, entries in [0, 1]) — same gate the
            // original live append ran; the copy is then discarded.
            WeightedString::from_flat(alphabet.clone(), flat.clone())
                .map_err(|e| bad(format!("append rows: {e}")))?;
            state.memtable.push_rows(flat, rows, sigma);
            state.n = end;
            Ok(true)
        }
        WalRecord::Delete {
            n_before,
            start,
            end,
        } => {
            let logged_n = as_len(*n_before, "delete stamp")?;
            let start = as_len(*start, "delete start")?;
            let end = as_len(*end, "delete end")?;
            if start >= end || end > logged_n || logged_n > state.n {
                return Err(bad(format!(
                    "delete [{start}, {end}) stamped at n = {logged_n} is invalid against the \
                     corpus at n = {}",
                    state.n
                )));
            }
            // Tombstone insertion coalesces, so re-applying a delete the
            // checkpoint already folded in is a no-op — idempotent either way.
            insert_tombstone(&mut state.tombstones, start, end);
            Ok(true)
        }
    }
}

/// Reads and fully validates one segment file against its manifest entry
/// and the manifest's spec.
///
/// The nested `IUSX` envelope sits at an 8-aligned offset, so the index
/// reopens through the zero-copy arena path
/// (`ius_index::persist::open_index_at`): open cost is header parsing
/// plus checksum validation, not element-by-element decoding.
fn read_segment_file(
    arena: Arena,
    alphabet: &Alphabet,
    spec: &IndexSpec,
    id: u64,
    offset: usize,
    home_len: usize,
    overlap: usize,
) -> io::Result<Segment> {
    let bytes = arena.as_bytes();
    let mut r = open_file(bytes, SEGMENT_MAGIC, "segment")?;
    let stored_id: u64 = r.get("segment id")?;
    let stored_offset = r.usize("segment offset")?;
    let stored_home = r.usize("segment home length")?;
    if stored_id != id || stored_offset != offset || stored_home != home_len {
        return Err(bad(format!(
            "segment header (id {stored_id}, offset {stored_offset}, home {stored_home}) does \
             not match the manifest entry (id {id}, offset {offset}, home {home_len})"
        )));
    }
    let chunk_rows = r.usize("segment chunk rows")?;
    if home_len.checked_add(overlap) != Some(chunk_rows) {
        return Err(bad(format!(
            "segment chunk has {chunk_rows} rows, expected home {home_len} + overlap {overlap}"
        )));
    }
    let stored_sigma = r.usize("segment σ")?;
    if stored_sigma != alphabet.size() {
        return Err(bad(format!(
            "segment σ = {stored_sigma} does not match the manifest alphabet (σ = {})",
            alphabet.size()
        )));
    }
    let probs = r.vec::<f64>(
        chunk_rows
            .checked_mul(stored_sigma)
            .ok_or_else(|| bad("segment size overflow"))?,
        "segment probabilities",
    )?;
    let x = WeightedString::from_flat(alphabet.clone(), probs)
        .map_err(|e| bad(format!("segment rows: {e}")))?;
    let aligned = r.pos().next_multiple_of(8);
    match r.bytes(aligned - r.pos(), "segment padding") {
        Ok(pad) if pad.iter().all(|&b| b == 0) => {}
        _ => return Err(bad("segment alignment padding is missing or not zeroed")),
    }
    let (index, consumed) = ius_index::persist::open_index_at(&arena, aligned)?;
    if aligned + consumed != bytes.len() - 4 {
        return Err(bad("trailing bytes after the segment's index envelope"));
    }
    if !index.matches_spec(spec) {
        return Err(bad(format!(
            "segment holds a {} index that the manifest's spec ({}, z = {}, ℓ = {}) did not \
             build",
            index.family().name(),
            spec.family.name(),
            spec.params.z,
            spec.params.ell
        )));
    }
    if let Some(expected) = index.corpus_len_hint() {
        if expected != chunk_rows {
            return Err(bad(format!(
                "segment index was built over {expected} rows, the stored chunk has {chunk_rows}"
            )));
        }
    }
    // A cheap structural smoke: the index must answer its size without
    // panicking (full query behavior is covered by the corruption tests).
    let _ = index.size_bytes();
    Ok(Segment {
        id,
        offset,
        home_len,
        x,
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_index::{IndexFamily, IndexParams, IndexVariant};

    #[test]
    fn every_family_round_trips_through_the_spec_encoding() {
        let params = IndexParams::new(8.0, 16, 4).unwrap();
        // The tags follow the order of `IndexFamily::all()`.
        for (tag, family) in IndexFamily::all().into_iter().enumerate() {
            let spec = IndexSpec::new(family, params);
            let mut bytes = Vec::new();
            write_spec(&mut bytes, &spec);
            assert_eq!(usize::from(bytes[0]), tag, "{}", family.name());
            assert_eq!(read_spec(&mut Reader::new(&bytes)).unwrap(), spec);
        }
        // 9 and 10 once named space-efficient grid variants, which never
        // built; they are unknown like any other tag.
        for tag in [9u8, 10, 11] {
            let mut bytes = Vec::new();
            write_spec(&mut bytes, &IndexSpec::new(IndexFamily::Naive, params));
            bytes[0] = tag;
            let err = read_spec(&mut Reader::new(&bytes)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("unknown index-family tag"),
                "{err}"
            );
        }
    }

    /// A segment file whose checksum is intact but whose index was built
    /// under another spec — here a directory saved at another `z` — is
    /// refused `InvalidData` at open instead of serving that `z`'s answers.
    #[test]
    fn a_segment_built_under_another_spec_is_refused_typed() {
        let x = ius_datasets::uniform::UniformConfig {
            n: 300,
            sigma: 3,
            spread: 0.35,
            seed: 0x5EC,
        }
        .generate();
        let config = LiveConfig {
            flush_threshold: 100,
            auto_compact: false,
            threads: 1,
            ..LiveConfig::default()
        };
        let root = std::env::temp_dir().join(format!("ius-segment-spec-{}", std::process::id()));
        let save = |z: f64| {
            let params = IndexParams::new(z, 8, x.sigma()).unwrap();
            let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
            let dir = root.join(format!("z{z}"));
            LiveIndex::from_corpus(&x, spec, 16, config.clone())
                .unwrap()
                .save_to_dir(&dir)
                .unwrap();
            dir
        };
        let (ours, theirs) = (save(6.0), save(12.0));
        assert!(LiveIndex::open(&ours, config.clone()).is_ok());
        let segment = segment_file_name(0);
        std::fs::copy(theirs.join(&segment), ours.join(&segment)).unwrap();
        let err = LiveIndex::open(&ours, config).unwrap_err();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string()
                .contains("a MWSA index that the manifest's spec (MWSA, z = 6, ℓ = 8) did not"),
            "{err}"
        );
    }
}
