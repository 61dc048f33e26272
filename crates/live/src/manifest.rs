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
//! bits), matching the `IUSX` on-disk format. **Version policy** is the
//! same too: this build reads and writes version 3 only, any layout
//! change bumps the version, and every other version is refused with a
//! typed `InvalidData` error naming it (load and re-save a version-2
//! directory with an older build to convert it). Version 2 added the
//! CRC32 trailer (over everything from the magic to the last payload
//! byte); version 3 zero-pads the segment prefix so the nested index
//! envelope starts on an 8-aligned offset. Reopening never re-runs
//! construction, and there is one read path: each segment file is read
//! into one [`ius_arena::Arena`] and its index opened zero-copy by
//! `ius_index::persist::open_index_at` (O(header + validation), not
//! O(elements)).
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
use ius_arena::Arena;
use ius_faultio::{crc32, Crc32Reader, Crc32Writer};
use ius_index::overlap::overlap_len;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, UncertainIndex};
use ius_sampling::KmerOrder;
use ius_weighted::{Alphabet, WeightedString};
use std::io::{self, BufReader, BufWriter, Read, Write};
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

// ---------------------------------------------------------------------
// Wire primitives (the IUSX helpers are private to ius_index::persist;
// the handful needed here are small enough to keep local).
// ---------------------------------------------------------------------

fn write_u8(w: &mut dyn Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

fn write_u16(w: &mut dyn Write, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u32(w: &mut dyn Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut dyn Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut dyn Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

fn read_u8(r: &mut dyn Read) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

fn read_u16(r: &mut dyn Read) -> io::Result<u16> {
    let mut buf = [0u8; 2];
    r.read_exact(&mut buf)?;
    Ok(u16::from_le_bytes(buf))
}

fn read_u32(r: &mut dyn Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads the CRC32 trailer from the checksummed reader's *underlying*
/// stream and compares it against the digest of everything read so far.
fn check_trailer<R: Read>(cr: &mut Crc32Reader<R>, what: &str) -> io::Result<()> {
    let computed = cr.crc();
    let stored = read_u32(cr.inner_mut())?;
    if stored != computed {
        return Err(bad(format!(
            "{what} checksum mismatch (stored {stored:#010x}, computed {computed:#010x}): the \
             file is corrupt"
        )));
    }
    Ok(())
}

fn read_u64(r: &mut dyn Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_f64(r: &mut dyn Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

fn read_len(r: &mut dyn Read) -> io::Result<usize> {
    usize::try_from(read_u64(r)?).map_err(|_| bad("length prefix exceeds the address space"))
}

/// Writes a float slice in bounded chunks (large `write_all`s, no
/// syscall-per-element on unbuffered writers).
fn write_f64_slice(w: &mut dyn Write, values: &[f64]) -> io::Result<()> {
    const CHUNK: usize = 8192;
    let mut buf = Vec::with_capacity(CHUNK.min(values.len()) * 8);
    for chunk in values.chunks(CHUNK) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads `count` floats in bounded chunks, so a corrupted count fails with
/// EOF instead of one absurd up-front allocation.
fn read_f64_vec(r: &mut dyn Read, count: usize) -> io::Result<Vec<f64>> {
    let mut out = Vec::new();
    let mut buf = [0u8; 8192];
    let mut remaining = count
        .checked_mul(8)
        .ok_or_else(|| bad("f64 vector overflow"))?;
    while remaining > 0 {
        let take = remaining.min(buf.len());
        r.read_exact(&mut buf[..take])?;
        out.extend(
            buf[..take]
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))),
        );
        remaining -= take;
    }
    out.shrink_to_fit();
    Ok(out)
}

// ---------------------------------------------------------------------
// Spec encoding (the manifest's own family numbering: one tag per
// family/variant pair, distinct from the IUSX envelope's payload tags)
// ---------------------------------------------------------------------

fn family_tag(family: IndexFamily) -> u8 {
    match family {
        IndexFamily::Naive => 0,
        IndexFamily::Wst => 1,
        IndexFamily::Wsa => 2,
        IndexFamily::Minimizer(IndexVariant::Tree) => 3,
        IndexFamily::Minimizer(IndexVariant::Array) => 4,
        IndexFamily::Minimizer(IndexVariant::TreeGrid) => 5,
        IndexFamily::Minimizer(IndexVariant::ArrayGrid) => 6,
        IndexFamily::SpaceEfficient(IndexVariant::Tree) => 7,
        IndexFamily::SpaceEfficient(IndexVariant::Array) => 8,
        IndexFamily::SpaceEfficient(IndexVariant::TreeGrid) => 9,
        IndexFamily::SpaceEfficient(IndexVariant::ArrayGrid) => 10,
    }
}

fn family_from_tag(tag: u8) -> io::Result<IndexFamily> {
    Ok(match tag {
        0 => IndexFamily::Naive,
        1 => IndexFamily::Wst,
        2 => IndexFamily::Wsa,
        3 => IndexFamily::Minimizer(IndexVariant::Tree),
        4 => IndexFamily::Minimizer(IndexVariant::Array),
        5 => IndexFamily::Minimizer(IndexVariant::TreeGrid),
        6 => IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        7 => IndexFamily::SpaceEfficient(IndexVariant::Tree),
        8 => IndexFamily::SpaceEfficient(IndexVariant::Array),
        9 => IndexFamily::SpaceEfficient(IndexVariant::TreeGrid),
        10 => IndexFamily::SpaceEfficient(IndexVariant::ArrayGrid),
        other => return Err(bad(format!("unknown index-family tag {other}"))),
    })
}

fn write_spec(w: &mut dyn Write, spec: &IndexSpec) -> io::Result<()> {
    write_u8(w, family_tag(spec.family))?;
    write_f64(w, spec.params.z)?;
    write_u64(w, spec.params.ell as u64)?;
    write_u64(w, spec.params.k as u64)?;
    match spec.params.order {
        KmerOrder::Lexicographic => {
            write_u8(w, 0)?;
            write_u64(w, 0)
        }
        KmerOrder::KarpRabin { seed } => {
            write_u8(w, 1)?;
            write_u64(w, seed)
        }
    }
}

fn read_spec(r: &mut dyn Read) -> io::Result<IndexSpec> {
    let family = family_from_tag(read_u8(r)?)?;
    let z = read_f64(r)?;
    let ell = read_len(r)?;
    let k = read_len(r)?;
    let order = match read_u8(r)? {
        0 => {
            read_u64(r)?;
            KmerOrder::Lexicographic
        }
        1 => KmerOrder::KarpRabin { seed: read_u64(r)? },
        other => return Err(bad(format!("unknown k-mer order tag {other}"))),
    };
    if !(z.is_finite() && z >= 1.0) {
        return Err(bad(format!("invalid stored threshold z = {z}")));
    }
    if ell == 0 || k == 0 || k > ell {
        return Err(bad(format!("invalid stored parameters ℓ = {ell}, k = {k}")));
    }
    Ok(IndexSpec::new(family, IndexParams { z, ell, k, order }))
}

fn read_magic_version(r: &mut dyn Read, magic: [u8; 4], what: &str) -> io::Result<()> {
    let mut got = [0u8; 4];
    r.read_exact(&mut got)?;
    if got != magic {
        return Err(bad(format!("not a {what} file (bad magic {got:02x?})")));
    }
    let version = read_u16(r)?;
    if version != LIVE_FORMAT_VERSION {
        return Err(bad(format!(
            "unsupported {what} version {version} (this build reads only version \
             {LIVE_FORMAT_VERSION}; load and re-save the directory with an older build to \
             convert it)"
        )));
    }
    Ok(())
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
            let path = dir.join(segment_file_name(segment.id));
            // Segments are immutable and ids are never reused (the next
            // id persists in the manifest), so a segment file that exists
            // under its final name was completed by an earlier save's
            // rename and is byte-identical to what would be rewritten —
            // skip it. New segments go through a temp name + atomic
            // rename, so a crash mid-save can only leave unreferenced
            // `.tmp` debris, never a truncated file the *previous*
            // manifest references: a torn save always leaves the prior
            // state loadable.
            if path.exists() {
                continue;
            }
            let tmp = dir.join(format!("{}.tmp", segment_file_name(segment.id)));
            {
                let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
                let mut cw = Crc32Writer::new(&mut w);
                cw.write_all(&SEGMENT_MAGIC)?;
                write_u16(&mut cw, LIVE_FORMAT_VERSION)?;
                write_u64(&mut cw, segment.id)?;
                write_u64(&mut cw, segment.offset as u64)?;
                write_u64(&mut cw, segment.home_len as u64)?;
                write_u64(&mut cw, segment.x.len() as u64)?;
                write_u64(&mut cw, sigma as u64)?;
                write_f64_slice(&mut cw, segment.x.flat_probs())?;
                // Zero-pad so the nested envelope starts 8-aligned: reopen
                // then maps the file once and borrows the arrays in place.
                let prefix = SEGMENT_MAGIC.len() + 2 + 5 * 8 + segment.x.len() * sigma * 8;
                cw.write_all(&[0u8; 8][..prefix.next_multiple_of(8) - prefix])?;
                segment.index.save_to(&mut cw)?;
                let crc = cw.crc();
                write_u32(cw.into_inner(), crc)?;
                w.flush()?;
            }
            std::fs::rename(&tmp, &path)?;
        }
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        {
            let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
            let mut cw = Crc32Writer::new(&mut w);
            cw.write_all(&MANIFEST_MAGIC)?;
            write_u16(&mut cw, LIVE_FORMAT_VERSION)?;
            let symbols = self.inner.alphabet.symbols();
            write_u64(&mut cw, symbols.len() as u64)?;
            cw.write_all(symbols)?;
            write_spec(&mut cw, &self.inner.spec)?;
            write_u64(&mut cw, self.inner.max_pattern_len as u64)?;
            write_u64(&mut cw, state.n as u64)?;
            write_u64(&mut cw, state.memtable.start as u64)?;
            write_u64(&mut cw, state.memtable.rows as u64)?;
            write_f64_slice(
                &mut cw,
                &state.memtable.flat_rows(0, state.memtable.rows, sigma),
            )?;
            write_u64(&mut cw, state.tombstones.len() as u64)?;
            for &(start, end) in &state.tombstones {
                write_u64(&mut cw, start as u64)?;
                write_u64(&mut cw, end as u64)?;
            }
            write_u64(&mut cw, state.segments.len() as u64)?;
            for segment in &state.segments {
                write_u64(&mut cw, segment.id)?;
                write_u64(&mut cw, segment.offset as u64)?;
                write_u64(&mut cw, segment.home_len as u64)?;
            }
            write_u64(
                &mut cw,
                self.inner
                    .next_segment_id
                    .load(std::sync::atomic::Ordering::SeqCst),
            )?;
            let crc = cw.crc();
            write_u32(cw.into_inner(), crc)?;
            w.flush()?;
        }
        std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
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
        let file = std::fs::File::open(&manifest_path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot open manifest {}: {e}", manifest_path.display()),
            )
        })?;
        let mut r = Crc32Reader::new(BufReader::new(file));
        read_magic_version(&mut r, MANIFEST_MAGIC, "live-index manifest")?;
        let symbols_len = read_len(&mut r)?;
        if symbols_len == 0 || symbols_len > 256 {
            return Err(bad(format!("invalid stored alphabet size {symbols_len}")));
        }
        let mut symbols = vec![0u8; symbols_len];
        r.read_exact(&mut symbols)?;
        let alphabet = Alphabet::new(&symbols).map_err(|e| bad(e.to_string()))?;
        let sigma = alphabet.size();
        let spec = read_spec(&mut r)?;
        let max_pattern_len = read_len(&mut r)?;
        if max_pattern_len == 0 || max_pattern_len < spec.lower_bound() {
            return Err(bad(format!(
                "stored max_pattern_len {max_pattern_len} is below the family's lower bound"
            )));
        }
        let overlap = overlap_len(max_pattern_len);
        let n = read_len(&mut r)?;
        let mem_start = read_len(&mut r)?;
        let mem_rows = read_len(&mut r)?;
        if mem_start.checked_add(mem_rows) != Some(n) {
            return Err(bad(format!(
                "memtable [{mem_start}, {mem_start}+{mem_rows}) does not end at n = {n}"
            )));
        }
        let mem_probs = read_f64_vec(
            &mut r,
            mem_rows
                .checked_mul(sigma)
                .ok_or_else(|| bad("memtable size overflow"))?,
        )?;
        if mem_rows > 0 {
            // Row validation (sums to 1, entries in [0, 1]) via the
            // WeightedString constructor; the flat copy is then discarded.
            WeightedString::from_flat(alphabet.clone(), mem_probs.clone())
                .map_err(|e| bad(format!("memtable rows: {e}")))?;
        }
        let tombstone_count = read_len(&mut r)?;
        let mut tombstones = Vec::with_capacity(tombstone_count.min(1 << 20));
        let mut prev_end = 0usize;
        for i in 0..tombstone_count {
            let start = read_len(&mut r)?;
            let end = read_len(&mut r)?;
            if start >= end || end > n || (i > 0 && start <= prev_end) {
                return Err(bad(format!(
                    "tombstone {i} [{start}, {end}) is not sorted/disjoint within [0, {n})"
                )));
            }
            prev_end = end;
            tombstones.push((start, end));
        }
        let segment_count = read_len(&mut r)?;
        let mut table = Vec::with_capacity(segment_count.min(1 << 20));
        for _ in 0..segment_count {
            let id = read_u64(&mut r)?;
            let offset = read_len(&mut r)?;
            let home_len = read_len(&mut r)?;
            table.push((id, offset, home_len));
        }
        let next_segment_id = read_u64(&mut r)?;
        check_trailer(&mut r, "manifest")?;
        {
            // Nothing may trail the manifest trailer.
            let mut probe = [0u8; 1];
            if r.inner_mut().read(&mut probe)? != 0 {
                return Err(bad("trailing bytes after the manifest checksum"));
            }
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
            expected_offset += home_len;
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
            let segment = read_segment_file(arena, &alphabet, id, offset, home_len, overlap)
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
            if rows == 0 || flat.len() != rows * sigma {
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

/// Reads and fully validates one segment file against its manifest entry.
///
/// The nested `IUSX` envelope sits at an 8-aligned offset, so the index
/// reopens through the zero-copy arena path
/// (`ius_index::persist::open_index_at`): open cost is header parsing
/// plus checksum validation, not element-by-element decoding.
fn read_segment_file(
    arena: Arena,
    alphabet: &Alphabet,
    id: u64,
    offset: usize,
    home_len: usize,
    overlap: usize,
) -> io::Result<Segment> {
    let bytes = arena.as_bytes();
    if bytes.len() < SEGMENT_MAGIC.len() + 2 + 4 {
        return Err(bad("segment file is too short"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let mut r: &[u8] = body;
    // Magic and version first (the most informative failures), then the
    // file-wide checksum, then the payload fields.
    read_magic_version(&mut r, SEGMENT_MAGIC, "live-index segment")?;
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = crc32(body);
    if stored != computed {
        return Err(bad(format!(
            "segment checksum mismatch (stored {stored:#010x}, computed {computed:#010x}): the \
             file is corrupt"
        )));
    }
    let stored_id = read_u64(&mut r)?;
    let stored_offset = read_len(&mut r)?;
    let stored_home = read_len(&mut r)?;
    if stored_id != id || stored_offset != offset || stored_home != home_len {
        return Err(bad(format!(
            "segment header (id {stored_id}, offset {stored_offset}, home {stored_home}) does \
             not match the manifest entry (id {id}, offset {offset}, home {home_len})"
        )));
    }
    let chunk_rows = read_len(&mut r)?;
    if chunk_rows != home_len + overlap {
        return Err(bad(format!(
            "segment chunk has {chunk_rows} rows, expected home {home_len} + overlap {overlap}"
        )));
    }
    let stored_sigma = read_len(&mut r)?;
    if stored_sigma != alphabet.size() {
        return Err(bad(format!(
            "segment σ = {stored_sigma} does not match the manifest alphabet (σ = {})",
            alphabet.size()
        )));
    }
    let probs = read_f64_vec(
        &mut r,
        chunk_rows
            .checked_mul(stored_sigma)
            .ok_or_else(|| bad("segment size overflow"))?,
    )?;
    let x = WeightedString::from_flat(alphabet.clone(), probs)
        .map_err(|e| bad(format!("segment rows: {e}")))?;
    let pos = body.len() - r.len();
    let aligned = pos.next_multiple_of(8);
    match body.get(pos..aligned) {
        Some(pad) if pad.iter().all(|&b| b == 0) => {}
        _ => return Err(bad("segment alignment padding is missing or not zeroed")),
    }
    let (index, consumed) = ius_index::persist::open_index_at(&arena, aligned)?;
    if aligned + consumed != body.len() {
        return Err(bad("trailing bytes after the segment's index envelope"));
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
