//! Versioned binary persistence for every index family.
//!
//! The build environment has no crates.io access, so the format is
//! hand-rolled rather than serde-derived: a little-endian binary layout
//! behind a fixed envelope. Format **version 9**, the only version:
//!
//! ```text
//! magic "IUSX" (4) · version (u16) · family tag (u8) · envelope length (u64)
//! · payload (sections at 8-byte-aligned offsets) · CRC32 trailer (u32)
//! ```
//!
//! The envelope length counts everything from the magic through the trailer
//! inclusive, which lets a reader locate the trailer without streaming the
//! payload. Every large flat array is a **section**:
//!
//! ```text
//! element count (u64) · encoding (u8) · zero pad to an 8-byte-aligned
//! offset relative to the envelope start · data
//! ```
//!
//! The encoding byte is always `0`, raw little-endian values: because the
//! offset is 8-byte aligned, an in-memory copy of the file hands out
//! **zero-copy borrowed views** of the data (see [`ius_arena`]). Any other
//! encoding byte is refused typed, naming the value. That includes `1`,
//! the bit-packed `u32` sections an earlier build of version 5 could write
//! on request: such a file no longer opens — rebuild the index from its
//! corpus and save it again.
//!
//! A **narrow table** is a width byte — `1`, `2` or `4` — followed by one
//! section of that many bytes per element (`u8`, `u16` or `u32`). It is
//! still raw and 8-byte aligned, so it opens as a zero-copy view at the
//! width it was written at; any other width byte is refused typed, naming
//! the table and the width.
//!
//! There is **one read path**: the whole file sits in one 8-byte-aligned
//! [`Arena`] allocation, the CRC32 trailer is verified over the raw bytes
//! (PCLMUL-folded, so this is bandwidth-bound), and every section becomes
//! a borrowed view. Open cost is O(header + validation), not O(elements) —
//! no per-element decode, no per-table allocation. [`open_index`] takes an
//! arena the caller filled (e.g. [`Arena::from_file`]); the `Read` entry
//! point [`load_index`] reads the stream to its end into an arena and
//! opens that. A file must end at its trailer: trailing bytes are refused.
//! [`open_index_at`] opens an envelope embedded inside a larger arena (the
//! live index's segment files).
//!
//! **Version policy:** this build reads and writes version 9 only. Any
//! layout change bumps [`FORMAT_VERSION`]; every other version — the
//! earlier versions 2 to 8 included — is refused with a typed
//! `InvalidData` error naming the version, and there is no migration:
//! rebuild the index from its corpus. Every envelope carries its own CRC32
//! (IEEE, from [`ius_faultio`]) trailer; silent bit-rot is detected at
//! open, not served, and a mismatch is a typed `InvalidData` error, never a
//! panic.
//!
//! The **family tag** is the family's place in [`IndexFamily::all`]: `0` NAIVE, `1` WST, `2` WSA, `3` MWST, `4`
//! MWSA, `5` MWST-G, `6` MWSA-G, `7` SE-MWST, `8` SE-MWSA — the numbering
//! a live index's `IUSL` manifest uses too, through the same spec codec
//! ([`write_spec`], [`read_spec`]). Any other tag is refused typed. The tag
//! alone decides the payload, which holds only what the family's query
//! reads — no presence flag, no variant byte (untyped sections are `u32`,
//! `narrow` ones narrow tables):
//!
//! ```text
//! NAIVE      z (f64)
//! WST        z (f64) · property text · trie
//! WSA        z (f64) · property text
//! minimizer  params · n (u64) · σ (u64)
//!            · heavy letters (u8) · [log-prefix (f64)]                  grid only
//!            · forward set, then backward set: anchor_x · lens (narrow)
//!                · mism_start (narrow) · mism_depths (narrow)
//!                · mism_letters (u8) · [mism_log_ratios (f64)]         grid only
//!                · key directory (u64)                    empty for the trees
//!            · [forward trie · backward trie]                           tree only
//!            · [N (u64) · bits (u64) · ranks · ids_by_x · xs_by_id
//!                · x starts (u64) · x ranks · y starts (u64) · y ranks] grid only
//!
//! params         z (f64) · ℓ (u64) · k (u64) · k-mer order (u8: 0
//!                lexicographic, 1 Karp–Rabin) · seed (u64)
//! property text  n (u64) · strands (u64) · text (u8) · trunc · PSA
//! trie           depth · leaf_lo · leaf_hi · children_start (nodes + 1)
//!                · child_letters (u8) · child_nodes · leaves (u64)
//! ```
//!
//! The WST stores no LCPs: its trie build reads them and drops them. A
//! trie's child table is compressed-sparse-row, node `v`'s children being
//! entries `children_start[v]..children_start[v + 1]`; at open the offsets
//! must rise from 0 to the child count, every edge must lead deeper (or to
//! a childless duplicate) and to a non-empty leaf range inside its
//! parent's, so a forged trie can neither hang nor crash a descent.
//!
//! Both factor sets hold no prefix-dominated leaf (one that is a prefix of
//! another leaf of its anchor). Each set writes `lens` and `mism_depths` at
//! the narrowest width holding its longest factor, and `mism_start` at the
//! narrowest holding its mismatch total; at open the lengths and the depths
//! must share a width.
//!
//! The **key directory** of an array variant's set holds the packed
//! 8-letter key of every 16th leaf (leaves 0, 16, 32, …, so
//! `⌈leaves / 16⌉` keys; the stride is
//! [`KEY_STRIDE`](crate::encode::KEY_STRIDE)). At open it must hold exactly
//! that many keys and never decrease, and a tree variant's must be empty.
//! Version 8 stored one key per leaf instead.
//!
//! MWST and MWSA verify against `X`; MWST-G and MWSA-G verify from the
//! log-prefix and the log-ratios alone, and their grid holds the `N`
//! distinct (forward leaf, backward leaf) pairs of the occurrences in rank
//! space: `ids_by_x` pairs each point's x rank with its y rank (a
//! permutation; `xs_by_id` is its inverse, the wavelet matrix is over
//! `ids_by_x`), and per axis a bitvector over the `N` ranks marks each
//! leaf's first point, with its per-word rank counts. At open each
//! bitvector's rank counts must be its prefix popcounts, no bit may be set
//! past `N`, rank 0 must be marked when `N > 0` and the marks must number
//! that side's leaves. Nothing is derived per element at open: view anchors
//! cost `O(1)` on use, log-ratios are stored as the `ln` that verification
//! sums, and construction (z-estimation, suffix sorting, trie assembly,
//! wavelet matrix) is **never** re-run.
//!
//! Every multi-byte integer and float is little-endian (`f64` as the LE
//! bytes of its IEEE-754 bits, so round trips are bit-exact), written and
//! read through the workspace's one codec, [`ius_arena::le`]: the writer
//! appends to one `Vec<u8>` per envelope and the reader is an
//! [`le::Reader`] over the checked envelope. The spec codec takes the same
//! writer and reader, so an `IUSL` manifest parses its spec from its own
//! checked slice.
//!
//! Entry points, all over [`AnyIndex`]: [`AnyIndex::save_to`] writes (and
//! [`AnyIndex::save_into`] appends to a buffer), [`load_index`] reads a
//! stream, [`open_index`] opens an arena and [`open_index_at`] an envelope
//! embedded in one.

use crate::builder::{AnyIndex, IndexFamily, IndexSpec};
use crate::encode::{Direction, EncodedFactorSet};
use crate::minimizer_index::MinimizerIndex;
use crate::naive::NaiveIndex;
use crate::params::IndexParams;
use crate::property_text::PropertyText;
use crate::traits::UncertainIndex;
use crate::wsa::Wsa;
use crate::wst::Wst;
use ius_arena::le::{self, Reader};
use ius_arena::narrow::NarrowTable;
use ius_arena::{Arena, ArenaVec, Pod};
use ius_faultio::crc32;
use ius_grid::{BitParts, RankSpaceGrid, RankSpaceParts, ReporterParts};
use ius_sampling::KmerOrder;
use ius_text::trie::{CompactedTrie, TrieParts};
use ius_weighted::HeavyString;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// The four magic bytes opening every saved index.
pub const MAGIC: [u8; 4] = *b"IUSX";

/// The on-disk format version, the only one this build reads or writes:
/// arena-openable 8-byte-aligned sections with an envelope length field,
/// narrow leaf tables, one family tag per family, compressed-sparse-row
/// trie child tables and a key directory of one key per 16 leaves. Files
/// of any other version are refused typed.
pub const FORMAT_VERSION: u16 = 9;

/// The one section encoding (the `u8` after the element count).
const ENC_RAW: u8 = 0;

/// Bytes a save buffer holds beyond the index's `size_bytes()`: the
/// envelope header and trailer, the scalars and each section's count,
/// encoding byte and pad.
const SAVE_SLACK: usize = 4096;

/// Bytes of the envelope header: magic, version, tag, envelope length.
const HEADER_LEN: usize = 15;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// Writer: one in-memory buffer per envelope
// ---------------------------------------------------------------------------

/// Appends one complete checksummed envelope to `out`: the header, the
/// payload `payload` writes, the length patched into the header and the
/// CRC32 trailer. The envelope starts at `out.len()`, which must be a
/// multiple of 8 so that 8-byte alignment relative to the envelope start
/// is alignment in `out`.
fn write_envelope(out: &mut Vec<u8>, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let base = out.len();
    assert!(
        base.is_multiple_of(8),
        "an envelope starts at an 8-aligned offset"
    );
    out.extend_from_slice(&MAGIC);
    le::put(out, FORMAT_VERSION);
    le::put(out, tag);
    le::put(out, 0u64); // length, patched below
    payload(out);
    let total = (out.len() - base + 4) as u64;
    out[base + 7..base + HEADER_LEN].copy_from_slice(&total.to_le_bytes());
    let crc = crc32(&out[base..]);
    le::put(out, crc);
}

/// Appends one raw-encoded section of any [`Pod`] type: element count,
/// encoding byte, zero pad to an 8-aligned offset, data.
fn write_section<T: Pod>(out: &mut Vec<u8>, data: &[T]) {
    le::put(out, data.len() as u64);
    le::put(out, ENC_RAW);
    out.resize(out.len().next_multiple_of(8), 0);
    le::put_slice(out, data);
}

// ---------------------------------------------------------------------------
// Reader: one validated cursor over an arena
// ---------------------------------------------------------------------------

/// The one decoder: a bounds-checked [`Reader`] over one envelope of an
/// [`Arena`] whose CRC was verified once, up front. Its positions count
/// from the envelope start; sections come back as zero-copy views.
struct ArenaSource<'a> {
    arena: &'a Arena,
    /// The envelope's offset in the arena (8-aligned).
    base: usize,
    /// The envelope up to its trailer, positioned past the header.
    r: Reader<'a>,
    /// Total envelope length including the trailer.
    envelope_len: usize,
}

impl<'a> ArenaSource<'a> {
    /// Validates the envelope at `base` (magic, version, family tag, length
    /// bounds, CRC32 over the raw bytes) and returns its family plus a
    /// cursor positioned at the first payload byte.
    fn open(arena: &'a Arena, base: usize) -> io::Result<(IndexFamily, Self)> {
        if !base.is_multiple_of(8) {
            return Err(bad("envelope does not start 8-byte aligned"));
        }
        let bytes = arena.as_bytes();
        let mut head = Reader::new(
            bytes
                .get(base..base + HEADER_LEN)
                .ok_or_else(|| bad("file too short for an IUSX envelope"))?,
        );
        if head.bytes(4, "magic")? != MAGIC {
            return Err(bad("not an IUSX index file (bad magic)"));
        }
        let version: u16 = head.get("format version")?;
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported IUSX format version {version} (this build reads only version \
                 {FORMAT_VERSION}; rebuild the index from its corpus and save it again)"
            )));
        }
        // The header fields are checked before the checksum: they give the
        // most informative failures.
        let family = family_from_tag(head.get("family tag")?)?;
        let envelope_len = head
            .usize("envelope length")
            .map_err(|_| bad("envelope length exceeds the address space"))?;
        let end_total = base
            .checked_add(envelope_len)
            .filter(|&e| e <= bytes.len() && envelope_len >= HEADER_LEN + 4)
            .ok_or_else(|| bad("envelope length field escapes the file"))?;
        let end = end_total - 4;
        let stored: u32 = Reader::new(&bytes[end..end_total]).get("checksum trailer")?;
        let computed = crc32(&bytes[base..end]);
        if stored != computed {
            return Err(bad(format!(
                "index checksum mismatch (stored {stored:#010x}, computed {computed:#010x}): \
                 the file is corrupt"
            )));
        }
        let mut r = Reader::new(&bytes[base..end]);
        r.bytes(HEADER_LEN, "envelope header")?;
        Ok((
            family,
            Self {
                arena,
                base,
                r,
                envelope_len,
            },
        ))
    }

    /// [`ArenaSource::open`] for a whole-file envelope: nothing may follow
    /// the trailer.
    fn open_file(arena: &'a Arena) -> io::Result<(IndexFamily, Self)> {
        let (family, src) = Self::open(arena, 0)?;
        if src.envelope_len != arena.len() {
            return Err(bad(format!(
                "{} trailing bytes after the index checksum trailer",
                arena.len() - src.envelope_len
            )));
        }
        Ok((family, src))
    }

    /// Rejects trailing payload bytes the decoder did not consume.
    fn expect_consumed(&self) -> io::Result<()> {
        if self.r.remaining() != 0 {
            return Err(bad(format!(
                "envelope payload has {} undecoded trailing bytes",
                self.r.remaining()
            )));
        }
        Ok(())
    }

    /// Skips to the next 8-byte-aligned offset relative to the envelope
    /// start, rejecting nonzero padding.
    fn align8(&mut self) -> io::Result<()> {
        let pad = self.r.pos().next_multiple_of(8) - self.r.pos();
        let pad = self
            .r
            .bytes(pad, "section padding")
            .map_err(|_| bad("payload field escapes the envelope"))?;
        if pad.iter().any(|&b| b != 0) {
            return Err(bad("nonzero section padding"));
        }
        Ok(())
    }

    /// Borrows `elems` raw little-endian elements at the current (8-aligned)
    /// position as a zero-copy view.
    fn take<T: Pod>(&mut self, elems: usize) -> io::Result<ArenaVec<T>> {
        let bytes = elems
            .checked_mul(T::SIZE)
            .ok_or_else(|| bad("section length overflows"))?;
        let offset = self.base + self.r.pos();
        self.r
            .bytes(bytes, "section")
            .map_err(|_| bad("section escapes the envelope"))?;
        self.arena
            .view::<T>(offset, elems)
            .ok_or_else(|| bad("section is not aligned for its element type"))
    }

    /// The arena handle the loaded index retains for size accounting.
    fn retained_arena(&self) -> Option<Arena> {
        Some(self.arena.clone())
    }
}

/// Reads one section of any [`Pod`] type; an encoding other than raw is
/// refused.
fn read_section<T: Pod>(s: &mut ArenaSource) -> io::Result<ArenaVec<T>> {
    let elems = s.r.usize("section length")?;
    match s.r.get::<u8>("section encoding")? {
        ENC_RAW => {
            s.align8()?;
            s.take::<T>(elems)
        }
        other => Err(bad(format!(
            "unsupported section encoding {other} (this build reads only raw sections; \
             rebuild the index from its corpus and save it again)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// The spec codec, shared with the IUSL manifest
// ---------------------------------------------------------------------------

/// The family a stored tag names: the one at its place in
/// [`IndexFamily::all`].
fn family_from_tag(tag: u8) -> io::Result<IndexFamily> {
    IndexFamily::from_tag(tag).ok_or_else(|| bad(format!("unknown index-family tag {tag}")))
}

/// Writes index parameters as IUSX and IUSL store them: `z` (f64) · ℓ
/// (u64) · k (u64) · k-mer order (u8: `0` lexicographic, `1` Karp–Rabin)
/// · seed (u64, `0` for the lexicographic order).
fn write_params(out: &mut Vec<u8>, params: &IndexParams) {
    let (order, seed) = match params.order {
        KmerOrder::Lexicographic => (0u8, 0),
        KmerOrder::KarpRabin { seed } => (1, seed),
    };
    le::put(out, params.z);
    le::put(out, params.ell as u64);
    le::put(out, params.k as u64);
    le::put(out, order);
    le::put(out, seed);
}

/// Reads parameters written by [`write_params`]: `InvalidData` on an
/// unknown order tag, a `z` that is not finite and at least 1, or ℓ and k
/// outside `1 ≤ k ≤ ℓ`.
fn read_params(r: &mut Reader) -> io::Result<IndexParams> {
    let z = read_z(r)?;
    let ell = r.usize("ℓ")?;
    let k = r.usize("k")?;
    let order = match (r.get::<u8>("k-mer order")?, r.get::<u64>("k-mer seed")?) {
        (0, _) => KmerOrder::Lexicographic,
        (1, seed) => KmerOrder::KarpRabin { seed },
        (other, _) => return Err(bad(format!("unknown k-mer order tag {other}"))),
    };
    if ell == 0 || k == 0 || k > ell {
        return Err(bad(format!("invalid stored parameters ℓ = {ell}, k = {k}")));
    }
    Ok(IndexParams { z, ell, k, order })
}

/// Appends a spec as an `IUSL` manifest stores it: the family's tag (its
/// place in [`IndexFamily::all`], the IUSX envelope's family byte), then
/// the parameters as a minimizer payload opens with them (see the module
/// doc).
pub fn write_spec(out: &mut Vec<u8>, spec: &IndexSpec) {
    le::put(out, spec.family.tag());
    write_params(out, &spec.params);
}

/// Reads a spec written by [`write_spec`].
///
/// # Errors
///
/// `UnexpectedEof` when the input ends first; `InvalidData` on an unknown
/// family tag, an unknown order tag, a `z` that is not finite and at least
/// 1, or ℓ and k outside `1 ≤ k ≤ ℓ`.
pub fn read_spec(r: &mut Reader) -> io::Result<IndexSpec> {
    let family = family_from_tag(r.get("family tag")?)?;
    Ok(IndexSpec::new(family, read_params(r)?))
}

/// Reads a stored threshold, refused unless finite and at least 1.
fn read_z(r: &mut Reader) -> io::Result<f64> {
    let z: f64 = r.get("threshold z")?;
    if !(z.is_finite() && z >= 1.0) {
        return Err(bad(format!("invalid stored threshold z = {z}")));
    }
    Ok(z)
}

// ---------------------------------------------------------------------------
// Component writers/readers (aligned sections)
// ---------------------------------------------------------------------------

fn write_property_text(out: &mut Vec<u8>, pt: &PropertyText) {
    le::put(out, pt.n() as u64);
    le::put(out, pt.num_strands() as u64);
    write_section::<u8>(out, pt.text());
    write_section::<u32>(out, pt.trunc_raw());
    write_section::<u32>(out, pt.psa());
}

fn read_property_text(s: &mut ArenaSource) -> io::Result<PropertyText> {
    let n = s.r.usize("n")?;
    let num_strands = s.r.usize("strand count")?;
    let text = read_section::<u8>(s)?;
    let trunc = read_section::<u32>(s)?;
    let psa = read_section::<u32>(s)?;
    PropertyText::from_parts(n, num_strands, text, trunc, psa).map_err(bad)
}

fn write_trie(out: &mut Vec<u8>, trie: &CompactedTrie) {
    let parts = trie.parts();
    write_section::<u32>(out, parts.depth);
    write_section::<u32>(out, parts.leaf_lo);
    write_section::<u32>(out, parts.leaf_hi);
    write_section::<u32>(out, parts.children_start);
    write_section::<u8>(out, parts.child_letters);
    write_section::<u32>(out, parts.child_nodes);
    le::put(out, parts.num_leaves);
}

fn read_trie(s: &mut ArenaSource) -> io::Result<CompactedTrie> {
    let parts = TrieParts {
        depth: read_section::<u32>(s)?,
        leaf_lo: read_section::<u32>(s)?,
        leaf_hi: read_section::<u32>(s)?,
        children_start: read_section::<u32>(s)?,
        child_letters: read_section::<u8>(s)?,
        child_nodes: read_section::<u32>(s)?,
        num_leaves: s.r.get("trie leaf count")?,
    };
    CompactedTrie::from_parts(parts).map_err(bad)
}

fn write_grid(out: &mut Vec<u8>, grid: &RankSpaceGrid) {
    let RankSpaceParts {
        points,
        x_starts,
        y_starts,
    } = grid.parts();
    le::put(out, points.len);
    write_section::<u64>(out, points.bits);
    write_section::<u32>(out, points.ranks);
    write_section::<u32>(out, points.ids_by_x);
    write_section::<u32>(out, points.xs_by_id);
    for starts in [x_starts, y_starts] {
        write_section::<u64>(out, starts.bits);
        write_section::<u32>(out, starts.ranks);
    }
}

fn read_grid(s: &mut ArenaSource) -> io::Result<RankSpaceGrid> {
    let points = ReporterParts {
        len: s.r.get("grid point count")?,
        bits: read_section::<u64>(s)?,
        ranks: read_section::<u32>(s)?,
        ids_by_x: read_section::<u32>(s)?,
        xs_by_id: read_section::<u32>(s)?,
    };
    let mut starts = || -> io::Result<BitParts> {
        Ok(BitParts {
            bits: read_section::<u64>(s)?,
            ranks: read_section::<u32>(s)?,
        })
    };
    let parts = RankSpaceParts {
        points,
        x_starts: starts()?,
        y_starts: starts()?,
    };
    RankSpaceGrid::from_parts(parts).map_err(bad)
}

/// Writes the heavy letters, plus the log-prefix table for grid variants
/// (`log_prefix` is empty for the others).
fn write_heavy(out: &mut Vec<u8>, letters: &[u8], log_prefix: &[f64], grid: bool) {
    write_section::<u8>(out, letters);
    if grid {
        write_section::<f64>(out, log_prefix);
    }
}

/// Reads the heavy letters, plus the log-prefix table for grid variants
/// (empty for the others).
fn read_heavy(s: &mut ArenaSource, grid: bool) -> io::Result<(Arc<Vec<u8>>, ArenaVec<f64>)> {
    // The heavy letters live behind an `Arc<Vec<u8>>` shared with the
    // factor sets, so they are copied out of the arena (n bytes — tiny
    // next to the O(n·z) tables that stay zero-copy).
    let letters = read_section::<u8>(s)?.to_vec();
    if !grid {
        return Ok((Arc::new(letters), ArenaVec::new()));
    }
    let log_prefix = read_section::<f64>(s)?;
    let heavy = HeavyString::from_parts(letters, log_prefix).map_err(|e| bad(e.to_string()))?;
    Ok(heavy.into_parts())
}

/// Writes a narrow table: its width byte (1, 2 or 4), then a section of
/// that width.
fn write_narrow(out: &mut Vec<u8>, table: &NarrowTable) {
    le::put(out, table.width() as u8);
    match table {
        NarrowTable::U8(v) => write_section::<u8>(out, v),
        NarrowTable::U16(v) => write_section::<u16>(out, v),
        NarrowTable::U32(v) => write_section::<u32>(out, v),
    }
}

/// Reads a narrow table; a width byte other than 1, 2 or 4 is refused.
fn read_narrow(s: &mut ArenaSource, table: &str) -> io::Result<NarrowTable> {
    Ok(match s.r.get::<u8>("table width")? {
        1 => NarrowTable::U8(read_section::<u8>(s)?),
        2 => NarrowTable::U16(read_section::<u16>(s)?),
        4 => NarrowTable::U32(read_section::<u32>(s)?),
        other => {
            return Err(bad(format!(
                "unsupported {table} table width {other} (a table is 1, 2 or 4 bytes wide)"
            )))
        }
    })
}

/// Writes a factor set; grid variants also write its log-ratio pool.
fn write_factor_set(out: &mut Vec<u8>, set: &EncodedFactorSet, grid: bool) {
    write_section::<u32>(out, set.anchor_x_raw());
    write_narrow(out, set.lens_raw());
    write_narrow(out, set.mism_start_raw());
    write_narrow(out, set.mism_depths_raw());
    write_section::<u8>(out, set.mism_letters_raw());
    if grid {
        write_section::<f64>(out, set.mism_log_ratios_raw());
    }
    write_section::<u64>(out, set.key_dir_raw());
}

/// Reads the factor set that reads `heavy_view` in `direction`; `keyed`
/// sets (the array variants') hold a key directory.
fn read_factor_set(
    s: &mut ArenaSource,
    direction: Direction,
    heavy_view: Arc<Vec<u8>>,
    grid: bool,
    keyed: bool,
) -> io::Result<EncodedFactorSet> {
    let anchor_x = read_section::<u32>(s)?;
    let lens = read_narrow(s, "factor-length")?;
    let mism_start = read_narrow(s, "mismatch-offset")?;
    let mism_depths = read_narrow(s, "mismatch-depth")?;
    let mism_letters = read_section::<u8>(s)?;
    let mism_log_ratios = grid.then(|| read_section::<f64>(s)).transpose()?;
    let key_dir = read_section::<u64>(s)?;
    EncodedFactorSet::from_loaded_parts(
        direction,
        heavy_view,
        anchor_x,
        lens,
        mism_start,
        mism_depths,
        mism_letters,
        mism_log_ratios,
        key_dir,
        keyed,
    )
    .map_err(bad)
}

// ---------------------------------------------------------------------------
// Family payloads
// ---------------------------------------------------------------------------

fn write_minimizer_payload(out: &mut Vec<u8>, index: &MinimizerIndex) {
    write_params(out, index.params());
    let parts = index.persist_parts();
    let grid = index.variant().has_grid();
    le::put(out, parts.n as u64);
    le::put(out, parts.sigma as u64);
    write_heavy(out, parts.heavy, parts.log_prefix, grid);
    write_factor_set(out, parts.fwd, grid);
    write_factor_set(out, parts.bwd, grid);
    for trie in [parts.fwd_trie, parts.bwd_trie].into_iter().flatten() {
        write_trie(out, trie);
    }
    if let Some(grid) = parts.grid {
        write_grid(out, grid);
    }
}

/// Reads the payload of a minimizer `family`: its variant alone decides
/// which sections follow.
fn read_minimizer_payload(
    family: IndexFamily,
    src: &mut ArenaSource,
) -> io::Result<MinimizerIndex> {
    let variant = family.minimizer_variant().expect("a minimizer family");
    let params = read_params(&mut src.r)?;
    let n = src.r.usize("n")?;
    let sigma = src.r.usize("σ")?;
    let has_grid = variant.has_grid();
    let (heavy, log_prefix) = read_heavy(src, has_grid)?;
    // The forward set reads the index-wide heavy string, the backward set
    // its reversal.
    let keyed = !variant.has_tree();
    let fwd = read_factor_set(src, Direction::Forward, Arc::clone(&heavy), has_grid, keyed)?;
    let reversed: Vec<u8> = heavy.iter().rev().copied().collect();
    let bwd = read_factor_set(
        src,
        Direction::Backward,
        Arc::new(reversed),
        has_grid,
        keyed,
    )?;
    let (fwd_trie, bwd_trie) = if variant.has_tree() {
        (Some(read_trie(src)?), Some(read_trie(src)?))
    } else {
        (None, None)
    };
    let grid = has_grid.then(|| read_grid(src)).transpose()?;
    // Cross-component invariants.
    if sigma == 0 || sigma > 256 {
        return Err(bad(format!("invalid stored alphabet size {sigma}")));
    }
    if heavy.len() != n {
        return Err(bad("heavy string length does not match the stored n"));
    }
    for (side, trie, set) in [("forward", &fwd_trie, &fwd), ("backward", &bwd_trie, &bwd)] {
        if trie
            .as_ref()
            .is_some_and(|trie| trie.num_leaves() != set.len())
        {
            return Err(bad(format!(
                "{side} trie does not match the {side} factor set"
            )));
        }
    }
    // Each grid axis marks the first point of every leaf of its set.
    if let Some(g) = &grid {
        for (side, keys, leaves) in [
            ("forward", g.x_keys(), fwd.len()),
            ("backward", g.y_keys(), bwd.len()),
        ] {
            if keys != leaves {
                return Err(bad(format!(
                    "grid marks {keys} {side} leaves, but the {side} set has {leaves}"
                )));
            }
        }
    }
    Ok(MinimizerIndex::from_loaded_parts(
        params,
        family,
        n,
        sigma,
        heavy,
        log_prefix,
        fwd,
        bwd,
        fwd_trie,
        bwd_trie,
        grid,
        src.retained_arena(),
    ))
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl AnyIndex {
    /// Serializes the index into `w`: one checksummed envelope, handed to
    /// the writer as a single `write_all`. Re-saving an opened index
    /// reproduces its file byte for byte.
    ///
    /// The envelope is built in one buffer allocated up front at the
    /// index's `size_bytes()` plus 4 KiB: a file holds the tables
    /// the index holds, plus a header and at most 16 bytes per section. A
    /// buffer grown by doubling instead ends up to twice the file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut out = Vec::with_capacity(self.save_bound());
        self.save_into(&mut out);
        w.write_all(&out)
    }

    /// An upper bound on the bytes [`AnyIndex::save_into`] appends: the
    /// index's `size_bytes()` plus 4 KiB for the header, the trailer and
    /// each section's count, encoding byte and pad. A save buffer reserved
    /// at this size never grows.
    pub fn save_bound(&self) -> usize {
        self.size_bytes() + SAVE_SLACK
    }

    /// Appends the envelope [`AnyIndex::save_to`] writes to `out` (a live
    /// index's segment file holds one behind its prefix).
    ///
    /// # Panics
    ///
    /// If `out.len()` is not a multiple of 8: an envelope starts 8-aligned.
    pub fn save_into(&self, out: &mut Vec<u8>) {
        write_envelope(out, self.family().tag(), |out| match self {
            AnyIndex::Naive(index) => le::put(out, index.z()),
            AnyIndex::Wst(index) => {
                le::put(out, index.z());
                write_property_text(out, index.property_text_ref());
                write_trie(out, index.trie_ref());
            }
            AnyIndex::Wsa(index) => {
                le::put(out, index.z());
                write_property_text(out, index.property_text());
            }
            AnyIndex::Minimizer(index) => write_minimizer_payload(out, index),
        });
    }
}

/// Deserializes an index saved by [`AnyIndex::save_to`]: reads the stream
/// to its end into an [`Arena`], then opens it with [`open_index`] — the
/// one validated decoder. Loading performs only linear-time reassembly —
/// the z-estimation, suffix sorts and grid construction are never re-run.
///
/// # Errors
///
/// I/O errors, or `InvalidData` on bad magic, an unknown version/tag, a
/// checksum mismatch, bytes after the trailer, or a structurally
/// inconsistent payload.
pub fn load_index(r: &mut dyn Read) -> io::Result<AnyIndex> {
    open_index(&Arena::from_reader(r)?)
}

/// Opens any single-machine family from an in-memory [`Arena`]: the CRC32
/// trailer is verified over the raw bytes, then every section becomes a
/// zero-copy borrowed view — open cost is O(header + validation), not
/// O(elements).
///
/// # Errors
///
/// `InvalidData` on bad magic, an unknown version/tag, a checksum
/// mismatch, bytes after the trailer, or a structurally inconsistent
/// payload.
pub fn open_index(arena: &Arena) -> io::Result<AnyIndex> {
    let (family, mut src) = ArenaSource::open_file(arena)?;
    let index = load_index_payload(family, &mut src)?;
    src.expect_consumed()?;
    Ok(index)
}

/// Opens an envelope embedded at `offset` inside an arena (the live
/// index stores its segment payloads behind a segment prefix). The offset
/// must be 8-byte aligned — writers pad the prefix so it is. Returns the
/// opened index and the envelope's total byte length.
///
/// # Errors
///
/// `InvalidData` on bad magic, an unsupported version, a checksum mismatch, or
/// a structurally inconsistent payload.
pub fn open_index_at(arena: &Arena, offset: usize) -> io::Result<(AnyIndex, usize)> {
    let (family, mut src) = ArenaSource::open(arena, offset)?;
    let index = load_index_payload(family, &mut src)?;
    src.expect_consumed()?;
    Ok((index, src.envelope_len))
}

fn load_index_payload(family: IndexFamily, src: &mut ArenaSource) -> io::Result<AnyIndex> {
    Ok(match family {
        IndexFamily::Naive => {
            AnyIndex::Naive(NaiveIndex::new(read_z(&mut src.r)?).map_err(|e| bad(e.to_string()))?)
        }
        IndexFamily::Wst => {
            let z = read_z(&mut src.r)?;
            let property_text = read_property_text(src)?;
            let trie = read_trie(src)?;
            if trie.num_leaves() != property_text.psa().len() {
                return Err(bad("trie does not match the property suffix array"));
            }
            AnyIndex::Wst(Wst::from_loaded_parts(
                z,
                property_text,
                trie,
                src.retained_arena(),
            ))
        }
        IndexFamily::Wsa => {
            let z = read_z(&mut src.r)?;
            let property_text = read_property_text(src)?;
            AnyIndex::Wsa(Wsa::from_loaded_parts(
                z,
                property_text,
                src.retained_arena(),
            ))
        }
        IndexFamily::Minimizer(_) | IndexFamily::SpaceEfficient(_) => {
            AnyIndex::Minimizer(Box::new(read_minimizer_payload(family, src)?))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer_index::IndexVariant;
    use crate::traits::UncertainIndex;
    use ius_datasets::uniform::UniformConfig;
    use ius_grid::GridPoint;

    fn sample_corpus() -> ius_weighted::WeightedString {
        UniformConfig {
            n: 160,
            sigma: 2,
            spread: 0.5,
            seed: 8,
        }
        .generate()
    }

    fn sample_index() -> AnyIndex {
        let x = sample_corpus();
        let params = IndexParams::new(4.0, 8, x.sigma()).unwrap();
        IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params)
            .build(&x)
            .unwrap()
    }

    fn sample_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        sample_index().save_to(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn envelope_is_validated() {
        let bytes = sample_bytes();
        // Truncation anywhere fails cleanly, never panics.
        for cut in [0usize, 3, 5, 7, 20, bytes.len() - 1] {
            assert!(load_index(&mut &bytes[..cut]).is_err(), "cut at {cut}");
            assert!(
                open_index(&Arena::from_bytes(&bytes[..cut])).is_err(),
                "arena cut at {cut}"
            );
        }
        // Bad magic.
        let mut corrupt = bytes.clone();
        corrupt[0] = b'X';
        assert!(load_index(&mut corrupt.as_slice()).is_err());
        assert!(open_index(&Arena::from_bytes(&corrupt)).is_err());
        // Unknown version, and versions 2, 4, 5, 6, 7 and 8: refused
        // naming the version.
        for version in [0x03FF, 2u16, 4, 5, 6, 7, 8] {
            let mut corrupt = bytes.clone();
            corrupt[4..6].copy_from_slice(&version.to_le_bytes());
            let err = load_index(&mut corrupt.as_slice()).unwrap_err();
            assert!(err.to_string().contains(&format!("version {version}")));
            assert!(open_index(&Arena::from_bytes(&corrupt)).is_err());
        }
        // Bytes after the trailer.
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0u8; 12]);
        let err = load_index(&mut longer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("12 trailing bytes"), "{err}");
        assert!(open_index(&Arena::from_bytes(&longer)).is_err());
        // Unknown family tag.
        let mut corrupt = bytes;
        corrupt[6] = 0xEE;
        assert!(load_index(&mut corrupt.as_slice()).is_err());
        assert!(open_index(&Arena::from_bytes(&corrupt)).is_err());
    }

    #[test]
    fn checksum_detects_silent_bit_rot() {
        let bytes = sample_bytes();
        // An untouched file opens through both entry points.
        assert!(load_index(&mut bytes.as_slice()).is_ok());
        assert!(open_index(&Arena::from_bytes(&bytes)).is_ok());
        // Flip one bit deep in the payload (past the envelope, before the
        // trailer): structurally the file may still parse, but the CRC32
        // trailer must catch it with a typed error, never a panic.
        for &at in &[16usize, bytes.len() / 2, bytes.len() - 8] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            let err = load_index(&mut corrupt.as_slice())
                .expect_err("bit flip must not load")
                .to_string();
            assert!(!err.is_empty());
            let err = open_index(&Arena::from_bytes(&corrupt))
                .expect_err("bit flip must not open")
                .to_string();
            assert!(!err.is_empty());
        }
        // Corrupting the trailer itself is also detected.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(load_index(&mut corrupt.as_slice()).is_err());
        assert!(open_index(&Arena::from_bytes(&corrupt)).is_err());
    }

    #[test]
    fn grid_of_the_wrong_size_is_refused_at_open() {
        let AnyIndex::Minimizer(built) = sample_index() else {
            panic!("sample is a minimizer index");
        };
        let parts = built.persist_parts();
        let (fwd_leaves, bwd_leaves) = (parts.fwd.len() as u32, parts.bwd.len() as u32);
        assert!(fwd_leaves > 1);
        // A valid grid that marks every backward leaf but one forward leaf
        // too few.
        let points = (0..fwd_leaves - 1)
            .map(|x| GridPoint::new(x, 0))
            .chain((0..bwd_leaves).map(|y| GridPoint::new(0, y)))
            .collect();
        let short = MinimizerIndex::from_loaded_parts(
            *built.params(),
            built.family(),
            parts.n,
            parts.sigma,
            Arc::new(parts.heavy.to_vec()),
            parts.log_prefix.to_vec().into(),
            parts.fwd.clone(),
            parts.bwd.clone(),
            None,
            None,
            Some(RankSpaceGrid::new(points)),
            None,
        );
        let mut bytes = Vec::new();
        AnyIndex::Minimizer(Box::new(short))
            .save_to(&mut bytes)
            .unwrap();
        for err in [
            load_index(&mut bytes.as_slice()).unwrap_err(),
            open_index(&Arena::from_bytes(&bytes)).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains(&format!(
                    "grid marks {} forward leaves, but the forward set has {fwd_leaves}",
                    fwd_leaves - 1
                )),
                "{err}"
            );
        }
    }

    #[test]
    fn naive_round_trip() {
        let naive = AnyIndex::Naive(NaiveIndex::new(7.5).unwrap());
        let mut bytes = Vec::new();
        naive.save_to(&mut bytes).unwrap();
        let AnyIndex::Naive(loaded) = load_index(&mut bytes.as_slice()).unwrap() else {
            panic!("a NAIVE file loads as NAIVE");
        };
        assert_eq!(loaded.z(), 7.5);
        assert_eq!(loaded.name(), "NAIVE");
    }

    #[test]
    fn load_and_open_answer_like_the_build() {
        let index = sample_index();
        let mut bytes = Vec::new();
        index.save_to(&mut bytes).unwrap();
        let loaded = load_index(&mut bytes.as_slice()).unwrap();
        let opened = open_index(&Arena::from_bytes(&bytes)).unwrap();
        let x = sample_corpus();
        let est = ius_weighted::ZEstimation::build(&x, 4.0).unwrap();
        let patterns = ius_datasets::patterns::PatternSampler::new(&est, 1).sample_many(8, 8);
        let mut reported = 0;
        for pattern in &patterns {
            let built = index.query(pattern, &x).unwrap();
            reported += built.len();
            assert_eq!(loaded.query(pattern, &x).unwrap(), built);
            assert_eq!(opened.query(pattern, &x).unwrap(), built);
        }
        assert!(reported > 0, "some pattern occurs");
        // Both retain the one backing arena and account it once.
        assert!(loaded.size_bytes() >= bytes.len());
        assert!(opened.size_bytes() >= bytes.len());
    }

    /// Letters of the heavy string the width cases are built over: long
    /// enough for a factor of 65,536 letters, a mismatch total of 65,536
    /// at 255 mismatches per factor, and either read backwards.
    const WIDTH_CASE_N: usize = 65_536 + 300;

    /// One factor as a width case pushes it into both sets: its view
    /// anchor, its length and its mismatch depths (each spelling the
    /// letter after the heavy one).
    type WidthFactor = (usize, u32, Vec<u32>);

    /// An MWSA index whose forward and backward sets both hold `factors`
    /// (at the same view anchors), over a deterministic corpus with a
    /// repeating heavy string, and that corpus.
    fn width_case(factors: &[WidthFactor]) -> (MinimizerIndex, ius_weighted::WeightedString) {
        use crate::encode::EncodedFactorSetBuilder;
        let heavy: Arc<Vec<u8>> = Arc::new((0..WIDTH_CASE_N).map(|i| (i % 7 % 4) as u8).collect());
        let n = heavy.len();
        let set = |direction: Direction| {
            let mut builder = EncodedFactorSetBuilder::new(direction, Arc::clone(&heavy));
            let mut anchors = Vec::new();
            for (view_anchor, len, depths) in factors {
                // The position of `X` at depth `d` of the factor.
                let at = |d: usize| match direction {
                    Direction::Forward => view_anchor + d,
                    Direction::Backward => n - 1 - view_anchor - d,
                };
                let mismatches = depths.iter().map(|&d| (d, (heavy[at(d as usize)] + 1) % 4));
                builder.push(*len, mismatches).unwrap();
                anchors.push(at(0) as u32);
            }
            let mut set = builder.finish(&anchors).0;
            set.derive_key_directory();
            set
        };
        let params = IndexParams::new(4.0, 8, 4).unwrap();
        let index = MinimizerIndex::from_loaded_parts(
            params,
            IndexFamily::Minimizer(IndexVariant::Array),
            n,
            4,
            Arc::clone(&heavy),
            ArenaVec::new(),
            set(Direction::Forward),
            set(Direction::Backward),
            None,
            None,
            None,
            None,
        );
        let alphabet = ius_weighted::Alphabet::integer(4).unwrap();
        let x = ius_weighted::WeightedString::deterministic(alphabet, &heavy).unwrap();
        (index, x)
    }

    /// Saves the width case, opens it, and checks that every set keeps its
    /// widths, leaves and answers and re-saves byte for byte; returns the
    /// widths `(length, offset)` of the forward and the backward set.
    fn width_round_trip(factors: &[WidthFactor]) -> [(usize, usize); 2] {
        let (built, x) = width_case(factors);
        let built = AnyIndex::Minimizer(Box::new(built));
        let mut bytes = Vec::new();
        built.save_to(&mut bytes).unwrap();
        let opened = open_index(&Arena::from_bytes(&bytes)).unwrap();
        let mut resaved = Vec::new();
        opened.save_to(&mut resaved).unwrap();
        assert!(bytes == resaved, "open → save must be byte identical");
        let (AnyIndex::Minimizer(a), AnyIndex::Minimizer(b)) = (&built, &opened) else {
            panic!("a minimizer file opens as a minimizer index");
        };
        let mut patterns = Vec::new();
        for (set, other) in a.factor_sets().into_iter().zip(b.factor_sets()) {
            assert_eq!(set.len(), other.len());
            assert_eq!(set.total_mismatches(), other.total_mismatches());
            assert_eq!(set.length_width(), other.length_width());
            assert_eq!(set.offset_width(), other.offset_width());
            for leaf in 0..set.len() {
                let letters = set.materialize(leaf);
                assert_eq!(letters, other.materialize(leaf), "leaf {leaf}");
                assert!(set.mismatch_depths(leaf).eq(other.mismatch_depths(leaf)));
                let prefix = &letters[..letters.len().min(16)];
                let (lo, hi) = set.equal_range(prefix);
                assert!(lo <= leaf && leaf < hi, "leaf {leaf} outside its own range");
                assert_eq!(other.equal_range(prefix), (lo, hi), "leaf {leaf}");
                patterns.push(prefix.to_vec());
            }
        }
        patterns.extend((0..50).map(|i| x_window(&x, 97 * i, 12)));
        for pattern in &patterns {
            assert_eq!(
                built.query(pattern, &x).unwrap(),
                opened.query(pattern, &x).unwrap()
            );
        }
        a.factor_sets()
            .map(|set| (set.length_width(), set.offset_width()))
    }

    /// The heavy letters of `x` at `[from, from + len)`.
    fn x_window(x: &ius_weighted::WeightedString, from: usize, len: usize) -> Vec<u8> {
        (from..from + len)
            .map(|p| (0..x.sigma() as u8).find(|&c| x.prob(p, c) == 1.0).unwrap())
            .collect()
    }

    /// Each set stores its lengths and depths at the narrowest width that
    /// holds its longest factor, across the 255/256 and 65,535/65,536
    /// boundaries, and keeps its leaves and answers through save and open.
    #[test]
    fn length_width_follows_the_longest_factor() {
        for (longest, width) in [(255, 1), (256, 2), (65_535, 2), (65_536, 4)] {
            let factors: Vec<WidthFactor> = vec![
                (0, longest, vec![0, longest - 1]),
                (40, 20, vec![3, 9]),
                (90, 17, vec![]),
            ];
            let widths = width_round_trip(&factors);
            assert_eq!(widths, [(width, 1); 2], "longest factor {longest}");
        }
    }

    /// Each set stores its mismatch offsets at the narrowest width that
    /// holds its mismatch total, across the 255/256 and 65,535/65,536
    /// boundaries, and keeps its leaves and answers through save and open.
    #[test]
    fn offset_width_follows_the_mismatch_total() {
        for (total, width) in [(255u32, 1), (256, 2), (65_535, 2), (65_536, 4)] {
            // Factors of 255 letters at distinct anchors, none dominating
            // another, with up to 255 mismatches each.
            let factors: Vec<WidthFactor> = (0..total.div_ceil(255))
                .map(|f| {
                    let count = (total - 255 * f).min(255);
                    (f as usize, 255, (0..count).collect())
                })
                .collect();
            let widths = width_round_trip(&factors);
            assert_eq!(widths, [(1, width); 2], "mismatch total {total}");
        }
    }

    #[test]
    fn resave_is_byte_identical() {
        let bytes = sample_bytes();
        let loaded = load_index(&mut bytes.as_slice()).unwrap();
        let mut resaved = Vec::new();
        loaded.save_to(&mut resaved).unwrap();
        assert_eq!(bytes, resaved, "load → save must be byte identical");
        let opened = open_index(&Arena::from_bytes(&bytes)).unwrap();
        let mut resaved = Vec::new();
        opened.save_to(&mut resaved).unwrap();
        assert_eq!(bytes, resaved, "arena open → save must be byte identical");
    }
}
