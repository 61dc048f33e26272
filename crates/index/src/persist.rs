//! Versioned binary persistence for every index family.
//!
//! The build environment has no crates.io access, so the format is
//! hand-rolled rather than serde-derived: a little-endian binary layout
//! behind a fixed envelope. Format **version 3**, the only version:
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
//! Encoding `0` stores the elements as raw little-endian values — because
//! the offset is 8-byte aligned, an in-memory copy of the file can hand out
//! **zero-copy borrowed views** of the data (see [`ius_arena`]). Encoding
//! `1` (opt-in via [`SaveOptions::pack_u32`], `u32` sections only)
//! bit-packs the values at the minimum fixed width
//! `⌈log₂(max+1)⌉`: `width (u8) · packed word count (u64) · pad ·
//! little-endian u64 words`, LSB-first; packed sections decode to owned
//! vectors at open.
//!
//! There is **one read path**: the whole file sits in one 8-byte-aligned
//! [`Arena`] allocation, the CRC32 trailer is verified over the raw bytes
//! (PCLMUL-folded, so this is bandwidth-bound), and every raw section
//! becomes a borrowed view. Open cost is O(header + validation), not
//! O(elements) — no per-element decode, no per-table allocation.
//! [`open_index`] takes an arena the caller filled (e.g.
//! [`Arena::from_file`]); the `Read` entry points ([`load_index`] and every
//! family's `load_from`) read the stream to its end into an arena and open
//! that. A file must end at its trailer: trailing bytes are refused.
//! [`open_index_at`] opens an envelope embedded inside a larger arena (the
//! live index's segment files).
//!
//! **Version policy:** this build reads and writes version 3 only. Any
//! layout change bumps [`FORMAT_VERSION`]; every other version — including
//! the earlier streamed version 2 — is refused with a typed `InvalidData`
//! error naming the version, and there is no silent migration (load and
//! re-save a version-2 file with an older build to convert it). Every
//! envelope carries its own CRC32 (IEEE, from [`ius_faultio`]) trailer;
//! silent bit-rot is detected at open, not served, and a mismatch is a
//! typed `InvalidData` error, never a panic.
//!
//! Derived data is not stored when reloading it is linear-time and
//! allocation-only — leaf fragments of the WST, anchor view coordinates
//! and mismatch log-ratios of the factor sets (ratios are stored raw so a
//! re-save is byte-identical), and the minimizer scheme are all recomputed
//! on load; the expensive construction steps (z-estimation, suffix
//! sorting, trie and merge-sort-tree assembly) are **never** re-run.
//!
//! Family tags: `0` NAIVE, `1` WST, `2` WSA, `3` minimizer (any of
//! MWST/MWSA/MWST-G/MWSA-G, explicit or space-efficient construction).
//! Tag `4` belonged to the removed sharded-index format and is refused
//! typed: a partitioned index persists as a `ius_live::LiveIndex` manifest
//! directory instead. Every multi-byte integer and float is little-endian
//! (`f64` as the LE bytes of its IEEE-754 bits, so round trips are
//! bit-exact).
//!
//! Entry points: [`save_index`]/[`load_index`]/[`open_index`] over
//! [`AnyIndex`], [`open_index_at`] for embedded envelopes, and inherent
//! `save_to`/`load_from` on every concrete family.

use crate::builder::AnyIndex;
use crate::encode::{Direction, EncodedFactorSet};
use crate::minimizer_index::{IndexVariant, MinimizerIndex};
use crate::naive::NaiveIndex;
use crate::params::IndexParams;
use crate::property_text::PropertyText;
use crate::traits::UncertainIndex;
use crate::wsa::Wsa;
use crate::wst::Wst;
use ius_arena::{as_le_bytes, Arena, ArenaVec, Pod};
use ius_faultio::crc32;
use ius_grid::{RangeReporter, ReporterParts};
use ius_sampling::KmerOrder;
use ius_text::trie::{CompactedTrie, TrieParts};
use ius_weighted::HeavyString;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// The four magic bytes opening every saved index.
pub const MAGIC: [u8; 4] = *b"IUSX";

/// The on-disk format version, the only one this build reads or writes:
/// arena-openable 8-byte-aligned sections with an envelope length field.
/// Files of any other version are refused typed.
pub const FORMAT_VERSION: u16 = 3;

const TAG_NAIVE: u8 = 0;
const TAG_WST: u8 = 1;
const TAG_WSA: u8 = 2;
const TAG_MINIMIZER: u8 = 3;
/// The tag of the removed sharded-index format, refused at open.
const TAG_REMOVED_SHARDED: u8 = 4;

/// Section encodings (the `u8` after the element count).
const ENC_RAW: u8 = 0;
const ENC_PACKED: u8 = 1;

/// Bytes of the v3 envelope header: magic, version, tag, envelope length.
const V3_HEADER: usize = 15;

/// Options controlling how [`save_index_with`] encodes sections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveOptions {
    /// Bit-pack `u32` sections (position lists, mismatch depth tables,
    /// grid pools …) at the minimum fixed width when that is smaller than
    /// the raw encoding. Shrinks files; packed sections decode to owned
    /// vectors at open instead of borrowing from the arena, so the
    /// zero-copy open path only stays allocation-free for raw sections.
    pub pack_u32: bool,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// Wire primitives (scalar fields of the writer)
// ---------------------------------------------------------------------------

fn write_u8(w: &mut dyn Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
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

// ---------------------------------------------------------------------------
// Bit packing (section encoding 1)
// ---------------------------------------------------------------------------

/// Bits needed to represent every value of `data` (≥ 1 so empty/zero data
/// still has a valid width).
fn packed_width(data: &[u32]) -> usize {
    let max = data.iter().copied().max().unwrap_or(0);
    (32 - max.leading_zeros()).max(1) as usize
}

/// Packs `data` LSB-first at a fixed `width` bits per value.
fn pack_u32(data: &[u32], width: usize) -> Vec<u64> {
    let mut words = vec![0u64; (data.len() * width).div_ceil(64)];
    let mut bit = 0usize;
    for &v in data {
        let (word, off) = (bit / 64, bit % 64);
        words[word] |= (v as u64) << off;
        if off + width > 64 {
            words[word + 1] |= (v as u64) >> (64 - off);
        }
        bit += width;
    }
    words
}

/// Inverse of [`pack_u32`]; `words` must hold `⌈len·width/64⌉` words
/// (validated by the caller).
fn unpack_u32(words: &[u64], len: usize, width: usize) -> Vec<u32> {
    let mask = if width == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << width) - 1
    };
    let mut out = Vec::with_capacity(len);
    let mut bit = 0usize;
    for _ in 0..len {
        let (word, off) = (bit / 64, bit % 64);
        let mut v = words[word] >> off;
        if off + width > 64 {
            v |= words[word + 1] << (64 - off);
        }
        out.push((v & mask) as u32);
        bit += width;
    }
    out
}

// ---------------------------------------------------------------------------
// v3 writer: one in-memory buffer per envelope
// ---------------------------------------------------------------------------

/// Accumulates one complete v3 envelope in memory. Offsets relative to the
/// envelope start are simply `buf.len()`, which makes the 8-byte section
/// alignment trivial; the finished envelope (header patched with the total
/// length, CRC32 trailer appended) reaches the output writer as a single
/// `write_all` — the buffered save path.
struct V3Writer {
    buf: Vec<u8>,
    opts: SaveOptions,
}

impl Write for V3Writer {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl V3Writer {
    fn pad8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Writes one raw-encoded section of any [`Pod`] type.
    fn section<T: Pod>(&mut self, data: &[T]) {
        self.buf
            .extend_from_slice(&(data.len() as u64).to_le_bytes());
        self.buf.push(ENC_RAW);
        self.pad8();
        self.buf.extend_from_slice(&as_le_bytes(data));
    }

    /// Writes a `u32` section, bit-packed when [`SaveOptions::pack_u32`] is
    /// on and packing actually shrinks it.
    fn section_u32(&mut self, data: &[u32]) {
        if self.opts.pack_u32 && !data.is_empty() {
            let width = packed_width(data);
            let words = (data.len() * width).div_ceil(64);
            // 9 header bytes (width + word count) buy `4 − width/8` bytes
            // per element; only pack when that is a net win.
            if words * 8 + 9 < data.len() * 4 {
                self.buf
                    .extend_from_slice(&(data.len() as u64).to_le_bytes());
                self.buf.push(ENC_PACKED);
                self.buf.push(width as u8);
                self.buf.extend_from_slice(&(words as u64).to_le_bytes());
                self.pad8();
                self.buf
                    .extend_from_slice(&as_le_bytes(&pack_u32(data, width)));
                return;
            }
        }
        self.section(data);
    }
}

/// Writes one complete checksummed v3 envelope into `w` as a single
/// buffered write.
fn write_checksummed_v3(
    w: &mut dyn Write,
    tag: u8,
    opts: SaveOptions,
    payload: impl FnOnce(&mut V3Writer) -> io::Result<()>,
) -> io::Result<()> {
    let mut vw = V3Writer {
        buf: Vec::with_capacity(256),
        opts,
    };
    vw.buf.extend_from_slice(&MAGIC);
    vw.buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    vw.buf.push(tag);
    vw.buf.extend_from_slice(&0u64.to_le_bytes()); // length, patched below
    payload(&mut vw)?;
    let total = (vw.buf.len() + 4) as u64;
    vw.buf[7..V3_HEADER].copy_from_slice(&total.to_le_bytes());
    let crc = crc32(&vw.buf);
    vw.buf.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&vw.buf)
}

// ---------------------------------------------------------------------------
// Reader: one validated cursor over an arena
// ---------------------------------------------------------------------------

/// The one v3 decoder: a bounds-checked cursor over an [`Arena`] whose
/// envelope CRC was verified once, up front. Raw sections come back as
/// zero-copy views; bit-packed sections decode to owned vectors.
struct ArenaSource {
    arena: Arena,
    base: usize,
    cursor: usize,
    /// First byte past the payload (the trailer's offset).
    end: usize,
    /// Total envelope length including the trailer.
    envelope_len: usize,
}

impl ArenaSource {
    /// Validates the envelope at `base` (magic, version, family tag, length
    /// bounds, CRC32 over the raw bytes) and returns its family tag plus a
    /// cursor positioned at the first payload byte.
    fn open(arena: &Arena, base: usize) -> io::Result<(u8, Self)> {
        if !base.is_multiple_of(8) {
            return Err(bad("envelope does not start 8-byte aligned"));
        }
        let bytes = arena.as_bytes();
        let head = bytes
            .get(base..base + V3_HEADER)
            .ok_or_else(|| bad("file too short for an IUSX v3 envelope"))?;
        if head[..4] != MAGIC {
            return Err(bad("not an IUSX index file (bad magic)"));
        }
        let version = u16::from_le_bytes([head[4], head[5]]);
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported IUSX format version {version} (this build reads only version \
                 {FORMAT_VERSION}; load and re-save the file with an older build to convert it)"
            )));
        }
        // The header fields are checked before the checksum: they give the
        // most informative failures.
        let tag = head[6];
        if tag == TAG_REMOVED_SHARDED {
            return Err(bad(
                "family tag 4 is the removed sharded-index format, which this build no longer \
                 reads; rebuild the index and persist a partitioned index with \
                 LiveIndex::save_to_dir",
            ));
        }
        if tag > TAG_MINIMIZER {
            return Err(bad(format!("unknown family tag {tag}")));
        }
        let envelope_len = usize::try_from(u64::from_le_bytes(
            head[7..V3_HEADER].try_into().expect("8-byte slice"),
        ))
        .map_err(|_| bad("envelope length exceeds the address space"))?;
        let end_total = base
            .checked_add(envelope_len)
            .filter(|&e| e <= bytes.len() && envelope_len >= V3_HEADER + 4)
            .ok_or_else(|| bad("envelope length field escapes the file"))?;
        let end = end_total - 4;
        let stored = u32::from_le_bytes(bytes[end..end_total].try_into().expect("4-byte slice"));
        let computed = crc32(&bytes[base..end]);
        if stored != computed {
            return Err(bad(format!(
                "index checksum mismatch (stored {stored:#010x}, computed {computed:#010x}): \
                 the file is corrupt"
            )));
        }
        Ok((
            tag,
            Self {
                arena: arena.clone(),
                base,
                cursor: base + V3_HEADER,
                end,
                envelope_len,
            },
        ))
    }

    /// [`ArenaSource::open`] for a whole-file envelope: nothing may follow
    /// the trailer.
    fn open_file(arena: &Arena) -> io::Result<(u8, Self)> {
        let (tag, src) = Self::open(arena, 0)?;
        if src.envelope_len != arena.len() {
            return Err(bad(format!(
                "{} trailing bytes after the index checksum trailer",
                arena.len() - src.envelope_len
            )));
        }
        Ok((tag, src))
    }

    /// Rejects trailing payload bytes the decoder did not consume.
    fn expect_consumed(&self) -> io::Result<()> {
        if self.cursor != self.end {
            return Err(bad(format!(
                "envelope payload has {} undecoded trailing bytes",
                self.end - self.cursor
            )));
        }
        Ok(())
    }

    /// Reads exactly `buf.len()` bytes (scalar header fields).
    fn read_buf(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let next = self
            .cursor
            .checked_add(buf.len())
            .filter(|&n| n <= self.end)
            .ok_or_else(|| bad("payload field escapes the envelope"))?;
        buf.copy_from_slice(&self.arena.as_bytes()[self.cursor..next]);
        self.cursor = next;
        Ok(())
    }

    /// Skips to the next 8-byte-aligned offset relative to the envelope
    /// start, rejecting nonzero padding.
    fn align8(&mut self) -> io::Result<()> {
        let pad = (8 - (self.cursor - self.base) % 8) % 8;
        let mut buf = [0u8; 8];
        self.read_buf(&mut buf[..pad])?;
        if buf[..pad].iter().any(|&b| b != 0) {
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
        let next = self
            .cursor
            .checked_add(bytes)
            .filter(|&n| n <= self.end)
            .ok_or_else(|| bad("section escapes the envelope"))?;
        let view = self
            .arena
            .view::<T>(self.cursor, elems)
            .ok_or_else(|| bad("section is not aligned for its element type"))?;
        self.cursor = next;
        Ok(view)
    }

    /// The arena handle the loaded index retains for size accounting.
    fn retained_arena(&self) -> Option<Arena> {
        Some(self.arena.clone())
    }
}

fn src_u8(s: &mut ArenaSource) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    s.read_buf(&mut buf)?;
    Ok(buf[0])
}

fn src_u32(s: &mut ArenaSource) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    s.read_buf(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn src_u64(s: &mut ArenaSource) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    s.read_buf(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn src_f64(s: &mut ArenaSource) -> io::Result<f64> {
    Ok(f64::from_bits(src_u64(s)?))
}

fn src_len(s: &mut ArenaSource) -> io::Result<usize> {
    usize::try_from(src_u64(s)?).map_err(|_| bad("length prefix exceeds the address space"))
}

/// Reads one section of any [`Pod`] type (raw encoding only).
fn read_section<T: Pod>(s: &mut ArenaSource) -> io::Result<ArenaVec<T>> {
    let elems = src_len(s)?;
    match src_u8(s)? {
        ENC_RAW => {
            s.align8()?;
            s.take::<T>(elems)
        }
        other => Err(bad(format!("unsupported section encoding {other}"))),
    }
}

/// Reads one `u32` section (raw or bit-packed).
fn read_section_u32(s: &mut ArenaSource) -> io::Result<ArenaVec<u32>> {
    let elems = src_len(s)?;
    match src_u8(s)? {
        ENC_RAW => {
            s.align8()?;
            s.take::<u32>(elems)
        }
        ENC_PACKED => {
            let width = src_u8(s)? as usize;
            if !(1..=32).contains(&width) {
                return Err(bad(format!("invalid packed-section width {width}")));
            }
            let words = src_len(s)?;
            let expected = elems
                .checked_mul(width)
                .ok_or_else(|| bad("packed section overflows"))?
                .div_ceil(64);
            if words != expected {
                return Err(bad("packed section word count does not match"));
            }
            s.align8()?;
            let packed = s.take::<u64>(words)?;
            Ok(ArenaVec::from(unpack_u32(&packed, elems, width)))
        }
        other => Err(bad(format!("unsupported section encoding {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Shared scalar components
// ---------------------------------------------------------------------------

fn write_order(w: &mut dyn Write, order: KmerOrder) -> io::Result<()> {
    match order {
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

pub(crate) fn write_params(w: &mut dyn Write, params: &IndexParams) -> io::Result<()> {
    write_f64(w, params.z)?;
    write_u64(w, params.ell as u64)?;
    write_u64(w, params.k as u64)?;
    write_order(w, params.order)
}

fn src_order(s: &mut ArenaSource) -> io::Result<KmerOrder> {
    let tag = src_u8(s)?;
    let seed = src_u64(s)?;
    match tag {
        0 => Ok(KmerOrder::Lexicographic),
        1 => Ok(KmerOrder::KarpRabin { seed }),
        other => Err(bad(format!("unknown k-mer order tag {other}"))),
    }
}

fn src_params(s: &mut ArenaSource) -> io::Result<IndexParams> {
    let z = src_f64(s)?;
    let ell = src_len(s)?;
    let k = src_len(s)?;
    let order = src_order(s)?;
    if !(z.is_finite() && z >= 1.0) {
        return Err(bad(format!("invalid stored threshold z = {z}")));
    }
    if ell == 0 || k == 0 || k > ell {
        return Err(bad(format!("invalid stored parameters ℓ = {ell}, k = {k}")));
    }
    Ok(IndexParams { z, ell, k, order })
}

/// Reconstructs the heavy view a factor set reads through: forward sets
/// see the index-wide heavy string (shared, or their own copy when the
/// ownership flag says so), backward sets see its reversal.
fn factor_heavy_view(direction: Direction, owns_view: bool, heavy: &HeavyString) -> Arc<Vec<u8>> {
    match (direction, owns_view) {
        (Direction::Forward, false) => heavy.shared_ranks(),
        (Direction::Forward, true) => Arc::new(heavy.as_ranks().to_vec()),
        (Direction::Backward, _) => {
            let mut reversed = heavy.as_ranks().to_vec();
            reversed.reverse();
            Arc::new(reversed)
        }
    }
}

// ---------------------------------------------------------------------------
// v3 component writers/readers (aligned sections)
// ---------------------------------------------------------------------------

fn write_property_text_v3(vw: &mut V3Writer, pt: &PropertyText) -> io::Result<()> {
    write_u64(vw, pt.n() as u64)?;
    write_u64(vw, pt.num_strands() as u64)?;
    vw.section::<u8>(pt.text());
    vw.section_u32(pt.trunc_raw());
    vw.section_u32(pt.psa());
    match pt.trunc_lcp_raw() {
        Some(lcps) => {
            write_u8(vw, 1)?;
            vw.section_u32(lcps);
        }
        None => write_u8(vw, 0)?,
    }
    Ok(())
}

fn read_property_text_v3(s: &mut ArenaSource) -> io::Result<PropertyText> {
    let n = src_len(s)?;
    let num_strands = src_len(s)?;
    let text = read_section::<u8>(s)?;
    let trunc = read_section_u32(s)?;
    let psa = read_section_u32(s)?;
    let trunc_lcp = match src_u8(s)? {
        0 => None,
        1 => Some(read_section_u32(s)?),
        other => return Err(bad(format!("bad truncated-LCP flag {other}"))),
    };
    PropertyText::from_parts(n, num_strands, text, trunc, psa, trunc_lcp).map_err(bad)
}

fn write_trie_v3(vw: &mut V3Writer, trie: &CompactedTrie) -> io::Result<()> {
    let parts = trie.to_parts();
    vw.section_u32(&parts.depth);
    vw.section_u32(&parts.leaf_lo);
    vw.section_u32(&parts.leaf_hi);
    vw.section_u32(&parts.children_start);
    vw.section::<u16>(&parts.children_len);
    vw.section::<u8>(&parts.is_leaf);
    vw.section::<u8>(&parts.child_letters);
    vw.section_u32(&parts.child_nodes);
    write_u32(vw, parts.root)?;
    write_u64(vw, parts.num_leaves)
}

fn read_trie_v3(s: &mut ArenaSource) -> io::Result<CompactedTrie> {
    let parts = TrieParts {
        depth: read_section_u32(s)?,
        leaf_lo: read_section_u32(s)?,
        leaf_hi: read_section_u32(s)?,
        children_start: read_section_u32(s)?,
        children_len: read_section::<u16>(s)?,
        is_leaf: read_section::<u8>(s)?,
        child_letters: read_section::<u8>(s)?,
        child_nodes: read_section_u32(s)?,
        root: src_u32(s)?,
        num_leaves: src_u64(s)?,
    };
    CompactedTrie::from_parts(parts).map_err(bad)
}

fn write_reporter_v3(vw: &mut V3Writer, reporter: &RangeReporter) -> io::Result<()> {
    let parts = reporter.to_parts();
    write_u64(vw, parts.len)?;
    vw.section_u32(&parts.xs);
    vw.section_u32(&parts.node_lens);
    vw.section_u32(&parts.ys);
    vw.section_u32(&parts.payloads);
    Ok(())
}

fn read_reporter_parts_v3(s: &mut ArenaSource) -> io::Result<ReporterParts> {
    Ok(ReporterParts {
        len: src_u64(s)?,
        xs: read_section_u32(s)?,
        node_lens: read_section_u32(s)?,
        ys: read_section_u32(s)?,
        payloads: read_section_u32(s)?,
    })
}

fn write_heavy_v3(vw: &mut V3Writer, heavy: &HeavyString) -> io::Result<()> {
    vw.section::<u8>(heavy.as_ranks());
    vw.section::<f64>(heavy.log_prefix());
    Ok(())
}

fn read_heavy_v3(s: &mut ArenaSource) -> io::Result<HeavyString> {
    // The heavy letters live behind an `Arc<Vec<u8>>` shared with the
    // factor sets, so they are copied out of the arena (n bytes — tiny
    // next to the O(n·z) tables that stay zero-copy).
    let letters = read_section::<u8>(s)?.to_vec();
    let log_prefix = read_section::<f64>(s)?;
    HeavyString::from_parts(letters, log_prefix).map_err(|e| bad(e.to_string()))
}

fn write_factor_set_v3(vw: &mut V3Writer, set: &EncodedFactorSet) -> io::Result<()> {
    write_u8(
        vw,
        match set.direction() {
            Direction::Forward => 0,
            Direction::Backward => 1,
        },
    )?;
    write_u8(vw, u8::from(set.owns_heavy_view()))?;
    vw.section_u32(set.anchor_x_raw());
    vw.section_u32(set.lens_raw());
    vw.section_u32(set.strands_raw());
    vw.section_u32(set.mism_start_raw());
    vw.section_u32(set.mism_depths_raw());
    vw.section::<u8>(set.mism_letters_raw());
    vw.section::<f64>(set.mism_ratios_raw());
    vw.section::<u64>(set.prefix_keys_raw());
    Ok(())
}

fn read_factor_set_v3(s: &mut ArenaSource, heavy: &HeavyString) -> io::Result<EncodedFactorSet> {
    let direction = match src_u8(s)? {
        0 => Direction::Forward,
        1 => Direction::Backward,
        other => return Err(bad(format!("unknown factor-set direction {other}"))),
    };
    let owns_view = match src_u8(s)? {
        0 => false,
        1 => true,
        other => return Err(bad(format!("bad heavy-view ownership flag {other}"))),
    };
    let heavy_view = factor_heavy_view(direction, owns_view, heavy);
    let anchor_x = read_section_u32(s)?;
    let lens = read_section_u32(s)?;
    let strands = read_section_u32(s)?;
    let mism_start = read_section_u32(s)?;
    let mism_depths = read_section_u32(s)?;
    let mism_letters = read_section::<u8>(s)?;
    let mism_ratios = read_section::<f64>(s)?;
    let prefix_keys = read_section::<u64>(s)?;
    EncodedFactorSet::from_loaded_parts(
        direction,
        heavy_view,
        anchor_x,
        lens,
        strands,
        mism_start,
        mism_depths,
        mism_letters,
        mism_ratios,
        prefix_keys,
    )
    .map_err(bad)
}

// ---------------------------------------------------------------------------
// Family payloads
// ---------------------------------------------------------------------------

fn variant_tag(variant: IndexVariant) -> u8 {
    match variant {
        IndexVariant::Tree => 0,
        IndexVariant::Array => 1,
        IndexVariant::TreeGrid => 2,
        IndexVariant::ArrayGrid => 3,
    }
}

fn variant_from_tag(tag: u8) -> io::Result<IndexVariant> {
    Ok(match tag {
        0 => IndexVariant::Tree,
        1 => IndexVariant::Array,
        2 => IndexVariant::TreeGrid,
        3 => IndexVariant::ArrayGrid,
        other => return Err(bad(format!("unknown index variant tag {other}"))),
    })
}

fn construction_tag(construction: &str) -> u8 {
    match construction {
        "space-efficient" => 1,
        _ => 0,
    }
}

fn construction_from_tag(tag: u8) -> io::Result<&'static str> {
    Ok(match tag {
        0 => "explicit",
        1 => "space-efficient",
        other => return Err(bad(format!("unknown construction tag {other}"))),
    })
}

fn write_minimizer_payload_v3(vw: &mut V3Writer, index: &MinimizerIndex) -> io::Result<()> {
    write_params(vw, index.params())?;
    write_u8(vw, variant_tag(index.variant()))?;
    write_u8(vw, construction_tag(index.construction()))?;
    let parts = index.persist_parts();
    write_u64(vw, parts.n as u64)?;
    write_u64(vw, parts.sigma as u64)?;
    write_heavy_v3(vw, parts.heavy)?;
    write_factor_set_v3(vw, parts.fwd)?;
    write_factor_set_v3(vw, parts.bwd)?;
    for trie in [parts.fwd_trie, parts.bwd_trie] {
        match trie {
            Some(trie) => {
                write_u8(vw, 1)?;
                write_trie_v3(vw, trie)?;
            }
            None => write_u8(vw, 0)?,
        }
    }
    match parts.grid {
        Some(grid) => {
            write_u8(vw, 1)?;
            write_reporter_v3(vw, grid)?;
            vw.section_u32(parts.pairs);
        }
        None => write_u8(vw, 0)?,
    }
    Ok(())
}

fn read_minimizer_payload_v3(src: &mut ArenaSource) -> io::Result<MinimizerIndex> {
    let params = src_params(src)?;
    let variant = variant_from_tag(src_u8(src)?)?;
    let construction = construction_from_tag(src_u8(src)?)?;
    let n = src_len(src)?;
    let sigma = src_len(src)?;
    let heavy = read_heavy_v3(src)?;
    let fwd = read_factor_set_v3(src, &heavy)?;
    let bwd = read_factor_set_v3(src, &heavy)?;
    let mut tries = [None, None];
    for slot in &mut tries {
        *slot = match src_u8(src)? {
            0 => None,
            1 => Some(read_trie_v3(src)?),
            other => return Err(bad(format!("bad trie presence flag {other}"))),
        };
    }
    let [fwd_trie, bwd_trie] = tries;
    let (grid, pairs) = match src_u8(src)? {
        0 => (None, ArenaVec::new()),
        1 => {
            let grid_parts = read_reporter_parts_v3(src)?;
            let pairs = read_section_u32(src)?;
            let worst = grid_parts.payloads.iter().fold(0u32, |m, &p| m.max(p));
            if !grid_parts.payloads.is_empty() && worst as usize >= pairs.len() / 2 {
                return Err(bad("grid payload references a pair out of range"));
            }
            (
                Some(RangeReporter::from_parts(grid_parts).map_err(bad)?),
                pairs,
            )
        }
        other => return Err(bad(format!("bad grid presence flag {other}"))),
    };
    // Cross-component invariants.
    if sigma == 0 || sigma > 256 {
        return Err(bad(format!("invalid stored alphabet size {sigma}")));
    }
    if heavy.len() != n {
        return Err(bad("heavy string length does not match the stored n"));
    }
    if fwd.direction() != Direction::Forward || bwd.direction() != Direction::Backward {
        return Err(bad("factor sets stored in the wrong order"));
    }
    if variant.has_tree() != fwd_trie.is_some() || variant.has_tree() != bwd_trie.is_some() {
        return Err(bad("stored tries do not match the index variant"));
    }
    if let (Some(trie), set_len) = (&fwd_trie, fwd.len()) {
        if trie.num_leaves() != set_len {
            return Err(bad("forward trie does not match the forward factor set"));
        }
    }
    if let (Some(trie), set_len) = (&bwd_trie, bwd.len()) {
        if trie.num_leaves() != set_len {
            return Err(bad("backward trie does not match the backward factor set"));
        }
    }
    if variant.has_grid() != grid.is_some() {
        return Err(bad("stored grid does not match the index variant"));
    }
    if !pairs.len().is_multiple_of(2) {
        return Err(bad("grid pair pool has an odd element count"));
    }
    // Max-scan instead of an early-exit loop: this covers the whole pair
    // pool on every open, so it must vectorize.
    let (worst_fwd, worst_bwd) = pairs
        .chunks_exact(2)
        .fold((0u32, 0u32), |(f, b), p| (f.max(p[0]), b.max(p[1])));
    if !pairs.is_empty() && (worst_fwd as usize >= fwd.len() || worst_bwd as usize >= bwd.len()) {
        return Err(bad("grid pair references a leaf out of range"));
    }
    if let Some(grid) = &grid {
        if grid.len() != pairs.len() / 2 {
            return Err(bad("grid point count does not match the pair table"));
        }
    } else if !pairs.is_empty() {
        return Err(bad("grid pair pool stored without a grid"));
    }
    Ok(MinimizerIndex::from_loaded_parts(
        params,
        variant,
        n,
        sigma,
        heavy,
        fwd,
        bwd,
        fwd_trie,
        bwd_trie,
        grid,
        pairs,
        src.retained_arena(),
        construction,
    ))
}

// ---------------------------------------------------------------------------
// Public per-family API
// ---------------------------------------------------------------------------

impl NaiveIndex {
    /// Serializes the index into `w` (envelope + payload).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        write_checksummed_v3(w, TAG_NAIVE, SaveOptions::default(), |vw| {
            write_f64(vw, self.z())
        })
    }

    /// Deserializes an index previously written by [`NaiveIndex::save_to`].
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` on a malformed or mismatched file.
    pub fn load_from(r: &mut dyn Read) -> io::Result<Self> {
        match load_index(r)? {
            AnyIndex::Naive(index) => Ok(index),
            other => Err(bad(format!(
                "expected a NAIVE file, found {}",
                other.name()
            ))),
        }
    }
}

impl Wst {
    /// Serializes the index into `w` (envelope + payload).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        self.save_to_with(w, SaveOptions::default())
    }

    /// [`Wst::save_to`] with explicit encoding options.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to_with(&self, w: &mut dyn Write, opts: SaveOptions) -> io::Result<()> {
        write_checksummed_v3(w, TAG_WST, opts, |vw| {
            write_f64(vw, self.z())?;
            write_property_text_v3(vw, self.property_text_ref())?;
            write_trie_v3(vw, self.trie_ref())
        })
    }

    /// Deserializes an index previously written by [`Wst::save_to`].
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` on a malformed or mismatched file.
    pub fn load_from(r: &mut dyn Read) -> io::Result<Self> {
        match load_index(r)? {
            AnyIndex::Wst(index) => Ok(index),
            other => Err(bad(format!("expected a WST file, found {}", other.name()))),
        }
    }
}

impl Wsa {
    /// Serializes the index into `w` (envelope + payload).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        self.save_to_with(w, SaveOptions::default())
    }

    /// [`Wsa::save_to`] with explicit encoding options.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to_with(&self, w: &mut dyn Write, opts: SaveOptions) -> io::Result<()> {
        write_checksummed_v3(w, TAG_WSA, opts, |vw| {
            write_f64(vw, self.z())?;
            write_property_text_v3(vw, self.property_text())
        })
    }

    /// Deserializes an index previously written by [`Wsa::save_to`].
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` on a malformed or mismatched file.
    pub fn load_from(r: &mut dyn Read) -> io::Result<Self> {
        match load_index(r)? {
            AnyIndex::Wsa(index) => Ok(index),
            other => Err(bad(format!("expected a WSA file, found {}", other.name()))),
        }
    }
}

impl MinimizerIndex {
    /// Serializes the index into `w` (envelope + payload).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        self.save_to_with(w, SaveOptions::default())
    }

    /// [`MinimizerIndex::save_to`] with explicit encoding options.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to_with(&self, w: &mut dyn Write, opts: SaveOptions) -> io::Result<()> {
        write_checksummed_v3(w, TAG_MINIMIZER, opts, |vw| {
            write_minimizer_payload_v3(vw, self)
        })
    }

    /// Deserializes an index previously written by
    /// [`MinimizerIndex::save_to`]. No construction is re-run: the factor
    /// sets, tries and grid come back exactly as stored.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` on a malformed or mismatched file.
    pub fn load_from(r: &mut dyn Read) -> io::Result<Self> {
        match load_index(r)? {
            AnyIndex::Minimizer(index) => Ok(*index),
            other => Err(bad(format!(
                "expected a minimizer-index file, found {}",
                other.name()
            ))),
        }
    }
}

impl AnyIndex {
    /// Serializes the contained index — an alias of [`save_index`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        save_index(self, w)
    }

    /// Deserializes any single-machine family — an alias of [`load_index`].
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` on a malformed file.
    pub fn load_from(r: &mut dyn Read) -> io::Result<Self> {
        load_index(r)
    }

    /// Opens any single-machine family zero-copy from an arena — an alias
    /// of [`open_index`].
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` on a malformed file.
    pub fn open_from(arena: &Arena) -> io::Result<Self> {
        open_index(arena)
    }
}

/// Serializes any index family into `w` with the default (raw, zero-copy
/// openable) section encoding.
///
/// # Errors
///
/// Propagates I/O errors of the writer.
pub fn save_index(index: &AnyIndex, w: &mut dyn Write) -> io::Result<()> {
    save_index_with(index, w, SaveOptions::default())
}

/// Serializes any index family into `w` with explicit encoding options.
///
/// # Errors
///
/// Propagates I/O errors of the writer.
pub fn save_index_with(index: &AnyIndex, w: &mut dyn Write, opts: SaveOptions) -> io::Result<()> {
    match index {
        AnyIndex::Naive(index) => index.save_to(w),
        AnyIndex::Wst(index) => index.save_to_with(w, opts),
        AnyIndex::Wsa(index) => index.save_to_with(w, opts),
        AnyIndex::Minimizer(index) => index.save_to_with(w, opts),
    }
}

/// Deserializes an index saved by [`save_index`] (or any family's
/// `save_to`): reads the stream to its end into an [`Arena`], then opens
/// it with [`open_index`] — the one validated decoder. Loading performs
/// only linear-time reassembly — the z-estimation, suffix sorts and tree
/// merges of construction are never re-run.
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
/// trailer is verified over the raw bytes, then every raw section becomes
/// a zero-copy borrowed view — open cost is O(header + validation), not
/// O(elements).
///
/// # Errors
///
/// `InvalidData` on bad magic, an unknown version/tag, a checksum
/// mismatch, bytes after the trailer, or a structurally inconsistent
/// payload.
pub fn open_index(arena: &Arena) -> io::Result<AnyIndex> {
    let (tag, mut src) = ArenaSource::open_file(arena)?;
    let index = load_index_payload_v3(tag, &mut src)?;
    src.expect_consumed()?;
    Ok(index)
}

/// Opens a v3 envelope embedded at `offset` inside an arena (the live
/// index stores its segment payloads behind a segment prefix). The offset
/// must be 8-byte aligned — writers pad the prefix so it is. Returns the
/// opened index and the envelope's total byte length.
///
/// # Errors
///
/// `InvalidData` on bad magic, a non-v3 version, a checksum mismatch, or
/// a structurally inconsistent payload.
pub fn open_index_at(arena: &Arena, offset: usize) -> io::Result<(AnyIndex, usize)> {
    let (tag, mut src) = ArenaSource::open(arena, offset)?;
    let index = load_index_payload_v3(tag, &mut src)?;
    src.expect_consumed()?;
    Ok((index, src.envelope_len))
}

fn load_index_payload_v3(tag: u8, src: &mut ArenaSource) -> io::Result<AnyIndex> {
    match tag {
        TAG_NAIVE => {
            let z = src_f64(src)?;
            NaiveIndex::new(z)
                .map(AnyIndex::Naive)
                .map_err(|e| bad(e.to_string()))
        }
        TAG_WST => {
            let z = src_f64(src)?;
            if !(z.is_finite() && z >= 1.0) {
                return Err(bad(format!("invalid stored threshold z = {z}")));
            }
            let property_text = read_property_text_v3(src)?;
            let trie = read_trie_v3(src)?;
            if trie.num_leaves() != property_text.psa().len() {
                return Err(bad("trie does not match the property suffix array"));
            }
            Ok(AnyIndex::Wst(Wst::from_loaded_parts(
                z,
                property_text,
                trie,
                src.retained_arena(),
            )))
        }
        TAG_WSA => {
            let z = src_f64(src)?;
            if !(z.is_finite() && z >= 1.0) {
                return Err(bad(format!("invalid stored threshold z = {z}")));
            }
            let property_text = read_property_text_v3(src)?;
            Ok(AnyIndex::Wsa(Wsa::from_loaded_parts(
                z,
                property_text,
                src.retained_arena(),
            )))
        }
        TAG_MINIMIZER => Ok(AnyIndex::Minimizer(Box::new(read_minimizer_payload_v3(
            src,
        )?))),
        other => Err(bad(format!("unknown family tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{IndexFamily, IndexSpec};
    use crate::traits::UncertainIndex;
    use ius_datasets::uniform::UniformConfig;

    fn sample_index() -> AnyIndex {
        let x = UniformConfig {
            n: 160,
            sigma: 2,
            spread: 0.5,
            seed: 8,
        }
        .generate();
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
        // Unknown version, and version 2: refused naming the version.
        for version in [0x03FF, 2u16] {
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
    fn typed_loaders_reject_other_families() {
        let bytes = sample_bytes();
        assert!(Wsa::load_from(&mut bytes.as_slice()).is_err());
        assert!(Wst::load_from(&mut bytes.as_slice()).is_err());
        assert!(NaiveIndex::load_from(&mut bytes.as_slice()).is_err());
        assert!(MinimizerIndex::load_from(&mut bytes.as_slice()).is_ok());
    }

    #[test]
    fn naive_round_trip() {
        let naive = NaiveIndex::new(7.5).unwrap();
        let mut bytes = Vec::new();
        naive.save_to(&mut bytes).unwrap();
        let loaded = NaiveIndex::load_from(&mut bytes.as_slice()).unwrap();
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
        let x = UniformConfig {
            n: 160,
            sigma: 2,
            spread: 0.5,
            seed: 8,
        }
        .generate();
        for pattern in [&b"ABABABAB"[..], b"AAAAAAAA", b"BBABBABB", b"ABBABBABB"] {
            let built = index.query(pattern, &x).unwrap();
            assert_eq!(loaded.query(pattern, &x).unwrap(), built);
            assert_eq!(opened.query(pattern, &x).unwrap(), built);
        }
        // Both retain the one backing arena and account it once.
        assert!(loaded.size_bytes() >= bytes.len());
        assert!(opened.size_bytes() >= bytes.len());
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

    #[test]
    fn packed_sections_shrink_and_round_trip() {
        let index = sample_index();
        let mut raw = Vec::new();
        index.save_to(&mut raw).unwrap();
        let mut packed = Vec::new();
        save_index_with(&index, &mut packed, SaveOptions { pack_u32: true }).unwrap();
        assert!(
            packed.len() < raw.len(),
            "packing must shrink the file ({} vs {} bytes)",
            packed.len(),
            raw.len()
        );
        let x = UniformConfig {
            n: 160,
            sigma: 2,
            spread: 0.5,
            seed: 8,
        }
        .generate();
        let loaded = load_index(&mut packed.as_slice()).unwrap();
        let opened = open_index(&Arena::from_bytes(&packed)).unwrap();
        for pattern in [&b"ABABABAB"[..], b"AAAAAAAA", b"BBABBABB"] {
            let built = index.query(pattern, &x).unwrap();
            assert_eq!(loaded.query(pattern, &x).unwrap(), built);
            assert_eq!(opened.query(pattern, &x).unwrap(), built);
        }
    }
}
