//! Versioned binary persistence for every index family.
//!
//! The build environment has no crates.io access, so the format is
//! hand-rolled rather than serde-derived: a little-endian binary layout
//! behind a fixed envelope. Format **version 6**, the only version:
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
//! **Version policy:** this build reads and writes version 6 only. Any
//! layout change bumps [`FORMAT_VERSION`]; every other version — the
//! earlier versions 2, 3, 4 and 5 included — is refused with a typed
//! `InvalidData` error naming the version, and there is no migration:
//! rebuild the index from its corpus. Every envelope carries its own CRC32
//! (IEEE, from [`ius_faultio`]) trailer; silent bit-rot is detected at
//! open, not served, and a mismatch is a typed `InvalidData` error, never a
//! panic.
//!
//! A minimizer payload stores only what its variant's query reads; the
//! variant tag alone decides which sections follow (untyped ones are `u32`):
//!
//! ```text
//! params · variant (u8) · construction (u8) · n (u64) · σ (u64)
//! · heavy letters (u8) · [log-prefix (f64)]                        grid only
//! · forward set, then backward set: anchor_x · lens · mism_start
//!     · mism_depths · mism_letters (u8) · [mism_log_ratios (f64)]  grid only
//!     · prefix_keys (u64)
//! · trie flag (u8) [· forward trie] · trie flag (u8) [· backward trie]
//! · grid flag (u8) [· N (u64) · bits (u64) · ranks · ids_by_x · xs_by_id
//!     · x starts (u64) · x ranks · y starts (u64) · y ranks]
//! ```
//!
//! Both sets hold no prefix-dominated leaf (one that is a prefix of
//! another leaf of its anchor). MWST and MWSA verify against `X`; MWST-G
//! and MWSA-G verify from the log-prefix and the log-ratios alone, and
//! their grid holds the `N` distinct (forward leaf, backward leaf) pairs of
//! the occurrences in rank space: `ids_by_x` pairs each point's x rank with
//! its y rank (a permutation; `xs_by_id` is its inverse, the wavelet matrix
//! is over `ids_by_x`), and per axis a bitvector over the `N` ranks marks
//! each leaf's first point, with its per-word rank counts. At open each
//! bitvector's rank counts must be its prefix popcounts, no bit may be set
//! past `N`, rank 0 must be marked when `N > 0` and the marks must number
//! that side's leaves. Nothing is derived per element at open:
//! view anchors cost `O(1)` on use, log-ratios are stored as the `ln` that
//! verification sums, and construction (z-estimation, suffix sorting, trie
//! assembly, wavelet matrix) is **never** re-run.
//!
//! Family tags: `0` NAIVE, `1` WST, `2` WSA, `3` minimizer (any of
//! MWST/MWSA/MWST-G/MWSA-G, explicit or space-efficient construction).
//! Tag `4` belonged to the removed sharded-index format and is refused
//! typed: a partitioned index persists as a `ius_live::LiveIndex` manifest
//! directory instead. Every multi-byte integer and float is little-endian
//! (`f64` as the LE bytes of its IEEE-754 bits, so round trips are
//! bit-exact).
//!
//! Entry points, all over [`AnyIndex`]: [`AnyIndex::save_to`] writes,
//! [`load_index`] reads a stream, [`open_index`] opens an arena and
//! [`open_index_at`] an envelope embedded in one.

use crate::builder::AnyIndex;
use crate::encode::{Direction, EncodedFactorSet};
use crate::minimizer_index::{IndexVariant, MinimizerIndex};
use crate::naive::NaiveIndex;
use crate::params::IndexParams;
use crate::property_text::PropertyText;
use crate::wsa::Wsa;
use crate::wst::Wst;
use ius_arena::{as_le_bytes, Arena, ArenaVec, Pod};
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
/// arena-openable 8-byte-aligned sections with an envelope length field.
/// Files of any other version are refused typed.
pub const FORMAT_VERSION: u16 = 6;

const TAG_NAIVE: u8 = 0;
const TAG_WST: u8 = 1;
const TAG_WSA: u8 = 2;
const TAG_MINIMIZER: u8 = 3;
/// The tag of the removed sharded-index format, refused at open.
const TAG_REMOVED_SHARDED: u8 = 4;

/// The one section encoding (the `u8` after the element count).
const ENC_RAW: u8 = 0;

/// Bytes of the envelope header: magic, version, tag, envelope length.
const HEADER_LEN: usize = 15;

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
// Writer: one in-memory buffer per envelope
// ---------------------------------------------------------------------------

/// Accumulates one complete envelope in memory. Offsets relative to the
/// envelope start are simply `buf.len()`, which makes the 8-byte section
/// alignment trivial; the finished envelope (header patched with the total
/// length, CRC32 trailer appended) reaches the output writer as a single
/// `write_all` — the buffered save path.
struct SectionWriter {
    buf: Vec<u8>,
}

impl Write for SectionWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SectionWriter {
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
}

/// Writes one complete checksummed envelope into `w` as a single
/// buffered write.
fn write_checksummed(
    w: &mut dyn Write,
    tag: u8,
    payload: impl FnOnce(&mut SectionWriter) -> io::Result<()>,
) -> io::Result<()> {
    let mut vw = SectionWriter {
        buf: Vec::with_capacity(256),
    };
    vw.buf.extend_from_slice(&MAGIC);
    vw.buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    vw.buf.push(tag);
    vw.buf.extend_from_slice(&0u64.to_le_bytes()); // length, patched below
    payload(&mut vw)?;
    let total = (vw.buf.len() + 4) as u64;
    vw.buf[7..HEADER_LEN].copy_from_slice(&total.to_le_bytes());
    let crc = crc32(&vw.buf);
    vw.buf.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&vw.buf)
}

// ---------------------------------------------------------------------------
// Reader: one validated cursor over an arena
// ---------------------------------------------------------------------------

/// The one decoder: a bounds-checked cursor over an [`Arena`] whose
/// envelope CRC was verified once, up front. Sections come back as
/// zero-copy views.
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
            .get(base..base + HEADER_LEN)
            .ok_or_else(|| bad("file too short for an IUSX envelope"))?;
        if head[..4] != MAGIC {
            return Err(bad("not an IUSX index file (bad magic)"));
        }
        let version = u16::from_le_bytes([head[4], head[5]]);
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported IUSX format version {version} (this build reads only version \
                 {FORMAT_VERSION}; rebuild the index from its corpus and save it again)"
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
            head[7..HEADER_LEN].try_into().expect("8-byte slice"),
        ))
        .map_err(|_| bad("envelope length exceeds the address space"))?;
        let end_total = base
            .checked_add(envelope_len)
            .filter(|&e| e <= bytes.len() && envelope_len >= HEADER_LEN + 4)
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
                cursor: base + HEADER_LEN,
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

/// Reads one section of any [`Pod`] type; an encoding other than raw is
/// refused.
fn read_section<T: Pod>(s: &mut ArenaSource) -> io::Result<ArenaVec<T>> {
    let elems = src_len(s)?;
    match src_u8(s)? {
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

fn write_params(w: &mut dyn Write, params: &IndexParams) -> io::Result<()> {
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

// ---------------------------------------------------------------------------
// Component writers/readers (aligned sections)
// ---------------------------------------------------------------------------

fn write_property_text(vw: &mut SectionWriter, pt: &PropertyText) -> io::Result<()> {
    write_u64(vw, pt.n() as u64)?;
    write_u64(vw, pt.num_strands() as u64)?;
    vw.section::<u8>(pt.text());
    vw.section::<u32>(pt.trunc_raw());
    vw.section::<u32>(pt.psa());
    match pt.trunc_lcp_raw() {
        Some(lcps) => {
            write_u8(vw, 1)?;
            vw.section::<u32>(lcps);
        }
        None => write_u8(vw, 0)?,
    }
    Ok(())
}

fn read_property_text(s: &mut ArenaSource) -> io::Result<PropertyText> {
    let n = src_len(s)?;
    let num_strands = src_len(s)?;
    let text = read_section::<u8>(s)?;
    let trunc = read_section::<u32>(s)?;
    let psa = read_section::<u32>(s)?;
    let trunc_lcp = match src_u8(s)? {
        0 => None,
        1 => Some(read_section::<u32>(s)?),
        other => return Err(bad(format!("bad truncated-LCP flag {other}"))),
    };
    PropertyText::from_parts(n, num_strands, text, trunc, psa, trunc_lcp).map_err(bad)
}

fn write_trie(vw: &mut SectionWriter, trie: &CompactedTrie) -> io::Result<()> {
    let parts = trie.to_parts();
    vw.section::<u32>(&parts.depth);
    vw.section::<u32>(&parts.leaf_lo);
    vw.section::<u32>(&parts.leaf_hi);
    vw.section::<u32>(&parts.children_start);
    vw.section::<u16>(&parts.children_len);
    vw.section::<u8>(&parts.is_leaf);
    vw.section::<u8>(&parts.child_letters);
    vw.section::<u32>(&parts.child_nodes);
    write_u32(vw, parts.root)?;
    write_u64(vw, parts.num_leaves)
}

fn read_trie(s: &mut ArenaSource) -> io::Result<CompactedTrie> {
    let parts = TrieParts {
        depth: read_section::<u32>(s)?,
        leaf_lo: read_section::<u32>(s)?,
        leaf_hi: read_section::<u32>(s)?,
        children_start: read_section::<u32>(s)?,
        children_len: read_section::<u16>(s)?,
        is_leaf: read_section::<u8>(s)?,
        child_letters: read_section::<u8>(s)?,
        child_nodes: read_section::<u32>(s)?,
        root: src_u32(s)?,
        num_leaves: src_u64(s)?,
    };
    CompactedTrie::from_parts(parts).map_err(bad)
}

fn write_grid(vw: &mut SectionWriter, grid: &RankSpaceGrid) -> io::Result<()> {
    let RankSpaceParts {
        points,
        x_starts,
        y_starts,
    } = grid.to_parts();
    write_u64(vw, points.len)?;
    vw.section::<u64>(&points.bits);
    vw.section::<u32>(&points.ranks);
    vw.section::<u32>(&points.ids_by_x);
    vw.section::<u32>(&points.xs_by_id);
    for starts in [x_starts, y_starts] {
        vw.section::<u64>(&starts.bits);
        vw.section::<u32>(&starts.ranks);
    }
    Ok(())
}

fn read_grid(s: &mut ArenaSource) -> io::Result<RankSpaceGrid> {
    let points = ReporterParts {
        len: src_u64(s)?,
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
fn write_heavy(vw: &mut SectionWriter, letters: &[u8], log_prefix: &[f64], grid: bool) {
    vw.section::<u8>(letters);
    if grid {
        vw.section::<f64>(log_prefix);
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

/// Writes a factor set; grid variants also write its log-ratio pool.
fn write_factor_set(vw: &mut SectionWriter, set: &EncodedFactorSet, grid: bool) {
    vw.section::<u32>(set.anchor_x_raw());
    vw.section::<u32>(set.lens_raw());
    vw.section::<u32>(set.mism_start_raw());
    vw.section::<u32>(set.mism_depths_raw());
    vw.section::<u8>(set.mism_letters_raw());
    if grid {
        vw.section::<f64>(set.mism_log_ratios_raw());
    }
    vw.section::<u64>(set.prefix_keys_raw());
}

/// Reads the factor set that reads `heavy_view` in `direction`.
fn read_factor_set(
    s: &mut ArenaSource,
    direction: Direction,
    heavy_view: Arc<Vec<u8>>,
    grid: bool,
) -> io::Result<EncodedFactorSet> {
    let anchor_x = read_section::<u32>(s)?;
    let lens = read_section::<u32>(s)?;
    let mism_start = read_section::<u32>(s)?;
    let mism_depths = read_section::<u32>(s)?;
    let mism_letters = read_section::<u8>(s)?;
    let mism_log_ratios = grid.then(|| read_section::<f64>(s)).transpose()?;
    let prefix_keys = read_section::<u64>(s)?;
    EncodedFactorSet::from_loaded_parts(
        direction,
        heavy_view,
        anchor_x,
        lens,
        mism_start,
        mism_depths,
        mism_letters,
        mism_log_ratios,
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

fn write_minimizer_payload(vw: &mut SectionWriter, index: &MinimizerIndex) -> io::Result<()> {
    write_params(vw, index.params())?;
    write_u8(vw, variant_tag(index.variant()))?;
    write_u8(vw, construction_tag(index.construction()))?;
    let parts = index.persist_parts();
    let grid = index.variant().has_grid();
    write_u64(vw, parts.n as u64)?;
    write_u64(vw, parts.sigma as u64)?;
    write_heavy(vw, parts.heavy, parts.log_prefix, grid);
    write_factor_set(vw, parts.fwd, grid);
    write_factor_set(vw, parts.bwd, grid);
    for trie in [parts.fwd_trie, parts.bwd_trie] {
        match trie {
            Some(trie) => {
                write_u8(vw, 1)?;
                write_trie(vw, trie)?;
            }
            None => write_u8(vw, 0)?,
        }
    }
    match parts.grid {
        Some(grid) => {
            write_u8(vw, 1)?;
            write_grid(vw, grid)?;
        }
        None => write_u8(vw, 0)?,
    }
    Ok(())
}

fn read_minimizer_payload(src: &mut ArenaSource) -> io::Result<MinimizerIndex> {
    let params = src_params(src)?;
    let variant = variant_from_tag(src_u8(src)?)?;
    let construction = construction_from_tag(src_u8(src)?)?;
    let n = src_len(src)?;
    let sigma = src_len(src)?;
    let has_grid = variant.has_grid();
    let (heavy, log_prefix) = read_heavy(src, has_grid)?;
    // The forward set reads the index-wide heavy string, the backward set
    // its reversal.
    let fwd = read_factor_set(src, Direction::Forward, Arc::clone(&heavy), has_grid)?;
    let reversed: Vec<u8> = heavy.iter().rev().copied().collect();
    let bwd = read_factor_set(src, Direction::Backward, Arc::new(reversed), has_grid)?;
    let mut tries = [None, None];
    for slot in &mut tries {
        *slot = match src_u8(src)? {
            0 => None,
            1 => Some(read_trie(src)?),
            other => return Err(bad(format!("bad trie presence flag {other}"))),
        };
    }
    let [fwd_trie, bwd_trie] = tries;
    let grid = match src_u8(src)? {
        0 => None,
        1 => Some(read_grid(src)?),
        other => return Err(bad(format!("bad grid presence flag {other}"))),
    };
    // Cross-component invariants.
    if sigma == 0 || sigma > 256 {
        return Err(bad(format!("invalid stored alphabet size {sigma}")));
    }
    if heavy.len() != n {
        return Err(bad("heavy string length does not match the stored n"));
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
        variant,
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
        construction,
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
    /// # Errors
    ///
    /// Propagates I/O errors of the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        match self {
            AnyIndex::Naive(index) => {
                write_checksummed(w, TAG_NAIVE, |vw| write_f64(vw, index.z()))
            }
            AnyIndex::Wst(index) => write_checksummed(w, TAG_WST, |vw| {
                write_f64(vw, index.z())?;
                write_property_text(vw, index.property_text_ref())?;
                write_trie(vw, index.trie_ref())
            }),
            AnyIndex::Wsa(index) => write_checksummed(w, TAG_WSA, |vw| {
                write_f64(vw, index.z())?;
                write_property_text(vw, index.property_text())
            }),
            AnyIndex::Minimizer(index) => {
                write_checksummed(w, TAG_MINIMIZER, |vw| write_minimizer_payload(vw, index))
            }
        }
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
    let (tag, mut src) = ArenaSource::open_file(arena)?;
    let index = load_index_payload(tag, &mut src)?;
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
    let (tag, mut src) = ArenaSource::open(arena, offset)?;
    let index = load_index_payload(tag, &mut src)?;
    src.expect_consumed()?;
    Ok((index, src.envelope_len))
}

fn load_index_payload(tag: u8, src: &mut ArenaSource) -> io::Result<AnyIndex> {
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
            let property_text = read_property_text(src)?;
            let trie = read_trie(src)?;
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
            let property_text = read_property_text(src)?;
            Ok(AnyIndex::Wsa(Wsa::from_loaded_parts(
                z,
                property_text,
                src.retained_arena(),
            )))
        }
        TAG_MINIMIZER => Ok(AnyIndex::Minimizer(Box::new(read_minimizer_payload(src)?))),
        other => Err(bad(format!("unknown family tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{IndexFamily, IndexSpec};
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
        // Unknown version, and versions 2, 4 and 5: refused naming the
        // version.
        for version in [0x03FF, 2u16, 4, 5] {
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
            built.variant(),
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
            built.construction(),
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
}
