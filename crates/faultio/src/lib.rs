//! Durability I/O primitives shared by the persistence and WAL layers.
//!
//! Four pieces, all std-only:
//!
//! * a hand-rolled **CRC32** (IEEE 802.3, the polynomial used by zip/png)
//!   with incremental hashing, so every on-disk format can carry a
//!   checksum trailer. There are no stream adapters: every format encodes
//!   into one buffer, or reads a whole file, and checksums that slice once;
//! * the [`DurableSink`] abstraction — `Write` plus an explicit
//!   [`sync`](DurableSink::sync) barrier — that all durability I/O is
//!   routed through, so tests can substitute a scripted fault device for
//!   a real file;
//! * [`SimSink`], an in-memory sink driven by a [`FaultPlan`]: full disks
//!   (ENOSPC), torn writes, device crashes after N bytes, and failing
//!   fsyncs, each surfaced as the same typed `io::Error` a real kernel
//!   would return. The bytes that "survived" are inspectable afterwards,
//!   which is what the crash-recovery property tests replay from;
//! * [`mutate`], the seeded mutation sweeps of the corruption suites:
//!   byte flips and boundary-value word overwrites with every CRC32
//!   re-sealed, or every one of them at every offset of an unchecksummed
//!   frame, run under one watchdog.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod mutate;

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// The reflected IEEE CRC32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables for [`CRC32_POLY`], built at compile time.
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; table `k`
/// advances a byte that is `k` positions deeper in an 8-byte block, so
/// [`Crc32::update`] can fold 8 input bytes per step instead of 1 —
/// roughly 4–5× the throughput, which matters now that arena opens
/// checksum a whole multi-megabyte file in one slice pass. The produced
/// checksum is bit-identical to the byte-at-a-time one.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Incremental CRC32 (IEEE) hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut bytes = bytes;
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 128 && pclmul::available() {
            let folded = bytes.len() & !63;
            self.state = pclmul::fold(self.state, &bytes[..folded]);
            bytes = &bytes[folded..];
        }
        let t = &CRC32_TABLES;
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            state = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
        }
        self.state = state;
    }

    /// The checksum over everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC32 (IEEE) of one byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finish()
}

/// Carry-less-multiplication CRC32 folding (x86-64 `PCLMULQDQ`).
///
/// The table path above tops out near 1.5 GB/s, which made the whole-file
/// checksum the dominant cost of a zero-copy arena open. This module folds
/// 64 input bytes per iteration with the classic 4×128-bit reduction
/// (folding constants `x^(512±32) mod P`, `x^(128±32) mod P`, then a
/// Barrett reduction back to 32 bits) and runs an order of magnitude
/// faster. It is only entered when the CPU reports `pclmulqdq`+`sse4.1`
/// at runtime and only for whole 64-byte blocks; remainders stay on the
/// table path, and the result is bit-identical (asserted across lengths
/// and splits in the tests below).
///
/// This is the one spot in the workspace allowed to use `unsafe`: the
/// intrinsics read 16-byte lanes from a bounds-checked slice and touch no
/// memory beyond it, and the `target_feature` contract is discharged by
/// the runtime detection in [`available`](pclmul::available).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// `true` when the running CPU can execute [`fold`]. The detection
    /// macro caches its cpuid probe, so this is a relaxed atomic load.
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Advances the (pre-inverted) CRC32 state over `bytes`, whose length
    /// must be a non-zero multiple of 64. Callers must have checked
    /// [`available`] first.
    #[inline]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> u32 {
        debug_assert!(!bytes.is_empty() && bytes.len().is_multiple_of(64));
        // SAFETY: `available()` was checked by the caller, so the CPU
        // supports every intrinsic `fold_impl` was compiled for.
        unsafe { fold_impl(state, bytes) }
    }

    /// Loads the 16-byte lane at `bytes[offset..offset + 16]`.
    ///
    /// # Safety
    ///
    /// Caller guarantees `offset + 16 <= bytes.len()`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn lane(bytes: &[u8], offset: usize) -> __m128i {
        debug_assert!(offset + 16 <= bytes.len());
        unsafe { _mm_loadu_si128(bytes.as_ptr().add(offset).cast()) }
    }

    /// # Safety
    ///
    /// Caller guarantees `pclmulqdq` and `sse4.1` support and the length
    /// contract of [`fold`].
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold_impl(state: u32, bytes: &[u8]) -> u32 {
        // Folding constants for the reflected IEEE polynomial (the same
        // ones every PCLMUL CRC32 uses, going back to Gopal et al.'s
        // whitepaper): x^(4·128+32), x^(4·128−32), x^(128+32), x^(128−32)
        // mod P, the 64→32 fold constant, and the Barrett pair (P, µ).
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0xccaa_009e, 0x1_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        let poly_mu = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let low32 = _mm_setr_epi32(-1, 0, 0, 0);
        let low32s = _mm_setr_epi32(-1, 0, -1, 0);

        let mut x1 = _mm_xor_si128(lane(bytes, 0), _mm_cvtsi32_si128(state as i32));
        let mut x2 = lane(bytes, 16);
        let mut x3 = lane(bytes, 32);
        let mut x4 = lane(bytes, 48);

        // Fold the running 512-bit remainder over each further 64 bytes.
        let mut offset = 64;
        while offset < bytes.len() {
            let fold = |x: __m128i, data: __m128i| {
                _mm_xor_si128(
                    _mm_xor_si128(
                        _mm_clmulepi64_si128(x, k1k2, 0x00),
                        _mm_clmulepi64_si128(x, k1k2, 0x11),
                    ),
                    data,
                )
            };
            x1 = fold(x1, lane(bytes, offset));
            x2 = fold(x2, lane(bytes, offset + 16));
            x3 = fold(x3, lane(bytes, offset + 32));
            x4 = fold(x4, lane(bytes, offset + 48));
            offset += 64;
        }

        // Fold the four 128-bit lanes into one.
        let merge = |acc: __m128i, x: __m128i| {
            _mm_xor_si128(
                _mm_xor_si128(
                    _mm_clmulepi64_si128(acc, k3k4, 0x00),
                    _mm_clmulepi64_si128(acc, k3k4, 0x11),
                ),
                x,
            )
        };
        x1 = merge(x1, x2);
        x1 = merge(x1, x3);
        x1 = merge(x1, x4);

        // 128 → 64 bits.
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
        let high = _mm_srli_si128(x1, 4);
        x1 = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
            high,
        );

        // Barrett reduction 64 → 32 bits.
        let t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32s), poly_mu, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32s), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1) as u32
    }
}

/// A sink durable appends are routed through: sequential writes plus an
/// explicit [`sync`](DurableSink::sync) barrier (fsync on a real file).
///
/// The WAL holds one of these; production code hands it a
/// [`std::fs::File`], the fault-injection tests hand it a [`SimSink`].
pub trait DurableSink: Write + Send {
    /// Forces everything written so far to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

impl DurableSink for std::fs::File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Scripted failures for a [`SimSink`]. All limits are byte offsets into
/// (or ordinals of operations on) the sink's lifetime; `None` disables
/// that fault.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Device capacity in bytes: the write that would exceed it is torn
    /// at the boundary and every later write fails with
    /// [`io::ErrorKind::StorageFull`] (ENOSPC). The device stays alive.
    pub disk_capacity: Option<u64>,
    /// Byte offset at which the device crashes: the write reaching it is
    /// torn there, and every later write *and* sync fails. Models power
    /// loss mid-write.
    pub crash_at: Option<u64>,
    /// 0-based ordinal of the first `sync` call that fails (it and every
    /// later one return an error).
    pub fail_sync_from: Option<u64>,
}

/// An in-memory [`DurableSink`] executing a [`FaultPlan`]. The bytes the
/// "device" retained are shared through an `Arc` so a test can inspect
/// what survived after the sink was moved into a WAL.
#[derive(Debug)]
pub struct SimSink {
    media: Arc<Mutex<Vec<u8>>>,
    plan: FaultPlan,
    written: u64,
    syncs: u64,
    crashed: bool,
}

impl SimSink {
    /// A sink with no scripted faults (a plain in-memory device).
    pub fn healthy() -> Self {
        Self::new(FaultPlan::default())
    }

    /// A sink executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            media: Arc::new(Mutex::new(Vec::new())),
            plan,
            written: 0,
            syncs: 0,
            crashed: false,
        }
    }

    /// Shared handle to the surviving bytes; clone it *before* moving the
    /// sink into a WAL.
    pub fn media(&self) -> Arc<Mutex<Vec<u8>>> {
        Arc::clone(&self.media)
    }

    /// Snapshot of the surviving bytes.
    pub fn contents(&self) -> Vec<u8> {
        self.media.lock().expect("sim media lock").clone()
    }

    /// Sync calls observed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    fn crash_error() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "simulated device crash")
    }

    fn enospc_error() -> io::Error {
        io::Error::new(io::ErrorKind::StorageFull, "simulated full disk")
    }
}

impl Write for SimSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        // The crash offset tears the write that reaches it and then kills
        // the device; a full disk tears at the capacity boundary but the
        // device stays alive (later writes fail with ENOSPC, not a crash).
        if let Some(crash_at) = self.plan.crash_at {
            let room = crash_at.saturating_sub(self.written);
            if (buf.len() as u64) > room {
                let accepted = room as usize;
                self.media
                    .lock()
                    .expect("sim media lock")
                    .extend_from_slice(&buf[..accepted]);
                self.written += accepted as u64;
                self.crashed = true;
                return if accepted > 0 {
                    Ok(accepted)
                } else {
                    Err(Self::crash_error())
                };
            }
        }
        if let Some(capacity) = self.plan.disk_capacity {
            let room = capacity.saturating_sub(self.written);
            if (buf.len() as u64) > room {
                let accepted = room as usize;
                self.media
                    .lock()
                    .expect("sim media lock")
                    .extend_from_slice(&buf[..accepted]);
                self.written += accepted as u64;
                return if accepted > 0 {
                    Ok(accepted)
                } else {
                    Err(Self::enospc_error())
                };
            }
        }
        self.media
            .lock()
            .expect("sim media lock")
            .extend_from_slice(buf);
        self.written += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl DurableSink for SimSink {
    fn sync(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        let ordinal = self.syncs;
        self.syncs += 1;
        if self.plan.fail_sync_from.is_some_and(|k| ordinal >= k) {
            return Err(io::Error::other("simulated fsync failure"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answer() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_update_matches_bytewise_at_every_length_and_split() {
        // The slicing-by-8 fast path must be bit-identical to the plain
        // byte-at-a-time recurrence for every block/remainder mix.
        let data: Vec<u8> = (0u32..257)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            let mut bytewise = 0xFFFF_FFFFu32;
            for &b in &data[..len] {
                bytewise =
                    (bytewise >> 8) ^ CRC32_TABLES[0][((bytewise ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&data[..len]), bytewise ^ 0xFFFF_FFFF, "len {len}");
            // Split incrementally at an odd boundary.
            let mut hasher = Crc32::new();
            let cut = len / 3;
            hasher.update(&data[..cut]);
            hasher.update(&data[cut..len]);
            assert_eq!(hasher.finish(), crc32(&data[..len]), "split at {cut}/{len}");
        }
    }

    #[test]
    fn clmul_fold_matches_bytewise_on_large_buffers() {
        // Block sizes that straddle the 128-byte hardware-fold threshold,
        // 64-byte block boundaries, and multi-KB buffers; xorshift content
        // so no byte pattern is special.
        let mut state = 0x9E37_79B9u64;
        let data: Vec<u8> = (0..40_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for len in [
            0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 1000, 4096, 4097, 39_999, 40_000,
        ] {
            let mut bytewise = 0xFFFF_FFFFu32;
            for &b in &data[..len] {
                bytewise =
                    (bytewise >> 8) ^ CRC32_TABLES[0][((bytewise ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&data[..len]), bytewise ^ 0xFFFF_FFFF, "len {len}");
            // A split mid-buffer must land on the same value whether the
            // halves hit the hardware fold, the table path, or both.
            for cut in [0, 1, 64, 100, len / 2, len.saturating_sub(65), len] {
                let mut hasher = Crc32::new();
                hasher.update(&data[..cut.min(len)]);
                hasher.update(&data[cut.min(len)..len]);
                assert_eq!(hasher.finish(), crc32(&data[..len]), "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut hasher = Crc32::new();
        for chunk in data.chunks(7) {
            hasher.update(chunk);
        }
        assert_eq!(hasher.finish(), crc32(data));
    }

    #[test]
    fn sim_sink_full_disk_tears_then_refuses() {
        let mut sink = SimSink::new(FaultPlan {
            disk_capacity: Some(10),
            ..Default::default()
        });
        assert_eq!(sink.write(&[1u8; 6]).unwrap(), 6);
        // The write crossing the boundary is torn at it.
        assert_eq!(sink.write(&[2u8; 6]).unwrap(), 4);
        let err = sink.write(&[3u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // The device is alive: what landed is readable and syncable.
        assert_eq!(sink.contents().len(), 10);
        sink.sync().unwrap();
    }

    #[test]
    fn sim_sink_crash_kills_everything_after_offset() {
        let media;
        {
            let mut sink = SimSink::new(FaultPlan {
                crash_at: Some(5),
                ..Default::default()
            });
            media = sink.media();
            assert_eq!(sink.write(&[9u8; 3]).unwrap(), 3);
            assert_eq!(sink.write(&[9u8; 3]).unwrap(), 2);
            assert!(sink.write(&[9u8; 1]).is_err());
            assert!(sink.sync().is_err());
        }
        assert_eq!(media.lock().unwrap().len(), 5);
    }

    #[test]
    fn sim_sink_fsync_failure_is_scripted_by_ordinal() {
        let mut sink = SimSink::new(FaultPlan {
            fail_sync_from: Some(2),
            ..Default::default()
        });
        sink.write_all(b"abc").unwrap();
        sink.sync().unwrap();
        sink.sync().unwrap();
        assert!(sink.sync().is_err());
        assert!(sink.sync().is_err());
    }
}
