//! Binary I/O for the workspace's persisted files: CRC-32 integrity hashing,
//! bounds-checked little-endian readers/writers, and the **NTRW container**
//! that checkpoints (`*.ntrw`), embedding stores (`store.ntrs`) and IVF
//! indexes (`index.ntri`) all share.
//!
//! ## The NTRW container (little-endian throughout)
//!
//! ```text
//! magic[4]  version:u32  section_count:u32
//! repeat section_count times:
//!     tag[4]  len:u64  payload[len]  crc32(payload):u32
//! b"NTRE"  crc32(every preceding byte):u32
//! ```
//!
//! This module is the only place that knows that framing, the order of the
//! integrity checks and the crash-safety sequence; `ntr-nn::serialize` and
//! `ntr-index` own nothing but their section tags and payload layouts.
//!
//! * [`write_sections`] frames `(tag, payload)` pairs to any [`Write`];
//!   [`save_sections`] does so through a sibling temp file that is flushed,
//!   `fsync`ed and renamed over the target, after which the directory is
//!   `fsync`ed so the rename itself survives power loss. A crash at any byte
//!   leaves the previous file or the new one, never a hybrid.
//! * [`read_sections`] verifies the file CRC, then the trailer, then magic
//!   and version, then each section's CRC before handing out its payload as
//!   a slice of the input. A tag may appear once; tags the caller does not
//!   ask for are skipped, which leaves room for new sections without a
//!   version bump.
//!
//! Nothing here allocates proportionally to *declared* sizes: readers hand
//! out slices of the underlying buffer and let callers validate lengths
//! before they allocate, which is what makes hostile headers harmless.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.
///
/// Detects all single-bit and all burst errors up to 32 bits, which is the
/// property the checkpoint fault-injection suite leans on: any flipped bit
/// in a section or in the file image fails its checksum.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

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

    /// Feeds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// A [`Write`] adapter that feeds every written byte through a [`Crc32`]
/// and counts bytes, so a writer can emit a trailing checksum over exactly
/// what reached the stream.
pub struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
    written: u64,
}

impl<W: Write> CrcWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
            written: 0,
        }
    }

    /// Checksum of all bytes written so far.
    pub fn crc(&self) -> u32 {
        self.crc.finish()
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwraps the inner writer (e.g. to append bytes excluded from the
    /// checksum).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Error from [`ByteReader`]: a read past the end of the buffer. Carries
/// enough context for a useful "truncated file" message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortRead {
    /// Bytes the caller asked for.
    pub needed: usize,
    /// Bytes actually remaining.
    pub remaining: usize,
}

impl std::fmt::Display for ShortRead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "truncated input: needed {} byte(s), {} remaining",
            self.needed, self.remaining
        )
    }
}

impl std::error::Error for ShortRead {}

/// Bounds-checked little-endian cursor over an in-memory buffer.
///
/// Every accessor returns [`ShortRead`] instead of panicking or allocating
/// when the buffer is shorter than a declared length, so parsers built on
/// it degrade to clean format errors on truncated or hostile input.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether the cursor consumed the whole buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes as a slice without copying.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ShortRead> {
        if n > self.remaining() {
            return Err(ShortRead {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ShortRead> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ShortRead> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Next little-endian `f32` (bit-exact, NaNs preserved).
    pub fn f32(&mut self) -> Result<f32, ShortRead> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Next `n` little-endian `f32`s. The length is validated against the
    /// remaining buffer *before* the vector is allocated, so a hostile
    /// length can not trigger a huge allocation.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, ShortRead> {
        let needed = n.checked_mul(4).ok_or(ShortRead {
            needed: usize::MAX,
            remaining: self.remaining(),
        })?;
        let bytes = self.take(needed)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect())
    }
}

const TRAILER: [u8; 4] = *b"NTRE";

/// One section to write: tag and payload.
pub type Section = ([u8; 4], Vec<u8>);

/// A fault of the container itself, found by [`read_sections`] (or by
/// [`get_str`] inside a payload). `CheckpointError` and `IndexError` each
/// convert from it with their own classification of the two kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionError {
    /// The file CRC or a section CRC does not match its bytes.
    Checksum(String),
    /// The structure is wrong: too short, bad magic/version/trailer, a
    /// declared length beyond the buffer, a repeated or missing tag.
    Malformed(String),
}

impl std::fmt::Display for SectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SectionError::Checksum(m) | SectionError::Malformed(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for SectionError {}

impl From<ShortRead> for SectionError {
    fn from(e: ShortRead) -> Self {
        SectionError::Malformed(e.to_string())
    }
}

fn tag_name(tag: [u8; 4]) -> String {
    String::from_utf8_lossy(&tag).into_owned()
}

/// Frames `sections` to `w` in the NTRW container format. Returns the
/// number of bytes written.
pub fn write_sections<W: Write>(
    w: W,
    magic: [u8; 4],
    version: u32,
    sections: &[Section],
) -> io::Result<u64> {
    let mut w = CrcWriter::new(w);
    w.write_all(&magic)?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&(sections.len() as u32).to_le_bytes())?;
    for (tag, payload) in sections {
        w.write_all(tag)?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(payload)?;
        w.write_all(&crc32(payload).to_le_bytes())?;
    }
    w.write_all(&TRAILER)?;
    let file_crc = w.crc();
    let bytes = w.written() + 4;
    w.into_inner().write_all(&file_crc.to_le_bytes())?;
    Ok(bytes)
}

/// What a crash-safe save cost: the file size and the time spent in the
/// durability syscalls (file fsync, rename, directory fsync).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveStats {
    /// Bytes written to the file.
    pub bytes: u64,
    /// Wall time of the fsync/rename/dir-fsync tail, in milliseconds.
    pub fsync_ms: u64,
}

/// Writes `sections` to `path` crash-safely (see the module docs). On
/// failure the temp file is removed and `path` is untouched.
pub fn save_sections(
    path: &Path,
    magic: [u8; 4],
    version: u32,
    sections: &[Section],
) -> io::Result<SaveStats> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| -> io::Result<SaveStats> {
        let mut bw = io::BufWriter::new(std::fs::File::create(&tmp)?);
        let bytes = write_sections(&mut bw, magic, version, sections)?;
        bw.flush()?;
        let sync_start = std::time::Instant::now();
        bw.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(SaveStats {
            bytes,
            fsync_ms: sync_start.elapsed().as_millis() as u64,
        })
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The verified sections of one container image, borrowed from it.
#[derive(Debug)]
pub struct Sections<'a> {
    sections: BTreeMap<[u8; 4], &'a [u8]>,
}

impl<'a> Sections<'a> {
    /// The payload of `tag`, if the file has that section.
    pub fn get(&self, tag: [u8; 4]) -> Option<&'a [u8]> {
        self.sections.get(&tag).copied()
    }

    /// The payload of a section the format requires.
    pub fn require(&self, tag: [u8; 4]) -> Result<&'a [u8], SectionError> {
        self.get(tag)
            .ok_or_else(|| SectionError::Malformed(format!("missing section {}", tag_name(tag))))
    }
}

/// Parses and verifies a container image held in memory. Every malformed
/// input — including every truncation prefix and every bit flip — yields a
/// [`SectionError`], never a panic and never an allocation sized by a
/// declared length.
pub fn read_sections(
    bytes: &[u8],
    magic: [u8; 4],
    version: u32,
) -> Result<Sections<'_>, SectionError> {
    // Header (12) + trailer tag (4) + file CRC (4) is the empty-file floor.
    if bytes.len() < 20 {
        return Err(SectionError::Malformed(format!(
            "file too short: {} byte(s)",
            bytes.len()
        )));
    }
    let (body, stored) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != ByteReader::new(stored).u32()? {
        return Err(SectionError::Checksum(
            "file CRC mismatch (truncated or corrupted file)".into(),
        ));
    }
    let (framed, trailer) = body.split_at(body.len() - 4);
    if trailer != TRAILER {
        return Err(SectionError::Malformed("missing NTRE trailer".into()));
    }
    let mut r = ByteReader::new(framed);
    let got_magic = r.take(4)?;
    if got_magic != magic {
        return Err(SectionError::Malformed(format!(
            "bad magic {got_magic:?}, expected {magic:?}"
        )));
    }
    let got_version = r.u32()?;
    if got_version != version {
        return Err(SectionError::Malformed(format!(
            "unsupported version {got_version}, expected {version}"
        )));
    }
    let count = r.u32()?;
    let mut sections = BTreeMap::new();
    for i in 0..count {
        let t = r.take(4)?;
        let tag = [t[0], t[1], t[2], t[3]];
        let len = r.u64()?;
        if len > r.remaining() as u64 {
            return Err(SectionError::Malformed(format!(
                "section {i} declares {len} byte(s) but only {} remain",
                r.remaining()
            )));
        }
        let payload = r.take(len as usize)?;
        if crc32(payload) != r.u32()? {
            return Err(SectionError::Checksum(format!(
                "section {i} ({}) CRC mismatch",
                tag_name(tag)
            )));
        }
        if sections.insert(tag, payload).is_some() {
            return Err(SectionError::Malformed(format!(
                "section {} appears more than once",
                tag_name(tag)
            )));
        }
    }
    if !r.is_empty() {
        return Err(SectionError::Malformed(format!(
            "{} trailing byte(s) after the last section",
            r.remaining()
        )));
    }
    Ok(Sections { sections })
}

/// Appends a length-prefixed UTF-8 string (u32 length + bytes).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string written by [`put_str`].
pub fn get_str(r: &mut ByteReader<'_>) -> Result<String, SectionError> {
    let len = r.u32()? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|e| SectionError::Malformed(format!("non-UTF8 string: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_incremental_equals_oneshot() {
        let mut h = Crc32::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), crc32(b"hello world"));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let base = b"the quick brown fox".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupt = base.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), reference, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn crc_writer_tracks_bytes_and_crc() {
        let mut w = CrcWriter::new(Vec::new());
        w.write_all(b"123456789").unwrap();
        assert_eq!(w.written(), 9);
        assert_eq!(w.crc(), 0xCBF4_3926);
        assert_eq!(w.into_inner(), b"123456789");
    }

    #[test]
    fn byte_reader_reads_and_bounds_checks() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert!(r.is_empty());
        let err = r.u32().unwrap_err();
        assert_eq!(err.needed, 4);
        assert_eq!(err.remaining, 0);
    }

    #[test]
    fn byte_reader_rejects_hostile_lengths_without_allocating() {
        let buf = [0u8; 8];
        let mut r = ByteReader::new(&buf);
        // A declared length of u32::MAX f32s would be a 16 GiB allocation if
        // trusted; the reader refuses before allocating.
        assert!(r.f32s(u32::MAX as usize).is_err());
        // Overflow-safe even at usize::MAX.
        assert!(r.clone().f32s(usize::MAX).is_err());
        assert_eq!(r.remaining(), 8, "failed read consumes nothing");
    }

    #[test]
    fn f32_bits_roundtrip_including_nan() {
        let vals = [0.0f32, -0.0, 1.0, f32::NAN, f32::INFINITY, f32::MIN];
        let mut buf = Vec::new();
        for v in vals {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let mut r = ByteReader::new(&buf);
        for v in vals {
            assert_eq!(r.f32().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn sections_round_trip_and_reject_lengths_beyond_the_buffer() {
        let mut name = Vec::new();
        put_str(&mut name, "héllo");
        let sections = [(*b"AAAA", name), (*b"BBBB", Vec::new())];
        let mut image = Vec::new();
        let written = write_sections(&mut image, *b"TEST", 3, &sections).unwrap();
        assert_eq!(written, image.len() as u64);

        let read = read_sections(&image, *b"TEST", 3).unwrap();
        let mut r = ByteReader::new(read.require(*b"AAAA").unwrap());
        assert_eq!(get_str(&mut r).unwrap(), "héllo");
        assert_eq!(read.get(*b"BBBB"), Some(&[][..]));
        assert_eq!(read.get(*b"CCCC"), None);
        assert!(matches!(
            read.require(*b"CCCC"),
            Err(SectionError::Malformed(_))
        ));
        assert!(matches!(
            read_sections(&image, *b"TEST", 4),
            Err(SectionError::Malformed(_))
        ));

        // Declare the first section (length field at 12 + 4) longer than the
        // file and re-seal the file CRC, so the length check itself is what
        // rejects it.
        let mut hostile = image.clone();
        hostile[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let body = hostile.len() - 4;
        let crc = crc32(&hostile[..body]);
        hostile[body..].copy_from_slice(&crc.to_le_bytes());
        match read_sections(&hostile, *b"TEST", 3) {
            Err(SectionError::Malformed(m)) => assert!(m.contains("declares"), "{m}"),
            other => panic!("expected a length error, got {other:?}"),
        }
        // Without the re-seal the same edit is a checksum fault.
        let mut flipped = image;
        flipped[16] ^= 1;
        assert!(matches!(
            read_sections(&flipped, *b"TEST", 3),
            Err(SectionError::Checksum(_))
        ));
    }
}
