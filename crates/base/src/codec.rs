//! Minimal binary encoding for persisted artifacts (bitstream-cache entries).
//!
//! Hand-rolled LEB128-style varints plus length-prefixed byte strings; small
//! enough to audit, with explicit error handling on decode. This keeps the
//! workspace free of a serde *format* dependency while still allowing the
//! bitstream cache to round-trip through disk.
//!
//! The [`frame`]/[`read_frame`] pair adds crash-consistent record framing
//! on top: each record is `[len: u32 LE][crc32(payload): u32 LE][payload]`,
//! so a reader scanning an append-only log can distinguish a *torn tail*
//! (the writer died mid-record — fewer bytes on disk than the header
//! promises) from *corruption* (all bytes present but the checksum fails)
//! and recover exactly the committed prefix. `jitise-store` builds its
//! write-ahead log on these helpers.

use crate::{Error, Result};

/// The reflected IEEE CRC32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time: `CRC32_TABLES[0][b]` is the
/// CRC register after shifting byte `b` through it, and
/// `CRC32_TABLES[k][b]` the same followed by `k` zero bytes, so eight
/// lookups advance the register by eight input bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE polynomial), table-driven eight bytes at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Byte length of a frame header (`len` + `crc`, both `u32` LE).
pub const FRAME_HEADER_LEN: usize = 8;

/// Frames `payload` as `[len][crc32(payload)][payload]` (see module docs).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of scanning one frame off the front of a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A complete, checksum-verified frame. `consumed` is the total frame
    /// size (header + payload); the next frame starts there.
    Frame {
        /// The verified payload.
        payload: &'a [u8],
        /// Bytes this frame occupied, header included.
        consumed: usize,
    },
    /// Input ended mid-frame: a writer died between starting and finishing
    /// this record. Everything before it is intact; the tail is garbage.
    TornTail,
    /// The frame is structurally complete but its payload fails the CRC
    /// (or its declared length exceeds `max_len`) — bit rot or an
    /// in-flight corruption, not a clean truncation.
    Corrupt,
    /// Clean end of input: no bytes remain.
    End,
}

/// Reads one frame from the front of `data`.
///
/// `max_len` bounds the declared payload length; anything larger is
/// reported as [`FrameRead::Corrupt`] rather than trusted (a flipped bit
/// in the length field must not drive a multi-gigabyte read).
pub fn read_frame(data: &[u8], max_len: u32) -> FrameRead<'_> {
    if data.is_empty() {
        return FrameRead::End;
    }
    if data.len() < FRAME_HEADER_LEN {
        return FrameRead::TornTail;
    }
    let len = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if len > max_len {
        return FrameRead::Corrupt;
    }
    let end = FRAME_HEADER_LEN + len as usize;
    if data.len() < end {
        return FrameRead::TornTail;
    }
    let payload = &data[FRAME_HEADER_LEN..end];
    if crc32(payload) != crc {
        return FrameRead::Corrupt;
    }
    FrameRead::Frame {
        payload,
        consumed: end,
    }
}

/// Append-only encoder.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Unsigned varint (LEB128).
    pub fn put_varu64(&mut self, mut v: u64) -> &mut Self {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return self;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// 32-bit convenience wrapper over [`Self::put_varu64`].
    pub fn put_varu32(&mut self, v: u32) -> &mut Self {
        self.put_varu64(v as u64)
    }

    /// Fixed-width little-endian u64 (used for signatures, where fixed
    /// width makes hex dumps greppable).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.put_varu64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put_bytes(s.as_bytes())
    }

    /// Finishes and returns the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// New decoder at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(Error::Codec(format!(
                "unexpected end of input: need {n} bytes at offset {} of {}",
                self.pos,
                self.data.len()
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Unsigned varint (LEB128).
    pub fn get_varu64(&mut self) -> Result<u64> {
        let mut shift = 0u32;
        let mut out = 0u64;
        loop {
            let byte = self.take(1)?[0];
            if shift >= 64 {
                return Err(Error::Codec("varint overflows u64".into()));
            }
            out |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// 32-bit varint, with range check.
    pub fn get_varu32(&mut self) -> Result<u32> {
        let v = self.get_varu64()?;
        u32::try_from(v).map_err(|_| Error::Codec(format!("varint {v} exceeds u32")))
    }

    /// Fixed-width little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("take(8)")))
    }

    /// Length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_varu64()? as usize;
        self.take(len)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))
    }

    /// True once all input is consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut enc = Encoder::new();
        for &v in &values {
            enc.put_varu64(v);
        }
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        for &v in &values {
            assert_eq!(dec.get_varu64().unwrap(), v);
        }
        assert!(dec.is_at_end());
    }

    #[test]
    fn varint_sizes() {
        let mut enc = Encoder::new();
        enc.put_varu64(127);
        assert_eq!(enc.len(), 1);
        let mut enc = Encoder::new();
        enc.put_varu64(128);
        assert_eq!(enc.len(), 2);
    }

    #[test]
    fn mixed_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_u64(0xDEAD_BEEF_CAFE_F00D)
            .put_str("bitstream")
            .put_bytes(&[1, 2, 3])
            .put_varu32(42);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.get_u64().unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(dec.get_str().unwrap(), "bitstream");
        assert_eq!(dec.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(dec.get_varu32().unwrap(), 42);
        assert!(dec.is_at_end());
    }

    #[test]
    fn truncated_input_errors() {
        let mut enc = Encoder::new();
        enc.put_str("hello");
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf[..3]);
        assert!(dec.get_str().is_err());
    }

    #[test]
    fn empty_string_and_bytes() {
        let mut enc = Encoder::new();
        enc.put_str("").put_bytes(&[]);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.get_str().unwrap(), "");
        assert_eq!(dec.get_bytes().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn varu32_range_check() {
        let mut enc = Encoder::new();
        enc.put_varu64(u64::from(u32::MAX) + 1);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        assert!(dec.get_varu32().is_err());
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes would shift past 64 bits.
        let buf = [0x80u8; 11];
        let mut dec = Decoder::new(&buf);
        assert!(dec.get_varu64().is_err());
    }

    /// The bitwise CRC32 the table-driven one replaced: the oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        let mut rng = crate::rng::SplitMix64::new(0xC3C3);
        let mut bytes = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.next_u64() as u8).collect() };
        // Every length up to eight full words, so each split between the
        // eight-byte loop and the byte tail is covered.
        for len in 0..=64 {
            for _ in 0..8 {
                let data = bytes(len);
                assert_eq!(crc32(&data), crc32_bitwise(&data), "len {len}");
            }
        }
        let big = bytes(1 << 20);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
        // An unaligned start must not matter.
        assert_eq!(crc32(&big[3..1003]), crc32_bitwise(&big[3..1003]));
    }

    #[test]
    fn frame_roundtrip() {
        let framed = frame(b"hello");
        assert_eq!(framed.len(), FRAME_HEADER_LEN + 5);
        match read_frame(&framed, 1 << 20) {
            FrameRead::Frame { payload, consumed } => {
                assert_eq!(payload, b"hello");
                assert_eq!(consumed, framed.len());
            }
            other => panic!("expected Frame, got {other:?}"),
        }
        assert_eq!(read_frame(&[], 1 << 20), FrameRead::End);
    }

    #[test]
    fn frame_every_truncation_is_a_torn_tail() {
        let framed = frame(b"payload bytes");
        for cut in 1..framed.len() {
            assert_eq!(
                read_frame(&framed[..cut], 1 << 20),
                FrameRead::TornTail,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn frame_bit_flip_is_corrupt_or_torn() {
        let framed = frame(b"sensitive");
        for byte in 0..framed.len() {
            let mut damaged = framed.clone();
            damaged[byte] ^= 0x01;
            match read_frame(&damaged, 1 << 20) {
                // A flipped length byte may make the frame look longer
                // than the input (TornTail) or oversized (Corrupt); a
                // flipped CRC/payload byte must always be Corrupt.
                FrameRead::Corrupt | FrameRead::TornTail => {}
                other => panic!("flip at {byte} yielded {other:?}"),
            }
        }
    }

    #[test]
    fn frame_oversized_length_rejected() {
        let framed = frame(b"x");
        assert_eq!(read_frame(&framed, 0), FrameRead::Corrupt);
    }
}
