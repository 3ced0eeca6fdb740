//! A lossless codec for FP32 tensors at rest: the sign/exponent plane
//! coded, each lower byte plane kept at the width its block uses.
//!
//! Optimizer state (parameters, Adam's two moments) is FP32 words whose low
//! three bytes are noise — ≈ 8 bits of entropy each — while the high byte
//! (the sign and the top seven exponent bits) of the words in one region of
//! a tensor takes few values: on the benchmark's state its order-0 entropy
//! per block measures 2.55 bits for parameters, 3.1 for the first moment
//! and 2.8 for the second. So the one byte worth coding is the high byte,
//! and each block codes it with the index width that suits it: `k` bits
//! per word for its `2^k − 1` most frequent high bytes, and one byte more
//! for each word whose high byte is not among them. On that state the best
//! width costs 3.2–3.7 bits per word, within a bit of the entropy, at a
//! cost per byte that vectorizes.
//!
//! Gradients are another matter. FP32 gradients upcast from FP16 (the eager
//! accumulators of ZeRO-3 and of every configuration that writes gradients
//! to a tier) carry FP16's 10-bit mantissa in the top of FP32's 23: the low
//! 13 bits of every word are zero, so byte 0 holds nothing and byte 1 three
//! bits (BF16-born words have their low 16 bits zero). So each block also
//! stores each lower byte plane at its significant width: a plane whose low
//! `z` bits are zero in every word of the block keeps its `8 − z` high bits
//! as bit planes, and an all-zero plane costs nothing. A gradient object of
//! one FP16 micro-step codes to ≈ 0.46 of raw; on state every plane is full
//! width, stored as it is, and pays three bytes a block for saying so.
//!
//! # Frame
//!
//! ```text
//! frame  = "MLz3" · raw_len (u32 LE) · block*       (strictly shorter than raw_len)
//! block  = 0 · the block's 4·w bytes as they are
//!        | k · z0 z1 z2 · plane0 · plane1 · plane2 · table[2^k − 1]
//!            · index[k][⌈w/8⌉] · escape[n]           (k ∈ 1..=4)
//! plane  = byte[w]                                   (z = 0)
//!        | bits[8 − z][⌈w/8⌉]                        (z ∈ 1..=8)
//! ```
//!
//! The object is cut into blocks of [`BLOCK_WORDS`] little-endian words (the
//! last one shorter). Byte `i` of every word goes to byte plane `i`; the
//! high byte (byte 3) is coded. Plane `i`'s width byte `z_i` is the number
//! of trailing zeros of the OR of its bytes over the block (8 when all are
//! zero): the plane is stored as its `w` bytes when `z_i = 0`, and
//! otherwise as the `8 − z_i` bit planes of `byte >> z_i`, the lowest bit
//! first, in the index's layout below. Where bit planes would not be
//! shorter than the bytes (a block of a few words), the encoder writes
//! `z_i = 0`. A coded block then picks the index width `k` that
//! makes it shortest, as estimated from every eighth word's high byte
//! (every word's in blocks under 1 Ki words). Its table holds the
//! `2^k − 1` high bytes that occur most often, most frequent first, and
//! each word's high byte becomes its index in the table, or the all-ones
//! escape index. The indices are stored as `k` bit planes of `p = ⌈w/8⌉`
//! bytes, the lowest bit first: word `s·p + j` is bit `s` of byte `j` of
//! each plane, so packing and unpacking are contiguous loops over `j`, one
//! per `s`; the bits past the last word are zero. The escaped words' high
//! bytes follow, one byte each, in word order: their positions are the
//! words whose index is all ones, and their count is the population count
//! of the planes' AND. A block that would not shrink is stored raw, and an
//! object whose frame would not be strictly shorter than itself is not
//! framed at all ([`encode`] returns `None`): a frame never grows an
//! object, and a reader that knows an object's raw length tells a frame
//! from a raw object by its length alone. Objects whose length is not a
//! whole number of words, or is zero, are always left raw.
//!
//! A header of the same family in another version (`"MLz"` and another
//! fourth byte, with a raw length that would otherwise pass) is refused
//! with [`CodecError::Version`] by [`framed_len`] and [`decode`], so an
//! object an older build wrote (`MLz1`, `MLz2`) is never taken for raw
//! bytes.
//!
//! # Kernels
//!
//! [`encode`] and [`decode`] run their bodies ([`encode_body`],
//! [`decode_body`]) at the host's vector width ([`crate::at_host_width`]),
//! like the conversion kernels. No loop looks a word up in a table. The
//! plane split (which ORs the words as it goes) and merge are element
//! loops; a word's index is a compare-and-select over the table's bytes,
//! and a high byte a compare-and-mask over the indices; the index's and the
//! narrow byte planes' bit planes pack and unpack by one compare-and-mask
//! kernel each, and the escape bitmap is gathered from the planes' AND
//! eight bytes per multiply. All of these vectorize; the decoder runs them
//! 64 words at a time, so a block's indices, high bytes and narrow planes
//! never leave registers. The escapes themselves cost a scalar step each,
//! 64 words per bitmap word, and the histogram that picks the table is
//! scalar. Every width produces the portable frame and the portable words,
//! bit for bit. Decoding validates the frame as it goes: a truncated or
//! corrupted frame is a [`CodecError`], never a panic and never a read out
//! of bounds. Integrity is not the codec's job — a checksum below it covers
//! the frame.

use std::fmt;

use crate::at_host_width;

/// Words per block: 64 KiB of raw state, which keeps a block's histogram,
/// planes and output in a core's L2 while it is coded.
pub const BLOCK_WORDS: usize = 16 * 1024;

/// What a frame starts with: the codec's family and its version.
const FAMILY: [u8; 3] = *b"MLz";
const VERSION: u8 = b'3';
/// Magic plus the raw length.
const HEADER: usize = 8;
/// The widest index: a table of 15 high bytes.
const MAX_WIDTH: u8 = 4;
const TABLE: usize = (1 << MAX_WIDTH) - 1;
const RAW: u8 = 0;

/// Why a frame did not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes do not start with a frame header that declares a raw
    /// length longer than the frame and a whole number of words.
    NotAFrame,
    /// The header is the codec's, of another version than this build reads
    /// and writes: the byte after `MLz`.
    Version(u8),
    /// The frame decodes to `raw` bytes but the destination holds `dst`.
    LengthMismatch {
        /// The raw length the frame declares.
        raw: usize,
        /// The destination's length.
        dst: usize,
    },
    /// The frame ends inside a block.
    Truncated,
    /// A block's tag or an index bit past its last word is not one an
    /// encoder writes, or bytes follow the last block.
    Corrupt,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::NotAFrame => f.write_str("not a codec frame"),
            CodecError::Version(v) => write!(
                f,
                "codec frame of version {:?}, this build reads {:?}",
                char::from(*v),
                char::from(VERSION)
            ),
            CodecError::LengthMismatch { raw, dst } => {
                write!(f, "codec frame of {raw} raw bytes, destination holds {dst}")
            }
            CodecError::Truncated => f.write_str("codec frame truncated inside a block"),
            CodecError::Corrupt => f.write_str("codec frame corrupt"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The raw length `frame` declares, if it starts with a frame header: the
/// magic, and a length that is a whole number of words and longer than
/// `frame` itself. A raw object of known length `n` that reads back shorter
/// than `n` is a frame exactly when this is `Ok(Some(n))`.
///
/// # Errors
///
/// [`CodecError::Version`] for a header of this codec's family in another
/// version.
pub fn framed_len(frame: &[u8]) -> Result<Option<usize>, CodecError> {
    let Some((&[m0, m1, m2, version, l0, l1, l2, l3], _)) = frame.split_first_chunk::<HEADER>()
    else {
        return Ok(None);
    };
    let raw = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if [m0, m1, m2] != FAMILY || !raw.is_multiple_of(4) || raw <= frame.len() {
        return Ok(None);
    }
    if version != VERSION {
        return Err(CodecError::Version(version));
    }
    Ok(Some(raw))
}

/// Encodes `src` into the front of `dst` at the host's vector width and
/// returns the frame's length, which is less than `src.len()`; `None` when
/// the object stays raw: its length is zero, not a multiple of four or
/// above `u32::MAX`, it does not code shorter, or `dst` is too short for
/// the frame. `dst`'s bytes past the frame are unspecified afterwards.
pub fn encode(src: &[u8], dst: &mut [u8]) -> Option<usize> {
    at_host_width(
        #[inline(always)]
        || encode_body(src, dst),
    )
}

/// Decodes `frame` into `dst`, which must be exactly the raw length the
/// frame declares, at the host's vector width.
///
/// # Errors
///
/// [`CodecError`] when `frame` is not a whole, well-formed frame of
/// `dst.len()` raw bytes; `dst` holds unspecified bytes then.
pub fn decode(frame: &[u8], dst: &mut [u8]) -> Result<(), CodecError> {
    at_host_width(
        #[inline(always)]
        || decode_body(frame, dst),
    )
}

/// [`encode`]'s body, at its caller's vector width (see the
/// [inlining contract](crate::simd#the-inlining-contract)).
#[inline(always)]
pub fn encode_body(src: &[u8], dst: &mut [u8]) -> Option<usize> {
    let (words, []) = src.as_chunks::<4>() else {
        return None;
    };
    let [l0, l1, l2, l3] = u32::try_from(src.len()).ok()?.to_le_bytes();
    // A frame is strictly shorter than its object: stop before the end.
    let room = dst.len().min(src.len().checked_sub(1)?);
    let (head, mut out) = dst.get_mut(..room)?.split_at_mut_checked(HEADER)?;
    let [m0, m1, m2] = FAMILY;
    head.copy_from_slice(&[m0, m1, m2, VERSION, l0, l1, l2, l3]);
    let mut used = HEADER;
    let mut scratch = Scratch::new();
    for block in words.chunks(BLOCK_WORDS) {
        let n = encode_block(block, out, &mut scratch)?;
        out = std::mem::take(&mut out).split_at_mut_checked(n)?.1;
        used += n;
    }
    Some(used)
}

/// [`decode`]'s body, at its caller's vector width.
///
/// # Errors
///
/// As [`decode`].
#[inline(always)]
pub fn decode_body(frame: &[u8], dst: &mut [u8]) -> Result<(), CodecError> {
    let raw = framed_len(frame)?.ok_or(CodecError::NotAFrame)?;
    if raw != dst.len() {
        let dst = dst.len();
        return Err(CodecError::LengthMismatch { raw, dst });
    }
    let mut src = frame.get(HEADER..).ok_or(CodecError::Truncated)?;
    let mut escapes = Escapes::new();
    for block in dst.as_chunks_mut::<4>().0.chunks_mut(BLOCK_WORDS) {
        src = decode_block(src, block, &mut escapes)?;
    }
    match src {
        [] => Ok(()),
        _ => Err(CodecError::Corrupt),
    }
}

/// The planes the encoder passes a block's coded byte through, on the
/// stack: its high bytes and its indices, one byte per word, and its
/// escapes.
struct Scratch {
    high: [u8; BLOCK_WORDS],
    index: [u8; BLOCK_WORDS],
    escapes: Escapes,
}

impl Scratch {
    #[inline(always)]
    fn new() -> Self {
        Scratch {
            high: [0; BLOCK_WORDS],
            index: [0; BLOCK_WORDS],
            escapes: Escapes::new(),
        }
    }
}

/// One bit per byte of a little-endian `u64`, at each byte's bottom.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;
/// Multiplies the bottom bits of a `u64`'s eight bytes into its top byte,
/// byte `t`'s at bit `56 + t`.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// A block's escape bitmap and the AND of its bit planes it is gathered
/// from (see [`Escapes::gather`]), on the stack.
struct Escapes {
    and: [u8; BLOCK_WORDS / 8],
    bits: [u8; BLOCK_WORDS / 8],
}

impl Escapes {
    #[inline(always)]
    fn new() -> Self {
        Escapes {
            and: [0; BLOCK_WORDS / 8],
            bits: [0; BLOCK_WORDS / 8],
        }
    }

    /// Gathers the escape bitmap of a block's `p`-byte bit planes, in word
    /// order row by row: bit `t` of byte `q` of row `s` is set where word
    /// `s·p + 8q + t` has the all-ones index. Returns the bytes per row
    /// ([`Escapes::rows`]), a whole number of `u64`s, and the number of
    /// escapes.
    #[inline(always)]
    fn gather(&mut self, planes: &[u8], p: usize) -> Option<(usize, usize)> {
        let lanes = p.div_ceil(8);
        let stride = lanes.next_multiple_of(8);
        let and = self.and.get_mut(..8 * lanes)?;
        let (ones, pad) = and.split_at_mut_checked(p)?;
        ones.fill(0xFF);
        pad.fill(0);
        for plane in planes.chunks_exact(p) {
            for (a, &b) in ones.iter_mut().zip(plane) {
                *a &= b;
            }
        }
        let and = and.as_chunks::<8>().0;
        for (s, row) in (0..8).zip(self.bits.get_mut(..8 * stride)?.chunks_exact_mut(stride)) {
            let (row, pad) = row.split_at_mut_checked(lanes)?;
            pad.fill(0);
            for (o, lane) in row.iter_mut().zip(and) {
                *o = (((u64::from_le_bytes(*lane) >> s) & LOW_BITS).wrapping_mul(GATHER) >> 56)
                    as u8;
            }
        }
        let count = and
            .iter()
            .map(|&lane| u64::from_le_bytes(lane).count_ones() as usize);
        Some((stride, count.sum()))
    }

    /// The eight rows of the bitmap, `stride` bytes each.
    #[inline(always)]
    fn rows(&self, stride: usize) -> Option<std::slice::ChunksExact<'_, u8>> {
        Some(self.bits.get(..8 * stride)?.chunks_exact(stride))
    }
}

/// Blocks shorter than this count every word's high byte.
const SAMPLED_FROM: usize = 1024;

/// How often each high byte occurs among every eighth word of a block —
/// on state, a sample of up to 2 Ki words codes within 0.01 % of the frame
/// a sample twice its size picks, at half its cost; a short block counts
/// every word. Four interleaved histograms:
/// runs of one value (the common case) would otherwise wait on the
/// previous increment of the same counter.
#[inline(always)]
fn sampled_histogram(high: &[u8]) -> [u32; 256] {
    let mut four = [[0u32; 256]; 4];
    let bump = |hist: &mut [u32; 256], h: u8| {
        if let Some(count) = hist.get_mut(usize::from(h)) {
            *count += 1;
        }
    };
    let [h0, h1, h2, h3] = &mut four;
    let (runs, rest) = high.as_chunks::<32>();
    if high.len() < SAMPLED_FROM {
        for &h in high {
            bump(h0, h);
        }
    } else {
        for run in runs {
            let [a, _, _, _, _, _, _, _, b, _, _, _, _, _, _, _, c, _, _, _, _, _, _, _, d, ..] =
                *run;
            bump(h0, a);
            bump(h1, b);
            bump(h2, c);
            bump(h3, d);
        }
        for &h in rest.iter().step_by(8) {
            bump(h0, h);
        }
    }
    for (((t, &b), &c), &d) in h0.iter_mut().zip(&*h1).zip(&*h2).zip(&*h3) {
        *t += b + c + d;
    }
    *h0
}

/// A block's table for the widest index and the index width that codes it
/// shortest: the 15 high bytes that occur most often, most frequent first
/// (ties to the smaller byte, so the order is the same however it is
/// selected), of which a width `k` uses the first `2^k − 1`. The width
/// minimises the estimated block: `k` bits per word, its table, and one
/// byte per word the table misses — ties to the narrower width.
#[inline(always)]
fn table_of(hist: &[u32; 256], words: usize) -> ([u8; TABLE], u8) {
    // count · 256 + (255 − byte): a total order, largest first.
    let mut keys = [0u32; 256];
    for ((key, &count), byte) in keys.iter_mut().zip(hist).zip(0u32..) {
        *key = count << 8 | (255 - byte);
    }
    keys.select_nth_unstable_by(TABLE - 1, |a, b| b.cmp(a));
    let mut top = [0u32; TABLE];
    for (t, &key) in top.iter_mut().zip(&keys) {
        *t = key;
    }
    top.sort_unstable_by(|a, b| b.cmp(a));
    let sampled: u64 = hist.iter().map(|&c| u64::from(c)).sum();
    let (w, p) = (words as u64, words.div_ceil(8) as u64);
    // Each width's estimate, times the sample size.
    let (mut covered, mut best) = (0u64, (u64::MAX, 1));
    for k in 1..=MAX_WIDTH {
        let entries = (1usize << k) - 1;
        let newly = top.get(entries / 2..entries).unwrap_or_default();
        covered += newly.iter().map(|key| u64::from(key >> 8)).sum::<u64>();
        let fixed = u64::from(k) * p + entries as u64;
        let cost = fixed * sampled + (sampled - covered) * w;
        if cost < best.0 {
            best = (cost, k);
        }
    }
    let mut table = [0u8; TABLE];
    for (t, &key) in table.iter_mut().zip(&top) {
        *t = 255 - (key & 0xFF) as u8;
    }
    (table, best.1)
}

/// Codes one block into the front of `out` and returns the bytes written:
/// coded, or raw where coding would not shrink it; `None` when `out` is
/// too short.
#[inline(always)]
fn encode_block(block: &[[u8; 4]], out: &mut [u8], scratch: &mut Scratch) -> Option<usize> {
    if let Some(n) = encode_coded(block, out, scratch) {
        return Some(n);
    }
    let w = block.len();
    let (tag, body) = out.get_mut(..1 + 4 * w)?.split_first_mut()?;
    *tag = RAW;
    body.copy_from_slice(block.as_flattened());
    Some(1 + 4 * w)
}

/// Codes one block at the index width its sample picks into the front of
/// `out`; `None` when the coded block would not be shorter than the raw one
/// or `out` is too short for it.
#[inline(always)]
fn encode_coded(block: &[[u8; 4]], out: &mut [u8], scratch: &mut Scratch) -> Option<usize> {
    let (w, p) = (block.len(), block.len().div_ceil(8));
    // Every escape must leave the block shorter than raw.
    let room = out.len().min(4 * w);
    let (tag, out) = out.get_mut(..room)?.split_first_mut()?;
    let (widths, out) = out.split_first_chunk_mut::<3>()?;
    // The planes go out as bytes first; a narrow one is packed over them.
    let (bytes, _) = out.split_at_mut_checked(3 * w)?;
    let (p0, rest) = bytes.split_at_mut_checked(w)?;
    let (p1, p2) = rest.split_at_mut_checked(w)?;
    let high = scratch.high.get_mut(..w)?;
    let or = split(block, p0, p1, p2, high);
    let mut at = 0;
    for (i, z) in (0..3).zip(widths.iter_mut()) {
        *z = width((or >> (8 * i)) as u8, w);
        let from = i * w;
        if *z == 0 {
            if at != from {
                out.copy_within(from..from + w, at);
            }
            at += w;
            continue;
        }
        let (rows, pad) = scratch.index.get_mut(..8 * p)?.split_at_mut_checked(w)?;
        rows.copy_from_slice(out.get(from..from + w)?);
        pad.fill(0);
        let n = usize::from(8 - *z) * p;
        pack(
            scratch.index.get(..8 * p)?,
            p,
            *z..8,
            out.get_mut(at..at + n)?,
        );
        at += n;
    }
    let (table, k) = table_of(&sampled_histogram(high), w);
    let table = table.get(..(1 << k) - 1)?;
    let (tab, out) = out.get_mut(at..)?.split_at_mut_checked(table.len())?;
    tab.copy_from_slice(table);
    let (planes, escapes) = out.split_at_mut_checked(usize::from(k) * p)?;
    // Each word's index: the escape, turned into `t` where the high byte
    // is the table's `t`-th (the table's bytes are distinct). The words
    // past the block up to the planes' end keep index 0.
    let escape = (1u8 << k) - 1;
    let (index, pad) = scratch.index.get_mut(..8 * p)?.split_at_mut_checked(w)?;
    index.fill(escape);
    pad.fill(0);
    for (t, &byte) in (0u8..).zip(table) {
        for (i, &h) in index.iter_mut().zip(&*high) {
            *i ^= (escape ^ t) & 0u8.wrapping_sub(u8::from(h == byte));
        }
    }
    pack(scratch.index.get(..8 * p)?, p, 0..k, planes);
    let (stride, _) = scratch.escapes.gather(planes, p)?;
    let mut slots = escapes.iter_mut();
    let mut count = 0usize;
    for (s, row) in scratch.escapes.rows(stride)?.enumerate() {
        for (c, bits) in row.as_chunks::<8>().0.iter().enumerate() {
            let (mut found, word) = (u64::from_le_bytes(*bits), s * p + 64 * c);
            while found != 0 {
                let h = high.get(word + found.trailing_zeros() as usize);
                *slots.next()? = h.copied().unwrap_or(0);
                count += 1;
                found &= found - 1;
            }
        }
    }
    *tag = k;
    Some(1 + widths.len() + at + table.len() + usize::from(k) * p + count)
}

/// The width byte of a plane of `w` bytes whose OR is `or`: its trailing
/// zeros, or 0 where its bit planes would not be shorter than its bytes.
#[inline(always)]
fn width(or: u8, w: usize) -> u8 {
    let z = or.trailing_zeros() as u8;
    if usize::from(8 - z) * w.div_ceil(8) < w {
        z
    } else {
        0
    }
}

/// Spreads words over four byte planes, the high byte last, and returns
/// the words' OR.
#[inline(always)]
fn split(block: &[[u8; 4]], p0: &mut [u8], p1: &mut [u8], p2: &mut [u8], high: &mut [u8]) -> u32 {
    let mut or = 0;
    for ((((&word, d0), d1), d2), h) in block.iter().zip(p0).zip(p1).zip(p2).zip(high) {
        let word = u32::from_le_bytes(word);
        or |= word;
        (*d0, *d1, *d2, *h) = (
            word as u8,
            (word >> 8) as u8,
            (word >> 16) as u8,
            (word >> 24) as u8,
        );
    }
    or
}

/// Packs bits `bits` of the `8·p` bytes of `rows` into one `p`-byte bit
/// plane per bit, the lowest first: bit `s` of a plane's byte `j` is its
/// bit of row `s`'s byte `j`.
#[inline(always)]
fn pack(rows: &[u8], p: usize, bits: std::ops::Range<u8>, planes: &mut [u8]) {
    for (b, plane) in bits.zip(planes.chunks_exact_mut(p)) {
        plane.fill(0);
        for (s, row) in (0..8).zip(rows.chunks_exact(p)) {
            let (bit, at) = (1u8 << b, 1u8 << s);
            for (o, &i) in plane.iter_mut().zip(row) {
                *o |= at & 0u8.wrapping_sub(u8::from(i & bit != 0));
            }
        }
    }
}

/// [`pack`]'s inverse for 64 bytes of row `s` from byte `j`: each of the
/// `p`-byte `planes` sets its bit, from `bits`' start up, where its byte
/// has bit `s` (no bit past the planes' end).
#[inline(always)]
fn unpack(planes: &[u8], p: usize, bits: std::ops::Range<u8>, s: u8, j: usize) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (bit, plane) in bits.zip(planes.chunks_exact(p)) {
        let (at, value) = (1u8 << s, 1u8 << bit);
        for (o, &b) in out
            .iter_mut()
            .zip(&lanes(plane.get(j..).unwrap_or_default()))
        {
            *o |= value & 0u8.wrapping_sub(u8::from(b & at != 0));
        }
    }
    out
}

/// A lower byte plane of a coded block, as the decoder reads it.
#[derive(Clone, Copy)]
enum Plane<'a> {
    /// One byte per word.
    Bytes(&'a [u8]),
    /// The bit planes of `byte >> z`, with the `z`.
    Bits(&'a [u8], u8),
}

impl<'a> Plane<'a> {
    /// The bytes of the words from word `s·p + j` on, at least 64 of them
    /// unless the plane ends first: the plane's own, or 64 unpacked into
    /// `lanes`.
    #[inline(always)]
    fn bytes_at(self, p: usize, s: u8, j: usize, lanes: &'a mut [u8; 64]) -> &'a [u8] {
        match self {
            Plane::Bytes(bytes) => bytes.get(usize::from(s) * p + j..).unwrap_or_default(),
            Plane::Bits(planes, z) => {
                *lanes = unpack(planes, p, z..8, s, j);
                lanes
            }
        }
    }
}

/// Whether every bit past word `w` of `p`-byte bit planes is zero, as an
/// encoder leaves them.
#[inline(always)]
fn padding_clear(planes: &[u8], w: usize, p: usize) -> bool {
    planes.chunks_exact(p).all(|plane| {
        (w..8 * p).all(|at| plane.get(at % p).is_none_or(|&b| (b >> (at / p)) & 1 == 0))
    })
}

/// Decodes the block at the front of `src` into `block` and returns the
/// rest of `src`.
#[inline(always)]
fn decode_block<'a>(
    src: &'a [u8],
    block: &mut [[u8; 4]],
    bitmap: &mut Escapes,
) -> Result<&'a [u8], CodecError> {
    let (w, p) = (block.len(), block.len().div_ceil(8));
    let cut = |src: &'a [u8], n: usize| src.split_at_checked(n).ok_or(CodecError::Truncated);
    let (&k, src) = src.split_first().ok_or(CodecError::Truncated)?;
    if k == RAW {
        let (body, rest) = cut(src, 4 * w)?;
        block.as_flattened_mut().copy_from_slice(body);
        return Ok(rest);
    }
    if k > MAX_WIDTH {
        return Err(CodecError::Corrupt);
    }
    let (widths, mut src) = src.split_first_chunk::<3>().ok_or(CodecError::Truncated)?;
    let mut low = [Plane::Bytes(&[]); 3];
    for (plane, &z) in low.iter_mut().zip(widths) {
        let bytes;
        (bytes, src) = match z {
            0 => cut(src, w)?,
            1..=8 => cut(src, usize::from(8 - z) * p)?,
            _ => return Err(CodecError::Corrupt),
        };
        *plane = match z {
            0 => Plane::Bytes(bytes),
            _ if padding_clear(bytes, w, p) => Plane::Bits(bytes, z),
            _ => return Err(CodecError::Corrupt),
        };
    }
    let escape = (1u8 << k) - 1;
    let (table, src) = cut(src, usize::from(escape))?;
    let (planes, src) = cut(src, usize::from(k) * p)?;
    if !padding_clear(planes, w, p) {
        return Err(CodecError::Corrupt);
    }
    let (stride, count) = bitmap.gather(planes, p).ok_or(CodecError::Corrupt)?;
    let (escapes, rest) = cut(src, count)?;
    // Row by row, 64 words at a time: the indices from the planes, the
    // high bytes from the table, the escapes' over them, the lower bytes,
    // and the words.
    let mut next = 0usize;
    let [l0, l1, l2] = low;
    for (s, bits) in (0..8u8).zip(bitmap.rows(stride).ok_or(CodecError::Corrupt)?) {
        let start = usize::from(s) * p;
        let len = w.saturating_sub(start).min(p);
        let Some(words) = block.get_mut(start..start + len) else {
            break;
        };
        // (`j` first: zipped last, it costs the loop a quarter of its speed.)
        for (j, (words, found)) in (0..)
            .step_by(64)
            .zip(words.chunks_mut(64).zip(bits.as_chunks::<8>().0))
        {
            let index = unpack(planes, p, 0..k, s, j);
            let mut high = [0u8; 64];
            for (t, &byte) in (0u8..).zip(table) {
                for (h, &i) in high.iter_mut().zip(&index) {
                    *h |= byte & 0u8.wrapping_sub(u8::from(i == t));
                }
            }
            let mut found = u64::from_le_bytes(*found);
            while found != 0 {
                let at = (found.trailing_zeros() & 63) as usize;
                if let (Some(h), Some(&e)) = (high.get_mut(at), escapes.get(next)) {
                    *h = e;
                }
                next += 1;
                found &= found - 1;
            }
            let mut lanes = [[0u8; 64]; 3];
            let [a, b, c] = &mut lanes;
            let (a, b, c) = (
                l0.bytes_at(p, s, j, a),
                l1.bytes_at(p, s, j, b),
                l2.bytes_at(p, s, j, c),
            );
            merge(words, a, b, c, &high);
        }
    }
    Ok(rest)
}

/// The first 64 bytes of `src`, zero-padded.
#[inline(always)]
fn lanes(src: &[u8]) -> [u8; 64] {
    if let Some(&full) = src.first_chunk::<64>() {
        return full;
    }
    let mut out = [0u8; 64];
    for (o, &s) in out.iter_mut().zip(src) {
        *o = s;
    }
    out
}

/// Joins four byte planes into up to 64 words, the high byte last.
#[inline(always)]
fn merge(words: &mut [[u8; 4]], a: &[u8], b: &[u8], c: &[u8], high: &[u8; 64]) {
    let join = |a: u8, b: u8, c: u8, h: u8| {
        (u32::from(a) | u32::from(b) << 8 | u32::from(c) << 16 | u32::from(h) << 24).to_le_bytes()
    };
    if let (Some(words), Some(a), Some(b), Some(c)) = (
        words.first_chunk_mut::<64>(),
        a.first_chunk::<64>(),
        b.first_chunk::<64>(),
        c.first_chunk::<64>(),
    ) {
        for ((((word, &a), &b), &c), &h) in words.iter_mut().zip(a).zip(b).zip(c).zip(high) {
            *word = join(a, b, c, h);
        }
        return;
    }
    for ((((word, &a), &b), &c), &h) in words.iter_mut().zip(a).zip(b).zip(c).zip(high) {
        *word = join(a, b, c, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimdLevel;
    use mlp_testkit::{cases, Gen};

    /// FP32 state as an Adam run leaves it: parameters, first and second
    /// moments, a third of the words each, every value within a few
    /// binades of its tensor's scale.
    fn state_like(g: &mut Gen, words: usize) -> Vec<u8> {
        let scales = [0.05f32, 1e-3, 1e-6];
        (0..words)
            .flat_map(|i| {
                let scale = scales[(3 * i / words.max(1)).min(2)];
                let unit = g.range(-1.0f32..1.0);
                (unit * scale).to_le_bytes()
            })
            .collect()
    }

    /// Words whose high byte is one of `values` (uniformly), with one in
    /// `1 / escape_every` of them set to a byte outside `values`
    /// (`escape_every == 1`: every word), and random low bytes.
    fn words_over(g: &mut Gen, words: usize, values: &[u8], escape_every: usize) -> Vec<u8> {
        (0..words)
            .flat_map(|_| {
                let mut word = (g.u64() as u32).to_le_bytes();
                word[3] = if g.range(0..escape_every) == 0 {
                    loop {
                        let h = g.u64() as u8;
                        if !values.contains(&h) {
                            break h;
                        }
                    }
                } else {
                    values[g.range(0..values.len())]
                };
                word
            })
            .collect()
    }

    /// Words whose high byte is one of `values` (uniformly) and whose byte
    /// `i` has exactly `widths[i]` trailing zeros over every block: random
    /// bits above them, and the lowest of them set in each block's first
    /// word (none for a width of 8).
    fn words_with(g: &mut Gen, words: usize, values: &[u8], widths: [u8; 3]) -> Vec<u8> {
        let mut out: Vec<u8> = (0..words)
            .flat_map(|_| {
                let mut word = [0u8; 4];
                for (b, &z) in word.iter_mut().zip(&widths) {
                    *b = (g.u64() as u8).checked_shl(u32::from(z)).unwrap_or(0);
                }
                word[3] = values[g.range(0..values.len())];
                word
            })
            .collect();
        for block in out.chunks_mut(4 * BLOCK_WORDS) {
            for (b, &z) in block.iter_mut().zip(&widths) {
                *b |= 1u8.checked_shl(u32::from(z)).unwrap_or(0);
            }
        }
        out
    }

    fn round_trip(src: &[u8]) -> Option<usize> {
        let mut frame = vec![0u8; src.len()];
        let n = encode(src, &mut frame)?;
        assert!(n < src.len(), "a frame of {n} bytes for {} raw", src.len());
        assert_eq!(framed_len(&frame[..n]), Ok(Some(src.len())));
        let mut back = vec![0xA5u8; src.len()];
        decode(&frame[..n], &mut back).expect("a frame the encoder wrote decodes");
        assert!(back == src, "round trip of {} bytes differs", src.len());
        Some(n)
    }

    /// One block of a frame, as a reader walks it.
    #[derive(Debug)]
    struct Block {
        /// The index width; 0 for a raw block.
        k: u8,
        /// The lower planes' width bytes.
        widths: [u8; 3],
        table: Vec<u8>,
        escapes: usize,
        /// Where the index planes start, from the block's tag.
        index_at: usize,
        /// The block's bytes, tag included.
        bytes: Vec<u8>,
    }

    /// The bytes a lower plane of `w` words and width byte `z` takes.
    fn plane_len(z: u8, w: usize) -> usize {
        match z {
            0 => w,
            z => usize::from(8 - z) * w.div_ceil(8),
        }
    }

    /// Walks the blocks of a frame of `raw` bytes the plain way, counting
    /// each coded block's escapes one word at a time.
    fn blocks(frame: &[u8], raw: usize) -> Vec<Block> {
        let mut at = HEADER;
        let mut out = Vec::new();
        for start in (0..raw / 4).step_by(BLOCK_WORDS) {
            let w = (raw / 4 - start).min(BLOCK_WORDS);
            let (k, p) = (frame[at], w.div_ceil(8));
            let (mut len, mut widths, mut table, mut escapes, mut index_at) =
                (1 + 4 * w, [0; 3], Vec::new(), 0, 0);
            if k != RAW {
                let entries = (1usize << k) - 1;
                widths = frame[at + 1..at + 4].try_into().unwrap();
                let t = 4 + widths.iter().map(|&z| plane_len(z, w)).sum::<usize>();
                table = frame[at + t..at + t + entries].to_vec();
                index_at = t + entries;
                let planes = &frame[at + index_at..at + index_at + usize::from(k) * p];
                escapes = (0..w)
                    .filter(|&i| {
                        (0..usize::from(k)).all(|b| planes[b * p + i % p] >> (i / p) & 1 == 1)
                    })
                    .count();
                len = index_at + usize::from(k) * p + escapes;
            }
            out.push(Block {
                k,
                widths,
                table,
                escapes,
                index_at,
                bytes: frame[at..at + len].to_vec(),
            });
            at += len;
        }
        assert_eq!(at, frame.len(), "the blocks end where the frame does");
        out
    }

    /// `values`, one per word, as `bits` bit planes of `⌈w/8⌉` bytes, the
    /// plain way: word `i` is bit `i / p` of byte `i % p`.
    fn bit_planes(values: &[u8], bits: u8) -> Vec<u8> {
        let p = values.len().div_ceil(8);
        let mut out = vec![0u8; usize::from(bits) * p];
        for (i, &x) in values.iter().enumerate() {
            for bit in 0..usize::from(bits) {
                out[bit * p + i % p] |= (x >> bit & 1) << (i / p);
            }
        }
        out
    }

    /// The block format written the plain way, one word at a time: the
    /// oracle of the encoder's kernels, and a writer of blocks no encoder
    /// would pick (every word escaped).
    fn reference_block(block: &[[u8; 4]], k: u8, table: &[u8]) -> Vec<u8> {
        let (w, p) = (block.len(), block.len().div_ceil(8));
        let escape = (1u8 << k) - 1;
        let index: Vec<u8> = block
            .iter()
            .map(|word| {
                table
                    .iter()
                    .position(|&t| t == word[3])
                    .map_or(escape, |i| i as u8)
            })
            .collect();
        let mut out = vec![k];
        let mut planes = Vec::new();
        for b in 0..3 {
            let bytes: Vec<u8> = block.iter().map(|word| word[b]).collect();
            let or = bytes.iter().fold(0, |or, &x| or | x);
            let mut z = (0..8).find(|&z| or >> z & 1 == 1).unwrap_or(8);
            if usize::from(8 - z) * p >= w {
                z = 0;
            }
            out.push(z);
            if z == 0 {
                planes.extend(bytes);
            } else {
                let shifted: Vec<u8> = bytes
                    .iter()
                    .map(|&x| x.checked_shr(u32::from(z)).unwrap_or(0))
                    .collect();
                planes.extend(bit_planes(&shifted, 8 - z));
            }
        }
        out.extend(planes);
        out.extend_from_slice(table);
        out.extend(bit_planes(&index, k));
        out.extend(
            block
                .iter()
                .zip(&index)
                .filter(|&(_, &x)| x == escape)
                .map(|(word, _)| word[3]),
        );
        out
    }

    fn header(raw: usize) -> Vec<u8> {
        let mut out = b"MLz3".to_vec();
        out.extend_from_slice(&(raw as u32).to_le_bytes());
        out
    }

    /// Encodes `src` at `level` and decodes the frame back at the same
    /// level: the frame and the words.
    fn at_level(level: SimdLevel, src: &[u8]) -> (Option<Vec<u8>>, Vec<u8>) {
        let mut frame = vec![0u8; src.len()];
        let n = level.run(
            #[inline(always)]
            || encode_body(src, &mut frame),
        );
        let Some(n) = n else {
            return (None, src.to_vec());
        };
        frame.truncate(n);
        let mut back = vec![0u8; src.len()];
        level
            .run(
                #[inline(always)]
                || decode_body(&frame, &mut back),
            )
            .expect("decodes");
        (Some(frame), back)
    }

    #[test]
    fn state_round_trips_across_block_boundaries_and_codes_to_seven_eighths() {
        let mut g = Gen::new(43);
        for words in [
            1,
            2,
            3,
            17,
            BLOCK_WORDS - 1,
            BLOCK_WORDS,
            BLOCK_WORDS + 1,
            2 * BLOCK_WORDS + 3,
        ] {
            let src = state_like(&mut g, words);
            round_trip(&src);
        }
        // Two blocks per tensor, as a subgroup of 32 Ki parameters lays
        // them out.
        let src = state_like(&mut g, 6 * BLOCK_WORDS);
        let ratio = round_trip(&src).expect("codes shorter") as f64 / src.len() as f64;
        assert!((0.848..0.850).contains(&ratio), "{ratio}");
    }

    #[test]
    fn any_object_round_trips_or_stays_raw() {
        cases(64, |g| {
            let words = g.range(0..3 * BLOCK_WORDS);
            let mut src = state_like(g, words);
            // Sprinkle words of any bit pattern over the state.
            for _ in 0..g.range(0..64usize) {
                if let Some(w) = src.chunks_exact_mut(4).nth(g.range(0..words.max(1))) {
                    w.copy_from_slice(&(g.u64() as u32).to_le_bytes());
                }
            }
            round_trip(&src);
        });
    }

    /// Blocks of 1, 3, 7 and 15 equally frequent high bytes pick widths 1
    /// to 4; with no escapes, one in 64 words, or (past what the sample
    /// saw) nearly every word; at lengths that end mid-byte of the planes.
    /// Every coded block is the plain-way block of its width and table, and
    /// every level writes and reads the portable frame.
    #[test]
    fn every_width_and_escape_density_codes_as_the_plain_way_does_at_every_level() {
        cases(48, |g| {
            let k = g.range(1..MAX_WIDTH + 1);
            let values: Vec<u8> = (0..(1u8 << k) - 1).map(|v| 0x30 + 3 * v).collect();
            let escape_every = [usize::MAX, 64, 1][g.range(0..3usize)];
            let words = g.range(1..2 * BLOCK_WORDS + 64);
            let src = words_over(g, words, &values, escape_every);
            let mut levels = SimdLevel::available();
            let portable = at_level(levels.next().expect("portable is always there"), &src);
            assert!(portable.1 == src, "{words} words, width {k}");
            for level in levels {
                assert!(at_level(level, &src) == portable, "{}", level.name());
            }
            let Some(frame) = portable.0 else {
                assert_eq!(escape_every, 1, "only escapes keep such an object raw");
                return;
            };
            let chunks = src.as_chunks::<4>().0.chunks(BLOCK_WORDS);
            for (block, words) in blocks(&frame, src.len()).iter().zip(chunks) {
                if block.k == RAW {
                    assert_eq!(escape_every, 1, "a block of {} words is raw", words.len());
                    continue;
                }
                assert!(block.bytes == reference_block(words, block.k, &block.table));
                if escape_every == usize::MAX && words.len() >= SAMPLED_FROM {
                    assert_eq!((block.k, block.escapes), (k, 0), "{} words", words.len());
                }
            }
        });
    }

    /// Words over `2^k − 1` high bytes with the lower planes at `widths`:
    /// every level writes and reads the portable frame, and each coded
    /// block is the plain-way block, at the widths the planes have.
    fn codes_at_widths_as_the_plain_way_does(g: &mut Gen, k: u8, widths: [u8; 3]) {
        let values: Vec<u8> = (0..(1u8 << k) - 1).map(|v| 0x30 + 3 * v).collect();
        let words = g.range(1..2 * BLOCK_WORDS + 64);
        let src = words_with(g, words, &values, widths);
        let what = format!("{words} words, width {k}, planes at {widths:?}");
        let mut levels = SimdLevel::available();
        let portable = at_level(levels.next().expect("portable is always there"), &src);
        assert!(portable.1 == src, "{what}");
        for level in levels {
            assert!(
                at_level(level, &src) == portable,
                "{what}: {}",
                level.name()
            );
        }
        let frame = portable
            .0
            .unwrap_or_else(|| panic!("{what}: codes shorter"));
        let chunks = src.as_chunks::<4>().0.chunks(BLOCK_WORDS);
        for (block, words) in blocks(&frame, src.len()).iter().zip(chunks) {
            let (w, p) = (words.len(), words.len().div_ceil(8));
            if block.k == RAW {
                assert!(w < 8, "{what}: a block of {w} words is raw");
                continue;
            }
            assert!(
                block.bytes == reference_block(words, block.k, &block.table),
                "{what}"
            );
            let expected = widths.map(|z| if usize::from(8 - z) * p < w { z } else { 0 });
            assert_eq!(block.widths, expected, "{what}: a block of {w} words");
            if w >= SAMPLED_FROM {
                assert_eq!(
                    (block.k, block.escapes),
                    (k, 0),
                    "{what}: a block of {w} words"
                );
            }
        }
    }

    /// Every lower-plane width 0..=8, on each plane alone and on all three,
    /// beside every index width, at lengths that end mid-byte of the
    /// planes; then random widths for each plane.
    #[test]
    fn every_plane_width_beside_every_index_width_codes_as_the_plain_way_does_at_every_level() {
        let mut g = Gen::new(45);
        for k in 1..=MAX_WIDTH {
            for z in 0..=8u8 {
                for plane in 0..4 {
                    let mut widths = [z; 3];
                    if plane < 3 {
                        widths = [0; 3];
                        widths[plane] = z;
                    }
                    codes_at_widths_as_the_plain_way_does(&mut g, k, widths);
                }
            }
        }
        cases(32, |g| {
            let (k, widths) = (g.range(1..MAX_WIDTH + 1), [(); 3].map(|()| g.range(0..9u8)));
            codes_at_widths_as_the_plain_way_does(g, k, widths);
        });
    }

    /// FP16-born words (the low 13 bits zero): byte 0 costs nothing, byte
    /// 1 three bits.
    #[test]
    fn fp16_born_words_keep_only_their_significant_bits() {
        let mut g = Gen::new(8);
        let src: Vec<u8> = (0..3 * BLOCK_WORDS)
            .flat_map(|_| {
                let half = crate::F16::from_f32(g.range(-1.0f32..1.0) / 64.0);
                half.to_f32().to_le_bytes()
            })
            .collect();
        let n = round_trip(&src).expect("codes shorter");
        let mut frame = vec![0u8; src.len()];
        encode(&src, &mut frame);
        for block in blocks(&frame[..n], src.len()) {
            assert_eq!(block.widths, [8, 5, 0], "{block:?}");
        }
        let ratio = n as f64 / src.len() as f64;
        assert!(ratio < 0.5, "{ratio}");
    }

    /// Every truncation, and every bit flipped in a width byte, is an
    /// error; a width past 8 is `Corrupt`, and so is a bit set past the
    /// last word of a narrow plane.
    #[test]
    fn truncated_frames_and_bad_width_bytes_are_typed_errors() {
        let mut g = Gen::new(12);
        let src = words_with(
            &mut g,
            BLOCK_WORDS + 301,
            &[0x3C, 0x3D, 0xBC, 0xBD],
            [8, 5, 0],
        );
        let mut frame = vec![0u8; src.len()];
        let n = encode(&src, &mut frame).expect("codes shorter");
        frame.truncate(n);
        let mut dst = vec![0u8; src.len()];
        for cut in 0..n {
            assert!(decode(&frame[..cut], &mut dst).is_err(), "cut at {cut}");
        }
        let walked = blocks(&frame, src.len());
        let mut at = HEADER;
        for block in &walked {
            assert_eq!(block.widths, [8, 5, 0]);
            for z in at + 1..at + 4 {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[z] ^= 1 << bit;
                    assert!(decode(&bad, &mut dst).is_err(), "bit {bit} of byte {z}");
                }
                for past in 9..=u8::MAX {
                    let mut bad = frame.clone();
                    bad[z] = past;
                    assert_eq!(
                        decode(&bad, &mut dst),
                        Err(CodecError::Corrupt),
                        "{past} at {z}"
                    );
                }
            }
            at += block.bytes.len();
        }
        // The tail block is 301 words: byte 1's three bit planes of 38
        // bytes have 3 bits past them each.
        let tail = HEADER + walked[0].bytes.len();
        let (w, p) = (301, 301usize.div_ceil(8));
        for plane in 0..3 {
            let mut pad = frame.clone();
            pad[tail + 4 + plane * p + (w % p)] |= 1 << (w / p);
            assert_eq!(
                decode(&pad, &mut dst),
                Err(CodecError::Corrupt),
                "plane {plane}"
            );
        }
    }

    #[test]
    fn a_block_with_every_word_escaped_decodes_beside_one_that_pays_for_it() {
        for w in [BLOCK_WORDS, 1001] {
            let mut g = Gen::new(w as u64);
            let same = words_over(&mut g, BLOCK_WORDS, &[0x3F], usize::MAX);
            let escaped = words_over(&mut g, w, &[0x3F], 1);
            let mut frame = header(same.len() + escaped.len());
            frame.extend(reference_block(same.as_chunks().0, 1, &[0x3F]));
            frame.extend(reference_block(escaped.as_chunks().0, 1, &[0x3F]));
            let mut back = vec![0u8; same.len() + escaped.len()];
            decode(&frame, &mut back).expect("decodes");
            assert!(back[..same.len()] == same[..] && back[same.len()..] == escaped[..]);
        }
    }

    #[test]
    fn lengths_that_are_not_whole_words_or_empty_stay_raw() {
        let mut dst = vec![0u8; 1 << 16];
        let state = state_like(&mut Gen::new(1), 3 * BLOCK_WORDS);
        for len in [
            0,
            1,
            2,
            3,
            5,
            4 * 1000 + 1,
            4 * BLOCK_WORDS + 2,
            12 * BLOCK_WORDS - 1,
        ] {
            assert_eq!(encode(&state[..len], &mut dst), None, "{len} bytes");
        }
        // A destination too short for the frame leaves the object raw too.
        assert_eq!(encode(&state[..4096], &mut dst[..100]), None);
    }

    #[test]
    fn every_level_writes_and_reads_the_portable_frame() {
        let mut g = Gen::new(7);
        let mut src = state_like(&mut g, 2 * BLOCK_WORDS + 1001);
        src[4 * 77..4 * 77 + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let mut levels = SimdLevel::available();
        let portable = at_level(levels.next().expect("portable is always there"), &src);
        assert!(portable.0.is_some() && portable.1 == src);
        for level in levels {
            assert!(at_level(level, &src) == portable, "{}", level.name());
        }
    }

    /// Every high byte occurs in one block, so most words are in the table
    /// and the rest go through the escape list.
    #[test]
    fn every_high_byte_value_round_trips_through_the_escape_list() {
        let mut g = Gen::new(11);
        let mut src = state_like(&mut g, BLOCK_WORDS);
        for (h, word) in (0..=255u8).zip(src.chunks_exact_mut(4).step_by(61)) {
            word[3] = h;
        }
        let n = round_trip(&src).expect("codes shorter");
        let mut frame = vec![0u8; src.len()];
        encode(&src, &mut frame);
        let [block] = &blocks(&frame[..n], src.len())[..] else {
            panic!("one block")
        };
        assert!(
            block.k != RAW && block.escapes >= 256 - block.table.len(),
            "{block:?}"
        );
    }

    #[test]
    fn nan_infinity_and_subnormal_words_round_trip_bit_for_bit() {
        let specials = [
            f32::NAN.to_bits(),
            0x7FC0_1234,
            0xFF80_0001,
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            1,
            0x8000_0001,
            0x007F_FFFF,
            0,
            0x8000_0000,
        ];
        for every in [3, 1] {
            let mut src = state_like(&mut Gen::new(3), 4001);
            for (word, &bits) in src
                .chunks_exact_mut(4)
                .step_by(every)
                .zip(specials.iter().cycle())
            {
                word.copy_from_slice(&bits.to_le_bytes());
            }
            round_trip(&src).expect("codes shorter");
        }
    }

    #[test]
    fn incompressible_blocks_are_stored_raw_and_an_object_never_grows() {
        let mut g = Gen::new(5);
        let noise: Vec<u8> = (0..4 * BLOCK_WORDS).map(|_| g.u64() as u8).collect();
        let mut dst = vec![0u8; noise.len()];
        assert_eq!(encode(&noise, &mut dst), None);
        // One block of state and one of noise: the noise block is raw.
        let mut mixed = state_like(&mut g, BLOCK_WORDS);
        mixed.extend_from_slice(&noise);
        let n = round_trip(&mixed).expect("the state block pays for the frame");
        let mut frame = vec![0u8; mixed.len()];
        encode(&mixed, &mut frame);
        let walked = blocks(&frame[..n], mixed.len());
        assert!(walked[0].k != RAW);
        assert!(walked[1..].iter().all(|b| b.k == RAW));
    }

    #[test]
    fn truncated_and_corrupted_frames_are_typed_errors() {
        let mut g = Gen::new(9);
        let src = state_like(&mut g, BLOCK_WORDS + 301);
        let mut frame = vec![0u8; src.len()];
        let n = encode(&src, &mut frame).expect("codes shorter");
        frame.truncate(n);
        let mut dst = vec![0u8; src.len()];
        for cut in 0..n {
            assert!(decode(&frame[..cut], &mut dst).is_err(), "cut at {cut}");
        }
        assert_eq!(
            decode(&frame, &mut dst[..src.len() - 4]),
            Err(CodecError::LengthMismatch {
                raw: src.len(),
                dst: src.len() - 4
            })
        );
        let mut longer = frame.clone();
        longer.push(0);
        assert_eq!(decode(&longer, &mut dst), Err(CodecError::Corrupt));
        let mut tag = frame.clone();
        tag[HEADER] = MAX_WIDTH + 1;
        assert_eq!(decode(&tag, &mut dst), Err(CodecError::Corrupt));
        let mut magic = frame.clone();
        magic[0] ^= 1;
        assert_eq!(decode(&magic, &mut dst), Err(CodecError::NotAFrame));
        // Any bit flipped in the header or a block's tag is an error.
        let walked = blocks(&frame, src.len());
        let tail = HEADER + walked[0].bytes.len();
        for at in (0..HEADER).chain([HEADER, tail]) {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[at] ^= 1 << bit;
                assert!(decode(&bad, &mut dst).is_err(), "bit {bit} of byte {at}");
            }
        }
        // An index bit past the last word (the tail block is 301 words: 5
        // bits past them in each plane) is an error.
        let [_, last] = &walked[..] else {
            panic!("two blocks")
        };
        let (w, p) = (301, 301usize.div_ceil(8));
        let planes = tail + last.index_at;
        let mut pad = frame.clone();
        pad[planes + (w % p)] |= 1 << (w / p);
        assert_eq!(decode(&pad, &mut dst), Err(CodecError::Corrupt));
        // A flip in the last block's index planes that adds or removes an
        // escape moves its end: an error.
        for at in planes..planes + usize::from(last.k) * p {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[at] ^= 1 << bit;
                let escapes = |f: &[u8]| {
                    let and = (0..p).fold(vec![0xFFu8; p], |mut and, j| {
                        for b in 0..usize::from(last.k) {
                            and[j] &= f[planes + b * p + j];
                        }
                        and
                    });
                    and.iter().map(|a| a.count_ones()).sum::<u32>()
                };
                if escapes(&bad) != escapes(&frame) {
                    assert!(decode(&bad, &mut dst).is_err(), "bit {bit} of byte {at}");
                }
            }
        }
        // Any bit flipped anywhere: an error or some words, never a panic.
        cases(256, |g| {
            let mut bad = frame.clone();
            let at = g.range(0..bad.len());
            bad[at] ^= 1 << g.range(0..8u8);
            let _ = decode(&bad, &mut dst);
        });
    }

    #[test]
    fn frames_of_another_version_are_refused_by_name() {
        let state = state_like(&mut Gen::new(4), 1000);
        let mut frame = vec![0u8; state.len()];
        let n = encode(&state, &mut frame).expect("codes shorter");
        frame.truncate(n);
        for version in [b'1', b'2', b'4', 0] {
            let mut other = frame.clone();
            other[3] = version;
            assert_eq!(framed_len(&other), Err(CodecError::Version(version)));
            let mut dst = vec![0u8; state.len()];
            assert_eq!(decode(&other, &mut dst), Err(CodecError::Version(version)));
            assert!(CodecError::Version(version).to_string().contains("version"));
        }
        // Another family's header is no frame at all.
        frame[2] = b'y';
        assert_eq!(framed_len(&frame), Ok(None));
    }

    #[test]
    fn raw_objects_of_known_length_are_not_frames() {
        let state = state_like(&mut Gen::new(2), 100);
        assert_eq!(framed_len(&state), Ok(None));
        assert_eq!(framed_len(&[]), Ok(None));
        let mut frame = vec![0u8; state.len()];
        let n = encode(&state, &mut frame).expect("codes shorter");
        // A frame as long as its raw length would be is no frame.
        assert_eq!(framed_len(&frame[..n]), Ok(Some(state.len())));
        frame.resize(state.len(), 0);
        assert_eq!(framed_len(&frame), Ok(None));
    }
}
