//! A lossless codec for FP32 optimizer state: the sign/exponent plane coded,
//! the mantissa planes kept.
//!
//! Optimizer state (parameters, Adam's two moments) is FP32 words whose low
//! three bytes are noise — ≈ 8 bits of entropy each — while the high byte
//! (the sign and the top seven exponent bits) of the words in one region of
//! a tensor takes few values: its order-0 entropy measures 2.5–3.2 bits. So
//! the one byte worth coding is the high byte, and four bits per word
//! already reach 3.5 / 4 = 0.875 of raw. A Huffman or rANS coder of that
//! plane would gain nothing over a fixed 4-bit index at these entropies, and
//! cost more per byte than the transfer it saves.
//!
//! # Frame
//!
//! ```text
//! frame  = "MLz1" · raw_len (u32 LE) · block*       (strictly shorter than raw_len)
//! block  = RAW   (0) · the block's 4·w bytes as they are
//!        | CODED (1) · table[15] · n_esc (u16 LE) · index[⌈w/2⌉]
//!                    · byte0[w] · byte1[w] · byte2[w]
//!                    · n_esc × (position u16 LE, high byte)
//! ```
//!
//! The object is cut into blocks of [`BLOCK_WORDS`] little-endian words (the
//! last one shorter). A coded block's table holds the 15 high bytes that
//! occur most often in it (among every fourth word: a sample of 4 Ki words
//! picks the table the full count would on state), and each word's high byte becomes a 4-bit index
//! into the table — two per index byte, the even word in the low nibble —
//! or the escape index 15, whose byte is in the escape list with the
//! word's position. The low three bytes of every word go to three byte
//! planes, stored raw. A block that would not shrink is stored raw, and an
//! object whose frame would not be strictly shorter than itself is not
//! framed at all ([`encode`] returns `None`): a frame never grows an object,
//! and a reader that knows an object's raw length tells a frame from a raw
//! object by its length alone. Objects whose length is not a whole number
//! of words, or is zero, are always left raw.
//!
//! # Kernels
//!
//! [`encode`] and [`decode`] run their bodies ([`encode_body`],
//! [`decode_body`]) at the host's vector width ([`crate::at_host_width`]),
//! like the conversion kernels: the plane split and merge are element
//! loops that vectorize; the histogram and the index lookups are scalar.
//! Every width produces the portable frame and the portable words, bit for
//! bit. Decoding validates the frame as it goes: a truncated or corrupted
//! frame is a [`CodecError`], never a panic and never a read out of bounds.
//! Integrity is not the codec's job — a checksum below it covers the frame.

use std::fmt;

use crate::at_host_width;

/// Words per block: 64 KiB of raw state, which keeps a block's histogram,
/// planes and output in a core's L2 while it is coded.
pub const BLOCK_WORDS: usize = 16 * 1024;

/// What a frame starts with: the codec and its version.
const MAGIC: [u8; 4] = *b"MLz1";
/// Magic plus the raw length.
const HEADER: usize = 8;
/// High bytes a coded block's table holds; index 15 escapes.
const TABLE: usize = 15;
const ESCAPE: u8 = 15;
const RAW: u8 = 0;
const CODED: u8 = 1;
/// A coded block's tag, table and escape count.
const CODED_HEAD: usize = 1 + TABLE + 2;

/// Why a frame did not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes do not start with a frame header that declares a raw
    /// length longer than the frame and a whole number of words.
    NotAFrame,
    /// The frame decodes to `raw` bytes but the destination holds `dst`.
    LengthMismatch {
        /// The raw length the frame declares.
        raw: usize,
        /// The destination's length.
        dst: usize,
    },
    /// The frame ends inside a block.
    Truncated,
    /// A block's tag or an escape's position is not one an encoder writes,
    /// or bytes follow the last block.
    Corrupt,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::NotAFrame => f.write_str("not a codec frame"),
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
/// than `n` is a frame exactly when this is `Some(n)`.
pub fn framed_len(frame: &[u8]) -> Option<usize> {
    let (&[m0, m1, m2, m3, l0, l1, l2, l3], _) = frame.split_first_chunk::<HEADER>()?;
    let raw = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    ([m0, m1, m2, m3] == MAGIC && raw.is_multiple_of(4) && raw > frame.len()).then_some(raw)
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
    let raw_len = u32::try_from(src.len()).ok()?.to_le_bytes();
    // A frame is strictly shorter than its object: stop before the end.
    let room = dst.len().min(src.len().checked_sub(1)?);
    let (head, mut out) = dst.get_mut(..room)?.split_at_mut_checked(HEADER)?;
    let [l0, l1, l2, l3] = raw_len;
    let [m0, m1, m2, m3] = MAGIC;
    head.copy_from_slice(&[m0, m1, m2, m3, l0, l1, l2, l3]);
    let mut used = HEADER;
    for block in words.chunks(BLOCK_WORDS) {
        let n = encode_block(block, out)?;
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
    let raw = framed_len(frame).ok_or(CodecError::NotAFrame)?;
    if raw != dst.len() {
        let dst = dst.len();
        return Err(CodecError::LengthMismatch { raw, dst });
    }
    let mut src = frame.get(HEADER..).ok_or(CodecError::Truncated)?;
    for block in dst.as_chunks_mut::<4>().0.chunks_mut(BLOCK_WORDS) {
        src = decode_block(src, block)?;
    }
    match src {
        [] => Ok(()),
        _ => Err(CodecError::Corrupt),
    }
}

/// Blocks shorter than this count every word's high byte.
const SAMPLED_FROM: usize = 1024;

/// How often each high byte occurs among every fourth word of a block —
/// a sample of up to 4 Ki words picks the same table as the full count on
/// state, at a quarter of the cost; a short block counts every word. Four
/// interleaved histograms: runs of one value (the common case) would
/// otherwise wait on the previous increment of the same counter.
#[inline(always)]
fn sampled_histogram(block: &[[u8; 4]]) -> [u32; 256] {
    let mut four = [[0u32; 256]; 4];
    let bump = |hist: &mut [u32; 256], h: u8| {
        if let Some(count) = hist.get_mut(usize::from(h)) {
            *count += 1;
        }
    };
    let [h0, h1, h2, h3] = &mut four;
    let (runs, rest) = block.as_chunks::<16>();
    if block.len() < SAMPLED_FROM {
        for &[.., h] in block {
            bump(h0, h);
        }
    } else {
        for &[[.., a], _, _, _, [.., b], _, _, _, [.., c], _, _, _, [.., d], _, _, _] in runs {
            bump(h0, a);
            bump(h1, b);
            bump(h2, c);
            bump(h3, d);
        }
        for &[.., h] in rest.iter().step_by(4) {
            bump(h0, h);
        }
    }
    for (((t, &b), &c), &d) in h0.iter_mut().zip(&*h1).zip(&*h2).zip(&*h3) {
        *t += b + c + d;
    }
    *h0
}

/// The 15 high bytes that occur most often in a block (ties to the smaller
/// byte, so the set is the same however it is selected), ascending.
#[inline(always)]
fn table_of(hist: &[u32; 256]) -> [u8; TABLE] {
    // count · 256 + (255 − byte): a total order, largest first.
    let mut keys = [0u32; 256];
    for ((key, &count), byte) in keys.iter_mut().zip(hist).zip(0u32..) {
        *key = count << 8 | (255 - byte);
    }
    keys.select_nth_unstable_by(TABLE - 1, |a, b| b.cmp(a));
    let mut table = [0u8; TABLE];
    for (t, &key) in table.iter_mut().zip(&keys) {
        *t = 255 - (key & 0xFF) as u8;
    }
    table.sort_unstable();
    table
}

/// Codes one block into the front of `out` and returns the bytes written:
/// coded, or raw where coding would not shrink it; `None` when `out` is
/// too short.
#[inline(always)]
fn encode_block(block: &[[u8; 4]], out: &mut [u8]) -> Option<usize> {
    let table = table_of(&sampled_histogram(block));
    if let Some(n) = encode_coded(block, &table, out) {
        return Some(n);
    }
    let w = block.len();
    let (tag, body) = out.get_mut(..1 + 4 * w)?.split_first_mut()?;
    *tag = RAW;
    body.copy_from_slice(block.as_flattened());
    Some(1 + 4 * w)
}

/// Codes one block over `table` into the front of `out`; `None` when the
/// coded block would not be shorter than the raw one or `out` is too
/// short for it.
#[inline(always)]
fn encode_coded(block: &[[u8; 4]], table: &[u8; TABLE], out: &mut [u8]) -> Option<usize> {
    let w = block.len();
    let mut code = [ESCAPE; 256];
    for (index, &byte) in (0u8..).zip(table) {
        if let Some(c) = code.get_mut(usize::from(byte)) {
            *c = index;
        }
    }
    // Every escape must leave the block shorter than raw.
    let room = out.len().min(4 * w);
    let (tag, out) = out.get_mut(..room)?.split_first_mut()?;
    let (tab, out) = out.split_at_mut_checked(TABLE)?;
    let (count, out) = out.split_at_mut_checked(2)?;
    let (index, out) = out.split_at_mut_checked(w.div_ceil(2))?;
    let (p0, out) = out.split_at_mut_checked(w)?;
    let (p1, out) = out.split_at_mut_checked(w)?;
    let (p2, esc) = out.split_at_mut_checked(w)?;
    for (((&[b0, b1, b2, _], d0), d1), d2) in block.iter().zip(p0).zip(p1).zip(p2) {
        (*d0, *d1, *d2) = (b0, b1, b2);
    }
    // Indices and escapes in one pass, in word order.
    let mut slots = esc.as_chunks_mut::<3>().0.iter_mut();
    let (mut at, mut escapes, mut fits) = (0u16, 0usize, true);
    let mut nibble = |h: u8| {
        let n = code.get(usize::from(h)).copied().unwrap_or(ESCAPE);
        if n == ESCAPE {
            let [lo, hi] = at.to_le_bytes();
            match slots.next() {
                Some(slot) => *slot = [lo, hi, h],
                None => fits = false,
            }
            escapes += 1;
        }
        at = at.wrapping_add(1);
        n
    };
    let (pairs, odd) = block.as_chunks::<2>();
    for (i, &[[.., h0], [.., h1]]) in index.iter_mut().zip(pairs) {
        *i = nibble(h0) | nibble(h1) << 4;
    }
    if let (Some(i), Some(&[.., h])) = (index.last_mut(), odd.first()) {
        *i = nibble(h);
    }
    if !fits {
        return None;
    }
    *tag = CODED;
    tab.copy_from_slice(table);
    count.copy_from_slice(&u16::try_from(escapes).ok()?.to_le_bytes());
    Some(CODED_HEAD + w.div_ceil(2) + 3 * w + 3 * escapes)
}

/// Decodes the block at the front of `src` into `block` and returns the
/// rest of `src`.
#[inline(always)]
fn decode_block<'a>(src: &'a [u8], block: &mut [[u8; 4]]) -> Result<&'a [u8], CodecError> {
    let w = block.len();
    let cut = |src: &'a [u8], n: usize| src.split_at_checked(n).ok_or(CodecError::Truncated);
    let (&tag, src) = src.split_first().ok_or(CodecError::Truncated)?;
    if tag == RAW {
        let (body, rest) = cut(src, 4 * w)?;
        block.as_flattened_mut().copy_from_slice(body);
        return Ok(rest);
    }
    if tag != CODED {
        return Err(CodecError::Corrupt);
    }
    let (table, src) = src.split_first_chunk::<TABLE>().ok_or(CodecError::Truncated)?;
    let (&count, src) = src.split_first_chunk::<2>().ok_or(CodecError::Truncated)?;
    let (index, src) = cut(src, w.div_ceil(2))?;
    let (p0, src) = cut(src, w)?;
    let (p1, src) = cut(src, w)?;
    let (p2, src) = cut(src, w)?;
    let (esc, rest) = cut(src, 3 * usize::from(u16::from_le_bytes(count)))?;
    let mut lut = [0u8; 16];
    for (l, &t) in lut.iter_mut().zip(table) {
        *l = t;
    }
    let lookup = |i: u8| lut.get(usize::from(i & 0xF)).copied().unwrap_or(0);
    // The high bytes first, into a plane of their own, so that the merge
    // of the four planes below is a plain element loop.
    let mut plane = [0u8; BLOCK_WORDS];
    let high = plane.get_mut(..w).ok_or(CodecError::Corrupt)?;
    let (pairs, odd) = high.as_chunks_mut::<2>();
    for (pair, &i) in pairs.iter_mut().zip(index) {
        *pair = [lookup(i), lookup(i >> 4)];
    }
    if let (Some(h), Some(&i)) = (odd.first_mut(), index.last()) {
        *h = lookup(i);
    }
    for ((((word, &a), &b), &c), &h) in block.iter_mut().zip(p0).zip(p1).zip(p2).zip(&*high) {
        *word = [a, b, c, h];
    }
    for &[lo, hi, h] in esc.as_chunks::<3>().0 {
        let word = block
            .get_mut(usize::from(u16::from_le_bytes([lo, hi])))
            .ok_or(CodecError::Corrupt)?;
        let [b0, b1, b2, _] = *word;
        *word = [b0, b1, b2, h];
    }
    Ok(rest)
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

    fn round_trip(src: &[u8]) -> Option<usize> {
        let mut frame = vec![0u8; src.len()];
        let n = encode(src, &mut frame)?;
        assert!(n < src.len(), "a frame of {n} bytes for {} raw", src.len());
        assert_eq!(framed_len(&frame[..n]), Some(src.len()));
        let mut back = vec![0xA5u8; src.len()];
        decode(&frame[..n], &mut back).expect("a frame the encoder wrote decodes");
        assert!(back == src, "round trip of {} bytes differs", src.len());
        Some(n)
    }

    #[test]
    fn state_round_trips_across_block_boundaries_and_codes_to_seven_eighths() {
        let mut g = Gen::new(43);
        for words in [1, 2, 3, 17, BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1, 2 * BLOCK_WORDS + 3]
        {
            let src = state_like(&mut g, words);
            round_trip(&src);
        }
        // Two blocks per tensor, as a subgroup of 32 Ki parameters lays
        // them out.
        let src = state_like(&mut g, 6 * BLOCK_WORDS);
        let ratio = round_trip(&src).expect("codes shorter") as f64 / src.len() as f64;
        assert!((0.875..0.877).contains(&ratio), "{ratio}");
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

    #[test]
    fn lengths_that_are_not_whole_words_or_empty_stay_raw() {
        let mut dst = vec![0u8; 1 << 16];
        let state = state_like(&mut Gen::new(1), 3 * BLOCK_WORDS);
        for len in [0, 1, 2, 3, 5, 4 * 1000 + 1, 4 * BLOCK_WORDS + 2, 12 * BLOCK_WORDS - 1] {
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
        let run = |level: SimdLevel| {
            let mut frame = vec![0u8; src.len()];
            let n = level.run(
                #[inline(always)]
                || encode_body(&src, &mut frame),
            );
            let n = n.expect("codes shorter");
            frame.truncate(n);
            let mut back = vec![0u8; src.len()];
            level
                .run(
                    #[inline(always)]
                    || decode_body(&frame, &mut back),
                )
                .expect("decodes");
            (frame, back)
        };
        let mut levels = SimdLevel::available();
        let portable = run(levels.next().expect("portable is always there"));
        assert!(portable.1 == src);
        for level in levels {
            assert!(run(level) == portable, "{}", level.name());
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
        round_trip(&src).expect("codes shorter");
        let mut frame = vec![0u8; src.len()];
        encode(&src, &mut frame);
        assert_eq!(frame[HEADER], CODED);
        let escapes = u16::from_le_bytes([frame[HEADER + 1 + TABLE], frame[HEADER + 2 + TABLE]]);
        assert!(escapes >= 256 - 15, "{escapes} escapes");
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
        let mut src = state_like(&mut Gen::new(3), 4001);
        for (word, &bits) in src.chunks_exact_mut(4).step_by(3).zip(specials.iter().cycle()) {
            word.copy_from_slice(&bits.to_le_bytes());
        }
        round_trip(&src).expect("codes shorter");
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
        let first = &frame[HEADER..];
        let w = BLOCK_WORDS;
        let escapes = usize::from(u16::from_le_bytes([first[1 + TABLE], first[2 + TABLE]]));
        let second = CODED_HEAD + w / 2 + 3 * escapes + 3 * w;
        assert_eq!((first[0], first[second]), (CODED, RAW));
        assert_eq!(n, HEADER + second + 1 + 4 * w);
    }

    #[test]
    fn truncated_and_corrupted_frames_are_typed_errors() {
        let mut g = Gen::new(9);
        let src = state_like(&mut g, BLOCK_WORDS + 300);
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
        tag[HEADER] = 7;
        assert_eq!(decode(&tag, &mut dst), Err(CodecError::Corrupt));
        let mut magic = frame.clone();
        magic[0] ^= 1;
        assert_eq!(decode(&magic, &mut dst), Err(CodecError::NotAFrame));
        // An escape pointing past its block.
        // Fifteen high bytes and one escape.
        let mut state: Vec<u8> = (0..1000u32)
            .flat_map(|i| [i as u8, (i >> 8) as u8, 7, 0x30 + (i % 15) as u8])
            .collect();
        state[3] = 0x42;
        let mut esc = vec![0u8; state.len()];
        let n = encode(&state, &mut esc).expect("codes shorter");
        let at = HEADER + CODED_HEAD + 500 + 3 * 1000;
        assert_eq!(esc[HEADER + 1 + TABLE], 1, "one escape");
        esc[at..at + 2].copy_from_slice(&1000u16.to_le_bytes());
        assert_eq!(
            decode(&esc[..n], &mut vec![0u8; state.len()]),
            Err(CodecError::Corrupt)
        );
        // Any byte flipped anywhere: an error or some words, never a panic.
        cases(256, |g| {
            let mut bad = frame.clone();
            let at = g.range(0..bad.len());
            bad[at] ^= 1 << g.range(0..8u8);
            let _ = decode(&bad, &mut dst);
        });
    }

    #[test]
    fn raw_objects_of_known_length_are_not_frames() {
        let state = state_like(&mut Gen::new(2), 100);
        assert_eq!(framed_len(&state), None);
        assert_eq!(framed_len(&[]), None);
        let mut frame = vec![0u8; state.len()];
        let n = encode(&state, &mut frame).expect("codes shorter");
        // A frame as long as its raw length would be is no frame.
        assert_eq!(framed_len(&frame[..n]), Some(state.len()));
        frame.resize(state.len(), 0);
        assert_eq!(framed_len(&frame), None);
    }
}
