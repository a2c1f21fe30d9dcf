//! Run-length encoding of premultiplied-RGBA pixel spans.
//!
//! Rendered fragments are dominated by fully transparent pixels and long
//! constant runs (sky, saturated cores). RLE exploits this: the paper's
//! future-work section reports ~50% lower compositing time once pixel
//! exchanges are compressed, and Ahrens & Painter's compositing (cited as
//! \[1\]) is built on the same observation.
//!
//! Format: a sequence of `(u32 count, [f32; 4] value)` records, little
//! endian, 20 bytes per run.

use quakeviz_render::Rgba;

/// Encode a pixel span. Exact-equality runs; worst case (no runs) inflates
/// 16 B/pixel to 20 B/pixel.
pub fn rle_encode(pixels: &[Rgba]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pixels.len() / 2 * 20 + 20);
    rle_encode_rows([pixels], &mut out);
    out
}

/// Append the encoding of the concatenation of `rows` to `out`: the bytes
/// [`rle_encode`] gives for the rows copied into one span, without the
/// copy (runs continue across row boundaries).
pub(crate) fn rle_encode_rows<'a>(rows: impl IntoIterator<Item = &'a [Rgba]>, out: &mut Vec<u8>) {
    let mut run: Option<(Rgba, u32)> = None;
    let flush = |v: Rgba, count: u32, out: &mut Vec<u8>| {
        out.extend_from_slice(&count.to_le_bytes());
        for c in v {
            out.extend_from_slice(&c.to_le_bytes());
        }
    };
    for row in rows {
        for &p in row {
            run = match run {
                Some((v, count)) if p == v && count < u32::MAX => Some((v, count + 1)),
                Some((v, count)) => {
                    flush(v, count, out);
                    Some((p, 1))
                }
                None => Some((p, 1)),
            };
        }
    }
    if let Some((v, count)) = run {
        flush(v, count, out);
    }
}

/// Sequential reader over a concatenation of RLE streams: hands out the
/// next `n` pixels as constant pieces, so a consumer can blend straight
/// from the records without decoding a span first.
#[derive(Debug)]
pub(crate) struct RleReader<'a> {
    bytes: &'a [u8],
    value: Rgba,
    left: usize,
}

impl<'a> RleReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> RleReader<'a> {
        assert_eq!(bytes.len() % 20, 0, "corrupt RLE stream");
        RleReader { bytes, value: [0.0; 4], left: 0 }
    }

    /// Feed the next `dst.len()` pixels to `f(dst_piece, value)`, one call
    /// per constant piece.
    pub(crate) fn take(&mut self, mut dst: &mut [Rgba], mut f: impl FnMut(&mut [Rgba], Rgba)) {
        while !dst.is_empty() {
            if self.left == 0 {
                let (rec, rest) = self.bytes.split_at(20);
                self.bytes = rest;
                self.left = u32::from_le_bytes(rec[0..4].try_into().unwrap()) as usize;
                for (c, slot) in self.value.iter_mut().enumerate() {
                    let o = 4 + c * 4;
                    *slot = f32::from_le_bytes(rec[o..o + 4].try_into().unwrap());
                }
                continue;
            }
            let n = self.left.min(dst.len());
            let (piece, rest) = std::mem::take(&mut dst).split_at_mut(n);
            f(piece, self.value);
            self.left -= n;
            dst = rest;
        }
    }
}

/// Decode an RLE span (inverse of [`rle_encode`]).
pub fn rle_decode(bytes: &[u8]) -> Vec<Rgba> {
    assert_eq!(bytes.len() % 20, 0, "corrupt RLE stream");
    let mut out = Vec::new();
    for rec in bytes.chunks_exact(20) {
        let count = u32::from_le_bytes(rec[0..4].try_into().unwrap()) as usize;
        let mut v = [0.0f32; 4];
        for (c, vslot) in v.iter_mut().enumerate() {
            let o = 4 + c * 4;
            *vslot = f32::from_le_bytes(rec[o..o + 4].try_into().unwrap());
        }
        out.resize(out.len() + count, v);
    }
    out
}

/// `encoded size / raw size` — below 1.0 means compression helped.
pub fn compression_ratio(pixels: &[Rgba]) -> f64 {
    if pixels.is_empty() {
        return 1.0;
    }
    rle_encode(pixels).len() as f64 / (pixels.len() * 16) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        assert_eq!(rle_decode(&rle_encode(&[])), Vec::<Rgba>::new());
    }

    #[test]
    fn roundtrip_constant_run() {
        let px = vec![[0.0f32, 0.0, 0.0, 0.0]; 1000];
        let enc = rle_encode(&px);
        assert_eq!(enc.len(), 20, "one record for a constant run");
        assert_eq!(rle_decode(&enc), px);
    }

    #[test]
    fn roundtrip_mixed() {
        let mut px = Vec::new();
        for i in 0..257 {
            let v = (i % 5) as f32 / 5.0;
            for _ in 0..(i % 7 + 1) {
                px.push([v, v * 0.5, 0.0, v]);
            }
        }
        assert_eq!(rle_decode(&rle_encode(&px)), px);
    }

    #[test]
    fn worst_case_inflation_bounded() {
        let px: Vec<Rgba> = (0..100).map(|i| [i as f32, 0.0, 0.0, 1.0]).collect();
        let enc = rle_encode(&px);
        assert_eq!(enc.len(), 100 * 20);
        assert_eq!(rle_decode(&enc), px);
    }

    #[test]
    fn transparent_heavy_compresses_well() {
        let mut px = vec![[0.0f32; 4]; 900];
        px.extend(vec![[0.5f32, 0.2, 0.1, 0.9]; 100]);
        let r = compression_ratio(&px);
        assert!(r < 0.01, "two runs over 1000 pixels should compress hard, got {r}");
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn corrupt_stream_panics() {
        rle_decode(&[1, 2, 3]);
    }
}
