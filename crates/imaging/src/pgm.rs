//! Portable grey-map (PGM) encoding and decoding.
//!
//! Supports the two standard flavours:
//!
//! * `P2` — ASCII, human-readable, handy for fixtures and debugging;
//! * `P5` — binary, compact, 1 byte/pixel for maxval ≤ 255 and
//!   2 big-endian bytes/pixel for larger maxvals (per the Netpbm spec).
//!
//! The decoder accepts `#` comments anywhere whitespace is allowed in the
//! header, as the spec requires.

use crate::image::{Image, Intensity};
use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::path::Path;

/// Errors produced by the PGM codec.
#[derive(Debug)]
pub enum PgmError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a syntactically valid PGM stream.
    Malformed(String),
    /// The image's intensity range does not fit the requested encoding.
    Range(String),
}

impl fmt::Display for PgmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgmError::Io(e) => write!(f, "pgm io error: {e}"),
            PgmError::Malformed(m) => write!(f, "malformed pgm: {m}"),
            PgmError::Range(m) => write!(f, "pgm range error: {m}"),
        }
    }
}

impl std::error::Error for PgmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PgmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PgmError {
    fn from(e: io::Error) -> Self {
        PgmError::Io(e)
    }
}

/// Which on-disk flavour to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// ASCII (`P2`).
    Ascii,
    /// Binary (`P5`).
    Binary,
}

/// Writes `img` in the requested flavour with the given `maxval`.
///
/// `maxval` must be at least the image's maximum intensity and at most
/// 65535; pass `None` to use the intensity type's full range.
pub fn write<P: Intensity, W: Write>(
    img: &Image<P>,
    maxval: Option<u32>,
    flavor: Flavor,
    mut w: W,
) -> Result<(), PgmError> {
    let (_, hi) = img.min_max();
    let maxval = maxval.unwrap_or_else(|| P::MAX_VALUE.to_u32().min(65_535));
    if maxval == 0 || maxval > 65_535 {
        return Err(PgmError::Range(format!(
            "maxval {maxval} out of [1, 65535]"
        )));
    }
    if hi.to_u32() > maxval {
        return Err(PgmError::Range(format!(
            "image max {} exceeds maxval {maxval}",
            hi.to_u32()
        )));
    }
    match flavor {
        Flavor::Ascii => {
            writeln!(w, "P2")?;
            writeln!(w, "# region-growing reproduction output")?;
            writeln!(w, "{} {}", img.width(), img.height())?;
            writeln!(w, "{maxval}")?;
            for y in 0..img.height() {
                let mut line = String::with_capacity(img.width() * 4);
                for (i, p) in img.row(y).iter().enumerate() {
                    if i > 0 {
                        line.push(' ');
                    }
                    line.push_str(&p.to_u32().to_string());
                }
                writeln!(w, "{line}")?;
            }
        }
        Flavor::Binary => {
            write!(w, "P5\n{} {}\n{}\n", img.width(), img.height(), maxval)?;
            if maxval <= 255 {
                let mut buf = Vec::with_capacity(img.len());
                buf.extend(img.pixels().iter().map(|p| p.to_u32() as u8));
                w.write_all(&buf)?;
            } else {
                let mut buf = Vec::with_capacity(img.len() * 2);
                for p in img.pixels() {
                    let v = p.to_u32() as u16;
                    buf.extend_from_slice(&v.to_be_bytes());
                }
                w.write_all(&buf)?;
            }
        }
    }
    Ok(())
}

/// Writes `img` to `path` (binary flavour, full-range maxval).
pub fn save<P: Intensity>(img: &Image<P>, path: impl AsRef<Path>) -> Result<(), PgmError> {
    let f = std::fs::File::create(path)?;
    write(img, None, Flavor::Binary, io::BufWriter::new(f))
}

/// Token scanner for PGM headers: skips whitespace and `#` comments.
struct HeaderScanner<R: Read> {
    inner: io::Bytes<R>,
    /// One byte of lookahead already consumed from `inner`.
    peeked: Option<u8>,
}

impl<R: Read> HeaderScanner<R> {
    // The scanner is always constructed over a BufRead (see `read`), so
    // byte-at-a-time iteration stays in the caller's buffer.
    #[allow(clippy::unbuffered_bytes)]
    fn new(r: R) -> Self {
        Self {
            inner: r.bytes(),
            peeked: None,
        }
    }

    fn next_byte(&mut self) -> Result<Option<u8>, PgmError> {
        if let Some(b) = self.peeked.take() {
            return Ok(Some(b));
        }
        match self.inner.next() {
            None => Ok(None),
            Some(Ok(b)) => Ok(Some(b)),
            Some(Err(e)) => Err(PgmError::Io(e)),
        }
    }

    /// Reads the next whitespace-delimited token, skipping comments.
    fn token(&mut self) -> Result<String, PgmError> {
        let mut tok = String::new();
        loop {
            match self.next_byte()? {
                None => {
                    if tok.is_empty() {
                        return Err(PgmError::Malformed("unexpected end of header".into()));
                    }
                    return Ok(tok);
                }
                Some(b'#') if tok.is_empty() => {
                    // Comment runs to end of line.
                    loop {
                        match self.next_byte()? {
                            None | Some(b'\n') => break,
                            Some(_) => {}
                        }
                    }
                }
                Some(b) if b.is_ascii_whitespace() => {
                    if !tok.is_empty() {
                        return Ok(tok);
                    }
                }
                Some(b) => tok.push(b as char),
            }
        }
    }

    fn number(&mut self) -> Result<u32, PgmError> {
        let tok = self.token()?;
        tok.parse::<u32>()
            .map_err(|_| PgmError::Malformed(format!("expected number, found {tok:?}")))
    }
}

/// Samples reserved before any is read: a 1024² image's worth, so a
/// header's size claim alone never commits memory.
const MAX_UPFRONT_SAMPLES: usize = 1 << 20;

/// Reads a PGM stream (either flavour) into an image.
///
/// Intensities wider than `P` are rejected with [`PgmError::Range`].
pub fn read<P: Intensity, R: BufRead>(mut r: R) -> Result<Image<P>, PgmError> {
    let mut scanner = HeaderScanner::new(&mut r);
    let magic = scanner.token()?;
    let binary = match magic.as_str() {
        "P2" => false,
        "P5" => true,
        other => {
            return Err(PgmError::Malformed(format!(
                "unsupported magic {other:?} (want P2 or P5)"
            )))
        }
    };
    let width = scanner.number()? as usize;
    let height = scanner.number()? as usize;
    let maxval = scanner.number()?;
    if width == 0 || height == 0 {
        return Err(PgmError::Malformed("zero dimension".into()));
    }
    if maxval == 0 || maxval > 65_535 {
        return Err(PgmError::Malformed(format!("bad maxval {maxval}")));
    }
    if maxval > P::MAX_VALUE.to_u32() {
        return Err(PgmError::Range(format!(
            "maxval {maxval} exceeds pixel type capacity {}",
            P::MAX_VALUE.to_u32()
        )));
    }
    let too_large = || PgmError::Malformed(format!("{width}x{height} image is too large"));
    let n = width.checked_mul(height).ok_or_else(too_large)?;
    // The header is untrusted: reserve a bounded amount up front and let
    // the samples that actually arrive grow the buffers.
    let mut data = Vec::with_capacity(n.min(MAX_UPFRONT_SAMPLES));
    if binary {
        // Per the spec exactly one whitespace byte follows maxval; the
        // scanner has already consumed it as the token delimiter.
        let wide = maxval > 255;
        let bytes = n.checked_mul(1 + usize::from(wide)).ok_or_else(too_large)?;
        let mut buf = Vec::with_capacity(bytes.min(2 * MAX_UPFRONT_SAMPLES));
        r.by_ref().take(bytes as u64).read_to_end(&mut buf)?;
        if buf.len() < bytes {
            return Err(PgmError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("stream ends after {} of {bytes} sample bytes", buf.len()),
            )));
        }
        if wide {
            data.extend(
                buf.chunks_exact(2)
                    .map(|c| P::from_u32_saturating(u16::from_be_bytes([c[0], c[1]]) as u32)),
            );
        } else {
            data.extend(buf.into_iter().map(|b| P::from_u32_saturating(b as u32)));
        }
    } else {
        for _ in 0..n {
            let v = scanner.number()?;
            if v > maxval {
                return Err(PgmError::Malformed(format!(
                    "sample {v} exceeds maxval {maxval}"
                )));
            }
            data.push(P::from_u32_saturating(v));
        }
    }
    Ok(Image::from_vec(width, height, data))
}

/// Reads a PGM file from `path`.
pub fn load<P: Intensity>(path: impl AsRef<Path>) -> Result<Image<P>, PgmError> {
    let f = std::fs::File::open(path)?;
    read(io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Image<u8> {
        Image::from_fn(5, 3, |x, y| (x * 10 + y) as u8)
    }

    #[test]
    fn ascii_roundtrip() {
        let img = sample();
        let mut buf = Vec::new();
        write(&img, Some(255), Flavor::Ascii, &mut buf).unwrap();
        let back: Image<u8> = read(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn binary_roundtrip_u8() {
        let img = sample();
        let mut buf = Vec::new();
        write(&img, Some(255), Flavor::Binary, &mut buf).unwrap();
        let back: Image<u8> = read(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn binary_roundtrip_u16_wide() {
        let img: Image<u16> = Image::from_fn(3, 3, |x, y| (x * 1000 + y * 7) as u16);
        let mut buf = Vec::new();
        write(&img, Some(65_535), Flavor::Binary, &mut buf).unwrap();
        let back: Image<u16> = read(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn comments_are_skipped() {
        let text = b"P2 # magic\n# a comment line\n 3 # width\n1\n255\n1 2 3\n";
        let img: Image<u8> = read(&text[..]).unwrap();
        assert_eq!(img.pixels(), &[1, 2, 3]);
    }

    #[test]
    fn rejects_bad_magic() {
        let text = b"P6\n1 1\n255\n\x00";
        assert!(matches!(
            read::<u8, _>(&text[..]),
            Err(PgmError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_sample_above_maxval() {
        let text = b"P2\n2 1\n10\n5 11\n";
        assert!(matches!(
            read::<u8, _>(&text[..]),
            Err(PgmError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_maxval_too_wide_for_type() {
        let text = b"P2\n1 1\n300\n5\n";
        assert!(matches!(read::<u8, _>(&text[..]), Err(PgmError::Range(_))));
    }

    #[test]
    fn rejects_truncated_binary() {
        let mut buf = b"P5\n4 4\n255\n".to_vec();
        buf.extend_from_slice(&[1, 2, 3]); // 13 bytes short
        assert!(matches!(read::<u8, _>(&buf[..]), Err(PgmError::Io(_))));
    }

    #[test]
    fn oversized_header_is_an_error_not_a_panic() {
        for magic in ["P5", "P2"] {
            let text = format!("{magic}\n4294967295 4294967295\n255\n");
            assert!(
                read::<u8, _>(text.as_bytes()).is_err(),
                "{magic} must be rejected"
            );
        }
    }

    #[test]
    fn header_promising_more_samples_than_the_stream_holds_is_rejected() {
        let mut p5 = b"P5\n3000 2000\n255\n".to_vec();
        p5.extend_from_slice(&[7; 100]);
        assert!(matches!(read::<u8, _>(&p5[..]), Err(PgmError::Io(_))));
        let mut wide = b"P5\n3000 2000\n65535\n".to_vec();
        wide.extend_from_slice(&[7; 101]);
        assert!(matches!(read::<u16, _>(&wide[..]), Err(PgmError::Io(_))));
        let p2 = b"P2\n3000 2000\n255\n1 2 3\n";
        assert!(matches!(
            read::<u8, _>(&p2[..]),
            Err(PgmError::Malformed(_))
        ));
    }

    #[test]
    fn write_rejects_out_of_range() {
        let img: Image<u16> = Image::from_vec(1, 1, vec![300]);
        let mut buf = Vec::new();
        assert!(matches!(
            write(&img, Some(255), Flavor::Binary, &mut buf),
            Err(PgmError::Range(_))
        ));
    }

    #[test]
    fn save_and_load_tempfile() {
        let img = sample();
        let dir = std::env::temp_dir().join("rg_imaging_pgm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.pgm");
        save(&img, &path).unwrap();
        let back: Image<u8> = load(&path).unwrap();
        assert_eq!(back, img);
        std::fs::remove_file(path).ok();
    }
}
