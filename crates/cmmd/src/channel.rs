//! Timestamped message channels and payload encoding helpers.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A message in flight: the sender's rank, the virtual time at which it
/// left the sender, and the payload.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sender rank.
    pub src: usize,
    /// Sender-side virtual timestamp, nanoseconds.
    pub ts_ns: f64,
    /// Payload bytes.
    pub payload: Bytes,
}

/// A payload whose length is not a whole number of elements — truncated or
/// misaligned, e.g. after corruption in a chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The payload length observed.
    pub len: usize,
    /// The element size the decoder expected the length to divide by.
    pub elem: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "payload length {} is not a multiple of {}",
            self.len, self.elem
        )
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a `u32` slice little-endian.
pub fn encode_u32s(data: &[u32]) -> Bytes {
    let mut b = BytesMut::with_capacity(data.len() * 4);
    for &v in data {
        b.put_u32_le(v);
    }
    b.freeze()
}

/// Decodes a little-endian `u32` payload, rejecting truncated or
/// misaligned lengths: a corrupted payload surfaces as a recoverable
/// `Err`, not an abort.
pub fn try_decode_u32s(mut b: Bytes) -> Result<Vec<u32>, DecodeError> {
    if !b.len().is_multiple_of(4) {
        return Err(DecodeError {
            len: b.len(),
            elem: 4,
        });
    }
    let mut out = Vec::with_capacity(b.len() / 4);
    while b.has_remaining() {
        out.push(b.get_u32_le());
    }
    Ok(out)
}

/// Encodes a `u64` slice little-endian.
pub fn encode_u64s(data: &[u64]) -> Bytes {
    let mut b = BytesMut::with_capacity(data.len() * 8);
    for &v in data {
        b.put_u64_le(v);
    }
    b.freeze()
}

/// Decodes a little-endian `u64` payload, rejecting truncated or
/// misaligned lengths.
pub fn try_decode_u64s(mut b: Bytes) -> Result<Vec<u64>, DecodeError> {
    if !b.len().is_multiple_of(8) {
        return Err(DecodeError {
            len: b.len(),
            elem: 8,
        });
    }
    let mut out = Vec::with_capacity(b.len() / 8);
    while b.has_remaining() {
        out.push(b.get_u64_le());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let data = vec![0u32, 1, u32::MAX, 0xDEAD_BEEF];
        assert_eq!(try_decode_u32s(encode_u32s(&data)), Ok(data));
        assert_eq!(try_decode_u32s(Bytes::new()), Ok(Vec::new()));
    }

    #[test]
    fn u64_roundtrip() {
        let data = vec![0u64, u64::MAX, 0x0123_4567_89AB_CDEF];
        assert_eq!(try_decode_u64s(encode_u64s(&data)), Ok(data));
    }

    #[test]
    fn try_decoders_reject_truncation() {
        // A u32 payload losing its last byte.
        let mut bytes = encode_u32s(&[1, 2]).to_vec();
        bytes.pop();
        assert_eq!(
            try_decode_u32s(Bytes::from(bytes)),
            Err(DecodeError { len: 7, elem: 4 })
        );
        // A u64 payload losing three bytes.
        let mut bytes = encode_u64s(&[7]).to_vec();
        bytes.truncate(5);
        assert_eq!(
            try_decode_u64s(Bytes::from(bytes)),
            Err(DecodeError { len: 5, elem: 8 })
        );
    }

    #[test]
    fn try_decoders_reject_misalignment() {
        assert!(try_decode_u32s(Bytes::from(vec![0u8; 6])).is_err());
        // A length that is /4 but not /8 is valid u32 data, invalid u64.
        assert!(try_decode_u32s(Bytes::from(vec![0u8; 12])).is_ok());
        assert!(try_decode_u64s(Bytes::from(vec![0u8; 12])).is_err());
    }

    #[test]
    fn try_decoders_accept_good_payloads() {
        let data = vec![3u32, 1, 4, 1, 5];
        assert_eq!(try_decode_u32s(encode_u32s(&data)), Ok(data));
        let data = vec![9u64, 2, 6];
        assert_eq!(try_decode_u64s(encode_u64s(&data)), Ok(data));
        assert_eq!(try_decode_u64s(Bytes::new()), Ok(Vec::new()));
    }

    #[test]
    fn decode_error_display_names_both_numbers() {
        let e = DecodeError { len: 7, elem: 4 };
        assert_eq!(e.to_string(), "payload length 7 is not a multiple of 4");
    }
}
