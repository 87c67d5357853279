//! Timestamped messages and the little-endian payload codecs, which
//! decode from any `&[u8]`.

/// A message in flight: the sender's rank, the virtual time at which it
/// left the sender, and the payload.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sender rank.
    pub src: usize,
    /// Sender-side virtual timestamp, nanoseconds.
    pub ts_ns: f64,
    /// Payload bytes, moved from sender to receiver.
    pub payload: Vec<u8>,
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
pub fn encode_u32s(data: &[u32]) -> Vec<u8> {
    let mut b = Vec::with_capacity(data.len() * 4);
    for v in data {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b
}

/// Decodes a little-endian `u32` payload, rejecting truncated or
/// misaligned lengths: a corrupted payload surfaces as a recoverable
/// `Err`, not an abort.
pub fn try_decode_u32s(b: &[u8]) -> Result<Vec<u32>, DecodeError> {
    let (words, rest) = b.as_chunks::<4>();
    if !rest.is_empty() {
        return Err(DecodeError {
            len: b.len(),
            elem: 4,
        });
    }
    Ok(words.iter().map(|&w| u32::from_le_bytes(w)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let data = vec![0u32, 1, u32::MAX, 0xDEAD_BEEF];
        assert_eq!(try_decode_u32s(&encode_u32s(&data)), Ok(data));
        assert_eq!(try_decode_u32s(&[]), Ok(Vec::new()));
    }

    #[test]
    fn try_decoders_reject_truncation() {
        // A u32 payload losing its last byte.
        let mut bytes = encode_u32s(&[1, 2]);
        bytes.pop();
        assert_eq!(
            try_decode_u32s(&bytes),
            Err(DecodeError { len: 7, elem: 4 })
        );
        // A payload shorter than one element.
        let short = [1u8, 2, 3];
        assert_eq!(
            try_decode_u32s(&short),
            Err(DecodeError { len: 3, elem: 4 })
        );
    }

    #[test]
    fn try_decoders_reject_misalignment() {
        assert!(try_decode_u32s(&[0u8; 6]).is_err());
        assert!(try_decode_u32s(&[0u8; 12]).is_ok());
    }

    #[test]
    fn decode_error_display_names_both_numbers() {
        let e = DecodeError { len: 7, elem: 4 };
        assert_eq!(e.to_string(), "payload length 7 is not a multiple of 4");
    }
}
