//! Hostile bytes for the decoders' tests: every truncation and every
//! single-byte flip of a frame a sender could have sent.

use crate::frame::DecodeError;

/// Every strict prefix of `bytes`, shortest first, then every copy of
/// `bytes` with one byte flipped by `flip` and by the lowest, highest and
/// all bits. Truncations are shorter than `bytes`, flips as long.
pub fn variants(bytes: &[u8], flip: u8) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flips = (0..bytes.len()).flat_map(move |at| {
        [flip, 0x01, 0x80, 0xff].map(|mask| {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            flipped
        })
    });
    cuts.chain(flips)
}

/// Checks `decode` against `bytes` and each of its [`variants`]: `bytes`
/// decodes to a value that encodes back to it, every truncation is refused,
/// and every flip is refused or decodes to a value that encodes back to
/// exactly the flipped bytes — never a panic, and never a value the sender
/// could not have sent. Returns the first violation.
pub fn sweep<T>(
    bytes: &[u8],
    flip: u8,
    decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<(), String> {
    if decode(bytes).map(|value| encode(&value)).as_deref() != Ok(bytes) {
        return Err(format!("the frame does not round-trip: {bytes:?}"));
    }
    let other = |v: &Vec<u8>| decode(v).is_ok_and(|x| v.len() < bytes.len() || encode(&x) != *v);
    match variants(bytes, flip).find(other) {
        Some(variant) => Err(format!("a truncation or flip decodes: {variant:?}")),
        None => Ok(()),
    }
}
