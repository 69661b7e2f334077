//! One checked reader under every frame decoder (DESIGN.md item 19).
//!
//! Every decoder meets bytes a faulty or hostile peer may have sent, so each
//! reads through a [`Reader`]: fixed-width fields that fail instead of
//! panicking, runs whose count is checked against the bytes left *before*
//! anything is reserved, and [`Reader::finish`], which refuses trailing
//! bytes. Every refusal is one [`DecodeError`]. Fields are little-endian;
//! the `be_*` reads serve the transformation's records, which `bytes`'
//! `BufMut` writes big-endian.
#![expect(clippy::disallowed_methods, reason = "the one module that reads fixed-width fields")]

use std::fmt;

/// Why a frame was refused, and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset into the frame where decoding stopped.
    pub offset: usize,
    /// What was wrong there.
    pub what: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// One checked read per line: `name -> type = conversion, "doc";`.
macro_rules! reads {
    ($($name:ident -> $t:ty = $from:path, $doc:literal;)*) => {$(
        #[doc = $doc]
        pub fn $name(&mut self) -> Result<$t, DecodeError> {
            self.array().map($from)
        }
    )*};
}

/// One checked run of `n` items per line, as [`reads`] lists them.
macro_rules! runs {
    ($($name:ident -> $t:ty = $from:path, $doc:literal;)*) => {$(
        #[doc = $doc]
        pub fn $name(
            &mut self,
            n: usize,
        ) -> Result<impl ExactSizeIterator<Item = $t> + 'a, DecodeError> {
            self.run(n, $from)
        }
    )*};
}

/// A bounds-checked cursor over one frame's bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A refusal at the current offset.
    pub fn error(&self, what: impl Into<String>) -> DecodeError {
        DecodeError { offset: self.pos, what: what.into() }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            let left = self.remaining();
            return Err(self.error(format!("truncated: {n} bytes wanted, {left} left")));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (array, _) = self.take(N)?.split_first_chunk::<N>().expect("take returns N bytes");
        Ok(*array)
    }

    reads! {
        u8 -> u8 = u8::from_le_bytes, "One byte.";
        u16 -> u16 = u16::from_le_bytes, "A little-endian `u16`.";
        u32 -> u32 = u32::from_le_bytes, "A little-endian `u32`.";
        u64 -> u64 = u64::from_le_bytes, "A little-endian `u64`.";
        f32 -> f32 = f32::from_le_bytes, "A little-endian `f32`.";
        f64 -> f64 = f64::from_le_bytes, "A little-endian `f64`.";
        be_u16 -> u16 = u16::from_be_bytes, "A big-endian `u16`.";
        be_u32 -> u32 = u32::from_be_bytes, "A big-endian `u32`.";
        be_u64 -> u64 = u64::from_be_bytes, "A big-endian `u64`.";
    }

    /// A byte that must be 0 (`false`) or 1 (`true`).
    pub fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError { offset: self.pos - 1, what: format!("flag byte {b}") }),
        }
    }

    /// `n`, if the bytes left can hold `n` items of at least `item_bytes`
    /// bytes each: a count checked before it sizes an allocation.
    pub fn count(&self, n: usize, item_bytes: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(item_bytes) {
            Some(len) if len <= self.remaining() => Ok(n),
            _ => Err(self.error(format!("{n} items of {item_bytes} bytes past the end"))),
        }
    }

    /// `n` fixed-width items, checked in one [`Self::take`]: nothing is
    /// read or reserved unless all of their bytes are there.
    fn run<const N: usize, T>(
        &mut self,
        n: usize,
        from: impl Fn([u8; N]) -> T + 'a,
    ) -> Result<impl ExactSizeIterator<Item = T> + 'a, DecodeError> {
        let len = self.count(n, N)? * N;
        Ok(self.take(len)?.as_chunks::<N>().0.iter().map(move |&chunk| from(chunk)))
    }

    runs! {
        u32s -> u32 = u32::from_le_bytes, "`n` little-endian `u32`s.";
        f32s -> f32 = f32::from_le_bytes, "`n` little-endian `f32`s.";
        f64s -> f64 = f64::from_le_bytes, "`n` little-endian `f64`s.";
        be_f32s -> f32 = f32::from_be_bytes, "`n` big-endian `f32`s.";
    }

    /// Refuses any byte left unread.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(self.error(format!("{left} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_checked_and_counts_refused_before_reserving() {
        let bytes = [1, 0, 2, 0, 0, 0, 7, 1, 2];
        let mut r = Reader::new(&bytes);
        assert_eq!((r.u16(), r.u32(), r.u8(), r.flag()), (Ok(1), Ok(2), Ok(7), Ok(true)));
        assert_eq!(r.flag(), Err(DecodeError { offset: 8, what: "flag byte 2".into() }));
        assert_eq!(r.u8().map_err(|e| e.offset), Err(9));
        let mut r = Reader::new(&bytes);
        assert!(r.count(usize::MAX, 8).is_err());
        assert!(r.f64s(2).is_err());
        assert_eq!(r.remaining(), bytes.len(), "a refused run reads nothing");
        assert_eq!(r.count(4, 2), Ok(4));
        assert_eq!(r.u32s(2).map(Iterator::collect::<Vec<_>>), Ok(vec![0x0002_0001, 0x0107_0000]));
        assert_eq!(r.finish().map_err(|e| e.what), Err("1 trailing bytes".to_string()));
        assert_eq!(Reader::new(&[0, 1]).be_u16(), Ok(1));
    }
}
