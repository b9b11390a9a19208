//! The one byte reader and writer every wire codec in the workspace is
//! built on.
//!
//! All integers are big-endian. [`Reader`] walks a borrowed `&[u8]`; every
//! read is bounds-checked and returns [`XsecError::Codec`] on short input,
//! so a decoder written against it cannot index past hostile bytes. A
//! length prefix is only ever turned into a slice of bytes that are
//! present ([`Reader::prefixed`]), never into a capacity. [`Put`] is the
//! matching append side on the `Vec<u8>` an encoder returns; its length
//! prefixes refuse a length the field cannot hold instead of truncating it.

use crate::error::{Result, XsecError};

/// A checked cursor over received bytes. A clone reads ahead without
/// moving the original.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() {
            let have = self.buf.len();
            return Err(XsecError::Codec(format!("truncated input: need {n} bytes, have {have}")));
        }
        let (front, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(front)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) yields N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// One byte that must be 0 or 1.
    pub fn flag(&mut self) -> Result<bool> {
        self.code("flag", |b| match b {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        })
    }

    /// One byte mapped through an enumeration's `from_code`; a code the
    /// enumeration does not assign is an error naming `what`.
    pub fn code<T>(&mut self, what: &str, from_code: impl FnOnce(u8) -> Option<T>) -> Result<T> {
        let code = self.u8()?;
        from_code(code).ok_or_else(|| XsecError::Codec(format!("bad {what} code {code}")))
    }

    /// An `N`-byte big-endian length or count ([`Put::put_len`]'s inverse).
    pub fn count<const N: usize>(&mut self) -> Result<u64> {
        let mut be = [0u8; 8];
        be[8 - N..].copy_from_slice(self.bytes(N)?);
        Ok(u64::from_be_bytes(be))
    }

    /// An `N`-byte big-endian length, then that many bytes.
    pub fn prefixed<const N: usize>(&mut self) -> Result<&'a [u8]> {
        let len = self.count::<N>()?;
        // A length beyond `usize` is certainly beyond the input.
        self.bytes(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Ends the read: input left over is an error.
    pub fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(XsecError::Codec(format!("{} trailing bytes", self.buf.len())))
        }
    }
}

/// Big-endian appends to the `Vec<u8>` an encoder returns.
pub trait Put {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends `len` as an `N`-byte big-endian length or count, or appends
    /// nothing and errors when `N` bytes cannot hold it.
    fn put_len<const N: usize>(&mut self, len: usize) -> Result<()>;
    /// Appends `bytes` behind their `N`-byte length ([`Reader::prefixed`]'s
    /// inverse).
    fn put_prefixed<const N: usize>(&mut self, bytes: &[u8]) -> Result<()>;
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_len<const N: usize>(&mut self, len: usize) -> Result<()> {
        let be = (len as u64).to_be_bytes();
        let (high, low) = be.split_at(8 - N);
        if high.iter().any(|b| *b != 0) {
            return Err(XsecError::Codec(format!("length {len} does not fit its {N}-byte field")));
        }
        self.extend_from_slice(low);
        Ok(())
    }

    fn put_prefixed<const N: usize>(&mut self, bytes: &[u8]) -> Result<()> {
        self.put_len::<N>(bytes.len())?;
        self.extend_from_slice(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_read_back_big_endian_in_order() {
        let mut buf = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u16(0x0102);
        buf.put_u32(0x0304_0506);
        buf.put_u64(0x0708_090A_0B0C_0D0E);
        assert_eq!(buf, [0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u32().unwrap(), 0x0304_0506);
        assert!(!r.is_empty());
        assert_eq!(r.u64().unwrap(), 0x0708_090A_0B0C_0D0E);
        assert!(r.is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn a_short_read_errors_and_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32().unwrap_err().category(), "codec");
        assert!(r.u64().is_err());
        assert!(r.bytes(4).is_err());
        assert_eq!(r.bytes(3).unwrap(), [1, 2, 3], "a failed read must not advance");
        assert!(r.u8().is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn flag_and_code_reject_unassigned_values() {
        assert!(!Reader::new(&[0]).flag().unwrap());
        assert!(Reader::new(&[1]).flag().unwrap());
        assert!(Reader::new(&[2]).flag().is_err());
        let cause = |b| Reader::new(&[b]).code("cause", crate::ReleaseCause::from_code);
        assert_eq!(cause(3).unwrap(), crate::ReleaseCause::Congestion);
        assert!(cause(4).unwrap_err().to_string().contains("bad cause code 4"));
    }

    #[test]
    fn prefixed_round_trips_and_never_trusts_the_length() {
        let mut buf = Vec::new();
        buf.put_prefixed::<2>(b"abc").unwrap();
        buf.put_prefixed::<4>(b"").unwrap();
        assert_eq!(buf, [0, 3, b'a', b'b', b'c', 0, 0, 0, 0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.prefixed::<2>().unwrap(), b"abc");
        assert_eq!(r.prefixed::<4>().unwrap(), b"");
        r.finish().unwrap();
        // A length claiming more than is present is an error, at any width.
        assert!(Reader::new(&[0xFF, 0xFF, 1]).prefixed::<2>().is_err());
        assert!(Reader::new(&[0xFF; 8]).prefixed::<8>().is_err());
        assert!(Reader::new(&[0]).prefixed::<2>().is_err());
    }

    #[test]
    fn put_len_is_exact_at_the_field_boundary() {
        let mut buf = Vec::new();
        buf.put_len::<1>(255).unwrap();
        buf.put_len::<2>(65_535).unwrap();
        buf.put_len::<4>(u32::MAX as usize).unwrap();
        assert_eq!(buf, [0xFF; 7]);
        for (over, result) in [
            (256, buf.put_len::<1>(256)),
            (65_536, buf.put_len::<2>(65_536)),
            (1usize << 32, buf.put_len::<4>(1 << 32)),
        ] {
            assert_eq!(result.unwrap_err().category(), "codec", "{over} was accepted");
        }
        assert!(buf.put_prefixed::<1>(&[0; 256]).is_err());
        assert_eq!(buf.len(), 7, "a refused length must append nothing");
    }
}
