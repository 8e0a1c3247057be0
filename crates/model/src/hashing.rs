//! Stable hashing.
//!
//! The standard library's `DefaultHasher` is explicitly unstable across
//! releases and process invocations are only saved by it currently being
//! unkeyed — too fragile for digests that are persisted or compared across
//! builds (system digests, cache keys, the explorer's state dedup), and
//! previously this hashing was duplicated ad hoc. [`StableHasher`] is the
//! single implementation: 64-bit FNV-1a with every integer write widened to
//! little-endian bytes, so a given value hashes identically on every
//! platform, forever (pinned by a unit test below).
//!
//! [`crate::System`]'s indistinguishability index uses it only to bucket
//! `(parent class, event)` keys of its prefix tries; keys are always
//! compared exactly, so a collision can cost time but never correctness.

use crate::Event;
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A [`Hasher`] with a platform- and version-independent byte stream:
/// 64-bit FNV-1a, with multi-byte integers contributed as little-endian.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher { state: FNV_OFFSET }
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    // Pointer-width integers are widened to 64 bits so 32- and 64-bit
    // targets agree.
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_i64(i as i64);
    }
}

/// Stable 64-bit hash of any `Hash` value.
#[must_use]
pub fn stable_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Stable hash of a local history prefix. The indistinguishability index
/// does not hash whole histories (see [`crate::System`]); this remains for
/// callers that do, and its pinned values also guard [`StableHasher`]'s
/// byte stream.
#[must_use]
pub fn hash_history<M: Hash>(events: &[Event<M>]) -> u64 {
    stable_hash(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, ProcessId};

    #[test]
    fn history_hash_is_pinned() {
        // Stability pin: these constants must never change. If this test
        // fails, the hash function (or the derived `Hash` of `Event`) has
        // changed and every persisted or cross-build comparison of history
        // hashes is silently broken — fix the regression, don't repin.
        let empty: &[Event<u16>] = &[];
        assert_eq!(hash_history(empty), 0xa8c7_f832_281a_39c5);

        let history: Vec<Event<u16>> = vec![
            Event::Send {
                to: ProcessId::new(1),
                msg: 7,
            },
            Event::Recv {
                from: ProcessId::new(0),
                msg: 7,
            },
            Event::Crash,
        ];
        assert_eq!(hash_history(&history), 0xeaf2_3c41_7288_83f2);
    }

    #[test]
    fn prefixes_hash_differently() {
        let history: Vec<Event<u16>> = vec![
            Event::Send {
                to: ProcessId::new(1),
                msg: 3,
            },
            Event::Send {
                to: ProcessId::new(1),
                msg: 3,
            },
        ];
        assert_ne!(hash_history(&history[..1]), hash_history(&history));
        assert_ne!(hash_history(&history[..0]), hash_history(&history[..1]));
    }

    #[test]
    fn integer_writes_match_byte_writes() {
        // The LE widening contract: hashing 0x0102030405060708u64 must equal
        // hashing its little-endian bytes.
        let mut a = StableHasher::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = StableHasher::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());

        let mut c = StableHasher::new();
        c.write_usize(42);
        let mut d = StableHasher::new();
        d.write_u64(42);
        assert_eq!(c.finish(), d.finish());
    }
}
