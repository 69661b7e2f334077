//! Packed 〈id, bin〉 pairs: the one in-memory form of a sparse pair.
//!
//! Vero's transformation (paper §4.2.1 step 3, Figure 9) renumbers a column
//! group's features and replaces every value with its bin index, so a pair
//! needs only `⌈log₂ p⌉ + ⌈log₂ q⌉` bits — the width the step-4 block ships
//! ([`crate::encoding::encode_block`]). [`PairKeys`] keeps that width in
//! memory: each pair is one key `(id << b) | bin`, `b` the bits of the
//! store's largest bin count, held in the narrowest of `u16`, `u32` and
//! `u64` that fits `n_ids · 2^b` keys. The id is a feature in a row-store
//! and an instance in a column-store, so the width follows the id's
//! cardinality: a 2 000-feature group at q = 20 packs a pair in 2 bytes,
//! 80 000 instances at the same q in 4.
//!
//! Keys sort exactly as the `(id, bin)` pairs they encode, so a row's (or a
//! column's) run of keys ascends by id, and a point lookup is one binary
//! search for the first key `≥ id << b`.
//!
//! The raw row-store ([`crate::CsrMatrix`]) holds its feature ids as the
//! same keys with a 0-bit bin field (`PairKeys::from_ids`): 2 bytes an id
//! up to 65 536 features, 4 above.

use crate::encoding::bits_for_cardinality;
use crate::BinId;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// An unsigned key width: `u16`, `u32` or `u64`.
pub trait PairKey: Copy + Ord {
    /// The largest key of this width.
    const MAX: u64;
    /// `v` at this width (the caller checked `v ≤ Self::MAX`).
    fn from_u64(v: u64) -> Self;
    /// The key widened.
    fn to_u64(self) -> u64;

    /// The id field of a key whose bin field is `bin_bits` wide.
    #[inline(always)]
    fn id(self, bin_bits: u32) -> usize {
        (self.to_u64() >> bin_bits) as usize
    }

    /// The bin field of a key whose bin field is `bin_bits` wide.
    #[inline(always)]
    fn bin(self, bin_bits: u32) -> usize {
        (self.to_u64() & ((1 << bin_bits) - 1)) as usize
    }
}

macro_rules! pair_key {
    ($t:ty) => {
        impl PairKey for $t {
            const MAX: u64 = <$t>::MAX as u64;

            #[inline(always)]
            fn from_u64(v: u64) -> Self {
                v as $t
            }

            #[inline(always)]
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    };
}

pair_key!(u16);
pair_key!(u32);
pair_key!(u64);

/// The key buffer at its width.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Keys {
    /// 2-byte keys: `n_ids · 2^b ≤ 2^16`.
    U16(Vec<u16>),
    /// 4-byte keys: `n_ids · 2^b ≤ 2^32`.
    U32(Vec<u32>),
    /// 8-byte keys: anything wider.
    U64(Vec<u64>),
}

/// Runs `$body` with `$keys` bound to the key slice of `$src` at its width.
macro_rules! with_keys {
    ($src:expr, $keys:ident => $body:expr) => {
        match $src {
            Keys::U16($keys) => $body,
            Keys::U32($keys) => $body,
            Keys::U64($keys) => $body,
        }
    };
}

/// Sparse 〈id, bin〉 pairs, one packed key each (module docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairKeys {
    bin_bits: u32,
    keys: Keys,
}

impl PairKeys {
    /// Room for `capacity` pairs of ids `< n_ids` and bins `< n_bins`.
    pub fn with_capacity(n_ids: usize, n_bins: usize, capacity: usize) -> Self {
        Self::with_bin_bits(n_ids, bits_for_cardinality(n_bins), capacity)
    }

    /// Room for `capacity` pairs of ids `< n_ids` and `bin_bits`-bit bins —
    /// how a shard or transpose keeps its source's bin field.
    pub fn with_bin_bits(n_ids: usize, bin_bits: u32, capacity: usize) -> Self {
        assert!(bin_bits <= 32, "{bin_bits}-bit bins");
        let span = (n_ids.max(1) as u128) << bin_bits;
        let keys = if span <= 1 << 16 {
            Keys::U16(Vec::with_capacity(capacity))
        } else if span <= 1 << 32 {
            Keys::U32(Vec::with_capacity(capacity))
        } else {
            Keys::U64(Vec::with_capacity(capacity))
        };
        PairKeys { bin_bits, keys }
    }

    /// `ids` as pairs with a 0-bit bin field, each `< n_ids`: a bare run of
    /// ids at the narrowest width, the buffer itself when that is `u32`.
    pub(crate) fn from_ids(n_ids: usize, ids: Vec<u32>) -> Self {
        let mut pairs = Self::with_bin_bits(n_ids, 0, 0);
        match &mut pairs.keys {
            Keys::U32(keys) => *keys = ids,
            keys => with_keys!(keys, k => {
                k.reserve_exact(ids.len());
                ids.iter().for_each(|&id| k.push(pack(0, id, 0)));
            }),
        }
        pairs
    }

    /// `len` pairs `(0, 0)`, to be overwritten with [`Self::set`].
    pub(crate) fn zeroed(n_ids: usize, bin_bits: u32, len: usize) -> Self {
        let mut pairs = Self::with_bin_bits(n_ids, bin_bits, 0);
        with_keys!(&mut pairs.keys, k => k.resize(len, 0));
        pairs
    }

    /// Appends a pair.
    #[inline]
    pub fn push(&mut self, id: u32, bin: BinId) {
        let bits = self.bin_bits;
        with_keys!(&mut self.keys, keys => keys.push(pack(bits, id, bin)))
    }

    /// Appends `n` pairs drawn from `next`, stopping at its first error.
    #[inline]
    pub(crate) fn try_extend<E>(
        &mut self,
        n: usize,
        mut next: impl FnMut() -> Result<(u32, BinId), E>,
    ) -> Result<(), E> {
        let bits = self.bin_bits;
        with_keys!(&mut self.keys, keys => {
            keys.reserve(n);
            for _ in 0..n {
                let (id, bin) = next()?;
                keys.push(pack(bits, id, bin));
            }
            Ok(())
        })
    }

    /// Overwrites pair `k`.
    #[inline]
    pub fn set(&mut self, k: usize, id: u32, bin: BinId) {
        let bits = self.bin_bits;
        with_keys!(&mut self.keys, keys => keys[k] = pack(bits, id, bin))
    }

    /// Pair `k` as `(id, bin)`.
    #[inline]
    pub fn get(&self, k: usize) -> (u32, BinId) {
        let bits = self.bin_bits;
        with_keys!(&self.keys, keys => (keys[k].id(bits) as u32, keys[k].bin(bits) as BinId))
    }

    /// Number of pairs.
    #[inline]
    pub fn len(&self) -> usize {
        with_keys!(&self.keys, k => k.len())
    }

    /// Whether no pair is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of the bin field.
    #[inline]
    pub fn bin_bits(&self) -> u32 {
        self.bin_bits
    }

    /// The key buffer, for kernels that decode keys in their own loops.
    #[inline]
    pub fn keys(&self) -> &Keys {
        &self.keys
    }

    /// Bytes of one key.
    pub fn key_bytes(&self) -> usize {
        match self.keys {
            Keys::U16(_) => 2,
            Keys::U32(_) => 4,
            Keys::U64(_) => 8,
        }
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.len() * self.key_bytes()
    }

    /// The pairs in `range`, in stored order.
    #[inline]
    pub fn for_each(&self, range: Range<usize>, mut f: impl FnMut(u32, BinId)) {
        let bits = self.bin_bits;
        with_keys!(&self.keys, keys => {
            for &key in &keys[range] {
                f(key.id(bits) as u32, key.bin(bits) as BinId);
            }
        })
    }

    /// The ids of the pairs in `range` appended to `out`, in stored order.
    #[inline]
    pub(crate) fn extend_ids(&self, range: Range<usize>, out: &mut Vec<u32>) {
        let bits = self.bin_bits;
        with_keys!(&self.keys, keys => out.extend(keys[range].iter().map(|k| k.id(bits) as u32)))
    }

    /// The bin paired with `id` in `range`, whose ids ascend.
    #[inline]
    pub fn find(&self, range: Range<usize>, id: u32) -> Option<BinId> {
        let bits = self.bin_bits;
        with_keys!(&self.keys, keys => {
            let run = &keys[range];
            find_in(run, bits, id).map(|at| run[at].bin(bits) as BinId)
        })
    }

    /// Where `id` sits in `range`, whose ids ascend, counted from its start.
    #[inline]
    pub(crate) fn position(&self, range: Range<usize>, id: u32) -> Option<usize> {
        let bits = self.bin_bits;
        with_keys!(&self.keys, keys => find_in(&keys[range], bits, id))
    }

    /// Stably reorders the pairs in `range` so that those whose id
    /// `goes_left` come first, and returns where the others begin. `scratch`
    /// holds the others in between; it never grows past a capacity of
    /// `range.len()`.
    pub fn partition(
        &mut self,
        range: Range<usize>,
        scratch: &mut Vec<u64>,
        goes_left: impl FnMut(u32) -> bool,
    ) -> usize {
        let (bits, start) = (self.bin_bits, range.start);
        let run = range;
        with_keys!(&mut self.keys, keys => {
            start + partition_run(&mut keys[run], bits, scratch, goes_left)
        })
    }

    /// Whether the ids in `range` strictly ascend.
    pub fn ids_ascend(&self, range: Range<usize>) -> bool {
        let bits = self.bin_bits;
        with_keys!(&self.keys, keys => {
            keys[range].windows(2).all(|w| w[0].id(bits) < w[1].id(bits))
        })
    }
}

/// The key of `(id, bin)` with a `bin_bits`-wide bin field.
#[inline(always)]
fn pack<K: PairKey>(bin_bits: u32, id: u32, bin: BinId) -> K {
    let key = u64::from(id) << bin_bits | u64::from(bin);
    debug_assert!(u64::from(bin) >> bin_bits == 0, "bin {bin} wider than its field");
    debug_assert!(key <= K::MAX, "id {id} past the key width");
    K::from_u64(key)
}

/// [`PairKeys::partition`] at one key width: lefts kept in place in order,
/// the rest stashed in `scratch` and written back after them.
#[inline]
fn partition_run<K: PairKey>(
    run: &mut [K],
    bin_bits: u32,
    scratch: &mut Vec<u64>,
    mut goes_left: impl FnMut(u32) -> bool,
) -> usize {
    scratch.clear();
    let mut write = 0;
    for k in 0..run.len() {
        let key = run[k];
        if goes_left(key.id(bin_bits) as u32) {
            run[write] = key;
            write += 1;
        } else {
            scratch.push(key.to_u64());
        }
    }
    for (dst, &key) in run[write..].iter_mut().zip(scratch.iter()) {
        *dst = K::from_u64(key);
    }
    write
}

/// Where `id` sits in `run`, whose ids ascend: the first key
/// `≥ id << bin_bits`, if it carries `id`. An id whose first key the width
/// cannot hold has no pair.
#[inline]
fn find_in<K: PairKey>(run: &[K], bin_bits: u32, id: u32) -> Option<usize> {
    let floor = u64::from(id) << bin_bits;
    if floor > K::MAX {
        return None;
    }
    let floor = K::from_u64(floor);
    let at = run.partition_point(|&k| k < floor);
    run.get(at).filter(|k| k.id(bin_bits) == id as usize).map(|_| at)
}
