//! Collective operations over the mesh: broadcast, gather, all-gather and
//! one sharded reduction — the parameter-server push — under the
//! "different aggregation methods" of §3.1.3 that a compared system uses:
//! all-reduce is the push plus an all-gather of the reduced segments,
//! reduce-scatter the push alone (no system aggregates map-reduce style to
//! one root).
//!
//! Every rank must call the same collectives in the same program order; tags
//! are auto-allocated from a per-endpoint counter that stays aligned across
//! ranks. All reductions run in deterministic order, so repeated runs produce
//! bit-identical results.
//!
//! The f64 reductions route every payload through a
//! [`crate::wire::WireCodec`] (lossless grid / lossy f32), decoding and
//! merging in the same deterministic rank/segment order. The one codec-less
//! reduction, [`Comm::all_reduce_f64`], is the [`WireCodec::Grid`] case of
//! [`Comm::all_reduce_f64_codec`]; with [`Comm::broadcast_f64`] (raw f64s)
//! it is what the trainers' small count and statistics exchanges use.
//!
//! Every collective returns `Result<_, CommError>`: a cancelled run, a
//! receive timeout, an exhausted retry budget, or a peer payload that does
//! not fit the buffer ([`CommError::Malformed`], as when ranks disagree on
//! a reduction's length) surfaces as a typed error at the collective
//! boundary instead of a panic deep in the fabric.

#![deny(clippy::panic, clippy::unimplemented, clippy::todo, clippy::indexing_slicing)]

use crate::comm::Comm;
use crate::fault::CommError;
use crate::wire::{self, WireCodec};
use bytes::Bytes;
use gbdt_data::frame::Reader;

/// Segment `[start, end)` of a length-`len` buffer owned by `seg` of `world`.
pub fn segment_bounds(len: usize, world: usize, seg: usize) -> (usize, usize) {
    let base = len / world;
    let extra = len % world;
    let start = seg * base + seg.min(extra);
    let size = base + usize::from(seg < extra);
    (start, start + size)
}

impl Comm {
    /// Synchronizes all ranks.
    pub fn barrier(&self) -> Result<(), CommError> {
        self.all_gather(Bytes::new()).map(|_| ())
    }

    /// Broadcasts `payload` (significant at `root`) to every rank; returns
    /// the received payload everywhere.
    pub fn broadcast(&self, root: usize, payload: Bytes) -> Result<Bytes, CommError> {
        let tag = self.alloc_collective_tag();
        if self.rank() == root {
            for to in 0..self.world() {
                if to != root {
                    self.send_raw(to, tag, payload.clone())?;
                }
            }
            Ok(payload)
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// Gathers every rank's payload at `root` (rank order). Non-roots get
    /// `None`.
    pub fn gather(&self, root: usize, payload: Bytes) -> Result<Option<Vec<Bytes>>, CommError> {
        let tag = self.alloc_collective_tag();
        if self.rank() == root {
            let mut out = Vec::with_capacity(self.world());
            for from in 0..self.world() {
                if from == root {
                    out.push(payload.clone());
                } else {
                    out.push(self.recv_raw(from, tag)?);
                }
            }
            Ok(Some(out))
        } else {
            self.send_raw(root, tag, payload)?;
            Ok(None)
        }
    }

    /// All ranks exchange payloads; returns all of them in rank order.
    pub fn all_gather(&self, payload: Bytes) -> Result<Vec<Bytes>, CommError> {
        let tag = self.alloc_collective_tag();
        for to in 0..self.world() {
            if to != self.rank() {
                self.send_raw(to, tag, payload.clone())?;
            }
        }
        let mut out = Vec::with_capacity(self.world());
        for from in 0..self.world() {
            if from == self.rank() {
                out.push(payload.clone());
            } else {
                out.push(self.recv_raw(from, tag)?);
            }
        }
        Ok(out)
    }

    /// Broadcasts an f64 buffer from `root`, overwriting `buf` elsewhere.
    pub fn broadcast_f64(&self, root: usize, buf: &mut [f64]) -> Result<(), CommError> {
        let payload =
            if self.rank() == root { wire::f64s_to_bytes(buf) } else { Bytes::new() };
        let received = self.broadcast(root, payload)?;
        if self.rank() != root {
            let mut r = Reader::new(&received);
            let values = r.f64s(buf.len()).map_err(|_| CommError::Malformed { from: root })?;
            r.finish().map_err(|_| CommError::Malformed { from: root })?;
            buf.iter_mut().zip(values).for_each(|(dst, v)| *dst = v);
        }
        Ok(())
    }

    /// Pushes `buf`'s shards to their owning servers and reduces the shard
    /// this rank serves — the one sharded reduction under every
    /// aggregation (DimBoost's parameter-server push, §4.1, with every
    /// worker doubling as one server).
    ///
    /// `ranges[s]` is the `[start, end)` slice of `buf` owned by server `s`
    /// (`ranges.len() == world`); ranges must be disjoint but need not cover
    /// `buf`. Every pushed shard is encoded under `codec`; the serving rank
    /// decode-merges contributions in rank order and returns the fully
    /// reduced values of `ranges[rank]`. A shard that does not fit
    /// `ranges[rank]` is [`CommError::Malformed`] from its pusher.
    #[expect(
        clippy::indexing_slicing,
        reason = "one range per rank (asserted at entry), each inside `buf`"
    )]
    pub fn ps_push_and_reduce_codec(
        &self,
        codec: WireCodec,
        buf: &[f64],
        ranges: &[(usize, usize)],
    ) -> Result<Vec<f64>, CommError> {
        assert_eq!(ranges.len(), self.world(), "one range per server");
        let tag = self.alloc_collective_tag();
        let r = self.rank();
        for (server, &(lo, hi)) in ranges.iter().enumerate() {
            if server != r {
                self.send_f64s(server, tag, codec, &buf[lo..hi])?;
            }
        }
        // Serve my shard: start from my local slice, add peers in rank order.
        let (lo, hi) = ranges[r];
        let mut reduced = buf[lo..hi].to_vec();
        for from in 0..self.world() {
            if from != r {
                wire::decode_add(&self.recv_raw(from, tag)?, &mut reduced)
                    .map_err(|_| CommError::Malformed { from })?;
            }
        }
        Ok(reduced)
    }

    /// Reduce-scatter: on return, rank `r` holds the fully reduced segment
    /// `r` of `buf` (bounds from [`segment_bounds`]); the rest of `buf` is
    /// its local values. One push hop: each rank sends `(W−1)/W · len`
    /// elements, encoded under `codec`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`segment_bounds` stays inside `buf`, and `reduced` is that segment"
    )]
    pub fn reduce_scatter_f64_codec(
        &self,
        codec: WireCodec,
        buf: &mut [f64],
    ) -> Result<(usize, usize), CommError> {
        let w = self.world();
        let ranges: Vec<_> = (0..w).map(|s| segment_bounds(buf.len(), w, s)).collect();
        let reduced = self.ps_push_and_reduce_codec(codec, buf, &ranges)?;
        let (lo, hi) = segment_bounds(buf.len(), w, self.rank());
        buf[lo..hi].copy_from_slice(&reduced);
        Ok((lo, hi))
    }

    /// All-reduce: element-wise sum of `buf` across all ranks, complete
    /// everywhere, under the lossless [`WireCodec::Grid`].
    pub fn all_reduce_f64(&self, buf: &mut [f64]) -> Result<(), CommError> {
        self.all_reduce_f64_codec(WireCodec::Grid, buf)
    }

    /// [`Self::all_reduce_f64`] with every message encoded under `codec`:
    /// the sharded push, then each owner sends its reduced segment to every
    /// peer — `2(W−1)/W · len` elements sent per rank. Segment `s` is reduced
    /// on rank `(s − 1) mod W`, where a ring's reduce steps leave it, so at
    /// W = 2 every message is the ring's. A lossy codec's owner passes its
    /// segment through the codec's round trip (no bytes sent), so with
    /// [`WireCodec::F32`] every rank holds the same f32-widened values,
    /// bit-for-bit — just not the exact sum.
    #[expect(
        clippy::indexing_slicing,
        reason = "`segment_bounds` stays inside `buf`, and `reduced` is that segment"
    )]
    pub fn all_reduce_f64_codec(&self, codec: WireCodec, buf: &mut [f64]) -> Result<(), CommError> {
        let w = self.world();
        if w == 1 {
            return Ok(());
        }
        let (r, len) = (self.rank(), buf.len());
        let served = |owner: usize| segment_bounds(len, w, (owner + 1) % w);
        let ranges: Vec<_> = (0..w).map(served).collect();
        let reduced = self.ps_push_and_reduce_codec(codec, buf, &ranges)?;
        let (lo, hi) = served(r);
        buf[lo..hi].copy_from_slice(&reduced);
        if !codec.is_lossless() {
            let quantized = wire::encode(codec, &buf[lo..hi]);
            wire::decode_into(&quantized, &mut buf[lo..hi])
                .map_err(|_| CommError::Malformed { from: r })?;
        }
        let tag = self.alloc_collective_tag();
        for to in (0..w).filter(|&to| to != r) {
            self.send_f64s(to, tag, codec, &buf[lo..hi])?;
        }
        for from in (0..w).filter(|&from| from != r) {
            let (flo, fhi) = served(from);
            wire::decode_into(&self.recv_raw(from, tag)?, &mut buf[flo..fhi])
                .map_err(|_| CommError::Malformed { from })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NetworkCostModel;

    /// Runs `f(rank)` on a `world`-sized mesh, returning per-rank outputs.
    fn run<T: Send>(world: usize, f: impl Fn(&Comm) -> T + Sync) -> Vec<T> {
        let mesh = Comm::mesh(world, NetworkCostModel::infinite());
        let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
        std::thread::scope(|s| {
            for (comm, slot) in mesh.into_iter().zip(out.iter_mut()) {
                let f = &f;
                s.spawn(move || {
                    *slot = Some(f(&comm));
                });
            }
        });
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn segment_bounds_cover_buffer() {
        let len = 10;
        let w = 3;
        let segs: Vec<_> = (0..w).map(|s| segment_bounds(len, w, s)).collect();
        assert_eq!(segs, vec![(0, 4), (4, 7), (7, 10)]);
        // Degenerate: more workers than elements.
        let segs: Vec<_> = (0..4).map(|s| segment_bounds(2, 4, s)).collect();
        assert_eq!(segs, vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
    }

    #[test]
    fn broadcast_delivers_everywhere() {
        let got = run(4, |c| {
            let payload = if c.rank() == 1 { Bytes::from_static(b"root") } else { Bytes::new() };
            c.broadcast(1, payload).unwrap()
        });
        for g in got {
            assert_eq!(&g[..], b"root");
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let got = run(3, |c| {
            let payload = Bytes::from(vec![c.rank() as u8]);
            c.gather(0, payload).unwrap()
        });
        assert_eq!(
            got[0].as_ref().unwrap().iter().map(|b| b[0]).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(got[1].is_none());
        assert!(got[2].is_none());
    }

    #[test]
    fn all_gather_everywhere() {
        let got = run(3, |c| {
            c.all_gather(Bytes::from(vec![c.rank() as u8 * 10])).unwrap()
        });
        for g in got {
            assert_eq!(g.iter().map(|b| b[0]).collect::<Vec<_>>(), vec![0, 10, 20]);
        }
    }

    #[test]
    fn broadcast_f64_overwrites() {
        let got = run(3, |c| {
            let mut buf = if c.rank() == 0 { vec![1.5, 2.5] } else { vec![0.0, 0.0] };
            c.broadcast_f64(0, &mut buf).unwrap();
            buf
        });
        for g in got {
            assert_eq!(g, vec![1.5, 2.5]);
        }
    }

    #[test]
    fn a_short_or_long_f64_broadcast_is_malformed() {
        // Rank 1 expects one f64 and receives two; rank 2 expects three.
        let got = run(3, |c| {
            let mut buf = vec![1.5; [2, 1, 3][c.rank()]];
            let result = c.broadcast_f64(0, &mut buf);
            (result, buf)
        });
        assert_eq!(got[0], (Ok(()), vec![1.5, 1.5]));
        for (result, buf) in &got[1..] {
            assert!(matches!(result, Err(CommError::Malformed { from: 0 })), "{result:?}");
            assert!(buf.iter().all(|&v| v == 1.5), "a refused payload wrote {buf:?}");
        }
    }

    #[test]
    fn all_reduce_matches_sum() {
        for world in [1, 2, 3, 4, 5] {
            let len = 11;
            let got = run(world, move |c| {
                let mut buf: Vec<f64> =
                    (0..len).map(|i| (c.rank() * 100 + i) as f64).collect();
                c.all_reduce_f64(&mut buf).unwrap();
                buf
            });
            let expected: Vec<f64> = (0..len)
                .map(|i| (0..world).map(|r| (r * 100 + i) as f64).sum())
                .collect();
            for (r, g) in got.iter().enumerate() {
                assert_eq!(g, &expected, "world={world} rank={r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_owns_reduced_segment() {
        for world in [2, 3, 4] {
            let len = 10;
            let got = run(world, move |c| {
                let mut buf: Vec<f64> = (0..len).map(|i| (c.rank() + i) as f64).collect();
                let (lo, hi) = c.reduce_scatter_f64_codec(WireCodec::Grid, &mut buf).unwrap();
                (lo, hi, buf[lo..hi].to_vec())
            });
            for (r, (lo, hi, seg)) in got.iter().enumerate() {
                let (elo, ehi) = segment_bounds(len, world, r);
                assert_eq!((*lo, *hi), (elo, ehi), "world={world} rank={r}");
                let expected: Vec<f64> = (elo..ehi)
                    .map(|i| (0..world).map(|w| (w + i) as f64).sum())
                    .collect();
                assert_eq!(seg, &expected, "world={world} rank={r}");
            }
        }
    }

    #[test]
    fn collective_byte_accounting_is_exact() {
        let mesh = Comm::mesh(2, NetworkCostModel::infinite());
        let counters = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        let payload = Bytes::from(vec![0u8; 100]);
                        c.all_gather(payload).unwrap();
                        c.counters()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        // Each of 2 workers sends 100 bytes to 1 peer and receives 100.
        for c in counters {
            assert_eq!(c.bytes_sent, 100);
            assert_eq!(c.bytes_received, 100);
            assert_eq!(c.logical_f64_bytes, 0); // raw sends are not codec-mediated
            assert_eq!(c.wire_f64_bytes, 0);
        }

        // Codec-mediated reductions record logical vs wire bytes exactly.
        // World = 2, all-zero 8-element buffer: every message moves one
        // 4-element segment (32 logical bytes); all-reduce is 2 messages per
        // rank (1 push + 1 gather). A zero segment is the grid
        // header and one bitmap byte, or the sparse-f32 header alone.
        for (codec, hop_wire) in [(WireCodec::Grid, 5u64), (WireCodec::F32, 5)] {
            let counters = run(2, move |c| {
                let mut buf = vec![0.0f64; 8];
                c.all_reduce_f64_codec(codec, &mut buf).unwrap();
                c.counters()
            });
            for c in counters {
                assert_eq!(c.logical_f64_bytes, 2 * 32, "{codec}");
                assert_eq!(c.wire_f64_bytes, 2 * hop_wire, "{codec}");
                assert_eq!(c.bytes_sent, 2 * hop_wire, "{codec}");
            }
        }

        // An all-reduce sends 2(W − 1)/W of the buffer per rank.
        for world in [2usize, 3, 4] {
            let counters = run(world, |c| {
                let mut buf = vec![1.0f64; 12];
                c.all_reduce_f64(&mut buf).unwrap();
                c.counters()
            });
            for c in counters {
                assert_eq!(c.logical_f64_bytes, (2 * (world - 1) * 12 / world * 8) as u64);
            }
        }

        // Raw-f64 fallback point: a 16-element segment is 128 raw bytes, a
        // grid frame 4 + 2 + nnz·w. With 2^55 and small integers in it,
        // w = 8: nnz = 15 (126 < 128) still ships the grid frame; nnz = 16
        // (134) flips to raw. World = 2 reduce-scatter of 32 elements is one
        // hop, rank r pushing segment 1 − r: only rank 0's segment 1 is
        // nonzero, so rank 0 ships those nnz values and rank 1 a segment of
        // zeros (6 bytes).
        for (nnz, expected_wire) in [(15usize, 126u64), (16, 128)] {
            let counters = run(2, move |c| {
                let mut buf = vec![0.0f64; 32];
                if c.rank() == 0 {
                    for (i, slot) in buf[16..].iter_mut().take(nnz).enumerate() {
                        *slot = if i == 0 { f64::from_bits((1023 + 55) << 52) } else { i as f64 };
                    }
                }
                c.reduce_scatter_f64_codec(WireCodec::Grid, &mut buf).unwrap();
                c.counters()
            });
            for (rank, c) in counters.iter().enumerate() {
                let wire = if rank == 0 { expected_wire } else { 6 };
                assert_eq!(c.logical_f64_bytes, 128, "nnz={nnz} rank={rank}");
                assert_eq!(c.wire_f64_bytes, wire, "nnz={nnz} rank={rank}");
                assert_eq!(c.bytes_sent, wire, "nnz={nnz} rank={rank}");
                assert_eq!(c.messages_sent, 1, "nnz={nnz} rank={rank}");
            }
        }
    }

    #[test]
    fn grid_codec_reductions_are_the_exact_sum() {
        // Integer-valued contributions sum exactly in any order, so the
        // element-wise sum is the unambiguous reference. ~25% density gives
        // the grid frames zero cells to skip.
        let len = 37;
        let mk = move |rank: usize| -> Vec<f64> {
            (0..len)
                .map(|i| if (i + rank).is_multiple_of(4) { (rank * 100 + i) as f64 } else { 0.0 })
                .collect()
        };
        for world in [1, 2, 3, 5] {
            let expected: Vec<f64> =
                (0..len).map(|i| (0..world).map(|r| mk(r)[i]).sum()).collect();
            let got = run(world, move |c| {
                let mut buf = mk(c.rank());
                c.all_reduce_f64_codec(WireCodec::Grid, &mut buf).unwrap();
                buf
            });
            for (r, g) in got.iter().enumerate() {
                assert_eq!(g, &expected, "all_reduce grid world={world} rank={r}");
            }
        }
    }

    #[test]
    fn f32_codec_agrees_across_ranks_and_approximates_the_sum() {
        let len = 19;
        let got = run(3, move |c| {
            let mut buf: Vec<f64> = (0..len)
                .map(|i: usize| {
                    if i.is_multiple_of(3) { (c.rank() + 1) as f64 * 0.1 + i as f64 } else { 0.0 }
                })
                .collect();
            c.all_reduce_f64_codec(WireCodec::F32, &mut buf).unwrap();
            buf
        });
        // Lossy, but still deterministic and rank-consistent: every rank's
        // copy of a segment passed through the same f32 quantization.
        assert_eq!(got[0], got[1]);
        assert_eq!(got[0], got[2]);
        for (i, &v) in got[0].iter().enumerate() {
            let exact: f64 = if i.is_multiple_of(3) {
                (1..=3).map(|r| f64::from(r) * 0.1 + i as f64).sum()
            } else {
                0.0
            };
            let tol = exact.abs().max(1.0) * 1e-5;
            assert!((v - exact).abs() <= tol, "i={i}: {v} vs {exact}");
        }
    }

    #[test]
    fn ps_reduce_matches_global_sum() {
        for world in [1, 2, 3, 4] {
            let len = 9;
            let got = run(world, move |c| {
                let buf: Vec<f64> = (0..len).map(|i| (c.rank() * 10 + i) as f64).collect();
                let ranges: Vec<_> = (0..world).map(|w| segment_bounds(len, world, w)).collect();
                c.ps_push_and_reduce_codec(WireCodec::Grid, &buf, &ranges).unwrap()
            });
            for (rank, reduced) in got.iter().enumerate() {
                let (lo, hi) = segment_bounds(len, world, rank);
                let expected: Vec<f64> =
                    (lo..hi).map(|i| (0..world).map(|w| (w * 10 + i) as f64).sum()).collect();
                assert_eq!(reduced, &expected, "world={world} rank={rank}");
            }
        }
    }

    #[test]
    fn ps_grid_codec_is_exact_and_compresses_sparse_shards() {
        let (world, len) = (3, 30);
        let mk = move |rank: usize| -> Vec<f64> {
            (0..len).map(|i| if i % 5 == rank { (i + 1) as f64 } else { 0.0 }).collect()
        };
        let got = run(world, move |c| {
            let ranges: Vec<_> = (0..world).map(|w| segment_bounds(len, world, w)).collect();
            let reduced = c.ps_push_and_reduce_codec(WireCodec::Grid, &mk(c.rank()), &ranges);
            (reduced.unwrap(), c.counters())
        });
        // The lossless codec reduces to the exact shards...
        for (rank, (reduced, _)) in got.iter().enumerate() {
            let (lo, hi) = segment_bounds(len, world, rank);
            let expected: Vec<f64> = (lo..hi).map(|i| (0..world).map(|r| mk(r)[i]).sum()).collect();
            assert_eq!(reduced, &expected, "rank={rank}");
        }
        // ...while the 20%-dense shards ship far fewer wire bytes.
        let logical: u64 = got.iter().map(|(_, c)| c.logical_f64_bytes).sum();
        let wire: u64 = got.iter().map(|(_, c)| c.wire_f64_bytes).sum();
        assert!(wire * 2 < logical, "grid should be < half: {wire} vs {logical}");
    }

    #[test]
    fn ps_traffic_is_one_histogram_per_worker() {
        // Each worker sends (W-1)/W of its buffer: per-worker traffic ~ len,
        // not W·len (in logical f64 bytes, before the codec shrinks them).
        let (world, len) = (4, 1000);
        let counters = run(world, move |c| {
            let ranges: Vec<_> = (0..world).map(|w| segment_bounds(len, world, w)).collect();
            c.ps_push_and_reduce_codec(WireCodec::Grid, &vec![1.0f64; len], &ranges).unwrap();
            c.counters()
        });
        for c in &counters {
            assert_eq!(c.logical_f64_bytes, (len as u64 * 8 / world as u64) * (world as u64 - 1));
        }
    }

    /// Collectives keep working when messages are duplicated and delayed by
    /// an (otherwise lossless) fault plan — dedup happens at envelope
    /// intake, so no receive ever consumes a stale duplicate.
    #[test]
    fn collectives_survive_duplication_faults() {
        let plan = crate::fault::FaultPlan::new(23).with_dup(0.4).with_delay(0.3, 0.001);
        for world in [2, 3, 5] {
            let clean = run(world, move |c| {
                let mut buf: Vec<f64> = (0..17).map(|i| (c.rank() * 7 + i) as f64).collect();
                c.all_reduce_f64(&mut buf).unwrap();
                buf
            });
            let (mesh, _ctl) = Comm::mesh_with(world, NetworkCostModel::infinite(), Some(plan));
            let mut out: Vec<Option<Vec<f64>>> = (0..world).map(|_| None).collect();
            std::thread::scope(|s| {
                for (c, slot) in mesh.into_iter().zip(out.iter_mut()) {
                    s.spawn(move || {
                        let mut buf: Vec<f64> =
                            (0..17).map(|i| (c.rank() * 7 + i) as f64).collect();
                        c.all_reduce_f64(&mut buf).unwrap();
                        *slot = Some(buf);
                    });
                }
            });
            for (r, got) in out.into_iter().enumerate() {
                assert_eq!(got.unwrap(), clean[r], "world={world} rank={r}");
            }
        }
    }
}
