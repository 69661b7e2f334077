//! Collective operations over the mesh: broadcast, gather, all-gather, ring
//! all-reduce and ring reduce-scatter — the "different aggregation methods"
//! of §3.1.3 that a compared system uses (all-reduce, reduce-scatter; no
//! system aggregates map-reduce style to one root).
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

use crate::comm::Comm;
use crate::fault::CommError;
use crate::wire::{self, WireCodec};
use bytes::Bytes;

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
                    self.send(to, tag, payload.clone())?;
                }
            }
            Ok(payload)
        } else {
            self.recv(root, tag)
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
                    out.push(self.recv(from, tag)?);
                }
            }
            Ok(Some(out))
        } else {
            self.send(root, tag, payload)?;
            Ok(None)
        }
    }

    /// All ranks exchange payloads; returns all of them in rank order.
    pub fn all_gather(&self, payload: Bytes) -> Result<Vec<Bytes>, CommError> {
        let tag = self.alloc_collective_tag();
        for to in 0..self.world() {
            if to != self.rank() {
                self.send(to, tag, payload.clone())?;
            }
        }
        let mut out = Vec::with_capacity(self.world());
        for from in 0..self.world() {
            if from == self.rank() {
                out.push(payload.clone());
            } else {
                out.push(self.recv(from, tag)?);
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
            if received.len() != buf.len() * 8 {
                return Err(CommError::Malformed { from: root });
            }
            buf.copy_from_slice(&wire::bytes_to_f64s(&received));
        }
        Ok(())
    }

    /// The `W − 1` steps of a ring from segment `first`: step `s` sends
    /// segment `(first − s) mod W` to `next` and merges segment
    /// `(first − s − 1) mod W` from `prev` — decode-added while reducing,
    /// decoded over while gathering. Reducing from `first = r` leaves rank
    /// `r` holding segment `(r + 1) mod W` fully reduced; gathering from the
    /// segment each rank holds complete leaves every rank holding all of
    /// them. Merges run in the same segment order whatever the codec, so
    /// the lossless codec stays bit-identical.
    fn ring_steps(
        &self,
        codec: WireCodec,
        buf: &mut [f64],
        first: usize,
        reduce: bool,
    ) -> Result<(), CommError> {
        let w = self.world();
        let r = self.rank();
        let tag = self.alloc_collective_tags(w as u64 - 1);
        let next = (r + 1) % w;
        let prev = (r + w - 1) % w;
        for s in 0..w - 1 {
            let send_seg = (first + w - s) % w;
            let recv_seg = (first + w - s - 1) % w;
            let (slo, shi) = segment_bounds(buf.len(), w, send_seg);
            self.send_f64s(next, tag + s as u64, codec, &buf[slo..shi])?;
            let incoming = self.recv(prev, tag + s as u64)?;
            let (rlo, rhi) = segment_bounds(buf.len(), w, recv_seg);
            let merged = if reduce {
                wire::decode_add(&incoming, &mut buf[rlo..rhi])
            } else {
                wire::decode_into(&incoming, &mut buf[rlo..rhi])
            };
            merged.map_err(|_| CommError::Malformed { from: prev })?;
        }
        Ok(())
    }

    /// Ring reduce-scatter: on return, rank `r` holds the fully reduced
    /// segment `r` of `buf` (bounds from [`segment_bounds`]); the rest of
    /// `buf` is garbage. Each rank moves `(W−1)/W · len` elements each way —
    /// the bandwidth-optimal aggregation LightGBM uses (§4.1) — plus one
    /// segment-sized hop that moves the reduced segment `(r + 1) mod W` the
    /// ring leaves on rank `r` to its owner. Every hop is encoded under
    /// `codec`.
    pub fn reduce_scatter_f64_codec(
        &self,
        codec: WireCodec,
        buf: &mut [f64],
    ) -> Result<(usize, usize), CommError> {
        let w = self.world();
        let r = self.rank();
        if w == 1 {
            return Ok((0, buf.len()));
        }
        self.ring_steps(codec, buf, r, true)?;
        // Rank r holds segment r + 1, exactly what `next` wants; segment r
        // sits on `prev`.
        let (next, prev) = ((r + 1) % w, (r + w - 1) % w);
        let (olo, ohi) = segment_bounds(buf.len(), w, next);
        let tag = self.alloc_collective_tag();
        self.send_f64s(next, tag, codec, &buf[olo..ohi])?;
        let mine = self.recv(prev, tag)?;
        let (mlo, mhi) = segment_bounds(buf.len(), w, r);
        wire::decode_into(&mine, &mut buf[mlo..mhi])
            .map_err(|_| CommError::Malformed { from: prev })?;
        Ok((mlo, mhi))
    }

    /// Ring all-reduce: element-wise sum of `buf` across all ranks, complete
    /// everywhere, under the lossless [`WireCodec::Grid`].
    pub fn all_reduce_f64(&self, buf: &mut [f64]) -> Result<(), CommError> {
        self.all_reduce_f64_codec(WireCodec::Grid, buf)
    }

    /// [`Self::all_reduce_f64`] with every hop encoded under `codec`: the
    /// ring's reduce steps, then its gather steps from the segment each rank
    /// already holds reduced — `2(W−1)/W · len` elements sent per rank. A
    /// lossy codec's owner passes its own segment through the codec's round
    /// trip (no bytes sent), so with [`WireCodec::F32`] every rank holds the
    /// same f32-widened values, bit-for-bit — just not the exact sum.
    pub fn all_reduce_f64_codec(&self, codec: WireCodec, buf: &mut [f64]) -> Result<(), CommError> {
        let w = self.world();
        if w == 1 {
            return Ok(());
        }
        let r = self.rank();
        self.ring_steps(codec, buf, r, true)?;
        let owned = (r + 1) % w;
        if !codec.is_lossless() {
            let (olo, ohi) = segment_bounds(buf.len(), w, owned);
            let quantized = wire::encode(codec, &buf[olo..ohi]);
            wire::decode_into(&quantized, &mut buf[olo..ohi])
                .map_err(|_| CommError::Malformed { from: r })?;
        }
        self.ring_steps(codec, buf, owned, false)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
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
    fn ring_all_reduce_matches_sum() {
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
        // World = 2, all-zero 8-element buffer: every ring hop moves one
        // 4-element segment (32 logical bytes); all-reduce is 2 hops per
        // rank (1 reduce step + 1 gather step). A zero segment is the grid
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

        // A ring all-reduce sends 2(W − 1)/W of the buffer per rank.
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
        // (134) flips to raw. World = 2 reduce-scatter of 32 elements: only
        // rank 1's segment 1 is nonzero, so each rank ships one 16-element
        // segment holding those nnz values and one of zeros (6 bytes).
        for (nnz, expected_wire) in [(15usize, 126u64), (16, 128)] {
            let counters = run(2, move |c| {
                let mut buf = vec![0.0f64; 32];
                if c.rank() == 1 {
                    for (i, slot) in buf[16..].iter_mut().take(nnz).enumerate() {
                        *slot = if i == 0 { f64::from_bits((1023 + 55) << 52) } else { i as f64 };
                    }
                }
                c.reduce_scatter_f64_codec(WireCodec::Grid, &mut buf).unwrap();
                c.counters()
            });
            for c in counters {
                assert_eq!(c.logical_f64_bytes, 2 * 128, "nnz={nnz}");
                assert_eq!(c.wire_f64_bytes, expected_wire + 6, "nnz={nnz}");
                assert_eq!(c.bytes_sent, expected_wire + 6, "nnz={nnz}");
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

    /// Collectives keep working when messages are duplicated and delayed by
    /// an (otherwise lossless) fault plan — dedup happens at envelope
    /// intake, so ring hops never consume a stale duplicate.
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
