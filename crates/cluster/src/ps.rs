//! Parameter-server-style sharded aggregation (the DimBoost pattern, §4.1).
//!
//! DimBoost "aggregates the histograms on parameter servers and enables
//! server-side split finding". Here every worker doubles as one server (the
//! common co-located deployment): the flat histogram buffer is sharded into
//! per-server ranges, each worker *pushes* its local slice of every range to
//! the owning server, and each server reduces the slices for its own range.
//! Split finding then happens server-side on the reduced slice, and only the
//! tiny local-best splits are exchanged — avoiding both the all-reduce
//! traffic and the single-point bottleneck of gather-to-root (§4.1).

use crate::comm::Comm;
use crate::fault::CommError;
use crate::wire::{self, WireCodec};

impl Comm {
    /// Pushes `buf`'s shards to their owning servers and reduces the shard
    /// this rank serves.
    ///
    /// `ranges[s]` is the `[start, end)` slice of `buf` owned by server `s`
    /// (`ranges.len() == world`); ranges must be disjoint but need not cover
    /// `buf`. Returns the fully reduced values of `ranges[rank]`.
    pub fn ps_push_and_reduce(
        &self,
        buf: &[f64],
        ranges: &[(usize, usize)],
    ) -> Result<Vec<f64>, CommError> {
        self.ps_push_and_reduce_codec(WireCodec::Dense, buf, ranges)
    }

    /// [`Self::ps_push_and_reduce`] with every pushed shard encoded under
    /// `codec`; the serving rank decode-merges contributions in rank order.
    pub fn ps_push_and_reduce_codec(
        &self,
        codec: WireCodec,
        buf: &[f64],
        ranges: &[(usize, usize)],
    ) -> Result<Vec<f64>, CommError> {
        assert_eq!(ranges.len(), self.world(), "one range per server");
        let tag = self.alloc_collective_tag();
        let r = self.rank();
        // Push every foreign shard to its server.
        for (server, &(lo, hi)) in ranges.iter().enumerate() {
            if server != r {
                self.send_f64s(server, tag, codec, &buf[lo..hi])?;
            }
        }
        // Serve my shard: start from my local slice, add peers in rank order.
        // lint: allow(slice-index) — ranges.len() == world is asserted at entry
        let (lo, hi) = ranges[r];
        let mut reduced = buf[lo..hi].to_vec();
        for from in 0..self.world() {
            if from == r {
                continue;
            }
            wire::decode_add(&self.recv(from, tag)?, &mut reduced);
        }
        Ok(reduced)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::collectives::segment_bounds;
    use crate::cost::NetworkCostModel;

    #[test]
    fn ps_reduce_matches_global_sum() {
        for world in [1, 2, 3, 4] {
            let len = 9;
            let mesh = Comm::mesh(world, NetworkCostModel::infinite());
            let results: Vec<Vec<f64>> = std::thread::scope(|s| {
                let handles: Vec<_> = mesh
                    .into_iter()
                    .map(|c| {
                        s.spawn(move || {
                            let buf: Vec<f64> =
                                (0..len).map(|i| (c.rank() * 10 + i) as f64).collect();
                            let ranges: Vec<_> =
                                (0..world).map(|w| segment_bounds(len, world, w)).collect();
                            c.ps_push_and_reduce(&buf, &ranges).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (rank, reduced) in results.iter().enumerate() {
                let (lo, hi) = segment_bounds(len, world, rank);
                let expected: Vec<f64> = (lo..hi)
                    .map(|i| (0..world).map(|w| (w * 10 + i) as f64).sum())
                    .collect();
                assert_eq!(reduced, &expected, "world={world} rank={rank}");
            }
        }
    }

    #[test]
    fn ps_codec_matches_dense_and_compresses_sparse_shards() {
        let world = 3;
        let len = 30;
        let mk = move |rank: usize| -> Vec<f64> {
            (0..len).map(|i| if i % 5 == rank { (i + 1) as f64 } else { 0.0 }).collect()
        };
        let mut per_codec = Vec::new();
        for codec in [WireCodec::Dense, WireCodec::Auto] {
            let mesh = Comm::mesh(world, NetworkCostModel::infinite());
            let results: Vec<(Vec<f64>, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = mesh
                    .into_iter()
                    .map(|c| {
                        s.spawn(move || {
                            let buf = mk(c.rank());
                            let ranges: Vec<_> =
                                (0..world).map(|w| segment_bounds(len, world, w)).collect();
                            let reduced =
                                c.ps_push_and_reduce_codec(codec, &buf, &ranges).unwrap();
                            (reduced, c.counters().wire_f64_bytes)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            per_codec.push(results);
        }
        // Lossless codecs reduce to bit-identical shards...
        let shards = |r: &[(Vec<f64>, u64)]| r.iter().map(|x| x.0.clone()).collect::<Vec<_>>();
        assert_eq!(shards(&per_codec[0]), shards(&per_codec[1]));
        // ...while the 20%-dense shards ship far fewer wire bytes: auto
        // picks the sparse layout for every one of them.
        let wire = |r: &[(Vec<f64>, u64)]| r.iter().map(|x| x.1).sum::<u64>();
        assert!(wire(&per_codec[1]) * 2 < wire(&per_codec[0]), "auto should be < half");
    }

    #[test]
    fn ps_traffic_is_one_histogram_per_worker() {
        // Each worker sends (W-1)/W of its buffer and receives (W-1) shards
        // of its own range: total per-worker traffic ~ len, not W*len.
        let world = 4;
        let len = 1000;
        let mesh = Comm::mesh(world, NetworkCostModel::infinite());
        let counters = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        let buf = vec![1.0f64; len];
                        let ranges: Vec<_> =
                            (0..world).map(|w| segment_bounds(len, world, w)).collect();
                        c.ps_push_and_reduce(&buf, &ranges).unwrap();
                        c.counters()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for c in &counters {
            assert_eq!(c.bytes_sent, (len as u64 * 8 / world as u64) * (world as u64 - 1));
        }
    }
}
