//! Wire framing for the serving protocol.
//!
//! Three frame kinds flow over the `gbdt-cluster` fabric, each on its own
//! registered tag (`gbdt_cluster::comm::protocol::SERVE_*`): prediction
//! requests (client → server), prediction responses / publish acks
//! (server → client), and model publishes (trainer → server, carrying a
//! [`GbdtModel::encode_bytes`] payload). All fields are little-endian;
//! decoding returns `Err` on any framing violation rather than panicking —
//! a malformed request must never take the server down.
//!
//! [`GbdtModel::encode_bytes`]: gbdt_core::model::GbdtModel::encode_bytes

/// Outcome class of a [`PredictResponse`]. `Ok` responses carry scores;
/// the rest carry an empty score vector and explain why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplyStatus {
    /// Scored (fully, or as a degraded prefix when `trees_scored > 0`).
    Ok = 0,
    /// Load-shed: every replica's inflight queue was at capacity.
    Shed = 1,
    /// The retry/hedge budget ran out without a replica answering.
    Failed = 2,
    /// The request frame could not be decoded.
    Malformed = 3,
}

impl ReplyStatus {
    /// Decodes the wire byte.
    pub fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(ReplyStatus::Ok),
            1 => Ok(ReplyStatus::Shed),
            2 => Ok(ReplyStatus::Failed),
            3 => Ok(ReplyStatus::Malformed),
            other => Err(format!("unknown reply status {other}")),
        }
    }
}

/// A batch of dense rows to score. `NaN` cells mean *missing*.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen id echoed in the response.
    pub req_id: u64,
    /// Row width (must match the served model).
    pub n_features: u32,
    /// Degraded-mode tree budget: 0 scores the full ensemble, `k > 0`
    /// scores only the first `k` trees per output (set by the router when
    /// a replica is past its high-water mark, never by clients).
    pub max_trees: u32,
    /// Row-major cells, `n_features` per row.
    pub rows: Vec<f32>,
}

impl PredictRequest {
    /// Rows in the batch.
    pub fn n_rows(&self) -> usize {
        if self.n_features == 0 {
            0
        } else {
            self.rows.len() / self.n_features as usize
        }
    }

    /// Encodes: `req_id · n_rows · n_features · max_trees · f32 cells`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.rows.len() * 4);
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.extend_from_slice(&(self.n_rows() as u32).to_le_bytes());
        out.extend_from_slice(&self.n_features.to_le_bytes());
        out.extend_from_slice(&self.max_trees.to_le_bytes());
        for v in &self.rows {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes [`Self::encode`] output.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Cursor { bytes, pos: 0 };
        let req_id = r.u64()?;
        let n_rows = r.u32()? as usize;
        let n_features = r.u32()?;
        let max_trees = r.u32()?;
        let n_cells = n_rows
            .checked_mul(n_features as usize)
            .ok_or_else(|| "request shape overflows".to_string())?;
        let mut rows = Vec::with_capacity(n_cells.min(1 << 24));
        for _ in 0..n_cells {
            rows.push(r.f32()?);
        }
        r.finish()?;
        Ok(PredictRequest { req_id, n_features, max_trees, rows })
    }
}

/// Raw scores for one request, stamped with the model version that
/// produced them (the hot-swap tests assert versions are never torn).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// Echo of [`PredictRequest::req_id`].
    pub req_id: u64,
    /// Version of the compiled ensemble that scored the batch.
    pub version: u64,
    /// How the request fared; scores are only present for [`ReplyStatus::Ok`].
    pub status: ReplyStatus,
    /// Trees scored per output: 0 means the full ensemble, `k > 0` means a
    /// degraded `k`-tree prefix. Together with `version` this names the
    /// exact deterministic function that produced `scores`.
    pub trees_scored: u32,
    /// Scores per row (C).
    pub n_outputs: u32,
    /// Row-major raw scores.
    pub scores: Vec<f64>,
}

impl PredictResponse {
    /// A scoreless reply carrying only an outcome (shed / failed / malformed).
    pub fn refusal(req_id: u64, status: ReplyStatus) -> Self {
        PredictResponse { req_id, version: 0, status, trees_scored: 0, n_outputs: 0, scores: Vec::new() }
    }

    /// Encodes: `req_id · version · status · trees_scored · n_outputs ·
    /// n_scores · f64 scores`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33 + self.scores.len() * 8);
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.status as u8);
        out.extend_from_slice(&self.trees_scored.to_le_bytes());
        out.extend_from_slice(&self.n_outputs.to_le_bytes());
        out.extend_from_slice(&(self.scores.len() as u32).to_le_bytes());
        for v in &self.scores {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes [`Self::encode`] output.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Cursor { bytes, pos: 0 };
        let req_id = r.u64()?;
        let version = r.u64()?;
        let status = ReplyStatus::from_u8(r.u8()?)?;
        let trees_scored = r.u32()?;
        let n_outputs = r.u32()?;
        let n_scores = r.u32()? as usize;
        let mut scores = Vec::with_capacity(n_scores.min(1 << 24));
        for _ in 0..n_scores {
            scores.push(r.f64()?);
        }
        r.finish()?;
        Ok(PredictResponse { req_id, version, status, trees_scored, n_outputs, scores })
    }
}

/// Acknowledgement of a model publish: the version now being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishAck {
    /// The freshly published version.
    pub version: u64,
}

impl PublishAck {
    /// Encodes the 8-byte version.
    pub fn encode(&self) -> Vec<u8> {
        self.version.to_le_bytes().to_vec()
    }

    /// Decodes [`Self::encode`] output.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let arr: [u8; 8] =
            bytes.try_into().map_err(|_| format!("publish ack is {} bytes, want 8", bytes.len()))?;
        Ok(PublishAck { version: u64::from_le_bytes(arr) })
    }
}

/// A model publish as the router re-broadcasts it to replicas: the router
/// assigns the version so every replica in the group serves globally
/// consistent version numbers even if one missed an earlier publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishFrame {
    /// Router-assigned version for this model.
    pub version: u64,
    /// [`GbdtModel::encode_bytes`] payload.
    ///
    /// [`GbdtModel::encode_bytes`]: gbdt_core::model::GbdtModel::encode_bytes
    pub model_bytes: Vec<u8>,
}

impl PublishFrame {
    /// Encodes: `version · n_bytes · model bytes`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.model_bytes.len());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.model_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.model_bytes);
        out
    }

    /// Decodes [`Self::encode`] output.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Cursor { bytes, pos: 0 };
        let version = r.u64()?;
        let n_bytes = r.u64()? as usize;
        let model_bytes = r.take(n_bytes)?.to_vec();
        r.finish()?;
        Ok(PublishFrame { version, model_bytes })
    }
}

/// Bounds-checked little-endian cursor.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated serve frame at byte {}", self.pos))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(|_| "u32".to_string())?))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().map_err(|_| "u64".to_string())?))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().map_err(|_| "f32".to_string())?))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().map_err(|_| "f64".to_string())?))
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in serve frame", self.bytes.len() - self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Every frame round-trips field for field. Ids, versions and counts
        /// are random, so same-width fields differ and a swapped or resized
        /// field decodes to another value; cells and scores carry NaN
        /// (compared as bits).
        #[test]
        fn every_frame_round_trips(
            ids in (any::<u64>(), any::<u64>()),
            counts in (any::<u32>(), any::<u32>(), any::<u32>(), 1u32..6),
            status in 0u8..4,
            cells in prop::collection::vec(prop::option::of(-1e3f32..1e3), 0..40),
            scores in prop::collection::vec(prop::option::of(-1e3f64..1e3), 0..40),
            model_bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let ((req_id, version), (trees_scored, n_outputs, max_trees, n_features)) = (ids, counts);
            let width = n_features as usize;
            let cells = &cells[..cells.len() / width * width];
            let rows: Vec<f32> = cells.iter().map(|c| c.unwrap_or(f32::NAN)).collect();
            let req = PredictRequest { req_id, n_features, max_trees, rows };
            let back = PredictRequest::decode(&req.encode()).unwrap();
            prop_assert_eq!((back.req_id, back.n_features, back.max_trees), (req_id, n_features, max_trees));
            prop_assert_eq!(bits32(&back.rows), bits32(&req.rows));

            let status = ReplyStatus::from_u8(status).unwrap();
            let scores: Vec<f64> = scores.iter().map(|s| s.unwrap_or(f64::NAN)).collect();
            let resp = PredictResponse { req_id, version, status, trees_scored, n_outputs, scores };
            let back = PredictResponse::decode(&resp.encode()).unwrap();
            prop_assert_eq!(
                (back.req_id, back.version, back.status, back.trees_scored, back.n_outputs),
                (req_id, version, status, trees_scored, n_outputs)
            );
            prop_assert_eq!(bits64(&back.scores), bits64(&resp.scores));

            let ack = PublishAck { version };
            prop_assert_eq!(PublishAck::decode(&ack.encode()), Ok(ack));
            let publish = PublishFrame { version, model_bytes };
            prop_assert_eq!(PublishFrame::decode(&publish.encode()), Ok(publish.clone()));
        }
    }

    #[test]
    fn malformed_frames_error() {
        let req = PredictRequest { req_id: 1, n_features: 2, max_trees: 0, rows: vec![1.0, 2.0] };
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            assert!(PredictRequest::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert!(PredictRequest::decode(&long).is_err());
        assert!(PublishAck::decode(&[1, 2, 3]).is_err());
        // A shape whose cell count overflows must be rejected up front.
        let mut evil = Vec::new();
        evil.extend_from_slice(&1u64.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&0u32.to_le_bytes());
        assert!(PredictRequest::decode(&evil).is_err());
        // Unknown reply status byte is rejected.
        let resp = PredictResponse::refusal(1, ReplyStatus::Ok);
        let mut tampered = resp.encode();
        tampered[16] = 250;
        assert!(PredictResponse::decode(&tampered).is_err());
        // Truncated responses and publishes are rejected at every prefix.
        let full = PredictResponse {
            req_id: 2,
            version: 1,
            status: ReplyStatus::Ok,
            trees_scored: 0,
            n_outputs: 1,
            scores: vec![0.5],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(PredictResponse::decode(&full[..cut]).is_err(), "cut={cut}");
        }
        let pf = PublishFrame { version: 1, model_bytes: vec![9, 9] }.encode();
        for cut in 0..pf.len() {
            assert!(PublishFrame::decode(&pf[..cut]).is_err(), "cut={cut}");
        }
    }
}
