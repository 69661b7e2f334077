//! Property tests for the failure layer (ISSUE satellite c):
//!
//! * tag-matched `recv` delivers the right payloads under **arbitrary send
//!   reordering** (the pending buffer absorbs out-of-order arrivals);
//! * the parameter-server emulation merges **bit-identical histograms**
//!   under seeded duplication/drop faults, with the duplicates detected and
//!   discarded at intake;
//! * the `--faults` grammar (`FaultPlan::parse`) takes outside input: every
//!   truncation and single-byte substitution of a valid spec is a typed
//!   error or a plan the comm layer can run, never a panic.

use bytes::Bytes;
use gbdt_cluster::comm::Comm;
use gbdt_cluster::{FaultPlan, NetworkCostModel, Tag, WireCodec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::thread;

/// Deterministic per-rank "histogram" so every worker pushes distinct data.
fn histogram_for(rank: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| (rank * 1000 + i) as f64 * 0.5 - 3.0).collect()
}

/// Deterministic Fisher–Yates permutation of `0..n` (splitmix64-driven;
/// the proptest shim has no shuffle strategy).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Even shard ranges covering `len` slots across `world` servers.
fn shard_ranges(world: usize, len: usize) -> Vec<(usize, usize)> {
    (0..world)
        .map(|s| (s * len / world, (s + 1) * len / world))
        .collect()
}

/// Runs `ps_push_and_reduce_codec` on every rank of a fresh mesh and
/// returns each server's merged shard plus total duplicates dropped.
fn run_ps(
    world: usize,
    len: usize,
    faults: Option<FaultPlan>,
) -> (Vec<Vec<f64>>, u64) {
    let (mesh, _control) = Comm::mesh_with(world, NetworkCostModel::lab_cluster(), faults);
    let ranges = shard_ranges(world, len);
    let handles: Vec<_> = mesh
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let ranges = ranges.clone();
            thread::spawn(move || {
                let buf = histogram_for(rank, len);
                // Two rounds: the second round's receives drain any of the
                // first round's duplicates still buffered in the channel, so
                // the duplicate counter reflects every injected copy.
                let first = comm
                    .ps_push_and_reduce_codec(WireCodec::Grid, &buf, &ranges)
                    .unwrap();
                let second = comm
                    .ps_push_and_reduce_codec(WireCodec::Grid, &buf, &ranges)
                    .unwrap();
                assert_eq!(first, second, "rounds merge identically");
                (first, comm.counters().duplicates_dropped)
            })
        })
        .collect();
    let mut shards = Vec::new();
    let mut dup_total = 0;
    for h in handles {
        let (shard, dups) = h.join().unwrap();
        shards.push(shard);
        dup_total += dups;
    }
    (shards, dup_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Messages sent in any order are received correctly in registry
    /// order: the `(from, tag)` match plus the pending buffer make the
    /// receive path order-independent. Message `i` carries `Tag::ALL[i]`.
    #[test]
    fn recv_is_order_independent(n in 1usize..12, shuffle_seed in any::<u64>()) {
        let send_order = shuffled(n, shuffle_seed);
        let (mesh, _control) =
            Comm::mesh_with(2, NetworkCostModel::lab_cluster(), None);
        let mut it = mesh.into_iter();
        let (tx, rx) = (it.next().unwrap(), it.next().unwrap());
        let sender = thread::spawn(move || {
            for tag in send_order {
                let payload = Bytes::from(vec![tag as u8; tag + 1]);
                tx.send(1, Tag::ALL[tag], payload).unwrap();
            }
        });
        for tag in 0..n {
            let got = rx.recv(0, Tag::ALL[tag]).unwrap();
            prop_assert_eq!(got.len(), tag + 1);
            prop_assert!(got.iter().all(|&b| b == tag as u8));
        }
        sender.join().unwrap();
    }

    /// The PS merge is bit-identical under any seeded duplication/drop mix:
    /// duplicates are discarded at intake, drops are retried, and every
    /// server ends with exactly the fault-free shard.
    #[test]
    fn ps_merge_survives_duplication_and_reordering(
        world in 2usize..5,
        len in 1usize..40,
        seed in any::<u64>(),
        dup_p in 0.0f64..0.9,
        drop_p in 0.0f64..0.3,
    ) {
        let (clean, clean_dups) = run_ps(world, len, None);
        prop_assert_eq!(clean_dups, 0);
        // Cross-check the merge against a direct sum.
        let ranges = shard_ranges(world, len);
        for (server, &(lo, hi)) in ranges.iter().enumerate() {
            for (slot, i) in (lo..hi).enumerate() {
                let want: f64 =
                    (0..world).map(|r| histogram_for(r, len)[i]).sum();
                prop_assert!((clean[server][slot] - want).abs() < 1e-9);
            }
        }
        let plan = FaultPlan::new(seed).with_dup(dup_p).with_drop(drop_p);
        let (faulted, _) = run_ps(world, len, Some(plan));
        // Bit-identical merge, not just approximately equal.
        prop_assert_eq!(clean, faulted);
    }
}

/// A valid spec that uses every key of the grammar.
fn valid_spec(seed: u64, probs: (f64, f64, f64), delay_s: f64, crashes: &[(u16, u32, u32)]) -> String {
    let (drop, dup, delay) = probs;
    let mut items = vec![
        format!("drop={drop}"),
        format!("dup={dup}"),
        format!("delay={delay}@{delay_s}"),
        "attempts=9".to_string(),
        "tag=serve_route".to_string(),
        format!("tag={}", seed % 1000),
    ];
    items.extend(crashes.iter().map(|(rank, tree, layer)| format!("crash={rank}@{tree}.{layer}")));
    format!("{seed}:{}", items.join(","))
}

/// Parses `spec` and checks that whatever is accepted is a plan the comm
/// layer can run; a panic is reported with the input that caused it.
fn parses_to_a_runnable_plan_or_an_error(spec: &str) -> Result<(), TestCaseError> {
    let parsed = std::panic::catch_unwind(|| FaultPlan::parse(spec));
    let Ok(parsed) = parsed else {
        return Err(TestCaseError::fail(format!("parse panicked on {spec:?}")));
    };
    if let Ok(plan) = parsed {
        for p in [plan.drop_p, plan.dup_p, plan.delay_p] {
            prop_assert!((0.0..=1.0).contains(&p), "{spec:?} parsed a probability of {p}");
        }
        prop_assert!(
            plan.delay_s.is_finite() && plan.delay_s >= 0.0,
            "{spec:?} parsed a delay of {} s",
            plan.delay_s
        );
        prop_assert!(plan.max_attempts >= 1, "{spec:?} parsed zero attempts");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every truncation of a valid spec, and every substitution of one of
    /// its bytes by any other byte that leaves the text UTF-8, parses or is
    /// refused without panicking.
    #[test]
    fn hostile_fault_specs_are_typed_errors(
        seed in any::<u64>(),
        probs in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        delay_s in 0.0f64..2.0,
        crashes in proptest::collection::vec((any::<u16>(), any::<u32>(), 0u32..24), 0..5),
    ) {
        let spec = valid_spec(seed, probs, delay_s, &crashes);
        prop_assert!(FaultPlan::parse(&spec).is_ok(), "{spec:?} must parse");
        let bytes = spec.as_bytes();
        for cut in 0..bytes.len() {
            if let Ok(text) = std::str::from_utf8(&bytes[..cut]) {
                parses_to_a_runnable_plan_or_an_error(text)?;
            }
        }
        for at in 0..bytes.len() {
            for mask in 1..=u8::MAX {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= mask;
                if let Ok(text) = std::str::from_utf8(&flipped) {
                    parses_to_a_runnable_plan_or_an_error(text)?;
                }
            }
        }
    }
}

/// With certain duplication every inter-rank message is delivered twice;
/// the receiver must detect and discard each duplicate.
#[test]
fn certain_duplication_is_fully_detected() {
    let world = 3;
    let len = 12;
    let (clean, _) = run_ps(world, len, None);
    let plan = FaultPlan::new(41).with_dup(1.0);
    let (faulted, dups) = run_ps(world, len, Some(plan));
    assert_eq!(clean, faulted);
    // Every rank pushes world-1 shards per round; each inter-rank message
    // is duplicated exactly once. Round 1's duplicates are all drained (and
    // counted) by round 2's receives; round 2 may leave trailing duplicates
    // unread, so the counter is bounded by the two-round total.
    let per_round = (world * (world - 1)) as u64;
    assert!(
        (per_round..=2 * per_round).contains(&dups),
        "expected {per_round}..={} duplicates, saw {dups}",
        2 * per_round
    );
}
