//! Deterministic, seed-driven fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] describes *what goes wrong* during a run: per-message
//! drop / duplicate / delay probabilities, scheduled worker crashes at tree
//! or layer boundaries, and per-rank straggler slowdowns. Every decision is
//! a pure hash of `(seed, kind, from, to, tag, seq, attempt)`, so the same
//! plan replays the same faults on every run — chaos tests are reproducible
//! and recovery is deterministic.
//!
//! The plan is `Copy` (fixed-capacity crash/slow tables) so [`crate::Cluster`]
//! stays `Copy` and configs can pass it by value.

/// Typed error produced by the communication layer instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The run was cancelled (a peer failed and the supervisor told every
    /// worker to stop).
    Cancelled,
    /// No matching message arrived within the receive deadline.
    Timeout {
        /// Rank we were waiting on.
        from: usize,
        /// Tag we were waiting for.
        tag: u64,
    },
    /// The destination endpoint no longer exists.
    PeerGone {
        /// Rank whose endpoint is gone.
        to: usize,
    },
    /// A send was dropped (by fault injection) more times than the retry
    /// budget allows.
    RetriesExhausted {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The endpoint's out-of-order pending buffer is full: a slow consumer
    /// (or a dup-heavy fault plan) has buffered more unconsumed messages
    /// than the bound allows. Backpressure must surface as an error, not
    /// as unbounded memory growth.
    PendingOverflow {
        /// The configured buffer capacity that was exceeded.
        capacity: usize,
    },
    /// A peer's payload did not decode: truncated, over-long, or covering a
    /// different number of items than the receiver expects.
    Malformed {
        /// Rank whose payload was rejected.
        from: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Cancelled => write!(f, "run cancelled by supervisor"),
            CommError::Timeout { from, tag } => {
                write!(f, "timed out waiting for message from rank {from} tag {tag}")
            }
            CommError::PeerGone { to } => write!(f, "peer endpoint {to} is gone"),
            CommError::RetriesExhausted { to, tag, attempts } => {
                write!(f, "send to rank {to} tag {tag} dropped {attempts} times; giving up")
            }
            CommError::PendingOverflow { capacity } => {
                write!(f, "pending message buffer overflowed its {capacity}-message bound")
            }
            CommError::Malformed { from } => write!(f, "malformed payload from rank {from}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Panic payload used by [`FaultPlan`]-scheduled crashes. The supervisor in
/// [`crate::Cluster`] downcasts worker panics to this type to distinguish an
/// injected (recoverable) crash from a genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Rank that crashed.
    pub rank: usize,
    /// Tree index at which the crash fired.
    pub tree: usize,
    /// Layer index at which the crash fired.
    pub layer: usize,
}

/// Maximum scheduled crashes per plan (fixed so the plan stays `Copy`).
pub const MAX_CRASHES: usize = 4;
/// Maximum straggler entries per plan.
pub const MAX_SLOW: usize = 4;
/// Maximum tag-scope entries per plan (fixed so the plan stays `Copy`).
pub const FAULT_SCOPE_CAP: usize = 8;

/// A scheduled worker crash at a `(tree, layer)` boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPoint {
    /// Rank to crash.
    pub rank: u16,
    /// Tree index (0-based) at which to crash.
    pub tree: u32,
    /// Layer index (0-based) within the tree; the default spec layer is 1,
    /// i.e. genuinely mid-tree.
    pub layer: u32,
}

/// A deterministic fault-injection plan. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-message decision.
    pub seed: u64,
    /// Probability a point-to-point send attempt is dropped.
    pub drop_p: f64,
    /// Probability a delivered message is duplicated on the wire.
    pub dup_p: f64,
    /// Probability a delivered message is delayed.
    pub delay_p: f64,
    /// Modelled delay seconds charged when a delay fires.
    pub delay_s: f64,
    /// Retry budget per message before `RetriesExhausted`.
    pub max_attempts: u32,
    crashes: [Option<CrashPoint>; MAX_CRASHES],
    slow: [Option<(u16, f32)>; MAX_SLOW],
    /// When any entry is set, drop/dup/delay decisions fire only for
    /// messages whose tag is listed here (`tag=` in the spec grammar);
    /// crash and slow entries are unaffected. Empty = every tag.
    tag_scope: [Option<u64>; FAULT_SCOPE_CAP],
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

/// Decision kinds, mixed into the hash so drop/dup/delay draws are
/// independent of each other.
const KIND_DROP: u64 = 1;
const KIND_DUP: u64 = 2;
const KIND_DELAY: u64 = 3;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_s: 0.0,
            max_attempts: 12,
            crashes: [None; MAX_CRASHES],
            slow: [None; MAX_SLOW],
            tag_scope: [None; FAULT_SCOPE_CAP],
        }
    }

    /// Sets the per-attempt drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Sets the delay probability and modelled delay seconds.
    pub fn with_delay(mut self, p: f64, seconds: f64) -> Self {
        self.delay_p = p;
        self.delay_s = seconds;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Schedules a crash of `rank` at the start of layer `layer` of tree
    /// `tree`. Panics if the plan already holds [`MAX_CRASHES`] crashes.
    pub fn with_crash(mut self, rank: usize, tree: usize, layer: usize) -> Self {
        let slot = self
            .crashes
            .iter_mut()
            .find(|c| c.is_none())
            // lint: allow(panic-call) — plan-construction misuse is a test-setup bug, not a comm fault
            .unwrap_or_else(|| panic!("fault plan holds at most {MAX_CRASHES} crashes"));
        *slot = Some(CrashPoint { rank: rank as u16, tree: tree as u32, layer: layer as u32 });
        self
    }

    /// Marks `rank` as a straggler: its modelled per-message network time is
    /// multiplied by `factor`. Panics if the table is full.
    pub fn with_slow(mut self, rank: usize, factor: f64) -> Self {
        let slot = self
            .slow
            .iter_mut()
            .find(|s| s.is_none())
            // lint: allow(panic-call) — plan-construction misuse is a test-setup bug, not a comm fault
            .unwrap_or_else(|| panic!("fault plan holds at most {MAX_SLOW} stragglers"));
        *slot = Some((rank as u16, factor as f32));
        self
    }

    /// Restricts drop/dup/delay decisions to messages carrying `tag`
    /// (repeatable up to [`FAULT_SCOPE_CAP`] tags). Panics if the table is
    /// full; re-adding a tag already in scope is a no-op.
    pub fn with_tag(mut self, tag: u64) -> Self {
        if self.tag_scope.iter().flatten().any(|&t| t == tag) {
            return self;
        }
        let slot = self
            .tag_scope
            .iter_mut()
            .find(|t| t.is_none())
            // lint: allow(panic-call) — plan-construction misuse is a test-setup bug, not a comm fault
            .unwrap_or_else(|| panic!("fault plan scopes at most {FAULT_SCOPE_CAP} tags"));
        *slot = Some(tag);
        self
    }

    /// Whether drop/dup/delay decisions apply to messages carrying `tag`:
    /// true when the scope table is empty (no `tag=` items — every tag) or
    /// when `tag` is listed.
    pub fn targets_tag(&self, tag: u64) -> bool {
        let mut any = false;
        for t in self.tag_scope.iter().flatten() {
            if *t == tag {
                return true;
            }
            any = true;
        }
        !any
    }

    /// The scoped tags, in insertion order (empty = every tag).
    pub fn tag_scope(&self) -> impl Iterator<Item = u64> + '_ {
        self.tag_scope.iter().flatten().copied()
    }

    /// Whether the plan can actually inject anything.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.delay_p > 0.0
            || self.crashes.iter().any(Option::is_some)
            || self.slow.iter().any(Option::is_some)
    }

    /// Scheduled crashes, in insertion order.
    pub fn crashes(&self) -> impl Iterator<Item = CrashPoint> + '_ {
        self.crashes.iter().flatten().copied()
    }

    /// Index of the crash scheduled for exactly `(rank, tree, layer)`, if any.
    pub fn crash_index(&self, rank: usize, tree: usize, layer: usize) -> Option<usize> {
        self.crashes.iter().position(|c| {
            c.is_some_and(|c| {
                c.rank as usize == rank && c.tree as usize == tree && c.layer as usize == layer
            })
        })
    }

    /// Serving-plane crash poll: whether a crash is scheduled for `rank` at
    /// frame ordinal `handled` (the number of serve frames the replica has
    /// handled so far, cumulative across recoveries so each crash point
    /// fires exactly once). The serve plane reads `crash=R@K` as "crash
    /// replica R before handling its K-th frame"; the layer field is
    /// ignored there — serving has no tree/layer boundaries.
    pub fn serve_crash_at(&self, rank: usize, handled: usize) -> bool {
        self.crashes
            .iter()
            .flatten()
            .any(|c| c.rank as usize == rank && c.tree as usize == handled)
    }

    /// Straggler multiplier for `rank` (1.0 when not slowed).
    pub fn slow_factor(&self, rank: usize) -> f64 {
        self.slow
            .iter()
            .flatten()
            .find(|(r, _)| *r as usize == rank)
            .map_or(1.0, |(_, f)| f64::from(*f))
    }

    fn unit(&self, kind: u64, from: usize, to: usize, tag: u64, seq: u64, attempt: u32) -> f64 {
        let mut h = splitmix(self.seed ^ kind.wrapping_mul(0xa24b_aed4_963e_e407));
        h = splitmix(h ^ (from as u64).wrapping_mul(0x9fb2_1c65_1e98_df25));
        h = splitmix(h ^ (to as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        h = splitmix(h ^ tag);
        h = splitmix(h ^ seq);
        h = splitmix(h ^ u64::from(attempt));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether attempt `attempt` of this message is dropped.
    pub fn should_drop(&self, from: usize, to: usize, tag: u64, seq: u64, attempt: u32) -> bool {
        self.drop_p > 0.0
            && self.targets_tag(tag)
            && self.unit(KIND_DROP, from, to, tag, seq, attempt) < self.drop_p
    }

    /// Whether the delivered message is duplicated.
    pub fn should_dup(&self, from: usize, to: usize, tag: u64, seq: u64, attempt: u32) -> bool {
        self.dup_p > 0.0
            && self.targets_tag(tag)
            && self.unit(KIND_DUP, from, to, tag, seq, attempt) < self.dup_p
    }

    /// Modelled delay seconds charged to the delivered message (0.0 when no
    /// delay fires).
    pub fn delay_for(&self, from: usize, to: usize, tag: u64, seq: u64, attempt: u32) -> f64 {
        if self.delay_p > 0.0
            && self.targets_tag(tag)
            && self.unit(KIND_DELAY, from, to, tag, seq, attempt) < self.delay_p
        {
            self.delay_s
        } else {
            0.0
        }
    }

    /// Parses a `seed:spec` string, e.g.
    /// `42:drop=0.05,dup=0.02,delay=0.1@0.001,crash=1@3.1,slow=2@4.0,tag=serve_route`.
    ///
    /// Grammar: the part before the first `:` is the u64 seed; the rest is a
    /// comma-separated list of `drop=P`, `dup=P`, `delay=P@SECONDS`,
    /// `crash=RANK@TREE[.LAYER]` (layer defaults to 1 — mid-tree; the serve
    /// plane reads TREE as a frame ordinal, see [`FaultPlan::serve_crash_at`]),
    /// `slow=RANK@FACTOR`, `attempts=N`, and `tag=<name|id>` (repeatable)
    /// which scopes drop/dup/delay to the named protocol tags. Tag names
    /// resolve through [`crate::comm::protocol::by_name`] — an unknown name
    /// is a parse error; a raw id is accepted as decimal or `0x`-hex. An
    /// empty spec after the seed is allowed (a plan that injects nothing).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let (seed_str, spec) = text
            .split_once(':')
            .ok_or_else(|| format!("fault spec '{text}' must be 'seed:spec'"))?;
        let seed: u64 =
            seed_str.trim().parse().map_err(|e| format!("bad fault seed '{seed_str}': {e}"))?;
        let mut plan = FaultPlan::new(seed);
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("fault item '{item}' must be 'key=value'"))?;
            let parse_f64 = |v: &str, what: &str| -> Result<f64, String> {
                v.parse().map_err(|e| format!("bad {what} '{v}': {e}"))
            };
            match key {
                "drop" => plan.drop_p = parse_f64(value, "drop probability")?,
                "dup" => plan.dup_p = parse_f64(value, "dup probability")?,
                "delay" => {
                    let (p, s) = value
                        .split_once('@')
                        .ok_or_else(|| format!("delay '{value}' must be 'P@SECONDS'"))?;
                    plan.delay_p = parse_f64(p, "delay probability")?;
                    plan.delay_s = parse_f64(s, "delay seconds")?;
                }
                "crash" => {
                    let (rank, at) = value
                        .split_once('@')
                        .ok_or_else(|| format!("crash '{value}' must be 'RANK@TREE[.LAYER]'"))?;
                    let rank: usize =
                        rank.parse().map_err(|e| format!("bad crash rank '{rank}': {e}"))?;
                    let (tree, layer) = match at.split_once('.') {
                        Some((t, l)) => (
                            t.parse().map_err(|e| format!("bad crash tree '{t}': {e}"))?,
                            l.parse().map_err(|e| format!("bad crash layer '{l}': {e}"))?,
                        ),
                        None => (
                            at.parse().map_err(|e| format!("bad crash tree '{at}': {e}"))?,
                            1usize,
                        ),
                    };
                    plan = plan.with_crash(rank, tree, layer);
                }
                "slow" => {
                    let (rank, factor) = value
                        .split_once('@')
                        .ok_or_else(|| format!("slow '{value}' must be 'RANK@FACTOR'"))?;
                    let rank: usize =
                        rank.parse().map_err(|e| format!("bad slow rank '{rank}': {e}"))?;
                    plan = plan.with_slow(rank, parse_f64(factor, "slow factor")?);
                }
                "attempts" => {
                    plan.max_attempts = value
                        .parse()
                        .map_err(|e| format!("bad attempts '{value}': {e}"))?;
                    plan.max_attempts = plan.max_attempts.max(1);
                }
                "tag" => {
                    let tag = match crate::comm::protocol::by_name(value) {
                        Some(tag) => tag,
                        None => {
                            let parsed = match value.strip_prefix("0x") {
                                Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
                                None => value.parse::<u64>().ok(),
                            };
                            parsed.ok_or_else(|| {
                                format!(
                                    "unknown tag '{value}' (known names: {})",
                                    crate::comm::protocol::known_names().join(", ")
                                )
                            })?
                        }
                    };
                    if plan.tag_scope.iter().flatten().count() == FAULT_SCOPE_CAP
                        && !plan.tag_scope.iter().flatten().any(|&t| t == tag)
                    {
                        return Err(format!("at most {FAULT_SCOPE_CAP} tag= items per plan"));
                    }
                    plan = plan.with_tag(tag);
                }
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        for p in [plan.drop_p, plan.dup_p, plan.delay_p] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault probability {p} outside [0, 1]"));
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan::new(7).with_drop(0.2).with_dup(0.1);
        let mut drops = 0;
        for seq in 0..10_000u64 {
            if plan.should_drop(0, 1, 5, seq, 0) {
                drops += 1;
            }
            // Same inputs, same answer.
            assert_eq!(
                plan.should_drop(0, 1, 5, seq, 0),
                plan.should_drop(0, 1, 5, seq, 0)
            );
        }
        let rate = f64::from(drops) / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "drop rate {rate} far from 0.2");
        // Different kinds draw independently: dup decisions differ from drop.
        let disagree = (0..1_000u64)
            .filter(|&seq| {
                plan.should_drop(0, 1, 5, seq, 0) != plan.should_dup(0, 1, 5, seq, 0)
            })
            .count();
        assert!(disagree > 0);
    }

    #[test]
    fn retry_attempts_redraw() {
        let plan = FaultPlan::new(3).with_drop(0.5);
        // Some message dropped at attempt 0 must eventually get through
        // within the default budget.
        for seq in 0..100u64 {
            let delivered = (0..plan.max_attempts).any(|a| !plan.should_drop(1, 2, 9, seq, a));
            assert!(delivered, "seq {seq} never delivered");
        }
    }

    #[test]
    fn parse_full_grammar() {
        let plan =
            FaultPlan::parse("42:drop=0.05,dup=0.02,delay=0.1@0.001,crash=1@3.2,slow=2@4.5,attempts=9")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.drop_p, 0.05);
        assert_eq!(plan.dup_p, 0.02);
        assert_eq!(plan.delay_p, 0.1);
        assert_eq!(plan.delay_s, 0.001);
        assert_eq!(plan.max_attempts, 9);
        assert_eq!(plan.crash_index(1, 3, 2), Some(0));
        assert_eq!(plan.crash_index(1, 3, 1), None);
        assert_eq!(plan.slow_factor(2), 4.5);
        assert_eq!(plan.slow_factor(0), 1.0);
        assert!(plan.is_active());
    }

    #[test]
    fn parse_crash_layer_defaults_to_one() {
        let plan = FaultPlan::parse("1:crash=0@5").unwrap();
        assert_eq!(plan.crash_index(0, 5, 1), Some(0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("no-colon").is_err());
        assert!(FaultPlan::parse("x:drop=0.1").is_err());
        assert!(FaultPlan::parse("1:drop=2.0").is_err());
        assert!(FaultPlan::parse("1:bogus=1").is_err());
        assert!(FaultPlan::parse("1:delay=0.1").is_err());
        assert!(FaultPlan::parse("1:crash=0").is_err());
    }

    #[test]
    fn tag_scope_confines_drop_dup_delay() {
        let scoped = FaultPlan::new(7).with_drop(1.0).with_dup(1.0).with_tag(5).with_tag(9);
        let open = FaultPlan::new(7).with_drop(1.0).with_dup(1.0);
        assert!(scoped.targets_tag(5) && scoped.targets_tag(9));
        assert!(!scoped.targets_tag(6));
        assert!(open.targets_tag(6), "empty scope means every tag");
        // Scoped tags draw exactly the decisions the open plan draws.
        for seq in 0..100u64 {
            assert!(scoped.should_drop(0, 1, 5, seq, 0));
            assert!(!scoped.should_drop(0, 1, 6, seq, 0), "off-scope tag must be untouched");
            assert!(!scoped.should_dup(0, 1, 6, seq, 0));
            assert_eq!(
                scoped.should_drop(0, 1, 9, seq, 0),
                open.should_drop(0, 1, 9, seq, 0),
                "scoping must not change the in-scope dice"
            );
        }
        let delayed = FaultPlan::new(3).with_delay(1.0, 0.5).with_tag(2);
        assert_eq!(delayed.delay_for(0, 1, 2, 0, 0), 0.5);
        assert_eq!(delayed.delay_for(0, 1, 3, 0, 0), 0.0);
        // Re-adding an in-scope tag is a no-op, not a second slot.
        assert_eq!(scoped.tag_scope().count(), 2);
        assert_eq!(scoped.with_tag(5).tag_scope().count(), 2);
    }

    #[test]
    fn parse_tag_scope_names_and_ids() {
        let plan = FaultPlan::parse("1:drop=0.5,tag=serve_route,tag=serve_reply").unwrap();
        let scoped: Vec<u64> = plan.tag_scope().collect();
        assert_eq!(
            scoped,
            vec![
                crate::comm::protocol::SERVE_ROUTE_TAG,
                crate::comm::protocol::SERVE_REPLY_TAG
            ]
        );
        // Raw ids in decimal and hex.
        let by_id = FaultPlan::parse("1:tag=42,tag=0x7376_7271").unwrap();
        let scoped: Vec<u64> = by_id.tag_scope().collect();
        assert_eq!(scoped, vec![42, crate::comm::protocol::SERVE_REQUEST_TAG]);
        // Every registered name parses.
        for name in crate::comm::protocol::known_names() {
            let spec = format!("1:tag={name}");
            assert!(FaultPlan::parse(&spec).is_ok(), "registered name {name} must parse");
        }
    }

    #[test]
    fn parse_rejects_unknown_tag_names() {
        let err = FaultPlan::parse("1:tag=serve_requets").unwrap_err();
        assert!(err.contains("unknown tag"), "{err}");
        assert!(err.contains("serve_request"), "error must list known names: {err}");
        assert!(FaultPlan::parse("1:tag=").is_err());
        assert!(FaultPlan::parse("1:tag=0xzz").is_err());
        // Scope table overflow is a parse error, not a panic.
        let overflow = format!(
            "1:{}",
            (0..=FAULT_SCOPE_CAP).map(|i| format!("tag={i}")).collect::<Vec<_>>().join(",")
        );
        assert!(FaultPlan::parse(&overflow).unwrap_err().contains("at most"));
    }

    #[test]
    fn serve_crash_at_matches_frame_ordinal() {
        let plan = FaultPlan::parse("1:crash=2@7").unwrap();
        assert!(plan.serve_crash_at(2, 7));
        assert!(!plan.serve_crash_at(2, 6));
        assert!(!plan.serve_crash_at(1, 7));
        // Layer is ignored on the serve plane.
        let deep = FaultPlan::parse("1:crash=0@3.2").unwrap();
        assert!(deep.serve_crash_at(0, 3));
    }

    #[test]
    fn empty_spec_is_inactive() {
        let plan = FaultPlan::parse("5:").unwrap();
        assert!(!plan.is_active());
        assert!(!plan.should_drop(0, 1, 2, 3, 0));
        assert_eq!(plan.delay_for(0, 1, 2, 3, 0), 0.0);
    }
}
