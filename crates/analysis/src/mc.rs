//! The bounded protocol model checker (DESIGN.md item 15).
//!
//! Every protocol-bearing function in the SPMD simulation scope
//! (collectives, parameter server, repartition, the growth loop and the
//! policy methods it calls) is a *unit*: for world sizes 1–4 its IR is
//! flattened into one linear trace
//! per rank — branch conditions evaluated in a per-rank environment,
//! unresolved data-dependent choices enumerated *synchronously* across
//! ranks (SPMD code branches on the same data everywhere; rank divergence
//! enters only through `rank()`), unresolved parameters (a broadcast
//! root, a tag passed in) enumerated as free variables over `0..world`.
//! A greedy scheduler then runs the rank traces against per-edge FIFO
//! buffers. Sends never block (matching the real `Comm`), receives match
//! on `(from, tag)`, and collectives (plus `fault_point`, modeled
//! identically) are all-ranks rendezvous — so the scheduler is confluent
//! and a single greedy run per trace set decides:
//!
//! * `mc-deadlock` — a rank blocks forever on a receive nothing matches;
//! * `mc-collective-divergence` — ranks reach different rendezvous
//!   (or some ranks exit while others wait at one);
//! * `mc-orphan-send` — a message is never received, or is addressed to
//!   a rank outside the world.
//!
//! The serving plane is *not* simulated — every serve-loop receive has a
//! tick timeout, so nothing there blocks forever. Instead its frame
//! machine is checked statically by tag *name*: every frame a role emits
//! must be in the receivable set of the role it targets
//! (`mc-orphan-frame`), and the replica's crash-recovery path must purge
//! stale buffers, announce itself with a RECOVER frame the router
//! listens for, and only shrink its listen set while degraded
//! (`mc-fault-closure`). `dead-tag` flags registry tags no extracted
//! schedule mentions. Wire-codec parity is not checked here: a width or
//! field-order drift breaks decode(encode(x)) = x, which the serve and
//! cluster wire round-trip tests assert.

use crate::extract::{extract_fns, parse_registry};
use crate::ir::{Cond, Expr, FnDef, Op, RecvAnySrc, Rhs};
use crate::lexer::{lex, Lexed};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// `(id, summary)` for the model-check rule family (`--model-check`).
/// Kept separate from [`crate::rules::RULES`]: these run in their own
/// pass, over extracted schedules rather than raw tokens.
pub const MC_RULES: &[(&str, &str)] = &[
    (
        "mc-deadlock",
        "a rank's schedule blocks forever on a recv no reachable send matches, for \
         some world size 1-4 and nondeterministic choice",
    ),
    (
        "mc-collective-divergence",
        "ranks reach different collective rendezvous (or some ranks exit while \
         others wait) — the blocking-rendezvous deadlock",
    ),
    (
        "mc-orphan-send",
        "a sent message is never received by the end of the schedule, or targets a \
         rank outside the world",
    ),
    (
        "mc-orphan-frame",
        "a serving-plane role emits a frame tag absent from the receiving role's \
         recv/recv_any tag set",
    ),
    (
        "mc-fault-closure",
        "the replica crash-recovery path must purge pending buffers, send a RECOVER \
         frame the router receives, and keep its degraded listen set a subset of \
         the healthy one",
    ),
    (
        "dead-tag",
        "a tag registered in comm::protocol that no extracted schedule ever sends \
         or receives",
    ),
];

/// Collective tags auto-allocate from high space (mirrors
/// `COLLECTIVE_TAG_BASE` being `1 << 63` minus headroom; the exact value
/// only needs to be collision-free with registry tags).
const ALLOC_BASE: u64 = 1 << 62;
const MAX_WORLD: u64 = 4;
const MAX_FREE_VARS: usize = 2;
const MAX_FOR_TRIPS: u64 = 16;
const MAX_TRACE: usize = 4096;
const VECTOR_BUDGET: usize = 4096;

/// Files whose functions are simulated as SPMD units.
fn sim_scope(path: &str) -> bool {
    crate::rules::trainer_scope(path)
        || matches!(
            path,
            "crates/cluster/src/collectives.rs"
                | "crates/cluster/src/ps.rs"
                | "crates/partition/src/transform.rs"
                | "crates/quadrants/src/common.rs"
        )
}

/// Serving-plane roles, keyed by basename so fixtures scope the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ServeRole {
    Router,
    Replica,
    /// Request/publish clients (the availability harness).
    Client,
}

fn serve_role(path: &str) -> Option<ServeRole> {
    if !path.starts_with("crates/serve/src/") {
        return None;
    }
    match path.rsplit('/').next().unwrap_or("") {
        "router.rs" => Some(ServeRole::Router),
        "replica.rs" => Some(ServeRole::Replica),
        "avail.rs" => Some(ServeRole::Client),
        _ => None,
    }
}

/// Where a send from this file lands: routers talk to clients when the
/// peer expression names one, replicas otherwise; everyone else has a
/// fixed peer role.
fn send_target(path: &str, to_vars: &BTreeSet<String>) -> Option<ServeRole> {
    match path.rsplit('/').next().unwrap_or("") {
        "router.rs" => {
            if to_vars.contains("client") || to_vars.contains("publisher") {
                Some(ServeRole::Client)
            } else {
                Some(ServeRole::Replica)
            }
        }
        "replica.rs" => Some(ServeRole::Router),
        "avail.rs" => Some(ServeRole::Router),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Flattening: IR tree -> one linear trace per rank
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum TOp {
    Send { to: u64, tag: u64, line: u32 },
    Recv { from: u64, tag: u64, line: u32 },
    RecvAny { tags: Vec<u64>, line: u32 },
    Rendezvous { kind: String, line: u32 },
}

enum Flow {
    Normal,
    Continue,
    Break,
    Return,
}

struct Flattener<'a> {
    rank: u64,
    world: u64,
    env: BTreeMap<String, u64>,
    /// Free-variable assignment, re-applied when an opaque `let` shadows.
    free_env: &'a BTreeMap<String, u64>,
    origins: BTreeMap<String, Expr>,
    alloc: u64,
    choices: &'a [u32],
    fndef: &'a FnDef,
    bearing: &'a BTreeSet<String>,
    /// Collect mode: explore every branch, gather free variables, build
    /// no trace, never skip on unresolved peer/tag expressions.
    collect: bool,
    free: BTreeSet<String>,
    trace: Vec<TOp>,
    skip: Option<(u32, String)>,
}

impl<'a> Flattener<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        rank: u64,
        world: u64,
        base_env: &BTreeMap<String, u64>,
        free_env: &'a BTreeMap<String, u64>,
        choices: &'a [u32],
        fndef: &'a FnDef,
        bearing: &'a BTreeSet<String>,
        collect: bool,
    ) -> Self {
        let mut env = base_env.clone();
        env.extend(free_env.iter().map(|(k, v)| (k.clone(), *v)));
        Flattener {
            rank,
            world,
            env,
            free_env,
            origins: BTreeMap::new(),
            alloc: 0,
            choices,
            fndef,
            bearing,
            collect,
            free: BTreeSet::new(),
            trace: Vec::new(),
            skip: None,
        }
    }

    fn eval(&self, e: &Expr) -> Option<u64> {
        e.eval(self.rank, self.world, &self.env)
    }

    /// A peer/tag-position expression must evaluate. In collect mode its
    /// unbound variables become free-variable candidates instead.
    fn resolve(&mut self, e: &Expr, line: u32, what: &str) -> Option<u64> {
        if let Some(v) = self.eval(e) {
            return Some(v);
        }
        if self.collect {
            self.collect_unbound(e);
            Some(0)
        } else {
            if self.skip.is_none() {
                self.skip = Some((line, format!("unresolvable {what} expression")));
            }
            None
        }
    }

    fn collect_unbound(&mut self, e: &Expr) {
        let mut vars = BTreeSet::new();
        e.vars_into(&mut vars);
        for v in vars {
            if !self.env.contains_key(&v) {
                self.free.insert(v);
            }
        }
    }

    fn choice(&self, site: u32) -> u32 {
        self.choices.get(site as usize).copied().unwrap_or(0)
    }

    fn walk(&mut self, ops: &[Op]) -> Flow {
        for op in ops {
            if self.skip.is_some() && !self.collect {
                return Flow::Return;
            }
            if self.trace.len() > MAX_TRACE {
                self.skip = Some((0, "trace bound exceeded".into()));
                return Flow::Return;
            }
            match op {
                Op::Let(name, rhs) => self.walk_let(name, rhs),
                Op::Send { to, tag, line } => {
                    let (Some(t), Some(g)) = (
                        self.resolve(to, *line, "send peer"),
                        self.resolve(tag, *line, "send tag"),
                    ) else {
                        return Flow::Return;
                    };
                    self.trace.push(TOp::Send { to: t, tag: g, line: *line });
                }
                Op::Recv { from, tag, line } => {
                    let (Some(f), Some(g)) = (
                        self.resolve(from, *line, "recv peer"),
                        self.resolve(tag, *line, "recv tag"),
                    ) else {
                        return Flow::Return;
                    };
                    self.trace.push(TOp::Recv { from: f, tag: g, line: *line });
                }
                Op::RecvAny { tags, line } => {
                    let exprs: Vec<Expr> = match tags {
                        RecvAnySrc::List(v) => v.clone(),
                        RecvAnySrc::Ref(name) => match self.fndef.tag_arrays.get(name) {
                            Some(v) => v.clone(),
                            None => {
                                self.skip = Some((
                                    *line,
                                    format!("recv_any over unresolvable tag set `{name}`"),
                                ));
                                return Flow::Return;
                            }
                        },
                    };
                    let mut vals = Vec::new();
                    for e in &exprs {
                        match self.resolve(e, *line, "recv_any tag") {
                            Some(v) => vals.push(v),
                            None => return Flow::Return,
                        }
                    }
                    self.trace.push(TOp::RecvAny { tags: vals, line: *line });
                }
                Op::Rendezvous { kind, line } => {
                    self.trace.push(TOp::Rendezvous { kind: kind.clone(), line: *line });
                }
                Op::Call { name, line } => {
                    // A call into a protocol-bearing function is itself a
                    // rendezvous: every rank must reach it at the same
                    // schedule point (the callee's internals are verified
                    // as their own unit).
                    if self.bearing.contains(name) {
                        self.trace.push(TOp::Rendezvous {
                            kind: format!("fn {name}"),
                            line: *line,
                        });
                    }
                }
                Op::Purge { .. } => {}
                Op::If { cond, then, els, site, .. } => {
                    if self.collect {
                        if let Cond::Cmp(_, a, b) = cond {
                            let uneval = self.eval(a).is_none() || self.eval(b).is_none();
                            let rank_dep = a.mentions_rank(&self.origins)
                                || b.mentions_rank(&self.origins);
                            if uneval && rank_dep {
                                self.collect_unbound(a);
                                self.collect_unbound(b);
                            }
                        }
                        self.walk(then);
                        self.walk(els);
                    } else {
                        let take_then = match cond {
                            Cond::Cmp(op, a, b) => match (self.eval(a), self.eval(b)) {
                                (Some(x), Some(y)) => op.apply(x, y),
                                _ => self.choice(*site) == 0,
                            },
                            Cond::Unknown => self.choice(*site) == 0,
                        };
                        let flow = if take_then { self.walk(then) } else { self.walk(els) };
                        if !matches!(flow, Flow::Normal) {
                            return flow;
                        }
                    }
                }
                Op::ForRange { var, lo, hi, body, site } => {
                    if self.collect {
                        self.env.insert(var.clone(), self.eval(lo).unwrap_or(0));
                        self.walk(body);
                    } else {
                        match (self.eval(lo), self.eval(hi)) {
                            (Some(l), Some(h)) => {
                                let h = h.min(l.saturating_add(MAX_FOR_TRIPS));
                                let mut v = l;
                                while v < h {
                                    self.env.insert(var.clone(), v);
                                    match self.walk(body) {
                                        Flow::Break => break,
                                        Flow::Return => return Flow::Return,
                                        _ => {}
                                    }
                                    v += 1;
                                }
                            }
                            _ => {
                                // Degraded: 0 or 2 trips, var = trip index.
                                let trips = if self.choice(*site) == 0 { 0 } else { 2 };
                                for v in 0..trips {
                                    self.env.insert(var.clone(), v);
                                    match self.walk(body) {
                                        Flow::Break => break,
                                        Flow::Return => return Flow::Return,
                                        _ => {}
                                    }
                                }
                            }
                        }
                    }
                }
                Op::LoopNondet { body, site } => {
                    if self.collect {
                        self.walk(body);
                    } else {
                        let trips = if self.choice(*site) == 0 { 0 } else { 2 };
                        for _ in 0..trips {
                            match self.walk(body) {
                                Flow::Break => break,
                                Flow::Return => return Flow::Return,
                                _ => {}
                            }
                        }
                    }
                }
                Op::Match { arms, site, .. } => {
                    if self.collect {
                        for arm in arms {
                            self.walk(arm);
                        }
                    } else if !arms.is_empty() {
                        let pick = (self.choice(*site) as usize) % arms.len();
                        let flow = self.walk(&arms[pick]);
                        if !matches!(flow, Flow::Normal) {
                            return flow;
                        }
                    }
                }
                Op::Continue => return Flow::Continue,
                Op::Break => return Flow::Break,
                Op::Return => return Flow::Return,
            }
        }
        Flow::Normal
    }

    fn walk_let(&mut self, name: &str, rhs: &Rhs) {
        match rhs {
            Rhs::Expr(e) => {
                self.origins.insert(name.to_string(), e.clone());
                if let Some(v) = self.eval(e) {
                    self.env.insert(name.to_string(), v);
                } else {
                    self.env.remove(name);
                }
            }
            Rhs::AllocTags(n) => {
                self.origins.remove(name);
                self.env.insert(name.to_string(), ALLOC_BASE + self.alloc);
                let cnt = self.eval(n).unwrap_or(1).clamp(1, 64);
                self.alloc += cnt;
            }
            Rhs::TagArray(_) | Rhs::Opaque => {
                self.origins.remove(name);
                // An opaque shadow of a free variable keeps its enumerated
                // value (the variable was collected as free precisely
                // because the binding resolves to nothing).
                match self.free_env.get(name) {
                    Some(v) => {
                        self.env.insert(name.to_string(), *v);
                    }
                    None => {
                        self.env.remove(name);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Choice-site enumeration
// ---------------------------------------------------------------------------

/// A choice site only earns a radix if some alternative under it could
/// change the trace or the environment. Leaving a loop or the function
/// does: an `if done { break; }` guard that was never enumerated would cut
/// every loop body short at the guard.
fn subtree_matters(ops: &[Op]) -> bool {
    ops.iter().any(|op| match op {
        Op::Send { .. }
        | Op::Recv { .. }
        | Op::RecvAny { .. }
        | Op::Rendezvous { .. }
        | Op::Call { .. }
        | Op::Let(..)
        | Op::Break
        | Op::Continue
        | Op::Return => true,
        Op::If { then, els, .. } => subtree_matters(then) || subtree_matters(els),
        Op::ForRange { body, .. } | Op::LoopNondet { body, .. } => subtree_matters(body),
        Op::Match { arms, .. } => arms.iter().any(|a| subtree_matters(a)),
        _ => false,
    })
}

fn fill_radixes(ops: &[Op], rad: &mut [u32]) {
    for op in ops {
        match op {
            Op::If { then, els, site, .. } => {
                if subtree_matters(then) || subtree_matters(els) {
                    rad[*site as usize] = 2;
                }
                fill_radixes(then, rad);
                fill_radixes(els, rad);
            }
            Op::ForRange { body, site, .. } | Op::LoopNondet { body, site } => {
                if subtree_matters(body) {
                    rad[*site as usize] = 2;
                }
                fill_radixes(body, rad);
            }
            Op::Match { arms, site, .. } => {
                if arms.iter().any(|a| subtree_matters(a)) {
                    rad[*site as usize] = (arms.len().max(1)) as u32;
                }
                for arm in arms {
                    fill_radixes(arm, rad);
                }
            }
            _ => {}
        }
    }
}

/// Mixed-radix odometer, capped. Identical flattened trace sets are
/// deduplicated downstream, so over-enumeration (sites whose condition
/// turned out deterministic) costs flatten time, not simulation time.
fn enumerate_vectors(rad: &[u32], cap: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut v = vec![0u32; rad.len()];
    loop {
        out.push(v.clone());
        if out.len() >= cap {
            return out;
        }
        let mut i = 0;
        loop {
            if i >= rad.len() {
                return out;
            }
            v[i] += 1;
            if v[i] < rad[i].max(1) {
                break;
            }
            v[i] = 0;
            i += 1;
        }
    }
}

/// All assignments of `vars` over `0..world` (uniform across ranks: a
/// free variable models a value every rank computed identically — a
/// broadcast root, an owner, a caller-supplied tag).
fn enumerate_assignments(vars: &[String], world: u64) -> Vec<BTreeMap<String, u64>> {
    let mut out = vec![BTreeMap::new()];
    for var in vars {
        let mut next = Vec::with_capacity(out.len() * world as usize);
        for base in &out {
            for v in 0..world.max(1) {
                let mut m = base.clone();
                m.insert(var.clone(), v);
                next.push(m);
            }
        }
        out = next;
    }
    out
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

/// Greedy confluent run of one trace set. Sends never block and receive
/// matching is deterministic per receiver, so if any schedule deadlocks,
/// the greedy schedule stalls too — one run decides the trace set.
fn simulate(traces: &[Vec<TOp>], w: usize) -> (Option<(&'static str, u32, String)>, usize) {
    let mut pc = vec![0usize; w];
    let mut bufs: BTreeMap<(usize, usize), VecDeque<(u64, u32)>> = BTreeMap::new();
    let mut max_depth = 0usize;
    loop {
        let mut progressed = false;
        for r in 0..w {
            while let Some(op) = traces[r].get(pc[r]) {
                match op {
                    TOp::Send { to, tag, line } => {
                        let to = *to as usize;
                        if to >= w {
                            return (
                                Some((
                                    "mc-orphan-send",
                                    *line,
                                    format!(
                                        "rank {r} sends tag {tag:#x} to rank {to}, outside \
                                         world {w}"
                                    ),
                                )),
                                max_depth,
                            );
                        }
                        let q = bufs.entry((r, to)).or_default();
                        q.push_back((*tag, *line));
                        max_depth = max_depth.max(q.len());
                        pc[r] += 1;
                        progressed = true;
                    }
                    TOp::Recv { from, tag, .. } => {
                        let from = *from as usize;
                        let matched = from < w
                            && bufs.get_mut(&(from, r)).is_some_and(|q| {
                                q.iter()
                                    .position(|(t, _)| t == tag)
                                    .map(|pos| q.remove(pos))
                                    .is_some()
                            });
                        if !matched {
                            break;
                        }
                        pc[r] += 1;
                        progressed = true;
                    }
                    TOp::RecvAny { tags, .. } => {
                        let mut matched = false;
                        for s in 0..w {
                            if let Some(q) = bufs.get_mut(&(s, r)) {
                                if let Some(pos) =
                                    q.iter().position(|(t, _)| tags.contains(t))
                                {
                                    q.remove(pos);
                                    matched = true;
                                    break;
                                }
                            }
                        }
                        if !matched {
                            break;
                        }
                        pc[r] += 1;
                        progressed = true;
                    }
                    TOp::Rendezvous { .. } => break,
                }
            }
        }
        if progressed {
            continue;
        }

        // Stall. Classify.
        let done: Vec<bool> = (0..w).map(|r| pc[r] >= traces[r].len()).collect();
        if done.iter().all(|d| *d) {
            for ((from, to), q) in &bufs {
                if let Some((tag, line)) = q.front() {
                    return (
                        Some((
                            "mc-orphan-send",
                            *line,
                            format!(
                                "message tag {tag:#x} from rank {from} to rank {to} is \
                                 never received (world {w})"
                            ),
                        )),
                        max_depth,
                    );
                }
            }
            return (None, max_depth);
        }
        let pending: Vec<usize> = (0..w).filter(|r| !done[*r]).collect();
        let all_rvz = pending
            .iter()
            .all(|r| matches!(traces[*r][pc[*r]], TOp::Rendezvous { .. }));
        if all_rvz {
            let kinds: BTreeSet<&str> = pending
                .iter()
                .map(|r| match &traces[*r][pc[*r]] {
                    TOp::Rendezvous { kind, .. } => kind.as_str(),
                    _ => unreachable!(),
                })
                .collect();
            if pending.len() == w && kinds.len() == 1 {
                for r in &pending {
                    pc[*r] += 1;
                }
                continue;
            }
            let (line, kind) = match &traces[pending[0]][pc[pending[0]]] {
                TOp::Rendezvous { kind, line } => (*line, kind.clone()),
                _ => unreachable!(),
            };
            let finished: Vec<usize> =
                (0..w).filter(|r| done[*r]).collect();
            let msg = if kinds.len() > 1 {
                format!(
                    "ranks reach different rendezvous ({}) — every rank must execute \
                     the same collective sequence (world {w})",
                    kinds.iter().copied().collect::<Vec<_>>().join(" vs ")
                )
            } else {
                format!(
                    "ranks {pending:?} wait at `{kind}` but ranks {finished:?} already \
                     finished the schedule — the rendezvous can never complete \
                     (world {w})"
                )
            };
            return (Some(("mc-collective-divergence", line, msg)), max_depth);
        }
        // Some rank is stuck on a receive.
        for r in &pending {
            match &traces[*r][pc[*r]] {
                TOp::Recv { from, tag, line } => {
                    return (
                        Some((
                            "mc-deadlock",
                            *line,
                            format!(
                                "rank {r} blocks forever waiting for tag {tag:#x} from \
                                 rank {from} — no matching send can still happen \
                                 (world {w})"
                            ),
                        )),
                        max_depth,
                    );
                }
                TOp::RecvAny { tags, line } => {
                    return (
                        Some((
                            "mc-deadlock",
                            *line,
                            format!(
                                "rank {r} blocks forever in recv_any over {} tag(s) — \
                                 no matching send can still happen (world {w})",
                                tags.len()
                            ),
                        )),
                        max_depth,
                    );
                }
                _ => {}
            }
        }
        unreachable!("stall with no blocked receive and no rendezvous");
    }
}

// ---------------------------------------------------------------------------
// Per-unit driver
// ---------------------------------------------------------------------------

/// What the checker did with one protocol-bearing function.
#[derive(Clone, Debug)]
pub struct UnitReport {
    pub name: String,
    pub path: String,
    pub line: u32,
    /// Distinct flattened trace sets simulated across worlds 1-4.
    pub traces_explored: u64,
    /// Deepest any per-edge FIFO got across all simulations.
    pub max_buffer_depth: usize,
    /// Free variables enumerated over `0..world`.
    pub free_vars: Vec<String>,
    /// Distinct rendezvous kinds the explored schedules meet, sorted: a
    /// collective's name, `fault_point`, or `fn <callee>` for a call into
    /// another protocol-bearing unit.
    pub rendezvous: Vec<String>,
    /// Set when the unit could not be simulated (with the reason); its
    /// schedule is then *not* verified.
    pub skipped: Option<String>,
}

/// The combined model-check result: findings plus the per-unit schedule
/// report (`--model-check` prints the latter; CI gates on the former).
#[derive(Clone, Debug, Default)]
pub struct McOutcome {
    pub diags: Vec<Diagnostic>,
    pub units: Vec<UnitReport>,
}

/// Can this function's ops form a closed protocol worth simulating?
/// One-directional helpers (send-only / recv-only, no rendezvous) are
/// building blocks verified through their callers — simulating them
/// alone would manufacture orphan-send noise.
fn eligible(f: &FnDef, bearing: &BTreeSet<String>) -> bool {
    fn scan(ops: &[Op], bearing: &BTreeSet<String>, s: &mut (bool, bool, bool)) {
        for op in ops {
            match op {
                Op::Send { .. } => s.0 = true,
                Op::Recv { .. } | Op::RecvAny { .. } => s.1 = true,
                Op::Rendezvous { .. } => s.2 = true,
                Op::Call { name, .. } if bearing.contains(name) => s.2 = true,
                Op::Call { .. } => {}
                Op::If { then, els, .. } => {
                    scan(then, bearing, s);
                    scan(els, bearing, s);
                }
                Op::ForRange { body, .. } | Op::LoopNondet { body, .. } => {
                    scan(body, bearing, s)
                }
                Op::Match { arms, .. } => {
                    for arm in arms {
                        scan(arm, bearing, s);
                    }
                }
                _ => {}
            }
        }
    }
    let mut s = (false, false, false);
    scan(&f.ops, bearing, &mut s);
    (s.0 && s.1) || s.2
}

fn check_unit(
    path: &str,
    f: &FnDef,
    registry_env: &BTreeMap<String, u64>,
    bearing: &BTreeSet<String>,
) -> (UnitReport, Vec<(&'static str, u32, String)>) {
    let mut report = UnitReport {
        name: f.name.clone(),
        path: path.to_string(),
        line: f.line,
        traces_explored: 0,
        max_buffer_depth: 0,
        free_vars: Vec::new(),
        rendezvous: Vec::new(),
        skipped: None,
    };
    let empty_free = BTreeMap::new();

    // Pass 1: branch-exhaustive free-variable collection.
    let mut collector = Flattener::new(
        0,
        MAX_WORLD,
        registry_env,
        &empty_free,
        &[],
        f,
        bearing,
        true,
    );
    collector.walk(&f.ops);
    if let Some((line, why)) = collector.skip {
        report.skipped = Some(format!("{why} (line {line})"));
        return (report, Vec::new());
    }
    let free: Vec<String> = collector.free.into_iter().collect();
    if free.len() > MAX_FREE_VARS {
        report.skipped = Some(format!(
            "{} unresolved parameters ({}) exceed the enumeration bound of {MAX_FREE_VARS}",
            free.len(),
            free.join(", ")
        ));
        return (report, Vec::new());
    }
    report.free_vars = free.clone();

    let mut rad = vec![1u32; f.n_sites as usize];
    fill_radixes(&f.ops, &mut rad);

    let mut findings: BTreeMap<(&'static str, u32), String> = BTreeMap::new();
    let mut kinds: BTreeSet<String> = BTreeSet::new();
    'worlds: for w in 1..=MAX_WORLD {
        let assigns = enumerate_assignments(&free, w);
        let cap = (VECTOR_BUDGET / assigns.len().max(1)).max(64);
        let vectors = enumerate_vectors(&rad, cap);
        let mut unique: BTreeSet<Vec<Vec<TOp>>> = BTreeSet::new();
        for free_env in &assigns {
            for choices in &vectors {
                let mut traces = Vec::with_capacity(w as usize);
                for r in 0..w {
                    let mut fl = Flattener::new(
                        r,
                        w,
                        registry_env,
                        free_env,
                        choices,
                        f,
                        bearing,
                        false,
                    );
                    fl.walk(&f.ops);
                    if let Some((line, why)) = fl.skip {
                        report.skipped =
                            Some(format!("{why} (line {line}, world {w})"));
                        break 'worlds;
                    }
                    traces.push(fl.trace);
                }
                unique.insert(traces);
            }
        }
        for traces in &unique {
            for op in traces.iter().flatten() {
                if let TOp::Rendezvous { kind, .. } = op {
                    kinds.insert(kind.clone());
                }
            }
            report.traces_explored += 1;
            let (finding, depth) = simulate(traces, w as usize);
            report.max_buffer_depth = report.max_buffer_depth.max(depth);
            if let Some((rule, line, msg)) = finding {
                findings
                    .entry((rule, line))
                    .or_insert_with(|| format!("fn `{}`: {msg}", f.name));
            }
        }
    }
    report.rendezvous = kinds.into_iter().collect();
    let out = findings
        .into_iter()
        .map(|((rule, line), msg)| (rule, line, msg))
        .collect();
    (report, out)
}

// ---------------------------------------------------------------------------
// Serving-plane static checks
// ---------------------------------------------------------------------------

/// Flattened (control-flow-ignored) protocol ops of one serve file,
/// resolved to tag *names* — the serve loops are tick-driven, so coverage
/// is a set property, not an ordering one.
#[derive(Default)]
struct ServeOps {
    /// `(tag name if syntactically evident, peer-expression vars, line)`.
    sends: Vec<(Option<String>, BTreeSet<String>, u32)>,
    recv_tags: Vec<(String, u32)>,
    recv_any_sets: Vec<(BTreeSet<String>, u32)>,
    purges: usize,
}

fn tag_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Var(n) => Some(n.clone()),
        _ => None,
    }
}

fn collect_serve_ops(fns: &[FnDef]) -> ServeOps {
    fn walk(ops: &[Op], f: &FnDef, out: &mut ServeOps) {
        for op in ops {
            match op {
                Op::Send { to, tag, line } => {
                    let mut vars = BTreeSet::new();
                    to.vars_into(&mut vars);
                    out.sends.push((tag_name(tag), vars, *line));
                }
                Op::Recv { tag, line, .. } => {
                    if let Some(n) = tag_name(tag) {
                        out.recv_tags.push((n, *line));
                    }
                }
                Op::RecvAny { tags, line } => {
                    let exprs = match tags {
                        RecvAnySrc::List(v) => Some(v.clone()),
                        RecvAnySrc::Ref(name) => f.tag_arrays.get(name).cloned(),
                    };
                    if let Some(exprs) = exprs {
                        let set: BTreeSet<String> =
                            exprs.iter().filter_map(tag_name).collect();
                        if !set.is_empty() {
                            out.recv_any_sets.push((set, *line));
                        }
                    }
                }
                Op::Purge { .. } => out.purges += 1,
                Op::If { then, els, .. } => {
                    walk(then, f, out);
                    walk(els, f, out);
                }
                Op::ForRange { body, .. } | Op::LoopNondet { body, .. } => {
                    walk(body, f, out)
                }
                Op::Match { arms, .. } => {
                    for arm in arms {
                        walk(arm, f, out);
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = ServeOps::default();
    for f in fns {
        walk(&f.ops, f, &mut out);
    }
    out
}

fn serve_checks(
    files: &[(String, Lexed, Vec<FnDef>)],
    diags: &mut Vec<Diagnostic>,
) {
    let mut per_file: Vec<(usize, ServeRole, ServeOps)> = Vec::new();
    for (idx, (path, _, fns)) in files.iter().enumerate() {
        if let Some(role) = serve_role(path) {
            per_file.push((idx, role, collect_serve_ops(fns)));
        }
    }
    // Receivable tag names per role.
    let mut recvable: BTreeMap<ServeRole, BTreeSet<String>> = BTreeMap::new();
    for (_, role, ops) in &per_file {
        let entry = recvable.entry(*role).or_default();
        entry.extend(ops.recv_tags.iter().map(|(n, _)| n.clone()));
        for (set, _) in &ops.recv_any_sets {
            entry.extend(set.iter().cloned());
        }
    }

    for (idx, _, ops) in &per_file {
        let (path, lexed, _) = &files[*idx];
        // mc-orphan-frame: every named frame must be receivable by its
        // target role — checked only when that role is present and
        // actually receives something (single-file fixtures stay quiet).
        for (tag, to_vars, line) in &ops.sends {
            let Some(tag) = tag else { continue };
            let Some(target) = send_target(path, to_vars) else { continue };
            let Some(rset) = recvable.get(&target).filter(|s| !s.is_empty()) else {
                continue;
            };
            if !rset.contains(tag) && !lexed.allowed("mc-orphan-frame", *line) {
                diags.push(Diagnostic {
                    path: path.clone(),
                    line: *line,
                    col: 1,
                    rule: "mc-orphan-frame",
                    message: format!(
                        "frame `{tag}` sent to the {target:?} role, but no \
                         {target:?} recv/recv_any ever matches that tag — the \
                         frame is dropped by the peer's demux"
                    ),
                });
            }
        }
    }

    // mc-fault-closure over replica files that model crashes.
    for (idx, role, ops) in &per_file {
        if *role != ServeRole::Replica {
            continue;
        }
        let (path, lexed, _) = &files[*idx];
        let crashed_line = lexed
            .tokens
            .iter()
            .find(|t| t.ident() == Some("Crashed"))
            .map(|t| t.line);
        let Some(crashed_line) = crashed_line else { continue };
        if ops.purges == 0 && !lexed.allowed("mc-fault-closure", crashed_line) {
            diags.push(Diagnostic {
                path: path.clone(),
                line: crashed_line,
                col: 1,
                rule: "mc-fault-closure",
                message: "replica models crashes but never calls purge_pending: \
                          frames buffered across the crash replay into the \
                          recovered schedule"
                    .to_string(),
            });
        }
        let has_recover = ops
            .sends
            .iter()
            .any(|(t, _, _)| t.as_deref().is_some_and(|n| n.contains("RECOVER")));
        if !has_recover && !lexed.allowed("mc-fault-closure", crashed_line) {
            diags.push(Diagnostic {
                path: path.clone(),
                line: crashed_line,
                col: 1,
                rule: "mc-fault-closure",
                message: "replica models crashes but never sends a RECOVER frame — \
                          the router cannot resync a recovered replica"
                    .to_string(),
            });
        }
        if let Some(maximal) = ops
            .recv_any_sets
            .iter()
            .max_by_key(|(set, _)| set.len())
            .map(|(set, _)| set.clone())
        {
            for (set, line) in &ops.recv_any_sets {
                if !set.is_subset(&maximal) && !lexed.allowed("mc-fault-closure", *line)
                {
                    diags.push(Diagnostic {
                        path: path.clone(),
                        line: *line,
                        col: 1,
                        rule: "mc-fault-closure",
                        message: format!(
                            "degraded recv_any set {{{}}} listens for frames the \
                             healthy set never accepts — recovery must shrink the \
                             listen set, not grow it",
                            set.iter().cloned().collect::<Vec<_>>().join(", ")
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dead tags
// ---------------------------------------------------------------------------

fn tag_uses(fns: &[FnDef], used: &mut BTreeSet<String>, any_ops: &mut bool) {
    fn walk(ops: &[Op], f: &FnDef, used: &mut BTreeSet<String>, any_ops: &mut bool) {
        for op in ops {
            match op {
                Op::Send { tag, .. } | Op::Recv { tag, .. } => {
                    *any_ops = true;
                    tag.vars_into(used);
                }
                Op::RecvAny { tags, .. } => {
                    *any_ops = true;
                    match tags {
                        RecvAnySrc::List(v) => {
                            for e in v {
                                e.vars_into(used);
                            }
                        }
                        RecvAnySrc::Ref(name) => {
                            if let Some(v) = f.tag_arrays.get(name) {
                                for e in v {
                                    e.vars_into(used);
                                }
                            }
                        }
                    }
                }
                Op::Rendezvous { .. } => *any_ops = true,
                Op::If { then, els, .. } => {
                    walk(then, f, used, any_ops);
                    walk(els, f, used, any_ops);
                }
                Op::ForRange { body, .. } | Op::LoopNondet { body, .. } => {
                    walk(body, f, used, any_ops)
                }
                Op::Match { arms, .. } => {
                    for arm in arms {
                        walk(arm, f, used, any_ops);
                    }
                }
                _ => {}
            }
        }
    }
    for f in fns {
        walk(&f.ops, f, used, any_ops);
        for exprs in f.tag_arrays.values() {
            for e in exprs {
                e.vars_into(used);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Model-checks a file set (workspace-relative path, source). The same
/// function serves the workspace gate, single-fixture CLI runs, and the
/// in-memory injection tests.
pub fn model_check_files(files: &[(String, String)]) -> McOutcome {
    let lexed: Vec<(String, Lexed)> =
        files.iter().map(|(p, s)| (p.clone(), lex(s))).collect();

    // Tag registry: the first file carrying a `mod protocol` block.
    type Registry = (usize, Vec<(String, u64, u32)>);
    let mut registry: Option<Registry> = None;
    for (idx, (_, lx)) in lexed.iter().enumerate() {
        let entries = parse_registry(lx);
        if !entries.is_empty() {
            registry = Some((idx, entries));
            break;
        }
    }
    let registry_env: BTreeMap<String, u64> = registry
        .iter()
        .flat_map(|(_, e)| e.iter().map(|(n, v, _)| (n.clone(), *v)))
        .collect();

    // Extraction over both scopes. The registry file itself is never
    // extracted: comm internals multiplex over std channels whose
    // `.send()` is not the wire protocol.
    let mut extracted: Vec<(String, Lexed, Vec<FnDef>)> = Vec::new();
    for (idx, (path, lx)) in lexed.iter().enumerate() {
        if registry.as_ref().is_some_and(|(ri, _)| *ri == idx) {
            continue;
        }
        if sim_scope(path) || serve_role(path).is_some() {
            extracted.push((path.clone(), lx.clone(), extract_fns(lx)));
        }
    }

    // Protocol-bearing fixpoint over the simulation scope.
    let mut bearing: BTreeSet<String> = BTreeSet::new();
    let sim_fns: Vec<&FnDef> = extracted
        .iter()
        .filter(|(p, _, _)| sim_scope(p))
        .flat_map(|(_, _, fns)| fns.iter())
        .collect();
    for f in &sim_fns {
        if f.has_direct_protocol() {
            bearing.insert(f.name.clone());
        }
    }
    loop {
        let before = bearing.len();
        for f in &sim_fns {
            if !bearing.contains(&f.name)
                && f.calls().iter().any(|c| bearing.contains(c))
            {
                bearing.insert(f.name.clone());
            }
        }
        if bearing.len() == before {
            break;
        }
    }

    let mut outcome = McOutcome::default();
    for (path, lx, fns) in &extracted {
        if !sim_scope(path) {
            continue;
        }
        for f in fns {
            if !eligible(f, &bearing) {
                continue;
            }
            let (report, findings) = check_unit(path, f, &registry_env, &bearing);
            for (rule, line, msg) in findings {
                if !lx.allowed(rule, line) {
                    outcome.diags.push(Diagnostic {
                        path: path.clone(),
                        line,
                        col: 1,
                        rule,
                        message: msg,
                    });
                }
            }
            outcome.units.push(report);
        }
    }

    serve_checks(&extracted, &mut outcome.diags);

    // dead-tag: only meaningful when schedules were actually extracted
    // alongside the registry.
    if let Some((ri, entries)) = &registry {
        let mut used = BTreeSet::new();
        let mut any_ops = false;
        for (_, _, fns) in &extracted {
            tag_uses(fns, &mut used, &mut any_ops);
        }
        if any_ops {
            let (reg_path, reg_lexed) = &lexed[*ri];
            for (name, _, line) in entries {
                if !used.contains(name) && !reg_lexed.allowed("dead-tag", *line) {
                    outcome.diags.push(Diagnostic {
                        path: reg_path.clone(),
                        line: *line,
                        col: 1,
                        rule: "dead-tag",
                        message: format!(
                            "registry tag `{name}` is never sent or received by any \
                             extracted schedule; delete it or justify with \
                             `// lint: allow(dead-tag)`"
                        ),
                    });
                }
            }
        }
    }

    outcome.diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(
            b.path.as_str(),
            b.line,
            b.col,
            b.rule,
        ))
    });
    outcome
        .units
        .sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    outcome
}

/// Walks the workspace and model-checks every product source file.
pub fn model_check_workspace(root: &std::path::Path) -> std::io::Result<McOutcome> {
    Ok(model_check_files(&crate::workspace_sources(root)?))
}

/// The human-readable `--model-check` report: per-unit schedule coverage
/// and the rendezvous kinds each unit meets (the per-function collective
/// list a protocol change is reviewed by), then findings (rendered by the
/// caller alongside).
pub fn render_report(outcome: &McOutcome) -> String {
    let mut s = String::new();
    let checked = outcome.units.iter().filter(|u| u.skipped.is_none()).count();
    let skipped = outcome.units.len() - checked;
    s.push_str(&format!(
        "model check: {checked} unit(s) verified for worlds 1-{MAX_WORLD}, \
         {skipped} skipped, {} finding(s)\n",
        outcome.diags.len()
    ));
    let mut current = "";
    for u in &outcome.units {
        if u.path != current {
            s.push_str(&format!("{}\n", u.path));
            current = &u.path;
        }
        match &u.skipped {
            Some(why) => {
                s.push_str(&format!(
                    "  {:>5}  fn {:<28} SKIPPED: {why}\n",
                    u.line, u.name
                ));
            }
            None => {
                let free = if u.free_vars.is_empty() {
                    String::new()
                } else {
                    format!("  [free: {}]", u.free_vars.join(", "))
                };
                s.push_str(&format!(
                    "  {:>5}  fn {:<28} {:>5} trace set(s), max buffer depth {}{free}\n",
                    u.line, u.name, u.traces_explored, u.max_buffer_depth
                ));
                if !u.rendezvous.is_empty() {
                    s.push_str(&format!("            meets: {}\n", u.rendezvous.join(", ")));
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_one(path: &str, src: &str) -> McOutcome {
        model_check_files(&[(path.to_string(), src.to_string())])
    }

    const RING_OK: &str = r#"
        impl Comm {
            pub fn ring_shift(&self, payload: Bytes) -> Result<Bytes, CommError> {
                let tag = self.alloc_collective_tag();
                let next = (self.rank() + 1) % self.world();
                let prev = (self.rank() + self.world() - 1) % self.world();
                self.send(next, tag, payload)?;
                self.recv(prev, tag)
            }
        }
    "#;

    #[test]
    fn symmetric_ring_is_clean() {
        let out = check_one("crates/cluster/src/collectives.rs", RING_OK);
        assert!(out.diags.is_empty(), "{:?}", out.diags);
        assert_eq!(out.units.len(), 1);
        assert!(out.units[0].skipped.is_none());
        assert!(out.units[0].traces_explored >= 4);
    }

    #[test]
    fn recv_before_send_ring_deadlocks() {
        let src = r#"
            impl Comm {
                pub fn ring_shift(&self, payload: Bytes) -> Result<Bytes, CommError> {
                    let tag = self.alloc_collective_tag();
                    let next = (self.rank() + 1) % self.world();
                    let prev = (self.rank() + self.world() - 1) % self.world();
                    let got = self.recv(prev, tag)?;
                    self.send(next, tag, payload)?;
                    Ok(got)
                }
            }
        "#;
        let out = check_one("crates/cluster/src/collectives.rs", src);
        assert!(
            out.diags.iter().any(|d| d.rule == "mc-deadlock"),
            "{:?}",
            out.diags
        );
    }

    #[test]
    fn rank_conditional_collective_diverges() {
        let src = r#"
            fn train(ctx: &mut WorkerCtx) -> Result<(), CommError> {
                if ctx.comm.rank() == 0 {
                    ctx.comm.all_reduce_f64(&mut buf)?;
                }
                Ok(())
            }
        "#;
        let out = check_one("crates/quadrants/src/qd1.rs", src);
        assert!(
            out.diags.iter().any(|d| d.rule == "mc-collective-divergence"),
            "{:?}",
            out.diags
        );
    }

    #[test]
    fn a_break_guard_does_not_hide_the_rest_of_the_loop_body() {
        // `if done { break; }` is a choice like any other: the schedule
        // where the loop goes on must be explored, or everything after the
        // guard is never checked.
        let src = r#"
            fn train(ctx: &mut WorkerCtx) -> Result<(), CommError> {
                for layer in 0..n_layers {
                    ctx.fault_point(0, layer);
                    if frontier.is_empty() {
                        break;
                    }
                    if ctx.comm.rank() == 0 {
                        ctx.comm.all_reduce_f64(&mut buf)?;
                    }
                }
                Ok(())
            }
        "#;
        let out = check_one("crates/quadrants/src/grow.rs", src);
        assert!(
            out.diags.iter().any(|d| d.rule == "mc-collective-divergence"),
            "{:?}",
            out.diags
        );
    }

    #[test]
    fn unreceived_extra_send_is_orphan() {
        let src = r#"
            impl Comm {
                pub fn lopsided(&self, payload: Bytes) -> Result<(), CommError> {
                    let tag = self.alloc_collective_tag();
                    if self.rank() == 0 {
                        self.send(1, tag, payload.clone())?;
                        self.send(1, tag, payload)?;
                    } else if self.rank() == 1 {
                        let _ = self.recv(0, tag)?;
                    }
                    Ok(())
                }
            }
        "#;
        let out = check_one("crates/cluster/src/collectives.rs", src);
        assert!(
            out.diags.iter().any(|d| d.rule == "mc-orphan-send"),
            "{:?}",
            out.diags
        );
    }

    #[test]
    fn broadcast_root_becomes_free_var_and_checks_clean() {
        let src = r#"
            impl Comm {
                pub fn bcast(&self, root: usize, payload: Bytes) -> Result<Bytes, CommError> {
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
            }
        "#;
        let out = check_one("crates/cluster/src/collectives.rs", src);
        assert!(out.diags.is_empty(), "{:?}", out.diags);
        assert_eq!(out.units[0].free_vars, vec!["root".to_string()]);
    }

    /// `mc-orphan-frame` only sees files that map to a role, so a serving
    /// file that sends or receives frames under no role would go
    /// unchecked. Every such file in the real tree must have one.
    #[test]
    fn every_frame_bearing_serve_file_has_a_role() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("crates/analysis has a workspace two levels up");
        let serve_tag = |t: &str| t.starts_with("SERVE_") && t.ends_with("_TAG");
        let mut bearing = Vec::new();
        for (path, src) in crate::workspace_sources(root).expect("workspace walk succeeds") {
            if !path.starts_with("crates/serve/src/") {
                continue;
            }
            let ops = collect_serve_ops(&extract_fns(&lex(&src)));
            let names_tag = ops.sends.iter().filter_map(|(t, _, _)| t.as_deref()).any(serve_tag)
                || ops.recv_tags.iter().any(|(t, _)| serve_tag(t))
                || ops.recv_any_sets.iter().any(|(set, _)| set.iter().any(|t| serve_tag(t)));
            if names_tag {
                assert!(serve_role(&path).is_some(), "{path} moves serve frames under no role");
                bearing.push(path.rsplit('/').next().unwrap_or("").to_string());
            }
        }
        // The scan sees the files it must: the three roles' own sources.
        for file in ["avail.rs", "replica.rs", "router.rs"] {
            assert!(bearing.iter().any(|b| b == file), "{file} not detected: {bearing:?}");
        }
    }

    #[test]
    fn mc_findings_honor_pragmas() {
        let src = r#"
            fn train(ctx: &mut WorkerCtx) -> Result<(), CommError> {
                if ctx.comm.rank() == 0 {
                    // lint: allow(mc-collective-divergence) — test fixture
                    ctx.comm.all_reduce_f64(&mut buf)?;
                }
                Ok(())
            }
        "#;
        let out = check_one("crates/quadrants/src/qd1.rs", src);
        assert!(out.diags.is_empty(), "{:?}", out.diags);
    }
}
