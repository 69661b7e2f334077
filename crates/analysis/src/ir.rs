//! The protocol IR: a small typed language of communication operations
//! extracted from lexed source (DESIGN.md item 15).
//!
//! Extraction ([`crate::extract`]) lowers each function body to a tree of
//! [`Op`]s; the model checker ([`crate::mc`]) flattens that tree into one
//! linear trace per rank by evaluating [`Expr`]s in a per-rank
//! environment. The discipline throughout is *conservative
//! over-approximation*: anything the evaluator cannot resolve degrades to
//! a nondeterministic choice (branches, loop trip counts) or marks the
//! unit unresolvable (peer/tag positions) — it never silently guesses.

use std::collections::{BTreeMap, BTreeSet};

/// Integer expressions over rank, world size, literals, and let-bound
/// names — the arithmetic that peer and tag positions are written in
/// (`(r + 1) % w`, `tag + s as u64`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    Num(u64),
    /// `self.rank()` / `ctx.rank()` — the one rank-divergent leaf.
    Rank,
    /// `self.world()` / `ctx.world()`.
    World,
    Var(String),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    Mod(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluates under `env` (which carries `rank`/`world` bindings for
    /// the simulated rank plus let-bound and registry names). Wrapping
    /// arithmetic mirrors release-mode Rust; division or modulo by zero
    /// is unevaluable rather than a panic.
    pub fn eval(&self, rank: u64, world: u64, env: &BTreeMap<String, u64>) -> Option<u64> {
        match self {
            Expr::Num(n) => Some(*n),
            Expr::Rank => Some(rank),
            Expr::World => Some(world),
            Expr::Var(name) => env.get(name).copied(),
            Expr::Add(a, b) => {
                Some(a.eval(rank, world, env)?.wrapping_add(b.eval(rank, world, env)?))
            }
            Expr::Sub(a, b) => {
                Some(a.eval(rank, world, env)?.wrapping_sub(b.eval(rank, world, env)?))
            }
            Expr::Mul(a, b) => {
                Some(a.eval(rank, world, env)?.wrapping_mul(b.eval(rank, world, env)?))
            }
            Expr::Div(a, b) => {
                let d = b.eval(rank, world, env)?;
                a.eval(rank, world, env)?.checked_div(d)
            }
            Expr::Mod(a, b) => {
                let d = b.eval(rank, world, env)?;
                a.eval(rank, world, env)?.checked_rem(d)
            }
        }
    }

    /// Whether this expression structurally depends on the rank, looking
    /// through let-bindings (`origins` maps a name to the expression it
    /// was bound to). Decides if an unevaluable comparison is a
    /// rank-divergent branch (free-variable candidate) or plain data
    /// nondeterminism.
    pub fn mentions_rank(&self, origins: &BTreeMap<String, Expr>) -> bool {
        self.mentions_rank_bounded(origins, 0)
    }

    fn mentions_rank_bounded(&self, origins: &BTreeMap<String, Expr>, depth: u32) -> bool {
        if depth > 16 {
            return false;
        }
        match self {
            Expr::Rank => true,
            Expr::Num(_) | Expr::World => false,
            Expr::Var(name) => origins
                .get(name)
                .is_some_and(|e| e.mentions_rank_bounded(origins, depth + 1)),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b) => {
                a.mentions_rank_bounded(origins, depth + 1)
                    || b.mentions_rank_bounded(origins, depth + 1)
            }
        }
    }

    /// Collects every free `Var` name into `out`.
    pub fn vars_into(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Num(_) | Expr::Rank | Expr::World => {}
            Expr::Var(name) => {
                out.insert(name.clone());
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b) => {
                a.vars_into(out);
                b.vars_into(out);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn apply(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A branch condition: a single comparison we can try to evaluate, or an
/// opaque condition that becomes a synchronized nondeterministic choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    Cmp(CmpOp, Expr, Expr),
    Unknown,
}

/// The right-hand side of a `let` binding the extractor understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rhs {
    /// An arithmetic expression — binds the evaluated value.
    Expr(Expr),
    /// `alloc_collective_tag()` / `alloc_collective_tags(n)` — binds the
    /// current per-rank collective-tag counter and advances it by `n`.
    AllocTags(Expr),
    /// `let tags = [A, B, C];` — a tag array later passed to `recv_any`.
    TagArray(Vec<Expr>),
    /// Anything else; the name is bound to no value.
    Opaque,
}

/// Where a `recv_any` call takes its tag set from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvAnySrc {
    /// Inline `&[A, B]`.
    List(Vec<Expr>),
    /// `&tags` naming a `TagArray` let in the same function.
    Ref(String),
}

/// One protocol operation. `site` fields number nondeterministic choice
/// points; the checker synchronizes the chosen alternative across ranks
/// (data-dependent control flow is rank-uniform in SPMD code — rank
/// divergence enters only through [`Expr::Rank`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Let(String, Rhs),
    Send { to: Expr, tag: Expr, line: u32 },
    Recv { from: Expr, tag: Expr, line: u32 },
    RecvAny { tags: RecvAnySrc, line: u32 },
    /// A call to a collective (or to `fault_point`, modeled identically):
    /// every rank must reach it together, kinds matching.
    Rendezvous { kind: String, line: u32 },
    /// A call to a named local function; resolved by the checker to a
    /// `Rendezvous` when the callee is protocol-bearing, dropped
    /// otherwise.
    Call { name: String, line: u32 },
    /// `purge_pending()` — crash-recovery buffer drain (serve plane).
    Purge { line: u32 },
    If { cond: Cond, then: Vec<Op>, els: Vec<Op>, site: u32, line: u32 },
    ForRange { var: String, lo: Expr, hi: Expr, body: Vec<Op>, site: u32 },
    /// `loop`, the body of a `while` (under an `If` on its condition
    /// unless that is opaque), any `for` whose bounds don't evaluate:
    /// explored at 0 and 2 trips.
    LoopNondet { body: Vec<Op>, site: u32 },
    /// `match` on anything but an expression with integer-literal / `_`
    /// arms (those become an `If` chain): one synchronized arm choice per
    /// exploration.
    Match { arms: Vec<Vec<Op>>, site: u32, line: u32 },
    Continue,
    Break,
    Return,
}

impl Op {
    /// Whether this op (or any nested op) is a *direct* protocol
    /// operation — the seed of the protocol-bearing fixpoint.
    pub fn is_direct_protocol(&self) -> bool {
        match self {
            Op::Send { .. }
            | Op::Recv { .. }
            | Op::RecvAny { .. }
            | Op::Rendezvous { .. } => true,
            Op::If { then, els, .. } => {
                then.iter().any(Op::is_direct_protocol) || els.iter().any(Op::is_direct_protocol)
            }
            Op::ForRange { body, .. } | Op::LoopNondet { body, .. } => {
                body.iter().any(Op::is_direct_protocol)
            }
            Op::Match { arms, .. } => {
                arms.iter().any(|a| a.iter().any(Op::is_direct_protocol))
            }
            _ => false,
        }
    }

    /// Collects the names of functions this op calls.
    pub fn calls_into(&self, out: &mut BTreeSet<String>) {
        match self {
            Op::Call { name, .. } => {
                out.insert(name.clone());
            }
            Op::If { then, els, .. } => {
                for op in then.iter().chain(els) {
                    op.calls_into(out);
                }
            }
            Op::ForRange { body, .. } | Op::LoopNondet { body, .. } => {
                for op in body {
                    op.calls_into(out);
                }
            }
            Op::Match { arms, .. } => {
                for arm in arms {
                    for op in arm {
                        op.calls_into(out);
                    }
                }
            }
            _ => {}
        }
    }
}

/// One extracted function: its name, declaration line, body ops, any
/// `let tags = [...]` arrays (for `recv_any` resolution), and the number
/// of nondeterministic choice sites the body contains.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub line: u32,
    pub ops: Vec<Op>,
    pub tag_arrays: BTreeMap<String, Vec<Expr>>,
    pub n_sites: u32,
}

impl FnDef {
    /// Does the body contain a direct protocol op (before call
    /// resolution)?
    pub fn has_direct_protocol(&self) -> bool {
        self.ops.iter().any(Op::is_direct_protocol)
    }

    /// Every function name the body calls.
    pub fn calls(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for op in &self.ops {
            op.calls_into(&mut out);
        }
        out
    }
}
