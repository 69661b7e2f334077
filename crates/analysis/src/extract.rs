//! Schedule extraction: lowering lexed function bodies to the protocol IR.
//!
//! A recursive-descent pass over the token stream recognizes the
//! communication idioms this workspace actually uses — `comm.send(to,
//! tag, ..)`, `recv(from, tag)`, `recv_any(&tags)`, collective calls,
//! `alloc_collective_tag(s)`, `fault_point`, `purge_pending` — and the
//! control flow around them (`if`/`else if`, `for` over literal ranges,
//! `while`/`loop`, `match`). A `while` condition and a `match` over
//! integer arms are branch conditions like an `if`'s, so every way a rank
//! test can guard a collective reaches the checker as an `Op::If`.
//! Everything else degrades conservatively:
//! an unparseable loop bound becomes a nondeterministic loop, an opaque
//! condition a nondeterministic branch, and an `.enumerate()` loop is
//! only given world-sized bounds when the body's own
//! `assert_eq!(x.len(), ..world())` licenses it.

use crate::ir::{CmpOp, Cond, Expr, FnDef, Op, RecvAnySrc, Rhs};
use crate::lexer::{Lexed, Token};
use crate::rules::parse_u64;
use std::collections::{BTreeMap, BTreeSet};

/// Extracts every function body in `lexed` (test items are already
/// stripped by the lexer). Nested functions inside impl blocks and
/// modules are all found; closures stay part of their enclosing
/// statement.
pub fn extract_fns(lexed: &Lexed) -> Vec<FnDef> {
    let t = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].ident() == Some("fn") {
            if let Some(name_tok) = t.get(i + 1) {
                if let Some(name) = name_tok.ident() {
                    // Body = first `{` past the signature, outside () and [].
                    let mut j = i + 2;
                    let (mut paren, mut brack) = (0i32, 0i32);
                    while j < t.len() {
                        match () {
                            _ if t[j].is_punct('(') => paren += 1,
                            _ if t[j].is_punct(')') => paren -= 1,
                            _ if t[j].is_punct('[') => brack += 1,
                            _ if t[j].is_punct(']') => brack -= 1,
                            _ if t[j].is_punct('{') && paren == 0 && brack == 0 => break,
                            // A braceless decl (`fn f();` in a trait) ends here.
                            _ if t[j].is_punct(';') && paren == 0 && brack == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if j < t.len() && t[j].is_punct('{') {
                        let close = matching_brace(t, j);
                        let body = &t[j + 1..close];
                        let mut px = Parser::new(body);
                        let ops = px.parse_block(body);
                        out.push(FnDef {
                            name: name.to_string(),
                            line: t[i].line,
                            ops,
                            tag_arrays: px.tag_arrays,
                            n_sites: px.next_site,
                        });
                        i = close + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Parses a `mod protocol { ... }` tag registry out of a lexed file:
/// `(name, value, line)` per `pub const NAME: u64 = <literal>;`.
pub fn parse_registry(lexed: &Lexed) -> Vec<(String, u64, u32)> {
    let t = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..t.len() {
        if t[i].ident() == Some("mod")
            && t.get(i + 1).and_then(Token::ident) == Some("protocol")
            && t.get(i + 2).is_some_and(|x| x.is_punct('{'))
        {
            let close = matching_brace(t, i + 2);
            let span = &t[i + 3..close];
            let mut j = 0;
            while j + 5 < span.len() {
                if span[j].ident() == Some("const") {
                    if let (Some(name), true) = (
                        span.get(j + 1).and_then(Token::ident),
                        span.get(j + 2).is_some_and(|x| x.is_punct(':')),
                    ) {
                        // const NAME : u64 = <num> ;
                        let mut k = j + 3;
                        while k < span.len() && !span[k].is_punct('=') {
                            k += 1;
                        }
                        if let Some(crate::lexer::Tok::Num(num)) =
                            span.get(k + 1).map(|x| x.tok.clone())
                        {
                            if let Some(v) = parse_u64(&num) {
                                out.push((name.to_string(), v, span[j].line));
                            }
                        }
                    }
                }
                j += 1;
            }
        }
    }
    out
}

/// Collective-call names the model checker treats as rendezvous points.
/// Extends the lint rule's list with `barrier` (excluded there because a
/// barrier inside a rank branch is the *fix* for some patterns, but for
/// simulation a barrier is exactly a rendezvous).
fn is_rendezvous_name(name: &str) -> bool {
    crate::rules::is_collective_name(name) || name == "barrier"
}

struct Parser {
    next_site: u32,
    tag_arrays: BTreeMap<String, Vec<Expr>>,
    /// Idents licensed by `assert_eq!(x.len(), ..world())` to drive
    /// world-sized `.enumerate()` loops.
    world_sized: BTreeSet<String>,
}

impl Parser {
    fn new(body: &[Token]) -> Self {
        let mut world_sized = BTreeSet::new();
        // Pre-pass: assert_eq!(X.len(), <..>.world(), ...) licenses X.
        let mut i = 0;
        while i + 8 < body.len() {
            if body[i].ident() == Some("assert_eq")
                && body[i + 1].is_punct('!')
                && body[i + 2].is_punct('(')
            {
                let close = matching_paren(body, i + 2);
                let args = split_args(&body[i + 3..close]);
                if args.len() >= 2 {
                    let a0 = args[0];
                    let a1 = args[1];
                    let len_call = a0.len() >= 4
                        && a0[a0.len() - 3].ident() == Some("len")
                        && a0[a0.len() - 2].is_punct('(')
                        && a0[a0.len() - 1].is_punct(')');
                    let world_call = a1.len() >= 3
                        && a1[a1.len() - 3].ident() == Some("world")
                        && a1[a1.len() - 2].is_punct('(')
                        && a1[a1.len() - 1].is_punct(')');
                    if len_call && world_call {
                        if let Some(name) = a0[0].ident() {
                            world_sized.insert(name.to_string());
                        }
                    }
                }
                i = close;
                continue;
            }
            i += 1;
        }
        Parser { next_site: 0, tag_arrays: BTreeMap::new(), world_sized }
    }

    fn site(&mut self) -> u32 {
        let s = self.next_site;
        self.next_site += 1;
        s
    }

    /// Parses a brace-free statement sequence (a block body).
    fn parse_block(&mut self, t: &[Token]) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut i = 0;
        while i < t.len() {
            match t[i].ident() {
                Some("if") => i = self.parse_if(t, i, &mut ops),
                Some("for") => i = self.parse_for(t, i, &mut ops),
                Some("while") | Some("loop") => i = self.parse_loop(t, i, &mut ops),
                Some("match") => i = self.parse_match(t, i, &mut ops),
                Some("let") => i = self.parse_let(t, i, &mut ops),
                Some("continue") => {
                    ops.push(Op::Continue);
                    i = statement_end(t, i);
                }
                Some("break") => {
                    ops.push(Op::Break);
                    i = statement_end(t, i);
                }
                Some("return") => {
                    let end = statement_end(t, i);
                    self.scan_ops(&t[i..end], &mut ops);
                    ops.push(Op::Return);
                    i = end;
                }
                _ => {
                    let end = statement_end(t, i);
                    self.scan_ops(&t[i..end], &mut ops);
                    i = end;
                }
            }
        }
        ops
    }

    /// `if <cond> { .. } [else if .. | else { .. }]` — also `if let`,
    /// whose pattern becomes an opaque condition.
    fn parse_if(&mut self, t: &[Token], i: usize, ops: &mut Vec<Op>) -> usize {
        let line = t[i].line;
        let mut j = i + 1;
        let cond_start = j;
        let (mut paren, mut brack) = (0i32, 0i32);
        while j < t.len() {
            if t[j].is_punct('(') {
                paren += 1;
            } else if t[j].is_punct(')') {
                paren -= 1;
            } else if t[j].is_punct('[') {
                brack += 1;
            } else if t[j].is_punct(']') {
                brack -= 1;
            } else if t[j].is_punct('{') && paren == 0 && brack == 0 {
                break;
            }
            j += 1;
        }
        if j >= t.len() {
            return t.len();
        }
        let cond_tokens = &t[cond_start..j];
        // Condition expressions may themselves perform protocol ops
        // (`if comm.recv(..)` — none in this workspace, but stay sound).
        self.scan_ops(cond_tokens, ops);
        let cond = parse_cond(cond_tokens);
        let close = matching_brace(t, j);
        let then = self.parse_block(&t[j + 1..close]);
        let mut els = Vec::new();
        let mut end = close + 1;
        if t.get(end).and_then(Token::ident) == Some("else") {
            if t.get(end + 1).and_then(Token::ident) == Some("if") {
                end = self.parse_if(t, end + 1, &mut els);
            } else if t.get(end + 1).is_some_and(|x| x.is_punct('{')) {
                let eclose = matching_brace(t, end + 1);
                els = self.parse_block(&t[end + 2..eclose]);
                end = eclose + 1;
            }
        }
        let site = self.site();
        ops.push(Op::If { cond, then, els, site, line });
        end
    }

    /// `for <pat> in <iterable> { .. }`. Literal `lo..hi` ranges become
    /// [`Op::ForRange`]; `x.iter().enumerate()` does too when the body's
    /// asserts prove `x.len() == world()`; everything else degrades to a
    /// nondeterministic loop.
    fn parse_for(&mut self, t: &[Token], i: usize, ops: &mut Vec<Op>) -> usize {
        // Pattern: up to `in` at depth 0.
        let mut j = i + 1;
        let (mut paren, mut brack) = (0i32, 0i32);
        let pat_start = j;
        while j < t.len() {
            if t[j].is_punct('(') {
                paren += 1;
            } else if t[j].is_punct(')') {
                paren -= 1;
            } else if t[j].is_punct('[') {
                brack += 1;
            } else if t[j].is_punct(']') {
                brack -= 1;
            } else if t[j].ident() == Some("in") && paren == 0 && brack == 0 {
                break;
            }
            j += 1;
        }
        if j >= t.len() {
            return t.len();
        }
        // Loop variable: first non-`mut`, non-`_` ident in the pattern
        // (for tuples the first element is the index this code puts there).
        let var = t[pat_start..j]
            .iter()
            .filter_map(Token::ident)
            .find(|s| *s != "mut" && *s != "_" && *s != "ref")
            .unwrap_or("_")
            .to_string();
        // Iterable: up to body `{` at depth 0.
        let it_start = j + 1;
        let (mut paren, mut brack) = (0i32, 0i32);
        j = it_start;
        while j < t.len() {
            if t[j].is_punct('(') {
                paren += 1;
            } else if t[j].is_punct(')') {
                paren -= 1;
            } else if t[j].is_punct('[') {
                brack += 1;
            } else if t[j].is_punct(']') {
                brack -= 1;
            } else if t[j].is_punct('{') && paren == 0 && brack == 0 {
                break;
            }
            j += 1;
        }
        if j >= t.len() {
            return t.len();
        }
        let iterable = &t[it_start..j];
        self.scan_ops(iterable, ops);
        let close = matching_brace(t, j);
        let body = self.parse_block(&t[j + 1..close]);
        let site = self.site();
        let range = parse_range(iterable).or_else(|| {
            // x.iter().enumerate() / x.into_iter().enumerate() with an
            // assert-proven world-sized x → 0..world.
            let enumerated = iterable.len() >= 3
                && iterable[iterable.len() - 3].ident() == Some("enumerate");
            if enumerated {
                iterable
                    .first()
                    .and_then(Token::ident)
                    .filter(|n| self.world_sized.contains(*n))
                    .map(|_| (Expr::Num(0), Expr::World))
            } else {
                None
            }
        });
        match range {
            Some((lo, hi)) => ops.push(Op::ForRange { var, lo, hi, body, site }),
            None => ops.push(Op::LoopNondet { body, site }),
        }
        close + 1
    }

    /// `loop { .. }` → nondeterministic loop. `while <cond> { .. }` is the
    /// same loop under an `if` on its condition, so a rank test that only
    /// some ranks pass is a rank branch; an opaque condition stays a bare
    /// loop.
    fn parse_loop(&mut self, t: &[Token], i: usize, ops: &mut Vec<Op>) -> usize {
        let line = t[i].line;
        let mut j = i + 1;
        let (mut paren, mut brack) = (0i32, 0i32);
        while j < t.len() {
            if t[j].is_punct('(') {
                paren += 1;
            } else if t[j].is_punct(')') {
                paren -= 1;
            } else if t[j].is_punct('[') {
                brack += 1;
            } else if t[j].is_punct(']') {
                brack -= 1;
            } else if t[j].is_punct('{') && paren == 0 && brack == 0 {
                break;
            }
            j += 1;
        }
        if j >= t.len() {
            return t.len();
        }
        self.scan_ops(&t[i + 1..j], ops);
        let close = matching_brace(t, j);
        let body = self.parse_block(&t[j + 1..close]);
        let site = self.site();
        let lp = Op::LoopNondet { body, site };
        // `loop` has no condition tokens, so it always lands in `Unknown`.
        match parse_cond(&t[i + 1..j]) {
            Cond::Unknown => ops.push(lp),
            cond => {
                let site = self.site();
                ops.push(Op::If { cond, then: vec![lp], els: Vec::new(), site, line });
            }
        }
        close + 1
    }

    /// `match <scrutinee> { pat => arm, .. }`. Scrutinee ops are emitted
    /// first (e.g. `match comm.recv_any(&tags)`), then one synchronized
    /// arm choice — unless the scrutinee is an expression and every arm an
    /// integer literal or `_`, which is an `if scrutinee == lit` chain
    /// (`match ctx.rank() { 0 => .., _ => .. }` is a rank branch).
    fn parse_match(&mut self, t: &[Token], i: usize, ops: &mut Vec<Op>) -> usize {
        let line = t[i].line;
        let mut j = i + 1;
        let (mut paren, mut brack) = (0i32, 0i32);
        while j < t.len() {
            if t[j].is_punct('(') {
                paren += 1;
            } else if t[j].is_punct(')') {
                paren -= 1;
            } else if t[j].is_punct('[') {
                brack += 1;
            } else if t[j].is_punct(']') {
                brack -= 1;
            } else if t[j].is_punct('{') && paren == 0 && brack == 0 {
                break;
            }
            j += 1;
        }
        if j >= t.len() {
            return t.len();
        }
        self.scan_ops(&t[i + 1..j], ops);
        let close = matching_brace(t, j);
        let span = &t[j + 1..close];
        let mut arms = Vec::new();
        // Per arm: `Some(Some(v))` for a literal `v`, `Some(None)` for `_`.
        let mut pats: Vec<Option<Option<u64>>> = Vec::new();
        let mut k = 0;
        while k < span.len() {
            // Pattern (with optional guard): up to `=>` at depth 0.
            let (mut p, mut b, mut br) = (0i32, 0i32, 0i32);
            let mut m = k;
            let mut found = false;
            while m + 1 < span.len() {
                if span[m].is_punct('(') {
                    p += 1;
                } else if span[m].is_punct(')') {
                    p -= 1;
                } else if span[m].is_punct('[') {
                    b += 1;
                } else if span[m].is_punct(']') {
                    b -= 1;
                } else if span[m].is_punct('{') {
                    br += 1;
                } else if span[m].is_punct('}') {
                    br -= 1;
                } else if span[m].is_punct('=')
                    && span[m + 1].is_punct('>')
                    && p == 0
                    && b == 0
                    && br == 0
                {
                    found = true;
                    break;
                }
                m += 1;
            }
            if !found {
                break;
            }
            pats.push(int_pattern(&span[k..m]));
            let arm_start = m + 2;
            if span.get(arm_start).is_some_and(|x| x.is_punct('{')) {
                let aclose = matching_brace(span, arm_start);
                arms.push(self.parse_block(&span[arm_start + 1..aclose]));
                k = aclose + 1;
                if span.get(k).is_some_and(|x| x.is_punct(',')) {
                    k += 1;
                }
            } else {
                // Expression arm: to `,` at depth 0 (or end of match body).
                let (mut p, mut b, mut br) = (0i32, 0i32, 0i32);
                let mut e = arm_start;
                while e < span.len() {
                    if span[e].is_punct('(') {
                        p += 1;
                    } else if span[e].is_punct(')') {
                        p -= 1;
                    } else if span[e].is_punct('[') {
                        b += 1;
                    } else if span[e].is_punct(']') {
                        b -= 1;
                    } else if span[e].is_punct('{') {
                        br += 1;
                    } else if span[e].is_punct('}') {
                        br -= 1;
                    } else if span[e].is_punct(',') && p == 0 && b == 0 && br == 0 {
                        break;
                    }
                    e += 1;
                }
                // Flow keywords make the whole arm that flow op; plain
                // expression arms are linearly scanned for protocol ops.
                let mut arm = Vec::new();
                self.scan_ops(&span[arm_start..e], &mut arm);
                match span.get(arm_start).and_then(Token::ident) {
                    Some("return") => arm.push(Op::Return),
                    Some("continue") => arm.push(Op::Continue),
                    Some("break") => arm.push(Op::Break),
                    _ => {}
                }
                arms.push(arm);
                k = e + 1;
            }
        }
        let scrutinee = parse_expr(&t[i + 1..j]);
        match (scrutinee, pats.iter().copied().collect::<Option<Vec<_>>>()) {
            (Some(scrutinee), Some(lits)) => {
                // Built back to front: `_` becomes the final `else` (arms
                // after it are unreachable), each literal an `if` around it.
                let mut chain = Vec::new();
                for (lit, arm) in lits.into_iter().zip(arms).rev() {
                    chain = match lit {
                        None => arm,
                        Some(v) => vec![Op::If {
                            cond: Cond::Cmp(CmpOp::Eq, scrutinee.clone(), Expr::Num(v)),
                            then: arm,
                            els: chain,
                            site: self.site(),
                            line,
                        }],
                    };
                }
                ops.extend(chain);
            }
            _ => {
                let site = self.site();
                ops.push(Op::Match { arms, site, line });
            }
        }
        close + 1
    }

    /// `let <pat> = <rhs>;` — binds what it can (arithmetic, collective
    /// tag allocations, tag arrays) and degrades the rest to an opaque
    /// binding whose RHS is still scanned for protocol ops.
    fn parse_let(&mut self, t: &[Token], i: usize, ops: &mut Vec<Op>) -> usize {
        let end = statement_end(t, i);
        let stmt = &t[i..end];
        // Binding name: single plain ident (skipping `mut`) directly
        // before `:` or `=`; tuple/struct patterns bind nothing.
        let mut j = 1;
        if stmt.get(j).and_then(Token::ident) == Some("mut") {
            j += 1;
        }
        let name = match (stmt.get(j).and_then(Token::ident), stmt.get(j + 1)) {
            (Some(n), Some(next)) if next.is_punct('=') || next.is_punct(':') => {
                Some(n.to_string())
            }
            _ => None,
        };
        // RHS: past the first top-level `=`.
        let mut eq = j;
        let (mut paren, mut brack, mut angle) = (0i32, 0i32, 0i32);
        while eq < stmt.len() {
            if stmt[eq].is_punct('(') {
                paren += 1;
            } else if stmt[eq].is_punct(')') {
                paren -= 1;
            } else if stmt[eq].is_punct('[') {
                brack += 1;
            } else if stmt[eq].is_punct('<') {
                angle += 1;
            } else if stmt[eq].is_punct('>') {
                angle -= 1;
            } else if stmt[eq].is_punct(']') {
                brack -= 1;
            } else if stmt[eq].is_punct('=')
                && paren == 0
                && brack == 0
                && angle <= 0
                && !stmt.get(eq + 1).is_some_and(|x| x.is_punct('='))
                && !stmt.get(eq.wrapping_sub(1)).is_some_and(|x| {
                    x.is_punct('=') || x.is_punct('!') || x.is_punct('<') || x.is_punct('>')
                })
            {
                break;
            }
            eq += 1;
        }
        if eq >= stmt.len() {
            self.scan_ops(stmt, ops);
            return end;
        }
        let rhs = &stmt[eq + 1..];
        let rhs = if rhs.last().is_some_and(|x| x.is_punct(';')) {
            &rhs[..rhs.len() - 1]
        } else {
            rhs
        };
        if let Some(name) = name {
            // alloc_collective_tag() / alloc_collective_tags(n)
            if let Some(pos) = rhs.iter().position(|x| {
                x.ident() == Some("alloc_collective_tag")
                    || x.ident() == Some("alloc_collective_tags")
            }) {
                let n = if rhs[pos].ident() == Some("alloc_collective_tags") {
                    let args_open = pos + 1;
                    if rhs.get(args_open).is_some_and(|x| x.is_punct('(')) {
                        let close = matching_paren(rhs, args_open);
                        parse_expr(&rhs[args_open + 1..close]).unwrap_or(Expr::Num(1))
                    } else {
                        Expr::Num(1)
                    }
                } else {
                    Expr::Num(1)
                };
                ops.push(Op::Let(name, Rhs::AllocTags(n)));
                return end;
            }
            // let tags = [A, B, C];
            if rhs.first().is_some_and(|x| x.is_punct('['))
                && rhs.last().is_some_and(|x| x.is_punct(']'))
            {
                let elems = split_args(&rhs[1..rhs.len() - 1]);
                let parsed: Vec<Option<Expr>> =
                    elems.iter().map(|e| parse_expr(e)).collect();
                if parsed.iter().all(Option::is_some) && !parsed.is_empty() {
                    let exprs: Vec<Expr> = parsed.into_iter().flatten().collect();
                    self.tag_arrays.insert(name.clone(), exprs.clone());
                    ops.push(Op::Let(name, Rhs::TagArray(exprs)));
                    return end;
                }
            }
            if let Some(expr) = parse_expr(rhs) {
                ops.push(Op::Let(name, Rhs::Expr(expr)));
                return end;
            }
            self.scan_ops(rhs, ops);
            ops.push(Op::Let(name, Rhs::Opaque));
            return end;
        }
        self.scan_ops(rhs, ops);
        end
    }

    /// Linear scan of a statement span for protocol operations. Control
    /// flow inside (closures, `?`-chains, if-expressions in let position)
    /// is deliberately flattened: an op found here executes
    /// unconditionally in the trace, which over-approximates uniformly
    /// across ranks and therefore never invents divergence.
    fn scan_ops(&mut self, t: &[Token], ops: &mut Vec<Op>) {
        let mut i = 0;
        while i < t.len() {
            let line = t[i].line;
            // Method calls: .send( / .send_f64s( / .recv( / .recv_any( /
            // .<collective>( / .fault_point( / .purge_pending(
            if t[i].is_punct('.') {
                if let (Some(name), Some(open)) = (
                    t.get(i + 1).and_then(Token::ident),
                    t.get(i + 2).filter(|x| x.is_punct('(')),
                ) {
                    let _ = open;
                    let close = matching_paren(t, i + 2);
                    let args = split_args(&t[i + 3..close]);
                    match name {
                        "send" | "send_f64s" if args.len() >= 2 => {
                            let to = parse_expr(args[0]);
                            let tag = parse_expr(args[1]);
                            ops.push(Op::Send {
                                to: to.unwrap_or(Expr::Var("?peer".into())),
                                tag: tag.unwrap_or(Expr::Var("?tag".into())),
                                line,
                            });
                            // Arguments may nest further calls; continue
                            // scanning inside the arg list.
                            i += 3;
                            continue;
                        }
                        "recv" if args.len() >= 2 => {
                            let from = parse_expr(args[0]);
                            let tag = parse_expr(args[1]);
                            ops.push(Op::Recv {
                                from: from.unwrap_or(Expr::Var("?peer".into())),
                                tag: tag.unwrap_or(Expr::Var("?tag".into())),
                                line,
                            });
                            i += 3;
                            continue;
                        }
                        "recv_any" if !args.is_empty() => {
                            let src = parse_recv_any_arg(args[0]);
                            ops.push(Op::RecvAny { tags: src, line });
                            i += 3;
                            continue;
                        }
                        "fault_point" => {
                            ops.push(Op::Rendezvous { kind: "fault_point".into(), line });
                            i = close + 1;
                            continue;
                        }
                        "purge_pending" => {
                            ops.push(Op::Purge { line });
                            i = close + 1;
                            continue;
                        }
                        n if is_rendezvous_name(n) => {
                            ops.push(Op::Rendezvous { kind: n.to_string(), line });
                            i += 3;
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            // Free function calls (`all_to_all(ctx, ..)`,
            // `common::sync(..)`): candidate protocol-bearing callees,
            // resolved against the call graph later. Macros (`name!`)
            // and capitalized constructors are skipped.
            if let Some(name) = t[i].ident() {
                let starts_lower = name.starts_with(|c: char| c.is_ascii_lowercase());
                let is_kw = matches!(
                    name,
                    "if" | "else" | "for" | "while" | "loop" | "match" | "let" | "return"
                        | "continue" | "break" | "in" | "as" | "move" | "mut" | "ref" | "fn"
                );
                let called = t.get(i + 1).is_some_and(|x| x.is_punct('('));
                let is_macro = t.get(i + 1).is_some_and(|x| x.is_punct('!'));
                let is_method = i > 0 && t[i - 1].is_punct('.');
                if starts_lower && !is_kw && called && !is_macro && !is_method {
                    ops.push(Op::Call { name: name.to_string(), line });
                }
                let _ = is_macro;
            }
            i += 1;
        }
    }
}

/// Splits an argument token span on top-level commas.
fn split_args(t: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let (mut p, mut b, mut br) = (0i32, 0i32, 0i32);
    let mut start = 0;
    for i in 0..t.len() {
        if t[i].is_punct('(') {
            p += 1;
        } else if t[i].is_punct(')') {
            p -= 1;
        } else if t[i].is_punct('[') {
            b += 1;
        } else if t[i].is_punct(']') {
            b -= 1;
        } else if t[i].is_punct('{') {
            br += 1;
        } else if t[i].is_punct('}') {
            br -= 1;
        } else if t[i].is_punct(',') && p == 0 && b == 0 && br == 0 {
            out.push(&t[start..i]);
            start = i + 1;
        }
    }
    if start < t.len() {
        out.push(&t[start..]);
    }
    out
}

/// The `recv_any` tag-set argument: `&tags` (a named array) or `&[A, B]`.
fn parse_recv_any_arg(t: &[Token]) -> RecvAnySrc {
    let t = if t.first().is_some_and(|x| x.is_punct('&')) { &t[1..] } else { t };
    if t.first().is_some_and(|x| x.is_punct('[')) && t.last().is_some_and(|x| x.is_punct(']')) {
        let elems = split_args(&t[1..t.len() - 1]);
        let parsed: Vec<Expr> = elems
            .iter()
            .filter_map(|e| parse_expr(e))
            .collect();
        return RecvAnySrc::List(parsed);
    }
    match t.first().and_then(Token::ident) {
        Some(name) => RecvAnySrc::Ref(name.to_string()),
        None => RecvAnySrc::Ref("?tags".into()),
    }
}

/// A `match` arm pattern that is one integer literal (`Some(Some(v))`) or
/// `_` (`Some(None)`); anything else — bindings, ranges, guards — is `None`.
fn int_pattern(pat: &[Token]) -> Option<Option<u64>> {
    match pat {
        [p] if p.ident() == Some("_") => Some(None),
        [Token { tok: crate::lexer::Tok::Num(n), .. }] => parse_u64(n).map(Some),
        _ => None,
    }
}

/// Parses `lo .. hi` out of a for-loop iterable.
fn parse_range(t: &[Token]) -> Option<(Expr, Expr)> {
    let (mut p, mut b) = (0i32, 0i32);
    for i in 0..t.len().saturating_sub(1) {
        if t[i].is_punct('(') {
            p += 1;
        } else if t[i].is_punct(')') {
            p -= 1;
        } else if t[i].is_punct('[') {
            b += 1;
        } else if t[i].is_punct(']') {
            b -= 1;
        } else if t[i].is_punct('.') && t[i + 1].is_punct('.') && p == 0 && b == 0 {
            // `..=` inclusive ranges: hi becomes hi+1.
            let inclusive = t.get(i + 2).is_some_and(|x| x.is_punct('='));
            let hi_start = if inclusive { i + 3 } else { i + 2 };
            let lo = parse_expr(&t[..i])?;
            let hi = parse_expr(&t[hi_start..])?;
            let hi = if inclusive {
                Expr::Add(Box::new(hi), Box::new(Expr::Num(1)))
            } else {
                hi
            };
            return Some((lo, hi));
        }
    }
    None
}

/// Parses a condition span into a single comparison where possible.
/// `&&`/`||` chains, `if let`, and anything unparsable are `Unknown`.
fn parse_cond(t: &[Token]) -> Cond {
    if t.first().and_then(Token::ident) == Some("let") {
        return Cond::Unknown;
    }
    // Reject boolean connectives outright.
    for i in 0..t.len().saturating_sub(1) {
        if (t[i].is_punct('&') && t[i + 1].is_punct('&'))
            || (t[i].is_punct('|') && t[i + 1].is_punct('|'))
        {
            return Cond::Unknown;
        }
    }
    // Find exactly one top-level comparator.
    let (mut p, mut b) = (0i32, 0i32);
    let mut found: Option<(usize, usize, CmpOp)> = None;
    let mut i = 0;
    while i < t.len() {
        if t[i].is_punct('(') {
            p += 1;
        } else if t[i].is_punct(')') {
            p -= 1;
        } else if t[i].is_punct('[') {
            b += 1;
        } else if t[i].is_punct(']') {
            b -= 1;
        } else if p == 0 && b == 0 {
            let two = |c1: char, c2: char| {
                t[i].is_punct(c1) && t.get(i + 1).is_some_and(|x| x.is_punct(c2))
            };
            let op = if two('=', '=') {
                Some((2, CmpOp::Eq))
            } else if two('!', '=') {
                Some((2, CmpOp::Ne))
            } else if two('<', '=') {
                Some((2, CmpOp::Le))
            } else if two('>', '=') {
                Some((2, CmpOp::Ge))
            } else if t[i].is_punct('<') {
                Some((1, CmpOp::Lt))
            } else if t[i].is_punct('>') {
                Some((1, CmpOp::Gt))
            } else {
                None
            };
            if let Some((w, op)) = op {
                if found.is_some() {
                    return Cond::Unknown;
                }
                found = Some((i, w, op));
                i += w;
                continue;
            }
        }
        i += 1;
    }
    match found {
        Some((at, w, op)) => {
            match (parse_expr(&t[..at]), parse_expr(&t[at + w..])) {
                (Some(a), Some(bx)) => Cond::Cmp(op, a, bx),
                _ => Cond::Unknown,
            }
        }
        None => Cond::Unknown,
    }
}

/// Arithmetic expression parser (`+ - * / %`, parens, `as` casts,
/// `.rank()`/`.world()` chains, bare idents, numeric literals). Returns
/// `None` unless the whole span parses — partial parses would misread
/// peer/tag positions.
pub(crate) fn parse_expr(t: &[Token]) -> Option<Expr> {
    let mut pos = 0;
    let e = parse_add(t, &mut pos)?;
    if pos == t.len() {
        Some(e)
    } else {
        None
    }
}

fn parse_add(t: &[Token], pos: &mut usize) -> Option<Expr> {
    let mut lhs = parse_mul(t, pos)?;
    loop {
        let op = match t.get(*pos) {
            Some(x) if x.is_punct('+') => '+',
            Some(x) if x.is_punct('-') => '-',
            _ => return Some(lhs),
        };
        *pos += 1;
        let rhs = parse_mul(t, pos)?;
        lhs = if op == '+' {
            Expr::Add(Box::new(lhs), Box::new(rhs))
        } else {
            Expr::Sub(Box::new(lhs), Box::new(rhs))
        };
    }
}

fn parse_mul(t: &[Token], pos: &mut usize) -> Option<Expr> {
    let mut lhs = parse_factor(t, pos)?;
    loop {
        let op = match t.get(*pos) {
            Some(x) if x.is_punct('*') => '*',
            Some(x) if x.is_punct('/') => '/',
            Some(x) if x.is_punct('%') => '%',
            _ => return Some(lhs),
        };
        *pos += 1;
        let rhs = parse_factor(t, pos)?;
        lhs = match op {
            '*' => Expr::Mul(Box::new(lhs), Box::new(rhs)),
            '/' => Expr::Div(Box::new(lhs), Box::new(rhs)),
            _ => Expr::Mod(Box::new(lhs), Box::new(rhs)),
        };
    }
}

fn parse_factor(t: &[Token], pos: &mut usize) -> Option<Expr> {
    let e = parse_primary(t, pos)?;
    // `as usize` / `as u64` casts are value-preserving here; skip them.
    while t.get(*pos).and_then(Token::ident) == Some("as") {
        t.get(*pos + 1).and_then(Token::ident)?;
        *pos += 2;
    }
    Some(e)
}

fn parse_primary(t: &[Token], pos: &mut usize) -> Option<Expr> {
    match t.get(*pos) {
        Some(tok) if tok.is_punct('(') => {
            let close = matching_paren(t, *pos);
            let inner = parse_expr(&t[*pos + 1..close])?;
            *pos = close + 1;
            Some(inner)
        }
        Some(Token { tok: crate::lexer::Tok::Num(n), .. }) => {
            let v = parse_u64(n)?;
            *pos += 1;
            Some(Expr::Num(v))
        }
        Some(tok) => {
            let first = tok.ident()?;
            // A dotted chain: idents joined by `.`, possibly ending in a
            // nullary call. `self.rank()` / `ctx.comm.rank()` → Rank;
            // `.world()` → World; a bare single ident → Var; anything
            // else fails.
            let mut names = vec![first.to_string()];
            let mut j = *pos + 1;
            let mut trailing_call = false;
            while t.get(j).is_some_and(|x| x.is_punct('.')) {
                let name = t.get(j + 1).and_then(Token::ident)?;
                names.push(name.to_string());
                j += 2;
                if t.get(j).is_some_and(|x| x.is_punct('(')) {
                    // Only nullary terminal calls are recognized.
                    if !t.get(j + 1).is_some_and(|x| x.is_punct(')')) {
                        return None;
                    }
                    j += 2;
                    trailing_call = true;
                    if t.get(j).is_some_and(|x| x.is_punct('.')) {
                        // Longer chains after a call (`.rank().foo()`): bail.
                        return None;
                    }
                    break;
                }
            }
            let expr = match (names.last().map(String::as_str), trailing_call, names.len()) {
                (Some("rank"), true, _) => Expr::Rank,
                (Some("world"), true, _) => Expr::World,
                (_, false, 1) => Expr::Var(names[0].clone()),
                _ => return None,
            };
            *pos = j;
            Some(expr)
        }
        None => None,
    }
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(t: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < t.len() {
        if t[i].is_punct('{') {
            depth += 1;
        } else if t[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    t.len().saturating_sub(1)
}

/// Index of the `)` matching the `(` at `open`.
pub(crate) fn matching_paren(t: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < t.len() {
        if t[i].is_punct('(') {
            depth += 1;
        } else if t[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    t.len().saturating_sub(1)
}

/// End of the statement starting at `i`: past the `;` at nesting depth 0,
/// or at the span end for a tail expression. Braces inside (closures,
/// if/match expressions in value position) nest rather than terminate.
fn statement_end(t: &[Token], i: usize) -> usize {
    let (mut p, mut b, mut br) = (0i32, 0i32, 0i32);
    let mut j = i;
    while j < t.len() {
        if t[j].is_punct('(') {
            p += 1;
        } else if t[j].is_punct(')') {
            p -= 1;
        } else if t[j].is_punct('[') {
            b += 1;
        } else if t[j].is_punct(']') {
            b -= 1;
        } else if t[j].is_punct('{') {
            br += 1;
        } else if t[j].is_punct('}') {
            br -= 1;
            if br < 0 {
                return j;
            }
        } else if t[j].is_punct(';') && p == 0 && b == 0 && br == 0 {
            return j + 1;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns_of(src: &str) -> Vec<FnDef> {
        extract_fns(&lex(src))
    }

    #[test]
    fn ring_exchange_extracts_send_recv_with_arithmetic() {
        let src = r#"
            impl Comm {
                pub fn ring(&self, payload: Bytes) -> Result<Bytes, CommError> {
                    let tag = self.alloc_collective_tag();
                    let next = (self.rank() + 1) % self.world();
                    let prev = (self.rank() + self.world() - 1) % self.world();
                    self.send(next, tag, payload)?;
                    self.recv(prev, tag)
                }
            }
        "#;
        let fns = fns_of(src);
        assert_eq!(fns.len(), 1);
        let ops = &fns[0].ops;
        assert!(matches!(ops[0], Op::Let(ref n, Rhs::AllocTags(_)) if n == "tag"));
        assert!(matches!(ops[1], Op::Let(ref n, Rhs::Expr(_)) if n == "next"));
        assert!(ops.iter().any(|o| matches!(o, Op::Send { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Recv { .. })));
    }

    #[test]
    fn rank_branch_and_world_loop_extract_structurally() {
        let src = r#"
            fn broadcastish(&self, root: usize, payload: Bytes) -> Result<Bytes, CommError> {
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
        "#;
        let fns = fns_of(src);
        let Op::If { cond, then, els, .. } = &fns[0].ops[1] else {
            panic!("expected If, got {:?}", fns[0].ops)
        };
        assert_eq!(*cond, Cond::Cmp(CmpOp::Eq, Expr::Rank, Expr::Var("root".into())));
        assert!(matches!(then[0], Op::ForRange { .. }));
        assert!(els.iter().any(|o| matches!(o, Op::Recv { .. })));
    }

    #[test]
    fn enumerate_needs_world_assert() {
        let licensed = r#"
            fn f(&self, ranges: &[(usize, usize)]) {
                assert_eq!(ranges.len(), self.world(), "one per server");
                for (server, &(lo, hi)) in ranges.iter().enumerate() {
                    self.send(server, 7, x)?;
                }
            }
        "#;
        let fns = fns_of(licensed);
        assert!(
            matches!(&fns[0].ops[0], Op::ForRange { var, hi: Expr::World, .. } if var == "server"),
            "{:?}",
            fns[0].ops
        );

        let unlicensed = r#"
            fn f(&self, ranges: &[(usize, usize)]) {
                for (server, &(lo, hi)) in ranges.iter().enumerate() {
                    self.send(server, 7, x)?;
                }
            }
        "#;
        let fns = fns_of(unlicensed);
        assert!(matches!(&fns[0].ops[0], Op::LoopNondet { .. }));
    }

    #[test]
    fn collective_calls_become_rendezvous_and_free_calls_are_candidates() {
        let src = r#"
            fn train(ctx: &mut WorkerCtx) -> Result<(), CommError> {
                helperfn(ctx)?;
                ctx.comm.all_reduce_f64(&mut buf)?;
                ctx.fault_point(t, layer);
                Ok(())
            }
        "#;
        let fns = fns_of(src);
        let ops = &fns[0].ops;
        assert!(ops.iter().any(|o| matches!(o, Op::Call { name, .. } if name == "helperfn")));
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Rendezvous { kind, .. } if kind == "all_reduce_f64")));
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Rendezvous { kind, .. } if kind == "fault_point")));
    }

    #[test]
    fn path_calls_on_a_type_parameter_are_candidates_but_method_calls_are_not() {
        // The growth loop calls its policy as `Q::build(&mut q, ctx, ..)`
        // so each policy call is visible as a candidate protocol-bearing
        // callee; the receiver form `q.build(..)` is indistinguishable from
        // any data-structure method and stays dropped.
        let src = r#"
            fn train_worker<Q: Quadrant>(ctx: &mut WorkerCtx, mut q: Q) -> Result<(), CommError> {
                for layer in 0..4 {
                    ctx.fault_point(0, layer);
                    Q::build(&mut q, ctx, &run)?;
                    let decisions = Q::propose(&mut q, ctx, &run)?;
                    q.retire(3);
                }
                Ok(())
            }
        "#;
        let fns = fns_of(src);
        let Op::ForRange { body, .. } = &fns[0].ops[0] else {
            panic!("expected ForRange, got {:?}", fns[0].ops)
        };
        let calls: Vec<&str> = body
            .iter()
            .filter_map(|o| match o {
                Op::Call { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(calls, ["build", "propose"], "{body:?}");
        assert!(matches!(&body[0], Op::Rendezvous { kind, .. } if kind == "fault_point"));
    }

    #[test]
    fn recv_any_resolves_named_tag_arrays() {
        let src = r#"
            fn serve_loop(comm: &Comm) -> Result<(), CommError> {
                let tags = [A_TAG, B_TAG];
                loop {
                    let (from, tag, payload) = comm.recv_any(&tags)?;
                }
            }
        "#;
        let fns = fns_of(src);
        assert_eq!(
            fns[0].tag_arrays.get("tags"),
            Some(&vec![Expr::Var("A_TAG".into()), Expr::Var("B_TAG".into())])
        );
        fn find_recv_any(ops: &[Op]) -> bool {
            ops.iter().any(|o| match o {
                Op::RecvAny { tags: RecvAnySrc::Ref(n), .. } => n == "tags",
                Op::LoopNondet { body, .. } => find_recv_any(body),
                _ => false,
            })
        }
        assert!(find_recv_any(&fns[0].ops), "{:?}", fns[0].ops);
    }

    #[test]
    fn registry_parses_names_values_lines() {
        let src = r#"
            pub mod protocol {
                pub const A_TAG: u64 = 0x10;
                pub const B_TAG: u64 = 17;
                pub fn by_name(n: &str) -> Option<u64> { None }
            }
        "#;
        let reg = parse_registry(&lex(src));
        let names: Vec<&str> = reg.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["A_TAG", "B_TAG"]);
        assert_eq!(reg[0].1, 0x10);
        assert_eq!(reg[1].1, 17);
    }

    #[test]
    fn alloc_tags_count_expression_is_kept() {
        let src = r#"
            fn f(&self) {
                let w = self.world();
                let tag = self.alloc_collective_tags(w as u64 - 1);
            }
        "#;
        let fns = fns_of(src);
        let Op::Let(_, Rhs::AllocTags(n)) = &fns[0].ops[1] else {
            panic!("{:?}", fns[0].ops)
        };
        assert_eq!(
            *n,
            Expr::Sub(Box::new(Expr::Var("w".into())), Box::new(Expr::Num(1)))
        );
    }
}
