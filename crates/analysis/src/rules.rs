//! The deny-by-default rule catalog.
//!
//! Every rule here is keyed to a correctness claim an earlier PR made
//! dynamically; the catalog turns sampled evidence into a structural
//! guarantee. See DESIGN.md §4.10 for the rule-by-rule rationale.
//!
//! Scoping is path-based: each rule names the crates/files where its hazard
//! can actually reach wire bytes, model output, or the SPMD schedule.
//! Escape hatches are per-line `// lint: allow(<rule>) — why` pragmas; a
//! pragma without a justification text still works, but review should
//! reject it.

use crate::lexer::{Lexed, Token};
use crate::Diagnostic;

/// `(id, summary)` for every rule the engine enforces.
pub const RULES: &[(&str, &str)] = &[
    (
        "map-iteration",
        "HashMap/HashSet iteration order is process-random and must never reach \
         messages, model output, or stats in deterministic paths",
    ),
    (
        "wall-clock",
        "Instant/SystemTime reads are banned outside cluster::stats, cluster::cost, \
         and the bench crate — wall-clock must feed modelled stats only",
    ),
    (
        "ambient-env",
        "thread identity and process environment reads are banned in trainer paths",
    ),
    (
        "panic-call",
        "panic!/unimplemented!/todo! are banned in the comm layer — every fault \
         must surface as a typed CommError",
    ),
    (
        "slice-index",
        "unchecked slice indexing in the comm layer can panic mid-collective; use \
         get() or justify the bound with a pragma",
    ),
    (
        "tag-registry",
        "manual point-to-point tags must live in gbdt_cluster::protocol, be unique, \
         and stay below COLLECTIVE_TAG_BASE",
    ),
    (
        "fault-point",
        "the per-tree loop of quadrants::grow must poll fault_point so injected crashes \
         and cancellation land at recoverable boundaries, and no other distributed \
         trainer file may grow a per-tree loop of its own",
    ),
    (
        "comm-unwrap",
        "CommError results must propagate with ? — unwrap/expect on a comm call \
         turns a recoverable fault into a worker abort",
    ),
    (
        "stale-pragma",
        "a `// lint: allow(...)` pragma that suppresses zero findings (or names \
         an unknown rule) — allowlists must not outlive the code they excuse",
    ),
];

// ---------------------------------------------------------------------------
// Path scopes
// ---------------------------------------------------------------------------

/// Files where nondeterministic map iteration can reach wire bytes or model
/// output: all of core/quadrants/vero, plus the cluster modules that build
/// messages (wire codecs, collectives, parameter server), plus the serving
/// thread pool (chunk scheduling there must never depend on hash order, or
/// the parallel scorer's bit-identity contract dies). The rest of the serve
/// crate stays out of scope — router.rs legitimately iterates replica maps
/// for bookkeeping that never reaches a response byte.
fn map_iteration_scope(path: &str) -> bool {
    path.starts_with("crates/core/src")
        || path.starts_with("crates/quadrants/src")
        || path.starts_with("crates/vero/src")
        || matches!(
            path,
            "crates/cluster/src/wire.rs"
                | "crates/cluster/src/collectives.rs"
                | "crates/cluster/src/ps.rs"
                | "crates/serve/src/pool.rs"
        )
}

/// Wall-clock reads are the *business* of the stats/cost layers and the
/// bench harness; everywhere else they are a determinism hazard.
fn wall_clock_scope(path: &str) -> bool {
    // serve/stats.rs is the serving layer's sanctioned stopwatch; the
    // traversal kernels and request loop around it stay clock-free so a
    // timing read can never sit next to the bit-identity contract.
    !(path == "crates/cluster/src/stats.rs"
        || path == "crates/cluster/src/cost.rs"
        || path == "crates/serve/src/stats.rs"
        || path.starts_with("crates/bench/")
        || path.starts_with("crates/analysis/"))
}

/// Trainer paths: everything that executes between dataset and model.
fn ambient_scope(path: &str) -> bool {
    path.starts_with("crates/core/src")
        || path.starts_with("crates/quadrants/src")
        || path.starts_with("crates/vero/src")
        || path.starts_with("crates/partition/src")
        || path.starts_with("crates/cluster/src")
}

/// The comm layer proper, where a panic strands every other worker.
fn comm_layer_scope(path: &str) -> bool {
    matches!(
        path,
        "crates/cluster/src/comm.rs"
            | "crates/cluster/src/collectives.rs"
            | "crates/cluster/src/ps.rs"
            | "crates/cluster/src/fault.rs"
    )
}

/// The one per-tree / per-layer growth loop of distributed training.
pub const GROWTH_LOOP: &str = "crates/quadrants/src/grow.rs";

/// Every source file of distributed training: the growth loop and the
/// policy files it is generic over. The single list the lint scopes, the
/// model checker's simulation scope and the gate tests all read.
pub const TRAINER_FILES: &[&str] = &[
    GROWTH_LOOP,
    "crates/quadrants/src/vertical.rs",
    "crates/quadrants/src/qd1.rs",
    "crates/quadrants/src/qd2.rs",
    "crates/quadrants/src/qd3.rs",
    "crates/quadrants/src/qd4.rs",
    "crates/quadrants/src/yggdrasil.rs",
    "crates/quadrants/src/featpar.rs",
];

/// The SPMD trainer sources whose collective schedules must be
/// rank-symmetric (Vero's driver delegates its loop to qd4).
pub(crate) fn trainer_scope(path: &str) -> bool {
    TRAINER_FILES.contains(&path) || path == "crates/vero/src/system.rs"
}

/// Where a per-tree loop may not appear: everything under the quadrants
/// crate but the growth loop itself and the single-node reference trainer
/// (no fault machinery to poll; kept independent as the test oracle).
fn second_loop_scope(path: &str) -> bool {
    path.starts_with("crates/quadrants/src/")
        && path != GROWTH_LOOP
        && path != "crates/quadrants/src/single.rs"
}

/// Where `.unwrap()`/`.expect()` on a comm result would bypass supervision:
/// the trainers, their shared helpers, and the cluster crate itself.
fn comm_unwrap_scope(path: &str) -> bool {
    trainer_scope(path)
        || path == "crates/quadrants/src/common.rs"
        || path.starts_with("crates/cluster/src")
        || path.starts_with("crates/partition/src")
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// Matches a token sequence at `i`. Each pattern element is an identifier
/// (`"now"`) or a single punctuation character (`":"`).
pub(crate) fn match_seq(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
    if i + pat.len() > tokens.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, p)| {
        let t = &tokens[i + k];
        let mut chars = p.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) if !c.is_ascii_alphanumeric() && c != '_' => t.is_punct(c),
            _ => t.ident() == Some(p),
        }
    })
}

/// Names a collective call site: any method in the blocking-rendezvous
/// family. Prefix-matched so codec variants (`all_reduce_f64_codec`) and
/// helpers built directly on collectives (`all_reduce_stats`) all count.
pub(crate) fn is_collective_name(name: &str) -> bool {
    const PREFIXES: &[&str] = &[
        "broadcast",
        "gather",
        "all_gather",
        "all_reduce",
        "reduce_scatter",
        "ps_push",
    ];
    PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Index of the `}` matching the `{` at `open`, or `tokens.len()`.
pub(crate) fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('{') {
            depth += 1;
        } else if tokens[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    j
}

fn push_diag(
    out: &mut Vec<Diagnostic>,
    lexed: &Lexed,
    path: &str,
    tok: &Token,
    rule: &'static str,
    message: String,
) {
    if !lexed.allowed(rule, tok.line) {
        out.push(Diagnostic {
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: map-iteration
// ---------------------------------------------------------------------------

/// Order-dependent consumption of a `HashMap`/`HashSet`.
///
/// Pass 1 harvests identifiers bound or typed as hash collections
/// (`x: HashMap<..>`, `let mut x = HashMap::new()`); pass 2 flags
/// `.iter()/.keys()/.values()/.drain()/.into_iter()` on them and
/// `for _ in &x` loops — unless the surrounding statements sort the result
/// (an ident starting with `sort` within the same or next statement).
fn check_map_iteration(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if !map_iteration_scope(path) {
        return;
    }
    let toks = &lexed.tokens;
    let mut maps: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if matches!(t.ident(), Some("HashMap") | Some("HashSet")) {
            if let Some(name) = map_binding_name(toks, i) {
                if !maps.contains(&name) {
                    maps.push(name);
                }
            }
        }
    }
    if maps.is_empty() {
        return;
    }
    const ITER_METHODS: &[&str] =
        &["iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "into_keys", "into_values"];
    for i in 0..toks.len() {
        // `<map> . <iter-method> (`
        if let Some(name) = toks[i].ident() {
            if maps.iter().any(|m| m == name)
                && match_seq(toks, i + 1, &["."])
                && toks.get(i + 2).and_then(Token::ident).is_some_and(|m| ITER_METHODS.contains(&m))
                && match_seq(toks, i + 3, &["("])
                && !sorted_nearby(toks, i)
            {
                let method = toks[i + 2].ident().unwrap_or("");
                push_diag(
                    out,
                    lexed,
                    path,
                    &toks[i],
                    "map-iteration",
                    format!(
                        "`{name}.{method}()` iterates a hash collection in nondeterministic \
                         order; sort the result, use a BTreeMap, or justify with \
                         `// lint: allow(map-iteration)`"
                    ),
                );
            }
        }
        // `for <pat> in [&[mut]] <map> {`
        if toks[i].ident() == Some("for") {
            if let Some((j, name)) = for_loop_over(toks, i, &maps) {
                if !sorted_nearby(toks, j) {
                    push_diag(
                        out,
                        lexed,
                        path,
                        &toks[j],
                        "map-iteration",
                        format!(
                            "`for _ in &{name}` iterates a hash collection in \
                             nondeterministic order"
                        ),
                    );
                }
            }
        }
    }
}

/// For a `HashMap`/`HashSet` ident at `i`, walks backwards past the
/// `std :: collections ::` qualification and returns the identifier being
/// bound (`x : HashMap`, `x = HashMap::new()`, `x : & HashMap`).
fn map_binding_name(toks: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    // Skip the path prefix: `std :: collections ::`.
    while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        j -= 2;
        if j >= 1 && toks[j - 1].ident().is_some() {
            j -= 1;
        }
    }
    if j == 0 {
        return None;
    }
    let before = &toks[j - 1];
    let mut k = j - 1;
    if before.is_punct('&') || before.ident() == Some("mut") {
        // `x: &HashMap` / `x: &mut HashMap`
        while k > 0 && (toks[k].is_punct('&') || toks[k].ident() == Some("mut")) {
            k -= 1;
        }
    }
    if toks[k].is_punct(':') || toks[k].is_punct('=') {
        return toks.get(k.checked_sub(1)?)?.ident().map(String::from);
    }
    None
}

/// If the `for` loop at `i` iterates (a reference to) one of `maps`,
/// returns the map token index and name. The iterated expression must be
/// exactly `[&[mut]] <map>` — `map.len()` etc. never match.
fn for_loop_over(toks: &[Token], i: usize, maps: &[String]) -> Option<(usize, String)> {
    // Find `in` before the body `{` (patterns contain no braces).
    let mut j = i + 1;
    while j < toks.len() && !toks[j].is_punct('{') {
        if toks[j].ident() == Some("in") {
            let mut k = j + 1;
            while k < toks.len() && (toks[k].is_punct('&') || toks[k].ident() == Some("mut")) {
                k += 1;
            }
            let name = toks.get(k)?.ident()?;
            if maps.iter().any(|m| m == name) && toks.get(k + 1).is_some_and(|t| t.is_punct('{')) {
                return Some((k, name.to_string()));
            }
            return None;
        }
        j += 1;
    }
    None
}

/// Whether an ident starting with `sort` appears between the flagged token
/// and the end of the *next* statement — the "immediately sorted" escape,
/// covering both `…collect(); v.sort();` and single-expression chains.
fn sorted_nearby(toks: &[Token], i: usize) -> bool {
    let mut semis = 0;
    for t in toks.iter().skip(i) {
        if t.is_punct(';') {
            semis += 1;
            if semis == 2 {
                return false;
            }
        }
        if t.ident().is_some_and(|id| id.starts_with("sort")) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rules: wall-clock, ambient-env, panic-call
// ---------------------------------------------------------------------------

fn check_wall_clock(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if !wall_clock_scope(path) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        for ty in ["Instant", "SystemTime"] {
            if match_seq(toks, i, &[ty, ":", ":", "now"]) {
                push_diag(
                    out,
                    lexed,
                    path,
                    &toks[i],
                    "wall-clock",
                    format!(
                        "`{ty}::now()` outside cluster::stats/cluster::cost/bench; wall-clock \
                         must only feed modelled stats, never wire bytes or model output"
                    ),
                );
            }
        }
    }
}

fn check_ambient_env(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if !ambient_scope(path) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        for f in ["var", "var_os", "vars", "args"] {
            if match_seq(toks, i, &["env", ":", ":", f]) {
                push_diag(
                    out,
                    lexed,
                    path,
                    &toks[i],
                    "ambient-env",
                    format!("`env::{f}` in a trainer path: process environment is ambient \
                             nondeterministic input"),
                );
            }
        }
        if match_seq(toks, i, &["current", "(", ")", ".", "id"]) {
            push_diag(
                out,
                lexed,
                path,
                &toks[i],
                "ambient-env",
                "`thread::current().id()` in a trainer path: thread identity must never \
                 influence results"
                    .to_string(),
            );
        }
    }
}

fn check_panic_call(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if !comm_layer_scope(path) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if let Some(name) = toks[i].ident() {
            if matches!(name, "panic" | "unimplemented" | "todo")
                && match_seq(toks, i + 1, &["!"])
            {
                push_diag(
                    out,
                    lexed,
                    path,
                    &toks[i],
                    "panic-call",
                    format!("`{name}!` in the comm layer; return a typed CommError instead"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: slice-index
// ---------------------------------------------------------------------------

/// `expr[i]` indexing in the comm layer. Range subscripts (`buf[lo..hi]`)
/// are exempt — they are bulk views whose bounds the collectives compute
/// from world size, and slicing failure there would already be a protocol
/// bug caught by shape asserts.
fn check_slice_index(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if !comm_layer_scope(path) {
        return;
    }
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        // Indexing looks like `<ident> [ ... ]`. A `[` after anything else is
        // a type (`: [u8; 4]`), an attribute (`#[...]`), a macro body
        // (`vec![...]` — the `!` sits between), or an array literal. A `[`
        // after a *keyword* is a slice type (`&mut [f64]`) or an array
        // literal in expression position (`for p in [a, b]`), never indexing.
        const KEYWORDS: &[&str] = &[
            "mut", "dyn", "impl", "in", "as", "return", "break", "else", "match", "const",
        ];
        let receiver = toks[i].ident().is_some_and(|id| !KEYWORDS.contains(&id))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && !(i > 0 && toks[i - 1].is_punct('!'));
        if receiver {
            // Find the matching `]` and look for a `..` range inside.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_range = false;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1 && toks[j].is_punct('.') && match_seq(toks, j + 1, &["."]) {
                    has_range = true;
                }
                j += 1;
            }
            if !has_range && j > i + 2 {
                let name = toks[i].ident().unwrap_or("<expr>");
                push_diag(
                    out,
                    lexed,
                    path,
                    &toks[i + 1],
                    "slice-index",
                    format!(
                        "unchecked index `{name}[..]` in the comm layer can panic \
                         mid-collective; use .get() or justify the bound"
                    ),
                );
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Rule: fault-point
// ---------------------------------------------------------------------------

/// There is one per-tree loop (`for t in start_tree..config.n_trees`) in
/// distributed training: the one in `quadrants::grow`. It must poll
/// `fault_point` somewhere in its body, so injected crashes land at
/// checkpoint-recoverable boundaries; a second such loop anywhere else
/// under the quadrants crate would escape that, and every other thing the
/// loop owns (checkpoints, the gate, timing), so it is a finding by itself.
fn check_fault_point(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let second = second_loop_scope(path);
    if path != GROWTH_LOOP && !second {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].ident() != Some("for") {
            continue;
        }
        // Header = tokens up to the body `{`.
        let mut open = i + 1;
        while open < toks.len() && !toks[open].is_punct('{') {
            open += 1;
        }
        let header = &toks[i..open.min(toks.len())];
        if !header.iter().any(|t| matches!(t.ident(), Some("n_trees") | Some("start_tree"))) {
            continue;
        }
        let close = matching_brace(toks, open);
        let body = &toks[open..close.min(toks.len())];
        let message = if second {
            "second per-tree loop: distributed trainers grow trees through \
             quadrants::grow::train_worker, which owns fault_point, checkpoints and timing"
        } else if !body.iter().any(|t| t.ident() == Some("fault_point")) {
            "per-tree trainer loop without a fault_point poll: injected crashes \
             cannot land at a recoverable boundary"
        } else {
            continue;
        };
        push_diag(out, lexed, path, &toks[i], "fault-point", message.to_string());
    }
}

// ---------------------------------------------------------------------------
// Rule: comm-unwrap
// ---------------------------------------------------------------------------

/// `.unwrap()` / `.expect(` on a statement that performs comm. The
/// statement is scanned backwards to the nearest `;`/`{`/`}`; if it
/// contains a comm token (a collective name, `send`, `recv`, `comm`, or
/// `fault_point`), the unwrap turns a typed CommError into a panic that
/// bypasses retry and supervision.
fn check_comm_unwrap(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if !comm_unwrap_scope(path) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let is_unwrap = match_seq(toks, i, &[".", "unwrap", "(", ")"])
            || match_seq(toks, i, &[".", "expect", "("]);
        if !is_unwrap {
            continue;
        }
        // Scan back to statement start.
        let mut j = i;
        while j > 0 {
            let t = &toks[j - 1];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            j -= 1;
        }
        let comm_token = toks[j..i].iter().any(|t| {
            t.ident().is_some_and(|id| {
                is_collective_name(id)
                    || matches!(id, "send" | "recv" | "comm" | "fault_point")
            })
        });
        if comm_token {
            let method = toks[i + 1].ident().unwrap_or("unwrap");
            push_diag(
                out,
                lexed,
                path,
                &toks[i + 1],
                "comm-unwrap",
                format!(
                    "`.{method}()` on a comm result: CommError must propagate with `?` so \
                     retry/supervision can absorb the fault"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: tag-registry
// ---------------------------------------------------------------------------

/// Outside `cluster/src/comm.rs`, any `const …TAG…: u64` is a stray manual
/// tag — point-to-point messages match on `(from, tag)`, so two in-flight
/// messages with the same tag can cross, and uniqueness is only checkable
/// in one place: `gbdt_cluster::protocol`. Inside `comm.rs`, every tag
/// constant must sit in the `protocol` module, carry a unique literal
/// value, and stay below `COLLECTIVE_TAG_BASE` (1 << 63), where the
/// collectives allocate their own tags.
fn check_tag_registry(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if !path.starts_with("crates/") {
        return;
    }
    let toks = &lexed.tokens;
    let in_comm = path == "crates/cluster/src/comm.rs";

    // Locate the `mod protocol { … }` span in comm.rs.
    let protocol_span = (0..toks.len()).find_map(|i| {
        if toks[i].ident() == Some("mod") && toks.get(i + 1).and_then(Token::ident) == Some("protocol")
        {
            let open = (i + 2..toks.len()).find(|&j| toks[j].is_punct('{'))?;
            Some((open, matching_brace(toks, open)))
        } else {
            None
        }
    });

    let mut seen: Vec<(String, String)> = Vec::new(); // (value, name)
    for i in 0..toks.len() {
        if toks[i].ident() != Some("const") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else { continue };
        if !name.contains("TAG") || name == "COLLECTIVE_TAG_BASE" {
            continue;
        }
        let tok = &toks[i];
        if !in_comm {
            push_diag(
                out,
                lexed,
                path,
                tok,
                "tag-registry",
                format!(
                    "manual tag constant `{name}` outside the central registry; declare it \
                     in gbdt_cluster::protocol so uniqueness is checkable"
                ),
            );
            continue;
        }
        let inside = protocol_span.is_some_and(|(open, close)| i > open && i < close);
        if !inside {
            push_diag(
                out,
                lexed,
                path,
                tok,
                "tag-registry",
                format!(
                    "tag constant `{name}` in comm.rs but outside `mod protocol`; move it \
                     into the registry"
                ),
            );
            continue;
        }
        // Inside the registry no pragma applies: a duplicate is never excusable.
        let mut flag = |message: String| {
            out.push(Diagnostic {
                path: path.to_string(),
                line: tok.line,
                col: tok.col,
                rule: "tag-registry",
                message,
            })
        };
        // `const NAME: u64 = <num> ;`
        let val = (i + 2..toks.len().min(i + 10)).find_map(|j| {
            if toks[j].is_punct('=') {
                if let crate::lexer::Tok::Num(n) = &toks.get(j + 1)?.tok {
                    return Some(n.clone());
                }
            }
            None
        });
        let Some(raw) = val else {
            flag(format!("tag `{name}` must be a literal u64 so the checker can prove uniqueness"));
            continue;
        };
        if let Some(v) = parse_u64(&raw) {
            if v >= 1u64 << 63 {
                flag(format!(
                    "tag `{name}` = {raw} collides with the auto-allocated collective tag \
                     space (>= COLLECTIVE_TAG_BASE)"
                ));
            }
            if let Some((_, other)) = seen.iter().find(|(sv, _)| parse_u64(sv) == Some(v)) {
                flag(format!("tag `{name}` duplicates the value of `{other}`"));
            }
        }
        seen.push((raw, name.to_string()));
    }
}

/// Parses `1234`, `0x7261_7274`, `0b…`, `0o…` with optional `u64` suffix.
pub(crate) fn parse_u64(raw: &str) -> Option<u64> {
    let s: String = raw.chars().filter(|c| *c != '_').collect();
    let s = s.strip_suffix("u64").unwrap_or(&s);
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = s.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).ok()
    } else if let Some(oct) = s.strip_prefix("0o") {
        u64::from_str_radix(oct, 8).ok()
    } else {
        s.parse().ok()
    }
}

// ---------------------------------------------------------------------------
// Rule: stale-pragma
// ---------------------------------------------------------------------------

/// Flags allow pragmas that suppressed nothing. Must run *after* every
/// other rule: [`Lexed::allowed`] records each suppression as it
/// happens, so by the end of a pass any `(pragma line, rule)` pair not
/// in the used set is dead weight. Model-check rules are exempt — their
/// pass runs separately over whole-workspace state — as is
/// `stale-pragma` itself.
fn check_stale_pragmas(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let used = lexed.used.borrow().clone();
    for (line, rules) in &lexed.pragmas {
        for rule in rules {
            if rule == "stale-pragma" {
                continue;
            }
            let known_lint = RULES.iter().any(|(n, _)| n == rule);
            let known_mc = crate::mc::MC_RULES.iter().any(|(n, _)| n == rule);
            if known_mc {
                continue;
            }
            let reason = if !known_lint {
                format!("pragma allows `{rule}`, which is not a known rule")
            } else if !used.contains(&(*line, rule.clone())) {
                format!(
                    "pragma allows `{rule}` but suppresses no `{rule}` finding \
                     here — remove it"
                )
            } else {
                continue;
            };
            if !lexed.allowed("stale-pragma", *line) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: *line,
                    col: 1,
                    rule: "stale-pragma",
                    message: reason,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs every rule against one lexed file. `path` is workspace-relative
/// with `/` separators — it selects which rules apply.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_map_iteration(path, lexed, &mut out);
    check_wall_clock(path, lexed, &mut out);
    check_ambient_env(path, lexed, &mut out);
    check_panic_call(path, lexed, &mut out);
    check_slice_index(path, lexed, &mut out);
    check_fault_point(path, lexed, &mut out);
    check_comm_unwrap(path, lexed, &mut out);
    check_tag_registry(path, lexed, &mut out);
    check_stale_pragmas(path, lexed, &mut out);
    out.sort_by_key(|d| (d.line, d.col));
    out
}
