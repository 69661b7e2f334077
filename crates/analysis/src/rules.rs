//! The deny-by-default rule catalog: the protocol facts no compiler knows.
//!
//! Every rule here is keyed to a correctness claim an earlier PR made
//! dynamically; the catalog turns sampled evidence into a structural
//! guarantee. See DESIGN.md item 10 for the rule-by-rule rationale, and for
//! the determinism rules clippy enforces on types (`clippy.toml`).
//!
//! Scoping is path-based: each rule names the files where its hazard can
//! reach the SPMD schedule or the serving plane's frames. `fault-point` and
//! the registry arm of `tag-registry` read one file ([`check_file`]); the
//! serving-plane rules and the dead-tag arm of `tag-registry` compare files
//! ([`check_files`]). No rule has an escape hatch.

use crate::lexer::Token;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// `(id, summary)` for every rule the engine enforces.
pub const RULES: &[(&str, &str)] = &[
    (
        "tag-registry",
        "manual point-to-point tags must live in gbdt_cluster::protocol, be unique, \
         stay below COLLECTIVE_TAG_BASE, and be sent or received somewhere",
    ),
    (
        "fault-point",
        "the per-tree loop of quadrants::grow must poll fault_point so injected crashes \
         and cancellation land at recoverable boundaries, and no other distributed \
         trainer file may grow a per-tree loop of its own",
    ),
    (
        "serve-orphan-frame",
        "a serving-plane role sends a frame tag that no recv/recv_any of the role \
         it targets accepts",
    ),
    (
        "serve-fault-closure",
        "a replica that names Crashed must call purge_pending, send a RECOVER frame, \
         and keep every recv_any set a subset of its widest one",
    ),
];

// ---------------------------------------------------------------------------
// Path scopes
// ---------------------------------------------------------------------------

/// The one per-tree / per-layer growth loop of distributed training.
pub const GROWTH_LOOP: &str = "crates/quadrants/src/grow.rs";

/// Every source file of distributed training: the growth loop and the
/// policy files it is generic over. The single list the gate tests read
/// (the walk's coverage, and the files that carry the comm-unwrap deny).
pub const TRAINER_FILES: &[&str] = &[
    GROWTH_LOOP,
    "crates/quadrants/src/vertical.rs",
    "crates/quadrants/src/horizontal.rs",
    "crates/quadrants/src/qd1.rs",
    "crates/quadrants/src/qd2.rs",
    "crates/quadrants/src/qd3.rs",
    "crates/quadrants/src/qd4.rs",
    "crates/quadrants/src/yggdrasil.rs",
    "crates/quadrants/src/featpar.rs",
];

/// Where a per-tree loop may not appear: everything under the quadrants
/// crate but the growth loop itself and the single-node reference trainer
/// (no fault machinery to poll; kept independent as the test oracle).
fn second_loop_scope(path: &str) -> bool {
    path.starts_with("crates/quadrants/src/")
        && path != GROWTH_LOOP
        && path != "crates/quadrants/src/single.rs"
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// Matches a token sequence at `i`. Each pattern element is an identifier
/// (`"now"`) or a single punctuation character (`":"`).
fn match_seq(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
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

/// Index of the bracket closing the `{`, `(` or `[` at `open`, or
/// `tokens.len()`.
fn matching_close(tokens: &[Token], open: usize) -> usize {
    let (l, r) = match &tokens[open].tok {
        crate::lexer::Tok::Punct('(') => ('(', ')'),
        crate::lexer::Tok::Punct('[') => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct(l) {
            depth += 1;
        } else if tokens[j].is_punct(r) {
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
    path: &str,
    tok: &Token,
    rule: &'static str,
    message: String,
) {
    out.push(Diagnostic { path: path.to_string(), line: tok.line, col: tok.col, rule, message });
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
fn check_fault_point(path: &str, toks: &[Token], out: &mut Vec<Diagnostic>) {
    let second = second_loop_scope(path);
    if path != GROWTH_LOOP && !second {
        return;
    }
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
        let close = matching_close(toks, open);
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
        push_diag(out, path, &toks[i], "fault-point", message.to_string());
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
fn check_tag_registry(path: &str, toks: &[Token], out: &mut Vec<Diagnostic>) {
    if !path.starts_with("crates/") {
        return;
    }
    let in_comm = path == "crates/cluster/src/comm.rs";

    let protocol_span = protocol_span(toks);

    let mut seen: Vec<(String, String)> = Vec::new(); // (value, name)
    for i in 0..toks.len() {
        if toks[i].ident() != Some("const") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else { continue };
        if !is_tag_const(name) {
            continue;
        }
        let tok = &toks[i];
        let mut flag = |message: String| push_diag(out, path, tok, "tag-registry", message);
        if !in_comm {
            flag(format!(
                "manual tag constant `{name}` outside the central registry; declare it \
                 in gbdt_cluster::protocol so uniqueness is checkable"
            ));
            continue;
        }
        let inside = protocol_span.is_some_and(|(open, close)| i > open && i < close);
        if !inside {
            flag(format!(
                "tag constant `{name}` in comm.rs but outside `mod protocol`; move it into \
                 the registry"
            ));
            continue;
        }
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

/// The `(open, close)` brace indices of a file's `mod protocol { … }`.
fn protocol_span(toks: &[Token]) -> Option<(usize, usize)> {
    (0..toks.len()).find_map(|i| {
        if toks[i].ident() == Some("mod") && toks.get(i + 1).and_then(Token::ident) == Some("protocol")
        {
            let open = (i + 2..toks.len()).find(|&j| toks[j].is_punct('{'))?;
            Some((open, matching_close(toks, open)))
        } else {
            None
        }
    })
}

/// Whether a `const` name declares a point-to-point tag.
fn is_tag_const(name: &str) -> bool {
    name.contains("TAG") && name != "COLLECTIVE_TAG_BASE"
}

/// Parses `1234`, `0x7261_7274`, `0b…`, `0o…` with optional `u64` suffix.
fn parse_u64(raw: &str) -> Option<u64> {
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
// Cross-file rules: serve-orphan-frame, serve-fault-closure, dead tags
// ---------------------------------------------------------------------------

/// The one tag registry, `gbdt_cluster::comm::protocol`.
const REGISTRY: &str = "crates/cluster/src/comm.rs";

/// The serving plane's roles, keyed by file name so fixtures scope the
/// same way as the real sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ServeRole {
    Router,
    Replica,
    /// Request and publish clients (the availability harness).
    Client,
}

fn serve_role(path: &str) -> Option<ServeRole> {
    let name = path.strip_prefix("crates/serve/src/")?;
    match name.rsplit('/').next()? {
        "router.rs" => Some(ServeRole::Router),
        "replica.rs" => Some(ServeRole::Replica),
        "avail.rs" => Some(ServeRole::Client),
        _ => None,
    }
}

/// One file's frame traffic read off its tokens, control flow ignored: the
/// serve loops are tick-driven, so which frames a role can send and accept
/// is a set property, not an ordering one. Positions are token indices.
#[derive(Default)]
struct Frames {
    /// `(tag, identifiers of the peer argument, at)` per
    /// `.send(peer, TAG, ..)` / `.send_f64s(..)` whose tag is a name.
    sends: Vec<(String, Vec<String>, usize)>,
    /// The tag of each `.recv(from, TAG)`.
    recvs: Vec<String>,
    /// The tag set of each `.recv_any(..)`: its array literal, or the array
    /// the nearest `let <name> = [..]` above it binds.
    recv_any: Vec<(BTreeSet<String>, usize)>,
    /// Whether the file calls `purge_pending`.
    purges: bool,
}

impl Frames {
    fn read(toks: &[Token]) -> Frames {
        let mut out = Frames::default();
        let mut arrays: Vec<(&str, BTreeSet<String>)> = Vec::new();
        for i in 0..toks.len() {
            let next = toks.get(i + 1).and_then(Token::ident);
            if let (Some("let"), Some(name)) = (toks[i].ident(), next) {
                if match_seq(toks, i + 2, &["=", "["]) {
                    let close = matching_close(toks, i + 3);
                    arrays.push((name, tag_set(&toks[i + 4..close])));
                }
                continue;
            }
            if !(toks[i].is_punct('.') && match_seq(toks, i + 2, &["("])) {
                continue;
            }
            let Some(method) = toks.get(i + 1).and_then(Token::ident) else { continue };
            let close = matching_close(toks, i + 2);
            let args = split_args(&toks[i + 3..close]);
            match (method, args.as_slice()) {
                ("send" | "send_f64s", [peer, tag, ..]) => {
                    if let Some(tag) = tag_name(tag) {
                        let peer = peer.iter().filter_map(Token::ident).map(String::from).collect();
                        out.sends.push((tag, peer, i + 1));
                    }
                }
                ("recv", [_, tag]) => {
                    out.recvs.extend(tag_name(tag));
                }
                ("recv_any", [set]) => {
                    let set = match set.split_first() {
                        Some((amp, rest)) if amp.is_punct('&') => rest,
                        _ => set,
                    };
                    let tags = match set {
                        [open, inner @ .., _] if open.is_punct('[') => Some(tag_set(inner)),
                        [name] => arrays
                            .iter()
                            .rev()
                            .find(|(n, _)| Some(*n) == name.ident())
                            .map(|(_, tags)| tags.clone()),
                        _ => None,
                    };
                    if let Some(tags) = tags.filter(|t| !t.is_empty()) {
                        out.recv_any.push((tags, i + 1));
                    }
                }
                ("purge_pending", _) => out.purges = true,
                _ => {}
            }
        }
        out
    }

    fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.recvs.is_empty() && self.recv_any.is_empty()
    }

    /// Every tag name the file sends or receives.
    fn tags(&self) -> impl Iterator<Item = &str> {
        let sent = self.sends.iter().map(|(t, _, _)| t.as_str());
        let received = self.recvs.iter().map(String::as_str);
        let any = self.recv_any.iter().flat_map(|(set, _)| set.iter().map(String::as_str));
        sent.chain(received).chain(any)
    }
}

/// Splits an argument list on its top-level commas.
fn split_args(toks: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0i32, 0);
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push(&toks[start..i]);
            start = i + 1;
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

/// A tag argument that is a name (`SERVE_ACK_TAG`, `protocol::SERVE_ACK_TAG`):
/// the last identifier of a plain path. Anything computed is not a name.
fn tag_name(arg: &[Token]) -> Option<String> {
    let plain = arg.iter().all(|t| t.ident().is_some() || t.is_punct(':'));
    if plain { arg.last()?.ident().map(String::from) } else { None }
}

/// The names in an array literal's elements.
fn tag_set(inner: &[Token]) -> BTreeSet<String> {
    split_args(inner).into_iter().filter_map(tag_name).collect()
}

/// `serve-orphan-frame` and `serve-fault-closure` over the serving roles in
/// `files`. A send is checked only when its target role is in the set and
/// accepts something, so a role linted alone stays quiet.
fn check_serve_frames(
    files: &[(String, Vec<Token>)],
    frames: &[Frames],
    out: &mut Vec<Diagnostic>,
) {
    let mut accepts: BTreeMap<ServeRole, BTreeSet<&str>> = BTreeMap::new();
    for ((path, _), f) in files.iter().zip(frames) {
        if let Some(role) = serve_role(path) {
            let set = accepts.entry(role).or_default();
            set.extend(f.recvs.iter().map(String::as_str));
            set.extend(f.recv_any.iter().flat_map(|(tags, _)| tags.iter().map(String::as_str)));
        }
    }
    for ((path, toks), f) in files.iter().zip(frames) {
        let Some(role) = serve_role(path) else { continue };
        for (tag, peer, at) in &f.sends {
            let target = match role {
                ServeRole::Router if peer.iter().any(|p| p == "client" || p == "publisher") => {
                    ServeRole::Client
                }
                ServeRole::Router => ServeRole::Replica,
                ServeRole::Replica | ServeRole::Client => ServeRole::Router,
            };
            let Some(set) = accepts.get(&target).filter(|s| !s.is_empty()) else { continue };
            if !set.contains(tag.as_str()) {
                push_diag(
                    out,
                    path,
                    &toks[*at],
                    "serve-orphan-frame",
                    format!(
                        "frame `{tag}` is sent to the {target:?} role, but no {target:?} \
                         recv/recv_any accepts that tag — the peer's demux drops it"
                    ),
                );
            }
        }
        if role != ServeRole::Replica {
            continue;
        }
        let Some(crashed) = toks.iter().find(|t| t.ident() == Some("Crashed")) else { continue };
        if !f.purges {
            push_diag(
                out,
                path,
                crashed,
                "serve-fault-closure",
                "replica models crashes but never calls purge_pending: frames buffered \
                 across the crash replay into the recovered schedule"
                    .to_string(),
            );
        }
        if !f.sends.iter().any(|(t, _, _)| t.contains("RECOVER")) {
            push_diag(
                out,
                path,
                crashed,
                "serve-fault-closure",
                "replica models crashes but never sends a RECOVER frame — the router \
                 cannot resync a recovered replica"
                    .to_string(),
            );
        }
        let widest = f.recv_any.iter().map(|(set, _)| set).max_by_key(|set| set.len());
        for (set, at) in &f.recv_any {
            if widest.is_some_and(|w| !set.is_subset(w)) {
                push_diag(
                    out,
                    path,
                    &toks[*at],
                    "serve-fault-closure",
                    format!(
                        "recv_any set {{{}}} accepts frames the widest set never does — \
                         recovery must shrink the listen set, not grow it",
                        set.iter().cloned().collect::<Vec<_>>().join(", ")
                    ),
                );
            }
        }
    }
}

/// The dead-tag arm of `tag-registry`: a registry tag that no other file
/// sends or receives is protocol surface new code could collide with
/// silently. Quiet unless some other file moves frames at all, so the
/// registry linted alone stays clean.
fn check_dead_tags(files: &[(String, Vec<Token>)], frames: &[Frames], out: &mut Vec<Diagnostic>) {
    let Some(registry) = files.iter().position(|(p, _)| p == REGISTRY) else { return };
    let others = || frames.iter().enumerate().filter(move |(i, _)| *i != registry).map(|(_, f)| f);
    if others().all(Frames::is_empty) {
        return;
    }
    let used: BTreeSet<&str> = others().flat_map(Frames::tags).collect();
    let (path, toks) = &files[registry];
    let Some((open, close)) = protocol_span(toks) else { return };
    for i in open..close {
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else { continue };
        if toks[i].ident() == Some("const") && is_tag_const(name) && !used.contains(name) {
            push_diag(
                out,
                path,
                &toks[i],
                "tag-registry",
                format!(
                    "registry tag `{name}` is never sent or received; delete it"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs the rules that compare files: the serving plane's frame coverage
/// and fault closure, and registry tags no file sends or receives. Paths
/// are workspace-relative.
pub fn check_files(files: &[(String, Vec<Token>)]) -> Vec<Diagnostic> {
    let frames: Vec<Frames> = files.iter().map(|(_, toks)| Frames::read(toks)).collect();
    let mut out = Vec::new();
    check_serve_frames(files, &frames, &mut out);
    check_dead_tags(files, &frames, &mut out);
    out
}

/// Runs the per-file rules (`fault-point` and the registry arm of
/// `tag-registry`) against one lexed file. `path` is workspace-relative
/// with `/` separators — it selects which rules apply.
pub fn check_file(path: &str, toks: &[Token]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_fault_point(path, toks, &mut out);
    check_tag_registry(path, toks, &mut out);
    out.sort_by_key(|d| (d.line, d.col));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serving rules only see files that map to a role, so a serving
    /// file that sends or receives frames under no role would go
    /// unchecked. Every such file in the real tree must have one.
    #[test]
    fn every_frame_bearing_serve_file_has_a_role() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("crates/analysis has a workspace two levels up");
        let mut bearing = Vec::new();
        for (path, src) in crate::workspace_sources(root).expect("workspace walk succeeds") {
            if !path.starts_with("crates/serve/src/") {
                continue;
            }
            let frames = Frames::read(&crate::lexer::lex(&src));
            if frames.tags().any(|t| t.starts_with("SERVE_") && t.ends_with("_TAG")) {
                assert!(serve_role(&path).is_some(), "{path} moves serve frames under no role");
                bearing.push(path.rsplit('/').next().unwrap_or("").to_string());
            }
        }
        // The scan sees the files it must: the three roles' own sources.
        for file in ["avail.rs", "replica.rs", "router.rs"] {
            assert!(bearing.iter().any(|b| b == file), "{file} not detected: {bearing:?}");
        }
    }

    /// What the frame reader takes from the shapes the serving code uses.
    #[test]
    fn frames_read_sends_receives_and_named_tag_sets() {
        let src = "
            fn f(comm: &Comm, client: usize) {
                let tags = [A_TAG, protocol::B_TAG];
                let _ = comm.recv_any(&tags);
                let _ = comm.recv_any(&[C_TAG]);
                let _ = comm.recv(ROUTER_RANK, D_TAG);
                let _ = comm.send(client, E_TAG, Bytes::new());
                let _ = comm.send(peer, tag + 1, Bytes::new());
                comm.purge_pending();
            }
        ";
        let frames = Frames::read(&crate::lexer::lex(src));
        let sets: Vec<Vec<&str>> = frames
            .recv_any
            .iter()
            .map(|(set, _)| set.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(sets, vec![vec!["A_TAG", "B_TAG"], vec!["C_TAG"]]);
        assert_eq!(frames.recvs, ["D_TAG"]);
        assert_eq!(frames.sends.len(), 1, "a computed tag is not a name");
        assert_eq!(frames.sends[0].0, "E_TAG");
        assert_eq!(frames.sends[0].1, ["client"]);
        assert!(frames.purges);
    }
}
