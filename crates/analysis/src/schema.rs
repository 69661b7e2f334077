//! Wire-schema parity (`schema-parity`): encode/decode drift gates for
//! the two hand-rolled codecs (DESIGN.md item 15).
//!
//! Two engines, each scoped to the one file that owns a codec style:
//!
//! * **Struct framing** (`crates/serve/src/wire.rs`): for every struct
//!   with both an `encode` and a `decode` method, the encode body is
//!   lowered to a sequence of field widths — `self.f.to_le_bytes()` is a
//!   fixed write of the field's width, `(x as u32).to_le_bytes()` a
//!   fixed 4, `push(x as u8)` a fixed 1, writes inside a `for` loop are
//!   per-element streams — and the decode body to the mirror sequence
//!   from its cursor calls (`.u64()`, `.f32()`, `.take(n)`, `[u8; N]`
//!   conversions). The two sequences must match exactly, and the fields
//!   the encoder writes must appear in the same order the decoder's
//!   struct literal rebuilds them.
//!
//! * **Stride parity** (`crates/cluster/src/wire.rs`): the histogram
//!   codecs fix their layouts through byte strides (`chunks_exact(12)`,
//!   `12 * nnz`). Every stride an encode-side function uses must appear
//!   on the decode side too (and vice versa), with size helpers shared
//!   by both sides counting for both — a new layout added to only one
//!   side is exactly the drift that ships undecodable payloads.
//!
//! Anything the scanner cannot type (a field of unknown width, a struct
//! without both methods) is skipped, never guessed.

use crate::lexer::{Lexed, Token};
use crate::rules::{match_seq, matching_brace, parse_u64};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// One wire item: a fixed-width write/read, or a per-element stream of
/// that width (inside a length-prefixed loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Item {
    Fixed(u32),
    Stream(u32),
}

fn render_items(items: &[Item]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|it| match it {
            Item::Fixed(w) => w.to_string(),
            Item::Stream(w) => format!("stream\u{d7}{w}"),
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

fn prim_width(name: &str) -> Option<u32> {
    match name {
        "u8" | "i8" => Some(1),
        "u16" | "i16" => Some(2),
        "u32" | "i32" | "f32" => Some(4),
        "u64" | "i64" | "f64" => Some(8),
        _ => None,
    }
}

/// A struct field's wire type: a fixed-width scalar, or a `Vec` of them.
#[derive(Clone, Copy, Debug, Default)]
struct FieldTy {
    fixed: Option<u32>,
    elem: Option<u32>,
}

type Fields = Vec<(String, FieldTy)>;

/// Parses every `struct Name { ... }` into its ordered field list.
fn parse_structs(tokens: &[Token]) -> BTreeMap<String, Fields> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() == Some("struct") {
            if let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) {
                // Only brace-bodied structs; skip tuple/unit structs.
                if tokens.get(i + 2).is_some_and(|t| t.is_punct('{')) {
                    let close = matching_brace(tokens, i + 2);
                    out.insert(name.to_string(), parse_fields(&tokens[i + 3..close]));
                    i = close;
                }
            }
        }
        i += 1;
    }
    out
}

fn parse_fields(body: &[Token]) -> Fields {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < body.len() {
        // Skip attributes and visibility.
        if body[i].is_punct('#') {
            if body.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                let mut depth = 0usize;
                i += 1;
                while i < body.len() {
                    if body[i].is_punct('[') {
                        depth += 1;
                    } else if body[i].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
            }
            i += 1;
            continue;
        }
        if body[i].ident() == Some("pub") {
            if body.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                i = skip_parens(body, i + 1);
            }
            i += 1;
            continue;
        }
        let (Some(name), true) = (
            body[i].ident(),
            body.get(i + 1).is_some_and(|t| t.is_punct(':')),
        ) else {
            i += 1;
            continue;
        };
        // Type tokens run to the next comma at angle depth 0.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < body.len() {
            if body[j].is_punct('<') {
                angle += 1;
            } else if body[j].is_punct('>') {
                angle -= 1;
            } else if body[j].is_punct(',') && angle <= 0 {
                break;
            }
            j += 1;
        }
        let ty_first = body[i + 2].ident().unwrap_or("");
        let ty = if let Some(w) = prim_width(ty_first) {
            FieldTy { fixed: Some(w), elem: None }
        } else if ty_first == "Vec" {
            let elem = body
                .get(i + 4)
                .and_then(|t| t.ident())
                .and_then(prim_width);
            FieldTy { fixed: None, elem }
        } else {
            FieldTy::default()
        };
        fields.push((name.to_string(), ty));
        i = j + 1;
    }
    fields
}

fn skip_parens(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('(') {
            depth += 1;
        } else if tokens[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    j
}

/// `(struct name, fn name, fn line, body token range)` for every method
/// in every inherent `impl` block.
fn impl_methods(tokens: &[Token]) -> Vec<(String, String, u32, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() != Some("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        j = skip_angles(tokens, j);
        let Some(ty) = tokens.get(j).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        j = skip_angles(tokens, j + 1);
        // Trait impls (`impl Trait for Type`) name the type after `for`.
        let ty = if tokens.get(j).and_then(|t| t.ident()) == Some("for") {
            let t = tokens.get(j + 1).and_then(|t| t.ident()).unwrap_or(ty);
            j = skip_angles(tokens, j + 2);
            t
        } else {
            ty
        };
        while j < tokens.len() && !tokens[j].is_punct('{') {
            j += 1;
        }
        if j >= tokens.len() {
            break;
        }
        let impl_close = matching_brace(tokens, j);
        let mut k = j + 1;
        while k < impl_close {
            if tokens[k].ident() == Some("fn") {
                if let Some(fname) = tokens.get(k + 1).and_then(|t| t.ident()) {
                    let line = tokens[k + 1].line;
                    let mut b = k + 2;
                    while b < impl_close && !tokens[b].is_punct('{') {
                        b += 1;
                    }
                    let close = matching_brace(tokens, b);
                    out.push((
                        ty.to_string(),
                        fname.to_string(),
                        line,
                        (b + 1, close),
                    ));
                    k = close;
                }
            }
            k += 1;
        }
        i = impl_close;
    }
    out
}

fn skip_angles(tokens: &[Token], mut j: usize) -> usize {
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
    }
    j
}

/// Loop spans inside a body: `(body_start, body_end, for_var, for_field)`.
/// `for_var`/`for_field` are set for `for v in &self.field` loops so
/// `v.to_le_bytes()` can be typed from the field.
fn loop_spans(
    tokens: &[Token],
    range: (usize, usize),
) -> Vec<(usize, usize, Option<String>, Option<String>)> {
    let mut spans = Vec::new();
    let mut i = range.0;
    while i < range.1 {
        let kw = tokens[i].ident();
        if kw == Some("for") || kw == Some("while") || kw == Some("loop") {
            let mut var = None;
            let mut field = None;
            let mut b = i + 1;
            if kw == Some("loop") {
                // body opens immediately
            } else {
                let mut depth = 0i32;
                while b < range.1 {
                    if tokens[b].is_punct('(') || tokens[b].is_punct('[') {
                        depth += 1;
                    } else if tokens[b].is_punct(')') || tokens[b].is_punct(']') {
                        depth -= 1;
                    } else if tokens[b].is_punct('{') && depth == 0 {
                        break;
                    }
                    b += 1;
                }
                if kw == Some("for") {
                    var = tokens[i + 1..b]
                        .iter()
                        .filter_map(|t| t.ident())
                        .find(|n| !matches!(*n, "mut" | "_" | "ref"))
                        .map(str::to_string);
                    // `in & self . F` / `in self . F . iter ( )`
                    for k in i + 1..b.saturating_sub(2) {
                        if tokens[k].ident() == Some("self")
                            && tokens[k + 1].is_punct('.')
                        {
                            field = tokens[k + 2].ident().map(str::to_string);
                            break;
                        }
                    }
                }
            }
            if b < range.1 && tokens[b].is_punct('{') {
                let close = matching_brace(tokens, b);
                spans.push((b + 1, close, var, field));
                i = b + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

fn field_ty(fields: &Fields, name: &str) -> Option<FieldTy> {
    fields.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
}

/// Lowers an encode body to its item sequence + field write order.
/// `None` when any write can't be typed.
fn encode_items(
    tokens: &[Token],
    range: (usize, usize),
    fields: &Fields,
) -> Option<(Vec<Item>, Vec<String>)> {
    let loops = loop_spans(tokens, range);
    let in_loop = |i: usize| loops.iter().find(|(s, e, _, _)| (*s..*e).contains(&i));
    let mut items = Vec::new();
    let mut order: Vec<String> = Vec::new();
    let note = |items: &mut Vec<Item>, order: &mut Vec<String>, w, streaming, field: Option<&str>| {
        items.push(if streaming { Item::Stream(w) } else { Item::Fixed(w) });
        if let Some(f) = field {
            if !order.iter().any(|o| o == f) {
                order.push(f.to_string());
            }
        }
    };
    let mut i = range.0;
    while i < range.1 {
        // extend_from_slice(&self.F)  — raw byte stream of a Vec<u8>.
        if match_seq(tokens, i, &["extend_from_slice", "(", "&", "self", "."])
            && tokens.get(i + 6).is_some_and(|t| t.is_punct(')'))
        {
            let f = tokens[i + 5].ident()?;
            let w = field_ty(fields, f)?.elem?;
            note(&mut items, &mut order, w, true, Some(f));
            i += 7;
            continue;
        }
        // push(... as u8 ...)
        if match_seq(tokens, i, &[".", "push", "("]) {
            let close = skip_parens(tokens, i + 2);
            let args = &tokens[i + 3..close];
            let cast = args.iter().enumerate().find(|(k, t)| {
                t.ident() == Some("as")
                    && args.get(k + 1).and_then(|t| t.ident()) == Some("u8")
            });
            if cast.is_some() {
                let field = (0..args.len().saturating_sub(2))
                    .find(|&k| {
                        args[k].ident() == Some("self") && args[k + 1].is_punct('.')
                    })
                    .and_then(|k| args[k + 2].ident());
                note(&mut items, &mut order, 1, in_loop(i).is_some(), field);
            }
            i = close + 1;
            continue;
        }
        // self.F.to_le_bytes()
        if match_seq(tokens, i, &["self", "."])
            && tokens.get(i + 2).and_then(|t| t.ident()).is_some()
            && match_seq(tokens, i + 3, &[".", "to_le_bytes"])
        {
            let f = tokens[i + 2].ident()?;
            let w = field_ty(fields, f)?.fixed?;
            note(&mut items, &mut order, w, in_loop(i).is_some(), Some(f));
            i += 5;
            continue;
        }
        // (... as uN).to_le_bytes()
        if tokens[i].ident() == Some("as")
            && match_seq(tokens, i + 2, &[")", ".", "to_le_bytes"])
        {
            if let Some(w) = tokens.get(i + 1).and_then(|t| t.ident()).and_then(prim_width)
            {
                note(&mut items, &mut order, w, in_loop(i).is_some(), None);
                i += 5;
                continue;
            }
        }
        // v.to_le_bytes() for the var of `for v in &self.F`
        if let Some(name) = tokens[i].ident() {
            if match_seq(tokens, i + 1, &[".", "to_le_bytes"]) {
                if let Some((_, _, Some(var), Some(f))) = in_loop(i) {
                    if var == name {
                        let w = field_ty(fields, f)?.elem?;
                        note(&mut items, &mut order, w, true, Some(f));
                        i += 3;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    Some((items, order))
}

const CURSOR_READS: &[(&str, u32)] =
    &[("u8", 1), ("u16", 2), ("u32", 4), ("u64", 8), ("f32", 4), ("f64", 8)];

/// Lowers a decode body: cursor reads + the struct literal's field order.
fn decode_items(
    tokens: &[Token],
    range: (usize, usize),
    struct_name: &str,
) -> (Vec<Item>, Vec<String>) {
    let loops = loop_spans(tokens, range);
    let in_loop = |i: usize| loops.iter().any(|(s, e, _, _)| (*s..*e).contains(&i));
    let mut items = Vec::new();
    let mut order = Vec::new();
    let mut i = range.0;
    while i < range.1 {
        if tokens[i].is_punct('.') {
            if let Some(m) = tokens.get(i + 1).and_then(|t| t.ident()) {
                if let Some((_, w)) = CURSOR_READS.iter().find(|(n, _)| *n == m) {
                    if match_seq(tokens, i + 2, &["(", ")"]) {
                        items.push(if in_loop(i) {
                            Item::Stream(*w)
                        } else {
                            Item::Fixed(*w)
                        });
                        i += 4;
                        continue;
                    }
                }
                if m == "take" && tokens.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                    items.push(Item::Stream(1));
                    i = skip_parens(tokens, i + 2) + 1;
                    continue;
                }
            }
        }
        // [u8; N] — a fixed array conversion.
        if match_seq(tokens, i, &["[", "u8", ";"]) {
            if let Some(n) = tokens
                .get(i + 3)
                .and_then(|t| match &t.tok {
                    crate::lexer::Tok::Num(raw) => parse_u64(raw),
                    _ => None,
                })
            {
                items.push(Item::Fixed(n as u32));
                i += 5;
                continue;
            }
        }
        // The rebuild literal: `StructName { f1, f2: ..., ... }`.
        if tokens[i].ident() == Some(struct_name)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('{'))
            && order.is_empty()
        {
            let close = matching_brace(tokens, i + 1);
            let mut depth = 0i32;
            let mut k = i + 2;
            let mut at_field = true;
            while k < close {
                let t = &tokens[k];
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 {
                    if t.is_punct(',') {
                        at_field = true;
                    } else if at_field {
                        if let Some(f) = t.ident() {
                            order.push(f.to_string());
                        }
                        at_field = false;
                    }
                }
                k += 1;
            }
        }
        i += 1;
    }
    (items, order)
}

fn check_serve_wire(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let tokens = &lexed.tokens;
    let structs = parse_structs(tokens);
    let methods = impl_methods(tokens);
    for (name, fields) in &structs {
        let enc = methods
            .iter()
            .find(|(ty, f, _, _)| ty == name && f == "encode");
        let dec = methods
            .iter()
            .find(|(ty, f, _, _)| ty == name && f == "decode");
        let (Some((_, _, _, enc_range)), Some((_, _, dec_line, dec_range))) = (enc, dec)
        else {
            continue;
        };
        let Some((enc_items, enc_order)) = encode_items(tokens, *enc_range, fields)
        else {
            continue;
        };
        let (dec_items, dec_order) = decode_items(tokens, *dec_range, name);
        if lexed.allowed("schema-parity", *dec_line) {
            continue;
        }
        if enc_items != dec_items {
            out.push(Diagnostic {
                path: path.to_string(),
                line: *dec_line,
                col: 1,
                rule: "schema-parity",
                message: format!(
                    "`{name}` wire widths disagree: encode writes {} but decode \
                     reads {}",
                    render_items(&enc_items),
                    render_items(&dec_items)
                ),
            });
        }
        // Field order only matters for fields both sides name.
        let enc_named: Vec<&String> =
            enc_order.iter().filter(|f| dec_order.contains(f)).collect();
        let dec_named: Vec<&String> =
            dec_order.iter().filter(|f| enc_order.contains(f)).collect();
        if enc_named != dec_named {
            out.push(Diagnostic {
                path: path.to_string(),
                line: *dec_line,
                col: 1,
                rule: "schema-parity",
                message: format!(
                    "`{name}` field order disagrees: encode writes [{}] but decode \
                     rebuilds [{}]",
                    enc_order.join(", "),
                    dec_order.join(", ")
                ),
            });
        }
    }
}

/// Byte strides (2/4/8/12/16) a function commits to, via
/// `chunks_exact[_mut](N)` or a `N *` / `* N` size expression.
fn fn_strides(tokens: &[Token], range: (usize, usize)) -> BTreeSet<u64> {
    const STRIDES: &[u64] = &[2, 4, 8, 12, 16];
    let mut out = BTreeSet::new();
    for i in range.0..range.1 {
        if let crate::lexer::Tok::Num(raw) = &tokens[i].tok {
            let Some(n) = parse_u64(raw) else { continue };
            if !STRIDES.contains(&n) {
                continue;
            }
            let by_mul = (i > range.0 && tokens[i - 1].is_punct('*'))
                || tokens.get(i + 1).is_some_and(|t| t.is_punct('*'));
            let by_chunks = i >= 2
                && tokens[i - 1].is_punct('(')
                && tokens[i - 2]
                    .ident()
                    .is_some_and(|m| m == "chunks_exact" || m == "chunks_exact_mut");
            if by_mul || by_chunks {
                out.insert(n);
            }
        }
    }
    out
}

fn check_cluster_wire(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let tokens = &lexed.tokens;
    // (side, fn line, strides): 0 = encode, 1 = decode, 2 = shared.
    let mut enc: BTreeMap<u64, u32> = BTreeMap::new();
    let mut dec: BTreeMap<u64, u32> = BTreeMap::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        let line = tokens[i + 1].line;
        let mut b = i + 2;
        while b < tokens.len() && !tokens[b].is_punct('{') && !tokens[b].is_punct(';') {
            b += 1;
        }
        if b >= tokens.len() || tokens[b].is_punct(';') {
            i = b;
            continue;
        }
        let close = matching_brace(tokens, b);
        let strides = fn_strides(tokens, (b + 1, close));
        let is_enc = name.starts_with("encode") || name.ends_with("_to_bytes");
        let is_dec = name.starts_with("decode")
            || name.starts_with("bytes_to")
            || name.starts_with("for_each")
            || name == "classify";
        for s in strides {
            if is_enc || !is_dec {
                enc.entry(s).or_insert(line);
            }
            if is_dec || !is_enc {
                dec.entry(s).or_insert(line);
            }
        }
        i = close;
    }
    for (set, other, side, peer) in
        [(&enc, &dec, "encode", "decode"), (&dec, &enc, "decode", "encode")]
    {
        for (&stride, &line) in set.iter() {
            if !other.contains_key(&stride) && !lexed.allowed("schema-parity", line) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line,
                    col: 1,
                    rule: "schema-parity",
                    message: format!(
                        "{side} side commits to a {stride}-byte stride that no \
                         {peer}-side function handles — a layout only one side \
                         of the wire understands"
                    ),
                });
            }
        }
    }
}

/// Runs both parity engines over their owning files.
pub fn check_files(files: &[(String, Lexed)], out: &mut Vec<Diagnostic>) {
    for (path, lexed) in files {
        if path.ends_with("serve/src/wire.rs") {
            check_serve_wire(path, lexed, out);
        } else if path.ends_with("cluster/src/wire.rs") {
            check_cluster_wire(path, lexed, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_files(&[(path.to_string(), lex(src))], &mut out);
        out
    }

    #[test]
    fn matched_struct_codec_is_clean() {
        let src = r#"
            pub struct Frame { pub id: u64, pub n: u32, pub rows: Vec<f32> }
            impl Frame {
                pub fn encode(&self) -> Vec<u8> {
                    let mut out = Vec::new();
                    out.extend_from_slice(&self.id.to_le_bytes());
                    out.extend_from_slice(&self.n.to_le_bytes());
                    for v in &self.rows {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    out
                }
                pub fn decode(bytes: &[u8]) -> Result<Self, String> {
                    let mut r = Cursor { bytes, pos: 0 };
                    let id = r.u64()?;
                    let n = r.u32()?;
                    let mut rows = Vec::new();
                    for _ in 0..n {
                        rows.push(r.f32()?);
                    }
                    Ok(Frame { id, n, rows })
                }
            }
        "#;
        assert!(check("crates/serve/src/wire.rs", src).is_empty());
    }

    #[test]
    fn width_drift_is_flagged() {
        let src = r#"
            pub struct Frame { pub id: u64, pub n: u32 }
            impl Frame {
                pub fn encode(&self) -> Vec<u8> {
                    let mut out = Vec::new();
                    out.extend_from_slice(&self.id.to_le_bytes());
                    out.extend_from_slice(&self.n.to_le_bytes());
                    out
                }
                pub fn decode(bytes: &[u8]) -> Result<Self, String> {
                    let mut r = Cursor { bytes, pos: 0 };
                    let id = r.u64()?;
                    let n = r.u64()? as u32;
                    Ok(Frame { id, n })
                }
            }
        "#;
        let out = check("crates/serve/src/wire.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "schema-parity");
    }

    #[test]
    fn field_order_drift_is_flagged() {
        let src = r#"
            pub struct Frame { pub a: u32, pub b: u32 }
            impl Frame {
                pub fn encode(&self) -> Vec<u8> {
                    let mut out = Vec::new();
                    out.extend_from_slice(&self.a.to_le_bytes());
                    out.extend_from_slice(&self.b.to_le_bytes());
                    out
                }
                pub fn decode(bytes: &[u8]) -> Result<Self, String> {
                    let mut r = Cursor { bytes, pos: 0 };
                    let b = r.u32()?;
                    let a = r.u32()?;
                    Ok(Frame { b, a })
                }
            }
        "#;
        let out = check("crates/serve/src/wire.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("field order"));
    }

    #[test]
    fn one_sided_stride_is_flagged() {
        let src = r#"
            fn encode_pairs(buf: &[f64]) -> Vec<u8> {
                let mut out = Vec::with_capacity(buf.len() * 12);
                out
            }
            fn decode_pairs(bytes: &[u8]) -> Vec<f64> {
                let mut out = Vec::new();
                for ch in bytes.chunks_exact(8) {
                    let _ = ch;
                }
                out
            }
        "#;
        let out = check("crates/cluster/src/wire.rs", src);
        assert_eq!(out.len(), 2, "{out:?}");
    }
}
