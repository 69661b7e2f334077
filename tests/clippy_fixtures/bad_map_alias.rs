// Known-bad (`map-iteration`), the two shapes a token matcher cannot see:
// a hash map behind a type alias, and one that is never bound to a name.
// The types carry the rule, so both are caught where the map is named;
// `iter_over_hash_type` sees the alias's loop, but not `into_keys()`.

pub type Table = std::collections::HashMap<u32, f64>; //~ clippy::disallowed_types

pub fn keys_of(t: &Table) -> Vec<u32> {
    let mut out = Vec::new();
    for k in t.keys() { //~ clippy::iter_over_hash_type
        out.push(*k);
    }
    out
}

pub fn mk() -> std::collections::HashMap<u32, f64> { //~ clippy::disallowed_types
    Table::new()
}

pub fn owned_keys() -> Vec<u32> {
    let mut out = Vec::new();
    for k in mk().into_keys() {
        out.push(k);
    }
    out
}
