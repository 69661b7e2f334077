// Known-bad (`frame-reads`): a decoder slicing its own fixed-width field
// decides again how a frame is bounds-checked; `gbdt_data::frame::Reader`
// decides it once.

pub fn node_count(frame: &[u8]) -> Option<u32> {
    let head = frame.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(head)) //~ clippy::disallowed_methods
}
