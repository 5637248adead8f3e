//! BAD: a heap allocation inside a declared hot-path function — the
//! per-request copy no test sees, only a regression in kbench's
//! per-layer timings.

pub struct Sealer;

impl Sealer {
    pub fn seal_with(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut buf = plaintext.to_vec();
        buf.resize(buf.len().next_multiple_of(8), 0);
        buf
    }
}
