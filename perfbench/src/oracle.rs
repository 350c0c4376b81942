//! Read oracle: block contents as a pure function of `(lba, version)` and
//! a per-LBA model of which versions a read may legitimately return.
//!
//! A write of version `v` first raises the block's *attempted* version to
//! `v`; only an `Ok` from the cluster raises its *acknowledged* version.
//! A read passes when its bytes equal the content of any version in
//! `acked..=attempted`: a failed write may or may not have landed, but no
//! other bytes are ever correct.

/// Content word `i` of `(lba, version)`: a per-block seed plus an odd
/// stride, so generating and checking a block are both one linear pass.
fn seed(lba: u64, version: u32) -> u64 {
    let mut z = lba
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(version).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STRIDE: u64 = 0x2545_F491_4F6C_DD1D;

/// Writes the content of `(lba, version)` into `buf` (a multiple of 8
/// bytes).
pub fn fill(buf: &mut [u8], lba: u64, version: u32) {
    let s = seed(lba, version);
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(
            &s.wrapping_add((i as u64).wrapping_mul(STRIDE))
                .to_le_bytes(),
        );
    }
}

/// Whether `buf` holds exactly the content of `(lba, version)`.
pub fn matches(buf: &[u8], lba: u64, version: u32) -> bool {
    let s = seed(lba, version);
    buf.chunks_exact(8).enumerate().all(|(i, word)| {
        word == s
            .wrapping_add((i as u64).wrapping_mul(STRIDE))
            .to_le_bytes()
    })
}

/// Last acknowledged and last attempted version of every block.
pub struct Model {
    acked: Vec<u32>,
    attempted: Vec<u32>,
}

impl Model {
    /// A model of `blocks` blocks, all acknowledged at `version`.
    pub fn new(blocks: u64, version: u32) -> Self {
        let n = usize::try_from(blocks).expect("block count fits in memory");
        Self {
            acked: vec![version; n],
            attempted: vec![version; n],
        }
    }

    /// Starts a write of `lba`, returning the version it carries.
    pub fn begin_write(&mut self, lba: u64) -> u32 {
        let slot = &mut self.attempted[lba as usize];
        *slot += 1;
        *slot
    }

    /// Records that the cluster acknowledged `version` of `lba`.
    pub fn ack(&mut self, lba: u64, version: u32) {
        self.acked[lba as usize] = version;
    }

    /// Whether `buf` is a legitimate read result for `lba`.
    pub fn verify(&self, lba: u64, buf: &[u8]) -> bool {
        let i = lba as usize;
        // The newest version first: it is the one a healthy cluster holds.
        (self.acked[i]..=self.attempted[i])
            .rev()
            .any(|v| matches(buf, lba, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_a_function_of_lba_and_version() {
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        fill(&mut a, 7, 3);
        fill(&mut b, 7, 3);
        assert_eq!(a, b);
        assert!(matches(&a, 7, 3));
        assert!(!matches(&a, 7, 4));
        assert!(!matches(&a, 8, 3));
        a[4000] ^= 1;
        assert!(!matches(&a, 7, 3));
    }

    #[test]
    fn model_accepts_only_the_versions_in_flight() {
        let mut m = Model::new(4, 1);
        let mut buf = vec![0u8; 64];
        fill(&mut buf, 2, 1);
        assert!(m.verify(2, &buf));
        // A write that was attempted but not acknowledged may or may not
        // have landed: both versions pass.
        let v = m.begin_write(2);
        assert_eq!(v, 2);
        assert!(m.verify(2, &buf));
        fill(&mut buf, 2, 2);
        assert!(m.verify(2, &buf));
        // Once acknowledged, the old version is stale.
        m.ack(2, 2);
        fill(&mut buf, 2, 1);
        assert!(!m.verify(2, &buf));
    }
}
