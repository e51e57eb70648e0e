//! FNV-1a digest of a workload's simulated statistics.
//!
//! A change that only makes the simulator faster must leave every
//! simulated statistic identical, so each pass hashes what it simulated
//! and the run fails when the hash moves.

/// Running FNV-1a 64 hash.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes the exact bit pattern, so any change in the last digit shows.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The recorded digest of `workload` at `seed`, from the committed
/// `digests.txt` (lines `workload seed hex`).
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(h)) if w == workload && s.parse() == Ok(seed) => {
                u64::from_str_radix(h, 16).ok()
            }
            _ => None,
        }
    })
}
