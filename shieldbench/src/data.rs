//! Inputs the workloads feed the engine, and the checks on what it returns.
//!
//! Every value is a pure function of (seed, key id, write index), so any
//! read can be checked without keeping the written data: the value names
//! its key id and write index, and the rest of its bytes must match what
//! that triple generates. Each value also carries [`MARKER`], which the
//! encryption-at-rest scan must never find in the stored files.

use std::sync::atomic::{AtomicU32, Ordering};

pub const KEY_LEN: usize = 16;
pub const VALUE_LEN: usize = 100;
/// Plaintext marker at the start of every value.
pub const MARKER: &[u8; 16] = b"~shield-plain~01";

/// SplitMix64: small, seedable and good enough for key choice.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i as usize, self.below(i + 1) as usize);
        }
        p
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// YCSB's zipfian generator (theta 0.99) over `0..n`, with ranks mapped
/// through a seeded permutation so the hot keys are spread over the key
/// space instead of clustered at its start.
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    permutation: Vec<u32>,
}

impl Zipf {
    pub fn new(n: u32, seed: u64) -> Zipf {
        let theta = 0.99;
        let zeta = |count: u32| {
            (1..=count)
                .map(|i| 1.0 / f64::from(i).powf(theta))
                .sum::<f64>()
        };
        let zeta_n = zeta(n);
        let zeta_2 = zeta(2);
        let nf = f64::from(n);
        let permutation = Rng::new(seed, 0x7a1f).permutation(n);
        Zipf {
            n: nf,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zeta_n,
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n),
            permutation,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u32)
                .min(self.permutation.len() as u32 - 1)
        };
        self.permutation[rank as usize]
    }
}

pub fn key(id: u32) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..4].copy_from_slice(b"user");
    let digits = format!("{id:012}");
    k[4..].copy_from_slice(digits.as_bytes());
    k
}

pub fn key_id(key: &[u8]) -> Option<u32> {
    if key.len() != KEY_LEN || &key[..4] != b"user" {
        return None;
    }
    std::str::from_utf8(&key[4..]).ok()?.parse().ok()
}

/// The value of write number `widx` (1-based) to key `id`.
pub fn value(seed: u64, id: u32, widx: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[..16].copy_from_slice(MARKER);
    v[16..20].copy_from_slice(&id.to_le_bytes());
    v[20..24].copy_from_slice(&widx.to_le_bytes());
    let mut rng = Rng::new(seed, (u64::from(id) << 32) | u64::from(widx));
    for chunk in v[24..].chunks_mut(8) {
        let r = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&r[..chunk.len()]);
    }
    v
}

/// Checks a value read for key `id` and returns its write index.
pub fn check_value(seed: u64, id: u32, v: &[u8]) -> Result<u32, String> {
    if v.len() != VALUE_LEN {
        return Err(format!(
            "key {id}: value has {} bytes, expected {VALUE_LEN}",
            v.len()
        ));
    }
    let stored_id = u32::from_le_bytes(v[16..20].try_into().expect("4 bytes"));
    let widx = u32::from_le_bytes(v[20..24].try_into().expect("4 bytes"));
    if stored_id != id {
        return Err(format!("key {id}: got the value of key {stored_id}"));
    }
    if v != value(seed, id, widx) {
        return Err(format!("key {id}: value of write {widx} is corrupt"));
    }
    Ok(widx)
}

/// Per-key write indices: `sent` is bumped before a put is sent and
/// `acked` after it returns, so a read that starts after `acked` was
/// loaded and ends before `sent` is loaded must see an index between
/// the two.
pub struct Ledger {
    sent: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
}

impl Ledger {
    pub fn new(keys: u32) -> Ledger {
        Ledger {
            sent: (0..keys).map(|_| AtomicU32::new(0)).collect(),
            acked: (0..keys).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Allocates the next write index of `id`. Each key has one writer.
    pub fn next_write(&self, id: u32) -> u32 {
        self.sent[id as usize].fetch_add(1, Ordering::SeqCst) + 1
    }

    pub fn ack(&self, id: u32, widx: u32) {
        self.acked[id as usize].store(widx, Ordering::SeqCst);
    }

    pub fn acked(&self, id: u32) -> u32 {
        self.acked[id as usize].load(Ordering::SeqCst)
    }

    pub fn sent(&self, id: u32) -> u32 {
        self.sent[id as usize].load(Ordering::SeqCst)
    }

    pub fn keys(&self) -> u32 {
        self.acked.len() as u32
    }

    /// Keys with at least one acknowledged write.
    pub fn live_keys(&self) -> u64 {
        (0..self.keys()).filter(|&id| self.acked(id) > 0).count() as u64
    }
}

/// Checks a point read of `id`: its write index must be at least `floor`
/// (the acknowledged index loaded before the read, or for a replica,
/// which may lag, the index the replica is known to hold) and no newer
/// than any write sent by the time the read returned.
pub fn check_read(
    seed: u64,
    ledger: &Ledger,
    id: u32,
    floor: u32,
    got: Option<&[u8]>,
) -> Result<(), String> {
    let sent_after = ledger.sent(id);
    let widx = match got {
        Some(v) => check_value(seed, id, v)?,
        None => 0,
    };
    if widx > sent_after {
        return Err(format!(
            "key {id}: read write {widx}, newer than any sent ({sent_after})"
        ));
    }
    if widx < floor {
        return Err(format!("key {id}: read write {widx}, older than {floor}"));
    }
    Ok(())
}

/// Counts occurrences of [`MARKER`] in `data`.
pub fn marker_hits(data: &[u8]) -> usize {
    data.windows(MARKER.len())
        .filter(|w| w[0] == MARKER[0] && *w == MARKER)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_detect_corruption() {
        let v = value(7, 42, 3);
        assert_eq!(check_value(7, 42, &v), Ok(3));
        assert!(check_value(7, 43, &v).is_err(), "wrong key");
        assert!(check_value(8, 42, &v).is_err(), "wrong seed");
        let mut bad = v;
        bad[90] ^= 1;
        assert!(check_value(7, 42, &bad).is_err(), "flipped bit");
        assert_eq!(marker_hits(&v), 1);
        assert_eq!(key_id(&key(1_999_999)), Some(1_999_999));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 1);
        let mut rng = Rng::new(1, 2);
        let mut counts = vec![0u32; 10_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        counts.sort_unstable();
        let top: u32 = counts.iter().rev().take(100).sum();
        assert!(top > 30_000, "top 1% of keys drew {top} of 100000");
    }
}
