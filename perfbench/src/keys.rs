//! Generated keys and values, the op stream, and the in-process oracle.
//!
//! The engine only ever sees what this module generates: `user{:010}`
//! keys and 100-byte values that spell out their own key id and version.
//! The oracle tracks, per key, the newest version handed to a writer and
//! the newest version a writer saw acknowledged, so a read racing a write
//! (the two-client wire workload) is checked against the versions it may
//! legally observe.

use std::sync::atomic::{AtomicU32, Ordering};

use pm_blade::ScanRequest;
use sim::{KeyDistribution, Pcg64};

/// Value payload size in bytes.
pub const VALUE_BYTES: usize = 100;
/// Rows asked for by every forward and reverse scan.
pub const SCAN_LIMIT: usize = 50;
/// Key bytes: `user` plus ten digits.
pub const KEY_BYTES: usize = 14;

pub fn key(id: u64) -> Vec<u8> {
    format!("user{id:010}").into_bytes()
}

/// The value stored for version `version` of key `id`: a readable
/// `id:version:` header followed by filler derived from both, so a value
/// from the wrong key or the wrong version never compares equal.
pub fn value(id: u64, version: u32) -> Vec<u8> {
    let mut v = format!("{id:010}:{version:010}:").into_bytes();
    let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(version);
    while v.len() < VALUE_BYTES {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        v.push(b'a' + (x >> 60) as u8);
    }
    v
}

/// The version a value claims to be, if it is well formed.
fn version_of(value: &[u8]) -> Option<u32> {
    std::str::from_utf8(value.get(11..21)?).ok()?.parse().ok()
}

/// Per-key version bookkeeping shared by every client of one engine.
///
/// Each key has exactly one writer (the wire workload splits the key
/// space by parity), so `issued` and `acked` only ever grow.
pub struct Oracle {
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
}

impl Oracle {
    pub fn new(keys: u64) -> Self {
        let fresh = || (0..keys).map(|_| AtomicU32::new(0)).collect();
        Oracle {
            issued: fresh(),
            acked: fresh(),
        }
    }

    /// Allocate the next version of `id` for a put about to be sent.
    pub fn begin_put(&self, id: u64) -> u32 {
        let slot = &self.issued[id as usize];
        let version = slot.load(Ordering::SeqCst) + 1;
        slot.store(version, Ordering::SeqCst);
        version
    }

    /// Record that the put of `version` was acknowledged.
    pub fn ack_put(&self, id: u64, version: u32) {
        self.acked[id as usize].store(version, Ordering::SeqCst);
    }

    pub fn acked(&self, id: u64) -> u32 {
        self.acked[id as usize].load(Ordering::SeqCst)
    }

    pub fn issued(&self, id: u64) -> u32 {
        self.issued[id as usize].load(Ordering::SeqCst)
    }

    /// Check the answer `got` for key `id`, given that version `lo` was
    /// acknowledged before the read was sent: it must be a version in
    /// `lo..=issued`, read when the answer arrived, or absent if `lo` is 0.
    pub fn check(&self, id: u64, got: Option<&[u8]>, lo: u32) -> Result<(), String> {
        let hi = self.issued(id);
        let ok = match got {
            None => lo == 0,
            Some(v) => {
                version_of(v).is_some_and(|ver| lo <= ver && ver <= hi && v == value(id, ver))
            }
        };
        if ok {
            return Ok(());
        }
        let seen = match got {
            None => "no value".to_string(),
            Some(v) => match version_of(v) {
                Some(ver) if v == value(id, ver) => format!("version {ver}"),
                _ => "a malformed value".to_string(),
            },
        };
        Err(format!(
            "key {id}: got {seen}, expected a version in {lo}..={hi}"
        ))
    }

    /// Bytes of live user data: every key that has an acknowledged value.
    pub fn live_bytes(&self) -> u64 {
        let live = self
            .acked
            .iter()
            .filter(|a| a.load(Ordering::SeqCst) > 0)
            .count() as u64;
        live * (KEY_BYTES + VALUE_BYTES) as u64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
    Scan,
    RScan,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [OpKind::Get, OpKind::Put, OpKind::Scan, OpKind::RScan];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Scan => "scan",
            OpKind::RScan => "rscan",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Percentage shares of each op kind, indexed like [`OpKind::ALL`].
pub type Mix = [u32; 4];

/// The key ids a forward scan from `id` must return, in order: every
/// key of the domain is preloaded and none is ever deleted.
pub fn scan_ids(kind: OpKind, id: u64, keys: u64) -> Vec<u64> {
    let n = SCAN_LIMIT as u64;
    match kind {
        OpKind::Scan => (id..(id + n).min(keys)).collect(),
        OpKind::RScan => (id.saturating_sub(n - 1)..=id).rev().collect(),
        OpKind::Get | OpKind::Put => vec![id],
    }
}

/// The engine request for a scan op: forward scans start at the key,
/// reverse scans return the `SCAN_LIMIT` largest keys at or below it.
pub fn scan_request(kind: OpKind, id: u64) -> ScanRequest {
    match kind {
        OpKind::RScan => ScanRequest::new()
            .end(key(id + 1))
            .limit(SCAN_LIMIT)
            .reverse(true),
        _ => ScanRequest::new().start(key(id)).limit(SCAN_LIMIT),
    }
}

/// A seeded, endless stream of `(kind, key id)` ops.
pub struct OpGen {
    rng: Pcg64,
    dist: KeyDistribution,
    keys: u64,
    mix: Mix,
    /// `Some((c, n))`: this client writes only keys with `id % n == c`.
    writes: Option<(u64, u64)>,
}

impl OpGen {
    pub fn new(seed: u64, stream: u64, keys: u64, skew: f64, mix: Mix) -> Self {
        assert_eq!(mix.iter().sum::<u32>(), 100, "mix shares must sum to 100");
        OpGen {
            rng: Pcg64::new(seed, stream),
            dist: KeyDistribution::zipfian(keys, skew),
            keys,
            mix,
            writes: None,
        }
    }

    /// Restrict this generator's puts to the keys owned by client `c`
    /// of `n`, so every key keeps a single writer.
    pub fn owning(mut self, c: u64, n: u64) -> Self {
        self.writes = Some((c, n));
        self
    }

    pub fn next_op(&mut self) -> (OpKind, u64) {
        let roll = self.rng.next_below(100) as u32;
        let mut acc = 0;
        let mut kind = OpKind::Get;
        for k in OpKind::ALL {
            acc += self.mix[k.index()];
            if roll < acc {
                kind = k;
                break;
            }
        }
        let mut id = self.dist.sample(&mut self.rng, self.keys);
        if let (OpKind::Put, Some((c, n))) = (kind, self.writes) {
            id = id - id % n + c;
            if id >= self.keys {
                id -= n;
            }
        }
        (kind, id)
    }
}

/// Key ids `0..keys` in a seeded random order (the preload order).
pub fn shuffled_ids(seed: u64, keys: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..keys).collect();
    Pcg64::new(seed, 0x70_72_65_6c).shuffle(&mut ids);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_key_and_version() {
        let v = value(42, 7);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(version_of(&v), Some(7));
        let o = Oracle::new(100);
        let ver = o.begin_put(42);
        o.ack_put(42, ver);
        assert!(o.check(42, Some(&value(42, 1)), 1).is_ok());
        assert!(o.check(42, Some(&value(41, 1)), 1).is_err());
        assert!(o.check(42, None, 1).is_err());
        assert_eq!(
            o.check(42, Some(&value(42, 2)), 1),
            Err("key 42: got version 2, expected a version in 1..=1".into())
        );
        assert!(o.check(43, None, 0).is_ok());
    }

    #[test]
    fn owned_puts_stay_in_range_and_parity() {
        for c in 0..2 {
            let mut g = OpGen::new(1, 2, 101, 0.99, [0, 100, 0, 0]).owning(c, 2);
            for _ in 0..1000 {
                let (_, id) = g.next_op();
                assert!(id < 101 && id % 2 == c);
            }
        }
    }

    #[test]
    fn scans_expect_contiguous_ids() {
        assert_eq!(scan_ids(OpKind::Scan, 98, 100), vec![98, 99]);
        assert_eq!(scan_ids(OpKind::RScan, 2, 100), vec![2, 1, 0]);
        assert_eq!(scan_ids(OpKind::RScan, 60, 100).len(), SCAN_LIMIT);
    }
}
