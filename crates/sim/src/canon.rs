//! Canonical byte encoding and content hashing of simulation configs.
//!
//! The serving stack (`crates/serve`, via `retcon-lab`'s engine) keys its
//! content-addressed result store by a hash of everything a run's report
//! is a pure function of. That hash must be *stable* — the same logical
//! configuration must hash equal across processes, hosts and PRs — so it
//! cannot lean on `std`'s process-seeded `Hash`, struct layout, or
//! `Debug` formatting. Instead every config writes itself into a
//! [`Canon`] byte stream under explicit rules:
//!
//! * every field is written in declaration order, fixed-width
//!   little-endian for integers;
//! * strings are length-prefixed;
//! * `Option`s write a presence byte, then the value if present;
//! * encodings start with a versioned tag (`simconfig-v1`, …) so an
//!   accidental field addition changes the bytes loudly rather than
//!   silently colliding.
//!
//! The invariant the lab test suite pins: **two configurations with equal
//! canonical bytes produce byte-identical records** (they describe the
//! same pure function), and the content hash is a function of nothing but
//! those bytes.

use crate::config::SimConfig;
use retcon_isa::SplitMix64;

/// A canonical byte stream under construction.
///
/// Thin wrapper over `Vec<u8>` whose methods are the *only* sanctioned
/// ways to append, so every encoder follows the same field rules.
#[derive(Debug, Default, Clone)]
pub struct Canon {
    bytes: Vec<u8>,
}

impl Canon {
    /// An empty stream.
    pub fn new() -> Canon {
        Canon::default()
    }

    /// Appends a versioned tag (encoded like a string). Every encoder
    /// starts with one so different shapes can never alias.
    pub fn tag(&mut self, tag: &str) {
        self.str(tag);
    }

    /// Appends a `u64`, fixed-width little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `u32` widened to `u64` (fixed width keeps the stream
    /// self-describing without per-field headers).
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Appends a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.bytes.push(u8::from(v));
    }

    /// Appends an optional `u64`: a presence byte, then the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.bytes.push(1);
                self.u64(v);
            }
            None => self.bytes.push(0),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// The finished byte stream.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    /// The stream's current content hash (see [`content_hash128`]).
    pub fn content_hash(&self) -> u128 {
        content_hash128(&self.bytes)
    }
}

/// SplitMix64 finalizer: one workload-RNG step from state `z`, applied
/// once to diffuse a lane's final state.
fn splitmix(z: u64) -> u64 {
    SplitMix64::new(z).next_u64()
}

/// One Fx step (rotate, xor, multiply) — the seedless hash the hot-path
/// tables use (`retcon_isa::fx`), here run as a streaming lane.
fn fx_step(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Content hash of a canonical byte stream: two independently-seeded Fx
/// lanes over the 8-byte words, each closed over the total length and
/// finalized with a SplitMix64 mix. 128 bits so the content-addressed
/// store can treat equal hashes as equal configs (a collision would need
/// ~2^64 distinct configs; the proptest suite additionally pins that
/// hash equality coincides with byte equality on generated configs).
pub fn content_hash128(bytes: &[u8]) -> u128 {
    let mut a = splitmix(0x7265_7463_6f6e_0001); // "retcon"-derived lane seeds
    let mut b = splitmix(0x7265_7463_6f6e_0002);
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(buf);
        a = fx_step(a, word);
        b = fx_step(b, word ^ 0xA5A5_A5A5_A5A5_A5A5);
    }
    let len = bytes.len() as u64;
    a = splitmix(fx_step(a, len));
    b = splitmix(fx_step(b, len));
    (u128::from(a) << 64) | u128::from(b)
}

impl SimConfig {
    /// Writes the machine configuration into a canonical stream: every
    /// field of the config (core count, cache geometry, latencies, stall
    /// retry, cycle cap, schedule seed), tagged and in declaration order.
    ///
    /// This is the encoding surface the serving stack's run keys build
    /// on; see the module docs for the rules and the invariant.
    pub fn canonical_encode(&self, c: &mut Canon) {
        c.tag("simconfig-v1");
        c.usize(self.num_cores);
        c.usize(self.mem.l1.sets);
        c.usize(self.mem.l1.ways);
        c.usize(self.mem.l2.sets);
        c.usize(self.mem.l2.ways);
        c.u64(self.mem.latency.l1_hit);
        c.u64(self.mem.latency.l2_hit);
        c.u64(self.mem.latency.hop);
        c.u64(self.mem.latency.dram);
        c.u64(self.stall_retry);
        c.u64(self.max_cycles);
        c.opt_u64(self.schedule_seed);
    }

    /// The config's canonical bytes (a fresh stream, encoded).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut c = Canon::new();
        self.canonical_encode(&mut c);
        c.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_deterministic_and_field_sensitive() {
        let base = SimConfig::default();
        assert_eq!(
            base.canonical_bytes(),
            SimConfig::default().canonical_bytes()
        );

        let mut cores = base;
        cores.num_cores = 8;
        assert_ne!(base.canonical_bytes(), cores.canonical_bytes());

        let mut sched = base;
        sched.schedule_seed = Some(0);
        assert_ne!(base.canonical_bytes(), sched.canonical_bytes());
    }

    #[test]
    fn option_none_and_zero_do_not_alias() {
        // `schedule_seed: None` vs `Some(0)` must differ — the presence
        // byte guarantees it.
        let none = SimConfig::default();
        let zero = SimConfig {
            schedule_seed: Some(0),
            ..SimConfig::default()
        };
        assert_ne!(none.canonical_bytes(), zero.canonical_bytes());
        assert_ne!(
            content_hash128(&none.canonical_bytes()),
            content_hash128(&zero.canonical_bytes())
        );
    }

    #[test]
    fn hash_depends_on_length_and_content() {
        assert_ne!(content_hash128(b""), content_hash128(b"\0"));
        assert_ne!(content_hash128(b"\0"), content_hash128(b"\0\0"));
        assert_ne!(content_hash128(b"abcdefgh"), content_hash128(b"abcdefgi"));
        assert_eq!(content_hash128(b"abcdefgh"), content_hash128(b"abcdefgh"));
    }

    #[test]
    fn strings_are_length_prefixed() {
        // ("ab","c") and ("a","bc") must not alias.
        let mut x = Canon::new();
        x.str("ab");
        x.str("c");
        let mut y = Canon::new();
        y.str("a");
        y.str("bc");
        assert_ne!(x.finish(), y.finish());
    }
}
