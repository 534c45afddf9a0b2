//! Content-hash properties for the serving stack's run keys, plus a
//! golden hash snapshot.
//!
//! The contract [`RunKey::content_hash`] must uphold for the
//! content-addressed result store to be sound:
//!
//! 1. the hash is a pure function of [`RunKey::canonical_bytes`] —
//!    byte-equal keys hash equal, byte-distinct keys hash distinct (a
//!    collision among the small structured key space would be a bug, not
//!    bad luck);
//! 2. **hash equality implies record byte-equality**: any two keys the
//!    store would alias must produce byte-identical [`RunRecord`]s. The
//!    interesting aliases are intentional — `System::Retcon` with an
//!    explicit-but-default config normalizes onto the plain `Retcon`
//!    key — and the property exercises them alongside arbitrary pairs.
//!
//! The golden snapshot pins the seed-42 hashes as hex constants so the
//! canonical encoding cannot drift silently: a changed constant means
//! every spilled store on disk is invalidated, which must be a reviewed
//! decision, not an accident.

use proptest::prelude::*;

use retcon::RetconConfig;
use retcon_lab::engine::{record_for, simulate};
use retcon_lab::runner::{execute, Job};
use retcon_lab::{RunKey, SEED};
use retcon_sim::SimConfig;
use retcon_workloads::{System, Workload};

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Counter),
        Just(Workload::Genome { resizable: false }),
        Just(Workload::Genome { resizable: true }),
        Just(Workload::Kmeans),
        Just(Workload::Ssca2),
    ]
}

fn system_strategy() -> impl Strategy<Value = System> {
    prop_oneof![
        Just(System::Eager),
        Just(System::EagerAbort),
        Just(System::Lazy),
        Just(System::Retcon),
        Just(System::RetconIdeal),
    ]
}

fn cfg_strategy() -> impl Strategy<Value = Option<RetconConfig>> {
    prop_oneof![
        Just(None),
        Just(Some(RetconConfig::default())),
        (1usize..64, 1usize..64, any::<bool>()).prop_map(|(ivb, ssb, unlimited)| {
            Some(RetconConfig {
                ivb_capacity: ivb,
                ssb_capacity: ssb,
                unlimited_state: unlimited,
                ..RetconConfig::default()
            })
        }),
    ]
}

fn key_strategy() -> impl Strategy<Value = RunKey> {
    (
        workload_strategy(),
        system_strategy(),
        cfg_strategy(),
        1usize..8,
        0u64..64,
    )
        .prop_map(|(workload, system, cfg, cores, seed)| RunKey {
            workload,
            system,
            cfg,
            cores,
            seed,
        })
}

/// A pair of keys biased toward the interesting relations: identical,
/// default-config alias, or independent.
fn key_pair_strategy() -> impl Strategy<Value = (RunKey, RunKey)> {
    (key_strategy(), key_strategy(), 0u8..4).prop_map(|(a, b, relation)| match relation {
        // Identical pair.
        0 => (a.clone(), a),
        // The intentional alias: plain Retcon vs explicit default config.
        1 => {
            let plain = RunKey {
                system: System::Retcon,
                cfg: None,
                ..a
            };
            let explicit = RunKey {
                cfg: Some(RetconConfig::default()),
                ..plain.clone()
            };
            (plain, explicit)
        }
        // Single-field perturbation (seed differs).
        2 => {
            let b = RunKey {
                seed: a.seed.wrapping_add(1),
                ..a.clone()
            };
            (a, b)
        }
        // Independent keys.
        _ => (a, b),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hash equality ⇔ canonical-byte equality over the structured key
    /// space. (⇒ would be violated by a collision; ⇐ by a hash reading
    /// state outside the canonical bytes.)
    #[test]
    fn hash_equality_iff_byte_equality((a, b) in key_pair_strategy()) {
        let bytes_equal = a.canonical_bytes() == b.canonical_bytes();
        let hash_equal = a.content_hash() == b.content_hash();
        prop_assert_eq!(
            bytes_equal, hash_equal,
            "bytes_equal={} hash_equal={} for {:?} vs {:?}", bytes_equal, hash_equal, a, b
        );
    }

    /// The hash is stable under re-encoding (no hidden per-call state).
    #[test]
    fn hash_is_deterministic(key in key_strategy()) {
        prop_assert_eq!(key.content_hash(), key.content_hash());
        prop_assert_eq!(key.canonical_bytes(), key.canonical_bytes());
    }
}

proptest! {
    // Simulation-backed property: expensive, so fewer cases over a
    // cheap corner of the space (counter at low core counts).
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hash equality ⇒ record byte-equality: any pair the store would
    /// alias produces byte-identical records. The `relation == 1` arm of
    /// the pair strategy makes genuinely-distinct aliased keys (plain vs
    /// explicit-default config) a common case rather than a fluke.
    #[test]
    fn equal_hashes_mean_byte_equal_records(
        (a, b) in key_pair_strategy(),
        cores in 1usize..3,
        seed in 0u64..4,
    ) {
        // Clamp to a cheap simulation while keeping the pair's relation.
        let a = RunKey { workload: Workload::Counter, cores, seed, ..a };
        let b = RunKey { workload: Workload::Counter, cores, seed, ..b };
        if a.content_hash() == b.content_hash() {
            let ra = record_for(&a, simulate(&a).unwrap());
            let rb = record_for(&b, simulate(&b).unwrap());
            prop_assert_eq!(
                ra.to_json().to_string(),
                rb.to_json().to_string(),
                "aliased keys produced different records: {:?} vs {:?}", a, b
            );
        }
    }
}

/// The default-config alias past the single-word `CoreSet` class: the
/// two keys hash equal, so both must run (the explicit-config form used
/// to panic in the 64-core machine) and serialize to the same bytes.
#[test]
fn default_cfg_alias_holds_past_64_cores() {
    let plain = Job::new(Workload::ScalingXl, System::Retcon, 128, SEED);
    let explicit = Job::with_cfg(
        Workload::ScalingXl,
        128,
        SEED,
        RetconConfig::default(),
        vec![],
    );
    assert_eq!(plain.key().content_hash(), explicit.key().content_hash());
    let plain = execute(&plain).expect("plain 128-core run");
    let explicit = execute(&explicit).expect("explicit-config 128-core run");
    assert_eq!(
        plain.to_json().to_string(),
        explicit.to_json().to_string(),
        "aliased 128-core keys produced different records"
    );
}

/// Golden hash snapshot: the canonical seed-42 keys, pinned as hex.
///
/// If this fails because the canonical encoding *intentionally* changed,
/// bump the version tag in the encoder (`runkey-v1` → `runkey-v2` or
/// `simconfig-v1` → `simconfig-v2`), update these constants from the
/// assertion output, and note in DESIGN.md that spilled stores are
/// invalidated.
#[test]
fn golden_seed42_hashes() {
    let cases: [(&str, RunKey, u128); 4] = [
        (
            "counter/eager/32",
            RunKey::new(Workload::Counter, System::Eager, 32, SEED),
            0xecfccb81aa67eda2a4417ee501367911,
        ),
        (
            "counter/RetCon/32",
            RunKey::new(Workload::Counter, System::Retcon, 32, SEED),
            0x4b2b7a90e962679d7d41e22b012406f7,
        ),
        (
            "counter/RetCon/32 explicit default cfg (aliases plain)",
            RunKey {
                cfg: Some(RetconConfig::default()),
                ..RunKey::new(Workload::Counter, System::Retcon, 32, SEED)
            },
            0x4b2b7a90e962679d7d41e22b012406f7,
        ),
        (
            "genome/lazy/8",
            RunKey::new(Workload::Genome { resizable: false }, System::Lazy, 8, SEED),
            0x501db6fc6aa4bbae1f474d95395857c0,
        ),
    ];
    for (label, key, expected) in cases {
        assert_eq!(
            key.content_hash(),
            expected,
            "golden hash drifted for {label}: got {:#034x}",
            key.content_hash()
        );
    }

    // The machine-config encoding underneath is pinned too.
    let mut c = retcon_sim::Canon::new();
    SimConfig::default().canonical_encode(&mut c);
    assert_eq!(
        c.content_hash(),
        0xe040606398a549cd446f167c99c69179,
        "default SimConfig canonical hash drifted: got {:#034x}",
        {
            let mut c = retcon_sim::Canon::new();
            SimConfig::default().canonical_encode(&mut c);
            c.content_hash()
        }
    );
}
