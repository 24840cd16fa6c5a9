//! Deterministic seed derivation.
//!
//! Every synthetic dataset (towers, fiber, storms, traffic perturbations) is
//! generated from a single experiment seed. To keep the datasets independent
//! of each other — so that, say, changing the tower count does not silently
//! reshuffle the weather — each consumer derives its own stream seed with
//! `derive_seed` using a domain label.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finaliser, used to mix the domain label into the master seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a domain label (e.g. `"towers"`, `"fiber"`, `"storms"`) to a 64-bit
/// value using FNV-1a; stable across platforms and compiler versions.
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derive a stream seed from a master seed and a domain label.
pub(crate) fn derive_seed(master_seed: u64, label: &str) -> u64 {
    splitmix64(master_seed ^ hash_label(label))
}

/// Construct a seeded [`StdRng`] for a domain.
pub fn seeded_rng(master_seed: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master_seed, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, "towers"), derive_seed(42, "towers"));
    }

    #[test]
    fn different_labels_give_different_streams() {
        assert_ne!(derive_seed(42, "towers"), derive_seed(42, "fiber"));
        assert_ne!(derive_seed(42, "towers"), derive_seed(43, "towers"));
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = seeded_rng(7, "storms");
        let mut b = seeded_rng(7, "storms");
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn rng_streams_differ_across_labels() {
        let mut a = seeded_rng(7, "storms");
        let mut b = seeded_rng(7, "traffic");
        let same = (0..10).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same == 0, "streams should not collide");
    }
}
