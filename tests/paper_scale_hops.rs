//! The hop sweep at paper scale, pinned to committed numbers.
//!
//! `hop_envelope` proves the cascaded sweep equal to an exact-only sweep on
//! regional registries of a couple of thousand towers. This case pins the
//! sweep at the benchmark's `pool_build_us` input — `us_paper(42)` on
//! regional terrain with 15 000 raw towers, ≈ 10 k towers after culling —
//! to the hop count, a digest of the hop list and every tier count of its
//! [`HopSweepStats`]: a change to the sweep's arithmetic that moves one hop
//! length bit or decides one sample at another tier fails here. The
//! committed values are the sweep's output before its trigonometry and
//! lattice hashes were hoisted (computed once per tower, per point and per
//! corner), which moved none of them.
//!
//! A paper-scale sweep (≈ 2 s in release, minutes in debug), so it is
//! ignored by default; CI runs it with
//! `cargo test --release --test paper_scale_hops -- --ignored`.

use cisp::core::hops::{FeasibleHop, HopFeasibility, HopSweepStats};
use cisp::core::scenario::{ScenarioConfig, TerrainKind};
use cisp::data::cities::us_population_centers;
use cisp::data::towers::TowerRegistry;
use cisp::terrain::{clutter::ClutterModel, TerrainModel};

/// FNV-1a over each hop's `(tower_a, tower_b, length_km bits)`, as
/// little-endian `u64`s, in list order.
fn hop_digest(hops: &[FeasibleHop]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for hop in hops {
        let words = [
            hop.tower_a as u64,
            hop.tower_b as u64,
            hop.length_km.to_bits(),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
#[ignore = "paper scale; run in release with -- --ignored"]
fn paper_scale_sweep_keeps_its_hops_and_counts() {
    let mut config = ScenarioConfig::us_paper(42);
    assert_eq!(config.terrain, TerrainKind::Regional);
    config.towers.raw_count = 15_000;
    let towers = TowerRegistry::synthesize(
        config.seed,
        config.region.bounding_box(),
        &us_population_centers(),
        &config.towers,
    );
    let terrain = TerrainModel::united_states(config.seed);
    let clutter = ClutterModel::with_seed(config.seed);
    let (hops, stats) =
        HopFeasibility::new(&towers, &terrain, &clutter, config.hops).all_feasible_hops_profiled(0);

    let expected = HopSweepStats {
        samples: 16_301_722,
        by_global_bound: 0,
        by_cell_bound: 10_711_792,
        by_fine_bound: 4_467_660,
        elevation_only: 715_709,
        exact: 406_561,
        cells_filled: 71_956,
        fine_cells_filled: 263_897,
        exact_locates: 0,
    };
    assert_eq!(towers.len(), 10_543);
    assert_eq!(hops.len(), 315_334);
    assert_eq!(hop_digest(&hops), 0x42c3_3c20_25ac_54e3);
    assert_eq!(stats, expected);
}
