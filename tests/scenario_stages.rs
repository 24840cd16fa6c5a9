//! The two stages of a scenario compose to the one-call build: scenarios
//! built under different hop configurations over one shared `World` each
//! equal `Scenario::build` of the matching full configuration — candidate
//! links (lengths bit for bit, tower paths included), pool stats, hop-sweep
//! tier counters and attachment report — on flat and on regional terrain.

use std::sync::Arc;

use cisp::core::hops::HopConfig;
use cisp::core::scenario::{Scenario, ScenarioConfig, TerrainKind, World};

/// A scenario's candidate links with their lengths as bits, so equality is
/// bit for bit.
fn link_bits(s: &Scenario) -> Vec<(usize, usize, u64, usize, Vec<usize>)> {
    let links = s.design_input().candidates.iter();
    links
        .map(|l| {
            let km = l.mw_length_km.to_bits();
            (l.site_a, l.site_b, km, l.tower_count, l.tower_path.clone())
        })
        .collect()
}

fn assert_same_pool(staged: &Scenario, built: &Scenario) {
    assert!(!built.design_input().candidates.is_empty());
    assert_eq!(link_bits(staged), link_bits(built));
    assert_eq!(staged.pool_stats(), built.pool_stats());
    assert_eq!(staged.hop_sweep_stats(), built.hop_sweep_stats());
    assert_eq!(staged.attachment_report(), built.attachment_report());
}

#[test]
fn scenarios_on_one_world_equal_their_one_call_builds() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Scenario>();

    for terrain in [TerrainKind::Flat, TerrainKind::Regional] {
        let mut config = ScenarioConfig::tiny_test();
        config.terrain = terrain;
        let world = Arc::new(World::build(&config));
        let mut pool_sizes = Vec::new();
        for hops in [
            HopConfig::paper_baseline(),
            HopConfig::restricted(70.0, 0.65),
        ] {
            let staged = Scenario::on_world(Arc::clone(&world), hops);
            assert!(Arc::ptr_eq(staged.world(), &world));
            let built = Scenario::build(&ScenarioConfig {
                hops,
                ..config.clone()
            });
            assert_same_pool(&staged, &built);
            pool_sizes.push(built.design_input().candidates.len());
        }
        // The two configurations must give different pools, or the test
        // could not tell them apart.
        assert_ne!(pool_sizes[0], pool_sizes[1], "{terrain:?}");
    }
}
