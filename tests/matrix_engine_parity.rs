//! Parity properties for the flat distance-matrix engine and the
//! incremental delta-scoring design engine.
//!
//! The designer's hot kernels run on the flat row-major `DistMatrix`, with
//! candidate scoring maintained incrementally by scoring shards.
//! These properties pin every layer of that stack to deliberately naive
//! references on random small topologies:
//!
//! * `improve_with_link` produces exactly the nested-`Vec` reference's
//!   matrix, and the delta-tracking variant is bit-identical to it while
//!   reporting exactly the pairs that changed;
//! * `mean_stretch` / `mean_stretch_with` match reference recomputation;
//! * the greedy designer (incremental delta-scoring, one shard per core)
//!   selects exactly the designs of a naive full-rescoring nested-`Vec`
//!   greedy — on short and long runs, degenerate pools, exact ties, real
//!   `Scenario::build` pools and fiber that leaves a traffic-free pair
//!   unreachable (a traffic-carrying one is rejected);
//! * `cisp()`'s swap polish (leave-one-out matrices, trials decided by a
//!   lower bound) applies exactly the swaps of a naive nested-`Vec` polish
//!   that rebuilds per removed link and scores every feasible trial;
//! * `cisp()`'s phase 2, which resumes after the pruned pool's longest
//!   prefix within budget, selects what the cold greedy over the pool
//!   selects — at paper scale too, in an ignored case CI runs in release;
//! * the greedy's pair-major repair screens candidates with the geodesic
//!   floor only when the input verifies it: a candidate or a fiber entry
//!   shorter than the geodesic disarms it, and the design is still the
//!   naive oracles';
//! * `cisp()` at the benchmark's paper-scale input selects exactly a
//!   committed design (indices, towers, stretch and build-out bits), so a
//!   bug shared by every engine path cannot pass.

// The nested-Vec reference implementations are deliberately naive index
// loops — that is the point of a reference.
#![allow(clippy::needless_range_loop)]

use cisp::core::design::{DesignConfig, DesignInput, Designer, PRUNING_BUDGET_FACTOR};
use cisp::core::links::CandidateLink;
use cisp::core::scenario::{Scenario, ScenarioConfig, TerrainKind};
use cisp::core::topology::{
    improve_with_link, improve_with_link_tracked, mean_stretch_with_link,
    mean_stretch_with_link_compact, HybridTopology, ScoringWeights,
};
use cisp::geo::{geodesic, GeoPoint};
use cisp::graph::DistMatrix;
use cisp::graph::ImprovedPairs;
use proptest::prelude::*;
use std::sync::OnceLock;

/// SplitMix64, used to derive deterministic pseudo-random fixtures from a
/// proptest-drawn seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z
}

/// Uniform f64 in [0, 1) from a seed/stream pair.
fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed ^ mix(stream)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A random small design input: `n` scattered US sites, fiber at a random
/// 1.6–2.4× geodesic factor, random positive traffic, and a candidate MW
/// link for every pair at a random 1.01–1.40× geodesic length.
fn random_input(n: usize, seed: u64) -> DesignInput {
    let sites: Vec<GeoPoint> = (0..n)
        .map(|k| {
            GeoPoint::new(
                30.0 + 15.0 * unit(seed, 2 * k as u64),
                -120.0 + 45.0 * unit(seed, 2 * k as u64 + 1),
            )
        })
        .collect();
    let fiber_factor = 1.6 + 0.8 * unit(seed, 1000);
    let fiber_km = DistMatrix::from_fn(n, |i, j| {
        geodesic::distance_km(sites[i], sites[j]) * fiber_factor
    });
    let traffic = DistMatrix::from_fn(n, |i, j| {
        if i == j {
            0.0
        } else {
            // Symmetric pseudo-random weights in (0, 1].
            let (a, b) = (i.min(j) as u64, i.max(j) as u64);
            0.05 + 0.95 * unit(seed, 2000 + a * 97 + b)
        }
    });
    let mut candidates = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let geo = geodesic::distance_km(sites[i], sites[j]);
            let factor = 1.01 + 0.39 * unit(seed, 3000 + (i * 31 + j) as u64);
            let towers = ((geo / 60.0).ceil() as usize).max(1);
            candidates.push(CandidateLink {
                site_a: i,
                site_b: j,
                mw_length_km: geo * factor,
                tower_count: towers,
                tower_path: (0..towers).collect(),
            });
        }
    }
    DesignInput {
        sites,
        traffic,
        fiber_km,
        candidates,
    }
}

/// Reference: the seed's nested-`Vec` one-edge improvement, verbatim.
fn improve_with_link_nested(matrix: &mut [Vec<f64>], i: usize, j: usize, length: f64) {
    let n = matrix.len();
    for s in 0..n {
        let d_si = matrix[s][i];
        let d_sj = matrix[s][j];
        for t in 0..n {
            let via_ij = d_si + length + matrix[j][t];
            let via_ji = d_sj + length + matrix[i][t];
            let best = via_ij.min(via_ji);
            if best < matrix[s][t] {
                matrix[s][t] = best;
            }
        }
    }
}

/// Reference: traffic-weighted mean stretch over nested matrices.
fn mean_stretch_nested(
    effective: &[Vec<f64>],
    geodesic_km: &[Vec<f64>],
    traffic: &[Vec<f64>],
) -> f64 {
    let n = effective.len();
    let mut num = 0.0;
    let mut den = 0.0;
    for s in 0..n {
        for t in (s + 1)..n {
            let h = traffic[s][t];
            let geo = geodesic_km[s][t];
            if h > 0.0 && geo > 0.0 && effective[s][t].is_finite() {
                num += h * (effective[s][t] / geo);
                den += h;
            }
        }
    }
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

/// Reference: a naive greedy that fully re-scores every affordable candidate
/// against nested-`Vec` matrices each iteration and picks the best gain
/// (ties broken by lowest candidate index), matching the engine's selection
/// rule without any of its data structures or laziness.
fn naive_greedy(input: &DesignInput, budget: usize) -> Vec<usize> {
    let n = input.sites.len();
    let geodesic_km: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| geodesic::distance_km(input.sites[i], input.sites[j]))
                .collect()
        })
        .collect();
    let traffic = input.traffic.to_nested();
    let mut effective = input.fiber_km.to_nested();
    let mut remaining: Vec<usize> = (0..input.candidates.len())
        .filter(|&idx| {
            let l = &input.candidates[idx];
            l.mw_length_km < input.fiber_km.get(l.site_a, l.site_b)
        })
        .collect();
    let mut selected = Vec::new();
    let mut spent = 0usize;
    let min_gain = 1e-9;

    loop {
        let current = mean_stretch_nested(&effective, &geodesic_km, &traffic);
        let mut best: Option<(f64, usize)> = None;
        for &idx in &remaining {
            let l = &input.candidates[idx];
            if spent + l.tower_count > budget {
                continue;
            }
            let mut trial = effective.clone();
            improve_with_link_nested(&mut trial, l.site_a, l.site_b, l.mw_length_km);
            let gain = current - mean_stretch_nested(&trial, &geodesic_km, &traffic);
            if gain > min_gain && best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, idx));
            }
        }
        match best {
            Some((_, idx)) => {
                let l = &input.candidates[idx];
                improve_with_link_nested(&mut effective, l.site_a, l.site_b, l.mw_length_km);
                spent += l.tower_count;
                selected.push(idx);
                remaining.retain(|&i| i != idx);
            }
            None => break,
        }
    }
    selected
}

/// Reference: the swap polish with none of the engine's machinery. Per pass
/// and per selected link `out` (in `selected` order), rebuild the nested
/// matrix of the other links from fiber, then score *every* budget-feasible
/// unselected pool link (in pool order) by materialising the trial matrix;
/// a trial becomes the incumbent when it beats it by more than 1e-12, and the
/// pass's incumbent is applied as "remove `out`, append `in`". Returns the
/// final mean stretch.
fn naive_swap_polish(
    input: &DesignInput,
    pool: &[usize],
    selected: &mut Vec<usize>,
    budget: usize,
    passes: usize,
) -> f64 {
    let n = input.sites.len();
    let geodesic_km: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| geodesic::distance_km(input.sites[i], input.sites[j]))
                .collect()
        })
        .collect();
    let traffic = input.traffic.to_nested();
    let build = |links: &[usize], skip: Option<usize>| {
        let mut m = input.fiber_km.to_nested();
        for &idx in links {
            if Some(idx) != skip {
                let l = &input.candidates[idx];
                improve_with_link_nested(&mut m, l.site_a, l.site_b, l.mw_length_km);
            }
        }
        m
    };
    let stretch_of = |m: &[Vec<f64>]| mean_stretch_nested(m, &geodesic_km, &traffic);
    let cost = |idx: usize| input.candidates[idx].tower_count;

    let mut current = stretch_of(&build(selected, None));
    for _ in 0..passes {
        let total: usize = selected.iter().map(|&i| cost(i)).sum();
        let mut best: Option<(usize, usize)> = None;
        let mut best_stretch = current;
        for &out_idx in selected.iter() {
            let without = build(selected, Some(out_idx));
            for &in_idx in pool {
                if selected.contains(&in_idx) || total - cost(out_idx) + cost(in_idx) > budget {
                    continue;
                }
                let l = &input.candidates[in_idx];
                let mut trial = without.clone();
                improve_with_link_nested(&mut trial, l.site_a, l.site_b, l.mw_length_km);
                let stretch = stretch_of(&trial);
                if stretch + 1e-12 < best_stretch {
                    best_stretch = stretch;
                    best = Some((out_idx, in_idx));
                }
            }
        }
        let Some((out_idx, in_idx)) = best else { break };
        selected.retain(|&i| i != out_idx);
        selected.push(in_idx);
        current = stretch_of(&build(selected, None));
    }
    current
}

/// `cisp()`'s phases 1 and 2 built cold from the public greedy: the
/// 2×-budget pool, then a greedy from fiber over an input restricted to the
/// pool, in pool order. Returns the pool and phase 2's selection.
fn cold_phases(
    input: &DesignInput,
    budget: usize,
    config: DesignConfig,
) -> (Vec<usize>, Vec<usize>) {
    let pool = Designer::with_config(input, config)
        .greedy(budget as f64 * PRUNING_BUDGET_FACTOR)
        .selected;
    let restricted = DesignInput {
        candidates: pool.iter().map(|&i| input.candidates[i].clone()).collect(),
        ..input.clone()
    };
    let greedy: Vec<usize> = Designer::with_config(&restricted, config)
        .greedy(budget as f64)
        .selected
        .iter()
        .map(|&k| pool[k])
        .collect();
    (pool, greedy)
}

/// `cisp()` against [`naive_swap_polish`]. Phases 1 and 2 are
/// [`cold_phases`]; the polish is the oracle's alone. Returns the number of
/// swaps the oracle applied.
fn assert_cisp_matches_naive_polish(
    input: &DesignInput,
    budget: usize,
    config: DesignConfig,
) -> usize {
    let (pool, greedy) = cold_phases(input, budget, config);
    let mut want = greedy.clone();
    let want_stretch = naive_swap_polish(input, &pool, &mut want, budget, config.max_swap_passes);

    let got = Designer::with_config(input, config).cisp(budget as f64);
    assert_eq!(got.selected, want, "config {config:?}");
    let want_towers: usize = want.iter().map(|&i| input.candidates[i].tower_count).sum();
    assert_eq!(got.total_towers, want_towers);
    assert!(
        (got.mean_stretch - want_stretch).abs() < 1e-12,
        "cisp {} vs oracle {want_stretch}",
        got.mean_stretch
    );
    // A swap removes one greedy pick and appends its replacement.
    want.iter().filter(|i| !greedy.contains(i)).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn improve_with_link_matches_nested_reference(
        n in 3usize..8,
        seed in 0u64..10_000,
        pick in 0usize..1_000,
    ) {
        let input = random_input(n, seed);
        let link = &input.candidates[pick % input.candidates.len()];
        let mut flat = input.fiber_km.clone();
        let mut nested = input.fiber_km.to_nested();
        improve_with_link(&mut flat, link.site_a, link.site_b, link.mw_length_km);
        improve_with_link_nested(&mut nested, link.site_a, link.site_b, link.mw_length_km);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(flat.get(i, j), nested[i][j]);
            }
        }
    }

    #[test]
    fn mean_stretch_with_matches_nested_reference(
        n in 3usize..8,
        seed in 0u64..10_000,
        pick in 0usize..1_000,
    ) {
        let input = random_input(n, seed);
        let link = input.candidates[pick % input.candidates.len()].clone();
        let topology = input.empty_topology();

        // Engine: allocation-free one-link scoring kernel.
        let predicted = topology.mean_stretch_with(&link);

        // Reference: materialise the updated nested matrix and recompute.
        let geodesic_km: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| geodesic::distance_km(input.sites[i], input.sites[j])).collect())
            .collect();
        let mut nested = input.fiber_km.to_nested();
        improve_with_link_nested(&mut nested, link.site_a, link.site_b, link.mw_length_km);
        let reference = mean_stretch_nested(&nested, &geodesic_km, &input.traffic.to_nested());

        prop_assert!(
            (predicted - reference).abs() < 1e-12,
            "kernel {predicted} vs reference {reference}"
        );
    }

    #[test]
    fn mean_stretch_matches_nested_reference_after_additions(
        n in 3usize..8,
        seed in 0u64..10_000,
        picks in (0usize..1_000, 0usize..1_000, 0usize..1_000),
    ) {
        let input = random_input(n, seed);
        let mut topology = input.empty_topology();
        let mut nested = input.fiber_km.to_nested();
        let geodesic_km: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| geodesic::distance_km(input.sites[i], input.sites[j])).collect())
            .collect();
        for pick in [picks.0, picks.1, picks.2] {
            let link = input.candidates[pick % input.candidates.len()].clone();
            improve_with_link_nested(&mut nested, link.site_a, link.site_b, link.mw_length_km);
            topology.add_mw_link(link);
        }
        let reference = mean_stretch_nested(&nested, &geodesic_km, &input.traffic.to_nested());
        prop_assert!((topology.mean_stretch() - reference).abs() < 1e-12);
    }

    #[test]
    fn incremental_greedy_matches_full_rescore_and_naive_reference(
        n in 3usize..7,
        seed in 0u64..10_000,
    ) {
        let input = random_input(n, seed);
        let budget = 4 * n;
        let engine = Designer::new(&input).greedy(budget as f64);
        prop_assert_eq!(&engine.selected, &naive_greedy(&input, budget));
    }

    // Pools of 0 to 3 candidates: fewer than the scoring shards of any
    // multi-core machine.
    #[test]
    fn greedy_matches_naive_reference_on_degenerate_pools(
        n in 3usize..7,
        seed in 0u64..10_000,
        pool_len in 0usize..4,
    ) {
        let mut input = random_input(n, seed);
        input.candidates.truncate(pool_len);
        let engine = Designer::new(&input).greedy(1_000.0);
        prop_assert_eq!(&engine.selected, &naive_greedy(&input, 1_000));
    }

    #[test]
    fn cisp_swap_polish_matches_naive_rebuild_and_score_everything_oracle(
        n in 6usize..25,
        seed in 0u64..10_000,
        towers_per_site in 8usize..31,
        max_swap_passes in 1usize..4,
    ) {
        let input = random_input(n, seed);
        let config = DesignConfig { max_swap_passes };
        assert_cisp_matches_naive_polish(&input, n * towers_per_site, config);
    }

    #[test]
    fn compact_kernel_matches_scalar_and_nested_reference(
        n in 3usize..8,
        seed in 0u64..10_000,
        picks in (0usize..1_000, 0usize..1_000),
    ) {
        // Warm the topology with one accepted link so the effective matrix is
        // mid-greedy rather than pristine fiber, then score another candidate
        // with all three kernels: the compact blocked form, the scalar
        // branchy form, and the nested-Vec reference. The two engine kernels
        // accumulate in different orders (fixed-lane tree reduction vs
        // left-to-right), so parity is to summation ulps, not bits.
        let input = random_input(n, seed);
        let mut topology = input.empty_topology();
        let warm = input.candidates[picks.0 % input.candidates.len()].clone();
        topology.add_mw_link(warm);
        let link = input.candidates[picks.1 % input.candidates.len()].clone();

        let sw = ScoringWeights::compute(
            topology.effective_matrix(),
            topology.geodesic_matrix(),
            topology.traffic(),
        );

        let compact = mean_stretch_with_link_compact(
            topology.effective_matrix(),
            &sw,
            link.site_a,
            link.site_b,
            link.mw_length_km,
        );
        let scalar = mean_stretch_with_link(
            topology.effective_matrix(),
            topology.geodesic_matrix(),
            topology.traffic(),
            link.site_a,
            link.site_b,
            link.mw_length_km,
        );
        let geodesic_km: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| geodesic::distance_km(input.sites[i], input.sites[j])).collect())
            .collect();
        let mut nested = topology.effective_matrix().to_nested();
        improve_with_link_nested(&mut nested, link.site_a, link.site_b, link.mw_length_km);
        let reference = mean_stretch_nested(&nested, &geodesic_km, &input.traffic.to_nested());

        prop_assert!(
            (compact - scalar).abs() < 1e-12,
            "compact {compact} vs scalar {scalar}"
        );
        prop_assert!(
            (compact - reference).abs() < 1e-12,
            "compact {compact} vs reference {reference}"
        );
    }

    #[test]
    fn tracked_improve_is_bit_identical_and_reports_exact_delta(
        n in 3usize..8,
        seed in 0u64..10_000,
        picks in (0usize..1_000, 0usize..1_000),
    ) {
        let input = random_input(n, seed);
        let mut plain = input.fiber_km.clone();
        let mut tracked = input.fiber_km.clone();
        let mut delta = ImprovedPairs::new(n);
        for pick in [picks.0, picks.1] {
            let link = &input.candidates[pick % input.candidates.len()];
            let before = tracked.clone();
            improve_with_link(&mut plain, link.site_a, link.site_b, link.mw_length_km);
            improve_with_link_tracked(
                &mut tracked,
                link.site_a,
                link.site_b,
                link.mw_length_km,
                &mut delta,
            );
            // Same matrix, bit for bit.
            prop_assert_eq!(&plain, &tracked);
            // The delta is exactly the set of changed pairs, with the old
            // values.
            for (i, j) in cisp::graph::pair_indices(n) {
                let changed = tracked.get(i, j) != before.get(i, j);
                prop_assert_eq!(delta.contains_pair(i, j), changed);
                if changed {
                    let old = delta
                        .pairs()
                        .iter()
                        .find(|&&(a, b, _)| (a as usize, b as usize) == (i, j))
                        .map(|&(_, _, old)| old)
                        .unwrap();
                    prop_assert_eq!(old, before.get(i, j));
                }
            }
        }
    }

    #[test]
    fn effective_matrix_without_matches_nested_rebuild(
        n in 3usize..7,
        seed in 0u64..10_000,
        disable_mask in 0usize..64,
    ) {
        let input = random_input(n, seed);
        let mut topology = input.empty_topology();
        let take = input.candidates.len().min(5);
        for idx in 0..take {
            topology.add_mw_link(input.candidates[idx].clone());
        }
        let disabled: Vec<usize> = (0..take).filter(|k| disable_mask >> k & 1 == 1).collect();

        let engine = topology.effective_matrix_without(&disabled);

        let mut nested = input.fiber_km.to_nested();
        for (idx, l) in topology.mw_links().iter().enumerate() {
            if !disabled.contains(&idx) {
                improve_with_link_nested(&mut nested, l.site_a, l.site_b, l.mw_length_km);
            }
        }
        for i in 0..n {
            for j in 0..n {
                // Same links, same order, same sweep: bit for bit.
                let (got, want) = (engine.get(i, j), nested[i][j]);
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "pair ({}, {}): engine {} vs nested {}",
                    i,
                    j,
                    got,
                    want
                );
            }
        }
    }
}

proptest! {
    // The naive reference pays rounds × candidates × n² per case.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Long runs, where the cached predictions have been repaired dozens of
    // times before a pick: every candidate is affordable, so the greedy runs
    // until no link gains anything.
    #[test]
    fn incremental_greedy_matches_naive_reference_over_long_runs(
        n in 18usize..23,
        seed in 0u64..10_000,
    ) {
        let input = random_input(n, seed);
        let budget = 1_000_000;
        let reference = naive_greedy(&input, budget);
        prop_assert!(reference.len() >= 50, "only {} rounds", reference.len());
        let engine = Designer::new(&input).greedy(budget as f64);
        prop_assert_eq!(&engine.selected, &reference);
    }
}

/// `random_input` with the geodesic site screen's floor undercut at pair
/// `(i, j)`: `what` 0 shortens that candidate to half its geodesic, 1
/// shortens the fiber entry to 0.9 of it.
fn undercut_geodesic(n: usize, seed: u64, pick: usize, what: usize) -> DesignInput {
    let mut input = random_input(n, seed);
    let k = pick % input.candidates.len();
    let (i, j) = (input.candidates[k].site_a, input.candidates[k].site_b);
    let geo = geodesic::distance_km(input.sites[i], input.sites[j]);
    if what == 0 {
        input.candidates[k].mw_length_km = 0.5 * geo;
    } else {
        input.fiber_km.set_sym(i, j, 0.9 * geo);
    }
    input
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // A floor the input undercuts would screen out real corrections: the
    // designer must disarm it and still select the naive oracles' designs.
    #[test]
    fn an_undercut_geodesic_disarms_the_screen_and_designs_like_the_oracles(
        n in 6usize..14,
        seed in 0u64..10_000,
        pick in 0usize..1_000,
        what in 0usize..2,
    ) {
        prop_assert!(Designer::new(&random_input(n, seed)).geodesic_screen_armed());
        let input = undercut_geodesic(n, seed, pick, what);
        let designer = Designer::new(&input);
        prop_assert!(!designer.geodesic_screen_armed());
        let budget = 6 * n;
        prop_assert_eq!(&designer.greedy(budget as f64).selected, &naive_greedy(&input, budget));
        assert_cisp_matches_naive_polish(&input, n * 15, DesignConfig::default());
    }
}

/// Non-property sanity check: the naive reference and the engine agree on a
/// fixed, human-auditable instance.
#[test]
fn engine_and_reference_agree_on_fixed_instance() {
    let input = random_input(6, 424242);
    let engine = Designer::new(&input).greedy(20.0);
    let reference = naive_greedy(&input, 20);
    assert_eq!(engine.selected, reference);
    // Sanity: the design actually improves on fiber.
    let fiber_only = HybridTopology::new(
        input.sites.clone(),
        input.traffic.clone(),
        input.fiber_km.clone(),
    )
    .mean_stretch();
    assert!(engine.mean_stretch < fiber_only);
}

/// Exactly tied candidates: collinear sites, uniform traffic, and every
/// candidate listed twice. Both copies score bit-identically in every round
/// (same endpoints, same length, same arithmetic), so the tie-break alone
/// decides — the lowest pool position must win, and its twin, gaining
/// nothing afterwards, must never be picked.
#[test]
fn exactly_tied_candidates_resolve_to_the_lowest_pool_position() {
    let n = 9;
    // Uneven spacing: mirror-image candidates would tie only to summation
    // ulps, which the nested reference and the compact kernel round apart.
    let sites: Vec<GeoPoint> = (0..n)
        .map(|k| GeoPoint::new(0.0, -100.0 + 2.0 * k as f64 + 0.11 * (k * k) as f64))
        .collect();
    let fiber_km = DistMatrix::from_fn(n, |i, j| geodesic::distance_km(sites[i], sites[j]) * 2.0);
    let traffic = DistMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 });
    let mut candidates = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            // Longer links detour less, so the greedy has a real ranking to
            // maintain between the ties.
            let geo = geodesic::distance_km(sites[i], sites[j]);
            candidates.push(CandidateLink {
                site_a: i,
                site_b: j,
                mw_length_km: geo * (1.0 + 0.3 / (j - i) as f64),
                tower_count: j - i,
                tower_path: (0..j - i).collect(),
            });
        }
    }
    let distinct = candidates.len();
    candidates.extend(candidates.clone());
    let input = DesignInput {
        sites,
        traffic,
        fiber_km,
        candidates,
    };
    let engine = Designer::new(&input).greedy(40.0);
    assert!(engine.selected.len() >= 5, "fixture too short");
    assert!(
        engine.selected.iter().all(|&idx| idx < distinct),
        "a later twin won a tie: {:?}",
        engine.selected
    );
    assert_eq!(engine.selected, naive_greedy(&input, 40));
}

/// The greedy on pools `Scenario::build` produces — real tower paths, real
/// fiber, population-product traffic — against the naive reference.
#[test]
fn scenario_pools_design_like_the_naive_greedy() {
    let mut us20 = ScenarioConfig::us_paper(42);
    us20.max_sites = Some(20);
    us20.terrain = TerrainKind::Flat;
    for (config, budget, min_rounds) in [(ScenarioConfig::tiny_test(), 300, 30), (us20, 3_000, 100)]
    {
        let scenario = Scenario::build(&config);
        let engine = scenario.design_greedy(budget as f64);
        assert!(
            engine.selected.len() >= min_rounds,
            "{} rounds over {} candidates",
            engine.selected.len(),
            scenario.design_input().candidates.len()
        );
        assert_eq!(
            engine.selected,
            naive_greedy(scenario.design_input(), budget)
        );
    }
}

/// Fiber that leaves a traffic-carrying pair unreachable: the design
/// problem has no fiber distance `o_ij` for it, and the designer refuses the
/// input, naming the pair.
#[test]
#[should_panic(expected = "sites 0 and 5 carry traffic")]
fn greedy_rejects_non_finite_fiber_under_traffic() {
    let mut input = random_input(6, 11);
    input.fiber_km.set_sym(0, 5, f64::INFINITY);
    Designer::new(&input);
}

/// Fiber that leaves a pair carrying no traffic unreachable: no term of the
/// objective reads that distance, so the input is accepted and the greedy
/// is still the naive one.
#[test]
fn greedy_accepts_unreachable_fiber_between_traffic_free_sites() {
    for seed in [11, 424242] {
        let mut input = random_input(6, seed);
        input.fiber_km.set_sym(0, 5, f64::INFINITY);
        input.traffic.set_sym(0, 5, 0.0);
        let engine = Designer::new(&input).greedy(30.0);
        assert!(!engine.selected.is_empty());
        assert_eq!(engine.selected, naive_greedy(&input, 30));
        assert!(engine.mean_stretch.is_finite());
    }
}

/// The oracle comparison on fixed instances where the polish does apply
/// swaps, so the property above is known not to be vacuous.
#[test]
fn swap_polish_oracle_agrees_where_swaps_are_applied() {
    let mut swaps = 0;
    for (n, seed, budget) in [(14, 7, 250), (20, 99, 420), (24, 4242, 500)] {
        swaps += assert_cisp_matches_naive_polish(
            &random_input(n, seed),
            budget,
            DesignConfig::default(),
        );
    }
    assert!(swaps >= 2, "fixtures must exercise the swap, got {swaps}");
}

/// The benchmark's `design_us_flat` input: the paper-scale US scenario on
/// flat terrain, 18 000 raw towers. Built once per test binary.
fn design_us_flat() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let mut config = ScenarioConfig::us_paper(42);
        config.terrain = TerrainKind::Flat;
        config.towers.raw_count = 18_000;
        Scenario::build(&config)
    })
}

/// `cisp()` with the polish off at [`design_us_flat`]'s input and 3 000
/// towers against [`cold_phases`]: `cisp` resumes phase 2 after the pruned
/// pool's longest prefix within budget, the cold phases re-run it from
/// fiber. A paper-scale build, so it is ignored by default; CI runs it with
/// `cargo test --release --test matrix_engine_parity -- --ignored`.
#[test]
#[ignore = "paper scale; run in release with -- --ignored"]
fn paper_scale_cisp_resumes_phase_two_like_the_cold_greedy() {
    let input = design_us_flat().design_input();
    let budget = 3_000;
    let off = DesignConfig { max_swap_passes: 0 };
    let (pool, cold) = cold_phases(input, budget, off);
    let got = Designer::with_config(input, off).cisp(budget as f64);
    assert!(
        pool.len() > cold.len() && cold.len() > 100,
        "pool {} and selection {} must be paper sized",
        pool.len(),
        cold.len()
    );
    assert_eq!(got.selected, cold);
    assert_eq!(got.history.len(), cold.len());
}

/// The design `cisp()` selects at [`design_us_flat`]'s input with 3 000
/// towers and one swap pass (the benchmark's setting), in selection order,
/// as measured before the pair-major repair was screened.
const PAPER_SCALE_CISP_SELECTED: [usize; 347] = [
    2931, 495, 941, 582, 40, 625, 976, 2565, 266, 273, 1113, 2994, 243, 1287, 55, 1043, 355, 5080,
    4486, 3, 598, 694, 2558, 970, 1180, 1265, 2103, 925, 2004, 480, 167, 213, 848, 936, 2560, 2086,
    580, 275, 1164, 1193, 604, 3108, 1283, 248, 1254, 84, 416, 2506, 3555, 1705, 981, 1598, 602,
    1044, 3488, 1975, 2074, 4195, 66, 591, 353, 581, 3344, 1672, 920, 3454, 1915, 3458, 2471, 1028,
    393, 3301, 2929, 370, 1602, 1587, 3016, 397, 1685, 258, 3028, 3877, 4033, 2090, 1184, 4415,
    2273, 2073, 605, 1792, 4199, 105, 2980, 2462, 2676, 2614, 192, 283, 2314, 2473, 4371, 1290,
    2100, 1160, 2559, 2589, 3460, 123, 290, 2255, 3464, 2672, 4264, 2680, 3945, 3312, 5970, 1595,
    101, 699, 2568, 747, 2524, 5857, 3386, 1070, 4420, 935, 3430, 34, 2574, 1810, 3658, 3650, 5810,
    736, 2948, 5099, 2398, 1994, 335, 104, 10, 240, 6035, 2031, 2905, 4393, 2525, 307, 360, 1459,
    3224, 3066, 3814, 2599, 1256, 2677, 2528, 3111, 6602, 314, 246, 2910, 3030, 287, 286, 1479,
    411, 3137, 1171, 5465, 4785, 3800, 1023, 4517, 4788, 280, 2000, 2018, 365, 150, 3843, 2927,
    5082, 1726, 13, 4714, 5139, 4032, 4031, 5645, 2835, 5562, 1391, 1674, 291, 1201, 2701, 5804,
    4735, 3706, 2934, 5344, 2395, 2413, 1833, 3907, 5594, 3512, 2048, 1465, 5747, 4391, 6145, 471,
    1273, 1429, 2530, 3662, 1245, 5084, 1505, 1581, 6191, 6114, 3060, 4424, 2962, 5982, 144, 121,
    125, 3397, 6047, 5817, 4259, 2798, 5008, 6459, 1808, 918, 3364, 597, 3530, 2638, 1242, 3734,
    654, 2430, 2819, 3647, 5545, 6257, 421, 2118, 2547, 5627, 1568, 1120, 5732, 2206, 2759, 15,
    646, 3222, 3585, 4025, 1761, 583, 3105, 3999, 4910, 1555, 7008, 5500, 161, 5663, 2632, 6869,
    4197, 1370, 1048, 1882, 1996, 6166, 4612, 4430, 5333, 2877, 4583, 4148, 949, 2039, 2428, 5807,
    5607, 510, 1163, 38, 3894, 1339, 691, 6170, 4810, 1803, 2270, 2942, 2043, 943, 944, 3776, 3716,
    1601, 1806, 1623, 1279, 3065, 603, 2021, 2391, 4155, 3049, 1654, 2778, 5215, 657, 891, 5104,
    6530, 4437, 4127, 6194, 1963, 3351, 3994, 3916, 281, 413, 4597, 235, 210, 547, 1883, 3669,
    2906, 671,
];

/// FNV-1a over a design's build-out: per step, the candidate index, the
/// cumulative towers and the stretch bits, each as 8 little-endian bytes.
fn history_fingerprint(history: &[cisp::core::design::DesignStep]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for step in history {
        let words = [
            step.candidate_index as u64,
            step.cumulative_towers as u64,
            step.mean_stretch.to_bits(),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `cisp()` at [`design_us_flat`]'s input, with the benchmark's one swap
/// pass, against the committed design: every selected index, 2 999
/// towers, the stretch bits behind `latency_inflation_pct
/// 5.422895992281407`, and the build-out's fingerprint. The parity cases
/// compare the engine with itself and with naive oracles at small n; this
/// one pins the paper-scale result. Ignored by default, like the case
/// above; CI runs both.
#[test]
#[ignore = "paper scale; run in release with -- --ignored"]
fn paper_scale_cisp_selects_the_committed_design() {
    let input = design_us_flat().design_input();
    let designer = Designer::with_config(input, DesignConfig { max_swap_passes: 1 });
    assert!(designer.geodesic_screen_armed());
    let got = designer.cisp(3_000.0);
    assert_eq!(got.selected, PAPER_SCALE_CISP_SELECTED);
    assert_eq!(got.total_towers, 2_999);
    assert_eq!(got.mean_stretch.to_bits(), 0x3ff0_de1f_2f95_d553);
    assert_eq!(history_fingerprint(&got.history), 0xc08e_9853_9177_b836);
}
