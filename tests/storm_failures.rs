//! The storm-failure cascade (`cisp::weather::failures`) checked against
//! oracles that share none of its code:
//!
//! * failure sets, index order included, against the exact-only loop the
//!   cascade replaced — every sample of every hop against every storm,
//!   written here from `geodesic::intermediate`, `geodesic::sample_path`,
//!   `StormField::rain_at` and `FadeMargin::survives` — on a designed
//!   119-site topology over whole storm years and on random topologies and
//!   fields built to sit on the cascade's decision boundaries;
//! * the one-shot `link_failures` against a reused `FailureGeometry`;
//! * `weather_year_analysis` against a rebuild with `effective_matrix_without`
//!   per interval and a full sort of every pair's samples;
//! * `FadeMargin::safe_rain_mm_h` against `survives` itself;
//! * `TrigPoint::distance_km` against `geodesic::distance_km`, bit for bit.

use cisp::core::design::{DesignInput, Designer};
use cisp::core::links::CandidateLink;
use cisp::core::topology::HybridTopology;
use cisp::data::cities::us_population_centers;
use cisp::geo::{geodesic, GeoPoint, TrigPoint};
use cisp::graph::DistMatrix;
use cisp::weather::attenuation::FadeMargin;
use cisp::weather::failures::{
    failure_sweep, link_failures, FailureConfig, FailureGeometry, FailureSweepStats,
};
use cisp::weather::storms::{Storm, StormField, StormYear, StormYearConfig};
use cisp::weather::{weather_year_analysis, WeatherYearReport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The exact-only failure model: the loop `link_failures` ran before the
/// cascade, with `max_rain_along` spelled out over `sample_path`.
fn exact_link_failures(
    topology: &HybridTopology,
    field: &StormField,
    config: &FailureConfig,
) -> Vec<usize> {
    let sites = topology.sites();
    let mut failed = Vec::new();
    for (idx, link) in topology.mw_links().iter().enumerate() {
        let a = sites[link.site_a];
        let b = sites[link.site_b];
        let total_km = geodesic::distance_km(a, b);
        let hops = (total_km / config.hop_length_km).ceil().max(1.0) as usize;
        let hop_km = total_km / hops as f64;
        for h in 0..hops {
            let start = geodesic::intermediate(a, b, h as f64 / hops as f64);
            let end = geodesic::intermediate(a, b, (h + 1) as f64 / hops as f64);
            let d = geodesic::distance_km(start, end);
            let samples = ((d / 10.0).ceil() as usize).clamp(2, 64);
            let rain = geodesic::sample_path(start, end, samples)
                .into_iter()
                .map(|p| field.rain_at(p))
                .fold(0.0, f64::max);
            if !config
                .fade_margin
                .survives(hop_km, rain, config.frequency_ghz)
            {
                failed.push(idx);
                break;
            }
        }
    }
    failed
}

/// Run `fields` through one reused geometry and check, per field, that it,
/// the one-shot call and the oracle agree; returns the geometry's counts.
fn assert_parity(
    topology: &HybridTopology,
    fields: &[StormField],
    config: &FailureConfig,
) -> FailureSweepStats {
    let mut geometry = FailureGeometry::new(topology, config);
    let mut failed_total = 0;
    for (day, field) in fields.iter().enumerate() {
        let expected = exact_link_failures(topology, field, config);
        let reused = geometry.failures(field);
        assert_eq!(
            reused, expected,
            "reused geometry, field {day}: {field:?} {config:?}"
        );
        assert_eq!(
            link_failures(topology, field, config),
            expected,
            "one-shot, field {day}: {field:?} {config:?}"
        );
        failed_total += expected.len() as u64;
    }
    let stats = geometry.stats();
    assert_eq!(
        stats.link_fields,
        (fields.len() * topology.mw_links().len()) as u64
    );
    assert_eq!(stats.by_rain_bound + stats.exact, stats.link_fields);
    assert_eq!(stats.failed, failed_total);
    stats
}

/// The 119 US population centres, fiber at 1.9× geodesic, candidates to
/// each site's eight nearest neighbours, designed greedily (once: the
/// design is most of a debug run of this file).
fn designed_us_topology() -> &'static HybridTopology {
    static DESIGNED: std::sync::OnceLock<HybridTopology> = std::sync::OnceLock::new();
    DESIGNED.get_or_init(design_us_topology)
}

fn design_us_topology() -> HybridTopology {
    let cities = us_population_centers();
    let sites: Vec<GeoPoint> = cities.iter().map(|c| c.location).collect();
    let n = sites.len();
    let geo = DistMatrix::from_fn(n, |i, j| geodesic::distance_km(sites[i], sites[j]));
    let mut candidates = Vec::new();
    for i in 0..n {
        let mut nearest: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        nearest.sort_by(|&x, &y| geo.get(i, x).partial_cmp(&geo.get(i, y)).unwrap());
        for &j in nearest.iter().take(8).filter(|&&j| j > i) {
            let towers = ((geo.get(i, j) / 60.0).ceil() as usize).max(1);
            candidates.push(CandidateLink {
                site_a: i,
                site_b: j,
                mw_length_km: geo.get(i, j) * 1.04,
                tower_count: towers,
                tower_path: (0..towers).collect(),
            });
        }
    }
    let input = DesignInput {
        traffic: DistMatrix::from_fn(n, |i, j| {
            if i == j {
                0.0
            } else {
                cities[i].population as f64 * cities[j].population as f64
            }
        }),
        fiber_km: DistMatrix::from_fn(n, |i, j| geo.get(i, j) * 1.9),
        sites,
        candidates,
    };
    Designer::new(&input).greedy(2_000.0).topology
}

#[test]
fn designed_topology_matches_the_exact_oracle_over_storm_years() {
    let topology = designed_us_topology();
    assert!(topology.num_sites() >= 100);
    assert!(
        topology.mw_links().len() >= 150,
        "{} links",
        topology.mw_links().len()
    );
    let config = FailureConfig::default();
    let mut stats = Vec::new();
    for seed in [1_013, 77_003] {
        let year = StormYear::generate(seed, &StormYearConfig::us_default());
        stats.push(assert_parity(topology, year.fields(), &config));

        let (sets, swept) = failure_sweep(topology, year.fields(), &config);
        assert_eq!(sets.len(), year.len());
        assert_eq!(swept, *stats.last().unwrap());
    }
    for s in &stats {
        // The year must exercise both outcomes of the bound, and failures.
        assert!(s.failed > 0 && s.exact > s.failed, "{s}");
        assert!(s.rain_bound_share() > 0.5, "{s}");
        assert!(s.storms_culled > 0, "{s}");
    }
}

/// `weather_year_analysis` against the loop it replaced, written out: per
/// interval the matrix of that interval's failure set rebuilt from fiber,
/// per pair every sample of the year, sorted.
fn assert_year_matches_naive_rebuild(
    topology: &HybridTopology,
    year: &StormYear,
) -> WeatherYearReport {
    let config = FailureConfig::default();
    let report = weather_year_analysis(topology, year, &config);
    assert_eq!(report.intervals, year.len());

    let n = topology.num_sites();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .filter(|&(i, j)| topology.geodesic_km(i, j) > 0.0)
        .collect();
    // The failure sets themselves are the other tests' subject.
    let sets = failure_sweep(topology, year.fields(), &config).0;
    let mut samples = vec![Vec::new(); pairs.len()];
    let fair = topology.effective_matrix_without(&[]);
    for failed in &sets {
        let rebuilt = (!failed.is_empty()).then(|| topology.effective_matrix_without(failed));
        let matrix = rebuilt.as_ref().unwrap_or(&fair);
        for (s, &(i, j)) in samples.iter_mut().zip(&pairs) {
            s.push(matrix.get(i, j) / topology.geodesic_km(i, j));
        }
    }
    let mut stormy: Vec<_> = sets.iter().filter(|failed| !failed.is_empty()).collect();
    stormy.sort();
    stormy.dedup();
    assert_eq!(report.distinct_failure_sets, stormy.len());
    assert_eq!(report.closure_sweeps == 0, stormy.is_empty());

    assert_eq!(report.pairs.len(), pairs.len());
    for ((stats, s), &(i, j)) in report.pairs.iter().zip(&mut samples).zip(&pairs) {
        assert_eq!((stats.site_a, stats.site_b), (i, j));
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99_idx = ((s.len() - 1) as f64 * 0.99).round() as usize;
        let geo = topology.geodesic_km(i, j);
        for (what, got, want) in [
            (
                "best",
                stats.best,
                topology.effective_matrix().get(i, j) / geo,
            ),
            ("p99", stats.p99, s[p99_idx]),
            ("worst", stats.worst, s[s.len() - 1]),
            (
                "fiber_only",
                stats.fiber_only,
                topology.fiber_matrix().get(i, j) / geo,
            ),
        ] {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{what} of ({i}, {j}): {got} vs naive {want}"
            );
        }
    }
    report
}

/// A violent storm parked on the middle of `link`.
fn storm_on(topology: &HybridTopology, link: usize) -> StormField {
    let l = &topology.mw_links()[link];
    let sites = topology.sites();
    StormField {
        storms: vec![Storm {
            center: geodesic::intermediate(sites[l.site_a], sites[l.site_b], 0.5),
            radius_km: 60.0,
            peak_mm_h: 120.0,
        }],
    }
}

#[test]
fn year_analysis_matches_naive_rebuild_on_the_five_site_fixture() {
    // Chicago, Kansas City, Dallas, Denver, Phoenix.
    let sites = [
        (41.9, -87.6),
        (39.1, -94.6),
        (32.8, -96.8),
        (39.7, -105.0),
        (33.4, -112.1),
    ]
    .map(|(lat, lon)| GeoPoint::new(lat, lon))
    .to_vec();
    let topology = topology_with_links(sites, &[(0, 1), (1, 2), (1, 3), (3, 4)]);
    let links = topology.mw_links().len();

    let generated = StormYear::generate(7, &StormYearConfig::us_default());
    assert_year_matches_naive_rebuild(&topology, &generated);
    // No stormy interval at all.
    let calm = StormYear::from_fields(vec![StormField::default(); 40]);
    assert_year_matches_naive_rebuild(&topology, &calm);
    // Every interval stormy: runs of one link down, neighbours repeating,
    // so p99 (the second-worst of 120) is not the fair-weather value.
    let all_stormy: Vec<StormField> = (0..120)
        .map(|day| storm_on(&topology, day / 3 % links))
        .collect();
    let report = assert_year_matches_naive_rebuild(&topology, &StormYear::from_fields(all_stormy));
    assert!(report.mean_failed_links >= 1.0 && report.distinct_failure_sets >= links);
}

#[test]
fn year_analysis_matches_naive_rebuild_on_a_designed_topology() {
    let topology = designed_us_topology();
    // A whole year, and 150 days of another (a rebuild per stormy interval
    // is what makes the naive side slow in a debug build).
    for (seed, days) in [(1_013, 365), (77_003, 150)] {
        let config = StormYearConfig {
            days,
            ..StormYearConfig::us_default()
        };
        assert_year_matches_naive_rebuild(topology, &StormYear::generate(seed, &config));
    }
}

fn uniform(rng: &mut StdRng, low: f64, high: f64) -> f64 {
    low + (high - low) * rng.gen::<f64>()
}

fn pick<'a, T>(rng: &mut StdRng, options: &'a [T]) -> &'a T {
    &options[(rng.gen::<f64>() * options.len() as f64) as usize]
}

/// A small topology in the US box: 3–7 sites, one of them a copy of
/// another (a co-located link, `delta < 1e-12`), one of them within metres
/// of another, and MW links on random pairs, those two pairs included.
fn boundary_topology(rng: &mut StdRng) -> HybridTopology {
    let n = 3 + (rng.gen::<f64>() * 5.0) as usize;
    let mut sites: Vec<GeoPoint> = (0..n)
        .map(|_| GeoPoint::new(uniform(rng, 26.0, 48.0), uniform(rng, -123.0, -68.0)))
        .collect();
    sites.push(sites[0]);
    sites.push(GeoPoint::new(sites[1].lat_deg + 1e-5, sites[1].lon_deg));
    let n = sites.len();
    let mut pairs = vec![(0, n - 2), (1, n - 1)];
    for i in 0..n - 2 {
        for j in (i + 1)..n - 2 {
            if rng.gen::<f64>() < 0.6 {
                pairs.push((i, j));
            }
        }
    }
    topology_with_links(sites, &pairs)
}

/// `sites` under uniform traffic with fiber at 1.9× geodesic and an MW link
/// on each of `pairs`.
fn topology_with_links(sites: Vec<GeoPoint>, pairs: &[(usize, usize)]) -> HybridTopology {
    let n = sites.len();
    let fiber: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| geodesic::distance_km(sites[i], sites[j]) * 1.9)
                .collect()
        })
        .collect();
    let mut topology = HybridTopology::new(sites.clone(), vec![vec![1.0; n]; n], fiber);
    for &(a, b) in pairs {
        let geo = geodesic::distance_km(sites[a], sites[b]);
        topology.add_mw_link(CandidateLink {
            site_a: a,
            site_b: b,
            mw_length_km: geo * 1.04 + 1.0,
            tower_count: 2,
            tower_path: vec![0; 2],
        });
    }
    topology
}

/// A field of 1–6 storms placed against `topology`'s links: centred on an
/// endpoint, on a hop boundary, with the `4σ` circle grazing an endpoint or
/// the far end of the link (a hair inside, on, or a hair outside), or
/// anywhere in the box.
fn boundary_field(rng: &mut StdRng, topology: &HybridTopology) -> StormField {
    let sites = topology.sites();
    let count = 1 + (rng.gen::<f64>() * 6.0) as usize;
    let storms = (0..count)
        .map(|_| {
            let link = pick(rng, topology.mw_links());
            let (a, b) = (sites[link.site_a], sites[link.site_b]);
            let radius_km = uniform(rng, 5.0, 300.0);
            let peak_mm_h = uniform(rng, 5.0, 160.0);
            let grazing_km = 4.0 * radius_km * (1.0 + pick(rng, &[-1e-3, -1e-9, 0.0, 1e-9, 1e-3]));
            let center = match (rng.gen::<f64>() * 5.0) as usize {
                0 => a,
                1 => geodesic::intermediate(a, b, *pick(rng, &[0.25, 0.5, 1.0])),
                2 => geodesic::destination(b, uniform(rng, 0.0, 360.0), grazing_km),
                3 => {
                    // Beyond `b`, on the link's own great circle: the
                    // midpoint bound is tight here.
                    let away = geodesic::initial_bearing_deg(b, a) + 180.0;
                    geodesic::destination(b, away % 360.0, grazing_km)
                }
                _ => GeoPoint::new(uniform(rng, 24.5, 49.5), uniform(rng, -125.0, -66.5)),
            };
            Storm {
                center,
                radius_km,
                peak_mm_h,
            }
        })
        .collect();
    StormField { storms }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // (a) + (d) on the decision boundaries: hop lengths 10/75/400 km, the
    // band's edges, and margins where attenuation is not monotone in rain.
    #[test]
    fn boundary_cases_match_the_exact_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topology = boundary_topology(&mut rng);
        let margin_db = if rng.gen::<f64>() < 0.5 {
            uniform(&mut rng, 30.0, 35.0)
        } else {
            uniform(&mut rng, 0.0, 60.0)
        };
        let frequency_ghz = if rng.gen::<f64>() < 0.5 {
            *pick(&mut rng, &[6.0, 11.0, 18.0])
        } else {
            uniform(&mut rng, 6.0, 18.0)
        };
        let config = FailureConfig {
            fade_margin: FadeMargin { margin_db },
            frequency_ghz,
            hop_length_km: *pick(&mut rng, &[10.0, 75.0, 400.0]),
        };
        let mut fields: Vec<StormField> =
            (0..6).map(|_| boundary_field(&mut rng, &topology)).collect();
        fields.push(StormField::default());
        assert_parity(&topology, &fields, &config);
    }

    // (b) every rate at or below the safe rate survives.
    #[test]
    fn every_rain_rate_up_to_the_safe_rate_survives(
        hop_km in 1e-3..400.0f64,
        frequency_ghz in 6.0..18.0f64,
        margin_db in 0.0..60.0f64,
        share in 0.0..1.0f64,
    ) {
        let margin = FadeMargin { margin_db };
        let safe = margin.safe_rain_mm_h(hop_km, frequency_ghz);
        prop_assert!(safe >= 0.0 && safe.is_finite());
        for rain in [safe, safe * share, safe * share * share, safe.min(100.0), safe.min(90.0)] {
            prop_assert!(
                margin.survives(hop_km, rain, frequency_ghz),
                "{hop_km} km at {frequency_ghz} GHz, margin {margin_db} dB: \
                 {rain} mm/h <= safe {safe} mm/h fails"
            );
        }
    }

    // (c) the trig-cached distance is `geodesic::distance_km`, bit for bit.
    #[test]
    fn trig_point_distance_is_bit_identical(
        lat_a in -90.0..90.0f64,
        lon_a in -180.0..180.0f64,
        lat_b in -90.0..90.0f64,
        lon_b in -180.0..180.0f64,
        nudge in 0.0..1e-6f64,
    ) {
        let a = GeoPoint::new(lat_a, lon_a);
        let near_a = GeoPoint::new((lat_a + nudge).min(90.0), lon_a);
        let antipode = GeoPoint::new(-lat_a, if lon_a > 0.0 { lon_a - 180.0 } else { lon_a + 180.0 });
        for b in [GeoPoint::new(lat_b, lon_b), a, near_a, antipode] {
            let cached = TrigPoint::new(a).distance_km(&TrigPoint::new(b));
            prop_assert_eq!(cached.to_bits(), geodesic::distance_km(a, b).to_bits());
        }
    }
}
