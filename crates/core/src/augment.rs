//! Step 3: routing traffic and augmenting capacity (§3.3, §4 Step 3).
//!
//! A single series of towers carries about 1 Gbps (§2). Once the topology is
//! designed, the traffic matrix is scaled to the target aggregate throughput
//! and routed over shortest paths; every microwave link whose load exceeds
//! one series' capacity is augmented with parallel series of towers. Thanks
//! to the k² trick (connecting each tower of `k` parallel series to the next
//! tower of every series, Fig. 1), `k` series provide `k²` Gbps, so the number
//! of series needed for a load `L` is `ceil(sqrt(L / capacity))`.
//!
//! Each additional series re-uses the link's route but needs new towers along
//! it (the paper charges one new tower per tower position per extra series,
//! which is deliberately conservative — §4 notes existing towers can often be
//! found). The resulting [`BuildInventory`] feeds the [`crate::cost`] model.

use std::collections::HashSet;

use cisp_graph::{CsrGraph, DistMatrix, SearchCore};

use crate::cost::BuildInventory;
use crate::topology::HybridTopology;

/// Configuration of the augmentation step.
#[derive(Debug, Clone, Copy)]
pub struct AugmentConfig {
    /// Capacity of a single series of towers, in Gbps (paper: 1 Gbps).
    pub per_series_gbps: f64,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        Self {
            per_series_gbps: 1.0,
        }
    }
}

/// Provisioning decision for one built microwave link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProvision {
    /// Index of the link in `topology.mw_links()`.
    pub link_index: usize,
    /// Traffic carried by the link, in Gbps (sum over both directions).
    pub load_gbps: f64,
    /// Number of parallel tower series provisioned (≥ 1).
    pub series: usize,
}

impl LinkProvision {
    /// Number of *additional* series beyond the first.
    pub fn extra_series(&self) -> usize {
        self.series.saturating_sub(1)
    }
}

/// The result of routing and augmentation.
#[derive(Debug, Clone)]
pub struct Augmentation {
    /// Per-link provisioning, indexed like `topology.mw_links()`.
    pub links: Vec<LinkProvision>,
    /// Aggregate throughput the network was provisioned for, in Gbps.
    pub aggregate_gbps: f64,
    /// Fraction of total traffic that rides at least one microwave link.
    pub mw_traffic_fraction: f64,
}

impl Augmentation {
    /// Histogram of links by number of extra series: `result[k]` is the number
    /// of links needing `k` additional series (Fig. 3's link classes).
    pub fn extra_series_histogram(&self) -> Vec<usize> {
        let max_extra = self
            .links
            .iter()
            .map(|l| l.extra_series())
            .max()
            .unwrap_or(0);
        let mut hist = vec![0usize; max_extra + 1];
        for l in &self.links {
            hist[l.extra_series()] += 1;
        }
        hist
    }

    /// Build inventory for the cost model.
    pub fn inventory(&self, topology: &HybridTopology) -> BuildInventory {
        let mut hop_installations = 0usize;
        let mut new_towers_built = 0usize;
        let mut existing: HashSet<usize> = HashSet::new();
        for provision in &self.links {
            let link = &topology.mw_links()[provision.link_index];
            let hops_per_series = link.tower_count + 1;
            hop_installations += hops_per_series * provision.series;
            // Extra series need a new tower at each tower position.
            new_towers_built += link.tower_count * provision.extra_series();
            existing.extend(link.tower_path.iter().copied());
        }
        BuildInventory {
            hop_installations,
            existing_towers_used: existing.len(),
            new_towers_built,
        }
    }
}

/// Scale a relative traffic matrix so that the sum over unordered pairs
/// equals `aggregate_gbps`. Returns the per-pair demand matrix in Gbps.
pub(crate) fn scale_traffic(traffic: &DistMatrix, aggregate_gbps: f64) -> DistMatrix {
    assert!(aggregate_gbps >= 0.0);
    let total = traffic.upper_triangle_sum();
    assert!(total > 0.0, "traffic matrix has no positive entries");
    let factor = aggregate_gbps / total;
    DistMatrix::from_fn(traffic.n(), |i, j| {
        if i == j {
            0.0
        } else {
            traffic.get(i, j) * factor
        }
    })
}

/// Per-pair routing over the built topology: for every unordered pair, the
/// shortest latency-equivalent path over fiber plus built MW links, recording
/// which MW links it uses.
///
/// Routing searches the *site* graph whose edges are all fiber pairs plus
/// the built MW links, matching how the paper's simulations aggregate
/// parallel tower series into site-to-site links (§5). Of two equally short
/// routes the one found first keeps the demand: sites settle in `(distance,
/// index)` order and each site's fiber edges come before its MW links.
pub(crate) fn route_demands(
    topology: &HybridTopology,
    demands_gbps: &DistMatrix,
    config: &AugmentConfig,
    aggregate_gbps: f64,
) -> Augmentation {
    let n = topology.num_sites();
    assert_eq!(demands_gbps.n(), n);

    // Every finite fiber pair, then both directions of each MW link: an
    // edge id at or past `fiber_edges` belongs to MW link
    // `(id - fiber_edges) / 2`.
    let mut edges: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j, topology.fiber_km(i, j))))
        .filter(|&(i, j, km)| i != j && km.is_finite())
        .collect();
    let fiber_edges = edges.len();
    edges.extend(topology.mw_links().iter().flat_map(|link| {
        [
            (link.site_a, link.site_b, link.mw_length_km),
            (link.site_b, link.site_a, link.mw_length_km),
        ]
    }));
    let graph = CsrGraph::from_edges(n, edges);

    let mut loads = vec![0.0f64; topology.mw_links().len()];
    let mut mw_traffic = 0.0f64;
    let mut total_traffic = 0.0f64;
    let mut search = SearchCore::new();

    for s in 0..n {
        search.search(&graph, s, &[], f64::INFINITY);
        for t in (s + 1)..n {
            let demand = demands_gbps[s][t];
            if demand <= 0.0 {
                continue;
            }
            total_traffic += demand;
            // Walk the predecessor chain, accumulating MW link loads (an
            // unreachable pair has none: its demand stays on absent fiber).
            let mut used_mw = false;
            let mut cur = t;
            while let Some((prev, edge)) = search.prev(cur) {
                if let Some(mw_edge) = (edge as usize).checked_sub(fiber_edges) {
                    loads[mw_edge / 2] += demand;
                    used_mw = true;
                }
                cur = prev;
            }
            if used_mw {
                mw_traffic += demand;
            }
        }
    }

    let links = loads
        .iter()
        .enumerate()
        .map(|(link_index, &load_gbps)| {
            let series = if load_gbps <= 0.0 {
                1
            } else {
                (load_gbps / config.per_series_gbps).sqrt().ceil().max(1.0) as usize
            };
            LinkProvision {
                link_index,
                load_gbps,
                series,
            }
        })
        .collect();

    Augmentation {
        links,
        aggregate_gbps,
        mw_traffic_fraction: if total_traffic > 0.0 {
            mw_traffic / total_traffic
        } else {
            0.0
        },
    }
}

/// Route a topology's own traffic matrix at a target aggregate throughput and
/// provision the links (the common entry point).
pub fn augment_for_throughput(
    topology: &HybridTopology,
    aggregate_gbps: f64,
    config: &AugmentConfig,
) -> Augmentation {
    let demands = scale_traffic(topology.traffic(), aggregate_gbps);
    route_demands(topology, &demands, config, aggregate_gbps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::CandidateLink;
    use cisp_geo::{geodesic, GeoPoint};

    fn three_site_topology() -> HybridTopology {
        let sites = vec![
            GeoPoint::new(40.0, -100.0),
            GeoPoint::new(40.0, -95.0),
            GeoPoint::new(40.0, -90.0),
        ];
        let traffic = vec![
            vec![0.0, 1.0, 2.0],
            vec![1.0, 0.0, 1.0],
            vec![2.0, 1.0, 0.0],
        ];
        let fiber: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..3)
                    .map(|j| geodesic::distance_km(sites[i], sites[j]) * 2.0)
                    .collect()
            })
            .collect();
        let mut topo = HybridTopology::new(sites.clone(), traffic, fiber);
        let geo01 = geodesic::distance_km(sites[0], sites[1]);
        let geo12 = geodesic::distance_km(sites[1], sites[2]);
        topo.add_mw_link(CandidateLink {
            site_a: 0,
            site_b: 1,
            mw_length_km: geo01 * 1.03,
            tower_count: 6,
            tower_path: vec![0, 1, 2, 3, 4, 5],
        });
        topo.add_mw_link(CandidateLink {
            site_a: 1,
            site_b: 2,
            mw_length_km: geo12 * 1.03,
            tower_count: 6,
            tower_path: vec![6, 7, 8, 9, 10, 11],
        });
        topo
    }

    #[test]
    fn equally_short_routes_resolve_to_the_lower_numbered_relay() {
        // Site 3's demand from site 0 has two routes of exactly 300 km, via
        // relay 1 or via relay 2, each 100 km of fiber from site 0. One
        // relay reaches site 3 over 200 km of fiber, the other over a
        // 200 km MW link. The relays settle at the same distance, lower
        // index first, and a tie never displaces the route found first: so
        // the route through relay 1 carries the demand, whichever kind of
        // link it ends in.
        let sites = vec![
            GeoPoint::new(40.0, -100.0),
            GeoPoint::new(40.5, -99.0),
            GeoPoint::new(39.5, -99.0),
            GeoPoint::new(40.0, -98.0),
        ];
        let mut traffic = vec![vec![0.0; 4]; 4];
        traffic[0][3] = 1.0;
        traffic[3][0] = 1.0;
        for (mw_relay, fiber_relay) in [(2, 1), (1, 2)] {
            let mut fiber = vec![vec![1000.0; 4]; 4];
            for (i, row) in fiber.iter_mut().enumerate() {
                row[i] = 0.0;
            }
            for (a, b, km) in [(0, 1, 100.0), (0, 2, 100.0), (fiber_relay, 3, 200.0)] {
                fiber[a][b] = km;
                fiber[b][a] = km;
            }
            let mut topo = HybridTopology::new(sites.clone(), traffic.clone(), fiber);
            topo.add_mw_link(CandidateLink {
                site_a: mw_relay,
                site_b: 3,
                mw_length_km: 200.0,
                tower_count: 3,
                tower_path: vec![0, 1, 2],
            });
            let aug = augment_for_throughput(&topo, 1.0, &AugmentConfig::default());
            let on_mw = if mw_relay == 1 { 1.0 } else { 0.0 };
            assert_eq!(aug.links[0].load_gbps, on_mw, "MW link at relay {mw_relay}");
            assert_eq!(
                aug.mw_traffic_fraction, on_mw,
                "MW link at relay {mw_relay}"
            );
        }
    }

    #[test]
    fn scale_traffic_hits_aggregate() {
        let traffic = DistMatrix::from_nested(vec![
            vec![0.0, 1.0, 3.0],
            vec![1.0, 0.0, 1.0],
            vec![3.0, 1.0, 0.0],
        ]);
        let scaled = scale_traffic(&traffic, 100.0);
        let total: f64 = (0..3)
            .flat_map(|i| ((i + 1)..3).map(move |j| (i, j)))
            .map(|(i, j)| scaled[i][j])
            .sum();
        assert!((total - 100.0).abs() < 1e-9);
        // Proportions preserved.
        assert!((scaled[0][2] / scaled[0][1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn routing_uses_mw_links_and_counts_loads() {
        let topo = three_site_topology();
        let aug = augment_for_throughput(&topo, 10.0, &AugmentConfig::default());
        assert_eq!(aug.links.len(), 2);
        // All traffic rides MW (it is always faster than the 2× fiber).
        assert!((aug.mw_traffic_fraction - 1.0).abs() < 1e-9);
        // The 0–2 demand traverses both links, so each link's load is the
        // sum of its own pair demand plus the transit demand.
        let total: f64 = aug.links.iter().map(|l| l.load_gbps).sum();
        assert!(total > 10.0, "transit demand must be counted on both links");
    }

    #[test]
    fn series_follow_k_squared_rule() {
        let topo = three_site_topology();
        // At 100 Gbps aggregate, the busier link carries tens of Gbps and
        // needs several series, but far fewer than load/1Gbps.
        let aug = augment_for_throughput(&topo, 100.0, &AugmentConfig::default());
        for l in &aug.links {
            let k = l.series as f64;
            assert!(
                k * k >= l.load_gbps - 1e-9,
                "k²={} < load {}",
                k * k,
                l.load_gbps
            );
            assert!((k - 1.0) * (k - 1.0) < l.load_gbps || l.series == 1);
        }
    }

    #[test]
    fn idle_link_still_gets_one_series() {
        let sites = vec![
            GeoPoint::new(40.0, -100.0),
            GeoPoint::new(40.0, -99.0),
            GeoPoint::new(20.0, -60.0),
        ];
        // Traffic only between 0 and 1.
        let traffic = vec![
            vec![0.0, 1.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0],
        ];
        let fiber: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..3)
                    .map(|j| geodesic::distance_km(sites[i], sites[j]) * 2.0)
                    .collect()
            })
            .collect();
        let mut topo = HybridTopology::new(sites.clone(), traffic, fiber);
        topo.add_mw_link(CandidateLink {
            site_a: 0,
            site_b: 1,
            mw_length_km: 100.0,
            tower_count: 1,
            tower_path: vec![0],
        });
        topo.add_mw_link(CandidateLink {
            site_a: 0,
            site_b: 2,
            mw_length_km: 4000.0,
            tower_count: 40,
            tower_path: (1..41).collect(),
        });
        let aug = augment_for_throughput(&topo, 5.0, &AugmentConfig::default());
        assert_eq!(aug.links[1].load_gbps, 0.0);
        assert_eq!(aug.links[1].series, 1);
    }

    #[test]
    fn inventory_counts_hops_and_new_towers() {
        let topo = three_site_topology();
        let aug = augment_for_throughput(&topo, 50.0, &AugmentConfig::default());
        let inv = aug.inventory(&topo);
        // 12 distinct towers across the two links.
        assert_eq!(inv.existing_towers_used, 12);
        // Hop installations: (6+1) hops per series per link.
        let expected_hops: usize = aug
            .links
            .iter()
            .map(|l| (topo.mw_links()[l.link_index].tower_count + 1) * l.series)
            .sum();
        assert_eq!(inv.hop_installations, expected_hops);
        // New towers appear only when extra series exist.
        let expected_new: usize = aug
            .links
            .iter()
            .map(|l| topo.mw_links()[l.link_index].tower_count * l.extra_series())
            .sum();
        assert_eq!(inv.new_towers_built, expected_new);
    }

    #[test]
    fn higher_throughput_needs_no_fewer_series() {
        let topo = three_site_topology();
        let low = augment_for_throughput(&topo, 10.0, &AugmentConfig::default());
        let high = augment_for_throughput(&topo, 200.0, &AugmentConfig::default());
        for (l, h) in low.links.iter().zip(high.links.iter()) {
            assert!(h.series >= l.series);
        }
        let hist = high.extra_series_histogram();
        assert_eq!(hist.iter().sum::<usize>(), high.links.len());
    }

    #[test]
    #[should_panic]
    fn scale_traffic_rejects_all_zero_matrix() {
        scale_traffic(&DistMatrix::zeros(3), 10.0);
    }
}
