//! Data-center sites for the inter-DC and DC-edge traffic models.
//!
//! §6.3 of the paper uses the six publicly known Google data-center locations
//! in the United States: Berkeley County SC, Council Bluffs IA, Douglas
//! County GA, Lenoir NC, Mayes County OK, and The Dalles OR.

use cisp_geo::{geodesic, GeoPoint};

/// A wide-area data-center site.
#[derive(Debug, Clone, PartialEq)]
pub struct DataCenter {
    /// Site name.
    pub name: String,
    /// Location.
    pub location: GeoPoint,
}

impl DataCenter {
    /// Construct a data center.
    pub fn new(name: &str, lat: f64, lon: f64) -> Self {
        Self {
            name: name.to_string(),
            location: GeoPoint::new(lat, lon),
        }
    }
}

/// The six US Google data-center sites used by the paper (§6.3).
pub fn google_us_datacenters() -> Vec<DataCenter> {
    vec![
        DataCenter::new("Berkeley County, SC", 33.0632, -80.0433),
        DataCenter::new("Council Bluffs, IA", 41.2619, -95.8608),
        DataCenter::new("Douglas County, GA", 33.7515, -84.7477),
        DataCenter::new("Lenoir, NC", 35.9140, -81.5390),
        DataCenter::new("Mayes County, OK", 36.3021, -95.3261),
        DataCenter::new("The Dalles, OR", 45.5946, -121.1787),
    ]
}

/// Index of the site closest to each of [`google_us_datacenters`], in that
/// order: the population centers that stand in for the data centers in the
/// §6.3 and §6.4 traffic models. A tie goes to the lower site index.
///
/// # Panics
/// If `sites` is empty.
pub fn dc_proxy_sites(sites: &[GeoPoint]) -> Vec<usize> {
    google_us_datacenters()
        .iter()
        .map(|dc| {
            (0..sites.len())
                .min_by(|&a, &b| {
                    geodesic::distance_km(sites[a], dc.location)
                        .total_cmp(&geodesic::distance_km(sites[b], dc.location))
                })
                .expect("at least one site")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_six_sites() {
        assert_eq!(google_us_datacenters().len(), 6);
    }

    #[test]
    fn sites_are_spread_across_the_country() {
        let dcs = google_us_datacenters();
        // The Dalles (OR) and Berkeley County (SC) are roughly transcontinental.
        let west = dcs.iter().find(|d| d.name.contains("Dalles")).unwrap();
        let east = dcs.iter().find(|d| d.name.contains("Berkeley")).unwrap();
        let d = geodesic::distance_km(west.location, east.location);
        assert!(d > 3000.0, "d = {d}");
    }

    #[test]
    fn sites_are_within_the_contiguous_us() {
        for dc in google_us_datacenters() {
            assert!(dc.location.lat_deg > 24.0 && dc.location.lat_deg < 50.0);
            assert!(dc.location.lon_deg > -125.0 && dc.location.lon_deg < -66.0);
        }
    }

    #[test]
    fn each_dc_maps_to_its_nearest_site_and_a_tie_to_the_lower_index() {
        let dcs = google_us_datacenters();
        // A far-away decoy, then every DC's own location in reverse; the last
        // DC's location comes again at the end, an exact tie with index 1.
        let mut sites = vec![GeoPoint::new(0.0, 0.0)];
        sites.extend(dcs.iter().rev().map(|dc| dc.location));
        sites.push(dcs[dcs.len() - 1].location);
        let expected: Vec<usize> = (1..=dcs.len()).rev().collect();
        assert_eq!(dc_proxy_sites(&sites), expected);
    }
}
