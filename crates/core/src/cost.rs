//! The cost model (§2 "Cost model", §4 Step 3).
//!
//! Capital costs: installing a bidirectional microwave link on *existing*
//! towers costs about \$75 K at 500 Mbps or \$150 K at 1 Gbps per
//! tower-to-tower hop; building a new tower costs about \$100 K. Operational
//! cost is dominated by tower rent at \$25–50 K per tower per year. Cost per
//! GB amortises build plus operation over five years at the provisioned
//! aggregate throughput.

/// Seconds in a (non-leap) year.
const SECONDS_PER_YEAR: f64 = 365.0 * 24.0 * 3600.0;

/// The cost model parameters, with the paper's defaults.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost of one bidirectional 1 Gbps MW hop installed on existing towers.
    pub hop_cost_1gbps_usd: f64,
    /// Cost of one bidirectional 500 Mbps MW hop installed on existing towers.
    pub hop_cost_500mbps_usd: f64,
    /// Cost of erecting a new tower.
    pub new_tower_cost_usd: f64,
    /// Annual rent per tower used by the network.
    pub tower_rent_per_year_usd: f64,
    /// Amortisation horizon in years for the cost-per-GB figure.
    pub amortization_years: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            hop_cost_1gbps_usd: 150_000.0,
            hop_cost_500mbps_usd: 75_000.0,
            new_tower_cost_usd: 100_000.0,
            // Mid-point of the paper's $25–50 K/year range.
            tower_rent_per_year_usd: 37_500.0,
            amortization_years: 5.0,
        }
    }
}

/// A breakdown of the total cost of a provisioned network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Radio/installation capital expenditure (all hop installations).
    pub radio_capex_usd: f64,
    /// New-tower capital expenditure.
    pub tower_capex_usd: f64,
    /// Rent over the amortisation horizon.
    pub rent_opex_usd: f64,
}

impl CostBreakdown {
    /// Total cost over the amortisation horizon.
    pub(crate) fn total_usd(&self) -> f64 {
        self.radio_capex_usd + self.tower_capex_usd + self.rent_opex_usd
    }
}

/// Inventory of the physical build of a provisioned network, produced by the
/// capacity-augmentation step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BuildInventory {
    /// Number of tower-to-tower hop installations, counting each parallel
    /// series separately (one radio pair each).
    pub hop_installations: usize,
    /// Number of distinct existing towers rented.
    pub existing_towers_used: usize,
    /// Number of new towers that must be erected (also rented thereafter).
    pub new_towers_built: usize,
}

impl CostModel {
    /// Cost breakdown for a build inventory.
    pub fn breakdown(&self, inventory: &BuildInventory) -> CostBreakdown {
        let radio_capex_usd = inventory.hop_installations as f64 * self.hop_cost_1gbps_usd;
        let tower_capex_usd = inventory.new_towers_built as f64 * self.new_tower_cost_usd;
        let towers_rented = (inventory.existing_towers_used + inventory.new_towers_built) as f64;
        let rent_opex_usd = towers_rented * self.tower_rent_per_year_usd * self.amortization_years;
        CostBreakdown {
            radio_capex_usd,
            tower_capex_usd,
            rent_opex_usd,
        }
    }

    /// Total gigabytes carried over the amortisation horizon at a sustained
    /// aggregate throughput of `aggregate_gbps` gigabits per second.
    pub(crate) fn gigabytes_over_horizon(&self, aggregate_gbps: f64) -> f64 {
        assert!(aggregate_gbps >= 0.0);
        // Gbps → GB/s is /8; integrate over the horizon.
        aggregate_gbps / 8.0 * SECONDS_PER_YEAR * self.amortization_years
    }

    /// Cost per gigabyte of a provisioned network carrying `aggregate_gbps`.
    pub fn cost_per_gb(&self, inventory: &BuildInventory, aggregate_gbps: f64) -> f64 {
        assert!(aggregate_gbps > 0.0, "throughput must be positive");
        self.breakdown(inventory).total_usd() / self.gigabytes_over_horizon(aggregate_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let m = CostModel::default();
        assert_eq!(m.hop_cost_1gbps_usd, 150_000.0);
        assert_eq!(m.hop_cost_500mbps_usd, 75_000.0);
        assert_eq!(m.new_tower_cost_usd, 100_000.0);
        assert!(m.tower_rent_per_year_usd >= 25_000.0 && m.tower_rent_per_year_usd <= 50_000.0);
        assert_eq!(m.amortization_years, 5.0);
    }

    #[test]
    fn breakdown_adds_up() {
        let m = CostModel::default();
        let inv = BuildInventory {
            hop_installations: 10,
            existing_towers_used: 8,
            new_towers_built: 2,
        };
        let b = m.breakdown(&inv);
        assert_eq!(b.radio_capex_usd, 1_500_000.0);
        assert_eq!(b.tower_capex_usd, 200_000.0);
        assert_eq!(b.rent_opex_usd, 10.0 * 37_500.0 * 5.0);
        assert_eq!(
            b.total_usd(),
            b.radio_capex_usd + b.tower_capex_usd + b.rent_opex_usd
        );
    }

    #[test]
    fn gigabytes_over_horizon_scales_linearly() {
        let m = CostModel::default();
        let one = m.gigabytes_over_horizon(1.0);
        let hundred = m.gigabytes_over_horizon(100.0);
        assert!((hundred / one - 100.0).abs() < 1e-9);
        // 1 Gbps for 5 years ≈ 19.7 million GB.
        assert!((one - 19_710_000.0).abs() / one < 0.01, "one = {one}");
    }

    #[test]
    fn paper_scale_network_lands_near_published_cost_per_gb() {
        // Fig. 3 at 100 Gbps: 1660 single-series hops, 552 hops with one extra
        // series, 86 with two extra series; the paper reports $0.81/GB.
        // Approximate inventory: each extra series adds a parallel hop
        // installation and one new tower at each end.
        let m = CostModel::default();
        let hop_installations = 1660 + 552 * 2 + 86 * 3;
        let new_towers_built = 552 * 2 + 86 * 4;
        let inv = BuildInventory {
            hop_installations,
            existing_towers_used: 3_000,
            new_towers_built,
        };
        let cost = m.cost_per_gb(&inv, 100.0);
        assert!(
            cost > 0.4 && cost < 1.3,
            "cost per GB = {cost}, expected in the ballpark of the paper's $0.81"
        );
    }

    #[test]
    fn cost_per_gb_decreases_with_throughput_for_fixed_network() {
        let m = CostModel::default();
        let inv = BuildInventory {
            hop_installations: 100,
            existing_towers_used: 100,
            new_towers_built: 0,
        };
        assert!(m.cost_per_gb(&inv, 10.0) > m.cost_per_gb(&inv, 100.0));
    }

    #[test]
    #[should_panic]
    fn zero_throughput_cost_per_gb_panics() {
        let m = CostModel::default();
        m.cost_per_gb(&BuildInventory::default(), 0.0);
    }
}
