//! Shared infrastructure for the figure binaries.
//!
//! Every figure and table of the paper's evaluation has a corresponding
//! binary under `src/bin/` (the README's quickstart says how to run one).
//! The binaries share three things, provided here:
//!
//! * [`Scale`] — every experiment runs at one of three scales. `Tiny` is for
//!   smoke tests, `Reduced` (the default) reproduces the *shape* of each
//!   figure in seconds-to-minutes on a laptop, and `Full` uses the paper's
//!   parameters (120 population centers, ~12 k towers) and can take tens of
//!   minutes per figure. Pass `--full` or `--tiny` on the command line.
//! * scenario builders sized for each scale, so all figures agree on what
//!   "the US network" means at a given scale.
//! * plain-text table/series printers, so each binary's output is the rows
//!   or series the corresponding figure plots.

use cisp_core::scenario::{Scenario, ScenarioConfig};
use cisp_data::towers::TowerRegistryConfig;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (seconds).
    Tiny,
    /// Default scale: reproduces the figure's shape quickly.
    Reduced,
    /// The paper's scale.
    Full,
}

impl Scale {
    /// Parse the scale from process arguments (`--tiny`, `--full`; default
    /// reduced).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else if args.iter().any(|a| a == "--tiny") {
            Scale::Tiny
        } else {
            Scale::Reduced
        }
    }

    /// Number of US sites to include at this scale.
    pub fn us_sites(&self) -> Option<usize> {
        match self {
            Scale::Tiny => Some(12),
            Scale::Reduced => Some(40),
            Scale::Full => None, // all population centers
        }
    }

    /// Raw synthetic tower count at this scale.
    pub fn raw_towers(&self) -> usize {
        match self {
            Scale::Tiny => 1_500,
            Scale::Reduced => 5_000,
            Scale::Full => 18_000,
        }
    }

    /// Tower budget for the headline US design at this scale (the paper's
    /// Fig. 3 uses 3 000 towers for 120 sites).
    pub fn us_budget_towers(&self) -> f64 {
        match self {
            Scale::Tiny => 300.0,
            Scale::Reduced => 1_200.0,
            Scale::Full => 3_000.0,
        }
    }

    /// Label used in output headers.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Reduced => "reduced",
            Scale::Full => "full (paper scale)",
        }
    }
}

/// The shared US scenario at a given scale and seed.
pub fn us_scenario(scale: Scale, seed: u64) -> Scenario {
    let mut config = ScenarioConfig::us_paper(seed);
    config.max_sites = scale.us_sites();
    config.towers = TowerRegistryConfig {
        raw_count: scale.raw_towers(),
        ..TowerRegistryConfig::default()
    };
    Scenario::build(&config)
}

/// The shared European scenario at a given scale and seed (§6.2 / Fig. 8).
pub fn europe_scenario(scale: Scale, seed: u64) -> Scenario {
    let mut config = ScenarioConfig::europe_paper(seed);
    config.max_sites = scale.us_sites();
    config.towers = TowerRegistryConfig {
        raw_count: scale.raw_towers(),
        ..TowerRegistryConfig::default()
    };
    Scenario::build(&config)
}

/// Print a table with a title, column headers and rows of already formatted
/// cells.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Print a named series of `(x, y)` points (one per line), the form used for
/// the paper's line plots and CDFs.
pub fn print_series(name: &str, points: &[(f64, f64)]) {
    println!("\n-- series: {name} --");
    for (x, y) in points {
        println!("{x:.6}\t{y:.6}");
    }
}

/// Turn a sorted sample vector into CDF points `(value, fraction ≤ value)`.
pub fn cdf_points(sorted_values: &[f64]) -> Vec<(f64, f64)> {
    let n = sorted_values.len();
    sorted_values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Format a float with a fixed number of decimals (table helper).
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(Scale::Tiny.raw_towers() < Scale::Reduced.raw_towers());
        assert!(Scale::Reduced.raw_towers() < Scale::Full.raw_towers());
        assert!(Scale::Tiny.us_budget_towers() < Scale::Full.us_budget_towers());
        assert_eq!(Scale::Full.us_sites(), None);
        assert_eq!(Scale::Tiny.label(), "tiny");
    }

    #[test]
    fn cdf_points_are_monotone_and_end_at_one() {
        let sorted = vec![1.0, 2.0, 2.0, 5.0];
        let cdf = cdf_points(&sorted);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
