//! The paper's evaluation as functions.
//!
//! Every figure and table of §5–§8 is a function in [`figures`], and one
//! binary runs them: `figures [--tiny|--full] [name…]` (the README's
//! quickstart says how). The figures share three things, provided here:
//!
//! * [`Scale`] — every experiment runs at one of three scales. `Tiny` is for
//!   smoke tests, `Reduced` (the default) reproduces the *shape* of each
//!   figure in seconds on a laptop, and `Full` uses the paper's parameters
//!   (all fifteen figures in ≈ 1.5 min on two cores). Pass `--full` or
//!   `--tiny` on the command line.
//! * [`Context`] — the scale plus a memo of the scenarios and designs built
//!   so far, so all figures agree on what "the US network" means at a given
//!   scale and none is built or designed twice in one run.
//! * plain-text table/series printers, so each figure's output is the rows
//!   or series the corresponding figure plots.

pub mod figures;

use std::cell::RefCell;
use std::rc::Rc;

use cisp_core::design::{DesignOutcome, Designer, SwapPolishStats};
use cisp_core::hops::HopConfig;
use cisp_core::scenario::{Scenario, ScenarioConfig};
use cisp_data::cities::Region;
use cisp_data::towers::TowerRegistryConfig;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (seconds).
    Tiny,
    /// Default scale: reproduces the figure's shape quickly.
    Reduced,
    /// The paper's scale: every population center (120 in the US) and
    /// 18 000 raw towers. On two cores one US build plus its design takes
    /// ≈ 6–7 s; run alone, every figure but `fig10` (ten builds and
    /// designs, ≈ 42 s) finishes within 15 s, and all fifteen in one run
    /// take ≈ 92 s at ≈ 120 MiB peak RSS.
    Full,
}

impl Scale {
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

/// A cISP design and the swap polish's counters, as
/// [`Designer::cisp_profiled`] returns them.
pub type Design = (DesignOutcome, SwapPolishStats);

/// A memoised design: its scenario, its tower budget and the design.
type DesignEntry = (Rc<Scenario>, f64, Rc<Design>);

/// What the figures share: the scale, and every scenario and design built
/// at it so far.
///
/// A scenario is keyed by its region and [`HopConfig`]: the seed is always
/// 42 and the sites and towers follow the scale. A design is keyed by its
/// scenario and tower budget, and is the scenario's own
/// [`Scenario::design`], with the swap polish's counters kept.
pub struct Context {
    /// The scale every figure of this context runs at.
    pub scale: Scale,
    scenarios: RefCell<Vec<Rc<Scenario>>>,
    designs: RefCell<Vec<DesignEntry>>,
}

impl Context {
    /// An empty memo at `scale`.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            scenarios: RefCell::default(),
            designs: RefCell::default(),
        }
    }

    /// Print the header line every figure's output opens with.
    pub fn header(&self, figure: &str) {
        println!("# {figure} reproduction — scale: {}", self.scale.label());
    }

    /// The US scenario with the paper's hop parameters.
    pub fn us(&self) -> Rc<Scenario> {
        self.scenario(Region::UnitedStates, HopConfig::paper_baseline())
    }

    /// The scenario for `region` and `hops` at this scale, built on first use.
    pub fn scenario(&self, region: Region, hops: HopConfig) -> Rc<Scenario> {
        let same = |s: &&Rc<Scenario>| {
            s.config().region == region && hop_bits(&s.config().hops) == hop_bits(&hops)
        };
        if let Some(scenario) = self.scenarios.borrow().iter().find(same) {
            return Rc::clone(scenario);
        }
        let mut config = match region {
            Region::UnitedStates => ScenarioConfig::us_paper(42),
            Region::Europe => ScenarioConfig::europe_paper(42),
        };
        config.max_sites = self.scale.us_sites();
        config.towers = TowerRegistryConfig {
            raw_count: self.scale.raw_towers(),
            ..TowerRegistryConfig::default()
        };
        config.hops = hops;
        let scenario = Rc::new(Scenario::build(&config));
        self.scenarios.borrow_mut().push(Rc::clone(&scenario));
        scenario
    }

    /// The cISP design of `scenario` at `budget_towers`, run on first use.
    pub fn design(&self, scenario: &Rc<Scenario>, budget_towers: f64) -> Rc<Design> {
        let same = |(s, b, _): &&DesignEntry| Rc::ptr_eq(s, scenario) && *b == budget_towers;
        if let Some((.., design)) = self.designs.borrow().iter().find(same) {
            return Rc::clone(design);
        }
        let design = Rc::new(
            Designer::with_config(scenario.design_input(), scenario.config().design)
                .cisp_profiled(budget_towers),
        );
        let entry = (Rc::clone(scenario), budget_towers, Rc::clone(&design));
        self.designs.borrow_mut().push(entry);
        design
    }

    /// The US design at the scale's tower budget: the network of Fig. 3.
    pub fn us_design(&self) -> Rc<Design> {
        self.design(&self.us(), self.scale.us_budget_towers())
    }

    /// How many scenarios and designs this context has built.
    pub fn builds(&self) -> (usize, usize) {
        (self.scenarios.borrow().len(), self.designs.borrow().len())
    }
}

/// A [`HopConfig`] as the bits of its fields, the memo's key.
fn hop_bits(hops: &HopConfig) -> [u64; 4] {
    [
        hops.max_range_km,
        hops.frequency_ghz,
        hops.k_factor,
        hops.usable_height_fraction,
    ]
    .map(f64::to_bits)
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
