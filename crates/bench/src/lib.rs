//! The paper's evaluation as functions.
//!
//! Every figure and table of §5–§8 is a function in [`figures`], and one
//! binary runs them: `figures [--tiny|--full] [name…]` (the README's
//! quickstart says how). The figures share three things, provided here:
//!
//! * [`Scale`] — every experiment runs at one of two scales. `Full`, the
//!   default, uses the paper's parameters (all fifteen figures in ≈ 45–55 s
//!   on two cores); `Tiny` is the test scale (≈ 1 s), which `--tiny` selects.
//!   `--full` names the default explicitly.
//! * [`Context`] — the scale plus a memo of the worlds, scenarios and
//!   designs built so far, so all figures agree on what "the US network"
//!   means at a given scale and none is built or designed twice in one run.
//! * plain-text table/series printers, so each figure's output is the rows
//!   or series the corresponding figure plots.

pub mod figures;

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use cisp_core::design::{DesignOutcome, Designer, SwapPolishStats};
use cisp_core::hops::HopConfig;
use cisp_core::scenario::{Scenario, ScenarioConfig, World};
use cisp_data::cities::Region;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Test scale (seconds): 12 US sites and 1 500 raw towers.
    Tiny,
    /// The paper's scale and the default: every population center (120 in
    /// the US) and 18 000 raw towers. On two cores one US build plus its
    /// design takes ≈ 2.5 s (`fig03` alone); run alone, `fig10` (one world,
    /// ten scenarios and designs) takes ≈ 25 s and `fig05` with `fig11`
    /// ≈ 14 s, and all fifteen in one run take ≈ 45–55 s at ≈ 61 MiB peak RSS.
    Full,
}

impl Scale {
    /// Number of US sites to include at this scale.
    pub(crate) fn us_sites(&self) -> Option<usize> {
        match self {
            Scale::Tiny => Some(12),
            Scale::Full => None, // all population centers
        }
    }

    /// Raw synthetic tower count at this scale.
    pub fn raw_towers(&self) -> usize {
        match self {
            Scale::Tiny => 1_500,
            Scale::Full => 18_000,
        }
    }

    /// Tower budget for the headline US design at this scale (the paper's
    /// Fig. 3 uses 3 000 towers for 120 sites).
    pub(crate) fn us_budget_towers(&self) -> f64 {
        match self {
            Scale::Tiny => 300.0,
            Scale::Full => 3_000.0,
        }
    }

    /// Label used in output headers.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Full => "full (paper scale)",
        }
    }
}

/// A cISP design and the swap polish's counters, as
/// [`Designer::cisp_profiled`] returns them.
pub type Design = (DesignOutcome, SwapPolishStats);

/// A memoised design: its scenario, its tower budget and the design.
type DesignEntry = (Rc<Scenario>, f64, Rc<Design>);

/// What the figures share: the scale, and every world, scenario and design
/// built at it so far.
///
/// A world is keyed by its region: the seed is always 42 and the sites and
/// towers follow the scale. A scenario is keyed by its world and
/// [`HopConfig`], and a design by its scenario and tower budget; a design
/// is the scenario's own [`Scenario::design`], with the swap polish's
/// counters kept.
pub struct Context {
    /// The scale every figure of this context runs at.
    pub scale: Scale,
    worlds: Stage<Arc<World>>,
    scenarios: Stage<Rc<Scenario>>,
    designs: Stage<DesignEntry>,
}

impl Context {
    /// An empty memo at `scale`.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            worlds: Stage::new(),
            scenarios: Stage::new(),
            designs: Stage::new(),
        }
    }

    /// Print the header line every figure's output opens with.
    pub(crate) fn header(&self, figure: &str) {
        println!("# {figure} reproduction — scale: {}", self.scale.label());
    }

    /// The US scenario with the paper's hop parameters.
    pub fn us(&self) -> Rc<Scenario> {
        self.scenario(Region::UnitedStates, HopConfig::paper_baseline())
    }

    /// The scenario for `region` and `hops` at this scale, built on first use
    /// over the region's one world.
    pub fn scenario(&self, region: Region, hops: HopConfig) -> Rc<Scenario> {
        let world = self.worlds.get(
            |w| w.config().region == region,
            || {
                let mut config = match region {
                    Region::UnitedStates => ScenarioConfig::us_paper(42),
                    Region::Europe => ScenarioConfig::europe_paper(42),
                };
                config.max_sites = self.scale.us_sites();
                config.towers.raw_count = self.scale.raw_towers();
                Arc::new(World::build(&config))
            },
        );
        self.scenarios.get(
            |s| Arc::ptr_eq(s.world(), &world) && hop_bits(&s.config().hops) == hop_bits(&hops),
            || Rc::new(Scenario::on_world(Arc::clone(&world), hops)),
        )
    }

    /// The cISP design of `scenario` at `budget_towers`, run on first use.
    pub fn design(&self, scenario: &Rc<Scenario>, budget_towers: f64) -> Rc<Design> {
        let entry = self.designs.get(
            |(s, b, _)| Rc::ptr_eq(s, scenario) && *b == budget_towers,
            || {
                let designer =
                    Designer::with_config(scenario.design_input(), scenario.config().design);
                let design = Rc::new(designer.cisp_profiled(budget_towers));
                (Rc::clone(scenario), budget_towers, design)
            },
        );
        entry.2
    }

    /// The US design at the scale's tower budget: the network of Fig. 3.
    pub(crate) fn us_design(&self) -> Rc<Design> {
        self.design(&self.us(), self.scale.us_budget_towers())
    }

    /// What this context has built, one stage at a time: how many worlds,
    /// scenarios and designs, and each stage's summed wall-clock.
    pub fn builds(&self) -> String {
        let (w, s, d) = (&self.worlds, &self.scenarios, &self.designs);
        format!(
            "worlds {}, scenarios {}, designs {} (wall {:.3} s, {:.3} s, {:.3} s)",
            w.built.borrow().len(),
            s.built.borrow().len(),
            d.built.borrow().len(),
            w.wall_s.get(),
            s.wall_s.get(),
            d.wall_s.get(),
        )
    }
}

/// One stage of the memo: what it has built so far, and the summed
/// wall-clock seconds of those builds.
struct Stage<T> {
    built: RefCell<Vec<T>>,
    wall_s: Cell<f64>,
}

impl<T: Clone> Stage<T> {
    fn new() -> Self {
        Self {
            built: RefCell::default(),
            wall_s: Cell::default(),
        }
    }

    /// The first thing built so far that is `same`, or else what `build`
    /// builds now.
    fn get(&self, same: impl Fn(&T) -> bool, build: impl FnOnce() -> T) -> T {
        if let Some(built) = self.built.borrow().iter().find(|t| same(t)) {
            return built.clone();
        }
        let start = Instant::now();
        let built = build();
        self.wall_s
            .set(self.wall_s.get() + start.elapsed().as_secs_f64());
        self.built.borrow_mut().push(built.clone());
        built
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
pub(crate) fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Print a named series of `(x, y)` points (one per line), the form used for
/// the paper's line plots and CDFs.
pub(crate) fn print_series(name: &str, points: &[(f64, f64)]) {
    println!("\n-- series: {name} --");
    for (x, y) in points {
        println!("{x:.6}\t{y:.6}");
    }
}

/// Turn a sorted sample vector into CDF points `(value, fraction ≤ value)`.
pub(crate) fn cdf_points(sorted_values: &[f64]) -> Vec<(f64, f64)> {
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
        assert!(Scale::Tiny.raw_towers() < Scale::Full.raw_towers());
        assert!(Scale::Tiny.us_budget_towers() < Scale::Full.us_budget_towers());
        assert_eq!(Scale::Full.us_sites(), None);
        assert_eq!(Scale::Tiny.label(), "tiny");
    }

    #[test]
    fn the_memo_builds_one_world_per_region_and_one_scenario_per_hop_config() {
        let ctx = Context::new(Scale::Tiny);
        let us = ctx.us();
        let restricted = HopConfig::restricted(70.0, 1.0);
        let short = ctx.scenario(Region::UnitedStates, restricted);
        assert!(Rc::ptr_eq(
            &short,
            &ctx.scenario(Region::UnitedStates, restricted)
        ));
        ctx.scenario(Region::Europe, HopConfig::paper_baseline());
        assert!(ctx
            .builds()
            .starts_with("worlds 2, scenarios 3, designs 0 ("));
        assert!(Arc::ptr_eq(us.world(), short.world()));
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
