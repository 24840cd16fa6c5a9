//! Fig. 7 — stretch across city pairs over a year of weather.
//!
//! The designed US network is subjected to the synthetic precipitation year;
//! for each daily 30-minute interval the rain-failed links are removed and
//! every pair falls back to its shortest surviving route. Output: the four
//! CDFs the paper plots — best (fair weather), 99th percentile, worst, and
//! fiber-only stretch — over all city pairs.

use cisp_bench::{cdf_points, print_series, us_scenario, Scale};
use cisp_weather::failures::FailureConfig;
use cisp_weather::reroute::{weather_year_analysis, WeatherSeries};
use cisp_weather::storms::{StormYear, StormYearConfig};

fn main() {
    let scale = Scale::from_args();
    println!("# Fig. 7 reproduction — scale: {}", scale.label());

    let scenario = us_scenario(scale, 42);
    let outcome = scenario.design(scale.us_budget_towers());

    let days = match scale {
        Scale::Tiny => 60,
        Scale::Reduced => 180,
        Scale::Full => 365,
    };
    let year = StormYear::generate(
        scenario.config().seed,
        &StormYearConfig {
            days,
            ..StormYearConfig::us_default()
        },
    );

    let report = weather_year_analysis(&outcome.topology, &year, &FailureConfig::default());
    println!(
        "# intervals: {}, mean failed links per interval: {:.2}",
        report.intervals, report.mean_failed_links
    );
    println!("# failure sweep: {}", report.failure_sweep);
    println!(
        "# {} distinct failure sets, {} one-link closure sweeps",
        report.distinct_failure_sets, report.closure_sweeps
    );

    for (series, label) in [
        (WeatherSeries::Best, "best"),
        (WeatherSeries::P99, "99th percentile"),
        (WeatherSeries::Worst, "worst"),
        (WeatherSeries::FiberOnly, "fiber"),
    ] {
        let sorted = report.sorted_series(series);
        print_series(
            &format!("CDF of stretch over geodesic, {label}"),
            &cdf_points(&sorted),
        );
        println!("# median {label}: {:.3}", report.median(series));
    }
}
