//! The metrics this benchmark declares — the same names, units, directions
//! and bounds as `BENCHMARK.json` (a unit test keeps the two in step).

/// An end-to-end metric: reported by every workload from the untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated quantities repeat exactly for a fixed seed; host
    /// measurements carry the noise.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        exact: false,
    },
    EndToEnd {
        name: "latency_inflation_pct",
        unit: "%",
        better: "lower",
        bound: 0.01,
        exact: true,
    },
];

/// Per-layer metrics: reported by every workload from the traced run, 0 for
/// a layer the workload's op does not enter. `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("terrain.elevation_ns", "ns"),
    ("data.towers_synth_s", "s"),
    ("data.towers", "count"),
    ("data.fiber_synth_s", "s"),
    ("data.fiber_matrix_s", "s"),
    ("core.hops.new_s", "s"),
    ("core.hops.sweep_s", "s"),
    ("core.hops.sweep_cpu_s", "s"),
    ("core.hops.pairs", "count"),
    ("core.hops.feasible_share", "ratio"),
    ("core.hops.ns_per_pair", "ns"),
    ("core.links.attach_s", "s"),
    ("core.links.pool_s", "s"),
    ("core.links.candidates", "count"),
    ("core.design.greedy_s", "s"),
    ("core.design.greedy_rounds", "count"),
    ("core.design.ms_per_round", "ms"),
    ("core.design.cisp_s", "s"),
    ("core.design.cisp_cpu_s", "s"),
    ("core.design.selected_links", "count"),
    ("core.design.total_towers", "count"),
    ("core.topology.add_link_us", "us"),
    ("core.topology.conduit_ground_s", "s"),
    ("core.evaluate.lower_s", "s"),
    ("core.evaluate.links", "count"),
    ("core.evaluate.demands", "count"),
    ("core.evaluate.pair_rtts_s", "s"),
    ("netsim.routing.routes_s", "s"),
    ("netsim.routing.reroute_ms", "ms"),
    ("netsim.sim.new_s", "s"),
    ("netsim.sim.run_s", "s"),
    ("netsim.sim.run_cpu_s", "s"),
    ("netsim.sim.events", "count"),
    ("netsim.sim.ns_per_event", "ns"),
    ("netsim.sim.components", "count"),
    ("netsim.sim.short_run_ms", "ms"),
    ("netsim.sim.short_ns_per_event", "ns"),
    ("netsim.fluid.solve_s", "s"),
    ("netsim.fluid.hybrid_run_s", "s"),
    ("netsim.fluid.events_avoided", "count"),
    ("apps.gaming_s", "s"),
    ("apps.web_replay_s", "s"),
    ("weather.year_gen_s", "s"),
    ("weather.link_failures_ms", "ms"),
    ("weather.year_s", "s"),
    ("weather.storm_sweep_s", "s"),
    ("weather.resim_intervals", "count"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    /// The `"name": "..."` values inside the array that follows `"key":`.
    fn names_in(key: &str) -> Vec<String> {
        let start = MANIFEST
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let section = &MANIFEST[start..];
        let section = &section[..section.find(']').expect("array is closed")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                rest.split('"')
                    .nth(1)
                    .expect("name is a string")
                    .to_string()
            })
            .collect()
    }

    fn is_valid_name(name: &str) -> bool {
        let charset = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(charset)
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &all {
            assert!(is_valid_name(name), "bad name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn declared_names_match_benchmark_json() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in("per_layer"), layers);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_in("workloads"), workloads);
    }

    /// The settings under `[profile.release]` of a manifest.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// A package outside the workspace cannot inherit the workspace's
    /// profile, so it is copied; this keeps the copy from drifting.
    #[test]
    fn release_profile_is_the_root_manifests() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
        let root = std::fs::read_to_string(root).expect("the root manifest is readable");
        let own = release_profile(include_str!("../Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, release_profile(&root));
    }

    #[test]
    fn declared_bounds_and_units_match_benchmark_json() {
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(MANIFEST.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (name, unit) in &PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(MANIFEST.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
