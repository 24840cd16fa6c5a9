//! Balanced link partitions and conservative lookahead for the windowed
//! packet engine.
//!
//! The paper's actual workload is one giant mesh: on the paper-scale
//! backbone the active flows form 25 link-disjoint components, one holding
//! 14 018 of the 14 042 flows and 99.97 % of the expected packets, the
//! other 24 one-link routes, which have nothing to cut. So the simulator
//! does not spread components over workers; conservative time-windowed
//! execution parallelises a run over all its flows at once: their links
//! are split into per-worker shards, each shard simulates only the events
//! on its own links, and a packet crossing from one shard's link onto
//! another's is exchanged at a window barrier. That is safe exactly when
//! the window never exceeds the partition's *lookahead*: a packet leaving
//! link `a` reaches the next link no earlier than `delay[a]` (its
//! propagation) after the event that sent it, so any window no longer than
//! the minimum such delay over boundary transitions cannot miss a
//! cross-shard event.
//!
//! This module provides the two partition-side pieces:
//!
//! * [`partition_path_links`] — a deterministic balanced edge-partition
//!   heuristic over the links referenced by a set of paths (BFS-grown
//!   clusters over the consecutive-in-some-path adjacency, seeded in
//!   first-appearance order, each grown to the balanced target size on the
//!   currently least-loaded shard). BFS growth keeps route segments
//!   together, which is what keeps the cut — and with it the number of
//!   boundary exchanges — small.
//! * [`partition_lookahead`] — the conservative window bound of a partition:
//!   the minimum `delay` of any link immediately upstream of a shard
//!   boundary, `+∞` when no path crosses shards.
//!
//! Both operate on the flat CSR-style link-id world of [`crate::PathStore`]
//! paths: a path is a `&[u32]` of link ids, and per-link attributes are flat
//! arrays indexed by id.

use std::collections::VecDeque;

/// Partition the links referenced by `paths` into at most `shards` balanced
/// groups, writing the shard id of every referenced link into `owner`
/// (entries for unreferenced links are left untouched). Returns the number
/// of distinct links assigned.
///
/// The heuristic is deterministic: clusters are seeded in first-appearance
/// order, grown breadth-first over the consecutive-in-some-path link
/// adjacency up to the balanced target size `ceil(used / shards)`, and each
/// cluster lands on the currently least-loaded shard (ties to the lowest
/// shard id).
pub fn partition_path_links(paths: &[&[u32]], shards: usize, owner: &mut [u32]) -> usize {
    assert!(shards > 0, "at least one shard");
    // Local ids in first-appearance order make the result independent of
    // how sparse the global link-id space is.
    let mut local: Vec<u32> = vec![u32::MAX; owner.len()];
    let mut used: Vec<u32> = Vec::new();
    for path in paths {
        for &l in *path {
            if local[l as usize] == u32::MAX {
                local[l as usize] = used.len() as u32;
                used.push(l);
            }
        }
    }
    if used.is_empty() {
        return 0;
    }
    if shards == 1 {
        for &l in &used {
            owner[l as usize] = 0;
        }
        return used.len();
    }

    // Adjacency between links that appear consecutively in some path — the
    // transitions that become boundary exchanges if cut.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); used.len()];
    for path in paths {
        for pair in path.windows(2) {
            let (a, b) = (local[pair[0] as usize], local[pair[1] as usize]);
            if a != b {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
    }

    let target = used.len().div_ceil(shards);
    let mut assigned = vec![false; used.len()];
    let mut shard_sizes = vec![0usize; shards];
    let mut queue: VecDeque<u32> = VecDeque::new();
    for seed in 0..used.len() as u32 {
        if assigned[seed as usize] {
            continue;
        }
        let shard = (0..shards)
            .min_by_key(|&s| (shard_sizes[s], s))
            .expect("at least one shard");
        queue.clear();
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            if assigned[v as usize] {
                continue;
            }
            assigned[v as usize] = true;
            owner[used[v as usize] as usize] = shard as u32;
            shard_sizes[shard] += 1;
            if shard_sizes[shard] >= target {
                // Cluster full: links still queued stay unassigned and seed
                // later clusters.
                break;
            }
            for &nb in &adj[v as usize] {
                if !assigned[nb as usize] {
                    queue.push_back(nb);
                }
            }
        }
    }
    used.len()
}

/// Conservative lookahead of a partition: the minimum `delay[a]` over every
/// consecutive pair `(a, b)` in `paths` with `owner[a] != owner[b]`, or
/// `+∞` when no path crosses a shard boundary. A packet finishing on link
/// `a` at any time `t` cannot generate an event on `b` before `t + delay[a]`,
/// so windows of at most this length never need mid-window exchanges.
pub fn partition_lookahead(paths: &[&[u32]], owner: &[u32], delay: &[f64]) -> f64 {
    let mut lookahead = f64::INFINITY;
    for path in paths {
        for pair in path.windows(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            if owner[a] != owner[b] {
                lookahead = lookahead.min(delay[a]);
            }
        }
    }
    lookahead
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain of paths over 8 links: 0–1–2–3 and 4–5–6–7 plus a bridge 3–4.
    fn chain_paths() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![3, 4]]
    }

    #[test]
    fn partition_is_balanced_and_covers_every_used_link() {
        let paths = chain_paths();
        let views: Vec<&[u32]> = paths.iter().map(|p| p.as_slice()).collect();
        let mut owner = vec![u32::MAX; 8];
        let used = partition_path_links(&views, 2, &mut owner);
        assert_eq!(used, 8);
        let mut sizes = [0usize; 2];
        for &o in &owner {
            assert!(o < 2, "every used link assigned");
            sizes[o as usize] += 1;
        }
        assert_eq!(sizes, [4, 4], "balanced halves: {owner:?}");
        // BFS growth keeps the chain contiguous: exactly one cut transition.
        let delay = vec![1.0; 8];
        let cuts: usize = views
            .iter()
            .flat_map(|p| p.windows(2))
            .filter(|pair| owner[pair[0] as usize] != owner[pair[1] as usize])
            .count();
        assert_eq!(cuts, 1, "{owner:?}");
        assert_eq!(partition_lookahead(&views, &owner, &delay), 1.0);
    }

    #[test]
    fn random_partitions_cover_every_used_link_within_one_link_of_balance() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..300 {
            let links = 1 + next(40) as usize;
            let paths: Vec<Vec<u32>> = (0..1 + next(12))
                .map(|_| {
                    (0..1 + next(6))
                        .map(|_| next(links as u64) as u32)
                        .collect()
                })
                .collect();
            let views: Vec<&[u32]> = paths.iter().map(|p| p.as_slice()).collect();
            let shards = 1 + next(5) as usize;
            let mut owner = vec![u32::MAX; links];
            let used = partition_path_links(&views, shards, &mut owner);
            let mut is_used = vec![false; links];
            views
                .iter()
                .flat_map(|p| p.iter())
                .for_each(|&l| is_used[l as usize] = true);
            assert_eq!(used, is_used.iter().filter(|&&u| u).count(), "case {case}");
            let mut sizes = vec![0usize; shards];
            for l in (0..links).filter(|&l| is_used[l]) {
                assert!((owner[l] as usize) < shards, "case {case}: link {l}");
                sizes[owner[l] as usize] += 1;
            }
            let largest = sizes.iter().copied().max().unwrap_or(0);
            assert!(
                largest <= used.div_ceil(shards),
                "case {case}: {sizes:?} over {used} links"
            );
        }
    }

    #[test]
    fn single_shard_has_infinite_lookahead() {
        let paths = chain_paths();
        let views: Vec<&[u32]> = paths.iter().map(|p| p.as_slice()).collect();
        let mut owner = vec![u32::MAX; 8];
        partition_path_links(&views, 1, &mut owner);
        assert!(owner.iter().all(|&o| o == 0));
        assert_eq!(
            partition_lookahead(&views, &owner, &[0.5; 8]),
            f64::INFINITY
        );
    }

    #[test]
    fn lookahead_is_minimum_upstream_delay_of_the_cut() {
        // Two links in different shards; the upstream link's delay bounds
        // the window, whatever the downstream delay is.
        let paths: Vec<&[u32]> = vec![&[0, 1]];
        let owner = vec![0, 1];
        assert_eq!(partition_lookahead(&paths, &owner, &[0.002, 1e9]), 0.002);
    }

    #[test]
    fn more_shards_than_links_leaves_no_shard_oversized() {
        let paths: Vec<&[u32]> = vec![&[2, 5]];
        let mut owner = vec![u32::MAX; 6];
        let used = partition_path_links(&paths, 4, &mut owner);
        assert_eq!(used, 2);
        assert!(owner[2] < 4 && owner[5] < 4);
        // Unreferenced links are untouched.
        assert_eq!(owner[0], u32::MAX);
        assert_eq!(owner[1], u32::MAX);
    }

    #[test]
    fn empty_and_degenerate_paths_assign_nothing() {
        let views: Vec<&[u32]> = vec![&[]];
        let mut owner = vec![7u32; 3];
        assert_eq!(partition_path_links(&views, 3, &mut owner), 0);
        assert_eq!(owner, vec![7, 7, 7]);
        assert_eq!(
            partition_lookahead(&views, &owner, &[1.0; 3]),
            f64::INFINITY
        );
    }

    #[test]
    fn disconnected_islands_fill_least_loaded_shards() {
        // Four independent 2-link paths, 3 shards: 8 links, target 3 — the
        // heuristic must still assign every link to a valid shard.
        let paths: Vec<&[u32]> = vec![&[0, 1], &[2, 3], &[4, 5], &[6, 7]];
        let mut owner = vec![u32::MAX; 8];
        let used = partition_path_links(&paths, 3, &mut owner);
        assert_eq!(used, 8);
        let mut sizes = [0usize; 3];
        for &o in &owner {
            assert!(o < 3);
            sizes[o as usize] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s <= 3), "{sizes:?}");
        // Islands have no inter-island adjacency, so at most the island that
        // hits the balanced size cap is split — the cut stays small.
        let cuts = paths
            .iter()
            .flat_map(|p| p.windows(2))
            .filter(|pair| owner[pair[0] as usize] != owner[pair[1] as usize])
            .count();
        assert!(cuts <= 1, "{owner:?}");
    }
}
