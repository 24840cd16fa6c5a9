//! Arena-backed storage for many short paths.
//!
//! The packet simulator installs one source route per demand; at the
//! ROADMAP's "millions of users" target a `Vec<Vec<LinkId>>` routing table
//! is millions of separate heap allocations, each its own cache miss.
//! [`PathStore`] packs every path into two flat arrays — a shared link-id
//! arena plus an offset array — so the whole table is two allocations,
//! `path(k)` is a slice view, and iterating routes streams memory linearly.
//! Link ids are stored as `u32` (4 billion links is far beyond any network
//! here), halving the arena's footprint relative to `usize` ids.

/// A compact arena of paths: `offsets[k]..offsets[k + 1]` delimits path `k`
/// in the shared `links` array. `offsets` always starts with 0 (and so is
/// never empty) — `Default` goes through [`PathStore::new`] to uphold that.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStore {
    offsets: Vec<usize>,
    links: Vec<u32>,
}

impl Default for PathStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PathStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            links: Vec::new(),
        }
    }

    /// An empty store with room for `paths` paths of `total_links` links in
    /// aggregate (no reallocation until those are exceeded).
    pub fn with_capacity(paths: usize, total_links: usize) -> Self {
        let mut offsets = Vec::with_capacity(paths + 1);
        offsets.push(0);
        Self {
            offsets,
            links: Vec::with_capacity(total_links),
        }
    }

    /// Append a path; returns its index. An empty slice records an empty
    /// path (unroutable / zero-hop demands keep their slot).
    pub fn push_path(&mut self, links: &[u32]) -> usize {
        self.links.extend_from_slice(links);
        self.offsets.push(self.links.len());
        self.offsets.len() - 2
    }

    /// Append a path from an iterator; returns its index.
    pub fn push_path_from(&mut self, links: impl IntoIterator<Item = u32>) -> usize {
        self.links.extend(links);
        self.offsets.push(self.links.len());
        self.offsets.len() - 2
    }

    /// Path `k` as a slice of link ids.
    #[inline]
    pub fn path(&self, k: usize) -> &[u32] {
        &self.links[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Number of links in path `k` without materialising the slice.
    #[inline]
    pub fn path_len(&self, k: usize) -> usize {
        self.offsets[k + 1] - self.offsets[k]
    }

    /// Number of stored paths.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when no paths are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of links across all paths (the arena length).
    #[inline]
    pub fn total_links(&self) -> usize {
        self.links.len()
    }

    /// Iterate all paths in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(move |k| self.path(k))
    }

    /// Drop every path, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.links.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_a_valid_empty_store() {
        let mut store = PathStore::default();
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert_eq!(store.push_path(&[3]), 0);
        assert_eq!(store.path(0), &[3]);
    }

    #[test]
    fn push_and_read_back() {
        let mut store = PathStore::new();
        assert!(store.is_empty());
        assert_eq!(store.push_path(&[1, 2, 3]), 0);
        assert_eq!(store.push_path(&[]), 1);
        assert_eq!(store.push_path_from([7u32, 8]), 2);
        assert_eq!(store.len(), 3);
        assert_eq!(store.path(0), &[1, 2, 3]);
        assert_eq!(store.path(1), &[] as &[u32]);
        assert_eq!(store.path(2), &[7, 8]);
        assert_eq!(store.path_len(0), 3);
        assert_eq!(store.path_len(1), 0);
        assert_eq!(store.total_links(), 5);
    }

    #[test]
    fn iter_visits_paths_in_order() {
        let mut store = PathStore::with_capacity(2, 4);
        store.push_path(&[4]);
        store.push_path(&[5, 6]);
        let collected: Vec<Vec<u32>> = store.iter().map(|p| p.to_vec()).collect();
        assert_eq!(collected, vec![vec![4], vec![5, 6]]);
    }

    #[test]
    fn clear_keeps_allocations() {
        let mut store = PathStore::with_capacity(4, 16);
        store.push_path(&[1, 2]);
        store.push_path(&[3]);
        let arena_ptr = store.links.as_ptr();
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.total_links(), 0);
        store.push_path(&[9]);
        assert_eq!(store.path(0), &[9]);
        assert_eq!(store.links.as_ptr(), arena_ptr, "arena reused");
    }

    #[test]
    #[should_panic]
    fn out_of_range_path_panics() {
        PathStore::new().path(0);
    }
}
