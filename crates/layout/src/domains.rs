//! Failure domains: which disks share a rack (or host, or switch).
//!
//! Cross-domain traffic is the expensive kind — the oversubscribed
//! aggregation links between racks, not the top-of-rack switch. A
//! [`DomainMap`] labels each disk with its failure domain so the repair
//! planner and degraded reads can prefer helpers inside the reader's
//! domain and count the reads that had to cross anyway. The default,
//! [`DomainMap::single`], puts every disk in one domain and reproduces
//! the previous (domain-blind) behaviour exactly.

/// Disk → failure-domain labels for an array of `n` disks.
///
/// Domains are small dense integers (`0..n_domains`); the map is just
/// the label vector, cheap to clone and compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainMap {
    labels: Vec<usize>,
    n_domains: usize,
}

impl DomainMap {
    /// Every disk in one domain — the domain-blind default. Ranking by
    /// domain becomes a constant and all prior behaviour is preserved.
    pub fn single(n_disks: usize) -> Self {
        Self {
            labels: vec![0; n_disks],
            n_domains: usize::from(n_disks > 0),
        }
    }

    /// `n_disks` split into `n_domains` contiguous runs of (near-)equal
    /// size: disks `0..ceil(n/d)` in domain 0, and so on. The common
    /// "racks of adjacent shards" deployment.
    ///
    /// # Panics
    /// If `n_domains` is zero, or exceeds `n_disks`.
    pub fn contiguous(n_disks: usize, n_domains: usize) -> Self {
        assert!(n_domains > 0, "at least one failure domain");
        assert!(
            n_domains <= n_disks,
            "more domains ({n_domains}) than disks ({n_disks})"
        );
        let per = n_disks.div_ceil(n_domains);
        Self {
            labels: (0..n_disks).map(|d| d / per).collect(),
            n_domains,
        }
    }

    /// Explicit labels, one per disk. Labels need not be dense — they
    /// are compacted to `0..n_domains` preserving first-appearance
    /// order, so `[7, 7, 3]` becomes `[0, 0, 1]`.
    ///
    /// # Panics
    /// If `labels` is empty.
    pub fn from_labels(labels: &[usize]) -> Self {
        assert!(!labels.is_empty(), "at least one disk");
        let mut seen: Vec<usize> = Vec::new();
        let labels = labels
            .iter()
            .map(|&l| {
                seen.iter().position(|&s| s == l).unwrap_or_else(|| {
                    seen.push(l);
                    seen.len() - 1
                })
            })
            .collect();
        Self {
            n_domains: seen.len(),
            labels,
        }
    }

    /// Number of distinct domains.
    pub fn n_domains(&self) -> usize {
        self.n_domains
    }

    /// Number of disks the map covers.
    pub fn n_disks(&self) -> usize {
        self.labels.len()
    }

    /// `true` when `a` and `b` share a failure domain — reading from
    /// `b` to repair `a` stays inside the rack.
    pub fn same_domain(&self, a: usize, b: usize) -> bool {
        self.labels[a] == self.labels[b]
    }
}

#[cfg(test)]
mod tests {
    use super::DomainMap;

    #[test]
    fn single_puts_everything_in_domain_zero() {
        let m = DomainMap::single(9);
        assert_eq!(m.n_domains(), 1);
        assert_eq!(m.n_disks(), 9);
        assert_eq!(m.labels, [0; 9]);
        assert!(m.same_domain(0, 8));
    }

    #[test]
    fn contiguous_splits_into_equal_runs() {
        let m = DomainMap::contiguous(9, 3);
        assert_eq!(m.n_domains(), 3);
        assert_eq!(m.labels, [0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert!(m.same_domain(0, 2));
        assert!(!m.same_domain(2, 3));
    }

    #[test]
    fn contiguous_handles_uneven_split() {
        // 10 disks over 3 domains: runs of 4, 4, 2.
        let m = DomainMap::contiguous(10, 3);
        assert_eq!(m.labels, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        assert_eq!(m.n_domains(), 3);
    }

    #[test]
    fn from_labels_compacts_sparse_labels() {
        let m = DomainMap::from_labels(&[7, 7, 3, 7, 9]);
        assert_eq!(m.labels, [0, 0, 1, 0, 2]);
        assert_eq!(m.n_domains(), 3);
    }

    #[test]
    #[should_panic(expected = "more domains")]
    fn contiguous_rejects_more_domains_than_disks() {
        let _ = DomainMap::contiguous(2, 3);
    }
}
