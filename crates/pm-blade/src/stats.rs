//! Where reads are served from, and the engine-global totals a
//! snapshot derives from per-partition counters.
//!
//! The [`MetricsRegistry`](crate::telemetry::MetricsRegistry) is the
//! engine's only counter store, and each event is counted once, at its
//! finest label: a successful `get` bumps `partition_reads{p}` and one
//! `read_source_*{p}`, a group commit bumps `partition_group_commits{p}`
//! and `partition_grouped_writes{p}`. The global series callers know
//! (`gets`, `reads_from_*`, `read_misses`, `group_commits`,
//! `grouped_writes`) exist only in snapshots, summed by [`roll_up`].

use std::collections::BTreeMap;

use crate::telemetry::MetricKey;

/// Where a read was ultimately served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadSource {
    /// The DRAM memtable (active or immutable).
    MemTable,
    /// The PM level-0.
    Pm,
    /// An SSD level.
    Ssd,
    /// Key not found anywhere.
    Miss,
}

/// Per-partition counter name → the global total summed from it. The
/// read sources together also sum to `gets`.
const ROLLUPS: [(&str, &str); 6] = [
    ("read_source_memtable", "reads_from_memtable"),
    ("read_source_pm", "reads_from_pm"),
    ("read_source_ssd", "reads_from_ssd"),
    ("read_source_miss", "read_misses"),
    ("partition_group_commits", "group_commits"),
    ("partition_grouped_writes", "grouped_writes"),
];

/// Add the global totals (see the module docs) to `counters`; every
/// total is present, at zero if nothing was counted.
pub(crate) fn roll_up(counters: &mut BTreeMap<MetricKey, u64>) {
    let mut gets = 0;
    for (part, global) in ROLLUPS {
        let total: u64 = counters
            .iter()
            .filter(|(k, _)| k.name == part)
            .map(|(_, v)| v)
            .sum();
        if part.starts_with("read_source_") {
            gets += total;
        }
        counters.insert(MetricKey::global(global), total);
    }
    counters.insert(MetricKey::global("gets"), gets);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricsSnapshot;

    fn snapshot(mut counters: BTreeMap<MetricKey, u64>) -> MetricsSnapshot {
        roll_up(&mut counters);
        MetricsSnapshot::from_parts(0, counters, BTreeMap::new(), BTreeMap::new(), Vec::new(), 0)
    }

    #[test]
    fn read_accounting_routes_by_source() {
        let counters = BTreeMap::from([
            (MetricKey::partition("read_source_memtable", 0), 1),
            (MetricKey::partition("read_source_pm", 0), 1),
            (MetricKey::partition("read_source_pm", 1), 1),
            (MetricKey::level("read_source_ssd", 1, 2), 1),
            (MetricKey::partition("read_source_miss", 0), 1),
        ]);
        let s = snapshot(counters);
        assert_eq!(s.counter("gets"), 5);
        assert_eq!(s.counter("reads_from_memtable"), 1);
        assert_eq!(s.counter("reads_from_pm"), 2);
        assert_eq!(s.counter("reads_from_ssd"), 1);
        assert_eq!(s.counter("read_misses"), 1);
        // 3 of 4 located reads avoided the SSD.
        assert!((s.pm_hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_ratio_is_zero() {
        let s = snapshot(BTreeMap::new());
        assert_eq!(s.pm_hit_ratio(), 0.0);
        assert_eq!(s.counter("gets"), 0);
        assert!(s.counters.contains_key(&MetricKey::global("group_commits")));
    }

    #[test]
    fn group_commits_roll_up_once() {
        let counters = BTreeMap::from([
            (MetricKey::partition("partition_group_commits", 0), 4),
            (MetricKey::partition("partition_group_commits", 1), 6),
            (MetricKey::partition("partition_grouped_writes", 0), 9),
            (MetricKey::partition("partition_grouped_writes", 1), 11),
        ]);
        let s = snapshot(counters);
        assert_eq!(s.counter("group_commits"), 10);
        assert_eq!(s.counter("grouped_writes"), 20);
    }
}
