//! Miniature versions of the paper's headline results, run as tests so
//! regressions in any subsystem surface as failed *shapes*, not just
//! failed units.

use coroutine::{Policy, Scheduler, SchedulerConfig, TraceParams};
use pm_blade::{CompactionRequest, Db, Mode};
use pmblade_integration_tests::{key_for, tiny_db, tiny_options, value_for};

/// Fig 7(a): with internal compaction, level-0 read latency stays far
/// below the no-internal-compaction configuration as data accumulates.
#[test]
fn internal_compaction_caps_read_amplification() {
    let mut with = {
        let mut opts = tiny_options(Mode::PmBlade);
        // Bloom filters prune most unsorted-table probes, which would
        // mask the read-amp gap this shape measures; turn them off so
        // the comparison stays pure table-search amplification.
        opts.pm_table.filter_bits_per_key = 0;
        Db::open(opts).unwrap()
    };
    let mut without = {
        let mut opts = tiny_options(Mode::PmBladePm);
        // Keep its level-0 resident so the comparison is pure read-amp.
        opts.l0_table_trigger = usize::MAX;
        opts.tau_m = usize::MAX;
        opts.pm_table.filter_bits_per_key = 0;
        Db::open(opts).unwrap()
    };
    for db in [&mut with, &mut without] {
        let mut rng = sim::Pcg64::seeded(21);
        for _ in 0..4_000 {
            let i = rng.next_below(800);
            db.put(&key_for(i), &value_for(i, 200)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
    }
    let probe = |db: &mut Db| -> sim::SimDuration {
        let mut total = sim::SimDuration::ZERO;
        for i in (0..800u64).step_by(37) {
            total += db.get(&key_for(i)).unwrap().latency;
        }
        total
    };
    let fast = probe(&mut with);
    let slow = probe(&mut without);
    assert!(
        fast.as_nanos() * 2 < slow.as_nanos(),
        "sorted level-0 reads {fast} must clearly beat unsorted {slow}"
    );
}

/// Table IV: the more skewed the updates, the more PM space internal
/// compaction releases.
#[test]
fn space_released_grows_with_skew() {
    let released_at = |skew: f64| -> u64 {
        let mut opts = tiny_options(Mode::PmBlade);
        opts.pm_capacity = 16 << 20;
        opts.tau_m = usize::MAX;
        opts.tau_w = usize::MAX;
        opts.l0_unsorted_hard_cap = usize::MAX;
        opts.scalars.binary_search = sim::SimDuration::ZERO;
        let db = Db::open(opts).unwrap();
        let mut rng = sim::Pcg64::seeded(31);
        let dist = sim::KeyDistribution::zipfian(2_000, skew);
        for _ in 0..4_000 {
            let i = dist.sample(&mut rng, 2_000);
            db.put(&key_for(i), &value_for(i, 300)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        db.compact(CompactionRequest::Internal { partition: 0 })
            .unwrap();
        db.metrics_snapshot().counter("internal_space_released")
    };
    let mild = released_at(0.2);
    let heavy = released_at(0.99);
    assert!(
        heavy > mild,
        "skew 0.99 must release more than skew 0.2: {heavy} vs {mild}"
    );
}

/// Fig 8(b): the cost-based retention keeps a larger share of reads on
/// PM than whole-level eviction.
#[test]
fn retention_beats_whole_level_eviction_on_hit_ratio() {
    let run = |mode: Mode| -> f64 {
        let mut opts = tiny_options(mode);
        opts.partitioner = pm_blade::Partitioner::numeric("key", 2_000, 4);
        let db = Db::open(opts).unwrap();
        // Load 2x PM capacity.
        for i in 0..10_000u64 {
            db.put(&key_for(i % 2_000), &value_for(i, 400)).unwrap();
        }
        // Skewed read phase.
        let mut rng = sim::Pcg64::seeded(47);
        let dist = sim::KeyDistribution::zipfian(2_000, 0.9);
        for step in 0..6_000 {
            let i = dist.sample(&mut rng, 2_000);
            if step % 2 == 0 {
                db.get(&key_for(i)).unwrap();
            } else {
                db.put(&key_for(i), b"update").unwrap();
            }
        }
        db.metrics_snapshot().pm_hit_ratio()
    };
    let blade = run(Mode::PmBlade);
    let conventional = run(Mode::PmBladePm);
    assert!(
        blade > conventional,
        "retention hit ratio {blade} must beat conventional {conventional}"
    );
}

/// Table III / Fig 9: the scheduler reproduces the resource-utilization
/// ordering of §V.
#[test]
fn scheduler_policy_ordering_holds() {
    let params = TraceParams {
        input_bytes: 4 << 20,
        value_size: 256,
        dup_ratio: 0.25,
        ..TraceParams::default()
    };
    let tasks = coroutine::trace::split(&params, 4, 5);
    let run = |policy| {
        Scheduler::new(SchedulerConfig {
            policy,
            cores: 2,
            max_io: 4,
            ..SchedulerConfig::default()
        })
        .run(&tasks)
    };
    let thread = run(Policy::OsThreads);
    let naive = run(Policy::NaiveCoroutine);
    let blade = run(Policy::PmBlade);
    // Robust orderings from §V: both coroutine flavours beat threads on
    // CPU utilization, and the full design has the shortest duration.
    // (blade vs naive CPU utilization can tie within noise on small
    // traces, so allow a small epsilon there.)
    assert!(blade.cpu_utilization >= naive.cpu_utilization - 0.02);
    assert!(blade.cpu_utilization > thread.cpu_utilization);
    assert!(naive.cpu_utilization > thread.cpu_utilization);
    assert!(blade.duration <= naive.duration);
    assert!(naive.duration <= thread.duration);
}

/// Table I anchor: a PM lookup sits between a cached and an SSD lookup,
/// an order of magnitude from the latter.
#[test]
fn tiering_latency_anchors_hold() {
    let db = tiny_db(Mode::PmBlade);
    for i in 0..1_000u64 {
        db.put(&key_for(i), &value_for(i, 100)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();
    let pm_read = db.get(&key_for(500)).unwrap();
    assert_eq!(pm_read.source, pm_blade::stats::ReadSource::Pm);
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    // Cold SSD read (cache may have been warmed by compaction; probe an
    // arbitrary key and compare magnitudes rather than exact numbers).
    let ssd_read = db.get(&key_for(501)).unwrap();
    assert_eq!(ssd_read.source, pm_blade::stats::ReadSource::Ssd);
    assert!(
        pm_read.latency < ssd_read.latency,
        "pm {} must beat ssd {}",
        pm_read.latency,
        ssd_read.latency
    );
}

/// Write amplification decomposition is self-consistent: PM + SSD bytes
/// are at least the user bytes once everything has been flushed.
#[test]
fn write_amplification_accounting_consistent() {
    let db = tiny_db(Mode::PmBlade);
    for i in 0..2_000u64 {
        db.put(&key_for(i), &value_for(i, 256)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    let wa = db.write_amp();
    assert!(wa.user_bytes > 0);
    assert!(
        wa.pm_bytes + wa.ssd_bytes >= wa.user_bytes,
        "{}+{} vs {}",
        wa.pm_bytes,
        wa.ssd_bytes,
        wa.user_bytes
    );
    assert!(wa.factor() >= 1.0);
    // Internal compaction releases space but never loses entries.
    let puts = || db.metrics_snapshot().counter("puts");
    let before_entries = puts();
    db.compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();
    assert_eq!(puts(), before_entries);
    for i in (0..2_000u64).step_by(173) {
        assert!(db.get(&key_for(i)).unwrap().value.is_some());
    }
}
