//! End-to-end engine behaviour across every tier, driven hard enough
//! that data flows memtable → PM level-0 → internal compaction →
//! SSD levels within one test.

use pm_blade::stats::ReadSource;
use pm_blade::{CompactionRequest, Mode, Partitioner, ScanRequest};
use pmblade_integration_tests::{key_for, tiny_db, tiny_options, value_for};

#[test]
fn full_lifecycle_reads_stay_correct() {
    let db = tiny_db(Mode::PmBlade);
    // Phase 1: 6000 unique keys x ~420B ≈ 2.5 MiB of distinct data
    // through a 2 MiB PM pool — the level-0 must spill to the SSD.
    let n = 6_000u64;
    for i in 0..n {
        db.put(&key_for(i), &value_for(i, 400)).unwrap();
    }
    // Phase 2: update every third key so newer versions shadow spilled
    // ones across tiers.
    for i in (0..n).step_by(3) {
        db.put(&key_for(i), &value_for(i + 1_000_000, 400)).unwrap();
    }
    let snap = db.metrics_snapshot();
    assert!(snap.counter("minor_compactions") > 10);
    assert!(
        snap.counter("major_compactions") >= 1,
        "PM must have filled"
    );
    for k in (0..n).step_by(97) {
        let expected = if k % 3 == 0 {
            value_for(k + 1_000_000, 400)
        } else {
            value_for(k, 400)
        };
        let out = db.get(&key_for(k)).unwrap();
        assert_eq!(
            out.value.expect("key present"),
            expected,
            "key {k} returned a stale version"
        );
    }
}

#[test]
fn reads_route_through_expected_tiers() {
    let db = tiny_db(Mode::PmBlade);
    db.put(b"in-memtable", b"1").unwrap();
    let out = db.get(b"in-memtable").unwrap();
    assert_eq!(out.source, ReadSource::MemTable);

    db.compact(CompactionRequest::FlushAll).unwrap();
    let out = db.get(b"in-memtable").unwrap();
    assert_eq!(out.source, ReadSource::Pm);

    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    let out = db.get(b"in-memtable").unwrap();
    assert_eq!(out.source, ReadSource::Ssd);
    assert_eq!(out.value.as_deref(), Some(&b"1"[..]));

    let miss = db.get(b"never-written").unwrap();
    assert_eq!(miss.source, ReadSource::Miss);
    assert!(miss.value.is_none());
}

#[test]
fn deletes_survive_every_compaction_boundary() {
    let db = tiny_db(Mode::PmBlade);
    for i in 0..200u64 {
        db.put(&key_for(i), b"live").unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap(); // values now on SSD
                   // Delete half, then push tombstones through the same path.
    for i in (0..200u64).step_by(2) {
        db.delete(&key_for(i)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    for i in 0..200u64 {
        let out = db.get(&key_for(i)).unwrap();
        if i % 2 == 0 {
            assert!(out.value.is_none(), "key {i} should be deleted");
        } else {
            assert_eq!(out.value.as_deref(), Some(&b"live"[..]));
        }
    }
}

#[test]
fn scans_agree_with_point_reads_across_tiers() {
    let db = tiny_db(Mode::PmBlade);
    for i in 0..500u64 {
        db.put(&key_for(i), &value_for(i, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    // Overwrite a band in the memtable so the scan must merge tiers.
    for i in 100..120u64 {
        db.put(&key_for(i), b"fresh").unwrap();
    }
    let (rows, _) = db
        .scan(
            ScanRequest::new()
                .start(key_for(90))
                .end(key_for(130))
                .limit(1000),
        )
        .unwrap();
    assert_eq!(rows.len(), 40);
    for (k, v) in &rows {
        let point = db.get(k).unwrap().value.unwrap();
        assert_eq!(*v, point, "scan and get disagree on {k:?}");
    }
}

#[test]
fn partitioned_and_single_engines_agree() {
    let single = tiny_db(Mode::PmBlade);
    let parts = {
        let mut opts = tiny_options(Mode::PmBlade);
        opts.partitioner = Partitioner::numeric("key", 1_000, 4);
        pm_blade::Db::open(opts).unwrap()
    };
    let mut rng = sim::Pcg64::seeded(555);
    for _ in 0..3_000 {
        let i = rng.next_below(1_000);
        if rng.next_f64() < 0.1 {
            single.delete(&key_for(i)).unwrap();
            parts.delete(&key_for(i)).unwrap();
        } else {
            let v = value_for(i + rng.next_below(100), 100);
            single.put(&key_for(i), &v).unwrap();
            parts.put(&key_for(i), &v).unwrap();
        }
    }
    for i in 0..1_000u64 {
        let a = single.get(&key_for(i)).unwrap().value;
        let b = parts.get(&key_for(i)).unwrap().value;
        assert_eq!(a, b, "partitioning changed visibility of key {i}");
    }
    // Cross-partition scan equals single-partition scan.
    let range = ScanRequest::new()
        .start(key_for(200))
        .end(key_for(300))
        .limit(500);
    let (sa, _) = single.scan(range.clone()).unwrap();
    let (pa, _) = parts.scan(range).unwrap();
    assert_eq!(sa, pa);
}

#[test]
fn virtual_clock_advances_with_work() {
    let db = tiny_db(Mode::PmBlade);
    let t0 = db.now();
    for i in 0..100u64 {
        db.put(&key_for(i), b"x").unwrap();
    }
    let t1 = db.now();
    assert!(t1 > t0, "writes advance the engine clock");
    db.get(&key_for(5)).unwrap();
    assert!(db.now() > t1, "reads advance the engine clock");
}
