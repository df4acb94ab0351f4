//! Every engine mode (PMBlade, PMBlade-PM, SSD level-0, MatrixKV) must
//! agree on *what* the data is — they may only differ in *where* it
//! lives and what it costs. The same holds across the two
//! [`MaintenanceMode`]s: Inline and Background may schedule compactions
//! differently, but never disagree on contents.

use pm_blade::{CompactionRequest, Db, MaintenanceMode, Mode, ScanRequest};
use pmblade_integration_tests::{key_for, tiny_db, tiny_options, value_for};

const ALL_MODES: [Mode; 4] = [
    Mode::PmBlade,
    Mode::PmBladePm,
    Mode::SsdLevel0,
    Mode::MatrixKv,
];

fn drive(db: &mut Db, seed: u64, ops: usize) {
    let mut rng = sim::Pcg64::seeded(seed);
    for _ in 0..ops {
        let i = rng.next_below(600);
        match rng.next_below(10) {
            0 => {
                db.delete(&key_for(i)).unwrap();
            }
            _ => {
                let version = rng.next_below(1_000);
                db.put(&key_for(i), &value_for(i * 7 + version, 120))
                    .unwrap();
            }
        }
    }
}

#[test]
fn all_modes_agree_on_contents() {
    let mut reference: Option<Vec<Option<Vec<u8>>>> = None;
    for mode in ALL_MODES {
        let mut db = tiny_db(mode);
        drive(&mut db, 42, 4_000);
        db.compact(CompactionRequest::FlushAll).unwrap();
        let view: Vec<Option<Vec<u8>>> = (0..600u64)
            .map(|i| db.get(&key_for(i)).unwrap().value)
            .collect();
        match &reference {
            None => reference = Some(view),
            Some(expect) => {
                for (i, (a, b)) in expect.iter().zip(&view).enumerate() {
                    assert_eq!(a, b, "mode {mode:?} disagrees on key {i}");
                }
            }
        }
    }
}

/// A fixed workload must produce the identical final key/value state
/// whether maintenance ran inline at the trigger points or on the
/// background workers. `close()` drains the queue before the final
/// flush, so the Background run is fully settled when compared.
#[test]
fn inline_and_background_agree_on_contents() {
    let mut reference: Option<Vec<Option<Vec<u8>>>> = None;
    for maintenance in [MaintenanceMode::Inline, MaintenanceMode::Background] {
        let mut opts = tiny_options(Mode::PmBlade);
        opts.maintenance = maintenance;
        let mut db = Db::open(opts).expect("engine opens");
        drive(&mut db, 42, 4_000);
        db.close();
        db.compact(CompactionRequest::FlushAll).unwrap();
        let view: Vec<Option<Vec<u8>>> = (0..600u64)
            .map(|i| db.get(&key_for(i)).unwrap().value)
            .collect();
        match &reference {
            None => reference = Some(view),
            Some(expect) => {
                for (i, (a, b)) in expect.iter().zip(&view).enumerate() {
                    assert_eq!(a, b, "{maintenance:?} disagrees on key {i}");
                }
            }
        }
    }
}

#[test]
fn all_modes_agree_on_scans() {
    let mut reference: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    for mode in ALL_MODES {
        let mut db = tiny_db(mode);
        drive(&mut db, 99, 2_500);
        let (rows, _) = db
            .scan(
                ScanRequest::new()
                    .start(key_for(100))
                    .end(key_for(400))
                    .limit(10_000),
            )
            .unwrap();
        match &reference {
            None => reference = Some(rows),
            Some(expect) => {
                assert_eq!(expect, &rows, "mode {mode:?} scan differs");
            }
        }
    }
}

#[test]
fn pm_modes_use_pm_and_ssd_mode_does_not() {
    for mode in ALL_MODES {
        let db = tiny_db(mode);
        for i in 0..500u64 {
            db.put(&key_for(i), &value_for(i, 200)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        match mode {
            Mode::SsdLevel0 => {
                assert_eq!(db.pm_used(), 0, "{mode:?} must not touch PM")
            }
            _ => assert!(db.pm_used() > 0, "{mode:?} must use PM"),
        }
    }
}

#[test]
fn write_amplification_ordering_between_modes() {
    // The paper's central WA claim at miniature scale: with a dataset
    // larger than PM, PM-Blade writes less to the SSD than the
    // RocksDB-like configuration.
    let mut ssd_mode = tiny_db(Mode::SsdLevel0);
    let mut blade = tiny_db(Mode::PmBlade);
    for db in [&mut ssd_mode, &mut blade] {
        let mut rng = sim::Pcg64::seeded(7);
        for _ in 0..6_000 {
            let i = rng.next_below(1_500);
            db.put(&key_for(i), &value_for(i, 300)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
    }
    let ssd_wa = ssd_mode.write_amp();
    let blade_wa = blade.write_amp();
    let (ssd_writes, blade_ssd) = (ssd_wa.ssd_bytes, blade_wa.ssd_bytes);
    assert_eq!(ssd_wa.user_bytes, blade_wa.user_bytes);
    assert!(
        blade_ssd < ssd_writes,
        "pm-blade ssd bytes {blade_ssd} must undercut rocksdb-like {ssd_writes}"
    );
}

#[test]
fn matrixkv_costs_more_to_flush_than_pmblade() {
    // The matrix container's construction overhead (cross-hints) makes
    // its minor compactions slower — the reason it loses the YCSB Load
    // race in Fig 12.
    let mut blade = tiny_db(Mode::PmBlade);
    let mut matrix = tiny_db(Mode::MatrixKv);
    for db in [&mut blade, &mut matrix] {
        for i in 0..1_000u64 {
            db.put(&key_for(i), &value_for(i, 256)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
    }
    let flush_time = |db: &Db| -> sim::SimDuration {
        db.metrics_snapshot()
            .spans
            .iter()
            .filter(|s| s.kind == pm_blade::SpanKind::Flush)
            .map(|s| s.duration())
            .sum()
    };
    assert!(flush_time(&matrix) > flush_time(&blade));
}
