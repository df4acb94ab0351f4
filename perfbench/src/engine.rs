//! Opening, filling and observing the engine under the benchmark's one
//! flush policy.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pm_blade::{
    CostDecision, Db, EventListener, MaintenanceMode, Options, Partitioner, SpanKind, TraceSpan,
    WriteBatch,
};

use crate::keys::{key, value, Oracle};

/// PM pool size for every workload.
pub const PM_BYTES: usize = 8 << 20;
/// Range partitions over the key domain.
pub const PARTITIONS: usize = 8;
/// Puts per `WriteBatch` when filling an engine.
pub const FILL_BATCH: usize = 1000;

/// The flush policy, printed with every result.
pub fn flush_policy() -> String {
    let o = Options::default();
    format!(
        "maintenance=Inline memtable_bytes={} partitions={PARTITIONS} pm_bytes={PM_BYTES} \
         value_bytes={} keys=user{{:010}} mode=PmBlade",
        o.memtable_bytes,
        crate::keys::VALUE_BYTES
    )
}

/// Background-work and cost-model event counts, from the engine's
/// listener hooks (flush/compaction spans carry virtual durations).
#[derive(Default)]
pub struct Events {
    counts: [AtomicU64; EVENT_NAMES.len()],
}

/// Indexes into [`Events`].
pub const EVENT_NAMES: [&str; 10] = [
    "flush_count",
    "flush_virt_ns",
    "internal_count",
    "internal_virt_ns",
    "major_count",
    "major_virt_ns",
    "eq1",
    "eq2",
    "eq3",
    "codec",
];

impl Events {
    fn add(&self, idx: usize, n: u64) {
        self.counts[idx].fetch_add(n, Ordering::Relaxed);
    }

    fn span(&self, span: &TraceSpan) {
        let idx = match span.kind {
            SpanKind::Flush => 0,
            SpanKind::Internal => 2,
            SpanKind::Major => 4,
            _ => return,
        };
        self.add(idx, 1);
        self.add(idx + 1, span.duration().as_nanos());
    }

    pub fn read(&self) -> [u64; EVENT_NAMES.len()] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }
}

impl EventListener for Events {
    fn on_flush_complete(&self, span: &TraceSpan) {
        self.span(span);
    }

    fn on_compaction_complete(&self, span: &TraceSpan) {
        self.span(span);
    }

    fn on_cost_decision(&self, decision: &CostDecision) {
        let idx = match decision {
            CostDecision::ReadBenefit { .. } => 6,
            CostDecision::WriteBenefit { .. } => 7,
            CostDecision::Retention { .. } => 8,
            CostDecision::CodecChoice { .. } => 9,
            CostDecision::HardCap { .. } => return,
        };
        self.add(idx, 1);
    }
}

/// One open engine plus what it takes to reopen it.
pub struct Engine {
    pub db: Arc<Db>,
    pub opts: Options,
    pub events: Arc<Events>,
}

impl Engine {
    /// Open an engine over `keys` key ids. `dir` makes it durable (WAL,
    /// manifest and file-backed PM/SSD); `traced` turns on the engine's
    /// stage tracer for every request.
    pub fn open(keys: u64, dir: Option<&Path>, traced: bool) -> Result<Engine, String> {
        let events = Arc::new(Events::default());
        let mut opts = Options::pm_blade(PM_BYTES);
        opts.partitioner = Partitioner::numeric("user", keys, PARTITIONS);
        opts.maintenance = MaintenanceMode::Inline;
        opts.wal_dir = dir.map(Path::to_path_buf);
        if traced {
            opts.trace_sample_every = 1;
            opts.trace_slow_query_nanos = 0;
            opts.trace_recorder_capacity = crate::run::RECORDER_CAPACITY;
        }
        opts.listeners
            .add(Arc::clone(&events) as Arc<dyn EventListener>);
        Engine::reopen(opts, events)
    }

    /// Open with exactly these options (the reopen path).
    pub fn reopen(opts: Options, events: Arc<Events>) -> Result<Engine, String> {
        let db = Db::open(opts.clone()).map_err(|e| format!("open: {e}"))?;
        Ok(Engine {
            db: Arc::new(db),
            opts,
            events,
        })
    }

    /// Close and release the engine, returning what reopening needs.
    pub fn close(self) -> Result<(Options, Arc<Events>), String> {
        self.db.close();
        Arc::try_unwrap(self.db).map_err(|_| "engine handle still shared at close".to_string())?;
        Ok((self.opts, self.events))
    }
}

/// Write `(id, version)` pairs in batches of [`FILL_BATCH`].
pub fn fill(db: &Db, pairs: impl IntoIterator<Item = (u64, u32)>) -> Result<(), String> {
    let mut batch = WriteBatch::new();
    for (id, version) in pairs {
        batch.put(key(id), value(id, version));
        if batch.len() == FILL_BATCH {
            db.write_batch(std::mem::take(&mut batch))
                .map_err(|e| format!("fill: {e}"))?;
        }
    }
    if !batch.is_empty() {
        db.write_batch(batch).map_err(|e| format!("fill: {e}"))?;
    }
    Ok(())
}

/// Fill every key of `oracle` once, in the seeded preload order.
pub fn preload(db: &Db, oracle: &Oracle, order: &[u64]) -> Result<(), String> {
    let versions: Vec<(u64, u32)> = order.iter().map(|&id| (id, oracle.begin_put(id))).collect();
    fill(db, versions.iter().copied())?;
    for (id, version) in versions {
        oracle.ack_put(id, version);
    }
    Ok(())
}

/// Bytes the engine holds on PM and in the SSD levels per byte of live
/// user data.
pub fn space_amp(db: &Db, oracle: &Oracle) -> f64 {
    let snap = db.metrics_snapshot();
    let ssd: i64 = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.name == "ssd_level_bytes")
        .map(|(_, v)| *v)
        .sum();
    (db.pm_used() as f64 + ssd as f64) / oracle.live_bytes().max(1) as f64
}

/// A fresh, empty scratch directory for one durable engine.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("{name}-{}", std::process::id()));
    remove_dir(&dir)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Remove this process's scratch directories under `root`, and `root`
/// itself once it is empty.
pub fn cleanup(root: &Path) {
    let suffix = format!("-{}", std::process::id());
    if let Ok(entries) = std::fs::read_dir(root) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().ends_with(&suffix) {
                let _ = remove_dir(&entry.path());
            }
        }
    }
    let _ = std::fs::remove_dir(root);
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", dir.display())),
    }
}
