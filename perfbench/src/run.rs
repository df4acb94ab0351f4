//! The four workloads: set-up, measured, reopen and read-back phases,
//! and the metrics each run reports.
//!
//! Every workload runs the same sequence on one engine:
//!
//! 1. **Set-up**, repeated [`Config::setups`] times (the median is
//!    `setup_s`): `Db::open`, then a random-order fill of every key.
//! 2. **Measured phase**: closed-loop clients issue the workload's mix for
//!    `--seconds`, and at least until the first [`Config::window_ops`]
//!    ops are done. Virtual metrics are read at the end of that fixed
//!    window, so they repeat byte for byte for a given seed.
//! 3. **Reopen** (the median is `reopen_s`): the durable workload closes
//!    and times `Db::open` (recovery). In-memory engines time `Db::open`
//!    plus the refill that brings back every acknowledged key, which is
//!    what they need to restart. A first round of cycles runs on the
//!    first set-up's engine before it is discarded.
//! 4. **Read-back**: every key is read and checked against the oracle.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pm_blade::{
    Db, MetricKey, MetricsSnapshot, Request, RequestTrace, Response, ScanRequest, TraceContext,
};
use pm_blade_client::Client;
use pm_blade_server::{Server, ServerOptions};

use crate::engine::{self, fill, preload, space_amp, Engine, EVENT_NAMES};
use crate::keys::{key, scan_ids, scan_request, shuffled_ids, value, Mix, OpGen, OpKind, Oracle};
use crate::report::Metrics;
use crate::spans::{op_id, SpanLog, LANE_SHIFT, OP_ID_BASE};
use crate::stats::{exact_quantile, median, peak_rss_mb, Blocks};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadMostly,
    WriteDurable,
    ScanMixed,
    WireMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadMostly,
        Workload::WriteDurable,
        Workload::ScanMixed,
        Workload::WireMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "readmostly",
            Workload::WriteDurable => "write_durable",
            Workload::ScanMixed => "scan_mixed",
            Workload::WireMixed => "wire_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shares of get / put / forward scan / reverse scan, in percent.
    pub fn mix(self) -> Mix {
        match self {
            Workload::ReadMostly => [95, 5, 0, 0],
            Workload::WriteDurable => [10, 90, 0, 0],
            Workload::ScanMixed => [25, 25, 30, 20],
            Workload::WireMixed => [90, 10, 0, 0],
        }
    }

    /// Zipf skew of the key (or scan start) distribution; 0 = uniform.
    pub fn skew(self) -> f64 {
        match self {
            Workload::ReadMostly | Workload::WireMixed => 0.99,
            Workload::WriteDurable => 0.0,
            Workload::ScanMixed => 0.9,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::WriteDurable
    }

    /// Closed-loop clients (one thread and connection each on the wire).
    pub fn clients(self) -> u64 {
        match self {
            Workload::WireMixed => 2,
            _ => 1,
        }
    }

    /// Ops in the deterministic virtual window (single-client only).
    fn window_ops(self) -> u64 {
        match self {
            Workload::ReadMostly => 200_000,
            Workload::WriteDurable => 20_000,
            Workload::ScanMixed => 4_000,
            Workload::WireMixed => 0,
        }
    }
}

/// Everything one run depends on.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Key domain; every key is preloaded.
    pub keys: u64,
    pub window_ops: u64,
    pub setups: usize,
    pub trace: bool,
    /// Scratch root for durable engines, removed after the run.
    pub work_dir: PathBuf,
    /// Where the traced run writes its Chrome trace.
    pub trace_dir: PathBuf,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            keys: 200_000,
            window_ops: workload.window_ops(),
            setups: 3,
            trace,
            work_dir: PathBuf::from(".bench_data"),
            trace_dir: PathBuf::from(".bench_traces"),
        }
    }

    pub fn sizes(&self) -> String {
        format!(
            "keys={} window_ops={} setups={} clients={} seconds={} mix(get/put/scan/rscan)={:?} skew={}",
            self.keys,
            self.window_ops,
            self.setups,
            self.workload.clients(),
            self.seconds,
            self.workload.mix(),
            self.workload.skew(),
        )
    }
}

/// What a run hands back to the command line.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Every virtual-window number, formatted exactly: equal strings for
    /// equal seeds is the determinism check.
    pub fingerprint: String,
    /// Where the traced run wrote its Chrome trace.
    pub trace_file: Option<PathBuf>,
    /// Human-readable self-time and check lines from the traced run.
    pub notes: Vec<String>,
}

// ---------------------------------------------------------------------
// One closed-loop client
// ---------------------------------------------------------------------

enum Conn<'a> {
    Direct(&'a Db),
    Wire(Client),
}

type Rows = Vec<(Vec<u8>, Vec<u8>)>;

enum Answer {
    Value(Option<Vec<u8>>),
    Written,
    Rows(Rows),
}

impl Conn<'_> {
    fn call_name(&self, kind: OpKind) -> &'static str {
        match (self, kind) {
            (Conn::Direct(_), OpKind::Get) => "db.get",
            (Conn::Direct(_), OpKind::Put) => "db.put",
            (Conn::Direct(_), OpKind::Scan) => "db.scan",
            (Conn::Direct(_), OpKind::RScan) => "db.rscan",
            (Conn::Wire(_), OpKind::Get) => "client.get",
            (Conn::Wire(_), OpKind::Put) => "client.put",
            (Conn::Wire(_), OpKind::Scan) => "client.scan",
            (Conn::Wire(_), OpKind::RScan) => "client.rscan",
        }
    }

    /// Issue one op; returns the answer and its virtual latency in ns.
    fn call(
        &mut self,
        kind: OpKind,
        k: &[u8],
        v: &[u8],
        req: Option<ScanRequest>,
        ctx: Option<TraceContext>,
    ) -> Result<(Answer, u64), String> {
        let req = || req.ok_or_else(|| "scan op without a scan request".to_string());
        let err = |e: &dyn std::fmt::Display| e.to_string();
        match self {
            Conn::Direct(db) => match kind {
                OpKind::Get => {
                    let out = match ctx {
                        Some(c) => db.get_traced(k, c),
                        None => db.get(k),
                    }
                    .map_err(|e| err(&e))?;
                    Ok((Answer::Value(out.value), out.latency.as_nanos()))
                }
                OpKind::Put => {
                    let lat = match ctx {
                        Some(c) => db.put_traced(k, v, c),
                        None => db.put(k, v),
                    }
                    .map_err(|e| err(&e))?;
                    Ok((Answer::Written, lat.as_nanos()))
                }
                OpKind::Scan | OpKind::RScan => {
                    let (rows, lat) = match ctx {
                        Some(c) => db.scan_traced(req()?, c),
                        None => db.scan(req()?),
                    }
                    .map_err(|e| err(&e))?;
                    Ok((Answer::Rows(rows), lat.as_nanos()))
                }
            },
            Conn::Wire(client) => match kind {
                OpKind::Get => {
                    let (value, lat) = match ctx {
                        Some(c) => client.get_traced(k, c),
                        None => client.get_with_latency(k),
                    }
                    .map_err(|e| err(&e))?;
                    Ok((Answer::Value(value), lat))
                }
                OpKind::Put => {
                    let lat = match ctx {
                        Some(c) => client.put_traced(k, v, c),
                        None => client.put(k, v),
                    }
                    .map_err(|e| err(&e))?;
                    Ok((Answer::Written, lat))
                }
                OpKind::Scan | OpKind::RScan => {
                    let resp = match ctx {
                        Some(c) => client.call_traced(c, Request::Scan(req()?)),
                        None => client.call(&Request::Scan(req()?)),
                    }
                    .map_err(|e| err(&e))?;
                    match resp {
                        Response::Rows {
                            rows,
                            latency_nanos,
                        } => Ok((Answer::Rows(rows), latency_nanos)),
                        other => Err(format!("unexpected reply to a scan: {other:?}")),
                    }
                }
            },
        }
    }
}

/// Counts and distributions from one client (or several, merged).
#[derive(Clone, Default)]
pub struct LaneStats {
    pub ops: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Wall ns around the public call, per [`OpKind`].
    pub wall: [Blocks; 4],
    /// Virtual ns the engine reported, per [`OpKind`].
    pub virt: [Blocks; 4],
    pub virt_sum_ns: u128,
    /// Exact virtual ns of the ops in the deterministic window.
    pub window_virt: [Vec<u64>; 4],
    /// Traced runs: protocol payload plus framing bytes, both directions.
    pub wire_bytes: u64,
    pub proto_ops: u64,
    /// Traced direct runs: device bytes read around each get.
    pub get_pm_bytes: u64,
    pub get_ssd_bytes: u64,
    pub gets_metered: u64,
}

impl LaneStats {
    fn merge(&mut self, o: &LaneStats) {
        self.ops += o.ops;
        self.failed += o.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&o.first_error);
        }
        for i in 0..4 {
            self.wall[i].merge(&o.wall[i]);
            self.virt[i].merge(&o.virt[i]);
        }
        self.virt_sum_ns += o.virt_sum_ns;
        self.wire_bytes += o.wire_bytes;
        self.proto_ops += o.proto_ops;
        self.get_pm_bytes += o.get_pm_bytes;
        self.get_ssd_bytes += o.get_ssd_bytes;
        self.gets_metered += o.gets_metered;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what);
        }
    }
}

/// Engine stage spans pulled from the flight recorder during a traced run.
#[derive(Default)]
struct StageCollector {
    /// Next unseen op sequence number, per lane.
    next: BTreeMap<u64, u64>,
    /// Virtual ns and occurrences per stage name.
    by_stage: BTreeMap<&'static str, (u64, u64)>,
    kept: Vec<RequestTrace>,
}

/// Ops a lane runs between flight-recorder drains. The engine's ring
/// holds four times this many traces, enough for two lanes.
const DRAIN_EVERY: u64 = 256;
pub const RECORDER_CAPACITY: usize = 4 * DRAIN_EVERY as usize;

impl StageCollector {
    fn drain(&mut self, db: &Db) {
        for t in db.flight_recorder() {
            if t.trace_id < OP_ID_BASE {
                continue; // sampled by the engine itself (fill, read-back)
            }
            let lane = (t.trace_id & !OP_ID_BASE) >> LANE_SHIFT;
            let seq = t.trace_id & ((1 << LANE_SHIFT) - 1);
            let next = self.next.entry(lane).or_insert(0);
            if seq < *next {
                continue;
            }
            *next = seq + 1;
            for s in &t.stages {
                let e = self.by_stage.entry(s.kind.as_str()).or_insert((0, 0));
                e.0 += s.end_nanos.saturating_sub(s.start_nanos);
                e.1 += 1;
            }
            if seq < crate::spans::KEEP_OPS {
                self.kept.push(t);
            }
        }
    }

    fn mean_ns(&self, stage: &str) -> f64 {
        self.by_stage
            .get(stage)
            .map_or(0.0, |&(sum, n)| sum as f64 / n.max(1) as f64)
    }
}

struct Lane<'a> {
    conn: Conn<'a>,
    lane: u64,
    seq: u64,
    keys: u64,
    oracle: &'a Oracle,
    /// Ops left in the deterministic window.
    window_left: u64,
    /// Traced runs: benchmark spans, plus the engine whose flight
    /// recorder and device counters are read at the same boundaries.
    spans: Option<SpanLog>,
    engine: Option<(&'a Db, &'a Mutex<StageCollector>)>,
    stats: LaneStats,
}

impl<'a> Lane<'a> {
    fn new(conn: Conn<'a>, lane: u64, keys: u64, oracle: &'a Oracle) -> Self {
        Lane {
            conn,
            lane,
            seq: 0,
            keys,
            oracle,
            window_left: 0,
            spans: None,
            engine: None,
            stats: LaneStats::default(),
        }
    }

    fn traced(mut self, spans: SpanLog, db: &'a Db, stages: &'a Mutex<StageCollector>) -> Self {
        self.spans = Some(spans);
        self.engine = Some((db, stages));
        self
    }

    /// Run one op, time the public call, and check its answer.
    fn exec(&mut self, kind: OpKind, id: u64) {
        let op = op_id(self.lane, self.seq);
        self.seq += 1;
        let ctx = self.spans.is_some().then(|| TraceContext::sampled(op));
        let ids = scan_ids(kind, id, self.keys);
        let version = if kind == OpKind::Put {
            self.oracle.begin_put(id)
        } else {
            0
        };
        let lo: Vec<u32> = ids.iter().map(|&i| self.oracle.acked(i)).collect();
        let k = key(id);
        let v = if kind == OpKind::Put {
            value(id, version)
        } else {
            Vec::new()
        };
        let req = matches!(kind, OpKind::Scan | OpKind::RScan).then(|| scan_request(kind, id));
        if let Some(spans) = self.spans.as_mut() {
            spans.begin(op, root_name(kind));
            let bytes = spans.child("protocol.encode", || {
                to_request(kind, &k, &v, req.as_ref())
                    .encode_payload()
                    .len()
            });
            self.stats.wire_bytes += bytes as u64 + FRAME_HEADER;
        }
        let metered = matches!((kind, &self.conn), (OpKind::Get, Conn::Direct(_)));
        let before = self
            .engine
            .filter(|_| metered)
            .map(|(db, _)| device_reads(db));

        let name = self.conn.call_name(kind);
        let conn = &mut self.conn;
        let (result, wall) = child(&mut self.spans, name, || {
            let t = Instant::now();
            let r = conn.call(kind, &k, &v, req, ctx);
            (r, t.elapsed().as_nanos() as u64)
        });

        if let (Some(b), Some((db, _))) = (before, self.engine) {
            let a = device_reads(db);
            self.stats.get_pm_bytes += a.0 - b.0;
            self.stats.get_ssd_bytes += a.1 - b.1;
            self.stats.gets_metered += 1;
        }
        self.stats.ops += 1;
        let (answer, virt) = match result {
            Ok(r) => r,
            Err(e) => {
                self.stats.fail(format!("{} {id}: {e}", kind.name()));
                self.end_op();
                return;
            }
        };
        if let Some(spans) = self.spans.as_mut() {
            let payload = to_response(&answer, virt).encode_payload();
            self.stats.wire_bytes += payload.len() as u64 + FRAME_HEADER;
            let decoded = spans.child("protocol.decode", || Response::decode(&payload));
            if decoded.is_err() {
                self.stats
                    .fail(format!("{} {id}: response does not decode", kind.name()));
            }
            self.stats.proto_ops += 1;
        }
        let oracle = self.oracle;
        let checked = child(&mut self.spans, "oracle.check", || match &answer {
            Answer::Value(got) => oracle.check(id, got.as_deref(), lo[0]),
            Answer::Written => {
                oracle.ack_put(id, version);
                Ok(())
            }
            Answer::Rows(rows) => check_rows(oracle, rows, &ids, &lo),
        });
        if let Err(e) = checked {
            self.stats
                .fail(format!("{} from {id}: wrong answer: {e}", kind.name()));
        }
        let i = kind.index();
        self.stats.wall[i].record(wall);
        self.stats.virt[i].record(virt);
        self.stats.virt_sum_ns += u128::from(virt);
        if self.window_left > 0 {
            self.window_left -= 1;
            self.stats.window_virt[i].push(virt);
        }
        self.end_op();
    }

    fn end_op(&mut self) {
        if let Some(spans) = self.spans.as_mut() {
            spans.end();
            if self.seq.is_multiple_of(DRAIN_EVERY) {
                if let Some((db, stages)) = self.engine {
                    stages.lock().expect("stage collector poisoned").drain(db);
                }
            }
        }
    }
}

/// A scan must return exactly the expected keys, in order (which also
/// checks its bounds and limit), each with a legal version.
fn check_rows(oracle: &Oracle, rows: &Rows, ids: &[u64], lo: &[u32]) -> Result<(), String> {
    if rows.len() != ids.len() {
        return Err(format!("{} rows, expected {}", rows.len(), ids.len()));
    }
    for (row, ((k, v), (&id, &l))) in rows.iter().zip(ids.iter().zip(lo)).enumerate() {
        if *k != key(id) {
            let got = String::from_utf8_lossy(k);
            return Err(format!("row {row} is {got}, expected key {id}"));
        }
        oracle
            .check(id, Some(v), l)
            .map_err(|e| format!("row {row}: {e}"))?;
    }
    Ok(())
}

/// Bytes of framing around each protocol payload.
const FRAME_HEADER: u64 = 8;

fn child<T>(spans: &mut Option<SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.child(name, f),
        None => f(),
    }
}

fn root_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Get => "op.get",
        OpKind::Put => "op.put",
        OpKind::Scan => "op.scan",
        OpKind::RScan => "op.rscan",
    }
}

fn to_request(kind: OpKind, k: &[u8], v: &[u8], req: Option<&ScanRequest>) -> Request {
    match (kind, req) {
        (OpKind::Put, _) => Request::Put {
            key: k.to_vec(),
            value: v.to_vec(),
        },
        (OpKind::Scan | OpKind::RScan, Some(req)) => Request::Scan(req.clone()),
        _ => Request::Get { key: k.to_vec() },
    }
}

fn to_response(answer: &Answer, latency_nanos: u64) -> Response {
    match answer {
        Answer::Value(value) => Response::Value {
            value: value.clone(),
            latency_nanos,
        },
        Answer::Written => Response::Written { latency_nanos },
        Answer::Rows(rows) => Response::Rows {
            rows: rows.clone(),
            latency_nanos,
        },
    }
}

/// PM and SSD bytes read so far.
fn device_reads(db: &Db) -> (u64, u64) {
    (
        db.pm_pool().stats().bytes_read.get(),
        db.ssd().stats().bytes_read.get(),
    )
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// Virtual numbers read when the window's last op completes.
struct Window {
    ops: u64,
    virt_sum_ns: u128,
    write_amp: f64,
    space_amp: f64,
    /// Listener event counts since the measured phase began.
    events: [u64; EVENT_NAMES.len()],
}

struct Phase {
    stats: LaneStats,
    secs: f64,
    window: Option<Window>,
    spans: Option<SpanLog>,
    start: MetricsSnapshot,
    end: MetricsSnapshot,
    events_start: [u64; EVENT_NAMES.len()],
    events_end: [u64; EVENT_NAMES.len()],
}

fn setup(cfg: &Config, traced: bool, attempt: usize) -> Result<(Engine, Oracle), String> {
    let dir = if cfg.workload.durable() {
        Some(engine::fresh_dir(
            &cfg.work_dir,
            &format!("{}-{attempt}", cfg.workload.name()),
        )?)
    } else {
        None
    };
    let eng = Engine::open(cfg.keys, dir.as_deref(), traced)?;
    let oracle = Oracle::new(cfg.keys);
    preload(&eng.db, &oracle, &shuffled_ids(cfg.seed, cfg.keys))?;
    Ok((eng, oracle))
}

fn measured_gen(cfg: &Config, client: u64) -> OpGen {
    let w = cfg.workload;
    OpGen::new(cfg.seed, 10 + client, cfg.keys, w.skew(), w.mix()).owning(client, w.clients())
}

/// The single-client measured phase, straight into the `Db`.
fn direct_phase(
    cfg: &Config,
    eng: &Engine,
    oracle: &Oracle,
    spans: Option<SpanLog>,
    stages: &Mutex<StageCollector>,
) -> Phase {
    let db = &*eng.db;
    let mut lane = Lane::new(Conn::Direct(db), 0, cfg.keys, oracle);
    if let Some(s) = spans {
        lane = lane.traced(s, db, stages);
    }
    lane.window_left = cfg.window_ops;
    let mut gen = measured_gen(cfg, 0);
    let start_snap = db.metrics_snapshot();
    let events_start = eng.events.read();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    let mut window = None;
    while lane.stats.ops < cfg.window_ops || Instant::now() < deadline {
        let (kind, id) = gen.next_op();
        lane.exec(kind, id);
        if lane.stats.ops == cfg.window_ops {
            let wa = db.write_amp();
            let events = eng.events.read();
            window = Some(Window {
                ops: lane.stats.ops,
                virt_sum_ns: lane.stats.virt_sum_ns,
                write_amp: wa.factor(),
                space_amp: space_amp(db, oracle),
                events: std::array::from_fn(|i| events[i] - events_start[i]),
            });
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Phase {
        secs,
        window,
        start: start_snap,
        end: db.metrics_snapshot(),
        events_start,
        events_end: eng.events.read(),
        spans: lane.spans.take(),
        stats: lane.stats,
    }
}

/// The two-client measured phase over loopback TCP.
fn wire_phase(
    cfg: &Config,
    eng: &Engine,
    addr: SocketAddr,
    oracle: &Oracle,
    mut spans: Option<SpanLog>,
    stages: &Mutex<StageCollector>,
) -> Result<Phase, String> {
    let origin = spans.as_ref().map(SpanLog::origin);
    let db = &*eng.db;
    let start_snap = db.metrics_snapshot();
    let events_start = eng.events.read();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    let lanes: Vec<Result<(LaneStats, Option<SpanLog>), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workload.clients())
            .map(|c| {
                s.spawn(move || {
                    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut lane = Lane::new(Conn::Wire(client), c, cfg.keys, oracle);
                    if let Some(origin) = origin {
                        lane = lane.traced(SpanLog::new(origin), db, stages);
                    }
                    let mut gen = measured_gen(cfg, c);
                    while Instant::now() < deadline {
                        let (kind, id) = gen.next_op();
                        lane.exec(kind, id);
                    }
                    Ok((lane.stats, lane.spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut stats = LaneStats::default();
    for lane in lanes {
        let (s, sp) = lane?;
        stats.merge(&s);
        if let (Some(all), Some(sp)) = (spans.as_mut(), sp) {
            all.merge(sp);
        }
    }
    Ok(Phase {
        stats,
        secs,
        window: None,
        spans,
        start: start_snap,
        end: db.metrics_snapshot(),
        events_start,
        events_end: eng.events.read(),
    })
}

fn start_server(eng: &Engine) -> Result<Server, String> {
    let opts = ServerOptions::builder()
        .addr("127.0.0.1:0")
        .poll_interval(Duration::from_millis(5))
        .build()
        .map_err(|e| format!("server options: {e}"))?;
    Server::start(std::sync::Arc::clone(&eng.db), opts).map_err(|e| format!("server: {e}"))
}

/// Close/reopen cycles come in two rounds of at least `REOPENS_PER_ROUND`
/// cycles and `REOPEN_ROUND_SECS`: one on the first set-up's engine
/// before it is discarded, one on the measured engine after its phase;
/// `reopen_s` is the median over both. The shared machine's speed drifts
/// over tens of seconds, and rounds far apart in the run sample that
/// drift twice. The measured engine is never reopened before its
/// window: a durable reopen leaves its virtual clock a few ns different
/// from run to run.
const REOPENS_PER_ROUND: usize = 3;
const REOPEN_ROUND_SECS: f64 = 1.5;

/// One round of reopen cycles, appending each cycle's seconds to `times`.
fn reopen_round(
    cfg: &Config,
    mut eng: Engine,
    oracle: &Oracle,
    times: &mut Vec<f64>,
) -> Result<Engine, String> {
    let (mut cycles, mut spent) = (0, 0.0);
    while cycles < REOPENS_PER_ROUND || spent < REOPEN_ROUND_SECS {
        let (reopened, secs) = reopen(cfg, eng, oracle)?;
        eng = reopened;
        cycles += 1;
        spent += secs;
        times.push(secs);
    }
    Ok(eng)
}

/// Close the engine and bring it back with every acknowledged key.
/// Returns the reopened engine and the wall seconds that took.
fn reopen(cfg: &Config, eng: Engine, oracle: &Oracle) -> Result<(Engine, f64), String> {
    let (opts, events) = eng.close()?;
    let t0 = Instant::now();
    let eng = Engine::reopen(opts, events)?;
    if !cfg.workload.durable() {
        let order = shuffled_ids(cfg.seed, cfg.keys);
        fill(
            &eng.db,
            order
                .iter()
                .map(|&id| (id, oracle.acked(id)))
                .filter(|&(_, v)| v > 0),
        )?;
    }
    Ok((eng, t0.elapsed().as_secs_f64()))
}

/// Read every key back and check it against the oracle.
fn read_back(cfg: &Config, db: &Db, oracle: &Oracle) -> LaneStats {
    let mut lane = Lane::new(Conn::Direct(db), 7, cfg.keys, oracle);
    for id in 0..cfg.keys {
        lane.exec(OpKind::Get, id);
    }
    lane.stats
}

/// Everything one engine goes through after set-up: measured phase,
/// reopen and read-back.
struct Lifecycle {
    phase: Phase,
    readback: LaneStats,
    reopen_s: f64,
    reopens: usize,
    recovery: MetricsSnapshot,
    codecs: [u64; pmtable::CODEC_COUNT],
    stages: StageCollector,
    space_amp_end: f64,
}

/// `reopen_times` holds the cycles of an earlier round, if any.
fn lifecycle(
    cfg: &Config,
    eng: Engine,
    oracle: &Oracle,
    traced: bool,
    mut reopen_times: Vec<f64>,
) -> Result<Lifecycle, String> {
    let origin = Instant::now();
    let stages = Mutex::new(StageCollector::default());
    let spans = traced.then(|| SpanLog::new(origin));
    let phase = if cfg.workload.clients() > 1 {
        let server = start_server(&eng)?;
        let phase = wire_phase(cfg, &eng, server.local_addr(), oracle, spans, &stages);
        drop(server.shutdown());
        phase?
    } else {
        direct_phase(cfg, &eng, oracle, spans, &stages)
    };
    if traced {
        stages
            .lock()
            .expect("stage collector poisoned")
            .drain(&eng.db);
    }
    let space_amp_end = space_amp(&eng.db, oracle);
    let codecs = eng.db.l0_codec_histogram();
    let eng = reopen_round(cfg, eng, oracle, &mut reopen_times)?;
    let reopens = reopen_times.len();
    let reopen_s = median(reopen_times);
    let recovery = eng.db.metrics_snapshot();
    let readback = read_back(cfg, &eng.db, oracle);
    eng.close()?;
    Ok(Lifecycle {
        phase,
        readback,
        reopen_s,
        reopens,
        recovery,
        codecs,
        stages: stages.into_inner().expect("stage collector poisoned"),
        space_amp_end,
    })
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

/// Run the workload: untraced for end-to-end metrics, traced for
/// per-layer metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let out = if cfg.trace {
        traced_run(cfg)
    } else {
        untraced_run(cfg)
    };
    // Durable engines' directories are removed only now: deleting
    // ~100 MB mid-run makes the file system discard blocks under the
    // measured phase's fsyncs.
    engine::cleanup(&cfg.work_dir);
    out
}

fn untraced_run(cfg: &Config) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut kept: Option<(Engine, Oracle)> = None;
    let mut early_reopens = Vec::new();
    for attempt in 0..cfg.setups.max(1) {
        if let Some((eng, oracle)) = kept.take() {
            let eng = if attempt == 1 {
                reopen_round(cfg, eng, &oracle, &mut early_reopens)?
            } else {
                eng
            };
            eng.close()?;
        }
        let t0 = Instant::now();
        let built = setup(cfg, false, attempt)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let (eng, oracle) = kept.expect("at least one set-up");
    let life = lifecycle(cfg, eng, &oracle, false, early_reopens)?;
    let stats = all_ops(&life);
    let p = &life.phase;
    let (virt_ops_s, write_amp, space_amp) = virtual_headline(p, &life);

    let mut m = Metrics::default();
    m.wall("setup_s", median(setup_times), "s");
    m.wall("throughput_ops_s", p.stats.ops as f64 / p.secs, "ops/s");
    // Latency metrics exist for the op kinds in the workload's mix.
    for kind in OpKind::ALL {
        let h = &p.stats.wall[kind.index()];
        if cfg.workload.mix()[kind.index()] > 0 {
            m.wall(format!("{}_p50_us", kind.name()), h.p50() / 1e3, "us");
            m.wall(format!("{}_p99_us", kind.name()), h.p99() / 1e3, "us");
        }
    }
    m.virt("virt_ops_s", virt_ops_s, "virt_ops/s");
    m.virt("write_amp", write_amp, "ratio");
    m.virt("space_amp", space_amp, "ratio");
    m.wall("reopen_s", life.reopen_s, "s");
    m.wall("peak_rss_mb", peak_rss_mb(), "MB");

    let mut notes = sample_counts(&life);
    notes.push(format!(
        "error_ratio {} ({} failed of {} attempted)",
        stats.failed as f64 / stats.ops.max(1) as f64,
        stats.failed,
        stats.ops
    ));
    Ok(Outcome {
        metrics: m,
        attempted: stats.ops,
        failed: stats.failed,
        first_error: stats.first_error,
        fingerprint: fingerprint(&life),
        trace_file: None,
        notes,
    })
}

/// Every op the run checked: measured and read-back.
fn all_ops(life: &Lifecycle) -> LaneStats {
    let mut all = LaneStats::default();
    all.merge(&life.phase.stats);
    all.merge(&life.readback);
    all
}

/// `virt_ops_s`, `write_amp` and `space_amp`: read at the end of the
/// deterministic window when there is one (single client), else over
/// the measured phase.
fn virtual_headline(p: &Phase, life: &Lifecycle) -> (f64, f64, f64) {
    match &p.window {
        Some(w) => (
            w.ops as f64 / (w.virt_sum_ns as f64 / 1e9),
            w.write_amp,
            w.space_amp,
        ),
        None => {
            let wa = |s: &MetricsSnapshot| {
                let device = s.counter("pm_bytes_written") + s.counter("ssd_bytes_written");
                device as f64
                    / s.counter_at(&MetricKey::global("user_bytes_written"))
                        .max(1) as f64
            };
            (
                p.stats.ops as f64 / (p.stats.virt_sum_ns as f64 / 1e9),
                wa(&p.end),
                life.space_amp_end,
            )
        }
    }
}

fn sample_counts(life: &Lifecycle) -> Vec<String> {
    let wall = &life.phase.stats.wall;
    let counts: Vec<String> = OpKind::ALL
        .iter()
        .map(|k| format!("{}={}", k.name(), wall[k.index()].count()))
        .collect();
    vec![format!(
        "samples {}, reopens={}",
        counts.join(" "),
        life.reopens
    )]
}

/// Every virtual-window number, exactly as computed.
fn fingerprint(life: &Lifecycle) -> String {
    let Some(w) = &life.phase.window else {
        return "none (multi-client workload)".into();
    };
    let mut virt = life.phase.stats.window_virt.clone();
    let q: Vec<String> = OpKind::ALL
        .iter()
        .map(|k| {
            let v = &mut virt[k.index()];
            format!(
                "{}={}/{}/{}",
                k.name(),
                v.len(),
                exact_quantile(v, 0.5),
                exact_quantile(v, 0.99)
            )
        })
        .collect();
    let events: Vec<String> = EVENT_NAMES
        .iter()
        .zip(w.events)
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    format!(
        "ops={} virt_ns={} write_amp={} space_amp={} virt(n/p50/p99) {} events {}",
        w.ops,
        w.virt_sum_ns,
        w.write_amp,
        w.space_amp,
        q.join(" "),
        events.join(" ")
    )
}

fn traced_run(cfg: &Config) -> Result<Outcome, String> {
    // Untraced reference phase on its own engine, for the overhead.
    let (eng, oracle) = setup(cfg, false, 0)?;
    let reference = lifecycle(cfg, eng, &oracle, false, Vec::new())?;
    let (eng, oracle) = setup(cfg, true, 1)?;
    let life = lifecycle(cfg, eng, &oracle, true, Vec::new())?;
    let stats = all_ops(&life);
    let p = &life.phase;
    let spans = p.spans.as_ref().expect("traced phase records spans");

    let untraced_tput = reference.phase.stats.ops as f64 / reference.phase.secs;
    let traced_tput = p.stats.ops as f64 / p.secs;
    let d = p.end.delta(&p.start);
    let c = |name: &'static str| d.counter_at(&MetricKey::global(name)) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wire = cfg.workload.clients() > 1;
    let measured = &p.stats;
    let (wall, virt) = (&measured.wall, &measured.virt);
    let get = OpKind::Get.index();

    let mut m = Metrics::default();
    // client / protocol / server
    let (rtt50, rtt99) = if wire {
        (wall[get].p50() / 1e3, wall[get].p99() / 1e3)
    } else {
        (0.0, 0.0)
    };
    m.wall("client.get_rtt_us.p50", rtt50, "us");
    m.wall("client.get_rtt_us.p99", rtt99, "us");
    let server = |name: &str, q: fn(&pm_blade::HistogramSummary) -> u64| {
        p.end
            .histograms
            .iter()
            .find(|(k, _)| k.name == name)
            .map_or(0.0, |(_, h)| q(h) as f64 / 1e3)
    };
    let get_dispatch50 = server("server_get_latency", |h| h.p50_nanos);
    m.wall("server.get_dispatch_us.p50", get_dispatch50, "us");
    m.wall(
        "server.get_dispatch_us.p99",
        server("server_get_latency", |h| h.p99_nanos),
        "us",
    );
    m.wall(
        "server.put_dispatch_us.p50",
        server("server_put_latency", |h| h.p50_nanos),
        "us",
    );
    m.wall(
        "server.put_dispatch_us.p99",
        server("server_put_latency", |h| h.p99_nanos),
        "us",
    );
    m.wall(
        "wire.get_overhead_us",
        if wire { rtt50 - get_dispatch50 } else { 0.0 },
        "us",
    );
    let span_mean_ns = |name: &str| {
        spans
            .by_name
            .get(name)
            .map_or(0.0, |a| ratio(a.total_ns as f64, a.count as f64))
    };
    m.wall("protocol.encode_ns", span_mean_ns("protocol.encode"), "ns");
    m.wall("protocol.decode_ns", span_mean_ns("protocol.decode"), "ns");
    m.wall(
        "protocol.bytes_per_op",
        ratio(measured.wire_bytes as f64, measured.proto_ops as f64),
        "B",
    );

    // engine: on the wire the `Db` call happens inside the server.
    for kind in OpKind::ALL {
        let h = &wall[kind.index()];
        let (p50, p99) = if wire {
            (0.0, 0.0)
        } else {
            (h.p50() / 1e3, h.p99() / 1e3)
        };
        m.wall(format!("engine.{}_wall_us.p50", kind.name()), p50, "us");
        m.wall(format!("engine.{}_wall_us.p99", kind.name()), p99, "us");
    }
    let mut window_virt = p.stats.window_virt.clone();
    for kind in OpKind::ALL {
        let i = kind.index();
        // Window ops are deterministic; the wire workload has no window
        // and uses every traced op.
        let (p50, p99) = if window_virt[i].is_empty() {
            (virt[i].p50() / 1e3, virt[i].p99() / 1e3)
        } else {
            (
                exact_quantile(&mut window_virt[i], 0.5) as f64 / 1e3,
                exact_quantile(&mut window_virt[i], 0.99) as f64 / 1e3,
            )
        };
        m.virt(
            format!("engine.{}_virt_us.p50", kind.name()),
            p50,
            "virt_us",
        );
        m.virt(
            format!("engine.{}_virt_us.p99", kind.name()),
            p99,
            "virt_us",
        );
    }
    let get_virt50 = m.get("engine.get_virt_us.p50").unwrap_or(0.0);
    let get_wall50 = m.get("engine.get_wall_us.p50").unwrap_or(0.0);
    m.wall(
        "engine.get_wall_over_virt",
        ratio(get_wall50, get_virt50),
        "ratio",
    );
    let reads =
        c("reads_from_memtable") + c("reads_from_pm") + c("reads_from_ssd") + c("read_misses");
    for (label, counter) in [
        ("memtable", "reads_from_memtable"),
        ("pm", "reads_from_pm"),
        ("ssd", "reads_from_ssd"),
        ("miss", "read_misses"),
    ] {
        m.virt(
            format!("engine.read_source.{label}"),
            ratio(c(counter), reads),
            "share",
        );
    }

    // commit / memtable / WAL
    m.virt("commit.group_commits", c("group_commits"), "count");
    m.virt(
        "commit.writes_per_group",
        ratio(c("grouped_writes"), c("group_commits")),
        "ratio",
    );
    m.virt("commit.write_slowdowns", c("write_slowdowns"), "count");
    m.virt("commit.write_stalls", c("write_stalls"), "count");
    for stage in [
        "wal_append",
        "memtable_apply",
        "leader_wait",
        "throttle_wait",
    ] {
        m.virt(
            format!("stage.{stage}_ns"),
            life.stages.mean_ns(stage),
            "virt_ns",
        );
    }
    m.virt("wal.appends", c("wal_appends"), "count");

    // level0 / pmtable / groupcache
    m.virt(
        "level0.filter_prune_ratio",
        ratio(c("pm_filter_useful_total"), c("pm_filter_checked_total")),
        "ratio",
    );
    let probed = p
        .end
        .histograms
        .get(&MetricKey::global("pm_tables_probed_per_get"))
        .copied()
        .unwrap_or_default();
    m.virt(
        "level0.tables_probed_per_get.p50",
        probed.p50_nanos as f64,
        "count",
    );
    m.virt(
        "level0.tables_probed_per_get.p99",
        probed.p99_nanos as f64,
        "count",
    );
    let (hits, misses) = (
        c("pm_group_cache_hit_total"),
        c("pm_group_cache_miss_total"),
    );
    m.virt("groupcache.hit_ratio", ratio(hits, hits + misses), "ratio");
    m.virt(
        "groupcache.evictions",
        c("pm_group_cache_evictions_total"),
        "count",
    );
    for stage in ["filter_consult", "pm_decode_hit", "pm_decode_miss"] {
        m.virt(
            format!("stage.{stage}_ns"),
            life.stages.mean_ns(stage),
            "virt_ns",
        );
    }
    let gets = c("gets");
    let (pm_per_get, ssd_per_get) = if p.stats.gets_metered > 0 {
        let n = p.stats.gets_metered as f64;
        (
            p.stats.get_pm_bytes as f64 / n,
            p.stats.get_ssd_bytes as f64 / n,
        )
    } else {
        // Two clients interleave: attribute the phase's device reads.
        (
            ratio(c("pm_bytes_read"), gets),
            ratio(c("ssd_bytes_read"), gets),
        )
    };
    m.virt("level0.pm_bytes_read_per_get", pm_per_get, "B");
    for (name, n) in pmtable::CODEC_NAMES.iter().zip(life.codecs) {
        m.virt(format!("level0.codec.{name}"), n as f64, "count");
    }

    // levels / sstable
    m.virt(
        "stage.ssd_read_ns",
        life.stages.mean_ns("ssd_read"),
        "virt_ns",
    );
    m.virt("levels.ssd_bytes_read_per_get", ssd_per_get, "B");
    m.virt(
        "levels.ssd_read_errors",
        c("ssd_read_errors_total"),
        "count",
    );

    // compaction / costmodel / maintenance: the deterministic window
    // when there is one, else the measured phase.
    let events: [u64; EVENT_NAMES.len()] = match &p.window {
        Some(w) => w.events,
        None => std::array::from_fn(|i| p.events_end[i] - p.events_start[i]),
    };
    let ev = |name: &str| {
        let i = EVENT_NAMES
            .iter()
            .position(|n| *n == name)
            .expect("event name");
        events[i] as f64
    };
    for kind in ["flush", "internal", "major"] {
        m.virt(
            format!("compaction.{kind}_count"),
            ev(&format!("{kind}_count")),
            "count",
        );
        m.virt(
            format!("compaction.{kind}_virt_ms"),
            ev(&format!("{kind}_virt_ns")) / 1e6,
            "virt_ms",
        );
    }
    m.virt("compaction.pm_bytes_written", c("pm_bytes_written"), "B");
    m.virt("compaction.ssd_bytes_written", c("ssd_bytes_written"), "B");
    m.virt(
        "compaction.internal_dropped_records",
        c("internal_dropped_records"),
        "count",
    );
    for (label, event) in [
        ("eq1", "eq1"),
        ("eq2", "eq2"),
        ("eq3", "eq3"),
        ("codec", "codec"),
    ] {
        m.virt(format!("costmodel.decisions.{label}"), ev(event), "count");
    }

    // manifest / recovery
    m.virt("manifest.edits", c("manifest_edits_total"), "count");
    let r = &life.recovery;
    m.virt(
        "recovery.tables_reopened",
        r.counter("recovery_tables_reopened") as f64,
        "count",
    );
    m.virt(
        "recovery.wal_records_replayed",
        r.counter("recovery_wal_records_replayed") as f64,
        "count",
    );
    let recovery_ns = r
        .histograms
        .get(&MetricKey::global("recovery_wall_nanos"))
        .map_or(0, |h| h.max_nanos);
    m.wall("recovery.wall_ms", recovery_ns as f64 / 1e6, "ms");

    // the benchmark and its tracing
    m.wall(
        "trace.overhead_pct",
        100.0 * (untraced_tput - traced_tput) / untraced_tput,
        "%",
    );
    m.wall("trace.span_violations", spans.violations as f64, "count");
    let self_ns: u64 = spans
        .by_name
        .iter()
        .filter(|(n, _)| n.starts_with("op."))
        .map(|(_, a)| a.self_ns)
        .sum();
    let roots: u64 = spans
        .by_name
        .iter()
        .filter(|(n, _)| n.starts_with("op."))
        .map(|(_, a)| a.count)
        .sum();
    m.wall(
        "bench.op_self_us",
        ratio(self_ns as f64, roots as f64) / 1e3,
        "us",
    );

    let mut notes = vec![format!(
        "throughput untraced {untraced_tput} ops/s, traced {traced_tput} ops/s (wall)"
    )];
    for (name, agg) in &spans.by_name {
        notes.push(format!(
            "selftime {name:<16} n={:<9} mean_total_us={:<12.4} mean_self_us={:.4}",
            agg.count,
            agg.total_ns as f64 / agg.count.max(1) as f64 / 1e3,
            agg.self_ns as f64 / agg.count.max(1) as f64 / 1e3,
        ));
    }
    for (stage, (sum, n)) in &life.stages.by_stage {
        notes.push(format!(
            "engine stage {stage:<16} n={n:<9} mean_virt_ns={:.1}",
            *sum as f64 / (*n).max(1) as f64
        ));
    }

    let trace_dir = &cfg.trace_dir;
    std::fs::create_dir_all(trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
    let trace_file = trace_dir.join(format!("{}-seed{}.json", cfg.workload.name(), cfg.seed));
    std::fs::write(&trace_file, spans.chrome_trace(&life.stages.kept))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let mut attempted = stats.ops;
    let mut failed = stats.failed + spans.violations;
    let reference_all = all_ops(&reference);
    attempted += reference_all.ops;
    failed += reference_all.failed;
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        first_error: stats
            .first_error
            .or(reference_all.first_error)
            .or_else(|| (spans.violations > 0).then(|| "child spans exceed their op".into())),
        fingerprint: fingerprint(&life),
        trace_file: Some(trace_file),
        notes,
    })
}
