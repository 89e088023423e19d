//! The repository benchmark: three workloads against the public APIs of
//! `volume`, `oi-raid` (store and rebuild), `sched` and `blockdev`, with
//! every output checked for correctness.
//!
//! * `zipf-hot` — closed loop, 2 client threads, 64-op submits, scrambled
//!   zipf(0.99) keys, 70/30 read/write, `MemDevice` members, no journal.
//! * `uniform-durable` — closed loop, 2 client threads, 16-op submits,
//!   uniform keys, 30/70 read/write, `MemDevice` members with the parity
//!   journal (a file) under `FlushPolicy::PerWave`.
//! * `rebuild-2disk` — disks 4 and 9 fail together, then a DAG/hybrid
//!   rebuild runs; repeated from one thread with no foreground load.
//!
//! All three share the array `fano × group 3 × 32 cycles` (21 disks, 288
//! chunks of 4 KiB per disk, 21 504 records of 512 B) with every member
//! behind the 300 µs single-spindle latency model, armed after prefill.
//! The foreground workloads spend the last fifth of their window on 2-disk
//! rebuilds of the state their load left behind, so every workload reports
//! `rebuild_p50_ms`.
//!
//! Layers are measured from outside only: the bench times its own calls
//! into `VolumeManager::submit` and `OiRaidStore::rebuild`, a `ProbeDevice`
//! (`probe.rs`) times every device call, and the program's public counters
//! are read before and after the measured window.

mod layers;
mod probe;

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use blockdev::{
    BlockDevice, DeviceError, FaultConfig, FaultInjectingDevice, FlushPolicy, Journal, MemDevice,
};
use oi_raid::{OiRaidConfig, OiRaidStore, RebuildMode, RebuildOutcome, RecoveryStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use volume::{Op, TenantClass, VolumeId, VolumeManager, Zipf};

use layers::{Counters, Layers, RebuildSample};
use probe::{Kind, ProbeDevice, SpanLog};

/// Bytes per chunk.
pub const CHUNK: usize = 4096;
/// Bytes per volume record.
pub const RECORD: usize = 512;
const RECORDS_PER_CHUNK: u64 = (CHUNK / RECORD) as u64;
/// Injected service time per chunk read or write on every member.
pub const SPINDLE: Duration = Duration::from_micros(300);
/// The disks every rebuild fails together.
pub const FAILED: [usize; 2] = [4, 9];
/// Client threads of the foreground closed loops.
pub const THREADS: usize = 2;
/// Volume submission shards: two per client thread.
pub const SHARDS: usize = 2 * THREADS;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Unmeasured load before the measured window.
const WARMUP: Duration = Duration::from_millis(500);
/// Share of a foreground workload's window spent rebuilding after the
/// load.
const REBUILD_SHARE: f64 = 0.2;
/// Chunks on the rebuilt disks read back and checked after each rebuild.
const SAMPLES_PER_REBUILD: usize = 8;
/// Reads and writes timed on an idle spindle at start-up.
const CALIBRATION_OPS: usize = 64;

/// Sets the calling thread's timer slack to 1 ns; threads it spawns later
/// inherit it. The spindle model sleeps 300 µs per chunk I/O, and the
/// default 50 µs slack lets each of those sleeps overrun by a varying
/// amount, which made runs of the same input differ by over 10%. Returns
/// whether the slack was set (Linux only).
pub fn tighten_timer_slack() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // only changes the calling thread's timer slack; no memory of
        // this program is read or written.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// The shared array: the Fano plane, inner groups of 3, 32 cycles.
pub fn array_config() -> OiRaidConfig {
    OiRaidConfig::new(bibd::fano(), 3, 32).expect("fano x group 3 x 32 cycles is a valid geometry")
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZipfHot,
    UniformDurable,
    Rebuild2Disk,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ZipfHot,
        Workload::UniformDurable,
        Workload::Rebuild2Disk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfHot => "zipf-hot",
            Workload::UniformDurable => "uniform-durable",
            Workload::Rebuild2Disk => "rebuild-2disk",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The closed-loop shape of a foreground workload.
    fn foreground(self) -> Option<Foreground> {
        match self {
            Workload::ZipfHot => Some(Foreground {
                group: 64,
                read_frac: 0.7,
                zipf: true,
            }),
            Workload::UniformDurable => Some(Foreground {
                group: 16,
                read_frac: 0.3,
                zipf: false,
            }),
            Workload::Rebuild2Disk => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Foreground {
    /// Ops per submit.
    group: usize,
    read_frac: f64,
    /// Scrambled zipf(0.99) keys when set, uniform keys otherwise.
    zipf: bool,
}

/// A deliberate fault, for the benchmark's negative controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Flip the bits of one stored data chunk after the load.
    CorruptChunk,
    /// Flip one byte of one read result before it is checked.
    FlipReadback,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    pub inject: Option<Inject>,
    /// Where device files and span logs go.
    pub scratch: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Human-readable context: calibration, sample counts, paths.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Only for environment failures (the journal file); every failure of the
/// program under test is counted in [`RunResult::failed`].
pub fn run(cfg: &RunConfig) -> io::Result<RunResult> {
    let dir = cfg.scratch.join(format!("journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = Bench::new(cfg, &dir).and_then(|b| b.run());
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The bytes of `record` after the write stamped `stamp` (0 = prefill).
fn record_bytes(record: u64, stamp: u64) -> Vec<u8> {
    let mut x = record.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stamp.rotate_left(29);
    let mut out = Vec::with_capacity(RECORD);
    while out.len() < RECORD {
        x = splitmix(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn prefill_chunk(idx: usize) -> Vec<u8> {
    let first = idx as u64 * RECORDS_PER_CHUNK;
    (first..first + RECORDS_PER_CHUNK)
        .flat_map(|r| record_bytes(r, 0))
        .collect()
}

/// Nearest-rank percentile of an ascending slice of nanoseconds, in
/// milliseconds (0 for no samples).
fn percentile_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    telemetry::exact_percentile_sorted(sorted, q) as f64 / 1e6
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

type Disk = ProbeDevice<MemDevice>;
type Store = OiRaidStore<Disk>;
/// A foreground workload's volume manager and its one volume.
type Volume = (VolumeManager<Disk>, VolumeId);

/// Calibrated uncontended service time of one spindle, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub read_ns: f64,
    pub write_ns: f64,
}

impl Calibration {
    /// Chunk I/Os per second `disks` idle spindles can serve.
    pub fn ceiling(&self, disks: usize) -> f64 {
        disks as f64 * 2e9 / (self.read_ns + self.write_ns)
    }
}

/// Times uncontended reads and writes on one idle spindle; the medians are
/// the service times queue wait and the device ceiling are measured
/// against.
fn calibrate(chunks: usize) -> Result<Calibration, DeviceError> {
    let dev = FaultInjectingDevice::new(
        MemDevice::new(CHUNK, chunks),
        FaultConfig::latency(SPINDLE, SPINDLE),
    );
    let mut buf = vec![0u8; CHUNK];
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for i in 0..CALIBRATION_OPS {
        let chunk = (i * 7) % dev.chunks();
        let began = Instant::now();
        dev.write_chunk(chunk, &buf)?;
        writes.push(began.elapsed().as_nanos() as f64);
        let began = Instant::now();
        dev.read_chunk(chunk, &mut buf)?;
        reads.push(began.elapsed().as_nanos() as f64);
    }
    Ok(Calibration {
        read_ns: median_f64(reads),
        write_ns: median_f64(writes),
    })
}

/// One workload's array, instruments and tallies.
struct Bench<'a> {
    cfg: &'a RunConfig,
    store: Arc<Store>,
    volume: Option<Volume>,
    log: Option<Arc<SpanLog>>,
    setup_secs: Vec<f64>,
    calibration: Calibration,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn arm(store: &Store, latency: Duration) {
    for dev in store.devices() {
        dev.spindle()
            .set_config(FaultConfig::latency(latency, latency));
    }
}

impl<'a> Bench<'a> {
    /// Calibrates, then builds and prefills the array [`SETUPS`] times,
    /// keeping the last. The journal, if any, goes to `dir`.
    fn new(cfg: &'a RunConfig, dir: &Path) -> io::Result<Self> {
        let geometry = OiRaidStore::new(array_config(), CHUNK).map_err(io::Error::other)?;
        let (disks, chunks) = (geometry.devices().len(), geometry.devices()[0].chunks());
        drop(geometry);
        let calibration = calibrate(chunks).map_err(io::Error::other)?;
        let log = cfg.trace.then(|| Arc::new(SpanLog::default()));
        let mut setup_secs = Vec::new();
        let mut array = None;
        for _ in 0..SETUPS {
            drop(array.take()); // release the previous set-up first
            let _ = std::fs::remove_file(dir.join("journal.log"));
            let began = Instant::now();
            array = Some(Self::setup(cfg, dir, disks, chunks, log.clone())?);
            setup_secs.push(began.elapsed().as_secs_f64());
        }
        let (store, volume) = array.expect("at least one set-up");
        if let Some(log) = &log {
            log.clear(); // drop the prefill's device calls
        }
        Ok(Self {
            cfg,
            store,
            volume,
            log,
            setup_secs,
            calibration,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        })
    }

    /// Builds the array on fresh devices, prefills every record, attaches
    /// the journal (durable workload), arms the spindle latency and, for a
    /// foreground workload, creates the volume over every record.
    fn setup(
        cfg: &RunConfig,
        dir: &Path,
        disks: usize,
        chunks: usize,
        log: Option<Arc<SpanLog>>,
    ) -> io::Result<(Arc<Store>, Option<Volume>)> {
        let devices = (0..disks)
            .map(|d| {
                let spindle = FaultInjectingDevice::new(
                    MemDevice::new(CHUNK, chunks),
                    FaultConfig::default(),
                );
                ProbeDevice::new(d, spindle, log.clone())
            })
            .collect();
        let mut store =
            OiRaidStore::with_devices(array_config(), CHUNK, devices).map_err(io::Error::other)?;
        for idx in 0..store.data_chunks() {
            store
                .write_data(idx, &prefill_chunk(idx))
                .map_err(io::Error::other)?;
        }
        if cfg.workload == Workload::UniformDurable {
            let journal = Journal::create(dir.join("journal.log"))?;
            store.attach_journal(journal, FlushPolicy::PerWave);
        }
        arm(&store, SPINDLE);
        let store = Arc::new(store);
        if cfg.workload.foreground().is_none() {
            return Ok((store, None));
        }
        let mgr = VolumeManager::new(Arc::clone(&store), SHARDS);
        let tenant = mgr.add_tenant("bench", TenantClass::default());
        let records = store.capacity_bytes() / RECORD as u64;
        let vol = mgr
            .create_volume(tenant, "bench", RECORD, records)
            .map_err(io::Error::other)?;
        Ok((store, Some((mgr, vol))))
    }

    fn run(mut self) -> io::Result<RunResult> {
        let cfg = self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_B0A7);
        let on_failed: Vec<usize> = (0..self.store.data_chunks())
            .filter(|&i| FAILED.contains(&self.store.locate(i).disk))
            .collect();
        let mut end_to_end;
        let mut layers = Layers::default();
        // Expected stamp of every record (absent = prefill); records whose
        // write failed are unknown and skipped by the checks.
        let mut stamps: HashMap<u64, u64> = HashMap::new();
        let mut unknown: HashSet<u64> = HashSet::new();
        let rebuilds: Vec<RebuildSample>;
        if let Some(fg) = cfg.workload.foreground() {
            let loaded = self.closed_loop(fg);
            for c in &loaded.clients {
                stamps.extend(&c.shadow);
                unknown.extend(&c.lost);
            }
            end_to_end = loaded.end_to_end();
            layers.window = loaded.window;
            layers.before = loaded.before;
            layers.after = loaded.after;
            self.notes.push(loaded.note());
            let secs = cfg.seconds * REBUILD_SHARE;
            (rebuilds, _) = self.rebuild_for(secs, &on_failed, &mut rng, &stamps, &unknown);
        } else {
            let (samples, window) =
                self.rebuild_for(cfg.seconds, &on_failed, &mut rng, &stamps, &unknown);
            let mut walls: Vec<u64> = samples.iter().map(|s| s.wall_ns).collect();
            walls.sort_unstable();
            end_to_end = vec![
                Metric {
                    name: "ops_per_s",
                    value: samples.len() as f64 / window.as_secs_f64(),
                    unit: "1/s",
                },
                Metric {
                    name: "op_p50_ms",
                    value: percentile_ms(&walls, 0.5),
                    unit: "ms",
                },
                Metric {
                    name: "op_p99_ms",
                    value: percentile_ms(&walls, 0.99),
                    unit: "ms",
                },
            ];
            self.notes.push(format!(
                "an op is one 2-disk rebuild cycle: {} cycles in {:.3} s; percentiles over {} samples",
                samples.len(),
                window.as_secs_f64(),
                samples.len()
            ));
            rebuilds = samples;
        }
        let mut walls: Vec<u64> = rebuilds.iter().map(|s| s.wall_ns).collect();
        walls.sort_unstable();
        end_to_end.push(Metric {
            name: "rebuild_p50_ms",
            value: percentile_ms(&walls, 0.5),
            unit: "ms",
        });
        end_to_end.push(Metric {
            name: "setup_s",
            value: median_f64(self.setup_secs.clone()),
            unit: "s",
        });
        self.notes.push(format!(
            "rebuild_p50_ms over {} rebuilds of disks {FAILED:?}; setup_s median of {SETUPS} set-ups {:?}",
            walls.len(),
            self.setup_secs
        ));
        if cfg.inject == Some(Inject::CorruptChunk) {
            let addr = self.store.locate(1);
            self.store
                .corrupt_chunk(addr, 0x5A)
                .map_err(io::Error::other)?;
        }
        self.final_checks(&stamps, &unknown);
        let per_layer = match &self.log {
            Some(log) => {
                layers.rebuilds = rebuilds;
                let spans = log.spans();
                let path = cfg
                    .scratch
                    .join(format!("spans-{}.csv", cfg.workload.name()));
                log.write_csv(&path)?;
                self.notes.push(format!(
                    "{} spans written to {}",
                    spans.len(),
                    path.display()
                ));
                layers.compute(&spans, &self.calibration, self.store.devices().len())
            }
            None => Vec::new(),
        };
        let ceiling = self.calibration.ceiling(self.store.devices().len());
        self.notes.push(format!(
            "calibrated idle spindle: read {:.1} us, write {:.1} us (nominal {} us); \
             device ceiling {:.0} chunk-I/Os/s calibrated, {:.0} nominal",
            self.calibration.read_ns / 1e3,
            self.calibration.write_ns / 1e3,
            SPINDLE.as_micros(),
            ceiling,
            self.store.devices().len() as f64 / SPINDLE.as_secs_f64()
        ));
        Ok(RunResult {
            attempted: self.attempted.max(1),
            failed: self.failed,
            end_to_end,
            per_layer,
            notes: self.notes,
        })
    }

    /// Runs the closed loop: warm-up, then the measured window.
    fn closed_loop(&mut self, fg: Foreground) -> Loaded {
        let (mgr, vol) = self
            .volume
            .as_ref()
            .expect("foreground set-ups create a volume");
        let records = self.store.capacity_bytes() / RECORD as u64;
        let zipf = fg
            .zipf
            .then(|| Zipf::scrambled((records / 2) as usize, 0.99, self.cfg.seed));
        let barrier = Barrier::new(THREADS + 1);
        let t0 = Instant::now() + WARMUP;
        let deadline = t0 + Duration::from_secs_f64(self.cfg.seconds * (1.0 - REBUILD_SHARE));
        let log = self.log.clone();
        let (clients, before, after) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let client = Client {
                        thread: t as u64,
                        rng: StdRng::seed_from_u64(self.cfg.seed.wrapping_mul(31) ^ t as u64),
                        next_stamp: 1,
                        flip: self.cfg.inject == Some(Inject::FlipReadback) && t == 0,
                    };
                    let (zipf, barrier, log) = (zipf.as_ref(), &barrier, log.clone());
                    s.spawn(move || {
                        barrier.wait();
                        client.run(mgr, *vol, fg, zipf, records, log, t0, deadline)
                    })
                })
                .collect();
            barrier.wait();
            std::thread::sleep(t0.saturating_duration_since(Instant::now()));
            let before = Counters::read(mgr);
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            let after = Counters::read(mgr);
            let clients: Vec<ClientOut> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            (clients, before, after)
        });
        for c in &clients {
            self.attempted += c.attempted;
            self.failed += c.failed;
        }
        let window = self
            .log
            .as_ref()
            .map(|log| (log.at(t0), log.at(deadline)))
            .unwrap_or_default();
        Loaded {
            clients,
            before,
            after,
            window,
        }
    }

    /// Runs rebuild cycles for `secs` after one unmeasured warm-up cycle;
    /// returns the measured cycles and the time they took.
    fn rebuild_for(
        &mut self,
        secs: f64,
        on_failed: &[usize],
        rng: &mut StdRng,
        stamps: &HashMap<u64, u64>,
        unknown: &HashSet<u64>,
    ) -> (Vec<RebuildSample>, Duration) {
        self.rebuild_cycle(on_failed, rng, stamps, unknown);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(secs);
        let mut samples = Vec::new();
        while Instant::now() < deadline {
            samples.push(self.rebuild_cycle(on_failed, rng, stamps, unknown));
        }
        (samples, t0.elapsed())
    }

    /// Fails [`FAILED`], rebuilds, and checks sampled rebuilt chunks.
    fn rebuild_cycle(
        &mut self,
        on_failed: &[usize],
        rng: &mut StdRng,
        stamps: &HashMap<u64, u64>,
        unknown: &HashSet<u64>,
    ) -> RebuildSample {
        for d in FAILED {
            self.store.fail_disk(d).expect("failed disks are in range");
        }
        let began = Instant::now();
        let result = probe::call(self.log.as_deref(), Kind::Rebuild, 1, || {
            self.store
                .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        });
        let wall_ns = began.elapsed().as_nanos() as u64;
        self.attempted += 1;
        let report = match result {
            Ok(r) if r.outcome == RebuildOutcome::Complete => Some(r),
            _ => {
                self.failed += 1;
                None
            }
        };
        for _ in 0..SAMPLES_PER_REBUILD {
            let idx = on_failed[rng.gen_range(0..on_failed.len())];
            self.attempted += 1;
            let ok = self
                .store
                .read_data(idx)
                .is_ok_and(|bytes| chunk_matches(idx, &bytes, stamps, unknown));
            if !ok {
                self.failed += 1;
            }
        }
        RebuildSample { wall_ns, report }
    }

    /// With the spindles disarmed: both parity layers clean, and every
    /// record holds what its last acknowledged write (or the prefill) put
    /// there.
    fn final_checks(&mut self, stamps: &HashMap<u64, u64>, unknown: &HashSet<u64>) {
        arm(&self.store, Duration::ZERO);
        let bad_parity = self.store.check_parity().len() as u64;
        let idxs: Vec<usize> = (0..self.store.data_chunks()).collect();
        let mut bad_chunks = 0u64;
        for batch in idxs.chunks(256) {
            match self.store.read_data_batch(batch) {
                Ok(chunks) => {
                    for (&idx, bytes) in batch.iter().zip(&chunks) {
                        if !chunk_matches(idx, bytes, stamps, unknown) {
                            bad_chunks += 1;
                        }
                    }
                }
                Err(_) => bad_chunks += batch.len() as u64,
            }
        }
        self.failed += bad_parity + bad_chunks;
        self.notes.push(format!(
            "final checks: {bad_parity} parity violations, {bad_chunks} of {} data chunks wrong, \
             {} records unknown after failed writes",
            idxs.len(),
            unknown.len()
        ));
    }
}

/// Whether data chunk `idx` holds the expected bytes of each of its
/// records.
fn chunk_matches(
    idx: usize,
    bytes: &[u8],
    stamps: &HashMap<u64, u64>,
    unknown: &HashSet<u64>,
) -> bool {
    let first = idx as u64 * RECORDS_PER_CHUNK;
    bytes.len() == CHUNK
        && bytes.chunks(RECORD).enumerate().all(|(i, got)| {
            let r = first + i as u64;
            unknown.contains(&r) || got == record_bytes(r, stamps.get(&r).copied().unwrap_or(0))
        })
}

/// One closed-loop client. It owns the records of its own parity, so it
/// knows what every read of them must return.
struct Client {
    thread: u64,
    rng: StdRng,
    next_stamp: u64,
    /// Negative control: corrupt the first measured read result.
    flip: bool,
}

struct ClientOut {
    /// Wall time of each measured submit.
    latencies: Vec<u64>,
    ops: u64,
    first_start: Option<Instant>,
    last_end: Option<Instant>,
    attempted: u64,
    failed: u64,
    /// Stamp of this client's last write per record.
    shadow: HashMap<u64, u64>,
    /// Records whose write failed: their contents are unknown.
    lost: HashSet<u64>,
}

impl Client {
    #[allow(clippy::too_many_arguments)]
    fn run(
        mut self,
        mgr: &VolumeManager<Disk>,
        vol: VolumeId,
        fg: Foreground,
        zipf: Option<&Zipf>,
        records: u64,
        log: Option<Arc<SpanLog>>,
        t0: Instant,
        deadline: Instant,
    ) -> ClientOut {
        let mut out = ClientOut {
            latencies: Vec::new(),
            ops: 0,
            first_start: None,
            last_end: None,
            attempted: 0,
            failed: 0,
            shadow: HashMap::new(),
            lost: HashSet::new(),
        };
        loop {
            let began = Instant::now();
            if began >= deadline {
                break;
            }
            let measured = began >= t0;
            let mut ops = Vec::with_capacity(fg.group);
            // Per op: the record and, for reads, the stamp it must show.
            let mut expect: Vec<(u64, Option<u64>)> = Vec::with_capacity(fg.group);
            for _ in 0..fg.group {
                let key = match zipf {
                    Some(z) => z.sample(&mut self.rng) as u64,
                    None => self.rng.gen_range(0..records / 2),
                };
                let record = key * 2 + self.thread;
                if self.rng.gen::<f64>() < fg.read_frac {
                    let stamp = out.shadow.get(&record).copied().unwrap_or(0);
                    ops.push(Op::Read {
                        volume: vol,
                        record,
                    });
                    expect.push((record, Some(stamp)));
                } else {
                    let stamp = (self.thread + 1) << 48 | self.next_stamp;
                    self.next_stamp += 1;
                    out.shadow.insert(record, stamp);
                    ops.push(Op::Write {
                        volume: vol,
                        record,
                        data: record_bytes(record, stamp),
                    });
                    expect.push((record, None));
                }
            }
            let n = ops.len();
            let results = probe::call(log.as_deref(), Kind::Submit, n as u32, || mgr.submit(ops));
            let ended = Instant::now();
            out.attempted += n as u64;
            for ((record, want), result) in expect.into_iter().zip(results) {
                let ok = match (want, result) {
                    (Some(stamp), Ok(Some(mut bytes))) => {
                        if measured && std::mem::take(&mut self.flip) {
                            bytes[0] ^= 1;
                        }
                        out.lost.contains(&record) || bytes == record_bytes(record, stamp)
                    }
                    (None, Ok(None)) => true,
                    (None, _) => {
                        out.lost.insert(record);
                        false
                    }
                    _ => false,
                };
                if !ok {
                    out.failed += 1;
                }
            }
            if measured {
                out.latencies.push((ended - began).as_nanos() as u64);
                out.ops += n as u64;
                out.first_start.get_or_insert(began);
                out.last_end = Some(ended);
            }
        }
        out
    }
}

/// A finished closed loop.
struct Loaded {
    clients: Vec<ClientOut>,
    before: Counters,
    after: Counters,
    /// The measured window on the span log's clock.
    window: (u64, u64),
}

impl Loaded {
    /// Per-op latencies. Every op of a submit takes that submit's wall
    /// time, and every submit carries the same number of ops, so op
    /// percentiles equal submit percentiles.
    fn op_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .clients
            .iter()
            .flat_map(|c| c.latencies.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let ops: u64 = self.clients.iter().map(|c| c.ops).sum();
        let first = self.clients.iter().filter_map(|c| c.first_start).min();
        let last = self.clients.iter().filter_map(|c| c.last_end).max();
        let secs = match (first, last) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        };
        let lat = self.op_latencies();
        vec![
            Metric {
                name: "ops_per_s",
                value: if secs > 0.0 { ops as f64 / secs } else { 0.0 },
                unit: "1/s",
            },
            Metric {
                name: "op_p50_ms",
                value: percentile_ms(&lat, 0.5),
                unit: "ms",
            },
            Metric {
                name: "op_p99_ms",
                value: percentile_ms(&lat, 0.99),
                unit: "ms",
            },
        ]
    }

    fn note(&self) -> String {
        let ops: u64 = self.clients.iter().map(|c| c.ops).sum();
        let submits: usize = self.clients.iter().map(|c| c.latencies.len()).sum();
        format!(
            "percentiles over {ops} op samples from {submits} submits ({THREADS} client threads, {SHARDS} shards)"
        )
    }
}
