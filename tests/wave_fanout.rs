//! Foreground waves fan their chunk I/O out across the spindles they
//! touch: a multi-chunk batch keeps several disks busy at once, while a
//! single-chunk call stays on the calling thread. The fan-out must not
//! change a single byte — batched results stay bit-identical to
//! one-at-a-time results, healthy, degraded, and mid-rebuild — and device
//! events issued from helper threads must still hang under the wave's
//! node in the trace tree.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oi_raid_repro::prelude::*;

/// Array-wide concurrency probe: how many distinct disks have an
/// operation inside them right now, and the most seen at once.
#[derive(Debug)]
struct Spindles {
    per_disk: Vec<AtomicUsize>,
    busy: AtomicUsize,
    peak: AtomicUsize,
}

impl Spindles {
    fn new(disks: usize) -> Self {
        Self {
            per_disk: (0..disks).map(|_| AtomicUsize::new(0)).collect(),
            busy: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn enter(&self, disk: usize) {
        if self.per_disk[disk].fetch_add(1, Ordering::SeqCst) == 0 {
            let now = self.busy.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }
    }

    fn leave(&self, disk: usize) {
        if self.per_disk[disk].fetch_sub(1, Ordering::SeqCst) == 1 {
            self.busy.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Returns the peak since the last call and starts a new window.
    fn take_peak(&self) -> usize {
        self.peak.swap(0, Ordering::SeqCst)
    }
}

/// A latency-armed spindle that reports its busy periods to [`Spindles`].
#[derive(Debug)]
struct Counting {
    inner: FaultInjectingDevice<MemDevice>,
    disk: usize,
    spindles: Arc<Spindles>,
}

impl Counting {
    fn io<T>(&self, op: impl FnOnce() -> T) -> T {
        self.spindles.enter(self.disk);
        let out = op();
        self.spindles.leave(self.disk);
        out
    }
}

impl BlockDevice for Counting {
    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }
    fn chunks(&self) -> usize {
        self.inner.chunks()
    }
    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }
    fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.io(|| self.inner.read_chunk(chunk, buf))
    }
    fn read_chunks(&self, first: usize, count: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.io(|| self.inner.read_chunks(first, count, buf))
    }
    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.io(|| self.inner.write_chunk(chunk, data))
    }
    fn flush(&self) -> Result<(), DeviceError> {
        self.io(|| self.inner.flush())
    }
    fn fail(&self) {
        self.inner.fail();
    }
    fn heal(&self) -> Result<(), DeviceError> {
        self.inner.heal()
    }
    fn counters(&self) -> CounterSnapshot {
        self.inner.counters()
    }
    fn reset_counters(&self) {
        self.inner.reset_counters();
    }
}

type CountingStore = OiRaidStore<Counting>;

const CHUNK: usize = 64;

/// Data chunks of the reference configuration.
const DATA_CHUNKS: usize = 84;

/// A reference-config store on counting devices.
fn counting_store() -> (CountingStore, Arc<Spindles>) {
    let cfg = OiRaidConfig::reference();
    let spindles = Arc::new(Spindles::new(cfg.disks()));
    let devices: Vec<_> = (0..cfg.disks())
        .map(|disk| Counting {
            inner: FaultInjectingDevice::new(
                MemDevice::new(CHUNK, cfg.chunks_per_disk()),
                FaultConfig::default(),
            ),
            disk,
            spindles: Arc::clone(&spindles),
        })
        .collect();
    let store = OiRaidStore::with_devices(cfg, CHUNK, devices).unwrap();
    (store, spindles)
}

/// Deterministic xorshift bytes.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Writes every data chunk one at a time, unarmed; returns the contents.
fn prefill(store: &CountingStore) -> Vec<u8> {
    let image = bytes(1, store.data_chunks() * CHUNK);
    for (idx, chunk) in image.chunks(CHUNK).enumerate() {
        store.write_data(idx, chunk).unwrap();
    }
    image
}

fn arm_latency(store: &CountingStore, lat: Duration) {
    for dev in store.devices() {
        dev.inner.set_config(FaultConfig::latency(lat, lat));
    }
}

#[test]
fn multi_chunk_waves_keep_several_disks_in_flight() {
    let (store, spindles) = counting_store();
    prefill(&store);
    arm_latency(&store, Duration::from_micros(300));
    let idxs: Vec<usize> = (0..store.data_chunks()).step_by(5).collect();
    assert!(idxs.len() >= 16);

    spindles.take_peak();
    let writes: Vec<(u64, Vec<u8>)> = idxs
        .iter()
        .map(|&i| ((i * CHUNK) as u64, bytes(100 + i as u64, CHUNK)))
        .collect();
    let ranges: Vec<(u64, &[u8])> = writes.iter().map(|(o, d)| (*o, d.as_slice())).collect();
    store.write_bytes_batch(&ranges).unwrap();
    let wave_write = spindles.take_peak();
    assert!(
        wave_write >= 2,
        "a multi-chunk write wave kept {wave_write} disk(s) in flight"
    );

    let got = store.read_data_batch(&idxs).unwrap();
    let wave_read = spindles.take_peak();
    assert!(
        wave_read >= 2,
        "a multi-chunk read batch kept {wave_read} disk(s) in flight"
    );
    for ((_, want), got) in writes.iter().zip(&got) {
        assert_eq!(got, want);
    }

    // A single-chunk call runs inline: one device op at a time, even
    // though its update set spans four disks.
    for &i in idxs.iter().take(6) {
        store.write_data(i, &bytes(200 + i as u64, CHUNK)).unwrap();
        assert_eq!(store.read_data(i).unwrap(), bytes(200 + i as u64, CHUNK));
    }
    assert_eq!(
        spindles.take_peak(),
        1,
        "write_data stays on one disk at a time"
    );
    assert!(store.check_parity().is_empty());
}

/// One round of possibly overlapping byte-range writes: whole chunks,
/// partial chunks, and ranges spanning chunk boundaries.
fn round(store_chunks: usize, r: u64) -> Vec<(u64, Vec<u8>)> {
    let cap = (store_chunks * CHUNK) as u64;
    (0..24u64)
        .map(|k| {
            let seed = r * 1000 + k;
            let pick = bytes(seed, 4);
            let off = u64::from(u32::from_le_bytes([pick[0], pick[1], pick[2], pick[3]])) % cap;
            let len = match k % 4 {
                0 => CHUNK,
                1 => 1 + (pick[0] as usize % CHUNK),
                2 => CHUNK + 17,
                _ => 3 * CHUNK,
            };
            let len = len.min((cap - off) as usize);
            (off, bytes(seed ^ 0xABCD, len))
        })
        .collect()
}

/// Applies `rounds` to `store` batched (one `write_bytes_batch` per round)
/// or one range at a time, updating `image` to the contents it should hold.
fn apply(store: &CountingStore, image: &mut [u8], rounds: &[Vec<(u64, Vec<u8>)>], batched: bool) {
    for writes in rounds {
        if batched {
            let ranges: Vec<(u64, &[u8])> =
                writes.iter().map(|(o, d)| (*o, d.as_slice())).collect();
            store.write_bytes_batch(&ranges).unwrap();
        } else {
            for (off, data) in writes {
                store.write_bytes(*off, data).unwrap();
            }
        }
        for (off, data) in writes {
            image[*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
    }
}

/// Every chunk of every disk, raw.
fn raw(store: &CountingStore) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for dev in store.devices() {
        for c in 0..dev.chunks() {
            let mut buf = vec![0u8; CHUNK];
            dev.read_chunk(c, &mut buf).unwrap();
            out.push(buf);
        }
    }
    out
}

/// Batched reads of every chunk (shuffled, with repeats) against
/// one-at-a-time reads and the model image.
fn check_reads(store: &CountingStore, image: &[u8]) {
    let n = store.data_chunks();
    let idxs: Vec<usize> = (0..2 * n).map(|i| (i * 7 + 3) % n).collect();
    let batched = store.read_data_batch(&idxs).unwrap();
    for (&i, got) in idxs.iter().zip(&batched) {
        assert_eq!(got, &store.read_data(i).unwrap(), "chunk {i}");
        assert_eq!(
            got.as_slice(),
            &image[i * CHUNK..(i + 1) * CHUNK],
            "chunk {i}"
        );
    }
}

/// Runs the same write rounds batched and one at a time against two
/// identical stores (optionally with `fail` failed, optionally while a
/// paced rebuild runs), then requires identical reads and — once both
/// arrays are whole again — bit-identical disks.
fn batched_matches_sequential(fail: Option<usize>, live_rebuild: bool) {
    let rounds: Vec<_> = (0..4).map(|r| round(DATA_CHUNKS, r)).collect();
    let mut images = Vec::new();
    let mut stores = Vec::new();
    for batched in [true, false] {
        let (store, _) = counting_store();
        assert_eq!(store.data_chunks(), DATA_CHUNKS);
        let mut image = prefill(&store);
        if let Some(d) = fail {
            store.fail_disk(d).unwrap();
        }
        if live_rebuild {
            // Pace the rebuild so the whole write sequence lands while its
            // window is open.
            store.set_qos(QosConfig {
                rebuild_chunks_per_sec: Some(40.0),
                burst_chunks: 1,
                foreground_window: Duration::from_millis(500),
            });
            let obs = RebuildObserver::default();
            let report = std::thread::scope(|s| {
                let rebuild = s.spawn(|| {
                    store
                        .rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
                        .unwrap()
                });
                while obs.progress.snapshot().fraction == 0.0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                apply(&store, &mut image, &rounds, batched);
                assert!(
                    !obs.progress.snapshot().finished,
                    "the writes overlapped the rebuild"
                );
                check_reads(&store, &image);
                rebuild.join().unwrap()
            });
            assert_eq!(report.outcome, RebuildOutcome::Complete, "{report}");
        } else {
            apply(&store, &mut image, &rounds, batched);
            check_reads(&store, &image);
            if fail.is_some() {
                store
                    .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                    .unwrap();
            }
        }
        check_reads(&store, &image);
        assert!(store.check_parity().is_empty(), "parity clean");
        images.push(image);
        stores.push(store);
    }
    assert_eq!(images[0], images[1]);
    assert!(
        raw(&stores[0]) == raw(&stores[1]),
        "batched and one-at-a-time disks differ"
    );
}

#[test]
fn batched_matches_one_at_a_time_healthy() {
    batched_matches_sequential(None, false);
}

#[test]
fn batched_matches_one_at_a_time_with_a_failed_disk() {
    batched_matches_sequential(Some(4), false);
}

#[test]
fn batched_matches_one_at_a_time_mid_rebuild() {
    batched_matches_sequential(Some(9), true);
}

/// All events reachable from `root` by following parent → trace edges.
fn descendants(events: &[Event], root: u64) -> Vec<Event> {
    let mut children: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        children.entry(e.parent).or_default().push(e);
    }
    let mut out = Vec::new();
    let mut frontier = vec![root];
    while let Some(id) = frontier.pop() {
        for e in children.get(&id).into_iter().flatten() {
            out.push((*e).clone());
            frontier.push(e.trace);
        }
    }
    out
}

fn device_ops(store: &CountingStore) -> (u64, u64) {
    store.devices().iter().fold((0, 0), |(r, w), d| {
        let c = d.counters();
        (r + c.reads, w + c.writes)
    })
}

#[test]
fn helper_thread_device_events_hang_under_the_wave() {
    telemetry::set_enabled(true);
    telemetry::set_trace_sample(Some(1));
    let (store, spindles) = counting_store();
    prefill(&store);
    arm_latency(&store, Duration::from_micros(100));
    let idxs: Vec<usize> = (0..store.data_chunks()).step_by(4).collect();
    let writes: Vec<(u64, Vec<u8>)> = idxs
        .iter()
        .map(|&i| ((i * CHUNK) as u64, bytes(300 + i as u64, CHUNK)))
        .collect();
    let ranges: Vec<(u64, &[u8])> = writes.iter().map(|(o, d)| (*o, d.as_slice())).collect();

    // Trace one write wave and one read batch, each under its own root,
    // counting the device ops each one issued.
    spindles.take_peak();
    let root_w = telemetry::alloc_trace_id();
    let before = device_ops(&store);
    {
        let _root = telemetry::enter_trace(root_w);
        store.write_bytes_batch(&ranges).unwrap();
    }
    let mid = device_ops(&store);
    let root_r = telemetry::alloc_trace_id();
    {
        let _root = telemetry::enter_trace(root_r);
        store.read_data_batch(&idxs).unwrap();
    }
    let after = device_ops(&store);
    assert!(spindles.take_peak() >= 2, "the traced calls fanned out");

    let events = telemetry::traces().snapshot();
    let under = |root: u64, node: EventKind, leaf: EventKind| -> u64 {
        let nodes: Vec<u64> = descendants(&events, root)
            .iter()
            .filter(|e| e.kind == node)
            .map(|e| e.trace)
            .collect();
        assert!(!nodes.is_empty(), "{node:?} node under root {root}");
        nodes
            .iter()
            .map(|&n| {
                descendants(&events, n)
                    .iter()
                    .filter(|e| e.kind == leaf)
                    .count() as u64
            })
            .sum()
    };
    // Every device op of the wave — the caller's and the helpers' — is a
    // leaf of its WriteGroup / BatchRead node.
    assert_eq!(
        under(root_w, EventKind::WriteGroup, EventKind::DeviceRead),
        mid.0 - before.0
    );
    assert_eq!(
        under(root_w, EventKind::WriteGroup, EventKind::DeviceWrite),
        mid.1 - before.1
    );
    assert_eq!(
        under(root_r, EventKind::BatchRead, EventKind::DeviceRead),
        after.0 - mid.0
    );
}
