//! The bench-side instruments: a [`BlockDevice`] wrapper that times every
//! call the store makes into `blockdev`, and the in-memory span log the
//! traced run records into.
//!
//! Everything here sits outside the program: the store only sees another
//! `BlockDevice`, and the bench opens a span around each of its own calls
//! into `volume` and `oi-raid`.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blockdev::{BlockDevice, CounterSnapshot, DeviceError, DeviceLatency, FaultInjectingDevice};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `VolumeManager::submit` call; `units` is its op count.
    Submit,
    /// One `OiRaidStore::rebuild` call; `units` is 1.
    Rebuild,
    /// One device read call; `units` is its chunk count.
    Read,
    /// One device write call (one chunk).
    Write,
    /// One device flush call.
    Flush,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Submit => "submit",
            Kind::Rebuild => "rebuild",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Flush => "flush",
        }
    }

    /// Whether this span is a device call.
    pub fn is_device(self) -> bool {
        matches!(self, Kind::Read | Kind::Write | Kind::Flush)
    }
}

/// Disk field of spans that are not device calls.
const NO_DISK: u16 = u16::MAX;

/// One timed interval. Device spans carry the id of the bench call they
/// ran under as `parent`, so one request's spans share an identifier.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub id: u64,
    pub parent: u64,
    pub thread: u32,
    pub disk: u16,
    pub units: u32,
    /// Nanoseconds since the log's origin.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// The bench call (submit) this thread is inside, or 0.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn thread_no() -> u32 {
    THREAD.with(|t| *t)
}

/// The traced run's span recorder: kept in memory, written out once the
/// run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    /// Parent for device calls made on threads that are not inside a
    /// bench call of their own (the rebuild's DAG pool workers).
    ambient: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            ambient: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log's origin.
    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as nanoseconds since the log's origin.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Runs `f` as one bench call into the program (`Submit` or
    /// `Rebuild`): device calls made meanwhile on this thread, and for a
    /// rebuild on any pool thread, record this span as their parent.
    pub fn call<T>(&self, kind: Kind, units: u32, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ambient = kind == Kind::Rebuild;
        CURRENT.with(|c| c.set(id));
        if ambient {
            self.ambient.store(id, Ordering::Relaxed);
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        if ambient {
            self.ambient.store(0, Ordering::Relaxed);
        }
        CURRENT.with(|c| c.set(0));
        self.push(Span {
            kind,
            id,
            parent: 0,
            thread: thread_no(),
            disk: NO_DISK,
            units,
            start,
            end,
        });
        out
    }

    fn device<T>(&self, kind: Kind, disk: usize, units: usize, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let parent = match CURRENT.with(Cell::get) {
            0 => self.ambient.load(Ordering::Relaxed),
            id => id,
        };
        self.push(Span {
            kind,
            id: 0,
            parent,
            thread: thread_no(),
            disk: disk as u16,
            units: units as u32,
            start,
            end,
        });
        out
    }

    /// Forgets every span recorded so far.
    pub fn clear(&self) {
        self.spans.lock().expect("span log lock").clear();
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Writes the spans as CSV (`kind,id,parent,thread,disk,units,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind,id,parent,thread,disk,units,start_ns,end_ns")?;
        for s in self.spans.lock().expect("span log lock").iter() {
            let disk = if s.disk == NO_DISK {
                String::new()
            } else {
                s.disk.to_string()
            };
            writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.kind.name(),
                s.id,
                s.parent,
                s.thread,
                disk,
                s.units,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Runs `f` as one bench call of `kind`, recorded in `log` when tracing.
pub fn call<T>(log: Option<&SpanLog>, kind: Kind, units: u32, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => log.call(kind, units, f),
        None => f(),
    }
}

/// A member disk as the bench sees it: the 300 µs spindle model
/// ([`FaultInjectingDevice`]) with a timing probe in front. Without a span
/// log the probe is a pass-through.
#[derive(Debug)]
pub struct ProbeDevice<B> {
    disk: usize,
    inner: FaultInjectingDevice<B>,
    log: Option<Arc<SpanLog>>,
}

impl<B: BlockDevice> ProbeDevice<B> {
    pub fn new(disk: usize, inner: FaultInjectingDevice<B>, log: Option<Arc<SpanLog>>) -> Self {
        Self { disk, inner, log }
    }

    /// The spindle model, for arming and disarming its latency.
    pub fn spindle(&self) -> &FaultInjectingDevice<B> {
        &self.inner
    }

    fn timed<T>(&self, kind: Kind, units: usize, f: impl FnOnce() -> T) -> T {
        match &self.log {
            Some(log) => log.device(kind, self.disk, units, f),
            None => f(),
        }
    }
}

impl<B: BlockDevice> BlockDevice for ProbeDevice<B> {
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
        self.timed(Kind::Read, 1, || self.inner.read_chunk(chunk, buf))
    }

    fn read_chunks(&self, first: usize, count: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.timed(Kind::Read, count, || {
            self.inner.read_chunks(first, count, buf)
        })
    }

    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.timed(Kind::Write, 1, || self.inner.write_chunk(chunk, data))
    }

    fn flush(&self) -> Result<(), DeviceError> {
        self.timed(Kind::Flush, 0, || self.inner.flush())
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

    fn latency(&self) -> DeviceLatency {
        self.inner.latency()
    }
}
