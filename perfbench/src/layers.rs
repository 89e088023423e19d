//! Per-layer metrics of a traced run, computed from the span log and the
//! program's public counters.

use std::collections::{HashMap, HashSet};

use blockdev::BlockDevice;
use oi_raid::RebuildReport;
use volume::VolumeManager;

use crate::probe::{Kind, Span};
use crate::{Calibration, Metric, FAILED};

/// Public counters of `volume`, the store and the journal at one instant.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    waves: u64,
    batch_ops: u64,
    chunk_reads: u64,
    chunk_writes: u64,
    appends: u64,
    fsyncs: u64,
    /// Journal group-commit batches (flushes that covered intents) and
    /// the intents they covered.
    commit_batches: u64,
    commit_intents: u64,
}

impl Counters {
    pub fn read<B: BlockDevice>(mgr: &VolumeManager<B>) -> Self {
        let store = mgr.store();
        let telem = store.telemetry();
        let mut c = Self {
            waves: mgr.waves(),
            batch_ops: mgr.batch_ops(),
            chunk_reads: telem.batch_read_chunks(),
            chunk_writes: telem.batch_write_chunks(),
            ..Self::default()
        };
        if let Some(j) = store.journal() {
            let stats = j.stats();
            let batch = stats.batch.snapshot();
            c.appends = stats.appends.load(std::sync::atomic::Ordering::Relaxed);
            c.fsyncs = stats.flushes.load(std::sync::atomic::Ordering::Relaxed);
            c.commit_batches = batch.count;
            c.commit_intents = batch.sum;
        }
        c
    }

    fn since(&self, e: &Counters) -> Counters {
        Counters {
            waves: self.waves - e.waves,
            batch_ops: self.batch_ops - e.batch_ops,
            chunk_reads: self.chunk_reads - e.chunk_reads,
            chunk_writes: self.chunk_writes - e.chunk_writes,
            appends: self.appends - e.appends,
            fsyncs: self.fsyncs - e.fsyncs,
            commit_batches: self.commit_batches - e.commit_batches,
            commit_intents: self.commit_intents - e.commit_intents,
        }
    }
}

/// One timed rebuild call; `report` is `None` when it did not complete.
#[derive(Debug, Clone)]
pub struct RebuildSample {
    pub wall_ns: u64,
    pub report: Option<RebuildReport>,
}

/// What the per-layer analysis needs besides the spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// The foreground window on the span clock; empty for `rebuild-2disk`,
    /// whose device metrics cover its rebuild calls.
    pub window: (u64, u64),
    pub before: Counters,
    pub after: Counters,
    pub rebuilds: Vec<RebuildSample>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Total time covered by at least one of `iv`, clipped to `[lo, hi)`.
fn busy(iv: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for &(s, e) in iv.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Most intervals of `iv` open at once.
fn peak(iv: &[(u64, u64)]) -> u64 {
    let mut ev: Vec<(u64, i64)> = iv.iter().flat_map(|&(s, e)| [(s, 1), (e, -1)]).collect();
    // Ends sort before starts at the same instant.
    ev.sort_unstable();
    let (mut now, mut max) = (0i64, 0i64);
    for (_, d) in ev {
        now += d;
        max = max.max(now);
    }
    max as u64
}

impl Layers {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn compute(&self, spans: &[Span], cal: &Calibration, disks: usize) -> Vec<Metric> {
        let c = self.after.since(&self.before);
        let ops = c.batch_ops as f64;
        let foreground = self.window.1 > self.window.0;
        let roots: Vec<&Span> = spans
            .iter()
            .filter(|s| {
                if foreground {
                    s.kind == Kind::Submit && s.start >= self.window.0 && s.start < self.window.1
                } else {
                    s.kind == Kind::Rebuild
                }
            })
            .collect();
        let root_ids: HashSet<u64> = roots.iter().map(|s| s.id).collect();
        let dev: Vec<&Span> = spans
            .iter()
            .filter(|s| s.kind.is_device() && root_ids.contains(&s.parent))
            .collect();
        let root_ops: f64 = roots.iter().map(|s| s.units as f64).sum();
        let wall = if foreground {
            let lo = roots.iter().map(|s| s.start).min().unwrap_or(0);
            let hi = roots.iter().map(|s| s.end).max().unwrap_or(0);
            hi.saturating_sub(lo)
        } else {
            roots.iter().map(|s| s.dur()).sum()
        } as f64;

        // Device calls, by kind: calls, chunks, caller-seen time.
        let tally = |k: Kind| {
            dev.iter()
                .filter(|s| s.kind == k)
                .fold((0.0, 0.0, 0.0), |(n, u, t), s| {
                    (n + 1.0, u + s.units as f64, t + s.dur() as f64)
                })
        };
        let (_, read_chunks, read_ns) = tally(Kind::Read);
        let (_, write_chunks, write_ns) = tally(Kind::Write);
        let (flushes, _, flush_ns) = tally(Kind::Flush);
        let chunk_ios = read_chunks + write_chunks;
        let service = read_chunks * cal.read_ns + write_chunks * cal.write_ns;
        let mut per_disk: HashMap<u16, Vec<(u64, u64)>> = HashMap::new();
        for s in &dev {
            per_disk.entry(s.disk).or_default().push((s.start, s.end));
        }
        let busy_ns: u64 = per_disk.values_mut().map(|iv| busy(iv, 0, u64::MAX)).sum();
        let peak_inflight = per_disk.values().map(|iv| peak(iv)).max().unwrap_or(0);

        // Submit self time: the submit span minus the device spans its own
        // thread ran inside it.
        let mut own_dev: HashMap<u64, u64> = HashMap::new();
        let thread_of: HashMap<u64, u32> = roots.iter().map(|s| (s.id, s.thread)).collect();
        for s in &dev {
            if thread_of.get(&s.parent) == Some(&s.thread) {
                *own_dev.entry(s.parent).or_default() += s.dur();
            }
        }
        let submits: Vec<&&Span> = roots.iter().filter(|s| s.kind == Kind::Submit).collect();
        let submit_ns: u64 = submits.iter().map(|s| s.dur()).sum();
        let submit_dev_ns: u64 = submits
            .iter()
            .map(|s| own_dev.get(&s.id).copied().unwrap_or(0))
            .sum();

        // Rebuild calls: stage shares, replacement-disk busy time, balance.
        let reports: Vec<&RebuildReport> = self
            .rebuilds
            .iter()
            .filter_map(|r| r.report.as_ref())
            .collect();
        let stage = |name: &str| -> f64 {
            reports
                .iter()
                .filter_map(|r| r.stage(name))
                .map(|s| s.latency.sum as f64)
                .sum()
        };
        let throttle: f64 = reports
            .iter()
            .map(|r| r.throttle_wait.as_nanos() as f64)
            .sum();
        let (read, combine, writeback) = (stage("read"), stage("combine"), stage("writeback"));
        let stage_total = read + stage("coalesce") + combine + writeback + throttle;
        // Calls on the replacement disks, by rebuild call and disk.
        let mut on_targets: HashMap<(u64, u16), Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.kind.is_device()) {
            if FAILED.contains(&(s.disk as usize)) {
                on_targets
                    .entry((s.parent, s.disk))
                    .or_default()
                    .push((s.start, s.end));
            }
        }
        let (mut target_busy, mut target_span) = (0u64, 0u64);
        for r in spans.iter().filter(|s| s.kind == Kind::Rebuild) {
            for d in FAILED {
                if let Some(iv) = on_targets.get_mut(&(r.id, d as u16)) {
                    target_busy += busy(iv, r.start, r.end);
                }
                target_span += r.dur();
            }
        }
        let n = reports.len().max(1) as f64;
        let mean =
            |f: &dyn Fn(&RebuildReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>() / n;

        let m = |name, value: f64, unit| Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        };
        vec![
            m("volume.ops_per_wave", ratio(ops, c.waves as f64), "ops"),
            m(
                "volume.absorb_ratio",
                if ops > 0.0 {
                    1.0 - (c.chunk_reads + c.chunk_writes) as f64 / ops
                } else {
                    0.0
                },
                "ratio",
            ),
            m(
                "volume.offdevice_share",
                if submit_ns > 0 {
                    1.0 - submit_dev_ns as f64 / submit_ns as f64
                } else {
                    0.0
                },
                "ratio",
            ),
            m(
                "store.chunk_reads_per_op",
                ratio(c.chunk_reads as f64, ops),
                "chunks/op",
            ),
            m(
                "store.chunk_writes_per_op",
                ratio(c.chunk_writes as f64, ops),
                "chunks/op",
            ),
            m(
                "dev.reads_per_op",
                ratio(read_chunks, root_ops),
                "chunks/op",
            ),
            m(
                "dev.writes_per_op",
                ratio(write_chunks, root_ops),
                "chunks/op",
            ),
            m("dev.flushes_per_op", ratio(flushes, root_ops), "calls/op"),
            m("dev.read_us", ratio(read_ns, read_chunks) / 1e3, "us"),
            m("dev.write_us", ratio(write_ns, write_chunks) / 1e3, "us"),
            m("dev.flush_us", ratio(flush_ns, flushes) / 1e3, "us"),
            m(
                "dev.queue_wait_us",
                ratio(read_ns + write_ns - service, chunk_ios) / 1e3,
                "us",
            ),
            m("dev.parallelism", ratio(busy_ns as f64, wall), "disks"),
            m(
                "dev.ceiling_frac",
                ratio(chunk_ios * 1e9, wall) / cal.ceiling(disks),
                "ratio",
            ),
            m("dev.peak_inflight", peak_inflight as f64, "count"),
            m(
                "journal.appends_per_op",
                ratio(c.appends as f64, ops),
                "records/op",
            ),
            m(
                "journal.fsyncs_per_op",
                ratio(c.fsyncs as f64, ops),
                "calls/op",
            ),
            m(
                "journal.batch_mean",
                ratio(c.commit_intents as f64, c.commit_batches as f64),
                "intents",
            ),
            m("rebuild.read_share", ratio(read, stage_total), "ratio"),
            m(
                "rebuild.combine_share",
                ratio(combine, stage_total),
                "ratio",
            ),
            m(
                "rebuild.writeback_share",
                ratio(writeback, stage_total),
                "ratio",
            ),
            m(
                "rebuild.throttle_share",
                ratio(throttle, stage_total),
                "ratio",
            ),
            m(
                "rebuild.target_busy_frac",
                ratio(target_busy as f64, target_span as f64),
                "ratio",
            ),
            m("rebuild.read_balance", mean(&survivor_balance), "ratio"),
            m(
                "rebuild.worker_util",
                mean(&RebuildReport::worker_utilization),
                "ratio",
            ),
            m("sched.steals", mean(&|r| r.sched.steals as f64), "count"),
        ]
    }
}

/// Max over mean reads of the disks a rebuild read from.
fn survivor_balance(report: &RebuildReport) -> f64 {
    let reads: Vec<u64> = report
        .device_io
        .iter()
        .enumerate()
        .filter(|(d, _)| !report.rebuilt_disks.contains(d))
        .map(|(_, c)| c.reads)
        .collect();
    let mean = reads.iter().sum::<u64>() as f64 / reads.len().max(1) as f64;
    let max = reads.iter().copied().max().unwrap_or(0) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_unions_and_clips() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(busy(&mut iv, 0, u64::MAX), 30);
        assert_eq!(busy(&mut iv, 18, 45), 17);
    }

    #[test]
    fn peak_counts_overlap() {
        assert_eq!(peak(&[(0, 10), (5, 15), (10, 20)]), 2);
        assert_eq!(peak(&[]), 0);
    }
}
