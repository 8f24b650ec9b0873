//! I/O accounting: cacheline read/write counters and the simulated clock.
//!
//! The paper instruments its C++ implementation to report response time and
//! the numbers of cacheline reads and writes (§4, "Datasets and metrics").
//! We reproduce the same three metrics deterministically: the simulated
//! response time is `reads·r + writes·w + software_overhead`.
//!
//! # Sharded hot-path accounting
//!
//! Counting must not serialize the harness: if every counted access did a
//! `fetch_add` on shared atomics, partition-parallel workers would spend
//! their wall-clock ping-ponging the counter cachelines instead of
//! scaling (measured: critical-path speedups of 3.4–6.2× at DoP 4–8 with
//! wall-clock stuck at ≤ 1.0×). So the *only* hot-path bookkeeping is one
//! thread-local registry, touched once per charge. It holds:
//!
//! * a per-bank *shard* of pending deltas, bulk-published into the shared
//!   [`Metrics`] bank by `Bank::merge_shard` at flush points —
//!   [`crate::flush_thread_accounting`] at worker-pool task ends and
//!   barrier joins and at bulk `append_buffer` flushes, and implicitly
//!   whenever the owning thread reads the bank ([`Metrics::snapshot`]
//!   flushes the caller's own shards first, so single-threaded
//!   observations are always exact); and
//! * the thread's cumulative *flow* ([`thread_flow`]): everything it
//!   charged plus everything it [`adopt`]ed from worker tasks it
//!   consumed. Flow is what profiling spans measure, so per-task and
//!   per-operator attribution — including the critical-path analysis of
//!   the parallel executors — is a span tree over flow deltas, never a
//!   second set of counters.
//!
//! A thread's shards also flush when the thread exits (a thread-local
//! destructor), so raw `thread::scope` users and mid-task panics never
//! lose pending counts — and a flush zeroes the shards, so counts are
//! never published twice. Cross-thread visibility relies on the same
//! happens-before edges the results themselves use (channel sends, scope
//! joins), which is why `Relaxed` atomics remain sufficient. Multi-field
//! [`Metrics::snapshot`]s are only guaranteed internally consistent while
//! no other thread is mid-operation — the executors take their
//! measurement snapshots on the coordinating thread, outside parallel
//! sections.

use crate::config::LatencyProfile;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Internal software-time resolution: picoseconds per nanosecond. Storing
/// integer picoseconds makes concurrent accumulation exact (u64 addition
/// commutes; f64 addition does not).
const PS_PER_NS: f64 = 1000.0;

/// A point-in-time snapshot of device counters.
///
/// Snapshots form an affine space: subtracting two snapshots yields the
/// traffic of the interval between them, which is how the harness isolates
/// the cost of a single operation from the cost of loading its inputs
/// (the paper factors data loading out of its timings).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoStats {
    /// Cachelines read from persistent memory.
    pub cl_reads: u64,
    /// Cachelines written to persistent memory.
    pub cl_writes: u64,
    /// Accumulated software overhead in nanoseconds (filesystem calls,
    /// allocator work) on top of raw medium latency.
    pub software_ns: f64,
    /// Number of I/O calls issued to persistence layers.
    pub calls: u64,
}

impl IoStats {
    /// Traffic between `earlier` and `self` (i.e., `self - earlier`).
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is not actually earlier — every
    /// field is checked, so a reset (or a snapshot torn across a reset)
    /// between the two observations is caught instead of silently
    /// producing wrapped counters or negative software time.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        debug_assert!(
            self.cl_reads >= earlier.cl_reads,
            "cl_reads went backwards: {} < {}",
            self.cl_reads,
            earlier.cl_reads
        );
        debug_assert!(
            self.cl_writes >= earlier.cl_writes,
            "cl_writes went backwards: {} < {}",
            self.cl_writes,
            earlier.cl_writes
        );
        debug_assert!(
            self.software_ns >= earlier.software_ns,
            "software_ns went backwards: {} < {}",
            self.software_ns,
            earlier.software_ns
        );
        debug_assert!(
            self.calls >= earlier.calls,
            "calls went backwards: {} < {}",
            self.calls,
            earlier.calls
        );
        IoStats {
            cl_reads: self.cl_reads - earlier.cl_reads,
            cl_writes: self.cl_writes - earlier.cl_writes,
            software_ns: self.software_ns - earlier.software_ns,
            calls: self.calls - earlier.calls,
        }
    }

    /// Component-wise sum (used to reconcile per-task span costs against
    /// the device totals).
    #[must_use]
    pub fn plus(&self, other: &IoStats) -> IoStats {
        IoStats {
            cl_reads: self.cl_reads + other.cl_reads,
            cl_writes: self.cl_writes + other.cl_writes,
            software_ns: self.software_ns + other.software_ns,
            calls: self.calls + other.calls,
        }
    }

    /// Simulated elapsed time in nanoseconds under `latency`.
    pub fn time_ns(&self, latency: &LatencyProfile) -> f64 {
        self.cl_reads as f64 * latency.read_ns
            + self.cl_writes as f64 * latency.write_ns
            + self.software_ns
    }

    /// Simulated elapsed time in seconds under `latency`.
    pub fn time_secs(&self, latency: &LatencyProfile) -> f64 {
        self.time_ns(latency) / 1e9
    }

    /// Abstract cost in read units: `reads + λ·writes` (the paper's cost
    /// expressions are all stated in multiples of `r`).
    pub fn cost_units(&self, lambda: f64) -> f64 {
        self.cl_reads as f64 + lambda * self.cl_writes as f64
    }
}

/// Counter deltas in raw integer units (picoseconds for software time),
/// so concurrent accumulation and adoption round-trip exactly.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    reads: u64,
    writes: u64,
    software_ps: u64,
    calls: u64,
}

impl Tally {
    fn stats(&self) -> IoStats {
        IoStats {
            cl_reads: self.reads,
            cl_writes: self.writes,
            software_ns: self.software_ps as f64 / PS_PER_NS,
            calls: self.calls,
        }
    }
}

/// Source of unique bank identities. Weak handles alone cannot key the
/// shard registry: an `Arc<Bank>` address can be reused by a later
/// allocation, so shards match on an id that is never reused.
static NEXT_BANK_ID: AtomicU64 = AtomicU64::new(1);

/// The shared counter core of a [`Metrics`] bank. Threads never touch
/// these atomics per access; [`Bank::merge_shard`] publishes a thread
/// shard's pending deltas in bulk at flush points.
#[derive(Debug)]
struct Bank {
    id: u64,
    cl_reads: AtomicU64,
    cl_writes: AtomicU64,
    software_ps: AtomicU64,
    calls: AtomicU64,
}

impl Bank {
    fn new() -> Self {
        Bank {
            id: NEXT_BANK_ID.fetch_add(1, Ordering::Relaxed),
            cl_reads: AtomicU64::new(0),
            cl_writes: AtomicU64::new(0),
            software_ps: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Bulk-publishes one thread shard into the shared counters: a
    /// handful of `fetch_add`s per flush, regardless of how many accesses
    /// the shard buffered. This is the only place pending deltas enter
    /// the bank (the `ledger-only` wl-audit rule pins callers to this
    /// file).
    fn merge_shard(&self, pending: &Tally) {
        if pending.reads != 0 {
            self.cl_reads.fetch_add(pending.reads, Ordering::Relaxed);
        }
        if pending.writes != 0 {
            self.cl_writes.fetch_add(pending.writes, Ordering::Relaxed);
        }
        if pending.software_ps != 0 {
            self.software_ps
                .fetch_add(pending.software_ps, Ordering::Relaxed);
        }
        if pending.calls != 0 {
            self.calls.fetch_add(pending.calls, Ordering::Relaxed);
        }
    }
}

/// A thread's pending shard for one bank. The bank is held weakly so a
/// dropped device never keeps thread state alive (and a dead bank's
/// pending deltas are discarded at the next flush).
#[derive(Debug)]
struct Shard {
    bank_id: u64,
    bank: Weak<Bank>,
    delta: Tally,
}

/// The calling thread's accounting state: its pending shards, one per
/// bank it charged since the last flush, and its cumulative `flow` —
/// everything it charged to any bank plus everything it [`adopt`]ed,
/// never reset. Dropping the registry — the thread-local destructor,
/// running at thread exit even on panic — flushes every shard, so
/// raw-thread callers and mid-task panics never lose counts.
#[derive(Debug, Default)]
struct ShardRegistry {
    shards: Vec<Shard>,
    flow: Tally,
}

impl ShardRegistry {
    fn flush_all(&mut self) {
        for s in &mut self.shards {
            if let Some(bank) = s.bank.upgrade() {
                bank.merge_shard(&s.delta);
            }
        }
        // Zeroing by clearing: a published delta must never merge twice.
        self.shards.clear();
    }
}

impl Drop for ShardRegistry {
    fn drop(&mut self) {
        self.flush_all();
    }
}

thread_local! {
    static SHARDS: RefCell<ShardRegistry> = RefCell::new(ShardRegistry::default());
}

/// Applies one charge to the calling thread's flow and to its shard for
/// `bank` — a single thread-local access. If the registry is already
/// destroyed (a charge from inside another thread-local's destructor),
/// publishes directly — correctness over buffering on that cold path.
#[inline]
fn charge(bank: &Arc<Bank>, f: impl Fn(&mut Tally)) {
    let buffered = SHARDS.try_with(|reg| {
        let reg = &mut *reg.borrow_mut();
        f(&mut reg.flow);
        let idx = reg.shards.iter().position(|s| s.bank_id == bank.id);
        let slot = match idx {
            Some(i) => &mut reg.shards[i],
            None => {
                reg.shards.push(Shard {
                    bank_id: bank.id,
                    bank: Arc::downgrade(bank),
                    delta: Tally::default(),
                });
                reg.shards.last_mut().expect("just pushed")
            }
        };
        f(&mut slot.delta);
    });
    if buffered.is_err() {
        let mut delta = Tally::default();
        f(&mut delta);
        bank.merge_shard(&delta);
    }
}

/// Credits `stats` — traffic charged by *another* thread on this thread's
/// behalf (a completed worker task whose results this thread consumed) —
/// to the calling thread's flow, so [`thread_flow`] accounts for
/// delegated work. Adoption never touches a bank: the worker's own shard
/// already published the traffic.
pub fn adopt(stats: &IoStats) {
    let _ = SHARDS.try_with(|reg| {
        let flow = &mut reg.borrow_mut().flow;
        flow.reads += stats.cl_reads;
        flow.writes += stats.cl_writes;
        flow.software_ps += (stats.software_ns * PS_PER_NS).round() as u64;
        flow.calls += stats.calls;
    });
}

/// Cumulative traffic the calling thread is *responsible* for: what it
/// charged to any device plus what it [`adopt`]ed from workers.
/// Monotonic and never reset; take two observations and
/// [`IoStats::since`] them to cost a code region inclusive of any
/// parallel fan-out it consumed. Unlike a device snapshot it is
/// unaffected by concurrent siblings, so per-task deltas are
/// deterministic at any degree of parallelism — this is what profiling
/// spans and the worker pool's task leaves measure.
pub fn thread_flow() -> IoStats {
    SHARDS
        .try_with(|reg| reg.borrow().flow.stats())
        .unwrap_or_default()
}

/// Publishes every pending shard of the calling thread into its bank and
/// zeroes the shards. [`crate::flush_thread_accounting`] calls this at
/// worker-pool task ends, barrier joins and bulk `append_buffer`
/// flushes; bank reads flush implicitly. Cheap (a no-op on empty
/// shards) and safe to call anywhere.
pub(crate) fn flush_thread_shards() {
    let _ = SHARDS.try_with(|reg| reg.borrow_mut().flush_all());
}

/// Interior-mutable counter bank shared by every collection of a device.
///
/// The bank is `Send + Sync`; charges buffer in per-thread shards and
/// publish at flush points (see the module docs), so totals are exact
/// under any interleaving once the charging threads have flushed —
/// thread exit, [`crate::flush_thread_accounting`], and same-thread
/// reads all flush.
#[derive(Debug)]
pub struct Metrics {
    bank: Arc<Bank>,
    paused: AtomicBool,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Suspends accounting on a [`Metrics`] bank for its lifetime.
///
/// Used by test/harness facilities (e.g., draining a collection to verify
/// its contents) that must not perturb the measured experiment. The pause
/// flag is device-global: pausing while parallel workers are mid-flight
/// would suppress their accounting too, so pauses belong on the
/// coordinating thread only.
#[derive(Debug)]
pub struct PauseGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.metrics.paused.store(false, Ordering::Relaxed);
    }
}

impl Metrics {
    /// Creates a zeroed counter bank.
    pub fn new() -> Self {
        Metrics {
            bank: Arc::new(Bank::new()),
            paused: AtomicBool::new(false),
        }
    }

    /// Suspends accounting until the returned guard is dropped.
    ///
    /// # Panics
    /// Panics if accounting is already paused (pauses do not nest; a nested
    /// pause would silently re-enable accounting too early).
    pub fn pause(&self) -> PauseGuard<'_> {
        assert!(
            !self.paused.swap(true, Ordering::Relaxed),
            "metrics already paused"
        );
        PauseGuard { metrics: self }
    }

    /// Records `n` cacheline reads (thread-locally; published at the next
    /// flush point — no shared atomics on this path).
    #[inline]
    pub fn add_reads(&self, n: u64) {
        if !self.paused.load(Ordering::Relaxed) {
            charge(&self.bank, |d| d.reads += n);
        }
    }

    /// Records `n` cacheline writes (thread-locally; published at the
    /// next flush point).
    #[inline]
    pub fn add_writes(&self, n: u64) {
        if !self.paused.load(Ordering::Relaxed) {
            charge(&self.bank, |d| d.writes += n);
        }
    }

    /// Records `ns` nanoseconds of software overhead (rounded to the
    /// picosecond internally, so concurrent accumulation stays exact).
    #[inline]
    pub fn add_software_ns(&self, ns: f64) {
        if !self.paused.load(Ordering::Relaxed) {
            let ps = (ns * PS_PER_NS).round() as u64;
            charge(&self.bank, |d| d.software_ps += ps);
        }
    }

    /// Records `n` persistence-layer calls (thread-locally; published at
    /// the next flush point).
    #[inline]
    pub fn add_calls(&self, n: u64) {
        if !self.paused.load(Ordering::Relaxed) {
            charge(&self.bank, |d| d.calls += n);
        }
    }

    /// Current counter values. Flushes the calling thread's own pending
    /// shards first, so a thread always observes its own charges;
    /// other threads' charges appear once they reach a flush point.
    pub fn snapshot(&self) -> IoStats {
        flush_thread_shards();
        IoStats {
            cl_reads: self.bank.cl_reads.load(Ordering::Relaxed),
            cl_writes: self.bank.cl_writes.load(Ordering::Relaxed),
            software_ns: self.bank.software_ps.load(Ordering::Relaxed) as f64 / PS_PER_NS,
            calls: self.bank.calls.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero, discarding the calling thread's
    /// pending shard for this bank. Thread flows are cumulative and
    /// unaffected. Like snapshots, resets belong on the coordinating
    /// thread outside parallel sections.
    pub fn reset(&self) {
        let _ = SHARDS.try_with(|reg| {
            reg.borrow_mut()
                .shards
                .retain(|s| s.bank_id != self.bank.id);
        });
        self.bank.cl_reads.store(0, Ordering::Relaxed);
        self.bank.cl_writes.store(0, Ordering::Relaxed);
        self.bank.software_ps.store(0, Ordering::Relaxed);
        self.bank.calls.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let m = Metrics::new();
        m.add_reads(3);
        m.add_writes(2);
        m.add_software_ns(5.0);
        m.add_calls(1);
        let s = m.snapshot();
        assert_eq!(s.cl_reads, 3);
        assert_eq!(s.cl_writes, 2);
        assert_eq!(s.software_ns, 5.0);
        assert_eq!(s.calls, 1);
    }

    #[test]
    fn since_computes_interval_traffic() {
        let m = Metrics::new();
        m.add_reads(10);
        let before = m.snapshot();
        m.add_reads(5);
        m.add_writes(7);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.cl_reads, 5);
        assert_eq!(delta.cl_writes, 7);
    }

    #[test]
    fn time_matches_latency_profile() {
        let s = IoStats {
            cl_reads: 100,
            cl_writes: 10,
            software_ns: 50.0,
            calls: 0,
        };
        let t = s.time_ns(&LatencyProfile::PCM);
        assert!((t - (100.0 * 10.0 + 10.0 * 150.0 + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn cost_units_weight_writes_by_lambda() {
        let s = IoStats {
            cl_reads: 4,
            cl_writes: 2,
            ..Default::default()
        };
        assert!((s.cost_units(15.0) - 34.0).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.add_reads(1);
        m.add_writes(1);
        m.reset();
        assert_eq!(m.snapshot(), IoStats::default());
    }

    #[test]
    fn reset_discards_this_threads_pending_shard() {
        let m = Metrics::new();
        m.add_reads(9); // pending, unflushed
        m.reset();
        // The pending 9 reads must not resurface at the next flush.
        assert_eq!(m.snapshot(), IoStats::default());
        m.add_reads(2);
        assert_eq!(m.snapshot().cl_reads, 2);
    }

    #[test]
    fn metrics_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Metrics>();
        assert_send_sync::<IoStats>();
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        // Raw spawn + join so the thread-exit shard flush is visible
        // (scope's implicit join does not wait for TLS destructors).
        let m = std::sync::Arc::new(Metrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.add_reads(1);
                        m.add_writes(2);
                        m.add_software_ns(0.5);
                        m.add_calls(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker ok");
        }
        let s = m.snapshot();
        assert_eq!(s.cl_reads, 40_000);
        assert_eq!(s.cl_writes, 80_000);
        assert_eq!(s.calls, 40_000);
        assert!((s.software_ns - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn thread_ledger_mirrors_this_threads_traffic_only() {
        let m = Metrics::new();
        let before = thread_flow();
        m.add_reads(7);
        m.add_writes(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                // A sibling's traffic must not appear in our flow.
                m.add_reads(1000);
                let own = thread_flow();
                assert!(own.cl_reads >= 1000);
                // Publish before the scope joins (the implicit join does
                // not wait for the thread-exit TLS flush).
                flush_thread_shards();
            });
        });
        let delta = thread_flow().since(&before);
        assert_eq!(delta.cl_reads, 7);
        assert_eq!(delta.cl_writes, 3);
        assert_eq!(m.snapshot().cl_reads, 1007);
    }

    #[test]
    fn explicit_flush_publishes_without_a_bank_read() {
        // A worker flushes mid-life (no snapshot, no exit); the
        // coordinator must observe its counts.
        let m = std::sync::Arc::new(Metrics::new());
        let (flushed_tx, flushed_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = {
            let m = std::sync::Arc::clone(&m);
            std::thread::spawn(move || {
                m.add_reads(41);
                flush_thread_shards();
                flushed_tx.send(()).expect("receiver alive");
                // Stay alive until the coordinator has looked, so the
                // observation cannot be satisfied by the exit flush.
                done_rx.recv().expect("sender alive");
            })
        };
        flushed_rx.recv().expect("worker flushed");
        assert_eq!(m.snapshot().cl_reads, 41);
        done_tx.send(()).expect("worker alive");
        worker.join().expect("worker exits cleanly");
    }

    #[test]
    fn flush_is_idempotent_and_never_double_merges() {
        let m = Metrics::new();
        m.add_writes(6);
        flush_thread_shards();
        flush_thread_shards();
        assert_eq!(m.snapshot().cl_writes, 6);
        // And a snapshot-triggered flush after an explicit one is also
        // publish-once.
        assert_eq!(m.snapshot().cl_writes, 6);
    }

    #[test]
    fn panicking_thread_publishes_its_shard_exactly_once() {
        let m = std::sync::Arc::new(Metrics::new());
        let handle = {
            let m = std::sync::Arc::clone(&m);
            std::thread::spawn(move || {
                m.add_reads(7);
                panic!("mid-task failure");
            })
        };
        assert!(handle.join().is_err(), "the thread must have panicked");
        // The thread-local destructor flushed the shard on unwind: the
        // partial traffic is published once, not lost, not doubled.
        assert_eq!(m.snapshot().cl_reads, 7);
        assert_eq!(m.snapshot().cl_reads, 7);
    }

    #[test]
    fn paused_accounting_skips_ledger_too() {
        let m = Metrics::new();
        let before = thread_flow();
        {
            let _p = m.pause();
            m.add_reads(5);
        }
        assert_eq!(thread_flow().since(&before).cl_reads, 0);
    }

    #[test]
    fn adopted_traffic_flows_but_stays_out_of_the_bank() {
        let m = Metrics::new();
        let flow0 = thread_flow();
        m.add_reads(2);
        adopt(&IoStats {
            cl_reads: 10,
            cl_writes: 4,
            software_ns: 1.5,
            calls: 3,
        });
        let flow = thread_flow().since(&flow0);
        assert_eq!(flow.cl_reads, 12);
        assert_eq!(flow.cl_writes, 4);
        assert_eq!(flow.calls, 3);
        assert!((flow.software_ns - 1.5).abs() < 1e-9);
        // Adoption credits responsibility, not device traffic: the
        // worker that charged it already published to its own shard.
        let bank = m.snapshot();
        assert_eq!((bank.cl_reads, bank.cl_writes, bank.calls), (2, 0, 0));
    }

    #[test]
    fn flow_survives_flushes_and_resets() {
        let m = Metrics::new();
        let before = thread_flow();
        m.add_writes(4);
        flush_thread_shards();
        m.add_writes(1);
        m.reset();
        // The bank forgot everything; the thread's flow did not.
        assert_eq!(m.snapshot(), IoStats::default());
        assert_eq!(thread_flow().since(&before).cl_writes, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "went backwards")]
    fn since_rejects_non_monotonic_software_time() {
        let later = IoStats {
            software_ns: 1.0,
            ..Default::default()
        };
        let earlier = IoStats {
            software_ns: 2.0,
            ..Default::default()
        };
        let _ = later.since(&earlier);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "calls went backwards")]
    fn since_rejects_non_monotonic_calls() {
        let later = IoStats::default();
        let earlier = IoStats {
            calls: 3,
            ..Default::default()
        };
        let _ = later.since(&earlier);
    }
}
