//! What a run measured, and how it is printed: one human-readable line
//! per metric (with sample counts), then one JSON object as the last
//! line of standard output.

use crate::speed::{self, Timed};
use crate::stats::{mean, median, percentile};
use crate::trace::Layers;
use pmem_sim::IoStats;
use std::fmt::Write as _;

/// Correctness checks: every operation attempted, every mismatch kept.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Marks `n` attempts already counted as failed after all: a later
    /// check showed the result they all returned was wrong.
    pub fn fail_counted(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// Counts one attempt, and a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// What one timed loop measured.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    /// Latencies by position in the round, labelled.
    pub by_op: Vec<(String, Vec<f64>)>,
    /// Read-operation latencies: SELECT from `execute` until drained,
    /// or one kernel call, in ms.
    pub read_ms: Vec<f64>,
    /// INSERT latencies up to the acknowledgement (after the fsync), ms.
    pub insert_ms: Vec<f64>,
    /// `read_ms` and `insert_ms`, each at the reference speed of the
    /// calibration taken before its round (for the tails, which short
    /// host bursts make).
    pub read_local_ms: Vec<f64>,
    pub insert_local_ms: Vec<f64>,
    /// Operations completed.
    pub ops: u64,
    /// Host seconds of each round.
    pub round_secs: Vec<f64>,
    /// Simulated device traffic of the first round.
    pub round_io: IoStats,
    /// Simulated seconds of the first round.
    pub round_sim_secs: f64,
    /// Host bytes written to WAL and checkpoint files.
    pub durable_bytes: u64,
    /// User rows inserted.
    pub inserted_rows: u64,
    /// Host-speed calibration seconds, one before each round (and, on
    /// paper-kernels, before each kernel call).
    pub speed: Vec<f64>,
    /// Seconds spent in calibrations taken inside a round.
    pub calibration_secs: f64,
}

impl LoopStats {
    /// Files the latency of the round's `pos`-th operation.
    pub fn note(&mut self, pos: usize, label: impl FnOnce() -> String, ms: f64) {
        // Positions first arrive in order, during the first round.
        if self.by_op.len() == pos {
            self.by_op.push((label(), Vec::new()));
        }
        self.by_op[pos].1.push(ms);
    }

    /// Files a read latency.
    pub fn read(&mut self, ms: f64) {
        self.read_ms.push(ms);
        self.read_local_ms.push(ms * self.local_factor());
    }

    /// Files an INSERT latency.
    pub fn insert(&mut self, ms: f64) {
        self.insert_ms.push(ms);
        self.insert_local_ms.push(ms * self.local_factor());
    }

    fn local_factor(&self) -> f64 {
        self.speed.last().map_or(1.0, |&s| speed::factor(&[s]))
    }

    /// Calibrates the host speed. Its time is not the round's.
    pub fn calibrate(&mut self) {
        let secs = speed::calibrate();
        self.speed.push(secs);
        self.calibration_secs += secs;
    }

    /// The factor that takes this loop's host times to the reference
    /// speed.
    pub fn speed_factor(&self) -> f64 {
        speed::factor(&self.speed)
    }
}

/// Raw end-to-end measurements of one run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Set-up times (generation, staging, `Database::open`), seconds.
    pub setup_s: Timed,
    /// The untraced timed loop.
    pub timed: LoopStats,
    /// `Database::reopen` times over un-checkpointed WAL tails, seconds.
    pub recovery_s: Timed,
    /// Resident-memory high-water mark after the loop, MiB.
    pub peak_rss_mb: f64,
    /// Read latencies of the traced loop, less the harness's second plan
    /// of each SELECT, ms (for the tracing overhead).
    pub traced_read_ms: Vec<f64>,
    /// The traced loop's calibration seconds.
    pub traced_speed: Vec<f64>,
    /// Correctness and determinism checks.
    pub checks: Checks,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Sample count and provenance, for the human-readable line.
    pub note: String,
}

/// How a per-layer metric folds its samples.
#[derive(Clone, Copy, Debug)]
enum Agg {
    Median,
    Mean,
    Max,
}

/// Every per-layer metric: name, unit, and how samples are folded.
const LAYER_METRICS: &[(&str, &str, Agg)] = &[
    ("sql.parse_us", "us", Agg::Median),
    ("sql.bind_us", "us", Agg::Median),
    ("planner.plan_ms", "ms", Agg::Median),
    ("planner.plan_share", "ratio", Agg::Median),
    ("planner.choices", "count", Agg::Mean),
    ("planner.cost_q_error", "ratio", Agg::Median),
    ("exec.run_ms", "ms", Agg::Median),
    ("exec.replan_frac", "ratio", Agg::Mean),
    ("op.sort.self_ms", "ms", Agg::Median),
    ("op.join.self_ms", "ms", Agg::Median),
    ("op.agg.self_ms", "ms", Agg::Median),
    ("op.filter.self_ms", "ms", Agg::Median),
    ("op.sort.cl_writes", "count", Agg::Median),
    ("op.join.cl_writes", "count", Agg::Median),
    ("op.agg.cl_writes", "count", Agg::Median),
    ("op.filter.cl_writes", "count", Agg::Median),
    ("stream.deliver_ms", "ms", Agg::Median),
    ("stream.batches", "count", Agg::Mean),
    ("pool.exhausted", "count", Agg::Mean),
    ("pool.peak_bytes", "bytes", Agg::Max),
    ("db.insert_ms", "ms", Agg::Median),
    ("wal.bytes_per_insert", "bytes", Agg::Median),
    ("wal.fsyncs", "count", Agg::Mean),
    ("durable.checkpoint_ms", "ms", Agg::Median),
    ("durable.checkpoint_bytes", "bytes", Agg::Median),
    ("durable.replayed_records", "count", Agg::Median),
    ("durable.replay_ms_per_record", "ms", Agg::Median),
    ("sort.ExMS.ns_per_rec", "ns", Agg::Median),
    ("sort.LaS.ns_per_rec", "ns", Agg::Median),
    ("sort.SegS50.ns_per_rec", "ns", Agg::Median),
    ("sort.HybS50.ns_per_rec", "ns", Agg::Median),
    ("sort.ExMS.cl_writes", "count", Agg::Median),
    ("sort.LaS.cl_writes", "count", Agg::Median),
    ("sort.SegS50.cl_writes", "count", Agg::Median),
    ("sort.HybS50.cl_writes", "count", Agg::Median),
    ("join.GJ.ms", "ms", Agg::Median),
    ("join.HJ.ms", "ms", Agg::Median),
    ("join.LaJ.ms", "ms", Agg::Median),
    ("join.SegJ50.ms", "ms", Agg::Median),
    ("join.HybJ50.ms", "ms", Agg::Median),
    ("join.GJ.cl_writes", "count", Agg::Median),
    ("join.HJ.cl_writes", "count", Agg::Median),
    ("join.LaJ.cl_writes", "count", Agg::Median),
    ("join.SegJ50.cl_writes", "count", Agg::Median),
    ("join.HybJ50.cl_writes", "count", Agg::Median),
    ("trace.overhead_frac", "ratio", Agg::Median),
];

/// The tail percentile. It is fixed, not the highest one the sample
/// supports: a run's sample count grows with the system's speed, so a
/// rank chosen from it would make a faster system report a more extreme
/// percentile. Each workload's round yields at least 100 samples of each
/// kind in a 15-second run on a 2-core host, leaving at least ten beyond
/// p90 (kernel calls excepted: 9 per 3-second round).
const TAIL_PERCENTILE: f64 = 90.0;

/// Bytes per user row (an 80-byte Wisconsin record).
const ROW_BYTES: f64 = 80.0;

/// Everything one run prints.
#[derive(Clone, Debug)]
pub struct Report {
    /// Each operation of the round: label, median and maximum latency
    /// in ms, and sample count.
    pub by_op: Vec<(String, f64, f64, usize)>,
    /// `key=value` facts for the header line (host, nproc, DoP, ...).
    pub header: Vec<(&'static str, String)>,
    /// Correctness and determinism checks.
    pub checks: Checks,
    /// The end-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Builds the report from a run's tally and, for traced runs, the
    /// workload's per-layer samples with a probe's samples as the
    /// fallback for layers the workload never reaches.
    pub fn new(
        header: Vec<(&'static str, String)>,
        tally: Tally,
        layers: Option<(Layers, Layers)>,
    ) -> Report {
        let end_to_end = end_to_end(&tally);
        let per_layer = layers.map_or_else(Vec::new, |(own, probe)| {
            let mut own = own;
            if !tally.traced_read_ms.is_empty() && !tally.timed.read_ms.is_empty() {
                // Both loops at the reference speed: they ran at
                // different times.
                own.add(
                    "trace.overhead_frac",
                    median(&tally.traced_read_ms) * speed::factor(&tally.traced_speed)
                        / (median(&tally.timed.read_ms) * tally.timed.speed_factor())
                        - 1.0,
                );
            }
            per_layer(&own, &probe)
        });
        let by_op = tally
            .timed
            .by_op
            .iter()
            .map(|(label, ms)| {
                let max = ms.iter().copied().fold(0.0, f64::max);
                (label.clone(), median(ms), max, ms.len())
            })
            .collect();
        let mut checks = tally.checks;
        for m in end_to_end.iter().chain(&per_layer) {
            if !m.value.is_finite() {
                checks.fail_counted(1, || format!("{} is not a finite number", m.name));
            }
        }
        Report {
            by_op,
            header,
            checks,
            end_to_end,
            per_layer,
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The value of a metric by name (end-to-end first).
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable lines: header, metrics, failures.
    pub fn human(&self) -> String {
        let mut out = String::from("# e2ebench");
        for (k, v) in &self.header {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(
                out,
                "{:<30} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for (i, (label, p50, max, n)) in self.by_op.iter().enumerate() {
            let _ = writeln!(
                out,
                "op[{i}] p50 {p50:10.3} ms, max {max:10.3} ms (n={n}) {label}"
            );
        }
        let _ = writeln!(
            out,
            "failed_frac {} / {} = {}",
            self.checks.failed,
            self.checks.attempted,
            self.checks.failed as f64 / self.checks.attempted.max(1) as f64
        );
        for f in &self.checks.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// The result object: end-to-end metrics untraced, per-layer traced.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let fields: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            fields.join(",")
        )
    }
}

fn end_to_end(tally: &Tally) -> Vec<Metric> {
    let t = &tally.timed;
    let rounds = t.round_secs.len().max(1);
    // Host times are reported at the reference speed (see `speed`); each
    // line also shows the raw value and the factor.
    let k = t.speed_factor();
    let n = |v: &[f64], raw: f64, k: f64| format!("(n={}; raw {raw:.6} x speed {k:.4})", v.len());
    let tail = |v: &[f64]| percentile(v, TAIL_PERCENTILE);
    let tail_note = |v: &[f64]| {
        let beyond = v.iter().filter(|&&x| x > tail(v)).count();
        format!(
            "(p{TAIL_PERCENTILE}, n={}, {beyond} beyond; raw {:.6}; each sample x its round's speed)",
            v.len(),
            tail(v)
        )
    };
    let timed = |t: &Timed| {
        let raw = median(&t.secs);
        let k = speed::factor(&t.speed);
        (t.median(), n(&t.secs, raw, k))
    };
    let (setup_s, setup_note) = timed(&tally.setup_s);
    let (recovery_s, recovery_note) = timed(&tally.recovery_s);
    let ops_raw = t.ops as f64 / rounds as f64 / median(&t.round_secs).max(f64::MIN_POSITIVE);
    let attempted = tally.checks.attempted.max(1) as f64;
    let m = |name, unit, value, note| Metric {
        name,
        unit,
        value,
        note,
    };
    vec![
        m("setup_s", "s", setup_s, setup_note),
        // A closed loop's throughput over its median round, so a burst
        // of host contention in a few rounds does not move it.
        m(
            "ops_per_s",
            "1/s",
            ops_raw / k,
            format!(
                "({} ops in {} rounds, {:.2} s; median round; raw {ops_raw:.4} / speed {k:.4})",
                t.ops,
                rounds,
                t.round_secs.iter().sum::<f64>()
            ),
        ),
        m(
            "query_p50_ms",
            "ms",
            median(&t.read_ms) * k,
            n(&t.read_ms, median(&t.read_ms), k),
        ),
        m(
            "query_tail_ms",
            "ms",
            tail(&t.read_local_ms),
            tail_note(&t.read_ms),
        ),
        m(
            "insert_p50_ms",
            "ms",
            median(&t.insert_ms) * k,
            n(&t.insert_ms, median(&t.insert_ms), k),
        ),
        m(
            "insert_tail_ms",
            "ms",
            tail(&t.insert_local_ms),
            tail_note(&t.insert_ms),
        ),
        m("recovery_s", "s", recovery_s, recovery_note),
        m(
            "sim_cl_writes",
            "count",
            t.round_io.cl_writes as f64,
            "(per round, exact)".into(),
        ),
        m(
            "sim_cl_reads",
            "count",
            t.round_io.cl_reads as f64,
            "(per round, exact)".into(),
        ),
        m(
            "sim_secs",
            "sim_s",
            t.round_sim_secs,
            "(simulated, per round)".into(),
        ),
        m(
            "write_amp",
            "ratio",
            t.durable_bytes as f64 / (t.inserted_rows as f64 * ROW_BYTES).max(1.0),
            format!(
                "({} WAL+checkpoint bytes / {} rows)",
                t.durable_bytes, t.inserted_rows
            ),
        ),
        m("peak_rss_mb", "MiB", tally.peak_rss_mb, "(VmHWM)".into()),
        m(
            "ok_frac",
            "ratio",
            1.0 - tally.checks.failed as f64 / attempted,
            format!("(1 - failed_frac; {} attempted)", tally.checks.attempted),
        ),
    ]
}

fn per_layer(own: &Layers, probe: &Layers) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit, agg)| {
            let (samples, from) = match (own.get(name), probe.get(name)) {
                (Some(s), _) => (s, ""),
                (None, Some(s)) => (s, ", probe"),
                (None, None) => (&[][..], ", not reached"),
            };
            let value = match agg {
                Agg::Median => median(samples),
                Agg::Mean => mean(samples),
                Agg::Max => samples.iter().copied().fold(0.0, f64::max),
            };
            Metric {
                name,
                unit,
                value,
                note: format!("(n={}{from})", samples.len()),
            }
        })
        .collect()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (a non-finite value, already counted as a failure, prints as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
