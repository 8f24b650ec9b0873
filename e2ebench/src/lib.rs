//! A seeded end-to-end benchmark of the write-limited query stack.
//!
//! One process runs one named workload as a closed loop with a single
//! client: a SQL statement goes through `Session` (parse, bind, plan,
//! execute, deliver; INSERTs add the WAL append and fsync), or, on
//! `paper-kernels`, a direct `SortAlgorithm::run` / `JoinAlgorithm::run`
//! call. The loop repeats one fixed *round* of operations until the
//! requested number of seconds has passed, so every round does the same
//! work and the simulated device counters of a round are exact.
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics. Traced
//! runs (`--trace 1`) additionally repeat the loop with spans recorded
//! by this crate around each layer's public entry point, and report the
//! per-layer metrics (see `README.md` for the metric → layer → workload
//! table). Correctness is checked outside the timed region: every
//! distinct SELECT against `planner::execute_naive`, every kernel
//! output for order and match count, every round's read traffic against
//! the first round, DoP 1 against the loop's DoP, and the reopened
//! database against a model of the committed inserts.

mod host;
mod kernels;
pub mod report;
mod rounds;
mod speed;
mod sql;
mod stats;
pub mod trace;

use std::path::PathBuf;

/// The four workloads; see `README.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform star/chain analytics at the default 500-record DRAM
    /// budget: executor- and kernel-bound.
    OlapMix,
    /// 6- to 8-way stars over a Zipf fact with DRAM raised: planner-bound.
    WideJoin,
    /// 1- and 16-row INSERTs with range reads and periodic checkpoints:
    /// WAL-, fsync- and insert-path-bound.
    DurableIngest,
    /// The paper's sort and join kernels called directly at 5% DRAM.
    PaperKernels,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::OlapMix,
        Workload::WideJoin,
        Workload::DurableIngest,
        Workload::PaperKernels,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapMix => "olap-mix",
            Workload::WideJoin => "wide-join",
            Workload::DurableIngest => "durable-ingest",
            Workload::PaperKernels => "paper-kernels",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `full` is what the command line runs; `tiny` keeps the
/// same shapes small enough for the crate's own tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Distinct keys per olap-mix dimension (the fact has 4 rows per key).
    pub olap_keys: u64,
    /// Distinct keys per wide-join table.
    pub wide_keys: u64,
    /// Rows in the durable-ingest table at the start of every round.
    pub ingest_base: u64,
    /// INSERT statements per durable-ingest round.
    pub ingest_inserts: usize,
    /// Records per paper-kernels sort.
    pub sort_records: u64,
    /// Left-side keys per paper-kernels join (fanout 10 on the right).
    pub join_keys: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Checkpoint → un-checkpointed tail → reopen cycles per run;
    /// `recovery_s` is their median.
    pub reopens: usize,
    /// INSERT statements in each un-checkpointed WAL tail.
    pub tail_inserts: usize,
}

impl Sizes {
    /// The benchmark's sizes, for a 2-core host.
    pub const FULL: Sizes = Sizes {
        olap_keys: 20_000,
        wide_keys: 2_000,
        ingest_base: 20_000,
        ingest_inserts: 32,
        sort_records: 200_000,
        join_keys: 50_000,
        setups: 21,
        reopens: 9,
        tail_inserts: 32,
    };

    /// Test sizes: every workload shape, in well under a second.
    pub const TINY: Sizes = Sizes {
        olap_keys: 400,
        wide_keys: 200,
        ingest_base: 500,
        ingest_inserts: 16,
        sort_records: 4_000,
        join_keys: 1_000,
        setups: 1,
        reopens: 1,
        tail_inserts: 4,
    };
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the timed loop in seconds (whole rounds; at least one).
    pub seconds: f64,
    /// Also run the traced loop and report per-layer metrics.
    pub trace: bool,
    /// Directory for the durable databases and the trace file.
    pub dir: PathBuf,
    /// Engine degree of parallelism of the timed loop.
    pub threads: usize,
    /// Input sizes.
    pub sizes: Sizes,
}

impl Config {
    /// The loop's default degree of parallelism: the host's cores,
    /// capped at 2 so simulated counters (which depend on the plans
    /// chosen for a DoP) match across hosts with at least two cores.
    pub fn default_threads() -> usize {
        host::nproc().clamp(1, 2)
    }
}

/// One workload's raw measurements.
pub(crate) struct Measured {
    header: Vec<(&'static str, String)>,
    tally: report::Tally,
    /// Per-layer samples of the traced loop, when traced.
    layers: Option<trace::Layers>,
}

fn measure(cfg: &Config) -> Result<Measured, String> {
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.dir.display()))?;
    match cfg.workload {
        Workload::PaperKernels => kernels::measure(cfg),
        _ => sql::measure(cfg),
    }
}

/// Runs the configured workload and returns its report.
///
/// A traced run also runs a probe: one traced round of olap-mix and of
/// paper-kernels at test sizes. A per-layer metric whose layer the
/// workload never reaches (the kernels outside paper-kernels, the SQL
/// layers inside it) is taken from the probe, and says so: a traced run
/// reports every per-layer metric, and a time that read 0 on every run
/// would not be a measurement.
///
/// # Errors
/// Returns a message when the workload cannot be set up or a statement
/// fails outright (wrong results are counted in the report instead).
pub fn run(cfg: &Config) -> Result<report::Report, String> {
    let mut m = measure(cfg)?;
    let layers = match m.layers.take() {
        Some(own) => {
            let mut probe = trace::Layers::default();
            for workload in [Workload::OlapMix, Workload::PaperKernels] {
                let probe_cfg = Config {
                    workload,
                    seconds: 0.0,
                    trace: true,
                    dir: cfg.dir.join("probe"),
                    sizes: Sizes::TINY,
                    ..cfg.clone()
                };
                let p = measure(&probe_cfg)?;
                probe.merge(p.layers.unwrap_or_default());
                let c = p.tally.checks;
                m.tally.checks.attempted += c.attempted;
                m.tally.checks.failed += c.failed;
                m.tally.checks.failures.extend(c.failures);
            }
            Some((own, probe))
        }
        None => None,
    };
    Ok(report::Report::new(m.header, m.tally, layers))
}

/// The header facts every output carries.
fn header(cfg: &Config, rounds: u64) -> Vec<(&'static str, String)> {
    vec![
        ("workload", cfg.workload.name().into()),
        ("seed", cfg.seed.to_string()),
        ("host", host::hostname()),
        ("nproc", host::nproc().to_string()),
        ("dop", cfg.threads.to_string()),
        ("fs", host::fs_type(&cfg.dir)),
        ("flush", "fsync-per-statement".into()),
        ("seconds", cfg.seconds.to_string()),
        ("rounds", rounds.to_string()),
        ("traced", cfg.trace.to_string()),
    ]
}

/// Writes a traced run's spans to `trace-<workload>-seed<seed>.json` in
/// the run's directory.
fn write_trace(cfg: &Config, tracer: &trace::Tracer, rounds: u64) -> Result<(), String> {
    let path = cfg.dir.join(format!(
        "trace-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    let mut meta = header(cfg, rounds);
    meta.push(("spans", tracer.len().to_string()));
    tracer
        .write_chrome(&path, &meta)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// A small deterministic generator (SplitMix64), so inputs depend only
/// on `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; distinct `stream`s give independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An order-insensitive fingerprint of a row multiset, plus whether the
/// key column arrived in non-decreasing order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Rows seen.
    pub rows: u64,
    /// Wrapping sum of per-row hashes.
    pub sum: u64,
    /// Some key was smaller than the key before it.
    pub unordered: bool,
    last_key: u64,
}

impl Digest {
    /// Folds in one row whose key sits in column `key_col`.
    pub fn add(&mut self, row: &[u64], key_col: usize) {
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for &v in row {
            h = (h ^ v).wrapping_mul(0x1000_0000_01B3).rotate_left(29);
        }
        self.sum = self.sum.wrapping_add(h);
        let key = row.get(key_col).copied().unwrap_or(0);
        if self.rows > 0 && key < self.last_key {
            self.unordered = true;
        }
        self.last_key = key;
        self.rows += 1;
    }

    /// The fingerprint of `rows`, in the order given.
    pub fn of(rows: &[Vec<u64>], key_col: usize) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add(r, key_col);
        }
        d
    }

    /// Same rows, regardless of order.
    pub fn same_rows(&self, other: &Digest) -> bool {
        self.rows == other.rows && self.sum == other.sum
    }
}
