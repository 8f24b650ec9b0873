//! The run every workload shares: repeated set-ups, the untraced timed
//! loop, the correctness gate, the recovery cycles, and (traced runs)
//! the traced loop with its own recovery cycles and the trace file. A
//! workload supplies its round and its gate through [`Rounds`].

use crate::host;
use crate::report::{Checks, LoopStats, Tally};
use crate::sql::{recover, remove_dir, Db, Model, Stmt, Traced};
use crate::trace::{Layers, Tracer};
use crate::{Config, Measured};
use pmem_sim::IoStats;
use std::time::Instant;
use wl_db::Session;

/// The database side of a workload.
pub(crate) struct Durable {
    /// `SET` statements every session starts with.
    pub knobs: Vec<String>,
    /// `CREATE TABLE` statements of the set-up.
    pub tables: Vec<String>,
    /// The table INSERTs go to, and its row count when created.
    pub write_table: &'static str,
    pub write_base: u64,
    /// Inserts left un-checkpointed before each reopen.
    pub tail: Vec<Stmt>,
}

/// A workload's round, which the timed loop repeats.
pub(crate) trait Rounds {
    /// What one round returns for checking.
    type Outcomes;
    /// What later rounds and the gate must match: the first round's
    /// results.
    type Ref;

    /// Simulated device traffic so far, over every device a round uses.
    fn io(&self, db: &Db) -> IoStats;

    /// Untimed work before each round.
    fn reset(&self, _session: &mut Session<'_>, _model: &mut Model) -> Result<(), String> {
        Ok(())
    }

    /// Runs one round: files its latencies and counts in `ls` and its
    /// committed inserts in `model`.
    fn round(
        &self,
        db: &Db,
        session: &mut Session<'_>,
        model: &mut Model,
        traced: Option<&mut Traced<'_>>,
        ls: &mut LoopStats,
        checks: &mut Checks,
    ) -> Result<Self::Outcomes, String>;

    /// Checks a round and its traffic against the first round, which it
    /// becomes when there is none yet.
    fn check(
        &self,
        outcomes: Self::Outcomes,
        io: &IoStats,
        reference: &mut Option<Self::Ref>,
        checks: &mut Checks,
    );

    /// The correctness gate, outside the timed region.
    fn gate(
        &self,
        db: &Db,
        model: &mut Model,
        reference: &mut Self::Ref,
        checks: &mut Checks,
    ) -> Result<(), String>;
}

/// Same cacheline traffic.
pub(crate) fn same_io(a: &IoStats, b: &IoStats) -> bool {
    (a.cl_reads, a.cl_writes) == (b.cl_reads, b.cl_writes)
}

/// Runs whole rounds until `seconds` have passed (at least one).
fn timed_loop<R: Rounds>(
    rounds: &R,
    db: &Db,
    seconds: f64,
    model: &mut Model,
    mut traced: Option<&mut Traced<'_>>,
    reference: &mut Option<R::Ref>,
    checks: &mut Checks,
) -> Result<LoopStats, String> {
    let mut session = db.session(traced.is_some())?;
    let mut ls = LoopStats::default();
    let start = Instant::now();
    loop {
        rounds.reset(&mut session, model)?;
        ls.calibrate();
        let in_round_calibration = ls.calibration_secs;
        let round_start = Instant::now();
        let m0 = db.db.metrics_snapshot();
        let io0 = rounds.io(db);
        let outcomes = rounds.round(
            db,
            &mut session,
            model,
            traced.as_deref_mut(),
            &mut ls,
            checks,
        )?;
        let io = rounds.io(db).since(&io0);
        let m1 = db.db.metrics_snapshot();
        ls.round_secs.push(
            round_start.elapsed().as_secs_f64() - (ls.calibration_secs - in_round_calibration),
        );
        ls.durable_bytes += m1.wal_bytes - m0.wal_bytes;
        if let Some(t) = traced.as_deref_mut() {
            t.layers.add("wal.fsyncs", (m1.fsyncs - m0.fsyncs) as f64);
        }
        if ls.round_secs.len() == 1 {
            ls.round_io = io;
            // Every device of every workload has the paper's latencies.
            ls.round_sim_secs = io.time_secs(&db.db.device().config().latency);
        }
        rounds.check(outcomes, &io, reference, checks);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(ls)
}

/// A workload's measurements. `stage` generates the inputs that live
/// outside the database; it runs inside each timed set-up, next to
/// `Database::open` and the `CREATE TABLE`s.
pub(crate) fn measure<R: Rounds>(
    cfg: &Config,
    durable: &Durable,
    mut stage: impl FnMut() -> R,
) -> Result<Measured, String> {
    let dir = cfg
        .dir
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let mut tally = Tally::default();
    let mut staged = None;
    // The first set-up warms caches and the filesystem and is not timed.
    for i in 0..=cfg.sizes.setups.max(1) {
        drop(staged.take());
        remove_dir(&dir)?;
        let timed = i > 0;
        if timed {
            tally.setup_s.calibrate();
        }
        let t0 = Instant::now();
        let rounds = stage();
        let db = Db::create(&dir, durable.knobs.clone(), cfg.threads, &durable.tables)?;
        if timed {
            tally.setup_s.secs.push(t0.elapsed().as_secs_f64());
        }
        staged = Some((rounds, db));
    }
    let (rounds, mut db) = staged.expect("at least one set-up");
    // The loop starts with an empty WAL. The checkpoint that empties it
    // writes every table and is not part of set-up.
    db.db.checkpoint().map_err(|e| format!("CHECKPOINT: {e}"))?;
    let mut model = Model::new(durable.write_table, durable.write_base);
    let mut reference = None;

    let ls = timed_loop(
        &rounds,
        &db,
        cfg.seconds,
        &mut model,
        None,
        &mut reference,
        &mut tally.checks,
    )?;
    tally.peak_rss_mb = host::peak_rss_mb();
    let rounds_run = ls.round_secs.len() as u64;
    tally.timed = ls;

    let first = reference.as_mut().expect("at least one round");
    rounds.gate(&db, &mut model, first, &mut tally.checks)?;
    db = recover(
        db,
        &mut model,
        &durable.tail,
        cfg.sizes.reopens,
        None,
        &mut tally.recovery_s,
        &mut tally.checks,
    )?;

    let layers = if cfg.trace {
        let mut tracer = Tracer::default();
        let mut layers = Layers::default();
        let mut t = Traced {
            tracer: &mut tracer,
            layers: &mut layers,
        };
        let traced_loop = timed_loop(
            &rounds,
            &db,
            cfg.seconds,
            &mut model,
            Some(&mut t),
            &mut reference,
            &mut tally.checks,
        )?;
        tally.traced_read_ms = traced_loop.read_ms;
        tally.traced_speed = traced_loop.speed;
        db = recover(
            db,
            &mut model,
            &durable.tail,
            cfg.sizes.reopens,
            Some(&mut t),
            &mut crate::speed::Timed::default(),
            &mut tally.checks,
        )?;
        crate::write_trace(cfg, &tracer, rounds_run)?;
        Some(layers)
    } else {
        None
    };
    drop(db);
    remove_dir(&dir)?;
    Ok(Measured {
        header: crate::header(cfg, rounds_run),
        tally,
        layers,
    })
}
