//! The SQL workloads (olap-mix, wide-join, durable-ingest) and the
//! durable-database plumbing every workload shares: set-up, one
//! statement through `Session` (untraced) or through each layer's
//! public entry point (traced), the correctness gate, and the
//! checkpoint → WAL tail → `Database::reopen` recovery cycle.

use crate::report::{Checks, LoopStats};
use crate::rounds::{same_io, Durable, Rounds};
use crate::speed::Timed;
use crate::trace::{Layers, Tracer};
use crate::{Config, Digest, Rng, Sizes, Workload};
use planner::{execute_naive, render_choices, render_plan, PlannedQuery, Planner};
use pmem_sim::{BufferPool, IoStats, SpanNode};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wl_db::durable::CHECKPOINT_FILE;
use wl_db::{bind, parse, Database, Response, Session, Statement};

/// One operation of a round.
#[derive(Clone, Debug)]
pub(crate) enum Stmt {
    /// A SELECT; `ordered` when it has ORDER BY.
    Select { sql: String, ordered: bool },
    /// An INSERT of `keys` into `table`.
    Insert {
        sql: String,
        table: String,
        keys: Vec<u64>,
    },
    /// `CHECKPOINT`.
    Checkpoint,
}

impl Stmt {
    /// A short label for per-operation breakdowns.
    fn label(&self) -> String {
        let text = match self {
            Stmt::Select { sql, .. } | Stmt::Insert { sql, .. } => sql,
            Stmt::Checkpoint => "CHECKPOINT",
        };
        text.chars().take(72).collect()
    }

    fn select(sql: String) -> Stmt {
        let ordered = sql.contains("ORDER BY");
        Stmt::Select { sql, ordered }
    }

    /// An INSERT of `keys` into `table`.
    pub(crate) fn insert(table: &str, keys: Vec<u64>) -> Stmt {
        let values: Vec<String> = keys.iter().map(|k| format!("({k})")).collect();
        Stmt::Insert {
            sql: format!("INSERT INTO {table} VALUES {}", values.join(", ")),
            table: table.to_string(),
            keys,
        }
    }
}

/// A SQL workload: its database side and its round.
struct Spec {
    durable: Durable,
    /// Untimed statements before each round that recreate the write
    /// table from its base. When there are any, every round starts from
    /// the same database state, so whole-round device traffic must
    /// repeat exactly (not only the reads').
    reset: Vec<String>,
    /// The repeated round.
    round: Vec<Stmt>,
}

/// `n` inserts alternating 1-row and 16-row VALUES lists, keys drawn
/// from `lo..lo + span`.
pub(crate) fn insert_batch(table: &str, n: usize, lo: u64, span: u64, rng: &mut Rng) -> Vec<Stmt> {
    (0..n)
        .map(|i| {
            let rows = if i % 2 == 0 { 1 } else { 16 };
            Stmt::insert(table, (0..rows).map(|_| lo + rng.below(span)).collect())
        })
        .collect()
}

fn spec(w: Workload, seed: u64, sizes: &Sizes) -> Spec {
    let mut rng = Rng::new(seed, 1);
    let mut tseed = || 1 + rng.below(1 << 20);
    // The trickle table of the read-mostly workloads, as large as the
    // ingest table: a few INSERTs per round keep the write path measured
    // while the WAL stays nearly idle. It is recreated before every
    // round: an INSERT costs O(table), so a table that grew with the
    // loop would make inserts and recovery slower the faster the host.
    // The CHECKPOINT empties the WAL, whose position decides what a WAL
    // append costs on the device, so every round starts from one state.
    let events_rows = sizes.ingest_base;
    let events =
        |tseed: u64| format!("CREATE TABLE events AS WISCONSIN({events_rows}, 1, {tseed})");
    let events_reset = |create: &str| {
        vec![
            "DROP TABLE events".to_string(),
            create.to_string(),
            "CHECKPOINT".to_string(),
        ]
    };
    let mut rng = Rng::new(seed, 2);
    match w {
        Workload::OlapMix => {
            let k = sizes.olap_keys;
            let mut tables: Vec<String> = (1..=3)
                .map(|i| format!("CREATE TABLE d{i} AS WISCONSIN({k}, 1, {})", tseed()))
                .collect();
            tables.push(format!("CREATE TABLE f AS WISCONSIN({k}, 4, {})", tseed()));
            let events = events(tseed());
            tables.push(events.clone());
            let half = k / 2;
            let residue = rng.below(4);
            let mut round = vec![
                Stmt::select("SELECT * FROM f ORDER BY key".into()),
                Stmt::select("SELECT * FROM d1 JOIN f ON d1.key = f.key GROUP BY key".into()),
                Stmt::select(format!(
                    "SELECT * FROM d2 JOIN f ON d2.key = f.key WHERE d2.key < {half} ORDER BY key"
                )),
                Stmt::select(
                    "SELECT * FROM d1 JOIN d2 ON d1.key = d2.key JOIN d3 ON d2.key = d3.key \
                     JOIN f ON d3.key = f.key"
                        .into(),
                ),
                Stmt::select(format!(
                    "SELECT * FROM d3 JOIN f ON d3.key = f.key WHERE f.key % 4 = {residue} \
                     GROUP BY key ORDER BY key"
                )),
            ];
            round.extend(insert_batch("events", 4, events_rows, 1 << 20, &mut rng));
            Spec {
                durable: Durable {
                    knobs: Vec::new(),
                    tables,
                    write_table: "events",
                    write_base: events_rows,
                    tail: insert_batch("events", sizes.tail_inserts, 0, 1 << 20, &mut rng),
                },
                reset: events_reset(&events),
                round,
            }
        }
        Workload::WideJoin => {
            let k = sizes.wide_keys;
            let mut tables = vec![format!(
                "CREATE TABLE f AS WISCONSIN({k}, 4, {}, 1.2)",
                tseed()
            )];
            tables.extend(
                (1..=7).map(|i| format!("CREATE TABLE d{i} AS WISCONSIN({k}, 1, {})", tseed())),
            );
            let events = events(tseed());
            tables.push(events.clone());
            // The hot head of the Zipf fact: its lowest keys.
            let hot = (k / 40).max(2) + rng.below(4);
            let star = |dims: usize, tail: &str| {
                let joins: String = (1..=dims)
                    .map(|i| format!(" JOIN d{i} ON f.key = d{i}.key"))
                    .collect();
                format!("SELECT * FROM f{joins} WHERE f.key < {hot}{tail}")
            };
            let mut round = vec![
                Stmt::select(star(5, "")),
                Stmt::select(star(6, " ORDER BY key")),
                Stmt::select(star(7, " GROUP BY key")),
            ];
            round.extend(insert_batch("events", 2, events_rows, 1 << 20, &mut rng));
            Spec {
                durable: Durable {
                    knobs: vec!["SET memory = 100000".into()],
                    tables,
                    write_table: "events",
                    write_base: events_rows,
                    tail: insert_batch("events", sizes.tail_inserts, 0, 1 << 20, &mut rng),
                },
                reset: events_reset(&events),
                round,
            }
        }
        Workload::DurableIngest => {
            let n = sizes.ingest_base;
            let create = format!("CREATE TABLE ingest AS WISCONSIN({n}, 1, {})", tseed());
            let mut round = Vec::new();
            let inserts = insert_batch("ingest", sizes.ingest_inserts, n, 2048, &mut rng);
            for (i, insert) in inserts.into_iter().enumerate() {
                round.push(insert);
                if i % 4 == 3 {
                    let lo = n - 64 + rng.below(256);
                    let hi = lo + 512;
                    let shape = if i % 16 == 15 {
                        "GROUP BY key"
                    } else {
                        "ORDER BY key"
                    };
                    round.push(Stmt::select(format!(
                        "SELECT * FROM ingest WHERE key >= {lo} AND key < {hi} {shape} LIMIT 32"
                    )));
                }
                if i % 16 == 15 {
                    round.push(Stmt::Checkpoint);
                }
            }
            if !matches!(round.last(), Some(Stmt::Checkpoint)) {
                round.push(Stmt::Checkpoint);
            }
            Spec {
                durable: Durable {
                    knobs: Vec::new(),
                    tables: vec![create.clone()],
                    write_table: "ingest",
                    write_base: n,
                    tail: insert_batch("ingest", sizes.tail_inserts, n + 4096, 2048, &mut rng),
                },
                reset: vec!["DROP TABLE ingest".into(), create],
                round,
            }
        }
        Workload::PaperKernels => unreachable!("paper-kernels is not a SQL workload"),
    }
}

/// A durable database in its own directory, plus the session knobs.
pub(crate) struct Db {
    pub dir: PathBuf,
    pub db: Database,
    knobs: Vec<String>,
    pub threads: usize,
}

impl Db {
    /// Set-up: `Database::open` of a fresh directory and the `CREATE
    /// TABLE` statements.
    pub(crate) fn create(
        dir: &Path,
        knobs: Vec<String>,
        threads: usize,
        tables: &[String],
    ) -> Result<Db, String> {
        let db = Database::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        let db = Db {
            dir: dir.to_path_buf(),
            db,
            knobs,
            threads,
        };
        {
            let mut s = db.session(false)?;
            for sql in tables {
                s.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
            }
        }
        Ok(db)
    }

    /// A session at the loop's DoP with the workload's knobs; the
    /// engine's own span-tree profile only when `profile`.
    pub(crate) fn session(&self, profile: bool) -> Result<Session<'_>, String> {
        let mut s = self.db.session();
        s.set_threads(self.threads);
        let flag = if profile { "on" } else { "off" };
        for sql in self
            .knobs
            .iter()
            .map(String::as_str)
            .chain([&*format!("SET profile = {flag}")])
        {
            s.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
        }
        Ok(s)
    }
}

/// The keys the write table must hold: what was committed.
pub(crate) struct Model {
    table: String,
    base: u64,
    keys: Vec<u64>,
}

impl Model {
    pub(crate) fn new(table: &str, base: u64) -> Model {
        Model {
            table: table.to_string(),
            base,
            keys: (0..base).collect(),
        }
    }

    pub(crate) fn apply(&mut self, stmt: &Stmt) {
        if let Stmt::Insert { table, keys, .. } = stmt {
            if *table == self.table {
                self.keys.extend(keys);
            }
        }
    }

    /// The table was recreated from its base.
    fn reset(&mut self) {
        self.keys = (0..self.base).collect();
    }
}

/// What one statement did.
#[derive(Clone, Debug, Default)]
pub(crate) struct Outcome {
    /// Host latency in ms.
    pub ms: f64,
    /// Result rows of a SELECT.
    pub digest: Digest,
    /// Measured device traffic of a SELECT.
    pub io: IoStats,
    /// Rows inserted.
    pub inserted: u64,
    /// Checkpoint file bytes written.
    pub ckpt_bytes: u64,
}

/// Spans and per-layer samples of a traced run.
pub(crate) struct Traced<'a> {
    pub tracer: &'a mut Tracer,
    pub layers: &'a mut Layers,
}

fn checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(CHECKPOINT_FILE)).map_or(0, |m| m.len())
}

/// Runs one statement: through `Session::execute` untraced, or through
/// each layer's entry point with spans when `traced`.
pub(crate) fn exec(
    db: &Db,
    session: &mut Session<'_>,
    stmt: &Stmt,
    traced: Option<&mut Traced<'_>>,
    checks: &mut Checks,
) -> Result<Outcome, String> {
    if let Some(t) = traced {
        return exec_traced(db, session, stmt, t, checks);
    }
    let t0 = Instant::now();
    let mut out = Outcome::default();
    match stmt {
        Stmt::Select { sql, .. } => {
            let Response::Rows(mut stream) =
                session.execute(sql).map_err(|e| format!("{sql}: {e}"))?
            else {
                return Err(format!("{sql}: not a row result"));
            };
            while let Some(batch) = stream.next_batch().map_err(|e| format!("{sql}: {e}"))? {
                for row in &batch.rows {
                    out.digest.add(row, 0);
                }
            }
            out.ms = ms_since(t0);
            out.io = stream.stats().map(|s| s.io).unwrap_or_default();
        }
        Stmt::Insert { sql, keys, .. } => {
            session.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
            out.ms = ms_since(t0);
            out.inserted = keys.len() as u64;
        }
        Stmt::Checkpoint => {
            session
                .execute("CHECKPOINT")
                .map_err(|e| format!("CHECKPOINT: {e}"))?;
            out.ms = ms_since(t0);
            out.ckpt_bytes = checkpoint_bytes(&db.dir);
        }
    }
    Ok(out)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn exec_traced(
    db: &Db,
    session: &mut Session<'_>,
    stmt: &Stmt,
    t: &mut Traced<'_>,
    checks: &mut Checks,
) -> Result<Outcome, String> {
    t.tracer.next_stmt();
    let mut out = Outcome::default();
    match stmt {
        Stmt::Select { sql, .. } => {
            // SHOW METRICS around the statement, outside its span.
            let before = show_metrics(session)?;
            let t0 = Instant::now();
            let (parsed, parse_ns) = t.tracer.span("wl-db::sql", "parse", || parse(sql));
            let Statement::Select(select) = parsed.map_err(|e| format!("{sql}: {e}"))? else {
                return Err(format!("{sql}: not a SELECT"));
            };
            let ((bound, catalog), bind_ns) = t.tracer.span("wl-db::sql", "bind", || {
                let catalog = db.db.catalog();
                (bind(&select, &catalog), catalog)
            });
            let bound = bound.map_err(|e| format!("{sql}: {e}"))?;
            // The planner exactly as `Session` configures it.
            let cfg = session.config();
            let dev = db.db.device();
            let m_buffers = BufferPool::new(cfg.dram_bytes).budget_buffers() as f64;
            let lambda = cfg.lambda.unwrap_or_else(|| dev.lambda());
            let planner = Planner::with_config(lambda, m_buffers, db.db.layer(), dev.config())
                .with_threads(db.threads);
            let (planned, plan_ns) = t.tracer.span("wl-planner::enumerate", "plan", || {
                planner.plan(&bound.logical, &catalog)
            });
            let planned = planned.map_err(|e| format!("{sql}: {e}"))?;
            // `Session::query` parses, binds and plans again: harness
            // overhead, kept visible as its own span and left out of the
            // statement's latency.
            let (stream, query_ns) = t
                .tracer
                .span("harness", "session.query", || session.query(sql));
            let mut stream = stream.map_err(|e| format!("{sql}: {e}"))?;
            checks.check(same_plan(&planned, stream.planned()), || {
                format!("split-out Planner::plan chose another plan than the session: {sql}")
            });
            let (first, exec_ns) = t
                .tracer
                .span("wl-planner::lower", "execute", || stream.next_batch());
            for row in first
                .map_err(|e| format!("{sql}: {e}"))?
                .iter()
                .flat_map(|b| &b.rows)
            {
                out.digest.add(row, 0);
            }
            let (rest, deliver_ns) = t.tracer.span("wl-db::stream", "deliver", || {
                while let Some(batch) = stream.next_batch()? {
                    for row in &batch.rows {
                        out.digest.add(row, 0);
                    }
                }
                Ok::<(), wl_db::DbError>(())
            });
            rest.map_err(|e| format!("{sql}: {e}"))?;
            t.tracer.record("statement", "select", t0);
            out.ms = ms_since(t0) - query_ns / 1e6;
            let after = show_metrics(session)?;

            let stats = stream
                .stats()
                .ok_or_else(|| format!("{sql}: drained stream has no stats"))?;
            out.io = stats.io;
            let statement_ns = parse_ns + bind_ns + plan_ns + exec_ns + deliver_ns;
            let l = &mut *t.layers;
            l.add("sql.parse_us", parse_ns / 1e3);
            l.add("sql.bind_us", bind_ns / 1e3);
            l.add("planner.plan_ms", plan_ns / 1e6);
            l.add("planner.plan_share", plan_ns / statement_ns);
            l.add("planner.choices", planned.choices.len() as f64);
            if let Some(q) = q_error(&planned, &stats.io) {
                l.add("planner.cost_q_error", q);
            }
            l.add("exec.run_ms", exec_ns / 1e6);
            l.add(
                "exec.replan_frac",
                f64::from(u8::from(stream.adapted().is_some())),
            );
            l.add("stream.deliver_ms", deliver_ns / 1e6);
            l.add("stream.batches", stats.batches as f64);
            l.add(
                "pool.exhausted",
                (after.pool_exhausted - before.pool_exhausted) as f64,
            );
            l.add("pool.peak_bytes", after.pool_peak_bytes as f64);
            if let Some(profile) = stream.profile() {
                operator_samples(profile, l);
            }
        }
        Stmt::Insert { sql, keys, .. } => {
            let before = db.db.metrics_snapshot();
            let t0 = Instant::now();
            let (parsed, parse_ns) = t.tracer.span("wl-db::sql", "parse", || parse(sql));
            let Statement::Insert {
                table,
                keys: parsed_keys,
            } = parsed.map_err(|e| format!("{sql}: {e}"))?
            else {
                return Err(format!("{sql}: not an INSERT"));
            };
            checks.check(parsed_keys == *keys, || {
                format!("INSERT keys misparsed: {sql}")
            });
            let (res, insert_ns) = t.tracer.span("wl-db::database", "insert_keys", || {
                db.db.insert_keys(&table.name, &parsed_keys)
            });
            res.map_err(|e| format!("{sql}: {e}"))?;
            t.tracer.record("statement", "insert", t0);
            out.ms = ms_since(t0);
            out.inserted = keys.len() as u64;
            let after = db.db.metrics_snapshot();
            t.layers.add("sql.parse_us", parse_ns / 1e3);
            t.layers.add("db.insert_ms", insert_ns / 1e6);
            t.layers.add(
                "wal.bytes_per_insert",
                (after.wal_bytes - before.wal_bytes) as f64,
            );
        }
        Stmt::Checkpoint => {
            let t0 = Instant::now();
            let (res, ns) = t
                .tracer
                .span("wl-db::durable", "checkpoint", || db.db.checkpoint());
            let (_, _, bytes) = res.map_err(|e| format!("CHECKPOINT: {e}"))?;
            t.tracer.record("statement", "checkpoint", t0);
            out.ms = ms_since(t0);
            out.ckpt_bytes = bytes;
            t.layers.add("durable.checkpoint_ms", ns / 1e6);
            t.layers.add("durable.checkpoint_bytes", bytes as f64);
        }
    }
    Ok(out)
}

fn show_metrics(session: &mut Session<'_>) -> Result<wl_db::MetricsSnapshot, String> {
    match session.execute("SHOW METRICS") {
        Ok(Response::Metrics(m)) => Ok(m),
        Ok(_) => Err("SHOW METRICS returned no metrics".into()),
        Err(e) => Err(format!("SHOW METRICS: {e}")),
    }
}

/// Same plan, choices and costing knobs.
fn same_plan(a: &PlannedQuery, b: &PlannedQuery) -> bool {
    render_plan(a) == render_plan(b)
        && render_choices(a) == render_choices(b)
        && a.threads == b.threads
        && a.lambda == b.lambda
        && a.m_buffers == b.m_buffers
}

/// q-error of the predicted against the measured device cost (reads
/// plus λ-weighted writes), when both are non-zero.
fn q_error(planned: &PlannedQuery, io: &IoStats) -> Option<f64> {
    let predicted = planned.predicted.reads + planned.lambda * planned.predicted.writes;
    let measured = io.cl_reads as f64 + planned.lambda * io.cl_writes as f64;
    (predicted > 0.0 && measured > 0.0).then(|| (predicted / measured).max(measured / predicted))
}

/// The operator class of a plan-node span label, if it is one.
fn op_class(label: &str) -> Option<&'static str> {
    [
        ("sort via", "sort"),
        ("join via", "join"),
        ("aggregate", "agg"),
        ("filter [", "filter"),
        ("scan ", "scan"),
    ]
    .into_iter()
    .find_map(|(prefix, class)| label.starts_with(prefix).then_some(class))
}

/// Per statement: each operator class's self wall time (its span minus
/// the plan-node spans beneath it) and self cacheline writes.
fn operator_samples(profile: &SpanNode, layers: &mut Layers) {
    fn child_ops<'a>(node: &'a SpanNode, out: &mut Vec<&'a SpanNode>) {
        for c in &node.children {
            if op_class(&c.label).is_some() {
                out.push(c);
            } else {
                child_ops(c, out);
            }
        }
    }
    fn walk(node: &SpanNode, acc: &mut [(f64, f64, bool); 4]) {
        let mut kids = Vec::new();
        child_ops(node, &mut kids);
        let slot = match op_class(&node.label) {
            Some("sort") => Some(0),
            Some("join") => Some(1),
            Some("agg") => Some(2),
            Some("filter") => Some(3),
            _ => None,
        };
        if let Some(i) = slot {
            let kid_ns: u64 = kids.iter().map(|k| k.wall_ns).sum();
            let kid_writes: u64 = kids.iter().map(|k| k.io.cl_writes).sum();
            acc[i].0 += node.wall_ns.saturating_sub(kid_ns) as f64 / 1e6;
            acc[i].1 += node.io.cl_writes.saturating_sub(kid_writes) as f64;
            acc[i].2 = true;
        }
        for k in kids {
            walk(k, acc);
        }
    }
    let mut acc = [(0.0, 0.0, false); 4];
    walk(profile, &mut acc);
    for (class, (ms, writes, seen)) in ["sort", "join", "agg", "filter"].into_iter().zip(acc) {
        if seen {
            layers.add(&format!("op.{class}.self_ms"), ms);
            layers.add(&format!("op.{class}.cl_writes"), writes);
        }
    }
}

/// The first round's per-statement results and traffic; every later
/// round must match it.
pub(crate) struct RoundRef {
    outcomes: Vec<Outcome>,
    io: IoStats,
    /// Executions per position that returned the reference result.
    matched: Vec<u64>,
    /// Positions whose reference result the gate found wrong.
    wrong: Vec<bool>,
}

/// A SQL round needs no staging: the set-up's `CREATE TABLE`s generate
/// its inputs.
impl Rounds for &Spec {
    type Outcomes = Vec<Outcome>;
    type Ref = RoundRef;

    fn io(&self, db: &Db) -> IoStats {
        db.db.device().snapshot()
    }

    fn reset(&self, session: &mut Session<'_>, model: &mut Model) -> Result<(), String> {
        if self.reset.is_empty() {
            return Ok(());
        }
        for sql in &self.reset {
            session.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
        }
        model.reset();
        Ok(())
    }

    fn round(
        &self,
        db: &Db,
        session: &mut Session<'_>,
        model: &mut Model,
        mut traced: Option<&mut Traced<'_>>,
        ls: &mut LoopStats,
        checks: &mut Checks,
    ) -> Result<Vec<Outcome>, String> {
        let mut outcomes = Vec::with_capacity(self.round.len());
        for stmt in &self.round {
            let out = exec(db, session, stmt, traced.as_deref_mut(), checks)?;
            model.apply(stmt);
            ls.note(outcomes.len(), || stmt.label(), out.ms);
            match stmt {
                Stmt::Select { .. } => ls.read(out.ms),
                Stmt::Insert { .. } => ls.insert(out.ms),
                Stmt::Checkpoint => {}
            }
            ls.durable_bytes += out.ckpt_bytes;
            ls.inserted_rows += out.inserted;
            outcomes.push(out);
        }
        ls.ops += self.round.len() as u64;
        Ok(outcomes)
    }

    fn check(
        &self,
        outcomes: Vec<Outcome>,
        io: &IoStats,
        reference: &mut Option<RoundRef>,
        checks: &mut Checks,
    ) {
        let Some(r) = reference else {
            // The gate checks this round's rows against the oracle.
            for (stmt, out) in self.round.iter().zip(&outcomes) {
                let ordered = matches!(stmt, Stmt::Select { ordered: true, .. });
                checks.check(!(ordered && out.digest.unordered), || {
                    format!("rows out of key order: {}", stmt.label())
                });
            }
            *reference = Some(RoundRef {
                matched: vec![1; outcomes.len()],
                wrong: vec![false; outcomes.len()],
                outcomes,
                io: *io,
            });
            return;
        };
        check_round(self, r, &outcomes, checks);
        if !self.reset.is_empty() {
            checks.check(same_io(io, &r.io), || {
                format!(
                    "round traffic {io:?} differs from the first round's {:?}",
                    r.io
                )
            });
        }
    }

    fn gate(
        &self,
        db: &Db,
        model: &mut Model,
        reference: &mut RoundRef,
        checks: &mut Checks,
    ) -> Result<(), String> {
        gate(self, db, model, reference, checks)
    }
}

/// Every SELECT of a round returns the first round's rows with the
/// first round's traffic, in key order when it has ORDER BY.
fn check_round(spec: &Spec, r: &mut RoundRef, outcomes: &[Outcome], checks: &mut Checks) {
    for (i, (stmt, got)) in spec.round.iter().zip(outcomes).enumerate() {
        if let Stmt::Select { sql, ordered } = stmt {
            let want = &r.outcomes[i];
            let same = got.digest.same_rows(&want.digest)
                && !(*ordered && got.digest.unordered)
                && same_io(&got.io, &want.io);
            r.matched[i] += u64::from(same);
            checks.check(same && !r.wrong[i], || {
                format!("rows or traffic differ from the first round, or are wrong: {sql}")
            });
        } else {
            checks.check(true, String::new);
        }
    }
}

/// The correctness gate, outside the timed region: one more round in
/// which every SELECT's rows are checked against `execute_naive` and
/// against the loop's first round, and its plan is re-run at DoP 1 for
/// identical rows and device traffic.
fn gate(
    spec: &Spec,
    db: &Db,
    model: &mut Model,
    reference: &mut RoundRef,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut session = db.session(false)?;
    (&spec).reset(&mut session, model)?;
    for (i, stmt) in spec.round.iter().enumerate() {
        let want = &reference.outcomes[i];
        let Stmt::Select { sql, ordered } = stmt else {
            exec(db, &mut session, stmt, None, checks)?;
            model.apply(stmt);
            continue;
        };
        let err = |e: &dyn std::fmt::Display| format!("{sql}: {e}");
        let Response::Rows(mut stream) = session.execute(sql).map_err(|e| err(&e))? else {
            return Err(format!("{sql}: not a row result"));
        };
        let mut rows = Vec::new();
        while let Some(batch) = stream.next_batch().map_err(|e| err(&e))? {
            rows.extend(batch.rows);
        }
        let io = stream.stats().map(|s| s.io).unwrap_or_default();
        let digest = Digest::of(&rows, 0);
        checks.check(
            digest.same_rows(&want.digest) && same_io(&io, &want.io),
            || format!("gate round differs from the loop's first round: {sql}"),
        );

        let catalog = db.db.catalog();
        let Statement::Select(select) = parse(sql).map_err(|e| err(&e))? else {
            return Err(format!("{sql}: not a SELECT"));
        };
        let bound = bind(&select, &catalog).map_err(|e| err(&e))?;
        let project = |wide: Vec<Vec<u64>>| -> Vec<Vec<u64>> {
            wide.into_iter()
                .map(|r| bound.projection.iter().map(|&i| r[i]).collect())
                .collect()
        };
        let oracle = execute_naive(&bound.logical, &catalog).map_err(|e| err(&e))?;
        let want_rows = project(oracle.wide_rows());
        let right = rows_match(&rows, &want_rows, bound.limit, *ordered);
        checks.check(right, || format!("rows differ from execute_naive: {sql}"));
        if !right && digest.same_rows(&want.digest) {
            // The loop returned these same wrong rows every time.
            reference.wrong[i] = true;
            let n = reference.matched[i];
            checks.fail_counted(n, || format!("{n} loop executions returned them: {sql}"));
        }

        let one = PlannedQuery {
            threads: 1,
            ..stream.planned().clone()
        };
        let pool = BufferPool::new(session.config().dram_bytes);
        let run = planner::execute(&one, &catalog, db.db.device(), db.db.layer(), &pool)
            .map_err(|e| err(&e))?;
        let mut got = project(run.output.wide_rows());
        got.sort_unstable();
        let mut all = want_rows;
        all.sort_unstable();
        checks.check(got == all && same_io(&run.stats, &io), || {
            format!(
                "DoP 1 differs from DoP {} (traffic {:?} vs {:?}): {sql}",
                db.threads, run.stats, io
            )
        });
    }
    Ok(())
}

/// Session rows against the oracle's: the same multiset, or with LIMIT
/// a sub-multiset of the right size; in key order when ordered (with
/// LIMIT, the oracle's smallest keys).
fn rows_match(got: &[Vec<u64>], want: &[Vec<u64>], limit: Option<u64>, ordered: bool) -> bool {
    if ordered && got.windows(2).any(|w| w[1][0] < w[0][0]) {
        return false;
    }
    let mut g = got.to_vec();
    g.sort_unstable();
    let mut w = want.to_vec();
    w.sort_unstable();
    let Some(limit) = limit else {
        return g == w;
    };
    if g.len() as u64 != limit.min(w.len() as u64) {
        return false;
    }
    // Sub-multiset: walk both sorted lists.
    let mut wi = w.iter().peekable();
    for row in &g {
        while wi.peek().is_some_and(|x| *x < row) {
            wi.next();
        }
        if wi.next() != Some(row) {
            return false;
        }
    }
    if ordered {
        let mut gk: Vec<u64> = g.iter().map(|r| r[0]).collect();
        gk.sort_unstable();
        let wk: Vec<u64> = w.iter().map(|r| r[0]).take(gk.len()).collect();
        return gk == wk;
    }
    true
}

/// `reopens` cycles of: CHECKPOINT, the un-checkpointed WAL tail,
/// closing the database, and `Database::reopen` (timed). The reopened
/// catalog must equal the one closed, and the write table must hold
/// exactly the model's keys.
pub(crate) fn recover(
    mut db: Db,
    model: &mut Model,
    tail: &[Stmt],
    reopens: usize,
    mut traced: Option<&mut Traced<'_>>,
    recovery_s: &mut Timed,
    checks: &mut Checks,
) -> Result<Db, String> {
    for _ in 0..reopens {
        let tables = {
            let mut session = db.session(traced.is_some())?;
            for stmt in std::iter::once(&Stmt::Checkpoint).chain(tail) {
                exec(&db, &mut session, stmt, traced.as_deref_mut(), checks)?;
                model.apply(stmt);
            }
            db.db.tables()
        };
        let Db {
            dir,
            knobs,
            threads,
            db: closed,
        } = db;
        drop(closed);
        recovery_s.calibrate();
        let t0 = Instant::now();
        let reopened = match traced.as_deref_mut() {
            Some(t) => {
                t.tracer.next_stmt();
                t.tracer
                    .span("wl-db::durable", "reopen", || Database::reopen(&dir))
                    .0
            }
            None => Database::reopen(&dir),
        }
        .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        let secs = t0.elapsed().as_secs_f64();
        recovery_s.calibrate();
        let replayed = reopened.recovery_report().map_or(0, |r| r.replayed_records);
        match traced.as_deref_mut() {
            Some(t) => {
                t.layers.add("durable.replayed_records", replayed as f64);
                t.layers.add(
                    "durable.replay_ms_per_record",
                    secs * 1e3 / replayed.max(1) as f64,
                );
            }
            None => recovery_s.secs.push(secs),
        }
        checks.check(replayed == tail.len() as u64, || {
            format!(
                "reopen replayed {replayed} WAL records, {} were written",
                tail.len()
            )
        });
        checks.check(reopened.tables() == tables, || {
            "reopened catalog differs from the closed one".into()
        });
        let mut keys: Vec<u64> = reopened
            .catalog()
            .data(&model.table)
            .map(|d| d.to_vec_uncounted().iter().map(|r| r.attrs[0]).collect())
            .unwrap_or_default();
        keys.sort_unstable();
        let mut want = model.keys.clone();
        want.sort_unstable();
        checks.check(keys == want, || {
            format!(
                "reopened {} differs from the committed inserts",
                model.table
            )
        });
        db = Db {
            dir,
            db: reopened,
            knobs,
            threads,
        };
    }
    Ok(db)
}

/// Removes a directory tree, treating "not there" as done.
pub(crate) fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// A SQL workload's measurements.
pub(crate) fn measure(cfg: &Config) -> Result<crate::Measured, String> {
    let spec = spec(cfg.workload, cfg.seed, &cfg.sizes);
    crate::rounds::measure(cfg, &spec.durable, || &spec)
}

#[cfg(test)]
mod tests {
    use super::rows_match;

    fn rows(keys: &[u64]) -> Vec<Vec<u64>> {
        keys.iter().map(|&k| vec![k, k * 10]).collect()
    }

    #[test]
    fn whole_results_must_be_the_same_multiset() {
        let want = rows(&[3, 1, 2, 2]);
        assert!(rows_match(&rows(&[2, 1, 2, 3]), &want, None, false));
        assert!(
            !rows_match(&rows(&[2, 1, 3]), &want, None, false),
            "missing row"
        );
        assert!(
            !rows_match(&rows(&[2, 1, 3, 3]), &want, None, false),
            "wrong row"
        );
        assert!(rows_match(&rows(&[1, 2, 2, 3]), &want, None, true));
        assert!(
            !rows_match(&rows(&[2, 1, 2, 3]), &want, None, true),
            "not in key order"
        );
    }

    #[test]
    fn limited_results_are_a_sub_multiset_of_the_right_size() {
        let want = rows(&[5, 1, 4, 2, 3]);
        assert!(rows_match(&rows(&[4, 2]), &want, Some(2), false));
        assert!(
            !rows_match(&rows(&[4, 6]), &want, Some(2), false),
            "not in the oracle"
        );
        assert!(!rows_match(&rows(&[4]), &want, Some(2), false), "too few");
        assert!(rows_match(&rows(&[1, 2]), &want, Some(2), true));
        assert!(
            !rows_match(&rows(&[1, 3]), &want, Some(2), true),
            "not the smallest keys"
        );
        assert!(rows_match(&rows(&[1, 2, 3, 4, 5]), &want, Some(9), true));
    }
}
