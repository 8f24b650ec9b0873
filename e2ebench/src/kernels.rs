//! The paper-kernels workload: direct `SortAlgorithm::run` and
//! `JoinAlgorithm::run` calls over the paper's sort and join inputs at
//! 5% DRAM, each followed by durable INSERTs logging it.

use crate::report::{Checks, LoopStats};
use crate::rounds::{same_io, Durable, Rounds};
use crate::sql::{exec, Db, Model, Stmt, Traced};
use crate::{Config, Digest, Rng};
use pmem_sim::{BufferPool, IoStats, LayerKind, PCollection, Pm, PmDevice};
use std::time::Instant;
use wisconsin::{join_input, sort_input, KeyOrder, Pair, WisconsinRecord};
use wl_db::Session;
use write_limited::join::{JoinAlgorithm, JoinContext};
use write_limited::sort::{SortAlgorithm, SortContext};

/// DRAM budget as a share of the input (of the build side for joins).
const MEM_FRACTION: f64 = 0.05;
/// Logging INSERTs after each kernel call (1 and 16 rows alternating).
const LOGS_PER_CALL: usize = 3;
/// Right-side records per left key.
const JOIN_FANOUT: u64 = 10;

#[derive(Clone, Copy, Debug)]
enum Kernel {
    Sort(SortAlgorithm),
    Join(JoinAlgorithm),
}

/// The line-up: the baselines and the write-limited algorithms,
/// including the ones the planner seldom picks (LaS, LaJ, HybJ, HJ).
const LINEUP: [(&str, Kernel); 9] = [
    ("sort.ExMS", Kernel::Sort(SortAlgorithm::ExMS)),
    ("sort.LaS", Kernel::Sort(SortAlgorithm::LaS)),
    ("sort.SegS50", Kernel::Sort(SortAlgorithm::SegS { x: 0.5 })),
    ("sort.HybS50", Kernel::Sort(SortAlgorithm::HybS { x: 0.5 })),
    ("join.GJ", Kernel::Join(JoinAlgorithm::GJ)),
    ("join.HJ", Kernel::Join(JoinAlgorithm::HJ)),
    ("join.LaJ", Kernel::Join(JoinAlgorithm::LaJ)),
    (
        "join.SegJ50",
        Kernel::Join(JoinAlgorithm::SegJ { frac: 0.5 }),
    ),
    (
        "join.HybJ50",
        Kernel::Join(JoinAlgorithm::HybJ { x: 0.5, y: 0.5 }),
    ),
];

/// The staged inputs, on a device of their own.
struct Inputs {
    dev: Pm,
    sort: PCollection<WisconsinRecord>,
    left: PCollection<WisconsinRecord>,
    right: PCollection<WisconsinRecord>,
    expected_matches: u64,
}

fn stage(cfg: &Config) -> Inputs {
    let dev = PmDevice::paper_default();
    let layer = LayerKind::BlockedMemory;
    let sort = sort_input(cfg.sizes.sort_records, KeyOrder::Random, cfg.seed);
    let join = join_input(cfg.sizes.join_keys, JOIN_FANOUT, cfg.seed);
    Inputs {
        sort: PCollection::from_records_uncounted(&dev, layer, "sort_in", sort),
        left: PCollection::from_records_uncounted(&dev, layer, "T", join.left),
        right: PCollection::from_records_uncounted(&dev, layer, "V", join.right),
        expected_matches: join.expected_matches,
        dev,
    }
}

/// A kernel's output.
enum Output {
    Sorted(PCollection<WisconsinRecord>),
    Joined(PCollection<Pair<WisconsinRecord, WisconsinRecord>>),
}

impl Output {
    fn len(&self) -> usize {
        match self {
            Output::Sorted(c) => c.len(),
            Output::Joined(c) => c.len(),
        }
    }
}

/// One kernel call; returns the output, its host ms and device traffic.
fn call(inputs: &Inputs, kernel: Kernel, threads: usize) -> Result<(Output, f64, IoStats), String> {
    let layer = LayerKind::BlockedMemory;
    let before = inputs.dev.snapshot();
    let t0 = Instant::now();
    let out = match kernel {
        Kernel::Sort(algo) => {
            let pool = BufferPool::fraction_of(inputs.sort.bytes(), MEM_FRACTION);
            let ctx = SortContext::new(&inputs.dev, layer, &pool).with_threads(threads);
            Output::Sorted(
                algo.run(&inputs.sort, &ctx, "sorted")
                    .map_err(|e| e.to_string())?,
            )
        }
        Kernel::Join(algo) => {
            let pool = BufferPool::fraction_of(inputs.left.bytes(), MEM_FRACTION);
            let ctx = JoinContext::new(&inputs.dev, layer, &pool).with_threads(threads);
            Output::Joined(
                algo.run(&inputs.left, &inputs.right, &ctx, "joined")
                    .map_err(|e| e.to_string())?,
            )
        }
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((out, ms, inputs.dev.snapshot().since(&before)))
}

/// Rows read back per chunk when verifying an output.
const CHUNK: usize = 1 << 16;

/// Full verification of an output (the gate): a sort yields the input's
/// records in key order; a join yields exactly the expected pairs, each
/// with equal keys and each right record once. Returns the output's
/// fingerprint when it is correct.
fn verify(inputs: &Inputs, out: &Output) -> Option<Digest> {
    let mut digest = Digest::default();
    match out {
        Output::Sorted(col) => {
            let mut want = inputs.sort.to_vec_uncounted();
            want.sort_by_key(|r| r.attrs[0]);
            let mut at = 0;
            while at < col.len() {
                let end = (at + CHUNK).min(col.len());
                for (i, r) in col.range_to_vec_uncounted(at, end).iter().enumerate() {
                    if want.get(at + i) != Some(r) {
                        return None;
                    }
                    digest.add(&r.attrs, 0);
                }
                at = end;
            }
            (col.len() == want.len()).then_some(digest)
        }
        Output::Joined(col) => {
            let left = inputs.left.to_vec_uncounted();
            let mut by_key = vec![None; left.len()];
            for r in &left {
                *by_key.get_mut(r.attrs[0] as usize)? = Some(*r);
            }
            let pair_row = |l: &WisconsinRecord, r: &WisconsinRecord| -> Vec<u64> {
                l.attrs.iter().chain(&r.attrs).copied().collect()
            };
            let mut want = Digest::default();
            for r in inputs.right.to_vec_uncounted() {
                let l = (*by_key.get(r.attrs[0] as usize)?)?;
                want.add(&pair_row(&l, &r), 0);
            }
            let mut at = 0;
            while at < col.len() {
                let end = (at + CHUNK).min(col.len());
                for p in col.range_to_vec_uncounted(at, end) {
                    if p.left.attrs[0] != p.right.attrs[0] {
                        return None;
                    }
                    digest.add(&pair_row(&p.left, &p.right), 0);
                }
                at = end;
            }
            (col.len() as u64 == inputs.expected_matches && digest.same_rows(&want))
                .then_some(digest)
        }
    }
}

fn expected_len(inputs: &Inputs, kernel: Kernel) -> usize {
    match kernel {
        Kernel::Sort(_) => inputs.sort.len(),
        Kernel::Join(_) => inputs.expected_matches as usize,
    }
}

/// The first round's traffic of one kernel; later calls must repeat it.
pub(crate) struct KernelRef {
    io: IoStats,
    /// Calls that repeated it.
    matched: u64,
    /// The gate found this kernel's output wrong.
    wrong: bool,
}

/// One kernel call of a round: whether its output had the expected size,
/// and its traffic.
pub(crate) struct Called {
    sized: bool,
    io: IoStats,
}

/// The paper-kernels round: the line-up, each call followed by its
/// logging INSERTs.
struct Kernels<'a> {
    inputs: Inputs,
    logs: &'a [Vec<Stmt>],
}

impl Rounds for Kernels<'_> {
    type Outcomes = Vec<Called>;
    type Ref = Vec<KernelRef>;

    fn io(&self, db: &Db) -> IoStats {
        self.inputs.dev.snapshot().plus(&db.db.device().snapshot())
    }

    fn round(
        &self,
        db: &Db,
        session: &mut Session<'_>,
        model: &mut Model,
        mut traced: Option<&mut Traced<'_>>,
        ls: &mut LoopStats,
        checks: &mut Checks,
    ) -> Result<Vec<Called>, String> {
        let inputs = &self.inputs;
        let mut calls = Vec::with_capacity(LINEUP.len());
        for (i, ((name, kernel), log)) in LINEUP.iter().zip(self.logs).enumerate() {
            // A round lasts seconds: calibrate before every call, not
            // only before the round.
            if i > 0 {
                ls.calibrate();
            }
            let (out, ms, io) = match traced.as_deref_mut() {
                Some(t) => {
                    t.tracer.next_stmt();
                    let cat = match kernel {
                        Kernel::Sort(_) => "write-limited::sort",
                        Kernel::Join(_) => "write-limited::join",
                    };
                    let (res, ns) = t
                        .tracer
                        .span(cat, name, || call(inputs, *kernel, db.threads));
                    let (out, _, io) = res?;
                    match kernel {
                        Kernel::Sort(_) => t.layers.add(
                            &format!("{name}.ns_per_rec"),
                            ns / inputs.sort.len().max(1) as f64,
                        ),
                        Kernel::Join(_) => t.layers.add(&format!("{name}.ms"), ns / 1e6),
                    }
                    t.layers
                        .add(&format!("{name}.cl_writes"), io.cl_writes as f64);
                    (out, ns / 1e6, io)
                }
                None => call(inputs, *kernel, db.threads)?,
            };
            ls.read(ms);
            ls.note((LOGS_PER_CALL + 1) * i, || (*name).to_string(), ms);
            calls.push(Called {
                sized: out.len() == expected_len(inputs, *kernel),
                io,
            });
            drop(out);
            for (j, stmt) in log.iter().enumerate() {
                let logged = exec(db, session, stmt, traced.as_deref_mut(), checks)?;
                model.apply(stmt);
                let pos = (LOGS_PER_CALL + 1) * i + 1 + j;
                ls.note(pos, || format!("{name} log INSERT"), logged.ms);
                ls.insert(logged.ms);
                ls.inserted_rows += logged.inserted;
            }
            ls.ops += 1;
        }
        Ok(calls)
    }

    /// Every call's output size and traffic must match the first round's.
    fn check(
        &self,
        calls: Vec<Called>,
        _io: &IoStats,
        reference: &mut Option<Vec<KernelRef>>,
        checks: &mut Checks,
    ) {
        let Some(refs) = reference else {
            for ((name, _), c) in LINEUP.iter().zip(&calls) {
                checks.check(c.sized, || format!("{name}: output of the wrong size"));
            }
            *reference = Some(
                calls
                    .into_iter()
                    .map(|c| KernelRef {
                        io: c.io,
                        matched: u64::from(c.sized),
                        wrong: false,
                    })
                    .collect(),
            );
            return;
        };
        for ((name, _), (c, want)) in LINEUP.iter().zip(calls.iter().zip(refs)) {
            let same = c.sized && same_io(&c.io, &want.io);
            want.matched += u64::from(same);
            checks.check(same && !want.wrong, || {
                format!("{name}: output size or traffic differs from the first round")
            });
        }
    }

    /// Every kernel once more at the loop's DoP with its output fully
    /// verified, then at DoP 1 with the same output and the same device
    /// traffic required.
    fn gate(
        &self,
        db: &Db,
        _model: &mut Model,
        reference: &mut Vec<KernelRef>,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let (inputs, threads) = (&self.inputs, db.threads);
        for ((name, kernel), want) in LINEUP.iter().zip(reference) {
            let (out, _, io) = call(inputs, *kernel, threads)?;
            let digest = verify(inputs, &out);
            drop(out);
            checks.check(digest.is_some() && same_io(&io, &want.io), || {
                format!("{name}: wrong output or traffic differs from the loop")
            });
            if digest.is_none() && same_io(&io, &want.io) {
                // The loop's calls ran the same way: count them wrong too.
                want.wrong = true;
                let n = want.matched;
                checks.fail_counted(n, || format!("{name}: {n} loop calls returned it"));
            }
            let (out1, _, io1) = call(inputs, *kernel, 1)?;
            let digest1 = verify(inputs, &out1);
            checks.check(
                digest1.is_some() && digest1 == digest && same_io(&io1, &io),
                || format!("{name}: DoP 1 differs from DoP {threads} ({io1:?} vs {io:?})"),
            );
        }
        Ok(())
    }
}

/// The paper-kernels measurements.
pub(crate) fn measure(cfg: &Config) -> Result<crate::Measured, String> {
    let mut rng = Rng::new(cfg.seed, 3);
    // A durable result log as large as the ingest table, so its
    // INSERTs and recovery measure the same paths as on the other
    // workloads.
    let results_rows = cfg.sizes.ingest_base;
    let table_seed = 1 + rng.below(1 << 20);
    let logs: Vec<Vec<Stmt>> = LINEUP
        .iter()
        .map(|_| {
            crate::sql::insert_batch("results", LOGS_PER_CALL, results_rows, 1 << 20, &mut rng)
        })
        .collect();
    let durable = Durable {
        knobs: Vec::new(),
        tables: vec![format!(
            "CREATE TABLE results AS WISCONSIN({results_rows}, 1, {table_seed})"
        )],
        write_table: "results",
        write_base: results_rows,
        tail: crate::sql::insert_batch("results", cfg.sizes.tail_inserts, 0, 1 << 20, &mut rng),
    };
    crate::rounds::measure(cfg, &durable, || Kernels {
        inputs: stage(cfg),
        logs: &logs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Inputs {
        let cfg = Config {
            workload: crate::Workload::PaperKernels,
            seed: 11,
            seconds: 0.0,
            trace: false,
            dir: std::env::temp_dir(),
            threads: 1,
            sizes: crate::Sizes::TINY,
        };
        stage(&cfg)
    }

    #[test]
    fn verify_accepts_right_outputs_and_rejects_wrong_ones() {
        let inputs = inputs();
        for (name, kernel) in [LINEUP[0], LINEUP[4]] {
            let (out, _, _) = call(&inputs, kernel, 1).expect("runs");
            assert!(verify(&inputs, &out).is_some(), "{name}");
        }
        let layer = LayerKind::BlockedMemory;
        let Output::Sorted(sorted) = call(&inputs, LINEUP[0].1, 1).expect("runs").0 else {
            panic!("a sort");
        };
        let mut records = sorted.to_vec_uncounted();
        records.swap(1, 2);
        let swapped = PCollection::from_records_uncounted(&inputs.dev, layer, "x", records);
        assert!(
            verify(&inputs, &Output::Sorted(swapped)).is_none(),
            "out of order"
        );

        let Output::Joined(joined) = call(&inputs, LINEUP[4].1, 1).expect("runs").0 else {
            panic!("a join");
        };
        let mut pairs = joined.to_vec_uncounted();
        pairs[0].right.attrs[1] ^= 1;
        let altered = PCollection::from_records_uncounted(&inputs.dev, layer, "y", pairs.clone());
        assert!(
            verify(&inputs, &Output::Joined(altered)).is_none(),
            "altered pair"
        );
        pairs.pop();
        let short = PCollection::from_records_uncounted(&inputs.dev, layer, "z", pairs);
        assert!(
            verify(&inputs, &Output::Joined(short)).is_none(),
            "missing pair"
        );
    }
}
