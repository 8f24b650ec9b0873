//! ExMS — standard external mergesort with replacement selection.
//!
//! The paper's symmetric-I/O baseline (§2.1.1): generate runs with
//! replacement selection (average length `2M` on random input), then merge
//! with `log_M |T|` passes. Total cost `|T|·r·(1+λ)·(log_M |T| + 1)`.

use super::common::{generate_runs_parallel, merge_runs_into, SortContext};
use pmem_sim::PCollection;
use wisconsin::Record;

/// Sorts `input`, materializing the result as a new collection.
///
/// Run generation proceeds over fixed `4M`-record chunks fanned out
/// across the context's worker pool (serial inputs up to one chunk are
/// untouched); chunk boundaries depend only on the DRAM budget, so runs
/// and counters are identical at any degree of parallelism. The merge
/// phase fans its intermediate passes out over merge groups and the
/// final pass over sampled key-range segments the same way.
pub fn external_merge_sort<R: Record>(
    input: &PCollection<R>,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> PCollection<R> {
    let _span = pmem_sim::span::span("alg exms");
    let capacity = ctx.capacity_records::<R>();
    let mut runs = generate_runs_parallel(input, capacity, ctx);
    if runs.len() == 1 {
        // A single run is already the sorted output; returning it
        // directly avoids a spurious rewrite (its name stays "run-…",
        // which is cosmetic — cost fidelity matters more than the
        // label).
        if let Some(out) = runs.pop() {
            return out;
        }
    }
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    merge_runs_into(runs, ctx, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder, Record, WisconsinRecord};

    #[test]
    fn sorts_random_input() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(10_000, KeyOrder::Random, 1),
        );
        let pool = BufferPool::new(500 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = external_merge_sort(&input, &ctx, "sorted");
        assert_eq!(out.len(), 10_000);
        assert!(is_sorted_by_key(&out));
        let keys: Vec<u64> = out.to_vec_uncounted().iter().map(|r| r.key()).collect();
        assert_eq!(keys, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn io_cost_is_near_model_for_one_merge_pass() {
        // With M large enough for a single merge pass, the model cost is
        // 2·|T| reads and 2·|T| writes (run generation + one merge).
        let dev = PmDevice::paper_default();
        let n = 20_000u64;
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(n, KeyOrder::Random, 2),
        );
        let t_buffers = input.buffers() as f64;
        let pool = BufferPool::new(2000 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let _out = external_merge_sort(&input, &ctx, "sorted");
        let d = dev.snapshot().since(&before);
        let reads = d.cl_reads as f64;
        let writes = d.cl_writes as f64;
        assert!(
            (reads / t_buffers - 2.0).abs() < 0.1,
            "reads/|T| = {}",
            reads / t_buffers
        );
        assert!(
            (writes / t_buffers - 2.0).abs() < 0.1,
            "writes/|T| = {}",
            writes / t_buffers
        );
    }

    #[test]
    fn handles_duplicate_keys() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(5000, KeyOrder::FewDistinct { distinct: 7 }, 3),
        );
        let pool = BufferPool::new(200 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = external_merge_sort(&input, &ctx, "sorted");
        assert_eq!(out.len(), 5000);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let dev = PmDevice::paper_default();
        let input: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "t");
        let pool = BufferPool::new(8192);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = external_merge_sort(&input, &ctx, "sorted");
        assert!(out.is_empty());
    }

    #[test]
    fn single_record_passes_through() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            [WisconsinRecord::from_key(9)],
        );
        let pool = BufferPool::new(8192);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = external_merge_sort(&input, &ctx, "sorted");
        assert_eq!(out.to_vec_uncounted()[0].key(), 9);
    }
}
