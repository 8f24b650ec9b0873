// Known-bad fixture for the ledger-only rule: crediting traffic to the
// calling thread's flow by hand, which only the worker pool may do.
pub fn forge_flow(stats: &IoStats) {
    adopt(stats);
}
