//! Reproduction driver: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! repro --all             # everything
//! repro --figure 5        # one figure (2, 5, 6, 7, 8, 9, 10, 11, 12)
//! repro --table 1         # Table 1
//! repro --ablation        # adaptive-join + auto-selection ablations
//! repro --config          # print the simulator configuration (Table 2 stand-in)
//! repro --plan            # plan-level concordance sweep (planner over Fig. 12)
//! repro --parallel        # speedup matrix; writes the BENCH_parallel.json summary
//! repro --parallel-smoke  # CI-sized DoP 1 vs 4 matrix, counters must be identical
//! repro --wall-gap-smoke  # GJ/HJ/ExMS wall-vs-critical-path gap (host-tolerant floor)
//! repro --profile         # span-tree profile (DoP 1 vs 4); writes BENCH_profile.json
//! repro --profile-smoke   # CI-sized structural check of the span profile
//! repro --crash           # 120-seed kill/reopen/verify loop; writes BENCH_crash.json
//! repro --crash-smoke     # CI-sized crash loop (12 seeds, no baseline file)
//! repro --skew            # Zipf-star adaptive-vs-static sweep; writes BENCH_skew.json
//! repro --skew-smoke      # CI-sized stars: guided <= static traffic, oracle rows
//! repro --threads 4 ...   # degree of parallelism for every scenario (= WL_THREADS)
//! WL_SCALE=quick repro --all
//! ```

use wl_bench::{ablation, figures, Scale};

fn print_config() {
    let cfg = pmem_sim::DeviceConfig::paper_default();
    println!("=== Simulator configuration (stands in for the paper's Table 2) ===");
    println!("read latency      {} ns per cacheline", cfg.latency.read_ns);
    println!(
        "write latency     {} ns per cacheline",
        cfg.latency.write_ns
    );
    println!("lambda (w/r)      {}", cfg.latency.lambda());
    println!("cacheline         {} bytes", pmem_sim::CACHELINE);
    println!("collection block  {} bytes", cfg.block_size);
    println!("PMFS call cost    {} ns", cfg.pmfs_call_ns);
    println!("RAM-disk call cost {} ns", cfg.ramdisk_call_ns);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` sets the default degree of parallelism for every
    // scenario. The flag is explicit, so it outranks the `WL_THREADS`
    // environment variable via the shared resolver.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n: usize = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .expect("usage: repro --threads <N> (positive integer)");
        write_limited::parallel::set_default_threads(n);
        args.drain(i..i + 2);
    }
    let scale = Scale::from_env();
    eprintln!(
        "scale: sort_n={}, join |T|={}, fanout={}, threads={}",
        scale.sort_n,
        scale.join_t,
        scale.join_fanout,
        write_limited::parallel::degree_from_env()
    );

    let run_fig = |n: u32| match n {
        2 => figures::fig2(),
        5 => figures::fig5(&scale),
        6 => figures::fig6(&scale),
        7 => figures::fig7(&scale),
        8 => figures::fig8(&scale),
        9 => figures::fig9(&scale),
        10 => figures::fig10(&scale),
        11 => figures::fig11(&scale),
        12 => figures::fig12(&scale),
        other => eprintln!("no figure {other} in the paper's evaluation"),
    };

    match args.first().map(String::as_str) {
        Some("--all") | None => {
            print_config();
            figures::table1(&scale);
            for f in [2, 5, 6, 7, 8, 9, 10, 11, 12] {
                run_fig(f);
            }
            ablation::adaptive_vs_fixed(&scale);
            ablation::auto_selection(&scale);
            ablation::energy_and_wear(&scale);
            ablation::aggregation(&scale);
            ablation::index_leaf_policies(&scale);
            ablation::input_order(&scale);
            wl_bench::plan_concordance(&scale);
            wl_bench::parallel_speedup(&scale, &[1, 2, 4, 8]);
        }
        Some("--figure") => {
            let n: u32 = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .expect("usage: repro --figure <n>");
            run_fig(n);
        }
        Some("--table") => figures::table1(&scale),
        Some("--ablation") => {
            ablation::adaptive_vs_fixed(&scale);
            ablation::auto_selection(&scale);
            ablation::energy_and_wear(&scale);
            ablation::aggregation(&scale);
            ablation::index_leaf_policies(&scale);
            ablation::input_order(&scale);
        }
        Some("--plan") => wl_bench::plan_concordance(&scale),
        Some("--parallel") => wl_bench::parallel_speedup(&scale, &[1, 2, 4, 8]),
        Some("--parallel-smoke") => {
            // CI bench smoke: the matrix itself asserts the counters are
            // identical across DoPs, so completing the run is the check.
            wl_bench::parallel_speedup_cells(&scale, &[1, 4], true);
        }
        Some("--wall-gap-smoke") => wl_bench::wall_gap_smoke(&scale),
        Some("--profile") => wl_bench::profile_to_file(&scale),
        Some("--profile-smoke") => wl_bench::profile_smoke(&scale),
        Some("--skew") => wl_bench::skew_bench(&scale),
        Some("--skew-smoke") => wl_bench::skew_smoke(&scale),
        Some("--crash") => wl_bench::crash_harness(),
        Some("--crash-smoke") => wl_bench::crash_smoke(),
        Some("--config") => print_config(),
        Some(other) => {
            eprintln!(
                "unknown flag {other}; see \
                 --all/--figure/--table/--ablation/--plan/--parallel/\
                 --parallel-smoke/--wall-gap-smoke/--profile/\
                 --profile-smoke/--crash/--crash-smoke/--skew/\
                 --skew-smoke/--config"
            );
        }
    }
}
