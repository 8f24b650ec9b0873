//! The benchmark's own tests: every workload at test sizes, traced and
//! untraced, with the output contract, determinism and the correctness
//! gate checked.

use e2ebench::{run, Config, Sizes, Workload};
use std::path::PathBuf;

const END_TO_END: [&str; 13] = [
    "setup_s",
    "ops_per_s",
    "query_p50_ms",
    "query_tail_ms",
    "insert_p50_ms",
    "insert_tail_ms",
    "recovery_s",
    "sim_cl_writes",
    "sim_cl_reads",
    "sim_secs",
    "write_amp",
    "peak_rss_mb",
    "ok_frac",
];

fn config(workload: Workload, tag: &str, trace: bool) -> Config {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("e2ebench-{tag}-{}", workload.name()));
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        dir,
        threads: 2,
        sizes: Sizes::TINY,
    }
}

#[test]
fn every_workload_runs_correctly_at_test_size() {
    for workload in Workload::ALL {
        let report = run(&config(workload, "plain", false)).expect("runs");
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.checks.failures
        );
        for name in END_TO_END {
            let value = report.metric(name).expect("reported");
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
        let json = report.json(false);
        assert!(
            json.starts_with("{\"correct\":true,\"attempted\":"),
            "{json}"
        );
        for name in END_TO_END {
            assert!(json.contains(&format!("\"{name}\":{{\"value\":")), "{json}");
        }
        assert!(
            !json.contains("op.sort"),
            "per-layer metrics only when traced"
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_a_chrome_trace() {
    for workload in [Workload::WideJoin, Workload::DurableIngest] {
        let cfg = config(workload, "traced", true);
        let report = run(&cfg).expect("runs");
        assert!(report.correct(), "{:?}", report.checks.failures);
        assert_eq!(report.per_layer.len(), 46);
        let json = report.json(true);
        for m in &report.per_layer {
            assert!(m.value.is_finite(), "{}", m.name);
            assert!(json.contains(&format!("\"{}\":", m.name)), "{}", m.name);
        }
        assert!(
            !json.contains("\"setup_s\""),
            "end-to-end metrics only untraced"
        );
        assert!(report.metric("planner.plan_ms").expect("reported") > 0.0);
        assert!(report.metric("db.insert_ms").expect("reported") > 0.0);
        // Kernels are not part of these workloads: the probe measures them.
        assert!(report.metric("join.HJ.cl_writes").expect("reported") > 0.0);
        let trace = std::fs::read_to_string(cfg.dir.join(format!(
            "trace-{}-seed{}.json",
            workload.name(),
            cfg.seed
        )))
        .expect("trace written");
        assert!(trace.starts_with("{\"traceEvents\":["));
        for span in [
            "\"parse\"",
            "\"bind\"",
            "\"plan\"",
            "\"execute\"",
            "\"deliver\"",
        ] {
            assert!(trace.contains(span), "{span} missing from the trace");
        }
        for span in ["\"insert_keys\"", "\"checkpoint\"", "\"reopen\""] {
            assert!(trace.contains(span), "{span} missing from the trace");
        }
        assert!(trace.contains("\"otherData\":{\"workload\":"));
        assert!(trace.contains("\"nproc\":"));
    }
}

#[test]
fn simulated_traffic_repeats_exactly_for_a_seed() {
    for workload in Workload::ALL {
        let sim = |tag: &str| {
            let report = run(&config(workload, tag, false)).expect("runs");
            ["sim_cl_writes", "sim_cl_reads", "sim_secs", "write_amp"]
                .map(|m| report.metric(m).expect("reported").to_bits())
        };
        assert_eq!(sim("again-a"), sim("again-b"), "{}", workload.name());
    }
}

#[test]
fn every_sql_round_repeats_the_first_rounds_whole_traffic() {
    for workload in [
        Workload::OlapMix,
        Workload::WideJoin,
        Workload::DurableIngest,
    ] {
        let cfg = Config {
            seconds: 0.3,
            ..config(workload, "rounds", false)
        };
        let report = run(&cfg).expect("runs");
        let rounds: u64 = report
            .header
            .iter()
            .find(|(k, _)| *k == "rounds")
            .and_then(|(_, v)| v.parse().ok())
            .expect("rounds in the header");
        assert!(rounds >= 3, "{}: {rounds} rounds", workload.name());
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.checks.failures
        );
    }
}

#[test]
fn kernel_traffic_does_not_depend_on_the_degree_of_parallelism() {
    let at = |threads: usize| {
        let cfg = Config {
            threads,
            ..config(Workload::PaperKernels, &format!("dop{threads}"), false)
        };
        let report = run(&cfg).expect("runs");
        assert!(report.correct(), "{:?}", report.checks.failures);
        report.metric("sim_cl_writes").expect("reported")
    };
    assert_eq!(at(1), at(2));
}

#[test]
fn the_header_names_host_cores_and_flush_policy() {
    let report = run(&config(Workload::DurableIngest, "header", false)).expect("runs");
    let human = report.human();
    let first = human.lines().next().expect("header line");
    for key in [
        "workload=durable-ingest",
        "host=",
        "nproc=",
        "dop=",
        "fs=",
        "flush=",
    ] {
        assert!(first.contains(key), "{first}");
    }
    assert!(human.contains("query_tail_ms"));
    assert!(
        human.contains("(p"),
        "the tail names its percentile: {human}"
    );
}

#[test]
fn benchmark_json_declares_every_reported_metric_with_its_unit() {
    let declared = include_str!("../../BENCHMARK.json");
    let report = run(&config(Workload::WideJoin, "declared", true)).expect("runs");
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(declared.contains(&format!("{{\"name\": \"{}\", \"why\":", workload.name())));
    }
}
