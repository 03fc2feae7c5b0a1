//! The tm-birthday stack benchmark: open-loop KV latency and capacity,
//! contended engine throughput, and per-layer attribution down to the
//! ownership table and Eq. 8. See `README.md` for the workloads and the
//! layer-to-metric map.

pub mod contended;
pub mod kv;
pub mod layers;
pub mod openloop;
pub mod report;
pub mod timed;

use report::Outcome;

/// Set-ups per batch. An untraced run times one batch before its measured
/// phases and one after them, and `setup_s` is the median of both. One
/// set-up takes 0.1-0.3 ms, so a batch lasts well under a second; the
/// host's speed drifts over seconds, and two batches a run apart sample
/// more of that drift than one.
pub const SETUP_REPS: usize = 200;

/// Time `SETUP_REPS` calls of `setup`, appending each time in seconds to
/// `times`. `teardown` disposes of each result outside the timing.
pub fn time_setups<T>(
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) {
    for _ in 0..SETUP_REPS {
        let t0 = std::time::Instant::now();
        let made = setup();
        times.push(t0.elapsed().as_secs_f64());
        teardown(made);
    }
}

/// Seed of one phase of a run.
pub fn mix_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ phase.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// End-to-end metrics every untraced run reports, `(name, unit)` in output
/// order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_us", "us"),
    ("max_rate_ops_s", "1/s"),
];

/// Per-layer metrics every traced run reports, `(name, unit)` in output
/// order. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("client.lateness_p50_us", "us"),
    ("client.lateness_p99_us", "us"),
    ("client.read_p50_us", "us"),
    ("client.read_p99_us", "us"),
    ("client.write_p50_us", "us"),
    ("client.write_p99_us", "us"),
    ("client.read_n", "count"),
    ("client.write_n", "count"),
    ("client.backlog_max", "count"),
    ("client.failed_frac", "ratio"),
    ("protocol.req_codec_ns", "ns"),
    ("protocol.resp_codec_ns", "ns"),
    ("protocol.req_bytes", "bytes"),
    ("protocol.resp_bytes", "bytes"),
    ("transport.send_ns_p50", "ns"),
    ("transport.recv_ns_p50", "ns"),
    ("server.residual_read_us", "us"),
    ("server.requests", "count"),
    ("server.reads", "count"),
    ("batch.coalescing", "ops/group"),
    ("batch.group_keys_mean", "keys"),
    ("batch.groups_per_s", "1/s"),
    ("batch.wait_us", "us"),
    ("backpressure.busy_frac", "ratio"),
    ("backpressure.budget_min", "keys"),
    ("backpressure.inflight_p50", "keys"),
    ("engine.run_us_p50", "us"),
    ("engine.run_us_p99", "us"),
    ("engine.attempts_per_run", "count"),
    ("engine.aborts_per_commit", "ratio"),
    ("engine.stall_retries_per_commit", "ratio"),
    ("engine.read_ns_p50", "ns"),
    ("engine.read_retries_per_read", "ratio"),
    ("engine.busy_frac", "ratio"),
    ("shard.cross_shard_frac", "ratio"),
    ("ownership.write_footprint", "blocks"),
    ("ownership.alpha", "ratio"),
    ("ownership.entries", "count"),
    ("ownership.false_conflicts_per_commit", "ratio"),
    ("ownership.acquire_release_ns.tagless", "ns"),
    ("ownership.acquire_release_ns.tagged", "ns"),
    ("model.eq8_predicted", "ratio"),
    ("model.eq8_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Workloads `BENCHMARK.json` lists, in its order.
pub const GATED: [&str; 2] = ["kv-write-skewed", "engine-contended-eager-tagged"];

/// Workloads the command runs but `BENCHMARK.json` does not list: their
/// end-to-end figures swing more between identical runs on the reference
/// host than the largest bound allows. kv-read-mostly's read latency is
/// bound by thread wake-ups, which slow down 2-4x for minutes at a time
/// on a shared host (latency spread 0.22 and 0.32 over ten runs in two
/// sets); engine-contended-eager-tagless throughput spread 0.37 of its
/// median over ten runs in one set, 0.25 over five in another;
/// engine-contended-lazy-tl2 is bimodal, about 420 k or 550 k txn/s,
/// 0.22-0.26.
pub const UNGATED: [&str; 3] = [
    "kv-read-mostly",
    "engine-contended-eager-tagless",
    "engine-contended-lazy-tl2",
];

/// Every workload: [`GATED`], then [`UNGATED`].
pub fn workloads() -> Vec<String> {
    GATED
        .iter()
        .chain(&UNGATED)
        .map(|s| s.to_string())
        .collect()
}

/// Run one workload. `None` if the name is unknown.
pub fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool) -> Option<Outcome> {
    let mut out = match name {
        "kv-read-mostly" => kv::run(&kv::KvSpec::read_mostly(), seed, seconds, trace),
        "kv-write-skewed" => kv::run(&kv::KvSpec::write_skewed(), seed, seconds, trace),
        _ => {
            let engine = contended::Engine::ALL
                .into_iter()
                .find(|e| e.workload() == name)?;
            contended::run(engine, seed, seconds, trace)
        }
    };
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    // Layers the workload does not exercise report 0, so every run of
    // every workload carries the same metric set.
    let mut ordered = Vec::with_capacity(expected.len());
    let mut idle = Vec::new();
    for &(name, unit) in expected {
        let metric = match out.metrics.iter().position(|m| m.name == name) {
            Some(i) => out.metrics.swap_remove(i),
            None => {
                idle.push(name);
                report::Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                }
            }
        };
        assert_eq!(metric.unit, unit, "unit of {name}");
        ordered.push(metric);
    }
    assert!(
        out.metrics.is_empty(),
        "metrics missing from the published list: {:?}",
        out.metrics.iter().map(|m| &m.name).collect::<Vec<_>>()
    );
    out.metrics = ordered;
    if !idle.is_empty() {
        out.note("idle_layers", idle.join(" "));
    }
    Some(out)
}
