//! Tests of the benchmark's own instruments: the engine timing wrapper,
//! the open-loop generator's coordinated-omission guard, the Eq. 8 metric,
//! and the published metric list.

use std::sync::Arc;
use std::time::Duration;

use perfbench::contended::Engine;
use perfbench::layers::eq8_predicted;
use perfbench::openloop::{drive, schedule, DriveConfig, DriveResult, Kind, Mix, Sample};
use perfbench::timed::Timed;
use perfbench::{run_workload, workloads, END_TO_END, PER_LAYER, UNGATED};
use tm_harness::{run_synthetic_phase, AccessPattern, Phase, Scenario};
use tm_shard::ShardedStmBuilder;
use tm_stm::{StmBuilder, TmEngine};

const HEAP_WORDS: usize = 4096;

fn heap_words<E: TmEngine>(engine: &E) -> Vec<u64> {
    (0..HEAP_WORDS as u64)
        .map(|w| engine.heap().load(w * 8))
        .collect()
}

/// Drive the same deterministic single-thread phase through the bare and
/// the wrapped engine: statistics and heap must match exactly, and the
/// wrapper must have seen every transaction. Body invocations equal
/// attempts, except that a sharded engine re-runs a body that reached a
/// second shard in cross-shard mode without counting an abort.
fn wrapper_is_transparent<E: TmEngine>(sharded: bool, build: impl Fn() -> E) {
    let spec = Scenario::uniform_mixed()
        .with_read_fraction(20)
        .and_then(|s| s.synthetic_spec())
        .expect("uniform-mixed is synthetic");
    let phase = Phase::Txns(3000);
    let bare = build();
    run_synthetic_phase(&bare, &spec, HEAP_WORDS, 1, phase, 42);
    let timed = Timed::new(build());
    run_synthetic_phase(&timed, &spec, HEAP_WORDS, 1, phase, 42);

    let stats = bare.engine_stats();
    assert_eq!(timed.engine_stats(), stats);
    assert_eq!(heap_words(&timed), heap_words(&bare));
    let (run, read) = (timed.run.snapshot(), timed.read.snapshot());
    assert_eq!(run.calls, stats.commits);
    assert_eq!(read.calls, stats.read_only_commits);
    assert_eq!(run.calls + read.calls, 3000);
    if sharded {
        assert!(run.attempts > stats.commits + stats.aborts);
    } else {
        assert_eq!(run.attempts, stats.commits + stats.aborts);
    }
    assert!(read.attempts >= read.calls);
}

fn builder() -> StmBuilder {
    // A small table so the phase exercises aliasing in the grant log.
    StmBuilder::new().heap_words(HEAP_WORDS).table_entries(64)
}

#[test]
fn timing_wrapper_is_transparent_on_eager_tagless() {
    wrapper_is_transparent(false, || builder().build_tagless());
}

#[test]
fn timing_wrapper_is_transparent_on_eager_tagged() {
    wrapper_is_transparent(false, || builder().build_tagged());
}

#[test]
fn timing_wrapper_is_transparent_on_lazy_tl2() {
    wrapper_is_transparent(false, || builder().build_lazy());
}

#[test]
fn timing_wrapper_is_transparent_on_sharded_s2() {
    wrapper_is_transparent(true, || builder().shards(2).build_sharded_tagless());
}

/// A generator that stalls for 5 ms must charge the stall to every request
/// that fell due during it: latency is timed from the due time, so those
/// requests' latencies reach at least to the end of the stall.
#[test]
fn generator_stall_is_charged_to_requests_due_during_it() {
    let engine = Arc::new(
        StmBuilder::new()
            .heap_words(1024)
            .table_entries(1024)
            .build_tagless(),
    );
    let mut config = tm_server::ServerConfig::new(1024);
    config.shards = 2;
    let server = tm_server::start(Arc::clone(&engine), config);
    let mut conns: Vec<_> = (0..2).map(|_| server.connect()).collect();
    let mix = Mix {
        read_pct: 50,
        keys_per_op: 4,
        pattern: AccessPattern::Uniform,
        key_universe: 1024,
    };
    let ops = schedule(&mix, 4000.0, Duration::from_millis(100), 2, 7);
    let (stall_at, stall_len) = (30_000_000u64, 5_000_000u64);
    let cfg = DriveConfig {
        keys_per_op: 4,
        stall: Some((
            Duration::from_nanos(stall_at),
            Duration::from_nanos(stall_len),
        )),
        trace: false,
        retry_busy: false,
    };
    let r = drive(&mut conns, ops, &cfg, &mut || {});
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.unanswered, 0);
    let stalled: Vec<_> = r
        .samples
        .iter()
        .filter(|s| s.due_ns >= stall_at && s.due_ns < stall_at + stall_len)
        .collect();
    assert!(
        stalled.len() >= 5,
        "only {} requests fell due in the stall",
        stalled.len()
    );
    for s in &stalled {
        let latency = s.latency_ns().expect("answered");
        assert!(
            s.sent_ns >= stall_at + stall_len,
            "sent during the stall: {s:?}"
        );
        assert!(
            latency >= stall_at + stall_len - s.due_ns,
            "stall not charged: latency {latency} ns for a request due at {} ns",
            s.due_ns
        );
    }
    // The oldest stalled request carries (almost) the whole stall.
    let worst = stalled.iter().filter_map(|s| s.latency_ns()).max().unwrap();
    assert!(worst >= 4_000_000, "worst stalled latency {worst} ns");
    drop(conns);
    server.shutdown();
}

/// Against a server whose admission budget holds eight requests, a burst of
/// writes is shed. A generator that resends `Busy` answers gets every write
/// applied exactly once and fails none; one that does not fails the shed
/// requests.
#[test]
fn busy_answers_are_resent_until_admitted() {
    let mix = Mix {
        read_pct: 0,
        keys_per_op: 4,
        pattern: AccessPattern::Uniform,
        key_universe: 1024,
    };
    for retry_busy in [true, false] {
        let engine = Arc::new(
            StmBuilder::new()
                .heap_words(1024)
                .table_entries(1024)
                .build_tagless(),
        );
        let mut config = tm_server::ServerConfig::new(1024);
        config.shards = 2;
        config.batch = tm_server::BatchPolicy::grouped();
        config.admission = tm_server::AdmissionPolicy {
            base_inflight: 32,
            min_inflight: 32,
            slope: 0.0,
        };
        let server = tm_server::start(Arc::clone(&engine), config);
        let mut conns: Vec<_> = (0..2).map(|_| server.connect()).collect();
        let ops = schedule(&mix, 50_000.0, Duration::from_millis(20), 2, 9);
        let n = ops.len() as u64;
        let cfg = DriveConfig {
            keys_per_op: 4,
            stall: None,
            trace: false,
            retry_busy,
        };
        let r = drive(&mut conns, ops, &cfg, &mut || {});
        drop(conns);
        server.shutdown();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.busy > 0, "the burst was never shed");
        assert_eq!(r.unanswered + r.errors, 0);
        assert_eq!(engine.heap_sum(1024), r.acked_increments);
        if retry_busy {
            assert_eq!(r.failed(), 0);
            assert_eq!(r.acked_increments, 4 * n);
            assert!(r.samples.iter().all(|s| s.ok));
        } else {
            assert_eq!(r.failed(), r.shed);
            assert_eq!(r.shed, r.busy);
            assert_eq!(r.acked_increments, 4 * (n - r.shed));
        }
    }
}

/// Each slice's p50 comes from the successful answers due in that slice.
#[test]
fn slice_p50s_group_answers_by_due_time() {
    let sample = |due_ms: u64, latency_us: u64, ok: bool| Sample {
        kind: Kind::Read,
        due_ns: due_ms * 1_000_000,
        sent_ns: due_ms * 1_000_000,
        done_ns: due_ms * 1_000_000 + latency_us * 1_000,
        ok,
    };
    let r = DriveResult {
        samples: vec![
            sample(0, 10, true),
            sample(500, 30, true),
            sample(900, 20, true),
            sample(1200, 99, false),
            sample(1500, 40, true),
            sample(2100, 5, true),
        ],
        ..DriveResult::default()
    };
    assert_eq!(
        r.slice_p50s(Duration::from_secs(1)),
        vec![20_000, 40_000, 5_000]
    );
}

#[test]
fn schedules_are_a_function_of_the_seed() {
    let mix = Mix {
        read_pct: 90,
        keys_per_op: 4,
        pattern: AccessPattern::Zipf { exponent: 0.99 },
        key_universe: 1 << 16,
    };
    let a = schedule(&mix, 10_000.0, Duration::from_millis(50), 2, 1);
    let b = schedule(&mix, 10_000.0, Duration::from_millis(50), 2, 1);
    let c = schedule(&mix, 10_000.0, Duration::from_millis(50), 2, 2);
    let key = |ops: &[perfbench::openloop::Op]| {
        ops.iter()
            .map(|o| (o.due_ns, o.session, o.kind == Kind::Read, o.request.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
    assert_ne!(key(&a), key(&c));
}

/// Eq. 8 at a hand-checked point: C(C-1)(1+2α)W²/(2N) with C=2, W=4, N=1024
/// is 2·1·1·16/2048 = 1/64 at α=0 and 5/64 at α=2.
#[test]
fn eq8_metric_matches_the_model() {
    assert_eq!(eq8_predicted(2, 4.0, 0.0, 1024), 1.0 / 64.0);
    assert_eq!(eq8_predicted(2, 4.0, 2.0, 1024), 5.0 / 64.0);
    assert_eq!(
        eq8_predicted(4, 7.6, 0.5, 16384),
        tm_model::lockstep::conflict_likelihood(4, 8, 0.5, 16384)
    );
}

fn metric(out: &perfbench::report::Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// Tagged tables cannot alias, so the traced engine-contended run on
/// eager-tagged must report exactly zero false conflicts.
#[test]
fn tagged_engine_reports_no_false_conflicts() {
    let out = run_workload(&Engine::EagerTagged.workload(), 3, 1, true).expect("known workload");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(metric(&out, "ownership.false_conflicts_per_commit"), 0.0);
    assert_eq!(metric(&out, "model.eq8_ratio"), 0.0);
    assert!(metric(&out, "model.eq8_predicted") > 0.0);
    assert_eq!(metric(&out, "ownership.entries"), 1024.0);
}

/// Every run reports exactly the published metric list, and that list and
/// the gated workloads are the ones in BENCHMARK.json.
#[test]
fn runs_report_exactly_the_published_metrics() {
    for trace in [false, true] {
        let out = run_workload("engine-contended-lazy-tl2", 1, 1, trace).expect("known workload");
        let names: Vec<(&str, &str)> = out
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        assert_eq!(names, expected);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        workloads().len() - UNGATED.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for name in &workloads() {
        let entry = format!("\"name\": \"{name}\"");
        assert_eq!(
            json.contains(&entry),
            !UNGATED.contains(&name.as_str()),
            "{name}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} not in BENCHMARK.json");
    }
}
