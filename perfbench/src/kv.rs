//! The two KV workloads: an open loop of framed requests against a
//! `tm-server` instance over the in-process channel transport.
//!
//! An untraced run measures set-up time, latency at a fixed offered rate,
//! and the highest sustainable rate on a rate ladder. A traced run repeats
//! the fixed-rate phase once bare and once with every layer instrumented,
//! and attributes the latency to the layers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_harness::AccessPattern;
use tm_server::{
    start, BatchPolicy, ChannelConn, RequestFrame, ResponseFrame, ServerConfig, ServerHandle,
    ServerStatsSnapshot,
};
use tm_shard::ShardedStmBuilder;
use tm_stm::{StmBuilder, TmEngine};

use crate::layers::{acquire_release_ns, engine_layers, EngineLayers, EngineView, Footprint};
use crate::openloop::{
    drive, latency_summary, percentile, schedule, DriveConfig, DriveResult, Kind, Mix, Op,
};
use crate::report::{median, Outcome};
use crate::timed::{ratio, Timed};
use crate::{mix_seed, time_setups};

/// Keys the store exposes (and heap words).
pub const KEY_UNIVERSE: u64 = 1 << 16;
/// Ownership-table entries (total across shards).
pub const TABLE_ENTRIES: usize = 1 << 14;
/// Server shard threads.
pub const SERVER_SHARDS: u32 = 2;
/// Client sessions, all driven by one generator thread.
pub const SESSIONS: usize = 2;
/// Open-loop phase before each measured phase, not measured.
const WARMUP: Duration = Duration::from_millis(300);
/// Share of the run budget the rate ladder may use.
const LADDER_SHARE: f64 = 0.65;
/// Length of one rate-ladder rung.
const RUNG: Duration = Duration::from_millis(400);
/// Idle time after a failed rung, so the next rung starts from a quiet box.
const RECOVERY: Duration = Duration::from_millis(200);
/// Ratio between neighbouring rates of the ladder.
const STAIR: f64 = 1.090_507_732_665_257_7; // 2^(1/8)
/// Most rungs the up-down staircase runs after the climb; the ladder's
/// share of the run budget usually ends it first.
const STAIRCASE_STEPS: usize = 64;
/// Tries a climb rate gets before it counts as failed.
const TRIES: usize = 3;
/// A rung passes only if its p99 latency (from due time) stays under this.
/// Low-load p99 on a shared 2-vCPU VM reaches 5 ms (write-skewed, batching)
/// and host stalls of 20-50 ms recur every few seconds in busy phases; a
/// rung 12% over capacity builds a 50 ms backlog within its 400 ms.
const P99_LIMIT: Duration = Duration::from_millis(50);
/// A rung keeps up if this share of its requests is answered within the
/// p99 limit after the rung's last request was due.
const KEEP_UP: f64 = 0.99;
/// A rung may fail at most this share of its requests.
const MAX_FAILED: f64 = 0.01;
/// `latency_us` is the median over slices of this length of each slice's
/// p50. On a shared VM the host slows down for a second or two at a time
/// (one run's slice p50s read 25, 27, 20, 20, 19, 21, 21 us); the median
/// slice is one such a slow spell missed, where the p50 of the whole
/// phase would carry part of it.
const SLICE: Duration = Duration::from_secs(1);

/// The fixed-rate latency: median over [`SLICE`]s of their p50, in ns.
fn sliced_p50(r: &DriveResult) -> f64 {
    let p50s: Vec<f64> = r.slice_p50s(SLICE).iter().map(|&v| v as f64).collect();
    median(&p50s)
}

/// One KV workload's definition.
#[derive(Clone, Debug)]
pub struct KvSpec {
    /// Request mix.
    pub mix: Mix,
    /// The fixed offered rate (requests/s) the latency metric is taken at,
    /// and the rate ladder's first rung.
    pub fixed_rate: f64,
    /// Whether the engine is `ShardedStm` (S = 2) instead of one table.
    pub sharded: bool,
}

/// Both KV workloads' server: 2 shards (the engine's writer concurrency
/// `C`), grouped commit and default admission.
fn server_config() -> ServerConfig {
    let mut server = ServerConfig::new(KEY_UNIVERSE);
    server.shards = SERVER_SHARDS;
    server.batch = BatchPolicy::grouped();
    server
}

impl KvSpec {
    /// 90% `MultiGet` / 10% `MultiAdd` of 4 uniform keys on eager-tagless,
    /// grouped commit, 2 server shards.
    pub fn read_mostly() -> Self {
        Self {
            mix: Mix {
                read_pct: 90,
                keys_per_op: 4,
                pattern: AccessPattern::Uniform,
                key_universe: KEY_UNIVERSE,
            },
            fixed_rate: 40_000.0,
            sharded: false,
        }
    }

    /// 100% `MultiAdd` of 4 Zipf(0.99) keys on `ShardedStm` (S = 2), default
    /// batch and admission policies, 2 server shards.
    pub fn write_skewed() -> Self {
        Self {
            mix: Mix {
                read_pct: 0,
                keys_per_op: 4,
                pattern: AccessPattern::Zipf { exponent: 0.99 },
                key_universe: KEY_UNIVERSE,
            },
            fixed_rate: 20_000.0,
            sharded: true,
        }
    }

    fn builder(&self, classify: bool) -> StmBuilder {
        StmBuilder::new()
            .heap_words(KEY_UNIVERSE as usize)
            .table_entries(TABLE_ENTRIES)
            .classify_conflicts(classify)
    }

    /// Ladder rungs take a `Busy` answer as final, so shedding counts
    /// against the rung; every other phase resends it, so a host stall
    /// that fills the admission budget costs latency, not requests.
    fn drive_config(&self, trace: bool, retry_busy: bool) -> DriveConfig {
        DriveConfig {
            keys_per_op: self.mix.keys_per_op,
            stall: None,
            trace,
            retry_busy,
        }
    }

    fn ops(&self, rate: f64, length: Duration, seed: u64, phase: u64) -> Vec<Op> {
        schedule(&self.mix, rate, length, SESSIONS, mix_seed(seed, phase))
    }
}

/// A started server, its engine, and the client sessions.
struct Rig<E: TmEngine + Send + Sync + 'static> {
    engine: Arc<E>,
    server: ServerHandle,
    conns: Vec<ChannelConn>,
}

impl<E: TmEngine + Send + Sync + 'static> Rig<E> {
    fn start(engine: E, config: &ServerConfig) -> Self {
        let engine = Arc::new(engine);
        let server = start(Arc::clone(&engine), config.clone());
        let conns = (0..SESSIONS).map(|_| server.connect()).collect();
        Self {
            engine,
            server,
            conns,
        }
    }

    fn drive(&mut self, ops: Vec<Op>, cfg: &DriveConfig, ledger: &mut Ledger) -> DriveResult {
        let r = drive(&mut self.conns, ops, cfg, &mut || {});
        ledger.add(&r);
        r
    }

    /// Shut down and check conservation: the heap holds exactly the
    /// acknowledged increments, and nothing was left unanswered.
    fn finish(self, ledger: &Ledger, out: &mut Outcome) -> ServerStatsSnapshot {
        drop(self.conns);
        let stats = self.server.shutdown();
        let heap = self.engine.heap_sum(KEY_UNIVERSE as usize);
        out.check(heap == ledger.acked, || {
            format!(
                "heap sum {heap} != acknowledged increments {}",
                ledger.acked
            )
        });
        out.check(ledger.unanswered == 0, || {
            format!("{} requests unanswered after the drain", ledger.unanswered)
        });
        out.check(stats.audit_failures == 0, || {
            format!("server reported {} audit failures", stats.audit_failures)
        });
        out.violations.extend(ledger.violations.iter().cloned());
        stats
    }
}

/// What every drive against one server added up to.
#[derive(Default)]
struct Ledger {
    acked: u64,
    unanswered: u64,
    violations: Vec<String>,
}

impl Ledger {
    fn add(&mut self, r: &DriveResult) {
        self.acked += r.acked_increments;
        self.unanswered += r.unanswered;
        self.violations.extend(r.violations.iter().cloned());
    }
}

/// Run one KV workload; `trace` selects the per-layer run.
pub fn run(spec: &KvSpec, seed: u64, seconds: u64, trace: bool) -> Outcome {
    match (spec.sharded, trace) {
        (false, false) => untraced(spec, seed, seconds, || spec.builder(false).build_tagless()),
        (true, false) => untraced(spec, seed, seconds, || {
            spec.builder(false).shards(2).build_sharded_tagless()
        }),
        (false, true) => traced(
            spec,
            seed,
            seconds,
            || spec.builder(false).build_tagless(),
            || spec.builder(true).build_tagless(),
        ),
        (true, true) => traced(
            spec,
            seed,
            seconds,
            || spec.builder(false).shards(2).build_sharded_tagless(),
            || spec.builder(true).shards(2).build_sharded_tagless(),
        ),
    }
}

fn note_spec(spec: &KvSpec, out: &mut Outcome) {
    out.note("fixed_rate_ops_s", spec.fixed_rate);
    out.note(
        "ladder",
        format!(
            "climb x2^(1/2) from {} ops/s ({TRIES} tries), then {STAIRCASE_STEPS} staircase \
             rungs of x2^(1/8); {} ms rungs, p99 limit {} us",
            spec.fixed_rate,
            RUNG.as_millis(),
            P99_LIMIT.as_micros()
        ),
    );
    out.note(
        "mix",
        format!(
            "{}% MultiGet, {} keys/op, {:?} over {} keys, {} sessions",
            spec.mix.read_pct, spec.mix.keys_per_op, spec.mix.pattern, KEY_UNIVERSE, SESSIONS
        ),
    );
    out.note(
        "server",
        format!(
            "{} engine, {} table entries, {} shards, {:?}, {:?}",
            if spec.sharded {
                "sharded S=2 tagless"
            } else {
                "eager-tagless"
            },
            TABLE_ENTRIES,
            SERVER_SHARDS,
            server_config().batch,
            server_config().admission
        ),
    );
}

fn untraced<E: EngineLayers>(
    spec: &KvSpec,
    seed: u64,
    seconds: u64,
    build: impl Fn() -> E,
) -> Outcome {
    let mut out = Outcome::default();
    note_spec(spec, &mut out);
    let budget = Duration::from_secs(seconds);

    let mut setups = Vec::new();
    let mut setup_batch = |out: &mut Outcome| {
        time_setups(
            &mut setups,
            || Rig::start(build(), &server_config()),
            |rig| {
                rig.finish(&Ledger::default(), out);
            },
        )
    };
    setup_batch(&mut out);
    let mut rig = Rig::start(build(), &server_config());
    let mut ledger = Ledger::default();
    let cfg = spec.drive_config(false, true);
    let run_start = Instant::now();

    // The ladder first, then the fixed-rate phase for the rest of the
    // budget, each after its own warm-up.
    rig.drive(
        spec.ops(spec.fixed_rate, WARMUP, seed, 0),
        &cfg,
        &mut ledger,
    );
    let ladder_end = run_start + budget.mul_f64(LADDER_SHARE);
    let max_rate = ladder(spec, seed, &mut rig, &mut ledger, ladder_end, &mut out);
    rig.drive(
        spec.ops(spec.fixed_rate, WARMUP, seed, 2),
        &cfg,
        &mut ledger,
    );
    let fixed_len = (run_start + budget)
        .saturating_duration_since(Instant::now())
        .max(budget.mul_f64(1.0 - LADDER_SHARE));
    let fixed = rig.drive(
        spec.ops(spec.fixed_rate, fixed_len, seed, 1),
        &cfg,
        &mut ledger,
    );
    rig.finish(&ledger, &mut out);
    setup_batch(&mut out);
    out.attempted += fixed.samples.len() as u64;
    out.failed += fixed.failed();

    let mut all = fixed.latencies(None);
    out.note("fixed.seconds", fixed_len.as_secs_f64());
    out.note("fixed.all", latency_summary(&mut all));
    out.note(
        "fixed.slice_p50s_us",
        fixed
            .slice_p50s(SLICE)
            .iter()
            .map(|&v| format!("{:.1}", v as f64 / 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.note(
        "fixed.reads",
        latency_summary(&mut fixed.latencies(Some(Kind::Read))),
    );
    out.note(
        "fixed.writes",
        latency_summary(&mut fixed.latencies(Some(Kind::Write))),
    );
    out.note("fixed.lateness", latency_summary(&mut fixed.lateness()));
    out.note(
        "fixed.failed_frac",
        ratio(fixed.failed(), fixed.samples.len() as u64),
    );

    out.metric("setup_s", median(&setups), "s");
    out.metric("latency_us", sliced_p50(&fixed) / 1e3, "us");
    out.metric("max_rate_ops_s", max_rate, "1/s");
    out
}

/// A rung's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Pass,
    /// The server missed a condition while the generator kept to schedule.
    Fail,
    /// The generator alone ran later than the p99 limit: the rung did not
    /// offer its rate, so it says nothing about the server.
    GeneratorLimited,
}

fn try_rung<E: EngineLayers>(
    spec: &KvSpec,
    rate: f64,
    seed: u64,
    phase: u64,
    rig: &mut Rig<E>,
    ledger: &mut Ledger,
    out: &mut Outcome,
) -> Verdict {
    let ops = spec.ops(rate, RUNG, seed, phase);
    let offered = ops.len() as u64;
    let end_ns = (RUNG + P99_LIMIT).as_nanos() as u64;
    let r = rig.drive(ops, &spec.drive_config(false, false), ledger);
    // A failed request misses any latency limit.
    let mut lat: Vec<u64> = r
        .samples
        .iter()
        .map(|s| {
            if s.ok {
                s.done_ns.saturating_sub(s.due_ns)
            } else {
                u64::MAX
            }
        })
        .collect();
    let p99 = percentile(&mut lat, 0.99);
    let mut lateness = r.lateness();
    let late_p50 = percentile(&mut lateness, 0.5);
    let late_p99 = percentile(&mut lateness, 0.99);
    let in_time = r
        .samples
        .iter()
        .filter(|s| s.ok && s.done_ns <= end_ns)
        .count() as u64;
    let limit = P99_LIMIT.as_nanos() as u64;
    let verdict = if p99 <= limit
        && ratio(in_time, offered) >= KEEP_UP
        && ratio(r.failed(), offered) <= MAX_FAILED
    {
        Verdict::Pass
    } else if late_p99 > limit {
        Verdict::GeneratorLimited
    } else {
        Verdict::Fail
    };
    out.note(
        format!("rung.{phase}"),
        format!(
            "{rate:.0} ops/s: p99 {} us, lateness p50 {:.1} us p99 {:.0} us, in time {:.4}, \
             failed {:.4} -> {}",
            if p99 == u64::MAX {
                "failed".to_string()
            } else {
                format!("{:.0}", p99 as f64 / 1e3)
            },
            late_p50 as f64 / 1e3,
            late_p99 as f64 / 1e3,
            ratio(in_time, offered),
            ratio(r.failed(), offered),
            match verdict {
                Verdict::Pass => "pass",
                Verdict::Fail => "fail",
                Verdict::GeneratorLimited => "fail (generator-limited)",
            }
        ),
    );
    verdict
}

/// Find the highest rate on the ladder `fixed_rate · 2^(k/8)` that
/// meets the rung conditions. A climb multiplies the rate by √2 until a
/// rate fails every one of its tries, bracketing the capacity within a
/// factor of √2 (so no rung offers more than √2 times the capacity); an
/// up-down staircase then steps one ladder rate (2^(1/8)) up after each
/// passing rung and one down after each failing one, starting mid-bracket.
/// The staircase settles around the rate that passes half the time; the
/// result is the geometric mean of the rates it visited from its first
/// reversal on. One verdict near the boundary is a coin toss on a shared
/// VM, so an average over many beats a bisection, where one wrong early
/// verdict moves the answer by up to 41%.
fn ladder<E: EngineLayers>(
    spec: &KvSpec,
    seed: u64,
    rig: &mut Rig<E>,
    ledger: &mut Ledger,
    deadline: Instant,
    out: &mut Outcome,
) -> f64 {
    let mut phase = 10;
    // Failing staircase rungs, by who missed: (server, generator).
    let mut misses = (0usize, 0usize);
    let mut rung = |rate: f64, rig: &mut Rig<E>, ledger: &mut Ledger, out: &mut Outcome| {
        phase += 1;
        let verdict = try_rung(spec, rate, seed, phase, rig, ledger, out);
        if verdict != Verdict::Pass {
            std::thread::sleep(RECOVERY);
        }
        verdict
    };

    // A miss can be a host stall; a climb rate fails only if every try at
    // it fails.
    let mut passed = None;
    let mut rate = spec.fixed_rate;
    while Instant::now() < deadline {
        if !(0..TRIES).any(|_| rung(rate, rig, ledger, out) == Verdict::Pass) {
            break;
        }
        passed = Some(rate);
        rate *= STAIR.powi(4);
    }
    let Some(passed) = passed else {
        out.note("ladder.verdict", "the first rung failed");
        return 0.0;
    };

    let mut rate = passed * STAIR.powi(2);
    let mut previous = None;
    let mut visited = Vec::new();
    for _ in 0..STAIRCASE_STEPS {
        if Instant::now() >= deadline {
            break;
        }
        let verdict = rung(rate, rig, ledger, out);
        match verdict {
            Verdict::Pass => {}
            Verdict::Fail => misses.0 += 1,
            Verdict::GeneratorLimited => misses.1 += 1,
        }
        // A rate the generator could not offer counts as a miss: the
        // benchmark cannot show that the server takes it.
        let pass = verdict == Verdict::Pass;
        if !visited.is_empty() || previous.is_some_and(|p| p != pass) {
            visited.push(rate.ln());
        }
        previous = Some(pass);
        rate = if pass { rate * STAIR } else { rate / STAIR };
    }
    out.note("ladder.staircase_rungs", visited.len());
    out.note(
        "ladder.staircase_misses",
        format!("{} server, {} generator-limited", misses.0, misses.1),
    );
    out.note(
        "ladder.limit",
        if misses.1 > misses.0 {
            "generator"
        } else {
            "server"
        },
    );
    if visited.is_empty() {
        // Every rung went the same way: the capacity lies beyond the last
        // step taken, and the rate the staircase reached is the nearest
        // estimate (a lucky pass in the climb can start it too high).
        out.note("ladder.verdict", "the staircase never reversed");
        return rate;
    }
    (visited.iter().sum::<f64>() / visited.len() as f64).exp()
}

fn traced<E: EngineLayers, F: EngineLayers>(
    spec: &KvSpec,
    seed: u64,
    seconds: u64,
    bare: impl Fn() -> E,
    classified: impl Fn() -> F,
) -> Outcome {
    let mut out = Outcome::default();
    note_spec(spec, &mut out);
    let budget = Duration::from_secs(seconds);
    let phase_len = budget.mul_f64(0.4);

    // The same fixed-rate phase, bare: the reference for trace.overhead_pct.
    let mut rig = Rig::start(bare(), &server_config());
    let mut ledger = Ledger::default();
    let cfg = spec.drive_config(false, true);
    rig.drive(
        spec.ops(spec.fixed_rate, WARMUP, seed, 0),
        &cfg,
        &mut ledger,
    );
    let plain = rig.drive(
        spec.ops(spec.fixed_rate, phase_len, seed, 1),
        &cfg,
        &mut ledger,
    );
    rig.finish(&ledger, &mut out);
    let plain_p50 = sliced_p50(&plain);

    // Instrumented: timed engine, classified table, timed transport calls.
    let mut rig = Rig::start(Timed::new(classified()), &server_config());
    let mut ledger = Ledger::default();
    rig.drive(
        spec.ops(spec.fixed_rate, WARMUP, seed, 0),
        &cfg,
        &mut ledger,
    );
    rig.engine.reset();
    let ops = spec.ops(spec.fixed_rate, phase_len, seed, 1);
    let requests: Vec<RequestFrame> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| RequestFrame {
            id: i as u64 + 1,
            request: op.request.clone(),
        })
        .collect();
    let footprints: Vec<Footprint> = ops
        .iter()
        .filter(|op| op.kind == Kind::Write)
        .take(20_000)
        .map(|op| match &op.request {
            tm_server::Request::MultiAdd { keys, .. } => {
                keys.iter().map(|k| (k * 8, true)).collect()
            }
            _ => unreachable!("writes are MultiAdds"),
        })
        .collect();
    let stats0 = rig.server.stats();
    let engine0 = rig.engine.engine_stats();
    let false0 = rig.engine.false_conflicts();
    let cross0 = rig.engine.cross_shard_commits();
    let admission = rig.server.admission_handle();
    let mut budgets = Vec::new();
    let mut inflight = Vec::new();
    let t0 = Instant::now();
    let r = drive(
        &mut rig.conns,
        ops,
        &spec.drive_config(true, true),
        &mut || {
            budgets.push(admission.budget());
            inflight.push(admission.inflight());
        },
    );
    let elapsed = t0.elapsed().as_secs_f64();
    ledger.add(&r);
    let stats = rig.server.stats();
    let engine = rig.engine.engine_stats().since(&engine0);
    let false_conflicts = rig.engine.false_conflicts() - false0;
    let cross = rig.engine.cross_shard_commits() - cross0;
    let run = rig.engine.run.snapshot();
    let read = rig.engine.read.snapshot();
    let entries = rig.engine.entries();
    rig.finish(&ledger, &mut out);
    out.attempted += r.samples.len() as u64;
    out.failed += r.failed();

    let us = |ns: f64| ns / 1e3;
    let mut reads = r.latencies(Some(Kind::Read));
    let mut writes = r.latencies(Some(Kind::Write));
    let mut lateness = r.lateness();
    let read_p50 = percentile(&mut reads, 0.5) as f64;
    let write_p50 = percentile(&mut writes, 0.5) as f64;
    let traced_p50 = sliced_p50(&r);
    out.metric(
        "client.lateness_p50_us",
        us(percentile(&mut lateness, 0.5) as f64),
        "us",
    );
    out.metric(
        "client.lateness_p99_us",
        us(percentile(&mut lateness, 0.99) as f64),
        "us",
    );
    out.metric("client.read_p50_us", us(read_p50), "us");
    out.metric(
        "client.read_p99_us",
        us(percentile(&mut reads, 0.99) as f64),
        "us",
    );
    out.metric("client.write_p50_us", us(write_p50), "us");
    out.metric(
        "client.write_p99_us",
        us(percentile(&mut writes, 0.99) as f64),
        "us",
    );
    out.metric("client.read_n", reads.len() as f64, "count");
    out.metric("client.write_n", writes.len() as f64, "count");
    out.metric("client.backlog_max", r.backlog_max as f64, "count");
    out.metric(
        "client.failed_frac",
        ratio(r.failed(), r.samples.len() as u64),
        "ratio",
    );

    let (req_codec, req_bytes) = codec(&requests, RequestFrame::encode, |b| {
        RequestFrame::decode(b).is_ok()
    });
    let (resp_codec, resp_bytes) = codec(&r.responses, ResponseFrame::encode, |b| {
        ResponseFrame::decode(b).is_ok()
    });
    out.metric("protocol.req_codec_ns", req_codec, "ns");
    out.metric("protocol.resp_codec_ns", resp_codec, "ns");
    out.metric("protocol.req_bytes", req_bytes, "bytes");
    out.metric("protocol.resp_bytes", resp_bytes, "bytes");
    let send = percentile(&mut r.send_ns.clone(), 0.5) as f64;
    let recv = percentile(&mut r.recv_ns.clone(), 0.5) as f64;
    out.metric("transport.send_ns_p50", send, "ns");
    out.metric("transport.recv_ns_p50", recv, "ns");

    // The client-side calls already include one encode and one decode;
    // the server performs the other half of each codec round trip.
    let engine_read = read.ns_at(0.5);
    let engine_run = run.ns_at(0.5);
    let residual_read = if reads.is_empty() {
        0.0
    } else {
        read_p50 - engine_read - send - recv - (req_codec + resp_codec) / 2.0
    };
    out.metric("server.residual_read_us", us(residual_read), "us");
    out.metric(
        "server.requests",
        (stats.requests - stats0.requests) as f64,
        "count",
    );
    out.metric("server.reads", (stats.reads - stats0.reads) as f64, "count");

    let groups = stats.groups_committed - stats0.groups_committed;
    let ops_committed = stats.ops_committed - stats0.ops_committed;
    out.metric(
        "batch.coalescing",
        ratio(ops_committed, groups),
        "ops/group",
    );
    out.metric(
        "batch.group_keys_mean",
        ratio(ops_committed * u64::from(spec.mix.keys_per_op), groups),
        "keys",
    );
    out.metric("batch.groups_per_s", groups as f64 / elapsed, "1/s");
    let wait = if writes.is_empty() {
        0.0
    } else {
        write_p50 - engine_run - residual_read.max(0.0)
    };
    out.metric("batch.wait_us", us(wait), "us");

    let write_n = r.samples.iter().filter(|s| s.kind == Kind::Write).count() as u64;
    out.metric("backpressure.busy_frac", ratio(r.busy, write_n), "ratio");
    out.metric(
        "backpressure.budget_min",
        budgets.iter().copied().min().unwrap_or(0) as f64,
        "keys",
    );
    out.metric(
        "backpressure.inflight_p50",
        percentile(&mut inflight, 0.5) as f64,
        "keys",
    );

    engine_layers(
        &mut out,
        &EngineView {
            run: &run,
            read: &read,
            stats: &engine,
            elapsed,
            threads: SERVER_SHARDS,
            false_conflicts,
            cross,
            entries,
        },
    );
    let (tagless, tagged) = acquire_release_ns(&footprints, entries, 50_000_000);
    out.metric("ownership.acquire_release_ns.tagless", tagless, "ns");
    out.metric("ownership.acquire_release_ns.tagged", tagged, "ns");
    out.metric(
        "trace.overhead_pct",
        (traced_p50 - plain_p50) / plain_p50 * 100.0,
        "%",
    );
    out
}

/// Mean ns to encode and decode one recorded frame, and mean frame size.
fn codec<T>(
    frames: &[T],
    encode: impl Fn(&T) -> Vec<u8>,
    decode_ok: impl Fn(&[u8]) -> bool,
) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let mut bytes = 0usize;
    let t0 = Instant::now();
    for f in frames {
        let b = std::hint::black_box(encode(f));
        bytes += b.len();
        assert!(decode_ok(&b), "a recorded frame failed to round-trip");
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (ns / frames.len() as f64, bytes as f64 / frames.len() as f64)
}
