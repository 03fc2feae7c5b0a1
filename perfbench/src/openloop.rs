//! The open-loop request generator: a Poisson schedule fixed in advance
//! from the seed, and one thread that sends each request when it is due and
//! drains every session's responses.
//!
//! Latency is timed from the moment a request was *due*, not from when it
//! was sent, so a generator that falls behind (descheduled, stalled) charges
//! the delay to the requests that waited for it instead of silently issuing
//! fewer of them (coordinated omission).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_harness::{AccessPattern, BlockSampler};
use tm_server::{ChannelConn, Request, Response, ResponseFrame};

/// Which end-to-end latency a request counts toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `MultiGet`.
    Read,
    /// `MultiAdd`.
    Write,
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Op {
    /// When the request is due, in nanoseconds from the phase start.
    pub due_ns: u64,
    /// Index of the session that sends it.
    pub session: usize,
    /// Read or write.
    pub kind: Kind,
    /// The request itself.
    pub request: Request,
}

/// The request mix of a KV workload.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Percentage of requests that are `MultiGet`s; the rest are `MultiAdd`s.
    pub read_pct: u32,
    /// Distinct keys per request.
    pub keys_per_op: u32,
    /// Key popularity.
    pub pattern: AccessPattern,
    /// Keys the store exposes.
    pub key_universe: u64,
}

/// A Poisson schedule at `rate` requests/s lasting `duration`, spread
/// uniformly over `sessions` sessions. The same arguments give the same
/// schedule.
pub fn schedule(mix: &Mix, rate: f64, duration: Duration, sessions: usize, seed: u64) -> Vec<Op> {
    let sampler = BlockSampler::for_pattern(mix.pattern, mix.key_universe);
    let mut rng = StdRng::seed_from_u64(seed);
    let end = duration.as_nanos() as f64;
    let mut t = 0.0f64;
    let mut ops = Vec::with_capacity((rate * duration.as_secs_f64() * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= end {
            return ops;
        }
        let session = rng.gen_range(0..sessions);
        let kind = if rng.gen_range(0..100u32) < mix.read_pct {
            Kind::Read
        } else {
            Kind::Write
        };
        let mut keys = Vec::with_capacity(mix.keys_per_op as usize);
        while keys.len() < mix.keys_per_op as usize {
            let k = sampler.sample(&mut rng);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let request = match kind {
            Kind::Read => Request::MultiGet { keys },
            Kind::Write => Request::MultiAdd { keys, delta: 1 },
        };
        ops.push(Op {
            due_ns: t as u64,
            session,
            kind,
            request,
        });
    }
}

/// Longest wait for outstanding answers after the last request was due.
const DRAIN: Duration = Duration::from_secs(5);
/// Backoff before the first resend of a request answered `Busy`; it
/// doubles with each further resend up to [`RETRY_MAX`].
const RETRY_BASE: Duration = Duration::from_millis(1);
/// Longest backoff between resends.
const RETRY_MAX: Duration = Duration::from_millis(32);

/// How to drive one schedule.
#[derive(Clone, Debug)]
pub struct DriveConfig {
    /// Keys each request carries (every answer is checked against it).
    pub keys_per_op: u32,
    /// Stall the generator once: `(at, length)` from the phase start.
    /// Exists to test the coordinated-omission guard.
    pub stall: Option<(Duration, Duration)>,
    /// Time every `send`/`try_recv` call and keep every response frame
    /// (traced runs only).
    pub trace: bool,
    /// Resend a request answered `Busy` after a backoff, as a client of an
    /// admission-controlled server does, until it is admitted or the drain
    /// ends. Its latency still runs from the first due time. Off, a `Busy`
    /// answer is final and the request failed.
    pub retry_busy: bool,
}

/// What happened to one request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Read or write.
    pub kind: Kind,
    /// When it was due (ns from phase start).
    pub due_ns: u64,
    /// When it was sent.
    pub sent_ns: u64,
    /// When its answer arrived; `u64::MAX` if none did.
    pub done_ns: u64,
    /// Whether the answer was a success (not `Busy`/`Error`).
    pub ok: bool,
}

impl Sample {
    /// Due-to-answer latency in nanoseconds (`None` if unanswered).
    pub fn latency_ns(&self) -> Option<u64> {
        (self.done_ns != u64::MAX).then(|| self.done_ns.saturating_sub(self.due_ns))
    }
}

/// Outcome of driving one schedule.
#[derive(Debug, Default)]
pub struct DriveResult {
    /// One entry per scheduled request, in schedule order.
    pub samples: Vec<Sample>,
    /// `Busy` answers, resent ones included.
    pub busy: u64,
    /// Requests whose final answer was `Busy`.
    pub shed: u64,
    /// `Error` answers.
    pub errors: u64,
    /// Requests still unanswered when the generator gave up.
    pub unanswered: u64,
    /// Increments the server acknowledged (`MultiAdded.applied` × delta).
    pub acked_increments: u64,
    /// Most requests in flight at once.
    pub backlog_max: u64,
    /// Answers that break the protocol contract (wrong value count, wrong
    /// id, wrong response kind). Any entry fails the run.
    pub violations: Vec<String>,
    /// Per-call `ChannelConn::send` time (traced only).
    pub send_ns: Vec<u64>,
    /// Per-call `ChannelConn::try_recv` time for calls that returned a
    /// frame (traced only).
    pub recv_ns: Vec<u64>,
    /// Every response frame received (traced only).
    pub responses: Vec<ResponseFrame>,
}

impl DriveResult {
    /// Requests that failed: final `Busy`, `Error`, or unanswered.
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.unanswered
    }

    /// Successful-answer latencies of `kind` (of every kind for `None`), in
    /// nanoseconds.
    pub fn latencies(&self, kind: Option<Kind>) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.ok && kind.is_none_or(|k| s.kind == k))
            .filter_map(Sample::latency_ns)
            .collect()
    }

    /// p50 of the successful-answer latencies in each consecutive `slice`
    /// of due times, in nanoseconds, one entry per slice that has answers.
    pub fn slice_p50s(&self, slice: Duration) -> Vec<u64> {
        let slice_ns = slice.as_nanos().max(1) as u64;
        let mut slices: Vec<Vec<u64>> = Vec::new();
        for s in self.samples.iter().filter(|s| s.ok) {
            let Some(lat) = s.latency_ns() else { continue };
            let i = (s.due_ns / slice_ns) as usize;
            if slices.len() <= i {
                slices.resize_with(i + 1, Vec::new);
            }
            slices[i].push(lat);
        }
        slices
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| percentile(v, 0.5))
            .collect()
    }

    /// Send-minus-due lateness of every sent request, in nanoseconds.
    pub fn lateness(&self) -> Vec<u64> {
        self.samples
            .iter()
            .map(|s| s.sent_ns.saturating_sub(s.due_ns))
            .collect()
    }
}

fn since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Send `ops` on `conns` when each is due and collect every answer, until
/// all are answered or [`DRAIN`] has passed since the last was due.
/// `tick` runs about once a millisecond (traced runs sample gauges there).
pub fn drive(
    conns: &mut [ChannelConn],
    mut ops: Vec<Op>,
    cfg: &DriveConfig,
    tick: &mut dyn FnMut(),
) -> DriveResult {
    let n = ops.len();
    let mut out = DriveResult {
        samples: ops
            .iter()
            .map(|op| Sample {
                kind: op.kind,
                due_ns: op.due_ns,
                sent_ns: 0,
                done_ns: u64::MAX,
                ok: false,
            })
            .collect(),
        ..DriveResult::default()
    };
    let give_up = ops.last().map_or(0, |op| op.due_ns) + DRAIN.as_nanos() as u64;
    // Per session: (request id, schedule index, resends so far).
    let mut inflight: Vec<VecDeque<(u64, usize, u32)>> = vec![VecDeque::new(); conns.len()];
    // Requests not finally answered: in flight or waiting to be resent.
    let mut outstanding = 0u64;
    // Resends by due time: (resend at, schedule index, resends so far).
    let mut resends: BinaryHeap<Reverse<(u64, usize, u32)>> = BinaryHeap::new();
    let mut next = 0usize;
    let mut stall = cfg.stall;
    let mut next_tick = 0u64;
    let mut idle = 0u64;
    let start = Instant::now();
    loop {
        let mut progressed = false;
        let mut now = since(start);
        if let Some((at, len)) = stall {
            if now >= at.as_nanos() as u64 {
                std::thread::sleep(len);
                stall = None;
                now = since(start);
            }
        }
        while let Some(&Reverse((at, idx, tries))) = resends.peek() {
            if at > now {
                break;
            }
            resends.pop();
            let op = &ops[idx];
            let id = conns[op.session].send(op.request.clone());
            inflight[op.session].push_back((id, idx, tries));
            progressed = true;
            now = since(start);
        }
        while next < n && ops[next].due_ns <= now {
            let op = &mut ops[next];
            // A request that may be resent keeps its copy.
            let request = if cfg.retry_busy {
                op.request.clone()
            } else {
                std::mem::replace(&mut op.request, Request::Ping)
            };
            let conn = &mut conns[op.session];
            out.samples[next].sent_ns = now;
            let id = if cfg.trace {
                let t0 = Instant::now();
                let id = conn.send(request);
                out.send_ns.push(t0.elapsed().as_nanos() as u64);
                id
            } else {
                conn.send(request)
            };
            inflight[op.session].push_back((id, next, 0));
            next += 1;
            outstanding += 1;
            progressed = true;
            now = since(start);
        }
        out.backlog_max = out.backlog_max.max(outstanding);
        for (s, conn) in conns.iter().enumerate() {
            loop {
                let t0 = cfg.trace.then(Instant::now);
                let Some(frame) = conn.try_recv() else { break };
                let done = since(start);
                if let Some(t0) = t0 {
                    out.recv_ns.push(t0.elapsed().as_nanos() as u64);
                }
                progressed = true;
                // Answers normally arrive in request order; a shed request's
                // `Busy` can overtake earlier writes still being batched.
                let Some(pos) = inflight[s].iter().position(|&(id, ..)| id == frame.id) else {
                    out.violations.push(format!(
                        "session {s}: answer {} matches no request",
                        frame.id
                    ));
                    continue;
                };
                let (id, idx, tries) = inflight[s].remove(pos).expect("position is in range");
                let busy = matches!(frame.response, Response::Busy);
                out.busy += u64::from(busy);
                if busy && cfg.retry_busy && done <= give_up {
                    let backoff = RETRY_BASE.saturating_mul(1 << tries.min(16)).min(RETRY_MAX);
                    resends.push(Reverse((done + backoff.as_nanos() as u64, idx, tries + 1)));
                } else {
                    outstanding -= 1;
                    let sample = &mut out.samples[idx];
                    sample.done_ns = done;
                    match (sample.kind, &frame.response) {
                        (Kind::Read, Response::Values(v))
                            if v.len() == cfg.keys_per_op as usize =>
                        {
                            sample.ok = true;
                        }
                        (Kind::Write, Response::MultiAdded { applied })
                            if *applied == cfg.keys_per_op =>
                        {
                            sample.ok = true;
                            out.acked_increments += u64::from(*applied);
                        }
                        (_, Response::Busy) => out.shed += 1,
                        (_, Response::Error(_)) => out.errors += 1,
                        (kind, other) => out
                            .violations
                            .push(format!("{kind:?} request {id} answered {other:?}")),
                    }
                }
                if cfg.trace {
                    out.responses.push(frame);
                }
            }
        }
        if now >= next_tick {
            tick();
            next_tick = now + 1_000_000;
        }
        if next == n && (outstanding == 0 || now > give_up) {
            break;
        }
        if !progressed {
            // PAUSE-style spinning leaves the core's resources to a sibling
            // hardware thread running the server; an occasional yield lets
            // a server thread queued on this CPU run.
            idle += 1;
            if idle.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                for _ in 0..32 {
                    std::hint::spin_loop();
                }
            }
        }
    }
    out.unanswered = outstanding;
    out
}

/// Exact percentile `q` (0..=1, nearest rank) of `values`; 0 when empty.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// `n`, p50 and the highest of p99/p99.9/p99.99 with at least ten samples
/// beyond it, in microseconds, for the context line.
pub fn latency_summary(values_ns: &mut [u64]) -> String {
    let n = values_ns.len();
    let mut s = format!("n={n} p50={:.3}us", percentile(values_ns, 0.5) as f64 / 1e3);
    if let Some(&(q, name)) = [(0.9999, "p99.99"), (0.999, "p99.9"), (0.99, "p99")]
        .iter()
        .find(|&&(q, _)| (n as f64) * (1.0 - q) >= 10.0)
    {
        s += &format!(" {name}={:.3}us", percentile(values_ns, q) as f64 / 1e3);
    }
    s
}
