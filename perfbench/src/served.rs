//! `served_churn`: one socket client keeping a small window of requests in
//! flight through `semkg_server::serve` → `BatchScheduler` (answer cache
//! on) → `LiveQueryService` over a durable 2-shard `ShardedDeployment`,
//! while one writer commits at a fixed rate and checkpoints on a fixed
//! cadence.

use crate::answers::Fingerprint;
use crate::data::{self, Inputs, Rng};
use crate::ledger::{engine_ledger, sched_metrics, serving_ledger, DEADLINE};
use crate::oracle::Reference;
use crate::stats::{mean, median, sliced, Outcome};
use crate::storage::{check_recovered, fresh_dir, Writer, SHARDS};
use crate::Run;
use datagen::{f1_score, jaccard, precision_recall};
use lexicon::NodeMatcher;
use semkg_server::proto::{encode_request, frame};
use semkg_server::{serve, Client, Request, Response, ServerConfig, WireOutcome};
use sgq::{
    LiveQueryService, Priority, QNodeId, QueryGraph, SchedConfig, SgqEngine, ShardedDeployment,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Commits written before the reopen that set-up times.
const HISTORY_COMMITS: usize = 60;
/// Requests the client keeps in flight on its one connection.
const WINDOW: usize = 2;
/// Requests per round; a run sends whole rounds.
const ROUND: usize = 256;
/// The hot set is the first `HOT_SET` pool queries; `HOT_PERCENT` of
/// requests go there, the rest uniformly to the cold pool. About 72 % of
/// requests then hit the answer cache, so p50 falls among the hits and p90
/// among the misses, each about 20 points from the boundary.
const HOT_SET: usize = 4;
const HOT_PERCENT: usize = 70;
/// Writer cadence: one commit of `storage::BATCH` inserts every
/// `COMMIT_EVERY`, a checkpoint every `CHECKPOINT_EVERY` commits.
const COMMIT_EVERY: Duration = Duration::from_millis(100);
const CHECKPOINT_EVERY: u64 = 20;
/// A traced run records every `TRACE_EVERY`-th socket request as a span:
/// a run serves hundreds of thousands, and the ledger's spans must still
/// fit the tracer's buffer.
const TRACE_EVERY: u64 = 16;
/// Ledger sample (the hot set and the first cold queries) and repetitions.
const LEDGER_SAMPLE: usize = 48;
const LEDGER_REPS: usize = 3;

/// What the client saw.
#[derive(Default)]
struct ClientLog {
    rounds: u64,
    /// `(completed_at_s, latency_ms)` per reply.
    latency_ms: Vec<(f64, f64)>,
    f1: Vec<f64>,
    jaccard: Vec<f64>,
    failed: u64,
    mismatched: u64,
    problems: Vec<String>,
    window_s: f64,
}

struct SetUp {
    inputs: Inputs,
    dir: PathBuf,
    writer: Writer,
    dep: ShardedDeployment,
}

/// Generation, deployment build and a reopen that replays WAL history;
/// the history itself is written outside the timed span.
fn set_up(run: &Run, round: usize, recover_ms: &mut Vec<f64>) -> Result<(SetUp, f64), String> {
    let dir = fresh_dir(&run.dir, &format!("served{round}"));
    let mut writer = Writer::new(&format!("s{}r{round}", run.seed));
    let t0 = Instant::now();
    let inputs = data::inputs();
    let dep = ShardedDeployment::create(
        &dir,
        inputs.ds.graph.clone(),
        inputs.space.clone(),
        inputs.ds.library.clone(),
        SHARDS,
    )
    .map_err(|e| format!("create deployment: {e}"))?;
    let mut timed = t0.elapsed().as_secs_f64();
    for _ in 0..HISTORY_COMMITS {
        writer.commit_batch(dep.versioned(), &run.tracer, 0);
    }
    drop(dep);
    let t1 = Instant::now();
    let dep = run
        .tracer
        .time("kgraph::io.recover", 0, None, || {
            ShardedDeployment::open(&dir)
        })
        .map_err(|e| format!("reopen deployment: {e}"))?;
    recover_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    drop(std::hint::black_box(dep.service(data::config())));
    timed += t1.elapsed().as_secs_f64();
    Ok((
        SetUp {
            inputs,
            dir,
            writer,
            dep,
        },
        timed,
    ))
}

pub fn run(run: &Run, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut recover_ms = Vec::new();
    let mut kept: Option<SetUp> = None;
    for round in 0..SETUPS {
        match set_up(run, round, &mut recover_ms) {
            Ok((s, secs)) => {
                setup_s.push(secs);
                if let Some(old) = kept.replace(s) {
                    let dir = old.dir.clone();
                    drop(old);
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
            Err(e) => {
                out.problem(e);
                return;
            }
        }
    }
    let SetUp {
        inputs,
        dir,
        mut writer,
        dep,
    } = kept.expect("at least one set-up");
    out.end_to_end.set("setup_s", median(&setup_s), "s");
    out.layers.set("io.recover_ms", median(&recover_ms), "ms");
    if let Err(e) = check_recovered(&dep.versioned().snapshot(), &writer.committed, &[]) {
        out.problem(format!("set-up reopen: {e}"));
    }
    // `commit.p50_ms` is the writer beside the readers: drop the history's
    // timings, written with no reader running.
    writer.commit_ms.clear();

    // The oracle-checked in-process answer of every pool query on the
    // unchanged graph, in the deployment's node ids.
    let graph = &inputs.ds.graph;
    let pool = data::served_pool(&inputs.ds);
    let engine = SgqEngine::new(graph, &inputs.space, &inputs.ds.library, data::config());
    let matcher = NodeMatcher::new(graph, &inputs.ds.library);
    let snapshot = dep.versioned().snapshot();
    let mut expected: Vec<Option<(Fingerprint, f64)>> = Vec::with_capacity(pool.len());
    for q in &pool {
        let checked = engine
            .query(&q.graph)
            .map_err(|e| e.to_string())
            .and_then(|res| {
                let d = engine
                    .decompose_query(&q.graph)
                    .map_err(|e| e.to_string())?;
                Reference::build(
                    graph,
                    &inputs.space,
                    &matcher,
                    &q.graph,
                    &d,
                    engine.config(),
                )
                .check_exact(graph, &res)?;
                let (p, r) = precision_recall(&res.bindings_for(QNodeId(q.answer_node)), &q.truth);
                let fp = Fingerprint::of(&res)
                    .mapped(graph, &snapshot)
                    .ok_or("an answer node is missing from the deployment")?;
                Ok((fp, f1_score(p, r)))
            });
        match checked {
            Ok(v) => expected.push(Some(v)),
            Err(e) => {
                out.problem(format!("{} in process: {e}", q.id));
                expected.push(None);
            }
        }
    }
    drop(snapshot);
    let frames: Vec<Vec<u8>> = pool
        .iter()
        .map(|q| {
            frame(&encode_request(&Request::Query {
                query: q.graph.clone(),
                deadline_us: DEADLINE.as_micros() as u64,
                priority: Priority::Normal,
            }))
        })
        .collect();
    let sample: Vec<&QueryGraph> = pool.iter().take(LEDGER_SAMPLE).map(|q| &q.graph).collect();

    let service = dep.service(data::config());
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            out.problem(format!("bind: {e}"));
            return;
        }
    };
    let mut req = 0u64;
    let refreshes_before = service.stats().engine_refreshes;
    let served = serve(
        listener,
        &service,
        SchedConfig::default(),
        ServerConfig::default(),
        &[],
        |h| {
            // Nothing may unwind out of this closure: a panic here would
            // leave the accept loop running. Failures are recorded, the
            // server drains, and the checks run afterwards.
            let body = catch_unwind(AssertUnwindSafe(|| {
                let stop = AtomicBool::new(false);
                let (log, writer_err) = std::thread::scope(|s| {
                    let w = s.spawn(|| {
                        catch_unwind(AssertUnwindSafe(|| {
                            writer_loop(&service, &dep, &dir, &mut writer, &stop, run)
                        }))
                    });
                    let log = catch_unwind(AssertUnwindSafe(|| {
                        client_loop(h.addr(), &frames, &expected, pool.len(), run)
                    }));
                    stop.store(true, Ordering::SeqCst);
                    let writer_err = match w.join() {
                        Ok(Ok(r)) => r.err(),
                        _ => Some("the writer panicked".to_string()),
                    };
                    (log, writer_err)
                });
                let refreshes = service.stats().engine_refreshes - refreshes_before;
                let scrape = Client::connect(h.addr()).and_then(|mut c| c.metrics());
                let mut local = Outcome::default();
                if run.tracer.on() {
                    serving_ledger(
                        &service,
                        h.addr(),
                        &sample,
                        LEDGER_REPS,
                        &run.tracer,
                        &mut req,
                        &mut local,
                    );
                }
                (log, writer_err, refreshes, scrape, local)
            }));
            h.begin_drain();
            body
        },
    );
    let (log, writer_err, refreshes, scrape, local) = match served {
        Ok(Ok(v)) => v,
        Ok(Err(_)) => {
            out.problem("the served load panicked; the server drained".into());
            return;
        }
        Err(e) => {
            out.problem(format!("serve: {e}"));
            return;
        }
    };
    let log = match log {
        Ok(log) => log,
        Err(_) => {
            out.problem("the socket client panicked".into());
            return;
        }
    };
    if let Some(e) = writer_err {
        out.problem(e);
    }
    for p in log.problems.iter().chain(&local.problems) {
        out.problem(p.clone());
    }
    if log.mismatched > 0 {
        out.problem(format!(
            "{} replies differ from the in-process answer",
            log.mismatched
        ));
    }
    out.attempted += log.rounds * ROUND as u64 + writer.commit_ms.len() as u64;
    out.failed += log.failed;

    let e = &mut out.end_to_end;
    let (p50, p90, qps) = sliced(&log.latency_ms, log.window_s);
    e.set("p50_ms", p50, "ms");
    e.set("p90_ms", p90, "ms");
    e.set("qps", qps, "1/s");
    e.set("f1", mean(&log.f1), "ratio");
    e.set("approx_jaccard", mean(&log.jaccard), "ratio");
    let l = &mut out.layers;
    for (k, v) in local.layers.0 {
        l.0.insert(k, v);
    }
    match scrape {
        Ok(text) => sched_metrics(&text, l),
        Err(e) => out.problem(format!("metrics scrape: {e}")),
    }
    let l = &mut out.layers;
    l.set(
        "live.refreshes_per_s",
        refreshes as f64 / log.window_s,
        "1/s",
    );
    l.set("commit.p50_ms", writer.commit_p50_ms(), "ms");
    l.set("io.checkpoint_ms", median(&writer.checkpoint_ms), "ms");
    l.set(
        "io.checkpoint_bytes",
        median(&writer.checkpoint_bytes),
        "bytes",
    );
    l.set(
        "wal.bytes_per_op",
        median(&writer.wal_bytes_per_op),
        "bytes",
    );
    let sim = service.similarity_stats();
    let hits = sim.row_hits + sim.max_row_hits;
    let total = hits + sim.row_misses + sim.max_row_misses;
    l.set(
        "similarity.row_hit_rate",
        hits as f64 / total.max(1) as f64,
        "ratio",
    );
    drop(service);

    if run.tracer.on() {
        let tb = sgq::TimeBoundConfig::with_bound(crate::engine_loads::TBQ_BOUND);
        engine_ledger(
            &inputs,
            &engine,
            &sample,
            LEDGER_REPS,
            &tb,
            &run.tracer,
            &mut req,
            out,
        );
    }

    // Reopen: every committed update back, the staged batch gone.
    drop(dep);
    match ShardedDeployment::open(&dir) {
        Ok(reopened) => {
            if let Err(e) = check_recovered(
                &reopened.versioned().snapshot(),
                &writer.committed,
                &writer.staged,
            ) {
                out.problem(e);
            }
        }
        Err(e) => out.problem(format!("final reopen: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Commits on a fixed schedule until told to stop, checkpointing every
/// `CHECKPOINT_EVERY` commits (and once at the end if the run was too
/// short for one); leaves one batch staged at the end.
fn writer_loop(
    service: &LiveQueryService<'_>,
    dep: &ShardedDeployment,
    dir: &Path,
    writer: &mut Writer,
    stop: &AtomicBool,
    run: &Run,
) -> Result<(), String> {
    let start = Instant::now();
    let mut n = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let due = start + COMMIT_EVERY * n as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait.min(Duration::from_millis(10)));
            continue;
        }
        writer.commit_batch(dep.versioned(), &run.tracer, 0);
        n += 1;
        if n.is_multiple_of(CHECKPOINT_EVERY) {
            writer.checkpoint(service, dir, &run.tracer, 0)?;
        }
    }
    if writer.checkpoint_ms.is_empty() {
        writer.checkpoint(service, dir, &run.tracer, 0)?;
    }
    writer.leave_staged(dep.versioned());
    Ok(())
}

/// The closed-window socket client: whole rounds of `ROUND` requests,
/// each reply checked as it arrives against the in-process answer.
fn client_loop(
    addr: std::net::SocketAddr,
    frames: &[Vec<u8>],
    expected: &[Option<(Fingerprint, f64)>],
    pool: usize,
    run: &Run,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.problems.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut rng = Rng::new(run.seed ^ 0x5e7e);
    let mut round = || -> VecDeque<usize> {
        (0..ROUND)
            .map(|_| {
                if rng.below(100) < HOT_PERCENT {
                    rng.below(HOT_SET)
                } else {
                    HOT_SET + rng.below(pool - HOT_SET)
                }
            })
            .collect()
    };
    let window = Duration::from_secs_f64(run.seconds);
    let mut plan = VecDeque::new();
    let mut inflight: VecDeque<(usize, Instant, u64, u64)> = VecDeque::new();
    let mut req = 0u64;
    let start = Instant::now();
    loop {
        while inflight.len() < WINDOW {
            if plan.is_empty() {
                if log.rounds > 0 && start.elapsed() >= window {
                    break;
                }
                plan = round();
                log.rounds += 1;
            }
            let idx = plan.pop_front().expect("a fresh round is not empty");
            req += 1;
            let sent_ns = run.tracer.now_ns();
            let sent = Instant::now();
            if let Err(e) = client.send_raw(&frames[idx]) {
                log.problems.push(format!("send: {e}"));
                log.failed += 1 + inflight.len() as u64 + plan.len() as u64;
                log.window_s = start.elapsed().as_secs_f64();
                return log;
            }
            inflight.push_back((idx, sent, req, sent_ns));
        }
        let Some((idx, sent, r, sent_ns)) = inflight.pop_front() else {
            break;
        };
        let reply = client.recv_response();
        log.latency_ms.push((
            start.elapsed().as_secs_f64(),
            sent.elapsed().as_secs_f64() * 1e3,
        ));
        if run.tracer.on() && r % TRACE_EVERY == 0 {
            let id = run.tracer.reserve();
            run.tracer
                .record(id, "served_churn.request", r, None, sent_ns);
        }
        match reply {
            Ok(Response::Query(WireOutcome::Exact(res))) => match &expected[idx] {
                Some((want, f1)) if want.matches(&res) => {
                    log.f1.push(*f1);
                    log.jaccard.push(1.0);
                }
                Some((want, _)) => {
                    log.mismatched += 1;
                    let pivots: Vec<_> = res.matches.iter().map(|m| m.pivot).collect();
                    log.jaccard.push(jaccard(&pivots, &want.pivots()));
                }
                None => log.mismatched += 1,
            },
            Ok(other) => {
                log.failed += 1;
                if log.problems.len() < 5 {
                    log.problems.push(format!("reply is not exact: {other:?}"));
                }
            }
            Err(e) => {
                log.problems.push(format!("receive: {e}"));
                log.failed += 1 + inflight.len() as u64 + plan.len() as u64;
                break;
            }
        }
    }
    log.window_s = start.elapsed().as_secs_f64();
    log
}
