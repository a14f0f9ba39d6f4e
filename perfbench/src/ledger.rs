//! The traced run's layer ledger: a fixed sample of the workload's
//! requests replayed through each layer's public call, one span per call.
//!
//! * engine layers — `lexicon` φ matching, `sgq::decompose`,
//!   `SgqEngine::prepare`, the A\* searches and TA passes of an exact
//!   query (replayed with `AStarSearch` and `ta::assemble` on the query's
//!   own plans), and `query_time_bounded`;
//! * serving layers — prepared execute, `LiveQueryService::query`, the
//!   scheduler with the answer cache off, a cache hit, and the socket, each
//!   on the same requests, so each layer's added time is a difference of
//!   medians.

use crate::answers::{same_ids, Fingerprint};
use crate::data::Inputs;
use crate::stats::{mean, median, Metrics, Outcome};
use crate::trace::{per_request_us, self_times, Span, Tracer};
use kgraph::KnowledgeGraph;
use lexicon::NodeMatcher;
use semkg_server::{Client, WireOutcome};
use sgq::astar::AStarSearch;
use sgq::semgraph::SubQueryPlan;
use sgq::{
    ta, BatchScheduler, FinalMatch, LiveQueryService, Priority, QueryGraph, SchedConfig,
    SchedOutcome, SgqConfig, SgqEngine, TimeBoundConfig,
};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Deadline of every scheduled or socket request: far beyond any answer
/// time, so every reply is exact.
pub const DEADLINE: Duration = Duration::from_secs(10);

/// Counts the engine ledger gathers besides its spans.
#[derive(Default)]
struct EngineCounts {
    pushed: Vec<f64>,
    popped: Vec<f64>,
    edges: Vec<f64>,
    tau_pruned: Vec<f64>,
    ta_accesses: Vec<f64>,
    ta_rounds: Vec<f64>,
    replay_edges: u64,
    tbq_overrun_ms: Vec<f64>,
    tbq_post_search_us: Vec<f64>,
    tbq_edges: Vec<f64>,
    tbq_hits: usize,
}

/// Replays the engine's exact loop: searches resumed in doubling batches
/// until a TA pass certifies the top-k or every search is exhausted.
fn replay_exact(
    graph: &KnowledgeGraph,
    plans: &[SubQueryPlan],
    config: &SgqConfig,
    tracer: &Tracer,
    req: u64,
    parent: u64,
) -> (Vec<FinalMatch>, u64) {
    let mut searches: Vec<AStarSearch<'_, KnowledgeGraph>> =
        tracer.time("sgq::astar", req, Some(parent), || {
            plans.iter().map(|p| AStarSearch::new(graph, p)).collect()
        });
    let cap = config.max_matches_per_subquery;
    let mut streams = vec![Vec::new(); plans.len()];
    let mut batch = config.effective_batch();
    loop {
        tracer.time("sgq::astar", req, Some(parent), || {
            for (search, stream) in searches.iter_mut().zip(streams.iter_mut()) {
                for _ in 0..batch {
                    if cap > 0 && stream.len() >= cap {
                        break;
                    }
                    match search.next_match() {
                        Some(m) => stream.push(m),
                        None => break,
                    }
                }
            }
        });
        let exhausted: Vec<bool> = searches
            .iter()
            .zip(&streams)
            .map(|(s, st)| s.is_exhausted() || (cap > 0 && st.len() >= cap))
            .collect();
        let outcome = tracer.time("sgq::ta", req, Some(parent), || {
            ta::assemble(&streams, &exhausted, config.k)
        });
        if outcome.certified || exhausted.iter().all(|&e| e) {
            let edges = searches.iter().map(|s| s.stats.edges_examined as u64).sum();
            return (outcome.matches, edges);
        }
        batch = batch.saturating_mul(2);
    }
}

/// Engine-layer replay of `sample`, `reps` times. Request ids continue
/// from `*req`.
#[allow(clippy::too_many_arguments)]
pub fn engine_ledger(
    inputs: &Inputs,
    engine: &SgqEngine<'_>,
    sample: &[&QueryGraph],
    reps: usize,
    tb: &TimeBoundConfig,
    tracer: &Tracer,
    req: &mut u64,
    out: &mut Outcome,
) {
    let graph = &inputs.ds.graph;
    let matcher = NodeMatcher::new(graph, &inputs.ds.library);
    let config = engine.config().clone();
    let mut c = EngineCounts::default();
    for _ in 0..reps {
        for q in sample {
            *req += 1;
            let r = *req;
            let root = tracer.reserve();
            let root_start = tracer.now_ns();
            tracer.time("lexicon.match", r, Some(root), || {
                for node in q.nodes() {
                    match node.name() {
                        Some(name) => black_box(matcher.match_name(name).len()),
                        None => black_box(matcher.type_mask(node.type_label()).len()),
                    };
                }
            });
            let decomposition = match tracer.time("sgq::decompose", r, Some(root), || {
                engine.decompose_query(q)
            }) {
                Ok(d) => d,
                Err(e) => {
                    out.problem(format!("ledger decompose: {e}"));
                    continue;
                }
            };
            if let Err(e) = tracer.time("sgq::engine.prepare", r, Some(root), || engine.prepare(q))
            {
                out.problem(format!("ledger prepare: {e}"));
            }
            let (exact, qtrace) = match tracer.time("sgq::engine.query", r, Some(root), || {
                engine.query_with_trace(q)
            }) {
                Ok(v) => v,
                Err(e) => {
                    out.problem(format!("ledger query: {e}"));
                    continue;
                }
            };
            c.pushed.push(exact.stats.pushed as f64);
            c.popped.push(exact.stats.popped as f64);
            c.edges.push(exact.stats.edges_examined as f64);
            c.tau_pruned.push(exact.stats.tau_pruned as f64);
            c.ta_accesses.push(exact.stats.ta_accesses as f64);
            c.ta_rounds.push(qtrace.rounds as f64);

            let plans: Vec<SubQueryPlan> = decomposition
                .subqueries
                .iter()
                .map(|sq| {
                    SubQueryPlan::build(
                        graph,
                        &inputs.space,
                        &matcher,
                        q,
                        sq,
                        config.n_hat,
                        config.tau,
                    )
                })
                .collect();
            let (replayed, edges) = replay_exact(graph, &plans, &config, tracer, r, root);
            c.replay_edges += edges;
            let scores = |m: &[FinalMatch]| m.iter().map(|f| f.score).collect::<Vec<f64>>();
            if scores(&replayed) != scores(&exact.matches) {
                out.problem("replayed A*+TA top-k differs from SgqEngine::query".into());
            }

            let t0 = Instant::now();
            match tracer.time("sgq::timebound", r, Some(root), || {
                engine.query_time_bounded(q, tb)
            }) {
                Ok(res) => {
                    let elapsed = t0.elapsed();
                    c.tbq_overrun_ms
                        .push((elapsed.as_secs_f64() - tb.bound.as_secs_f64()) * 1e3);
                    let slowest = res.stats.per_subquery_us.iter().copied().max().unwrap_or(0);
                    c.tbq_post_search_us
                        .push(elapsed.as_secs_f64() * 1e6 - slowest as f64);
                    c.tbq_edges.push(res.stats.edges_examined as f64);
                    if res.stats.time_bound_hit {
                        c.tbq_hits += 1;
                    }
                }
                Err(e) => out.problem(format!("ledger TBQ: {e}")),
            }
            tracer.record(root, "ledger.request", r, None, root_start);
        }
    }
    let m = &mut out.layers;
    m.set("astar.pushed", mean(&c.pushed), "count");
    m.set("astar.popped", mean(&c.popped), "count");
    m.set("astar.edges", mean(&c.edges), "count");
    m.set("astar.tau_pruned", mean(&c.tau_pruned), "count");
    m.set("ta.accesses", mean(&c.ta_accesses), "count");
    m.set("ta.rounds", mean(&c.ta_rounds), "count");
    m.set("tbq.overrun_ms", median(&c.tbq_overrun_ms), "ms");
    m.set("tbq.post_search_us", median(&c.tbq_post_search_us), "us");
    m.set("tbq.edges", mean(&c.tbq_edges), "count");
    m.set(
        "tbq.bound_hit_rate",
        c.tbq_hits as f64 / c.tbq_edges.len().max(1) as f64,
        "ratio",
    );
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let med = |name: &str| median(&per_request_us(&spans, &selfs, name));
    m.set("lexicon.match_us", med("lexicon.match"), "us");
    m.set("decompose.us", med("sgq::decompose"), "us");
    m.set("plan.prepare_us", med("sgq::engine.prepare"), "us");
    m.set("astar.search_us", med("sgq::astar"), "us");
    m.set("ta.assemble_us", med("sgq::ta"), "us");
    let astar_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "sgq::astar")
        .map(|s| selfs.get(&s.id).copied().unwrap_or(0))
        .sum();
    m.set(
        "astar.ns_per_edge",
        astar_ns as f64 / c.replay_edges.max(1) as f64,
        "ns",
    );
}

/// Serving-layer replay: the same requests through each boundary in turn,
/// every reply checked against the service's own exact answer.
pub fn serving_ledger(
    service: &LiveQueryService<'_>,
    addr: SocketAddr,
    sample: &[&QueryGraph],
    reps: usize,
    tracer: &Tracer,
    req: &mut u64,
    out: &mut Outcome,
) {
    let mut reference: Vec<Fingerprint> = Vec::with_capacity(sample.len());
    for q in sample {
        match service.query(q) {
            Ok(r) => reference.push(Fingerprint::of(&r)),
            Err(e) => {
                out.problem(format!("ledger service query: {e}"));
                return;
            }
        }
    }
    let mut next = || {
        *req += 1;
        *req
    };
    let check = |what: &str,
                 got: Option<&sgq::QueryResult>,
                 want: &Fingerprint,
                 out: &mut Outcome| match got {
        Some(r) => {
            if let Err(e) = same_ids(&Fingerprint::of(r), want) {
                out.problem(format!("{what}: {e}"));
            }
        }
        None => out.problem(format!("{what}: no exact answer")),
    };

    // 1. Prepared execute on the pinned epoch engine.
    for (q, want) in sample.iter().zip(&reference) {
        let prepared = match service.prepare(q) {
            Ok(p) => p,
            Err(e) => {
                out.problem(format!("ledger prepare: {e}"));
                continue;
            }
        };
        for _ in 0..reps {
            let r = tracer.time("sgq::engine.execute", next(), None, || {
                service.execute(&prepared)
            });
            check("prepared execute", r.as_ref().ok(), want, out);
        }
    }
    // 2. LiveQueryService::query.
    for _ in 0..reps {
        for (q, want) in sample.iter().zip(&reference) {
            let r = tracer.time("sgq::live.query", next(), None, || service.query(q));
            check("live query", r.as_ref().ok(), want, out);
        }
    }
    // 3–4. The scheduler without and with the answer cache.
    let exact = |o: &SchedOutcome| match o {
        SchedOutcome::Exact(r) => Some(r.clone()),
        _ => None,
    };
    let off = SchedConfig {
        answer_cache_capacity: 0,
        ..SchedConfig::default()
    };
    let sched_off = BatchScheduler::serve(service, off, |h| {
        let mut got = Vec::new();
        for _ in 0..reps {
            for q in sample {
                let resp = tracer.time("sgq::sched.cache_off", next(), None, || {
                    h.query_within(q, DEADLINE, Priority::Normal)
                });
                got.push(exact(&resp.outcome));
            }
        }
        got
    });
    let sched_on = BatchScheduler::serve(service, SchedConfig::default(), |h| {
        for q in sample {
            h.query_within(q, DEADLINE, Priority::Normal);
        }
        let mut got = Vec::new();
        for _ in 0..reps {
            for q in sample {
                let resp = tracer.time("sgq::sched.cache_hit", next(), None, || {
                    h.query_within(q, DEADLINE, Priority::Normal)
                });
                got.push(exact(&resp.outcome));
            }
        }
        got
    });
    for (what, run) in [
        ("scheduler, cache off", sched_off),
        ("scheduler, cache hit", sched_on),
    ] {
        match run {
            Ok(got) => {
                for (r, want) in got.iter().zip(reference.iter().cycle()) {
                    check(what, r.as_ref(), want, out);
                }
            }
            Err(e) => out.problem(format!("{what}: {e}")),
        }
    }
    // 5. The socket, against the running server's warmed answer cache.
    match Client::connect(addr) {
        Ok(mut client) => {
            for q in sample {
                let _ = client.query(q, DEADLINE, Priority::Normal);
            }
            for _ in 0..reps {
                for (q, want) in sample.iter().zip(&reference) {
                    let r = tracer.time("semkg-server.socket", next(), None, || {
                        client.query(q, DEADLINE, Priority::Normal)
                    });
                    match r {
                        Ok(WireOutcome::Exact(res)) => check("socket", Some(&res), want, out),
                        Ok(other) => out.problem(format!("socket: not exact: {other:?}")),
                        Err(e) => out.problem(format!("socket: {e}")),
                    }
                }
            }
        }
        Err(e) => out.problem(format!("ledger connect: {e}")),
    }
    let spans: Vec<Span> = tracer.spans();
    let selfs = self_times(&spans);
    let med = |name: &str| median(&per_request_us(&spans, &selfs, name));
    let (execute, live, off, hit, socket) = (
        med("sgq::engine.execute"),
        med("sgq::live.query"),
        med("sgq::sched.cache_off"),
        med("sgq::sched.cache_hit"),
        med("semkg-server.socket"),
    );
    let m: &mut Metrics = &mut out.layers;
    m.set("engine.execute_us", execute, "us");
    m.set("live.query_added_us", live - execute, "us");
    m.set("sched.added_us", off - live, "us");
    m.set("cache.hit_us", hit, "us");
    m.set("server.added_us", socket - hit, "us");
}

/// Scheduler counters out of a Prometheus scrape, summed over labels.
pub fn scrape_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let key = it.next()?;
            let bare = key.split('{').next()?;
            (bare == name)
                .then(|| it.next()?.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

/// `cache.hit_rate`, `sched.batch_size` and `sched.plan_cache_hit_rate`
/// from a server scrape.
pub fn sched_metrics(scrape: &str, m: &mut Metrics) {
    let v = |n: &str| scrape_value(scrape, n);
    let submitted = v("sgq_sched_submitted_total");
    let hits =
        v("sgq_sched_answer_cache_hits_total") + v("sgq_sched_answer_cache_dominance_hits_total");
    m.set("cache.hit_rate", hits / submitted.max(1.0), "ratio");
    m.set(
        "sched.batch_size",
        v("sgq_sched_batched_requests_total") / v("sgq_sched_batches_total").max(1.0),
        "count",
    );
    let plan_hits = v("sgq_sched_plan_cache_hits_total");
    let plan_total = plan_hits + v("sgq_sched_plan_cache_misses_total");
    m.set(
        "sched.plan_cache_hit_rate",
        plan_hits / plan_total.max(1.0),
        "ratio",
    );
}
