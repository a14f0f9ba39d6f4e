//! `exact_topk` and `tbq_bound`: one client thread in a closed loop of
//! ad-hoc engine calls, checked against the oracle, followed by a storage
//! probe that gives the workload its commit, checkpoint and recovery
//! figures on an idle 2-shard deployment of the same graph.

use crate::data::{self, Inputs, Rng};
use crate::ledger::{engine_ledger, sched_metrics, serving_ledger};
use crate::oracle::Reference;
use crate::stats::{mean, median, sliced, Outcome};
use crate::storage::{check_recovered, fresh_dir, Writer, SHARDS};
use crate::Run;
use datagen::{f1_score, jaccard, precision_recall};
use lexicon::NodeMatcher;
use semkg_server::{serve, Client, ServerConfig};
use sgq::{QNodeId, QueryGraph, SchedConfig, SgqEngine, ShardedDeployment, TimeBoundConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The TBQ bound: below the join shapes' exact median (about 2–3 ms on a
/// 2-core x86-64 host), where the answer is neither the exact one nor
/// empty.
pub const TBQ_BOUND: Duration = Duration::from_micros(1000);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Commits of the storage probe. Checkpoints come after them, each behind
/// `PROBE_CHECKPOINT_COMMITS` more commits, so that their write-back does
/// not land in the timed commits.
const PROBE_COMMITS: usize = 200;
const PROBE_CHECKPOINTS: usize = 3;
const PROBE_CHECKPOINT_COMMITS: usize = 10;
/// Ledger repetitions per sampled request.
const LEDGER_REPS: usize = 2;

pub fn run(run: &Run, bounded: bool, out: &mut Outcome) {
    let name = if bounded {
        "tbq_bound.query"
    } else {
        "exact_topk.query"
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<Inputs> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let inputs = data::inputs();
        let engine = SgqEngine::new(
            &inputs.ds.graph,
            &inputs.space,
            &inputs.ds.library,
            data::config(),
        );
        std::hint::black_box(engine.workers());
        drop(engine);
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(inputs);
    }
    let inputs = kept.expect("at least one set-up");
    let graph = &inputs.ds.graph;
    let engine = SgqEngine::new(graph, &inputs.space, &inputs.ds.library, data::config());
    let mix = if bounded {
        data::tbq_mix(&inputs.ds)
    } else {
        data::exact_mix(&inputs.ds)
    };

    // Reference answers (not part of set-up).
    let matcher = NodeMatcher::new(graph, &inputs.ds.library);
    let refs: Vec<Option<Reference>> = mix
        .iter()
        .map(|q| {
            engine.decompose_query(&q.graph).ok().map(|d| {
                Reference::build(
                    graph,
                    &inputs.space,
                    &matcher,
                    &q.graph,
                    &d,
                    engine.config(),
                )
            })
        })
        .collect();

    let tb = TimeBoundConfig::with_bound(TBQ_BOUND);
    let call = |q: &QueryGraph| {
        if bounded {
            engine.query_time_bounded(q, &tb)
        } else {
            engine.query(q)
        }
    };
    // One untimed round fills the similarity-row cache.
    for q in &mix {
        let _ = call(&q.graph);
    }

    let mut rng = Rng::new(run.seed);
    let mut latency_ms = Vec::new();
    let mut results = Vec::new();
    let mut req = 0u64;
    let window = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    while results.is_empty() || start.elapsed() < window {
        for i in rng.permutation(mix.len()) {
            req += 1;
            let t0 = Instant::now();
            let r = run.tracer.time(name, req, None, || call(&mix[i].graph));
            latency_ms.push((
                start.elapsed().as_secs_f64(),
                t0.elapsed().as_secs_f64() * 1e3,
            ));
            results.push((i, r));
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let sim = engine.similarity_stats();

    let (mut f1, mut jac) = (Vec::new(), Vec::new());
    for (i, r) in &results {
        out.attempted += 1;
        let q = &mix[*i];
        let res = match r {
            Ok(res) => res,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{}: {e}", q.id));
                continue;
            }
        };
        let Some(reference) = &refs[*i] else {
            out.problem(format!(
                "{}: the engine answered a query it cannot decompose",
                q.id
            ));
            continue;
        };
        let verdict = if bounded {
            reference.check_bounded(graph, res)
        } else {
            reference.check_exact(graph, res)
        };
        if let Err(e) = verdict {
            out.problem(format!("{}: {e}", q.id));
        }
        let (p, rc) = precision_recall(&res.bindings_for(QNodeId(q.answer_node)), &q.truth);
        f1.push(f1_score(p, rc));
        let pivots: Vec<_> = res.matches.iter().map(|m| m.pivot).collect();
        jac.push(jaccard(&pivots, &reference.top_pivots()));
    }
    drop(results);

    let e = &mut out.end_to_end;
    e.set("setup_s", median(&setup_s), "s");
    let (p50, p90, qps) = sliced(&latency_ms, window_s);
    e.set("p50_ms", p50, "ms");
    e.set("p90_ms", p90, "ms");
    e.set("qps", qps, "1/s");
    e.set("f1", mean(&f1), "ratio");
    e.set("approx_jaccard", mean(&jac), "ratio");
    let hits = sim.row_hits + sim.max_row_hits;
    let total = hits + sim.row_misses + sim.max_row_misses;
    out.layers.set(
        "similarity.row_hit_rate",
        hits as f64 / total.max(1) as f64,
        "ratio",
    );

    let Some(dep) = storage_probe(run, &inputs, out) else {
        return;
    };
    if run.tracer.on() {
        let sample: Vec<&QueryGraph> = mix.iter().map(|q| &q.graph).collect();
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
        serving_probe(run, &dep, &sample, &mut req, out);
    }
    let dir = dep.dir().to_path_buf();
    drop(dep);
    let _ = std::fs::remove_dir_all(dir);
}

/// Commits, checkpoints and reopens an idle 2-shard deployment of the
/// graph; returns the reopened deployment.
fn storage_probe(run: &Run, inputs: &Inputs, out: &mut Outcome) -> Option<ShardedDeployment> {
    let dir = fresh_dir(&run.dir, "probe");
    let mut writer = Writer::new(&format!("probe{}", run.seed));
    let created = ShardedDeployment::create(
        &dir,
        inputs.ds.graph.clone(),
        inputs.space.clone(),
        inputs.ds.library.clone(),
        SHARDS,
    );
    let dep = match created {
        Ok(d) => d,
        Err(e) => {
            out.problem(format!("create deployment: {e}"));
            return None;
        }
    };
    let commit_p50_ms;
    {
        let service = dep.service(data::config());
        for _ in 0..PROBE_COMMITS {
            out.attempted += 1;
            writer.commit_batch(dep.versioned(), &run.tracer, 0);
        }
        commit_p50_ms = median(&writer.commit_ms);
        for _ in 0..PROBE_CHECKPOINTS {
            for _ in 0..PROBE_CHECKPOINT_COMMITS {
                out.attempted += 1;
                writer.commit_batch(dep.versioned(), &run.tracer, 0);
            }
            if let Err(e) = writer.checkpoint(&service, &dir, &run.tracer, 0) {
                out.failed += 1;
                out.problem(e);
            }
        }
        writer.leave_staged(dep.versioned());
    }
    drop(dep);
    let t0 = Instant::now();
    let reopened = match run.tracer.time("kgraph::io.recover", 0, None, || {
        ShardedDeployment::open(&dir)
    }) {
        Ok(d) => d,
        Err(e) => {
            out.problem(format!("reopen deployment: {e}"));
            return None;
        }
    };
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = check_recovered(
        &reopened.versioned().snapshot(),
        &writer.committed,
        &writer.staged,
    ) {
        out.problem(e);
    }
    let l = &mut out.layers;
    l.set("commit.p50_ms", commit_p50_ms, "ms");
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
    l.set("io.recover_ms", recover_ms, "ms");
    Some(reopened)
}

/// The serving ledger over the probe deployment, behind a real server.
fn serving_probe(
    run: &Run,
    dep: &ShardedDeployment,
    sample: &[&QueryGraph],
    req: &mut u64,
    out: &mut Outcome,
) {
    let service = dep.service(data::config());
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            out.problem(format!("bind: {e}"));
            return;
        }
    };
    let refreshes_before = service.stats().engine_refreshes;
    let t0 = Instant::now();
    let served = serve(
        listener,
        &service,
        SchedConfig::default(),
        ServerConfig::default(),
        &[],
        |h| {
            let body = catch_unwind(AssertUnwindSafe(|| {
                let mut local = Outcome::default();
                serving_ledger(
                    &service,
                    h.addr(),
                    sample,
                    LEDGER_REPS,
                    &run.tracer,
                    req,
                    &mut local,
                );
                let scrape = Client::connect(h.addr()).and_then(|mut c| c.metrics());
                (local, scrape)
            }));
            h.begin_drain();
            body
        },
    );
    let elapsed = t0.elapsed().as_secs_f64();
    match served {
        Ok(Ok((local, scrape))) => {
            for p in local.problems {
                out.problem(p);
            }
            for (k, v) in local.layers.0 {
                out.layers.0.insert(k, v);
            }
            match scrape {
                Ok(text) => sched_metrics(&text, &mut out.layers),
                Err(e) => out.problem(format!("metrics scrape: {e}")),
            }
        }
        Ok(Err(_)) => out.problem("the serving ledger panicked; the server drained".into()),
        Err(e) => out.problem(format!("serve: {e}")),
    }
    let refreshes = service.stats().engine_refreshes - refreshes_before;
    out.layers
        .set("live.refreshes_per_s", refreshes as f64 / elapsed, "1/s");
}
