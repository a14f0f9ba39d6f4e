//! One benchmark for SGQ: exact top-k (`exact_topk`), time-bounded top-k
//! (`tbq_bound`) and served queries beside durable writes
//! (`served_churn`). See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of the traced run. The line before it
//! stamps the environment; a traced run also prints its end-to-end
//! figures, so tracing overhead can be read off.

mod affinity;
mod answers;
mod data;
mod engine_loads;
mod ledger;
mod oracle;
mod served;
mod stats;
mod storage;
mod trace;

use stats::Outcome;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

/// A run that outlives this is stopped from within, so a hang ends.
const TIME_LIMIT: Duration = Duration::from_secs(170);

/// The run's parameters; the seed is the only source of its inputs.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// The run's scratch directory (deployments, span files), inside the
    /// working directory.
    pub dir: PathBuf,
}

fn usage() -> ! {
    eprintln!("usage: perfbench --workload <exact_topk|tbq_bound|served_churn> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn parse() -> Run {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !["exact_topk", "tbq_bound", "served_churn"].contains(&workload.as_str()) {
        usage();
    }
    Run {
        workload,
        seed,
        seconds,
        tracer: Tracer::new(trace),
        dir: PathBuf::from(".bench_run"),
    }
}

fn main() {
    let run = parse();
    std::thread::spawn(|| {
        std::thread::sleep(TIME_LIMIT);
        eprintln!("perfbench: time limit of {TIME_LIMIT:?} reached, stopping");
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.dir.display());
        std::process::exit(2);
    }
    let mut out = Outcome::default();
    let mut pinned = None;
    match run.workload.as_str() {
        "exact_topk" => engine_loads::run(&run, false, &mut out),
        "tbq_bound" => engine_loads::run(&run, true, &mut out),
        _ => {
            // The served path is wake-up bound; see `affinity`.
            pinned = affinity::pin_to_one_cpu();
            if pinned.is_none() {
                eprintln!(
                    "perfbench: could not pin served_churn to one CPU; its figures will vary more"
                );
            }
            served::run(&run, &mut out)
        }
    }
    if run.tracer.on() {
        let path = run
            .dir
            .join(format!("spans-{}-seed{}.jsonl", run.workload, run.seed));
        if let Err(e) = run.tracer.write_jsonl(&path) {
            out.problem(format!("write spans: {e}"));
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let git_rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    println!(
        "# env {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"profile\": \"{profile}\", \"git_rev\": \"{git_rev}\", \"pinned_cpu\": {}}}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.tracer.on()),
        pinned.map_or("null".to_string(), |c| c.to_string())
    );
    let metrics = if run.tracer.on() {
        println!("# traced end_to_end {}", out.end_to_end.to_json());
        &out.layers
    } else {
        &out.end_to_end
    };
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.to_json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
