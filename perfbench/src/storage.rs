//! The durable side: a writer committing updates to a 2-shard
//! `ShardedDeployment`, checkpoints, reopen, and the recovery check.
//!
//! Updates insert `Churn_*` entities of type `Thing` linked by `related`
//! edges only to each other, so no query can reach them and answers stay
//! those of the unchanged graph.

use crate::stats::median;
use crate::trace::Tracer;
use kgraph::{GraphView, VersionedGraph};
use sgq::LiveQueryService;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shards of every deployment the benchmark builds.
pub const SHARDS: usize = 2;
/// Inserts per commit.
pub const BATCH: usize = 8;
const PREDICATE: &str = "related";
const TYPE: &str = "Thing";

/// A writer's history: what it committed, what it left staged, and what
/// each commit and checkpoint cost.
pub struct Writer {
    prefix: String,
    next: u64,
    pub committed: Vec<(String, String)>,
    pub staged: Vec<(String, String)>,
    pub commit_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_bytes: Vec<f64>,
    pub wal_bytes_per_op: Vec<f64>,
    ops_since_checkpoint: u64,
}

impl Writer {
    pub fn new(prefix: &str) -> Self {
        Self {
            prefix: prefix.to_string(),
            next: 0,
            committed: Vec::new(),
            staged: Vec::new(),
            commit_ms: Vec::new(),
            checkpoint_ms: Vec::new(),
            checkpoint_bytes: Vec::new(),
            wal_bytes_per_op: Vec::new(),
            ops_since_checkpoint: 0,
        }
    }

    fn stage(&mut self, versioned: &VersionedGraph) {
        for _ in 0..BATCH {
            let head = format!("Churn_{}_{}", self.prefix, self.next);
            let tail = format!("Churn_{}_{}_x", self.prefix, self.next);
            self.next += 1;
            versioned.insert_triple((&head, TYPE), PREDICATE, (&tail, TYPE));
            self.staged.push((head, tail));
        }
        self.ops_since_checkpoint += BATCH as u64;
    }

    /// One batch of inserts plus `commit()`, timed as the writer sees it.
    pub fn commit_batch(&mut self, versioned: &VersionedGraph, tracer: &Tracer, req: u64) {
        let t0 = Instant::now();
        tracer.time("kgraph::versioned.commit", req, None, || {
            self.stage(versioned);
            versioned.commit();
        });
        self.commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.ops_since_checkpoint += 1;
        self.committed.append(&mut self.staged);
    }

    /// Checkpoints through the service; records its time, snapshot size
    /// and the WAL bytes each logged operation cost since the last one.
    pub fn checkpoint(
        &mut self,
        service: &LiveQueryService<'_>,
        dir: &Path,
        tracer: &Tracer,
        req: u64,
    ) -> Result<(), String> {
        let wal_bytes: u64 = (0..SHARDS)
            .filter_map(|s| std::fs::metadata(kgraph::io::shard::wal_path(dir, s)).ok())
            .map(|m| m.len())
            .sum();
        if self.ops_since_checkpoint > 0 {
            self.wal_bytes_per_op
                .push(wal_bytes as f64 / self.ops_since_checkpoint as f64);
        }
        let t0 = Instant::now();
        let report = tracer
            .time("kgraph::io.checkpoint", req, None, || service.checkpoint())
            .map_err(|e| format!("checkpoint: {e}"))?;
        self.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.checkpoint_bytes.push(report.snapshot_bytes as f64);
        self.ops_since_checkpoint = 0;
        Ok(())
    }

    /// Stages one batch and never commits it: recovery must drop it.
    pub fn leave_staged(&mut self, versioned: &VersionedGraph) {
        self.stage(versioned);
    }

    pub fn commit_p50_ms(&self) -> f64 {
        median(&self.commit_ms)
    }
}

/// After reopen, every committed update must be present and no staged
/// one.
pub fn check_recovered<G: GraphView>(
    graph: &G,
    committed: &[(String, String)],
    staged: &[(String, String)],
) -> Result<(), String> {
    let has_edge = |head: &str, tail: &str| -> bool {
        let (Some(h), Some(t)) = (graph.node_by_name(head), graph.node_by_name(tail)) else {
            return false;
        };
        graph
            .neighbors(h)
            .any(|nb| nb.node == t && graph.predicate_name(nb.predicate) == PREDICATE)
    };
    if let Some((h, t)) = committed.iter().find(|(h, t)| !has_edge(h, t)) {
        return Err(format!(
            "committed update {h} -{PREDICATE}-> {t} lost on reopen"
        ));
    }
    if let Some((h, t)) = staged.iter().find(|(h, t)| has_edge(h, t)) {
        return Err(format!(
            "uncommitted update {h} -{PREDICATE}-> {t} survived reopen"
        ));
    }
    Ok(())
}

/// A fresh directory for one deployment, inside the run's own directory.
pub fn fresh_dir(run_dir: &Path, tag: &str) -> PathBuf {
    let dir = run_dir.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_committed_update_dropped_after_reopen_is_reported() {
        let run_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_run/tests");
        let dir = fresh_dir(&run_dir, "recover");
        let ds = datagen::DatasetSpec::tiny().build();
        let space = ds.oracle_space();
        let mut writer = Writer::new("t");
        {
            let dep = sgq::ShardedDeployment::create(
                &dir,
                ds.graph.clone(),
                space,
                ds.library.clone(),
                SHARDS,
            )
            .expect("create deployment");
            let tracer = Tracer::new(false);
            for _ in 0..3 {
                writer.commit_batch(dep.versioned(), &tracer, 0);
            }
            writer.leave_staged(dep.versioned());
        }
        let dep = sgq::ShardedDeployment::open(&dir).expect("reopen");
        let snap = dep.versioned().snapshot();
        assert_eq!(
            check_recovered(&snap, &writer.committed, &writer.staged),
            Ok(())
        );

        // A staged update that survived must be reported.
        let survived = vec![writer.committed[0].clone()];
        assert!(check_recovered(&snap, &writer.committed, &survived).is_err());

        // Drop one committed update from the reopened store: reported.
        let (head, tail) = &writer.committed[5];
        assert!(dep.versioned().delete_triple(head, PREDICATE, tail));
        let dropped = dep.versioned().commit();
        let err = check_recovered(&dropped, &writer.committed, &writer.staged).unwrap_err();
        assert!(err.contains("lost on reopen"), "{err}");
        drop(dep);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
