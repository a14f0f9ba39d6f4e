//! Answers as comparable data: pivots, scores and path nodes. Edge ids are
//! left out, because compaction reassigns them.

use crate::oracle::EPS;
use kgraph::{GraphView, NodeId};
use sgq::QueryResult;

/// Per final match: pivot, score, and each part's path nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint(Vec<(NodeId, f64, Vec<Vec<NodeId>>)>);

impl Fingerprint {
    pub fn of(r: &QueryResult) -> Self {
        Self(
            r.matches
                .iter()
                .map(|m| {
                    (
                        m.pivot,
                        m.score,
                        m.parts.iter().map(|p| p.nodes.clone()).collect(),
                    )
                })
                .collect(),
        )
    }

    /// The same answer in another graph's node ids, matched by name.
    pub fn mapped<A: GraphView, B: GraphView>(&self, from: &A, to: &B) -> Option<Self> {
        let map = |n: NodeId| to.node_by_name(from.node_name(n));
        let mut out = Vec::with_capacity(self.0.len());
        for (pivot, score, paths) in &self.0 {
            let paths: Option<Vec<Vec<NodeId>>> = paths
                .iter()
                .map(|p| p.iter().map(|&n| map(n)).collect())
                .collect();
            out.push((map(*pivot)?, *score, paths?));
        }
        Some(Self(out))
    }

    /// Pivots, in rank order.
    pub fn pivots(&self) -> Vec<NodeId> {
        self.0.iter().map(|m| m.0).collect()
    }

    /// True when `r` is this answer (scores within [`EPS`]). Allocates
    /// nothing, so the socket client can check every reply as it arrives.
    pub fn matches(&self, r: &QueryResult) -> bool {
        r.matches.len() == self.0.len()
            && r.matches
                .iter()
                .zip(&self.0)
                .all(|(m, (pivot, score, paths))| {
                    m.pivot == *pivot
                        && (m.score - score).abs() <= EPS
                        && m.parts.len() == paths.len()
                        && m.parts.iter().zip(paths).all(|(p, want)| p.nodes == *want)
                })
    }
}

/// Explains how two answers in the same graph differ, if they do.
pub fn same_ids(got: &Fingerprint, want: &Fingerprint) -> Result<(), String> {
    if got.0.len() != want.0.len() {
        return Err(format!(
            "{} answers, expected {}",
            got.0.len(),
            want.0.len()
        ));
    }
    for (i, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
        if g.0 != w.0 {
            return Err(format!("answer {i}: pivot {:?}, expected {:?}", g.0, w.0));
        }
        if (g.1 - w.1).abs() > EPS {
            return Err(format!("answer {i}: score {}, expected {}", g.1, w.1));
        }
        if g.2 != w.2 {
            return Err(format!("answer {i}: paths differ"));
        }
    }
    Ok(())
}
