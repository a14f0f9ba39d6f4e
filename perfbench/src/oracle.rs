//! Reference answers computed apart from the engine, and the checks that
//! hold the engine's answers against them.
//!
//! The oracle enumerates every simple path of at most n̂ hops per query
//! edge from each sub-query's φ-matched sources, scores it by Eq. 6 (the
//! geometric mean of its clamped edge weights), keeps the best path per
//! pivot, and sums sub-queries per pivot (Eq. 2). It shares no search or
//! assembly code with the engine: only the lexicon's φ matches, the
//! engine's decomposition (which fixes what "pivot" means) and the raw
//! predicate similarities come from the workspace.
//!
//! Its one pruning rule is its own: weights are at most 1, so a prefix with
//! log-weight sum `L` can end with a pss of at most `exp(L / H)` for the
//! sub-query's hop budget `H`, and prefixes below τ by that bound are cut.

use embedding::PredicateSpace;
use kgraph::{KnowledgeGraph, NodeId};
use lexicon::NodeMatcher;
use sgq::pss::MIN_WEIGHT;
use sgq::{Decomposition, FinalMatch, QueryGraph, QueryResult, SubMatch};
use std::collections::{BTreeMap, HashSet};

/// Score agreement tolerance. The oracle sums the same log weights in the
/// same path order as the engine, so agreement is usually exact.
pub const EPS: f64 = 1e-9;

/// Which KG nodes may bind one query node.
#[derive(Debug, Clone)]
enum Constraint {
    Nodes(HashSet<NodeId>),
    Types(Vec<bool>),
}

impl Constraint {
    fn admits(&self, graph: &KnowledgeGraph, node: NodeId) -> bool {
        match self {
            Constraint::Nodes(set) => set.contains(&node),
            Constraint::Types(mask) => mask
                .get(graph.node_type(node).index())
                .copied()
                .unwrap_or(false),
        }
    }
}

/// One sub-query resolved against the graph.
#[derive(Debug, Clone)]
struct Resolved {
    sources: HashSet<NodeId>,
    /// `constraints[s]` binds the node that completes segment `s`.
    constraints: Vec<Constraint>,
    /// `ln_w[s][p]`: log weight of KG predicate `p` on segment `s`.
    ln_w: Vec<Vec<f64>>,
    /// Raw query-node ids along the sub-query path, source first.
    query_nodes: Vec<u32>,
}

/// The exhaustive reference for one query.
#[derive(Debug, Clone)]
pub struct Reference {
    subs: Vec<Resolved>,
    k: usize,
    tau: f64,
    n_hat: usize,
    /// Every pivot matched by every sub-query, with its Eq. 2 score.
    scores: BTreeMap<NodeId, f64>,
    /// The top-k of `scores`: score descending, pivot ascending.
    top: Vec<(NodeId, f64)>,
}

/// The query predicate's weight row: the KG predicate of that label, or of
/// a canonical label the library maps it to; an unknown label weighs
/// `MIN_WEIGHT` everywhere.
fn weight_row(
    graph: &KnowledgeGraph,
    space: &PredicateSpace,
    matcher: &NodeMatcher<'_, &KnowledgeGraph>,
    label: &str,
) -> Vec<f64> {
    let n = graph.predicate_count();
    let qp = graph.predicate_id(label).or_else(|| {
        matcher
            .library()
            .canonical_of(label)
            .iter()
            .find_map(|(canonical, _)| graph.predicate_id(canonical))
    });
    let Some(qp) = qp else {
        return vec![MIN_WEIGHT; n];
    };
    (0..n)
        .map(|p| {
            let p = kgraph::PredicateId::new(p as u32);
            let sim = if p == qp {
                1.0
            } else if p.index() < space.len() && qp.index() < space.len() {
                f64::from(space.sim(qp, p))
            } else {
                0.0
            };
            sim.clamp(MIN_WEIGHT, 1.0)
        })
        .collect()
}

impl Reference {
    /// Resolves `query` under `decomposition` and enumerates its answers.
    pub fn build(
        graph: &KnowledgeGraph,
        space: &PredicateSpace,
        matcher: &NodeMatcher<'_, &KnowledgeGraph>,
        query: &QueryGraph,
        decomposition: &Decomposition,
        config: &sgq::SgqConfig,
    ) -> Self {
        let subs: Vec<Resolved> = decomposition
            .subqueries
            .iter()
            .map(|sq| {
                let source = query.node(sq.source());
                let sources = match source.name() {
                    Some(name) => matcher.match_name(name),
                    None => matcher.match_nodes_by_type(source.type_label()),
                };
                let constraints = sq.nodes[1..]
                    .iter()
                    .map(|&qn| {
                        let node = query.node(qn);
                        match node.name() {
                            Some(name) => {
                                Constraint::Nodes(matcher.match_name(name).into_iter().collect())
                            }
                            None => Constraint::Types(matcher.type_mask(node.type_label())),
                        }
                    })
                    .collect();
                let ln_w = sq
                    .edges
                    .iter()
                    .map(|&e| {
                        weight_row(graph, space, matcher, &query.edge(e).predicate)
                            .into_iter()
                            .map(f64::ln)
                            .collect()
                    })
                    .collect();
                Resolved {
                    sources: sources.into_iter().collect(),
                    constraints,
                    ln_w,
                    query_nodes: sq.nodes.iter().map(|n| n.0).collect(),
                }
            })
            .collect();
        let mut reference = Self {
            subs,
            k: config.k,
            tau: config.tau,
            n_hat: config.n_hat,
            scores: BTreeMap::new(),
            top: Vec::new(),
        };
        reference.enumerate(graph);
        reference
    }

    fn enumerate(&mut self, graph: &KnowledgeGraph) {
        let mut totals: Option<BTreeMap<NodeId, f64>> = None;
        for sub in &self.subs {
            let mut best: BTreeMap<NodeId, f64> = BTreeMap::new();
            let mut sources: Vec<NodeId> = sub.sources.iter().copied().collect();
            sources.sort();
            for s in sources {
                let mut path = vec![s];
                self.dfs(graph, sub, &mut path, 0, 0, 0.0, &mut best);
            }
            totals = Some(match totals {
                None => best,
                Some(prev) => prev
                    .into_iter()
                    .filter_map(|(p, score)| best.get(&p).map(|&b| (p, score + b)))
                    .collect(),
            });
        }
        self.scores = totals.unwrap_or_default();
        let mut top: Vec<(NodeId, f64)> = self.scores.iter().map(|(&p, &s)| (p, s)).collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(self.k);
        self.top = top;
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        graph: &KnowledgeGraph,
        sub: &Resolved,
        path: &mut Vec<NodeId>,
        seg: usize,
        hops_in_seg: usize,
        log_sum: f64,
        best: &mut BTreeMap<NodeId, f64>,
    ) {
        let segments = sub.constraints.len();
        let budget = (self.n_hat * segments) as f64;
        let u = *path.last().expect("a path holds its source");
        let hops_so_far = path.len() - 1;
        for nb in graph.neighbors(u) {
            if path.contains(&nb.node) {
                continue;
            }
            let hops = hops_in_seg + 1;
            if hops > self.n_hat {
                continue;
            }
            let l = log_sum + sub.ln_w[seg][nb.predicate.index()];
            if (l / budget).exp() < self.tau {
                continue;
            }
            let mut terminal = false;
            if sub.constraints[seg].admits(graph, nb.node) {
                if seg + 1 == segments {
                    terminal = true;
                    let psi = (l / (hops_so_far + 1) as f64).exp();
                    if psi >= self.tau {
                        let slot = best.entry(nb.node).or_insert(psi);
                        if psi > *slot {
                            *slot = psi;
                        }
                    }
                } else {
                    path.push(nb.node);
                    self.dfs(graph, sub, path, seg + 1, 0, l, best);
                    path.pop();
                }
            }
            if !terminal && hops < self.n_hat {
                path.push(nb.node);
                self.dfs(graph, sub, path, seg, hops, l, best);
                path.pop();
            }
        }
    }

    /// Checks that one sub-query match is a simple path of real graph
    /// edges that satisfies the sub-query, and that its reported pss is
    /// the Eq. 6 score of that path and reaches τ.
    fn check_part(
        &self,
        graph: &KnowledgeGraph,
        sub: &Resolved,
        m: &SubMatch,
    ) -> Result<(), String> {
        let hops = m.edges.len();
        if hops == 0 || m.nodes.len() != hops + 1 {
            return Err(format!(
                "malformed path: {} nodes, {hops} edges",
                m.nodes.len()
            ));
        }
        let distinct: HashSet<NodeId> = m.nodes.iter().copied().collect();
        if distinct.len() != m.nodes.len() {
            return Err("path revisits a node".into());
        }
        if m.source != m.nodes[0] || m.pivot != m.nodes[hops] {
            return Err("source or pivot is not a path end".into());
        }
        if !sub.sources.contains(&m.source) {
            return Err(format!("source {:?} is not a φ match", m.source));
        }
        // Segment boundaries: the path positions of the bound query nodes.
        if m.bindings.len() != sub.query_nodes.len() {
            return Err("binding count differs from the sub-query's nodes".into());
        }
        let mut bounds = Vec::with_capacity(m.bindings.len());
        for (&(qn, node), &want) in m.bindings.iter().zip(&sub.query_nodes) {
            if qn != want {
                return Err(format!("binding for query node {qn}, expected {want}"));
            }
            let pos = m
                .nodes
                .iter()
                .position(|&n| n == node)
                .ok_or("a bound node is not on the path")?;
            bounds.push(pos);
        }
        if bounds[0] != 0 || *bounds.last().unwrap_or(&0) != hops {
            return Err("bindings do not span the path".into());
        }
        let mut log_sum = 0.0;
        for seg in 0..sub.constraints.len() {
            let (from, to) = (bounds[seg], bounds[seg + 1]);
            if to <= from || to - from > self.n_hat {
                return Err(format!("segment {seg} spans {from}..{to} beyond n̂"));
            }
            if !sub.constraints[seg].admits(graph, m.nodes[to]) {
                return Err(format!("node ending segment {seg} violates its constraint"));
            }
            for i in from..to {
                let rec = graph
                    .try_edge(m.edges[i])
                    .map_err(|e| format!("edge {:?}: {e}", m.edges[i]))?;
                let (a, b) = (m.nodes[i], m.nodes[i + 1]);
                if !((rec.src == a && rec.dst == b) || (rec.src == b && rec.dst == a)) {
                    return Err(format!(
                        "edge {:?} does not join {a:?} and {b:?}",
                        m.edges[i]
                    ));
                }
                log_sum += sub.ln_w[seg][rec.predicate.index()];
            }
        }
        let psi = (log_sum / hops as f64).exp();
        if (psi - m.pss).abs() > EPS {
            return Err(format!("reported pss {} but the path scores {psi}", m.pss));
        }
        if m.pss < self.tau {
            return Err(format!("pss {} below τ {}", m.pss, self.tau));
        }
        Ok(())
    }

    /// Checks one final match's parts and its Eq. 2 score.
    fn check_match(&self, graph: &KnowledgeGraph, fm: &FinalMatch) -> Result<(), String> {
        if fm.parts.len() != self.subs.len() {
            return Err(format!(
                "{} parts for {} sub-queries",
                fm.parts.len(),
                self.subs.len()
            ));
        }
        for (sub, part) in self.subs.iter().zip(&fm.parts) {
            if part.pivot != fm.pivot {
                return Err("a part ends at another pivot".into());
            }
            self.check_part(graph, sub, part)?;
        }
        let sum: f64 = fm.parts.iter().map(|p| p.pss).sum();
        if (sum - fm.score).abs() > EPS {
            return Err(format!("score {} but parts sum to {sum}", fm.score));
        }
        Ok(())
    }

    fn check_common(&self, graph: &KnowledgeGraph, result: &QueryResult) -> Result<(), String> {
        if result.matches.len() > self.k {
            return Err(format!(
                "{} answers for k = {}",
                result.matches.len(),
                self.k
            ));
        }
        if result.matches.windows(2).any(|w| w[0].score < w[1].score) {
            return Err("scores increase down the list".into());
        }
        let pivots: HashSet<NodeId> = result.matches.iter().map(|m| m.pivot).collect();
        if pivots.len() != result.matches.len() {
            return Err("a pivot is answered twice".into());
        }
        for fm in &result.matches {
            self.check_match(graph, fm)?;
        }
        Ok(())
    }

    /// Problem 1: the answer must be an exact top-k — the oracle's score
    /// list, with every pivot scored as the oracle scores it.
    pub fn check_exact(&self, graph: &KnowledgeGraph, result: &QueryResult) -> Result<(), String> {
        self.check_common(graph, result)?;
        if result.matches.len() != self.top.len() {
            return Err(format!(
                "{} answers, the oracle has {}",
                result.matches.len(),
                self.top.len()
            ));
        }
        for (i, (fm, &(_, want))) in result.matches.iter().zip(&self.top).enumerate() {
            if (fm.score - want).abs() > EPS {
                return Err(format!("answer {i} scores {}, the oracle {want}", fm.score));
            }
            match self.scores.get(&fm.pivot) {
                Some(&s) if (s - fm.score).abs() <= EPS => {}
                Some(&s) => {
                    return Err(format!(
                        "pivot {:?} scores {s} by the oracle, reported {}",
                        fm.pivot, fm.score
                    ))
                }
                None => return Err(format!("pivot {:?} has no oracle match", fm.pivot)),
            }
        }
        Ok(())
    }

    /// Problem 2: every answer is a real match, and the i-th score never
    /// exceeds the i-th exact score.
    pub fn check_bounded(
        &self,
        graph: &KnowledgeGraph,
        result: &QueryResult,
    ) -> Result<(), String> {
        self.check_common(graph, result)?;
        for (i, fm) in result.matches.iter().enumerate() {
            let exact = self.top.get(i).map_or(f64::NEG_INFINITY, |t| t.1);
            if fm.score > exact + EPS {
                return Err(format!(
                    "answer {i} scores {} above the exact {exact}",
                    fm.score
                ));
            }
            match self.scores.get(&fm.pivot) {
                Some(&s) if fm.score <= s + EPS => {}
                _ => {
                    return Err(format!(
                        "pivot {:?} outscores its best oracle match",
                        fm.pivot
                    ))
                }
            }
        }
        Ok(())
    }

    /// Pivots of the exact top-k.
    pub fn top_pivots(&self) -> Vec<NodeId> {
        self.top.iter().map(|t| t.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use datagen::DatasetSpec;
    use kgraph::EdgeId;
    use sgq::{SgqEngine, TimeBoundConfig};

    /// Every corruption of a correct answer must be reported by `check`.
    fn corruptions_are_reported(
        check: impl Fn(&QueryResult) -> Result<(), String>,
        good: &QueryResult,
        graph: &KnowledgeGraph,
    ) {
        assert_eq!(check(good), Ok(()));

        // A lowered score (the path's pss and the total together).
        let mut lowered = good.clone();
        lowered.matches[0].score -= 0.01;
        lowered.matches[0].parts[0].pss -= 0.01;
        assert!(check(&lowered).is_err(), "lowered score passed");

        // Two answers' pivots swapped.
        let mut swapped = good.clone();
        let (a, b) = (swapped.matches[0].pivot, swapped.matches[1].pivot);
        for (fm, p) in swapped.matches.iter_mut().take(2).zip([b, a]) {
            fm.pivot = p;
            for part in &mut fm.parts {
                part.pivot = p;
            }
        }
        assert!(check(&swapped).is_err(), "swapped pivot passed");

        // A path edge that does not join its two nodes.
        let mut fake = good.clone();
        let part = &mut fake.matches[0].parts[0];
        let (u, v) = (part.nodes[0], part.nodes[1]);
        let other = (0..graph.edge_count() as u32)
            .map(EdgeId::new)
            .find(|&e| {
                let r = graph.edge(e);
                !((r.src == u && r.dst == v) || (r.src == v && r.dst == u))
            })
            .expect("the graph has an edge elsewhere");
        part.edges[0] = other;
        assert!(check(&fake).is_err(), "non-existent path edge passed");
    }

    #[test]
    fn exact_and_bounded_checks_fail_on_corrupted_answers() {
        let ds = DatasetSpec::dbpedia_like(1.0).build();
        let space = ds.oracle_space();
        let engine = SgqEngine::new(&ds.graph, &space, &ds.library, data::config());
        let matcher = NodeMatcher::new(&ds.graph, &ds.library);
        let mut covered = 0;
        for q in data::exact_mix(&ds) {
            let res = engine.query(&q.graph).expect("query");
            if res.matches.len() < 2 {
                continue;
            }
            let d = engine.decompose_query(&q.graph).expect("decompose");
            let r = Reference::build(&ds.graph, &space, &matcher, &q.graph, &d, engine.config());
            corruptions_are_reported(|x| r.check_exact(&ds.graph, x), &res, &ds.graph);
            let tbq = engine
                .query_time_bounded(
                    &q.graph,
                    &TimeBoundConfig::with_bound(std::time::Duration::from_secs(5)),
                )
                .expect("bounded query");
            if tbq.matches.len() >= 2 {
                corruptions_are_reported(|x| r.check_bounded(&ds.graph, x), &tbq, &ds.graph);
            }
            covered += 1;
        }
        assert!(covered >= 8, "only {covered} queries had two answers");
    }
}
