//! The benchmark's inputs: one fixed dataset, and each workload's query
//! mix. The run's seed draws the query order, the served request mix and
//! the writer's entity names; the program under test receives only these
//! generated inputs.
//!
//! The dataset itself does not vary with the seed: with a seeded graph the
//! join shapes' p90 moved by up to 10 % between seeds, more than the
//! run-to-run noise the bounds allow.

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{
    chain_query, country_abbreviation, q117_variants, soccer_query, BenchQuery,
};
use embedding::PredicateSpace;
use sgq::{QueryGraph, SgqConfig};

/// DBpedia-like profile scale: large enough that the join shapes take
/// milliseconds, small enough that the oracle enumerates every query in
/// about a second.
pub const SCALE: f64 = 10.0;

/// Anchor countries. Three times the profile's eight, so that a mean over
/// the query mix does not hinge on one or two anchors.
pub const COUNTRIES: usize = 24;

/// The engine configuration of every workload (§VII-A defaults, k = 10).
pub fn config() -> SgqConfig {
    SgqConfig {
        k: 10,
        tau: 0.8,
        n_hat: 4,
        ..SgqConfig::default()
    }
}

/// The generated knowledge graph with its predicate space.
pub struct Inputs {
    pub ds: BenchDataset,
    pub space: PredicateSpace,
}

/// Generator seed of the dataset.
const DATASET_SEED: u64 = 0x5eed_0db0;

/// Generates the dataset.
pub fn inputs() -> Inputs {
    let mut spec = DatasetSpec::dbpedia_like(SCALE);
    spec.seed = DATASET_SEED;
    spec.countries = COUNTRIES;
    let ds = spec.build();
    let space = ds.oracle_space();
    Inputs { ds, space }
}

/// `exact_topk`: every anchor country × {Q117 G1–G4, chain, soccer}. Four
/// single-sub-query shapes to two join shapes per country, so p50 falls in
/// the fast shapes and p90 in the join shapes, each well away from the
/// 67 % boundary between them.
pub fn exact_mix(ds: &BenchDataset) -> Vec<BenchQuery> {
    let mut out = Vec::new();
    for (i, country) in ds.countries.iter().enumerate() {
        out.extend(q117_variants(ds, country));
        out.push(chain_query(ds, i));
        out.push(soccer_query(ds, i).0);
    }
    out
}

/// `tbq_bound`: the chain and soccer join shapes of every anchor country.
pub fn tbq_mix(ds: &BenchDataset) -> Vec<BenchQuery> {
    let mut out = Vec::new();
    for i in 0..ds.countries.len() {
        out.push(chain_query(ds, i));
        out.push(soccer_query(ds, i).0);
    }
    out
}

/// Target-type labels the transformation library maps onto `Automobile`.
const CAR_TYPES: [&str; 5] = ["Automobile", "Car", "Motorcar", "Auto", "Vehicle"];
/// Predicate labels the space or the library resolves to production.
const CAR_PREDICATES: [&str; 4] = ["assembly", "product", "produced", "manufacturer"];

/// `served_churn`: distinct single-sub-query "cars made in a country"
/// graphs — every type synonym × predicate paraphrase × country name or
/// abbreviation. The first `HOT_SET` are the hot set; the rest, more
/// than the answer cache holds, are the cold pool.
pub fn served_pool(ds: &BenchDataset) -> Vec<BenchQuery> {
    let mut out = Vec::new();
    for country in &ds.countries {
        let truth = ds.produced_truth.get(country).cloned().unwrap_or_default();
        for name in [country.clone(), country_abbreviation(country)] {
            for ty in CAR_TYPES {
                for pred in CAR_PREDICATES {
                    let mut q = QueryGraph::new();
                    let auto = q.add_target(ty);
                    let c = q.add_specific(&name, "Country");
                    q.add_edge(auto, pred, c);
                    out.push(BenchQuery {
                        id: format!("{ty}-{pred}@{name}"),
                        graph: q,
                        truth: truth.clone(),
                        complexity: 1,
                        answer_node: auto.0,
                    });
                }
            }
        }
    }
    out
}

/// A deterministic generator (SplitMix64) for query order and request mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}
