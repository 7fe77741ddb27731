//! Pluggable landmark-selection strategies.
//!
//! *Which* vertices become landmarks is the single biggest lever on the
//! quality/size trade-off of the highway-cover labelling: the paper's
//! default ranks vertices by descending degree (high-degree hubs cover the
//! most shortest paths on complex networks), but the wider 2-hop-labelling
//! literature shows coverage-based orderings can buy smaller labels at the
//! cost of a more expensive selection pass. This module makes the choice a
//! first-class, *recorded* parameter:
//!
//! * [`LandmarkSelector`] — the trait a strategy implements. One method,
//!   one contract (see below).
//! * [`DegreeRank`] — the paper's default. Bit-for-bit identical to the
//!   historical hard-coded behaviour (`rank_by_degree` prefix).
//! * [`ApproxCoverage`] — greedy coverage maximisation over sampled BFS
//!   trees, deterministic from a seed.
//! * [`SeededRandom`] — a seeded uniform sample; the baseline every other
//!   strategy should beat in benchmarks.
//! * [`SelectionStrategy`] — a `Copy` tag naming one of the built-in
//!   strategies plus its seed. This is what travels through
//!   [`BuildOptions`](crate::BuildOptions), the CLI (`--strategy
//!   name[:seed]`), and the `.hcl` container header (format v4), so a
//!   persisted index records how its landmarks were chosen and can be
//!   rebuilt identically.
//!
//! # Determinism contract
//!
//! A selector must be a **pure function of the graph and its own
//! configuration** (seed included): same inputs, same output, on every
//! machine and at every thread count. Selection runs once, before the
//! landmark searches, so the builder's byte-identical-across-threads
//! guarantee holds *per strategy* — the built index is a pure function of
//! `(graph, k, strategy)`. The seeded strategies
//! draw from [`SplitMix64`] (`hcl_core::rng`), whose output stream is
//! **frozen** (pinned by a constants test): recorded seeds in v4
//! containers must reproduce identical selections across releases.
//!
//! `select(graph, k)` must return exactly `min(k, n)` **distinct,
//! in-range** vertex ids in importance order (rank 0 first). The build
//! path re-checks this ([`checked_select`]) and panics with a message
//! naming the offending selector, so a buggy pluggable strategy fails
//! loudly instead of corrupting an index.

use hcl_core::rng::SplitMix64;
use hcl_core::{GraphView, VertexId};
use std::fmt;

/// A landmark-selection strategy: picks which vertices anchor the
/// highway-cover labelling.
///
/// Implementations must be deterministic and side-effect free — see the
/// [module docs](self) for the exact contract `select` must uphold. The
/// `Sync` bound lets the builder invoke a selector from its worker scope,
/// so a faulty strategy panics surface exactly like any other build-worker
/// panic.
pub trait LandmarkSelector: Sync {
    /// Short stable name, used in diagnostics.
    fn name(&self) -> &'static str;

    /// Returns exactly `min(k, n)` distinct in-range vertex ids in
    /// importance order (rank 0 = most important). Must be deterministic
    /// in `(graph, self)`.
    fn select(&self, graph: GraphView<'_>, k: usize) -> Vec<VertexId>;
}

/// Runs a selector and validates its output against the trait contract:
/// exactly `min(k, n)` landmarks, all in range, no duplicates.
///
/// # Panics
/// Panics with a message naming the selector if the contract is violated —
/// a broken pluggable strategy must fail the build loudly, not corrupt the
/// rank table.
pub(crate) fn checked_select(
    selector: &dyn LandmarkSelector,
    graph: GraphView<'_>,
    k: usize,
) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let want = k.min(n);
    let landmarks = selector.select(graph, want);
    let name = selector.name();
    assert_eq!(
        landmarks.len(),
        want,
        "landmark selector `{name}` returned {} landmarks, expected {want}",
        landmarks.len()
    );
    let mut seen = vec![false; n];
    for &v in &landmarks {
        assert!(
            (v as usize) < n,
            "landmark selector `{name}` returned out-of-range vertex {v} (n = {n})"
        );
        assert!(
            !seen[v as usize],
            "landmark selector `{name}` returned duplicate vertex {v}"
        );
        seen[v as usize] = true;
    }
    landmarks
}

/// The paper's default: descending degree, ties broken by ascending id.
///
/// Output is **bit-for-bit identical** to the historical hard-coded
/// ranking (`rank_by_degree()[..k]`); it uses `hcl-core`'s partial
/// selection so choosing a few landmarks out of millions of vertices does
/// not pay for a full sort.
#[derive(Clone, Copy, Debug, Default)]
pub struct DegreeRank;

impl LandmarkSelector for DegreeRank {
    fn name(&self) -> &'static str {
        "degree-rank"
    }

    fn select(&self, graph: GraphView<'_>, k: usize) -> Vec<VertexId> {
        graph.top_k_by_degree(k)
    }
}

/// How many BFS trees [`ApproxCoverage`] samples (clamped to `n`). Enough
/// that a single unlucky root cannot dominate the estimate, small enough
/// that selection stays a fraction of the labelling cost.
const COVERAGE_SAMPLES: usize = 16;

/// Greedy shortest-path-coverage maximisation over sampled BFS trees —
/// the coverage-ordering family from the pruned-landmark-labelling
/// literature, made cheap by sampling.
///
/// Selection samples [`COVERAGE_SAMPLES`] distinct BFS roots (seeded, so
/// the choice is reproducible) and materialises their shortest-path trees.
/// A vertex `v` *covers* a sampled root-to-`w` shortest path if `v` lies
/// on it; each greedy round picks the vertex covering the most not-yet-
/// covered sampled paths (ties by ascending id), then marks its paths
/// covered. Rounds recompute marginal coverage with two linear passes per
/// tree, so selection costs `O(k · samples · n)` plus the sampled BFS —
/// deterministic in `(graph, seed)`. When every sampled path is covered
/// before `k` landmarks are chosen (tiny or fragmented graphs), the
/// remainder falls back to degree ranking, keeping the output well-defined.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApproxCoverage {
    /// RNG seed for the sampled BFS roots; recorded in the container
    /// header so a persisted index can be rebuilt identically.
    pub seed: u64,
}

impl LandmarkSelector for ApproxCoverage {
    fn name(&self) -> &'static str {
        "approx-coverage"
    }

    fn select(&self, graph: GraphView<'_>, k: usize) -> Vec<VertexId> {
        let n = graph.num_vertices();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        const NONE: u32 = u32::MAX;

        // Distinct sampled roots, deterministic in the seed.
        let samples = COVERAGE_SAMPLES.min(n);
        let mut rng = SplitMix64::new(self.seed);
        let mut is_root = vec![false; n];
        let mut roots: Vec<VertexId> = Vec::with_capacity(samples);
        while roots.len() < samples {
            let r = rng.next_below(n as u64) as usize;
            if !is_root[r] {
                is_root[r] = true;
                roots.push(r as VertexId);
            }
        }

        // One BFS tree per root: discovery order + parent pointers. The
        // order doubles as the traversal for the per-round passes below
        // (parents precede children in it).
        let mut trees: Vec<(Vec<VertexId>, Vec<u32>)> = Vec::with_capacity(samples);
        for &root in &roots {
            let mut parent = vec![NONE; n];
            let mut visited = vec![false; n];
            let mut order = Vec::new();
            visited[root as usize] = true;
            order.push(root);
            let mut head = 0;
            while head < order.len() {
                let v = order[head];
                head += 1;
                for &w in graph.neighbors(v) {
                    if !visited[w as usize] {
                        visited[w as usize] = true;
                        parent[w as usize] = v;
                        order.push(w);
                    }
                }
            }
            trees.push((order, parent));
        }

        // Greedy rounds. Per tree: a forward pass marks vertices whose
        // root path is already covered (passes through a selected vertex),
        // a reverse pass sums uncovered-subtree sizes — vertex `v`'s
        // marginal gain is the number of still-uncovered sampled paths
        // through `v`.
        let mut selected = vec![false; n];
        let mut covered = vec![false; n];
        let mut count = vec![0u64; n];
        let mut total = vec![0u64; n];
        let mut out: Vec<VertexId> = Vec::with_capacity(k);
        while out.len() < k {
            total.iter_mut().for_each(|t| *t = 0);
            for (order, parent) in &trees {
                for &v in order {
                    let vi = v as usize;
                    let p = parent[vi];
                    covered[vi] = selected[vi] || (p != NONE && covered[p as usize]);
                    count[vi] = u64::from(!covered[vi]);
                }
                for &v in order.iter().rev() {
                    let vi = v as usize;
                    total[vi] += count[vi];
                    let p = parent[vi];
                    if p != NONE {
                        count[p as usize] += count[vi];
                    }
                }
            }
            // Ascending scan with a strict comparison ties to the smallest
            // id, matching the determinism convention of the degree ranking.
            let (mut best_gain, mut best_v) = (0u64, 0usize);
            for (v, &t) in total.iter().enumerate() {
                if !selected[v] && t > best_gain {
                    best_gain = t;
                    best_v = v;
                }
            }
            if best_gain == 0 {
                break; // every sampled path covered; fall back below
            }
            selected[best_v] = true;
            out.push(best_v as VertexId);
        }
        // Fallback for the covered-out tail: degree ranking keeps the
        // result a well-defined permutation prefix. The top-k prefix
        // always suffices — at most `out.len()` of its entries are
        // already selected, leaving the `k - out.len()` still needed in
        // the same order a full ranking would yield them.
        if out.len() < k {
            for v in graph.top_k_by_degree(k) {
                if out.len() == k {
                    break;
                }
                if !selected[v as usize] {
                    selected[v as usize] = true;
                    out.push(v);
                }
            }
        }
        out
    }
}

/// Seeded uniform random selection — the baseline strategy for
/// benchmarking what degree or coverage ranking actually buys.
///
/// A partial Fisher–Yates shuffle of the vertex ids driven by
/// [`SplitMix64`], deterministic in `(n, seed)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeededRandom {
    /// Shuffle seed; recorded in the container header.
    pub seed: u64,
}

impl LandmarkSelector for SeededRandom {
    fn name(&self) -> &'static str {
        "seeded-random"
    }

    fn select(&self, graph: GraphView<'_>, k: usize) -> Vec<VertexId> {
        let n = graph.num_vertices();
        let k = k.min(n);
        let mut rng = SplitMix64::new(self.seed);
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        for i in 0..k {
            let j = i + rng.next_below((n - i) as u64) as usize;
            perm.swap(i, j);
        }
        perm.truncate(k);
        perm
    }
}

/// A named, seeded landmark-selection strategy — the `Copy` tag that
/// travels through [`BuildOptions`](crate::BuildOptions), the CLI
/// (`--strategy name[:seed]`), and the `.hcl` container header.
///
/// The canonical spelling (produced by `Display`, accepted by
/// [`SelectionStrategy::parse`]) is `degree-rank`,
/// `approx-coverage:<seed>`, and `seeded-random:<seed>`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Descending-degree ranking (the paper's default; see [`DegreeRank`]).
    #[default]
    DegreeRank,
    /// Greedy coverage over sampled BFS trees (see [`ApproxCoverage`]).
    ApproxCoverage {
        /// Seed for the sampled BFS roots.
        seed: u64,
    },
    /// Seeded uniform random baseline (see [`SeededRandom`]).
    SeededRandom {
        /// Shuffle seed.
        seed: u64,
    },
}

impl SelectionStrategy {
    /// The environment variable consulted when no explicit strategy is
    /// given (same `name[:seed]` syntax as the CLI flag), mirroring
    /// `HCL_BUILD_THREADS` for the thread count.
    pub const ENV_VAR: &'static str = "HCL_BUILD_STRATEGY";

    /// Stable on-disk discriminant, written to the v4 container header.
    pub fn tag(&self) -> u32 {
        match self {
            Self::DegreeRank => 0,
            Self::ApproxCoverage { .. } => 1,
            Self::SeededRandom { .. } => 2,
        }
    }

    /// The recorded seed (0 for the seedless [`DegreeRank`]).
    pub fn seed(&self) -> u64 {
        match *self {
            Self::DegreeRank => 0,
            Self::ApproxCoverage { seed } | Self::SeededRandom { seed } => seed,
        }
    }

    /// Reconstructs a strategy from its on-disk `(tag, seed)` pair; `None`
    /// for an unknown tag (a newer file than this reader).
    pub fn from_tag(tag: u32, seed: u64) -> Option<Self> {
        match tag {
            0 => Some(Self::DegreeRank),
            1 => Some(Self::ApproxCoverage { seed }),
            2 => Some(Self::SeededRandom { seed }),
            _ => None,
        }
    }

    /// Parses the CLI / env-var spelling `name[:seed]`.
    ///
    /// Accepted names: `degree-rank` (no seed), `approx-coverage`, and
    /// `seeded-random` (seed optional, default 0).
    pub fn parse(text: &str) -> Result<Self, String> {
        let (name, seed) = match text.split_once(':') {
            Some((name, seed)) => (name, Some(seed)),
            None => (text, None),
        };
        let parse_seed = |seed: Option<&str>| -> Result<u64, String> {
            match seed {
                None => Ok(0),
                Some(tok) => tok.parse().map_err(|_| {
                    format!("invalid seed `{tok}` in strategy `{text}` (expected a non-negative integer)")
                }),
            }
        };
        match name {
            "degree-rank" => match seed {
                None => Ok(Self::DegreeRank),
                Some(_) => Err(format!(
                    "strategy `degree-rank` takes no seed (got `{text}`)"
                )),
            },
            "approx-coverage" => Ok(Self::ApproxCoverage {
                seed: parse_seed(seed)?,
            }),
            "seeded-random" => Ok(Self::SeededRandom {
                seed: parse_seed(seed)?,
            }),
            _ => Err(format!(
                "unknown landmark-selection strategy `{name}` (expected degree-rank, \
                 approx-coverage[:seed], or seeded-random[:seed])"
            )),
        }
    }

    /// Strategy requested via [`SelectionStrategy::ENV_VAR`], or `None`
    /// when the variable is unset or does not parse.
    ///
    /// Unlike `HCL_BUILD_THREADS` — where an invalid value can only cost
    /// speed — a mistyped strategy would silently change *which index gets
    /// built and persisted*, so an unparseable value is reported on stderr
    /// (once per process; resolution runs on every build) before falling
    /// back to the default.
    pub fn from_env() -> Option<Self> {
        let value = std::env::var(Self::ENV_VAR).ok()?;
        match Self::parse(&value) {
            Ok(strategy) => Some(strategy),
            Err(e) => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: ignoring invalid {} value: {e}; using the default strategy",
                        Self::ENV_VAR
                    );
                });
                None
            }
        }
    }

    /// The selector implementation this tag names.
    pub fn selector(&self) -> Box<dyn LandmarkSelector> {
        match *self {
            Self::DegreeRank => Box::new(DegreeRank),
            Self::ApproxCoverage { seed } => Box::new(ApproxCoverage { seed }),
            Self::SeededRandom { seed } => Box::new(SeededRandom { seed }),
        }
    }
}

impl fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::DegreeRank => write!(f, "degree-rank"),
            Self::ApproxCoverage { seed } => write!(f, "approx-coverage:{seed}"),
            Self::SeededRandom { seed } => write!(f, "seeded-random:{seed}"),
        }
    }
}

impl std::str::FromStr for SelectionStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;

    fn assert_valid_selection(graph: GraphView<'_>, k: usize, got: &[VertexId]) {
        let n = graph.num_vertices();
        assert_eq!(got.len(), k.min(n));
        let mut seen = vec![false; n];
        for &v in got {
            assert!((v as usize) < n, "out-of-range landmark {v}");
            assert!(!seen[v as usize], "duplicate landmark {v}");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn degree_rank_matches_the_historical_ranking() {
        for (n, m, seed) in [(40, 2, 1), (64, 3, 9)] {
            let g = testkit::barabasi_albert(n, m, seed);
            for k in [0, 1, 5, n, n + 10] {
                let got = DegreeRank.select(g.as_view(), k);
                assert_eq!(got, g.rank_by_degree()[..k.min(n)], "k={k}");
            }
        }
    }

    #[test]
    fn every_strategy_returns_valid_deterministic_selections() {
        let graphs = [
            testkit::path(1),
            testkit::star(12),
            testkit::barabasi_albert(60, 3, 4),
            testkit::disjoint_union(&testkit::grid(3, 3), &testkit::cycle(5)),
            hcl_core::GraphBuilder::new().build(),
        ];
        let selectors: [Box<dyn LandmarkSelector>; 3] = [
            Box::new(DegreeRank),
            Box::new(ApproxCoverage { seed: 7 }),
            Box::new(SeededRandom { seed: 7 }),
        ];
        for g in &graphs {
            for s in &selectors {
                for k in [0usize, 1, 4, 100] {
                    let a = s.select(g.as_view(), k.min(g.num_vertices()));
                    assert_valid_selection(g.as_view(), k, &a);
                    let b = s.select(g.as_view(), k.min(g.num_vertices()));
                    assert_eq!(a, b, "{} must be deterministic", s.name());
                }
            }
        }
    }

    #[test]
    fn approx_coverage_prefers_the_star_centre() {
        // Every sampled shortest path in a star runs through the centre;
        // greedy coverage must pick it first.
        let g = testkit::star(24);
        let got = ApproxCoverage { seed: 0 }.select(g.as_view(), 1);
        assert_eq!(got, vec![0]);
        // And the seed changes later (tie-ish) picks, not validity.
        let many = ApproxCoverage { seed: 3 }.select(g.as_view(), 5);
        assert_valid_selection(g.as_view(), 5, &many);
        assert_eq!(many[0], 0);
    }

    #[test]
    fn seeded_random_differs_by_seed_but_not_by_call() {
        let g = testkit::cycle(50);
        let a = SeededRandom { seed: 1 }.select(g.as_view(), 10);
        let b = SeededRandom { seed: 2 }.select(g.as_view(), 10);
        assert_ne!(a, b, "different seeds should give different samples");
    }

    #[test]
    fn strategy_spelling_round_trips() {
        for s in [
            SelectionStrategy::DegreeRank,
            SelectionStrategy::ApproxCoverage { seed: 42 },
            SelectionStrategy::SeededRandom { seed: u64::MAX },
        ] {
            assert_eq!(SelectionStrategy::parse(&s.to_string()), Ok(s));
            assert_eq!(
                SelectionStrategy::from_tag(s.tag(), s.seed()),
                Some(s),
                "tag/seed must round-trip"
            );
        }
        // Seedless spellings default the seed to 0.
        assert_eq!(
            SelectionStrategy::parse("approx-coverage"),
            Ok(SelectionStrategy::ApproxCoverage { seed: 0 })
        );
        assert_eq!(
            SelectionStrategy::parse("seeded-random"),
            Ok(SelectionStrategy::SeededRandom { seed: 0 })
        );
        assert!(SelectionStrategy::parse("degree-rank:3").is_err());
        assert!(SelectionStrategy::parse("betweenness").is_err());
        assert!(SelectionStrategy::parse("seeded-random:xyz").is_err());
        assert_eq!(SelectionStrategy::from_tag(9, 0), None);
    }

    #[test]
    fn checked_select_rejects_contract_violations() {
        struct Bad(Vec<VertexId>);
        impl LandmarkSelector for Bad {
            fn name(&self) -> &'static str {
                "bad"
            }
            fn select(&self, _: GraphView<'_>, _: usize) -> Vec<VertexId> {
                self.0.clone()
            }
        }
        let g = testkit::path(4);
        for (bad, what) in [
            (Bad(vec![0]), "wrong length"),
            (Bad(vec![0, 9]), "out of range"),
            (Bad(vec![1, 1]), "duplicate"),
        ] {
            let err =
                std::panic::catch_unwind(|| checked_select(&bad, g.as_view(), 2)).expect_err(what);
            let msg = err
                .downcast_ref::<String>()
                .expect("panic message is a String");
            assert!(msg.contains("landmark selector `bad`"), "{what}: {msg}");
        }
    }
}
