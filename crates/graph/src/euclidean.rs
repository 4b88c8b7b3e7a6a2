//! Euclidean minimum spanning trees with maximum degree 5.
//!
//! The paper's constructions all operate on "an arbitrary minimum weight
//! spanning tree (MST) induced when edges between any two points are weighted
//! by their corresponding Euclidean distance", and use the well-known fact
//! that **an MST of maximum degree 5 always exists**.  In exact arithmetic,
//! any Euclidean MST already has maximum degree ≤ 6, and degree 6 only occurs
//! when six neighbours sit at exactly 60° from each other at identical
//! distances; a local exchange (replace one of the two tied star edges by the
//! equally long edge between the two neighbours) removes the tie without
//! increasing the weight.  [`EuclideanMst::build`] runs one of two engines
//! followed by that repair pass, and the test-suite checks the degree bound
//! on adversarial inputs (hexagonal lattices) as well as random ones.
//!
//! # Engines
//!
//! Two interchangeable MST engines produce the spanning edges (see
//! [`MstEngine`]):
//!
//! * **Dense Prim** — the classic O(n²)-time, O(n)-memory pass over the
//!   complete Euclidean graph.  Unbeatable for small inputs (no spatial index
//!   to build) and kept as the *oracle* the kd-tree engine is property-tested
//!   against.
//! * **Kd-tree Borůvka** — Borůvka rounds whose "cheapest outgoing edge per
//!   component" queries run as nearest-foreign-component searches against a
//!   [`KdIndex`], renumbered into its own preorder so every round reads its
//!   arrays in spatial order.  O(n log n)-class on typical inputs: each of
//!   the O(log n) rounds performs n pruned nearest-neighbour queries, which
//!   skip whole subtrees inside the querying component, and on multi-core
//!   hosts both the index construction and the per-round scans fan out over
//!   worker threads (see [`EuclideanMst::build_with_engine_threads`]) while
//!   producing bit-identical trees at every thread count.
//!
//! Each engine breaks weight ties deterministically — dense Prim prefers the
//! lexicographically smaller `(target, source)` pair, the Borůvka engine a
//! total order on edges (weight, then smaller endpoint, then larger
//! endpoint) — so each computes a true MST even on degenerate inputs.  The
//! two orders differ, so the *trees* may differ on tied inputs; but since
//! **every** MST of a graph has the same multiset of edge weights, the
//! engines always agree on `total_weight` and `lmax`, which is exactly what
//! the cross-engine property tests assert.
//!
//! [`EuclideanMst::build`] selects the engine by input size (the
//! [`KDTREE_CROSSOVER`] threshold); `build_with_engine` pins one explicitly.

use crate::graph::{Edge, Graph};
use crate::union_find::UnionFind;
use antennae_geometry::angular::{circular_gaps, sort_ccw};
use antennae_geometry::{ComponentView, KdIndex, Point};
use antennae_parallel::{chunk_ranges, default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Maximum vertex degree the orientation algorithms assume (`Δ(T) ≤ 5`).
pub const MAX_MST_DEGREE: usize = 5;

/// Input size at which [`MstEngine::Auto`] switches from dense Prim to the
/// kd-tree Borůvka engine.
///
/// Below this size the O(n²) pass is faster in practice because it builds no
/// spatial index and touches memory linearly.  The `mst_scaling` criterion
/// bench in `antennae-bench` tracks the real crossover; on container
/// hardware dense Prim wins at n = 500 (1.04 ms vs 1.35 ms) and loses from
/// n = 1000 (3.66 ms vs 3.00 ms), so the threshold sits between those
/// points.  Misclassifying slightly is cheap near the crossover (tens of
/// percent on sub-millisecond builds) and expensive far above it
/// (quadratic vs quasi-linear), which is why it leans low.
pub const KDTREE_CROSSOVER: usize = 768;

/// Which algorithm produces the spanning edges of a [`EuclideanMst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MstEngine {
    /// Pick by input size: dense Prim below [`KDTREE_CROSSOVER`] points,
    /// kd-tree Borůvka at or above it.
    Auto,
    /// The O(n²) dense Prim pass (also the property-test oracle).
    DensePrim,
    /// Borůvka rounds over kd-tree nearest-foreign-component queries,
    /// O(n log n)-class on typical inputs.
    KdTreeBoruvka,
}

impl Default for MstEngine {
    /// `Auto`, so that payloads serialized before the engine field existed
    /// (and builders that don't care) get size-based selection.
    fn default() -> Self {
        MstEngine::Auto
    }
}

impl MstEngine {
    /// The concrete engine `Auto` resolves to for an input of `n` points.
    pub fn resolve(self, n: usize) -> MstEngine {
        match self {
            MstEngine::Auto => {
                if n >= KDTREE_CROSSOVER {
                    MstEngine::KdTreeBoruvka
                } else {
                    MstEngine::DensePrim
                }
            }
            other => other,
        }
    }
}

/// Errors that can occur while building a Euclidean MST.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmstError {
    /// The input point set was empty.
    EmptyPointSet,
    /// The degree-repair pass failed to reduce the maximum degree to 5.
    ///
    /// This cannot happen for point sets in general position; it is reported
    /// rather than panicking so that degenerate inputs fail loudly.
    DegreeRepairFailed {
        /// The maximum degree that remained after the repair pass.
        remaining_max_degree: usize,
    },
}

impl std::fmt::Display for EmstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmstError::EmptyPointSet => write!(f, "cannot build an MST over an empty point set"),
            EmstError::DegreeRepairFailed {
                remaining_max_degree,
            } => write!(
                f,
                "failed to reduce the MST maximum degree to {MAX_MST_DEGREE} (still {remaining_max_degree})"
            ),
        }
    }
}

impl std::error::Error for EmstError {}

/// A Euclidean MST over a point set, with maximum degree at most 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EuclideanMst {
    points: Vec<Point>,
    tree: Graph,
    lmax: f64,
    #[serde(default)]
    engine: MstEngine,
}

impl EuclideanMst {
    /// Builds the Euclidean MST of `points` and repairs it to maximum degree
    /// 5, selecting the engine by input size ([`MstEngine::Auto`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use antennae_geometry::Point;
    /// use antennae_graph::euclidean::EuclideanMst;
    ///
    /// let points = vec![
    ///     Point::new(0.0, 0.0),
    ///     Point::new(3.0, 4.0),
    ///     Point::new(3.0, 5.0),
    /// ];
    /// let mst = EuclideanMst::build(&points)?;
    /// assert_eq!(mst.edges().len(), 2);
    /// // The longest edge (0,0)–(3,4) normalises every radius guarantee.
    /// assert!((mst.lmax() - 5.0).abs() < 1e-12);
    /// assert!(mst.max_degree() <= 5);
    /// # Ok::<(), antennae_graph::euclidean::EmstError>(())
    /// ```
    pub fn build(points: &[Point]) -> Result<Self, EmstError> {
        Self::build_with_engine(points, MstEngine::Auto)
    }

    /// Builds the Euclidean MST of `points` with an explicitly chosen engine,
    /// using [`antennae_parallel::default_threads`] worker threads for the
    /// kd-tree engine's build pipeline.
    ///
    /// `MstEngine::DensePrim` runs in O(n²) time and O(n) additional memory;
    /// `MstEngine::KdTreeBoruvka` in O(n log n)-class time.  Both produce a
    /// genuine MST (identical `total_weight` and `lmax`; the trees themselves
    /// may differ on tied edge weights).
    pub fn build_with_engine(points: &[Point], engine: MstEngine) -> Result<Self, EmstError> {
        Self::build_with_engine_threads(points, engine, default_threads())
    }

    /// [`EuclideanMst::build_with_engine`] with an explicit worker-thread
    /// count for the kd-tree engine (index construction and the per-round
    /// Borůvka scans fan out; dense Prim and the degree-repair pass are
    /// serial at every thread count).
    ///
    /// The result is **bit-identical** for every `threads` value: the
    /// parallel kd-tree build produces the same logical tree as the serial
    /// one, kd queries are layout-independent pure functions of the point
    /// set, and each Borůvka round's per-component minimum under the
    /// tie-broken total order does not depend on how the scan is chunked.
    /// The `parallel_build_oracle` integration suite in `antennae-core`
    /// pins this equality end-to-end (MST, scheme, digraph, report).
    pub fn build_with_engine_threads(
        points: &[Point],
        engine: MstEngine,
        threads: usize,
    ) -> Result<Self, EmstError> {
        if points.is_empty() {
            return Err(EmstError::EmptyPointSet);
        }
        let n = points.len();
        let resolved = engine.resolve(n);
        let spanning = if n > 1 {
            match resolved {
                MstEngine::DensePrim => dense_prim(points),
                MstEngine::KdTreeBoruvka => kd_boruvka(points, threads),
                MstEngine::Auto => unreachable!("resolve() returns a concrete engine"),
            }
        } else {
            Vec::new()
        };
        Self::assemble(points, &spanning, resolved)
    }

    /// Shared tail of every engine path: assemble the spanning edges into a
    /// canonical tree (adjacency sorted before *and* after the degree-repair
    /// pass, so the result depends only on the spanning edge **set**, never
    /// on the order an engine discovered the edges in) and validate the
    /// degree bound.  The sharded stitched builder (`crate::sharded`) feeds
    /// its boundary-merged edge set through this same tail, which is what
    /// makes it bit-identical to the global build.
    pub(crate) fn assemble(
        points: &[Point],
        spanning: &[Edge],
        engine: MstEngine,
    ) -> Result<Self, EmstError> {
        if points.is_empty() {
            return Err(EmstError::EmptyPointSet);
        }
        let mut tree = Graph::new(points.len());
        for e in spanning {
            tree.add_edge(e.u, e.v, e.weight);
        }
        tree.sort_adjacency();
        repair_degree(points, &mut tree);
        tree.sort_adjacency();
        let max_degree = tree.max_degree();
        if max_degree > MAX_MST_DEGREE {
            return Err(EmstError::DegreeRepairFailed {
                remaining_max_degree: max_degree,
            });
        }
        let lmax = tree.max_edge_weight();
        Ok(EuclideanMst {
            points: points.to_vec(),
            tree,
            lmax,
            engine,
        })
    }

    /// Wraps an already-computed spanning tree as a [`EuclideanMst`] without
    /// re-running an engine — the materialization hook of the incremental
    /// engine ([`crate::dynamic::DynamicEmst`]).
    ///
    /// The caller asserts that `tree` is a genuine Euclidean MST over
    /// `points`; only the degree bound is re-validated here (the incremental
    /// engine's repair pass mirrors the static one, so a violation means a
    /// bug upstream).  `lmax` is derived from the tree, and the engine field
    /// reports [`MstEngine::Auto`] ("provenance unknown"), matching the
    /// contract for payloads that predate the engine field.
    pub fn from_precomputed(points: Vec<Point>, mut tree: Graph) -> Result<Self, EmstError> {
        if points.is_empty() {
            return Err(EmstError::EmptyPointSet);
        }
        // Same canonical neighbour order as the engine paths (a no-op for
        // the incremental engine, whose materialization already inserts
        // edges in ascending order).
        tree.sort_adjacency();
        let max_degree = tree.max_degree();
        if max_degree > MAX_MST_DEGREE {
            return Err(EmstError::DegreeRepairFailed {
                remaining_max_degree: max_degree,
            });
        }
        let lmax = tree.max_edge_weight();
        Ok(EuclideanMst {
            points,
            tree,
            lmax,
            engine: MstEngine::Auto,
        })
    }

    /// Returns a copy of the tree with every coordinate and edge length
    /// divided by `divisor` (which must be positive and finite).
    ///
    /// A Euclidean MST's topology is scale-invariant, so no rebuild is
    /// needed: the edge set is preserved exactly and only the lengths
    /// change.  Dividing each stored weight `w` by `divisor` makes
    /// `rescaled(lmax).lmax() == 1.0` *exact* (`x/x == 1.0` for any finite
    /// positive `x`), which is what `Instance::normalized` relies on.  Note
    /// the rescaled weights may differ by an ulp from distances recomputed
    /// from the rescaled coordinates — `(xu − xv)/d` is not bit-identical
    /// to `xu/d − xv/d` in floating point — so don't assert exact equality
    /// between the two.
    pub fn rescaled(&self, divisor: f64) -> EuclideanMst {
        assert!(
            divisor.is_finite() && divisor > 0.0,
            "rescale divisor must be positive and finite"
        );
        let points: Vec<Point> = self
            .points
            .iter()
            .map(|p| Point::new(p.x / divisor, p.y / divisor))
            .collect();
        let mut tree = self.tree.clone();
        tree.map_weights(|w| w / divisor);
        EuclideanMst {
            points,
            tree,
            lmax: self.lmax / divisor,
            engine: self.engine,
        }
    }

    /// The engine that produced this tree.
    ///
    /// Freshly built trees always report a concrete engine
    /// ([`MstEngine::Auto`] is resolved before building); only a tree
    /// deserialized from a payload predating the engine field reports the
    /// [`MstEngine::default`] of `Auto`, meaning "provenance unknown".
    pub fn engine(&self) -> MstEngine {
        self.engine
    }

    /// The underlying point set (indices of the tree refer to this slice).
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The tree as an undirected weighted graph.
    pub fn tree(&self) -> &Graph {
        &self.tree
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the MST has no vertices.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The longest edge of the MST (`lmax`), the paper's lower bound on the
    /// antenna range needed for connectivity.  Zero for a single point.
    pub fn lmax(&self) -> f64 {
        self.lmax
    }

    /// Total weight of the tree.
    pub fn total_weight(&self) -> f64 {
        self.tree.total_weight()
    }

    /// Degree of vertex `v` in the tree.
    pub fn degree(&self, v: usize) -> usize {
        self.tree.degree(v)
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.tree.max_degree()
    }

    /// Neighbours of `v` in the tree (with edge lengths).
    pub fn neighbors(&self, v: usize) -> &[(usize, f64)] {
        self.tree.neighbors(v)
    }

    /// Edges of the tree.
    pub fn edges(&self) -> Vec<Edge> {
        self.tree.edges()
    }

    /// Indices of the degree-one vertices (leaves).  Every tree with ≥ 2
    /// vertices has at least two.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.len()).filter(|&v| self.degree(v) == 1).collect()
    }

    /// The minimum interior angle (radians) between two tree edges sharing a
    /// vertex, over all such pairs — Fact 1(1) of the paper states that this
    /// is at least π/3 for a true MST.  Returns `None` when no vertex has two
    /// or more neighbours.
    pub fn min_adjacent_edge_angle(&self) -> Option<f64> {
        let mut min_angle: Option<f64> = None;
        for v in 0..self.len() {
            let neighbors: Vec<Point> = self
                .neighbors(v)
                .iter()
                .map(|&(u, _)| self.points[u])
                .collect();
            if neighbors.len() < 2 {
                continue;
            }
            let sorted = sort_ccw(&self.points[v], &neighbors);
            let gaps = circular_gaps(&sorted);
            // Adjacent-edge angles are the circular gaps; exclude the single
            // "wrap-around" gap only when there are exactly 2 neighbours
            // (both gaps are genuine angles then as well, so keep all).
            for g in gaps {
                if min_angle.is_none_or(|m| g < m) {
                    min_angle = Some(g);
                }
            }
        }
        min_angle
    }
}

/// Dense Prim over the complete Euclidean graph: O(n²) time, O(n) memory.
///
/// Ties between equal candidate distances are broken by preferring the
/// lexicographically smaller `(target, source)` pair, which keeps the tree
/// deterministic and helps avoid the degree-6 tie configurations.
fn dense_prim(points: &[Point]) -> Vec<Edge> {
    let n = points.len();
    let mut in_tree = vec![false; n];
    // best_dist[v] = squared distance from v to the tree, best_from[v] = the
    // tree vertex realising it.
    let mut best_dist = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut edges = Vec::with_capacity(n - 1);

    in_tree[0] = true;
    for v in 1..n {
        best_dist[v] = points[0].distance_squared(&points[v]);
        best_from[v] = 0;
    }
    for _ in 1..n {
        // Pick the unvisited vertex closest to the tree.
        let mut pick = usize::MAX;
        for v in 0..n {
            if in_tree[v] {
                continue;
            }
            if pick == usize::MAX
                || best_dist[v] < best_dist[pick]
                || (best_dist[v] == best_dist[pick] && v < pick)
            {
                pick = v;
            }
        }
        let from = best_from[pick];
        edges.push(Edge::new(from, pick, points[from].distance(&points[pick])));
        in_tree[pick] = true;
        // Relax the remaining vertices.
        for v in 0..n {
            if in_tree[v] {
                continue;
            }
            let d = points[pick].distance_squared(&points[v]);
            if d < best_dist[v] || (d == best_dist[v] && pick < best_from[v]) {
                best_dist[v] = d;
                best_from[v] = pick;
            }
        }
    }
    edges
}

/// Smallest input for which a Borůvka round's scan is worth fanning out;
/// below this the thread-scope setup dwarfs the queries themselves.
pub(crate) const PARALLEL_BORUVKA_MIN: usize = 4096;

/// A candidate edge as `(weight, min id, max id)`, compared by
/// [`edge_order`].  The ids are the points' indices in the caller's slice,
/// not their positions in the kd preorder the rounds run in, so the tie
/// order never depends on the index's layout.
pub(crate) type Candidate = (f64, u32, u32);

/// What one scan over a slice of the component-grouped vertex order found:
/// `(root, candidate)` winners, one per contiguous same-root run in the
/// slice, and `(v, nearest foreigner)` facts for the cross-round cache.
pub(crate) type RunScan = (Vec<(u32, Candidate)>, Vec<(u32, (u32, f64))>);

/// The empty slot of the cross-round nearest-foreigner cache.
const NOT_CACHED: u32 = u32::MAX;

/// What a Borůvka round shows its scans.  Vertices are positions in the kd
/// preorder (see [`KdIndex::renumber`]).
pub(crate) struct Round<'a> {
    /// Every vertex's component root.
    pub labels: &'a [u32],
    /// `labels` in node order, with each subtree's uniform label, for
    /// [`KdIndex::nearest_foreign_within`].
    pub view: &'a ComponentView,
    /// `cache[v]`: v's exact nearest foreigner `(vertex, distance)` from an
    /// earlier round, or [`NOT_CACHED`].
    pub cache: &'a [(u32, f64)],
    /// The id of each vertex, for [`candidate`].
    pub ids: &'a [u32],
}

/// The candidate edge between vertices `v` and `u` at distance `d`, keyed
/// by their ids.
pub(crate) fn candidate(ids: &[u32], d: f64, v: usize, u: usize) -> Candidate {
    let (a, b) = (ids[v], ids[u]);
    (d, a.min(b), a.max(b))
}

/// Kd-tree Borůvka over the implicit complete Euclidean graph.
///
/// The index is built once and renumbered into its node order (the
/// preorder of the median partition), and the rounds run over a copy of
/// the points in that order, so union-find, labels, cache and coordinates
/// are all read in spatial order.  Each round asks the kd-tree for every
/// vertex's nearest *foreign* point ([`KdIndex::nearest_foreign_within`]),
/// keeps the minimal candidate edge per component and merges (see
/// [`boruvka_rounds`]).  Because the kd-tree breaks distance ties towards
/// the smaller *original* index, and candidates are keyed by original
/// indices, each component's winner is *the* minimum outgoing edge under
/// [`edge_order`] — the renumbering never reaches the tie order.  That makes
/// the procedure the plain Borůvka algorithm on a graph with all-distinct
/// (tie-perturbed) weights: no cycles form, and the result is the unique
/// MST under that order even for duplicate points and exact-tie lattices.
/// With `threads > 1` the index build and every round's scan fan out, and
/// every thread count yields the identical edge list, bit for bit.  The
/// edges come back in original indices.
pub(crate) fn kd_boruvka(points: &[Point], threads: usize) -> Vec<Edge> {
    let mut index = KdIndex::build_with_threads(points, threads);
    let ordered = index.renumber(points);
    let (edges, _) = boruvka_rounds(&index, threads, |round, order| {
        let nearest = |v: usize, root: u32, bound: f64| {
            index.nearest_foreign_within(&ordered, &ordered[v], [(round.view, root)], bound)
        };
        scan_runs(round, order, |_, _| None, nearest)
    });
    edges
}

/// `positions(ids)[id]` is the position holding `id`: the inverse of
/// [`KdIndex::ids`].
pub(crate) fn positions(ids: &[u32]) -> Vec<u32> {
    let mut at = vec![0u32; ids.len()];
    for (pos, &id) in ids.iter().enumerate() {
        at[id as usize] = pos as u32;
    }
    at
}

/// The Borůvka round loop shared by the kd engine and the sharded stitch
/// (`crate::sharded`); the callers differ only in their `scan` closure.
/// `index` must be renumbered ([`KdIndex::renumber`]): the rounds run over
/// its positions.  Returns the spanning edges, in original indices, and the
/// number of rounds.
///
/// Each round:
/// 1. relabels every vertex with its component root;
/// 2. refreshes the [`ComponentView`] of those labels — once per round,
///    before the fan-out, so every chunk's queries share it;
/// 3. groups the vertices by label with a counting sort, so each component
///    is one contiguous run, in ascending (spatial) order within the run;
/// 4. calls `scan(round, run slice)` for per-run winners — over the whole
///    order, or with `threads > 1` chunked over [`chunk_ranges`] and fanned
///    out with [`parallel_map`].  A run straddling a chunk boundary yields
///    one winner per fragment; the fragments are reconciled here under
///    [`edge_order`], which gives the same per-component minimum whatever
///    the chunking (see [`scan_runs`]);
/// 5. unions the winners in edge order.
///
/// The component count at least halves per round, so there are O(log n)
/// rounds.
///
/// `cache[v]` is v's exact nearest foreign point from an earlier round.
/// Components only ever merge, so a cached point stays v's nearest
/// foreigner for as long as it remains foreign; only vertices whose
/// candidate got absorbed query the index again.
pub(crate) fn boruvka_rounds<S>(index: &KdIndex, threads: usize, scan: S) -> (Vec<Edge>, usize)
where
    S: Fn(&Round<'_>, &[u32]) -> RunScan + Sync,
{
    let n = index.len();
    let ids = index.ids();
    assert_eq!(ids.len(), n, "the rounds run over a renumbered index");
    let at = positions(ids);
    let mut uf = UnionFind::new(n);
    let mut labels = vec![0u32; n];
    let mut view = ComponentView::default();
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut cache: Vec<(u32, f64)> = vec![(NOT_CACHED, 0.0); n];
    let mut order = vec![0u32; n];
    let mut run_start = vec![0u32; n + 1];
    // Round-persistent scratch, reset through `touched` instead of
    // reallocated every round: the minimal candidate per component root,
    // and the roots written this round.
    let mut best: Vec<Option<Candidate>> = vec![None; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut winners: Vec<Candidate> = Vec::new();
    let mut rounds = 0usize;

    while uf.component_count() > 1 {
        rounds += 1;
        for (v, label) in labels.iter_mut().enumerate() {
            *label = uf.find(v) as u32;
        }
        index.refresh_view(&mut view, |v| labels[v]);
        group_by_label(&labels, &mut run_start, &mut order);
        let round = Round {
            labels: &labels,
            view: &view,
            cache: &cache,
            ids,
        };
        let scans: Vec<RunScan> = if threads > 1 && n >= PARALLEL_BORUVKA_MIN {
            let ranges = chunk_ranges(n, threads);
            parallel_map(&ranges, threads, |&(start, end)| {
                scan(&round, &order[start..end])
            })
        } else {
            vec![scan(&round, &order)]
        };
        for (run_winners, cache_updates) in scans {
            // Chunks cover disjoint vertex sets (each v appears once in
            // `order`), so these writes never conflict.
            for (v, found) in cache_updates {
                cache[v as usize] = found;
            }
            for (root, candidate) in run_winners {
                match &mut best[root as usize] {
                    Some(b) => {
                        if edge_order(candidate, *b) == Ordering::Less {
                            *b = candidate;
                        }
                    }
                    slot => {
                        touched.push(root);
                        *slot = Some(candidate);
                    }
                }
            }
        }
        winners.clear();
        for &root in &touched {
            winners.extend(best[root as usize].take()); // take() resets the slot
        }
        touched.clear();
        winners.sort_unstable_by(|&a, &b| edge_order(a, b));
        let before = uf.component_count();
        for &(d, a, b) in &winners {
            // Two components may nominate the same edge; the second union is
            // a no-op rather than a duplicate edge.
            if uf.union(at[a as usize] as usize, at[b as usize] as usize) {
                edges.push(Edge::new(a as usize, b as usize, d));
            }
        }
        debug_assert!(
            uf.component_count() < before,
            "every Borůvka round merges at least two components"
        );
    }
    (edges, rounds)
}

/// Fills `order` with the vertices grouped by label — each label one
/// contiguous run, vertices ascending within it — by a counting sort over
/// the labels (which are vertices, so below `labels.len()`).  `start` is
/// scratch of length `labels.len() + 1`.
fn group_by_label(labels: &[u32], start: &mut [u32], order: &mut [u32]) {
    start.fill(0);
    for &label in labels {
        start[label as usize + 1] += 1;
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    for (v, &label) in labels.iter().enumerate() {
        let slot = &mut start[label as usize];
        order[*slot as usize] = v as u32;
        *slot += 1;
    }
}

/// Scans one slice of the component-grouped vertex order for candidate
/// edges: per contiguous same-root run, the minimum under [`edge_order`] of
/// every member's `extra(v, root)` candidate and its nearest foreign point
/// `nearest(v, root, bound)` — the closest point outside v's component, at
/// distance `bound` or closer.  The kd engine passes no extra candidates
/// and a nearest-foreign query over the round's component view; the sharded
/// stitch passes the tile-tree edges and a query that also skips same-tile
/// points.
///
/// Within a run the running best distance seeds (bounds) later members'
/// searches — a farther point cannot win the run anyway, and points at
/// exactly the bound are still found.  A bounded query that returns `None`
/// merely means "cannot beat the run's best"; a `Some` is the vertex's true
/// nearest foreigner (the bound only hides strictly farther points) and is
/// recorded as a cache update.
///
/// **Chunking invariance:** splitting a component's run across chunks only
/// weakens the seeding bounds (each fragment starts from ∞), which can make
/// more queries return `Some` — but every `Some` is the exact per-vertex
/// nearest foreigner, so the per-root minimum of the merged fragment winners
/// equals the single-scan winner.  What a query may skip does not depend on
/// the chunking either: every chunk reads the one view the round refreshed
/// before the fan-out, and a subtree is pruned only when none of its points
/// is foreign, so pruning changes how much of the tree a query walks, never
/// its answer.  Cache contents may differ across thread counts, but a cache
/// entry is only ever an exact nearest foreigner and is used only while
/// still foreign, when a fresh query would return the very same pair.
/// Hence the merged result — and therefore the whole MST — is bit-identical
/// for every chunking.
pub(crate) fn scan_runs<E, Q>(round: &Round<'_>, order: &[u32], extra: E, nearest: Q) -> RunScan
where
    E: Fn(usize, u32) -> Option<Candidate>,
    Q: Fn(usize, u32, f64) -> Option<(usize, f64)>,
{
    let Round {
        labels, cache, ids, ..
    } = *round;
    let mut winners: Vec<(u32, Candidate)> = Vec::new();
    let mut cache_updates: Vec<(u32, (u32, f64))> = Vec::new();
    // The current contiguous run's root and its best candidate so far.
    let mut current: Option<(u32, Candidate)> = None;
    for &v in order {
        let v = v as usize;
        let root = labels[v];
        let mut best = match current {
            Some((r, b)) if r == root => Some(b),
            _ => {
                // A new run begins: flush the finished one.
                winners.extend(current.take());
                None
            }
        };
        if let Some(candidate) = extra(v, root) {
            best = Some(min_candidate(best, candidate));
        }
        let found = match cache[v] {
            (u, d) if u != NOT_CACHED && labels[u as usize] != root => Some((u as usize, d)),
            _ => {
                let found = nearest(v, root, best.map_or(f64::INFINITY, |(d, _, _)| d));
                cache_updates.extend(found.map(|(u, d)| (v as u32, (u as u32, d))));
                found
            }
        };
        if let Some((u, d)) = found {
            best = Some(min_candidate(best, candidate(ids, d, v, u)));
        }
        if let Some(b) = best {
            current = Some((root, b));
        }
    }
    winners.extend(current);
    (winners, cache_updates)
}

/// The smaller of an optional incumbent and a candidate under
/// [`edge_order`].
pub(crate) fn min_candidate(best: Option<Candidate>, candidate: Candidate) -> Candidate {
    match best {
        Some(b) if edge_order(b, candidate) != Ordering::Greater => b,
        _ => candidate,
    }
}

/// The tie-broken total order on candidate edges `(weight, min endpoint,
/// max endpoint)` shared by the static engines, the sharded stitch and the
/// dynamic engine (which keys edges by `u32` slots).
pub(crate) fn edge_order<T: Ord>(a: (f64, T, T), b: (f64, T, T)) -> Ordering {
    a.0.total_cmp(&b.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
}

/// The degree-5 tie exchange at a vertex `v` of degree > 5 (which can only
/// arise from exact 60° / equal-length ties): among `v`'s `neighbors`, the
/// angularly closest adjacent pair `(a, b)` in counterclockwise order, and
/// the endpoint of the longer of `(v, a)`, `(v, b)` to drop.  Replacing
/// that edge by `(a, b)` keeps the tree spanning without increasing its
/// weight by more than floating-point noise.  Returns `(drop, a, b)`.
///
/// Both degree-repair passes — [`repair_degree`] on a static tree and the
/// dynamic engine's — call this, visiting violators smallest-first.
pub(crate) fn degree_exchange(
    points: &[Point],
    v: usize,
    neighbors: &[(usize, f64)],
) -> (usize, usize, usize) {
    let neighbor_pts: Vec<Point> = neighbors.iter().map(|&(u, _)| points[u]).collect();
    let sorted = sort_ccw(&points[v], &neighbor_pts);
    let gaps = circular_gaps(&sorted);
    let (closest, _) = gaps
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("degree > 5 vertex has neighbours");
    let a = neighbors[sorted[closest].index].0;
    let b = neighbors[sorted[(closest + 1) % sorted.len()].index].0;
    let da = points[v].distance(&points[a]);
    let db = points[v].distance(&points[b]);
    let drop = if da >= db { a } else { b };
    (drop, a, b)
}

/// Local exchange pass that reduces every vertex of degree > 5 with
/// [`degree_exchange`], smallest violating vertex first.
pub(crate) fn repair_degree(points: &[Point], tree: &mut Graph) {
    let n = points.len();
    // A generous iteration cap: each exchange strictly reduces the number of
    // (vertex, excess-degree) units, but guard against pathological floating
    // point behaviour anyway.
    let mut budget = 4 * n + 16;
    loop {
        let Some(v) = (0..n).find(|&v| tree.degree(v) > MAX_MST_DEGREE) else {
            return;
        };
        if budget == 0 {
            return;
        }
        budget -= 1;
        let (drop, a, b) = degree_exchange(points, v, tree.neighbors(v));
        tree.remove_edge(v, drop);
        tree.add_edge(a, b, points[a].distance(&points[b]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::kruskal_mst;
    use antennae_geometry::PI;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn empty_input_is_rejected() {
        match EuclideanMst::build(&[]) {
            Err(EmstError::EmptyPointSet) => {}
            other => panic!("expected EmptyPointSet error, got {other:?}"),
        }
    }

    #[test]
    fn single_point_tree() {
        let mst = EuclideanMst::build(&[Point::new(1.0, 2.0)]).unwrap();
        assert_eq!(mst.len(), 1);
        assert_eq!(mst.lmax(), 0.0);
        assert!(mst.edges().is_empty());
        assert_eq!(mst.max_degree(), 0);
    }

    #[test]
    fn two_points_single_edge() {
        let mst = EuclideanMst::build(&[Point::new(0.0, 0.0), Point::new(3.0, 4.0)]).unwrap();
        assert_eq!(mst.edges().len(), 1);
        assert!((mst.lmax() - 5.0).abs() < 1e-12);
        assert_eq!(mst.leaves(), vec![0, 1]);
    }

    #[test]
    fn collinear_points_form_a_path() {
        let pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64, 0.0)).collect();
        let mst = EuclideanMst::build(&pts).unwrap();
        assert_eq!(mst.edges().len(), 5);
        assert!((mst.total_weight() - 5.0).abs() < 1e-12);
        assert!((mst.lmax() - 1.0).abs() < 1e-12);
        assert_eq!(mst.max_degree(), 2);
        assert_eq!(mst.leaves().len(), 2);
    }

    #[test]
    fn matches_kruskal_on_random_points() {
        for seed in 0..5 {
            let pts = random_points(60, seed);
            let mst = EuclideanMst::build(&pts).unwrap();
            let complete = Graph::complete(pts.len(), |u, v| pts[u].distance(&pts[v]));
            let reference = kruskal_mst(&complete);
            assert!(
                (mst.total_weight() - reference.total_weight).abs() < 1e-6,
                "seed {seed}: {} vs {}",
                mst.total_weight(),
                reference.total_weight
            );
        }
    }

    #[test]
    fn max_degree_is_at_most_five_on_random_points() {
        for seed in 0..10 {
            let pts = random_points(200, seed);
            let mst = EuclideanMst::build(&pts).unwrap();
            assert!(mst.max_degree() <= MAX_MST_DEGREE);
        }
    }

    #[test]
    fn hexagonal_star_is_repaired_to_degree_five() {
        // A centre with 6 neighbours at exactly 60° and equal distance: the
        // adversarial tie configuration that produces degree 6.
        let mut pts = vec![Point::new(0.0, 0.0)];
        for k in 0..6 {
            let theta = k as f64 * PI / 3.0;
            pts.push(Point::new(theta.cos(), theta.sin()));
        }
        let mst = EuclideanMst::build(&pts).unwrap();
        assert!(mst.max_degree() <= MAX_MST_DEGREE);
        // The repair must preserve the spanning property and the weight.
        assert_eq!(mst.edges().len(), pts.len() - 1);
        assert!((mst.total_weight() - 6.0).abs() < 1e-9);
        assert!((mst.lmax() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hexagonal_lattice_is_repaired() {
        // Several rings of a triangular lattice: many exact ties at once.
        let mut pts = Vec::new();
        for i in -3i32..=3 {
            for j in -3i32..=3 {
                let x = i as f64 + 0.5 * j as f64;
                let y = j as f64 * (3.0f64).sqrt() / 2.0;
                pts.push(Point::new(x, y));
            }
        }
        let mst = EuclideanMst::build(&pts).unwrap();
        assert!(mst.max_degree() <= MAX_MST_DEGREE);
        assert_eq!(mst.edges().len(), pts.len() - 1);
    }

    #[test]
    fn duplicate_points_are_connected_with_zero_length_edges() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
        ];
        let mst = EuclideanMst::build(&pts).unwrap();
        assert_eq!(mst.edges().len(), 2);
        assert!((mst.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fact1_minimum_adjacent_angle_at_least_sixty_degrees() {
        // Fact 1(1): adjacent MST edges form an angle of at least π/3.  We
        // allow a tiny tolerance for floating point and for the repair pass.
        for seed in 20..26 {
            let pts = random_points(150, seed);
            let mst = EuclideanMst::build(&pts).unwrap();
            if let Some(min_angle) = mst.min_adjacent_edge_angle() {
                assert!(
                    min_angle >= PI / 3.0 - 1e-6,
                    "seed {seed}: min adjacent angle {min_angle} < π/3"
                );
            }
        }
    }

    #[test]
    fn rescaled_preserves_topology_and_normalizes_lmax_exactly() {
        let pts = random_points(80, 7);
        let mst = EuclideanMst::build(&pts).unwrap();
        let scaled = mst.rescaled(mst.lmax());
        // lmax/lmax is exactly 1.0 — no tolerance needed.
        assert_eq!(scaled.lmax(), 1.0);
        assert_eq!(scaled.engine(), mst.engine());
        // Identical edge sets (topology is scale-invariant), lengths divided.
        let key = |e: &Edge| (e.u.min(e.v), e.u.max(e.v));
        let mut original: Vec<_> = mst.edges().iter().map(key).collect();
        let mut rescaled: Vec<_> = scaled.edges().iter().map(key).collect();
        original.sort_unstable();
        rescaled.sort_unstable();
        assert_eq!(original, rescaled);
        for e in scaled.edges() {
            let expected = mst.points()[e.u].distance(&mst.points()[e.v]) / mst.lmax();
            assert!((e.weight - expected).abs() < 1e-15);
        }
        assert!(scaled.max_degree() <= MAX_MST_DEGREE);
    }

    #[test]
    fn engines_agree_on_collinear_points() {
        let pts: Vec<Point> = (0..40).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_engines_agree(&pts);
    }

    #[test]
    fn engines_agree_on_duplicate_and_shared_coordinate_points() {
        // Duplicates and duplicate-coordinate columns/rows: worst case for
        // kd-tree splitting planes and for distance ties.
        let mut pts = Vec::new();
        for i in 0..8 {
            for j in 0..4 {
                pts.push(Point::new(i as f64, j as f64));
                pts.push(Point::new(i as f64, j as f64)); // exact duplicate
            }
        }
        assert_engines_agree(&pts);
    }

    #[test]
    fn engines_agree_on_hexagonal_lattice() {
        let mut pts = Vec::new();
        for i in -3i32..=3 {
            for j in -3i32..=3 {
                let x = i as f64 + 0.5 * j as f64;
                let y = j as f64 * (3.0f64).sqrt() / 2.0;
                pts.push(Point::new(x, y));
            }
        }
        assert_engines_agree(&pts);
    }

    #[test]
    fn auto_engine_switches_at_the_crossover() {
        let small = random_points(8, 1);
        let mst = EuclideanMst::build(&small).unwrap();
        assert_eq!(mst.engine(), MstEngine::DensePrim);

        let big = random_points(KDTREE_CROSSOVER, 2);
        let mst = EuclideanMst::build(&big).unwrap();
        assert_eq!(mst.engine(), MstEngine::KdTreeBoruvka);
        assert_eq!(mst.edges().len(), big.len() - 1);
        assert!(mst.max_degree() <= MAX_MST_DEGREE);
    }

    #[test]
    fn kd_engine_matches_dense_on_larger_random_sets() {
        for seed in 0..3 {
            let pts = random_points(600, 100 + seed);
            assert_engines_agree(&pts);
        }
    }

    #[test]
    fn kd_engine_is_bit_identical_across_thread_counts() {
        // Above PARALLEL_BORUVKA_MIN so the chunked scan path actually runs;
        // the edge lists (not just the weights) must match bit for bit.
        let pts = random_points(PARALLEL_BORUVKA_MIN + 500, 42);
        let serial =
            EuclideanMst::build_with_engine_threads(&pts, MstEngine::KdTreeBoruvka, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel =
                EuclideanMst::build_with_engine_threads(&pts, MstEngine::KdTreeBoruvka, threads)
                    .unwrap();
            let key = |e: &Edge| (e.u, e.v, e.weight.to_bits());
            let serial_edges: Vec<_> = serial.edges().iter().map(key).collect();
            let parallel_edges: Vec<_> = parallel.edges().iter().map(key).collect();
            assert_eq!(serial_edges, parallel_edges, "threads={threads}");
            assert_eq!(serial.lmax().to_bits(), parallel.lmax().to_bits());
        }
    }

    /// Kruskal's MST over every pair of `pts` at distance `radius` or
    /// closer, as sorted `(u, v, weight bits)` keys with `u < v`.  With
    /// `radius` at least the MST's `lmax` the graph contains the unique MST
    /// of the complete graph under the `(weight, u, v)` order, and Kruskal
    /// returns exactly it (cycle property); `f64::INFINITY` is the complete
    /// graph itself.
    fn kruskal_keys(pts: &[Point], radius: f64) -> Vec<(usize, usize, u64)> {
        let index = KdIndex::build(pts);
        let mut graph = Graph::new(pts.len());
        for u in 0..pts.len() {
            for v in index.within_radius(pts, &pts[u], radius) {
                if u < v {
                    graph.add_edge(u, v, pts[u].distance(&pts[v]));
                }
            }
        }
        let mut keys: Vec<_> = kruskal_mst(&graph)
            .edges
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v), e.weight.to_bits()))
            .collect();
        keys.sort_unstable();
        keys
    }

    fn hexagonal_lattice(rows: i32) -> Vec<Point> {
        (0..rows)
            .flat_map(|i| {
                (0..rows).map(move |j| {
                    Point::new(i as f64 + 0.5 * j as f64, j as f64 * 3f64.sqrt() / 2.0)
                })
            })
            .collect()
    }

    fn square_lattice(cols: usize, rows: usize) -> Vec<Point> {
        (0..cols)
            .flat_map(|i| (0..rows).map(move |j| Point::new(i as f64, j as f64)))
            .collect()
    }

    fn with_duplicates(n: usize, seed: u64) -> Vec<Point> {
        let mut pts = random_points(n, seed);
        pts.extend_from_within(n / 8..n / 2);
        pts.extend(square_lattice(8, 8));
        pts.extend(square_lattice(8, 8));
        pts
    }

    fn collinear(n: usize) -> Vec<Point> {
        // Repeats along one line: duplicates and equal gaps everywhere.
        (0..n)
            .map(|i| Point::new((i % 500) as f64 * 0.5, (i % 500) as f64 * 0.25))
            .collect()
    }

    #[test]
    fn kd_boruvka_matches_kruskal_edge_for_edge_under_ties() {
        // Kruskal sorts by (weight, u, v) with u < v: the very tie order the
        // kd engine keys its candidates by, on the original indices, while
        // its rounds run over kd-preorder positions.  The MST under that
        // strict order is unique, so the edge sets must agree exactly.  The
        // small inputs run against the complete graph; the large ones clear
        // both parallel thresholds (the spliced kd build and the chunked
        // scan), and run against the graph of pairs within the kd tree's
        // `lmax`, which no spanning tree can undercut.
        let inputs = [
            ("hexagonal", hexagonal_lattice(13), false),
            ("square", square_lattice(15, 12), false),
            ("duplicates", with_duplicates(90, 5), false),
            ("collinear", collinear(150), false),
            ("hexagonal", hexagonal_lattice(95), true),
            ("square", square_lattice(100, 90), true),
            ("duplicates", with_duplicates(6000, 6), true),
            ("collinear", collinear(8800), true),
        ];
        let key = |e: &Edge| (e.u.min(e.v), e.u.max(e.v), e.weight.to_bits());
        for (name, pts, large) in &inputs {
            assert_eq!(
                pts.len() >= PARALLEL_BORUVKA_MIN.max(8192),
                *large,
                "{name}"
            );
            let mut want = None;
            for threads in [1usize, 2, 3] {
                let mut got: Vec<_> = kd_boruvka(pts, threads).iter().map(key).collect();
                got.sort_unstable();
                let want = want.get_or_insert_with(|| {
                    let lmax = got
                        .iter()
                        .map(|&(_, _, w)| f64::from_bits(w))
                        .fold(0.0, f64::max);
                    kruskal_keys(pts, if *large { lmax } else { f64::INFINITY })
                });
                assert_eq!(&got, want, "{name} n={}, threads={threads}", pts.len());
            }
        }
    }

    /// Both engines must produce genuine MSTs: spanning, degree ≤ 5, and —
    /// since all MSTs of a graph share one multiset of edge weights —
    /// identical total weight and identical `lmax`.
    fn assert_engines_agree(pts: &[Point]) {
        let dense = EuclideanMst::build_with_engine(pts, MstEngine::DensePrim).unwrap();
        let kd = EuclideanMst::build_with_engine(pts, MstEngine::KdTreeBoruvka).unwrap();
        assert_eq!(dense.edges().len(), pts.len() - 1);
        assert_eq!(kd.edges().len(), pts.len() - 1);
        assert!(
            (dense.total_weight() - kd.total_weight()).abs() < 1e-6,
            "total weight: dense {} vs kd {}",
            dense.total_weight(),
            kd.total_weight()
        );
        assert!(
            (dense.lmax() - kd.lmax()).abs() < 1e-9,
            "lmax: dense {} vs kd {}",
            dense.lmax(),
            kd.lmax()
        );
        assert!(kd.max_degree() <= MAX_MST_DEGREE);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_kdtree_engine_matches_dense_oracle(
            xs in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..120)
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let dense = EuclideanMst::build_with_engine(&pts, MstEngine::DensePrim).unwrap();
            let kd = EuclideanMst::build_with_engine(&pts, MstEngine::KdTreeBoruvka).unwrap();
            prop_assert_eq!(kd.edges().len(), pts.len() - 1);
            prop_assert!((dense.total_weight() - kd.total_weight()).abs() < 1e-6,
                "weight {} vs {}", dense.total_weight(), kd.total_weight());
            prop_assert!((dense.lmax() - kd.lmax()).abs() < 1e-9,
                "lmax {} vs {}", dense.lmax(), kd.lmax());
            prop_assert!(kd.max_degree() <= MAX_MST_DEGREE);
        }

        #[test]
        fn prop_kdtree_engine_handles_snapped_degenerate_grids(
            xs in proptest::collection::vec((0usize..12, 0usize..12), 2..80)
        ) {
            // Integer-snapped points: many exact duplicates, shared x/y
            // columns, and tied candidate distances in every round.
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect();
            let dense = EuclideanMst::build_with_engine(&pts, MstEngine::DensePrim).unwrap();
            let kd = EuclideanMst::build_with_engine(&pts, MstEngine::KdTreeBoruvka).unwrap();
            prop_assert!((dense.total_weight() - kd.total_weight()).abs() < 1e-6,
                "weight {} vs {}", dense.total_weight(), kd.total_weight());
            prop_assert!((dense.lmax() - kd.lmax()).abs() < 1e-9,
                "lmax {} vs {}", dense.lmax(), kd.lmax());
            prop_assert!(kd.max_degree() <= MAX_MST_DEGREE);
        }

        #[test]
        fn prop_spanning_tree_with_degree_bound(
            xs in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..80)
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mst = EuclideanMst::build(&pts).unwrap();
            prop_assert_eq!(mst.edges().len(), pts.len() - 1);
            prop_assert!(mst.max_degree() <= MAX_MST_DEGREE);
            // lmax is indeed the maximum edge weight.
            let lmax = mst.edges().iter().map(|e| e.weight).fold(0.0, f64::max);
            prop_assert!((mst.lmax() - lmax).abs() < 1e-12);
        }

        #[test]
        fn prop_weight_matches_kruskal(
            xs in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 2..40)
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mst = EuclideanMst::build(&pts).unwrap();
            let complete = Graph::complete(pts.len(), |u, v| pts[u].distance(&pts[v]));
            let reference = kruskal_mst(&complete);
            prop_assert!((mst.total_weight() - reference.total_weight).abs() < 1e-6);
        }
    }
}
