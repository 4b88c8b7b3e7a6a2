//! A 2-d tree (kd-tree) over points, supporting nearest-neighbour, k-nearest,
//! nearest-foreign-component and range queries.
//!
//! The sub-quadratic Euclidean MST builder in `antennae-graph` drives its
//! Borůvka rounds through [`KdIndex::nearest_foreign_within`] (the nearest
//! point that belongs to a *different* connected component), and the
//! simulation crate uses range queries to compute interference metrics
//! (receivers inside a sector).
//!
//! Ties on distance are broken towards the smaller point id everywhere, so
//! every query is deterministic even on degenerate inputs (duplicate points,
//! co-circular neighbours) **and independent of the tree's internal layout**:
//! a query's answer is a pure function of the point set.  The MST builder
//! relies on that determinism for its tie-broken total order on candidate
//! edges, and the parallel construction below relies on the layout
//! independence for its bit-equality guarantee.  A point's id is its index
//! in the slice the index was built over, also after [`KdIndex::renumber`]
//! has moved the points into node order (see [`KdIndex::ids`]).
//!
//! # Component views
//!
//! The nearest-foreign query reads labels from a [`ComponentView`], a
//! node-ordered copy of one labeling that also records, per node, the label
//! its whole subtree shares (if any).  A subtree uniform in the query's own
//! label holds no foreign point and is skipped without being entered —
//! which is what keeps late Borůvka rounds cheap, when a vertex's nearest
//! foreigner lies past thousands of points of its own component.
//!
//! [`KdIndex`] is the index alone, borrowing the point slice at every
//! query: the verification engine and the dynamic snapshot
//! (`DynamicKdTree`, behind [`crate::TiledKdForest`]) own their points
//! already, so indexing them must not copy them.  The MST engine is the one
//! caller that takes a copy, on purpose: [`KdIndex::renumber`] hands it the
//! points in node order, so its rounds read them in spatial order.
//!
//! # Construction
//!
//! Nodes are found by **median selection** (`select_nth_unstable_by`), not
//! by sorting: each level partitions its slice around the median of the
//! splitting axis in O(len), for O(n log n) total.  (An earlier
//! implementation re-sorted the full index slice with a stable sort at every
//! level — O(n log² n) with a large constant, and the dominant cost of
//! million-point builds.)  [`KdIndex::build_with_threads`] additionally fans
//! subtree construction out over worker threads: the top of the tree is
//! partitioned serially until the pending subtrees are small enough, then
//! each subtree is built as an independent task.  The partition performed
//! for a given subtree is the same whether it runs inline or in a task, so
//! serial and parallel builds produce the *identical logical tree* — and
//! queries would agree even if they didn't, by the layout independence noted
//! above.

use crate::point::Point;
use antennae_parallel::parallel_map;
use std::sync::Mutex;

/// Sentinel for "no node" in the flat child links.
const NONE: u32 = u32::MAX;

/// Smallest point count for which a parallel build is attempted; below this
/// the thread-scope setup costs more than the whole build.
const PARALLEL_BUILD_MIN: usize = 8192;

/// A node of the flat kd-tree: 12 bytes instead of the 40 of the earlier
/// boxed-`Option<usize>` layout (u32 ids are exact for every supported
/// instance size, and the splitting axis is derived from the node's depth
/// during traversal instead of being stored).  At a million sensors this is
/// the difference between a 12 MB and a 40 MB node array — and the smaller
/// stride is measurably kinder to the cache on query-heavy workloads.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Index into the point slice the index was built over (its own
    /// position after [`KdIndex::renumber`]).
    point: u32,
    left: u32,
    right: u32,
}

/// A kd-tree index over an *externally owned* point slice.
///
/// Every query takes the point slice as a parameter; the caller must pass
/// the same points (same order, same length) the index was built over, or,
/// after [`KdIndex::renumber`], the node-ordered copy it returned.
#[derive(Debug, Clone)]
pub struct KdIndex {
    nodes: Vec<Node>,
    root: u32,
    /// The id of each point after [`KdIndex::renumber`]; empty before, when
    /// a point's id is its index.
    ids: Vec<u32>,
}

/// Labels of the indexed points in node order, for
/// [`KdIndex::nearest_foreign_within`].
///
/// For each node it records the label of the node's own point and the
/// *uniform label* of its subtree: the label every point in the subtree
/// shares, or [`ComponentView::MIXED`] when the subtree mixes labels.
/// [`KdIndex::refresh_view`] fills it in one reverse pass over the node
/// array, which visits children before their parent because every build —
/// serial, or spliced from parallel arenas — stores a child after its
/// parent.  Both labels are `u32`: 8 bytes per point.
#[derive(Debug, Clone, Default)]
pub struct ComponentView {
    /// `(own label, uniform label)` per node: the query reads both from one
    /// cache line.
    labels: Vec<(u32, u32)>,
}

impl ComponentView {
    /// The uniform label of a subtree that mixes labels; never a valid label.
    pub const MIXED: u32 = u32::MAX;
}

/// A subtree deferred to the parallel phase of the build: the (already
/// partitioned) point ids it spans, the splitting axis at its root, and the
/// parent slot to patch once built.  The id vector sits behind a `Mutex`
/// only so the worker can take ownership through the `&Task` that
/// `parallel_map` hands it — each task is claimed exactly once.
struct Task {
    idx: Mutex<Vec<u32>>,
    axis: u8,
    parent: u32,
    is_left: bool,
}

impl KdIndex {
    /// Builds the index over `points` sequentially.  An empty slice yields
    /// an empty index.
    pub fn build(points: &[Point]) -> Self {
        Self::build_with_threads(points, 1)
    }

    /// Builds the index over `points` using up to `threads` workers.
    ///
    /// The tree is partitioned serially from the root until the pending
    /// subtrees are small enough to balance across workers, then each
    /// subtree is built as an independent task over
    /// [`antennae_parallel::parallel_map`].  The result is the identical
    /// logical tree for every thread count (each subtree performs the same
    /// median partition wherever it runs), so parallel construction is
    /// invisible to queries.
    pub fn build_with_threads(points: &[Point], threads: usize) -> Self {
        let n = points.len();
        assert!(
            n < NONE as usize,
            "kd-tree supports at most 2^32 - 1 points"
        );
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        if n == 0 {
            return KdIndex {
                nodes,
                root: NONE,
                ids: Vec::new(),
            };
        }
        if threads <= 1 || n < PARALLEL_BUILD_MIN {
            let root = build_rec(points, &mut idx, 0, &mut nodes);
            return KdIndex {
                nodes,
                root,
                ids: Vec::new(),
            };
        }

        // Serial skeleton: partition until subtrees reach the task size.
        // ~8 tasks per worker keeps the fan-out load-balanced even when the
        // point distribution makes subtree costs uneven.
        let task_len = (n / (threads * 8)).max(PARALLEL_BUILD_MIN / 16);
        let mut tasks: Vec<Task> = Vec::new();
        let mut root = skeleton_rec(points, &mut idx, 0, &mut nodes, &mut tasks, task_len);

        // Fan out: each task builds its subtree into a local node arena with
        // local child links.
        let built: Vec<Vec<Node>> = parallel_map(&tasks, threads, |task| {
            let mut idx = std::mem::take(&mut *task.idx.lock().expect("task idx poisoned"));
            let mut local = Vec::with_capacity(idx.len());
            build_rec(points, &mut idx, task.axis, &mut local);
            local
        });

        // Splice: shift each arena's links by its offset and patch the
        // parent slot (a subtree's root is the first node its arena pushed).
        for (task, mut local) in tasks.iter().zip(built) {
            let offset = nodes.len() as u32;
            for node in &mut local {
                if node.left != NONE {
                    node.left += offset;
                }
                if node.right != NONE {
                    node.right += offset;
                }
            }
            nodes.extend(local);
            if task.parent == NONE {
                root = offset;
            } else if task.is_left {
                nodes[task.parent as usize].left = offset;
            } else {
                nodes[task.parent as usize].right = offset;
            }
        }
        KdIndex {
            nodes,
            root,
            ids: Vec::new(),
        }
    }

    /// Renumbers the indexed points into node order and returns them in
    /// that order: afterwards node `i` holds point `i`, so queries must pass
    /// the returned slice, and they report positions in it.
    ///
    /// The nodes are relabelled in place (the tree is not rebuilt), and
    /// [`KdIndex::ids`] maps each new position back to the point's index in
    /// `points`, which stays its id: distance ties still break on it.  For a
    /// serial build, node order is the preorder of the median partition, so
    /// points close in the plane get close positions and a Borůvka round
    /// over them reads its arrays in spatial order.
    pub fn renumber(&mut self, points: &[Point]) -> Vec<Point> {
        assert_eq!(points.len(), self.len(), "one point per node");
        let ids: Vec<u32> = self
            .nodes
            .iter()
            .map(|node| self.id(node.point as usize) as u32)
            .collect();
        let ordered = self
            .nodes
            .iter()
            .map(|node| points[node.point as usize])
            .collect();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.point = i as u32;
        }
        self.ids = ids;
        ordered
    }

    /// The id of each point after [`KdIndex::renumber`]: `ids()[i]` is the
    /// index, in the slice the index was built over, of the point now at
    /// position `i`.  Empty for an index that was never renumbered.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The tie-breaking id of the point at position `point`; the
    /// `usize::MAX` "nothing found yet" sentinel maps to itself.
    #[inline]
    fn id(&self, point: usize) -> usize {
        self.ids.get(point).map_or(point, |&id| id as usize)
    }

    /// Fills `view` with `label_of(point)` for every indexed point, in node
    /// order, together with each subtree's uniform label (see
    /// [`ComponentView`]).  O(n): one reverse pass over the node array.
    /// Labels must be below [`ComponentView::MIXED`].
    pub fn refresh_view<F: Fn(usize) -> u32>(&self, view: &mut ComponentView, label_of: F) {
        let n = self.len();
        view.labels.resize(n, (0, 0));
        for i in (0..n).rev() {
            let node = self.nodes[i];
            let label = label_of(node.point as usize);
            debug_assert_ne!(label, ComponentView::MIXED, "label out of range");
            let mixed = |child: u32| child != NONE && view.labels[child as usize].1 != label;
            let uniform = if mixed(node.left) || mixed(node.right) {
                ComponentView::MIXED
            } else {
                label
            };
            view.labels[i] = (label, uniform);
        }
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the index covers no points.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nearest neighbour of `query` among the indexed points, optionally
    /// skipping indices for which `skip` returns `true` (e.g. the query
    /// point itself, or points already attached to a growing MST).
    ///
    /// Returns `(index, distance)` or `None` when every point is skipped.
    /// Distance ties are broken towards the smaller index.
    pub fn nearest_filtered<F: Fn(usize) -> bool>(
        &self,
        points: &[Point],
        query: &Point,
        skip: F,
    ) -> Option<(usize, f64)> {
        if self.root == NONE {
            return None;
        }
        // Sentinel seed: accepts any real point, never reported.
        let mut best = (usize::MAX, f64::INFINITY);
        self.nearest_rec(points, self.root, 0, query, &skip, &mut best);
        (best.0 != usize::MAX).then(|| (best.0, best.1.sqrt()))
    }

    /// Nearest point to `query` that is foreign under every `(view, label)`
    /// pair of `foreign` — whose label in each view differs from that
    /// pair's label — at distance `max_dist` or closer.
    ///
    /// This is the inner query of the kd-tree Borůvka MST engine: each round
    /// asks, for every vertex, for the nearest vertex *outside* its own
    /// component (one pair: the round's component view and the vertex's
    /// component).  The sharded stitch adds a second pair, a static view of
    /// tile labels, to look outside the vertex's tile as well.  A subtree
    /// whose uniform label in any view equals that pair's label holds no
    /// foreign point and is skipped without being entered.
    ///
    /// Distance ties are broken towards the smaller id, so that concurrent
    /// component searches agree on a single total order of candidate edges.
    /// A point at exactly `max_dist` is still reported (the bound behaves
    /// like an already-seen candidate with an infinite id), so a component's
    /// minimum candidate edge under the `(distance, id)` tie order is never
    /// lost.  The bound is widened by a few ulps before use — callers
    /// commonly pass a distance a previous query returned, and the
    /// `sqrt`/square round-trip may otherwise land one ulp *below* the tied
    /// candidate's squared distance and hide it; the widening can only admit
    /// marginally farther points, never lose one, and a returned point is
    /// always the true nearest foreigner.
    ///
    /// Returns `(position, distance)`, or `None` when no foreign point lies
    /// within `max_dist` (pass `f64::INFINITY` for an unbounded search).
    pub fn nearest_foreign_within<const K: usize>(
        &self,
        points: &[Point],
        query: &Point,
        foreign: [(&ComponentView, u32); K],
        max_dist: f64,
    ) -> Option<(usize, f64)> {
        for (view, _) in &foreign {
            assert_eq!(view.labels.len(), self.len(), "view of another index");
        }
        if self.root == NONE || pruned(&foreign, self.root) {
            return None;
        }
        let bound_sq = (max_dist * max_dist) * (1.0 + 4.0 * f64::EPSILON);
        let mut best = (usize::MAX, bound_sq);
        self.foreign_rec(points, self.root, 0, query, &foreign, &mut best);
        (best.0 != usize::MAX).then(|| (best.0, best.1.sqrt()))
    }

    /// [`KdIndex::nearest_rec`] for the nearest-foreign query: a point
    /// carrying a pair's label is not a candidate, and a child subtree
    /// uniform in a pair's label is skipped before it is entered.
    fn foreign_rec<const K: usize>(
        &self,
        points: &[Point],
        node_idx: u32,
        axis: u8,
        query: &Point,
        foreign: &[(&ComponentView, u32); K],
        best: &mut (usize, f64),
    ) {
        let i = node_idx as usize;
        let node = self.nodes[i];
        let point_idx = node.point as usize;
        let p = &points[point_idx];
        if foreign
            .iter()
            .all(|(view, label)| view.labels[i].0 != *label)
        {
            let d2 = query.distance_squared(p);
            if d2 < best.1 || (d2 == best.1 && self.id(point_idx) < self.id(best.0)) {
                *best = (point_idx, d2);
            }
        }
        let diff = if axis == 0 {
            query.x - p.x
        } else {
            query.y - p.y
        };
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE && !pruned(foreign, near) {
            self.foreign_rec(points, near, axis ^ 1, query, foreign, best);
        }
        // `<=` (not `<`): with id tie-breaking an equally distant,
        // smaller-id point on the far side must still be found.
        if far != NONE && diff * diff <= best.1 && !pruned(foreign, far) {
            self.foreign_rec(points, far, axis ^ 1, query, foreign, best);
        }
    }

    /// Nearest neighbour of `query` (no filtering).
    pub fn nearest(&self, points: &[Point], query: &Point) -> Option<(usize, f64)> {
        self.nearest_filtered(points, query, |_| false)
    }

    /// Recursive nearest search over *squared* distances (saves a `sqrt` per
    /// visited node).  `best` is `(index, squared distance)` with
    /// `usize::MAX` as the not-yet-found sentinel.  The splitting axis is
    /// the depth parity, flipped on the way down.
    fn nearest_rec<F: Fn(usize) -> bool>(
        &self,
        points: &[Point],
        node_idx: u32,
        axis: u8,
        query: &Point,
        skip: &F,
        best: &mut (usize, f64),
    ) {
        let node = self.nodes[node_idx as usize];
        let point_idx = node.point as usize;
        let p = &points[point_idx];
        if !skip(point_idx) {
            let d2 = query.distance_squared(p);
            if d2 < best.1 || (d2 == best.1 && self.id(point_idx) < self.id(best.0)) {
                *best = (point_idx, d2);
            }
        }
        let diff = if axis == 0 {
            query.x - p.x
        } else {
            query.y - p.y
        };
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE {
            self.nearest_rec(points, near, axis ^ 1, query, skip, best);
        }
        // `<=` (not `<`): with index tie-breaking an equally distant,
        // smaller-indexed point on the far side must still be found.
        if diff * diff <= best.1 && far != NONE {
            self.nearest_rec(points, far, axis ^ 1, query, skip, best);
        }
    }

    /// All indices of points within `radius` of `query` (closed ball).
    pub fn within_radius(&self, points: &[Point], query: &Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_radius_into(points, query, radius, &mut out);
        out
    }

    /// Like [`KdIndex::within_radius`], but clears and fills a caller-owned
    /// buffer instead of allocating a fresh `Vec` per query.
    ///
    /// The verification engine in `antennae-core` issues one range query per
    /// sensor while rebuilding an induced communication digraph; reusing a
    /// single buffer across the whole sweep keeps that loop allocation-free.
    /// Results are sorted ascending, exactly as [`KdIndex::within_radius`]
    /// returns them.
    pub fn within_radius_into(
        &self,
        points: &[Point],
        query: &Point,
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if self.root != NONE {
            self.radius_rec(points, self.root, 0, query, radius, out);
        }
        out.sort_unstable();
    }

    fn radius_rec(
        &self,
        points: &[Point],
        node_idx: u32,
        axis: u8,
        query: &Point,
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        let node = self.nodes[node_idx as usize];
        let p = &points[node.point as usize];
        if query.distance(p) <= radius {
            out.push(node.point as usize);
        }
        let diff = if axis == 0 {
            query.x - p.x
        } else {
            query.y - p.y
        };
        if diff <= radius && node.left != NONE {
            self.radius_rec(points, node.left, axis ^ 1, query, radius, out);
        }
        if -diff <= radius && node.right != NONE {
            self.radius_rec(points, node.right, axis ^ 1, query, radius, out);
        }
    }

    /// The `k` nearest neighbours of `query`, sorted by increasing distance
    /// (ties towards the smaller index).
    ///
    /// The search keeps the current best `k` candidates and prunes every
    /// subtree whose splitting plane is farther than the worst of them, so a
    /// query costs O(k + log n) on typical inputs rather than the O(n log n)
    /// of a scan-and-sort.
    pub fn k_nearest(&self, points: &[Point], query: &Point, k: usize) -> Vec<(usize, f64)> {
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k.min(self.len()) + 1);
        if k == 0 {
            return best;
        }
        if self.root != NONE {
            self.k_nearest_rec(points, self.root, 0, query, k, &mut best);
        }
        best
    }

    fn k_nearest_rec(
        &self,
        points: &[Point],
        node_idx: u32,
        axis: u8,
        query: &Point,
        k: usize,
        best: &mut Vec<(usize, f64)>,
    ) {
        let node = self.nodes[node_idx as usize];
        let point_idx = node.point as usize;
        let p = &points[point_idx];
        let d = query.distance(p);
        // Insert into the sorted candidate list (worst candidate last).
        let pos = best
            .iter()
            .position(|&(bi, bd)| d < bd || (d == bd && self.id(point_idx) < self.id(bi)))
            .unwrap_or(best.len());
        if pos < k {
            best.insert(pos, (point_idx, d));
            best.truncate(k);
        }
        let diff = if axis == 0 {
            query.x - p.x
        } else {
            query.y - p.y
        };
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE {
            self.k_nearest_rec(points, near, axis ^ 1, query, k, best);
        }
        let must_check_far = best.len() < k || best.last().is_none_or(|&(_, wd)| diff.abs() <= wd);
        if must_check_far && far != NONE {
            self.k_nearest_rec(points, far, axis ^ 1, query, k, best);
        }
    }
}

/// Whether the subtree at `node` is uniform in some pair's label of
/// `foreign`, and so holds no foreign point.
#[inline]
fn pruned<const K: usize>(foreign: &[(&ComponentView, u32); K], node: u32) -> bool {
    foreign
        .iter()
        .any(|(view, label)| view.labels[node as usize].1 == *label)
}

/// Sequential recursive build over a (sub)slice of point ids: partition
/// around the median of the splitting axis in O(len) with
/// `select_nth_unstable_by`, push the node, recurse into the halves.  Child
/// links are indices into `nodes` — local to whatever arena the caller is
/// filling, which is what lets parallel subtree tasks build into private
/// arenas that are spliced (offset) afterwards.
fn build_rec(points: &[Point], idx: &mut [u32], axis: u8, nodes: &mut Vec<Node>) -> u32 {
    if idx.is_empty() {
        return NONE;
    }
    let mid = idx.len() / 2;
    if idx.len() > 1 {
        idx.select_nth_unstable_by(mid, |&a, &b| {
            let (pa, pb) = (&points[a as usize], &points[b as usize]);
            if axis == 0 {
                pa.x.total_cmp(&pb.x)
            } else {
                pa.y.total_cmp(&pb.y)
            }
        });
    }
    let node_pos = nodes.len() as u32;
    nodes.push(Node {
        point: idx[mid],
        left: NONE,
        right: NONE,
    });
    let (left_slice, rest) = idx.split_at_mut(mid);
    let right_slice = &mut rest[1..];
    let left = build_rec(points, left_slice, axis ^ 1, nodes);
    let right = build_rec(points, right_slice, axis ^ 1, nodes);
    let node = &mut nodes[node_pos as usize];
    node.left = left;
    node.right = right;
    node_pos
}

/// The serial top of a parallel build: performs exactly the partitions
/// [`build_rec`] would, but once a subslice is no longer larger than
/// `task_len` it is deferred as a [`Task`] (the ids are moved out, the
/// parent link patched after the fan-out).  Returns the subtree root, or
/// [`NONE`] for an empty or deferred subtree.
fn skeleton_rec(
    points: &[Point],
    idx: &mut [u32],
    axis: u8,
    nodes: &mut Vec<Node>,
    tasks: &mut Vec<Task>,
    task_len: usize,
) -> u32 {
    if idx.is_empty() {
        return NONE;
    }
    if idx.len() <= task_len {
        tasks.push(Task {
            idx: Mutex::new(idx.to_vec()),
            axis,
            parent: NONE,
            is_left: false,
        });
        return NONE;
    }
    let mid = idx.len() / 2;
    idx.select_nth_unstable_by(mid, |&a, &b| {
        let (pa, pb) = (&points[a as usize], &points[b as usize]);
        if axis == 0 {
            pa.x.total_cmp(&pb.x)
        } else {
            pa.y.total_cmp(&pb.y)
        }
    });
    let node_pos = nodes.len() as u32;
    nodes.push(Node {
        point: idx[mid],
        left: NONE,
        right: NONE,
    });
    let (left_slice, rest) = idx.split_at_mut(mid);
    let right_slice = &mut rest[1..];
    let tasks_before_left = tasks.len();
    let left = skeleton_rec(points, left_slice, axis ^ 1, nodes, tasks, task_len);
    // A deferred child registered itself as the most recent task; wire the
    // parent slot it must patch.
    if left == NONE && tasks.len() > tasks_before_left {
        let task = tasks.last_mut().expect("task was just pushed");
        task.parent = node_pos;
        task.is_left = true;
    }
    let tasks_before_right = tasks.len();
    let right = skeleton_rec(points, right_slice, axis ^ 1, nodes, tasks, task_len);
    if right == NONE && tasks.len() > tasks_before_right {
        let task = tasks.last_mut().expect("task was just pushed");
        task.parent = node_pos;
        task.is_left = false;
    }
    let node = &mut nodes[node_pos as usize];
    node.left = left;
    node.right = right;
    node_pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(-1.0, 3.0),
            Point::new(4.0, -2.0),
            Point::new(0.5, 0.4),
        ]
    }

    #[test]
    fn empty_tree_queries() {
        let idx = KdIndex::build(&[]);
        assert!(idx.is_empty());
        assert!(idx.nearest(&[], &Point::ORIGIN).is_none());
        assert!(idx.within_radius(&[], &Point::ORIGIN, 10.0).is_empty());
    }

    #[test]
    fn nearest_neighbour_simple() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let (idx, d) = t.nearest(&pts, &Point::new(0.6, 0.5)).unwrap();
        assert_eq!(idx, 5);
        assert!(d < 0.2);
    }

    #[test]
    fn nearest_with_skip_excludes_self() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let (idx, _) = t.nearest_filtered(&pts, &pts[0], |i| i == 0).unwrap();
        assert_eq!(idx, 5); // (0.5, 0.4) is the closest other point
    }

    #[test]
    fn within_radius_returns_ball_members() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let hits = t.within_radius(&pts, &Point::new(0.0, 0.0), 1.5);
        assert_eq!(hits, vec![0, 1, 5]);
    }

    #[test]
    fn within_radius_into_reuses_the_buffer() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let mut buf = vec![99, 98]; // stale contents must be cleared
        t.within_radius_into(&pts, &Point::new(0.0, 0.0), 1.5, &mut buf);
        assert_eq!(buf, vec![0, 1, 5]);
        t.within_radius_into(&pts, &Point::new(100.0, 100.0), 0.5, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn k_nearest_is_sorted() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let knn = t.k_nearest(&pts, &Point::new(0.0, 0.0), 3);
        assert_eq!(knn.len(), 3);
        assert!(knn.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(knn[0].0, 0);
    }

    #[test]
    fn k_nearest_edge_cases() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        assert!(t.k_nearest(&pts, &Point::ORIGIN, 0).is_empty());
        // Asking for more neighbours than points returns all of them, sorted.
        let all = t.k_nearest(&pts, &Point::ORIGIN, 100);
        assert_eq!(all.len(), pts.len());
        assert!(all.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    /// A view of `labels` (one per point, by point id) over `index`.
    fn view_of(index: &KdIndex, labels: &[u32]) -> ComponentView {
        let mut view = ComponentView::default();
        index.refresh_view(&mut view, |p| labels[index.id(p)]);
        view
    }

    #[test]
    fn nearest_foreign_skips_own_component() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        // Points 0 and 5 share component 7; the nearest foreigner of point 0
        // must therefore be point 1, not the closer point 5.
        let view = view_of(&t, &[7, 1, 1, 2, 2, 7]);
        let (idx, d) = t
            .nearest_foreign_within(&pts, &pts[0], [(&view, 7)], f64::INFINITY)
            .unwrap();
        assert_eq!(idx, 1);
        assert!((d - pts[0].distance(&pts[1])).abs() < 1e-12);
        // A component holding every point sees no foreigner.
        let all_same = view_of(&t, &[3; 6]);
        assert!(t
            .nearest_foreign_within(&pts, &pts[0], [(&all_same, 3)], f64::INFINITY)
            .is_none());
    }

    #[test]
    fn nearest_foreign_within_respects_the_bound() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let view = view_of(&t, &[7, 1, 1, 2, 2, 7]);
        let query = |bound| t.nearest_foreign_within(&pts, &pts[0], [(&view, 7)], bound);
        let exact = query(f64::INFINITY).unwrap();
        // A bound at exactly the true distance still reports the point…
        assert_eq!(query(exact.1).unwrap().0, exact.0);
        // …while a tighter bound hides everything.
        assert!(query(exact.1 * 0.99).is_none());
    }

    #[test]
    fn nearest_foreign_with_two_views_skips_either_label() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let components = view_of(&t, &[7, 1, 1, 2, 2, 7]);
        // Point 1 is outside point 0's component but inside its tile, so
        // the next point out, (2, 2), answers.
        let tiles = view_of(&t, &[0, 0, 1, 1, 1, 0]);
        let (idx, _) = t
            .nearest_foreign_within(
                &pts,
                &pts[0],
                [(&components, 7), (&tiles, 0)],
                f64::INFINITY,
            )
            .unwrap();
        assert_eq!(idx, 2);
    }

    #[test]
    fn renumber_moves_points_into_node_order_and_keeps_ids() {
        let pts = sample_points();
        let mut t = KdIndex::build(&pts);
        let plain = t.clone();
        let ordered = t.renumber(&pts);
        assert_eq!(ordered.len(), pts.len());
        let mut seen: Vec<u32> = t.ids().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..pts.len() as u32).collect::<Vec<_>>());
        for (i, node) in t.nodes.iter().enumerate() {
            assert_eq!(node.point as usize, i);
            assert_eq!(ordered[i], pts[t.ids()[i] as usize]);
            assert_eq!(plain.nodes[i].point, t.ids()[i]);
        }
        // Queries report positions in the renumbered slice.
        for q in &pts {
            let (a, da) = plain.nearest(&pts, q).unwrap();
            let (b, db) = t.nearest(&ordered, q).unwrap();
            assert_eq!(a, t.ids()[b] as usize);
            assert_eq!(da.to_bits(), db.to_bits());
        }
    }

    /// Walks the subtree at `node` and returns its set of labels.
    fn subtree_labels(index: &KdIndex, node: u32, labels: &[u32], out: &mut Vec<u32>) {
        if node == NONE {
            return;
        }
        let n = index.nodes[node as usize];
        out.push(labels[index.id(n.point as usize)]);
        subtree_labels(index, n.left, labels, out);
        subtree_labels(index, n.right, labels, out);
    }

    #[test]
    fn view_marks_uniform_subtrees_on_serial_and_spliced_node_arrays() {
        // Large enough for the parallel build to splice task arenas.
        let n = PARALLEL_BUILD_MIN + 300;
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(((i * 7919) % 1013) as f64, ((i * 104729) % 997) as f64))
            .collect();
        // Spatial blocks (many uniform subtrees) with a few stray labels
        // sprinkled in (mixed subtrees up the tree).
        let labels: Vec<u32> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i % 211 == 0 {
                    99
                } else {
                    (p.x / 128.0) as u32 * 8 + (p.y / 128.0) as u32
                }
            })
            .collect();
        for threads in [1usize, 2, 3] {
            let index = KdIndex::build_with_threads(&pts, threads);
            let view = view_of(&index, &labels);
            let (mut uniform, mut mixed) = (0, 0);
            for i in 0..index.len() {
                let mut below = Vec::new();
                subtree_labels(&index, i as u32, &labels, &mut below);
                assert_eq!(view.labels[i].0, below[0], "threads={threads} node {i}");
                below.sort_unstable();
                below.dedup();
                let want = if below.len() == 1 {
                    uniform += 1;
                    below[0]
                } else {
                    mixed += 1;
                    ComponentView::MIXED
                };
                assert_eq!(view.labels[i].1, want, "threads={threads} node {i}");
            }
            assert!(uniform > 0 && mixed > 0, "threads={threads}");
        }
    }

    /// The linear-scan oracle of the nearest-foreign query: the minimum over
    /// foreign points under the `(distance, id)` order.
    fn foreign_by_scan(
        pts: &[Point],
        q: &Point,
        foreign: impl Fn(usize) -> bool,
    ) -> Option<(usize, f64)> {
        (0..pts.len())
            .filter(|&i| foreign(i))
            .map(|i| (i, q.distance(&pts[i])))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Checks both views (one and two label pairs) of a plain and a
    /// renumbered index against [`foreign_by_scan`], bit for bit, with
    /// `label` and `tile` the query's own labels.
    fn check_foreign_query(
        pts: &[Point],
        labels: &[u32],
        tiles: &[u32],
        q: &Point,
        label: u32,
        tile: u32,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let want_one = foreign_by_scan(pts, q, |i| labels[i] != label);
        let want_two = foreign_by_scan(pts, q, |i| labels[i] != label && tiles[i] != tile);
        let plain = KdIndex::build(pts);
        let mut renumbered = plain.clone();
        let ordered = renumbered.renumber(pts);
        for (index, at) in [(&plain, pts), (&renumbered, &ordered[..])] {
            let view = view_of(index, labels);
            let tile_view = view_of(index, tiles);
            let id = |hit: Option<(usize, f64)>| hit.map(|(i, d)| (index.id(i), d.to_bits()));
            let bits = |hit: Option<(usize, f64)>| hit.map(|(i, d)| (i, d.to_bits()));
            let one = index.nearest_foreign_within(at, q, [(&view, label)], f64::INFINITY);
            prop_assert_eq!(id(one), bits(want_one));
            let two = index.nearest_foreign_within(
                at,
                q,
                [(&view, label), (&tile_view, tile)],
                f64::INFINITY,
            );
            prop_assert_eq!(id(two), bits(want_two));
            // Bounded at the answer's own distance, the answer survives.
            if let Some((_, d)) = want_one {
                let bounded = index.nearest_foreign_within(at, q, [(&view, label)], d);
                prop_assert_eq!(id(bounded), bits(want_one));
            }
        }
        Ok(())
    }

    #[test]
    fn nearest_breaks_distance_ties_towards_smaller_index() {
        // Two points equidistant from the query, straddling the splitting
        // plane; the smaller index must win regardless of tree layout.
        let pts = vec![
            Point::new(-1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 5.0),
        ];
        let t = KdIndex::build(&pts);
        let (idx, d) = t.nearest(&pts, &Point::ORIGIN).unwrap();
        assert_eq!(idx, 0);
        assert!((d - 1.0).abs() < 1e-12);
        // Duplicate points: both at distance 0, index 0 wins.
        let dup = vec![Point::new(2.0, 2.0), Point::new(2.0, 2.0)];
        let td = KdIndex::build(&dup);
        assert_eq!(td.nearest(&dup, &Point::new(2.0, 2.0)).unwrap().0, 0);
    }

    #[test]
    fn parallel_build_produces_the_identical_logical_tree() {
        // Enough points to clear PARALLEL_BUILD_MIN, with duplicate
        // coordinates sprinkled in so median ties are exercised.
        let n = PARALLEL_BUILD_MIN + 137;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let x = ((i * 7919) % 1000) as f64 * 0.25;
                let y = ((i * 104729) % 997) as f64 * 0.5;
                Point::new(x, y)
            })
            .collect();
        let serial = KdIndex::build_with_threads(&pts, 1);
        for threads in [2usize, 3, 8] {
            let parallel = KdIndex::build_with_threads(&pts, threads);
            assert_eq!(parallel.len(), serial.len());
            // The logical trees are identical: compare a full preorder walk
            // (point ids + child presence) rather than raw node arrays,
            // whose layout legitimately differs between schedules.
            fn preorder(index: &KdIndex, node: u32, out: &mut Vec<(u32, bool, bool)>) {
                if node == NONE {
                    return;
                }
                let n = index.nodes[node as usize];
                out.push((n.point, n.left != NONE, n.right != NONE));
                preorder(index, n.left, out);
                preorder(index, n.right, out);
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            preorder(&serial, serial.root, &mut a);
            preorder(&parallel, parallel.root, &mut b);
            assert_eq!(a, b, "threads={threads}");
            // And queries agree bit-for-bit.
            for q in pts.iter().step_by(991) {
                assert_eq!(serial.nearest(&pts, q), parallel.nearest(&pts, q));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_nearest_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..60),
            qx in -50.0..50.0f64, qy in -50.0..50.0f64,
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let q = Point::new(qx, qy);
            let t = KdIndex::build(&pts);
            let (idx, d) = t.nearest(&pts, &q).unwrap();
            let best_lin = pts.iter().map(|p| q.distance(p)).fold(f64::INFINITY, f64::min);
            prop_assert!((d - best_lin).abs() < 1e-9);
            prop_assert!((q.distance(&pts[idx]) - d).abs() < 1e-12);
        }

        #[test]
        fn prop_k_nearest_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..60),
            qx in -50.0..50.0f64, qy in -50.0..50.0f64,
            k in 1usize..12,
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let q = Point::new(qx, qy);
            let t = KdIndex::build(&pts);
            let got = t.k_nearest(&pts, &q, k);
            let mut expected: Vec<(usize, f64)> = (0..pts.len())
                .map(|i| (i, q.distance(&pts[i])))
                .collect();
            expected.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            expected.truncate(k);
            prop_assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(expected.iter()) {
                prop_assert!((g.1 - e.1).abs() < 1e-12, "distance mismatch: {:?} vs {:?}", g, e);
            }
        }

        #[test]
        fn prop_nearest_foreign_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64, 0u32..4, 0u32..3), 1..50),
            qx in -50.0..50.0f64, qy in -50.0..50.0f64,
            label in 0u32..4, tile in 0u32..3,
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y, _, _)| Point::new(x, y)).collect();
            let labels: Vec<u32> = xs.iter().map(|&(_, _, l, _)| l).collect();
            let tiles: Vec<u32> = xs.iter().map(|&(_, _, _, t)| t).collect();
            check_foreign_query(&pts, &labels, &tiles, &Point::new(qx, qy), label, tile)?;
        }

        #[test]
        fn prop_nearest_foreign_matches_linear_scan_on_snapped_lattices(
            xs in proptest::collection::vec((0u32..6, 0u32..6, 0u32..3, 0u32..2), 1..70),
            query in 0usize..70,
        ) {
            // Integer-snapped points: exact duplicates, shared columns and
            // rows, and distance ties everywhere, so the id tie-break
            // decides most answers.  Queries sit on the points themselves.
            let pts: Vec<Point> =
                xs.iter().map(|&(x, y, _, _)| Point::new(x as f64, y as f64)).collect();
            let labels: Vec<u32> = xs.iter().map(|&(_, _, l, _)| l).collect();
            let tiles: Vec<u32> = xs.iter().map(|&(_, _, _, t)| t).collect();
            let q = query % pts.len();
            check_foreign_query(&pts, &labels, &tiles, &pts[q], labels[q], tiles[q])?;
        }

        #[test]
        fn prop_nearest_foreign_matches_linear_scan_on_duplicates(
            xs in proptest::collection::vec((0usize..5, 0u32..4), 2..60),
            qx in -1.0..6.0f64, qy in -1.0..6.0f64,
            label in 0u32..4,
        ) {
            // A handful of distinct sites, each repeated: whole subtrees of
            // one coordinate, with labels mixed inside them.
            let sites = [(0.0, 0.0), (1.0, 0.5), (2.5, 2.5), (0.5, 4.0), (4.0, 1.0)];
            let pts: Vec<Point> =
                xs.iter().map(|&(s, _)| Point::new(sites[s].0, sites[s].1)).collect();
            let labels: Vec<u32> = xs.iter().map(|&(_, l)| l).collect();
            let tiles: Vec<u32> = xs.iter().map(|&(s, _)| (s % 2) as u32).collect();
            check_foreign_query(&pts, &labels, &tiles, &Point::new(qx, qy), label, 0)?;
        }

        #[test]
        fn prop_radius_query_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..60),
            qx in -50.0..50.0f64, qy in -50.0..50.0f64,
            r in 0.0..100.0f64,
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let q = Point::new(qx, qy);
            let t = KdIndex::build(&pts);
            let mut expected: Vec<usize> = (0..pts.len()).filter(|&i| q.distance(&pts[i]) <= r).collect();
            expected.sort_unstable();
            prop_assert_eq!(t.within_radius(&pts, &q, r), expected);
        }
    }
}
