//! Incrementally maintained Euclidean MSTs for dynamic deployments.
//!
//! [`DynamicEmst`] keeps a degree-5 Euclidean MST correct under three edits —
//! [`insert`](DynamicEmst::insert), [`remove`](DynamicEmst::remove) and
//! [`move_to`](DynamicEmst::move_to) — without re-running the full engine:
//!
//! * **Insert** uses the classic vertex-insertion fact (Chin & Houck): a
//!   minimum spanning tree of `P ∪ {q}` exists inside `T ∪ star(q)`, where
//!   `T` is any MST of `P` and `star(q)` are the edges from `q` to every
//!   point.  Only a bounded star — the points within `max(d₁, lmax)` of
//!   `q` — can enter the tree; those candidates are pruned by the cycle
//!   property and swapped in against tree-path maxima, touching only the
//!   neighbourhood of `q`.
//! * **Remove** deletes the vertex's ≤ 5 incident edges, which splits the
//!   tree into at most 5 components, every remaining tree edge still being
//!   MST-valid (each stays a minimum edge across its own cut).  The repair is
//!   a *localized Borůvka*: repeatedly take the smallest component and ask
//!   the spatial index for its minimum outgoing edge
//!   (nearest-foreign queries per member), merging until one component
//!   remains — at most 4 merges, each exact by the cut property.
//! * **Move** is detach + re-attach under the same slot.
//!
//! Vertices are identified by stable **slots** (monotonically assigned
//! `usize` ids); removed slots are tombstoned.  The spatial index is always
//! a [`TiledKdForest`] — one tile for an unsharded deployment, a grid of
//! tiles for a sharded one — whose per-tile indexes compact themselves
//! through threshold rebuilds.  After every edit the
//! engine reports which live slots had their tree neighborhood changed
//! ([`DynamicEmst::changed_slots`]) — the hook the incremental re-orientation
//! in `antennae-core` keys its dirty set off.
//!
//! Exactness contract (pinned by the edit-script oracle suite in the root
//! `tests/`): after every edit the maintained tree is a genuine MST of the
//! live point set — same total weight and same `lmax` as a from-scratch
//! [`EuclideanMst::build`] — and its maximum degree is repaired to 5 with the
//! same tie-exchange the static engine uses.

use crate::euclidean::{degree_exchange, edge_order, EmstError, EuclideanMst, MAX_MST_DEGREE};
use crate::graph::Graph;
use crate::sharded::{build_sharded, StitchStats};
use antennae_geometry::{Point, TileGrid, TiledKdForest};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Inclusive widening applied to the bounded-star collection radius of the
/// attach path, so a star edge whose *weight* rounds to exactly the
/// radius can never be excluded by the squared-distance ball test.
/// Supersets of the exact star are harmless: the Kruskal merge skips edges
/// past the connection point via union-find, so extra candidates cannot
/// change the take sequence.
const STAR_SLACK: f64 = 1.0 + 4.0 * f64::EPSILON;

/// A tree edge in slot space, ordered by the engines' shared tie-broken
/// total order `(weight, min slot, max slot)`.
type SlotEdge = (f64, u32, u32);

fn make_edge(w: f64, a: usize, b: usize) -> SlotEdge {
    (w, a.min(b) as u32, a.max(b) as u32)
}

/// `(slot, point)` entries for a dense deployment (slot `i` = point `i`).
fn dense_entries(points: &[Point]) -> Vec<(usize, Point)> {
    points.iter().copied().enumerate().collect()
}

/// Errors reported by [`DynamicEmst`] edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicEmstError {
    /// The referenced slot is not a live sensor.
    UnknownSlot(usize),
}

impl std::fmt::Display for DynamicEmstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicEmstError::UnknownSlot(slot) => {
                write!(f, "slot {slot} is not a live sensor")
            }
        }
    }
}

impl std::error::Error for DynamicEmstError {}

/// An incrementally maintained degree-5 Euclidean MST (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct DynamicEmst {
    /// Slot-indexed sensor locations (tombstoned slots keep a stale point).
    points: Vec<Point>,
    alive: Vec<bool>,
    live: usize,
    /// Slot-space tree adjacency, each list sorted ascending by slot.
    adj: Vec<Vec<(usize, f64)>>,
    /// The tree's edges sorted by the shared `(w, min, max)` order — the
    /// source of `lmax` (its last entry) and of the materialized tree.
    sorted_edges: Vec<SlotEdge>,
    /// Spatial index over the live slots: one tile when unsharded.
    index: TiledKdForest,
    /// Live slots whose tree neighborhood changed in the last edit.
    changed: Vec<usize>,
    /// Component-labeling scratch shared by [`DynamicEmst::reconnect`]
    /// (group labels) and [`DynamicEmst::tree_path_max`] (BFS sides): a slot
    /// is labeled in the current pass iff `label_stamp[slot] == label_epoch`.
    /// Stamping makes each pass O(vertices touched), not O(n) clears.
    label_stamp: Vec<u64>,
    label_of: Vec<u32>,
    label_epoch: u64,
    /// BFS parent pointers + parent-edge weights for
    /// [`DynamicEmst::tree_path_max`], valid under the same stamp scheme.
    path_parent: Vec<u32>,
    path_w: Vec<f64>,
}

impl DynamicEmst {
    /// Builds the engine over an initial deployment (slot `i` = point `i`),
    /// delegating the first tree to the static [`EuclideanMst::build`].
    ///
    /// An **empty** initial deployment is allowed: the engine starts with no
    /// live slots (edgeless, `lmax == 0`) and grows through
    /// [`DynamicEmst::insert`] — the shape a long-running service needs when
    /// a deployment is registered before its first sensor arrives.
    pub fn new(points: &[Point]) -> Result<Self, EmstError> {
        let index = TiledKdForest::new(TileGrid::single(), &dense_entries(points));
        if points.is_empty() {
            return Ok(Self::empty(index));
        }
        let initial = EuclideanMst::build(points)?;
        Ok(Self::from_initial(points, &initial, index))
    }

    /// Builds a **tiled** engine over an initial deployment: the first tree
    /// comes from the sharded stitched builder ([`build_sharded`], which is
    /// bit-identical to [`EuclideanMst::build`]), and the spatial index is a
    /// per-tile [`TiledKdForest`] over `grid`.  Subsequent edits behave
    /// edit-for-edit identically to an unsharded engine — same tree bits,
    /// same changed-slot sets — but index rebuild work localizes to the
    /// owning tile.
    ///
    /// Also returns the initial build's [`StitchStats`] for telemetry.
    pub fn new_tiled(
        points: &[Point],
        grid: TileGrid,
        threads: usize,
    ) -> Result<(Self, StitchStats), EmstError> {
        let empty_stats = StitchStats {
            tiles: grid.tiles(),
            occupied_tiles: 0,
            largest_tile: 0,
            tile_edges: 0,
            cross_edges: 0,
            stitch_rounds: 0,
            stitched: false,
        };
        if points.is_empty() {
            return Ok((Self::empty(TiledKdForest::new(grid, &[])), empty_stats));
        }
        let (initial, stats) = build_sharded(points, &grid, threads)?;
        let index = TiledKdForest::new(grid, &dense_entries(points));
        Ok((Self::from_initial(points, &initial, index), stats))
    }

    fn empty(index: TiledKdForest) -> Self {
        DynamicEmst {
            points: Vec::new(),
            alive: Vec::new(),
            live: 0,
            adj: Vec::new(),
            sorted_edges: Vec::new(),
            index,
            changed: Vec::new(),
            label_stamp: Vec::new(),
            label_of: Vec::new(),
            label_epoch: 0,
            path_parent: Vec::new(),
            path_w: Vec::new(),
        }
    }

    fn from_initial(points: &[Point], initial: &EuclideanMst, index: TiledKdForest) -> Self {
        let n = points.len();
        let mut sorted_edges: Vec<SlotEdge> = initial
            .edges()
            .iter()
            .map(|e| make_edge(e.weight, e.u, e.v))
            .collect();
        sorted_edges.sort_unstable_by(|&a, &b| edge_order(a, b));
        let mut emst = DynamicEmst {
            points: points.to_vec(),
            alive: vec![true; n],
            live: n,
            adj: vec![Vec::new(); n],
            sorted_edges,
            index,
            changed: Vec::new(),
            label_stamp: vec![0; n],
            label_of: vec![0; n],
            label_epoch: 0,
            path_parent: vec![0; n],
            path_w: vec![0.0; n],
        };
        emst.rebuild_adjacency();
        emst
    }

    /// Number of live sensors.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Returns `true` when `slot` holds a live sensor.
    pub fn is_alive(&self, slot: usize) -> bool {
        self.alive.get(slot).copied().unwrap_or(false)
    }

    /// The location of a live slot.
    pub fn point(&self, slot: usize) -> Point {
        debug_assert!(self.is_alive(slot));
        self.points[slot]
    }

    /// Tree neighbours of a live slot, ascending by slot, with edge lengths.
    pub fn neighbors(&self, slot: usize) -> &[(usize, f64)] {
        &self.adj[slot]
    }

    /// The longest tree edge (`lmax`), 0 when fewer than two sensors live.
    pub fn lmax(&self) -> f64 {
        self.sorted_edges.last().map_or(0.0, |&(w, _, _)| w)
    }

    /// Total tree weight.
    pub fn total_weight(&self) -> f64 {
        self.sorted_edges.iter().map(|&(w, _, _)| w).sum()
    }

    /// Maximum tree degree over live slots.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Live slots in ascending order.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.points.len()).filter(|&s| self.alive[s]).collect()
    }

    /// One past the largest slot ever assigned — the slot the next
    /// [`DynamicEmst::insert`] will return.  Lets callers (the deployment
    /// server's edit validator) project id assignment without mutating.
    pub fn slot_bound(&self) -> usize {
        self.points.len()
    }

    /// Queries the shared spatial index for every live slot within `radius`
    /// of `query` (closed ball, `out` sorted ascending) — reused by the
    /// verification side of a dynamic solver session.  `scratch` is caller
    /// scratch space so steady-state queries allocate nothing.
    pub fn within_radius_with(
        &self,
        query: &Point,
        radius: f64,
        scratch: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        self.index.within_radius_with(query, radius, scratch, out);
    }

    /// The tile grid of a sharded engine, `None` for an unsharded one (whose
    /// index is a single tile).
    pub fn tile_grid(&self) -> Option<&TileGrid> {
        let grid = self.index.grid();
        (grid.tiles() > 1).then_some(grid)
    }

    /// Occupied tile count of a sharded engine, `None` for an unsharded one.
    pub fn occupied_tiles(&self) -> Option<usize> {
        self.tile_grid()?;
        Some(self.index.occupied_tiles())
    }

    /// Swaps the spatial index in place: `Some(grid)` re-tiles the engine
    /// over that grid, `None` reverts to a single tile.  The tree, the
    /// slots and every future edit result are unaffected — the index is a
    /// pure acceleration structure and answers queries bit-identically over
    /// any grid — so this is how a deployment recovered by replay (which
    /// starts empty, hence unsharded) adopts its configured sharding after
    /// the fact.
    pub fn set_tile_grid(&mut self, grid: Option<TileGrid>) {
        let entries: Vec<(usize, Point)> = (0..self.points.len())
            .filter(|&s| self.alive[s])
            .map(|s| (s, self.points[s]))
            .collect();
        self.index = TiledKdForest::new(grid.unwrap_or_else(TileGrid::single), &entries);
    }

    /// The live points in ascending slot order (what a shard spec resolves
    /// its grid against).
    pub fn live_points(&self) -> Vec<Point> {
        (0..self.points.len())
            .filter(|&s| self.alive[s])
            .map(|s| self.points[s])
            .collect()
    }

    /// Live slots whose tree neighborhood changed in the most recent edit
    /// (sorted, deduplicated; includes an inserted/moved slot itself).
    pub fn changed_slots(&self) -> &[usize] {
        &self.changed
    }

    /// Inserts a sensor, returning its freshly assigned slot.
    pub fn insert(&mut self, p: Point) -> usize {
        let slot = self.points.len();
        self.points.push(p);
        self.alive.push(true);
        self.adj.push(Vec::new());
        self.label_stamp.push(0);
        self.label_of.push(0);
        self.path_parent.push(0);
        self.path_w.push(0.0);
        self.live += 1;
        self.index.insert(slot, p);
        self.changed.clear();
        self.changed.push(slot);
        self.attach(slot);
        self.finish_edit();
        slot
    }

    /// Removes a live sensor (errors on dead slots).  Draining to zero is
    /// allowed: removing the last sensor leaves an edgeless engine with
    /// `lmax == 0` that can be regrown through [`DynamicEmst::insert`].
    pub fn remove(&mut self, slot: usize) -> Result<(), DynamicEmstError> {
        if !self.is_alive(slot) {
            return Err(DynamicEmstError::UnknownSlot(slot));
        }
        self.changed.clear();
        self.alive[slot] = false;
        self.live -= 1;
        self.index.remove(slot);
        self.detach(slot);
        self.finish_edit();
        Ok(())
    }

    /// Moves a live sensor to a new location, keeping its slot.
    pub fn move_to(&mut self, slot: usize, p: Point) -> Result<(), DynamicEmstError> {
        if !self.is_alive(slot) {
            return Err(DynamicEmstError::UnknownSlot(slot));
        }
        self.changed.clear();
        self.changed.push(slot);
        // Detach from the tree, then re-attach at the new location.  The
        // slot leaves the spatial index *before* the detach so the
        // reconnection's nearest-foreign queries cannot wire an edge back to
        // the vacating sensor.
        self.index.remove(slot);
        self.alive[slot] = false;
        self.live -= 1;
        self.detach(slot);
        self.points[slot] = p;
        self.index.insert(slot, p);
        self.alive[slot] = true;
        self.live += 1;
        self.attach(slot);
        self.finish_edit();
        Ok(())
    }

    /// Dedup + drop-dead pass over the changed set after an edit.
    fn finish_edit(&mut self) {
        self.changed.retain(|&s| self.alive[s]);
        self.changed.sort_unstable();
        self.changed.dedup();
    }

    /// Connects `slot` (live, currently edge-less) to the spanning tree of
    /// the other live slots.
    ///
    /// Only a **bounded star** can matter: with `d₁` the distance to the
    /// nearest live sensor and `R = max(d₁, lmax)`, every star edge a
    /// Kruskal pass over `merge(tree edges, star)` can possibly *take* has
    /// weight ≤ `R` — once all old tree edges (each ≤ `lmax`) and the edge to
    /// the nearest neighbour (`d₁`) have been processed, the forest is fully
    /// connected and later star edges are union-find no-ops.  Collecting the
    /// closed ball of radius `R` (ulp-widened by [`STAR_SLACK`]) therefore
    /// reproduces the full star's result bit-for-bit while touching
    /// `O(ball)` points instead of `O(n)`.
    fn attach(&mut self, slot: usize) {
        if self.live <= 1 {
            return;
        }
        let apex = self.points[slot];
        let (_, d1) = self
            .index
            .nearest_filtered_slot(&apex, |s| s == slot)
            .expect("live > 1, so a nearest foreign sensor exists");
        let radius = d1.max(self.lmax()) * STAR_SLACK;
        let mut ball = Vec::new();
        self.index
            .within_radius_with(&apex, radius, &mut Vec::new(), &mut ball);
        let mut star: Vec<SlotEdge> = ball
            .iter()
            .filter(|&&t| t != slot)
            .map(|&t| make_edge(apex.distance(&self.points[t]), slot, t))
            .collect();
        star.sort_unstable_by(|&a, &b| edge_order(a, b));
        self.attach_local(slot, &star);
        self.repair_degrees();
    }

    /// Exact vertex insertion without touching the rest of the tree.  `star`
    /// is the sorted bounded star (see [`DynamicEmst::attach`]); the final
    /// tree is the same unique MST a Kruskal pass over the merge of the tree
    /// and the full star produces, via two exact reductions:
    ///
    /// 1. **Cycle-property pruning.**  A candidate `(v, u)` with a witness
    ///    `z` such that both `(v, z)` and `(z, u)` precede it in the shared
    ///    edge order is the strict maximum of the triangle `v–z–u`, so it is
    ///    in no MST and can be dropped.  Any witness closer to `v` than `u`
    ///    lies inside the collection ball, so scanning earlier star entries
    ///    finds one whenever it exists; survivors are pairwise ≥ 60° apart
    ///    around `v` (else the nearer endpoint witnesses against the
    ///    farther), hence at most six — the relative-neighborhood-graph
    ///    bound.
    /// 2. **Path-max swaps (Chin & Houck).**  The smallest star edge is the
    ///    minimum edge across the cut `{v}`, so it joins unconditionally.
    ///    Each further survivor `e = (v, u)` closes one cycle with the
    ///    current tree path `v⋯u`; by the cycle property the tree stays
    ///    minimum iff the path's maximum edge `M` survives, so `e` enters
    ///    (and `M` leaves) exactly when `e < M`.  Each step keeps the tree
    ///    an exact MST of the edges considered so far, and the Chin–Houck
    ///    fact (`MST(P ∪ {v}) ⊆ T ∪ star(v)`) makes the final tree the MST
    ///    of the full point set.
    fn attach_local(&mut self, slot: usize, star: &[SlotEdge]) {
        debug_assert!(!star.is_empty(), "live > 1 leaves at least one candidate");
        let mut survivors: Vec<SlotEdge> = Vec::new();
        'candidates: for (ci, &e) in star.iter().enumerate() {
            let u = if e.1 as usize == slot { e.2 } else { e.1 } as usize;
            for &ze in &star[..ci] {
                let z = if ze.1 as usize == slot { ze.2 } else { ze.1 } as usize;
                let zu = make_edge(self.points[z].distance(&self.points[u]), z, u);
                if edge_order(zu, e) == std::cmp::Ordering::Less {
                    continue 'candidates;
                }
            }
            survivors.push(e);
        }

        let first = survivors[0];
        self.adj_insert(first.1 as usize, first.2 as usize, first.0);
        self.adj_insert(first.2 as usize, first.1 as usize, first.0);
        self.insert_sorted(first);
        self.changed.push(first.1 as usize);
        self.changed.push(first.2 as usize);

        for &e in &survivors[1..] {
            let u = if e.1 as usize == slot { e.2 } else { e.1 } as usize;
            let m = self.tree_path_max(slot, u);
            if edge_order(e, m) == std::cmp::Ordering::Less {
                let (ma, mb) = (m.1 as usize, m.2 as usize);
                self.adj[ma].retain(|&(x, _)| x != mb);
                self.adj[mb].retain(|&(x, _)| x != ma);
                self.remove_sorted(m);
                self.changed.push(ma);
                self.changed.push(mb);
                self.adj_insert(e.1 as usize, e.2 as usize, e.0);
                self.adj_insert(e.2 as usize, e.1 as usize, e.0);
                self.insert_sorted(e);
                self.changed.push(e.1 as usize);
                self.changed.push(e.2 as usize);
            }
        }
    }

    /// The maximum edge (by the shared order) on the unique tree path
    /// between live slots `a` and `b`, found by a bidirectional BFS that
    /// meets near the middle — O(vertices within half the path's hop
    /// distance), independent of the tree size for nearby endpoints.
    fn tree_path_max(&mut self, a: usize, b: usize) -> SlotEdge {
        debug_assert!(a != b);
        self.label_epoch += 1;
        let epoch = self.label_epoch;
        self.label_stamp[a] = epoch;
        self.label_of[a] = 0;
        self.path_parent[a] = u32::MAX;
        self.label_stamp[b] = epoch;
        self.label_of[b] = 1;
        self.path_parent[b] = u32::MAX;
        let mut frontiers: [Vec<usize>; 2] = [vec![a], vec![b]];
        let meet: (usize, usize, f64) = 'search: loop {
            // Expand the smaller frontier one full level.
            let side = usize::from(frontiers[1].len() < frontiers[0].len());
            debug_assert!(!frontiers[side].is_empty(), "endpoints are connected");
            let mut next = Vec::new();
            for &v in &frontiers[side] {
                for i in 0..self.adj[v].len() {
                    let (u, w) = self.adj[v][i];
                    if self.label_stamp[u] != epoch {
                        self.label_stamp[u] = epoch;
                        self.label_of[u] = side as u32;
                        self.path_parent[u] = v as u32;
                        self.path_w[u] = w;
                        next.push(u);
                    } else if self.label_of[u] as usize != side {
                        break 'search (v, u, w);
                    }
                }
            }
            frontiers[side] = next;
        };
        // The unique a–b path is (a ⋯ v) + (v, u) + (u ⋯ b); fold the
        // parent chains on both sides into the running maximum.
        let mut max = make_edge(meet.2, meet.0, meet.1);
        for start in [meet.0, meet.1] {
            let mut x = start;
            while self.path_parent[x] != u32::MAX {
                let p = self.path_parent[x] as usize;
                let e = make_edge(self.path_w[x], x, p);
                if edge_order(e, max) == std::cmp::Ordering::Greater {
                    max = e;
                }
                x = p;
            }
        }
        max
    }

    /// Removes `slot`'s incident edges and reconnects the resulting ≤ 5
    /// components with their minimum outgoing edges (localized Borůvka over
    /// the cached kd-tree).  `slot` must already be excluded from the live
    /// set (dead, or temporarily detached by a move).
    fn detach(&mut self, slot: usize) {
        let incident: Vec<(usize, f64)> = std::mem::take(&mut self.adj[slot]);
        for &(u, w) in &incident {
            self.adj[u].retain(|&(v, _)| v != slot);
            self.remove_sorted(make_edge(w, slot, u));
            self.changed.push(u);
        }
        if incident.len() >= 2 {
            let seeds: Vec<usize> = incident.iter().map(|&(u, _)| u).collect();
            self.reconnect(&seeds);
        }
        self.repair_degrees();
    }

    /// Borůvka-style reconnection of the spanning forest left by a vertex
    /// detach into a single tree.  `seeds` are the detached vertex's former
    /// neighbours — one per component, since removing a vertex from a tree
    /// splits it into exactly one component per neighbour.
    ///
    /// Component discovery is a **lockstep BFS** from the seeds: all
    /// frontiers advance one vertex per round, so the cost of labeling
    /// tracks the *small* components (≈ seeds × second-largest size), not
    /// the whole tree — the giant component on the far side of the cut is
    /// left unlabeled and is simply never the query side.  Every added edge
    /// is a minimum outgoing edge of a fully discovered component, so the
    /// result is the unique MST regardless of merge order (cut property) —
    /// bit-identical to a full relabeling pass.
    fn reconnect(&mut self, seeds: &[usize]) {
        self.label_epoch += 1;
        let epoch = self.label_epoch;

        // Per-seed group state: `members` doubles as the BFS queue (indexed
        // by `head`); a group is complete when its queue drains.
        let mut members: Vec<Vec<usize>> = Vec::with_capacity(seeds.len());
        let mut head: Vec<usize> = vec![0; seeds.len()];
        let mut complete: Vec<bool> = vec![false; seeds.len()];
        let mut merged: Vec<bool> = vec![false; seeds.len()];
        for (g, &s) in seeds.iter().enumerate() {
            debug_assert!(self.label_stamp[s] != epoch, "seeds share a component");
            self.label_stamp[s] = epoch;
            self.label_of[s] = g as u32;
            members.push(vec![s]);
        }

        // Lockstep discovery until at most one group (the giant) is still
        // expanding.
        let mut incomplete = seeds.len();
        while incomplete > 1 {
            for g in 0..members.len() {
                if complete[g] {
                    continue;
                }
                if head[g] == members[g].len() {
                    complete[g] = true;
                    incomplete -= 1;
                    continue;
                }
                let v = members[g][head[g]];
                head[g] += 1;
                for i in 0..self.adj[v].len() {
                    let u = self.adj[v][i].0;
                    if self.label_stamp[u] != epoch {
                        self.label_stamp[u] = epoch;
                        self.label_of[u] = g as u32;
                        members[g].push(u);
                    } else {
                        debug_assert!(
                            self.label_of[u] as usize == g,
                            "distinct components cannot meet in a forest"
                        );
                    }
                }
            }
        }

        // Merge loop: repeatedly take the smallest complete component, wire
        // in its minimum outgoing edge, and fold it into the component on
        // the other side.  Exactly `seeds.len() - 1` edges reconnect the
        // tree.
        for _ in 0..seeds.len() - 1 {
            let (ci, _) = members
                .iter()
                .enumerate()
                .filter(|&(g, _)| complete[g] && !merged[g])
                .min_by_key(|(_, m)| m.len())
                .expect("a complete unmerged component remains");
            let label = ci as u32;
            let mut best: Option<(SlotEdge, usize)> = None; // (edge, foreign slot)
            for &v in &members[ci] {
                let found = self.index.nearest_filtered_slot(&self.points[v], |s| {
                    self.label_stamp[s] == epoch && self.label_of[s] == label
                });
                if let Some((u, d)) = found {
                    let e = make_edge(d, v, u);
                    if best.is_none_or(|(b, _)| edge_order(e, b) == std::cmp::Ordering::Less) {
                        best = Some((e, u));
                    }
                }
            }
            let (edge, foreign) = best.expect("a second component exists");
            let (a, b) = (edge.1 as usize, edge.2 as usize);
            self.adj_insert(a, b, edge.0);
            self.adj_insert(b, a, edge.0);
            self.insert_sorted(edge);
            self.changed.push(a);
            self.changed.push(b);

            merged[ci] = true;
            if self.label_stamp[foreign] == epoch {
                let target = self.label_of[foreign] as usize;
                if complete[target] {
                    // Fold into another small component: its future queries
                    // must treat our members as same-side, and may issue
                    // from them.
                    let moved = std::mem::take(&mut members[ci]);
                    for &m in &moved {
                        self.label_of[m] = target as u32;
                    }
                    members[target].extend(moved);
                }
                // Folding into the giant needs no relabeling: our stale
                // label is never a query side again, and other components
                // already treat it as foreign.
            }
        }
    }

    fn rebuild_adjacency(&mut self) {
        for list in &mut self.adj {
            list.clear();
        }
        for &(w, a, b) in &self.sorted_edges {
            self.adj[a as usize].push((b as usize, w));
            self.adj[b as usize].push((a as usize, w));
        }
        for list in &mut self.adj {
            list.sort_unstable_by_key(|&(s, _)| s);
        }
    }

    fn adj_insert(&mut self, u: usize, v: usize, w: f64) {
        let list = &mut self.adj[u];
        let pos = list.partition_point(|&(s, _)| s < v);
        list.insert(pos, (v, w));
    }

    fn insert_sorted(&mut self, e: SlotEdge) {
        let pos = self
            .sorted_edges
            .partition_point(|&x| edge_order(x, e) == std::cmp::Ordering::Less);
        self.sorted_edges.insert(pos, e);
    }

    fn remove_sorted(&mut self, e: SlotEdge) {
        let pos = self
            .sorted_edges
            .partition_point(|&x| edge_order(x, e) == std::cmp::Ordering::Less);
        debug_assert!(
            self.sorted_edges.get(pos) == Some(&e),
            "edge {e:?} not in cache"
        );
        self.sorted_edges.remove(pos);
    }

    /// The static engine's degree repair ([`degree_exchange`], smallest
    /// violating slot first) over the slots the current edit touched.
    ///
    /// Only slots whose degree changed in the current edit can newly violate
    /// (the previous repair left none), and every such slot is in the
    /// `changed` set — so the scan runs over a min-heap of candidates
    /// instead of the whole slot space.  Popping the smallest candidate
    /// reproduces the smallest-violating-slot-first order of a full
    /// ascending scan exactly.
    fn repair_degrees(&mut self) {
        let mut heap: BinaryHeap<Reverse<usize>> =
            self.changed.iter().copied().map(Reverse).collect();
        let mut budget = 4 * self.live + 16;
        while let Some(Reverse(v)) = heap.pop() {
            if !self.alive.get(v).copied().unwrap_or(false) || self.adj[v].len() <= MAX_MST_DEGREE {
                continue;
            }
            if budget == 0 {
                return;
            }
            budget -= 1;
            let (drop_endpoint, a, b) = degree_exchange(&self.points, v, &self.adj[v]);
            let dropped_w = self.points[v].distance(&self.points[drop_endpoint]);
            self.adj[v].retain(|&(u, _)| u != drop_endpoint);
            self.adj[drop_endpoint].retain(|&(u, _)| u != v);
            self.remove_sorted(make_edge(dropped_w, v, drop_endpoint));
            let w = self.points[a].distance(&self.points[b]);
            self.adj_insert(a, b, w);
            self.adj_insert(b, a, w);
            self.insert_sorted(make_edge(w, a, b));
            self.changed.push(v);
            self.changed.push(a);
            self.changed.push(b);
            heap.extend([Reverse(v), Reverse(a), Reverse(b)]);
        }
    }

    /// Materializes the live deployment as a dense [`EuclideanMst`].
    ///
    /// Live slots are mapped to dense indices in ascending slot order, and
    /// tree edges are inserted sorted by `(min, max)` dense endpoints so
    /// that every vertex's adjacency list comes out ascending — the same
    /// canonical neighbour order the incremental re-orientation uses, which
    /// is what makes the dynamic scheme bit-identical to a full re-orient on
    /// the materialized instance even under angular ties.
    pub fn materialize(&self) -> Result<EuclideanMst, EmstError> {
        let slots = self.live_slots();
        if slots.is_empty() {
            return Err(EmstError::EmptyPointSet);
        }
        let mut dense_of = vec![u32::MAX; self.points.len()];
        for (dense, &slot) in slots.iter().enumerate() {
            dense_of[slot] = dense as u32;
        }
        let points: Vec<Point> = slots.iter().map(|&s| self.points[s]).collect();
        let mut edges: Vec<(u32, u32, f64)> = self
            .sorted_edges
            .iter()
            .map(|&(w, a, b)| {
                // Slot→dense is monotone, so (min, max) is preserved.
                (dense_of[a as usize], dense_of[b as usize], w)
            })
            .collect();
        edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut tree = Graph::new(points.len());
        for (a, b, w) in edges {
            tree.add_edge(a as usize, b as usize, w);
        }
        EuclideanMst::from_precomputed(points, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0)))
            .collect()
    }

    /// The maintained tree must match a from-scratch build: spanning, same
    /// weight, same `lmax`, degree ≤ 5.
    fn assert_matches_rebuild(emst: &DynamicEmst) {
        let live: Vec<Point> = emst.live_slots().iter().map(|&s| emst.point(s)).collect();
        let fresh = EuclideanMst::build(&live).unwrap();
        assert_eq!(emst.sorted_edges.len(), live.len().saturating_sub(1));
        let scale = fresh.total_weight().max(1.0);
        assert!(
            (emst.total_weight() - fresh.total_weight()).abs() < 1e-9 * scale,
            "weight {} vs rebuild {}",
            emst.total_weight(),
            fresh.total_weight()
        );
        assert!(
            (emst.lmax() - fresh.lmax()).abs() < 1e-9 * scale,
            "lmax {} vs rebuild {}",
            emst.lmax(),
            fresh.lmax()
        );
        assert!(emst.max_degree() <= MAX_MST_DEGREE);
        // The materialized dense tree round-trips.
        let dense = emst.materialize().unwrap();
        assert_eq!(dense.len(), live.len());
        assert!((dense.total_weight() - emst.total_weight()).abs() < 1e-9 * scale);
        assert_eq!(dense.lmax(), emst.lmax());
    }

    #[test]
    fn insert_grows_a_correct_tree() {
        let mut emst = DynamicEmst::new(&random_points(2, 1)).unwrap();
        let extra = random_points(30, 2);
        for p in extra {
            emst.insert(p);
            assert_matches_rebuild(&emst);
            assert!(!emst.changed_slots().is_empty());
        }
        assert_eq!(emst.live_count(), 32);
    }

    #[test]
    fn remove_repairs_the_tree() {
        let pts = random_points(40, 3);
        let mut emst = DynamicEmst::new(&pts).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        while emst.live_count() > 1 {
            let live = emst.live_slots();
            let victim = live[rng.random_range(0..live.len())];
            emst.remove(victim).unwrap();
            assert_matches_rebuild(&emst);
        }
        // Draining to one sensor leaves an edgeless tree with lmax 0…
        assert_eq!(emst.lmax(), 0.0);
        // …and draining all the way to zero is allowed.
        emst.remove(emst.live_slots()[0]).unwrap();
        assert_eq!(emst.live_count(), 0);
        assert_eq!(emst.lmax(), 0.0);
        assert_eq!(emst.total_weight(), 0.0);
        assert!(emst.live_slots().is_empty());
    }

    #[test]
    fn empty_engine_grows_and_drains() {
        let mut emst = DynamicEmst::new(&[]).unwrap();
        assert_eq!(emst.live_count(), 0);
        assert_eq!(emst.lmax(), 0.0);
        assert!(matches!(
            emst.remove(0),
            Err(DynamicEmstError::UnknownSlot(0))
        ));

        // Regrow from nothing; slots keep their monotone assignment.
        let a = emst.insert(Point::new(0.0, 0.0));
        let b = emst.insert(Point::new(3.0, 4.0));
        assert_eq!((a, b), (0, 1));
        assert_eq!(emst.slot_bound(), 2);
        assert_eq!(emst.live_count(), 2);
        assert!((emst.lmax() - 5.0).abs() < 1e-12);
        assert_matches_rebuild(&emst);

        // Drain back to zero and grow once more: tombstoned slots stay dead.
        emst.remove(a).unwrap();
        emst.remove(b).unwrap();
        assert_eq!(emst.live_count(), 0);
        let c = emst.insert(Point::new(1.0, 1.0));
        assert_eq!(c, 2);
        assert_eq!(emst.live_slots(), vec![2]);
        assert_eq!(emst.lmax(), 0.0);
    }

    #[test]
    fn moves_track_the_rebuild() {
        let pts = random_points(25, 4);
        let mut emst = DynamicEmst::new(&pts).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..40 {
            let live = emst.live_slots();
            let slot = live[rng.random_range(0..live.len())];
            let p = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
            emst.move_to(slot, p).unwrap();
            assert!((emst.point(slot).x - p.x).abs() < 1e-15);
            assert_matches_rebuild(&emst);
            assert!(emst.changed_slots().contains(&slot));
        }
    }

    #[test]
    fn mixed_script_with_duplicates_and_ties() {
        // Integer lattice plus exact duplicates: maximal tie pressure.
        let mut pts = Vec::new();
        for i in 0..5 {
            for j in 0..4 {
                pts.push(Point::new(i as f64, j as f64));
            }
        }
        let mut emst = DynamicEmst::new(&pts).unwrap();
        let dup = emst.insert(Point::new(2.0, 2.0)); // exact duplicate
        assert_matches_rebuild(&emst);
        emst.insert(Point::new(2.0, 2.0));
        assert_matches_rebuild(&emst);
        emst.remove(dup).unwrap();
        assert_matches_rebuild(&emst);
        emst.move_to(7, Point::new(0.0, 0.0)).unwrap(); // onto another point
        assert_matches_rebuild(&emst);
    }

    #[test]
    fn dead_slots_are_rejected() {
        let mut emst = DynamicEmst::new(&random_points(5, 6)).unwrap();
        emst.remove(2).unwrap();
        assert!(matches!(
            emst.remove(2),
            Err(DynamicEmstError::UnknownSlot(2))
        ));
        assert!(matches!(
            emst.move_to(2, Point::ORIGIN),
            Err(DynamicEmstError::UnknownSlot(2))
        ));
        assert!(!emst.is_alive(2));
        assert_eq!(emst.live_slots(), vec![0, 1, 3, 4]);
    }

    /// A tiled engine must be **edit-for-edit bit-identical** to an
    /// unsharded (single-tile) one: same sorted edge cache (weights compared by bits), same changed
    /// sets, same lmax/total-weight bits after every edit.
    #[test]
    fn tiled_engine_matches_global_edit_for_edit() {
        let pts = random_points(120, 21);
        let grid = TileGrid::with_tiles_per_axis(&pts, 3).unwrap();
        let mut global = DynamicEmst::new(&pts).unwrap();
        let (mut tiled, _) = DynamicEmst::new_tiled(&pts, grid, 2).unwrap();

        let assert_same = |g: &DynamicEmst, t: &DynamicEmst| {
            let key = |e: &SlotEdge| (e.1, e.2, e.0.to_bits());
            let ge: Vec<_> = g.sorted_edges.iter().map(key).collect();
            let te: Vec<_> = t.sorted_edges.iter().map(key).collect();
            assert_eq!(ge, te);
            assert_eq!(g.changed_slots(), t.changed_slots());
            assert_eq!(g.lmax().to_bits(), t.lmax().to_bits());
            assert_eq!(g.total_weight().to_bits(), t.total_weight().to_bits());
        };
        assert_same(&global, &tiled);

        let mut rng = StdRng::seed_from_u64(22);
        for step in 0..120 {
            match step % 3 {
                0 => {
                    let p = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
                    assert_eq!(global.insert(p), tiled.insert(p));
                }
                1 => {
                    let live = global.live_slots();
                    let victim = live[rng.random_range(0..live.len())];
                    global.remove(victim).unwrap();
                    tiled.remove(victim).unwrap();
                }
                _ => {
                    let live = global.live_slots();
                    let slot = live[rng.random_range(0..live.len())];
                    let p = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
                    global.move_to(slot, p).unwrap();
                    tiled.move_to(slot, p).unwrap();
                }
            }
            assert_same(&global, &tiled);
        }
        assert!(tiled.tile_grid().is_some());
        assert!(global.tile_grid().is_none());
        assert_matches_rebuild(&tiled);
    }

    /// Tiled engines start from nothing too (the deployment-server shape),
    /// including edits that push points outside the original grid bounds
    /// (clamped to the boundary tiles).
    #[test]
    fn tiled_engine_grows_from_empty_and_clamps_outliers() {
        let seed = random_points(4, 30);
        let grid = TileGrid::with_tiles_per_axis(&seed, 2).unwrap();
        let (mut tiled, stats) = DynamicEmst::new_tiled(&[], grid, 1).unwrap();
        assert_eq!(stats.occupied_tiles, 0);
        let mut global = DynamicEmst::new(&[]).unwrap();
        for p in &seed {
            assert_eq!(global.insert(*p), tiled.insert(*p));
        }
        // Far outside the grid's bounding box on both sides.
        for p in [Point::new(-500.0, -500.0), Point::new(900.0, 900.0)] {
            assert_eq!(global.insert(p), tiled.insert(p));
        }
        let key = |e: &SlotEdge| (e.1, e.2, e.0.to_bits());
        let ge: Vec<_> = global.sorted_edges.iter().map(key).collect();
        let te: Vec<_> = tiled.sorted_edges.iter().map(key).collect();
        assert_eq!(ge, te);
        assert_matches_rebuild(&tiled);
    }

    #[test]
    fn changed_slots_are_local_for_isolated_edits() {
        // A long path: moving one interior vertex slightly must not touch
        // the far ends.
        let pts: Vec<Point> = (0..50).map(|i| Point::new(i as f64, 0.0)).collect();
        let mut emst = DynamicEmst::new(&pts).unwrap();
        emst.move_to(25, Point::new(25.0, 0.1)).unwrap();
        assert_matches_rebuild(&emst);
        let changed = emst.changed_slots();
        assert!(changed.contains(&25));
        assert!(changed.len() <= 6, "changed set {changed:?} not local");
        assert!(!changed.contains(&0) && !changed.contains(&49));
    }
}
