//! Bit-parallel batched BFS: 64 sources per machine word.
//!
//! Every hot path of the workspace — view extraction, the per-vertex
//! sweep of `StateMetrics::measure`, LKE certification — runs one
//! bounded BFS *per player*. This module answers up to 64 of those
//! queries with **one** traversal: each node carries a `u64` lane mask
//! (bit `l` set ⇔ source `l` has reached the node), the frontier is
//! expanded level-synchronously with word-wide ORs, and batches larger
//! than 64 sources simply widen the per-node mask to ⌈lanes/64⌉ words.
//!
//! Because BFS distances in an unweighted graph are unique — `d(s, v)`
//! does not depend on traversal order — the per-lane results are
//! **bit-identical** to running the scalar kernel
//! (`crate::bfs`) once per source: same distances, same eccentricities,
//! same ball membership (and [`BatchDistances::lane_ball_into`] emits
//! ascending node ids, exactly the order `crate::view::ball_into`
//! produces after its sort). The direction-optimizing variant
//! ([`Direction::Auto`]) only changes *how* a level's new masks are
//! computed (scanning the frontier's out-edges vs. scanning unvisited
//! nodes' in-edges), never *which* masks result, so it shares the
//! guarantee. DESIGN.md §12 spells out the layout and the argument.
//!
//! Aggregates (eccentricity, reached count, status sum, ball sizes at
//! any radius) come from a per-lane **level histogram** — `counts[d][l]`
//! = nodes first reached by lane `l` at distance `d` — so the common
//! consumers never materialise `n × lanes` distance values. Callers
//! that do need full per-lane distance rows ask for them explicitly
//! via [`batch_bfs_full`] / [`BatchOptions::distances`].

use crate::bfs::Adjacency;
use crate::{NodeId, INFINITY};

/// Lanes per machine word: one `u64` of the mask vectors covers 64
/// sources; larger batches use ⌈lanes/64⌉ words per node.
pub const WORD_LANES: usize = 64;

/// How each BFS level is expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Always scan the frontier's out-edges (classic top-down).
    TopDown,
    /// Direction-optimizing: switch to bottom-up (scan not-yet-full
    /// nodes' in-edges) while the frontier is degree-heavy, back to
    /// top-down when it thins — keyed on frontier density, decided
    /// deterministically from graph + frontier state only. Results are
    /// identical to [`Direction::TopDown`]; only the work differs.
    #[default]
    Auto,
}

/// Options for [`batch_bfs_opts`]; the plain entry points cover the
/// common cases.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Distance bound (inclusive); nodes beyond it stay unreached.
    pub limit: u32,
    /// Optional deleted node: never enqueued, its incident edges are
    /// ignored — the `H ∖ {u}` semantics of `crate::bfs::bfs_skipping`,
    /// applied to every lane.
    pub skip: Option<NodeId>,
    /// Expansion strategy.
    pub direction: Direction,
    /// Materialise full per-lane distance rows
    /// ([`BatchDistances::lane_distances`]); off by default — the
    /// aggregate accessors work either way.
    pub distances: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { limit: u32::MAX, skip: None, direction: Direction::Auto, distances: false }
    }
}

/// Reusable workspace of the batched kernel: frontier/next masks and
/// node lists. Like `crate::bfs::DistanceBuffer`, create one per
/// thread (or long-lived computation) and pass it to every call; it
/// grows on demand and never shrinks.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Node-major lane masks of the current frontier (bits = lanes
    /// that reached the node at exactly the current level).
    frontier: Vec<u64>,
    /// Node-major lane masks being assembled for the next level.
    next: Vec<u64>,
    /// Nodes with a non-zero frontier mask.
    frontier_nodes: Vec<NodeId>,
    /// Nodes with a non-zero next mask (deduplicated via `in_next`).
    next_nodes: Vec<NodeId>,
    /// Membership flags for `next_nodes`.
    in_next: Vec<bool>,
}

impl BatchScratch {
    /// Fresh scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize, words: usize) {
        self.frontier.clear();
        self.frontier.resize(n * words, 0);
        self.next.clear();
        self.next.resize(n * words, 0);
        self.frontier_nodes.clear();
        self.next_nodes.clear();
        self.in_next.clear();
        self.in_next.resize(n, false);
    }
}

/// Result of one batched run: per-node lane-membership masks, the
/// per-lane level histogram (and the aggregates derived from it), and
/// — only when requested — full per-lane distance rows.
///
/// Reusable like the scratch: pass the same instance to consecutive
/// calls and its allocations are recycled.
#[derive(Debug, Clone, Default)]
pub struct BatchDistances {
    lanes: usize,
    words: usize,
    nodes: usize,
    /// Node-major visited masks: bit `l` of `visited[v·words + l/64]`
    /// ⇔ lane `l` reached node `v` within the limit.
    visited: Vec<u64>,
    /// Level-major histogram, stride `lanes`: `counts[d·lanes + l]` =
    /// nodes first reached by lane `l` at distance `d`.
    counts: Vec<u32>,
    /// Per-lane largest finite distance (0 for an empty lane — the
    /// scalar kernel's return-value convention).
    ecc: Vec<u32>,
    /// Per-lane visited count (source included).
    reached: Vec<u32>,
    /// Per-lane status sum `Σ_v d(s, v)` over reached nodes.
    status: Vec<u64>,
    /// Union of all lanes' visited nodes, in first-visit order.
    order: Vec<NodeId>,
    /// Lane-major distance rows (`dist[l·n + v]`), when materialised.
    dist: Vec<u32>,
    has_dist: bool,
}

impl BatchDistances {
    /// An empty result buffer to thread through the batch entry points.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lanes (sources) of the most recent run.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Node count of the graph of the most recent run.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Largest finite distance lane `l` reached (0 when the lane
    /// visited nothing — same convention as the scalar kernel's return
    /// value).
    #[inline]
    pub fn ecc(&self, lane: usize) -> u32 {
        self.ecc[lane]
    }

    /// Number of nodes lane `l` reached, source included — equal to
    /// `DistanceBuffer::visited().len()` of the scalar run.
    #[inline]
    pub fn reached(&self, lane: usize) -> usize {
        self.reached[lane] as usize
    }

    /// Sum of finite distances of lane `l` (the status of its source
    /// when the lane reaches everyone).
    #[inline]
    pub fn status_sum(&self, lane: usize) -> u64 {
        self.status[lane]
    }

    /// Number of nodes lane `l` reached at distance `≤ radius` (the
    /// radius-`radius` ball size, for any `radius` up to the run's
    /// limit).
    pub fn ball_size(&self, lane: usize, radius: u32) -> usize {
        let levels = self.counts.len() / self.lanes.max(1);
        let top = (radius as usize).saturating_add(1).min(levels);
        (0..top).map(|d| self.counts[d * self.lanes + lane] as usize).sum()
    }

    /// Whether lane `l` reached node `v`.
    #[inline]
    pub fn lane_visited(&self, lane: usize, v: NodeId) -> bool {
        let word = self.visited[v as usize * self.words + lane / WORD_LANES];
        word >> (lane % WORD_LANES) & 1 != 0
    }

    /// Lane `l`'s visited set as ascending node ids — exactly the
    /// sorted ball `crate::view::ball_into` produces for the same
    /// source and limit.
    pub fn lane_ball_into(&self, lane: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let (w, bit) = (lane / WORD_LANES, lane % WORD_LANES);
        for v in 0..self.nodes {
            if self.visited[v * self.words + w] >> bit & 1 != 0 {
                out.push(v as NodeId);
            }
        }
    }

    /// Every node reached by *any* lane, in first-visit order — the
    /// union sweep the dirty-ball invalidation consumes. Level order
    /// is BFS order; *within* a level the order is
    /// traversal-dependent (frontier order top-down, ascending node
    /// scan bottom-up), so treat this as a set unless the direction
    /// is pinned.
    #[inline]
    pub fn union_visited(&self) -> &[NodeId] {
        &self.order
    }

    /// Full distance row of lane `l` (`INFINITY` = unreached), one
    /// `u32` per node.
    ///
    /// # Panics
    /// Panics unless the run materialised distances
    /// ([`batch_bfs_full`] or [`BatchOptions::distances`]).
    pub fn lane_distances(&self, lane: usize) -> &[u32] {
        assert!(self.has_dist, "run did not materialise distance rows");
        &self.dist[lane * self.nodes..(lane + 1) * self.nodes]
    }

    fn reset(&mut self, n: usize, lanes: usize, words: usize, with_dist: bool) {
        self.lanes = lanes;
        self.words = words;
        self.nodes = n;
        self.visited.clear();
        self.visited.resize(n * words, 0);
        self.counts.clear();
        self.ecc.clear();
        self.ecc.resize(lanes, 0);
        self.reached.clear();
        self.reached.resize(lanes, 0);
        self.status.clear();
        self.status.resize(lanes, 0);
        self.order.clear();
        self.dist.clear();
        self.has_dist = with_dist;
        if with_dist {
            self.dist.resize(lanes * n, INFINITY);
        }
    }

    /// Folds the level histogram into the per-lane aggregates.
    fn finish(&mut self) {
        let lanes = self.lanes;
        if lanes == 0 {
            return;
        }
        for (d, level) in self.counts.chunks_exact(lanes).enumerate() {
            for (lane, &c) in level.iter().enumerate() {
                if c > 0 {
                    self.ecc[lane] = d as u32;
                    self.reached[lane] += c;
                    self.status[lane] += d as u64 * c as u64;
                }
            }
        }
    }
}

/// Batched BFS with default options: every source is its own lane,
/// truncated at `limit` (inclusive), direction-optimizing, aggregates
/// only. Per-lane results are bit-identical to one scalar
/// `crate::bfs::bfs_bounded` call per source.
pub fn batch_bfs<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    limit: u32,
    scratch: &mut BatchScratch,
    out: &mut BatchDistances,
) {
    batch_bfs_opts(g, sources, &BatchOptions { limit, ..BatchOptions::default() }, scratch, out);
}

/// [`batch_bfs`] with full per-lane distance rows materialised
/// ([`BatchDistances::lane_distances`]).
pub fn batch_bfs_full<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    limit: u32,
    scratch: &mut BatchScratch,
    out: &mut BatchDistances,
) {
    let opts = BatchOptions { limit, distances: true, ..BatchOptions::default() };
    batch_bfs_opts(g, sources, &opts, scratch, out);
}

/// The fully-parameterised batched kernel: one level-synchronous
/// traversal answering `sources.len()` independent single-source
/// bounded BFS queries (duplicates allowed — lanes are independent).
pub fn batch_bfs_opts<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    opts: &BatchOptions,
    scratch: &mut BatchScratch,
    out: &mut BatchDistances,
) {
    let n = g.node_count();
    let lanes = sources.len();
    let words = lanes.div_ceil(WORD_LANES).max(1);
    out.reset(n, lanes, words, opts.distances);
    scratch.reset(n, words);
    let skip = opts.skip.unwrap_or(NodeId::MAX);

    // Level 0: seed each lane at its source (skipped lanes stay empty,
    // like the scalar kernel dropping a skipped source).
    out.counts.resize(lanes, 0);
    let mut seeded = false;
    for (lane, &s) in sources.iter().enumerate() {
        debug_assert!((s as usize) < n, "batch BFS source out of range");
        if s == skip {
            continue;
        }
        seeded = true;
        let base = s as usize * words;
        let first_visit = out.visited[base..base + words].iter().all(|&m| m == 0);
        out.visited[base + lane / WORD_LANES] |= 1 << (lane % WORD_LANES);
        scratch.frontier[base + lane / WORD_LANES] |= 1 << (lane % WORD_LANES);
        out.counts[lane] = 1;
        if opts.distances {
            out.dist[lane * n + s as usize] = 0;
        }
        if first_visit {
            out.order.push(s);
            scratch.frontier_nodes.push(s);
        }
    }
    if !seeded {
        out.finish();
        return;
    }

    // Total degree, for the direction heuristic's density denominator
    // (only worth computing when the heuristic can fire).
    let total_deg: usize = match opts.direction {
        Direction::Auto => (0..n as NodeId).map(|u| g.adjacent(u).len()).sum(),
        Direction::TopDown => 0,
    };
    let mut frontier_deg: usize = scratch.frontier_nodes.iter().map(|&u| g.adjacent(u).len()).sum();

    let mut depth = 0u32;
    while !scratch.frontier_nodes.is_empty() && depth < opts.limit {
        // Beamer-style switch: bottom-up pays off while the frontier
        // carries a large share of the edges and is not yet sparse.
        let bottom_up = opts.direction == Direction::Auto
            && frontier_deg * 8 > total_deg
            && scratch.frontier_nodes.len() * 24 > n;
        if bottom_up {
            expand_bottom_up(g, skip, words, scratch, out);
        } else {
            expand_top_down(g, skip, words, scratch, out);
        }
        if scratch.next_nodes.is_empty() {
            break;
        }
        depth += 1;
        commit_level(g, depth, words, scratch, out, &mut frontier_deg);
    }
    out.finish();
}

/// Top-down expansion: scan the frontier's out-edges, OR each frontier
/// mask into the neighbour's `next` word (masked against `visited`).
fn expand_top_down<A: Adjacency + ?Sized>(
    g: &A,
    skip: NodeId,
    words: usize,
    scratch: &mut BatchScratch,
    out: &mut BatchDistances,
) {
    for &u in &scratch.frontier_nodes {
        let fbase = u as usize * words;
        for &v in g.adjacent(u) {
            if v == skip {
                continue;
            }
            let vbase = v as usize * words;
            let mut added = false;
            for w in 0..words {
                let add = scratch.frontier[fbase + w] & !out.visited[vbase + w];
                if add != 0 {
                    scratch.next[vbase + w] |= add;
                    added = true;
                }
            }
            if added && !scratch.in_next[v as usize] {
                scratch.in_next[v as usize] = true;
                scratch.next_nodes.push(v);
            }
        }
    }
}

/// Bottom-up expansion: for every node still missing lanes, OR in the
/// frontier masks of its neighbours. Same `next` masks as top-down —
/// the switch never changes results, only the scan order of the same
/// level-synchronous step.
fn expand_bottom_up<A: Adjacency + ?Sized>(
    g: &A,
    skip: NodeId,
    words: usize,
    scratch: &mut BatchScratch,
    out: &mut BatchDistances,
) {
    let full = full_masks(out.lanes, words);
    for v in 0..out.nodes as NodeId {
        if v == skip {
            continue;
        }
        let vbase = v as usize * words;
        if (0..words).all(|w| out.visited[vbase + w] == full(w)) {
            continue;
        }
        let mut added = false;
        for &u in g.adjacent(v) {
            let ubase = u as usize * words;
            for w in 0..words {
                let add = scratch.frontier[ubase + w] & !out.visited[vbase + w];
                if add != 0 {
                    scratch.next[vbase + w] |= add;
                    added = true;
                }
            }
        }
        if added {
            scratch.in_next[v as usize] = true;
            scratch.next_nodes.push(v);
        }
    }
}

/// The all-lanes-present mask per word (the last word may be partial).
fn full_masks(lanes: usize, words: usize) -> impl Fn(usize) -> u64 {
    move |w: usize| {
        let rem = lanes - w * WORD_LANES;
        if w + 1 < words || rem == WORD_LANES {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }
}

/// Commits a level: folds `next` masks into `visited`, updates the
/// histogram (and distance rows), clears the old frontier, and swaps
/// `next` in as the new frontier.
fn commit_level<A: Adjacency + ?Sized>(
    g: &A,
    depth: u32,
    words: usize,
    scratch: &mut BatchScratch,
    out: &mut BatchDistances,
    frontier_deg: &mut usize,
) {
    let lanes = out.lanes;
    let level_off = out.counts.len();
    out.counts.resize(level_off + lanes, 0);
    *frontier_deg = 0;
    for &v in &scratch.next_nodes {
        scratch.in_next[v as usize] = false;
        let vbase = v as usize * words;
        let first_visit = out.visited[vbase..vbase + words].iter().all(|&m| m == 0);
        for w in 0..words {
            let mut m = scratch.next[vbase + w];
            if m == 0 {
                continue;
            }
            debug_assert_eq!(m & out.visited[vbase + w], 0, "next must carry only new lanes");
            out.visited[vbase + w] |= m;
            while m != 0 {
                let lane = w * WORD_LANES + m.trailing_zeros() as usize;
                out.counts[level_off + lane] += 1;
                if out.has_dist {
                    out.dist[lane * out.nodes + v as usize] = depth;
                }
                m &= m - 1;
            }
        }
        if first_visit {
            out.order.push(v);
        }
        *frontier_deg += g.adjacent(v).len();
    }
    for &u in &scratch.frontier_nodes {
        let ubase = u as usize * words;
        scratch.frontier[ubase..ubase + words].fill(0);
    }
    scratch.frontier_nodes.clear();
    std::mem::swap(&mut scratch.frontier, &mut scratch.next);
    std::mem::swap(&mut scratch.frontier_nodes, &mut scratch.next_nodes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{bfs_bounded, DistanceBuffer};
    use crate::{generators, CsrGraph, Graph};

    fn assert_parity(g: &Graph, sources: &[NodeId], limit: u32) {
        let csr = CsrGraph::from_graph(g);
        let mut scratch = BatchScratch::new();
        let mut out = BatchDistances::new();
        batch_bfs_full(&csr, sources, limit, &mut scratch, &mut out);
        let mut buf = DistanceBuffer::new();
        for (lane, &s) in sources.iter().enumerate() {
            let ecc = bfs_bounded(g, s, limit, &mut buf);
            assert_eq!(out.ecc(lane), ecc, "ecc lane {lane}");
            assert_eq!(out.reached(lane), buf.visited().len(), "reached lane {lane}");
            assert_eq!(out.lane_distances(lane), buf.distances(), "distances lane {lane}");
            let status: u64 =
                buf.distances().iter().filter(|&&d| d != INFINITY).map(|&d| d as u64).sum();
            assert_eq!(out.status_sum(lane), status, "status lane {lane}");
        }
    }

    #[test]
    fn single_lane_matches_scalar_on_path() {
        assert_parity(&generators::path(10), &[0], u32::MAX);
        assert_parity(&generators::path(10), &[5], 2);
    }

    #[test]
    fn sixty_five_lanes_span_two_words() {
        let g = generators::cycle(70);
        let sources: Vec<NodeId> = (0..65).collect();
        assert_parity(&g, &sources, u32::MAX);
        assert_parity(&g, &sources, 3);
    }

    #[test]
    fn duplicate_sources_get_independent_lanes() {
        let g = generators::path(8);
        assert_parity(&g, &[3, 3, 0, 3], u32::MAX);
    }

    #[test]
    fn skip_empties_the_skipped_lane_and_cuts_paths() {
        // path 0-1-2-3, skip 1: lane from 0 sees only {0}.
        let g = generators::path(4);
        let mut scratch = BatchScratch::new();
        let mut out = BatchDistances::new();
        let opts = BatchOptions { skip: Some(1), ..BatchOptions::default() };
        batch_bfs_opts(&g, &[0, 1, 2], &opts, &mut scratch, &mut out);
        assert_eq!(out.reached(0), 1);
        assert_eq!(out.reached(1), 0, "skipped source lane is empty");
        assert_eq!(out.ecc(1), 0);
        assert_eq!(out.reached(2), 2, "lane from 2 reaches {{2, 3}}");
        assert!(out.lane_visited(2, 3));
        assert!(!out.lane_visited(0, 1));
    }

    #[test]
    fn ball_iteration_is_ascending_and_sized() {
        let g = generators::cycle(12);
        let mut scratch = BatchScratch::new();
        let mut out = BatchDistances::new();
        batch_bfs(&g, &[0, 6], 2, &mut scratch, &mut out);
        let mut ball = Vec::new();
        out.lane_ball_into(0, &mut ball);
        assert_eq!(ball, crate::view::ball(&g, 0, 2));
        assert_eq!(out.ball_size(0, 2), 5);
        assert_eq!(out.ball_size(0, 1), 3);
        assert_eq!(out.ball_size(0, 0), 1);
        assert_eq!(out.ball_size(1, u32::MAX), 5, "radius beyond limit clamps");
    }

    #[test]
    fn directions_agree_on_gnp() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let g = generators::gnp(120, 0.05, &mut rng).unwrap();
        let sources: Vec<NodeId> = (0..120).collect();
        let mut scratch = BatchScratch::new();
        let (mut td, mut auto) = (BatchDistances::new(), BatchDistances::new());
        for limit in [1, 3, u32::MAX] {
            let t =
                BatchOptions { limit, direction: Direction::TopDown, distances: true, skip: None };
            let a = BatchOptions { direction: Direction::Auto, ..t };
            batch_bfs_opts(&g, &sources, &t, &mut scratch, &mut td);
            batch_bfs_opts(&g, &sources, &a, &mut scratch, &mut auto);
            for lane in 0..sources.len() {
                assert_eq!(td.lane_distances(lane), auto.lane_distances(lane), "limit {limit}");
            }
        }
    }

    #[test]
    fn empty_sources_and_empty_graph() {
        let g = generators::path(3);
        let mut scratch = BatchScratch::new();
        let mut out = BatchDistances::new();
        batch_bfs(&g, &[], u32::MAX, &mut scratch, &mut out);
        assert_eq!(out.lanes(), 0);
        assert!(out.union_visited().is_empty());
        let empty = Graph::new(0);
        batch_bfs(&empty, &[], 5, &mut scratch, &mut out);
        assert_eq!(out.node_count(), 0);
    }

    #[test]
    fn union_visited_covers_exactly_the_reached_nodes() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap();
        let mut scratch = BatchScratch::new();
        let mut out = BatchDistances::new();
        batch_bfs(&g, &[0, 4], u32::MAX, &mut scratch, &mut out);
        let mut union: Vec<NodeId> = out.union_visited().to_vec();
        union.sort_unstable();
        assert_eq!(union, vec![0, 1, 2, 4, 5]);
    }
}
