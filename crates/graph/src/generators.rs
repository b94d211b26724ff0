//! Seeded random-graph generators.
//!
//! These models are the stand-ins for the paper's six real-world datasets
//! (KONECT / SNAP graphs we cannot redistribute here); ARCHITECTURE.md,
//! "Dataset substitutions", maps each dataset to a model and the
//! behaviour the substitution preserves (degree distribution and local
//! BFS-tree shape).

use crate::{Graph, GraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Disjoint-set union with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn num_components(&self) -> usize {
        self.components
    }
}

/// G(n, m): exactly `m` distinct edges chosen uniformly at random.
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_m,
        "cannot place {m} edges in a {n}-node simple graph"
    );
    let mut chosen: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(m * 2);
    let mut builder = GraphBuilder::undirected(n);
    builder.reserve(m);
    while chosen.len() < m {
        let a = rng.gen_range(0..n) as NodeId;
        let b = rng.gen_range(0..n) as NodeId;
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if chosen.insert(key) {
            builder.add_edge(key.0, key.1);
        }
    }
    builder.build()
}

/// G(n, p) via geometric edge skipping, `O(n + m)` expected.
pub fn erdos_renyi_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut builder = GraphBuilder::undirected(n);
    if p == 0.0 || n < 2 {
        return builder.build();
    }
    if p >= 1.0 {
        for a in 0..n as NodeId {
            for b in a + 1..n as NodeId {
                builder.add_edge(a, b);
            }
        }
        return builder.build();
    }
    // Iterate over the upper-triangular pair index with geometric jumps.
    let lq = (1.0 - p).ln();
    let total = n * (n - 1) / 2;
    let mut idx: usize = 0;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (u.ln() / lq).floor() as usize;
        idx = match idx.checked_add(skip) {
            Some(i) => i,
            None => break,
        };
        if idx >= total {
            break;
        }
        let (a, b) = pair_from_index(idx, n);
        builder.add_edge(a, b);
        idx += 1;
    }
    builder.build()
}

/// Maps a linear index into the upper-triangular pair (a, b), a < b.
fn pair_from_index(idx: usize, n: usize) -> (NodeId, NodeId) {
    // Row a starts at offset a*n - a*(a+1)/2 - a... use a scan-free inverse:
    // solve idx < (a+1) rows cumulative. Binary search keeps it simple and
    // exact.
    let row_start = |a: usize| a * (2 * n - a - 1) / 2;
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if row_start(mid) <= idx {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let a = lo;
    let b = a + 1 + (idx - row_start(a));
    (a as NodeId, b as NodeId)
}

/// Barabási–Albert preferential attachment: each of the `n - m0` arriving
/// nodes connects to `m` distinct existing nodes chosen proportionally to
/// degree. Produces the heavy-tailed degrees of co-purchase / web-of-trust
/// graphs.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1, "attachment count must be positive");
    assert!(n > m, "need more nodes than the attachment count");
    let mut builder = GraphBuilder::undirected(n);
    builder.reserve(n * m);
    // Seed: a star on m + 1 nodes (keeps everything connected).
    let mut endpoint_pool: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    for v in 1..=m as NodeId {
        builder.add_edge(0, v);
        endpoint_pool.push(0);
        endpoint_pool.push(v);
    }
    let mut targets: Vec<NodeId> = Vec::with_capacity(m);
    for v in (m + 1) as NodeId..n as NodeId {
        targets.clear();
        while targets.len() < m {
            let t = endpoint_pool[rng.gen_range(0..endpoint_pool.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            builder.add_edge(v, t);
            endpoint_pool.push(v);
            endpoint_pool.push(t);
        }
    }
    builder.build()
}

/// Holme–Kim powerlaw-cluster model: Barabási–Albert plus triad formation
/// with probability `p_triad` after each preferential step. Matches the
/// heavy tail *and* high clustering of collaboration graphs (DBLP).
pub fn powerlaw_cluster<R: Rng + ?Sized>(n: usize, m: usize, p_triad: f64, rng: &mut R) -> Graph {
    assert!(m >= 1 && n > m);
    assert!((0.0..=1.0).contains(&p_triad));
    let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut endpoint_pool: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    let add = |adj: &mut Vec<Vec<NodeId>>, pool: &mut Vec<NodeId>, a: NodeId, b: NodeId| {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
        pool.push(a);
        pool.push(b);
    };
    for v in 1..=m as NodeId {
        add(&mut adjacency, &mut endpoint_pool, 0, v);
    }
    for v in (m + 1) as NodeId..n as NodeId {
        let mut last_target: Option<NodeId> = None;
        let mut placed = 0usize;
        let mut guard = 0usize;
        while placed < m && guard < 50 * m {
            guard += 1;
            let candidate = if let Some(prev) = last_target.filter(|_| rng.gen_bool(p_triad)) {
                // triad step: close a triangle through a neighbor of `prev`
                let nbrs = &adjacency[prev as usize];
                nbrs[rng.gen_range(0..nbrs.len())]
            } else {
                endpoint_pool[rng.gen_range(0..endpoint_pool.len())]
            };
            if candidate == v || adjacency[v as usize].contains(&candidate) {
                last_target = None; // fall back to preferential next round
                continue;
            }
            add(&mut adjacency, &mut endpoint_pool, v, candidate);
            last_target = Some(candidate);
            placed += 1;
        }
    }
    let mut builder = GraphBuilder::undirected(n);
    for a in 0..n as NodeId {
        for &b in &adjacency[a as usize] {
            if a < b {
                builder.add_edge(a, b);
            }
        }
    }
    builder.build()
}

/// Watts–Strogatz small world: ring lattice of even degree `k`, each edge
/// rewired with probability `beta`.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(k.is_multiple_of(2) && k >= 2, "lattice degree must be even");
    assert!(n > k, "ring must be larger than the lattice degree");
    assert!((0.0..=1.0).contains(&beta));
    let mut edges: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(n * k / 2);
    let norm = |a: NodeId, b: NodeId| (a.min(b), a.max(b));
    for v in 0..n {
        for d in 1..=k / 2 {
            edges.insert(norm(v as NodeId, ((v + d) % n) as NodeId));
        }
    }
    let mut list: Vec<(NodeId, NodeId)> = edges.iter().copied().collect();
    list.sort_unstable();
    for (a, b) in list {
        if rng.gen_bool(beta) {
            // rewire the far endpoint
            let mut guard = 0;
            loop {
                guard += 1;
                let c = rng.gen_range(0..n) as NodeId;
                let cand = norm(a, c);
                if c != a && cand != (a.min(b), a.max(b)) && !edges.contains(&cand) {
                    edges.remove(&norm(a, b));
                    edges.insert(cand);
                    break;
                }
                if guard > 100 {
                    break; // dense corner case: keep the lattice edge
                }
            }
        }
    }
    let mut builder = GraphBuilder::undirected(n);
    for (a, b) in edges {
        builder.add_edge(a, b);
    }
    builder.build()
}

/// Plain `width × height` grid graph (4-neighborhood).
pub fn grid(width: usize, height: usize) -> Graph {
    let n = width * height;
    let mut builder = GraphBuilder::undirected(n);
    let id = |x: usize, y: usize| (y * width + x) as NodeId;
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                builder.add_edge(id(x, y), id(x + 1, y));
            }
            if y + 1 < height {
                builder.add_edge(id(x, y), id(x, y + 1));
            }
        }
    }
    builder.build()
}

/// Road-network stand-in: a random spanning tree of the grid (guaranteeing
/// connectivity) plus a fraction `extra_frac` of the remaining grid edges
/// and `shortcut_frac · n` random diagonal shortcuts. With
/// `extra_frac ≈ 0.4` the average degree lands near 2.8, matching the
/// paper's CA/PA road networks.
pub fn road_network<R: Rng + ?Sized>(
    width: usize,
    height: usize,
    extra_frac: f64,
    shortcut_frac: f64,
    rng: &mut R,
) -> Graph {
    assert!(width >= 2 && height >= 2, "grid must be at least 2x2");
    assert!((0.0..=1.0).contains(&extra_frac));
    assert!((0.0..=1.0).contains(&shortcut_frac));
    let n = width * height;
    let id = |x: usize, y: usize| (y * width + x) as NodeId;
    let mut grid_edges: Vec<(NodeId, NodeId)> =
        Vec::with_capacity(width * (height - 1) + height * (width - 1));
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                grid_edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < height {
                grid_edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    grid_edges.shuffle(rng);
    let mut uf = UnionFind::new(n);
    let mut builder = GraphBuilder::undirected(n);
    let mut leftovers: Vec<(NodeId, NodeId)> = Vec::new();
    for (a, b) in grid_edges {
        if uf.union(a, b) {
            builder.add_edge(a, b);
        } else {
            leftovers.push((a, b));
        }
    }
    let extra = (extra_frac * leftovers.len() as f64).round() as usize;
    for &(a, b) in leftovers.iter().take(extra) {
        builder.add_edge(a, b);
    }
    let shortcuts = (shortcut_frac * n as f64).round() as usize;
    for _ in 0..shortcuts {
        let x = rng.gen_range(0..width - 1);
        let y = rng.gen_range(0..height - 1);
        builder.add_edge(id(x, y), id(x + 1, y + 1));
    }
    builder.build()
}

/// Configuration model for a given (even-sum) degree sequence: random stub
/// pairing with self-loops and duplicate edges dropped, so realized degrees
/// can fall slightly below the prescription.
pub fn configuration_model<R: Rng + ?Sized>(degrees: &[usize], rng: &mut R) -> Graph {
    let total: usize = degrees.iter().sum();
    assert!(total.is_multiple_of(2), "degree sum must be even");
    let mut stubs: Vec<NodeId> = Vec::with_capacity(total);
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as NodeId, d));
    }
    stubs.shuffle(rng);
    let mut builder = GraphBuilder::undirected(degrees.len());
    for pair in stubs.chunks_exact(2) {
        builder.add_edge(pair[0], pair[1]);
    }
    builder.build()
}

/// Samples a truncated discrete power-law degree sequence with exponent
/// `gamma` on `[d_min, d_max]`, patched to an even sum.
pub fn powerlaw_degree_sequence<R: Rng + ?Sized>(
    n: usize,
    gamma: f64,
    d_min: usize,
    d_max: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    assert!(d_min >= 1 && d_max >= d_min);
    let mut seq: Vec<usize> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            // Inverse-CDF sampling of a continuous power law, floored.
            let d = (d_min as f64) * u.powf(-1.0 / (gamma - 1.0));
            (d.floor() as usize).clamp(d_min, d_max)
        })
        .collect();
    if seq.iter().sum::<usize>() % 2 == 1 {
        seq[0] += 1;
    }
    seq
}

/// Random `d`-regular graph by repeated stub pairing; retries until the
/// pairing is simple (or gives up after `64` attempts and returns the best
/// near-regular realization).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be below n");
    let degrees = vec![d; n];
    let mut best: Option<Graph> = None;
    for _ in 0..64 {
        let g = configuration_model(&degrees, rng);
        let perfect = g.num_edges() == n * d / 2;
        if perfect {
            return g;
        }
        if best
            .as_ref()
            .map(|b| g.num_edges() > b.num_edges())
            .unwrap_or(true)
        {
            best = Some(g);
        }
    }
    best.expect("at least one attempt ran")
}

/// R-MAT (recursive matrix) generator: each of the `m` edges picks its
/// endpoints by recursively descending into one of the four adjacency
/// quadrants with probabilities `(a, b, c, 1 - a - b - c)`. The classic
/// parameterization `(0.57, 0.19, 0.19)` produces skewed, community-ish
/// graphs resembling web/social networks. Duplicate edges and self-loops
/// are dropped, so the realized edge count can fall slightly below `m`.
pub fn rmat<R: Rng + ?Sized>(
    scale: u32,
    m: usize,
    (a, b, c): (f64, f64, f64),
    rng: &mut R,
) -> Graph {
    assert!((1..31).contains(&scale), "node count is 2^scale");
    let d = 1.0 - a - b - c;
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= -1e-12,
        "quadrant probabilities must form a distribution"
    );
    let n = 1usize << scale;
    let mut builder = GraphBuilder::undirected(n);
    builder.reserve(m);
    for _ in 0..m {
        let (mut x, mut y) = (0usize, 0usize);
        for _ in 0..scale {
            let r: f64 = rng.gen();
            let (dx, dy) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            x = (x << 1) | dx;
            y = (y << 1) | dy;
        }
        builder.add_edge(x as NodeId, y as NodeId);
    }
    builder.build()
}

/// Stochastic block model: nodes are split into `sizes.len()` blocks;
/// an edge between blocks `i` and `j` appears independently with
/// probability `p[i][j]` (symmetric; diagonal = within-block density).
/// The classic community-structure generator — useful for role-transfer
/// experiments where ground-truth roles are block memberships.
pub fn stochastic_block_model<R: Rng + ?Sized>(
    sizes: &[usize],
    p: &[Vec<f64>],
    rng: &mut R,
) -> Graph {
    let blocks = sizes.len();
    assert!(blocks > 0, "need at least one block");
    assert_eq!(
        p.len(),
        blocks,
        "probability matrix must be blocks x blocks"
    );
    for row in p {
        assert_eq!(row.len(), blocks);
        for &x in row {
            assert!((0.0..=1.0).contains(&x), "probabilities in [0, 1]");
        }
    }
    let n: usize = sizes.iter().sum();
    // block id per node (nodes laid out block by block)
    let mut block_of = Vec::with_capacity(n);
    for (b, &size) in sizes.iter().enumerate() {
        block_of.extend(std::iter::repeat_n(b, size));
    }
    let mut builder = GraphBuilder::undirected(n);
    for a in 0..n {
        for b in a + 1..n {
            if rng.gen_bool(p[block_of[a]][block_of[b]]) {
                builder.add_edge(a as NodeId, b as NodeId);
            }
        }
    }
    builder.build()
}

/// Orients every undirected edge randomly (or keep `forward_prob = 1.0`
/// for the deterministic low-to-high orientation), producing a directed
/// graph for the incoming/outgoing k-adjacent tree experiments
/// (Definition 2).
pub fn orient_edges<R: Rng + ?Sized>(g: &Graph, forward_prob: f64, rng: &mut R) -> Graph {
    assert!(!g.is_directed(), "orient_edges expects an undirected input");
    assert!((0.0..=1.0).contains(&forward_prob));
    let mut builder = GraphBuilder::directed(g.num_nodes());
    builder.reserve(g.num_edges());
    for (u, v) in g.edges() {
        if forward_prob >= 1.0 || rng.gen_bool(forward_prob) {
            builder.add_edge(u, v);
        } else {
            builder.add_edge(v, u);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn union_find_components() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_components(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.num_components(), 2);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn gnm_exact_edge_count() {
        let g = erdos_renyi_gnm(50, 120, &mut rng(1));
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 120);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(erdos_renyi_gnp(10, 0.0, &mut rng(2)).num_edges(), 0);
        assert_eq!(erdos_renyi_gnp(10, 1.0, &mut rng(2)).num_edges(), 45);
    }

    #[test]
    fn gnp_density_in_expectation() {
        let g = erdos_renyi_gnp(300, 0.05, &mut rng(3));
        let expected = 0.05 * (300.0 * 299.0 / 2.0);
        let m = g.num_edges() as f64;
        assert!(
            (m - expected).abs() < expected * 0.25,
            "m={m} exp={expected}"
        );
    }

    #[test]
    fn pair_index_round_trip() {
        let n = 13;
        let mut idx = 0;
        for a in 0..n {
            for b in a + 1..n {
                assert_eq!(pair_from_index(idx, n), (a as NodeId, b as NodeId));
                idx += 1;
            }
        }
    }

    #[test]
    fn ba_connected_with_heavy_hub() {
        let g = barabasi_albert(400, 3, &mut rng(4));
        assert_eq!(g.num_nodes(), 400);
        // m0 star (3 edges) + (n - m - 1) * m new ones, minus any dedup
        assert!(g.num_edges() > 1000);
        assert!(
            g.max_degree() >= 20,
            "expected a hub, got {}",
            g.max_degree()
        );
        let stats = crate::stats::connected_components(&g);
        assert_eq!(stats, 1);
    }

    #[test]
    fn powerlaw_cluster_has_triangles() {
        let g = powerlaw_cluster(300, 3, 0.8, &mut rng(5));
        let cc = crate::stats::average_clustering(&g, 100, &mut rng(55));
        assert!(
            cc > 0.05,
            "clustering {cc} too low for a triad-closure model"
        );
    }

    #[test]
    fn watts_strogatz_degree_preserved_in_total() {
        let g = watts_strogatz(100, 4, 0.1, &mut rng(6));
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(4, 3);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 4 * 2 + 3 * 3); // vertical 4*2, horizontal 3*3
    }

    #[test]
    fn road_network_connected_low_degree() {
        let g = road_network(20, 20, 0.4, 0.03, &mut rng(7));
        assert_eq!(g.num_nodes(), 400);
        assert_eq!(crate::stats::connected_components(&g), 1);
        let avg = g.avg_degree();
        assert!((2.2..3.4).contains(&avg), "avg degree {avg} not road-like");
    }

    #[test]
    fn configuration_model_close_to_sequence() {
        let degs = powerlaw_degree_sequence(200, 2.5, 2, 30, &mut rng(8));
        let g = configuration_model(&degs, &mut rng(9));
        let want: usize = degs.iter().sum::<usize>() / 2;
        // dedup may remove a few edges but not many
        assert!(g.num_edges() >= want * 8 / 10);
    }

    #[test]
    fn random_regular_is_regular() {
        let g = random_regular(24, 3, &mut rng(10));
        if g.num_edges() == 36 {
            for v in g.nodes() {
                assert_eq!(g.degree(v), 3);
            }
        }
    }

    #[test]
    fn generators_deterministic_under_seed() {
        let a = barabasi_albert(100, 2, &mut rng(77));
        let b = barabasi_albert(100, 2, &mut rng(77));
        assert_eq!(a, b);
    }

    #[test]
    fn sbm_respects_block_densities() {
        let sizes = [40usize, 40];
        let p = vec![vec![0.3, 0.01], vec![0.01, 0.3]];
        let g = stochastic_block_model(&sizes, &p, &mut rng(21));
        assert_eq!(g.num_nodes(), 80);
        let mut within = 0usize;
        let mut across = 0usize;
        for (a, b) in g.edges() {
            if (a < 40) == (b < 40) {
                within += 1;
            } else {
                across += 1;
            }
        }
        // expectation: within ~ 2*C(40,2)*0.3 = 468, across ~ 1600*0.01 = 16
        assert!(within > 10 * across, "within {within} across {across}");
    }

    #[test]
    #[should_panic(expected = "blocks x blocks")]
    fn sbm_rejects_ragged_probabilities() {
        stochastic_block_model(&[3, 3], &[vec![0.5, 0.5]], &mut rng(22));
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(10, 4000, (0.57, 0.19, 0.19), &mut rng(11));
        assert_eq!(g.num_nodes(), 1024);
        assert!(g.num_edges() > 3000, "most samples survive dedup");
        // the recursive skew concentrates degree on low-id quadrants
        assert!(
            g.max_degree() > 4 * g.avg_degree() as usize,
            "expected hubs: max {} avg {:.1}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn rmat_uniform_parameters_resemble_er() {
        let g = rmat(8, 1000, (0.25, 0.25, 0.25), &mut rng(12));
        // no skew: degrees stay near the mean
        assert!(g.max_degree() < 10 * (g.avg_degree().ceil() as usize).max(1));
    }

    #[test]
    fn orient_edges_preserves_count_and_direction_split() {
        let und = erdos_renyi_gnm(200, 500, &mut rng(13));
        let forward = orient_edges(&und, 1.0, &mut rng(14));
        assert!(forward.is_directed());
        assert_eq!(forward.num_edges(), 500);
        for (u, v) in forward.edges() {
            assert!(u < v, "forward orientation must go low -> high");
        }
        let mixed = orient_edges(&und, 0.5, &mut rng(15));
        assert_eq!(mixed.num_edges(), 500);
        let backwards = mixed.edges().filter(|&(u, v)| u > v).count();
        assert!(backwards > 100, "about half should flip, got {backwards}");
    }
}
