//! Seeded synthetic stand-ins for the paper's six evaluation graphs.
//!
//! The paper's Table 2 datasets come from SNAP and KONECT and cannot be
//! redistributed here, so each is replaced by a random-graph model chosen
//! to match the structural properties NED actually exercises: degree
//! distribution and local BFS-tree shape. See ARCHITECTURE.md, "Dataset
//! substitutions", for the model per dataset. All generation is deterministic
//! given `(dataset, scale, seed)`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ned_graph::{generators, stats::GraphStats, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The six evaluation graphs of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// California road network (1,965,206 nodes / 2,766,607 edges).
    CaRoad,
    /// Pennsylvania road network (1,088,092 / 1,541,898).
    PaRoad,
    /// Amazon co-purchase network (334,863 / 925,872).
    Amazon,
    /// DBLP collaboration network (317,080 / 1,049,866).
    Dblp,
    /// Gnutella peer-to-peer network (62,586 / 147,892).
    Gnutella,
    /// Pretty-Good-Privacy web of trust (10,680 / 24,316).
    Pgp,
}

impl Dataset {
    /// All six datasets in Table 2 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::CaRoad,
        Dataset::PaRoad,
        Dataset::Amazon,
        Dataset::Dblp,
        Dataset::Gnutella,
        Dataset::Pgp,
    ];

    /// Full dataset name as printed in Table 2.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::CaRoad => "CA Road",
            Dataset::PaRoad => "PA Road",
            Dataset::Amazon => "Amazon",
            Dataset::Dblp => "DBLP",
            Dataset::Gnutella => "Gnutella",
            Dataset::Pgp => "Pretty Good Privacy",
        }
    }

    /// Table 2 abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            Dataset::CaRoad => "CAR",
            Dataset::PaRoad => "PAR",
            Dataset::Amazon => "AMZN",
            Dataset::Dblp => "DBLP",
            Dataset::Gnutella => "GNU",
            Dataset::Pgp => "PGP",
        }
    }

    /// Node count of the real dataset (Table 2).
    pub fn paper_nodes(&self) -> usize {
        match self {
            Dataset::CaRoad => 1_965_206,
            Dataset::PaRoad => 1_088_092,
            Dataset::Amazon => 334_863,
            Dataset::Dblp => 317_080,
            Dataset::Gnutella => 62_586,
            Dataset::Pgp => 10_680,
        }
    }

    /// Edge count of the real dataset (Table 2).
    pub fn paper_edges(&self) -> usize {
        match self {
            Dataset::CaRoad => 2_766_607,
            Dataset::PaRoad => 1_541_898,
            Dataset::Amazon => 925_872,
            Dataset::Dblp => 1_049_866,
            Dataset::Gnutella => 147_892,
            Dataset::Pgp => 24_316,
        }
    }

    /// The k the paper uses for this dataset in the Figure 9 experiments
    /// ("5-adjacent trees for CAR/PAR, 3-adjacent for the rest").
    pub fn recommended_k(&self) -> usize {
        match self {
            Dataset::CaRoad | Dataset::PaRoad => 5,
            _ => 3,
        }
    }

    /// Generates the stand-in at `scale` (1.0 = full Table 2 node count;
    /// the node count is clamped to at least 256). Deterministic per
    /// `(self, scale, seed)`.
    ///
    /// ```
    /// use ned_datasets::Dataset;
    ///
    /// let g = Dataset::Pgp.generate(0.05, 42);
    /// assert_eq!(g.num_nodes(), 534); // 5% of the 10,680-node PGP graph
    /// assert_eq!(g, Dataset::Pgp.generate(0.05, 42)); // fully seeded
    /// ```
    pub fn generate(&self, scale: f64, seed: u64) -> Graph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.paper_nodes() as f64 * scale) as usize).max(256);
        let mut rng = SmallRng::seed_from_u64(seed ^ self.seed_salt());
        match self {
            Dataset::CaRoad => {
                let w = (n as f64).sqrt().round() as usize;
                let h = n.div_ceil(w.max(2));
                generators::road_network(w.max(2), h.max(2), 0.41, 0.01, &mut rng)
            }
            Dataset::PaRoad => {
                // different aspect ratio than CAR, same family
                let w = ((n as f64) / 1.4).sqrt().round() as usize;
                let h = n.div_ceil(w.max(2));
                generators::road_network(w.max(2), h.max(2), 0.42, 0.01, &mut rng)
            }
            Dataset::Amazon => generators::barabasi_albert(n, 3, &mut rng),
            Dataset::Dblp => generators::powerlaw_cluster(n, 3, 0.6, &mut rng),
            Dataset::Gnutella => {
                let degrees = generators::powerlaw_degree_sequence(n, 2.6, 2, 60, &mut rng);
                generators::configuration_model(&degrees, &mut rng)
            }
            Dataset::Pgp => generators::barabasi_albert(n, 2, &mut rng),
        }
    }

    fn seed_salt(&self) -> u64 {
        match self {
            Dataset::CaRoad => 0x0001,
            Dataset::PaRoad => 0x0002,
            Dataset::Amazon => 0x0003,
            Dataset::Dblp => 0x0004,
            Dataset::Gnutella => 0x0005,
            Dataset::Pgp => 0x0006,
        }
    }
}

/// One row of the reproduced Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Which dataset.
    pub dataset: Dataset,
    /// Statistics of the generated stand-in.
    pub stats: GraphStats,
    /// Node count the paper reports for the real graph.
    pub paper_nodes: usize,
    /// Edge count the paper reports for the real graph.
    pub paper_edges: usize,
}

/// Generates all six stand-ins at `scale` and summarizes them
/// (reproduces Table 2).
pub fn table2(scale: f64, seed: u64) -> Vec<Table2Row> {
    Dataset::ALL
        .iter()
        .map(|&dataset| {
            let g = dataset.generate(scale, seed);
            Table2Row {
                dataset,
                stats: ned_graph::stats::graph_stats(&g),
                paper_nodes: dataset.paper_nodes(),
                paper_edges: dataset.paper_edges(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_at_small_scale() {
        for d in Dataset::ALL {
            let g = d.generate(0.002, 7);
            assert!(g.num_nodes() >= 256, "{}: too few nodes", d.abbrev());
            assert!(g.num_edges() > 0, "{}: no edges", d.abbrev());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Dataset::Pgp.generate(0.05, 42);
        let b = Dataset::Pgp.generate(0.05, 42);
        assert_eq!(a, b);
        let c = Dataset::Pgp.generate(0.05, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn average_degrees_match_paper_shape() {
        // paper avg degrees: CAR 2.82, PAR 2.83, AMZN 5.53, DBLP 6.62,
        // GNU 4.73, PGP 4.55.
        let tolerances = [
            (Dataset::CaRoad, 2.82, 0.5),
            (Dataset::PaRoad, 2.83, 0.5),
            (Dataset::Amazon, 5.53, 1.0),
            (Dataset::Dblp, 6.62, 1.5),
            (Dataset::Gnutella, 4.73, 1.6),
            (Dataset::Pgp, 4.55, 1.0),
        ];
        for (d, want, tol) in tolerances {
            let g = d.generate(0.01, 1);
            let got = g.avg_degree();
            assert!(
                (got - want).abs() <= tol,
                "{}: avg degree {got:.2} vs paper {want:.2}",
                d.abbrev()
            );
        }
    }

    #[test]
    fn roads_are_connected_and_sparse() {
        for d in [Dataset::CaRoad, Dataset::PaRoad] {
            let g = d.generate(0.001, 3);
            assert_eq!(ned_graph::stats::connected_components(&g), 1);
            assert!(g.max_degree() <= 8, "roads should have tiny max degree");
        }
    }

    #[test]
    fn social_graphs_have_hubs() {
        for d in [Dataset::Amazon, Dataset::Dblp, Dataset::Pgp] {
            let g = d.generate(0.01, 3);
            assert!(
                g.max_degree() >= 20,
                "{}: expected hubs, max degree {}",
                d.abbrev(),
                g.max_degree()
            );
        }
    }

    #[test]
    fn table2_has_six_rows() {
        let rows = table2(0.002, 5);
        assert_eq!(rows.len(), 6);
        for row in rows {
            assert!(row.stats.nodes > 0);
            assert!(row.paper_nodes >= row.stats.nodes);
        }
    }

    #[test]
    fn scale_changes_size_proportionally() {
        let small = Dataset::Gnutella.generate(0.01, 2);
        let large = Dataset::Gnutella.generate(0.05, 2);
        assert!(large.num_nodes() > small.num_nodes() * 3);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        Dataset::Pgp.generate(0.0, 1);
    }
}
