//! Specifications of the paper's datasets (Table 1) plus the smaller graphs used
//! in the micro-benchmarks (FB15k-237, LiveJournal, OGBN-Arxiv).

use super::Task;

/// Statistics of a dataset sufficient to generate a synthetic stand-in and to
/// compute the storage-overhead numbers reported in Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable dataset name.
    pub name: String,
    /// Number of nodes.
    pub num_nodes: u64,
    /// Number of directed edges.
    pub num_edges: u64,
    /// Base-representation (feature/embedding) dimension.
    pub feat_dim: usize,
    /// Number of relations (edge types); 1 for homogeneous graphs.
    pub num_relations: u32,
    /// Number of classes for node classification, if applicable.
    pub num_classes: Option<usize>,
    /// Fraction of nodes with training labels (node classification) — the paper
    /// notes this is typically 1–10% for large graphs (§5.2).
    pub train_fraction: f64,
    /// Primary learning task the dataset is used for.
    pub task: Task,
    /// Power-law exponent controlling how skewed the degree distribution is.
    pub degree_exponent: f64,
    /// Whether node features are fixed inputs (`true`) or learned embeddings
    /// stored in the lookup table (`false`).
    pub fixed_features: bool,
}

impl DatasetSpec {
    /// OGBN-Papers100M: 111M nodes, 1.62B edges, 128-dim features (Table 1).
    pub fn papers100m() -> Self {
        DatasetSpec {
            name: "papers100m".into(),
            num_nodes: 111_000_000,
            num_edges: 1_620_000_000,
            feat_dim: 128,
            num_relations: 1,
            num_classes: Some(172),
            train_fraction: 0.011,
            task: Task::NodeClassification,
            degree_exponent: 0.8,
            fixed_features: true,
        }
    }

    /// OGB Mag240M citation subgraph (paper-cites-paper): 122M nodes, 1.30B edges,
    /// 768-dim features (Table 1).
    pub fn mag240m_cites() -> Self {
        DatasetSpec {
            name: "mag240m-cites".into(),
            num_nodes: 122_000_000,
            num_edges: 1_300_000_000,
            feat_dim: 768,
            num_relations: 1,
            num_classes: Some(153),
            train_fraction: 0.009,
            task: Task::NodeClassification,
            degree_exponent: 0.8,
            fixed_features: true,
        }
    }

    /// Freebase86M knowledge graph: 86M nodes, 338M edges, 100-dim learned
    /// embeddings (Table 1).
    pub fn freebase86m() -> Self {
        DatasetSpec {
            name: "freebase86m".into(),
            num_nodes: 86_000_000,
            num_edges: 338_000_000,
            feat_dim: 100,
            num_relations: 14_824,
            num_classes: None,
            train_fraction: 0.0,
            task: Task::LinkPrediction,
            degree_exponent: 0.9,
            fixed_features: false,
        }
    }

    /// OGB WikiKG90Mv2: 91M nodes, 601M edges, 100-dim learned embeddings (Table 1).
    pub fn wikikg90mv2() -> Self {
        DatasetSpec {
            name: "wikikg90mv2".into(),
            num_nodes: 91_000_000,
            num_edges: 601_000_000,
            feat_dim: 100,
            num_relations: 1_387,
            num_classes: None,
            train_fraction: 0.0,
            task: Task::LinkPrediction,
            degree_exponent: 0.9,
            fixed_features: false,
        }
    }

    /// Common Crawl 2012 hyperlink graph: 3.5B nodes, 128B edges, 50-dim learned
    /// embeddings (Table 1, §7.3 extreme-scale experiment).
    pub fn hyperlink2012() -> Self {
        DatasetSpec {
            name: "hyperlink2012".into(),
            num_nodes: 3_500_000_000,
            num_edges: 128_000_000_000,
            feat_dim: 50,
            num_relations: 1,
            num_classes: None,
            train_fraction: 0.0,
            task: Task::LinkPrediction,
            degree_exponent: 1.0,
            fixed_features: false,
        }
    }

    /// Facebook15: 1.4B nodes, 1T edges, 100-dim (Table 1; not trained on in the
    /// paper, listed for the storage argument). Features are treated as fixed
    /// inputs, matching how Table 1 accounts for its storage.
    pub fn facebook15() -> Self {
        DatasetSpec {
            name: "facebook15".into(),
            num_nodes: 1_400_000_000,
            num_edges: 1_000_000_000_000,
            feat_dim: 100,
            num_relations: 1,
            num_classes: None,
            train_fraction: 0.0,
            task: Task::LinkPrediction,
            degree_exponent: 1.0,
            fixed_features: true,
        }
    }

    /// FB15k-237 knowledge graph (14 541 nodes, 272 115 edges) used at full scale
    /// in the COMET/BETA and auto-tuning experiments (Tables 8, Figures 6 and 8).
    pub fn fb15k_237() -> Self {
        DatasetSpec {
            name: "fb15k-237".into(),
            num_nodes: 14_541,
            num_edges: 272_115,
            feat_dim: 50,
            num_relations: 237,
            num_classes: None,
            train_fraction: 0.0,
            task: Task::LinkPrediction,
            degree_exponent: 0.9,
            fixed_features: false,
        }
    }

    /// LiveJournal social network (4.8M nodes, 69M edges) used in the GPU-sampling
    /// comparison against NextDoor (Table 7).
    pub fn livejournal() -> Self {
        DatasetSpec {
            name: "livejournal".into(),
            num_nodes: 4_800_000,
            num_edges: 69_000_000,
            feat_dim: 64,
            num_relations: 1,
            num_classes: None,
            train_fraction: 0.0,
            task: Task::LinkPrediction,
            degree_exponent: 0.9,
            fixed_features: false,
        }
    }

    /// OGBN-Arxiv (169k nodes, 1.17M edges), the small node-classification graph
    /// used by the paper's artifact "minimal working example".
    pub fn ogbn_arxiv() -> Self {
        DatasetSpec {
            name: "ogbn-arxiv".into(),
            num_nodes: 169_343,
            num_edges: 1_166_243,
            feat_dim: 128,
            num_relations: 1,
            num_classes: Some(40),
            train_fraction: 0.54,
            task: Task::NodeClassification,
            degree_exponent: 0.8,
            fixed_features: true,
        }
    }

    /// All full-scale specs appearing in Table 1, in the paper's row order.
    pub fn table1() -> Vec<DatasetSpec> {
        vec![
            DatasetSpec::papers100m(),
            DatasetSpec::mag240m_cites(),
            DatasetSpec::freebase86m(),
            DatasetSpec::wikikg90mv2(),
            DatasetSpec::hyperlink2012(),
            DatasetSpec::facebook15(),
        ]
    }

    /// Returns a copy scaled down by `factor` (nodes and edges multiplied by
    /// `factor`); feature dimension, relations and fractions are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        let mut s = self.clone();
        s.name = format!("{}-scaled-{factor}", self.name);
        s.num_nodes = ((self.num_nodes as f64 * factor).round() as u64).max(16);
        s.num_edges = ((self.num_edges as f64 * factor).round() as u64).max(32);
        // Keep relation count manageable at small scales.
        s.num_relations = self
            .num_relations
            .min((s.num_nodes / 8).max(1) as u32)
            .max(1);
        s
    }

    /// Bytes needed to store all edges using the compact format Table 1 assumes:
    /// 4-byte node ids when they fit in a signed 32-bit integer (8-byte otherwise)
    /// plus a 4-byte relation id for multi-relational graphs.
    pub fn edge_storage_bytes(&self) -> u64 {
        let id_bytes: u64 = if self.num_nodes <= i32::MAX as u64 {
            4
        } else {
            8
        };
        let rel_bytes: u64 = if self.num_relations > 1 { 4 } else { 0 };
        self.num_edges * (2 * id_bytes + rel_bytes)
    }

    /// Bytes needed to store the base representations (`|V| * d * 4`, paper §6).
    ///
    /// For *learned* embeddings (link prediction lookup tables) the total is
    /// doubled because Marius-style training keeps per-embedding optimizer state
    /// (Adagrad accumulators) alongside the parameters — this is what makes the
    /// Table 1 numbers for Freebase86M / WikiKG90Mv2 / Hyperlink twice the raw
    /// parameter size.
    pub fn feature_storage_bytes(&self) -> u64 {
        let raw = self.num_nodes * self.feat_dim as u64 * 4;
        if self.fixed_features {
            raw
        } else {
            2 * raw
        }
    }

    /// Total storage in bytes (edges + features).
    pub fn total_storage_bytes(&self) -> u64 {
        self.edge_storage_bytes() + self.feature_storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn table1_has_six_rows() {
        let rows = DatasetSpec::table1();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].name, "papers100m");
        assert_eq!(rows[5].name, "facebook15");
    }

    /// Table 1 reports feature storage of 57 GB for Papers100M (111M × 128 × 4 B),
    /// 375 GB for Mag240M-Cites, and doubled (embedding + optimizer state) sizes
    /// for the learned-embedding graphs (69 GB Freebase86M, 73 GB WikiKG90Mv2);
    /// check we reproduce those numbers to within rounding.
    #[test]
    fn table1_feature_overheads_match_paper() {
        let papers = DatasetSpec::papers100m();
        assert!((papers.feature_storage_bytes() as f64 / GB - 57.0).abs() < 2.0);
        let mag = DatasetSpec::mag240m_cites();
        assert!((mag.feature_storage_bytes() as f64 / GB - 375.0).abs() < 5.0);
        let fb = DatasetSpec::freebase86m();
        assert!((fb.feature_storage_bytes() as f64 / GB - 69.0).abs() < 3.0);
        let wiki = DatasetSpec::wikikg90mv2();
        assert!((wiki.feature_storage_bytes() as f64 / GB - 73.0).abs() < 3.0);
        let hyperlink = DatasetSpec::hyperlink2012();
        assert!((hyperlink.feature_storage_bytes() as f64 / GB - 1400.0).abs() < 10.0);
    }

    /// Table 1's edge-storage column: 13 GB for Papers100M, 10 GB for
    /// Mag240M-Cites, 4 GB for Freebase86M, 7 GB for WikiKG90Mv2, ~2 TB for the
    /// hyperlink graph.
    #[test]
    fn table1_edge_overheads_match_paper() {
        assert!((DatasetSpec::papers100m().edge_storage_bytes() as f64 / GB - 13.0).abs() < 1.0);
        assert!((DatasetSpec::mag240m_cites().edge_storage_bytes() as f64 / GB - 10.0).abs() < 1.0);
        assert!((DatasetSpec::freebase86m().edge_storage_bytes() as f64 / GB - 4.0).abs() < 0.5);
        assert!((DatasetSpec::wikikg90mv2().edge_storage_bytes() as f64 / GB - 7.0).abs() < 0.5);
        assert!(
            (DatasetSpec::hyperlink2012().edge_storage_bytes() as f64 / GB - 2000.0).abs() < 100.0
        );
    }

    /// Table 1's point: the first four graphs fit on a single machine's memory or
    /// SSD (61–488 GB RAM; up to 16 TB disk), the hyperlink graph fits on SSD only.
    #[test]
    fn table1_fit_in_memory_claims() {
        let p3_16xlarge_ram = 488u64 * 1_000_000_000;
        let p3_2xlarge_ram = 61u64 * 1_000_000_000;
        let ssd_16tb = 16_000u64 * 1_000_000_000;
        let fits = |spec: DatasetSpec, ram: u64| spec.total_storage_bytes() <= ram;
        assert!(fits(DatasetSpec::papers100m(), p3_16xlarge_ram));
        assert!(fits(DatasetSpec::mag240m_cites(), p3_16xlarge_ram));
        assert!(fits(DatasetSpec::freebase86m(), p3_16xlarge_ram));
        assert!(!fits(DatasetSpec::papers100m(), p3_2xlarge_ram));
        assert!(fits(DatasetSpec::hyperlink2012(), ssd_16tb));
        assert!(!fits(DatasetSpec::hyperlink2012(), p3_16xlarge_ram));
    }

    #[test]
    fn scaled_preserves_shape_parameters() {
        let s = DatasetSpec::papers100m().scaled(0.001);
        assert_eq!(s.feat_dim, 128);
        assert_eq!(s.num_classes, Some(172));
        assert_eq!(s.num_nodes, 111_000);
        assert_eq!(s.num_edges, 1_620_000);
        assert_eq!(s.task, Task::NodeClassification);
    }

    #[test]
    fn scaled_limits_relations_for_tiny_graphs() {
        let s = DatasetSpec::freebase86m().scaled(0.000001);
        assert!(s.num_relations >= 1);
        assert!(u64::from(s.num_relations) <= s.num_nodes);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_bad_factor() {
        let _ = DatasetSpec::papers100m().scaled(0.0);
    }

    #[test]
    fn fb15k_237_matches_published_statistics() {
        let s = DatasetSpec::fb15k_237();
        assert_eq!(s.num_nodes, 14_541);
        assert_eq!(s.num_edges, 272_115);
        assert_eq!(s.num_relations, 237);
    }

    #[test]
    fn minimum_sizes_are_enforced() {
        let s = DatasetSpec::fb15k_237().scaled(0.000001);
        assert!(s.num_nodes >= 16);
        assert!(s.num_edges >= 32);
    }
}
