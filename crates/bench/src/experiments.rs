//! Experiment descriptors: which table/figure of the paper each run
//! reproduces and with which parameter grids.

use std::fmt;
use std::str::FromStr;

/// Identifier of one table or figure of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table 2 — dataset characteristics.
    Table2,
    /// Fig. 6 — index size vs ℓ.
    Fig6,
    /// Fig. 7 — index size vs z.
    Fig7,
    /// Fig. 8 — construction space vs ℓ.
    Fig8,
    /// Fig. 9 — construction space vs z.
    Fig9,
    /// Fig. 10 — average query time vs ℓ.
    Fig10,
    /// Fig. 11 — average query time vs z.
    Fig11,
    /// Fig. 12 — construction time vs ℓ and vs z.
    Fig12,
    /// Fig. 13 — construction space of SE-MWST vs ℓ and z.
    Fig13,
    /// Fig. 14 — construction space on the RSSI family (vs ℓ, z, σ, n).
    Fig14,
    /// Fig. 15 — construction time of SE-MWST vs ℓ and z.
    Fig15,
    /// Fig. 16 — construction time on the RSSI family (vs ℓ, z, σ, n).
    Fig16,
    /// Ablations of this implementation, not a paper figure: the grid
    /// against the simple query, the k-mer order, and a sweep of k.
    Ablation,
}

impl ExperimentId {
    /// Every reproducible experiment, in presentation order.
    pub fn all() -> Vec<ExperimentId> {
        use ExperimentId::*;
        vec![
            Table2, Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12, Fig13, Fig14, Fig15, Fig16,
            Ablation,
        ]
    }

    /// Short identifier used on the command line and in CSV file names.
    pub fn key(&self) -> &'static str {
        match self {
            ExperimentId::Table2 => "table2",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Fig15 => "fig15",
            ExperimentId::Fig16 => "fig16",
            ExperimentId::Ablation => "ablation",
        }
    }

    /// One-line description shown by `reproduce --list`.
    pub fn description(&self) -> &'static str {
        match self {
            ExperimentId::Table2 => "dataset characteristics (n, sigma, Δ, z-estimation size)",
            ExperimentId::Fig6 => "index size (MB) vs ℓ for the tree and array families",
            ExperimentId::Fig7 => "index size (MB) vs z for the tree and array families",
            ExperimentId::Fig8 => "construction space (MB) vs ℓ",
            ExperimentId::Fig9 => "construction space (MB) vs z",
            ExperimentId::Fig10 => "average query time (µs) vs ℓ",
            ExperimentId::Fig11 => "average query time (µs) vs z",
            ExperimentId::Fig12 => "construction time (s) vs ℓ and vs z",
            ExperimentId::Fig13 => "construction space (MB) incl. SE-MWST vs ℓ and z",
            ExperimentId::Fig14 => "construction space (MB) on RSSI* vs ℓ, z, σ and n",
            ExperimentId::Fig15 => "construction time (s) incl. SE-MWST vs ℓ and z",
            ExperimentId::Fig16 => "construction time (s) on RSSI* vs ℓ, z, σ and n",
            ExperimentId::Ablation => "grid vs simple query, k-mer order, k sweep",
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

impl FromStr for ExperimentId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.trim().to_ascii_lowercase();
        ExperimentId::all()
            .into_iter()
            .find(|e| e.key() == normalized)
            .ok_or_else(|| format!("unknown experiment {s:?}; use --list to see the options"))
    }
}

/// A single experiment together with the sweep values used by the harness.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Which table/figure this reproduces.
    pub id: ExperimentId,
    /// The ℓ values swept (where applicable).
    pub ell_sweep: Vec<usize>,
    /// The default pattern length / ℓ (the paper's default is 256).
    pub default_ell: usize,
}

impl Experiment {
    /// The paper's sweeps: ℓ, m ∈ {64, 128, 256, 512, 1024}, default 256.
    pub fn with_paper_defaults(id: ExperimentId) -> Self {
        Self {
            id,
            ell_sweep: vec![64, 128, 256, 512, 1024],
            default_ell: 256,
        }
    }

    /// A reduced sweep for quick runs.
    pub fn quick(id: ExperimentId) -> Self {
        Self {
            id,
            ell_sweep: vec![64, 256, 1024],
            default_ell: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_roundtrip() {
        for id in ExperimentId::all() {
            let parsed: ExperimentId = id.key().parse().unwrap();
            assert_eq!(parsed, id);
            assert!(!id.description().is_empty());
        }
        assert!("fig99".parse::<ExperimentId>().is_err());
        assert_eq!("FIG6".parse::<ExperimentId>().unwrap(), ExperimentId::Fig6);
    }

    #[test]
    fn sweeps_match_paper() {
        let e = Experiment::with_paper_defaults(ExperimentId::Fig6);
        assert_eq!(e.ell_sweep, vec![64, 128, 256, 512, 1024]);
        assert_eq!(e.default_ell, 256);
        assert!(Experiment::quick(ExperimentId::Fig6).ell_sweep.len() < e.ell_sweep.len());
    }
}
