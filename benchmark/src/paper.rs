//! The paper's Fig. 5 / §4.1 headline numbers as data, and the gap metric
//! built on them.

/// One number the paper reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperNumber {
    pub id: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub source: &'static str,
}

/// Latency reduction of the proposed network over the baseline at low load,
/// mixed traffic.
pub const LATENCY_REDUCTION: PaperNumber = PaperNumber {
    id: "latency_reduction_pct",
    value: 48.7,
    unit: "%",
    source: "Fig. 5, Section 4.1",
};

/// Saturation-throughput improvement over the baseline, mixed traffic.
pub const THROUGHPUT_IMPROVEMENT: PaperNumber = PaperNumber {
    id: "throughput_improvement_x",
    value: 2.1,
    unit: "x",
    source: "Fig. 5, Section 4.1",
};

/// Saturation throughput as a fraction of the theoretical mesh limit, mixed
/// traffic.
pub const FRACTION_OF_LIMIT: PaperNumber = PaperNumber {
    id: "fraction_of_limit_pct",
    value: 87.0,
    unit: "%",
    source: "Fig. 5, Section 4.1",
};

/// Mean absolute relative gap, in percent, between the reproduction and the
/// paper on the three headline numbers. Arguments are in the paper's units
/// (percent, factor, percent).
pub fn paper_gap_pct(latency_reduction_pct: f64, throughput_x: f64, fraction_pct: f64) -> f64 {
    let gaps = [
        (latency_reduction_pct, LATENCY_REDUCTION),
        (throughput_x, THROUGHPUT_IMPROVEMENT),
        (fraction_pct, FRACTION_OF_LIMIT),
    ]
    .map(|(reproduced, paper)| ((reproduced - paper.value) / paper.value).abs());
    100.0 * gaps.iter().sum::<f64>() / gaps.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_matches_hand_computed_values() {
        // ROADMAP "Where we stand": 39.9 %, 1.25x, 70.6 %.
        //   |39.9 - 48.7| / 48.7 = 0.180698...
        //   |1.25 - 2.1 | / 2.1  = 0.404761...
        //   |70.6 - 87  | / 87   = 0.188505...
        //   mean = 0.257988... -> 25.80 %
        let gap = paper_gap_pct(39.9, 1.25, 70.6);
        assert!((gap - 25.7988).abs() < 1e-3, "got {gap}");
        assert_eq!(paper_gap_pct(48.7, 2.1, 87.0), 0.0);
        // Overshooting the paper is a gap too.
        assert!((paper_gap_pct(48.7, 4.2, 87.0) - 100.0 / 3.0).abs() < 1e-9);
    }
}
