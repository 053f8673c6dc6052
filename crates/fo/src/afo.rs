//! Adaptive Frequency Oracle selection (§5.3).
//!
//! After the grid sizes are fixed, FELIP picks, *per grid*, the protocol
//! with the smaller analytical variance (Eq. 13):
//!
//! ```text
//! Var[Φ_AFO] = min( (e^ε + L − 2), 4e^ε ) / (e^ε − 1)² · m/n
//! ```
//!
//! GRR wins exactly when the grid's cell count `L < 3e^ε + 2`; OLH wins
//! otherwise. Ties go to GRR (cheaper on both ends).

use crate::grr::Grr;
use crate::olh::Olh;
use crate::traits::FrequencyOracle;
use crate::variance::{grr_variance_factor, olh_variance_factor};

/// Which concrete protocol a grid uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FoKind {
    /// Generalized Randomized Response.
    Grr,
    /// Optimized Local Hashing.
    Olh,
}

impl std::fmt::Display for FoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoKind::Grr => write!(f, "GRR"),
            FoKind::Olh => write!(f, "OLH"),
        }
    }
}

/// The AFO rule: the variance-minimising protocol for a grid with `cells`
/// cells under budget `epsilon`.
pub fn choose_oracle(epsilon: f64, cells: u32) -> FoKind {
    let kind = if grr_variance_factor(epsilon, cells) <= olh_variance_factor(epsilon) {
        FoKind::Grr
    } else {
        FoKind::Olh
    };
    match kind {
        FoKind::Grr => felip_obs::counter!("fo.afo.chose_grr", 1, "grids"),
        FoKind::Olh => felip_obs::counter!("fo.afo.chose_olh", 1, "grids"),
    }
    kind
}

/// Instantiates the chosen protocol as a boxed [`FrequencyOracle`].
pub fn make_oracle(kind: FoKind, epsilon: f64, domain: u32) -> Box<dyn FrequencyOracle> {
    match kind {
        FoKind::Grr => Box::new(Grr::new(epsilon, domain)),
        FoKind::Olh => Box::new(Olh::new(epsilon, domain)),
    }
}

/// The variance factor AFO achieves (Eq. 13, without the `m/n` scaling).
pub fn afo_variance_factor(epsilon: f64, cells: u32) -> f64 {
    grr_variance_factor(epsilon, cells).min(olh_variance_factor(epsilon))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grids_use_grr() {
        // At ε = 1, crossover at L = 3e + 2 ≈ 10.15.
        assert_eq!(choose_oracle(1.0, 4), FoKind::Grr);
        assert_eq!(choose_oracle(1.0, 10), FoKind::Grr);
        assert_eq!(choose_oracle(1.0, 11), FoKind::Olh);
        assert_eq!(choose_oracle(1.0, 1000), FoKind::Olh);
    }

    #[test]
    fn larger_epsilon_extends_grr_region() {
        // At ε = 3, crossover ≈ 3·20.1 + 2 ≈ 62.
        assert_eq!(choose_oracle(3.0, 50), FoKind::Grr);
        assert_eq!(choose_oracle(3.0, 80), FoKind::Olh);
    }

    #[test]
    fn afo_variance_is_the_minimum() {
        for &eps in &[0.5, 1.0, 2.0] {
            for &l in &[2u32, 8, 32, 512] {
                let v = afo_variance_factor(eps, l);
                assert!(v <= grr_variance_factor(eps, l) + 1e-15);
                assert!(v <= olh_variance_factor(eps) + 1e-15);
            }
        }
    }

    #[test]
    fn make_oracle_dispatches() {
        let g = make_oracle(FoKind::Grr, 1.0, 8);
        let o = make_oracle(FoKind::Olh, 1.0, 8);
        assert_eq!(g.domain(), 8);
        assert_eq!(o.domain(), 8);
        // GRR variance for d=8 at ε=1 is lower than OLH's.
        assert!(g.variance(1000) < o.variance(1000));
    }

    #[test]
    fn display_names() {
        assert_eq!(FoKind::Grr.to_string(), "GRR");
        assert_eq!(FoKind::Olh.to_string(), "OLH");
    }
}
