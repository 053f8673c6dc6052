//! The wire format of a perturbed user report.

/// One user's LDP report, as it travels from client to aggregator.
///
/// The enum mirrors what each protocol actually transmits:
/// GRR sends one domain value; OLH sends the user's hash seed plus the
/// perturbed hashed value; OUE sends a perturbed bit vector packed into
/// 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Report {
    /// GRR: a (possibly flipped) domain value.
    Grr(u32),
    /// OLH: the public hash seed and the GRR-perturbed hash bucket.
    Olh {
        /// Seed selecting the member of the universal hash family; chosen
        /// uniformly by the client and sent in the clear.
        seed: u64,
        /// The perturbed value in `0..g`.
        value: u32,
    },
    /// OUE: the perturbed unary encoding, little-endian bit packing,
    /// `ceil(d / 64)` words.
    Oue(Vec<u64>),
}

/// The protocol a [`Report`] was produced by, without its payload — what an
/// aggregator checks before ingesting untrusted input, and the discriminant
/// tag the wire format serialises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// A [`Report::Grr`] value.
    Grr,
    /// A [`Report::Olh`] seed/value pair.
    Olh,
    /// A [`Report::Oue`] packed bit vector.
    Oue,
}

impl std::fmt::Display for ReportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportKind::Grr => write!(f, "GRR"),
            ReportKind::Olh => write!(f, "OLH"),
            ReportKind::Oue => write!(f, "OUE"),
        }
    }
}

impl Report {
    /// Approximate wire size in bytes; used by the communication-cost
    /// ablation bench.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Report::Grr(_) => 4,
            Report::Olh { .. } => 12,
            Report::Oue(words) => words.len() * 8,
        }
    }

    /// Which protocol produced this report.
    pub fn kind(&self) -> ReportKind {
        match self {
            Report::Grr(_) => ReportKind::Grr,
            Report::Olh { .. } => ReportKind::Olh,
            Report::Oue(_) => ReportKind::Oue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(Report::Grr(3).wire_bytes(), 4);
        assert_eq!(Report::Olh { seed: 1, value: 2 }.wire_bytes(), 12);
        assert_eq!(Report::Oue(vec![0, 0]).wire_bytes(), 16);
    }

    #[test]
    fn kinds() {
        assert_eq!(Report::Grr(0).kind(), ReportKind::Grr);
        assert_eq!(Report::Olh { seed: 0, value: 0 }.kind(), ReportKind::Olh);
        assert_eq!(Report::Oue(vec![]).kind(), ReportKind::Oue);
        assert_eq!(ReportKind::Olh.to_string(), "OLH");
    }
}
