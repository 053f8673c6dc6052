//! Attribute and schema definitions.
//!
//! The paper (§4) considers `k` attributes `a_1..a_k`, each either *ordinal*
//! (numerical) or *categorical*, with per-attribute domain sizes
//! `d_1..d_k`. An attribute value is always an index in `0..d_t`.

use crate::error::{Error, Result};

/// Whether an attribute's domain is ordered.
///
/// Numerical (ordinal) attributes admit `BETWEEN` range predicates and are
/// binned into grid cells that cover contiguous sub-intervals. Categorical
/// attributes admit `IN` set predicates and are never binned: each category
/// is its own grid cell (§5.2, "Categorical 1-D Grids").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// Ordered domain; supports range (`BETWEEN`) predicates and binning.
    Numerical,
    /// Unordered domain; supports set (`IN`) predicates; one cell per value.
    Categorical,
}

impl AttrKind {
    /// `true` for [`AttrKind::Numerical`].
    pub fn is_numerical(self) -> bool {
        matches!(self, AttrKind::Numerical)
    }

    /// `true` for [`AttrKind::Categorical`].
    pub fn is_categorical(self) -> bool {
        matches!(self, AttrKind::Categorical)
    }
}

/// One attribute of the multidimensional schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Human-readable name (`"age"`, `"education"`, ...). Names must be
    /// unique within a [`Schema`].
    pub name: String,
    /// Ordered (numerical) or unordered (categorical).
    pub kind: AttrKind,
    /// Domain size `d`; values are `0..d`.
    pub domain: u32,
}

impl Attribute {
    /// A numerical attribute with domain `0..domain`.
    pub fn numerical(name: impl Into<String>, domain: u32) -> Self {
        Attribute {
            name: name.into(),
            kind: AttrKind::Numerical,
            domain,
        }
    }

    /// A categorical attribute with `domain` categories.
    pub fn categorical(name: impl Into<String>, domain: u32) -> Self {
        Attribute {
            name: name.into(),
            kind: AttrKind::Categorical,
            domain,
        }
    }
}

/// An ordered collection of attributes shared by a dataset, a collection
/// plan, and the queries issued against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema, validating that attribute names are unique and every
    /// domain is non-empty.
    pub fn new(attrs: Vec<Attribute>) -> Result<Self> {
        if attrs.is_empty() {
            return Err(Error::InvalidSchema(
                "schema must have at least one attribute".into(),
            ));
        }
        for (i, a) in attrs.iter().enumerate() {
            if a.domain == 0 {
                return Err(Error::InvalidSchema(format!(
                    "attribute `{}` has an empty domain",
                    a.name
                )));
            }
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(Error::InvalidSchema(format!(
                    "duplicate attribute name `{}`",
                    a.name
                )));
            }
        }
        Ok(Schema { attrs })
    }

    /// Number of attributes `k`.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// `true` when the schema has no attributes (never the case for a schema
    /// built through [`Schema::new`]).
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The attribute at position `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds; attribute indices originate from
    /// this schema so an out-of-range index is a logic error.
    pub fn attr(&self, idx: usize) -> &Attribute {
        &self.attrs[idx]
    }

    /// All attributes in schema order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Index of the attribute named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// Domain size of attribute `idx`.
    pub fn domain(&self, idx: usize) -> u32 {
        self.attrs[idx].domain
    }

    /// Indices of all numerical attributes, in schema order.
    pub fn numerical_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.attrs[i].kind.is_numerical())
            .collect()
    }

    /// Indices of all categorical attributes, in schema order.
    pub fn categorical_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.attrs[i].kind.is_categorical())
            .collect()
    }

    /// Number of numerical attributes (`k_n` in the paper).
    pub fn num_numerical(&self) -> usize {
        self.numerical_indices().len()
    }

    /// All unordered attribute pairs `(i, j)` with `i < j`, in lexicographic
    /// order — the `C(k, 2)` pairs over which 2-D grids are built.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let k = self.len();
        let mut out = Vec::with_capacity(k * (k - 1) / 2);
        for i in 0..k {
            for j in (i + 1)..k {
                out.push((i, j));
            }
        }
        out
    }

    /// Validates that `values` is a legal record for this schema.
    pub fn check_record(&self, values: &[u32]) -> Result<()> {
        if values.len() != self.len() {
            return Err(Error::InvalidRecord(format!(
                "record has {} values, schema has {} attributes",
                values.len(),
                self.len()
            )));
        }
        for (i, (&v, a)) in values.iter().zip(&self.attrs).enumerate() {
            if v >= a.domain {
                // The raw value is deliberately NOT echoed back: record
                // values are private inputs, and this message can reach
                // logs and wire error frames.
                return Err(Error::InvalidRecord(format!(
                    "value out of domain 0..{} for attribute #{i} `{}`",
                    a.domain, a.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema3() -> Schema {
        Schema::new(vec![
            Attribute::numerical("age", 100),
            Attribute::categorical("sex", 2),
            Attribute::numerical("income", 64),
        ])
        .unwrap()
    }

    #[test]
    fn schema_basic_accessors() {
        let s = schema3();
        assert_eq!(s.len(), 3);
        assert_eq!(s.attr(0).name, "age");
        assert_eq!(s.domain(1), 2);
        assert_eq!(s.index_of("income"), Some(2));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new(vec![
            Attribute::numerical("a", 4),
            Attribute::categorical("a", 2),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn schema_rejects_empty_domain() {
        assert!(Schema::new(vec![Attribute::numerical("a", 0)]).is_err());
    }

    #[test]
    fn schema_rejects_no_attributes() {
        assert!(Schema::new(vec![]).is_err());
    }

    #[test]
    fn kind_split() {
        let s = schema3();
        assert_eq!(s.numerical_indices(), vec![0, 2]);
        assert_eq!(s.categorical_indices(), vec![1]);
        assert_eq!(s.num_numerical(), 2);
    }

    #[test]
    fn pairs_enumeration() {
        let s = schema3();
        assert_eq!(s.pairs(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn record_validation() {
        let s = schema3();
        assert!(s.check_record(&[99, 1, 63]).is_ok());
        assert!(s.check_record(&[100, 1, 63]).is_err());
        assert!(s.check_record(&[99, 1]).is_err());
    }

    #[test]
    fn kind_predicates() {
        assert!(AttrKind::Numerical.is_numerical());
        assert!(!AttrKind::Numerical.is_categorical());
        assert!(AttrKind::Categorical.is_categorical());
    }
}
