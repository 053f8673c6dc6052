//! λ-dimensional counting queries (§4 of the paper).
//!
//! A query is a conjunction of predicates, one per distinct attribute:
//!
//! * `BETWEEN lo AND hi` (inclusive) on a numerical attribute,
//! * `IN {v₁, …}` on a categorical attribute,
//! * `= v` on either (represented as a one-element set / unit range).
//!
//! The answer of a query is the *fraction* of records satisfying every
//! predicate: `f̃_q = |{v_i | v_i^t ∈ v_t ∀ a_t ∈ A_q}| / n`.

use crate::attr::{AttrKind, Schema};
use crate::dataset::Dataset;
use crate::error::{Error, Result};

/// The constraint a predicate places on one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredicateTarget {
    /// Inclusive range `[lo, hi]` on a numerical attribute.
    Range {
        /// Lower bound (inclusive).
        lo: u32,
        /// Upper bound (inclusive).
        hi: u32,
    },
    /// Membership in a set of categorical values (sorted, deduplicated).
    Set(Vec<u32>),
}

impl PredicateTarget {
    /// `true` when the value `v` satisfies this constraint.
    pub fn matches(&self, v: u32) -> bool {
        match self {
            PredicateTarget::Range { lo, hi } => *lo <= v && v <= *hi,
            PredicateTarget::Set(vals) => vals.binary_search(&v).is_ok(),
        }
    }

    /// Number of domain values selected by this constraint.
    pub fn selected_count(&self) -> u32 {
        match self {
            PredicateTarget::Range { lo, hi } => hi - lo + 1,
            PredicateTarget::Set(vals) => vals.len() as u32,
        }
    }
}

/// One conjunct of a query: a constraint on a single attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// Index of the attribute in the schema.
    pub attr: usize,
    /// The constraint applied to that attribute.
    pub target: PredicateTarget,
}

impl Predicate {
    /// `attr BETWEEN lo AND hi` (inclusive).
    pub fn between(attr: usize, lo: u32, hi: u32) -> Self {
        Predicate {
            attr,
            target: PredicateTarget::Range { lo, hi },
        }
    }

    /// `attr IN values`. Values are sorted and deduplicated.
    pub fn in_set(attr: usize, mut values: Vec<u32>) -> Self {
        values.sort_unstable();
        values.dedup();
        Predicate {
            attr,
            target: PredicateTarget::Set(values),
        }
    }

    /// `attr = value`.
    pub fn equals(attr: usize, value: u32) -> Self {
        Predicate {
            attr,
            target: PredicateTarget::Set(vec![value]),
        }
    }

    /// Fraction of the attribute's domain selected by this predicate —
    /// the query *selectivity* `r` on this dimension (§5.2).
    pub fn selectivity(&self, schema: &Schema) -> f64 {
        self.target.selected_count() as f64 / schema.domain(self.attr) as f64
    }
}

/// A conjunction of predicates over distinct attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    predicates: Vec<Predicate>,
}

impl Query {
    /// Builds a query, validating it against `schema`:
    /// each predicate must reference a distinct, existing attribute; ranges
    /// must be non-empty, inside the domain, and applied to numerical
    /// attributes; sets must be non-empty and inside the domain.
    ///
    /// Predicates are stored sorted by attribute index.
    pub fn new(schema: &Schema, mut predicates: Vec<Predicate>) -> Result<Self> {
        if predicates.is_empty() {
            return Err(Error::InvalidQuery(
                "query must have at least one predicate".into(),
            ));
        }
        predicates.sort_by_key(|p| p.attr);
        for (i, p) in predicates.iter().enumerate() {
            if p.attr >= schema.len() {
                return Err(Error::InvalidQuery(format!(
                    "predicate references attribute #{} but schema has {}",
                    p.attr,
                    schema.len()
                )));
            }
            if i > 0 && predicates[i - 1].attr == p.attr {
                return Err(Error::InvalidQuery(format!(
                    "two predicates on attribute #{}",
                    p.attr
                )));
            }
            let a = schema.attr(p.attr);
            match &p.target {
                PredicateTarget::Range { lo, hi } => {
                    if a.kind == AttrKind::Categorical {
                        return Err(Error::InvalidQuery(format!(
                            "range predicate on categorical attribute `{}`",
                            a.name
                        )));
                    }
                    if lo > hi {
                        return Err(Error::InvalidQuery(format!("empty range [{lo}, {hi}]")));
                    }
                    if *hi >= a.domain {
                        return Err(Error::InvalidQuery(format!(
                            "range [{lo}, {hi}] exceeds domain 0..{} of `{}`",
                            a.domain, a.name
                        )));
                    }
                }
                PredicateTarget::Set(vals) => {
                    if vals.is_empty() {
                        return Err(Error::InvalidQuery("empty IN set".into()));
                    }
                    if let Some(&v) = vals.iter().find(|&&v| v >= a.domain) {
                        return Err(Error::InvalidQuery(format!(
                            "value {v} exceeds domain 0..{} of `{}`",
                            a.domain, a.name
                        )));
                    }
                }
            }
        }
        Ok(Query { predicates })
    }

    /// The predicates, sorted by attribute index.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Query dimension λ.
    pub fn dim(&self) -> usize {
        self.predicates.len()
    }

    /// Attribute indices referenced by the query (`A_q`), sorted.
    pub fn attrs(&self) -> Vec<usize> {
        self.predicates.iter().map(|p| p.attr).collect()
    }

    /// The predicate on attribute `attr`, if the query constrains it.
    pub fn predicate_on(&self, attr: usize) -> Option<&Predicate> {
        self.predicates.iter().find(|p| p.attr == attr)
    }

    /// `true` when the record satisfies all predicates.
    pub fn matches(&self, record: &[u32]) -> bool {
        self.predicates
            .iter()
            .all(|p| p.target.matches(record[p.attr]))
    }

    /// Exact answer on a dataset: fraction of matching records.
    /// Returns 0 for an empty dataset.
    pub fn true_answer(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let hits = dataset.rows().filter(|r| self.matches(r)).count();
        hits as f64 / dataset.len() as f64
    }

    /// Geometric-mean selectivity across the query's dimensions.
    pub fn mean_selectivity(&self, schema: &Schema) -> f64 {
        let prod: f64 = self
            .predicates
            .iter()
            .map(|p| p.selectivity(schema))
            .product();
        prod.powf(1.0 / self.predicates.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("age", 100),
            Attribute::categorical("edu", 5),
            Attribute::numerical("salary", 50),
        ])
        .unwrap()
    }

    fn data() -> Dataset {
        Dataset::from_rows(
            schema(),
            vec![
                vec![29, 0, 30],
                vec![55, 4, 49],
                vec![48, 3, 40],
                vec![35, 1, 25],
                vec![23, 0, 22],
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_query() {
        // Age BETWEEN 30 AND 60 AND Edu IN {3, 4} AND Salary <= 40.
        let q = Query::new(
            &schema(),
            vec![
                Predicate::between(0, 30, 60),
                Predicate::in_set(1, vec![3, 4]),
                Predicate::between(2, 0, 40),
            ],
        )
        .unwrap();
        assert_eq!(q.dim(), 3);
        // Only record #3 (48, Masters=3, 40) matches: answer = 1/5.
        assert!((q.true_answer(&data()) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn equals_is_singleton_set() {
        let q = Query::new(&schema(), vec![Predicate::equals(1, 4)]).unwrap();
        assert!((q.true_answer(&data()) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn set_dedup_and_sort() {
        let p = Predicate::in_set(1, vec![4, 0, 4, 2]);
        match &p.target {
            PredicateTarget::Set(v) => assert_eq!(v, &vec![0, 2, 4]),
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = Query::new(
            &schema(),
            vec![Predicate::between(0, 0, 9), Predicate::between(0, 10, 19)],
        )
        .unwrap_err();
        assert!(err.to_string().contains("two predicates"));
    }

    #[test]
    fn rejects_range_on_categorical() {
        assert!(Query::new(&schema(), vec![Predicate::between(1, 0, 1)]).is_err());
    }

    #[test]
    fn rejects_out_of_domain() {
        assert!(Query::new(&schema(), vec![Predicate::between(0, 0, 100)]).is_err());
        assert!(Query::new(&schema(), vec![Predicate::in_set(1, vec![5])]).is_err());
        assert!(Query::new(&schema(), vec![Predicate::between(0, 10, 5)]).is_err());
        assert!(Query::new(&schema(), vec![Predicate::in_set(1, vec![])]).is_err());
        assert!(Query::new(&schema(), vec![]).is_err());
    }

    #[test]
    fn selectivity() {
        let s = schema();
        assert!((Predicate::between(0, 0, 49).selectivity(&s) - 0.5).abs() < 1e-12);
        assert!((Predicate::in_set(1, vec![0, 1]).selectivity(&s) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_answer_is_zero() {
        let q = Query::new(&schema(), vec![Predicate::equals(1, 0)]).unwrap();
        assert_eq!(q.true_answer(&Dataset::empty(schema())), 0.0);
    }

    #[test]
    fn predicates_sorted_by_attr() {
        let q = Query::new(
            &schema(),
            vec![Predicate::between(2, 0, 10), Predicate::between(0, 0, 10)],
        )
        .unwrap();
        assert_eq!(q.attrs(), vec![0, 2]);
        assert!(q.predicate_on(2).is_some());
        assert!(q.predicate_on(1).is_none());
    }
}
