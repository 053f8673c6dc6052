//! Grid specifications: which attributes a grid covers and how each axis is
//! binned.

use felip_common::{AttrKind, Error, Result, Schema};
use felip_fo::FoKind;

use crate::bins::Binning;

/// Identifies a grid within a collection plan by the attributes it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GridId {
    /// 1-D grid over a single attribute.
    One(usize),
    /// 2-D grid over an attribute pair `(i, j)` with `i < j`.
    Two(usize, usize),
}

impl GridId {
    /// Attributes this grid covers (1 or 2 of them).
    pub fn attrs(&self) -> Vec<usize> {
        match self {
            GridId::One(a) => vec![*a],
            GridId::Two(i, j) => vec![*i, *j],
        }
    }

    /// `true` when the grid covers `attr`.
    pub fn covers(&self, attr: usize) -> bool {
        match self {
            GridId::One(a) => *a == attr,
            GridId::Two(i, j) => *i == attr || *j == attr,
        }
    }
}

impl std::fmt::Display for GridId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridId::One(a) => write!(f, "G({a})"),
            GridId::Two(i, j) => write!(f, "G({i},{j})"),
        }
    }
}

/// One axis of a grid: an attribute and its binning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Index of the attribute in the schema.
    pub attr: usize,
    /// Whether the attribute is categorical (identity binning) or numerical.
    pub kind: AttrKind,
    /// The partition of the attribute's domain into cells.
    pub binning: Binning,
}

impl Axis {
    /// Builds an axis for `attr` with `cells` near-equal-width cells.
    /// Categorical attributes must use identity binning (`cells == domain`).
    pub fn new(schema: &Schema, attr: usize, cells: u32) -> Result<Self> {
        let a = schema.attr(attr);
        if a.kind == AttrKind::Categorical && cells != a.domain {
            return Err(Error::InvalidParameter(format!(
                "categorical attribute `{}` must have one cell per value ({} != {})",
                a.name, cells, a.domain
            )));
        }
        Ok(Axis {
            attr,
            kind: a.kind,
            binning: Binning::equal(a.domain, cells)?,
        })
    }

    /// Builds an axis with an explicit (possibly non-equal-width) binning —
    /// the data-aware two-phase extension uses equal-*mass* binnings here.
    ///
    /// The binning must span the attribute's domain exactly; categorical
    /// attributes still require identity binning.
    pub fn with_binning(schema: &Schema, attr: usize, binning: Binning) -> Result<Self> {
        let a = schema.attr(attr);
        if binning.domain() != a.domain {
            return Err(Error::InvalidParameter(format!(
                "binning spans 0..{} but attribute `{}` has domain 0..{}",
                binning.domain(),
                a.name,
                a.domain
            )));
        }
        if a.kind == AttrKind::Categorical && binning.cells() != a.domain {
            return Err(Error::InvalidParameter(format!(
                "categorical attribute `{}` must have one cell per value",
                a.name
            )));
        }
        Ok(Axis {
            attr,
            kind: a.kind,
            binning,
        })
    }

    /// Number of cells along this axis.
    pub fn cells(&self) -> u32 {
        self.binning.cells()
    }
}

/// A full grid specification: axes, the frequency-oracle protocol used to
/// report on it, and the user-group index assigned to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    id: GridId,
    axes: Vec<Axis>,
    /// Protocol chosen by the Adaptive Frequency Oracle for this grid.
    pub fo: FoKind,
}

impl GridSpec {
    /// A 1-D grid over one attribute.
    pub fn one_dim(schema: &Schema, attr: usize, cells: u32, fo: FoKind) -> Result<Self> {
        Ok(GridSpec {
            id: GridId::One(attr),
            axes: vec![Axis::new(schema, attr, cells)?],
            fo,
        })
    }

    /// A 2-D grid over attributes `i < j` with `lx × ly` cells.
    pub fn two_dim(
        schema: &Schema,
        i: usize,
        j: usize,
        lx: u32,
        ly: u32,
        fo: FoKind,
    ) -> Result<Self> {
        if i >= j {
            return Err(Error::InvalidParameter(format!(
                "2-D grid attributes must satisfy i < j, got ({i}, {j})"
            )));
        }
        Ok(GridSpec {
            id: GridId::Two(i, j),
            axes: vec![Axis::new(schema, i, lx)?, Axis::new(schema, j, ly)?],
            fo,
        })
    }

    /// A grid from pre-built axes (the data-aware two-phase extension
    /// injects equal-mass binnings this way). 1-D grids take one axis; 2-D
    /// grids take two with strictly increasing attribute indices.
    pub fn from_axes(axes: Vec<Axis>, fo: FoKind) -> Result<Self> {
        match axes.as_slice() {
            [a] => Ok(GridSpec {
                id: GridId::One(a.attr),
                axes,
                fo,
            }),
            [a, b] if a.attr < b.attr => Ok(GridSpec {
                id: GridId::Two(a.attr, b.attr),
                axes,
                fo,
            }),
            [_, _] => Err(Error::InvalidParameter(
                "2-D grid axes must have strictly increasing attribute indices".into(),
            )),
            _ => Err(Error::InvalidParameter("grids are 1-D or 2-D".into())),
        }
    }

    /// The grid's identifier.
    pub fn id(&self) -> GridId {
        self.id
    }

    /// The axes (1 or 2).
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The axis covering `attr`, if any.
    pub fn axis_for(&self, attr: usize) -> Option<&Axis> {
        self.axes.iter().find(|ax| ax.attr == attr)
    }

    /// Total number of cells `L` (the FO domain size for this grid).
    pub fn num_cells(&self) -> u32 {
        self.axes.iter().map(|a| a.cells()).product()
    }

    /// Projects a full record onto this grid's cell index.
    ///
    /// For a 2-D grid with `lx × ly` cells the index is `ix · ly + iy`
    /// (row-major).
    #[inline]
    pub fn cell_of_record(&self, record: &[u32]) -> u32 {
        match self.axes.as_slice() {
            [a] => a.binning.cell_of(record[a.attr]),
            [a, b] => {
                a.binning.cell_of(record[a.attr]) * b.cells() + b.binning.cell_of(record[b.attr])
            }
            _ => unreachable!("grids are 1-D or 2-D"),
        }
    }

    /// Decomposes a cell index into per-axis cell coordinates.
    pub fn cell_coords(&self, cell: u32) -> (u32, Option<u32>) {
        match self.axes.as_slice() {
            [_] => (cell, None),
            [_, b] => (cell / b.cells(), Some(cell % b.cells())),
            _ => unreachable!("grids are 1-D or 2-D"),
        }
    }

    /// Recomposes per-axis coordinates into a cell index.
    pub fn cell_index(&self, ix: u32, iy: Option<u32>) -> u32 {
        match self.axes.as_slice() {
            [_] => ix,
            [_, b] => ix * b.cells() + iy.expect("2-D grid needs two coordinates"),
            _ => unreachable!("grids are 1-D or 2-D"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_common::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("x", 100),
            Attribute::categorical("c", 4),
            Attribute::numerical("y", 30),
        ])
        .unwrap()
    }

    #[test]
    fn one_dim_projection() {
        let g = GridSpec::one_dim(&schema(), 0, 5, FoKind::Olh).unwrap();
        assert_eq!(g.num_cells(), 5);
        assert_eq!(g.cell_of_record(&[0, 0, 0]), 0);
        assert_eq!(g.cell_of_record(&[99, 0, 0]), 4);
        assert_eq!(g.cell_of_record(&[20, 3, 29]), 1);
    }

    #[test]
    fn two_dim_projection_row_major() {
        let g = GridSpec::two_dim(&schema(), 0, 2, 4, 3, FoKind::Grr).unwrap();
        assert_eq!(g.num_cells(), 12);
        // x = 99 → cell 3; y = 29 → cell 2 → index 3*3 + 2 = 11.
        assert_eq!(g.cell_of_record(&[99, 0, 29]), 11);
        assert_eq!(g.cell_coords(11), (3, Some(2)));
        assert_eq!(g.cell_index(3, Some(2)), 11);
    }

    #[test]
    fn coords_round_trip() {
        let g = GridSpec::two_dim(&schema(), 0, 2, 7, 5, FoKind::Olh).unwrap();
        for cell in 0..g.num_cells() {
            let (ix, iy) = g.cell_coords(cell);
            assert_eq!(g.cell_index(ix, iy), cell);
        }
    }

    #[test]
    fn categorical_axis_must_be_identity() {
        assert!(GridSpec::one_dim(&schema(), 1, 2, FoKind::Grr).is_err());
        let g = GridSpec::one_dim(&schema(), 1, 4, FoKind::Grr).unwrap();
        assert_eq!(g.num_cells(), 4);
    }

    #[test]
    fn mixed_cat_num_grid() {
        let g = GridSpec::two_dim(&schema(), 0, 1, 10, 4, FoKind::Olh).unwrap();
        assert_eq!(g.num_cells(), 40);
        assert_eq!(g.cell_of_record(&[55, 2, 0]), 5 * 4 + 2);
    }

    #[test]
    fn rejects_unordered_pair() {
        assert!(GridSpec::two_dim(&schema(), 2, 0, 3, 3, FoKind::Olh).is_err());
        assert!(GridSpec::two_dim(&schema(), 1, 1, 4, 4, FoKind::Olh).is_err());
    }

    #[test]
    fn grid_id_covers() {
        assert!(GridId::Two(0, 2).covers(0));
        assert!(GridId::Two(0, 2).covers(2));
        assert!(!GridId::Two(0, 2).covers(1));
        assert!(GridId::One(1).covers(1));
        assert_eq!(GridId::Two(0, 2).attrs(), vec![0, 2]);
        assert_eq!(GridId::Two(0, 2).to_string(), "G(0,2)");
    }

    #[test]
    fn axis_lookup() {
        let g = GridSpec::two_dim(&schema(), 0, 2, 4, 3, FoKind::Olh).unwrap();
        assert_eq!(g.axis_for(0).unwrap().cells(), 4);
        assert_eq!(g.axis_for(2).unwrap().cells(), 3);
        assert!(g.axis_for(1).is_none());
    }
}
