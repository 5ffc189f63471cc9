//! Per-column builders shared by the CSV and ARFF readers.
//!
//! A reader pushes each cell of a record straight into its column; no row
//! of cells is ever materialised. A [`Column`] holds `f64`s for as long as
//! every cell it has seen is missing or a number, and level codes once one
//! is not. Level and class names are interned through a hash index, in
//! first-appearance order of their *text* (`1.0` and `1.00` are two levels).

use std::borrow::Cow;
use std::collections::HashMap;

use crate::dataset::{Dataset, DatasetError, Feature, MISSING_CODE};

/// A cell of the input: `None` when missing, else its trimmed text, which
/// borrows from the input unless unescaping had to build it.
pub(crate) type Cell<'a> = Option<Cow<'a, str>>;

/// Level names in first-appearance order, with a hash index from name to
/// code (the default hasher: the keys come from outside the program).
#[derive(Default)]
pub(crate) struct Levels<'a> {
    names: Vec<String>,
    index: HashMap<Cow<'a, str>, u32>,
}

impl<'a> Levels<'a> {
    fn code(&mut self, text: Cow<'a, str>) -> u32 {
        if let Some(&code) = self.index.get(text.as_ref()) {
            return code;
        }
        // 2^32 distinct levels need more than 2^32 cells: out of reach of
        // an input that is held in memory as one `&str` next to its codes.
        let code = self.names.len() as u32;
        self.names.push(text.to_string());
        self.index.insert(text, code);
        code
    }
}

/// One column under construction.
pub(crate) enum Column<'a> {
    /// Every cell so far was missing or parsed as `f64`; `present` counts
    /// the ones that were not missing.
    Numeric { values: Vec<f64>, present: usize },
    /// Codes into `levels`, [`MISSING_CODE`] for a missing cell.
    Categorical { codes: Vec<u32>, levels: Levels<'a> },
    /// A non-number arrived after numbers whose text was not kept: the
    /// column is categorical, and the reader fills a fresh one from the
    /// first record again. Pushes are ignored.
    Deferred,
}

impl<'a> Column<'a> {
    /// A column whose type the cells decide: numeric until one is not.
    pub(crate) fn inferred() -> Self {
        Column::Numeric { values: Vec::new(), present: 0 }
    }

    /// A column read as text from the start (labels, ARFF nominals).
    pub(crate) fn categorical() -> Self {
        Column::Categorical { codes: Vec::new(), levels: Levels::default() }
    }

    pub(crate) fn is_numeric(&self) -> bool {
        matches!(self, Column::Numeric { .. })
    }

    /// Appends one cell. Each cell's text is parsed as `f64` at most once.
    pub(crate) fn push(&mut self, cell: Cell<'a>) {
        match self {
            Column::Numeric { values, present } => match cell {
                None => values.push(f64::NAN),
                Some(text) => match text.parse::<f64>() {
                    Ok(v) => {
                        values.push(v);
                        *present += 1;
                    }
                    // Only missing cells so far: nothing to read again.
                    Err(_) if *present == 0 => {
                        let mut codes = vec![MISSING_CODE; values.len()];
                        let mut levels = Levels::default();
                        codes.push(levels.code(text));
                        *self = Column::Categorical { codes, levels };
                    }
                    Err(_) => *self = Column::Deferred,
                },
            },
            Column::Categorical { codes, levels } => {
                codes.push(cell.map_or(MISSING_CODE, |text| levels.code(text)));
            }
            Column::Deferred => {}
        }
    }

    /// The finished feature. A column read as text whose levels all parse
    /// as `f64` (an ARFF nominal such as `{0,1}`) is numeric by the same
    /// inference rule; a column that inference turned categorical has a
    /// level that does not parse, so for it this is a no-op.
    fn into_feature(self, name: String) -> Feature {
        match self {
            Column::Numeric { values, .. } => Feature::Numeric { name, values },
            Column::Categorical { codes, levels } => {
                let parsed: Result<Vec<f64>, _> = levels.names.iter().map(|l| l.parse()).collect();
                match parsed {
                    Ok(parsed) => Feature::Numeric {
                        name,
                        values: codes
                            .iter()
                            .map(|&c| parsed.get(c as usize).copied().unwrap_or(f64::NAN))
                            .collect(),
                    },
                    Err(_) => Feature::Categorical { name, codes, levels: levels.names },
                }
            }
            Column::Deferred => {
                Feature::Categorical { name, codes: Vec::new(), levels: Vec::new() }
            }
        }
    }
}

/// Assembles the dataset: `columns[target]`, read with
/// [`Column::categorical`], becomes the labels and class names; every
/// other column becomes a feature under its `names` entry.
pub(crate) fn into_dataset(
    name: &str,
    names: Vec<String>,
    columns: Vec<Column<'_>>,
    target: usize,
) -> Result<Dataset, DatasetError> {
    let mut features = Vec::with_capacity(columns.len().saturating_sub(1));
    let mut labels = Vec::new();
    let mut class_names = Vec::new();
    for (i, (column_name, column)) in names.into_iter().zip(columns).enumerate() {
        match column {
            Column::Categorical { codes, levels } if i == target => {
                labels = codes;
                class_names = levels.names;
            }
            column => features.push(column.into_feature(column_name)),
        }
    }
    Dataset::new(name, features, labels, class_names)
}
