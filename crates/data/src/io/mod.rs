//! Dataset readers for the two input formats SmartML accepts: CSV and ARFF.

mod arff;
mod columns;
mod csv;
mod writer;

pub use arff::parse_arff;
pub use csv::parse_csv;
pub use writer::{write_arff, write_csv};
