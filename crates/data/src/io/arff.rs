//! ARFF (Attribute-Relation File Format) reader.
//!
//! Supports `@relation`, `@attribute <name> numeric|real|integer|{a,b,...}`,
//! `@data` with comma-separated rows, `%` comments, `'quoted names'`, and
//! `?` missing values. Sparse ARFF and date/string attributes are not
//! supported (the paper's pipeline does not use them); encountering one is a
//! parse error rather than silent misreading.
//!
//! Data cells go straight into the column builders the CSV reader uses
//! ([`super::columns`]). A declaration is enforced on every cell: a value
//! outside a nominal attribute's domain, or one that is not a number under
//! a numeric attribute, is a parse error naming line and attribute. A
//! nominal attribute's levels are the values that occur, in first-appearance
//! order, and one whose values all parse as numbers (`{0,1}`) is a numeric
//! feature, as in the CSV reader. The first error in file order is reported.

use std::borrow::Cow;

use super::columns::{into_dataset, Column};
use crate::dataset::{Dataset, DatasetError};

#[derive(Debug)]
enum AttrType {
    Numeric,
    Nominal(Vec<String>),
}

/// Parses ARFF text into a [`Dataset`]. The last attribute is the class.
pub fn parse_arff(name: &str, text: &str) -> Result<Dataset, DatasetError> {
    let mut attrs: Vec<(String, AttrType)> = Vec::new();
    // One builder per attribute, made at `@data`.
    let mut columns: Vec<Column> = Vec::new();
    let mut in_data = false;
    let mut n_rows = 0;
    for (line_no, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| DatasetError::Parse(format!("line {}: {msg}", line_no + 1));
        if !in_data {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("@relation") {
                continue;
            } else if lower.starts_with("@attribute") {
                let rest = line["@attribute".len()..].trim();
                let (attr_name, rest) = take_name(rest).ok_or_else(|| err("bad attribute"))?;
                let type_str = rest.trim();
                let attr_type = parse_attr_type(type_str)
                    .ok_or_else(|| err(&format!("unsupported attribute type '{type_str}'")))?;
                attrs.push((attr_name, attr_type));
            } else if lower.starts_with("@data") {
                if attrs.len() < 2 {
                    return Err(err("need at least one feature and a class attribute"));
                }
                // The class is read as text whatever its declaration says.
                columns = attrs
                    .iter()
                    .enumerate()
                    .map(|(i, (_, attr_type))| match attr_type {
                        AttrType::Numeric if i + 1 < attrs.len() => Column::inferred(),
                        _ => Column::categorical(),
                    })
                    .collect();
                in_data = true;
            } else {
                return Err(err(&format!("unexpected header line '{line}'")));
            }
        } else {
            if line.starts_with('{') {
                return Err(err("sparse ARFF rows are not supported"));
            }
            let n_fields = line.split(',').count();
            if n_fields != attrs.len() {
                return Err(err(&format!("{n_fields} fields, expected {}", attrs.len())));
            }
            for (i, (field, column)) in line.split(',').zip(&mut columns).enumerate() {
                let (attr_name, attr_type) = &attrs[i];
                let is_class = i + 1 == attrs.len();
                let value = field.trim().trim_matches('\'').trim_matches('"');
                let cell = (!value.is_empty() && value != "?").then_some(value);
                if is_class && cell.is_none() {
                    return Err(err("missing class label"));
                }
                column.push(cell.map(Cow::Borrowed));
                // A declaration is a promise about every cell. A numeric
                // feature column stops being numeric only on a cell that is
                // not a number; the class column never was, so ask its text.
                let broken = match (cell, attr_type) {
                    (None, _) => None,
                    (Some(v), AttrType::Nominal(levels)) => {
                        (!levels.iter().any(|l| l == v)).then_some("not in domain of nominal")
                    }
                    (Some(v), AttrType::Numeric) => {
                        let number =
                            if is_class { v.parse::<f64>().is_ok() } else { column.is_numeric() };
                        (!number).then_some("not a number under numeric")
                    }
                };
                if let Some(why) = broken {
                    return Err(err(&format!("value '{value}' {why} attribute '{attr_name}'")));
                }
            }
            n_rows += 1;
        }
    }
    if n_rows == 0 {
        return Err(DatasetError::Parse("no data rows".into()));
    }
    let names = attrs.into_iter().map(|(attr_name, _)| attr_name).collect();
    let target = columns.len() - 1;
    into_dataset(name, names, columns, target)
}

fn strip_comment(line: &str) -> &str {
    match line.find('%') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Extracts a (possibly quoted) attribute name; returns (name, remainder).
fn take_name(s: &str) -> Option<(String, &str)> {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('\'') {
        let end = rest.find('\'')?;
        Some((rest[..end].to_string(), &rest[end + 1..]))
    } else {
        let end = s.find(char::is_whitespace)?;
        Some((s[..end].to_string(), &s[end..]))
    }
}

fn parse_attr_type(s: &str) -> Option<AttrType> {
    let lower = s.to_ascii_lowercase();
    if lower == "numeric" || lower == "real" || lower == "integer" {
        return Some(AttrType::Numeric);
    }
    if s.starts_with('{') && s.ends_with('}') {
        let levels = s[1..s.len() - 1]
            .split(',')
            .map(|v| v.trim().trim_matches('\'').trim_matches('"').to_string())
            .collect();
        return Some(AttrType::Nominal(levels));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Feature;

    const SAMPLE: &str = "\
% weather toy data
@relation weather
@attribute outlook {sunny, overcast, rainy}
@attribute temperature numeric
@attribute 'wind speed' real
@attribute play {yes, no}
@data
sunny, 85, 3.2, no
overcast, 83, ?, yes
rainy, 70, 12.0, yes  % inline comment
";

    #[test]
    fn parses_weather() {
        let d = parse_arff("weather", SAMPLE).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.feature(0).name(), "outlook");
        assert!(!d.feature(0).is_numeric());
        assert!(d.feature(1).is_numeric());
        assert_eq!(d.feature(2).name(), "wind speed");
        assert_eq!(d.missing_cells(), 1);
        assert_eq!(d.class_names(), &["no".to_string(), "yes".to_string()]);
    }

    #[test]
    fn rejects_out_of_domain_nominal() {
        let bad = SAMPLE.replace("rainy, 70", "snowy, 70");
        assert!(parse_arff("w", &bad).is_err());
    }

    #[test]
    fn rejects_sparse_rows() {
        let text = "@relation r\n@attribute a numeric\n@attribute c {x,y}\n@data\n{0 1, 1 x}\n";
        assert!(parse_arff("s", text).is_err());
    }

    #[test]
    fn rejects_string_attribute() {
        let text = "@relation r\n@attribute a string\n@attribute c {x,y}\n@data\nfoo,x\n";
        assert!(parse_arff("s", text).is_err());
    }

    #[test]
    fn rejects_field_count_mismatch() {
        let text = "@relation r\n@attribute a numeric\n@attribute c {x,y}\n@data\n1,x,extra\n";
        assert!(parse_arff("m", text).is_err());
    }

    #[test]
    fn rejects_empty_data() {
        let text = "@relation r\n@attribute a numeric\n@attribute c {x,y}\n@data\n";
        assert!(parse_arff("e", text).is_err());
    }

    #[test]
    fn comment_only_lines_skipped() {
        let text = "% hi\n@relation r\n% mid\n@attribute a numeric\n@attribute c {x,y}\n@data\n% before\n1,x\n2,y\n";
        let d = parse_arff("c", text).unwrap();
        assert_eq!(d.n_rows(), 2);
    }

    #[test]
    fn numeric_column_values() {
        let d = parse_arff("weather", SAMPLE).unwrap();
        match d.feature(1) {
            Feature::Numeric { values, .. } => assert_eq!(values, &[85.0, 83.0, 70.0]),
            _ => panic!("expected numeric"),
        }
    }

    #[test]
    fn declared_numeric_rejects_a_non_number() {
        let bad = SAMPLE.replace("overcast, 83", "overcast, warm");
        assert_eq!(
            parse_arff("w", &bad).unwrap_err().to_string(),
            "parse error: line 9: value 'warm' not a number under numeric attribute 'temperature'"
        );
        // The class attribute keeps its promise too.
        let text = "@relation r\n@attribute a real\n@attribute c integer\n@data\n1,0\n2,one\n";
        assert_eq!(
            parse_arff("c", text).unwrap_err().to_string(),
            "parse error: line 6: value 'one' not a number under numeric attribute 'c'"
        );
    }

    #[test]
    fn nominal_levels_in_first_appearance_order() {
        let d = parse_arff("weather", SAMPLE).unwrap();
        match d.feature(0) {
            Feature::Categorical { codes, levels, .. } => {
                assert_eq!(levels, &["sunny", "overcast", "rainy"]);
                assert_eq!(codes, &[0, 1, 2]);
            }
            _ => panic!("expected categorical"),
        }
        // Declared {yes, no}, but `no` occurs first.
        assert_eq!(d.labels(), &[0, 1, 1]);
    }

    #[test]
    fn nominal_of_numbers_is_a_numeric_feature() {
        let text = "@relation r\n@attribute f {0,1}\n@attribute c {x,y}\n@data\n1,x\n?,y\n0,x\n";
        let d = parse_arff("n", text).unwrap();
        match d.feature(0) {
            Feature::Numeric { values, .. } => {
                assert_eq!(values[0], 1.0);
                assert!(values[1].is_nan());
                assert_eq!(values[2], 0.0);
            }
            _ => panic!("expected numeric"),
        }
    }

    #[test]
    fn missing_label_names_its_line() {
        let text = "@relation r\n@attribute a numeric\n@attribute c {x,y}\n@data\n1,x\n\n2,?\n";
        assert_eq!(
            parse_arff("m", text).unwrap_err().to_string(),
            "parse error: line 7: missing class label"
        );
    }
}
