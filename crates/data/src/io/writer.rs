//! Dataset writers: serialise a [`Dataset`] back to CSV or ARFF text.
//!
//! `parse_csv(write_csv(d))` gives `d` back exactly (floats are written in
//! Rust's shortest round-trip form) as long as class names and levels are
//! in first-appearance order and no name is one the reader cannot express:
//! empty, `?`, padded with spaces, or spanning lines. The ARFF reader has
//! no quoting, so there names must also be free of commas.

use std::fmt::Write as _;

use crate::dataset::{Dataset, Feature, MISSING_CODE};

/// Serialises a dataset to CSV with a header row; the label column comes
/// last, named `class`. Missing values are written as `?`; a name holding
/// a comma or a quote is quoted per RFC 4180, and only then.
pub fn write_csv(data: &Dataset) -> String {
    let mut out = String::new();
    for feature in data.features() {
        push_csv_field(&mut out, feature.name());
        out.push(',');
    }
    out.push_str("class\n");
    for row in 0..data.n_rows() {
        for feature in data.features() {
            push_cell(&mut out, feature, row, push_csv_field);
            out.push(',');
        }
        push_csv_field(&mut out, &data.class_names()[data.label(row) as usize]);
        out.push('\n');
    }
    out
}

/// Serialises a dataset to ARFF; the label attribute comes last, named
/// `class`. Missing values are written as `?`.
pub fn write_arff(data: &Dataset) -> String {
    let mut out = format!("@relation {}\n", sanitise(&data.name));
    for feature in data.features() {
        match feature {
            Feature::Numeric { name, .. } => {
                out.push_str(&format!("@attribute {} numeric\n", sanitise(name)));
            }
            Feature::Categorical { name, levels, .. } => {
                out.push_str(&format!(
                    "@attribute {} {{{}}}\n",
                    sanitise(name),
                    levels.join(",")
                ));
            }
        }
    }
    out.push_str(&format!("@attribute class {{{}}}\n@data\n", data.class_names().join(",")));
    for row in 0..data.n_rows() {
        for feature in data.features() {
            push_cell(&mut out, feature, row, String::push_str);
            out.push(',');
        }
        out.push_str(&data.class_names()[data.label(row) as usize]);
        out.push('\n');
    }
    out
}

/// Appends one feature cell: `?` if missing, else the number in shortest
/// round-trip form or the level as `push_name` writes names.
fn push_cell(out: &mut String, feature: &Feature, row: usize, push_name: fn(&mut String, &str)) {
    match feature {
        Feature::Numeric { values, .. } if values[row].is_nan() => out.push('?'),
        Feature::Numeric { values, .. } => {
            write!(out, "{}", values[row]).expect("writing to a String cannot fail");
        }
        Feature::Categorical { codes, .. } if codes[row] == MISSING_CODE => out.push('?'),
        Feature::Categorical { codes, levels, .. } => push_name(out, &levels[codes[row] as usize]),
    }
}

fn push_csv_field(out: &mut String, text: &str) {
    if text.contains([',', '"']) {
        out.push('"');
        out.push_str(&text.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(text);
    }
}

/// Replaces whitespace in attribute/relation names (readers treat names as
/// single tokens).
fn sanitise(name: &str) -> String {
    name.replace(char::is_whitespace, "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{parse_arff, parse_csv};
    use crate::synth::categorical_mixture;

    fn with_missing() -> Dataset {
        let base = categorical_mixture("writer test", 40, 2, 2, 2, 3, 1);
        let features = base
            .features()
            .iter()
            .enumerate()
            .map(|(fi, f)| match f {
                Feature::Numeric { name, values } => Feature::Numeric {
                    name: name.clone(),
                    values: values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| if (i + fi) % 7 == 0 { f64::NAN } else { v })
                        .collect(),
                },
                Feature::Categorical { name, codes, levels } => Feature::Categorical {
                    name: name.clone(),
                    codes: codes
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| if (i + fi) % 7 == 0 { MISSING_CODE } else { c })
                        .collect(),
                    levels: levels.clone(),
                },
            })
            .collect();
        base.with_features(features)
    }

    #[test]
    fn csv_roundtrip_preserves_shape_and_labels() {
        let d = with_missing();
        let text = write_csv(&d);
        let back = parse_csv("rt", &text, None).unwrap();
        assert_eq!(back.n_rows(), d.n_rows());
        assert_eq!(back.n_features(), d.n_features());
        assert_eq!(back.n_classes(), d.n_classes());
        assert_eq!(back.missing_cells(), d.missing_cells());
        // Labels survive (class names may reorder by first appearance, so
        // compare via names).
        for row in 0..d.n_rows() {
            assert_eq!(
                back.class_names()[back.label(row) as usize],
                d.class_names()[d.label(row) as usize],
                "row {row}"
            );
        }
    }

    #[test]
    fn arff_roundtrip_preserves_types() {
        let d = with_missing();
        let text = write_arff(&d);
        let back = parse_arff("rt", &text).unwrap();
        assert_eq!(back.n_rows(), d.n_rows());
        assert_eq!(back.n_features(), d.n_features());
        assert_eq!(
            back.categorical_feature_indices().len(),
            d.categorical_feature_indices().len()
        );
        assert_eq!(back.missing_cells(), d.missing_cells());
    }

    #[test]
    fn numeric_values_roundtrip_exactly() {
        use crate::synth::gaussian_blobs;
        let d = gaussian_blobs("exact", 30, 3, 2, 1.0, 2);
        let back = parse_csv("rt", &write_csv(&d), None).unwrap();
        for (fa, fb) in d.features().iter().zip(back.features()) {
            if let (Feature::Numeric { values: va, .. }, Feature::Numeric { values: vb, .. }) =
                (fa, fb)
            {
                // `{}` float formatting is shortest-roundtrip in Rust.
                assert_eq!(va, vb);
            }
        }
    }

    #[test]
    fn relation_name_sanitised() {
        let d = with_missing();
        let text = write_arff(&d);
        assert!(text.starts_with("@relation writer_test\n"));
    }

    #[test]
    fn csv_roundtrip_is_exact_with_names_that_need_quoting() {
        // Levels and class names in first-appearance order, as a reader
        // numbers them.
        let d = Dataset::new(
            "quoted",
            vec![
                Feature::Numeric {
                    name: "width, mm".into(),
                    values: vec![0.1, f64::NAN, -2.5e-7, f64::INFINITY],
                },
                Feature::Categorical {
                    name: "the \"kind\"".into(),
                    codes: vec![0, 1, MISSING_CODE, 2],
                    levels: vec!["a,b".into(), "say \"hi\"".into(), "plain".into()],
                },
            ],
            vec![0, 1, 1, 2],
            vec!["yes, really".into(), "\"no\"".into(), "maybe".into()],
        )
        .unwrap();
        let text = write_csv(&d);
        assert!(text.starts_with(
            "\"width, mm\",\"the \"\"kind\"\"\",class\n0.1,\"a,b\",\"yes, really\"\n"
        ));
        let back = parse_csv("quoted", &text, None).unwrap();
        assert_eq!(back.labels(), d.labels());
        assert_eq!(back.class_names(), d.class_names());
        assert_eq!(back.feature(1), d.feature(1));
        match (back.feature(0), d.feature(0)) {
            (
                Feature::Numeric { name: na, values: va },
                Feature::Numeric { name: nb, values: vb },
            ) => {
                assert_eq!(na, nb);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                assert_eq!(bits(va), bits(vb));
            }
            _ => panic!("expected numeric"),
        }
    }

    /// The synthetic corpora have no name that needs quoting: their text
    /// is what the plain join-with-commas writer produced.
    #[test]
    fn csv_of_a_table4_analogue_is_unquoted_and_unchanged() {
        use crate::synth::benchmark_suite;
        let d = benchmark_suite()[0].generate(2019);
        let mut expected: Vec<String> = d.features().iter().map(|f| f.name().to_string()).collect();
        expected.push("class\n".into());
        let mut expected = expected.join(",");
        for row in 0..d.n_rows() {
            for feature in d.features() {
                expected.push_str(&match feature {
                    Feature::Numeric { values, .. } if values[row].is_nan() => "?".to_string(),
                    Feature::Numeric { values, .. } => format!("{}", values[row]),
                    Feature::Categorical { codes, .. } if codes[row] == MISSING_CODE => {
                        "?".to_string()
                    }
                    Feature::Categorical { codes, levels, .. } => {
                        levels[codes[row] as usize].clone()
                    }
                });
                expected.push(',');
            }
            expected.push_str(&d.class_names()[d.label(row) as usize]);
            expected.push('\n');
        }
        assert_eq!(write_csv(&d), expected);
        assert!(!expected.contains('"'));
    }
}
