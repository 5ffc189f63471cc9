//! Parser hardening: the CSV and ARFF readers must never panic — any input,
//! however mangled, yields `Ok(dataset)` or a structured parse error.

use proptest::prelude::*;
use smartml_data::io::{parse_arff, parse_csv};

// The default configuration: 256 cases, or `PROPTEST_CASES` of them
// (`scripts/verify.sh` runs 2048 in release).
proptest! {
    #[test]
    fn csv_never_panics_on_arbitrary_text(text in ".{0,400}") {
        let _ = parse_csv("fuzz", &text, None);
    }

    #[test]
    fn arff_never_panics_on_arbitrary_text(text in ".{0,400}") {
        let _ = parse_arff("fuzz", &text);
    }

    #[test]
    fn csv_never_panics_on_csvish_text(
        header in "[a-z]{1,5}(,[a-z]{1,5}){0,4}",
        body in "([0-9a-z?.,\\-]{0,30}\n){0,10}",
    ) {
        let text = format!("{header}\n{body}");
        let _ = parse_csv("fuzz", &text, None);
    }

    #[test]
    fn arff_never_panics_on_arffish_text(
        attrs in "(@attribute [a-z]{1,4} (numeric|\\{a,b\\})\n){1,5}",
        body in "([0-9ab?.,\\-]{0,20}\n){0,8}",
    ) {
        let text = format!("@relation fuzz\n{attrs}@data\n{body}");
        let _ = parse_arff("fuzz", &text);
    }

    /// Well-formed numeric CSV always parses with the right shape.
    #[test]
    fn wellformed_csv_roundtrip(
        rows in prop::collection::vec(
            (any::<i16>(), any::<i16>(), 0u8..3),
            2..30,
        ),
    ) {
        // Need at least one complete label set; build text.
        let mut text = String::from("a,b,y\n");
        for (a, b, y) in &rows {
            text.push_str(&format!("{a},{b},c{y}\n"));
        }
        let d = parse_csv("ok", &text, None).expect("well-formed CSV parses");
        prop_assert_eq!(d.n_rows(), rows.len());
        prop_assert_eq!(d.n_features(), 2);
        prop_assert!(d.n_classes() <= 3);
        prop_assert!(d.feature(0).is_numeric());
    }
}
