//! CSV reader with type inference: one pass over the text that pushes each
//! cell, a borrowed slice of the input, straight into its column builder
//! ([`super::columns`]). Nothing row-shaped is ever allocated.
//!
//! **Records.** A newline always ends a record (`\n` or `\r\n`; a quoted
//! field cannot span lines). Lines that are blank after trimming are
//! skipped; the first line left is the header, and a header cell that is
//! empty or `?` names its column `""`.
//!
//! **Fields.** Commas separate fields. A field whose *first* byte is `"` is
//! quoted up to the next `"` that is not doubled (`""` is a literal quote,
//! RFC 4180); text between the closing quote and the comma is appended. A
//! `"` anywhere else is an error. The field's value is that text trimmed,
//! quoted or not; an empty value or `?` is a missing cell, so `""`, `" "`
//! and `"?"` are missing too.
//!
//! **Types.** A column is numeric when every non-missing cell parses with
//! `str::parse::<f64>` (so `1e5`, `+3`, `inf` and `NaN` are numbers; an
//! all-missing column is numeric), otherwise categorical with levels in
//! first-appearance order of their text. The last column, or the one
//! `target` names, is the class label: always categorical, never missing.
//!
//! **Errors.** The first error in file order is reported, with its 1-based
//! line number: a header that does not tokenise, then a `target` the header
//! does not have, then the first bad data line. Within one line a quote
//! error comes before a wrong field count, which comes before a missing
//! class label. A file with no header is `empty file`; one with a header
//! and nothing else is `no data rows`.

use std::borrow::Cow;

use super::columns::{into_dataset, Cell, Column};
use crate::dataset::{Dataset, DatasetError};

/// Parses CSV text into a [`Dataset`].
///
/// `target` selects the label column by name; `None` uses the last column.
pub fn parse_csv(name: &str, text: &str, target: Option<&str>) -> Result<Dataset, DatasetError> {
    let mut records = text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty());
    let (header_no, header_line) =
        records.next().ok_or_else(|| DatasetError::Parse("empty file".into()))?;
    let header = Fields(Some(header_line))
        .map(|field| field.map(|cell| cell.map_or_else(String::new, Cow::into_owned)))
        .collect::<Result<Vec<String>, _>>()
        .map_err(|e| at(header_no, e))?;
    let target_idx = match target {
        Some(t) => header
            .iter()
            .position(|h| h == t)
            .ok_or_else(|| at(header_no, format_args!("target column '{t}' not found")))?,
        None => header.len() - 1,
    };
    let mut columns: Vec<Column> = (0..header.len())
        .map(|c| if c == target_idx { Column::categorical() } else { Column::inferred() })
        .collect();
    if push_records(records.clone(), &mut columns, target_idx)? == 0 {
        return Err(DatasetError::Parse("no data rows".into()));
    }
    if columns.iter().any(|c| matches!(c, Column::Deferred)) {
        // The second pass fills the deferred columns only: every other
        // column is stood in for by one that ignores what it is pushed.
        let mut refill: Vec<Column> = columns
            .iter()
            .map(|c| {
                if matches!(c, Column::Deferred) {
                    Column::categorical()
                } else {
                    Column::Deferred
                }
            })
            .collect();
        push_records(records, &mut refill, target_idx)?;
        for (column, refilled) in columns.iter_mut().zip(refill) {
            if matches!(column, Column::Deferred) {
                *column = refilled;
            }
        }
    }
    into_dataset(name, header, columns, target_idx)
}

fn at(line_index: usize, msg: impl std::fmt::Display) -> DatasetError {
    DatasetError::Parse(format!("line {}: {msg}", line_index + 1))
}

/// Pushes every record's cells into `columns` and returns the record
/// count; the first line that does not tokenise, has the wrong number of
/// fields or lacks its class label ends the pass with that error.
fn push_records<'a>(
    records: impl Iterator<Item = (usize, &'a str)>,
    columns: &mut [Column<'a>],
    target_idx: usize,
) -> Result<usize, DatasetError> {
    let mut n_rows = 0;
    for (line_no, line) in records {
        let mut n_fields = 0;
        let mut label_missing = false;
        for field in Fields(Some(line)) {
            let cell = field.map_err(|e| at(line_no, e))?;
            if let Some(column) = columns.get_mut(n_fields) {
                label_missing |= n_fields == target_idx && cell.is_none();
                column.push(cell);
            }
            n_fields += 1;
        }
        if n_fields != columns.len() {
            return Err(at(line_no, format_args!("{n_fields} fields, expected {}", columns.len())));
        }
        if label_missing {
            return Err(at(line_no, "missing class label"));
        }
        n_rows += 1;
    }
    Ok(n_rows)
}

/// The fields of one line, left to right; holds the text after the last
/// comma consumed, `None` once the final field is out or one failed.
struct Fields<'a>(Option<&'a str>);

impl<'a> Iterator for Fields<'a> {
    type Item = Result<Cell<'a>, &'static str>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.0.take()?;
        let bytes = rest.as_bytes();
        // The closing quote's index, and whether a `""` came before it.
        let mut quoted = None;
        let mut tail = 0;
        if bytes.first() == Some(&b'"') {
            let mut escapes = false;
            let mut i = 1;
            loop {
                match bytes[i..].iter().position(|&b| b == b'"') {
                    None => return Some(Err("unterminated quote")),
                    Some(p) if bytes.get(i + p + 1) == Some(&b'"') => {
                        escapes = true;
                        i += p + 2;
                    }
                    Some(p) => {
                        quoted = Some((i + p, escapes));
                        tail = i + p + 1;
                        break;
                    }
                }
            }
        }
        // `"` and `,` are ASCII, so every index below is a char boundary.
        let end = tail
            + bytes[tail..]
                .iter()
                .position(|&b| b == b',' || b == b'"')
                .unwrap_or(bytes.len() - tail);
        if bytes.get(end) == Some(&b'"') {
            return Some(Err("unexpected quote mid-field"));
        }
        self.0 = rest.get(end + 1..);
        let after = &rest[tail..end];
        let raw = match quoted {
            None => Cow::Borrowed(after),
            Some((close, false)) if after.trim().is_empty() => Cow::Borrowed(&rest[1..close]),
            Some((close, _)) => Cow::Owned(rest[1..close].replace("\"\"", "\"") + after),
        };
        Some(Ok(trimmed(raw)))
    }
}

/// A field's text as a cell: trimmed, and missing when empty or `?`.
fn trimmed(raw: Cow<'_, str>) -> Cell<'_> {
    let text = match raw {
        Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
        Cow::Owned(s) => Cow::Owned(s.trim().to_string()),
    };
    (!text.is_empty() && text != "?").then_some(text)
}

/// The row-major reader this module replaced, kept as the reference the
/// differential tests compare against: every cell an owned `String`, rows
/// collected first, columns inferred after. Its error *messages* number
/// rows wrongly once a blank line was skipped; only `is_err()` is compared.
#[cfg(test)]
mod oracle {
    use crate::dataset::{Dataset, DatasetError, Feature, MISSING_CODE};

    pub(super) fn parse_csv(
        name: &str,
        text: &str,
        target: Option<&str>,
    ) -> Result<Dataset, DatasetError> {
        let mut rows: Vec<Vec<Option<String>>> = Vec::new();
        let mut header: Option<Vec<String>> = None;
        for (line_no, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields = split_csv_line(line)
                .map_err(|e| DatasetError::Parse(format!("line {}: {e}", line_no + 1)))?;
            if header.is_none() {
                header = Some(fields.into_iter().map(|f| f.unwrap_or_default()).collect());
                continue;
            }
            rows.push(fields);
        }
        let header = header.ok_or_else(|| DatasetError::Parse("empty file".into()))?;
        if rows.is_empty() {
            return Err(DatasetError::Parse("no data rows".into()));
        }
        let n_cols = header.len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(DatasetError::Parse(format!(
                    "row {} has {} fields, expected {n_cols}",
                    i + 2,
                    row.len()
                )));
            }
        }
        let target_idx = match target {
            Some(t) => header
                .iter()
                .position(|h| h == t)
                .ok_or_else(|| DatasetError::Parse(format!("target column '{t}' not found")))?,
            None => n_cols - 1,
        };
        columns_to_dataset(name, &header, &rows, target_idx)
    }

    /// Splits one CSV line honouring quotes. `?` and empty fields become `None`.
    fn split_csv_line(line: &str) -> Result<Vec<Option<String>>, String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        loop {
            match chars.next() {
                Some('"') if in_quotes => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                Some('"') if cur.is_empty() => in_quotes = true,
                Some('"') => return Err("unexpected quote mid-field".into()),
                Some(',') if !in_quotes => {
                    fields.push(finish_field(std::mem::take(&mut cur)));
                }
                Some(c) => cur.push(c),
                None => {
                    if in_quotes {
                        return Err("unterminated quote".into());
                    }
                    fields.push(finish_field(cur));
                    return Ok(fields);
                }
            }
        }
    }

    fn finish_field(s: String) -> Option<String> {
        let t = s.trim();
        if t.is_empty() || t == "?" {
            None
        } else {
            Some(t.to_string())
        }
    }

    fn columns_to_dataset(
        name: &str,
        header: &[String],
        rows: &[Vec<Option<String>>],
        target_idx: usize,
    ) -> Result<Dataset, DatasetError> {
        let n_cols = header.len();
        let mut features = Vec::with_capacity(n_cols - 1);
        for c in 0..n_cols {
            if c == target_idx {
                continue;
            }
            features.push(infer_column(&header[c], rows, c));
        }
        // Label column: categorical code table over first-appearance order.
        let mut class_names: Vec<String> = Vec::new();
        let mut labels = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let cell = row[target_idx].as_deref().ok_or_else(|| {
                DatasetError::Parse(format!("row {}: missing class label", i + 1))
            })?;
            let code = match class_names.iter().position(|c| c == cell) {
                Some(p) => p as u32,
                None => {
                    class_names.push(cell.to_string());
                    (class_names.len() - 1) as u32
                }
            };
            labels.push(code);
        }
        Dataset::new(name, features, labels, class_names)
    }

    fn infer_column(name: &str, rows: &[Vec<Option<String>>], col: usize) -> Feature {
        let all_numeric =
            rows.iter().filter_map(|r| r[col].as_deref()).all(|v| v.parse::<f64>().is_ok());
        if all_numeric {
            let values = rows
                .iter()
                .map(|r| r[col].as_deref().map_or(f64::NAN, |v| v.parse().unwrap()))
                .collect();
            Feature::Numeric { name: name.to_string(), values }
        } else {
            let mut levels: Vec<String> = Vec::new();
            let codes = rows
                .iter()
                .map(|r| match r[col].as_deref() {
                    None => MISSING_CODE,
                    Some(v) => match levels.iter().position(|l| l == v) {
                        Some(p) => p as u32,
                        None => {
                            levels.push(v.to_string());
                            (levels.len() - 1) as u32
                        }
                    },
                })
                .collect();
            Feature::Categorical { name: name.to_string(), codes, levels }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Feature;
    use proptest::prelude::*;

    const SAMPLE: &str = "\
sepal,petal,color,species
5.1,1.4,red,setosa
4.9,?,blue,setosa
6.2,4.5,red,virginica
";

    #[test]
    fn parses_types_and_missing() {
        let d = parse_csv("iris", SAMPLE, None).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.n_classes(), 2);
        assert!(d.feature(0).is_numeric());
        assert!(d.feature(1).is_numeric());
        assert!(!d.feature(2).is_numeric());
        assert_eq!(d.missing_cells(), 1);
        assert_eq!(d.class_names(), &["setosa".to_string(), "virginica".to_string()]);
        assert_eq!(d.labels(), &[0, 0, 1]);
    }

    #[test]
    fn explicit_target_column() {
        let d = parse_csv("iris", SAMPLE, Some("color")).unwrap();
        assert_eq!(d.n_classes(), 2); // red, blue
        assert_eq!(d.n_features(), 3); // sepal, petal, species
        assert_eq!(d.labels(), &[0, 1, 0]);
    }

    #[test]
    fn missing_target_column_errors() {
        assert!(parse_csv("x", SAMPLE, Some("nope")).is_err());
    }

    #[test]
    fn quoted_fields_with_commas() {
        let text = "a,b\n\"hello, world\",1\n\"say \"\"hi\"\"\",0\n";
        let d = parse_csv("q", text, None).unwrap();
        match d.feature(0) {
            Feature::Categorical { levels, .. } => {
                assert_eq!(levels[0], "hello, world");
                assert_eq!(levels[1], "say \"hi\"");
            }
            _ => panic!("expected categorical"),
        }
    }

    #[test]
    fn ragged_rows_rejected() {
        let text = "a,b,y\n1,2,0\n1,0\n";
        assert!(matches!(parse_csv("r", text, None), Err(DatasetError::Parse(_))));
    }

    #[test]
    fn empty_file_rejected() {
        assert!(parse_csv("e", "", None).is_err());
        assert!(parse_csv("e", "a,b\n", None).is_err());
    }

    #[test]
    fn missing_label_rejected() {
        let text = "a,y\n1,0\n2,?\n";
        assert!(parse_csv("m", text, None).is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        let text = "a,y\n\"oops,0\n";
        assert!(parse_csv("u", text, None).is_err());
    }

    fn message(text: &str, target: Option<&str>) -> String {
        match parse_csv("e", text, target) {
            Err(DatasetError::Parse(msg)) => msg,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_the_real_line_number() {
        // Line 3 is blank: the ragged row is on line 4, the missing label on 5.
        assert_eq!(message("a,b,y\n1,2,0\n\n1,0\n", None), "line 4: 2 fields, expected 3");
        assert_eq!(message("a,y\r\n1,0\r\n\r\n\r\n2,?\r\n", None), "line 5: missing class label");
        assert_eq!(message("\n\na,y\n\"oops,0\n", None), "line 4: unterminated quote");
        assert_eq!(message("a,y\n1,0\n2,1\n3,x\"\n", None), "line 4: unexpected quote mid-field");
    }

    #[test]
    fn first_error_in_file_order_wins() {
        // A quote error far down no longer masks the ragged row above it.
        let mut text = String::from("a,b,y\n1,2,0\n1,0\n");
        for _ in 0..900 {
            text.push_str("1,2,0\n");
        }
        text.push_str("\"oops,2,0\n");
        assert_eq!(message(&text, None), "line 3: 2 fields, expected 3");
        assert_eq!(message("a,y\n1,?\n1\n", None), "line 2: missing class label");
        // The header comes first: its quotes, then the target's name.
        assert_eq!(message("a,\"y\n1,?\n", None), "line 1: unterminated quote");
        assert_eq!(message("\na,y\n1\n", Some("z")), "line 2: target column 'z' not found");
        assert_eq!(message("a,y\n", Some("z")), "line 1: target column 'z' not found");
    }

    #[test]
    fn within_a_line_quotes_then_field_count_then_label() {
        assert_eq!(message("a,y\n1,?,\"x\n", None), "line 2: unterminated quote");
        assert_eq!(message("a,y\n1,?,x\n", None), "line 2: 3 fields, expected 2");
        assert_eq!(message("y,a\n?\n", Some("y")), "line 2: 1 fields, expected 2");
        assert_eq!(message("", None), "empty file");
        assert_eq!(message(" \n\r\n", None), "empty file");
        assert_eq!(message("a,y\n\n", None), "no data rows");
    }

    /// Both readers on one text: `Ok` datasets equal field by field
    /// (numerics by bit pattern), and errors agree on being errors.
    fn assert_agree(text: &str, target: Option<&str>) {
        let (new, old) = (parse_csv("d", text, target), oracle::parse_csv("d", text, target));
        let (new, old) = match (&new, &old) {
            (Ok(new), Ok(old)) => (new, old),
            (Err(_), Err(_)) => return,
            _ => panic!("new {new:?}\nold {old:?}\nfor {text:?}"),
        };
        assert_eq!(new.name, old.name);
        assert_eq!(new.n_features(), old.n_features(), "{text:?}");
        for (a, b) in new.features().iter().zip(old.features()) {
            match (a, b) {
                (
                    Feature::Numeric { name: na, values: va },
                    Feature::Numeric { name: nb, values: vb },
                ) => {
                    assert_eq!(na, nb);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                    assert_eq!(bits(va), bits(vb), "{text:?}");
                }
                (Feature::Categorical { .. }, Feature::Categorical { .. }) => {
                    assert_eq!(a, b, "{text:?}");
                }
                _ => panic!("new {a:?}\nold {b:?}\nfor {text:?}"),
            }
        }
        assert_eq!(new.labels(), old.labels(), "{text:?}");
        assert_eq!(new.class_names(), old.class_names(), "{text:?}");
    }

    #[test]
    fn agrees_with_the_oracle_on_hand_picked_text() {
        for text in [
            "a,b\n\"hello, world\",1\n\"say \"\"hi\"\"\",0\n",
            "a,y\n\"x\"tail,0\n\"x\"  ,1\n\" x \",0\n\"\"\"\",1\n",
            "a,y\n\"?\",0\n\" \",1\n\"\",0\n?,1\n ? ,0\n,1\n",
            "a,b,y\r\n1,inf,p\r\n+3,NaN,q\r\n1e5,-inf,p\r\n.5,nan,q",
            "a,b,y\n1.0,1,p\n1.00,2,q\n1.0,3,p\nx,4,q\n",
            "a,y\n?,p\n?,q\n\n\nlate,p\n",
            "a,y\n?,p\n,q\n",
            "städte,y\nKöln,ja\n 東京 ,nein\n\"Köln\",ja\n",
            "y,a\np,1\nq,2\n",
            "a\np\nq\n",
            "?,\"y\"\n1,p\n",
            "a,y\n1,p\r\n2,q\r",
            "a,y\n1 2,p\n3,q\n",
            "a,y\n \"x\",p\n",
            "a,y\nx\"\"y,p\n",
            "a,y\n\"x\"\"\n",
            "a,y\n1,p,\n",
        ] {
            assert_agree(text, None);
            for target in ["a", "y", ""] {
                assert_agree(text, Some(target));
            }
        }
    }

    /// What one cell may be spelt as; the column's kind picks among them.
    fn spellings() -> impl Strategy<Value = (String, String, String, String, u8)> {
        (
            "(-?[0-9]{1,3}(\\.[0-9]{1,2})?|inf|-inf|NaN|nan|1e5|\\+3|\\.5|1\\.0|1\\.00) {0,1}",
            " {0,2}(a|b|ab|é|日本|a b|1x) {0,2}",
            "(|\\?| |  \\?|\"\"|\"\\?\"|\" \")",
            "\"[ab ,]{0,3}(\"\")?[ab?]{0,2}\"[ ab]{0,2}",
            any::<u8>(),
        )
    }

    proptest! {
        // Default config, so `PROPTEST_CASES` scales both (scripts/verify.sh).

        /// No structure at all: mostly errors, and the two must agree on
        /// which texts are errors.
        #[test]
        fn agrees_with_the_oracle_on_delimiter_soup(text in "[ab1.\",,\n\n\r ?é日]{0,60}") {
            assert_agree(&text, None);
            assert_agree(&text, Some("a"));
        }

        #[test]
        fn agrees_with_the_oracle_on_generated_text(
            grid in prop::collection::vec(prop::collection::vec(spellings(), 4), 0..9),
            kinds in prop::collection::vec(0u8..6, 1..5),
            broken in "(a\"b|\"ab|\"a\"\"| \"a\"|\"a\"\"b\"|\"a\"\"\"\"b\")",
            mut dice in any::<u64>(),
        ) {
            // A few independent small draws out of one u64.
            let mut roll = |sides: usize| {
                let r = dice % sides as u64;
                dice /= sides as u64;
                r as usize
            };
            let n_cols = kinds.len();
            let mut lines: Vec<String> = Vec::new();
            lines.push(
                (0..n_cols)
                    .map(|c| ["h0", "\"h,1\"", " h2 ", "h0"][c].to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            );
            // The label column is the last one, a named one, or (rarely) absent.
            let names = ["h0", "h,1", "h2"];
            let (target, label_col) = match roll(16) {
                0 => (Some("nope"), n_cols),
                pick if pick <= n_cols.min(3) => (Some(names[pick - 1]), pick - 1),
                _ => (None, n_cols - 1),
            };
            for (r, row) in grid.iter().enumerate() {
                let last = r + 1 == grid.len();
                let cells: Vec<&str> = row[..n_cols]
                    .iter()
                    .zip(&kinds)
                    .enumerate()
                    .map(|(c, ((number, level, missing, quoted, pick), kind))| match (kind, pick % 8)
                    {
                        // Labels are rarely missing, and text or numbers.
                        _ if c == label_col => match pick % 32 {
                            0 => missing,
                            p if p % 2 == 0 => level,
                            _ => number,
                        },
                        (0..=3, 0) => missing,
                        (0, _) => number,
                        (1, _) => level,
                        (2, _) => missing,
                        // Categorical only on its last row.
                        (3, _) => if last { level } else { number },
                        (4, _) => quoted,
                        (_, 1) => number,
                        (_, 2) => level,
                        (_, 3) => quoted,
                        _ => missing,
                    })
                    .map(String::as_str)
                    .collect();
                lines.push(cells.join(","));
            }
            // Rarely: a quote where none may be, a ragged row, a blank line.
            if roll(16) == 0 {
                let at = roll(lines.len());
                lines[at] = format!("{broken},{}", lines[at]);
            }
            if roll(16) == 0 {
                let at = roll(lines.len());
                lines[at].push_str([",", ",x"][roll(2)]);
            }
            if roll(3) == 0 {
                lines.insert(roll(lines.len() + 1), ["", "  ", "\t"][roll(3)].to_string());
            }
            let ending = ["\n", "\r\n"][roll(2)];
            let mut text = lines.join(ending);
            if roll(2) == 0 {
                text.push_str(ending);
            }
            assert_agree(&text, target);
        }
    }
}
