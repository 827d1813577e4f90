//! Minimal CSV reader/writer with schema inference.
//!
//! Supports the subset of RFC 4180 the datasets need: comma separation,
//! double-quote quoting with `""` escapes, a header row, and empty fields as
//! missing values. Column kinds are inferred: a column whose every non-empty
//! field parses as `f64` is numeric, otherwise categorical (dictionary built
//! in first-appearance order so round-trips are stable).
//!
//! The reader makes two streaming passes — one to infer column kinds, one
//! to build — and feeds rows straight into segment-sealing
//! [`ColumnBuilder`]s. Peak memory is one record plus one unsealed segment
//! per column (and under a spill budget, sealed segments can already be
//! evicted mid-load), never a materialized copy of the whole file: loading
//! a million-row CSV no longer doubles the frame's footprint. Files and
//! strings run the same byte-level `RecordStream`.

use crate::{ColumnBuilder, DataFrame, FrameError, Result};
use std::fs;
use std::io::Read;
use std::path::Path;

/// Read a CSV file into a frame. `label` names the label column, if any.
/// The file is scanned twice (infer, then build) so neither pass holds more
/// than one record in memory.
pub fn read_csv(path: impl AsRef<Path>, label: Option<&str>) -> Result<DataFrame> {
    let path = path.as_ref();
    let plan = infer_pass(RecordStream::new(fs::File::open(path)?))?;
    build_pass(RecordStream::new(fs::File::open(path)?), &plan, label)
}

/// Read CSV text into a frame.
pub fn read_csv_str(text: &str, label: Option<&str>) -> Result<DataFrame> {
    let plan = infer_pass(RecordStream::new(text.as_bytes()))?;
    build_pass(RecordStream::new(text.as_bytes()), &plan, label)
}

/// Write a frame to a CSV file.
pub fn write_csv(df: &DataFrame, path: impl AsRef<Path>) -> Result<()> {
    fs::write(path, write_csv_string(df)?)?;
    Ok(())
}

/// Render a frame as CSV text.
pub fn write_csv_string(df: &DataFrame) -> Result<String> {
    let mut out = String::new();
    let header: Vec<String> = df.columns().iter().map(|c| quote_field(c.name())).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in 0..df.nrows() {
        for (c, col) in df.columns().iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            out.push_str(&quote_field(&col.display(row)?));
        }
        out.push('\n');
    }
    Ok(out)
}

fn quote_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Bytes pulled from the source per refill.
const CHUNK: usize = 64 * 1024;

/// Streaming RFC-4180-subset record parser over any byte source: quotes,
/// `""` escapes, CRLF tolerance, and line-accurate errors. Yields one record
/// at a time.
///
/// Records split on the ASCII bytes `,` `"` `\r` `\n`, which never occur
/// inside a multi-byte UTF-8 sequence, so the parser works on raw bytes and
/// UTF-8-checks each record once. Every other byte lands in a field, and the
/// byte after each removed delimiter must start a char, so a record passes
/// exactly when its slice of the input is valid UTF-8.
struct RecordStream<R: Read> {
    src: R,
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
    line: usize,
    /// The current record's unescaped field bytes, back to back.
    bytes: Vec<u8>,
    /// End offset in `bytes` of each field of the current record.
    ends: Vec<usize>,
}

/// One parsed record, borrowed from its [`RecordStream`].
struct Record<'a> {
    text: &'a str,
    ends: &'a [usize],
}

impl<'a> Record<'a> {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn fields(&self) -> impl Iterator<Item = &'a str> + '_ {
        let text = self.text;
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(self.ends).map(move |(s, &e)| text.get(s..e).unwrap_or(""))
    }
}

fn invalid_utf8(line: usize) -> FrameError {
    FrameError::Io(format!("invalid UTF-8 in CSV input on line {line}"))
}

impl<R: Read> RecordStream<R> {
    fn new(src: R) -> Self {
        RecordStream {
            src,
            buf: vec![0u8; CHUNK].into_boxed_slice(),
            pos: 0,
            end: 0,
            line: 1,
            bytes: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Pull the next chunk; false at end of input.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> Result<bool> {
        self.pos = 0;
        self.end = self.src.read(&mut self.buf)?;
        Ok(self.end > 0)
    }

    #[inline]
    fn peek(&mut self) -> Result<Option<u8>> {
        if self.pos == self.end && !self.refill()? {
            return Ok(None);
        }
        Ok(Some(self.buf[self.pos]))
    }

    fn next_record(&mut self) -> Result<Option<Record<'_>>> {
        self.bytes.clear();
        self.ends.clear();
        let mut field_start = 0;
        let mut in_quotes = false;
        // Set after a removed delimiter: the next field byte must start a char.
        let mut cut = true;
        while let Some(first) = self.peek()? {
            let chunk = &self.buf[self.pos..self.end];
            let run = if in_quotes {
                chunk.iter().position(|&b| b == b'"' || b == b'\n')
            } else {
                chunk.iter().position(|&b| matches!(b, b',' | b'"' | b'\r' | b'\n'))
            }
            .unwrap_or(chunk.len());
            if run > 0 {
                if cut && (first & 0xC0) == 0x80 {
                    return Err(invalid_utf8(self.line));
                }
                self.bytes.extend_from_slice(&chunk[..run]);
                self.pos += run;
                cut = false;
                continue;
            }
            // `first` is a delimiter.
            self.pos += 1;
            if in_quotes {
                if first == b'\n' {
                    self.line += 1;
                    self.bytes.push(b'\n');
                } else if self.peek()? == Some(b'"') {
                    self.pos += 1;
                    self.bytes.push(b'"');
                } else {
                    in_quotes = false;
                    cut = true;
                }
                continue;
            }
            match first {
                b'"' => {
                    if self.bytes.len() > field_start {
                        return Err(FrameError::MalformedCell {
                            line: self.line,
                            column: self.ends.len() + 1,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                b',' => {
                    field_start = self.bytes.len();
                    self.ends.push(field_start);
                    cut = true;
                }
                b'\r' => cut = true, // tolerate CRLF
                _ => {
                    self.ends.push(self.bytes.len());
                    self.line += 1;
                    return self.record(self.line - 1).map(Some);
                }
            }
        }
        if in_quotes {
            return Err(FrameError::Csv {
                line: self.line,
                message: "unterminated quoted field".into(),
            });
        }
        if self.bytes.len() > field_start || !self.ends.is_empty() {
            self.ends.push(self.bytes.len());
            return self.record(self.line).map(Some);
        }
        Ok(None)
    }

    /// The parsed record, once its bytes pass the UTF-8 check.
    fn record(&self, line: usize) -> Result<Record<'_>> {
        match std::str::from_utf8(&self.bytes) {
            Ok(text) => Ok(Record { text, ends: &self.ends }),
            Err(_) => Err(invalid_utf8(line)),
        }
    }
}

/// True when a raw CSV field denotes a missing value: empty (also after
/// trimming whitespace) or one of the common sentinels real datasets use.
/// Case-insensitive, so `NA`, `na`, `NULL`, `NaN` all normalize the same
/// way — a sentinel that survived inference as a categorical value would
/// blind every missing-value detector downstream.
pub fn is_missing_sentinel(field: &str) -> bool {
    let t = field.trim();
    t.is_empty()
        || ["na", "n/a", "null", "nan", "none", "?", "-", "missing"]
            .iter()
            .any(|s| t.eq_ignore_ascii_case(s))
}

/// Outcome of the first pass: header plus per-column kind decisions.
struct InferPlan {
    header: Vec<String>,
    /// Per column: true = numeric (every non-missing field parses as f64,
    /// or the column is entirely missing), false = categorical.
    numeric: Vec<bool>,
}

fn infer_pass<R: Read>(mut records: RecordStream<R>) -> Result<InferPlan> {
    let Some(header) = records.next_record()? else {
        return Err(FrameError::Empty);
    };
    let header: Vec<String> = header.fields().map(str::to_string).collect();
    let ncols = header.len();
    let mut all_numeric = vec![true; ncols];
    let mut any_value = vec![false; ncols];
    let mut nrows = 0usize;
    while let Some(record) = records.next_record()? {
        if record.len() != ncols {
            return Err(FrameError::RaggedRow {
                line: nrows + 2,
                expected: ncols,
                got: record.len(),
            });
        }
        for (c, f) in record.fields().enumerate() {
            if is_missing_sentinel(f) {
                continue;
            }
            any_value[c] = true;
            if all_numeric[c] && f.trim().parse::<f64>().is_err() {
                all_numeric[c] = false;
            }
        }
        nrows += 1;
    }
    if nrows == 0 {
        return Err(FrameError::Empty);
    }
    // An entirely missing column stays numeric & fully missing.
    let numeric = all_numeric.iter().zip(&any_value).map(|(&num, &any)| num || !any).collect();
    Ok(InferPlan { header, numeric })
}

fn build_pass<R: Read>(
    mut records: RecordStream<R>,
    plan: &InferPlan,
    label: Option<&str>,
) -> Result<DataFrame> {
    // Header already validated by the infer pass.
    records.next_record()?;
    let ncols = plan.header.len();
    let mut builders: Vec<ColumnBuilder> = plan
        .header
        .iter()
        .zip(&plan.numeric)
        .map(|(name, &numeric)| {
            if numeric {
                ColumnBuilder::numeric(name.clone(), 0)
            } else {
                ColumnBuilder::categorical_open(name.clone(), 0)
            }
        })
        .collect();
    let mut nrows = 0usize;
    while let Some(record) = records.next_record()? {
        if record.len() != ncols {
            return Err(FrameError::RaggedRow {
                line: nrows + 2,
                expected: ncols,
                got: record.len(),
            });
        }
        for (c, f) in record.fields().enumerate() {
            if plan.numeric[c] {
                let value =
                    if is_missing_sentinel(f) { None } else { f.trim().parse::<f64>().ok() };
                builders[c].push_num(value)?;
            } else if is_missing_sentinel(f) {
                builders[c].push_cat(None)?;
            } else {
                builders[c].push_label(f.trim())?;
            }
        }
        nrows += 1;
    }
    let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
    DataFrame::new(columns, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "age,job,y\n25.0,tech,no\n40.0,admin,yes\n,tech,no\n";

    #[test]
    fn reads_with_inference() {
        let df = read_csv_str(SAMPLE, Some("y")).unwrap();
        assert_eq!(df.nrows(), 3);
        assert_eq!(df.ncols(), 3);
        assert_eq!(df.column_by_name("age").unwrap().kind(), crate::ColumnKind::Numeric);
        assert_eq!(df.column_by_name("job").unwrap().kind(), crate::ColumnKind::Categorical);
        assert!(df.get(2, 0).unwrap().is_missing());
        assert_eq!(df.label_codes().unwrap(), vec![0, 1, 0]);
    }

    #[test]
    fn roundtrip_preserves_frame() {
        let df = read_csv_str(SAMPLE, Some("y")).unwrap();
        let text = write_csv_string(&df).unwrap();
        let df2 = read_csv_str(&text, Some("y")).unwrap();
        assert_eq!(df, df2);
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let text = "name,y\n\"a,b\",x\n\"say \"\"hi\"\"\",x\n";
        let df = read_csv_str(text, None).unwrap();
        let col = df.column_by_name("name").unwrap();
        assert_eq!(col.display(0).unwrap(), "a,b");
        assert_eq!(col.display(1).unwrap(), "say \"hi\"");
        // Round-trip through the writer.
        let df2 = read_csv_str(&write_csv_string(&df).unwrap(), None).unwrap();
        assert_eq!(df, df2);
    }

    #[test]
    fn crlf_tolerated() {
        let df = read_csv_str("a,y\r\n1.0,x\r\n2.0,z\r\n", None).unwrap();
        assert_eq!(df.nrows(), 2);
        assert_eq!(df.column(0).unwrap().num(1), Some(2.0));
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = read_csv_str("a,b\n1.0\n", None).unwrap_err();
        assert_eq!(err, FrameError::RaggedRow { line: 2, expected: 2, got: 1 });
        assert!(err.to_string().contains("line 2"), "diagnostic must carry the line: {err}");
    }

    #[test]
    fn unterminated_quote_rejected() {
        let err = read_csv_str("a\n\"oops\n", None).unwrap_err();
        assert!(matches!(err, FrameError::Csv { .. }));
    }

    #[test]
    fn quote_inside_unquoted_field_rejected() {
        let err = read_csv_str("a\nab\"c\n", None).unwrap_err();
        assert_eq!(
            err,
            FrameError::MalformedCell {
                line: 2,
                column: 1,
                message: "quote inside unquoted field".into(),
            }
        );
    }

    #[test]
    fn malformed_cell_reports_field_index() {
        // The bad quote sits in the third field of the second data row.
        let err = read_csv_str("a,b,c\n1,2,3\n4,5,6\"7\n", None).unwrap_err();
        assert_eq!(
            err,
            FrameError::MalformedCell {
                line: 3,
                column: 3,
                message: "quote inside unquoted field".into(),
            }
        );
    }

    #[test]
    fn header_only_is_empty() {
        assert!(read_csv_str("a,b\n", None).is_err());
        assert!(read_csv_str("", None).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let df = read_csv_str(SAMPLE, Some("y")).unwrap();
        let dir = std::env::temp_dir().join("comet_frame_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        write_csv(&df, &path).unwrap();
        let df2 = read_csv(&path, Some("y")).unwrap();
        assert_eq!(df, df2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn all_empty_column_is_numeric_missing() {
        let df = read_csv_str("a,b\n,1.0\n,2.0\n", None).unwrap();
        let a = df.column_by_name("a").unwrap();
        assert_eq!(a.kind(), crate::ColumnKind::Numeric);
        assert_eq!(a.missing_count(), 2);
    }

    #[test]
    fn no_trailing_newline() {
        let df = read_csv_str("a\n1.0\n2.0", None).unwrap();
        assert_eq!(df.nrows(), 2);
    }

    #[test]
    fn mixed_column_becomes_categorical() {
        let df = read_csv_str("a\n1.0\nx\n", None).unwrap();
        assert_eq!(df.column(0).unwrap().kind(), crate::ColumnKind::Categorical);
    }

    #[test]
    fn missing_sentinel_matrix() {
        // Every sentinel spelling must normalize to Missing, in both numeric
        // and categorical columns, with or without whitespace padding.
        let missing = [
            "", " ", "\t", "NA", "na", " NA ", "N/A", "n/a", "null", "NULL", "NaN", "nan", "None",
            "?", "-", "missing", " null\t",
        ];
        for s in missing {
            assert!(is_missing_sentinel(s), "{s:?} must be a missing sentinel");
        }
        let values = ["0", "na0", "Nat", "n\\a", "nulls", "--", "x", "7.5", "-1.0"];
        for s in values {
            assert!(!is_missing_sentinel(s), "{s:?} must not be a missing sentinel");
        }
    }

    #[test]
    fn sentinels_parse_as_missing_in_numeric_columns() {
        // The sentinels must not demote the column to categorical, and NaN
        // must arrive as Missing, never as a numeric NaN cell.
        let df = read_csv_str("a,y\n1.5,p\nNA,p\n n/a ,q\nnull,q\nNaN,p\n 2.5 ,q\n", None).unwrap();
        let a = df.column_by_name("a").unwrap();
        assert_eq!(a.kind(), crate::ColumnKind::Numeric);
        assert_eq!(a.missing_count(), 4);
        assert_eq!(a.num(0), Some(1.5));
        assert_eq!(a.num(5), Some(2.5), "whitespace-padded numerics must parse");
        for row in 1..5 {
            assert!(df.get(row, 0).unwrap().is_missing(), "row {row}");
        }
    }

    #[test]
    fn sentinels_parse_as_missing_in_categorical_columns() {
        let df = read_csv_str("job,y\ntech,p\nN/A,p\n admin ,q\nnone,q\ntech,p\n", None).unwrap();
        let job = df.column_by_name("job").unwrap();
        assert_eq!(job.kind(), crate::ColumnKind::Categorical);
        assert_eq!(job.missing_count(), 2);
        // Whitespace-padded values are trimmed into the dictionary.
        assert_eq!(job.categories(), &["tech".to_string(), "admin".to_string()]);
        assert_eq!(job.display(2).unwrap(), "admin");
    }

    #[test]
    fn sentinel_only_column_is_numeric_missing() {
        let df = read_csv_str("a,b\nNA,1.0\nnull,2.0\n ? ,3.0\n", None).unwrap();
        let a = df.column_by_name("a").unwrap();
        assert_eq!(a.kind(), crate::ColumnKind::Numeric);
        assert_eq!(a.missing_count(), 3);
    }

    #[test]
    fn multibyte_utf8_across_chunk_boundaries() {
        // The file path refills from disk; multi-byte chars must survive it.
        let mut text = String::from("name,y\n");
        for i in 0..50 {
            text.push_str(&format!("héllo—{i}·ünïcødé,x\n"));
        }
        let dir = std::env::temp_dir().join("comet_frame_csv_utf8_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("utf8.csv");
        std::fs::write(&path, &text).unwrap();
        let from_file = read_csv(&path, None).unwrap();
        let from_str = read_csv_str(&text, None).unwrap();
        assert_eq!(from_file, from_str);
        assert_eq!(from_file.column(0).unwrap().display(0).unwrap(), "héllo—0·ünïcødé");
        std::fs::remove_file(path).ok();
    }

    /// Write `bytes` to a per-test temp file and read it back.
    fn read_file_bytes(name: &str, bytes: &[u8], label: Option<&str>) -> Result<DataFrame> {
        let dir = std::env::temp_dir().join("comet_frame_csv_paths");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.csv", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let out = read_csv(&path, label);
        std::fs::remove_file(path).ok();
        out
    }

    /// A source that yields at most `step` bytes per read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn read_trickle(bytes: &[u8], step: usize) -> Result<DataFrame> {
        let plan = infer_pass(RecordStream::new(Trickle { bytes, step }))?;
        build_pass(RecordStream::new(Trickle { bytes, step }), &plan, None)
    }

    /// CSV text whose byte `CHUNK` — the first byte of the second read —
    /// is byte `split` of `row`, the last data row.
    fn straddling(row: &str, split: usize) -> String {
        let header = "name,y\n";
        let mut text = String::from(header);
        let mut fill = CHUNK - split - header.len();
        while fill > 8 {
            text.push_str("a,x\n");
            fill -= 4;
        }
        text.push_str(&"a".repeat(fill - 3));
        text.push_str(",x\n");
        assert_eq!(text.len() + split, CHUNK);
        text.push_str(row);
        text
    }

    #[test]
    fn delimiters_across_the_read_boundary() {
        // Each row carries a sequence that a chunk boundary can split; the
        // split lands on every byte of it in turn.
        let cases = [
            ("héllo—wörld,x\n", 1, "héllo—wörld"),
            ("\"say \"\"hi\"\"\",x\n", 5, "say \"hi\""),
            ("\"two\nlines\",x\n", 4, "two\nlines"),
            ("crlf,x\r\n", 5, "crlf"),
        ];
        for (row, from, want) in cases {
            for split in from..from + 3 {
                let text = straddling(row, split);
                let from_file = read_file_bytes("boundary", text.as_bytes(), None).unwrap();
                let from_str = read_csv_str(&text, None).unwrap();
                assert_eq!(from_file, from_str, "{row:?} split at {split}");
                let name = from_file.column(0).unwrap();
                assert_eq!(name.display(from_file.nrows() - 1).unwrap(), want, "{row:?}");
                assert_eq!(from_file.column(1).unwrap().categories(), &["x".to_string()]);
            }
        }
    }

    #[test]
    fn one_byte_reads_match_the_string_path() {
        let text = "name,n,y\r\n\"a,b\",1.5,x\n\"say \"\"hi\"\"\", 2 ,y\n\"two\nlines\",NA,x\n\
                    héllo—0·ü,,y\n\"\",3,x";
        let whole = read_csv_str(text, None).unwrap();
        for step in [1, 2, 3, 7] {
            assert_eq!(read_trickle(text.as_bytes(), step).unwrap(), whole, "step {step}");
        }
    }

    #[test]
    fn errors_match_between_file_and_string_paths() {
        let cases = [
            "a,b\n1.0\n",
            "a\n\"oops\n",
            "a\nab\"c\n",
            "a,b,c\n1,2,3\n4,5,6\"7\n",
            "a,b\n\"x\ny\",1\n2\n",
            "a,b\n",
            "",
        ];
        for text in cases {
            let from_str = read_csv_str(text, None).unwrap_err();
            let from_file = read_file_bytes("errors", text.as_bytes(), None).unwrap_err();
            assert_eq!(from_file, from_str, "{text:?}");
            assert_eq!(read_trickle(text.as_bytes(), 1).unwrap_err(), from_str, "{text:?}");
        }
        // A quoted newline counts towards the reported line.
        assert_eq!(
            read_csv_str("a,b\n\"x\ny\",1\n2\n", None).unwrap_err(),
            FrameError::RaggedRow { line: 3, expected: 2, got: 1 }
        );
        assert_eq!(read_csv_str("", None).unwrap_err(), FrameError::Empty);
    }

    #[test]
    fn invalid_utf8_rejected_wherever_delimiters_hide_it() {
        // Lone continuation byte; truncated char at end of input; and chars
        // split by a dropped `\r`, a closing quote, or a field separator —
        // each would be valid if the removed delimiter were ignored.
        let cases: [&[u8]; 6] = [
            b"a\n\x80\n",
            b"a\nx\xC3",
            b"a\n\xC3\r\xA9\n",
            b"a\n\"\xC3\"\xA9\n",
            b"a,b\n\xC3,\xA9\n",
            b"a\n\"\xC3\"\"\xA9\"\n",
        ];
        for bytes in cases {
            for err in [
                read_file_bytes("utf8", bytes, None).unwrap_err(),
                read_trickle(bytes, 1).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, FrameError::Io(m) if m.contains("invalid UTF-8")),
                    "{bytes:?}: {err}"
                );
            }
        }
        let ok = "a\n\"é\"\né\r\n";
        assert_eq!(read_file_bytes("utf8-ok", ok.as_bytes(), None).unwrap().nrows(), 2);
    }
}
