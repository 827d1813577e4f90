//! The CSV reader's invariance contract: spellings that carry no meaning
//! must not change the frame a CSV reads into.
//!
//! Each case starts from a REIN dirty/clean pair (comet-datasets generators
//! polluted through comet-jenga's injectors) written with
//! `write_csv_string`. The reference is `read_csv_str` on that text. The
//! same cells are then re-rendered under one metamorphic rewrite — CRLF
//! line endings, every field quoted, padded whitespace, alternative
//! missing-value sentinels, another spelling of the same number — and read
//! both from a file (`read_csv`) and from the string (`read_csv_str`).
//! Every read must equal the reference frame, dictionaries included.
//!
//! Categorical dictionary order is not rewritten here: reading the rows in
//! another order builds the dictionary in another order, which is a known
//! open item (ROADMAP, paired-CSV dictionaries).

use comet::datasets::Dataset;
use comet::frame::{read_csv, read_csv_str, write_csv_string, ColumnKind, DataFrame};
use comet::jenga::ErrorType;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const ROWS: usize = 150;

/// One field as a spelling sees it: its rendered text, whether its column
/// is numeric, and its row (to vary spellings down a column).
struct Field<'a> {
    text: &'a str,
    numeric: bool,
    row: usize,
}

/// Re-spells one field's text, before quoting.
type Spelling = fn(&Field) -> String;

/// One metamorphic rewrite of a whole file.
struct Rewrite {
    name: &'static str,
    spell: Spelling,
    quote_all: bool,
    eol: &'static str,
}

fn same(f: &Field) -> String {
    f.text.to_string()
}

fn padded(f: &Field) -> String {
    format!(" {}\t", f.text)
}

fn sentinels(f: &Field) -> String {
    const SPELLINGS: [&str; 8] = ["NA", "null", "?", "N/A", "nan", "None", "-", "missing"];
    if f.text.is_empty() {
        SPELLINGS[f.row % SPELLINGS.len()].to_string()
    } else {
        f.text.to_string()
    }
}

/// `-2.994` → `-2.9940`: the same decimal, so the same `f64`.
fn trailing_zero(f: &Field) -> String {
    if f.numeric && f.text.contains('.') && !f.text.contains(['e', 'E']) {
        format!("{}0", f.text)
    } else {
        f.text.to_string()
    }
}

fn all_spellings(f: &Field) -> String {
    let spelled = sentinels(f);
    let number = trailing_zero(&Field { text: &spelled, ..*f });
    padded(&Field { text: &number, ..*f })
}

const REWRITES: [Rewrite; 7] = [
    Rewrite { name: "plain", spell: same, quote_all: false, eol: "\n" },
    Rewrite { name: "crlf", spell: same, quote_all: false, eol: "\r\n" },
    Rewrite { name: "quote-all", spell: same, quote_all: true, eol: "\n" },
    Rewrite { name: "padded", spell: padded, quote_all: false, eol: "\n" },
    Rewrite { name: "sentinels", spell: sentinels, quote_all: false, eol: "\n" },
    Rewrite { name: "trailing-zero", spell: trailing_zero, quote_all: false, eol: "\n" },
    Rewrite { name: "all-at-once", spell: all_spellings, quote_all: true, eol: "\r\n" },
];

/// The writer's quoting: only fields that need it, unless `all`.
fn quote(s: &str, all: bool) -> String {
    if all || s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render `df` cell by cell. Header names are only quoted: the reader
/// neither trims them nor checks them for sentinels.
fn render(df: &DataFrame, rewrite: &Rewrite) -> String {
    let cols = df.columns();
    let header: Vec<String> = cols.iter().map(|c| quote(c.name(), rewrite.quote_all)).collect();
    let mut out = header.join(",") + rewrite.eol;
    for row in 0..df.nrows() {
        let fields: Vec<String> = cols
            .iter()
            .map(|c| {
                let text = c.display(row).unwrap();
                let numeric = c.kind() == ColumnKind::Numeric;
                quote(&(rewrite.spell)(&Field { text: &text, numeric, row }), rewrite.quote_all)
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push_str(rewrite.eol);
    }
    out
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet-csv-reader-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Every frame of every dataset's REIN pair, as written by the writer.
fn pairs() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for (i, dataset) in Dataset::ALL.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xC5F + i as u64);
        let pair = dataset.generate_rein_pair(Some(ROWS), &ErrorType::EXTENDED, &mut rng);
        let label = pair.clean.label().unwrap().name().to_string();
        for (side, frame) in [("dirty", &pair.dirty), ("clean", &pair.clean)] {
            let name = format!("{}-{side}", dataset.spec().name);
            out.push((name, label.clone(), write_csv_string(frame).unwrap()));
        }
    }
    out
}

#[test]
fn metamorphic_rewrites_read_to_the_same_frame() {
    let mut changed = [false; REWRITES.len()];
    for (name, label, text) in pairs() {
        let reference = read_csv_str(&text, Some(&label)).unwrap();
        assert_eq!(reference.nrows(), ROWS, "{name}");
        // The harness renders exactly what the writer writes.
        assert_eq!(render(&reference, &REWRITES[0]), text, "{name}");
        for (i, rewrite) in REWRITES.iter().enumerate() {
            let case = format!("{name} / {}", rewrite.name);
            let rewritten = render(&reference, rewrite);
            changed[i] |= rewritten != text;
            let from_str = read_csv_str(&rewritten, Some(&label)).unwrap();
            assert_eq!(from_str, reference, "{case}: read_csv_str");
            let path = temp_file(&format!("{name}-{}.csv", rewrite.name));
            std::fs::write(&path, &rewritten).unwrap();
            let from_file = read_csv(&path, Some(&label)).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(from_file, reference, "{case}: read_csv");
        }
    }
    for (rewrite, changed) in REWRITES.iter().zip(changed).skip(1) {
        assert!(changed, "{}: the rewrite never changed the text", rewrite.name);
    }
}
