//! aodb-schemacheck — persisted-layout fingerprinting.
//!
//! Recovery only works if persisted bytes decode after any code change.
//! Two kinds of layout carry that obligation in this workspace:
//!
//! * **`Persisted<T>` state types** — serde-encoded actor state blobs.
//!   Their layout is the ordered field list: names, types, and container
//!   canonicality. Reordering fields, changing a type, or swapping an
//!   ordered container for an unordered one changes the stored bytes.
//! * **Binary on-disk formats** — byte layouts identified by a magic
//!   constant (`TSB1` sealed blocks, `TST1` tail records, `TSW1` WAL
//!   deltas). Their layout is declared next to the encoder as an
//!   `aodb-schema: layout(..)` marker line, which this pass fingerprints
//!   together with the magic bytes.
//!
//! Every layout gets a stable FNV-1a fingerprint checked against the
//! committed `schema.lock` ([`crate::schemalock`]). Rule `schema-drift`
//! fires when a layout changes (or appears/disappears) without a
//! lockfile regeneration; rule `schema-unversioned` fires for a binary
//! format whose magic has no version-dispatch path — without one, a
//! future layout bump can only fail as CRC corruption instead of a
//! typed unsupported-version error.
//!
//! Soundness limits (same envelope as the other passes, DESIGN.md §14):
//! no macro expansion and no type resolution, so a `Persisted<T>` whose
//! `T` has no struct/enum definition in the corpus (generic parameters,
//! cross-crate externals) is skipped, and a binary format is only as
//! covered as its layout marker is honest. The marker sits directly
//! above the encoder it describes, which keeps the lie short-lived in
//! review.

use std::collections::HashMap;
use std::path::PathBuf;

use std::ops::Range;

use crate::dataflow::{first_generic_arg, FileModel};
use crate::lexer::{is_method_call, skip_group, TokKind};
use crate::lint::{Finding, Rule};
use crate::schemalock::{fnv1a, EntryKind, LockEntry, SchemaLock};
use crate::sendsites::Corpus;
use crate::taxonomy::UNORDERED_TYPES;

/// One extracted layout with its fingerprint and source location.
#[derive(Clone, Debug)]
pub struct SchemaEntry {
    /// Layout kind.
    pub kind: EntryKind,
    /// Layout name (type name, or the magic string for formats).
    pub name: String,
    /// FNV-1a fingerprint over the description lines.
    pub fingerprint: u64,
    /// Defining file.
    pub file: PathBuf,
    /// 1-based line of the definition.
    pub line: u32,
    /// Human-readable fingerprint input (one line per field / facet).
    pub desc: Vec<String>,
    /// For formats: whether the file has a version-dispatch path.
    pub versioned: bool,
}

/// Collects the last path segment of every `Persisted<T>` type argument
/// in the corpus (both field types and `Persisted::<T>` turbofish).
pub(crate) fn persisted_type_args(corpus: &Corpus) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for file in &corpus.files {
        let toks = &file.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if !toks[i].is_ident("Persisted") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if j + 1 < toks.len() && toks[j].is_punct(':') && toks[j + 1].is_punct(':') {
                j += 2;
            }
            if j >= toks.len() || !toks[j].is_punct('<') {
                i += 1;
                continue;
            }
            let (found, stop) = first_generic_arg(toks, j, toks.len());
            if let Some(name) = found {
                if !out.contains(&name) {
                    out.push(name);
                }
            }
            i = stop.max(i + 1);
        }
    }
    out
}

/// The field-layout description of one type definition.
struct Layout {
    file: usize,
    line: u32,
    desc: Vec<String>,
}

/// Describes the layout of every `struct`/`enum` of one file whose name
/// is wanted (the file's [`FileModel::types`] already carry the body
/// split into fields).
fn collect_layouts(
    corpus: &Corpus,
    file_idx: usize,
    wanted: &[String],
    out: &mut HashMap<String, Vec<Layout>>,
) {
    let model = &corpus.files[file_idx];
    for def in model.types.iter().filter(|d| wanted.contains(&d.name)) {
        let desc = def
            .fields
            .iter()
            .enumerate()
            .filter_map(|(n, seg)| describe_segment(model, seg.clone(), def.is_enum, def.tuple, n))
            .collect();
        out.entry(def.name.clone()).or_default().push(Layout {
            file: file_idx,
            line: def.line,
            desc,
        });
    }
}

/// Renders one field (or enum-variant) segment as a fingerprint line:
/// `name: type tokens` with an `[unordered]` tag when the type uses a
/// non-canonical container. Attributes and visibility are stripped —
/// they don't change the stored bytes (serde attributes that *do*, like
/// a rename, live in the field name/type the lint can't see; the
/// lockfile catches the common structural drift, not every serde
/// subtlety).
fn describe_segment(
    model: &FileModel,
    seg: Range<usize>,
    is_enum: bool,
    tuple: bool,
    ordinal: usize,
) -> Option<String> {
    let toks = &model.toks;
    // Strip `#[...]` attributes and visibility qualifiers.
    let mut idxs: Vec<usize> = Vec::new();
    let mut p = seg.start;
    while p < seg.end {
        if toks[p].is_punct('#') {
            p = skip_group(toks, p + 1, seg.end, '[', ']');
        } else if toks[p].is_ident("pub") {
            p += 1;
            if p < seg.end && toks[p].is_punct('(') {
                p = skip_group(toks, p, seg.end, '(', ')');
            }
        } else {
            idxs.push(p);
            p += 1;
        }
    }
    if idxs.is_empty() {
        return None;
    }
    let text = |range: &[usize]| {
        range
            .iter()
            .map(|&j| toks[j].text.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let unordered = idxs
        .iter()
        .any(|&j| UNORDERED_TYPES.iter().any(|u| toks[j].is_ident(u)));
    let tag = if unordered { " [unordered]" } else { "" };
    if is_enum {
        // Whole variant, tokens joined: `Name`, `Name ( u32 )`, ...
        return Some(format!("{}{}", text(&idxs), tag));
    }
    if tuple {
        return Some(format!("{ordinal}: {}{}", text(&idxs), tag));
    }
    // `name : type...`
    let colon = idxs
        .iter()
        .position(|&j| toks[j].is_punct(':'))
        .unwrap_or(idxs.len());
    let name = text(&idxs[..colon]);
    let ty = text(idxs.get(colon + 1..).unwrap_or(&[]));
    Some(format!("{name}: {ty}{tag}"))
}

/// Extracts binary-format entries: every `const *MAGIC* = b"XXXX"` plus
/// its `aodb-schema: layout(XXXX) = ...` marker lines and whether the
/// file dispatches on unsupported versions.
fn collect_format_entries(corpus: &Corpus, out: &mut Vec<SchemaEntry>) {
    for file in &corpus.files {
        let toks = &file.toks;
        // A file dispatches on the version when it names the typed error,
        // or hands a magic constant to the store's one version gate
        // (`codec::Reader::magic`), which returns that error.
        let has_dispatch = toks.iter().enumerate().any(|(j, t)| {
            t.is_ident("UnsupportedVersion")
                || (t.is_ident("magic")
                    && is_method_call(toks, j)
                    && toks.get(j + 2).is_some_and(|a| a.text.contains("MAGIC")))
        });
        // Layout markers from the raw lines (they live in comments).
        let mut layouts: Vec<(String, String)> = Vec::new();
        for raw in &file.lines {
            let Some(at) = raw.find("aodb-schema: layout(") else {
                continue;
            };
            let rest = &raw[at + "aodb-schema: layout(".len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            let name = rest[..close].trim().to_string();
            let Some(eq) = rest[close..].find('=') else {
                continue;
            };
            let spec = rest[close + eq + 1..].trim().to_string();
            layouts.push((name, spec));
        }
        let mut i = 0usize;
        while i + 1 < toks.len() {
            if !(toks[i].is_ident("const")
                && toks[i + 1].kind == TokKind::Ident
                && toks[i + 1].text.contains("MAGIC"))
            {
                i += 1;
                continue;
            }
            let const_name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            // The initializer's byte-string literal, before the
            // statement-ending `;` (the `;` inside `&[u8; 4]` is at
            // bracket depth 1 and doesn't end the const).
            let mut magic: Option<String> = None;
            let mut j = i + 2;
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if depth == 0 && t.is_punct(';') {
                    break;
                }
                if t.is_punct('[') || t.is_punct('(') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('}') {
                    depth -= 1;
                }
                if t.kind == TokKind::Str {
                    magic = Some(t.text.clone());
                }
                j += 1;
            }
            i = j;
            let Some(magic) = magic else { continue };
            if magic.len() != 4 {
                continue; // the workspace convention: 4-byte magics
            }
            let mut desc = vec![format!("magic: {magic}"), format!("const: {const_name}")];
            for (name, spec) in &layouts {
                if *name == magic {
                    desc.push(format!("layout: {spec}"));
                }
            }
            let fingerprint = fnv1a(desc.join("\n").as_bytes());
            let versioned = has_dispatch && magic.ends_with(|c: char| c.is_ascii_digit());
            out.push(SchemaEntry {
                kind: EntryKind::Format,
                name: magic,
                fingerprint,
                file: file.path.clone(),
                line,
                desc,
                versioned,
            });
        }
    }
}

/// Extracts every layout in the corpus: one entry per `Persisted<T>`
/// state type with a resolvable definition, one per binary-format magic.
/// When two files define distinct layouts under the same type name, the
/// entries are disambiguated as `filestem::Name`.
pub fn extract_entries(corpus: &Corpus) -> Vec<SchemaEntry> {
    // Single-letter names are generic parameters by workspace
    // convention (`Persisted<S>` in the runtime's own definition, doc
    // examples) — a same-named concrete struct elsewhere in the corpus
    // is a coincidence, not a persisted layout.
    let persisted: Vec<String> = persisted_type_args(corpus)
        .into_iter()
        .filter(|n| n.chars().count() > 1)
        .collect();
    let mut defs: HashMap<String, Vec<Layout>> = HashMap::new();
    for fi in 0..corpus.files.len() {
        collect_layouts(corpus, fi, &persisted, &mut defs);
    }
    let mut out = Vec::new();
    let mut names: Vec<&String> = defs.keys().collect();
    names.sort();
    for name in names {
        let typedefs = &defs[name];
        // Identical re-definitions (cfg variants) collapse; genuinely
        // different layouts under one name get file-qualified entries.
        let mut distinct: Vec<&Layout> = Vec::new();
        for d in typedefs {
            if !distinct.iter().any(|e| e.desc == d.desc) {
                distinct.push(d);
            }
        }
        for d in &distinct {
            let file = &corpus.files[d.file];
            let entry_name = if distinct.len() > 1 {
                let stem = file
                    .path
                    .file_stem()
                    .map(|s| s.to_string_lossy().to_string())
                    .unwrap_or_default();
                format!("{stem}::{name}")
            } else {
                name.clone()
            };
            out.push(SchemaEntry {
                kind: EntryKind::Persisted,
                name: entry_name,
                fingerprint: fnv1a(d.desc.join("\n").as_bytes()),
                file: file.path.clone(),
                line: d.line,
                desc: d.desc.clone(),
                versioned: true, // serde blobs version through the state type
            });
        }
    }
    collect_format_entries(corpus, &mut out);
    out.sort_by(|a, b| (a.kind, &a.name).cmp(&(b.kind, &b.name)));
    out
}

/// Renders the extracted layouts as a fresh [`SchemaLock`].
pub fn compute_lock(corpus: &Corpus) -> SchemaLock {
    SchemaLock {
        entries: extract_entries(corpus)
            .into_iter()
            .map(|e| LockEntry {
                kind: e.kind,
                name: e.name,
                fingerprint: e.fingerprint,
                file: e
                    .file
                    .file_name()
                    .map(|s| s.to_string_lossy().to_string())
                    .unwrap_or_default(),
                defined_at: 0,
            })
            .collect(),
        path: PathBuf::new(),
    }
}

/// Runs the schemacheck rules over a corpus. With a lock, every layout
/// is diffed against it (`schema-drift` on mismatch, missing entry, or
/// stale entry); without one only `schema-unversioned` runs — the
/// lockfile is the opt-in for drift checking.
pub fn schema_findings(corpus: &Corpus, lock: Option<&SchemaLock>) -> Vec<Finding> {
    let entries = extract_entries(corpus);
    let mut findings = Vec::new();

    for e in &entries {
        let model = corpus
            .files
            .iter()
            .find(|f| f.path == e.file)
            .expect("entry file is in corpus");
        if e.kind == EntryKind::Format
            && !e.versioned
            && !model.allowed(e.line, Rule::SchemaUnversioned)
        {
            findings.push(model.finding(
                Rule::SchemaUnversioned,
                e.line,
                Some(e.name.clone()),
                format!(
                    "binary format `{}` has no version dispatch: the magic must end \
                     in a version digit and the decoder must reject unknown versions \
                     with a typed `UnsupportedVersion` error — otherwise a layout \
                     bump can only surface as CRC corruption",
                    e.name
                ),
            ));
        }
        let Some(lock) = lock else { continue };
        match lock.get(e.kind, &e.name) {
            None => {
                if !model.allowed(e.line, Rule::SchemaDrift) {
                    findings.push(model.finding(
                        Rule::SchemaDrift,
                        e.line,
                        Some(e.name.clone()),
                        format!(
                            "{} layout `{}` has no entry in {} — a new persisted layout \
                             must be acknowledged: regenerate with --write-schema-lock",
                            e.kind.keyword(),
                            e.name,
                            lock.path.display(),
                        ),
                    ));
                }
            }
            Some(locked) if locked.fingerprint != e.fingerprint => {
                if !model.allowed(e.line, Rule::SchemaDrift) {
                    findings.push(model.finding(
                        Rule::SchemaDrift,
                        e.line,
                        Some(e.name.clone()),
                        format!(
                            "{} layout `{}` changed without a lockfile update \
                             (code {:016x}, locked {:016x}); current layout:\n    {}\n\
                             review the migration story, then regenerate with \
                             --write-schema-lock",
                            e.kind.keyword(),
                            e.name,
                            e.fingerprint,
                            locked.fingerprint,
                            e.desc.join("\n    "),
                        ),
                    ));
                }
            }
            Some(_) => {}
        }
    }

    // Stale lock entries: a layout that vanished (renamed, deleted)
    // also needs an acknowledged regeneration.
    if let Some(lock) = lock {
        for locked in &lock.entries {
            if !entries
                .iter()
                .any(|e| e.kind == locked.kind && e.name == locked.name)
            {
                findings.push(Finding {
                    rule: Rule::SchemaDrift,
                    file: lock.path.clone(),
                    line: locked.defined_at,
                    excerpt: format!(
                        "{} {} {:016x}",
                        locked.kind.keyword(),
                        locked.name,
                        locked.fingerprint
                    ),
                    detail: format!(
                        "stale lockfile entry: {} layout `{}` no longer exists in the \
                         corpus — regenerate with --write-schema-lock",
                        locked.kind.keyword(),
                        locked.name,
                    ),
                    item: Some(locked.name.clone()),
                    class: None,
                });
            }
        }
    }

    crate::lint::sort_findings(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn corpus(src: &str) -> Corpus {
        Corpus::from_sources(vec![(PathBuf::from("fixture.rs"), src.to_string())])
    }

    const STATE: &str = "struct Gauge { state: Persisted<GaugeState> }\n\
         struct GaugeState {\n\
             pub total: u64,\n\
             #[serde(default)]\n\
             marks: Vec<(u64, u64)>,\n\
             last: Option<DataPoint>,\n\
         }\n";

    #[test]
    fn persisted_struct_layout_is_fingerprinted() {
        let entries = extract_entries(&corpus(STATE));
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.kind, EntryKind::Persisted);
        assert_eq!(e.name, "GaugeState");
        assert_eq!(
            e.desc,
            [
                "total: u64",
                "marks: Vec < ( u64 , u64 ) >",
                "last: Option < DataPoint >"
            ]
        );
    }

    #[test]
    fn field_edits_move_the_fingerprint() {
        let base = extract_entries(&corpus(STATE))[0].fingerprint;
        // Type change.
        let retyped = STATE.replace("pub total: u64", "pub total: u32");
        assert_ne!(extract_entries(&corpus(&retyped))[0].fingerprint, base);
        // Field rename.
        let renamed = STATE.replace("last:", "latest:");
        assert_ne!(extract_entries(&corpus(&renamed))[0].fingerprint, base);
        // Field reorder.
        let reordered = "struct Gauge { state: Persisted<GaugeState> }\n\
             struct GaugeState {\n\
                 #[serde(default)]\n\
                 marks: Vec<(u64, u64)>,\n\
                 pub total: u64,\n\
                 last: Option<DataPoint>,\n\
             }\n";
        assert_ne!(extract_entries(&corpus(reordered))[0].fingerprint, base);
        // Attribute/visibility churn does NOT move it.
        let cosmetics = STATE
            .replace("pub total", "pub(crate) total")
            .replace("#[serde(default)]", "#[serde(default)] #[allow(dead_code)]");
        assert_eq!(extract_entries(&corpus(&cosmetics))[0].fingerprint, base);
    }

    #[test]
    fn unordered_containers_are_tagged() {
        let c = corpus(
            "struct A { s: Persisted<AState> }\n\
             struct AState { users: HashMap<String, u64>, names: BTreeMap<String, u64> }\n",
        );
        let e = &extract_entries(&c)[0];
        assert_eq!(
            e.desc,
            [
                "users: HashMap < String , u64 > [unordered]",
                "names: BTreeMap < String , u64 >"
            ]
        );
    }

    #[test]
    fn enum_layouts_fingerprint_variants() {
        let c = corpus(
            "struct A { s: Persisted<Mode> }\n\
             enum Mode { Off, Level(u8), Curve { gain: f64 } }\n",
        );
        let e = &extract_entries(&c)[0];
        assert_eq!(e.desc, ["Off", "Level ( u8 )", "Curve { gain : f64 }"]);
    }

    #[test]
    fn format_magic_and_layout_marker_are_fingerprinted() {
        let src = "// aodb-schema: layout(XYZ1) = magic[4] count:u32 crc32:u32\n\
             pub const XYZ_MAGIC: &[u8; 4] = b\"XYZ1\";\n\
             fn decode(b: &[u8]) -> Result<(), SeriesError> {\n\
                 if b[3] != b'1' { return Err(SeriesError::UnsupportedVersion); }\n\
                 Ok(())\n\
             }\n";
        let entries = extract_entries(&corpus(src));
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.kind, EntryKind::Format);
        assert_eq!(e.name, "XYZ1");
        assert!(e.versioned);
        assert!(e.desc.iter().any(|d| d.starts_with("layout: magic[4]")));
        // Editing the layout marker moves the fingerprint.
        let bumped = src.replace("count:u32", "count:u64");
        assert_ne!(
            extract_entries(&corpus(&bumped))[0].fingerprint,
            e.fingerprint
        );
    }

    #[test]
    fn format_without_dispatch_is_unversioned() {
        let src = "pub const RAW_MAGIC: &[u8; 4] = b\"RAW0\";\n";
        let f = schema_findings(&corpus(src), None);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::SchemaUnversioned);
        assert_eq!(f[0].item.as_deref(), Some("RAW0"));
    }

    #[test]
    fn format_decoded_through_the_shared_gate_is_versioned() {
        let src = "pub const XYZ_MAGIC: &[u8; 4] = b\"XYZ1\";\n\
             fn decode(r: &mut Reader) -> StoreResult<()> { r.magic(XYZ_MAGIC) }\n";
        assert!(schema_findings(&corpus(src), None).is_empty());
        // A `magic` call on anything but a magic constant is no gate.
        let src = src.replace("r.magic(XYZ_MAGIC)", "r.magic(other)");
        assert_eq!(schema_findings(&corpus(&src), None).len(), 1);
    }

    #[test]
    fn drift_against_lock_fires_on_mismatch_missing_and_stale() {
        let c = corpus(STATE);
        let fresh = compute_lock(&c);
        // Fresh lock: clean.
        assert!(schema_findings(&c, Some(&fresh)).is_empty());
        // Mutated layout vs the same lock: drift at the definition.
        let mutated = corpus(&STATE.replace("total: u64", "total: u32"));
        let f = schema_findings(&mutated, Some(&fresh));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::SchemaDrift);
        assert!(f[0].detail.contains("changed without a lockfile update"));
        // Empty lock: the layout is missing an entry.
        let empty = SchemaLock::default();
        let f = schema_findings(&c, Some(&empty));
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("has no entry"));
        // Lock with an extra entry: stale.
        let mut extra = fresh.clone();
        extra.entries.push(LockEntry {
            kind: EntryKind::Persisted,
            name: "GoneState".into(),
            fingerprint: 1,
            file: String::new(),
            defined_at: 9,
        });
        let f = schema_findings(&c, Some(&extra));
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("stale lockfile entry"));
        assert_eq!(f[0].item.as_deref(), Some("GoneState"));
    }

    #[test]
    fn allow_marker_suppresses_unversioned() {
        let src = "// aodb-lint: allow(schema-unversioned)\n\
             pub const RAW_MAGIC: &[u8; 4] = b\"RAW0\";\n";
        assert!(schema_findings(&corpus(src), None).is_empty());
    }
}
