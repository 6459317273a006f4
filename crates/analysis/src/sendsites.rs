//! Send-site extraction and declaration-drift detection.
//!
//! The runtime can only check `Actor::declared_calls()` *when a message
//! is actually sent* (debug-build `TurnGuard` panics). This pass reads
//! the declarations and the send sites out of the source and diffs them
//! both ways, so drift fails `aodb-lint` in CI instead of panicking at
//! dispatch time:
//!
//! * **missing** — a handler (or a helper it threads its `ActorContext`
//!   into) sends to an actor type with no covering declaration;
//! * **stale** — a declared edge that no send site exercises anymore.
//!
//! What counts as a send site (matching the workspace idiom):
//!
//! * `ctx.actor_ref::<T>(key).tell/ask/ask_with(..)` — `Send` kind;
//!   `.call(..)`/`.call_timeout(..)` — `Call` kind; `.recipient()` mints
//!   a forwardable handle and counts as `Send`.
//! * `let r = ctx.actor_ref::<T>(key); ... r.tell(..)` — bindings are
//!   tracked function-locally; `for r in &refs { r.tell(..) }` over a
//!   binding that holds minted references (`let refs = cell.get_or_init(||
//!   keys.map(|k| ctx.actor_ref::<T>(k)).collect())`) sends to the same `T`.
//! * `ctx.recipient::<A, M>(key)` — `Send` to `A`.
//! * `x.tell(..)` where `x` is not a tracked binding — a *dynamic* send
//!   (a `Recipient` carried in a message); covered only by `send_any()`.
//!
//! Receivers other than a function's `ActorContext` parameters (client
//! handles, `self.handle`, test `Runtime` refs) are ignored: sends from
//! outside a turn need no declaration. Self-sends are likewise exempt
//! from the missing check (the runtime never guards them) but still
//! count when deciding whether a declared self-edge is stale. Helper
//! attribution follows calls that pass a context parameter along —
//! intra-corpus and name-based, which covers the `geo::update_location_
//! index` pattern without whole-program analysis.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::rc::Rc;

use crate::dataflow::{
    first_generic_arg, fn_index, for_head_in, let_binding, resolve_callee, skip_angles, FileModel,
    FnItem,
};
use crate::graph::{CallKind, ANY};
use crate::lexer::{skip_group, Tok, TokKind};
use crate::lint::{collect_rs_files, Finding, Rule};
use crate::taxonomy::SITE_METHODS;

/// A set of parsed source files analyzed together (type names resolve
/// across files, so fixtures and the workspace both load as one corpus).
/// Files are parsed once and shared: [`Corpus::scope`] hands a pass the
/// subset it audits without lexing anything again.
pub struct Corpus {
    /// Parsed files, sorted by path.
    pub files: Vec<Rc<FileModel>>,
    /// The roots the files were loaded from (empty for
    /// [`Corpus::from_sources`]).
    roots: Vec<PathBuf>,
}

/// Where a send site points.
#[derive(Clone, Debug, PartialEq)]
enum Target {
    /// A named Rust type (`IndexShard`).
    Type(String),
    /// `Self`, or the owner's own type — exempt from declaration.
    SelfType,
    /// A receiver we cannot resolve (message-carried `Recipient`).
    Dynamic,
}

/// One extracted send/call site.
#[derive(Clone, Debug)]
struct Site {
    target: Target,
    is_call: bool,
    file: usize,
    line: u32,
    in_fn: String,
}

impl Corpus {
    /// Parses an explicit set of `(path, source)` pairs.
    pub fn from_sources(sources: Vec<(PathBuf, String)>) -> Corpus {
        Corpus {
            files: sources
                .iter()
                .map(|(p, s)| Rc::new(FileModel::parse(p, s)))
                .collect(),
            roots: Vec::new(),
        }
    }

    /// Loads every `.rs` file under the given roots (skipping `vendor/`,
    /// `target/`, dot-dirs, and `fixtures/` trees).
    pub fn load(roots: &[PathBuf]) -> io::Result<Corpus> {
        let mut files = Vec::new();
        for root in roots {
            collect_rs_files(root, &mut files)?;
        }
        files.sort();
        files.dedup();
        let mut sources = Vec::new();
        for f in files {
            let text = std::fs::read_to_string(&f)?;
            sources.push((f, text));
        }
        Ok(Corpus {
            roots: roots.to_vec(),
            ..Corpus::from_sources(sources)
        })
    }

    /// The sub-corpus a crate-scoped pass audits. A workspace root (one
    /// with `crates/runtime`) is narrowed to the `src/` trees of the
    /// named crates — the substrate, actor or persisted-state crates,
    /// whose disciplines differ from application and test code; any
    /// other root (a fixture directory in the analyzer's own tests) is
    /// audited as is, and so is everything when `crates` is empty. Name
    /// resolution is corpus-relative, so a pass must always be given the
    /// same scope.
    pub fn scope(&self, crates: &[&str]) -> Corpus {
        let mut prefixes = Vec::new();
        for root in &self.roots {
            if !crates.is_empty() && root.join("crates/runtime").is_dir() {
                prefixes.extend(
                    crates
                        .iter()
                        .map(|k| root.join("crates").join(k).join("src")),
                );
            } else {
                prefixes.push(root.clone());
            }
        }
        Corpus {
            files: self
                .files
                .iter()
                .filter(|f| prefixes.iter().any(|p| f.path.starts_with(p)))
                .cloned()
                .collect(),
            roots: self.roots.clone(),
        }
    }

    /// Merged message-struct → `ReplyTo` field names map.
    pub fn reply_structs(&self) -> HashMap<String, Vec<String>> {
        let mut map = HashMap::new();
        for file in &self.files {
            for def in &file.types {
                let sinks: Vec<String> = file
                    .named_fields(def)
                    .filter(|(_, ty)| file.mentions(ty.clone(), &["ReplyTo"]))
                    .map(|(name, _)| name.text.clone())
                    .collect();
                if !sinks.is_empty() {
                    map.entry(def.name.clone()).or_insert(sinks);
                }
            }
        }
        map
    }
}

/// Resolves Rust type identifiers to actor type names, preferring
/// same-file definitions (test files reuse idents like `Echo`).
struct ActorNames {
    local: Vec<HashMap<String, String>>,
    global: HashMap<String, Option<String>>,
}

impl ActorNames {
    fn build(corpus: &Corpus) -> ActorNames {
        let mut local = Vec::with_capacity(corpus.files.len());
        let mut global: HashMap<String, Option<String>> = HashMap::new();
        for file in &corpus.files {
            let mut here = HashMap::new();
            for actor in &file.actors {
                let Some(name) = &actor.type_name else {
                    continue;
                };
                here.insert(actor.type_ident.clone(), name.clone());
                global
                    .entry(actor.type_ident.clone())
                    .and_modify(|existing| {
                        if existing.as_deref() != Some(name.as_str()) {
                            *existing = None; // ambiguous across files
                        }
                    })
                    .or_insert_with(|| Some(name.clone()));
            }
            local.push(here);
        }
        ActorNames { local, global }
    }

    fn resolve(&self, file: usize, ident: &str) -> Option<String> {
        if let Some(name) = self.local[file].get(ident) {
            return Some(name.clone());
        }
        self.global.get(ident).cloned().flatten()
    }
}

/// Declaration-drift findings over a whole corpus.
pub fn drift_findings(corpus: &Corpus) -> Vec<Finding> {
    let names = ActorNames::build(corpus);

    // Per-function extraction, plus a name index of context-threading
    // functions for helper attribution.
    let extracted: Vec<Vec<(Vec<Site>, Vec<String>)>> = corpus
        .files
        .iter()
        .enumerate()
        .map(|(fi, file)| {
            file.fns
                .iter()
                .map(|f| extract_fn_sites(file, fi, f))
                .collect()
        })
        .collect();
    let ctx_fns = fn_index(&corpus.files, |f| !f.ctx_params.is_empty());

    let mut findings = Vec::new();
    for (fi, file) in corpus.files.iter().enumerate() {
        for actor in &file.actors {
            let Some(actor_name) = &actor.type_name else {
                continue;
            };
            // Gather this actor's sites: methods of its impls in this
            // file, then helpers reached via context-passing calls.
            let mut sites: Vec<Site> = Vec::new();
            let mut queue: Vec<(usize, usize)> = Vec::new();
            let mut visited: Vec<(usize, usize)> = Vec::new();
            for (gi, f) in file.fns.iter().enumerate() {
                if f.owner
                    .as_ref()
                    .is_some_and(|o| o.type_ident == actor.type_ident)
                {
                    queue.push((fi, gi));
                }
            }
            while let Some((qf, qg)) = queue.pop() {
                if visited.contains(&(qf, qg)) {
                    continue;
                }
                visited.push((qf, qg));
                let (fn_sites, callees) = &extracted[qf][qg];
                sites.extend(fn_sites.iter().cloned());
                for callee in callees {
                    let chosen = resolve_callee(&ctx_fns, qf, callee);
                    if let Some(c) = chosen {
                        queue.push(c);
                    }
                }
            }

            // Resolve targets against the actor-name maps (`None` = a
            // dynamic recipient).
            let resolved: Vec<(Option<String>, &Site)> = sites
                .iter()
                .filter_map(|s| {
                    let name = match &s.target {
                        Target::Dynamic => None,
                        Target::SelfType => Some(actor_name.clone()),
                        Target::Type(ident) => Some(names.resolve(s.file, ident)?),
                    };
                    Some((name, s))
                })
                .collect();

            // Missing declarations: every non-self site needs cover.
            for (name, site) in &resolved {
                if name.as_ref() == Some(actor_name) {
                    continue;
                }
                let covered = actor.decls.iter().any(|d| {
                    (d.to == ANY || name.as_ref() == Some(&d.to))
                        && (!site.is_call || d.kind == CallKind::Call)
                });
                if covered {
                    continue;
                }
                let site_model = &corpus.files[site.file];
                if site_model.allowed(site.line, Rule::DeclarationDriftMissing) {
                    continue;
                }
                let kind = if site.is_call { "call" } else { "send" };
                let shown = name.as_deref().unwrap_or("(dynamic recipient)");
                findings.push(site_model.finding(
                    Rule::DeclarationDriftMissing,
                    site.line,
                    Some(site.in_fn.clone()),
                    format!(
                        "`{actor_name}` {kind}s `{shown}` (in fn `{}`) but declared_calls() \
                         has no covering entry — debug builds will panic at dispatch",
                        site.in_fn
                    ),
                ));
            }

            // Stale declarations: every declared edge needs a site.
            for decl in &actor.decls {
                let matched = if decl.to == ANY {
                    resolved.iter().any(|(name, _)| name.is_none())
                } else {
                    resolved
                        .iter()
                        .any(|(name, _)| name.as_ref() == Some(&decl.to))
                };
                if matched {
                    continue;
                }
                if file.allowed(decl.line, Rule::DeclarationDriftStale) {
                    continue;
                }
                let shown = if decl.to == ANY {
                    "send_any() (no dynamic send site remains)".to_string()
                } else {
                    format!("`{}`", decl.to)
                };
                findings.push(file.finding(
                    Rule::DeclarationDriftStale,
                    decl.line,
                    Some("declared_calls".to_string()),
                    format!(
                        "`{actor_name}` declares {shown} but no send site in its methods or \
                         context-threaded helpers reaches it — remove the stale entry",
                    ),
                ));
            }
        }
    }
    findings
}

/// Extracts the send sites and context-passing callees of one function.
fn extract_fn_sites(model: &FileModel, file_idx: usize, f: &FnItem) -> (Vec<Site>, Vec<String>) {
    let toks = &model.toks;
    let (start, end) = f.body_range;
    let mut sites = Vec::new();
    let mut callees = Vec::new();
    let mut bindings: HashMap<String, Target> = HashMap::new();
    let mut pending_let: Option<String> = None;
    let body: Vec<usize> = (start..end).collect();

    let ident_at = |i: usize| -> Option<&str> {
        (i < end && toks[i].kind == TokKind::Ident).then(|| toks[i].text.as_str())
    };
    let punct_at = |i: usize, c: char| -> bool { i < end && toks[i].is_punct(c) };
    let is_ctx = |name: &str| f.ctx_params.iter().any(|p| p == name);
    let site = |target, is_call, line| Site {
        target,
        is_call,
        file: file_idx,
        line,
        in_fn: f.name.clone(),
    };

    let mut i = start;
    while i < end {
        let t = &toks[i];
        // Statement bookkeeping for `let name = ...` bindings.
        if t.is_punct(';') {
            pending_let = None;
            i += 1;
            continue;
        }
        if t.is_ident("let") {
            if let Some((name, _)) = let_binding(toks, &body[i - start..]) {
                pending_let = Some(name.to_string());
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }

        // `for r in refs {` / `for r in &refs {`: the loop variable is an
        // element of a tracked binding.
        if t.text == "for" && for_head_in(toks, &body[i + 1 - start..]) == Some(1) {
            let src = if punct_at(i + 3, '&') { i + 4 } else { i + 3 };
            let target = ident_at(src).and_then(|name| bindings.get(name)).cloned();
            if let (Some(var), Some(target), true) =
                (ident_at(i + 1), target, punct_at(src + 1, '{'))
            {
                bindings.insert(var.to_string(), target);
            }
            i += 1;
            continue;
        }

        // `recv.actor_ref::<T>(key)` / `recv.try_actor_ref::<T>(key)`.
        if (t.text == "actor_ref" || t.text == "try_actor_ref")
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
        {
            let recv = toks[i - 2].text.as_str();
            let line = t.line;
            if let Some((target, after)) = parse_turbofish_call(toks, i + 1, end) {
                if is_ctx(recv) {
                    // Optional `?` between the ref and its use.
                    let mut j = after;
                    if punct_at(j, '?') {
                        j += 1;
                    }
                    if punct_at(j, '.') {
                        let m = ident_at(j + 1).unwrap_or("");
                        if let Some((_, is_call)) = SITE_METHODS.iter().find(|(n, _)| *n == m) {
                            sites.push(site(target, *is_call, toks[j + 1].line));
                            i = j + 2;
                            continue;
                        }
                        if m == "recipient" {
                            sites.push(site(target, false, line));
                            i = j + 2;
                            continue;
                        }
                    }
                    if let Some(name) = pending_let.take() {
                        bindings.insert(name, target);
                    }
                    i = after;
                    continue;
                }
                // Non-context receiver (client handle): skip the whole
                // expression so its method is not misread as dynamic.
                let mut j = after;
                if punct_at(j, '?') {
                    j += 1;
                }
                if punct_at(j, '.') && ident_at(j + 1).is_some() {
                    j += 2;
                }
                i = j;
                continue;
            }
        }

        // `ctx.recipient::<A, M>(key)`.
        if t.text == "recipient"
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && is_ctx(&toks[i - 2].text)
        {
            if let Some((target, after)) = parse_turbofish_call(toks, i + 1, end) {
                sites.push(site(target, false, t.line));
                i = after;
                continue;
            }
        }

        // `binding.tell(..)` / unknown-receiver (dynamic) sends.
        if let Some((_, is_call)) = SITE_METHODS.iter().find(|(n, _)| *n == t.text) {
            if i >= 2
                && toks[i - 1].is_punct('.')
                && toks[i - 2].kind == TokKind::Ident
                && punct_at(i + 1, '(')
            {
                let recv = toks[i - 2].text.as_str();
                let target = match bindings.get(recv) {
                    Some(t) => Some(t.clone()),
                    None if recv == "self" || is_ctx(recv) => None,
                    None => Some(Target::Dynamic),
                };
                if let Some(target) = target {
                    sites.push(site(target, *is_call, t.line));
                }
                i += 1;
                continue;
            }
        }

        // Context-threading callee: `helper(.., ctx, ..)` — bare, via
        // `self.helper(..)`, or `path::helper(..)`. Only a call whose
        // arguments mention a context parameter can reach send sites,
        // which is what keeps ordinary method calls out of the index.
        if punct_at(i + 1, '(') && t.text != f.name {
            let close = skip_group(toks, i + 1, end, '(', ')');
            let passes_ctx =
                (i + 2..close).any(|j| toks[j].kind == TokKind::Ident && is_ctx(&toks[j].text));
            if passes_ctx && !callees.contains(&t.text) {
                callees.push(t.text.clone());
            }
        }
        i += 1;
    }
    (sites, callees)
}

/// Parses `::<Type, ..>(args)` starting at the token after the method
/// ident; returns the target the first type argument names (`Self` is
/// the owner's own type) and the index after the closing paren.
fn parse_turbofish_call(toks: &[Tok], i: usize, end: usize) -> Option<(Target, usize)> {
    let turbofish = i + 2 < end
        && toks[i].is_punct(':')
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct('<');
    if !turbofish {
        return None;
    }
    let target = match first_generic_arg(toks, i + 2, end).0? {
        t if t == "Self" => Target::SelfType,
        t => Target::Type(t),
    };
    let open = skip_angles(toks, i + 2, end);
    (open < end && toks[open].is_punct('('))
        .then(|| (target, skip_group(toks, open, end, '(', ')')))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(src: &str) -> Corpus {
        Corpus::from_sources(vec![(PathBuf::from("fixture.rs"), src.to_string())])
    }

    const ACTOR_PAIR_PRELUDE: &str = "\
        impl Actor for Target {\n\
        const TYPE_NAME: &'static str = \"t.target\";\n\
        }\n";

    #[test]
    fn chained_send_with_declaration_is_clean() {
        let c = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             impl Actor for Source {{\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             fn declared_calls() -> &'static [CallDecl] {{\n\
             const CALLS: &[CallDecl] = &[CallDecl::send(\"t.target\")];\n\
             CALLS\n\
             }}\n\
             }}\n\
             impl Handler<Ping> for Source {{\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {{\n\
             let _ = ctx.actor_ref::<Target>(\"k\").tell(Ping);\n\
             }}\n\
             }}\n"
        ));
        assert!(drift_findings(&c).is_empty());
    }

    #[test]
    fn undeclared_send_is_missing() {
        let c = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             impl Actor for Source {{\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             }}\n\
             impl Handler<Ping> for Source {{\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {{\n\
             let _ = ctx.actor_ref::<Target>(\"k\").tell(Ping);\n\
             }}\n\
             }}\n"
        ));
        let f = drift_findings(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::DeclarationDriftMissing);
        assert!(f[0].detail.contains("t.target"));
    }

    #[test]
    fn stale_declaration_is_flagged() {
        let c = corpus(
            "impl Actor for Source {\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             fn declared_calls() -> &'static [CallDecl] {\n\
             const CALLS: &[CallDecl] = &[CallDecl::send(\"t.gone\")];\n\
             CALLS\n\
             }\n\
             }\n",
        );
        let f = drift_findings(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::DeclarationDriftStale);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn call_site_needs_call_kind_declaration() {
        let c = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             impl Actor for Source {{\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             fn declared_calls() -> &'static [CallDecl] {{\n\
             const CALLS: &[CallDecl] = &[CallDecl::send(\"t.target\")];\n\
             CALLS\n\
             }}\n\
             }}\n\
             impl Handler<Ping> for Source {{\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {{\n\
             let _ = ctx.actor_ref::<Target>(\"k\").call(Ping);\n\
             }}\n\
             }}\n"
        ));
        let f = drift_findings(&c);
        // The blocking call is not covered by the send declaration, and
        // the send declaration is still matched (site targets t.target).
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::DeclarationDriftMissing);
        assert!(f[0].detail.contains("call"));
    }

    #[test]
    fn let_bound_ref_and_self_send() {
        let c = corpus(
            "impl Actor for Source {\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             }\n\
             impl Handler<Ping> for Source {\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {\n\
             let me = ctx.actor_ref::<Source>(ctx.key().clone());\n\
             let _ = me.tell(Ping);\n\
             }\n\
             }\n",
        );
        // Self-send: no declaration required.
        assert!(drift_findings(&c).is_empty());
    }

    #[test]
    fn loop_over_minted_refs_sends_to_their_type() {
        let handler = "impl Handler<Ping> for Source {\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {\n\
             let targets = self.targets.get_or_init(|| {\n\
             self.keys.iter().map(|k| ctx.actor_ref::<Target>(k.as_str())).collect()\n\
             });\n\
             for target in targets {\n\
             let _ = target.tell(Ping);\n\
             }\n\
             }\n\
             }\n";
        let declared = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             impl Actor for Source {{\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             fn declared_calls() -> &'static [CallDecl] {{\n\
             const CALLS: &[CallDecl] = &[CallDecl::send(\"t.target\")];\n\
             CALLS\n\
             }}\n\
             }}\n\
             {handler}"
        ));
        assert!(drift_findings(&declared).is_empty());

        let undeclared = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             impl Actor for Source {{\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             }}\n\
             {handler}"
        ));
        let f = drift_findings(&undeclared);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::DeclarationDriftMissing);
        assert!(f[0].detail.contains("t.target"), "{f:?}");
    }

    #[test]
    fn declared_self_edge_matched_by_self_send() {
        let c = corpus(
            "impl Actor for Source {\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             fn declared_calls() -> &'static [CallDecl] {\n\
             const CALLS: &[CallDecl] = &[CallDecl::send(\"t.source\")];\n\
             CALLS\n\
             }\n\
             }\n\
             impl Handler<Ping> for Source {\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {\n\
             let _ = ctx.actor_ref::<Source>(\"other\").tell(Ping);\n\
             }\n\
             }\n",
        );
        assert!(drift_findings(&c).is_empty());
    }

    #[test]
    fn dynamic_send_needs_send_any() {
        let dirty = corpus(
            "impl Actor for Source {\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             }\n\
             impl Handler<Go> for Source {\n\
             fn handle(&mut self, msg: Go, ctx: &mut ActorContext<'_>) {\n\
             let _ = msg.target.tell(Ping);\n\
             }\n\
             }\n",
        );
        let f = drift_findings(&dirty);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("dynamic"));

        let clean = corpus(
            "impl Actor for Source {\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             fn declared_calls() -> &'static [CallDecl] {\n\
             const CALLS: &[CallDecl] = &[CallDecl::send_any()];\n\
             CALLS\n\
             }\n\
             }\n\
             impl Handler<Go> for Source {\n\
             fn handle(&mut self, msg: Go, ctx: &mut ActorContext<'_>) {\n\
             let _ = msg.target.tell(Ping);\n\
             }\n\
             }\n",
        );
        assert!(drift_findings(&clean).is_empty());
    }

    #[test]
    fn helper_threading_ctx_is_attributed() {
        let c = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             impl Actor for Source {{\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             }}\n\
             impl Handler<Ping> for Source {{\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {{\n\
             crate::helpers::forward_it(ctx, 1);\n\
             }}\n\
             }}\n\
             pub(crate) fn forward_it(ctx: &mut ActorContext<'_>, n: u32) {{\n\
             let _ = ctx.actor_ref::<Target>(\"k\").tell(Ping);\n\
             }}\n"
        ));
        let f = drift_findings(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::DeclarationDriftMissing);
        assert!(f[0].detail.contains("forward_it"));
    }

    #[test]
    fn client_side_handle_sends_are_exempt() {
        let c = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             struct Client {{ handle: RuntimeHandle }}\n\
             impl Client {{\n\
             fn kick(&self) {{\n\
             let _ = self.handle.actor_ref::<Target>(\"k\").tell(Ping);\n\
             let r = rt.actor_ref::<Target>(\"k\");\n\
             r.tell(Ping);\n\
             }}\n\
             }}\n"
        ));
        assert!(drift_findings(&c).is_empty());
    }

    #[test]
    fn recipient_minting_counts_as_send() {
        let c = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             impl Actor for Source {{\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             fn declared_calls() -> &'static [CallDecl] {{\n\
             const CALLS: &[CallDecl] = &[CallDecl::send(\"t.target\")];\n\
             CALLS\n\
             }}\n\
             }}\n\
             impl Handler<Ping> for Source {{\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {{\n\
             let r = ctx.recipient::<Target, Ping>(\"k\");\n\
             self.out.push(r);\n\
             }}\n\
             }}\n"
        ));
        assert!(drift_findings(&c).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_missing() {
        let c = corpus(&format!(
            "{ACTOR_PAIR_PRELUDE}\
             impl Actor for Source {{\n\
             const TYPE_NAME: &'static str = \"t.source\";\n\
             }}\n\
             impl Handler<Ping> for Source {{\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {{\n\
             // deliberate: aodb-lint: allow(declaration-drift-missing)\n\
             let _ = ctx.actor_ref::<Target>(\"k\").tell(Ping);\n\
             }}\n\
             }}\n"
        ));
        assert!(drift_findings(&c).is_empty());
    }
}
