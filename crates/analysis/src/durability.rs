//! Ack-durability dataflow: persistence hazards and ack-before-commit.
//!
//! The runtime's recovery contract is *ack ⇒ durable*: once a caller
//! observes a reply, the turn's state effects must survive a crash.
//! Two per-function analyses enforce the source-level half of that
//! contract, both over the control-flow trees of [`crate::dataflow`]:
//!
//! * **`persistence-hazard`** — a `&mut self` method where a
//!   `get_mut_untracked()` mutation can reach an exit with no
//!   intervening commit-point write. Commit points are the `Persisted`
//!   capture methods (`mutate`/`save`/`flush`/...) *and* the tseries
//!   commit seam: `append_batch` persists the points and the captured
//!   sidecar atomically in the tail record, so a columnar handler that
//!   mutates untracked state and then appends has committed. One
//!   exemption: inside `on_activate`, a mutation whose statement
//!   overlays data derived from `SeriesStore::recover(..)` is the
//!   *product* of recovery, not a new fact — the authoritative copy
//!   already sits in the series store (tracked by a small
//!   recovery-binding taint walk, so the exemption covers exactly the
//!   overlay statements, not the whole function).
//! * **`ack-before-commit`** — a handler path that resolves a `ReplyTo`
//!   sink (`.deliver(..)`) and *then* performs durable-state activity
//!   (a commit-point write, or an untracked mutation). The caller's
//!   promise resolves the instant `deliver` runs — on such a path the
//!   ack leaves the actor while the turn's effects are still volatile.
//!   Delivers inside closure bodies (collector fan-ins, deferred
//!   completions) are excluded: they run after the turn, not during it.
//!
//! Sync-reply tails need no ordering check here: the runtime delivers a
//! sync handler's return value after the body completes, so everything
//! in the body happens before that ack — the tail is covered by
//! `persistence-hazard` alone (an exit with uncommitted state *is* the
//! ack-before-commit of the sync path).

use crate::dataflow::{eval_flow, FileModel, FnItem};
use crate::lexer::{is_method_call, skip_group, TokKind};
use crate::lint::{Finding, Rule};
use crate::taxonomy::is_commit_method;

/// Persistence-hazard findings for one file: a `&mut self` method where
/// a `get_mut_untracked()` mutation reaches an exit with no intervening
/// commit-point write (`mutate`/`save`/`flush`/`append_batch`/...).
pub fn persistence_findings(model: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &model.fns {
        if !f.has_mut_self {
            continue;
        }
        let touches =
            (f.body_range.0..f.body_range.1).any(|i| model.toks[i].is_ident("get_mut_untracked"));
        if !touches {
            continue;
        }
        let exempt = overlay_exempt_positions(model, f);
        // Path state: line of a mutation no commit point has covered yet.
        let mut transfer = |pending: &mut Option<u32>, idxs: &[usize]| {
            for &j in idxs {
                let t = &model.toks[j];
                if !is_method_call(&model.toks, j) {
                    continue;
                }
                if t.text == "get_mut_untracked" {
                    if !exempt.contains(&j) {
                        *pending = Some(t.line);
                    }
                } else if is_commit_method(&t.text) {
                    *pending = None;
                }
            }
        };
        let exits = eval_flow(&f.body, None, f.end_line, &mut transfer);
        let mut reported: Vec<u32> = Vec::new();
        for exit in exits {
            let Some(mutation_line) = exit.state else {
                continue;
            };
            if reported.contains(&mutation_line) {
                continue;
            }
            reported.push(mutation_line);
            if model.allowed(exit.line, Rule::PersistenceHazard)
                || model.allowed(mutation_line, Rule::PersistenceHazard)
            {
                continue;
            }
            findings.push(model.finding(
                Rule::PersistenceHazard,
                exit.line,
                Some(f.name.clone()),
                format!(
                    "`{}` mutates state via get_mut_untracked() on line {mutation_line} but \
                     this exit is reached with no commit-point write \
                     (mutate/save/flush/append_batch) — the store never sees the change",
                    f.name
                ),
            ));
        }
    }
    findings
}

/// Ack-before-commit findings for one file: handler paths where a
/// `.deliver(..)` precedes durable-state activity.
pub fn ack_findings(model: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &model.fns {
        if f.name != "handle"
            || f.owner.as_ref().and_then(|o| o.trait_ident.as_deref()) != Some("Handler")
        {
            continue;
        }
        let delivers = (f.body_range.0..f.body_range.1).any(|i| model.toks[i].is_ident("deliver"));
        if !delivers {
            continue;
        }
        let closures = closure_regions(model, f);
        let in_closure = |j: usize| closures.iter().any(|&(a, b)| j > a && j < b);
        // Path state: line of the first in-turn deliver, if any.
        // Violations (ack line, commit line) are collected as they are
        // crossed, so one path yields one pair per offending write.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut transfer = |ack: &mut Option<u32>, idxs: &[usize]| {
            for &j in idxs {
                let t = &model.toks[j];
                if !is_method_call(&model.toks, j) {
                    continue;
                }
                if t.text == "deliver" {
                    if !in_closure(j) && ack.is_none() {
                        *ack = Some(t.line);
                    }
                } else if is_commit_method(&t.text) || t.text == "get_mut_untracked" {
                    if let Some(ack_line) = *ack {
                        let pair = (ack_line, t.line);
                        if !pairs.contains(&pair) {
                            pairs.push(pair);
                        }
                    }
                }
            }
        };
        eval_flow(&f.body, None, f.end_line, &mut transfer);
        let msg_type = f
            .owner
            .as_ref()
            .and_then(|o| o.trait_arg.clone())
            .unwrap_or_default();
        for (ack_line, commit_line) in pairs {
            if model.allowed(ack_line, Rule::AckBeforeCommit)
                || model.allowed(commit_line, Rule::AckBeforeCommit)
            {
                continue;
            }
            findings.push(model.finding(
                Rule::AckBeforeCommit,
                commit_line,
                Some(f.name.clone()),
                format!(
                    "handler of `{msg_type}` delivers its reply on line {ack_line} and then \
                     touches durable state here — the caller can observe the ack while \
                     the turn's effects are still volatile; commit before delivering",
                ),
            ));
        }
    }
    findings
}

/// Token ranges `(open, close)` of `|..| { .. }` closure bodies inside
/// the function — delivers there run after the turn, not during it.
fn closure_regions(model: &FileModel, f: &FnItem) -> Vec<(usize, usize)> {
    let toks = &model.toks;
    let (start, end) = f.body_range;
    let mut out = Vec::new();
    for j in start..end {
        if !toks[j].is_punct('{') {
            continue;
        }
        let prev = (start..j)
            .rev()
            .map(|k| &toks[k])
            .find(|t| !t.is_ident("move"));
        if !prev.is_some_and(|t| t.is_punct('|')) {
            continue;
        }
        let k = skip_group(toks, j, end, '{', '}').saturating_sub(1);
        out.push((j, k));
    }
    out
}

/// For `on_activate` only: token positions of `get_mut_untracked` calls
/// whose enclosing statement mentions a recovery-tainted binding — the
/// overlay-of-recovery exemption.
fn overlay_exempt_positions(model: &FileModel, f: &FnItem) -> Vec<usize> {
    if f.name != "on_activate" {
        return Vec::new();
    }
    let tainted = recovery_tainted(model, f);
    if tainted.is_empty() {
        return Vec::new();
    }
    let toks = &model.toks;
    let (start, end) = f.body_range;
    let mut out = Vec::new();
    for j in start..end {
        if !toks[j].is_ident("get_mut_untracked") {
            continue;
        }
        // Statement bounds: nearest `;` or brace either side.
        let stmt_start = (start..j)
            .rev()
            .find(|&k| toks[k].is_punct(';') || toks[k].is_punct('{') || toks[k].is_punct('}'))
            .map(|k| k + 1)
            .unwrap_or(start);
        let stmt_end = (j..end)
            .find(|&k| toks[k].is_punct(';') || toks[k].is_punct('{') || toks[k].is_punct('}'))
            .unwrap_or(end);
        if (stmt_start..stmt_end)
            .any(|k| toks[k].kind == TokKind::Ident && tainted.contains(&toks[k].text))
        {
            out.push(j);
        }
    }
    out
}

/// Fixpoint over `let` bindings: a binding is recovery-tainted when its
/// right-hand side calls `.recover(..)` or mentions another tainted
/// binding. Works for plain `let`, `if let`, and `while let` heads (the
/// RHS scan stops at the `{` that opens the conditional body).
fn recovery_tainted(model: &FileModel, f: &FnItem) -> Vec<String> {
    let toks = &model.toks;
    let (start, end) = f.body_range;
    if !(start..end).any(|i| toks[i].is_ident("recover")) {
        return Vec::new();
    }
    let mut tainted: Vec<String> = Vec::new();
    loop {
        let mut changed = false;
        let mut i = start;
        while i < end {
            if !toks[i].is_ident("let") {
                i += 1;
                continue;
            }
            // Binder idents up to the top-level `=`.
            let mut binders: Vec<String> = Vec::new();
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut eq: Option<usize> = None;
            while j < end {
                let t = &toks[j];
                if depth == 0
                    && t.is_punct('=')
                    && !toks.get(j + 1).is_some_and(|n| n.is_punct('='))
                {
                    eq = Some(j);
                    break;
                }
                if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                    depth -= 1;
                } else if t.kind == TokKind::Ident
                    && !matches!(
                        t.text.as_str(),
                        "mut" | "ref" | "Ok" | "Some" | "Err" | "None"
                    )
                {
                    binders.push(t.text.clone());
                }
                j += 1;
            }
            let Some(eq) = eq else {
                i = j.max(i + 1);
                continue;
            };
            // RHS up to `;` or the body-opening `{`.
            let mut k = eq + 1;
            depth = 0;
            let mut dirty = false;
            while k < end {
                let t = &toks[k];
                if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                if t.kind == TokKind::Ident && (t.text == "recover" || tainted.contains(&t.text)) {
                    dirty = true;
                }
                k += 1;
            }
            if dirty {
                for b in binders {
                    if !tainted.contains(&b) {
                        tainted.push(b);
                        changed = true;
                    }
                }
            }
            i = k.max(i + 1);
        }
        if !changed {
            break;
        }
    }
    tainted
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn model(src: &str) -> FileModel {
        FileModel::parse(Path::new("test.rs"), src)
    }

    #[test]
    fn persist_hazard_on_early_return() {
        let m = model(
            "impl Handler<W> for A {\n\
             fn handle(&mut self, msg: W, _ctx: &mut ActorContext<'_>) -> R {\n\
             if !self.state.get_mut_untracked().guard.first_time(&msg.id) {\n\
             return R::Skip;\n\
             }\n\
             self.state.mutate(|s| s.n += 1);\n\
             R::Done\n\
             }\n\
             }\n",
        );
        let f = persistence_findings(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::PersistenceHazard);
        assert_eq!(f[0].line, 4); // the `return R::Skip;`
    }

    #[test]
    fn persist_hazard_through_match_arm() {
        let m = model(
            "impl A {\n\
             fn step(&mut self, w: W) -> R {\n\
             self.state.get_mut_untracked().n += 1;\n\
             match w.kind {\n\
             K::Fast => R::Done,\n\
             K::Slow => { self.state.flush(); R::Done }\n\
             }\n\
             }\n\
             }\n",
        );
        let f = persistence_findings(&m);
        // The K::Fast arm falls through with the mutation unpersisted.
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn append_batch_is_a_commit_point() {
        let m = model(
            "impl Handler<Ingest> for Chan {\n\
             fn handle(&mut self, msg: Ingest, ctx: &mut ActorContext<'_>) -> u64 {\n\
             let s = self.state.get_mut_untracked();\n\
             s.total += msg.points.len() as u64;\n\
             let meta = encode_state(&SideCar::capture(s)).unwrap_or_default();\n\
             let _ = series.append_batch(&key, &msg.points, &meta);\n\
             s.total\n\
             }\n\
             }\n",
        );
        assert!(persistence_findings(&m).is_empty());
    }

    #[test]
    fn append_batch_on_one_arm_still_flags_the_other() {
        let m = model(
            "impl A {\n\
             fn step(&mut self) {\n\
             self.state.get_mut_untracked().n += 1;\n\
             if self.columnar {\n\
             let _ = self.series.append_batch(&k, &p, &m);\n\
             }\n\
             }\n\
             }\n",
        );
        assert_eq!(persistence_findings(&m).len(), 1);
    }

    #[test]
    fn append_batch_async_is_a_commit_point() {
        let m = model(
            "impl Handler<Ingest> for Chan {\n\
             fn handle(&mut self, msg: Ingest, ctx: &mut ActorContext<'_>) -> u32 {\n\
             let s = self.state.get_mut_untracked();\n\
             s.total += msg.points.len() as u64;\n\
             let meta = SideCar::capture(s).encode();\n\
             series.append_batch_async(&key, &msg.points, &meta, Box::new(move |r| {\n\
             reply.deliver(accepted);\n\
             }));\n\
             accepted\n\
             }\n\
             }\n",
        );
        assert!(persistence_findings(&m).is_empty());
        assert!(ack_findings(&m).is_empty(), "deferred ack is not in-turn");
    }

    #[test]
    fn recovery_overlay_in_on_activate_is_exempt() {
        let m = model(
            "impl Actor for Chan {\n\
             fn on_activate(&mut self, ctx: &mut ActorContext<'_>) {\n\
             self.state.load_or_default();\n\
             if let Ok(rec) = series.recover(&key) {\n\
             if let Ok(sidecar) = decode_state::<SideCar>(&rec.meta) {\n\
             sidecar.apply(self.state.get_mut_untracked());\n\
             }\n\
             }\n\
             }\n\
             }\n",
        );
        assert!(
            persistence_findings(&m).is_empty(),
            "overlay must be exempt"
        );
    }

    #[test]
    fn non_recovery_mutation_in_on_activate_still_flags() {
        let m = model(
            "impl Actor for Chan {\n\
             fn on_activate(&mut self, ctx: &mut ActorContext<'_>) {\n\
             self.state.get_mut_untracked().n += 1;\n\
             }\n\
             }\n",
        );
        assert_eq!(persistence_findings(&m).len(), 1);
    }

    #[test]
    fn overlay_pattern_outside_on_activate_is_not_exempt() {
        let m = model(
            "impl Handler<W> for Chan {\n\
             fn handle(&mut self, msg: W, ctx: &mut ActorContext<'_>) {\n\
             if let Ok(rec) = series.recover(&key) {\n\
             if let Ok(sidecar) = decode_state::<SideCar>(&rec.meta) {\n\
             sidecar.apply(self.state.get_mut_untracked());\n\
             }\n\
             }\n\
             }\n\
             }\n",
        );
        assert_eq!(persistence_findings(&m).len(), 1);
    }

    #[test]
    fn let_else_diverging_arm_is_a_branch() {
        let m = model(
            "impl A {\n\
             fn step(&mut self) -> R {\n\
             let Some(x) = self.find() else {\n\
             return R::Missing;\n\
             };\n\
             self.state.get_mut_untracked().n = x;\n\
             self.state.save();\n\
             R::Done\n\
             }\n\
             }\n",
        );
        assert!(persistence_findings(&m).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_persistence() {
        let m = model(
            "impl A {\n\
             fn step(&mut self) {\n\
             // aodb-lint: allow(persistence-hazard)\n\
             self.state.get_mut_untracked().n += 1;\n\
             }\n\
             }\n",
        );
        assert!(persistence_findings(&m).is_empty());
    }

    #[test]
    fn deliver_then_mutate_is_ack_before_commit() {
        let m = model(
            "impl Handler<Ask> for A {\n\
             fn handle(&mut self, msg: Ask, _ctx: &mut ActorContext<'_>) {\n\
             msg.reply.deliver(self.answer());\n\
             self.state.mutate(|s| s.served += 1);\n\
             }\n\
             }\n",
        );
        let f = ack_findings(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AckBeforeCommit);
        assert_eq!(f[0].line, 4); // the mutate after the deliver
    }

    #[test]
    fn mutate_then_deliver_is_clean() {
        let m = model(
            "impl Handler<Ask> for A {\n\
             fn handle(&mut self, msg: Ask, _ctx: &mut ActorContext<'_>) {\n\
             self.state.mutate(|s| s.served += 1);\n\
             msg.reply.deliver(self.answer());\n\
             }\n\
             }\n",
        );
        assert!(ack_findings(&m).is_empty());
    }

    #[test]
    fn deliver_on_early_return_path_does_not_taint_other_path() {
        let m = model(
            "impl Handler<Ask> for A {\n\
             fn handle(&mut self, msg: Ask, _ctx: &mut ActorContext<'_>) {\n\
             if self.done {\n\
             msg.reply.deliver(None);\n\
             return;\n\
             }\n\
             self.state.mutate(|s| s.n += 1);\n\
             msg.reply.deliver(Some(1));\n\
             }\n\
             }\n",
        );
        assert!(ack_findings(&m).is_empty(), "{:?}", ack_findings(&m));
    }

    #[test]
    fn deliver_then_append_batch_is_flagged() {
        let m = model(
            "impl Handler<Ingest> for Chan {\n\
             fn handle(&mut self, msg: Ingest, _ctx: &mut ActorContext<'_>) {\n\
             msg.reply.deliver(Accepted);\n\
             let _ = self.series.append_batch(&k, &msg.points, &meta);\n\
             }\n\
             }\n",
        );
        assert_eq!(ack_findings(&m).len(), 1);
    }

    #[test]
    fn deliver_inside_collector_closure_is_not_an_in_turn_ack() {
        let m = model(
            "impl Handler<Q> for Org {\n\
             fn handle(&mut self, msg: Q, ctx: &mut ActorContext<'_>) {\n\
             let slot = msg.reply.slot();\n\
             let done = Collector::new(n, move |points| {\n\
             slot.deliver(points);\n\
             });\n\
             self.state.mutate(|s| s.queries += 1);\n\
             }\n\
             }\n",
        );
        assert!(ack_findings(&m).is_empty(), "{:?}", ack_findings(&m));
    }

    #[test]
    fn allow_marker_suppresses_ack() {
        let m = model(
            "impl Handler<Ask> for A {\n\
             fn handle(&mut self, msg: Ask, _ctx: &mut ActorContext<'_>) {\n\
             // aodb-lint: allow(ack-before-commit)\n\
             msg.reply.deliver(self.answer());\n\
             self.state.mutate(|s| s.served += 1);\n\
             }\n\
             }\n",
        );
        assert!(ack_findings(&m).is_empty());
    }
}
