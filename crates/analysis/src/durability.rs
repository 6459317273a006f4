//! Ack-durability dataflow: ack-before-commit.
//!
//! The runtime's recovery contract is *ack ⇒ durable*: once a caller
//! observes a reply, the turn's state effects must survive a crash. The
//! **`ack-before-commit`** rule enforces the source-level half of that
//! contract over the control-flow trees of [`crate::dataflow`]: a
//! handler path that resolves a `ReplyTo` sink (`.deliver(..)`) and
//! *then* performs a commit-point write (the `Persisted` capture methods
//! `mutate`/`save`/`flush`/..., or the tseries `append_batch` seam). The
//! caller's promise resolves the instant `deliver` runs — on such a path
//! the ack leaves the actor while the turn's effects are still volatile.
//! Delivers inside closure bodies (collector fan-ins, deferred
//! completions) are excluded: they run after the turn, not during it.
//!
//! Sync-reply tails need no check: the runtime delivers a sync handler's
//! return value after the body completes, so everything in the body
//! happens before that ack. Every `Persisted` mutation goes through
//! `mutate`, which applies the write policy, so no mutation can bypass
//! the store unseen.

use crate::dataflow::{eval_flow, FileModel, FnItem};
use crate::lexer::{is_method_call, skip_group};
use crate::lint::{Finding, Rule};
use crate::taxonomy::is_commit_method;

/// Ack-before-commit findings for one file: handler paths where a
/// `.deliver(..)` precedes a commit-point write.
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
                } else if is_commit_method(&t.text) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn model(src: &str) -> FileModel {
        FileModel::parse(Path::new("test.rs"), src)
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
    fn deliver_inside_deferred_append_ack_is_not_an_in_turn_ack() {
        let m = model(
            "impl Handler<Ingest> for Chan {\n\
             fn handle(&mut self, msg: Ingest, ctx: &mut ActorContext<'_>) -> u32 {\n\
             let reply = ctx.defer_reply::<u32>();\n\
             series.append_batch_async(&key, &msg.points, &meta, Box::new(move |r| {\n\
             reply.deliver(accepted);\n\
             }));\n\
             accepted\n\
             }\n\
             }\n",
        );
        assert!(ack_findings(&m).is_empty(), "{:?}", ack_findings(&m));
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
