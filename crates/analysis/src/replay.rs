//! aodb-replaycheck — static determinism analysis for actor turns.
//!
//! The chaos fleet (and any future transactional commit ordering) can
//! only replay a history if every turn is *deterministic*: same state +
//! same envelope ⇒ same sends, same replies, same persisted bytes. This
//! pass checks that property at the source level, over the same parsed
//! corpus the verify passes use:
//!
//! * **`nondet-in-turn`** — a value from a nondeterminism source (see
//!   [`crate::effects`] for the taxonomy: unordered-collection
//!   iteration, RNG, thread identity, env/FS reads) flows into a send
//!   payload, a reply, or a persisted write inside a turn function
//!   (`Handler::handle`, `Actor::on_activate`/`on_deactivate`) or a
//!   helper one call away from one.
//! * **`unordered-persisted-state`** — a type used as `Persisted<T>`
//!   state carries a `HashMap`/`HashSet` field, so serde serializes it
//!   in arbitrary order and identical logical state produces different
//!   blobs (breaks byte-level replay comparison even when reads are all
//!   keyed).
//! * **`ambient-clock`** — `Instant::now()`/`SystemTime::now()` inside a
//!   turn; actor code must read time through `ActorContext::now()`, the
//!   runtime's replay-stable clock.
//!
//! Soundness envelope (same as lockcheck, DESIGN.md §12): one level of
//! `self.`/free-call propagation, statement-granular taint (a statement
//! that both uses a dirty value and contains a sink is a finding — no
//! argument-position precision), receivers resolved by owner field
//! first and corpus-unique field name second. The walk may miss
//! (match-scrutinee rebinding, two-hop helpers); it does not crash, and
//! what it flags is reviewable at the line it names.

use crate::dataflow::{resolve_callee, FieldClasses, FileModel, FnIndex, FnItem};
use crate::effects::{effect_facts, EffectCx, EffectFacts};
use crate::lexer::TokKind;
use crate::lint::{Finding, Rule};
use crate::schema::persisted_type_args;
use crate::sendsites::Corpus;
use crate::taxonomy::{is_keywordish, UNORDERED_TYPES};

/// Runs the replaycheck pass over a parsed corpus.
pub fn replaycheck_corpus(corpus: &Corpus) -> Vec<Finding> {
    // Corpus-wide unordered-collection classes (`Owner.field`).
    let classes = FieldClasses::of_fields(&corpus.files, UNORDERED_TYPES);

    // Every type name used as a `Persisted<T>` state argument.
    let persisted = persisted_type_args(corpus);

    // Per-function effect facts and a name index, for helper resolution.
    let mut facts: Vec<Vec<EffectFacts>> = Vec::new();
    let mut fns_by_name = FnIndex::new();
    for (fi, file) in corpus.files.iter().enumerate() {
        facts.push(file.fns.iter().map(|f| effect_facts(file, f)).collect());
        for (gi, f) in file.fns.iter().enumerate() {
            fns_by_name
                .entry(f.name.clone())
                .or_default()
                .push((fi, gi));
        }
    }

    let mut findings = Vec::new();

    // Rule: unordered-persisted-state.
    for (id, def) in classes.defs.iter().enumerate() {
        if !persisted.contains(&def.owner) {
            continue;
        }
        let model = &corpus.files[def.file];
        if model.allowed(def.line, Rule::UnorderedPersistedState) {
            continue;
        }
        let class = classes.names[id].clone();
        let detail = format!(
            "`{owner}` is `Persisted<{owner}>` state but field `{field}` is an \
             unordered collection — serde serializes it in arbitrary order, so \
             identical logical state produces different blobs; use `BTreeMap`/\
             `BTreeSet` for canonical bytes",
            owner = def.owner,
            field = def.field,
        );
        findings.push(
            model
                .finding(
                    Rule::UnorderedPersistedState,
                    def.line,
                    Some(class.clone()),
                    detail,
                )
                .with_class(Some(class)),
        );
    }

    // Rules: nondet-in-turn + ambient-clock, over turn functions and
    // helpers one call away from them.
    let mut work: Vec<(usize, usize, bool)> = Vec::new(); // (file, fn, is_handler)
    let mut visited: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in corpus.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if is_turn_fn(f) {
                work.push((fi, gi, is_sync_handler(f)));
                visited.push((fi, gi));
            }
        }
    }
    // One level of propagation: helpers called from turn functions join
    // the walk (as non-handlers — their return value is not a reply).
    let mut helpers: Vec<(usize, usize)> = Vec::new();
    for &(fi, gi, _) in &work {
        let file = &corpus.files[fi];
        for callee in callee_names(file, &file.fns[gi]) {
            if let Some(target) = resolve_callee(&fns_by_name, fi, &callee) {
                if !visited.contains(&target) {
                    visited.push(target);
                    helpers.push(target);
                }
            }
        }
    }
    work.extend(helpers.into_iter().map(|(fi, gi)| (fi, gi, false)));

    for (fi, gi, is_handler) in work {
        let model = &corpus.files[fi];
        let f = &model.fns[gi];
        let owner = f.owner.as_ref().map(|o| o.type_ident.as_str());
        let resolver = |name: &str| -> Option<EffectFacts> {
            resolve_callee(&fns_by_name, fi, name).map(|(cf, cg)| facts[cf][cg])
        };
        let mut cx = EffectCx::new(model, owner, &classes, &resolver, is_handler);
        cx.walk_fn(f);
        for ef in &cx.findings {
            if model.allowed(ef.line, Rule::NondetInTurn) {
                continue;
            }
            let detail = format!(
                "`{}`: {} flows into a {} — the same state and message can \
                 produce different observable effects on replay",
                f.name, ef.source, ef.sink,
            );
            findings.push(
                model
                    .finding(Rule::NondetInTurn, ef.line, Some(f.name.clone()), detail)
                    .with_class(ef.class.clone()),
            );
        }
        for ck in &cx.clocks {
            if model.allowed(ck.line, Rule::AmbientClock) {
                continue;
            }
            findings.push(model.finding(
                Rule::AmbientClock,
                ck.line,
                Some(f.name.clone()),
                format!(
                    "`{}` reads the ambient wall clock via `{}()` — actor code must \
                     use `ActorContext::now()` so replayed turns observe the same time",
                    f.name, ck.what,
                ),
            ));
        }
    }

    crate::lint::sort_findings(&mut findings);
    findings
}

/// True for functions the runtime invokes as (part of) a turn.
fn is_turn_fn(f: &FnItem) -> bool {
    let Some(owner) = &f.owner else { return false };
    match owner.trait_ident.as_deref() {
        Some("Handler") => f.name == "handle",
        Some("Actor") => f.name == "on_activate" || f.name == "on_deactivate",
        _ => false,
    }
}

/// True when the turn function's return value is delivered as a reply
/// (so its tail expression is a sink).
fn is_sync_handler(f: &FnItem) -> bool {
    f.name == "handle"
        && f.owner
            .as_ref()
            .is_some_and(|o| o.trait_ident.as_deref() == Some("Handler"))
}

/// Names called as `self.name(..)` or free `name(..)` from a function
/// body (candidates for one-level propagation).
fn callee_names(model: &FileModel, f: &FnItem) -> Vec<String> {
    let toks = &model.toks;
    let mut out = Vec::new();
    for j in f.body_range.0..f.body_range.1 {
        let t = &toks[j];
        if t.kind != TokKind::Ident || is_keywordish(&t.text) || t.text == f.name {
            continue;
        }
        if !toks.get(j + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let prev_dot = j >= 1 && toks[j - 1].is_punct('.');
        let prev_path = j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':');
        let self_method = prev_dot && j >= 2 && toks[j - 2].is_ident("self");
        if (self_method || (!prev_dot && !prev_path)) && !out.contains(&t.text) {
            out.push(t.text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(src: &str) -> Corpus {
        Corpus::from_sources(vec![("fixture.rs".into(), src.to_string())])
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.name()).collect()
    }

    #[test]
    fn hashmap_iteration_into_send_is_flagged() {
        let c = corpus(
            "struct Gw { buffers: HashMap<String, Vec<u32>> }\n\
             impl Handler<Flush> for Gw {\n\
             fn handle(&mut self, msg: Flush, ctx: &mut ActorContext<'_>) {\n\
             for ch in self.buffers.keys() {\n\
             ctx.actor_ref::<Chan>(ch.clone()).tell(Ping);\n\
             }\n\
             }\n\
             }\n",
        );
        let f = replaycheck_corpus(&c);
        assert_eq!(rules(&f), ["nondet-in-turn"], "{f:?}");
        assert_eq!(f[0].class.as_deref(), Some("Gw.buffers"));
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let c = corpus(
            "struct Gw { buffers: BTreeMap<String, Vec<u32>> }\n\
             impl Handler<Flush> for Gw {\n\
             fn handle(&mut self, msg: Flush, ctx: &mut ActorContext<'_>) {\n\
             for ch in self.buffers.keys() {\n\
             ctx.actor_ref::<Chan>(ch.clone()).tell(Ping);\n\
             }\n\
             }\n\
             }\n",
        );
        assert!(replaycheck_corpus(&c).is_empty());
    }

    #[test]
    fn collected_keys_through_binding_taint_a_later_send() {
        let c = corpus(
            "struct Gw { buffers: HashMap<String, Vec<u32>> }\n\
             impl Handler<Flush> for Gw {\n\
             fn handle(&mut self, msg: Flush, ctx: &mut ActorContext<'_>) {\n\
             let channels = self.buffers.keys().cloned().collect::<Vec<_>>();\n\
             for channel in channels {\n\
             ctx.actor_ref::<Chan>(channel).tell(Ping);\n\
             }\n\
             }\n\
             }\n",
        );
        let f = replaycheck_corpus(&c);
        assert_eq!(rules(&f), ["nondet-in-turn"], "{f:?}");
    }

    #[test]
    fn keyed_access_is_clean() {
        let c = corpus(
            "struct Gw { buffers: HashMap<String, Vec<u32>> }\n\
             impl Handler<Get> for Gw {\n\
             fn handle(&mut self, msg: Get, _ctx: &mut ActorContext<'_>) -> u32 {\n\
             let n = self.buffers.get(&msg.ch).map(|v| v.len()).unwrap_or(0);\n\
             n as u32\n\
             }\n\
             }\n",
        );
        assert!(replaycheck_corpus(&c).is_empty());
    }

    #[test]
    fn iteration_into_reply_value_is_flagged() {
        let c = corpus(
            "struct Reg { live: HashMap<String, u32> }\n\
             impl Handler<List> for Reg {\n\
             fn handle(&mut self, msg: List, _ctx: &mut ActorContext<'_>) -> Vec<String> {\n\
             self.live.keys().cloned().collect()\n\
             }\n\
             }\n",
        );
        let f = replaycheck_corpus(&c);
        assert_eq!(rules(&f), ["nondet-in-turn"], "{f:?}");
        assert!(f[0].detail.contains("reply"), "{f:?}");
    }

    #[test]
    fn unordered_field_in_persisted_state_is_flagged() {
        let c = corpus(
            "struct EngineState { completed: HashMap<String, u32> }\n\
             struct Engine { progress: Persisted<EngineState> }\n",
        );
        let f = replaycheck_corpus(&c);
        assert_eq!(rules(&f), ["unordered-persisted-state"], "{f:?}");
        assert_eq!(f[0].item.as_deref(), Some("EngineState.completed"));
    }

    #[test]
    fn unordered_field_in_unpersisted_struct_is_clean() {
        let c = corpus("struct Cache { hot: HashMap<String, u32> }\n");
        assert!(replaycheck_corpus(&c).is_empty());
    }

    #[test]
    fn ambient_clock_in_turn_is_flagged_and_ctx_now_is_clean() {
        let dirty = corpus(
            "impl Handler<Tick> for A {\n\
             fn handle(&mut self, msg: Tick, ctx: &mut ActorContext<'_>) {\n\
             let t = Instant::now();\n\
             self.last = t;\n\
             }\n\
             }\n",
        );
        let f = replaycheck_corpus(&dirty);
        assert_eq!(rules(&f), ["ambient-clock"], "{f:?}");

        let clean = corpus(
            "impl Handler<Tick> for A {\n\
             fn handle(&mut self, msg: Tick, ctx: &mut ActorContext<'_>) {\n\
             let t = ctx.now();\n\
             self.last = t;\n\
             }\n\
             }\n",
        );
        assert!(replaycheck_corpus(&clean).is_empty());
    }

    #[test]
    fn clock_outside_turns_is_not_flagged() {
        let c = corpus(
            "fn bench_harness() {\n\
             let t = Instant::now();\n\
             run(t);\n\
             }\n",
        );
        assert!(replaycheck_corpus(&c).is_empty());
    }

    #[test]
    fn helper_one_level_away_is_walked() {
        let c = corpus(
            "impl Handler<Tick> for A {\n\
             fn handle(&mut self, msg: Tick, ctx: &mut ActorContext<'_>) {\n\
             self.stamp(ctx);\n\
             }\n\
             }\n\
             impl A {\n\
             fn stamp(&mut self, ctx: &mut ActorContext<'_>) {\n\
             let t = SystemTime::now();\n\
             self.last = t;\n\
             }\n\
             }\n",
        );
        let f = replaycheck_corpus(&c);
        assert_eq!(rules(&f), ["ambient-clock"], "{f:?}");
        assert_eq!(f[0].item.as_deref(), Some("stamp"));
    }

    #[test]
    fn rng_into_persisted_write_is_flagged() {
        let c = corpus(
            "impl Handler<Roll> for A {\n\
             fn handle(&mut self, msg: Roll, _ctx: &mut ActorContext<'_>) {\n\
             let n = thread_rng().gen::<u32>();\n\
             self.state.mutate(|s| s.seed = n);\n\
             }\n\
             }\n",
        );
        let f = replaycheck_corpus(&c);
        assert_eq!(rules(&f), ["nondet-in-turn"], "{f:?}");
        assert!(f[0].detail.contains("persisted write"), "{f:?}");
    }

    #[test]
    fn taint_into_helper_that_sends_is_flagged() {
        let c = corpus(
            "struct Gw { buffers: HashMap<String, Vec<u32>> }\n\
             impl Handler<Flush> for Gw {\n\
             fn handle(&mut self, msg: Flush, ctx: &mut ActorContext<'_>) {\n\
             for channel in self.buffers.keys() {\n\
             self.forward(channel, ctx);\n\
             }\n\
             }\n\
             }\n\
             impl Gw {\n\
             fn forward(&mut self, channel: &str, ctx: &mut ActorContext<'_>) {\n\
             ctx.actor_ref::<Chan>(channel.to_string()).tell(Ping);\n\
             }\n\
             }\n",
        );
        let f = replaycheck_corpus(&c);
        assert_eq!(rules(&f), ["nondet-in-turn"], "{f:?}");
        assert!(f[0].detail.contains("helper"), "{f:?}");
    }

    #[test]
    fn allow_marker_suppresses() {
        let c = corpus(
            "struct Gw { buffers: HashMap<String, Vec<u32>> }\n\
             impl Handler<Flush> for Gw {\n\
             fn handle(&mut self, msg: Flush, ctx: &mut ActorContext<'_>) {\n\
             for ch in self.buffers.keys() {\n\
             // deliberate: aodb-lint: allow(nondet-in-turn)\n\
             ctx.actor_ref::<Chan>(ch.clone()).tell(Ping);\n\
             }\n\
             }\n\
             }\n",
        );
        assert!(replaycheck_corpus(&c).is_empty());
    }

    #[test]
    fn clean_rebind_clears_taint() {
        let c = corpus(
            "struct Gw { buffers: HashMap<String, Vec<u32>> }\n\
             impl Handler<Flush> for Gw {\n\
             fn handle(&mut self, msg: Flush, ctx: &mut ActorContext<'_>) {\n\
             let ch = self.buffers.keys().next().cloned();\n\
             let ch = msg.channel.clone();\n\
             ctx.actor_ref::<Chan>(ch).tell(Ping);\n\
             }\n\
             }\n",
        );
        assert!(replaycheck_corpus(&c).is_empty());
    }
}
