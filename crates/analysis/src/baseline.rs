//! Baseline (suppression) files for `aodb-lint`.
//!
//! A baseline lets CI ratchet: pre-existing or deliberately-accepted
//! findings are listed once, with a justification, and everything *not*
//! listed fails the build. Two properties keep the ratchet honest:
//!
//! * every entry must carry a `reason` — suppressions are reviewable
//!   decisions, not noise control;
//! * an entry that no longer matches any finding is itself an error
//!   (stale suppression), so the baseline can only shrink as code heals.
//!
//! The format is a TOML subset parsed by hand (no new dependencies):
//!
//! ```toml
//! # comment
//! [[suppress]]
//! rule = "declaration-drift-missing"   # required
//! reason = "deliberate dirty fixture"  # required
//! file = "tests/enforcement.rs"        # optional, path suffix match
//! item = "handle"                      # optional, enclosing fn name
//! contains = "Undeclared"              # optional, substring of detail/excerpt
//! ```
//!
//! Entries key on `rule + file + item` (+ `contains`), never on line
//! numbers: an exact-line key silently goes stale whenever an unrelated
//! edit above it shifts the file, which punishes bystander PRs. A `line`
//! key is therefore rejected with a migration hint.

use std::fmt;
use std::path::PathBuf;

use crate::lint::{Finding, Rule};

/// One `[[suppress]]` entry.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Which rule this suppresses.
    pub rule: Rule,
    /// Human justification (required).
    pub reason: String,
    /// Path-suffix filter (`/`-separated), if any.
    pub file: Option<String>,
    /// Enclosing-item (function name) filter, if any.
    pub item: Option<String>,
    /// Substring filter against the finding's detail and excerpt.
    pub contains: Option<String>,
    /// Line of the entry in the baseline file (for stale reporting).
    pub defined_at: u32,
}

impl Suppression {
    /// Does this entry suppress the given finding?
    pub fn matches(&self, f: &Finding) -> bool {
        if f.rule != self.rule {
            return false;
        }
        if let Some(suffix) = &self.file {
            let path = f.file.to_string_lossy().replace('\\', "/");
            if !path.ends_with(suffix.trim_start_matches('/')) {
                return false;
            }
        }
        if let Some(item) = &self.item {
            if f.item.as_deref() != Some(item.as_str()) {
                return false;
            }
        }
        if let Some(sub) = &self.contains {
            if !f.detail.contains(sub.as_str()) && !f.excerpt.contains(sub.as_str()) {
                return false;
            }
        }
        true
    }
}

/// A parsed baseline file.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Entries in file order.
    pub entries: Vec<Suppression>,
    /// Where the baseline was loaded from (for error reporting).
    pub path: PathBuf,
}

/// A malformed baseline file (bad key, missing field, unknown rule).
#[derive(Debug)]
pub struct BaselineError {
    /// 1-based line of the offending construct.
    pub line: u32,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "baseline line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BaselineError {}

impl Baseline {
    /// Parses baseline text. Unknown keys and entries missing `rule` or
    /// `reason` are hard errors: a suppression that silently matches
    /// nothing (or everything) defeats the ratchet.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let mut entries: Vec<Suppression> = Vec::new();
        let mut current: Option<(u32, PartialEntry)> = None;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[suppress]]" {
                if let Some((at, partial)) = current.take() {
                    entries.push(partial.finish(at)?);
                }
                current = Some((lineno, PartialEntry::default()));
                continue;
            }
            if line.starts_with('[') {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("unknown section `{line}` (only [[suppress]] is valid)"),
                });
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let Some((_, partial)) = current.as_mut() else {
                return Err(BaselineError {
                    line: lineno,
                    message: "key outside a [[suppress]] entry".to_string(),
                });
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => {
                    let name = parse_string(value, lineno)?;
                    partial.rule = Some(Rule::from_name(&name).ok_or(BaselineError {
                        line: lineno,
                        message: format!("unknown rule `{name}`"),
                    })?);
                }
                "reason" => partial.reason = Some(parse_string(value, lineno)?),
                "file" => partial.file = Some(parse_string(value, lineno)?),
                "contains" => partial.contains = Some(parse_string(value, lineno)?),
                "item" => partial.item = Some(parse_string(value, lineno)?),
                "line" => {
                    return Err(BaselineError {
                        line: lineno,
                        message: "`line` keys are no longer supported (they go stale on \
                                  unrelated edits) — use `item = \"<enclosing fn>\"` instead"
                            .to_string(),
                    });
                }
                other => {
                    return Err(BaselineError {
                        line: lineno,
                        message: format!("unknown key `{other}`"),
                    });
                }
            }
        }
        if let Some((at, partial)) = current.take() {
            entries.push(partial.finish(at)?);
        }
        Ok(Baseline {
            entries,
            path: PathBuf::new(),
        })
    }

    /// Loads and parses a baseline file from disk.
    pub fn load(path: &std::path::Path) -> Result<Baseline, BaselineError> {
        let text = std::fs::read_to_string(path).map_err(|e| BaselineError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        let mut b = Baseline::parse(&text)?;
        b.path = path.to_path_buf();
        Ok(b)
    }

    /// Splits findings into (unsuppressed, stale entries). A finding is
    /// suppressed by the first matching entry; an entry matching zero
    /// findings is stale and must be removed from the baseline.
    pub fn apply<'a>(&'a self, findings: &[Finding]) -> (Vec<Finding>, Vec<&'a Suppression>) {
        let mut used = vec![false; self.entries.len()];
        let mut remaining = Vec::new();
        'findings: for f in findings {
            for (i, entry) in self.entries.iter().enumerate() {
                if entry.matches(f) {
                    used[i] = true;
                    continue 'findings;
                }
            }
            remaining.push(f.clone());
        }
        let stale = self
            .entries
            .iter()
            .zip(&used)
            .filter_map(|(e, used)| (!used).then_some(e))
            .collect();
        (remaining, stale)
    }
}

#[derive(Default)]
struct PartialEntry {
    rule: Option<Rule>,
    reason: Option<String>,
    file: Option<String>,
    item: Option<String>,
    contains: Option<String>,
}

impl PartialEntry {
    fn finish(self, at: u32) -> Result<Suppression, BaselineError> {
        let rule = self.rule.ok_or(BaselineError {
            line: at,
            message: "entry is missing required key `rule`".to_string(),
        })?;
        let reason = self.reason.filter(|r| !r.is_empty()).ok_or(BaselineError {
            line: at,
            message: "entry is missing required key `reason` (justify every suppression)"
                .to_string(),
        })?;
        Ok(Suppression {
            rule,
            reason,
            file: self.file,
            item: self.item,
            contains: self.contains,
            defined_at: at,
        })
    }
}

/// Strips a trailing `# comment`, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Parses a double-quoted TOML string with basic escapes.
fn parse_string(value: &str, line: u32) -> Result<String, BaselineError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or(BaselineError {
            line,
            message: format!("expected a double-quoted string, got `{value}`"),
        })?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, line: u32, detail: &str) -> Finding {
        Finding {
            rule,
            file: PathBuf::from(file),
            line,
            excerpt: String::new(),
            detail: detail.to_string(),
            item: None,
            class: None,
        }
    }

    #[test]
    fn parses_and_matches() {
        let b = Baseline::parse(
            "# workspace baseline\n\
             [[suppress]]\n\
             rule = \"declaration-drift-missing\"  # the rule\n\
             reason = \"deliberate dirty actor for the debug-enforcement test\"\n\
             file = \"tests/enforcement.rs\"\n\
             contains = \"Undeclared\"\n",
        )
        .unwrap();
        assert_eq!(b.entries.len(), 1);
        let hit = finding(
            Rule::DeclarationDriftMissing,
            "/repo/crates/analysis/tests/enforcement.rs",
            58,
            "sends `Undeclared` without a declaration",
        );
        let miss = finding(
            Rule::DeclarationDriftMissing,
            "/repo/crates/shm/src/gateway.rs",
            58,
            "sends `Undeclared` without a declaration",
        );
        let (rest, stale) = b.apply(&[hit, miss]);
        assert_eq!(rest.len(), 1);
        assert!(rest[0].file.ends_with("gateway.rs"));
        assert!(stale.is_empty());
    }

    #[test]
    fn stale_entries_are_reported() {
        let b = Baseline::parse(
            "[[suppress]]\n\
             rule = \"reply-leak\"\n\
             reason = \"was fixed long ago\"\n",
        )
        .unwrap();
        let (rest, stale) = b.apply(&[]);
        assert!(rest.is_empty());
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].defined_at, 1);
    }

    #[test]
    fn missing_reason_is_an_error() {
        let err = Baseline::parse(
            "[[suppress]]\n\
             rule = \"reply-leak\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_rule_and_key_are_errors() {
        assert!(
            Baseline::parse("[[suppress]]\nrule = \"no-such-rule\"\nreason = \"x\"\n").is_err()
        );
        assert!(Baseline::parse(
            "[[suppress]]\nrule = \"reply-leak\"\nreason = \"x\"\nseverity = \"low\"\n"
        )
        .is_err());
    }

    #[test]
    fn item_filter_and_comments_in_strings() {
        let b = Baseline::parse(
            "[[suppress]]\n\
             rule = \"reply-leak\"\n\
             reason = \"has a # inside\"\n\
             item = \"handle\"\n",
        )
        .unwrap();
        assert_eq!(b.entries[0].reason, "has a # inside");
        let mut in_handle = finding(Rule::ReplyLeak, "a.rs", 7, "");
        in_handle.item = Some("handle".to_string());
        let mut in_other = finding(Rule::ReplyLeak, "a.rs", 8, "");
        in_other.item = Some("drain".to_string());
        let (rest, stale) = b.apply(&[in_handle, in_other]);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].item.as_deref(), Some("drain"));
        assert!(stale.is_empty());
    }

    #[test]
    fn line_key_is_rejected_with_migration_hint() {
        let err = Baseline::parse(
            "[[suppress]]\n\
             rule = \"reply-leak\"\n\
             reason = \"x\"\n\
             line = 7\n",
        )
        .unwrap_err();
        assert!(err.message.contains("item"), "{err}");
    }

    #[test]
    fn legacy_rule_alias_is_unknown() {
        assert!(Baseline::parse(
            "[[suppress]]\n\
             rule = \"std-sync-where-parking-lot\"\n\
             reason = \"the alias of std-sync-primitive is gone\"\n",
        )
        .is_err());
    }
}
