//! `spmap-lint`: a dependency-free static analyzer for this workspace's
//! determinism and unsafe-code discipline.
//!
//! Every exactness claim in this reproduction rests on bit-identity
//! gates (`tests/equivalence.rs`): results and decision statistics must
//! be invariant across `SPMAP_THREADS` × `SPMAP_SHARDS` × checkpoint
//! layouts.  Those gates can only *sample* the invariants they depend
//! on; this tool enforces the underlying source discipline on every
//! line of the workspace, in CI (see `docs/DETERMINISM.md`):
//!
//! * [`unsafe-needs-safety-comment`] — every `unsafe` token must be
//!   preceded by a `// SAFETY:` comment (or a `# Safety` doc section)
//!   stating the invariant that makes it sound.
//! * [`no-unordered-iteration`] — iterating a `HashMap`/`HashSet`
//!   (`iter`, `keys`, `values`, `drain`, `retain`, `for … in`) is
//!   forbidden in non-test code: iteration order is randomized per
//!   instance, so any order-dependent use silently breaks determinism
//!   in a way the equivalence matrix can only catch probabilistically.
//! * [`no-env-outside-config`] — `std::env::var`/`var_os` is confined
//!   to the sanctioned parse helpers (`spmap_par::num_threads` /
//!   `num_shards` and friends in `crates/par/src/lib.rs`),
//!   so ambient configuration can never leak into a decision path
//!   unaudited.
//! * [`no-wallclock-in-decisions`] — `Instant`/`SystemTime` are
//!   confined to the bench harness, the criterion shim and examples;
//!   crates whose outputs are Eq-compared must not read the clock.
//! * [`catch-unwind-needs-containment-comment`] — every production
//!   `catch_unwind` must be preceded by a `// CONTAINMENT:` comment
//!   naming the recovery policy: what state the caught unwind leaves
//!   behind and who restores it (docs/ROBUSTNESS.md).  Test code is
//!   exempt — tests use `catch_unwind` to *observe* panics.
//! * [`no-thread-outside-par`] — `thread::spawn`, `thread::scope` and
//!   `thread::Builder` are confined to `crates/par` (plus the paths the
//!   wall-clock rule exempts), so every thread the library starts runs
//!   through the pool and shows in its `DispatchStats`.
//!
//! Exceptions are written down where they live: an inline pragma
//!
//! ```text
//! // lint:allow(<rule>): <reason>
//! ```
//!
//! suppresses one rule either on its own line (trailing comment) or on
//! the next code line (whole-line comment).  The reason is mandatory —
//! a pragma without one is itself a violation — and `git grep
//! lint:allow` enumerates every exception in the workspace.
//!
//! The analyzer is a hand-rolled lexer (no `syn` — the workspace builds
//! offline): it tokenizes Rust source precisely enough to ignore
//! comments, strings and char/lifetime ambiguity, tracks `#[cfg(test)]`
//! item spans, and pattern-matches token runs.  It is deliberately
//! conservative: lexical analysis cannot resolve types, so the
//! unordered-iteration rule tracks identifiers *bound* to hash types in
//! the same file and flags iteration through them — false negatives
//! are possible across function boundaries, false positives are
//! pragma-suppressed with a written reason.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The enforced rules, in reporting order.
pub const RULE_NAMES: [&str; 6] = [
    "unsafe-needs-safety-comment",
    "no-unordered-iteration",
    "no-env-outside-config",
    "no-wallclock-in-decisions",
    "catch-unwind-needs-containment-comment",
    "no-thread-outside-par",
];

/// One finding: `file:line: rule: message`, the grep-able CI currency.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based source line.
    pub line: usize,
    /// Rule name (one of [`RULE_NAMES`], or `bad-pragma` for a
    /// malformed/unknown `lint:allow`).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// One lexical token with its 1-based source line.  Punctuation is one
/// token per character except `::`, which the rules match as a unit.
struct Tok {
    text: String,
    line: usize,
}

/// A lexed file: the token stream plus per-line comment text (for
/// SAFETY markers and pragmas) and a per-line "has code" flag.
struct FileScan {
    toks: Vec<Tok>,
    /// Comment text per line, 1-indexed (index 0 unused).  Line and
    /// block comments both contribute; multi-line block comments
    /// contribute to every line they touch.
    comments: Vec<String>,
    /// `true` where at least one token starts on the line, 1-indexed.
    code_on_line: Vec<bool>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `source`, stripping comments (recorded per line), string
/// and char literals, and resolving the `'` lifetime-vs-char-literal
/// ambiguity.  Good enough for token-run matching; not a full lexer.
fn scan(source: &str) -> FileScan {
    let chars: Vec<char> = source.chars().collect();
    let nlines = source.lines().count() + 2;
    let mut s = FileScan {
        toks: Vec::new(),
        comments: vec![String::new(); nlines],
        code_on_line: vec![false; nlines],
    };
    let mut i = 0usize;
    let mut line = 1usize;
    let push = |s: &mut FileScan, text: String, line: usize| {
        s.code_on_line[line] = true;
        s.toks.push(Tok { text, line });
    };
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                s.comments[line].push_str(&text);
                s.comments[line].push(' ');
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Nested block comment; text recorded line by line.
                let mut depth = 1usize;
                i += 2;
                let mut seg = String::new();
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            s.comments[line].push_str(&seg);
                            s.comments[line].push(' ');
                            seg.clear();
                            line += 1;
                        } else {
                            seg.push(chars[i]);
                        }
                        i += 1;
                    }
                }
                s.comments[line].push_str(&seg);
                s.comments[line].push(' ');
            }
            '"' => {
                i = skip_string(&chars, i, &mut line);
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if chars
                    .get(i + 1)
                    .is_some_and(|&c2| is_ident_start(c2) && chars.get(i + 2) != Some(&'\''))
                {
                    i += 1;
                    while i < chars.len() && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                } else {
                    i += 1; // opening quote
                    while i < chars.len() && chars[i] != '\'' {
                        if chars[i] == '\\' {
                            i += 1;
                        }
                        if chars.get(i) == Some(&'\n') {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1; // closing quote
                }
            }
            c if is_ident_start(c) => {
                // Raw strings / raw identifiers / byte strings first.
                if (c == 'r' || c == 'b') && matches!(chars.get(i + 1), Some(&'"') | Some(&'#')) {
                    if let Some(ni) = skip_raw_or_byte(&chars, i, &mut line) {
                        i = ni;
                        continue;
                    }
                }
                let start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                push(&mut s, chars[start..i].iter().collect(), line);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len()
                    && (is_ident_continue(chars[i])
                        || (chars[i] == '.'
                            && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())))
                {
                    i += 1;
                }
                push(&mut s, chars[start..i].iter().collect(), line);
            }
            ':' if chars.get(i + 1) == Some(&':') => {
                push(&mut s, "::".to_string(), line);
                i += 2;
            }
            _ => {
                push(&mut s, c.to_string(), line);
                i += 1;
            }
        }
    }
    s
}

/// Skip a `"…"` literal starting at `chars[i]`; returns the index past
/// the closing quote and bumps `line` across embedded newlines.
fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < chars.len() && chars[i] != '"' {
        if chars[i] == '\\' {
            i += 1;
        }
        if chars.get(i) == Some(&'\n') {
            *line += 1;
        }
        i += 1;
    }
    i + 1
}

/// Skip `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` etc. starting at the `r` /
/// `b`.  Returns `None` when the prefix is actually an identifier
/// (e.g. a raw identifier `r#match` — consumed as an ident upstream).
fn skip_raw_or_byte(chars: &[char], start: usize, line: &mut usize) -> Option<usize> {
    let mut i = start + 1;
    if chars.get(i) == Some(&'r') {
        i += 1; // `br` prefix
    }
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return None; // raw identifier or plain ident starting with r/b
    }
    if hashes == 0 && chars[start..i].contains(&'#') {
        return None;
    }
    if hashes == 0 {
        return Some(skip_string(chars, i, line));
    }
    i += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
        }
        if chars[i] == '"' && chars[i + 1..].iter().take_while(|&&c| c == '#').count() >= hashes {
            return Some(i + 1 + hashes);
        }
        i += 1;
    }
    Some(i)
}

/// An inline exception: `// lint:allow(<rule>): <reason>`.
struct Pragmas {
    /// `(line, rule)` pairs suppressed by a well-formed pragma.
    allowed: BTreeSet<(usize, &'static str)>,
    /// Malformed pragmas (unknown rule / missing reason).
    bad: Vec<(usize, String)>,
}

fn collect_pragmas(s: &FileScan) -> Pragmas {
    let mut p = Pragmas {
        allowed: BTreeSet::new(),
        bad: Vec::new(),
    };
    for line in 1..s.comments.len() {
        let text = &s.comments[line];
        // Doc comments are prose (they may *quote* the pragma
        // template); only plain `//` / `/* */` comments carry pragmas.
        if text.trim_start().starts_with("//!") || text.trim_start().starts_with("///") {
            continue;
        }
        let Some(pos) = text.find("lint:allow(") else {
            continue;
        };
        let rest = &text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            p.bad.push((line, "unterminated lint:allow pragma".into()));
            continue;
        };
        let rule = rest[..close].trim();
        let Some(known) = RULE_NAMES.iter().find(|&&r| r == rule) else {
            p.bad
                .push((line, format!("unknown rule `{rule}` in lint:allow")));
            continue;
        };
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            p.bad.push((
                line,
                format!("lint:allow({rule}) requires a reason: `// lint:allow({rule}): <why>`"),
            ));
            continue;
        }
        // A trailing pragma covers its own line; a whole-line pragma
        // covers the next line that carries code.
        let covered = if s.code_on_line[line] {
            line
        } else {
            match (line + 1..s.code_on_line.len()).find(|&l| s.code_on_line[l]) {
                Some(l) => l,
                None => continue, // pragma at EOF: nothing to cover
            }
        };
        p.allowed.insert((covered, known));
    }
    p
}

/// Lines covered by a `#[cfg(test)]` item (the attribute through the
/// item's closing brace or semicolon), 1-indexed.
fn cfg_test_lines(s: &FileScan) -> Vec<bool> {
    let mut exempt = vec![false; s.comments.len()];
    let toks = &s.toks;
    let mut i = 0usize;
    while i + 4 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && {
                // Scan the attribute's argument list for the `test` ident.
                let mut j = i + 4;
                let mut depth = 1usize;
                let mut found = false;
                while j < toks.len() && depth > 0 {
                    match toks[j].text.as_str() {
                        "(" => depth += 1,
                        ")" => depth -= 1,
                        "test" => found = true,
                        _ => {}
                    }
                    j += 1;
                }
                found
            };
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Walk past this attribute's closing `]`, any further
        // attributes, then the item: either `… ;` or `… { … }`.
        let mut j = i + 2;
        let mut bracket = 1usize; // we are inside `#[`
        while j < toks.len() && bracket > 0 {
            match toks[j].text.as_str() {
                "[" => bracket += 1,
                "]" => bracket -= 1,
                _ => {}
            }
            j += 1;
        }
        while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
            let mut depth = 0usize;
            loop {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
                if depth == 0 && toks[j - 1].text == "]" || j >= toks.len() {
                    break;
                }
            }
        }
        let mut depth = 0usize;
        let mut end_line = start_line;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = toks[j].line;
                        j += 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end_line = toks[j].line;
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for l in start_line..=end_line.min(exempt.len() - 1) {
            exempt[l] = true;
        }
        i = j;
    }
    exempt
}

/// `true` when any path component marks test/bench/example code.
fn is_test_path(rel: &Path) -> bool {
    rel.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("examples") | Some("fixtures")
        )
    })
}

/// Paths where wall-clock reads are legitimate: the bench harness, the
/// offline criterion shim, examples and test code.
fn wallclock_allowed(rel: &Path) -> bool {
    is_test_path(rel) || rel.starts_with("crates/bench") || rel.starts_with("crates/shims")
}

/// Paths that may start threads: the parallel runtime (`crates/par`)
/// and the paths exempt from the wall-clock rule.
fn threads_allowed(rel: &Path) -> bool {
    wallclock_allowed(rel) || rel.starts_with("crates/par")
}

/// The sanctioned home of `std::env::var`: the defensive parse helpers
/// (`num_threads` / `num_shards` / `parse_threads` / `parse_shards`).
fn env_sanctioned(rel: &Path) -> bool {
    rel == Path::new("crates/par/src/lib.rs")
}

/// Methods whose call on a hash container observes iteration order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Identifiers bound to a `HashMap`/`HashSet` in this file: from typed
/// bindings/fields/params (`name: [&mut] HashMap<…>`) and constructor
/// bindings (`let [mut] name = HashMap::new()` etc.).
fn hash_bound_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].text != "HashMap" && toks[i].text != "HashSet" {
            continue;
        }
        // Walk back over a path prefix (`std :: collections ::`).
        let mut j = i;
        while j >= 2 && toks[j - 1].text == "::" {
            j -= 2;
        }
        // Typed position: `name : [& mut] [path] Hash…`.
        let mut k = j;
        while k >= 1 && matches!(toks[k - 1].text.as_str(), "&" | "mut") {
            k -= 1;
        }
        if k >= 2 && toks[k - 1].text == ":" {
            let name = &toks[k - 2].text;
            if name.chars().next().is_some_and(is_ident_start) {
                names.insert(name.clone());
            }
            continue;
        }
        // Constructor position: `let [mut] name = [path] Hash… :: …`.
        if j >= 3 && toks[j - 1].text == "=" {
            let name = &toks[j - 2].text;
            let kw = &toks[j - 3].text;
            if (kw == "let" || kw == "mut") && name.chars().next().is_some_and(is_ident_start) {
                names.insert(name.clone());
            }
        }
    }
    names
}

/// Lint one file's source.  `rel` is the path relative to the
/// workspace root — it decides which per-path policies apply.
pub fn lint_source(rel: &Path, source: &str) -> Vec<Violation> {
    let s = scan(source);
    let pragmas = collect_pragmas(&s);
    let test_lines = cfg_test_lines(&s);
    let test_path = is_test_path(rel);
    let mut out: Vec<Violation> = Vec::new();
    for (line, msg) in &pragmas.bad {
        out.push(Violation {
            file: rel.to_path_buf(),
            line: *line,
            rule: "bad-pragma",
            message: msg.clone(),
        });
    }
    let exempt = |line: usize| test_path || test_lines.get(line).copied().unwrap_or(false);
    let allowed = |line: usize, rule: &'static str| pragmas.allowed.contains(&(line, rule));
    let mut push = |line: usize, rule: &'static str, message: String| {
        if !allowed(line, rule) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line,
                rule,
                message,
            });
        }
    };

    // Rule 1: unsafe-needs-safety-comment.  Applies everywhere, test
    // code included — unsafe is unsafe.
    let has_marker = |line: usize| {
        let t = &s.comments[line];
        t.contains("SAFETY:") || t.contains("# Safety")
    };
    for t in &s.toks {
        if t.text != "unsafe" {
            continue;
        }
        let mut ok = has_marker(t.line);
        // Walk up through the contiguous comment/attribute block.
        let mut l = t.line;
        while !ok && l > 1 {
            l -= 1;
            let comment_only = !s.code_on_line[l] && !s.comments[l].trim().is_empty();
            let attr_line = s.code_on_line[l]
                && s.toks
                    .iter()
                    .find(|tk| tk.line == l)
                    .is_some_and(|tk| tk.text == "#");
            if !(comment_only || attr_line) {
                break;
            }
            ok = has_marker(l);
        }
        if !ok {
            push(
                t.line,
                "unsafe-needs-safety-comment",
                "`unsafe` without a preceding `// SAFETY:` comment stating its invariant".into(),
            );
        }
    }

    // Rule 2: no-unordered-iteration.
    let hash_names = hash_bound_idents(&s.toks);
    for (i, t) in s.toks.iter().enumerate() {
        if !hash_names.contains(&t.text) || exempt(t.line) {
            continue;
        }
        if s.toks.get(i + 1).is_some_and(|n| n.text == ".")
            && s.toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && s.toks.get(i + 3).is_some_and(|p| p.text == "(")
        {
            let method = &s.toks[i + 2].text;
            push(
                s.toks[i + 2].line,
                "no-unordered-iteration",
                format!(
                    "`{}.{}()` observes randomized hash order; use a BTree collection, sort \
                     first, or justify with a pragma",
                    t.text, method
                ),
            );
        }
    }
    // `for … in <expr containing a bare hash-bound name>`.
    let mut i = 0usize;
    while i < s.toks.len() {
        if s.toks[i].text != "for" {
            i += 1;
            continue;
        }
        let Some(in_pos) = (i + 1..s.toks.len().min(i + 64)).find(|&j| s.toks[j].text == "in")
        else {
            i += 1;
            continue;
        };
        let mut j = in_pos + 1;
        while j < s.toks.len() && s.toks[j].text != "{" && s.toks[j].text != ";" {
            let t = &s.toks[j];
            if hash_names.contains(&t.text)
                && !exempt(t.line)
                && !matches!(
                    s.toks.get(j + 1).map(|n| n.text.as_str()),
                    Some(".") | Some("(") | Some("::")
                )
            {
                push(
                    t.line,
                    "no-unordered-iteration",
                    format!(
                        "`for … in {}` iterates randomized hash order; use a BTree collection, \
                         sort first, or justify with a pragma",
                        t.text
                    ),
                );
            }
            j += 1;
        }
        i = j;
    }

    // Rule 3: no-env-outside-config.
    if !env_sanctioned(rel) {
        for (i, t) in s.toks.iter().enumerate() {
            if t.text == "env"
                && s.toks.get(i + 1).is_some_and(|n| n.text == "::")
                && s.toks
                    .get(i + 2)
                    .is_some_and(|m| matches!(m.text.as_str(), "var" | "var_os" | "vars"))
                && !exempt(t.line)
            {
                push(
                    t.line,
                    "no-env-outside-config",
                    format!(
                        "`env::{}` outside the sanctioned parse helpers (crates/par/src/lib.rs); \
                         route configuration through them or justify with a pragma",
                        s.toks[i + 2].text
                    ),
                );
            }
        }
    }

    // Rule 4: no-wallclock-in-decisions.
    if !wallclock_allowed(rel) {
        for t in &s.toks {
            if (t.text == "Instant" || t.text == "SystemTime") && !exempt(t.line) {
                push(
                    t.line,
                    "no-wallclock-in-decisions",
                    format!(
                        "`{}` in a crate whose outputs are Eq-compared; wall-clock reads belong \
                         in the bench harness, or justify with a pragma",
                        t.text
                    ),
                );
            }
        }
    }

    // Rule 5: catch-unwind-needs-containment-comment.  A production
    // `catch_unwind` is a policy decision — what state does the caught
    // unwind leave behind, and who recovers it?  That policy must be
    // written down where it lives.  Test code is exempt (tests use
    // catch_unwind to *observe* panics), and so are `use` declarations
    // (importing the symbol is not catching anything).
    let has_containment = |line: usize| s.comments[line].contains("CONTAINMENT:");
    let mut in_use = false;
    for t in &s.toks {
        match t.text.as_str() {
            "use" => in_use = true,
            ";" => in_use = false,
            _ => {}
        }
        if t.text != "catch_unwind" || in_use || exempt(t.line) {
            continue;
        }
        let mut ok = has_containment(t.line);
        // Walk up through the contiguous comment/attribute block,
        // exactly like the SAFETY rule.
        let mut l = t.line;
        while !ok && l > 1 {
            l -= 1;
            let comment_only = !s.code_on_line[l] && !s.comments[l].trim().is_empty();
            let attr_line = s.code_on_line[l]
                && s.toks
                    .iter()
                    .find(|tk| tk.line == l)
                    .is_some_and(|tk| tk.text == "#");
            if !(comment_only || attr_line) {
                break;
            }
            ok = has_containment(l);
        }
        if !ok {
            push(
                t.line,
                "catch-unwind-needs-containment-comment",
                "`catch_unwind` without a preceding `// CONTAINMENT:` comment naming the \
                 recovery policy (what state the unwind leaves, who restores it)"
                    .into(),
            );
        }
    }

    // Rule 6: no-thread-outside-par.  A thread started outside the
    // pool is invisible to `DispatchStats` and escapes its thread
    // budget; `thread::available_parallelism` and friends start none.
    if !threads_allowed(rel) {
        for (i, t) in s.toks.iter().enumerate() {
            if t.text == "thread"
                && s.toks.get(i + 1).is_some_and(|n| n.text == "::")
                && s.toks
                    .get(i + 2)
                    .is_some_and(|m| matches!(m.text.as_str(), "spawn" | "scope" | "Builder"))
                && !exempt(t.line)
            {
                push(
                    t.line,
                    "no-thread-outside-par",
                    format!(
                        "`thread::{}` outside crates/par; run the work on the pool so it shows \
                         in DispatchStats, or justify with a pragma",
                        s.toks[i + 2].text
                    ),
                );
            }
        }
    }

    out.sort();
    out
}

/// Directories the workspace walk never descends into.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "fixtures" || name.starts_with('.')
}

/// Recursively lint every `.rs` file under `root`.  Returns the sorted
/// violation list and the number of files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Violation>, usize)> {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let source = std::fs::read_to_string(path)?;
        out.extend(lint_source(rel, &source));
    }
    out.sort();
    Ok((out, files.len()))
}

/// Ascend from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — the root the binary lints by default.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
