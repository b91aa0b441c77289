//! rtpl-lint: the repo's invariant lint.
//!
//! A tokenizer-level pass (comments, string/char literals, and
//! `#[cfg(test)]` spans are masked out before matching — no false hits
//! from prose or test code) over every `src/` tree in the workspace,
//! enforcing local invariants that `clippy` does not:
//!
//! 1. **`unsafe` is justified** — every `unsafe` token must have a
//!    `// SAFETY:` comment (or a `# Safety` doc contract, for `unsafe fn`
//!    declarations) within the preceding few lines.
//! 2. **No `unwrap`/`expect` debt in the service path** — in
//!    `crates/{server,runtime,store}/src`, `.unwrap()` is banned outright
//!    and `.expect(...)` is allowed only for genuine invariants (message
//!    starting with `"invariant: "`) or with an explicit `// PANIC:`
//!    justification on the preceding lines.
//! 3. **Atomic orderings stay where they are reviewed** — files using
//!    `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` must be on the
//!    in-lint allowlist (the modules whose protocols are documented);
//!    anywhere else each use needs an `// ORDERING:` comment. The
//!    allowlist cannot rot: an entry whose file is gone, or no longer
//!    uses an atomic ordering outside test code, is itself a finding.
//! 4. **No `static mut`**, anywhere, ever.
//! 5. **One name, one type** (`duplicate-public-type`) — a `pub struct`,
//!    `pub enum` or `pub trait` name is defined in one product file only.
//! 6. **One choice, one enum** (`duplicate-enum-variants`) — no two
//!    `pub enum`s carry the same set of variant names.
//! 7. **No environment knobs** (`env-knob`) — `std::env::var`/`var_os`
//!    only in the files on the in-lint allowlist (fault injection's
//!    `RTPL_FAILPOINTS`); behaviour is configured through typed config,
//!    not the process environment.
//! 8. **No sleeping on the service path** (`service-sleep`) — no
//!    `thread::sleep` in the non-test code of the rule-2 crates, except
//!    in the files on the in-lint allowlist (the client's retry backoff).
//!    A service thread that must wait waits on a condvar or channel with
//!    a timeout, so a drain or a new job can end the wait. Like rule 3's,
//!    this allowlist cannot rot.
//!
//! Rules 5 and 6 look across files; rules 5–7 skip
//! `crates/bench/src/bin/benchmark/`, a package of its own.
//!
//! Exit status 0 when clean; 1 with one `path:line: rule: message` per
//! finding otherwise. Run from anywhere: the workspace root is baked in
//! at compile time via `CARGO_MANIFEST_DIR`.

use std::path::{Path, PathBuf};

/// Files whose atomic-ordering protocols are documented and reviewed in
/// place; a new file that needs atomics either joins this list (with its
/// protocol written down) or justifies each use with `// ORDERING:`.
const ORDERING_ALLOWLIST: &[&str] = &[
    "crates/executor/src/barrier.rs",
    "crates/executor/src/cancel.rs",
    "crates/executor/src/protocol.rs",
    "crates/executor/src/shared.rs",
    "crates/executor/src/trace.rs",
    "crates/inspector/src/wavefront.rs",
    "crates/runtime/src/batch.rs",
    "crates/runtime/src/cache.rs",
    "crates/runtime/src/pools.rs",
    "crates/runtime/src/service.rs",
    "crates/server/src/histogram.rs",
    "crates/server/src/server.rs",
    "crates/sim/src/calibrate.rs",
    "crates/sparse/src/failpoint.rs",
    "crates/store/src/lib.rs",
];

/// The only files that may read the process environment (rule 7).
const ENV_ALLOWLIST: &[&str] = &["crates/sparse/src/failpoint.rs"];

/// The only files under [`NO_PANIC_ROOTS`] that may sleep a thread
/// (rule 8): the client backs off between retries on its caller's thread.
const SLEEP_ALLOWLIST: &[&str] = &["crates/server/src/client.rs"];

const SLEEP: &str = "thread::sleep";

/// The stand-alone benchmark package, outside rules 5–7.
const BENCHMARK_PACKAGE: &str = "crates/bench/src/bin/benchmark/";

/// Crates whose non-test code must not carry panic debt (rule 2).
const NO_PANIC_ROOTS: &[&str] = &[
    "crates/server/src",
    "crates/runtime/src",
    "crates/store/src",
];

const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// How far above a flagged token a justifying comment may sit. Eight lines
/// covers a doc contract plus a couple of attributes between it and the
/// item (`# Safety` → `#[allow]` → `#[inline]` → `pub unsafe fn`).
const JUSTIFY_WINDOW: usize = 8;

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect_sources(&root, &root, &mut files);
    files.sort();

    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for rel in &files {
        let path = root.join(rel);
        match std::fs::read_to_string(&path) {
            Ok(src) => {
                lint_file(rel, &src, &mut findings);
                sources.push((rel.to_string_lossy().replace('\\', "/"), src));
            }
            Err(e) => findings.push(format!("{}:0: io: cannot read: {e}", rel.display())),
        }
    }
    findings.extend(vocabulary(&sources));
    for (list, files, patterns) in [
        ("ordering", ORDERING_ALLOWLIST, ATOMIC_ORDERINGS),
        ("sleep", SLEEP_ALLOWLIST, &[SLEEP]),
    ] {
        for rel in files {
            let src = std::fs::read_to_string(root.join(rel)).ok();
            findings.extend(stale_allowlist_entry(list, patterns, rel, src.as_deref()));
        }
    }

    if findings.is_empty() {
        println!("rtpl-lint: {} files clean", files.len());
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "rtpl-lint: {} finding(s) across {} files scanned",
            findings.len(),
            files.len()
        );
        std::process::exit(1);
    }
}

/// Every `.rs` file under a `src/` directory of the workspace (the root
/// package and each `crates/*` member); `tests/`, `examples/`, `benches/`,
/// and `target/` are out of scope by construction.
fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            let in_src = rel.components().any(|c| c.as_os_str() == "src");
            if in_src
                || name == "src"
                || name == "crates"
                || rel.parent() == Some(Path::new("crates"))
            {
                collect_sources(root, &path, out);
            }
        } else if name.ends_with(".rs") && rel.components().any(|c| c.as_os_str() == "src") {
            out.push(rel);
        }
    }
}

fn lint_file(rel: &Path, src: &str, findings: &mut Vec<String>) {
    let masked = mask_tests(&mask_lexical(src));
    debug_assert_eq!(masked.len(), src.len(), "masking must preserve offsets");
    let rel_str = rel.to_string_lossy().replace('\\', "/");

    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            src.char_indices()
                .filter(|&(_, c)| c == '\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let line_of = |off: usize| line_starts.partition_point(|&s| s <= off);
    let raw_lines: Vec<&str> = src.lines().collect();
    // True if any of the `JUSTIFY_WINDOW` raw lines ending at `line`
    // (1-based) contains one of the needles.
    let justified = |line: usize, needles: &[&str]| {
        let hi = line.min(raw_lines.len());
        let lo = hi.saturating_sub(JUSTIFY_WINDOW + 1);
        raw_lines[lo..hi]
            .iter()
            .any(|l| needles.iter().any(|n| l.contains(n)))
    };

    // Rule 1: `unsafe` needs a SAFETY justification.
    for off in find_word(&masked, "unsafe") {
        let line = line_of(off);
        if !justified(line, &["SAFETY:", "# Safety"]) {
            findings.push(format!(
                "{rel_str}:{line}: unsafe-undocumented: `unsafe` without a \
                 `// SAFETY:` comment or `# Safety` contract nearby"
            ));
        }
    }

    // Rule 4: `static mut` is banned outright.
    for off in find_word(&masked, "static") {
        let rest = masked[off + "static".len()..].trim_start();
        if rest.starts_with("mut ") {
            let line = line_of(off);
            findings.push(format!(
                "{rel_str}:{line}: static-mut: `static mut` is banned — use an \
                 atomic, a `Mutex`, or `OnceLock`"
            ));
        }
    }

    // Rule 3: atomic orderings only in reviewed files (or justified).
    if !ORDERING_ALLOWLIST.contains(&rel_str.as_str()) {
        for pat in ATOMIC_ORDERINGS {
            for off in find_all(&masked, pat) {
                let line = line_of(off);
                if !justified(line, &["ORDERING:"]) {
                    findings.push(format!(
                        "{rel_str}:{line}: ordering-unreviewed: `{pat}` outside the \
                         allowlist needs an `// ORDERING:` comment (or add the file \
                         to rtpl-lint's allowlist with its protocol documented)"
                    ));
                }
            }
        }
    }

    // Rule 7: no environment knobs outside the allowlist.
    if !ENV_ALLOWLIST.contains(&rel_str.as_str()) && !rel_str.starts_with(BENCHMARK_PACKAGE) {
        for off in find_all(&masked, "env::var") {
            let line = line_of(off);
            findings.push(format!(
                "{rel_str}:{line}: env-knob: reading the process environment — \
                 configure through a typed config field instead"
            ));
        }
    }

    let service_path = NO_PANIC_ROOTS.iter().any(|r| rel_str.starts_with(r));

    // Rule 8: no sleeping on the service path.
    if service_path && !SLEEP_ALLOWLIST.contains(&rel_str.as_str()) {
        for off in find_all(&masked, SLEEP) {
            let line = line_of(off);
            findings.push(format!(
                "{rel_str}:{line}: service-sleep: `{SLEEP}` in service-path code — \
                 wait on a condvar or channel with a timeout instead"
            ));
        }
    }

    // Rule 2: no panic debt in the service path.
    if service_path {
        for off in find_all(&masked, ".unwrap()") {
            let line = line_of(off);
            if !justified(line, &["PANIC:"]) {
                findings.push(format!(
                    "{rel_str}:{line}: unwrap-debt: `.unwrap()` in service-path \
                     code — propagate the error, use `unwrap_or_else`, or justify \
                     with `// PANIC:`"
                ));
            }
        }
        for off in find_all(&masked, ".expect(") {
            // The message must brand the expect as an invariant; read it
            // from the *raw* source (the masked copy blanks literals).
            let after = src[off + ".expect(".len()..].trim_start();
            if after.starts_with("\"invariant: ") {
                continue;
            }
            let line = line_of(off);
            if !justified(line, &["PANIC:"]) {
                findings.push(format!(
                    "{rel_str}:{line}: expect-debt: `.expect(...)` in service-path \
                     code — message must start with \"invariant: \" or the call \
                     must carry a `// PANIC:` justification"
                ));
            }
        }
    }
}

/// A `pub struct|enum|trait` in non-test code, with an enum's sorted
/// variant names (`None` for structs, traits and one-variant enums).
struct PubType<'a> {
    file: &'a str,
    line: usize,
    name: String,
    variants: Option<Vec<String>>,
}

/// Rules 5 and 6 over every `(path, source)` pair of the product.
fn vocabulary(sources: &[(String, String)]) -> Vec<String> {
    let types: Vec<PubType> = sources
        .iter()
        .filter(|(rel, _)| !rel.starts_with(BENCHMARK_PACKAGE))
        .flat_map(|(rel, src)| pub_types(rel, &mask_tests(&mask_lexical(src))))
        .collect();
    let mut findings = Vec::new();
    for (i, t) in types.iter().enumerate() {
        let (file, line, name) = (t.file, t.line, &t.name);
        let earlier = &types[..i];
        if let Some(u) = earlier.iter().find(|u| u.name == t.name && u.file != file) {
            findings.push(format!(
                "{file}:{line}: duplicate-public-type: `{name}` is also defined at {}:{}",
                u.file, u.line
            ));
        }
        if let Some(u) = earlier
            .iter()
            .find(|u| t.variants.is_some() && u.variants == t.variants)
        {
            findings.push(format!(
                "{file}:{line}: duplicate-enum-variants: `{name}` has the variants of `{}` ({}:{})",
                u.name, u.file, u.line
            ));
        }
    }
    findings
}

/// Every `pub struct|enum|trait` in an already masked source.
fn pub_types<'a>(file: &'a str, masked: &str) -> Vec<PubType<'a>> {
    let mut out = Vec::new();
    for off in find_word(masked, "pub") {
        // `pub(crate)` and friends are not public.
        let Some(after_pub) = masked[off + 3..].strip_prefix([' ', '\n']) else {
            continue;
        };
        let keyword = leading_ident(after_pub.trim_start());
        if matches!(keyword, "struct" | "enum" | "trait") {
            let decl = after_pub.trim_start()[keyword.len()..].trim_start();
            out.push(PubType {
                file,
                line: masked[..off].matches('\n').count() + 1,
                name: leading_ident(decl).to_string(),
                variants: Some(enum_variants(decl)).filter(|v| keyword == "enum" && v.len() >= 2),
            });
        }
    }
    out
}

/// The identifier `s` starts with (empty if none).
fn leading_ident(s: &str) -> &str {
    let end = s
        .find(|c: char| c != '_' && !c.is_ascii_alphanumeric())
        .unwrap_or(s.len());
    &s[..end]
}

/// The sorted variant names of the enum declared by `decl` (from its name
/// on): the leading identifier of each comma-separated item of its body.
/// Attributes and payloads sit inside brackets, so only the text outside
/// any bracket names a variant.
fn enum_variants(decl: &str) -> Vec<String> {
    let body = decl.find('{').map_or("", |open| &decl[open + 1..]);
    let (mut top_level, mut depth) = (String::new(), 0usize);
    for c in body.chars() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' if depth > 0 => depth -= 1,
            '}' => break,
            _ if depth == 0 => top_level.push(c),
            _ => {}
        }
    }
    let mut names: Vec<String> = top_level
        .split(',')
        .map(|item| leading_ident(item.trim_start_matches(['#', ' ', '\n'])).to_string())
        .filter(|name| !name.is_empty())
        .collect();
    names.sort();
    names
}

/// The other half of rules 3 and 8: an entry of the `list` allowlist
/// must still use one of its `patterns` outside test code. `src` is the
/// file's content, `None` if it cannot be read.
fn stale_allowlist_entry(
    list: &str,
    patterns: &[&str],
    rel: &str,
    src: Option<&str>,
) -> Option<String> {
    let why = match src {
        None => "the file does not exist".to_string(),
        Some(src) => {
            let masked = mask_tests(&mask_lexical(src));
            if patterns.iter().any(|pat| masked.contains(pat)) {
                return None;
            }
            format!(
                "the file uses none of `{}` outside test code",
                patterns.join("`, `")
            )
        }
    };
    Some(format!(
        "{rel}:0: {list}-allowlist-stale: {why} — remove it from rtpl-lint's allowlist"
    ))
}

/// Byte offsets of every occurrence of `pat` in `s`.
fn find_all(s: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = s[from..].find(pat) {
        out.push(from + i);
        from += i + pat.len();
    }
    out
}

/// Like [`find_all`], but only matches standing alone as a word (so
/// `unsafe` does not match inside `unsafe_op_in_unsafe_fn`).
fn find_word(s: &str, word: &str) -> Vec<usize> {
    let ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    find_all(s, word)
        .into_iter()
        .filter(|&i| {
            let b = s.as_bytes();
            let before_ok = i == 0 || !ident(b[i - 1]);
            let after = i + word.len();
            let after_ok = after >= b.len() || !ident(b[after]);
            before_ok && after_ok
        })
        .collect()
}

/// Replaces comment bodies and string/char-literal contents with spaces,
/// preserving every byte offset and newline, so substring matching over the
/// result sees only real code tokens.
fn mask_lexical(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    // Pushes `b[i..j]` blanked (newlines kept), advances to `j`.
    let blank = |out: &mut Vec<u8>, b: &[u8], i: usize, j: usize| {
        for &c in &b[i..j] {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let j = src[i..].find('\n').map_or(b.len(), |k| i + k);
                blank(&mut out, b, i, j);
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comments nest in Rust.
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, b, i, j);
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let (hash_start, hashes) = raw_string_hashes(b, i);
                // Emit the prefix (`r`, `br`, hashes, opening quote) as-is.
                let quote = hash_start + hashes;
                out.extend_from_slice(&b[i..=quote]);
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                let body = quote + 1;
                let j = find_bytes(&b[body..], &closer).map_or(b.len(), |k| body + k);
                blank(&mut out, b, body, j);
                let end = (j + closer.len()).min(b.len());
                out.extend_from_slice(&b[j..end]);
                i = end;
            }
            b'"' => {
                out.push(b'"');
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                blank(&mut out, b, i + 1, j.min(b.len()));
                if j < b.len() {
                    out.push(b'"');
                    j += 1;
                }
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes with `'` after
                // one (possibly escaped) char; a lifetime never closes.
                let close = if i + 1 < b.len() && b[i + 1] == b'\\' {
                    src[i + 2..].find('\'').map(|k| i + 2 + k)
                } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                    Some(i + 2)
                } else {
                    None
                };
                match close {
                    Some(j) => {
                        out.push(b'\'');
                        blank(&mut out, b, i + 1, j);
                        out.push(b'\'');
                        i = j + 1;
                    }
                    None => {
                        out.push(b'\'');
                        i += 1;
                    }
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("masking only replaces ASCII bytes with spaces")
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"...", r#"..."#, br"...", b"..." is NOT raw (plain-string arm handles
    // the body after the prefix byte, which is fine: contents still masked).
    let j = if b[i] == b'b' && i + 1 < b.len() && b[i + 1] == b'r' {
        i + 1
    } else {
        i
    };
    if b[j] != b'r' {
        return false;
    }
    // An `r` only opens a raw string when not part of an identifier.
    if i > 0 && (b[i - 1] == b'_' || b[i - 1].is_ascii_alphanumeric()) {
        return false;
    }
    let mut k = j + 1;
    while k < b.len() && b[k] == b'#' {
        k += 1;
    }
    k < b.len() && b[k] == b'"'
}

fn raw_string_hashes(b: &[u8], i: usize) -> (usize, usize) {
    let j = if b[i] == b'b' { i + 2 } else { i + 1 };
    let mut k = j;
    while k < b.len() && b[k] == b'#' {
        k += 1;
    }
    (j, k - j)
}

fn find_bytes(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Blanks every `#[cfg(test)]`-gated item (the following brace-matched
/// block, or through the terminating `;` for block-less items) in an
/// already lexically-masked source, so test code is exempt from the rules.
fn mask_tests(masked: &str) -> String {
    let mut out = masked.as_bytes().to_vec();
    for start in find_all(masked, "#[cfg(test)]") {
        let mut j = start + "#[cfg(test)]".len();
        let b = masked.as_bytes();
        // Scan to the item's opening brace, or its `;` if it has no block.
        let mut open = None;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let end = match open {
            Some(o) => {
                let mut depth = 0usize;
                let mut k = o;
                loop {
                    if k >= b.len() {
                        break k;
                    }
                    match b[k] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break k + 1;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            None => (j + 1).min(b.len()),
        };
        for c in &mut out[start..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    }
    String::from_utf8(out).expect("blanking only replaces ASCII bytes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_strings_and_test_mods() {
        let src = r##"
// unsafe in a comment
let s = "unsafe in a string";
let r = r#"unsafe raw"#;
let c = 'u';
#[cfg(test)]
mod tests {
    fn f() { x.unwrap(); }
}
"##;
        let m = mask_tests(&mask_lexical(src));
        assert_eq!(m.len(), src.len());
        assert!(!m.contains("unsafe"));
        assert!(!m.contains(".unwrap()"));
    }

    #[test]
    fn word_boundaries_exempt_the_lint_attribute() {
        let m = mask_lexical("#![deny(unsafe_op_in_unsafe_fn)]\nunsafe { x }\n");
        let hits = find_word(&m, "unsafe");
        assert_eq!(hits.len(), 1);
        assert_eq!(&m[hits[0]..hits[0] + 6], "unsafe");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let m = mask_lexical("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(m.contains("'a"), "lifetimes must survive masking: {m}");
    }

    #[test]
    fn service_path_expects_must_be_invariants() {
        let mut findings = Vec::new();
        lint_file(
            Path::new("crates/runtime/src/x.rs"),
            "fn f() { y.expect(\"oops\"); }\n",
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("expect-debt"));

        findings.clear();
        lint_file(
            Path::new("crates/runtime/src/x.rs"),
            "fn f() { y.expect(\"invariant: held\"); }\n",
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn environment_knobs_are_refused_outside_the_allowlist() {
        let lint = |rel: &str, src: &str| {
            let mut findings = Vec::new();
            lint_file(Path::new(rel), src, &mut findings);
            findings
        };
        let knob = "fn main() {\n    let on = std::env::var_os(\"RTPL_CALIBRATE\").is_some();\n}\n";
        let findings = lint("crates/bench/src/bin/table2.rs", knob);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].starts_with("crates/bench/src/bin/table2.rs:2: env-knob"),
            "{findings:?}"
        );
        let imported = "use std::env;\nfn f() -> String { env::var(\"X\").unwrap_or_default() }\n";
        assert_eq!(lint("crates/runtime/src/x.rs", imported).len(), 1);
        // The allowlisted fault-injection switch, the benchmark package,
        // prose, string literals and test code are all fine.
        let failpoints = "fn f() { let _ = std::env::var(\"RTPL_FAILPOINTS\"); }\n";
        assert!(lint("crates/sparse/src/failpoint.rs", failpoints).is_empty());
        assert!(lint("crates/bench/src/bin/benchmark/src/main.rs", knob).is_empty());
        let quiet = "// std::env::var is banned\nconst S: &str = \"env::var\";\n\
                     #[cfg(test)]\nmod tests { fn f() { std::env::var(\"SEED\").ok(); } }\n";
        assert!(lint("crates/executor/src/x.rs", quiet).is_empty());
    }

    fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|&(rel, src)| (rel.to_string(), src.to_string()))
            .collect()
    }

    #[test]
    fn a_public_type_name_is_defined_once() {
        let twice = sources(&[
            (
                "crates/a/src/x.rs",
                "/// doc\npub struct LoopSpec { n: usize }\n",
            ),
            ("crates/b/src/y.rs", "fn f() {}\npub struct LoopSpec;\n"),
        ]);
        let findings = vocabulary(&twice);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("crates/b/src/y.rs:2: duplicate-public-type"));
        assert!(findings[0].contains("crates/a/src/x.rs:2"), "{findings:?}");
        // Not a second public definition: crate-private, in a comment or
        // string, in test code, a use, or inside the benchmark package.
        let once = sources(&[
            ("crates/a/src/x.rs", "pub enum Sorting { Global, Local }\n"),
            (
                "crates/b/src/y.rs",
                "pub(crate) enum Sorting { A, B }\n// pub enum Sorting\n",
            ),
            (
                "crates/c/src/z.rs",
                "#[cfg(test)]\nmod tests { pub enum Sorting { C, D } }\n",
            ),
            (
                "crates/d/src/w.rs",
                "pub use a::Sorting;\nconst S: &str = \"pub enum Sorting\";\n",
            ),
            (
                "crates/bench/src/bin/benchmark/src/m.rs",
                "pub enum Sorting { E, F }\n",
            ),
        ]);
        assert!(vocabulary(&once).is_empty(), "{:?}", vocabulary(&once));
    }

    #[test]
    fn no_two_enums_share_a_variant_set() {
        let spelled_twice = sources(&[
            (
                "crates/a/src/x.rs",
                "pub enum Scheduling {\n    Global,\n    LocalStriped,\n    LocalContiguous,\n}\n",
            ),
            (
                "crates/a/src/y.rs",
                "pub enum Sorting {\n    /// Doc, with a comma.\n    #[default]\n    LocalContiguous = 2,\n    \
                 Global,\n    LocalStriped\n}\n",
            ),
        ]);
        let findings = vocabulary(&spelled_twice);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("duplicate-enum-variants"),
            "{findings:?}"
        );
        assert!(findings[0].contains("`Sorting` has the variants of `Scheduling`"));
        // Payloads, generics and nested braces do not confuse the parse;
        // overlapping but different sets, and one-variant enums, pass.
        let distinct = sources(&[
            (
                "crates/a/src/x.rs",
                "pub enum JobKind<'a, B: Body = NoBody> { Solve { x: &'a [f64], y: (u8, u8) }, \
                 Loop(Vec<(u32, u32)>), Linear }\npub enum One { Solve }\n",
            ),
            (
                "crates/a/src/y.rs",
                "pub enum Class { Solve, Loop }\npub enum Two { Solve }\n",
            ),
        ]);
        assert!(
            vocabulary(&distinct).is_empty(),
            "{:?}",
            vocabulary(&distinct)
        );
        assert_eq!(
            enum_variants("JobKind<'a> { Solve { x: u8 }, Loop(Vec<(u32, u32)>), Linear }"),
            ["Linear", "Loop", "Solve"]
        );
    }

    #[test]
    fn allowlist_entries_must_still_use_an_ordering() {
        let stale = |rel, src| stale_allowlist_entry("ordering", ATOMIC_ORDERINGS, rel, src);
        let rel = "crates/runtime/src/x.rs";
        let gone = stale(rel, None).expect("missing file is stale");
        assert!(gone.contains("ordering-allowlist-stale"), "{gone}");
        let only_in_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n    \
                             fn g() { X.load(Ordering::Relaxed); }\n}\n// Ordering::Acquire\n";
        assert!(stale(rel, Some(only_in_tests)).is_some());
        let live = "fn f() { X.store(1, Ordering::Release); }\n";
        assert_eq!(stale(rel, Some(live)), None);
    }

    #[test]
    fn service_path_sleeps_are_refused_outside_the_allowlist() {
        let lint = |rel: &str, src: &str| {
            let mut findings = Vec::new();
            lint_file(Path::new(rel), src, &mut findings);
            findings
        };
        let sleep = "fn f(w: Duration) {\n    std::thread::sleep(w);\n}\n";
        let findings = lint("crates/server/src/server.rs", sleep);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].starts_with("crates/server/src/server.rs:2: service-sleep"),
            "{findings:?}"
        );
        let imported = "use std::thread;\nfn f() { thread::sleep(W); }\n";
        assert_eq!(lint("crates/store/src/lib.rs", imported).len(), 1);
        // The client's backoff, code outside the service crates, prose,
        // string literals and test code are all fine.
        assert!(lint("crates/server/src/client.rs", sleep).is_empty());
        assert!(lint("crates/executor/src/x.rs", sleep).is_empty());
        let quiet = "// thread::sleep is banned\nconst S: &str = \"thread::sleep\";\n\
                     #[cfg(test)]\nmod tests { fn f() { std::thread::sleep(W); } }\n";
        assert!(lint("crates/runtime/src/x.rs", quiet).is_empty());
        // The allowlist cannot rot.
        let rel = "crates/server/src/client.rs";
        let stale = stale_allowlist_entry("sleep", &[SLEEP], rel, Some("fn f() {}\n"));
        assert!(
            stale.is_some_and(
                |f| f.starts_with("crates/server/src/client.rs:0: sleep-allowlist-stale")
            ),
        );
        assert_eq!(
            stale_allowlist_entry("sleep", &[SLEEP], rel, Some(sleep)),
            None
        );
    }
}
